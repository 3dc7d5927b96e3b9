//! Command line: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints a metric table and, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! operation or correctness check failed, 2 on a usage error.

fn main() {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out = perfbench::run(&args);
    println!("{}", out.render(&args));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
