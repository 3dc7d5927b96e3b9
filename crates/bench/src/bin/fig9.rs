//! Figure 9: preprocessing time of the eight dual-operator approaches of
//! Table 2 (implicit/explicit × library/algorithm), per subdomain, over the
//! subdomain-size ladder.
//!
//! Usage: `cargo run -p sc-bench --release --bin fig9 [--full]`

use sc_bench::{ladder_2d, ladder_3d, BenchArgs, Table};
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{preprocess_approach, DualOpApproach};
use sc_gpu::{Device, DeviceSpec};

fn main() {
    let args = BenchArgs::parse();
    let device = Device::new(DeviceSpec::a100(), 4);

    for dim in [2usize, 3] {
        let ladder = if dim == 2 {
            ladder_2d(args.max_dofs_cpu)
        } else {
            ladder_3d(args.max_dofs_cpu)
        };
        let mut headers: Vec<&str> = vec!["dofs"];
        headers.extend(DualOpApproach::ALL.iter().map(|a| a.paper_name()));
        let mut table = Table::new(
            &format!("Fig 9: dual-operator preprocessing, {dim}D [ms per subdomain]"),
            &headers,
        );

        for &c in &ladder {
            let problem = if dim == 2 {
                HeatProblem::build_2d(c, (3, 3), Gluing::Redundant)
            } else {
                HeatProblem::build_3d(c, (2, 2, 2), Gluing::Redundant)
            };
            let nsub = problem.subdomains.len() as f64;
            let mut row = vec![problem.dofs_per_subdomain().to_string()];
            for approach in DualOpApproach::ALL {
                let prepared = preprocess_approach(&problem, approach, Some(&device));
                row.push(format!("{:.3}", prepared.report.total_s() / nsub * 1e3));
            }
            table.row(row);
        }
        table.emit(&format!("fig9_{dim}d"));
    }
    println!("totals = measured factorization wall + measured CPU assembly wall +");
    println!("simulated GPU assembly makespan (GPU columns mix measured and simulated");
    println!("time; see perfbench/README.md). Paper shape to check: expl_mkl fastest explicit");
    println!("in 2D; expl_gpu_opt fastest explicit for large 3D subdomains, up to 9.8x");
    println!("faster than expl_mkl and only ~2.3x slower than implicit preprocessing.");
}
