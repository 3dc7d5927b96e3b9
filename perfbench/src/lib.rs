//! The repository's benchmark: three seeded workloads over the whole
//! schur-dd stack, measured in host wall-clock time.
//!
//! One run executes one workload for a fixed number of seconds and prints
//! a table of metrics followed by one JSON result line. With `--trace 0`
//! the metrics are the end-to-end ones a user of the stack sees; with
//! `--trace 1` the same workload runs with spans recorded around the
//! calls into each crate, and the metrics are the per-layer ones.
//! `perfbench/metrics.json` names each metric's layer, its kind
//! (`measured`, `computed` or `sim`) and which end-to-end metric it
//! should move on which workload.

pub mod layers;
pub mod serve;
pub mod solve;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use trace::Recorder;

/// The benchmark's workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["assembly3d", "pcpg2d", "serve_mix"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the seed only.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    /// A generator for an independent stream `stream` of the same seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed);
        r.0 ^= stream.wrapping_mul(0xA24B_AED4_963E_E407);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Median of `xs` (`NaN` when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (`NaN` when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Whether a tail percentile `p` of `n` samples leaves at least ten
/// samples beyond it — the condition under which the benchmark reports it.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two timevals then fourteen longs), and `usage` is a valid,
    // writable value of it for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid pointer"
    );
    // Linux reports ru_maxrss in KiB
    usage.maxrss as f64 / 1024.0
}

/// One reported metric: value, unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Operation counts and metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable reasons of failed operations (first few kept).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Extra context lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; `Err` marks it failed with its reason.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Human-readable table followed by the one-line JSON result (last line).
    pub fn render(&self, args: &Args) -> String {
        let mut s = String::new();
        let threads = rayon::current_num_threads();
        let _ = writeln!(
            s,
            "workload={} seed={} seconds={} trace={} threads={}",
            args.workload, args.seed, args.seconds, args.trace as u8, threads
        );
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        for (name, m) in &self.metrics {
            let _ = writeln!(
                s,
                "  {name:<26} {:>16.6} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "  {:<26} {:>16.6} {:<6} n={}",
            "failed_frac", failed_frac, "ratio", self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite float as JSON (non-finite values, which JSON cannot carry,
/// become `null`).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Run `f` once untimed (so first-touch page faults and allocator growth
/// are not timed), then `reps` times; return the median wall seconds of
/// the timed calls plus the last result.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        let r = std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&times), last.expect("at least one repetition ran"))
}

/// Run one workload as the arguments ask.
pub fn run(args: &Args) -> Outcome {
    let rec = Recorder::new(args.trace);
    let mut out = match args.workload.as_str() {
        "assembly3d" => solve::run(solve::ASSEMBLY3D, args, &rec),
        "pcpg2d" => solve::run(solve::PCPG2D, args, &rec),
        "serve_mix" => serve::run(args, &rec),
        other => unreachable!("workload {other} was validated by Args::parse"),
    };
    if args.trace {
        for (name, (total, own, n)) in rec.self_times() {
            out.notes.push(format!(
                "span {name:<45} n={n:<6} total {total:>10.6} s  self {own:>10.6} s"
            ));
        }
        out.set("trace.spans", rec.len() as f64, "count", rec.len());
        match rec.write_chrome_json(&args.workload, args.seed) {
            Ok(path) => out.notes.push(format!("spans written to {path}")),
            Err(e) => out.record(Err(format!("writing the span file: {e}"))),
        }
    }
    out
}
