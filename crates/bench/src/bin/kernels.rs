//! `kernels` perf gate: the cache-blocked microkernels against their scalar
//! references, and the measured-rate calibration against the nominal host
//! cost model.
//!
//! Three hard gates (non-zero exit on regression):
//!
//! 1. **blocked gemm ≥ [`GEMM_GATE`]× scalar** at `n = 512` (best-of-N
//!    wall clock on both sides, so one noisy scalar run cannot flip the
//!    verdict) — the register-tiled packed-panel path must actually beat
//!    the reference it shadows;
//! 2. **calibrated predictions beat nominal ones**: pricing the headline
//!    batch's host assembly with [`MicrokernelRates::probe`] must land
//!    closer to the realized CPU wall time than the nominal
//!    [`DeviceSpec::host`] constants do (relative-gap comparison). The
//!    nominal host claims server-class 250 GFLOP/s; the probe measures
//!    this machine;
//! 3. **a parallel PCPG iteration is no slower than a serial one**: the
//!    best-of-N time per iteration of `solve_rhs` on
//!    `HeatProblem::build_2d(16, (4, 4))` (explicit CPU operator) with the
//!    default thread count must stay within [`PCPG_PARALLEL_GATE`]× the
//!    same solve under `rayon::with_max_threads(1)`. The best-of-N empty
//!    64-item fan-out of the parallel runtime is reported beside it.
//!
//! The remaining kernel classes (TRSM, SYRK, partial Cholesky, binned
//! SpMV) are reported for the record without hard gates — their blocked
//! variants bottom out in the same gemm microkernel, and their
//! correctness is pinned by the `sc_dense`/`sc_sparse` test suites.
//!
//! Usage: `cargo run -p sc_bench --release --bin kernels [--n N] [--json PATH]`

use rayon::prelude::*;
use sc_bench::{bench_record, ms, time_min, write_json, BatchWorkload, Json, Table};
use sc_core::{estimate_cost, AssemblySession, Backend, MicrokernelRates, ScConfig};
use sc_dense::{Mat, Trans};
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{FetiSolverBuilder, FormulationChoice};
use sc_gpu::DeviceSpec;
use sc_sparse::{binned_spmv, BinnedPlan, Coo};

/// Minimum admissible blocked/scalar gemm speedup at the gate size.
const GEMM_GATE: f64 = 3.0;

/// Maximum admissible parallel/serial PCPG time per iteration.
const PCPG_PARALLEL_GATE: f64 = 1.10;

/// Gate size for the gemm comparison (both paths well past the blocked
/// routing threshold).
const DEFAULT_N: usize = 512;

fn parse_args() -> (usize, Option<std::path::PathBuf>) {
    let mut n = DEFAULT_N;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--n" => {
                n = it
                    .next()
                    .expect("--n needs a value")
                    .parse()
                    .expect("--n value");
            }
            "--json" => json = Some(it.next().expect("--json needs a path").into()),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    (n, json)
}

fn fill(m: usize, n: usize, seed: u64) -> Mat {
    let mut s = seed | 1;
    Mat::from_fn(m, n, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0 // sc-analyze: allow(precision-discipline)
    })
}

/// One blocked-vs-scalar comparison row: kernel name, FLOP count, and the
/// two best-of-N times.
struct KernelRow {
    name: &'static str,
    flops: f64,
    scalar_s: f64,
    blocked_s: f64,
}

impl KernelRow {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.blocked_s
    }

    fn blocked_gflops(&self) -> f64 {
        self.flops / self.blocked_s / 1e9
    }
}

fn main() {
    let (n, json_path) = parse_args();
    let nf = n as f64; // sc-analyze: allow(precision-discipline)

    // ---- axis 1: blocked vs scalar kernel rates -------------------------
    let a = fill(n, n, 1);
    let b = fill(n, n, 2);
    let mut c = Mat::zeros(n, n);
    let gemm_scalar_s = time_min(3, || {
        sc_dense::gemm_scalar(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c.as_mut(),
        );
    });
    let gemm_blocked_s = time_min(5, || {
        sc_dense::gemm_blocked(
            1.0,
            a.as_ref(),
            Trans::No,
            b.as_ref(),
            Trans::No,
            0.0,
            c.as_mut(),
        );
    });
    let gemm = KernelRow {
        name: "gemm",
        flops: 2.0 * nf * nf * nf,
        scalar_s: gemm_scalar_s,
        blocked_s: gemm_blocked_s,
    };

    let nrhs = n / 4;
    let l = Mat::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i > j {
            0.01
        } else {
            0.0
        }
    });
    let x0 = fill(n, nrhs, 3);
    let mut x = x0.clone();
    let trsm_scalar_s = time_min(3, || {
        x.as_mut().copy_from(x0.as_ref());
        sc_dense::trsm_lower_left_scalar(l.as_ref(), x.as_mut());
    });
    let trsm_blocked_s = time_min(3, || {
        x.as_mut().copy_from(x0.as_ref());
        sc_dense::trsm_lower_left_blocked(l.as_ref(), x.as_mut());
    });
    let trsm = KernelRow {
        name: "trsm",
        flops: nf * nf * nrhs as f64, // sc-analyze: allow(precision-discipline)
        scalar_s: trsm_scalar_s,
        blocked_s: trsm_blocked_s,
    };

    let ncols = n / 2;
    let at = fill(n, ncols, 4);
    let mut cs = Mat::zeros(ncols, ncols);
    let syrk_scalar_s = time_min(3, || {
        sc_dense::syrk_t_scalar(1.0, at.as_ref(), 0.0, cs.as_mut());
    });
    let syrk_blocked_s = time_min(3, || {
        sc_dense::syrk_t_blocked(1.0, at.as_ref(), 0.0, cs.as_mut());
    });
    let syrk = KernelRow {
        name: "syrk",
        flops: nf * (ncols * ncols) as f64, // sc-analyze: allow(precision-discipline)
        scalar_s: syrk_scalar_s,
        blocked_s: syrk_blocked_s,
    };

    let mut spd = Mat::zeros(ncols, ncols);
    sc_dense::syrk_t(1.0, at.as_ref(), 0.0, spd.as_mut());
    for i in 0..ncols {
        spd[(i, i)] += 2.0 * nf;
    }
    spd.symmetrize_from_lower();
    let mut f = spd.clone();
    let chol_scalar_s = time_min(3, || {
        f.as_mut().copy_from(spd.as_ref());
        sc_dense::partial_cholesky_scalar(f.as_mut(), ncols).expect("probe matrix is SPD");
    });
    let chol_blocked_s = time_min(3, || {
        f.as_mut().copy_from(spd.as_ref());
        sc_dense::partial_cholesky_blocked(f.as_mut(), ncols).expect("probe matrix is SPD");
    });
    let ncf = ncols as f64; // sc-analyze: allow(precision-discipline)
    let chol = KernelRow {
        name: "cholesky",
        flops: ncf * ncf * ncf / 3.0,
        scalar_s: chol_scalar_s,
        blocked_s: chol_blocked_s,
    };

    // binned vs plain CSR SpMV on an irregular-row-length matrix (the
    // boundary-map shape: mostly tiny rows of varying length)
    let rows = 40_000;
    let mut coo = Coo::new(rows, rows);
    let mut s = 11u64;
    for i in 0..rows {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let len = ((s >> 33) % 4 + 1) as usize;
        for d in 0..len {
            coo.push(i, (i + d * 7) % rows, 1.0 + d as f64); // sc-analyze: allow(precision-discipline)
        }
    }
    let m = coo.to_csr();
    let plan = BinnedPlan::of(&m);
    let xv: Vec<f64> = (0..rows).map(|i| (i % 17) as f64 - 8.0).collect(); // sc-analyze: allow(precision-discipline)
    let mut yv = vec![0.0; rows];
    let spmv_plain_s = time_min(5, || {
        m.spmv(1.0, &xv, 0.0, &mut yv);
    });
    let spmv_binned_s = time_min(5, || {
        binned_spmv(&plan, &m, 1.0, &xv, 0.0, &mut yv);
    });
    let spmv = KernelRow {
        name: "spmv",
        flops: 2.0 * m.nnz() as f64, // sc-analyze: allow(precision-discipline)
        scalar_s: spmv_plain_s,
        blocked_s: spmv_binned_s,
    };

    // ---- axis 2: nominal vs calibrated cost-model predictions -----------
    let rates = MicrokernelRates::probe();
    let nominal_host = DeviceSpec::host();
    let w = BatchWorkload::build(3, 4);
    let items = w.items();
    let cfg = ScConfig::optimized(false, false);
    let ests: Vec<_> = items
        .iter()
        .enumerate()
        .map(|(i, it)| {
            let params = cfg.resolve(false, it.l, it.bt);
            estimate_cost(&nominal_host, it.l, it.bt, &params, i)
        })
        .collect();
    let predicted_nominal: f64 = ests.iter().map(|e| e.seconds_on(&nominal_host)).sum();
    let predicted_calibrated: f64 = ests.iter().map(|e| rates.assembly_seconds(e)).sum();
    let result = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
    let realized = result.report.total_seconds;
    let gap = |predicted: f64| (predicted - realized).abs() / realized;
    let gap_nominal = gap(predicted_nominal);
    let gap_calibrated = gap(predicted_calibrated);

    // ---- axis 3: the parallel runtime on the PCPG hot loop --------------
    let fanout_s = time_min(200, || {
        std::hint::black_box(
            (0..64)
                .into_par_iter()
                .map(|i| i * 2)
                .collect::<Vec<usize>>(),
        );
    });
    let problem = HeatProblem::build_2d(16, (4, 4), Gluing::Redundant);
    let solver = FetiSolverBuilder::new()
        .backend(Backend::cpu())
        .formulation(FormulationChoice::Explicit)
        .build(&problem);
    let loads: Vec<Vec<f64>> = problem.subdomains.iter().map(|sd| sd.f.clone()).collect();
    let iters = solver.solve_rhs(&loads).stats.iterations.max(1);
    let per_iter = |threads: usize| {
        time_min(1, || {
            let sol = rayon::with_max_threads(threads, || solver.solve_rhs(&loads));
            assert_eq!(
                sol.stats.iterations, iters,
                "thread count changed the PCPG run"
            );
        }) / iters as f64 // sc-analyze: allow(precision-discipline)
    };
    // alternate the two sides so a drift in host speed hits both alike
    let (mut pcpg_serial_s, mut pcpg_parallel_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..50 {
        pcpg_serial_s = pcpg_serial_s.min(per_iter(1));
        pcpg_parallel_s = pcpg_parallel_s.min(per_iter(0));
    }
    let pcpg_ratio = pcpg_parallel_s / pcpg_serial_s;

    // ---- report ---------------------------------------------------------
    let mut table = Table::new(
        &format!("Cache-blocked kernels vs scalar references (n = {n}, best-of-N wall clock)"),
        &["kernel", "scalar", "blocked", "speedup", "blocked GF/s"],
    );
    let kernels = [&gemm, &trsm, &syrk, &chol, &spmv];
    for k in kernels {
        table.row(vec![
            k.name.to_string(),
            ms(k.scalar_s),
            ms(k.blocked_s),
            format!("{:.2}x", k.speedup()),
            format!("{:.2}", k.blocked_gflops()),
        ]);
    }
    // the serial reference is the one-thread solve, the optimized side the
    // default thread count; a time per iteration has no FLOP rate
    table.row(vec![
        "pcpg_iter".to_string(),
        ms(pcpg_serial_s),
        ms(pcpg_parallel_s),
        format!("{:.2}x", 1.0 / pcpg_ratio),
        "-".to_string(),
    ]);
    table.emit("kernels");
    println!(
        "parallel runtime ({} threads): empty 64-item fan-out {:.2} us best-of-200; PCPG on \
         build_2d(16, (4, 4)) over {iters} iterations: {:.1} us/iter with default threads vs \
         {:.1} us/iter with one ({:.2}x serial, gate <= {PCPG_PARALLEL_GATE}x).",
        rayon::current_num_threads(),
        fanout_s * 1e6,
        pcpg_parallel_s * 1e6,
        pcpg_serial_s * 1e6,
        pcpg_ratio,
    );
    println!(
        "calibration: host assembly of the headline batch realized {} — predicted {} nominal \
         (gap {:.1}%) vs {} calibrated (gap {:.1}%); probe rates: gemm {:.1} / trsm {:.1} / \
         syrk {:.1} / chol {:.1} GF/s, spmv {:.1} GB/s.",
        ms(realized),
        ms(predicted_nominal),
        100.0 * gap_nominal,
        ms(predicted_calibrated),
        100.0 * gap_calibrated,
        rates.gemm_gflops,
        rates.trsm_gflops,
        rates.syrk_gflops,
        rates.chol_gflops,
        rates.spmv_gbps,
    );

    if let Some(path) = &json_path {
        let mut kernel_rows = Json::obj();
        for k in kernels {
            kernel_rows = kernel_rows.field(
                k.name,
                Json::obj()
                    .field("scalar_s", k.scalar_s)
                    .field("blocked_s", k.blocked_s)
                    .field("speedup", k.speedup())
                    .field("blocked_gflops", k.blocked_gflops()),
            );
        }
        let record = bench_record(
            "kernels",
            Json::obj()
                .field("name", "blocked_kernels")
                .field("n", n)
                .field("calibration_batch", "headline")
                .field("n_subdomains", w.n_subdomains()),
            Json::obj()
                .field("kernels", kernel_rows)
                .field("gemm_gate", GEMM_GATE)
                .field("probe_gemm_gflops", rates.gemm_gflops)
                .field("probe_trsm_gflops", rates.trsm_gflops)
                .field("probe_syrk_gflops", rates.syrk_gflops)
                .field("probe_chol_gflops", rates.chol_gflops)
                .field("probe_spmv_gbps", rates.spmv_gbps)
                .field("realized_host_s", realized)
                .field("predicted_nominal_s", predicted_nominal)
                .field("predicted_calibrated_s", predicted_calibrated)
                .field("gap_nominal", gap_nominal)
                .field("gap_calibrated", gap_calibrated)
                .field("threads", rayon::current_num_threads())
                .field("fanout_s", fanout_s)
                .field("pcpg_iterations", iters)
                .field("pcpg_iter_serial_s", pcpg_serial_s)
                .field("pcpg_iter_parallel_s", pcpg_parallel_s)
                .field("pcpg_parallel_gate", PCPG_PARALLEL_GATE),
        );
        if let Err(err) = write_json(path, &record) {
            eprintln!("warning: failed to write {}: {err}", path.display());
        }
    }

    // ---- hard gates ------------------------------------------------------
    let mut failed = false;
    if gemm.speedup() < GEMM_GATE {
        eprintln!(
            "FAIL: blocked gemm at n = {n} is {:.2}x scalar (gate >= {GEMM_GATE}x): \
             blocked {} vs scalar {}",
            gemm.speedup(),
            ms(gemm.blocked_s),
            ms(gemm.scalar_s),
        );
        failed = true;
    }
    if gap_calibrated >= gap_nominal {
        eprintln!(
            "FAIL: calibrated host predictions must track realized assembly time more closely \
             than nominal ones (nominal gap {:.1}%, calibrated gap {:.1}%)",
            100.0 * gap_nominal,
            100.0 * gap_calibrated,
        );
        failed = true;
    }
    if pcpg_ratio > PCPG_PARALLEL_GATE {
        eprintln!(
            "FAIL: a parallel PCPG iteration takes {:.2}x a serial one (gate <= \
             {PCPG_PARALLEL_GATE}x): {:.1} us vs {:.1} us",
            pcpg_ratio,
            pcpg_parallel_s * 1e6,
            pcpg_serial_s * 1e6,
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
