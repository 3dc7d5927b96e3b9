//! Headline numbers of the paper (§1, §5), paper-vs-measured:
//!
//! - speedup of the GPU section of the SC assembly (orig → opt): paper 5.1×;
//! - speedup of the whole assembly incl. factorization: paper 3.3×;
//! - `expl_gpu_opt` vs `expl_mkl` preprocessing: paper up to 9.8×;
//! - explicit-GPU amortization point on 3D subdomains: paper ≈ 10 iterations.
//!
//! Usage: `cargo run -p sc-bench --release --bin headline [--full]`

use sc_bench::{ladder_3d, time_assembly_gpu, BatchWorkload, BenchArgs, KernelWorkload, Table};
use sc_core::{AssemblySession, Backend, FactorStorage, ScConfig, ScheduleOptions, StreamPolicy};
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{
    measure_apply_cost, preprocess_approach, DualOpApproach, FetiSolverBuilder, FormulationChoice,
};
use sc_gpu::{Device, DevicePool, DeviceSpec};
use std::time::Instant;

/// Hard gate of the multi-RHS reuse row: one preprocessed handle over
/// [`N_RHS`] load cases must beat re-preprocessing per case by this factor.
const RHS_REUSE_GATE: f64 = 5.0;
/// Load cases of the multi-RHS reuse row.
const N_RHS: usize = 8;

fn main() {
    let args = BenchArgs::parse();
    let device = Device::new(DeviceSpec::a100(), 4);
    let mut table = Table::new(
        "Headline numbers (3D, largest benched subdomain)",
        &["quantity", "paper", "measured"],
    );

    // --- kernel-level GPU speedup on the largest 3D subdomain ---
    let c = *ladder_3d(args.max_dofs_gpu).last().expect("ladder empty");
    let w = KernelWorkload::build(3, c);
    let orig = time_assembly_gpu(&w, &ScConfig::original(FactorStorage::Dense), &device);
    let opt = time_assembly_gpu(&w, &ScConfig::optimized(true, true), &device);
    table.row(vec![
        format!("GPU-section SC assembly speedup ({} dofs)", w.n),
        "up to 5.1x".into(),
        format!("{:.2}x", orig / opt),
    ]);

    // --- whole-preprocessing comparison via the approaches machinery ---
    let c_feti = *ladder_3d(args.max_dofs_cpu).last().expect("ladder empty");
    let problem = HeatProblem::build_3d(c_feti, (2, 2, 2), Gluing::Redundant);
    let nsub = problem.subdomains.len() as f64;
    let report = |a: DualOpApproach| {
        let prepared = preprocess_approach(&problem, a, Some(&device));
        let apply = measure_apply_cost(&problem, &prepared, a, Some(&device), 3);
        (
            prepared.report.total_s() / nsub,
            apply.per_iteration_s / nsub,
        )
    };
    let (cuda_pre, _) = report(DualOpApproach::ExplCuda);
    let (gpuopt_pre, gpuopt_app) = report(DualOpApproach::ExplGpuOpt);
    let (mkl_pre, _) = report(DualOpApproach::ExplMkl);
    let (impl_pre, impl_app) = report(DualOpApproach::ImplCholmod);
    table.row(vec![
        format!(
            "whole assembly speedup vs expl_cuda ({} dofs)",
            problem.dofs_per_subdomain()
        ),
        "up to 3.3x".into(),
        format!("{:.2}x", cuda_pre / gpuopt_pre),
    ]);
    table.row(vec![
        "expl_gpu_opt vs expl_mkl preprocessing".into(),
        "up to 9.8x".into(),
        format!("{:.2}x", mkl_pre / gpuopt_pre),
    ]);
    table.row(vec![
        "explicit preprocessing slowdown vs implicit".into(),
        "2.3x (large 3D)".into(),
        format!("{:.2}x", gpuopt_pre / impl_pre),
    ]);
    let amort = if gpuopt_app < impl_app {
        ((gpuopt_pre - impl_pre) / (impl_app - gpuopt_app))
            .ceil()
            .max(0.0)
    } else {
        f64::INFINITY
    };
    table.row(vec![
        "amortization point (iterations)".into(),
        "~10".into(),
        format!("{amort:.0}"),
    ]);

    // --- §4.4 batch scheduling: cost-model LPT vs blind round-robin -------
    // (no paper headline number: the paper fixes 16 streams and reports
    // configuration sweeps; the comparison target here is the naive driver)
    let skew = BatchWorkload::build_skewed(2, &[40, 10, 16, 6]);
    let skew_items = skew.items();
    let cfg = ScConfig::optimized(true, false);
    let makespan = |policy: StreamPolicy| {
        let dev = Device::new(DeviceSpec::a100(), 4);
        AssemblySession::new(
            Backend::gpu_with(
                std::sync::Arc::clone(&dev),
                ScheduleOptions::default().with_policy(policy),
            ),
            cfg,
        )
        .assemble(&skew_items);
        dev.synchronize()
    };
    let rr = makespan(StreamPolicy::RoundRobin);
    let lpt = makespan(StreamPolicy::LptLeastLoaded);
    table.row(vec![
        format!(
            "scheduled vs round-robin batch makespan ({} skewed subdomains)",
            skew.n_subdomains()
        ),
        "n/a (§4.4)".into(),
        format!("{:.2}x", rr / lpt),
    ]);

    // --- cluster sharding: 4-device pool vs a single device ---------------
    // (the paper's production node runs 8 GPUs; the `cluster` bin sweeps
    // 1/2/4 devices and gates CI on this ratio)
    let cl = BatchWorkload::build_cluster32();
    let cl_items = cl.items();
    let cluster_makespan = |n_devices: usize| {
        let pool = DevicePool::uniform(DeviceSpec::a100(), n_devices, 4);
        AssemblySession::new(Backend::cluster(pool), cfg)
            .assemble(&cl_items)
            .report
            .makespan
    };
    let one_dev = cluster_makespan(1);
    let four_dev = cluster_makespan(4);
    table.row(vec![
        format!(
            "4-device vs 1-device cluster makespan ({} skewed subdomains)",
            cl.n_subdomains()
        ),
        "n/a (8-GPU node)".into(),
        format!("{:.2}x", one_dev / four_dev),
    ]);
    // --- multi-RHS reuse: one preprocessed solver handle vs re-preprocessing
    // per load case (the new FetiSolverBuilder + solve_rhs path) ----------
    // large 2D subdomains: factorization + explicit assembly dominate a
    // single PCPG solve by an order of magnitude, which is what a
    // preprocessed handle amortizes
    let rhs_problem = HeatProblem::build_2d(64, (2, 2), Gluing::Redundant);
    let rhs_cases: Vec<Vec<Vec<f64>>> = (0..N_RHS)
        .map(|k| {
            rhs_problem
                .subdomains
                .iter()
                .map(|sd| sd.f.iter().map(|v| v * (1.0 + 0.07 * k as f64)).collect())
                .collect()
        })
        .collect();
    let build_solver = || {
        FetiSolverBuilder::new()
            .backend(Backend::cpu())
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, false))
            .build(&rhs_problem)
    };
    let t0 = Instant::now();
    let handle = build_solver();
    for f in &rhs_cases {
        assert!(handle.solve_rhs(f).stats.converged);
    }
    let reuse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for f in &rhs_cases {
        let fresh = build_solver();
        assert!(fresh.solve_rhs(f).stats.converged);
    }
    let naive_s = t1.elapsed().as_secs_f64();
    let rhs_speedup = naive_s / reuse_s;
    table.row(vec![
        format!(
            "multi-RHS reuse over {N_RHS} load cases ({} subdomains, explicit CPU)",
            rhs_problem.subdomains.len()
        ),
        "n/a (API)".into(),
        format!("{rhs_speedup:.2}x"),
    ]);

    table.emit("headline");
    println!("caveats: CPU quantities are measured on this host (not a 64-core EPYC),");
    println!("GPU quantities are simulated A100 time; ratios mixing the two regimes");
    println!("(e.g. amortization of simulated-GPU apply vs measured-CPU implicit apply)");
    println!("reproduce the paper's *shape*, not its absolute scale. See perfbench/README.md");
    println!("for the measured end-to-end and per-layer numbers.");

    if let Some(path) = &args.json {
        let record = sc_bench::bench_record(
            "headline",
            sc_bench::Json::obj()
                .field("name", "headline_3d")
                .field("gpu_kernel_dofs", w.n)
                .field("feti_dofs_per_subdomain", problem.dofs_per_subdomain())
                .field("sched_subdomains", skew.n_subdomains())
                .field("cluster_subdomains", cl.n_subdomains()),
            sc_bench::Json::obj()
                .field("gpu_section_speedup", orig / opt)
                .field("whole_assembly_speedup_vs_cuda", cuda_pre / gpuopt_pre)
                .field("gpu_opt_vs_mkl_speedup", mkl_pre / gpuopt_pre)
                .field("explicit_vs_implicit_preprocessing", gpuopt_pre / impl_pre)
                .field("amortization_iters", amort)
                .field("sched_vs_round_robin", rr / lpt)
                .field("cluster_4dev_speedup", one_dev / four_dev)
                .field("multi_rhs_cases", N_RHS)
                .field("multi_rhs_reuse_speedup", rhs_speedup)
                .field("multi_rhs_reuse_gate", RHS_REUSE_GATE),
        );
        if let Err(err) = sc_bench::write_json(path, &record) {
            eprintln!("warning: failed to write {}: {err}", path.display());
        }
    }

    // hard gate: the preprocessed handle must amortize — reuse across N_RHS
    // load cases beats naive re-preprocessing by >= RHS_REUSE_GATE
    if rhs_speedup < RHS_REUSE_GATE {
        eprintln!(
            "FAIL: multi-RHS reuse speedup {rhs_speedup:.2}x is below the              {RHS_REUSE_GATE}x gate (reuse {reuse_s:.3}s vs naive {naive_s:.3}s)"
        );
        std::process::exit(1);
    }
}
