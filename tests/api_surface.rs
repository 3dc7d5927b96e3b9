//! API-surface snapshot of the unified `Backend` + `AssemblySession` +
//! `FetiSolverBuilder` surface:
//!
//! 1. **compile-time** — every `schur_dd::prelude` re-export exists (the
//!    type and function-pointer bindings below fail to compile on any
//!    drift);
//! 2. **runtime** — every device-backed `Backend` assembles bitwise the
//!    same `F̃` as `Backend::cpu()`, proptested over mixed workloads.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_sparse::Coo;

/// The prelude's items, referenced so a dropped re-export is a compile
/// error.
#[test]
fn prelude_surface_is_complete() {
    // unified surface — type positions
    fn _session_types(
        _: &AssemblySession,
        _: &AssemblyResult,
        _: &AssemblyReport,
        _: &Backend,
        _: &DeviceReport,
        _: &StreamLane,
        _: &HybridSummary,
    ) {
    }
    fn _solver_types(_: &FetiSolverBuilder, _: &FormulationChoice, _: &dyn BatchSource) {}
    // IntoBatchSource + LazyBatch usable through the prelude
    fn _generic<S: IntoBatchSource>(_: S) {}
    fn _lazy<'a>(items: &'a [(Csc, Csc)]) -> impl BatchSource + 'a {
        LazyBatch::new(
            items,
            |_, (l, _): &(Csc, Csc)| std::borrow::Cow::Borrowed(l),
            |(_, bt)| bt,
        )
    }
    // per-subdomain timings live inside the one report type
    fn _timing(r: &AssemblyReport) -> Option<&SubdomainTiming> {
        r.subdomains.first()
    }
    let _: fn(&AssemblyReport, usize) -> Option<usize> = AssemblyReport::device_of;
    // options structs carry the unified with_* builder surface
    let _ = ScheduleOptions::default().with_policy(StreamPolicy::RoundRobin);
    let _ = ClusterOptions::default().with_ready_at(Vec::new());
    let _ = HybridPlanOptions::default()
        .with_iters(1.0)
        .with_allow_explicit_cpu(true)
        .with_force(HybridForce::Auto);
    let _ = FetiOptions::default()
        .with_engine(Engine::Simplicial)
        .with_ordering(Ordering::Natural)
        .with_preconditioner(sc_feti_preconditioner())
        .with_tol(1e-8)
        .with_max_iter(10);
    let _ = [
        Backend::cpu(),
        Backend::cpu_with_threads(2),
        Backend::gpu(Device::new(DeviceSpec::a100(), 1)),
        Backend::cluster(DevicePool::uniform(DeviceSpec::a100(), 1, 1)),
        Backend::hybrid(DevicePool::uniform(DeviceSpec::a100(), 1, 1)),
    ];
    // mixed-precision surface: the Precision knob on Backend and the
    // builder, the F32Refined payload shape, and the refinement stats
    fn _precision_types(_: &Precision, _: &RefinementStats) {}
    let b = Backend::cpu().precision(Precision::F32Refined {
        refine_tol: 1e-10,
        max_refine: 8,
    });
    assert!(b.precision.is_f32());
    assert_eq!(Backend::cpu().precision, Precision::F64);
    assert_eq!(Precision::default(), Precision::F64);
    let _: fn(FetiSolverBuilder, Precision) -> FetiSolverBuilder = FetiSolverBuilder::precision;
    let _: fn(&FetiSolution) -> Option<RefinementStats> = |s| s.refinement;
}

fn sc_feti_preconditioner() -> schur_dd::sc_feti::Preconditioner {
    schur_dd::sc_feti::Preconditioner::None
}

/// A mixed workload: subdomain sizes and multiplier counts drawn per
/// subdomain, factorized like the production pipeline.
fn mixed_workload() -> impl Strategy<Value = Vec<(Csc, Csc)>> {
    proptest::collection::vec((3usize..8, 0usize..9, 0u64..1000), 2..8).prop_map(|subs| {
        subs.into_iter()
            .map(|(nx, m, seed)| {
                let n = nx * nx;
                let idx = |x: usize, y: usize| y * nx + x;
                let mut c = Coo::new(n, n);
                for y in 0..nx {
                    for x in 0..nx {
                        let v = idx(x, y);
                        c.push(v, v, 4.05 + (seed % 5) as f64 * 0.01);
                        if x > 0 {
                            c.push(v, idx(x - 1, y), -1.0);
                        }
                        if x + 1 < nx {
                            c.push(v, idx(x + 1, y), -1.0);
                        }
                        if y > 0 {
                            c.push(v, idx(x, y - 1), -1.0);
                        }
                        if y + 1 < nx {
                            c.push(v, idx(x, y + 1), -1.0);
                        }
                    }
                }
                let k = c.to_csc();
                let mut b = Coo::new(n, m);
                for j in 0..m {
                    let d = ((j as u64 * 7919 + seed * 131) % n as u64) as usize;
                    b.push(
                        d,
                        j,
                        if (j as u64 + seed).is_multiple_of(2) {
                            1.0
                        } else {
                            -1.0
                        },
                    );
                }
                let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
                (chol.factor_csc(), b.to_csc().permute_rows(chol.perm()))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every device-backed target — one GPU under LPT and round-robin
    /// stream assignment, a device pool, and the spill-tolerant hybrid
    /// pool — produces bitwise-identical F̃ to the CPU target, over mixed
    /// workloads. `ScConfig::Auto` resolves its kernels per platform, so
    /// under it the device targets pin to the LPT GPU run instead (and the
    /// fixed configurations pin them to the host).
    #[test]
    fn every_backend_is_bitwise_the_cpu_path(
        data in mixed_workload(),
        cfg_pick in 0usize..4,
        n_streams in 1usize..4,
        n_devices in 1usize..4,
    ) {
        let items: Vec<BatchItem<'_>> =
            data.iter().map(|(l, bt)| BatchItem { l, bt }).collect();
        let cfg = [
            ScConfig::optimized(true, false),
            ScConfig::optimized(false, true),
            ScConfig::original(FactorStorage::Sparse),
            ScConfig::Auto,
        ][cfg_pick];

        let cpu = AssemblySession::new(Backend::cpu(), cfg).assemble(&items);
        let mut runs: Vec<(String, Vec<Mat>)> = Vec::new();
        for policy in [StreamPolicy::LptLeastLoaded, StreamPolicy::RoundRobin] {
            let backend = Backend::gpu_with(
                Device::new(DeviceSpec::a100(), n_streams),
                ScheduleOptions::default().with_policy(policy),
            );
            let res = AssemblySession::new(backend, cfg).assemble(&items);
            runs.push((format!("gpu {policy:?}"), res.f));
        }
        let pool = DevicePool::uniform(DeviceSpec::a100(), n_devices, n_streams);
        let res = AssemblySession::new(Backend::cluster(pool), cfg).assemble(&items);
        runs.push(("cluster".to_string(), res.f));
        let pool = DevicePool::uniform(DeviceSpec::a100(), n_devices, n_streams);
        let res = AssemblySession::new(Backend::hybrid(pool), cfg).assemble(&items);
        runs.push(("hybrid".to_string(), res.f));

        let reference = if matches!(cfg, ScConfig::Auto) { &runs[0].1 } else { &cpu.f };
        prop_assert_eq!(cpu.f.len(), items.len());
        for (name, f) in &runs {
            prop_assert_eq!(f.len(), items.len());
            for i in 0..items.len() {
                prop_assert_eq!(&reference[i], &f[i], "{} deviates at {}", name, i);
            }
        }
    }
}
