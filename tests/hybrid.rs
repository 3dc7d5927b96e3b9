//! Property-based tests of the hybrid explicit/implicit dual-operator
//! invariants: every subdomain gets exactly one formulation, no explicit
//! placement oversubscribes its device arena, the hybrid application is
//! bitwise identical to the per-formulation reference (explicit F̃ᵢ bitwise
//! equal to the all-explicit CPU assembly, spilled subdomains through the
//! implicit pipeline), explicit-vs-implicit F·p agreement, and the
//! iteration-count extremes collapse the decision to all-explicit /
//! all-implicit.

use proptest::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_dense;
use schur_dd::sc_gpu::KernelCost;

/// Per-subdomain shapes drawn for the planner-level properties: synthetic
/// cost/apply estimates with controlled magnitudes (pure compute, occupancy
/// saturated) plus a temp footprint.
#[derive(Clone, Debug)]
struct SynthSub {
    temp_bytes: usize,
    asm_gflops: f64,
    expl_apply_gflops: f64,
    impl_apply_gflops: f64,
}

fn synth_strategy() -> impl Strategy<Value = Vec<SynthSub>> {
    proptest::collection::vec(
        (1usize..(1 << 22), 1.0f64..100.0, 0.1f64..10.0, 0.1f64..40.0),
        1..24,
    )
    .prop_map(|subs| {
        subs.into_iter()
            .map(|(temp_bytes, asm, expl, imp)| SynthSub {
                temp_bytes,
                asm_gflops: asm,
                expl_apply_gflops: expl,
                impl_apply_gflops: imp,
            })
            .collect()
    })
}

fn estimates_of(subs: &[SynthSub]) -> (Vec<CostEstimate>, Vec<ApplyEstimate>) {
    subs.iter()
        .enumerate()
        .map(|(i, s)| {
            (
                CostEstimate {
                    index: i,
                    n_dofs: 64,
                    n_lambda: 8,
                    trsm_flops: s.asm_gflops * 1e9,
                    syrk_flops: 0.0,
                    transfer_bytes: 0.0,
                    temp_bytes: s.temp_bytes,
                    exchange_bytes: 0.0,
                    seconds: 0.0,
                },
                ApplyEstimate {
                    index: i,
                    n_lambda: 8,
                    explicit: vec![KernelCost::compute(s.expl_apply_gflops * 1e9, 0.0)],
                    implicit: vec![KernelCost::compute(s.impl_apply_gflops * 1e9, 0.0)],
                },
            )
        })
        .unzip()
}

fn slots(arenas: &[usize]) -> Vec<DeviceSlot> {
    arenas
        .iter()
        .map(|&arena_capacity| DeviceSlot {
            spec: DeviceSpec::a100(),
            arena_capacity,
            n_streams: 2,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every subdomain gets exactly one formulation; explicit-GPU is never
    /// chosen for a subdomain whose temporaries exceed every arena; the
    /// spill set is exactly the over-arena set; the chosen candidate is
    /// never costlier than the alternatives the planner was allowed.
    #[test]
    fn hybrid_plan_invariants(
        subs in synth_strategy(),
        arena_kib in 1usize..4096,
        iters in 0.0f64..2000.0,
    ) {
        let (costs, applies) = estimates_of(&subs);
        let devices = slots(&[arena_kib << 10, (arena_kib << 10) / 2]);
        let max_arena = arena_kib << 10;
        let opts = HybridPlanOptions::default().with_iters(iters);
        let plan = plan_hybrid(&costs, &applies, &devices, &opts);

        prop_assert_eq!(plan.choices.len(), subs.len());
        for (i, c) in plan.choices.iter().enumerate() {
            prop_assert_eq!(c.index, i, "one decision per subdomain, in order");
            let over = subs[i].temp_bytes > max_arena;
            prop_assert_eq!(c.spilled, over);
            prop_assert_eq!(plan.spilled.contains(&i), over);
            if over {
                prop_assert!(
                    c.formulation != Formulation::ExplicitGpu,
                    "over-arena subdomain {i} must not be placed explicitly on a device"
                );
            }
            // the decision is cost-minimal among its admissible candidates
            let host = &opts.host;
            let spec = &devices[0].spec;
            let total = |asm: f64, app: f64| asm + iters * app;
            let chosen = total(c.assembly_seconds, c.apply_seconds);
            let impl_total = total(0.0, applies[i].implicit_seconds_on(host));
            let cpu_total = total(
                costs[i].seconds_on(host),
                applies[i].explicit_seconds_on(host),
            );
            prop_assert!(chosen <= impl_total + 1e-18);
            prop_assert!(chosen <= cpu_total + 1e-18);
            if !over {
                let gpu_total = total(
                    costs[i].seconds_on(spec),
                    applies[i].explicit_seconds_on(spec),
                );
                prop_assert!(chosen <= gpu_total + 1e-18);
            }
        }
        // cost roll-up is consistent with the per-choice records
        let sum: f64 = plan
            .choices
            .iter()
            .map(|c| c.assembly_seconds + iters * c.apply_seconds)
            .sum();
        prop_assert!((plan.cost_at(iters) - sum).abs() <= 1e-15 * sum.max(1.0));
    }

    /// Iteration-count extremes collapse the decision: `iters = 0` makes
    /// every assembly pure overhead (all-implicit); `iters = ∞` leaves only
    /// the apply cost (all-explicit, spill failing over off-pool).
    #[test]
    fn hybrid_extremes_collapse(subs in synth_strategy(), arena_kib in 1usize..4096) {
        let (costs, applies) = estimates_of(&subs);
        let devices = slots(&[arena_kib << 10]);
        let zero = plan_hybrid(
            &costs,
            &applies,
            &devices,
            &HybridPlanOptions::default().with_iters(0.0),
        );
        prop_assert_eq!(zero.count_of(Formulation::Implicit), subs.len());
        let inf = plan_hybrid(
            &costs,
            &applies,
            &devices,
            &HybridPlanOptions::default().with_iters(f64::INFINITY),
        );
        // synthetic explicit applies are strictly cheaper on the host than
        // on the launch-padded GPU only sometimes — but implicit never wins
        // at infinite iterations unless its apply is strictly cheapest, in
        // which case explicit-CPU (always admissible) must still be priced
        // higher; assert the collapse through the planner's own candidates
        for c in &inf.choices {
            if c.formulation == Formulation::Implicit {
                let host = DeviceSpec::host();
                prop_assert!(
                    applies[c.index].implicit_seconds_on(&host)
                        < applies[c.index].explicit_seconds_on(&host),
                    "implicit survived iters→∞ without the cheapest apply"
                );
            }
        }
    }
}

/// Real-workload property: on a 3×3 decomposition with an arena between the
/// smallest and largest temp footprint, the hybrid solver mixes
/// formulations, never oversubscribes the arena, applies bitwise like the
/// per-formulation reference, and still solves the PDE.
#[test]
fn hybrid_solver_end_to_end_invariants() {
    use std::sync::Arc;

    let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
    let cfg = ScConfig::optimized(true, true);
    let factors: Vec<SubdomainFactors> = p
        .subdomains
        .iter()
        .map(|sd| SubdomainFactors::build(sd, Engine::Simplicial, Ordering::NestedDissection))
        .collect();
    let temps: Vec<usize> = factors
        .iter()
        .map(|f| {
            let l = f.chol.factor_csc();
            let params = cfg.resolve(true, &l, &f.bt_perm);
            estimate_cost(&DeviceSpec::a100(), &l, &f.bt_perm, &params, 0).temp_bytes
        })
        .collect();
    let (lo, hi) = (*temps.iter().min().unwrap(), *temps.iter().max().unwrap());
    assert!(lo < hi);
    let arena = (lo + hi) / 2;
    let pool = DevicePool::uniform(
        DeviceSpec {
            memory_bytes: 2 * arena,
            ..DeviceSpec::a100()
        },
        2,
        2,
    );
    let solver = FetiSolverBuilder::new()
        .backend(Backend::cluster(Arc::clone(&pool)))
        .formulation(FormulationChoice::Auto(
            HybridPlanOptions::default()
                .with_iters(1e6)
                .with_allow_explicit_cpu(false)
                .with_force(HybridForce::AllExplicit),
        ))
        .assembly(cfg)
        .build(&p);
    let unified = solver.report().expect("auto mode reports");
    let report = unified.hybrid.as_ref().expect("hybrid section present");

    // exactly one formulation per subdomain; the spill set is the over-arena set
    let n = p.subdomains.len();
    assert_eq!(
        report.count_of(Formulation::ExplicitGpu)
            + report.count_of(Formulation::ExplicitCpu)
            + report.count_of(Formulation::Implicit),
        n
    );
    assert!(report.count_of(Formulation::ExplicitGpu) > 0);
    assert!(report.count_of(Formulation::Implicit) > 0);
    for (i, &t) in temps.iter().enumerate() {
        assert_eq!(report.spilled.contains(&i), t > arena, "subdomain {i}");
    }

    // device_of looks a subdomain up by its batch index: it agrees with the
    // timing carrying that index, and implicit subdomains (which have no
    // timing) ran on no device
    for i in 0..n {
        let timing = unified.subdomains.iter().find(|t| t.index == i);
        assert_eq!(
            unified.device_of(i),
            timing.and_then(|t| t.device),
            "subdomain {i}"
        );
        if report.formulation[i] == Formulation::Implicit {
            assert_eq!(unified.device_of(i), None, "implicit subdomain {i}");
        }
    }

    // no explicit placement oversubscribes its device arena
    assert!(report.arena_high_water <= arena);
    assert!(!unified.devices.is_empty(), "gpu share ran");
    for dev in &unified.devices {
        assert!(dev.temp_high_water <= pool.device(dev.device).temp_pool().capacity());
    }

    // hybrid application bitwise == mixed reference: the explicit share is
    // bitwise the all-explicit CPU assembly (record/replay property), the
    // spilled share the shared implicit pipeline. Cross-check the GPU-share
    // F̃ᵢ matrices against a fresh CPU cluster assembly too.
    let cfg = ScConfig::optimized(true, true);
    let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.41).cos()).collect();
    let got = solver.apply_f(&lam);
    let mut want = vec![0.0; p.n_lambda];
    for (i, sd) in p.subdomains.iter().enumerate() {
        let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lam[gl]).collect();
        let mut ql = vec![0.0; sd.n_lambda()];
        if report.spilled.contains(&i) {
            apply_implicit(&factors[i], &pl, &mut ql);
        } else {
            let l = factors[i].chol.factor_csc();
            let f = assemble_sc(&mut CpuExec, &l, &factors[i].bt_perm, &cfg);
            sc_dense::gemv(1.0, f.as_ref(), &pl, 0.0, &mut ql);
        }
        for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
            want[gl] += ql[ll];
        }
    }
    assert_eq!(
        got, want,
        "hybrid apply must be bitwise the mixed reference"
    );

    // the spill-tolerant cluster session agrees with the hybrid placement
    let gpu_idx: Vec<usize> = (0..n).filter(|i| !report.spilled.contains(i)).collect();
    let gpu_items: Vec<&SubdomainFactors> = gpu_idx.iter().map(|&g| &factors[g]).collect();
    let res =
        AssemblySession::new(Backend::cluster(Arc::clone(&pool)), cfg).assemble(LazyBatch::new(
            &gpu_items,
            |_, f: &&SubdomainFactors| std::borrow::Cow::Owned(f.chol.factor_csc()),
            |f| &f.bt_perm,
        ));
    assert_eq!(res.f.len(), gpu_idx.len());

    // and the solve still matches the direct solution
    let sol = solver.solve();
    assert!(sol.stats.converged, "{:?}", sol.stats);
    assert!(sol.stats.operator_applications > sol.stats.iterations);
    let (k, f_glob) = p.assemble_global();
    let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
    let direct = chol.solve(&f_glob);
    let u = p.gather_global(&sol.u_locals);
    let scale = direct.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    for i in 0..u.len() {
        assert!((u[i] - direct[i]).abs() < 1e-6 * scale, "dof {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Explicit-vs-implicit F·p agreement on real subdomains: the two
    /// formulations are algebraically the same operator, and the hoisted
    /// boundary-map implicit path is **bitwise** the original sparse
    /// formulation (the refactor may not change a single bit).
    #[test]
    fn explicit_and_implicit_fp_agree(
        cells in 3usize..7,
        seed in 0u64..1000,
        sx in 2usize..4,
        sy in 1usize..3,
    ) {
        let p = HeatProblem::build_2d(cells, (sx, sy), Gluing::Redundant);
        for sd in &p.subdomains {
            let factors =
                SubdomainFactors::build(sd, Engine::Simplicial, Ordering::NestedDissection);
            let m = sd.n_lambda();
            let n = sd.n_dofs();
            let pvec: Vec<f64> = (0..m)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 500.0 - 1.0)
                .collect();

            // bitwise: hoisted map vs the pre-hoist sparse pipeline
            let mut reference = vec![0.0; m];
            let mut t = vec![0.0; n];
            factors.bt_perm.spmv(1.0, &pvec, 0.0, &mut t);
            factors.chol.solve_fwd_permuted(&mut t);
            factors.chol.solve_bwd_permuted(&mut t);
            factors.bt_perm.spmv_t(1.0, &t, 0.0, &mut reference);
            let mut fast = vec![0.0; m];
            apply_implicit(&factors, &pvec, &mut fast);
            prop_assert_eq!(&fast, &reference, "hoisted implicit path changed bits");

            // numerical: explicit F̃ p vs implicit B̃ K⁺ B̃ᵀ p
            let expl = DualOperator::explicit_cpu(&factors, &ScConfig::optimized(false, false));
            let mut qe = vec![0.0; m];
            expl.apply(&pvec, &mut qe);
            let scale = qe.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
            for i in 0..m {
                prop_assert!(
                    (qe[i] - fast[i]).abs() < 1e-8 * scale,
                    "explicit {} vs implicit {} at row {i}",
                    qe[i],
                    fast[i]
                );
            }
        }
    }
}
