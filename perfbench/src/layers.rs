//! Per-layer probe of the traced run: the preprocessing pipeline of
//! `FetiSolverBuilder::build` re-run stage by stage from the benchmark's
//! own code, with the same per-subdomain parallelism, plus repeated single
//! calls of the PCPG building blocks and the parallel runtime.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use schur_dd::prelude::*;
use schur_dd::sc_core::estimate_cost;
use schur_dd::sc_feti::regularize_fixing_node;

use crate::trace::{Recorder, SpanId};
use crate::{median, median_time, Outcome};

/// Calls per microbenchmark (apply, project, fan-out).
const CALLS: usize = 64;

/// What the probe measured on one problem (or, summed, on a problem mix).
#[derive(Clone, Debug)]
pub struct LayerProbe {
    pub fem_build_s: f64,
    pub order_s: f64,
    pub factor_s: f64,
    pub factor_nnz: usize,
    pub assemble_s: f64,
    /// TRSM + SYRK flops of the assembly, from `estimate_cost`.
    pub assemble_flops: f64,
    pub cut_hits: usize,
    pub cut_lookups: usize,
    /// Simulated makespan of the same batch on one simulated A100.
    pub sim_makespan_s: f64,
    pub fanout_us: f64,
    pub apply_f_us: f64,
    pub apply_lumped_us: f64,
    pub project_us: f64,
    pub serial_iter_us: f64,
    /// Problems the figures above cover (summed times, averaged calls).
    pub problems: usize,
    pub reps: usize,
    pub check: Result<(), String>,
}

/// Probe the layers on the problem `build` makes; stage times are medians
/// over `reps` repetitions. `serial_loads` (or the problem's own loads)
/// drive the single-threaded reference solve.
pub fn probe(
    rec: &Recorder,
    parent: Option<SpanId>,
    build: &dyn Fn() -> HeatProblem,
    opts: &FetiOptions,
    serial_loads: Option<&[Vec<f64>]>,
    reps: usize,
) -> LayerProbe {
    let reps = reps.max(1);
    let (mut fem, mut order, mut factor, mut assemble, mut sim) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut kept: Option<(HeatProblem, Vec<SubdomainFactors>)> = None;
    let mut counts = (0, 0.0, 0, 0);
    for rep in 0..reps {
        let job = rep as u64;
        let t = Instant::now();
        let problem = rec.span("sc_fem.HeatProblem::build", parent, job, |_| build());
        fem.push(t.elapsed().as_secs_f64());
        let kregs: Vec<Csc> = rec.span("sc_feti.regularize_fixing_node", parent, job, |_| {
            problem
                .subdomains
                .par_iter()
                .map(|sd| regularize_fixing_node(&sd.k, sd.kernel.as_deref(), sd.fixing_dof, None))
                .collect()
        });
        let t = Instant::now();
        let perms: Vec<Perm> = rec.span("sc_order.Ordering::compute", parent, job, |_| {
            kregs.par_iter().map(|k| opts.ordering.compute(k)).collect()
        });
        order.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let chols: Vec<SparseCholesky> = rec.span(
            "sc_factor.SparseCholesky::factorize_with_perm",
            parent,
            job,
            |_| {
                kregs
                    .par_iter()
                    .zip(perms)
                    .map(|(k, p)| {
                        SparseCholesky::factorize_with_perm(k, p, opts.engine)
                            .expect("regularized subdomain matrix is SPD")
                    })
                    .collect()
            },
        );
        factor.push(t.elapsed().as_secs_f64());
        let factors: Vec<SubdomainFactors> = rec.span("sc_feti.bind", parent, job, |_| {
            chols
                .into_iter()
                .zip(&problem.subdomains)
                .map(|(chol, sd)| {
                    let bt_perm = sd.bt.permute_rows(chol.perm());
                    let map = BoundaryMap::of(&bt_perm);
                    SubdomainFactors { chol, bt_perm, map }
                })
                .collect()
        });
        let batch = || {
            LazyBatch::new(
                &factors,
                |_, f: &SubdomainFactors| Cow::Owned(f.chol.factor_csc()),
                |f| &f.bt_perm,
            )
        };
        let t = Instant::now();
        let cpu = rec.span("sc_core.AssemblySession::assemble", parent, job, |_| {
            AssemblySession::new(Backend::cpu(), ScConfig::Auto).assemble(batch())
        });
        assemble.push(t.elapsed().as_secs_f64());
        let gpu = rec.span("sc_gpu.AssemblySession::assemble", parent, job, |_| {
            let device = Device::new(DeviceSpec::a100(), 4);
            AssemblySession::new(Backend::gpu(device), ScConfig::Auto).assemble(batch())
        });
        sim.push(gpu.report.makespan);
        if rep == 0 {
            let nnz = factors.iter().map(|f| f.chol.factor_nnz()).sum();
            let spec = DeviceSpec::a100();
            let flops = factors
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let l = f.chol.factor_csc();
                    let params = ScConfig::Auto.resolve(false, &l, &f.bt_perm);
                    let c = estimate_cost(&spec, &l, &f.bt_perm, &params, i);
                    c.trsm_flops + c.syrk_flops
                })
                .sum();
            let hits = cpu.report.cache_hits;
            counts = (nnz, flops, hits, hits + cpu.report.cache_misses);
        }
        kept = Some((problem, factors));
    }
    let (problem, factors) = kept.expect("at least one repetition ran");
    let n_sub = factors.len();
    let solver = FetiSolverBuilder::new()
        .options(opts.clone())
        .backend(Backend::cpu())
        .formulation(FormulationChoice::Explicit)
        .assembly(ScConfig::Auto)
        .factors(Arc::new(factors))
        .build(&problem);

    let p = crate::solve::dual_vector(reps as u64, problem.n_lambda);
    let micro = |name: &'static str, f: &dyn Fn() -> Vec<f64>| -> f64 {
        let mut t = Vec::with_capacity(CALLS);
        for call in 0..CALLS {
            let t0 = Instant::now();
            std::hint::black_box(rec.span(name, parent, call as u64, |_| f()));
            t.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        median(&t)
    };
    let apply_f_us = micro("sc_feti.FetiSolver::apply_f", &|| solver.apply_f(&p));
    let apply_lumped_us = micro("sc_feti.FetiSolver::apply_lumped", &|| {
        solver.apply_lumped(&p)
    });
    let project_us = micro("sc_feti.FetiSolver::project", &|| solver.project(&p));
    let fanout_us = micro("par.into_par_iter", &|| {
        (0..n_sub).into_par_iter().map(|i| i as f64).collect()
    });

    let own: Vec<Vec<f64>>;
    let loads = match serial_loads {
        Some(l) => l,
        None => {
            own = problem.subdomains.iter().map(|sd| sd.f.clone()).collect();
            &own
        }
    };
    let (serial_s, sol) = median_time(3, || {
        rec.span("sc_feti.solve_rhs[serial]", parent, 0, |_| {
            rayon::with_max_threads(1, || solver.solve_rhs(loads))
        })
    });
    let check = if sol.stats.converged {
        Ok(())
    } else {
        Err(format!(
            "layer probe: single-threaded solve did not converge (rel_residual {:.3e})",
            sol.stats.rel_residual
        ))
    };

    LayerProbe {
        fem_build_s: median(&fem),
        order_s: median(&order),
        factor_s: median(&factor),
        factor_nnz: counts.0,
        assemble_s: median(&assemble),
        assemble_flops: counts.1,
        cut_hits: counts.2,
        cut_lookups: counts.3,
        sim_makespan_s: median(&sim),
        fanout_us,
        apply_f_us,
        apply_lumped_us,
        project_us,
        serial_iter_us: serial_s / sol.stats.iterations.max(1) as f64 * 1e6,
        problems: 1,
        reps,
        check,
    }
}

impl LayerProbe {
    /// Combine the probes of a problem mix: stage times, counts and the
    /// simulated makespan add up; per-call times are averaged.
    pub fn combine(probes: &[LayerProbe]) -> LayerProbe {
        let n = probes.len().max(1) as f64;
        let sum = |f: fn(&LayerProbe) -> f64| probes.iter().map(f).sum::<f64>();
        let sumu = |f: fn(&LayerProbe) -> usize| probes.iter().map(f).sum::<usize>();
        LayerProbe {
            fem_build_s: sum(|p| p.fem_build_s),
            order_s: sum(|p| p.order_s),
            factor_s: sum(|p| p.factor_s),
            factor_nnz: sumu(|p| p.factor_nnz),
            assemble_s: sum(|p| p.assemble_s),
            assemble_flops: sum(|p| p.assemble_flops),
            cut_hits: sumu(|p| p.cut_hits),
            cut_lookups: sumu(|p| p.cut_lookups),
            sim_makespan_s: sum(|p| p.sim_makespan_s),
            fanout_us: sum(|p| p.fanout_us) / n,
            apply_f_us: sum(|p| p.apply_f_us) / n,
            apply_lumped_us: sum(|p| p.apply_lumped_us) / n,
            project_us: sum(|p| p.project_us) / n,
            serial_iter_us: sum(|p| p.serial_iter_us) / n,
            problems: probes.len(),
            reps: probes.iter().map(|p| p.reps).min().unwrap_or(0),
            check: probes
                .iter()
                .find_map(|p| p.check.clone().err())
                .map_or(Ok(()), Err),
        }
    }

    /// Add the per-layer metrics. `prep_s` is the measured wall time of the
    /// preprocessing these stages make up, the base of `prep.coverage`.
    pub fn report(&self, out: &mut Outcome, prep_s: f64) {
        let r = self.reps;
        out.set("fem.build_s", self.fem_build_s, "s", r);
        out.set("order.s", self.order_s, "s", r);
        out.set("factor.s", self.factor_s, "s", r);
        out.set("factor.nnz", self.factor_nnz as f64, "count", 1);
        out.set("assemble.s", self.assemble_s, "s", r);
        out.set("assemble.flops", self.assemble_flops, "flop", 1);
        out.set(
            "assemble.gflops",
            self.assemble_flops / self.assemble_s * 1e-9,
            "GF/s",
            r,
        );
        out.set(
            "assemble.cut_hit_ratio",
            self.cut_hits as f64 / self.cut_lookups.max(1) as f64,
            "ratio",
            self.cut_lookups,
        );
        out.set("assemble.cut_lookups", self.cut_lookups as f64, "count", 1);
        out.set("assemble.sim_makespan_s", self.sim_makespan_s, "s", r);
        out.set("par.fanout_us", self.fanout_us, "us", CALLS);
        out.set("feti.apply_f_us", self.apply_f_us, "us", CALLS);
        out.set("feti.apply_lumped_us", self.apply_lumped_us, "us", CALLS);
        out.set("feti.project_us", self.project_us, "us", CALLS);
        out.set("feti.serial_iter_us", self.serial_iter_us, "us", 3);
        // the solver workloads' preprocessing is FetiSolverBuilder::build
        out.set(
            "prep.coverage",
            (self.order_s + self.factor_s + self.assemble_s) / prep_s,
            "ratio",
            r,
        );
        out.notes.push(format!(
            "layer probe: {} problem(s), {} repetition(s); assemble.cut_hit_ratio base = {} lookups; \
             prep.coverage base = {:.6} s of measured preprocessing",
            self.problems, self.reps, self.cut_lookups, prep_s
        ));
    }
}
