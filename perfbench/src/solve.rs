//! The two solver workloads: `assembly3d` (preprocessing-bound) and
//! `pcpg2d` (PCPG-loop-bound), both driven through `FetiSolverBuilder`.

use std::time::Instant;

use schur_dd::prelude::*;
use schur_dd::sc_feti::Preconditioner;

use crate::layers;
use crate::trace::Recorder;
use crate::{median, median_time, peak_rss_mb, quantile, tail_is_supported, Args, Outcome, Rng};

/// Shape of one solver workload.
#[derive(Clone, Copy, Debug)]
pub struct SolveWorkload {
    pub name: &'static str,
    pub dim: usize,
    pub cells: usize,
    pub subs: (usize, usize, usize),
    /// The solver is rebuilt before every `jobs_per_build`-th job.
    pub jobs_per_build: usize,
    /// Whether that build is part of the job (the client brings a new
    /// mesh) or runs between jobs (the client reuses a built solver).
    pub build_in_job: bool,
    /// Right-hand sides solved per job.
    pub solves_per_job: usize,
    /// Set-up repetitions behind the `setup_s` median.
    pub setup_reps: usize,
    /// Repetitions of the traced run's layer probe.
    pub probe_reps: usize,
}

/// 3D heat, 8 subdomains of 13³ = 2197 dofs; each job preprocesses from
/// scratch and then solves a few load cases, so preprocessing
/// (ordering, factorization, stepped assembly) dominates.
pub const ASSEMBLY3D: SolveWorkload = SolveWorkload {
    name: "assembly3d",
    dim: 3,
    cells: 12,
    subs: (2, 2, 2),
    jobs_per_build: 1,
    build_in_job: true,
    solves_per_job: 3,
    setup_reps: 15,
    probe_reps: 3,
};

/// 2D heat, 64 subdomains of 9² = 81 dofs; preprocessing is a few
/// milliseconds and each built solver serves 32 load cases, so the PCPG
/// loop and its per-iteration fan-outs over 64 tiny tasks dominate. The
/// solver is rebuilt between jobs so that `prep_s` samples the whole run.
pub const PCPG2D: SolveWorkload = SolveWorkload {
    name: "pcpg2d",
    dim: 2,
    cells: 8,
    subs: (8, 8, 1),
    jobs_per_build: 4,
    build_in_job: false,
    solves_per_job: 8,
    setup_reps: 25,
    probe_reps: 9,
};

/// Relative tolerance of the FETI-vs-direct comparison.
pub const DIRECT_TOL: f64 = 1e-6;
/// Relative tolerance of the explicit-vs-implicit `apply_f` comparison.
pub const APPLY_TOL: f64 = 1e-10;

impl SolveWorkload {
    pub fn problem(&self) -> HeatProblem {
        if self.dim == 2 {
            HeatProblem::build_2d(self.cells, (self.subs.0, self.subs.1), Gluing::Redundant)
        } else {
            HeatProblem::build_3d(self.cells, self.subs, Gluing::Redundant)
        }
    }

    pub fn options(&self) -> FetiOptions {
        FetiOptions::default().with_preconditioner(Preconditioner::Lumped)
    }

    pub fn builder(&self) -> FetiSolverBuilder {
        FetiSolverBuilder::new()
            .options(self.options())
            .backend(Backend::cpu())
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::Auto)
    }

    /// The serve-protocol fields describing this workload's mesh.
    pub fn mesh_fields(&self) -> String {
        if self.dim == 2 {
            format!(
                "\"dim\":2,\"cells\":{},\"subs\":[{},{}]",
                self.cells, self.subs.0, self.subs.1
            )
        } else {
            format!(
                "\"dim\":3,\"cells\":{},\"subs\":[{},{},{}]",
                self.cells, self.subs.0, self.subs.1, self.subs.2
            )
        }
    }
}

/// Load case `j` of a seed. Case 0 is the problem's own loads times a
/// seeded factor, so its solution is that factor times the direct solve
/// of `assemble_global()`; later cases scale each subdomain's loads by its
/// own seeded factor.
pub fn loads(problem: &HeatProblem, seed: u64, j: usize) -> (f64, Vec<Vec<f64>>) {
    let mut rng = Rng::fork(seed, j as u64 + 1);
    let c = rng.uniform(0.5, 2.0);
    let f = problem
        .subdomains
        .iter()
        .map(|sd| {
            let s = if j == 0 { c } else { rng.uniform(0.25, 2.0) };
            sd.f.iter().map(|v| v * s).collect()
        })
        .collect();
    (c, f)
}

/// A seeded dual vector of length `n`.
pub fn dual_vector(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng::fork(seed, 0xD0A1);
    (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn check_solution(sol: &FetiSolution, tol: f64) -> Result<(), String> {
    let st = &sol.stats;
    if st.converged && st.rel_residual <= tol {
        Ok(())
    } else {
        Err(format!(
            "solve did not converge: converged={} rel_residual={:.3e} tol={tol:.1e} iters={}",
            st.converged, st.rel_residual, st.iterations
        ))
    }
}

/// Largest absolute difference of `a` and `b` relative to the largest
/// absolute entry of `b`.
pub fn rel_max_diff(a: &[f64], b: &[f64]) -> f64 {
    let diff = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max);
    let scale = b.iter().map(|y| y.abs()).fold(0.0_f64, f64::max);
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    diff / scale.max(f64::MIN_POSITIVE)
}

/// Compare a FETI solution `u` (global numbering) of `scale` × the
/// problem's own loads with `scale` × the direct solve of the undecomposed
/// problem.
pub fn check_against_direct(problem: &HeatProblem, scale: f64, u: &[f64]) -> Result<(), String> {
    let (k, rhs) = problem.assemble_global();
    let direct = SparseCholesky::factorize(&k, CholOptions::default())
        .map_err(|e| format!("direct factorization failed: {e:?}"))?
        .solve(&rhs);
    let expect: Vec<f64> = direct.iter().map(|v| scale * v).collect();
    let err = rel_max_diff(u, &expect);
    if err <= DIRECT_TOL {
        Ok(())
    } else {
        Err(format!(
            "FETI vs direct: relative max error {err:.3e} > {DIRECT_TOL:.0e}"
        ))
    }
}

/// Explicit `apply_f` against an implicit solver over the same factors.
fn check_explicit_vs_implicit(
    w: &SolveWorkload,
    problem: &HeatProblem,
    explicit: &FetiSolver<'_>,
    seed: u64,
) -> Result<(), String> {
    let implicit = FetiSolverBuilder::new()
        .options(w.options())
        .formulation(FormulationChoice::Implicit)
        .factors(explicit.shared_factors())
        .build(problem);
    let p = dual_vector(seed, problem.n_lambda);
    let err = rel_max_diff(&explicit.apply_f(&p), &implicit.apply_f(&p));
    if err <= APPLY_TOL {
        Ok(())
    } else {
        Err(format!(
            "explicit vs implicit apply_f: relative max difference {err:.3e} > {APPLY_TOL:.0e}"
        ))
    }
}

/// Samples gathered by the job loop.
#[derive(Default)]
struct Samples {
    prep_s: Vec<f64>,
    solve_s: Vec<f64>,
    iterations: usize,
    job_s: Vec<f64>,
    /// Job seconds of traced (`true`) and untraced rounds of a traced run.
    job_s_by_tracing: [Vec<f64>; 2],
    /// Iterations per solve of the first job.
    first_job_iters: Vec<usize>,
}

pub fn run(w: SolveWorkload, args: &Args, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let tol = w.options().tol;

    let (setup_s, problem) = median_time(w.setup_reps, || w.problem());
    out.notes.push(format!(
        "{}: {} subdomains x {} dofs, {} multipliers; {} loads per job",
        w.name,
        problem.subdomains.len(),
        problem.subdomains[0].n_dofs(),
        problem.n_lambda,
        w.solves_per_job
    ));
    let cases: Vec<(f64, Vec<Vec<f64>>)> = (0..w.solves_per_job)
        .map(|j| loads(&problem, args.seed, j))
        .collect();

    // warm-up: one untimed build and solve, so lazy set-up (thread
    // stacks, allocator arenas) is done before timing
    std::hint::black_box(w.builder().build(&problem).solve_rhs(&cases[0].1));

    let off = Recorder::new(false);
    let mut s = Samples::default();
    let mut first_u: Option<Vec<Vec<f64>>> = None;
    let mut solver: Option<FetiSolver<'_>> = None;
    let build = |r: &Recorder, parent, job, s: &mut Samples, out: &mut Outcome| {
        let t0 = Instant::now();
        let built = r.span("sc_feti.FetiSolverBuilder::build", parent, job, |_| {
            w.builder().build(&problem)
        });
        s.prep_s.push(t0.elapsed().as_secs_f64());
        out.record(Ok(()));
        built
    };
    let t_start = Instant::now();
    let mut job: u64 = 0;
    loop {
        // a traced run alternates traced and untraced build cycles, so
        // the difference between the two is the tracing overhead
        let traced = rec.enabled() && (job / w.jobs_per_build as u64) % 2 == 1;
        let r = if traced { rec } else { &off };
        let rebuild = job.is_multiple_of(w.jobs_per_build as u64);
        if rebuild {
            // the old solver goes before the new one is built
            solver = None;
        }
        if rebuild && !w.build_in_job {
            solver = Some(build(r, None, job, &mut s, &mut out));
        }
        let t_job = Instant::now();
        r.span("job", None, job, |jid| {
            if rebuild && w.build_in_job {
                solver = Some(build(r, jid, job, &mut s, &mut out));
            }
            let solver = solver
                .as_ref()
                .expect("a solver is built before any job solves");
            for (j, (_, f)) in cases.iter().enumerate() {
                let t0 = Instant::now();
                let sol = r.span("sc_feti.FetiSolver::solve_rhs", jid, job, |_| {
                    solver.solve_rhs(f)
                });
                s.solve_s.push(t0.elapsed().as_secs_f64());
                s.iterations += sol.stats.iterations;
                if job == 0 {
                    s.first_job_iters.push(sol.stats.iterations);
                    if j == 0 {
                        first_u = Some(sol.u_locals.clone());
                    }
                }
                out.record(check_solution(&sol, tol));
            }
        });
        let dt = t_job.elapsed().as_secs_f64();
        s.job_s.push(dt);
        s.job_s_by_tracing[traced as usize].push(dt);
        job += 1;
        if t_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();

    // correctness checks, outside the measured loop
    let solver = solver.expect("the loop ran at least one job");
    let u0 = first_u.expect("job 0 solved load case 0");
    out.record(check_against_direct(
        &problem,
        cases[0].0,
        &problem.gather_global(&u0),
    ));
    out.record(check_explicit_vs_implicit(&w, &problem, &solver, args.seed));

    if !args.trace {
        end_to_end(&mut out, &s, setup_s, w.setup_reps, rss);
    } else {
        per_layer(&mut out, &w, &s, args, rec, &cases);
    }
    out
}

fn end_to_end(out: &mut Outcome, s: &Samples, setup_s: f64, setup_reps: usize, rss: f64) {
    let solve_total: f64 = s.solve_s.iter().sum();
    let job_total: f64 = s.job_s.iter().sum();
    let (ns, nj) = (s.solve_s.len(), s.job_s.len());
    out.set("setup_s", setup_s, "s", setup_reps);
    out.set("prep_s", median(&s.prep_s), "s", s.prep_s.len());
    out.set("solve_ms_p50", median(&s.solve_s) * 1e3, "ms", ns);
    out.set("solve_ms_p90", quantile(&s.solve_s, 0.9) * 1e3, "ms", ns);
    out.set(
        "iter_us",
        solve_total / s.iterations.max(1) as f64 * 1e6,
        "us",
        s.iterations,
    );
    out.set("job_ms_p50", median(&s.job_s) * 1e3, "ms", nj);
    out.set("job_ms_p90", quantile(&s.job_s, 0.9) * 1e3, "ms", nj);
    out.set("jobs_per_s", nj as f64 / job_total, "1/s", nj);
    out.set("peak_rss_mb", rss, "MiB", 1);
    for (name, n) in [("solve_ms_p90", ns), ("job_ms_p90", nj)] {
        if !tail_is_supported(n, 0.9) {
            out.notes.push(format!(
                "{name}: only {n} samples, fewer than ten lie beyond the 90th percentile"
            ));
        }
    }
}

fn per_layer(
    out: &mut Outcome,
    w: &SolveWorkload,
    s: &Samples,
    args: &Args,
    rec: &Recorder,
    cases: &[(f64, Vec<Vec<f64>>)],
) {
    let iters: usize = s.first_job_iters.iter().sum();
    out.set(
        "pcpg.iters",
        iters as f64 / s.first_job_iters.len().max(1) as f64,
        "count",
        s.first_job_iters.len(),
    );
    let [untraced, traced] = &s.job_s_by_tracing;
    out.set(
        "trace.overhead",
        median(traced) / median(untraced) - 1.0,
        "ratio",
        traced.len().min(untraced.len()),
    );

    let probe = rec.span("layers", None, u64::MAX, |pid| {
        layers::probe(
            rec,
            pid,
            &|| w.problem(),
            &w.options(),
            Some(&cases[1 % cases.len()].1),
            w.probe_reps,
        )
    });
    out.record(probe.check.clone());
    let prep = median(&s.prep_s);
    probe.report(out, prep);
    // the serve layer, on this workload's mesh
    let serve = crate::serve::probe(rec, &w.mesh_fields(), args.seed);
    for r in &serve.results {
        out.record(r.check.clone());
    }
    serve.report(out);
}
