//! The `serve_mix` workload: one closed-loop client drives an in-process
//! `ServeHandle` with a seeded mix of jobs, each a `submit` line followed
//! by a `run` line; plus the serve-layer probe the solver workloads use.

use std::time::Instant;

use schur_dd::prelude::*;
use schur_dd::sc_core::SessionCacheStats;
use schur_dd::sc_serve::parse_request;

use crate::solve::check_against_direct;
use crate::trace::{Recorder, SpanId};
use crate::{median, median_time, peak_rss_mb, quantile, tail_is_supported, Args, Outcome, Rng};

/// One kind of job in the mix.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub op: &'static str,
    pub dim: usize,
    pub cells: usize,
    pub subs: (usize, usize, usize),
    pub backend: &'static str,
    pub precision: &'static str,
}

/// The mix: 2D and 3D meshes, host (`cpu`) and simulated-GPU
/// record-then-replay (`cluster`) backends, solves and assembly-only jobs,
/// and one mixed-precision spec. Every spec stays inside the service's
/// admission limits.
pub const SPECS: [Spec; 6] = [
    Spec {
        op: "solve",
        dim: 2,
        cells: 16,
        subs: (4, 4, 1),
        backend: "cpu",
        precision: "f64",
    },
    Spec {
        op: "solve",
        dim: 2,
        cells: 12,
        subs: (3, 3, 1),
        backend: "cluster",
        precision: "f64",
    },
    Spec {
        op: "solve",
        dim: 3,
        cells: 6,
        subs: (2, 2, 2),
        backend: "cpu",
        precision: "f64",
    },
    Spec {
        op: "assemble",
        dim: 3,
        cells: 7,
        subs: (2, 2, 2),
        backend: "cluster",
        precision: "f64",
    },
    Spec {
        op: "solve",
        dim: 2,
        cells: 16,
        subs: (4, 4, 1),
        backend: "cluster",
        precision: "f32_refined",
    },
    Spec {
        op: "assemble",
        dim: 2,
        cells: 24,
        subs: (3, 3, 1),
        backend: "cpu",
        precision: "f64",
    },
];

/// Byte budget of the service's prepared-state cache: small enough that
/// misses (prepare, insert, evict) run beside hits.
pub const CACHE_BUDGET_BYTES: usize = 4 << 20;
/// Tenants the client rotates through.
pub const TENANTS: usize = 4;
/// Jobs behind the exact cache counts of a traced run.
pub const COUNT_WINDOW: usize = 120;
const SETUP_REPS: usize = 21;

impl Spec {
    pub fn mesh_fields(&self) -> String {
        let (sx, sy, sz) = self.subs;
        if self.dim == 2 {
            format!("\"dim\":2,\"cells\":{},\"subs\":[{sx},{sy}]", self.cells)
        } else {
            format!(
                "\"dim\":3,\"cells\":{},\"subs\":[{sx},{sy},{sz}]",
                self.cells
            )
        }
    }

    pub fn problem(&self) -> HeatProblem {
        if self.dim == 2 {
            HeatProblem::build_2d(self.cells, (self.subs.0, self.subs.1), Gluing::Redundant)
        } else {
            HeatProblem::build_3d(self.cells, self.subs, Gluing::Redundant)
        }
    }
}

/// One job: its protocol line and what the checks need to know about it.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into [`SPECS`] (the probe's jobs use 0).
    pub spec: usize,
    pub solve: bool,
    pub cluster: bool,
    pub tenant: String,
    pub id: String,
    pub scale: f64,
    pub line: String,
}

impl Job {
    /// Job `n` of a stream: tenant `t<n mod 4>`, id `j<n>`.
    pub fn new(
        spec: usize,
        op: &str,
        mesh: &str,
        backend: &str,
        precision: &str,
        n: usize,
        scale: f64,
    ) -> Job {
        let tenant = format!("t{}", n % TENANTS);
        let id = format!("j{n}");
        let line = format!(
            "{{\"op\":\"{op}\",\"tenant\":\"{tenant}\",\"job\":\"{id}\",{mesh},\"backend\":\"{backend}\",\"precision\":\"{precision}\",\"scale\":{scale:?}}}"
        );
        Job {
            spec,
            solve: op == "solve",
            cluster: backend == "cluster",
            tenant,
            id,
            scale,
            line,
        }
    }
}

/// How often each spec appears in one block of the job stream: small 2D
/// meshes are hot and mostly hit the cache, the larger ones are cold and
/// mostly miss and evict.
pub const BLOCK: [usize; 12] = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 5];

/// The seeded job stream: blocks of [`BLOCK`] in a seeded order, tenants
/// in rotation, seeded load scales.
pub struct JobStream {
    rng: Rng,
    block: Vec<usize>,
    n: usize,
}

impl JobStream {
    pub fn new(seed: u64) -> JobStream {
        JobStream {
            rng: Rng::fork(seed, 0x5E7E),
            block: Vec::new(),
            n: 0,
        }
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i + 1);
                self.block.swap(i, j);
            }
        }
        let i = self.block.pop().expect("block refilled above");
        let s = &SPECS[i];
        let scale = self.rng.uniform(0.5, 2.0);
        let job = Job::new(
            i,
            s.op,
            &s.mesh_fields(),
            s.backend,
            s.precision,
            self.n,
            scale,
        );
        self.n += 1;
        Some(job)
    }
}

/// What one job took and produced.
pub struct JobResult {
    pub job: Job,
    pub submit_s: f64,
    pub run_s: f64,
    pub parse_s: Option<f64>,
    pub outcome: Option<JobOutcome>,
    pub check: Result<(), String>,
}

impl JobResult {
    pub fn job_s(&self) -> f64 {
        self.submit_s + self.run_s
    }
}

/// Submit one job, run the queue, and check the answers: `ok` accepted,
/// `ok` done for this job, and a converged residual for a solve.
pub fn run_job(
    h: &mut ServeHandle,
    rec: &Recorder,
    parent: Option<SpanId>,
    seq: u64,
    job: Job,
    tol: f64,
) -> JobResult {
    rec.span("job", parent, seq, |jid| {
        let parse_s = rec.enabled().then(|| {
            let t = Instant::now();
            let parsed = rec.span("sc_serve.parse_request", jid, seq, |_| {
                parse_request(job.line.as_bytes(), 1)
            });
            std::hint::black_box(parsed.is_ok());
            t.elapsed().as_secs_f64()
        });
        let t0 = Instant::now();
        let accepted = rec.span("sc_serve.submit", jid, seq, |_| h.request(&job.line));
        let t1 = Instant::now();
        let done = rec.span("sc_serve.run", jid, seq, |_| h.request("{\"op\":\"run\"}"));
        let t2 = Instant::now();
        let outcome = h.take_outcome(&job.tenant, &job.id);
        let check = check_job(&accepted, &done, &job, outcome.as_ref(), tol);
        JobResult {
            job,
            submit_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            parse_s,
            outcome,
            check,
        }
    })
}

fn check_job(
    accepted: &[String],
    done: &[String],
    job: &Job,
    outcome: Option<&JobOutcome>,
    tol: f64,
) -> Result<(), String> {
    let id = &job.id;
    let ok_event = |l: &String, ev: &str| {
        l.starts_with("{\"ok\":true,") && l.contains(&format!("\"event\":\"{ev}\""))
    };
    if !(accepted.len() == 1 && ok_event(&accepted[0], "accepted")) {
        return Err(format!("job {id}: submit answered {accepted:?}"));
    }
    let job_field = format!("\"job\":\"{id}\"");
    if !done
        .iter()
        .any(|l| ok_event(l, "done") && l.contains(&job_field))
    {
        return Err(format!("job {id}: no ok done line in {done:?}"));
    }
    let out = outcome.ok_or_else(|| format!("job {id}: no retained outcome"))?;
    if job.solve {
        match out.rel_residual {
            Some(r) if r <= tol => {}
            other => return Err(format!("job {id}: residual {other:?} above tol {tol:.1e}")),
        }
    }
    Ok(())
}

/// Serve-layer figures of a sequence of jobs.
pub struct ServeProbe {
    pub results: Vec<JobResult>,
    pub hits: usize,
    pub misses: usize,
    pub evictions: usize,
}

impl ServeProbe {
    pub fn report(&self, out: &mut Outcome) {
        let parse: Vec<f64> = self.results.iter().filter_map(|r| r.parse_s).collect();
        let submit: Vec<f64> = self.results.iter().map(|r| r.submit_s).collect();
        let run: Vec<f64> = self.results.iter().map(|r| r.run_s).collect();
        let prep: Vec<f64> = self
            .results
            .iter()
            .filter_map(|r| r.outcome.as_ref())
            .filter(|o| !o.cache_hit)
            .map(|o| o.prep_s)
            .collect();
        let sim: Vec<f64> = self
            .results
            .iter()
            .filter(|r| r.job.cluster)
            .filter_map(|r| r.outcome.as_ref())
            .map(|o| o.device_s)
            .collect();
        let lookups = self.hits + self.misses;
        out.set("serve.parse_us", median(&parse) * 1e6, "us", parse.len());
        out.set("serve.submit_us", median(&submit) * 1e6, "us", submit.len());
        out.set("serve.run_ms", median(&run) * 1e3, "ms", run.len());
        out.set("serve.prep_s", median(&prep), "s", prep.len());
        out.set(
            "serve.cache_hit_ratio",
            self.hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups,
        );
        out.set("serve.cache_lookups", lookups as f64, "count", 1);
        out.set("serve.evictions", self.evictions as f64, "count", 1);
        out.set("serve.sim_device_s", median(&sim), "s", sim.len());
        out.notes.push(format!(
            "serve: {} jobs timed; cache {} hits / {} misses / {} evictions over the first {lookups} jobs; \
             serve.sim_device_s is the simulated device makespan of cluster jobs",
            self.results.len(),
            self.hits,
            self.misses,
            self.evictions
        ));
    }
}

/// The serve layer on one mesh: a cold host solve, a warm rescaled host
/// solve, a warm simulated-GPU solve and a warm host assembly.
pub fn probe(rec: &Recorder, mesh: &str, seed: u64) -> ServeProbe {
    let opts = ServeOptions::default();
    let tol = opts.feti.tol;
    let mut h = ServeHandle::new(opts);
    let mut rng = Rng::fork(seed, 0x9B0B);
    let kinds = [
        ("solve", "cpu"),
        ("solve", "cpu"),
        ("solve", "cluster"),
        ("assemble", "cpu"),
    ];
    let results: Vec<JobResult> = rec.span("serve_probe", None, u64::MAX, |pid| {
        kinds
            .iter()
            .enumerate()
            .map(|(i, &(op, backend))| {
                let job = Job::new(0, op, mesh, backend, "f64", i, rng.uniform(0.5, 2.0));
                run_job(&mut h, rec, pid, i as u64, job, tol)
            })
            .collect()
    });
    let c = h.cache_stats();
    ServeProbe {
        results,
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
    }
}

/// The service options of `serve_mix`.
pub fn options() -> ServeOptions {
    ServeOptions {
        cache_budget_bytes: CACHE_BUDGET_BYTES,
        ..ServeOptions::default()
    }
}

/// Run the first `n` jobs of a seed's stream on a fresh `serve_mix`
/// service, untraced, and return their results and the cache counters.
pub fn replay(seed: u64, n: usize) -> (Vec<JobResult>, SessionCacheStats) {
    let opts = options();
    let tol = opts.feti.tol;
    let mut h = ServeHandle::new(opts);
    let off = Recorder::new(false);
    let results = JobStream::new(seed)
        .take(n)
        .enumerate()
        .map(|(seq, job)| run_job(&mut h, &off, None, seq as u64, job, tol))
        .collect();
    (results, h.cache_stats())
}

pub fn run(args: &Args, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let opts = options();
    let tol = opts.feti.tol;
    // set-up: the spec problems (the reference side of the correctness
    // check) and the service
    let (setup_s, (problems, mut h)) = median_time(SETUP_REPS, || {
        let problems: Vec<HeatProblem> = SPECS.iter().map(Spec::problem).collect();
        (problems, ServeHandle::new(opts.clone()))
    });

    let off = Recorder::new(false);
    let mut results: Vec<JobResult> = Vec::new();
    let mut by_tracing: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut window = None;
    // per spec: the first served solution, for the direct comparison
    let mut first: Vec<Option<(f64, Vec<f64>)>> = vec![None; SPECS.len()];
    let t_start = Instant::now();
    for (seq, job) in JobStream::new(args.seed).enumerate() {
        // a traced run alternates traced and untraced blocks of the
        // stream, so both halves run the same mix of specs
        let traced = rec.enabled() && (seq / BLOCK.len()) % 2 == 1;
        let r = if traced { rec } else { &off };
        let mut res = run_job(&mut h, r, None, seq as u64, job, tol);
        if seq % BLOCK.len() == 0 {
            by_tracing[traced as usize].push(0.0);
        }
        let block_s = by_tracing[traced as usize]
            .last_mut()
            .expect("a block total is opened at the block's first job");
        *block_s += res.job_s();
        let spec = res.job.spec;
        if let Some(o) = res.outcome.as_mut() {
            if first[spec].is_none() {
                if let Some(u) = o.u_locals.take() {
                    first[spec] = Some((res.job.scale, problems[spec].gather_global(&u)));
                }
            }
            o.u_locals = None;
            o.lambda = None;
        }
        out.record(res.check.clone());
        results.push(res);
        if results.len() == COUNT_WINDOW {
            window = Some(h.cache_stats());
        }
        let elapsed = t_start.elapsed().as_secs_f64();
        let block_done = (seq + 1) % BLOCK.len() == 0;
        if elapsed >= args.seconds && (!args.trace || (window.is_some() && block_done)) {
            break;
        }
    }
    let rss = peak_rss_mb();

    for (i, f) in first.iter().enumerate() {
        if let Some((scale, u)) = f {
            out.record(check_against_direct(&problems[i], *scale, u));
        }
    }

    if !args.trace {
        end_to_end(&mut out, &results, setup_s, rss);
    } else {
        let c = window.expect("a traced run completes the count window");
        let [untraced, traced] = &by_tracing;
        out.set(
            "trace.overhead",
            median(traced) / median(untraced) - 1.0,
            "ratio",
            traced.len().min(untraced.len()),
        );
        let solves: Vec<usize> = results[..COUNT_WINDOW]
            .iter()
            .filter_map(|r| r.outcome.as_ref().and_then(|o| o.iterations))
            .collect();
        out.set(
            "pcpg.iters",
            solves.iter().sum::<usize>() as f64 / solves.len().max(1) as f64,
            "count",
            solves.len(),
        );
        let serve = ServeProbe {
            results,
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
        };
        serve.report(&mut out);
        layer_probe(&mut out, rec, &opts.feti);
    }
    out
}

fn end_to_end(out: &mut Outcome, results: &[JobResult], setup_s: f64, rss: f64) {
    let job: Vec<f64> = results.iter().map(JobResult::job_s).collect();
    let solve: Vec<f64> = results
        .iter()
        .filter(|r| r.job.solve)
        .map(|r| r.run_s)
        .collect();
    let iters: usize = results
        .iter()
        .filter_map(|r| r.outcome.as_ref().and_then(|o| o.iterations))
        .sum();
    // which specs miss depends on the seeded order, so prep_s weighs every
    // spec equally: the mean over specs of each spec's median miss
    let mut prep_by_spec: Vec<Vec<f64>> = vec![Vec::new(); SPECS.len()];
    for r in results {
        if let Some(o) = r.outcome.as_ref().filter(|o| !o.cache_hit) {
            prep_by_spec[r.job.spec].push(o.prep_s);
        }
    }
    let prep: Vec<f64> = prep_by_spec
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    let misses: usize = prep_by_spec.iter().map(Vec::len).sum();
    let (nj, ns) = (job.len(), solve.len());
    out.notes.push(format!(
        "serve_mix: {nj} jobs, {misses} cache misses, {ns} solve jobs; \
         prep_s = mean over {} specs of each spec's median miss",
        prep.len()
    ));
    out.set("setup_s", setup_s, "s", SETUP_REPS);
    out.set(
        "prep_s",
        prep.iter().sum::<f64>() / prep.len() as f64,
        "s",
        misses,
    );
    out.set("solve_ms_p50", median(&solve) * 1e3, "ms", ns);
    out.set("solve_ms_p90", quantile(&solve, 0.9) * 1e3, "ms", ns);
    out.set(
        "iter_us",
        solve.iter().sum::<f64>() / iters.max(1) as f64 * 1e6,
        "us",
        iters,
    );
    out.set("job_ms_p50", median(&job) * 1e3, "ms", nj);
    out.set("job_ms_p90", quantile(&job, 0.9) * 1e3, "ms", nj);
    out.set("jobs_per_s", nj as f64 / job.iter().sum::<f64>(), "1/s", nj);
    out.set("peak_rss_mb", rss, "MiB", 1);
    for (name, n) in [("solve_ms_p90", ns), ("job_ms_p90", nj)] {
        if !tail_is_supported(n, 0.9) {
            out.notes.push(format!(
                "{name}: only {n} samples, fewer than ten lie beyond the 90th percentile"
            ));
        }
    }
}

/// The non-serve layers on the mix's distinct problems, once each, plus
/// `sc_serve::prepare` on each, the base of `prep.coverage`.
fn layer_probe(out: &mut Outcome, rec: &Recorder, opts: &FetiOptions) {
    let mut probes = Vec::new();
    let mut prepare_s = 0.0;
    rec.span("layers", None, u64::MAX, |pid| {
        for (i, s) in SPECS.iter().enumerate() {
            let mesh_seen = SPECS[..i]
                .iter()
                .any(|o| (o.dim, o.cells, o.subs) == (s.dim, s.cells, s.subs));
            if mesh_seen {
                continue;
            }
            probes.push(crate::layers::probe(
                rec,
                pid,
                &|| s.problem(),
                opts,
                None,
                1,
            ));
            let spec = schur_dd::sc_serve::MeshSpec {
                dim: s.dim as u8,
                cells: s.cells,
                subs: s.subs,
                gluing: schur_dd::sc_serve::GluingTag::Redundant,
            };
            let t = Instant::now();
            rec.span("sc_serve.prepare", pid, i as u64, |_| {
                std::hint::black_box(schur_dd::sc_serve::prepare(&spec, opts))
            });
            prepare_s += t.elapsed().as_secs_f64();
        }
    });
    let probe = crate::layers::LayerProbe::combine(&probes);
    out.record(probe.check.clone());
    probe.report(out, prepare_s);
    // sc_serve::prepare is problem generation, ordering and factorization
    out.notes.push(
        "serve_mix: prep.coverage = (fem.build_s + order.s + factor.s) / Σ sc_serve::prepare time"
            .to_string(),
    );
    out.set(
        "prep.coverage",
        (probe.fem_build_s + probe.order_s + probe.factor_s) / prepare_s,
        "ratio",
        probes.len(),
    );
}
