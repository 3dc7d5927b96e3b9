//! The Total-FETI solver driver: per-subdomain preprocessing, coarse problem,
//! PCPG solve, and primal solution recovery.
//!
//! The entry point is [`FetiSolverBuilder`]: pick a
//! [`Backend`] (where explicit assembly runs), a
//! [`FormulationChoice`] (implicit / explicit / per-subdomain auto), and
//! build a preprocessed [`FetiSolver`] handle. Preprocessing (orderings,
//! factorizations, explicit assembly, coarse problem) happens **once**;
//! [`FetiSolver::solve`] and [`FetiSolver::solve_rhs`] then amortize it
//! across any number of right-hand sides.

use crate::dualop::{DualOperator, SubdomainFactors};
use crate::pcpg::PcpgStats;
use crate::refine::{F32Op, RefinementStats, INNER_TOL};
use rayon::prelude::*;
use sc_core::{
    estimate_apply, estimate_cost, plan_hybrid, AssemblyReport, AssemblySession, Backend,
    ClusterOptions, DeviceSlot, Formulation, HybridPlanOptions, HybridSummary, LazyBatch,
    Precision, ScConfig, Target,
};
use sc_dense::{Mat, Scalar};
use sc_factor::Engine;
use sc_fem::HeatProblem;
use sc_gpu::{DevicePool, GpuKernels, NodePool, Stream};
use sc_order::Ordering;
use sc_sparse::{Coo, Csc};
use std::sync::Arc;

/// Which dual-operator formulation the solver realizes (orthogonal to the
/// [`Backend`] that executes any explicit assembly).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub enum FormulationChoice {
    /// No assembly: every application runs the Eq. 11 solve pipeline
    /// through the factor bundles kept for `K⁺` anyway.
    #[default]
    Implicit,
    /// Dense `F̃ᵢ` pre-assembled for every subdomain on the backend.
    Explicit,
    /// Per-subdomain explicit-vs-implicit selection: the §4.4 cost model
    /// prices assembly plus expected-iterations × apply for every
    /// formulation and picks the cheapest subject to the backend's device
    /// arena capacities (oversized subdomains spill instead of erroring).
    Auto(HybridPlanOptions),
}

/// Dual preconditioner selection for PCPG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preconditioner {
    /// No preconditioning (identity).
    None,
    /// The lumped preconditioner `M⁻¹ = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ` — three sparse
    /// products per subdomain per iteration, the cheap standard choice in
    /// FETI practice.
    Lumped,
}

/// Solver options, captured **once** at construction
/// ([`FetiSolverBuilder::options`]); [`FetiSolver::solve`] takes no
/// arguments.
///
/// ```
/// use sc_feti::{FetiOptions, Preconditioner};
/// let opts = FetiOptions::default()
///     .with_preconditioner(Preconditioner::Lumped)
///     .with_tol(1e-10)
///     .with_max_iter(500);
/// assert_eq!(opts.max_iter, 500);
/// ```
#[derive(Clone)]
pub struct FetiOptions {
    /// Numeric factorization engine for `K_reg`.
    pub engine: Engine,
    /// Fill-reducing ordering.
    pub ordering: Ordering,
    /// Dual preconditioner.
    pub preconditioner: Preconditioner,
    /// PCPG relative tolerance.
    pub tol: f64,
    /// PCPG iteration budget.
    pub max_iter: usize,
}

impl Default for FetiOptions {
    fn default() -> Self {
        FetiOptions {
            engine: Engine::Simplicial,
            ordering: Ordering::NestedDissection,
            preconditioner: Preconditioner::None,
            tol: 1e-9,
            max_iter: 1000,
        }
    }
}

impl FetiOptions {
    /// Set the numeric factorization engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Set the fill-reducing ordering.
    pub fn with_ordering(mut self, ordering: Ordering) -> Self {
        self.ordering = ordering;
        self
    }

    /// Set the dual preconditioner.
    pub fn with_preconditioner(mut self, preconditioner: Preconditioner) -> Self {
        self.preconditioner = preconditioner;
        self
    }

    /// Set the PCPG relative tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Set the PCPG iteration budget.
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter;
        self
    }
}

/// Solution of a FETI solve.
pub struct FetiSolution {
    /// Per-subdomain primal solutions.
    pub u_locals: Vec<Vec<f64>>,
    /// The dual solution `λ`.
    pub lambda: Vec<f64>,
    /// PCPG statistics. For the mixed-precision path, `iterations` counts
    /// the inner (`f32`) iterations and `rel_residual` is the final `f64`
    /// true residual.
    pub stats: PcpgStats,
    /// Mixed-precision refinement statistics; `None` under the default
    /// full-`f64` precision.
    pub refinement: Option<RefinementStats>,
}

/// Per-subdomain operator dispatch slot of the explicit/hybrid modes.
// Variant sizes differ by design, mirroring DualOperator: slots live in one
// short per-subdomain Vec, boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum OpSlot {
    /// An owned, ready-to-apply operator.
    Own(DualOperator),
    /// Apply implicitly through the solver's shared factor bundle (the
    /// hybrid mode's spill/low-iteration choice — avoids duplicating the
    /// factorization the solver keeps for `K⁺` solves anyway). Carries the
    /// subdomain's dof-space scratch vector so PCPG iterations reuse one
    /// allocation ([`apply_implicit_with`](crate::dualop::apply_implicit_with));
    /// the mutex is uncontended — `apply_f` runs one task per subdomain.
    SharedImplicit {
        /// Reused dof-space work vector.
        scratch: std::sync::Mutex<Vec<f64>>,
    },
}

impl OpSlot {
    fn shared_implicit() -> Self {
        OpSlot::SharedImplicit {
            scratch: std::sync::Mutex::new(Vec::new()),
        }
    }
}

/// Composable construction of a preprocessed [`FetiSolver`]:
/// [`FetiOptions`] are taken **exactly once**, the execution target is a
/// [`Backend`] value, and the formulation a [`FormulationChoice`].
///
/// ```
/// use sc_feti::{FetiOptions, FetiSolverBuilder, FormulationChoice};
/// use sc_core::{Backend, ScConfig};
/// use sc_fem::{Gluing, HeatProblem};
///
/// let problem = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
/// let solver = FetiSolverBuilder::new()
///     .options(FetiOptions::default().with_tol(1e-9))
///     .backend(Backend::cpu())
///     .formulation(FormulationChoice::Explicit)
///     .assembly(ScConfig::optimized(false, false))
///     .build(&problem);
/// let solution = solver.solve();
/// assert!(solution.stats.converged);
/// // the same preprocessed handle serves more right-hand sides
/// let loads: Vec<Vec<f64>> = problem
///     .subdomains
///     .iter()
///     .map(|sd| sd.f.iter().map(|v| 2.0 * v).collect())
///     .collect();
/// let scaled = solver.solve_rhs(&loads);
/// assert!(scaled.stats.converged);
/// ```
#[derive(Clone, Default)]
pub struct FetiSolverBuilder {
    opts: FetiOptions,
    cfg: ScConfig,
    backend: Option<Backend>,
    formulation: FormulationChoice,
    precision: Option<Precision>,
    factors: Option<Arc<Vec<SubdomainFactors>>>,
}

impl FetiSolverBuilder {
    /// Start from default options: implicit formulation, CPU backend,
    /// [`ScConfig::Auto`] assembly configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the scalar solver options (engine, ordering, preconditioner,
    /// tolerance, iteration budget) — taken exactly once.
    pub fn options(mut self, opts: FetiOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the execution target of any explicit assembly.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Set the dual-operator formulation.
    pub fn formulation(mut self, formulation: FormulationChoice) -> Self {
        self.formulation = formulation;
        self
    }

    /// Set the assembly configuration of the explicit shares.
    pub fn assembly(mut self, cfg: ScConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the working precision, overriding the backend's. Under
    /// [`Precision::F32Refined`] the explicit operators are assembled and
    /// applied at `f32` and every solve wraps the inner PCPG in an `f64`
    /// iterative-refinement loop ([`FetiSolution::refinement`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Reuse previously built per-subdomain factorizations instead of
    /// re-running the ordering + symbolic + numeric pipeline (the dominant
    /// preprocessing cost). The bundle must come from a
    /// [`FetiSolver::shared_factors`] call (or `SubdomainFactors::build`
    /// loop) over a problem with **identical** subdomain matrices, gluing
    /// and solver engine/ordering — the session-cache layer guarantees this
    /// by content-addressing its entries; a length mismatch panics at
    /// build time. `SubdomainFactors::build` is deterministic, so a build
    /// from reused factors is bitwise identical to a cold build.
    pub fn factors(mut self, factors: Arc<Vec<SubdomainFactors>>) -> Self {
        self.factors = Some(factors);
        self
    }

    /// Run preprocessing and return the reusable solver handle.
    pub fn build<'p>(self, problem: &'p HeatProblem) -> FetiSolver<'p> {
        FetiSolver::build(problem, self)
    }
}

/// Simulated inter-node boundary exchange of the multi-node backend's
/// PCPG. Per dual-operator application each node receives its subdomains'
/// boundary multiplier values from its peers over its interconnect; the
/// exchange is posted **before** the local GEMVs are submitted, so queued
/// local work overlaps the transfer, and only the remainder a stream could
/// not hide is accumulated as stall time
/// ([`PcpgStats::exchange_stall_seconds`]). On a single-node pool the
/// simulation is inert and the solve is bitwise the cluster path.
struct ExchangeSim {
    pool: Arc<NodePool>,
    /// Per node, the streams carrying device-resident operators — the lanes
    /// whose GEMV results feed the global dual vector.
    streams: Vec<Vec<Stream>>,
    /// Boundary bytes entering each node per application.
    bytes_in: Vec<f64>,
    /// Stall seconds accumulated across applications; drained into the
    /// solve's statistics (uncontended: PCPG applies sequentially).
    stall: std::sync::Mutex<f64>,
}

impl ExchangeSim {
    /// Collect each node's dependent streams and incoming boundary bytes
    /// from the multi-node assembly report.
    fn build(pool: &Arc<NodePool>, report: &AssemblyReport, problem: &HeatProblem) -> Self {
        let n = pool.n_nodes();
        let mut streams: Vec<Vec<Stream>> = vec![Vec::new(); n];
        let mut seen: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        let mut bytes_in = vec![0.0; n];
        for t in &report.subdomains {
            let (Some(node), Some(flat), Some(s)) = (t.node, t.device, t.stream) else {
                continue;
            };
            // every application refreshes this subdomain's boundary
            // multipliers from the peers: 8 bytes per lambda row
            bytes_in[node] += 8.0 * problem.subdomains[t.index].n_lambda() as f64; // sc-analyze: allow(precision-discipline)
            if !seen[node].contains(&(flat, s)) {
                seen[node].push((flat, s));
                streams[node].push(node_local_device(pool, flat).stream(s));
            }
        }
        ExchangeSim {
            pool: Arc::clone(pool),
            streams,
            bytes_in,
            stall: std::sync::Mutex::new(0.0),
        }
    }

    /// Post this application's exchanges: each node's incoming boundary
    /// data arrives `link.seconds(bytes_in)` after its streams' current
    /// frontier. Returns `None` on a single-node pool (nothing exchanged).
    fn begin(&self) -> Option<Vec<f64>> {
        if self.pool.n_nodes() < 2 {
            return None;
        }
        Some(
            self.pool
                .nodes()
                .iter()
                .enumerate()
                .map(|(d, ns)| {
                    let t_send = self.streams[d].iter().map(|s| s.time()).fold(0.0, f64::max);
                    t_send + ns.link.seconds(self.bytes_in[d])
                })
                .collect(),
        )
    }

    /// Close this application's exchanges after the local GEMVs were
    /// submitted: a stream whose queued work ends before its node's data
    /// arrival stalls for the remainder; work past the arrival hid the
    /// transfer entirely.
    fn finish(&self, arrivals: &[f64]) {
        let mut stalled = 0.0;
        for (d, lanes) in self.streams.iter().enumerate() {
            for s in lanes {
                let wait = arrivals[d] - s.time();
                if wait > 0.0 {
                    stalled += wait;
                    s.advance_to(arrivals[d]);
                }
            }
        }
        *self.stall.lock().expect("stall mutex poisoned") += stalled;
    }

    /// Take the accumulated stall seconds, resetting the counter.
    fn drain(&self) -> f64 {
        std::mem::take(&mut *self.stall.lock().expect("stall mutex poisoned"))
    }
}

/// A preprocessed FETI solver: factorizations, explicit operators (if
/// requested), and the coarse problem, ready to serve many right-hand
/// sides through [`FetiSolver::solve`] / [`FetiSolver::solve_rhs`].
pub struct FetiSolver<'p> {
    problem: &'p HeatProblem,
    /// Options captured at construction; `solve()` takes no arguments.
    opts: FetiOptions,
    factors: Arc<Vec<SubdomainFactors>>,
    /// `Some` for the explicit and hybrid modes; the implicit mode applies
    /// through `factors` directly.
    explicit_ops: Option<Vec<OpSlot>>,
    /// Working precision captured from the backend at construction.
    precision: Precision,
    /// Demoted (`f32`) operator slots for the mixed-precision inner solves;
    /// `Some` exactly when `precision` is [`Precision::F32Refined`].
    f32_ops: Option<Vec<F32Op>>,
    /// Sparse `G = B R` (`n_lambda × n_kernels`).
    g: Csc,
    /// Dense Cholesky factor of `GᵀG`.
    gtg: Mat,
    /// Kernel column of each subdomain (floating ones only).
    kernel_col: Vec<Option<usize>>,
    /// Dual right-hand side `d = B K⁺ f` of the problem's own loads.
    d: Vec<f64>,
    /// Coarse right-hand side `e = Rᵀ f` of the problem's own loads.
    e: Vec<f64>,
    /// The unified preprocessing report (`None` for the implicit mode).
    report: Option<AssemblyReport>,
    /// Simulated PCPG boundary-exchange overlap; `Some` exactly when the
    /// backend is a multi-node pool with device-resident operators.
    exchange_sim: Option<ExchangeSim>,
}

impl<'p> FetiSolver<'p> {
    /// Run the initialization + preprocessing stages (paper §2.2) as the
    /// builder configured them, reusing its prepared factorizations when
    /// given. Options are captured here, once — [`FetiSolver::solve`]
    /// takes no arguments.
    fn build(problem: &'p HeatProblem, builder: FetiSolverBuilder) -> Self {
        let FetiSolverBuilder {
            opts,
            cfg,
            backend,
            formulation,
            precision,
            factors: prepared,
        } = builder;
        let mut backend = backend.unwrap_or_else(Backend::cpu);
        if let Some(p) = precision {
            backend.precision = p;
        }
        let precision = backend.precision;
        // per-subdomain factorizations in parallel (the paper's loop over the
        // cluster's subdomains, one thread per subdomain) — unless a
        // session cache already holds the bundle for this exact problem
        let factors: Arc<Vec<SubdomainFactors>> = prepared.unwrap_or_else(|| {
            Arc::new(
                problem
                    .subdomains
                    .par_iter()
                    .map(|sd| SubdomainFactors::build(sd, opts.engine, opts.ordering))
                    .collect(),
            )
        });
        assert_eq!(
            factors.len(),
            problem.subdomains.len(),
            "prepared factor bundle must cover every subdomain of the problem"
        );

        // dual operators: the explicit formulations pre-assemble the dense
        // F̃ᵢ through one AssemblySession on the builder's backend; the
        // implicit formulation reuses `factors` directly at application time
        let mut report: Option<AssemblyReport> = None;
        let explicit_ops: Option<Vec<OpSlot>> = match &formulation {
            FormulationChoice::Implicit => None,
            FormulationChoice::Explicit => {
                let session = AssemblySession::new(backend.clone(), cfg);
                let res = session.assemble(LazyBatch::new(
                    &factors,
                    // simplicial factors are borrowed; a supernodal one is
                    // materialized per task, so peak memory is one factor
                    // copy per worker, not one per subdomain
                    |_, f: &SubdomainFactors| f.chol.factor_cow(),
                    |f| &f.bt_perm,
                ));
                let ops = bind_ops(res.f, &res.report, &backend);
                report = Some(res.report);
                Some(ops)
            }
            FormulationChoice::Auto(plan_opts) => {
                let (ops, unified) = assemble_auto(&factors, &cfg, &backend, plan_opts);
                report = Some(unified);
                Some(ops)
            }
        };

        // kernel numbering and G = B R (kernel = constant vector: G entries
        // are just the B̃ signs, since each B̃ᵀ column has a single ±1)
        let mut kernel_col = vec![None; problem.subdomains.len()];
        let mut n_kernels = 0;
        for (i, sd) in problem.subdomains.iter().enumerate() {
            if sd.kernel.is_some() {
                kernel_col[i] = Some(n_kernels);
                n_kernels += 1;
            }
        }
        let mut g_coo = Coo::new(problem.n_lambda, n_kernels.max(1));
        for (i, sd) in problem.subdomains.iter().enumerate() {
            let Some(_kc) = kernel_col[i] else { continue };
            let ker = sd.kernel.as_ref().expect("kernel column implies kernel");
            // G[:, kc] = B_i r_i
            let mut gr = vec![0.0; sd.n_lambda()];
            sd.bt.spmv_t(1.0, ker, 0.0, &mut gr);
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                // sc-analyze: allow(float-eq)
                if gr[ll] != 0.0 {
                    g_coo.push(
                        gl,
                        kernel_col[i].expect("kernel column assigned for every singular subdomain"),
                        gr[ll],
                    );
                }
            }
        }
        let g = g_coo.to_csc();

        // coarse factor (GᵀG); for zero kernels keep a 1x1 identity
        let gtg = if n_kernels == 0 {
            Mat::identity(1)
        } else {
            let gd = g.to_dense();
            let mut gtg = Mat::zeros(n_kernels, n_kernels);
            sc_dense::syrk_t(1.0, gd.as_ref(), 0.0, gtg.as_mut());
            gtg.symmetrize_from_lower();
            let mut l = gtg;
            sc_dense::cholesky_in_place(l.as_mut())
                .expect("GᵀG must be SPD (decomposition has a fixed subdomain)");
            l
        };

        // demote the operators once for the mixed-precision inner solves:
        // explicit slots reuse the (f32-assembled, exactly promoted) dense
        // F̃ᵢ, everything else demotes its factor bundle
        let f32_ops: Option<Vec<F32Op>> = precision.is_f32().then(|| {
            (0..factors.len())
                .into_par_iter()
                .map(|i| {
                    let explicit = explicit_ops.as_ref().and_then(|ops| match &ops[i] {
                        OpSlot::Own(op) => op.explicit_matrix(),
                        OpSlot::SharedImplicit { .. } => None,
                    });
                    match explicit {
                        Some(f) => F32Op::Explicit(f.cast::<f32>()),
                        None => F32Op::implicit(&factors[i]),
                    }
                })
                .collect()
        });

        // the multi-node backend overlaps PCPG boundary exchanges with the
        // local applies; every other target leaves the solve untouched
        let exchange_sim = match &backend.target {
            Target::MultiNode { pool, .. } if pool.n_nodes() > 1 => report
                .as_ref()
                .filter(|rep| !rep.nodes.is_empty())
                .map(|rep| ExchangeSim::build(pool, rep, problem)),
            _ => None,
        };

        let mut solver = FetiSolver {
            problem,
            opts,
            factors,
            explicit_ops,
            precision,
            f32_ops,
            g,
            gtg,
            kernel_col,
            d: Vec::new(),
            e: Vec::new(),
            report,
            exchange_sim,
        };
        // dual + coarse right-hand sides of the problem's own loads (any
        // other loads go through solve_rhs, which recomputes both)
        let (d, e) = solver.rhs_setup(None);
        solver.d = d;
        solver.e = e;
        solver
    }

    /// The unified preprocessing report: per-subdomain timings, per-device
    /// execution timelines, and (for the auto formulation) the hybrid
    /// decisions — one schema for every backend. `None` when the dual
    /// operator is applied implicitly (nothing was assembled).
    pub fn report(&self) -> Option<&AssemblyReport> {
        self.report.as_ref()
    }

    /// The options captured at construction.
    pub fn options(&self) -> &FetiOptions {
        &self.opts
    }

    /// Number of kernel columns (size of the coarse problem).
    pub fn n_kernels(&self) -> usize {
        self.kernel_col.iter().flatten().count()
    }

    /// Compute the dual and coarse right-hand sides `d = B K⁺ f`,
    /// `e = Rᵀ f` for the given per-subdomain loads (`None` = the
    /// problem's own).
    fn rhs_setup(&self, f_locals: Option<&[Vec<f64>]>) -> (Vec<f64>, Vec<f64>) {
        let f_of = |i: usize| -> &[f64] {
            match f_locals {
                Some(fs) => &fs[i],
                None => &self.problem.subdomains[i].f,
            }
        };
        let d_locals: Vec<Vec<f64>> = self
            .factors
            .par_iter()
            .zip(&self.problem.subdomains)
            .enumerate()
            .map(|(i, (f, sd))| {
                let kf = f.solve_kplus(f_of(i));
                let mut dl = vec![0.0; sd.n_lambda()];
                sd.bt.spmv_t(1.0, &kf, 0.0, &mut dl);
                dl
            })
            .collect();
        let mut d = vec![0.0; self.problem.n_lambda];
        for (sd, dl) in self.problem.subdomains.iter().zip(&d_locals) {
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                d[gl] += dl[ll];
            }
        }
        let mut e = vec![0.0; self.n_kernels().max(1)];
        for (i, sd) in self.problem.subdomains.iter().enumerate() {
            let (Some(kc), Some(ker)) = (self.kernel_col[i], sd.kernel.as_ref()) else {
                continue;
            };
            e[kc] = f_of(i).iter().zip(ker).map(|(fi, ri)| fi * ri).sum();
        }
        (d, e)
    }

    /// Apply the assembled dual operator `F` to a global dual vector.
    ///
    /// Under the multi-node backend the application also advances the
    /// simulated boundary exchange: each node's incoming data is posted
    /// before the local GEMVs submit, so queued device work overlaps the
    /// transfer; unhidden wait accumulates as
    /// [`PcpgStats::exchange_stall_seconds`]. The numerics are identical
    /// either way — the simulation only moves stream clocks.
    pub fn apply_f(&self, p: &[f64]) -> Vec<f64> {
        let arrivals = self.exchange_sim.as_ref().and_then(|sim| sim.begin());
        let locals: Vec<Vec<f64>> = self
            .problem
            .subdomains
            .par_iter()
            .enumerate()
            .map(|(i, sd)| {
                let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| p[gl]).collect();
                let mut ql = vec![0.0; sd.n_lambda()];
                match &self.explicit_ops {
                    Some(ops) => match &ops[i] {
                        OpSlot::Own(op) => op.apply(&pl, &mut ql),
                        OpSlot::SharedImplicit { scratch } => {
                            // reuse this subdomain's dof-space work vector
                            // across PCPG iterations (uncontended lock: one
                            // task per subdomain)
                            let mut t = scratch.lock().expect("scratch mutex poisoned");
                            crate::dualop::apply_implicit_with(
                                &self.factors[i],
                                &pl,
                                &mut ql,
                                &mut t,
                            )
                        }
                    },
                    None => crate::dualop::apply_implicit(&self.factors[i], &pl, &mut ql),
                }
                ql
            })
            .collect();
        if let (Some(sim), Some(arrivals)) = (self.exchange_sim.as_ref(), arrivals) {
            sim.finish(&arrivals);
        }
        let mut q = vec![0.0; self.problem.n_lambda];
        for (sd, ql) in self.problem.subdomains.iter().zip(&locals) {
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                q[gl] += ql[ll];
            }
        }
        q
    }

    /// Solve the small coarse system `(GᵀG) x = b`.
    fn coarse_solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        sc_dense::cholesky_solve(self.gtg.as_ref(), &mut x);
        x
    }

    /// Projector `P x = x − G (GᵀG)⁻¹ Gᵀ x`.
    pub fn project(&self, x: &[f64]) -> Vec<f64> {
        if self.n_kernels() == 0 {
            return x.to_vec();
        }
        let mut gtx = vec![0.0; self.g.ncols()];
        self.g.spmv_t(1.0, x, 0.0, &mut gtx);
        let y = self.coarse_solve(&gtx);
        let mut out = x.to_vec();
        self.g.spmv(-1.0, &y, 1.0, &mut out);
        out
    }

    /// Apply the lumped preconditioner `M⁻¹ w = Σᵢ B̃ᵢ Kᵢ B̃ᵢᵀ w̃ᵢ`.
    pub fn apply_lumped(&self, w: &[f64]) -> Vec<f64> {
        let locals: Vec<Vec<f64>> = self
            .problem
            .subdomains
            .par_iter()
            .map(|sd| {
                let wl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| w[gl]).collect();
                let mut t = vec![0.0; sd.n_dofs()];
                sd.bt.spmv(1.0, &wl, 0.0, &mut t); // B̃ᵀ w̃
                let mut kt = vec![0.0; sd.n_dofs()];
                sd.k.spmv(1.0, &t, 0.0, &mut kt); // K B̃ᵀ w̃
                let mut zl = vec![0.0; sd.n_lambda()];
                sd.bt.spmv_t(1.0, &kt, 0.0, &mut zl); // B̃ K B̃ᵀ w̃
                zl
            })
            .collect();
        let mut z = vec![0.0; self.problem.n_lambda];
        for (sd, zl) in self.problem.subdomains.iter().zip(&locals) {
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                z[gl] += zl[ll];
            }
        }
        z
    }

    /// Full FETI solve of the problem's own loads: PCPG on the dual, then
    /// primal recovery. Uses the options captured at construction.
    pub fn solve(&self) -> FetiSolution {
        self.solve_inner(&self.d, &self.e, None)
    }

    /// Solve for **new per-subdomain loads** without repeating any
    /// preprocessing: the factorizations, explicit operators, and coarse
    /// factor built at construction are reused; only the right-hand sides
    /// (`d = B K⁺ f`, `e = Rᵀ f`), the PCPG iteration, and the primal
    /// recovery run per call. This is what amortizes the expensive explicit
    /// assembly across many solves.
    ///
    /// # Panics
    ///
    /// When `f_locals` does not carry one load vector per subdomain with
    /// the subdomain's dof count.
    pub fn solve_rhs(&self, f_locals: &[Vec<f64>]) -> FetiSolution {
        assert_eq!(
            f_locals.len(),
            self.problem.subdomains.len(),
            "solve_rhs needs one load vector per subdomain ({} given, {} subdomains)",
            f_locals.len(),
            self.problem.subdomains.len()
        );
        for (i, (fl, sd)) in f_locals.iter().zip(&self.problem.subdomains).enumerate() {
            assert_eq!(
                fl.len(),
                sd.n_dofs(),
                "subdomain {i}: load vector has {} entries, expected {}",
                fl.len(),
                sd.n_dofs()
            );
        }
        let (d, e) = self.rhs_setup(Some(f_locals));
        self.solve_inner(&d, &e, Some(f_locals))
    }

    fn solve_inner(&self, d: &[f64], e: &[f64], f_locals: Option<&[Vec<f64>]>) -> FetiSolution {
        // λ0 = G (GᵀG)⁻¹ e satisfies Gᵀ λ0 = e (Eq. 4)
        let lambda0 = if self.n_kernels() == 0 {
            vec![0.0; self.problem.n_lambda]
        } else {
            let y = self.coarse_solve(e);
            let mut l0 = vec![0.0; self.problem.n_lambda];
            self.g.spmv(1.0, &y, 0.0, &mut l0);
            l0
        };
        // reset the exchange-stall counter so the stamped figure below
        // covers exactly this solve's dual-operator applications
        if let Some(sim) = &self.exchange_sim {
            let _ = sim.drain();
        }
        let (lambda, mut stats, refinement) = match self.precision {
            Precision::F64 => {
                let res = self.pcpg_f64(d, lambda0);
                (res.lambda, res.stats, None)
            }
            Precision::F32Refined {
                refine_tol,
                max_refine,
            } => self.solve_refined(d, lambda0, refine_tol, max_refine),
        };
        if let Some(sim) = &self.exchange_sim {
            stats.exchange_stall_seconds = sim.drain();
        }
        let u_locals = self.recover_primal_with(&lambda, d, f_locals);
        FetiSolution {
            u_locals,
            lambda,
            stats,
            refinement,
        }
    }

    /// The full-`f64` PCPG solve (the historical path; also the
    /// mixed-precision fallback).
    fn pcpg_f64(&self, d: &[f64], lambda0: Vec<f64>) -> crate::pcpg::PcpgResult {
        let opts = &self.opts;
        crate::pcpg::pcpg_preconditioned(
            d,
            lambda0,
            |p| self.apply_f(p),
            |x| self.project(x),
            |w| match opts.preconditioner {
                Preconditioner::None => w.to_vec(),
                Preconditioner::Lumped => self.apply_lumped(w),
            },
            opts.tol,
            opts.max_iter,
        )
    }

    /// Apply the demoted dual operator at `f32` (the mixed-precision inner
    /// solve's hot path): same gather/apply/scatter structure as
    /// [`FetiSolver::apply_f`], accumulating in single precision.
    fn apply_f32(&self, p: &[f32]) -> Vec<f32> {
        let ops = self
            .f32_ops
            .as_ref()
            .expect("f32 operators exist under the refined precision");
        let locals: Vec<Vec<f32>> = self
            .problem
            .subdomains
            .par_iter()
            .enumerate()
            .map(|(i, sd)| {
                let pl: Vec<f32> = sd.lambda_ids.iter().map(|&gl| p[gl]).collect();
                let mut ql = vec![0.0f32; sd.n_lambda()];
                ops[i].apply(&pl, &mut ql);
                ql
            })
            .collect();
        let mut q = vec![0.0f32; self.problem.n_lambda];
        for (sd, ql) in self.problem.subdomains.iter().zip(&locals) {
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                q[gl] += ql[ll];
            }
        }
        q
    }

    /// Mixed-precision iterative refinement (the `F32Refined` solve path):
    /// the outer loop measures the true projected residual `r = P(d − Fλ)`
    /// and accumulates corrections in `f64`; each correction solves
    /// `F δ = r` with the **`f32`** PCPG against the demoted operators. The
    /// correction is re-projected in `f64` before the update so the coarse
    /// constraint `Gᵀλ = e` never degrades to single precision. When the
    /// residual stalls or the refinement budget runs out, the solve falls
    /// back to the full-`f64` PCPG from the best iterate.
    fn solve_refined(
        &self,
        d: &[f64],
        lambda0: Vec<f64>,
        refine_tol: f64,
        max_refine: usize,
    ) -> (Vec<f64>, PcpgStats, Option<RefinementStats>) {
        let opts = &self.opts;
        let m = d.len();
        let norm0 = {
            let pd = self.project(d);
            sc_dense::dot(&pd, &pd).sqrt()
        };
        // sc-analyze: allow(float-eq)
        if norm0 == 0.0 {
            let stats = PcpgStats {
                iterations: 0,
                operator_applications: 0,
                rel_residual: 0.0,
                converged: true,
                breakdown: None,
                exchange_stall_seconds: 0.0,
            };
            let refinement = RefinementStats {
                outer_iterations: 0,
                inner_iterations: 0,
                rel_residual: 0.0,
                converged: true,
                fell_back: false,
            };
            return (lambda0, stats, Some(refinement));
        }

        let mut lambda = lambda0;
        let mut outer = 0usize;
        let mut inner_total = 0usize;
        let mut applications = 0usize;
        let mut rel;
        let mut prev_rel = f64::INFINITY;
        loop {
            // f64 truth: r = P(d − Fλ) through the full-precision operator
            let flam = self.apply_f(&lambda);
            applications += 1;
            let resid: Vec<f64> = d.iter().zip(&flam).map(|(di, fi)| di - fi).collect();
            let r = self.project(&resid);
            rel = sc_dense::dot(&r, &r).sqrt() / norm0;
            if rel <= refine_tol {
                break;
            }
            // stalled (single precision can push no further) or out of
            // budget: hand over to the f64 fallback below
            if outer >= max_refine || rel >= 0.5 * prev_rel {
                break;
            }
            prev_rel = rel;

            // inner f32 correction solve F δ = r over the Gᵀδ = 0 subspace;
            // projector and preconditioner round-trip through their f64
            // implementations (the operator applications are the hot path
            // and run natively at f32)
            let r32 = demote(&r);
            let res = crate::pcpg::pcpg_preconditioned_of::<f32>(
                &r32,
                vec![0.0f32; m],
                |p| self.apply_f32(p),
                |x| demote(&self.project(&promote(x))),
                |w| match opts.preconditioner {
                    Preconditioner::None => w.to_vec(),
                    Preconditioner::Lumped => demote(&self.apply_lumped(&promote(w))),
                },
                INNER_TOL,
                opts.max_iter,
            );
            inner_total += res.stats.iterations;
            applications += res.stats.operator_applications;
            // promote the correction and re-project in f64: the f32 iterate
            // satisfies Gᵀδ = 0 only to single precision, and the coarse
            // constraint must hold at the accumulation precision
            let delta = self.project(&promote(&res.lambda));
            for (li, di) in lambda.iter_mut().zip(&delta) {
                *li += di;
            }
            outer += 1;
        }

        if rel <= refine_tol {
            let stats = PcpgStats {
                iterations: inner_total,
                operator_applications: applications,
                rel_residual: rel,
                converged: true,
                breakdown: None,
                exchange_stall_seconds: 0.0,
            };
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner_total,
                rel_residual: rel,
                converged: true,
                fell_back: false,
            };
            (lambda, stats, Some(refinement))
        } else {
            // refinement failed to reach the target: fall back to the
            // historical full-f64 PCPG from the best iterate (Gᵀλ = e still
            // holds, so it is a legal warm start)
            let res = self.pcpg_f64(d, lambda);
            let refinement = RefinementStats {
                outer_iterations: outer,
                inner_iterations: inner_total,
                rel_residual: res.stats.rel_residual,
                converged: res.stats.converged,
                fell_back: true,
            };
            (res.lambda, res.stats, Some(refinement))
        }
    }

    /// The working precision captured from the backend at construction.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Primal recovery for the problem's own loads: `α = (GᵀG)⁻¹Gᵀ(Fλ − d)`,
    /// `uᵢ = K⁺(fᵢ − B̃ᵢᵀ λ̃ᵢ) + Rᵢ αᵢ` (Eq. 5).
    pub fn recover_primal(&self, lambda: &[f64]) -> Vec<Vec<f64>> {
        self.recover_primal_with(lambda, &self.d, None)
    }

    fn recover_primal_with(
        &self,
        lambda: &[f64],
        d: &[f64],
        f_locals: Option<&[Vec<f64>]>,
    ) -> Vec<Vec<f64>> {
        let alphas: Vec<f64> = if self.n_kernels() == 0 {
            Vec::new()
        } else {
            let flam = self.apply_f(lambda);
            let resid: Vec<f64> = flam.iter().zip(d).map(|(a, b)| a - b).collect();
            let mut gtr = vec![0.0; self.g.ncols()];
            self.g.spmv_t(1.0, &resid, 0.0, &mut gtr);
            self.coarse_solve(&gtr)
        };
        self.factors
            .par_iter()
            .zip(&self.problem.subdomains)
            .enumerate()
            .map(|(i, (fac, sd))| {
                // f_i - B̃ᵀ λ̃
                let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lambda[gl]).collect();
                let mut rhs = match f_locals {
                    Some(fs) => fs[i].clone(),
                    None => sd.f.clone(),
                };
                sd.bt.spmv(-1.0, &pl, 1.0, &mut rhs);
                let mut u = fac.solve_kplus(&rhs);
                if let (Some(kc), Some(ker)) = (self.kernel_col[i], sd.kernel.as_ref()) {
                    let a = alphas[kc];
                    for (ui, ri) in u.iter_mut().zip(ker) {
                        *ui += a * ri;
                    }
                }
                u
            })
            .collect()
    }

    /// The dual right-hand side of the problem's own loads.
    pub fn dual_rhs(&self) -> &[f64] {
        &self.d
    }

    /// Borrow the per-subdomain factor bundles.
    pub fn factors(&self) -> &[SubdomainFactors] {
        &self.factors
    }

    /// Clone the shared handle of the per-subdomain factor bundles, so a
    /// session cache can retain them past this solver's lifetime and feed
    /// them back through [`FetiSolverBuilder::factors`].
    pub fn shared_factors(&self) -> Arc<Vec<SubdomainFactors>> {
        Arc::clone(&self.factors)
    }
}

/// Exact widening of a dual vector to `f64` (mixed-precision boundary).
fn promote(x: &[f32]) -> Vec<f64> {
    x.iter().map(|&v| f64::from(v)).collect()
}

/// Rounding demotion of a dual vector to `f32` (mixed-precision boundary).
fn demote(x: &[f64]) -> Vec<f32> {
    x.iter().map(|&v| f32::from_f64(v)).collect()
}

/// Resolve a report's **flattened** (cluster-global) device index to the
/// owning node's device handle.
fn node_local_device(pool: &NodePool, flat: usize) -> &Arc<sc_gpu::Device> {
    let mut d = flat;
    for ns in pool.nodes() {
        let n = ns.pool.n_devices();
        if d < n {
            return ns.pool.device(d);
        }
        d -= n;
    }
    panic!("device index {flat} lies outside the node pool") // sc-analyze: allow(panic-surface)
}

/// Bind each assembled `F̃ᵢ` to its operator slot: subdomains the report
/// placed on a device get a device-resident GEMV operator on the stream
/// their schedule used; host subdomains (CPU backend, hybrid spills) get
/// the host GEMV.
fn bind_ops(f: Vec<Mat>, report: &AssemblyReport, backend: &Backend) -> Vec<OpSlot> {
    f.into_iter()
        .enumerate()
        .map(|(i, mat)| {
            let t = &report.subdomains[i];
            debug_assert_eq!(t.index, i, "report timings must be in batch order");
            let op = match (&backend.target, t.device, t.stream) {
                (Target::Gpu { device, .. }, Some(_), Some(s)) => DualOperator::ExplicitGpu {
                    f: mat,
                    kernels: GpuKernels::new(device.stream(s)),
                },
                (Target::Cluster { pool, .. } | Target::Hybrid { pool, .. }, Some(d), Some(s)) => {
                    DualOperator::ExplicitGpu {
                        f: mat,
                        kernels: GpuKernels::new(pool.device(d).stream(s)),
                    }
                }
                (Target::MultiNode { pool, .. }, Some(d), Some(s)) => DualOperator::ExplicitGpu {
                    f: mat,
                    kernels: GpuKernels::new(node_local_device(pool, d).stream(s)),
                },
                _ => DualOperator::ExplicitCpu(mat),
            };
            OpSlot::Own(op)
        })
        .collect()
}

/// The auto (hybrid) formulation: per-subdomain explicit-vs-implicit
/// decision under the §4.4 cost model, explicit shares assembled through
/// sessions on the backend, reports merged into one [`AssemblyReport`]
/// (problem-global indices).
fn assemble_auto(
    factors: &[SubdomainFactors],
    cfg: &ScConfig,
    backend: &Backend,
    plan_opts: &HybridPlanOptions,
) -> (Vec<OpSlot>, AssemblyReport) {
    // the pool the explicit-GPU share may run on: the backend's own pool, a
    // single-device pool for the GPU backend, or an empty pool on the host
    let (pool, cluster_opts): (Arc<DevicePool>, ClusterOptions) = match &backend.target {
        Target::Cluster { pool, opts } | Target::Hybrid { pool, opts } => {
            (Arc::clone(pool), opts.clone())
        }
        Target::Gpu { device, schedule } => {
            let mut opts = ClusterOptions::default().with_policy(schedule.policy);
            if let Some(r) = &schedule.ready_at {
                opts = opts.with_ready_at(r.clone());
            }
            (DevicePool::from_devices(vec![Arc::clone(device)]), opts)
        }
        // the per-subdomain decision layer works over a flat device list:
        // the node pool's devices, interconnects not priced (the explicit
        // share's placement is intra-node here)
        Target::MultiNode { pool, opts } => {
            let devices: Vec<_> = pool
                .nodes()
                .iter()
                .flat_map(|ns| ns.pool.devices().iter().cloned())
                .collect();
            (DevicePool::from_devices(devices), opts.clone())
        }
        _ => (
            DevicePool::from_devices(Vec::new()),
            ClusterOptions::default(),
        ),
    };

    // decision layer: analytic assembly + per-iteration apply estimates per
    // subdomain (the factor is borrowed where the engine exposes it)
    let ref_spec = if pool.is_empty() {
        plan_opts.host.clone()
    } else {
        pool.device(0).spec().clone()
    };
    let estimates: Vec<(sc_core::CostEstimate, sc_core::ApplyEstimate)> = factors
        .par_iter()
        .enumerate()
        .map(|(i, f)| {
            let l = f.chol.factor_cow();
            let bt = &f.bt_perm;
            let params = cfg.resolve(!pool.is_empty(), &l, bt);
            (
                estimate_cost(&ref_spec, &l, bt, &params, i),
                estimate_apply(&l, bt, i),
            )
        })
        .collect();
    let (costs, applies): (Vec<_>, Vec<_>) = estimates.into_iter().unzip();
    let slots: Vec<DeviceSlot> = pool.devices().iter().map(|d| DeviceSlot::of(d)).collect();
    let plan = plan_hybrid(&costs, &applies, &slots, plan_opts);
    let gpu_idx = plan.indices_of(Formulation::ExplicitGpu);
    let cpu_idx = plan.indices_of(Formulation::ExplicitCpu);

    // one dispatch slot per subdomain; non-explicit ones borrow the shared
    // factor bundle at application time
    let mut ops: Vec<OpSlot> = (0..factors.len())
        .map(|_| OpSlot::shared_implicit())
        .collect();

    // explicit-GPU share through a cluster session (two-level plan, arena
    // admission, record/replay — bitwise CPU-equal)
    let mut gpu_report: Option<AssemblyReport> = None;
    if !gpu_idx.is_empty() {
        let mut share_opts = cluster_opts.clone();
        share_opts.ready_at = cluster_opts
            .ready_at
            .as_ref()
            .map(|r| gpu_idx.iter().map(|&g| r[g]).collect());
        let gpu_items: Vec<&SubdomainFactors> = gpu_idx.iter().map(|&g| &factors[g]).collect();
        let session = AssemblySession::new(
            Backend::cluster_with(Arc::clone(&pool), share_opts).precision(backend.precision),
            *cfg,
        );
        let res = session.assemble(LazyBatch::new(
            &gpu_items,
            |_, f: &&SubdomainFactors| f.chol.factor_cow(),
            |f| &f.bt_perm,
        ));
        for (local, mat) in res.f.into_iter().enumerate() {
            let t = &res.report.subdomains[local];
            let dev = t.device.expect("gpu share runs on the pool");
            let stream = t.stream.unwrap_or(0);
            ops[gpu_idx[local]] = OpSlot::Own(DualOperator::ExplicitGpu {
                f: mat,
                kernels: GpuKernels::new(pool.device(dev).stream(stream)),
            });
        }
        let mut rep = res.report;
        rep.remap_indices(&gpu_idx);
        gpu_report = Some(rep);
    }

    // explicit-CPU share (the spill fail-over for high iteration counts)
    // through a CPU session
    let mut cpu_report: Option<AssemblyReport> = None;
    if !cpu_idx.is_empty() {
        let cpu_items: Vec<&SubdomainFactors> = cpu_idx.iter().map(|&g| &factors[g]).collect();
        let session = AssemblySession::new(Backend::cpu().precision(backend.precision), *cfg);
        let res = session.assemble(LazyBatch::new(
            &cpu_items,
            |_, f: &&SubdomainFactors| f.chol.factor_cow(),
            |f| &f.bt_perm,
        ));
        for (local, mat) in res.f.into_iter().enumerate() {
            ops[cpu_idx[local]] = OpSlot::Own(DualOperator::ExplicitCpu(mat));
        }
        let mut rep = res.report;
        rep.remap_indices(&cpu_idx);
        cpu_report = Some(rep);
    }

    // roll both shares up into the unified report: timings in problem-global
    // order, device sections from the pool share, decisions in the hybrid
    // block
    let predicted_assembly_seconds: f64 = plan
        .choices
        .iter()
        .filter(|c| c.formulation != Formulation::Implicit)
        .map(|c| c.assembly_seconds)
        .sum();
    let mut unified = AssemblyReport::default();
    if let Some(g) = &gpu_report {
        unified.subdomains.extend(g.subdomains.iter().copied());
        unified.devices = g.devices.clone();
        unified.makespan = g.makespan;
        unified.total_seconds += g.total_seconds;
        unified.cache_hits += g.cache_hits;
        unified.cache_misses += g.cache_misses;
    }
    if let Some(c) = &cpu_report {
        unified.subdomains.extend(c.subdomains.iter().copied());
        unified.total_seconds += c.total_seconds;
        unified.cache_hits += c.cache_hits;
        unified.cache_misses += c.cache_misses;
    }
    unified.subdomains.sort_by_key(|t| t.index);
    let realized_gpu = gpu_report.as_ref().map_or(0.0, |g| g.makespan);
    let realized_cpu = cpu_report.as_ref().map_or(0.0, |c| c.total_seconds);
    let arena_high_water = gpu_report.as_ref().map_or(0, |g| g.temp_high_water());
    unified.precision = backend.precision;
    unified.hybrid = Some(HybridSummary {
        formulation: plan.choices.iter().map(|c| c.formulation).collect(),
        spilled: plan.spilled.clone(),
        plan: Some(plan),
        predicted_assembly_seconds,
        realized_gpu_seconds: realized_gpu,
        realized_cpu_seconds: realized_cpu,
        arena_high_water,
        precision: backend.precision,
    });
    (ops, unified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_core::{HybridForce, ScheduleOptions, StreamPolicy};
    use sc_factor::{CholOptions, SparseCholesky};
    use sc_fem::Gluing;
    use sc_gpu::{Device, DeviceSpec};

    fn direct_solution(problem: &HeatProblem) -> Vec<f64> {
        let (k, f) = problem.assemble_global();
        let chol = SparseCholesky::factorize(&k, CholOptions::default()).unwrap();
        chol.solve(&f)
    }

    fn check_solver(problem: &HeatProblem, solver: &FetiSolver<'_>, tol: f64) {
        let sol = solver.solve();
        assert!(
            sol.stats.converged,
            "PCPG did not converge: {:?}",
            sol.stats
        );
        let direct = direct_solution(problem);
        let u = problem.gather_global(&sol.u_locals);
        let scale = direct.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for i in 0..u.len() {
            assert!(
                (u[i] - direct[i]).abs() < tol * scale,
                "dof {i}: feti {} vs direct {}",
                u[i],
                direct[i]
            );
        }
    }

    fn explicit_solver<'p>(
        problem: &'p HeatProblem,
        backend: Backend,
        cfg: ScConfig,
    ) -> FetiSolver<'p> {
        FetiSolverBuilder::new()
            .backend(backend)
            .formulation(FormulationChoice::Explicit)
            .assembly(cfg)
            .build(problem)
    }

    #[test]
    fn implicit_2d_matches_direct() {
        let p = HeatProblem::build_2d(4, (3, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn reused_factors_solve_is_bitwise_identical() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        for formulation in [FormulationChoice::Implicit, FormulationChoice::Explicit] {
            let cold = FetiSolverBuilder::new()
                .formulation(formulation.clone())
                .assembly(ScConfig::optimized(false, false))
                .build(&p);
            let warm = FetiSolverBuilder::new()
                .formulation(formulation)
                .assembly(ScConfig::optimized(false, false))
                .factors(cold.shared_factors())
                .build(&p);
            let sc = cold.solve();
            let sw = warm.solve();
            assert_eq!(sc.lambda, sw.lambda, "dual solutions must match bitwise");
            assert_eq!(
                sc.u_locals, sw.u_locals,
                "primal solutions must match bitwise"
            );
            assert_eq!(sc.stats.iterations, sw.stats.iterations);
        }
    }

    #[test]
    #[should_panic(expected = "must cover every subdomain")]
    fn mismatched_factor_bundle_panics() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let bigger = HeatProblem::build_2d(4, (3, 2), Gluing::Redundant);
        FetiSolverBuilder::new()
            .factors(solver.shared_factors())
            .build(&bigger);
    }

    #[test]
    fn explicit_cpu_2d_matches_direct() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(false, false));
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().expect("explicit mode reports");
        assert_eq!(report.subdomains.len(), p.subdomains.len());
        assert!(report.devices.is_empty());
    }

    #[test]
    fn explicit_gpu_3d_matches_direct() {
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let solver = explicit_solver(
            &p,
            Backend::gpu(Arc::clone(&dev)),
            ScConfig::optimized(true, true),
        );
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "GPU must have been used");
    }

    #[test]
    fn explicit_gpu_scheduled_matches_direct_and_reports_schedule() {
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 4);
        let solver = explicit_solver(&p, Backend::gpu(Arc::clone(&dev)), ScConfig::Auto);
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "GPU must have been used");
        let report = solver.report().expect("explicit mode reports");
        assert_eq!(report.devices.len(), 1);
        assert_eq!(report.devices[0].schedule.len(), p.subdomains.len());
        assert!(report.makespan > 0.0);
        assert!(report.subdomains.iter().all(|t| t.stream.is_some()));
    }

    #[test]
    fn explicit_gpu_cluster_matches_direct_and_reports_partition() {
        let p = HeatProblem::build_3d(2, (2, 2, 2), Gluing::Redundant);
        let pool = DevicePool::uniform(DeviceSpec::a100(), 2, 2);
        let solver = explicit_solver(
            &p,
            Backend::cluster(Arc::clone(&pool)),
            ScConfig::optimized(true, true),
        );
        check_solver(&p, &solver, 1e-6);
        assert!(pool.synchronize_all() > 0.0, "the pool must have been used");

        let report = solver.report().expect("cluster mode reports");
        assert_eq!(report.devices.len(), 2);
        let mut placed: Vec<usize> = report
            .devices
            .iter()
            .flat_map(|d| d.subdomains.iter().copied())
            .collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..p.subdomains.len()).collect::<Vec<_>>());
        assert!(report.makespan > 0.0);
        assert_eq!(report.subdomains.len(), p.subdomains.len());

        // the cluster-assembled F̃ᵢ are bitwise identical to the CPU
        // explicit path (same fixed config ⇒ same kernel sequence)
        let s_cpu = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(true, true));
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.3).sin()).collect();
        let a = solver.apply_f(&lam);
        let b = s_cpu.apply_f(&lam);
        assert_eq!(a, b, "cluster dual operator must match the CPU one bitwise");
    }

    #[test]
    fn solve_rhs_reuses_preprocessing_bitwise() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = explicit_solver(&p, Backend::cpu(), ScConfig::optimized(false, false));
        // the problem's own loads through both entry points: bitwise equal
        let own: Vec<Vec<f64>> = p.subdomains.iter().map(|sd| sd.f.clone()).collect();
        let a = solver.solve();
        let b = solver.solve_rhs(&own);
        assert_eq!(a.lambda, b.lambda, "same loads must solve identically");
        assert_eq!(a.u_locals, b.u_locals);
        // scaled loads scale the solution linearly
        let scaled: Vec<Vec<f64>> = own
            .iter()
            .map(|f| f.iter().map(|v| 3.0 * v).collect())
            .collect();
        let c = solver.solve_rhs(&scaled);
        assert!(c.stats.converged);
        let ua = p.gather_global(&a.u_locals);
        let uc = p.gather_global(&c.u_locals);
        let scale = ua.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        for i in 0..ua.len() {
            assert!(
                (uc[i] - 3.0 * ua[i]).abs() < 1e-6 * scale,
                "dof {i}: {} vs 3×{}",
                uc[i],
                ua[i]
            );
        }
    }

    #[test]
    fn solve_rhs_validates_shapes() {
        let p = HeatProblem::build_2d(3, (2, 1), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solver.solve_rhs(&[Vec::new()]);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("one load vector per subdomain"), "{msg}");
    }

    /// Peak temporary footprints of every subdomain under `cfg`, priced the
    /// same way the hybrid decision layer prices them.
    fn temp_footprints(p: &HeatProblem, cfg: &ScConfig) -> Vec<usize> {
        p.subdomains
            .iter()
            .map(|sd| {
                let f = SubdomainFactors::build(
                    sd,
                    Engine::Simplicial,
                    sc_order::Ordering::NestedDissection,
                );
                let l = f.chol.factor_csc();
                let params = cfg.resolve(true, &l, &f.bt_perm);
                estimate_cost(&DeviceSpec::a100(), &l, &f.bt_perm, &params, 0).temp_bytes
            })
            .collect()
    }

    fn auto_solver<'p>(
        p: &'p HeatProblem,
        pool: Arc<DevicePool>,
        cfg: ScConfig,
        iters: f64,
        allow_cpu: bool,
        force: HybridForce,
    ) -> FetiSolver<'p> {
        FetiSolverBuilder::new()
            .backend(Backend::cluster(pool))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default()
                    .with_iters(iters)
                    .with_allow_explicit_cpu(allow_cpu)
                    .with_force(force),
            ))
            .assembly(cfg)
            .build(p)
    }

    #[test]
    fn hybrid_mixes_formulations_and_matches_direct() {
        // a 3×3 decomposition carries corner, edge, and interior subdomains
        // with different interface sizes: an arena between the extremes
        // splits them into explicitly-admissible and spilled
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, true);
        let temps = temp_footprints(&p, &cfg);
        let (lo, hi) = (*temps.iter().min().unwrap(), *temps.iter().max().unwrap());
        assert!(lo < hi, "workload must have a footprint spread");
        let arena = (lo + hi) / 2;
        let spec = DeviceSpec {
            memory_bytes: 2 * arena, // the arena is half of device memory
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 2, 2);
        // forced explicit + no CPU fail-over: admissible subdomains go to
        // the pool, oversized ones must spill to implicit (never error)
        let solver = auto_solver(
            &p,
            Arc::clone(&pool),
            cfg,
            1e6,
            false,
            HybridForce::AllExplicit,
        );
        check_solver(&p, &solver, 1e-6);

        let report = solver.report().expect("auto mode reports");
        let hybrid = report.hybrid.as_ref().expect("hybrid section present");
        let n_gpu = hybrid.count_of(Formulation::ExplicitGpu);
        let n_impl = hybrid.count_of(Formulation::Implicit);
        assert!(n_gpu > 0, "some subdomains must fit the arena");
        assert!(n_impl > 0, "some subdomains must spill: temps {temps:?}");
        assert_eq!(n_gpu + n_impl, p.subdomains.len());
        assert_eq!(hybrid.spilled.len(), n_impl);
        // spilled = exactly the subdomains whose temporaries exceed the arena
        for (i, &t) in temps.iter().enumerate() {
            assert_eq!(
                hybrid.spilled.contains(&i),
                t > arena,
                "subdomain {i}: {t} B vs arena {arena} B"
            );
        }
        // arena never oversubscribed, and the pool really ran
        assert!(hybrid.arena_high_water <= arena);
        assert!(hybrid.realized_gpu_seconds > 0.0);
        assert!(hybrid.predicted_assembly_seconds > 0.0);
        // every explicitly assembled subdomain carries a device placement
        for t in &report.subdomains {
            assert!(t.device.is_some(), "gpu share timing at {}", t.index);
            assert!(!hybrid.spilled.contains(&t.index));
        }

        // the hybrid operator application must be bitwise identical to the
        // per-subdomain reference: CPU-assembled explicit F̃ᵢ where the plan
        // went explicit (record/replay is bitwise CPU-equal), the shared
        // implicit pipeline where it spilled
        let lam: Vec<f64> = (0..p.n_lambda).map(|i| (i as f64 * 0.37).sin()).collect();
        let got = solver.apply_f(&lam);
        let mut want = vec![0.0; p.n_lambda];
        for (i, sd) in p.subdomains.iter().enumerate() {
            let pl: Vec<f64> = sd.lambda_ids.iter().map(|&gl| lam[gl]).collect();
            let mut ql = vec![0.0; sd.n_lambda()];
            if hybrid.spilled.contains(&i) {
                crate::dualop::apply_implicit(&solver.factors()[i], &pl, &mut ql);
            } else {
                let expl = DualOperator::explicit_cpu(&solver.factors()[i], &cfg);
                expl.apply(&pl, &mut ql);
            }
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                want[gl] += ql[ll];
            }
        }
        assert_eq!(
            got, want,
            "hybrid apply must match the mixed reference bitwise"
        );
    }

    #[test]
    fn hybrid_spill_everything_falls_back_to_implicit() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        // an arena nothing fits into: every subdomain spills, the solver
        // must degrade to the implicit mode instead of erroring
        let spec = DeviceSpec {
            memory_bytes: 16,
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 1, 2);
        let solver = auto_solver(
            &p,
            pool,
            ScConfig::optimized(true, false),
            1e9,
            false,
            HybridForce::Auto,
        );
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        assert_eq!(hybrid.count_of(Formulation::Implicit), p.subdomains.len());
        assert_eq!(hybrid.spilled.len(), p.subdomains.len());
        assert!(report.subdomains.is_empty(), "nothing was assembled");
        assert!(report.devices.is_empty());
        assert_eq!(hybrid.predicted_assembly_seconds, 0.0);
    }

    #[test]
    fn hybrid_iteration_extremes_collapse_at_the_solver_level() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, false);
        let collapse = |iters: f64| {
            let pool = DevicePool::uniform(DeviceSpec::a100(), 1, 2);
            let solver = auto_solver(&p, pool, cfg, iters, true, HybridForce::Auto);
            let report = solver.report().unwrap();
            let h = report.hybrid.as_ref().unwrap();
            (
                h.count_of(Formulation::Implicit),
                h.count_of(Formulation::ExplicitGpu) + h.count_of(Formulation::ExplicitCpu),
            )
        };
        let (impl0, expl0) = collapse(0.0);
        assert_eq!(impl0, p.subdomains.len(), "iters→0 must go all-implicit");
        assert_eq!(expl0, 0);
        let (impl_inf, expl_inf) = collapse(f64::INFINITY);
        assert_eq!(impl_inf, 0, "iters→∞ must go all-explicit");
        assert_eq!(expl_inf, p.subdomains.len());
    }

    #[test]
    fn hybrid_backend_spills_explicitly_to_the_host() {
        // Explicit formulation on the spill-tolerant Hybrid backend: the
        // oversized share is assembled on the host instead of erroring
        let p = HeatProblem::build_2d(6, (3, 3), Gluing::Redundant);
        let cfg = ScConfig::optimized(true, true);
        let temps = temp_footprints(&p, &cfg);
        let (lo, hi) = (*temps.iter().min().unwrap(), *temps.iter().max().unwrap());
        assert!(lo < hi);
        let arena = (lo + hi) / 2;
        let spec = DeviceSpec {
            memory_bytes: 2 * arena,
            ..DeviceSpec::a100()
        };
        let pool = DevicePool::uniform(spec, 2, 2);
        let solver = explicit_solver(&p, Backend::hybrid(pool), cfg);
        check_solver(&p, &solver, 1e-6);
        let report = solver.report().unwrap();
        let hybrid = report.hybrid.as_ref().unwrap();
        assert!(!hybrid.spilled.is_empty(), "some subdomains must spill");
        assert_eq!(
            hybrid.count_of(Formulation::ExplicitCpu),
            hybrid.spilled.len()
        );
        // every subdomain still got an explicit operator
        assert_eq!(report.subdomains.len(), p.subdomains.len());
    }

    #[test]
    fn chain_gluing_also_converges() {
        let p = HeatProblem::build_2d(3, (3, 1), Gluing::Chain);
        let solver = FetiSolverBuilder::new().build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn supernodal_engine_matches() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_engine(Engine::Supernodal))
            .build(&p);
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn lumped_preconditioner_converges_and_matches() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let s1 = FetiSolverBuilder::new().build(&p).solve();
        let s2 = FetiSolverBuilder::new()
            .options(FetiOptions::default().with_preconditioner(Preconditioner::Lumped))
            .build(&p)
            .solve();
        assert!(s1.stats.converged && s2.stats.converged);
        // same solution
        let u1 = p.gather_global(&s1.u_locals);
        let u2 = p.gather_global(&s2.u_locals);
        let scale = u1.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        for i in 0..u1.len() {
            assert!((u1[i] - u2[i]).abs() < 1e-6 * scale);
        }
        // the lumped preconditioner should not need more iterations
        assert!(
            s2.stats.iterations <= s1.stats.iterations + 2,
            "lumped {} vs plain {}",
            s2.stats.iterations,
            s1.stats.iterations
        );
    }

    #[test]
    fn lambda_jump_is_closed() {
        // after convergence the interface jump B u must vanish
        let p = HeatProblem::build_2d(3, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new().build(&p);
        let sol = solver.solve();
        let mut jump = vec![0.0; p.n_lambda];
        for (sd, ul) in p.subdomains.iter().zip(&sol.u_locals) {
            let mut local = vec![0.0; sd.n_lambda()];
            sd.bt.spmv_t(1.0, ul, 0.0, &mut local);
            for (ll, &gl) in sd.lambda_ids.iter().enumerate() {
                jump[gl] += local[ll];
            }
        }
        let max_jump = jump.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_jump < 1e-6, "interface jump {max_jump}");
    }

    #[test]
    fn f32_refined_explicit_matches_direct_at_f64_accuracy() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .backend(Backend::cpu())
            .precision(Precision::f32_refined())
            .formulation(FormulationChoice::Explicit)
            .assembly(ScConfig::optimized(false, false))
            .build(&p);
        assert!(solver.precision().is_f32());
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.converged && !refinement.fell_back);
        assert!(
            refinement.rel_residual <= 1e-10,
            "refined residual {} must reach the f64-level target",
            refinement.rel_residual
        );
        assert!(refinement.outer_iterations >= 1);
        assert!(refinement.inner_iterations >= refinement.outer_iterations);
        // the assembly itself ran at f32 and says so in the report
        let report = solver.report().expect("explicit mode reports");
        assert!(report.precision.is_f32());
    }

    #[test]
    fn f32_refined_implicit_3d_matches_direct() {
        // no explicit assembly: the inner solves run through the demoted
        // factor bundles (f32 triangular solves)
        let p = HeatProblem::build_3d(2, (2, 2, 1), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .precision(Precision::f32_refined())
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.converged && !refinement.fell_back);
        assert!(refinement.rel_residual <= 1e-10);
    }

    #[test]
    fn f32_refined_lambda_tracks_the_f64_solution() {
        let p = HeatProblem::build_2d(5, (3, 2), Gluing::Redundant);
        let s64 = FetiSolverBuilder::new().build(&p).solve();
        let s32 = FetiSolverBuilder::new()
            .precision(Precision::f32_refined())
            .build(&p)
            .solve();
        assert!(
            s64.refinement.is_none(),
            "f64 path must not report refinement"
        );
        assert!(s32.refinement.is_some());
        let scale = s64.lambda.iter().fold(1.0f64, |a, &b| a.max(b.abs()));
        for i in 0..s64.lambda.len() {
            assert!(
                (s32.lambda[i] - s64.lambda[i]).abs() < 1e-7 * scale,
                "λ[{i}]: refined {} vs f64 {}",
                s32.lambda[i],
                s64.lambda[i]
            );
        }
    }

    #[test]
    fn refinement_budget_exhaustion_falls_back_to_f64() {
        // one outer iteration cannot reach 1e-14 from an O(1) residual at
        // inner tolerance 1e-4: the budget runs out and the solver must
        // fall back to the full-f64 PCPG instead of returning a bad λ
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let solver = FetiSolverBuilder::new()
            .precision(Precision::F32Refined {
                refine_tol: 1e-14,
                max_refine: 1,
            })
            .build(&p);
        let sol = solver.solve();
        let refinement = sol.refinement.expect("refined path reports stats");
        assert!(refinement.fell_back, "budget exhaustion must fall back");
        assert_eq!(refinement.outer_iterations, 1);
        assert!(
            sol.stats.converged,
            "the f64 fallback must still converge: {:?}",
            sol.stats
        );
        check_solver(&p, &solver, 1e-6);
    }

    #[test]
    fn auto_on_gpu_backend_uses_a_single_device_pool() {
        let p = HeatProblem::build_2d(4, (2, 2), Gluing::Redundant);
        let dev = Device::new(DeviceSpec::a100(), 2);
        let solver = FetiSolverBuilder::new()
            .backend(Backend::gpu_with(
                Arc::clone(&dev),
                ScheduleOptions::default().with_policy(StreamPolicy::LptLeastLoaded),
            ))
            .formulation(FormulationChoice::Auto(
                HybridPlanOptions::default()
                    .with_force(HybridForce::AllExplicit)
                    .with_allow_explicit_cpu(false),
            ))
            .assembly(ScConfig::optimized(true, false))
            .build(&p);
        check_solver(&p, &solver, 1e-6);
        assert!(dev.synchronize() > 0.0, "the device must have been used");
        let hybrid = solver.report().unwrap().hybrid.as_ref().unwrap().clone();
        assert_eq!(
            hybrid.count_of(Formulation::ExplicitGpu),
            p.subdomains.len(),
            "forced explicit with no CPU fail-over goes all-explicit-GPU"
        );
    }
}
