//! Total-FETI solver built on the workspace substrates.
//!
//! Implements the method of the paper's §2: subdomain stiffness matrices are
//! regularized by fixing nodes ([`regularize`]), factorized per subdomain,
//! and the dual problem (Eq. 7) is solved by the projected conjugate gradient
//! method ([`pcpg`]) with the dual operator `F = B K⁺ Bᵀ` applied either
//! implicitly (sparse solves per iteration) or explicitly (dense `F̃ᵢ`
//! assembled up front by `sc-core`, on the CPU or the simulated GPU).
//!
//! [`approaches`] reproduces the paper's Table 2: the eight dual-operator
//! strategies compared in Figures 9 and 10, with their preprocessing
//! pipelines and per-iteration apply costs instrumented for the benches.

pub mod approaches;
pub mod dualop;
pub mod pcpg;
pub mod refine;
pub mod regularize;
pub mod solver;

pub use approaches::{
    measure_apply_cost, preprocess_approach, ApplyCost, DualOpApproach, PreparedDualOp,
    PreprocessReport,
};
pub use dualop::{
    apply_implicit, apply_implicit_with, BoundaryMap, BoundaryMapOf, DualOperator, SubdomainFactors,
};
pub use pcpg::{
    pcpg_preconditioned, pcpg_preconditioned_of, PcpgBreakdown, PcpgResult, PcpgResultOf, PcpgStats,
};
pub use refine::{DemotedFactors, RefinementStats};
pub use regularize::regularize_fixing_node;
pub use solver::{
    FetiOptions, FetiSolution, FetiSolver, FetiSolverBuilder, FormulationChoice, Preconditioner,
};
