//! Thread-count determinism of a full solve: every parallel combinator in the
//! solver writes its results in index order and reduces them serially, so
//! `solve_rhs` under the default thread count must be bitwise the solve that
//! runs entirely on the calling thread.

use sc_core::Backend;
use sc_fem::{Gluing, HeatProblem};
use sc_feti::{FetiSolution, FetiSolverBuilder, FormulationChoice};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise_equal(parallel: &FetiSolution, serial: &FetiSolution) {
    assert_eq!(parallel.stats.iterations, serial.stats.iterations);
    assert_eq!(
        bits(&parallel.lambda),
        bits(&serial.lambda),
        "lambda differs"
    );
    assert_eq!(parallel.u_locals.len(), serial.u_locals.len());
    for (i, (p, s)) in parallel.u_locals.iter().zip(&serial.u_locals).enumerate() {
        assert_eq!(bits(p), bits(s), "u of subdomain {i} differs");
    }
}

#[test]
fn default_threads_solve_is_bitwise_the_single_thread_solve() {
    let problem = HeatProblem::build_2d(16, (4, 4), Gluing::Redundant);
    let loads: Vec<Vec<f64>> = problem.subdomains.iter().map(|sd| sd.f.clone()).collect();
    for formulation in [FormulationChoice::Implicit, FormulationChoice::Explicit] {
        let solver = FetiSolverBuilder::new()
            .backend(Backend::cpu())
            .formulation(formulation)
            .build(&problem);
        let parallel = solver.solve_rhs(&loads);
        let serial = rayon::with_max_threads(1, || solver.solve_rhs(&loads));
        assert!(parallel.stats.converged, "{:?}", parallel.stats);
        assert_bitwise_equal(&parallel, &serial);
    }
}
