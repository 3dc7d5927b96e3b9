//! High-level sparse Cholesky solver: ordering + symbolic + numeric + solve,
//! with factor extraction. This is the per-subdomain "sparse linear solver
//! library" interface the FETI pipeline calls in its initialization /
//! preprocessing stages (paper §2.2).

use crate::simplicial::{simplicial_factorize, FactorError};
use crate::supernodal::{supernodal_factorize, SupernodalFactorOf, SupernodalSymbolic};
use crate::symbolic::{analyze, Symbolic};
use sc_dense::Scalar;
use sc_order::Ordering;
use sc_sparse::{CscOf, Perm};
use std::borrow::Cow;

/// Numeric engine selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Up-looking simplicial factorization (CHOLMOD analog; extractable).
    Simplicial,
    /// Multifrontal supernodal factorization (PARDISO analog; faster in 3D).
    Supernodal,
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct CholOptions {
    /// Fill-reducing ordering (default: nested dissection, the METIS
    /// stand-in used throughout the paper).
    pub ordering: Ordering,
    /// Numeric engine.
    pub engine: Engine,
}

impl Default for CholOptions {
    fn default() -> Self {
        CholOptions {
            ordering: Ordering::NestedDissection,
            engine: Engine::Simplicial,
        }
    }
}

enum NumericFactor<S> {
    Simplicial(CscOf<S>),
    Supernodal(SupernodalFactorOf<S>),
}

/// A factorized SPD sparse matrix `A = Pᵀ L Lᵀ P`, generic over the working
/// precision. The [`SparseCholesky`] alias pins `f64`.
pub struct SparseCholeskyOf<S = f64> {
    perm: Perm,
    sym: Symbolic,
    ssym: Option<SupernodalSymbolic>,
    numeric: NumericFactor<S>,
    engine: Engine,
}

/// `f64` sparse Cholesky (the historical default working precision).
pub type SparseCholesky = SparseCholeskyOf<f64>;

impl<S: Scalar> SparseCholeskyOf<S> {
    /// Analyze and factorize `a` (full-symmetric CSC) in one call.
    pub fn factorize(a: &CscOf<S>, opts: CholOptions) -> Result<Self, FactorError> {
        let perm = opts.ordering.compute(a);
        Self::factorize_with_perm(a, perm, opts.engine)
    }

    /// Factorize with an externally computed permutation (the FETI pipeline
    /// computes orderings once in its initialization stage and reuses them).
    pub fn factorize_with_perm(
        a: &CscOf<S>,
        perm: Perm,
        engine: Engine,
    ) -> Result<Self, FactorError> {
        let ap = a.sym_perm(&perm);
        let sym = analyze(&ap);
        let (ssym, numeric) = match engine {
            Engine::Simplicial => (
                None,
                NumericFactor::Simplicial(simplicial_factorize(&ap, &sym)?),
            ),
            Engine::Supernodal => {
                let ssym = SupernodalSymbolic::from_symbolic(&sym);
                let f = supernodal_factorize(&ap, &sym, &ssym)?;
                (Some(ssym), NumericFactor::Supernodal(f))
            }
        };
        Ok(SparseCholeskyOf {
            perm,
            sym,
            ssym,
            numeric,
            engine,
        })
    }

    /// Re-run the numeric factorization for a matrix with the **same
    /// pattern** but new values (the multi-step scenario of §2.2: symbolic
    /// factorization is skipped).
    pub fn refactorize(&mut self, a: &CscOf<S>) -> Result<(), FactorError> {
        let ap = a.sym_perm(&self.perm);
        self.numeric = match self.engine {
            Engine::Simplicial => NumericFactor::Simplicial(simplicial_factorize(&ap, &self.sym)?),
            Engine::Supernodal => NumericFactor::Supernodal(supernodal_factorize(
                &ap,
                &self.sym,
                self.ssym.as_ref().expect("supernodal symbolic"),
            )?),
        };
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.sym.n
    }

    /// The fill-reducing permutation in use.
    pub fn perm(&self) -> &Perm {
        &self.perm
    }

    /// Symbolic analysis (elimination tree + factor pattern).
    pub fn symbolic(&self) -> &Symbolic {
        &self.sym
    }

    /// Extract the factor `L` as CSC (in permuted index space). For the
    /// supernodal engine this materializes the panels.
    pub fn factor_csc(&self) -> CscOf<S> {
        match &self.numeric {
            NumericFactor::Simplicial(l) => l.clone(),
            NumericFactor::Supernodal(f) => f.to_csc(),
        }
    }

    /// The factor `L` as CSC (in permuted index space) without copying when
    /// possible: borrowed for the simplicial engine, materialized from the
    /// panels for the supernodal one.
    pub fn factor_cow(&self) -> Cow<'_, CscOf<S>> {
        match &self.numeric {
            NumericFactor::Simplicial(l) => Cow::Borrowed(l),
            NumericFactor::Supernodal(f) => Cow::Owned(f.to_csc()),
        }
    }

    /// Solve `A x = b`; `b` is in original (unpermuted) index space.
    pub fn solve(&self, b: &[S]) -> Vec<S> {
        let mut x = self.perm.apply(b); // x_perm[new] = b[old]
        self.solve_permuted_in_place(&mut x);
        self.perm.apply_inverse(&x)
    }

    /// Solve in permuted index space, in place (both triangular solves).
    pub fn solve_permuted_in_place(&self, x: &mut [S]) {
        match &self.numeric {
            NumericFactor::Simplicial(l) => {
                sc_sparse::csc_lower_solve(l, x);
                sc_sparse::csc_lower_t_solve(l, x);
            }
            NumericFactor::Supernodal(f) => {
                f.solve_fwd(x);
                f.solve_bwd(x);
            }
        }
    }

    /// Forward solve only (`L y = P b`), in permuted space, in place.
    pub fn solve_fwd_permuted(&self, x: &mut [S]) {
        match &self.numeric {
            NumericFactor::Simplicial(l) => sc_sparse::csc_lower_solve(l, x),
            NumericFactor::Supernodal(f) => f.solve_fwd(x),
        }
    }

    /// Backward solve only (`Lᵀ x = y`), in permuted space, in place.
    pub fn solve_bwd_permuted(&self, x: &mut [S]) {
        match &self.numeric {
            NumericFactor::Simplicial(l) => sc_sparse::csc_lower_t_solve(l, x),
            NumericFactor::Supernodal(f) => f.solve_bwd(x),
        }
    }

    /// Factor non-zero count.
    pub fn factor_nnz(&self) -> usize {
        match &self.numeric {
            NumericFactor::Simplicial(l) => l.nnz(),
            NumericFactor::Supernodal(f) => f.nnz(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_sparse::{Coo, Csc};

    fn laplace_2d(nx: usize) -> Csc {
        let n = nx * nx;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut c = Coo::new(n, n);
        for y in 0..nx {
            for x in 0..nx {
                let v = idx(x, y);
                c.push(v, v, 4.01);
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
        c.to_csc()
    }

    fn residual_inf(a: &Csc, x: &[f64], b: &[f64]) -> f64 {
        let mut r = vec![0.0; b.len()];
        a.spmv(1.0, x, 0.0, &mut r);
        r.iter()
            .zip(b)
            .map(|(ri, bi)| (ri - bi).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn both_engines_solve_identically() {
        let a = laplace_2d(8);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let f = SparseCholesky::factorize(
                &a,
                CholOptions {
                    ordering: Ordering::NestedDissection,
                    engine,
                },
            )
            .unwrap();
            let x = f.solve(&b);
            assert!(residual_inf(&a, &x, &b) < 1e-9, "{engine:?}");
        }
    }

    #[test]
    fn all_orderings_give_same_solution() {
        let a = laplace_2d(6);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut solutions = Vec::new();
        for ordering in [
            Ordering::Natural,
            Ordering::Rcm,
            Ordering::MinimumDegree,
            Ordering::NestedDissection,
        ] {
            let f = SparseCholesky::factorize(
                &a,
                CholOptions {
                    ordering,
                    engine: Engine::Simplicial,
                },
            )
            .unwrap();
            solutions.push(f.solve(&b));
        }
        for s in &solutions[1..] {
            for i in 0..n {
                assert!((s[i] - solutions[0][i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn nested_dissection_reduces_fill_vs_natural() {
        let a = laplace_2d(16);
        let f_nat = SparseCholesky::factorize(
            &a,
            CholOptions {
                ordering: Ordering::Natural,
                engine: Engine::Simplicial,
            },
        )
        .unwrap();
        let f_nd = SparseCholesky::factorize(
            &a,
            CholOptions {
                ordering: Ordering::NestedDissection,
                engine: Engine::Simplicial,
            },
        )
        .unwrap();
        assert!(
            (f_nd.factor_nnz() as f64) < 0.9 * f_nat.factor_nnz() as f64,
            "ND fill {} vs natural {}",
            f_nd.factor_nnz(),
            f_nat.factor_nnz()
        );
    }

    #[test]
    fn refactorize_reuses_symbolic() {
        let a = laplace_2d(6);
        let n = a.ncols();
        let mut f = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= 3.0;
        }
        f.refactorize(&a2).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1).collect();
        let x = f.solve(&b);
        assert!(residual_inf(&a2, &x, &b) < 1e-9);
    }

    #[test]
    fn f32_solver_tracks_f64_solution() {
        let a = laplace_2d(8);
        let n = a.ncols();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let f64s = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let x64 = f64s.solve(&b);
        let a32 = a.cast::<f32>();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect(); // sc-analyze: allow(precision-discipline)
        for engine in [Engine::Simplicial, Engine::Supernodal] {
            let f32s = SparseCholeskyOf::<f32>::factorize(
                &a32,
                CholOptions {
                    ordering: Ordering::NestedDissection,
                    engine,
                },
            )
            .unwrap();
            let x32 = f32s.solve(&b32);
            for i in 0..n {
                assert!(
                    (f64::from(x32[i]) - x64[i]).abs() < 1e-3,
                    "{engine:?} drift at {i}"
                );
            }
        }
    }

    #[test]
    fn extracted_factor_reconstructs_permuted_matrix() {
        let a = laplace_2d(5);
        let f = SparseCholesky::factorize(&a, CholOptions::default()).unwrap();
        let l = f.factor_csc();
        let ap = a.sym_perm(f.perm());
        // ‖L Lᵀ − P A Pᵀ‖
        let ld = l.to_dense();
        let apd = ap.to_dense();
        let n = a.ncols();
        for i in 0..n {
            for j in 0..=i {
                let mut s = 0.0;
                for k in 0..=j {
                    s += ld[(i, k)] * ld[(j, k)];
                }
                assert!((s - apd[(i, j)]).abs() < 1e-10);
            }
        }
    }
}
