//! Pins the panelled sparse TRSM `csc_lower_solve_mat` to a per-column
//! reference sweep, **bitwise**.
//!
//! The panel kernel solves up to eight RHS columns per sweep of the factor
//! through an interleaved scratch buffer, but every column must still see
//! exactly the per-column sequence of divides and `b[i] -= v * x_j` updates.
//! The cases cover ragged panel widths, strided sub-view RHS blocks with
//! `ld > nrows` (the shape factor splitting passes in), factor columns that
//! hold only their diagonal, and both precisions.

use proptest::prelude::*;
use sc_dense::{MatMutOf, MatOf, Scalar};
use sc_sparse::{csc_lower_solve_mat, Coo, CscOf};

/// RHS widths around the panel width: empty, single column, one short of a
/// panel, exactly one, one over, and two panels plus one.
const WIDTHS: [usize; 6] = [0, 1, 7, 8, 9, 17];

/// The per-column forward substitution the panel kernel must reproduce.
fn reference_solve<S: Scalar>(l: &CscOf<S>, mut b: MatMutOf<'_, S>) {
    if b.nrows() == 0 {
        return;
    }
    for c in 0..b.ncols() {
        let bcol = b.col_mut(c);
        for j in 0..l.ncols() {
            let (rows, vals) = l.col(j);
            let xj = bcol[j] / vals[0];
            bcol[j] = xj;
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                bcol[i] -= v * xj;
            }
        }
    }
}

struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sparse lower factor of order `n`: every column has its diagonal, a
/// `diag_only` fraction of columns hold nothing else, the others get
/// below-diagonal entries with probability `density`.
fn factor(n: usize, density: f64, diag_only: f64, rng: &mut Lcg) -> CscOf<f64> {
    let mut c = Coo::new(n, n);
    for j in 0..n {
        c.push(j, j, 1.5 + rng.unit());
        if rng.unit() < diag_only {
            continue;
        }
        for i in j + 1..n {
            if rng.unit() < density {
                c.push(i, j, rng.unit() - 0.5);
            }
        }
    }
    c.to_csc()
}

/// Solve an `n × width` block placed at row `r0` of a taller host matrix
/// (leading dimension `n + r0 + pad`) with both kernels and compare every
/// host entry bitwise, inside the block and around it.
fn check<S: Scalar>(l: &CscOf<S>, width: usize, r0: usize, pad: usize, rng: &mut Lcg) {
    let n = l.ncols();
    let ld = n + r0 + pad;
    let host = MatOf::<S>::from_fn(ld, width + 1, |_, _| S::from_f64(4.0 * rng.unit() - 2.0));
    let mut got = host.clone();
    let mut want = host.clone();
    csc_lower_solve_mat(l, got.as_mut().into_sub(r0, 0, n, width));
    reference_solve(l, want.as_mut().into_sub(r0, 0, n, width));
    for c in 0..=width {
        for i in 0..ld {
            let (g, w) = (got[(i, c)], want[(i, c)]);
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{} n={n} width={width} r0={r0} pad={pad}: entry ({i},{c}) {g:?} vs {w:?}",
                S::NAME,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn panel_solve_is_bitwise_the_column_sweep(
        n in 1usize..60,
        density in 0.0f64..0.4,
        diag_only in 0.0f64..1.0,
        r0 in 0usize..4,
        pad in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = Lcg(seed | 1);
        let l = factor(n, density, diag_only, &mut rng);
        let l32 = l.cast::<f32>();
        for width in WIDTHS {
            check(&l, width, r0, pad, &mut rng);
            check(&l32, width, r0, pad, &mut rng);
        }
    }
}

/// Degenerate factors the strategy above reaches only by chance: a purely
/// diagonal factor, a dense lower triangle, and the empty matrix.
#[test]
fn panel_solve_edge_factors() {
    let mut rng = Lcg(7);
    for (n, density, diag_only) in [(23, 0.0, 1.0), (31, 1.0, 0.0), (0, 0.5, 0.0)] {
        let l = factor(n, density, diag_only, &mut rng);
        for width in WIDTHS {
            check(&l, width, 2, 3, &mut rng);
            check(&l.cast::<f32>(), width, 0, 0, &mut rng);
        }
    }
}
