//! Triangular solves with a sparse CSC lower factor.
//!
//! These are the "sparse BLAS" TRSV/TRSM kernels: forward/backward
//! substitution sweeping the factor's columns, against a dense vector or a
//! dense multi-column RHS (in place). They are used directly by the implicit
//! dual operator and form the `sparse factor storage` path of the Schur
//! assembler (paper §3.1).

use crate::csc::CscOf;
use sc_dense::{MatMutOf, Scalar};

/// Solve `L x = b` in place for sparse lower-triangular `L` (diagonal entry
/// must be present in every column).
pub fn csc_lower_solve<S: Scalar>(l: &CscOf<S>, x: &mut [S]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(x.len(), n);
    for j in 0..n {
        let (rows, vals) = l.col(j);
        debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
        let xj = x[j] / vals[0];
        x[j] = xj;
        // sc-analyze: allow(float-eq)
        if xj != S::ZERO {
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                x[i] -= v * xj;
            }
        }
    }
}

/// Solve `Lᵀ x = b` in place for sparse lower-triangular `L`.
pub fn csc_lower_t_solve<S: Scalar>(l: &CscOf<S>, x: &mut [S]) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(x.len(), n);
    for j in (0..n).rev() {
        let (rows, vals) = l.col(j);
        debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
        let mut s = x[j];
        for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
            s -= v * x[i];
        }
        x[j] = s / vals[0];
    }
}

/// RHS columns solved together by one sweep of the factor in
/// [`csc_lower_solve_mat`]: eight `f64` lanes fill one AVX-512 register (or
/// two AVX2 ones); `f32` panels use half the width.
const PANEL: usize = 8;

/// Solve `L X = B` in place for a dense multi-column RHS (sparse TRSM).
///
/// The RHS is processed in panels of [`PANEL`] columns. Each panel is
/// copied into an interleaved row-major scratch buffer (`PANEL` values per
/// row, contiguous), and the factor's columns are swept **once per panel**:
/// every stored entry `(i, v)` of column `j` updates the whole panel row `i`
/// with one vector operation. Each RHS column still sees exactly the
/// per-column sequence of divides and `b[i] -= v * x_j` updates (no FMA
/// contraction, no zero fast path), so the result is bitwise identical to
/// solving the columns one at a time; a ragged last panel runs on
/// zero-padded lanes that are never written back.
pub fn csc_lower_solve_mat<S: Scalar>(l: &CscOf<S>, mut b: MatMutOf<'_, S>) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(b.nrows(), n);
    let m = b.ncols();
    if n == 0 || m == 0 {
        return;
    }
    let mut w = vec![[S::ZERO; PANEL]; n];
    for c0 in (0..m).step_by(PANEL) {
        let pw = PANEL.min(m - c0);
        if pw < PANEL {
            w.fill([S::ZERO; PANEL]);
        }
        for k in 0..pw {
            for (wi, &v) in w.iter_mut().zip(b.col(c0 + k)) {
                wi[k] = v;
            }
        }
        for j in 0..n {
            let (rows, vals) = l.col(j);
            debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
            let d = vals[0];
            let mut xj = w[j];
            for x in &mut xj {
                *x /= d;
            }
            w[j] = xj;
            // no zero-value fast path (see sc-dense TRSM): sparse BLAS
            // kernels traverse the stored factor pattern unconditionally
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                let wi = &mut w[i];
                for (y, &x) in wi.iter_mut().zip(&xj) {
                    *y -= v * x;
                }
            }
        }
        for k in 0..pw {
            for (y, wi) in b.col_mut(c0 + k).iter_mut().zip(&w) {
                *y = wi[k];
            }
        }
    }
}

/// Solve `Lᵀ X = B` in place for a dense multi-column RHS.
pub fn csc_lower_t_solve_mat<S: Scalar>(l: &CscOf<S>, mut b: MatMutOf<'_, S>) {
    let n = l.ncols();
    assert_eq!(l.nrows(), n);
    assert_eq!(b.nrows(), n);
    for c in 0..b.ncols() {
        let bcol = b.col_mut(c);
        for j in (0..n).rev() {
            let (rows, vals) = l.col(j);
            debug_assert_eq!(rows.first(), Some(&j), "missing diagonal in column {j}");
            let mut s = bcol[j];
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                s -= v * bcol[i];
            }
            bcol[j] = s / vals[0];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csc::Csc;
    use sc_dense::Mat;

    fn sparse_lower(n: usize) -> Csc {
        let mut c = Coo::new(n, n);
        for j in 0..n {
            c.push(j, j, 2.0 + (j % 3) as f64);
            if j + 2 < n {
                c.push(j + 2, j, -0.5);
            }
            if j + 5 < n {
                c.push(j + 5, j, 0.25);
            }
        }
        c.to_csc()
    }

    #[test]
    fn vec_solve_matches_dense() {
        let n = 11;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut x = b.clone();
        csc_lower_solve(&l, &mut x);
        let mut xd = b.clone();
        sc_dense::trsv_lower(ld.as_ref(), &mut xd);
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn vec_t_solve_matches_dense() {
        let n = 9;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 4.0).collect();
        let mut x = b.clone();
        csc_lower_t_solve(&l, &mut x);
        let mut xd = b.clone();
        sc_dense::trsv_lower_t(ld.as_ref(), &mut xd);
        for i in 0..n {
            assert!((x[i] - xd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn mat_solves_match_dense() {
        let n = 13;
        let m = 4;
        let l = sparse_lower(n);
        let ld = l.to_dense();
        let b = Mat::from_fn(n, m, |i, j| ((i * 3 + j * 7) % 5) as f64 - 2.0);
        let mut x = b.clone();
        csc_lower_solve_mat(&l, x.as_mut());
        let mut xd = b.clone();
        sc_dense::trsm_lower_left(ld.as_ref(), xd.as_mut());
        assert!(sc_dense::max_abs_diff(x.as_ref(), xd.as_ref()) < 1e-12);

        let mut y = b.clone();
        csc_lower_t_solve_mat(&l, y.as_mut());
        let mut yd = b.clone();
        sc_dense::trsm_lower_left_t(ld.as_ref(), yd.as_mut());
        assert!(sc_dense::max_abs_diff(y.as_ref(), yd.as_ref()) < 1e-12);
    }

    #[test]
    fn solve_preserves_zeros_above_pivot() {
        // stepped-shape invariant on the sparse path too
        let n = 10;
        let l = sparse_lower(n);
        let mut b = Mat::zeros(n, 2);
        for i in 4..n {
            b[(i, 0)] = 1.0;
        }
        for i in 7..n {
            b[(i, 1)] = 2.0;
        }
        csc_lower_solve_mat(&l, b.as_mut());
        for i in 0..4 {
            assert_eq!(b[(i, 0)], 0.0);
        }
        for i in 0..7 {
            assert_eq!(b[(i, 1)], 0.0);
        }
    }

    #[test]
    fn f32_solve_tracks_f64() {
        let n = 10;
        let l = sparse_lower(n);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3) - 1.0).collect();
        let mut x64 = b.clone();
        csc_lower_solve(&l, &mut x64);
        let l32 = l.cast::<f32>();
        let mut x32: Vec<f32> = b.iter().map(|&v| v as f32).collect(); // sc-analyze: allow(precision-discipline)
        csc_lower_solve(&l32, &mut x32);
        for i in 0..n {
            assert!((f64::from(x32[i]) - x64[i]).abs() < 1e-4);
        }
    }
}
