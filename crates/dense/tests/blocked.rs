//! Property tests pinning the cache-blocked kernels to the scalar reference.
//!
//! The blocked gemm reassociates the reduction over `k` (packed panels +
//! register tile + FMA), so agreement with the scalar kernels is by tolerance
//! scaled to the reduction depth. Where the blocked path preserves the scalar
//! evaluation order exactly — the packed-panel round trip, and the
//! partitioning of RHS columns in `par_trsm_lower_left` — agreement is
//! bitwise.

use proptest::prelude::*;
use sc_dense::{
    gemm_blocked, gemm_scalar, par_syrk_t_blocked, partial_cholesky_blocked,
    partial_cholesky_scalar, syrk_t_blocked, syrk_t_scalar, trsm_lower_left_blocked,
    trsm_lower_left_scalar, Mat, MatOf, PackedA, PackedB, Scalar, Trans,
};

fn mat_strategy(m: usize, n: usize) -> impl Strategy<Value = Mat> {
    proptest::collection::vec(-2.0f64..2.0, m * n).prop_map(move |v| Mat::from_col_major(m, n, v))
}

/// Absolute tolerance for a reassociated dot product of length `k` with
/// entries bounded by 2: `k * 4 * eps * slack`.
fn tol<S: Scalar>(k: usize) -> f64 {
    (k.max(1) as f64) * 4.0 * S::EPSILON.to_f64() * 8.0
}

fn check_gemm<S: Scalar>(a: &MatOf<S>, b: &MatOf<S>, ta: Trans, tb: Trans, k: usize) {
    let (m, n) = (
        match ta {
            Trans::No => a.nrows(),
            Trans::Yes => a.ncols(),
        },
        match tb {
            Trans::No => b.ncols(),
            Trans::Yes => b.nrows(),
        },
    );
    let alpha = S::from_f64(1.5);
    let beta = S::from_f64(-0.5);
    let mut cb = MatOf::<S>::from_fn(m, n, |i, j| S::from_f64((i + 2 * j) as f64 * 0.25));
    let mut cs = cb.clone();
    gemm_blocked(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cb.as_mut());
    gemm_scalar(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cs.as_mut());
    let d = sc_dense::max_abs_diff(cb.as_ref(), cs.as_ref());
    assert!(
        d < tol::<S>(k),
        "{} gemm blocked vs scalar diff {d:.3e} (m={m} n={n} k={k} ta={ta:?} tb={tb:?})",
        S::NAME
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_gemm_matches_scalar_f64(
        m in 1usize..70, n in 1usize..40, k in 1usize..50, seed in 0u64..1_000_000,
    ) {
        let _ = seed;
        for (ta, tb) in [(Trans::No, Trans::No), (Trans::Yes, Trans::No),
                         (Trans::No, Trans::Yes), (Trans::Yes, Trans::Yes)] {
            let (ar, ac) = match ta { Trans::No => (m, k), Trans::Yes => (k, m) };
            let (br, bc) = match tb { Trans::No => (k, n), Trans::Yes => (n, k) };
            let mut s = seed | 1;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let a = Mat::from_fn(ar, ac, |_, _| next());
            let b = Mat::from_fn(br, bc, |_, _| next());
            check_gemm(&a, &b, ta, tb, k);
        }
    }

    #[test]
    fn blocked_gemm_matches_scalar_f32(
        m in 1usize..60, n in 1usize..30, k in 1usize..40, seed in 0u64..1_000_000,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Mat::from_fn(m, k, |_, _| next()).cast::<f32>();
        let b = Mat::from_fn(k, n, |_, _| next()).cast::<f32>();
        check_gemm(&a, &b, Trans::No, Trans::No, k);
    }

    #[test]
    fn packed_panels_round_trip(
        m in 1usize..50, k in 1usize..40, seed in 0u64..1_000_000,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Mat::from_fn(m, k, |_, _| next());
        let pa = PackedA::pack(a.as_ref(), Trans::No, 0, m, 0, k);
        let pb = PackedB::pack(a.as_ref(), Trans::No, 0, m, 0, k);
        for i in 0..m {
            for p in 0..k {
                // packing is pure data movement: bitwise round trip
                prop_assert_eq!(pa.get(i, p), a[(i, p)]);
                prop_assert_eq!(pb.get(i, p), a[(i, p)]);
            }
        }
    }

    #[test]
    fn blocked_trsm_matches_scalar(n in 1usize..90, m in 1usize..20, a in mat_strategy(1, 1)) {
        let _ = a;
        let l = Mat::from_fn(n, n, |i, j| {
            if i == j { 2.0 + (i as f64) * 0.01 }
            else if i > j { ((i * 7 + j * 3) % 11) as f64 * 0.05 - 0.25 }
            else { 0.0 }
        });
        let b0 = Mat::from_fn(n, m, |i, j| ((i * 5 + j) % 13) as f64 * 0.2 - 1.0);
        let mut xb = b0.clone();
        let mut xs = b0.clone();
        trsm_lower_left_blocked(l.as_ref(), xb.as_mut());
        trsm_lower_left_scalar(l.as_ref(), xs.as_mut());
        prop_assert!(sc_dense::max_abs_diff(xb.as_ref(), xs.as_ref()) < tol::<f64>(n));
    }

    #[test]
    fn blocked_syrk_matches_scalar(k in 1usize..40, n in 1usize..90, a in mat_strategy(1, 1)) {
        let _ = a;
        let x = Mat::from_fn(k, n, |i, j| ((i * 3 + j * 5) % 17) as f64 * 0.1 - 0.8);
        let mut cb = Mat::from_fn(n, n, |i, j| (i + j) as f64 * 0.1);
        let mut cs = cb.clone();
        syrk_t_blocked(0.75, x.as_ref(), -1.25, cb.as_mut());
        syrk_t_scalar(0.75, x.as_ref(), -1.25, cs.as_mut());
        prop_assert!(sc_dense::max_abs_diff(cb.as_ref(), cs.as_ref()) < tol::<f64>(k));
    }

    #[test]
    fn par_syrk_bitwise_matches_serial_blocked(
        k in 1usize..50, n in 1usize..200, seed in 0u64..1_000_000,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let x = Mat::from_fn(k, n, |_, _| next());
        let mut cs = Mat::from_fn(n, n, |_, _| next());
        let mut cp = cs.clone();
        syrk_t_blocked(1.25, x.as_ref(), -0.75, cs.as_mut());
        par_syrk_t_blocked(1.25, x.as_ref(), -0.75, cp.as_mut());
        // each entry's microkernel sums do not depend on the column-stripe
        // partition, so the parallel variant is bitwise identical, not just close
        prop_assert_eq!(cs, cp);
    }

    #[test]
    fn blocked_partial_cholesky_matches_scalar(
        n in 2usize..120, pfrac in 0usize..=4, g in mat_strategy(1, 1),
    ) {
        let _ = g;
        let p = (n * pfrac / 4).max(1).min(n);
        let mut s = 0x5eed_u64 | 1;
        let gm = Mat::from_fn(n, n, |_, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = Mat::zeros(n, n);
        syrk_t_scalar(1.0, gm.as_ref(), 0.0, a.as_mut());
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        a.symmetrize_from_lower();
        let mut fb = a.clone();
        let mut fs = a.clone();
        partial_cholesky_blocked(fb.as_mut(), p).unwrap();
        partial_cholesky_scalar(fs.as_mut(), p).unwrap();
        // compare the lower trapezoid + trailing Schur complement only (the
        // strictly-upper triangle is untouched by contract in both)
        let mut d = 0.0f64;
        for j in 0..n {
            for i in j..n {
                d = d.max((fb[(i, j)] - fs[(i, j)]).abs());
            }
        }
        prop_assert!(d < tol::<f64>(n) * (n as f64).sqrt(), "chol diff {d:.3e} n={n} p={p}");
    }
}

/// Deterministic sweep of degenerate and boundary shapes the strategies above
/// may miss: empty operands, single rows/columns, and exact tile multiples.
#[test]
fn blocked_gemm_degenerate_and_boundary_shapes() {
    for &(m, n, k) in &[
        (0usize, 0usize, 0usize),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (16, 8, 1),
        (17, 9, 1),
        (16, 8, 256),
        (32, 16, 257),
        (15, 7, 31),
    ] {
        let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 100) as f64 * 0.01 - 0.5);
        let b = Mat::from_fn(k, n, |i, j| ((i * 13 + j * 7) % 100) as f64 * 0.01 - 0.3);
        check_gemm(&a, &b, Trans::No, Trans::No, k);
    }
}

/// Deterministic values in `[-1, 1)` from a seed.
fn seeded<S: Scalar>(m: usize, n: usize, seed: u64) -> MatOf<S> {
    let mut s = seed | 1;
    MatOf::from_fn(m, n, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        S::from_f64(((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// The blocked SYRK stores the microtiles that cross the diagonal masked to
/// the lower triangle; check every entry against the scalar reference across
/// reduction depths and orders straddling `NB`, and check that the strictly
/// upper triangle is never written.
fn check_syrk_tiles<S: Scalar>() {
    let nb = sc_dense::blocked::NB;
    for k in [0usize, 1, 7, 41, 200] {
        for n in [1, nb - 1, nb, nb + 1, 2 * nb + 5] {
            let a = seeded::<S>(k, n, (k * 1000 + n) as u64);
            let c0 = seeded::<S>(n, n, 77);
            let mut cb = c0.clone();
            let mut cs = c0.clone();
            let (alpha, beta) = (S::from_f64(0.75), S::from_f64(-1.25));
            syrk_t_blocked(alpha, a.as_ref(), beta, cb.as_mut());
            syrk_t_scalar(alpha, a.as_ref(), beta, cs.as_mut());
            let d = sc_dense::max_abs_diff(cb.as_ref(), cs.as_ref());
            assert!(
                d < tol::<S>(k) + 2.0 * S::EPSILON.to_f64(),
                "{} syrk blocked vs scalar diff {d:.3e} (k={k} n={n})",
                S::NAME
            );
            for j in 0..n {
                for i in 0..j {
                    assert_eq!(
                        cb[(i, j)],
                        c0[(i, j)],
                        "upper ({i},{j}) touched, k={k} n={n}"
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_syrk_tiles_match_scalar_f64() {
    check_syrk_tiles::<f64>();
}

#[test]
fn blocked_syrk_tiles_match_scalar_f32() {
    check_syrk_tiles::<f32>();
}

#[test]
fn blocked_syrk_beta_zero_overwrites_nan_lower_only() {
    let nb = sc_dense::blocked::NB;
    for n in [nb - 3, nb, 2 * nb + 7] {
        let a = seeded::<f64>(41, n, n as u64);
        let mut c = Mat::from_fn(n, n, |_, _| f64::NAN);
        let mut cs = Mat::zeros(n, n);
        syrk_t_blocked(1.5, a.as_ref(), 0.0, c.as_mut());
        syrk_t_scalar(1.5, a.as_ref(), 0.0, cs.as_mut());
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    assert!(c[(i, j)].is_finite(), "NaN survived at ({i},{j}), n={n}");
                    assert!((c[(i, j)] - cs[(i, j)]).abs() < tol::<f64>(41));
                } else {
                    assert!(c[(i, j)].is_nan(), "upper ({i},{j}) written, n={n}");
                }
            }
        }
    }
}
