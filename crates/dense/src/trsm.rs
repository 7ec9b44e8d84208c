//! Dense triangular solves with multiple right-hand sides (BLAS
//! `dtrsm` variants), the off-diagonal panel kernels of the supernodal
//! sparse factorizations: after the diagonal block of a supernode is
//! factored, the sub-diagonal panel `B` is overwritten with a
//! triangular-inverse product ("the off-diagonal segments of the
//! blocks must be updated using a set of dense triangular solves",
//! §2.3.2).
//!
//! Three variants, one per supernodal use:
//!
//! * [`trsm_right_lower_trans`] — `B := B * L^{-T}` (Cholesky panels,
//!   `L` from [`crate::potrf`]);
//! * [`trsm_right_upper`] — `B := B * U^{-1}` (LU panels, `U` from
//!   [`crate::getrf`]: the sub-diagonal rows of an LU panel become
//!   columns of the `L` factor after dividing out the panel's `U`);
//! * [`trsm_right_lower_trans_unit`] — `B := B * L^{-T}` with an
//!   **implicit unit diagonal** (LU source-panel solves: the unit-lower
//!   diagonal block produced by [`crate::getrf`] stores `U` values on
//!   the diagonal, so the kernel must read only the strict lower part).
//!
//! All three solve `X·T = B` column by column,
//! `x_j = (b_j − Σ_{k<j} x_k·t(j, k)) / t(j, j)`, and differ only in
//! where `t(j, k)` lives and whether the diagonal is read, so they are
//! **one blocked body**, const-generic over the triangle kind. A strip
//! of 8 rows of `B` (4, then 1, at the bottom edge) sweeps the columns
//! in blocks of 4: the block's 8 × 4 entries sit in registers — lanes
//! along the rows, which column-major storage makes contiguous — while
//! every earlier column of the strip is subtracted from them, the 4 × 4
//! triangle on the diagonal is solved in those same registers, and the
//! tile is stored once. Per entry the products are still subtracted in
//! ascending `k` and the reciprocal of the diagonal multiplied in last,
//! exactly the order of the column-at-a-time loop (kept under
//! `#[cfg(test)]` as the reference), so tile shapes are pure
//! scheduling. The body is instantiated portable and `avx2,fma`; the
//! choice is [`crate::isa::detect`]'s, shared with
//! [`crate::panel_update_sub`].
//!
//! Unlike the reference loop, **an exactly-zero `t(j, k)` is not
//! skipped**: `0 · Inf` and `0 · NaN` are `NaN`, as in
//! [`crate::panel_update_sub`]. Finite inputs are unaffected.
//!
//! All buffers are column-major with explicit leading dimensions, and
//! every kernel tolerates padded strides (`lda`/`ldb` larger than the
//! live row count) — the supernodal trapezoid case, where the leading
//! dimension is the panel's total row count. Padding is never read or
//! written.

use crate::isa::{self, Isa};

/// `B := B * L^{-T}` where `L` is the leading `n x n` lower triangle of
/// a column-major buffer (`lda`), and `B` is `m x n` column-major
/// (`ldb`). Equivalent to `dtrsm(side=R, uplo=L, trans=T, diag=N)`.
pub fn trsm_right_lower_trans(
    m: usize,
    n: usize,
    l: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    trsm::<false, false>(m, n, l, lda, b, ldb);
}

/// `B := B * U^{-1}` where `U` is the leading `n x n` upper triangle of
/// a column-major buffer (`lda`), and `B` is `m x n` column-major
/// (`ldb`). Equivalent to `dtrsm(side=R, uplo=U, trans=N, diag=N)`.
///
/// This is the LU panel solve: after [`crate::getrf::getrf_nopiv`]
/// factors a supernode's diagonal block, the sub-diagonal rows of the
/// trapezoid become `L` columns via `L_sub = A_sub * U^{-1}`. A zero
/// diagonal in `U` produces IEEE infinities (and `NaN` where the
/// numerator is zero too) rather than a panic, so callers that detect
/// zero pivots upstream can keep streaming.
pub fn trsm_right_upper(m: usize, n: usize, u: &[f64], lda: usize, b: &mut [f64], ldb: usize) {
    trsm::<true, false>(m, n, u, lda, b, ldb);
}

/// `B := B * L^{-T}` where `L` is **unit** lower triangular: only the
/// strict lower part of the leading `n x n` block is read, so the
/// buffer's diagonal may hold anything (in the LU supernodal use it
/// holds `U` values, [`crate::getrf`] packing both factors into one
/// trapezoid). Equivalent to `dtrsm(side=R, uplo=L, trans=T, diag=U)`.
///
/// Solving on the right against `L^T` is how the supernodal LU plan
/// applies a source panel's *internal* updates to a whole block of
/// accumulator rows at once: with the block stored transposed (targets
/// x source-columns), `Bt := Bt * L^{-T}` is exactly `B := L^{-1} B` on
/// the untransposed data.
pub fn trsm_right_lower_trans_unit(
    m: usize,
    n: usize,
    l: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    trsm::<false, true>(m, n, l, lda, b, ldb);
}

/// Shape checks, then the instantiation [`isa::detect`] picks.
/// `UPPER`: `t(j, k)` is `U[k, j]` (else `L[j, k]`); `UNIT`: the
/// diagonal is implicit and never read.
fn trsm<const UPPER: bool, const UNIT: bool>(
    m: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    assert!(lda >= n, "lda too small");
    assert!(ldb >= m, "ldb too small");
    if n > 0 {
        assert!(t.len() >= lda * (n - 1) + n, "triangle buffer too small");
        assert!(m == 0 || b.len() >= ldb * (n - 1) + m, "B buffer too small");
    }
    match isa::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is returned only when the executing CPU
        // reports both features `trsm_avx2_fma` is compiled for.
        Isa::Avx2Fma => unsafe { trsm_avx2_fma::<UPPER, UNIT>(m, n, t, lda, b, ldb) },
        Isa::Portable => trsm_portable::<UPPER, UNIT>(m, n, t, lda, b, ldb),
    }
}

/// The portable instantiation: separate multiply and subtract, whatever
/// vector width the build target guarantees. Bitwise the reference
/// loop on finite data. Public (and hidden) only so the kernel table of
/// `ablation_thresholds` can time it beside the dispatched entry
/// points; it performs no shape checks beyond slice bounds.
#[doc(hidden)]
pub fn trsm_portable<const UPPER: bool, const UNIT: bool>(
    m: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    trsm_body::<UPPER, UNIT, false>(m, n, t, lda, b, ldb);
}

/// The `avx2,fma` instantiation of the same body: an 8-row strip is two
/// 4-wide vectors per column, one fused multiply-subtract per product.
///
/// # Safety
/// The executing CPU must support the `avx2` and `fma` features. The
/// only caller outside tests is [`trsm`], behind
/// [`isa::detect`]` == `[`Isa::Avx2Fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn trsm_avx2_fma<const UPPER: bool, const UNIT: bool>(
    m: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    trsm_body::<UPPER, UNIT, true>(m, n, t, lda, b, ldb);
}

/// `t(j, k)` for `k <= j`: the coefficient of `x_k` in column `j`'s
/// equation (`k < j`), or the diagonal (`k == j`).
#[inline(always)]
fn coef<const UPPER: bool>(t: &[f64], lda: usize, j: usize, k: usize) -> f64 {
    if UPPER {
        t[j * lda + k]
    } else {
        t[k * lda + j]
    }
}

/// `acc -= c · x`, lane by lane.
#[inline(always)]
fn sub_scaled<const R: usize, const FMA: bool>(acc: &mut [f64; R], c: f64, x: &[f64; R]) {
    for (a, &xv) in acc.iter_mut().zip(x) {
        *a = if FMA {
            (-c).mul_add(xv, *a)
        } else {
            *a - c * xv
        };
    }
}

/// One register tile: rows `i..i + R` of the `NB` columns from `j0` on.
/// Loaded once, reduced by every earlier column of the strip, solved
/// against the `NB × NB` triangle on the diagonal, stored once.
#[inline(always)]
fn tile<const R: usize, const NB: usize, const UPPER: bool, const UNIT: bool, const FMA: bool>(
    i: usize,
    j0: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    let mut acc = [[0.0f64; R]; NB];
    for (jj, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&b[(j0 + jj) * ldb + i..][..R]);
    }
    for k in 0..j0 {
        let xk: &[f64; R] = b[k * ldb + i..][..R].try_into().expect("tile has R rows");
        for (jj, a) in acc.iter_mut().enumerate() {
            sub_scaled::<R, FMA>(a, coef::<UPPER>(t, lda, j0 + jj, k), xk);
        }
    }
    for jj in 0..NB {
        let (solved, rest) = acc.split_at_mut(jj);
        let a = &mut rest[0];
        for (kk, xk) in solved.iter().enumerate() {
            sub_scaled::<R, FMA>(a, coef::<UPPER>(t, lda, j0 + jj, j0 + kk), xk);
        }
        if !UNIT {
            let inv = 1.0 / coef::<UPPER>(t, lda, j0 + jj, j0 + jj);
            for v in a.iter_mut() {
                *v *= inv;
            }
        }
    }
    for (jj, a) in acc.iter().enumerate() {
        b[(j0 + jj) * ldb + i..][..R].copy_from_slice(a);
    }
}

/// All `n` columns of the `R`-row strip at row `i`, in blocks of 4
/// columns and one narrower block at the right edge.
#[inline(always)]
fn strip<const R: usize, const UPPER: bool, const UNIT: bool, const FMA: bool>(
    i: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    let mut j0 = 0;
    while j0 + 4 <= n {
        tile::<R, 4, UPPER, UNIT, FMA>(i, j0, t, lda, b, ldb);
        j0 += 4;
    }
    match n - j0 {
        3 => tile::<R, 3, UPPER, UNIT, FMA>(i, j0, t, lda, b, ldb),
        2 => tile::<R, 2, UPPER, UNIT, FMA>(i, j0, t, lda, b, ldb),
        1 => tile::<R, 1, UPPER, UNIT, FMA>(i, j0, t, lda, b, ldb),
        _ => {}
    }
}

/// The shared body: strips of 8 rows, then 4, then single rows. Rows of
/// `B` are independent right-hand sides, so a strip runs the whole
/// solve on its own and stays in L1 while it does.
#[inline(always)]
fn trsm_body<const UPPER: bool, const UNIT: bool, const FMA: bool>(
    m: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    let mut i = 0;
    while i + 8 <= m {
        strip::<8, UPPER, UNIT, FMA>(i, n, t, lda, b, ldb);
        i += 8;
    }
    if i + 4 <= m {
        strip::<4, UPPER, UNIT, FMA>(i, n, t, lda, b, ldb);
        i += 4;
    }
    while i < m {
        strip::<1, UPPER, UNIT, FMA>(i, n, t, lda, b, ldb);
        i += 1;
    }
}

/// The column-at-a-time loop the blocked body replaced, kept as the
/// reference its tests compare against: per column `j`, one axpy per
/// earlier column `k` (skipped when `t(j, k)` is exactly zero), then the
/// reciprocal of the diagonal.
#[cfg(test)]
fn trsm_reference<const UPPER: bool, const UNIT: bool>(
    m: usize,
    n: usize,
    t: &[f64],
    lda: usize,
    b: &mut [f64],
    ldb: usize,
) {
    for j in 0..n {
        for k in 0..j {
            let c = coef::<UPPER>(t, lda, j, k);
            if c == 0.0 {
                continue;
            }
            let (head, tail) = b.split_at_mut(j * ldb);
            let xk = &head[k * ldb..k * ldb + m];
            for (dst, &src) in tail[..m].iter_mut().zip(xk) {
                *dst -= c * src;
            }
        }
        if !UNIT {
            let inv = 1.0 / coef::<UPPER>(t, lda, j, j);
            for v in &mut b[j * ldb..j * ldb + m] {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::{lcg_fill as fill, DenseMat};
    use crate::potrf::potrf_lower;

    type Kernel = fn(usize, usize, &[f64], usize, &mut [f64], usize);

    /// A well-conditioned `n × n` triangle of the given kind inside an
    /// `lda`-strided buffer. Everything the kernel must not read — the
    /// other triangle, the stride padding, and the diagonal of a unit
    /// triangle — is `NaN`, which no output could hide.
    fn triangle(upper: bool, unit: bool, n: usize, lda: usize, seed: u64) -> Vec<f64> {
        let vals = fill(n * n, seed);
        let mut t = vec![f64::NAN; if n == 0 { 0 } else { lda * (n - 1) + n }];
        for j in 0..n {
            for k in 0..=j {
                let at = if upper { j * lda + k } else { k * lda + j };
                if k < j {
                    t[at] = 0.1 * vals[j * n + k];
                } else if !unit {
                    t[at] = 2.0 + vals[j * n + j].abs();
                }
            }
        }
        t
    }

    const PAD: f64 = -5.0;

    /// `kernel` against `reference` for every `m, n ∈ 0..=40` (every
    /// strip and block remainder, empty shapes included) with padded
    /// `lda` / `ldb`: equal to `tol` relative (bitwise when `tol == 0`),
    /// stride padding of `B` untouched.
    fn check_all_shapes(upper: bool, unit: bool, kernel: Kernel, reference: Kernel, tol: f64) {
        for m in 0..=40usize {
            for n in 0..=40usize {
                let lda = n + m % 3;
                let ldb = m + n % 4;
                let t = triangle(upper, unit, n, lda, (m * 41 + n) as u64);
                let live = fill(m * n, 7 + m as u64);
                let mut b0 = vec![PAD; if n == 0 { 0 } else { ldb * (n - 1) + m }];
                for j in 0..n {
                    b0[j * ldb..j * ldb + m].copy_from_slice(&live[j * m..(j + 1) * m]);
                }
                let (mut got, mut want) = (b0.clone(), b0.clone());
                kernel(m, n, &t, lda, &mut got, ldb);
                reference(m, n, &t, lda, &mut want, ldb);
                for (at, (g, e)) in got.iter().zip(&want).enumerate() {
                    let what = format!("upper={upper} unit={unit} m={m} n={n} entry {at}");
                    if at % ldb.max(1) >= m {
                        assert_eq!(g.to_bits(), PAD.to_bits(), "{what}: padding clobbered");
                    } else if tol == 0.0 {
                        assert_eq!(g.to_bits(), e.to_bits(), "{what}: {g} vs {e}");
                    } else {
                        assert!((g - e).abs() <= tol * (1.0 + e.abs()), "{what}: {g} vs {e}");
                    }
                }
            }
        }
    }

    /// One `check_all_shapes` per triangle kind: generic function
    /// `$f` against generic function `$reference`.
    macro_rules! check_instantiation {
        ($f:ident, $reference:ident, $tol:expr) => {
            check_all_shapes(
                false,
                false,
                $f::<false, false>,
                $reference::<false, false>,
                $tol,
            );
            check_all_shapes(
                true,
                false,
                $f::<true, false>,
                $reference::<true, false>,
                $tol,
            );
            check_all_shapes(
                false,
                true,
                $f::<false, true>,
                $reference::<false, true>,
                $tol,
            );
        };
    }

    #[test]
    fn portable_is_bitwise_the_unblocked_reference_for_every_shape() {
        // Same products, same ascending-k order, same reciprocal: the
        // tiling is pure scheduling.
        check_instantiation!(trsm_portable, trsm_reference, 0.0);
    }

    #[test]
    fn dispatched_matches_the_unblocked_reference_for_every_shape() {
        check_instantiation!(trsm, trsm_reference, 1e-13);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_fma_matches_reference_and_portable_for_every_shape() {
        if isa::detect() != Isa::Avx2Fma {
            eprintln!("skipped: host lacks avx2/fma");
            return;
        }
        fn avx2<const UPPER: bool, const UNIT: bool>(
            m: usize,
            n: usize,
            t: &[f64],
            lda: usize,
            b: &mut [f64],
            ldb: usize,
        ) {
            // SAFETY: `isa::detect` reported both features above.
            unsafe { trsm_avx2_fma::<UPPER, UNIT>(m, n, t, lda, b, ldb) }
        }
        check_instantiation!(avx2, trsm_reference, 1e-13);
        check_instantiation!(avx2, trsm_portable, 1e-13);
    }

    #[test]
    fn zero_diagonal_in_upper_yields_infinities_not_a_panic() {
        // U = [[2, 1], [0, 0]]: column 1 divides by zero.
        let (m, n) = (9usize, 2usize);
        let u = vec![2.0, f64::NAN, 1.0, 0.0];
        let mut b = fill(m * n, 3);
        trsm_right_upper(m, n, &u, n, &mut b, m);
        assert!(b[..m].iter().all(|v| v.is_finite()));
        assert!(b[m..].iter().all(|v| v.is_infinite()), "{:?}", &b[m..]);
    }

    #[test]
    fn an_exactly_zero_coefficient_is_not_skipped() {
        // x_0 = Inf and t(1, 0) = 0: the blocked kernels compute
        // b_1 - 0·Inf = NaN like `panel_update_sub`; the reference loop
        // skips the product and keeps b_1.
        for (upper, unit, kernel, reference) in [
            (
                false,
                false,
                trsm_right_lower_trans as Kernel,
                trsm_reference::<false, false> as Kernel,
            ),
            (true, false, trsm_right_upper, trsm_reference::<true, false>),
            (
                false,
                true,
                trsm_right_lower_trans_unit,
                trsm_reference::<false, true>,
            ),
        ] {
            let mut t = triangle(upper, unit, 2, 2, 5);
            t[if upper { 2 } else { 1 }] = 0.0;
            let b0 = vec![f64::INFINITY, 1.0, 3.0, 4.0];
            let (mut got, mut want) = (b0.clone(), b0);
            kernel(2, 2, &t, 2, &mut got, 2);
            reference(2, 2, &t, 2, &mut want, 2);
            assert!(
                got[2].is_nan() && want[2].is_finite(),
                "upper={upper} unit={unit}"
            );
            assert_eq!(
                got[3].to_bits(),
                want[3].to_bits(),
                "finite rows unaffected"
            );
        }
    }

    /// Multiply `X * L^T` back and compare with the original `B`.
    fn check_roundtrip(m: usize, n: usize, seed: u64) {
        let spd = DenseMat::random_spd(n, seed);
        let mut l = spd.as_slice().to_vec();
        potrf_lower(n, &mut l, n).unwrap();
        // Random B.
        let mut b = DenseMat::zeros(m, n);
        let mut s = seed.wrapping_add(99);
        for j in 0..n {
            for i in 0..m {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                b.set(i, j, ((s >> 40) as f64) / 1e6 - 4.0);
            }
        }
        let mut x = b.clone();
        trsm_right_lower_trans(m, n, &l, n, x.as_mut_slice(), m);
        // Reconstruct: B' = X L^T.
        let mut lmat = DenseMat::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                lmat.set(i, j, l[j * n + i]);
            }
        }
        let back = x.matmul(&lmat.transpose());
        assert!(
            back.max_abs_diff(&b) < 1e-9,
            "m={m}, n={n}: {}",
            back.max_abs_diff(&b)
        );
    }

    #[test]
    fn roundtrips_various_shapes() {
        for &(m, n) in &[(1usize, 1usize), (4, 1), (1, 4), (5, 3), (8, 8), (17, 6)] {
            check_roundtrip(m, n, (m * 31 + n) as u64);
        }
    }

    #[test]
    fn identity_l_is_noop() {
        let n = 3;
        let m = 4;
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            l[i * n + i] = 1.0;
        }
        let orig: Vec<f64> = (0..m * n).map(|k| k as f64).collect();
        let mut b = orig.clone();
        trsm_right_lower_trans(m, n, &l, n, &mut b, m);
        assert_eq!(b, orig);
    }

    #[test]
    fn diagonal_l_scales_columns() {
        // L = diag(2, 4): X = B * L^{-T} scales column j by 1/L[j,j].
        let l = vec![2.0, 0.0, 0.0, 4.0];
        let mut b = vec![2.0, 4.0, 8.0, 16.0]; // 2x2
        trsm_right_lower_trans(2, 2, &l, 2, &mut b, 2);
        assert_eq!(b, vec![1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn respects_ldb_padding() {
        let n = 2;
        let m = 2;
        let ldb = 5;
        let spd = DenseMat::random_spd(n, 3);
        let mut l = spd.as_slice().to_vec();
        potrf_lower(n, &mut l, n).unwrap();
        let mut b = vec![-9.0; ldb * n];
        b[0] = 1.0;
        b[1] = 2.0;
        b[ldb] = 3.0;
        b[ldb + 1] = 4.0;
        let mut compact = vec![1.0, 2.0, 3.0, 4.0];
        trsm_right_lower_trans(m, n, &l, n, &mut b, ldb);
        trsm_right_lower_trans(m, n, &l, n, &mut compact, m);
        assert!((b[0] - compact[0]).abs() < 1e-14);
        assert!((b[1] - compact[1]).abs() < 1e-14);
        assert!((b[ldb] - compact[2]).abs() < 1e-14);
        assert!((b[ldb + 1] - compact[3]).abs() < 1e-14);
        assert_eq!(b[2], -9.0, "padding untouched");
    }

    #[test]
    fn zero_size_ok() {
        let mut b: Vec<f64> = vec![];
        trsm_right_lower_trans(0, 0, &[], 0, &mut b, 0);
        trsm_right_upper(0, 0, &[], 0, &mut b, 0);
        trsm_right_lower_trans_unit(0, 0, &[], 0, &mut b, 0);
    }

    fn random_block(m: usize, n: usize, seed: u64) -> DenseMat {
        let mut out = DenseMat::zeros(m, n);
        let mut s = seed;
        for j in 0..n {
            for i in 0..m {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                out.set(i, j, ((s >> 40) as f64) / 1e6 - 4.0);
            }
        }
        out
    }

    /// Dense non-singular upper triangle inside an `lda`-strided buffer.
    fn upper_padded(n: usize, lda: usize, seed: u64) -> Vec<f64> {
        let m = random_block(n, n, seed);
        let mut u = vec![f64::NAN; if n == 0 { 0 } else { lda * (n - 1) + n }];
        for j in 0..n {
            for i in 0..=j {
                u[j * lda + i] = if i == j {
                    2.0 + m.get(i, j).abs()
                } else {
                    m.get(i, j)
                };
            }
            for i in j + 1..n {
                u[j * lda + i] = f64::NAN; // strict lower must never be read
            }
        }
        u
    }

    #[test]
    fn right_upper_roundtrips_and_respects_strides() {
        for &(m, n, lda, ldb) in &[
            (1usize, 1usize, 1usize, 1usize),
            (4, 3, 3, 4),
            (5, 4, 7, 9), // padded, the supernodal trapezoid case
            (8, 8, 8, 8),
            (2, 6, 11, 5),
        ] {
            let u = upper_padded(n, lda, (m * 13 + n) as u64);
            let bmat = random_block(m, n, 99 + lda as u64);
            let mut b = vec![-5.0; if n == 0 { 0 } else { ldb * (n - 1) + m }];
            for j in 0..n {
                for i in 0..m {
                    b[j * ldb + i] = bmat.get(i, j);
                }
            }
            trsm_right_upper(m, n, &u, lda, &mut b, ldb);
            // Reconstruct X U and compare with the original B.
            let mut umat = DenseMat::zeros(n, n);
            for j in 0..n {
                for i in 0..=j {
                    umat.set(i, j, u[j * lda + i]);
                }
            }
            let mut x = DenseMat::zeros(m, n);
            for j in 0..n {
                for i in 0..m {
                    x.set(i, j, b[j * ldb + i]);
                }
            }
            let back = x.matmul(&umat);
            assert!(
                back.max_abs_diff(&bmat) < 1e-8,
                "m={m} n={n} lda={lda} ldb={ldb}: {}",
                back.max_abs_diff(&bmat)
            );
            // Padding rows between live entries stay untouched.
            for j in 0..n.saturating_sub(1) {
                for i in m..ldb {
                    assert_eq!(b[j * ldb + i], -5.0, "padding clobbered at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn right_lower_trans_unit_ignores_diagonal_and_respects_strides() {
        for &(m, n, lda, ldb) in &[(3usize, 2usize, 2usize, 3usize), (4, 5, 9, 6), (1, 4, 4, 1)] {
            // Unit-lower L inside a padded buffer whose diagonal holds
            // garbage (the getrf packing: U values live there).
            let lmat = random_block(n, n, 7 + m as u64);
            let mut l = vec![f64::NAN; if n == 0 { 0 } else { lda * (n - 1) + n }];
            for j in 0..n {
                for i in j + 1..n {
                    l[j * lda + i] = lmat.get(i, j);
                }
                l[j * lda + j] = f64::NAN; // must never be read
            }
            let bmat = random_block(m, n, 31 + n as u64);
            let mut b = vec![-5.0; if n == 0 { 0 } else { ldb * (n - 1) + m }];
            for j in 0..n {
                for i in 0..m {
                    b[j * ldb + i] = bmat.get(i, j);
                }
            }
            trsm_right_lower_trans_unit(m, n, &l, lda, &mut b, ldb);
            // Reconstruct X L^T (unit diagonal) and compare with B.
            let mut lt = DenseMat::zeros(n, n);
            for j in 0..n {
                lt.set(j, j, 1.0);
                for i in j + 1..n {
                    lt.set(i, j, lmat.get(i, j));
                }
            }
            let mut x = DenseMat::zeros(m, n);
            for j in 0..n {
                for i in 0..m {
                    x.set(i, j, b[j * ldb + i]);
                }
            }
            let back = x.matmul(&lt.transpose());
            assert!(
                back.max_abs_diff(&bmat) < 1e-9,
                "m={m} n={n} lda={lda} ldb={ldb}"
            );
            for j in 0..n.saturating_sub(1) {
                for i in m..ldb {
                    assert_eq!(b[j * ldb + i], -5.0, "padding clobbered");
                }
            }
        }
    }

    #[test]
    fn unit_variant_matches_scalar_forward_elimination() {
        // Bt := Bt * L^{-T} on transposed storage must equal the scalar
        // forward elimination x[j] -= L[j,k] x[k] on each untransposed
        // column — the exact substitution the supernodal LU plan makes.
        let (v, w) = (4usize, 3usize);
        let lmat = random_block(v, v, 17);
        let mut l = vec![0.0; v * v];
        for j in 0..v {
            for i in j + 1..v {
                l[j * v + i] = lmat.get(i, j);
            }
            l[j * v + j] = 1234.5; // garbage diagonal, must be ignored
        }
        let b0 = random_block(v, w, 23);
        // Scalar reference: per column c, forward-eliminate.
        let mut reference = b0.clone();
        for c in 0..w {
            for k in 0..v {
                let xk = reference.get(k, c);
                for i in k + 1..v {
                    let val = reference.get(i, c) - l[k * v + i] * xk;
                    reference.set(i, c, val);
                }
            }
        }
        // Kernel on the transposed block.
        let mut bt = vec![0.0; w * v];
        for k in 0..v {
            for c in 0..w {
                bt[k * w + c] = b0.get(k, c);
            }
        }
        trsm_right_lower_trans_unit(w, v, &l, v, &mut bt, w);
        for k in 0..v {
            for c in 0..w {
                assert!(
                    (bt[k * w + c] - reference.get(k, c)).abs() < 1e-12,
                    "({k},{c})"
                );
            }
        }
    }
}
