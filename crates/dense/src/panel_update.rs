//! The fused panel update of the supernodal factorizations: one source
//! panel's sub-diagonal block applied to a run of columns of a target
//! panel, straight into the target's **row-major** accumulator.
//!
//! `X[rows[i], 0..w] -= L[i, 0..v] · Bt[0..v, 0..w]`
//!
//! The target accumulator stores each row of the panel contiguously
//! (`x[r·ldx + c]`), so the scattered row list of the source is read
//! **once** and each hit is a unit-stride run of `w` doubles — no
//! gather into a contiguous block before a GEMM, no scatter after it.
//! The SIMD lanes run along `w`, the dimension that is contiguous by
//! construction; row runs of COLAMD-ordered factors are too short to
//! vectorize along. Supernodal LU updates all of a panel's columns
//! (`ldx == w`); supernodal Cholesky updates the window of columns a
//! descendant reaches (`w < ldx`, `x` starting at the window's first
//! column).
//!
//! Columns are cut into register tiles of 8, 4 and — for a remainder —
//! 1, and a 1-column tile runs at about a third of the 4-column tile's
//! speed (`results/ablation_dense_kernels.csv`: `w = 15` against 16).
//! A caller that owns its accumulator therefore rounds the row stride
//! up to a multiple of 4 and updates the pad columns too (supernodal LU
//! does: pad columns hold zeros and receive `0 − l·0`).
//!
//! One generic body serves two instantiations: a portable one, and on
//! x86-64 an `avx2,fma` one picked at run time by
//! [`crate::isa::detect`]. Per accumulator entry both subtract the
//! `v` products in ascending `k`; the FMA instantiation rounds each
//! multiply-subtract once instead of twice, so hosts with and without
//! FMA agree to rounding, not bitwise.

use crate::isa::{self, Isa};

/// `X[rows[i], 0..w] -= L[i, 0..v] · Bt[0..v, 0..w]` for every `i` in
/// `0..rows.len()`.
///
/// * `x` — row-major accumulator with row stride `ldx >= w`: entry
///   `(r, c)` lives at `x[r·ldx + c]`, so a caller updates a window of
///   `w` adjacent columns of a wider accumulator by passing the slice
///   from the window's first column on. The row list needs no order
///   but must be duplicate-free (rows are updated four at a time: a
///   repeated row would keep only its last update).
/// * `l` — column-major `rows.len() × v` block with leading dimension
///   `ldl` (`L[i, k] = l[k·ldl + i]`); a source panel's trapezoid below
///   its diagonal block, or one CSC column when `v == 1`.
/// * `bt` — row-major `v × w` block (`Bt[k, c] = bt[k·w + c]`): for LU
///   the target's accumulator rows at the source's diagonal, after the
///   source's internal solve; for Cholesky the source's own rows that
///   fall inside the target's columns, transposed.
///
/// Panics when `l` or `bt` is too short for the stated shape, `ldx` is
/// smaller than `w`, or a row index reaches past `x` — in release
/// builds too.
pub fn panel_update_sub(
    w: usize,
    v: usize,
    rows: &[u32],
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    let m = rows.len();
    assert!(ldl >= m, "leading dimension too small");
    assert!(ldx >= w, "accumulator row stride too small");
    // Tail-length checks (like `gemm_nt_sub`'s): a padded `ldl` larger
    // than the live row count must not let a short buffer read out of
    // bounds silently.
    if v > 0 && m > 0 {
        assert!(l.len() >= ldl * (v - 1) + m, "L buffer too small");
    }
    assert!(bt.len() >= v * w, "Bt buffer too small");
    if w == 0 || v == 0 {
        return;
    }
    match isa::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Avx2Fma` is returned only when the executing CPU
        // reports both features `update_avx2_fma` is compiled for.
        Isa::Avx2Fma => unsafe { update_avx2_fma(w, v, rows, l, ldl, bt, x, ldx) },
        Isa::Portable => update_portable(w, v, rows, l, ldl, bt, x, ldx),
    }
}

/// The portable instantiation: separate multiply and subtract, whatever
/// vector width the build target guarantees. Public (and hidden) only
/// so the kernel table of `ablation_thresholds` can time it beside
/// [`panel_update_sub`]; it performs no shape checks beyond slice
/// bounds.
#[doc(hidden)]
pub fn update_portable(
    w: usize,
    v: usize,
    rows: &[u32],
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    update_body::<false>(w, v, rows, l, ldl, bt, x, ldx);
}

/// The `avx2,fma` instantiation of the same body: 4-wide lanes along
/// `w`, one fused multiply-subtract per product.
///
/// # Safety
/// The executing CPU must support the `avx2` and `fma` features. The
/// only caller outside tests is [`panel_update_sub`], behind
/// [`isa::detect`]` == `[`Isa::Avx2Fma`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn update_avx2_fma(
    w: usize,
    v: usize,
    rows: &[u32],
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    update_body::<true>(w, v, rows, l, ldl, bt, x, ldx);
}

/// One register block: `R` accumulator rows × `T` columns starting at
/// column `c0`, held in registers while the `v` products are
/// subtracted in ascending `k`. `R × T/4` independent FMA chains hide
/// the FMA latency, and each `Bt` load serves `R` rows.
#[inline(always)]
fn block<const R: usize, const T: usize, const FMA: bool>(
    rows: &[u32],
    c0: usize,
    w: usize,
    v: usize,
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    let rows: &[u32; R] = rows.try_into().expect("block has R rows");
    let mut acc = [[0.0f64; T]; R];
    for (a, &r) in acc.iter_mut().zip(rows) {
        let at = r as usize * ldx + c0;
        a.copy_from_slice(&x[at..at + T]);
    }
    // Column k of L (rows of this block only) against row k of Bt.
    for k in 0..v {
        let lk: &[f64; R] = l[k * ldl..][..R].try_into().expect("block has R rows");
        let bk: &[f64; T] = bt[k * w + c0..][..T]
            .try_into()
            .expect("tile has T columns");
        for (a, &lik) in acc.iter_mut().zip(lk) {
            for (av, &b) in a.iter_mut().zip(bk) {
                *av = if FMA {
                    (-lik).mul_add(b, *av)
                } else {
                    *av - lik * b
                };
            }
        }
    }
    for (a, &r) in acc.iter().zip(rows) {
        let at = r as usize * ldx + c0;
        x[at..at + T].copy_from_slice(a);
    }
}

/// All `w` columns of `R` accumulator rows, cut into register tiles of
/// 8, 4 and 1 columns.
#[inline(always)]
fn row_block<const R: usize, const FMA: bool>(
    rows: &[u32],
    w: usize,
    v: usize,
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    let mut c = 0;
    while c + 8 <= w {
        block::<R, 8, FMA>(rows, c, w, v, l, ldl, bt, x, ldx);
        c += 8;
    }
    if c + 4 <= w {
        block::<R, 4, FMA>(rows, c, w, v, l, ldl, bt, x, ldx);
        c += 4;
    }
    while c < w {
        block::<R, 1, FMA>(rows, c, w, v, l, ldl, bt, x, ldx);
        c += 1;
    }
}

/// The shared body: blocks of four rows, then single rows. Every
/// accumulator entry sees the same ascending-`k` sequence whatever the
/// blocking, so block shapes are pure scheduling.
#[inline(always)]
fn update_body<const FMA: bool>(
    w: usize,
    v: usize,
    rows: &[u32],
    l: &[f64],
    ldl: usize,
    bt: &[f64],
    x: &mut [f64],
    ldx: usize,
) {
    let bt = &bt[..v * w];
    let mut i = 0;
    while i + 4 <= rows.len() {
        // L[i + r, k] = l[i + k * ldl + r]; the tail asserts of the
        // entry point cover every k < v.
        row_block::<4, FMA>(&rows[i..i + 4], w, v, &l[i..], ldl, bt, x, ldx);
        i += 4;
    }
    while i < rows.len() {
        row_block::<1, FMA>(&rows[i..i + 1], w, v, &l[i..], ldl, bt, x, ldx);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::lcg_fill as fill;

    /// Naive triple loop, separate multiply and subtract.
    fn reference(
        w: usize,
        v: usize,
        rows: &[u32],
        l: &[f64],
        ldl: usize,
        bt: &[f64],
        x: &mut [f64],
        ldx: usize,
    ) {
        for (i, &r) in rows.iter().enumerate() {
            for c in 0..w {
                for k in 0..v {
                    x[r as usize * ldx + c] -= l[k * ldl + i] * bt[k * w + c];
                }
            }
        }
    }

    /// An unsorted, gappy row list over `n_rows` accumulator rows.
    fn scattered_rows(m: usize, n_rows: usize, seed: u64) -> Vec<u32> {
        assert!(n_rows >= 3 * m);
        // Stride 3 leaves gaps; the rotation makes the list unsorted.
        let mut rows: Vec<u32> = (0..m)
            .map(|i| (3 * i + (seed as usize % 3)) as u32)
            .collect();
        rows.rotate_left(m / 3);
        rows
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, e)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - e).abs() <= 1e-13 * (1.0 + e.abs()),
                "{what}: entry {i}: {g} vs {e}"
            );
        }
    }

    type Instantiation = fn(usize, usize, &[u32], &[f64], usize, &[f64], &mut [f64], usize);

    /// Every `w, v ∈ 1..=33` (all tile combinations and remainders),
    /// scattered rows, padded `ldl`, and a `w`-column window at every
    /// position of an accumulator 0–3 columns wider (`ldx == w` is the
    /// whole-panel case); rows outside the list and columns outside
    /// the window untouched.
    fn check_all_shapes(kernel: Instantiation, what: &str) {
        for w in 1..=33usize {
            for v in 1..=33usize {
                let m = 1 + (w * 7 + v * 3) % 11;
                let n_rows = 3 * m + 2;
                let ldl = m + (v % 3);
                let ldx = w + (w + 2 * v) % 4;
                let c0 = (ldx - w + v % 2) / 2;
                let rows = scattered_rows(m, n_rows, (w + v) as u64);
                let l = fill(ldl * v, 1 + w as u64);
                let bt = fill(v * w, 2 + v as u64);
                let x0 = fill(n_rows * ldx, 3);
                let mut want = x0.clone();
                reference(w, v, &rows, &l, ldl, &bt, &mut want[c0..], ldx);
                let mut got = x0.clone();
                kernel(w, v, &rows, &l, ldl, &bt, &mut got[c0..], ldx);
                let what = format!("{what} w={w} v={v} ldx={ldx} c0={c0}");
                assert_close(&got, &want, &what);
                for r in 0..n_rows {
                    for c in 0..ldx {
                        let updated = rows.contains(&(r as u32)) && (c0..c0 + w).contains(&c);
                        if !updated {
                            assert_eq!(
                                got[r * ldx + c].to_bits(),
                                x0[r * ldx + c].to_bits(),
                                "{what}: ({r}, {c}) is outside the update"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn portable_matches_naive_for_every_shape() {
        check_all_shapes(update_portable, "portable");
    }

    #[test]
    fn dispatched_matches_naive_for_every_shape() {
        check_all_shapes(panel_update_sub, "dispatched");
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_fma_matches_naive_and_portable_for_every_shape() {
        if isa::detect() != Isa::Avx2Fma {
            eprintln!("skipped: host lacks avx2/fma");
            return;
        }
        fn avx2(
            w: usize,
            v: usize,
            rows: &[u32],
            l: &[f64],
            ldl: usize,
            bt: &[f64],
            x: &mut [f64],
            ldx: usize,
        ) {
            // SAFETY: `isa::detect` reported both features above.
            unsafe { update_avx2_fma(w, v, rows, l, ldl, bt, x, ldx) }
        }
        check_all_shapes(avx2, "avx2,fma");
        // And against the portable instantiation directly.
        let (w, v, m) = (19usize, 7usize, 23usize);
        let rows = scattered_rows(m, 3 * m + 1, 5);
        let l = fill((m + 2) * v, 7);
        let bt = fill(v * w, 8);
        let x0 = fill((3 * m + 1) * w, 9);
        let (mut a, mut b) = (x0.clone(), x0);
        update_portable(w, v, &rows, &l, m + 2, &bt, &mut a, w);
        avx2(w, v, &rows, &l, m + 2, &bt, &mut b, w);
        assert_close(&b, &a, "avx2,fma vs portable");
    }

    #[test]
    fn single_source_column_is_an_axpy_per_row() {
        // v = 1: the scalar-source case — bitwise the guarded axpy the
        // scalar tier performs (one product, one subtract per entry).
        let (w, m) = (5usize, 6usize);
        let rows: Vec<u32> = vec![9, 2, 7, 4, 11, 0];
        let l = fill(m, 21);
        let bt = fill(w, 22);
        let x0 = fill(12 * w, 23);
        let mut got = x0.clone();
        update_portable(w, 1, &rows, &l, m, &bt, &mut got, w);
        for (i, &r) in rows.iter().enumerate() {
            for c in 0..w {
                let want = x0[r as usize * w + c] - l[i] * bt[c];
                assert_eq!(got[r as usize * w + c].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn empty_shapes_are_noops() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let orig = x.clone();
        panel_update_sub(2, 0, &[0, 1], &[], 2, &[], &mut x, 2);
        panel_update_sub(2, 3, &[], &[], 0, &[0.5; 6], &mut x, 2);
        panel_update_sub(0, 2, &[0], &[1.0, 1.0], 1, &[], &mut x, 0);
        assert_eq!(x, orig);
    }

    #[test]
    #[should_panic(expected = "L buffer too small")]
    fn short_l_fails_loudly() {
        // ldl = 4 > m = 3: the last column needs 4·1 + 3 = 7 entries.
        let mut x = vec![0.0; 8];
        panel_update_sub(2, 2, &[0, 1, 2], &[0.0; 6], 4, &[0.0; 4], &mut x, 2);
    }

    #[test]
    #[should_panic(expected = "Bt buffer too small")]
    fn short_bt_fails_loudly() {
        let mut x = vec![0.0; 8];
        panel_update_sub(2, 2, &[0, 1, 2], &[0.0; 6], 3, &[0.0; 3], &mut x, 2);
    }

    #[test]
    #[should_panic(expected = "leading dimension too small")]
    fn short_ldl_fails_loudly() {
        let mut x = vec![0.0; 8];
        panel_update_sub(2, 1, &[0, 1, 2], &[0.0; 3], 2, &[0.0; 2], &mut x, 2);
    }

    #[test]
    #[should_panic(expected = "accumulator row stride too small")]
    fn short_ldx_fails_loudly() {
        let mut x = vec![0.0; 8];
        panel_update_sub(2, 1, &[0, 1], &[0.5, 0.5], 2, &[1.0, 1.0], &mut x, 1);
    }

    #[test]
    #[should_panic]
    fn row_past_the_accumulator_fails_loudly() {
        let mut x = vec![0.0; 8];
        panel_update_sub(2, 1, &[0, 4], &[0.5, 0.5], 2, &[1.0, 1.0], &mut x, 2);
    }
}
