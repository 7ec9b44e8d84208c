//! Core sparse operations: SpMV, transpose, permutation, symmetrization,
//! triangular extraction, and norms.
//!
//! The transpose here is the same O(|A|) counting-sort transpose that the
//! paper notes Eigen and CHOLMOD perform *inside their numeric phase* to
//! reach the upper triangle of a symmetric matrix stored lower (§4.2) —
//! one of the costs Sympiler's decoupling removes.

use crate::csc::CscMatrix;
use crate::error::SparseError;
use crate::sparsevec::SparseVec;
use crate::Result;

/// `y = A * x` for dense `x`, dense `y`. `y` is overwritten.
pub fn spmv(a: &CscMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n_cols(), "x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "y length mismatch");
    y.fill(0.0);
    for j in 0..a.n_cols() {
        let xj = x[j];
        if xj == 0.0 {
            continue;
        }
        for (i, v) in a.col_iter(j) {
            y[i] += v * xj;
        }
    }
}

/// `y = A * x` where `A` is a *symmetric* matrix stored lower-triangular
/// (the paper's storage convention for Cholesky inputs).
pub fn spmv_sym_lower(a: &CscMatrix, x: &[f64], y: &mut [f64]) {
    assert!(a.is_square(), "symmetric matrix must be square");
    assert_eq!(x.len(), a.n_cols(), "x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "y length mismatch");
    y.fill(0.0);
    for j in 0..a.n_cols() {
        let xj = x[j];
        for (i, v) in a.col_iter(j) {
            y[i] += v * xj;
            if i != j {
                // Mirror entry (j, i) in the upper triangle.
                y[j] += v * x[i];
            }
        }
    }
}

/// Transpose via counting sort; O(|A| + n).
pub fn transpose(a: &CscMatrix) -> CscMatrix {
    let m = a.n_rows();
    let n = a.n_cols();
    let nnz = a.nnz();
    // Count per row of A = per column of A^T.
    let mut count = vec![0usize; m];
    for &i in a.row_idx() {
        count[i] += 1;
    }
    let mut col_ptr = vec![0usize; m + 1];
    for i in 0..m {
        col_ptr[i + 1] = col_ptr[i] + count[i];
    }
    let mut next = col_ptr[..m].to_vec();
    let mut row_idx = vec![0usize; nnz];
    let mut values = vec![0.0f64; nnz];
    for j in 0..n {
        for (i, v) in a.col_iter(j) {
            let p = next[i];
            row_idx[p] = j;
            values[p] = v;
            next[i] += 1;
        }
    }
    // Row indices within each output column arrive in increasing order
    // because we scan source columns left to right.
    CscMatrix::from_parts_unchecked(n, m, col_ptr, row_idx, values)
}

/// Expand a symmetric matrix stored lower-triangular into full storage
/// (both triangles explicit).
pub fn symmetrize_from_lower(a: &CscMatrix) -> Result<CscMatrix> {
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch(
            "symmetrize requires a square matrix".into(),
        ));
    }
    if !a.is_lower_storage() {
        return Err(SparseError::InvalidMatrix(
            "symmetrize_from_lower requires lower-triangular storage".into(),
        ));
    }
    let n = a.n_cols();
    let mut t = crate::triplet::TripletMatrix::with_capacity(n, n, a.nnz() * 2);
    for j in 0..n {
        for (i, v) in a.col_iter(j) {
            t.push(i, j, v);
            if i != j {
                t.push(j, i, v);
            }
        }
    }
    t.to_csc()
}

/// Extract the lower triangle (including diagonal) of a full-storage
/// matrix.
pub fn extract_lower(a: &CscMatrix) -> CscMatrix {
    let n = a.n_cols();
    let mut col_ptr = vec![0usize; n + 1];
    let mut row_idx = Vec::new();
    let mut values = Vec::new();
    for j in 0..n {
        for (i, v) in a.col_iter(j) {
            if i >= j {
                row_idx.push(i);
                values.push(v);
            }
        }
        col_ptr[j + 1] = row_idx.len();
    }
    CscMatrix::from_parts_unchecked(a.n_rows(), n, col_ptr, row_idx, values)
}

/// Symmetric permutation `P A P^T` of a square full-storage matrix, where
/// `perm[new] = old` (i.e. `perm` lists old indices in their new order).
pub fn permute_sym(a: &CscMatrix, perm: &[usize]) -> Result<CscMatrix> {
    let n = a.n_cols();
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch(
            "permute_sym requires square".into(),
        ));
    }
    if perm.len() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "perm.len() = {} != n = {n}",
            perm.len()
        )));
    }
    // inv[old] = new
    let mut inv = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        if old >= n || inv[old] != usize::MAX {
            return Err(SparseError::InvalidMatrix(
                "perm is not a permutation".into(),
            ));
        }
        inv[old] = new;
    }
    let mut t = crate::triplet::TripletMatrix::with_capacity(n, n, a.nnz());
    for j in 0..n {
        let nj = inv[j];
        for (i, v) in a.col_iter(j) {
            t.push(inv[i], nj, v);
        }
    }
    t.to_csc()
}

/// Invert a permutation given as `perm[new] = old`, returning
/// `inv[old] = new`. Doubles as the validity check every ordering must
/// pass: the input is rejected unless it is a bijection of `0..n`.
pub fn inverse_permutation(perm: &[usize]) -> Result<Vec<usize>> {
    let n = perm.len();
    let mut inv = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        if old >= n {
            return Err(SparseError::InvalidMatrix(format!(
                "perm[{new}] = {old} out of bounds for n = {n}"
            )));
        }
        if inv[old] != usize::MAX {
            return Err(SparseError::InvalidMatrix(format!(
                "perm is not a bijection: {old} appears twice"
            )));
        }
        inv[old] = new;
    }
    Ok(inv)
}

/// Gather a dense vector into ordered coordinates: `out[new] =
/// x[perm[new]]` — the `Qᵀ x` half of applying an ordering to a solve.
///
/// # Panics
/// If `perm` and `x` have different lengths (indices are bounds-checked
/// by the gather itself).
pub fn gather_perm(perm: &[usize], x: &[f64]) -> Vec<f64> {
    assert_eq!(perm.len(), x.len(), "permutation/vector length mismatch");
    perm.iter().map(|&old| x[old]).collect()
}

/// Scatter a vector from ordered coordinates back to the original:
/// `out[perm[new]] = y[new]` — the `Q y` half of applying an ordering
/// to a solve. Inverse of [`gather_perm`] for any bijective `perm`.
///
/// # Panics
/// If `perm` and `y` have different lengths.
pub fn scatter_perm(perm: &[usize], y: &[f64]) -> Vec<f64> {
    assert_eq!(perm.len(), y.len(), "permutation/vector length mismatch");
    let mut out = vec![0.0; y.len()];
    for (new, &old) in perm.iter().enumerate() {
        out[old] = y[new];
    }
    out
}

/// Column permutation `A Q`, where `q[new] = old`: column `new` of the
/// result is column `q[new]` of `a`. Row indices are untouched, so the
/// construction is a direct O(|A|) CSC copy — no triplet round-trip.
pub fn permute_cols(a: &CscMatrix, q: &[usize]) -> Result<CscMatrix> {
    let n = a.n_cols();
    if q.len() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "q.len() = {} != n_cols = {n}",
            q.len()
        )));
    }
    inverse_permutation(q)?;
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    col_ptr.push(0);
    for &old in q {
        row_idx.extend_from_slice(a.col_rows(old));
        values.extend_from_slice(a.col_values(old));
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(
        a.n_rows(),
        n,
        col_ptr,
        row_idx,
        values,
    ))
}

/// Row permutation `P A`, where `p[new] = old`: row `new` of the
/// result is row `p[new]` of `a`, i.e. `B[i, j] = A[p[i], j]`. This is
/// how a static pre-pivot (maximum transversal / weighted matching) is
/// applied: `p[j]` is the row matched to column `j`, so `B[j, j] =
/// A[p[j], j]` is the matched — structurally nonzero — diagonal.
/// Column pointers are untouched; each column's rows map through the
/// inverse and re-sort, O(|A| log maxcol) with no triplet round-trip.
pub fn permute_rows(a: &CscMatrix, p: &[usize]) -> Result<CscMatrix> {
    if p.len() != a.n_rows() {
        return Err(SparseError::DimensionMismatch(format!(
            "p.len() = {} != n_rows = {}",
            p.len(),
            a.n_rows()
        )));
    }
    let inv = inverse_permutation(p)?;
    let n = a.n_cols();
    let mut row_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    let mut entries: Vec<(usize, f64)> = Vec::new();
    let mut col_ptr = Vec::with_capacity(n + 1);
    col_ptr.push(0);
    for j in 0..n {
        entries.clear();
        entries.extend(a.col_iter(j).map(|(i, v)| (inv[i], v)));
        entries.sort_unstable_by_key(|&(i, _)| i);
        for &(i, v) in &entries {
            row_idx.push(i);
            values.push(v);
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(
        a.n_rows(),
        n,
        col_ptr,
        row_idx,
        values,
    ))
}

/// Two-sided diagonal scaling: `B[i, j] = dr[i] * A[i, j] * dc[j]`,
/// evaluated left-to-right (`(dr[i] * v) * dc[j]`) so callers that
/// scale on the fly with the same expression shape (the compiled
/// plan's baked gather maps, the emitted C) produce **bitwise**
/// identical entries — `dr`/`dc` are generally not powers of two, so
/// association order matters at the ULP level. The pattern is shared
/// with `a` unchanged.
pub fn scale_rows_cols(a: &CscMatrix, dr: &[f64], dc: &[f64]) -> Result<CscMatrix> {
    if dr.len() != a.n_rows() || dc.len() != a.n_cols() {
        return Err(SparseError::DimensionMismatch(format!(
            "dr.len() = {} / dc.len() = {} != {} x {}",
            dr.len(),
            dc.len(),
            a.n_rows(),
            a.n_cols()
        )));
    }
    let mut values = Vec::with_capacity(a.nnz());
    for j in 0..a.n_cols() {
        let dcj = dc[j];
        for (i, v) in a.col_iter(j) {
            values.push(dr[i] * v * dcj);
        }
    }
    Ok(CscMatrix::from_parts_unchecked(
        a.n_rows(),
        a.n_cols(),
        a.col_ptr().to_vec(),
        a.row_idx().to_vec(),
        values,
    ))
}

/// General two-sided permutation of a square full-storage matrix:
/// `B[i, j] = A[rperm[i], cperm[j]]` with independent row and column
/// maps (`perm[new] = old` on both sides). This is the matrix a
/// compiled LU plan actually factors when a static pre-pivot `P` is
/// composed with a fill-reducing ordering `Q`: `B = Qᵀ P A Q`, whose
/// row map is `rperm[new] = rowp[q[new]]` and column map `cperm = q`.
/// [`permute_rows_cols`] is the `rperm == cperm` special case;
/// [`permute_rows`] the `cperm == identity` one.
pub fn permute_general(a: &CscMatrix, rperm: &[usize], cperm: &[usize]) -> Result<CscMatrix> {
    let n = a.n_cols();
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch(
            "permute_general requires a square matrix".into(),
        ));
    }
    if rperm.len() != n || cperm.len() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "rperm.len() = {}, cperm.len() = {} != n = {n}",
            rperm.len(),
            cperm.len()
        )));
    }
    let rinv = inverse_permutation(rperm)?;
    inverse_permutation(cperm)?;
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    let mut entries: Vec<(usize, f64)> = Vec::new();
    col_ptr.push(0);
    for &old_j in cperm {
        entries.clear();
        entries.extend(a.col_iter(old_j).map(|(i, v)| (rinv[i], v)));
        entries.sort_unstable_by_key(|&(i, _)| i);
        for &(i, v) in &entries {
            row_idx.push(i);
            values.push(v);
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(
        n, n, col_ptr, row_idx, values,
    ))
}

/// Count the structurally **missing** entries on the main diagonal
/// (`min(n_rows, n_cols)` positions) — on square matrices, the columns
/// a statically pivoted LU cannot serve without a pre-pivot. Zero
/// means the diagonal is structurally full (values may still be
/// numerically zero). The single diagonal-census implementation;
/// `sympiler_graph::transversal::structural_diag_count` is its
/// complement.
pub fn structurally_zero_diagonals(a: &CscMatrix) -> usize {
    (0..a.n_cols().min(a.n_rows()))
        .filter(|&j| a.col_rows(j).binary_search(&j).is_err())
        .count()
}

/// Symmetric application of one ordering to a square full-storage
/// matrix: `B = Qᵀ A Q` with `B[i, j] = A[perm[i], perm[j]]`
/// (`perm[new] = old`). This is how a fill-reducing *column* ordering
/// is applied under **static diagonal pivoting**: permuting rows by
/// the same `Q` keeps every diagonal entry on the diagonal (so
/// diagonal dominance survives), while the column intersection graph
/// of `AᵀA` — the structure COLAMD minimizes fill over — is identical
/// to that of `A Q`, because `(Qᵀ A Q)ᵀ (Qᵀ A Q) = Qᵀ (AᵀA) Q`.
///
/// Unlike [`permute_sym`] this is a direct CSC construction (gather
/// each permuted column, map rows through the inverse, one sort per
/// column) — O(|A| log maxcol) with no triplet round-trip.
pub fn permute_rows_cols(a: &CscMatrix, perm: &[usize]) -> Result<CscMatrix> {
    let n = a.n_cols();
    if !a.is_square() {
        return Err(SparseError::DimensionMismatch(
            "permute_rows_cols requires a square matrix".into(),
        ));
    }
    if perm.len() != n {
        return Err(SparseError::DimensionMismatch(format!(
            "perm.len() = {} != n = {n}",
            perm.len()
        )));
    }
    let inv = inverse_permutation(perm)?;
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::with_capacity(a.nnz());
    let mut values = Vec::with_capacity(a.nnz());
    let mut entries: Vec<(usize, f64)> = Vec::new();
    col_ptr.push(0);
    for &old_j in perm {
        entries.clear();
        entries.extend(a.col_iter(old_j).map(|(i, v)| (inv[i], v)));
        entries.sort_unstable_by_key(|&(i, _)| i);
        for &(i, v) in &entries {
            row_idx.push(i);
            values.push(v);
        }
        col_ptr.push(row_idx.len());
    }
    Ok(CscMatrix::from_parts_unchecked(
        n, n, col_ptr, row_idx, values,
    ))
}

/// `||A x - b||_inf / (||A||_1 ||x||_inf + ||b||_inf)` — the scaled
/// residual used to verify solves; `+∞` when any term is NaN or the
/// residual is not finite.
pub fn rel_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.n_rows()];
    spmv(a, x, &mut ax);
    scaled_residual_from(&ax, a, x, b)
}

/// Residual for a symmetric matrix stored lower.
pub fn rel_residual_sym_lower(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.n_rows()];
    spmv_sym_lower(a, x, &mut ax);
    scaled_residual_from(&ax, a, x, b)
}

fn scaled_residual_from(ax: &[f64], a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let num = ax
        .iter()
        .zip(b.iter())
        .map(|(p, q)| (p - q).abs())
        .fold(0.0f64, max_or_inf);
    if !num.is_finite() {
        return f64::INFINITY;
    }
    let a1 = norm_1(a);
    let xi = x.iter().map(|v| v.abs()).fold(0.0f64, max_or_inf);
    let bi = b.iter().map(|v| v.abs()).fold(0.0f64, max_or_inf);
    let den = a1 * xi + bi;
    if den == 0.0 {
        num
    } else {
        max_or_inf(0.0, num / den)
    }
}

/// `f64::max` for error metrics: a NaN term makes the result `+∞`.
/// `f64::max` drops a NaN operand, so a fold over it reads a NaN
/// answer as exact.
pub fn max_or_inf(acc: f64, v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        acc.max(v)
    }
}

/// Componentwise backward error of an approximate solution to
/// `A x = b`: `max_i |b - A x|_i / (|A| |x| + |b|)_i` — the smallest
/// relative entrywise perturbation of `A` and `b` that makes `x`
/// exact (Oettli–Prager). The standard stopping criterion of
/// iterative refinement: a berr near machine epsilon certifies the
/// solve regardless of how ill-conditioned the factorization path
/// was. Rows where both numerator and denominator vanish contribute
/// zero; a nonzero residual over a zero denominator, and a NaN in
/// either, yield infinity.
pub fn componentwise_berr(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    assert_eq!(x.len(), a.n_cols(), "x length mismatch");
    assert_eq!(b.len(), a.n_rows(), "b length mismatch");
    let n = a.n_rows();
    let mut ax = vec![0.0f64; n];
    spmv(a, x, &mut ax);
    // |A| |x| accumulated per row.
    let mut denom = vec![0.0f64; n];
    for j in 0..a.n_cols() {
        let xj = x[j].abs();
        if xj == 0.0 {
            continue;
        }
        for (i, v) in a.col_iter(j) {
            denom[i] += v.abs() * xj;
        }
    }
    let mut berr = 0.0f64;
    for i in 0..n {
        let num = (b[i] - ax[i]).abs();
        let den = denom[i] + b[i].abs();
        if num.is_nan() || den.is_nan() {
            return f64::INFINITY;
        }
        if den > 0.0 {
            berr = berr.max(num / den);
        } else if num > 0.0 {
            return f64::INFINITY;
        }
    }
    berr
}

/// Maximum absolute column sum.
pub fn norm_1(a: &CscMatrix) -> f64 {
    (0..a.n_cols())
        .map(|j| a.col_values(j).iter().map(|v| v.abs()).sum::<f64>())
        .fold(0.0f64, f64::max)
}

/// Frobenius norm.
pub fn norm_fro(a: &CscMatrix) -> f64 {
    a.values().iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// `y = L * x` for sparse `x`, used to manufacture consistent RHS vectors
/// for triangular-solve benchmarks: with sparse `x`, `b = L x` is sparse.
pub fn spmv_sparse(a: &CscMatrix, x: &SparseVec) -> SparseVec {
    assert_eq!(x.dim(), a.n_cols(), "x dimension mismatch");
    let mut dense = vec![0.0; a.n_rows()];
    for (j, xj) in x.iter() {
        for (i, v) in a.col_iter(j) {
            dense[i] += v * xj;
        }
    }
    SparseVec::from_dense(&dense)
}

/// Check structural symmetry (pattern of `A` equals pattern of `A^T`)
/// and numeric symmetry within `tol`.
pub fn is_symmetric(a: &CscMatrix, tol: f64) -> bool {
    if !a.is_square() {
        return false;
    }
    let at = transpose(a);
    if !a.same_pattern(&at) {
        return false;
    }
    a.values()
        .iter()
        .zip(at.values())
        .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::TripletMatrix;

    fn lower3() -> CscMatrix {
        // [2 . .; 1 3 .; . 4 5]
        CscMatrix::try_new(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 1, 2, 2],
            vec![2.0, 1.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn spmv_simple() {
        let a = lower3();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        spmv(&a, &x, &mut y);
        assert_eq!(y, [2.0, 7.0, 23.0]);
    }

    #[test]
    fn spmv_skips_zero_x() {
        let a = lower3();
        let x = [0.0, 0.0, 1.0];
        let mut y = [9.0; 3];
        spmv(&a, &x, &mut y);
        assert_eq!(y, [0.0, 0.0, 5.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = lower3();
        let at = transpose(&a);
        assert_eq!(at.get(0, 1), 1.0);
        assert_eq!(at.get(1, 2), 4.0);
        assert_eq!(at.get(1, 0), 0.0);
        let att = transpose(&at);
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_rectangular() {
        let mut t = TripletMatrix::new(2, 3);
        t.push(0, 2, 1.0);
        t.push(1, 0, 2.0);
        let a = t.to_csc().unwrap();
        let at = transpose(&a);
        assert_eq!(at.n_rows(), 3);
        assert_eq!(at.n_cols(), 2);
        assert_eq!(at.get(2, 0), 1.0);
        assert_eq!(at.get(0, 1), 2.0);
    }

    #[test]
    fn symmetrize_and_extract_roundtrip() {
        let a = lower3();
        let full = symmetrize_from_lower(&a).unwrap();
        assert!(is_symmetric(&full, 0.0));
        assert_eq!(full.get(0, 1), 1.0);
        assert_eq!(full.get(1, 0), 1.0);
        let lower = extract_lower(&full);
        assert_eq!(lower, a);
    }

    #[test]
    fn symmetrize_rejects_nonlower() {
        let full = symmetrize_from_lower(&lower3()).unwrap();
        assert!(symmetrize_from_lower(&full).is_err());
    }

    #[test]
    fn spmv_sym_lower_matches_full() {
        let a = lower3();
        let full = symmetrize_from_lower(&a).unwrap();
        let x = [1.0, -2.0, 0.5];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        spmv_sym_lower(&a, &x, &mut y1);
        spmv(&full, &x, &mut y2);
        for (p, q) in y1.iter().zip(y2.iter()) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn permute_sym_identity_is_noop() {
        let a = symmetrize_from_lower(&lower3()).unwrap();
        let p: Vec<usize> = (0..3).collect();
        let b = permute_sym(&a, &p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn permute_sym_reversal() {
        let a = symmetrize_from_lower(&lower3()).unwrap();
        let p = vec![2, 1, 0];
        let b = permute_sym(&a, &p).unwrap();
        // new (0,0) is old (2,2) = 5
        assert_eq!(b.get(0, 0), 5.0);
        assert_eq!(b.get(2, 2), 2.0);
        // new (1,0) is old (1,2) = 4
        assert_eq!(b.get(1, 0), 4.0);
        assert!(is_symmetric(&b, 0.0));
    }

    #[test]
    fn permute_sym_rejects_bad_perm() {
        let a = symmetrize_from_lower(&lower3()).unwrap();
        assert!(permute_sym(&a, &[0, 0, 1]).is_err());
        assert!(permute_sym(&a, &[0, 1]).is_err());
        assert!(permute_sym(&a, &[0, 1, 5]).is_err());
    }

    #[test]
    fn inverse_permutation_round_trips() {
        let p = vec![2usize, 0, 3, 1];
        let inv = inverse_permutation(&p).unwrap();
        assert_eq!(inv, vec![1, 3, 0, 2]);
        // Inverting twice recovers the original.
        assert_eq!(inverse_permutation(&inv).unwrap(), p);
        // Identity and empty are their own inverses.
        assert_eq!(inverse_permutation(&[0, 1, 2]).unwrap(), vec![0, 1, 2]);
        assert!(inverse_permutation(&[]).unwrap().is_empty());
    }

    #[test]
    fn inverse_permutation_rejects_non_bijections() {
        assert!(inverse_permutation(&[0, 0, 1]).is_err());
        assert!(inverse_permutation(&[0, 1, 5]).is_err());
    }

    #[test]
    fn gather_scatter_perm_round_trip() {
        let perm = vec![2usize, 0, 3, 1];
        let x = vec![10.0, 11.0, 12.0, 13.0];
        let gathered = gather_perm(&perm, &x);
        assert_eq!(gathered, vec![12.0, 10.0, 13.0, 11.0]);
        assert_eq!(scatter_perm(&perm, &gathered), x);
        // And the other composition order.
        assert_eq!(gather_perm(&perm, &scatter_perm(&perm, &x)), x);
    }

    #[test]
    fn permute_cols_reorders_columns_only() {
        let a = lower3();
        let q = vec![2usize, 0, 1];
        let b = permute_cols(&a, &q).unwrap();
        for (new, &old) in q.iter().enumerate() {
            assert_eq!(b.col_rows(new), a.col_rows(old), "col {new}");
            assert_eq!(b.col_values(new), a.col_values(old), "col {new}");
        }
        assert_eq!(b.nnz(), a.nnz());
        assert!(permute_cols(&a, &[0, 0, 1]).is_err());
        assert!(permute_cols(&a, &[0, 1]).is_err());
    }

    #[test]
    fn permute_rows_cols_matches_permute_sym() {
        // On a full-storage symmetric matrix the direct construction
        // must agree with the triplet-based symmetric permutation.
        let full = symmetrize_from_lower(&lower3()).unwrap();
        let perm = vec![1usize, 2, 0];
        let direct = permute_rows_cols(&full, &perm).unwrap();
        let via_triplets = permute_sym(&full, &perm).unwrap();
        assert_eq!(direct, via_triplets);
        // Diagonal entries stay diagonal under symmetric application.
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(direct.get(new, new), full.get(old, old));
        }
    }

    #[test]
    fn permute_rows_cols_entrywise_on_unsymmetric_input() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 0, 2.0);
        t.push(0, 1, 3.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, 5.0);
        let a = t.to_csc().unwrap();
        let perm = vec![2usize, 0, 1];
        let b = permute_rows_cols(&a, &perm).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(i, j), a.get(perm[i], perm[j]), "({i}, {j})");
            }
        }
        assert!(permute_rows_cols(&a, &[1, 0]).is_err());
        assert!(permute_rows_cols(&CscMatrix::zeros(2, 3), &[0, 1, 2]).is_err());
    }

    #[test]
    fn norms() {
        let a = lower3();
        assert_eq!(norm_1(&a), 7.0); // column 1: |3| + |4|
        assert!((norm_fro(&a) - (4.0f64 + 1.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        let a = lower3();
        // x = [1, 1, 1], b = A x
        let x = [1.0, 1.0, 1.0];
        let mut b = [0.0; 3];
        spmv(&a, &x, &mut b);
        assert!(rel_residual(&a, &x, &b) < 1e-15);
    }

    #[test]
    fn one_nan_makes_every_residual_metric_infinite() {
        let a = lower3();
        let x = [1.0, 1.0, 1.0];
        let mut b = [0.0; 3];
        spmv(&a, &x, &mut b);
        let one_nan = [1.0, f64::NAN, 1.0];
        let all_nan = [f64::NAN; 3];
        for bad in [&one_nan, &all_nan] {
            assert_eq!(rel_residual(&a, bad, &b), f64::INFINITY);
            assert_eq!(rel_residual_sym_lower(&a, bad, &b), f64::INFINITY);
            assert_eq!(componentwise_berr(&a, bad, &b), f64::INFINITY);
        }
        let mut poisoned = a.clone();
        poisoned.values_mut()[2] = f64::NAN;
        assert_eq!(rel_residual(&poisoned, &x, &b), f64::INFINITY);
        assert_eq!(componentwise_berr(&poisoned, &x, &b), f64::INFINITY);
        assert!(componentwise_berr(&a, &x, &b) < 1e-15);
    }

    #[test]
    fn spmv_sparse_matches_dense() {
        let a = lower3();
        let x = SparseVec::try_new(3, vec![1], vec![2.0]).unwrap();
        let b = spmv_sparse(&a, &x);
        let mut expect = [0.0; 3];
        spmv(&a, &x.to_dense(), &mut expect);
        assert_eq!(b.to_dense(), expect.to_vec());
    }

    #[test]
    fn is_symmetric_detects_asymmetry() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 2.0);
        let a = t.to_csc().unwrap();
        assert!(!is_symmetric(&a, 1e-12));
    }

    #[test]
    fn permute_rows_moves_rows_only() {
        let a = crate::gen::random_unsym(12, 3, 4);
        let p: Vec<usize> = (0..12).rev().collect();
        let b = permute_rows(&a, &p).unwrap();
        assert_eq!(b.col_ptr(), a.col_ptr(), "column layout untouched");
        for j in 0..12 {
            for (i, v) in b.col_iter(j) {
                assert_eq!(v, a.get(p[i], j), "B[{i},{j}] = A[p[{i}],{j}]");
            }
        }
        // Identity is a no-op.
        let id: Vec<usize> = (0..12).collect();
        assert_eq!(permute_rows(&a, &id).unwrap(), a);
        // Non-bijections are rejected.
        assert!(permute_rows(&a, &[0; 12]).is_err());
        assert!(permute_rows(&a, &[0, 1]).is_err());
    }

    #[test]
    fn permute_general_composes_row_and_col_maps() {
        let a = crate::gen::random_unsym(10, 3, 7);
        let rp: Vec<usize> = (0..10).map(|i| (i + 3) % 10).collect();
        let cp: Vec<usize> = (0..10).map(|i| (i * 7) % 10).collect();
        let b = permute_general(&a, &rp, &cp).unwrap();
        for j in 0..10 {
            for (i, v) in b.col_iter(j) {
                assert_eq!(v, a.get(rp[i], cp[j]));
            }
            assert_eq!(b.col_nnz(j), a.col_nnz(cp[j]));
        }
        // Equal maps reduce to the symmetric application; identity
        // columns reduce to the row permutation.
        assert_eq!(
            permute_general(&a, &rp, &rp).unwrap(),
            permute_rows_cols(&a, &rp).unwrap()
        );
        let id: Vec<usize> = (0..10).collect();
        assert_eq!(
            permute_general(&a, &rp, &id).unwrap(),
            permute_rows(&a, &rp).unwrap()
        );
    }

    #[test]
    fn zero_diagonal_census() {
        let mut t = TripletMatrix::new(4, 4);
        t.push(0, 0, 1.0);
        t.push(2, 2, 0.0); // numerically zero still counts as present
        t.push(1, 0, 1.0);
        t.push(3, 1, 1.0);
        t.push(0, 3, 1.0);
        let a = t.to_csc().unwrap();
        assert_eq!(structurally_zero_diagonals(&a), 2);
        assert_eq!(structurally_zero_diagonals(&CscMatrix::identity(5)), 0);
    }
}
