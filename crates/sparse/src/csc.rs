//! Compressed sparse column (CSC) storage.
//!
//! This mirrors the `{n, Lp, Li, Lx}` quadruple used throughout the
//! Sympiler paper (Figure 1): `col_ptr` (`Lp`) has `n_cols + 1` entries,
//! `row_idx` (`Li`) holds the row index of each stored entry, and
//! `values` (`Lx`) the numeric value. Entries within a column are sorted
//! by row index and duplicate-free.
//!
//! The pattern (`n_rows`, `n_cols`, `Lp`, `Li`) is immutable once built
//! and `Arc`-shared: a clone copies the values only, so the value sets
//! of one pattern — the paper's premise that "the sparsity pattern
//! changes little or not at all" — hold one copy of its indices, and a
//! compiled plan can recognise that pattern by its allocation
//! ([`PatternId`]) instead of by comparing every index. For the same
//! reason the pattern's fingerprint ([`CscMatrix::pattern_fingerprint`])
//! is computed once per allocation and read by every clone.

use crate::error::SparseError;
use crate::Result;
use std::sync::{Arc, OnceLock, Weak};

/// The structure of a [`CscMatrix`]: shape, column pointers and row
/// indices. Never mutated after construction; shared by every clone.
#[derive(Debug, Clone)]
struct Pattern {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    /// The fingerprint of the four fields above, memoised on first use.
    /// Sound because they never change; a cache, so not part of `==`.
    fingerprint: OnceLock<[u64; LANES]>,
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
    }
}

/// Independent multiply–rotate chains the pattern words are dealt
/// across. One chain is bound by the latency of its 64-bit multiply;
/// four chains a word at a time keep the multiplier busy and put the
/// hash near the speed the index arrays stream from cache.
const LANES: usize = 4;

/// Fixed odd constants (the FNV-1a offset basis, the golden-ratio
/// increment and the splitmix64 / xxh64 multipliers): no `RandomState`,
/// so fingerprints — and every key derived from them — repeat across
/// runs and platforms.
const LANE_SEED: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
];
const LANE_MUL: [u64; LANES] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

/// One step of a lane: a bijection of the state for a fixed word and
/// of the word for a fixed state, so changing one word always changes
/// its lane; the rotate carries the product's high bits back down.
#[inline(always)]
fn lane_step(h: u64, word: u64, lane: usize) -> u64 {
    (h ^ word).wrapping_mul(LANE_MUL[lane]).rotate_left(29)
}

/// Absorb one index stream: its length first (so `[.., x] ++ []` and
/// `[..] ++ [x]` differ), then word `i` into lane `i % LANES`. Words
/// are widened to 64 bits, so fingerprints agree across pointer widths.
fn absorb(mut h: [u64; LANES], words: &[usize]) -> [u64; LANES] {
    h[0] = lane_step(h[0], words.len() as u64, 0);
    let mut groups = words.chunks_exact(LANES);
    for g in &mut groups {
        for lane in 0..LANES {
            h[lane] = lane_step(h[lane], g[lane] as u64, lane);
        }
    }
    for (lane, &w) in groups.remainder().iter().enumerate() {
        h[lane] = lane_step(h[lane], w as u64, lane);
    }
    h
}

/// A sparse matrix in compressed sparse column format.
///
/// Invariants (enforced by [`CscMatrix::try_new`], assumed everywhere):
/// * `col_ptr.len() == n_cols + 1`, `col_ptr[0] == 0`, monotone
///   non-decreasing, `col_ptr[n_cols] == row_idx.len() == values.len()`;
/// * within each column, row indices are strictly increasing and
///   `< n_rows`.
///
/// The pattern is shared and immutable, the values owned: `clone()`
/// copies `values` and bumps a reference count, and [`Self::values_mut`]
/// is the only mutable access.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    pattern: Arc<Pattern>,
    values: Vec<f64>,
}

/// Equal shape, pattern and values (`f64` equality, so a NaN value is
/// unequal to itself) — whether or not the two share a pattern.
impl PartialEq for CscMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.same_pattern(other) && self.values == other.values
    }
}

/// An identity handle on the pattern allocation of a [`CscMatrix`]
/// ([`CscMatrix::pattern_id`]): what a compiled plan keeps to recognise
/// the matrices it was compiled from without comparing their indices.
///
/// The handle is a [`Weak`] reference, so it never keeps a pattern's
/// indices alive — once every matrix sharing the pattern is dropped the
/// indices are freed and [`Self::is_live`] turns false — but it does keep
/// the allocation's address reserved. [`Self::is_pattern_of`] is
/// therefore exact: a pattern is never mutated, and no other pattern can
/// be allocated at this address while the handle exists.
#[derive(Debug, Clone)]
pub struct PatternId(Weak<Pattern>);

impl PatternId {
    /// True if `a` carries this very pattern allocation — and so,
    /// exactly, the pattern the handle was taken from. False for an
    /// equal pattern built separately: that is for a content comparison
    /// to decide.
    #[inline]
    pub fn is_pattern_of(&self, a: &CscMatrix) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&a.pattern))
    }

    /// True while some matrix still holds the pattern.
    pub fn is_live(&self) -> bool {
        self.0.strong_count() > 0
    }
}

impl CscMatrix {
    /// Build a CSC matrix, validating every structural invariant.
    pub fn try_new(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if col_ptr.len() != n_cols + 1 {
            return Err(SparseError::BadColPtr(format!(
                "col_ptr.len() = {} but n_cols + 1 = {}",
                col_ptr.len(),
                n_cols + 1
            )));
        }
        if col_ptr[0] != 0 {
            return Err(SparseError::BadColPtr(format!(
                "col_ptr[0] = {} (must be 0)",
                col_ptr[0]
            )));
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch(format!(
                "row_idx.len() = {} but values.len() = {}",
                row_idx.len(),
                values.len()
            )));
        }
        if *col_ptr.last().unwrap() != row_idx.len() {
            return Err(SparseError::BadColPtr(format!(
                "col_ptr[n_cols] = {} but nnz = {}",
                col_ptr.last().unwrap(),
                row_idx.len()
            )));
        }
        for j in 0..n_cols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(SparseError::BadColPtr(format!(
                    "col_ptr not monotone at column {j}"
                )));
            }
            let col = &row_idx[col_ptr[j]..col_ptr[j + 1]];
            for (k, &r) in col.iter().enumerate() {
                if r >= n_rows {
                    return Err(SparseError::BadRowIndex(format!(
                        "row index {r} >= n_rows {n_rows} in column {j}"
                    )));
                }
                if k > 0 && col[k - 1] >= r {
                    return Err(SparseError::BadRowIndex(format!(
                        "row indices not strictly increasing in column {j}: {} then {r}",
                        col[k - 1]
                    )));
                }
            }
        }
        Ok(Self::assemble(n_rows, n_cols, col_ptr, row_idx, values))
    }

    /// Wrap validated arrays: the one place a pattern is allocated.
    fn assemble(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        Self {
            pattern: Arc::new(Pattern {
                n_rows,
                n_cols,
                col_ptr,
                row_idx,
                fingerprint: OnceLock::new(),
            }),
            values,
        }
    }

    /// Build without validation. Used on hot paths where the caller has
    /// just constructed provably valid arrays; debug builds still verify.
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(
            Self::try_new(
                n_rows,
                n_cols,
                col_ptr.clone(),
                row_idx.clone(),
                values.clone()
            )
            .is_ok(),
            "from_parts_unchecked given invalid CSC arrays"
        );
        Self::assemble(n_rows, n_cols, col_ptr, row_idx, values)
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let col_ptr: Vec<usize> = (0..=n).collect();
        let row_idx: Vec<usize> = (0..n).collect();
        let values = vec![1.0; n];
        Self::from_parts_unchecked(n, n, col_ptr, row_idx, values)
    }

    /// A matrix with no stored entries.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self::from_parts_unchecked(n_rows, n_cols, vec![0; n_cols + 1], Vec::new(), Vec::new())
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.pattern.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.pattern.n_cols
    }

    /// Number of stored (structural) nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column pointer array (`Lp` in the paper).
    #[inline]
    pub fn col_ptr(&self) -> &[usize] {
        &self.pattern.col_ptr
    }

    /// The row index array (`Li` in the paper).
    #[inline]
    pub fn row_idx(&self) -> &[usize] {
        &self.pattern.row_idx
    }

    /// The value array (`Lx` in the paper).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to values only — the pattern stays fixed, which is
    /// exactly the contract Sympiler relies on (static sparsity, §1.2).
    /// A clone's values are its own: writing them leaves every other
    /// matrix sharing the pattern untouched.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The half-open range of storage indices for column `j`.
    #[inline]
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        let col_ptr = &self.pattern.col_ptr;
        col_ptr[j]..col_ptr[j + 1]
    }

    /// Row indices of column `j`.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.pattern.row_idx[self.col_range(j)]
    }

    /// Values of column `j`.
    #[inline]
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.col_range(j)]
    }

    /// Number of stored entries in column `j`
    /// (the paper's "column count" for `L`).
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr()[j + 1] - self.col_ptr()[j]
    }

    /// Iterate over `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.col_range(j);
        self.pattern.row_idx[r.clone()]
            .iter()
            .copied()
            .zip(self.values[r].iter().copied())
    }

    /// Value at `(i, j)`, or 0.0 if the entry is not stored.
    /// Binary search; O(log nnz(col j)). For tests and convenience, not
    /// for inner loops.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.n_rows() && j < self.n_cols(),
            "index out of bounds"
        );
        let rows = self.col_rows(j);
        match rows.binary_search(&i) {
            Ok(k) => self.values[self.col_ptr()[j] + k],
            Err(_) => 0.0,
        }
    }

    /// Storage position of entry `(i, j)` if present.
    pub fn find(&self, i: usize, j: usize) -> Option<usize> {
        let rows = self.col_rows(j);
        rows.binary_search(&i).ok().map(|k| self.col_ptr()[j] + k)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.n_rows() == self.n_cols()
    }

    /// True if every stored entry lies on or below the diagonal **and**
    /// every column's first stored entry is exactly the diagonal — the
    /// shape required of the `L` operand in triangular solve.
    pub fn is_lower_triangular_with_diag(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        (0..self.n_cols()).all(|j| {
            let rows = self.col_rows(j);
            rows.first() == Some(&j)
        })
    }

    /// True if only entries on or below the diagonal are stored
    /// (the symmetric-lower storage convention of the paper's `A`).
    pub fn is_lower_storage(&self) -> bool {
        (0..self.n_cols()).all(|j| self.col_rows(j).iter().all(|&i| i >= j))
    }

    /// True if every column's last stored entry is exactly the
    /// diagonal — the shape of the `U` factor in LU (diagonal-last
    /// columns). Under the struct's strictly-increasing-rows invariant
    /// this implies every stored entry lies on or above the diagonal
    /// (the same argument [`Self::is_lower_triangular_with_diag`]
    /// makes with the first entry).
    pub fn is_upper_triangular_with_diag(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        (0..self.n_cols()).all(|j| {
            let rows = self.col_rows(j);
            rows.last() == Some(&j)
        })
    }

    /// Densify into a column-major `Vec` (`n_rows * n_cols`).
    /// For tests and small examples only.
    pub fn to_dense(&self) -> Vec<f64> {
        let (n_rows, n_cols) = (self.n_rows(), self.n_cols());
        let mut d = vec![0.0; n_rows * n_cols];
        for j in 0..n_cols {
            for (i, v) in self.col_iter(j) {
                d[j * n_rows + i] = v;
            }
        }
        d
    }

    /// The sparsity pattern with all values set to a constant. Useful for
    /// symbolic-phase tests where only structure matters. Shares this
    /// matrix's pattern.
    pub fn pattern_only(&self, fill: f64) -> CscMatrix {
        CscMatrix {
            pattern: Arc::clone(&self.pattern),
            values: vec![fill; self.nnz()],
        }
    }

    /// True if the two matrices have the identical sparsity pattern:
    /// at once when they share the pattern allocation, by comparing
    /// shape and indices otherwise.
    pub fn same_pattern(&self, other: &CscMatrix) -> bool {
        Arc::ptr_eq(&self.pattern, &other.pattern) || self.pattern == other.pattern
    }

    /// The pattern's fingerprint: four 64-bit lanes digesting the shape
    /// (`[n_rows, n_cols]`), every `col_ptr` word and every `row_idx`
    /// word — never a value. Equal patterns have equal fingerprints;
    /// unequal ones almost always differ, which is why a cache keyed by
    /// it still compares patterns exactly before trusting a match.
    ///
    /// The first call on a pattern allocation reads its indices once
    /// (O(nnz)); the result is kept in the shared pattern, so every
    /// later call — on this matrix, its clones or its
    /// [`Self::pattern_only`] copies — returns it without reading an
    /// index. A pattern is never mutated, so the kept value cannot go
    /// stale.
    pub fn pattern_fingerprint(&self) -> [u64; LANES] {
        let p = &*self.pattern;
        *p.fingerprint.get_or_init(|| {
            let lanes = absorb(LANE_SEED, &[p.n_rows, p.n_cols]);
            let lanes = absorb(lanes, &p.col_ptr);
            absorb(lanes, &p.row_idx)
        })
    }

    /// The identity handle of this matrix's pattern allocation, shared
    /// by its clones and [`Self::pattern_only`] copies.
    pub fn pattern_id(&self) -> PatternId {
        PatternId(Arc::downgrade(&self.pattern))
    }

    /// Consume the matrix, returning `(n_rows, n_cols, col_ptr, row_idx,
    /// values)`. The index arrays are moved out when no other matrix
    /// shares the pattern and copied when one does, which leaves that
    /// matrix intact.
    pub fn into_parts(self) -> (usize, usize, Vec<usize>, Vec<usize>, Vec<f64>) {
        let Pattern {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            ..
        } = Arc::unwrap_or_clone(self.pattern);
        (n_rows, n_cols, col_ptr, row_idx, self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3x3 lower triangular:
    /// [2 . .]
    /// [1 3 .]
    /// [. 4 5]
    fn small_lower() -> CscMatrix {
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
    fn valid_construction() {
        let m = small_lower();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn rejects_bad_colptr_length() {
        let e = CscMatrix::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::BadColPtr(_))));
    }

    #[test]
    fn rejects_nonzero_first_colptr() {
        let e = CscMatrix::try_new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::BadColPtr(_))));
    }

    #[test]
    fn rejects_nonmonotone_colptr() {
        let e = CscMatrix::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadColPtr(_))));
    }

    #[test]
    fn rejects_row_out_of_range() {
        let e = CscMatrix::try_new(2, 2, vec![0, 1, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::BadRowIndex(_))));
    }

    #[test]
    fn rejects_unsorted_rows() {
        let e = CscMatrix::try_new(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadRowIndex(_))));
    }

    #[test]
    fn rejects_duplicate_rows() {
        let e = CscMatrix::try_new(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::BadRowIndex(_))));
    }

    #[test]
    fn rejects_value_length_mismatch() {
        let e = CscMatrix::try_new(2, 1, vec![0, 1], vec![0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::LengthMismatch(_))));
    }

    #[test]
    fn rejects_colptr_nnz_mismatch() {
        let e = CscMatrix::try_new(2, 1, vec![0, 2], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::BadColPtr(_))));
    }

    #[test]
    fn get_and_find() {
        let m = small_lower();
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.find(2, 2), Some(4));
        assert_eq!(m.find(0, 1), None);
    }

    #[test]
    fn identity_shape() {
        let i = CscMatrix::identity(4);
        assert!(i.is_lower_triangular_with_diag());
        assert_eq!(i.nnz(), 4);
        for k in 0..4 {
            assert_eq!(i.get(k, k), 1.0);
        }
    }

    #[test]
    fn lower_triangular_detection() {
        assert!(small_lower().is_lower_triangular_with_diag());
        // Missing diagonal in column 0.
        let no_diag = CscMatrix::try_new(2, 2, vec![0, 1, 2], vec![1, 1], vec![1.0, 1.0]).unwrap();
        assert!(!no_diag.is_lower_triangular_with_diag());
        assert!(no_diag.is_lower_storage());
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let m = small_lower();
        let d = m.to_dense();
        // column-major
        assert_eq!(d[0], 2.0); // (0,0)
        assert_eq!(d[1], 1.0); // (1,0)
        assert_eq!(d[3 + 1], 3.0); // (1,1)
        assert_eq!(d[3 + 2], 4.0); // (2,1)
        assert_eq!(d[6 + 2], 5.0); // (2,2)
        assert_eq!(d.iter().filter(|&&x| x != 0.0).count(), 5);
    }

    #[test]
    fn pattern_only_and_same_pattern() {
        let m = small_lower();
        let p = m.pattern_only(1.0);
        assert!(m.same_pattern(&p));
        assert!(p.values().iter().all(|&v| v == 1.0));
        let other = CscMatrix::identity(3);
        assert!(!m.same_pattern(&other));
    }

    #[test]
    fn values_mut_on_a_clone_leaves_the_original() {
        let m = small_lower();
        let before: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        let mut c = m.clone();
        for v in c.values_mut() {
            *v = -*v * 3.0;
        }
        assert!(
            m.pattern_id().is_pattern_of(&c),
            "the clone shares the pattern"
        );
        let after: Vec<u64> = m.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(before, after);
        assert_ne!(m, c);
    }

    #[test]
    fn into_parts_of_a_shared_matrix_copies_and_leaves_the_other_clone() {
        let m = small_lower();
        let c = m.clone();
        let (n_rows, n_cols, col_ptr, row_idx, values) = c.into_parts();
        assert_eq!((n_rows, n_cols), (3, 3));
        assert_eq!(col_ptr, m.col_ptr());
        assert_eq!(row_idx, m.row_idx());
        assert_eq!(values, m.values());
        // The survivor is whole, and now the pattern's only holder: its
        // own `into_parts` moves the arrays out.
        assert_eq!(m, small_lower());
        let id = m.pattern_id();
        let parts = m.into_parts();
        assert_eq!(parts.3, vec![0, 1, 1, 2, 2]);
        assert!(!id.is_live());
    }

    #[test]
    fn equality_and_same_pattern_compare_contents_across_allocations() {
        let (m, rebuilt) = (small_lower(), small_lower());
        assert!(!m.pattern_id().is_pattern_of(&rebuilt));
        assert!(m == rebuilt && m.same_pattern(&rebuilt));
        // One row index differs (column 0: rows {0, 2} instead of {0, 1}).
        let moved = CscMatrix::try_new(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 2, 1, 2, 2],
            m.values().to_vec(),
        )
        .unwrap();
        assert!(m != moved && !m.same_pattern(&moved));
        // Only `n_rows` differs.
        let taller = CscMatrix::try_new(
            4,
            3,
            m.col_ptr().to_vec(),
            m.row_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert!(m != taller && !m.same_pattern(&taller));
    }

    #[test]
    fn pattern_only_shares_the_allocation() {
        let m = small_lower();
        let p = m.pattern_only(0.5);
        assert!(m.pattern_id().is_pattern_of(&p));
        assert!(p.pattern_id().is_pattern_of(&m));
    }

    #[test]
    fn the_identity_handle_never_keeps_a_pattern_alive() {
        let m = small_lower();
        let c = m.clone();
        let id = m.pattern_id();
        drop(m);
        assert!(id.is_live() && id.is_pattern_of(&c));
        drop(c);
        assert_eq!(id.0.strong_count(), 0);
        assert!(!id.is_live());
        // A new matrix never lands on the handle's reserved address.
        assert!(!id.is_pattern_of(&small_lower()));
    }

    /// The memo is a cache: whether a pattern has computed its
    /// fingerprint never changes what `==` or `same_pattern` answer.
    #[test]
    fn equality_ignores_whether_the_fingerprint_is_memoised() {
        let memoised = small_lower();
        memoised.pattern_fingerprint();
        let (unmemoised, rebuilt) = (small_lower(), small_lower());
        rebuilt.pattern_fingerprint();
        assert!(unmemoised.pattern.fingerprint.get().is_none());
        for (x, y) in [
            (&memoised, &unmemoised),
            (&unmemoised, &memoised),
            (&memoised, &rebuilt),
            (&unmemoised, &rebuilt),
        ] {
            assert!(x == y && x.same_pattern(y));
        }
        assert!(unmemoised.pattern.fingerprint.get().is_none());
        let other = CscMatrix::identity(3);
        other.pattern_fingerprint();
        assert!(memoised != other && !memoised.same_pattern(&other));
        assert!(unmemoised != other && !unmemoised.same_pattern(&other));
    }

    #[test]
    fn a_clone_reads_its_sources_fingerprint() {
        let m = small_lower();
        let fp = m.pattern_fingerprint();
        let (c, p) = (m.clone(), m.pattern_only(0.0));
        assert!(Arc::ptr_eq(&m.pattern, &c.pattern));
        assert_eq!(c.pattern.fingerprint.get(), Some(&fp));
        assert_eq!((c.pattern_fingerprint(), p.pattern_fingerprint()), (fp, fp));
    }

    #[test]
    fn a_pattern_rebuilt_from_its_parts_has_the_same_fingerprint() {
        let m = small_lower();
        let fp = m.pattern_fingerprint();
        let (n_rows, n_cols, col_ptr, row_idx, values) = m.clone().into_parts();
        let fresh = CscMatrix::try_new(n_rows, n_cols, col_ptr, row_idx, values).unwrap();
        assert!(!m.pattern_id().is_pattern_of(&fresh));
        assert!(fresh.pattern.fingerprint.get().is_none(), "a fresh memo");
        assert_eq!(fresh.pattern_fingerprint(), fp);
    }

    #[test]
    fn one_index_or_the_row_count_changes_the_fingerprint() {
        let m = small_lower();
        let moved = CscMatrix::try_new(
            3,
            3,
            vec![0, 2, 4, 5],
            vec![0, 2, 1, 2, 2],
            m.values().to_vec(),
        )
        .unwrap();
        let taller = CscMatrix::try_new(
            4,
            3,
            m.col_ptr().to_vec(),
            m.row_idx().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        let fp = m.pattern_fingerprint();
        assert_ne!(moved.pattern_fingerprint(), fp);
        assert_ne!(taller.pattern_fingerprint(), fp);
        // Values are not pattern.
        let mut scaled = m.clone().into_parts();
        scaled.4.iter_mut().for_each(|v| *v *= -2.0);
        let (r, c, p, i, v) = scaled;
        assert_eq!(
            CscMatrix::try_new(r, c, p, i, v)
                .unwrap()
                .pattern_fingerprint(),
            fp
        );
    }

    #[test]
    fn col_iter_matches_get() {
        let m = small_lower();
        for j in 0..3 {
            for (i, v) in m.col_iter(j) {
                assert_eq!(m.get(i, j), v);
            }
        }
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CscMatrix::zeros(3, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.n_rows(), 3);
        assert_eq!(z.n_cols(), 2);
        assert_eq!(z.get(2, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        small_lower().get(3, 0);
    }
}
