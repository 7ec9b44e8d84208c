//! The pattern check every compiled plan runs before its numeric phase.

use sympiler_sparse::{CscMatrix, PatternId};

/// The input pattern a plan was compiled for, held two ways: an
/// identity handle on the compiled matrix's pattern allocation, and the
/// pattern itself with its indices narrowed to `u32`.
///
/// [`Self::matches`] is a safety check — the numeric kernels address
/// baked tables by the input's entries — so it runs on every call, and
/// it tests identity first. An input carrying the compiled allocation
/// (the compiled matrix, its clones, and every value set derived from
/// them with `values_mut`) *is* the compiled pattern: a pattern is never
/// mutated, and the handle keeps the allocation's address from being
/// reused ([`PatternId`]), so that input is accepted without reading an
/// index. The handle is a weak reference: it pins ~80 bytes,
/// never the caller's indices. Every other input — a pattern built
/// separately, even an equal one — takes the full compare.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPattern {
    id: PatternId,
    n_rows: usize,
    /// The compiled column pointers and row indices, also read by the
    /// position-addressed walker of the LU plan.
    pub(crate) col_ptr: Vec<u32>,
    pub(crate) row_idx: Vec<u32>,
}

impl CompiledPattern {
    /// Capture `a`'s pattern. The caller has rejected patterns whose
    /// entry count or row count does not fit `u32`.
    pub(crate) fn new(a: &CscMatrix) -> Self {
        debug_assert!(a.nnz() as u64 <= u32::MAX as u64 && a.n_rows() as u64 <= 1 << 32);
        let narrow = |idx: &[usize]| idx.iter().map(|&i| i as u32).collect();
        Self {
            id: a.pattern_id(),
            n_rows: a.n_rows(),
            col_ptr: narrow(a.col_ptr()),
            row_idx: narrow(a.row_idx()),
        }
    }

    /// True iff `a` has exactly the compiled shape and pattern: its
    /// pattern allocation is the compiled one, or its row count, column
    /// pointers (which fix the column count) and row indices all equal
    /// the compiled ones.
    ///
    /// The compare runs at memory speed: fixed-size chunks with an
    /// OR-accumulated difference and no early exit inside a chunk, which
    /// vectorises. The compiled `u32` is widened, never the input
    /// narrowed: an index of `c + 2³²` is a mismatch, not a truncated
    /// match.
    pub(crate) fn matches(&self, a: &CscMatrix) -> bool {
        self.id.is_pattern_of(a)
            || (a.n_rows() == self.n_rows
                && same_indices(a.col_ptr(), &self.col_ptr)
                && same_indices(a.row_idx(), &self.row_idx))
    }

    /// Resident bytes of the index copy (the identity handle is not a
    /// table).
    pub(crate) fn bytes(&self) -> usize {
        (self.col_ptr.len() + self.row_idx.len()) * 4
    }
}

/// `a` rebuilt from fresh arrays: its pattern, never its allocation.
#[cfg(test)]
pub(crate) fn rebuilt(a: &CscMatrix) -> CscMatrix {
    let (col_ptr, rows, vals) = (a.col_ptr(), a.row_idx(), a.values());
    CscMatrix::try_new(
        a.n_rows(),
        a.n_cols(),
        col_ptr.into(),
        rows.into(),
        vals.into(),
    )
    .expect("a valid matrix rebuilds")
}

/// `a` with one row index moved down a row (the last entry of the first
/// column that has room): the same order and entry count, a different
/// pattern. Lower storage stays lower.
#[cfg(test)]
pub(crate) fn moved_one_row(a: &CscMatrix) -> CscMatrix {
    let mut rows = a.row_idx().to_vec();
    let last = (0..a.n_cols())
        .map(|j| a.col_range(j))
        .find(|r| !r.is_empty() && rows[r.end - 1] + 1 < a.n_rows())
        .expect("some column can take a lower row")
        .end
        - 1;
    rows[last] += 1;
    let col_ptr = a.col_ptr().to_vec();
    CscMatrix::try_new(a.n_rows(), a.n_cols(), col_ptr, rows, a.values().into())
        .expect("moving a column's last row down keeps it sorted")
}

fn same_indices(given: &[usize], compiled: &[u32]) -> bool {
    const CHUNK: usize = 64;
    // Lengths first, so the chunks pair up exactly.
    given.len() == compiled.len()
        && given
            .chunks(CHUNK)
            .zip(compiled.chunks(CHUNK))
            .all(|(g, c)| {
                let diff = g.iter().zip(c).fold(0, |d, (&g, &c)| d | (g ^ c as usize));
                diff == 0
            })
}
