//! COLAMD-style approximate-minimum-degree **column** ordering.
//!
//! The fill of an LU factorization of `A Q` (for *any* row permutation
//! chosen later, including the static diagonal pivoting Sympiler
//! compiles for when `Q` is applied symmetrically) is contained in the
//! Cholesky fill of `(A Q)ᵀ (A Q) = Qᵀ (AᵀA) Q` — so a fill-reducing
//! column ordering for LU is a minimum-degree ordering of the **column
//! intersection graph** of `AᵀA`, in which columns `i` and `j` are
//! adjacent iff they share a row of `A`. Forming `AᵀA` can be
//! asymptotically more expensive than the factorization itself (one
//! dense row makes it fully dense), so — like Davis/Gilbert/Larimore's
//! COLAMD — this implementation runs minimum degree directly on a
//! **quotient-graph** representation of `A`'s rows:
//!
//! * each *row* of `A` is a clique constraint over the columns it
//!   touches; eliminating a pivot column merges all of its rows into
//!   one new **element** (their union minus the pivot), exactly the
//!   quotient-graph step of AMD transplanted to `AᵀA`;
//! * column degrees are **approximate external degrees**: the pivot
//!   element's contribution is exact, every other row contributes its
//!   set difference with the pivot element (an upper bound on the true
//!   degree that never double-counts the freshest element);
//! * rows whose columns are all inside the new element are **absorbed**
//!   (their constraint is implied), keeping row lists from growing;
//! * columns of the pivot element with *identical* row lists are merged
//!   into **supercolumns** (detected by hashing, confirmed exactly) and
//!   ordered consecutively when their representative pivots;
//! * **dense rows and columns are stripped** up front: a dense row
//!   would glue the whole column graph into one clique and poison every
//!   degree estimate, so it is ignored during ordering; dense columns
//!   are ordered last, where they would have ended up anyway.
//!
//! **Storage.** Both incidence directions are `u32` lists in flat
//! arenas with one record per list, built once by counting sort and
//! never reallocated. A column's row list holds exactly its live rows
//! and only shrinks between rebuilds (it loses at least the pivot's
//! row before it gains the new element), so it is rewritten in place.
//! A row's list is written once and read once — when the row is merged
//! into an element — so it is never pruned: beside it the row record
//! keeps `live`, the number of its columns that are still candidates.
//! A pivot step therefore reads the contents of the pivot's own rows
//! (to form the element) and, twice, the row lists of the element's
//! columns — never the contents of the rows next to them: the first
//! walk counts `|r ∩ e|` by visits, which gives every adjacent row's
//! external size as `|r \ e| = live(r) − |r ∩ e|`; the second rebuilds
//! each column's list (dropping dead rows and rows with `|r \ e| = 0`,
//! which the element absorbs) and sums the sizes into the new score.
//! `live` stays exact because a candidate column leaves the graph in
//! only two ways: it pivots, and every row holding it dies with it; or
//! it is absorbed into a supercolumn, and its row list — at that moment
//! exactly its live rows — is walked to decrement each. Each new
//! element is appended behind the last row in an arena of twice the
//! initial entry count, compacted in place when the tail runs out. The
//! bound holds with unpruned rows: every column of a new element was
//! read out of a row the element kills, so its stored length is at most
//! theirs, and the stored entries of the live rows never exceed the
//! initial count. A dead row or absorbed column is a list of length
//! zero. Pivot selection is an indexed 4-ary min-heap over the packed
//! key `(score, column)`: a re-scored column moves in place, an
//! absorbed one is removed, so there is one pop per pivot; supercolumn
//! members hang off their representative as an intrusive linked list;
//! all per-pivot scratch is reused.
//!
//! **Index limit.** Row ids (`m` rows, then at most `n` elements) and
//! arena offsets (`2·nnz(A)` row entries) are `u32`, so the input must
//! satisfy `2·nnz(A) + m + n < 2³²` ([`index_limit_ok`]); scores are
//! bounded by `n + nnz(A)` and fit with it.
//!
//! **Input.** Each column's rows are read as a *set*: a column that is
//! not strictly ascending (possible only through
//! `CscMatrix::from_parts_unchecked`) is sorted and its repeats dropped
//! while the lists are built, so the counts above hold for any input
//! whose indices are in range.
//!
//! The result is a permutation `perm` with `perm[new] = old`, the same
//! convention as [`crate::rcm::rcm_ordering`] and the
//! `sympiler_sparse::ops` permutation helpers. Everything here is
//! pattern-only and deterministic: ties break on the smallest column
//! index, so one sparsity pattern always produces one ordering — a
//! requirement for Sympiler's compile-once premise.

use sympiler_sparse::CscMatrix;

#[cfg(test)]
mod reference;

/// Tuning knobs for [`colamd_ordering_with`]. The defaults follow the
/// reference COLAMD: a row or column is "dense" when it has more than
/// `max(dense_floor, dense_factor * sqrt(n))` entries.
#[derive(Debug, Clone, Copy)]
pub struct ColamdConfig {
    /// Multiplier on `sqrt(n)` in the dense-row/column threshold.
    pub dense_factor: f64,
    /// Lower bound of the dense threshold (small matrices never strip).
    pub dense_floor: usize,
}

impl Default for ColamdConfig {
    fn default() -> Self {
        Self {
            dense_factor: 10.0,
            dense_floor: 16,
        }
    }
}

impl ColamdConfig {
    fn threshold(&self, n: usize) -> usize {
        let t = (self.dense_factor * (n as f64).sqrt()) as usize;
        t.max(self.dense_floor)
    }
}

/// Whether an `n_rows × n_cols` pattern of `nnz` entries fits the
/// ordering's `u32` indices: `2·nnz + n_rows + n_cols < 2³²`.
pub fn index_limit_ok(n_rows: usize, n_cols: usize, nnz: usize) -> bool {
    (nnz as u128) * 2 + n_rows as u128 + (n_cols as u128) < 1 << 32
}

const NONE: u32 = u32::MAX;

/// Column liveness in the quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    /// Still a candidate pivot.
    Alive,
    /// A candidate already collected into the element being formed.
    InElement,
    /// Emitted into the ordering (as a pivot).
    Ordered,
    /// Merged into a supercolumn; emitted with its representative.
    Absorbed,
    /// Stripped as dense; appended after all sparse columns.
    Dense,
}

/// A column's list of live rows (ascending) in the column arena, and
/// its supercolumn chain: `next_member` links the columns absorbed into
/// it in absorption order, `last_member` is the tail.
#[derive(Clone, Copy)]
struct Col {
    start: u32,
    len: u32,
    next_member: u32,
    last_member: u32,
}

impl Col {
    /// The column's list in the column arena.
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A row of the quotient graph: a row of `A` or the element of a pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    start: u32,
    /// Stored columns, candidates or not. Zero once the row is dead: a
    /// live row holds every candidate column it constrains, so it is
    /// never empty while a candidate still refers to it.
    len: u32,
    /// Candidate columns among the stored ones.
    live: u32,
    /// `|row \ element|` of the pivot step numbered `stamp`.
    ext: u32,
    stamp: u32,
}

/// The row lists (`A`'s rows, then one element per pivot) packed in one
/// arena whose capacity is fixed at construction.
struct Rows {
    rows: Vec<Row>,
    items: Vec<u32>,
}

impl Rows {
    fn list(&self, r: usize) -> &[u32] {
        let row = &self.rows[r];
        &self.items[row.start as usize..(row.start + row.len) as usize]
    }

    /// Append `list`, every entry a candidate, as a new row and return
    /// its index, compacting the arena first when its tail cannot take
    /// it.
    fn push(&mut self, list: &[u32]) -> u32 {
        if self.items.len() + list.len() > self.items.capacity() {
            self.compact();
        }
        let len = list.len() as u32;
        self.rows.push(Row {
            start: self.items.len() as u32,
            len,
            live: len,
            ext: 0,
            stamp: 0,
        });
        self.items.extend_from_slice(list);
        self.rows.len() as u32 - 1
    }

    /// Slide the live lists to the front. Lists sit in index order, so
    /// every move is towards the front and none overwrites a list not
    /// yet moved.
    fn compact(&mut self) {
        let mut w = 0;
        for row in &mut self.rows {
            let s = row.start as usize;
            self.items.copy_within(s..s + row.len as usize, w);
            row.start = w as u32;
            w += row.len as usize;
        }
        self.items.truncate(w);
    }
}

/// Indexed 4-ary min-heap of the candidate columns, keyed by
/// `score << 32 | column`: the minimum is the lowest score and, among
/// equal scores, the smallest column index. `pos[column]` is the
/// column's slot in `keys` while it is in the heap.
struct MinHeap {
    keys: Vec<u64>,
    pos: Vec<u32>,
}

impl MinHeap {
    const ARITY: usize = 4;

    /// Heap of `(score, column)` entries, columns distinct and below
    /// `n_cols`.
    fn new(n_cols: usize, entries: impl Iterator<Item = (u32, u32)>) -> Self {
        let mut heap = Self {
            keys: entries.map(|(s, c)| (s as u64) << 32 | c as u64).collect(),
            pos: vec![NONE; n_cols],
        };
        for (i, &key) in heap.keys.iter().enumerate() {
            heap.pos[key as u32 as usize] = i as u32;
        }
        if heap.keys.len() > 1 {
            for i in (0..=(heap.keys.len() - 2) / Self::ARITY).rev() {
                heap.sift_down(i, heap.keys[i]);
            }
        }
        heap
    }

    /// Remove and return the minimum column.
    fn pop(&mut self) -> Option<u32> {
        let min = *self.keys.first()? as u32;
        self.remove(min);
        Some(min)
    }

    /// Re-key `col`, which must be in the heap, to `score`.
    fn update(&mut self, col: u32, score: u32) {
        let i = self.pos[col as usize] as usize;
        let key = (score as u64) << 32 | col as u64;
        if key < self.keys[i] {
            self.sift_up(i, key);
        } else if key > self.keys[i] {
            self.sift_down(i, key);
        }
    }

    /// Take `col`, which must be in the heap, out of it.
    fn remove(&mut self, col: u32) {
        let i = self.pos[col as usize] as usize;
        let last = self.keys.pop().expect("the heap holds `col`");
        if i < self.keys.len() {
            if last < self.keys[i] {
                self.sift_up(i, last);
            } else {
                self.sift_down(i, last);
            }
        }
    }

    /// Settle `key` at slot `i` or above, its slot being free.
    fn sift_up(&mut self, mut i: usize, key: u64) {
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.keys[parent] <= key {
                break;
            }
            self.place(i, self.keys[parent]);
            i = parent;
        }
        self.place(i, key);
    }

    /// Settle `key` at slot `i` or below, its slot being free.
    fn sift_down(&mut self, mut i: usize, key: u64) {
        loop {
            let first = Self::ARITY * i + 1;
            if first >= self.keys.len() {
                break;
            }
            let end = (first + Self::ARITY).min(self.keys.len());
            let (mut child, mut least) = (first, self.keys[first]);
            for c in first + 1..end {
                if self.keys[c] < least {
                    (child, least) = (c, self.keys[c]);
                }
            }
            if key <= least {
                break;
            }
            self.place(i, least);
            i = child;
        }
        self.place(i, key);
    }

    fn place(&mut self, i: usize, key: u64) {
        self.keys[i] = key;
        self.pos[key as u32 as usize] = i as u32;
    }
}

/// Compute a COLAMD-style column ordering of `a` with default
/// parameters. Returns `perm` with `perm[new] = old`.
pub fn colamd_ordering(a: &CscMatrix) -> Vec<usize> {
    colamd_ordering_with(a, ColamdConfig::default())
}

/// Compute a COLAMD-style column ordering of `a`. Returns `perm` with
/// `perm[new] = old`; the result is always a valid permutation of
/// `0..a.n_cols()`, whatever the pattern (empty columns, dense rows,
/// rectangular input, repeated or unsorted row indices).
///
/// # Panics
/// If `a` is past the index limit ([`index_limit_ok`]).
pub fn colamd_ordering_with(a: &CscMatrix, config: ColamdConfig) -> Vec<usize> {
    order_pattern(a.n_rows(), a.n_cols(), a.col_ptr(), a.row_idx(), config)
}

/// [`colamd_ordering_with`] on the raw CSC pattern arrays, which is
/// where tests hand it columns no `CscMatrix` constructor accepts.
fn order_pattern(
    m: usize,
    n: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    config: ColamdConfig,
) -> Vec<usize> {
    assert!(
        index_limit_ok(m, n, row_idx.len()),
        "COLAMD indexes with u32: 2*nnz + n_rows + n_cols must stay below 2^32"
    );
    if n == 0 {
        return Vec::new();
    }

    // --- Dense-row stripping. A row's length is its clique size in the
    // column graph; past the threshold it contributes no ordering
    // information, only quadratic degree noise.
    let dense_row = config.threshold(n);
    let mut row_count = vec![0u32; m];
    for &i in row_idx {
        row_count[i] += 1;
    }

    // --- Column lists: the non-dense rows of each column, ascending
    // and without repeats. Dense columns are stripped and ordered last
    // (ascending live degree, then index), where minimum degree would
    // have sent them.
    let dense_col = config.threshold(m.max(1));
    let mut state = vec![ColState::Alive; n];
    let mut dense_cols: Vec<(usize, usize)> = Vec::new();
    let mut cols: Vec<Col> = Vec::with_capacity(n);
    let mut col_items: Vec<u32> = Vec::with_capacity(row_idx.len());
    for j in 0..n {
        let start = col_items.len();
        let mut ascending = true;
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if row_count[i] as usize <= dense_row {
                ascending &= col_items.len() == start || col_items[col_items.len() - 1] < i as u32;
                col_items.push(i as u32);
            }
        }
        if !ascending {
            col_items[start..].sort_unstable();
            let mut kept = start;
            for p in start..col_items.len() {
                if kept == start || col_items[kept - 1] != col_items[p] {
                    col_items[kept] = col_items[p];
                    kept += 1;
                }
            }
            col_items.truncate(kept);
        }
        let mut len = col_items.len() - start;
        if len > dense_col {
            state[j] = ColState::Dense;
            dense_cols.push((len, j));
            col_items.truncate(start);
            len = 0;
        }
        cols.push(Col {
            start: start as u32,
            len: len as u32,
            next_member: NONE,
            last_member: j as u32,
        });
    }
    dense_cols.sort_unstable();

    // --- Row lists: the transpose of the column lists, by counting
    // sort, in an arena with room for the elements to come.
    row_count.fill(0);
    for &i in &col_items {
        row_count[i as usize] += 1;
    }
    let mut rows = Rows {
        rows: Vec::with_capacity(m + n),
        items: Vec::with_capacity(2 * col_items.len()),
    };
    rows.items.resize(col_items.len(), 0);
    let mut at = 0;
    for &count in &row_count {
        rows.rows.push(Row {
            start: at,
            len: 0,
            live: count,
            ext: 0,
            stamp: 0,
        });
        at += count;
    }
    for (j, col) in cols.iter().enumerate() {
        for &i in &col_items[col.range()] {
            let row = &mut rows.rows[i as usize];
            rows.items[(row.start + row.len) as usize] = j as u32;
            row.len += 1;
        }
    }

    // --- Initial scores: sum of (|row| - 1) over the column's rows, the
    // standard COLAMD upper bound on the external degree in `AᵀA`.
    // Unlike the reference implementation we never clamp the score (the
    // clamp there bounds packed-array memory, not quality): clamping
    // collapses the very ties minimum degree needs to break.
    let mut heap = MinHeap::new(
        n,
        cols.iter()
            .enumerate()
            .filter(|&(j, _)| state[j] == ColState::Alive)
            .map(|(j, col)| {
                let list = &col_items[col.range()];
                let score = list.iter().map(|&r| rows.rows[r as usize].len - 1).sum();
                (score, j as u32)
            }),
    );

    let mut perm: Vec<usize> = Vec::with_capacity(n);
    // Pivot steps so far: the stamp of the rows' `ext` counts.
    let mut stamp: u32 = 0;
    let mut pivot_cols: Vec<u32> = Vec::new();
    let mut signatures: Vec<u64> = Vec::new();
    let mut reps: Vec<u32> = Vec::new();

    let n_sparse = n - dense_cols.len();
    while perm.len() < n_sparse {
        // --- Select: minimum approximate degree, smallest index on
        // ties.
        let c = heap.pop().expect("a candidate column is in the heap") as usize;

        // --- Order the pivot supercolumn.
        state[c] = ColState::Ordered;
        let mut member = c as u32;
        while member != NONE {
            perm.push(member as usize);
            member = cols[member as usize].next_member;
        }

        // --- Form the pivot element: the union of the pivot's rows,
        // minus the pivot itself. Those rows are then dead — the
        // element subsumes their constraints.
        pivot_cols.clear();
        for p in cols[c].range() {
            let r = col_items[p] as usize;
            for &j in rows.list(r) {
                if state[j as usize] == ColState::Alive {
                    state[j as usize] = ColState::InElement;
                    pivot_cols.push(j);
                }
            }
            // Dead; and with no candidates left, the count below
            // gives it the `ext` of an absorbed row.
            rows.rows[r].len = 0;
            rows.rows[r].live = 0;
        }
        cols[c].len = 0;
        if pivot_cols.is_empty() {
            continue;
        }

        // --- Set differences. A row `r` next to the element is visited
        // once per element column it holds, so counting down from
        // `live(r)` leaves `ext = |r \ element|`.
        stamp += 1;
        for &j in &pivot_cols {
            let col = cols[j as usize];
            for &r in &col_items[col.range()] {
                let row = &mut rows.rows[r as usize];
                if row.stamp != stamp {
                    row.stamp = stamp;
                    row.ext = row.live;
                }
                row.ext = row.ext.saturating_sub(1);
            }
        }

        // --- Create the element row.
        let e = rows.push(&pivot_cols);

        // --- Rebuild each element column's row list and re-score it
        // with the COLAMD approximate external degree:
        // |element \ {j}| + Σ_{r ∈ rows(j), r ≠ e} |r \ element|.
        // A row with nothing outside the element is absorbed: its
        // constraint is implied.
        signatures.clear();
        let element_degree = pivot_cols.len() as u32 - 1;
        for &j in &pivot_cols {
            // The element is complete: `j` is a candidate again.
            state[j as usize] = ColState::Alive;
            let col = &mut cols[j as usize];
            let start = col.start as usize;
            let mut kept = 0;
            let mut external = 0;
            let mut row_sum = e;
            for p in start..start + col.len as usize {
                let r = col_items[p];
                let row = &mut rows.rows[r as usize];
                if row.ext == 0 {
                    row.len = 0;
                    continue;
                }
                col_items[start + kept] = r;
                kept += 1;
                external += row.ext;
                row_sum = row_sum.wrapping_add(r);
            }
            // The pivot's row was in this list and is dead now, so the
            // slot for `e` is free.
            col_items[start + kept] = e;
            col.len = kept as u32 + 1;
            heap.update(j, element_degree + external);
            let signature = row_sum.wrapping_add(col.len.wrapping_mul(0x9e37_79b1));
            signatures.push((signature as u64) << 32 | j as u64);
        }

        // --- Supercolumn detection among the element's columns: group
        // by signature (a hash of list length and row ids), then
        // confirm exact equality. Equal columns are structurally
        // indistinguishable from here on, so they pivot together.
        signatures.sort_unstable();
        let mut lo = 0;
        while lo < signatures.len() {
            let signature = signatures[lo] >> 32;
            let mut hi = lo + 1;
            while hi < signatures.len() && signatures[hi] >> 32 == signature {
                hi += 1;
            }
            // Signature collisions can group structurally different
            // columns, so compare pairwise against every distinct
            // representative seen so far — two identical columns must
            // merge even when a third, different column shares their
            // signature and sorts first. The group is sorted by column
            // index: representatives are the smallest index of their
            // class, and members join in ascending order, whatever the
            // signature function and the order of `pivot_cols`.
            reps.clear();
            for &entry in &signatures[lo..hi] {
                let k = entry as u32;
                let list_of = |j: u32| &col_items[cols[j as usize].range()];
                match reps.iter().find(|&&rep| list_of(k) == list_of(rep)) {
                    None => reps.push(k),
                    Some(&rep) => {
                        state[k as usize] = ColState::Absorbed;
                        heap.remove(k);
                        for &r in list_of(k) {
                            rows.rows[r as usize].live -= 1;
                        }
                        let tail = cols[rep as usize].last_member;
                        cols[tail as usize].next_member = k;
                        cols[rep as usize].last_member = cols[k as usize].last_member;
                        cols[k as usize].len = 0;
                    }
                }
            }
            lo = hi;
        }
    }

    // --- Dense columns last.
    perm.extend(dense_cols.into_iter().map(|(_, j)| j));
    debug_assert_eq!(perm.len(), n);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu_symbolic::lu_symbolic;
    use sympiler_sparse::{gen, ops, TripletMatrix};

    fn assert_permutation(perm: &[usize], n: usize) {
        assert_eq!(perm.len(), n);
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// `nnz(L) + nnz(U)` of the statically pivoted LU of `Qᵀ A Q`.
    fn lu_nnz_under(a: &CscMatrix, perm: Option<&[usize]>) -> usize {
        let b = match perm {
            Some(p) => ops::permute_rows_cols(a, p).unwrap(),
            None => a.clone(),
        };
        let sym = lu_symbolic(&b);
        sym.l_nnz() + sym.u_nnz()
    }

    #[test]
    fn row_arena_compacts_in_place_when_its_tail_runs_out() {
        let row = |start, len| Row {
            start,
            len,
            live: len,
            ext: 0,
            stamp: 0,
        };
        let mut rows = Rows {
            rows: vec![row(0, 2), row(2, 3), row(5, 1)],
            items: Vec::with_capacity(8),
        };
        rows.items.extend([10, 11, 20, 21, 22, 30]);
        let capacity = rows.items.capacity();
        // Kill row 0, cut row 1 to its first two entries.
        rows.rows[0].len = 0;
        rows.rows[1].len = 2;
        // Six entries stored, three live: a list of four only fits
        // once the dead space is reclaimed.
        assert!(rows.items.len() + 4 > capacity);
        let e = rows.push(&[40, 41, 42, 43]);
        assert_eq!(e, 3);
        assert_eq!(rows.items.capacity(), capacity, "no reallocation");
        assert_eq!(rows.list(0), &[] as &[u32]);
        assert_eq!(rows.list(1), &[20, 21]);
        assert_eq!(rows.list(2), &[30]);
        assert_eq!(rows.list(3), &[40, 41, 42, 43]);
        assert_eq!(rows.rows[3], row(3, 4));
        assert_eq!(rows.items.len(), 7);
    }

    /// Every `(score, column)` left in `heap`, by popping it empty.
    fn drain(mut heap: MinHeap) -> Vec<u32> {
        std::iter::from_fn(|| heap.pop()).collect()
    }

    #[test]
    fn heap_pops_in_score_then_column_order() {
        // LCG scores with many ties; the expected order is the sorted
        // list of (score, column).
        let mut s = 99u64;
        let mut entries: Vec<(u32, u32)> = (0..200)
            .map(|c| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as u32 % 17, c)
            })
            .collect();
        let heap = MinHeap::new(200, entries.iter().copied());
        entries.sort_unstable();
        let expected: Vec<u32> = entries.iter().map(|&(_, c)| c).collect();
        assert_eq!(drain(heap), expected);
        // Degenerate sizes.
        assert_eq!(drain(MinHeap::new(3, std::iter::empty())), vec![]);
        assert_eq!(drain(MinHeap::new(3, [(7, 2)].into_iter())), vec![2]);
    }

    #[test]
    fn heap_ties_resolve_by_column_index() {
        let heap = MinHeap::new(6, [5, 3, 0, 4, 1, 2].into_iter().map(|c| (9, c)));
        assert_eq!(drain(heap), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn heap_update_moves_a_column_up_and_down() {
        let entries = || (0..30u32).map(|c| (10 + c, c));
        // Down: the minimum becomes the maximum.
        let mut heap = MinHeap::new(30, entries());
        heap.update(0, 1000);
        let mut expected: Vec<u32> = (1..30).collect();
        expected.push(0);
        assert_eq!(drain(heap), expected);
        // Up: the last leaf becomes the minimum.
        let mut heap = MinHeap::new(30, entries());
        heap.update(29, 0);
        let mut expected = vec![29];
        expected.extend(0..29);
        assert_eq!(drain(heap), expected);
        // To a tie: column 20 at column 5's score sorts right after it.
        let mut heap = MinHeap::new(30, entries());
        heap.update(20, 15);
        let order = drain(heap);
        assert_eq!(&order[5..7], &[5, 20]);
        // Unchanged score: nothing moves.
        let mut heap = MinHeap::new(30, entries());
        heap.update(7, 17);
        assert_eq!(drain(heap), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn heap_remove_takes_out_first_last_and_interior_slots() {
        let entries = || (0..30u32).map(|c| (c * 3 % 31, c));
        let sorted_without = |gone: u32| {
            let mut all: Vec<(u32, u32)> = entries().filter(|&(_, c)| c != gone).collect();
            all.sort_unstable();
            all.into_iter().map(|(_, c)| c).collect::<Vec<_>>()
        };
        let probe = MinHeap::new(30, entries());
        let first = probe.keys[0] as u32;
        let last = *probe.keys.last().unwrap() as u32;
        let interior = probe.keys[3] as u32;
        for gone in [first, last, interior] {
            let mut heap = MinHeap::new(30, entries());
            heap.remove(gone);
            assert_eq!(heap.keys.len(), 29);
            for (i, &key) in heap.keys.iter().enumerate() {
                assert_eq!(heap.pos[key as u32 as usize] as usize, i);
            }
            assert_eq!(drain(heap), sorted_without(gone));
        }
        // Down to empty through `remove` alone.
        let mut heap = MinHeap::new(2, [(4, 0), (4, 1)].into_iter());
        heap.remove(1);
        heap.remove(0);
        assert_eq!(heap.pop(), None);
    }

    #[test]
    fn returns_a_permutation_on_generators() {
        for seed in 0..6u64 {
            for a in [
                gen::circuit_unsym(60, 4, 2, seed),
                gen::random_unsym(45, 4, seed + 10),
                gen::convection_diffusion_2d(7, 6, 1.5, seed),
            ] {
                let perm = colamd_ordering(&a);
                assert_permutation(&perm, a.n_cols());
            }
        }
    }

    #[test]
    fn degenerate_patterns() {
        // Empty.
        assert!(colamd_ordering(&CscMatrix::zeros(0, 0)).is_empty());
        // 1x1.
        assert_eq!(colamd_ordering(&CscMatrix::identity(1)), vec![0]);
        // Diagonal: every column is its own (empty-external) pivot.
        let perm = colamd_ordering(&CscMatrix::identity(8));
        assert_permutation(&perm, 8);
        // Structurally empty columns.
        let z = CscMatrix::zeros(5, 5);
        assert_permutation(&colamd_ordering(&z), 5);
        // Rectangular.
        let mut t = TripletMatrix::new(3, 5);
        t.push(0, 0, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 4, 1.0);
        t.push(1, 4, 1.0);
        let a = t.to_csc().unwrap();
        assert_permutation(&colamd_ordering(&a), 5);
    }

    #[test]
    fn fully_dense_matrix_is_still_a_permutation() {
        let n = 12;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        assert_permutation(&colamd_ordering(&a), n);
    }

    #[test]
    fn dense_first_arrow_orders_hub_last_and_kills_fill() {
        // Dense first row + first column: natural order fills the
        // whole trailing block (eliminating the hub first connects
        // everything). At this size the hub row crosses the default
        // dense threshold, so it is stripped (without stripping, the
        // dense row makes AᵀA a complete graph and *no* column
        // ordering looks better than any other); the hub column
        // crosses the dense-column threshold and is ordered last —
        // which under symmetric application gives zero fill.
        let n = 150;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
        }
        for i in 1..n {
            t.push(i, 0, 1.0);
            t.push(0, i, 1.0);
        }
        let a = t.to_csc().unwrap();
        let perm = colamd_ordering(&a);
        assert_permutation(&perm, n);
        assert_eq!(perm[n - 1], 0, "the hub column must pivot last");
        let natural = lu_nnz_under(&a, None);
        let ordered = lu_nnz_under(&a, Some(&perm));
        // Natural fills the (n-1)² trailing block; ordered keeps
        // exactly the arrow pattern (+n: the diagonal is stored in
        // both L and U).
        assert_eq!(ordered, a.nnz() + n);
        assert!(
            ordered * 3 < natural,
            "ordered {ordered} vs natural {natural}"
        );
    }

    #[test]
    fn supercolumns_absorb_identical_structure() {
        // Columns 1..4 share one identical row set; the ordering must
        // remain a bijection and keep the replicated group adjacent.
        let n = 10;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 1.0);
        }
        for j in 1..4 {
            t.push(5, j, 1.0);
            t.push(6, j, 1.0);
            t.push(7, j, 1.0);
        }
        let a = t.to_csc().unwrap();
        let perm = colamd_ordering(&a);
        assert_permutation(&perm, n);
        let pos: Vec<usize> = (1..4)
            .map(|j| perm.iter().position(|&p| p == j).unwrap())
            .collect();
        let (lo, hi) = (*pos.iter().min().unwrap(), *pos.iter().max().unwrap());
        assert_eq!(hi - lo, 2, "identical columns must order consecutively");
    }

    #[test]
    fn dense_row_is_stripped_not_fatal() {
        // One fully dense row on top of a sparse banded pattern: with a
        // low threshold the row must be ignored (not glue the graph
        // into one clique), and the result must stay a bijection.
        let n = 30;
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j + 1, j, 1.0);
            }
            t.push(0, j, 1.0); // dense row 0
        }
        let a = t.to_csc().unwrap();
        let config = ColamdConfig {
            dense_factor: 0.5,
            dense_floor: 4,
        };
        let perm = colamd_ordering_with(&a, config);
        assert_permutation(&perm, n);
        // Default config (threshold > n) keeps the row and still works.
        assert_permutation(&colamd_ordering(&a), n);
    }

    #[test]
    fn reduces_fill_on_unsymmetric_generators() {
        // The acceptance-criteria shape at unit scale: COLAMD beats
        // natural on circuit and random unsymmetric patterns at the
        // sizes/densities the unsym suite uses (tiny random matrices
        // are near-dense after fill, where no ordering can help).
        for seed in 0..5u64 {
            for a in [
                gen::circuit_unsym(120, 4, 2, seed),
                gen::random_unsym(250, 4, seed + 50),
            ] {
                let perm = colamd_ordering(&a);
                assert_permutation(&perm, a.n_cols());
                let natural = lu_nnz_under(&a, None);
                let ordered = lu_nnz_under(&a, Some(&perm));
                assert!(
                    ordered < natural,
                    "seed {seed}: ordered {ordered} !< natural {natural}"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = gen::circuit_unsym(80, 4, 2, 7);
        let p1 = colamd_ordering(&a);
        let p2 = colamd_ordering(&a);
        assert_eq!(p1, p2);
    }
    /// `nb` blocks of `w` identical columns: every column of block `b`
    /// holds the same four rows, so each block collapses to one
    /// supercolumn at its first pivot; a chain row couples neighbouring
    /// blocks.
    fn identical_column_blocks(nb: usize, w: usize) -> CscMatrix {
        let n = nb * w;
        let mut t = TripletMatrix::new(n, n);
        for b in 0..nb {
            for c in 0..w {
                let j = b * w + c;
                for r in 0..4 {
                    t.push((b * w + r * 7 + 3) % n, j, 1.0);
                }
                t.push((b * w + w) % n, j, 1.0);
            }
        }
        t.to_csc().unwrap()
    }

    /// `m × n`, three LCG-drawn rows a column (repeats summed away).
    fn lcg_rectangular(m: usize, n: usize, seed: u64) -> CscMatrix {
        let mut t = TripletMatrix::new(m, n);
        let mut s = seed;
        for j in 0..n {
            for _ in 0..3 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.push((s >> 33) as usize % m, j, 1.0);
            }
        }
        t.to_csc().unwrap()
    }

    const LOW_THRESHOLD: ColamdConfig = ColamdConfig {
        dense_factor: 0.5,
        dense_floor: 4,
    };

    #[test]
    fn matches_the_reference_implementation_on_seeded_patterns() {
        use crate::transversal::weighted_matching;
        let mut patterns: Vec<(String, CscMatrix)> = Vec::new();
        for seed in 0..14u64 {
            let k = seed as usize;
            let zd = gen::circuit_zero_diag(90 + 20 * k, 4, 2, seed);
            let matched = ops::permute_rows(&zd, &weighted_matching(&zd).unwrap()).unwrap();
            patterns.extend([
                (
                    format!("circuit_unsym/{seed}"),
                    gen::circuit_unsym(80 + 25 * k, 4, 2, seed),
                ),
                (
                    format!("circuit_unsym_sparse/{seed}"),
                    gen::circuit_unsym(300 + 50 * k, 1, 0, seed),
                ),
                (
                    format!("random_unsym/{seed}"),
                    gen::random_unsym(60 + 30 * k, 2 + k % 4, seed),
                ),
                (
                    format!("convdiff/{seed}"),
                    gen::convection_diffusion_2d(5 + k, 4 + k, 1.5, seed),
                ),
                (
                    format!("saddle/{seed}"),
                    gen::saddle_point_2x2(20 + 5 * k, 4 + k, seed),
                ),
                (format!("zero_diag_raw/{seed}"), zd),
                (format!("zero_diag_matched/{seed}"), matched),
                (
                    format!("rect_wide/{seed}"),
                    lcg_rectangular(30 + k, 50 + 3 * k, seed + 1),
                ),
                (
                    format!("rect_tall/{seed}"),
                    lcg_rectangular(70 + 2 * k, 25 + k, seed + 100),
                ),
                (
                    format!("blocks/{seed}"),
                    identical_column_blocks(4 + k, 2 + k % 5),
                ),
            ]);
        }
        for n in 0..3 {
            patterns.push((format!("identity/{n}"), CscMatrix::identity(n)));
            patterns.push((format!("zeros/{n}"), CscMatrix::zeros(n, n)));
            let mut full = TripletMatrix::new(n, n);
            for i in 0..n * n {
                full.push(i / n, i % n, 1.0);
            }
            patterns.push((format!("full/{n}"), full.to_csc().unwrap()));
        }
        let mut compared = 0;
        for (name, a) in &patterns {
            // The low threshold strips dense rows on two thirds of
            // these patterns and dense columns on half of them.
            for config in [ColamdConfig::default(), LOW_THRESHOLD] {
                let perm = colamd_ordering_with(a, config);
                assert_permutation(&perm, a.n_cols());
                assert_eq!(
                    perm,
                    reference::colamd_reference(a, config),
                    "{name} at dense_factor {}",
                    config.dense_factor
                );
                compared += 1;
            }
        }
        for (name, a, config) in pinned_cases() {
            assert_eq!(
                colamd_ordering_with(&a, config),
                reference::colamd_reference(&a, config),
                "{name}"
            );
            compared += 1;
        }
        assert!(compared >= 200, "{compared} patterns");
    }

    #[test]
    fn hostile_columns_still_give_a_permutation() {
        let order = |m, n, col_ptr: &[usize], row_idx: &[usize]| {
            let perm = order_pattern(m, n, col_ptr, row_idx, ColamdConfig::default());
            assert_permutation(&perm, n);
            perm
        };
        // Repeats: a column naming one row three times, next to columns
        // sharing that row, would drive the row's live count below zero
        // if each repeat were its own entry.
        order(3, 4, &[0, 3, 5, 8, 9], &[1, 1, 1, 0, 1, 2, 1, 2, 1]);
        // Unsorted rows, with and without repeats; the order of a
        // column's entries is not part of the pattern.
        let sorted = order(4, 4, &[0, 3, 5, 8, 10], &[0, 1, 3, 1, 2, 0, 1, 3, 2, 3]);
        let shuffled = order(4, 4, &[0, 3, 5, 8, 10], &[3, 0, 1, 2, 1, 1, 3, 0, 3, 2]);
        assert_eq!(sorted, shuffled);
        let repeated = order(
            4,
            4,
            &[0, 5, 7, 11, 13],
            &[3, 0, 3, 1, 0, 2, 1, 1, 3, 0, 3, 3, 2],
        );
        assert_eq!(sorted, repeated);
        // Identical columns given in different entry orders still merge
        // into one supercolumn (ordered consecutively).
        let perm = order(
            6,
            5,
            &[0, 1, 4, 7, 10, 11],
            &[0, 2, 4, 5, 5, 2, 4, 4, 5, 2, 3],
        );
        let at = |j| perm.iter().position(|&p| p == j).unwrap();
        let (lo, hi) = (at(1).min(at(2)).min(at(3)), at(1).max(at(2)).max(at(3)));
        assert_eq!(hi - lo, 2, "{perm:?}");
        // An empty row, an empty column, both, rectangular either way.
        order(3, 3, &[0, 1, 1, 2], &[0, 2]);
        order(2, 5, &[0, 0, 1, 1, 2, 2], &[1, 1]);
        order(5, 2, &[0, 2, 2], &[4, 0]);
        // Every column one repeated row: all of them one supercolumn.
        assert_eq!(order(1, 3, &[0, 2, 4, 6], &[0; 6]), vec![0, 1, 2]);
    }

    #[test]
    fn index_limit_is_two_nnz_plus_rows_plus_cols() {
        assert!(index_limit_ok(0, 0, 0));
        assert!(index_limit_ok(1000, 1000, (u32::MAX as usize - 2000) / 2));
        assert!(!index_limit_ok(
            1000,
            1000,
            (u32::MAX as usize - 2000) / 2 + 1
        ));
        assert!(!index_limit_ok(1 << 32, 0, 0));
        assert!(!index_limit_ok(0, 1 << 32, 0));
        assert!(!index_limit_ok(0, 0, 1 << 31));
        assert!(!index_limit_ok(usize::MAX, usize::MAX, usize::MAX));
    }

    /// 64-bit FNV-1a of a permutation (each index as 8 little-endian
    /// bytes).
    fn perm_hash(perm: &[usize]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &p in perm {
            for b in (p as u64).to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The patterns whose orderings are pinned below: the benchmark's
    /// generators at its pattern seeds, the other unsymmetric
    /// generators, and one case per special rule (dense strip,
    /// supercolumns, rectangular, degenerate sizes).
    fn pinned_cases() -> Vec<(&'static str, CscMatrix, ColamdConfig)> {
        use crate::transversal::weighted_matching;
        let d = ColamdConfig::default();
        let low = LOW_THRESHOLD;
        let zd = gen::circuit_zero_diag(800, 4, 2, 1);
        let zd_matched = ops::permute_rows(&zd, &weighted_matching(&zd).unwrap()).unwrap();
        let lap = ops::symmetrize_from_lower(&gen::grid3d_laplacian(16, 16, 16, 1)).unwrap();
        // Arrow: dense first row and column, both past the default
        // thresholds at n = 150.
        let arrow = {
            let n = 150;
            let mut t = TripletMatrix::new(n, n);
            for j in 0..n {
                t.push(j, j, 2.0);
            }
            for i in 1..n {
                t.push(i, 0, 1.0);
                t.push(0, i, 1.0);
            }
            t.to_csc().unwrap()
        };
        let blocks = identical_column_blocks(12, 5);
        let rect = lcg_rectangular(40, 60, 12345);
        vec![
            ("refactor_dense", gen::circuit_unsym(1200, 4, 2, 1), d),
            ("refactor_sparse", gen::circuit_unsym(20000, 1, 0, 1), d),
            ("spd_refactor_full", lap, d),
            ("cold_compile_matched", zd_matched, d),
            ("cold_compile_raw", gen::circuit_zero_diag(800, 4, 2, 2), d),
            ("serve_churn_hot", gen::circuit_unsym(8000, 1, 0, 1), d),
            ("serve_churn_cold", gen::circuit_unsym(8000, 1, 0, 1001), d),
            ("random_unsym", gen::random_unsym(1500, 4, 3), d),
            ("convdiff", gen::convection_diffusion_2d(40, 30, 1.5, 2), d),
            ("saddle", gen::saddle_point_2x2(60, 12, 4), d),
            ("arrow_dense_strip", arrow, d),
            ("hubs_low_threshold", gen::circuit_unsym(300, 4, 3, 5), low),
            ("supercolumn_blocks", blocks, d),
            ("rectangular", rect, d),
            (
                "dense_12",
                ops::symmetrize_from_lower(&gen::banded_spd(12, 11, 1)).unwrap(),
                d,
            ),
            ("identity_8", CscMatrix::identity(8), d),
            ("zeros_5", CscMatrix::zeros(5, 5), d),
            ("one_by_one", CscMatrix::identity(1), d),
            ("empty", CscMatrix::zeros(0, 0), d),
        ]
    }

    #[test]
    fn orderings_match_the_pinned_hashes() {
        // Recorded from the `Vec<Vec>` + `BTreeSet` + `HashMap`
        // implementation this one replaced: containers may change, the
        // permutation may not (fill, flops and panel shapes of every
        // compiled plan hang off it).
        const PINS: [(&str, u64); 19] = [
            ("refactor_dense", 0xc0a5e6b37f324679),
            ("refactor_sparse", 0x30758d90ae0e9bb5),
            ("spd_refactor_full", 0x142b5b2367a53609),
            ("cold_compile_matched", 0x46c7d957919a49b1),
            ("cold_compile_raw", 0x19e2aadb12f9da09),
            ("serve_churn_hot", 0xe798fa591d661569),
            ("serve_churn_cold", 0x99c98867a5bfe409),
            ("random_unsym", 0x6f17019984468309),
            ("convdiff", 0x726d57bc2465b871),
            ("saddle", 0x9352a1c42af57825),
            ("arrow_dense_strip", 0x0efd2f96f1518624),
            ("hubs_low_threshold", 0x3c3c435238784255),
            ("supercolumn_blocks", 0xd823ee269a8105e5),
            ("rectangular", 0x2893cf3c7e416f85),
            ("dense_12", 0xc49bd70a64455fa5),
            ("identity_8", 0xb0099f969b546f25),
            ("zeros_5", 0xbde40bb18a01afc1),
            ("one_by_one", 0xa8c7f832281a39c5),
            ("empty", 0xcbf29ce484222325),
        ];
        let cases = pinned_cases();
        assert_eq!(cases.len(), PINS.len());
        for ((name, a, config), (pin_name, pin)) in cases.into_iter().zip(PINS) {
            assert_eq!(name, pin_name);
            let perm = colamd_ordering_with(&a, config);
            assert_permutation(&perm, a.n_cols());
            assert_eq!(perm_hash(&perm), pin, "{name}: ordering moved");
        }
    }
}
