//! The implementation `colamd_ordering_with` had before it moved to
//! counted set differences, an indexed heap and `u32` arenas, kept as
//! the oracle of the differential test: row lists pruned and rescanned
//! per pivot, a `BinaryHeap` with stale entries, `usize` lists. The
//! two must return the same permutation on every valid pattern.

use super::ColamdConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sympiler_sparse::CscMatrix;

/// Column liveness in the quotient graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColState {
    /// Still a candidate pivot.
    Alive,
    /// Emitted into the ordering (as a pivot).
    Ordered,
    /// Merged into a supercolumn; emitted with its representative.
    Absorbed,
    /// Stripped as dense; appended after all sparse columns.
    Dense,
}

/// Index lists packed in one arena, a `(start, len)` pair each: the
/// row lists of the quotient graph (`A`'s rows, then one element per
/// pivot) and its column lists. A dead row has length zero: a live
/// row holds every live column it constrains, so it is never empty
/// while a live column still refers to it.
struct Lists {
    start: Vec<usize>,
    len: Vec<usize>,
    /// List entries, in list order; capacity fixed at construction.
    items: Vec<usize>,
}

impl Lists {
    fn list(&self, i: usize) -> &[usize] {
        &self.items[self.start[i]..self.start[i] + self.len[i]]
    }

    /// Append `list` as a new list and return its index, compacting
    /// the arena first when its tail cannot take it.
    fn push(&mut self, list: &[usize]) -> usize {
        if self.items.len() + list.len() > self.items.capacity() {
            self.compact();
        }
        self.start.push(self.items.len());
        self.len.push(list.len());
        self.items.extend_from_slice(list);
        self.start.len() - 1
    }

    /// Slide the live lists to the front. Lists sit in index order, so
    /// every move is towards the front and none overwrites a list not
    /// yet moved.
    fn compact(&mut self) {
        let mut w = 0;
        for i in 0..self.start.len() {
            let (s, l) = (self.start[i], self.len[i]);
            self.items.copy_within(s..s + l, w);
            self.start[i] = w;
            w += l;
        }
        self.items.truncate(w);
    }
}

/// The pre-rewrite `colamd_ordering_with`, body unchanged.
pub(super) fn colamd_reference(a: &CscMatrix, config: ColamdConfig) -> Vec<usize> {
    const NONE: usize = usize::MAX;
    let m = a.n_rows();
    let n = a.n_cols();
    if n == 0 {
        return Vec::new();
    }

    // --- Dense-row stripping. A row's length is its clique size in the
    // column graph; past the threshold it contributes no ordering
    // information, only quadratic degree noise.
    let dense_row = config.threshold(n);
    let mut row_count = vec![0usize; m];
    for &i in a.row_idx() {
        row_count[i] += 1;
    }
    let row_is_dense: Vec<bool> = row_count.iter().map(|&l| l > dense_row).collect();

    // --- Dense-column stripping: order them last (ascending live
    // degree, then index), where minimum degree would have sent them.
    let dense_col = config.threshold(m.max(1));
    let mut col_state = vec![ColState::Alive; n];
    let mut dense_cols: Vec<(usize, usize)> = Vec::new();
    // Column lists: the live rows of each sparse column, ascending.
    let mut cols = Lists {
        start: Vec::with_capacity(n),
        len: Vec::with_capacity(n),
        items: Vec::with_capacity(a.nnz()),
    };
    for j in 0..n {
        let start = cols.items.len();
        cols.items
            .extend(a.col_rows(j).iter().filter(|&&i| !row_is_dense[i]));
        let mut len = cols.items.len() - start;
        if len > dense_col {
            col_state[j] = ColState::Dense;
            dense_cols.push((len, j));
            cols.items.truncate(start);
            len = 0;
        }
        cols.start.push(start);
        cols.len.push(len);
    }
    dense_cols.sort_unstable();

    // --- Row lists: the transpose of the column lists, by counting
    // sort (so each list is ascending), in an arena with room for the
    // elements to come.
    row_count.fill(0);
    for &i in &cols.items {
        row_count[i] += 1;
    }
    let mut rows = Lists {
        start: Vec::with_capacity(m + n),
        len: Vec::with_capacity(m + n),
        items: Vec::with_capacity(2 * cols.items.len()),
    };
    rows.items.resize(cols.items.len(), 0);
    let mut at = 0;
    for &count in &row_count {
        rows.start.push(at);
        rows.len.push(0);
        at += count;
    }
    for j in 0..n {
        for &i in cols.list(j) {
            rows.items[rows.start[i] + rows.len[i]] = j;
            rows.len[i] += 1;
        }
    }

    // --- Initial scores: sum of (|row| - 1) over the column's rows, the
    // standard COLAMD upper bound on the external degree in `AᵀA`.
    // Unlike the reference implementation we never clamp the score (the
    // clamp there bounds packed-array memory, not quality): clamping
    // collapses the very ties minimum degree needs to break.
    let mut score = vec![0usize; n];
    let mut candidates: Vec<Reverse<(usize, usize)>> = Vec::with_capacity(n);
    for j in 0..n {
        if col_state[j] != ColState::Alive {
            continue;
        }
        score[j] = cols.list(j).iter().map(|&r| rows.len[r] - 1).sum();
        candidates.push(Reverse((score[j], j)));
    }
    // An entry is current while its column is alive at that score.
    let mut heap = BinaryHeap::from(candidates);

    // Supercolumn members: `next_member` chains them behind their
    // representative in absorption order, `last_member` is the tail.
    let mut next_member = vec![NONE; n];
    let mut last_member: Vec<usize> = (0..n).collect();
    let mut perm: Vec<usize> = Vec::with_capacity(n);
    let mut marked = vec![false; n];
    // Per-pivot caches for row set differences, stamped by pivot count
    // so they never need clearing (one slot more per element).
    let mut row_ext: Vec<usize> = Vec::with_capacity(m + n);
    row_ext.resize(m, 0);
    let mut row_stamp: Vec<u64> = Vec::with_capacity(m + n);
    row_stamp.resize(m, 0);
    let mut stamp: u64 = 0;
    let mut pivot_cols: Vec<usize> = Vec::new();
    let mut signatures: Vec<(usize, u64, usize)> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();

    let n_sparse = n - dense_cols.len();
    while perm.len() < n_sparse {
        // --- Select: minimum approximate degree, smallest index on
        // ties (the heap orders by exactly (score, index)).
        let c = loop {
            let Reverse((s, c)) = heap.pop().expect("a live column has a current entry");
            if col_state[c] == ColState::Alive && score[c] == s {
                break c;
            }
        };

        // --- Order the pivot supercolumn.
        col_state[c] = ColState::Ordered;
        let mut member = c;
        while member != NONE {
            perm.push(member);
            member = next_member[member];
        }

        // --- Form the pivot element: the union of the pivot's live
        // rows, minus the pivot itself. Those rows are then dead — the
        // element subsumes their constraints.
        pivot_cols.clear();
        for &r in cols.list(c) {
            for &j in rows.list(r) {
                if col_state[j] == ColState::Alive && !marked[j] {
                    marked[j] = true;
                    pivot_cols.push(j);
                }
            }
            rows.len[r] = 0;
        }
        cols.len[c] = 0;
        if pivot_cols.is_empty() {
            continue;
        }
        pivot_cols.sort_unstable();

        // --- Set differences + row absorption. For every live row `r`
        // adjacent to a pivot column, `row_ext[r] = |r \ pivot_cols|`
        // (live columns only); a row entirely inside the new element is
        // absorbed. Row lists are pruned to live columns as a side
        // effect.
        stamp += 1;
        for &j in &pivot_cols {
            for &r in cols.list(j) {
                if rows.len[r] == 0 || row_stamp[r] == stamp {
                    continue;
                }
                row_stamp[r] = stamp;
                let start = rows.start[r];
                let mut kept = 0;
                let mut ext = 0;
                for p in start..start + rows.len[r] {
                    let x = rows.items[p];
                    if col_state[x] == ColState::Alive {
                        rows.items[start + kept] = x;
                        kept += 1;
                        ext += usize::from(!marked[x]);
                    }
                }
                row_ext[r] = ext;
                // ext == 0: r ⊆ element, absorbed.
                rows.len[r] = if ext == 0 { 0 } else { kept };
            }
        }

        // --- Create the element row.
        let e = rows.push(&pivot_cols);
        row_ext.push(0);
        row_stamp.push(0);

        // --- Rebuild each pivot column's row list and re-score it with
        // the COLAMD approximate external degree:
        // |element \ {j}| + Σ_{r ∈ rows(j), r ≠ e} |r \ element|.
        signatures.clear();
        for &j in &pivot_cols {
            let start = cols.start[j];
            let mut kept = 0;
            let mut external = 0;
            let mut row_sum = e as u64;
            for p in start..start + cols.len[j] {
                let r = cols.items[p];
                if rows.len[r] > 0 {
                    cols.items[start + kept] = r;
                    kept += 1;
                    external += row_ext[r];
                    row_sum += r as u64;
                }
            }
            // The pivot's row was in this list and is dead now, so the
            // slot for `e` is free.
            cols.items[start + kept] = e;
            cols.len[j] = kept + 1;
            let new_score = pivot_cols.len() - 1 + external;
            if new_score != score[j] {
                score[j] = new_score;
                heap.push(Reverse((new_score, j)));
            }
            signatures.push((cols.len[j], row_sum, j));
        }

        // --- Supercolumn detection among the element's columns: group
        // by signature (list length, sum of row ids), then confirm
        // exact equality. Equal columns are structurally
        // indistinguishable from here on, so they pivot together.
        signatures.sort_unstable();
        let mut lo = 0;
        while lo < signatures.len() {
            let (len, sum, _) = signatures[lo];
            let mut hi = lo + 1;
            while hi < signatures.len() && (signatures[hi].0, signatures[hi].1) == (len, sum) {
                hi += 1;
            }
            // Signature collisions can group structurally different
            // columns, so compare pairwise against every distinct
            // representative seen so far — two identical columns must
            // merge even when a third, different column shares their
            // signature and sorts first. The group is sorted by column
            // index: representatives are the smallest index of their
            // class, deterministically.
            reps.clear();
            for &(_, _, k) in &signatures[lo..hi] {
                match reps.iter().find(|&&r| cols.list(k) == cols.list(r)) {
                    None => reps.push(k),
                    Some(&rep) => {
                        col_state[k] = ColState::Absorbed;
                        next_member[last_member[rep]] = k;
                        last_member[rep] = last_member[k];
                        cols.len[k] = 0;
                    }
                }
            }
            lo = hi;
        }

        // --- Unmark for the next pivot.
        for &j in &pivot_cols {
            marked[j] = false;
        }
    }

    // --- Dense columns last.
    perm.extend(dense_cols.into_iter().map(|(_, j)| j));
    debug_assert_eq!(perm.len(), n);
    perm
}
