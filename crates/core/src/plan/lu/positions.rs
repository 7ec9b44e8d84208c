//! The position-addressed walker of the serial scalar tier: every
//! index the accumulator kernel resolves at run time — where an entry
//! of `A` lands, which entry an update reads and writes — baked into
//! tables at compile time, so the numeric phase touches nothing but
//! values and positions. The tables are laid out by **level** of the
//! column elimination DAG (column `j` waits for every `k` of its
//! schedule), a compile-time fact of the pattern: the columns of one
//! level read only columns of earlier levels, so a level's work runs
//! as flat streams with no loop per column.
//!
//! * `a_dst[p]` is the position, in the factor value array (`L` then
//!   `U`), of the `p`-th stored entry of the caller's *original* `A` —
//!   ordering, pre-pivot and row map folded in.
//! * The **op stream** holds, for every multiply-add of the canonical
//!   schedule, its destination, its `L` source and its `U` source
//!   position: level by level, a level's columns ascending, each
//!   column's ops in schedule order.
//! * Per level, one **column record** per column: the position of its
//!   unit diagonal in `L`, where its `L` run ends and the position of
//!   its pivot — the pivot test, the unit diagonal and the division of
//!   the column's sub-diagonal `L` entries by the pivot.
//! * [`SolveSweeps`]: both triangular solves of the factors as row
//!   streams, each grouped by the levels of its own DAG.
//!
//! [`LuPlan::walk_positions`] is then one streaming pass
//! `vals[a_dst[p]] = a[p]` and, per level, one flat loop
//! `vals[dst] -= vals[l] * vals[u]`, then per column its pivot test and
//! `vals[p] /= pivot` over its own `L` run — no accumulator, no gather,
//! no clear, no column-pointer read. A column's ops read
//! and write its own entries plus `L` of finished earlier columns, so
//! any topological column order computes every entry from the same
//! operands in the same order as the column order does: the factors
//! are `to_bits`-identical to the accumulator kernel's. The module
//! owns the table format: builder, validator and walkers are its only
//! readers.

use super::{LuPlan, LuPlanError, LuStructure};
use std::ops::Range;
use std::sync::Arc;
use sympiler_graph::levels::{dag_levels_from_preds, dag_levels_from_succs};
use sympiler_sparse::CscMatrix;

/// The serial executor bakes position tables only where the op stream
/// stays small next to the factors: at most this many multiply-adds per
/// entry of `L + U`. Fill-free circuits sit at 0.44. `ablation_thresholds`
/// prints the sweep behind the value (both kernels' factor time against
/// this ratio; two runs on a 2-core x86-64 box, whose timings wander by
/// up to 1.4× between runs): at n = 20 000 the level walker wins
/// 1.6–2.8× at 0.44, 0.9–1.5× on banded patterns from 1.1 to
/// 2.6, and loses from 3.5 up (0.8–0.9× there, 0.4–0.6× at 5.5), where
/// long, predictable update loops suit the accumulator kernel and the
/// tables, at 12 bytes per multiply-add, outgrow the factors. The
/// crossover sits far below every heavy-fill ledger pattern and far
/// above the fill-free ones, so the bound stays where the tables stay
/// smaller than the factors.
pub const POSITION_MAX_OPS_PER_ENTRY: f64 = 1.0;

/// The unguarded bit of [`PosOp::l`]: set on the ops of a peeled
/// update, which run without the `U(k, j) != 0` test.
const UNGUARDED: u32 = 1 << 31;

/// One multiply-add of the canonical schedule with every operand a
/// position in the factor value array:
/// `vals[dst] -= vals[l] * vals[u]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PosOp {
    /// The entry of column `j` being updated (in `U(:, j)` or `L(:, j)`).
    dst: u32,
    /// The multiplier `L(r, k)`, `k < j`; [`UNGUARDED`] rides in bit 31.
    l: u32,
    /// `U(k, j)`, final by the time the op runs.
    u: u32,
}

/// The finish of one column `j` once its updates ran: the pivot test
/// on `vals[pivot]` (`U(j, j)`), the unit diagonal at `vals[l_start]`
/// and the division of the sub-diagonal run `vals[l_start + 1..l_end]`
/// of `L(:, j)` by the pivot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColRec {
    l_start: u32,
    l_end: u32,
    pivot: u32,
}

impl ColRec {
    /// The record of column `j`.
    fn of(st: &LuStructure, j: usize) -> Self {
        ColRec {
            l_start: st.l_col_ptr[j] as u32,
            l_end: st.l_col_ptr[j + 1] as u32,
            pivot: (st.l_nnz() + st.u_col_ptr[j + 1] - 1) as u32,
        }
    }

    /// The column this record finishes, if it is exactly some column's
    /// record: its unit diagonal starts `L(:, j)` (column pointers are
    /// strictly increasing, every column holds its diagonal).
    fn column(&self, st: &LuStructure) -> Option<usize> {
        let j = st.l_col_ptr[..st.n()]
            .binary_search(&(self.l_start as usize))
            .ok()?;
        (*self == Self::of(st, j)).then_some(j)
    }
}

/// Where one level of the factor walk ends in each of its streams; it
/// starts where the level before it ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LevelEnd {
    ops: usize,
    cols: usize,
}

/// Everything the position-addressed walker reads besides the factor
/// structure: the schedule unrolled into operand positions at compile
/// time, ordering, pre-pivot and row map folded in, and laid out level
/// by level.
#[derive(Debug, Clone)]
pub(super) struct PositionTables {
    /// `a_dst[p]`: position of the `p`-th stored entry of the caller's
    /// *original* `A`.
    a_dst: Vec<u32>,
    /// Every multiply-add, level by level: a level's columns ascending,
    /// each column's ops in schedule order.
    ops: Vec<PosOp>,
    /// The column records of each level, ascending by column.
    cols: Vec<ColRec>,
    /// Where each level ends in `ops` and `cols`.
    levels: Vec<LevelEnd>,
    /// The solves of every factor this plan produces, shared with them.
    pub(super) sweeps: Arc<SolveSweeps>,
}

impl PositionTables {
    /// Resident bytes of the tables, the solve sweeps included.
    pub(super) fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.a_dst.len() * 4
            + self.ops.len() * size_of::<PosOp>()
            + self.cols.len() * size_of::<ColRec>()
            + self.levels.len() * size_of::<LevelEnd>()
            + self.sweeps.bytes()
    }

    /// Whether positions of an `l_nnz + u_nnz`-entry factor fit the
    /// tables' `u32`s (bit 31 of an `L` position stays free for
    /// [`UNGUARDED`]) and `n_ops` multiply-adds stay within
    /// `max_ops_per_entry` per factor entry.
    fn admits(l_nnz: usize, u_nnz: usize, n_ops: u64, max_ops_per_entry: f64) -> bool {
        let entries = l_nnz as u64 + u_nnz as u64;
        entries < 1 << 32
            && l_nnz as u64 <= UNGUARDED as u64
            && n_ops as f64 <= max_ops_per_entry * entries as f64
    }

    /// Check what the walkers rely on: every position addresses the
    /// value array and no two entries of `A` share a slot; the level
    /// ranges tile every stream and each column sits in exactly one
    /// level; each op writes its own column, reads `U` inside it and
    /// `L` of a column in a strictly earlier level; each column record
    /// is exactly one column's unit diagonal, `L` run and pivot, so
    /// each sub-diagonal entry of `L` is divided once, in its column's
    /// level, by its pivot; and the solve sweeps pass
    /// [`SolveSweeps::validate`].
    fn validate(&self, st: &LuStructure) -> Result<(), String> {
        let (n, l_nnz) = (st.n(), st.l_nnz());
        let mut taken = vec![false; st.n_values()];
        for (p, &d) in self.a_dst.iter().enumerate() {
            match taken.get_mut(d as usize) {
                Some(t) if !*t => *t = true,
                Some(_) => return Err(format!("a_dst[{p}] = {d} repeats a position")),
                None => return Err(format!("a_dst[{p}] = {d} is outside the value array")),
            }
        }
        let col_of = column_of_positions(st);
        let ops = tiles(self.levels.iter().map(|e| e.ops), self.ops.len(), "op")?;
        let cols = tiles(
            self.levels.iter().map(|e| e.cols),
            self.cols.len(),
            "column",
        )?;
        let mut members = Vec::with_capacity(self.cols.len());
        for (lv, range) in cols.iter().enumerate() {
            for rec in &self.cols[range.clone()] {
                let Some(j) = rec.column(st) else {
                    return Err(format!(
                        "level {lv}: {rec:?} is not one column's unit diagonal, L run and pivot"
                    ));
                };
                members.push(j as u32);
            }
        }
        let level = level_of(n, &members, &cols, "column")?;
        for (lv, range) in ops.into_iter().enumerate() {
            for op in &self.ops[range] {
                let (dst, l, u) = (op.dst as usize, (op.l & !UNGUARDED) as usize, op.u as usize);
                let Some(&j) = col_of.get(dst).filter(|_| l < l_nnz) else {
                    return Err(format!("level {lv}: {op:?} leaves its operand ranges"));
                };
                let l_col = st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1];
                let u_col = l_nnz + st.u_col_ptr[j]..l_nnz + st.u_col_ptr[j + 1];
                let in_column = u_col.contains(&dst) || l_col.contains(&dst);
                if !(level[j] == lv && in_column && u_col.contains(&u)) {
                    return Err(format!("level {lv}: {op:?} leaves its operand ranges"));
                }
                let k = col_of[l];
                if level[k] >= lv {
                    return Err(format!(
                        "level {lv}: {op:?} reads L(:, {k}) of level {}, not an earlier level",
                        level[k]
                    ));
                }
            }
        }
        self.sweeps.validate(st, &col_of)
    }
}

/// The column each position of the value array (`L` then `U`) lies in.
fn column_of_positions(st: &LuStructure) -> Vec<usize> {
    let l_nnz = st.l_nnz();
    let mut col_of = vec![0; st.n_values()];
    for j in 0..st.n() {
        col_of[st.l_col_ptr[j]..st.l_col_ptr[j + 1]].fill(j);
        col_of[l_nnz + st.u_col_ptr[j]..l_nnz + st.u_col_ptr[j + 1]].fill(j);
    }
    col_of
}

/// The ranges of a `len`-long stream that the per-level `ends` cut
/// out, checked to tile it: each level ends no earlier than it starts,
/// and the last ends at `len`.
fn tiles(
    ends: impl Iterator<Item = usize>,
    len: usize,
    what: &str,
) -> Result<Vec<Range<usize>>, String> {
    let mut ranges = Vec::new();
    let mut start = 0;
    for end in ends {
        if end < start || end > len {
            return Err(format!(
                "{what} level {} ends at {end}: before its start {start} or past {len}",
                ranges.len()
            ));
        }
        ranges.push(start..end);
        start = end;
    }
    if start != len {
        return Err(format!(
            "the {what} levels end at {start}, the stream at {len}"
        ));
    }
    Ok(ranges)
}

/// The level of each of `n` nodes, from the per-level member lists
/// `members[ranges[l]]`, checked to name every node exactly once.
fn level_of(
    n: usize,
    members: &[u32],
    ranges: &[Range<usize>],
    what: &str,
) -> Result<Vec<usize>, String> {
    let mut level = vec![usize::MAX; n];
    for (lv, range) in ranges.iter().enumerate() {
        for &m in &members[range.clone()] {
            match level.get_mut(m as usize) {
                Some(l) if *l == usize::MAX => *l = lv,
                Some(_) => return Err(format!("{what} {m} sits in two levels")),
                None => return Err(format!("{what} {m} is out of range")),
            }
        }
    }
    match level.iter().position(|&l| l == usize::MAX) {
        Some(m) => Err(format!("{what} {m} sits in no level")),
        None => Ok(level),
    }
}

/// One term of a row of a triangular solve: `x[dst] -= vals[pos] *
/// x[src]`, skipped when `x[src]` is zero, as the column sweep skips a
/// zero multiplier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Term {
    dst: u32,
    src: u32,
    pos: u32,
}

/// The two triangular solves of a factor with position tables, as row
/// streams. Row `i` of a solve is one sum over its stored entries in
/// the order the column sweep applies them — ascending `j` forward,
/// descending `j` backward and then the division by `U(i, i)` — and it
/// reads only rows of earlier levels of its solve's DAG, final by then.
/// Each level is one flat loop over its terms (backward, then one over
/// its rows' divisions), and the solutions are the column sweeps' to
/// the bit.
#[derive(Debug, Clone)]
pub(super) struct SolveSweeps {
    /// `L`'s sub-diagonal entries as row terms, by level of the
    /// forward DAG (row `i` waits for each `j` with `L(i, j) ≠ 0`): a
    /// level's rows ascending, each row's terms by ascending `j`.
    fwd: Vec<Term>,
    /// Where each forward level ends in `fwd`.
    fwd_levels: Vec<usize>,
    /// `U`'s off-diagonal entries as row terms, by level of the
    /// backward DAG (row `i` waits for each `j` with `U(i, j) ≠ 0`): a
    /// level's rows ascending, each row's terms by descending `j`.
    bwd: Vec<Term>,
    /// The rows of each backward level, ascending, divided by their
    /// pivots once the level's terms ran.
    rows: Vec<u32>,
    /// Where each backward level ends in `bwd` and in `rows`.
    bwd_levels: Vec<(usize, usize)>,
}

impl SolveSweeps {
    /// Level both solves' row DAGs and lay the terms out by level:
    /// per triangle, one leveling pass and one counting sort, with no
    /// transposed copy (`O(n + nnz(L + U))`).
    fn build(st: &LuStructure) -> Self {
        let (n, l_nnz) = (st.n(), st.l_nnz());
        let l_sub = |j: usize| st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1];
        let u_off = |j: usize| st.u_col_ptr[j]..st.u_col_ptr[j + 1] - 1;
        // The streams come before the leveling scratch, so the scratch,
        // freed on return, leaves no hole under them.
        let mut fwd = vec![Term::default(); l_nnz - n];
        let mut bwd = vec![Term::default(); st.u_row_idx.len() - n];
        let mut rows = Vec::with_capacity(n);
        // Forward: column j feeds the rows of L(:, j) below the diagonal.
        let fwd_sets =
            dag_levels_from_succs(n, |j| st.l_row_idx[l_sub(j)].iter().map(|&i| i as usize));
        let fwd_levels = level_terms(
            &mut fwd,
            &fwd_sets.levels,
            &st.l_row_idx,
            0,
            (0..n).map(|j| (j, l_sub(j))),
        );
        drop(fwd_sets);
        // Backward: column j feeds the rows of U(:, j) above the
        // diagonal. Numbered backwards (node n - 1 - i is row i), that
        // DAG is topologically numbered too.
        let mut bwd_sets = dag_levels_from_succs(n, |r| {
            let j = n - 1 - r;
            st.u_row_idx[u_off(j)]
                .iter()
                .map(move |&i| n - 1 - i as usize)
        });
        for level in &mut bwd_sets.levels {
            level.reverse();
            level.iter_mut().for_each(|r| *r = n - 1 - *r);
        }
        // Columns visited last to first: each row's terms descend.
        let term_ends = level_terms(
            &mut bwd,
            &bwd_sets.levels,
            &st.u_row_idx,
            l_nnz,
            (0..n).rev().map(|j| (j, u_off(j))),
        );
        rows.extend(bwd_sets.levels.iter().flatten().map(|&i| i as u32));
        let row_ends = bwd_sets.levels.iter().scan(0, |end, level| {
            *end += level.len();
            Some(*end)
        });
        SolveSweeps {
            fwd,
            fwd_levels,
            bwd,
            rows,
            bwd_levels: term_ends.into_iter().zip(row_ends).collect(),
        }
    }

    /// Resident bytes of the streams.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.fwd.len() + self.bwd.len()) * size_of::<Term>()
            + self.rows.len() * 4
            + self.fwd_levels.len() * size_of::<usize>()
            + self.bwd_levels.len() * size_of::<(usize, usize)>()
    }

    /// `L y = x`, then `U z = y`, in place, over the factor values
    /// `vals` (`L` then `U`, laid out by `st`).
    pub(super) fn solve(&self, st: &LuStructure, vals: &[f64], x: &mut [f64]) {
        let mut start = 0;
        for &end in &self.fwd_levels {
            subtract(&self.fwd[start..end], vals, x);
            start = end;
        }
        let l_nnz = st.l_nnz();
        let (mut terms, mut rows) = (0, 0);
        for &(terms_end, rows_end) in &self.bwd_levels {
            subtract(&self.bwd[terms..terms_end], vals, x);
            for &i in &self.rows[rows..rows_end] {
                let i = i as usize;
                x[i] /= vals[l_nnz + st.u_col_ptr[i + 1] - 1];
            }
            (terms, rows) = (terms_end, rows_end);
        }
    }

    /// Check what [`Self::solve`] relies on: the level ranges tile each
    /// stream; each row sits in one level (a forward row without terms
    /// in none: nothing writes it); every term is an entry of its
    /// triangle at `(dst, src)`, each entry has one term, and each row's
    /// terms run in the column sweep's order; and every source sits in
    /// a strictly earlier level than the row it feeds.
    fn validate(&self, st: &LuStructure, col_of: &[usize]) -> Result<(), String> {
        let (n, l_nnz) = (st.n(), st.l_nnz());
        let fwd = tiles(
            self.fwd_levels.iter().copied(),
            self.fwd.len(),
            "forward term",
        )?;
        let mut fwd_level = vec![None; n];
        for (lv, range) in fwd.iter().enumerate() {
            for t in &self.fwd[range.clone()] {
                match fwd_level.get_mut(t.dst as usize) {
                    Some(slot @ None) => *slot = Some(lv),
                    Some(Some(l)) if *l == lv => {}
                    _ => return Err(format!("forward row {} sits in two levels", t.dst)),
                }
            }
        }
        let l_entry = |p: usize| {
            let j = *col_of.get(p).filter(|_| p < l_nnz)?;
            (p != st.l_col_ptr[j]).then(|| (st.l_row_idx[p] as usize, j))
        };
        check_terms(
            &self.fwd,
            &fwd,
            &fwd_level,
            l_entry,
            l_nnz - n,
            true,
            "forward",
        )?;
        let bwd_terms = tiles(
            self.bwd_levels.iter().map(|e| e.0),
            self.bwd.len(),
            "backward term",
        )?;
        let bwd_rows = tiles(
            self.bwd_levels.iter().map(|e| e.1),
            self.rows.len(),
            "backward row",
        )?;
        let bwd_level: Vec<_> = level_of(n, &self.rows, &bwd_rows, "backward row")?
            .into_iter()
            .map(Some)
            .collect();
        let u_entry = |p: usize| {
            let j = *col_of.get(p).filter(|_| p >= l_nnz)?;
            let q = p - l_nnz;
            (q + 1 != st.u_col_ptr[j + 1]).then(|| (st.u_row_idx[q] as usize, j))
        };
        let u_off = st.u_row_idx.len() - n;
        check_terms(
            &self.bwd, &bwd_terms, &bwd_level, u_entry, u_off, false, "backward",
        )
    }
}

/// Lay one triangle's off-diagonal entries out as row terms in
/// `terms`, level by level: `levels` lists each level's rows,
/// ascending, and `columns` yields `(j, range)` — the entries of column
/// `j` at `rows[range]`, their values at `base + range` — in the order
/// each row's terms are to run. Returns where each level ends.
fn level_terms(
    terms: &mut [Term],
    levels: &[Vec<usize>],
    rows: &[u32],
    base: usize,
    columns: impl Iterator<Item = (usize, Range<usize>)> + Clone,
) -> Vec<usize> {
    // Terms per row, then each row's next slot in the stream.
    let mut next = vec![0u32; levels.iter().map(Vec::len).sum()];
    for (_, range) in columns.clone() {
        for &i in &rows[range] {
            next[i as usize] += 1;
        }
    }
    let mut ends = Vec::with_capacity(levels.len());
    let mut end = 0;
    for level in levels {
        for &i in level {
            let count = next[i];
            next[i] = end;
            end += count;
        }
        ends.push(end as usize);
    }
    debug_assert_eq!(end as usize, terms.len());
    for (j, range) in columns {
        for p in range {
            let i = rows[p];
            let slot = &mut next[i as usize];
            terms[*slot as usize] = Term {
                dst: i,
                src: j as u32,
                pos: (base + p) as u32,
            };
            *slot += 1;
        }
    }
    ends
}

/// One level of a solve sweep: every term `x[dst] -= vals[pos] *
/// x[src]` in stream order, guarded like the column sweep.
fn subtract(terms: &[Term], vals: &[f64], x: &mut [f64]) {
    for t in terms {
        let xs = x[t.src as usize];
        if xs != 0.0 {
            x[t.dst as usize] -= vals[t.pos as usize] * xs;
        }
    }
}

/// Check a sweep's terms over its level `ranges`: each is the entry
/// `entry(pos)` of its triangle at `(dst, src)`, sits in the level of
/// its row, reads a row of a strictly earlier level (`level[src]`;
/// `None`, no level, for a row no term writes), no entry appears twice
/// and `count` appear, and each row's sources run `ascending` (else
/// descending).
fn check_terms(
    terms: &[Term],
    ranges: &[Range<usize>],
    level: &[Option<usize>],
    entry: impl Fn(usize) -> Option<(usize, usize)>,
    count: usize,
    ascending: bool,
    what: &str,
) -> Result<(), String> {
    let mut last: Vec<Option<u32>> = vec![None; level.len()];
    let mut positions: Vec<u32> = terms.iter().map(|t| t.pos).collect();
    for (lv, range) in ranges.iter().enumerate() {
        for t in &terms[range.clone()] {
            let (dst, src) = (t.dst as usize, t.src as usize);
            if entry(t.pos as usize) != Some((dst, src)) || level[dst] != Some(lv) {
                return Err(format!("{what} level {lv}: {t:?} is not its row's entry"));
            }
            if level[src].is_some_and(|s| s >= lv) {
                return Err(format!(
                    "{what} level {lv}: {t:?} reads row {src} of level {}, not an earlier level",
                    level[src].unwrap_or_default()
                ));
            }
            let in_order = last[dst].is_none_or(|p| (t.src > p) == ascending);
            if !in_order {
                return Err(format!("{what} level {lv}: {t:?} breaks its row's order"));
            }
            last[dst] = Some(t.src);
        }
    }
    positions.sort_unstable();
    positions.dedup();
    if positions.len() != terms.len() || terms.len() != count {
        return Err(format!(
            "{} distinct {what} terms of {} for {count} entries",
            positions.len(),
            terms.len()
        ));
    }
    Ok(())
}

impl LuPlan {
    /// The position-addressed walker: one streaming pass places `A`'s
    /// values, then each level runs its slice of the flat op stream and
    /// then its column records — each column's pivot test, unit
    /// diagonal and `L` divisions — per entry the accumulator kernel's
    /// operations in the accumulator kernel's order, with no index
    /// left to resolve.
    /// Returns the perturbed columns, ascending.
    ///
    /// A zero pivot does not stop the walk at once: a smaller column
    /// may sit in a later level. Every column below the smallest zero
    /// pivot depends on smaller columns only, so the walk computes
    /// them as the column order does and the error names the column
    /// the accumulator kernel stops at.
    pub(super) fn walk_positions(
        &self,
        tables: &PositionTables,
        a: &CscMatrix,
        vals: &mut [f64],
        thresh: f64,
    ) -> Result<Vec<usize>, LuPlanError> {
        let st = &*self.structure;
        // `check_pattern` pinned `a` to the compiled pattern, so entry
        // `p` of `a.values()` is the entry `a_dst[p]` was baked for.
        match &self.scaling {
            None => {
                for (&dst, &v) in tables.a_dst.iter().zip(a.values()) {
                    vals[dst as usize] = v;
                }
            }
            // Same `dr·v·dc` expression shape as `scatter_a_column`.
            Some(s) => {
                let av = a.values();
                let a_rows = &self.pattern.row_idx;
                for (j, w) in self.pattern.col_ptr.windows(2).enumerate() {
                    let dcj = s.dc[j];
                    for p in w[0] as usize..w[1] as usize {
                        let dri = s.dr[a_rows[p] as usize];
                        vals[tables.a_dst[p] as usize] = dri * av[p] * dcj;
                    }
                }
            }
        }
        let mut perturbed = Vec::new();
        let mut zero_pivot: Option<usize> = None;
        let mut start = LevelEnd::default();
        for &end in &tables.levels {
            for op in &tables.ops[start.ops..end.ops] {
                let u = vals[op.u as usize];
                // Unpeeled updates skip a zero multiplier, as the
                // accumulator kernel's `xk != 0.0` guard does.
                if op.l & UNGUARDED != 0 || u != 0.0 {
                    vals[op.dst as usize] -= vals[(op.l & !UNGUARDED) as usize] * u;
                }
            }
            for rec in &tables.cols[start.cols..end.cols] {
                let diag = rec.pivot as usize;
                let mut pivot = vals[diag];
                // With thresh == 0.0 (perturbation off) the strict `<`
                // can never hold. Both rare branches name the column
                // by search, off the hot path.
                if pivot.abs() < thresh {
                    pivot = if pivot.is_sign_negative() {
                        -thresh
                    } else {
                        thresh
                    };
                    vals[diag] = pivot;
                    perturbed.push(rec.column(st).expect("a validated record"));
                } else if pivot == 0.0 {
                    let j = rec.column(st).expect("a validated record");
                    zero_pivot = Some(zero_pivot.map_or(j, |z| z.min(j)));
                }
                let l_start = rec.l_start as usize;
                vals[l_start] = 1.0;
                for v in &mut vals[l_start + 1..rec.l_end as usize] {
                    *v /= pivot;
                }
            }
            start = end;
        }
        if let Some(column) = zero_pivot {
            return Err(LuPlanError::ZeroPivot { column });
        }
        perturbed.sort_unstable();
        Ok(perturbed)
    }

    /// Bake the position tables of the accumulator-free walker, if the
    /// pattern admits them: positions fit `u32` and the schedule holds
    /// at most `max_ops_per_entry` multiply-adds per entry of `L + U`
    /// (else the plan is returned as it came and keeps the accumulator
    /// kernel). [`crate::SympilerLu::compile`] calls this with
    /// [`POSITION_MAX_OPS_PER_ENTRY`] for the scalar plan — panels never
    /// read the tables, so plans built directly stay without them
    /// (`f64::MAX` forces the walker onto any plan, which is how tests
    /// and the ablation compare the kernels). One `O(nnz + ops)` pass over the layouts
    /// and three levelings (the column DAG and both solves');
    /// [`Self::factor`] results are bitwise those of the accumulator
    /// kernel, and the factors solve by the baked level-grouped row
    /// streams, bitwise the column sweeps.
    pub fn with_position_tables(mut self, max_ops_per_entry: f64) -> Self {
        if !self.admits_position_tables(max_ops_per_entry) {
            return self;
        }
        let st = &*self.structure;
        let n_ops = self.n_multiply_adds();
        let tables = self.factor_tables(n_ops, Arc::new(SolveSweeps::build(st)));
        debug_assert_eq!(tables.validate(st), Ok(()));
        self.positions = Some(tables);
        self
    }

    /// Whether [`Self::with_position_tables`] bakes tables under
    /// `max_ops_per_entry`: the test alone, read off counts the plan
    /// already holds.
    pub(crate) fn admits_position_tables(&self, max_ops_per_entry: f64) -> bool {
        PositionTables::admits(
            self.l_nnz(),
            self.u_nnz(),
            self.n_multiply_adds(),
            max_ops_per_entry,
        )
    }

    /// Whether the plan carries the walker's tables.
    pub(crate) fn has_position_tables(&self) -> bool {
        self.positions.is_some()
    }

    /// The factor walk's tables, level by level of the column DAG, with
    /// the `sweeps` the factors will solve by.
    fn factor_tables(&self, n_ops: u64, sweeps: Arc<SolveSweeps>) -> PositionTables {
        let st = &*self.structure;
        let l_nnz = st.l_nnz();
        // The tables come before the scratch, as in `SolveSweeps::build`.
        let mut a_dst = vec![0u32; self.a_nnz];
        let mut ops = Vec::with_capacity(n_ops as usize);
        let mut cols = Vec::with_capacity(self.n);
        let column_levels = dag_levels_from_preds(self.n, |j| self.schedule(j));
        // `pos[r]`: position of row `r` of the column being baked. Stale
        // rows are never read — the column's pattern holds every row
        // `A(:, j)` and its updates touch.
        let mut pos = vec![0u32; self.n];
        let mut levels = Vec::with_capacity(column_levels.n_levels());
        for level in &column_levels.levels {
            for &j in level {
                let u_range = st.u_col_ptr[j]..st.u_col_ptr[j + 1];
                for q in u_range.clone() {
                    pos[st.u_row_idx[q] as usize] = (l_nnz + q) as u32;
                }
                let l_sub = st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1];
                for p in l_sub.clone() {
                    pos[st.l_row_idx[p] as usize] = p as u32;
                }
                let (oc, irperm) = match &self.baked {
                    None => (j, None),
                    Some(bp) => (bp.cperm[j], Some(&bp.irperm)),
                };
                let a_col_ptr = &self.pattern.col_ptr;
                for p in a_col_ptr[oc] as usize..a_col_ptr[oc + 1] as usize {
                    let i = self.pattern.row_idx[p] as usize;
                    a_dst[p] = pos[irperm.map_or(i, |ip| ip[i])];
                }
                for q in u_range.start..u_range.end - 1 {
                    let k = st.u_row_idx[q] as usize;
                    let source = st.l_col_ptr[k] + 1..st.l_col_ptr[k + 1];
                    let tag = if source.len() > self.peel_above {
                        UNGUARDED
                    } else {
                        0
                    };
                    ops.extend(source.map(|p| PosOp {
                        dst: pos[st.l_row_idx[p] as usize],
                        l: p as u32 | tag,
                        u: (l_nnz + q) as u32,
                    }));
                }
                cols.push(ColRec::of(st, j));
            }
            levels.push(LevelEnd {
                ops: ops.len(),
                cols: cols.len(),
            });
        }
        PositionTables {
            a_dst,
            ops,
            cols,
            levels,
            sweeps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LuWorkspace, PerturbReport};
    use super::*;
    use crate::SympilerOptions;
    use sympiler_graph::ordering::Ordering;
    use sympiler_graph::transversal::PrePivot;
    use sympiler_sparse::gen;

    /// Default options under the given ordering and pre-pivot.
    fn pivoted(ordering: Ordering, pre_pivot: PrePivot) -> SympilerOptions {
        SympilerOptions {
            ordering,
            pre_pivot,
            ..Default::default()
        }
    }

    /// Bits of the whole value array, then of `solve`, `solve_batch`
    /// and `solve_refined` answers, plus the perturbation record — or
    /// the error — of one factorization.
    fn outcome(plan: &LuPlan, a: &CscMatrix) -> Result<(Vec<u64>, PerturbReport), LuPlanError> {
        plan.factor(a).map(|f| {
            let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 - 0.375 * i as f64).collect();
            let c: Vec<f64> = b.iter().map(|v| v * v - 2.0).collect();
            let mut answers = vec![f.solve(&b)];
            answers.extend(f.solve_batch(&[&b, &c]));
            answers.push(f.solve_refined(a, &c, 1e-14, 3).0);
            let bits = f.vals.iter().chain(answers.iter().flatten());
            (bits.map(|v| v.to_bits()).collect(), f.perturb)
        })
    }

    /// `plan` with tables forced on, whatever the bound says.
    fn walker_of(plan: &LuPlan) -> LuPlan {
        let walker = plan.clone().with_position_tables(f64::MAX);
        assert!(walker.positions.is_some(), "tables must bake");
        walker
    }

    /// A triplet matrix from `(row, col, value)` entries.
    fn matrix_of(n: usize, entries: &[(usize, usize, f64)]) -> CscMatrix {
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for &(i, j, v) in entries {
            t.push(i, j, v);
        }
        t.to_csc().unwrap()
    }

    /// A pattern whose level walk visits a higher column before a lower
    /// one: column 1 waits for column 0 through `U(0, 1)`, column 2 for
    /// nothing, so the walk runs columns 0 and 2, then 1. Column 1's
    /// pivot is `1 - 1·1 = 0` and column 2's is `A`'s own zero.
    fn two_zero_pivots_out_of_walk_order() -> (LuPlan, CscMatrix) {
        let a = matrix_of(
            3,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (1, 1, 1.0),
                (2, 2, 0.0),
            ],
        );
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let walker = walker_of(&plan);
        let walked: Vec<_> = (walker.positions.as_ref().unwrap().cols.iter())
            .map(|rec| rec.column(&walker.structure))
            .collect();
        assert_eq!(
            walked,
            [Some(0), Some(2), Some(1)],
            "the walk visits column 2 first"
        );
        (plan, a)
    }

    #[test]
    fn walker_is_bitwise_the_accumulator_kernel_in_every_cell() {
        // The reference is the same plan without tables: `factor` is
        // then the in-order loop over `column_numeric`.
        let mut cells = 0;
        for seed in 0..3u64 {
            let inputs = [
                (gen::circuit_unsym(45, 3, 1, seed), PrePivot::Off),
                (gen::convection_diffusion_2d(6, 5, 2.0, seed), PrePivot::Off),
                (gen::random_unsym(30, 4, seed), PrePivot::Transversal),
                (
                    gen::circuit_zero_diag(40, 4, 1, seed),
                    PrePivot::Transversal,
                ),
                (
                    gen::circuit_zero_diag(40, 3, 2, seed),
                    PrePivot::WeightedMatching,
                ),
            ];
            for (a, pre_pivot) in &inputs {
                for ordering in Ordering::ALL {
                    // usize::MAX compiles the peeled tier out.
                    for peel in [usize::MAX, 0, 2] {
                        // 0.9 perturbs pivots on these inputs; 0 is off.
                        for tol in [0.0, 1e-3, 0.9] {
                            for mc64 in [false, true] {
                                let opts = SympilerOptions {
                                    pivot_perturb: tol,
                                    mc64_scale: mc64,
                                    ..pivoted(ordering, *pre_pivot)
                                };
                                let plan = LuPlan::build(a, &opts).unwrap().with_peel_above(peel);
                                let walker = walker_of(&plan);
                                assert_eq!(
                                    walker
                                        .positions
                                        .as_ref()
                                        .unwrap()
                                        .validate(&walker.structure),
                                    Ok(())
                                );
                                assert_eq!(
                                    outcome(&walker, a),
                                    outcome(&plan, a),
                                    "{ordering:?} {pre_pivot:?} peel={peel} tol={tol} \
                                     mc64={mc64} seed={seed}"
                                );
                                cells += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cells > 500);
    }

    #[test]
    fn walker_perturbs_and_reports_the_same_columns() {
        let a0 = gen::circuit_unsym(40, 3, 1, 5);
        let opts = SympilerOptions {
            pivot_perturb: 1e-8,
            ..pivoted(Ordering::Colamd, PrePivot::Off)
        };
        let plan = LuPlan::build(&a0, &opts).unwrap();
        // Columns nothing updates: their pivot is A's diagonal entry.
        let free: Vec<usize> = (0..40)
            .filter(|&j| plan.schedule(j).next().is_none())
            .collect();
        let mut a = a0.clone();
        for (&j, tiny) in free.iter().zip([0.0, -1e-300]) {
            let old = plan.col_perm().unwrap()[j];
            let p = (a.col_ptr()[old]..a.col_ptr()[old + 1])
                .find(|&p| a.row_idx()[p] == old)
                .unwrap();
            a.values_mut()[p] = tiny;
        }
        let (bits, report) = outcome(&walker_of(&plan), &a).unwrap();
        assert_eq!(report.columns, free[..2]);
        assert!(report.threshold > 0.0);
        assert_eq!(Ok((bits, report)), outcome(&plan, &a));
        // Perturbed out of walk order, reported ascending.
        let (_, a) = two_zero_pivots_out_of_walk_order();
        let opts = SympilerOptions {
            pivot_perturb: 1e-3,
            ..Default::default()
        };
        let plan = LuPlan::build(&a, &opts).unwrap();
        let (bits, report) = outcome(&walker_of(&plan), &a).unwrap();
        assert_eq!(report.columns, [1, 2]);
        assert_eq!(Ok((bits, report)), outcome(&plan, &a));
    }

    #[test]
    fn walker_keeps_the_zero_multiplier_guard_semantics() {
        // Column 0 updates column 2 through U(0, 2), stored and exactly
        // zero; its destination A(1, 2) is -0.0. Guarded (unpeeled),
        // the update is skipped and -0.0 survives even past an Inf or
        // NaN in L(:, 0); peeled, it runs: -0.0 - (-L)·0 flips the
        // sign and Inf·0 poisons the entry. Either way both kernels
        // agree to the bit.
        for l10 in [-0.5, 0.5, f64::INFINITY, f64::NAN] {
            let a = matrix_of(
                3,
                &[
                    (0, 0, 2.0),
                    (1, 0, l10),
                    (2, 0, 0.25),
                    (1, 1, 3.0),
                    (0, 2, 0.0),
                    (1, 2, -0.0),
                    (2, 2, 4.0),
                ],
            );
            for (peel, peeled) in [(2, false), (0, true)] {
                let plan = LuPlan::build(&a, &SympilerOptions::default())
                    .unwrap()
                    .with_peel_above(peel);
                assert_eq!(plan.n_peeled() > 0, peeled);
                let walker = walker_of(&plan);
                let ops = &walker.positions.as_ref().unwrap().ops;
                assert!(ops.iter().all(|op| (op.l & UNGUARDED != 0) == peeled));
                assert_eq!(
                    outcome(&walker, &a),
                    outcome(&plan, &a),
                    "{l10} peel {peel}"
                );
                let f = walker.factor(&a).unwrap();
                let u12 = f.u().get(1, 2);
                if !peeled {
                    assert_eq!(u12.to_bits(), (-0.0f64).to_bits(), "guard skips: {l10}");
                } else if l10.is_finite() {
                    let flipped = if l10 < 0.0 { 0.0f64 } else { -0.0 };
                    assert_eq!(u12.to_bits(), flipped.to_bits(), "unguarded runs: {l10}");
                } else {
                    assert!(u12.is_nan(), "unguarded {l10} · 0 is NaN");
                }
            }
        }
    }

    #[test]
    fn walker_reports_the_same_zero_pivot_and_propagates_non_finite_input() {
        let a0 = gen::circuit_unsym(40, 3, 1, 2);
        let plan = LuPlan::build(&a0, &pivoted(Ordering::Colamd, PrePivot::Off)).unwrap();
        let walker = walker_of(&plan);
        let diag = |a: &CscMatrix, j: usize| {
            (a.col_ptr()[j]..a.col_ptr()[j + 1])
                .find(|&p| a.row_idx()[p] == j)
                .unwrap()
        };
        // The first pivot of the ordered system is A's own entry.
        let mut zeroed = a0.clone();
        let p = diag(&zeroed, plan.col_perm().unwrap()[0]);
        zeroed.values_mut()[p] = 0.0;
        let err = walker.factor(&zeroed).unwrap_err();
        assert_eq!(err, LuPlanError::ZeroPivot { column: 0 });
        assert_eq!(Err(err), outcome(&plan, &zeroed));
        // Structurally missing pivot (no pre-pivot): same column too.
        let zd = gen::circuit_zero_diag(40, 4, 1, 3);
        let off = LuPlan::build(&zd, &SympilerOptions::default()).unwrap();
        assert!(matches!(
            outcome(&walker_of(&off), &zd),
            Err(LuPlanError::ZeroPivot { .. })
        ));
        assert_eq!(outcome(&walker_of(&off), &zd), outcome(&off, &zd));
        // Zero pivots met out of column order: the smallest is named,
        // the column the accumulator kernel stops at.
        let (plan_3, a_3) = two_zero_pivots_out_of_walk_order();
        let err = walker_of(&plan_3).factor(&a_3).unwrap_err();
        assert_eq!(err, LuPlanError::ZeroPivot { column: 1 });
        assert_eq!(Err(err), outcome(&plan_3, &a_3));
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, a0.nnz() / 2, diag(&a0, 20)] {
                let mut a = a0.clone();
                a.values_mut()[at] = poison;
                assert_eq!(outcome(&walker, &a), outcome(&plan, &a), "{poison} at {at}");
            }
        }
    }

    #[test]
    fn table_bound_selects_the_kernel_not_the_factors() {
        let a = gen::convection_diffusion_2d(7, 6, 1.5, 3);
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let ratio = plan.n_multiply_adds() as f64 / (plan.l_nnz() + plan.u_nnz()) as f64;
        let under = plan.clone().with_position_tables(ratio * 1.001);
        let over = plan.clone().with_position_tables(ratio * 0.999);
        assert!(under.positions.is_some(), "just under the bound: walker");
        assert!(over.positions.is_none(), "just over: accumulator kernel");
        assert_eq!(outcome(&under, &a), outcome(&over, &a));
        assert_eq!(over.table_bytes(), plan.table_bytes());
        let t = under.positions.as_ref().unwrap();
        assert_eq!(t.ops.len() as u64, plan.n_multiply_adds());
        assert_eq!(t.ops.capacity(), t.ops.len(), "exact-capacity tables");
        let (n, l_sub, u_off) = (plan.n(), plan.l_nnz() - plan.n(), plan.u_nnz() - plan.n());
        let sweeps = &*t.sweeps;
        assert_eq!(t.cols.len(), n);
        assert_eq!((sweeps.fwd.len(), sweeps.bwd.len()), (l_sub, u_off));
        // Per column one 12-byte record (unit diagonal, `L` run end,
        // pivot) carries every division.
        assert_eq!(
            under.table_bytes() - plan.table_bytes(),
            12 * t.ops.len()
                + 4 * a.nnz()
                + 12 * n
                + 16 * t.levels.len()
                + 12 * (l_sub + u_off)
                + 4 * n
                + 8 * sweeps.fwd_levels.len()
                + 16 * sweeps.bwd_levels.len()
        );
        // Positions that would not fit u32 keep the accumulator kernel,
        // whatever the ratio (no such matrix fits a test).
        let inf = f64::INFINITY;
        assert!(PositionTables::admits(1 << 31, (1 << 31) - 1, 0, inf));
        assert!(!PositionTables::admits(1 << 31, 1 << 31, 0, inf));
        assert!(!PositionTables::admits((1 << 31) + 1, 8, 0, inf));
        assert!(PositionTables::admits(60, 40, 200, 2.0));
        assert!(!PositionTables::admits(60, 40, 201, 2.0));
    }

    #[test]
    fn corrupted_position_tables_fail_validation_not_an_index() {
        let a = gen::circuit_unsym(30, 3, 1, 8);
        let plan =
            walker_of(&LuPlan::build(&a, &pivoted(Ordering::Colamd, PrePivot::Off)).unwrap());
        let st = &*plan.structure;
        let good = plan.positions.clone().unwrap();
        assert_eq!(good.validate(st), Ok(()));
        let broken = |edit: &dyn Fn(&mut PositionTables)| {
            let mut t = good.clone();
            edit(&mut t);
            t.validate(st).unwrap_err()
        };
        let total = st.n_values() as u32;
        let last = good.ops.len() - 1;
        assert!(broken(&|t| t.a_dst[5] = total).contains("outside the value array"));
        assert!(broken(&|t| t.a_dst[5] = t.a_dst[6]).contains("repeats a position"));
        assert!(broken(&|t| t.levels.last_mut().unwrap().ops += 1).contains("past"));
        assert!(broken(&|t| {
            t.cols.pop();
        })
        .contains("past"));
        assert!(broken(&|t| {
            t.levels.pop();
        })
        .contains("levels end"));
        // A record must be exactly one column's: its `L` run cut short
        // or run on, its pivot moved, its start off a column.
        let record = "unit diagonal, L run and pivot";
        assert!(broken(&|t| t.cols[0].l_end -= 1).contains(record));
        assert!(broken(&|t| t.cols[0].l_end += 1).contains(record));
        assert!(broken(&|t| t.cols[0].pivot += 1).contains(record));
        assert!(broken(&|t| t.cols[0].l_start += 1).contains(record));
        assert!(broken(&|t| t.cols[1] = t.cols[0]).contains("sits in two levels"));
        // Level order: merging the first two levels leaves the second
        // level's updates reading L of columns in their own level; the
        // same merge in either solve leaves rows reading rows of theirs.
        assert!(good.levels.len() > 2 && good.levels[1].ops > good.levels[0].ops);
        assert!(broken(&|t| {
            t.levels.remove(0);
        })
        .contains("not an earlier level"));
        let fwd_levels = good.sweeps.fwd_levels.clone();
        assert!(
            fwd_levels.len() > 3 && fwd_levels[0] == 0,
            "level 0 rows have no terms"
        );
        let merged_fwd = broken(&|t| {
            Arc::make_mut(&mut t.sweeps).fwd_levels.remove(1);
        });
        assert!(merged_fwd.contains("forward") && merged_fwd.contains("not an earlier level"));
        let merged_bwd = broken(&|t| {
            Arc::make_mut(&mut t.sweeps).bwd_levels.remove(0);
        });
        assert!(merged_bwd.contains("backward") && merged_bwd.contains("not an earlier level"));
        let sweeps =
            |edit: &dyn Fn(&mut SolveSweeps)| broken(&|t| edit(Arc::make_mut(&mut t.sweeps)));
        assert!(sweeps(&|s| s.rows[1] = s.rows[0]).contains("sits in two levels"));
        assert!(sweeps(&|s| s.fwd[0].pos += 1).contains("not its row's entry"));
        assert!(sweeps(&|s| {
            s.bwd.pop();
        })
        .contains("past"));
        // A destination outside its column, an L source that is not an
        // earlier column, a U source in another column.
        assert!(broken(&|t| t.ops[last].dst = 0).contains("operand ranges"));
        assert!(broken(&|t| t.ops[last].l = total - 1).contains("operand ranges"));
        assert!(broken(&|t| t.ops[last].u = st.l_nnz() as u32).contains("operand ranges"));
    }

    #[test]
    fn walker_handles_degenerate_sizes_and_leaves_the_workspace_alone() {
        let mut ws = LuWorkspace::new();
        let empty = CscMatrix::from_parts_unchecked(0, 0, vec![0], vec![], vec![]);
        let one = matrix_of(1, &[(0, 0, 4.0)]);
        let diagonal = matrix_of(
            5,
            &[
                (0, 0, 1.0),
                (1, 1, 2.0),
                (2, 2, 3.0),
                (3, 3, 4.0),
                (4, 4, 5.0),
            ],
        );
        for a in [&empty, &one, &diagonal] {
            let plan = LuPlan::build(a, &SympilerOptions::default()).unwrap();
            let walker = walker_of(&plan);
            assert!(walker.positions.as_ref().unwrap().ops.is_empty());
            let f = walker.factor_with(a, &mut ws).unwrap();
            assert_eq!(outcome(&walker, a), outcome(&plan, a));
            let b: Vec<f64> = (0..a.n_cols()).map(|i| (i + 1) as f64).collect();
            assert!(f.solve(&b).iter().all(|&x| x == 1.0 || a.n_cols() == 1));
        }
        assert_eq!(ws.capacity(), 0, "the walker never touches a workspace");
        // After the accumulator kernel grew it, too.
        let a = gen::circuit_unsym(60, 3, 1, 4);
        let plan = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
        let walker = walker_of(&plan);
        plan.factor_with(&a, &mut ws).unwrap();
        let grown = ws.capacity();
        walker.factor_with(&a, &mut ws).unwrap();
        walker.factor_batch(&[&a, &a]).unwrap();
        assert!(ws.capacity() == grown && ws.is_clear());
    }
}
