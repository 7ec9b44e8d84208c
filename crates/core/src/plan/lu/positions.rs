//! The position-addressed walker of the serial scalar tier: every
//! index the accumulator kernel resolves at run time — where an entry
//! of `A` lands, which entry an update reads and writes — baked into
//! tables at compile time, so the numeric phase touches nothing but
//! values and positions.
//!
//! * `a_dst[p]` is the position, in the factor value array (`L` then
//!   `U`), of the `p`-th stored entry of the caller's *original* `A` —
//!   ordering, pre-pivot and row map folded in.
//! * One flat **op stream** holds, for every multiply-add of the
//!   canonical schedule, its destination, its `L` source and its `U`
//!   source position; `col_ops[j]` says how many belong to column `j`.
//!
//! [`LuPlan::walk_positions`] is then one streaming pass
//! `vals[a_dst[p]] = a[p]` and, per column, one flat loop
//! `vals[dst] -= vals[l] * vals[u]`, the pivot test and an in-place
//! division of `L(:, j)` — no accumulator, no gather, no clear, no loop
//! nest whose short inner loops mispredict. Per entry it performs the
//! accumulator kernel's operations in the accumulator kernel's order,
//! so the factors are `to_bits`-identical. The module owns the table
//! format: builder, validator and walker are its only readers.

use super::{LuPlan, LuPlanError, LuStructure};
use sympiler_sparse::CscMatrix;

/// The serial executor bakes position tables only where the op stream
/// stays small next to the factors: at most this many multiply-adds per
/// entry of `L + U`. Fill-free circuits sit at 0.44. `ablation_thresholds`
/// prints the sweep behind the value (both kernels against this ratio):
/// at n = 20 000 the walker wins 1.7–1.8× at 0.44 and still 1.07× at
/// 1.1, and loses from 1.6 up on banded patterns (0.9× there, 0.8× at
/// 2.1, 0.4–0.65× at 5.5), whose long, predictable update loops suit
/// the accumulator kernel and whose tables, at 12 bytes per
/// multiply-add, outgrow the factors.
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

/// Everything the position-addressed walker reads besides the factor
/// structure: the schedule unrolled into operand positions at compile
/// time, ordering, pre-pivot and row map folded in.
#[derive(Debug, Clone)]
pub(super) struct PositionTables {
    /// `a_dst[p]`: position of the `p`-th stored entry of the caller's
    /// *original* `A`.
    a_dst: Vec<u32>,
    /// Every multiply-add, column by column, in schedule order.
    ops: Vec<PosOp>,
    /// Ops of each column (sums to `ops.len()`).
    col_ops: Vec<u32>,
}

impl PositionTables {
    /// Resident bytes of the tables.
    pub(super) fn bytes(&self) -> usize {
        (self.a_dst.len() + self.col_ops.len()) * 4 + self.ops.len() * std::mem::size_of::<PosOp>()
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

    /// Check what the walker relies on: every position addresses the
    /// value array, no two entries of `A` share a slot, each op reads
    /// `U` inside its own column and `L` in an earlier one and writes
    /// its own column, and the per-column counts cover the stream.
    fn validate(&self, st: &LuStructure) -> Result<(), String> {
        let l_nnz = st.l_nnz();
        let mut taken = vec![false; st.n_values()];
        for (p, &d) in self.a_dst.iter().enumerate() {
            match taken.get_mut(d as usize) {
                Some(t) if !*t => *t = true,
                Some(_) => return Err(format!("a_dst[{p}] = {d} repeats a position")),
                None => return Err(format!("a_dst[{p}] = {d} is outside the value array")),
            }
        }
        let counted: usize = self.col_ops.iter().map(|&c| c as usize).sum();
        if self.col_ops.len() != st.n() || counted != self.ops.len() {
            return Err(format!(
                "{counted} ops counted over {} columns, {} in the stream of {} columns",
                self.col_ops.len(),
                self.ops.len(),
                st.n()
            ));
        }
        let mut ops = self.ops.iter();
        for (j, &count) in self.col_ops.iter().enumerate() {
            let l_col = st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1];
            let u_col = l_nnz + st.u_col_ptr[j]..l_nnz + st.u_col_ptr[j + 1];
            for op in ops.by_ref().take(count as usize) {
                let (dst, l, u) = (op.dst as usize, (op.l & !UNGUARDED) as usize, op.u as usize);
                let in_column = u_col.contains(&dst) || l_col.contains(&dst);
                if !(in_column && l < st.l_col_ptr[j] && u_col.contains(&u)) {
                    return Err(format!("column {j}: {op:?} leaves its operand ranges"));
                }
            }
        }
        Ok(())
    }
}

impl LuPlan {
    /// The position-addressed walker: one streaming pass places `A`'s
    /// values, then each column runs its slice of the flat op stream,
    /// the pivot test and an in-place division of `L(:, j)` — per entry
    /// the accumulator kernel's operations in the accumulator kernel's
    /// order, with no index left to resolve. Returns the perturbed
    /// columns.
    pub(super) fn walk_positions(
        &self,
        tables: &PositionTables,
        a: &CscMatrix,
        vals: &mut [f64],
        thresh: f64,
    ) -> Result<Vec<usize>, LuPlanError> {
        let st = &*self.structure;
        let l_nnz = st.l_nnz();
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
        let mut ops = &tables.ops[..];
        for (j, &count) in tables.col_ops.iter().enumerate() {
            let (col, rest) = ops.split_at(count as usize);
            ops = rest;
            for op in col {
                let u = vals[op.u as usize];
                // Unpeeled updates skip a zero multiplier, as the
                // accumulator kernel's `xk != 0.0` guard does.
                if op.l & UNGUARDED != 0 || u != 0.0 {
                    vals[op.dst as usize] -= vals[(op.l & !UNGUARDED) as usize] * u;
                }
            }
            let diag = l_nnz + st.u_col_ptr[j + 1] - 1;
            let mut pivot = vals[diag];
            // With thresh == 0.0 (perturbation off) the strict `<` can
            // never hold.
            if pivot.abs() < thresh {
                pivot = if pivot.is_sign_negative() {
                    -thresh
                } else {
                    thresh
                };
                vals[diag] = pivot;
                perturbed.push(j);
            } else if pivot == 0.0 {
                return Err(LuPlanError::ZeroPivot { column: j });
            }
            let l_col = &mut vals[st.l_col_ptr[j]..st.l_col_ptr[j + 1]];
            l_col[0] = 1.0;
            for v in &mut l_col[1..] {
                *v /= pivot;
            }
        }
        Ok(perturbed)
    }

    /// Bake the position tables of the accumulator-free walker, if the
    /// pattern admits them: positions fit `u32` and the schedule holds
    /// at most `max_ops_per_entry` multiply-adds per entry of `L + U`
    /// (else the plan is returned as it came and keeps the accumulator
    /// kernel — as is a [`Self::leveled`] plan, whose columns run out
    /// of order). [`crate::SympilerLu::compile`] calls this with
    /// [`POSITION_MAX_OPS_PER_ENTRY`] for the one-thread scalar plan —
    /// leveled columns and panels never read the tables, so plans
    /// built directly stay without them (`f64::MAX` forces the walker
    /// onto any in-order plan, which is how tests and the ablation
    /// compare the kernels). One `O(nnz + ops)` pass over the layouts;
    /// [`Self::factor`] results are bitwise those of the accumulator
    /// kernel.
    pub fn with_position_tables(mut self, max_ops_per_entry: f64) -> Self {
        let n_ops = self.n_multiply_adds();
        if self.levels.is_some()
            || !PositionTables::admits(self.l_nnz(), self.u_nnz(), n_ops, max_ops_per_entry)
        {
            return self;
        }
        let st = &*self.structure;
        let l_nnz = st.l_nnz();
        // `pos[r]`: position of row `r` of the column being baked. Stale
        // rows are never read — the column's pattern holds every row
        // `A(:, j)` and its updates touch.
        let mut pos = vec![0u32; self.n];
        let mut a_dst = vec![0u32; self.a_nnz];
        let mut ops = Vec::with_capacity(n_ops as usize);
        let mut col_ops = Vec::with_capacity(self.n);
        for j in 0..self.n {
            let u_range = st.u_col_ptr[j]..st.u_col_ptr[j + 1];
            for q in u_range.clone() {
                pos[st.u_row_idx[q] as usize] = (l_nnz + q) as u32;
            }
            for p in st.l_col_ptr[j] + 1..st.l_col_ptr[j + 1] {
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
            let first = ops.len();
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
            col_ops.push((ops.len() - first) as u32);
        }
        let tables = PositionTables {
            a_dst,
            ops,
            col_ops,
        };
        debug_assert_eq!(tables.validate(st), Ok(()));
        self.positions = Some(tables);
        self
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

    /// Bits of the whole value array plus the perturbation record — or
    /// the error — of one factorization.
    fn outcome(plan: &LuPlan, a: &CscMatrix) -> Result<(Vec<u64>, PerturbReport), LuPlanError> {
        plan.factor(a).map(|f| {
            let bits = f.vals.iter().map(|v| v.to_bits()).collect();
            (bits, f.perturb)
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
                                // The leveled walk of the same cell, which
                                // the public API reaches only at peel 2.
                                assert_eq!(
                                    outcome(&plan.clone().leveled(2), a),
                                    outcome(&plan, a),
                                    "leveled: {ordering:?} {pre_pivot:?} peel={peel} seed={seed}"
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
        assert_eq!(
            under.table_bytes() - plan.table_bytes(),
            12 * t.ops.len() + 4 * a.nnz() + 4 * plan.n()
        );
        // Tables resolve the in-order walk only: leveling drops them,
        // and a leveled plan takes none. One thread is in order.
        assert!(under.clone().leveled(2).positions.is_none());
        let leveled = plan.clone().leveled(2).with_position_tables(f64::MAX);
        assert!(leveled.positions.is_none() && leveled.n_threads() == 2);
        assert!(under.clone().leveled(1).positions.is_some());
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
        assert!(broken(&|t| t.col_ops[0] += 1).contains("ops counted"));
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
