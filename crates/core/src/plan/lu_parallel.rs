//! Level-scheduled parallel LU numeric phase (the ROADMAP's "parallel
//! LU over the column elimination DAG").
//!
//! Once symbolic analysis is decoupled, the numeric factorization is a
//! pure schedule — and a schedule can be re-ordered any way its
//! dependences allow. The dependences of left-looking LU are exactly
//! the column elimination DAG the inspector already computed: column
//! `j` consumes `L(:, k)` for every `k` in its baked update schedule
//! (equivalently, every `k < j` with `U(k, j) != 0`). Columns in the
//! same longest-path level of that DAG touch only *finalized* columns
//! from earlier levels, so they can execute concurrently — the
//! H-Level idea the paper applies to triangular solve
//! ([`super::tri_parallel`]), applied here to factorization.
//!
//! Execution model:
//!
//! * the DAG is leveled at **compile time** with the generalized
//!   scheduler ([`sympiler_graph::levels::dag_levels_from_preds`]);
//! * each level's columns are split into per-worker chunks at compile
//!   time, **cost-balanced** with the exact per-column flop counts the
//!   inspector computed ([`sympiler_graph::levels::balanced_partition`]);
//! * `factor` spawns its workers **once** (`std::thread::scope`) and
//!   separates levels with a [`std::sync::Barrier`] — no per-level
//!   spawn cost, which matters because elimination DAGs are much
//!   deeper than triangular-solve DAGs;
//! * every column runs the same per-column kernel as the serial plan
//!   (`LuPlan::column_numeric`), each worker owning a private dense accumulator
//!   and writing only its own columns' value ranges — results are
//!   therefore **bitwise identical** across thread counts, including
//!   `n_threads = 1`;
//! * barriers are **elided at compile time** between consecutive
//!   levels owned entirely by the same worker: program order already
//!   sequences same-thread work, so chain-shaped stretches of the DAG
//!   (ubiquitous when matrices factor unordered — a banded `U` makes
//!   column `j` depend on `j - 1`) run at serial speed instead of
//!   paying one barrier per column.

use super::lu::{LuFactor, LuPlan, LuPlanError, PerturbReport, PivotStatus};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use sympiler_graph::levels::{balanced_partition, dag_levels_from_preds};
use sympiler_sparse::CscMatrix;

/// Avoid clashing with `std::sync::atomic::Ordering` in this module.
use sympiler_graph::ordering::Ordering as FillOrdering;

/// A compiled LU factorization whose numeric phase executes the column
/// elimination DAG level by level across a fixed number of threads.
#[derive(Debug, Clone)]
pub struct ParallelLuPlan {
    plan: LuPlan,
    n_threads: usize,
    /// Columns flattened level by level (ascending within a level):
    /// level `lv` is `level_cols[level_ptr[lv]..level_ptr[lv + 1]]`.
    level_cols: Vec<usize>,
    level_ptr: Vec<usize>,
    /// Per-level worker chunks: `n_threads + 1` boundaries per level,
    /// relative to the level start. Worker `t` of level `lv` owns
    /// `chunk_bounds[lv * (T+1) + t]..chunk_bounds[lv * (T+1) + t + 1]`.
    chunk_bounds: Vec<usize>,
    /// `barrier_after[lv]`: whether workers must synchronize after
    /// level `lv`. Compile-time constant, so every worker agrees.
    /// Elided when levels `lv` and `lv + 1` are single-owner by the
    /// same worker — see [`Self::factor`]'s safety argument.
    barrier_after: Vec<bool>,
}

/// Shared mutable view of the factor value arrays, handed to the
/// scoped workers.
///
/// SAFETY ARGUMENT: each column's `L`/`U` value ranges are written by
/// exactly one worker (the compile-time chunk owner) during the
/// column's level, and read by other workers only in strictly later
/// levels; a [`Barrier`] separates levels, establishing happens-before
/// between the write and every read. No location is ever accessed
/// concurrently with a write, so handing every worker raw pointers is
/// data-race-free.
struct SharedFactor {
    lx: *mut f64,
    ux: *mut f64,
}

// SAFETY: see the struct-level safety argument — disjoint writes,
// barrier-ordered reads.
unsafe impl Sync for SharedFactor {}

impl ParallelLuPlan {
    /// Compile a parallel plan for the square matrix `a`. `low_level`
    /// and `peel_col_count` select the peeled update tier exactly like
    /// [`LuPlan::build`]; `n_threads` fixes the worker count baked
    /// into the schedule.
    pub fn build(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
        n_threads: usize,
    ) -> Result<Self, LuPlanError> {
        Ok(Self::from_plan(
            LuPlan::build(a, low_level, peel_col_count)?,
            n_threads,
        ))
    }

    /// Compile a parallel plan under a fill-reducing ordering
    /// ([`LuPlan::build_ordered`]). This is where orderings pay twice:
    /// less fill means fewer numeric flops, and the reordered column
    /// elimination DAG is shallower and bushier, so the leveling below
    /// finds real concurrency where the natural order yields
    /// near-chains.
    pub fn build_ordered(
        a: &CscMatrix,
        low_level: bool,
        peel_col_count: usize,
        ordering: FillOrdering,
        n_threads: usize,
    ) -> Result<Self, LuPlanError> {
        Ok(Self::from_plan(
            LuPlan::build_ordered(a, low_level, peel_col_count, ordering)?,
            n_threads,
        ))
    }

    /// Level and chunk an already-compiled serial plan. Pure schedule
    /// re-arrangement: no symbolic analysis re-runs — the elimination
    /// DAG is read straight off the baked update schedules.
    pub fn from_plan(plan: LuPlan, n_threads: usize) -> Self {
        assert!(n_threads >= 1, "need at least one thread");
        let n = plan.n();
        let levels = dag_levels_from_preds(n, |j| plan.schedule(j));
        let costs = plan.per_column_costs(&plan.per_column_flops());
        let mut level_cols = Vec::with_capacity(n);
        let mut level_ptr = Vec::with_capacity(levels.n_levels() + 1);
        let mut chunk_bounds = Vec::with_capacity(levels.n_levels() * (n_threads + 1));
        level_ptr.push(0);
        // Whether worker 0 owns the level wholesale (the common case
        // on chain-shaped stretches of the DAG, where levels are
        // singletons).
        let mut sole_owner: Vec<bool> = Vec::with_capacity(levels.n_levels());
        for cols in &levels.levels {
            let col_costs: Vec<u64> = cols.iter().map(|&j| costs[j]).collect();
            let mut bounds = balanced_partition(&col_costs, n_threads);
            // When the cost split hands one worker the whole level
            // (whichever worker the prefix-sum targets landed it on —
            // that varies with the cost magnitude for singletons),
            // normalize ownership to worker 0: same work, and giving
            // consecutive such levels one fixed owner is what lets
            // their barriers elide below.
            let whole = (0..n_threads).any(|t| bounds[t + 1] - bounds[t] == cols.len());
            if whole {
                for b in bounds.iter_mut().skip(1) {
                    *b = cols.len();
                }
            }
            sole_owner.push(whole);
            chunk_bounds.extend(bounds);
            level_cols.extend_from_slice(cols);
            level_ptr.push(level_cols.len());
        }
        // Elide the barrier after level lv when lv and lv + 1 are both
        // owned wholesale by worker 0: program order already sequences
        // that worker's columns, and no other worker wrote anything
        // since the last kept barrier. No barrier is needed after the
        // last level (the scope join synchronizes).
        let n_levels = sole_owner.len();
        let barrier_after: Vec<bool> = (0..n_levels)
            .map(|lv| lv + 1 < n_levels && !(sole_owner[lv] && sole_owner[lv + 1]))
            .collect();
        Self {
            plan,
            n_threads,
            level_cols,
            level_ptr,
            chunk_bounds,
            barrier_after,
        }
    }

    /// The underlying serial plan (shared symbolic analysis, report,
    /// flop counts, C emission).
    pub fn serial(&self) -> &LuPlan {
        &self.plan
    }

    /// Worker count baked into the schedule.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Number of levels (critical-path length of the elimination DAG).
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Average available parallelism: columns per level.
    pub fn avg_parallelism(&self) -> f64 {
        if self.n_levels() == 0 {
            0.0
        } else {
            self.level_cols.len() as f64 / self.n_levels() as f64
        }
    }

    /// Barriers the numeric phase actually executes (after compile-time
    /// elision between same-owner levels). A chain-shaped DAG owned by
    /// one worker costs zero barriers.
    pub fn n_barriers(&self) -> usize {
        self.barrier_after.iter().filter(|&&b| b).count()
    }

    /// The columns of level `lv`, ascending.
    pub fn level(&self, lv: usize) -> &[usize] {
        &self.level_cols[self.level_ptr[lv]..self.level_ptr[lv + 1]]
    }

    /// The chunk of level `lv` owned by worker `t`.
    fn chunk(&self, lv: usize, t: usize) -> &[usize] {
        let base = self.level_ptr[lv];
        let o = lv * (self.n_threads + 1);
        let lo = base + self.chunk_bounds[o + t];
        let hi = base + self.chunk_bounds[o + t + 1];
        &self.level_cols[lo..hi]
    }

    /// Parallel numeric factorization: identical results to
    /// [`LuPlan::factor`], bit for bit, at any thread count.
    pub fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        if self.n_threads == 1 {
            // No point paying for the barrier protocol; the serial
            // plan runs the same columns in a level-compatible order.
            return self.plan.factor(a);
        }
        self.plan.check_pattern(a)?;
        let n = self.plan.n();
        let n_levels = self.n_levels();
        let mut vals = self.plan.new_values();
        let (lx, ux) = vals.split_at_mut(self.plan.l_nnz());
        let shared = SharedFactor {
            lx: lx.as_mut_ptr(),
            ux: ux.as_mut_ptr(),
        };
        let barrier = Barrier::new(self.n_threads);
        // Smallest column with a zero pivot; `usize::MAX` = all good.
        // Workers flag and keep going (the kernel's values stay
        // IEEE-defined), so no consensus protocol is needed mid-run.
        let first_bad = AtomicUsize::new(usize::MAX);
        // Static perturbation threshold (0.0 = off) and the merged
        // perturbed-column record. Workers buffer locally and push once
        // at the end, so the hot loop never touches the mutex.
        let thresh = self.plan.perturb_threshold(a);
        let perturbed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        // Observability (active only when the plan was compiled with
        // profiling): each worker records a `work` span per
        // barrier-separated segment and a `barrier` span per wait on
        // its own lane, and accumulates busy/wait time and executed
        // flops locally — one atomic store per worker at the end, so
        // the instrumented hot loop stays contention-free. Nothing
        // here touches numeric state: results stay bitwise identical.
        let prof = self.plan.profiler().as_ref();
        let enabled = prof.is_enabled();
        let outer = if enabled {
            prof.begin(0, "factor:parallel")
        } else {
            None
        };
        let busy: Vec<AtomicU64> = (0..self.n_threads).map(|_| AtomicU64::new(0)).collect();
        let wait: Vec<AtomicU64> = (0..self.n_threads).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for t in 0..self.n_threads {
                let shared = &shared;
                let barrier = &barrier;
                let first_bad = &first_bad;
                let (busy, wait) = (&busy, &wait);
                let perturbed = &perturbed;
                scope.spawn(move || {
                    let mut x = vec![0.0f64; n];
                    let mut my_perturbed: Vec<usize> = Vec::new();
                    let mut my_busy = 0u64;
                    let mut my_wait = 0u64;
                    let mut seg_start = prof.now_ns();
                    let mut seg_first_lv = 0usize;
                    for lv in 0..n_levels {
                        for &j in self.chunk(lv, t) {
                            // SAFETY: this worker is the unique owner
                            // of column j (compile-time chunking);
                            // every scheduled update column sits in an
                            // earlier level, finalized either by this
                            // same worker in program order (elided
                            // barriers only span same-single-owner
                            // levels) or before the last kept barrier.
                            // See SharedFactor.
                            let status = unsafe {
                                self.plan
                                    .column_numeric(j, a, &mut x, shared.lx, shared.ux, thresh)
                            };
                            match status {
                                PivotStatus::Clean => {}
                                PivotStatus::Perturbed => my_perturbed.push(j),
                                PivotStatus::Zero => {
                                    first_bad.fetch_min(j, Ordering::Relaxed);
                                }
                            }
                        }
                        // Compile-time constant, so every worker takes
                        // the same barriers.
                        if self.barrier_after[lv] {
                            if enabled {
                                let now = prof.now_ns();
                                prof.add_span(
                                    t,
                                    "work",
                                    seg_start,
                                    now - seg_start,
                                    &[
                                        ("level_first", seg_first_lv as f64),
                                        ("level_last", lv as f64),
                                    ],
                                );
                                my_busy += now - seg_start;
                                barrier.wait();
                                let after = prof.now_ns();
                                prof.add_span(
                                    t,
                                    "barrier",
                                    now,
                                    after - now,
                                    &[("level", lv as f64)],
                                );
                                my_wait += after - now;
                                seg_start = after;
                                seg_first_lv = lv + 1;
                            } else {
                                barrier.wait();
                            }
                        }
                    }
                    if enabled {
                        if n_levels > 0 && seg_first_lv < n_levels {
                            let now = prof.now_ns();
                            prof.add_span(
                                t,
                                "work",
                                seg_start,
                                now - seg_start,
                                &[
                                    ("level_first", seg_first_lv as f64),
                                    ("level_last", (n_levels - 1) as f64),
                                ],
                            );
                            my_busy += now - seg_start;
                        }
                        busy[t].store(my_busy, Ordering::Relaxed);
                        wait[t].store(my_wait, Ordering::Relaxed);
                    }
                    if !my_perturbed.is_empty() {
                        perturbed.lock().unwrap().extend(my_perturbed);
                    }
                });
            }
        });
        if enabled {
            let busys: Vec<u64> = busy.iter().map(|b| b.load(Ordering::Relaxed)).collect();
            for (t, (&b, w)) in busys.iter().zip(&wait).enumerate() {
                prof.counter(&format!("par.t{t}.busy_ns")).add(b);
                prof.counter(&format!("par.t{t}.wait_ns"))
                    .add(w.load(Ordering::Relaxed));
            }
            let max = busys.iter().copied().max().unwrap_or(0) as f64;
            let mean = busys.iter().sum::<u64>() as f64 / busys.len().max(1) as f64;
            if mean > 0.0 {
                prof.gauge("par.imbalance", max / mean);
            }
            // Every column runs, whatever its pivot: the executed flops
            // are the plan's compile-time total.
            let flops_done = self.plan.flops();
            prof.counter("flops.scalar").add(flops_done);
            prof.end_with(
                outer,
                &[
                    ("threads", self.n_threads as f64),
                    ("levels", n_levels as f64),
                    ("flops", flops_done as f64),
                ],
            );
        }
        // The scope join synchronizes every worker's writes, including
        // the relaxed flag. The smallest flagged column is exactly the
        // column the serial plan would have reported: all columns
        // before it have clean ancestors and thus identical pivots.
        let column = first_bad.into_inner();
        if column != usize::MAX {
            return Err(LuPlanError::ZeroPivot { column });
        }
        // Merge order depends on worker timing; sort so the report is
        // deterministic (column order, like the serial kernel's).
        let mut columns = perturbed.into_inner().unwrap();
        columns.sort_unstable();
        Ok(self.plan.finish(
            a,
            vals,
            PerturbReport {
                columns,
                threshold: thresh,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    fn bitwise_eq(a: &LuFactor, b: &LuFactor) -> bool {
        a.l()
            .values()
            .iter()
            .zip(b.l().values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.u()
                .values()
                .iter()
                .zip(b.u().values())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        for seed in 0..4u64 {
            for a in [
                gen::circuit_unsym(120, 4, 2, seed),
                gen::random_unsym(90, 4, seed + 40),
                gen::convection_diffusion_2d(9, 8, 1.5, seed + 80),
            ] {
                let serial = LuPlan::build(&a, true, 2).unwrap();
                let f_serial = serial.factor(&a).unwrap();
                for threads in [2, 3, 4] {
                    let par = ParallelLuPlan::from_plan(serial.clone(), threads);
                    let f_par = par.factor(&a).unwrap();
                    assert!(
                        bitwise_eq(&f_serial, &f_par),
                        "seed {seed}, {threads} threads: factors must be bitwise identical"
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_parallel_plan_matches_ordered_serial_bitwise() {
        let a = gen::circuit_unsym(110, 4, 2, 6);
        for ordering in [FillOrdering::Rcm, FillOrdering::Colamd] {
            let serial = LuPlan::build_ordered(&a, true, 2, ordering).unwrap();
            let f_serial = serial.factor(&a).unwrap();
            let par = ParallelLuPlan::build_ordered(&a, true, 2, ordering, 3).unwrap();
            assert_eq!(par.serial().ordering(), ordering);
            let f_par = par.factor(&a).unwrap();
            assert!(
                bitwise_eq(&f_serial, &f_par),
                "{ordering:?}: ordered parallel factors must be bitwise serial"
            );
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let a = gen::circuit_unsym(100, 4, 2, 11);
        let par = ParallelLuPlan::build(&a, true, 2, 4).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = par.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2), "same plan, same input, same bits");
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        let a = gen::random_unsym(50, 3, 5);
        let par = ParallelLuPlan::build(&a, true, 2, 1).unwrap();
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
        assert_eq!(par.n_threads(), 1);
    }

    #[test]
    fn levels_partition_all_columns_and_respect_deps() {
        let a = gen::circuit_unsym(80, 4, 2, 3);
        let par = ParallelLuPlan::build(&a, true, 2, 3).unwrap();
        let n = a.n_cols();
        // Every column appears exactly once across levels, and exactly
        // once across the per-worker chunks of its level.
        let mut seen = vec![false; n];
        for lv in 0..par.n_levels() {
            let mut level_cols: Vec<usize> = Vec::new();
            for t in 0..par.n_threads() {
                level_cols.extend_from_slice(par.chunk(lv, t));
            }
            assert_eq!(level_cols, par.level(lv), "level {lv} chunk cover");
            for &j in par.level(lv) {
                assert!(!seen[j], "column {j} scheduled twice");
                seen[j] = true;
                // Dependences point strictly to earlier levels.
                for k in par.serial().schedule(j) {
                    let kl = (0..par.n_levels())
                        .find(|&l| par.level(l).contains(&k))
                        .unwrap();
                    assert!(kl < lv, "update {k}->{j} must cross levels downward");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all columns scheduled");
        assert!(par.avg_parallelism() >= 1.0);
    }

    #[test]
    fn chain_dag_elides_every_barrier() {
        // Diag + superdiagonal: column j depends on j - 1, a pure
        // chain. Every level is a singleton owned by worker 0, so the
        // compiled schedule must contain no barriers at all — and the
        // factor must still be bitwise serial.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::build(&a, true, 2, 4).unwrap();
        assert_eq!(par.n_levels(), n);
        assert_eq!(par.n_barriers(), 0, "chain must cost zero barriers");
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn heterogeneous_chain_still_elides_every_barrier() {
        // A superdiagonal chain whose per-column costs alternate
        // (every third column carries a sub-diagonal entry, which is
        // absorbed as the next column's diagonal — no fill, but the
        // costs cycle 5, 5, 3). A singleton level's cost used to pick
        // its owner (the prefix-sum target lands a cost-3 column on
        // worker 1 at 4 threads, a cost-5 column on worker 0), so the
        // owners alternated and most barriers survived. Ownership is
        // now normalized to worker 0, so the chain must cost zero
        // barriers.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 3.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0); // the chain edge j -> j + 1
                if j % 3 == 0 {
                    t.push(j + 1, j, 0.25); // heavier column, no fill
                }
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::build(&a, true, 2, 4).unwrap();
        assert_eq!(par.n_levels(), n, "superdiagonal chain dominates");
        assert_eq!(
            par.n_barriers(),
            0,
            "cost-heterogeneous chain must still elide all barriers"
        );
        let serial = LuPlan::build(&a, true, 2).unwrap();
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn wide_dag_keeps_barriers() {
        // An arrow pointing up-left (dense last row and column): the
        // first n - 1 columns are mutually independent and all feed
        // the last one — two levels, multiple owners, so the single
        // level boundary must keep its barrier.
        let n = 32;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
            if j + 1 < n {
                t.push(n - 1, j, 1.0);
                t.push(j, n - 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = ParallelLuPlan::build(&a, true, 2, 4).unwrap();
        assert_eq!(par.n_levels(), 2);
        assert_eq!(par.n_barriers(), 1);
        assert_eq!(par.level(1), &[n - 1]);
        let serial = LuPlan::build(&a, true, 2).unwrap();
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn zero_pivot_reported_like_serial() {
        // Diagonal matrix with one zeroed value: the parallel plan must
        // report the same column as the serial plan.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 1.0);
        }
        let a0 = t.to_csc().unwrap();
        let mut a = a0.clone();
        a.values_mut()[3] = 0.0;
        let serial = LuPlan::build(&a0, true, 2).unwrap();
        let serial_err = serial.factor(&a).unwrap_err();
        let par = ParallelLuPlan::from_plan(serial, 3);
        let par_err = par.factor(&a).unwrap_err();
        assert_eq!(serial_err, par_err);
        assert!(matches!(par_err, LuPlanError::ZeroPivot { column: 3 }));
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = gen::random_unsym(30, 3, 1);
        let par = ParallelLuPlan::build(&a, true, 2, 2).unwrap();
        let other = gen::random_unsym(30, 3, 2);
        assert!(matches!(
            par.factor(&other),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn more_threads_than_columns() {
        let a = gen::random_unsym(5, 2, 9);
        let par = ParallelLuPlan::build(&a, true, 2, 8).unwrap();
        let serial = LuPlan::build(&a, true, 2).unwrap();
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn empty_matrix() {
        let a = sympiler_sparse::CscMatrix::zeros(0, 0);
        let par = ParallelLuPlan::build(&a, true, 2, 2).unwrap();
        assert_eq!(par.n_levels(), 0);
        assert_eq!(par.avg_parallelism(), 0.0);
        let f = par.factor(&a).unwrap();
        assert_eq!(f.l().nnz(), 0);
    }

    #[test]
    fn solve_through_parallel_factor() {
        let a = gen::convection_diffusion_2d(8, 8, 2.0, 7);
        let par = ParallelLuPlan::build(&a, true, 2, 4).unwrap();
        let f = par.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
    }
}
