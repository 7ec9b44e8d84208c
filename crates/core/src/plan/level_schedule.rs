//! The one level scheduler and the one walker of the compiled LU
//! numeric phases.
//!
//! Once symbolic analysis is decoupled, a numeric factorization is a
//! pure schedule, and a schedule can be re-ordered any way its
//! dependences allow. The inspector hands over one DAG — item `i`
//! consumes the items `preds(i)` — and everything else here is
//! independent of what an *item* is: a column of the scalar plan
//! (`LuPlan::column_numeric`, dependences = the off-diagonal pattern of
//! `U(:, j)`) or a panel of the supernodal plan (`panel_numeric`,
//! dependences = its source panels). Items in one longest-path level
//! touch only finalized items of earlier levels, so they can run
//! concurrently — the H-Level idea the paper applies to triangular
//! solve, applied to factorization.
//!
//! * [`LevelSchedule::build`] levels the DAG at **compile time**
//!   ([`sympiler_graph::levels::dag_levels_from_preds`]), splits each
//!   level into per-worker chunks **cost-balanced** by the exact costs
//!   the inspector computed
//!   ([`sympiler_graph::levels::balanced_partition`]), and **elides the
//!   barrier** between consecutive levels owned wholesale by worker 0:
//!   program order already sequences one worker's items, so chain-shaped
//!   stretches of the DAG (ubiquitous when matrices factor unordered — a
//!   banded `U` makes column `j` depend on `j - 1`) run at serial speed
//!   instead of paying one barrier per item.
//! * `walk` runs an item kernel over every item: in index order on the
//!   calling thread when there is no schedule, otherwise level by level
//!   over `n_threads` lanes — the calling thread plus scoped workers
//!   spawned **once** per call, separated by one [`Barrier`]. Each item
//!   performs one fixed operation sequence whichever lane runs it, so
//!   results are bitwise identical at every thread count.

use std::sync::Barrier;
use sympiler_graph::levels::{balanced_partition, dag_levels_from_preds};
use sympiler_obs::Profiler;

/// A DAG of `n` items leveled and chunked for a fixed worker count.
///
/// The fields are private and written by [`Self::build`] alone: the
/// walker hands raw pointers to several threads on the strength of the
/// four facts [`Self::validate`] checks.
#[derive(Debug, Clone)]
pub struct LevelSchedule {
    n_threads: usize,
    /// Items flattened level by level (ascending within a level):
    /// level `lv` is `items[level_ptr[lv]..level_ptr[lv + 1]]`.
    items: Vec<u32>,
    level_ptr: Vec<u32>,
    /// Per-level worker chunks: `n_threads + 1` boundaries per level,
    /// relative to the level start. Worker `t` of level `lv` owns
    /// `chunk_bounds[lv * (T+1) + t]..chunk_bounds[lv * (T+1) + t + 1]`.
    chunk_bounds: Vec<u32>,
    /// `barrier_after[lv]`: whether workers synchronize after level
    /// `lv`. A compile-time constant, so every worker agrees.
    barrier_after: Vec<bool>,
}

impl LevelSchedule {
    /// Level the DAG on `n_items` items whose item `i` depends on
    /// `preds(i)`, and split every level over `n_threads` workers by
    /// `costs`. Pure schedule construction — no symbolic analysis runs.
    ///
    /// # Panics
    /// If the dependences are not a DAG on `0..n_items`
    /// ([`dag_levels_from_preds`]).
    pub fn build<P, I>(n_items: usize, n_threads: usize, preds: P, costs: &[u64]) -> Self
    where
        P: Fn(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        assert!(n_threads >= 1, "need at least one thread");
        assert_eq!(costs.len(), n_items, "one cost per item");
        assert!(u32::try_from(n_items).is_ok(), "items are u32");
        let levels = dag_levels_from_preds(n_items, &preds);
        let mut items = Vec::with_capacity(n_items);
        let mut level_ptr = Vec::with_capacity(levels.n_levels() + 1);
        let mut chunk_bounds = Vec::with_capacity(levels.n_levels() * (n_threads + 1));
        level_ptr.push(0);
        // Whether worker 0 owns the level wholesale (the common case
        // on chain-shaped stretches of the DAG, where levels are
        // singletons).
        let mut sole_owner: Vec<bool> = Vec::with_capacity(levels.n_levels());
        for level in &levels.levels {
            let level_costs: Vec<u64> = level.iter().map(|&i| costs[i]).collect();
            let mut bounds = balanced_partition(&level_costs, n_threads);
            // When the cost split hands one worker the whole level
            // (whichever worker the prefix-sum targets landed it on —
            // that varies with the cost magnitude for singletons),
            // normalize ownership to worker 0: same work, and giving
            // consecutive such levels one fixed owner is what lets
            // their barriers elide below.
            let whole = (0..n_threads).any(|t| bounds[t + 1] - bounds[t] == level.len());
            if whole {
                for b in bounds.iter_mut().skip(1) {
                    *b = level.len();
                }
            }
            sole_owner.push(whole);
            chunk_bounds.extend(bounds.iter().map(|&b| b as u32));
            items.extend(level.iter().map(|&i| i as u32));
            level_ptr.push(items.len() as u32);
        }
        // Elide the barrier after level lv when lv and lv + 1 are both
        // owned wholesale by worker 0: program order already sequences
        // that worker's items, and no other worker wrote anything
        // since the last kept barrier. No barrier is needed after the
        // last level (joining the workers synchronizes).
        let n_levels = sole_owner.len();
        let barrier_after = (0..n_levels)
            .map(|lv| lv + 1 < n_levels && !(sole_owner[lv] && sole_owner[lv + 1]))
            .collect();
        let schedule = Self {
            n_threads,
            items,
            level_ptr,
            chunk_bounds,
            barrier_after,
        };
        if cfg!(debug_assertions) {
            schedule.validate(&preds);
        }
        schedule
    }

    /// Check the four facts the walker's shared-pointer view rests on,
    /// before any thread exists ([`Self::build`] runs it in debug
    /// builds): (1) every item appears in exactly one level and, there,
    /// in exactly one worker's chunk — (2) the chunk bounds of a level
    /// are monotone and cover it; (3) every predecessor of an item sits
    /// in a strictly earlier level; (4) a barrier is elided only
    /// between two levels owned wholesale by worker 0.
    ///
    /// # Panics
    /// Naming the broken fact.
    pub fn validate<P, I>(&self, preds: P)
    where
        P: Fn(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        let n_levels = self.n_levels();
        assert_eq!(
            self.barrier_after.len(),
            n_levels,
            "level schedule: one barrier flag per level"
        );
        assert_eq!(
            self.chunk_bounds.len(),
            n_levels * (self.n_threads + 1),
            "level schedule: one set of chunk bounds per level"
        );
        let mut level_of = vec![usize::MAX; self.items.len()];
        for lv in 0..n_levels {
            for &i in self.level(lv) {
                let slot = level_of
                    .get_mut(i as usize)
                    .unwrap_or_else(|| panic!("level schedule: item {i} is out of range"));
                assert_eq!(*slot, usize::MAX, "level schedule: item {i} appears twice");
                *slot = lv;
            }
            let bounds = &self.chunk_bounds[lv * (self.n_threads + 1)..][..self.n_threads + 1];
            assert!(
                bounds[0] == 0
                    && bounds[self.n_threads] as usize == self.level(lv).len()
                    && bounds.windows(2).all(|w| w[0] <= w[1]),
                "level schedule: chunk bounds {bounds:?} do not cover level {lv}"
            );
        }
        for (i, &lv) in level_of.iter().enumerate() {
            assert_ne!(lv, usize::MAX, "level schedule: item {i} is in no level");
            for k in preds(i) {
                assert!(
                    level_of[k] < lv,
                    "level schedule: predecessor {k} of item {i} is not in an earlier level"
                );
            }
        }
        let sole_owner = |lv: usize| self.chunk(lv, 0).len() == self.level(lv).len();
        for lv in (0..n_levels.saturating_sub(1)).filter(|&lv| !self.barrier_after[lv]) {
            assert!(
                sole_owner(lv) && sole_owner(lv + 1),
                "level schedule: barrier after level {lv} elided between levels \
                 worker 0 does not own wholesale"
            );
        }
    }

    /// Worker count baked into the schedule.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Number of levels (critical-path length of the DAG).
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Average available parallelism: items per level.
    pub fn avg_parallelism(&self) -> f64 {
        if self.n_levels() == 0 {
            0.0
        } else {
            self.items.len() as f64 / self.n_levels() as f64
        }
    }

    /// Barriers a walk actually executes (after compile-time elision
    /// between same-owner levels). A chain-shaped DAG owned by one
    /// worker costs zero barriers.
    pub fn n_barriers(&self) -> usize {
        self.barrier_after.iter().filter(|&&b| b).count()
    }

    /// Whether workers synchronize after level `lv`.
    pub fn barrier_after(&self, lv: usize) -> bool {
        self.barrier_after[lv]
    }

    /// The items of level `lv`, ascending.
    pub fn level(&self, lv: usize) -> &[u32] {
        &self.items[self.level_ptr[lv] as usize..self.level_ptr[lv + 1] as usize]
    }

    /// The chunk of level `lv` owned by worker `t`.
    pub fn chunk(&self, lv: usize, t: usize) -> &[u32] {
        let o = lv * (self.n_threads + 1);
        let (lo, hi) = (self.chunk_bounds[o + t], self.chunk_bounds[o + t + 1]);
        &self.level(lv)[lo as usize..hi as usize]
    }

    /// Resident bytes of the schedule's tables — what a plan cache is
    /// charged for a leveled plan on top of the plan's own tables.
    pub fn bytes(&self) -> usize {
        (self.items.len() + self.level_ptr.len() + self.chunk_bounds.len()) * 4
            + self.barrier_after.len()
    }
}

/// The value arrays one factorization fills — `L`, `U`, and the
/// supernodal tier's trapezoid arena (null on the scalar tier) — as
/// the item kernels of every lane see them: base pointers, no borrow.
///
/// SAFETY ARGUMENT, on the four facts [`LevelSchedule::validate`]
/// checks: an item's value ranges are written by exactly one lane (1,
/// 2: the item sits in one level and one chunk of it) while its level
/// runs, and read by other items only as their predecessor, all of
/// which sit in strictly later levels (3). Consecutive levels are
/// separated by a [`Barrier`], which orders every write of one before
/// every read of the next — except where the barrier was elided, and
/// there both levels run wholly on lane 0 (4), whose program order does
/// the same. So no location is read or written while another lane
/// writes it. With no schedule the walk is one thread visiting items in
/// index order, every predecessor of an item being a smaller index.
pub(crate) struct SharedValues {
    pub(crate) lx: *mut f64,
    pub(crate) ux: *mut f64,
    pub(crate) sx: *mut f64,
}

// SAFETY: the struct is three pointers into arrays the caller of `walk`
// borrowed mutably and keeps alive across the call; sharing them
// between lanes is data-race-free by the struct-level argument.
unsafe impl Sync for SharedValues {}

/// One lane's private scratch: `x` is the dense accumulator, all zeros
/// between items (`n` doubles for the column kernel, `n × stride of the
/// widest panel` for the panel kernel); `bt` is the panel kernel's
/// solve block (empty for the column kernel). Lane 0 runs on the
/// calling thread against the caller's [`super::lu::LuWorkspace`];
/// every other lane allocates the same two lengths per call.
pub(crate) struct LaneScratch<'a> {
    pub(crate) x: &'a mut [f64],
    pub(crate) bt: &'a mut [f64],
}

/// How one numeric phase names itself on the profiler.
pub(crate) struct WalkLabels {
    /// The outer span, on lane 0: `factor:serial` / `factor:parallel` /
    /// `factor:supernodal`.
    pub(crate) span: &'static str,
    /// Prefix of the per-lane counters and the imbalance gauge
    /// (`par` / `sup`).
    pub(crate) lanes: &'static str,
    /// Exact flops of the factorization, reported on the outer span.
    pub(crate) flops: u64,
}

/// What one lane brings back from a leveled walk.
struct LaneReport {
    /// Smallest failing column, `usize::MAX` when clean.
    bad: usize,
    perturbed: Vec<usize>,
    busy_ns: u64,
    wait_ns: u64,
}

/// Run `kernel` over the items `0..n_items`: in index order on the
/// calling thread when `schedule` is `None`, otherwise level by level
/// over the schedule's lanes. `kernel(item, lane, values, scratch,
/// perturbed)` executes one item, pushes the columns whose pivot it
/// perturbed and returns the smallest column that failed (`usize::MAX`
/// when none did; an item's values are fully written either way, so the
/// other lanes keep going). Returns the perturbed columns, ascending —
/// or the smallest failing column, which is the one an in-order run
/// stops at: every item before it has clean predecessors and thus
/// identical values.
///
/// Observability (recorded only by an enabled profiler, and purely
/// observational — the kernel calls are the same either way): the outer
/// span; per lane a `work` span for every barrier-separated segment and
/// a `barrier` span for every wait; `<lanes>.t<t>.busy_ns` (the sum of
/// the lane's work segments) and `.wait_ns` counters; and
/// `<lanes>.imbalance`, max over mean busy time.
///
/// The kernel is what makes a walk sound: of `values` it must write
/// only its own item's ranges, and read only those of the predecessors
/// the schedule was built from.
pub(crate) fn walk<K>(
    schedule: Option<&LevelSchedule>,
    n_items: usize,
    prof: &Profiler,
    labels: WalkLabels,
    values: &SharedValues,
    mut scratch: LaneScratch<'_>,
    kernel: K,
) -> Result<Vec<usize>, usize>
where
    K: Fn(usize, usize, &SharedValues, &mut LaneScratch<'_>, &mut Vec<usize>) -> usize + Sync,
{
    let outer = prof.begin(0, labels.span);
    let Some(sched) = schedule else {
        let mut perturbed = Vec::new();
        let bad = (0..n_items)
            .map(|i| kernel(i, 0, values, &mut scratch, &mut perturbed))
            .find(|&bad| bad != usize::MAX);
        prof.end_with(outer, &[("flops", labels.flops as f64)]);
        return bad.map_or(Ok(perturbed), Err);
    };
    debug_assert_eq!(sched.items.len(), n_items, "schedule covers the items");
    let n_levels = sched.n_levels();
    let barrier = Barrier::new(sched.n_threads);
    let run_lane = |t: usize, scratch: &mut LaneScratch<'_>| {
        let mut report = LaneReport {
            bad: usize::MAX,
            perturbed: Vec::new(),
            busy_ns: 0,
            wait_ns: 0,
        };
        // The open work segment: its start and first level.
        let mut seg = (prof.now_ns(), 0usize);
        let close_segment = |(start, first_lv): (u64, usize), last_lv: usize, now: u64| {
            let levels = [
                ("level_first", first_lv as f64),
                ("level_last", last_lv as f64),
            ];
            prof.add_span(t, "work", start, now - start, &levels);
            now - start
        };
        for lv in 0..n_levels {
            for &i in sched.chunk(lv, t) {
                let bad = kernel(i as usize, t, values, scratch, &mut report.perturbed);
                report.bad = report.bad.min(bad);
            }
            // A compile-time constant, so every lane takes the same
            // barriers.
            if sched.barrier_after[lv] {
                let now = prof.now_ns();
                report.busy_ns += close_segment(seg, lv, now);
                barrier.wait();
                let after = prof.now_ns();
                prof.add_span(t, "barrier", now, after - now, &[("level", lv as f64)]);
                report.wait_ns += after - now;
                seg = (after, lv + 1);
            }
        }
        if seg.1 < n_levels {
            report.busy_ns += close_segment(seg, n_levels - 1, prof.now_ns());
        }
        report
    };
    let (x_len, bt_len) = (scratch.x.len(), scratch.bt.len());
    let reports: Vec<LaneReport> = std::thread::scope(|scope| {
        let run_lane = &run_lane;
        let workers: Vec<_> = (1..sched.n_threads)
            .map(|t| {
                scope.spawn(move || {
                    let (mut x, mut bt) = (vec![0.0f64; x_len], vec![0.0f64; bt_len]);
                    let mut scratch = LaneScratch {
                        x: &mut x,
                        bt: &mut bt,
                    };
                    run_lane(t, &mut scratch)
                })
            })
            .collect();
        let mine = run_lane(0, &mut scratch);
        // Joining is what publishes every worker's writes to the
        // caller, value arrays and report alike.
        let joined = workers
            .into_iter()
            .map(|w| w.join().expect("a lane of the leveled walk panicked"));
        std::iter::once(mine).chain(joined).collect()
    });
    if prof.is_enabled() {
        for (t, r) in reports.iter().enumerate() {
            prof.counter(&format!("{}.t{t}.busy_ns", labels.lanes))
                .add(r.busy_ns);
            prof.counter(&format!("{}.t{t}.wait_ns", labels.lanes))
                .add(r.wait_ns);
        }
        let max = reports.iter().map(|r| r.busy_ns).max().unwrap_or(0) as f64;
        let mean = reports.iter().map(|r| r.busy_ns).sum::<u64>() as f64 / reports.len() as f64;
        if mean > 0.0 {
            prof.gauge(&format!("{}.imbalance", labels.lanes), max / mean);
        }
    }
    prof.end_with(
        outer,
        &[
            ("threads", sched.n_threads as f64),
            ("levels", n_levels as f64),
            ("flops", labels.flops as f64),
        ],
    );
    let bad = reports.iter().map(|r| r.bad).min().unwrap_or(usize::MAX);
    if bad != usize::MAX {
        return Err(bad);
    }
    // Lanes report in lane order, not column order: sort, like the
    // in-order walk's record.
    let mut perturbed: Vec<usize> = reports.into_iter().flat_map(|r| r.perturbed).collect();
    perturbed.sort_unstable();
    Ok(perturbed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arrow DAG on `n` items: `0..n-1` independent, all feeding the
    /// last — two levels, the first spread over every worker.
    fn arrow_preds(n: usize) -> impl Fn(usize) -> std::ops::Range<usize> {
        move |i| if i + 1 == n { 0..n - 1 } else { 0..0 }
    }

    fn arrow(n: usize, n_threads: usize) -> LevelSchedule {
        LevelSchedule::build(n, n_threads, arrow_preds(n), &vec![1; n])
    }

    #[test]
    fn a_built_schedule_validates_and_counts_its_tables() {
        let sched = arrow(9, 3);
        sched.validate(arrow_preds(9));
        assert_eq!((sched.n_levels(), sched.n_barriers()), (2, 1));
        assert_eq!(sched.level(1), &[8]);
        assert_eq!(sched.chunk(1, 0), &[8], "a sole owner is worker 0");
        assert!(sched.chunk(0, 2).len() >= 2, "the wide level is shared");
        // 9 items + 3 level pointers + 2 × 4 chunk bounds, 2 flags.
        assert_eq!(sched.bytes(), (9 + 3 + 8) * 4 + 2);
    }

    #[test]
    #[should_panic(expected = "is not in an earlier level")]
    fn an_item_moved_into_its_predecessors_level_fails_validation() {
        // The last item joins the level of the items it consumes: the
        // walker would read columns another lane is still writing.
        // Validation must name the dependence before any thread runs.
        let mut sched = arrow(9, 3);
        sched.level_ptr = vec![0, 9];
        sched.chunk_bounds = vec![0, 3, 6, 9];
        sched.barrier_after = vec![false];
        sched.validate(arrow_preds(9));
    }

    #[test]
    #[should_panic(expected = "worker 0 does not own wholesale")]
    fn a_needed_barrier_cleared_fails_validation() {
        // Three workers share the first level; without the barrier
        // after it, worker 0 would start the last item while the others
        // are still writing its inputs.
        let mut sched = arrow(9, 3);
        assert!(sched.barrier_after[0]);
        sched.barrier_after[0] = false;
        sched.validate(arrow_preds(9));
    }
}
