//! `sympiler-obs`: the observability layer of the sympiler-rs workspace.
//!
//! The paper's argument (Figures 8/9, §4.3) is about *where time goes*
//! once symbolic analysis is decoupled from the numeric phase. This
//! crate provides the measurement substrate that makes the numeric
//! phase inspectable across both LU kernels, in order and leveled:
//!
//! - [`Profiler`] — hierarchical wall-clock spans on per-thread lanes,
//!   named atomic counters, and named gauges. A disabled profiler
//!   (the default) reduces every call to a branch on an `Option`, so
//!   instrumented hot loops pay nothing measurable and — because the
//!   instrumentation is purely observational — factorization results
//!   stay bitwise identical whether profiling is on or off.
//! - [`LuHealth`] — numerical-health monitors (pivot growth, min/max
//!   pivot magnitude, matched-diagonal quality) recorded during
//!   `factor()` so regimes like the growth-1e8 transversal pivoting
//!   case are measurable instead of anecdotal.
//! - [`Profile`] / [`TraceFile`] — snapshots and exporters: an aligned
//!   text table for humans and a chrome-`trace_event`-compatible JSON
//!   profile (`results/PROFILE_<experiment>.json`) with a matching
//!   subset parser so tests and the perf gate can read profiles back.
//! - [`MetricsRegistry`] / [`Histogram`] — serving metrics: log-
//!   bucketed latency histograms (lock-free record path, mergeable
//!   across worker threads) with Prometheus text exposition and a
//!   JSON snapshot writer (`results/METRICS_<experiment>.json`).
//! - [`EventJournal`] — a structured incident journal (worker panics,
//!   cache evictions, recovery escalations) exported as JSONL with
//!   monotonic sequence numbers.
//! - [`json`] — the no-serde JSON writer/parser shared with the perf
//!   reports in `sympiler-bench`.
//!
//! The crate is dependency-free (std only) and sits below every other
//! workspace crate so the core pipeline can thread one profiler from
//! compile time through the numeric phase.

pub mod journal;
pub mod json;
pub mod metrics;
mod trace;

pub use journal::{Event, EventJournal};
pub use metrics::{Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use trace::{Profile, TraceFile};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Maximum number of span lanes. Lane 0 is the main/compile/serial
/// lane; parallel tiers use lane `t` for worker `t`. Lanes at or above
/// the cap are clamped to the last lane (threads beyond 31 share it).
pub const MAX_LANES: usize = 32;

/// One recorded span: a named wall-clock interval on a lane, with a
/// nesting depth and optional numeric arguments (panel width, flops,
/// achieved GFLOP/s, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// Lane (thread) the span was recorded on.
    pub lane: usize,
    /// Nesting depth below other open spans on the same lane.
    pub depth: usize,
    /// Start, in nanoseconds since the profiler's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric key/value annotations.
    pub args: Vec<(String, f64)>,
}

#[derive(Default)]
struct Lane {
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the currently-open spans (innermost last).
    open: Vec<usize>,
}

type CounterTable = Vec<(String, Arc<AtomicU64>)>;

struct Inner {
    epoch: Instant,
    lanes: Vec<Mutex<Lane>>,
    counters: Mutex<CounterTable>,
    gauges: Mutex<Vec<(String, f64)>>,
    /// Lane → display name (chrome `thread_name` metadata); at most
    /// one entry per lane, last write wins.
    lane_names: Mutex<Vec<(usize, String)>>,
    /// Incident journal sharing the profiler's epoch.
    journal: EventJournal,
}

/// The journal handed out by a disabled profiler: inert, shared.
static INERT_JOURNAL: EventJournal = EventJournal::disabled();

/// Handle to an open span, returned by [`Profiler::begin`]. `None` when
/// the profiler is disabled — [`Profiler::end`] accepts the `Option`
/// directly so call sites stay branch-free.
#[derive(Debug)]
pub struct SpanId {
    lane: usize,
    idx: usize,
}

/// A cheap cloneable handle to a named atomic counter. A handle from a
/// disabled profiler is inert: `add` is a no-op and `get` returns 0.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add to the counter (relaxed; safe from any thread).
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(a) = &self.0 {
            a.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for inert handles).
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }

    /// Wrap a shared atomic (used by [`MetricsRegistry`] so its
    /// counters hand out the same lock-free handle type).
    pub(crate) fn from_shared(a: Arc<AtomicU64>) -> Self {
        Counter(Some(a))
    }
}

/// Span/counter/gauge recorder threaded through the LU pipeline.
///
/// A `Profiler` is either *enabled* (records everything, timestamps
/// relative to its creation instant) or *disabled* (every method is a
/// near-free no-op). Plans hold it behind an `Arc`, so a plan clone —
/// and every execution tier built from that plan — records into the
/// same trace.
pub struct Profiler {
    inner: Option<Inner>,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Profiler {
    /// A no-op profiler: every method is a branch and nothing more.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording profiler with its epoch at the call instant.
    pub fn enabled() -> Self {
        let epoch = Instant::now();
        Self {
            inner: Some(Inner {
                epoch,
                lanes: (0..MAX_LANES)
                    .map(|_| Mutex::new(Lane::default()))
                    .collect(),
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                lane_names: Mutex::new(Vec::new()),
                journal: EventJournal::with_epoch(epoch),
            }),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the profiler's epoch (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    /// Open a span on `lane`. Returns `None` when disabled.
    pub fn begin(&self, lane: usize, name: &str) -> Option<SpanId> {
        let start = self.now_ns();
        self.begin_at(lane, name, start)
    }

    /// Open a span with an explicit start timestamp (from
    /// [`now_ns`](Self::now_ns)) — the pattern used by the serving
    /// layer to backdate a request's root span to its *submit* time so
    /// the queue-wait child nests inside it.
    pub fn begin_at(&self, lane: usize, name: &str, start: u64) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let lane = lane.min(MAX_LANES - 1);
        let mut l = inner.lanes[lane].lock().unwrap();
        let depth = l.open.len();
        let idx = l.spans.len();
        l.spans.push(SpanRec {
            name: name.to_string(),
            lane,
            depth,
            start_ns: start,
            dur_ns: 0,
            args: Vec::new(),
        });
        l.open.push(idx);
        Some(SpanId { lane, idx })
    }

    /// Close a span opened by [`begin`](Self::begin).
    pub fn end(&self, id: Option<SpanId>) {
        self.end_with(id, &[]);
    }

    /// Close a span, attaching numeric arguments.
    pub fn end_with(&self, id: Option<SpanId>, args: &[(&str, f64)]) {
        let (Some(inner), Some(id)) = (self.inner.as_ref(), id) else {
            return;
        };
        let now = inner.epoch.elapsed().as_nanos() as u64;
        let mut l = inner.lanes[id.lane].lock().unwrap();
        if let Some(pos) = l.open.iter().rposition(|&i| i == id.idx) {
            l.open.remove(pos);
        }
        let s = &mut l.spans[id.idx];
        s.dur_ns = now.saturating_sub(s.start_ns);
        s.args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Record a span after the fact from timestamps obtained via
    /// [`now_ns`](Self::now_ns) — the pattern used by parallel workers
    /// that accumulate interval boundaries locally and emit once.
    pub fn add_span(
        &self,
        lane: usize,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&str, f64)],
    ) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let lane = lane.min(MAX_LANES - 1);
        let mut l = inner.lanes[lane].lock().unwrap();
        let depth = l.open.len();
        l.spans.push(SpanRec {
            name: name.to_string(),
            lane,
            depth,
            start_ns,
            dur_ns,
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Get (creating on first use) the named counter. Hot loops should
    /// hoist the handle — or better, accumulate locally and `add` once.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = self.inner.as_ref() else {
            return Counter(None);
        };
        let mut c = inner.counters.lock().unwrap();
        if let Some((_, a)) = c.iter().find(|(n, _)| n == name) {
            return Counter(Some(a.clone()));
        }
        let a = Arc::new(AtomicU64::new(0));
        c.push((name.to_string(), a.clone()));
        Counter(Some(a))
    }

    /// Current value of a counter (0 if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        let Some(inner) = self.inner.as_ref() else {
            return 0;
        };
        let c = inner.counters.lock().unwrap();
        c.iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, a)| a.load(Ordering::Relaxed))
    }

    /// Record a named gauge value. Gauges append (they are not unique
    /// by name); [`Profile::gauge`] returns the first recorded value.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = self.inner.as_ref() {
            inner.gauges.lock().unwrap().push((name.to_string(), value));
        }
    }

    /// Set a *live* gauge: replaces the previous value of the same
    /// name (or appends on first write). Used for occupancy-style
    /// gauges (`serve.cache.entries`, `serve.cache.bytes`) where only
    /// the current value is meaningful.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let mut g = inner.gauges.lock().unwrap();
        match g.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => g.push((name.to_string(), value)),
        }
    }

    /// Name a lane for trace display (chrome `thread_name` metadata).
    /// Idempotent per lane: re-naming (a respawned worker re-claiming
    /// its slot) replaces the previous name, keeping tids stable.
    pub fn name_lane(&self, lane: usize, name: &str) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let lane = lane.min(MAX_LANES - 1);
        let mut names = inner.lane_names.lock().unwrap();
        match names.iter_mut().find(|(l, _)| *l == lane) {
            Some(slot) => slot.1 = name.to_string(),
            None => names.push((lane, name.to_string())),
        }
    }

    /// The profiler's incident journal (inert when disabled). Journal
    /// timestamps share the profiler's epoch, so events line up with
    /// spans in the same trace.
    pub fn journal(&self) -> &EventJournal {
        match &self.inner {
            Some(i) => &i.journal,
            None => &INERT_JOURNAL,
        }
    }

    /// Snapshot everything recorded so far into a [`Profile`].
    /// Spans are ordered lane-major, each lane chronologically.
    pub fn snapshot(&self, label: &str) -> Profile {
        let Some(inner) = self.inner.as_ref() else {
            return Profile {
                label: label.to_string(),
                ..Profile::default()
            };
        };
        let mut spans = Vec::new();
        for lane in &inner.lanes {
            spans.extend(lane.lock().unwrap().spans.iter().cloned());
        }
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, a)| (n.clone(), a.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner.gauges.lock().unwrap().clone();
        let mut thread_names = inner.lane_names.lock().unwrap().clone();
        thread_names.sort_by_key(|&(lane, _)| lane);
        Profile {
            label: label.to_string(),
            spans,
            counters,
            gauges,
            thread_names,
        }
    }

    /// Clear all spans and gauges and zero all counters (existing
    /// [`Counter`] handles stay valid and keep accumulating).
    pub fn reset(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        for lane in &inner.lanes {
            let mut l = lane.lock().unwrap();
            l.spans.clear();
            l.open.clear();
        }
        for (_, a) in inner.counters.lock().unwrap().iter() {
            a.store(0, Ordering::Relaxed);
        }
        inner.gauges.lock().unwrap().clear();
        inner.lane_names.lock().unwrap().clear();
    }
}

/// Numerical-health monitors computed from a completed LU
/// factorization. All magnitudes are absolute values.
///
/// `growth` is the element-growth factor `max|U| / max|A|` — the
/// quantity that explodes (≈1e8 on the saddle-point problem) when
/// static transversal pivoting picks structurally-valid but tiny
/// pivots, and that weighted matching keeps near 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuHealth {
    /// Largest magnitude in the input matrix A.
    pub max_abs_a: f64,
    /// Largest magnitude in the U factor.
    pub max_abs_u: f64,
    /// Element growth factor `max|U| / max|A|` (0 for an empty A).
    pub growth: f64,
    /// Smallest pivot magnitude on the U diagonal.
    pub min_pivot: f64,
    /// Largest pivot magnitude on the U diagonal.
    pub max_pivot: f64,
    /// Smallest magnitude of `A[rperm[j], cperm[j]]` — the quality of
    /// the statically matched diagonal (0 when an entry is missing).
    pub min_matched_diag: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        assert_eq!(p.now_ns(), 0);
        let id = p.begin(0, "x");
        assert!(id.is_none());
        p.end(id);
        p.add_span(0, "y", 0, 10, &[]);
        let c = p.counter("n");
        c.add(5);
        assert_eq!(c.get(), 0);
        assert_eq!(p.counter_value("n"), 0);
        p.gauge("g", 1.0);
        let s = p.snapshot("empty");
        assert!(s.spans.is_empty() && s.counters.is_empty() && s.gauges.is_empty());
    }

    #[test]
    fn spans_nest_and_record_args() {
        let p = Profiler::enabled();
        let outer = p.begin(0, "outer");
        let inner = p.begin(0, "inner");
        p.end_with(inner, &[("flops", 64.0)]);
        p.end(outer);
        let s = p.snapshot("t");
        assert_eq!(s.spans.len(), 2);
        let outer = s.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = s.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.args, vec![("flops".to_string(), 64.0)]);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
    }

    #[test]
    fn counters_accumulate_across_handles_and_threads() {
        let p = Profiler::enabled();
        let c1 = p.counter("flops.scalar");
        let c2 = p.counter("flops.scalar");
        c1.add(10);
        c2.add(32);
        assert_eq!(p.counter_value("flops.scalar"), 42);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = p.counter("flops.scalar");
                s.spawn(move || c.add(100));
            }
        });
        assert_eq!(p.counter_value("flops.scalar"), 442);
    }

    #[test]
    fn lanes_are_independent_and_clamped() {
        let p = Profiler::enabled();
        p.add_span(1, "w", 0, 5, &[]);
        p.add_span(MAX_LANES + 7, "clamped", 0, 5, &[]);
        let s = p.snapshot("t");
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].lane, 1);
        assert_eq!(s.spans[1].lane, MAX_LANES - 1);
    }

    #[test]
    fn set_gauge_replaces_while_gauge_appends() {
        let p = Profiler::enabled();
        p.gauge("health.growth", 1.0);
        p.gauge("health.growth", 2.0);
        p.set_gauge("serve.cache.entries", 5.0);
        p.set_gauge("serve.cache.entries", 3.0);
        let s = p.snapshot("t");
        // Append-only gauges keep both records, first-wins on read.
        assert_eq!(
            s.gauges
                .iter()
                .filter(|(n, _)| n == "health.growth")
                .count(),
            2
        );
        assert_eq!(s.gauge("health.growth"), Some(1.0));
        // Live gauges hold only the current value.
        assert_eq!(
            s.gauges
                .iter()
                .filter(|(n, _)| n == "serve.cache.entries")
                .count(),
            1
        );
        assert_eq!(s.gauge("serve.cache.entries"), Some(3.0));
    }

    #[test]
    fn lane_names_are_stable_across_renames() {
        let p = Profiler::enabled();
        p.name_lane(1, "worker-0");
        p.name_lane(2, "worker-1");
        p.name_lane(1, "worker-0"); // respawned worker re-claims its lane
        p.name_lane(MAX_LANES + 5, "clamped");
        let s = p.snapshot("t");
        assert_eq!(
            s.thread_names,
            vec![
                (1, "worker-0".to_string()),
                (2, "worker-1".to_string()),
                (MAX_LANES - 1, "clamped".to_string()),
            ]
        );
        let disabled = Profiler::disabled();
        disabled.name_lane(1, "x");
        assert!(disabled.snapshot("t").thread_names.is_empty());
    }

    #[test]
    fn begin_at_backdates_the_root_span() {
        let p = Profiler::enabled();
        let submit = p.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let root = p.begin_at(1, "request", submit);
        let child = p.begin(1, "factor");
        p.end(child);
        p.end_with(root, &[("req", 7.0)]);
        let s = p.snapshot("t");
        let root = s.spans_named("request").next().unwrap();
        let child = s.spans_named("factor").next().unwrap();
        assert_eq!(root.start_ns, submit);
        assert_eq!(root.depth, 0);
        assert_eq!(child.depth, 1);
        assert!(child.start_ns >= root.start_ns);
        assert!(root.start_ns + root.dur_ns >= child.start_ns + child.dur_ns);
        assert_eq!(root.args, vec![("req".to_string(), 7.0)]);
    }

    #[test]
    fn journal_is_inert_when_disabled_and_shares_epoch_when_enabled() {
        let d = Profiler::disabled();
        d.journal().emit("x", &[], &[]);
        assert!(d.journal().is_empty());

        let p = Profiler::enabled();
        let before = p.now_ns();
        p.journal().emit("cache.eviction", &[("bytes", 10.0)], &[]);
        let after = p.now_ns();
        let ev = p.journal().events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].seq, 0);
        assert!(ev[0].t_ns >= before && ev[0].t_ns <= after);
    }

    #[test]
    fn reset_clears_state_but_keeps_counter_handles() {
        let p = Profiler::enabled();
        let c = p.counter("n");
        c.add(7);
        let id = p.begin(0, "x");
        p.end(id);
        p.gauge("g", 2.0);
        p.reset();
        let s = p.snapshot("t");
        assert!(s.spans.is_empty() && s.gauges.is_empty());
        assert_eq!(p.counter_value("n"), 0);
        c.add(3);
        assert_eq!(p.counter_value("n"), 3);
    }
}
