//! Symbolic-phase reporting: where inspection time goes and what the
//! inspectors found. Feeds the paper's Figures 8/9 (symbolic + numeric
//! accumulated time) and the §4.3 overhead discussion.
//!
//! The report is the compile-phase view; when profiling is enabled the
//! same measurements also land on the plan's [`Profiler`] (as lane-0
//! `compile: ...` spans and `sets.*` gauges) so compile and numeric
//! phases share one trace — see [`timed_traced`] and
//! [`SymbolicReport::export_gauges`].

use std::time::Duration;
use sympiler_obs::Profiler;

/// Timing and set-size report of one Sympiler compilation.
#[derive(Debug, Clone, Default)]
pub struct SymbolicReport {
    /// Per-stage wall-clock durations, in pipeline order.
    pub stages: Vec<(String, Duration)>,
    /// Named sizes of the inspection sets (reach-set length, number of
    /// supernodes, nnz(L), ...).
    pub set_sizes: Vec<(String, usize)>,
}

impl SymbolicReport {
    /// Record a stage duration.
    pub fn stage(&mut self, name: &str, d: Duration) {
        self.stages.push((name.to_string(), d));
    }

    /// Record an inspection-set size.
    pub fn set_size(&mut self, name: &str, size: usize) {
        self.set_sizes.push((name.to_string(), size));
    }

    /// Total symbolic (inspection + transformation + codegen) time.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|(_, d)| *d).sum()
    }

    /// Look up a recorded set size.
    pub fn size_of(&self, name: &str) -> Option<usize> {
        self.set_sizes
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Replay the recorded set sizes onto a profiler as `sets.<name>`
    /// gauges (no-op when the profiler is disabled).
    pub fn export_gauges(&self, profiler: &Profiler) {
        if !profiler.is_enabled() {
            return;
        }
        for (name, s) in &self.set_sizes {
            profiler.gauge(&format!("sets.{name}"), *s as f64);
        }
    }

    /// Render as an aligned text table (used by the bench binaries).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("symbolic stage                     time\n");
        for (name, d) in &self.stages {
            out.push_str(&format!("  {name:<32} {:>10.3?}\n", d));
        }
        out.push_str(&format!("  {:<32} {:>10.3?}\n", "TOTAL", self.total()));
        if !self.set_sizes.is_empty() {
            out.push_str("inspection sets\n");
            for (name, s) in &self.set_sizes {
                out.push_str(&format!("  {name:<32} {s:>10}\n"));
            }
        }
        out
    }
}

/// Time a closure, pushing the duration into the report.
pub fn timed<T>(report: &mut SymbolicReport, name: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    report.stage(name, start.elapsed());
    out
}

/// Time a closure, pushing the duration into the report **and**
/// recording the same interval as a lane-0 `compile: <name>` span when
/// the profiler is enabled — one measurement feeding both views.
pub fn timed_traced<T>(
    report: &mut SymbolicReport,
    profiler: &Profiler,
    name: &str,
    f: impl FnOnce() -> T,
) -> T {
    if !profiler.is_enabled() {
        return timed(report, name, f);
    }
    let span = profiler.begin(0, &format!("compile: {name}"));
    let out = timed(report, name, f);
    profiler.end(span);
    out
}

/// As [`timed_traced`], for a stage that decides inside it how it runs:
/// `name` reads the stage's name off its result.
pub fn timed_traced_as<T>(
    report: &mut SymbolicReport,
    profiler: &Profiler,
    f: impl FnOnce() -> T,
    name: impl FnOnce(&T) -> String,
) -> T {
    let start_ns = profiler.now_ns();
    let start = std::time::Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let name = name(&out);
    report.stage(&name, elapsed);
    if profiler.is_enabled() {
        let dur_ns = profiler.now_ns().saturating_sub(start_ns);
        profiler.add_span(0, &format!("compile: {name}"), start_ns, dur_ns, &[]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_stages() {
        let mut r = SymbolicReport::default();
        r.stage("a", Duration::from_millis(2));
        r.stage("b", Duration::from_millis(3));
        assert_eq!(r.total(), Duration::from_millis(5));
    }

    #[test]
    fn timed_records_and_returns() {
        let mut r = SymbolicReport::default();
        let v = timed(&mut r, "work", || 21 * 2);
        assert_eq!(v, 42);
        assert_eq!(r.stages.len(), 1);
        assert_eq!(r.stages[0].0, "work");
    }

    #[test]
    fn set_sizes_lookup() {
        let mut r = SymbolicReport::default();
        r.set_size("reach", 17);
        assert_eq!(r.size_of("reach"), Some(17));
        assert_eq!(r.size_of("missing"), None);
    }

    #[test]
    fn timed_traced_records_into_both_views() {
        let mut r = SymbolicReport::default();
        let prof = Profiler::enabled();
        let v = timed_traced(&mut r, &prof, "dfs", || 7);
        assert_eq!(v, 7);
        assert_eq!(r.stages.len(), 1);
        let snap = prof.snapshot("t");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "compile: dfs");

        // Named from the result: the same one measurement in both.
        let v = timed_traced_as(&mut r, &prof, || 3, |v| format!("stage {v}"));
        assert_eq!(v, 3);
        assert_eq!(r.stages[1].0, "stage 3");
        assert_eq!(prof.snapshot("t").spans[1].name, "compile: stage 3");

        // Disabled profiler: report still filled, no spans anywhere.
        let off = Profiler::disabled();
        timed_traced(&mut r, &off, "pack", || ());
        timed_traced_as(&mut r, &off, || (), |_| "named".into());
        assert_eq!(r.stages.len(), 4);
        assert!(off.snapshot("t").spans.is_empty());
    }

    #[test]
    fn export_gauges_replays_set_sizes() {
        let mut r = SymbolicReport::default();
        r.set_size("nnz(L)", 99);
        let prof = Profiler::enabled();
        r.export_gauges(&prof);
        assert_eq!(prof.snapshot("t").gauge("sets.nnz(L)"), Some(99.0));
    }

    #[test]
    fn table_renders() {
        let mut r = SymbolicReport::default();
        r.stage("dfs", Duration::from_micros(10));
        r.set_size("reach-set", 5);
        let t = r.to_table();
        assert!(t.contains("dfs"));
        assert!(t.contains("reach-set"));
        assert!(t.contains("TOTAL"));
    }
}
