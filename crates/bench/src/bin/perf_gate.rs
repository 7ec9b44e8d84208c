//! CI perf-regression gate: compare the smoke-run benchmark reports
//! under `--results-dir` against the checked-in baselines under
//! `--baseline-dir`, and exit nonzero if any kernel's
//! decoupled/baseline speedup ratio degrades by more than the
//! tolerance (default 25%).
//!
//! Baselines and results use the same `BENCH_<experiment>.json` format
//! ([`sympiler_bench::perf`]); every baseline file must have a
//! matching results file. Gated values are ratios that transfer
//! across hosts: decoupling speedups (two serial measurements from
//! the same process) and, for `lu_compare`, the per-ordering **fill
//! gains** `nnz(L+U)_natural / nnz(L+U)_ordered` — deterministic
//! structural ratios, so a COLAMD quality regression beyond the
//! tolerance fails CI like any timing regression. Raw times are
//! deliberately *not* gated (they depend on core count and machine
//! load) — they ride along in the uploaded artifact instead.
//!
//! When the results directory also carries observability traces
//! (`PROFILE_<experiment>.json`, written by `lu_compare --profile`),
//! each profile's flop-attribution gauges are re-verified from the
//! JSON alone: `flops.serial` and
//! `flops.supernodal_dense + flops.supernodal_scalar` must each equal
//! `flops.plan` **exactly** — a deterministic accounting gate on the
//! instrumentation layer itself.
//!
//! Telemetry artifacts are re-validated from the files alone as well:
//! every `METRICS_<experiment>.json` must parse, each histogram's
//! bucket counts must sum to its total count, and its quantiles must
//! be monotone (p50 ≤ p90 ≤ p99 ≤ p999); every
//! `EVENTS_<experiment>.jsonl` must parse with dense monotonic
//! sequence numbers and non-decreasing timestamps. Finally, when
//! `BENCH_obs_bench.json` is among the results, its `obs:overhead_ok`
//! and `obs:bitwise` flags are hard-checked to equal 1.0 — the
//! telemetry overhead/bitwise contract is not subject to the timing
//! tolerance.
//!
//! Usage:
//! `perf_gate [--baseline-dir crates/bench/baselines] [--results-dir results] [--tolerance 0.25]`

use std::path::{Path, PathBuf};
use sympiler_bench::perf::{gate, PerfReport};
use sympiler_obs::{EventJournal, MetricsSnapshot, TraceFile};

/// Check the exact flop-accounting identities carried by one profile
/// trace; returns one violation string per broken identity.
fn check_profile_flops(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let trace = match TraceFile::from_chrome_json(&text) {
        Ok(t) => t,
        Err(e) => return vec![format!("bad profile {}: {e}", path.display())],
    };
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for profile in &trace.profiles {
        let Some(plan) = profile.gauge("flops.plan") else {
            continue; // profile without accounting gauges: nothing to gate
        };
        let g = |name: &str| profile.gauge(name).unwrap_or(-1.0);
        let tiers = [
            ("serial", g("flops.serial")),
            (
                "supernodal",
                g("flops.supernodal_dense") + g("flops.supernodal_scalar"),
            ),
        ];
        for (tier, got) in tiers {
            if got != plan {
                violations.push(format!(
                    "{}/{}: {tier} flop attribution {got} != plan {plan}",
                    trace.experiment, profile.label
                ));
            }
        }
        checked += 1;
    }
    println!(
        "flop-accounting gate {}: {checked} profile(s) checked against plan.flops()",
        path.display()
    );
    violations
}

/// Structurally validate one metrics snapshot from its JSON alone:
/// histograms must be internally consistent (bucket counts summing to
/// the total, monotone quantiles).
fn check_metrics(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let snap = match MetricsSnapshot::from_json(&text) {
        Ok(s) => s,
        Err(e) => return vec![format!("bad metrics {}: {e}", path.display())],
    };
    let mut violations = Vec::new();
    for h in &snap.histograms {
        let bucket_total: u64 = h.buckets.iter().map(|(_, _, c)| c).sum();
        if bucket_total != h.count {
            violations.push(format!(
                "{}/{}: bucket counts sum to {bucket_total}, histogram count is {}",
                snap.experiment, h.name, h.count
            ));
        }
        if !(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.p999) {
            violations.push(format!(
                "{}/{}: quantiles not monotone (p50={} p90={} p99={} p999={})",
                snap.experiment, h.name, h.p50, h.p90, h.p99, h.p999
            ));
        }
    }
    println!(
        "metrics gate {}: {} histogram(s), {} counter(s), {} gauge(s) validated",
        path.display(),
        snap.histograms.len(),
        snap.counters.len(),
        snap.gauges.len()
    );
    violations
}

/// Validate one event journal from its JSONL alone: sequence numbers
/// must be dense from 0 and timestamps non-decreasing (both are
/// assigned under the journal lock, so any gap or inversion means a
/// corrupted artifact).
fn check_events(path: &Path) -> Vec<String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read {}: {e}", path.display())],
    };
    let events = match EventJournal::parse_jsonl(&text) {
        Ok(e) => e,
        Err(e) => return vec![format!("bad journal {}: {e}", path.display())],
    };
    let mut violations = Vec::new();
    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 {
            violations.push(format!(
                "{}: event {i} has seq {} (sequence must be dense from 0)",
                path.display(),
                e.seq
            ));
            break;
        }
    }
    if events.windows(2).any(|w| w[1].t_ns < w[0].t_ns) {
        violations.push(format!(
            "{}: event timestamps regress within the journal",
            path.display()
        ));
    }
    println!(
        "event-journal gate {}: {} event(s) validated",
        path.display(),
        events.len()
    );
    violations
}

/// Hard flags that are pass/fail, not tolerance-gated: the telemetry
/// layer must be within its overhead budget and bit-exact.
fn check_obs_flags(results_dir: &Path) -> Vec<String> {
    let path = results_dir.join("BENCH_obs_bench.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new(); // absence is caught by the baseline loop
    };
    let report = match PerfReport::from_json(&text) {
        Ok(r) => r,
        Err(e) => return vec![format!("bad report {}: {e}", path.display())],
    };
    let mut violations = Vec::new();
    for flag in ["obs:overhead_ok", "obs:bitwise"] {
        match report.speedup_of(flag) {
            Some(1.0) => {}
            Some(v) => violations.push(format!(
                "obs_bench: {flag} = {v} (telemetry contract requires exactly 1.0)"
            )),
            None => violations.push(format!("obs_bench: {flag} missing from {}", path.display())),
        }
    }
    if violations.is_empty() {
        println!(
            "telemetry gate {}: overhead_ok and bitwise both 1.0",
            path.display()
        );
    }
    violations
}

fn arg_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_dir = PathBuf::from(arg_value(&args, "--baseline-dir", "crates/bench/baselines"));
    let results_dir = PathBuf::from(arg_value(&args, "--results-dir", "results"));
    let tolerance: f64 = arg_value(&args, "--tolerance", "0.25")
        .parse()
        .expect("--tolerance takes a fraction, e.g. 0.25");

    let mut baseline_files: Vec<PathBuf> = std::fs::read_dir(&baseline_dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", baseline_dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name()?.to_str()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(path)
        })
        .collect();
    baseline_files.sort();
    assert!(
        !baseline_files.is_empty(),
        "no BENCH_*.json baselines under {}",
        baseline_dir.display()
    );

    let mut violations = Vec::new();
    for baseline_path in &baseline_files {
        let read = |path: &PathBuf| -> PerfReport {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            PerfReport::from_json(&text)
                .unwrap_or_else(|e| panic!("bad report {}: {e}", path.display()))
        };
        let baseline = read(baseline_path);
        let results_path = results_dir.join(baseline_path.file_name().expect("file name"));
        if !results_path.exists() {
            violations.push(format!(
                "{}: no smoke-run results at {} (did the bench job run?)",
                baseline.experiment,
                results_path.display()
            ));
            continue;
        }
        let current = read(&results_path);
        println!(
            "gate {}: {} baseline kernels, {} current kernels, tolerance {:.0}%",
            baseline.experiment,
            baseline.entries.len(),
            current.entries.len(),
            tolerance * 100.0
        );
        for entry in &baseline.entries {
            let cur = current
                .speedup_of(&entry.kernel)
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "MISSING".to_string());
            println!(
                "  {:24} baseline {:.2}x  current {cur}",
                entry.kernel, entry.speedup
            );
        }
        violations.extend(gate(&baseline, &current, tolerance));
    }

    // Observability artifacts, when the smoke run collected them:
    // profile traces, metrics snapshots, and event journals are each
    // re-validated from the files alone.
    if let Ok(entries) = std::fs::read_dir(&results_dir) {
        let mut obs_files: Vec<PathBuf> = entries
            .filter_map(|entry| {
                let path = entry.expect("dir entry").path();
                let name = path.file_name()?.to_str()?;
                let keep = (name.starts_with("PROFILE_") && name.ends_with(".json"))
                    || (name.starts_with("METRICS_") && name.ends_with(".json"))
                    || (name.starts_with("EVENTS_") && name.ends_with(".jsonl"));
                keep.then_some(path)
            })
            .collect();
        obs_files.sort();
        for path in &obs_files {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("PROFILE_") {
                violations.extend(check_profile_flops(path));
            } else if name.starts_with("METRICS_") {
                violations.extend(check_metrics(path));
            } else {
                violations.extend(check_events(path));
            }
        }
    }
    violations.extend(check_obs_flags(&results_dir));

    if violations.is_empty() {
        println!(
            "perf gate PASSED: no kernel degraded beyond {:.0}% across {} experiment(s)",
            tolerance * 100.0,
            baseline_files.len()
        );
    } else {
        eprintln!("perf gate FAILED:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
