//! The telemetry overhead gate: proves the serving observability
//! layer is effectively free and bit-exact before CI lets it ship.
//!
//! For each execution tier (serial scalar columns, supernodal
//! VS-Block) and each input the compiler routes to that tier, the same
//! cached request stream runs twice through a pre-warmed
//! [`PlanCache`]. The scalar tier runs a circuit that COLAMD keeps
//! fill-free (`circuit_fillfree_u`), the supernodal tier
//! suite problems 1 and 3 in natural order; the table's `name` column
//! (and `results/obs_bench.csv`) names each tier's input.
//!
//! - **telemetry-off** — inert [`Profiler`], no histogram, no per
//!   request clock reads: the bare serving hit path.
//! - **telemetry-on** — enabled cache profiler (cache-lookup spans,
//!   hit/miss counters, live residency gauges) plus a log-bucketed
//!   latency [`Histogram`] recording every request.
//!
//! The arms run as back-to-back off/on pairs, several pairs per
//! configuration; a configuration's overhead is the **minimum**
//! per-pair on/off ratio (a scheduler hiccup inflates one arm of one
//! pair, a real telemetry cost inflates the on arm of every pair),
//! and the worst overhead across all tiers and problems must stay
//! under the overhead budget: **2 % at bench scale** (the gated
//! configuration), relaxed to 50 % at `--test-scale` where a single
//! cached factor is a handful of microseconds and the two span clock
//! reads are a visible fraction of it. The result is exported as the
//! deterministic gate entry `obs:overhead_ok` (1.0 = within budget).
//!
//! Bit-exactness is checked separately with the *full* telemetry
//! stack on: factors produced under `profile: true` (numeric-phase
//! spans + health monitors) must be bitwise identical to `profile:
//! false` factors on every tier — exported as `obs:bitwise` (1.0).
//! `results/BENCH_obs_bench.json` carries both flags and the CI perf
//! gate hard-fails unless both equal 1.0.
//!
//! Side artifacts: `results/METRICS_obs_bench.json` (per-tier latency
//! histograms with p50/p90/p99/p999 plus the churn segment's cache
//! counters) and `results/EVENTS_obs_bench.jsonl` (the structured
//! event journal from an eviction-churn segment: a one-entry cache
//! alternating two patterns, so every admission after the first
//! evicts). Both are re-validated structurally by `perf_gate`.
//!
//! Run with `--test-scale` (or `--test`) for the CI smoke
//! configuration.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sympiler_bench::harness::Table;
use sympiler_bench::perf::PerfReport;
use sympiler_bench::workloads::{prepare_lu_subset, LuBenchProblem};
use sympiler_core::serve::{CacheConfig, PlanCache};
use sympiler_core::{LuWorkspace, Ordering, Profiler, SympilerLu, SympilerOptions};
use sympiler_obs::{Histogram, MetricsRegistry, MetricsSnapshot};

/// The two configurations the bitwise contract spans — scalar columns
/// and supernodal panels — each with the options and inputs the
/// compiler routes to it: under
/// COLAMD the fill-free circuits compile scalar, and in natural order
/// the `blocking` suite problems compile supernodal.
fn tiers<'a>(
    fill_free: &'a [LuBenchProblem],
    blocking: &'a [LuBenchProblem],
) -> [(&'static str, SympilerOptions, &'a [LuBenchProblem]); 2] {
    let colamd = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    [
        ("serial", colamd, fill_free),
        ("supernodal", SympilerOptions::default(), blocking),
    ]
}

/// A circuit COLAMD keeps fill-free, sized like suite problem 3.
fn fill_free_circuit(test_scale: bool) -> LuBenchProblem {
    let n = if test_scale { 300 } else { 2400 };
    LuBenchProblem {
        id: 0,
        name: "circuit_fillfree_u",
        family: "circuit-unsym",
        zero_diag: false,
        a: sympiler_sparse::gen::circuit_unsym(n, 1, 0, 203),
        b: vec![1.0; n],
    }
}

/// Deterministic per-request value perturbation (same scheme as
/// `serve_bench`): same pattern, fresh values.
fn perturbed(base: &sympiler_sparse::CscMatrix, req: usize) -> sympiler_sparse::CscMatrix {
    let mut a = base.clone();
    let s = 1.0 + 0.001 * ((req % 17) as f64) + 1e-6 * (req as f64);
    for v in a.values_mut() {
        *v *= s;
    }
    a
}

/// One cached stream pass: `n` same-pattern requests through a cache
/// pre-warmed outside the timed loop, so the loop is the pure hit
/// path. `hist` being `Some` *is* the telemetry-on arm: the cache
/// profiler is enabled and every request latency is clocked and
/// recorded; `None` runs the inert profiler with zero per-request
/// instrumentation.
fn stream_time(
    p: &LuBenchProblem,
    opts: &SympilerOptions,
    n: usize,
    hist: Option<&Arc<Histogram>>,
) -> Duration {
    let profiler = Arc::new(if hist.is_some() {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    });
    let cache = PlanCache::with_profiler(CacheConfig::default(), profiler);
    let mut ws = LuWorkspace::new();
    cache.get_or_compile(&p.a, opts).expect("warm compile");
    let t0 = Instant::now();
    for req in 0..n {
        let a = perturbed(&p.a, req);
        if let Some(h) = hist {
            let t = Instant::now();
            let plan = cache.get_or_compile(&a, opts).expect("stream lookup");
            let f = plan.factor_with(&a, &mut ws).expect("stream factor");
            h.record_duration(t.elapsed());
            black_box(f.l().values().first().copied());
        } else {
            let plan = cache.get_or_compile(&a, opts).expect("stream lookup");
            let f = plan.factor_with(&a, &mut ws).expect("stream factor");
            black_box(f.l().values().first().copied());
        }
    }
    t0.elapsed()
}

/// Full-stack bitwise check on one tier: factors computed with
/// `profile: true` (numeric spans + health monitors live) must match
/// `profile: false` factors bit for bit.
fn assert_bitwise_on_off(tier: &str, p: &LuBenchProblem, opts: &SympilerOptions) {
    let mut on = opts.clone();
    on.profile = true;
    for req in [0usize, 7] {
        let a = perturbed(&p.a, req);
        let f_off = SympilerLu::compile(&a, opts)
            .expect("compile off")
            .factor(&a)
            .expect("factor off");
        let f_on = SympilerLu::compile(&a, &on)
            .expect("compile on")
            .factor(&a)
            .expect("factor on");
        let same = f_off
            .l()
            .values()
            .iter()
            .chain(f_off.u().values())
            .zip(f_on.l().values().iter().chain(f_on.u().values()))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(
            same,
            "{tier}/{} req {req}: telemetry-on factor diverged bitwise",
            p.name
        );
    }
}

/// Eviction-churn segment: a one-entry cache alternating two sparsity
/// patterns, so every admission after the first evicts the resident
/// plan. Returns the enabled profiler whose journal now holds the
/// eviction events (with monotonic sequence numbers) and whose
/// counters hold the miss/eviction tallies.
fn churn(problems: &[LuBenchProblem], opts: &SympilerOptions) -> Arc<Profiler> {
    let profiler = Arc::new(Profiler::enabled());
    let cache = PlanCache::with_profiler(
        CacheConfig {
            max_entries: 1,
            max_bytes: 0,
        },
        Arc::clone(&profiler),
    );
    let mut ws = LuWorkspace::new();
    for _ in 0..4 {
        for p in &problems[..2] {
            let plan = cache.get_or_compile(&p.a, opts).expect("churn compile");
            black_box(plan.factor_with(&p.a, &mut ws).expect("churn factor"));
        }
    }
    let evictions = cache.stats().evictions;
    assert_eq!(evictions, 7, "8 alternating admissions must evict 7 plans");
    profiler
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_scale = args.iter().any(|a| a == "--test-scale" || a == "--test");
    let scale = if test_scale {
        sympiler_sparse::suite::SuiteScale::Test
    } else {
        sympiler_sparse::suite::SuiteScale::Bench
    };
    let (n, reps, budget) = if test_scale {
        (120, 4, 0.50)
    } else {
        (400, 5, 0.02)
    };
    let problems = prepare_lu_subset(scale, &[1, 3]);
    assert!(problems.len() >= 2, "churn segment needs two patterns");
    let fill_free = [fill_free_circuit(test_scale)];

    let metrics = MetricsRegistry::new();
    let mut report = PerfReport::new("obs_bench");
    let mut table = Table::new(
        &format!(
            "telemetry overhead: {n}-request cached stream, best of {reps} off/on pairs, \
             budget {:.0}% ({} scale)",
            budget * 100.0,
            if test_scale { "test" } else { "bench" }
        ),
        &[
            "tier", "name", "t off", "t on", "overhead", "p50 on", "p999 on",
        ],
    );

    let mut worst: f64 = f64::NEG_INFINITY;
    for (tier, opts, inputs) in tiers(&fill_free, &problems) {
        for p in inputs {
            // Each tier measures the engine it names.
            let lu = SympilerLu::compile(&p.a, &opts).expect("tier compile");
            assert_eq!(
                lu.is_supernodal(),
                tier == "supernodal",
                "{tier}/{}: the compiler picked another tier",
                p.name
            );
            let hist = metrics.histogram(&format!("obs.{tier}.{}.latency_ns", p.name));
            let mut t_off = Duration::MAX;
            let mut t_on = Duration::MAX;
            // Back-to-back off/on pairs, and the overhead is the MIN
            // of the per-rep ratios: a scheduler hiccup inflates one
            // arm of one pair, never every pair, whereas a true
            // telemetry cost inflates the "on" arm of all of them.
            // (Min-of-each-arm is less robust: it can pair a noisy
            // on-minimum against one exceptionally lucky off-run.)
            let mut ratio = f64::INFINITY;
            for _ in 0..reps {
                let off = stream_time(p, &opts, n, None);
                let on = stream_time(p, &opts, n, Some(&hist));
                ratio = ratio.min(on.as_secs_f64() / off.as_secs_f64().max(1e-12));
                t_off = t_off.min(off);
                t_on = t_on.min(on);
            }
            let overhead = ratio - 1.0;
            worst = worst.max(overhead);
            assert_bitwise_on_off(tier, p, &opts);
            table.row(vec![
                tier.to_string(),
                p.name.to_string(),
                format!("{t_off:.3?}"),
                format!("{t_on:.3?}"),
                format!("{:+.2}%", overhead * 100.0),
                format!("{:.3?}", Duration::from_nanos(hist.quantile(0.50))),
                format!("{:.3?}", Duration::from_nanos(hist.quantile(0.999))),
            ]);
        }
    }

    let overhead_ok = worst <= budget;
    if !overhead_ok {
        eprintln!(
            "telemetry overhead {:.2}% exceeds the {:.0}% budget — perf gate will fail",
            worst * 100.0,
            budget * 100.0
        );
    }
    // Deterministic gate entries: `obs:bitwise` is 1.0 by construction
    // (the asserts above panic on any divergence before we get here);
    // `obs:overhead_ok` flips to 0.0 — and fails the perf gate — when
    // the worst measured overhead breaks the budget. The raw worst
    // overhead rides along un-gated for trend inspection.
    report.push("obs:overhead_ok", if overhead_ok { 1.0 } else { 0.0 });
    report.push("obs:bitwise", 1.0);
    report.push("obs:worst_overhead_pct", worst * 100.0);

    // Journal artifact from the eviction-churn segment.
    let churn_profiler = churn(&problems, &SympilerOptions::default());
    let journal = churn_profiler.journal();
    let events = journal.events();
    assert!(
        events.iter().filter(|e| e.kind == "cache.eviction").count() >= 7,
        "churn segment produced too few eviction events"
    );
    assert!(
        events.iter().enumerate().all(|(i, e)| e.seq == i as u64),
        "journal sequence numbers must be dense and monotonic"
    );
    journal.write_results("obs_bench").expect("write journal");

    // Metrics artifact: the per-tier latency histograms plus the
    // churn profiler's counters/gauges, re-parsed once to prove the
    // file round-trips.
    metrics.set_gauge("obs.worst_overhead_pct", worst * 100.0);
    metrics.set_gauge("obs.overhead_budget_pct", budget * 100.0);
    let mut snapshot = metrics.snapshot("obs_bench");
    snapshot.absorb_profile(&churn_profiler.snapshot("obs_bench_churn"));
    let metrics_path = snapshot.write_results().expect("write metrics");
    let reread =
        MetricsSnapshot::from_json(&std::fs::read_to_string(&metrics_path).expect("read metrics"))
            .expect("parse metrics");
    assert_eq!(reread, snapshot, "metrics snapshot must round-trip exactly");

    table.emit(Some("obs_bench.csv"));
    report.write_results().expect("write perf report");
    println!(
        "telemetry gate: worst overhead {:+.2}% (budget {:.0}%), bitwise identical \
         across {} tiers",
        worst * 100.0,
        budget * 100.0,
        tiers(&fill_free, &problems).len()
    );
}
