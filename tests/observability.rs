//! Observability-layer integration tests: profile round trips, the
//! bitwise-identity contract with instrumentation on, per-thread span
//! lanes, exact flop attribution across both LU kernels, in order and
//! leveled, and the numerical-health monitors.

mod common;

use common::factor_on_tier;
use std::sync::Arc;
use sympiler::prelude::*;
use sympiler::sparse::gen;

fn problem() -> CscMatrix {
    gen::circuit_unsym(120, 4, 2, 11)
}

/// Compile the in-order scalar plan with profiling on, and a handle on
/// its profiler (shared by every clone and tier built from the plan).
fn profiled_plan(a: &CscMatrix) -> (LuPlan, Arc<Profiler>) {
    let opts = SympilerOptions {
        profile: true,
        ..Default::default()
    };
    let plan = LuPlan::build(a, &opts).unwrap();
    let profiler = Arc::clone(plan.profiler());
    (plan, profiler)
}

/// `plan`'s strictly nesting panels capped at 32 columns, for
/// `n_threads` workers.
fn strict_panels(plan: LuPlan, n_threads: usize) -> SupernodalLuPlan {
    let panels = SupernodalLuPlan::detect_panels(&plan, 32, 0.0, 0);
    SupernodalLuPlan::from_panels(plan, panels, n_threads)
}

#[test]
fn profile_json_round_trips_through_chrome_trace() {
    let a = problem();
    let (plan, profiler) = profiled_plan(&a);
    plan.factor(&a).unwrap();
    let mut trace = TraceFile::new("obs_test");
    trace.push(profiler.snapshot("circuit"));
    let text = trace.to_chrome_json();
    let parsed = TraceFile::from_chrome_json(&text).unwrap();
    assert_eq!(parsed.experiment, trace.experiment);
    assert_eq!(parsed.profiles.len(), 1);
    let (orig, back) = (&trace.profiles[0], &parsed.profiles[0]);
    assert_eq!(orig.label, back.label);
    assert_eq!(orig.spans, back.spans, "spans must survive exactly");
    assert_eq!(orig.counters, back.counters);
    assert_eq!(orig.gauges.len(), back.gauges.len());
    for ((n1, v1), (n2, v2)) in orig.gauges.iter().zip(&back.gauges) {
        assert_eq!(n1, n2);
        assert_eq!(v1, v2, "gauge {n1} must round-trip exactly");
    }
}

#[test]
fn disabled_profiler_keeps_all_three_tiers_bitwise_identical() {
    let a = problem();
    let collect = |profile: bool, supernodal: bool, n_threads: usize| -> Vec<u64> {
        let opts = SympilerOptions {
            profile,
            n_threads,
            ..Default::default()
        };
        let f = factor_on_tier(&a, &opts, supernodal).unwrap();
        f.l()
            .values()
            .iter()
            .chain(f.u().values())
            .map(|v| v.to_bits())
            .collect()
    };
    // Serial, parallel, and supernodal: profiling on vs. off must not
    // change a single bit of the factors (instrumentation is purely
    // observational).
    for (supernodal, n_threads) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
        assert_eq!(
            collect(false, supernodal, n_threads),
            collect(true, supernodal, n_threads),
            "profiling must be invisible to the numbers (supernodal {supernodal}, \
             {n_threads} threads)"
        );
    }
}

#[test]
fn parallel_tier_records_per_thread_lanes_and_counters() {
    // One walker, one span vocabulary: the leveled column plan and the
    // leveled supernodal plan differ in their outer span and the
    // prefix of their lane counters, nothing else.
    let a = problem();
    for (lanes, leveled_span, in_order_span) in [
        ("par", "factor:parallel", "factor:serial"),
        ("sup", "factor:supernodal", "factor:supernodal"),
    ] {
        for threads in [1usize, 2, 4] {
            let (plan, profiler) = profiled_plan(&a);
            if lanes == "par" {
                plan.leveled(threads).factor(&a).unwrap();
            } else {
                strict_panels(plan, threads).factor(&a).unwrap();
            }
            let snap = profiler.snapshot(lanes);
            if threads == 1 {
                // One worker is the in-order walk: no lanes, no levels.
                assert_eq!(snap.spans_named(in_order_span).count(), 1);
                assert_eq!(snap.spans_named("work").count(), 0);
                assert!(snap.counter(&format!("{lanes}.t0.busy_ns")).is_none());
                continue;
            }
            assert_eq!(snap.spans_named(leveled_span).count(), 1);
            // Every worker must report busy/wait counters and have run
            // work spans on its own lane; busy time is the sum of the
            // lane's work segments.
            for t in 0..threads {
                let busy = snap.counter(&format!("{lanes}.t{t}.busy_ns"));
                let worked: u64 = snap
                    .spans_named("work")
                    .filter(|s| s.lane == t)
                    .map(|s| s.dur_ns)
                    .sum();
                assert!(
                    snap.spans_named("work").any(|s| s.lane == t),
                    "{lanes}: work span on lane {t} at {threads} threads"
                );
                assert_eq!(busy, Some(worked), "{lanes}: busy counter of worker {t}");
                assert!(
                    snap.counter(&format!("{lanes}.t{t}.wait_ns")).is_some(),
                    "{lanes}: wait counter for worker {t} at {threads} threads"
                );
            }
            // No counters for workers that don't exist.
            assert!(snap
                .counter(&format!("{lanes}.t{threads}.busy_ns"))
                .is_none());
            let imbalance = snap
                .gauge(&format!("{lanes}.imbalance"))
                .expect("imbalance gauge");
            assert!(imbalance >= 1.0, "max/mean busy ratio is at least 1");
        }
    }
}

#[test]
fn flop_attribution_matches_compile_time_counts_exactly() {
    let a = problem();
    let (plan, profiler) = profiled_plan(&a);
    let want = plan.flops();
    assert_eq!(
        plan.per_column_flops().iter().sum::<u64>(),
        want,
        "per-column flops sum to the total"
    );
    // Serial tier.
    plan.factor(&a).unwrap();
    assert_eq!(profiler.counter_value("flops.scalar"), want);
    // Leveled (clone shares the profiler; counter accumulates).
    plan.clone().leveled(4).factor(&a).unwrap();
    assert_eq!(profiler.counter_value("flops.scalar"), 2 * want);
    // Supernodal tier: dense + scalar attribution covers every flop.
    strict_panels(plan.clone(), 2).factor(&a).unwrap();
    let dense = profiler.counter_value("flops.dense");
    let scalar = profiler.counter_value("flops.scalar") - 2 * want;
    assert_eq!(dense + scalar, want, "supernodal dense+scalar == plan");
    assert!(dense > 0, "wide panels must attribute dense flops");
    // Wide panels carry per-panel spans with exact flop args.
    let snap = profiler.snapshot("sup");
    let panel_flops: f64 = snap
        .spans_named("panel")
        .map(|s| {
            s.args
                .iter()
                .find(|(k, _)| k == "flops")
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        })
        .sum();
    assert_eq!(panel_flops as u64, dense, "panel spans sum to dense flops");
    assert!(snap
        .spans_named("panel")
        .all(|s| s.args.iter().any(|(k, _)| k == "gflops")));
    // The in-order walk of the same panels attributes the same split.
    strict_panels(plan.clone(), 1).factor(&a).unwrap();
    assert_eq!(profiler.counter_value("flops.dense"), 2 * dense);
    assert_eq!(
        profiler.counter_value("flops.scalar"),
        2 * want + 2 * scalar
    );
}

#[test]
fn health_monitors_surface_on_profiled_factors() {
    let a = problem();
    let (plan, profiler) = profiled_plan(&a);
    let f = plan.factor(&a).unwrap();
    let health = *f.health().expect("profiled factor carries health");
    assert_eq!(
        health,
        plan.health_of(&a, &f),
        "inline health equals recomputation"
    );
    assert!(
        health.growth > 0.0 && health.growth.is_finite(),
        "growth is a positive finite ratio"
    );
    assert!(health.min_pivot > 0.0 && health.min_pivot <= health.max_pivot);
    assert!(
        health.min_matched_diag > 0.0,
        "diagonal structurally present"
    );
    let snap = profiler.snapshot("health");
    assert_eq!(snap.gauge("health.growth"), Some(health.growth));
    assert_eq!(snap.gauge("health.min_pivot"), Some(health.min_pivot));
    // Unprofiled factors don't pay for it.
    let off = LuPlan::build(&a, &SympilerOptions::default()).unwrap();
    assert!(off.factor(&a).unwrap().health().is_none());
}

#[test]
fn lane_exhaustion_beyond_32_threads_degrades_gracefully() {
    use sympiler::core::serve::{CacheConfig, FactorService, PlanCache, ServeRequest};
    use sympiler::obs::MAX_LANES;

    // Raw hammer: more threads than lanes, each opening and closing
    // spans concurrently. Overflow lanes clamp onto the last lane
    // (which several threads then share); nothing may panic, every
    // span must be recorded, and no span may claim an out-of-range
    // lane.
    let threads = MAX_LANES + 8;
    let profiler = Arc::new(Profiler::enabled());
    std::thread::scope(|s| {
        for t in 0..threads {
            let prof = Arc::clone(&profiler);
            s.spawn(move || {
                for i in 0..16 {
                    let id = prof.begin(t, "hammer");
                    prof.end_with(id, &[("i", i as f64)]);
                }
            });
        }
    });
    let snap = profiler.snapshot("hammer");
    assert_eq!(
        snap.spans_named("hammer").count(),
        threads * 16,
        "every span survives lane clamping"
    );
    assert!(
        snap.spans.iter().all(|s| s.lane < MAX_LANES),
        "clamped lanes stay in range"
    );

    // Service shape: more workers than span lanes. The overflow
    // workers share the clamped last lane; every request must still
    // succeed and leave its root span on a valid worker lane.
    let a = problem();
    let profiler = Arc::new(Profiler::enabled());
    let cache = Arc::new(PlanCache::with_profiler(
        CacheConfig::default(),
        Arc::clone(&profiler),
    ));
    let workers = MAX_LANES + 4;
    let service = FactorService::new(workers, Arc::clone(&cache));
    let requests = 2 * workers;
    let tickets: Vec<_> = (0..requests)
        .map(|req| {
            let mut m = a.clone();
            for v in m.values_mut() {
                *v *= 1.0 + 1e-3 * (req as f64);
            }
            service.submit(ServeRequest {
                a: m,
                opts: SympilerOptions::default(),
                rhs: Vec::new(),
            })
        })
        .collect();
    for t in tickets {
        t.wait()
            .expect("request on a shared overflow lane succeeds");
    }
    let snap = profiler.snapshot("lanes");
    assert_eq!(
        snap.spans_named("request").count(),
        requests,
        "one root span per request even with workers sharing a lane"
    );
    assert!(
        snap.spans.iter().all(|s| s.lane >= 1 && s.lane < MAX_LANES),
        "service spans stay on worker lanes (1..MAX_LANES)"
    );
}

#[test]
fn compile_spans_and_set_gauges_share_the_trace() {
    let a = problem();
    let lu = SympilerLu::compile(
        &a,
        &SympilerOptions {
            profile: true,
            ..Default::default()
        },
    )
    .unwrap();
    lu.factor(&a).unwrap();
    let snap = lu.profiler().snapshot("compile");
    assert!(
        snap.spans.iter().any(|s| s.name.starts_with("compile: ")),
        "compile stages land on the same trace as the numeric phase"
    );
    for (name, size) in &lu.report().set_sizes {
        assert_eq!(
            snap.gauge(&format!("sets.{name}")),
            Some(*size as f64),
            "set size {name} must ride the trace as a gauge"
        );
    }
}
