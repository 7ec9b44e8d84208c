//! The serving-layer experiment: compile once, serve a request
//! stream.
//!
//! Three serving shapes are measured per unsymmetric suite problem,
//! all against the same economic question — how much of Sympiler's
//! decoupling win survives when plan management moves behind a
//! service boundary:
//!
//! 1. **Cached stream** — 1000 same-pattern factor requests (values
//!    perturbed per request) through a [`PlanCache`]: exactly one
//!    compile (the first request misses, 999 hit), reported as
//!    throughput (factors/sec), p50/p99/p999 request latency, and
//!    the cache hit rate. Every sampled response is verified
//!    **bitwise** against a direct `compile()` + `factor()` of the
//!    same request. Latencies go straight into a log-bucketed
//!    [`Histogram`] (one per problem, `serve.<name>.latency_ns`), so
//!    the quantiles printed here and the quantiles in the exported
//!    metrics snapshot come from the same buckets.
//! 2. **Batched factorization** — [`SympilerLu::factor_batch`] over a
//!    same-pattern batch, verified bitwise against the one-at-a-time
//!    `factor()` loop (it *is* that loop against one workspace: the
//!    entry-major kernel it once ran lost to the loop per matrix and
//!    was deleted, so there is no ratio left to time). The blocked
//!    multi-RHS [`LuFactor::solve_batch`] sweep rides the same batch
//!    and is verified bitwise against per-RHS `solve()` calls.
//! 3. **Service** — the [`FactorService`] thread pool absorbing the
//!    same request stream (factor + one RHS solve per request)
//!    through a shared cache, reported as end-to-end throughput and
//!    the service-side hit rate, with solutions verified against the
//!    direct path.
//!
//! Writes `results/serve_bench.csv`, the machine-readable
//! `results/BENCH_serve_bench.json` consumed by the CI perf gate, and
//! `results/METRICS_serve_bench.json` — the [`MetricsRegistry`]
//! snapshot carrying the per-problem latency histograms (full bucket
//! arrays plus p50/p90/p99/p999). The snapshot is re-parsed after
//! writing and its quantiles asserted equal to the ones reported
//! here, so the file is guaranteed to agree with the console table.
//! Gate entries per problem: `<name>:cache_hit_rate` (deterministic —
//! one miss in 1000 requests is 0.999 by construction),
//! `<name>:cache_bitwise` and `<name>:batch_bitwise` (deterministic
//! 1.0, flipped to 0.0 by any cached/batched result that diverges
//! from the direct path). Hit rates and bitwise flags are also
//! asserted here outright.
//!
//! With `--profile` the cache runs with an enabled [`Profiler`]: the
//! `serve.cache.hit` / `serve.cache.miss` / `serve.cache.eviction`
//! counters and the numeric-phase spans of the profiled stream land
//! in `results/PROFILE_serve_bench.json` (chrome://tracing loadable).
//! The [`FactorService`] shape shares the same profiler, so the trace
//! additionally carries one per-request span tree per service request
//! (`request` → `queue-wait` / `cache-lookup` / `factor` / `solve`)
//! on the named `worker-*` lanes, and the profiler's counters and
//! gauges are absorbed into the metrics snapshot. The console then
//! prints, per problem and per request class (hit / miss), the median
//! request time and the median `request − Σ children`: the share of a
//! request the service's own spans do not explain.
//!
//! Run with `--test-scale` (or `--test`, for `all_experiments`
//! compatibility) for a fast smoke run (CI uses this); the default
//! runs the bench-scale suite.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sympiler_bench::harness::Table;
use sympiler_bench::perf::PerfReport;
use sympiler_bench::workloads::{prepare_lu_subset, LuBenchProblem};
use sympiler_core::plan::lu::LuFactor;
use sympiler_core::serve::{CacheConfig, FactorService, PlanCache, ServeRequest};
use sympiler_core::{LuWorkspace, Profiler, SympilerLu, SympilerOptions, TraceFile};
use sympiler_obs::{Histogram, MetricsRegistry, Profile};
use sympiler_sparse::CscMatrix;

/// Length of the same-pattern request stream (both scales: the
/// acceptance contract is "≥ 0.99 hit rate on a 1000-request stream",
/// and the rate is deterministic, so the stream never shrinks).
const STREAM: usize = 1000;

/// Deterministic per-request value perturbation: same pattern, fresh
/// values — the circuit-transient / Newton-step shape.
fn perturbed(base: &CscMatrix, req: usize) -> CscMatrix {
    let mut a = base.clone();
    let s = 1.0 + 0.001 * ((req % 17) as f64) + 1e-6 * (req as f64);
    for v in a.values_mut() {
        *v *= s;
    }
    a
}

fn assert_bitwise(tag: &str, got: &LuFactor, want: &LuFactor) -> bool {
    let same = got
        .l()
        .values()
        .iter()
        .chain(got.u().values())
        .zip(want.l().values().iter().chain(want.u().values()))
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{tag}: served factor diverged from the direct path");
    same
}

fn throughput(count: usize, total: Duration) -> f64 {
    count as f64 / total.as_secs_f64().max(1e-12)
}

struct StreamResult {
    hit_rate: f64,
    factors_per_sec: f64,
    p50: Duration,
    p99: Duration,
    p999: Duration,
}

/// Shape 1: the cached single-caller stream. Per-request latencies
/// are recorded into `hist` and the reported quantiles read back out
/// of it, so the console numbers and the exported metrics snapshot
/// share one source of truth.
fn run_cached_stream(
    p: &LuBenchProblem,
    opts: &SympilerOptions,
    profiler: &Arc<Profiler>,
    hist: &Histogram,
) -> StreamResult {
    let cache = PlanCache::with_profiler(CacheConfig::default(), Arc::clone(profiler));
    let mut ws = LuWorkspace::new();
    let t0 = Instant::now();
    for req in 0..STREAM {
        let a = perturbed(&p.a, req);
        let t = Instant::now();
        let plan = cache.get_or_compile(&a, opts).expect("stream compile");
        let f = plan.factor_with(&a, &mut ws).expect("stream factor");
        hist.record_duration(t.elapsed());
        black_box(f.l().values().first().copied());
    }
    let total = t0.elapsed();
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.entries),
        (1, 1),
        "{}: one pattern, one compile, one resident plan",
        p.name
    );
    assert!(
        stats.hit_rate() >= 0.99,
        "{}: hit rate {:.4} below the 0.99 serving contract",
        p.name,
        stats.hit_rate()
    );
    // Bitwise spot checks: cached responses == direct compile+factor.
    for req in [0, STREAM / 2, STREAM - 1] {
        let a = perturbed(&p.a, req);
        let direct = SympilerLu::compile(&a, opts)
            .expect("direct compile")
            .factor(&a)
            .expect("direct factor");
        let cached = cache
            .get_or_compile(&a, opts)
            .expect("recall")
            .factor_with(&a, &mut ws)
            .expect("cached factor");
        assert_bitwise(&format!("{} req {req}", p.name), &cached, &direct);
    }
    StreamResult {
        hit_rate: stats.hit_rate(),
        factors_per_sec: throughput(STREAM, total),
        p50: Duration::from_nanos(hist.quantile(0.50)),
        p99: Duration::from_nanos(hist.quantile(0.99)),
        p999: Duration::from_nanos(hist.quantile(0.999)),
    }
}

/// Shape 2: batched factorization + blocked multi-RHS solve, both
/// verified bitwise; returns the batch size.
fn run_batched(p: &LuBenchProblem, opts: &SympilerOptions, test_scale: bool) -> usize {
    let batch = if test_scale { 8 } else { 16 };
    let mats: Vec<CscMatrix> = (0..batch).map(|k| perturbed(&p.a, k)).collect();
    let refs: Vec<&CscMatrix> = mats.iter().collect();
    let lu = SympilerLu::compile(&p.a, opts).expect("batch compile");

    // Bitwise: batched factors == the one-at-a-time loop's.
    let batched = lu.factor_batch(&refs).expect("batch factor");
    let singles: Vec<_> = mats
        .iter()
        .map(|a| lu.factor(a).expect("single factor"))
        .collect();
    for (k, (b, s)) in batched.iter().zip(&singles).enumerate() {
        assert_bitwise(&format!("{} batch[{k}]", p.name), b, s);
    }
    // Bitwise: blocked multi-RHS == per-RHS solves.
    let rhs: Vec<Vec<f64>> = (0..4)
        .map(|r| (0..p.n()).map(|i| 1.0 + ((i + r) % 5) as f64).collect())
        .collect();
    let xs = batched[0].solve_batch(&rhs);
    for (r, x) in xs.iter().enumerate() {
        let want = batched[0].solve(&rhs[r]);
        assert!(
            x.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
            "{} rhs {r}: blocked solve diverged from solve()",
            p.name
        );
    }
    batch
}

struct ServiceResult {
    factors_per_sec: f64,
    hit_rate: f64,
}

/// Shape 3: the thread-pool front end absorbing the stream. The
/// shared profiler means a `--profile` run captures one span tree per
/// request on the `worker-*` lanes.
fn run_service(
    p: &LuBenchProblem,
    opts: &SympilerOptions,
    test_scale: bool,
    profiler: &Arc<Profiler>,
) -> ServiceResult {
    let requests = if test_scale { 200 } else { STREAM };
    let cache = Arc::new(PlanCache::with_profiler(
        CacheConfig::default(),
        Arc::clone(profiler),
    ));
    let service = FactorService::new(2, Arc::clone(&cache));
    let t0 = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|req| {
            service.submit(ServeRequest {
                a: perturbed(&p.a, req),
                opts: opts.clone(),
                rhs: vec![p.b.clone()],
            })
        })
        .collect();
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("service factor"))
        .collect();
    let total = t0.elapsed();
    // Served solutions match the direct path exactly.
    let a0 = perturbed(&p.a, 0);
    let direct = SympilerLu::compile(&a0, opts)
        .expect("direct compile")
        .factor(&a0)
        .expect("direct factor");
    assert_bitwise(
        &format!("{} service req 0", p.name),
        &responses[0].factor,
        &direct,
    );
    let want = direct.solve(&p.b);
    assert!(
        responses[0].solutions[0]
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{}: served solution diverged from the direct path",
        p.name
    );
    let stats = cache.stats();
    // Two workers can at worst race the first compile: ≥ requests - 2
    // hits out of `requests`.
    assert!(
        stats.hit_rate() >= (requests as f64 - 2.0) / requests as f64,
        "{}: service hit rate {:.4} (misses {})",
        p.name,
        stats.hit_rate(),
        stats.misses
    );
    ServiceResult {
        factors_per_sec: throughput(requests, total),
        hit_rate: stats.hit_rate(),
    }
}

/// Does the service's trace add up? For every `request` span, subtract
/// its direct children (`queue-wait`, `cache-lookup`, `compile-wait`,
/// `compile`, `factor`, `solve`, `escalate`) and print the medians per
/// request class. `cache-lookup` opens before the pattern is hashed, so
/// what is left is span bookkeeping, the reply hand-off and the gaps
/// between phases.
fn print_unaccounted(prof: &Profile) {
    let mut classes = [("hit", Vec::new()), ("miss", Vec::new())];
    for (at, root) in prof.spans.iter().enumerate() {
        if root.name != "request" {
            continue;
        }
        let (mut children_ns, mut hit) = (0u64, false);
        for child in prof.spans[at + 1..]
            .iter()
            .take_while(|s| s.lane == root.lane && s.depth > root.depth)
            .filter(|s| s.depth == root.depth + 1)
        {
            children_ns += child.dur_ns;
            if child.name == "cache-lookup" {
                hit = child.args.iter().any(|(k, v)| k == "hit" && *v == 1.0);
            }
        }
        let class = &mut classes[usize::from(!hit)].1;
        class.push((root.dur_ns, root.dur_ns.saturating_sub(children_ns)));
    }
    for (label, mut samples) in classes {
        if samples.is_empty() {
            continue;
        }
        let mid = samples.len() / 2;
        samples.sort_unstable();
        let request_ns = samples[mid].0;
        samples.sort_unstable_by_key(|&(_, rest)| rest);
        let rest_ns = samples[mid].1;
        println!(
            "  {:<20} {label:<4} {:>5} requests  request p50 {:>9.1} us  \
             request - sum(children) p50 {:>7.1} us",
            prof.label,
            samples.len(),
            request_ns as f64 / 1e3,
            rest_ns as f64 / 1e3,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_scale = args.iter().any(|a| a == "--test-scale" || a == "--test");
    let write_profile = args.iter().any(|a| a == "--profile");
    let scale = if test_scale {
        sympiler_sparse::suite::SuiteScale::Test
    } else {
        sympiler_sparse::suite::SuiteScale::Bench
    };
    // Three well-conditioned diagonal-bearing problems: two PDE
    // patterns and one circuit pattern — the request-stream families
    // the serving layer exists for.
    let problems = prepare_lu_subset(scale, &[1, 2, 3]);
    let opts = SympilerOptions::default();

    let mut report = PerfReport::new("serve_bench");
    let mut trace = TraceFile::new("serve_bench");
    let metrics = MetricsRegistry::new();
    let mut table = Table::new(
        &format!(
            "serving layer: {STREAM}-request cached stream, batched factorization, \
             thread-pool service ({} scale)",
            if test_scale { "test" } else { "bench" }
        ),
        &[
            "id",
            "name",
            "n",
            "hit rate",
            "factors/s",
            "p50",
            "p99",
            "p999",
            "batch",
            "svc factors/s",
            "svc hit rate",
        ],
    );

    let mut profile_snaps = Vec::new();
    let mut reported = Vec::new();
    for p in &problems {
        let profiler = Arc::new(if write_profile {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        });
        let hist = metrics.histogram(&format!("serve.{}.latency_ns", p.name));
        let stream = run_cached_stream(p, &opts, &profiler, &hist);
        let batch = run_batched(p, &opts, test_scale);
        let service = run_service(p, &opts, test_scale, &profiler);

        // Deterministic gate entries: the hit rate is fixed by the
        // stream construction (1 miss / STREAM requests), the bitwise
        // flags by the asserts above (reaching here means they held).
        report.push(&format!("{}:cache_hit_rate", p.name), stream.hit_rate);
        report.push(&format!("{}:cache_bitwise", p.name), 1.0);
        report.push(&format!("{}:batch_bitwise", p.name), 1.0);
        reported.push((
            format!("serve.{}.latency_ns", p.name),
            [
                stream.p50.as_nanos() as u64,
                stream.p99.as_nanos() as u64,
                stream.p999.as_nanos() as u64,
            ],
        ));

        if write_profile {
            profiler.gauge("serve.stream.requests", STREAM as f64);
            profiler.gauge("serve.stream.hit_rate", stream.hit_rate);
            let prof = profiler.snapshot(p.name);
            profile_snaps.push(prof.clone());
            trace.push(prof);
        }

        table.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            p.n().to_string(),
            format!("{:.4}", stream.hit_rate),
            format!("{:.0}", stream.factors_per_sec),
            format!("{:.3?}", stream.p50),
            format!("{:.3?}", stream.p99),
            format!("{:.3?}", stream.p999),
            batch.to_string(),
            format!("{:.0}", service.factors_per_sec),
            format!("{:.4}", service.hit_rate),
        ]);
    }

    table.emit(Some("serve_bench.csv"));
    report.write_results().expect("write perf report");

    // Export the latency histograms (and, when profiling, the cache
    // counters/gauges) as a metrics snapshot, then re-parse the file
    // and check it against what the console reported: the exported
    // quantiles must be the exact values printed above, since both
    // come from the same histogram buckets.
    let mut snapshot = metrics.snapshot("serve_bench");
    for prof in &profile_snaps {
        snapshot.absorb_profile(prof);
    }
    let metrics_path = snapshot.write_results().expect("write metrics snapshot");
    let reread = sympiler_obs::MetricsSnapshot::from_json(
        &std::fs::read_to_string(&metrics_path).expect("read metrics snapshot"),
    )
    .expect("parse metrics snapshot");
    for (name, [p50, p99, p999]) in &reported {
        let h = reread
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} missing from {}", metrics_path.display()));
        assert_eq!(h.count, STREAM as u64, "{name}: sample count");
        assert_eq!(
            (h.p50, h.p99, h.p999),
            (*p50, *p99, *p999),
            "{name}: exported quantiles diverged from the reported ones"
        );
    }
    if write_profile {
        let path = trace.write_results().expect("write profile trace");
        println!("[profile trace saved to {}]", path.display());
        print!("{}", trace.to_table());
        println!("service requests, traced and unaccounted time:");
        for prof in &profile_snaps {
            print_unaccounted(prof);
        }
    }
    println!(
        "serving contract held: {} problems × ({STREAM}-request stream ≥ 0.99 hit \
         rate, bitwise-identical cached/batched/served results)",
        problems.len()
    );
}
