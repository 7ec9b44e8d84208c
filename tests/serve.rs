//! Serving-layer integration tests: the [`PlanCache`] under concurrent
//! mixed-pattern load and eviction pressure, batch failures, and the
//! [`FactorService`] end to end — all verified against the direct
//! `compile()` + `factor()` path, bitwise where the tier promises it.

mod common;

use common::{factor_bits, panels_under};
use std::sync::Arc;
use sympiler::core::plan::lu_supernodal::{
    DENSE_PANEL_MIN_FLOPS_PER_ENTRY, MAX_PANEL, RELAX_COLS, RELAX_FILL,
};
use sympiler::prelude::*;
use sympiler::sparse::gen;

/// Same pattern, fresh values — the request-stream shape.
fn perturbed(base: &CscMatrix, k: usize) -> CscMatrix {
    let mut a = base.clone();
    let s = 1.0 + 0.001 * ((k % 13) as f64) + 1e-6 * (k as f64);
    for v in a.values_mut() {
        *v *= s;
    }
    a
}

/// Many threads hammer one cache with a mix of patterns sized so the
/// working set exceeds the entry bound: hits, misses, recompiles of
/// evicted patterns, and (thanks to `Arc`) plans staying alive in
/// flight after eviction — all while every factor must stay bitwise
/// identical to an uncached compile of the same matrix.
#[test]
fn concurrent_cache_stress_under_eviction_pressure() {
    let patterns: Vec<CscMatrix> = (0..6)
        .map(|k| gen::circuit_unsym(60 + 10 * k, 4, 2, 7 + k as u64))
        .collect();
    let opts = SympilerOptions::default();
    // Room for 3 of the 6 patterns: a steady eviction churn.
    let cache = Arc::new(PlanCache::new(CacheConfig {
        max_entries: 3,
        max_bytes: 0,
    }));

    let handles: Vec<_> = (0..8)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let patterns = patterns.clone();
            let opts = opts.clone();
            std::thread::spawn(move || {
                let mut ws = LuWorkspace::new();
                for req in 0..40 {
                    let base = &patterns[(t + req) % patterns.len()];
                    let a = perturbed(base, t * 1000 + req);
                    let plan = cache.get_or_compile(&a, &opts).expect("cached compile");
                    let cached = plan.factor_with(&a, &mut ws).expect("cached factor");
                    let direct = SympilerLu::compile(&a, &opts)
                        .expect("direct compile")
                        .factor(&a)
                        .expect("direct factor");
                    assert!(
                        factor_bits(&cached) == factor_bits(&direct),
                        "thread {t} request {req}: cached factor diverged"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread");
    }

    let stats = cache.stats();
    assert!(
        stats.entries <= 3,
        "entry bound violated: {}",
        stats.entries
    );
    assert_eq!(
        stats.hits + stats.misses,
        8 * 40,
        "every request is a hit or a miss"
    );
    assert!(stats.evictions > 0, "6 patterns through 3 slots must evict");
    assert!(stats.hits > 0, "same-pattern requests must hit");
    // 6 patterns cannot be served by fewer than 6 compiles.
    assert!(stats.misses >= 6);
}

/// The cache is exact, not just hash-keyed: same pattern under
/// different options are distinct plans, and both serve correctly.
#[test]
fn options_are_part_of_the_cache_key() {
    let a = gen::convection_diffusion_2d(12, 12, 2.0, 5);
    let cache = PlanCache::new(CacheConfig::default());
    let serial = SympilerOptions::default();
    let ordered = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let p1 = cache.get_or_compile(&a, &serial).expect("serial");
    let p2 = cache.get_or_compile(&a, &ordered).expect("ordered");
    assert!(
        !Arc::ptr_eq(&p1, &p2),
        "distinct options must not share a plan"
    );
    assert_eq!(cache.stats().misses, 2);
    let p1b = cache.get_or_compile(&a, &serial).expect("serial again");
    assert!(Arc::ptr_eq(&p1, &p1b), "same (pattern, options) must hit");
}

/// The equilibration knob participates in cache identity: plans
/// compiled under differing `mc64_scale` have different baked tables
/// (scaling vectors), so the cache must treat each as a distinct key and
/// hit only on an exact option match. The amalgamation budget is the
/// compiler's own (`RELAX_FILL`, `RELAX_COLS`), so every cached panel
/// layout is the one those constants detect; a strict or narrower
/// budget, built through the plan constructor, lays panels out
/// differently.
#[test]
fn amalgamation_and_scaling_options_key_the_cache() {
    let a = gen::circuit_unsym(80, 4, 2, 11);
    let cache = PlanCache::new(CacheConfig::default());
    let relaxed = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let scaled = SympilerOptions {
        mc64_scale: true,
        ..relaxed.clone()
    };
    let p_rel = cache.get_or_compile(&a, &relaxed).expect("relaxed");
    let p_sca = cache.get_or_compile(&a, &scaled).expect("scaled");
    assert!(
        !Arc::ptr_eq(&p_rel, &p_sca),
        "differing mc64_scale must not share a plan"
    );
    let layout = |sup: &SupernodalLuPlan| {
        (0..sup.n_panels())
            .map(|s| sup.partition().width(s))
            .collect::<Vec<_>>()
    };
    let cached = layout(p_rel.supernodal().expect("the circuit's panels pay"));
    assert_eq!(cached, layout(&kept_under(&p_rel, RELAX_FILL, RELAX_COLS)));
    for (label, relax_fill, relax_cols) in [("strict", 0.0, RELAX_COLS), ("narrow", RELAX_FILL, 4)]
    {
        assert_ne!(
            cached,
            layout(&kept_under(&p_rel, relax_fill, relax_cols)),
            "a {label} budget must lay panels out differently"
        );
    }
    assert_eq!(cache.stats().misses, 2, "two distinct keys, two compiles");
    assert_eq!(cache.stats().hits, 0);
    // Exact option match is the only thing that hits.
    assert!(Arc::ptr_eq(
        &p_rel,
        &cache.get_or_compile(&a, &relaxed).expect("relaxed again")
    ));
    assert!(Arc::ptr_eq(
        &p_sca,
        &cache.get_or_compile(&a, &scaled).expect("scaled again")
    ));
    assert_eq!(cache.stats().hits, 2);
    assert_eq!(cache.stats().misses, 2);
}

/// The panels `SympilerLu::compile` keeps on `lu`'s scalar plan when it
/// detects them under the given amalgamation budget instead of the
/// compiler's.
fn kept_under(lu: &SympilerLu, relax_fill: f64, relax_cols: usize) -> SupernodalLuPlan {
    let detected = panels_under(lu.plan(), MAX_PANEL, relax_fill, relax_cols);
    let kept = SupernodalLuPlan::dissolve_thin_panels(
        lu.plan(),
        detected.panel_layout(),
        DENSE_PANEL_MIN_FLOPS_PER_ENTRY,
    );
    SupernodalLuPlan::from_panels(lu.plan().clone(), kept)
}

/// The cache's byte accounting sees the execution tier that will
/// actually run: a supernodal plan's resident size is the tier-aware
/// `table_bytes()` — the panel directory, union row lists (padded
/// layouts included), and schedules on top of the scalar plan's
/// tables — and the amalgamation budget changes it (fewer, wider
/// panels store different layouts than the strict partition).
#[test]
fn cached_bytes_account_for_padded_panel_layouts() {
    let a = gen::circuit_unsym(80, 4, 2, 11);
    let relaxed = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let lu_rel = SympilerLu::compile(&a, &relaxed).expect("relaxed compile");
    let strict = kept_under(&lu_rel, 0.0, RELAX_COLS);
    let sup = lu_rel.supernodal().expect("the circuit's panels pay");
    assert!(
        sup.padded_zeros() > 0,
        "COLAMD circuit panels must amalgamate with explicit zeros"
    );
    assert!(
        lu_rel.table_bytes() > lu_rel.plan().table_bytes(),
        "the supernodal layout must be charged on top of the scalar tables"
    );
    assert_ne!(
        lu_rel.table_bytes(),
        strict.table_bytes(),
        "the amalgamation budget must be visible in the byte accounting"
    );
    let cache = PlanCache::new(CacheConfig::default());
    cache.get_or_compile(&a, &relaxed).expect("cache relaxed");
    assert_eq!(
        cache.stats().bytes,
        lu_rel.table_bytes(),
        "the cache must account the panel layout, not just the scalar plan"
    );
    let scaled = SympilerOptions {
        mc64_scale: true,
        ..relaxed
    };
    let lu_sca = SympilerLu::compile(&a, &scaled).expect("scaled compile");
    cache.get_or_compile(&a, &scaled).expect("cache scaled");
    assert_eq!(
        cache.stats().bytes,
        lu_rel.table_bytes() + lu_sca.table_bytes()
    );
}

/// The serial tier's position tables are resident memory like any
/// other compiled table: the cache charges them, to the byte, on top of
/// what the same plan weighs without them — the factor walk's 12 per
/// multiply-add, 4 per entry of `A`, 12 per column record and 16 per
/// level, and its solve sweeps' 12 per off-diagonal factor entry, 4 per
/// row and 8 + 16 per level of the two solves. A pattern seen once is
/// charged the bare plan (it has baked nothing yet); its first hit
/// bakes the tables and re-charges the entry.
#[test]
fn cached_bytes_account_for_position_tables() {
    use sympiler::graph::levels::{dag_levels_from_preds, dag_levels_from_succs, level_sets};
    let a = gen::circuit_unsym(400, 1, 0, 3);
    let opts = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let lu = SympilerLu::compile(&a, &opts).expect("compile");
    assert!(!lu.is_supernodal());
    let bare = LuPlan::build(&a, &opts).expect("bare plan");
    let plan = lu.plan();
    let multiply_adds = plan.n_multiply_adds() as usize;
    assert!(multiply_adds > 0 && multiply_adds <= plan.l_nnz() + plan.u_nnz());
    let n = a.n_cols();
    let f = lu.factor(&a).expect("factor");
    let u = f.u();
    // The three DAGs the tables are leveled by: columns, L's rows and
    // U's rows (numbered backwards, so that edges ascend).
    let column_levels = dag_levels_from_preds(n, |j| plan.schedule(j)).n_levels();
    let fwd_levels = level_sets(f.l()).n_levels();
    let bwd_levels = dag_levels_from_succs(n, |r| {
        let rows = u.col_rows(n - 1 - r);
        rows[..rows.len() - 1].iter().map(move |&i| n - 1 - i)
    })
    .n_levels();
    let (l_sub, u_off) = (plan.l_nnz() - n, plan.u_nnz() - n);
    assert!(column_levels > 2 && fwd_levels > 2 && bwd_levels > 2);
    assert_eq!(
        lu.table_bytes(),
        bare.table_bytes()
            + 12 * multiply_adds
            + 4 * a.nnz()
            + 12 * n
            + 16 * column_levels
            + 12 * (l_sub + u_off)
            + 4 * n
            + 8 * fwd_levels
            + 16 * bwd_levels
    );
    let cache = PlanCache::new(CacheConfig::default());
    let seen_once = cache.get_or_compile(&a, &opts).expect("miss");
    assert!(!seen_once.is_finished());
    assert_eq!(cache.stats().bytes, bare.table_bytes());
    let seen_twice = cache.get_or_compile(&a, &opts).expect("hit");
    assert!(seen_twice.is_finished());
    assert_eq!(cache.stats().bytes, lu.table_bytes());
    // A budget two bare plans fit, one tabled and one bare plan fit,
    // but two tabled plans do not: the second pattern's first hit
    // evicts the first.
    let tight = PlanCache::new(CacheConfig {
        max_entries: 0,
        max_bytes: lu.table_bytes() + bare.table_bytes(),
    });
    let b = gen::circuit_unsym(400, 1, 0, 4);
    for (m, entries) in [(&a, 1), (&b, 2), (&a, 2), (&b, 1)] {
        tight.get_or_compile(m, &opts).expect("tight");
        assert_eq!(tight.stats().entries, entries);
    }
    assert_eq!(
        tight.stats().evictions,
        1,
        "two tabled plans exceed the budget"
    );
}

/// Batched factorization agrees bitwise with the one-at-a-time loop on
/// every execution tier: the scalar tier's position walker and
/// accumulator kernel, and the supernodal panels. The compiled tiers
/// run inputs the compiler routes to them; the accumulator kernel is
/// the same circuit's plan built without position tables.
#[test]
fn factor_batch_agrees_on_all_three_tiers() {
    let circuit = gen::circuit_unsym(300, 1, 0, 9);
    let grid = gen::convection_diffusion_2d(16, 16, 3.0, 9);
    let colamd = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let walker = SympilerLu::compile(&circuit, &colamd).expect("compile");
    let supernodal = SympilerLu::compile(&grid, &SympilerOptions::default()).expect("compile");
    assert!(!walker.is_supernodal() && supernodal.is_supernodal());
    let accumulator = LuPlan::build(&circuit, &colamd).expect("compile");
    assert!(accumulator.table_bytes() < walker.table_bytes());
    type Batch<'a> = Box<dyn Fn(&[&CscMatrix]) -> Vec<LuFactor> + 'a>;
    type Single<'a> = Box<dyn Fn(&CscMatrix) -> LuFactor + 'a>;
    let tiers: [(&str, &CscMatrix, Batch, Single); 3] = [
        (
            "walker",
            &circuit,
            Box::new(|m| walker.factor_batch(m).expect("batch")),
            Box::new(|a| walker.factor(a).expect("single")),
        ),
        (
            "accumulator",
            &circuit,
            Box::new(|m| accumulator.factor_batch(m).expect("batch")),
            Box::new(|a| accumulator.factor(a).expect("single")),
        ),
        (
            "supernodal",
            &grid,
            Box::new(|m| supernodal.factor_batch(m).expect("batch")),
            Box::new(|a| supernodal.factor(a).expect("single")),
        ),
    ];
    for (name, base, batch, factor) in tiers {
        let mats: Vec<CscMatrix> = (0..5).map(|k| perturbed(base, k)).collect();
        let refs: Vec<&CscMatrix> = mats.iter().collect();
        let batched = batch(&refs);
        assert_eq!(batched.len(), mats.len());
        for (k, (b, a)) in batched.iter().zip(&mats).enumerate() {
            let single = factor(a);
            assert!(
                factor_bits(b) == factor_bits(&single),
                "{name} tier: batch[{k}] diverged from factor()"
            );
        }
    }
}

/// A zero pivot anywhere in the batch aborts the whole call and names
/// the offending matrix; the plan stays reusable afterwards.
#[test]
fn factor_batch_reports_the_failing_matrix() {
    let base = gen::circuit_unsym(50, 4, 2, 3);
    let lu = SympilerLu::compile(&base, &SympilerOptions::default()).expect("compile");
    let good0 = perturbed(&base, 0);
    let mut bad = perturbed(&base, 1);
    // Zero a diagonal entry: structurally present, numerically fatal.
    let diag_pos = (bad.col_ptr()[0]..bad.col_ptr()[1])
        .find(|&p| bad.row_idx()[p] == 0)
        .expect("circuit generator keeps a full diagonal");
    bad.values_mut()[diag_pos] = 0.0;
    let good2 = perturbed(&base, 2);
    let err = lu
        .factor_batch(&[&good0, &bad, &good2])
        .expect_err("zero pivot must fail");
    assert_eq!(err.index, 1, "error must name the batch position: {err}");
    // The plan (and a fresh batch) still works.
    let ok = lu.factor_batch(&[&good0, &good2]).expect("clean batch");
    assert_eq!(
        factor_bits(&ok[0]),
        factor_bits(&lu.factor(&good0).expect("single"))
    );
}

/// Blocked multi-RHS solve is bitwise per-RHS `solve()`.
#[test]
fn solve_batch_is_bitwise_per_rhs() {
    let a = gen::convection_diffusion_2d(14, 14, 2.5, 4);
    let n = a.n_cols();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).expect("compile");
    let f = lu.factor(&a).expect("factor");
    let rhs: Vec<Vec<f64>> = (0..7)
        .map(|r| (0..n).map(|i| 0.5 + ((i * 3 + r) % 11) as f64).collect())
        .collect();
    let xs = f.solve_batch(&rhs);
    assert_eq!(xs.len(), rhs.len());
    for (r, x) in xs.iter().enumerate() {
        let want = f.solve(&rhs[r]);
        assert!(
            x.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()),
            "rhs {r} diverged"
        );
    }
    assert!(f.solve_batch(&Vec::<Vec<f64>>::new()).is_empty());
}

/// A full queue refuses at once: behind a cold compile that keeps the
/// one worker busy, submits past `QUEUE_CAPACITY` resolve to
/// `ServeError::Overloaded` without running, every accepted request is
/// still served, and once the queue drains submits are served again.
/// The compile only makes the refusals come early: a submit is far
/// cheaper than a request, so the queue fills either way.
#[test]
fn a_full_queue_refuses_at_once_and_serves_again_once_drained() {
    use sympiler::core::serve::QUEUE_CAPACITY;
    let prof = Arc::new(Profiler::enabled());
    let cache = Arc::new(PlanCache::with_profiler(
        CacheConfig::default(),
        Arc::clone(&prof),
    ));
    let service = FactorService::new(1, cache);
    let opts = SympilerOptions::default();
    let slow = service.submit(ServeRequest {
        a: gen::circuit_unsym(20000, 1, 0, 37),
        opts: opts.clone(),
        rhs: Vec::new(),
    });
    let small = gen::circuit_unsym(30, 3, 1, 5);
    let request = || ServeRequest {
        a: small.clone(),
        opts: opts.clone(),
        rhs: vec![vec![1.0; 30]],
    };
    let tickets: Vec<Ticket> = (0..4 * QUEUE_CAPACITY)
        .map(|_| service.submit(request()))
        .collect();
    slow.wait().expect("the cold compile is served");
    let (mut served, mut refused) = (0, 0);
    for ticket in tickets {
        match ticket.wait() {
            Ok(resp) => {
                assert_eq!(resp.solutions.len(), 1);
                served += 1;
            }
            Err(ServeError::Overloaded) => refused += 1,
            Err(e) => panic!("{e}"),
        }
    }
    // When the first refusal came, the queue held QUEUE_CAPACITY jobs,
    // the cold compile at most one of them.
    assert!(
        refused >= 1 && served + 1 >= QUEUE_CAPACITY,
        "{served} served, {refused} refused"
    );
    assert_eq!(prof.counter_value("serve.overloaded"), refused as u64);
    assert_eq!(service.call(request()).expect("served").solutions.len(), 1);
    assert_eq!(prof.counter_value("serve.overloaded"), refused as u64);
}

/// End to end: a mixed-pattern request stream through the thread-pool
/// service, every response checked against the direct path.
#[test]
fn service_serves_mixed_patterns_correctly() {
    let patterns: Vec<CscMatrix> = (0..3)
        .map(|k| gen::circuit_unsym(70 + 15 * k, 4, 2, 21 + k as u64))
        .collect();
    let opts = SympilerOptions::default();
    let cache = Arc::new(PlanCache::new(CacheConfig::default()));
    let service = FactorService::new(3, Arc::clone(&cache));

    let requests: Vec<CscMatrix> = (0..24)
        .map(|req| perturbed(&patterns[req % patterns.len()], req))
        .collect();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|a| {
            let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 5) as f64).collect();
            service.submit(ServeRequest {
                a: a.clone(),
                opts: opts.clone(),
                rhs: vec![b],
            })
        })
        .collect();
    for (req, t) in tickets.into_iter().enumerate() {
        let resp: ServeResponse = t.wait().expect("served");
        let a = &requests[req];
        let direct = SympilerLu::compile(a, &opts)
            .expect("direct compile")
            .factor(a)
            .expect("direct factor");
        assert!(
            factor_bits(&resp.factor) == factor_bits(&direct),
            "request {req}: served factor diverged"
        );
        let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 5) as f64).collect();
        let want = direct.solve(&b);
        assert!(
            resp.solutions[0]
                .iter()
                .zip(&want)
                .all(|(p, q)| p.to_bits() == q.to_bits()),
            "request {req}: served solution diverged"
        );
    }
    let stats = cache.stats();
    // 3 patterns, 3 workers: at most one racing compile extra each.
    assert!(stats.misses <= 6, "too many compiles: {}", stats.misses);
    assert!(stats.hits >= 18);
}

/// A zero-pivot request surfaces the factorization error through the
/// ticket without poisoning the service for later requests.
#[test]
fn service_propagates_factor_errors() {
    let base = gen::circuit_unsym(40, 4, 2, 5);
    let opts = SympilerOptions::default();
    let service = FactorService::new(2, Arc::new(PlanCache::new(CacheConfig::default())));
    let mut bad = base.clone();
    for v in bad.values_mut() {
        *v = 0.0;
    }
    let err = service
        .submit(ServeRequest {
            a: bad,
            opts: opts.clone(),
            rhs: Vec::new(),
        })
        .wait();
    assert!(err.is_err(), "all-zero matrix must fail to factor");
    let ok = service
        .submit(ServeRequest {
            a: base.clone(),
            opts,
            rhs: Vec::new(),
        })
        .wait();
    assert!(
        ok.is_ok(),
        "service must keep serving after a failed request"
    );
}

/// A factor is values plus an `Arc` on its plan's structure: it keeps
/// solving — and can still materialise `l()` / `u()` — after the cache
/// evicted the plan and every other handle on it is gone.
#[test]
fn a_factor_outlives_its_evicted_plan() {
    let a = gen::circuit_unsym(90, 4, 2, 31);
    let other = gen::circuit_unsym(70, 4, 2, 32);
    let opts = SympilerOptions {
        ordering: Ordering::Colamd,
        ..SympilerOptions::default()
    };
    let cache = PlanCache::new(CacheConfig {
        max_entries: 1,
        max_bytes: 0,
    });
    let plan = cache.get_or_compile(&a, &opts).expect("compile");
    let plan_alive = Arc::downgrade(&plan);
    let factor = plan.factor(&a).expect("factor");
    drop(plan);
    cache
        .get_or_compile(&other, &opts)
        .expect("evicting compile");
    assert_eq!(cache.stats().evictions, 1);
    assert!(plan_alive.upgrade().is_none(), "the plan itself is gone");

    let direct = SympilerLu::compile(&a, &opts)
        .expect("direct compile")
        .factor(&a)
        .expect("direct factor");
    let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 5) as f64).collect();
    let (x, want) = (factor.solve(&b), direct.solve(&b));
    assert!(x.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(factor.l().same_pattern(direct.l()) && factor.u().same_pattern(direct.u()));
    assert_eq!(factor_bits(&factor), factor_bits(&direct));
}

/// Cloning a factor copies its values: consuming or materialising one
/// copy leaves the other untouched.
#[test]
fn a_cloned_factor_is_independent() {
    let a = gen::convection_diffusion_2d(10, 10, 2.0, 6);
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).expect("compile");
    let original = lu.factor(&a).expect("factor");
    let b: Vec<f64> = (0..a.n_cols()).map(|i| 0.5 + (i % 7) as f64).collect();
    let want = original.solve(&b);

    let copy = original.clone();
    assert_eq!(factor_bits(&copy), factor_bits(&original));
    let (l, u) = copy.into_parts(); // the clone is consumed…
    assert!(l == *original.l() && u == *original.u());
    let late = original.clone(); // …cloned again after `l()` was built…
    drop(original);
    let x = late.solve(&b); // …and each copy still answers alone.
    assert!(x.iter().zip(&want).all(|(p, q)| p.to_bits() == q.to_bits()));
    assert!(l == *late.l() && u == *late.u());
}
