//! The sparse-LU experiment: baseline Gilbert–Peierls (symbolic DFS
//! coupled into every numeric factorization) vs. the Sympiler LU plan
//! (symbolic analysis once at compile time, numeric-only factor) —
//! swept across the
//! fill-reducing **ordering knob** (natural / RCM / COLAMD) and, on
//! the zero-diagonal problems, the **pre-pivot knob** (maximum
//! transversal / weighted matching) with **MC64 equilibration**
//! (`mc64_scale`) folded into the plan's baked gather maps.
//!
//! For every unsymmetric suite problem and every applicable
//! (pre-pivot, ordering) pair this prints the median numeric
//! factorization time of each engine, the decoupling speedup, the fill
//! ratio `nnz(L+U)/nnz(A)` and the elimination DAG's available
//! parallelism (columns per level), and verifies that (a) the plan
//! reproduces the identically pre-pivoted, identically ordered (and,
//! on the zero-diagonal problems, identically MC64-scaled), statically
//! pivoted baseline factors in pattern and to a **uniform strict
//! 1e-10** (relative) in values on every combination — both scalar
//! engines run their update sums in the same ascending pivot
//! order, so the serial tier matches bitwise and the old
//! growth-aware tolerance carve-out for the pattern-only transversal
//! is gone — with the factorization's `|PA − LU| / (|L||U|)`
//! backward error gated at the same strict 1e-10 and pivot growth
//! asserted `< 1e2` wherever the pivots come from the weighted
//! matching (equilibration collapses it from ~1e8–1e12 to O(1)
//! there; a values-blind transversal's growth is unbounded by
//! design), and (b) the end-to-end solve
//! answers the *original* system regardless of the permutations and
//! scalings baked inside — through both the compiled plan and the
//! independently derived `GpLu::factor_prepivoted` /
//! `factor_prepivoted_scaled` runtime baselines, with the static-
//! pivot runs on the zero-diagonal problems solving through
//! iterative refinement, their production contract.
//!
//! The supernodal (VS-Block) engine rides in its own columns: median
//! numeric time, decoupling speedup, and the per-problem panel
//! statistics, with its factors verified against the same baseline
//! under every combination — so the zero-diagonal problems exercise
//! **both kernels**.
//!
//! The two zero-diagonal problems (`circuit_zdiag_u`,
//! `saddle_point_u`) are hard errors without a pre-pivot — asserted
//! here: compilation under `PrePivot::Off` succeeds but the numeric
//! phase reports the structural zero pivot — and factor cleanly under
//! both matchings.
//!
//! Writes `results/lu_compare.csv` plus the machine-readable
//! `results/BENCH_lu_compare.json` consumed by the CI perf gate. The
//! report carries, per problem: the natural-order decoupling speedup
//! (`<name>`, the historical gate entry), the supernodal engine's
//! natural-order speedup (`<name>:supernodal`), each ordering's
//! decoupling speedups (`<name>:<ordering>`,
//! `<name>:<ordering>_supernodal`), each ordering's **fill gain** over
//! natural order (`<name>:<ordering>_fill_gain`), each ordering's
//! **mean panel width** (`<name>:<ordering>_panel_width`, of the
//! detected relaxed-amalgamation panel layout), and each ordering's
//! **dense flop share** (`<name>:<ordering>_dense_share`: the share of
//! structural flops in the panels `SympilerLu::compile` keeps dense
//! after dissolving the thin ones — what the dense kernels actually
//! get; asserted ≥ 0.9 on the COLAMD circuit problems). The supernodal
//! columns time exactly that partition. The zero-diagonal
//! problems add:
//! `<name>:zero_diag` (count of structurally missing diagonals —
//! proves the scenario is genuinely degenerate),
//! `<name>:<prepivot>_matched_diag` (diagonals the matching recovered
//! — must stay at `n`), `<name>:scaled_growth` (worst pivot growth of
//! the MC64-equilibrated weighted-matching factorizations — the
//! quantity scaling is derived to tame, gated so it stays O(1); the
//! unscaled runs blew it up to ~1e8–1e12), and speedup entries
//! `<name>:<prepivot>` / `<name>:<ordering>_<prepivot>`. Matched-diag
//! and zero-diag counts are **deterministic** (pattern + algorithm
//! only), so the gate catches pre-pivot quality regressions the way
//! fill gains catch ordering regressions.
//!
//! Every run additionally takes one **profiled** pass per problem
//! through the scalar plan and the supernodal plan (enabled
//! `Profiler`, natural
//! order, a weighted-matching pre-pivot on the zero-diagonal
//! problems) and checks the observability layer's flop accounting
//! against the compile-time count: serial `flops.scalar` and
//! supernodal `flops.dense + flops.scalar` must each equal
//! `plan.flops()` **exactly** — gated per problem as the
//! deterministic `<name>:flop_accounting` entry (1.0). With
//! `--profile` the collected traces are also written to
//! `results/PROFILE_lu_compare.json` (chrome://tracing loadable) and
//! printed as a span/counter table. The main table carries the
//! numerical-health monitors (`growth`, `min piv`) for every row.
//!
//! Run with `--test-scale` (or `--test`, for `all_experiments`
//! compatibility) for a fast smoke run (CI uses this); the default
//! runs the bench-scale suite.

use std::sync::Arc;
use sympiler_bench::engines::time_lu_factorizer;
use sympiler_bench::harness::{geomean, gflops, Table};
use sympiler_bench::perf::PerfReport;
use sympiler_bench::workloads::prepare_lu_suite;
use sympiler_core::plan::lu::{LuPlan, LuPlanError, POSITION_MAX_OPS_PER_ENTRY};
use sympiler_core::plan::lu_supernodal::{
    SupernodalLuPlan, DENSE_PANEL_MIN_FLOPS_PER_ENTRY, MAX_PANEL, RELAX_COLS, RELAX_FILL,
};
use sympiler_core::{Ordering, PrePivot, SympilerLu, SympilerOptions, TraceFile};
use sympiler_graph::levels::dag_levels_from_preds;
use sympiler_solvers::lu::{lu_backward_error, GpLu, Pivoting};
use sympiler_sparse::suite::SuiteScale;

/// The supernodal plan `SympilerLu::compile` runs on `plan` — relaxed
/// detection under the default budget, thin panels dissolved — built
/// unconditionally (even when no dense panel survives and the compiler
/// would fall back to the scalar tier), plus the detected partition's
/// mean panel width.
fn auto_supernodal(plan: &LuPlan) -> (SupernodalLuPlan, f64) {
    let detected = SupernodalLuPlan::detect_panels(plan, MAX_PANEL, RELAX_FILL, RELAX_COLS);
    let kept =
        SupernodalLuPlan::dissolve_thin_panels(plan, &detected, DENSE_PANEL_MIN_FLOPS_PER_ENTRY);
    (
        SupernodalLuPlan::from_panels(plan.clone(), kept),
        detected.mean_width(),
    )
}

/// One profiled pass per problem through the scalar plan and the
/// supernodal plan, both recording into the
/// plan's own enabled profiler; returns the flop-accounting ratio
/// (profiled / compile-time, exactly 1.0 when the observability layer
/// attributes every flop) and pushes the snapshot onto the trace.
fn profile_problem(p: &sympiler_bench::workloads::LuBenchProblem, trace: &mut TraceFile) -> f64 {
    let pre_pivot = if p.zero_diag {
        PrePivot::WeightedMatching
    } else {
        PrePivot::Off
    };
    let opts = SympilerOptions {
        pre_pivot,
        profile: true,
        ..Default::default()
    };
    let plan = LuPlan::build(&p.a, &opts).expect("profiled plan compiles");
    let profiler = Arc::clone(plan.profiler());
    let want = plan.flops();
    // Serial tier.
    let before = profiler.counter_value("flops.scalar");
    plan.factor(&p.a).expect("profiled serial factor");
    let serial = profiler.counter_value("flops.scalar") - before;
    // Supernodal tier, the partition the compiler keeps — the flop counters
    // charge structural work only, so padded layouts and dissolved
    // panels must not disturb the exact accounting.
    let before_d = profiler.counter_value("flops.dense");
    let before_s = profiler.counter_value("flops.scalar");
    auto_supernodal(&plan)
        .0
        .factor(&p.a)
        .expect("profiled supernodal factor");
    let sup_dense = profiler.counter_value("flops.dense") - before_d;
    let sup_scalar = profiler.counter_value("flops.scalar") - before_s;
    // Per-tier attribution gauges ride the profile so `perf_gate` can
    // re-verify the accounting from the JSON alone.
    profiler.gauge("flops.plan", want as f64);
    profiler.gauge("flops.serial", serial as f64);
    profiler.gauge("flops.supernodal_dense", sup_dense as f64);
    profiler.gauge("flops.supernodal_scalar", sup_scalar as f64);
    trace.push(profiler.snapshot(p.name));
    (serial + sup_dense + sup_scalar) as f64 / (2 * want) as f64
}

fn main() {
    let test_scale = std::env::args().any(|a| a == "--test-scale" || a == "--test");
    let write_profile = std::env::args().any(|a| a == "--profile");
    let scale = if test_scale {
        SuiteScale::Test
    } else {
        SuiteScale::Bench
    };
    let problems = prepare_lu_suite(scale);
    let mut table = Table::new(
        "Sparse LU: coupled baseline vs. Sympiler plan across (pre-pivot, ordering) \
         (median numeric time)",
        &[
            "id",
            "problem",
            "pre-pivot",
            "ordering",
            "n",
            "nnz(L+U)",
            "fill",
            "GPLU coupled",
            "GPLU partial",
            "plan serial",
            "speedup",
            "supernodal",
            "sup speedup",
            "panels",
            "mean w",
            "dense flops",
            "DAG par",
            "plan GF/s",
            "growth",
            "min piv",
            "symbolic",
        ],
    );
    let mut trace = TraceFile::new("lu_compare");
    let mut speedups = Vec::new();
    let mut sup_speedups = Vec::new();
    let mut zd_speedups = Vec::new();
    let mut report = PerfReport::new("lu_compare");
    for p in &problems {
        // Which pre-pivots to sweep: zero-diagonal problems need one
        // (and exercise both matchings); the classic problems keep the
        // historical Off path (Transversal is an identity no-op there,
        // proven in the test suite, so timing it twice buys nothing).
        let pre_pivots: &[PrePivot] = if p.zero_diag {
            &[PrePivot::Transversal, PrePivot::WeightedMatching]
        } else {
            &[PrePivot::Off]
        };
        if p.zero_diag {
            // The motivating hard error: without a pre-pivot the plan
            // compiles (symbolic analysis reserves the diagonal slot)
            // but the numeric phase must hit the structural zero.
            let zeros = sympiler_sparse::ops::structurally_zero_diagonals(&p.a);
            assert!(zeros > 0, "{}: zero_diag flag vs pattern", p.name);
            let off = SympilerLu::compile(&p.a, &SympilerOptions::default())
                .expect("Off compiles even on zero-diag patterns");
            assert!(
                matches!(off.factor(&p.a), Err(LuPlanError::ZeroPivot { .. })),
                "{}: static pivoting without a pre-pivot must fail",
                p.name
            );
            report.push(&format!("{}:zero_diag", p.name), zeros as f64);
        }
        // Observability self-check: one profiled pass through the
        // scalar plan and the supernodal plan; the
        // attributed flops must reproduce the compile-time count
        // exactly (ratio 1.0, gated in CI).
        let accounting = profile_problem(p, &mut trace);
        assert_eq!(
            accounting, 1.0,
            "{}: profiled flop attribution must equal plan.flops() exactly",
            p.name
        );
        report.push(&format!("{}:flop_accounting", p.name), accounting);
        // Worst pivot growth across the problem's MC64-equilibrated
        // weighted-matching runs — gated as `<name>:scaled_growth` so
        // a scaling regression (growth creeping back toward the
        // unscaled ~1e8) fails CI deterministically.
        let mut scaled_growth = 0.0f64;
        for &pre_pivot in pre_pivots {
            let mut natural_lu_nnz = 0usize;
            for &ordering in &Ordering::ALL {
                let t = std::time::Instant::now();
                // The scalar serial tier, baked as the compiler bakes
                // it: "plan serial" measures the column plan; the
                // supernodal engine gets its own column.
                // Zero-diagonal problems additionally turn on MC64
                // equilibration — the scaling that lets the pattern-only
                // transversal meet the same strict tolerance as the
                // weighted matching.
                let opts = SympilerOptions {
                    ordering,
                    pre_pivot,
                    mc64_scale: p.zero_diag,
                    ..Default::default()
                };
                let lu = LuPlan::build(&p.a, &opts)
                    .unwrap()
                    .with_position_tables(POSITION_MAX_OPS_PER_ENTRY);
                let compile_time = t.elapsed();
                assert_eq!(
                    lu.matched_diagonals(),
                    p.n(),
                    "{}: every compiled pivot must be structurally present",
                    p.name
                );
                // The matrix the factors actually describe:
                // Qᵀ·P·(Dr·A·Dc)·Q, reconstructed from the plan's own
                // baked maps and scaling vectors. `scale_rows_cols`
                // forms `(dr[i] * v) * dc[j]` in the exact expression
                // shape the plan's gather maps use, so the baseline
                // factors the bitwise-same numbers.
                let identity: Vec<usize> = (0..p.n()).collect();
                let scaled_a = match lu.mc64_scaling() {
                    Some((dr, dc)) => sympiler_sparse::ops::scale_rows_cols(&p.a, dr, dc).unwrap(),
                    None => p.a.clone(),
                };
                let composed_a = match lu.row_perm() {
                    Some(rperm) => sympiler_sparse::ops::permute_general(
                        &scaled_a,
                        rperm,
                        lu.col_perm().unwrap_or(&identity),
                    )
                    .unwrap(),
                    None => scaled_a,
                };
                // Verification first: the plan must reproduce the
                // identically pre-pivoted + ordered, statically pivoted
                // baseline factors exactly in pattern and to 1e-10
                // (relative) in values — the acceptance contract.
                let base = GpLu::factor(&composed_a, Pivoting::None).expect("baseline factors");
                assert!(
                    base.is_identity_perm(),
                    "{}: static pivoting must not row-permute",
                    p.name
                );
                let f = lu.factor(&p.a).expect("plan factors");
                assert!(f.l().same_pattern(&base.l), "{}: L pattern", p.name);
                assert!(f.u().same_pattern(&base.u), "{}: U pattern", p.name);
                // One strict tolerance for every combination. The
                // pattern-only transversal guarantees *structure*, not
                // stability — on the raw matrix it pivots on tiny
                // entries and element growth reaches ~1e12 at bench
                // scale, which used to force a growth-aware tolerance
                // carve-out here. MC64 equilibration removes the
                // problem at the source (every scaled entry ≤ 1, the
                // weighted-matched diagonal scaled to 1, growth O(1)),
                // and the two scalar engines run their update sums in
                // the identical ascending pivot order —
                // so the serial tier in fact matches the baseline
                // *bitwise*, and every pre-pivot verifies at the same
                // strict 1e-10 the dominant-diagonal problems meet.
                let (vtol, rtol) = (1e-10, 1e-10);
                for (x, y) in f
                    .l()
                    .values()
                    .iter()
                    .chain(f.u().values())
                    .zip(base.l.values().iter().chain(base.u.values()))
                {
                    assert!(
                        (x - y).abs() < vtol * (1.0 + y.abs()),
                        "{}: factor value drift ({x} vs {y})",
                        p.name
                    );
                }
                // The factorization itself gates on the growth-
                // independent backward error `|PA − LU| / (|L||U|)`
                // (Higham ch. 9): O(n·eps) for every stable engine —
                // the ‖A‖-relative residual would be inflated by
                // ‖L‖‖U‖/‖A‖ on static pivot sequences with large
                // multipliers, penalizing the engine for the pivot
                // order it was *told* to use.
                let base_err = lu_backward_error(&composed_a, &base);
                assert!(
                    base_err < rtol,
                    "{}: baseline backward error {base_err:.3e} under {}+{}",
                    p.name,
                    pre_pivot.label(),
                    ordering.label()
                );
                // End-to-end solve sanity — in original coordinates,
                // through the compiled plan AND through the
                // independently derived pre-pivoted runtime baseline.
                // Static pivoting's production contract is factor +
                // iterative refinement (SuperLU_DIST style): on the
                // zero-diagonal problems the pattern-only transversal's
                // multiplier growth makes a raw triangular solve lose
                // digits, and refinement — a few O(nnz) sweeps, no
                // refactorization — restores them. Both engines refine
                // through the identical driver, so the 1e-10 residual
                // bar stays uniform across every combination.
                let x = if p.zero_diag {
                    f.solve_refined(&p.a, &p.b, 1e-14, 5).0
                } else {
                    f.solve(&p.b)
                };
                let resid = sympiler_sparse::ops::rel_residual(&p.a, &x, &p.b);
                assert!(resid < rtol, "{}: solve residual {resid}", p.name);
                let xb = if p.zero_diag {
                    let bf =
                        GpLu::factor_prepivoted_scaled(&p.a, Pivoting::None, pre_pivot, ordering)
                            .expect("scaled pre-pivoted baseline factors");
                    sympiler_core::plan::lu::refine_with(&p.a, &p.b, 1e-14, 5, |rhs| bf.solve(rhs))
                        .0
                } else {
                    GpLu::factor_prepivoted(&p.a, Pivoting::None, pre_pivot, ordering)
                        .expect("pre-pivoted baseline factors")
                        .solve(&p.b)
                };
                let residb = sympiler_sparse::ops::rel_residual(&p.a, &xb, &p.b);
                assert!(
                    residb < rtol,
                    "{}: baseline solve residual {residb}",
                    p.name
                );
                // The supernodal (VS-Block) engine must reproduce the
                // same baseline factors — dense GETRF/TRSM/GEMM kernels
                // reassociate the update sums, so bitwise identity is
                // not expected, but the acceptance tolerance is. Built
                // the way the compiler builds it, so the timings and the
                // dense share are what a default compile would run.
                let (sup, detected_width) = auto_supernodal(&lu);
                let f_sup = sup.factor(&p.a).expect("supernodal factors");
                assert!(
                    f_sup.l().same_pattern(&base.l) && f_sup.u().same_pattern(&base.u),
                    "{}: supernodal patterns under {}+{}",
                    p.name,
                    pre_pivot.label(),
                    ordering.label()
                );
                // Dense kernels reassociate the update sums, so on
                // sensitive pivot sequences individual factor entries
                // drift by the roundoff seeds amplified by κ(L)·κ(U) —
                // far past any fixed element tolerance — even though
                // the factorization itself is perfectly stable. The
                // conditioning-independent invariant is the same
                // `|PA − LU| / (|L||U|)` backward error the baseline
                // gates on, at the same strict 1e-10.
                let sup_as_gp = sympiler_solvers::lu::GpLuFactors {
                    l: f_sup.l().clone(),
                    u: f_sup.u().clone(),
                    row_perm: identity.clone(),
                };
                let sup_err = lu_backward_error(&composed_a, &sup_as_gp);
                assert!(
                    sup_err < rtol,
                    "{}: supernodal backward error {sup_err:.3e} under {}+{}",
                    p.name,
                    pre_pivot.label(),
                    ordering.label()
                );

                // Timings, all through the shared protocol
                // (`time_lu_factorizer`). Analysis artifacts computed
                // once above — `composed_a` for the coupled baselines,
                // the compiled plan for the Sympiler engines — are
                // reused across every timed region.
                let t_coupled = time_lu_factorizer(|| {
                    GpLu::factor(&composed_a, Pivoting::None).expect("factor")
                });
                let t_partial = time_lu_factorizer(|| {
                    GpLu::factor(&composed_a, Pivoting::Partial).expect("factor")
                });
                let t_plan = time_lu_factorizer(|| lu.factor(&p.a).expect("factor"));
                let t_sup = time_lu_factorizer(|| sup.factor(&p.a).expect("factor"));
                let flops = lu.flops();
                // Numerical-health monitors of the verified factor:
                // pivot growth and the smallest pivot magnitude.
                // Equilibration collapses growth to O(1) wherever the
                // pivots come from the weighted matching — the scaled
                // matched diagonal is each column's maximum, the
                // configuration MC64 scaling is *derived* for, and the
                // quantity the unscaled runs blew up to ~1e8–1e12. A
                // pattern-only transversal is values-blind: scaling
                // bounds its entries but not its pivots, so its
                // growth is unbounded by design and its correctness
                // rests on the bitwise factor check, the backward-
                // error gate, and the refined solve above.
                let health = lu.health_of(&p.a, &f);
                if !p.zero_diag || pre_pivot == PrePivot::WeightedMatching {
                    assert!(
                        health.growth < 1e2,
                        "{}: pivot growth {:.1e} under {}+{} must stay O(1)",
                        p.name,
                        health.growth,
                        pre_pivot.label(),
                        ordering.label()
                    );
                }
                if p.zero_diag && pre_pivot == PrePivot::WeightedMatching {
                    scaled_growth = scaled_growth.max(health.growth);
                }
                let lu_nnz = f.l().nnz() + f.u().nnz();
                let speedup = t_coupled.as_secs_f64() / t_plan.as_secs_f64().max(1e-12);
                let sup_speedup = t_coupled.as_secs_f64() / t_sup.as_secs_f64().max(1e-12);
                // Gate entries. The historical names are reserved for
                // the Off sweep; pre-pivoted runs gate under
                // `:<prepivot>`-suffixed names plus the deterministic
                // matched-diagonal count.
                match (pre_pivot, ordering) {
                    (PrePivot::Off, Ordering::Natural) => {
                        natural_lu_nnz = lu_nnz;
                        speedups.push(speedup);
                        sup_speedups.push(sup_speedup);
                        report.push(p.name, speedup);
                        report.push(&format!("{}:supernodal", p.name), sup_speedup);
                    }
                    (PrePivot::Off, _) => {
                        assert!(
                            natural_lu_nnz > 0,
                            "Ordering::ALL must list Natural first so fill gains \
                             have a denominator"
                        );
                        report.push(&format!("{}:{}", p.name, ordering.label()), speedup);
                        report.push(
                            &format!("{}:{}_fill_gain", p.name, ordering.label()),
                            natural_lu_nnz as f64 / lu_nnz as f64,
                        );
                        report.push(
                            &format!("{}:{}_supernodal", p.name, ordering.label()),
                            sup_speedup,
                        );
                        report.push(
                            &format!("{}:{}_panel_width", p.name, ordering.label()),
                            detected_width,
                        );
                        report.push(
                            &format!("{}:{}_dense_share", p.name, ordering.label()),
                            sup.dense_flop_share(),
                        );
                        // Relaxed amalgamation plus the per-panel
                        // dissolve rule exist to hand the dense
                        // kernels useful work on exactly these
                        // patterns: COLAMD-ordered circuit factors
                        // must keep ≥ 90 % of their structural flops
                        // in dense panels (strict nesting, mean width
                        // ~1.3, managed well under half).
                        if ordering == Ordering::Colamd && p.name.starts_with("circuit") {
                            assert!(
                                sup.dense_flop_share() >= 0.9,
                                "{}: only {:.1}% of the COLAMD factor's flops run in \
                                 dense panels",
                                p.name,
                                sup.dense_flop_share() * 100.0
                            );
                        }
                    }
                    (_, Ordering::Natural) => {
                        zd_speedups.push(speedup);
                        report.push(&format!("{}:{}", p.name, pre_pivot.label()), speedup);
                        report.push(
                            &format!("{}:{}_matched_diag", p.name, pre_pivot.label()),
                            lu.matched_diagonals() as f64,
                        );
                    }
                    (_, _) => {
                        report.push(
                            &format!("{}:{}_{}", p.name, ordering.label(), pre_pivot.label()),
                            speedup,
                        );
                    }
                }
                table.row(vec![
                    p.id.to_string(),
                    p.name.to_string(),
                    pre_pivot.label().to_string(),
                    ordering.label().to_string(),
                    p.n().to_string(),
                    lu_nnz.to_string(),
                    format!("{:.2}x", lu.fill_ratio()),
                    format!("{:.3?}", t_coupled),
                    format!("{:.3?}", t_partial),
                    format!("{:.3?}", t_plan),
                    format!("{speedup:.2}x"),
                    format!("{:.3?}", t_sup),
                    format!("{sup_speedup:.2}x"),
                    format!("{} ({} wide)", sup.n_panels(), sup.n_wide_panels()),
                    format!("{detected_width:.2}"),
                    format!("{:.0}%", sup.dense_flop_share() * 100.0),
                    format!(
                        "{:.1}",
                        dag_levels_from_preds(lu.n(), |j| lu.schedule(j)).avg_parallelism()
                    ),
                    format!("{:.3}", gflops(flops, t_plan)),
                    format!("{:.1e}", health.growth),
                    format!("{:.1e}", health.min_pivot),
                    format!("{:.3?}", compile_time),
                ]);
            }
        }
        if p.zero_diag {
            report.push(&format!("{}:scaled_growth", p.name), scaled_growth);
        }
    }
    table.emit(Some("lu_compare.csv"));
    report.write_results().expect("write perf report");
    if write_profile {
        let path = trace.write_results().expect("write profile trace");
        println!("[profile trace saved to {}]", path.display());
        print!("{}", trace.to_table());
    }
    println!(
        "geomean decoupling speedup, natural order (coupled GPLU / serial plan): \
         {:.2}x over {} problems",
        geomean(&speedups),
        speedups.len()
    );
    println!(
        "geomean supernodal decoupling speedup, natural order (coupled GPLU / \
         supernodal plan): {:.2}x over {} problems",
        geomean(&sup_speedups),
        sup_speedups.len()
    );
    println!(
        "geomean pre-pivoted decoupling speedup on the zero-diagonal problems \
         (coupled GPLU / serial plan, natural order): {:.2}x over {} runs",
        geomean(&zd_speedups),
        zd_speedups.len()
    );
    println!(
        "all factor patterns + values verified against the identically pre-pivoted, \
         identically ordered, identically MC64-scaled baseline at a uniform strict \
         1e-10 (serial bitwise; supernodal via the growth-independent |PA-LU|/(|L||U|) \
         backward error); pivot growth < 1e2 on every weighted-matching combination; \
         zero-diagonal problems hard-fail without a pre-pivot and solve \
         the original systems with one"
    );
}
