//! Structural diagnostics for the benchmark suite: fill-in, supernode
//! widths, average column counts — the quantities the paper's
//! thresholds and regime arguments are built on. For the unsymmetric
//! LU suite, a second table reports per-ordering structure: fill ratio
//! `nnz(L+U)/nnz(A)` and the column elimination DAG's average
//! parallelism under each `Ordering` — the two numbers a fill-reducing
//! ordering exists to move. The zero-diagonal rows additionally carry
//! the numerical-health monitors of a transversal-pre-pivoted
//! factorization (pivot growth, the smallest pivot magnitude, and the
//! componentwise backward error after iterative refinement) — the
//! quantities that motivate the weighted matching and calibrate the
//! recovery ladder's refinement rung.
//!
//! A third table times the numeric phase itself: repeated
//! factorizations per unsymmetric problem recorded into the
//! observability layer's log-bucketed [`Histogram`] — the same
//! buckets the serving layer exports — reported as p50/p90/p99/p999
//! factor latency.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin suite_stats [--test]`

use std::time::{Duration, Instant};
use sympiler_bench::harness::Table;
use sympiler_core::plan::lu::LuPlan;
use sympiler_core::{LuWorkspace, PrePivot, SympilerLu, SympilerOptions};
use sympiler_graph::levels::dag_levels_from_preds;
use sympiler_graph::rcm::rcm_permute;
use sympiler_graph::{compute_ordering, lu_symbolic, Ordering};
use sympiler_obs::Histogram;
use sympiler_sparse::suite::{suite, unsym_suite, SuiteScale};

fn main() {
    let scale = if std::env::args().any(|a| a == "--test") {
        SuiteScale::Test
    } else {
        SuiteScale::Bench
    };
    let mut t = Table::new(
        "Suite structure diagnostics",
        &[
            "ID",
            "matrix",
            "n",
            "nnz(A)",
            "nnz(L)",
            "fill",
            "supernodes",
            "avg width",
            "max width",
            "avg colcount",
            "factor MFLOP",
        ],
    );
    for p in suite(scale) {
        let a = if p.preordered {
            p.matrix.clone()
        } else {
            rcm_permute(&p.matrix).0
        };
        let sym = sympiler_graph::symbolic_cholesky(&a);
        let part = sympiler_graph::supernodes_cholesky(&sym, 64);
        let max_w = (0..part.n_supernodes())
            .map(|s| part.width(s))
            .max()
            .unwrap_or(0);
        let counts = sympiler_graph::colcount::col_counts_from_symbolic(&sym);
        let avg_cc = sympiler_graph::colcount::average_col_count(&counts);
        t.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            p.n().to_string(),
            a.nnz().to_string(),
            sym.l_nnz().to_string(),
            format!("{:.1}x", sym.l_nnz() as f64 / a.nnz() as f64),
            part.n_supernodes().to_string(),
            format!("{:.2}", part.avg_width()),
            max_w.to_string(),
            format!("{avg_cc:.1}"),
            format!("{:.1}", sym.factor_flops() as f64 / 1e6),
        ]);
    }
    t.emit(Some("suite_stats.csv"));

    // --- Unsymmetric LU suite: per-ordering structure. Zero-diagonal
    // problems are analyzed after the maximum-transversal pre-pivot
    // (their honest structure: without it the symbolic analysis
    // describes a factorization the numeric phase can never run).
    let mut u = Table::new(
        "Unsymmetric suite: fill and elimination-DAG parallelism per ordering",
        &[
            "ID",
            "matrix",
            "pre-pivot",
            "n",
            "nnz(A)",
            "ordering",
            "nnz(L+U)",
            "fill",
            "DAG levels",
            "DAG par",
            "factor MFLOP",
            "growth",
            "min piv",
            "refined berr",
        ],
    );
    for p in unsym_suite(scale) {
        let (pivoted, pp_label) = if p.zero_diag {
            let rowp = sympiler_graph::transversal::maximum_transversal(&p.matrix)
                .expect("zero-diag suite problems have a perfect matching");
            (
                sympiler_sparse::ops::permute_rows(&p.matrix, &rowp).expect("valid matching"),
                "transversal",
            )
        } else {
            (p.matrix.clone(), "off")
        };
        for ordering in Ordering::ALL {
            let a = match compute_ordering(&pivoted, ordering) {
                Some(perm) => sympiler_sparse::ops::permute_rows_cols(&pivoted, &perm)
                    .expect("valid ordering"),
                None => pivoted.clone(),
            };
            let sym = lu_symbolic(&a);
            let levels = dag_levels_from_preds(sym.n, |j| sym.reach(j).iter().copied());
            let lu_nnz = sym.l_nnz() + sym.u_nnz();
            // Health of the transversal-pre-pivoted factorization on
            // the degenerate problems: how hard the pattern-only
            // matching strains static pivoting under this ordering.
            let (growth, min_piv, berr) = if p.zero_diag {
                let opts = SympilerOptions {
                    ordering,
                    pre_pivot: PrePivot::Transversal,
                    ..Default::default()
                };
                let health = LuPlan::build(&p.matrix, &opts).ok().and_then(|plan| {
                    let f = plan.factor(&p.matrix).ok()?;
                    let h = plan.health_of(&p.matrix, &f);
                    // The refinement rung's calibration: how
                    // far the pattern-only pre-pivot's berr
                    // falls once refinement absorbs the growth.
                    let b: Vec<f64> = (0..p.n()).map(|i| 1.0 + (i % 7) as f64).collect();
                    let (_, rep) = f.solve_refined(&p.matrix, &b, 1e-12, 10);
                    Some((h, rep.final_berr))
                });
                match health {
                    Some((h, berr)) => (
                        format!("{:.1e}", h.growth),
                        format!("{:.1e}", h.min_pivot),
                        format!("{berr:.1e}"),
                    ),
                    None => ("fail".to_string(), "fail".to_string(), "fail".to_string()),
                }
            } else {
                ("-".to_string(), "-".to_string(), "-".to_string())
            };
            u.row(vec![
                p.id.to_string(),
                p.name.to_string(),
                pp_label.to_string(),
                p.n().to_string(),
                p.matrix.nnz().to_string(),
                ordering.label().to_string(),
                lu_nnz.to_string(),
                format!("{:.2}x", (lu_nnz - p.n()) as f64 / p.matrix.nnz() as f64),
                levels.n_levels().to_string(),
                format!("{:.2}", levels.avg_parallelism()),
                format!("{:.1}", sym.factor_flops() as f64 / 1e6),
                growth,
                min_piv,
                berr,
            ]);
        }
    }
    u.emit(Some("suite_stats_unsym.csv"));

    // --- Numeric factor latency, histogram-sourced: the tail
    // quantiles (p999 especially) come out of the log-bucketed
    // histogram rather than a sorted sample vector, so this table and
    // the serving layer's exported metrics agree on bucket semantics
    // (quantile = upper bound of the covering bucket, ≤ 12.5% wide).
    let samples = if matches!(scale, SuiteScale::Test) {
        8usize
    } else {
        25
    };
    let mut l = Table::new(
        "Unsymmetric suite: numeric factor latency (log-bucketed histogram)",
        &["ID", "matrix", "n", "samples", "p50", "p90", "p99", "p999"],
    );
    for p in unsym_suite(scale) {
        let opts = SympilerOptions {
            pre_pivot: if p.zero_diag {
                PrePivot::Transversal
            } else {
                PrePivot::Off
            },
            ..SympilerOptions::default()
        };
        let lu = SympilerLu::compile(&p.matrix, &opts).expect("latency compile");
        let mut ws = LuWorkspace::new();
        let hist = Histogram::new();
        for _ in 0..samples {
            let t = Instant::now();
            std::hint::black_box(lu.factor_with(&p.matrix, &mut ws).expect("latency factor"));
            hist.record_duration(t.elapsed());
        }
        let q = |quant: f64| format!("{:.3?}", Duration::from_nanos(hist.quantile(quant)));
        l.row(vec![
            p.id.to_string(),
            p.name.to_string(),
            p.n().to_string(),
            samples.to_string(),
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
        ]);
    }
    l.emit(Some("suite_stats_latency.csv"));
}
