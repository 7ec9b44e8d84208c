//! **Ablation A2** (DESIGN.md): sensitivity of the VS-Block decision to
//! the supernode-size threshold (§4.2's hand-tuned 160), swept on two
//! contrasting matrices — one supernode-rich, one supernode-poor —
//! and, for LU, the crossover behind `BlockLu::Auto`'s per-panel rule:
//! the flops-per-accumulator-entry threshold below which a wide panel is
//! dissolved into scalar columns, swept from "every panel dense"
//! (`BlockLu::On`) to "none" (`BlockLu::Off`) on a fill-free and a
//! heavy-fill circuit and two suite problems. Then the bound behind the
//! serial tier's position tables: both scalar kernels (accumulator and
//! position-addressed walker) against multiply-adds per factor entry,
//! under each ordering of the LU suite. Last, the Cholesky amalgamation
//! budget: `relax_fill × relax_cols` swept around the default (0.3 /
//! 16) on the nested-dissection Laplacian of the solve ledger and three
//! suite matrices.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin ablation_thresholds [--test]`

use sympiler_bench::engines::{time_lu_factorizer, RUNS};
use sympiler_bench::harness::{median_time, Table};
use sympiler_bench::workloads::prepare_subset;
use sympiler_core::plan::lu::{LuPlan, LuWorkspace, POSITION_MAX_OPS_PER_ENTRY};
use sympiler_core::plan::lu_supernodal::{SupernodalLuPlan, DENSE_PANEL_MIN_FLOPS_PER_ENTRY};
use sympiler_core::plan::tri::{TriScratch, TriSolvePlan, TriVariant};
use sympiler_core::{Ordering, SympilerCholesky, SympilerOptions};
use sympiler_sparse::suite::SuiteScale;
use sympiler_sparse::{gen, CscMatrix};

/// Sweep the dense-panel threshold on one COLAMD-ordered pattern: per
/// threshold the surviving dense panels, the structural flop share
/// they carry, what the dense path executes for it, and the median
/// factor time through a reused workspace.
fn lu_threshold_sweep(t: &mut Table, name: &str, a: &CscMatrix) {
    let o = SympilerOptions::default();
    let plan = LuPlan::build_ordered(a, o.low_level, o.peel_col_count, Ordering::Colamd)
        .expect("suite patterns compile");
    let detected = SupernodalLuPlan::detect_panels(&plan, o.max_panel, o.relax_fill, o.relax_cols);
    let mut ws = LuWorkspace::new();
    let t_scalar = time_lu_factorizer(|| plan.factor(a).expect("factor"));
    for threshold in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, f64::INFINITY] {
        let panels = SupernodalLuPlan::dissolve_thin_panels(&plan, &detected, threshold);
        let sup = SupernodalLuPlan::from_panels(plan.clone(), panels, 1);
        // The box is noisy and the plateau is flat: more runs than the
        // paper's five keep the crossover readable.
        let time = median_time(4 * RUNS + 1, || {
            std::hint::black_box(sup.factor_with(a, &mut ws).expect("factor"));
        });
        let structural = sup.dense_structural_flops();
        let label = if threshold == 0.0 {
            "0 (BlockLu::On)".to_string()
        } else if threshold.is_infinite() {
            "inf (no dense panel)".to_string()
        } else if threshold == DENSE_PANEL_MIN_FLOPS_PER_ENTRY {
            format!("{threshold} (BlockLu::Auto)")
        } else {
            threshold.to_string()
        };
        t.row(vec![
            name.to_string(),
            label,
            format!("{} of {}", sup.n_wide_panels(), sup.n_panels()),
            format!("{:.1}%", sup.dense_flop_share() * 100.0),
            if structural == 0 {
                "-".to_string()
            } else {
                format!(
                    "{:.2}x",
                    sup.dense_executed_flops() as f64 / structural as f64
                )
            },
            format!("{:.3} ms", time.as_secs_f64() * 1e3),
            format!("{:.3} ms", t_scalar.as_secs_f64() * 1e3),
        ]);
    }
}

/// One row of the position-table sweep: the pattern's multiply-adds per
/// factor entry (what [`POSITION_MAX_OPS_PER_ENTRY`] bounds), the bytes
/// the tables add, and the median factor time of the two scalar
/// kernels on the same plan through a reused workspace.
fn position_table_row(t: &mut Table, name: &str, a: &CscMatrix, ordering: Ordering) {
    let o = SympilerOptions::default();
    let plan = LuPlan::build_ordered(a, o.low_level, o.peel_col_count, ordering)
        .expect("suite patterns compile");
    let entries = plan.l_nnz() + plan.u_nnz();
    let ops = plan.n_multiply_adds();
    let ratio = ops as f64 / entries as f64;
    let mut ws = LuWorkspace::new();
    let time = |plan: &LuPlan, ws: &mut LuWorkspace| {
        median_time(4 * RUNS + 1, || {
            std::hint::black_box(plan.factor_with(a, ws).expect("factor"));
        })
    };
    let t_acc = time(&plan, &mut ws);
    // 12 bytes per multiply-add: cap what the sweep itself allocates.
    let walker = (ops < 1 << 22).then(|| plan.clone().with_position_tables(f64::MAX));
    let (bytes, t_pos) = match &walker {
        Some(w) => {
            let added = (w.table_bytes() - plan.table_bytes()) as f64 / entries as f64;
            let t_pos = time(w, &mut ws).as_secs_f64();
            (
                format!("{added:.1}"),
                format!(
                    "{:.3} ms ({:.2}x)",
                    t_pos * 1e3,
                    t_acc.as_secs_f64() / t_pos
                ),
            )
        }
        None => ("-".to_string(), "-".to_string()),
    };
    t.row(vec![
        name.to_string(),
        format!("{ordering:?}"),
        format!("{ratio:.2}"),
        (if ratio <= POSITION_MAX_OPS_PER_ENTRY {
            "walker"
        } else {
            "accumulator"
        })
        .to_string(),
        format!("{:.1}", plan.table_bytes() as f64 / entries as f64),
        bytes,
        format!("{:.3} ms", t_acc.as_secs_f64() * 1e3),
        t_pos,
    ]);
}

/// Sweep the Cholesky amalgamation budget on one SPD pattern: per
/// setting the supernode count, mean width, padded share of `nnz(L)`,
/// and the median numeric factor time.
fn chol_relax_sweep(t: &mut Table, name: &str, a: &CscMatrix) {
    let default = SympilerOptions::default();
    let mut settings = vec![(0.0, default.relax_cols)];
    for fill in [0.1, 0.3, 0.5, 1.0] {
        settings.extend([8, 16, 32, 64].map(|cols| (fill, cols)));
    }
    for (relax_fill, relax_cols) in settings {
        let opts = SympilerOptions {
            relax_fill,
            relax_cols,
            ..default.clone()
        };
        let chol = SympilerCholesky::compile(a, &opts).expect("suite patterns compile");
        let time = median_time(4 * RUNS + 1, || {
            std::hint::black_box(chol.factor(a).expect("factor"));
        });
        let part = chol.plan().partition();
        let l_nnz = chol.report().size_of("nnz(L)").expect("reported");
        let label = if relax_fill == 0.0 {
            "0 (strict)".to_string()
        } else if (relax_fill, relax_cols) == (default.relax_fill, default.relax_cols) {
            format!("{relax_fill} / {relax_cols} (default)")
        } else {
            format!("{relax_fill} / {relax_cols}")
        };
        t.row(vec![
            name.to_string(),
            label,
            part.n_supernodes().to_string(),
            format!("{:.2}", part.avg_width()),
            format!(
                "{:.1}%",
                chol.plan().padded_zeros() as f64 / l_nnz as f64 * 100.0
            ),
            format!("{:.3} ms", time.as_secs_f64() * 1e3),
        ]);
    }
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--test") {
        SuiteScale::Test
    } else {
        SuiteScale::Bench
    };
    eprintln!("preparing problems 1, 3, 6 (supernode-rich and -poor regimes)...");
    let problems = prepare_subset(scale, &[1, 3, 6]);
    let mut t = Table::new(
        "Ablation: forcing VS-Block on/off vs the threshold decision",
        &[
            "matrix",
            "avg participating supernode size",
            "VI-Prune only",
            "forced VS-Block",
            "threshold(160) picks",
        ],
    );
    for p in &problems {
        let col_counts: Vec<usize> = (0..p.l.n_cols()).map(|j| p.l.col_nnz(j)).collect();
        let part = sympiler_graph::supernode::supernodes_trisolve(&p.l, 64);
        let avg = part.avg_participating_size(&col_counts);

        let time_of = |variant: TriVariant| {
            let plan = TriSolvePlan::build(&p.l, p.b.indices(), variant, 64, 2);
            let mut x = vec![0.0; p.n()];
            let mut s = TriScratch::default();
            median_time(RUNS, || {
                plan.solve(&p.b, &mut x, &mut s);
                std::hint::black_box(&x);
                plan.reset(&mut x);
            })
        };
        let t_prune = time_of(TriVariant {
            vs_block: false,
            vi_prune: true,
            low_level: true,
        });
        let t_block = time_of(TriVariant::full());
        let picks = if avg >= 160.0 {
            "VS-Block"
        } else {
            "VI-Prune only"
        };
        t.row(vec![
            p.name.to_string(),
            format!("{avg:.0}"),
            format!("{:.1} us", t_prune.as_secs_f64() * 1e6),
            format!("{:.1} us", t_block.as_secs_f64() * 1e6),
            picks.to_string(),
        ]);
    }
    t.emit(Some("ablation_thresholds.csv"));

    let mut lu = Table::new(
        "Ablation: LU dense-panel threshold (structural flops per accumulator entry moved), COLAMD",
        &[
            "matrix",
            "threshold",
            "dense panels",
            "dense flop share",
            "executed / structural",
            "supernodal factor",
            "scalar plan (BlockLu::Off)",
        ],
    );
    let (n_sparse, n_dense) = match scale {
        SuiteScale::Test => (2000, 300),
        SuiteScale::Bench => (20000, 1200),
    };
    lu_threshold_sweep(
        &mut lu,
        "circuit fill-free",
        &gen::circuit_unsym(n_sparse, 1, 0, 71),
    );
    lu_threshold_sweep(
        &mut lu,
        "circuit heavy-fill",
        &gen::circuit_unsym(n_dense, 4, 2, 72),
    );
    for p in sympiler_bench::workloads::prepare_lu_subset(scale, &[1, 4]) {
        lu_threshold_sweep(&mut lu, p.name, &p.a);
    }
    lu.emit(Some("ablation_lu_thresholds.csv"));

    let mut pos = Table::new(
        "Ablation: serial scalar kernels vs multiply-adds per factor entry (position-table bound)",
        &[
            "matrix",
            "ordering",
            "ops / entry",
            "compile picks",
            "plan B/entry",
            "tables B/entry",
            "accumulator",
            "walker (speedup)",
        ],
    );
    // Fill-free to lightly filled circuits and banded grids of growing
    // bandwidth bridge the gap between the ledger's scalar patterns
    // (0.4) and the suite's heavy-fill ones (5 and up).
    for (n, r) in [
        (n_sparse, 0),
        (n_sparse / 10, 1),
        (n_sparse / 10, 2),
        (n_sparse, 1),
    ] {
        position_table_row(
            &mut pos,
            &format!("circuit n={n} rails={r}"),
            &gen::circuit_unsym(n, 1, r, 71),
            Ordering::Colamd,
        );
    }
    for band in [2usize, 3, 4, 5, 6, 8, 12] {
        position_table_row(
            &mut pos,
            &format!("convdiff band {band}"),
            &gen::convection_diffusion_2d(band, n_sparse / band, 1.0, 7),
            Ordering::Natural,
        );
    }
    for p in sympiler_bench::workloads::prepare_lu_subset(scale, &[1, 2, 3, 4, 5]) {
        position_table_row(&mut pos, p.name, &p.a, Ordering::Colamd);
    }
    pos.emit(Some("ablation_position_tables.csv"));

    let mut chol = Table::new(
        "Ablation: Cholesky relaxed amalgamation (relax_fill / relax_cols), numeric factor",
        &[
            "matrix",
            "relax_fill / relax_cols",
            "supernodes",
            "mean width",
            "padded / nnz(L)",
            "factor",
        ],
    );
    let nx = match scale {
        SuiteScale::Test => 8,
        SuiteScale::Bench => 16,
    };
    chol_relax_sweep(
        &mut chol,
        "nd_laplacian3d",
        &sympiler_sparse::suite::nd_grid3d(nx, nx, nx, 1),
    );
    for p in &problems {
        chol_relax_sweep(&mut chol, p.name, &p.a);
    }
    chol.emit(Some("ablation_chol_relax.csv"));
}
