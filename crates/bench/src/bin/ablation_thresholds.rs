//! **Ablation A2**: sensitivity of the VS-Block decision to
//! the supernode-size threshold (§4.2's hand-tuned 160), swept on two
//! contrasting matrices — one supernode-rich, one supernode-poor —
//! and, for LU, the crossover behind `SympilerLu::compile`'s per-panel
//! rule: the flops-per-accumulator-entry threshold below which a wide
//! panel is dissolved into scalar columns, swept from "every panel
//! dense" to "none" (the scalar plan) on a fill-free and a
//! heavy-fill circuit and two suite problems. Then the bound behind the
//! serial tier's position tables: both scalar kernels (accumulator and
//! position-addressed walker) against multiply-adds per factor entry,
//! under each ordering of the LU suite. Last, the Cholesky amalgamation
//! budget: `relax_fill × relax_cols` swept around the default (0.3 /
//! 16) on the nested-dissection Laplacian of the solve ledger and three
//! suite matrices. First of all, though, the attainable figure those
//! sweeps are read against: isolated GFLOP/s of the dense kernels
//! (`panel_update_sub` and the three TRSMs, portable and dispatched
//! instantiation) across the shapes the plans produce, beside what the
//! same kernels deliver in situ in a profiled factor of the solve
//! ledger's `refactor_dense` pattern — the table that justifies the
//! accumulator's 4-column stride rounding and the TRSM tile.
//!
//! Usage: `cargo run -p sympiler-bench --release --bin ablation_thresholds [--test]`

use sympiler_bench::engines::{time_lu_factorizer, RUNS};
use sympiler_bench::harness::{median_time, Table};
use sympiler_bench::workloads::prepare_subset;
use sympiler_core::plan::chol::{CholPlan, MAX_SUPERNODE_WIDTH};
use sympiler_core::plan::lu::{LuPlan, LuWorkspace, POSITION_MAX_OPS_PER_ENTRY};
use sympiler_core::plan::lu_supernodal::{
    SupernodalLuPlan, DENSE_PANEL_MIN_FLOPS_PER_ENTRY, MAX_PANEL, RELAX_COLS, RELAX_FILL,
};
use sympiler_core::plan::tri::{
    TriScratch, TriSolvePlan, TriVariant, PEEL_COL_COUNT, VS_BLOCK_MIN_AVG_SIZE,
};
use sympiler_core::{Ordering, SympilerLu, SympilerOptions};
use sympiler_sparse::suite::SuiteScale;
use sympiler_sparse::{gen, CscMatrix};

/// Deterministic values in (-0.8, 0.9).
fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            ((s >> 40) as f64) / 1e7 - 0.8
        })
        .collect()
}

/// Median seconds per call of `f` over nine batches sized to ~`flops`
/// per call and ~40 Mflop per batch.
fn secs_per_call(flops: usize, mut f: impl FnMut()) -> f64 {
    let reps = (40_000_000 / flops.max(1)).clamp(4, 100_000);
    let batch = median_time(9, || {
        for _ in 0..reps {
            f();
        }
    });
    batch.as_secs_f64() / reps as f64
}

type UpdateKernel = fn(usize, usize, &[u32], &[f64], usize, &[f64], &mut [f64], usize);
type TrsmKernel = fn(usize, usize, &[f64], usize, &mut [f64], usize);

/// `panel_update_sub` alone at `m` scattered rows: GFLOP/s.
fn update_gflops(kernel: UpdateKernel, m: usize, w: usize, v: usize) -> f64 {
    let rows: Vec<u32> = (0..m as u32).map(|i| 2 * i).collect();
    let l = fill(m * v, 1);
    let bt = fill(v * w, 2);
    let mut x = fill(2 * m * w, 3);
    let flops = 2 * m * w * v;
    let secs = secs_per_call(flops, || {
        kernel(w, v, &rows, &l, m, &bt, &mut x, w);
        std::hint::black_box(&x);
    });
    flops as f64 / secs / 1e9
}

/// One TRSM alone on an `m × n` block: GFLOP/s, the refill of `B` that
/// keeps repeated solves bounded timed separately and subtracted.
fn trsm_gflops(kernel: TrsmKernel, unit: bool, m: usize, n: usize) -> f64 {
    // Small off-diagonals, diagonal 2.5: well conditioned either way
    // the kernel reads the square.
    let mut t: Vec<f64> = fill(n * n, 4).iter().map(|v| 0.05 * v).collect();
    for j in 0..n {
        t[j * n + j] = 2.5;
    }
    let b0 = fill(m * n, 5);
    let mut b = b0.clone();
    let flops = m * n * (n - 1) + if unit { 0 } else { m * n };
    let solve = secs_per_call(flops, || {
        b.copy_from_slice(&b0);
        kernel(m, n, &t, n, &mut b, m);
        std::hint::black_box(&b);
    });
    let refill = secs_per_call(flops, || {
        b.copy_from_slice(&b0);
        std::hint::black_box(&b);
    });
    flops as f64 / (solve - refill).max(1e-12) / 1e9
}

/// The dense-kernel table: isolated rows per shape and instantiation,
/// then what the kernel spans of a profiled supernodal factor of
/// `pattern` achieve on the shapes the plan really produces.
fn dense_kernel_table(pattern: &CscMatrix) -> Table {
    use sympiler_dense::{panel_update, trsm};
    let dispatched = format!("{:?} (dispatched)", sympiler_dense::isa::detect());
    let mut t = Table::new(
        "Ablation: dense kernels alone vs in situ (GFLOP/s)",
        &["kernel", "shape", "Portable", &dispatched, "in situ"],
    );
    let cell = |g: f64| format!("{g:.1}");
    for w in [13usize, 15, 16, 28, 32] {
        for v in [1usize, 8, 16, 32] {
            t.row(vec![
                "panel_update_sub".to_string(),
                format!("m=400 w={w} v={v}"),
                cell(update_gflops(panel_update::update_portable, 400, w, v)),
                cell(update_gflops(sympiler_dense::panel_update_sub, 400, w, v)),
                "-".to_string(),
            ]);
        }
    }
    let trsms: [(&str, bool, TrsmKernel, TrsmKernel); 3] = [
        (
            "trsm_right_lower_trans",
            false,
            trsm::trsm_portable::<false, false>,
            sympiler_dense::trsm_right_lower_trans,
        ),
        (
            "trsm_right_lower_trans_unit",
            true,
            trsm::trsm_portable::<false, true>,
            sympiler_dense::trsm_right_lower_trans_unit,
        ),
        (
            "trsm_right_upper",
            false,
            trsm::trsm_portable::<true, false>,
            sympiler_dense::trsm_right_upper,
        ),
    ];
    for (name, unit, portable, entry) in trsms {
        for m in [32usize, 400] {
            for n in [8usize, 16, 32, 64] {
                t.row(vec![
                    name.to_string(),
                    format!("m={m} n={n}"),
                    cell(trsm_gflops(portable, unit, m, n)),
                    cell(trsm_gflops(entry, unit, m, n)),
                    "-".to_string(),
                ]);
            }
        }
    }

    // In situ: the `gemm` / `trsm` spans of profiled factors carry the
    // executed shapes and flops.
    let opts = SympilerOptions {
        ordering: Ordering::Colamd,
        profile: true,
        ..SympilerOptions::default()
    };
    let lu = SympilerLu::compile(pattern, &opts).expect("pattern compiles");
    let mut ws = LuWorkspace::new();
    lu.factor_with(pattern, &mut ws).expect("factor");
    lu.profiler().reset();
    const FACTORS: usize = 5;
    for _ in 0..FACTORS {
        std::hint::black_box(lu.factor_with(pattern, &mut ws).expect("factor"));
    }
    let profile = lu.profiler().snapshot("in situ");
    let arg = |s: &sympiler_obs::SpanRec, key: &str| {
        s.args
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |&(_, v)| v)
    };
    let mut in_situ = |kernel: &str, span: &str, what: &str, keep: &dyn Fn(f64) -> bool| {
        let (mut calls, mut flops, mut ns) = (0usize, 0.0f64, 0u64);
        for s in profile.spans_named(span).filter(|s| keep(arg(s, "k"))) {
            calls += 1;
            flops += arg(s, "flops");
            ns += s.dur_ns;
        }
        t.row(vec![
            kernel.to_string(),
            format!(
                "{what}; {} calls and {:.2} Mflop per factor",
                calls / FACTORS,
                flops / FACTORS as f64 / 1e6
            ),
            "-".to_string(),
            "-".to_string(),
            cell(flops / ns.max(1) as f64),
        ]);
    };
    in_situ("panel_update_sub", "gemm", "v = 1 sources", &|k| k == 1.0);
    in_situ("panel_update_sub", "gemm", "v >= 2 sources", &|k| k >= 2.0);
    in_situ("trsm (unit + upper)", "trsm", "all", &|_| true);
    t
}

/// Sweep the dense-panel threshold on one COLAMD-ordered pattern: per
/// threshold the surviving dense panels, the structural flop share
/// they carry, what the dense path executes for it, and the median
/// factor time through a reused workspace.
fn lu_threshold_sweep(t: &mut Table, name: &str, a: &CscMatrix) {
    let o = SympilerOptions {
        ordering: Ordering::Colamd,
        ..Default::default()
    };
    let plan = LuPlan::build(a, &o).expect("suite patterns compile");
    let detected = SupernodalLuPlan::detect_panels(&plan, MAX_PANEL, RELAX_FILL, RELAX_COLS);
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
            "0 (every panel dense)".to_string()
        } else if threshold.is_infinite() {
            "inf (no dense panel)".to_string()
        } else if threshold == DENSE_PANEL_MIN_FLOPS_PER_ENTRY {
            format!("{threshold} (compile's rule)")
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
    let o = SympilerOptions {
        ordering,
        ..Default::default()
    };
    let plan = LuPlan::build(a, &o).expect("suite patterns compile");
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
    let mut settings = vec![(0.0, RELAX_COLS)];
    for fill in [0.1, 0.3, 0.5, 1.0] {
        settings.extend([8, 16, 32, 64].map(|cols| (fill, cols)));
    }
    for (relax_fill, relax_cols) in settings {
        let chol = CholPlan::build(a, MAX_SUPERNODE_WIDTH, relax_fill, relax_cols, true)
            .expect("suite patterns compile");
        let time = median_time(4 * RUNS + 1, || {
            std::hint::black_box(chol.factor(a).expect("factor"));
        });
        let part = chol.partition();
        let l_nnz = chol.report().size_of("nnz(L)").expect("reported");
        let label = if relax_fill == 0.0 {
            "0 (strict)".to_string()
        } else if (relax_fill, relax_cols) == (RELAX_FILL, RELAX_COLS) {
            format!("{relax_fill} / {relax_cols} (default)")
        } else {
            format!("{relax_fill} / {relax_cols}")
        };
        t.row(vec![
            name.to_string(),
            label,
            part.n_supernodes().to_string(),
            format!("{:.2}", part.avg_width()),
            format!("{:.1}%", chol.padded_zeros() as f64 / l_nnz as f64 * 100.0),
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
    let (n_sparse, n_dense) = match scale {
        SuiteScale::Test => (2000, 300),
        SuiteScale::Bench => (20000, 1200),
    };
    // The solve ledger's `refactor_dense` pattern at bench scale.
    dense_kernel_table(&gen::circuit_unsym(n_dense, 4, 2, 1))
        .emit(Some("ablation_dense_kernels.csv"));

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
        let part = sympiler_graph::supernode::supernodes_trisolve(&p.l, MAX_SUPERNODE_WIDTH);
        let avg = part.avg_participating_size(&col_counts);

        let time_of = |variant: TriVariant| {
            let plan = TriSolvePlan::build(
                &p.l,
                p.b.indices(),
                variant,
                MAX_SUPERNODE_WIDTH,
                PEEL_COL_COUNT,
            );
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
        let picks = if avg >= VS_BLOCK_MIN_AVG_SIZE {
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
            "scalar plan",
        ],
    );
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
