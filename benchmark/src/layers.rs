//! Per-layer probes, timed from outside: each layer's public functions
//! are called on the workload's input and the call is timed here.
//! Where a layer only runs inside one call of the layer above (the
//! `graph` stages inside `compile`, the `dense` kernels inside
//! `factor`), the stage is replayed through the lower crate's public
//! API on the same input.
//!
//! Three probe sets run on every workload, so every layer metric
//! exists on every workload: the LU pipeline on the workload's own
//! matrix, the Cholesky/triangular-solve pipeline on the SPD reference
//! input, and the serving layer on the `serve_churn` inputs.

use crate::adapter::{
    compute_ordering, compute_pre_pivot, etree, gemm_nt_sub, getrf_nopiv, lu_column_levels,
    lu_symbolic, panel_flops, permute_general, potrf_lower, rhs_from_column_pattern,
    structural_hash, supernodes_cholesky, supernodes_lu_relaxed, symbolic_cholesky_with_etree,
    trsm_right_lower_trans, trsm_right_upper, CscMatrix, FactorService, GpLu, LuSymbolic,
    LuWorkspace, Pivoting, PlanCache, SimplicialCholesky, SupernodalCholesky, SympilerCholesky,
    SympilerLu, SympilerOptions, SympilerTriSolve, CHOL_MAX_WIDTH, PANEL_PARAMS,
};
use crate::stats::{median, Rng};
use crate::verify::Case;
use crate::workloads::{serve_request, ChurnPlan, Slot, SERVE_CACHE};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Timing samples behind the value; 0 for counts and derived values.
    pub samples: usize,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Ledger(pub Vec<Metric>);

impl Ledger {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        debug_assert!(
            self.0.iter().all(|m| m.name != name),
            "{name} recorded twice"
        );
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Median of timing samples.
    fn push_median(&mut self, name: &'static str, samples: &[f64], unit: &'static str) -> f64 {
        let m = median(samples);
        self.push(name, m, unit, samples.len());
        m
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn need(&self, name: &str) -> f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("{name} is measured before it is used"))
    }
}

/// How long a probe samples. Counts never depend on it.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Time budget of one timing probe, in seconds.
    pub probe_s: f64,
    /// Repetitions of each compile-stage replay.
    pub stage_reps: usize,
    /// Requests of the serving replay.
    pub serve_requests: usize,
    /// Fewest calls a timing probe makes.
    pub min_calls: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        probe_s: 0.25,
        stage_reps: 5,
        serve_requests: 320,
        min_calls: 3,
    };
    pub const QUICK: Effort = Effort {
        probe_s: 0.02,
        stage_reps: 1,
        serve_requests: 40,
        min_calls: 1,
    };
}

/// Call `f` `reps` times; per-call times in `unit_per_s` units (1e3 for
/// ms, 1e6 for µs) and the last result.
fn time_reps<T>(reps: usize, unit_per_s: f64, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = black_box(f());
        times.push(t.elapsed().as_secs_f64() * unit_per_s);
        last = Some(out);
    }
    (times, last.expect("at least one repetition"))
}

/// Call `f` once and append its time in ms to `sink`.
fn timed_ms<T>(sink: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    sink.push(t.elapsed().as_secs_f64() * MS);
    out
}

/// Call `f` until `effort.probe_s` is used up: at least
/// `effort.min_calls` calls, at most 400. An `Err` ends the probe with
/// that error, so a fast failure is never timed as a sample.
fn time_ok<T, E: std::fmt::Debug>(
    what: &str,
    effort: Effort,
    unit_per_s: f64,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < effort.min_calls
        || (times.len() < 400 && started.elapsed().as_secs_f64() < effort.probe_s)
    {
        let t = Instant::now();
        // The value is dropped inside the span, as a request drops it.
        let failure = black_box(f()).err();
        times.push(t.elapsed().as_secs_f64() * unit_per_s);
        if let Some(e) = failure {
            return Err(format!("{what}: {e:?}"));
        }
    }
    Ok(times)
}

/// `time_ok` for a call that cannot fail.
fn time_for<T>(effort: Effort, unit_per_s: f64, mut f: impl FnMut() -> T) -> Vec<f64> {
    let never_fails = || Ok::<T, std::convert::Infallible>(f());
    time_ok("", effort, unit_per_s, never_fails).expect("an infallible call")
}

/// What `ratio.break_even_solves` reads when the compile is never paid
/// back: a finite value worse than any real count.
pub const NEVER: f64 = 1e9;

/// Factorizations after which `compile_ms` is paid back by the
/// compiled factor being faster than the coupled one; `NEVER` when it
/// is not faster.
pub fn break_even_solves(compile_ms: f64, coupled_ms: f64, plan_ms: f64) -> f64 {
    let saved = coupled_ms - plan_ms;
    if saved > 0.0 {
        (compile_ms / saved).min(NEVER)
    } else {
        NEVER
    }
}

const MS: f64 = 1e3;
const US: f64 = 1e6;

/// One panel (LU) or supernode (Cholesky) of a plan: `w` columns over
/// `m` rows, carrying `flops` of the factorization's exact count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    pub w: usize,
    pub m: usize,
    pub flops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKernel {
    Getrf,
    Potrf,
}

/// Flops of the unpivoted LU of a dense `w × w` block.
pub fn getrf_flops(w: usize) -> u64 {
    (0..w as u64).map(|c| c * (1 + 2 * c)).sum()
}

/// Flops of the Cholesky of a dense `w × w` block, in the `Σ cc²`
/// accounting of `SymbolicFactor::factor_flops`.
pub fn potrf_flops(w: usize) -> u64 {
    let w = w as u64;
    w * (w + 1) * (2 * w + 1) / 6
}

/// Flops of the triangular solve that turns `r` sub-diagonal rows of a
/// `w`-wide panel into factor entries.
pub fn trsm_flops(r: usize, w: usize) -> u64 {
    (r * w * w) as u64
}

/// How a panel's flops split over the three kernels, and how many GEMM
/// calls at the panel's own shape carry the remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PanelSplit {
    pub diag: u64,
    pub trsm: u64,
    /// Flops left for GEMM (`flops − diag − trsm`, not below 0).
    pub gemm_exact: u64,
    /// Rows of the GEMM: the sub-diagonal rows, or the panel width for
    /// a panel that has none.
    pub gemm_rows: usize,
    pub gemm_calls: u64,
}

pub fn split_panel(s: Shape, diag: DiagKernel) -> PanelSplit {
    let r = s.m.saturating_sub(s.w);
    let diag = match diag {
        DiagKernel::Getrf => getrf_flops(s.w),
        DiagKernel::Potrf => potrf_flops(s.w),
    };
    let trsm = trsm_flops(r, s.w);
    let gemm_exact = s.flops.saturating_sub(diag + trsm);
    let gemm_rows = if r > 0 { r } else { s.w };
    let per_call = (2 * gemm_rows * s.w * s.w) as u64;
    // Round to the nearest whole call; `DenseReplay::ms` rescales the
    // GEMM pass to the exact count.
    let gemm_calls = (gemm_exact + per_call / 2) / per_call.max(1);
    PanelSplit {
        diag,
        trsm,
        gemm_exact,
        gemm_rows,
        gemm_calls,
    }
}

/// Times of the three kernel passes over a plan's panel shapes.
#[derive(Debug, Clone, Copy)]
pub struct DenseReplay {
    pub diag_s: f64,
    pub diag_flops: u64,
    pub trsm_s: f64,
    pub trsm_flops: u64,
    pub gemm_s: f64,
    pub gemm_flops_run: u64,
    pub gemm_flops_exact: u64,
    pub reps: usize,
}

impl DenseReplay {
    /// The time the kernels need for the plan's exact flops.
    pub fn ms(&self) -> f64 {
        let gemm_scale = if self.gemm_flops_run == 0 {
            0.0
        } else {
            self.gemm_flops_exact as f64 / self.gemm_flops_run as f64
        };
        (self.diag_s + self.trsm_s + self.gemm_s * gemm_scale) * 1e3
    }
}

fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        flops as f64 / seconds / 1e9
    } else {
        0.0
    }
}

/// Run the dense kernels over `shapes` in plan order: per panel one
/// diagonal factorization at `w × w`, one TRSM at `(m − w) × w`, then
/// GEMM at `(m − w) × w × w` until the panel's flop count is reached.
/// Each kernel makes its own pass so three clock reads time the lot.
///
/// Operands are near-identity blocks with small nonzero off-diagonals:
/// no kernel branches on values other than exact zero, and re-factoring
/// a buffer in place then neither overflows nor decays to denormals.
pub fn dense_replay(shapes: &[Shape], diag: DiagKernel, reps: usize) -> DenseReplay {
    let max_w = shapes.iter().map(|s| s.w).max().unwrap_or(1).max(1);
    let max_rows = shapes
        .iter()
        .map(|s| s.m.saturating_sub(s.w).max(s.w))
        .max()
        .unwrap_or(1)
        .max(1);
    let mut rng = Rng::new(0x5eed);
    let mut tri: Vec<f64> = (0..max_w * max_w)
        .map(|k| {
            let eps = 1e-3 * (0.5 + rng.unit());
            if k / max_w == k % max_w {
                1.0 + eps
            } else {
                eps
            }
        })
        .collect();
    // Symmetric off-diagonals so the block is SPD for POTRF.
    for c in 0..max_w {
        for r in 0..c {
            tri[c * max_w + r] = tri[r * max_w + c];
        }
    }
    let mut sub: Vec<f64> = (0..max_rows * max_w)
        .map(|_| 1e-3 * (0.5 + rng.unit()))
        .collect();
    let mut acc = vec![0.0; max_rows * max_w];
    let splits: Vec<(Shape, PanelSplit)> =
        shapes.iter().map(|&s| (s, split_panel(s, diag))).collect();

    let (mut diag_s, mut trsm_s, mut gemm_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for (s, _) in &splits {
            // A failed pivot cannot happen on these operands; the
            // result is ignored like the value of any timed call.
            let _ = match diag {
                DiagKernel::Getrf => getrf_nopiv(s.w, &mut tri, max_w),
                DiagKernel::Potrf => potrf_lower(s.w, &mut tri, max_w),
            };
        }
        diag_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (s, _) in &splits {
            let r = s.m.saturating_sub(s.w);
            if r > 0 {
                match diag {
                    DiagKernel::Getrf => trsm_right_upper(r, s.w, &tri, max_w, &mut sub, r),
                    DiagKernel::Potrf => trsm_right_lower_trans(r, s.w, &tri, max_w, &mut sub, r),
                }
            }
        }
        trsm_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (s, split) in &splits {
            let rows = split.gemm_rows;
            for _ in 0..split.gemm_calls {
                gemm_nt_sub(rows, s.w, s.w, &sub, rows, &tri, max_w, &mut acc, rows);
            }
        }
        gemm_s.push(t.elapsed().as_secs_f64());
        black_box((&tri, &sub, &acc));
    }
    DenseReplay {
        diag_s: median(&diag_s),
        diag_flops: splits.iter().map(|(_, p)| p.diag).sum(),
        trsm_s: median(&trsm_s),
        trsm_flops: splits.iter().map(|(_, p)| p.trsm).sum(),
        gemm_s: median(&gemm_s),
        gemm_flops_run: splits
            .iter()
            .map(|(s, p)| p.gemm_calls * (2 * p.gemm_rows * s.w * s.w) as u64)
            .sum(),
        gemm_flops_exact: splits.iter().map(|(_, p)| p.gemm_exact).sum(),
        reps: reps.max(1),
    }
}

/// `Σ` per-column flops over the flops on the longest dependence chain
/// of the column elimination DAG: the speed-up no schedule can beat.
pub fn work_over_span(sym: &LuSymbolic) -> f64 {
    let flops = sym.per_column_flops();
    let mut chain = vec![0u64; sym.n];
    for j in 0..sym.n {
        let longest_pred = sym.reach(j).iter().map(|&k| chain[k]).max().unwrap_or(0);
        chain[j] = flops[j] + longest_pred;
    }
    let span = chain.iter().copied().max().unwrap_or(0);
    if span == 0 {
        1.0
    } else {
        flops.iter().sum::<u64>() as f64 / span as f64
    }
}

/// The metrics whose values are counts: they must repeat exactly from
/// one process to the next (`--check-counts`).
pub const COUNT_METRICS: [&str; 11] = [
    "graph.fill_ratio",
    "graph.panel_mean_width",
    "graph.padded_zeros",
    "graph.dag_levels",
    "graph.dag_work_over_span",
    "compile.flops",
    "compile.table_bytes_per_nnz",
    "compile.tier",
    "plan.table_bytes_per_flop",
    "serve.hit_rate",
    "serve.evictions",
];

/// `sparse`, `graph`, `compile`, `plan`, `dense`, `obs` and `solvers`
/// on the LU pipeline. With `counts_only`, only what the count metrics
/// need is run.
pub fn lu_layers(
    a: &CscMatrix,
    opts: &SympilerOptions,
    effort: Effort,
    counts_only: bool,
    out: &mut Ledger,
) -> Result<(), String> {
    let n = a.n_cols();
    let reps = if counts_only {
        1
    } else {
        effort.stage_reps.max(1)
    };
    let identity: Vec<usize> = (0..n).collect();

    // --- graph + sparse: the stages of `SympilerLu::compile`, replayed,
    // then the compile itself. One round runs every stage once, so a
    // stage and the compile it is subtracted from see the same machine
    // state; the medians are taken across rounds.
    let (max_panel, relax_fill, relax_cols) = PANEL_PARAMS;
    let mut ms: [Vec<f64>; 7] = Default::default();
    let [prepivot_ms, ordering_ms, permute_ms, symbolic_ms, supernode_ms, levels_ms, compile_ms] =
        &mut ms;
    let mut round = None;
    for _ in 0..reps {
        let row_match = timed_ms(prepivot_ms, || compute_pre_pivot(a, opts.pre_pivot))
            .map_err(|e| format!("pre-pivot: {e}"))?;
        let pivoted = match &row_match {
            Some(p) => permute_general(a, p, &identity).map_err(|e| e.to_string())?,
            None => a.clone(),
        };
        let cperm = timed_ms(ordering_ms, || compute_ordering(&pivoted, opts.ordering))
            .unwrap_or_else(|| identity.clone());
        let rperm: Vec<usize> = match &row_match {
            Some(p) => cperm.iter().map(|&j| p[j]).collect(),
            None => cperm.clone(),
        };
        let permuted = timed_ms(permute_ms, || permute_general(a, &rperm, &cperm))
            .map_err(|e| e.to_string())?;
        let sym = timed_ms(symbolic_ms, || lu_symbolic(&permuted));
        let panels = timed_ms(supernode_ms, || {
            supernodes_lu_relaxed(&sym, max_panel, relax_fill, relax_cols)
        });
        let levels = timed_ms(levels_ms, || lu_column_levels(&sym));
        let lu = timed_ms(compile_ms, || SympilerLu::compile(a, opts))
            .map_err(|e| format!("compile: {e}"))?;
        round = Some((permuted, sym, panels, levels, lu));
    }
    let (permuted, sym, panels, levels, lu) = round.expect("at least one round");

    out.push("graph.fill_ratio", sym.fill_ratio(a.nnz()), "ratio", 0);
    out.push("graph.panel_mean_width", panels.mean_width(), "cols", 0);
    out.push("graph.padded_zeros", panels.padded_zeros as f64, "count", 0);
    out.push("graph.dag_levels", levels.n_levels() as f64, "count", 0);
    out.push("graph.dag_work_over_span", work_over_span(&sym), "ratio", 0);

    // --- compile
    let factor_nnz = (sym.l_nnz() + sym.u_nnz()) as f64;
    let flops = lu.flops();
    out.push("compile.flops", flops as f64, "flop", 0);
    out.push(
        "compile.table_bytes_per_nnz",
        lu.table_bytes() as f64 / factor_nnz,
        "B/nnz",
        0,
    );
    // 0 = scalar serial, 2 = supernodal (1, column-parallel, needs
    // n_threads > 1 and is probed as plan.factor_2t_ms_p50).
    out.push(
        "compile.tier",
        if lu.is_supernodal() { 2.0 } else { 0.0 },
        "tier",
        0,
    );
    // Computed from table sizes, not measured traffic.
    out.push(
        "plan.table_bytes_per_flop",
        lu.table_bytes() as f64 / flops.max(1) as f64,
        "B/flop",
        0,
    );
    if counts_only {
        return Ok(());
    }

    out.push_median("sparse.permute_ms", permute_ms, "ms");
    out.push_median("graph.prepivot_ms", prepivot_ms, "ms");
    out.push_median("graph.ordering_ms", ordering_ms, "ms");
    out.push_median("graph.symbolic_ms", symbolic_ms, "ms");
    out.push_median("graph.supernode_ms", supernode_ms, "ms");
    // Column-DAG leveling is what the parallel tiers add to compile;
    // the 1-thread compile below does not run it.
    out.push_median("graph.levels_ms", levels_ms, "ms");
    let compile_p50 = out.push_median("compile.lu_ms_p50", compile_ms, "ms");
    let stages: f64 = [
        "sparse.permute_ms",
        "graph.prepivot_ms",
        "graph.ordering_ms",
        "graph.symbolic_ms",
        "graph.supernode_ms",
    ]
    .iter()
    .map(|name| out.need(name))
    .sum();
    out.push("compile.self_ms", compile_p50 - stages, "ms", 0);

    // --- plan
    let mut rng = Rng::new(n as u64);
    let b: Vec<f64> = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();
    let mut ws = LuWorkspace::new();
    let factor = lu.factor_with(a, &mut ws).map_err(|e| e.to_string())?;
    let factor_ms = time_ok("factor_with", effort, MS, || lu.factor_with(a, &mut ws))?;
    let factor_p50 = out.push_median("plan.factor_ms_p50", &factor_ms, "ms");
    out.push_median(
        "plan.solve_ms_p50",
        &time_for(effort, MS, || factor.solve(&b)),
        "ms",
    );
    out.push(
        "plan.factor_gflops",
        gflops(flops, factor_p50 / 1e3),
        "GFLOP/s",
        0,
    );
    out.push(
        "plan.ns_per_factor_nnz",
        factor_p50 * 1e6 / factor_nnz,
        "ns",
        0,
    );
    let two_threads = SympilerOptions {
        n_threads: 2,
        ..opts.clone()
    };
    let lu2 = SympilerLu::compile(a, &two_threads).map_err(|e| format!("2-thread compile: {e}"))?;
    out.push_median(
        "plan.factor_2t_ms_p50",
        &time_ok("2-thread factor", effort, MS, || lu2.factor(a))?,
        "ms",
    );
    drop(lu2);
    let batch = [a; 8];
    let batch_ms = time_ok("factor_batch", effort, MS, || lu.factor_batch(&batch))?;
    out.push(
        "plan.batch8_ms_per_mat",
        median(&batch_ms) / 8.0,
        "ms",
        batch_ms.len(),
    );
    let rhs4 = [&b[..]; 4];
    let solve4_ms = time_for(effort, MS, || factor.solve_batch(&rhs4));
    out.push(
        "plan.solve4_ms_per_rhs",
        median(&solve4_ms) / 4.0,
        "ms",
        solve4_ms.len(),
    );
    out.push_median(
        "plan.refined_solve_ms",
        &time_for(effort, MS, || factor.solve_refined(a, &b, 1e-14, 3)),
        "ms",
    );

    // --- obs: the program's own profiler, on against off.
    let profiled = SympilerOptions {
        profile: true,
        ..opts.clone()
    };
    let lu_prof =
        SympilerLu::compile(a, &profiled).map_err(|e| format!("profiled compile: {e}"))?;
    let profiled_ms = time_ok("profiled factor_with", effort, MS, || {
        lu_prof.factor_with(a, &mut ws)
    })?;
    out.push(
        "obs.profile_overhead_frac",
        median(&profiled_ms) / factor_p50 - 1.0,
        "ratio",
        profiled_ms.len(),
    );
    drop(lu_prof);

    // --- dense: the kernels alone, at the plan's panel shapes.
    let shapes: Vec<Shape> = panel_flops(&sym, &panels.part)
        .into_iter()
        .enumerate()
        .map(|(s, flops)| Shape {
            w: panels.part.width(s),
            m: panels.panel_rows(s).len(),
            flops,
        })
        .collect();
    let replay = dense_replay(&shapes, DiagKernel::Getrf, effort.stage_reps);
    out.push(
        "dense.getrf_gflops",
        gflops(replay.diag_flops, replay.diag_s),
        "GFLOP/s",
        replay.reps,
    );
    out.push(
        "dense.trsm_gflops",
        gflops(replay.trsm_flops, replay.trsm_s),
        "GFLOP/s",
        replay.reps,
    );
    out.push(
        "dense.gemm_gflops",
        gflops(replay.gemm_flops_run, replay.gemm_s),
        "GFLOP/s",
        replay.reps,
    );
    out.push("dense.replay_ms", replay.ms(), "ms", replay.reps);
    out.push("dense.replay_share", replay.ms() / factor_p50, "ratio", 0);

    // --- solvers: coupled Gilbert–Peierls on the same pivoted, ordered
    // matrix with the same static pivoting.
    let gplu_ms = time_ok("coupled LU", effort, MS, || {
        GpLu::factor(&permuted, Pivoting::None)
    })?;
    let gplu_p50 = out.push_median("solvers.gplu_ms_p50", &gplu_ms, "ms");
    // base: plan.factor_ms_p50
    out.push("ratio.vs_coupled", gplu_p50 / factor_p50, "ratio", 0);
    // base: compile.lu_ms_p50 over the time one compiled factor saves
    out.push(
        "ratio.break_even_solves",
        break_even_solves(compile_p50, gplu_p50, factor_p50),
        "count",
        0,
    );
    Ok(())
}

/// `graph`, `compile`, `plan`, `dense` and `solvers` on the Cholesky
/// and triangular-solve pipeline, for the SPD reference input.
pub fn chol_layers(a_lower: &CscMatrix, effort: Effort, out: &mut Ledger) -> Result<(), String> {
    let n = a_lower.n_cols();
    let opts = SympilerOptions::default();
    let (symbolic_ms, (sym, part)) = time_reps(effort.stage_reps, MS, || {
        let sym = symbolic_cholesky_with_etree(a_lower, etree(a_lower));
        let part = supernodes_cholesky(&sym, CHOL_MAX_WIDTH);
        (sym, part)
    });
    out.push_median("graph.chol_symbolic_ms", &symbolic_ms, "ms");
    let (compile_ms, chol) = time_reps(effort.stage_reps, MS, || {
        SympilerCholesky::compile(a_lower, &opts)
    });
    let chol = chol.map_err(|e| format!("Cholesky compile: {e}"))?;
    out.push_median("compile.chol_ms", &compile_ms, "ms");

    let mut rng = Rng::new(n as u64);
    let b: Vec<f64> = (0..n).map(|_| 2.0 * rng.unit() - 1.0).collect();
    let factor = chol.factor(a_lower).map_err(|e| e.to_string())?;
    let factor_p50 = out.push_median(
        "plan.chol_factor_ms_p50",
        &time_ok("Cholesky factor", effort, MS, || chol.factor(a_lower))?,
        "ms",
    );
    out.push_median(
        "plan.chol_solve_ms_p50",
        &time_for(effort, MS, || factor.solve(&b)),
        "ms",
    );

    let shapes: Vec<Shape> = (0..part.n_supernodes())
        .map(|s| Shape {
            w: part.width(s),
            m: sym.col_count(part.cols(s).start),
            flops: part.cols(s).map(|j| (sym.col_count(j) as u64).pow(2)).sum(),
        })
        .collect();
    let replay = dense_replay(&shapes, DiagKernel::Potrf, effort.stage_reps);
    out.push(
        "dense.potrf_gflops",
        gflops(replay.diag_flops, replay.diag_s),
        "GFLOP/s",
        replay.reps,
    );
    out.push("dense.chol_replay_ms", replay.ms(), "ms", replay.reps);
    out.push(
        "dense.chol_replay_share",
        replay.ms() / factor_p50,
        "ratio",
        0,
    );

    // Triangular solve with the factor and a sparse right-hand side
    // shaped like one of its columns, from the second half of the
    // ordering, holding under 5 % of the rows.
    let l = factor.to_csc();
    let j = (n / 2..n)
        .find(|&j| l.col_nnz(j) * 20 < n)
        .ok_or("no factor column under 5 % fill")?;
    let rhs = rhs_from_column_pattern(&l, j, n as u64);
    let (tri_ms, mut tri) = time_reps(effort.stage_reps, MS, || {
        SympilerTriSolve::compile(&l, rhs.indices(), &opts)
    });
    out.push_median("compile.tri_ms", &tri_ms, "ms");
    let mut x = vec![0.0; n];
    let tri_us = time_for(effort, US, || {
        tri.solve_into(&rhs, &mut x);
        tri.reset(&mut x);
    });
    out.push_median("plan.tri_solve_us_p50", &tri_us, "us");

    let supernodal =
        SupernodalCholesky::analyze(a_lower, CHOL_MAX_WIDTH).map_err(|e| format!("{e:?}"))?;
    out.push_median(
        "solvers.chol_supernodal_ms_p50",
        &time_ok("supernodal Cholesky", effort, MS, || {
            supernodal.factor(a_lower)
        })?,
        "ms",
    );
    let simplicial = SimplicialCholesky::analyze(a_lower).map_err(|e| format!("{e:?}"))?;
    out.push_median(
        "solvers.chol_simplicial_ms_p50",
        &time_ok("simplicial Cholesky", effort, MS, || {
            simplicial.factor(a_lower)
        })?,
        "ms",
    );
    Ok(())
}

/// `serve`: hashing and lookup on their own, then a fixed-length replay
/// of the `serve_churn` request order through a one-worker service and,
/// for the hot requests, directly on the client thread. The request
/// count is fixed, so the cache counters repeat exactly.
pub fn serve_layers(
    hot: &[Case],
    cold: &[Case],
    opts: &SympilerOptions,
    seed: u64,
    effort: Effort,
    counts_only: bool,
    out: &mut Ledger,
) -> Result<(), String> {
    let cache = Arc::new(PlanCache::new(SERVE_CACHE));
    let service = FactorService::new(1, Arc::clone(&cache));
    let mut plan = ChurnPlan::new(seed, hot.len(), cold.len());
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let mut hot_order = Vec::new();
    for i in 0..effort.serve_requests {
        let slot = plan.slot(i);
        let case = match slot {
            Slot::Hot(k) => &hot[k],
            Slot::Cold(k) => &cold[k],
        };
        let misses_before = cache.stats().misses;
        let t = Instant::now();
        let response = service
            .call(serve_request(case, opts))
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * MS;
        black_box(response);
        // Split by what the cache did, not by the label: the first
        // request to each hot pattern is a miss too.
        if cache.stats().misses > misses_before {
            miss_ms.push(ms);
        } else {
            hit_ms.push(ms);
            if let Slot::Hot(k) = slot {
                hot_order.push(k);
            }
        }
    }
    let stats = cache.stats();
    out.push("serve.hit_rate", stats.hit_rate(), "ratio", 0);
    out.push("serve.evictions", stats.evictions as f64, "count", 0);
    if counts_only {
        return Ok(());
    }
    let hit_p50 = out.push_median("serve.hit_ms_p50", &hit_ms, "ms");
    out.push_median("serve.miss_ms_p50", &miss_ms, "ms");
    drop(service);

    let probe = &hot[0];
    out.push_median(
        "serve.hash_us",
        &time_for(effort, US, || structural_hash(&probe.a, opts)),
        "us",
    );
    cache
        .get_or_compile(&probe.a, opts)
        .map_err(|e| e.to_string())?;
    // A hit: hash the request, then the exact pattern check.
    out.push_median(
        "serve.lookup_hit_us",
        &time_ok("cache lookup", effort, US, || {
            cache.get_or_compile(&probe.a, opts)
        })?,
        "us",
    );

    // The same hit requests without the service: what is left of
    // serve.hit_ms_p50 is clone + queue + hand-off to the worker.
    let mut ws = LuWorkspace::new();
    let mut direct_ms = Vec::with_capacity(hot_order.len());
    for &k in &hot_order {
        let case = &hot[k];
        let t = Instant::now();
        let plan = cache
            .get_or_compile(&case.a, opts)
            .map_err(|e| e.to_string())?;
        let factor = plan
            .factor_with(&case.a, &mut ws)
            .map_err(|e| e.to_string())?;
        black_box(factor.solve(&case.b));
        direct_ms.push(t.elapsed().as_secs_f64() * MS);
    }
    out.push(
        "serve.dispatch_us",
        (hit_p50 - median(&direct_ms)) * 1e3,
        "us",
        direct_ms.len(),
    );
    Ok(())
}

/// Which rows make up a workload's request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// `factor_with` + `solve` on a compiled LU plan.
    LuRefactor,
    /// `compile` + `factor` + `solve`.
    LuCold,
    /// A cache hit through `FactorService`.
    ServeHit,
    /// `factor` + `solve` on a compiled Cholesky plan.
    CholRefactor,
}

/// The budget table: per-layer times, each measured on its own, that
/// should add up to the traced request p50.
pub fn budget_rows(kind: BudgetKind, l: &Ledger) -> Vec<(&'static str, f64)> {
    let lu_numeric = |rows: &mut Vec<(&'static str, f64)>| {
        let replay = l.need("dense.replay_ms");
        rows.push(("dense.replay", replay));
        rows.push((
            "plan.factor - dense.replay",
            l.need("plan.factor_ms_p50") - replay,
        ));
        rows.push(("plan.solve", l.need("plan.solve_ms_p50")));
    };
    let mut rows = Vec::new();
    match kind {
        BudgetKind::LuRefactor => lu_numeric(&mut rows),
        BudgetKind::LuCold => {
            rows.push(("graph.prepivot", l.need("graph.prepivot_ms")));
            rows.push(("graph.ordering", l.need("graph.ordering_ms")));
            rows.push(("sparse.permute", l.need("sparse.permute_ms")));
            rows.push(("graph.symbolic", l.need("graph.symbolic_ms")));
            rows.push(("graph.supernode", l.need("graph.supernode_ms")));
            rows.push(("compile.self", l.need("compile.self_ms")));
            lu_numeric(&mut rows);
        }
        BudgetKind::ServeHit => {
            rows.push(("serve.dispatch", l.need("serve.dispatch_us") / 1e3));
            // The lookup hashes the request first: serve.hash_us is
            // part of it, not a row beside it.
            rows.push(("serve.lookup", l.need("serve.lookup_hit_us") / 1e3));
            lu_numeric(&mut rows);
        }
        BudgetKind::CholRefactor => {
            let replay = l.need("dense.chol_replay_ms");
            rows.push(("dense.chol_replay", replay));
            rows.push((
                "plan.chol_factor - dense.chol_replay",
                l.need("plan.chol_factor_ms_p50") - replay,
            ));
            rows.push(("plan.chol_solve", l.need("plan.chol_solve_ms_p50")));
        }
    }
    rows
}

/// `Σ rows ÷ traced p50 − 1`: how far the separately measured layers
/// are from adding up to the request.
pub fn budget_gap(rows: &[(&'static str, f64)], traced_p50_ms: f64) -> f64 {
    rows.iter().map(|(_, ms)| ms).sum::<f64>() / traced_p50_ms - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{circuit_unsym, lu_options, nd_laplacian, Ordering, PrePivot};

    #[test]
    fn a_panel_splits_into_kernels_that_add_up_to_its_flops() {
        assert_eq!(getrf_flops(1), 0);
        assert_eq!(getrf_flops(3), 3 + 10); // c=1: 1+2, c=2: 2+8
        assert_eq!(potrf_flops(3), 1 + 4 + 9);
        assert_eq!(trsm_flops(5, 2), 20);
        let s = Shape {
            w: 4,
            m: 10,
            flops: 2000,
        };
        let p = split_panel(s, DiagKernel::Getrf);
        assert_eq!(p.diag + p.trsm + p.gemm_exact, 2000);
        assert_eq!(p.gemm_rows, 6);
        let per_call = 2 * 6 * 4 * 4;
        assert_eq!(p.gemm_calls, (p.gemm_exact + per_call / 2) / per_call);
        // A panel with no sub-diagonal rows and fewer flops than its
        // diagonal block: nothing left for GEMM, nothing negative.
        let tip = split_panel(
            Shape {
                w: 3,
                m: 3,
                flops: 5,
            },
            DiagKernel::Potrf,
        );
        assert_eq!(
            (tip.trsm, tip.gemm_exact, tip.gemm_calls, tip.gemm_rows),
            (0, 0, 0, 3)
        );
    }

    #[test]
    fn the_replay_runs_the_exact_flops_and_stays_finite() {
        let shapes = [
            Shape {
                w: 1,
                m: 40,
                flops: 39 + 2 * 39 * 7,
            },
            Shape {
                w: 4,
                m: 30,
                flops: 9000,
            },
            Shape {
                w: 8,
                m: 8,
                flops: 400,
            },
        ];
        for kernel in [DiagKernel::Getrf, DiagKernel::Potrf] {
            let r = dense_replay(&shapes, kernel, 3);
            assert_eq!(r.reps, 3);
            let exact: u64 = shapes.iter().map(|s| s.flops).sum();
            let split: u64 = r.diag_flops + r.trsm_flops + r.gemm_flops_exact;
            // Only the width-8 tip (400 flops < its diagonal block) is clipped.
            assert!(split <= exact + 400 && split + 400 >= exact, "{kernel:?}");
            assert!(r.ms().is_finite() && r.ms() > 0.0);
            let near = r.gemm_flops_run as f64 / r.gemm_flops_exact as f64;
            assert!(
                (0.9..1.1).contains(&near),
                "{kernel:?}: ran {near} of exact"
            );
        }
    }

    #[test]
    fn work_over_span_is_one_for_a_chain_and_n_for_independent_columns() {
        // Tridiagonal: every column depends on the previous one.
        let n = 5;
        let rows = |j: usize| j.saturating_sub(1)..(j + 2).min(n);
        let row_idx: Vec<usize> = (0..n).flat_map(rows).collect();
        let mut col_ptr = vec![0];
        for j in 0..n {
            col_ptr.push(col_ptr[j] + rows(j).len());
        }
        let values = vec![1.0; row_idx.len()];
        let tridiag = CscMatrix::try_new(n, n, col_ptr, row_idx, values).unwrap();
        assert!((work_over_span(&lu_symbolic(&tridiag)) - 1.0).abs() < 1e-12);
        let diag = lu_symbolic(&CscMatrix::identity(6));
        // No flops at all: defined as 1, not NaN.
        assert_eq!(work_over_span(&diag), 1.0);
        let sym = lu_symbolic(&circuit_unsym(200, 2, 0, 3));
        let wos = work_over_span(&sym);
        assert!((1.0..=200.0).contains(&wos), "{wos}");
    }

    fn ledger(pairs: &[(&'static str, f64)]) -> Ledger {
        let mut l = Ledger::default();
        for &(name, v) in pairs {
            l.push(name, v, "ms", 1);
        }
        l
    }

    #[test]
    fn budget_rows_add_up_and_the_gap_is_relative_to_the_traced_p50() {
        let l = ledger(&[
            ("dense.replay_ms", 6.0),
            ("plan.factor_ms_p50", 10.0),
            ("plan.solve_ms_p50", 1.0),
            ("graph.prepivot_ms", 2.0),
            ("graph.ordering_ms", 3.0),
            ("sparse.permute_ms", 0.5),
            ("graph.symbolic_ms", 4.0),
            ("graph.supernode_ms", 0.5),
            ("compile.self_ms", 5.0),
            ("serve.dispatch_us", 300.0),
            ("serve.hash_us", 150.0),
            ("serve.lookup_hit_us", 50.0),
            ("dense.chol_replay_ms", 7.0),
            ("plan.chol_factor_ms_p50", 9.0),
            ("plan.chol_solve_ms_p50", 0.5),
        ]);
        let sum = |k| budget_rows(k, &l).iter().map(|(_, v)| v).sum::<f64>();
        assert!((sum(BudgetKind::LuRefactor) - 11.0).abs() < 1e-12);
        assert!((sum(BudgetKind::LuCold) - 26.0).abs() < 1e-12);
        assert!((sum(BudgetKind::ServeHit) - 11.35).abs() < 1e-12);
        assert!((sum(BudgetKind::CholRefactor) - 9.5).abs() < 1e-12);
        let rows = budget_rows(BudgetKind::LuRefactor, &l);
        assert_eq!(rows[1], ("plan.factor - dense.replay", 4.0));
        assert!((budget_gap(&rows, 10.0) - 0.1).abs() < 1e-12);
        assert!((budget_gap(&rows, 12.5) + 0.12).abs() < 1e-12);
    }

    #[test]
    fn break_even_is_never_when_the_compiled_factor_is_not_faster() {
        assert_eq!(break_even_solves(30.0, 5.0, 2.0), 10.0);
        assert_eq!(break_even_solves(30.0, 2.0, 5.0), NEVER);
        assert_eq!(break_even_solves(30.0, 2.0, 2.0), NEVER);
        assert_eq!(break_even_solves(30.0, 2.0 + 1e-12, 2.0), NEVER);
        assert_eq!(break_even_solves(30.0, f64::NAN, 2.0), NEVER);
    }

    #[test]
    fn a_failing_call_ends_its_probe_and_is_not_a_sample() {
        let mut calls = 0;
        let out = time_ok("probe", Effort::QUICK, MS, || {
            calls += 1;
            if calls == 2 {
                Err("refused")
            } else {
                Ok(())
            }
        });
        // QUICK asks for one call at least; the probe's time budget
        // lets it reach the second one.
        assert_eq!(out, Err("probe: \"refused\"".to_string()));
        assert!(!time_for(Effort::QUICK, MS, || 1).is_empty());
    }

    #[test]
    fn the_probes_emit_every_count_metric_and_the_counts_repeat() {
        let a = circuit_unsym(300, 3, 1, 2);
        let opts = lu_options(Ordering::Colamd, PrePivot::Off, 1);
        let run = |counts_only| {
            let mut l = Ledger::default();
            lu_layers(&a, &opts, Effort::QUICK, counts_only, &mut l).unwrap();
            l
        };
        let (full, counts, again) = (run(false), run(true), run(true));
        for name in COUNT_METRICS.iter().filter(|n| !n.starts_with("serve.")) {
            assert_eq!(counts.get(name), again.get(name), "{name}");
            assert_eq!(counts.get(name), full.get(name), "{name}");
            assert!(counts.get(name).is_some(), "{name}");
        }
        let stages = full.need("compile.lu_ms_p50") - full.need("compile.self_ms");
        assert!(stages > 0.0);
        assert!(full.need("graph.fill_ratio") >= 1.0);

        let mut l = Ledger::default();
        chol_layers(&nd_laplacian(6, 1), Effort::QUICK, &mut l).unwrap();
        assert!(l.need("plan.tri_solve_us_p50") > 0.0 && l.need("dense.potrf_gflops") > 0.0);
    }
}
