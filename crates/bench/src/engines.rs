//! Engine wrappers: uniform closures over every measured solver so the
//! figure binaries and criterion benches share one definition of what
//! "Eigen", "CHOLMOD", and each Sympiler variant mean.

use crate::harness::median_time;
use crate::workloads::{BenchProblem, LuBenchProblem};
use std::time::Duration;
use sympiler_core::plan::chol::{CholPlan, MAX_SUPERNODE_WIDTH};
use sympiler_core::plan::lu::{LuPlan, POSITION_MAX_OPS_PER_ENTRY};
use sympiler_core::plan::lu_supernodal::{SupernodalLuPlan, MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler_core::plan::tri::{
    TriScratch, TriSolvePlan, TriVariant, PEEL_COL_COUNT, VS_BLOCK_MIN_AVG_SIZE,
};
use sympiler_core::{Ordering, SympilerOptions};
use sympiler_solvers::cholesky::simplicial::SimplicialCholesky;
use sympiler_solvers::cholesky::supernodal::SupernodalCholesky;
use sympiler_solvers::lu::{GpLu, Pivoting};
use sympiler_solvers::trisolve;
use sympiler_sparse::CscMatrix;

/// Number of repetitions per measurement (paper: 5, median).
pub const RUNS: usize = 5;

/// Measured triangular-solve engines (Figure 6 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriEngine {
    /// Figure 1b: naive forward substitution.
    Naive,
    /// Figure 1c: Eigen's guarded loop.
    Eigen,
    /// Sympiler with VS-Block only.
    SympilerVsBlock,
    /// Sympiler with VS-Block + VI-Prune.
    SympilerVsBlockViPrune,
    /// Sympiler with everything (the "+Low-Level" bar).
    SympilerFull,
}

impl TriEngine {
    pub fn label(self) -> &'static str {
        match self {
            TriEngine::Naive => "naive (Fig 1b)",
            TriEngine::Eigen => "Eigen (Fig 1c)",
            TriEngine::SympilerVsBlock => "Sympiler: VS-Block",
            TriEngine::SympilerVsBlockViPrune => "Sympiler: VS-Block+VI-Prune",
            TriEngine::SympilerFull => "Sympiler: +Low-Level",
        }
    }
}

/// Build the plan corresponding to a Sympiler engine tier. The
/// supernode-size threshold is applied like §4.2: when the average
/// participating supernode size is too small, VS-Block tiers fall back
/// to VI-Prune-only execution.
pub fn build_tri_plan(p: &BenchProblem, engine: TriEngine) -> Option<TriSolvePlan> {
    let col_counts: Vec<usize> = (0..p.l.n_cols()).map(|j| p.l.col_nnz(j)).collect();
    let part = sympiler_graph::supernode::supernodes_trisolve(&p.l, MAX_SUPERNODE_WIDTH);
    let vs_ok = part.avg_participating_size(&col_counts) >= VS_BLOCK_MIN_AVG_SIZE;
    let variant = match engine {
        TriEngine::Naive | TriEngine::Eigen => return None,
        TriEngine::SympilerVsBlock => TriVariant {
            vs_block: vs_ok,
            vi_prune: false,
            low_level: false,
        },
        TriEngine::SympilerVsBlockViPrune => TriVariant {
            vs_block: vs_ok,
            vi_prune: true,
            low_level: false,
        },
        TriEngine::SympilerFull => TriVariant {
            vs_block: vs_ok,
            vi_prune: true,
            low_level: true,
        },
    };
    Some(TriSolvePlan::build(
        &p.l,
        p.b.indices(),
        variant,
        MAX_SUPERNODE_WIDTH,
        PEEL_COL_COUNT,
    ))
}

/// Median numeric time of one triangular-solve engine on one problem.
pub fn time_tri_engine(p: &BenchProblem, engine: TriEngine) -> Duration {
    let n = p.n();
    match engine {
        TriEngine::Naive => {
            let bd = p.b.to_dense();
            let mut x = vec![0.0; n];
            median_time(RUNS, || {
                x.copy_from_slice(&bd);
                trisolve::naive_forward(&p.l, &mut x);
                std::hint::black_box(&x);
            })
        }
        TriEngine::Eigen => {
            let bd = p.b.to_dense();
            let mut x = vec![0.0; n];
            median_time(RUNS, || {
                x.copy_from_slice(&bd);
                trisolve::library_forward(&p.l, &mut x);
                std::hint::black_box(&x);
            })
        }
        _ => {
            let plan = build_tri_plan(p, engine).expect("sympiler engine");
            let mut x = vec![0.0; n];
            let mut scratch = TriScratch::default();
            median_time(RUNS, || {
                plan.solve(&p.b, &mut x, &mut scratch);
                std::hint::black_box(&x);
                plan.reset(&mut x);
            })
        }
    }
}

/// Measured Cholesky engines (Figure 7 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholEngine {
    /// Eigen: left-looking simplicial, coupled symbolic work in numeric.
    Eigen,
    /// CHOLMOD: left-looking supernodal over generic BLAS.
    Cholmod,
    /// Sympiler plan with VS-Block, generic kernels.
    SympilerVsBlock,
    /// Sympiler plan with VS-Block + specialized kernels (low-level),
    /// relaxed supernode amalgamation off — the paper's like-for-like
    /// setting against CHOLMOD (§4.1: "amalgamation not enabled").
    SympilerStrict,
    /// Sympiler plan with the default options: VS-Block, specialized
    /// kernels, relaxed amalgamation.
    SympilerFull,
}

impl CholEngine {
    pub fn label(self) -> &'static str {
        match self {
            CholEngine::Eigen => "Eigen (numeric)",
            CholEngine::Cholmod => "CHOLMOD (numeric)",
            CholEngine::SympilerVsBlock => "Sympiler: VS-Block",
            CholEngine::SympilerStrict => "Sympiler: +Low-Level (strict supernodes)",
            CholEngine::SympilerFull => "Sympiler: +Low-Level",
        }
    }

    /// The compiled plan of a Sympiler engine on `a` (`None` for the
    /// library baselines), built by the one constructor that takes the
    /// amalgamation budget: the compile defaults, with low-level
    /// kernels off for VS-Block and amalgamation off for strict.
    pub fn plan(self, a: &CscMatrix) -> Option<CholPlan> {
        let (relax_fill, low_level) = match self {
            CholEngine::Eigen | CholEngine::Cholmod => return None,
            CholEngine::SympilerVsBlock => (RELAX_FILL, false),
            CholEngine::SympilerStrict => (0.0, true),
            CholEngine::SympilerFull => (RELAX_FILL, true),
        };
        let plan = CholPlan::build(a, MAX_SUPERNODE_WIDTH, relax_fill, RELAX_COLS, low_level);
        Some(plan.expect("spd"))
    }
}

/// Median numeric factorization time of one Cholesky engine.
/// Symbolic/analysis phases run **outside** the timed region for every
/// engine, matching the paper's "numeric" measurements.
pub fn time_chol_engine(p: &BenchProblem, engine: CholEngine) -> Duration {
    match engine {
        CholEngine::Eigen => {
            let chol = SimplicialCholesky::analyze(&p.a).expect("spd");
            median_time(RUNS, || {
                let l = chol.factor(&p.a).expect("factor");
                std::hint::black_box(&l);
            })
        }
        CholEngine::Cholmod => {
            let chol = SupernodalCholesky::analyze(&p.a, 64).expect("spd");
            median_time(RUNS, || {
                let f = chol.factor(&p.a).expect("factor");
                std::hint::black_box(&f);
            })
        }
        _ => {
            let chol = engine.plan(&p.a).expect("sympiler engine");
            median_time(RUNS, || {
                let f = chol.factor(&p.a).expect("factor");
                std::hint::black_box(&f);
            })
        }
    }
}

/// Measured sparse-LU engines (the `lu_compare` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuEngine {
    /// The coupled baseline: Gilbert–Peierls with per-column DFS
    /// re-run inside every numeric factorization (static pivoting, so
    /// the numeric work matches the plan exactly).
    GpluCoupled,
    /// The coupled baseline with partial pivoting — the verification
    /// mode (extra pivot-search work, possibly different factors).
    GpluPartial,
    /// The Sympiler LU plan: symbolic analysis at compile time, numeric
    /// factorization only in the timed region (scalar serial columns).
    SympilerPlan,
    /// The Sympiler LU plan with the level-scheduled parallel numeric
    /// phase over the column elimination DAG at this worker count.
    SympilerParallel { threads: usize },
    /// The supernodal (VS-Block) LU engine: wide column panels routed
    /// through dense GETRF/TRSM/GEMM kernels, singleton panels through
    /// the scalar column kernel.
    SympilerSupernodal,
}

impl LuEngine {
    pub fn label(self) -> &'static str {
        match self {
            LuEngine::GpluCoupled => "GPLU (coupled symbolic)",
            LuEngine::GpluPartial => "GPLU (partial pivoting)",
            LuEngine::SympilerPlan => "Sympiler LU plan (numeric)",
            LuEngine::SympilerParallel { threads: 2 } => "Sympiler LU plan (2 threads)",
            LuEngine::SympilerParallel { threads: 4 } => "Sympiler LU plan (4 threads)",
            LuEngine::SympilerParallel { .. } => "Sympiler LU plan (parallel)",
            LuEngine::SympilerSupernodal => "Sympiler LU plan (supernodal)",
        }
    }
}

/// Median factorization time of one LU engine on one problem in
/// natural order. See [`time_lu_engine_ordered`].
pub fn time_lu_engine(p: &LuBenchProblem, engine: LuEngine) -> Duration {
    time_lu_engine_ordered(p, engine, Ordering::Natural)
}

/// The one timing protocol every LU measurement uses: median of
/// [`RUNS`] invocations of `factor`, result black-boxed. Call sites
/// that already hold a prepared input (an ordered matrix, a compiled
/// plan) time through this directly, so experiment binaries and the
/// engine wrappers cannot drift apart on warmups or black-box
/// placement.
pub fn time_lu_factorizer<T>(factor: impl Fn() -> T) -> Duration {
    median_time(RUNS, || {
        std::hint::black_box(&factor());
    })
}

/// Median factorization time of one LU engine on one problem under a
/// fill-reducing ordering. Like the Cholesky engines, any reusable
/// analysis runs **outside** the timed region: for the Sympiler
/// engines that is the whole compile (ordering included, baked into
/// the plan); for the coupled GPLU baselines the ordering is applied
/// to the matrix up front — real runtime libraries, too, order once in
/// a separate analyze phase — so the timed region still measures
/// exactly the coupled symbolic+numeric factorization, on the same
/// ordered pattern the plan factors. Apples to apples.
pub fn time_lu_engine_ordered(
    p: &LuBenchProblem,
    engine: LuEngine,
    ordering: Ordering,
) -> Duration {
    // The GPLU baselines factor the pre-permuted matrix directly.
    let ordered_input = || match sympiler_graph::compute_ordering(&p.a, ordering) {
        Some(perm) => sympiler_sparse::ops::permute_rows_cols(&p.a, &perm).expect("valid ordering"),
        None => p.a.clone(),
    };
    match engine {
        LuEngine::GpluCoupled => {
            let a = ordered_input();
            time_lu_factorizer(|| GpLu::factor(&a, Pivoting::None).expect("factor"))
        }
        LuEngine::GpluPartial => {
            let a = ordered_input();
            time_lu_factorizer(|| GpLu::factor(&a, Pivoting::Partial).expect("factor"))
        }
        // The Sympiler engines are built through the plan constructors,
        // so each measures its own tier whatever tier the compiler
        // would pick for the pattern, baked as the compiler bakes it.
        LuEngine::SympilerPlan => {
            let plan = scalar_plan(p, ordering).with_position_tables(POSITION_MAX_OPS_PER_ENTRY);
            time_lu_factorizer(|| plan.factor(&p.a).expect("factor"))
        }
        LuEngine::SympilerParallel { threads } => {
            let plan = scalar_plan(p, ordering).leveled(threads);
            time_lu_factorizer(|| plan.factor(&p.a).expect("factor"))
        }
        LuEngine::SympilerSupernodal => {
            // Every detected panel dense.
            let plan = scalar_plan(p, ordering);
            let panels = SupernodalLuPlan::detect_panels(&plan, MAX_PANEL, RELAX_FILL, RELAX_COLS);
            let sup = SupernodalLuPlan::from_panels(plan, panels, 1);
            time_lu_factorizer(|| sup.factor(&p.a).expect("factor"))
        }
    }
}

fn scalar_plan(p: &LuBenchProblem, ordering: Ordering) -> LuPlan {
    let opts = SympilerOptions {
        ordering,
        ..Default::default()
    };
    LuPlan::build(&p.a, &opts).expect("compile")
}

/// Exact LU factorization flop count (identical across engines).
pub fn lu_flops(p: &LuBenchProblem) -> u64 {
    sympiler_graph::lu_symbolic(&p.a).factor_flops()
}

/// Useful flop count of the pruned triangular solve on this problem
/// (identical accounting across engines).
pub fn tri_flops(p: &BenchProblem) -> u64 {
    let reach = sympiler_graph::reach(&p.l, p.b.indices());
    trisolve::trisolve_flops(&p.l, &reach)
}

/// Exact factorization flop count (identical across engines).
pub fn chol_flops(p: &BenchProblem) -> u64 {
    sympiler_graph::symbolic_cholesky(&p.a).factor_flops()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::prepare_subset;
    use sympiler_core::{PrePivot, SympilerLu};
    use sympiler_sparse::suite::SuiteScale;

    #[test]
    fn engines_produce_identical_solutions() {
        let problems = prepare_subset(SuiteScale::Test, &[1, 5]);
        for p in &problems {
            let n = p.n();
            let mut x_ref = p.b.to_dense();
            trisolve::naive_forward(&p.l, &mut x_ref);
            for engine in [
                TriEngine::SympilerVsBlock,
                TriEngine::SympilerVsBlockViPrune,
                TriEngine::SympilerFull,
            ] {
                let plan = build_tri_plan(p, engine).unwrap();
                let mut x = vec![0.0; n];
                let mut s = TriScratch::default();
                plan.solve(&p.b, &mut x, &mut s);
                for i in 0..n {
                    assert!(
                        (x[i] - x_ref[i]).abs() < 1e-9,
                        "{} {}: x[{i}]",
                        p.name,
                        engine.label()
                    );
                }
            }
        }
    }

    #[test]
    fn chol_engines_agree() {
        let problems = prepare_subset(SuiteScale::Test, &[3]);
        let p = &problems[0];
        let l_eigen = SimplicialCholesky::analyze(&p.a)
            .unwrap()
            .factor(&p.a)
            .unwrap();
        let l_cholmod = SupernodalCholesky::analyze(&p.a, 64)
            .unwrap()
            .factor(&p.a)
            .unwrap()
            .to_csc();
        for (x, y) in l_eigen.values().iter().zip(l_cholmod.values()) {
            assert!((x - y).abs() < 1e-9);
        }
        for engine in [
            CholEngine::SympilerVsBlock,
            CholEngine::SympilerStrict,
            CholEngine::SympilerFull,
        ] {
            let l_symp = engine.plan(&p.a).unwrap().factor(&p.a).unwrap().to_csc();
            assert!(l_symp.same_pattern(&l_eigen), "{}", engine.label());
            for (x, y) in l_eigen.values().iter().zip(l_symp.values()) {
                assert!((x - y).abs() < 1e-9, "{}", engine.label());
            }
        }
    }

    #[test]
    fn lu_engines_agree_and_time() {
        let problems = crate::workloads::prepare_lu_subset(SuiteScale::Test, &[1, 3]);
        for p in &problems {
            let base = GpLu::factor(&p.a, Pivoting::None).unwrap();
            let lu = SympilerLu::compile(&p.a, &SympilerOptions::default()).unwrap();
            let f = lu.factor(&p.a).unwrap();
            assert!(f.l().same_pattern(&base.l), "{}", p.name);
            assert!(f.u().same_pattern(&base.u), "{}", p.name);
            for (x, y) in f.u().values().iter().zip(base.u.values()) {
                assert!((x - y).abs() < 1e-10, "{}", p.name);
            }
            for e in [
                LuEngine::GpluCoupled,
                LuEngine::GpluPartial,
                LuEngine::SympilerPlan,
                LuEngine::SympilerParallel { threads: 2 },
            ] {
                assert!(time_lu_engine(p, e).as_nanos() > 0, "{}", e.label());
            }
            assert!(lu_flops(p) > 0);
            // The parallel engine must agree with the serial plan.
            let opts = SympilerOptions {
                n_threads: 4,
                ..Default::default()
            };
            let par = SympilerLu::compile(&p.a, &opts)
                .unwrap()
                .factor(&p.a)
                .unwrap();
            for (x, y) in par.u().values().iter().zip(f.u().values()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{}", p.name);
            }
        }
    }

    #[test]
    fn ordered_lu_engines_agree_and_time() {
        let problems = crate::workloads::prepare_lu_subset(SuiteScale::Test, &[3]);
        let p = &problems[0];
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            // Plan vs. identically ordered baseline.
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let lu = SympilerLu::compile(&p.a, &opts).unwrap();
            let f = lu.factor(&p.a).unwrap();
            let base =
                GpLu::factor_prepivoted(&p.a, Pivoting::None, PrePivot::Off, ordering).unwrap();
            assert!(f.l().same_pattern(&base.factors.l), "{ordering:?}");
            for (x, y) in f.u().values().iter().zip(base.factors.u.values()) {
                assert!((x - y).abs() < 1e-10, "{ordering:?}");
            }
            for e in [
                LuEngine::GpluCoupled,
                LuEngine::SympilerPlan,
                LuEngine::SympilerParallel { threads: 2 },
            ] {
                assert!(
                    time_lu_engine_ordered(p, e, ordering).as_nanos() > 0,
                    "{} under {ordering:?}",
                    e.label()
                );
            }
        }
    }

    #[test]
    fn timing_helpers_run() {
        let problems = prepare_subset(SuiteScale::Test, &[2]);
        let p = &problems[0];
        for e in [TriEngine::Naive, TriEngine::Eigen, TriEngine::SympilerFull] {
            let t = time_tri_engine(p, e);
            assert!(t.as_nanos() > 0, "{}", e.label());
        }
        assert!(tri_flops(p) > 0);
        assert!(chol_flops(p) > 0);
    }
}
