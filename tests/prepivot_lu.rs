//! Integration tests for static pre-pivoting (maximum transversal /
//! weighted matching) across the whole LU pipeline: every
//! `(ordering, pre_pivot)` combination must factor the zero-diagonal
//! workloads through **both execution tiers** (scalar, supernodal) to
//! the same answers as the identically pre-pivoted runtime baseline,
//! solve the *original* systems, keep the identity fast path a true
//! no-op, and turn structural singularity into a typed compile-time
//! error.

mod common;

use common::factor_on_tier;
use sympiler::prelude::*;
use sympiler::solvers::lu::{lu_backward_error, GpLuFactors};
use sympiler::sparse::ops;
use sympiler::sparse::suite::{unsym_suite, SuiteScale};
use sympiler::sparse::{CscMatrix, TripletMatrix};

fn zero_diag_workloads() -> Vec<(&'static str, CscMatrix)> {
    vec![
        (
            "circuit_zdiag",
            sympiler::sparse::gen::circuit_zero_diag(120, 4, 2, 31),
        ),
        (
            "saddle_point",
            sympiler::sparse::gen::saddle_point_2x2(80, 16, 32),
        ),
    ]
}

#[test]
fn zero_diag_is_a_hard_error_without_a_pre_pivot() {
    for (name, a) in zero_diag_workloads() {
        assert!(
            ops::structurally_zero_diagonals(&a) > 0,
            "{name}: workload must be degenerate"
        );
        // Compilation succeeds (the symbolic phase reserves the
        // diagonal slot) but the numeric phase must report the
        // structural zero — the exact failure mode this PR unblocks.
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        assert!(lu.matched_diagonals() < a.n_cols());
        assert!(matches!(
            lu.factor(&a),
            Err(sympiler::core::plan::lu::LuPlanError::ZeroPivot { .. })
        ));
        // The coupled runtime baseline fails the same way.
        assert!(matches!(
            GpLu::factor(&a, Pivoting::None),
            Err(sympiler::solvers::lu::LuError::ZeroPivot { .. })
        ));
    }
}

/// The system the compiled engines actually factor, reconstructed in
/// factored coordinates: `Qᵀ·P·(Dr·A·Dc)·Q` (scaling and permutations
/// identity when not compiled).
fn composed_system(lu: &LuPlan, a: &CscMatrix) -> CscMatrix {
    let scaled = match lu.mc64_scaling() {
        Some((dr, dc)) => ops::scale_rows_cols(a, dr, dc).unwrap(),
        None => a.clone(),
    };
    let identity: Vec<usize> = (0..a.n_cols()).collect();
    match lu.row_perm() {
        Some(rp) => ops::permute_general(&scaled, rp, lu.col_perm().unwrap_or(&identity)).unwrap(),
        None => scaled,
    }
}

#[test]
fn every_combination_factors_through_every_tier() {
    // The composition matrix: (ordering × pre_pivot × tier), with
    // MC64 equilibration on — the production configuration for
    // zero-diagonal systems. The supernodal tier's dense kernels reassociate sums, so it
    // gates on the growth-independent `|PA − LU| / (|L||U|)` backward
    // error at the same strict 1e-10 (a fixed element tolerance would
    // be κ(L)·κ(U)-inflated on the values-blind transversal's pivot
    // sequences).
    for (name, a) in zero_diag_workloads() {
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 6) as f64).collect();
        for ordering in Ordering::ALL {
            for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                let opts = SympilerOptions {
                    ordering,
                    pre_pivot,
                    mc64_scale: true,
                    ..Default::default()
                };
                let serial = LuPlan::build(&a, &opts).unwrap();
                assert_eq!(serial.pre_pivot(), pre_pivot);
                assert_eq!(serial.matched_diagonals(), n, "{name}: full matching");
                let f = factor_on_tier(&a, &opts, false).unwrap();
                // Serial vs supernodal: the weighted matching keeps
                // the equilibrated factorization well-conditioned, so
                // the reassociation drift stays inside the strict
                // element tolerance there; both pre-pivots then gate
                // on the backward error of the factored system.
                let fs = factor_on_tier(&a, &opts, true).unwrap();
                if pre_pivot == PrePivot::WeightedMatching {
                    for (x, y) in fs
                        .l()
                        .values()
                        .iter()
                        .chain(fs.u().values())
                        .zip(f.l().values().iter().chain(f.u().values()))
                    {
                        assert!(
                            (x - y).abs() <= 1e-10 * (1.0 + y.abs()),
                            "{name} {ordering:?}+{pre_pivot:?} supernodal: {x} vs {y}"
                        );
                    }
                }
                let composed = composed_system(&serial, &a);
                let identity: Vec<usize> = (0..n).collect();
                for (tier, fx) in [("serial", &f), ("supernodal", &fs)] {
                    let as_gp = GpLuFactors {
                        l: fx.l().clone(),
                        u: fx.u().clone(),
                        row_perm: identity.clone(),
                    };
                    let eta = lu_backward_error(&composed, &as_gp);
                    assert!(
                        eta < 1e-10,
                        "{name} {ordering:?}+{pre_pivot:?} {tier}: backward error {eta:.3e}"
                    );
                }
                // Every tier's factor solves the ORIGINAL system to
                // the same strict residual. Static pivoting's
                // production contract pairs the factorization with
                // iterative refinement — a values-blind transversal's
                // multiplier growth loses digits in a raw triangular
                // solve, and a few O(nnz) sweeps win them back.
                for (tier, fx) in [("serial", &f), ("supernodal", &fs)] {
                    let x = if pre_pivot == PrePivot::Transversal {
                        fx.solve_refined(&a, &b, 1e-14, 5).0
                    } else {
                        fx.solve(&b)
                    };
                    let resid = ops::rel_residual(&a, &x, &b);
                    assert!(
                        resid < 1e-10,
                        "{name} {ordering:?}+{pre_pivot:?} {tier}: residual {resid}"
                    );
                }
            }
        }
    }
}

#[test]
fn weighted_matching_matches_prepivoted_baseline_to_1e10() {
    // The acceptance bar, stated directly: the compiled plan's factors
    // agree with the identically pre-pivoted GPLU baseline to 1e-10
    // on the zero-diagonal workloads, under every ordering.
    for (name, a) in zero_diag_workloads() {
        for ordering in Ordering::ALL {
            let opts = SympilerOptions {
                ordering,
                pre_pivot: PrePivot::WeightedMatching,
                ..Default::default()
            };
            let lu = SympilerLu::compile(&a, &opts).unwrap();
            let f = lu.factor(&a).unwrap();
            let base =
                GpLu::factor_prepivoted(&a, Pivoting::None, PrePivot::WeightedMatching, ordering)
                    .unwrap();
            assert!(f.l().same_pattern(&base.factors.l), "{name}: L pattern");
            assert!(f.u().same_pattern(&base.factors.u), "{name}: U pattern");
            for (x, y) in f.l().values().iter().chain(f.u().values()).zip(
                base.factors
                    .l
                    .values()
                    .iter()
                    .chain(base.factors.u.values()),
            ) {
                assert!(
                    (x - y).abs() < 1e-10,
                    "{name} under {ordering:?}: {x} vs {y}"
                );
            }
        }
    }
}

#[test]
fn mc64_scaling_collapses_pivot_growth_under_the_weighted_matching() {
    // The regression the scaling work exists for: on the
    // zero-diagonal circuits an unscaled factorization's element
    // growth reaches ~1e8, and with `mc64_scale` composed into the
    // weighted matching — every scaled entry ≤ 1 with the matched
    // pivot diagonal at each column's maximum — it must collapse to
    // O(1) (< 1e2) under every ordering, while the scaled plan keeps
    // solving the *original* system strictly.
    for (name, a) in zero_diag_workloads() {
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        for ordering in Ordering::ALL {
            let opts = SympilerOptions {
                ordering,
                pre_pivot: PrePivot::WeightedMatching,
                mc64_scale: true,
                ..Default::default()
            };
            let lu = LuPlan::build(&a, &opts).unwrap();
            let (dr, dc) = lu.mc64_scaling().expect("scalings compiled");
            assert_eq!((dr.len(), dc.len()), (n, n));
            let f = lu.factor(&a).unwrap();
            let health = lu.health_of(&a, &f);
            assert!(
                health.growth < 1e2,
                "{name} under {ordering:?}: scaled pivot growth {:.3e} must stay O(1)",
                health.growth
            );
            let x = f.solve(&b);
            let resid = ops::rel_residual(&a, &x, &b);
            assert!(resid < 1e-10, "{name} under {ordering:?}: residual {resid}");
        }
    }
}

#[test]
fn identity_fast_path_is_a_no_op_on_the_classic_suite() {
    // Transversal on every zero-free-diagonal suite problem must bake
    // nothing and reproduce the Off plan bitwise.
    for p in unsym_suite(SuiteScale::Test) {
        if p.zero_diag {
            continue;
        }
        let off = SympilerLu::compile(&p.matrix, &SympilerOptions::default()).unwrap();
        let fast = SympilerLu::compile(
            &p.matrix,
            &SympilerOptions {
                pre_pivot: PrePivot::Transversal,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(fast.pre_pivot(), PrePivot::Transversal);
        assert_eq!(
            fast.row_perm(),
            off.row_perm(),
            "{}: identity matching must bake no row map",
            p.name
        );
        let (f1, f2) = (
            fast.factor(&p.matrix).unwrap(),
            off.factor(&p.matrix).unwrap(),
        );
        for (x, y) in f1.u().values().iter().zip(f2.u().values()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{}", p.name);
        }
    }
}

#[test]
fn structurally_singular_matrices_fail_at_compile_time_with_a_typed_error() {
    // No perfect matching exists: column 1 and column 0 share their
    // only row. Every pre-pivot variant must reject at compile time;
    // Off compiles and fails only in the numeric phase.
    let mut t = TripletMatrix::new(3, 3);
    t.push(0, 0, 1.0);
    t.push(0, 1, 2.0);
    t.push(1, 2, 3.0);
    t.push(2, 2, 4.0);
    let a = t.to_csc().unwrap();
    for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
        let err = SympilerLu::compile(
            &a,
            &SympilerOptions {
                pre_pivot,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            sympiler::core::plan::lu::LuPlanError::StructurallySingular {
                n: 3,
                structural_rank: 2
            },
            "{pre_pivot:?}"
        );
        // The error renders with the diagnosis, not a bare zero pivot.
        assert!(err.to_string().contains("structurally singular"));
        assert!(err.to_string().contains("2 of 3"));
    }
}

#[test]
fn sparse_rhs_solves_speak_original_coordinates_under_pre_pivot() {
    for (name, a) in zero_diag_workloads() {
        let n = a.n_cols();
        let opts = SympilerOptions {
            ordering: Ordering::Colamd,
            pre_pivot: PrePivot::WeightedMatching,
            ..Default::default()
        };
        let f = SympilerLu::compile(&a, &opts).unwrap().factor(&a).unwrap();
        let idx: Vec<usize> = (0..n).filter(|i| i % 13 == 5).collect();
        let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 4) as f64).collect();
        let b = SparseVec::try_new(n, idx, vals).unwrap();
        let xs = f.solve_sparse(&b).to_dense();
        let xd = f.solve(&b.to_dense());
        for i in 0..n {
            assert!(
                (xs[i] - xd[i]).abs() < 1e-10,
                "{name} row {i}: {} vs {}",
                xs[i],
                xd[i]
            );
        }
    }
}
