//! Integration tests for the supernodal (VS-Block) LU tier: panel
//! detection quality and the compiler's per-panel dense/scalar
//! choice, agreement with the serial plan across the whole
//! unsymmetric suite under every ordering, the panel cap, the
//! bitwise-determinism and workspace contracts, and sparse-RHS solves
//! through factors from every tier.

mod common;

use common::{composed_system, factor_bits, panels_under};
use sympiler::core::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler::prelude::*;
use sympiler::sparse::suite::{unsym_suite, SuiteScale};
use sympiler::sparse::{ops, SparseVec};

/// Serial-vs-supernodal agreement bound: dense kernels reassociate the
/// update sums, nothing more.
const TOL: f64 = 1e-12;

fn assert_factors_close(a: &LuFactor, b: &LuFactor, what: &str) {
    assert!(a.l().same_pattern(b.l()), "{what}: L pattern");
    assert!(a.u().same_pattern(b.u()), "{what}: U pattern");
    for (x, y) in a.l().values().iter().zip(b.l().values()) {
        assert!(
            (x - y).abs() <= TOL * (1.0 + y.abs()),
            "{what}: L value {x} vs {y}"
        );
    }
    for (x, y) in a.u().values().iter().zip(b.u().values()) {
        assert!(
            (x - y).abs() <= TOL * (1.0 + y.abs()),
            "{what}: U value {x} vs {y}"
        );
    }
}

#[test]
fn supernodal_matches_serial_across_suite_and_orderings() {
    // The satellite contract: supernodal factors comparable to the
    // serial plan to ≤ 1e-12 across the unsym suite × all orderings.
    for p in unsym_suite(SuiteScale::Test) {
        for ordering in Ordering::ALL {
            // Zero-diagonal problems ride the weighted-matching
            // pre-pivot (restores a dominant diagonal, so the strict
            // serial-vs-supernodal tolerance still applies).
            let pre_pivot = if p.zero_diag {
                PrePivot::WeightedMatching
            } else {
                PrePivot::Off
            };
            let lu = SympilerLu::compile(
                &p.matrix,
                &SympilerOptions {
                    ordering,
                    pre_pivot,
                    ..Default::default()
                },
            )
            .unwrap();
            assert!(lu.is_supernodal(), "{}: every suite problem blocks", p.name);
            let what = format!("{} under {}", p.name, ordering.label());
            let f_serial = lu.plan().factor(&p.matrix).unwrap();
            // The panels the compiler keeps, and every detected panel.
            let plan = panels_under(lu.plan(), MAX_PANEL, RELAX_FILL, RELAX_COLS);
            for f_sup in [lu.factor(&p.matrix), plan.factor(&p.matrix)] {
                assert_factors_close(&f_sup.unwrap(), &f_serial, &what);
            }
            // Panel statistics are well-formed.
            assert!(plan.mean_panel_width() >= 1.0);
            assert!(plan.dense_flop_share() >= 0.0 && plan.dense_flop_share() <= 1.0);
            let widths: usize = (0..plan.n_panels())
                .map(|s| plan.partition().width(s))
                .sum();
            assert_eq!(widths, p.matrix.n_cols(), "panels partition the columns");
        }
    }
}

#[test]
fn suite_blocks_on_every_problem() {
    // Every suite problem must produce at least one wide panel — the
    // engine has real dense work on all of them (the lu_compare
    // numbers rest on this).
    for p in unsym_suite(SuiteScale::Test) {
        let lu = SympilerLu::compile(&p.matrix, &SympilerOptions::default()).unwrap();
        let plan = lu
            .supernodal()
            .unwrap_or_else(|| panic!("{} never blocked", p.name));
        assert!(plan.n_wide_panels() > 0, "{} never blocked", p.name);
        assert!(plan.mean_panel_width() > 1.0, "{}", p.name);
    }
}

#[test]
fn colamd_circuit_flops_run_in_dense_panels() {
    // The acceptance bar, stated as what the dense kernels need: under
    // the compiler's rule (relaxed amalgamation, then thin panels
    // dissolved) COLAMD-ordered circuit factorizations keep ≥ 90 % of
    // their structural flops in dense panels, and the dense path
    // executes at most 2× those flops — wide panels alone are not the
    // goal, useful dense work is. The strict-nesting partition
    // (`relax_fill = 0`) stays available, pads nothing, and blocks
    // less. The solve ledger's `refactor_dense` circuit joins the
    // suite's: this pins the tier that workload runs.
    let circuits = unsym_suite(SuiteScale::Test)
        .into_iter()
        .filter(|p| p.family == "circuit-unsym")
        .map(|p| (p.name, p.matrix))
        .chain([(
            "refactor_dense",
            sympiler::sparse::gen::circuit_unsym(1200, 4, 2, 1),
        )]);
    for (name, matrix) in circuits {
        let auto = SympilerLu::compile(
            &matrix,
            &SympilerOptions {
                ordering: Ordering::Colamd,
                ..Default::default()
            },
        )
        .unwrap();
        let plan = auto
            .supernodal()
            .unwrap_or_else(|| panic!("{}: compile must keep dense panels", name));
        assert!(
            plan.dense_flop_share() >= 0.9,
            "{}: only {:.1}% of the flops run in dense panels",
            name,
            plan.dense_flop_share() * 100.0
        );
        assert!(
            plan.dense_executed_flops() <= 2 * plan.dense_structural_flops(),
            "{}: dense path executes {} flops for {} structural",
            name,
            plan.dense_executed_flops(),
            plan.dense_structural_flops()
        );
        let on = |relax_fill| panels_under(auto.plan(), MAX_PANEL, relax_fill, RELAX_COLS);
        let (relaxed, strict) = (on(RELAX_FILL), on(0.0));
        assert_eq!(strict.padded_zeros(), 0);
        assert!(
            relaxed.mean_panel_width() > strict.mean_panel_width(),
            "{}: the relaxed budget must widen panels over strict nesting",
            name
        );
        // Forcing keeps every detected panel dense; compile only thins.
        assert!(plan.n_wide_panels() <= relaxed.n_wide_panels());
    }
}

#[test]
fn auto_runs_fill_free_circuits_scalar() {
    // A near-fill-free circuit (fill 1.24): relaxed amalgamation
    // merges *any* adjacent columns, so every detected panel is 3–4
    // columns with disjoint singleton sources and the dense path
    // would execute ~10× the structural flops. Compile must not block.
    // The pattern is the solve ledger's `refactor_sparse`: this pins
    // the tier that workload runs.
    let a = sympiler::sparse::gen::circuit_unsym(20000, 1, 0, 1);
    let opts = SympilerOptions {
        ordering: Ordering::Colamd,
        ..Default::default()
    };
    let auto = SympilerLu::compile(&a, &opts).unwrap();
    // No dense panel survives: the scalar tier, no dense flop.
    assert!(!auto.is_supernodal() && auto.supernodal().is_none());
    let on = panels_under(auto.plan(), MAX_PANEL, RELAX_FILL, RELAX_COLS);
    assert!(
        on.dense_executed_flops() > 5 * on.dense_structural_flops(),
        "the pattern must exhibit the waste: {} executed for {} structural",
        on.dense_executed_flops(),
        on.dense_structural_flops()
    );
    let n = a.n_cols();
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
    let x = auto.factor(&a).unwrap().solve(&b);
    assert!(ops::rel_residual(&a, &x, &b) < 1e-10);
}

#[test]
fn supernodal_factors_are_bitwise_stable_and_backward_stable() {
    // The determinism contract on one host: a supernodal factor does
    // not move a bit with profiling on or off, or with a reused
    // workspace — every panel runs one fixed
    // operation sequence. And across (ordering × pre_pivot × relax)
    // the componentwise backward error of the factored system stays
    // under the strict 1e-10, whichever instantiation of the update
    // kernel (fused multiply-subtract or not) this host dispatches to.
    use sympiler::solvers::lu::lu_backward_error;
    let problems = [
        (
            "circuit",
            sympiler::sparse::gen::circuit_unsym(220, 4, 2, 41),
        ),
        (
            "convdiff",
            sympiler::sparse::gen::convection_diffusion_2d(13, 11, 1.5, 42),
        ),
        (
            "zero_diag",
            sympiler::sparse::gen::circuit_zero_diag(160, 4, 2, 43),
        ),
    ];
    for (name, a) in &problems {
        let n = a.n_cols();
        let identity: Vec<usize> = (0..n).collect();
        for ordering in Ordering::ALL {
            for pre_pivot in [PrePivot::Off, PrePivot::WeightedMatching] {
                if *name == "zero_diag" && pre_pivot == PrePivot::Off {
                    continue; // hard error by contract
                }
                let opts = SympilerOptions {
                    ordering,
                    pre_pivot,
                    mc64_scale: pre_pivot == PrePivot::WeightedMatching,
                    ..Default::default()
                };
                let lu = SympilerLu::compile(a, &opts).unwrap();
                let profiled = SympilerLu::compile(
                    a,
                    &SympilerOptions {
                        profile: true,
                        ..opts.clone()
                    },
                )
                .unwrap();
                for relax_fill in [0.0, RELAX_FILL] {
                    let what = format!("{name} {ordering:?}+{pre_pivot:?} relax {relax_fill}");
                    let one = panels_under(lu.plan(), MAX_PANEL, relax_fill, RELAX_COLS);
                    let f1 = one.factor(a).unwrap();
                    let reference = factor_bits(&f1);
                    let mut ws = LuWorkspace::new();
                    for round in 0..2 {
                        let f = one.factor_with(a, &mut ws).unwrap();
                        assert_eq!(
                            factor_bits(&f),
                            reference,
                            "{what}: workspace round {round}"
                        );
                        assert!(ws.is_clear(), "{what}: accumulator all-zero");
                    }
                    let traced = panels_under(profiled.plan(), MAX_PANEL, relax_fill, RELAX_COLS);
                    assert_eq!(
                        factor_bits(&traced.factor(a).unwrap()),
                        reference,
                        "{what}: profiling on"
                    );
                    let as_gp = GpLuFactors {
                        l: f1.l().clone(),
                        u: f1.u().clone(),
                        row_perm: identity.clone(),
                    };
                    let eta = lu_backward_error(&composed_system(lu.plan(), a), &as_gp);
                    assert!(eta <= 1e-10, "{what}: backward error {eta:.3e}");
                }
            }
        }
    }
}

#[test]
fn max_panel_knob_caps_widths_and_stays_correct() {
    let p = &unsym_suite(SuiteScale::Test)[2]; // circuit_small_u
    let lu = SympilerLu::compile(&p.matrix, &SympilerOptions::default()).unwrap();
    let mut reference: Option<LuFactor> = None;
    for max_panel in [2usize, 8, 0] {
        let plan = panels_under(lu.plan(), max_panel, RELAX_FILL, RELAX_COLS);
        if max_panel > 0 {
            assert!(plan.max_panel_width() <= max_panel, "cap {max_panel}");
        }
        let f = plan.factor(&p.matrix).unwrap();
        match &reference {
            None => reference = Some(f),
            Some(r) => assert_factors_close(&f, r, &format!("cap {max_panel}")),
        }
    }
}

#[test]
fn sparse_rhs_solves_agree_with_dense_across_tiers() {
    let p = &unsym_suite(SuiteScale::Test)[0]; // convdiff_mild_u
    let n = p.matrix.n_cols();
    let idx: Vec<usize> = (0..n).filter(|i| i % 41 == 3).collect();
    let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 3) as f64).collect();
    let b = SparseVec::try_new(n, idx, vals).unwrap();
    let serial = LuPlan::build(&p.matrix, &SympilerOptions::default()).unwrap();
    let colamd = SympilerOptions {
        ordering: Ordering::Colamd,
        ..Default::default()
    };
    let supernodal = SympilerLu::compile(&p.matrix, &colamd).unwrap();
    assert!(supernodal.is_supernodal(), "the COLAMD grid blocks");
    for (label, f) in [
        ("serial", serial.factor(&p.matrix)),
        ("supernodal+colamd", supernodal.factor(&p.matrix)),
    ] {
        let f = f.unwrap();
        let xs = f.solve_sparse(&b);
        let xd = f.solve(&b.to_dense());
        let xs_dense = xs.to_dense();
        for i in 0..n {
            assert!(
                (xs_dense[i] - xd[i]).abs() < 1e-11,
                "{label}: row {i}: {} vs {}",
                xs_dense[i],
                xd[i]
            );
        }
        // And the sparse solve answers the original system.
        assert!(
            ops::rel_residual(&p.matrix, &xs_dense, &b.to_dense()) < 1e-10,
            "{label}: residual"
        );
    }
}
