//! One differential oracle for the compiled kernels: one generator
//! ([`oracle::cases`]), one gate ([`oracle::gate`]) and one minimiser
//! ([`oracle::ddmin`]).
//!
//! Every LU case runs every cell (ordering × pre-pivot × `mc64_scale`
//! × `pivot_perturb`; the suites only the unarmed one) on every tier and
//! entry point against the coupled baselines: bitwise where the
//! contract says bitwise, backward error ≤ 1e-10 where an engine
//! reassociates. The budget is the fixed seed list of
//! [`oracle::cases::SEEDS`] plus the fixed shapes and the test-scale
//! suites.
//!
//! A failing case is minimised before the test panics: the message
//! holds the survivor as a Matrix Market literal with the failing cell
//! and check in its comments. To pin it, paste the literal into a test
//! and run `gate::recheck` (or `gate::check_lu`) on
//! `read_matrix_market(LITERAL.as_bytes())`.

mod common;
mod oracle {
    pub mod cases;
    pub mod ddmin;
    pub mod gate;
}

use oracle::gate::{self, Engine, Real, PERTURBS};
use oracle::{cases, ddmin};
use sympiler::graph::rcm::rcm_permute;
use sympiler::prelude::*;
use sympiler::sparse::io::{read_matrix_market, MmSymmetry};
use sympiler::sparse::suite::{suite, unsym_suite, SuiteScale};

/// Runs the LU gate on every case; a failure is minimised and the test
/// panics with the survivor's literal.
fn assert_lu_gate(cases: &[(String, CscMatrix)], perturbs: &[f64]) {
    for (name, a) in cases {
        if let Err(first) = gate::check_lu(&Real, a, perturbs) {
            let (small, failure) =
                ddmin::minimise(a, first.clone(), |m| gate::recheck(&Real, m, &first));
            panic!(
                "{name}: {first}\nminimised to {}x{}:\n{}",
                small.n_rows(),
                small.n_cols(),
                ddmin::literal(&small, &failure)
            );
        }
    }
}

#[test]
fn generator_families_pass_the_lu_gate() {
    assert_lu_gate(&cases::unsym_families(), &PERTURBS);
}

#[test]
fn zero_diagonal_families_pass_the_lu_gate() {
    assert_lu_gate(&cases::zero_diag_families(), &PERTURBS);
}

#[test]
fn adversarial_shapes_pass_the_lu_gate() {
    assert_lu_gate(&cases::adversarial(), &PERTURBS);
}

/// The unsymmetric suite problems `ids`, each read back from Matrix
/// Market, in the unarmed cell of every group: the small cases above
/// carry the perturbation axis, and the suite's heavy-fill orderings
/// would triple the budget.
fn assert_suite_passes(ids: &[usize]) {
    let cases: Vec<(String, CscMatrix)> = unsym_suite(SuiteScale::Test)
        .into_iter()
        .filter(|p| ids.contains(&p.id))
        .map(|p| {
            (
                p.name.to_string(),
                cases::round_trip(&p.matrix, MmSymmetry::General),
            )
        })
        .collect();
    assert_lu_gate(&cases, &[0.0]);
}

/// The suite in two halves of about equal cost, so that they run on
/// two threads.
#[test]
fn the_unsymmetric_suite_passes_the_lu_gate_from_matrix_market_1() {
    assert_suite_passes(&[1, 2, 4]);
}

#[test]
fn the_unsymmetric_suite_passes_the_lu_gate_from_matrix_market_2() {
    assert_suite_passes(&[3, 5, 6, 7]);
}

#[test]
fn spd_and_lower_triangular_cases_pass_their_gates() {
    for (name, a) in cases::spd_families() {
        gate::check_cholesky(&a).unwrap_or_else(|f| panic!("{name}: {f}"));
    }
    for (name, l, b) in cases::lower_families() {
        gate::check_trisolve(&l, &b).unwrap_or_else(|f| panic!("{name}: {f}"));
    }
}

/// The SPD suite, each problem read back from Matrix Market, as stored
/// and under RCM.
#[test]
fn the_spd_suite_passes_the_cholesky_gate_from_matrix_market() {
    for p in suite(SuiteScale::Test) {
        let back = cases::round_trip(&p.matrix, MmSymmetry::Symmetric);
        for a in [rcm_permute(&back).0, back] {
            gate::check_cholesky(&a).unwrap_or_else(|f| panic!("{}: {f}", p.name));
        }
    }
}

/// Reports the `L` of every factor with one value corrupted: the first
/// column with at least two updates and an entry below the diagonal.
struct Planted;

impl Engine for Planted {
    fn read(&self, f: &LuFactor) -> (CscMatrix, CscMatrix) {
        let (mut l, u) = (f.l().clone(), f.u().clone());
        if let Some(j) = (0..u.n_cols()).find(|&j| u.col_nnz(j) >= 3 && l.col_nnz(j) >= 2) {
            let p = l.col_ptr()[j] + 1;
            l.values_mut()[p] += 1.0;
        }
        (l, u)
    }
}

#[test]
fn the_minimiser_shrinks_a_planted_bug_to_a_few_columns() {
    let a = sympiler::sparse::gen::circuit_unsym(200, 3, 1, 7);
    let failure =
        gate::check_lu(&Planted, &a, &PERTURBS).expect_err("the gate sees the planted bug");
    let first = failure.clone();
    let (small, failure) = ddmin::minimise(&a, failure, |m| gate::recheck(&Planted, m, &first));
    let text = ddmin::literal(&small, &failure);
    assert!(
        small.n_cols() <= 6,
        "{} columns survive:\n{text}",
        small.n_cols()
    );
    let back = read_matrix_market(text.as_bytes()).unwrap().matrix;
    let again = gate::recheck(&Planted, &back, &failure).expect_err("the literal still fails");
    assert_eq!(again.check, failure.check, "{text}");
    gate::check_lu(&Real, &back, &PERTURBS)
        .unwrap_or_else(|f| panic!("the shipped engine: {f}\n{text}"));
}
