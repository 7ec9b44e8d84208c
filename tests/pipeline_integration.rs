//! Cross-crate integration: the full Sympiler pipeline on every suite
//! problem at test scale — generate, order, compile, factor, solve,
//! verify; plus Matrix Market round-trips and the repeated-values
//! scenario the paper is built around.

use sympiler::prelude::*;
use sympiler::solvers::{SimplicialCholesky, SupernodalCholesky};
use sympiler::sparse::io::{read_matrix_market, write_matrix_market, MmSymmetry};
use sympiler::sparse::suite::{suite, SuiteScale};
use sympiler::sparse::{ops, rhs};

#[test]
fn full_pipeline_on_every_suite_problem() {
    for p in suite(SuiteScale::Test) {
        let (a, _) = sympiler::graph::rcm::rcm_permute(&p.matrix);
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let f = chol
            .factor(&a)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        let resid = ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-9, "{}: residual {resid}", p.name);
    }
}

#[test]
fn three_cholesky_engines_agree_on_every_suite_problem() {
    for p in suite(SuiteScale::Test) {
        let (a, _) = sympiler::graph::rcm::rcm_permute(&p.matrix);
        let l_eigen = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        let l_cholmod = SupernodalCholesky::analyze(&a, 64)
            .unwrap()
            .factor(&a)
            .unwrap()
            .to_csc();
        let l_symp = SympilerCholesky::compile(&a, &SympilerOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap()
            .to_csc();
        assert!(l_eigen.same_pattern(&l_cholmod), "{}", p.name);
        assert!(l_eigen.same_pattern(&l_symp), "{}", p.name);
        for ((x, y), z) in l_eigen
            .values()
            .iter()
            .zip(l_cholmod.values())
            .zip(l_symp.values())
        {
            assert!((x - y).abs() < 1e-8, "{}: {x} vs {y}", p.name);
            assert!((x - z).abs() < 1e-8, "{}: {x} vs {z}", p.name);
        }
    }
}

#[test]
fn trisolve_engines_agree_on_factor_patterns() {
    for p in suite(SuiteScale::Test).into_iter().take(6) {
        let (a, _) = sympiler::graph::rcm::rcm_permute(&p.matrix);
        let l = SympilerCholesky::compile(&a, &SympilerOptions::default())
            .unwrap()
            .factor(&a)
            .unwrap()
            .to_csc();
        let b = rhs::rhs_from_column_pattern(&l, l.n_cols() / 3, 9);
        let mut x_ref = b.to_dense();
        sympiler::solvers::trisolve::naive_forward(&l, &mut x_ref);
        let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        let x = ts.solve(&b);
        for i in 0..l.n_cols() {
            assert!(
                (x[i] - x_ref[i]).abs() < 1e-9,
                "{}: x[{i}] {} vs {}",
                p.name,
                x[i],
                x_ref[i]
            );
        }
    }
}

#[test]
fn matrix_market_roundtrip_preserves_factorization() {
    let p = &suite(SuiteScale::Test)[4];
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &p.matrix, MmSymmetry::Symmetric).unwrap();
    let back = read_matrix_market(&buf[..]).unwrap().matrix;
    assert_eq!(back, p.matrix);
    // Factor the round-tripped matrix.
    let chol = SympilerCholesky::compile(&back, &SympilerOptions::default()).unwrap();
    assert!(chol.factor(&back).is_ok());
}

#[test]
fn static_pattern_changing_values_contract() {
    // The core Sympiler premise (§1.2): one compile, many factorizations
    // with the same pattern and different values.
    let p = &suite(SuiteScale::Test)[1];
    let (a0, _) = sympiler::graph::rcm::rcm_permute(&p.matrix);
    let chol = SympilerCholesky::compile(&a0, &SympilerOptions::default()).unwrap();
    let mut a = a0.clone();
    for round in 1..=5 {
        for v in a.values_mut() {
            *v *= 1.0 + 0.1 / round as f64;
        }
        let f = chol.factor(&a).unwrap();
        let l_ref = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        for (x, y) in f.to_csc().values().iter().zip(l_ref.values()) {
            assert!((x - y).abs() < 1e-8, "round {round}");
        }
    }
}

#[test]
fn symbolic_reports_expose_inspection_cost() {
    let p = &suite(SuiteScale::Test)[2];
    let (a, _) = sympiler::graph::rcm::rcm_permute(&p.matrix);
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    let report = chol.report();
    assert!(report.total().as_nanos() > 0);
    assert!(report.size_of("supernodes").unwrap() >= 1);
    assert!(report.size_of("nnz(L)").unwrap() >= a.nnz());
}
