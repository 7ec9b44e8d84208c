//! Edge-case integration tests: degenerate sizes, empty inputs,
//! extreme options — the inputs a downstream user will eventually feed
//! the library.

use sympiler::core::plan::chol::{CholPlan, MAX_SUPERNODE_WIDTH};
use sympiler::core::plan::lu_supernodal::{RELAX_COLS, RELAX_FILL};
use sympiler::core::plan::tri::{TriScratch, TriVariant, PEEL_COL_COUNT};
use sympiler::prelude::*;
use sympiler::sparse::gen;

#[test]
fn one_by_one_system() {
    let mut t = TripletMatrix::new(1, 1);
    t.push(0, 0, 9.0);
    let a = t.to_csc().unwrap();
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    let f = chol.factor(&a).unwrap();
    let l = f.to_csc();
    assert!((l.get(0, 0) - 3.0).abs() < 1e-15);
    let x = f.solve(&[18.0]);
    assert!((x[0] - 2.0).abs() < 1e-12);
}

#[test]
fn empty_rhs_trisolve_plan() {
    let l = gen::random_lower_triangular(20, 2, 1);
    let mut ts = SympilerTriSolve::compile(&l, &[], &SympilerOptions::default());
    assert_eq!(ts.reach().len(), 0);
    assert_eq!(ts.flops(), 0);
    let b = SparseVec::zeros(20);
    let x = ts.solve(&b);
    assert!(x.iter().all(|&v| v == 0.0));
}

#[test]
fn rhs_at_last_column_only() {
    let l = gen::random_lower_triangular(30, 3, 2);
    let b = SparseVec::try_new(30, vec![29], vec![7.0]).unwrap();
    let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
    assert_eq!(ts.reach(), &[29], "last column reaches nothing else");
    let x = ts.solve(&b);
    assert!((x[29] - 7.0 / l.get(29, 29)).abs() < 1e-12);
    assert_eq!(x.iter().filter(|&&v| v != 0.0).count(), 1);
}

#[test]
fn dense_rhs_equals_unpruned_plan() {
    let l = gen::random_lower_triangular(25, 3, 3);
    let beta: Vec<usize> = (0..25).collect();
    let values = vec![1.0; 25];
    let b = SparseVec::try_new(25, beta.clone(), values).unwrap();
    let mut ts = SympilerTriSolve::compile(&l, &beta, &SympilerOptions::default());
    assert_eq!(ts.reach().len(), 25);
    let x = ts.solve(&b);
    let mut expect = b.to_dense();
    sympiler::solvers::trisolve::naive_forward(&l, &mut expect);
    for (p, q) in x.iter().zip(&expect) {
        assert!((p - q).abs() < 1e-11);
    }
}

#[test]
fn extreme_supernode_width_caps() {
    let a = gen::banded_spd(30, 5, 4);
    for width in [1usize, 2, 64, 1000] {
        let chol = CholPlan::build(&a, width, RELAX_FILL, RELAX_COLS, true).unwrap();
        let f = chol.factor(&a).unwrap();
        let b = vec![1.0; 30];
        let x = f.solve(&b);
        let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-12, "width cap {width}: residual {resid}");
    }
}

#[test]
fn all_options_off_still_correct() {
    let a = gen::grid2d_laplacian(6, 6, false, 5);
    // Width-1 supernodes (no VS-Block), no low-level kernels.
    let chol = CholPlan::build(&a, 1, RELAX_FILL, RELAX_COLS, false).unwrap();
    let f = chol.factor(&a).unwrap();
    let l_ref = sympiler::solvers::SimplicialCholesky::analyze(&a)
        .unwrap()
        .factor(&a)
        .unwrap();
    for (p, q) in f.to_csc().values().iter().zip(l_ref.values()) {
        assert!((p - q).abs() < 1e-9);
    }
    // Trisolve with everything off.
    let l = f.to_csc();
    let b = SparseVec::try_new(36, vec![0], vec![1.0]).unwrap();
    let off = TriVariant {
        vs_block: false,
        vi_prune: false,
        low_level: false,
    };
    let ts = TriSolvePlan::build(&l, b.indices(), off, MAX_SUPERNODE_WIDTH, PEEL_COL_COUNT);
    let mut x = vec![0.0; 36];
    ts.solve(&b, &mut x, &mut TriScratch::default());
    let mut expect = b.to_dense();
    sympiler::solvers::trisolve::naive_forward(&l, &mut expect);
    for (p, q) in x.iter().zip(&expect) {
        assert!((p - q).abs() < 1e-11);
    }
}

#[test]
fn huge_peel_threshold_disables_peeling() {
    let l = gen::random_lower_triangular(40, 5, 6);
    let beta: Vec<usize> = vec![0, 3];
    // The variant `SympilerTriSolve::compile` picks, at other peel
    // thresholds.
    let compiled = SympilerTriSolve::compile(&l, &beta, &SympilerOptions::default());
    let variant = compiled.plan().variant();
    let ts = TriSolvePlan::build(&l, &beta, variant, MAX_SUPERNODE_WIDTH, usize::MAX);
    assert_eq!(ts.n_peeled(), 0);
    // Threshold 0 peels everything reached (every column has >= 1 nnz).
    let unblocked = TriVariant {
        vs_block: false,
        ..variant
    };
    let ts0 = TriSolvePlan::build(&l, &beta, unblocked, MAX_SUPERNODE_WIDTH, 0);
    assert_eq!(ts0.n_peeled(), compiled.reach().len());
}

#[test]
fn zero_matrix_dimension() {
    let a = CscMatrix::zeros(0, 0);
    let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
    let f = chol.factor(&a).unwrap();
    assert_eq!(f.solve(&[]).len(), 0);
}

#[test]
fn values_scaled_by_tiny_and_huge_factors() {
    // Numeric robustness across magnitudes (pattern constant).
    let a0 = gen::grid2d_laplacian(5, 5, false, 7);
    let chol = SympilerCholesky::compile(&a0, &SympilerOptions::default()).unwrap();
    for scale in [1e-150, 1e-30, 1e30, 1e150] {
        let mut a = a0.clone();
        for v in a.values_mut() {
            *v *= scale;
        }
        let f = chol.factor(&a).unwrap();
        let b = vec![scale; 25];
        let x = f.solve(&b);
        let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        assert!(resid < 1e-10, "scale {scale:e}: residual {resid}");
    }
}

#[test]
fn lu_one_by_one_system() {
    let mut t = TripletMatrix::new(1, 1);
    t.push(0, 0, 4.0);
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let f = lu.factor(&a).unwrap();
    assert_eq!(f.l().get(0, 0), 1.0);
    assert_eq!(f.u().get(0, 0), 4.0);
    let x = f.solve(&[12.0]);
    assert!((x[0] - 3.0).abs() < 1e-15);
}

#[test]
fn lu_diagonal_matrix_is_trivial() {
    let mut t = TripletMatrix::new(6, 6);
    for j in 0..6 {
        t.push(j, j, (j + 1) as f64);
    }
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    assert_eq!(lu.plan().n_updates(), 0, "diagonal needs no updates");
    let f = lu.factor(&a).unwrap();
    assert_eq!(f.l().nnz(), 6);
    assert_eq!(f.u().nnz(), 6);
    let b: Vec<f64> = (1..=6).map(|i| i as f64).collect();
    let x = f.solve(&b);
    for v in x {
        assert!((v - 1.0).abs() < 1e-15);
    }
}

#[test]
fn lu_fully_dense_column_fills_and_factors() {
    // A dense first row + column (arrow) plus a superdiagonal chain:
    // the worst-case single column stays exact.
    let n = 12;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 10.0 + j as f64);
    }
    for i in 1..n {
        t.push(i, 0, -0.5);
        t.push(0, i, -0.25);
        if i >= 2 {
            t.push(i - 1, i, -0.125);
        }
    }
    let a = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let f = lu.factor(&a).unwrap();
    // Column 0 of L is fully dense.
    assert_eq!(f.l().col_nnz(0), n);
    let base = GpLu::factor(&a, Pivoting::None).unwrap();
    assert!(f.l().same_pattern(&base.l));
    for (p, q) in f.l().values().iter().zip(base.l.values()) {
        assert!((p - q).abs() < 1e-12);
    }
    let b = vec![1.0; n];
    let x = f.solve(&b);
    assert!(sympiler::sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
}

#[test]
fn lu_pattern_mismatch_and_zero_pivot_are_reported() {
    let a = gen::random_unsym(15, 3, 1);
    let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
    let other = gen::random_unsym(15, 3, 2);
    assert!(lu.factor(&other).is_err(), "pattern mismatch must fail");
    let mut t = TripletMatrix::new(2, 2);
    t.push(0, 0, 1.0);
    t.push(1, 1, 1.0);
    let d = t.to_csc().unwrap();
    let lu = SympilerLu::compile(&d, &SympilerOptions::default()).unwrap();
    let mut bad = d.clone();
    bad.values_mut()[0] = 0.0;
    assert!(lu.factor(&bad).is_err(), "zero pivot must fail");
}

/// The serial tier's position-addressed walker on the inputs that
/// leave it nothing to walk — `n ∈ {0, 1}`, a diagonal (empty op
/// stream), the pre-pivot's identity fast path — and on non-finite
/// values: always the bits of a directly built plan, which runs the
/// accumulator kernel, and of its factors' solves, which run the
/// column sweeps.
#[test]
fn lu_walker_matches_the_accumulator_kernel_on_degenerate_and_non_finite_input() {
    use sympiler::core::plan::lu::LuPlan;
    // Factor values, then the solves of a right-hand side with zeros
    // (whose terms both sweeps skip) and of the same with a NaN.
    let bits = |f: &LuFactor| -> Vec<u64> {
        let n = f.l().n_cols();
        let b: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 0.0 } else { -(i as f64) })
            .collect();
        let mut nan = b.clone();
        if let Some(v) = nan.last_mut() {
            *v = f64::NAN;
        }
        let (l, u) = (f.l().values(), f.u().values());
        let (x, y) = (f.solve(&b), f.solve(&nan));
        l.iter()
            .chain(u)
            .chain(&x)
            .chain(&y)
            .map(|v| v.to_bits())
            .collect()
    };
    let empty = CscMatrix::try_new(0, 0, vec![0], vec![], vec![]).unwrap();
    let mut one = TripletMatrix::new(1, 1);
    one.push(0, 0, -4.0);
    // A two-row grid: banded, under one multiply-add per factor entry.
    let banded = gen::convection_diffusion_2d(2, 25, 1.5, 9);
    let mut poisoned = banded.clone();
    let last = poisoned.nnz() - 1;
    poisoned.values_mut()[3] = f64::NAN;
    poisoned.values_mut()[last / 2] = f64::INFINITY;
    poisoned.values_mut()[last] = f64::NEG_INFINITY;
    let cases = [
        ("empty", empty.clone(), empty),
        ("1x1", one.to_csc().unwrap(), one.to_csc().unwrap()),
        ("diagonal", CscMatrix::identity(7), CscMatrix::identity(7)),
        ("banded", banded.clone(), banded.clone()),
        ("NaN/Inf values", banded, poisoned),
    ];
    for (label, pattern, a) in &cases {
        for pre_pivot in [PrePivot::Off, PrePivot::Transversal] {
            let opts = SympilerOptions {
                pre_pivot,
                ..Default::default()
            };
            let lu = SympilerLu::compile(pattern, &opts).unwrap();
            assert!(!lu.is_supernodal(), "{label}: no panel pays here");
            // A full diagonal matches to the identity: nothing is baked.
            assert!(lu.row_perm().is_none(), "{label}: identity fast path");
            let reference = LuPlan::build(pattern, &opts).unwrap();
            assert!(
                pattern.n_cols() == 0 || lu.table_bytes() > reference.table_bytes(),
                "{label}: the serial tier bakes position tables here"
            );
            let mut ws = LuWorkspace::new();
            let f = lu.factor_with(a, &mut ws).unwrap();
            assert_eq!(ws.capacity(), 0, "{label}: the walker needs no workspace");
            assert_eq!(bits(&f), bits(&reference.factor(a).unwrap()), "{label}");
        }
    }
}

/// One `LuWorkspace` serves a walker plan (which ignores it), an
/// accumulator plan and a supernodal plan in alternation, failures
/// included, and stays valid: all zeros, never shrunk, answers
/// unchanged.
#[test]
fn lu_workspace_shared_between_direct_and_supernodal_plans_stays_valid() {
    let sparse = gen::circuit_unsym(300, 1, 0, 5);
    let dense = gen::circuit_unsym(120, 4, 2, 6);
    let walker = SympilerLu::compile(&sparse, &SympilerOptions::default()).unwrap();
    assert!(!walker.is_supernodal(), "fill-free circuits run scalar");
    let supernodal = SympilerLu::compile(&dense, &SympilerOptions::default()).unwrap();
    assert!(supernodal.is_supernodal(), "the heavy-fill circuit blocks");
    let accumulator = LuPlan::build(&dense, &SympilerOptions::default()).unwrap();
    let mut zero_pivot = sparse.clone();
    let first_diag = (0..zero_pivot.col_ptr()[1])
        .find(|&p| zero_pivot.row_idx()[p] == 0)
        .unwrap();
    zero_pivot.values_mut()[first_diag] = 0.0;

    let bits = |f: LuFactor| -> Vec<u64> {
        let (l, u) = f.into_parts();
        let (l, u) = (l.values(), u.values());
        l.iter().chain(u).map(|v| v.to_bits()).collect()
    };
    let fresh = (
        bits(walker.factor(&sparse).unwrap()),
        bits(supernodal.factor(&dense).unwrap()),
        bits(accumulator.factor(&dense).unwrap()),
    );
    let mut ws = LuWorkspace::new();
    let mut grown = 0;
    for round in 0..3 {
        assert_eq!(bits(walker.factor_with(&sparse, &mut ws).unwrap()), fresh.0);
        assert_eq!(
            ws.capacity(),
            grown,
            "round {round}: the walker left it alone"
        );
        assert!(walker.factor_with(&zero_pivot, &mut ws).is_err());
        assert_eq!(
            bits(supernodal.factor_with(&dense, &mut ws).unwrap()),
            fresh.1
        );
        assert_eq!(
            bits(accumulator.factor_with(&dense, &mut ws).unwrap()),
            fresh.2
        );
        assert!(ws.is_clear(), "round {round}");
        assert!(ws.capacity() >= grown);
        grown = ws.capacity();
    }
    assert!(grown >= 120);
}

/// A row index equal to the compiled one only modulo 2³² is a pattern
/// mismatch in every tier: accepted, it would index a baked map out of
/// bounds.
#[cfg(target_pointer_width = "64")]
#[test]
fn lu_row_index_beyond_u32_is_a_pattern_mismatch_in_every_tier() {
    use sympiler::core::plan::lu::LuPlanError;
    let beyond_u32 = |good: &CscMatrix| {
        let mut rows = good.row_idx().to_vec();
        let last = good.col_ptr()[1] - 1; // last (largest) row of column 0
        rows[last] += 1 << 32;
        // Valid CSC (so debug builds construct it): the row count grows
        // with the index, the column count stays the compiled one.
        CscMatrix::from_parts_unchecked(
            good.n_rows() + (1 << 32),
            good.n_cols(),
            good.col_ptr().to_vec(),
            rows,
            good.values().to_vec(),
        )
    };
    // The compiler keeps the fill-free circuit scalar and blocks the
    // heavy-fill one.
    let sparse = gen::circuit_unsym(80, 1, 0, 2);
    let dense = gen::circuit_unsym(80, 4, 2, 11);
    let tiers = [("scalar", &sparse), ("supernodal", &dense)];
    for (label, good) in tiers {
        let bad = beyond_u32(good);
        // COLAMD bakes an inverse row map the bad index would overrun.
        for ordering in [Ordering::Natural, Ordering::Colamd] {
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let lu = SympilerLu::compile(good, &opts).unwrap();
            assert_eq!(
                lu.is_supernodal(),
                label == "supernodal",
                "{label} {ordering:?}: the tier under test"
            );
            assert!(lu.factor(good).is_ok());
            assert_eq!(
                lu.factor(&bad).unwrap_err(),
                LuPlanError::PatternMismatch,
                "{label} factor"
            );
            assert_eq!(
                lu.factor_with(&bad, &mut LuWorkspace::new()).unwrap_err(),
                LuPlanError::PatternMismatch,
                "{label} factor_with"
            );
            let err = lu.factor_batch(&[good, &bad]).unwrap_err();
            assert_eq!(
                (err.index, err.error),
                (1, LuPlanError::PatternMismatch),
                "{label} factor_batch"
            );
        }
    }
}

/// `good`'s column pointers and values over `n_rows` rows with the
/// given row indices, in fresh arrays — an input every plan compares in
/// full.
fn reshaped(good: &CscMatrix, n_rows: usize, rows: Vec<usize>) -> CscMatrix {
    let (col_ptr, vals) = (good.col_ptr().to_vec(), good.values().to_vec());
    CscMatrix::try_new(n_rows, good.n_cols(), col_ptr, rows, vals).unwrap()
}

/// The compiled Cholesky pattern is compared widened, never the input
/// narrowed: a row index equal to the compiled one modulo 2³² is a
/// mismatch.
#[cfg(target_pointer_width = "64")]
#[test]
fn chol_row_index_beyond_u32_is_a_pattern_mismatch() {
    use sympiler::core::plan::chol::CholPlanError;
    let good = gen::grid2d_laplacian(6, 6, false, 3);
    let chol = SympilerCholesky::compile(&good, &SympilerOptions::default()).unwrap();
    assert!(chol.factor(&good).is_ok());
    let mut rows = good.row_idx().to_vec();
    rows[good.col_ptr()[1] - 1] += 1 << 32; // last (largest) row of column 0
    let bad = reshaped(&good, good.n_rows() + (1 << 32), rows);
    assert_eq!(
        chol.factor(&bad).err(),
        Some(CholPlanError::PatternMismatch)
    );
}

/// An `(n + 3) × n` copy of the compiled matrix — the same column
/// pointers, row indices and values over three more rows — is not the
/// compiled matrix, in either LU tier or in Cholesky.
#[test]
fn a_taller_copy_of_the_compiled_matrix_is_a_pattern_mismatch() {
    use sympiler::core::plan::chol::CholPlanError;
    use sympiler::core::plan::lu::LuPlanError;
    let a = gen::circuit_unsym(80, 4, 2, 11);
    let taller = reshaped(&a, a.n_rows() + 3, a.row_idx().to_vec());
    let opts = SympilerOptions::default();
    let lu = SympilerLu::compile(&a, &opts).unwrap();
    assert!(lu.is_supernodal(), "the heavy-fill circuit blocks");
    let scalar = LuPlan::build(&a, &opts).unwrap();
    for (tier, good, bad) in [
        ("supernodal", lu.factor(&a), lu.factor(&taller)),
        ("scalar", scalar.factor(&a), scalar.factor(&taller)),
    ] {
        assert!(good.is_ok(), "{tier}");
        assert_eq!(bad.unwrap_err(), LuPlanError::PatternMismatch, "{tier}");
    }
    let spd = gen::grid2d_laplacian(6, 6, false, 3);
    let chol = SympilerCholesky::compile(&spd, &SympilerOptions::default()).unwrap();
    assert!(chol.factor(&spd).is_ok());
    let taller = reshaped(&spd, spd.n_rows() + 3, spd.row_idx().to_vec());
    assert_eq!(
        chol.factor(&taller).err(),
        Some(CholPlanError::PatternMismatch)
    );
}
