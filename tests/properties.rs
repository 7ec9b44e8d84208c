//! Property-based tests (proptest) over the core invariants:
//!
//! * every Cholesky engine reconstructs `A = L L^T`;
//! * every triangular-solve variant matches dense substitution;
//! * reach-sets equal brute-force reachability and are topological;
//! * symbolic predictions (pattern, flops) match numeric reality;
//! * supernode partitions are contiguous covers with nesting patterns;
//! * LU engines satisfy `P A = L U` against the dense reference;
//! * the pruned symbolic LU equals boolean elimination.

mod common;

use common::factor_on_tier;
use proptest::prelude::*;
use sympiler::core::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler::prelude::*;
use sympiler::solvers::{SimplicialCholesky, SupernodalCholesky};

/// `a`'s plan under `opts` with every panel detected at cap
/// `max_panel` and budget `relax_fill` (in place of the compiler's
/// `MAX_PANEL` / `RELAX_FILL`) dense.
fn panels_under(
    a: &CscMatrix,
    opts: &SympilerOptions,
    max_panel: usize,
    relax_fill: f64,
) -> SupernodalLuPlan {
    let plan = LuPlan::build(a, opts).unwrap();
    let panels = SupernodalLuPlan::detect_panels(&plan, max_panel, relax_fill, RELAX_COLS);
    SupernodalLuPlan::from_panels(plan, panels)
}

/// Strategy: a random square unsymmetric, statically pivotable matrix.
fn unsym_matrix() -> impl Strategy<Value = CscMatrix> {
    (1usize..=40, 0usize..=5, 0u64..1000).prop_map(|(n, extra, seed)| {
        if n < 4 {
            // Tiny: dense-ish unsymmetric block via the random generator
            // with full coupling.
            sympiler::sparse::gen::random_unsym(n, n.saturating_sub(1), seed)
        } else {
            match seed % 3 {
                0 => sympiler::sparse::gen::random_unsym(n, extra.min(n - 1), seed),
                1 => sympiler::sparse::gen::circuit_unsym(n.max(4), 3, 1, seed),
                _ => {
                    let side = (2 + n / 6).max(2);
                    sympiler::sparse::gen::convection_diffusion_2d(side, side, 1.5, seed)
                }
            }
        }
    })
}

/// Dense `P A` and `L U` products compared entrywise to `tol`.
fn assert_pa_eq_lu(
    a: &CscMatrix,
    l: &CscMatrix,
    u: &CscMatrix,
    row_perm: &[usize],
    tol: f64,
) -> Result<(), String> {
    let n = a.n_cols();
    let ad = a.to_dense();
    let ld = l.to_dense();
    let ud = u.to_dense();
    for j in 0..n {
        for i in 0..n {
            // (L U)[i, j]
            let mut lu = 0.0;
            for k in 0..n {
                lu += ld[k * n + i] * ud[j * n + k];
            }
            let pa = ad[j * n + row_perm[i]];
            if (lu - pa).abs() > tol {
                return Err(format!("PA != LU at ({i}, {j}): {pa} vs {lu} (n = {n})"));
            }
        }
    }
    Ok(())
}

/// Strategy: a random SPD matrix in lower storage (diagonally dominant
/// by construction), sizes 1..=40, varying sparsity.
fn spd_matrix() -> impl Strategy<Value = CscMatrix> {
    (1usize..=40, 0usize..=5, 0u64..1000).prop_map(|(n, extra, seed)| {
        if n == 1 {
            let mut t = TripletMatrix::new(1, 1);
            t.push(0, 0, 4.0);
            t.to_csc().unwrap()
        } else if n < 5 {
            // tiny: tridiagonal SPD
            sympiler::sparse::gen::banded_spd(n, 1, seed)
        } else {
            sympiler::sparse::gen::random_spd(n, extra.min(n - 1).max(1), seed)
        }
    })
}

/// Strategy: SPD patterns with real etree structure — random, 2-D
/// grid, banded, and a 3-D grid in nested-dissection order — for the
/// supernode-amalgamation invariants.
fn spd_structured() -> impl Strategy<Value = CscMatrix> {
    use sympiler::sparse::gen;
    (0usize..4, 2usize..=6, 0u64..1000).prop_map(|(kind, k, seed)| match kind {
        0 => gen::random_spd(6 * k, 1 + k / 2, seed),
        1 => gen::grid2d_laplacian(k + 1, k, seed % 2 == 0, seed),
        2 => gen::banded_spd(8 * k, k, seed),
        _ => sympiler::sparse::suite::nd_grid3d(k.min(5), k.min(5), k.min(5), seed),
    })
}

/// Strategy: a random well-conditioned lower-triangular matrix.
fn lower_matrix() -> impl Strategy<Value = CscMatrix> {
    (1usize..=60, 0usize..=4, 0u64..1000)
        .prop_map(|(n, extra, seed)| sympiler::sparse::gen::random_lower_triangular(n, extra, seed))
}

/// Strategy: sparse RHS pattern for a dimension-n system.
fn beta_for(n: usize, seed: u64) -> Vec<usize> {
    let mut out: Vec<usize> = (0..n)
        .filter(|&i| (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 7 < 2)
        .collect();
    if out.is_empty() {
        out.push(seed as usize % n);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_engines_reconstruct_a(a in spd_matrix()) {
        let l_simp = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        prop_assert!(sympiler::solvers::verify::reconstruction_error(&a, &l_simp) < 1e-9);

        let l_super = SupernodalCholesky::analyze(&a, 0).unwrap().factor(&a).unwrap().to_csc();
        prop_assert!(sympiler::solvers::verify::reconstruction_error(&a, &l_super) < 1e-9);

        let l_plan = SympilerCholesky::compile(&a, &SympilerOptions::default())
            .unwrap().factor(&a).unwrap().to_csc();
        prop_assert!(sympiler::solvers::verify::reconstruction_error(&a, &l_plan) < 1e-9);
    }

    #[test]
    fn symbolic_pattern_predicts_numeric_factor(a in spd_matrix()) {
        let sym = sympiler::graph::symbolic_cholesky(&a);
        let l = SimplicialCholesky::analyze(&a).unwrap().factor(&a).unwrap();
        prop_assert_eq!(l.col_ptr(), sym.l_col_ptr.as_slice());
        prop_assert_eq!(l.row_idx(), sym.l_row_idx.as_slice());
    }

    #[test]
    fn trisolve_variants_agree(l in lower_matrix(), seed in 0u64..100) {
        let n = l.n_cols();
        let beta = beta_for(n, seed);
        let values: Vec<f64> = beta.iter().map(|&i| 1.0 + (i % 3) as f64).collect();
        let b = SparseVec::try_new(n, beta.clone(), values).unwrap();

        let mut x_ref = b.to_dense();
        sympiler::solvers::trisolve::naive_forward(&l, &mut x_ref);

        let mut ts = SympilerTriSolve::compile(&l, b.indices(), &SympilerOptions::default());
        let x = ts.solve(&b);
        for i in 0..n {
            prop_assert!((x[i] - x_ref[i]).abs() < 1e-9,
                "x[{}] = {} vs {}", i, x[i], x_ref[i]);
        }
    }

    #[test]
    fn reach_set_is_exact_and_topological(l in lower_matrix(), seed in 0u64..100) {
        let n = l.n_cols();
        let beta = beta_for(n, seed);
        let reach = sympiler::graph::reach(&l, &beta);
        // Brute force reachability.
        let mut expect = std::collections::BTreeSet::new();
        let mut stack = beta.clone();
        while let Some(j) = stack.pop() {
            if expect.insert(j) {
                for &i in &l.col_rows(j)[1..] {
                    stack.push(i);
                }
            }
        }
        let got: std::collections::BTreeSet<usize> = reach.iter().copied().collect();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(reach.len(), got.len(), "no duplicates");
        // Topological order.
        let pos: std::collections::HashMap<usize, usize> =
            reach.iter().enumerate().map(|(k, &j)| (j, k)).collect();
        for &j in &reach {
            for &i in &l.col_rows(j)[1..] {
                prop_assert!(pos[&j] < pos[&i]);
            }
        }
    }

    #[test]
    fn solution_pattern_contained_in_reach(l in lower_matrix(), seed in 0u64..100) {
        let n = l.n_cols();
        let beta = beta_for(n, seed);
        let values: Vec<f64> = beta.iter().map(|_| 1.5).collect();
        let b = SparseVec::try_new(n, beta, values).unwrap();
        let reach: std::collections::BTreeSet<usize> =
            sympiler::graph::reach(&l, b.indices()).into_iter().collect();
        let mut x = b.to_dense();
        sympiler::solvers::trisolve::naive_forward(&l, &mut x);
        for (i, &v) in x.iter().enumerate() {
            if v != 0.0 {
                prop_assert!(reach.contains(&i), "x[{}] nonzero outside reach", i);
            }
        }
    }

    #[test]
    fn supernode_partition_is_contiguous_nesting_cover(a in spd_matrix()) {
        let sym = sympiler::graph::symbolic_cholesky(&a);
        let part = sympiler::graph::supernodes_cholesky(&sym, 0);
        let n = a.n_cols();
        prop_assert_eq!(part.n_cols(), n);
        // Contiguous cover.
        let mut covered = 0;
        for s in 0..part.n_supernodes() {
            prop_assert_eq!(part.cols(s).start, covered);
            covered = part.cols(s).end;
            // Nesting patterns inside the supernode.
            let cols: Vec<usize> = part.cols(s).collect();
            for w in cols.windows(2) {
                prop_assert_eq!(&sym.col_pattern(w[0])[1..], sym.col_pattern(w[1]));
            }
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn relaxed_cholesky_supernodes_keep_the_left_looking_invariants(
        a in spd_structured(),
        knobs in (0usize..4, 0usize..3, 0usize..4),
    ) {
        use sympiler::graph::supernode::supernodes_cholesky_relaxed;
        let max_width = [0usize, 1, 3, 8][knobs.0];
        let relax_fill = [0.1f64, 0.3, 1.0][knobs.1];
        let relax_cols = [2usize, 8, 16, 64][knobs.2];
        let sym = sympiler::graph::symbolic_cholesky(&a);
        let n = a.n_cols();
        let strict = sympiler::graph::supernodes_cholesky(&sym, max_width);
        let p = supernodes_cholesky_relaxed(&sym, max_width, relax_fill, relax_cols);
        let part = &p.part;
        prop_assert_eq!(part.n_cols(), n);
        prop_assert_eq!(p.row_ptr.len(), part.n_supernodes() + 1);
        let cap = if max_width == 0 { relax_cols } else { relax_cols.min(max_width) };
        let (mut covered, mut slots, mut nnz) = (0, 0, 0);
        for s in 0..part.n_supernodes() {
            let (f, w, rows) = (part.cols(s).start, part.width(s), p.panel_rows(s));
            prop_assert_eq!(f, covered, "contiguous cover");
            covered = part.cols(s).end;
            // Wider than the cap only as a strict supernode passing through.
            let t = strict.col_to_super[f];
            prop_assert!(
                w <= cap || (strict.cols(t).start == f && strict.width(t) == w),
                "panel at {} width {} exceeds the cap {} without being strict", f, w, cap
            );
            // Merged only along etree parent links.
            for j in f + 1..f + w {
                prop_assert_eq!(sym.parent[j - 1], j, "columns {}, {} share a panel", j - 1, j);
            }
            // Ascending rows led by the panel's own columns, holding
            // every member column's pattern.
            prop_assert!(rows.windows(2).all(|x| x[0] < x[1]));
            for c in 0..w {
                prop_assert_eq!(rows[c] as usize, f + c);
            }
            for j in part.cols(s) {
                for &r in sym.col_pattern(j) {
                    prop_assert!(rows.binary_search(&(r as u32)).is_ok(),
                        "column {} row {} missing from its panel", j, r);
                }
                nnz += sym.col_count(j);
            }
            slots += w * rows.len() - w * (w - 1) / 2;
            // A descendant's rows at or below a target's first column
            // lie in the target's row list.
            for &r in &rows[w..] {
                let t = part.col_to_super[r as usize];
                let t_rows = p.panel_rows(t);
                for &q in rows.iter().filter(|&&q| q as usize >= part.cols(t).start) {
                    prop_assert!(t_rows.binary_search(&q).is_ok(),
                        "panel {} row {} missing from target panel {}", s, q, t);
                }
            }
        }
        prop_assert_eq!(covered, n);
        prop_assert_eq!(p.padded_zeros, slots - nnz, "padded-zero census");

        // A zero budget is the strict partition, row for row.
        let off = supernodes_cholesky_relaxed(&sym, max_width, 0.0, relax_cols);
        prop_assert_eq!(&off.part, &strict);
        prop_assert_eq!(off.padded_zeros, 0);
        for s in 0..strict.n_supernodes() {
            let pat = sym.col_pattern(strict.cols(s).start);
            prop_assert!(off.panel_rows(s).iter().map(|&r| r as usize).eq(pat.iter().copied()));
        }
    }

    #[test]
    fn factor_flops_are_consistent(a in spd_matrix()) {
        let sym = sympiler::graph::symbolic_cholesky(&a);
        let plan = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
        prop_assert_eq!(plan.flops(), sym.factor_flops());
        // Flops lower bound: every stored entry of L costs at least 1.
        prop_assert!(sym.factor_flops() >= sym.l_nnz() as u64);
    }

    #[test]
    fn lu_plan_satisfies_pa_eq_lu(a in unsym_matrix()) {
        // Sympiler LU plan (static pivoting, P = I): dense reference.
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let identity: Vec<usize> = (0..a.n_cols()).collect();
        if let Err(m) = assert_pa_eq_lu(&a, f.l(), f.u(), &identity, 1e-10) {
            prop_assert!(false, "plan: {}", m);
        }
        // The coupled baseline must produce the same factors.
        let base = GpLu::factor(&a, Pivoting::None).unwrap();
        prop_assert!(f.l().same_pattern(&base.l));
        prop_assert!(f.u().same_pattern(&base.u));
        for (x, y) in f.u().values().iter().zip(base.u.values()) {
            prop_assert!((x - y).abs() < 1e-10, "factor drift {} vs {}", x, y);
        }
    }

    #[test]
    fn gplu_partial_pivoting_satisfies_pa_eq_lu(a in unsym_matrix()) {
        let f = GpLu::factor(&a, Pivoting::Partial).unwrap();
        if let Err(m) = assert_pa_eq_lu(&a, &f.l, &f.u, &f.row_perm, 1e-10) {
            prop_assert!(false, "partial: {}", m);
        }
        // Solve path: A x = b round-trips.
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        prop_assert!(
            sympiler::sparse::ops::rel_residual(&a, &x, &b) < 1e-9,
            "residual too large"
        );
    }

    #[test]
    fn orderings_return_valid_permutations(a in unsym_matrix()) {
        for ordering in Ordering::ALL {
            match sympiler::graph::compute_ordering(&a, ordering) {
                None => prop_assert_eq!(ordering, Ordering::Natural),
                Some(q) => {
                    prop_assert_eq!(q.len(), a.n_cols());
                    prop_assert!(
                        sympiler::sparse::ops::inverse_permutation(&q).is_ok(),
                        "{} must produce a bijection", ordering.label()
                    );
                }
            }
        }
    }

    #[test]
    fn etree_postorder_is_a_fill_neutral_idempotent_bijection(a in unsym_matrix()) {
        // Postordering the raw COLAMD permutation gives what
        // `compute_ordering` returns; doing it again changes nothing;
        // and the symbolic factorization of the postordered pattern has
        // the raw one's nnz(L), nnz(U), flops and DAG depth.
        use sympiler::graph::{
            colamd_ordering, compute_ordering, lu_column_levels, lu_symbolic, postorder_by_etree,
        };
        use sympiler::sparse::ops::{inverse_permutation, permute_rows_cols};
        let raw = colamd_ordering(&a);
        let post = postorder_by_etree(&a, &raw);
        prop_assert!(inverse_permutation(&post).is_ok(), "bijection");
        prop_assert_eq!(compute_ordering(&a, Ordering::Colamd), Some(post.clone()));
        prop_assert_eq!(postorder_by_etree(&a, &post), post.clone());
        let sym_raw = lu_symbolic(&permute_rows_cols(&a, &raw).unwrap());
        let sym_post = lu_symbolic(&permute_rows_cols(&a, &post).unwrap());
        prop_assert_eq!(sym_post.l_nnz(), sym_raw.l_nnz());
        prop_assert_eq!(sym_post.u_nnz(), sym_raw.u_nnz());
        prop_assert_eq!(sym_post.factor_flops(), sym_raw.factor_flops());
        prop_assert_eq!(
            lu_column_levels(&sym_post).n_levels(),
            lu_column_levels(&sym_raw).n_levels()
        );
    }

    #[test]
    fn ordered_lu_plan_satisfies_qaq_eq_lu(a in unsym_matrix()) {
        // Under any ordering the compiled factors satisfy Qᵀ A Q = L U
        // (dense check, identity row perm) and the solve answers the
        // original system.
        for ordering in [Ordering::Rcm, Ordering::Colamd] {
            let opts = SympilerOptions { ordering, ..Default::default() };
            let lu = SympilerLu::compile(&a, &opts).unwrap();
            let f = lu.factor(&a).unwrap();
            let ordered_a = match lu.col_perm() {
                Some(q) => sympiler::sparse::ops::permute_rows_cols(&a, q).unwrap(),
                None => a.clone(),
            };
            let identity: Vec<usize> = (0..a.n_cols()).collect();
            if let Err(m) = assert_pa_eq_lu(&ordered_a, f.l(), f.u(), &identity, 1e-10) {
                prop_assert!(false, "{}: {}", ordering.label(), m);
            }
            let n = a.n_cols();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
            let x = f.solve(&b);
            prop_assert!(
                sympiler::sparse::ops::rel_residual(&a, &x, &b) < 1e-9,
                "{}: residual too large", ordering.label()
            );
        }
    }

    #[test]
    fn supernodal_lu_matches_serial_plan(a in unsym_matrix()) {
        // The supernodal tier must agree with the serial plan to
        // ≤ 1e-12 (dense kernels only reassociate sums) under every
        // ordering and panel cap, with identical patterns and a valid
        // panel partition.
        for ordering in Ordering::ALL {
            let opts = SympilerOptions { ordering, ..Default::default() };
            let f_serial = LuPlan::build(&a, &opts).unwrap().factor(&a).unwrap();
            for max_panel in [0usize, 3] {
                let plan = panels_under(&a, &opts, max_panel, RELAX_FILL);
                let widths: usize = (0..plan.n_panels())
                    .map(|s| plan.partition().width(s))
                    .sum();
                prop_assert_eq!(widths, a.n_cols());
                if max_panel > 0 {
                    prop_assert!(plan.max_panel_width() <= max_panel.max(1));
                }
                let f_sup = plan.factor(&a).unwrap();
                prop_assert!(f_sup.l().same_pattern(f_serial.l()));
                prop_assert!(f_sup.u().same_pattern(f_serial.u()));
                for (x, y) in f_sup.l().values().iter().chain(f_sup.u().values())
                    .zip(f_serial.l().values().iter().chain(f_serial.u().values()))
                {
                    prop_assert!(
                        (x - y).abs() <= 1e-12 * (1.0 + y.abs()),
                        "{} cap {}: {} vs {}", ordering.label(), max_panel, x, y
                    );
                }
            }
        }
    }

    #[test]
    fn relaxed_amalgamation_agrees_with_strict_and_serial(a in unsym_matrix()) {
        // The amalgamation contract: a relaxed supernodal plan
        // (explicit padded zeros admitted under the fill budget) must
        // agree with BOTH the strict-nesting supernodal plan and the
        // scalar serial tier within 1e-12, with identical factor
        // patterns, across ordering × pre_pivot — padding adds exact
        // zeros to the dense panels, never numbers.
        for ordering in Ordering::ALL {
            for pre_pivot in [PrePivot::Off, PrePivot::WeightedMatching] {
                let base_opts = SympilerOptions {
                    ordering,
                    pre_pivot,
                    ..Default::default()
                };
                let f_serial = LuPlan::build(&a, &base_opts).unwrap().factor(&a).unwrap();
                let strict = panels_under(&a, &base_opts, MAX_PANEL, 0.0);
                let f_strict = strict.factor(&a).unwrap();
                let relaxed = panels_under(&a, &base_opts, MAX_PANEL, RELAX_FILL);
                let fr = relaxed.factor(&a).unwrap();
                prop_assert!(fr.l().same_pattern(f_serial.l()));
                prop_assert!(fr.u().same_pattern(f_serial.u()));
                for ((x, s), t) in fr.l().values().iter().chain(fr.u().values())
                    .zip(f_serial.l().values().iter().chain(f_serial.u().values()))
                    .zip(f_strict.l().values().iter().chain(f_strict.u().values()))
                {
                    prop_assert!((x - s).abs() <= 1e-12 * (1.0 + s.abs()),
                        "{}+{} vs serial: {} vs {}",
                        ordering.label(), pre_pivot.label(), x, s);
                    prop_assert!((x - t).abs() <= 1e-12 * (1.0 + t.abs()),
                        "{}+{} vs strict panels: {} vs {}",
                        ordering.label(), pre_pivot.label(), x, t);
                }
            }
        }
    }

    #[test]
    fn relax_fill_zero_is_bitwise_identical_to_strict_panels(a in unsym_matrix()) {
        // `relax_fill = 0` must be perfectly inert: the same panel
        // partition as the strict-nesting constructor, zero padded
        // slots, and bitwise-identical factors.
        use sympiler::core::plan::lu_supernodal::SupernodalLuPlan;
        for ordering in [Ordering::Natural, Ordering::Colamd] {
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let sup0 = panels_under(&a, &opts, MAX_PANEL, 0.0);
            prop_assert_eq!(sup0.padded_zeros(), 0,
                "a zero budget must admit no explicit zeros");
            let strict = SupernodalLuPlan::from_panels(
                sup0.serial().clone(),
                SupernodalLuPlan::detect_panels(sup0.serial(), MAX_PANEL, 0.0, 0),
            );
            prop_assert_eq!(sup0.n_panels(), strict.n_panels());
            for s in 0..strict.n_panels() {
                prop_assert_eq!(sup0.partition().width(s), strict.partition().width(s));
            }
            let f0 = sup0.factor(&a).unwrap();
            let fs = strict.factor(&a).unwrap();
            for (x, y) in f0.l().values().iter().chain(f0.u().values())
                .zip(fs.l().values().iter().chain(fs.u().values()))
            {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "{}: relax_fill = 0 moved bits", ordering.label());
            }
        }
    }

    #[test]
    fn sparse_rhs_solve_matches_dense_solve(a in unsym_matrix(), seed in 0u64..50) {
        let n = a.n_cols();
        let lu = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        let f = lu.factor(&a).unwrap();
        let idx: Vec<usize> = (0..n)
            .filter(|i| (i * 7 + seed as usize).is_multiple_of(5))
            .collect();
        let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 4) as f64).collect();
        let b = SparseVec::try_new(n, idx, vals).unwrap();
        let xs = f.solve_sparse(&b).to_dense();
        let xd = f.solve(&b.to_dense());
        for i in 0..n {
            prop_assert!(
                (xs[i] - xd[i]).abs() < 1e-10 * (1.0 + xd[i].abs()),
                "row {}: {} vs {}", i, xs[i], xd[i]
            );
        }
    }

    #[test]
    fn lu_symbolic_pattern_predicts_numeric_factor(a in unsym_matrix()) {
        let sym = sympiler::graph::lu_symbolic(&a);
        let f = GpLu::factor(&a, Pivoting::None).unwrap();
        prop_assert_eq!(f.l.col_ptr(), sym.l_col_ptr.as_slice());
        prop_assert_eq!(f.l.row_idx(), sym.l_row_idx.as_slice());
        prop_assert_eq!(f.u.col_ptr(), sym.u_col_ptr.as_slice());
        prop_assert_eq!(f.u.row_idx(), sym.u_row_idx.as_slice());
        // Flop accounting agrees with the compiled plan.
        let plan = SympilerLu::compile(&a, &SympilerOptions::default()).unwrap();
        prop_assert_eq!(plan.flops(), sym.factor_flops());
    }

    #[test]
    fn spd_solve_has_small_residual(a in spd_matrix(), scale in 1.0f64..4.0) {
        let n = a.n_cols();
        let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
        let f = chol.factor(&a).unwrap();
        let b: Vec<f64> = (0..n).map(|i| scale * (1.0 + (i % 4) as f64)).collect();
        let x = f.solve(&b);
        let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
        prop_assert!(resid < 1e-9, "residual {}", resid);
    }
}

/// Strategy: a random matrix with structurally zero diagonal entries —
/// the pre-pivot workloads (scrambled circuits and saddle-point/KKT
/// systems).
fn zero_diag_matrix() -> impl Strategy<Value = CscMatrix> {
    (12usize..=36, 0u64..500).prop_map(|(n, seed)| {
        if seed % 2 == 0 {
            sympiler::sparse::gen::circuit_zero_diag(n.max(16), 3, 1, seed)
        } else {
            let k = (n / 4).max(1);
            sympiler::sparse::gen::saddle_point_2x2(n.max(2 * k + 1), k, seed)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pre_pivot_composes_with_every_ordering_across_tiers(a in zero_diag_matrix()) {
        // The satellite contract: agreement of both scalar kernels and
        // the supernodal tier, plus baseline verification across every
        // (ordering, pre_pivot) pair — on matrices the Off pipeline
        // rejects outright.
        prop_assert!(sympiler::sparse::ops::structurally_zero_diagonals(&a) > 0);
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        for ordering in Ordering::ALL {
            for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
                let opts = SympilerOptions {
                    ordering,
                    pre_pivot,
                    ..Default::default()
                };
                let serial = LuPlan::build(&a, &opts).unwrap();
                prop_assert_eq!(serial.matched_diagonals(), n);
                let f = serial.factor(&a).unwrap();
                // The position-addressed walker: bitwise identical.
                let fp = serial.clone().with_position_tables(f64::MAX).factor(&a).unwrap();
                for (x, y) in fp.l().values().iter().chain(fp.u().values())
                    .zip(f.l().values().iter().chain(f.u().values()))
                {
                    prop_assert_eq!(x.to_bits(), y.to_bits(),
                        "{}+{}: walker bits moved", ordering.label(), pre_pivot.label());
                }
                // Supernodal: relative agreement (growth-aware for the
                // pattern-only transversal, which may pivot small).
                let vtol = if pre_pivot == PrePivot::Transversal { 1e-7 } else { 1e-10 };
                let sup = panels_under(&a, &opts, MAX_PANEL, RELAX_FILL);
                let fs = sup.factor(&a).unwrap();
                for (x, y) in fs.l().values().iter().chain(fs.u().values())
                    .zip(f.l().values().iter().chain(f.u().values()))
                {
                    prop_assert!((x - y).abs() <= vtol * (1.0 + y.abs()),
                        "{}+{} supernodal: {} vs {}",
                        ordering.label(), pre_pivot.label(), x, y);
                }
                // Baseline verification: identical pre-pivoted GPLU
                // factors (1e-10 under the weighted matching), and the
                // solve answers the original system.
                let base = GpLu::factor_prepivoted(&a, Pivoting::None, pre_pivot, ordering)
                    .unwrap();
                prop_assert!(f.l().same_pattern(&base.factors.l));
                prop_assert!(f.u().same_pattern(&base.factors.u));
                for (x, y) in f.u().values().iter().zip(base.factors.u.values()) {
                    prop_assert!((x - y).abs() < vtol * (1.0 + y.abs()),
                        "{}+{}: baseline drift {} vs {}",
                        ordering.label(), pre_pivot.label(), x, y);
                }
                let x = f.solve(&b);
                prop_assert!(
                    sympiler::sparse::ops::rel_residual(&a, &x, &b) < vtol.max(1e-9),
                    "{}+{}: residual", ordering.label(), pre_pivot.label()
                );
            }
        }
    }

    #[test]
    fn perturbation_off_is_bitwise_inert_in_every_tier(a in unsym_matrix()) {
        // The robustness ladder's Layer-1 contract: pivot_perturb == 0.0
        // (the default) must not move a single bit in any execution
        // tier, and an *armed* tolerance that never fires (empty
        // PerturbReport) must also leave the factors bitwise identical
        // to the untouched path.
        for (label, supernodal) in [("scalar", false), ("supernodal", true)] {
            let base = SympilerOptions::default();
            let plain = factor_on_tier(&a, &base, supernodal).unwrap();
            let explicit = factor_on_tier(&a, &SympilerOptions {
                pivot_perturb: 0.0, ..base.clone()
            }, supernodal).unwrap();
            prop_assert!(plain.perturb_report().is_empty());
            prop_assert!(explicit.perturb_report().is_empty());
            for (x, y) in explicit.l().values().iter().chain(explicit.u().values())
                .zip(plain.l().values().iter().chain(plain.u().values()))
            {
                prop_assert_eq!(x.to_bits(), y.to_bits(),
                    "{}: explicit pivot_perturb=0.0 moved bits", label);
            }
            let armed = factor_on_tier(&a, &SympilerOptions {
                pivot_perturb: 1e-10, ..base.clone()
            }, supernodal).unwrap();
            if armed.perturb_report().is_empty() {
                for (x, y) in armed.l().values().iter().chain(armed.u().values())
                    .zip(plain.l().values().iter().chain(plain.u().values()))
                {
                    prop_assert_eq!(x.to_bits(), y.to_bits(),
                        "{}: an armed-but-silent tolerance moved bits", label);
                }
            }
        }
    }

    #[test]
    fn pruned_lu_symbolic_is_exact_boolean_elimination(
        a in unsym_matrix(),
        z in zero_diag_matrix(),
    ) {
        use sympiler::sparse::TripletMatrix;
        // Symmetric pruning discards dependence edges; the patterns it
        // yields must still be the exact structural fill, in every
        // pruning regime.
        let matched = {
            let rowp = sympiler::graph::compute_pre_pivot(&z, PrePivot::WeightedMatching)
                .unwrap()
                .expect("zero diagonals force a non-identity matching");
            sympiler::sparse::ops::permute_rows(&z, &rowp).unwrap()
        };
        // Structurally symmetric: `lu_symbolic` takes the etree
        // up-traversal (its DFS would prune every column at its first
        // off-diagonal, the elimination-tree parent).
        let n = a.n_cols();
        let mut sym_t = TripletMatrix::new(n, n);
        // No symmetric pair in A: the strictly-lower part, plus
        // upper entries only where the mirror position is empty.
        let mut skew_t = TripletMatrix::new(n, n);
        for j in 0..n {
            for &i in a.col_rows(j) {
                sym_t.push(i, j, 1.0);
                sym_t.push(j, i, 1.0);
                if i >= j || a.find(j, i).is_none() {
                    skew_t.push(i, j, 1.0);
                }
            }
        }
        let symmetric = sym_t.to_csc().unwrap();
        let skew = skew_t.to_csc().unwrap();
        for (label, m) in [
            ("generator", &a),
            ("matched zero-diag", &matched),
            ("symmetric", &symmetric),
            ("no symmetric pair", &skew),
        ] {
            let sym = sympiler::graph::lu_symbolic(m);
            let (l_ref, u_ref) = sympiler::graph::lu_symbolic::dense_symbolic_lu(m);
            for j in 0..m.n_cols() {
                prop_assert_eq!(sym.l_col_pattern(j), l_ref[j].as_slice(), "{}: L col {}", label, j);
                prop_assert_eq!(sym.u_col_pattern(j), u_ref[j].as_slice(), "{}: U col {}", label, j);
                let reach = sym.reach(j);
                prop_assert!(reach.windows(2).all(|w| w[0] < w[1]), "{}: reach({})", label, j);
            }
            // Pruning only ever removes reads; the up-traversal climbs
            // one etree edge per entry of L below the diagonal.
            prop_assert!(sym.dfs_edges() <= sym.factor_flops() / 2, "{}", label);
            let up = sym.strategy() == sympiler::graph::LuStrategy::EtreeUpTraversal;
            prop_assert_eq!(
                up,
                sympiler::graph::lu_symbolic::is_structurally_symmetric(m),
                "{}",
                label
            );
        }
    }

    #[test]
    fn pre_pivot_permutations_are_valid_and_zero_free(a in zero_diag_matrix()) {
        for pre_pivot in [PrePivot::Transversal, PrePivot::WeightedMatching] {
            let rowp = sympiler::graph::compute_pre_pivot(&a, pre_pivot)
                .expect("suite-style workloads have a perfect matching")
                .expect("zero diagonals force a non-identity matching");
            prop_assert!(sympiler::sparse::ops::inverse_permutation(&rowp).is_ok());
            let b = sympiler::sparse::ops::permute_rows(&a, &rowp).unwrap();
            prop_assert_eq!(sympiler::sparse::ops::structurally_zero_diagonals(&b), 0);
        }
    }
}

/// The test reference for `LuFactor::solve` on the shared-structure
/// factor — the parent's algorithm: gather `b` through the composed row
/// map (scaled by `Dr`), run both sweeps over the **materialised**
/// `usize` CSC pair, scatter back through the column map (scaled by
/// `Dc`).
fn reference_solve(lu: &LuPlan, f: &LuFactor, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let scaling = lu.mc64_scaling();
    let mut x: Vec<f64> = match (scaling, f.row_perm()) {
        (None, None) => b.to_vec(),
        (None, Some(p)) => p.iter().map(|&old| b[old]).collect(),
        (Some((dr, _)), None) => b.iter().zip(dr).map(|(&v, &d)| d * v).collect(),
        (Some((dr, _)), Some(p)) => p.iter().map(|&old| dr[old] * b[old]).collect(),
    };
    let (l, u) = (f.l(), f.u());
    for j in 0..n {
        let xj = x[j]; // unit diagonal, stored first
        if xj != 0.0 {
            for (i, lij) in l.col_iter(j).skip(1) {
                x[i] -= lij * xj;
            }
        }
    }
    for j in (0..n).rev() {
        let (rows, vals) = (u.col_rows(j), u.col_values(j));
        let last = rows.len() - 1; // pivot, stored last
        let xj = x[j] / vals[last];
        x[j] = xj;
        if xj != 0.0 {
            for (&i, &uij) in rows[..last].iter().zip(&vals[..last]) {
                x[i] -= uij * xj;
            }
        }
    }
    match (scaling, f.col_perm()) {
        (None, None) => x,
        (Some((_, dc)), None) => x.iter().zip(dc).map(|(&v, &d)| d * v).collect(),
        (scaling, Some(q)) => {
            let mut out = vec![0.0; n];
            for (&v, &old) in x.iter().zip(q) {
                out[old] = scaling.map_or(v, |(_, dc)| dc[old] * v);
            }
            out
        }
    }
}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Every (ordering × pre-pivot × mc64 × tier) cell: the
/// factor that borrows the plan's `u32` structure answers `solve`,
/// `solve_batch` and `solve_refined` with the bits the reference sweeps
/// over its own materialised `l()` / `u()` produce, and those views are
/// the symbolic layout of the pivoted, ordered matrix.
fn check_factor_object_in_every_cell(a: &CscMatrix, pre_pivots: &[PrePivot]) -> Result<(), String> {
    use sympiler::core::plan::lu::refine_with;
    let n = a.n_cols();
    let rhs: Vec<Vec<f64>> = (0..3)
        .map(|r| {
            (0..n)
                .map(|i| 1.0 + ((3 * i + r) % 7) as f64 - 0.5 * r as f64)
                .collect()
        })
        .collect();
    for ordering in Ordering::ALL {
        for &pre_pivot in pre_pivots {
            for mc64_scale in [false, true] {
                for supernodal in [false, true] {
                    let cell = format!(
                        "{}+{} mc64={mc64_scale} supernodal={supernodal}",
                        ordering.label(),
                        pre_pivot.label()
                    );
                    let opts = SympilerOptions {
                        ordering,
                        pre_pivot,
                        mc64_scale,
                        ..Default::default()
                    };
                    let lu = LuPlan::build(a, &opts).unwrap();
                    let f = factor_on_tier(a, &opts, supernodal).unwrap();
                    // Solved before `l()` / `u()` are ever asked for.
                    let x = f.solve(&rhs[0]);
                    let xs = f.solve_batch(&rhs);
                    let one = f.solve_batch(&rhs[..1]);
                    let (xr, report) = f.solve_refined(a, &rhs[1], 1e-15, 2);
                    prop_assert!(
                        same_bits(&x, &reference_solve(&lu, &f, &rhs[0])),
                        "{}: solve",
                        cell
                    );
                    prop_assert!(same_bits(&one[0], &x), "{}: one-rhs solve_batch", cell);
                    for (r, got) in xs.iter().enumerate() {
                        prop_assert!(
                            same_bits(got, &reference_solve(&lu, &f, &rhs[r])),
                            "{}: solve_batch rhs {}",
                            cell,
                            r
                        );
                    }
                    let (want, want_report) =
                        refine_with(a, &rhs[1], 1e-15, 2, |b| reference_solve(&lu, &f, b));
                    prop_assert!(same_bits(&xr, &want), "{}: solve_refined", cell);
                    prop_assert_eq!(&report, &want_report, "{}: refine report", &cell);

                    // The views are ordinary CSC factors: the symbolic
                    // pattern of the pivoted, ordered matrix, unit
                    // diagonal first in L, pivot last in U.
                    let identity: Vec<usize> = (0..n).collect();
                    let b = match f.row_perm() {
                        None => a.clone(),
                        Some(rp) => sympiler::sparse::ops::permute_general(
                            a,
                            rp,
                            f.col_perm().unwrap_or(&identity),
                        )
                        .unwrap(),
                    };
                    let sym = sympiler::graph::lu_symbolic(&b);
                    prop_assert_eq!(f.l().col_ptr(), sym.l_col_ptr.as_slice(), "{}", &cell);
                    prop_assert_eq!(f.l().row_idx(), sym.l_row_idx.as_slice(), "{}", &cell);
                    prop_assert_eq!(f.u().col_ptr(), sym.u_col_ptr.as_slice(), "{}", &cell);
                    prop_assert_eq!(f.u().row_idx(), sym.u_row_idx.as_slice(), "{}", &cell);
                    for j in 0..n {
                        prop_assert_eq!(f.l().col_iter(j).next(), Some((j, 1.0)), "{}", &cell);
                        prop_assert_eq!(f.u().col_rows(j).last(), Some(&j), "{}", &cell);
                    }
                    // A clone is its own factor, and `into_parts` hands
                    // out the same pair whether or not it was built.
                    let unbuilt = factor_on_tier(a, &opts, supernodal).unwrap().into_parts();
                    let (l, u) = f.clone().into_parts();
                    prop_assert!(l == *f.l() && u == *f.u(), "{}: into_parts", cell);
                    prop_assert!(
                        unbuilt.0 == l && unbuilt.1 == u,
                        "{}: unbuilt into_parts",
                        cell
                    );
                }
            }
        }
    }
    Ok(())
}

/// Every (ordering × pre-pivot × mc64 × pivot_perturb) cell through
/// the public API: the position-addressed walker — forced on, and as
/// `SympilerLu::compile` bakes it for the serial tier — produces the
/// factor values, perturbation record or zero-pivot column of the
/// accumulator kernel (a plan built directly, which carries no tables)
/// bit for bit — and the answers of `solve`, `solve_batch` and
/// `solve_refined`, which the walker's factors compute by the plan's
/// level-grouped row streams and the accumulator's by column sweeps.
fn check_walker_in_every_cell(a: &CscMatrix, pre_pivots: &[PrePivot]) -> Result<(), String> {
    use sympiler::core::plan::lu::POSITION_MAX_OPS_PER_ENTRY;
    let n = a.n_cols();
    let b: Vec<f64> = (0..n).map(|i| 0.5 - (i % 5) as f64 * 0.75).collect();
    let c: Vec<f64> = (0..n)
        .map(|i| if i % 3 == 0 { 0.0 } else { i as f64 })
        .collect();
    let outcome = |f: Result<LuFactor, _>| {
        f.map(|f| {
            let mut answers = vec![f.solve(&b)];
            answers.extend(f.solve_batch(&[&b, &c]));
            answers.push(f.solve_refined(a, &c, 1e-14, 3).0);
            let bits: Vec<u64> = f
                .l()
                .values()
                .iter()
                .chain(f.u().values())
                .chain(answers.iter().flatten())
                .map(|v| v.to_bits())
                .collect();
            (bits, f.perturb_report().clone())
        })
    };
    for ordering in Ordering::ALL {
        for &pre_pivot in pre_pivots {
            // The peeled tier at other thresholds than `PEEL_COL_COUNT`,
            // and compiled out, is covered by `plan::lu::positions`' cells.
            for pivot_perturb in [0.0, 1e-6, 0.9] {
                for mc64_scale in [false, true] {
                    let cell = format!(
                        "{}+{} perturb={pivot_perturb} mc64={mc64_scale}",
                        ordering.label(),
                        pre_pivot.label()
                    );
                    let opts = SympilerOptions {
                        ordering,
                        pre_pivot,
                        mc64_scale,
                        pivot_perturb,
                        ..Default::default()
                    };
                    let reference = LuPlan::build(a, &opts).unwrap();
                    let want = outcome(reference.factor(a));
                    let walker = reference.clone().with_position_tables(f64::MAX);
                    prop_assert!(
                        walker.table_bytes() > reference.table_bytes(),
                        "{}: tables baked",
                        cell
                    );
                    prop_assert_eq!(&outcome(walker.factor(a)), &want, "{}: walker", &cell);
                    let serial = reference
                        .clone()
                        .with_position_tables(POSITION_MAX_OPS_PER_ENTRY);
                    prop_assert_eq!(&outcome(serial.factor(a)), &want, "{}: serial tier", &cell);
                    let batch = serial.factor_batch(&[a, a]).map(|mut fs| fs.remove(1));
                    prop_assert_eq!(outcome(batch.map_err(|e| e.error)), want, "{}: batch", cell);
                }
            }
        }
    }
    Ok(())
}

/// A random square pattern as sorted row lists per column — including
/// the empty matrix, `n = 1`, empty columns and index streams whose
/// length is no multiple of the hash's lane count.
fn pattern_columns() -> impl Strategy<Value = Vec<Vec<usize>>> {
    (0usize..=33, 1u64..=6, 0u64..10_000).prop_map(|(n, density, seed)| {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                (0..n)
                    .filter(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state % 8 < density
                    })
                    .collect()
            })
            .collect()
    })
}

fn csc_of(columns: &[Vec<usize>]) -> Option<CscMatrix> {
    let n = columns.len();
    let mut col_ptr = vec![0];
    for c in columns {
        col_ptr.push(col_ptr.last().unwrap() + c.len());
    }
    let row_idx: Vec<usize> = columns.concat();
    let values = (0..row_idx.len()).map(|p| 1.0 + p as f64).collect();
    CscMatrix::try_new(n, n, col_ptr, row_idx, values).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn shared_structure_factor_matches_the_csc_reference_in_every_cell(
        a in unsym_matrix(),
        z in zero_diag_matrix(),
    ) {
        check_factor_object_in_every_cell(
            &a,
            &[PrePivot::Off, PrePivot::Transversal, PrePivot::WeightedMatching],
        )?;
        check_factor_object_in_every_cell(
            &z,
            &[PrePivot::Transversal, PrePivot::WeightedMatching],
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn position_walker_is_bitwise_the_accumulator_kernel_in_every_cell(
        a in unsym_matrix(),
        z in zero_diag_matrix(),
    ) {
        check_walker_in_every_cell(
            &a,
            &[PrePivot::Off, PrePivot::Transversal, PrePivot::WeightedMatching],
        )?;
        // `Off` on a zero diagonal: both kernels name the same column.
        check_walker_in_every_cell(
            &z,
            &[PrePivot::Off, PrePivot::Transversal, PrePivot::WeightedMatching],
        )?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn structural_hash_sees_every_single_pattern_edit(
        columns in pattern_columns(),
        pick in 0usize..1000,
    ) {
        use sympiler::core::serve::structural_hash;
        const LANES: usize = 4; // the hash's lane count
        let opts = SympilerOptions::default();
        let n = columns.len();
        let a = csc_of(&columns).unwrap();
        let key = structural_hash(&a, &opts);
        let differs = |edited: &[Vec<usize>]| {
            csc_of(edited).map(|m| structural_hash(&m, &opts) != key)
        };

        // Values never matter.
        let mut scaled = a.clone();
        for v in scaled.values_mut() {
            *v = -3.5 * *v + 1.0;
        }
        prop_assert_eq!(structural_hash(&scaled, &opts), key);

        // Appending an entry (first column with a free row), dropping one.
        if let Some(j) = (0..n).map(|k| (k + pick) % n.max(1)).find(|&j| columns[j].len() < n) {
            let mut e = columns.clone();
            let r = (0..n).find(|r| !e[j].contains(r)).unwrap();
            e[j].push(r);
            e[j].sort_unstable();
            prop_assert_eq!(differs(&e), Some(true), "append ({}, {})", r, j);
        }
        let filled: Vec<usize> = (0..n).filter(|&j| !columns[j].is_empty()).collect();
        if !filled.is_empty() {
            let j = filled[pick % filled.len()];
            let k = pick % columns[j].len();
            let r = columns[j][k];
            let mut e = columns.clone();
            e[j].remove(k);
            prop_assert_eq!(differs(&e), Some(true), "drop ({}, {})", r, j);

            // The same entry moved to another row of its column…
            if let Some(to) = (0..n).map(|t| (t + pick) % n).find(|t| !columns[j].contains(t)) {
                let mut e = columns.clone();
                e[j][k] = to;
                e[j].sort_unstable();
                prop_assert_eq!(differs(&e), Some(true), "row {} -> {} in column {}", r, to, j);
            }
            // …and to the neighbouring column.
            for to in [j.wrapping_sub(1), j + 1] {
                if to < n && !columns[to].contains(&r) {
                    let mut e = columns.clone();
                    e[j].remove(k);
                    e[to].push(r);
                    e[to].sort_unstable();
                    prop_assert_eq!(differs(&e), Some(true), "({}, {}) -> column {}", r, j, to);
                }
            }
        }

        // Two row indices swapped in the flat index stream, one apart
        // (neighbouring lanes) and the lane count apart (two steps of
        // one lane) — wherever the swap leaves a valid pattern.
        let rows = a.row_idx();
        for apart in [1, LANES] {
            for p in 0..rows.len().saturating_sub(apart) {
                if rows[p] == rows[p + apart] {
                    continue;
                }
                let mut swapped = rows.to_vec();
                swapped.swap(p, p + apart);
                if let Ok(m) = CscMatrix::try_new(
                    n, n, a.col_ptr().to_vec(), swapped, a.values().to_vec(),
                ) {
                    prop_assert!(
                        structural_hash(&m, &opts) != key,
                        "rows at {} and {} swapped", p, p + apart
                    );
                }
            }
        }
    }
}
