//! Unit tests of the leveled scalar walk: [`LuPlan::leveled`] over the
//! one scheduler and walker of `plan::level_schedule`, against the
//! in-order plan.

mod tests {
    use crate::plan::level_schedule::LevelSchedule;
    use crate::plan::lu::{LuFactor, LuPlan, LuPlanError};
    use crate::SympilerOptions;
    use sympiler_graph::ordering::Ordering as FillOrdering;
    use sympiler_sparse::{gen, CscMatrix};

    /// The in-order plan of `a`: natural order, default knobs.
    fn serial_plan(a: &CscMatrix) -> LuPlan {
        LuPlan::build(a, &SympilerOptions::default()).unwrap()
    }

    /// The same plan leveled over `threads` workers.
    fn leveled_plan(a: &CscMatrix, threads: usize) -> LuPlan {
        serial_plan(a).leveled(threads)
    }

    fn schedule_of(plan: &LuPlan) -> &LevelSchedule {
        plan.levels().expect("more than one thread levels the plan")
    }

    fn bitwise_eq(a: &LuFactor, b: &LuFactor) -> bool {
        a.l()
            .values()
            .iter()
            .zip(b.l().values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.u()
                .values()
                .iter()
                .zip(b.u().values())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        for seed in 0..4u64 {
            for a in [
                gen::circuit_unsym(120, 4, 2, seed),
                gen::random_unsym(90, 4, seed + 40),
                gen::convection_diffusion_2d(9, 8, 1.5, seed + 80),
            ] {
                let serial = serial_plan(&a);
                let f_serial = serial.factor(&a).unwrap();
                for threads in [2, 3, 4] {
                    let par = serial.clone().leveled(threads);
                    let f_par = par.factor(&a).unwrap();
                    assert!(
                        bitwise_eq(&f_serial, &f_par),
                        "seed {seed}, {threads} threads: factors must be bitwise identical"
                    );
                }
            }
        }
    }

    #[test]
    fn ordered_parallel_plan_matches_ordered_serial_bitwise() {
        let a = gen::circuit_unsym(110, 4, 2, 6);
        for ordering in [FillOrdering::Rcm, FillOrdering::Colamd] {
            let opts = SympilerOptions {
                ordering,
                ..Default::default()
            };
            let serial = LuPlan::build(&a, &opts).unwrap();
            let f_serial = serial.factor(&a).unwrap();
            let par = serial.clone().leveled(3);
            assert_eq!(par.ordering(), ordering);
            let f_par = par.factor(&a).unwrap();
            assert!(
                bitwise_eq(&f_serial, &f_par),
                "{ordering:?}: ordered parallel factors must be bitwise serial"
            );
        }
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let a = gen::circuit_unsym(100, 4, 2, 11);
        let par = leveled_plan(&a, 4);
        let f1 = par.factor(&a).unwrap();
        let f2 = par.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2), "same plan, same input, same bits");
    }

    #[test]
    fn single_thread_delegates_to_serial() {
        let a = gen::random_unsym(50, 3, 5);
        let par = leveled_plan(&a, 1);
        let serial = serial_plan(&a);
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
        assert_eq!(par.n_threads(), 1);
        assert!(par.levels().is_none(), "one thread walks in order");
    }

    #[test]
    fn levels_partition_all_columns_and_respect_deps() {
        let a = gen::circuit_unsym(80, 4, 2, 3);
        let par = leveled_plan(&a, 3);
        let sched = schedule_of(&par);
        let n = a.n_cols();
        // Every column appears exactly once across levels, and exactly
        // once across the per-worker chunks of its level.
        let mut seen = vec![false; n];
        for lv in 0..sched.n_levels() {
            let mut level_cols: Vec<u32> = Vec::new();
            for t in 0..sched.n_threads() {
                level_cols.extend_from_slice(sched.chunk(lv, t));
            }
            assert_eq!(level_cols, sched.level(lv), "level {lv} chunk cover");
            for &j in sched.level(lv) {
                let j = j as usize;
                assert!(!seen[j], "column {j} scheduled twice");
                seen[j] = true;
                // Dependences point strictly to earlier levels.
                for k in par.schedule(j) {
                    let kl = (0..sched.n_levels())
                        .find(|&l| sched.level(l).contains(&(k as u32)))
                        .unwrap();
                    assert!(kl < lv, "update {k}->{j} must cross levels downward");
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "all columns scheduled");
        assert!(sched.avg_parallelism() >= 1.0);
    }

    #[test]
    fn chain_dag_elides_every_barrier() {
        // Diag + superdiagonal: column j depends on j - 1, a pure
        // chain. Every level is a singleton owned by worker 0, so the
        // compiled schedule must contain no barriers at all — and the
        // factor must still be bitwise serial.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 2.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = leveled_plan(&a, 4);
        assert_eq!(schedule_of(&par).n_levels(), n);
        assert_eq!(
            schedule_of(&par).n_barriers(),
            0,
            "chain must cost zero barriers"
        );
        let serial = serial_plan(&a);
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn heterogeneous_chain_still_elides_every_barrier() {
        // A superdiagonal chain whose per-column costs alternate
        // (every third column carries a sub-diagonal entry, which is
        // absorbed as the next column's diagonal — no fill, but the
        // costs cycle 5, 5, 3). A singleton level's cost used to pick
        // its owner (the prefix-sum target lands a cost-3 column on
        // worker 1 at 4 threads, a cost-5 column on worker 0), so the
        // owners alternated and most barriers survived. Ownership is
        // now normalized to worker 0, so the chain must cost zero
        // barriers.
        let n = 40;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 3.0);
            if j + 1 < n {
                t.push(j, j + 1, 1.0); // the chain edge j -> j + 1
                if j % 3 == 0 {
                    t.push(j + 1, j, 0.25); // heavier column, no fill
                }
            }
        }
        let a = t.to_csc().unwrap();
        let par = leveled_plan(&a, 4);
        assert_eq!(
            schedule_of(&par).n_levels(),
            n,
            "superdiagonal chain dominates"
        );
        assert_eq!(
            schedule_of(&par).n_barriers(),
            0,
            "cost-heterogeneous chain must still elide all barriers"
        );
        let serial = serial_plan(&a);
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn wide_dag_keeps_barriers() {
        // An arrow pointing up-left (dense last row and column): the
        // first n - 1 columns are mutually independent and all feed
        // the last one — two levels, multiple owners, so the single
        // level boundary must keep its barrier.
        let n = 32;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
            if j + 1 < n {
                t.push(n - 1, j, 1.0);
                t.push(j, n - 1, 1.0);
            }
        }
        let a = t.to_csc().unwrap();
        let par = leveled_plan(&a, 4);
        let sched = schedule_of(&par);
        assert_eq!(sched.n_levels(), 2);
        assert_eq!(sched.n_barriers(), 1);
        assert_eq!(sched.level(1), &[n as u32 - 1]);
        let serial = serial_plan(&a);
        assert!(bitwise_eq(
            &par.factor(&a).unwrap(),
            &serial.factor(&a).unwrap()
        ));
    }

    #[test]
    fn zero_pivot_reported_like_serial() {
        // Diagonal matrix with one zeroed value: the parallel plan must
        // report the same column as the serial plan.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 1.0);
        }
        let a0 = t.to_csc().unwrap();
        let mut a = a0.clone();
        a.values_mut()[3] = 0.0;
        let serial = serial_plan(&a0);
        let serial_err = serial.factor(&a).unwrap_err();
        let par = serial.leveled(3);
        let par_err = par.factor(&a).unwrap_err();
        assert_eq!(serial_err, par_err);
        assert!(matches!(par_err, LuPlanError::ZeroPivot { column: 3 }));
    }

    #[test]
    fn pattern_mismatch_rejected() {
        let a = gen::random_unsym(30, 3, 1);
        let par = leveled_plan(&a, 2);
        let other = gen::random_unsym(30, 3, 2);
        assert!(matches!(
            par.factor(&other),
            Err(LuPlanError::PatternMismatch)
        ));
    }

    #[test]
    fn more_threads_than_columns() {
        let a = gen::random_unsym(5, 2, 9);
        let par = leveled_plan(&a, 8);
        let serial = serial_plan(&a);
        let f1 = par.factor(&a).unwrap();
        let f2 = serial.factor(&a).unwrap();
        assert!(bitwise_eq(&f1, &f2));
    }

    #[test]
    fn empty_matrix() {
        let a = sympiler_sparse::CscMatrix::zeros(0, 0);
        let par = leveled_plan(&a, 2);
        assert_eq!(schedule_of(&par).n_levels(), 0);
        assert_eq!(schedule_of(&par).avg_parallelism(), 0.0);
        let f = par.factor(&a).unwrap();
        assert_eq!(f.l().nnz(), 0);
    }

    #[test]
    fn solve_through_parallel_factor() {
        let a = gen::convection_diffusion_2d(8, 8, 2.0, 7);
        let par = leveled_plan(&a, 4);
        let f = par.factor(&a).unwrap();
        let n = a.n_cols();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = f.solve(&b);
        assert!(sympiler_sparse::ops::rel_residual(&a, &x, &b) < 1e-12);
    }
}
