//! Level-set parallel triangular solve.
//!
//! The paper closes §1 noting its single-core transformations "should
//! extend to improve performance on shared and distributed memory
//! systems" — the direction later realized in ParSy. This module
//! implements the classic wavefront schedule: columns in the same level
//! of `DG_L` are independent and execute in parallel; levels are
//! barriers.
//!
//! Conflicting scatter updates from columns in the same level are made
//! safe by giving each worker a private accumulation buffer, merged at
//! the level barrier (sparse delta lists keep the merge O(touched)).

use sympiler_graph::levels::level_sets;
use sympiler_sparse::{CscMatrix, SparseVec};

/// A level-scheduled parallel solver for a fixed `L`.
#[derive(Debug, Clone)]
pub struct ParallelTriSolve {
    n: usize,
    /// Levels of reached columns only (pruned wavefronts).
    levels: Vec<Vec<usize>>,
    /// Copy of the matrix arrays (plan-owned, like the serial plan).
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
    n_threads: usize,
}

impl ParallelTriSolve {
    /// Build a schedule for `l` restricted to the reach of `beta`.
    pub fn build(l: &CscMatrix, beta: &[usize], n_threads: usize) -> Self {
        assert!(n_threads >= 1, "need at least one thread");
        let ls = level_sets(l);
        let mut reached = vec![false; l.n_cols()];
        for &j in sympiler_graph::reach(l, beta).iter() {
            reached[j] = true;
        }
        let levels: Vec<Vec<usize>> = ls
            .levels
            .iter()
            .map(|lvl| lvl.iter().copied().filter(|&j| reached[j]).collect())
            .filter(|lvl: &Vec<usize>| !lvl.is_empty())
            .collect();
        Self {
            n: l.n_cols(),
            levels,
            col_ptr: l.col_ptr().to_vec(),
            row_idx: l.row_idx().to_vec(),
            values: l.values().to_vec(),
            n_threads,
        }
    }

    /// Number of wavefronts.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Solve `L x = b` into a zeroed `x`.
    pub fn solve(&self, b: &SparseVec, x: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        for (i, v) in b.iter() {
            x[i] = v;
        }
        for level in &self.levels {
            if level.len() < self.n_threads * 4 || self.n_threads == 1 {
                // Small level: serial execution avoids fork overhead.
                for &j in level {
                    self.column(j, x, None);
                }
                continue;
            }
            // Parallel: workers accumulate deltas privately, merge at
            // the barrier.
            let chunk = level.len().div_ceil(self.n_threads);
            let xr: &[f64] = x;
            let deltas: Vec<Vec<(usize, f64)>> = std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for ch in level.chunks(chunk) {
                    handles.push(scope.spawn(move || {
                        let mut delta: Vec<(usize, f64)> = Vec::new();
                        for &j in ch {
                            // x[j] is final at this level (no writes to
                            // it from this level's columns).
                            let range = self.col_ptr[j]..self.col_ptr[j + 1];
                            let xj = xr[j] / self.values[range.start];
                            delta.push((j, xj - xr[j])); // set via delta
                            for (&i, &v) in self.row_idx[range.start + 1..range.end]
                                .iter()
                                .zip(&self.values[range.start + 1..range.end])
                            {
                                delta.push((i, -v * xj));
                            }
                        }
                        delta
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            });
            for delta in deltas {
                for (i, dv) in delta {
                    x[i] += dv;
                }
            }
        }
    }

    fn column(&self, j: usize, x: &mut [f64], _tag: Option<()>) {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        let xj = x[j] / self.values[range.start];
        x[j] = xj;
        for (&i, &v) in self.row_idx[range.start + 1..range.end]
            .iter()
            .zip(&self.values[range.start + 1..range.end])
        {
            x[i] -= v * xj;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen::random_lower_triangular;
    use sympiler_sparse::rhs;

    #[test]
    fn parallel_matches_serial() {
        for seed in 0..5u64 {
            let l = random_lower_triangular(300, 3, seed);
            let b = rhs::random_sparse_rhs(300, 0.05, seed + 9);
            let solver = ParallelTriSolve::build(&l, b.indices(), 4);
            let mut x = vec![0.0; 300];
            solver.solve(&b, &mut x);
            let mut expect = b.to_dense();
            sympiler_solvers::trisolve::naive_forward(&l, &mut expect);
            for i in 0..300 {
                assert!(
                    (x[i] - expect[i]).abs() < 1e-10,
                    "seed {seed}: x[{i}] {} vs {}",
                    x[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn single_thread_works() {
        let l = random_lower_triangular(50, 2, 1);
        let b = rhs::random_sparse_rhs(50, 0.1, 2);
        let solver = ParallelTriSolve::build(&l, b.indices(), 1);
        let mut x = vec![0.0; 50];
        solver.solve(&b, &mut x);
        let mut expect = b.to_dense();
        sympiler_solvers::trisolve::naive_forward(&l, &mut expect);
        for i in 0..50 {
            assert!((x[i] - expect[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn pruned_levels_only_contain_reach() {
        let l = random_lower_triangular(100, 2, 3);
        let b = rhs::random_sparse_rhs(100, 0.02, 4);
        let solver = ParallelTriSolve::build(&l, b.indices(), 2);
        let reach: std::collections::BTreeSet<usize> =
            sympiler_graph::reach(&l, b.indices()).into_iter().collect();
        let scheduled: usize = (0..solver.n_levels()).map(|k| solver.levels[k].len()).sum();
        assert_eq!(scheduled, reach.len());
    }
}
