//! DAG leveling: level sets (wavefronts).
//!
//! Columns in the same level have no dependence path between them. The
//! paper lists parallel execution over such levels as the natural
//! extension of its inspection framework ("should extend to improve
//! performance on shared and distributed memory systems", §1; realized
//! later in the authors' ParSy). Here the levels lay out the compiled
//! LU plan's position tables and solve streams, and measure how much
//! concurrency a pattern's DAG holds:
//!
//! * [`level_sets`] — wavefronts of `DG_L` for a lower-triangular
//!   matrix;
//! * [`lu_column_levels`] — wavefronts of the **column elimination
//!   DAG** of a symbolic LU factorization, where column `j` depends on
//!   every column in its update schedule;
//! * [`dag_levels_from_succs`] / [`dag_levels_from_preds`] — the
//!   underlying longest-path leveling for any DAG given by successor
//!   or predecessor lists (Kahn's algorithm, cycle-checked).

use crate::lu_symbolic::LuSymbolic;
use std::collections::VecDeque;
use sympiler_sparse::CscMatrix;

/// Level schedule of a DAG: `levels[l]` lists the nodes whose longest
/// dependence chain has length `l`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSets {
    /// Nodes grouped by level, each group sorted ascending.
    pub levels: Vec<Vec<usize>>,
    /// `level_of[j]` = level of node `j`.
    pub level_of: Vec<usize>,
}

impl LevelSets {
    /// Number of levels (the critical-path length).
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Average available parallelism: nodes per level.
    pub fn avg_parallelism(&self) -> f64 {
        if self.levels.is_empty() {
            0.0
        } else {
            self.level_of.len() as f64 / self.levels.len() as f64
        }
    }

    /// Width of the widest level.
    pub fn max_width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Group `level_of` into ascending per-level node lists, each
    /// allocated once at its exact size.
    fn from_level_of(level_of: Vec<usize>) -> Self {
        let n_levels = level_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut sizes = vec![0usize; n_levels];
        for &lv in &level_of {
            sizes[lv] += 1;
        }
        let mut levels: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (j, &lv) in level_of.iter().enumerate() {
            levels[lv].push(j);
        }
        LevelSets { levels, level_of }
    }
}

/// Longest-path levels of a DAG on `n` nodes given by **successor**
/// lists: `succs(u)` yields every `v` that depends on `u` (edge
/// `u -> v`). Nodes need not be topologically numbered; Kahn's
/// algorithm orders them and `level_of[v] = 1 + max level_of[u]` over
/// `v`'s predecessors. O(V + E); `succs` is invoked twice per node. A
/// graph numbered in a topological order (every edge `u -> v` with
/// `u < v`, as in `DG_L`) levels in one pass over `succs` instead,
/// with the same result: longest-path levels are unique.
///
/// # Panics
/// If an edge leaves `0..n`, is a self-loop, or the graph has a cycle.
pub fn dag_levels_from_succs<F, I>(n: usize, mut succs: F) -> LevelSets
where
    F: FnMut(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    let mut level_of = vec![0usize; n];
    let topological = (0..n).all(|u| {
        let next = level_of[u] + 1;
        for v in succs(u) {
            assert!(v < n, "edge {u}->{v} leaves the graph");
            assert_ne!(v, u, "self-loop at {u}");
            if v < u {
                return false;
            }
            level_of[v] = level_of[v].max(next);
        }
        true
    });
    if topological {
        return LevelSets::from_level_of(level_of);
    }
    level_of.fill(0);
    let mut indeg = vec![0usize; n];
    for u in 0..n {
        for v in succs(u) {
            assert!(v < n, "edge {u}->{v} leaves the graph");
            assert_ne!(v, u, "self-loop at {u}");
            indeg[v] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop_front() {
        seen += 1;
        let lu = level_of[u];
        for v in succs(u) {
            if level_of[v] <= lu {
                level_of[v] = lu + 1;
            }
            indeg[v] -= 1;
            if indeg[v] == 0 {
                queue.push_back(v);
            }
        }
    }
    assert_eq!(seen, n, "dependence graph has a cycle");
    LevelSets::from_level_of(level_of)
}

/// Longest-path levels of a DAG given by **predecessor** lists:
/// `preds(j)` yields every node `j` depends on. A graph numbered in a
/// topological order (every predecessor smaller than its node, as in
/// the LU column DAG or a triangular solve's) levels in one pass over
/// `preds`; any other builds the successor adjacency once (CSR), then
/// levels via [`dag_levels_from_succs`]. Either way the levels are the
/// same: longest-path levels are unique.
///
/// # Panics
/// If an edge leaves `0..n`, is a self-loop, or the graph has a cycle.
pub fn dag_levels_from_preds<F, I>(n: usize, mut preds: F) -> LevelSets
where
    F: FnMut(usize) -> I,
    I: IntoIterator<Item = usize>,
{
    let mut level_of = vec![0usize; n];
    let topological = (0..n).all(|j| {
        let mut level = 0;
        for k in preds(j) {
            assert_ne!(k, j, "self-loop at {j}");
            if k > j {
                return false;
            }
            level = level.max(level_of[k] + 1);
        }
        level_of[j] = level;
        true
    });
    if topological {
        return LevelSets::from_level_of(level_of);
    }
    // Two passes over `preds` build the successor CSR without
    // per-node Vec allocations.
    let mut succ_ptr = vec![0usize; n + 1];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for j in 0..n {
        for k in preds(j) {
            assert!(k < n, "edge {k}->{j} leaves the graph");
            assert_ne!(k, j, "self-loop at {j}");
            succ_ptr[k + 1] += 1;
            edges.push((k, j));
        }
    }
    for u in 0..n {
        succ_ptr[u + 1] += succ_ptr[u];
    }
    let mut succ_idx = vec![0usize; edges.len()];
    let mut next = succ_ptr.clone();
    for (k, j) in edges {
        succ_idx[next[k]] = j;
        next[k] += 1;
    }
    dag_levels_from_succs(n, |u| {
        succ_idx[succ_ptr[u]..succ_ptr[u + 1]].iter().copied()
    })
}

/// Compute level sets of `DG_L` for a lower-triangular matrix with
/// diagonal-first columns: the sub-diagonal pattern of column `j` is
/// exactly its successor list. O(|L|).
pub fn level_sets(l: &CscMatrix) -> LevelSets {
    assert!(
        l.is_lower_triangular_with_diag(),
        "level sets need lower-triangular with diagonal"
    );
    dag_levels_from_succs(l.n_cols(), |j| l.col_rows(j)[1..].iter().copied())
}

/// Level sets of the **column elimination DAG** of a symbolic LU
/// factorization: column `j` depends on every column `k` in its update
/// schedule (`sym.reach(j)`), i.e. every `k < j` with `U(k, j) != 0`.
/// Columns in the same level read only finalized columns from earlier
/// levels, so their numeric column solves commute. O(|U|).
pub fn lu_column_levels(sym: &LuSymbolic) -> LevelSets {
    dag_levels_from_preds(sym.n, |j| sym.reach(j).iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    #[test]
    fn identity_is_one_level() {
        let l = CscMatrix::identity(5);
        let ls = level_sets(&l);
        assert_eq!(ls.n_levels(), 1);
        assert_eq!(ls.levels[0], vec![0, 1, 2, 3, 4]);
        assert_eq!(ls.avg_parallelism(), 5.0);
        assert_eq!(ls.max_width(), 5);
    }

    #[test]
    fn chain_is_n_levels() {
        let n = 6;
        let mut t = sympiler_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 1.0);
            if j + 1 < n {
                t.push(j + 1, j, -1.0);
            }
        }
        let l = t.to_csc().unwrap();
        let ls = level_sets(&l);
        assert_eq!(ls.n_levels(), n);
        for (lv, cols) in ls.levels.iter().enumerate() {
            assert_eq!(cols, &vec![lv]);
        }
    }

    #[test]
    fn levels_respect_dependences() {
        let l = gen::random_lower_triangular(60, 3, 3);
        let ls = level_sets(&l);
        for j in 0..60 {
            for &i in &l.col_rows(j)[1..] {
                assert!(
                    ls.level_of[i] > ls.level_of[j],
                    "edge {j}->{i} must increase level"
                );
            }
        }
        // Partition check.
        let total: usize = ls.levels.iter().map(Vec::len).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn empty_matrix() {
        let l = CscMatrix::zeros(0, 0);
        let ls = level_sets(&l);
        assert_eq!(ls.n_levels(), 0);
        assert_eq!(ls.avg_parallelism(), 0.0);
        assert_eq!(ls.max_width(), 0);
    }

    /// Reference: longest path to each node by dynamic programming over
    /// an explicit edge list, O(V * E) but obviously correct.
    fn reference_longest_path(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
        let mut level = vec![0usize; n];
        // Relax repeatedly until a fixed point (Bellman-Ford style;
        // terminates because the graph is acyclic).
        loop {
            let mut changed = false;
            for &(u, v) in edges {
                if level[v] < level[u] + 1 {
                    level[v] = level[u] + 1;
                    changed = true;
                }
            }
            if !changed {
                return level;
            }
        }
    }

    #[test]
    fn general_dag_not_topologically_numbered() {
        // 4 -> 2 -> 0 -> 3, 1 isolated: node numbering disagrees with
        // topological order, which the old DG_L sweep required.
        let n = 5;
        let preds: Vec<Vec<usize>> = vec![vec![2], vec![], vec![4], vec![0], vec![]];
        let ls = dag_levels_from_preds(n, |j| preds[j].iter().copied());
        assert_eq!(ls.level_of, vec![2, 0, 1, 3, 0]);
        assert_eq!(ls.levels[0], vec![1, 4]);
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|j| preds[j].iter().map(move |&k| (k, j)))
            .collect();
        assert_eq!(ls.level_of, reference_longest_path(n, &edges));
    }

    #[test]
    fn topologically_numbered_dags_level_alike_in_one_pass() {
        // Every edge ascends, so both entry points take the one-pass
        // path; one descending edge sends them to the general one.
        for seed in 0..8u64 {
            let n = 40;
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for v in 0..n {
                for u in 0..v {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 10 < 2 {
                        edges.push((u, v));
                    }
                }
            }
            // The extra node n feeds node 0: no cycle, one descent.
            for (n, extra) in [(n, None), (n + 1, Some((n, 0)))] {
                let mut edges = edges.clone();
                edges.extend(extra);
                let preds = |j: usize| edges.iter().filter(move |e| e.1 == j).map(|e| e.0);
                let succs = |u: usize| edges.iter().filter(move |e| e.0 == u).map(|e| e.1);
                let from_preds = dag_levels_from_preds(n, preds);
                assert_eq!(from_preds, dag_levels_from_succs(n, succs), "seed {seed}");
                assert_eq!(from_preds.level_of, reference_longest_path(n, &edges));
            }
        }
    }

    #[test]
    fn preds_and_succs_agree_on_random_dags() {
        for seed in 0..8u64 {
            // Random DAG via a random topological order.
            let n = 40;
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            let mut rnd = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rnd() as usize % (i + 1));
            }
            let mut rank = vec![0usize; n];
            for (pos, &v) in order.iter().enumerate() {
                rank[v] = pos;
            }
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            for v in 0..n {
                for u in 0..n {
                    if rank[u] < rank[v] && rnd() % 10 < 2 {
                        preds[v].push(u);
                    }
                }
            }
            let from_preds = dag_levels_from_preds(n, |j| preds[j].iter().copied());
            let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
            for v in 0..n {
                for &u in &preds[v] {
                    succs[u].push(v);
                }
            }
            let from_succs = dag_levels_from_succs(n, |u| succs[u].iter().copied());
            assert_eq!(from_preds, from_succs, "seed {seed}");
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|j| preds[j].iter().map(move |&k| (k, j)))
                .collect();
            assert_eq!(
                from_preds.level_of,
                reference_longest_path(n, &edges),
                "seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let preds: Vec<Vec<usize>> = vec![vec![2], vec![0], vec![1]];
        dag_levels_from_preds(3, |j| preds[j].iter().copied());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        dag_levels_from_succs(2, |u| if u == 1 { vec![1] } else { vec![] });
    }

    #[test]
    fn lu_column_levels_on_suite_matrix() {
        let a = gen::circuit_unsym(60, 4, 2, 17);
        let sym = crate::lu_symbolic(&a);
        let ls = lu_column_levels(&sym);
        // Every scheduled update crosses a level boundary downward.
        for j in 0..60 {
            for &k in sym.reach(j) {
                assert!(ls.level_of[k] < ls.level_of[j], "update {k}->{j}");
            }
        }
        // Partition.
        let total: usize = ls.levels.iter().map(Vec::len).sum();
        assert_eq!(total, 60);
        // Reference longest path over the explicit elimination DAG.
        let edges: Vec<(usize, usize)> = (0..60)
            .flat_map(|j| sym.reach(j).iter().map(move |&k| (k, j)))
            .collect();
        assert_eq!(ls.level_of, reference_longest_path(60, &edges));
    }

    #[test]
    fn dag_levels_match_reference_on_unsym_suite() {
        // The levels the position tier lays its tables out by, against
        // the reference longest paths over the explicit elimination DAG
        // of every unsymmetric suite pattern.
        use sympiler_sparse::suite::{unsym_suite, SuiteScale};
        for p in unsym_suite(SuiteScale::Test) {
            let sym = crate::lu_symbolic(&p.matrix);
            let ls = lu_column_levels(&sym);
            let n = p.n();
            // The elimination DAG: one edge per scheduled update.
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|j| sym.reach(j).iter().map(move |&k| (k, j)))
                .collect();
            assert_eq!(
                ls.level_of,
                reference_longest_path(n, &edges),
                "{}: levels must equal topological longest paths",
                p.name
            );
            // Levels partition the columns and respect every dependence.
            let total: usize = ls.levels.iter().map(Vec::len).sum();
            assert_eq!(total, n, "{}", p.name);
            for &(k, j) in &edges {
                assert!(ls.level_of[k] < ls.level_of[j], "{}: {k}->{j}", p.name);
            }
        }
    }
}
