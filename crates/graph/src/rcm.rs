//! Reverse Cuthill–McKee ordering.
//!
//! The paper does not prescribe a fill-reducing ordering; its libraries
//! run "recommended default configuration". Offline we need *some*
//! shared ordering so that grid and irregular problems factor at laptop
//! scale — RCM is simple, deterministic, and applied identically to
//! every engine, so relative comparisons (the paper's claims) are
//! unaffected.
//!
//! RCM is also wired into the LU compile pipeline's ordering knob
//! ([`crate::ordering::Ordering::Rcm`]) as the cheap symmetric-pattern
//! alternative. Note its limits there: for **unsymmetric** LU it
//! operates on the symmetrized pattern `|A| + |Aᵀ|`, which throws away
//! exactly the asymmetry that governs LU fill (the right structure is
//! the column intersection graph of `AᵀA`), and a minimal *bandwidth*
//! still fills the entire band during factorization. Expect
//! [`crate::ordering::Ordering::Colamd`] to dominate it on circuit-like
//! and randomly structured systems; RCM earns its keep on nearly
//! symmetric banded operators where its locality is the whole story.

use sympiler_sparse::{ops, CscMatrix};

/// Compute an RCM ordering of a symmetric matrix stored
/// lower-triangular. Returns `perm` with `perm[new] = old`, directly
/// usable with [`sympiler_sparse::ops::permute_sym`].
pub fn rcm_ordering(a_lower: &CscMatrix) -> Vec<usize> {
    assert!(a_lower.is_square(), "rcm requires a square matrix");
    let n = a_lower.n_cols();
    if n == 0 {
        return Vec::new();
    }
    // Full symmetric adjacency for neighbor scans.
    let full = ops::symmetrize_from_lower(a_lower)
        .expect("rcm requires lower-triangular symmetric storage");
    let degree: Vec<usize> = (0..n).map(|j| full.col_nnz(j)).collect();

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut frontier: Vec<usize> = Vec::new();
    let mut next_frontier: Vec<usize> = Vec::new();

    loop {
        // Start node: unvisited node of minimum degree (cheap
        // pseudo-peripheral heuristic).
        let start = match (0..n).filter(|&j| !visited[j]).min_by_key(|&j| degree[j]) {
            Some(s) => s,
            None => break,
        };
        let root = pseudo_peripheral(&full, start, &visited);
        // BFS, visiting neighbors in increasing-degree order.
        visited[root] = true;
        order.push(root);
        frontier.clear();
        frontier.push(root);
        while !frontier.is_empty() {
            next_frontier.clear();
            for &v in frontier.iter() {
                let mut neigh: Vec<usize> = full
                    .col_rows(v)
                    .iter()
                    .copied()
                    .filter(|&u| u != v && !visited[u])
                    .collect();
                neigh.sort_unstable_by_key(|&u| (degree[u], u));
                for u in neigh {
                    if !visited[u] {
                        visited[u] = true;
                        order.push(u);
                        next_frontier.push(u);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next_frontier);
        }
    }
    order.reverse(); // the "reverse" in RCM
    order
}

/// Find a pseudo-peripheral node: repeat BFS from the farthest
/// minimum-degree node of the last level until eccentricity stops
/// growing.
fn pseudo_peripheral(full: &CscMatrix, start: usize, visited: &[bool]) -> usize {
    let n = full.n_cols();
    let mut root = start;
    let mut last_ecc = 0usize;
    let mut level = vec![usize::MAX; n];
    for _ in 0..4 {
        // Bounded iterations; converges in 2-3 in practice.
        level.fill(usize::MAX);
        level[root] = 0;
        let mut frontier = vec![root];
        let mut ecc = 0;
        let mut last_level: Vec<usize> = vec![root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in full.col_rows(v) {
                    if u != v && !visited[u] && level[u] == usize::MAX {
                        level[u] = level[v] + 1;
                        ecc = ecc.max(level[u]);
                        next.push(u);
                    }
                }
            }
            if !next.is_empty() {
                last_level = next.clone();
            }
            frontier = next;
        }
        if ecc <= last_ecc {
            break;
        }
        last_ecc = ecc;
        root = *last_level
            .iter()
            .min_by_key(|&&u| full.col_nnz(u))
            .unwrap_or(&root);
    }
    root
}

/// Semi-bandwidth of a symmetric matrix stored lower-triangular:
/// `max_j (max_row(col j) - j)`.
pub fn semi_bandwidth(a_lower: &CscMatrix) -> usize {
    (0..a_lower.n_cols())
        .filter_map(|j| a_lower.col_rows(j).last().map(|&i| i - j))
        .max()
        .unwrap_or(0)
}

/// Apply RCM to a matrix and return the permuted matrix (lower storage)
/// together with the permutation used.
pub fn rcm_permute(a_lower: &CscMatrix) -> (CscMatrix, Vec<usize>) {
    let perm = rcm_ordering(a_lower);
    let full = ops::symmetrize_from_lower(a_lower).expect("requires lower storage");
    let permuted = ops::permute_sym(&full, &perm).expect("valid permutation");
    (ops::extract_lower(&permuted), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    #[test]
    fn rcm_is_a_permutation() {
        let a = gen::circuit_like(80, 4, 3, 1);
        let perm = rcm_ordering(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_grid() {
        // Shuffle a grid, then check RCM recovers a small bandwidth.
        let a = gen::grid2d_laplacian(12, 12, false, 2);
        let full = ops::symmetrize_from_lower(&a).unwrap();
        // A deterministic "bad" permutation: bit-reversal-ish stride.
        let n = 144;
        let bad: Vec<usize> = (0..n).map(|i| (i * 89) % n).collect();
        let shuffled = ops::extract_lower(&ops::permute_sym(&full, &bad).unwrap());
        let before = semi_bandwidth(&shuffled);
        let (rcm_matrix, _) = rcm_permute(&shuffled);
        let after = semi_bandwidth(&rcm_matrix);
        assert!(
            after < before / 2,
            "rcm should cut bandwidth: before={before}, after={after}"
        );
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        // Two disjoint blocks.
        let mut t = sympiler_sparse::TripletMatrix::new(6, 6);
        for j in 0..6 {
            t.push(j, j, 4.0);
        }
        t.push(1, 0, -1.0);
        t.push(4, 3, -1.0);
        let a = t.to_csc().unwrap();
        let perm = rcm_ordering(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_permute_preserves_symmetry_and_values() {
        let a = gen::random_spd(40, 4, 7);
        let (p, perm) = rcm_permute(&a);
        assert!(p.is_lower_storage());
        assert_eq!(p.nnz(), a.nnz(), "permutation preserves nnz");
        // Diagonal multiset is preserved.
        let mut d1: Vec<f64> = (0..40).map(|j| a.get(j, j)).collect();
        let mut d2: Vec<f64> = (0..40).map(|j| p.get(j, j)).collect();
        d1.sort_by(f64::total_cmp);
        d2.sort_by(f64::total_cmp);
        assert_eq!(d1, d2);
        assert_eq!(perm.len(), 40);
    }

    #[test]
    fn bandwidth_of_tridiagonal_is_one() {
        let a = gen::tridiagonal_spd(10);
        assert_eq!(semi_bandwidth(&a), 1);
    }

    #[test]
    fn empty_matrix() {
        let a = sympiler_sparse::CscMatrix::zeros(0, 0);
        assert!(rcm_ordering(&a).is_empty());
    }
}
