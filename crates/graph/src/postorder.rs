//! Postorder of an elimination forest.
//!
//! A postorder lays every subtree of the forest out as one contiguous
//! label range ending at its root. [`crate::ordering`] composes every
//! fill-reducing ordering with one, so that the columns panel detection
//! can merge are neighbours.

use crate::etree::NONE;

/// Compute a postorder permutation of the elimination forest given by
/// `parent` (with `parent[root] == NONE`). Children are visited in
/// increasing node order and trees in increasing root order, so the
/// result is deterministic, and a forest that already is postordered
/// maps to the identity.
///
/// Returns `post` where `post[k]` is the node visited k-th; every node
/// appears after all of its descendants.
///
/// An elimination forest numbers every child below its parent, which
/// lets two sweeps replace the depth-first search: ascending, every
/// node adds its subtree size to its parent's; descending, every node
/// takes the last free slot of its parent's range (of the whole order,
/// for a root) and hands the slots before its own to its children.
/// Neither sweep follows a pointer chain, so — unlike the search —
/// they run at memory throughput, not latency.
///
/// # Panics
/// If some `parent[v]` is neither `NONE` nor in `v + 1..n`.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // `end[v]` is v's subtree size until v is placed, then one past the
    // last slot still free for v's children.
    let mut end = vec![1usize; n];
    for (v, &p) in parent.iter().enumerate() {
        if p != NONE {
            assert!(
                v < p && p < n,
                "not an elimination forest: parent[{v}] = {p}"
            );
            end[p] += end[v];
        }
    }
    let mut post = vec![0usize; n];
    let mut roots_end = n;
    for v in (0..n).rev() {
        let size = end[v];
        let free = match parent[v] {
            NONE => &mut roots_end,
            p => &mut end[p],
        };
        // Descending v fills each range from the back, so ascending
        // siblings end up in ascending slots.
        let slot = *free - 1;
        *free -= size;
        post[slot] = v;
        end[v] = slot;
    }
    post
}

/// Inverse permutation: `inv[post[k]] = k`.
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (k, &v) in perm.iter().enumerate() {
        inv[v] = k;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::{etree, NONE};
    use sympiler_sparse::gen;

    fn is_valid_postorder(parent: &[usize], post: &[usize]) -> bool {
        let n = parent.len();
        if post.len() != n {
            return false;
        }
        let inv = inverse_permutation(post);
        // Every child must come before its parent.
        (0..n).all(|j| parent[j] == NONE || inv[j] < inv[parent[j]])
    }

    #[test]
    fn path_tree_postorder_is_identity() {
        let parent = vec![1, 2, 3, NONE];
        assert_eq!(postorder(&parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn forest_of_roots() {
        let parent = vec![NONE; 4];
        assert_eq!(postorder(&parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn branching_tree() {
        // 0 and 1 are children of 2; 3 child of 4; 2 and 4 children of 5.
        let parent = vec![2, 2, 5, 4, 5, NONE];
        let post = postorder(&parent);
        assert!(is_valid_postorder(&parent, &post));
        assert_eq!(post.len(), 6);
        assert_eq!(*post.last().unwrap(), 5);
    }

    #[test]
    fn etree_postorders_are_valid() {
        for seed in 0..10u64 {
            let a = gen::random_spd(50, 4, seed);
            let parent = etree(&a);
            let post = postorder(&parent);
            assert!(is_valid_postorder(&parent, &post), "seed {seed}");
            // Permutation check.
            let mut sorted = post.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        }
    }

    /// Depth-first reference: trees by ascending root, children by
    /// ascending label, every node after its subtree.
    fn dfs_postorder(parent: &[usize]) -> Vec<usize> {
        fn visit(v: usize, children: &[Vec<usize>], out: &mut Vec<usize>) {
            for &c in &children[v] {
                visit(c, children, out);
            }
            out.push(v);
        }
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for v in 0..n {
            if parent[v] != NONE {
                children[parent[v]].push(v);
            }
        }
        let mut out = Vec::with_capacity(n);
        for root in (0..n).filter(|&v| parent[v] == NONE) {
            visit(root, &children, &mut out);
        }
        out
    }

    #[test]
    fn two_sweeps_reproduce_the_depth_first_order() {
        assert_eq!(postorder(&[]), Vec::<usize>::new());
        assert_eq!(postorder(&[NONE]), vec![0]);
        // Interleaved trees {0, 2, 4} and {1, 3, 5}.
        let parent = vec![4, 5, 4, 5, NONE, NONE];
        assert_eq!(postorder(&parent), vec![0, 2, 4, 1, 3, 5]);
        for seed in 0..10u64 {
            let parent = etree(&gen::random_spd(60, 3, seed));
            assert_eq!(postorder(&parent), dfs_postorder(&parent), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "not an elimination forest")]
    fn a_parent_below_its_child_is_rejected() {
        postorder(&[NONE, 0]);
    }

    #[test]
    fn inverse_permutation_roundtrip() {
        let perm = vec![2, 0, 3, 1];
        let inv = inverse_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        for (k, &p) in perm.iter().enumerate() {
            assert_eq!(inv[p], k);
        }
    }
}
