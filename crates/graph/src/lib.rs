//! # sympiler-graph
//!
//! The symbolic graph algorithms behind Sympiler's compile-time
//! inspectors (SC'17, §2.2 and Table 1):
//!
//! * [`dfs`] — Gilbert–Peierls reach-set computation on the dependence
//!   graph `DG_L` (the inspection strategy for triangular-solve
//!   VI-Prune);
//! * [`mod@etree`] — Liu's elimination-tree algorithm (the inspection graph
//!   for Cholesky);
//! * [`mod@postorder`] — postorder of an elimination forest (two
//!   sweeps, no search);
//! * [`mod@ereach`] — row sparsity patterns of `L` via etree up-traversal
//!   (Cholesky prune-sets);
//! * [`symbolic`] — the full fill pattern of `L` from Eq. (1) of the
//!   paper, enabling ahead-of-time allocation;
//! * [`mod@lu_symbolic`] — column-by-column symbolic LU (Gilbert–Peierls
//!   with Eisenstat–Liu symmetric pruning): per-column reach sets over
//!   the growing, pruned `DG_L`, predicting the patterns of both LU
//!   factors for a statically pivoted ordering;
//! * [`colcount`] — column counts of `L`;
//! * [`supernode`] — supernode detection: the etree merge rule
//!   (Cholesky block-sets), its relaxed amalgamation along etree parent
//!   links, and node equivalence on `DG_L` (triangular solve
//!   block-sets);
//! * [`mod@lu_supernode`] — column-panel detection on the predicted `L`
//!   of a symbolic LU (the nesting rule applied to Gilbert–Peierls
//!   patterns), the block-set inspector of the supernodal LU plan;
//! * [`rcm`] — reverse Cuthill–McKee ordering (fill reduction; shared by
//!   every engine so comparisons stay fair);
//! * [`colamd`] — COLAMD-style approximate-minimum-degree column
//!   ordering on the column intersection graph of `AᵀA` (quotient
//!   graph, supercolumns, dense-row stripping) — the fill-reducing
//!   ordering of the LU pipeline;
//! * [`mod@ordering`] — the [`Ordering`] knob the compile pipeline
//!   exposes (natural / RCM / COLAMD), its dispatch, and the etree
//!   postorder every computed ordering ends with (same fill, same
//!   flops, contiguous subtrees for panel detection);
//! * [`transversal`] — static pre-pivoting: MC21-style maximum
//!   transversal and MC64-like weighted matching producing a row
//!   permutation `P` with a zero-free (and numerically large) diagonal
//!   on `P·A`, dispatched through the [`PrePivot`] knob — what lets
//!   statically pivoted LU factor saddle-point and circuit matrices
//!   whose diagonals are structurally zero;
//! * [`levels`] — DAG scheduling: longest-path level sets (wavefronts)
//!   of any dependence DAG — `DG_L` for the parallel triangular solve,
//!   the column elimination DAG for the parallel LU numeric phase —
//!   plus cost-balanced chunking of levels across workers.

pub mod colamd;
pub mod colcount;
pub mod dfs;
pub mod ereach;
pub mod etree;
pub mod levels;
pub mod lu_supernode;
pub mod lu_symbolic;
pub mod ordering;
pub mod postorder;
pub mod rcm;
pub mod supernode;
pub mod symbolic;
pub mod transversal;

pub use colamd::{colamd_ordering, colamd_ordering_with, ColamdConfig};
pub use colcount::col_counts;
pub use dfs::{reach, reach_adjacency_into, reach_into};
pub use ereach::{ereach, ereach_into};
pub use etree::etree;
pub use levels::{
    balanced_partition, dag_levels_from_preds, dag_levels_from_succs, level_sets, lu_column_levels,
    LevelSets,
};
pub use lu_supernode::{
    flop_share_in_wide_panels, flop_share_in_wide_panels_from_parts, panel_flops, supernodes_lu,
    supernodes_lu_from_parts,
};
pub use lu_symbolic::{lu_symbolic, LuSymbolic};
pub use ordering::{compute_ordering, postorder_by_etree, symmetrized_etree, Ordering};
pub use postorder::postorder;
pub use rcm::rcm_ordering;
pub use supernode::{
    supernodes_cholesky, supernodes_cholesky_relaxed, supernodes_trisolve, RelaxedPanels,
    SupernodePartition,
};
pub use symbolic::{symbolic_cholesky, SymbolicFactor};
pub use transversal::{
    compute_pre_pivot, maximum_transversal, structural_rank, weighted_matching, PrePivot,
};
