//! Integration test for **Table 1**: the classification of inspection
//! graphs, strategies, inspection sets, and enabled low-level
//! transformations — checked against the concrete inspector outputs on
//! real matrices.

use sympiler::core::inspector::{
    CholVIPruneInspector, CholVSBlockInspector, EnabledTransformation, InspectionGraph,
    InspectionStrategy, SymbolicInspector, TriVIPruneInspector, TriVSBlockInspector,
};
use sympiler::sparse::gen;

#[test]
fn table1_rows_are_reproduced() {
    // Row 1: Triangular solve x VI-Prune.
    let i = TriVIPruneInspector;
    assert_eq!(i.graph(), InspectionGraph::DependenceGraphWithRhs);
    assert_eq!(i.strategy(), InspectionStrategy::Dfs);
    // Row 1 (Cholesky columns): etree + SP(A), single-node up-traversal.
    let i = CholVIPruneInspector;
    assert_eq!(i.graph(), InspectionGraph::EtreeWithSpA);
    assert_eq!(i.strategy(), InspectionStrategy::SingleNodeUpTraversal);
    // Row 2: VS-Block columns.
    let i = TriVSBlockInspector;
    assert_eq!(i.graph(), InspectionGraph::DependenceGraph);
    assert_eq!(i.strategy(), InspectionStrategy::NodeEquivalence);
    let i = CholVSBlockInspector;
    assert_eq!(i.graph(), InspectionGraph::EtreeWithColCount);
    assert_eq!(i.strategy(), InspectionStrategy::UpTraversal);
}

#[test]
fn enabled_low_level_transformations_match_table1() {
    use EnabledTransformation::*;
    // VI-Prune enables: dist, unroll, peel, vectorization.
    let expect_prune = [LoopDistribution, Unroll, Peel, Vectorize];
    for t in expect_prune {
        assert!(TriVIPruneInspector.enables().contains(&t));
        assert!(CholVIPruneInspector.enables().contains(&t));
    }
    // VS-Block enables: tile, unroll, peel, vectorization.
    let expect_block = [Tile, Unroll, Peel, Vectorize];
    for t in expect_block {
        assert!(TriVSBlockInspector.enables().contains(&t));
        assert!(CholVSBlockInspector.enables().contains(&t));
    }
    // And the differences matter: VI-Prune does not tile; VS-Block does
    // not distribute.
    assert!(!TriVIPruneInspector.enables().contains(&Tile));
    assert!(!TriVSBlockInspector.enables().contains(&LoopDistribution));
}

#[test]
fn inspection_sets_have_the_declared_shapes() {
    let a = gen::grid2d_laplacian(8, 8, false, 5);
    // Cholesky VI-Prune: prune-set per row = SP(L_j).
    let prune = CholVIPruneInspector.inspect(&a);
    assert_eq!(prune.symbolic.n, 64);
    // Cholesky VS-Block: block-set = supernodes.
    let block = CholVSBlockInspector.inspect(&prune.symbolic, 0);
    assert!(block.partition.n_supernodes() <= 64);
    // Triangular solve VI-Prune on the factor: reach-set.
    let l = sympiler::prelude::CscMatrix::try_new(
        64,
        64,
        prune.symbolic.l_col_ptr.clone(),
        prune.symbolic.l_row_idx.clone(),
        vec![1.0; prune.symbolic.l_nnz()],
    )
    .unwrap();
    let reach = TriVIPruneInspector.inspect(&l, &[0]);
    assert!(!reach.reach.is_empty());
    // Triangular solve VS-Block: block-set via node equivalence.
    let tri_block = TriVSBlockInspector.inspect(&l, 0);
    assert_eq!(tri_block.partition.n_cols(), 64);
}
