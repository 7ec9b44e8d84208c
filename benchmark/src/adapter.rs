//! The benchmark's whole view of the program.
//!
//! Every item of the repository's crates that the benchmark touches is
//! imported here and nowhere else; the other modules reach the program
//! only through `crate::adapter::…`. The list below, together with the
//! methods named in `README.md` ("Frozen API surface"), is what a later
//! refactor must keep compiling — the benchmark may not be edited by a
//! change that claims a gain.

// sparse: storage, generators, the permutations the compile pipeline
// applies, and the sparse right-hand side of the triangular solve.
pub use sympiler_sparse::gen::{
    circuit_unsym, circuit_zero_diag, grid3d_laplacian, grid3d_nd_perm,
};
pub use sympiler_sparse::ops::{
    extract_lower, permute_general, permute_sym, symmetrize_from_lower,
};
pub use sympiler_sparse::rhs::rhs_from_column_pattern;
pub use sympiler_sparse::CscMatrix;

// graph: the inspection stages `SympilerLu::compile` and
// `SympilerCholesky::compile` run, replayed one by one.
pub use sympiler_graph::etree::etree;
pub use sympiler_graph::levels::lu_column_levels;
pub use sympiler_graph::lu_supernode::{panel_flops, supernodes_lu_relaxed};
pub use sympiler_graph::lu_symbolic::{lu_symbolic, LuSymbolic};
pub use sympiler_graph::ordering::compute_ordering;
pub use sympiler_graph::supernode::supernodes_cholesky;
pub use sympiler_graph::symbolic::symbolic_cholesky_with_etree;
pub use sympiler_graph::transversal::compute_pre_pivot;

// dense: the micro-kernels the supernodal plans call per panel.
pub use sympiler_dense::{
    gemm_nt_sub, getrf_nopiv, potrf_lower, trsm_right_lower_trans, trsm_right_upper,
};

// obs: the JSON value, parser and escaping every machine-readable
// artifact of the repository shares.
pub use sympiler_obs::json;

// core: compile, plan and serve.
pub use sympiler_core::serve::structural_hash;
pub use sympiler_core::{
    CacheConfig, FactorService, LuWorkspace, Ordering, PlanCache, PrePivot, ServeRequest,
    SympilerCholesky, SympilerLu, SympilerOptions, SympilerTriSolve,
};

// solvers: the coupled baselines, used as cross-check and yardstick.
pub use sympiler_solvers::{GpLu, Pivoting, SimplicialCholesky, SupernodalCholesky};

/// The relaxed-amalgamation parameters `SympilerOptions::default()`
/// compiles with (`max_panel`, `relax_fill`, `relax_cols`), needed to
/// replay panel detection through `graph` on its own.
pub const PANEL_PARAMS: (usize, f64, usize) = (32, 0.3, 16);

/// `SympilerOptions::max_supernode_width`'s default, for the Cholesky
/// supernode replay.
pub const CHOL_MAX_WIDTH: usize = 64;

/// Options of the LU workloads: everything default except the two
/// inspection knobs and the thread count.
pub fn lu_options(ordering: Ordering, pre_pivot: PrePivot, n_threads: usize) -> SympilerOptions {
    SympilerOptions {
        ordering,
        pre_pivot,
        n_threads,
        ..SympilerOptions::default()
    }
}

/// Full storage of a symmetric matrix given by its lower triangle.
pub fn full_storage(a_lower: &CscMatrix) -> CscMatrix {
    symmetrize_from_lower(a_lower).expect("lower storage symmetrizes")
}

/// The `nx³` 7-point Laplacian in geometric nested-dissection order,
/// lower storage — the SPD input.
pub fn nd_laplacian(nx: usize, seed: u64) -> CscMatrix {
    let full = full_storage(&grid3d_laplacian(nx, nx, nx, seed));
    let perm = grid3d_nd_perm(nx, nx, nx);
    extract_lower(&permute_sym(&full, &perm).expect("the ND ordering is a permutation"))
}
