//! # sympiler
//!
//! A Rust reproduction of **Sympiler** (Cheshmi, Kamil, Strout, Mehri
//! Dehnavi — *Sympiler: Transforming Sparse Matrix Codes by Decoupling
//! Symbolic Analysis*, SC 2017): a sparsity-aware code generator that
//! performs all symbolic analysis of a sparse kernel at compile time and
//! emits numeric-only code specialized to one sparsity pattern.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sparse`] — CSC/COO storage, ops, Matrix Market I/O, generators;
//! * [`graph`] — reach-sets, elimination trees, fill patterns, supernodes;
//! * [`dense`] — the mini-BLAS used by supernodal kernels;
//! * [`core`] — the Sympiler itself: symbolic inspectors and the
//!   executable plans that bake VI-Prune, VS-Block and the low-level
//!   transformations in, plus the Figure 1e C emitter;
//! * [`obs`] — the observability layer: spans, kernel counters,
//!   numerical-health gauges, chrome-trace export
//!   ([`SympilerOptions::profile`] turns it on per compile);
//! * [`solvers`] — the Eigen-like and CHOLMOD-like baselines, plus the
//!   Gilbert–Peierls LU baseline for unsymmetric systems.
//!
//! Three kernels are compiled through the inspector→plan pipeline:
//! sparse triangular solve ([`SympilerTriSolve`]), Cholesky
//! ([`SympilerCholesky`]), and sparse LU ([`SympilerLu`]) — the last
//! extending the paper's two kernels to unsymmetric systems (circuit
//! simulation, convection-dominated CFD) by reusing the reach-set
//! machinery: each left-looking LU column solve *is* a sparse
//! triangular solve, so its VI-Prune set is a reach set on the growing
//! `DG_L`. LU's numeric phase is **two kernels**: scalar columns, or
//! supernodal VS-Block panels routed through dense GETRF/TRSM/GEMM
//! kernels (picked by the compiler where a panel pays for it, ~1e-12
//! agreement with the columns — dense kernels reassociate sums), each
//! walked in order on the calling thread; parallelism is across
//! requests, one factorization per
//! [`FactorService`](prelude::FactorService) worker. Two compile-time
//! knobs compose with both: a fill-reducing ordering
//! ([`SympilerOptions::ordering`]: RCM / COLAMD, applied `Qᵀ A Q`)
//! and a static pre-pivot ([`SympilerOptions::pre_pivot`]: maximum
//! transversal / weighted matching, producing a row permutation `P`
//! with a zero-free diagonal on `P·A`) — the latter is what lets
//! statically pivoted LU factor saddle-point and circuit matrices
//! whose diagonals are structurally zero.
//!
//! When values drift into numerically hostile territory after the
//! pattern was compiled, the **recovery ladder**
//! ([`RobustLu`](prelude::RobustLu)) escalates from static pivot
//! perturbation ([`SympilerOptions::pivot_perturb`]) through
//! iterative refinement to a partial-pivoting re-factorization,
//! governed by a [`RecoveryPolicy`](prelude::RecoveryPolicy) — see
//! ARCHITECTURE.md §Robustness.
//!
//! [`SympilerOptions::pivot_perturb`]: prelude::SympilerOptions
//!
//! [`SympilerOptions::ordering`]: prelude::SympilerOptions
//! [`SympilerOptions::pre_pivot`]: prelude::SympilerOptions
//! [`SympilerOptions::profile`]: prelude::SympilerOptions
//!
//! [`SympilerTriSolve`]: prelude::SympilerTriSolve
//! [`SympilerCholesky`]: prelude::SympilerCholesky
//! [`SympilerLu`]: prelude::SympilerLu
//!
//! ## Quickstart
//!
//! ```
//! use sympiler::prelude::*;
//!
//! // An SPD matrix from a 2-D Laplacian (lower-triangle storage).
//! let a = sympiler::sparse::gen::grid2d_laplacian(8, 8, false, 42);
//!
//! // Compile a Cholesky factorization specialized to A's pattern.
//! let chol = SympilerCholesky::compile(&a, &SympilerOptions::default()).unwrap();
//! let factor = chol.factor(&a).unwrap();
//!
//! // Solve A x = b via L (L^T x) = b.
//! let b = vec![1.0; a.n_cols()];
//! let x = factor.solve(&b);
//! let resid = sympiler::sparse::ops::rel_residual_sym_lower(&a, &x, &b);
//! assert!(resid < 1e-10);
//! ```

pub use sympiler_core as core;
pub use sympiler_dense as dense;
pub use sympiler_graph as graph;
pub use sympiler_obs as obs;
pub use sympiler_solvers as solvers;
pub use sympiler_sparse as sparse;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use sympiler_core::compile::{
        Ordering, PrePivot, SympilerCholesky, SympilerLu, SympilerOptions, SympilerTriSolve,
    };
    pub use sympiler_core::plan::chol::CholFactor;
    pub use sympiler_core::plan::lu::{
        BatchError, LuFactor, LuPlan, LuWorkspace, PerturbReport, RefineReport,
    };
    pub use sympiler_core::plan::lu_supernodal::SupernodalLuPlan;
    pub use sympiler_core::plan::tri::TriSolvePlan;
    pub use sympiler_core::robust::{Recovered, RecoveryError, RecoveryPolicy, RobustLu, Rung};
    pub use sympiler_core::serve::{
        CacheConfig, CacheStats, CachedPlan, FactorService, PlanCache, ServeError, ServeRequest,
        ServeResponse, Ticket,
    };
    pub use sympiler_obs::{
        Event, EventJournal, Histogram, HistogramSummary, LuHealth, MetricsRegistry,
        MetricsSnapshot, Profile, Profiler, TraceFile,
    };
    pub use sympiler_solvers::lu::{GpLu, GpLuFactors, Pivoting};
    pub use sympiler_sparse::{CscMatrix, SparseVec, TripletMatrix};
}
