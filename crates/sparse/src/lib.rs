//! # sympiler-sparse
//!
//! Sparse matrix substrate for the `sympiler-rs` workspace: compressed
//! sparse column (CSC) storage, coordinate (triplet) builders, core
//! operations (SpMV, transpose, permutation, symmetrization), sparse
//! vectors, Matrix Market I/O, and the workload generators that stand in
//! for the SuiteSparse matrices used in the Sympiler paper (SC'17,
//! Table 2).
//!
//! All matrices are `f64` and column-oriented, matching the paper's
//! convention (`{n, Lp, Li, Lx}` in its Figure 1). Row indices within a
//! column are kept sorted ascending; the structural invariants are
//! enforced by [`CscMatrix::try_new`] and checked throughout in debug
//! builds.

pub mod csc;
pub mod error;
pub mod faults;
pub mod gen;
pub mod io;
pub mod ops;
pub mod rhs;
pub mod sparsevec;
pub mod suite;
pub mod triplet;

pub use csc::{CscMatrix, PatternId};
pub use error::SparseError;
pub use sparsevec::SparseVec;
pub use triplet::TripletMatrix;

/// Result alias used across the sparse substrate.
pub type Result<T> = std::result::Result<T, SparseError>;
