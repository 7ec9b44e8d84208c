//! # sympiler-solvers
//!
//! Reference and baseline sparse solvers — the comparators of the
//! Sympiler paper's evaluation (§4):
//!
//! * [`trisolve`] — sparse triangular solve variants: the naive forward
//!   substitution of Figure 1b, the library implementation with the
//!   `x[j] != 0` guard of Figure 1c (how Eigen implements it), and the
//!   decoupled reach-set solver of Figure 1d;
//! * [`cholesky::simplicial`] — left-looking non-supernodal Cholesky,
//!   the Eigen baseline: its numeric phase recomputes row patterns
//!   (ereach) and the implicit transpose of `A` every factorization —
//!   exactly the symbolic/numeric coupling §4.2 describes;
//! * [`cholesky::supernodal`] — left-looking supernodal Cholesky over
//!   the generic mini-BLAS, the CHOLMOD baseline: symbolic analysis is
//!   reusable, but the numeric phase still transposes `A` and computes
//!   relative indices at run time;
//! * [`lu`] — the left-looking Gilbert–Peierls LU baseline for
//!   unsymmetric systems, with runtime (coupled) symbolic analysis, a
//!   partial-pivoting verification mode, and one ordered entry point
//!   (`factor_prepivoted`, with its MC64-scaled variant) that applies
//!   the same fill-reducing-ordering and row-matching knobs as the
//!   compiled pipeline, so decoupling comparisons stay
//!   apples-to-apples even on zero-diagonal systems;
//! * [`verify`] — residual and reconstruction checks shared by tests
//!   and benchmarks.

pub mod cholesky;
pub mod lu;
pub mod trisolve;
pub mod verify;

pub use cholesky::simplicial::SimplicialCholesky;
pub use cholesky::supernodal::SupernodalCholesky;
pub use lu::{GpLu, GpLuFactors, LuError, Pivoting};
