//! Sparse LU baselines — the unsymmetric-system comparators for the
//! Sympiler-style LU plan in `sympiler-core::plan::lu`.
//!
//! * [`gplu`] — the reference left-looking Gilbert–Peierls LU: symbolic
//!   work (per-column DFS reach computation) is **coupled into every
//!   numeric factorization**, exactly the library behaviour the paper's
//!   decoupling removes. Supports static (diagonal) pivoting — the
//!   regime Sympiler compiles for — and classic partial pivoting as a
//!   numerical verification mode.
//! * [`lu_solve`](gplu::GpLuFactors::solve) — the end-to-end
//!   `P A x = b` solve path (`P b -> L y = P b -> U x = y`).

//! * [`gplu::PrePivotedGpLuFactors`] — the baseline under the static
//!   [`PrePivot`](sympiler_graph::transversal::PrePivot) row-matching
//!   knob composed with the same fill-reducing
//!   [`Ordering`](sympiler_graph::ordering::Ordering) knob the compiled
//!   pipeline uses (`Qᵀ·P·A·Q`; `PrePivot::Off` orders alone), so
//!   decoupling comparisons stay apples-to-apples when orderings are
//!   on and on matrices whose raw diagonal is structurally zero.
//! * [`gplu::ScaledPrePivotedGpLuFactors`] — the same baseline on the
//!   MC64-equilibrated matrix `Dr·A·Dc`, the comparator for compiled
//!   plans running with `mc64_scale` on.

pub mod gplu;

pub use gplu::{
    lu_backward_error, lu_reconstruction_error, lu_solve, GpLu, GpLuFactors, LuError, Pivoting,
    PrePivotedGpLuFactors, ScaledPrePivotedGpLuFactors,
};
