//! # sympiler-core
//!
//! The Sympiler itself (SC'17): a domain-specific code generator that
//! **decouples symbolic analysis from numeric computation** for sparse
//! matrix kernels with static sparsity patterns.
//!
//! Pipeline (paper Figure 2) — one compile architecture:
//!
//! 1. [`inspector`] — compile-time *symbolic inspectors*: one per
//!    (numerical method × transformation) pair, each combining an
//!    inspection graph, an inspection strategy, and an inspection set
//!    (Table 1).
//! 2. [`plan`] — *executable plans*: the inspection sets compiled into
//!    flat, pattern-specialized instruction streams executed by static
//!    Rust loops, with **VI-Prune**, **VS-Block** and the low-level
//!    transformations (peeling, unrolled specialized kernels) applied
//!    while the plan is packed. The plan is this reproduction's
//!    generated code. The LU plans additionally execute
//!    level-scheduled across threads through one scheduler and walker,
//!    [`plan::level_schedule`] (the column elimination DAG, or the
//!    panel DAG of the supernodal plan).
//! 3. [`compile`] — the user-facing driver:
//!    [`compile::SympilerTriSolve`], [`compile::SympilerCholesky`] and
//!    [`compile::SympilerLu`].
//! 4. [`serve`] — the serving layer over the compiled pipeline: a
//!    structural-hash plan cache, batched factor/solve entry points,
//!    and a thread-pool front end for request streams.
//!
//! [`emit`] holds the one C emitter, the matrix-specialized triangular
//! solve of Figure 1e — the paper's output artifact, golden-tested and
//! built and run with `cc` by `tests/fig1_golden.rs`.

pub mod compile;
pub mod emit;
pub mod inspector;
pub mod plan;
pub mod report;
pub mod robust;
pub mod serve;

pub use compile::{
    Ordering, PrePivot, SympilerCholesky, SympilerLu, SympilerOptions, SympilerTriSolve,
};
pub use plan::lu::{BatchError, LuWorkspace, PerturbReport, RefineReport};
pub use report::SymbolicReport;
pub use robust::{Recovered, RecoveryError, RecoveryPolicy, RobustLu, Rung};
pub use serve::{
    CacheConfig, CacheStats, CachedPlan, FactorService, PlanCache, ServeError, ServeRequest,
    ServeResponse, Ticket,
};
// Observability layer (spans, counters, health monitors) — re-exported
// so downstream users can drive profiling without naming the obs crate.
pub use sympiler_obs::{
    Event, EventJournal, Histogram, HistogramSummary, LuHealth, MetricsRegistry, MetricsSnapshot,
    Profile, Profiler, TraceFile,
};
