//! Executable plans: inspection sets compiled into flat instruction
//! streams.
//!
//! The paper's Sympiler emits C and compiles it with GCC; the numeric
//! binary then contains *no* symbolic work — every loop bound, every
//! index, every kernel choice is already resolved. This reproduction's
//! generated code *is* the plan: [`tri::TriSolvePlan`],
//! [`chol::CholPlan`], and [`lu::LuPlan`] hold precomputed schedules
//! (pruned column lists, packed panels, descendant-update scatter maps,
//! per-column LU update schedules, kernel selections), and their
//! `solve`/`factor` methods execute only numeric loads, stores, and
//! floating-point operations. The Figure 1e emitter
//! ([`crate::emit::emit_trisolve_c`]) is kept as the paper's artifact
//! and is built and run with `cc` by a test.
//!
//! The LU pipeline is two item kernels under one scheduler: the scalar
//! **column** kernel of [`lu::LuPlan`] and the dense **panel** kernel of
//! [`lu_supernodal::SupernodalLuPlan`] (VS-Block column panels routed
//! through dense GETRF/TRSM/GEMM kernels), each walked by
//! [`level_schedule`] — in index order on one thread, or leveled over
//! its dependence DAG (column elimination DAG, panel DAG) across
//! workers.

pub mod chol;
pub mod level_schedule;
pub mod lu;
pub mod lu_supernodal;
pub(crate) mod pattern;
pub mod tri;

/// Unit tests of the leveled scalar walk ([`lu::LuPlan::leveled`]). The
/// module keeps the name of the file they were written in — the
/// column-parallel plan's, deleted when that plan became a schedule on
/// `LuPlan` — so the paths the suite reports them under did not move
/// with the code.
#[cfg(test)]
#[path = "lu/leveled_tests.rs"]
mod lu_parallel;

/// Kernel tier selected at compile (inspection) time for a dense
/// sub-block — the low-level-transformation decision of §2.4(3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelChoice {
    /// Fully unrolled specialized kernel (width 1..=4).
    Specialized,
    /// Generic mini-BLAS kernel.
    Generic,
}

impl KernelChoice {
    /// The width-based dispatch rule used by both plans.
    pub fn for_width(width: usize, low_level: bool) -> Self {
        if low_level && width <= 4 {
            KernelChoice::Specialized
        } else {
            KernelChoice::Generic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_dispatch_rule() {
        assert_eq!(KernelChoice::for_width(1, true), KernelChoice::Specialized);
        assert_eq!(KernelChoice::for_width(4, true), KernelChoice::Specialized);
        assert_eq!(KernelChoice::for_width(5, true), KernelChoice::Generic);
        assert_eq!(KernelChoice::for_width(2, false), KernelChoice::Generic);
    }
}
