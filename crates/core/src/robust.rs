//! Layer 3 of the numerical recovery ladder: policy-driven escalation
//! around the compiled LU pipeline.
//!
//! The static-pivoting contract moves all pivoting decisions to
//! compile time, so the numeric phase has no dynamic escape hatch of
//! its own. The ladder supplies one, rung by rung, cheapest first:
//!
//! 1. **Accept** — factor through the compiled plan and take the
//!    direct solve when its componentwise backward error (berr) is
//!    already below tolerance. Zero extra cost on healthy inputs.
//! 2. **Refine** — run [`LuFactor::solve_refined`]'s residual/
//!    correction loop against the caller's original matrix. Repairs
//!    static pivot perturbation ([`PerturbReport`]) and pattern-only
//!    transversal growth for a few SpMV + triangular-solve passes,
//!    without recompiling.
//! 3. **Re-factor** — fall back to the coupled partial-pivoting
//!    Gilbert–Peierls baseline ([`GpLu`]) under the *same* pre-pivot
//!    and ordering knobs, refined the same way. Costs a full
//!    symbolic + numeric factorization, but survives inputs whose
//!    static pivot sequence is numerically hopeless.
//! 4. **Fail** — a typed [`RecoveryError`] carrying the full
//!    diagnostic trail of everything the ladder tried.
//!
//! Every rung emits a `robust.*` counter on the compiled profiler, so
//! a serving deployment can watch how often requests escalate. Each
//! escalation (and final exhaustion) is additionally journalled on the
//! profiler's [`sympiler_obs::EventJournal`] as a `robust.escalate` /
//! `robust.exhausted` event carrying the observed berr and cause —
//! the discrete incident record a histogram cannot hold.
//!
//! [`LuFactor::solve_refined`]: crate::plan::lu::LuFactor::solve_refined
//! [`PerturbReport`]: crate::plan::lu::PerturbReport

use crate::compile::{SympilerLu, SympilerOptions};
use crate::plan::lu::{refine_with, LuPlanError, RefineReport};
use sympiler_solvers::lu::LuError;
use sympiler_solvers::{GpLu, Pivoting};
use sympiler_sparse::ops::componentwise_berr;
use sympiler_sparse::CscMatrix;

/// Escalation policy for the recovery ladder — carried on
/// [`SympilerOptions::recovery`] so it reaches the serving tier with
/// the request. It is read while a request runs, never at compile
/// time, so it is no part of plan-cache identity.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Componentwise backward-error tolerance for accepting a solve
    /// (every rung targets this).
    pub berr_tol: f64,
    /// Correction-iteration cap for the refinement rungs.
    pub max_refine_iters: usize,
    /// Permit the last-resort re-factorization through the coupled
    /// partial-pivoting baseline. Off caps the ladder at refinement.
    pub allow_refactor: bool,
    /// Serving tier only: when a [`crate::serve::FactorService`]
    /// request fails to factor, retry it once through the ladder's
    /// cheap rungs — re-factor through the same cache with
    /// `pivot_perturb = 1e-8` (the request's own value if already
    /// nonzero), then refine every solve to [`Self::berr_tol`] within
    /// [`Self::max_refine_iters`] corrections — and
    /// return the original factor error if any solve misses it. There
    /// is no baseline rung there, so [`Self::allow_refactor`] is not
    /// read. Off by default — the service's bitwise-reply contract is
    /// the conservative choice.
    pub serve_escalate: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            berr_tol: 1e-12,
            max_refine_iters: 10,
            allow_refactor: true,
            serve_escalate: false,
        }
    }
}

/// The rung of the ladder that produced an accepted solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Direct solve through the compiled plan was already below
    /// tolerance.
    Accept,
    /// Iterative refinement around the compiled factors converged.
    Refine,
    /// The partial-pivoting baseline (plus refinement) converged.
    Refactor,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rung::Accept => "accept",
            Rung::Refine => "refine",
            Rung::Refactor => "refactor",
        })
    }
}

/// One entry of the diagnostic trail: what a rung observed before the
/// ladder moved on (or stopped).
#[derive(Debug, Clone, PartialEq)]
pub enum TrailStep {
    /// The compiled plan's factorization failed outright.
    FactorFailed(LuPlanError),
    /// The direct solve's berr exceeded tolerance.
    BerrAboveTol { berr: f64, tol: f64 },
    /// Refinement around the compiled factors ran but did not
    /// converge.
    RefineStalled(RefineReport),
    /// The policy forbids the re-factorization rung.
    RefactorDisabled,
    /// The partial-pivoting baseline failed to factor.
    RefactorFailed(LuError),
    /// Refinement around the baseline factors did not converge either.
    RefactorStalled(RefineReport),
}

impl std::fmt::Display for TrailStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrailStep::FactorFailed(e) => write!(f, "plan factorization failed: {e}"),
            TrailStep::BerrAboveTol { berr, tol } => {
                write!(f, "direct solve berr {berr:.3e} above tol {tol:.3e}")
            }
            TrailStep::RefineStalled(r) => write!(
                f,
                "refinement stalled at berr {:.3e} after {} iterations",
                r.final_berr, r.iterations
            ),
            TrailStep::RefactorDisabled => f.write_str("re-factorization disabled by policy"),
            TrailStep::RefactorFailed(e) => write!(f, "baseline factorization failed: {e}"),
            TrailStep::RefactorStalled(r) => write!(
                f,
                "baseline refinement stalled at berr {:.3e} after {} iterations",
                r.final_berr, r.iterations
            ),
        }
    }
}

/// Why the ladder ultimately gave up (the root cause for
/// [`std::error::Error::source`] chaining).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryCause {
    /// The compiled plan failed and escalation could not produce a
    /// solution either.
    Plan(LuPlanError),
    /// The last-resort baseline factorization failed.
    Baseline(LuError),
    /// Everything factored, but no rung reached the tolerance.
    BerrAboveTol { berr: f64, tol: f64 },
}

/// The ladder ran out of rungs: every recovery attempt, in order, plus
/// the root cause. `Display` prints the cause; the trail is for logs
/// and post-mortems.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryError {
    /// Everything the ladder tried, in order.
    pub trail: Vec<TrailStep>,
    /// The final, decisive failure.
    pub cause: RecoveryCause,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            RecoveryCause::Plan(e) => write!(f, "recovery exhausted: plan error: {e}"),
            RecoveryCause::Baseline(e) => write!(f, "recovery exhausted: baseline error: {e}"),
            RecoveryCause::BerrAboveTol { berr, tol } => write!(
                f,
                "recovery exhausted: best berr {berr:.3e} above tol {tol:.3e}"
            ),
        }?;
        write!(f, " (trail:")?;
        for (i, step) in self.trail.iter().enumerate() {
            let sep = if i == 0 { " " } else { "; " };
            write!(f, "{sep}{step}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.cause {
            RecoveryCause::Plan(e) => Some(e),
            RecoveryCause::Baseline(e) => Some(e),
            RecoveryCause::BerrAboveTol { .. } => None,
        }
    }
}

/// A solution the ladder accepted, with its provenance.
#[derive(Debug, Clone)]
pub struct Recovered {
    /// The solution, in original coordinates.
    pub x: Vec<f64>,
    /// Which rung produced it.
    pub rung: Rung,
    /// Its componentwise backward error against the caller's matrix.
    pub berr: f64,
    /// The refinement report, when a refinement rung ran.
    pub refine: Option<RefineReport>,
    /// Diagnostic steps from the rungs that did *not* suffice.
    pub trail: Vec<TrailStep>,
}

/// The recovery driver: a compiled [`SympilerLu`] plus the policy and
/// knobs needed to escalate when its static pivot sequence fails
/// numerically.
///
/// ```
/// use sympiler_core::compile::{SympilerLu, SympilerOptions};
/// use sympiler_core::robust::{RobustLu, Rung};
///
/// let a = sympiler_sparse::gen::circuit_unsym(50, 4, 2, 7);
/// let robust = RobustLu::compile(&a, &SympilerOptions::default())?;
/// let b = vec![1.0; 50];
/// let r = robust.solve(&a, &b)?;
/// // A healthy matrix never escalates.
/// assert_eq!(r.rung, Rung::Accept);
/// assert!(r.berr <= 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RobustLu {
    lu: SympilerLu,
    opts: SympilerOptions,
}

impl RobustLu {
    /// Compile the underlying plan (including any `pivot_perturb`
    /// setting) and keep the options for the escalation rungs.
    pub fn compile(a: &CscMatrix, opts: &SympilerOptions) -> Result<Self, LuPlanError> {
        let lu = SympilerLu::compile(a, opts)?;
        Ok(Self {
            lu,
            opts: opts.clone(),
        })
    }

    /// Wrap an already-compiled pipeline.
    pub fn from_compiled(lu: SympilerLu, opts: SympilerOptions) -> Self {
        Self { lu, opts }
    }

    /// The compiled pipeline (rung 1 and 2's engine).
    pub fn lu(&self) -> &SympilerLu {
        &self.lu
    }

    /// The policy the ladder runs under.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.opts.recovery
    }

    /// Solve `A x = b`, climbing the ladder until a rung reaches the
    /// policy's berr tolerance: accept → refine → re-factor →
    /// [`RecoveryError`].
    pub fn solve(&self, a: &CscMatrix, b: &[f64]) -> Result<Recovered, RecoveryError> {
        let policy = &self.opts.recovery;
        let tol = policy.berr_tol;
        let prof = self.lu.profiler();
        let mut trail: Vec<TrailStep> = Vec::new();

        match self.lu.factor(a) {
            Err(e) => {
                prof.counter("robust.factor_fail").add(1);
                prof.journal().emit(
                    "robust.escalate",
                    &[],
                    &[("rung", "refactor"), ("cause", format!("{e}").as_str())],
                );
                trail.push(TrailStep::FactorFailed(e.clone()));
                self.refactor(a, b, trail, RecoveryCause::Plan(e))
            }
            Ok(f) => {
                // Rung 1: accept the direct solve when already good.
                let x = f.solve(b);
                let berr = componentwise_berr(a, &x, b);
                if berr <= tol {
                    prof.counter("robust.accept").add(1);
                    return Ok(Recovered {
                        x,
                        rung: Rung::Accept,
                        berr,
                        refine: None,
                        trail,
                    });
                }
                trail.push(TrailStep::BerrAboveTol { berr, tol });
                prof.journal().emit(
                    "robust.escalate",
                    &[("berr", berr), ("tol", tol)],
                    &[("rung", "refine")],
                );

                // Rung 2: refine around the compiled factors.
                let (x, report) = f.solve_refined(a, b, tol, policy.max_refine_iters);
                if report.converged {
                    prof.counter("robust.refine").add(1);
                    return Ok(Recovered {
                        x,
                        rung: Rung::Refine,
                        berr: report.final_berr,
                        refine: Some(report),
                        trail,
                    });
                }
                trail.push(TrailStep::RefineStalled(report.clone()));
                prof.journal().emit(
                    "robust.escalate",
                    &[("berr", report.final_berr), ("tol", tol)],
                    &[("rung", "refactor")],
                );

                let cause = RecoveryCause::BerrAboveTol {
                    berr: report.final_berr,
                    tol,
                };
                self.refactor(a, b, trail, cause)
            }
        }
    }

    /// Rung 3: the coupled partial-pivoting baseline under the same
    /// pre-pivot and ordering knobs, refined against the original
    /// matrix. `cause` is what the earlier rungs would report should
    /// this rung be unavailable or insufficient.
    fn refactor(
        &self,
        a: &CscMatrix,
        b: &[f64],
        mut trail: Vec<TrailStep>,
        cause: RecoveryCause,
    ) -> Result<Recovered, RecoveryError> {
        let policy = &self.opts.recovery;
        let prof = self.lu.profiler();
        if !policy.allow_refactor {
            prof.counter("robust.fail").add(1);
            prof.journal()
                .emit("robust.exhausted", &[], &[("reason", "refactor disabled")]);
            trail.push(TrailStep::RefactorDisabled);
            return Err(RecoveryError { trail, cause });
        }
        let tol = policy.berr_tol;
        let baseline = match GpLu::factor_prepivoted(
            a,
            Pivoting::Partial,
            self.opts.pre_pivot,
            self.opts.ordering,
        ) {
            Ok(f) => f,
            Err(e) => {
                prof.counter("robust.fail").add(1);
                prof.journal().emit(
                    "robust.exhausted",
                    &[],
                    &[("reason", format!("baseline: {e}").as_str())],
                );
                trail.push(TrailStep::RefactorFailed(e.clone()));
                return Err(RecoveryError {
                    trail,
                    cause: RecoveryCause::Baseline(e),
                });
            }
        };
        let (x, report) = refine_with(a, b, tol, policy.max_refine_iters, |rhs| {
            baseline.solve(rhs)
        });
        if report.converged {
            prof.counter("robust.refactor").add(1);
            return Ok(Recovered {
                x,
                rung: Rung::Refactor,
                berr: report.final_berr,
                refine: Some(report),
                trail,
            });
        }
        prof.counter("robust.fail").add(1);
        prof.journal().emit(
            "robust.exhausted",
            &[("berr", report.final_berr), ("tol", tol)],
            &[("reason", "baseline refinement stalled")],
        );
        trail.push(TrailStep::RefactorStalled(report.clone()));
        Err(RecoveryError {
            trail,
            cause: RecoveryCause::BerrAboveTol {
                berr: report.final_berr,
                tol,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_graph::transversal::PrePivot;
    use sympiler_sparse::gen;

    #[test]
    fn healthy_matrix_accepts_on_rung_one() {
        let a = gen::circuit_unsym(80, 4, 2, 7);
        let robust = RobustLu::compile(&a, &SympilerOptions::default()).unwrap();
        let b = vec![1.0; 80];
        let r = robust.solve(&a, &b).unwrap();
        assert_eq!(r.rung, Rung::Accept);
        assert!(r.berr <= 1e-12);
        assert!(r.trail.is_empty());
    }

    #[test]
    fn a_nan_value_is_never_accepted() {
        // A NaN answer has no backward error to meet: the direct solve
        // and its refinement report no convergence, and every rung ends
        // in a typed error instead of `Rung::Accept`.
        let a = gen::circuit_unsym(20, 3, 1, 5);
        let mut poisoned = a.clone();
        poisoned.values_mut()[7] = f64::NAN;
        let robust = RobustLu::compile(&a, &SympilerOptions::default()).unwrap();
        let b = vec![1.0; 20];
        let f = robust.lu().factor(&poisoned).unwrap();
        let (_, report) = f.solve_refined(&poisoned, &b, 1e-12, 5);
        assert!(!report.converged && report.final_berr == f64::INFINITY);
        let err = robust.solve(&poisoned, &b).unwrap_err();
        assert!(
            matches!(err.trail[0], TrailStep::BerrAboveTol { berr, .. } if berr.is_infinite()),
            "{err}"
        );
    }

    #[test]
    fn transversal_growth_recovers_by_refinement() {
        // The pattern-only transversal on a zero-diagonal circuit is
        // the motivating case: the static pivot sequence factors but
        // with large growth, and refinement repairs the solve without
        // recompiling.
        let a = gen::circuit_zero_diag(300, 4, 2, 206);
        let opts = SympilerOptions {
            pre_pivot: PrePivot::Transversal,
            ..SympilerOptions::default()
        };
        let robust = RobustLu::compile(&a, &opts).unwrap();
        let b: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i % 7) as f64).collect();
        let r = robust.solve(&a, &b).unwrap();
        assert!(r.berr <= 1e-12, "berr {} above tol", r.berr);
        assert!(
            matches!(r.rung, Rung::Accept | Rung::Refine),
            "should not need the baseline, got {:?}",
            r.rung
        );
    }

    fn dense2(v00: f64, v10: f64, v01: f64, v11: f64) -> CscMatrix {
        let mut t = sympiler_sparse::TripletMatrix::new(2, 2);
        t.push(0, 0, v00);
        t.push(1, 0, v10);
        t.push(0, 1, v01);
        t.push(1, 1, v11);
        t.to_csc().unwrap()
    }

    #[test]
    fn zero_pivot_escalates_to_baseline() {
        // Value-level pivot cancellation the static sequence cannot
        // survive: column 1 eliminates to an exact zero pivot.
        let healthy = dense2(1.0, 1.0, 2.0, 2.0 + 1e-3);
        let robust = RobustLu::compile(&healthy, &SympilerOptions::default()).unwrap();
        let b = vec![1.0, 2.0];
        let r = robust.solve(&healthy, &b).unwrap();
        assert_eq!(r.rung, Rung::Accept);
        // Same pattern, values that cancel the static pivot exactly:
        // the matrix is singular, so even the partial-pivoting rung
        // fails — the ladder must report a typed error whose trail
        // starts with the plan's factor failure.
        let singular = dense2(1.0, 1.0, 2.0, 2.0);
        let err = robust.solve(&singular, &b).unwrap_err();
        assert!(matches!(err.trail[0], TrailStep::FactorFailed(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn ill_scaled_pivot_recovers_without_refactoring() {
        // A 1e-300 static pivot produces 1e300 multipliers on a
        // perfectly well-conditioned matrix — yet refinement against
        // the original matrix repairs the solve, so the ladder never
        // has to pay for the baseline.
        let a = dense2(1.0, 1.0, 2.0, 3.0);
        let robust = RobustLu::compile(&a, &SympilerOptions::default()).unwrap();
        let ill = dense2(1e-300, 1.0, 1.0, 1.0);
        let r = robust.solve(&ill, &[1.0, 2.0]).unwrap();
        assert!(r.berr <= 1e-12, "berr {}", r.berr);
        assert!(matches!(r.rung, Rung::Refine | Rung::Refactor));
    }

    /// Pattern of a nonsingular 3×3 whose column-1 static pivot
    /// cancels *exactly* under elimination:
    /// `[[1,1,0],[1,1,1],[0,1,1]]` has determinant −1, but `u11 =
    /// 1 − 1·1 = 0`. No amount of refinement helps a failed
    /// factorization — only the partial-pivoting baseline does.
    fn cancelling3(d1: f64) -> CscMatrix {
        let mut t = sympiler_sparse::TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, d1);
        t.push(2, 1, 1.0);
        t.push(1, 2, 1.0);
        t.push(2, 2, 1.0);
        t.to_csc().unwrap()
    }

    #[test]
    fn exact_cancellation_recovers_via_baseline() {
        // Compile on healthy values (u11 = 3 − 1 = 2), then feed the
        // same pattern with values that cancel the pivot exactly.
        let robust = RobustLu::compile(&cancelling3(3.0), &SympilerOptions::default()).unwrap();
        let tricky = cancelling3(1.0);
        let b = vec![1.0, 2.0, 3.0];
        let r = robust.solve(&tricky, &b).unwrap();
        assert_eq!(r.rung, Rung::Refactor);
        assert!(r.berr <= 1e-12, "berr {}", r.berr);
        assert!(matches!(r.trail[0], TrailStep::FactorFailed(_)));
    }

    #[test]
    fn policy_can_disable_the_baseline() {
        let singular = dense2(1.0, 1.0, 2.0, 2.0);
        let opts = SympilerOptions {
            recovery: RecoveryPolicy {
                allow_refactor: false,
                ..RecoveryPolicy::default()
            },
            ..SympilerOptions::default()
        };
        let robust = RobustLu::compile(&singular, &opts).unwrap();
        let err = robust.solve(&singular, &[1.0, 2.0]).unwrap_err();
        assert!(err
            .trail
            .iter()
            .any(|s| matches!(s, TrailStep::RefactorDisabled)));
        assert!(matches!(err.cause, RecoveryCause::Plan(_)));
        use std::error::Error;
        assert!(err.source().is_some());
    }

    #[test]
    fn escalations_are_journalled_with_monotonic_seq() {
        let opts = SympilerOptions {
            profile: true,
            ..SympilerOptions::default()
        };
        let robust = RobustLu::compile(&cancelling3(3.0), &opts).unwrap();
        let tricky = cancelling3(1.0);
        let r = robust.solve(&tricky, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(r.rung, Rung::Refactor);
        let journal = robust.lu().profiler().journal();
        let events = journal.events();
        assert!(
            events.iter().any(|e| e.kind == "robust.escalate"
                && e.notes.iter().any(|(k, v)| k == "rung" && v == "refactor")),
            "escalation to the baseline must be journalled, got {events:?}"
        );
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        // The unprofiled path journals nothing.
        let quiet = RobustLu::compile(&cancelling3(3.0), &SympilerOptions::default()).unwrap();
        quiet.solve(&tricky, &[1.0, 2.0, 3.0]).unwrap();
        assert!(quiet.lu().profiler().journal().is_empty());
    }

    #[test]
    fn counters_track_the_rungs() {
        let a = gen::circuit_unsym(50, 4, 2, 7);
        let opts = SympilerOptions {
            profile: true,
            ..SympilerOptions::default()
        };
        let robust = RobustLu::compile(&a, &opts).unwrap();
        robust.solve(&a, &vec![1.0; 50]).unwrap();
        assert_eq!(robust.lu().profiler().counter_value("robust.accept"), 1);
    }
}
