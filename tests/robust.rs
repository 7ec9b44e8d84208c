//! Integration tests for the robustness ladder and serving-layer
//! fault tolerance: static pivot perturbation across both LU
//! execution tiers, per-lane batch fault reporting, the
//! `RobustLu` recovery driver, error-surface conformance
//! (`std::error::Error` + `source()` chaining), and deterministic
//! worker-fault injection against the `FactorService` pool.

mod common;

use common::factor_on_tier;
use std::sync::Arc;
use std::time::Duration;
use sympiler::core::plan::lu::LuPlanError;
use sympiler::core::serve::fault;
use sympiler::prelude::*;
use sympiler::sparse::faults::{tiny_diagonals, zero_diagonals};
use sympiler::sparse::gen;
use sympiler::sparse::CscMatrix;

/// Healthy circuit matrix used across the tier tests.
fn healthy() -> CscMatrix {
    gen::circuit_unsym(120, 4, 2, 31)
}

/// The same matrix with its first diagonal value zeroed — column 0's
/// pivot takes no elimination updates, so the zero survives into the
/// pivot position and statically pivoted LU must either perturb or
/// fail.
fn zeroed_first_pivot() -> CscMatrix {
    let (faulted, hit) = zero_diagonals(&healthy(), &[0]);
    assert_eq!(hit, vec![0]);
    faulted
}

/// The two LU execution tiers: name, and whether panels run dense.
/// Each is forced on the test matrix through the plan constructors
/// ([`factor_on_tier`]).
const TIERS: [(&str, bool); 2] = [("scalar", false), ("supernodal", true)];

/// `a` factored on one tier under the default options, with a
/// perturbation tolerance.
fn factor_perturbed(
    a: &CscMatrix,
    pivot_perturb: f64,
    supernodal: bool,
) -> Result<LuFactor, LuPlanError> {
    let opts = SympilerOptions {
        pivot_perturb,
        ..Default::default()
    };
    factor_on_tier(a, &opts, supernodal)
}

// --- Layer 1: static pivot perturbation, both tiers ----------------

#[test]
fn zero_pivot_fails_every_tier_without_perturbation() {
    let a = zeroed_first_pivot();
    for (tier, supernodal) in TIERS {
        match factor_perturbed(&a, 0.0, supernodal) {
            Err(e) => assert!(
                format!("{e}").contains("pivot"),
                "{tier}: error must name the pivot: {e}"
            ),
            Ok(_) => panic!("{tier}: exact-zero pivot must fail with perturbation off"),
        }
    }
}

#[test]
fn perturbation_unblocks_every_tier_and_reports_the_column() {
    let a = zeroed_first_pivot();
    for (tier, supernodal) in TIERS {
        let f = factor_perturbed(&a, 1e-8, supernodal)
            .unwrap_or_else(|e| panic!("{tier}: perturbed factor failed: {e}"));
        let report = f.perturb_report();
        assert!(
            report.columns.contains(&0),
            "{tier}: perturbed columns {:?} must include the zeroed pivot",
            report.columns
        );
        assert!(report.threshold > 0.0, "{tier}: threshold must be recorded");
        // The perturbed factor is a usable preconditioner: refinement
        // against the true matrix reaches the berr contract.
        let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 7) as f64).collect();
        let (_, rep) = f.solve_refined(&a, &b, 1e-12, 10);
        assert!(
            rep.converged && rep.final_berr <= 1e-12,
            "{tier}: refined berr {:.3e} misses the contract",
            rep.final_berr
        );
    }
}

#[test]
fn tiny_pivots_below_threshold_are_perturbed_in_every_tier() {
    let base = healthy();
    let (a, hit) = tiny_diagonals(&base, &[0], 1e-300);
    assert_eq!(hit, vec![0]);
    for (tier, supernodal) in TIERS {
        let f = factor_perturbed(&a, 1e-8, supernodal).unwrap();
        assert!(
            f.perturb_report().columns.contains(&0),
            "{tier}: 1e-300 pivot sits far below tol*max|A| and must be caught"
        );
    }
}

#[test]
fn perturbation_off_is_bitwise_identical_across_tiers() {
    // pivot_perturb == 0.0 (the default) must leave every tier's
    // factor bitwise untouched: the guard `|pivot| < 0.0` can never
    // fire on a non-negative magnitude.
    let a = healthy();
    for (tier, supernodal) in TIERS {
        let f0 = factor_on_tier(&a, &SympilerOptions::default(), supernodal).unwrap();
        let f1 = factor_perturbed(&a, 0.0, supernodal).unwrap();
        assert!(f0.perturb_report().is_empty() && f1.perturb_report().is_empty());
        let same = f0
            .l()
            .values()
            .iter()
            .chain(f0.u().values())
            .zip(f1.l().values().iter().chain(f1.u().values()))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{tier}: perturbation-off factors diverged bitwise");
    }
}

// --- factor_batch: per-lane faults ---------------------------------

#[test]
fn batch_reports_the_faulted_lane_index() {
    let base = healthy();
    let bad = zeroed_first_pivot();
    let mats = [&base, &bad, &base];
    let lu = SympilerLu::compile(&base, &SympilerOptions::default()).unwrap();
    let err = lu.factor_batch(&mats).expect_err("lane 1 must fail");
    assert_eq!(err.index, 1, "the faulted lane, not the batch, is named");
    assert!(
        format!("{err}").contains("pivot"),
        "batch error must carry the lane's cause: {err}"
    );
    // Error chaining: the per-lane cause is reachable via source().
    let src = std::error::Error::source(&err).expect("BatchError chains its cause");
    assert!(format!("{src}").contains("pivot"));
}

#[test]
fn batch_perturbation_records_faults_per_lane() {
    let base = healthy();
    let bad = zeroed_first_pivot();
    let mats = [&base, &bad, &base];
    let lu = SympilerLu::compile(
        &base,
        &SympilerOptions {
            pivot_perturb: 1e-8,
            ..Default::default()
        },
    )
    .unwrap();
    let factors = lu
        .factor_batch(&mats)
        .expect("perturbation unblocks lane 1");
    assert!(factors[0].perturb_report().is_empty(), "lane 0 is healthy");
    assert!(
        factors[1].perturb_report().columns.contains(&0),
        "lane 1's zeroed pivot must be recorded on lane 1 only"
    );
    assert!(factors[2].perturb_report().is_empty(), "lane 2 is healthy");
    // Healthy lanes stay bitwise identical to a solo factorization.
    let solo = lu.factor(&base).unwrap();
    let same = factors[0]
        .l()
        .values()
        .iter()
        .chain(factors[0].u().values())
        .zip(solo.l().values().iter().chain(solo.u().values()))
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(
        same,
        "a faulted sibling lane must not disturb healthy lanes"
    );
}

// --- Layer 3: the recovery ladder ----------------------------------

#[test]
fn ladder_recovers_a_zeroed_pivot_through_the_baseline() {
    let a = healthy();
    let bad = zeroed_first_pivot();
    let robust = RobustLu::compile(&a, &SympilerOptions::default()).unwrap();
    let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 5) as f64).collect();
    let r = robust.solve(&bad, &b).expect("ladder must recover");
    assert_eq!(
        r.rung,
        Rung::Refactor,
        "an exact-zero pivot skips to the baseline"
    );
    assert!(r.berr <= 1e-12);
    assert!(
        !r.trail.is_empty(),
        "the diagnostic trail records the failed rungs"
    );
}

#[test]
fn recovery_error_chains_its_cause() {
    let a = healthy();
    let bad = zeroed_first_pivot();
    let opts = SympilerOptions {
        recovery: RecoveryPolicy {
            allow_refactor: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let robust = RobustLu::compile(&a, &opts).unwrap();
    let b = vec![1.0; a.n_cols()];
    let err = robust
        .solve(&bad, &b)
        .expect_err("no baseline, no recovery");
    let src = std::error::Error::source(&err).expect("RecoveryError chains the cause");
    assert!(
        format!("{src}").contains("pivot"),
        "the root cause survives the ladder: {src}"
    );
    assert!(
        format!("{err}").contains("disabled by policy"),
        "the trail must mention the disabled rung: {err}"
    );
}

// --- Serving layer: injected worker faults -------------------------

/// The fault-arming statics are process-global, and the test harness
/// runs tests on concurrent threads: without serialization, one
/// test's armed fault could be consumed by another test's worker.
/// Every test that creates a `FactorService` takes this lock.
static SERVICE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn service_lock() -> std::sync::MutexGuard<'static, ()> {
    SERVICE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

fn service_request(a: &CscMatrix) -> ServeRequest {
    ServeRequest {
        a: a.clone(),
        opts: SympilerOptions::default(),
        rhs: Vec::new(),
    }
}

/// Regression test for the satellite fix: a worker dying before it
/// replies must resolve the ticket with a typed error, never hang it.
#[test]
fn ticket_resolves_when_its_worker_dies() {
    let _serial = service_lock();
    let _quiet = QuietPanics::install();
    let a = healthy();
    let service = FactorService::new(1, Arc::new(PlanCache::new(CacheConfig::default())));
    service.call(service_request(&a)).expect("warmup");
    fault::arm_worker_deaths(1);
    let t = service.submit(service_request(&a));
    match t.wait() {
        Err(ServeError::Disconnected) => {}
        other => panic!("dead worker must yield Disconnected, got {:?}", other.err()),
    }
    fault::disarm();
    // The pool respawns the dead worker on the next submit.
    service
        .call(service_request(&a))
        .expect("pool must keep serving");
    assert_eq!(service.n_workers(), 1);
}

#[test]
fn worker_panic_is_isolated_and_typed() {
    let _serial = service_lock();
    let _quiet = QuietPanics::install();
    let a = healthy();
    let service = FactorService::new(2, Arc::new(PlanCache::new(CacheConfig::default())));
    service.call(service_request(&a)).expect("warmup");
    fault::arm_worker_panics(1);
    match service.call(service_request(&a)) {
        Err(ServeError::WorkerPanic { detail }) => {
            assert!(
                detail.contains("injected"),
                "panic payload survives: {detail}"
            )
        }
        other => panic!(
            "armed panic must surface as WorkerPanic, got {:?}",
            other.err()
        ),
    }
    fault::disarm();
    service
        .call(service_request(&a))
        .expect("panicking worker must survive");
}

#[test]
fn wait_timeout_bounds_the_wait_and_delivers_in_time() {
    let _serial = service_lock();
    let a = healthy();
    let service = FactorService::new(1, Arc::new(PlanCache::new(CacheConfig::default())));
    let t = service.submit(service_request(&a));
    match t.wait_timeout(Duration::from_secs(30)) {
        Ok(_) => {}
        Err(e) => panic!("healthy request within a generous timeout: {e}"),
    }
}

#[test]
fn serve_escalation_repairs_a_zeroed_pivot_request() {
    let _serial = service_lock();
    let _quiet = QuietPanics::install();
    let a = healthy();
    let bad = zeroed_first_pivot();
    let service = FactorService::new(1, Arc::new(PlanCache::new(CacheConfig::default())));
    let b: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i % 5) as f64).collect();
    // Without escalation the zeroed pivot is a hard error.
    let plain = service.call(ServeRequest {
        a: bad.clone(),
        opts: SympilerOptions::default(),
        rhs: vec![b.clone()],
    });
    assert!(
        matches!(plain, Err(ServeError::Plan(_))),
        "got {:?}",
        plain.err()
    );
    // With escalation the request retries through perturbation +
    // refinement and returns verified solutions.
    let opts = SympilerOptions {
        recovery: RecoveryPolicy {
            serve_escalate: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let resp = service
        .call(ServeRequest {
            a: bad.clone(),
            opts,
            rhs: vec![b.clone()],
        })
        .expect("escalation must repair the request");
    // The escalated solution solves the *faulted* system to the berr
    // contract (componentwise backward error via the refined solve).
    let x = &resp.solutions[0];
    let mut ax = vec![0.0; bad.n_cols()];
    sympiler::sparse::ops::spmv(&bad, x, &mut ax);
    let resid: f64 = ax
        .iter()
        .zip(&b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    let scale: f64 = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    assert!(
        resid <= 1e-9 * scale,
        "escalated solution residual {resid:.3e} too large"
    );
}

/// Silences the default panic hook for the duration of a test that
/// *expects* injected panics, restoring it on drop. Hooks are
/// process-global, so the affected tests each install their own guard
/// (overlap between threads is harmless: the hook is quiet either
/// way, and the last drop restores the default).
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}
