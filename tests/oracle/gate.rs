//! The gate: every compiled entry point against its coupled baseline,
//! bitwise where the contract says bitwise and backward error ≤ 1e-10
//! where an engine reassociates. The LU checks run per cell of ordering
//! × pre-pivot × `mc64_scale` × `pivot_perturb`; `RobustLu`, one
//! `FactorService` round trip and the partial-pivoting baseline per
//! case; the Cholesky and triangular-solve kernels have gates of their
//! own. ARCHITECTURE.md, "Testing: one oracle", tables which pair is
//! held to which contract.

use crate::common::{composed_system, panels_under};
use std::sync::Arc;
use sympiler::core::plan::lu::{refine_with, LuPlanError};
use sympiler::core::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler::prelude::*;
use sympiler::solvers::lu::lu_backward_error;
use sympiler::solvers::{SimplicialCholesky, SupernodalCholesky};
use sympiler::sparse::ops;

/// Backward error allowed to every engine that reassociates.
const BERR: f64 = 1e-10;

/// A failed check: where, which, and what was seen.
#[derive(Debug, Clone)]
pub struct Failure {
    pub cell: String,
    pub check: String,
    pub detail: String,
    /// The LU cell the failure came from, which [`recheck`] reruns
    /// alone; `None` for the per-case checks.
    pub lu_cell: Option<Cell>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.cell, self.check, self.detail)
    }
}

/// `Err(Failure)` from `cell`, `check` and a formatted detail unless
/// `cond` holds.
macro_rules! ensure {
    ($cond:expr, $cell:expr, $check:expr, $($detail:tt)+) => {
        if fails($cond) {
            return Err(Failure {
                cell: $cell.to_string(),
                check: $check.to_string(),
                detail: format!($($detail)+),
                lu_cell: None,
            });
        }
    };
}

fn fails(ok: bool) -> bool {
    !ok
}

/// One configuration of the compiled LU pipeline; the gate runs the
/// three `pivot_perturb` values of a group together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub ordering: Ordering,
    pub pre_pivot: PrePivot,
    pub mc64_scale: bool,
    pub pivot_perturb: f64,
}

/// The perturbation tolerances a group runs: off, one that rarely
/// fires, and one that fires on most pivots.
pub const PERTURBS: [f64; 3] = [0.0, 1e-6, 0.9];

impl Cell {
    /// Every group (its `pivot_perturb` is 0).
    pub fn groups() -> impl Iterator<Item = Cell> {
        Ordering::ALL.into_iter().flat_map(|ordering| {
            PrePivot::ALL.into_iter().flat_map(move |pre_pivot| {
                [false, true].map(|mc64_scale| Cell {
                    ordering,
                    pre_pivot,
                    mc64_scale,
                    pivot_perturb: 0.0,
                })
            })
        })
    }

    fn opts(&self) -> SympilerOptions {
        SympilerOptions {
            ordering: self.ordering,
            pre_pivot: self.pre_pivot,
            mc64_scale: self.mc64_scale,
            pivot_perturb: self.pivot_perturb,
            ..Default::default()
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}+{} mc64={} perturb={:e}",
            self.ordering.label(),
            self.pre_pivot.label(),
            self.mc64_scale,
            self.pivot_perturb
        )
    }
}

/// Where an LU factor is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// `LuPlan::build`: the accumulator kernel.
    Accumulator,
    /// The same plan with position tables forced on.
    Walker,
    /// `SympilerLu::compile`: whichever tier the compiler picks.
    Compiled,
    /// Every panel detected under these constants, dense.
    Panels { max_panel: usize, relax_fill: f64 },
}

const TIERS: [Tier; 6] = [
    Tier::Accumulator,
    Tier::Walker,
    Tier::Compiled,
    Tier::Panels {
        max_panel: MAX_PANEL,
        relax_fill: RELAX_FILL,
    },
    Tier::Panels {
        max_panel: MAX_PANEL,
        relax_fill: 0.0,
    },
    Tier::Panels {
        max_panel: 3,
        relax_fill: RELAX_FILL,
    },
];

/// A compiled LU plan of one tier.
pub enum Plan {
    Scalar(Box<LuPlan>),
    Panels(Box<SupernodalLuPlan>),
    Compiled(SympilerLu),
}

impl Plan {
    fn factor(&self, a: &CscMatrix) -> Result<LuFactor, LuPlanError> {
        match self {
            Plan::Scalar(p) => p.factor(a),
            Plan::Panels(p) => p.factor(a),
            Plan::Compiled(p) => p.factor(a),
        }
    }

    fn factor_with(&self, a: &CscMatrix, ws: &mut LuWorkspace) -> Result<LuFactor, LuPlanError> {
        match self {
            Plan::Scalar(p) => p.factor_with(a, ws),
            Plan::Panels(p) => p.factor_with(a, ws),
            Plan::Compiled(p) => p.factor_with(a, ws),
        }
    }

    /// `factor_batch`, where the tier has one.
    fn factor_batch(&self, mats: &[&CscMatrix]) -> Option<Result<Vec<LuFactor>, BatchError>> {
        match self {
            Plan::Scalar(p) => Some(p.factor_batch(mats)),
            Plan::Panels(_) => None,
            Plan::Compiled(p) => Some(p.factor_batch(mats)),
        }
    }

    /// The scalar plan underneath (scaling, permutations, flops).
    fn scalar(&self) -> &LuPlan {
        match self {
            Plan::Scalar(p) => p,
            Plan::Panels(p) => p.serial(),
            Plan::Compiled(p) => p.plan(),
        }
    }

    fn is_supernodal(&self) -> bool {
        match self {
            Plan::Scalar(_) => false,
            Plan::Panels(_) => true,
            Plan::Compiled(p) => p.is_supernodal(),
        }
    }
}

/// The code under test. The shipped engine is [`Real`]; a test can
/// substitute one that compiles or reads factors differently.
pub trait Engine {
    /// `a`'s plan on `tier` under `opts`.
    fn compile(
        &self,
        tier: Tier,
        a: &CscMatrix,
        opts: &SympilerOptions,
    ) -> Result<Plan, LuPlanError> {
        Ok(match tier {
            Tier::Accumulator => Plan::Scalar(Box::new(LuPlan::build(a, opts)?)),
            Tier::Walker => Plan::Scalar(Box::new(
                LuPlan::build(a, opts)?.with_position_tables(f64::MAX),
            )),
            Tier::Compiled => Plan::Compiled(SympilerLu::compile(a, opts)?),
            Tier::Panels {
                max_panel,
                relax_fill,
            } => {
                let plan = LuPlan::build(a, opts)?;
                Plan::Panels(Box::new(panels_under(
                    &plan, max_panel, relax_fill, RELAX_COLS,
                )))
            }
        })
    }

    /// The `(L, U)` the gate holds `f` to.
    fn read(&self, f: &LuFactor) -> (CscMatrix, CscMatrix) {
        (f.l().clone(), f.u().clone())
    }
}

/// The shipped code.
pub struct Real;

impl Engine for Real {}

fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

fn values_bits(l: &CscMatrix, u: &CscMatrix) -> Vec<u64> {
    l.values()
        .iter()
        .chain(u.values())
        .map(|v| v.to_bits())
        .collect()
}

/// The coupled baseline of `cell`: `(L, U)` of the identically
/// scaled, pre-pivoted and ordered matrix.
fn baseline(a: &CscMatrix, cell: &Cell) -> Result<(CscMatrix, CscMatrix), String> {
    let (pp, ord) = (cell.pre_pivot, cell.ordering);
    let factors = if cell.mc64_scale {
        GpLu::factor_prepivoted_scaled(a, Pivoting::None, pp, ord).map(|f| f.inner.factors)
    } else {
        GpLu::factor_prepivoted(a, Pivoting::None, pp, ord).map(|f| f.factors)
    };
    factors.map(|f| (f.l, f.u)).map_err(|e| e.to_string())
}

/// The right-hand sides every factor solves: zeros (whose terms the
/// sweeps skip), signs and a ramp.
fn rhs(n: usize) -> Vec<Vec<f64>> {
    (0..3)
        .map(|r| {
            (0..n)
                .map(|i| match (i + r) % 4 {
                    0 => 0.0,
                    k => 1.0 + ((3 * i + r) % 7) as f64 - 0.75 * k as f64,
                })
                .collect()
        })
        .collect()
}

/// The reference solve over a materialised `(L, U)`: gather `b`
/// through the composed row map (scaled by `Dr`), one column sweep per
/// triangle, scatter through the column map (scaled by `Dc`).
fn reference_solve(
    plan: &LuPlan,
    f: &LuFactor,
    l: &CscMatrix,
    u: &CscMatrix,
    b: &[f64],
) -> Vec<f64> {
    let n = b.len();
    let scaling = plan.mc64_scaling();
    let dr = |i: usize| scaling.map(|(dr, _)| dr[i]);
    let gather = |old: usize| dr(old).map_or(b[old], |d| d * b[old]);
    let mut x: Vec<f64> = match f.row_perm() {
        None => (0..n).map(gather).collect(),
        Some(p) => p.iter().map(|&old| gather(old)).collect(),
    };
    for j in 0..n {
        let xj = x[j];
        if xj != 0.0 {
            for (i, lij) in l.col_iter(j).skip(1) {
                x[i] -= lij * xj;
            }
        }
    }
    for j in (0..n).rev() {
        let (rows, vals) = (u.col_rows(j), u.col_values(j));
        let last = rows.len() - 1;
        let xj = x[j] / vals[last];
        x[j] = xj;
        if xj != 0.0 {
            for (&i, &uij) in rows[..last].iter().zip(&vals[..last]) {
                x[i] -= uij * xj;
            }
        }
    }
    let unscale = |old: usize, v: f64| scaling.map_or(v, |(_, dc)| dc[old] * v);
    match f.col_perm() {
        None if scaling.is_none() => x,
        None => x.iter().enumerate().map(|(j, &v)| unscale(j, v)).collect(),
        Some(q) => {
            let mut out = vec![0.0; n];
            for (&v, &old) in x.iter().zip(q) {
                out[old] = unscale(old, v);
            }
            out
        }
    }
}

/// `m` with `-|v|` off the diagonal and, when `keep_diagonal`, `|v|`
/// on it: the reference sweep over it adds every term's magnitude.
fn negated_abs(m: &CscMatrix, keep_diagonal: bool) -> CscMatrix {
    let mut out = m.clone();
    for j in 0..m.n_cols() {
        for p in m.col_ptr()[j]..m.col_ptr()[j + 1] {
            let v = m.values()[p].abs();
            out.values_mut()[p] = if keep_diagonal && m.row_idx()[p] == j {
                v
            } else {
                -v
            };
        }
    }
    out
}

fn all_finite(a: &CscMatrix) -> bool {
    a.values().iter().all(|v| v.is_finite())
}

/// What one tier produced in one cell.
struct Outcome {
    tier: Tier,
    supernodal: bool,
    /// Value bits and perturbed columns, or the error.
    result: Result<(Vec<u64>, Vec<usize>), String>,
    factors: Option<(CscMatrix, CscMatrix)>,
}

/// Every LU check of the group `group` on `a`, at each of `perturbs`
/// (which start with 0).
pub fn check_group(
    engine: &dyn Engine,
    a: &CscMatrix,
    group: Cell,
    perturbs: &[f64],
) -> Result<(), Failure> {
    let mut unarmed: Vec<Outcome> = Vec::new();
    let mut ws = LuWorkspace::new();
    for &pivot_perturb in perturbs {
        let cell = Cell {
            pivot_perturb,
            ..group
        };
        let outcomes = check_cell(engine, a, &cell, &mut ws).map_err(|f| Failure {
            lu_cell: Some(cell),
            ..f
        })?;
        if pivot_perturb == 0.0 {
            unarmed = outcomes;
            continue;
        }
        // An armed tolerance that perturbed nothing moved no bit.
        for (o, plain) in outcomes.iter().zip(&unarmed) {
            if let (Ok((got, cols)), Ok((want, _))) = (&o.result, &plain.result) {
                ensure!(
                    !cols.is_empty() || got == want,
                    cell,
                    format!(
                        "{:?}: silent perturbation is bitwise the unarmed factor",
                        o.tier
                    ),
                    "values differ"
                );
            }
        }
    }
    Ok(())
}

/// One cell: compile and factor every tier, then hold each against the
/// baseline and the other tiers.
fn check_cell(
    engine: &dyn Engine,
    a: &CscMatrix,
    cell: &Cell,
    ws: &mut LuWorkspace,
) -> Result<Vec<Outcome>, Failure> {
    let opts = cell.opts();
    let n = a.n_cols();
    let want = baseline(a, cell);
    // MC64 scaling of a NaN or ±Inf value is a typed error of the
    // shared inspection, in the baseline and in every tier.
    let unscalable = cell.mc64_scale && !all_finite(a);
    ensure!(
        !unscalable || want.as_ref().is_err_and(|e| e.contains("finite values")),
        cell,
        "baseline: MC64 scaling of non-finite input is a typed error",
        "baseline {:?}",
        want.as_ref().err()
    );
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut structure: Option<(CscMatrix, sympiler::graph::LuSymbolic)> = None;
    let mut accumulator_bytes = 0;
    for tier in TIERS {
        let check = |what: &str| format!("{tier:?}: {what}");
        let plan = match engine.compile(tier, a, &opts) {
            Ok(_) if unscalable => {
                return Err(Failure {
                    cell: cell.to_string(),
                    check: check("MC64 scaling of non-finite input is a typed error"),
                    detail: "the plan compiled".to_string(),
                    lu_cell: None,
                })
            }
            Ok(plan) => plan,
            Err(e) => {
                // Compile errors come from the shared inspection: every
                // tier and the baseline report the same one.
                let got = e.to_string();
                ensure!(
                    want.as_ref().err() == Some(&got),
                    cell,
                    check("compile error parity with the baseline"),
                    "plan {got}, baseline {:?}",
                    want.as_ref().err()
                );
                outcomes.push(Outcome {
                    tier,
                    supernodal: false,
                    result: Err(got),
                    factors: None,
                });
                continue;
            }
        };
        let scalar = plan.scalar();
        let (_, sym) = structure.get_or_insert_with(|| {
            let system = composed_system(scalar, a);
            let sym = sympiler::graph::lu_symbolic(&system);
            (system, sym)
        });
        let matched = match cell.pre_pivot {
            PrePivot::Off => n - ops::structurally_zero_diagonals(a),
            _ => n,
        };
        ensure!(
            scalar.flops() == sym.factor_flops() && scalar.matched_diagonals() == matched,
            cell,
            check("flops are the symbolic count, a pre-pivot matches every diagonal"),
            "flops {} vs {}, {} matched",
            scalar.flops(),
            sym.factor_flops(),
            scalar.matched_diagonals()
        );
        match (tier, &plan) {
            (Tier::Accumulator, _) => accumulator_bytes = scalar.table_bytes(),
            (Tier::Walker, _) => ensure!(
                n == 0 || scalar.table_bytes() > accumulator_bytes,
                cell,
                check("position tables baked"),
                "{} bytes",
                scalar.table_bytes()
            ),
            (
                Tier::Panels {
                    max_panel,
                    relax_fill,
                },
                Plan::Panels(p),
            ) => {
                let widths: usize = (0..p.n_panels()).map(|s| p.partition().width(s)).sum();
                let share = p.dense_flop_share();
                ensure!(
                    widths == n
                        && (max_panel == 0 || p.max_panel_width() <= max_panel)
                        && (relax_fill > 0.0 || p.padded_zeros() == 0)
                        && (n == 0 || p.mean_panel_width() >= 1.0)
                        && (0.0..=1.0).contains(&share),
                    cell,
                    check("panels partition the columns under the cap and budget"),
                    "widths {widths}, max {}, padded {}",
                    p.max_panel_width(),
                    p.padded_zeros()
                );
            }
            _ => {}
        }

        // Entry points: factor, factor_with on the reused workspace,
        // factor_batch.
        let fact = plan.factor(a);
        // Value bits and perturbed columns of a factor as `read`
        // reports it; the entry points below compare the factor object
        // itself, materialised or (`into_parts` first) not.
        let summary = |r: &Result<LuFactor, LuPlanError>, read: &dyn Fn(&LuFactor) -> Vec<u64>| {
            r.as_ref()
                .map(|f| (read(f), f.perturb_report().columns.clone()))
                .map_err(|e| e.to_string())
        };
        let result = summary(&fact, &|f| {
            let (l, u) = engine.read(f);
            values_bits(&l, &u)
        });
        // The other entry points, and profiling, run the same column
        // loop; the unarmed cell holds them to it.
        if cell.pivot_perturb == 0.0 {
            let own = |f: &LuFactor| values_bits(f.l(), f.u());
            let unbuilt = |f: &LuFactor| {
                let (l, u) = f.clone().into_parts();
                values_bits(&l, &u)
            };
            let want = summary(&fact, &own);
            let mut others = vec![(
                "factor_with on a reused workspace",
                summary(&plan.factor_with(a, ws), &unbuilt),
            )];
            if tier == Tier::Compiled {
                let profiled = SympilerOptions {
                    profile: true,
                    ..opts.clone()
                };
                let traced = engine.compile(tier, a, &profiled).and_then(|p| p.factor(a));
                others.push(("profile: true", summary(&traced, &own)));
            }
            // A negated copy in the first lane: nothing of it may reach
            // the second.
            let mut negated = a.clone();
            for v in negated.values_mut() {
                *v = -*v;
            }
            if let Some(batch) = plan.factor_batch(&[&negated, a]) {
                let lane = match batch {
                    Ok(mut fs) => summary(&Ok(fs.pop().unwrap()), &own),
                    Err(e) if e.index == 0 => Err(e.error.to_string()),
                    Err(e) => Err(format!("lane {} failed alone", e.index)),
                };
                others.push(("factor_batch", lane));
            }
            for (what, got) in others {
                ensure!(
                    got == want && ws.is_clear(),
                    cell,
                    check(&format!("{what} is bitwise factor")),
                    "differs, or the workspace is not clear"
                );
            }
        }

        let supernodal = plan.is_supernodal();
        let factors = match &fact {
            Ok(f) => {
                let (l, u) = engine.read(f);
                ensure!(
                    l.col_ptr() == sym.l_col_ptr.as_slice()
                        && l.row_idx() == sym.l_row_idx.as_slice()
                        && u.col_ptr() == sym.u_col_ptr.as_slice()
                        && u.row_idx() == sym.u_row_idx.as_slice()
                        && (0..n).all(|j| l.col_iter(j).next() == Some((j, 1.0))),
                    cell,
                    check("lu_symbolic's patterns of the permuted matrix, unit L diagonal"),
                    "differ"
                );
                check_solves(a, cell, &check, scalar, f, &l, &u)?;
                Some((l, u))
            }
            Err(_) => None,
        };
        outcomes.push(Outcome {
            tier,
            supernodal,
            result,
            factors,
        });
    }

    // Scalar tiers: bitwise each other and the baseline.
    let scalar: Vec<&Outcome> = outcomes.iter().filter(|o| !o.supernodal).collect();
    for o in &scalar[1..] {
        ensure!(
            o.result == scalar[0].result,
            cell,
            format!("{:?}: bitwise the accumulator kernel", o.tier),
            "{:?} vs {:?}",
            o.result.as_ref().map(|r| &r.1),
            scalar[0].result.as_ref().map(|r| &r.1)
        );
    }
    let reference = &scalar[0].result;
    let clean = matches!(reference, Ok((_, cols)) if cols.is_empty());
    if clean || cell.pivot_perturb == 0.0 {
        let base = want.clone().map(|(l, u)| values_bits(&l, &u));
        let got = reference.as_ref().map(|r| &r.0);
        let same_patterns = match (&want, &scalar[0].factors) {
            (Ok((bl, bu)), Some((l, u))) => bl.same_pattern(l) && bu.same_pattern(u),
            _ => true,
        };
        ensure!(
            got == base.as_ref() && same_patterns,
            cell,
            "scalar tiers: bitwise the coupled baseline",
            "plan {:?}, baseline {:?}",
            reference.as_ref().err(),
            base.as_ref().err()
        );
    }

    // The accumulator and the panel tiers: backward stable whenever the
    // scalar factor is clean.
    if clean && all_finite(a) {
        let system = &structure.as_ref().expect("a tier compiled").0;
        let identity: Vec<usize> = (0..n).collect();
        for o in outcomes
            .iter()
            .filter(|o| o.supernodal || o.tier == Tier::Accumulator)
        {
            let check = format!("{:?}: backward error <= {BERR:e}", o.tier);
            match (&o.result, &o.factors) {
                (Ok((_, cols)), Some((l, u))) if cols.is_empty() => {
                    let as_gp = GpLuFactors {
                        l: l.clone(),
                        u: u.clone(),
                        row_perm: identity.clone(),
                    };
                    let eta = lu_backward_error(system, &as_gp);
                    ensure!(eta <= BERR, cell, check, "{eta:.3e}");
                }
                (Ok(_), _) => {}
                (Err(e), _) => {
                    ensure!(false, cell, check, "the scalar tiers factor, this one: {e}")
                }
            }
        }
    }
    Ok(outcomes)
}

/// Every solve entry point of `f` against the reference sweep over the
/// `(l, u)` the engine reports.
fn check_solves(
    a: &CscMatrix,
    cell: &Cell,
    check: &dyn Fn(&str) -> String,
    plan: &LuPlan,
    f: &LuFactor,
    l: &CscMatrix,
    u: &CscMatrix,
) -> Result<(), Failure> {
    let n = a.n_cols();
    let rhs = rhs(n);
    let want: Vec<Vec<f64>> = rhs
        .iter()
        .map(|b| reference_solve(plan, f, l, u, b))
        .collect();
    let multi = f.solve_multi(&rhs.concat(), rhs.len());
    let batch = f.solve_batch(&rhs);
    ensure!(
        f.solve_batch(&[] as &[Vec<f64>]).is_empty(),
        cell,
        check("an empty solve_batch is empty"),
        "not empty"
    );
    for r in 0..rhs.len() {
        ensure!(
            same_bits(&f.solve(&rhs[r]), &want[r])
                && same_bits(&multi[r * n..(r + 1) * n], &want[r])
                && same_bits(&batch[r], &want[r]),
            cell,
            check("solve, solve_multi and solve_batch are the reference sweep"),
            "rhs {r}"
        );
    }
    let (x, report) = f.solve_refined(a, &rhs[1], 1e-15, 2);
    let (x_ref, report_ref) =
        refine_with(a, &rhs[1], 1e-15, 2, |b| reference_solve(plan, f, l, u, b));
    ensure!(
        same_bits(&x, &x_ref) && report == report_ref,
        cell,
        check("solve_refined is refine_with around the reference"),
        "{report:?} vs {report_ref:?}"
    );
    // And the refined answer solves the caller's system.
    if all_finite(a) && f.perturb_report().is_empty() {
        let resid = ops::rel_residual(a, &x, &rhs[1]);
        ensure!(
            resid <= BERR,
            cell,
            check("solve_refined solves A x = b"),
            "residual {resid:.3e}"
        );
    }
    // It sums each row's terms in its own order: the two answers may
    // differ by rounding, bounded by the same sweeps over |L|, |U|, |b|.
    if all_finite(a) {
        let idx: Vec<usize> = (0..n).filter(|i| (i * 7 + 3) % 5 == 0).collect();
        let vals: Vec<f64> = idx.iter().map(|&i| 1.0 + (i % 4) as f64).collect();
        let b = SparseVec::try_new(n, idx, vals).unwrap();
        let xs = f.solve_sparse(&b).to_dense();
        let xd = f.solve(&b.to_dense());
        let magnitude = reference_solve(
            plan,
            f,
            &negated_abs(l, false),
            &negated_abs(u, true),
            &b.to_dense(),
        );
        ensure!(
            xs.iter()
                .zip(&xd)
                .zip(&magnitude)
                .all(|((p, q), m)| (p - q).abs() <= BERR * m),
            cell,
            check("solve_sparse agrees with solve"),
            "beyond {BERR:e} of the terms' magnitude"
        );
    }
    Ok(())
}

/// Every LU group on `a` at each of `perturbs`, then the per-case
/// checks. On non-finite input the MC64 groups hold both engines to
/// the typed error of the scaling.
pub fn check_lu(engine: &dyn Engine, a: &CscMatrix, perturbs: &[f64]) -> Result<(), Failure> {
    for group in Cell::groups() {
        check_group(engine, a, group, perturbs)?;
    }
    check_robust_and_service(a)?;
    check_partial_pivoting(a)
}

/// The checks `failure` came from, on `a`: its LU cell (after the
/// unarmed one) when it has one, else every LU check.
pub fn recheck(engine: &dyn Engine, a: &CscMatrix, failure: &Failure) -> Result<(), Failure> {
    match failure.lu_cell {
        Some(cell) if cell.pivot_perturb == 0.0 => check_group(engine, a, cell, &[0.0]),
        Some(cell) => {
            let unarmed = Cell {
                pivot_perturb: 0.0,
                ..cell
            };
            check_group(engine, a, unarmed, &[0.0, cell.pivot_perturb])
        }
        None => check_lu(engine, a, &PERTURBS),
    }
}

/// The production configuration for the per-case checks: the weighted
/// matching with MC64 scaling (on finite input, as in [`check_lu`])
/// under COLAMD.
fn production(a: &CscMatrix) -> SympilerOptions {
    SympilerOptions {
        ordering: Ordering::Colamd,
        pre_pivot: PrePivot::WeightedMatching,
        mc64_scale: all_finite(a),
        ..Default::default()
    }
}

/// `RobustLu` meets its tolerance or returns a typed error, and one
/// `FactorService` round trip is bitwise the direct path.
fn check_robust_and_service(a: &CscMatrix) -> Result<(), Failure> {
    let opts = production(a);
    let cell = "production options";
    let b = rhs(a.n_cols()).swap_remove(1);
    if let Ok(robust) = RobustLu::compile(a, &opts) {
        if let Ok(r) = robust.solve(a, &b) {
            let tol = robust.policy().berr_tol;
            let berr = ops::componentwise_berr(a, &r.x, &b);
            ensure!(
                r.berr <= tol && berr <= tol,
                cell,
                "RobustLu: berr within its tolerance",
                "reported {:.3e}, measured {berr:.3e} ({:?})",
                r.berr,
                r.rung
            );
        }
    }

    let direct = SympilerLu::compile(a, &opts).and_then(|lu| lu.factor(a));
    let service = FactorService::new(1, Arc::new(PlanCache::new(CacheConfig::default())));
    let served = service.call(ServeRequest {
        a: a.clone(),
        opts,
        rhs: vec![b.clone()],
    });
    match (&direct, &served) {
        (Ok(f), Ok(resp)) => ensure!(
            values_bits(f.l(), f.u()) == values_bits(resp.factor.l(), resp.factor.u())
                && same_bits(&resp.solutions[0], &f.solve(&b)),
            cell,
            "FactorService: bitwise the direct path",
            "differs"
        ),
        (Err(e), Err(ServeError::Plan(s))) => {
            ensure!(
                e == s,
                cell,
                "FactorService: the direct path's error",
                "{e} vs {s}"
            )
        }
        _ => ensure!(
            false,
            cell,
            "FactorService: the direct path's outcome",
            "direct ok: {}, served ok: {}",
            direct.is_ok(),
            served.is_ok()
        ),
    }
    Ok(())
}

/// The partial-pivoting baseline the recovery ladder falls back on is
/// backward stable and solves.
fn check_partial_pivoting(a: &CscMatrix) -> Result<(), Failure> {
    if !all_finite(a) {
        return Ok(());
    }
    if let Ok(f) = GpLu::factor(a, Pivoting::Partial) {
        let cell = "partial pivoting";
        let eta = lu_backward_error(a, &f);
        ensure!(
            eta <= BERR,
            cell,
            "GpLu partial: backward error",
            "{eta:.3e}"
        );
        let b = rhs(a.n_cols()).swap_remove(2);
        let resid = ops::rel_residual(a, &f.solve(&b), &b);
        ensure!(resid <= BERR, cell, "GpLu partial: residual", "{resid:.3e}");
    }
    Ok(())
}

/// Cholesky (`a` SPD, lower storage): the compiled plan and the
/// supernodal baseline have the simplicial factor's pattern and
/// reconstruct `a`; the plan's flops and report are the symbolic ones;
/// it refactors new values and solves; and the triangular-solve gate
/// runs on its factor.
pub fn check_cholesky(a: &CscMatrix) -> Result<(), Failure> {
    let cell = "cholesky";
    let n = a.n_cols();
    let l_ref = SimplicialCholesky::analyze(a).unwrap().factor(a).unwrap();
    let chol = SympilerCholesky::compile(a, &SympilerOptions::default()).unwrap();
    let sym = sympiler::graph::symbolic_cholesky(a);
    ensure!(
        chol.flops() == sym.factor_flops()
            && chol.report().size_of("nnz(L)") == Some(l_ref.nnz())
            && chol.report().size_of("supernodes") == Some(chol.plan().partition().n_supernodes()),
        cell,
        "flops and report are the symbolic ones",
        "flops {} vs {}",
        chol.flops(),
        sym.factor_flops()
    );
    let supernodal = SupernodalCholesky::analyze(a, 0)
        .unwrap()
        .factor(a)
        .unwrap()
        .to_csc();
    let mut rescaled = a.clone();
    for v in rescaled.values_mut() {
        *v *= 1.5;
    }
    for (what, m) in [("factor", a), ("refactor on new values", &rescaled)] {
        let l = chol.factor(m).unwrap().to_csc();
        let err = sympiler::solvers::verify::reconstruction_error(m, &l);
        ensure!(
            l.same_pattern(&l_ref) && err <= BERR,
            cell,
            format!("SympilerCholesky {what}: the simplicial pattern, reconstructs A"),
            "error {err:.3e}"
        );
    }
    let err = sympiler::solvers::verify::reconstruction_error(a, &supernodal);
    ensure!(
        supernodal.same_pattern(&l_ref) && err <= BERR,
        cell,
        "SupernodalCholesky: the simplicial pattern, reconstructs A",
        "error {err:.3e}"
    );
    let f = chol.factor(a).unwrap();
    for b in rhs(n) {
        let resid = ops::rel_residual_sym_lower(a, &f.solve(&b), &b);
        ensure!(
            resid <= BERR,
            cell,
            "SympilerCholesky: solve residual",
            "{resid:.3e}"
        );
    }
    if n > 0 {
        let b = sympiler::sparse::rhs::rhs_from_column_pattern(&l_ref, n / 3, 9);
        check_trisolve(&l_ref, &b)?;
    }
    Ok(())
}

/// `SympilerTriSolve` against `naive_forward` on the sparse right-hand
/// side `b`.
pub fn check_trisolve(l: &CscMatrix, b: &SparseVec) -> Result<(), Failure> {
    let mut want = b.to_dense();
    sympiler::solvers::trisolve::naive_forward(l, &mut want);
    let x = SympilerTriSolve::compile(l, b.indices(), &SympilerOptions::default()).solve(b);
    let bad = (0..l.n_cols()).find(|&i| (x[i] - want[i]).abs() > BERR * (1.0 + want[i].abs()));
    ensure!(
        bad.is_none(),
        "trisolve",
        "SympilerTriSolve is naive_forward",
        "row {bad:?} of {}",
        l.n_cols()
    );
    Ok(())
}
