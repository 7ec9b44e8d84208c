//! Shared by the integration tests that walk the LU execution tiers.
#![allow(dead_code)] // each test binary uses its own subset

use sympiler::core::plan::lu::{LuPlanError, POSITION_MAX_OPS_PER_ENTRY};
use sympiler::core::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler::prelude::*;
use sympiler::sparse::ops;

/// Factor `a` on one LU tier, forced through the public plan
/// constructors whatever tier `SympilerLu::compile` would pick for the
/// pattern, and baked the way it bakes them: scalar columns
/// (`supernodal = false`, with position tables) or every panel the
/// compiler's constants detect, dense.
pub fn factor_on_tier(
    a: &CscMatrix,
    opts: &SympilerOptions,
    supernodal: bool,
) -> Result<LuFactor, LuPlanError> {
    let plan = LuPlan::build(a, opts)?;
    if supernodal {
        panels_under(&plan, MAX_PANEL, RELAX_FILL, RELAX_COLS).factor(a)
    } else {
        plan.with_position_tables(POSITION_MAX_OPS_PER_ENTRY)
            .factor(a)
    }
}

/// `plan` with every panel detected under `max_panel`, `relax_fill`
/// and `relax_cols` (in place of the compiler's `MAX_PANEL`,
/// `RELAX_FILL` and `RELAX_COLS`) dense, none dissolved.
pub fn panels_under(
    plan: &LuPlan,
    max_panel: usize,
    relax_fill: f64,
    relax_cols: usize,
) -> SupernodalLuPlan {
    let panels = SupernodalLuPlan::detect_panels(plan, max_panel, relax_fill, relax_cols);
    SupernodalLuPlan::from_panels(plan.clone(), panels)
}

/// The bits of a factor's `L` then `U` values.
pub fn factor_bits(f: &LuFactor) -> Vec<u64> {
    f.l()
        .values()
        .iter()
        .chain(f.u().values())
        .map(|v| v.to_bits())
        .collect()
}

/// `Qᵀ·P·(Dr·A·Dc)·Q`: the system `plan` factors (scaling and
/// permutations identity when not compiled).
pub fn composed_system(plan: &LuPlan, a: &CscMatrix) -> CscMatrix {
    let scaled = match plan.mc64_scaling() {
        Some((dr, dc)) => ops::scale_rows_cols(a, dr, dc).unwrap(),
        None => a.clone(),
    };
    let identity: Vec<usize> = (0..a.n_cols()).collect();
    match plan.row_perm() {
        Some(rp) => {
            ops::permute_general(&scaled, rp, plan.col_perm().unwrap_or(&identity)).unwrap()
        }
        None => scaled,
    }
}
