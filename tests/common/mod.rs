//! Shared by the integration tests that walk every LU execution tier.

use sympiler::core::plan::lu::{LuPlanError, POSITION_MAX_OPS_PER_ENTRY};
use sympiler::core::plan::lu_supernodal::{MAX_PANEL, RELAX_COLS, RELAX_FILL};
use sympiler::prelude::*;

/// Factor `a` on one LU tier, forced through the public plan
/// constructors whatever tier `SympilerLu::compile` would pick for the
/// pattern, and baked the way it bakes them: scalar columns
/// (`supernodal = false`; position tables in order, the accumulator
/// kernel leveled) or every panel the compiler's constants detect,
/// dense. `opts.n_threads > 1` levels either tier.
pub fn factor_on_tier(
    a: &CscMatrix,
    opts: &SympilerOptions,
    supernodal: bool,
) -> Result<LuFactor, LuPlanError> {
    let plan = LuPlan::build(a, opts)?;
    let n_threads = opts.n_threads.max(1);
    if supernodal {
        let panels = SupernodalLuPlan::detect_panels(&plan, MAX_PANEL, RELAX_FILL, RELAX_COLS);
        SupernodalLuPlan::from_panels(plan, panels, n_threads).factor(a)
    } else if n_threads == 1 {
        plan.with_position_tables(POSITION_MAX_OPS_PER_ENTRY)
            .factor(a)
    } else {
        plan.leveled(n_threads).factor(a)
    }
}
