//! The per-factorization scratch a caller may hold across calls.

#[cfg(doc)]
use super::LuPlan;

/// Reusable per-factorization scratch state, split out of the
/// (immutable, shareable) [`LuPlan`] so N threads can factor against
/// one `Arc<LuPlan>` without cloning any compiled tables: the plan
/// holds everything decided at compile time, the workspace holds the
/// dense accumulator a numeric factorization scatters into — and, for
/// the supernodal tier, the solve block and the trapezoid arena.
///
/// A workspace is plan-agnostic — it grows to the largest request it
/// has served and can be reused across plans and tiers (a serving
/// worker keeps one for its whole lifetime, whatever patterns flow
/// through). The accumulator is maintained all-zeros between calls by
/// the numeric kernels themselves, so reuse costs nothing per
/// factorization.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// Dense accumulator, all zeros between factorizations: `n`
    /// doubles on the scalar tier, `n × max panel width` (row-major
    /// per panel) on the supernodal tier.
    x: Vec<f64>,
    /// Supernodal tier: the `v × w` solve block / diagonal-block copy.
    /// Fully overwritten before every read.
    bt: Vec<f64>,
    /// Supernodal tier: the panels' trapezoid arena. Every trapezoid
    /// is fully written before it is read, so it is never re-zeroed.
    sx: Vec<f64>,
}

impl LuWorkspace {
    /// A fresh, empty workspace (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Doubles of dense accumulator currently held: the largest `n`
    /// (scalar tier) or `n × max panel width` (supernodal tier) served.
    pub fn capacity(&self) -> usize {
        self.x.len()
    }

    /// True when the accumulator holds nothing but zeros — the
    /// invariant every numeric kernel restores before returning, on
    /// success and on failure alike.
    pub fn is_clear(&self) -> bool {
        self.x.iter().all(|&v| v == 0.0)
    }

    /// Make the accumulator at least `n` long (new tail zeroed; the
    /// existing prefix is already all-zeros by the kernel invariant).
    pub(super) fn ensure(&mut self, n: usize) -> &mut [f64] {
        if self.x.len() < n {
            self.x.resize(n, 0.0);
        }
        &mut self.x[..n]
    }

    /// The supernodal tier's three buffers at the requested lengths:
    /// the all-zeros accumulator, the solve block and the trapezoid
    /// arena (the latter two carry whatever the last call left).
    pub(crate) fn ensure_panels(
        &mut self,
        x_len: usize,
        bt_len: usize,
        sx_len: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64]) {
        self.ensure(x_len);
        if self.bt.len() < bt_len {
            self.bt.resize(bt_len, 0.0);
        }
        if self.sx.len() < sx_len {
            self.sx.resize(sx_len, 0.0);
        }
        (
            &mut self.x[..x_len],
            &mut self.bt[..bt_len],
            &mut self.sx[..sx_len],
        )
    }

    /// Restore the all-zeros accumulator wholesale — the supernodal
    /// tier's recovery when non-finite values may have reached
    /// positions its pattern-driven clears never visit.
    pub(crate) fn clear(&mut self) {
        self.x.fill(0.0);
    }
}
