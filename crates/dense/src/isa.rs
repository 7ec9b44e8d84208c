//! The one place this crate asks the CPU what it can do.
//!
//! The register-tiled kernels ([`crate::panel_update`], [`crate::trsm`])
//! each compile one generic body twice: a portable instantiation, and
//! on x86-64 an `avx2,fma` one behind `#[target_feature]`. Calling the
//! latter on a CPU without those features is undefined behaviour, so
//! the decision is made here and nowhere else: every kernel entry
//! point matches on [`detect`], and every `#[target_feature]` function
//! names [`Isa::Avx2Fma`] from [`detect`] as the only way to reach it.
//! There is no cargo feature, environment variable or `-C target-cpu`
//! involved — the same binary runs on every x86-64 host.
//!
//! | [`Isa`] | chosen when | multiply-subtract |
//! |---|---|---|
//! | `Portable` | always available | two roundings (`a - l·b`) |
//! | `Avx2Fma` | x86-64 and the CPU reports `avx2` **and** `fma` | one rounding (`fma(-l, b, a)`) |
//!
//! Both instantiations of a kernel apply the same operations in the
//! same order per output entry, so they agree to rounding (1e-13
//! relative on the kernels' tests), not bitwise.

/// Instruction-set tier a kernel instantiation is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Whatever the build target guarantees (SSE2 on x86-64).
    Portable,
    /// 256-bit lanes and fused multiply-add.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
}

/// The best tier the executing CPU supports. The standard library
/// caches the CPUID probe, so a call costs one atomic load.
#[inline]
pub fn detect() -> Isa {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        return Isa::Avx2Fma;
    }
    Isa::Portable
}
