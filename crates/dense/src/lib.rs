//! # sympiler-dense
//!
//! Small dense linear-algebra kernels (a "mini-BLAS") for the supernodal
//! sparse kernels in this workspace. Everything is column-major `f64`
//! with an explicit leading dimension (`lda`), like BLAS/LAPACK.
//!
//! Two tiers exist on purpose (paper §4.2):
//!
//! * **generic** kernels ([`potrf`], [`trsv`], [`trsm`], [`gemm`]) — the
//!   stand-in for OpenBLAS that the CHOLMOD-like baseline calls. Correct
//!   and reasonably fast, but not specialized for tiny operands.
//! * **specialized** kernels ([`small`]) — fixed-size, fully unrolled
//!   variants for the small blocks that dominate sparse supernodal
//!   codes. These model what Sympiler *generates*: "instead of being
//!   handicapped by the performance of BLAS routines, it generates
//!   specialized and highly-efficient codes for small dense
//!   sub-kernels."
//!
//! Beside the two tiers sits one kernel shaped by its caller rather
//! than by BLAS: [`panel_update_sub`], the fused update of supernodal
//! LU and supernodal Cholesky — a source panel's `L` block times a
//! small block (`U` rows solved in place for LU, the descendant's own
//! `J` rows for Cholesky), subtracted straight into the scattered rows
//! of a **row-major** accumulator.
//!
//! That kernel and the three TRSMs of [`trsm`] (one blocked body,
//! const-generic over the triangle kind) are **register-tiled**: a
//! generic safe-Rust body holds a small tile of the output in
//! registers across the whole reduction, and is compiled twice —
//! portable, and `avx2,fma` behind `#[target_feature]`. Which one runs
//! is decided in exactly one place, [`isa::detect`], from the CPU the
//! process is on; there is no cargo feature, environment variable or
//! `-C target-cpu` to set. The remaining generic kernels ([`potrf`],
//! [`getrf`], [`gemm`], [`trsv`]) are plain loops.
//!
//! The `dense_kernels` criterion bench
//! measures the two tiers against each other across block sizes.

pub mod gemm;
pub mod getrf;
pub mod isa;
pub mod mat;
pub mod panel_update;
pub mod potrf;
pub mod small;
pub mod trsm;
pub mod trsv;

pub use gemm::{gemm_nt_sub, gemv_sub, syrk_ln_sub};
pub use getrf::{getrf_nopiv, getrf_nopiv_perturbed};
pub use mat::DenseMat;
pub use panel_update::panel_update_sub;
pub use potrf::potrf_lower;
pub use trsm::{trsm_right_lower_trans, trsm_right_lower_trans_unit, trsm_right_upper};
pub use trsv::{trsv_lower, trsv_lower_trans};
