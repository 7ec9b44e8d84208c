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
//! of a **row-major** accumulator, with an `avx2,fma` instantiation
//! picked at run time.
//!
//! The `dense_kernels` criterion bench (ablation A1 in DESIGN.md)
//! measures the two tiers against each other across block sizes.

pub mod gemm;
pub mod getrf;
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
