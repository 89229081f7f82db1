//! # dagfact-kernels
//!
//! Dense linear-algebra kernels used by the `dagfact` supernodal sparse
//! direct solver. This crate is the Rust stand-in for the vendor BLAS/LAPACK
//! (Intel MKL in the paper) plus the paper's custom *sparse* update kernels:
//!
//! * a [`Scalar`] abstraction covering IEEE `f64` ("D" problems) and
//!   double-precision complex [`C64`] ("Z" problems), with the conventional
//!   flop accounting used by the paper's GFlop/s figures,
//! * column-major [`gemm()`](gemm::gemm), [`trsm()`](trsm::trsm) and the three diagonal-block
//!   factorizations [`potrf()`](potrf::potrf) (Cholesky), [`ldlt()`](ldlt::ldlt) (LDLᵀ without pivoting)
//!   and [`getrf()`](getrf::getrf) (LU with static pivoting),
//! * the CPU *sparse GEMM* update of §V-B of the paper,
//!   [`update::update_via_buffer`]: compute into a contiguous scratch buffer,
//!   then scatter into the gappy destination panel — the PaStiX strategy.
//!   (The paper's direct-scatter form is its GPU kernel, modelled in
//!   `gpusim`.)
//!
//! All matrices are **column-major** with an explicit leading dimension,
//! matching LAPACK conventions, so the kernels operate directly on the
//! solver's compressed panel storage.

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod gemm;
pub mod getrf;
pub mod ldlt;
pub mod potrf;
pub mod scalar;
pub mod simd;
pub mod smallblas;
pub mod trsm;
pub mod update;

pub use gemm::{gemm, gemm_portable, Trans};
pub use getrf::{getrf, StaticPivotStats};
pub use ldlt::{ldlt, ldlt_apply_diag};
pub use potrf::potrf;
pub use scalar::{Scalar, C64};
pub use simd::{force_isa, isa, Isa};
pub use trsm::{trsm, Diag, Side, Uplo};

/// PANIC: the crate's one shape contract: a column-major `rows×cols` operand with
/// leading dimension `ld` fits in `len` elements. Every kernel checks each
/// operand here once per call, before its first write, so a release build
/// fails naming the operand instead of slice-panicking with the output
/// half-written.
#[inline]
#[track_caller]
pub(crate) fn assert_fits(what: &str, rows: usize, cols: usize, ld: usize, len: usize) {
    assert!(
        rows == 0 || cols == 0 || (ld >= rows && len >= ld * (cols - 1) + rows),
        "{what} buffer too small for {rows}x{cols} ld={ld}"
    );
}

/// Copy the `rows×cols` block at `src` (leading dimension `lds`) into the
/// front of `dst`, packed (leading dimension `rows`): how the blocked
/// factorizations here, and the solver's panel task, stage a diagonal tile
/// that shares columns with the block a TRSM writes. `rows > 0`.
#[inline]
pub fn pack_block<T: Scalar>(rows: usize, cols: usize, src: &[T], lds: usize, dst: &mut [T]) {
    // BOUNDS: the caller's block lies inside `src` under its asserted
    // shape contract, and `dst` holds rows·cols elements.
    for (dj, j) in dst[..rows * cols].chunks_exact_mut(rows).zip(0..) {
        dj.copy_from_slice(&src[j * lds..j * lds + rows]);
    }
}

/// Error raised by the diagonal-block factorization kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// Cholesky hit a non-positive pivot: the (index, value) of the pivot.
    NotPositiveDefinite { column: usize, pivot: f64 },
    /// LDLᵀ or LU hit an exactly-zero pivot that static pivoting could not
    /// repair (only possible when the static-pivot threshold is zero).
    ZeroPivot { column: usize },
    /// A pivot came out NaN or infinite — a non-finite input entry or an
    /// update that overflowed, which would otherwise spread silently
    /// through the trailing matrix.
    NonFinitePivot { column: usize },
}

impl core::fmt::Display for KernelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KernelError::NotPositiveDefinite { column, pivot } => write!(
                f,
                "matrix is not positive definite: pivot {pivot:e} at column {column}"
            ),
            KernelError::ZeroPivot { column } => {
                write!(f, "exactly zero pivot at column {column}")
            }
            KernelError::NonFinitePivot { column } => {
                write!(f, "non-finite pivot at column {column} (non-finite input or overflow)")
            }
        }
    }
}

impl std::error::Error for KernelError {}
