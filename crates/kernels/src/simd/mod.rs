//! Runtime-dispatched SIMD microkernels (ROADMAP item 2).
//!
//! The portable kernels in [`crate::gemm`] / [`crate::update`] are safe
//! blocked Rust compiled for the baseline target (SSE2 on x86-64). This
//! module adds explicit `std::arch` AVX2+FMA microkernels behind *runtime*
//! feature detection, so one binary runs everywhere and uses the wide
//! path where the host supports it:
//!
//! * [`isa()`] — the cached dispatch decision. Detection
//!   (`is_x86_feature_detected!`) runs once; every later call is a single
//!   relaxed atomic load, so dispatch is legal inside the hot-path purity
//!   roots (no allocation, no locks, no panics).
//! * [`avx2`] — the f64 GEMM microkernels: the 8×4 register tile with
//!   mc/kc/nc cache blocking (constants sized for a ~32 KiB L1 /
//!   ~1 MiB L2 core) for `A` untransposed, and the 3×4 dot-form tile for
//!   `Aᵀ·B`.
//!
//! `gemm` is the only way in: the two `try_gemm_*` shims below are its
//! dispatch and nothing else calls them. Everything else that wants SIMD
//! (both TRSM sides, the diagonal-block factorizations' trailing updates,
//! the solve sweeps) gets it by calling `gemm` with a shape one of the two
//! tiles takes — so a new element type or ISA is added in one place.
//!
//! Scalar fallback is the portable kernel itself: both shims return
//! `false` when the host lacks AVX2, the element type is not `f64`, or the
//! crate is built with `--no-default-features` (feature `simd` off) — that
//! build is how CI keeps the fallback tested on any host.
//!
//! Numerical note: the AVX2 path contracts multiply-add pairs into FMAs
//! and vectorizes the row loop; results can differ from the portable
//! kernel by a few ulp (the differential fuzz suite pins the bound at
//! ≤ 4 ulp). Accumulation *order* over `k` is preserved, so the drift is
//! rounding-only, never catastrophic.

use crate::scalar::Scalar;
use core::any::TypeId;
use core::sync::atomic::{AtomicU8, Ordering};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;

/// Instruction-set tier selected by runtime dispatch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable blocked Rust (the baseline-target build of the crate).
    Scalar,
    /// AVX2 + FMA f64 microkernels.
    Avx2,
}

impl Isa {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// Cached dispatch decision: 0 = undetected, 1 = scalar, 2 = avx2.
static ISA_CACHE: AtomicU8 = AtomicU8::new(0);

/// The active instruction-set tier. First call detects and caches;
/// every later call is one relaxed load — cheap enough for the GEMM
/// entry point.
#[inline]
pub fn isa() -> Isa {
    // ORDERING: one-time monotonic cache of a pure hardware property;
    // racing initializers write the same value, readers need no
    // happens-before beyond the value itself.
    match ISA_CACHE.load(Ordering::Relaxed) {
        1 => Isa::Scalar,
        2 => Isa::Avx2,
        _ => detect_and_cache(),
    }
}

/// Force the dispatch decision (tests and the bench harness compare the
/// portable and SIMD paths in one process). Overrides detection until
/// the next call.
pub fn force_isa(isa: Isa) {
    let v = match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
    };
    // ORDERING: same monotonic-cache discipline as `isa()`.
    ISA_CACHE.store(v, Ordering::Relaxed);
}

/// Cold path of [`isa()`]: probe the CPU, honor overrides, cache the
/// verdict.
#[cold]
fn detect_and_cache() -> Isa {
    let detected = detect();
    let v = match detected {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
    };
    // Install only if still unseeded: a concurrent force_isa() racing
    // ahead of first detection must win, not be clobbered (bench/test
    // tier pinning).
    // ORDERING: same monotonic-cache discipline as `isa()` — the value
    // itself is the only payload, no happens-before needed.
    match ISA_CACHE.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => detected,
        Err(1) => Isa::Scalar,
        Err(_) => Isa::Avx2,
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn detect() -> Isa {
    if std::env::var_os("DAGFACT_FORCE_SCALAR").is_some() {
        return Isa::Scalar;
    }
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn detect() -> Isa {
    Isa::Scalar
}

/// Register-tile height of the AVX2 microkernel (rows of C per tile).
pub const MR: usize = 8;
/// Register-tile width of the AVX2 microkernel (columns of C per tile).
pub const NR: usize = 4;

// ---------------------------------------------------------------------
// f64 element-type witness
// ---------------------------------------------------------------------

/// View a generic scalar slice as `&[f64]` when `T` *is* `f64`.
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
#[inline]
pub(crate) fn as_f64<T: Scalar>(s: &[T]) -> Option<&[f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; same layout, same
        // lifetime, shared reference.
        Some(unsafe { core::slice::from_raw_parts(s.as_ptr().cast::<f64>(), s.len()) })
    } else {
        None
    }
}

/// Mutable counterpart of [`as_f64`].
#[cfg_attr(not(all(feature = "simd", target_arch = "x86_64")), allow(dead_code))]
#[inline]
pub(crate) fn as_f64_mut<T: Scalar>(s: &mut [T]) -> Option<&mut [f64]> {
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: TypeId equality proves T == f64; same layout, same
        // lifetime, and the &mut borrow is carried through.
        Some(unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<f64>(), s.len()) })
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Dispatch entry points (called by the portable kernels)
// ---------------------------------------------------------------------

/// Attempt the AVX2 GEMM for `C ← α·A·op(B) + β·C` with `A` untransposed.
/// Returns `true` when the SIMD path handled the call; `false` sends the
/// caller down the portable kernel (wrong type, unsupported layout, host
/// without AVX2, or a problem too small to win from vectorization).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_gemm_a_notrans<T: Scalar>(
    b_trans: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 || m < MR {
            return false;
        }
        let (Some(af), Some(bf)) = (as_f64(a), as_f64(b)) else {
            return false;
        };
        let Some(cf) = as_f64_mut(c) else { return false };
        let layout = if b_trans {
            avx2::BLayout::Trans { ldb }
        } else {
            avx2::BLayout::NoTrans { ldb }
        };
        // SAFETY: isa() == Avx2 certifies avx2+fma on this CPU; the
        // shape contracts (lda/ldb/ldc vs m/n/k and the slice lengths)
        // were asserted by the calling `gemm` before any dispatch.
        unsafe {
            avx2::gemm_f64(
                m,
                n,
                k,
                alpha.re(),
                af.as_ptr(),
                lda,
                bf.as_ptr(),
                layout,
                beta.re(),
                cf.as_mut_ptr(),
                ldc,
            );
        }
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (b_trans, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// Contraction length below which the dot-form kernel declines: under
/// one vector of rows its loop never runs and only the scalar tail would.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
const DOT_K_MIN: usize = 4;

/// Attempt the AVX2 dot-form GEMM for `C ← α·Aᵀ·B + β·C` (`A` stored
/// `k×m`, `B` stored `k×n`; for `f64` the conjugate transpose is the
/// transpose). Returns `true` when the SIMD path handled the call.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_gemm_a_trans<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if isa() != Isa::Avx2 || k < DOT_K_MIN {
            return false;
        }
        let (Some(af), Some(bf)) = (as_f64(a), as_f64(b)) else {
            return false;
        };
        let Some(cf) = as_f64_mut(c) else { return false };
        // SAFETY: isa() == Avx2 certifies avx2+fma on this CPU; the
        // shape contracts (lda/ldb ≥ k, ldc ≥ m and the slice lengths)
        // were asserted by the calling `gemm` before any dispatch.
        unsafe {
            avx2::gemm_at_f64(
                m,
                n,
                k,
                alpha.re(),
                af.as_ptr(),
                lda,
                bf.as_ptr(),
                ldb,
                beta.re(),
                cf.as_mut_ptr(),
                ldc,
            );
        }
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_is_cached_and_forcible() {
        let first = isa();
        assert_eq!(isa(), first, "second call must replay the cache");
        force_isa(Isa::Scalar);
        assert_eq!(isa(), Isa::Scalar);
        force_isa(first);
        assert_eq!(isa(), first);
    }

    #[test]
    fn f64_witness_accepts_f64_rejects_complex() {
        let v = [1.0f64, 2.0];
        assert!(as_f64(&v).is_some());
        let c = [crate::scalar::C64::new(1.0, 2.0)];
        assert!(as_f64(&c).is_none());
        let mut v = [1.0f64];
        assert!(as_f64_mut(&mut v).is_some());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_matches_cpu_when_simd_enabled() {
        let det = detect();
        #[cfg(feature = "simd")]
        {
            let want = if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && std::env::var_os("DAGFACT_FORCE_SCALAR").is_none()
            {
                Isa::Avx2
            } else {
                Isa::Scalar
            };
            assert_eq!(det, want);
        }
        #[cfg(not(feature = "simd"))]
        assert_eq!(det, Isa::Scalar);
    }
}
