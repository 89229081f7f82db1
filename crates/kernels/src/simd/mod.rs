//! Runtime-dispatched SIMD microkernels.
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
//! * [`avx2`] — the GEMM microkernels for both element types of the
//!   solver, `f64` and `C64`: for `A` untransposed a two-`ymm`-tall
//!   register tile (8×4 real, 4×4 complex on the interleaved `{re, im}`
//!   storage) under one mc/kc/nc cache-blocking loop (constants sized for
//!   a ~32 KiB L1 / ~1 MiB L2 core), and for `Aᵀ·B` / `Aᴴ·B` a dot-form
//!   tile (3×4 real, 2×2 complex).
//!
//! `gemm` is the only way in: the two `try_gemm_*` shims below are its
//! dispatch and nothing else calls them. Everything else that wants SIMD
//! (both TRSM sides, the diagonal-block factorizations' trailing updates,
//! the solve sweeps) gets it by calling `gemm` with a shape one of the two
//! tiles takes — so a new element type or ISA is added in one place.
//!
//! Scalar fallback is the portable kernel itself: both shims return
//! `false` when the host lacks AVX2, the element type has no tiles (a
//! third `Scalar` implementation would land here), the shape is under one
//! tile (`m` < 8 real / 4 complex rows; `k` < 4 / 2 for the dot form), or
//! the crate is built with `--no-default-features` (feature `simd` off) —
//! that build is how CI keeps the fallback tested on any host.
//!
//! Numerical note: the AVX2 path contracts multiply-add pairs into FMAs
//! (a complex multiply-add is four of them, two per component) and
//! vectorizes the row loop; results can differ from the portable kernel by
//! a few ulp (the differential fuzz suite pins the bound at ≤ 4 ulp of the
//! accumulated magnitude, per component). Accumulation *order* over `k`
//! is preserved, so the drift is rounding-only, never catastrophic.

use crate::gemm::Trans;
use crate::scalar::Scalar;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::scalar::C64;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use core::any::TypeId;
use core::sync::atomic::{AtomicU8, Ordering};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;

/// Instruction-set tier selected by runtime dispatch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Isa {
    /// Portable blocked Rust (the baseline-target build of the crate).
    Scalar,
    /// AVX2 + FMA microkernels (`f64` and `C64`).
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

/// Register-tile height of the AVX2 `f64` microkernel (rows of C per
/// tile; two `ymm`, so half as many complex rows).
pub const MR: usize = 8;
/// Register-tile width of the AVX2 microkernels (columns of C per tile).
pub const NR: usize = 4;

// ---------------------------------------------------------------------
// Dispatch entry points (called by the portable kernels)
// ---------------------------------------------------------------------

/// Attempt the AVX2 GEMM for `C ← α·A·op(B) + β·C` with `A` untransposed.
/// Returns `true` when the SIMD path handled the call; `false` sends the
/// caller down the portable kernel (an element type without tiles, host
/// without AVX2, or fewer rows than one register tile).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_gemm_a_notrans<T: Scalar>(
    transb: Trans,
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
        isa() == Isa::Avx2
            && (a_notrans_as::<T, f64>(transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
                || a_notrans_as::<T, C64>(transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// [`try_gemm_a_notrans`] for one tiled element type `E`: declines unless
/// `T` is `E` and there is at least one register tile of rows. The caller
/// has established `isa() == Avx2`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn a_notrans_as<T: Scalar, E: avx2::Tiled>(
    transb: Trans,
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
    if TypeId::of::<T>() != TypeId::of::<E>() || m < E::MR {
        return false;
    }
    let (ae, be, ce) = (a.as_ptr().cast::<E>(), b.as_ptr().cast::<E>(), c.as_mut_ptr().cast::<E>());
    let (alpha, beta) = (E::from_parts(alpha.re(), alpha.im()), E::from_parts(beta.re(), beta.im()));
    // SAFETY: the caller's isa() == Avx2 certifies avx2+fma on this CPU;
    // TypeId equality proves T == E, so the pointers are the slices' own;
    // the shape contracts (lda/ldb/ldc vs m/n/k and the slice lengths)
    // were asserted by the calling `gemm` before any dispatch.
    unsafe { avx2::gemm_an(m, n, k, alpha, ae, lda, be, transb, ldb, beta, ce, ldc) };
    true
}

/// Attempt the AVX2 dot-form GEMM for `C ← α·op(A)·B + β·C` (`A` stored
/// `k×m`, `B` stored `k×n`, `transa` `Trans` or `ConjTrans` — the two
/// differ by a sign in the tile's one reduction). Returns `true` when the
/// SIMD path handled the call.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn try_gemm_a_trans<T: Scalar>(
    transa: Trans,
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
        isa() == Isa::Avx2
            && (a_trans_as::<T, f64>(transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
                || a_trans_as::<T, C64>(transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// [`try_gemm_a_trans`] for one tiled element type `E`: declines unless
/// `T` is `E` and the contraction fills one vector. The caller has
/// established `isa() == Avx2`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn a_trans_as<T: Scalar, E: avx2::Tiled>(
    transa: Trans,
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
    if TypeId::of::<T>() != TypeId::of::<E>() || k < E::LANES {
        return false;
    }
    let (ae, be, ce) = (a.as_ptr().cast::<E>(), b.as_ptr().cast::<E>(), c.as_mut_ptr().cast::<E>());
    let (alpha, beta) = (E::from_parts(alpha.re(), alpha.im()), E::from_parts(beta.re(), beta.im()));
    let conj_a = transa == Trans::ConjTrans;
    // SAFETY: the caller's isa() == Avx2 certifies avx2+fma on this CPU;
    // TypeId equality proves T == E, so the pointers are the slices' own;
    // the shape contracts (lda/ldb ≥ k, ldc ≥ m and the slice lengths)
    // were asserted by the calling `gemm` before any dispatch.
    unsafe { avx2::gemm_at(conj_a, m, n, k, alpha, ae, lda, be, ldb, beta, ce, ldc) };
    true
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
