//! Runtime-dispatched SIMD microkernels.
//!
//! The portable kernels in [`crate::gemm`] / [`crate::update`] are safe
//! blocked Rust compiled for the baseline target (SSE2 on x86-64). This
//! module adds explicit `std::arch` microkernels behind *runtime* feature
//! detection, so one binary runs everywhere and uses the widest path the
//! host supports:
//!
//! * [`isa()`] — the cached dispatch decision: [`Isa::Avx512`] on
//!   AVX-512F + AVX2 + FMA, [`Isa::Avx2`] on AVX2 + FMA, else
//!   [`Isa::Scalar`]. Detection (`is_x86_feature_detected!`) runs once;
//!   every later call is a single relaxed atomic load, so dispatch is
//!   legal inside the hot-path purity roots (no allocation, no locks, no
//!   panics).
//! * [`x86`] — the GEMM microkernels for `f64` and `C64`: for `A`
//!   untransposed one register tile under one mc/kc/nc cache-blocking
//!   loop, written once over the register width and run at `zmm` under
//!   `Avx512` (24×8 real, 8×8 complex) or `ymm` under `Avx2` (8×4, 4×4),
//!   bitwise equal; for `Aᵀ·B` / `Aᴴ·B` a dot tile written the same way
//!   (3×8 real, 2×8 complex at `zmm`; 3×4, 2×2 at `ymm`), bitwise equal.
//!
//! `gemm` is the way in for products: the two `try_gemm_*` shims below
//! are its dispatch and nothing else calls them. Everything else that
//! wants SIMD (both TRSM sides, the diagonal-block factorizations'
//! trailing updates, the solve sweeps) gets it by calling `gemm` with a
//! shape one of the two tiles takes — so a new element type or ISA is
//! added in one place. The one other way in, [`try_solve_rows`], runs
//! the left TRSM's portable triangle body under the tier's target
//! features: the same bits at every tier, faster (DESIGN.md §15).
//!
//! Scalar fallback is the portable kernel itself: both shims return
//! `false` when the host lacks AVX2, the element type has no tiles (a
//! third `Scalar` implementation would land here), the shape is under one
//! `ymm` tile (`m` < 8 real / 4 complex rows, at either width; `k` < 4 /
//! 2 for the dot form), or the crate is built with
//! `--no-default-features` (feature `simd` off) — that build is how CI
//! keeps the fallback tested on any host.
//!
//! Numerical note: the SIMD tiers contract multiply-add pairs into FMAs
//! (a complex multiply-add is four of them, two per component) and
//! vectorize the row loop; results can differ from the portable kernel by
//! a few ulp (the differential fuzz suite pins the bound at ≤ 4 ulp of the
//! accumulated magnitude, per component). Accumulation *order* over `k`
//! is preserved, so the drift is rounding-only, never catastrophic.

use crate::gemm::Trans;
use crate::scalar::Scalar;
use crate::trsm::Diag;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::scalar::C64;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use core::any::TypeId;
use core::sync::atomic::{AtomicU8, Ordering};
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use x86::Tiled;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod x86;

/// Instruction-set tier selected by runtime dispatch, ordered by width.
/// The discriminant is the tier's code in the dispatch cache.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Isa {
    /// Portable blocked Rust (the baseline-target build of the crate).
    Scalar = 1,
    /// AVX2 + FMA microkernels (`f64` and `C64`), `ymm` register tiles.
    Avx2 = 2,
    /// The same, the `A`-untransposed tile at `zmm` width (AVX-512F), bitwise equal.
    Avx512 = 3,
}

impl Isa {
    /// Stable lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// The tier of a nonzero cache code.
    fn from_code(v: u8) -> Isa {
        match v {
            1 => Isa::Scalar,
            2 => Isa::Avx2,
            _ => Isa::Avx512,
        }
    }
}

/// Cached dispatch decision: 0 = undetected, else the tier's discriminant.
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
        0 => detect_and_cache(),
        v => Isa::from_code(v),
    }
}

/// Force the dispatch decision (tests and the bench harness compare the
/// tiers in one process). Overrides detection until the next call; a
/// tier the CPU lacks is lowered to the widest it has, since a forced
/// tier executes its instructions.
pub fn force_isa(isa: Isa) {
    // ORDERING: same monotonic-cache discipline as `isa()`.
    ISA_CACHE.store(isa.min(hardware()) as u8, Ordering::Relaxed);
}

/// Cold path of [`isa()`]: probe the CPU, honor overrides, cache the
/// verdict.
#[cold]
fn detect_and_cache() -> Isa {
    let detected = detect();
    // Install only if still unseeded: a concurrent force_isa() racing
    // ahead of first detection must win, not be clobbered (bench/test
    // tier pinning).
    // ORDERING: same monotonic-cache discipline as `isa()` — the value
    // itself is the only payload, no happens-before needed.
    match ISA_CACHE.compare_exchange(0, detected as u8, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => detected,
        Err(v) => Isa::from_code(v),
    }
}

/// What [`isa()`] detects: [`hardware()`], unless `DAGFACT_FORCE_SCALAR` is set.
fn detect() -> Isa {
    if std::env::var_os("DAGFACT_FORCE_SCALAR").is_some() {
        Isa::Scalar
    } else {
        hardware()
    }
}

/// The widest tier this CPU (and this build) can run.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn hardware() -> Isa {
    if !(std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")) {
        Isa::Scalar
    } else if std::arch::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else {
        Isa::Avx2
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn hardware() -> Isa {
    Isa::Scalar
}

/// Fewest `f64` rows the `A`-untransposed tile takes, at either width (half as many complex).
pub const MR: usize = 8;

// ---------------------------------------------------------------------
// Dispatch entry points (called by the portable kernels)
// ---------------------------------------------------------------------

/// Attempt the SIMD GEMM for `C ← α·A·op(B) + β·C` with `A` untransposed.
/// Returns `true` when the SIMD path handled the call; `false` sends the
/// caller down the portable kernel (an element type without tiles, host
/// without AVX2, or fewer rows than one `ymm` tile).
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
        let isa = isa();
        isa != Isa::Scalar
            && (a_notrans_as::<T, f64>(isa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
                || a_notrans_as::<T, C64>(isa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// [`try_gemm_a_notrans`] for one tiled element type `E` at the register
/// width of `isa`: declines unless `T` is `E` and there is at least one
/// `ymm` tile of rows. `isa` is a SIMD tier the CPU has (`isa()` or
/// below).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn a_notrans_as<T: Scalar, E: Tiled>(
    isa: Isa,
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
    // SAFETY: `isa` (a SIMD tier the CPU has) certifies the width's
    // features: avx512f+avx2+fma for `Avx512`, avx2+fma for `Avx2`;
    // TypeId equality proves T == E, so the pointers are the slices' own;
    // the shape contracts (lda/ldb/ldc vs m/n/k and the slice lengths)
    // were asserted by the calling `gemm` before any dispatch.
    unsafe {
        match isa {
            Isa::Avx512 => x86::Zmm::gemm(false, transb, m, n, k, alpha, ae, lda, be, ldb, beta, ce, ldc),
            _ => x86::Ymm::gemm(false, transb, m, n, k, alpha, ae, lda, be, ldb, beta, ce, ldc),
        }
    }
    true
}

/// Attempt the SIMD dot-form GEMM for `C ← α·op(A)·B + β·C` (`A` stored
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
        let isa = isa();
        isa != Isa::Scalar
            && (a_trans_as::<T, f64>(isa, transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
                || a_trans_as::<T, C64>(isa, transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc))
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        false
    }
}

/// [`try_gemm_a_trans`] for one tiled element type `E` at the register
/// width of `isa`, a SIMD tier the CPU has: declines unless `T` is `E` and
/// the contraction fills one vector.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
#[inline]
fn a_trans_as<T: Scalar, E: Tiled>(
    isa: Isa,
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
    // SAFETY: `isa` (a SIMD tier the CPU has) certifies the width's
    // features; TypeId equality proves T == E, so the pointers are the
    // slices' own; the shape contracts (lda/ldb ≥ k, ldc ≥ m and the slice
    // lengths) were asserted by the calling `gemm` before any dispatch.
    unsafe {
        match isa {
            Isa::Avx512 => x86::Zmm::gemm(true, transa, m, n, k, alpha, ae, lda, be, ldb, beta, ce, ldc),
            _ => x86::Ymm::gemm(true, transa, m, n, k, alpha, ae, lda, be, ldb, beta, ce, ldc),
        }
    }
    true
}

/// Prefetch the leading `m×n` block of the column-major `t` (leading
/// dimension `ld`) into L1: a triangle is read one column per step of a
/// substitution whose steps depend on each other, so its lines would
/// otherwise miss one after another. A hint only; a no-op off x86-64.
#[inline]
pub(crate) fn prefetch_block<T>(t: &[T], ld: usize, m: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let step = (64 / core::mem::size_of::<T>()).max(1);
        for j in 0..n {
            for i in (0..m).step_by(step) {
                // SAFETY: SSE is in the x86-64 baseline, and a prefetch
                // never faults, so the address need not be in bounds
                // (`wrapping_add` keeps the arithmetic defined).
                unsafe { _mm_prefetch::<_MM_HINT_T0>(t.as_ptr().wrapping_add(j * ld + i).cast()) };
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (t, ld, m, n);
}

/// Attempt the left TRSM's diagonal triangle ([`crate::trsm::solve_rows`],
/// one lane per right-hand side) compiled under the SIMD tier's target
/// features: the portable body again, not a second tier — it never fuses,
/// so every instance returns the same bits. `false` (the caller runs the
/// baseline instance) under [`Isa::Scalar`] or without the `simd` feature.
#[inline]
pub(crate) fn try_solve_rows<T: Scalar, const N: usize>(
    lower: bool,
    trans: Trans,
    diag: Diag,
    t: &[T],
    ldt: usize,
    rows: &mut [[T; N]],
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        match isa() {
            // SAFETY: `isa()` certifies avx512f+avx2+fma on this CPU.
            Isa::Avx512 => unsafe { x86::Zmm::solve_rows(lower, trans, diag, t, ldt, rows) },
            // SAFETY: `isa()` certifies avx2+fma on this CPU.
            Isa::Avx2 => unsafe { x86::Ymm::solve_rows(lower, trans, diag, t, ldt, rows) },
            Isa::Scalar => return false,
        }
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (lower, trans, diag, t, ldt, rows);
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
        force_isa(Isa::Avx512);
        assert_eq!(isa(), hardware(), "a forced tier never exceeds the CPU's");
        force_isa(first);
        assert_eq!(isa(), first);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_matches_cpu_when_simd_enabled() {
        let det = detect();
        #[cfg(feature = "simd")]
        {
            let want = if std::env::var_os("DAGFACT_FORCE_SCALAR").is_some()
                || !(std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma"))
            {
                Isa::Scalar
            } else if std::arch::is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else {
                Isa::Avx2
            };
            assert_eq!(det, want);
        }
        #[cfg(not(feature = "simd"))]
        assert_eq!(det, Isa::Scalar);
    }

    /// The `zmm` width against the `ymm` width, called directly (no global
    /// tier state), bitwise, on every full-tile, one-register-tile and
    /// scalar-edge row count of both, column counts across both strips'
    /// remainders (and both dot tiles' odd columns), contractions across
    /// the `KC` = 256 chunk, every `op(B)` and both transposed `op(A)`,
    /// complex α and β ∈ {0, 1, ½, ½−¼i} (the imaginary part dropped for
    /// `f64`), and padded strides. `op(B)`, β and the padding go round-robin
    /// over the 350 shapes, which keeps the debug build's run to seconds.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    fn widths_agree<E: Tiled>() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |len: usize| -> Vec<E> {
            let mut unit = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            };
            (0..len).map(|_| E::from_parts(unit(), unit())).collect()
        };
        let alpha = E::from_parts(-0.75, 0.375);
        let betas = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, -0.25)].map(|(re, im)| E::from_parts(re, im));
        let mut case = 0usize;
        for m in [8usize, 9, 16, 23, 24, 25, 47, 48, 49, 130] {
            for n in [1usize, 4, 7, 8, 9, 17, 126] {
                for k in [1usize, 255, 256, 257, 513] {
                    // Round-robin: every `op(B)` meets every `m` and `k`.
                    let transb = [Trans::NoTrans, Trans::Trans, Trans::ConjTrans][case % 3];
                    let beta = betas[(case / 3) % betas.len()];
                    let pad = 1 + (case / 12) % 3;
                    case += 1;
                    {
                        let (lda, ldc) = (m + pad, m + 2 * pad);
                        let (ldb, bcols) = if transb == Trans::NoTrans { (k + pad, n) } else { (n + pad, k) };
                        let (a, b, c0) = (draw(lda * k), draw(ldb * bcols), draw(ldc * n));
                        let run = |isa| {
                            let mut c = c0.clone();
                            assert!(a_notrans_as::<E, E>(
                                isa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc
                            ));
                            c.iter().map(|x| (x.re().to_bits(), x.im().to_bits())).collect::<Vec<_>>()
                        };
                        assert!(
                            run(Isa::Avx512) == run(Isa::Avx2),
                            "{}: zmm differs from ymm at m={m} n={n} k={k} {transb:?} β={beta}",
                            E::PREC
                        );
                    }
                    // The dot form, `op(A)·B` with `A` stored k×m (it
                    // takes a contraction of at least one vector).
                    if k >= E::LANES {
                        let transa = [Trans::Trans, Trans::ConjTrans][case % 2];
                        let (lda, ldb, ldc) = (k + pad, k + 2 * pad, m + pad);
                        let (a, b, c0) = (draw(lda * m), draw(ldb * n), draw(ldc * n));
                        let run = |isa| {
                            let mut c = c0.clone();
                            assert!(a_trans_as::<E, E>(isa, transa, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc));
                            c.iter().map(|x| (x.re().to_bits(), x.im().to_bits())).collect::<Vec<_>>()
                        };
                        assert!(
                            run(Isa::Avx512) == run(Isa::Avx2),
                            "{}: zmm dot tile differs from ymm at m={m} n={n} k={k} {transa:?} β={beta}",
                            E::PREC
                        );
                    }
                }
            }
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn zmm_width_is_bitwise_the_ymm_width() {
        // Both widths execute their instructions: only on an AVX-512 CPU.
        if hardware() == Isa::Avx512 {
            widths_agree::<f64>();
            widths_agree::<C64>();
        }
    }
}
