//! AVX2 + FMA microkernels for `f64` and [`C64`].
//!
//! Two register tiles, one per storage order of `A`, under two blocking
//! loops written once over [`Tiled`]:
//!
//! * **`A` untransposed** ([`gemm_an`], [`tile_axpy`]): an `MR×NJ` tile of
//!   `C` (two `ymm` of rows — 8 reals, 4 complex — × `NJ ≤ 4` columns) is
//!   held in registers while the `k` loop streams columns of `A`
//!   (contiguous loads) and broadcasts elements of `s = α·op(B)`. The
//!   blocking loop forms `s` once per four-column strip, under whichever
//!   `Trans` `B` carries, and every row tile under the strip shares it — so
//!   the same tile covers the `NoTrans×Trans` outer product of the
//!   supernodal update *and* the `NoTrans×NoTrans` product of the forward
//!   solve, and its `k` loop is loads and FMAs only. The tile is one
//!   function for both element types (they differ in [`Tiled::fma`], the
//!   multiply-add of one accumulator) and const-generic over its column
//!   count, so the `n mod 4` remainder (and all of `n < 4`: the single-RHS
//!   solve) vectorizes along `m` like the full tile; [`tile_edge`] keeps
//!   only the `< MR`-row remainder.
//! * **`A` transposed, `B` untransposed** ([`gemm_at`]): the contraction
//!   runs down contiguous columns of both operands, so a tile of `C` (3×4
//!   real, 2×2 complex) is a block of `ymm` dot-product accumulators
//!   reduced once at the end of a `KC` chunk — the backward solve's
//!   product, and at one right-hand side the backward solve itself.
//!
//! Complex arithmetic works on the interleaved `{re, im}` storage as it
//! is: with `a` a `ymm` of two elements and `i·a = (−a.im, a.re)` (one
//! in-lane swap and a sign, shared by every column of the tile),
//! `acc += a·s` is two FMAs into one accumulator, `a·s.re` then
//! `(i·a)·s.im` — no split real/imaginary accumulators, so `NJ = 4` fits
//! the register file as it does for `f64`. The complex dot tile keeps
//! `a·b` and `a·swap(b)` per element and applies the signs of `aᵀb` or
//! `aᴴb` in the one reduction.
//!
//! Accumulation **association matches the portable kernel** on the
//! `A`-untransposed tile: the C tile is loaded first (β applied on the
//! first `kc` chunk), then per `k` step `a·s[l, j]` is added in, `s[l, j]
//! = α·op(B)[l, j]` formed in scalar as the portable body forms it — the
//! same per-`l` axpy order as [`crate::gemm`]'s `gemm_a_notrans`, with each
//! multiply-add pair contracted into a single rounding. The dot tile sums
//! one partial dot per `ymm` lane (rounding-level reassociation).
//! In both, an element of `C` is computed the same way whatever tile or
//! remainder it falls in and however many columns ride with it, so a
//! column of a product does not depend on `n`. The differential fuzz
//! suite pins the drift.
//!
//! Everything here is `unsafe fn` + raw pointers: callers (the dispatch
//! shims in [`super`]) re-assert the LAPACK shape contracts before any
//! pointer is formed, and `isa()` certifies the CPU features. Miri and
//! TSan cannot run on this host; the running gates over this `unsafe` are
//! `tests/simd_fuzz.rs` (both element types against the portable tier on
//! every `Trans` pair and tile edge) and the solver's bitwise oracles
//! (`core/tests/{factorize_solve,solve}.rs`).

use super::NR;
use crate::gemm::Trans;
use crate::scalar::{Scalar, C64};
use core::arch::x86_64::*;

// Cache blocking of `gemm_an`. An MR×kc A-tile stream (one cache line per
// column) against kc×4 B columns: kc=256 keeps the active B block at
// 8 KiB (16 complex); mc=128 holds a 128×256 A block in 256 KiB (512
// complex) of L2; nc=512 bounds the C working set.
/// Row-block height (a multiple of every [`Tiled::MR`]).
const MC: usize = 128;
/// Inner-dimension panel depth.
const KC: usize = 256;
/// Column-block width (a multiple of [`NR`]).
const NC: usize = 512;

/// An element type with AVX2 register tiles: what the two blocking loops
/// ([`gemm_an`], [`gemm_at`]) and the `A`-untransposed tile
/// ([`tile_axpy`]) are written over.
pub(crate) trait Tiled: Scalar {
    /// Elements per `ymm`: the contraction length below which the dot
    /// tile's vector loop never runs and only its scalar tail would.
    const LANES: usize;
    /// Rows of `C` per `A`-untransposed tile: two `ymm`.
    const MR: usize = 2 * Self::LANES;
    /// Rows of `C` per dot tile.
    const DOT_MR: usize;
    /// Columns of `C` per dot tile.
    const DOT_NR: usize;

    /// `x + a·s` as the `A`-untransposed tile rounds it, one element.
    fn madd(a: Self, s: Self, x: Self) -> Self;

    /// `acc + a·(*s)` on every element of `acc`: [`Self::madd`], vector
    /// form.
    ///
    /// # Safety
    /// AVX2+FMA, and `s` readable.
    unsafe fn fma(a: __m256d, s: *const Self, acc: __m256d) -> __m256d;

    /// `v·β` on every element of `v`, as the portable `*v *= beta` rounds
    /// it.
    ///
    /// # Safety
    /// AVX2.
    unsafe fn times(v: __m256d, beta: Self) -> __m256d;

    /// The `mi×nj` dot tile, `mi ∈ {DOT_MR, 1}`, `nj ∈ 1..=DOT_NR`, over
    /// `op(A) = Aᴴ` when `conj_a`, else `Aᵀ`.
    ///
    /// # Safety
    /// Caller guarantees AVX2+FMA, `kk` rows of `mi` columns of A at
    /// `(a, lda)` and of `nj` columns of B at `(b, ldb)`, and `mi` rows ×
    /// `nj` columns of C at `(c, ldc)`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn dot_tile(
        mi: usize,
        nj: usize,
        conj_a: bool,
        kk: usize,
        a: *const Self,
        lda: usize,
        b: *const Self,
        ldb: usize,
        alpha: Self,
        beta: Self,
        c: *mut Self,
        ldc: usize,
    );
}

/// `C ← α·A·op(B) + β·C`, `A` untransposed `m×k` column-major; `op(B)[l, j]`
/// is `b[j*ldb + l]` under `NoTrans` (`B` stored `k×n`), else `b[l*ldb + j]`
/// (`B` stored `n×k` — the `L_{i,k}·L_{j,k}ᵀ` outer product), conjugated
/// under `ConjTrans`.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`), and the usual LAPACK shape
/// contracts: `lda ≥ m`, `ldc ≥ m`, buffers sized for the described
/// shapes (asserted by the dispatching `gemm`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_an<E: Tiled>(
    m: usize,
    n: usize,
    k: usize,
    alpha: E,
    a: *const E,
    lda: usize,
    b: *const E,
    transb: Trans,
    ldb: usize,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    // One strip of `s = α·op(B)`, formed in scalar as the portable body
    // forms it and shared by every row tile under the strip.
    let mut strip = [core::mem::MaybeUninit::<E>::uninit(); KC * NR];
    let s = strip.as_mut_ptr().cast::<E>();
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = KC.min(k - pc);
            let first = pc == 0;
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                let m_main = mcb - mcb % E::MR;
                let mut jr = 0;
                while jr < ncb {
                    let nrb = NR.min(ncb - jr);
                    let j0 = jc + jr;
                    for ll in 0..kcb {
                        for jj in 0..nrb {
                            // SAFETY: ll < kcb ≤ KC and jj < nrb ≤ NR stay
                            // inside `strip`; (pc+ll, j0+jj) < (k, n) is
                            // inside the caller's shape contract for `b`.
                            unsafe {
                                let (l, j) = (pc + ll, j0 + jj);
                                let blj = match transb {
                                    Trans::NoTrans => *b.add(j * ldb + l),
                                    t => t.apply(*b.add(l * ldb + j)),
                                };
                                *s.add(ll * NR + jj) = alpha * blj;
                            }
                        }
                    }
                    let mut ir = 0;
                    while ir < m_main {
                        // SAFETY: rows (ic+ir .. +MR) ≤ m and columns
                        // (j0 .. +nrb) ≤ n stay inside the caller's
                        // lda/ldc shape contracts; kcb rows × nrb columns
                        // of `s` were written just above.
                        unsafe {
                            let at = a.add(pc * lda + ic + ir);
                            let ct = c.add(j0 * ldc + ic + ir);
                            match nrb {
                                4 => tile_axpy::<E, 4>(kcb, at, lda, s, first, beta, ct, ldc),
                                3 => tile_axpy::<E, 3>(kcb, at, lda, s, first, beta, ct, ldc),
                                2 => tile_axpy::<E, 2>(kcb, at, lda, s, first, beta, ct, ldc),
                                _ => tile_axpy::<E, 1>(kcb, at, lda, s, first, beta, ct, ldc),
                            }
                        }
                        ir += E::MR;
                    }
                    if mcb > m_main {
                        let it0 = ic + m_main;
                        // SAFETY: the <MR-row remainder of the same
                        // columns stays inside the same shape contracts.
                        unsafe {
                            let (at, ct) = (a.add(pc * lda + it0), c.add(j0 * ldc + it0));
                            tile_edge(mcb - m_main, nrb, kcb, at, lda, s, first, beta, ct, ldc);
                        }
                    }
                    jr += NR;
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// The `MR×NJ` register tile (`NJ` ∈ 1..=4): `C_tile` lives in `2·NJ`
/// `ymm` accumulators across the whole `kk` loop; β is applied when
/// `first` (chunk `pc == 0`). Every column runs the same per-`l`
/// [`Tiled::fma`] chain whatever `NJ` is.
///
/// # Safety
/// Caller guarantees AVX2+FMA, `MR` rows × `NJ` columns of C at
/// `(c, ldc)`, `kk` columns of A at `(a, lda)`, and `kk` rows of the
/// packed strip `s`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_axpy<E: Tiled, const NJ: usize>(
    kk: usize,
    a: *const E,
    lda: usize,
    s: *const E,
    first: bool,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees MR rows and NJ columns of C
    // at (c, ldc), kk columns of A at (a, lda), and kk rows of s; MR
    // elements are two `ymm`, i.e. 8 contiguous `f64`s (`C64` is
    // `#[repr(C)] {re, im}`).
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; NJ];
        for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
            // β = 0 leaves the zeros: it must not read (possibly garbage) C.
            if !first || beta != E::zero() {
                let cj = c.add(jj * ldc).cast::<f64>();
                (*lo, *hi) = (_mm256_loadu_pd(cj), _mm256_loadu_pd(cj.add(4)));
                if first && beta != E::one() {
                    (*lo, *hi) = (E::times(*lo, beta), E::times(*hi, beta));
                }
            }
        }
        for ll in 0..kk {
            let al = a.add(ll * lda).cast::<f64>();
            let (a0, a1) = (_mm256_loadu_pd(al), _mm256_loadu_pd(al.add(4)));
            for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
                let sj = s.add(ll * NR + jj);
                *lo = E::fma(a0, sj, *lo);
                *hi = E::fma(a1, sj, *hi);
            }
        }
        for (jj, &[lo, hi]) in acc.iter().enumerate() {
            let cj = c.add(jj * ldc).cast::<f64>();
            _mm256_storeu_pd(cj, lo);
            _mm256_storeu_pd(cj.add(4), hi);
        }
    }
}

/// Row-remainder tile (`mt < MR` rows under a column strip of `nt ≤ 4`):
/// scalar loops with the same association as the register tile
/// ([`Tiled::madd`]; `mul_add` contracts to a hardware FMA under the
/// enabled feature).
///
/// # Safety
/// Caller guarantees AVX2+FMA, `mt` rows × `nt` cols of C at `(c, ldc)`,
/// `kk` columns of A at `(a, lda)`, and `kk` rows of the packed strip `s`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_edge<E: Tiled>(
    mt: usize,
    nt: usize,
    kk: usize,
    a: *const E,
    lda: usize,
    s: *const E,
    first: bool,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees mt rows × nt cols of C,
    // kk columns of A, and kk rows of s.
    unsafe {
        for jj in 0..nt {
            let cj = c.add(jj * ldc);
            for ii in 0..mt {
                let cij = cj.add(ii);
                let mut x = if first {
                    if beta == E::zero() {
                        E::zero()
                    } else {
                        beta * *cij
                    }
                } else {
                    *cij
                };
                for ll in 0..kk {
                    x = E::madd(*a.add(ll * lda + ii), *s.add(ll * NR + jj), x);
                }
                *cij = x;
            }
        }
    }
}

/// `C ← α·op(A)·B + β·C` with `A` stored `k×m` and `B` stored `k×n`, both
/// column-major, `op(A) = Aᴴ` when `conj_a`, else `Aᵀ`: every `C[i, j]` is
/// a dot product down two contiguous columns. The contraction is cut into
/// [`KC`] chunks (β on the first, accumulation after) so the `B` chunk a
/// row-block of tiles sweeps stays cache-resident while `A` streams
/// through once.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`), `lda ≥ k`, `ldb ≥ k`,
/// `ldc ≥ m`, and buffers sized for the described shapes (asserted by
/// the dispatching `gemm`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_at<E: Tiled>(
    conj_a: bool,
    m: usize,
    n: usize,
    k: usize,
    alpha: E,
    a: *const E,
    lda: usize,
    b: *const E,
    ldb: usize,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        let beta = if pc == 0 { beta } else { E::one() };
        let mut i = 0;
        while i < m {
            // Row remainders (m mod DOT_MR) go one row at a time: the same
            // per-element arithmetic as the full tile.
            let mi = if m - i >= E::DOT_MR { E::DOT_MR } else { 1 };
            let mut j = 0;
            while j < n {
                let nj = E::DOT_NR.min(n - j);
                // SAFETY: rows pc..pc+kcb ≤ k of columns i..i+mi ≤ m of
                // A and j..j+nj ≤ n of B, and the mi×nj block of C at
                // (i, j), stay inside the caller's shape contracts.
                unsafe {
                    let (at, bt) = (a.add(i * lda + pc), b.add(j * ldb + pc));
                    E::dot_tile(mi, nj, conj_a, kcb, at, lda, bt, ldb, alpha, beta, c.add(j * ldc + i), ldc);
                }
                j += nj;
            }
            i += mi;
        }
        pc += kcb;
    }
}

/// Sums of the even and of the odd lanes of `v`.
/// # Safety
/// AVX2 is available (every caller is an AVX2 tile).
#[target_feature(enable = "avx2")]
#[inline]
fn halves(v: __m256d) -> (f64, f64) {
    let pair = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    (_mm_cvtsd_f64(pair), _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair)))
}

// ---------------------------------------------------------------------
// f64 tiles
// ---------------------------------------------------------------------

// The public tile height is the real tile's.
const _: () = assert!(<f64 as Tiled>::MR == super::MR);

impl Tiled for f64 {
    const LANES: usize = 4;
    // 3 columns of `A` held in `ymm` against up to four columns of `B`:
    // 12 accumulators + 3 + 1 fill the register file.
    const DOT_MR: usize = 3;
    const DOT_NR: usize = 4;

    #[inline(always)]
    fn madd(a: f64, s: f64, x: f64) -> f64 {
        f64::mul_add(a, s, x)
    }

    /// # Safety
    /// The contract of [`Tiled::fma`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn fma(a: __m256d, s: *const f64, acc: __m256d) -> __m256d {
        // SAFETY: the caller's contract, passed through.
        _mm256_fmadd_pd(a, unsafe { _mm256_broadcast_sd(&*s) }, acc)
    }

    /// # Safety
    /// The contract of [`Tiled::times`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn times(v: __m256d, beta: f64) -> __m256d {
        _mm256_mul_pd(v, _mm256_set1_pd(beta))
    }

    /// # Safety
    /// The contract of [`Tiled::dot_tile`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn dot_tile(
        mi: usize,
        nj: usize,
        _conj_a: bool,
        kk: usize,
        a: *const f64,
        lda: usize,
        b: *const f64,
        ldb: usize,
        alpha: f64,
        beta: f64,
        c: *mut f64,
        ldc: usize,
    ) {
        // SAFETY: the caller's contract, passed through.
        unsafe {
            match (mi, nj) {
                (3, 4) => tile_dot::<3, 4>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (3, 3) => tile_dot::<3, 3>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (3, 2) => tile_dot::<3, 2>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (3, _) => tile_dot::<3, 1>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, 4) => tile_dot::<1, 4>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, 3) => tile_dot::<1, 3>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, 2) => tile_dot::<1, 2>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, _) => tile_dot::<1, 1>(kk, a, lda, b, ldb, alpha, beta, c, ldc),
            }
        }
    }
}

/// The `MI×NJ` dot tile: `C[i, j] ← α·(A[:, i]·B[:, j]) + β·C[i, j]` over
/// `kk` rows. Each element is four interleaved partial dots (one `ymm`
/// accumulator, one FMA per four rows), reduced as `(s₀+s₂)+(s₁+s₃)`, then
/// the `kk mod 4` tail by scalar FMA — identical for every `MI`, `NJ`.
/// β = 0 stores without reading `C`.
///
/// # Safety
/// Caller guarantees AVX2+FMA, `kk` rows of `MI` columns of A at
/// `(a, lda)` and of `NJ` columns of B at `(b, ldb)`, and `MI` rows ×
/// `NJ` columns of C at `(c, ldc)`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_dot<const MI: usize, const NJ: usize>(
    kk: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    alpha: f64,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees kk rows of MI columns of A,
    // of NJ columns of B, and the MI×NJ block of C.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); NJ]; MI];
        let main = kk - kk % 4;
        let mut l = 0;
        while l < main {
            let mut av = [_mm256_setzero_pd(); MI];
            for (ii, v) in av.iter_mut().enumerate() {
                *v = _mm256_loadu_pd(a.add(ii * lda + l));
            }
            for jj in 0..NJ {
                let bv = _mm256_loadu_pd(b.add(jj * ldb + l));
                for (row, &a_ii) in acc.iter_mut().zip(&av) {
                    // BOUNDS: jj < NJ, the accumulator rows' own length.
                    row[jj] = _mm256_fmadd_pd(a_ii, bv, row[jj]);
                }
            }
            l += 4;
        }
        for (ii, row) in acc.iter().enumerate() {
            for (jj, &v) in row.iter().enumerate() {
                let (even, odd) = halves(v);
                let mut dot = even + odd;
                for l in main..kk {
                    dot = f64::mul_add(*a.add(ii * lda + l), *b.add(jj * ldb + l), dot);
                }
                let cij = c.add(jj * ldc + ii);
                *cij = if beta == 0.0 { alpha * dot } else { f64::mul_add(alpha, dot, beta * *cij) };
            }
        }
    }
}

// ---------------------------------------------------------------------
// C64 tiles
// ---------------------------------------------------------------------

impl Tiled for C64 {
    const LANES: usize = 2;
    // 2 columns of `A` against 2 of `B`, two accumulators per element:
    // 8 + 2 + 2 (`b` and its swap) `ymm`.
    const DOT_MR: usize = 2;
    const DOT_NR: usize = 2;

    #[inline(always)]
    fn madd(a: C64, s: C64, x: C64) -> C64 {
        C64::new(
            f64::mul_add(-a.im, s.im, f64::mul_add(a.re, s.re, x.re)),
            f64::mul_add(a.re, s.im, f64::mul_add(a.im, s.re, x.im)),
        )
    }

    /// `a·s.re` then `(i·a)·s.im`, two FMAs into the one accumulator; the
    /// rotation `i·a` is the same for every column of a strip, so after
    /// inlining a tile computes it once per `A` vector.
    ///
    /// # Safety
    /// The contract of [`Tiled::fma`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn fma(a: __m256d, s: *const C64, acc: __m256d) -> __m256d {
        // SAFETY: the caller's contract, passed through.
        let (sr, si) = unsafe { (_mm256_broadcast_sd(&(*s).re), _mm256_broadcast_sd(&(*s).im)) };
        _mm256_fmadd_pd(times_i(a), si, _mm256_fmadd_pd(a, sr, acc))
    }

    /// # Safety
    /// The contract of [`Tiled::times`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn times(v: __m256d, beta: C64) -> __m256d {
        let (br, bi) = (_mm256_set1_pd(beta.re), _mm256_set1_pd(beta.im));
        _mm256_add_pd(_mm256_mul_pd(v, br), _mm256_mul_pd(times_i(v), bi))
    }

    /// # Safety
    /// The contract of [`Tiled::dot_tile`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn dot_tile(
        mi: usize,
        nj: usize,
        conj_a: bool,
        kk: usize,
        a: *const C64,
        lda: usize,
        b: *const C64,
        ldb: usize,
        alpha: C64,
        beta: C64,
        c: *mut C64,
        ldc: usize,
    ) {
        // SAFETY: the caller's contract, passed through.
        unsafe {
            match (mi, nj) {
                (2, 2) => tile_dot_c64::<2, 2>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (2, _) => tile_dot_c64::<2, 1>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, 2) => tile_dot_c64::<1, 2>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc),
                (_, _) => tile_dot_c64::<1, 1>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc),
            }
        }
    }
}

/// `i·v` on a `ymm` of two interleaved complex numbers: `(−im, re)` per
/// element (an in-lane swap and a sign flip of the even lanes).
/// # Safety
/// AVX2 is available (every caller is an AVX2 tile).
#[target_feature(enable = "avx2")]
#[inline]
fn times_i(v: __m256d) -> __m256d {
    _mm256_xor_pd(_mm256_permute_pd::<0b0101>(v), _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0))
}

/// The `MI×NJ` complex dot tile: `C[i, j] ← α·(op(A)[i, :]·B[:, j]) +
/// β·C[i, j]` over `kk` rows. Each element keeps two `ymm` accumulators
/// over row pairs, `a·b` = `(Σ re·re, Σ im·im)` and `a·swap(b)` =
/// `(Σ re·im, Σ im·re)` per lane pair, reduced once: `aᵀb = (rr − ii,
/// ri + ir)`, `aᴴb = (rr + ii, ri − ir)`; then the odd last row in
/// portable arithmetic — identical for every `MI`, `NJ`. β = 0 stores
/// without reading `C`.
///
/// # Safety
/// Caller guarantees AVX2+FMA, `kk` rows of `MI` columns of A at
/// `(a, lda)` and of `NJ` columns of B at `(b, ldb)`, and `MI` rows ×
/// `NJ` columns of C at `(c, ldc)`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_dot_c64<const MI: usize, const NJ: usize>(
    conj_a: bool,
    kk: usize,
    a: *const C64,
    lda: usize,
    b: *const C64,
    ldb: usize,
    alpha: C64,
    beta: C64,
    c: *mut C64,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees kk rows of MI columns of A,
    // of NJ columns of B, and the MI×NJ block of C; two `C64` are 4
    // contiguous `f64`s.
    unsafe {
        let mut acc = [[[_mm256_setzero_pd(); 2]; NJ]; MI];
        let main = kk - kk % 2;
        let mut l = 0;
        while l < main {
            let mut av = [_mm256_setzero_pd(); MI];
            for (ii, v) in av.iter_mut().enumerate() {
                *v = _mm256_loadu_pd(a.add(ii * lda + l).cast());
            }
            for jj in 0..NJ {
                let bv = _mm256_loadu_pd(b.add(jj * ldb + l).cast());
                let bs = _mm256_permute_pd::<0b0101>(bv);
                for (row, &a_ii) in acc.iter_mut().zip(&av) {
                    // BOUNDS: jj < NJ, the accumulator rows' own length.
                    let [same, cross] = &mut row[jj];
                    *same = _mm256_fmadd_pd(a_ii, bv, *same);
                    *cross = _mm256_fmadd_pd(a_ii, bs, *cross);
                }
            }
            l += 2;
        }
        for (ii, row) in acc.iter().enumerate() {
            for (jj, &[same, cross]) in row.iter().enumerate() {
                let ((rr, im_im), (ri, ir)) = (halves(same), halves(cross));
                let mut dot = if conj_a { C64::new(rr + im_im, ri - ir) } else { C64::new(rr - im_im, ri + ir) };
                if main < kk {
                    let a_l = *a.add(ii * lda + main);
                    dot += if conj_a { a_l.conj() } else { a_l } * *b.add(jj * ldb + main);
                }
                let cij = c.add(jj * ldc + ii);
                *cij = if beta == C64::zero() { alpha * dot } else { alpha * dot + beta * *cij };
            }
        }
    }
}
