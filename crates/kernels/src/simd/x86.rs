//! x86-64 microkernels for `f64` and [`C64`], at two register widths:
//! `ymm` (AVX2 + FMA) and `zmm` (AVX-512F).
//!
//! Two register tiles, one per storage order of `A`:
//!
//! * **`A` untransposed** ([`gemm_an`], [`tile`]): a tile of `C` (`MV`
//!   registers of rows × `NJ` columns) stays in registers while the `k`
//!   loop streams columns of `A` and broadcasts elements of `s =
//!   α·op(B)`. One blocking loop and one tile body serve both widths
//!   ([`Width`]), each instantiated under its own `#[target_feature]`
//!   ([`Zmm::gemm`]): 8×4 real / 4×4 complex in `ymm`, 24×8 / 8×8 in
//!   `zmm`. `s` is formed once per `NR`-column strip under whichever
//!   `Trans` `B` carries, so the tile covers the update's `NoTrans×Trans`
//!   and the forward solve's `NoTrans×NoTrans` with a `k` loop of loads
//!   and FMAs only. Rows go in full tiles, one-register tiles, then
//!   [`tile_edge`]'s scalar rows; the tile is const-generic over its
//!   column count, so `n mod NR` (and the single-RHS solve) vectorizes
//!   along `m` like the full tile.
//! * **`A` transposed, `B` untransposed** ([`gemm_at`], [`tile_dot`]):
//!   the contraction runs down contiguous columns of both operands, so a
//!   tile of `C` is a block of `ymm` dot-product accumulators reduced once
//!   per `KC` chunk — the backward solve's product. 3×4 real / 2×2 complex
//!   in `ymm`; 3×8 / 2×8 in `zmm`, whose halves hold two columns' `ymm`
//!   accumulators. Each tile prefetches the next row tile's `A`.
//!
//! Complex arithmetic works on the interleaved `{re, im}` storage as it
//! is: with `a` a register of complex elements and `i·a = (−a.im, a.re)`
//! (one in-lane swap and a sign, shared by every column of the tile),
//! `acc += a·s` is two FMAs into one accumulator, `a·s.re` then
//! `(i·a)·s.im` — no split real/imaginary accumulators. The complex dot
//! tile keeps `a·b` and `a·swap(b)` per element and applies the signs of
//! `aᵀb` or `aᴴb` in the one reduction.
//!
//! Accumulation **association matches the portable kernel** on the
//! `A`-untransposed tile: the C tile is loaded first (β applied on the
//! first `kc` chunk), then per `k` step `a·s[l, j]` is added in, `s[l, j]
//! = α·op(B)[l, j]` formed in scalar as the portable body forms it — the
//! same per-`l` axpy order as [`crate::gemm`]'s `gemm_a_notrans`, with each
//! multiply-add pair contracted into a single rounding. The dot tile sums
//! one partial dot per `ymm` lane (rounding-level reassociation) — a
//! `ymm` register, or a `ymm` half of a `zmm`.
//! In both, an element of `C` is computed the same way whatever tile,
//! width or remainder it falls in (and, for the `A`-untransposed tile,
//! however its contraction is chunked) and however many columns ride with
//! it, so a column of a product does not depend on `n`, and the two
//! widths are bitwise equal. The differential fuzz suite pins the drift.
//!
//! Everything here is `unsafe fn` + raw pointers: callers (the dispatch
//! shims in [`super`]) re-assert the LAPACK shape contracts before any
//! pointer is formed, and `isa()` certifies the CPU features. Miri and
//! TSan are not part of `make check`; the running gates over this
//! `unsafe` are `tests/simd_fuzz.rs` (both element types against the
//! portable tier on every `Trans` pair and tile edge), the width-identity
//! test in [`super`] and the solver's bitwise oracles
//! (`core/tests/{factorize_solve,solve,isa_identity}.rs`).

use crate::gemm::Trans;
use crate::scalar::{Scalar, C64};
use crate::trsm::Diag;
use core::arch::x86_64::*;
use core::mem::{size_of, MaybeUninit};

// Cache blocking of `gemm_an`. A tile streams one to three cache lines of
// `A` per column against a kc×NR strip of `s`: kc=256 keeps the strip at
// 16 KiB (32 complex) at NR = 8; mc=192 holds a 192×256 A block in
// 384 KiB (768 complex) of L2; nc=512 bounds the C working set.
/// Row-block height: a multiple of every tile height (24, 8, 4 and 2).
const MC: usize = 192;
/// Inner-dimension panel depth.
const KC: usize = 256;
/// Column-block width (a multiple of every [`Width::NR`]).
const NC: usize = 512;
/// Inner-dimension depth when `C` is one strip wide (`n ≤ NR`, the
/// solve's products): a tile walking `KC` columns of `A` at once runs `KC`
/// streams `lda` apart, which the prefetchers drop. The chunks carry the
/// accumulators through `C` in `l` order, so the depth moves no bit.
const KC_NARROW: usize = 16;

/// A vector register width: what the tiles are written over, and their
/// blocking loops instantiated under the width's target features
/// (the inherent `gemm` and `solve_rows` of each; every `unsafe fn` here
/// requires them of this CPU).
pub(crate) trait Width {
    /// The register.
    type V: Copy;
    /// `f64` lanes per register.
    const F64S: usize;
    /// Columns of `C` per tile: the width of the `s` strip.
    const NR: usize;
    /// Registers per column of the full real, and of the full complex, tile.
    const MV_REAL: usize;
    const MV_COMPLEX: usize;

    /// Columns of `B` one dot-tile register holds, one per `ymm` half.
    const DOT_COLS: usize;
    /// Registers of `B` columns per dot tile, real and complex.
    const DOT_NV_REAL: usize;
    const DOT_NV_COMPLEX: usize;

    /// # Safety
    /// This width's features, and `F64S` readable `f64`s at `p`.
    unsafe fn load(p: *const f64) -> Self::V;
    /// # Safety
    /// This width's features, and `F64S` writable `f64`s at `p`.
    unsafe fn store(p: *mut f64, v: Self::V);
    /// # Safety
    /// This width's features.
    unsafe fn splat(x: f64) -> Self::V;
    /// `a·b + c` with one rounding.
    /// # Safety
    /// This width's features.
    unsafe fn fmadd(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// # Safety
    /// This width's features.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// # Safety
    /// This width's features.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// `(−v₁, v₀, −v₃, v₂, …)`: `i·v` on interleaved complex elements.
    /// # Safety
    /// This width's features.
    unsafe fn times_i(v: Self::V) -> Self::V;
    /// `(v₁, v₀, v₃, v₂, …)`.
    /// # Safety
    /// This width's features.
    unsafe fn swap(v: Self::V) -> Self::V;
    /// Four `f64`s from each of `DOT_COLS` columns `stride` apart, one
    /// per `ymm` half.
    /// # Safety
    /// This width's features, and four readable `f64`s at each.
    #[inline(always)]
    unsafe fn load_cols(p: *const f64, _stride: usize) -> Self::V {
        // SAFETY: the caller's contract (one column: `F64S` is four).
        unsafe { Self::load(p) }
    }
    /// Four `f64`s at `p` in every `ymm` half.
    /// # Safety
    /// This width's features, and four readable `f64`s at `p`.
    #[inline(always)]
    unsafe fn broadcast4(p: *const f64) -> Self::V {
        // SAFETY: as for `load_cols`.
        unsafe { Self::load(p) }
    }
    /// `ymm` half `h < DOT_COLS`.
    /// # Safety
    /// This width's features.
    unsafe fn half(v: Self::V, h: usize) -> __m256d;
}

/// AVX2 + FMA, 16 `ymm`: 8 accumulators (4 columns × 2) + 2 `A` (+ 2
/// `i·a`) + the broadcasts.
pub(crate) struct Ymm;

impl Width for Ymm {
    type V = __m256d;
    const F64S: usize = 4;
    const NR: usize = 4;
    const MV_REAL: usize = 2;
    const MV_COMPLEX: usize = 2;
    const DOT_COLS: usize = 1;
    const DOT_NV_REAL: usize = 4;
    const DOT_NV_COMPLEX: usize = 2;

    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load(p: *const f64) -> __m256d {
        // SAFETY: the trait's contract: four readable `f64`s at `p`.
        unsafe { _mm256_loadu_pd(p) }
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn store(p: *mut f64, v: __m256d) {
        // SAFETY: the trait's contract: four writable `f64`s at `p`.
        unsafe { _mm256_storeu_pd(p, v) }
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn splat(x: f64) -> __m256d {
        _mm256_set1_pd(x)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn fmadd(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
        _mm256_fmadd_pd(a, b, c)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
        _mm256_mul_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(a, b)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn times_i(v: __m256d) -> __m256d {
        _mm256_xor_pd(_mm256_permute_pd::<0b0101>(v), _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0))
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn swap(v: __m256d) -> __m256d {
        _mm256_permute_pd::<0b0101>(v)
    }
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn half(v: __m256d, _h: usize) -> __m256d {
        v
    }
}

/// AVX-512F, 32 `zmm`. Real: 24 accumulators (8 columns × 3) + 3 `A`, the
/// broadcasts folded into the FMAs. Complex: 16 + 2 `A` + 2 `i·a` + 2
/// broadcasts; a third register of rows would spill.
pub(crate) struct Zmm;

impl Width for Zmm {
    type V = __m512d;
    const F64S: usize = 8;
    const NR: usize = 8;
    const MV_REAL: usize = 3;
    const MV_COMPLEX: usize = 2;
    const DOT_COLS: usize = 2;
    const DOT_NV_REAL: usize = 4;
    const DOT_NV_COMPLEX: usize = 4;

    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(p: *const f64) -> __m512d {
        // SAFETY: the trait's contract: eight readable `f64`s at `p`.
        unsafe { _mm512_loadu_pd(p) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store(p: *mut f64, v: __m512d) {
        // SAFETY: the trait's contract: eight writable `f64`s at `p`.
        unsafe { _mm512_storeu_pd(p, v) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn splat(x: f64) -> __m512d {
        _mm512_set1_pd(x)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn fmadd(a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        _mm512_fmadd_pd(a, b, c)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn mul(a: __m512d, b: __m512d) -> __m512d {
        _mm512_mul_pd(a, b)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn add(a: __m512d, b: __m512d) -> __m512d {
        _mm512_add_pd(a, b)
    }
    /// The sign flip is an integer `xor`: `_mm512_xor_pd` needs AVX-512DQ.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn times_i(v: __m512d) -> __m512d {
        let sign = _mm512_castpd_si512(_mm512_setr_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0));
        let swapped = _mm512_castpd_si512(_mm512_permute_pd::<0b0101_0101>(v));
        _mm512_castsi512_pd(_mm512_xor_si512(swapped, sign))
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn swap(v: __m512d) -> __m512d {
        _mm512_permute_pd::<0b0101_0101>(v)
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load_cols(p: *const f64, stride: usize) -> __m512d {
        // SAFETY: the trait's contract: four readable `f64`s at `p` and
        // at `p + stride`.
        unsafe { _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(_mm256_loadu_pd(p)), _mm256_loadu_pd(p.add(stride))) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn broadcast4(p: *const f64) -> __m512d {
        // SAFETY: the trait's contract: four readable `f64`s at `p`.
        unsafe { _mm512_broadcast_f64x4(_mm256_loadu_pd(p)) }
    }
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn half(v: __m512d, h: usize) -> __m256d {
        if h == 0 {
            _mm512_castpd512_pd256(v)
        } else {
            _mm512_extractf64x4_pd::<1>(v)
        }
    }
}

/// Ymm's entry points, each instantiated under its features.
impl Ymm {
    /// [`gemm_at`] (`op(A)·B` with `op(A) = Aᴴ` under `ConjTrans`, else
    /// `Aᵀ`) when `a_trans`, else [`gemm_an`] (`A·op(B)`, `op = trans`).
    ///
    /// # Safety
    /// This width's features on this CPU, and the contract of the loop.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gemm<E: Tiled>(
        a_trans: bool,
        trans: Trans,
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
        // SAFETY: the caller's contract, under this width's features.
        unsafe {
            if a_trans {
                gemm_at::<Self, E>(trans == Trans::ConjTrans, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
            } else {
                gemm_an::<Self, E>(m, n, k, alpha, a, lda, b, trans, ldb, beta, c, ldc)
            }
        }
    }

    /// [`crate::trsm::solve_rows`] under this width's features.
    ///
    /// # Safety
    /// This width's features on this CPU.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn solve_rows<T: Scalar, const N: usize>(
        lower: bool,
        trans: Trans,
        diag: Diag,
        t: &[T],
        ldt: usize,
        rows: &mut [[T; N]],
    ) {
        crate::trsm::solve_rows(lower, trans, diag, t, ldt, rows)
    }
}

/// Zmm's entry points, each instantiated under its features.
impl Zmm {
    /// [`gemm_at`] (`op(A)·B` with `op(A) = Aᴴ` under `ConjTrans`, else
    /// `Aᵀ`) when `a_trans`, else [`gemm_an`] (`A·op(B)`, `op = trans`).
    ///
    /// # Safety
    /// This width's features on this CPU, and the contract of the loop.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn gemm<E: Tiled>(
        a_trans: bool,
        trans: Trans,
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
        // SAFETY: the caller's contract, under this width's features.
        unsafe {
            if a_trans {
                gemm_at::<Self, E>(trans == Trans::ConjTrans, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
            } else {
                gemm_an::<Self, E>(m, n, k, alpha, a, lda, b, trans, ldb, beta, c, ldc)
            }
        }
    }

    /// [`crate::trsm::solve_rows`] under this width's features.
    ///
    /// # Safety
    /// This width's features on this CPU.
    #[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn solve_rows<T: Scalar, const N: usize>(
        lower: bool,
        trans: Trans,
        diag: Diag,
        t: &[T],
        ldt: usize,
        rows: &mut [[T; N]],
    ) {
        crate::trsm::solve_rows(lower, trans, diag, t, ldt, rows)
    }
}

/// An element type with register tiles: what the two blocking loops
/// ([`gemm_an`], [`gemm_at`]) and the `A`-untransposed tile ([`tile`])
/// are written over.
pub(crate) trait Tiled: Scalar {
    /// Elements per `ymm`: the contraction length below which the dot
    /// tile's vector loop never runs and only its scalar tail would.
    const LANES: usize;
    /// Fewest rows the `A`-untransposed tile takes: two `ymm`.
    const MR: usize = 2 * Self::LANES;

    /// `x + a·s` as the `A`-untransposed tile rounds it, one element.
    fn madd(a: Self, s: Self, x: Self) -> Self;

    /// `acc + a·(*s)` on every element of `acc`: [`Self::madd`], vector
    /// form.
    ///
    /// # Safety
    /// `W`'s target features, and `s` readable.
    unsafe fn fma<W: Width>(a: W::V, s: *const Self, acc: W::V) -> W::V;

    /// `v·β` on every element of `v`, as the portable `*v *= beta` rounds
    /// it.
    ///
    /// # Safety
    /// `W`'s target features.
    unsafe fn times<W: Width>(v: W::V, beta: Self) -> W::V;

    /// One element of a dot tile from its `ymm` accumulators (`cross` only
    /// for complex): the lane reduction, the `kk − main` tail rows of the
    /// columns at `a` and `b`, then `α·dot + β·c` — β = 0 without reading
    /// `c`.
    ///
    /// # Safety
    /// AVX2, and `kk` readable rows at `a` and at `b`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn dot_finish(
        conj_a: bool,
        same: __m256d,
        cross: __m256d,
        a: *const Self,
        b: *const Self,
        main: usize,
        kk: usize,
        alpha: Self,
        beta: Self,
        c: *mut Self,
    );
}

/// `C ← α·A·op(B) + β·C`, `A` untransposed `m×k` column-major; `op(B)[l, j]`
/// is `b[j*ldb + l]` under `NoTrans` (`B` stored `k×n`), else `b[l*ldb + j]`
/// (`B` stored `n×k` — the `L_{i,k}·L_{j,k}ᵀ` outer product), conjugated
/// under `ConjTrans`. The one blocking loop of both widths: inlined into
/// [`Ymm::gemm`] and [`Zmm::gemm`], which enable the width's features.
///
/// # Safety
/// `W`'s target features enabled in the caller (certified by `isa()`)
/// and the usual LAPACK shape contracts: `lda ≥ m`, `ldc ≥ m`, buffers
/// sized for the described shapes (asserted by the dispatching `gemm`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gemm_an<W: Width, E: Tiled>(
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
    // PANIC: never at run time — a `const` block, checked when a width is
    // instantiated: full tiles are two or three registers tall (the arms
    // of the match below), and the strip holds the widest `NR`.
    const { assert!(matches!(W::MV_REAL, 2 | 3) && matches!(W::MV_COMPLEX, 2 | 3) && W::NR <= Zmm::NR) };
    // Rows per register, and registers per full tile.
    let lanes = W::F64S * size_of::<f64>() / size_of::<E>();
    let mv = if E::IS_COMPLEX { W::MV_COMPLEX } else { W::MV_REAL };
    // One strip of `s = α·op(B)`, formed in scalar as the portable body
    // forms it and shared by every row tile under the strip; sized for
    // the widest strip.
    let mut strip = [MaybeUninit::<E>::uninit(); KC * Zmm::NR];
    let s = strip.as_mut_ptr().cast::<E>();
    let kc = if n <= W::NR { KC_NARROW } else { KC };
    let mut jc = 0;
    while jc < n {
        let ncb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kcb = kc.min(k - pc);
            let first = pc == 0;
            let mut ic = 0;
            while ic < m {
                let mcb = MC.min(m - ic);
                let mut jr = 0;
                while jr < ncb {
                    let nrb = W::NR.min(ncb - jr);
                    let j0 = jc + jr;
                    for ll in 0..kcb {
                        for jj in 0..nrb {
                            // SAFETY: ll < kcb ≤ KC and jj < nrb ≤ W::NR ≤
                            // Zmm::NR stay inside `strip`; (pc+ll, j0+jj) <
                            // (k, n) is inside the caller's contract for `b`.
                            unsafe {
                                let (l, j) = (pc + ll, j0 + jj);
                                let blj = match transb {
                                    Trans::NoTrans => *b.add(j * ldb + l),
                                    t => t.apply(*b.add(l * ldb + j)),
                                };
                                *s.add(ll * W::NR + jj) = alpha * blj;
                            }
                        }
                    }
                    // Full tiles, then one-register tiles, then scalar rows.
                    let mut ir = 0;
                    while ir < mcb {
                        let rows = mcb - ir;
                        // SAFETY: the tile's rows (ic+ir .. +rows taken) ≤ m
                        // and columns (j0 .. +nrb) ≤ n stay inside the
                        // caller's lda/ldc shape contracts; kcb rows × nrb
                        // columns of `s` were written just above.
                        unsafe {
                            let (at, ct) = (a.add(pc * lda + ic + ir), c.add(j0 * ldc + ic + ir));
                            ir += if rows >= mv * lanes {
                                match mv {
                                    3 => tile_nj::<W, E, 3>(nrb, kcb, at, lda, s, first, beta, ct, ldc),
                                    _ => tile_nj::<W, E, 2>(nrb, kcb, at, lda, s, first, beta, ct, ldc),
                                }
                                mv * lanes
                            } else if rows >= lanes {
                                tile_nj::<W, E, 1>(nrb, kcb, at, lda, s, first, beta, ct, ldc);
                                lanes
                            } else {
                                tile_edge::<W, E>(rows, nrb, kcb, at, lda, s, first, beta, ct, ldc);
                                rows
                            };
                        }
                    }
                    jr += W::NR;
                }
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// [`tile`] at `nj ∈ 1..=W::NR` columns.
///
/// # Safety
/// The contract of [`tile`] at `NJ = nj`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile_nj<W: Width, E: Tiled, const MV: usize>(
    nj: usize,
    kk: usize,
    a: *const E,
    lda: usize,
    s: *const E,
    first: bool,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    // SAFETY: the caller's contract, passed through.
    unsafe {
        match nj {
            8 => tile::<W, E, MV, 8>(kk, a, lda, s, first, beta, c, ldc),
            7 => tile::<W, E, MV, 7>(kk, a, lda, s, first, beta, c, ldc),
            6 => tile::<W, E, MV, 6>(kk, a, lda, s, first, beta, c, ldc),
            5 => tile::<W, E, MV, 5>(kk, a, lda, s, first, beta, c, ldc),
            4 => tile::<W, E, MV, 4>(kk, a, lda, s, first, beta, c, ldc),
            3 => tile::<W, E, MV, 3>(kk, a, lda, s, first, beta, c, ldc),
            2 => tile::<W, E, MV, 2>(kk, a, lda, s, first, beta, c, ldc),
            _ => tile::<W, E, MV, 1>(kk, a, lda, s, first, beta, c, ldc),
        }
    }
}

/// The `MV`-register × `NJ`-column tile: `C_tile` lives in `MV·NJ`
/// accumulators across the whole `kk` loop; β is applied when `first`
/// (chunk `pc == 0`). Every column runs the same per-`l` [`Tiled::fma`]
/// chain whatever `MV`, `NJ` and the width are.
///
/// # Safety
/// `W`'s target features, `MV` registers of rows × `NJ` columns of C at
/// `(c, ldc)` and of rows of `kk` columns of A at `(a, lda)`, and `kk`
/// rows of the strip `s` (row stride `W::NR`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile<W: Width, E: Tiled, const MV: usize, const NJ: usize>(
    kk: usize,
    a: *const E,
    lda: usize,
    s: *const E,
    first: bool,
    beta: E,
    c: *mut E,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees the rows and columns of C,
    // A and s named above; `C64` is `#[repr(C)] {re, im}`, so a register
    // of rows is `W::F64S` contiguous `f64`s.
    unsafe {
        let mut acc = [[W::splat(0.0); MV]; NJ];
        for (jj, col) in acc.iter_mut().enumerate() {
            // β = 0 leaves the zeros: it must not read (possibly garbage) C.
            if !first || beta != E::zero() {
                let cj = c.add(jj * ldc).cast::<f64>();
                for (v, x) in col.iter_mut().enumerate() {
                    *x = W::load(cj.add(v * W::F64S));
                    if first && beta != E::one() {
                        *x = E::times::<W>(*x, beta);
                    }
                }
            }
        }
        for ll in 0..kk {
            let al = a.add(ll * lda).cast::<f64>();
            let mut av = [W::splat(0.0); MV];
            for (v, x) in av.iter_mut().enumerate() {
                *x = W::load(al.add(v * W::F64S));
            }
            for (jj, col) in acc.iter_mut().enumerate() {
                let sj = s.add(ll * W::NR + jj);
                for (x, &a_v) in col.iter_mut().zip(&av) {
                    *x = E::fma::<W>(a_v, sj, *x);
                }
            }
        }
        for (jj, col) in acc.iter().enumerate() {
            let cj = c.add(jj * ldc).cast::<f64>();
            for (v, &x) in col.iter().enumerate() {
                W::store(cj.add(v * W::F64S), x);
            }
        }
    }
}

/// Row-remainder tile (`mt` rows, fewer than one register, under a column
/// strip of `nt ≤ W::NR`): scalar loops with the same association as the
/// register tile ([`Tiled::madd`]; `mul_add` contracts to a hardware FMA
/// under the caller's features).
///
/// # Safety
/// FMA enabled in the caller, `mt` rows × `nt` cols of C at `(c, ldc)`,
/// `kk` columns of A at `(a, lda)`, and `kk` rows of the strip `s` (row
/// stride `W::NR`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile_edge<W: Width, E: Tiled>(
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
                    x = E::madd(*a.add(ll * lda + ii), *s.add(ll * W::NR + jj), x);
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
/// through once. The one blocking loop of both widths: inlined into
/// [`Ymm::gemm`] and [`Zmm::gemm`], which enable the width's features.
///
/// # Safety
/// `W`'s target features (certified by `isa()`), `lda ≥ k`, `ldb ≥ k`,
/// `ldc ≥ m`, and buffers sized for the described shapes (asserted by
/// the dispatching `gemm`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn gemm_at<W: Width, E: Tiled>(
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
    let nv_max = if E::IS_COMPLEX { W::DOT_NV_COMPLEX } else { W::DOT_NV_REAL };
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        let beta = if pc == 0 { beta } else { E::one() };
        let mut i = 0;
        while i < m {
            // Full tiles of 3 real / 2 complex rows (12 / 16 accumulators
            // of the register file at `nv_max`), then one row at a time:
            // the same per-element arithmetic.
            let mr = if E::IS_COMPLEX { 2 } else { 3 };
            let mi = if m - i >= mr { mr } else { 1 };
            // The first column tile streams this row tile's `A` chunk (the
            // others re-read it from L1) and prefetches the next one's:
            // at most `mi` columns from `i + mi`, the chunk's rows.
            let mut next = (a, mi.min(m - i - mi));
            let mut j = 0;
            while j < n {
                // Whole registers of columns; a last odd column of a `zmm`
                // tile goes to the `ymm` tile, the same arithmetic.
                let nv = nv_max.min((n - j) / W::DOT_COLS);
                // SAFETY: rows pc..pc+kcb ≤ k of columns i..i+mi ≤ m of
                // A and j..j+nj ≤ n of B, and the mi×nj block of C at
                // (i, j), stay inside the caller's shape contracts; so do
                // the next.1 columns from i + mi of the prefetch. `W`'s
                // features include the `ymm` tile's.
                unsafe {
                    let (at, bt, ct) = (a.add(i * lda + pc), b.add(j * ldb + pc), c.add(j * ldc + i));
                    next.0 = a.add((i + mi) * lda + pc);
                    j += if nv > 0 {
                        dot_tile::<W, E>(mi, nv, conj_a, kcb, at, lda, bt, ldb, alpha, beta, ct, ldc, next);
                        nv * W::DOT_COLS
                    } else {
                        dot_tile::<Ymm, E>(mi, 1, conj_a, kcb, at, lda, bt, ldb, alpha, beta, ct, ldc, next);
                        1
                    };
                }
                next.1 = 0;
            }
            i += mi;
        }
        pc += kcb;
    }
}

/// [`tile_dot`] at `mi` (1, or 3 real / 2 complex) columns of `A` and
/// `nv ∈ 1..=4` registers of `B` columns.
///
/// # Safety
/// The contract of [`tile_dot`] at `MI = mi`, `NV = nv`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn dot_tile<W: Width, E: Tiled>(
    mi: usize,
    nv: usize,
    conj_a: bool,
    kk: usize,
    a: *const E,
    lda: usize,
    b: *const E,
    ldb: usize,
    alpha: E,
    beta: E,
    c: *mut E,
    ldc: usize,
    next: (*const E, usize),
) {
    // SAFETY: the caller's contract, passed through. `IS_COMPLEX` is
    // constant, so each element type keeps the arms of its own height.
    unsafe {
        match (mi, E::IS_COMPLEX, nv) {
            (1, _, 4) => tile_dot::<W, E, 1, 4>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (1, _, 3) => tile_dot::<W, E, 1, 3>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (1, _, 2) => tile_dot::<W, E, 1, 2>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (1, _, _) => tile_dot::<W, E, 1, 1>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, true, 4) => tile_dot::<W, E, 2, 4>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, true, 3) => tile_dot::<W, E, 2, 3>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, true, 2) => tile_dot::<W, E, 2, 2>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, true, _) => tile_dot::<W, E, 2, 1>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, false, 4) => tile_dot::<W, E, 3, 4>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, false, 3) => tile_dot::<W, E, 3, 3>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, false, 2) => tile_dot::<W, E, 3, 2>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
            (_, false, _) => tile_dot::<W, E, 3, 1>(conj_a, kk, a, lda, b, ldb, alpha, beta, c, ldc, next),
        }
    }
}

/// The `MI`-column × `NV`-register dot tile: `C[i, j] ← α·(op(A)[i, :]·
/// B[:, j]) + β·C[i, j]` over `kk` rows, for `MI` columns of `A` and
/// `NV·W::DOT_COLS` of `B`. Each element of `C` owns one `ymm` accumulator
/// (two for complex: `a·b` and `a·swap(b)`) — a `ymm`, or half a `zmm`
/// holding two columns of `B` against `A` broadcast to both halves — so it
/// takes the same FMAs in the same order at either width and in any tile;
/// [`Tiled::dot_finish`] reduces it.
///
/// # Safety
/// `W`'s target features, `kk` rows of `MI` columns of A at `(a, lda)` and
/// of `NV·W::DOT_COLS` columns of B at `(b, ldb)`, that many columns of
/// `MI` rows of C at `(c, ldc)`, and the prefetch contract of `next`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile_dot<W: Width, E: Tiled, const MI: usize, const NV: usize>(
    conj_a: bool,
    kk: usize,
    a: *const E,
    lda: usize,
    b: *const E,
    ldb: usize,
    alpha: E,
    beta: E,
    c: *mut E,
    ldc: usize,
    next: (*const E, usize),
) {
    // SAFETY: (whole body) the caller's contract; a `ymm` of rows is four
    // contiguous `f64`s (two `C64`, `#[repr(C)] {re, im}`).
    unsafe {
        let stride = ldb * size_of::<E>() / size_of::<f64>();
        let mut same = [[W::splat(0.0); NV]; MI];
        let mut cross = [[W::splat(0.0); NV]; MI];
        let main = kk - kk % E::LANES;
        let mut l = 0;
        while l < main {
            prefetch(next, lda, l);
            let mut bv = [[W::splat(0.0); 2]; NV];
            for (v, [bj, bs]) in bv.iter_mut().enumerate() {
                *bj = W::load_cols(b.add(v * W::DOT_COLS * ldb + l).cast(), stride);
                if E::IS_COMPLEX {
                    *bs = W::swap(*bj);
                }
            }
            for (ii, (row_s, row_x)) in same.iter_mut().zip(cross.iter_mut()).enumerate() {
                let av = W::broadcast4(a.add(ii * lda + l).cast());
                for ((s, x), [bj, bs]) in row_s.iter_mut().zip(row_x.iter_mut()).zip(&bv) {
                    *s = W::fmadd(av, *bj, *s);
                    if E::IS_COMPLEX {
                        *x = W::fmadd(av, *bs, *x);
                    }
                }
            }
            l += E::LANES;
        }
        for (ii, (row_s, row_x)) in same.iter().zip(&cross).enumerate() {
            for (v, (&s, &x)) in row_s.iter().zip(row_x).enumerate() {
                for h in 0..W::DOT_COLS {
                    let jj = v * W::DOT_COLS + h;
                    let (s, x) = (W::half(s, h), W::half(x, h));
                    E::dot_finish(conj_a, s, x, a.add(ii * lda), b.add(jj * ldb), main, kk, alpha, beta, c.add(jj * ldc + ii));
                }
            }
        }
    }
}

/// Prefetch row `l` of each of the `next.1` columns at `next.0` (stride
/// `lda`): a dot tile fetching the next row tile's `A` while it runs.
///
/// # Safety
/// `next.1` columns of at least `l + 1` rows at `(next.0, lda)`.
#[inline(always)]
unsafe fn prefetch<E>(next: (*const E, usize), lda: usize, l: usize) {
    for jj in 0..next.1 {
        // SAFETY: the caller's contract: row l of column jj is inside A.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(next.0.add(jj * lda + l).cast()) };
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

    #[inline(always)]
    fn madd(a: f64, s: f64, x: f64) -> f64 {
        f64::mul_add(a, s, x)
    }

    #[inline(always)]
    unsafe fn fma<W: Width>(a: W::V, s: *const f64, acc: W::V) -> W::V {
        // SAFETY: the caller's contract, passed through.
        unsafe { W::fmadd(a, W::splat(*s), acc) }
    }

    #[inline(always)]
    unsafe fn times<W: Width>(v: W::V, beta: f64) -> W::V {
        // SAFETY: the caller's contract, passed through.
        unsafe { W::mul(v, W::splat(beta)) }
    }

    /// Four interleaved partial dots (one per lane, one FMA per four
    /// rows), reduced as `(s₀+s₂)+(s₁+s₃)`, then the `kk mod 4` tail by
    /// scalar FMA.
    #[inline(always)]
    unsafe fn dot_finish(
        _conj_a: bool,
        same: __m256d,
        _cross: __m256d,
        a: *const f64,
        b: *const f64,
        main: usize,
        kk: usize,
        alpha: f64,
        beta: f64,
        c: *mut f64,
    ) {
        // SAFETY: the caller's contract: kk rows at `a` and `b`, and `c`.
        unsafe {
            let (even, odd) = halves(same);
            let mut dot = even + odd;
            for l in main..kk {
                dot = f64::mul_add(*a.add(l), *b.add(l), dot);
            }
            *c = if beta == 0.0 { alpha * dot } else { f64::mul_add(alpha, dot, beta * *c) };
        }
    }
}

// ---------------------------------------------------------------------
// C64 tiles
// ---------------------------------------------------------------------

impl Tiled for C64 {
    const LANES: usize = 2;

    #[inline(always)]
    fn madd(a: C64, s: C64, x: C64) -> C64 {
        C64::new(
            f64::mul_add(-a.im, s.im, f64::mul_add(a.re, s.re, x.re)),
            f64::mul_add(a.re, s.im, f64::mul_add(a.im, s.re, x.im)),
        )
    }

    /// `a·s.re` then `(i·a)·s.im`, two FMAs into the one accumulator; the
    /// rotation `i·a` is the same for every column of a strip, so after
    /// inlining a tile computes it once per `A` register.
    #[inline(always)]
    unsafe fn fma<W: Width>(a: W::V, s: *const C64, acc: W::V) -> W::V {
        // SAFETY: the caller's contract, passed through.
        unsafe {
            let (sr, si) = (W::splat((*s).re), W::splat((*s).im));
            W::fmadd(W::times_i(a), si, W::fmadd(a, sr, acc))
        }
    }

    #[inline(always)]
    unsafe fn times<W: Width>(v: W::V, beta: C64) -> W::V {
        // SAFETY: the caller's contract, passed through.
        unsafe { W::add(W::mul(v, W::splat(beta.re)), W::mul(W::times_i(v), W::splat(beta.im))) }
    }

    /// `same = a·b` = `(Σ re·re, Σ im·im)` and `cross = a·swap(b)` =
    /// `(Σ re·im, Σ im·re)` per lane pair, reduced once: `aᵀb = (rr − ii,
    /// ri + ir)`, `aᴴb = (rr + ii, ri − ir)`; then the odd last row in
    /// portable arithmetic.
    #[inline(always)]
    unsafe fn dot_finish(
        conj_a: bool,
        same: __m256d,
        cross: __m256d,
        a: *const C64,
        b: *const C64,
        main: usize,
        kk: usize,
        alpha: C64,
        beta: C64,
        c: *mut C64,
    ) {
        // SAFETY: the caller's contract: kk rows at `a` and `b`, and `c`.
        unsafe {
            let ((rr, im_im), (ri, ir)) = (halves(same), halves(cross));
            let mut dot = if conj_a { C64::new(rr + im_im, ri - ir) } else { C64::new(rr - im_im, ri + ir) };
            if main < kk {
                let a_l = *a.add(main);
                dot += if conj_a { a_l.conj() } else { a_l } * *b.add(main);
            }
            *c = if beta == C64::zero() { alpha * dot } else { alpha * dot + beta * *c };
        }
    }
}
