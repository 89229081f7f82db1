//! AVX2 + FMA `f64` microkernels.
//!
//! Two register tiles, one per storage order of `A`:
//!
//! * **`A` untransposed** ([`gemm_f64`]): an 8×`NJ` tile of `C` (two `ymm`
//!   rows × `NJ ≤ 4` columns) is held in registers while the `k` loop
//!   streams columns of `A` (contiguous 8-element loads) and broadcasts
//!   elements of `op(B)`. `op(B)` is read through [`BLayout`], so the same
//!   tile covers the `NoTrans×Trans` outer product of the supernodal
//!   update *and* the `NoTrans×NoTrans` product of the forward solve —
//!   only the broadcast address differs. The tile is const-generic over
//!   its column count, so the `n mod 4` remainder (and all of `n < 4`: the
//!   single-RHS solve) vectorizes along `m` like the full tile;
//!   [`tile_edge`] keeps only the ≤ 7-row remainder.
//! * **`A` transposed, `B` untransposed** ([`gemm_at_f64`]): the
//!   contraction runs down contiguous columns of both operands, so a
//!   3×`NJ` tile of `C` is `3·NJ` `ymm` dot-product accumulators reduced
//!   once at the end of a `KC` chunk — the backward solve's product, and at
//!   one right-hand side the backward solve itself.
//!
//! Accumulation **association matches the portable kernel** on the
//! `A`-untransposed tile: the C tile is loaded first (β applied on the
//! first `kc` chunk), then one FMA per `k` step — the same per-`l` axpy
//! order as [`crate::gemm`]'s `gemm_a_notrans`, with the multiply-add
//! pair contracted into a single rounding. The dot tile sums four
//! interleaved partial dots per element (rounding-level reassociation).
//! In both, an element of `C` is computed the same way whatever tile or
//! remainder it falls in and however many columns ride with it, so a
//! column of a product does not depend on `n`. The differential fuzz
//! suite pins the drift.
//!
//! Everything here is `unsafe fn` + raw pointers: callers (the dispatch
//! shims in [`super`]) re-assert the LAPACK shape contracts before any
//! pointer is formed, and `isa()` certifies the CPU features.

use super::{MR, NR};
use core::arch::x86_64::*;

// Cache blocking of `gemm_f64`. 8×kc A-tile stream (one cache line per
// column) against kc×4 B columns: kc=256 keeps the active B block at
// 8 KiB; mc=128 holds a 128×256 f64 A block in 256 KiB of L2; nc=512
// bounds the C working set.
/// Row-block height (a multiple of [`MR`]).
const MC: usize = 128;
/// Inner-dimension panel depth.
const KC: usize = 256;
/// Column-block width (a multiple of [`NR`]).
const NC: usize = 512;

/// How `op(B)[l, j]` maps onto the `b` buffer.
#[derive(Copy, Clone, Debug)]
pub(crate) enum BLayout {
    /// `op(B)[l, j] = b[j*ldb + l]` — `B` stored `k×n` column-major
    /// (the packed-panel case has `ldb == k`).
    NoTrans {
        /// Leading dimension of `b`.
        ldb: usize,
    },
    /// `op(B)[l, j] = b[l*ldb + j]` — `B` stored `n×k` column-major,
    /// used as its transpose (the `L_{i,k}·L_{j,k}ᵀ` outer product).
    Trans {
        /// Leading dimension of `b`.
        ldb: usize,
    },
}

impl BLayout {
    /// Read `op(B)[l, j]`.
    ///
    /// # Safety
    /// `(l, j)` must satisfy the shape contract the caller asserted for
    /// `b` under this layout.
    #[inline(always)]
    unsafe fn at(self, b: *const f64, l: usize, j: usize) -> f64 {
        match self {
            // SAFETY: caller contract (doc above).
            BLayout::NoTrans { ldb } => unsafe { *b.add(j * ldb + l) },
            // SAFETY: caller contract (doc above).
            BLayout::Trans { ldb } => unsafe { *b.add(l * ldb + j) },
        }
    }
}

/// `C ← α·A·op(B) + β·C`, `A` untransposed `m×k` column-major.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`), and the usual LAPACK shape
/// contracts: `lda ≥ m`, `ldc ≥ m`, buffers sized for the described
/// shapes (asserted by the dispatching `gemm`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
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
                let m_main = mcb - mcb % MR;
                let mut jr = 0;
                while jr < ncb {
                    let nrb = NR.min(ncb - jr);
                    let j0 = jc + jr;
                    let mut ir = 0;
                    while ir < m_main {
                        // SAFETY: rows (ic+ir .. +MR) ≤ m and columns
                        // (j0 .. +nrb) ≤ n stay inside the caller's
                        // lda/ldc shape contracts.
                        unsafe {
                            let at = a.add(pc * lda + ic + ir);
                            let ct = c.add(j0 * ldc + ic + ir);
                            match nrb {
                                4 => tile_8xn::<4>(kcb, at, lda, b, bl, pc, j0, alpha, first, beta, ct, ldc),
                                3 => tile_8xn::<3>(kcb, at, lda, b, bl, pc, j0, alpha, first, beta, ct, ldc),
                                2 => tile_8xn::<2>(kcb, at, lda, b, bl, pc, j0, alpha, first, beta, ct, ldc),
                                _ => tile_8xn::<1>(kcb, at, lda, b, bl, pc, j0, alpha, first, beta, ct, ldc),
                            }
                        }
                        ir += MR;
                    }
                    if mcb > m_main {
                        let it0 = ic + m_main;
                        // SAFETY: the ≤7-row remainder of the same
                        // columns stays inside the same shape contracts.
                        unsafe {
                            tile_edge(
                                mcb - m_main,
                                nrb,
                                kcb,
                                a.add(pc * lda + it0),
                                lda,
                                b,
                                bl,
                                pc,
                                j0,
                                alpha,
                                first,
                                beta,
                                c.add(j0 * ldc + it0),
                                ldc,
                            );
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

/// The 8×`NJ` register tile (`NJ` ∈ 1..=4): `C_tile` lives in `2·NJ`
/// `ymm` accumulators across the whole `kk` loop; β is applied when
/// `first` (chunk `pc == 0`). Every column runs the same per-`l` FMA
/// chain whatever `NJ` is.
///
/// # Safety
/// Caller guarantees AVX2+FMA, 8 rows × `NJ` columns of C at `(c, ldc)`,
/// `kk` columns of A at `(a, lda)`, and op(B) coverage of rows
/// `l0..l0+kk` × cols `j0..j0+NJ`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_8xn<const NJ: usize>(
    kk: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    l0: usize,
    j0: usize,
    alpha: f64,
    first: bool,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees 8 rows and NJ columns of C
    // at (c, ldc), kk columns of A at (a, lda), and op(B) coverage of
    // rows l0..l0+kk × cols j0..j0+NJ.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; NJ];
        for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
            let cj = c.add(jj * ldc);
            if first {
                if beta == 0.0 {
                    // leave zeros: β=0 must not read (possibly garbage) C
                } else if beta == 1.0 {
                    *lo = _mm256_loadu_pd(cj);
                    *hi = _mm256_loadu_pd(cj.add(4));
                } else {
                    let vb = _mm256_set1_pd(beta);
                    *lo = _mm256_mul_pd(_mm256_loadu_pd(cj), vb);
                    *hi = _mm256_mul_pd(_mm256_loadu_pd(cj.add(4)), vb);
                }
            } else {
                *lo = _mm256_loadu_pd(cj);
                *hi = _mm256_loadu_pd(cj.add(4));
            }
        }
        for ll in 0..kk {
            let al = a.add(ll * lda);
            let a0 = _mm256_loadu_pd(al);
            let a1 = _mm256_loadu_pd(al.add(4));
            for (jj, [lo, hi]) in acc.iter_mut().enumerate() {
                let s = alpha * bl.at(b, l0 + ll, j0 + jj);
                let vs = _mm256_set1_pd(s);
                *lo = _mm256_fmadd_pd(a0, vs, *lo);
                *hi = _mm256_fmadd_pd(a1, vs, *hi);
            }
        }
        for (jj, &[lo, hi]) in acc.iter().enumerate() {
            let cj = c.add(jj * ldc);
            _mm256_storeu_pd(cj, lo);
            _mm256_storeu_pd(cj.add(4), hi);
        }
    }
}

/// Row-remainder tile (`mt ≤ 7` rows under a column strip of `nt ≤ 4`):
/// scalar loops with the same association as [`tile_8xn`] (`mul_add`
/// contracts to a hardware FMA under the enabled feature).
///
/// # Safety
/// Caller guarantees AVX2+FMA, `mt` rows × `nt` cols of C at `(c, ldc)`,
/// `kk` columns of A at `(a, lda)`, and the matching op(B) region.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_edge(
    mt: usize,
    nt: usize,
    kk: usize,
    a: *const f64,
    lda: usize,
    b: *const f64,
    bl: BLayout,
    l0: usize,
    j0: usize,
    alpha: f64,
    first: bool,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    // SAFETY: (whole body) caller guarantees mt rows × nt cols of C,
    // kk columns of A, and the matching op(B) region.
    unsafe {
        for jj in 0..nt {
            let cj = c.add(jj * ldc);
            for ii in 0..mt {
                let cij = cj.add(ii);
                let mut x = if first {
                    if beta == 0.0 {
                        0.0
                    } else {
                        beta * *cij
                    }
                } else {
                    *cij
                };
                for ll in 0..kk {
                    let s = alpha * bl.at(b, l0 + ll, j0 + jj);
                    x = f64::mul_add(*a.add(ll * lda + ii), s, x);
                }
                *cij = x;
            }
        }
    }
}

/// `C ← α·Aᵀ·B + β·C` with `A` stored `k×m` and `B` stored `k×n`, both
/// column-major: every `C[i, j]` is a dot product down two contiguous
/// columns. The contraction is cut into [`KC`] chunks (β on the first,
/// accumulation after) so the `B` chunk a row-triple of tiles sweeps
/// stays cache-resident while `A` streams through once.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`), `lda ≥ k`, `ldb ≥ k`,
/// `ldc ≥ m`, and buffers sized for the described shapes (asserted by
/// the dispatching `gemm`).
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn gemm_at_f64(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: *const f64,
    lda: usize,
    b: *const f64,
    ldb: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    let mut pc = 0;
    while pc < k {
        let kcb = KC.min(k - pc);
        let beta = if pc == 0 { beta } else { 1.0 };
        let mut i = 0;
        while i < m {
            // Row remainders (m mod 3) go one row at a time: the same
            // per-element arithmetic as the full tile.
            let mi = if m - i >= DOT_MR { DOT_MR } else { 1 };
            let mut j = 0;
            while j < n {
                let nj = NR.min(n - j);
                // SAFETY: rows pc..pc+kcb ≤ k of columns i..i+mi ≤ m of
                // A and j..j+nj ≤ n of B, and the mi×nj block of C at
                // (i, j), stay inside the caller's shape contracts.
                unsafe {
                    let (at, bt) = (a.add(i * lda + pc), b.add(j * ldb + pc));
                    let ct = c.add(j * ldc + i);
                    match (mi, nj) {
                        (DOT_MR, 4) => tile_dot::<DOT_MR, 4>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (DOT_MR, 3) => tile_dot::<DOT_MR, 3>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (DOT_MR, 2) => tile_dot::<DOT_MR, 2>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (DOT_MR, _) => tile_dot::<DOT_MR, 1>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (_, 4) => tile_dot::<1, 4>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (_, 3) => tile_dot::<1, 3>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (_, 2) => tile_dot::<1, 2>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                        (_, _) => tile_dot::<1, 1>(kcb, at, lda, bt, ldb, alpha, beta, ct, ldc),
                    }
                }
                j += nj;
            }
            i += mi;
        }
        pc += kcb;
    }
}

/// Rows of `C` per dot tile: 3 columns of `A` held in `ymm` against up to
/// four columns of `B` — 12 accumulators + 3 + 1 fill the register file.
const DOT_MR: usize = 3;

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
                let pair = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
                let mut dot = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
                for l in main..kk {
                    dot = f64::mul_add(*a.add(ii * lda + l), *b.add(jj * ldb + l), dot);
                }
                let cij = c.add(jj * ldc + ii);
                *cij = if beta == 0.0 { alpha * dot } else { f64::mul_add(alpha, dot, beta * *cij) };
            }
        }
    }
}
