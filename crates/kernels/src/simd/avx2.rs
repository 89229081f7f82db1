//! AVX2 + FMA `f64` microkernels.
//!
//! One register-tiled GEMM kernel serves every dispatched entry point:
//! an 8×4 tile of `C` (two `ymm` rows × four columns = 8 accumulator
//! registers) is held in registers while the `k` loop streams columns of
//! `A` (contiguous 8-element loads — `A` is column-major and
//! untransposed) and broadcasts elements of `op(B)`. `op(B)` is read
//! through [`BLayout`], so the same kernel covers the `NoTrans×Trans`
//! outer product of the supernodal update *and* the `NoTrans×NoTrans`
//! packed-panel product — only the broadcast address differs.
//!
//! Accumulation **association matches the portable kernel**: the C tile
//! is loaded first (β applied on the first `kc` chunk), then one FMA per
//! `k` step — the same per-`l` axpy order as
//! [`crate::gemm`]'s `gemm_a_notrans`, with the multiply-add pair
//! contracted into a single rounding. The differential fuzz suite pins
//! the resulting drift.
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
                    if nrb == NR {
                        let mut ir = 0;
                        while ir < m_main {
                            // SAFETY: (ic+ir .. +MR) ≤ m rows and
                            // (j0 .. +NR) ≤ n cols stay inside the
                            // caller's lda/ldc shape contracts.
                            unsafe {
                                tile_8x4(
                                    kcb,
                                    a.add(pc * lda + ic + ir),
                                    lda,
                                    b,
                                    bl,
                                    pc,
                                    j0,
                                    alpha,
                                    first,
                                    beta,
                                    c.add(j0 * ldc + ic + ir),
                                    ldc,
                                );
                            }
                            ir += MR;
                        }
                    }
                    let (mt, it0) = if nrb == NR { (mcb - m_main, ic + m_main) } else { (mcb, ic) };
                    if mt > 0 {
                        // SAFETY: the ≤7-row / ≤3-col remainder stays
                        // inside the same shape contracts.
                        unsafe {
                            tile_edge(
                                mt,
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

/// The 8×4 register tile: `C_tile` lives in 8 `ymm` accumulators across
/// the whole `kk` loop; β is applied when `first` (chunk `pc == 0`).
///
/// # Safety
/// Caller guarantees AVX2+FMA, 8 rows × 4 columns of C at `(c, ldc)`,
/// `kk` columns of A at `(a, lda)`, and op(B) coverage of rows
/// `l0..l0+kk` × cols `j0..j0+4`.
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn tile_8x4(
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
    // SAFETY: (whole body) caller guarantees 8 rows and 4 columns of C
    // at (c, ldc), kk columns of A at (a, lda), and op(B) coverage of
    // rows l0..l0+kk × cols j0..j0+4.
    unsafe {
        let mut acc = [[_mm256_setzero_pd(); 2]; NR];
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

/// Remainder tile (`mt ≤ 7` rows or `nt ≤ 3` columns): scalar loops with
/// the same association as [`tile_8x4`] (`mul_add` contracts to a
/// hardware FMA under the enabled feature).
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

/// `y += s·x` over equal-length slices, 4-wide FMA.
///
/// # Safety
/// Requires AVX2+FMA (certified by `isa()`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn axpy_f64(s: f64, x: &[f64], y: &mut [f64]) {
    let n = x.len().min(y.len());
    let vs = _mm256_set1_pd(s);
    let main = n - n % 4;
    let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
    let mut i = 0;
    while i < main {
        // SAFETY: i + 4 ≤ main ≤ both lengths.
        unsafe {
            let xv = _mm256_loadu_pd(xp.add(i));
            let yv = _mm256_loadu_pd(yp.add(i));
            _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(xv, vs, yv));
        }
        i += 4;
    }
    while i < n {
        // SAFETY: i < n ≤ both lengths.
        unsafe { *yp.add(i) = f64::mul_add(*xp.add(i), s, *yp.add(i)) };
        i += 1;
    }
}

/// `x *= s`, 4-wide.
///
/// # Safety
/// Requires AVX2 (certified by `isa()`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(crate) unsafe fn scale_f64(s: f64, x: &mut [f64]) {
    let n = x.len();
    let vs = _mm256_set1_pd(s);
    let main = n - n % 4;
    let xp = x.as_mut_ptr();
    let mut i = 0;
    while i < main {
        // SAFETY: i + 4 ≤ main ≤ x.len().
        unsafe { _mm256_storeu_pd(xp.add(i), _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), vs)) };
        i += 4;
    }
    while i < n {
        // SAFETY: i < n == x.len().
        unsafe { *xp.add(i) *= s };
        i += 1;
    }
}
