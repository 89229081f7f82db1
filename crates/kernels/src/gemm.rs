//! General matrix-matrix multiply (column-major).
//!
//! The update tasks of the supernodal factorization spend nearly all their
//! time here (`C ← βC + α·op(A)·op(B)`), so the `NoTrans × Trans` case —
//! the outer product `L_{i,k} · L_{j,k}ᵀ` of the paper's Figure 1 — gets a
//! cache-friendly axpy-based fast path. Three tiers serve it:
//!
//! * the portable blocked safe-Rust kernel ([`gemm_portable`]) — the
//!   baseline-target build that runs everywhere and is the reference the
//!   differential fuzz suite pins the SIMD tiers against;
//! * the AVX2+FMA register-tiled microkernels in [`crate::simd`] at `ymm`
//!   width — for `A` untransposed the axpy tile (8×4 `f64`, 4×4 `C64`),
//!   for `Aᵀ·B` / `Aᴴ·B` (the backward solve) the dot tile (3×4 `f64`,
//!   2×2 `C64`);
//! * the same tiles at `zmm` width on AVX-512F hosts (24×8 / 8×8 axpy,
//!   3×8 / 2×8 dot), bitwise the `ymm` tier — both entered through a
//!   cached runtime dispatch when the shape fills one `ymm` tile (`m ≥ 8`
//!   / `4` resp. `k ≥ 4` / `2`; any `n`).
//!
//! [`gemm`] is the dispatching front door; everything else in the solver
//! calls it and gets the fastest applicable tier.

use crate::assert_fits;
use crate::scalar::Scalar;
use crate::simd;

/// Transposition selector for a GEMM operand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose.
    ConjTrans,
}

impl Trans {
    #[inline]
    pub(crate) fn apply<T: Scalar>(self, v: T) -> T {
        match self {
            Trans::ConjTrans => v.conj(),
            _ => v,
        }
    }
}

/// `C ← α·op(A)·op(B) + β·C` on column-major buffers.
///
/// * `m, n` — dimensions of `C`; `k` — inner dimension.
/// * `a` has logical shape `m×k` after `transa`, stored with leading
///   dimension `lda` (so untransposed `A` is `m×k`, transposed is `k×m`).
/// * Panics if `c` is too small for the described shape (checked before
///   any write — a release build must never slice-panic mid-update and
///   leave `C` half-mutated); the remaining contracts are debug-checked
///   on the portable tier and promoted to real asserts on the arms the
///   SIMD tier serves through raw pointers (`A` untransposed, and `Aᵀ·B`
///   with `B` untransposed).
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Scalar>(
    transa: Trans,
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
) {
    if m == 0 || n == 0 {
        return;
    }
    // Shape guard, once per call, outside every loop — fails before the
    // first write instead of slice-panicking mid-update in release.
    assert_fits("gemm: C", m, n, ldc, c.len());
    if k == 0 || alpha == T::zero() {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    // The SIMD tier reads A/B through raw pointers, so the shape contracts
    // of the arms it serves must hold in release builds too. Once per call.
    if transa == Trans::NoTrans {
        let (brows, bcols) = if transb == Trans::NoTrans { (k, n) } else { (n, k) };
        assert_fits("gemm: A", m, k, lda, a.len());
        assert_fits("gemm: B", brows, bcols, ldb, b.len());
        if simd::try_gemm_a_notrans(transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) {
            return;
        }
    } else if transb == Trans::NoTrans {
        assert_fits("gemm: A", k, m, lda, a.len());
        assert_fits("gemm: B", k, n, ldb, b.len());
        if simd::try_gemm_a_trans(transa, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc) {
            return;
        }
    }
    gemm_body(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// The portable blocked kernel with no SIMD dispatch — identical argument
/// contract to [`gemm`]. This is the scalar reference of the differential
/// fuzz suite and the guaranteed-reproducible tier of the forced-scalar
/// (`--no-default-features`) build.
#[allow(clippy::too_many_arguments)]
pub fn gemm_portable<T: Scalar>(
    transa: Trans,
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
) {
    if m == 0 || n == 0 {
        return;
    }
    assert_fits("gemm: C", m, n, ldc, c.len());
    if k == 0 || alpha == T::zero() {
        scale_c(m, n, beta, c, ldc);
        return;
    }
    gemm_body(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

/// Shared portable body of [`gemm`] / [`gemm_portable`]; callers have
/// handled the degenerate shapes and the `C` contract.
#[allow(clippy::too_many_arguments)]
fn gemm_body<T: Scalar>(
    transa: Trans,
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
) {
    match (transa, transb) {
        (Trans::NoTrans, Trans::NoTrans) => {
            debug_assert!(lda >= m && a.len() >= lda * (k - 1) + m);
            debug_assert!(ldb >= k && b.len() >= ldb * (n - 1) + k);
            // op(B)[l, j] = B[l, j] stored at b[j*ldb + l].
            // BOUNDS: l < k, j < n, and the ldb shape contract above.
            gemm_a_notrans(m, n, k, alpha, a, lda, beta, c, ldc, |l, j| b[j * ldb + l]);
        }
        (Trans::NoTrans, tb) => {
            debug_assert!(lda >= m && a.len() >= lda * (k - 1) + m);
            debug_assert!(ldb >= n && b.len() >= ldb * (k - 1) + n);
            // op(B)[l, j] = B[j, l](^conj) stored at b[l*ldb + j].
            // BOUNDS: l < k, j < n, and the ldb shape contract above.
            gemm_a_notrans(m, n, k, alpha, a, lda, beta, c, ldc, |l, j| {
                tb.apply(b[l * ldb + j])
            });
        }
        (ta, Trans::NoTrans) => {
            // C[i,j] = alpha * dot(op(A)[i,:], B[:,j]) + beta C[i,j]
            debug_assert!(lda >= k && a.len() >= lda * (m - 1) + k);
            debug_assert!(ldb >= k && b.len() >= ldb * (n - 1) + k);
            // BOUNDS: all slices below stay inside the lda/ldb/ldc shape
            // contracts asserted above (i < m, j < n by loop bounds).
            for j in 0..n {
                let bj = &b[j * ldb..j * ldb + k];
                let cj = &mut c[j * ldc..j * ldc + m];
                for (i, cij) in cj.iter_mut().enumerate() {
                    let ai = &a[i * lda..i * lda + k];
                    let mut acc = T::zero();
                    for (&av, &bv) in ai.iter().zip(bj.iter()) {
                        acc += ta.apply(av) * bv;
                    }
                    *cij = axpby(alpha, acc, beta, *cij);
                }
            }
        }
        (ta, tb) => {
            // Fully transposed case: rarely used, straightforward loops.
            debug_assert!(lda >= k && a.len() >= lda * (m - 1) + k);
            debug_assert!(ldb >= n && b.len() >= ldb * (k - 1) + n);
            // BOUNDS: i < m, l < k, j < n against the shape contracts
            // asserted above.
            for j in 0..n {
                let cj = &mut c[j * ldc..j * ldc + m];
                for (i, cij) in cj.iter_mut().enumerate() {
                    let mut acc = T::zero();
                    for l in 0..k {
                        acc += ta.apply(a[i * lda + l]) * tb.apply(b[l * ldb + j]);
                    }
                    *cij = axpby(alpha, acc, beta, *cij);
                }
            }
        }
    }
}

/// Shared fast path for `A` untransposed: `C[:, j] += α Σ_l A[:, l]·op(B)[l, j]`
/// with `op(B)` supplied by an indexing closure. Columns of `C` are
/// processed four at a time so each `A` column is streamed once per four
/// outputs — the register/cache blocking that matters for the tall-skinny
/// panels of the supernodal update.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_a_notrans<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
    bval: impl Fn(usize, usize) -> T,
) {
    scale_c(m, n, beta, c, ldc);
    let mut j = 0;
    // 4-wide blocks.
    // BOUNDS: j+4 <= n and the caller's ldc >= m contract keep every
    // column slice inside c; al/c0..c3 all have length m.
    while j + 4 <= n {
        let (c0_block, rest) = c[j * ldc..].split_at_mut(ldc);
        let (c1_block, rest) = rest.split_at_mut(ldc);
        let (c2_block, rest) = rest.split_at_mut(ldc);
        let c0 = &mut c0_block[..m];
        let c1 = &mut c1_block[..m];
        let c2 = &mut c2_block[..m];
        let c3 = &mut rest[..m];
        // BOUNDS: l < k against the caller's lda shape contract; i < m
        // by al's length, matching c0..c3.
        for l in 0..k {
            let s0 = alpha * bval(l, j);
            let s1 = alpha * bval(l, j + 1);
            let s2 = alpha * bval(l, j + 2);
            let s3 = alpha * bval(l, j + 3);
            let al = &a[l * lda..l * lda + m];
            if s0 == T::zero() && s1 == T::zero() && s2 == T::zero() && s3 == T::zero() {
                continue;
            }
            // BOUNDS: i < m = al.len() = c0..c3 lengths.
            for (i, &av) in al.iter().enumerate() {
                c0[i] += s0 * av;
                c1[i] += s1 * av;
                c2[i] += s2 * av;
                c3[i] += s3 * av;
            }
        }
        j += 4;
    }
    // Remainder columns.
    // BOUNDS: j < n, l < k against the caller's lda/ldc contracts.
    while j < n {
        let cj = &mut c[j * ldc..j * ldc + m];
        for l in 0..k {
            let s = alpha * bval(l, j);
            if s == T::zero() {
                continue;
            }
            axpy(s, &a[l * lda..l * lda + m], cj);
        }
        j += 1;
    }
}

/// `α·acc + β·c`, with β = 0 a plain store: `c` may be uninitialised
/// scratch, and `0·NaN` is NaN.
#[inline]
fn axpby<T: Scalar>(alpha: T, acc: T, beta: T, c: T) -> T {
    if beta == T::zero() {
        alpha * acc
    } else {
        alpha * acc + beta * c
    }
}

#[inline]
fn scale_c<T: Scalar>(m: usize, n: usize, beta: T, c: &mut [T], ldc: usize) {
    // BOUNDS: j < n and gemm's ldc >= m / c-length contract.
    for j in 0..n {
        scale_col(beta, &mut c[j * ldc..j * ldc + m]);
    }
}

#[inline]
fn scale_col<T: Scalar>(beta: T, col: &mut [T]) {
    if beta == T::one() {
        return;
    }
    if beta == T::zero() {
        for v in col {
            *v = T::zero();
        }
    } else {
        for v in col {
            *v *= beta;
        }
    }
}

/// `y += s * x` over equal-length slices.
#[inline]
fn axpy<T: Scalar>(s: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += s * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use crate::smallblas::naive_gemm;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    fn fill_c(n: usize, seed: u64) -> Vec<C64> {
        let re = fill(n, seed);
        let im = fill(n, seed.wrapping_add(7));
        re.into_iter().zip(im).map(|(r, i)| C64::new(r, i)).collect()
    }

    fn check_f64(ta: Trans, tb: Trans, m: usize, n: usize, k: usize) {
        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
        let a = fill(ar * ac, 1);
        let b = fill(br * bc, 2);
        let mut c = fill(m * n, 3);
        let mut cref = c.clone();
        gemm(ta, tb, m, n, k, 0.5, &a, ar, &b, br, -2.0, &mut c, m);
        naive_gemm(ta, tb, m, n, k, 0.5, &a, ar, &b, br, -2.0, &mut cref, m);
        for (x, y) in c.iter().zip(cref.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y} ({ta:?},{tb:?})");
        }
    }

    #[test]
    fn matches_naive_all_trans_combinations() {
        for &ta in &[Trans::NoTrans, Trans::Trans, Trans::ConjTrans] {
            for &tb in &[Trans::NoTrans, Trans::Trans, Trans::ConjTrans] {
                check_f64(ta, tb, 7, 5, 9);
                check_f64(ta, tb, 1, 1, 1);
                check_f64(ta, tb, 16, 3, 2);
            }
        }
    }

    #[test]
    fn complex_conjugate_transpose_differs_from_transpose() {
        // m = 4 is exactly one complex register tile, m = 11 two tiles
        // and a 3-row remainder.
        let (one, zero) = (C64::new(1.0, 0.0), C64::new(0.0, 0.0));
        for m in [4, 11] {
            let a = fill_c(m * m, 5);
            let b = fill_c(m * m, 6);
            let mut ct = vec![zero; m * m];
            let mut ch = ct.clone();
            gemm(Trans::NoTrans, Trans::Trans, m, m, m, one, &a, m, &b, m, zero, &mut ct, m);
            gemm(Trans::NoTrans, Trans::ConjTrans, m, m, m, one, &a, m, &b, m, zero, &mut ch, m);
            assert!(ct.iter().zip(&ch).any(|(x, y)| (*x - *y).modulus() > 1e-9));
            // And both match the naive implementation.
            for (tb, got) in [(Trans::Trans, &ct), (Trans::ConjTrans, &ch)] {
                let mut r = vec![zero; m * m];
                naive_gemm(Trans::NoTrans, tb, m, m, m, one, &a, m, &b, m, zero, &mut r, m);
                for (x, y) in got.iter().zip(&r) {
                    assert!((*x - *y).modulus() < 1e-12, "{x} vs {y} ({tb:?}, m={m})");
                }
            }
        }
    }

    #[test]
    fn gemm_beta_zero_never_reads_c() {
        // β = 0 is a store in every arm of both tiers: C may be
        // uninitialised scratch (the solve's product buffer), and 0·NaN is
        // NaN. Shapes on both sides of the SIMD dispatch floors of both
        // element types, and across the dot tile's `KC` chunk boundary.
        fn check<T: Scalar>(fill: fn(usize, u64) -> Vec<T>) {
            let trans = [Trans::NoTrans, Trans::Trans, Trans::ConjTrans];
            let (half, nan) = (T::from_f64(0.5), T::from_parts(f64::NAN, f64::NAN));
            for &ta in &trans {
                for &tb in &trans {
                    for (m, n, k) in [(2, 2, 2), (3, 5, 9), (4, 1, 4), (17, 6, 11), (9, 3, 300)] {
                        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
                        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
                        let a = fill(ar * ac, 1);
                        let b = fill(br * bc, 2);
                        let mut want = vec![T::zero(); m * n];
                        naive_gemm(ta, tb, m, n, k, half, &a, ar, &b, br, T::zero(), &mut want, m);
                        for kernel in [gemm::<T>, gemm_portable::<T>] {
                            let mut c = vec![nan; m * n];
                            kernel(ta, tb, m, n, k, half, &a, ar, &b, br, T::zero(), &mut c, m);
                            for (x, y) in c.iter().zip(&want) {
                                assert!(
                                    (*x - *y).modulus() < 1e-12,
                                    "{} {x} vs {y} ({ta:?},{tb:?}) {m}x{n}x{k}",
                                    T::PREC
                                );
                            }
                        }
                    }
                }
            }
        }
        check::<f64>(fill);
        check::<C64>(fill_c);
        // k = 0 with beta = 0 zeroes C.
        let mut c2 = vec![f64::NAN; 4];
        gemm(Trans::NoTrans, Trans::NoTrans, 2, 2, 0, 1.0, &[], 2, &[], 2, 0.0, &mut c2, 2);
        assert_eq!(c2, vec![0.0; 4]);
    }

    #[test]
    fn leading_dimension_strides_respected() {
        // Embed a 2x2 product inside larger buffers.
        let lda = 5;
        let ldb = 4;
        let ldc = 7;
        let mut a = vec![99.0; lda * 2];
        let mut b = vec![88.0; ldb * 2];
        let mut c = vec![7.0; ldc * 2];
        // A = [[1,3],[2,4]] col-major.
        a[0] = 1.0;
        a[1] = 2.0;
        a[lda] = 3.0;
        a[lda + 1] = 4.0;
        // B = I
        b[0] = 1.0;
        b[1] = 0.0;
        b[ldb] = 0.0;
        b[ldb + 1] = 1.0;
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            2,
            2,
            2,
            1.0,
            &a,
            lda,
            &b,
            ldb,
            0.0,
            &mut c,
            ldc,
        );
        assert_eq!(&c[0..2], &[1.0, 2.0]);
        assert_eq!(&c[ldc..ldc + 2], &[3.0, 4.0]);
        // Padding untouched.
        assert_eq!(c[2], 7.0);
        assert_eq!(c[ldc + 2], 7.0);
    }
}
