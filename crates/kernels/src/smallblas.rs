//! Naive reference implementations used by tests and as readable
//! specifications of what the optimized kernels compute.
//!
//! Everything here is a direct transcription of the textbook triple loop —
//! slow, obviously correct, and kept out of any hot path.

use crate::gemm::Trans;
use crate::scalar::Scalar;

/// Reference GEMM: `C ← α·op(A)·op(B) + β·C`, column-major.
#[allow(clippy::too_many_arguments)]
pub fn naive_gemm<T: Scalar>(
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
    let geta = |i: usize, l: usize| -> T {
        match transa {
            Trans::NoTrans => a[l * lda + i],
            Trans::Trans => a[i * lda + l],
            Trans::ConjTrans => a[i * lda + l].conj(),
        }
    };
    let getb = |l: usize, j: usize| -> T {
        match transb {
            Trans::NoTrans => b[j * ldb + l],
            Trans::Trans => b[l * ldb + j],
            Trans::ConjTrans => b[l * ldb + j].conj(),
        }
    };
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::zero();
            for l in 0..k {
                acc += geta(i, l) * getb(l, j);
            }
            let cv = &mut c[j * ldc + i];
            *cv = alpha * acc + beta * *cv;
        }
    }
}

/// Dense symmetric reconstruction `L·Lᵀ` (lower `L`, non-unit diagonal) into
/// a full `n×n` matrix; used to validate `potrf`.
pub fn reconstruct_llt<T: Scalar>(n: usize, l: &[T], ldl: usize) -> Vec<T> {
    let mut out = vec![T::zero(); n * n];
    for j in 0..n {
        for i in 0..n {
            let mut acc = T::zero();
            for k in 0..=i.min(j) {
                acc += l[k * ldl + i] * l[k * ldl + j];
            }
            out[j * n + i] = acc;
        }
    }
    out
}

/// Dense reconstruction `L·D·Lᵀ` (unit lower `L`, diagonal `d`); used to
/// validate `ldlt`.
pub fn reconstruct_ldlt<T: Scalar>(n: usize, l: &[T], ldl: usize, d: &[T]) -> Vec<T> {
    let mut out = vec![T::zero(); n * n];
    let lv = |i: usize, k: usize| -> T {
        match i.cmp(&k) {
            core::cmp::Ordering::Greater => l[k * ldl + i],
            core::cmp::Ordering::Equal => T::one(),
            core::cmp::Ordering::Less => T::zero(),
        }
    };
    for j in 0..n {
        for i in 0..n {
            let mut acc = T::zero();
            for (k, &dk) in d.iter().enumerate().take(n) {
                acc += lv(i, k) * dk * lv(j, k);
            }
            out[j * n + i] = acc;
        }
    }
    out
}

/// Dense reconstruction `L·U` from a packed LU factorization (unit lower in
/// the strict lower part, `U` on and above the diagonal); validates `getrf`.
pub fn reconstruct_lu<T: Scalar>(n: usize, lu: &[T], ldlu: usize) -> Vec<T> {
    let mut out = vec![T::zero(); n * n];
    let lv = |i: usize, k: usize| -> T {
        match i.cmp(&k) {
            core::cmp::Ordering::Greater => lu[k * ldlu + i],
            core::cmp::Ordering::Equal => T::one(),
            core::cmp::Ordering::Less => T::zero(),
        }
    };
    let uv = |k: usize, j: usize| -> T {
        if k <= j {
            lu[j * ldlu + k]
        } else {
            T::zero()
        }
    };
    for j in 0..n {
        for i in 0..n {
            let mut acc = T::zero();
            for k in 0..n {
                acc += lv(i, k) * uv(k, j);
            }
            out[j * n + i] = acc;
        }
    }
    out
}
