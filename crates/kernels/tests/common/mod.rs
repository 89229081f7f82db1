//! Shared by the kernel integration suites: the dense triple-loop reference
//! the sparse update is compared against (the same loop as
//! `update.rs`'s unit-test `reference`).

use dagfact_kernels::update::Scatter;
use dagfact_kernels::Scalar;

/// `C[row_map[i], col_offset + j] += α · Σ_l A₁[i,l] · d?[l] · A₂[j,l]`, one
/// destination element at a time.
#[allow(clippy::too_many_arguments)]
pub fn reference_update<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a1: &[T],
    lda1: usize,
    a2: &[T],
    lda2: usize,
    d: Option<&[T]>,
    c: &mut [T],
    ldc: usize,
    scatter: Scatter<'_>,
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::zero();
            for l in 0..k {
                let dl = d.map_or(T::one(), |d| d[l]);
                acc += a1[l * lda1 + i] * dl * a2[l * lda2 + j];
            }
            c[(scatter.col_offset + j) * ldc + scatter.row_map[i]] += alpha * acc;
        }
    }
}
