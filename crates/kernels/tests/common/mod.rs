//! Shared by the kernel integration suites: the dense triple-loop reference
//! the sparse update is compared against (the same loop as
//! `update.rs`'s unit-test `reference`), and dense substitution for the
//! triangular solve.
#![allow(dead_code)] // each suite uses its own subset

use dagfact_kernels::trsm::{Diag, Side, Trans, Uplo};
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

/// Solve `op(T)·X = B` (left) or `X·op(T) = B` (right) in place by plain
/// substitution on a dense copy of `op(T)`, one element of `X` as one dot
/// product — the reference the blocked `trsm` is compared against. Same
/// argument contract as `trsm`; only the stored triangle of `t` is read.
#[allow(clippy::too_many_arguments)]
pub fn reference_trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    let k = if side == Side::Left { m } else { n };
    // op(T), dense k×k column-major, zeros outside its triangle.
    let mut op = vec![T::zero(); k * k];
    for j in 0..k {
        for i in 0..k {
            let stored = if uplo == Uplo::Lower { i >= j } else { i <= j };
            if !stored {
                continue;
            }
            let v = if i == j && diag == Diag::Unit { T::one() } else { t[j * ldt + i] };
            match trans {
                Trans::NoTrans => op[j * k + i] = v,
                Trans::Trans => op[i * k + j] = v,
                Trans::ConjTrans => op[i * k + j] = v.conj(),
            }
        }
    }
    let lower = (uplo == Uplo::Lower) == (trans == Trans::NoTrans);
    match side {
        // Row i of X needs the rows before it (lower) or after it (upper).
        Side::Left => {
            for j in 0..n {
                for step in 0..m {
                    let i = if lower { step } else { m - 1 - step };
                    let solved = if lower { 0..i } else { i + 1..m };
                    let mut acc = b[j * ldb + i];
                    for l in solved {
                        acc -= op[l * k + i] * b[j * ldb + l];
                    }
                    b[j * ldb + i] = acc / op[i * k + i];
                }
            }
        }
        // Column j of X needs the columns after it (lower) or before it.
        Side::Right => {
            for step in 0..n {
                let j = if lower { n - 1 - step } else { step };
                let solved = if lower { j + 1..n } else { 0..j };
                for i in 0..m {
                    let mut acc = b[j * ldb + i];
                    for l in solved.clone() {
                        acc -= b[l * ldb + i] * op[j * k + l];
                    }
                    b[j * ldb + i] = acc / op[j * k + j];
                }
            }
        }
    }
}
