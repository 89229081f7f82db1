//! Cholesky factorization of a dense diagonal block (column-major, lower).
//!
//! This is step 1 of the paper's 1D panel task (Figure 1): `A_kk = L·Lᵀ`.
//! A blocked right-looking variant solves the panel below each diagonal
//! tile with the right [`trsm`] and hands the trailing update to
//! [`gemm`](crate::gemm::gemm()) a block column at a time, so everything
//! outside the `NB×NB` tiles runs at GEMM speed; the unblocked base case
//! factors the tiles.
//!
//! No heap and no `unsafe`: the one aliasing temptation (the diagonal tile
//! feeding the panel TRSM below it, in the same columns of `a`) is resolved
//! by copying the tile into a stack array bounded by `NB`.

use crate::gemm::{gemm, Trans};
use crate::scalar::Scalar;
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{assert_fits, pack_block, KernelError};

/// Blocking factor for the right-looking panel sweep.
const NB: usize = 48;

/// Factor the lower triangle of the `n×n` column-major block `a` in place:
/// on success `a`'s lower triangle holds `L` with `A = L·Lᵀ` (`L·L^T` also
/// for complex symmetric input — the solver uses LDLᵀ or LU for complex
/// matrices, but the kernel stays generic). The strict upper triangle never
/// enters the result; for `n > NB` the part of it inside the trailing
/// diagonal tiles is overwritten (the trailing update is rectangular).
///
/// Fails with [`KernelError::NotPositiveDefinite`] when a pivot's real part
/// is not strictly positive. Panics — before any write — if `a` is too
/// small for `n` and `lda`.
pub fn potrf<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), KernelError> {
    assert_fits("potrf: A", n, n, lda, a.len());
    for k in (0..n).step_by(NB) {
        let kb = NB.min(n - k);
        // BOUNDS: k + kb <= n under the shape contract asserted above, for
        // every slice of `a` in this loop body.
        potrf_unblocked(kb, &mut a[k * lda + k..], lda, k)?;
        let rest = n - k - kb;
        if rest == 0 {
            break;
        }
        // Panel below the tile: P = A[k+kb.., k..k+kb] ← P · L⁻ᵀ.
        let mut tile = [T::zero(); NB * NB];
        pack_block(kb, kb, &a[k * lda + k..], lda, &mut tile);
        let panel = &mut a[k * lda + k + kb..];
        trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, rest, kb, &tile, kb, panel, lda);
        // Trailing update, one block column at a time:
        // A[k+kb+j0.., k+kb+j0..+jb] -= P[j0.., :] · P[j0..j0+jb, :]ᵀ. The
        // panel lives in columns k..k+kb (head), the trailing columns start
        // at k+kb (tail): one split gives disjoint borrows.
        // BOUNDS: j0 < rest, rows and columns k+kb+j0.. of the same n×n.
        let (head, tail) = a.split_at_mut((k + kb) * lda);
        let panel = &head[k * lda + k + kb..];
        for j0 in (0..rest).step_by(NB) {
            let (pj, cj) = (&panel[j0..], &mut tail[j0 * lda + k + kb + j0..]);
            gemm(Trans::NoTrans, Trans::Trans, rest - j0, NB.min(rest - j0), kb, -T::one(), pj, lda, pj, lda, T::one(), cj, lda);
        }
    }
    Ok(())
}

/// Unblocked lower Cholesky on the leading `n×n` of `a` (offset `col0` only
/// used for error reporting).
fn potrf_unblocked<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    col0: usize,
) -> Result<(), KernelError> {
    for j in 0..n {
        // d = a_jj - Σ_{k<j} l_jk²
        // BOUNDS: k < j < n against the caller's n×n extent in `a`.
        let mut d = a[j * lda + j];
        for k in 0..j {
            let l = a[k * lda + j];
            d -= l * l;
        }
        if !d.is_finite() {
            return Err(KernelError::NonFinitePivot { column: col0 + j });
        }
        // Positivity check on the real part; complex symmetric blocks may
        // legitimately have complex "pivots", so only reject when the
        // modulus vanishes or a real pivot is non-positive.
        if T::IS_COMPLEX {
            if d.modulus() == 0.0 {
                return Err(KernelError::ZeroPivot { column: col0 + j });
            }
        } else if d.re() <= 0.0 {
            return Err(KernelError::NotPositiveDefinite {
                column: col0 + j,
                pivot: d.re(),
            });
        }
        let ljj = d.sqrt();
        // BOUNDS: k < j < i < n against the same n×n extent.
        a[j * lda + j] = ljj;
        let inv = ljj.inv();
        for i in (j + 1)..n {
            let mut v = a[j * lda + i];
            for k in 0..j {
                v -= a[k * lda + i] * a[k * lda + j];
            }
            a[j * lda + i] = v * inv;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smallblas::reconstruct_llt;

    fn spd_matrix(n: usize, seed: u64) -> Vec<f64> {
        // A = B·Bᵀ + n·I is SPD.
        let mut s = seed | 1;
        let mut b = vec![0.0f64; n * n];
        for v in &mut b {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s % 1000) as f64 / 500.0 - 1.0;
        }
        let mut a = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += b[k * n + i] * b[k * n + j];
                }
                a[j * n + i] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        a
    }

    #[test]
    fn factor_reconstructs_small() {
        for n in [1, 2, 3, 5, 8, 13] {
            let a = spd_matrix(n, 11 + n as u64);
            let mut l = a.clone();
            potrf(n, &mut l, n).unwrap();
            let r = reconstruct_llt(n, &l, n);
            for j in 0..n {
                for i in j..n {
                    assert!(
                        (r[j * n + i] - a[j * n + i]).abs() < 1e-9 * (n as f64),
                        "n={n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn factor_reconstructs_blocked_path() {
        // n > NB exercises the blocked sweep.
        let n = NB + 17;
        let a = spd_matrix(n, 99);
        let mut l = a.clone();
        potrf(n, &mut l, n).unwrap();
        let r = reconstruct_llt(n, &l, n);
        let mut max_rel = 0.0f64;
        for j in 0..n {
            for i in j..n {
                let rel = (r[j * n + i] - a[j * n + i]).abs() / (1.0 + a[j * n + j].abs());
                max_rel = max_rel.max(rel);
            }
        }
        assert!(max_rel < 1e-8, "max relative error {max_rel}");
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        let err = potrf(2, &mut a, 2).unwrap_err();
        match err {
            KernelError::NotPositiveDefinite { column, .. } => assert_eq!(column, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn respects_leading_dimension() {
        let n = 4;
        let lda = 9;
        let dense = spd_matrix(n, 5);
        let mut padded = vec![f64::NAN; lda * n];
        for j in 0..n {
            for i in 0..n {
                padded[j * lda + i] = dense[j * n + i];
            }
        }
        potrf(n, &mut padded, lda).unwrap();
        // Padding rows must be untouched.
        for j in 0..n {
            for i in n..lda.min(lda) {
                if j * lda + i < padded.len() {
                    assert!(padded[j * lda + i].is_nan());
                }
            }
        }
        let mut tight = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                tight[j * n + i] = padded[j * lda + i];
            }
        }
        let r = reconstruct_llt(n, &tight, n);
        for j in 0..n {
            for i in j..n {
                assert!((r[j * n + i] - dense[j * n + i]).abs() < 1e-9);
            }
        }
    }
}
