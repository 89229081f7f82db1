//! LU factorization of a dense diagonal block with *static pivoting*.
//!
//! PaStiX "doesn't perform dynamic pivoting, as opposed to SuperLU, which
//! allows the factorized matrix structure to be fully known at the analysis
//! step" (§III). The numerical price is that small pivots cannot be avoided
//! by row exchanges; instead they are *bumped* to a threshold (usually
//! `ε‖A‖`), and the loss of accuracy is recovered by iterative refinement in
//! the solve phase. This kernel reproduces exactly that behaviour.
//!
//! The blocked right-looking sweep (panel LU → TRSM on the U block row →
//! GEMM on the trailing matrix, a block column at a time) keeps wide
//! diagonal blocks at GEMM speed, with one stack tile bounded by `NB` and
//! no heap.

use crate::gemm::{gemm, Trans};
use crate::scalar::Scalar;
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{assert_fits, pack_block, KernelError};

/// Statistics returned by the static-pivoting LU kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticPivotStats {
    /// Number of pivots whose modulus fell below the threshold and were
    /// replaced.
    pub repaired: usize,
}

/// Blocking factor for the right-looking sweep.
const NB: usize = 48;

/// Factor `A = L·U` in place without pivoting (column-major).
///
/// On return the strict lower triangle of `a` holds the unit-lower `L` and
/// the upper triangle (diagonal included) holds `U`. Pivots with modulus
/// below `small_pivot_threshold` are replaced by `±threshold` and counted.
/// Panics — before any write — if `a` is too small for `n` and `lda`.
pub fn getrf<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    small_pivot_threshold: f64,
) -> Result<StaticPivotStats, KernelError> {
    assert_fits("getrf: A", n, n, lda, a.len());
    let mut stats = StaticPivotStats::default();
    for k in (0..n).step_by(NB) {
        let kb = NB.min(n - k);
        // BOUNDS: k + kb <= n under the shape contract asserted above, for
        // every slice of `a` in this loop body.
        // 1) Unblocked LU of the tall panel A[k.., k..k+kb].
        let sub = getrf_unblocked(n - k, kb, &mut a[k * lda + k..], lda, small_pivot_threshold, k)?;
        stats.repaired += sub.repaired;
        let rest = n - k - kb;
        if rest == 0 {
            break;
        }
        // The factored panel lives in columns k..k+kb (head, read from here
        // on), the U block row and the trailing matrix in the columns after
        // it (tail): one split gives disjoint borrows.
        // BOUNDS: rows k.. of columns k..k+kb, then of columns k+kb.., of
        // the same n×n.
        let (head, tail) = a.split_at_mut((k + kb) * lda);
        let lkk = &head[k * lda + k..];
        // 2) U block row: A[k..k+kb, k+kb..] ← L_kk⁻¹ · A[k..k+kb, k+kb..].
        trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::Unit, kb, rest, lkk, lda, &mut tail[k..], lda);
        // 3) Trailing update, one block column at a time:
        //    A[k+kb.., j0..j0+jb] -= L[k+kb.., k..k+kb] · U[k..k+kb, j0..j0+jb].
        //    Within the tail's columns the U rows (read) and the trailing
        //    rows (write) interleave, so the U block is staged.
        let mut tile = [T::zero(); NB * NB];
        // BOUNDS: j0 + jb <= rest: columns k+kb+j0.. of the same n×n, and
        // lkk holds kb columns of n - k >= kb rows.
        for j0 in (0..rest).step_by(NB) {
            let jb = NB.min(rest - j0);
            pack_block(kb, jb, &tail[j0 * lda + k..], lda, &mut tile);
            let c = &mut tail[j0 * lda + k + kb..];
            gemm(Trans::NoTrans, Trans::NoTrans, rest, jb, kb, -T::one(), &lkk[kb..], lda, &tile, kb, T::one(), c, lda);
        }
    }
    Ok(stats)
}

/// Unblocked LU (no pivoting) of an `m×n` tall panel (`m ≥ n`); `col0`
/// is only used for error reporting.
fn getrf_unblocked<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    small_pivot_threshold: f64,
    col0: usize,
) -> Result<StaticPivotStats, KernelError> {
    let mut stats = StaticPivotStats::default();
    for k in 0..n {
        // BOUNDS: k < n <= m against the caller's m×n extent in `a`.
        let mut piv = a[k * lda + k];
        if !piv.is_finite() {
            return Err(KernelError::NonFinitePivot { column: col0 + k });
        }
        if piv.modulus() < small_pivot_threshold {
            stats.repaired += 1;
            let sign = if piv.re() < 0.0 { -1.0 } else { 1.0 };
            piv = T::from_f64(sign * small_pivot_threshold);
            // BOUNDS: as above.
            a[k * lda + k] = piv;
        }
        if piv.modulus() == 0.0 {
            return Err(KernelError::ZeroPivot { column: col0 + k });
        }
        let inv = piv.inv();
        // Scale the pivot column: L[i, k] = A[i, k] / pivot.
        // BOUNDS: k < i < m, k < j < n against the same m×n extent, here
        // and in the rank-1 update below.
        for i in (k + 1)..m {
            a[k * lda + i] *= inv;
        }
        // Rank-1 trailing update: A[i, j] -= L[i, k] · U[k, j].
        for j in (k + 1)..n {
            let ukj = a[j * lda + k];
            if ukj == T::zero() {
                continue;
            }
            // Split so the pivot column (read) and column j (write) borrow
            // disjoint parts of `a`; k < j always holds here.
            // BOUNDS: rows k+1..m of columns k and j, as above.
            let (head, tail) = a.split_at_mut(j * lda);
            let lcol = &head[k * lda + k + 1..k * lda + m];
            let ccol = &mut tail[k + 1..m];
            for (c, &l) in ccol.iter_mut().zip(lcol.iter()) {
                *c -= l * ukj;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use crate::smallblas::reconstruct_lu;

    fn diag_dominant(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut a = vec![0.0f64; n * n];
        for v in &mut a {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = (s % 2000) as f64 / 1000.0 - 1.0;
        }
        for j in 0..n {
            a[j * n + j] = n as f64 + 1.0; // strictly diagonally dominant
        }
        a
    }

    #[test]
    fn factor_reconstructs_real() {
        for n in [1, 2, 4, 7, 12, 33] {
            let a0 = diag_dominant(n, n as u64 + 1);
            let mut a = a0.clone();
            let stats = getrf(n, &mut a, n, 0.0).unwrap();
            assert_eq!(stats.repaired, 0);
            let r = reconstruct_lu(n, &a, n);
            for (x, y) in r.iter().zip(a0.iter()) {
                assert!((x - y).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn factor_reconstructs_blocked_path() {
        // n > NB exercises the panel/TRSM/GEMM sweep.
        for n in [NB + 1, NB + 17, 2 * NB + 5] {
            let a0 = diag_dominant(n, 3 * n as u64);
            let mut a = a0.clone();
            getrf(n, &mut a, n, 0.0).unwrap();
            let r = reconstruct_lu(n, &a, n);
            let mut max = 0.0f64;
            for (x, y) in r.iter().zip(a0.iter()) {
                max = max.max((x - y).abs());
            }
            assert!(max < 1e-8, "n={n}: max error {max}");
        }
    }

    #[test]
    fn factor_reconstructs_complex() {
        let n = 5;
        let mut a0 = vec![C64::new(0.0, 0.0); n * n];
        let mut s = 9u64;
        for v in &mut a0 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = C64::new((s % 100) as f64 / 50.0 - 1.0, ((s >> 7) % 100) as f64 / 50.0 - 1.0);
        }
        for j in 0..n {
            a0[j * n + j] = C64::new(n as f64, n as f64); // dominant
        }
        let mut a = a0.clone();
        getrf(n, &mut a, n, 0.0).unwrap();
        let r = reconstruct_lu(n, &a, n);
        for (x, y) in r.iter().zip(a0.iter()) {
            assert!((*x - *y).modulus() < 1e-9);
        }
    }

    #[test]
    fn static_pivoting_counts_and_repairs() {
        // Zero leading pivot: without a threshold this must fail, with one
        // it must be repaired and counted.
        let a0 = vec![0.0, 1.0, 1.0, 1.0];
        let mut a = a0.clone();
        assert_eq!(
            getrf(2, &mut a, 2, 0.0).unwrap_err(),
            KernelError::ZeroPivot { column: 0 }
        );
        let mut a = a0;
        let stats = getrf(2, &mut a, 2, 1e-10).unwrap();
        assert_eq!(stats.repaired, 1);
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn respects_leading_dimension() {
        let n = 3;
        let lda = 6;
        let dense = diag_dominant(n, 77);
        let mut padded = vec![f64::NAN; lda * n];
        for j in 0..n {
            for i in 0..n {
                padded[j * lda + i] = dense[j * n + i];
            }
        }
        getrf(n, &mut padded, lda, 0.0).unwrap();
        let mut tight = vec![0.0; n * n];
        for j in 0..n {
            for i in 0..n {
                tight[j * n + i] = padded[j * lda + i];
                assert!(padded[j * lda + i].is_finite());
            }
            for i in n..lda {
                assert!(padded[j * lda + i].is_nan(), "padding row touched");
            }
        }
        let r = reconstruct_lu(n, &tight, n);
        for (x, y) in r.iter().zip(dense.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}
