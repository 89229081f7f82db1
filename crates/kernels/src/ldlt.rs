//! LDLᵀ factorization of a dense diagonal block without pivoting.
//!
//! PaStiX (and hence this reproduction) performs *static* pivoting: the
//! structure of the factors is fixed at analysis time, so the numerical
//! kernel never permutes. LDLᵀ is used for symmetric indefinite problems —
//! in the paper's test set, `pmlDF` (complex symmetric) and `Serena` — where
//! Cholesky would fail on negative (or complex) pivots.
//!
//! The factorization writes the unit lower factor `L` in the strict lower
//! triangle of `a` (the diagonal of `a` receives `D`), and duplicates `D`
//! into the caller-provided `d` vector, which the update and solve kernels
//! consume directly.

use crate::gemm::{gemm, Trans};
use crate::scalar::Scalar;
use crate::trsm::{trsm, Diag, Side, Uplo};
use crate::{assert_fits, pack_block, KernelError};

/// Blocking factor for the right-looking sweep.
const NB: usize = 48;

/// Factor `A = L·D·Lᵀ` in place (lower, column-major, no pivoting).
///
/// On return the strict lower triangle of `a` holds the unit-lower `L`, the
/// diagonal holds `D`, and `d` (length ≥ `n`) holds a copy of `D`. The
/// strict upper triangle never enters the result; for `n > NB` the part of
/// it inside the trailing diagonal tiles is overwritten. Panics — before
/// any write — if `a` or `d` is too small for `n` and `lda`.
///
/// `small_pivot_threshold` implements PaStiX-style static pivoting: a pivot
/// with modulus below `threshold` is replaced by `±threshold` (sign of the
/// real part, `+` for zero), and the number of such repairs is returned.
///
/// Blocked right-looking sweep: unblocked LDLᵀ on the diagonal tile, unit
/// TRSM + diagonal scaling on the panel below, then a `D·Pᵀ`-buffered GEMM
/// per trailing block column — the same temp-buffer structure the native
/// scheduler uses at panel level (§V-A). The tile copy and the `D·Pᵀ`
/// staging share one stack array bounded by `NB`; nothing touches the heap.
pub fn ldlt<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T],
    small_pivot_threshold: f64,
) -> Result<usize, KernelError> {
    assert_fits("ldlt: A", n, n, lda, a.len());
    assert_fits("ldlt: d", n, 1, n, d.len());
    let mut repaired = 0usize;
    for k in (0..n).step_by(NB) {
        let kb = NB.min(n - k);
        // BOUNDS: k + kb <= n under the shape contracts asserted above, for
        // every slice of `a` and `d` in this loop body.
        let dk = &mut d[k..k + kb];
        repaired += ldlt_unblocked(kb, &mut a[k * lda + k..], lda, dk, small_pivot_threshold, k)?;
        let rest = n - k - kb;
        if rest == 0 {
            break;
        }
        // Panel below the tile: P ← P · L_kk⁻ᵀ · D⁻¹. Tile and panel share
        // columns of `a`, so the tile is copied.
        let mut tile = [T::zero(); NB * NB];
        pack_block(kb, kb, &a[k * lda + k..], lda, &mut tile);
        let panel = &mut a[k * lda + k + kb..];
        trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::Unit, rest, kb, &tile, kb, panel, lda);
        ldlt_apply_diag(rest, kb, dk, panel, lda);
        // Trailing update, one block column at a time, with W = D·Pᵀ of
        // the block's rows staged where the tile was:
        // A[k+kb+j0.., k+kb+j0..+jb] -= P[j0.., :] · W.
        // BOUNDS: j0 < rest, rows and columns k+kb+j0.. of the same n×n.
        let (head, tail) = a.split_at_mut((k + kb) * lda);
        let panel = &head[k * lda + k + kb..];
        for j0 in (0..rest).step_by(NB) {
            let jb = NB.min(rest - j0);
            let (pj, cj) = (&panel[j0..], &mut tail[j0 * lda + k + kb + j0..]);
            scale_transpose(jb, kb, dk, pj, lda, &mut tile);
            gemm(Trans::NoTrans, Trans::NoTrans, rest - j0, jb, kb, -T::one(), pj, lda, &tile, kb, T::one(), cj, lda);
        }
    }
    Ok(repaired)
}

/// Unblocked left-looking LDLᵀ of the leading `n×n`, `n ≤ NB`; `col0` only
/// labels errors.
fn ldlt_unblocked<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    d: &mut [T],
    small_pivot_threshold: f64,
    col0: usize,
) -> Result<usize, KernelError> {
    let mut repaired = 0usize;
    // Column-by-column left-looking sweep. `w` caches L[j, k] · d_k for the
    // current column to avoid re-reading d with a multiply in the inner
    // loop.
    let mut w = [T::zero(); NB];
    // BOUNDS: k < j < n <= NB = w.len(), i < n, against the caller's
    // n×n-in-`a` and n-in-`d` extents, for every index in this loop.
    for j in 0..n {
        // w[k] = l_jk * d_k for k < j.
        for k in 0..j {
            w[k] = a[k * lda + j] * d[k];
        }
        // d_j = a_jj - Σ l_jk² d_k
        let mut dj = a[j * lda + j];
        for k in 0..j {
            dj -= a[k * lda + j] * w[k];
        }
        if !dj.is_finite() {
            return Err(KernelError::NonFinitePivot { column: col0 + j });
        }
        if dj.modulus() < small_pivot_threshold {
            repaired += 1;
            let sign = if dj.re() < 0.0 { -1.0 } else { 1.0 };
            dj = T::from_f64(sign * small_pivot_threshold);
        }
        if dj.modulus() == 0.0 {
            return Err(KernelError::ZeroPivot { column: col0 + j });
        }
        // BOUNDS: as above, k < j < i < n.
        d[j] = dj;
        a[j * lda + j] = dj;
        let inv = dj.inv();
        // l_ij = (a_ij - Σ_k l_ik (l_jk d_k)) / d_j
        for i in (j + 1)..n {
            let mut v = a[j * lda + i];
            for k in 0..j {
                v -= a[k * lda + i] * w[k];
            }
            a[j * lda + i] = v * inv;
        }
    }
    Ok(repaired)
}

/// Scale the columns of a block `B` (`m×n`, column-major) by the inverse
/// diagonal: `B ← B · D⁻¹`. Applied to the off-diagonal blocks of an LDLᵀ
/// panel after the unit TRSM, completing `A_i ← A_i L⁻ᵀ D⁻¹`.
pub fn ldlt_apply_diag<T: Scalar>(m: usize, n: usize, d: &[T], b: &mut [T], ldb: usize) {
    debug_assert!(d.len() >= n);
    for (j, &dj) in d.iter().enumerate().take(n) {
        let inv = dj.inv();
        // BOUNDS: j < n against the caller's m×n extent in `b`.
        for v in &mut b[j * ldb..j * ldb + m] {
            *v *= inv;
        }
    }
}

/// Form `W = D·Bᵀ` for a block `B` (`m×n`) into the front of `w` (`n×m`,
/// packed): `w[i, j] = d_i · b[j, i]` — the staging step that turns the
/// trailing update of [`ldlt`] into a plain GEMM.
fn scale_transpose<T: Scalar>(m: usize, n: usize, d: &[T], b: &[T], ldb: usize, w: &mut [T]) {
    // BOUNDS: j < m, i < n against ldlt's block extents (`b` holds m×n at
    // ldb, `d` n, `w` n·m <= NB² elements).
    for (wj, j) in w[..n * m].chunks_exact_mut(n).zip(0..) {
        for (i, wi) in wj.iter_mut().enumerate() {
            *wi = d[i] * b[i * ldb + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;
    use crate::smallblas::reconstruct_ldlt;

    fn sym_indefinite(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        let mut a = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..=j {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let v = (s % 2000) as f64 / 1000.0 - 1.0;
                a[j * n + i] = v;
                a[i * n + j] = v;
            }
            // Strong diagonal with alternating sign: indefinite but far
            // from singular, so no pivoting is genuinely needed.
            a[j * n + j] = if j % 2 == 0 { 4.0 } else { -4.0 };
        }
        a
    }

    #[test]
    fn factor_reconstructs_real_indefinite() {
        for n in [1, 2, 5, 9, 17] {
            let a0 = sym_indefinite(n, 3 + n as u64);
            let mut a = a0.clone();
            let mut d = vec![0.0; n];
            let repaired = ldlt(n, &mut a, n, &mut d, 0.0).unwrap();
            assert_eq!(repaired, 0);
            let r = reconstruct_ldlt(n, &a, n, &d);
            for j in 0..n {
                for i in j..n {
                    assert!(
                        (r[j * n + i] - a0[j * n + i]).abs() < 1e-9,
                        "n={n} ({i},{j}): {} vs {}",
                        r[j * n + i],
                        a0[j * n + i]
                    );
                }
            }
        }
    }

    #[test]
    fn factor_reconstructs_complex_symmetric() {
        // Complex *symmetric* (not Hermitian), like the paper's pmlDF.
        let n = 6;
        let mut a0 = vec![C64::new(0.0, 0.0); n * n];
        let mut s = 77u64;
        for j in 0..n {
            for i in 0..=j {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let v = C64::new((s % 100) as f64 / 50.0 - 1.0, ((s >> 8) % 100) as f64 / 50.0 - 1.0);
                a0[j * n + i] = v;
                a0[i * n + j] = v; // plain symmetry, no conjugate
            }
            a0[j * n + j] = C64::new(3.0, 1.0 + j as f64 * 0.1);
        }
        let mut a = a0.clone();
        let mut d = vec![C64::new(0.0, 0.0); n];
        ldlt(n, &mut a, n, &mut d, 0.0).unwrap();
        let r = reconstruct_ldlt(n, &a, n, &d);
        for j in 0..n {
            for i in j..n {
                assert!((r[j * n + i] - a0[j * n + i]).modulus() < 1e-9);
            }
        }
    }

    #[test]
    fn static_pivoting_repairs_small_pivots() {
        // Leading pivot is tiny: static pivoting must bump it.
        let mut a = vec![1e-30, 1.0, 1.0, 2.0];
        let mut d = vec![0.0; 2];
        let repaired = ldlt(2, &mut a, 2, &mut d, 1e-8).unwrap();
        assert_eq!(repaired, 1);
        assert_eq!(d[0], 1e-8);
        assert!(d.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn zero_pivot_detected_without_threshold() {
        let mut a = vec![0.0, 1.0, 1.0, 2.0];
        let mut d = vec![0.0; 2];
        let err = ldlt(2, &mut a, 2, &mut d, 0.0).unwrap_err();
        assert_eq!(err, KernelError::ZeroPivot { column: 0 });
    }

    #[test]
    fn scale_transpose_matches_definition() {
        let m = 3;
        let n = 2;
        // B = [[1,4],[2,5],[3,6]] col-major, d = [10, 100]
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let d = vec![10.0, 100.0];
        let mut w = vec![0.0; n * m];
        scale_transpose(m, n, &d, &b, m, &mut w);
        // w[i,j] = d_i * b[j,i]; w is n×m col-major.
        assert_eq!(w, vec![10.0, 400.0, 20.0, 500.0, 30.0, 600.0]);
    }

    #[test]
    fn apply_diag_divides_columns() {
        let mut b = vec![2.0, 4.0, 9.0, 12.0];
        ldlt_apply_diag(2, 2, &[2.0, 3.0], &mut b, 2);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
    }
}

#[cfg(test)]
mod blocked_tests {
    use super::*;
    use crate::smallblas::reconstruct_ldlt;

    #[test]
    fn blocked_path_reconstructs_large_indefinite() {
        // n > NB exercises the tile/TRSM/GEMM sweep.
        for n in [NB + 3, NB + 29, 2 * NB + 7] {
            let mut s = n as u64 | 1;
            let mut a = vec![0.0f64; n * n];
            for j in 0..n {
                for i in 0..=j {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let v = (s % 2000) as f64 / 2000.0 - 0.5;
                    a[j * n + i] = v;
                    a[i * n + j] = v;
                }
                a[j * n + j] = if j % 4 == 0 { -(n as f64) - 3.0 } else { n as f64 + 3.0 };
            }
            let a0 = a.clone();
            let mut d = vec![0.0f64; n];
            let repaired = ldlt(n, &mut a, n, &mut d, 0.0).unwrap();
            assert_eq!(repaired, 0, "n={n}");
            let r = reconstruct_ldlt(n, &a, n, &d);
            let mut max = 0.0f64;
            for j in 0..n {
                for i in j..n {
                    max = max.max((r[j * n + i] - a0[j * n + i]).abs());
                }
            }
            assert!(max < 1e-7, "n={n}: max error {max}");
        }
    }
}
