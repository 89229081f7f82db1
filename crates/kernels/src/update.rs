//! The sparse panel-update kernel (the paper's §V-B "sparse GEMM").
//!
//! An update task applies the outer product of two block-sets of a source
//! panel to a *facing* destination panel:
//!
//! ```text
//!   C[R', R_b] -= A₁ · diag(d?) · A₂ᵀ
//! ```
//!
//! where `A₁` holds the source-panel rows `R'` at-and-below the facing block
//! `b`, `A₂` holds the rows `R_b` of block `b`, and the destination rows
//! `R'` sit at *non-contiguous* offsets of the destination panel (the
//! "gaps" of the paper's Figure 3 experiment).
//!
//! [`update_via_buffer`] is the one CPU strategy, and it is PaStiX's:
//! compute the product into a contiguous scratch buffer with a plain GEMM,
//! then scatter-add into the gappy panel — a per-worker constant-size
//! buffer buys vendor-BLAS speed. The paper's other form, the scatter
//! folded into the GEMM epilogue, is its *GPU* kernel (device memory cannot
//! afford the buffer); this repo models it in `gpusim::kernelmodel` and
//! does not run it on the CPU.
//!
//! The optional `d` diagonal implements the LDLᵀ variant (`C -= L·D·Lᵀ`),
//! which the paper reports costs ≈5% on the GPU kernel and is the reason
//! the generic runtimes lose to native PaStiX on `pmlDF`/`Serena` (§V-A).

use crate::gemm::{gemm, Trans};
use crate::scalar::Scalar;

/// Scatter-add parameters of an update.
///
/// `row_map[i]` gives the destination storage row (within a destination
/// column) of source row `i`; `col_offset` is the first destination column
/// written (destination columns are contiguous because a block is a
/// contiguous row range of the source panel).
#[derive(Debug, Clone, Copy)]
pub struct Scatter<'a> {
    /// Destination storage row of each source row.
    pub row_map: &'a [usize],
    /// First destination column index.
    pub col_offset: usize,
}

/// Scratch elements one `m×n×k` update needs: the `m×n` GEMM result plus,
/// for LDLᵀ, the `k×n` `D·Lᵀ` staging block. The kernel sizes its buffer
/// and the solver charges its memory ledger from this one number.
pub fn scratch_len(m: usize, n: usize, k: usize, ldlt: bool) -> usize {
    m * n + if ldlt { k * n } else { 0 }
}

/// Buffer-then-scatter update: `C[scatter] += α·A₁·diag(d?)·A₂ᵀ` computed
/// via a contiguous `m×n` scratch GEMM (`work` grows to
/// [`scratch_len`] as needed).
#[allow(clippy::too_many_arguments)]
pub fn update_via_buffer<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a1: &[T],
    lda1: usize,
    a2: &[T],
    lda2: usize,
    d: Option<&[T]>,
    work: &mut Vec<T>,
    c: &mut [T],
    ldc: usize,
    scatter: Scatter<'_>,
) {
    if m == 0 || n == 0 {
        return;
    }
    // PANIC: shape guards, once per call. `row_map` feeds the scatter and
    // a short `d` would leave stale pooled-workspace contents in the tail
    // of the D·Lᵀ staging block (the staging loop below walks `d`, not
    // `0..k`) — both must fail loudly before any write.
    assert_eq!(scatter.row_map.len(), m, "update_via_buffer: row_map/m mismatch");
    let d = d.map(|d| {
        assert!(d.len() >= k, "update_via_buffer: d.len()={} < k={k}", d.len());
        // BOUNDS: guarded by the assert on the previous line.
        &d[..k]
    });
    // Both scratch regions — the m×n GEMM result and, for LDLᵀ, the k×n
    // D·Lᵀ staging block — are carved from the single caller-pooled
    // buffer, so a per-worker workspace amortizes to zero allocations
    // per update task once it reaches the panel high-water mark.
    let scratch = scratch_len(m, n, k, d.is_some());
    if work.len() < scratch {
        // ALLOC: grow-only pooled workspace — reallocates (and
        // zero-fills) only until the high-water panel size is reached,
        // then is free for the whole run. Stale contents are harmless:
        // the GEMM runs with beta = 0 (scale_c overwrites W1) and the
        // D·Lᵀ staging loop writes every element of W2 (its `d` slice is
        // exactly `k` long — asserted above).
        work.resize(scratch, T::zero());
    }
    // BOUNDS: work.len() >= scratch = m*n (+ k*n) by the resize above.
    let (w1, w2) = work[..scratch].split_at_mut(m * n);
    match d {
        None => {
            gemm(
                Trans::NoTrans,
                Trans::Trans,
                m,
                n,
                k,
                T::one(),
                a1,
                lda1,
                a2,
                lda2,
                T::zero(),
                w1,
                m,
            );
        }
        Some(d) => {
            // W2 = diag(d)·A₂ᵀ is small (k×n); materialize it so the big
            // GEMM stays a plain product. This is the panel-level D·Lᵀ
            // buffer of the native PaStiX scheduler — staged in the tail
            // of `work` rather than a fresh vec per call.
            // BOUNDS: w2 has length k*n; d has length exactly k (sliced
            // after the shape assert above), so every element of W2 is
            // written; j < n by the caller's shape contract.
            for j in 0..n {
                for (l, &dl) in d.iter().enumerate() {
                    w2[j * k + l] = dl * a2[l * lda2 + j];
                }
            }
            gemm(
                Trans::NoTrans,
                Trans::NoTrans,
                m,
                n,
                k,
                T::one(),
                a1,
                lda1,
                w2,
                k,
                T::zero(),
                w1,
                m,
            );
        }
    }
    // Scatter-add the contiguous result into the gappy destination panel.
    for j in 0..n {
        // BOUNDS: w1 is exactly m*n; j < n so j*m+m <= m*n, and row_map
        // values address the destination panel rows by construction of
        // the symbolic structure (verified in core::verify).
        let wj = &w1[j * m..j * m + m];
        let cj = &mut c[(scatter.col_offset + j) * ldc..];
        for (i, &w) in wj.iter().enumerate() {
            cj[scatter.row_map[i]] += alpha * w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    /// Dense reference: C_full[dest_row, dest_col] accumulation.
    /// Mirrors the BLAS-style argument list of `scatter_update`.
    #[allow(clippy::too_many_arguments)]
    fn reference<T: Scalar>(
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

    fn rnd(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn update_matches_reference_with_gaps() {
        let (m, n, k) = (6, 3, 4);
        let a1 = rnd(k * m, 1);
        let a2 = rnd(k * n, 2);
        // Gappy destination: 10 storage rows, source rows land at
        // scattered offsets, in increasing order as in a real panel.
        let row_map = [0usize, 2, 3, 6, 7, 9];
        let ldc = 10;
        let ncols = 5;
        let c0 = rnd(ldc * ncols, 3);
        let scatter = Scatter {
            row_map: &row_map,
            col_offset: 1,
        };

        let mut c_ref = c0.clone();
        reference(m, n, k, -1.0, &a1, m, &a2, n, None, &mut c_ref, ldc, scatter);

        let mut c_buf = c0.clone();
        let mut work = Vec::new();
        update_via_buffer(
            m, n, k, -1.0, &a1, m, &a2, n, None, &mut work, &mut c_buf, ldc, scatter,
        );
        for i in 0..c0.len() {
            assert!((c_buf[i] - c_ref[i]).abs() < 1e-12, "@{i}");
        }
        // Rows not in the map and columns before col_offset are untouched.
        for j in 0..ncols {
            for r in 0..ldc {
                let touched = j >= 1 && j < 1 + n && row_map.contains(&r);
                if !touched {
                    assert_eq!(c_buf[j * ldc + r], c0[j * ldc + r]);
                }
            }
        }
    }

    #[test]
    fn ldlt_diag_variant_matches_reference() {
        let (m, n, k) = (4, 2, 3);
        let a1 = rnd(k * m, 5);
        let a2 = rnd(k * n, 6);
        let d = rnd(k, 7);
        let row_map = [1usize, 2, 4, 5];
        let ldc = 7;
        let c0 = rnd(ldc * 3, 8);
        let scatter = Scatter {
            row_map: &row_map,
            col_offset: 0,
        };
        let mut c_ref = c0.clone();
        reference(m, n, k, -1.0, &a1, m, &a2, n, Some(&d), &mut c_ref, ldc, scatter);
        let mut c_buf = c0.clone();
        let mut work = Vec::new();
        update_via_buffer(
            m, n, k, -1.0, &a1, m, &a2, n, Some(&d), &mut work, &mut c_buf, ldc, scatter,
        );
        for i in 0..c0.len() {
            assert!((c_buf[i] - c_ref[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_update_matches_reference() {
        let (m, n, k) = (5, 4, 3);
        let re1 = rnd(k * m, 11);
        let im1 = rnd(k * m, 12);
        let a1: Vec<C64> = re1
            .iter()
            .zip(&im1)
            .map(|(&r, &i)| C64::new(r, i))
            .collect();
        let re2 = rnd(k * n, 13);
        let im2 = rnd(k * n, 14);
        let a2: Vec<C64> = re2
            .iter()
            .zip(&im2)
            .map(|(&r, &i)| C64::new(r, i))
            .collect();
        let row_map = [0usize, 1, 3, 4, 6];
        let ldc = 8;
        let c0: Vec<C64> = rnd(ldc * n, 15)
            .iter()
            .map(|&r| C64::new(r, -r))
            .collect();
        let scatter = Scatter {
            row_map: &row_map,
            col_offset: 0,
        };
        let alpha = C64::new(-1.0, 0.0);
        let mut c_buf = c0.clone();
        let mut work = Vec::new();
        update_via_buffer(
            m, n, k, alpha, &a1, m, &a2, n, None, &mut work, &mut c_buf, ldc, scatter,
        );
        let mut c_ref = c0.clone();
        reference(m, n, k, alpha, &a1, m, &a2, n, None, &mut c_ref, ldc, scatter);
        for (x, y) in c_buf.iter().zip(&c_ref) {
            assert!((*x - *y).modulus() < 1e-12);
        }
    }
}
