//! Sparse panel-update kernels (the paper's §V-B "sparse GEMM").
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
//! "gaps" of the paper's Figure 3 experiment). Two strategies exist:
//!
//! * [`update_via_buffer`] — compute the product into a contiguous scratch
//!   buffer with a plain GEMM, then scatter-add into the gappy panel. This
//!   is what PaStiX does on CPUs: it trades a per-worker constant-size
//!   buffer for running at vendor-BLAS speed.
//! * [`update_scatter_direct`] — fold the scatter into the GEMM epilogue and
//!   write straight into the destination. This mirrors the paper's modified
//!   ASTRA GPU kernel, which cannot afford the extra buffer in device
//!   memory; it avoids the scratch memory at the cost of non-coalesced
//!   writes.
//!
//! The optional `d` diagonal implements the LDLᵀ variant (`C -= L·D·Lᵀ`),
//! which the paper reports costs ≈5% on the GPU kernel and is the reason
//! the generic runtimes lose to native PaStiX on `pmlDF`/`Serena` (§V-A).

use crate::gemm::{gemm, Trans};
use crate::scalar::Scalar;
use crate::simd;

/// Scatter-add parameters shared by both update variants.
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

/// Buffer-then-scatter update: `C[scatter] += α·A₁·diag(d?)·A₂ᵀ` computed
/// via a contiguous `m×n` scratch GEMM (`work` is resized as needed).
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
    // HOT: shape guards, once per call. `row_map` feeds the scatter and
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
    let scratch = m * n + if d.is_some() { k * n } else { 0 };
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

/// Direct-scatter update: same result as [`update_via_buffer`] but written
/// straight into the destination panel without scratch memory (the paper's
/// GPU-kernel strategy).
#[allow(clippy::too_many_arguments)]
pub fn update_scatter_direct<T: Scalar>(
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
    if m == 0 || n == 0 {
        return;
    }
    // HOT: shape guards, once per call — same audit as update_via_buffer:
    // a short `d` would otherwise index-panic mid-scatter after partially
    // mutating C, and the SIMD tier below reads A₁/A₂/d via raw pointers.
    assert_eq!(scatter.row_map.len(), m, "update_scatter_direct: row_map/m mismatch");
    if let Some(d) = d {
        assert!(d.len() >= k, "update_scatter_direct: d.len()={} < k={k}", d.len());
    }
    assert!(
        k == 0 || (lda1 >= m && a1.len() >= lda1 * (k - 1) + m),
        "update_scatter_direct: A1 too small for m={m} k={k} lda1={lda1}"
    );
    assert!(
        k == 0 || (lda2 >= n && a2.len() >= lda2 * (k - 1) + n),
        "update_scatter_direct: A2 too small for n={n} k={k} lda2={lda2}"
    );
    // The SIMD tier writes C through raw pointers, so the destination
    // contract must be proven here, not merely slice-panicked on by the
    // portable loops: every row_map value stays inside its column and
    // the last written element (col_offset+n-1, max row_map) is inside
    // `c`. row_map is non-empty: m >= 1 past the early return.
    let max_row = scatter.row_map.iter().copied().max().unwrap_or(0);
    assert!(
        max_row < ldc,
        "update_scatter_direct: row_map max {max_row} >= ldc={ldc}"
    );
    let last = scatter
        .col_offset
        .checked_add(n - 1)
        .and_then(|j| j.checked_mul(ldc))
        .and_then(|o| o.checked_add(max_row));
    assert!(
        last.is_some_and(|last| last < c.len()),
        "update_scatter_direct: C too small for n={n} ldc={ldc} col_offset={} max row_map {max_row}",
        scatter.col_offset
    );
    // Fused GEMM-scatter (the paper's GPU-kernel strategy at CPU SIMD
    // speed): the k-reduction runs in the 8×4 register tile and only the
    // finished tile is scattered through row_map.
    if simd::try_update_scatter(
        m,
        n,
        k,
        alpha,
        a1,
        lda1,
        a2,
        lda2,
        d,
        c,
        ldc,
        scatter.row_map,
        scatter.col_offset,
    ) {
        return;
    }
    // BOUNDS: l < k, j < n against the lda1/lda2 shape contracts;
    // row_map values address destination panel rows by construction of
    // the symbolic structure (verified in core::verify).
    for j in 0..n {
        let cj = &mut c[(scatter.col_offset + j) * ldc..];
        for l in 0..k {
            let mut s = alpha * a2[l * lda2 + j];
            if let Some(d) = d {
                s *= d[l];
            }
            if s == T::zero() {
                continue;
            }
            let a1l = &a1[l * lda1..l * lda1 + m];
            // BOUNDS: i < m = row_map.len(); row_map values address the
            // destination rows by the symbolic-structure construction.
            for (i, &av) in a1l.iter().enumerate() {
                cj[scatter.row_map[i]] += s * av;
            }
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
    fn both_variants_match_reference_with_gaps() {
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
        let mut c_dir = c0.clone();
        update_scatter_direct(m, n, k, -1.0, &a1, m, &a2, n, None, &mut c_dir, ldc, scatter);

        for i in 0..c0.len() {
            assert!((c_buf[i] - c_ref[i]).abs() < 1e-12, "buffer variant @{i}");
            assert!((c_dir[i] - c_ref[i]).abs() < 1e-12, "direct variant @{i}");
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
        let mut c_dir = c0.clone();
        update_scatter_direct(
            m, n, k, -1.0, &a1, m, &a2, n, Some(&d), &mut c_dir, ldc, scatter,
        );
        for i in 0..c0.len() {
            assert!((c_buf[i] - c_ref[i]).abs() < 1e-12);
            assert!((c_dir[i] - c_ref[i]).abs() < 1e-12);
        }
    }

    /// The destination contract must fail loudly *before* dispatch: the
    /// SIMD tier writes C through raw pointers, so a row_map value at or
    /// beyond ldc would be silent memory corruption, not a slice panic.
    #[test]
    #[should_panic(expected = "row_map max")]
    fn direct_scatter_rejects_row_map_beyond_ldc() {
        let (m, n, k) = (2, 1, 1);
        let a1 = [1.0f64; 2];
        let a2 = [1.0f64; 1];
        let row_map = [0usize, 4]; // 4 >= ldc
        let mut c = vec![0.0f64; 8];
        let scatter = Scatter { row_map: &row_map, col_offset: 0 };
        update_scatter_direct(m, n, k, 1.0, &a1, m, &a2, n, None, &mut c, 4, scatter);
    }

    #[test]
    #[should_panic(expected = "C too small")]
    fn direct_scatter_rejects_short_c() {
        let (m, n, k) = (2, 2, 1);
        let a1 = [1.0f64; 2];
        let a2 = [1.0f64; 2];
        let row_map = [0usize, 3];
        // Last write lands at (col_offset+1)*ldc + 3 = 11; c has 10.
        let mut c = vec![0.0f64; 10];
        let scatter = Scatter { row_map: &row_map, col_offset: 1 };
        update_scatter_direct(m, n, k, 1.0, &a1, m, &a2, n, None, &mut c, 4, scatter);
    }

    #[test]
    fn complex_update_variants_agree() {
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
        let mut c_dir = c0.clone();
        update_scatter_direct(m, n, k, alpha, &a1, m, &a2, n, None, &mut c_dir, ldc, scatter);
        for (x, y) in c_buf.iter().zip(&c_dir) {
            assert!((*x - *y).modulus() < 1e-12);
        }
    }
}
