//! Differential fuzz: the SIMD tier against the portable kernels.
//!
//! The dispatched [`dagfact_kernels::gemm`] front door is compared against
//! [`dagfact_kernels::gemm_portable`], for `f64` and for `C64`, over a
//! SplitMix64-seeded sweep of all nine `Trans` pairs (for `C64`
//! `ConjTrans ≠ Trans`, so the conjugate arms are not vacuous), the shape
//! set `{0,1,2,3,7,8,9,31,32,33}` for each of `m,n,k` (crossing
//! register-tile edges 7/8/9 and cache-ish 31/32/33; `m` also takes 4, 5
//! and 11 — the 4-row complex tile, its ≤ 3-row remainder — and the `zmm`
//! tile edges 23/24/25 and 47/48/49, and `n` takes 5, 15/16/17 and the
//! `audi_llt` median update width 126 = 31·4 + 2 = 15·8 + 6, the
//! column-remainder tiles of both strips), odd leading-dimension strides,
//! and `alpha/beta ∈ {0, 1, -1, ½, ½−¼i}` (the last is ½ for `f64`).
//!
//! Tolerance: where the dispatch *declines* (`B` transposed under a
//! transposed `A`, fewer rows than one register tile under an untransposed
//! one, a contraction shorter than one vector under the dot tile, scalar
//! hosts) both calls run the identical code path and must agree
//! **bitwise**. Where a SIMD tier runs — `A` untransposed with `m ≥ 8`
//! real / `4` complex rows, or `op(A)·B` with `B` untransposed and `k ≥ 4`
//! / `2` — the licensed differences are FMA contraction and, for the dot
//! tile, one partial sum per vector lane, so the error is bounded by a few
//! ulp *of the accumulated magnitude*: per component we assert `|Δ| ≤
//! 4·ulp(|y|)` or `|Δ| ≤ 4ε·(|αβ|-scaled magnitude bound)` — far below any
//! indexing or tile-edge bug, which shows up at the magnitude of the
//! operands themselves.
//!
//! The blocked [`dagfact_kernels::trsm`] (small triangles + `gemm`) is
//! held against a dense substitution reference the same way, on
//! whichever tier dispatch selects.

use dagfact_kernels::gemm::{gemm, gemm_portable, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{update_via_buffer, Scatter};
use dagfact_kernels::{force_isa, getrf, ldlt, potrf, Isa, Scalar, C64};

mod common;
use common::{reference_trsm, reference_update};

/// SplitMix64 — the seeded generator of the sweep.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in (-1, 1), never exactly zero (keeps the skip-zero
    /// shortcuts of the portable kernel out of play).
    fn unit(&mut self) -> f64 {
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let s = if self.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
        s * (v * 0.999 + 0.001)
    }

    fn fill(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }
}

const SIZES: [usize; 10] = [0, 1, 2, 3, 7, 8, 9, 31, 32, 33];
/// `m` also crosses the 4-row complex tile and its ≤ 3-row remainder, and
/// the 24-row `zmm` tile once and twice.
const M_SIZES: [usize; 19] = [0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 23, 24, 25, 31, 32, 33, 47, 48, 49];
/// `n` also crosses the column-remainder tiles of the 4- and the 8-column
/// strip (5 = 4 + 1, 17 = 2·8 + 1, 126 = 31·4 + 2 = 15·8 + 6).
const N_SIZES: [usize; 15] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 126];
/// `(re, im)` of α and β; the imaginary part is dropped for `f64`.
const COEFFS: [(f64, f64); 5] = [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.5, 0.0), (0.5, -0.25)];

/// `|x - y|` within 4 ulp of either value, or within a 4ε-scaled bound of
/// the accumulated magnitude `mag` (covers catastrophic cancellation,
/// where value-relative ulp comparison is meaningless).
fn close(x: f64, y: f64, mag: f64) -> bool {
    if x == y {
        return true;
    }
    let diff = (x - y).abs();
    let ulp = f64::EPSILON * x.abs().max(y.abs());
    diff <= 4.0 * ulp || diff <= 4.0 * f64::EPSILON * mag
}

/// Largest modulus in `v`.
fn max_modulus<T: Scalar>(v: &[T]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.modulus()))
}

/// A vector of `n` scalars with every component drawn from [`SplitMix64::unit`].
fn fill_scalars<T: Scalar>(rng: &mut SplitMix64, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| T::from_parts(rng.unit(), if T::IS_COMPLEX { rng.unit() } else { 0.0 }))
        .collect()
}

/// Dispatched `gemm::<T>` against `gemm_portable::<T>` over the sweep of
/// the module header. Each component of an output element is held to
/// [`close`] against the element's modulus bound `|α|·k·max|a|·max|b| +
/// |β|·max|c₀|`.
fn gemm_sweep<T: Scalar>(seed: u64) {
    let trans = [Trans::NoTrans, Trans::Trans, Trans::ConjTrans];
    // Elements per `ymm`: the axpy tile is two of them tall, the dot tile
    // needs one of them of contraction.
    let lanes = dagfact_kernels::simd::MR * std::mem::size_of::<f64>() / (2 * std::mem::size_of::<T>());
    let mut rng = SplitMix64(seed);
    let mut coeff_ix = 0usize;
    let mut cases = 0usize;
    for &ta in &trans {
        for &tb in &trans {
            for &m in &M_SIZES {
                for &n in &N_SIZES {
                    for &k in &SIZES {
                        // Round-robin the coefficient grid so every
                        // (α, β) pair recurs many times across shapes.
                        let (are, aim) = COEFFS[coeff_ix % 5];
                        let (bre, bim) = COEFFS[(coeff_ix / 5) % 5];
                        let (alpha, beta) = (T::from_parts(are, aim), T::from_parts(bre, bim));
                        coeff_ix += 1;
                        // Odd strides beyond the minimal leading dimension.
                        let pad = 1 + 2 * ((coeff_ix / 25) % 3); // 1, 3, 5
                        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
                        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
                        let lda = ar + pad;
                        let ldb = br + pad;
                        let ldc = m + pad;
                        let a: Vec<T> = fill_scalars(&mut rng, lda * ac.max(1));
                        let b: Vec<T> = fill_scalars(&mut rng, ldb * bc.max(1));
                        let c0: Vec<T> = fill_scalars(&mut rng, ldc * n.max(1));
                        let mut c_simd = c0.clone();
                        let mut c_port = c0.clone();
                        gemm(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_simd, ldc,
                        );
                        gemm_portable(
                            ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_port, ldc,
                        );
                        let mag = alpha.modulus() * k as f64 * max_modulus(&a) * max_modulus(&b)
                            + beta.modulus() * max_modulus(&c0);
                        // What dispatch takes: the axpy tile for A
                        // untransposed and a full tile of rows, the dot
                        // tile for op(A)·B and a full vector of k.
                        let simd_shape = if ta == Trans::NoTrans {
                            m >= 2 * lanes
                        } else {
                            tb == Trans::NoTrans && k >= lanes
                        };
                        let shared_path =
                            dagfact_kernels::isa() == Isa::Scalar || !simd_shape;
                        for (i, (&x, &y)) in c_simd.iter().zip(&c_port).enumerate() {
                            for (x, y) in [(x.re(), y.re()), (x.im(), y.im())] {
                                if shared_path {
                                    assert!(
                                        x == y || (x.is_nan() && y.is_nan()),
                                        "shared path must be bitwise equal: {} \
                                         {ta:?}x{tb:?} m={m} n={n} k={k} @{i}: {x:?} vs {y:?}",
                                        T::PREC
                                    );
                                } else {
                                    assert!(
                                        close(x, y, mag),
                                        "SIMD drift beyond bound: {} {ta:?}x{tb:?} m={m} n={n} k={k} \
                                         α={alpha} β={beta} @{i}: {x:?} vs {y:?} (mag {mag:e})",
                                        T::PREC
                                    );
                                }
                            }
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 9 * M_SIZES.len() * N_SIZES.len() * SIZES.len());
}

#[test]
fn gemm_simd_matches_portable_across_shapes_trans_and_strides() {
    gemm_sweep::<f64>(0xDA6F_AC75_9E37_79B9);
    gemm_sweep::<C64>(0xDA6F_AC75_9E37_C064);
}

/// Build a strictly-increasing gappy row map of length `m` into `rows`
/// storage rows.
fn gappy_row_map(rng: &mut SplitMix64, m: usize, rows: usize) -> Vec<usize> {
    assert!(rows > 2 * m);
    let mut map = Vec::with_capacity(m);
    let mut next = 0usize;
    let slack = rows - 2 * m;
    for i in 0..m {
        next += (rng.next_u64() as usize % (slack / m.max(1) + 2)).min(2) + (i > 0) as usize;
        map.push(next.min(rows - (m - i)));
        next = *map.last().unwrap();
    }
    map
}

/// `update_via_buffer` on whichever tier dispatch selects (the `make
/// check-kernels` legs run this suite dispatched, under
/// `DAGFACT_FORCE_SCALAR=1` and with the `simd` feature off) against the
/// dense triple-loop reference, over register-tile edges, gappy row maps,
/// a column offset, padded strides and `d` on/off. The two associate
/// differently (per-`l` axpys then one scatter-add vs. one dot product per
/// element), so the bound is rounding at the accumulated magnitude.
fn update_sweep<T: Scalar>(seed: u64) {
    let mut rng = SplitMix64(seed);
    let (fill, max) = (fill_scalars::<T>, max_modulus::<T>);
    for &m in &[1usize, 7, 8, 9, 16, 33] {
        for &n in &[1usize, 3, 4, 5, 32] {
            for &k in &[1usize, 2, 8, 31] {
                for d_present in [false, true] {
                    let lda1 = m + 1;
                    let lda2 = n + 3;
                    let a1 = fill(&mut rng, lda1 * k);
                    let a2 = fill(&mut rng, lda2 * k);
                    let d = fill(&mut rng, k);
                    let dref = d_present.then_some(&d[..]);
                    let rows = 2 * m + 3;
                    let row_map = gappy_row_map(&mut rng, m, rows);
                    let ldc = rows;
                    let ncols = n + 2;
                    let c0 = fill(&mut rng, ldc * ncols);
                    let scatter = Scatter { row_map: &row_map, col_offset: 1 };
                    let alpha = -T::one();
                    let mut c_ref = c0.clone();
                    reference_update(
                        m, n, k, alpha, &a1, lda1, &a2, lda2, dref, &mut c_ref, ldc, scatter,
                    );
                    let mut c_buf = c0.clone();
                    let mut work = Vec::new();
                    update_via_buffer(
                        m, n, k, alpha, &a1, lda1, &a2, lda2, dref, &mut work, &mut c_buf, ldc,
                        scatter,
                    );
                    let dmax = if d_present { max(&d) } else { 1.0 };
                    let mag = k as f64 * max(&a1) * max(&a2) * dmax + max(&c0);
                    for (i, (&x, &y)) in c_buf.iter().zip(&c_ref).enumerate() {
                        let diff = (x - y).modulus();
                        assert!(
                            diff <= 8.0 * f64::EPSILON * mag,
                            "buffer vs reference: m={m} n={n} k={k} d={d_present} @{i}: \
                             {x:?} vs {y:?} (mag {mag:e})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn update_via_buffer_matches_dense_reference_over_sweep() {
    update_sweep::<f64>(0x5EED_CAFE);
    update_sweep::<C64>(0x5EED_C0DE);
}

/// The blocked `trsm` (substitution on small diagonal triangles, `gemm`
/// for the rest — dispatched, forced-scalar or feature-off, as the suite
/// is run) against dense substitution on `op(T)`, over every
/// side/uplo/trans/diag combination, sizes on both sides of the block
/// edge, and a padded `ldt`/`ldb`. Off-diagonal entries scale with `1/k`,
/// so the triangle is diagonally dominant and the bound is rounding at
/// the solution's magnitude.
fn trsm_sweep<T: Scalar>(seed: u64) {
    let mut rng = SplitMix64(seed);
    let mut draw = |n: usize, scale: f64| -> Vec<T> {
        (0..n)
            .map(|_| {
                let (re, im) = (rng.unit(), if T::IS_COMPLEX { rng.unit() } else { 0.0 });
                T::from_parts(re * scale, im * scale)
            })
            .collect()
    };
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::NoTrans, Trans::Trans, Trans::ConjTrans] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    // The triangle's order is `m` on the left, `n` on the
                    // right: each side gets the sizes that cross its blocks.
                    let ns: &[usize] =
                        if side == Side::Left { &[1, 3, 16, 17] } else { &[1, 3, 16, 17, 33, 48, 120, 250] };
                    for m in [1usize, 7, 8, 31, 32, 33, 65, 200] {
                        for &n in ns {
                            let k = if side == Side::Left { m } else { n };
                            let (ldt, ldb) = (k + 3, m + 1);
                            let mut t = draw(ldt * k, 1.0 / k as f64);
                            for d in 0..k {
                                t[d * ldt + d] = T::from_f64(2.0) + t[d * ldt + d].scale(k as f64);
                            }
                            let b0 = draw(ldb * n, 1.0);
                            let mut x = b0.clone();
                            trsm(side, uplo, trans, diag, m, n, &t, ldt, &mut x, ldb);
                            let mut x_ref = b0.clone();
                            reference_trsm(side, uplo, trans, diag, m, n, &t, ldt, &mut x_ref, ldb);
                            let mag = x_ref.iter().fold(1.0f64, |a, v| a.max(v.modulus()));
                            for (i, (&u, &v)) in x.iter().zip(&x_ref).enumerate() {
                                assert!(
                                    (u - v).modulus() <= 64.0 * f64::EPSILON * mag,
                                    "trsm vs reference: {side:?} {uplo:?} {trans:?} {diag:?} \
                                     m={m} n={n} @{i}: {u:?} vs {v:?} (mag {mag:e})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn blocked_trsm_matches_dense_reference_over_sweep() {
    trsm_sweep::<f64>(0x7125_0001);
    trsm_sweep::<C64>(0x7125_0002);
}

// ---------------------------------------------------------------------
// Shape-contract regressions (the PR 9 bug burn-down)
// ---------------------------------------------------------------------

/// Pre-fix, a short `d` silently left stale pooled-workspace contents in
/// the tail of the D·Lᵀ staging block (`d.iter().take(k)` stops early);
/// the GEMM then consumed garbage. Post-fix it must refuse up front —
/// this test *fails* on the pre-fix code, which completes without
/// panicking.
#[test]
#[should_panic(expected = "update_via_buffer: d.len()")]
fn update_via_buffer_rejects_short_d() {
    let (m, n, k) = (4, 3, 5);
    let a1 = vec![1.0f64; m * k];
    let a2 = vec![1.0f64; n * k];
    let d_short = vec![2.0f64; k - 2];
    let row_map = [0usize, 1, 2, 3];
    // Poisoned pooled workspace: pre-fix these NaNs flowed into C.
    let mut work = vec![f64::NAN; m * n + k * n];
    let mut c = vec![0.0f64; 8 * n];
    update_via_buffer(
        m,
        n,
        k,
        -1.0,
        &a1,
        m,
        &a2,
        n,
        Some(&d_short),
        &mut work,
        &mut c,
        8,
        Scatter { row_map: &row_map, col_offset: 0 },
    );
}

/// The `c.len()` contract is a real assert now: an undersized `C` with a
/// large `ldc` must fail before any element is written, not slice-panic
/// mid-update in release.
#[test]
#[should_panic(expected = "gemm: C buffer too small")]
fn gemm_rejects_undersized_c_before_writing() {
    let a = vec![1.0f64; 4];
    let b = vec![1.0f64; 4];
    // m=2, n=2 with ldc=100: needs 102 elements, only 4 supplied.
    let mut c = vec![0.0f64; 4];
    gemm(
        Trans::NoTrans,
        Trans::Trans,
        2,
        2,
        2,
        1.0,
        &a,
        2,
        &b,
        2,
        0.0,
        &mut c,
        100,
    );
}

/// `trsm`'s shape contract is a real assert too: the blocked left solve
/// forms sub-slices from `ldt`/`ldb`, so a short `T` must fail before `B`
/// is touched, in release as in debug.
#[test]
#[should_panic(expected = "trsm: T buffer too small")]
fn trsm_left_rejects_undersized_t_before_writing() {
    let (m, n) = (40, 2);
    let t = vec![1.0f64; m * m - 1];
    let mut b = vec![1.0f64; m * n];
    trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, m, n, &t, m, &mut b, m);
}

/// Same contract from the right: `ldb < m` would alias columns of `B`.
#[test]
#[should_panic(expected = "trsm: B buffer too small")]
fn trsm_right_rejects_short_ldb_before_writing() {
    let (m, n) = (4, 3);
    let t = vec![1.0f64; n * n];
    let mut b = vec![1.0f64; m * n];
    trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, m, n, &t, n, &mut b, m - 1);
}

/// The three diagonal-block factorizations hold the same contract: with
/// `debug_assert!` only, a release build slice-panicked somewhere in the
/// sweep with the block half-factored.
#[test]
#[should_panic(expected = "potrf: A buffer too small")]
fn potrf_rejects_short_buffer_before_writing() {
    let n = 60;
    let mut a = vec![1.0f64; n * n - 1];
    let _ = potrf(n, &mut a, n);
}

#[test]
#[should_panic(expected = "ldlt: A buffer too small")]
fn ldlt_rejects_short_buffer_before_writing() {
    let n = 60;
    let (mut a, mut d) = (vec![1.0f64; n * n - 1], vec![0.0f64; n]);
    let _ = ldlt(n, &mut a, n, &mut d, 0.0);
}

#[test]
#[should_panic(expected = "getrf: A buffer too small")]
fn getrf_rejects_short_buffer_before_writing() {
    let n = 60;
    let mut a = vec![1.0f64; n * (n - 1)];
    let _ = getrf(n, &mut a, n - 1, 0.0);
}

/// A row-map / m mismatch fails up front, before the GEMM runs.
#[test]
#[should_panic(expected = "update_via_buffer: row_map/m mismatch")]
fn update_via_buffer_rejects_short_row_map() {
    let (m, n, k) = (4, 2, 2);
    let a1 = vec![1.0f64; m * k];
    let a2 = vec![1.0f64; n * k];
    let row_map = [0usize, 1]; // too short for m = 4
    let mut c = vec![0.0f64; 8 * n];
    update_via_buffer(
        m,
        n,
        k,
        -1.0,
        &a1,
        m,
        &a2,
        n,
        None,
        &mut Vec::new(),
        &mut c,
        8,
        Scatter { row_map: &row_map, col_offset: 0 },
    );
}

/// Seconds of `calls` back-to-back `C ← C − op(A)·op(B)` on one packed
/// shape, through `gemm` when `dispatched`, else `gemm_portable`.
fn time_gemm<T: Scalar>(
    dispatched: bool,
    (ta, tb): (Trans, Trans),
    (m, n, k): (usize, usize, usize),
    (a, b, c): (&[T], &[T], &mut [T]),
    calls: usize,
) -> f64 {
    let kernel = if dispatched { gemm::<T> } else { gemm_portable::<T> };
    let lda = if ta == Trans::NoTrans { m } else { k };
    let ldb = if tb == Trans::NoTrans { k } else { n };
    let t0 = std::time::Instant::now();
    for _ in 0..calls {
        kernel(ta, tb, m, n, k, -T::one(), a, lda, b, ldb, T::one(), c, m);
    }
    t0.elapsed().as_secs_f64()
}

fn median(mut s: Vec<f64>) -> f64 {
    s.sort_by(f64::total_cmp);
    s[s.len() / 2]
}

/// Geometric-mean speedup of dispatched over portable `gemm::<T>` on
/// `shapes`, printing each shape's ratio and rate beside the dispatched
/// `f64` rate of the same shape measured in the same interleaved loop — a
/// shared host's level can move 2× by the minute, so a rate without its
/// control is not evidence. Under `Isa::Avx512` also the geometric-mean
/// speedup of the dispatched `zmm` tile over the `ymm` one
/// (`force_isa(Isa::Avx2)`) on the `A`-untransposed shapes, in the same
/// loop; `None` below it.
fn gemm_ratio<T: Scalar>(shapes: &[((Trans, Trans), usize, usize, usize)]) -> (f64, Option<f64>) {
    let tier = dagfact_kernels::isa();
    let mut rng = SplitMix64(7);
    let (mut log_speedup, mut log_width, mut widths) = (0.0, 0.0, 0);
    for &(tt, m, n, k) in shapes {
        let (a, b, mut c) =
            (fill_scalars::<T>(&mut rng, m * k), fill_scalars::<T>(&mut rng, n * k), fill_scalars::<T>(&mut rng, m * n));
        let (a64, b64, mut c64) = (rng.fill(m * k), rng.fill(n * k), rng.fill(m * n));
        let flops = dagfact_kernels::scalar::gemm_flops::<T>(m, n, k);
        let calls = ((1u64 << 26) as f64 / flops).max(1.0) as usize; // ~67 MFlop per sample
        let calls64 = ((1 << 26) / (2 * m * n * k)).max(1);
        let wide = tier == Isa::Avx512 && tt.0 == Trans::NoTrans;
        // portable, dispatched, f64 control, dispatched at `ymm` width
        let mut secs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for _ in 0..9 {
            secs[0].push(time_gemm(false, tt, (m, n, k), (&a, &b, &mut c), calls));
            secs[1].push(time_gemm(true, tt, (m, n, k), (&a, &b, &mut c), calls));
            secs[2].push(time_gemm(true, tt, (m, n, k), (&a64, &b64, &mut c64), calls64));
            if wide {
                force_isa(Isa::Avx2);
                secs[3].push(time_gemm(true, tt, (m, n, k), (&a, &b, &mut c), calls));
                force_isa(tier);
            }
        }
        let [portable, dispatched, control, ymm] = secs.map(|s| if s.is_empty() { f64::NAN } else { median(s) });
        let width = if wide { format!("; zmm {:.2}x ymm", ymm / dispatched) } else { String::new() };
        println!(
            "{}gemm {:?}x{:?} {m}x{n}x{k}: dispatched {:.2}x portable ({:.1} GFlop/s; f64 control {:.1}{width})",
            T::PREC,
            tt.0,
            tt.1,
            portable / dispatched,
            flops * calls as f64 / dispatched / 1e9,
            (2 * m * n * k * calls64) as f64 / control / 1e9,
        );
        log_speedup += (portable / dispatched).ln() / shapes.len() as f64;
        if wide {
            log_width += (ymm / dispatched).ln();
            widths += 1;
        }
    }
    (log_speedup.exp(), (widths > 0).then(|| (log_width / widths as f64).exp()))
}

/// Release-only ratio gate (`make check-kernels`; prints, writes nothing):
/// the dispatched GEMM must beat the portable tier by ≥ 1.5× in geometric
/// mean over the shapes the solver produces, per element type — the
/// tall-skinny `C ← C − A·Bᵀ` supernodal updates, among them `audi_llt`'s
/// flop-weighted median 1012×126×120 (a two-column remainder strip at
/// `ymm` width, six at `zmm`), and
/// the backward solve's `C ← C − Aᵀ·B` at 16 right-hand sides; for `C64`
/// `pml_zldlt`'s median update 378×115×90 (LDLᵀ stages `D·Lᵀ`, so its
/// update is `NoTrans×NoTrans`) and its backward sweep. On an AVX-512
/// host the `zmm` tile must also beat the `ymm` one by ≥ 1.3× (`f64`) and
/// ≥ 1.2× (`C64`) in geometric mean over the update shapes (the backward
/// solve's dot tile is `ymm` at both tiers). Absolute rates are
/// `kernels.gemm_*_gflops` in BENCHMARK.json.
#[test]
#[ignore = "timing ratio: release mode only, run by `make check-kernels`"]
fn dispatched_gemm_is_at_least_1_5x_portable_on_update_shapes() {
    if dagfact_kernels::isa() == Isa::Scalar {
        eprintln!("SKIPPED: host has no AVX2 — the SIMD speedup is not measurable here");
        return;
    }
    const UPDATE: (Trans, Trans) = (Trans::NoTrans, Trans::Trans);
    const STAGED: (Trans, Trans) = (Trans::NoTrans, Trans::NoTrans);
    const BACKWARD: (Trans, Trans) = (Trans::Trans, Trans::NoTrans);
    let (real, real_width) = gemm_ratio::<f64>(&[
        (UPDATE, 256, 32, 32),
        (UPDATE, 512, 32, 64),
        (UPDATE, 1024, 32, 64),
        (UPDATE, 512, 64, 64),
        (UPDATE, 1012, 126, 120),
        (BACKWARD, 120, 16, 1000),
    ]);
    let (complex, complex_width) = gemm_ratio::<C64>(&[
        (STAGED, 378, 115, 90),
        (UPDATE, 512, 32, 64),
        (UPDATE, 1000, 16, 120),
        (BACKWARD, 90, 16, 400),
    ]);
    let mut rng = SplitMix64(7);
    // The panel task's right solve `X·Lᵀ = B` (m·n² flops), printed beside
    // what this loop measured on the reference host for the
    // column-at-a-time solve on the axpy tier PR 20 deleted. Not gated:
    // the tier under it is the one gated above.
    for (m, n, before) in [(892usize, 120usize, 9.3), (400, 60, 9.3), (200, 24, 10.4), (100, 8, 12.0)] {
        let mut t = rng.fill(n * n);
        for d in 0..n {
            t[d * n + d] = 2.0 + n as f64 * t[d * n + d].abs();
        }
        let (b0, mut x) = (rng.fill(m * n), vec![0.0; m * n]);
        let calls = ((1 << 26) / (m * n * n)).max(1);
        let mut secs = Vec::new();
        for _ in 0..9 {
            let t0 = std::time::Instant::now();
            for _ in 0..calls {
                x.copy_from_slice(&b0);
                trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, m, n, &t, n, &mut x, m);
            }
            secs.push(t0.elapsed().as_secs_f64());
        }
        let gflops = (m * n * n * calls) as f64 / median(secs) / 1e9;
        println!("trsm Right Lower Trans {m}x{n}: {gflops:.1} GFlop/s (column-at-a-time: {before})");
    }
    println!("geometric mean: f64 {real:.2}x, C64 {complex:.2}x (gate 1.5x each)");
    assert!(real >= 1.5, "solver-shape f64 GEMM speedup {real:.2}x < 1.5x");
    assert!(complex >= 1.5, "solver-shape C64 GEMM speedup {complex:.2}x < 1.5x");
    let (Some(real_width), Some(complex_width)) = (real_width, complex_width) else {
        eprintln!("SKIPPED: host has no AVX-512 — the zmm-over-ymm ratio is not measurable here");
        return;
    };
    println!("zmm over ymm, update shapes: f64 {real_width:.2}x (gate 1.3x), C64 {complex_width:.2}x (gate 1.2x)");
    assert!(real_width >= 1.3, "f64 zmm tile speedup over ymm {real_width:.2}x < 1.3x");
    assert!(complex_width >= 1.2, "C64 zmm tile speedup over ymm {complex_width:.2}x < 1.2x");
}
