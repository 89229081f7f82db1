//! Property-style tests for the dense kernels: every optimized kernel must
//! agree with its naive reference (or reconstruct its input) on random
//! shapes, strides and values. Cases are driven by a deterministic
//! seeded parameter sweep (no external test-case framework), so failures
//! reproduce exactly.

use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::scalar::{Scalar, C64};
use dagfact_kernels::smallblas::{naive_gemm, reconstruct_ldlt, reconstruct_llt, reconstruct_lu};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{update_via_buffer, Scatter};
use dagfact_kernels::{getrf, ldlt, potrf};

mod common;
use common::reference_update;

/// Deterministic parameter source (SplitMix64).
struct Params {
    state: u64,
}

impl Params {
    fn new(case: u64) -> Params {
        Params {
            state: 0xD1F7_0000 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// The `small_val` strategy of the original suite: multiples of 0.02
    /// in [-2, 2].
    fn small_val(&mut self) -> f64 {
        (self.range(0, 201) as i64 - 100) as f64 / 50.0
    }

    fn trans(&mut self) -> Trans {
        match self.next_u64() % 3 {
            0 => Trans::NoTrans,
            1 => Trans::Trans,
            _ => Trans::ConjTrans,
        }
    }

    fn seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }
}

const CASES: u64 = 64;

#[test]
fn gemm_matches_naive() {
    for case in 0..CASES {
        let mut p = Params::new(case);
        let (m, n, k) = (p.range(1, 12), p.range(1, 12), p.range(0, 12));
        let (ta, tb) = (p.trans(), p.trans());
        let (alpha, beta) = (p.small_val(), p.small_val());
        let seed = p.seed();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 200) as f64 / 100.0 - 1.0
        };
        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
        let lda = ar.max(1) + 2;
        let ldb = br.max(1) + 1;
        let ldc = m + 3;
        let a: Vec<f64> = (0..lda * ac.max(1)).map(|_| next()).collect();
        let b: Vec<f64> = (0..ldb * bc.max(1)).map(|_| next()).collect();
        let c0: Vec<f64> = (0..ldc * n).map(|_| next()).collect();
        let mut c = c0.clone();
        let mut cref = c0;
        gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
        naive_gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cref, ldc);
        for (x, y) in c.iter().zip(cref.iter()) {
            assert!((x - y).abs() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn gemm_complex_matches_naive() {
    for case in 0..CASES {
        let mut p = Params::new(1000 + case);
        let (m, n, k) = (p.range(1, 8), p.range(1, 8), p.range(0, 8));
        let (ta, tb) = (p.trans(), p.trans());
        let seed = p.seed();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            C64::new(
                (s % 200) as f64 / 100.0 - 1.0,
                ((s >> 9) % 200) as f64 / 100.0 - 1.0,
            )
        };
        let (ar, ac) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
        let (br, bc) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
        let lda = ar.max(1);
        let ldb = br.max(1);
        let a: Vec<C64> = (0..lda * ac.max(1)).map(|_| next()).collect();
        let b: Vec<C64> = (0..ldb * bc.max(1)).map(|_| next()).collect();
        let c0: Vec<C64> = (0..m * n).map(|_| next()).collect();
        let alpha = C64::new(0.5, -0.25);
        let beta = C64::new(-1.0, 0.75);
        let mut c = c0.clone();
        let mut cref = c0;
        gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c, m);
        naive_gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut cref, m);
        for (x, y) in c.iter().zip(cref.iter()) {
            assert!((*x - *y).modulus() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn trsm_inverts_triangular_multiply() {
    for case in 0..CASES {
        let mut p = Params::new(2000 + case);
        let (m, n) = (p.range(1, 10), p.range(1, 10));
        let (lower, left, transposed, unit) = (p.bool(), p.bool(), p.bool(), p.bool());
        let seed = p.seed();
        let side = if left { Side::Left } else { Side::Right };
        let uplo = if lower { Uplo::Lower } else { Uplo::Upper };
        let trans = if transposed { Trans::Trans } else { Trans::NoTrans };
        let diag = if unit { Diag::Unit } else { Diag::NonUnit };
        let k = if left { m } else { n };
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 200) as f64 / 100.0 - 1.0
        };
        // Well-conditioned triangle.
        let mut t = vec![0.0f64; k * k];
        for j in 0..k {
            for i in 0..k {
                let inside = if lower { i >= j } else { i <= j };
                if inside {
                    t[j * k + i] = if i == j { 3.0 + next().abs() } else { 0.25 * next() };
                }
            }
        }
        let x0: Vec<f64> = (0..m * n).map(|_| next()).collect();
        // B = op(T)·X or X·op(T) computed densely, then solve back.
        let mut full = vec![0.0f64; k * k];
        for j in 0..k {
            for i in 0..k {
                let inside = if lower { i >= j } else { i <= j };
                if inside {
                    full[j * k + i] = if i == j && unit { 1.0 } else { t[j * k + i] };
                }
            }
        }
        let opt = if transposed {
            let mut tr = vec![0.0; k * k];
            for j in 0..k {
                for i in 0..k {
                    tr[j * k + i] = full[i * k + j];
                }
            }
            tr
        } else {
            full
        };
        let mut b = vec![0.0f64; m * n];
        match side {
            Side::Left => naive_gemm(
                Trans::NoTrans, Trans::NoTrans, m, n, m, 1.0, &opt, m, &x0, m, 0.0, &mut b, m,
            ),
            Side::Right => naive_gemm(
                Trans::NoTrans, Trans::NoTrans, m, n, n, 1.0, &x0, m, &opt, n, 0.0, &mut b, m,
            ),
        }
        trsm(side, uplo, trans, diag, m, n, &t, k, &mut b, m);
        for (x, y) in b.iter().zip(x0.iter()) {
            assert!(
                (x - y).abs() < 1e-8,
                "case {case}: {side:?} {uplo:?} {trans:?} {diag:?}"
            );
        }
    }
}

#[test]
fn potrf_roundtrip_random_spd() {
    for case in 0..CASES {
        let mut p = Params::new(3000 + case);
        let n = p.range(1, 24);
        let seed = p.seed();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 200) as f64 / 100.0 - 1.0
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
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
        let mut l = a.clone();
        potrf(n, &mut l, n).unwrap();
        let r = reconstruct_llt(n, &l, n);
        for j in 0..n {
            for i in j..n {
                assert!((r[j * n + i] - a[j * n + i]).abs() < 1e-8 * n as f64, "case {case}");
            }
        }
    }
}

#[test]
fn ldlt_roundtrip_random_indefinite() {
    for case in 0..CASES {
        let mut p = Params::new(4000 + case);
        let n = p.range(1, 20);
        let seed = p.seed();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 200) as f64 / 100.0 - 1.0
        };
        let mut a = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..=j {
                let v = next() * 0.5;
                a[j * n + i] = v;
                a[i * n + j] = v;
            }
            a[j * n + j] = if j % 3 == 0 { -(n as f64) - 2.0 } else { n as f64 + 2.0 };
        }
        let a0 = a.clone();
        let mut d = vec![0.0f64; n];
        let repaired = ldlt(n, &mut a, n, &mut d, 0.0).unwrap();
        assert_eq!(repaired, 0, "case {case}");
        let r = reconstruct_ldlt(n, &a, n, &d);
        for j in 0..n {
            for i in j..n {
                assert!((r[j * n + i] - a0[j * n + i]).abs() < 1e-7 * n as f64, "case {case}");
            }
        }
    }
}

#[test]
fn getrf_roundtrip_random_dominant() {
    for case in 0..CASES {
        let mut p = Params::new(5000 + case);
        let n = p.range(1, 20);
        let seed = p.seed();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 200) as f64 / 100.0 - 1.0
        };
        let mut a: Vec<f64> = (0..n * n).map(|_| next()).collect();
        for j in 0..n {
            a[j * n + j] = n as f64 + 1.5;
        }
        let a0 = a.clone();
        getrf(n, &mut a, n, 0.0).unwrap();
        let r = reconstruct_lu(n, &a, n);
        for (x, y) in r.iter().zip(a0.iter()) {
            assert!((x - y).abs() < 1e-8 * n as f64, "case {case}");
        }
    }
}

/// One random update shape: `update_via_buffer` against the dense
/// reference, through a random strictly-increasing row map, a column
/// offset, and `d` on or off.
fn update_case<T: Scalar>(case: u64) {
    let mut p = Params::new(6000 + case);
    let (m, n, k) = (p.range(1, 10), p.range(1, 8), p.range(1, 8));
    let with_d = p.bool();
    let col_offset = p.range(0, 3);
    let seed = p.seed();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        T::from_parts((s % 200) as f64 / 100.0 - 1.0, ((s >> 9) % 200) as f64 / 100.0 - 1.0)
    };
    let a1: Vec<T> = (0..k * m).map(|_| next()).collect();
    let a2: Vec<T> = (0..k * n).map(|_| next()).collect();
    let d: Vec<T> = (0..k).map(|_| next() + T::from_f64(2.0)).collect();
    let dref = with_d.then_some(d.as_slice());
    // Random strictly-increasing row map into a taller panel.
    let ldc = m + 5;
    let mut row_map: Vec<usize> = (0..ldc).collect();
    // Simple deterministic shuffle-select of m rows.
    for i in 0..ldc {
        let j = (seed as usize + i * 7) % ldc;
        row_map.swap(i, j);
    }
    row_map.truncate(m);
    row_map.sort_unstable();
    let c0: Vec<T> = (0..ldc * (n + col_offset)).map(|_| next()).collect();
    let scatter = Scatter { row_map: &row_map, col_offset };
    let alpha = -T::one();
    let mut c1 = c0.clone();
    let mut work = Vec::new();
    update_via_buffer(m, n, k, alpha, &a1, m, &a2, n, dref, &mut work, &mut c1, ldc, scatter);
    let mut c2 = c0;
    reference_update(m, n, k, alpha, &a1, m, &a2, n, dref, &mut c2, ldc, scatter);
    for (x, y) in c1.iter().zip(c2.iter()) {
        assert!((*x - *y).modulus() < 1e-10, "case {case}");
    }
}

#[test]
fn update_always_matches_dense_reference() {
    for case in 0..CASES {
        update_case::<f64>(case);
        update_case::<C64>(case);
    }
}
