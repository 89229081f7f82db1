//! Bitwise contracts of the kernels — exact equalities, not tolerances:
//!
//! * `gemm` with `A` untransposed is bitwise the same `gemm` split into
//!   chunks of its contraction (β on the first chunk, then 1): `C` carries
//!   the accumulators from chunk to chunk in `l` order, which is what lets
//!   the microkernel pick its depth by the shape (a shallow one for narrow
//!   `n`) without moving a bit. Checked at both element types, at every
//!   tier — both register widths and the portable tier through
//!   `force_isa`, and `gemm_portable` — for `op(B)` untransposed and
//!   transposed, `n` on both sides of either strip width and `m` across the
//!   full-tile, one-register and scalar-edge row counts.
//! * The left `trsm` is bitwise a column-at-a-time substitution: the
//!   reference below is the blocking of `trsm_left` (`NB` = 16 diagonal
//!   triangles, the rest through `gemm`) with a scalar substitution loop on
//!   each triangle, kept here as the contract it defines. The kernel may
//!   solve its triangles any way it likes — across right-hand sides, in
//!   vector registers — so long as every element takes the same operations.
//!   All `uplo`/`trans`/`diag`, `m` across the block size, several column
//!   counts, f64 and C64, right-hand sides with zeros of both signs (the
//!   substitution skips a zero `x_k`), at the dispatched tier (`make
//!   check-kernels` runs this file again under `DAGFACT_FORCE_SCALAR=1`
//!   and in the `--no-default-features` build).
//!
//! The two tests share a lock: the first switches the process-wide tier,
//! and the second needs its reference and its kernel on the same tier.

use dagfact_kernels::gemm::{gemm, gemm_portable, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::{force_isa, isa, Isa, Scalar, C64};
use std::sync::Mutex;

static TIER: Mutex<()> = Mutex::new(());

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn fill<T: Scalar>(&mut self, len: usize) -> Vec<T> {
        (0..len).map(|_| T::from_parts(self.unit(), self.unit())).collect()
    }
}

fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter().map(|x| (x.re().to_bits(), x.im().to_bits())).collect()
}

type Gemm<T> = fn(Trans, Trans, usize, usize, usize, T, &[T], usize, &[T], usize, T, &mut [T], usize);

/// `kernel` over the whole contraction against `kernel` over chunks of it.
fn chunks_agree<T: Scalar>(kernel: Gemm<T>, tier: &str, rng: &mut Rng) {
    let betas = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, -0.25)].map(|(re, im)| T::from_parts(re, im));
    let alpha = T::from_parts(-0.75, 0.375);
    let mut case = 0usize;
    for m in [1usize, 3, 4, 7, 8, 9, 16, 23, 24, 25, 33, 49] {
        for n in [1usize, 3, 4, 5, 8, 9, 16, 17] {
            for k in [2usize, 17, 40, 257, 300] {
                let transb = [Trans::NoTrans, Trans::Trans][case % 2];
                let beta = betas[(case / 2) % betas.len()];
                case += 1;
                let (lda, ldc) = (m + 1, m + 2);
                let (ldb, bcols) = if transb == Trans::NoTrans { (k + 3, n) } else { (n + 3, k) };
                let (a, b) = (rng.fill::<T>(lda * k), rng.fill::<T>(ldb * bcols));
                // β = 0 must not read C: start it as NaN.
                let c0 = if beta == T::zero() {
                    vec![T::from_parts(f64::NAN, f64::NAN); ldc * n]
                } else {
                    rng.fill::<T>(ldc * n)
                };
                let mut whole = c0.clone();
                kernel(Trans::NoTrans, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut whole, ldc);
                // Cut points: 1 to k − 1 columns per chunk, at random.
                let mut split = c0;
                let mut l0 = 0;
                while l0 < k {
                    let kc = (1 + rng.below(k.div_ceil(2))).min(k - l0);
                    let chunk_beta = if l0 == 0 { beta } else { T::one() };
                    let bl = if transb == Trans::NoTrans { &b[l0..] } else { &b[l0 * ldb..] };
                    kernel(Trans::NoTrans, transb, m, n, kc, alpha, &a[l0 * lda..], lda, bl, ldb, chunk_beta, &mut split, ldc);
                    l0 += kc;
                }
                assert!(
                    bits(&whole) == bits(&split),
                    "{tier} {}: gemm over k = {k} is not its chunks, m={m} n={n} {transb:?} β={beta}",
                    T::PREC
                );
            }
        }
    }
}

#[test]
fn gemm_is_bitwise_its_k_chunks() {
    let _tier = TIER.lock().unwrap_or_else(|e| e.into_inner());
    let dispatched = isa();
    let mut rng = Rng(0x5EED);
    for tier in [Isa::Avx512, Isa::Avx2, Isa::Scalar] {
        // A tier the CPU lacks lowers to one it has: checked again, harmlessly.
        force_isa(tier);
        chunks_agree::<f64>(gemm, isa().name(), &mut rng);
        chunks_agree::<C64>(gemm, isa().name(), &mut rng);
    }
    force_isa(dispatched);
    chunks_agree::<f64>(gemm_portable, "portable", &mut rng);
    chunks_agree::<C64>(gemm_portable, "portable", &mut rng);
}

/// Order of the diagonal triangles of `trsm_left`'s blocking.
const NB: usize = 16;

/// `op(T)[i, j]` of the stored triangle.
fn tval<T: Scalar>(t: &[T], ldt: usize, trans: Trans, i: usize, j: usize) -> T {
    match trans {
        Trans::NoTrans => t[j * ldt + i],
        Trans::Trans => t[i * ldt + j],
        Trans::ConjTrans => t[i * ldt + j].conj(),
    }
}

/// Substitution on one triangle, a right-hand-side column at a time — the
/// per-element operations every left solve must take.
#[allow(clippy::too_many_arguments)]
fn solve_triangle<T: Scalar>(
    lower: bool,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    for j in 0..n {
        let col = &mut b[j * ldb..j * ldb + m];
        let order: Vec<usize> = if lower { (0..m).collect() } else { (0..m).rev().collect() };
        for k in order {
            let mut xk = col[k];
            if diag == Diag::NonUnit {
                xk /= tval(t, ldt, trans, k, k);
            }
            col[k] = xk;
            if xk != T::zero() {
                let rows = if lower { k + 1..m } else { 0..k };
                for i in rows {
                    let lik = tval(t, ldt, trans, i, k);
                    col[i] -= lik * xk;
                }
            }
        }
    }
}

/// The left solve blocked by `NB`: substitution on the diagonal triangles,
/// `gemm` for the rest — right-looking when `T` is stored untransposed,
/// left-looking (a gathering `Aᵀ·B`) when transposed.
#[allow(clippy::too_many_arguments)]
fn reference_left<T: Scalar>(
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
    let lower = matches!((uplo, trans), (Uplo::Lower, Trans::NoTrans) | (Uplo::Upper, Trans::Trans | Trans::ConjTrans));
    let nblocks = m.div_ceil(NB);
    let mut stage = vec![T::zero(); NB * n];
    for kb in 0..nblocks {
        let i0 = NB * if lower { kb } else { nblocks - 1 - kb };
        let nb = NB.min(m - i0);
        let (o0, ko) = match uplo {
            Uplo::Lower => (i0 + nb, m - i0 - nb),
            Uplo::Upper => (0, i0),
        };
        let (toff, tdiag) = (&t[i0 * ldt + o0..], &t[i0 * ldt + i0..]);
        let stage = &mut stage[..nb * n];
        for (j, sc) in stage.chunks_exact_mut(nb).enumerate() {
            sc.copy_from_slice(&b[j * ldb + i0..][..nb]);
        }
        if trans != Trans::NoTrans {
            gemm(trans, Trans::NoTrans, nb, n, ko, -T::one(), toff, ldt, &b[o0..], ldb, T::one(), stage, nb);
        }
        solve_triangle(lower, trans, diag, nb, n, tdiag, ldt, stage, nb);
        for (j, sc) in stage.chunks_exact(nb).enumerate() {
            b[j * ldb + i0..][..nb].copy_from_slice(sc);
        }
        if trans == Trans::NoTrans {
            gemm(trans, Trans::NoTrans, ko, n, nb, -T::one(), toff, ldt, stage, nb, T::one(), &mut b[o0..], ldb);
        }
    }
}

fn left_trsm_agrees<T: Scalar>(rng: &mut Rng) {
    for uplo in [Uplo::Lower, Uplo::Upper] {
        for trans in [Trans::NoTrans, Trans::Trans, Trans::ConjTrans] {
            for diag in [Diag::NonUnit, Diag::Unit] {
                for m in 1..=40usize {
                    for n in [1usize, 3, 8, 13, 16, 17, 40] {
                        let (ldt, ldb) = (m + 2, m + 1);
                        let mut t = rng.fill::<T>(ldt * m);
                        for i in 0..m {
                            t[i * ldt + i] = T::from_parts(2.0 + rng.unit(), rng.unit());
                        }
                        // Every fourth entry a zero of either sign.
                        let mut b = rng.fill::<T>(ldb * n);
                        for v in b.iter_mut() {
                            match rng.below(8) {
                                0 => *v = T::zero(),
                                1 => *v = T::from_parts(-0.0, -0.0),
                                _ => {}
                            }
                        }
                        let mut want = b.clone();
                        reference_left(uplo, trans, diag, m, n, &t, ldt, &mut want, ldb);
                        trsm(Side::Left, uplo, trans, diag, m, n, &t, ldt, &mut b, ldb);
                        assert!(
                            bits(&b) == bits(&want),
                            "{} {:?}: left trsm {uplo:?} {trans:?} {diag:?} m={m} n={n} is not the column substitution",
                            T::PREC,
                            isa()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn left_trsm_is_bitwise_the_column_substitution() {
    let _tier = TIER.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Rng(0x7215);
    left_trsm_agrees::<f64>(&mut rng);
    left_trsm_agrees::<C64>(&mut rng);
}
