//! Triangular solve with multiple right-hand sides (column-major TRSM).
//!
//! The panel task of the supernodal factorization (Figure 1, step 2) applies
//! the freshly factorized diagonal block to every off-diagonal block of the
//! panel: `A_i ← A_i · L_kkᵀ⁻¹` for Cholesky, `A_i · U_kk⁻¹` for the L side
//! of LU, and the analogous unit-diagonal solves for LDLᵀ and the
//! (transposed-stored) U side of LU. All eight side/uplo/trans combinations
//! are provided so the solve phase can reuse the kernel.
//!
//! Both sides are blocked by one private `NB` onto [`gemm`]: substitution
//! runs on `NB`-wide diagonal triangles only, everything else — and, on
//! the right, the column updates inside a triangle too — is a `gemm` call
//! of a shape its tiers take. There is no TRSM microkernel: the left
//! side's triangles are solved on all right-hand sides at once, one lane
//! each ([`solve_rows`]), portable code that the SIMD tier only compiles
//! again under its target features — which moves no bit of it.

use crate::assert_fits;
use crate::gemm::gemm;
use crate::scalar::Scalar;
use crate::simd;

/// Which side the triangular matrix multiplies from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// Solve `op(T)·X = B`.
    Left,
    /// Solve `X·op(T) = B`.
    Right,
}

/// Which triangle of `t` holds the data.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Uplo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Diag {
    /// Diagonal entries are taken from `t`.
    NonUnit,
    /// Diagonal entries are implicitly one (e.g. the `L` factor of LU/LDLᵀ).
    Unit,
}

pub use crate::gemm::Trans;

/// Solve a triangular system in place: `B` (`m×n`, leading dimension `ldb`)
/// is overwritten with the solution `X` of `op(T)·X = B` (left) or
/// `X·op(T) = B` (right), where `T` is the `k×k` triangle (`k = m` for left,
/// `k = n` for right) stored in `t` with leading dimension `ldt`.
/// Panics — before any write — if `t` or `b` is too small for that shape.
#[allow(clippy::too_many_arguments)]
pub fn trsm<T: Scalar>(
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
    if m == 0 || n == 0 {
        return;
    }
    let k = match side {
        Side::Left => m,
        Side::Right => n,
    };
    // Shape guard, once per call, before the first write — the blocked
    // solves form sub-slices from these, and a release build must fail
    // here rather than slice-panic with `B` half-solved.
    assert_fits("trsm: T", k, k, ldt, t.len());
    assert_fits("trsm: B", m, n, ldb, b.len());
    match side {
        Side::Left => trsm_left(uplo, trans, diag, m, n, t, ldt, b, ldb),
        Side::Right => trsm_right(NB, effective_lower(uplo, trans), trans, diag, m, n, t, ldt, b, ldb),
    }
}

/// Effective triangle entry `op(T)[i, j]`, honoring transposition and
/// conjugation; callers guarantee `(i, j)` is inside the stored triangle of
/// the *transposed* view.
#[inline]
fn tval<T: Scalar>(t: &[T], ldt: usize, trans: Trans, i: usize, j: usize) -> T {
    // BOUNDS: (i, j) inside the stored triangle and the ldt shape
    // contract asserted by `trsm` (doc above).
    match trans {
        Trans::NoTrans => t[j * ldt + i],
        Trans::Trans => t[i * ldt + j],
        Trans::ConjTrans => t[i * ldt + j].conj(),
    }
}

/// Is `op(T)` lower triangular?
#[inline]
fn effective_lower(uplo: Uplo, trans: Trans) -> bool {
    match (uplo, trans) {
        (Uplo::Lower, Trans::NoTrans) => true,
        (Uplo::Lower, _) => false,
        (Uplo::Upper, Trans::NoTrans) => false,
        (Uplo::Upper, _) => true,
    }
}

/// Order of the diagonal triangles [`trsm_left`] and [`trsm_right`] solve
/// by substitution; everything outside those blocks is `gemm`.
const NB: usize = 16;
/// Right-hand-side columns staged per pass of [`trsm_left`].
const NCHUNK: usize = 16;

/// Left solve, blocked by [`NB`]: the substitution ([`solve_rows`]) runs
/// on each `NB×NB` diagonal triangle and the rest of `op(T)` is applied
/// with `gemm`, so a wide panel's solve runs on the GEMM tiers. With `T`
/// stored untransposed the sweep is right-looking (a solved block updates
/// every unsolved row: `A` untransposed, the axpy tile); with `T` stored
/// transposed it is left-looking (a block first gathers from every solved
/// row: `Aᵀ·B`, long contiguous dots). Either way the off-diagonal operand
/// is a row range of `T`'s *stored* columns `i0..i0+nb` — below the block
/// for a stored lower triangle, above it for an upper one.
///
/// Right-hand sides go `NCHUNK` at a time, each chunk through
/// [`left_chunk`] at the power-of-two lane count that holds it.
#[allow(clippy::too_many_arguments)]
fn trsm_left<T: Scalar>(
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
    for j0 in (0..n).step_by(NCHUNK) {
        let nc = NCHUNK.min(n - j0);
        // BOUNDS: j0 < n, a column start inside `b` under the ldb shape
        // contract `trsm` asserted.
        let b = &mut b[j0 * ldb..];
        match nc.next_power_of_two() {
            1 => left_chunk::<T, 1>(uplo, trans, diag, m, nc, t, ldt, b, ldb),
            2 => left_chunk::<T, 2>(uplo, trans, diag, m, nc, t, ldt, b, ldb),
            4 => left_chunk::<T, 4>(uplo, trans, diag, m, nc, t, ldt, b, ldb),
            8 => left_chunk::<T, 8>(uplo, trans, diag, m, nc, t, ldt, b, ldb),
            _ => left_chunk::<T, NCHUNK>(uplo, trans, diag, m, nc, t, ldt, b, ldb),
        }
    }
}

/// [`trsm_left`] on `nc ≤ N` columns. The solved rows and the updated
/// rows interleave in the one column-major `b`, so the `nb × nc` block
/// being solved is staged: in `rows`, row `i` holding its `nc` columns
/// (padded to `N` lanes), which [`solve_rows`] sweeps a row at a time and
/// the right-looking `gemm` reads as `op(B)` under `Trans`; the
/// left-looking gather first lands in the column-major `cols`, `gemm`'s
/// `C`. Either way `gemm` reads or writes `b` on one side only.
#[allow(clippy::too_many_arguments)]
fn left_chunk<T: Scalar, const N: usize>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    nc: usize,
    t: &[T],
    ldt: usize,
    b: &mut [T],
    ldb: usize,
) {
    let lower = effective_lower(uplo, trans);
    let nblocks = m.div_ceil(NB);
    let (one, minus_one) = (T::one(), -T::one());
    let mut rows = [[T::zero(); N]; NB];
    let mut cols = [[T::zero(); N]; NB];
    for kb in 0..nblocks {
        // Forward substitution walks the blocks down, backward up.
        let i0 = NB * if lower { kb } else { nblocks - 1 - kb };
        let nb = NB.min(m - i0);
        // Rows o0..o0+ko of T's stored columns i0..i0+nb: the part of
        // op(T) that couples this block to the rest.
        let (o0, ko) = match uplo {
            Uplo::Lower => (i0 + nb, m - i0 - nb),
            Uplo::Upper => (0, i0),
        };
        // BOUNDS: i0 + nb <= m, o0 + ko <= m and nc columns under the
        // ldt/ldb shape contracts `trsm` asserted; the stages hold NB rows
        // of N >= nc lanes.
        let toff = &t[i0 * ldt + o0..];
        let tdiag = &t[i0 * ldt + i0..];
        simd::prefetch_block(tdiag, ldt, nb, nb);
        let rows = &mut rows[..nb];
        if trans == Trans::NoTrans {
            for (j, bc) in b.chunks_mut(ldb).take(nc).enumerate() {
                for (row, &v) in rows.iter_mut().zip(&bc[i0..i0 + nb]) {
                    row[j] = v;
                }
            }
        } else {
            // BOUNDS: the stage holds NB·N >= nb·nc elements; rows
            // i0..i0+nb and o0.. of nc columns of `b` and j < nc <= N lanes
            // of a row, under the shape contracts above.
            let cols = &mut cols.as_flattened_mut()[..nb * nc];
            for (sc, bc) in cols.chunks_exact_mut(nb).zip(b.chunks(ldb)) {
                sc.copy_from_slice(&bc[i0..i0 + nb]);
            }
            gemm(trans, Trans::NoTrans, nb, nc, ko, minus_one, toff, ldt, &b[o0..], ldb, one, cols, nb);
            for (j, sc) in cols.chunks_exact(nb).enumerate() {
                for (row, &v) in rows.iter_mut().zip(sc) {
                    row[j] = v;
                }
            }
        }
        if N == 1 {
            solve_column(lower, trans, diag, tdiag, ldt, rows.as_flattened_mut());
        } else if !simd::try_solve_rows(lower, trans, diag, tdiag, ldt, rows) {
            solve_rows(lower, trans, diag, tdiag, ldt, rows);
        }
        // BOUNDS: the rows the stage was copied from.
        for (j, bc) in b.chunks_mut(ldb).take(nc).enumerate() {
            for (v, row) in bc[i0..i0 + nb].iter_mut().zip(rows.iter()) {
                *v = row[j];
            }
        }
        if trans == Trans::NoTrans {
            // BOUNDS: rows o0.. of the nc columns, as above.
            let (solved, unsolved) = (rows.as_flattened(), &mut b[o0..]);
            gemm(trans, Trans::Trans, ko, nc, nb, minus_one, toff, ldt, solved, N, one, unsolved, ldb);
        }
    }
}

/// Substitution on one triangle of order `col.len()` for one right-hand
/// side: [`solve_rows`] at one lane, looped the other way round so that
/// the update of the unsolved rows runs down a column of `T` (contiguous
/// when `T` is stored untransposed) and vectorizes along it.
fn solve_column<T: Scalar>(lower: bool, trans: Trans, diag: Diag, t: &[T], ldt: usize, col: &mut [T]) {
    let m = col.len();
    for step in 0..m {
        let k = if lower { step } else { m - 1 - step };
        // BOUNDS: k < m == col.len().
        let mut xk = col[k];
        if diag == Diag::NonUnit {
            xk /= tval(t, ldt, trans, k, k);
        }
        col[k] = xk;
        if xk != T::zero() {
            let (first, targets) = if lower { (k + 1, &mut col[k + 1..]) } else { (0, &mut col[..k]) };
            for (i, ci) in (first..).zip(targets) {
                *ci -= tval(t, ldt, trans, i, k) * xk;
            }
        }
    }
}

/// Substitution on one triangle of order `rows.len()`, every right-hand
/// side at once: `rows[i]` holds row `i` of the block, one lane per column.
/// Each lane takes exactly a column substitution's steps — `x_k /= t_kk`
/// (unless unit), then `row_i − l_ik·x_k` as a multiply and a subtraction,
/// never an FMA, skipped where `x_k` is zero — so every lane is bitwise
/// that column's solve under any target features ([`crate::simd`]).
#[inline(always)]
pub(crate) fn solve_rows<T: Scalar, const N: usize>(
    lower: bool,
    trans: Trans,
    diag: Diag,
    t: &[T],
    ldt: usize,
    rows: &mut [[T; N]],
) {
    let m = rows.len();
    for step in 0..m {
        // Forward substitution updates the rows below k, backward above.
        let k = if lower { step } else { m - 1 - step };
        let (above, rest) = rows.split_at_mut(k);
        // k < m: `rest` starts with row k.
        let [xk, below @ ..] = rest else { return };
        if diag == Diag::NonUnit {
            let d = tval(t, ldt, trans, k, k);
            for x in xk.iter_mut() {
                *x /= d;
            }
        }
        // A copy the row updates cannot alias, so they vectorize.
        let xk = *xk;
        let (first, targets) = if lower { (k + 1, below) } else { (0, above) };
        for (i, row) in (first..).zip(targets) {
            let lik = tval(t, ldt, trans, i, k);
            for (r, &x) in row.iter_mut().zip(&xk) {
                *r = if x != T::zero() { *r - lik * x } else { *r };
            }
        }
    }
}
/// Right solve, the blocked twin of [`trsm_left`]: `X·op(T) = B` couples
/// column `j` of `B` to the solution columns on one side of it,
///   `B[:, j] = Σ_l X[:, l] · op(T)[l, j]`,
/// `l ≥ j` when `op(T)` is `lower` (solve descending), `l ≤ j` when upper
/// (ascending). The sweep is left-looking by `step` columns: a block first
/// gathers from every solved column in one `gemm` (`A` = the solved
/// columns of `b`, untransposed — the axpy tile, `k` growing with the
/// sweep) and is then finished in place — at `step = NB` by this same
/// sweep over its own columns at `step = 1` (gathers with one output
/// column, which the 8×N tile takes), at `step = 1` by the division by the
/// diagonal. Solved columns and the block are disjoint column ranges of
/// the one `b`, so a split gives `gemm` its operands with no staging.
#[allow(clippy::too_many_arguments)]
fn trsm_right<T: Scalar>(
    step: usize,
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
    let nblocks = n.div_ceil(step);
    for kb in 0..nblocks {
        let j0 = step * if lower { nblocks - 1 - kb } else { kb };
        let nb = step.min(n - j0);
        // Solved columns s0..s0+ks: right of the block for a lower op(T),
        // left of it for an upper one.
        let (s0, ks) = if lower { (j0 + nb, n - j0 - nb) } else { (0, j0) };
        // BOUNDS: j0 + nb <= n and s0 + ks <= n under the ldt/ldb shape
        // contracts `trsm` asserted; ks > 0 puts the split point at a
        // column start no later than the last column's.
        if ks > 0 {
            let (head, tail) = b.split_at_mut(j0.max(s0) * ldb);
            let (solved, block) = if lower { (&*tail, &mut head[j0 * ldb..]) } else { (&*head, tail) };
            // op(T)[s0.., j0..]: stored rows s0.. of columns j0.., or the
            // transpose of stored rows j0.. of columns s0...
            let toff = if trans == Trans::NoTrans { &t[j0 * ldt + s0..] } else { &t[s0 * ldt + j0..] };
            gemm(Trans::NoTrans, trans, m, nb, ks, -T::one(), solved, ldb, toff, ldt, T::one(), block, ldb);
        }
        // BOUNDS: the block's diagonal triangle and its columns, as above.
        let (tjj, block) = (&t[j0 * ldt + j0..], &mut b[j0 * ldb..]);
        if step > 1 {
            trsm_right(1, lower, trans, diag, m, nb, tjj, ldt, block, ldb);
        } else if diag == Diag::NonUnit {
            let d = tval(tjj, ldt, trans, 0, 0).inv();
            for v in &mut block[..m] {
                *v *= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::C64;

    fn rand_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 2000) as f64 / 1000.0 - 1.0
            })
            .collect()
    }

    /// Build a well-conditioned k×k triangle (identity + small noise).
    fn make_triangle(k: usize, uplo: Uplo, seed: u64) -> Vec<f64> {
        let mut t = rand_vec(k * k, seed);
        for j in 0..k {
            for i in 0..k {
                let keep = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if !keep {
                    t[j * k + i] = f64::NAN; // must never be read
                } else if i == j {
                    t[j * k + i] = 2.0 + t[j * k + i].abs();
                } else {
                    t[j * k + i] *= 0.3;
                }
            }
        }
        t
    }

    /// op(T) as a dense matrix with unit-diag handling, for verification.
    fn dense_op(
        t: &[f64],
        k: usize,
        uplo: Uplo,
        trans: Trans,
        diag: Diag,
    ) -> Vec<f64> {
        let mut full = vec![0.0; k * k];
        for j in 0..k {
            for i in 0..k {
                let inside = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if inside {
                    full[j * k + i] = if i == j && diag == Diag::Unit {
                        1.0
                    } else {
                        t[j * k + i]
                    };
                }
            }
        }
        if trans == Trans::NoTrans {
            full
        } else {
            let mut tr = vec![0.0; k * k];
            for j in 0..k {
                for i in 0..k {
                    tr[j * k + i] = full[i * k + j];
                }
            }
            tr
        }
    }

    #[test]
    fn all_combinations_solve_correctly() {
        let m = 6;
        let n = 4;
        for &side in &[Side::Left, Side::Right] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                for &trans in &[Trans::NoTrans, Trans::Trans] {
                    for &diag in &[Diag::NonUnit, Diag::Unit] {
                        let k = if side == Side::Left { m } else { n };
                        let t = make_triangle(k, uplo, 42);
                        let b0 = rand_vec(m * n, 7);
                        let mut x = b0.clone();
                        trsm(side, uplo, trans, diag, m, n, &t, k, &mut x, m);
                        // Verify op(T)·X = B (left) or X·op(T) = B (right).
                        let opt = dense_op(&t, k, uplo, trans, diag);
                        let mut prod = vec![0.0; m * n];
                        match side {
                            Side::Left => gemm(
                                Trans::NoTrans,
                                Trans::NoTrans,
                                m,
                                n,
                                m,
                                1.0,
                                &opt,
                                m,
                                &x,
                                m,
                                0.0,
                                &mut prod,
                                m,
                            ),
                            Side::Right => gemm(
                                Trans::NoTrans,
                                Trans::NoTrans,
                                m,
                                n,
                                n,
                                1.0,
                                &x,
                                m,
                                &opt,
                                n,
                                0.0,
                                &mut prod,
                                m,
                            ),
                        }
                        for (p, b) in prod.iter().zip(b0.iter()) {
                            assert!(
                                (p - b).abs() < 1e-10,
                                "{side:?} {uplo:?} {trans:?} {diag:?}: {p} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn complex_conj_trans_right_lower() {
        // The Hermitian panel solve used by a complex Cholesky:
        // X · L^H = B.
        let n = 3;
        let m = 2;
        let mut l = vec![C64::new(0.0, 0.0); n * n];
        for j in 0..n {
            for i in j..n {
                l[j * n + i] = if i == j {
                    C64::new(2.0 + i as f64, 0.0)
                } else {
                    C64::new(0.1 * i as f64, 0.2 * j as f64 + 0.1)
                };
            }
        }
        let b0: Vec<C64> = (0..m * n)
            .map(|i| C64::new(i as f64 + 1.0, -(i as f64)))
            .collect();
        let mut x = b0.clone();
        trsm(
            Side::Right,
            Uplo::Lower,
            Trans::ConjTrans,
            Diag::NonUnit,
            m,
            n,
            &l,
            n,
            &mut x,
            m,
        );
        // Check X·L^H = B.
        let mut prod = vec![C64::new(0.0, 0.0); m * n];
        gemm(
            Trans::NoTrans,
            Trans::ConjTrans,
            m,
            n,
            n,
            C64::new(1.0, 0.0),
            &x,
            m,
            &l,
            n,
            C64::new(0.0, 0.0),
            &mut prod,
            m,
        );
        for (p, b) in prod.iter().zip(b0.iter()) {
            assert!((*p - *b).modulus() < 1e-10);
        }
    }
}
