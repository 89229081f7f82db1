//! The triangular solve, one table: {Cholesky f64, LDLᵀ f64, LDLᵀ C64,
//! LU f64} × nrhs {1, 2, 3, 4, 5, 16, 17} × column groups {1, 2, 4}. The
//! nrhs set walks the kernels' column tiles (1–3: the narrow tiles alone,
//! 4: one full tile, 5 and 17: full tiles + remainder, 17 also a second
//! column chunk of the blocked TRSM) and the ways columns split into
//! groups (1–3 under four groups: fewer columns than workers).
//!
//! * `solve_many`'s column `r` is bitwise `solve` of column `r` — no
//!   kernel may let a column's rounding depend on how many columns ride
//!   with it;
//! * that identity is the parallel solve, so it is exact:
//!   `solve_parallel_many(b, nrhs, k)` is bitwise the 1-group solve at
//!   every `k`, and so is `solve_many` on factors from two workers, which
//!   splits once the problem is above `SPLIT_FLOOR`
//!   (`solve_many_splits_above_the_floor` asserts that it does).
//!
//! (The spilled-factors case lives with its fixture in
//! `memory_budget.rs`.) Problems shrink under Miri, which runs this file
//! as the crate's unsafe-bearing solve suite (`tools/check-miri.sh`).

use dagfact_core::coeftab::PanelSide;
use dagfact_core::solve::SPLIT_FLOOR;
use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_kernels::{Scalar, C64};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d, shifted_laplacian_3d,
};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;

/// Backward-error bound every solve of the table must reach.
const BERR: f64 = 1e-10;

/// Grid side: the table's problems at full size, tiny under Miri.
fn side(full: usize) -> usize {
    if cfg!(miri) {
        3
    } else {
        full
    }
}

fn inf_norm<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).fold(0.0, f64::max)
}

fn berr<T: Scalar>(a: &CscMatrix<T>, x: &[T], b: &[T]) -> f64 {
    let mut r = vec![T::zero(); b.len()];
    a.spmv(x, &mut r);
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    inf_norm(&r) / (a.norm_inf() * inf_norm(x) + inf_norm(b)).max(f64::MIN_POSITIVE)
}

fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter().map(|x| (x.re().to_bits(), x.im().to_bits())).collect()
}

fn rhs<T: Scalar>(n: usize, nrhs: usize) -> Vec<T> {
    (0..n * nrhs)
        .map(|i| T::from_parts(((i * 7 + 1) % 19) as f64 - 9.0, (i % 5) as f64 - 2.0))
        .collect()
}

fn check<T: Scalar>(name: &str, a: &CscMatrix<T>, facto: FactoKind, engine: RuntimeKind) {
    let n = a.nrows();
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let f = analysis.factorize(a, engine, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
    for nrhs in [1usize, 2, 3, 4, 5, 16, 17] {
        let b: Vec<T> = rhs(n, nrhs);
        let seq = bits(&f.solve_parallel_many(&b, nrhs, 1));
        for r in 0..nrhs {
            let col = r * n..(r + 1) * n;
            let x = f.solve(&b[col.clone()]);
            assert_eq!(
                seq[col.clone()],
                bits(&x),
                "{name}: solve_many column {r} of {nrhs} is not solve of that column"
            );
            let e = berr(a, &x, &b[col]);
            assert!(e <= BERR, "{name}: nrhs {nrhs} column {r}: backward error {e:.3e}");
        }
        assert_eq!(bits(&f.solve_many(&b, nrhs)), seq, "{name}: nrhs {nrhs}: solve_many");
        for groups in [2usize, 4] {
            assert_eq!(
                bits(&f.solve_parallel_many(&b, nrhs, groups)),
                seq,
                "{name}: nrhs {nrhs} in {groups} groups is not the sequential solve"
            );
        }
    }
}

#[test]
fn solve_table_cholesky_f64() {
    let s = side(9);
    check("cholesky", &grid_laplacian_3d(s, s, s), FactoKind::Cholesky, RuntimeKind::Native);
}

#[test]
fn solve_table_ldlt_f64() {
    let s = side(7);
    check("ldlt", &shifted_laplacian_3d(s, s, s - 1, 1.0), FactoKind::Ldlt, RuntimeKind::Ptg);
}

#[test]
fn solve_table_ldlt_c64() {
    let s = side(6);
    let a: CscMatrix<C64> = helmholtz_3d(s, s - 1, s - 1, 1.2, 0.5);
    check("zldlt", &a, FactoKind::Ldlt, RuntimeKind::Native);
}

#[test]
fn solve_table_lu_f64() {
    let s = side(6);
    check("lu", &convection_diffusion_3d(s, s, s - 1, 0.4), FactoKind::Lu, RuntimeKind::Dataflow);
}

/// `solve_many` forks by itself: on factors from two workers, 8 and 16
/// right-hand sides above the floor run in two groups and are bitwise the
/// sequential solve. Groups narrower than the 4-column tile, problems
/// below the floor and one-worker factors stay in one group.
#[test]
fn solve_many_splits_above_the_floor() {
    let a = grid_laplacian_3d(12, 12, 12);
    let n = a.nrows();
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    assert!(8 * an.stats().nnz_l > SPLIT_FLOOR, "the case is below the floor");
    let f = an.factorize(&a, RuntimeKind::Ptg, 2).expect("factorization succeeds");
    assert_eq!(f.nthreads, 2);
    assert_eq!((f.solve_groups(8), f.solve_groups(16)), (2, 2), "no split above the floor");
    assert_eq!((f.solve_groups(1), f.solve_groups(4), f.solve_groups(7)), (1, 1, 1));
    for nrhs in [8, 16] {
        let b: Vec<f64> = rhs(n, nrhs);
        assert_eq!(bits(&f.solve_many(&b, nrhs)), bits(&f.solve_parallel_many(&b, nrhs, 1)));
    }
    let one = an.factorize(&a, RuntimeKind::Ptg, 1).expect("factorization succeeds");
    assert_eq!(one.solve_groups(16), 1, "one-worker factors split");
    let small = grid_laplacian_3d(4, 4, 4);
    let an = Analysis::new(small.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    assert!(16 * an.stats().nnz_l < SPLIT_FLOOR / 4);
    let f = an.factorize(&small, RuntimeKind::Ptg, 2).expect("factorization succeeds");
    assert_eq!(f.solve_groups(16), 1, "a problem below the floor split");
}

#[test]
#[should_panic(expected = "nrhs columns")]
fn solve_rejects_wrong_length() {
    let a = grid_laplacian_3d(4, 4, 4);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Native, 1).unwrap();
    let b = vec![1.0; a.nrows() * 2 - 1];
    let _ = f.solve_many(&b, 2);
}

/// FNV-1a over the bit patterns of `v`, both components of each element.
fn fnv1a<T: Scalar>(hash: u64, v: &[T]) -> u64 {
    v.iter().flat_map(|x| [x.re().to_bits(), x.im().to_bits()]).flat_map(u64::to_le_bytes).fold(hash, |h, byte| {
        (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hashes of every stored factor coefficient (L panels, U panels, the
/// LDLᵀ diagonal) and of `solve`'s, `solve_many(8)`'s and
/// `solve_many(16)`'s outputs, in that order.
fn factor_and_solve_hashes<T: Scalar>(a: &CscMatrix<T>, facto: FactoKind) -> (u64, u64) {
    let n = a.nrows();
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let f = analysis.factorize(a, RuntimeKind::Ptg, 2).unwrap_or_else(|e| panic!("{facto:?}: {e}"));
    let symbol = &analysis.symbol;
    let mut factors = 0xCBF2_9CE4_8422_2325;
    for c in 0..symbol.ncblk() {
        // SAFETY: the factorization has returned; nothing mutates `f`.
        factors = fnv1a(factors, unsafe { f.tab.pin_solve(c, PanelSide::L).slice() });
        if f.tab.has_u() {
            // SAFETY: as above.
            factors = fnv1a(factors, unsafe { f.tab.pin_solve(c, PanelSide::U).slice() });
        }
    }
    factors = fnv1a(factors, &f.d);
    let mut solves = fnv1a(0xCBF2_9CE4_8422_2325, &f.solve(&rhs::<T>(n, 1)));
    for nrhs in [8, 16] {
        solves = fnv1a(solves, &f.solve_many(&rhs::<T>(n, nrhs), nrhs));
    }
    (factors, solves)
}

/// The factors and solutions of three fixed problems are pinned bit for
/// bit: a kernel change that claims to keep every bit (a new loop order, a
/// vectorized triangle) is held to it here. One pin per tier class — the
/// SIMD tiers are bitwise one another (`isa_identity.rs`), the portable
/// tier rounds without FMA — so every leg of the kernel gate checks one.
/// A deliberate change of the arithmetic, or of what a panel stores,
/// re-captures them.
#[test]
#[cfg_attr(miri, ignore = "the pins are of the full-size problems")]
fn factors_and_solutions_are_pinned_bitwise() {
    let simd = dagfact_kernels::isa() != dagfact_kernels::Isa::Scalar;
    let z: CscMatrix<C64> = helmholtz_3d(8, 8, 8, 2.0, 0.5);
    let got = [
        ("f64 LLt", factor_and_solve_hashes(&grid_laplacian_3d(10, 10, 10), FactoKind::Cholesky)),
        ("f64 LU", factor_and_solve_hashes(&convection_diffusion_3d(10, 10, 6, 0.3), FactoKind::Lu)),
        ("C64 LDLt", factor_and_solve_hashes(&z, FactoKind::Ldlt)),
    ];
    // (factors, solves) per problem: SIMD tiers, then the portable tier.
    const PINS: [[(u64, u64); 2]; 3] = [
        [(0xe3e7_90a2_a2d1_661b, 0xf3b7_1c87_2db4_ebb1), (0xa3de_9412_087b_3439, 0xa7aa_8b7a_6e01_6b3c)],
        [(0xc071_e9b8_ff6b_da1a, 0xa38b_8eed_9f29_5d6a), (0xa151_5913_d8f2_7cfc, 0xfee0_1ea6_fc07_19e6)],
        [(0x29b1_719d_8fc9_81d6, 0x872e_f40d_6552_8566), (0x852a_81b5_94b3_cfb7, 0x642c_111c_404f_85c6)],
    ];
    for ((name, got), pins) in got.iter().zip(PINS) {
        let want = if simd { pins[0] } else { pins[1] };
        assert!(
            *got == want,
            "{name} ({}): hashes {:#018x}, {:#018x} differ from the pinned {:#018x}, {:#018x}",
            if simd { "SIMD" } else { "portable" },
            got.0,
            got.1,
            want.0,
            want.1
        );
    }
}
