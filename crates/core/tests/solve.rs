//! The triangular solve, one table: {Cholesky f64, LDLᵀ f64, LDLᵀ C64,
//! LU f64} × nrhs {1, 2, 3, 4, 5, 16, 17} × workers {1, 2, 4}. The nrhs
//! set walks the kernels' column tiles (1–3: the narrow tiles alone, 4:
//! one full tile, 5 and 17: full tiles + remainder, 17 also a second
//! column chunk of the blocked TRSM).
//!
//! * one worker is *the* sequential solve: `solve_parallel_many(b, nrhs,
//!   1)` is bitwise `solve_many(b, nrhs)`, and `solve_many`'s column `r`
//!   is bitwise `solve` of column `r` — no kernel may let a column's
//!   rounding depend on how many columns ride with it;
//! * more workers may apply the contributions into a panel in another
//!   order: the result agrees with the sequential one componentwise to
//!   `AGREE · max(1, ‖x‖∞)` and reaches backward error ≤ `BERR`. Every
//!   fixture has panels with several blocks facing one panel (asserted):
//!   each block takes the facing panel's lock for its own subtraction.
//!
//! (The spilled-factors multi-worker case lives with its fixture in
//! `memory_budget.rs`.) Problems shrink under Miri, which runs this file
//! as the crate's unsafe-bearing solve suite (`tools/check-miri.sh`).

use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_kernels::{Scalar, C64};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d, shifted_laplacian_3d,
};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;

/// Componentwise agreement of a multi-worker solve with the sequential
/// one, relative to `max(1, ‖x‖∞)`.
const AGREE: f64 = 1e-10;
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

fn check<T: Scalar>(name: &str, a: &CscMatrix<T>, facto: FactoKind, engine: RuntimeKind) {
    let n = a.nrows();
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let f = analysis.factorize(a, engine, 2).unwrap_or_else(|e| panic!("{name}: {e}"));
    let symbol = &analysis.symbol;
    let repeated_facing = (0..symbol.ncblk())
        .filter(|&c| symbol.off_blocks(c).windows(2).any(|p| p[0].facing == p[1].facing))
        .count();
    assert!(
        cfg!(miri) || repeated_facing > 0,
        "{name}: no panel has two blocks facing the same panel"
    );
    for nrhs in [1usize, 2, 3, 4, 5, 16, 17] {
        let b: Vec<T> = (0..n * nrhs)
            .map(|i| T::from_parts(((i * 7 + 1) % 19) as f64 - 9.0, (i % 5) as f64 - 2.0))
            .collect();
        let seq = f.solve_many(&b, nrhs);
        let scale = inf_norm(&seq).max(1.0);
        for r in 0..nrhs {
            let col = r * n..(r + 1) * n;
            assert_eq!(
                bits(&seq[col.clone()]),
                bits(&f.solve(&b[col.clone()])),
                "{name}: solve_many column {r} of {nrhs} is not solve of that column"
            );
            let e = berr(a, &seq[col.clone()], &b[col]);
            assert!(e <= BERR, "{name}: nrhs {nrhs} column {r}: backward error {e:.3e}");
        }
        assert_eq!(
            bits(&f.solve_parallel_many(&b, nrhs, 1)),
            bits(&seq),
            "{name}: nrhs {nrhs}: one worker is not the sequential solve"
        );
        for threads in [2usize, 4] {
            let par = f.solve_parallel_many(&b, nrhs, threads);
            for (i, (u, v)) in seq.iter().zip(&par).enumerate() {
                assert!(
                    (*u - *v).modulus() <= AGREE * scale,
                    "{name}: nrhs {nrhs}, {threads} workers, entry {i}: {u} vs {v}"
                );
            }
            for r in 0..nrhs {
                let col = r * n..(r + 1) * n;
                let e = berr(a, &par[col.clone()], &b[col]);
                assert!(
                    e <= BERR,
                    "{name}: nrhs {nrhs}, {threads} workers, column {r}: backward error {e:.3e}"
                );
            }
        }
    }
    let b = vec![T::one(); n];
    assert_eq!(bits(&f.solve_parallel(&b, 1)), bits(&f.solve(&b)), "{name}: solve_parallel");
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

#[test]
#[should_panic(expected = "nrhs columns")]
fn solve_rejects_wrong_length() {
    let a = grid_laplacian_3d(4, 4, 4);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Native, 1).unwrap();
    let b = vec![1.0; a.nrows() * 2 - 1];
    let _ = f.solve_many(&b, 2);
}
