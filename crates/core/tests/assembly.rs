//! Coefficient initialization: a panel's first touch leaves in it exactly
//! what a dense scatter of `P·A·Pᵀ` puts there — bit for bit, for every
//! factorization kind and both element types, through `CoefTab::assemble`
//! (every panel touched on return) and under a memory cap that makes the
//! panels materialize one by one, spill, and fault back in.

use dagfact_core::coeftab::{CoefTab, PanelSide, PanelSource};
use dagfact_core::tasks::TaskKind;
use dagfact_core::{Analysis, SolverOptions};
use dagfact_kernels::{Scalar, C64};
use dagfact_rt::MemoryBudget;
use dagfact_sparse::gen::{
    complex_unsym_3d, convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d,
    shifted_laplacian_3d,
};
use dagfact_sparse::{CscMatrix, TripletBuilder};
use dagfact_symbolic::FactoKind;

/// The reference: `P·A·Pᵀ` as a dense column-major `n × n` array, filled
/// in the column scan order of `A`, then read out panel by panel. The L
/// panel of a column block holds its columns' rows of the block structure
/// (at and below the diagonal for a symmetric kind, the full square
/// diagonal block for LU); the Uᵀ panel holds, transposed, the rows of `U`
/// right of the diagonal block, and nothing above them: its storage rows
/// are the L panel's from the block's width on.
fn reference_panels<T: Scalar>(an: &Analysis, a: &CscMatrix<T>) -> Vec<Vec<T>> {
    let (n, perm, symbol) = (a.nrows(), an.perm.perm(), &an.symbol);
    let lu = an.facto == FactoKind::Lu;
    let mut dense = vec![T::zero(); n * n];
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            dense[perm[j] * n + perm[i]] += v;
        }
    }
    let side = |upper: bool| -> Vec<Vec<T>> {
        let panel = |c: usize| {
            let cb = &symbol.cblks[c];
            let skip = if upper { cb.width() } else { 0 };
            let ld = cb.stride - skip;
            let mut panel = vec![T::zero(); ld * cb.width()];
            for (j, col) in (cb.fcol..cb.lcol).enumerate() {
                for b in symbol.panel_blocks(c) {
                    for row in b.frow..b.lrow {
                        let kept = match (upper, lu) {
                            (true, _) => row >= cb.lcol,
                            (false, true) => true,
                            (false, false) => row >= col,
                        };
                        if kept {
                            let (i, jj) = if upper { (col, row) } else { (row, col) };
                            let at = j * ld + b.local_offset + (row - b.frow) - skip;
                            panel[at] = dense[jj * n + i];
                        }
                    }
                }
            }
            panel
        };
        (0..symbol.ncblk()).map(panel).collect()
    };
    let mut panels = side(false);
    if lu {
        panels.extend(side(true));
    }
    panels
}

fn same_bits<T: Scalar>(got: &[T], want: &[T]) -> bool {
    let bits = |v: &T| (v.re().to_bits(), v.im().to_bits());
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| bits(g) == bits(w))
}

/// Both routes into the panels against the reference, and every stored
/// entry accounted for (nothing dropped on the way).
fn assert_first_touch_is_the_dense_scatter<T: Scalar>(name: &str, facto: FactoKind, a: &CscMatrix<T>) {
    let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let ncblk = an.symbol.ncblk();
    let want = reference_panels(&an, a);
    let nonzeros: usize = want.iter().flatten().filter(|v| v.modulus() != 0.0).count();
    let stored = a.values().iter().filter(|v| v.modulus() != 0.0).count();
    if facto == FactoKind::Lu {
        assert_eq!(nonzeros, stored, "{name}: the panels hold every entry of A once");
    }
    let check = |tab: &CoefTab<T>, route: &str| {
        for (key, want) in want.iter().enumerate() {
            let side = if key < ncblk { PanelSide::L } else { PanelSide::U };
            let pin = tab.pin_solve(key % ncblk, side);
            // SAFETY: single-threaded test — no concurrent writer.
            let got = unsafe { pin.slice() };
            assert!(same_bits(got, want), "{name}/{facto:?}, {route}: slot {key} differs");
        }
    };
    check(&CoefTab::assemble(&an, a), "assembled");

    // Under a cap of the largest panel plus a third of the rest: each
    // first touch allocates, charges and gathers, and most panels are on
    // disk by the time the last one arrives.
    let esize = std::mem::size_of::<T>();
    let largest = want.iter().map(Vec::len).max().expect("panels") * esize;
    let total = want.iter().map(Vec::len).sum::<usize>() * esize;
    let budget = MemoryBudget::with_cap(largest + (total - largest) / 3);
    let dir = std::env::temp_dir().join(format!("dagfact-assembly-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("spill dir");
    let tab = CoefTab::reserve(&an, Some(&budget), Some(&dir));
    let src = PanelSource::new(&an, a);
    for c in 0..ncblk {
        // Both sides of panel c at once.
        drop(tab.acquire(TaskKind::Panel { cblk: c }, &src, 0).expect("first touch"));
    }
    drop(src);
    check(&tab, "capped");
    let stats = budget.stats();
    assert!(
        stats.spill_events > 0 && stats.fault_in_events > 0,
        "{name}/{facto:?}: a cap under the {total} bytes of panels must spill and fault \
         back in: {stats:?}"
    );
    drop(tab);
    assert_eq!(budget.used(), 0, "{name}/{facto:?}: the ledger balances");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A structurally unsymmetric matrix (the analysis works on `A + Aᵀ`; the
/// Uᵀ side reads rows of `A` whose mirror is not stored), assembled from
/// triplets that name some positions twice — `TripletBuilder` sums them,
/// a `CscMatrix` holds each position once.
fn one_sided_with_repeats(n: usize) -> CscMatrix<f64> {
    let mut t = TripletBuilder::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0 + i as f64 * 0.01);
        t.push(i, i, 0.5);
        let (right, far) = ((i + 1) % n, (i * 7 + 3) % n);
        if right != i {
            // Upper or lower, never both.
            t.push(i.min(right), i.max(right), -1.0 - i as f64 * 0.001);
            t.push(i.min(right), i.max(right), 0.125);
        }
        if far > i + 1 {
            t.push(far, i, 0.3);
        }
    }
    t.build()
}

#[test]
fn first_touch_equals_a_dense_scatter_of_the_permuted_matrix() {
    let spd = grid_laplacian_3d(5, 5, 4);
    let indefinite = shifted_laplacian_3d(5, 4, 4, 1.0);
    let skewed = convection_diffusion_3d(5, 5, 4, 0.3);
    assert_first_touch_is_the_dense_scatter("laplacian", FactoKind::Cholesky, &spd);
    assert_first_touch_is_the_dense_scatter("shifted", FactoKind::Ldlt, &indefinite);
    assert_first_touch_is_the_dense_scatter("convection", FactoKind::Lu, &skewed);
    let z: CscMatrix<C64> = helmholtz_3d(5, 4, 4, 2.0, 0.5);
    assert_first_touch_is_the_dense_scatter("helmholtz", FactoKind::Ldlt, &z);
    assert_first_touch_is_the_dense_scatter("helmholtz", FactoKind::Lu, &z);
    assert_first_touch_is_the_dense_scatter("zunsym", FactoKind::Lu, &complex_unsym_3d(5, 4, 4));
    let one_sided = one_sided_with_repeats(90);
    assert!(!one_sided.pattern().is_symmetric());
    assert_first_touch_is_the_dense_scatter("one-sided", FactoKind::Lu, &one_sided);
}
