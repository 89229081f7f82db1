//! The SIMD register width does not change a bit of the answer: factors
//! and 16-right-hand-side solutions under the default dispatch (the `zmm`
//! update tile on an AVX-512 host) are bitwise those under
//! `force_isa(Isa::Avx2)` (the `ymm` tile), for LLᵀ and LU in `f64` and
//! LDLᵀ in `C64`, each under all three policies. One test in a binary of
//! its own: the forced tier is process-global.

use dagfact_core::coeftab::PanelSide;
use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_kernels::{force_isa, isa, Isa, Scalar};
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;

/// Bit patterns of every stored factor coefficient (L panels, U panels,
/// the LDLᵀ diagonal) followed by those of the 16-column solution, for
/// each policy.
fn run<T: Scalar>(facto: FactoKind, a: &CscMatrix<T>) -> Vec<Vec<(u64, u64)>> {
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let n = a.nrows();
    let b: Vec<T> =
        (0..16 * n).map(|i| T::from_parts(((i * 37 + 11) % 23) as f64 / 7.0 - 1.0, (i % 5) as f64)).collect();
    RuntimeKind::ALL
        .iter()
        .map(|&rt| {
            let f = analysis.factorize(a, rt, 2).unwrap_or_else(|e| panic!("{facto:?}/{rt:?}: {e}"));
            let symbol = &analysis.symbol;
            let mut values = Vec::new();
            for c in 0..symbol.ncblk() {
                // SAFETY: the factorization has returned; nothing mutates `f`.
                values.extend_from_slice(unsafe { f.tab.pin_solve(c, PanelSide::L).slice() });
                if f.tab.has_u() {
                    // SAFETY: as above.
                    values.extend_from_slice(unsafe { f.tab.pin_solve(c, PanelSide::U).slice() });
                }
            }
            values.extend_from_slice(&f.d);
            values.extend(f.solve_many(&b, 16));
            values.iter().map(|x| (x.re().to_bits(), x.im().to_bits())).collect()
        })
        .collect()
}

#[test]
fn factors_and_solutions_do_not_depend_on_the_register_width() {
    let lap = grid_laplacian_3d(10, 10, 10);
    let cd = convection_diffusion_3d(10, 10, 6, 0.3);
    let z = helmholtz_3d(8, 8, 8, 2.0, 0.5);
    let dispatched = isa();
    let default = (run(FactoKind::Cholesky, &lap), run(FactoKind::Lu, &cd), run(FactoKind::Ldlt, &z));
    force_isa(Isa::Avx2);
    let ymm = (run(FactoKind::Cholesky, &lap), run(FactoKind::Lu, &cd), run(FactoKind::Ldlt, &z));
    force_isa(dispatched);
    let names = ["f64 LLt", "f64 LU", "C64 LDLt"];
    for (name, (d, y)) in names.iter().zip([(&default.0, &ymm.0), (&default.1, &ymm.1), (&default.2, &ymm.2)]) {
        for (rt, (dv, yv)) in RuntimeKind::ALL.iter().zip(d.iter().zip(y)) {
            assert!(dv == yv, "{name} {rt:?}: {dispatched:?} differs bitwise from avx2");
        }
    }
}
