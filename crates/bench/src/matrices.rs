//! The nine proxy problems standing in for the paper's Table I matrices.
//!
//! The University of Florida files are not redistributable here, so each
//! paper matrix is replaced by a synthetic generator with the same
//! *character* — dimensionality, stencil density, arithmetic and
//! factorization kind — scaled down ≈300× in flops so a full analysis and
//! simulation sweep runs in minutes on a laptop. The flop *ordering* of
//! Table I (afshell10 ≪ … ≪ Serena) is preserved; `table1` prints the
//! actual numbers next to the paper's.

use dagfact_core::{Analysis, SolverOptions};
use dagfact_sparse::gen;
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::FactoKind;

/// One Table-I row: a proxy generator plus the paper's reference figures.
pub struct MatrixProxy {
    /// Paper matrix name.
    pub name: &'static str,
    /// `"D"` (real double) or `"Z"` (double complex).
    pub prec: &'static str,
    /// Factorization the paper uses for it.
    pub facto: FactoKind,
    /// Paper's Table I columns (size, nnz(A) of the input, nnz(L), TFlop).
    pub paper: PaperRow,
    /// How the proxy is generated (documentation string for reports).
    pub proxy_desc: &'static str,
    generator: fn() -> SparsityPattern,
}

/// The reference numbers from the paper's Table I.
#[derive(Debug, Clone, Copy)]
pub struct PaperRow {
    /// Matrix order.
    pub n: f64,
    /// Input nonzeros.
    pub nnz_a: f64,
    /// Factor nonzeros.
    pub nnz_l: f64,
    /// Factorization TFlop.
    pub tflop: f64,
}

impl MatrixProxy {
    /// Generate the proxy pattern.
    pub fn pattern(&self) -> SparsityPattern {
        (self.generator)()
    }

    /// `true` for double-complex arithmetic.
    pub fn is_complex(&self) -> bool {
        self.prec == "Z"
    }

    /// Run the analysis phase on the proxy.
    pub fn analyze(&self) -> Analysis {
        Analysis::new(&self.pattern(), self.facto, &SolverOptions::default())
    }
}

macro_rules! pattern_of {
    ($e:expr) => {{
        fn gen_pattern() -> SparsityPattern {
            $e.pattern().clone()
        }
        gen_pattern
    }};
}

/// The nine proxies, in Table I order (ascending paper flops).
pub fn proxies() -> Vec<MatrixProxy> {
    vec![
        MatrixProxy {
            name: "afshell10",
            prec: "D",
            facto: FactoKind::Lu,
            paper: PaperRow {
                n: 1.5e6,
                nnz_a: 27e6,
                nnz_l: 610e6,
                tflop: 0.12,
            },
            proxy_desc: "thin quasi-2D shell: 150x150x3 grid, 7-pt, unsymmetric values",
            generator: pattern_of!(gen::convection_diffusion_3d(150, 150, 3, 0.3)),
        },
        MatrixProxy {
            name: "FilterV2",
            prec: "Z",
            facto: FactoKind::Lu,
            paper: PaperRow {
                n: 0.6e6,
                nnz_a: 12e6,
                nnz_l: 536e6,
                tflop: 3.6,
            },
            proxy_desc: "3D optical-filter stand-in: 28^3 grid, 7-pt, complex unsymmetric",
            generator: pattern_of!(gen::complex_unsym_3d(28, 28, 28)),
        },
        MatrixProxy {
            name: "Flan",
            prec: "D",
            facto: FactoKind::Cholesky,
            paper: PaperRow {
                n: 1.6e6,
                nnz_a: 59e6,
                nnz_l: 1712e6,
                tflop: 5.3,
            },
            proxy_desc: "3D mechanical SPD: 44^3 grid, 7-pt",
            generator: pattern_of!(gen::grid_laplacian_3d(44, 44, 44)),
        },
        MatrixProxy {
            name: "audi",
            prec: "D",
            facto: FactoKind::Cholesky,
            paper: PaperRow {
                n: 0.9e6,
                nnz_a: 39e6,
                nnz_l: 1325e6,
                tflop: 6.5,
            },
            proxy_desc: "crankshaft SPD with dense coupling: 37^3 grid, 27-pt",
            generator: pattern_of!(gen::grid_laplacian_3d_box(37, 37, 37)),
        },
        MatrixProxy {
            name: "MHD",
            prec: "D",
            facto: FactoKind::Lu,
            paper: PaperRow {
                n: 0.5e6,
                nnz_a: 24e6,
                nnz_l: 1133e6,
                tflop: 6.6,
            },
            proxy_desc: "magnetohydrodynamics: 34^3 grid, 27-pt, unsymmetric values",
            generator: pattern_of!(gen::grid_operator_3d(
                34,
                34,
                34,
                gen::Stencil::Box,
                |i, j| if j > i { -0.8 } else { -1.2 },
                |_, deg| deg as f64 + 2.0,
            )),
        },
        MatrixProxy {
            name: "Geo1438",
            prec: "D",
            facto: FactoKind::Cholesky,
            paper: PaperRow {
                n: 1.4e6,
                nnz_a: 32e6,
                nnz_l: 2768e6,
                tflop: 23.0,
            },
            proxy_desc: "geomechanical SPD: 54^3 grid, 7-pt",
            generator: pattern_of!(gen::grid_laplacian_3d(54, 54, 54)),
        },
        MatrixProxy {
            name: "pmlDF",
            prec: "Z",
            facto: FactoKind::Ldlt,
            paper: PaperRow {
                n: 1.0e6,
                nnz_a: 8e6,
                nnz_l: 1105e6,
                tflop: 28.0,
            },
            proxy_desc: "PML electromagnetics: 44^3 grid, 7-pt, complex symmetric",
            generator: pattern_of!(gen::helmholtz_3d(44, 44, 44, 2.0, 0.5)),
        },
        MatrixProxy {
            name: "HOOK",
            prec: "D",
            facto: FactoKind::Lu,
            paper: PaperRow {
                n: 1.5e6,
                nnz_a: 31e6,
                nnz_l: 4168e6,
                tflop: 35.0,
            },
            proxy_desc: "3D structural LU: 52^3 grid, 7-pt, unsymmetric values",
            generator: pattern_of!(gen::convection_diffusion_3d(52, 52, 52, 0.4)),
        },
        MatrixProxy {
            name: "Serena",
            prec: "D",
            facto: FactoKind::Ldlt,
            paper: PaperRow {
                n: 1.4e6,
                nnz_a: 32e6,
                nnz_l: 3365e6,
                tflop: 47.0,
            },
            proxy_desc: "gas-reservoir symmetric indefinite: 61^3 grid, 7-pt",
            generator: pattern_of!(gen::shifted_laplacian_3d(61, 61, 61, 1.0)),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_nine_table1_rows() {
        let p = proxies();
        assert_eq!(p.len(), 9);
        // Paper flop ordering is ascending by construction of Table I.
        for w in p.windows(2) {
            assert!(w[0].paper.tflop <= w[1].paper.tflop);
        }
        // Arithmetic/facto kinds match the paper.
        assert_eq!(p[1].prec, "Z");
        assert_eq!(p[6].facto, FactoKind::Ldlt);
        assert_eq!(p[8].facto, FactoKind::Ldlt);
    }

    #[test]
    fn smallest_proxy_analyzes_quickly_and_nontrivially() {
        let p = proxies();
        let an = p[0].analyze();
        let st = an.stats();
        assert!(st.n > 10_000);
        assert!(st.flops_real > 1e8);
    }
}
