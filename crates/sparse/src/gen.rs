//! Synthetic problem generators.
//!
//! The paper evaluates on nine matrices from the University of Florida
//! collection (Table I). Those files are not redistributable inside this
//! repository, so the benchmark harness substitutes grid-based generators
//! with matching *character*: dimensionality (quasi-2D shell vs. 3D
//! volume), stencil density, arithmetic (real/complex) and the kind of
//! factorization they require (SPD → LLᵀ, symmetric indefinite → LDLᵀ,
//! unsymmetric values → LU). See `DESIGN.md` §2 for the mapping.
//!
//! All generators produce structurally symmetric matrices (the solver works
//! on `A + Aᵀ` anyway, §III) with deterministic values.

use crate::coo::TripletBuilder;
use crate::csc::CscMatrix;
use dagfact_kernels::{Scalar, C64};

/// Small deterministic PRNG (SplitMix64) for the random generators —
/// seedable, dependency-free, and identical across platforms.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[-1, 1)`.
    fn symmetric_unit(&mut self) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        2.0 * unit - 1.0
    }
}

/// Stencil connectivity for grid generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stencil {
    /// 5-point (2D) / 7-point (3D): axis neighbors only.
    Star,
    /// 9-point (2D) / 27-point (3D): full Moore neighborhood.
    Box,
}

fn neighbors_3d(stencil: Stencil) -> Vec<(i64, i64, i64)> {
    let mut out = Vec::new();
    for dz in -1i64..=1 {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if (dx, dy, dz) == (0, 0, 0) {
                    continue;
                }
                let manhattan = dx.abs() + dy.abs() + dz.abs();
                if stencil == Stencil::Star && manhattan != 1 {
                    continue;
                }
                out.push((dx, dy, dz));
            }
        }
    }
    out
}

/// Generic 3D grid operator: `nx×ny×nz` vertices, the given stencil, and a
/// caller-supplied value model `(i, j) -> T` for off-diagonal entries plus
/// `diag(i, degree) -> T` for the diagonal.
pub fn grid_operator_3d<T: Scalar>(
    nx: usize,
    ny: usize,
    nz: usize,
    stencil: Stencil,
    mut off: impl FnMut(usize, usize) -> T,
    mut diag: impl FnMut(usize, usize) -> T,
) -> CscMatrix<T> {
    let n = nx * ny * nz;
    let deltas = neighbors_3d(stencil);
    let mut b = TripletBuilder::with_capacity(n, n, n * (deltas.len() + 1));
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut degree = 0usize;
                for &(dx, dy, dz) in &deltas {
                    let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                    if xx < 0
                        || yy < 0
                        || zz < 0
                        || xx >= nx as i64
                        || yy >= ny as i64
                        || zz >= nz as i64
                    {
                        continue;
                    }
                    let j = idx(xx as usize, yy as usize, zz as usize);
                    degree += 1;
                    b.push(i, j, off(i, j));
                }
                b.push(i, i, diag(i, degree));
            }
        }
    }
    b.build()
}

/// SPD Laplacian on a 2D grid (5-point stencil): the canonical quickstart
/// matrix. Diagonal is `degree + 1` so the operator is strictly positive
/// definite even with Neumann-like boundaries.
pub fn grid_laplacian_2d(nx: usize, ny: usize) -> CscMatrix<f64> {
    grid_laplacian_3d(nx, ny, 1)
}

/// SPD Laplacian on a 3D grid (7-point stencil).
pub fn grid_laplacian_3d(nx: usize, ny: usize, nz: usize) -> CscMatrix<f64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Star,
        |_, _| -1.0,
        |_, deg| deg as f64 + 1.0,
    )
}

/// SPD operator on a 3D grid with the dense 27-point stencil — the proxy
/// for mechanically-coupled problems like `audi`.
pub fn grid_laplacian_3d_box(nx: usize, ny: usize, nz: usize) -> CscMatrix<f64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Box,
        |_, _| -0.5,
        |_, deg| 0.5 * deg as f64 + 1.0,
    )
}

/// Symmetric **indefinite** 3D operator (shifted Laplacian): the proxy for
/// LDLᵀ problems like `Serena`. The negative shift pushes part of the
/// spectrum below zero while diagonal blocks stay comfortably invertible
/// without pivoting.
pub fn shifted_laplacian_3d(nx: usize, ny: usize, nz: usize, shift: f64) -> CscMatrix<f64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Star,
        |_, _| -1.0,
        move |i, deg| {
            // Alternate heavy positive/negative diagonal so the matrix is
            // indefinite yet strongly block-diagonally dominant.
            let sign = if i % 5 == 0 { -1.0 } else { 1.0 };
            sign * (deg as f64 + shift)
        },
    )
}

/// Complex *symmetric* Helmholtz-like operator (proxy for `pmlDF` and
/// `FilterV2`): `-Δ - (k² + iσ)I` discretized on a 3D grid. Symmetric, not
/// Hermitian, as produced by PML absorbing boundary layers.
pub fn helmholtz_3d(nx: usize, ny: usize, nz: usize, k2: f64, sigma: f64) -> CscMatrix<C64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Star,
        |_, _| C64::new(-1.0, 0.0),
        move |_, deg| C64::new(deg as f64 - k2 + 8.0, sigma),
    )
}

/// Unsymmetric-valued convection-diffusion operator on a 3D grid (proxy for
/// the LU problems `MHD`, `HOOK`, `afshell10`): symmetric pattern, but the
/// convective term skews upwind/downwind coefficients.
pub fn convection_diffusion_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    convection: f64,
) -> CscMatrix<f64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Star,
        move |i, j| {
            if j > i {
                -1.0 - convection
            } else {
                -1.0 + convection
            }
        },
        |_, deg| deg as f64 + 2.0,
    )
}

/// Complex unsymmetric operator (proxy for `FilterV2`'s Z LU problem).
pub fn complex_unsym_3d(nx: usize, ny: usize, nz: usize) -> CscMatrix<C64> {
    grid_operator_3d(
        nx,
        ny,
        nz,
        Stencil::Star,
        |i, j| {
            if j > i {
                C64::new(-1.0, 0.3)
            } else {
                C64::new(-1.0, -0.2)
            }
        },
        |_, deg| C64::new(deg as f64 + 2.0, 1.0),
    )
}

/// Geometric nested dissection of the `nx×ny×nz` grid of the generators
/// above (vertex `(z·ny + y)·nx + x`), the reference a graph ordering's
/// separators are held to: each box is bisected along its longest axis
/// (the first such, in x, y, z order) by a one-vertex-thick plane, the two
/// halves are ordered first and the plane is numbered last; a box no
/// longer than 2 along every axis is numbered in grid order. Returns the
/// vertices in elimination order.
pub fn plane_dissection(nx: usize, ny: usize, nz: usize) -> Vec<usize> {
    fn dissect(lo: [usize; 3], hi: [usize; 3], dims: [usize; 3], order: &mut Vec<usize>) {
        let len = [0, 1, 2].map(|a| hi[a] - lo[a]);
        if len.contains(&0) {
            return;
        }
        let axis = (0..3).fold(0, |best, a| if len[a] > len[best] { a } else { best });
        let (mut plane_lo, mut plane_hi) = (lo, hi);
        if len[axis] >= 3 {
            let mid = lo[axis] + len[axis] / 2;
            let (mut below, mut above) = (hi, lo);
            (below[axis], above[axis]) = (mid, mid + 1);
            dissect(lo, below, dims, order);
            dissect(above, hi, dims, order);
            (plane_lo[axis], plane_hi[axis]) = (mid, mid + 1);
        }
        for z in plane_lo[2]..plane_hi[2] {
            for y in plane_lo[1]..plane_hi[1] {
                order.extend((plane_lo[0]..plane_hi[0]).map(|x| (z * dims[1] + y) * dims[0] + x));
            }
        }
    }
    let mut order = Vec::with_capacity(nx * ny * nz);
    dissect([0; 3], [nx, ny, nz], [nx, ny, nz], &mut order);
    order
}

/// Random symmetric-pattern SPD matrix: `target_nnz_per_col` random
/// off-diagonal entries per column mirrored across the diagonal, with a
/// dominant diagonal. Used heavily by property tests.
pub fn random_spd(n: usize, target_nnz_per_col: usize, seed: u64) -> CscMatrix<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut b = TripletBuilder::with_capacity(n, n, n * (2 * target_nnz_per_col + 1));
    let mut rowsum = vec![0.0f64; n];
    for j in 0..n {
        for _ in 0..target_nnz_per_col {
            let i = rng.index(n);
            if i == j {
                continue;
            }
            let v = rng.symmetric_unit();
            b.push(i, j, v);
            b.push(j, i, v);
            rowsum[i] += v.abs();
            rowsum[j] += v.abs();
        }
    }
    for (j, &s) in rowsum.iter().enumerate() {
        b.push(j, j, 2.0 * s + 1.0);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_dissection_numbers_the_middle_plane_last() {
        let (nx, ny, nz) = (5, 9, 4);
        let order = plane_dissection(nx, ny, nz);
        let mut seen = order.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..nx * ny * nz), "not a permutation");
        // y is longest: the last 20 vertices are the plane y = 4.
        let top = &order[order.len() - nx * nz..];
        assert!(top.iter().all(|&v| (v / nx) % ny == 4), "{top:?}");
        // The halves y < 4 and y > 4 come before it, in that order.
        let half = nx * nz * 4;
        assert!(order[..half].iter().all(|&v| (v / nx) % ny < 4));
    }

    #[test]
    fn laplacian_2d_structure() {
        let a = grid_laplacian_2d(3, 3);
        assert_eq!(a.nrows(), 9);
        assert!(a.is_symmetric());
        // Interior point: 4 neighbors + diagonal.
        assert_eq!(a.col_rows(4).len(), 5);
        assert_eq!(a.get(4, 4), 5.0);
        assert_eq!(a.get(3, 4), -1.0);
        // Corner: 2 neighbors + diagonal.
        assert_eq!(a.col_rows(0).len(), 3);
    }

    #[test]
    fn laplacian_3d_box_has_27pt_interior() {
        let a = grid_laplacian_3d_box(3, 3, 3);
        assert_eq!(a.nrows(), 27);
        // Center vertex (1,1,1) touches all 26 neighbors + itself.
        assert_eq!(a.col_rows(13).len(), 27);
        assert!(a.is_symmetric());
    }

    #[test]
    fn helmholtz_is_complex_symmetric_not_hermitian() {
        let a = helmholtz_3d(3, 2, 2, 4.0, 0.5);
        assert!(a.is_symmetric()); // plain transpose equality
        // Diagonal has nonzero imaginary part → not Hermitian.
        assert!(a.get(0, 0).im != 0.0);
    }

    #[test]
    fn convection_diffusion_is_structurally_symmetric_only() {
        let a = convection_diffusion_3d(3, 3, 2, 0.4);
        assert!(a.pattern().is_symmetric());
        assert!(!a.is_symmetric());
        assert_eq!(a.get(0, 1) + a.get(1, 0), -2.0); // -1±c pair
    }

    #[test]
    fn random_spd_is_diagonally_dominant() {
        let a = random_spd(50, 4, 42);
        assert!(a.is_symmetric());
        for j in 0..50 {
            let diag = a.get(j, j);
            let off: f64 = a
                .col_rows(j)
                .iter()
                .zip(a.col_values(j))
                .filter(|&(&i, _)| i != j)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag > off, "column {j} not dominant: {diag} vs {off}");
        }
    }

    #[test]
    fn shifted_laplacian_is_indefinite() {
        let a = shifted_laplacian_3d(4, 4, 4, 1.0);
        assert!(a.is_symmetric());
        let has_neg = (0..a.ncols()).any(|j| a.get(j, j) < 0.0);
        let has_pos = (0..a.ncols()).any(|j| a.get(j, j) > 0.0);
        assert!(has_neg && has_pos);
    }
}
