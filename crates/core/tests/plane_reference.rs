//! Nested dissection held to the geometric plane dissection of the grid
//! generators (`sparse::gen::plane_dissection`), fed through the same
//! `Analysis` as a natural-order input.
//!
//! On 27-point boxes a BFS level set is an L∞ shell, about 1.9 s² vertices
//! at the top of an s³ box; the multilevel split cuts the axis plane, s².
//! On 7-point grids, the `shell_lu` pattern and Helmholtz problems the
//! level sets are diagonal planes, which the multilevel trigger leaves
//! alone. Each ratio is printed. Run with `--release -- --ignored`.

use dagfact_core::{Analysis, AnalysisStats, SolverOptions};
use dagfact_order::{
    level_set_dissection, nested_dissection, NdOptions, OrderingKind, Permutation,
};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_3d, grid_laplacian_3d_box, helmholtz_3d,
    plane_dissection,
};
use dagfact_sparse::graph::Graph;
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::FactoKind;

/// `Analysis` of `pattern` eliminated in the order of `p`.
fn stats(pattern: &SparsityPattern, p: &Permutation, facto: FactoKind) -> AnalysisStats {
    let natural = SolverOptions {
        ordering: OrderingKind::Natural,
        ..SolverOptions::default()
    };
    Analysis::new(&pattern.permute_symmetric(p.perm()), facto, &natural).stats()
}

/// The top separator of an order: the fewest trailing vertices whose
/// removal disconnects the rest.
fn top_separator(graph: &Graph, p: &Permutation) -> usize {
    let n = graph.nvertices();
    let mut root: Vec<usize> = (0..n).collect();
    fn find(root: &mut [usize], mut x: usize) -> usize {
        while root[x] != x {
            (root[x], x) = (root[root[x]], root[x]);
        }
        x
    }
    let (mut parts, mut split_after) = (0usize, 0);
    for i in 0..n {
        parts += 1;
        for &w in graph.neighbors(p.old_of(i)) {
            let (a, b) = (find(&mut root, p.old_of(i)), find(&mut root, w));
            if p.new_of(w) < i && a != b {
                (root[a], parts) = (b, parts - 1);
            }
        }
        if parts >= 2 {
            split_after = i + 1;
        }
    }
    n - split_after
}

/// 27-point boxes: the top separator is the plane, s², and nnz(L) is at
/// most `NNZ_BOUND` times the plane reference's (level sets alone give
/// 1.53–1.75×). The residue is the pieces below the multilevel floor,
/// which level sets still cut by shells.
///
/// `NNZ_BOUND` is a regression guard set just above the measured
/// 1.18–1.32×, not the target: the ordering is meant to reach 1.05×
/// (ROADMAP item 19, open), and the bound drops to that when it does.
#[test]
#[ignore = "release sizes: run with --release -- --ignored"]
fn boxes_are_cut_by_planes() {
    const NNZ_BOUND: f64 = 1.35;
    let options = NdOptions::default();
    for s in [20, 24, 28] {
        let pattern = grid_laplacian_3d_box(s, s, s).pattern().clone();
        let graph = Graph::from_pattern(&pattern);
        let nd = nested_dissection(&graph, &options);
        let planes = Permutation::from_iperm(plane_dissection(s, s, s));
        let level_sets = level_set_dissection(&graph, &options);
        let [nd_stats, plane_stats, ls_stats] =
            [&nd, &planes, &level_sets].map(|p| stats(&pattern, p, FactoKind::Cholesky));
        let ratio = nd_stats.nnz_l as f64 / plane_stats.nnz_l as f64;
        let ls_ratio = ls_stats.nnz_l as f64 / plane_stats.nnz_l as f64;
        let top = top_separator(&graph, &nd) as f64 / (s * s) as f64;
        println!(
            "27-point {s}³: nnz(L) {:.3}x the planes (level sets {ls_ratio:.3}x), \
             {:.2} against {:.2} GFlop, top separator {top:.3} s²",
            ratio,
            nd_stats.flops_real / 1e9,
            plane_stats.flops_real / 1e9,
        );
        assert!(
            ratio <= NNZ_BOUND,
            "{s}³: nnz(L) {ratio:.3}x the plane reference"
        );
        assert!(top <= 1.1, "{s}³: top separator {top:.3} s²");
    }
}

/// Where level sets are already planes, the multilevel split never fires:
/// nnz(L) within 1% of the level-set dissection of the same relabel.
#[test]
#[ignore = "release sizes: run with --release -- --ignored"]
fn level_set_patterns_keep_their_fill() {
    let options = NdOptions::default();
    let cases = [
        (
            "7-point 28³",
            grid_laplacian_3d(28, 28, 28).pattern().clone(),
            FactoKind::Cholesky,
        ),
        (
            "shell_lu",
            convection_diffusion_3d(150, 150, 3, 0.3).pattern().clone(),
            FactoKind::Lu,
        ),
        (
            "Helmholtz 28³",
            helmholtz_3d(28, 28, 28, 2.0, 0.5).pattern().clone(),
            FactoKind::Ldlt,
        ),
    ];
    for (name, pattern, facto) in cases {
        let graph = Graph::from_pattern(&pattern.symmetrize());
        let nd = stats(&pattern, &nested_dissection(&graph, &options), facto);
        let ls = stats(&pattern, &level_set_dissection(&graph, &options), facto);
        let ratio = nd.nnz_l as f64 / ls.nnz_l as f64;
        println!("{name}: nnz(L) {ratio:.4}x the level-set dissection");
        assert!(
            ratio <= 1.01,
            "{name}: nnz(L) {ratio:.4}x the level-set dissection"
        );
    }
}
