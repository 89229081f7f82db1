//! Reverse Cuthill-McKee ordering (bandwidth reduction).
//!
//! Kept as a baseline ordering: it produces long thin elimination trees
//! with little task parallelism, which the ablation benches contrast
//! against nested dissection to show why the paper's DAG shape depends on
//! the ordering.

use crate::perm::Permutation;
use dagfact_sparse::graph::{Graph, Traversal};

/// Compute the reverse Cuthill-McKee ordering. Each connected component is
/// traversed from a pseudo-peripheral vertex, visiting neighbors by
/// increasing degree; the concatenated visit order is then reversed.
pub fn reverse_cuthill_mckee(graph: &Graph) -> Permutation {
    let n = graph.nvertices();
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // The search from an unvisited vertex stays inside its component, none
    // of which is visited: the whole graph is entered once.
    let mut traversal = Traversal::new(n);
    traversal.enter(0..n);
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let (root, _) = graph.pseudo_peripheral(start, &mut traversal);
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = graph
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&w| !visited[w])
                .collect();
            nbrs.sort_unstable_by_key(|&w| (graph.degree(w), w));
            for w in nbrs {
                if !visited[w] {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order.reverse();
    Permutation::from_iperm(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_sparse::graph::Graph;

    fn bandwidth(graph: &Graph, perm: &Permutation) -> usize {
        let mut bw = 0usize;
        for v in 0..graph.nvertices() {
            for &w in graph.neighbors(v) {
                bw = bw.max(perm.new_of(v).abs_diff(perm.new_of(w)));
            }
        }
        bw
    }

    #[test]
    fn reduces_bandwidth_of_shuffled_grid() {
        let a = grid_laplacian_2d(10, 10);
        // Shuffle the grid with a deterministic stride permutation so the
        // natural bandwidth is destroyed.
        let n = a.ncols();
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 37) % n).collect();
        let shuffled = a.pattern().permute_symmetric(&shuffle);
        let g = Graph::from_pattern(&shuffled);
        let ident = Permutation::identity(n);
        let rcm = reverse_cuthill_mckee(&g);
        assert!(
            bandwidth(&g, &rcm) < bandwidth(&g, &ident) / 2,
            "rcm {} vs natural {}",
            bandwidth(&g, &rcm),
            bandwidth(&g, &ident)
        );
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for base in [0usize, 3] {
            for v in 0..3 {
                for w in 0..3 {
                    if v != w {
                        adj.push(base + w);
                    }
                }
                let _ = v;
                xadj.push(adj.len());
            }
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = reverse_cuthill_mckee(&g);
        assert_eq!(p.len(), 6);
        // Valid permutation check is implicit in construction.
    }
    #[test]
    fn many_components_keep_the_parent_permutation() {
        // 2 000 isolated vertices around a 10x10 grid: 2 001 components,
        // each of which used to cost an `n`-long mask.
        let grid = Graph::from_pattern(grid_laplacian_2d(10, 10).pattern());
        let mut xadj = vec![0usize; 1001];
        let mut adj = Vec::new();
        for v in 0..100 {
            adj.extend(grid.neighbors(v).iter().map(|&w| w + 1000));
            xadj.push(adj.len());
        }
        xadj.extend(std::iter::repeat_n(adj.len(), 1000));
        let g = Graph::from_adjacency(xadj, adj);
        let p = reverse_cuthill_mckee(&g);
        // Reversed visit order: the trailing isolated vertices come first,
        // the leading ones last, the grid in between.
        assert_eq!(p.old_of(0), 2099);
        assert_eq!(p.old_of(2099), 0);
        assert!((1000..1100).all(|v| (1000..1100).contains(&p.new_of(v))));
        // FNV-1a of the permutation PR 21 returned.
        let fnv = p.perm().iter().fold(0xcbf2_9ce4_8422_2325u64, |x, &v| {
            (x ^ v as u64).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fnv, 0x9966_e737_8c14_b49b, "{fnv:#x}");
    }
}
