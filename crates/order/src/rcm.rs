//! Reverse Cuthill-McKee ordering (bandwidth reduction), and the
//! Cuthill–McKee numbering it reverses, which nested dissection also
//! relabels its graph with ([`crate::nd`]).
//!
//! Kept as a baseline ordering: it produces long thin elimination trees
//! with little task parallelism, which the ablation benches contrast
//! against nested dissection to show why the paper's DAG shape depends on
//! the ordering.
//!
//! The numbering is as free of the input's labels as structural keys make
//! it: the candidates of a visit are numbered one at a time by degree and
//! by their numbered neighbours, then by how many neighbours they share
//! with those, and by vertex id only when all of these agree. On cubic
//! grids and boxes the ties that remain are swapped by a symmetry of the
//! cube, so every numbering of one of them gives the same canonical graph.
//! It costs `O(m + n log n)` at any degree and allocates nothing per vertex
//! (a tie the keys cannot break costs one small list per tied candidate).

use crate::perm::Permutation;
use dagfact_sparse::graph::{Graph, Traversal};
use std::cmp::Reverse;

/// Number of a vertex `cuthill_mckee` has not numbered yet.
const UNNUMBERED: usize = usize::MAX;

/// A visit of more candidates (a hub's) is numbered in one sort by their
/// first keys: one at a time, each number scans them, `O(n²)` on a hub.
const LARGE_VISIT: usize = 32;
/// [`break_tie`] skips vertices of higher degree (27-point stencils have
/// 26), whose adjacency it would scan for each tied candidate.
const DENSE: usize = 32;

/// Compute the reverse Cuthill-McKee ordering. Each connected component is
/// numbered by Cuthill–McKee (module docs) from a pseudo-peripheral vertex; the
/// concatenated numbering is then reversed.
pub fn reverse_cuthill_mckee(graph: &Graph) -> Permutation {
    let n = graph.nvertices();
    let mut number = vec![UNNUMBERED; n];
    let (mut order, _) = cuthill_mckee_all(graph, &mut Traversal::new(n), &mut number);
    order.reverse();
    Permutation::from_iperm(order)
}

/// Cuthill–McKee numbering of every component of `graph`, each from a
/// pseudo-peripheral vertex of it, components by their smallest vertex:
/// returns the vertices in numbering order and sets `number`, all
/// `usize::MAX` on entry, to the number of every vertex. `traversal` has
/// no vertex entered. If the graph is connected, it is left with every
/// vertex entered and the level structure from the root (the vertex
/// numbered first), whose depth is returned too; otherwise it is left
/// with no vertex entered.
pub(crate) fn cuthill_mckee_all(
    graph: &Graph,
    traversal: &mut Traversal,
    number: &mut [usize],
) -> (Vec<usize>, Option<usize>) {
    let n = graph.nvertices();
    let mut order = Vec::with_capacity(n);
    let (mut pending, mut seen) = (Vec::new(), vec![false; n]);
    // The search from an unnumbered vertex stays inside its component, none
    // of which is numbered: the whole graph is entered once.
    traversal.enter(0..n);
    let mut levels = None;
    for start in 0..n {
        if number[start] == UNNUMBERED {
            let (root, depth) = graph.pseudo_peripheral(start, traversal);
            cuthill_mckee(graph, root, number, &mut order, &mut pending, &mut seen);
            // Connected iff the first component is the whole graph.
            levels = (order.len() == n && start == 0).then_some(depth);
        }
    }
    if levels.is_none() {
        traversal.leave(&order);
    }
    (order, levels)
}

/// Cuthill–McKee numbering of the component of `root`, none of it numbered
/// yet: breadth-first from `root`, appending to `order` and recording in
/// `number`. The unnumbered neighbours of each visited vertex are numbered
/// one at a time, each time the one first by structural keys: degree, then
/// the earliest-numbered neighbour other than the vertex being visited
/// (none sorts last), then the most numbered neighbours, then the least sum
/// of their numbers, and only then vertex id. Each number given updates the
/// keys of the neighbours still waiting, so that symmetric candidates are
/// told apart by the candidates numbered before them; a visit of more than
/// `LARGE_VISIT` candidates numbers them by their keys as it begins.
/// `pending` is scratch space, left empty.
fn cuthill_mckee(
    graph: &Graph,
    root: usize,
    number: &mut [usize],
    order: &mut Vec<usize>,
    pending: &mut Vec<Key>,
    seen: &mut [bool],
) {
    // A waiting vertex is marked `n + its index in pending`.
    let n = number.len();
    number[root] = order.len();
    order.push(root);
    let mut head = order.len() - 1;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &w in graph.neighbors(v) {
            if number[w] == UNNUMBERED {
                number[w] = n + pending.len();
                let mut key = [graph.degree(w), UNNUMBERED, usize::MAX, 0, w];
                for &u in graph.neighbors(w) {
                    if u != v && number[u] < n {
                        add(&mut key, number[u]);
                    }
                }
                pending.push(key);
            }
        }
        if pending.len() > LARGE_VISIT {
            pending.sort_unstable();
            for [.., w] in pending.drain(..) {
                number[w] = order.len();
                order.push(w);
            }
        }
        while let Some(i) = (0..pending.len()).min_by_key(|&i| &pending[i]) {
            let i = break_tie(graph, number, pending, i, seen);
            let w = pending.swap_remove(i)[4];
            if let Some(moved) = pending.get(i) {
                number[moved[4]] = n + i;
            }
            let x = order.len();
            number[w] = x;
            order.push(w);
            for &u in graph.neighbors(w) {
                if (n..UNNUMBERED).contains(&number[u]) {
                    add(&mut pending[number[u] - n], x);
                }
            }
        }
    }
}

/// The candidate to number among those whose keys equal `keys[best]`'s
/// but for the vertex id: the one that shares the most neighbours with
/// its earliest-numbered neighbour, then with the next, and so on (a
/// candidate two hops nearer the numbered vertices goes first; no vertex
/// above `DENSE` is looked at); the vertex id decides the rest. `seen` is
/// all `false`, and left so.
fn break_tie(g: &Graph, number: &[usize], keys: &[Key], best: usize, seen: &mut [bool]) -> usize {
    let tied = |i: &usize| keys[*i][..4] == keys[best][..4];
    if keys[best][0] > DENSE || (0..keys.len()).filter(tied).nth(1).is_none() {
        return best;
    }
    let n = number.len();
    let shared = |i: usize, seen: &mut [bool]| {
        let w = keys[i][4];
        g.neighbors(w).iter().for_each(|&u| seen[u] = true);
        let mut numbered: Vec<usize> = g.neighbors(w).to_vec();
        numbered.retain(|&u| number[u] < n && g.degree(u) <= DENSE);
        numbered.sort_unstable_by_key(|&u| number[u]);
        let shared_with = |u: usize| g.neighbors(u).iter().filter(|&&x| seen[x]).count();
        let common: Vec<_> = numbered.iter().map(|&u| Reverse(shared_with(u))).collect();
        g.neighbors(w).iter().for_each(|&u| seen[u] = false);
        (common, w)
    };
    (0..keys.len()).filter(tied).min_by_key(|&i| shared(i, seen)).unwrap_or(best)
}

/// What orders the candidates of one visit in [`cuthill_mckee`]: degree,
/// earliest number among the numbered neighbours, `usize::MAX` less their
/// count, the sum of their numbers, and the vertex.
type Key = [usize; 5];

/// Count numbered neighbour `number` into `key`.
fn add(key: &mut Key, number: usize) {
    (key[1], key[2], key[3]) = (key[1].min(number), key[2] - 1, key[3] + number);
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
