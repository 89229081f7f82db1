//! Minimum-degree ordering on the elimination graph.
//!
//! A deliberately simple (no quotient graph, no supervariables) exact
//! minimum-degree: at each step the lowest-degree vertex is eliminated and
//! its neighborhood turned into a clique. Complexity is fine for the two
//! places it is used — ordering nested-dissection leaves (≤ `leaf_size`
//! vertices) and the subgraphs it finds no separator in, and small
//! standalone problems — and the simplicity keeps it obviously correct,
//! which matters more here than AMD-grade speed. It does not order
//! separators: a step scans the whole live set, `O(k²)` on a `k`-vertex
//! separator of thousands, and a separator's order sets its block count,
//! not its fill (see [`crate::nd`]).
//!
//! A subset of at most 128 vertices (every nested-dissection leaf) is
//! eliminated on `u128` bit sets, where forming the clique is one `or` per
//! neighbour: on a 27-point box's leaves, whose cliques grow dense, that is
//! about 4× less ordering time than sorted-vector inserts, for the same
//! eliminations in the same order.
//!
//! A subset of `k` vertices costs its own elimination work and nothing
//! `n`-sized: the global → local index map and the adjacency vectors live
//! in a caller-owned [`MdWorkspace`]. Every call un-maps the vertices it
//! mapped and empties the vectors it filled (keeping their capacity), so
//! the workspace is clean between calls.

use crate::perm::Permutation;
use dagfact_sparse::graph::Graph;

/// Reusable state of [`minimum_degree_subset`]; grows to the graph's size
/// on first use.
#[derive(Debug, Default)]
pub struct MdWorkspace {
    /// Local index of a vertex of the current subset, `usize::MAX` else.
    local_of: Vec<usize>,
    /// Sorted local adjacency of the live vertices; recycled across calls.
    adj: Vec<Vec<usize>>,
    eliminated: Vec<bool>,
}

/// Order all vertices of `graph` by minimum degree. Ties break toward the
/// smallest vertex id, making the ordering deterministic.
pub fn minimum_degree(graph: &Graph) -> Permutation {
    let n = graph.nvertices();
    let mut order = Vec::with_capacity(n);
    let vertices: Vec<usize> = (0..n).collect();
    minimum_degree_subset(graph, &vertices, &mut MdWorkspace::default(), &mut order);
    Permutation::from_iperm(order)
}

/// Order the given vertex subset (which must be closed: edges leaving the
/// subset are ignored) by minimum degree; appends the vertex ids to `order`
/// in elimination order.
pub fn minimum_degree_subset(
    graph: &Graph,
    vertices: &[usize],
    ws: &mut MdWorkspace,
    order: &mut Vec<usize>,
) {
    eliminate(graph, vertices, ws, order, vertices.len() <= SMALL);
}

/// [`minimum_degree_subset`], on bit sets if `on_bits` (≤ `SMALL` vertices).
fn eliminate(graph: &Graph, vertices: &[usize], ws: &mut MdWorkspace, order: &mut Vec<usize>, on_bits: bool) {
    let k = vertices.len();
    let MdWorkspace { local_of, adj, eliminated } = ws;
    local_of.resize(graph.nvertices(), usize::MAX);
    // Local adjacency as sorted vectors over local indices.
    for (li, &v) in vertices.iter().enumerate() {
        debug_assert_eq!(local_of[v], usize::MAX, "vertex {v} is still mapped");
        local_of[v] = li;
    }
    if on_bits {
        return minimum_degree_small(graph, vertices, local_of, order);
    }
    if adj.len() < k {
        adj.resize_with(k, Vec::new);
    }
    for (li, &v) in vertices.iter().enumerate() {
        debug_assert!(adj[li].is_empty(), "the previous call left adjacency behind");
        let local = graph.neighbors(v).iter().map(|&w| local_of[w]);
        adj[li].extend(local.filter(|&lw| lw != usize::MAX));
        adj[li].sort_unstable();
        adj[li].dedup();
    }
    for &v in vertices {
        local_of[v] = usize::MAX;
    }
    eliminated.clear();
    eliminated.resize(k, false);
    for _ in 0..k {
        // Pick the minimum-degree live vertex.
        let mut best = usize::MAX;
        let mut best_deg = usize::MAX;
        for li in 0..k {
            if !eliminated[li] {
                let deg = adj[li].len();
                if deg < best_deg {
                    best_deg = deg;
                    best = li;
                }
            }
        }
        let v = best;
        eliminated[v] = true;
        order.push(vertices[v]);
        // Form the clique among v's live neighbors and detach v.
        let mut nbrs = std::mem::take(&mut adj[v]);
        nbrs.retain(|&w| !eliminated[w]);
        for &w in &nbrs {
            // Remove v, add all other clique members.
            let aw = &mut adj[w];
            if let Ok(pos) = aw.binary_search(&v) {
                aw.remove(pos);
            }
            for &u in &nbrs {
                if u != w {
                    if let Err(pos) = aw.binary_search(&u) {
                        aw.insert(pos, u);
                    }
                }
            }
        }
        nbrs.clear();
        adj[v] = nbrs;
    }
}

/// Subsets up to this size are eliminated on bit sets.
const SMALL: usize = 128;

/// The eliminations of [`minimum_degree_subset`] on at most `SMALL`
/// vertices, mapped to their positions in `vertices` by `local_of`, with
/// each adjacency a bit set: forming a clique is one `or` per neighbour.
/// Un-maps the vertices.
fn minimum_degree_small(
    graph: &Graph,
    vertices: &[usize],
    local_of: &mut [usize],
    order: &mut Vec<usize>,
) {
    let bit = |i: usize| 1u128 << i;
    let mut adj = [0u128; SMALL];
    for (li, &v) in vertices.iter().enumerate() {
        for &w in graph.neighbors(v) {
            if local_of[w] != usize::MAX && local_of[w] != li {
                adj[li] |= bit(local_of[w]);
            }
        }
    }
    for &v in vertices {
        local_of[v] = usize::MAX;
    }
    let mut live = (0..vertices.len()).fold(0u128, |set, i| set | bit(i));
    while live != 0 {
        // The live vertex of least degree, the first such.
        let (mut v, mut least, mut rest) = (0, u32::MAX, live);
        while rest != 0 {
            let li = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if adj[li].count_ones() < least {
                (v, least) = (li, adj[li].count_ones());
            }
        }
        live &= !bit(v);
        order.push(vertices[v]);
        let mut rest = adj[v];
        while rest != 0 {
            let w = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            adj[w] = (adj[w] | adj[v]) & !bit(w) & !bit(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{grid_laplacian_2d, random_spd};
    use dagfact_sparse::graph::Graph;

    #[test]
    fn star_graph_center_last() {
        // Star: center 0 connected to 1..=4. MD must eliminate leaves first.
        let mut xadj = vec![0usize];
        let mut adjncy = vec![1, 2, 3, 4];
        xadj.push(4);
        for _ in 1..=4 {
            adjncy.push(0);
            xadj.push(adjncy.len());
        }
        let g = Graph::from_adjacency(xadj, adjncy);
        let p = minimum_degree(&g);
        // The hub may legally tie with the final leaf (eliminating it then
        // causes no fill), but it must never go while ≥ 2 leaves remain.
        assert!(p.new_of(0) >= 3, "hub eliminated too early: {}", p.new_of(0));
    }

    #[test]
    fn ordering_is_a_valid_permutation() {
        let a = random_spd(80, 4, 3);
        let g = Graph::from_pattern(a.pattern());
        let p = minimum_degree(&g);
        let mut seen = [false; 80];
        for new in 0..80 {
            let old = p.old_of(new);
            assert!(!seen[old]);
            seen[old] = true;
        }
    }

    #[test]
    fn subset_ordering_only_touches_subset() {
        let a = grid_laplacian_2d(5, 5);
        let g = Graph::from_pattern(a.pattern());
        let subset = vec![0, 1, 2, 5, 6, 7];
        let mut ws = MdWorkspace::default();
        let mut order = Vec::new();
        minimum_degree_subset(&g, &subset, &mut ws, &mut order);
        assert_eq!(order.len(), subset.len());
        // The workspace is clean again: an overlapping subset, then the
        // same one, order as on a fresh workspace.
        minimum_degree_subset(&g, &[1, 2, 3, 7, 8], &mut ws, &mut Vec::new());
        let mut again = Vec::new();
        minimum_degree_subset(&g, &subset, &mut ws, &mut again);
        assert_eq!(again, order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        let mut expect = subset.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    /// The bit-set eliminations are the list eliminations the path above
    /// `SMALL` vertices makes.
    #[test]
    fn bit_sets_eliminate_as_lists_do() {
        let graphs = [
            Graph::from_pattern(grid_laplacian_2d(11, 11).pattern()),
            Graph::from_pattern(random_spd(128, 3, 9).pattern()),
            Graph::from_pattern(random_spd(300, 5, 4).pattern()),
        ];
        let mut ws = MdWorkspace::default();
        for g in &graphs {
            for (len, stride) in [(128, 1), (97, 3), (40, 7), (1, 1)] {
                let subset: Vec<usize> = (0..g.nvertices()).step_by(stride).take(len).collect();
                let (mut on_bits, mut on_lists) = (Vec::new(), Vec::new());
                minimum_degree_subset(g, &subset, &mut ws, &mut on_bits);
                eliminate(g, &subset, &mut ws, &mut on_lists, false);
                assert_eq!(on_bits, on_lists, "{len} vertices, stride {stride}");
            }
        }
    }

    #[test]
    fn path_graph_avoids_fill() {
        // On a path, MD produces zero fill; a correct implementation will
        // never eliminate an interior vertex while endpoints remain.
        let n = 7;
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for v in 0..n {
            if v > 0 {
                adj.push(v - 1);
            }
            if v + 1 < n {
                adj.push(v + 1);
            }
            xadj.push(adj.len());
        }
        let g = Graph::from_adjacency(xadj, adj);
        let p = minimum_degree(&g);
        // First eliminated vertex must be an endpoint (degree 1).
        let first = p.old_of(0);
        assert!(first == 0 || first == n - 1);
    }
}
