//! Adjacency-graph view of a symmetric sparsity pattern.
//!
//! Nested dissection (the SCOTCH substitute in `dagfact-order`) operates on
//! the undirected connectivity graph of `A + Aᵀ` with self-loops removed.
//! This module provides that view plus the classic traversals: BFS level
//! structures, pseudo-peripheral vertex search, and connected components.
//!
//! # Cost and the reset contract
//!
//! Traversals run on a caller-owned [`Traversal`], allocated once per
//! ordering. A traversal of a subgraph with `k` vertices and `m` edges
//! costs `O(k + m)`: nothing `n`-sized is allocated, filled or scanned per
//! call. The caller [`enter`](Traversal::enter)s a vertex subset, runs any
//! number of traversals on it, and [`leave`](Traversal::leave)s it by
//! walking the same list. Each traversal first un-labels what the previous
//! one visited (by walking its visit list, never by `memset`), so between
//! calls every label is either "outside" or "inside, unvisited".

use crate::pattern::SparsityPattern;

/// Undirected graph in CSR-like adjacency form (no self-loops; every edge
/// stored in both directions).
#[derive(Debug, Clone)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

/// Label of a vertex outside the entered subset.
const OUTSIDE: usize = usize::MAX;
/// Label of an entered vertex the current traversal has not reached.
const UNSEEN: usize = usize::MAX - 1;

/// Scratch state of the traversals of one graph: sized by the vertex count
/// once, reused by every call (see the module docs for the contract).
#[derive(Debug)]
pub struct Traversal {
    /// `OUTSIDE`, `UNSEEN`, or what the last traversal assigned: the BFS
    /// level or the component id.
    label: Vec<usize>,
    /// Vertices the last traversal labeled, in visit order.
    visited: Vec<usize>,
    /// `visited[level_ptr[l]..level_ptr[l + 1]]` is BFS level `l`.
    level_ptr: Vec<usize>,
}

impl Traversal {
    /// Workspace for a graph of `n` vertices, no vertex entered.
    pub fn new(n: usize) -> Self {
        Traversal {
            label: vec![OUTSIDE; n],
            visited: Vec::with_capacity(n),
            level_ptr: Vec::new(),
        }
    }

    /// Restrict the following traversals to `vertices` (none of them
    /// entered already).
    pub fn enter(&mut self, vertices: impl IntoIterator<Item = usize>) {
        for v in vertices {
            debug_assert_eq!(self.label[v], OUTSIDE, "vertex {v} was not left");
            self.label[v] = UNSEEN;
        }
    }

    /// Undo [`enter`](Self::enter) of the same `vertices`.
    pub fn leave(&mut self, vertices: &[usize]) {
        for &v in vertices {
            self.label[v] = OUTSIDE;
        }
        self.visited.clear();
    }

    /// BFS level ([`Graph::bfs_levels`]) or component id
    /// ([`Graph::components`]) the last traversal gave `v`; `None` if it
    /// did not reach `v`.
    pub fn label(&self, v: usize) -> Option<usize> {
        Some(self.label[v]).filter(|&l| l < UNSEEN)
    }

    /// Vertices of level `l` of the last BFS (empty past its depth).
    pub fn level_set(&self, l: usize) -> &[usize] {
        match self.level_ptr.get(l..l + 2) {
            Some(ends) => &self.visited[ends[0]..ends[1]],
            None => &[],
        }
    }

    /// Un-label what the previous traversal visited.
    fn rewind(&mut self) {
        for &v in &self.visited {
            self.label[v] = UNSEEN;
        }
        self.visited.clear();
    }

    /// Label `v` and queue it if the traversal has not reached it yet.
    fn visit(&mut self, v: usize, label: usize) {
        if self.label[v] == UNSEEN {
            self.label[v] = label;
            self.visited.push(v);
        }
    }
}

impl Graph {
    /// Build the connectivity graph of a square pattern: symmetrizes
    /// (unless the pattern already is symmetric) and drops the diagonal.
    pub fn from_pattern(pattern: &SparsityPattern) -> Self {
        if !pattern.is_symmetric() {
            return Self::from_pattern(&pattern.symmetrize());
        }
        let n = pattern.ncols();
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::with_capacity(pattern.nnz());
        for j in 0..n {
            adjncy.extend(pattern.col(j).iter().filter(|&&i| i != j));
            xadj.push(adjncy.len());
        }
        Graph { xadj, adjncy }
    }

    /// Build directly from adjacency arrays (must be symmetric and
    /// loop-free; only checked in debug builds).
    pub fn from_adjacency(xadj: Vec<usize>, adjncy: Vec<usize>) -> Self {
        debug_assert_eq!(*xadj.last().unwrap_or(&0), adjncy.len());
        Graph { xadj, adjncy }
    }

    /// Number of vertices.
    pub fn nvertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Breadth-first level structure from `root` over the entered
    /// vertices: afterwards [`Traversal::label`] is the distance from
    /// `root` and [`Traversal::level_set`] lists each level. Returns the number
    /// of levels (0 if `root` is not entered).
    pub fn bfs_levels(&self, root: usize, ws: &mut Traversal) -> usize {
        ws.rewind();
        ws.level_ptr.clear();
        ws.level_ptr.push(0);
        ws.visit(root, 0);
        let mut from = 0;
        while from < ws.visited.len() {
            let to = ws.visited.len();
            ws.level_ptr.push(to);
            let depth = ws.level_ptr.len() - 1;
            for i in from..to {
                for &w in self.neighbors(ws.visited[i]) {
                    ws.visit(w, depth);
                }
            }
            from = to;
        }
        ws.level_ptr.len() - 1
    }

    /// Find a pseudo-peripheral vertex of the entered subgraph containing
    /// `start` (George-Liu iteration: repeatedly jump to a farthest
    /// minimum-degree vertex until eccentricity stops growing). Returns the
    /// vertex and the depth of its level structure, which is the one left
    /// in `ws`.
    pub fn pseudo_peripheral(&self, start: usize, ws: &mut Traversal) -> (usize, usize) {
        self.pseudo_peripheral_by(start, ws, |v| v)
    }

    /// [`pseudo_peripheral`](Self::pseudo_peripheral) with ties between
    /// farthest vertices of one degree broken by `rank` instead of the
    /// vertex id.
    pub fn pseudo_peripheral_by(
        &self,
        start: usize,
        ws: &mut Traversal,
        rank: impl Fn(usize) -> usize,
    ) -> (usize, usize) {
        let ecc = self.bfs_levels(start, ws);
        self.pseudo_peripheral_from(start, ecc, ws, rank)
    }

    /// [`pseudo_peripheral_by`](Self::pseudo_peripheral_by) when `ws`
    /// already holds the level structure from `start`, of `ecc` levels
    /// (the last search of an earlier pseudo-peripheral search, say).
    pub fn pseudo_peripheral_from(
        &self,
        start: usize,
        ecc: usize,
        ws: &mut Traversal,
        rank: impl Fn(usize) -> usize,
    ) -> (usize, usize) {
        let (mut root, mut ecc) = (start, ecc);
        loop {
            // Farthest level, pick its minimum-degree vertex.
            let far = ws.level_set(ecc.saturating_sub(1)).iter().copied();
            let candidate = far.min_by_key(|&v| (self.degree(v), rank(v))).unwrap_or(root);
            if candidate == root {
                return (root, ecc);
            }
            let shallower = ecc;
            (root, ecc) = (candidate, self.bfs_levels(candidate, ws));
            if ecc <= shallower {
                return (root, ecc);
            }
        }
    }

    /// Connected components of the subgraph induced by the entered,
    /// ascending `vertices`: [`Traversal::label`] becomes the component id
    /// (numbered by smallest vertex). Returns the component count.
    pub fn components(&self, vertices: &[usize], ws: &mut Traversal) -> usize {
        ws.rewind();
        let mut ncomp = 0usize;
        for &s in vertices {
            let start = ws.visited.len();
            ws.visit(s, ncomp);
            let mut next = start;
            while next < ws.visited.len() {
                for &w in self.neighbors(ws.visited[next]) {
                    ws.visit(w, ncomp);
                }
                next += 1;
            }
            ncomp += usize::from(next > start);
        }
        ncomp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid_laplacian_2d;

    fn path_graph(n: usize) -> Graph {
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
        Graph::from_adjacency(xadj, adj)
    }

    #[test]
    fn pattern_to_graph_drops_diagonal() {
        let a = grid_laplacian_2d(3, 3);
        let g = Graph::from_pattern(a.pattern());
        assert_eq!(g.nvertices(), 9);
        for v in 0..9 {
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
        // Corner has 2 neighbors, center has 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(4), 4);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        let mut ws = Traversal::new(5);
        ws.enter(0..5);
        assert_eq!(g.bfs_levels(0, &mut ws), 5);
        assert_eq!((0..5).map(|v| ws.label(v)).collect::<Vec<_>>(), [0, 1, 2, 3, 4].map(Some));
        assert_eq!(ws.level_set(3), [3]);
        assert!(ws.level_set(5).is_empty());
        // A vertex outside the entered set blocks traversal.
        ws.leave(&[0, 1, 2, 3, 4]);
        ws.enter([0, 1, 3, 4]);
        assert_eq!(g.bfs_levels(0, &mut ws), 2);
        assert_eq!(ws.label(1), Some(1));
        assert_eq!(ws.label(2), None);
        assert_eq!(ws.label(3), None);
        assert_eq!(g.bfs_levels(2, &mut ws), 0, "root outside the set");
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path_graph(9);
        let mut ws = Traversal::new(9);
        ws.enter(0..9);
        let (p, depth) = g.pseudo_peripheral(4, &mut ws);
        assert!(p == 0 || p == 8, "got {p}");
        // The level structure left behind is the returned vertex's.
        assert_eq!(depth, 9);
        assert_eq!(ws.label(p), Some(0));
        assert_eq!(ws.label(8 - p), Some(8));
    }

    #[test]
    fn components_counts_masked_islands() {
        let g = path_graph(6);
        let island = [0, 1, 3, 4, 5]; // split into {0,1} and {3,4,5}
        let mut ws = Traversal::new(6);
        ws.enter(island);
        assert_eq!(g.components(&island, &mut ws), 2);
        assert_eq!(island.map(|v| ws.label(v)), [0, 0, 1, 1, 1].map(Some));
        assert_eq!(ws.label(2), None);
    }

    #[test]
    fn consecutive_traversals_see_a_clean_state() {
        let g = path_graph(7);
        let mut ws = Traversal::new(7);
        let left = [0, 1, 2];
        ws.enter(left);
        assert_eq!(g.components(&left, &mut ws), 1);
        // The BFS is not stopped by the component ids, nor the second BFS
        // by the levels of the first.
        assert_eq!(g.bfs_levels(2, &mut ws), 3);
        assert_eq!(g.bfs_levels(0, &mut ws), 3);
        assert_eq!(left.map(|v| ws.label(v)), [0, 1, 2].map(Some));
        ws.leave(&left);
        // A sibling subset starts from nothing: no label, level or
        // membership of the first one is left.
        let right = [3, 4, 5, 6];
        ws.enter(right);
        assert_eq!(g.bfs_levels(3, &mut ws), 4, "must not walk into 2");
        assert_eq!(ws.label(2), None);
        assert_eq!(g.components(&right, &mut ws), 1);
        ws.leave(&right);
        assert!((0..7).all(|v| ws.label(v).is_none()));
        assert_eq!(g.bfs_levels(3, &mut ws), 0);
    }
}
