//! Multilevel vertex separators, SCOTCH's and METIS's method, for the
//! pieces a BFS level set cuts badly ([`crate::nd`]).
//!
//! A level set is a sphere of the graph metric. On a 7-point grid that
//! sphere is a diagonal plane, smaller than an axis plane; on a 27-point
//! box it is an L∞ shell, three faces of a cube, about 1.9 s² vertices
//! where an axis plane has s². No local move turns a shell into a plane.
//! A multilevel separator finds the plane on a small graph instead:
//!
//! 1. *coarsen* the piece: one level of aggregation (each vertex not yet
//!    taken, in id order, takes its free neighbours: the 2×2×2 blocks of a
//!    box in Cuthill–McKee order), then heavy-edge matching in id order,
//!    until at most `COARSEST` vertices remain;
//! 2. *grow* an edge bisection of the coarsest graph greedily from `SEEDS`
//!    seeds, refine each, and keep the best;
//! 3. *project* it back level by level, refining the cut by
//!    Fiduccia–Mattheyses moves at each level among the vertices the cut
//!    can reach;
//! 4. take the smaller boundary of the two parts as the vertex separator.
//!
//! Cuts are refined as edge cuts because an edge cut prices the shape of a
//! surface: a bump cuts more edges than the flat surface under it, so the
//! moves flatten it, and the boundary of a flat cut through a box is an
//! axis plane. (Refining the vertex separator itself at the finest level
//! as well changed no 27-point ordering, and was dropped.) Every step
//! reads the piece's vertices in the order given — rank order, from
//! nested dissection — and breaks ties by that order, so the separator
//! depends only on the piece and the ranks; no step depends on the order
//! of an adjacency list. A refinement touches the vertices near the cut, not the
//! whole level, and all of it allocates `O(k)` for a `k`-vertex piece.

use dagfact_sparse::graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Coarsen until at most this many vertices remain.
const COARSEST: usize = 100;

/// Greedy-growing seeds tried on the coarsest graph.
const SEEDS: usize = 2;

/// Each part may weigh at most `MAX_PART` 1/1000ths of the whole.
const MAX_PART: usize = 550;

/// A refinement pass stops after this many moves without a better cut.
const PATIENCE: usize = 30;

/// Refinement passes per level, at most.
const PASSES: usize = 2;

/// Local index of a vertex outside the piece.
pub(crate) const NONE: usize = usize::MAX;

/// Side of a separator vertex; the parts are 0 and 1.
const SEP: u8 = 2;

/// What coarsening and refinement read of a level's graph: vertices
/// `0..len`, their weights and their weighted edges.
trait Level {
    fn len(&self) -> usize;
    fn vwgt(&self, v: usize) -> usize;
    /// `(neighbour, edge weight)` of `v`.
    fn edges(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_;

    /// Weight of the vertices on each side.
    fn side_weights(&self, side: &[u8]) -> [usize; 3] {
        let mut w = [0; 3];
        for (v, &s) in side.iter().enumerate() {
            w[usize::from(s)] += self.vwgt(v);
        }
        w
    }
}

/// The piece being cut, read in place: vertex `i` is `vertices[i]`, unit
/// weights.
struct Piece<'a> {
    graph: &'a Graph,
    vertices: &'a [usize],
    /// `i` at `vertices[i]`, `NONE` outside the piece.
    local: &'a [usize],
}

impl Level for Piece<'_> {
    fn len(&self) -> usize {
        self.vertices.len()
    }

    fn vwgt(&self, _: usize) -> usize {
        1
    }

    fn edges(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let local = self.graph.neighbors(self.vertices[v]).iter().map(|&w| self.local[w]);
        local.filter(|&l| l != NONE).map(|l| (l, 1))
    }
}

/// A coarse graph: vertex and edge weights, on ids `0..len`.
struct Weighted {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    ewgt: Vec<u32>,
    vwgt: Vec<usize>,
}

impl Level for Weighted {
    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn vwgt(&self, v: usize) -> usize {
        self.vwgt[v]
    }

    fn edges(&self, v: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        let (adj, ewgt) = (&self.adj[range.clone()], &self.ewgt[range]);
        adj.iter().zip(ewgt).map(|(&w, &ew)| (w as usize, ew as usize))
    }
}

/// A vertex separator of the connected subgraph on `vertices`, in rank
/// order: the side of each (0, 1 or 2 = separator), in the order of
/// `vertices`. `local` is `NONE` everywhere on entry and on return.
pub(crate) fn separator(graph: &Graph, vertices: &[usize], local: &mut [usize]) -> Vec<u8> {
    for (i, &v) in vertices.iter().enumerate() {
        local[v] = i;
    }
    // No coarse vertex may outgrow a few times its share of the coarsest
    // graph, or the parts cannot balance there.
    let cap = (3 * vertices.len()).div_ceil(2 * COARSEST);
    let map = aggregate(&Piece { graph, vertices, local }, cap);
    // The aggregates are contracted with `local` holding each vertex's
    // aggregate: one lookup per edge.
    vertices.iter().zip(&map).for_each(|(&v, &c)| local[v] = c);
    let first = contract(&Piece { graph, vertices, local }, &map, |c| c);
    vertices.iter().enumerate().for_each(|(i, &v)| local[v] = i);
    let (mut levels, mut maps) = (vec![first], vec![map]);
    while let Some(fine) = levels.last().filter(|g| g.len() > COARSEST) {
        let map = matching(fine, cap);
        let coarse = contract(fine, &map, |w| map[w]);
        if 10 * coarse.len() > 9 * fine.len() {
            break; // coarsening stalled
        }
        levels.push(coarse);
        maps.push(map);
    }
    #[allow(clippy::expect_used)] // `levels` starts with the aggregates
    let coarsest = levels.last().expect("the aggregates are a level");
    let everything: Vec<usize> = (0..coarsest.len()).collect();
    let mut heap = Moves::new();
    let grown = (0..SEEDS).map(|i| {
        let mut part = grow(coarsest, i * coarsest.len() / SEEDS);
        let boundary = refine_cut(coarsest, &mut part, &everything, &mut heap);
        let w = coarsest.side_weights(&part);
        let key = (overweight(w), cut_weight(coarsest, &part), w[0].abs_diff(w[1]));
        (key, part, boundary)
    });
    #[allow(clippy::expect_used)] // SEEDS > 0 candidates
    let (_, mut part, mut boundary) = grown.min_by_key(|(key, ..)| *key).expect("SEEDS > 0");
    for (fine, map) in levels.iter().zip(&maps[1..]).rev() {
        (part, boundary) = project(fine, map, &part, &boundary, &mut heap);
    }
    let piece = Piece { graph, vertices, local };
    (part, boundary) = project(&piece, &maps[0], &part, &boundary, &mut heap);
    for &v in vertices {
        local[v] = NONE;
    }
    boundary_separator(part, &boundary)
}

/// The bisection `part` of a coarse level, with its `boundary`, carried
/// to the finer level `fine` by `map` and refined there.
fn project(
    fine: &impl Level,
    map: &[usize],
    part: &[u8],
    boundary: &[bool],
    heap: &mut Moves,
) -> (Vec<u8>, Vec<bool>) {
    let mut fine_part: Vec<u8> = map.iter().map(|&c| part[c]).collect();
    let near: Vec<usize> = (0..fine.len()).filter(|&v| boundary[map[v]]).collect();
    let fine_boundary = refine_cut(fine, &mut fine_part, &near, heap);
    (fine_part, fine_boundary)
}

/// Aggregation: each vertex not yet taken, in id order, takes all its
/// free neighbours if the aggregate then weighs at most `cap`, else it
/// stays alone. Returns the aggregate of every vertex, numbered in order
/// of creation.
fn aggregate(g: &impl Level, cap: usize) -> Vec<usize> {
    let mut map = vec![NONE; g.len()];
    let mut nc = 0;
    for v in 0..g.len() {
        if map[v] != NONE {
            continue;
        }
        map[v] = nc;
        let free = g.edges(v).filter(|&(w, _)| map[w] == NONE);
        if g.vwgt(v) + free.map(|(w, _)| g.vwgt(w)).sum::<usize>() <= cap {
            for (w, _) in g.edges(v) {
                if map[w] == NONE {
                    map[w] = nc;
                }
            }
        }
        nc += 1;
    }
    map
}

/// Heavy-edge matching: each unmatched vertex, in id order, pairs with its
/// unmatched neighbour of heaviest edge (the smallest such) if the pair
/// weighs at most `cap`. Returns the pair of every vertex, numbered in
/// order of creation.
fn matching(g: &Weighted, cap: usize) -> Vec<usize> {
    let mut map = vec![NONE; g.len()];
    let mut nc = 0;
    for v in 0..g.len() {
        if map[v] != NONE {
            continue;
        }
        let free = g.edges(v).filter(|&(w, _)| map[w] == NONE && g.vwgt[v] + g.vwgt[w] <= cap);
        let best = free.max_by_key(|&(w, ew)| (ew, Reverse(w))).map_or(v, |(w, _)| w);
        (map[v], map[best]) = (nc, nc);
        nc += 1;
    }
    map
}

/// The graph of the groups `map` numbers: a group weighs its members, and
/// two groups are joined by the edges between their members. `group_of`
/// takes a neighbour as `g`'s edges name it to its group.
fn contract(g: &impl Level, map: &[usize], group_of: impl Fn(usize) -> usize) -> Weighted {
    let nc = map.iter().max().map_or(0, |&c| c + 1);
    // Members of each group, grouped (a counting sort).
    let mut start = vec![0usize; nc + 1];
    map.iter().for_each(|&c| start[c + 1] += 1);
    (0..nc).for_each(|c| start[c + 1] += start[c]);
    let (mut members, mut next) = (vec![0; g.len()], start.clone());
    for (v, &c) in map.iter().enumerate() {
        members[next[c]] = v;
        next[c] += 1;
    }
    let (mut xadj, mut vwgt) = (vec![0], Vec::with_capacity(nc));
    let (mut adj, mut ewgt) = (Vec::new(), Vec::new());
    // Where a coarse neighbour sits in the list being built.
    let mut slot = vec![NONE; nc];
    for c in 0..nc {
        let first = adj.len();
        let group = &members[start[c]..start[c + 1]];
        for &u in group {
            for (w, ew) in g.edges(u) {
                let cw = group_of(w);
                if cw == c {
                    continue;
                }
                if slot[cw] == NONE {
                    slot[cw] = adj.len();
                    adj.push(cw as u32);
                    ewgt.push(ew as u32);
                } else {
                    ewgt[slot[cw]] += ew as u32;
                }
            }
        }
        for &cw in &adj[first..] {
            slot[cw as usize] = NONE;
        }
        xadj.push(adj.len());
        vwgt.push(group.iter().map(|&u| g.vwgt(u)).sum());
    }
    Weighted { xadj, adj, ewgt, vwgt }
}

/// Greedy graph growing of an edge bisection: start with every vertex in
/// part 1 but `seed`, then repeatedly move into part 0 the part-1 vertex
/// whose move cuts the least edge weight (the first such), until part 0
/// weighs at least half.
fn grow(g: &Weighted, seed: usize) -> Vec<u8> {
    let n = g.len();
    let mut part = vec![1u8; n];
    let total: usize = g.vwgt.iter().sum();
    let degree: Vec<i64> = (0..n).map(|v| g.edges(v).map(|(_, ew)| ew as i64).sum()).collect();
    // Edge weight from each part-1 vertex into part 0.
    let mut into0 = vec![0i64; n];
    let mut front = vec![seed];
    let mut w0 = 0;
    while 2 * w0 < total {
        let gain = |i: usize| (2 * into0[front[i]] - degree[front[i]], Reverse(front[i]));
        let Some(i) = (0..front.len()).max_by_key(|&i| gain(i)) else { break };
        let v = front.swap_remove(i);
        part[v] = 0;
        w0 += g.vwgt[v];
        for (u, ew) in g.edges(v) {
            if part[u] == 1 {
                if into0[u] == 0 {
                    front.push(u);
                }
                into0[u] += ew as i64;
            }
        }
    }
    part
}

fn overweight(w: [usize; 3]) -> bool {
    1000 * w[0].max(w[1]) > MAX_PART * (w[0] + w[1] + w[2])
}

/// Total weight of the edges `part` cuts.
fn cut_weight(g: &impl Level, part: &[u8]) -> usize {
    let cut = (0..g.len()).flat_map(|v| g.edges(v).filter(move |&(u, _)| part[u] != part[v]));
    cut.map(|(_, ew)| ew).sum::<usize>() / 2
}

/// An edge bisection under refinement, with the edge weight of the
/// vertices looked at so far into their own part and into the other; the
/// rest are inside a part, and the counts of a vertex are taken when a
/// move first reaches it.
struct Cut<'a, L> {
    g: &'a L,
    part: &'a mut [u8],
    own: Vec<i32>,
    other: Vec<i32>,
    known: Vec<bool>,
    /// Every vertex that touched the other part since refinement began.
    front: Vec<usize>,
    on_front: Vec<bool>,
}

impl<L: Level> Cut<'_, L> {
    fn look_at(&mut self, v: usize) {
        let (mut own, mut other) = (0, 0);
        let g = self.g;
        for (u, ew) in g.edges(v) {
            *(if self.part[u] == self.part[v] { &mut own } else { &mut other }) += ew as i32;
        }
        (self.own[v], self.other[v], self.known[v]) = (own, other, true);
        self.enter_front(v);
    }

    fn enter_front(&mut self, v: usize) {
        if self.other[v] > 0 && !self.on_front[v] {
            self.on_front[v] = true;
            self.front.push(v);
        }
    }

    /// Move `v` to the other part.
    fn flip(&mut self, v: usize) {
        self.part[v] = 1 - self.part[v];
        (self.own[v], self.other[v]) = (self.other[v], self.own[v]);
        let g = self.g;
        for (u, ew) in g.edges(v) {
            if !self.known[u] {
                self.look_at(u);
                continue;
            }
            let ew = if self.part[u] == self.part[v] { ew as i32 } else { -(ew as i32) };
            (self.own[u], self.other[u]) = (self.own[u] + ew, self.other[u] - ew);
            self.enter_front(u);
        }
    }

    /// The cut weight a move of `v` saves.
    fn gain(&self, v: usize) -> i32 {
        self.other[v] - self.own[v]
    }
}

/// Candidate moves of a refinement: gain, vertex, and the stamp the entry
/// was made under. One heap serves every level of a multilevel split.
type Moves = BinaryHeap<(i32, Reverse<u32>, u32)>;

/// Fiduccia–Mattheyses refinement of the edge bisection `part`, where only
/// the vertices in `near` may touch the other part on entry. A pass makes
/// the best-gain move of a boundary vertex that keeps the parts within the
/// balance bound, each vertex at most once, until `PATIENCE` moves bring
/// no better cut, then rolls back to the best bisection it saw. Returns
/// which vertices touch the other part.
fn refine_cut(g: &impl Level, part: &mut [u8], near: &[usize], heap: &mut Moves) -> Vec<bool> {
    let n = g.len();
    let mut w = g.side_weights(part);
    let limit = MAX_PART * (w[0] + w[1]) / 1000;
    let mut cut = Cut {
        g,
        part,
        own: vec![0; n],
        other: vec![0; n],
        known: vec![false; n],
        front: Vec::new(),
        on_front: vec![false; n],
    };
    near.iter().for_each(|&v| cut.look_at(v));
    // Heap entries of a vertex older than its stamp are stale.
    let mut stamp = vec![0u32; n];
    let mut locked = vec![false; n];
    let mut log: Vec<usize> = Vec::new();
    let key = |w: [usize; 3], delta: i64| (overweight(w), delta, w[0].abs_diff(w[1]));
    for _ in 0..PASSES {
        heap.clear();
        log.clear();
        for &v in &cut.front {
            if cut.other[v] > 0 {
                heap.push((cut.gain(v), Reverse(v as u32), stamp[v]));
            }
        }
        let (mut delta, mut idle) = (0, 0);
        let (mut best, mut best_len) = (key(w, 0), 0);
        while let Some((gain, Reverse(v), at)) = heap.pop() {
            let v = v as usize;
            if locked[v] || at != stamp[v] {
                continue;
            }
            let (from, to) = (usize::from(cut.part[v]), usize::from(1 - cut.part[v]));
            if w[to] + g.vwgt(v) > limit {
                continue;
            }
            cut.flip(v);
            locked[v] = true;
            log.push(v);
            (w[from], w[to]) = (w[from] - g.vwgt(v), w[to] + g.vwgt(v));
            delta -= i64::from(gain);
            for (u, _) in g.edges(v) {
                stamp[u] += 1;
                if !locked[u] && cut.other[u] > 0 {
                    heap.push((cut.gain(u), Reverse(u as u32), stamp[u]));
                }
            }
            if key(w, delta) < best {
                (best, best_len, idle) = (key(w, delta), log.len(), 0);
            } else {
                idle += 1;
                if idle > PATIENCE {
                    break;
                }
            }
        }
        for &v in log[best_len..].iter().rev() {
            let (from, to) = (usize::from(cut.part[v]), usize::from(1 - cut.part[v]));
            cut.flip(v);
            (w[from], w[to]) = (w[from] - g.vwgt(v), w[to] + g.vwgt(v));
        }
        for &v in &log {
            locked[v] = false;
            stamp[v] += 1;
        }
        if best_len == 0 {
            break;
        }
    }
    let mut boundary = vec![false; n];
    cut.front.iter().filter(|&&v| cut.other[v] > 0).for_each(|&v| boundary[v] = true);
    boundary
}

/// The vertex separator of the edge bisection `part` of a unit-weight
/// level: the vertices of the part with the smaller boundary that touch
/// the other part (`boundary`).
fn boundary_separator(mut part: Vec<u8>, boundary: &[bool]) -> Vec<u8> {
    let mut count = [0usize; 2];
    (0..part.len()).filter(|&v| boundary[v]).for_each(|v| count[usize::from(part[v])] += 1);
    let cut_side = u8::from(count[1] < count[0]);
    for v in 0..part.len() {
        if boundary[v] && part[v] == cut_side {
            part[v] = SEP;
        }
    }
    part
}
