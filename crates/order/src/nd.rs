//! Nested dissection ordering (the SCOTCH substitute).
//!
//! Recursive algorithm on the connectivity graph of `A + Aᵀ`, after a
//! canonical relabel:
//!
//! 0. rank the vertices in Cuthill–McKee order from a pseudo-peripheral
//!    vertex, ties broken by structural keys ([`crate::rcm`]); every step
//!    below lists vertices in rank order and breaks its ties by rank: two
//!    numberings of a cubic grid or box give one ranked graph, so one
//!    permutation; off the cube the root's ties follow the numbering
//!    (nnz(L) within 5.7% over ten renumberings of a 30×20×15 grid);
//! 1. split each connected component with a *vertex separator* found from a
//!    BFS level structure rooted at a pseudo-peripheral vertex (George-Liu
//!    style), picking the level that balances the two halves;
//! 2. refine the separator by dropping vertices with neighbors on only one
//!    side (a cheap Fiduccia-Mattheyses-flavoured pass);
//! 3. where the level set fails — a connected piece of at least
//!    `MULTILEVEL_FLOOR` vertices whose separator exceeds `k^(2/3)`
//!    — also cut the piece by a multilevel separator (`multilevel.rs`)
//!    and keep the smaller one. Level sets are spheres of the graph metric:
//!    diagonal planes on a 7-point grid, which no multilevel cut beats, but
//!    L∞ shells on a 27-point box, where a multilevel cut finds the axis
//!    plane (784 vertices instead of 1 519 at the top of a 28³ box);
//! 4. recurse on the halves, then number the separator *last* — separators
//!    become the top supernodes of the elimination tree, exactly the large
//!    panels the paper's GPU offload feeds on (§V-B). Within it, vertices
//!    go by *first contact*: the earliest position any neighbour holds in
//!    the halves' order `A | B`, ties by rank. A separator fills in to
//!    a near-clique whatever its internal order, so the order barely moves
//!    fill; what it sets is how the separator's rows fall into the blocks
//!    of the halves' panels, and rows numbered along the halves' order run
//!    contiguously (the blocking idea of Pichon et al., SIMAX 2017);
//! 5. order leaf subgraphs (≤ `leaf_size`), and splits that find no
//!    separator, with minimum degree.
//!
//! Cost: `O((n + m) · depth)` for a recursion of that depth on `n`
//! vertices and `m` edges — a call on `k` vertices touches those vertices
//! and their edges and allocates its result lists (and, for a multilevel
//! split, its `k`-sized coarse graphs), nothing `n`-sized. Everything else
//! lives in one `Workspace` per thread; every call leaves it as it found
//! it (see [`dagfact_sparse::graph`] for the traversal part of that
//! contract), which is what lets siblings share it. The one exception is
//! the position each vertex gets when it is ordered, recorded then (and
//! once more by the joining thread, for a forked piece) and kept: a
//! separator's first-contact keys read it from the separator's own
//! adjacency, with no pass over the halves. The ranks cost one
//! Cuthill–McKee pass and an `n`-long array; the graph is not copied.
//!
//! The two sides of a split are independent, so they run on both cores: a
//! split whose later piece has more than `FORK_FLOOR` vertices, made
//! while a spare thread remains, dissects that piece on a scoped thread
//! with its own workspace, while the calling thread dissects the earlier
//! piece; after the join the calling thread records the later piece's
//! positions, then orders the separator, so the orders are spliced
//! `A | B | S` with the same keys as unforked. Component splits fork the
//! same way. A call's result depends only on its vertex set, so the
//! permutation is the same at every thread count.

use crate::md::{minimum_degree_subset, MdWorkspace};
use crate::multilevel::{self, NONE};
use crate::perm::Permutation;
use crate::rcm::cuthill_mckee_all;
use dagfact_sparse::graph::{Graph, Traversal};

/// Tuning knobs for nested dissection.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered with minimum degree
    /// instead of being dissected further.
    pub leaf_size: usize,
    /// Number of separator-refinement sweeps.
    pub refine_passes: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions {
            leaf_size: 96,
            refine_passes: 3,
        }
    }
}

/// Pieces of at most this many vertices stay on the thread that cut them:
/// below it a thread start and an `n`-sized workspace cost about what the
/// piece's dissection does.
const FORK_FLOOR: usize = 4096;

/// A connected piece of at least this many vertices whose level-set
/// separator exceeds `k^(2/3)` (`k` = its vertex count) is also
/// cut by a multilevel separator, and the smaller one is kept. The ratio
/// reads 1.8–2.0 on cube-like pieces of 27-point boxes and 1.06–1.15 on
/// their slabs, where the plane across the slab is still 1.4× smaller than
/// the shell; it stays under 0.8 on 7-point grids, quasi-2D shells and
/// Helmholtz problems, whose orderings the multilevel split leaves alone.
/// The floor keeps analysis time and allocations near the level-set
/// dissection's; a lower one cuts closer to the planes but allocates more.
const MULTILEVEL_FLOOR: usize = 2048;

/// Side of a vertex that is not in the subgraph being split.
const NO_SIDE: u8 = u8::MAX;

/// Position of a vertex this thread has not ordered.
const UNORDERED: usize = usize::MAX;

/// The `n`-sized state of one thread of an ordering, shared by every
/// recursive call on that thread.
struct Workspace {
    traversal: Traversal,
    /// 0 = A, 1 = B, 2 = separator while a subgraph is being split,
    /// `NO_SIDE` outside of it.
    side: Vec<u8>,
    /// Index in this thread's order of every vertex it has ordered,
    /// `UNORDERED` for the rest. A separator's neighbours are its halves,
    /// itself and the enclosing separators, and only the halves are
    /// ordered when the separator is, so the positions it reads are theirs.
    position: Vec<usize>,
    /// First-contact keys of the separator being ordered.
    keyed: Vec<(usize, usize, usize)>,
    /// Index of a vertex in the piece a multilevel split is cutting,
    /// `NONE` outside of it.
    local: Vec<usize>,
    md: MdWorkspace,
}

impl Workspace {
    fn new(n: usize) -> Self {
        let (traversal, md) = (Traversal::new(n), MdWorkspace::default());
        let (side, position, local) = (vec![NO_SIDE; n], vec![UNORDERED; n], vec![NONE; n]);
        Workspace { traversal, side, position, keyed: Vec::new(), local, md }
    }

    /// Record the positions of `order[start..]`, just appended.
    fn record(&mut self, order: &[usize], start: usize) {
        for (i, &v) in order.iter().enumerate().skip(start) {
            self.position[v] = i;
        }
    }
}

/// What every call of one ordering reads.
struct Dissection<'a> {
    graph: &'a Graph,
    /// The canonical number of every vertex: every tie the dissection
    /// breaks, it breaks by rank, and its vertex lists run in rank order.
    rank: &'a [usize],
    options: &'a NdOptions,
    /// Fork a piece only if it has more vertices than this.
    floor: usize,
    /// Try a multilevel separator where the level set fails.
    multilevel: bool,
}

/// Compute a nested-dissection ordering of the whole graph, on as many
/// threads as the host offers.
pub fn nested_dissection(graph: &Graph, options: &NdOptions) -> Permutation {
    canonical_dissection(graph, options, threads(), FORK_FLOOR, true)
}

/// [`nested_dissection`] with level-set separators only, the reference the
/// multilevel splits are held to: the same canonical ranks, the same
/// permutation wherever no multilevel split fires.
pub fn level_set_dissection(graph: &Graph, options: &NdOptions) -> Permutation {
    canonical_dissection(graph, options, threads(), FORK_FLOOR, false)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The dissection of `graph` in its Cuthill–McKee ranks ([`crate::rcm`]).
/// Two numberings of one graph give it the same ranks up to ties of the
/// numbering's structural keys, and nothing the dissection decides depends
/// on the order of an adjacency list, so its result depends on the labels
/// only through those ties. On at most `threads` threads, forking pieces
/// of more than `floor` vertices.
fn canonical_dissection(
    graph: &Graph,
    options: &NdOptions,
    threads: usize,
    floor: usize,
    multilevel: bool,
) -> Permutation {
    let mut ws = Workspace::new(graph.nvertices());
    let mut rank = vec![UNORDERED; graph.nvertices()];
    let (by_rank, levels) = cuthill_mckee_all(graph, &mut ws.traversal, &mut rank);
    let nd = Dissection { graph, rank: &rank, options, floor, multilevel };
    Permutation::from_iperm(nd.run(by_rank, levels, threads, ws))
}

impl Dissection<'_> {
    /// The elimination order of all of `vertices`, the graph's vertices in
    /// rank order, on at most `threads` threads, the calling thread's on
    /// workspace `ws` — which holds the ranking's level structure, of
    /// `levels` levels, if the graph is connected.
    fn run(&self, vertices: Vec<usize>, levels: Option<usize>, threads: usize, mut ws: Workspace) -> Vec<usize> {
        let n = self.graph.nvertices();
        let mut order = Vec::with_capacity(n);
        self.dissect(vertices, levels, threads.saturating_sub(1), &mut ws, &mut order);
        debug_assert_eq!(order.len(), n);
        order
    }

    /// Recursively dissect `vertices`, in rank order, appending them to
    /// `order` in elimination order, with `spare` more threads to fork onto.
    /// With `levels`, `ws` has `vertices` entered and holds the `levels`-deep
    /// level structure from `vertices[0]` (the whole graph's, handed over by
    /// the ranking, which ends on that breadth-first search).
    fn dissect(
        &self,
        vertices: Vec<usize>,
        levels: Option<usize>,
        spare: usize,
        ws: &mut Workspace,
        order: &mut Vec<usize>,
    ) {
        let graph = self.graph;
        if vertices.len() <= self.options.leaf_size {
            if levels.is_some() {
                ws.traversal.leave(&vertices);
            }
            return self.minimum_degree(&vertices, ws, order);
        }
        // The level structure of the separator search reaches the whole
        // subgraph if it is connected; if not, split it into connected
        // components first and dissect each independently (their
        // elimination subtrees are siblings).
        let rank = |v: usize| self.rank[v];
        let (_, depth) = match levels {
            Some(depth) => graph.pseudo_peripheral_from(vertices[0], depth, &mut ws.traversal, rank),
            None => {
                ws.traversal.enter(vertices.iter().copied());
                graph.pseudo_peripheral_by(vertices[0], &mut ws.traversal, rank)
            }
        };
        let reached: usize = (0..depth).map(|l| ws.traversal.level_set(l).len()).sum();
        if reached < vertices.len() {
            let ncomp = graph.components(&vertices, &mut ws.traversal);
            let mut parts: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
            for &v in &vertices {
                #[allow(clippy::expect_used)] // `components` labels every vertex
                let comp = ws.traversal.label(v).expect("components labels every vertex");
                parts[comp].push(v);
            }
            ws.traversal.leave(&vertices);
            return self.dissect_parts(parts, &[], spare, ws, order);
        }
        let split = find_separator(graph, &vertices, depth, self.options, self.multilevel, ws);
        ws.traversal.leave(&vertices);
        match split {
            // The separator is numbered last, by first contact.
            Some([part_a, part_b, separator]) => {
                self.dissect_parts(vec![part_a, part_b], &separator, spare, ws, order)
            }
            // Degenerate split (e.g. a clique): fall back to minimum degree.
            None => self.minimum_degree(&vertices, ws, order),
        }
    }

    /// Append `vertices` to `order` by minimum degree.
    fn minimum_degree(&self, vertices: &[usize], ws: &mut Workspace, order: &mut Vec<usize>) {
        let start = order.len();
        minimum_degree_subset(self.graph, vertices, &mut ws.md, order);
        ws.record(order, start);
    }

    /// Dissect `parts` in turn, then order `separator` by first contact,
    /// appending all of it to `order`. With a spare thread, the later parts
    /// — from the split point that balances vertex counts best, if they hold
    /// more than the floor — go to a scoped thread and their order is
    /// spliced in before the separator's.
    fn dissect_parts(
        &self,
        mut parts: Vec<Vec<usize>>,
        separator: &[usize],
        spare: usize,
        ws: &mut Workspace,
        order: &mut Vec<usize>,
    ) {
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut later = total;
        let split = parts[..parts.len() - 1].iter().enumerate().map(|(i, part)| {
            later -= part.len();
            (i + 1, later)
        });
        let balanced = split.min_by_key(|&(_, later)| (2 * later).abs_diff(total));
        let (mid, forked) = balanced.unwrap_or((0, 0));
        if spare == 0 || forked <= self.floor {
            for part in parts {
                self.dissect(part, None, spare, ws, order);
            }
            return self.order_separator(separator, ws, order);
        }
        // The new thread takes half the other spare threads, rounded down.
        let theirs = (spare - 1) / 2;
        let tail = parts.split_off(mid);
        let tail_order = std::thread::scope(|scope| {
            let forked = scope.spawn(move || {
                let mut ws = Workspace::new(self.graph.nvertices());
                let mut tail_order = Vec::with_capacity(forked);
                for part in tail {
                    self.dissect(part, None, theirs, &mut ws, &mut tail_order);
                }
                tail_order
            });
            for part in parts {
                self.dissect(part, None, spare - 1 - theirs, ws, order);
            }
            forked.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        let start = order.len();
        order.extend(tail_order);
        ws.record(order, start);
        self.order_separator(separator, ws, order);
    }

    /// Append `separator` to `order` by first contact with the halves just
    /// ordered before it: the smallest position among a vertex's
    /// neighbours, ties (and vertices no half touches) by rank.
    fn order_separator(&self, separator: &[usize], ws: &mut Workspace, order: &mut Vec<usize>) {
        let Workspace { position, keyed, .. } = ws;
        let first_contact = |v: usize| {
            let contacts = self.graph.neighbors(v).iter().map(|&w| position[w]);
            (contacts.min().unwrap_or(UNORDERED), self.rank[v], v)
        };
        keyed.extend(separator.iter().map(|&v| first_contact(v)));
        keyed.sort_unstable();
        for (_, _, v) in keyed.drain(..) {
            position[v] = order.len();
            order.push(v);
        }
    }
}

/// Find a vertex separator of the connected subgraph on `vertices`, which
/// the traversal has entered and holds a level structure of `depth` levels
/// from a pseudo-peripheral vertex of. Returns `[A, B, S]` with `A ∪ B ∪ S
/// = vertices`, no edges between `A` and `B`.
fn find_separator(
    graph: &Graph,
    vertices: &[usize],
    depth: usize,
    options: &NdOptions,
    multilevel: bool,
    ws: &mut Workspace,
) -> Option<[Vec<usize>; 3]> {
    let Workspace { traversal, side, local, .. } = ws;
    let mut sizes = level_set_separator(graph, vertices, depth, options, traversal, side)?;
    let k = vertices.len();
    let shell = sizes[2] as f64 > (k as f64).powf(2.0 / 3.0);
    if multilevel && k >= MULTILEVEL_FLOOR && shell {
        let sides = multilevel::separator(graph, vertices, local);
        let mut ml = [0usize; 3];
        sides.iter().for_each(|&s| ml[usize::from(s)] += 1);
        if ml[2] < sizes[2] && ml[0] > 0 && ml[1] > 0 {
            vertices.iter().zip(&sides).for_each(|(&v, &s)| side[v] = s);
            sizes = ml;
        }
    }
    debug_assert!(no_cross_edges(graph, vertices, side), "separator leaks edges");
    let mut parts = sizes.map(Vec::with_capacity);
    for &v in vertices {
        parts[usize::from(side[v])].push(v);
        side[v] = NO_SIDE;
    }
    (sizes[0] > 0 && sizes[1] > 0).then_some(parts)
}

/// Split the connected `vertices` into `side` 0 and 1 and a separator 2
/// by a level of the `depth`-level structure `traversal` holds, refined by
/// moving separator vertices that touch one side into it. Returns the size
/// of each side, `None` (and no side set) if the subgraph is too shallow to
/// cut.
fn level_set_separator(
    graph: &Graph,
    vertices: &[usize],
    depth: usize,
    options: &NdOptions,
    traversal: &Traversal,
    side: &mut [u8],
) -> Option<[usize; 3]> {
    if depth < 3 {
        // Diameter too small to cut (clique-like); give up.
        return None;
    }
    // Choose the level whose prefix holds ~half the vertices.
    let half = vertices.len() / 2;
    let mut acc = 0usize;
    let holds_half = |l: &usize| {
        acc += traversal.level_set(*l).len();
        acc >= half
    };
    let cut_level = (0..depth).find(holds_half).map_or(1, |l| l.clamp(1, depth - 2));

    // side: 0 = A (levels < cut), 1 = B (levels > cut), 2 = S.
    for &v in vertices {
        #[allow(clippy::expect_used)] // the caller split off the components
        let level = traversal.label(v).expect("the subgraph is connected");
        debug_assert_eq!(side[v], NO_SIDE, "the previous split left a side behind");
        side[v] = match level.cmp(&cut_level) {
            core::cmp::Ordering::Less => 0,
            core::cmp::Ordering::Equal => 2,
            core::cmp::Ordering::Greater => 1,
        };
    }

    // Refinement: move separator vertices that touch only one side into
    // the other side; this thins level-set separators considerably on grid
    // graphs. Vertices outside the subgraph have no side.
    for _ in 0..options.refine_passes {
        let mut moved = false;
        for &v in vertices {
            if side[v] != 2 {
                continue;
            }
            // Touching one side only, or none: join it (A by default).
            let touches = |s: u8| graph.neighbors(v).iter().any(|&w| side[w] == s);
            if !(touches(0) && touches(1)) {
                side[v] = u8::from(touches(1));
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    let mut sizes = [0usize; 3];
    for &v in vertices {
        sizes[usize::from(side[v])] += 1;
    }
    Some(sizes)
}

fn no_cross_edges(graph: &Graph, vertices: &[usize], side: &[u8]) -> bool {
    let in_a = vertices.iter().filter(|&&v| side[v] == 0);
    in_a.flat_map(|&v| graph.neighbors(v)).all(|&w| side[w] != 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{
        grid_laplacian_2d, grid_laplacian_3d, grid_laplacian_3d_box, random_spd,
    };

    #[test]
    fn produces_valid_permutation() {
        let a = grid_laplacian_2d(20, 20);
        let g = Graph::from_pattern(a.pattern());
        let p = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p.len(), 400);
        // Validity enforced by Permutation::from_iperm. The ordering must
        // also be deterministic.
        let p2 = nested_dissection(&g, &NdOptions::default());
        assert_eq!(p, p2);
    }

    #[test]
    fn separator_vertices_numbered_after_halves() {
        // On a 1D path the top separator is a single middle vertex and must
        // receive the final number.
        let n = 65;
        let g = graph_where(n, |v, w| w == v + 1);
        let p = nested_dissection(
            &g,
            &NdOptions {
                leaf_size: 8,
                refine_passes: 2,
            },
        );
        let last = p.old_of(n - 1);
        assert!(
            (n / 4..3 * n / 4).contains(&last),
            "top separator {last} not near the middle"
        );
    }

    /// nnz of the Cholesky factor of `graph` eliminated in the order of
    /// `p`, by the row subtrees of its elimination tree.
    fn nnz_l(graph: &Graph, p: &Permutation) -> usize {
        let n = graph.nvertices();
        let (mut parent, mut mark, mut nnz) = (vec![usize::MAX; n], vec![usize::MAX; n], n);
        for i in 0..n {
            mark[i] = i;
            for &w in graph.neighbors(p.old_of(i)) {
                let mut k = p.new_of(w);
                while k < i && mark[k] != i {
                    (mark[k], nnz) = (i, nnz + 1);
                    if parent[k] == usize::MAX {
                        parent[k] = i;
                    }
                    k = parent[k];
                }
            }
        }
        nnz
    }

    #[test]
    fn reduces_fill_versus_natural_on_grid() {
        let cases = [(grid_laplacian_3d(8, 8, 8), 0.5), (grid_laplacian_3d_box(14, 14, 14), 0.75)];
        for (a, bound) in cases {
            let g = Graph::from_pattern(a.pattern());
            let nd = nnz_l(&g, &nested_dissection(&g, &NdOptions::default()));
            let natural = nnz_l(&g, &Permutation::identity(g.nvertices()));
            assert!((nd as f64) < bound * natural as f64, "nnz(L) {nd} against {natural} natural");
        }
    }

    /// The size of the top separator of an order: the fewest trailing
    /// vertices whose removal leaves the rest disconnected.
    fn top_separator(graph: &Graph, p: &Permutation) -> usize {
        let n = graph.nvertices();
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], mut x: usize) -> usize {
            while root[x] != x {
                (root[x], x) = (root[root[x]], root[x]);
            }
            x
        }
        let (mut parts, mut split_after) = (0, 0);
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

    #[test]
    fn multilevel_split_finds_the_plane_of_a_box() {
        // Level sets of a 27-point box are L∞ shells; the multilevel split
        // cuts the axis plane, 16² vertices.
        let g = Graph::from_pattern(grid_laplacian_3d_box(16, 16, 16).pattern());
        let options = NdOptions::default();
        let level_sets = top_separator(&g, &level_set_dissection(&g, &options));
        assert!(level_sets > 400, "level-set top separator {level_sets}");
        assert_eq!(top_separator(&g, &nested_dissection(&g, &options)), 256);
        // A 7-point grid keeps its level-set ordering.
        let g = Graph::from_pattern(grid_laplacian_3d(16, 16, 16).pattern());
        assert_eq!(nested_dissection(&g, &options), level_set_dissection(&g, &options));
    }

    /// The ranks of a renumbered cubic box or grid make it the same graph:
    /// their structural keys tell every two candidates apart but those a
    /// symmetry of the cube swaps.
    #[test]
    fn ranked_graph_does_not_depend_on_the_numbering() {
        // Sorted neighbour ranks of each vertex, by rank.
        let ranked = |g: &Graph| -> Vec<Vec<usize>> {
            let n = g.nvertices();
            let mut rank = vec![UNORDERED; n];
            let (by_rank, _) = cuthill_mckee_all(g, &mut Traversal::new(n), &mut rank);
            let neighbors = |v: usize| {
                let mut adj: Vec<usize> = g.neighbors(v).iter().map(|&w| rank[w]).collect();
                adj.sort_unstable();
                adj
            };
            by_rank.into_iter().map(neighbors).collect()
        };
        let cubes = [grid_laplacian_3d_box(8, 8, 8), grid_laplacian_3d(9, 9, 9)];
        for a in cubes.into_iter().chain([grid_laplacian_2d(13, 13)]) {
            let n = a.ncols();
            let expect = ranked(&Graph::from_pattern(a.pattern()));
            for stride in [7, 37, 101] {
                let renumber: Vec<usize> = (0..n).map(|i| (i * stride + 3) % n).collect();
                let distinct: std::collections::BTreeSet<_> = renumber.iter().collect();
                if distinct.len() < n {
                    continue; // the stride shares a factor with n
                }
                let g = Graph::from_pattern(&a.pattern().permute_symmetric(&renumber));
                assert_eq!(ranked(&g), expect, "n = {n}, stride {stride}");
            }
        }
    }

    /// Where multilevel splits fire, at 1–4 threads with every piece
    /// forked while a thread is spare.
    #[test]
    fn multilevel_permutation_is_the_same_at_every_thread_count() {
        let of = |a: &dagfact_sparse::CscMatrix<f64>| Graph::from_pattern(a.pattern());
        let cube = of(&grid_laplacian_3d_box(14, 14, 14));
        let slab = of(&grid_laplacian_3d_box(24, 18, 6));
        for graph in [union(&[&cube], 0), union(&[&slab, &cube], 2)] {
            let options = NdOptions::default();
            let expect = nested_dissection(&graph, &options);
            for threads in 1..=4 {
                let got = canonical_dissection(&graph, &options, threads, 0, true);
                assert_eq!(got, expect, "{threads} threads");
            }
        }
    }

    #[test]
    fn disconnected_graph_is_ordered_per_component() {
        let a = random_spd(30, 2, 7);
        let b = random_spd(20, 2, 8);
        let ga = Graph::from_pattern(a.pattern());
        let gb = Graph::from_pattern(b.pattern());
        let g = union(&[&ga, &gb], 0);
        let p = nested_dissection(&g, &NdOptions { leaf_size: 8, refine_passes: 2 });
        assert_eq!(p.len(), 50);
    }

    #[test]
    fn clique_falls_back_gracefully() {
        // Complete graph has no useful separator.
        let n = 12;
        let g = graph_where(n, |_, _| true);
        let p = nested_dissection(&g, &NdOptions { leaf_size: 4, refine_passes: 1 });
        assert_eq!(p.len(), n);
    }
    /// The dissection without a workspace, kept as the reference: fresh
    /// `n`-long mask, level, side and position arrays in every call,
    /// nothing shared between calls.
    fn reference_dissect(graph: &Graph, vertices: Vec<usize>, options: &NdOptions, order: &mut Vec<usize>) {
        let n = graph.nvertices();
        let md = |subset: &[usize], order: &mut Vec<usize>| {
            minimum_degree_subset(graph, subset, &mut MdWorkspace::default(), order)
        };
        if vertices.len() <= options.leaf_size {
            return md(&vertices, order);
        }
        let mut mask = vec![false; n];
        vertices.iter().for_each(|&v| mask[v] = true);
        // (levels, vertices reached, depth) of a BFS inside the mask.
        let bfs = |root: usize| {
            let mut level = vec![usize::MAX; n];
            level[root] = 0;
            let mut reached = vec![root];
            let mut head = 0;
            while let Some(&v) = reached.get(head) {
                for &w in graph.neighbors(v) {
                    if mask[w] && level[w] == usize::MAX {
                        level[w] = level[v] + 1;
                        reached.push(w);
                    }
                }
                head += 1;
            }
            let depth = level[reached[reached.len() - 1]] + 1;
            (level, reached, depth)
        };
        let mut root = vertices[0];
        let (mut level, reached, mut depth) = bfs(root);
        if reached.len() < vertices.len() {
            // Disconnected: one part per component, by smallest vertex.
            let mut comp = vec![usize::MAX; n];
            let mut parts: Vec<Vec<usize>> = Vec::new();
            for &s in &vertices {
                if comp[s] == usize::MAX {
                    bfs(s).1.iter().for_each(|&v| comp[v] = parts.len());
                    parts.push(Vec::new());
                }
                parts[comp[s]].push(s);
            }
            return parts.into_iter().for_each(|part| reference_dissect(graph, part, options, order));
        }
        // George-Liu: jump to the min-degree vertex of the last level while
        // the level structure keeps getting deeper.
        loop {
            let far = vertices.iter().copied().filter(|&v| level[v] == depth - 1);
            let candidate = far.min_by_key(|&v| (graph.degree(v), v)).unwrap();
            if candidate == root {
                break;
            }
            let (next_level, _, next_depth) = bfs(candidate);
            let deeper = next_depth > depth;
            (root, level, depth) = (candidate, next_level, next_depth);
            if !deeper {
                break;
            }
        }
        if depth < 3 {
            return md(&vertices, order);
        }
        let half = vertices.len() / 2;
        let below = |l: usize| vertices.iter().filter(|&&v| level[v] <= l).count();
        let cut = (0..depth).find(|&l| below(l) >= half).unwrap().clamp(1, depth - 2);
        let mut side = vec![u8::MAX; n];
        for &v in &vertices {
            side[v] = [0, 2, 1][(level[v].cmp(&cut) as i8 + 1) as usize];
        }
        for _ in 0..options.refine_passes {
            for &v in &vertices {
                let touches = |s: u8| graph.neighbors(v).iter().any(|&w| mask[w] && side[w] == s);
                if side[v] == 2 && !(touches(0) && touches(1)) {
                    side[v] = u8::from(touches(1));
                }
            }
        }
        let part = |s: u8| vertices.iter().copied().filter(|&v| side[v] == s).collect::<Vec<_>>();
        if part(0).is_empty() || part(1).is_empty() {
            return md(&vertices, order);
        }
        let halves = order.len();
        reference_dissect(graph, part(0), options, order);
        reference_dissect(graph, part(1), options, order);
        let mut position = vec![usize::MAX; n];
        (halves..order.len()).for_each(|i| position[order[i]] = i);
        let mut separator = part(2);
        let first_contact = |v: usize| graph.neighbors(v).iter().map(|&w| position[w]).min();
        separator.sort_by_key(|&v| (first_contact(v).unwrap_or(usize::MAX), v));
        order.extend(separator);
    }

    /// Block-diagonal union of `blocks`, `isolated` edgeless vertices after
    /// each of them.
    fn union(blocks: &[&Graph], isolated: usize) -> Graph {
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for g in blocks {
            let base = xadj.len() - 1;
            for v in 0..g.nvertices() {
                adj.extend(g.neighbors(v).iter().map(|&w| w + base));
                xadj.push(adj.len());
            }
            xadj.extend(std::iter::repeat_n(adj.len(), isolated));
        }
        Graph::from_adjacency(xadj, adj)
    }

    /// Graph on `n` vertices with the edges `adjacent` accepts.
    fn graph_where(n: usize, adjacent: impl Fn(usize, usize) -> bool) -> Graph {
        let mut xadj = vec![0usize];
        let mut adj = Vec::new();
        for v in 0..n {
            adj.extend((0..n).filter(|&w| w != v && adjacent(v.min(w), v.max(w))));
            xadj.push(adj.len());
        }
        Graph::from_adjacency(xadj, adj)
    }

    /// The level-set path, on the graph as numbered, also at 1–4 threads
    /// with every piece forked while a thread is spare.
    #[test]
    fn workspace_version_matches_the_fresh_array_reference() {
        let of = |a: &dagfact_sparse::CscMatrix<f64>| Graph::from_pattern(a.pattern());
        let grid2 = of(&grid_laplacian_2d(31, 17));
        let grid3 = of(&grid_laplacian_3d(9, 8, 7));
        let random = of(&random_spd(300, 3, 11));
        let sparse_random = of(&random_spd(400, 1, 5));
        let path = graph_where(150, |v, w| w == v + 1);
        let star = graph_where(120, |v, _| v == 0);
        let clique = graph_where(40, |_, _| true);
        let graphs = [
            union(&[&grid2], 0),
            union(&[&grid3], 0),
            union(&[&random], 0),
            union(&[&sparse_random], 0),
            union(&[&path], 0),
            union(&[&star], 0),
            union(&[&clique], 0),
            union(&[&grid2, &clique, &path], 3),
            union(&[&star, &random, &grid3], 40),
            union(&[&clique, &clique, &sparse_random, &star], 1),
        ];
        let mut cases = 0;
        for graph in &graphs {
            for leaf_size in [4, 7, 16, 33, 64, 96] {
                for refine_passes in 0..=3 {
                    let options = NdOptions { leaf_size, refine_passes };
                    let n = graph.nvertices();
                    let mut expect = Vec::with_capacity(n);
                    reference_dissect(graph, (0..n).collect(), &options, &mut expect);
                    let rank: Vec<usize> = (0..n).collect();
                    let dissect = |threads, floor| {
                        let (options, multilevel) = (&options, false);
                        let nd = Dissection { graph, rank: &rank, options, floor, multilevel };
                        nd.run(rank.clone(), None, threads, Workspace::new(n))
                    };
                    assert_eq!(dissect(threads(), FORK_FLOOR), expect, "n = {n}, {options:?}");
                    for threads in 1..=4 {
                        let got = dissect(threads, 0);
                        assert_eq!(got, expect, "n = {n}, {options:?}, {threads} threads");
                    }
                    cases += 1;
                }
            }
        }
        assert!(cases >= 200);
    }
}
