//! Orderings of patterns with one dense row and column. Visiting a hub
//! makes nearly every vertex a candidate of one Cuthill–McKee visit, all
//! tied on their keys, and nested dissection ranks its graph by that
//! numbering: a numbering that compared the tied candidates, or scanned
//! the hub's adjacency for each of them, at every number given takes
//! `O(n³)` here (23 s on a 4 000-vertex star in a release build, hours at
//! these sizes). Each ordering must finish in seconds, even in a debug
//! build.

use dagfact_suite::order::{compute_ordering, OrderingKind};
use dagfact_suite::sparse::gen;
use dagfact_suite::sparse::SparsityPattern;
use std::time::{Duration, Instant};

/// Generous: each case takes well under a second in a release build.
const BOUND: Duration = Duration::from_secs(30);

/// The symmetric pattern on `n` vertices with a full diagonal, the edges
/// `edges` and vertex 0 adjacent to every other one.
fn with_hub(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> SparsityPattern {
    let hub = (1..n).map(|v| (0, v));
    let all: Vec<(usize, usize)> = edges.into_iter().chain(hub).collect();
    let entries = all.iter().flat_map(|&(v, w)| [(v, w), (w, v)]);
    SparsityPattern::from_entries(n, n, entries.chain((0..n).map(|v| (v, v))))
}

#[test]
fn a_dense_row_orders_in_seconds() {
    let n = 20_000;
    let boxed = gen::grid_laplacian_3d_box(20, 20, 20);
    let grid = boxed.pattern();
    let stencil = (0..grid.ncols())
        .flat_map(|c| grid.col(c).iter().map(move |&r| (r + 1, c + 1)))
        .filter(|&(r, c)| r != c);
    let cases = [
        ("star", with_hub(n, [])),
        ("arrowhead", with_hub(n, (1..n - 1).map(|v| (v, v + 1)))),
        ("27-point 20³ box and a dense row", with_hub(grid.ncols() + 1, stencil)),
    ];
    for (name, pattern) in cases {
        for kind in [OrderingKind::NestedDissection, OrderingKind::ReverseCuthillMcKee] {
            let start = Instant::now();
            let p = compute_ordering(&pattern, kind);
            let took = start.elapsed();
            println!("{name}, {kind:?}: {took:.2?}");
            assert_eq!(p.len(), pattern.ncols());
            assert!(took < BOUND, "{name}, {kind:?}: {took:.2?}");
        }
    }
}
