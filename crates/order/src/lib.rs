//! # dagfact-order
//!
//! Fill-reducing orderings — the from-scratch substitute for the SCOTCH
//! library the paper links PaStiX against ("SCOTCH 5.1.12b", §V).
//!
//! * [`nd::nested_dissection`] — recursive vertex-separator ordering of a
//!   graph ranked by Cuthill–McKee with structural tie-breaks (a cubic grid
//!   or box gets one permutation whatever its numbering): BFS level-set
//!   separators, and SCOTCH's and METIS's multilevel separators where a
//!   level set is a shell rather than a plane (27-point stencils),
//!   separators numbered by first contact, minimum-degree leaves; the
//!   solver's default, whose top separators become the paper's big panels.
//!   [`nd::level_set_dissection`] is the same ordering with level sets only,
//!   the reference the multilevel splits are held to.
//! * [`md::minimum_degree`] — classic minimum-degree on the elimination
//!   graph, used for the ND leaves and the subgraphs ND finds no separator
//!   in, and usable standalone on small problems.
//! * [`rcm::reverse_cuthill_mckee`] — bandwidth-reducing ordering, kept as
//!   a baseline to show (in the benches) how much nested dissection
//!   matters for the paper's task DAG; its numbering is the relabel ND
//!   starts from.
//! * [`Permutation`] — validated `old → new` relabeling shared with the
//!   symbolic phase.
//!
//! Every ordering allocates its `n`-sized state once per thread it runs on
//! (a [`dagfact_sparse::graph::Traversal`], a side array, a position
//! array, an [`md::MdWorkspace`]) and resets it by walking the vertices a
//! call touched: dissection costs `O((n + m) · depth)` plus its leaves' minimum
//! degree, with no `n`-sized work per recursive call. Nested dissection
//! orders the two sides of a large split on two threads while the host has
//! spare ones, with the same result at every thread count.

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod md;
mod multilevel;
pub mod nd;
pub mod perm;
pub mod rcm;

pub use nd::{level_set_dissection, nested_dissection, NdOptions};
pub use perm::Permutation;

use dagfact_sparse::graph::Graph;
use dagfact_sparse::SparsityPattern;

/// Ordering algorithm selector for the solver's analysis phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Keep the input ordering.
    Natural,
    /// Reverse Cuthill-McKee (bandwidth reduction; baseline only).
    ReverseCuthillMcKee,
    /// Minimum degree on the elimination graph.
    MinimumDegree,
    /// Nested dissection with minimum-degree leaves (default).
    #[default]
    NestedDissection,
}

/// Compute a fill-reducing ordering of a square, structurally symmetric
/// pattern (callers should symmetrize first; see
/// [`SparsityPattern::symmetrize`]).
pub fn compute_ordering(pattern: &SparsityPattern, kind: OrderingKind) -> Permutation {
    let graph = Graph::from_pattern(pattern);
    match kind {
        OrderingKind::Natural => Permutation::identity(pattern.ncols()),
        OrderingKind::ReverseCuthillMcKee => rcm::reverse_cuthill_mckee(&graph),
        OrderingKind::MinimumDegree => md::minimum_degree(&graph),
        OrderingKind::NestedDissection => nested_dissection(&graph, &NdOptions::default()),
    }
}
