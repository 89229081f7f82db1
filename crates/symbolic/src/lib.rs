//! # dagfact-symbolic
//!
//! The analysis half of the supernodal solver (§III of the paper): given a
//! permuted, symmetrized sparsity pattern, predict the structure of the
//! factor and carve it into the panels and blocks that become tasks.
//!
//! Pipeline (all value-free — static pivoting means the DAG depends only on
//! structure):
//!
//! 1. [`etree::elimination_tree`] — Liu's algorithm with path compression;
//! 2. [`etree::postorder`] — relabeling that makes supernodes contiguous;
//! 3. [`counts::column_counts`] — `|struct(L₍:,j₎)|` by Gilbert–Ng–Peyton
//!    (O(nnz(A)·α(n)) time, O(n) space);
//! 4. [`supernode`] — fundamental supernode detection, supernodal row
//!    structures, and the amalgamation step the paper tunes to "allow up to
//!    12% more fill-in to build larger blocks" for the GPUs (§V);
//! 5. [`structure`] — vertical splitting of wide panels and the final
//!    [`structure::SymbolMatrix`]: column blocks (panels) × row blocks,
//!    PaStiX's compressed symbolic structure;
//! 6. [`cost`] — flop counts per task (Table I's TFlop column), critical-
//!    path priorities, and the list-scheduling cost simulation behind the
//!    native scheduler's static mapping.

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod cluster;
pub mod cost;
pub mod counts;
pub mod mapping;
pub mod etree;
pub mod structure;
pub mod supernode;

pub use cluster::{subtree_clusters, SubtreeClustering};
pub use cost::{CostModel, TaskCosts};
pub use mapping::{proportional_mapping, NodeMapping};
pub use structure::{Block, CBlk, SymbolMatrix};
pub use supernode::{AmalgamationOptions, SupernodePartition};

/// Which factorization the solver will run; drives flop counts and, in the
/// numeric phase, kernel selection. Names follow Table I of the paper
/// (`LLᵀ`, `LDLᵀ`, `LU`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FactoKind {
    /// Cholesky `A = L·Lᵀ` for symmetric positive definite problems.
    Cholesky,
    /// `A = L·D·Lᵀ` without pivoting for symmetric indefinite problems.
    Ldlt,
    /// `A = L·U` with static pivoting for structurally-symmetric
    /// unsymmetric problems.
    Lu,
}

impl FactoKind {
    /// Short paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            FactoKind::Cholesky => "LLt",
            FactoKind::Ldlt => "LDLt",
            FactoKind::Lu => "LU",
        }
    }

    /// LU stores and updates both an L and a U panel: twice the data and
    /// twice the update work of the symmetric factorizations.
    pub fn sides(self) -> usize {
        match self {
            FactoKind::Lu => 2,
            _ => 1,
        }
    }
}
