//! # dagfact-sparse
//!
//! Sparse-matrix infrastructure for the `dagfact` supernodal solver: the
//! Rust substrate for what the paper gets from the files of the University
//! of Florida collection and PaStiX's internal CSC handling.
//!
//! * [`SparsityPattern`] — compressed-column structure (no values), with
//!   transposition, permutation and the `A + Aᵀ` symmetrization that PaStiX
//!   applies to unsymmetric matrices (§III),
//! * [`CscMatrix`] — compressed sparse column matrix over any
//!   [`Scalar`](dagfact_kernels::Scalar),
//! * [`TripletBuilder`] — coordinate-format assembly (duplicates summed),
//! * [`graph::Graph`] — adjacency-graph view with the traversals used by
//!   the ordering crate,
//! * [`gen`] — synthetic problem generators standing in for the paper's
//!   nine UF matrices (2D/3D grid stencils, real/complex, SPD/indefinite/
//!   unsymmetric),
//! * [`mm`] — Matrix Market I/O for interoperability.

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod coo;
pub mod csc;
pub mod gen;
pub mod graph;
pub mod mm;
pub mod pattern;

pub use coo::TripletBuilder;
pub use csc::CscMatrix;
pub use pattern::SparsityPattern;

/// Errors produced while constructing or reading sparse matrices.
#[derive(Debug)]
pub enum SparseError {
    /// An index was out of bounds for the declared dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: usize,
        /// Column index of the offending entry.
        col: usize,
        /// Number of rows of the matrix.
        nrows: usize,
        /// Number of columns of the matrix.
        ncols: usize,
    },
    /// Malformed Matrix Market content.
    Parse(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl core::fmt::Display for SparseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(f, "entry ({row}, {col}) outside {nrows}x{ncols} matrix"),
            SparseError::Parse(msg) => write!(f, "matrix market parse error: {msg}"),
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}
