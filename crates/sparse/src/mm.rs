//! Matrix Market coordinate-format I/O.
//!
//! The paper's matrices come from the University of Florida collection,
//! which distributes them in Matrix Market form. This module implements
//! the coordinate Matrix Market dialect (`real`/`complex`/`pattern` ×
//! `general`/`symmetric`) so users can run `dagfact` on the genuine UF
//! files when they have them.

use crate::coo::TripletBuilder;
use crate::csc::CscMatrix;
use crate::SparseError;
use dagfact_kernels::Scalar;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Matrix symmetry declared in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; mirrored on read.
    Symmetric,
}

/// Parse a Matrix Market stream into a [`CscMatrix`].
///
/// `pattern` fields get value 1; `complex` fields keep only what the
/// scalar type can represent (reading a complex file into `f64` is an
/// error). Symmetric files are expanded to full storage.
pub fn read_matrix_market<T: Scalar, R: Read>(reader: R) -> Result<CscMatrix<T>, SparseError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| SparseError::Parse("empty file".into()))??;
    let head_tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if head_tokens.len() < 5
        || head_tokens[0] != "%%matrixmarket"
        || head_tokens[1] != "matrix"
        || head_tokens[2] != "coordinate"
    {
        return Err(SparseError::Parse(format!(
            "unsupported header: {header:?} (only 'matrix coordinate' supported)"
        )));
    }
    let field = head_tokens[3].as_str();
    let value_kind = match field {
        "real" | "integer" => ValueKind::Real,
        "complex" => ValueKind::Complex,
        "pattern" => ValueKind::Pattern,
        other => {
            return Err(SparseError::Parse(format!("unsupported field {other:?}")));
        }
    };
    if value_kind == ValueKind::Complex && !T::IS_COMPLEX {
        return Err(SparseError::Parse(
            "complex matrix read into a real scalar type".into(),
        ));
    }
    let symmetry = match head_tokens[4].as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry {other:?} (general/symmetric only)"
            )));
        }
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| SparseError::Parse(format!("bad size line {size_line:?}: {e}")))?;
    if dims.len() != 3 {
        return Err(SparseError::Parse(format!("bad size line {size_line:?}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);

    // Untrusted header: reserve fallibly and with overflow checks, so an
    // absurd declared size is a typed error, not an abort.
    let cap = if symmetry == MmSymmetry::Symmetric {
        nnz.checked_mul(2).ok_or_else(|| {
            SparseError::Parse(format!("entry count {nnz} overflows when mirrored"))
        })?
    } else {
        nnz
    };
    // Clamp the eager reservation: growth past this is driven by entries
    // actually present in the file (fallibly, via `try_push`), so a lying
    // header cannot force a huge up-front allocation.
    let mut builder = TripletBuilder::try_with_capacity(nrows, ncols, cap.min(1 << 20))?;
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = parse_tok(it.next(), t)?;
        let j: usize = parse_tok(it.next(), t)?;
        if i == 0 || j == 0 || i > nrows || j > ncols {
            return Err(SparseError::Parse(format!("entry out of bounds: {t:?}")));
        }
        let v: T = match value_kind {
            ValueKind::Pattern => T::one(),
            ValueKind::Real => {
                let re: f64 = parse_tok(it.next(), t)?;
                T::from_f64(re)
            }
            ValueKind::Complex => {
                let re: f64 = parse_tok(it.next(), t)?;
                let im: f64 = parse_tok(it.next(), t)?;
                T::from_parts(re, im)
            }
        };
        builder.try_push(i - 1, j - 1, v)?;
        if symmetry == MmSymmetry::Symmetric && i != j {
            builder.try_push(j - 1, i - 1, v)?;
        }
        seen += 1;
        if seen > nnz {
            return Err(SparseError::Parse(format!(
                "file contains more than the {nnz} declared entries"
            )));
        }
    }
    if seen != nnz {
        return Err(SparseError::Parse(format!(
            "header declared {nnz} entries, file contained {seen}"
        )));
    }
    builder.try_build()
}

#[derive(PartialEq, Clone, Copy)]
enum ValueKind {
    Real,
    Complex,
    Pattern,
}

fn parse_tok<F: core::str::FromStr>(tok: Option<&str>, line: &str) -> Result<F, SparseError>
where
    F::Err: core::fmt::Display,
{
    tok.ok_or_else(|| SparseError::Parse(format!("truncated line {line:?}")))?
        .parse::<F>()
        .map_err(|e| SparseError::Parse(format!("bad token in {line:?}: {e}")))
}

/// Read a Matrix Market file from disk.
#[allow(clippy::disallowed_methods)] // file I/O is this function's job
pub fn read_matrix_market_file<T: Scalar>(path: impl AsRef<Path>) -> Result<CscMatrix<T>, SparseError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a matrix in `general` coordinate format (full storage, 1-based).
pub fn write_matrix_market<T: Scalar, W: Write>(
    matrix: &CscMatrix<T>,
    mut writer: W,
) -> Result<(), SparseError> {
    let field = if T::IS_COMPLEX { "complex" } else { "real" };
    writeln!(writer, "%%MatrixMarket matrix coordinate {field} general")?;
    writeln!(writer, "% written by dagfact-sparse")?;
    writeln!(
        writer,
        "{} {} {}",
        matrix.nrows(),
        matrix.ncols(),
        matrix.nnz()
    )?;
    for j in 0..matrix.ncols() {
        for (&i, &v) in matrix.col_rows(j).iter().zip(matrix.col_values(j)) {
            if T::IS_COMPLEX {
                writeln!(writer, "{} {} {:.17e} {:.17e}", i + 1, j + 1, v.re(), v.im())?;
            } else {
                writeln!(writer, "{} {} {:.17e}", i + 1, j + 1, v.re())?;
            }
        }
    }
    Ok(())
}

/// Write a Matrix Market file to disk.
#[allow(clippy::disallowed_methods)] // file I/O is this function's job
pub fn write_matrix_market_file<T: Scalar>(
    matrix: &CscMatrix<T>,
    path: impl AsRef<Path>,
) -> Result<(), SparseError> {
    write_matrix_market(matrix, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_laplacian_2d, helmholtz_3d};
    use dagfact_kernels::C64;

    #[test]
    fn real_roundtrip() {
        let a = grid_laplacian_2d(4, 3);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b: CscMatrix<f64> = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn complex_roundtrip() {
        let a = helmholtz_3d(3, 2, 2, 1.0, 0.25);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b: CscMatrix<C64> = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetric_storage_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment line\n\
                    3 3 4\n\
                    1 1 2.0\n\
                    2 1 -1.0\n\
                    3 2 -1.0\n\
                    3 3 2.0\n";
        let a: CscMatrix<f64> = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.nnz(), 6);
        assert!(a.is_symmetric());
    }

    #[test]
    fn pattern_field_gets_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let a: CscMatrix<f64> = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(1, 1), 1.0);
    }

    #[test]
    fn rejects_complex_into_real() {
        let text = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n";
        assert!(read_matrix_market::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_bad_counts_and_bounds() {
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(short.as_bytes()).is_err());
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market::<f64, _>(oob.as_bytes()).is_err());
    }
}
