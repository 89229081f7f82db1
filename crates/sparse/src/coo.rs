//! Coordinate-format (triplet) assembly.
//!
//! Finite-element style assembly pushes `(row, col, value)` contributions in
//! arbitrary order with duplicates; [`TripletBuilder::build`] sorts, sums
//! duplicates and produces a canonical [`CscMatrix`].

use crate::csc::CscMatrix;
use crate::pattern::SparsityPattern;
use crate::SparseError;
use dagfact_kernels::Scalar;

/// Accumulates `(row, col, value)` triplets and assembles a [`CscMatrix`].
#[derive(Debug, Clone)]
pub struct TripletBuilder<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> TripletBuilder<T> {
    /// New empty builder for an `nrows×ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        TripletBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// New builder with pre-reserved capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        TripletBuilder {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Fallible variant of [`TripletBuilder::with_capacity`] for
    /// untrusted inputs (file readers): an absurd declared entry count
    /// becomes a typed error instead of an allocation abort.
    pub fn try_with_capacity(
        nrows: usize,
        ncols: usize,
        cap: usize,
    ) -> Result<Self, SparseError> {
        let mut entries = Vec::new();
        entries.try_reserve_exact(cap).map_err(|_| {
            SparseError::Parse(format!("cannot reserve {cap} matrix entries"))
        })?;
        Ok(TripletBuilder {
            nrows,
            ncols,
            entries,
        })
    }

    /// Add a contribution; duplicates are summed at build time. Panics on
    /// out-of-bounds indices.
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.nrows && col < self.ncols,
            "triplet ({row},{col}) outside {}x{}",
            self.nrows,
            self.ncols
        );
        self.entries.push((row, col, value));
    }

    /// Fallible [`TripletBuilder::push`]: out-of-bounds indices become a
    /// typed error instead of a panic. For readers of untrusted files.
    pub fn try_push(&mut self, row: usize, col: usize, value: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.try_reserve(1).map_err(|_| {
            SparseError::Parse("out of memory growing the triplet buffer".into())
        })?;
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Number of raw (pre-merge) triplets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no triplet has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assemble into CSC form, summing duplicate coordinates. Entries whose
    /// sum is exactly zero are *kept* (explicit zeros preserve the
    /// structural information the analysis relies on).
    #[allow(clippy::expect_used)] // the panicking form, by contract
    pub fn build(self) -> CscMatrix<T> {
        self.try_build().expect("triplet assembly failed")
    }

    /// Fallible [`TripletBuilder::build`]: dimension-count overflow or a
    /// failed allocation becomes a typed error instead of a panic/abort.
    pub fn try_build(mut self) -> Result<CscMatrix<T>, SparseError> {
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| (c, r));
        let ptr_len = self.ncols.checked_add(1).ok_or_else(|| {
            SparseError::Parse(format!("column count {} overflows", self.ncols))
        })?;
        let mut colptr = Vec::new();
        colptr.try_reserve_exact(ptr_len).map_err(|_| {
            SparseError::Parse(format!("cannot reserve {ptr_len} column pointers"))
        })?;
        colptr.push(0usize);
        let mut rowind: Vec<usize> = Vec::new();
        let mut values: Vec<T> = Vec::new();
        rowind
            .try_reserve_exact(self.entries.len())
            .and_then(|()| values.try_reserve_exact(self.entries.len()))
            .map_err(|_| {
                SparseError::Parse(format!(
                    "cannot reserve {} assembled entries",
                    self.entries.len()
                ))
            })?;
        let mut cur_col = 0usize;
        for (r, c, v) in self.entries {
            while cur_col < c {
                colptr.push(rowind.len());
                cur_col += 1;
            }
            // Merge with the previous entry when it has the same
            // coordinates (sorting made duplicates adjacent); the bound
            // check keeps merges within the current column.
            let start = colptr.last().copied().unwrap_or(0);
            let merge = rowind.len() > start && rowind.last() == Some(&r);
            match values.last_mut() {
                Some(sum) if merge => *sum += v,
                _ => {
                    rowind.push(r);
                    values.push(v);
                }
            }
        }
        while cur_col < self.ncols {
            colptr.push(rowind.len());
            cur_col += 1;
        }
        let pattern = SparsityPattern::from_csc(self.nrows, self.ncols, colptr, rowind);
        Ok(CscMatrix::new(pattern, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(2, 1, 5.0);
        b.push(0, 0, 2.5);
        b.push(2, 1, -5.0);
        let a = b.build();
        assert_eq!(a.get(0, 0), 3.5);
        // Cancelling duplicates keep an explicit zero entry.
        assert_eq!(a.get(2, 1), 0.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn arbitrary_order_assembly() {
        let mut b = TripletBuilder::new(4, 4);
        let entries = [(3usize, 0usize, 1.0), (0, 3, 2.0), (1, 1, 3.0), (0, 0, 4.0), (2, 3, 5.0)];
        for &(r, c, v) in entries.iter().rev() {
            b.push(r, c, v);
        }
        let a = b.build();
        for &(r, c, v) in &entries {
            assert_eq!(a.get(r, c), v, "({r},{c})");
        }
        assert_eq!(a.nnz(), entries.len());
        // Canonical ordering inside columns.
        assert_eq!(a.col_rows(3), &[0, 2]);
    }

    #[test]
    fn empty_columns_are_handled() {
        let mut b = TripletBuilder::new(3, 5);
        b.push(1, 4, 9.0);
        let a = b.build();
        assert_eq!(a.ncols(), 5);
        for j in 0..4 {
            assert!(a.col_rows(j).is_empty());
        }
        assert_eq!(a.get(1, 4), 9.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_panics() {
        let mut b = TripletBuilder::<f64>::new(2, 2);
        b.push(0, 2, 1.0);
    }
}
