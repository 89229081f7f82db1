//! Compressed sparse column matrix with values.

use crate::pattern::SparsityPattern;
use dagfact_kernels::Scalar;

/// A sparse matrix in compressed-column form over any solver scalar.
///
/// Invariant: row indices within each column are sorted and unique (shared
/// with [`SparsityPattern`]); `values` runs parallel to the pattern's
/// `rowind`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix<T> {
    pattern: SparsityPattern,
    values: Vec<T>,
}

impl<T: Scalar> CscMatrix<T> {
    /// Build from a pattern and parallel values.
    pub fn new(pattern: SparsityPattern, values: Vec<T>) -> Self {
        assert_eq!(pattern.nnz(), values.len(), "values must match pattern nnz");
        CscMatrix { pattern, values }
    }

    /// Build from raw CSC arrays; rows within a column must be sorted and
    /// unique (use [`crate::TripletBuilder`] otherwise).
    pub fn from_csc(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(rowind.len(), values.len());
        let pattern = SparsityPattern::from_csc(nrows, ncols, colptr, rowind);
        assert_eq!(
            pattern.nnz(),
            values.len(),
            "duplicate or unsorted rows: assemble via TripletBuilder instead"
        );
        CscMatrix { pattern, values }
    }

    /// Structure of the matrix.
    pub fn pattern(&self) -> &SparsityPattern {
        &self.pattern
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.pattern.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.pattern.ncols()
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// All stored values, column-major by construction.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Sorted row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        self.pattern.col(j)
    }

    /// Values of column `j`, parallel to [`Self::col_rows`] (BOUNDS: `j <
    /// ncols`; `colptr` has `ncols + 1` nondecreasing entries ≤ nnz).
    pub fn col_values(&self, j: usize) -> &[T] {
        &self.values[self.pattern.colptr()[j]..self.pattern.colptr()[j + 1]]
    }

    /// Value at `(i, j)`, or zero if not stored.
    pub fn get(&self, i: usize, j: usize) -> T {
        match self.col_rows(j).binary_search(&i) {
            Ok(pos) => self.values[self.pattern.colptr()[j] + pos],
            Err(_) => T::zero(),
        }
    }

    /// Sparse matrix-vector product `y = A·x`. PANIC: `x` and `y` match the
    /// shape, so (BOUNDS:) every stored row index `i < nrows` is in `y`.
    pub fn spmv(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.ncols());
        assert_eq!(y.len(), self.nrows());
        for v in y.iter_mut() {
            *v = T::zero();
        }
        for (j, &xj) in x.iter().enumerate().take(self.ncols()) {
            if xj == T::zero() {
                continue;
            }
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                y[i] += v * xj;
            }
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> CscMatrix<T> {
        let tp = self.pattern.transpose();
        let mut values = vec![T::zero(); self.nnz()];
        let mut next: Vec<usize> = tp.colptr().to_vec();
        for j in 0..self.ncols() {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                values[next[i]] = v;
                next[i] += 1;
            }
        }
        CscMatrix {
            pattern: tp,
            values,
        }
    }

    /// Symmetric permutation `P·A·Pᵀ` (square matrices only); `perm[old] =
    /// new`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> CscMatrix<T> {
        assert_eq!(self.nrows(), self.ncols());
        let n = self.ncols();
        assert_eq!(perm.len(), n);
        let mut iperm = vec![0usize; n];
        for (old, &new) in perm.iter().enumerate() {
            iperm[new] = old;
        }
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0usize);
        let mut rowind = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for &oldj in iperm.iter().take(n) {
            scratch.clear();
            scratch.extend(
                self.col_rows(oldj)
                    .iter()
                    .zip(self.col_values(oldj))
                    .map(|(&r, &v)| (perm[r], v)),
            );
            scratch.sort_unstable_by_key(|&(r, _)| r);
            for &(r, v) in &scratch {
                rowind.push(r);
                values.push(v);
            }
            colptr.push(rowind.len());
        }
        CscMatrix {
            pattern: SparsityPattern::from_csc(n, n, colptr, rowind),
            values,
        }
    }

    /// `true` when `A = Aᵀ` exactly (structure and values).
    pub fn is_symmetric(&self) -> bool {
        self.nrows() == self.ncols() && *self == self.transpose()
    }

    /// Infinity norm `max_i Σ_j |a_ij|`. ALLOC: one row-sum buffer per call
    /// (once per refined solve); BOUNDS: stored row indices are < nrows.
    pub fn norm_inf(&self) -> f64 {
        let mut rowsum = vec![0.0f64; self.nrows()];
        for j in 0..self.ncols() {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                rowsum[i] += v.modulus();
            }
        }
        rowsum.into_iter().fold(0.0, f64::max)
    }

    /// Mirror the strictly-lower triangle onto the upper one, producing a
    /// fully-stored symmetric matrix from lower-triangular storage
    /// (Matrix Market `symmetric` convention).
    pub fn symmetrize_from_lower(&self) -> CscMatrix<T> {
        assert_eq!(self.nrows(), self.ncols());
        let mut b = crate::TripletBuilder::new(self.nrows(), self.ncols());
        for j in 0..self.ncols() {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                b.push(i, j, v);
                if i != j {
                    b.push(j, i, v);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_kernels::C64;

    fn toy() -> CscMatrix<f64> {
        // [[2, 0, 1],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        CscMatrix::from_csc(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 1, 0, 2],
            vec![2.0, 4.0, 3.0, 1.0, 5.0],
        )
    }

    #[test]
    fn get_and_spmv() {
        let a = toy();
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, vec![2.0 + 3.0, 6.0, 4.0 + 15.0]);
    }

    #[test]
    fn transpose_roundtrip_and_values() {
        let a = toy();
        let at = a.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(at.get(j, i), a.get(i, j));
            }
        }
        assert_eq!(at.transpose(), a);
    }

    #[test]
    fn symmetric_permutation_preserves_entries() {
        let a = toy();
        let perm = vec![1, 2, 0];
        let b = a.permute_symmetric(&perm);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(b.get(perm[i], perm[j]), a.get(i, j));
            }
        }
    }

    #[test]
    fn norm_inf_is_max_abs_row_sum() {
        let a = toy();
        assert_eq!(a.norm_inf(), 9.0); // row 2: 4 + 5
    }

    #[test]
    fn symmetrize_from_lower_mirrors() {
        let l = CscMatrix::from_csc(
            2,
            2,
            vec![0, 2, 3],
            vec![0, 1, 1],
            vec![4.0, -1.0, 4.0],
        );
        let s = l.symmetrize_from_lower();
        assert_eq!(s.get(0, 1), -1.0);
        assert_eq!(s.get(1, 0), -1.0);
        assert!(s.is_symmetric());
    }

    #[test]
    fn complex_matrix_basics() {
        let a = CscMatrix::from_csc(
            2,
            2,
            vec![0, 1, 2],
            vec![0, 1],
            vec![C64::new(1.0, 2.0), C64::new(0.0, -1.0)],
        );
        let x = vec![C64::new(1.0, 0.0), C64::new(0.0, 1.0)];
        let mut y = vec![C64::new(0.0, 0.0); 2];
        a.spmv(&x, &mut y);
        assert_eq!(y[0], C64::new(1.0, 2.0));
        assert_eq!(y[1], C64::new(1.0, 0.0));
        assert!((a.norm_inf() - 5.0f64.sqrt()).abs() < 1e-15);
    }
}
