//! Compressed-column sparsity pattern (structure without values).
//!
//! The analysis half of a sparse direct solver works purely on structure:
//! symmetrization, permutation, elimination trees and symbolic
//! factorization never look at numerical values. [`SparsityPattern`] is the
//! shared currency between `dagfact-sparse`, `dagfact-order` and
//! `dagfact-symbolic`.

/// Compressed sparse column structure. Row indices within each column are
/// kept **sorted and unique**; every constructor enforces this invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
}

impl SparsityPattern {
    /// Build from raw CSC arrays. Rows within each column are sorted and
    /// deduplicated; panics if an index is out of bounds or `colptr` is
    /// malformed.
    pub fn from_csc(nrows: usize, ncols: usize, colptr: Vec<usize>, mut rowind: Vec<usize>) -> Self {
        assert_eq!(colptr.len(), ncols + 1, "colptr must have ncols+1 entries");
        assert_eq!(colptr.last(), Some(&rowind.len()), "colptr must end at the entry count");
        assert!(colptr.windows(2).all(|w| w[0] <= w[1]), "colptr must be monotone");
        let mut write = 0usize;
        let mut new_colptr = Vec::with_capacity(ncols + 1);
        new_colptr.push(0);
        let mut scratch: Vec<usize> = Vec::new();
        for j in 0..ncols {
            scratch.clear();
            scratch.extend_from_slice(&rowind[colptr[j]..colptr[j + 1]]);
            scratch.sort_unstable();
            scratch.dedup();
            for &r in &scratch {
                assert!(r < nrows, "row index {r} out of bounds in column {j}");
                rowind[write] = r;
                write += 1;
            }
            new_colptr.push(write);
        }
        rowind.truncate(write);
        SparsityPattern {
            nrows,
            ncols,
            colptr: new_colptr,
            rowind,
        }
    }

    /// Build a pattern from an iterator of `(row, col)` entries (duplicates
    /// allowed).
    pub fn from_entries(nrows: usize, ncols: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut per_col: Vec<Vec<usize>> = vec![Vec::new(); ncols];
        for (r, c) in entries {
            assert!(r < nrows && c < ncols, "entry ({r},{c}) out of bounds");
            per_col[c].push(r);
        }
        let mut colptr = Vec::with_capacity(ncols + 1);
        colptr.push(0);
        let mut rowind = Vec::new();
        for col in &mut per_col {
            col.sort_unstable();
            col.dedup();
            rowind.extend_from_slice(col);
            colptr.push(rowind.len());
        }
        SparsityPattern {
            nrows,
            ncols,
            colptr,
            rowind,
        }
    }

    /// An empty `n×n` diagonal-free pattern.
    pub fn empty(n: usize) -> Self {
        SparsityPattern {
            nrows: n,
            ncols: n,
            colptr: vec![0; n + 1],
            rowind: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Column pointer array (`ncols + 1` entries).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Concatenated row indices.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Sorted row indices of column `j` (BOUNDS: `j < ncols`; `colptr` has
    /// `ncols + 1` nondecreasing entries ≤ nnz).
    pub fn col(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Structural transpose.
    pub fn transpose(&self) -> SparsityPattern {
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rowind {
            counts[r + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let colptr = counts.clone();
        let mut rowind = vec![0usize; self.nnz()];
        let mut next = counts;
        for j in 0..self.ncols {
            for &r in self.col(j) {
                rowind[next[r]] = j;
                next[r] += 1;
            }
        }
        // Rows are emitted in increasing j per column, so already sorted.
        SparsityPattern {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowind,
        }
    }

    /// Pattern of `A + Aᵀ` **with a full diagonal** — the symmetric
    /// structure PaStiX factorizes ("PASTIX works on the matrix A + Aᵀ,
    /// which produces a symmetric pattern", §III). Requires a square
    /// pattern.
    ///
    /// An input that already is structurally symmetric with a full
    /// diagonal comes back as a copy, after a diagonal lookup per column
    /// and one [`is_symmetric`](Self::is_symmetric) pass. Any other input
    /// pays that check up to its first missing diagonal entry or unmatched
    /// entry — at most one pass over the entries — before the transpose
    /// and merge.
    pub fn symmetrize(&self) -> SparsityPattern {
        assert_eq!(self.nrows, self.ncols, "symmetrize requires a square pattern");
        let n = self.ncols;
        if (0..n).all(|j| self.contains(j, j)) && self.is_symmetric() {
            return self.clone();
        }
        let at = self.transpose();
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0usize);
        let mut rowind = Vec::with_capacity(self.nnz() * 2 + n);
        for j in 0..n {
            // Merge the two sorted columns plus the diagonal entry.
            let a = self.col(j);
            let b = at.col(j);
            let (mut ia, mut ib) = (0, 0);
            let mut diag_done = false;
            let push = |r: usize, rowind: &mut Vec<usize>, diag_done: &mut bool| {
                if r == j {
                    *diag_done = true;
                }
                if !*diag_done && r > j {
                    rowind.push(j);
                    *diag_done = true;
                }
                rowind.push(r);
            };
            while ia < a.len() || ib < b.len() {
                let ra = a.get(ia).copied().unwrap_or(usize::MAX);
                let rb = b.get(ib).copied().unwrap_or(usize::MAX);
                let r = ra.min(rb);
                if ra == r {
                    ia += 1;
                }
                if rb == r {
                    ib += 1;
                }
                push(r, &mut rowind, &mut diag_done);
            }
            if !diag_done {
                rowind.push(j);
            }
            colptr.push(rowind.len());
        }
        SparsityPattern {
            nrows: n,
            ncols: n,
            colptr,
            rowind,
        }
    }

    /// `true` if the pattern is structurally symmetric. One pass and no
    /// transpose: reading the columns in order meets each row's entries by
    /// ascending column, and they must spell that row's own column.
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut next = self.colptr.clone();
        (0..self.ncols).all(|j| {
            self.col(j).iter().all(|&i| {
                next[i] += 1;
                next[i] <= self.colptr[i + 1] && self.rowind[next[i] - 1] == j
            })
        })
    }

    /// Symmetric permutation `P·A·Pᵀ`: entry `(i, j)` moves to
    /// `(perm[i], perm[j])` where `perm[old] = new`.
    pub fn permute_symmetric(&self, perm: &[usize]) -> SparsityPattern {
        assert_eq!(self.nrows, self.ncols);
        assert_eq!(perm.len(), self.ncols);
        let n = self.ncols;
        let mut iperm = vec![0usize; n];
        for (old, &new) in perm.iter().enumerate() {
            iperm[new] = old;
        }
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0usize);
        let mut rowind = Vec::with_capacity(self.nnz());
        let mut scratch = Vec::new();
        for &oldj in iperm.iter().take(n) {
            scratch.clear();
            scratch.extend(self.col(oldj).iter().map(|&r| perm[r]));
            scratch.sort_unstable();
            rowind.extend_from_slice(&scratch);
            colptr.push(rowind.len());
        }
        SparsityPattern {
            nrows: n,
            ncols: n,
            colptr,
            rowind,
        }
    }

    /// `true` if `(i, j)` is a stored entry.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.col(j).binary_search(&i).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SparsityPattern {
        // 4x4:
        // x . . x
        // x x . .
        // . . x .
        // . x . x
        SparsityPattern::from_entries(
            4,
            4,
            vec![(0, 0), (1, 0), (1, 1), (3, 1), (2, 2), (0, 3), (3, 3)],
        )
    }

    #[test]
    fn from_csc_sorts_and_dedups() {
        let p = SparsityPattern::from_csc(3, 2, vec![0, 3, 4], vec![2, 0, 2, 1]);
        assert_eq!(p.col(0), &[0, 2]);
        assert_eq!(p.col(1), &[1]);
        assert_eq!(p.nnz(), 3);
    }

    #[test]
    fn transpose_involution() {
        let p = toy();
        assert_eq!(p.transpose().transpose(), p);
        assert!(p.transpose().contains(3, 0)); // A(0,3) mirrored
        assert!(!p.transpose().contains(2, 0)); // A(0,2) is empty
    }

    #[test]
    fn symmetrize_adds_mirror_and_diagonal() {
        let p = toy();
        let s = p.symmetrize();
        assert!(s.is_symmetric());
        // Every original entry and its mirror present.
        for j in 0..4 {
            for &i in p.col(j) {
                assert!(s.contains(i, j));
                assert!(s.contains(j, i));
            }
        }
        // Full diagonal.
        for j in 0..4 {
            assert!(s.contains(j, j), "diagonal {j}");
        }
        // Entry (2,2) column has only the diagonal.
        assert_eq!(s.col(2), &[2]);
    }

    #[test]
    fn is_symmetric_agrees_with_transpose_equality() {
        let sym = toy().symmetrize();
        // Each single-entry deletion breaks symmetry (or removes a
        // diagonal entry and keeps it), as does a non-square shape.
        let entries: Vec<(usize, usize)> =
            (0..4).flat_map(|j| sym.col(j).iter().map(move |&i| (i, j))).collect();
        for skip in 0..entries.len() {
            let kept = entries.iter().enumerate().filter(|&(k, _)| k != skip).map(|(_, &e)| e);
            let p = SparsityPattern::from_entries(4, 4, kept);
            assert_eq!(p.is_symmetric(), p == p.transpose(), "without {:?}", entries[skip]);
        }
        assert!(!toy().is_symmetric());
        assert!(!SparsityPattern::from_entries(3, 2, vec![(0, 0), (1, 1)]).is_symmetric());
    }

    /// `A + Aᵀ` plus the diagonal, entry by entry.
    fn mirrored_with_diagonal(p: &SparsityPattern) -> SparsityPattern {
        let n = p.ncols();
        let entries = (0..n).flat_map(|j| p.col(j).iter().flat_map(move |&i| [(i, j), (j, i)]));
        SparsityPattern::from_entries(n, n, entries.chain((0..n).map(|j| (j, j))))
    }

    #[test]
    fn symmetrize_returns_a_symmetric_full_diagonal_input_unchanged() {
        let p = crate::gen::grid_laplacian_3d(3, 4, 2).pattern().clone();
        assert!(p.is_symmetric());
        assert_eq!(p.symmetrize(), p);
    }

    #[test]
    fn symmetrize_adds_the_one_missing_diagonal_entry() {
        let full = crate::gen::grid_laplacian_2d(4, 3).pattern().clone();
        let n = full.ncols();
        let entries = (0..n).flat_map(|j| full.col(j).iter().map(move |&i| (i, j)));
        let p = SparsityPattern::from_entries(n, n, entries.filter(|&e| e != (5, 5)));
        assert!(p.is_symmetric() && !p.contains(5, 5));
        assert_eq!(p.symmetrize(), full);
    }

    /// Symmetric except for one entry in its last column: the check runs
    /// to the end before it fails, and the result is the full merge.
    #[test]
    fn symmetrize_merges_an_input_unsymmetric_in_its_last_column() {
        let sym = crate::gen::grid_laplacian_2d(5, 4).pattern().clone();
        let n = sym.ncols();
        let entries = (0..n).flat_map(|j| sym.col(j).iter().map(move |&i| (i, j)));
        let p = SparsityPattern::from_entries(n, n, entries.chain([(0, n - 1)]));
        assert!(!p.is_symmetric());
        let s = p.symmetrize();
        assert_eq!(s, mirrored_with_diagonal(&p));
        assert!(s.contains(n - 1, 0) && s.nnz() == sym.nnz() + 2);
    }

    #[test]
    fn symmetrize_idempotent_on_symmetric() {
        let s = toy().symmetrize();
        assert_eq!(s.symmetrize(), s);
    }

    #[test]
    fn permutation_relabels_entries() {
        let p = toy();
        let perm = vec![2, 0, 3, 1]; // old -> new
        let q = p.permute_symmetric(&perm);
        assert_eq!(q.nnz(), p.nnz());
        for j in 0..4 {
            for &i in p.col(j) {
                assert!(q.contains(perm[i], perm[j]), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn identity_permutation_is_noop() {
        let p = toy();
        assert_eq!(p.permute_symmetric(&[0, 1, 2, 3]), p);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_entry_panics() {
        SparsityPattern::from_entries(2, 2, vec![(2, 0)]);
    }
}
