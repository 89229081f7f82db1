//! Factor column counts by Gilbert–Ng–Peyton's skeleton-matrix algorithm
//! (SIMAX 15(4), 1994; CSparse's `cs_counts`).
//!
//! `cc[j] = |{ i ≥ j : L[i, j] ≠ 0 }|` (diagonal included). `L[i, j] ≠ 0`
//! iff `j` belongs to the *row subtree* of `i`: the union of the etree
//! paths from each `k < i` with `A[i, k] ≠ 0` up to `i`. Instead of walking
//! those paths (one step per nonzero of `L`), GNP counts, for every node,
//! how many row subtrees it lies in as a sum over its etree subtree of
//! per-node deltas:
//!
//! - visiting the nodes in postorder, `A[i, j]` with `i > j` makes `j` a
//!   *leaf* of row subtree `i` iff `j`'s first descendant comes after the
//!   latest first descendant seen in row `i` (`maxfirst`) — the other
//!   entries of `A` are not in the skeleton and cost one comparison;
//! - each leaf adds one at itself, and subtracts one at the least common
//!   ancestor of itself and row `i`'s previous leaf (`prevleaf`), where the
//!   two paths merge; the LCA is found by a union-find over the already
//!   visited nodes with path compression;
//! - every node subtracts one at its parent, and a leaf of the etree adds
//!   one at itself, which together count the diagonal;
//! - summing the deltas children-first gives `cc`.
//!
//! Time is `O(nnz(A)·α(n))`, extra space four `O(n)` arrays plus the
//! postorder, allocated once per call. The row-subtree walk this replaced
//! touched every nonzero of `L` (10 M steps against 0.55 M entries of `A`
//! on a 27-point box); it survives as the test reference below.

use crate::etree::{postorder, NO_PARENT};
use dagfact_sparse::SparsityPattern;

/// Not yet set (`first`, `maxfirst`, `prevleaf`).
const UNSET: usize = usize::MAX;

/// Column counts of the Cholesky factor of a structurally symmetric
/// pattern, given its elimination tree (postordered or not). Also returns
/// `nnz(L) = Σ cc[j]`.
pub fn column_counts(pattern: &SparsityPattern, parent: &[usize]) -> (Vec<usize>, usize) {
    let n = pattern.ncols();
    assert_eq!(parent.len(), n);
    let post = postorder(parent);
    // first[j]: postorder index of j's first descendant.
    let mut first = vec![UNSET; n];
    // delta[j]: this node's share of cc, summed over subtrees at the end.
    let mut delta = vec![0isize; n];
    for (k, &leaf) in post.iter().enumerate() {
        if first[leaf] == UNSET {
            delta[leaf] = 1; // a leaf of the etree
        }
        let mut j = leaf;
        while j != NO_PARENT && first[j] == UNSET {
            first[j] = k;
            j = parent[j];
        }
    }
    // maxfirst[i]: largest first[j] over the leaves found in row i so far;
    // prevleaf[i]: the latest of those leaves; ancestor: union-find links
    // (a set's root points to itself).
    let mut maxfirst = vec![UNSET; n];
    let mut prevleaf = vec![UNSET; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in &post {
        if parent[j] != NO_PARENT {
            delta[parent[j]] -= 1;
        }
        let col = pattern.col(j);
        // Entries i > j of column j are those of row j (symmetry): j may be
        // a leaf of row subtree i.
        for &i in &col[col.partition_point(|&i| i <= j)..] {
            if maxfirst[i] != UNSET && first[j] <= maxfirst[i] {
                continue; // j's subtree already holds a leaf of row i
            }
            maxfirst[i] = first[j];
            delta[j] += 1;
            let jprev = std::mem::replace(&mut prevleaf[i], j);
            if jprev != UNSET {
                // The paths from jprev and j merge at their LCA: the root
                // of jprev's set, since j's is not yet joined to it.
                let mut q = jprev;
                while ancestor[q] != q {
                    q = ancestor[q];
                }
                let mut s = jprev;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q);
                }
                delta[q] -= 1;
            }
        }
        if parent[j] != NO_PARENT {
            ancestor[j] = parent[j];
        }
    }
    // Children precede their parent in postorder.
    for &j in &post {
        if parent[j] != NO_PARENT {
            delta[parent[j]] += delta[j];
        }
    }
    let cc: Vec<usize> = delta.into_iter().map(|d| d as usize).collect();
    let nnz = cc.iter().sum();
    (cc, nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::elimination_tree;
    use dagfact_sparse::gen::{grid_laplacian_2d, grid_laplacian_3d, grid_laplacian_3d_box, random_spd};

    /// The row-subtree walk `column_counts` replaced: one step per nonzero
    /// of `L`, with a per-row visit mark.
    fn row_subtree_counts(pattern: &SparsityPattern, parent: &[usize]) -> (Vec<usize>, usize) {
        let n = pattern.ncols();
        let mut cc = vec![1usize; n];
        let mut mark = vec![usize::MAX; n];
        for i in 0..n {
            mark[i] = i;
            for &k in pattern.col(i) {
                if k >= i {
                    break;
                }
                let mut j = k;
                while mark[j] != i {
                    cc[j] += 1;
                    mark[j] = i;
                    match parent[j] {
                        NO_PARENT => break,
                        p => j = p,
                    }
                }
            }
        }
        let nnz = cc.iter().sum();
        (cc, nnz)
    }

    /// `0..n` in a random order drawn from `seed` (Fisher-Yates on
    /// SplitMix64).
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        perm
    }

    /// Random SPD patterns of `sizes` as diagonal blocks: the etree is a
    /// forest of one tree (or more) per block.
    fn block_diagonal(sizes: &[usize], seed: u64) -> SparsityPattern {
        let n = sizes.iter().sum();
        let mut entries = Vec::new();
        let mut offset = 0;
        for (b, &m) in sizes.iter().enumerate() {
            let block = random_spd(m, 2, seed + b as u64);
            let p = block.pattern();
            for j in 0..m {
                entries.extend(p.col(j).iter().map(|&i| (i + offset, j + offset)));
            }
            offset += m;
        }
        SparsityPattern::from_entries(n, n, entries)
    }

    #[test]
    fn matches_row_subtree_walk() {
        let mut cases: Vec<(String, SparsityPattern)> = Vec::new();
        for (density, seeds) in [(1, 0..3), (3, 3..6), (8, 6..9)] {
            for seed in seeds {
                let p = random_spd(120, density, 500 + seed).pattern().symmetrize();
                cases.push((format!("random_spd density {density} seed {seed}"), p));
            }
        }
        cases.push(("grid 2d".into(), grid_laplacian_2d(13, 9).pattern().symmetrize()));
        cases.push(("grid 3d".into(), grid_laplacian_3d(6, 5, 4).pattern().symmetrize()));
        cases.push(("box 3d".into(), grid_laplacian_3d_box(5, 5, 5).pattern().symmetrize()));
        cases.push(("forest".into(), block_diagonal(&[1, 17, 4, 30, 2, 9], 40)));
        cases.push(("diagonal".into(), SparsityPattern::from_entries(7, 7, (0..7).map(|i| (i, i)))));
        cases.push(("n = 0".into(), SparsityPattern::empty(0)));
        cases.push(("n = 1".into(), SparsityPattern::from_entries(1, 1, [(0, 0)])));
        for (seed, (name, p)) in cases.into_iter().enumerate() {
            // The renumbered pattern's etree is topological but not
            // postordered.
            let renumbered = p.permute_symmetric(&shuffled(p.ncols(), seed as u64));
            for (label, q) in [("", p), (" renumbered", renumbered)] {
                let parent = elimination_tree(&q);
                assert_eq!(
                    column_counts(&q, &parent),
                    row_subtree_counts(&q, &parent),
                    "{name}{label}"
                );
            }
        }
    }

    /// Hub-first arrow: vertex 0 touches every other vertex, so `L` is
    /// full. The walk would take n(n+1)/2 ≈ 5·10⁹ steps; GNP reads the
    /// 3n − 2 entries of `A`.
    #[test]
    fn hub_first_arrow_is_full_at_the_cost_of_its_input() {
        let n = 100_000;
        let mut colptr = vec![0, n];
        let mut rowind: Vec<usize> = (0..n).collect();
        for j in 1..n {
            rowind.extend([0, j]);
            colptr.push(rowind.len());
        }
        let p = SparsityPattern::from_csc(n, n, colptr, rowind);
        let parent = elimination_tree(&p);
        let (cc, nnz) = column_counts(&p, &parent);
        assert!(cc.iter().enumerate().all(|(j, &c)| c == n - j));
        assert_eq!(nnz, n * (n + 1) / 2);
    }

    /// Reference counts via dense symbolic factorization.
    fn naive_counts(pattern: &SparsityPattern) -> Vec<usize> {
        let n = pattern.ncols();
        let mut cols: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for j in 0..n {
            cols[j][j] = true;
            for &i in pattern.col(j) {
                if i >= j {
                    cols[j][i] = true;
                }
            }
            for k in 0..j {
                if cols[k][j] {
                    let (head, tail) = cols.split_at_mut(j);
                    for (s, d) in head[k].iter().zip(tail[0].iter_mut()).skip(j) {
                        if *s {
                            *d = true;
                        }
                    }
                }
            }
        }
        cols.iter().map(|c| c.iter().filter(|&&b| b).count()).collect()
    }

    #[test]
    fn matches_naive_on_grid() {
        let a = grid_laplacian_2d(5, 4);
        let p = a.pattern().symmetrize();
        let parent = elimination_tree(&p);
        let (cc, nnz) = column_counts(&p, &parent);
        let reference = naive_counts(&p);
        assert_eq!(cc, reference);
        assert_eq!(nnz, reference.iter().sum::<usize>());
    }

    #[test]
    fn matches_naive_on_random_patterns() {
        for seed in 0..6 {
            let a = random_spd(35, 3, 100 + seed);
            let p = a.pattern().symmetrize();
            let parent = elimination_tree(&p);
            let (cc, _) = column_counts(&p, &parent);
            assert_eq!(cc, naive_counts(&p), "seed {seed}");
        }
    }

    #[test]
    fn dense_matrix_counts_are_triangular() {
        // Fully dense 6x6: cc[j] = n - j.
        let n = 6;
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                entries.push((i, j));
            }
        }
        let p = SparsityPattern::from_entries(n, n, entries);
        let parent = elimination_tree(&p);
        let (cc, nnz) = column_counts(&p, &parent);
        assert_eq!(cc, vec![6, 5, 4, 3, 2, 1]);
        assert_eq!(nnz, 21);
    }

    #[test]
    fn diagonal_matrix_counts_are_ones() {
        let p = SparsityPattern::from_entries(5, 5, (0..5).map(|i| (i, i)));
        let parent = elimination_tree(&p);
        let (cc, nnz) = column_counts(&p, &parent);
        assert_eq!(cc, vec![1; 5]);
        assert_eq!(nnz, 5);
    }

    #[test]
    fn counts_monotone_along_chain_for_band() {
        // 3D grids exercise nontrivial fill; nnz(L) must be at least
        // nnz(lower(A)).
        let a = grid_laplacian_3d(5, 5, 5);
        let p = a.pattern().symmetrize();
        let parent = elimination_tree(&p);
        let (_, nnz) = column_counts(&p, &parent);
        let lower_a = (p.nnz() - 125) / 2 + 125;
        assert!(nnz >= lower_a, "nnzL {nnz} < nnz(lower A) {lower_a}");
    }

    use dagfact_sparse::SparsityPattern;
}
