//! Elimination tree construction and postordering.
//!
//! The elimination tree (Liu \[19\] in the paper) is the backbone of every
//! later analysis step: `parent[j] = min{ i > j : L[i, j] ≠ 0 }`, computed
//! without forming `L` via union-find path compression over the upper
//! triangle of the symmetrized pattern.

use dagfact_sparse::SparsityPattern;

/// Sentinel parent value for roots.
pub const NO_PARENT: usize = usize::MAX;

/// Compute the elimination tree of a square, structurally symmetric
/// pattern. Returns `parent[j]` (`NO_PARENT` for roots). Liu's algorithm
/// with path halving: O(nnz·α(n)).
pub fn elimination_tree(pattern: &SparsityPattern) -> Vec<usize> {
    let n = pattern.ncols();
    let mut parent = vec![NO_PARENT; n];
    // ancestor[j]: partially compressed path toward the current root of
    // j's subtree.
    let mut ancestor = vec![NO_PARENT; n];
    for j in 0..n {
        // Upper-triangle entries of column j (i.e. rows i < j) state that
        // vertex i reaches j in the filled graph.
        for &i in pattern.col(j) {
            if i >= j {
                break; // rows are sorted; the rest is the lower triangle
            }
            let mut r = i;
            while ancestor[r] != NO_PARENT && ancestor[r] != j {
                let next = ancestor[r];
                ancestor[r] = j; // path compression
                r = next;
            }
            if ancestor[r] == NO_PARENT {
                ancestor[r] = j;
                parent[r] = j;
            }
        }
    }
    parent
}

/// Depth-first postorder of the forest: returns `post` with
/// `post[k] = old index of the k-th postordered vertex`. Children are
/// visited in ascending order, giving a deterministic result.
pub fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    // Children as first-child / next-sibling links; threading the vertices
    // in descending order leaves every list ascending.
    let mut first_child = vec![NO_PARENT; n];
    let mut next_sibling = vec![NO_PARENT; n];
    for (c, &p) in parent.iter().enumerate().rev() {
        if p != NO_PARENT {
            next_sibling[c] = first_child[p];
            first_child[p] = c;
        }
    }
    let mut post = Vec::with_capacity(n);
    // Iterative DFS to survive deep trees (band matrices give chains);
    // `first_child[v]` is consumed as v's cursor over its children.
    let mut stack: Vec<usize> = Vec::new();
    for (root, &par) in parent.iter().enumerate() {
        if par != NO_PARENT {
            continue;
        }
        stack.push(root);
        while let Some(&v) = stack.last() {
            let c = first_child[v];
            if c != NO_PARENT {
                first_child[v] = next_sibling[c];
                stack.push(c);
            } else {
                post.push(v);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(post.len(), n);
    post
}

/// Relabel a parent array under a postorder: returns `new_parent` where
/// `new_parent[new_j]` is the new label of `parent[post[new_j]]`.
pub fn relabel_parent(parent: &[usize], post: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut inv = vec![0usize; n];
    for (new, &old) in post.iter().enumerate() {
        inv[old] = new;
    }
    let mut out = vec![NO_PARENT; n];
    for new_j in 0..n {
        let old_p = parent[post[new_j]];
        out[new_j] = if old_p == NO_PARENT {
            NO_PARENT
        } else {
            inv[old_p]
        };
    }
    out
}

/// `true` when `parent` is topologically labeled (`parent[j] > j` for every
/// non-root) — guaranteed after postordering.
pub fn is_topological(parent: &[usize]) -> bool {
    parent
        .iter()
        .enumerate()
        .all(|(j, &p)| p == NO_PARENT || p > j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{grid_laplacian_2d, random_spd};

    /// Reference elimination tree via dense symbolic factorization.
    fn naive_etree(pattern: &SparsityPattern) -> Vec<usize> {
        let n = pattern.ncols();
        // Dense boolean fill: struct(j) starts as A's lower column, then
        // for each k < j with L[j,k] != 0 merge struct(k) \ {k}.
        let mut cols: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for j in 0..n {
            for &i in pattern.col(j) {
                if i >= j {
                    cols[j][i] = true;
                }
            }
            for k in 0..j {
                if cols[k][j] {
                    let (head, tail) = cols.split_at_mut(j);
                    for (s, d) in head[k].iter().zip(tail[0].iter_mut()).skip(j + 1) {
                        if *s {
                            *d = true;
                        }
                    }
                }
            }
        }
        (0..n)
            .map(|j| {
                ((j + 1)..n)
                    .find(|&i| cols[j][i])
                    .unwrap_or(NO_PARENT)
            })
            .collect()
    }

    #[test]
    fn matches_naive_on_grid() {
        let a = grid_laplacian_2d(4, 4);
        let p = a.pattern().symmetrize();
        assert_eq!(elimination_tree(&p), naive_etree(&p));
    }

    #[test]
    fn matches_naive_on_random() {
        for seed in 0..5 {
            let a = random_spd(40, 3, seed);
            let p = a.pattern().symmetrize();
            assert_eq!(elimination_tree(&p), naive_etree(&p), "seed {seed}");
        }
    }

    #[test]
    fn tridiagonal_gives_chain() {
        let a = grid_laplacian_2d(6, 1);
        let parent = elimination_tree(&a.pattern().symmetrize());
        for (j, &pj) in parent.iter().enumerate().take(5) {
            assert_eq!(pj, j + 1);
        }
        assert_eq!(parent[5], NO_PARENT);
    }

    #[test]
    fn postorder_is_topological_relabel() {
        let a = random_spd(60, 3, 11);
        let p = a.pattern().symmetrize();
        let parent = elimination_tree(&p);
        let post = postorder(&parent);
        // post is a permutation.
        let mut seen = [false; 60];
        for &v in &post {
            assert!(!seen[v]);
            seen[v] = true;
        }
        let relabeled = relabel_parent(&parent, &post);
        assert!(is_topological(&relabeled));
        // Relabeling preserves the tree shape: the parent of post[k] maps
        // to the relabeled parent of k.
        let mut inv = vec![0usize; 60];
        for (new, &old) in post.iter().enumerate() {
            inv[old] = new;
        }
        for new_j in 0..60 {
            let old_j = post[new_j];
            if parent[old_j] == NO_PARENT {
                assert_eq!(relabeled[new_j], NO_PARENT);
            } else {
                assert_eq!(relabeled[new_j], inv[parent[old_j]]);
            }
        }
    }

    #[test]
    fn postorder_handles_forest() {
        // Two independent chains (block-diagonal pattern).
        let entries = vec![(0usize, 0usize), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)];
        let p = SparsityPattern::from_entries(4, 4, entries).symmetrize();
        let parent = elimination_tree(&p);
        assert_eq!(parent, vec![1, NO_PARENT, 3, NO_PARENT]);
        assert_eq!(postorder(&parent), [0, 1, 2, 3]);
        // Children in ascending order, each subtree before the next child.
        assert_eq!(postorder(&[2, 4, 4, 2, NO_PARENT]), [1, 0, 3, 2, 4]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 50_000-vertex path: recursion would blow the stack.
        let n = 50_000;
        let entries: Vec<(usize, usize)> = (0..n - 1).map(|i| (i + 1, i)).collect();
        let p = SparsityPattern::from_entries(n, n, entries).symmetrize();
        let parent = elimination_tree(&p);
        let post = postorder(&parent);
        assert_eq!(post.len(), n);
        assert!(is_topological(&relabel_parent(&parent, &post)));
    }
}
