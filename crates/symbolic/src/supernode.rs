//! Supernode detection, supernodal row structures, and amalgamation.
//!
//! A supernode is a maximal range of consecutive columns sharing the same
//! below-diagonal structure; each becomes a *panel* (tall skinny dense
//! block) of the factor. The amalgamation step (He´non-Ramet-Roman \[25\] in
//! the paper) merges small supernodes into their parent, accepting bounded
//! extra fill-in: "the default parameter for amalgamation has been slightly
//! increased to allow up to 12% more fill-in to build larger blocks" (§V).
//!
//! Amalgamation needs no row list. On a postordered elimination tree
//! `struct(j) ∖ {parent(j)} ⊆ struct(parent(j))`, and a group of merged
//! supernodes is a connected subtree topped by its last column, so the rows
//! below a group are its *root* supernode's, `cc[last column] − 1` of them
//! (the subset lemma). [`amalgamate_counts`] merges on column counts alone
//! and [`build_partition`] then builds one row list per final group.

use crate::etree::NO_PARENT;
use dagfact_sparse::SparsityPattern;

/// Options controlling supernode amalgamation.
#[derive(Debug, Clone)]
pub struct AmalgamationOptions {
    /// Global extra-fill budget, as a fraction of the un-amalgamated
    /// factor nnz. The paper raises the default "to allow up to 12% more
    /// fill-in to build larger blocks" for the GPUs (§V).
    pub fill_ratio: f64,
    /// Merges producing a panel at most this wide are free (don't draw
    /// from the budget): panels below this width make tasks too small for
    /// any scheduler, so they are coalesced unconditionally.
    pub min_width: usize,
}

impl Default for AmalgamationOptions {
    fn default() -> Self {
        AmalgamationOptions {
            fill_ratio: 0.12,
            min_width: 8,
        }
    }
}

/// A supernode partition of the columns `0..n`, with per-supernode row
/// structures: `rows[s]` lists the factor rows *below* the supernode's own
/// columns (sorted, global indices).
#[derive(Debug, Clone)]
pub struct SupernodePartition {
    /// First column of each supernode, ascending; an extra terminal entry
    /// equals `n` so `cols(s) = first[s]..first[s+1]`.
    pub first: Vec<usize>,
    /// `snode_of[j]`: supernode containing column `j`.
    pub snode_of: Vec<usize>,
    /// Below-diagonal row structure of each supernode.
    pub rows: Vec<Vec<usize>>,
    /// Supernode-tree parent (the supernode of the parent of the last
    /// column), `NO_PARENT` for roots.
    pub parent: Vec<usize>,
}

impl SupernodePartition {
    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// `true` when the partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column range of supernode `s`.
    pub fn cols(&self, s: usize) -> core::ops::Range<usize> {
        self.first[s]..self.first[s + 1]
    }

    /// Width (number of columns) of supernode `s` (BOUNDS: `s < len()`;
    /// `first` has `len() + 1` entries).
    pub fn width(&self, s: usize) -> usize {
        self.first[s + 1] - self.first[s]
    }

    /// nnz(L) under this partition. Saturates instead of wrapping on
    /// degenerate partitions.
    pub fn nnz_factor(&self) -> usize {
        (0..self.len()).fold(0usize, |acc, s| {
            acc.saturating_add(panel_nnz(self.width(s), self.rows[s].len()))
        })
    }
}

/// nnz of a dense panel of width `w` with `r` rows below it: `w·(w+1)/2`
/// diagonal-block entries plus `w·r`. Checked arithmetic: a pathological
/// partition (widths near the usize range) must price as "infinitely
/// expensive" instead of wrapping and looking cheap.
fn panel_nnz(w: usize, r: usize) -> usize {
    let tri = w
        .checked_add(1)
        .and_then(|w1| w.checked_mul(w1))
        .map(|x| x / 2);
    tri.and_then(|t| w.checked_mul(r).and_then(|wr| t.checked_add(wr)))
        .unwrap_or(usize::MAX)
}

/// The entries of a sorted list that are `>= bound`.
fn at_or_beyond(sorted: &[usize], bound: usize) -> &[usize] {
    &sorted[sorted.partition_point(|&i| i < bound)..]
}

/// Detect *fundamental-style* supernodes from the elimination tree and
/// column counts: columns `j` and `j+1` share a supernode iff
/// `parent[j] == j+1` and `cc[j+1] == cc[j] - 1` (then
/// `struct(j+1) = struct(j) ∖ {j}`). Requires a topologically-labeled
/// (postordered) tree. An empty tree has no supernode: `[0]`.
pub fn detect_supernodes(parent: &[usize], cc: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut first = vec![0usize];
    for j in 1..n {
        let fused = parent[j - 1] == j && cc[j] + 1 == cc[j - 1];
        if !fused {
            first.push(j);
        }
    }
    if n > 0 {
        first.push(n);
    }
    first
}

/// Build the full partition of the supernodes (or [`amalgamate_counts`]
/// groups) `first`: row structures via bottom-up merging (children
/// structures minus own columns, union the original pattern columns), and
/// the supernode tree.
pub fn build_partition(
    pattern: &SparsityPattern,
    parent: &[usize],
    first: Vec<usize>,
) -> SupernodePartition {
    let n = pattern.ncols();
    let nsup = first.len() - 1;
    let mut snode_of = vec![0usize; n];
    for s in 0..nsup {
        snode_of[first[s]..first[s + 1]].fill(s);
    }
    // Supernode-tree parent: parent of the last column.
    let mut sparent = vec![NO_PARENT; nsup];
    for s in 0..nsup {
        let last = first[s + 1] - 1;
        if parent[last] != NO_PARENT {
            sparent[s] = snode_of[parent[last]];
        }
    }
    // Row structures bottom-up. The tree is topologically labeled, so a
    // simple ascending sweep visits children before parents: when it
    // reaches `s`, `rows[s]` holds what the children of `s` passed up.
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); nsup];
    for s in 0..nsup {
        let lc = first[s + 1];
        // Original pattern entries below the supernode.
        for j in first[s]..lc {
            rows[s].extend_from_slice(at_or_beyond(pattern.col(j), lc));
        }
        rows[s].sort_unstable();
        rows[s].dedup();
        // What the children passed up overlaps, and these lists live until
        // the block structure is built: give the slack back now.
        rows[s].shrink_to_fit();
        // Rows of s that lie beyond the parent's columns flow into the
        // parent's structure; rows inside the parent's columns are
        // absorbed by the parent's diagonal block.
        if sparent[s] != NO_PARENT {
            let p = sparent[s];
            let (below, above) = rows.split_at_mut(p);
            above[0].extend_from_slice(at_or_beyond(&below[s], first[p + 1]));
        }
    }
    SupernodePartition { first, snode_of, rows, parent: sparent }
}

/// The groups of merged supernodes while [`merge_groups`] runs, indexed by
/// the group's *root* supernode id (its last one).
struct Groups {
    /// Column range `first[g]..last[g]` of a live group; `last` never
    /// changes for one.
    first: Vec<usize>,
    last: Vec<usize>,
    /// Rows below each supernode: by the subset lemma, below its group.
    nrows: Vec<usize>,
    nnz: Vec<usize>,
    /// The un-amalgamated supernode tree.
    parent: Vec<usize>,
    /// Union-find link; `merged_into[s] == s` for a live group.
    merged_into: Vec<usize>,
}

impl Groups {
    fn find(&mut self, mut s: usize) -> usize {
        while self.merged_into[s] != s {
            self.merged_into[s] = self.merged_into[self.merged_into[s]];
            s = self.merged_into[s];
        }
        s
    }

    /// Extra fill of merging child group `c` into the contiguous parent
    /// group `p`: the merged panel keeps the rows of `p`.
    fn price(&self, c: usize, p: usize) -> i64 {
        let new_nnz = panel_nnz(self.last[p] - self.first[c], self.nrows[p]);
        let old_nnz = self.nnz[c].saturating_add(self.nnz[p]);
        let signed = |x: usize| i64::try_from(x).unwrap_or(i64::MAX);
        signed(new_nnz).saturating_sub(signed(old_nnz))
    }

    /// Extra fill of the merge of group `s` into its parent group, if the
    /// two are contiguous.
    fn candidate(&mut self, s: usize) -> Option<i64> {
        if self.parent[s] == NO_PARENT {
            return None;
        }
        let p = self.find(self.parent[s]);
        if p == s || self.first[p] != self.last[s] {
            return None;
        }
        Some(self.price(s, p))
    }
}

/// Binary min-heap of the candidate merges, at most one per group, keyed by
/// `(extra fill, group)`, with the heap position of every group so that a
/// group's key changes in place.
struct Candidates {
    heap: Vec<(i64, usize)>,
    /// `NO_PARENT` for a group without a candidate.
    at: Vec<usize>,
}

impl Candidates {
    /// Give group `s` the candidate `fill`, or none.
    fn set(&mut self, s: usize, fill: Option<i64>) {
        match (self.at[s], fill) {
            (NO_PARENT, None) => {}
            (NO_PARENT, Some(fill)) => {
                self.heap.push((fill, s));
                self.at[s] = self.heap.len() - 1;
                self.up(self.heap.len() - 1);
            }
            (i, Some(fill)) => {
                self.heap[i].0 = fill;
                let i = self.up(i);
                self.down(i);
            }
            (i, None) => {
                self.take(i);
            }
        }
    }

    fn pop(&mut self) -> Option<(i64, usize)> {
        (!self.heap.is_empty()).then(|| self.take(0))
    }

    /// Remove and return the entry at heap position `i`.
    fn take(&mut self, i: usize) -> (i64, usize) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        #[allow(clippy::expect_used)] // position i is in the heap
        let entry = self.heap.pop().expect("the heap holds position i");
        self.at[entry.1] = NO_PARENT;
        if i < self.heap.len() {
            let i = self.up(i);
            self.down(i);
        }
        entry
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        (self.at[self.heap[i].1], self.at[self.heap[j].1]) = (i, j);
    }

    /// Sift position `i` up; returns where it ends.
    fn up(&mut self, mut i: usize) -> usize {
        while i > 0 && self.heap[i] < self.heap[(i - 1) / 2] {
            self.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
        i
    }

    fn down(&mut self, mut i: usize) {
        loop {
            let children = [2 * i + 1, 2 * i + 2].into_iter().filter(|&c| c < self.heap.len());
            match children.min_by_key(|&c| self.heap[c]) {
                Some(c) if self.heap[c] < self.heap[i] => {
                    self.swap(i, c);
                    i = c;
                }
                _ => return,
            }
        }
    }
}

/// The merge loop of Hénon-Ramet-Roman \[25\] over the supernodes with
/// column boundaries `first`, `nrows[s]` rows below supernode `s` and tree
/// `parent`: repeatedly apply the *cheapest* child→parent merge (smallest
/// extra fill, then smallest group) while the total extra fill stays
/// within `fill_ratio` of the original factor nnz. A merge requires the
/// parent's columns to start right after the child's so the merged panel
/// stays contiguous. Returns the root supernode of every final group,
/// ascending.
///
/// A group's extra fill changes only when it or its parent group takes
/// part in a merge, and both are re-priced then: the group that absorbed,
/// and the group that now abuts it from below (the absorbed group's
/// contiguous child). So the heap holds every candidate at its current
/// price and each pop is a merge to make or one the budget refuses.
///
/// Cheapest-first with a global budget concentrates the allowance on the
/// tiny supernodes at the bottom of the tree (the ones whose tasks would
/// otherwise be too small for any runtime — and far too small for a GPU,
/// §V), which is exactly how PaStiX uses it.
fn merge_groups(
    first: &[usize],
    nrows: Vec<usize>,
    parent: Vec<usize>,
    options: &AmalgamationOptions,
) -> Vec<usize> {
    let nsup = nrows.len();
    let n = first[nsup];
    let nnz: Vec<usize> = (0..nsup).map(|s| panel_nnz(first[s + 1] - first[s], nrows[s])).collect();
    let total_orig: usize = nnz.iter().fold(0usize, |a, &x| a.saturating_add(x));
    let mut budget = (options.fill_ratio * total_orig as f64) as i64;
    let (first, last) = (first[..nsup].to_vec(), first[1..].to_vec());
    let merged_into = (0..nsup).collect();
    let mut g = Groups { first, last, nrows, nnz, parent, merged_into };

    let mut candidates = Candidates { heap: Vec::with_capacity(nsup), at: vec![NO_PARENT; nsup] };
    for s in 0..nsup {
        let fill = g.candidate(s);
        candidates.set(s, fill);
    }
    // Live group ending at a given column: used to discover children whose
    // contiguity with a grown parent group only becomes true after a merge.
    let mut ending_at = vec![NO_PARENT; n + 1];
    for s in 0..nsup {
        ending_at[g.last[s]] = s;
    }

    while let Some((fill, s)) = candidates.pop() {
        let p = g.find(g.parent[s]);
        debug_assert_eq!(fill, g.price(s, p), "a candidate kept a stale price");
        // Tiny groups may always merge (their absolute fill is small and
        // the resulting task would otherwise be un-schedulable); larger
        // merges draw from the global budget.
        let w = g.last[p] - g.first[s];
        let tiny = w <= options.min_width;
        if !tiny && fill > budget {
            continue; // too expensive now; re-priced if its parent grows
        }
        if !tiny {
            budget -= fill.max(0);
        }
        // Commit the merge: p absorbs s and keeps its own rows.
        g.nnz[p] = panel_nnz(w, g.nrows[p]);
        g.first[p] = g.first[s];
        g.merged_into[s] = p;
        ending_at[g.last[s]] = NO_PARENT;
        // Re-price the merged group into *its* parent, and the group that
        // now abuts p from below (if its tree parent resolves to p).
        let fill = g.candidate(p);
        candidates.set(p, fill);
        let below = ending_at[g.first[p]];
        if below != NO_PARENT {
            let fill = g.candidate(below);
            candidates.set(below, fill);
        }
    }
    (0..nsup).filter(|&s| g.merged_into[s] == s).collect()
}

/// Column boundaries of the groups rooted at `roots` (each ends with its root).
fn group_boundaries(first: &[usize], roots: &[usize]) -> Vec<usize> {
    std::iter::once(0).chain(roots.iter().map(|&r| first[r + 1])).collect()
}

/// Amalgamation before any row list exists: the merge loop on the
/// supernodes `first` of [`detect_supernodes`], priced from the column
/// counts `cc` of the same postordered tree `parent` (the subset lemma).
/// Returns the group boundaries; [`build_partition`] on them equals
/// [`amalgamate`] of the fundamental partition.
pub fn amalgamate_counts(
    parent: &[usize],
    cc: &[usize],
    first: &[usize],
    options: &AmalgamationOptions,
) -> Vec<usize> {
    let ends = &first[1..];
    let nrows = ends.iter().map(|&e| cc[e - 1] - 1).collect();
    let supernode_of = |j: usize| first.partition_point(|&f| f <= j) - 1;
    let sparent = ends.iter().map(|&e| parent[e - 1]);
    let sparent = sparent.map(|p| if p == NO_PARENT { p } else { supernode_of(p) }).collect();
    group_boundaries(first, &merge_groups(first, nrows, sparent, options))
}

/// Amalgamation of a built partition: the merge loop priced from its row
/// list lengths; each final group keeps its root's list. Precondition:
/// `partition` is [`build_partition`]'s over a postordered elimination
/// tree, so that the subset lemma (module docs) holds — checked in debug.
pub fn amalgamate(
    partition: SupernodePartition,
    options: &AmalgamationOptions,
) -> SupernodePartition {
    let SupernodePartition { first, mut rows, parent, mut snode_of } = partition;
    let roots = merge_groups(&first, rows.iter().map(Vec::len).collect(), parent, options);
    debug_assert!(rows_nest(&first, &rows, &roots), "a member's rows escape its root's");
    let rows: Vec<Vec<usize>> = roots.iter().map(|&r| std::mem::take(&mut rows[r])).collect();
    let first = group_boundaries(&first, &roots);
    for (new_s, w) in first.windows(2).enumerate() {
        snode_of[w[0]..w[1]].fill(new_s);
    }
    // The supernode tree of the groups: parent = group of the smallest row
    // (first ancestor receiving an update), NO_PARENT for top groups.
    let parent = rows.iter().map(|r| r.first().map_or(NO_PARENT, |&i| snode_of[i])).collect();
    SupernodePartition { first, snode_of, rows, parent }
}

/// The subset lemma on a finished merge: the rows of every member beyond
/// its group are rows of the group's root.
fn rows_nest(first: &[usize], rows: &[Vec<usize>], roots: &[usize]) -> bool {
    let starts = std::iter::once(0).chain(roots.iter().map(|&r| r + 1));
    roots.iter().zip(starts).all(|(&r, start)| {
        let in_root = |i: &usize| rows[r].binary_search(i).is_ok();
        (start..r).all(|s| at_or_beyond(&rows[s], first[r + 1]).iter().all(in_root))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use crate::counts::column_counts;
    use crate::etree::{elimination_tree, is_topological, postorder, relabel_parent};
    use dagfact_sparse::gen::{grid_laplacian_2d, random_spd};

    fn prepared(pattern: &SparsityPattern) -> (SparsityPattern, Vec<usize>, Vec<usize>) {
        let sym = pattern.symmetrize();
        let parent = elimination_tree(&sym);
        let post = postorder(&parent);
        let mut perm = vec![0usize; post.len()];
        for (new, &old) in post.iter().enumerate() {
            perm[old] = new;
        }
        let permuted = sym.permute_symmetric(&perm);
        let parent2 = relabel_parent(&parent, &post);
        assert!(is_topological(&parent2));
        let (cc, _) = column_counts(&permuted, &parent2);
        (permuted, parent2, cc)
    }

    /// struct(L[:, j]) from dense symbolic factorization (diag excluded).
    fn naive_struct_below(pattern: &SparsityPattern) -> Vec<Vec<usize>> {
        let n = pattern.ncols();
        let mut cols: Vec<Vec<bool>> = vec![vec![false; n]; n];
        for j in 0..n {
            for &i in pattern.col(j) {
                if i > j {
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
        cols.into_iter()
            .map(|c| c.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect())
            .collect()
    }

    #[test]
    fn partition_covers_columns_contiguously() {
        let a = grid_laplacian_2d(7, 7);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        assert_eq!(*part.first.first().unwrap(), 0);
        assert_eq!(*part.first.last().unwrap(), 49);
        for s in 0..part.len() {
            assert!(part.width(s) >= 1);
            for j in part.cols(s) {
                assert_eq!(part.snode_of[j], s);
            }
        }
    }

    #[test]
    fn supernode_structures_match_naive_symbolic() {
        for seed in [1u64, 9, 23] {
            let a = random_spd(30, 3, seed);
            let (p, parent, cc) = prepared(a.pattern());
            let first = detect_supernodes(&parent, &cc);
            let part = build_partition(&p, &parent, first);
            let naive = naive_struct_below(&p);
            for s in 0..part.len() {
                let fc = part.cols(s).start;
                let lc = part.cols(s).end;
                // struct of the FIRST column below the supernode's columns
                // must equal the supernode's row list.
                let expect: Vec<usize> =
                    naive[fc].iter().copied().filter(|&i| i >= lc).collect();
                assert_eq!(part.rows[s], expect, "seed {seed} snode {s}");
            }
        }
    }

    #[test]
    fn nnz_factor_matches_column_counts() {
        let a = grid_laplacian_2d(8, 6);
        let (p, parent, cc) = prepared(a.pattern());
        let nnz_cc: usize = cc.iter().sum();
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        assert_eq!(part.nnz_factor(), nnz_cc);
    }

    #[test]
    fn amalgamation_reduces_supernode_count_with_bounded_fill() {
        let a = grid_laplacian_2d(12, 12);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        let nnz0 = part.nnz_factor();
        let count0 = part.len();
        let opts = AmalgamationOptions {
            fill_ratio: 0.12,
            min_width: 4,
        };
        let merged = amalgamate(part, &opts);
        assert!(merged.len() < count0, "no merge happened");
        // Every column still covered, tree still topological on snodes.
        assert_eq!(*merged.first.last().unwrap(), 144);
        for s in 0..merged.len() {
            if merged.parent[s] != NO_PARENT {
                assert!(merged.parent[s] > s, "snode tree not topological");
            }
        }
        // Fill growth respects a loose global bound (per-merge bound is
        // 12%, but min-width merges may add a bit more).
        let nnz1 = merged.nnz_factor();
        assert!(nnz1 >= nnz0);
        assert!(
            (nnz1 as f64) < 2.0 * nnz0 as f64,
            "unreasonable fill growth: {nnz0} -> {nnz1}"
        );
    }

    #[test]
    fn amalgamated_rows_are_the_union_of_the_members_rows() {
        for (seed, fill_ratio, min_width) in [(5u64, 0.12, 8), (6, 0.0, 4), (7, 1.0, 1), (8, 0.3, 16)] {
            let a = random_spd(120, 3, seed);
            let (p, parent, cc) = prepared(a.pattern());
            let part = build_partition(&p, &parent, detect_supernodes(&parent, &cc));
            let merged = amalgamate(part.clone(), &AmalgamationOptions { fill_ratio, min_width });
            assert!(merged.len() < part.len(), "seed {seed}: no merge happened");
            for g in 0..merged.len() {
                let cols = merged.cols(g);
                let members = part.snode_of[cols.start]..=part.snode_of[cols.end - 1];
                let mut expect: Vec<usize> = members
                    .flat_map(|s| part.rows[s].iter().copied())
                    .filter(|&i| i >= cols.end)
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                assert_eq!(merged.rows[g], expect, "seed {seed} group {g}");
            }
        }
    }

    /// Walk the union of two sorted, duplicate-free lists in ascending order.
    fn for_each_in_union(a: &[usize], b: &[usize], mut f: impl FnMut(usize)) {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            f(x.min(y));
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        a[i..].iter().chain(&b[j..]).for_each(|&x| f(x));
    }

    #[test]
    fn union_walk_visits_each_value_once_in_order() {
        let collect = |a: &[usize], b: &[usize]| {
            let mut out = Vec::new();
            for_each_in_union(a, b, |x| out.push(x));
            out
        };
        assert_eq!(collect(&[1, 4, 6], &[0, 4, 5, 9]), [0, 1, 4, 5, 6, 9]);
        assert_eq!(collect(&[], &[2, 3]), [2, 3]);
        assert_eq!(collect(&[2, 3], &[]), [2, 3]);
        assert_eq!(collect(&[7], &[7]), [7]);
    }

    /// The union-walk amalgamation, kept as the reference: every candidate
    /// is priced by walking the child's rows beyond the parent group and the
    /// parent's rows once, and a commit materializes the merged list. It
    /// assumes nothing about how the row lists nest.
    fn reference_amalgamate(
        partition: SupernodePartition,
        options: &AmalgamationOptions,
    ) -> SupernodePartition {
        struct Groups {
            first: Vec<usize>,
            last: Vec<usize>,
            rows: Vec<Vec<usize>>,
            nnz: Vec<usize>,
            parent: Vec<usize>,
            merged_into: Vec<usize>,
            generation: Vec<u32>,
        }
        impl Groups {
            fn find(&mut self, mut s: usize) -> usize {
                while self.merged_into[s] != s {
                    s = self.merged_into[s];
                }
                s
            }
            fn rows_below(&self, c: usize, p: usize) -> &[usize] {
                at_or_beyond(&self.rows[c], self.last[p])
            }
            fn price(&self, c: usize, p: usize) -> (i64, usize) {
                let mut merged = 0usize;
                for_each_in_union(self.rows_below(c, p), &self.rows[p], |_| merged += 1);
                let new_nnz = panel_nnz(self.last[p] - self.first[c], merged);
                let old_nnz = self.nnz[c].saturating_add(self.nnz[p]);
                (new_nnz as i64 - old_nnz as i64, merged)
            }
            fn candidate(&mut self, s: usize) -> Option<Reverse<(i64, usize, u32, u32)>> {
                if self.parent[s] == NO_PARENT {
                    return None;
                }
                let p = self.find(self.parent[s]);
                let contiguous = p != s && self.first[p] == self.last[s];
                let (gen_s, gen_p) = (self.generation[s], self.generation[p]);
                contiguous.then(|| Reverse((self.price(s, p).0, s, gen_s, gen_p)))
            }
        }
        let nsup = partition.len();
        let n = partition.snode_of.len();
        let nnz_of = |s: usize| panel_nnz(partition.width(s), partition.rows[s].len());
        let nnz: Vec<usize> = (0..nsup).map(nnz_of).collect();
        let mut budget = (options.fill_ratio * nnz.iter().sum::<usize>() as f64) as i64;
        let SupernodePartition { mut first, rows, parent, .. } = partition;
        let last = first[1..].to_vec();
        first.truncate(nsup);
        let (merged_into, generation) = ((0..nsup).collect(), vec![0; nsup]);
        let mut g = Groups { first, last, rows, nnz, parent, merged_into, generation };
        let mut heap = std::collections::BinaryHeap::new();
        for s in 0..nsup {
            heap.extend(g.candidate(s));
        }
        let mut ending_at = vec![NO_PARENT; n + 1];
        for s in 0..nsup {
            ending_at[g.last[s]] = s;
        }
        while let Some(Reverse((fill, s, gen_s, _))) = heap.pop() {
            if g.merged_into[s] != s || g.generation[s] != gen_s {
                continue;
            }
            let p = g.find(g.parent[s]);
            if p == s || g.first[p] != g.last[s] {
                continue;
            }
            let (fill_now, merged_len) = g.price(s, p);
            if fill_now > fill {
                heap.push(Reverse((fill_now, s, g.generation[s], g.generation[p])));
                continue;
            }
            let w = g.last[p] - g.first[s];
            let tiny = w <= options.min_width;
            if !tiny && fill_now > budget {
                continue;
            }
            if !tiny {
                budget -= fill_now.max(0);
            }
            let mut merged = Vec::with_capacity(merged_len);
            for_each_in_union(g.rows_below(s, p), &g.rows[p], |i| merged.push(i));
            g.rows[s] = Vec::new();
            g.nnz[p] = panel_nnz(w, merged_len);
            g.rows[p] = merged;
            g.first[p] = g.first[s];
            g.merged_into[s] = p;
            g.generation[p] += 1;
            ending_at[g.last[s]] = NO_PARENT;
            heap.extend(g.candidate(p));
            let below = ending_at[g.first[p]];
            if below != NO_PARENT {
                heap.extend(g.candidate(below));
            }
        }
        let live: Vec<usize> = (0..nsup).filter(|&s| g.merged_into[s] == s).collect();
        let mut first: Vec<usize> = live.iter().map(|&s| g.first[s]).collect();
        first.push(n);
        let rows: Vec<Vec<usize>> = live.iter().map(|&s| std::mem::take(&mut g.rows[s])).collect();
        let mut snode_of = vec![0usize; n];
        for (new_s, w) in first.windows(2).enumerate() {
            snode_of[w[0]..w[1]].fill(new_s);
        }
        let parent = rows.iter().map(|r| r.first().map_or(NO_PARENT, |&i| snode_of[i])).collect();
        SupernodePartition { first, snode_of, rows, parent }
    }

    fn assert_same(got: &SupernodePartition, expect: &SupernodePartition, what: &str) {
        assert_eq!(got.first, expect.first, "{what}: first");
        assert_eq!(got.rows, expect.rows, "{what}: rows");
        assert_eq!(got.parent, expect.parent, "{what}: parent");
        assert_eq!(got.snode_of, expect.snode_of, "{what}: snode_of");
    }

    #[test]
    fn both_amalgamation_paths_equal_the_union_walk_reference() {
        use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d};
        let nd = |a: &dagfact_sparse::CscMatrix<f64>| {
            let order = dagfact_order::compute_ordering(
                &a.pattern().symmetrize(),
                dagfact_order::OrderingKind::NestedDissection,
            );
            a.pattern().symmetrize().permute_symmetric(order.perm())
        };
        let mut patterns = vec![
            ("grid 2d", grid_laplacian_2d(23, 17).pattern().clone()),
            ("grid 2d, nd", nd(&grid_laplacian_2d(30, 30))),
            ("grid 3d, nd", nd(&grid_laplacian_3d(9, 8, 7))),
            ("shell, nd", nd(&convection_diffusion_3d(24, 24, 3, 0.3))),
        ];
        for seed in 0..8u64 {
            let (n, per_col) = (150 + 40 * seed as usize, 1 + seed as usize % 4);
            patterns.push(("random", random_spd(n, per_col, seed).pattern().clone()));
            patterns.push(("random, nd", nd(&random_spd(200, 3, 100 + seed))));
        }
        // The settings the other tests use, and the corners around them.
        let settings =
            [(0.12, 8), (0.0, 4), (1.0, 1), (0.3, 16), (0.0, 1), (0.05, 0), (0.12, 4), (2.0, 32)];
        let mut merged = 0;
        for (name, pattern) in &patterns {
            let (p, parent, cc) = prepared(pattern);
            let fundamental = detect_supernodes(&parent, &cc);
            let part = build_partition(&p, &parent, fundamental.clone());
            for (fill_ratio, min_width) in settings {
                let options = AmalgamationOptions { fill_ratio, min_width };
                let what = format!("{name}, n = {}, {options:?}", p.ncols());
                let expect = reference_amalgamate(part.clone(), &options);
                assert_same(&amalgamate(part.clone(), &options), &expect, &what);
                let first = amalgamate_counts(&parent, &cc, &fundamental, &options);
                assert_same(&build_partition(&p, &parent, first), &expect, &what);
                merged += part.len() - expect.len();
            }
        }
        assert!(merged > 10_000, "only {merged} merges exercised");
    }

    #[test]
    fn empty_and_single_column_patterns() {
        for n in [0, 1] {
            let a = grid_laplacian_2d(n, n.min(1));
            let (p, parent, cc) = prepared(a.pattern());
            let first = detect_supernodes(&parent, &cc);
            assert_eq!(first.len(), n + 1, "n = {n}: {first:?}");
            let options = AmalgamationOptions::default();
            let counts_first = amalgamate_counts(&parent, &cc, &first, &options);
            let part = build_partition(&p, &parent, first);
            let merged = amalgamate(part.clone(), &options);
            assert_eq!(merged.len(), n);
            assert_eq!(counts_first, merged.first);
            assert_same(&merged, &reference_amalgamate(part, &options), "tiny");
        }
    }

    #[test]
    fn zero_ratio_amalgamation_only_merges_tiny_snodes() {
        let a = random_spd(40, 3, 5);
        let (p, parent, cc) = prepared(a.pattern());
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&p, &parent, first);
        let nnz0 = part.nnz_factor();
        let merged = amalgamate(
            part,
            &AmalgamationOptions {
                fill_ratio: 0.0,
                min_width: 1,
            },
        );
        // ratio 0 + min_width 1 accepts only zero-fill merges.
        assert_eq!(merged.nnz_factor(), nnz0);
    }

    use dagfact_sparse::SparsityPattern;
}
