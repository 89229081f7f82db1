//! Proportional mapping of the panel tree onto distributed nodes.
//!
//! PaStiX's distributed layer assigns each subtree of the elimination tree
//! to a group of nodes in proportion to its workload (the classic
//! proportional-mapping strategy behind its "two-level approach using …
//! MPI between different nodes", §I). This module implements that mapping
//! for the *panel* tree; `dagfact-core` uses it for the fan-in
//! communication study of the paper's future work ("this is called
//! 'fan-in' approach \[32\]", §VI).

use crate::cost::TaskCosts;
use crate::structure::SymbolMatrix;

/// Assignment of panels to `nnodes` distributed nodes.
#[derive(Debug, Clone)]
pub struct NodeMapping {
    /// Owning node of each panel.
    pub node_of: Vec<usize>,
    /// Number of nodes.
    pub nnodes: usize,
    /// Total 1D work assigned to each node.
    pub work: Vec<f64>,
}

/// Proportionally map the panel tree onto `nnodes` nodes: starting from
/// the roots with the full node set, each subtree recursively receives a
/// contiguous node range sized by its share of the work; once a subtree's
/// range narrows to one node, the whole subtree lands there. Panels above
/// the split points (the top separators) go to the first node of their
/// range, mirroring PaStiX's candidate-set narrowing.
pub fn proportional_mapping(
    symbol: &SymbolMatrix,
    costs: &TaskCosts,
    nnodes: usize,
) -> NodeMapping {
    assert!(nnodes >= 1);
    let ncblk = symbol.ncblk();
    // Children lists of the panel tree.
    let parent: Vec<Option<usize>> = (0..ncblk)
        .map(|c| symbol.off_blocks(c).first().map(|b| b.facing))
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); ncblk];
    let mut roots: Vec<usize> = Vec::new();
    for (c, &par) in parent.iter().enumerate() {
        match par {
            Some(p) => children[p].push(c),
            None => roots.push(c),
        }
    }
    // Subtree work (ascending sweep: children first).
    let mut subtree = vec![0.0f64; ncblk];
    for c in 0..ncblk {
        subtree[c] += costs.task_1d(symbol, c);
        if let Some(p) = parent[c] {
            let w = subtree[c];
            subtree[p] += w;
        }
    }
    let mut node_of = vec![0usize; ncblk];
    let mut work = vec![0.0f64; nnodes];
    // Descend with explicit stack of (panel, node range).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new(); // (panel, first, last_excl)
    {
        // Distribute the forest roots over the full range by work share.
        let total: f64 = roots.iter().map(|&r| subtree[r]).sum();
        let mut cursor = 0.0f64;
        for &r in &roots {
            let lo = ((cursor / total.max(f64::MIN_POSITIVE)) * nnodes as f64) as usize;
            cursor += subtree[r];
            let hi = (((cursor / total.max(f64::MIN_POSITIVE)) * nnodes as f64).ceil() as usize)
                .clamp(lo + 1, nnodes);
            stack.push((r, lo.min(nnodes - 1), hi));
        }
    }
    while let Some((c, lo, hi)) = stack.pop() {
        debug_assert!(lo < hi);
        // A panel whose candidate range spans several nodes (a top
        // separator) goes to the currently least-loaded candidate — the
        // greedy balance PaStiX applies within candidate sets.
        #[allow(clippy::unwrap_used)] // lo < hi, and the loads are never NaN
        let target = (lo..hi)
            .min_by(|&a, &b| work[a].partial_cmp(&work[b]).unwrap())
            .unwrap();
        node_of[c] = target;
        work[target] += costs.task_1d(symbol, c);
        if hi - lo == 1 {
            // Whole subtree on one node: flood-fill without recursion depth
            // issues.
            let mut sub = children[c].clone();
            while let Some(d) = sub.pop() {
                node_of[d] = target;
                work[target] += costs.task_1d(symbol, d);
                sub.extend_from_slice(&children[d]);
            }
            continue;
        }
        // Split the node range among the children by work share.
        let total: f64 = children[c].iter().map(|&d| subtree[d]).sum();
        if total <= 0.0 {
            continue;
        }
        let span = (hi - lo) as f64;
        let mut cursor = 0.0f64;
        for &d in &children[c] {
            let start = lo + ((cursor / total) * span) as usize;
            cursor += subtree[d];
            let end = (lo + ((cursor / total) * span).ceil() as usize).clamp(start + 1, hi);
            stack.push((d, start.min(hi - 1), end));
        }
    }
    NodeMapping {
        node_of,
        nnodes,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::counts::column_counts;
    use crate::etree::{elimination_tree, postorder, relabel_parent};
    use crate::structure::{SplitOptions, SymbolMatrix};
    use crate::supernode::{amalgamate, build_partition, detect_supernodes, AmalgamationOptions};
    use crate::FactoKind;
    use dagfact_sparse::gen::grid_laplacian_3d;

    fn symbol() -> SymbolMatrix {
        let a = grid_laplacian_3d(12, 12, 12);
        let nd = dagfact_order::compute_ordering(
            a.pattern(),
            dagfact_order::OrderingKind::NestedDissection,
        );
        let sym = a.pattern().symmetrize().permute_symmetric(nd.perm());
        let parent = elimination_tree(&sym);
        let post = postorder(&parent);
        let mut perm = vec![0usize; post.len()];
        for (new, &old) in post.iter().enumerate() {
            perm[old] = new;
        }
        let permuted = sym.permute_symmetric(&perm);
        let parent = relabel_parent(&parent, &post);
        let (cc, _) = column_counts(&permuted, &parent);
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&permuted, &parent, first);
        let part = amalgamate(part, &AmalgamationOptions::default());
        SymbolMatrix::from_partition(&part, &SplitOptions::default())
    }

    #[test]
    fn single_node_owns_everything() {
        let s = symbol();
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        let map = proportional_mapping(&s, &costs, 1);
        assert!(map.node_of.iter().all(|&n| n == 0));
        assert!((map.work[0] - (0..s.ncblk()).map(|c| costs.task_1d(&s, c)).sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn work_is_roughly_balanced() {
        let s = symbol();
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        for nnodes in [2usize, 4, 8] {
            let map = proportional_mapping(&s, &costs, nnodes);
            let total: f64 = map.work.iter().sum();
            let mean = total / nnodes as f64;
            for (node, &w) in map.work.iter().enumerate() {
                assert!(
                    w > 0.05 * mean && w < 4.0 * mean,
                    "{nnodes} nodes: node {node} has work {w} vs mean {mean}"
                );
            }
        }
    }

    #[test]
    fn subtrees_stay_together_once_range_narrows() {
        let s = symbol();
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        let map = proportional_mapping(&s, &costs, 4);
        // Every panel's owner must be a valid node.
        assert!(map.node_of.iter().all(|&n| n < 4));
        // Locality proxy: most tree edges stay on one node (subtree
        // assignment), far more than a random mapping would give (~75%
        // cross-node at 4 nodes).
        let mut same = 0usize;
        let mut cross = 0usize;
        for c in 0..s.ncblk() {
            if let Some(b) = s.off_blocks(c).first() {
                if map.node_of[c] == map.node_of[b.facing] {
                    same += 1;
                } else {
                    cross += 1;
                }
            }
        }
        assert!(
            same > 3 * cross,
            "mapping fragments the tree: {same} same vs {cross} cross"
        );
    }
}
