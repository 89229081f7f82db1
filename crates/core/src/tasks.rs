//! Task-DAG enumeration over the block symbolic structure.
//!
//! The paper's §V decomposition: each panel yields
//!
//! * one **panel task** (diagonal-block factorization + off-diagonal
//!   TRSMs), and
//! * one **update task per off-diagonal block** — "the updates from
//!   off-diagonal blocks of the panel to one other panel of the trailing
//!   sub-matrix"; "the number of tasks is bound by the number of blocks in
//!   the symbolic structure".
//!
//! Dependencies:
//!
//! * `update(k, b)` runs after `panel(k)` and after the previous update
//!   into the same destination (updates commute numerically but need
//!   exclusive access to the destination panel — the runtimes serialize
//!   them, deterministically, in source order);
//! * `panel(j)` runs after the last update into `j`.
//!
//! The same DAG drives the real engines and the simulator; the native
//! engine instead uses the coarser 1D-task DAG (panel + all its updates
//! fused), as PaStiX does (§III).

use dagfact_symbolic::structure::SymbolMatrix;

/// A task of the two-level DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Factorize panel `c` (POTRF/LDLT/GETRF of the diagonal block + TRSM
    /// of the off-diagonal blocks).
    Panel {
        /// Column block index.
        cblk: usize,
    },
    /// Apply the update generated by off-diagonal block `block` (global
    /// block index) of panel `cblk` onto panel `target`.
    Update {
        /// Source column block.
        cblk: usize,
        /// Global block index within [`SymbolMatrix::blocks`].
        block: usize,
        /// Destination column block (the block's facing panel).
        target: usize,
    },
}

/// The flattened two-level task DAG.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Task descriptors; panel task of cblk `c` is at index `c`.
    pub tasks: Vec<TaskKind>,
    /// Successor lists.
    pub succs: Vec<Vec<usize>>,
    /// Predecessor counts.
    pub npred: Vec<u32>,
    /// Task id of each block's update task (`usize::MAX` for diagonal
    /// blocks).
    pub update_of_block: Vec<usize>,
}

impl TaskGraph {
    /// Build the two-level DAG from a symbol structure.
    pub fn build(symbol: &SymbolMatrix) -> TaskGraph {
        let ncblk = symbol.ncblk();
        let mut tasks: Vec<TaskKind> = (0..ncblk).map(|c| TaskKind::Panel { cblk: c }).collect();
        let mut update_of_block = vec![usize::MAX; symbol.blocks.len()];
        // Update tasks, in (source panel, block) order — the deterministic
        // submission order of the dataflow engine.
        for c in 0..ncblk {
            let cb = &symbol.cblks[c];
            for (bi, slot) in update_of_block
                .iter_mut()
                .enumerate()
                .take(cb.block_end)
                .skip(cb.block_begin + 1)
            {
                let id = tasks.len();
                *slot = id;
                tasks.push(TaskKind::Update {
                    cblk: c,
                    block: bi,
                    target: symbol.blocks[bi].facing,
                });
            }
        }
        let ntasks = tasks.len();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); ntasks];
        let mut npred = vec![0u32; ntasks];
        // Chain updates per destination; the panel task closes the chain.
        let mut last_into: Vec<Option<usize>> = vec![None; ncblk];
        for (id, &task) in tasks.iter().enumerate() {
            if let TaskKind::Update { cblk, target, .. } = task {
                // panel(source) → update
                succs[cblk].push(id);
                npred[id] += 1;
                // previous update into target → this update
                if let Some(prev) = last_into[target] {
                    succs[prev].push(id);
                    npred[id] += 1;
                }
                last_into[target] = Some(id);
            }
        }
        for c in 0..ncblk {
            if let Some(last) = last_into[c] {
                succs[last].push(c);
                npred[c] += 1;
            }
        }
        TaskGraph {
            tasks,
            succs,
            npred,
            update_of_block,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` for an empty DAG.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// A topological order (tasks are constructed so that a stable
    /// Kahn traversal exists); used by tests and the sequential executor.
    pub fn topological_order(&self) -> Vec<usize> {
        let mut npred = self.npred.clone();
        let mut order = Vec::with_capacity(self.len());
        let mut stack: Vec<usize> = (0..self.len()).filter(|&t| npred[t] == 0).rev().collect();
        while let Some(t) = stack.pop() {
            order.push(t);
            for &s in &self.succs[t] {
                npred[s] -= 1;
                if npred[s] == 0 {
                    stack.push(s);
                }
            }
        }
        assert_eq!(order.len(), self.len(), "task graph has a cycle");
        order
    }
}

/// The coarse 1D-task DAG: one task per panel covering the panel operation
/// *and* all its updates (§III). It depends on the symbol structure only,
/// so [`crate::Analysis::new`] builds it once for the native and
/// distributed engines, the verifier, and the triangular solve (forward
/// sweep over it, backward sweep over its transpose).
#[derive(Debug, Clone)]
pub struct OneDGraph {
    /// Successor lists, then predecessor lists (the transpose's
    /// successors), as compressed rows `(ptr, idx)`: panel `c`'s list is
    /// `idx[ptr[c]..ptr[c + 1]]`. Four allocations, not two per panel: the
    /// graph lives as long as the analysis, and thousands of small
    /// long-lived lists fragment the heap the factor panels churn.
    rows: [(Vec<usize>, Vec<usize>); 2],
}

impl OneDGraph {
    /// Build from a symbol structure.
    pub fn build(symbol: &SymbolMatrix) -> OneDGraph {
        let ncblk = symbol.ncblk();
        let compress = |edges: &[(usize, usize)]| {
            let mut ptr = vec![0usize; ncblk + 1];
            for &(row, _) in edges {
                ptr[row + 1] += 1;
            }
            for row in 0..ncblk {
                ptr[row + 1] += ptr[row];
            }
            (ptr, edges.iter().map(|e| e.1).collect())
        };
        // (source, facing) pairs, one per couple of panels, in one buffer
        // sized up front (no growth reallocations inside the analysis);
        // sorted either way round they are the rows of the graph and of
        // its transpose.
        let mut edges = Vec::with_capacity(symbol.blocks.len());
        edges.extend((0..ncblk).flat_map(|c| symbol.off_blocks(c).iter().map(move |b| (c, b.facing))));
        edges.sort_unstable();
        edges.dedup();
        let succs = compress(&edges);
        edges.iter_mut().for_each(|e| *e = (e.1, e.0));
        edges.sort_unstable();
        OneDGraph { rows: [succs, compress(&edges)] }
    }

    fn row(&self, transposed: bool, c: usize) -> &[usize] {
        // BOUNDS: c < ncblk = ptr.len() - 1, and ptr is a prefix sum
        // ending at idx.len().
        let (ptr, idx) = &self.rows[transposed as usize];
        &idx[ptr[c]..ptr[c + 1]]
    }

    /// Panels receiving updates from panel `c` (deduplicated, ascending).
    pub fn succs(&self, c: usize) -> &[usize] {
        self.row(false, c)
    }

    /// Panels with a block facing panel `c` (ascending).
    pub fn preds(&self, c: usize) -> &[usize] {
        self.row(true, c)
    }

    /// `(predecessor count, successors)` of panel `c` in the graph itself
    /// (`forward`) or in its transpose.
    pub fn directed(&self, c: usize, forward: bool) -> (u32, &[usize]) {
        (self.row(forward, c).len() as u32, self.row(!forward, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{Analysis, SolverOptions};
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_symbolic::FactoKind;

    fn symbol() -> SymbolMatrix {
        let a = grid_laplacian_2d(12, 12);
        Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default()).symbol
    }

    #[test]
    fn task_count_matches_block_count() {
        let s = symbol();
        let g = TaskGraph::build(&s);
        assert_eq!(g.len(), s.ncblk() + s.n_update_tasks());
    }

    #[test]
    fn topological_order_visits_updates_between_panels() {
        let s = symbol();
        let g = TaskGraph::build(&s);
        let order = g.topological_order();
        let mut pos = vec![0usize; g.len()];
        for (k, &t) in order.iter().enumerate() {
            pos[t] = k;
        }
        for (id, &task) in g.tasks.iter().enumerate() {
            if let TaskKind::Update { cblk, target, .. } = task {
                assert!(pos[cblk] < pos[id], "update before its source panel");
                assert!(pos[id] < pos[target], "update after its target panel");
            }
        }
    }

    #[test]
    fn update_chains_serialize_per_target() {
        let s = symbol();
        let g = TaskGraph::build(&s);
        // For each target, collect update tasks in id order; each must be
        // a predecessor of the next (direct edge).
        let mut per_target: Vec<Vec<usize>> = vec![Vec::new(); s.ncblk()];
        for (id, &t) in g.tasks.iter().enumerate() {
            if let TaskKind::Update { target, .. } = t {
                per_target[target].push(id);
            }
        }
        for chain in per_target.iter().filter(|c| c.len() > 1) {
            for w in chain.windows(2) {
                assert!(
                    g.succs[w[0]].contains(&w[1]),
                    "missing chain edge {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn one_d_graph_is_acyclic_and_forward(){
        let s = symbol();
        let g = OneDGraph::build(&s);
        let mut nedges = 0;
        for c in 0..s.ncblk() {
            let mut facing: Vec<usize> = s.off_blocks(c).iter().map(|b| b.facing).collect();
            facing.dedup();
            assert_eq!(g.succs(c), &facing[..], "succs({c}) is the deduplicated facing set");
            assert!(g.succs(c).iter().all(|&t| t > c), "1D edge goes backward from {c}");
            // The transpose mirrors the forward lists edge for edge.
            assert!(g.preds(c).iter().all(|&p| g.succs(p).contains(&c)));
            assert_eq!(g.directed(c, true), (g.preds(c).len() as u32, g.succs(c)));
            assert_eq!(g.directed(c, false), (g.succs(c).len() as u32, g.preds(c)));
            nedges += g.succs(c).len();
        }
        assert_eq!(nedges, (0..s.ncblk()).map(|c| g.preds(c).len()).sum::<usize>());
        // Roots exist.
        assert!((0..s.ncblk()).any(|c| g.preds(c).is_empty()));
    }
}
