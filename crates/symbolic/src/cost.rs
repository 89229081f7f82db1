//! Flop cost model, critical-path priorities and the static list schedule.
//!
//! PaStiX "relies on a cost model of this 1D task to compute a static
//! scheduling \[that\] associates ready tasks with the first available
//! resources" (§III). This module computes:
//!
//! * per-panel and per-update flop counts (whose sum is the Flop column of
//!   Table I and the denominator of every GFlop/s figure),
//! * critical-path priorities used by all three runtimes to order ready
//!   queues,
//! * the greedy list schedule over a homogeneous worker set that the
//!   native engine replays at run time.

use crate::structure::SymbolMatrix;
use crate::FactoKind;

/// Arithmetic cost weights: how many "flops" a multiply and an add count
/// for; complex arithmetic uses (6, 2) per the conventional accounting.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Flops charged per scalar multiplication.
    pub mul: f64,
    /// Flops charged per scalar addition.
    pub add: f64,
    /// Factorization kind (LU doubles the panel-solve and update work).
    pub facto: FactoKind,
}

impl CostModel {
    /// Cost model for real ("D") arithmetic.
    pub fn real(facto: FactoKind) -> Self {
        CostModel {
            mul: 1.0,
            add: 1.0,
            facto,
        }
    }

    /// Cost model for double-complex ("Z") arithmetic.
    pub fn complex(facto: FactoKind) -> Self {
        CostModel {
            mul: 6.0,
            add: 2.0,
            facto,
        }
    }

    #[inline]
    fn muladd(&self, pairs: f64) -> f64 {
        pairs * (self.mul + self.add)
    }

    /// Flops of the diagonal-block factorization of a `w×w` block.
    pub fn facto_flops(&self, w: usize) -> f64 {
        let w3 = (w as f64).powi(3);
        match self.facto {
            FactoKind::Cholesky | FactoKind::Ldlt => self.muladd(w3 / 6.0),
            FactoKind::Lu => self.muladd(w3 / 3.0),
        }
    }

    /// Flops of the panel triangular solve: `h` off-diagonal rows against a
    /// `w×w` triangle (both factors for LU).
    pub fn trsm_flops(&self, w: usize, h: usize) -> f64 {
        let pairs = (h as f64) * (w as f64) * (w as f64) / 2.0;
        self.muladd(pairs) * self.facto.sides() as f64
    }

    /// Flops of one update task: `C -= A₁·A₂ᵀ` with `m` rows, `n` target
    /// columns, `k` panel width (both sides for LU).
    pub fn update_flops(&self, m: usize, n: usize, k: usize) -> f64 {
        let pairs = (m as f64) * (n as f64) * (k as f64);
        self.muladd(pairs) * self.facto.sides() as f64
    }
}

/// Per-task costs derived from a [`SymbolMatrix`].
#[derive(Debug, Clone)]
pub struct TaskCosts {
    /// Cost of each `panel(k)` task (diagonal factorization + panel TRSM).
    pub panel: Vec<f64>,
    /// Cost of each `update(k, b)` task, indexed like
    /// [`SymbolMatrix::blocks`] (entries for diagonal blocks are 0).
    pub update: Vec<f64>,
    /// Total factorization flops (Table I's Flop column).
    pub total: f64,
}

impl TaskCosts {
    /// Compute every task's flop count.
    pub fn compute(symbol: &SymbolMatrix, model: &CostModel) -> TaskCosts {
        let ncblk = symbol.ncblk();
        let mut panel = vec![0.0; ncblk];
        let mut update = vec![0.0; symbol.blocks.len()];
        let mut total = 0.0;
        for (c, pc) in panel.iter_mut().enumerate() {
            let cb = &symbol.cblks[c];
            let w = cb.width();
            let cost = model.facto_flops(w) + model.trsm_flops(w, cb.height_below());
            let blocks = symbol.panel_blocks(c);
            // Update tasks: block b (≥1) with everything at-and-below it.
            let mut below: usize = blocks.iter().skip(1).map(|b| b.nrows()).sum();
            for (local, b) in blocks.iter().enumerate().skip(1) {
                let m = below;
                let n = b.nrows();
                let u = model.update_flops(m, n, w);
                update[cb.block_begin + local] = u;
                total += u;
                below -= n;
            }
            *pc = cost;
            total += cost;
        }
        TaskCosts {
            panel,
            update,
            total,
        }
    }

    /// Cost of the original PaStiX 1D task for panel `c` (panel +
    /// all its updates) given the symbol: used by the native scheduler.
    pub fn task_1d(&self, symbol: &SymbolMatrix, c: usize) -> f64 {
        let cb = &symbol.cblks[c];
        self.panel[c] + self.update[cb.block_begin..cb.block_end].iter().sum::<f64>()
    }
}

/// Critical-path priority of each panel: cost of the panel's 1D task plus
/// the priority of the facing panel of its first off-diagonal block (its
/// elimination-tree parent). Higher = more urgent.
pub fn critical_path_priorities(symbol: &SymbolMatrix, costs: &TaskCosts) -> Vec<f64> {
    let ncblk = symbol.ncblk();
    let mut prio = vec![0.0f64; ncblk];
    // Descending sweep: parents (larger indices) first.
    for c in (0..ncblk).rev() {
        let own = costs.task_1d(symbol, c);
        let parent_prio = symbol
            .off_blocks(c)
            .first()
            .map(|b| prio[b.facing])
            .unwrap_or(0.0);
        prio[c] = own + parent_prio;
    }
    prio
}

/// Static list schedule of the 1D tasks over `nworkers` homogeneous
/// workers: the PaStiX analyze-time mapping. Returns `(owner, start_time)`
/// per panel and the simulated makespan.
///
/// Dependencies: panel `k` may start once every panel contributing an
/// update *into* `k` has completed (1D tasks bundle a panel with all its
/// outgoing updates).
pub fn static_schedule(
    symbol: &SymbolMatrix,
    costs: &TaskCosts,
    nworkers: usize,
) -> StaticSchedule {
    assert!(nworkers >= 1);
    let ncblk = symbol.ncblk();
    // Predecessor counts: contributors to each panel.
    let mut npred = vec![0usize; ncblk];
    for c in 0..ncblk {
        for b in symbol.off_blocks(c) {
            npred[b.facing] += 1;
        }
    }
    let prio = critical_path_priorities(symbol, costs);
    // Ready pool ordered by priority (then index for determinism).
    let mut ready: std::collections::BinaryHeap<(ordered_f64, core::cmp::Reverse<usize>)> =
        std::collections::BinaryHeap::new();
    for c in 0..ncblk {
        if npred[c] == 0 {
            ready.push((ordered_f64(prio[c]), core::cmp::Reverse(c)));
        }
    }
    let mut worker_time = vec![0.0f64; nworkers];
    let mut owner = vec![0usize; ncblk];
    let mut start = vec![0.0f64; ncblk];
    let mut finish = vec![0.0f64; ncblk];
    let mut done = 0usize;
    // Earliest-ready-time tracking: a task's data is ready when all its
    // contributors finished.
    let mut data_ready = vec![0.0f64; ncblk];
    while let Some((_, core::cmp::Reverse(c))) = ready.pop() {
        // Pick the worker that can start it earliest.
        #[allow(clippy::unwrap_used)] // one worker at least, and times are never NaN
        let (w, _) = worker_time
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let t0 = worker_time[w].max(data_ready[c]);
        let t1 = t0 + costs.task_1d(symbol, c);
        owner[c] = w;
        start[c] = t0;
        finish[c] = t1;
        worker_time[w] = t1;
        done += 1;
        for b in symbol.off_blocks(c) {
            let f = b.facing;
            data_ready[f] = data_ready[f].max(t1);
            npred[f] -= 1;
            if npred[f] == 0 {
                ready.push((ordered_f64(prio[f]), core::cmp::Reverse(f)));
            }
        }
    }
    assert_eq!(done, ncblk, "schedule did not cover the DAG (cycle?)");
    let makespan = finish.iter().copied().fold(0.0, f64::max);
    StaticSchedule {
        owner,
        start,
        finish,
        makespan,
    }
}

/// Result of the analyze-time list scheduling.
#[derive(Debug, Clone)]
pub struct StaticSchedule {
    /// Worker assigned to each panel's 1D task.
    pub owner: Vec<usize>,
    /// Simulated start time per panel.
    pub start: Vec<f64>,
    /// Simulated finish time per panel.
    pub finish: Vec<f64>,
    /// Simulated makespan.
    pub makespan: f64,
}

/// Total-order wrapper for f64 priorities (NaN-free by construction).
#[derive(PartialEq, PartialOrd)]
#[allow(non_camel_case_types)]
struct ordered_f64(f64);
impl Eq for ordered_f64 {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for ordered_f64 {
    #[allow(clippy::unwrap_used)] // NaN-free by construction
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.partial_cmp(other).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::column_counts;
    use crate::etree::{elimination_tree, postorder, relabel_parent};
    use crate::structure::SplitOptions;
    use crate::supernode::{amalgamate, build_partition, detect_supernodes, AmalgamationOptions};
    use dagfact_sparse::gen::grid_laplacian_2d;

    fn symbol(nx: usize, ny: usize) -> SymbolMatrix {
        let a = grid_laplacian_2d(nx, ny);
        // Nested dissection first: the natural band ordering yields a
        // chain-shaped DAG with no task parallelism at all.
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
        SymbolMatrix::from_partition(&part, &SplitOptions { max_width: 16 })
    }

    #[test]
    fn dense_block_flop_formulas() {
        let m = CostModel::real(FactoKind::Cholesky);
        // n³/3 flops for Cholesky of an n×n block (muladd pairs = n³/6).
        assert!((m.facto_flops(30) - 9000.0).abs() < 1e-9);
        let lu = CostModel::real(FactoKind::Lu);
        assert!((lu.facto_flops(30) - 18000.0).abs() < 1e-9);
        // Complex GEMM charges 8 flops per pair.
        let z = CostModel::complex(FactoKind::Cholesky);
        assert_eq!(z.update_flops(2, 3, 4), 8.0 * 24.0);
        // LU updates both factors.
        assert_eq!(lu.update_flops(2, 3, 4), 2.0 * 2.0 * 24.0);
    }

    #[test]
    fn total_flops_are_positive_and_scale_with_problem() {
        let small = TaskCosts::compute(&symbol(8, 8), &CostModel::real(FactoKind::Cholesky));
        let large = TaskCosts::compute(&symbol(16, 16), &CostModel::real(FactoKind::Cholesky));
        assert!(small.total > 0.0);
        assert!(large.total > 4.0 * small.total, "flops must grow superlinearly");
    }

    #[test]
    fn priorities_decrease_toward_root() {
        let s = symbol(12, 12);
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        let prio = critical_path_priorities(&s, &costs);
        // Every panel has strictly higher priority than the panel its
        // first update feeds (it lies on the same root path).
        for c in 0..s.ncblk() {
            if let Some(b) = s.off_blocks(c).first() {
                assert!(prio[c] > prio[b.facing]);
            }
        }
    }

    #[test]
    fn schedule_respects_dependencies_and_workers() {
        let s = symbol(14, 14);
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        for nworkers in [1, 3, 7] {
            let sched = static_schedule(&s, &costs, nworkers);
            // Dependencies: contributor finishes before target starts.
            for c in 0..s.ncblk() {
                for b in s.off_blocks(c) {
                    assert!(
                        sched.finish[c] <= sched.start[b.facing] + 1e-9,
                        "panel {} starts before contributor {}",
                        b.facing,
                        c
                    );
                }
            }
            // No worker overlap: tasks on one worker are disjoint in time.
            let mut per_worker: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nworkers];
            for c in 0..s.ncblk() {
                per_worker[sched.owner[c]].push((sched.start[c], sched.finish[c]));
            }
            for spans in &mut per_worker {
                spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for w in spans.windows(2) {
                    assert!(w[0].1 <= w[1].0 + 1e-9, "overlap on a worker");
                }
            }
        }
    }

    #[test]
    fn more_workers_never_slower_and_eventually_faster() {
        let s = symbol(20, 20);
        let costs = TaskCosts::compute(&s, &CostModel::real(FactoKind::Cholesky));
        let t1 = static_schedule(&s, &costs, 1).makespan;
        let t4 = static_schedule(&s, &costs, 4).makespan;
        let t8 = static_schedule(&s, &costs, 8).makespan;
        assert!(t4 <= t1 * 1.000001);
        assert!(t8 <= t4 * 1.000001);
        assert!(t4 < 0.9 * t1, "no speedup from 4 workers: {t1} -> {t4}");
        // Serial time equals total 1D work.
        let total_1d: f64 = (0..s.ncblk()).map(|c| costs.task_1d(&s, c)).sum();
        assert!((t1 - total_1d).abs() < 1e-6 * total_1d);
    }
}
