//! The task DAG of a factorization — the one module that knows its rule.
//!
//! The paper's §V decomposition: each panel yields one **panel task**
//! (diagonal-block factorization + off-diagonal TRSMs) and one **update
//! task per off-diagonal block** ("the updates from off-diagonal blocks of
//! the panel to one other panel of the trailing sub-matrix"); "the number
//! of tasks is bound by the number of blocks in the symbolic structure".
//! That bound is the numbering: **task `b` is block `b`** — a diagonal
//! block is its panel's task, an off-diagonal block the update it
//! generates — so ids ascend in program order: panel `k`, then the
//! updates it generates, ascending `k`.
//!
//! * `update(k, b)` runs after `panel(k)` and after the previous update
//!   into the same destination (updates commute numerically but need
//!   exclusive access to the destination panel — the runtimes serialize
//!   them, deterministically, in source order);
//! * `panel(j)` runs after the last update into `j`.
//!
//! Nothing stores those edges: [`TaskGraph`] computes them from two words
//! per block, built once by [`Analysis::new`]. All three policies run that
//! one graph and differ only in placement: PaStiX's analyze-time static
//! mapping (§III) survives as the native policy's *seed placement* — a
//! task's static owner is the cost-model list schedule's owner of its
//! source panel — and the dataflow policy sends every ready task through
//! one central queue.
//! [`Analysis::program`] is the only constructor of what a policy
//! executes — the factorization runs it, the verifier extracts its spec
//! from it, the simulator lowers it — and [`TaskKind::accesses`] states
//! once what a task touches.

use crate::analysis::Analysis;
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::verify::Mode;
use dagfact_rt::RuntimeKind;
use dagfact_symbolic::cost::TaskCosts;
use dagfact_symbolic::structure::SymbolMatrix;

/// A task of the factorization DAG.
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

impl TaskKind {
    /// The panel the task factorizes or reads its update from.
    pub fn cblk(self) -> usize {
        let (TaskKind::Panel { cblk } | TaskKind::Update { cblk, .. }) = self;
        cblk
    }

    /// Trace label of the task class.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Panel { .. } => "panel",
            TaskKind::Update { .. } => "update",
        }
    }

    /// The panels the task touches (datum `c` is panel `c`'s coefficient
    /// storage, L and U halves together) and how: a panel task
    /// read-modify-writes its own panel; an update reads its source and
    /// read-modify-writes its target.
    pub fn accesses(self) -> impl Iterator<Item = (usize, Mode)> {
        let (read, own) = match self {
            TaskKind::Panel { cblk } => (None, cblk),
            TaskKind::Update { cblk, target, .. } => (Some(cblk), target),
        };
        (read.map(|c| (c, Mode::Read)).into_iter()).chain([(own, Mode::ReadWrite)])
    }
}

/// The two-level DAG in algebraic form (numbering and rule: module docs).
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// Source panel of each block.
    cblk_of: Vec<u32>,
    /// The task that follows block `b`'s in the chain into `b`'s facing
    /// panel: the next update into it, or its panel task. A diagonal block
    /// faces its own panel and heads that chain — its slot holds the first
    /// update into the panel (itself when there is none).
    next_into: Vec<u32>,
}

impl TaskGraph {
    /// Derive the two tables from a symbol structure.
    pub fn build(symbol: &SymbolMatrix) -> TaskGraph {
        let nblocks = symbol.blocks.len();
        assert!(u32::try_from(nblocks).is_ok(), "block ids must fit in 32 bits");
        let mut cblk_of = Vec::with_capacity(nblocks);
        for (c, cb) in symbol.cblks.iter().enumerate() {
            cblk_of.resize(cb.block_end, c as u32);
        }
        // Thread every off-diagonal block, in id order, onto the chain into
        // its facing panel; `open[j]` is the block whose slot ends chain j.
        let mut next_into = vec![0u32; nblocks];
        let mut open: Vec<usize> = symbol.cblks.iter().map(|cb| cb.block_begin).collect();
        for cb in &symbol.cblks {
            for b in cb.block_begin + 1..cb.block_end {
                let j = symbol.blocks[b].facing;
                next_into[open[j]] = b as u32;
                open[j] = b;
            }
        }
        // The panel task closes its chain.
        for (cb, &last) in symbol.cblks.iter().zip(&open) {
            next_into[last] = cb.block_begin as u32;
        }
        TaskGraph { cblk_of, next_into }
    }

    /// Source panel of task `t`.
    fn cblk(&self, t: usize) -> usize {
        // BOUNDS: task ids are block ids, < blocks.len() == the tables' length.
        self.cblk_of[t] as usize
    }

    fn kind(&self, symbol: &SymbolMatrix, t: usize) -> TaskKind {
        let cblk = self.cblk(t);
        // BOUNDS: `cblk_of` holds panel ids; `t` is a block id.
        if symbol.cblks[cblk].block_begin == t {
            TaskKind::Panel { cblk }
        } else {
            TaskKind::Update { cblk, block: t, target: symbol.blocks[t].facing }
        }
    }

    fn num_predecessors(&self, symbol: &SymbolMatrix, t: usize) -> u32 {
        // Every task but the head of the chain into its facing panel
        // follows another one in it (a panel task: the last update into its
        // panel); an update also follows its source's panel task.
        // BOUNDS: `t` is a block id, `facing` a panel id, `block_begin` a
        // block id again.
        let (source, facing) = (self.cblk(t), symbol.blocks[t].facing);
        let head = self.next_into[symbol.cblks[facing].block_begin] as usize;
        u32::from(head != t) + u32::from(source != facing)
    }

    fn successors(&self, symbol: &SymbolMatrix, t: usize, out: &mut Vec<usize>) {
        // ALLOC: `out` is the worker's reused high-water buffer.
        // BOUNDS: `kind` returns panel ids; `t` is a block id.
        match self.kind(symbol, t) {
            TaskKind::Panel { cblk } => out.extend(t + 1..symbol.cblks[cblk].block_end),
            _ => out.push(self.next_into[t] as usize),
        }
    }
}

/// What a placement policy executes for an analysis: its DAG, the cost
/// model's priorities and static owners, and one shared task body.
pub struct Program<'a, F> {
    analysis: &'a Analysis,
    costs: TaskCosts,
    /// Critical-path priority per panel; a task inherits its source's.
    prio: Vec<f64>,
    /// The list schedule's worker per panel (native policy on more than
    /// one worker; empty otherwise); a task inherits its source's.
    owners: Vec<usize>,
    body: F,
}

impl Analysis {
    /// `runtime`'s program: the two-level graph computed from the cached
    /// tables, with the static owners of an `nworkers` list schedule as
    /// seed placement under native. `body(task, worker)` executes a task;
    /// costs and priorities are the real or `complex` cost model's.
    pub fn program<F: Fn(TaskKind, usize) + Sync>(
        &self,
        runtime: RuntimeKind,
        nworkers: usize,
        complex: bool,
        body: F,
    ) -> Program<'_, F> {
        let costs = self.costs(complex);
        let prio = self.priorities(&costs);
        // One worker owns everything: no list schedule to compute.
        let owners = if runtime == RuntimeKind::Native && nworkers > 1 {
            self.static_owners(&costs, nworkers)
        } else {
            Vec::new()
        };
        Program { analysis: self, costs, prio, owners, body }
    }
}

impl<F> Program<'_, F> {
    /// What task `t` is.
    pub fn kind(&self, t: usize) -> TaskKind {
        self.analysis.two_level.kind(&self.analysis.symbol, t)
    }

    /// The cost model the priorities and owners were computed from.
    pub fn costs(&self) -> &TaskCosts {
        &self.costs
    }

    /// Flops of `task` under [`Program::costs`].
    pub fn flops(&self, task: TaskKind) -> f64 {
        match task {
            TaskKind::Panel { cblk } => self.costs.panel[cblk],
            TaskKind::Update { block, .. } => self.costs.update[block],
        }
    }
}

impl<F: Fn(TaskKind, usize) + Sync> PtgProgram for Program<'_, F> {
    fn num_tasks(&self) -> usize {
        self.analysis.symbol.blocks.len()
    }
    fn num_predecessors(&self, task: usize) -> u32 {
        let an = self.analysis;
        an.two_level.num_predecessors(&an.symbol, task)
    }
    fn successors(&self, task: usize, out: &mut Vec<usize>) {
        let an = self.analysis;
        an.two_level.successors(&an.symbol, task, out)
    }
    fn execute(&self, task: usize, worker: usize) {
        (self.body)(self.kind(task), worker);
    }
    fn priority(&self, task: usize) -> f64 {
        // BOUNDS: one priority per panel.
        self.prio[self.analysis.two_level.cblk(task)]
    }
    fn static_owner(&self, task: usize) -> usize {
        self.owners.get(self.analysis.two_level.cblk(task)).copied().unwrap_or(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_symbolic::FactoKind;

    fn analysis() -> Analysis {
        let a = grid_laplacian_2d(12, 12);
        Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default())
    }

    fn succs(p: &impl PtgProgram, t: usize) -> Vec<usize> {
        let mut out = Vec::new();
        p.successors(t, &mut out);
        out
    }

    /// The one program every policy runs (placement aside).
    fn program(an: &Analysis) -> Program<'_, impl Fn(TaskKind, usize) + Sync> {
        an.program(RuntimeKind::Ptg, 2, false, |_, _| {})
    }

    #[test]
    fn task_count_matches_block_count() {
        let an = analysis();
        let p = program(&an);
        assert_eq!(p.num_tasks(), an.symbol.blocks.len());
        assert_eq!(p.num_tasks(), an.symbol.ncblk() + an.symbol.n_update_tasks());
    }

    #[test]
    fn topological_order_visits_updates_between_panels() {
        let an = analysis();
        let panel = |c: usize| an.symbol.cblks[c].block_begin;
        let p = program(&an);
        // Kahn traversal; every task must come out (no cycle).
        let n = p.num_tasks();
        let mut npred: Vec<u32> = (0..n).map(|t| p.num_predecessors(t)).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&t| npred[t] == 0).collect();
        let mut pos = vec![usize::MAX; n];
        let mut visited = 0;
        while let Some(t) = stack.pop() {
            pos[t] = visited;
            visited += 1;
            for s in succs(&p, t) {
                npred[s] -= 1;
                if npred[s] == 0 {
                    stack.push(s);
                }
            }
        }
        assert_eq!(visited, n, "task graph has a cycle");
        for t in 0..n {
            if let TaskKind::Update { cblk, target, .. } = p.kind(t) {
                assert!(pos[panel(cblk)] < pos[t], "update before its source panel");
                assert!(pos[t] < pos[panel(target)], "update after its target panel");
            }
        }
    }

    #[test]
    fn update_chains_serialize_per_target() {
        let an = analysis();
        let p = program(&an);
        // For each target, its update tasks in id order, then its panel
        // task: each must be a direct predecessor of the next.
        let mut per_target: Vec<Vec<usize>> = vec![Vec::new(); an.symbol.ncblk()];
        for t in 0..p.num_tasks() {
            if let TaskKind::Update { target, .. } = p.kind(t) {
                per_target[target].push(t);
            }
        }
        for (target, chain) in per_target.iter_mut().enumerate() {
            chain.push(an.symbol.cblks[target].block_begin);
            for w in chain.windows(2) {
                assert!(succs(&p, w[0]).contains(&w[1]), "missing chain edge {} -> {}", w[0], w[1]);
            }
        }
    }
}
