//! StarPU-style task submission: sequential insertion with data access
//! modes and dependencies inferred from data hazards.
//!
//! Mirrors the StarPU programming model of §IV: "applications submit
//! computational tasks […] and STARPU schedules these tasks and associated
//! data transfers". Tasks are inserted by one thread in program order with
//! `(data, access-mode)` pairs; the graph derives its edges from data
//! hazards:
//!
//! * **RAW** — a reader depends on the last writer;
//! * **WAR** — a writer depends on every reader since the last writer;
//! * **WAW** — writers on the same datum are chained.
//!
//! [`DataflowGraph`] is the inferred *structure* — predecessor counts and
//! successor lists over the submitted ids — held in a few flat vectors: a
//! submission appends cells and allocates nothing of its own. The
//! submitter knows what task `id` does, so it supplies the one shared
//! `execute(id, worker)` body when it presents the structure as a
//! [`PtgProgram`](crate::ptg::PtgProgram) (`dagfact-core`'s
//! `tasks::Program`). Run under [`crate::RuntimeKind::Dataflow`] every
//! ready task goes through the executor's single shared queue ("STARPU
//! relies on a centralized strategy", §IV) with no per-worker locality,
//! reflecting the paper's observation that StarPU "does not have a
//! data-reuse policy on CPU-shared memory systems" (§IV/§V-A).

use crate::verify::Mode;
use crate::{DataId, TaskId};

/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// Index of the next cell of a pool (or the next task id).
fn next_cell(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&cell| cell != NIL)
        .expect("a dataflow graph holds fewer than 2^32 - 1 tasks and edges")
}

/// A submitted task: predecessor count and the ends of its successor list
/// (cells of [`DataflowGraph::links`]).
#[derive(Clone, Copy)]
struct Node {
    npred: u32,
    first_succ: u32,
    last_succ: u32,
}

/// A malformed explicit dependency passed to
/// [`DataflowGraph::add_dependency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint is not a submitted task id.
    UnknownTask {
        /// The offending id.
        task: TaskId,
        /// Tasks submitted so far.
        ntasks: usize,
    },
    /// `pred == succ`: the edge would deadlock the task against itself.
    SelfDependency {
        /// The offending id.
        task: TaskId,
    },
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::UnknownTask { task, ntasks } => {
                write!(f, "task {task} does not exist ({ntasks} submitted)")
            }
            GraphError::SelfDependency { task } => {
                write!(f, "task {task} cannot depend on itself")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Per-datum hazard-tracking state during submission.
#[derive(Clone, Copy)]
struct DataState {
    last_writer: u32,
    /// Head of the readers-since-last-write list (cells of
    /// [`DataflowGraph::readers`]).
    readers: u32,
}

/// Sequential-submission dataflow graph: `submit` tasks in program order,
/// optionally [`DataflowGraph::add_dependency`] control edges, then read
/// the structure back through
/// [`DataflowGraph::num_predecessors`] / [`DataflowGraph::successors`].
pub struct DataflowGraph {
    tasks: Vec<Node>,
    /// Successor-list cells: `(successor, next cell of the same list)`.
    links: Vec<(u32, u32)>,
    data: Vec<DataState>,
    /// Reader-list cells: `(reader, next cell of the same datum)`.
    readers: Vec<(u32, u32)>,
    /// Scratch: predecessors of the task being submitted.
    preds: Vec<u32>,
}

impl DataflowGraph {
    /// New graph over `ndata` trackable data handles.
    pub fn new(ndata: usize) -> Self {
        DataflowGraph {
            tasks: Vec::new(),
            links: Vec::new(),
            data: vec![DataState { last_writer: NIL, readers: NIL }; ndata],
            readers: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Number of submitted tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Submit a task touching `accesses`; returns its id (the submission
    /// index). Dependencies on previously-submitted tasks are inferred
    /// from the access modes (RAW, WAR, WAW).
    pub fn submit(&mut self, accesses: impl IntoIterator<Item = (DataId, Mode)>) -> TaskId {
        let id = next_cell(self.tasks.len());
        self.preds.clear();
        for (d, mode) in accesses {
            assert!(d < self.data.len(), "data handle {d} not registered");
            let st = &mut self.data[d];
            // RAW for a reader, WAW for a writer: either way the last
            // writer comes first.
            if st.last_writer != NIL {
                self.preds.push(st.last_writer);
            }
            if mode.writes() {
                // WAR: every reader since that write.
                let mut cell = st.readers;
                while cell != NIL {
                    let (reader, next) = self.readers[cell as usize];
                    self.preds.push(reader);
                    cell = next;
                }
                *st = DataState { last_writer: id, readers: NIL };
            } else {
                let cell = next_cell(self.readers.len());
                self.readers.push((id, st.readers));
                st.readers = cell;
            }
        }
        self.preds.sort_unstable();
        self.preds.dedup();
        // A task touching one datum twice is not its own predecessor.
        self.preds.retain(|&p| p != id);
        self.tasks.push(Node { npred: self.preds.len() as u32, first_succ: NIL, last_succ: NIL });
        for i in 0..self.preds.len() {
            self.link(self.preds[i], id);
        }
        id as TaskId
    }

    /// Add an explicit `pred → succ` edge on top of the inferred hazards
    /// (e.g. a control dependency with no shared datum). Both tasks must
    /// already be submitted ([`GraphError::UnknownTask`] otherwise) and
    /// distinct ([`GraphError::SelfDependency`] — a self-edge could never
    /// become ready and would hang the run). Duplicate edges are
    /// deduplicated and succeed as no-ops.
    pub fn add_dependency(&mut self, pred: TaskId, succ: TaskId) -> Result<(), GraphError> {
        let ntasks = self.tasks.len();
        for t in [pred, succ] {
            if t >= ntasks {
                return Err(GraphError::UnknownTask { task: t, ntasks });
            }
        }
        if pred == succ {
            return Err(GraphError::SelfDependency { task: pred });
        }
        let mut cell = self.tasks[pred].first_succ;
        while cell != NIL {
            let (s, next) = self.links[cell as usize];
            if s as TaskId == succ {
                return Ok(());
            }
            cell = next;
        }
        self.link(pred as u32, succ as u32);
        self.tasks[succ].npred += 1;
        Ok(())
    }

    /// Append `succ` to `pred`'s successor list (inferred edges come in
    /// submission order, i.e. ascending).
    fn link(&mut self, pred: u32, succ: u32) {
        let cell = next_cell(self.links.len());
        self.links.push((succ, NIL));
        let node = &mut self.tasks[pred as usize];
        match node.last_succ {
            NIL => node.first_succ = cell,
            last => self.links[last as usize].1 = cell,
        }
        node.last_succ = cell;
    }

    /// Number of predecessors of `task`.
    pub fn num_predecessors(&self, task: TaskId) -> u32 {
        // BOUNDS: callers pass submitted ids, < len().
        self.tasks[task].npred
    }

    /// Append the successors of `task` to `out`.
    pub fn successors(&self, task: TaskId, out: &mut Vec<TaskId>) {
        // BOUNDS: `task` is a submitted id; every cell index stored in a
        // list was the length of `links` when its cell was pushed.
        let mut cell = self.tasks[task].first_succ;
        while cell != NIL {
            let (succ, next) = self.links[cell as usize];
            // ALLOC: `out` is the worker's reused high-water buffer.
            out.push(succ as TaskId);
            cell = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptg::PtgProgram;
    use crate::verify::{check_static, GraphSpec};
    use crate::{exec, RunConfig, RunReport, RuntimeKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;
    use Mode::{Read, ReadWrite, Write};

    /// A submitted graph with the shared body and per-task priorities that
    /// make it runnable.
    struct Bound<'g, F> {
        graph: &'g DataflowGraph,
        priority: &'g [f64],
        body: F,
    }

    impl<F: Fn(TaskId) + Sync> PtgProgram for Bound<'_, F> {
        fn num_tasks(&self) -> usize {
            self.graph.len()
        }
        fn num_predecessors(&self, task: usize) -> u32 {
            self.graph.num_predecessors(task)
        }
        fn successors(&self, task: usize, out: &mut Vec<usize>) {
            self.graph.successors(task, out);
        }
        fn execute(&self, task: usize, _worker: usize) {
            (self.body)(task);
        }
        fn priority(&self, task: usize) -> f64 {
            self.priority.get(task).copied().unwrap_or(0.0)
        }
    }

    /// Run `graph` under the central-queue policy it models.
    fn execute(
        graph: &DataflowGraph,
        priority: &[f64],
        nworkers: usize,
        body: impl Fn(TaskId) + Sync,
    ) -> RunReport {
        let program = Bound { graph, priority, body };
        exec::run(&program, RuntimeKind::Dataflow, nworkers, RunConfig::default())
            .expect("dataflow run succeeds")
    }

    /// Run `graph` and return the order its tasks executed in.
    fn execution_order(graph: &DataflowGraph, priority: &[f64], nworkers: usize) -> Vec<TaskId> {
        let log = StdMutex::new(Vec::new());
        execute(graph, priority, nworkers, |t| log.lock().expect("log lock").push(t));
        log.into_inner().expect("log lock")
    }

    #[test]
    fn raw_dependency_orders_writer_before_reader() {
        for nworkers in [1, 4] {
            let mut g = DataflowGraph::new(1);
            g.submit([(0, Write)]);
            g.submit([(0, Read)]);
            g.submit([(0, Read)]);
            let order = execution_order(&g, &[0.0, 10.0, 10.0], nworkers);
            assert_eq!(order[0], 0);
            assert_eq!(order.len(), 3);
        }
    }

    #[test]
    fn war_dependency_orders_readers_before_writer() {
        let mut g = DataflowGraph::new(1);
        g.submit([(0, Write)]);
        g.submit([(0, Read)]);
        g.submit([(0, Read)]);
        // Overwriter must wait for both readers (WAR) and the writer (WAW).
        g.submit([(0, ReadWrite)]);
        assert_eq!(g.num_predecessors(3), 3);
        let order = execution_order(&g, &[0.0, 0.0, 0.0, 100.0], 4);
        assert_eq!(*order.last().expect("log is non-empty"), 3);
    }

    #[test]
    fn a_write_resets_the_reader_list() {
        // Readers before a write are ordered against that write only; the
        // next writer depends on the write (WAW) and the readers after it.
        let mut g = DataflowGraph::new(1);
        g.submit([(0, Read)]);
        g.submit([(0, Write)]);
        g.submit([(0, Read)]);
        g.submit([(0, Write)]);
        let succs = |t| {
            let mut out = Vec::new();
            g.successors(t, &mut out);
            out
        };
        assert_eq!(succs(0), [1]);
        assert_eq!(succs(1), [2, 3]);
        assert_eq!(succs(2), [3]);
        assert_eq!(g.num_predecessors(3), 2);
    }

    #[test]
    fn independent_data_run_concurrently_correctly() {
        // 100 chains on 100 independent data: total order within a chain.
        let n = 100;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let mut g = DataflowGraph::new(n);
        for _step in 0..5usize {
            for d in 0..n {
                g.submit([(d, ReadWrite)]);
            }
        }
        execute(&g, &[], 4, |t| {
            // Each step must observe exactly `step` prior steps.
            let (step, d) = (t / n, t % n);
            let prev = counters[d].fetch_add(1, Ordering::SeqCst);
            assert_eq!(prev, step, "chain {d} ran out of order");
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::SeqCst), 5);
        }
    }

    #[test]
    fn reduction_pattern_rw_accumulation() {
        // Many RW tasks on one accumulator are serialized by WAW/RAW.
        let acc = StdMutex::new(0u64);
        let mut g = DataflowGraph::new(1);
        let prios: Vec<f64> = (0..50).map(|i| i as f64).collect();
        for _ in 0..50 {
            g.submit([(0, ReadWrite)]);
        }
        execute(&g, &prios, 4, |t| *acc.lock().expect("accumulator lock") += t as u64);
        assert_eq!(*acc.lock().expect("accumulator lock"), (0..50).sum());
    }

    #[test]
    fn priorities_pick_urgent_tasks_first_single_worker() {
        let mut g = DataflowGraph::new(3);
        // Three independent tasks; single worker must run by priority.
        for d in 0..3 {
            g.submit([(d, Write)]);
        }
        assert_eq!(execution_order(&g, &[1.0, 3.0, 2.0], 1), vec![1, 2, 0]);
    }

    #[test]
    fn empty_graph_executes() {
        execute(&DataflowGraph::new(0), &[], 3, |_| {});
    }

    #[test]
    fn explicit_dependency_orders_unrelated_tasks() {
        let mut g = DataflowGraph::new(2);
        // Two tasks on disjoint data — no inferred edge; the explicit
        // control dependency must still order them.
        let a = g.submit([(0, Write)]);
        let b = g.submit([(1, Write)]);
        // Run b first despite submission order; the duplicate is a no-op.
        g.add_dependency(b, a).expect("valid edge");
        g.add_dependency(b, a).expect("duplicate edge is accepted");
        assert_eq!(execution_order(&g, &[0.0, 100.0], 4), vec![b, a]);
    }

    #[test]
    fn add_dependency_rejects_self_dependency() {
        let mut g = DataflowGraph::new(1);
        let t = g.submit([(0, Write)]);
        assert_eq!(
            g.add_dependency(t, t),
            Err(GraphError::SelfDependency { task: t })
        );
        // The graph is still runnable: the bad edge was not recorded.
        execute(&g, &[], 2, |_| {});
    }

    #[test]
    fn add_dependency_rejects_dangling_task_ids() {
        let mut g = DataflowGraph::new(1);
        let t = g.submit([(0, Write)]);
        assert_eq!(
            g.add_dependency(t, 7),
            Err(GraphError::UnknownTask { task: 7, ntasks: 1 })
        );
        assert_eq!(
            g.add_dependency(9, t),
            Err(GraphError::UnknownTask { task: 9, ntasks: 1 })
        );
        execute(&g, &[], 2, |_| {});
    }

    #[test]
    fn duplicate_edges_do_not_inflate_predecessor_counts() {
        // A duplicated explicit edge must not leave `npred` too high —
        // that would make the successor wait forever (silent hang).
        let mut g = DataflowGraph::new(2);
        let a = g.submit([(0, Write)]);
        let b = g.submit([(1, Write)]);
        for _ in 0..3 {
            g.add_dependency(a, b).expect("valid edge");
        }
        assert_eq!(g.num_predecessors(b), 1);
        let report = check_static(&spec_of(&g, &[&[(0, Write)], &[(1, Write)]]));
        assert!(report.is_clean(), "{report}");
        assert_eq!(execution_order(&g, &[], 2), vec![a, b]);
    }

    /// The spec of a submitted graph: inferred edges through
    /// [`GraphSpec::from_dag`], accesses as declared.
    fn spec_of(g: &DataflowGraph, accesses: &[&[(DataId, Mode)]]) -> GraphSpec {
        let mut spec = GraphSpec::from_dag(&Bound { graph: g, priority: &[], body: |_| {} });
        for (t, list) in accesses.iter().enumerate() {
            for &(d, mode) in *list {
                spec.access(t, d, mode);
            }
        }
        spec
    }

    #[test]
    fn spec_reproduces_inferred_hazards() {
        let accesses: [&[(DataId, Mode)]; 3] =
            [&[(0, Write)], &[(0, Read), (1, ReadWrite)], &[(1, ReadWrite)]];
        let mut g = DataflowGraph::new(2);
        for list in accesses {
            g.submit(list.iter().copied());
        }
        let spec = spec_of(&g, &accesses);
        assert_eq!(spec.ntasks(), 3);
        assert_eq!(spec.accesses_of(1), &[(0, Read), (1, ReadWrite)]);
        let report = check_static(&spec);
        assert!(report.is_clean(), "{report}");
        // Drop the inferred RAW edge 0→1 from the exported spec: the
        // static pass must flag the now-unordered W/R pair.
        let mut broken = spec.clone();
        assert!(broken.remove_edge(0, 1));
        let report = check_static(&broken);
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].data, 0);
    }

    #[test]
    fn checked_run_reports_success() {
        let counter = AtomicUsize::new(0);
        let mut g = DataflowGraph::new(1);
        for _ in 0..10 {
            g.submit([(0, ReadWrite)]);
        }
        let report = execute(&g, &[], 4, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(report.ntasks, 10);
        assert_eq!(report.completed, 10);
        assert_eq!(report.retries, 0);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
