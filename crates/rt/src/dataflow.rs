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
//! The submitted graph is a [`PtgProgram`]; run under
//! [`crate::RuntimeKind::Dataflow`] every ready task goes through the
//! executor's single shared queue ("STARPU relies on a centralized
//! strategy", §IV) with no per-worker locality, reflecting the paper's
//! observation that StarPU "does not have a data-reuse policy on
//! CPU-shared memory systems" (§IV/§V-A).

use crate::ptg::PtgProgram;
use crate::{AccessMode, DataId, TaskId};

/// A submitted task: body + metadata. Bodies are `Fn` so a transiently
/// failed attempt can simply be called again. The declared accesses are
/// retained so the verifier ([`DataflowGraph::to_spec`]) can re-derive
/// the hazard contract.
struct Task<'a> {
    body: Box<dyn Fn(usize) + Send + Sync + 'a>,
    priority: f64,
    npred: u32,
    succs: Vec<TaskId>,
    accesses: Vec<(DataId, AccessMode)>,
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
#[derive(Default, Clone)]
struct DataState {
    last_writer: Option<TaskId>,
    readers_since_write: Vec<TaskId>,
}

/// Sequential-submission dataflow graph under construction.
///
/// Usage: `submit` tasks in program order, then hand the graph to
/// [`crate::exec::run`].
pub struct DataflowGraph<'a> {
    tasks: Vec<Task<'a>>,
    data: Vec<DataState>,
}

impl<'a> Default for DataflowGraph<'a> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<'a> DataflowGraph<'a> {
    /// New graph over `ndata` trackable data handles.
    pub fn new(ndata: usize) -> Self {
        DataflowGraph {
            tasks: Vec::new(),
            data: vec![DataState::default(); ndata],
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

    /// Submit a task touching `accesses`, to run `body(worker)`. Returns
    /// the task id. Dependencies on previously-submitted tasks are
    /// inferred from the access modes (RAW, WAR, WAW).
    pub fn submit(
        &mut self,
        accesses: &[(DataId, AccessMode)],
        priority: f64,
        body: impl Fn(usize) + Send + Sync + 'a,
    ) -> TaskId {
        let id = self.tasks.len();
        let mut preds: Vec<TaskId> = Vec::new();
        for &(d, mode) in accesses {
            assert!(d < self.data.len(), "data handle {d} not registered");
            let st = &mut self.data[d];
            if mode.reads() {
                if let Some(w) = st.last_writer {
                    preds.push(w); // RAW
                }
            }
            if mode.writes() {
                if let Some(w) = st.last_writer {
                    preds.push(w); // WAW
                }
                preds.extend(st.readers_since_write.iter().copied()); // WAR
                st.last_writer = Some(id);
                st.readers_since_write.clear();
            } else {
                st.readers_since_write.push(id);
            }
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != id);
        let npred = preds.len() as u32;
        for p in preds {
            self.tasks[p].succs.push(id);
        }
        self.tasks.push(Task {
            body: Box::new(body),
            priority,
            npred,
            succs: Vec::new(),
            accesses: accesses.to_vec(),
        });
        id
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
        if self.tasks[pred].succs.contains(&succ) {
            return Ok(());
        }
        self.tasks[pred].succs.push(succ);
        self.tasks[succ].npred += 1;
        Ok(())
    }

    /// All dependency edges (`pred → succ`) of the submitted graph —
    /// inferred hazards plus explicit dependencies. Used to register the
    /// measured DAG with a [`crate::trace::TraceRecorder`].
    pub fn edges(&self) -> Vec<(TaskId, TaskId)> {
        self.tasks
            .iter()
            .enumerate()
            .flat_map(|(t, task)| task.succs.iter().map(move |&s| (t, s)))
            .collect()
    }

    /// Export the submitted graph (inferred hazard edges + explicit
    /// dependencies + declared accesses) for the static verifier.
    pub fn to_spec(&self) -> crate::verify::GraphSpec {
        let mut spec = crate::verify::GraphSpec::from_dag(self);
        for (t, task) in self.tasks.iter().enumerate() {
            for &(d, mode) in &task.accesses {
                spec.access(t, d, mode.into());
            }
        }
        spec
    }
}

impl PtgProgram for DataflowGraph<'_> {
    fn num_tasks(&self) -> usize {
        self.tasks.len()
    }
    // BOUNDS: every accessor is only passed ids < num_tasks().
    fn num_predecessors(&self, task: usize) -> u32 {
        self.tasks[task].npred
    }
    fn successors(&self, task: usize, out: &mut Vec<usize>) {
        // ALLOC: `out` is the worker's reused high-water buffer.
        out.extend_from_slice(&self.tasks[task].succs);
    }
    fn execute(&self, task: usize, worker: usize) {
        (self.tasks[task].body)(worker);
    }
    fn priority(&self, task: usize) -> f64 {
        self.tasks[task].priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exec, RunConfig, RuntimeKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    /// Run `g` under the central-queue policy it models; consumes the
    /// graph so the borrows its bodies hold end here.
    fn execute(g: DataflowGraph<'_>, nworkers: usize) -> crate::RunReport {
        exec::run(&g, RuntimeKind::Dataflow, nworkers, RunConfig::default())
            .expect("dataflow run succeeds")
    }

    #[test]
    fn raw_dependency_orders_writer_before_reader() {
        for nworkers in [1, 4] {
            let log = StdMutex::new(Vec::new());
            let mut g = DataflowGraph::new(1);
            g.submit(&[(0, AccessMode::Write)], 0.0, |_| log.lock().expect("log lock").push("w"));
            g.submit(&[(0, AccessMode::Read)], 10.0, |_| log.lock().expect("log lock").push("r1"));
            g.submit(&[(0, AccessMode::Read)], 10.0, |_| log.lock().expect("log lock").push("r2"));
            execute(g, nworkers);
            let log = log.into_inner().expect("log lock");
            assert_eq!(log[0], "w");
            assert_eq!(log.len(), 3);
        }
    }

    #[test]
    fn war_dependency_orders_readers_before_writer() {
        let log = StdMutex::new(Vec::new());
        let mut g = DataflowGraph::new(1);
        g.submit(&[(0, AccessMode::Write)], 0.0, |_| log.lock().expect("log lock").push(0));
        g.submit(&[(0, AccessMode::Read)], 0.0, |_| log.lock().expect("log lock").push(1));
        g.submit(&[(0, AccessMode::Read)], 0.0, |_| log.lock().expect("log lock").push(2));
        // Overwriter must wait for both readers (WAR) and the writer (WAW).
        g.submit(&[(0, AccessMode::ReadWrite)], 100.0, |_| log.lock().expect("log lock").push(3));
        execute(g, 4);
        let log = log.into_inner().expect("log lock");
        assert_eq!(*log.last().expect("log is non-empty"), 3);
    }

    #[test]
    fn independent_data_run_concurrently_correctly() {
        // 100 chains on 100 independent data: total order within a chain.
        let n = 100;
        let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let mut g = DataflowGraph::new(n);
        for step in 0..5usize {
            for d in 0..n {
                let counters = &counters;
                g.submit(&[(d, AccessMode::ReadWrite)], 0.0, move |_| {
                    // Each step must observe exactly `step` prior steps.
                    let prev = counters[d].fetch_add(1, Ordering::SeqCst);
                    assert_eq!(prev, step, "chain {d} ran out of order");
                });
            }
        }
        execute(g, 4);
        for c in &counters {
            assert_eq!(c.load(Ordering::SeqCst), 5);
        }
    }

    #[test]
    fn reduction_pattern_rw_accumulation() {
        // Many RW tasks on one accumulator are serialized by WAW/RAW.
        let acc = StdMutex::new(0u64);
        let mut g = DataflowGraph::new(1);
        for i in 0..50u64 {
            let acc = &acc;
            g.submit(&[(0, AccessMode::ReadWrite)], i as f64, move |_| {
                *acc.lock().expect("accumulator lock") += i;
            });
        }
        execute(g, 4);
        assert_eq!(*acc.lock().expect("accumulator lock"), (0..50).sum());
    }

    #[test]
    fn priorities_pick_urgent_tasks_first_single_worker() {
        let log = StdMutex::new(Vec::new());
        let mut g = DataflowGraph::new(3);
        // Three independent tasks; single worker must run by priority.
        g.submit(&[(0, AccessMode::Write)], 1.0, |_| log.lock().expect("log lock").push(1));
        g.submit(&[(1, AccessMode::Write)], 3.0, |_| log.lock().expect("log lock").push(3));
        g.submit(&[(2, AccessMode::Write)], 2.0, |_| log.lock().expect("log lock").push(2));
        execute(g, 1);
        assert_eq!(log.into_inner().expect("log lock"), vec![3, 2, 1]);
    }

    #[test]
    fn empty_graph_executes() {
        execute(DataflowGraph::new(0), 3);
    }

    #[test]
    fn explicit_dependency_orders_unrelated_tasks() {
        let log = StdMutex::new(Vec::new());
        let mut g = DataflowGraph::new(2);
        // Two tasks on disjoint data — no inferred edge; the explicit
        // control dependency must still order them.
        let a = g.submit(&[(0, AccessMode::Write)], 0.0, |_| log.lock().expect("log lock").push("a"));
        let b = g.submit(&[(1, AccessMode::Write)], 100.0, |_| log.lock().expect("log lock").push("b"));
        // Run b first despite submission order; the duplicate is a no-op.
        g.add_dependency(b, a).expect("valid edge");
        g.add_dependency(b, a).expect("duplicate edge is accepted");
        execute(g, 4);
        assert_eq!(log.into_inner().expect("log lock"), vec!["b", "a"]);
    }

    #[test]
    fn add_dependency_rejects_self_dependency() {
        let mut g = DataflowGraph::new(1);
        let t = g.submit(&[(0, AccessMode::Write)], 0.0, |_| {});
        assert_eq!(
            g.add_dependency(t, t),
            Err(GraphError::SelfDependency { task: t })
        );
        // The graph is still runnable: the bad edge was not recorded.
        execute(g, 2);
    }

    #[test]
    fn add_dependency_rejects_dangling_task_ids() {
        let mut g = DataflowGraph::new(1);
        let t = g.submit(&[(0, AccessMode::Write)], 0.0, |_| {});
        assert_eq!(
            g.add_dependency(t, 7),
            Err(GraphError::UnknownTask { task: 7, ntasks: 1 })
        );
        assert_eq!(
            g.add_dependency(9, t),
            Err(GraphError::UnknownTask { task: 9, ntasks: 1 })
        );
        execute(g, 2);
    }

    #[test]
    fn duplicate_edges_do_not_inflate_predecessor_counts() {
        // A duplicated explicit edge must not leave `npred` too high —
        // that would make the successor wait forever (silent hang).
        let log = StdMutex::new(Vec::new());
        let mut g = DataflowGraph::new(2);
        let a = g.submit(&[(0, AccessMode::Write)], 0.0, |_| log.lock().expect("log lock").push("a"));
        let b = g.submit(&[(1, AccessMode::Write)], 0.0, |_| log.lock().expect("log lock").push("b"));
        for _ in 0..3 {
            g.add_dependency(a, b).expect("valid edge");
        }
        let spec = g.to_spec();
        let report = crate::verify::check_static(&spec);
        assert!(report.is_clean(), "{report}");
        execute(g, 2);
        assert_eq!(log.into_inner().expect("log lock"), vec!["a", "b"]);
    }

    #[test]
    fn to_spec_reproduces_inferred_hazards() {
        use crate::verify::{check_static, Mode};
        let mut g = DataflowGraph::new(2);
        g.submit(&[(0, AccessMode::Write)], 0.0, |_| {});
        g.submit(&[(0, AccessMode::Read), (1, AccessMode::ReadWrite)], 0.0, |_| {});
        g.submit(&[(1, AccessMode::ReadWrite)], 0.0, |_| {});
        let spec = g.to_spec();
        assert_eq!(spec.ntasks(), 3);
        assert_eq!(spec.accesses_of(1), &[(0, Mode::Read), (1, Mode::ReadWrite)]);
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
            let counter = &counter;
            g.submit(&[(0, AccessMode::ReadWrite)], 0.0, move |_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let report = execute(g, 4);
        assert_eq!(report.ntasks, 10);
        assert_eq!(report.completed, 10);
        assert_eq!(report.retries, 0);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
