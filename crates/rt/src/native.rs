//! An explicit task array: a stored DAG whose tasks carry a *static*
//! worker assignment.
//!
//! [`NativeDag`] is a table-driven [`PtgProgram`] for DAGs that exist only
//! as a table — the executor's test suites and the bare-executor ratio
//! test. It is not the solver's native program: that is the computed
//! two-level graph of `dagfact-core`'s `tasks::Program` with PaStiX's
//! analyze-time list schedule (§III) as static owners. Either way, under
//! [`crate::RuntimeKind::Native`] the executor seeds each initially-ready
//! task onto its *assigned* owner's deque.

use crate::ptg::PtgProgram;
use crate::TaskId;

/// A task of a statically-scheduled DAG.
#[derive(Debug, Clone)]
pub struct NativeTask {
    /// Worker the analyze-time schedule assigned this task to.
    pub owner: usize,
    /// Number of incoming dependencies.
    pub npred: u32,
    /// Tasks unlocked by this one's completion.
    pub succs: Vec<TaskId>,
    /// Critical-path priority (higher runs first).
    pub priority: f64,
}

/// A task array plus the body that executes a task: `execute(task,
/// worker)`.
pub struct NativeDag<'a, F> {
    /// The statically-scheduled tasks; ids are indices.
    pub tasks: &'a [NativeTask],
    /// Task body.
    pub execute: F,
}

impl<F: Fn(TaskId, usize) + Sync> PtgProgram for NativeDag<'_, F> {
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
        (self.execute)(task, worker);
    }
    fn priority(&self, task: usize) -> f64 {
        self.tasks[task].priority
    }
    fn static_owner(&self, task: usize) -> usize {
        // BOUNDS: as above, task < num_tasks().
        self.tasks[task].owner
    }
}
