//! The task-DAG description every policy of [`crate::exec`] runs.
//!
//! PaRSEC's defining trait (§IV) is that the DAG is never stored: a
//! compact, algebraic description lets "each computational unit immediately
//! release the dependencies of the completed task solely using the local
//! knowledge of the DAG". [`PtgProgram`] is that description — successor
//! and predecessor-count *functions* over a dense task index space. The
//! executor materializes nothing but one atomic counter per task ("tasks
//! do not exist until they are ready to be executed"), and the solver's
//! two-level program (`dagfact-core`'s `tasks::Program`) stores no edge
//! either: it computes both functions from the block structure and one
//! chain link per block, cached with the analysis.
//!
//! An explicit graph is the special case whose functions read a table:
//! [`crate::native::NativeDag`] (a task array carrying static owners).

/// Algebraic task-graph description (the PTG). Task ids form the dense
/// range `0..num_tasks()`; the shape functions must be pure.
pub trait PtgProgram: Sync {
    /// Total number of tasks.
    fn num_tasks(&self) -> usize;
    /// Number of predecessors of `task` (computed locally, the analogue of
    /// PaRSEC's compile-time dependency counts).
    fn num_predecessors(&self, task: usize) -> u32;
    /// Append the successors of `task` to `out` (cleared by the caller).
    fn successors(&self, task: usize, out: &mut Vec<usize>);
    /// Execute the task body on `worker`.
    fn execute(&self, task: usize, worker: usize);
    /// Scheduling priority (higher first) within one seed or release
    /// batch.
    fn priority(&self, _task: usize) -> f64 {
        0.0
    }
    /// Worker the analyze-time schedule assigned `task` to (reduced
    /// modulo the worker count). Only the static-mapping policy
    /// ([`crate::RuntimeKind::Native`]) consults it, to seed the
    /// initially-ready tasks.
    fn static_owner(&self, task: usize) -> usize {
        task
    }
}
