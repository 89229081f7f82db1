//! # dagfact-rt
//!
//! One task-based executor under three placement policies, the Rust
//! stand-in for the paper's three schedulers (§IV). [`exec::run`] is the
//! only run entry point and the only worker loop: it takes any task DAG
//! ([`ptg::PtgProgram`]), a [`RuntimeKind`] and a worker count. The kind
//! picks nothing but where ready tasks are queued:
//!
//! * [`RuntimeKind::Native`] — PaStiX-style: tasks carry an analyze-time
//!   *static* worker assignment from the cost-model list schedule
//!   ([`ptg::PtgProgram::static_owner`]) — placement over the same DAG the
//!   other two run, not a task model of its own; initially-ready tasks
//!   are seeded onto their owner's deque, successors are released onto
//!   the completing worker's, and idle workers steal — the "dynamic
//!   scheduler based on a work-stealing strategy [that reduces] idle
//!   times while preserving a good locality" of \[1\].
//! * [`RuntimeKind::Dataflow`] — StarPU-like: every ready task goes
//!   through one **centralized** queue. Centralization mirrors StarPU's
//!   single scheduling domain and is the modeled reason for its small
//!   multicore overhead ("lack of cache reuse policy", §V-A). StarPU
//!   infers its DAG from the data access modes of a sequential
//!   submission; that derivation is the algebraic graph the other two
//!   policies run (the factorization's panel chains order every
//!   conflicting access), so this policy runs that graph too, and the
//!   submission's cost lives in `dagfact-gpusim`'s scheduler model.
//! * [`RuntimeKind::Ptg`] — PaRSEC-like: the graph is given
//!   *algebraically* (successor/predecessor-count functions, the analogue
//!   of PaRSEC's parameterized task graph), nothing is materialized before
//!   it is ready, and each completion *locally* releases its successors
//!   onto the finishing worker's LIFO deque (data reuse), with Chase-Lev
//!   stealing for balance.
//!
//! Any DAG runs under any policy. The executor runs real OS threads and
//! synchronizes with atomics + the internal [`sync`]/[`deque`]
//! primitives; it is exercised by the solver's factorization
//! (correctness) while the *performance* study of the paper is
//! reproduced on the deterministic simulator in `dagfact-gpusim` (see
//! DESIGN.md §2).
//!
//! Every run goes through the fault-tolerant layer of [`fault`]: task
//! panics are caught, typed and drain the run, stalled schedulers are
//! detected by a watchdog — with deterministic fault *injection*
//! ([`fault::FaultPlan`]) for testing both. No task is ever re-run.
//!
//! The hazard contract the DAGs encode (and [`shared::SharedSlice`]
//! relies on) is machine-checked by [`verify`]: static happens-before
//! race/deadlock analysis over any submitted graph. The *runtime primitives* that uphold that contract at execution time
//! are themselves model-checked: [`sync`] is a dual-backend shim that,
//! under `--cfg loom`, swaps std synchronization for the in-repo
//! loom-style checker in [`model`], and the `loom_models` test suite
//! exhaustively explores the load-bearing protocols (fan-in release,
//! deque, watchdog shutdown, budget ledger, trace lanes).

#![deny(unsafe_op_in_unsafe_fn)]
// Typed `EngineError`s, not unwraps, in library code (tests: clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]
// No console or file I/O and no sleeping but where a site allows it in
// place (clippy.toml's disallowed methods).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod budget;
pub mod deque;
pub mod exec;
pub mod fault;
pub mod json;
// A model-checker panic IS the counterexample: it must abort exploration.
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
pub mod model;
pub mod native;
pub mod ptg;
pub mod shared;
pub mod sync;
pub mod trace;
pub mod verify;

pub use budget::{BudgetError, MemoryBudget, MemoryStats};
pub use fault::{CancelToken, EngineError, FaultPlan, RunConfig, RunReport};
pub use json::{write_results, Json};
pub use shared::{release_pending, ReleaseUnderflow, SharedSlice};
pub use trace::{chrome_trace, Span, SpanKind, Trace, TraceRecorder};

/// Identifier of a task within one engine run.
pub type TaskId = usize;

/// Identifier of a datum (panel, block, …) used for hazard tracking.
pub type DataId = usize;

/// Which placement policy the executor runs a DAG under — the axis of the
/// paper's comparison (PaStiX vs. StarPU vs. PaRSEC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Static owners seed the deques; successors are released locally.
    Native,
    /// One central queue for seeds and released successors alike.
    Dataflow,
    /// Seeds through the shared queue; successors are released locally.
    Ptg,
}

impl RuntimeKind {
    /// Paper-style display name.
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Native => "PaStiX-native",
            RuntimeKind::Dataflow => "StarPU-like",
            RuntimeKind::Ptg => "PaRSEC-like",
        }
    }

    /// All policies, in paper order.
    pub const ALL: [RuntimeKind; 3] =
        [RuntimeKind::Native, RuntimeKind::Dataflow, RuntimeKind::Ptg];
}
