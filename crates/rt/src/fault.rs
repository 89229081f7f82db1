//! The fault-tolerant execution layer under the executor core.
//!
//! The paper's premise is that a factorization DAG handed to a generic
//! runtime still completes correctly, or fails cleanly, under execution
//! it does not control. This module makes that testable and survivable:
//!
//! * [`FaultPlan`] — deterministic injection of task panics, wired into
//!   the executor behind a hook that costs one branch when no plan is
//!   installed;
//! * [`Supervisor`] — the per-run bookkeeping of [`crate::exec::run`]:
//!   panic capture, poison-and-drain cancellation, duplicate-execution
//!   detection, and a stall watchdog that turns a would-be deadlock into
//!   a diagnostic [`EngineError::Stalled`];
//! * [`RunReport`] — per-run statistics (task counts, elapsed time; the
//!   solver adds its memory counters) surfaced to its `FactorStats`.
//!
//! A task is never re-executed: any panic of a task body aborts the run
//! with [`EngineError::TaskPanicked`]. Recovery from numeric breakdown
//! lives above the engine, in the solver's pivot-escalation loop.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, Once};
use crate::TaskId;
use std::collections::HashSet;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// Deterministic fault-injection plan: panics are pinned to explicit
/// task ids (`panic_on`), so a plan fires the same faults regardless of
/// scheduling order, worker count or policy.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Tasks that panic every time they run.
    panics: HashSet<TaskId>,
    /// Total faults injected so far.
    injected: AtomicUsize,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Pin a fatal panic to `task`.
    pub fn panic_on(mut self, task: TaskId) -> Self {
        self.panics.insert(task);
        self
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> usize {
        // ORDERING: statistics counter only; readers tolerate staleness
        // and no other memory is published through it.
        self.injected.load(Ordering::Relaxed)
    }

    /// The engine-side hook, called *inside* the supervisor's panic net
    /// just before the task body. Panics when a panic is pinned to `task`.
    pub fn inject(&self, task: TaskId) {
        if self.panics.contains(&task) {
            // ORDERING: statistics counter; no memory is published.
            self.injected.fetch_add(1, Ordering::Relaxed);
            // ALLOC: panic-payload formatting happens only when a fault fires.
            std::panic::panic_any(format!("injected fault: task {task} panicked"));
        }
    }

    /// Parse a CLI-style plan: comma-separated `panic=T` directives.
    /// Example: `panic=7,panic=12`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for item in spec.split(',').filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("fault directive {item:?} is not key=value"))?;
            let num = |s: &str| -> Result<u64, String> {
                s.parse().map_err(|e| format!("{item:?}: {e}"))
            };
            match key {
                "panic" => plan = plan.panic_on(num(value)? as usize),
                other => return Err(format!("unknown fault directive {other:?}")),
            }
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------

/// Cooperative cancellation handle for a checked engine run, shared
/// between the run's [`RunConfig`] and an external controller (a
/// deadline timer, a service shutdown path). Firing the token makes the
/// supervisor poison the run with [`EngineError::Cancelled`] at the next
/// task boundary — in-flight task bodies are never interrupted midway,
/// so cancellation can never leave partially-written panels behind; the
/// run simply refuses to start more work and drains.
#[derive(Debug, Default)]
pub struct CancelToken {
    fired: AtomicBool,
    reason: Mutex<Option<String>>,
}

impl CancelToken {
    /// Fresh, un-fired token.
    pub fn new() -> Arc<CancelToken> {
        Arc::new(CancelToken::default())
    }

    /// Fire the token. The first caller's `reason` wins; firing is
    /// idempotent and monotone (a fired token never un-fires).
    pub fn cancel(&self, reason: &str) {
        {
            let mut guard = self.reason.lock();
            if guard.is_none() {
                *guard = Some(reason.to_string());
            }
        }
        // ORDERING: Release pairs with the Acquire in `is_cancelled` so
        // the reason written above is visible to whoever observes `true`.
        self.fired.store(true, Ordering::Release);
    }

    /// Has the token been fired?
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }

    /// The reason the token was fired with (or a placeholder before it
    /// fires — callers check [`CancelToken::is_cancelled`] first).
    pub fn reason(&self) -> String {
        // LOCK: cancellation is a cold, at-most-once-per-run event;
        // callers read the reason only after `is_cancelled()` fires.
        // ALLOC: clones the reason string on that same cold path.
        self.reason
            .lock()
            .clone()
            .unwrap_or_else(|| "cancelled".to_string())
    }
}

/// Configuration of one checked engine run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Optional fault-injection plan (testing / chaos runs).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Stall watchdog: if no task starts or completes within this window
    /// while tasks remain and no worker is executing, the run fails with
    /// [`EngineError::Stalled`] instead of deadlocking. `None` disables.
    pub watchdog: Option<Duration>,
    /// Optional memory ledger for the task bodies: the engine reads
    /// nothing of it. The solver's pager charges it, and the solver puts
    /// its counters in [`RunReport::memory`] after the run.
    pub budget: Option<Arc<crate::budget::MemoryBudget>>,
    /// Optional span recorder. When set, every engine records per-worker
    /// queue-wait / execute / steal spans into it (see [`crate::trace`]);
    /// when `None` the instrumentation costs one branch per hook.
    pub trace: Option<Arc<crate::trace::TraceRecorder>>,
    /// Optional cancellation token (deadline-bounded jobs, shutdown).
    /// When fired, the run is poisoned with [`EngineError::Cancelled`]
    /// at the next task boundary and drains.
    pub cancel: Option<Arc<CancelToken>>,
}

// ---------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------

/// Why a checked engine run failed.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A task body panicked.
    TaskPanicked {
        /// The task.
        task: TaskId,
        /// Stringified panic payload.
        message: String,
    },
    /// The scheduler made no progress for the watchdog window while tasks
    /// remained — a dependency-graph bug (cycle, bad predecessor count)
    /// that would otherwise deadlock.
    Stalled {
        /// Tasks not yet completed.
        remaining: usize,
        /// A sample of the stuck task ids (first eight).
        stuck: Vec<TaskId>,
        /// The quiescence window that expired.
        window: Duration,
    },
    /// The scheduler tried to run a task twice — an engine bug surfaced
    /// as a structured error instead of a worker-thread panic.
    DuplicateExecution {
        /// The task.
        task: TaskId,
    },
    /// A successor's pending-predecessor counter was decremented below
    /// zero — a malformed DAG (duplicate edge, understated predecessor
    /// count) caught by [`crate::shared::release_pending`] before the
    /// wrapped counter could release the task spuriously.
    ReleaseUnderflow {
        /// The successor whose counter underflowed.
        task: TaskId,
    },
    /// The run's [`CancelToken`] fired (deadline expired, service
    /// shutdown): remaining tasks were abandoned at a task boundary and
    /// the partial factorization was discarded, never returned.
    Cancelled {
        /// The reason the token was fired with.
        reason: String,
        /// Tasks not yet completed when the cancellation was honored.
        remaining: usize,
    },
    /// The engine was invoked with zero workers — a configuration error
    /// surfaced as a structured rejection instead of an assert in the
    /// engine entry point.
    NoWorkers,
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            EngineError::Stalled {
                remaining,
                stuck,
                window,
            } => write!(
                f,
                "scheduler stalled: {remaining} task(s) pending with no progress for \
                 {window:?}; stuck tasks include {stuck:?}"
            ),
            EngineError::DuplicateExecution { task } => {
                write!(f, "scheduler bug: task {task} was dispatched twice")
            }
            EngineError::ReleaseUnderflow { task } => write!(
                f,
                "graph bug: pending-predecessor counter of task {task} \
                 decremented below zero (duplicate edge or understated \
                 predecessor count)"
            ),
            EngineError::Cancelled { reason, remaining } => write!(
                f,
                "run cancelled ({reason}) with {remaining} task(s) abandoned"
            ),
            EngineError::NoWorkers => write!(f, "engine invoked with zero workers"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Statistics of a completed checked run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Tasks in the DAG.
    pub ntasks: usize,
    /// Tasks completed (== `ntasks` on success).
    pub completed: usize,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Memory-ledger snapshot (peak, spill and overcommit counters) when
    /// the run carried a [`crate::budget::MemoryBudget`]; the engine
    /// leaves it `None` and the solver fills it.
    pub memory: Option<crate::budget::MemoryStats>,
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// Outcome of one supervised task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Body ran to completion; release successors, then call
    /// [`Supervisor::task_done`].
    Completed,
    /// Fatal: the error is recorded and the run poisoned; drain.
    Aborted,
}

/// Shared bookkeeping of one checked engine run: panic capture,
/// watchdog, duplicate detection, and the final report.
pub struct Supervisor {
    config: RunConfig,
    done: Vec<AtomicBool>,
    remaining: AtomicUsize,
    running: AtomicUsize,
    poisoned: AtomicBool,
    error: Mutex<Option<EngineError>>,
    start: Instant,
    /// Nanoseconds (since `start`) of the last observed progress.
    last_progress: AtomicU64,
}

/// Silence the default panic hook for panics *injected* by a
/// [`FaultPlan`] — each would otherwise print a full "thread panicked"
/// backtrace on top of the typed error the run returns. The hook is
/// installed once, process-wide, and delegates every genuine panic to
/// whatever hook was active before. ALLOC: fault injection only, once per
/// process.
fn install_quiet_injection_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

impl Supervisor {
    /// Supervisor for a DAG of `ntasks` tasks.
    pub fn new(ntasks: usize, config: RunConfig) -> Supervisor {
        if config.fault_plan.is_some() {
            install_quiet_injection_hook();
        }
        // ALLOC: run setup — one per-task table, once per run.
        Supervisor {
            config,
            done: (0..ntasks).map(|_| AtomicBool::new(false)).collect(),
            remaining: AtomicUsize::new(ntasks),
            running: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            error: Mutex::new(None),
            start: Instant::now(),
            last_progress: AtomicU64::new(0),
        }
    }

    /// Has the run been cancelled (error recorded)? Workers drain when
    /// this turns true.
    pub fn halted(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Tasks not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    /// Stamp "progress happened now" for the stall watchdog — its only
    /// reader ([`Supervisor::idle_check`]), so a run without one skips
    /// the clock read and the store to the shared line (three per task).
    fn note_progress(&self) {
        if self.config.watchdog.is_none() {
            return;
        }
        // Saturating u128 → u64: `as u64` would silently truncate (the
        // elapsed nanos fit for ~584 years, but the convention here is
        // that no timestamp narrows with `as`; see `trace::units`).
        let nanos = crate::trace::units::nanos_u64(self.start.elapsed());
        self.last_progress.store(nanos, Ordering::Release);
    }

    pub(crate) fn poison_with(&self, error: EngineError) {
        // LOCK: error path only — the first error ends the run.
        let mut guard = self.error.lock();
        if guard.is_none() {
            *guard = Some(error);
        }
        self.poisoned.store(true, Ordering::Release);
    }

    /// Honor a fired [`CancelToken`]: poison the run with
    /// [`EngineError::Cancelled`] and report `true`. Cheap (one Acquire
    /// load) when no token is installed or it has not fired.
    fn check_cancel(&self) -> bool {
        let Some(token) = self.config.cancel.as_deref() else {
            return false;
        };
        if !token.is_cancelled() {
            return false;
        }
        self.poison_with(EngineError::Cancelled {
            reason: token.reason(),
            remaining: self.remaining(),
        });
        true
    }

    /// Run `task` under the panic net, with fault injection. The engine
    /// releases successors and calls [`Supervisor::task_done`] on
    /// [`TaskOutcome::Completed`], and drains on [`TaskOutcome::Aborted`].
    pub fn run_task<F: FnOnce()>(&self, task: TaskId, body: F) -> TaskOutcome {
        if self.check_cancel() {
            return TaskOutcome::Aborted;
        }
        // BOUNDS: the executor only dispatches ids < ntasks, the length of
        // the `done` table.
        if self.done[task].load(Ordering::Acquire) {
            self.poison_with(EngineError::DuplicateExecution { task });
            return TaskOutcome::Aborted;
        }
        self.running.fetch_add(1, Ordering::AcqRel);
        self.note_progress();
        let plan = self.config.fault_plan.as_deref();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = plan {
                plan.inject(task);
            }
            body();
        }));
        self.running.fetch_sub(1, Ordering::AcqRel);
        self.note_progress();
        match result {
            Ok(()) => TaskOutcome::Completed,
            Err(payload) => {
                self.poison_with(EngineError::TaskPanicked {
                    task,
                    message: panic_message(&*payload),
                });
                TaskOutcome::Aborted
            }
        }
    }

    /// Mark `task` completed (call after releasing its successors).
    pub fn task_done(&self, task: TaskId) {
        // BOUNDS: `task` just ran, so it passed `run_task`'s table lookup.
        self.done[task].store(true, Ordering::Release);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        self.note_progress();
    }

    /// Watchdog check for idle workers. Returns `true` when the run is
    /// over for this worker (finished, failed, or a stall was just
    /// detected and recorded).
    pub fn idle_check(&self) -> bool {
        if self.halted() || self.remaining() == 0 {
            return true;
        }
        if self.check_cancel() {
            return true;
        }
        let Some(window) = self.config.watchdog else {
            return false;
        };
        // Progress means either a completion or a body actively running;
        // a long-running legitimate task must not trip the watchdog.
        if self.running.load(Ordering::Acquire) > 0 {
            return false;
        }
        let last = Duration::from_nanos(self.last_progress.load(Ordering::Acquire));
        if self.start.elapsed().saturating_sub(last) < window {
            return false;
        }
        // ALLOC: the stall report — built at most once, as the run ends.
        let stuck: Vec<TaskId> = self
            .done
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.load(Ordering::Acquire))
            .map(|(t, _)| t)
            .take(8)
            .collect();
        self.poison_with(EngineError::Stalled {
            remaining: self.remaining(),
            stuck,
            window,
        });
        true
    }

    /// Finish the run: the recorded error, or the success report.
    /// LOCK: ALLOC: once per run, after every worker joined.
    pub fn finish(self) -> Result<RunReport, EngineError> {
        if let Some(e) = self.error.lock().take() {
            return Err(e);
        }
        let ntasks = self.done.len();
        let completed = ntasks - self.remaining();
        Ok(RunReport {
            ntasks,
            completed,
            elapsed: self.start.elapsed(),
            memory: None,
        })
    }
}

/// Best-effort stringification of a panic payload. ALLOC: error path
/// only — a task panicked.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests sleep to shape schedules
mod tests {
    use super::*;

    #[test]
    fn pinned_panic_fires_on_every_run_of_its_task_only() {
        let plan = FaultPlan::new().panic_on(3);
        for _ in 0..2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.inject(3)));
            let payload = r.expect_err("injection should fire");
            assert_eq!(panic_message(&*payload), "injected fault: task 3 panicked");
        }
        plan.inject(4);
        assert_eq!(plan.faults_injected(), 2);
    }

    #[test]
    fn parse_roundtrip() {
        let plan = FaultPlan::parse("panic=7,panic=12").unwrap();
        assert_eq!(plan.panics, HashSet::from([7, 12]));
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("panic=x").is_err());
        // Unknown, not silently ignored: there are no output-corruption,
        // seeded, transient or allocation-fault directives.
        for spec in [
            "frob=1",
            "nan=0",
            "nan=1",
            "nan=1x2",
            "seed=1",
            "transient=3x2",
            "tprob=0.1x1",
            "alloc=64x1",
            "aprob=0.5x1",
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains("unknown fault directive"), "{spec}: {err}");
        }
    }

    #[test]
    fn supervisor_reports_duplicate_execution() {
        let sup = Supervisor::new(2, RunConfig::default());
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Completed);
        sup.task_done(0);
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Aborted);
        match sup.finish() {
            Err(EngineError::DuplicateExecution { task: 0 }) => {}
            other => panic!("expected DuplicateExecution, got {other:?}"),
        }
    }

    #[test]
    fn zero_task_graph_finishes_immediately() {
        let sup = Supervisor::new(0, RunConfig {
            watchdog: Some(Duration::from_millis(5)),
            ..RunConfig::default()
        });
        assert_eq!(sup.remaining(), 0);
        // An idle worker on an empty graph is told "run over", never
        // "stalled" — even after the watchdog window has long expired.
        std::thread::sleep(Duration::from_millis(15));
        assert!(sup.idle_check());
        assert!(!sup.halted(), "empty graph must not poison");
        let report = sup.finish().unwrap();
        assert_eq!(report.ntasks, 0);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn cancel_token_aborts_at_the_next_task_boundary() {
        let token = CancelToken::new();
        let sup = Supervisor::new(2, RunConfig {
            cancel: Some(token.clone()),
            ..RunConfig::default()
        });
        // A deadline shorter than one task: the token fires while the
        // body runs. The in-flight body is never interrupted (no partial
        // writes), but nothing further is dispatched.
        let mid_task = token.clone();
        assert_eq!(
            sup.run_task(0, move || mid_task.cancel("deadline 1ms exceeded")),
            TaskOutcome::Completed
        );
        sup.task_done(0);
        assert_eq!(sup.run_task(1, || panic!("must not dispatch")), TaskOutcome::Aborted);
        assert!(sup.halted());
        // `halted()` is monotone: still true on every later observation.
        assert!(sup.halted());
        assert!(sup.idle_check(), "idle workers drain after cancellation");
        match sup.finish() {
            Err(EngineError::Cancelled { reason, remaining }) => {
                assert!(reason.contains("deadline"), "{reason}");
                assert_eq!(remaining, 1);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_detects_quiescence() {
        let sup = Supervisor::new(3, RunConfig {
            watchdog: Some(Duration::from_millis(20)),
            ..RunConfig::default()
        });
        assert!(!sup.idle_check(), "fresh run is not stalled yet");
        std::thread::sleep(Duration::from_millis(40));
        assert!(sup.idle_check());
        match sup.finish() {
            Err(EngineError::Stalled { remaining: 3, stuck, .. }) => {
                assert_eq!(stuck, vec![0, 1, 2]);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn progress_is_stamped_only_for_a_watchdog() {
        let stamp_after_a_task = |watchdog| {
            let sup = Supervisor::new(2, RunConfig { watchdog, ..RunConfig::default() });
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(sup.run_task(0, || {}), TaskOutcome::Completed);
            sup.task_done(0);
            (sup.last_progress.load(Ordering::Acquire), sup)
        };
        let (stamp, _) = stamp_after_a_task(None);
        assert_eq!(stamp, 0, "no watchdog reads the stamp, so nothing writes it");
        // With a watchdog the stamp moves, and a run that then goes quiet
        // with work left still trips `Stalled`.
        let (stamp, sup) = stamp_after_a_task(Some(Duration::from_millis(20)));
        assert!(stamp >= 2_000_000, "stamp {stamp} ns predates the task");
        assert!(!sup.idle_check(), "progress was just made");
        std::thread::sleep(Duration::from_millis(40));
        assert!(sup.idle_check());
        assert!(matches!(sup.finish(), Err(EngineError::Stalled { remaining: 1, .. })));
    }
}
