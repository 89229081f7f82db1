//! The fault-tolerant execution layer under the executor core.
//!
//! The paper's premise is that a factorization DAG handed to a generic
//! runtime still completes correctly under asymmetric, unreliable
//! execution (slow or failed offloads, §V-B). This module makes that
//! testable and survivable:
//!
//! * [`FaultPlan`] — deterministic, seedable injection of task panics,
//!   transient failures (fail the first *k* attempts), output
//!   corruption, allocation failures and (for the dist engine) node
//!   crashes and message faults, wired into the executor behind a hook
//!   that costs one branch when no plan is installed;
//! * [`Supervisor`] — the per-run bookkeeping of [`crate::exec::run`]:
//!   panic capture, bounded retry with exponential backoff,
//!   poison-and-drain cancellation, duplicate-execution detection, and a
//!   stall watchdog that turns a would-be deadlock into a diagnostic
//!   [`EngineError::Stalled`];
//! * [`RunReport`] — per-run statistics (attempt counts, retries, injected
//!   faults) surfaced to the solver's `FactorStats`.
//!
//! A task body signals a *transient* failure by panicking with a
//! [`TransientFault`] payload (the injection hook does exactly that); any
//! other panic payload is treated as fatal and aborts the run with
//! [`EngineError::TaskPanicked`].

use crate::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, Once};
use crate::TaskId;
use std::collections::HashMap;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// Panic payload marking a failure as retryable. Task bodies (or the
/// injection hook) `panic_any(TransientFault { .. })` to request a retry;
/// the supervisor retries within [`RetryPolicy`] bounds instead of
/// aborting the run.
#[derive(Debug, Clone)]
pub struct TransientFault {
    /// Task that failed.
    pub task: TaskId,
    /// 1-based attempt number that failed.
    pub attempt: u32,
}

/// One injected fault at a specific task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Fatal panic on every attempt.
    Panic,
    /// Fail the first `failures` attempts with a [`TransientFault`], then
    /// let the task run.
    Transient { failures: u32 },
}

/// Deterministic, seedable fault-injection plan.
///
/// Faults are either *pinned* to explicit task ids (`panic_on`,
/// `transient_on`) or *sampled* per task from the seed
/// (`random_transient`, …): task `t` draws `splitmix64(seed ⊕ t)`, so a
/// given `(seed, task)` pair always produces the same decision regardless
/// of scheduling order, worker count or engine.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    pinned: HashMap<TaskId, FaultKind>,
    /// Probability ∈ [0, 1] of a sampled transient fault, with its
    /// fail-count.
    random_transient: Option<(f64, u32)>,
    /// Panels whose freshly-computed output should be overwritten with
    /// NaN, with a remaining-injection budget each (so a re-factorization
    /// attempt can succeed). Consumed via [`FaultPlan::take_corruption`].
    corrupt: Mutex<HashMap<usize, u32>>,
    /// Allocation sites (see `crate::budget::site`) whose next `failures`
    /// budget charges are refused — the `AllocFail` fault kind, fired
    /// inside `MemoryBudget::try_charge`.
    alloc_pinned: HashMap<usize, u32>,
    /// Probability ∈ [0, 1] that a given allocation *site* fails its
    /// first `k` charges, sampled deterministically from the seed.
    random_alloc: Option<(f64, u32)>,
    /// Per-site count of alloc failures already delivered (both pinned
    /// and sampled draw down from the same consumption record).
    alloc_used: Mutex<HashMap<usize, u32>>,
    /// Cluster nodes pinned to crash after completing K tasks (the dist
    /// engine queries [`FaultPlan::node_crash_point`]).
    crash_pinned: HashMap<usize, u32>,
    /// Probability ∈ [0, 1] that a sampled node crashes, with the
    /// task-completion count after which it dies.
    random_crash: Option<(f64, u32)>,
    /// Probability that a given message send is lost in transit.
    msg_loss: Option<f64>,
    /// Probability that a given message send is delivered twice.
    msg_dup: Option<f64>,
    /// Probability that a given message send is delayed past later
    /// traffic (reordering).
    msg_reorder: Option<f64>,
    /// Total faults injected so far (all kinds).
    injected: AtomicUsize,
}

/// What the lossy network does to one message send (see
/// [`FaultPlan::message_fate`]). The fates are independent: a message can
/// be duplicated *and* have one copy delayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgFate {
    /// The (first) delivery is dropped in transit.
    pub lost: bool,
    /// A second copy of the message is delivered.
    pub duplicated: bool,
    /// Delivery is delayed past later traffic (reordering).
    pub reordered: bool,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Empty plan with a seed for the sampled modes.
    pub fn with_seed(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Pin a fatal panic to `task`.
    pub fn panic_on(mut self, task: TaskId) -> Self {
        self.pinned.insert(task, FaultKind::Panic);
        self
    }

    /// Pin a transient fault to `task`: its first `failures` attempts fail
    /// retryably, subsequent attempts run normally.
    pub fn transient_on(mut self, task: TaskId, failures: u32) -> Self {
        self.pinned.insert(task, FaultKind::Transient { failures });
        self
    }

    /// Sample transient faults on roughly `prob · ntasks` tasks.
    pub fn random_transient(mut self, prob: f64, failures: u32) -> Self {
        self.random_transient = Some((prob, failures));
        self
    }

    /// Pin an allocation failure (`AllocFail`) to budget site `site`:
    /// its first `failures` charges are refused, then charges succeed —
    /// so a retry (engine- or solver-level) can make progress.
    pub fn alloc_fail_on(mut self, site: usize, failures: u32) -> Self {
        self.alloc_pinned.insert(site, failures);
        self
    }

    /// Sample allocation failures on roughly `prob · nsites` budget
    /// sites, each refusing its first `failures` charges.
    pub fn random_alloc_fail(mut self, prob: f64, failures: u32) -> Self {
        self.random_alloc = Some((prob, failures));
        self
    }

    /// Pin a node crash: cluster node `node` dies after completing
    /// `after_tasks` tasks (0 = before doing any work).
    pub fn crash_node_on(mut self, node: usize, after_tasks: u32) -> Self {
        self.crash_pinned.insert(node, after_tasks);
        self
    }

    /// Sample node crashes on roughly `prob · nnodes` cluster nodes, each
    /// dying after completing `after_tasks` tasks.
    pub fn random_crash(mut self, prob: f64, after_tasks: u32) -> Self {
        self.random_crash = Some((prob, after_tasks));
        self
    }

    /// Lose roughly `prob` of message sends in transit.
    pub fn message_loss(mut self, prob: f64) -> Self {
        self.msg_loss = Some(prob);
        self
    }

    /// Deliver roughly `prob` of message sends twice.
    pub fn message_dup(mut self, prob: f64) -> Self {
        self.msg_dup = Some(prob);
        self
    }

    /// Delay roughly `prob` of message sends past later traffic.
    pub fn message_reorder(mut self, prob: f64) -> Self {
        self.msg_reorder = Some(prob);
        self
    }

    /// After how many task completions does cluster node `node` crash?
    /// `None` = the node survives the run. Pinned crashes take precedence
    /// over the sampled mode; the sampled decision is deterministic per
    /// `(seed, node)` like every other sampled fault. Pure query — a
    /// delivered crash is counted in the dist engine's
    /// `DistReport::crashes`, not in [`FaultPlan::faults_injected`].
    pub fn node_crash_point(&self, node: usize) -> Option<u32> {
        if let Some(&k) = self.crash_pinned.get(&node) {
            return Some(k);
        }
        let (p, k) = self.random_crash?;
        let draw = splitmix64(
            self.seed ^ 0xC4A5_4E0D_DEAD_0001 ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        (unit < p).then_some(k)
    }

    /// The lossy network's verdict on message send number `seq` (a
    /// globally unique per-send sequence number). Each fate is sampled
    /// independently with its own salt, so `mloss`/`mdup`/`mreorder`
    /// rates compose without shadowing each other. Deterministic per
    /// `(seed, seq)`; every triggered fate counts as one injected fault.
    pub fn message_fate(&self, seq: u64) -> MsgFate {
        let mut fate = MsgFate::default();
        let roll = |salt: u64, prob: Option<f64>| -> bool {
            let Some(p) = prob else { return false };
            let draw = splitmix64(self.seed ^ salt ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            let hit = unit < p;
            if hit {
                // ORDERING: statistics counter; no memory is published.
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
            hit
        };
        fate.lost = roll(0x1057_AB1E_5EA5_0001, self.msg_loss);
        fate.duplicated = roll(0xD0B1_ED00_5EA5_0002, self.msg_dup);
        fate.reordered = roll(0x2E02_DE2E_5EA5_0003, self.msg_reorder);
        fate
    }

    /// Corrupt the output of panel `panel` with NaN, once.
    pub fn corrupt_panel(self, panel: usize) -> Self {
        self.corrupt_panel_times(panel, 1)
    }

    /// Corrupt the output of panel `panel` on its first `times` runs.
    pub fn corrupt_panel_times(self, panel: usize, times: u32) -> Self {
        self.corrupt.lock().insert(panel, times);
        self
    }

    /// Number of faults injected so far.
    pub fn faults_injected(&self) -> usize {
        // ORDERING: statistics counter only; readers tolerate staleness
        // and no other memory is published through it.
        self.injected.load(Ordering::Relaxed)
    }

    /// Does the plan corrupt the output of `panel` this time? Decrements
    /// the panel's budget; the caller (the solver's panel task) overwrites
    /// its output with NaN on `true`.
    pub fn take_corruption(&self, panel: usize) -> bool {
        let mut map = self.corrupt.lock();
        match map.get_mut(&panel) {
            Some(budget) if *budget > 0 => {
                *budget -= 1;
                // ORDERING: statistics counter; no memory is published.
                self.injected.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Should the budget charge at `site` fail this time? Consumes one
    /// unit of the site's failure budget (pinned takes precedence over
    /// the sampled mode); the budget layer turns `true` into a typed
    /// `BudgetError::Injected`. Deterministic per `(seed, site)` like
    /// the task-sampled modes.
    pub fn take_alloc_fail(&self, site: usize) -> bool {
        let budget = self.alloc_pinned.get(&site).copied().or_else(|| {
            let (p, failures) = self.random_alloc?;
            let draw = splitmix64(
                self.seed ^ 0xA110_CA7E ^ (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            (unit < p).then_some(failures)
        });
        let Some(failures) = budget else {
            return false;
        };
        // LOCK: fault-injection bookkeeping — reached only when an
        // alloc-fault budget is actually configured for this site.
        let mut used = self.alloc_used.lock();
        let consumed = used.entry(site).or_insert(0);
        if *consumed < failures {
            *consumed += 1;
            // ORDERING: statistics counter; no memory is published.
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The engine-side hook, called *inside* the supervisor's panic net
    /// just before the task body. May panic (fatal or transient faults).
    /// `attempt` is 1-based.
    pub fn inject(&self, task: TaskId, attempt: u32) {
        let kind = self.pinned.get(&task).copied().or_else(|| self.sample(task));
        // `injected` is a statistics counter; no memory is published
        // through it, so Relaxed increments suffice at every site below.
        // ALLOC: panic-payload formatting happens only when a fault fires.
        match kind {
            Some(FaultKind::Panic) => {
                // ORDERING: statistics counter; no memory is published.
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(format!("injected fault: task {task} panicked"));
            }
            Some(FaultKind::Transient { failures }) if attempt <= failures => {
                // ORDERING: statistics counter; no memory is published.
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(TransientFault { task, attempt });
            }
            _ => {}
        }
    }

    /// Deterministic per-task draw for the sampled transients.
    fn sample(&self, task: TaskId) -> Option<FaultKind> {
        let (p, failures) = self.random_transient?;
        let draw = splitmix64(self.seed ^ (task as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        (unit < p).then_some(FaultKind::Transient { failures })
    }

    /// Parse a CLI-style plan: comma-separated directives
    /// `seed=N`, `panic=T`, `transient=TxK`, `nan=P` (or `nan=PxK` for
    /// K corruptions), `tprob=P.PxK` (sampled transients),
    /// `alloc=SITExK` (pinned allocation failures),
    /// `aprob=P.PxK` (sampled allocation failures), `crash=NODExK` (node
    /// NODE dies after K task completions), `cprob=P.PxK` (sampled node
    /// crashes), `mloss=P.P` / `mdup=P.P` / `mreorder=P.P` (message
    /// loss / duplication / reorder rates for the dist engine).
    /// Example: `seed=42,transient=3x2,nan=0,crash=1x4,mloss=0.05`.
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
                "seed" => plan.seed = num(value)?,
                "panic" => plan = plan.panic_on(num(value)? as usize),
                "transient" => {
                    let (t, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected transient=TASKxCOUNT"))?;
                    plan = plan.transient_on(num(t)? as usize, num(k)? as u32);
                }
                // `nan=P` corrupts panel P once; `nan=PxK` its first K runs.
                "nan" => match value.split_once('x') {
                    Some((p, k)) => {
                        plan = plan.corrupt_panel_times(num(p)? as usize, num(k)? as u32);
                    }
                    None => plan = plan.corrupt_panel(num(value)? as usize),
                },
                "tprob" => {
                    let (p, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected tprob=PROBxCOUNT"))?;
                    let p: f64 = p.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.random_transient(p, num(k)? as u32);
                }
                "alloc" => {
                    let (s, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected alloc=SITExCOUNT"))?;
                    plan = plan.alloc_fail_on(num(s)? as usize, num(k)? as u32);
                }
                "aprob" => {
                    let (p, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected aprob=PROBxCOUNT"))?;
                    let p: f64 = p.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.random_alloc_fail(p, num(k)? as u32);
                }
                "crash" => {
                    let (n, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected crash=NODExCOUNT"))?;
                    plan = plan.crash_node_on(num(n)? as usize, num(k)? as u32);
                }
                "cprob" => {
                    let (p, k) = value
                        .split_once('x')
                        .ok_or_else(|| format!("{item:?}: expected cprob=PROBxCOUNT"))?;
                    let p: f64 = p.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.random_crash(p, num(k)? as u32);
                }
                "mloss" => {
                    let p: f64 = value.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.message_loss(p);
                }
                "mdup" => {
                    let p: f64 = value.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.message_dup(p);
                }
                "mreorder" => {
                    let p: f64 = value.parse().map_err(|e| format!("{item:?}: {e}"))?;
                    plan = plan.message_reorder(p);
                }
                other => return Err(format!("unknown fault directive {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// SplitMix64 — the standard seedable 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// Run configuration
// ---------------------------------------------------------------------

/// Bounded-retry policy for transient task failures. The backoff
/// doubles after each failed attempt.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts allowed per task (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// A sensible retrying policy: 4 attempts, 1 ms → 8 ms backoff.
    pub fn retrying() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        }
    }

    fn backoff_for(&self, failed_attempt: u32) -> Duration {
        let factor = 2f64.powi(failed_attempt.saturating_sub(1) as i32);
        self.backoff.mul_f64(factor.min(1e6))
    }
}

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
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Stall watchdog: if no task starts or completes within this window
    /// while tasks remain and no worker is executing, the run fails with
    /// [`EngineError::Stalled`] instead of deadlocking. `None` disables.
    pub watchdog: Option<Duration>,
    /// Optional memory ledger. When set, the engines consult
    /// [`crate::budget::MemoryBudget::admission_width`] before dispatching
    /// (pressure-aware throttling) and the final [`RunReport`] carries a
    /// [`crate::budget::MemoryStats`] snapshot.
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

impl RunConfig {
    /// Config with retries on and a watchdog, for production solves.
    pub fn resilient() -> RunConfig {
        RunConfig {
            fault_plan: None,
            retry: RetryPolicy::retrying(),
            watchdog: Some(Duration::from_secs(30)),
            budget: None,
            trace: None,
            cancel: None,
        }
    }
}

// ---------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------

/// Why a checked engine run failed.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A task body panicked with a non-transient payload.
    TaskPanicked {
        /// The task.
        task: TaskId,
        /// Stringified panic payload.
        message: String,
        /// Attempts made (≥ 1; > 1 when transient retries preceded the
        /// fatal panic).
        attempts: u32,
    },
    /// A task kept failing transiently past the retry budget.
    RetryBudgetExhausted {
        /// The task.
        task: TaskId,
        /// Attempts made (= `RetryPolicy::max_attempts`).
        attempts: u32,
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
            EngineError::TaskPanicked {
                task,
                message,
                attempts,
            } => write!(
                f,
                "task {task} panicked after {attempts} attempt(s): {message}"
            ),
            EngineError::RetryBudgetExhausted { task, attempts } => write!(
                f,
                "task {task} still failing transiently after {attempts} attempts"
            ),
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
    /// Total retries performed across all tasks.
    pub retries: usize,
    /// Faults the plan injected through its hooks (panics, transients,
    /// NaN, allocation failures, message fates).
    pub faults_injected: usize,
    /// `(task, attempts)` for every task needing more than one attempt.
    pub task_attempts: Vec<(TaskId, u32)>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Memory-ledger snapshot (peaks, spill/throttle/overcommit counters) when
    /// the run carried a [`crate::budget::MemoryBudget`].
    pub memory: Option<crate::budget::MemoryStats>,
}

// ---------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------

/// Outcome of one supervised task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Body ran to completion; release successors, then call
    /// [`Supervisor::task_done`].
    Completed,
    /// Transient failure within budget (backoff already applied);
    /// re-enqueue the task.
    Retry,
    /// Fatal: the error is recorded and the run poisoned; drain.
    Aborted,
}

/// Shared bookkeeping of one checked engine run: panic capture, retries,
/// watchdog, duplicate detection, and the final report.
pub struct Supervisor {
    config: RunConfig,
    attempts: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
    remaining: AtomicUsize,
    running: AtomicUsize,
    retries: AtomicUsize,
    poisoned: AtomicBool,
    error: Mutex<Option<EngineError>>,
    start: Instant,
    /// Nanoseconds (since `start`) of the last observed progress.
    last_progress: AtomicU64,
}

/// Silence the default panic hook for panics *injected* by a
/// [`FaultPlan`] — an absorbed transient would otherwise print a full
/// "thread panicked" backtrace for a run that ends up succeeding. The
/// hook is installed once, process-wide, and delegates every genuine
/// panic to whatever hook was active before. ALLOC: fault injection only,
/// once per process.
fn install_quiet_injection_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let injected = p.downcast_ref::<TransientFault>().is_some()
                || p.downcast_ref::<String>()
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
        // ALLOC: run setup — two per-task tables, once per run.
        Supervisor {
            config,
            attempts: (0..ntasks).map(|_| AtomicU32::new(0)).collect(),
            done: (0..ntasks).map(|_| AtomicBool::new(false)).collect(),
            remaining: AtomicUsize::new(ntasks),
            running: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
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

    /// Pressure-aware admission throttle. Returns `false` when the
    /// memory budget's admission width is saturated by already-running
    /// tasks — the worker should idle briefly instead of dispatching.
    /// Always admits when nothing is running, so a throttled run can
    /// never starve (and the watchdog can never see a fully-throttled
    /// live graph stall forever).
    pub fn try_admit(&self) -> bool {
        let Some(budget) = self.config.budget.as_ref() else {
            return true;
        };
        let Some(width) = budget.admission_width() else {
            return true;
        };
        let running = self.running.load(Ordering::Acquire);
        if running < width.max(1) {
            true
        } else {
            budget.note_throttle();
            false
        }
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

    /// Retry backoff that stays responsive to halts: sleeps `total` in
    /// millisecond slices, returning early as soon as the run is poisoned
    /// or the cancel token fires — a long exponential backoff must never
    /// delay a deadline cancellation or keep a poisoned run alive.
    fn backoff_sleep(&self, total: Duration) {
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed();
            if elapsed >= total || self.halted() {
                return;
            }
            if let Some(token) = self.config.cancel.as_deref() {
                if token.is_cancelled() {
                    return;
                }
            }
            // IO: error path only — a transient failure's retry backoff.
            std::thread::sleep((total - elapsed).min(Duration::from_millis(1)));
        }
    }

    /// Run one attempt of `task` under the panic net, with fault injection
    /// and retry/backoff handling. The engine re-enqueues on
    /// [`TaskOutcome::Retry`], releases successors and calls
    /// [`Supervisor::task_done`] on [`TaskOutcome::Completed`], and drains
    /// on [`TaskOutcome::Aborted`].
    pub fn run_task<F: FnOnce()>(&self, task: TaskId, body: F) -> TaskOutcome {
        if self.check_cancel() {
            return TaskOutcome::Aborted;
        }
        // BOUNDS: the executor only dispatches ids < ntasks, the length of
        // the `done`/`attempts` tables.
        if self.done[task].load(Ordering::Acquire) {
            self.poison_with(EngineError::DuplicateExecution { task });
            return TaskOutcome::Aborted;
        }
        let attempt = self.attempts[task].fetch_add(1, Ordering::AcqRel) + 1;
        self.running.fetch_add(1, Ordering::AcqRel);
        self.note_progress();
        let plan = self.config.fault_plan.as_deref();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = plan {
                plan.inject(task, attempt);
            }
            body();
        }));
        self.running.fetch_sub(1, Ordering::AcqRel);
        self.note_progress();
        match result {
            Ok(()) => TaskOutcome::Completed,
            Err(payload) => {
                if payload.is::<TransientFault>() {
                    if attempt < self.config.retry.max_attempts {
                        // ORDERING: statistics counter; no memory is
                        // published.
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        self.backoff_sleep(self.config.retry.backoff_for(attempt));
                        self.note_progress();
                        TaskOutcome::Retry
                    } else {
                        self.poison_with(EngineError::RetryBudgetExhausted {
                            task,
                            attempts: attempt,
                        });
                        TaskOutcome::Aborted
                    }
                } else {
                    self.poison_with(EngineError::TaskPanicked {
                        task,
                        message: panic_message(&*payload),
                        attempts: attempt,
                    });
                    TaskOutcome::Aborted
                }
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
        let ntasks = self.attempts.len();
        let completed = ntasks - self.remaining();
        // ALLOC: the retried tasks' table, once per run.
        let task_attempts: Vec<(TaskId, u32)> = self
            .attempts
            .iter()
            .enumerate()
            .filter_map(|(t, a)| {
                let a = a.load(Ordering::Acquire);
                (a > 1).then_some((t, a))
            })
            .collect();
        Ok(RunReport {
            ntasks,
            completed,
            // ORDERING: statistics counter; `finish(self)` runs after
            // every worker joined, and join supplies the happens-before
            // edge for the final value.
            retries: self.retries.load(Ordering::Relaxed),
            faults_injected: self
                .config
                .fault_plan
                .as_deref()
                .map_or(0, FaultPlan::faults_injected),
            task_attempts,
            elapsed: self.start.elapsed(),
            memory: self
                .config
                .budget
                .as_deref()
                .map(crate::budget::MemoryBudget::stats),
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
mod tests {
    use super::*;

    #[test]
    fn pinned_transient_fails_then_passes() {
        let plan = FaultPlan::new().transient_on(3, 2);
        // Attempts 1 and 2 panic with a TransientFault payload.
        for attempt in 1..=2 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.inject(3, attempt)
            }));
            let payload = r.expect_err("injection should fail");
            assert!(payload.is::<TransientFault>());
        }
        // Attempt 3 passes.
        plan.inject(3, 3);
        // Other tasks never fail.
        plan.inject(4, 1);
        assert_eq!(plan.faults_injected(), 2);
    }

    #[test]
    fn sampled_faults_are_deterministic() {
        let a = FaultPlan::with_seed(7).random_transient(0.3, 1);
        let b = FaultPlan::with_seed(7).random_transient(0.3, 1);
        for t in 0..256 {
            assert_eq!(a.sample(t).is_some(), b.sample(t).is_some(), "task {t}");
        }
        let hits = (0..1024).filter(|&t| a.sample(t).is_some()).count();
        assert!((150..500).contains(&hits), "sampled rate off: {hits}/1024");
    }

    #[test]
    fn corruption_budget_is_consumed() {
        let plan = FaultPlan::new().corrupt_panel_times(5, 2);
        assert!(plan.take_corruption(5));
        assert!(plan.take_corruption(5));
        assert!(!plan.take_corruption(5));
        assert!(!plan.take_corruption(6));
    }

    #[test]
    fn parse_roundtrip() {
        let plan = FaultPlan::parse("seed=9,transient=3x2,panic=7,nan=0").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.pinned.get(&3), Some(&FaultKind::Transient { failures: 2 }));
        assert_eq!(plan.pinned.get(&7), Some(&FaultKind::Panic));
        assert!(plan.take_corruption(0));
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("frob=1").is_err());
        assert!(FaultPlan::parse("transient=3").is_err());
    }

    #[test]
    fn alloc_fail_pinned_consumes_and_recovers() {
        let plan = FaultPlan::new().alloc_fail_on(4, 2);
        assert!(plan.take_alloc_fail(4));
        assert!(plan.take_alloc_fail(4));
        assert!(!plan.take_alloc_fail(4), "failure budget exhausted");
        assert!(!plan.take_alloc_fail(5), "other sites unaffected");
        assert_eq!(plan.faults_injected(), 2);
    }

    #[test]
    fn alloc_fail_sampled_is_deterministic_per_site() {
        let decide = |seed: u64, site: usize| {
            FaultPlan::with_seed(seed)
                .random_alloc_fail(0.3, 1)
                .take_alloc_fail(site)
        };
        let hits = (0..512).filter(|&s| decide(11, s)).count();
        assert!((80..250).contains(&hits), "sampled alloc rate off: {hits}/512");
        for site in 0..64 {
            assert_eq!(decide(11, site), decide(11, site), "site {site}");
        }
        // Sampled failures also consume a per-site budget.
        let plan = FaultPlan::with_seed(11).random_alloc_fail(1.0, 1);
        assert!(plan.take_alloc_fail(40));
        assert!(!plan.take_alloc_fail(40));
    }

    #[test]
    fn parse_alloc_directives() {
        let plan = FaultPlan::parse("alloc=64x2,aprob=0.5x3").unwrap();
        assert_eq!(plan.alloc_pinned.get(&64), Some(&2));
        assert_eq!(plan.random_alloc, Some((0.5, 3)));
        assert!(FaultPlan::parse("alloc=64").is_err());
        assert!(FaultPlan::parse("aprob=0.5").is_err());
    }

    #[test]
    fn supervisor_retries_then_completes() {
        let plan = Arc::new(FaultPlan::new().transient_on(0, 2));
        let sup = Supervisor::new(1, RunConfig {
            fault_plan: Some(plan),
            retry: RetryPolicy::retrying(),
            ..RunConfig::default()
        });
        let mut runs = 0;
        assert_eq!(sup.run_task(0, || runs += 1), TaskOutcome::Retry);
        assert_eq!(sup.run_task(0, || runs += 1), TaskOutcome::Retry);
        assert_eq!(sup.run_task(0, || runs += 1), TaskOutcome::Completed);
        sup.task_done(0);
        assert_eq!(runs, 1, "body must not run on injected-failure attempts");
        let report = sup.finish().unwrap();
        assert_eq!(report.retries, 2);
        assert_eq!(report.task_attempts, vec![(0, 3)]);
        assert_eq!(report.faults_injected, 2);
    }

    #[test]
    fn supervisor_exhausts_retry_budget() {
        let plan = Arc::new(FaultPlan::new().transient_on(0, 99));
        let sup = Supervisor::new(1, RunConfig {
            fault_plan: Some(plan),
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_micros(10),
            },
            ..RunConfig::default()
        });
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Retry);
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Retry);
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Aborted);
        match sup.finish() {
            Err(EngineError::RetryBudgetExhausted { task: 0, attempts: 3 }) => {}
            other => panic!("expected RetryBudgetExhausted, got {other:?}"),
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
    fn node_crash_pinned_and_sampled() {
        let plan = FaultPlan::new().crash_node_on(2, 3);
        assert_eq!(plan.node_crash_point(2), Some(3));
        assert_eq!(plan.node_crash_point(0), None);
        // Sampled crashes are deterministic per (seed, node) and hit at
        // roughly the requested rate.
        let decide = |node| FaultPlan::with_seed(13).random_crash(0.25, 1).node_crash_point(node);
        let hits = (0..1024).filter(|&n| decide(n).is_some()).count();
        assert!((130..420).contains(&hits), "sampled crash rate off: {hits}/1024");
        for node in 0..64 {
            assert_eq!(decide(node), decide(node), "node {node}");
        }
        // Pinned beats sampled.
        let plan = FaultPlan::with_seed(13).random_crash(0.0, 9).crash_node_on(5, 7);
        assert_eq!(plan.node_crash_point(5), Some(7));
    }

    #[test]
    fn message_fates_are_deterministic_and_independent() {
        let plan = FaultPlan::with_seed(21)
            .message_loss(0.3)
            .message_dup(0.3)
            .message_reorder(0.3);
        let twin = FaultPlan::with_seed(21)
            .message_loss(0.3)
            .message_dup(0.3)
            .message_reorder(0.3);
        let (mut lost, mut dup, mut reord, mut all_three) = (0, 0, 0, 0);
        for seq in 0..2048u64 {
            let f = plan.message_fate(seq);
            assert_eq!(f, twin.message_fate(seq), "seq {seq}");
            lost += f.lost as usize;
            dup += f.duplicated as usize;
            reord += f.reordered as usize;
            all_three += (f.lost && f.duplicated && f.reordered) as usize;
        }
        for (name, n) in [("lost", lost), ("dup", dup), ("reorder", reord)] {
            assert!((400..900).contains(&n), "{name} rate off: {n}/2048");
        }
        // Independent salts: the conjunction shows up at ~p³, not ~p.
        assert!(all_three < 150, "fates not independent: {all_three}/2048");
        // A message-free plan injects nothing.
        assert_eq!(FaultPlan::new().message_fate(7), MsgFate::default());
        assert!(plan.faults_injected() > 0);
    }

    #[test]
    fn parse_dist_directives() {
        let plan =
            FaultPlan::parse("seed=4,crash=1x3,cprob=0.1x2,mloss=0.05,mdup=0.02,mreorder=0.1")
                .unwrap();
        assert_eq!(plan.node_crash_point(1), Some(3));
        assert_eq!(plan.random_crash, Some((0.1, 2)));
        assert_eq!(plan.msg_loss, Some(0.05));
        assert_eq!(plan.msg_dup, Some(0.02));
        assert_eq!(plan.msg_reorder, Some(0.1));
        assert!(FaultPlan::parse("crash=1").is_err());
        assert!(FaultPlan::parse("cprob=0.1").is_err());
        assert!(FaultPlan::parse("mloss=x").is_err());
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
    fn cancel_during_retry_backoff_returns_promptly() {
        let plan = Arc::new(FaultPlan::new().transient_on(0, 99));
        let token = CancelToken::new();
        let sup = Supervisor::new(1, RunConfig {
            fault_plan: Some(plan),
            retry: RetryPolicy {
                max_attempts: 10,
                backoff: Duration::from_secs(30),
            },
            cancel: Some(token.clone()),
            ..RunConfig::default()
        });
        let canceller = std::thread::spawn({
            let token = token.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel("deadline");
            }
        });
        // The transient failure schedules a 30 s backoff; the token fires
        // 20 ms in and the sliced sleep must notice — no lost wakeup, no
        // full backoff served.
        let t0 = Instant::now();
        let outcome = sup.run_task(0, || {});
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "backoff ignored the cancellation ({:?})",
            t0.elapsed()
        );
        canceller.join().expect("canceller");
        // The retry outcome stands; the *next* dispatch honors the token.
        assert_eq!(outcome, TaskOutcome::Retry);
        assert_eq!(sup.run_task(0, || {}), TaskOutcome::Aborted);
        assert!(sup.halted());
        assert!(sup.halted(), "halted() is monotone");
        assert!(matches!(sup.finish(), Err(EngineError::Cancelled { .. })));
    }

    #[test]
    fn poison_during_retry_backoff_returns_promptly() {
        let plan = Arc::new(FaultPlan::new().transient_on(0, 99));
        let sup = Arc::new(Supervisor::new(2, RunConfig {
            fault_plan: Some(plan),
            retry: RetryPolicy {
                max_attempts: 10,
                backoff: Duration::from_secs(30),
            },
            ..RunConfig::default()
        }));
        let poisoner = std::thread::spawn({
            let sup = sup.clone();
            move || {
                std::thread::sleep(Duration::from_millis(20));
                sup.poison_with(EngineError::TaskPanicked {
                    task: 1,
                    message: "peer died".into(),
                    attempts: 1,
                });
            }
        });
        let t0 = Instant::now();
        let outcome = sup.run_task(0, || {});
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "backoff ignored the halt ({:?})",
            t0.elapsed()
        );
        poisoner.join().expect("poisoner");
        assert_eq!(outcome, TaskOutcome::Retry);
        assert!(sup.halted());
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
