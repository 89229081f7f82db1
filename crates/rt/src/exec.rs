//! The executor core: one worker loop that runs any task DAG
//! ([`PtgProgram`]) to completion on `nworkers` threads, under one of
//! three *placement policies*.
//!
//! The paper compares one factorization DAG under three schedulers (§IV).
//! What distinguishes them on a shared-memory node is only where a ready
//! task is queued, so that is all a policy is here — a two-field constant
//! picked from [`RuntimeKind`]:
//!
//! | kind | seeds go to | released successors go to |
//! |---|---|---|
//! | `Native` (PaStiX) | the static owner's deque | the releasing worker's deque |
//! | `Ptg` (PaRSEC) | the shared injector | the releasing worker's deque |
//! | `Dataflow` (StarPU) | the shared injector | the shared injector |
//!
//! `Native` replays the analyze-time list schedule and recovers from model
//! error by stealing; `Ptg` has no static mapping but keeps the freshly
//! written panel hot by releasing locally; `Dataflow` is StarPU's central
//! queue with no locality ("does not have a data-reuse policy on
//! CPU-shared memory systems", §V-A).
//!
//! Every worker runs the same loop: own deque → injector → batch-steal
//! from the most loaded victim → [`Supervisor::run_task`] → checked
//! fan-in release of the successors → place them → `task_done` (or drain
//! on abort). The shared queue is the mutex-backed FIFO [`Injector`], one
//! lock per push and per pop: it takes every seed of `Ptg` and `Dataflow`
//! and, under `Dataflow`, every released task too. The workers' deques are
//! bounded Chase-Lev rings ([`crate::deque`]) that spill to the injector
//! on overflow, so correctness never depends on a capacity. (A bounded
//! lock-free injector measured no gain for `Dataflow`: its gap to `Ptg` is
//! the lost locality of a FIFO, not the lock — EXPERIMENTS.md.)
//!
//! Priority is a heuristic, not an invariant: within one seed or release
//! batch the most critical task is the one taken first (pushed last onto
//! the owner-LIFO deque, first into the FIFO injector), and thieves take
//! a deque's cold end.

use crate::deque::{Injector, Stealer, WorkerDeque};
use crate::fault::{EngineError, RunConfig, RunReport, Supervisor, TaskOutcome};
use crate::ptg::PtgProgram;
use crate::shared::release_pending;
use crate::sync::atomic::AtomicU32;
use crate::trace::{Lane, SpanKind};
use crate::{RuntimeKind, TaskId};

/// Where a batch of ready tasks is queued.
#[derive(Clone, Copy)]
enum Place {
    /// A worker's deque: the static owner's for seeds, the releasing
    /// worker's for successors.
    Deque,
    /// The shared FIFO injector.
    Injector,
}

impl RuntimeKind {
    /// `(seed placement, release placement)` — the whole policy.
    fn placement(self) -> (Place, Place) {
        match self {
            RuntimeKind::Native => (Place::Deque, Place::Deque),
            RuntimeKind::Ptg => (Place::Injector, Place::Deque),
            RuntimeKind::Dataflow => (Place::Injector, Place::Injector),
        }
    }
}

/// Upper bound on tasks moved per steal round: the first comes back to
/// run immediately, the rest land on the thief's deque so it does not
/// return to the victim scan after every single task.
const STEAL_BATCH: usize = 8;

/// Cap on the per-worker ring size; deeper backlogs spill to the
/// injector, which is correct (just slower) and keeps setup cost bounded
/// for huge DAGs.
const MAX_DEQUE_CAP: usize = 8192;

/// Run `dag` to completion on `nworkers` threads under `kind`'s placement
/// policy.
///
/// `dag.execute(task, worker)` is called exactly once per task, only
/// after all of the task's predecessors completed. Task panics become
/// [`EngineError::TaskPanicked`], a malformed DAG surfaces as
/// [`EngineError::ReleaseUnderflow`] or — via the watchdog —
/// [`EngineError::Stalled`], and zero workers is
/// [`EngineError::NoWorkers`].
pub fn run<D: PtgProgram>(
    dag: &D,
    kind: RuntimeKind,
    nworkers: usize,
    config: RunConfig,
) -> Result<RunReport, EngineError> {
    if nworkers == 0 {
        return Err(EngineError::NoWorkers);
    }
    let (seed_place, release_place) = kind.placement();
    let ntasks = dag.num_tasks();
    // ALLOC: run setup — one tracer handle, one counter table and one
    // ring per worker per run; the per-task paths below never allocate.
    let tracer = config.trace.clone();
    let sup = Supervisor::new(ntasks, config);
    if ntasks == 0 {
        return sup.finish();
    }
    // ALLOC: the only per-task scheduler state (remaining-predecessor
    // counters) and the rings, built before any worker exists.
    let pending: Vec<AtomicU32> = (0..ntasks)
        .map(|t| AtomicU32::new(dag.num_predecessors(t)))
        .collect();
    let cap = ntasks.min(MAX_DEQUE_CAP);
    let deques: Vec<WorkerDeque> = (0..nworkers)
        .map(|_| WorkerDeque::with_capacity(cap))
        .collect();
    let stealers: Vec<Stealer> = deques.iter().map(WorkerDeque::stealer).collect();
    let injector: Injector<TaskId> = Injector::new();

    // Seed the initially-ready tasks. Pushing into other workers' deques
    // is an owner-side operation, but no worker thread exists yet and
    // `thread::scope`'s spawn edge publishes the rings, so the
    // single-threaded seed phase is sound.
    // ALLOC: the seed list is built once, before any worker exists.
    let mut seeds: Vec<TaskId> = (0..ntasks)
        .filter(|&t| dag.num_predecessors(t) == 0)
        .collect();
    // BOUNDS: owners are reduced `% nworkers == deques.len()`.
    place(dag, &mut seeds, seed_place, |t| &deques[dag.static_owner(t) % nworkers], &injector);

    let traceref = tracer.as_deref();
    let body = |worker: usize| {
        // BOUNDS: `worker` is the scope-spawn index, < nworkers == deques.len().
        let local = &deques[worker];
        // ALLOC: once per worker; the buffer keeps its high-water capacity
        // across tasks.
        let mut ready: Vec<TaskId> = Vec::with_capacity(32);
        let mut lane = Lane::new(traceref, worker);
        // Open interval of not-executing time; closed (as QueueWait or
        // Steal) when the next task is acquired.
        let mut wait_from = lane.now();
        while sup.remaining() > 0 && !sup.halted() {
            // Own deque first (locality), then the injector (seeds,
            // overflow spills, the central queue), and last a steal — the
            // only acquisition recorded as `Steal`: a take from another
            // worker's deque.
            let next = local
                .pop()
                .or_else(|| injector.steal())
                .map(|t| (t, SpanKind::QueueWait))
                .or_else(|| {
                    steal(&stealers, local, &injector, worker).map(|t| (t, SpanKind::Steal))
                });
            let Some((t, acquired_by)) = next else {
                // Idle: service the watchdog, then yield to the OS.
                if sup.idle_check() {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            lane.record(acquired_by, Some(t), wait_from);
            let exec_from = lane.now();
            let outcome = sup.run_task(t, || dag.execute(t, worker));
            lane.record(SpanKind::Execute, Some(t), exec_from);
            wait_from = lane.now();
            match outcome {
                TaskOutcome::Completed => {
                    // Checked fan-in decrement: keep the successors this
                    // completion made ready; an underflow (duplicate edge /
                    // understated predecessor count) poisons the run
                    // instead of silently wrapping the counter.
                    ready.clear();
                    dag.successors(t, &mut ready);
                    let mut underflow = None;
                    // BOUNDS: successor ids < ntasks index `pending`.
                    ready.retain(|&s| {
                        release_pending(&pending[s], s).unwrap_or_else(|e| {
                            underflow = Some(e.succ);
                            false
                        })
                    });
                    if let Some(task) = underflow {
                        sup.poison_with(EngineError::ReleaseUnderflow { task });
                        return;
                    }
                    place(dag, &mut ready, release_place, |_| local, &injector);
                    sup.task_done(t);
                }
                TaskOutcome::Aborted => break,
            }
        }
    };

    if nworkers == 1 {
        body(0);
    } else {
        std::thread::scope(|scope| {
            let body = &body;
            for w in 1..nworkers {
                scope.spawn(move || body(w));
            }
            body(0);
        });
    }
    sup.finish()
}

/// Queue a batch of ready tasks so the most critical one is taken first:
/// sorted by ascending priority, it is pushed last onto the owner-LIFO
/// deque, and first into the FIFO injector. A full ring spills to the
/// injector, so no task is ever dropped.
fn place<'d, D: PtgProgram>(
    dag: &D,
    ready: &mut [TaskId],
    to: Place,
    deque_of: impl Fn(TaskId) -> &'d WorkerDeque,
    injector: &Injector<TaskId>,
) {
    ready.sort_unstable_by(|&a, &b| dag.priority(a).total_cmp(&dag.priority(b)));
    match to {
        Place::Deque => {
            for &t in ready.iter() {
                push_or_spill(deque_of(t), injector, t);
            }
        }
        // ALLOC: the injector's queue grows to its high-water mark once.
        Place::Injector => {
            for &t in ready.iter().rev() {
                injector.push(t);
            }
        }
    }
}

/// Steal a batch of ready tasks from the most loaded victim's cold (FIFO)
/// end: the first stolen task is returned to run now, the rest land on
/// the thief's own deque (spilling to the injector if it is full). PaStiX
/// steals "cold" work so the owner keeps the critical path; here the cold
/// end is the FIFO end by construction.
fn steal(
    stealers: &[Stealer],
    local: &WorkerDeque,
    injector: &Injector<TaskId>,
    thief: usize,
) -> Option<TaskId> {
    // Victim scan on the racy length snapshots — no locks, no CAS until
    // a victim is chosen.
    let mut victim = None;
    let mut best_len = 0usize;
    for (v, s) in stealers.iter().enumerate() {
        let len = s.len();
        if v != thief && len > best_len {
            best_len = len;
            victim = Some(s);
        }
    }
    victim?.steal_batch(STEAL_BATCH, |t| push_or_spill(local, injector, t))
}

/// Owner-side push that never drops a task: a full ring hands the task
/// back and it spills to the injector (correct, just colder).
fn push_or_spill(deque: &WorkerDeque, injector: &Injector<TaskId>, task: TaskId) {
    // ALLOC: store-only ring push; the injector push runs only on the
    // capacity-overflow spill path.
    if let Err(task) = deque.push(task) {
        injector.push(task);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests sleep to shape schedules
mod tests {
    use super::*;
    use crate::native::{NativeDag, NativeTask};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Run a task array under `kind` with the default config.
    fn run_tasks<F: Fn(TaskId, usize) + Sync>(
        tasks: &[NativeTask],
        kind: RuntimeKind,
        nworkers: usize,
        execute: F,
    ) -> Result<RunReport, EngineError> {
        run(&NativeDag { tasks, execute }, kind, nworkers, RunConfig::default())
    }

    /// Build a fork-join diamond: 0 -> {1..=w} -> w+1.
    fn diamond(width: usize) -> Vec<NativeTask> {
        let mut tasks = vec![NativeTask {
            owner: 0,
            npred: 0,
            succs: (1..=width).collect(),
            priority: 10.0,
        }];
        for i in 1..=width {
            tasks.push(NativeTask {
                owner: i % 3,
                npred: 1,
                succs: vec![width + 1],
                priority: 5.0,
            });
        }
        tasks.push(NativeTask {
            owner: 0,
            npred: width as u32,
            succs: vec![],
            priority: 1.0,
        });
        tasks
    }

    /// A 2D "wavefront" program: task (i, j) depends on (i-1, j) and
    /// (i, j-1) — the classic PTG example from the DPLASMA papers, with
    /// nothing materialized.
    struct Wavefront {
        n: usize,
        log: Mutex<Vec<usize>>,
    }
    impl PtgProgram for Wavefront {
        fn num_tasks(&self) -> usize {
            self.n * self.n
        }
        fn num_predecessors(&self, t: usize) -> u32 {
            let (i, j) = (t / self.n, t % self.n);
            u32::from(i > 0) + u32::from(j > 0)
        }
        fn successors(&self, t: usize, out: &mut Vec<usize>) {
            let (i, j) = (t / self.n, t % self.n);
            if i + 1 < self.n {
                out.push(t + self.n);
            }
            if j + 1 < self.n {
                out.push(t + 1);
            }
        }
        fn execute(&self, t: usize, _w: usize) {
            self.log.lock().unwrap().push(t);
        }
        fn priority(&self, t: usize) -> f64 {
            // Anti-diagonal depth: earlier waves are more urgent.
            -((t / self.n + t % self.n) as f64)
        }
    }

    #[test]
    fn executes_every_task_once_respecting_deps() {
        for kind in RuntimeKind::ALL {
            for nworkers in [1, 2, 4] {
                let tasks = diamond(16);
                let n = tasks.len();
                let run_count: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let log = Mutex::new(Vec::new());
                let report = run_tasks(&tasks, kind, nworkers, |t, _w| {
                    run_count[t].fetch_add(1, Ordering::SeqCst);
                    log.lock().unwrap().push(t);
                })
                .unwrap();
                assert_eq!((report.ntasks, report.completed), (n, n));
                for (t, c) in run_count.iter().enumerate() {
                    assert_eq!(c.load(Ordering::SeqCst), 1, "{kind:?}: task {t} ran wrong count");
                }
                let log = log.into_inner().unwrap();
                // Source before everything, sink after everything.
                assert_eq!(log[0], 0, "{kind:?}");
                assert_eq!(log[n - 1], n - 1, "{kind:?}");
            }
        }
    }

    #[test]
    fn chain_executes_in_order() {
        let n = 100;
        let tasks: Vec<NativeTask> = (0..n)
            .map(|i| NativeTask {
                owner: i % 4,
                npred: u32::from(i > 0),
                succs: if i + 1 < n { vec![i + 1] } else { vec![] },
                priority: (n - i) as f64,
            })
            .collect();
        for kind in RuntimeKind::ALL {
            for nworkers in [1, 4] {
                let log = Mutex::new(Vec::new());
                run_tasks(&tasks, kind, nworkers, |t, _| log.lock().unwrap().push(t)).unwrap();
                assert_eq!(log.into_inner().unwrap(), (0..n).collect::<Vec<_>>(), "{kind:?}");
            }
        }
    }

    #[test]
    fn wavefront_respects_dependencies() {
        for kind in RuntimeKind::ALL {
            for nworkers in [1, 2, 4] {
                let p = Wavefront {
                    n: 12,
                    log: Mutex::new(Vec::new()),
                };
                run(&p, kind, nworkers, RunConfig::default()).unwrap();
                let log = p.log.into_inner().unwrap();
                assert_eq!(log.len(), 144);
                let mut pos = vec![0usize; 144];
                for (k, &t) in log.iter().enumerate() {
                    pos[t] = k;
                }
                for t in 0..144 {
                    if t >= 12 {
                        assert!(pos[t - 12] < pos[t], "{kind:?}");
                    }
                    if t % 12 > 0 {
                        assert!(pos[t - 1] < pos[t], "{kind:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn work_stealing_rebalances_bad_static_mapping() {
        // All tasks statically mapped to worker 0; with 4 workers the
        // thieves must still participate (checked via per-worker counts).
        let width = 64;
        let mut tasks = diamond(width);
        for t in &mut tasks {
            t.owner = 0;
        }
        for kind in [RuntimeKind::Native, RuntimeKind::Ptg] {
            let worker_hits = [const { AtomicUsize::new(0) }; 4];
            run_tasks(&tasks, kind, 4, |_t, w| {
                worker_hits[w].fetch_add(1, Ordering::SeqCst);
                // Make the middle tasks long enough for thieves to wake up.
                std::thread::sleep(std::time::Duration::from_micros(200));
            })
            .unwrap();
            let total: usize = worker_hits.iter().map(|c| c.load(Ordering::SeqCst)).sum();
            assert_eq!(total, width + 2);
            let thieves: usize = worker_hits[1..].iter().map(|c| c.load(Ordering::SeqCst)).sum();
            assert!(thieves > 0, "{kind:?}: no stealing happened");
        }
    }

    #[test]
    fn priority_orders_seeds_and_each_release() {
        // Three independent seeds, then one source unlocking 8 successors
        // with distinct priorities, run single-threaded: under every
        // policy the most critical task of a batch is taken first.
        let width = 8usize;
        let mut tasks: Vec<NativeTask> = [1.0, 3.0, 2.0]
            .iter()
            .map(|&priority| NativeTask {
                owner: 0,
                npred: 0,
                succs: vec![],
                priority,
            })
            .collect();
        tasks[1].succs = (3..3 + width).collect();
        for i in 0..width {
            tasks.push(NativeTask {
                owner: 0,
                npred: 1,
                succs: vec![],
                priority: 10.0 + i as f64,
            });
        }
        for kind in RuntimeKind::ALL {
            let log = Mutex::new(Vec::new());
            run_tasks(&tasks, kind, 1, |t, _| log.lock().unwrap().push(t)).unwrap();
            let log = log.into_inner().unwrap();
            assert_eq!(log[0], 1, "{kind:?}: most critical seed first");
            let released: Vec<usize> = log.iter().copied().filter(|&t| t >= 3).collect();
            let expected: Vec<usize> = (3..3 + width).rev().collect();
            assert_eq!(released, expected, "{kind:?}: successors highest-priority first");
            let seeds: Vec<usize> = log.iter().copied().filter(|&t| t < 3).collect();
            assert_eq!(seeds, vec![1, 2, 0], "{kind:?}: seeds by priority");
        }
    }

    #[test]
    fn deque_overflow_spills_to_injector_and_completes() {
        // One source releases 20k tasks at once on 2 workers: the
        // per-worker ring caps at MAX_DEQUE_CAP, so the release (and the
        // 20k-wide seed batch of the second half) must overflow into the
        // injector; every task still runs exactly once.
        let n = 20_000usize;
        assert!(n / 2 > MAX_DEQUE_CAP, "scenario must exercise the spill path");
        let mut tasks: Vec<NativeTask> = (0..n)
            .map(|i| NativeTask {
                owner: i % 2,
                npred: u32::from(i > 0 && i < n / 2),
                succs: vec![],
                priority: (i % 97) as f64,
            })
            .collect();
        tasks[0].succs = (1..n / 2).collect();
        for kind in RuntimeKind::ALL {
            let run_count: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(&tasks, kind, 2, |t, _| {
                run_count[t].fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
            for (t, c) in run_count.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "{kind:?}: task {t} ran wrong count");
            }
        }
    }

    #[test]
    fn empty_dag_returns_immediately() {
        for kind in RuntimeKind::ALL {
            let report = run_tasks(&[], kind, 4, |_, _| panic!("no task to run")).unwrap();
            assert_eq!(report.ntasks, 0);
        }
    }

    #[test]
    fn duplicate_successor_edge_reports_release_underflow() {
        // Task 0 lists task 1 twice but task 1 only counts one
        // predecessor: the second release used to wrap the counter to
        // u32::MAX and silently mask the corrupted graph.
        let tasks = vec![
            NativeTask {
                owner: 0,
                npred: 0,
                succs: vec![1, 1],
                priority: 1.0,
            },
            NativeTask {
                owner: 0,
                npred: 1,
                succs: vec![],
                priority: 0.0,
            },
        ];
        for kind in RuntimeKind::ALL {
            let err = run_tasks(&tasks, kind, 2, |_, _| {}).unwrap_err();
            assert!(
                matches!(err, EngineError::ReleaseUnderflow { task: 1 }),
                "{kind:?}: expected ReleaseUnderflow for task 1, got: {err}"
            );
        }
    }
}
