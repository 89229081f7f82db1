//! Cross-policy fault-injection suite: one chain DAG, run through
//! `exec::run` under each placement policy, must survive the same fault
//! plans with identical observable semantics — a mid-DAG panic surfaces
//! as `Err(EngineError::TaskPanicked)` without hanging or aborting the
//! process, and a broken dependency graph trips the watchdog instead of
//! deadlocking.
//!
//! Every test runs the executor on a helper thread with a hard timeout so
//! a regression that re-introduces a hang fails the test instead of
//! wedging the suite.

use dagfact_rt::exec;
use dagfact_rt::native::{NativeDag, NativeTask};
use dagfact_rt::{EngineError, FaultPlan, RunConfig, RunReport, RuntimeKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Hard wall-clock bound for one run; far above anything the tiny DAGs
/// here need, far below the CI timeout.
const TEST_TIMEOUT: Duration = Duration::from_secs(20);

const NTASKS: usize = 64;
const NWORKERS: usize = 4;

/// Run `f` on a scoped thread and panic if it exceeds [`TEST_TIMEOUT`]
/// (the executor hung — exactly the regression this suite guards against).
fn with_timeout<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(TEST_TIMEOUT) {
            Ok(r) => r,
            Err(_) => panic!("executor did not finish within {TEST_TIMEOUT:?}: hang regression"),
        }
    })
}

/// A chain DAG (task t depends on t-1) — the worst case for fault
/// propagation because every task after the faulty one is still pending
/// when the run is poisoned.
fn chain_tasks() -> Vec<NativeTask> {
    (0..NTASKS)
        .map(|t| NativeTask {
            owner: t % NWORKERS,
            npred: u32::from(t > 0),
            succs: if t + 1 < NTASKS { vec![t + 1] } else { vec![] },
            priority: 0.0,
        })
        .collect()
}

/// Run `tasks` under `kind` on a watched thread; returns the result and
/// how many bodies executed.
fn run_counted(
    tasks: &[NativeTask],
    kind: RuntimeKind,
    nworkers: usize,
    config: RunConfig,
) -> (Result<RunReport, EngineError>, usize) {
    with_timeout(|| {
        let executed = AtomicUsize::new(0);
        let dag = NativeDag {
            tasks,
            execute: |_, _| {
                executed.fetch_add(1, Ordering::Relaxed);
            },
        };
        let r = exec::run(&dag, kind, nworkers, config);
        (r, executed.load(Ordering::Relaxed))
    })
}

fn watched(window: Duration) -> RunConfig {
    RunConfig {
        watchdog: Some(window),
        ..RunConfig::default()
    }
}

/// Injected panic → Err(TaskPanicked), no hang, successors cancelled.
#[test]
fn panic_injection_returns_error_under_every_policy() {
    for kind in RuntimeKind::ALL {
        let config = RunConfig {
            fault_plan: Some(Arc::new(FaultPlan::new().panic_on(NTASKS / 2))),
            ..watched(Duration::from_secs(10))
        };
        let (result, executed) = run_counted(&chain_tasks(), kind, NWORKERS, config);
        // The injection fires before the body: the faulty task and its
        // descendants never execute.
        assert_eq!(executed, NTASKS / 2, "{kind:?}");
        match result {
            Err(EngineError::TaskPanicked { task, .. }) => {
                assert_eq!(task, NTASKS / 2, "{kind:?}");
            }
            other => panic!("{kind:?}: expected TaskPanicked, got {other:?}"),
        }
    }
}

/// A genuine (non-injected) body panic must also surface as an error with
/// the original payload preserved.
#[test]
fn real_body_panic_is_captured_with_message() {
    let tasks = chain_tasks();
    for kind in RuntimeKind::ALL {
        let result = with_timeout(|| {
            let dag = NativeDag {
                tasks: &tasks,
                execute: |t, _| assert!(t != 7, "numerics exploded"),
            };
            exec::run(&dag, kind, NWORKERS, watched(Duration::from_secs(10)))
        });
        match result {
            Err(EngineError::TaskPanicked { task: 7, message, .. }) => {
                assert!(message.contains("numerics exploded"), "{kind:?}: {message}");
            }
            other => panic!("{kind:?}: expected TaskPanicked{{task:7}}, got {other:?}"),
        }
    }
}

/// Watchdog: a broken DAG stalls → Err(Stalled) instead of deadlock.
#[test]
fn watchdog_detects_unsatisfiable_dag() {
    // Task 1 claims a predecessor that no task releases.
    let tasks = vec![
        NativeTask { owner: 0, npred: 0, succs: vec![], priority: 0.0 },
        NativeTask { owner: 0, npred: 1, succs: vec![], priority: 0.0 },
    ];
    for kind in RuntimeKind::ALL {
        match run_counted(&tasks, kind, 2, watched(Duration::from_millis(200))).0 {
            Err(EngineError::Stalled { remaining, stuck, .. }) => {
                assert_eq!((remaining, stuck), (1, vec![1]), "{kind:?}");
            }
            other => panic!("{kind:?}: expected Stalled, got {other:?}"),
        }
    }
}

/// Slow task bodies never fail a watched run — they only stretch it.
#[test]
fn injected_delays_do_not_fail_the_run() {
    let tasks = chain_tasks();
    for kind in RuntimeKind::ALL {
        let report = with_timeout(|| {
            let dag = NativeDag {
                tasks: &tasks,
                execute: |t, _| {
                    if t == 1 || t == 2 {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                },
            };
            exec::run(&dag, kind, NWORKERS, watched(Duration::from_secs(10)))
        })
        .unwrap();
        assert_eq!(report.completed, NTASKS, "{kind:?}");
    }
}

/// Zero workers is a configuration error, rejected as a structured
/// `EngineError::NoWorkers` instead of an assert in the entry point
/// (hot-path purity: a panic-free executor).
#[test]
fn zero_workers_is_a_structured_rejection() {
    for kind in RuntimeKind::ALL {
        let (r, executed) = run_counted(&chain_tasks(), kind, 0, RunConfig::default());
        assert!(matches!(r, Err(EngineError::NoWorkers)), "{kind:?}: {r:?}");
        assert_eq!(executed, 0);
    }
}
