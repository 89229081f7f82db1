//! A panicking task body must reach the caller as a typed
//! `EngineError::TaskPanicked` instead of deadlocking the worker pool or
//! unwinding through it — under every policy, at every worker count.

use dagfact_rt::exec;
use dagfact_rt::native::{NativeDag, NativeTask};
use dagfact_rt::{EngineError, RunConfig, RuntimeKind};

#[test]
fn task_panic_is_typed_under_every_policy_and_worker_count() {
    let tasks: Vec<NativeTask> = (0..64)
        .map(|i| NativeTask {
            owner: i % 4,
            npred: 0,
            succs: vec![],
            priority: 0.0,
        })
        .collect();
    for kind in RuntimeKind::ALL {
        for nworkers in [1usize, 4] {
            let dag = NativeDag {
                tasks: &tasks,
                execute: |t, _| {
                    if t == 13 {
                        panic!("boom");
                    }
                },
            };
            match exec::run(&dag, kind, nworkers, RunConfig::default()) {
                Err(EngineError::TaskPanicked { task: 13, message }) => {
                    assert_eq!(message, "boom", "{kind:?}/{nworkers}");
                }
                other => panic!("{kind:?}/{nworkers}: task panic was swallowed: {other:?}"),
            }
        }
    }
}
