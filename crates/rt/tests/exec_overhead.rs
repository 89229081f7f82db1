//! Release-only ratio gate on the bare executor (`make check-robust`;
//! prints, writes nothing): with no-op task bodies nothing but the
//! runtime is on the clock. Absolute per-task cost in a real
//! factorization is `rt.overhead_ns_per_task_*` in BENCHMARK.json.

use dagfact_rt::native::{NativeDag, NativeTask};
use dagfact_rt::{exec, RunConfig, RuntimeKind};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One shared queue may cost more per task than a private deque, but not
/// a multiple of it: 10 000 independent tasks on one worker (the clean
/// per-task floor, free of context-switch noise), sampled alternately.
#[test]
#[ignore = "timing ratio: release mode only, run by `make check-robust`"]
fn central_queue_costs_at_most_1_5x_the_deque_floor() {
    const NTASKS: usize = 10_000;
    let tasks: Vec<NativeTask> = (0..NTASKS)
        .map(|i| NativeTask { owner: 0, npred: 0, succs: vec![], priority: (i % 97) as f64 })
        .collect();
    let ns_per_task = |kind: RuntimeKind| {
        let count = AtomicUsize::new(0);
        // ORDERING: completion tally; the executor joins its workers
        // before returning, which orders the final load.
        let execute = |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let t0 = std::time::Instant::now();
        exec::run(&NativeDag { tasks: &tasks, execute }, kind, 1, RunConfig::default())
            .expect("no-op run");
        let ns = t0.elapsed().as_secs_f64() * 1e9 / NTASKS as f64;
        assert_eq!(count.load(Ordering::Relaxed), NTASKS);
        ns
    };
    let mut samples = [Vec::new(), Vec::new()]; // [native, dataflow], interleaved
    for rep in 0..20 {
        let kind = [RuntimeKind::Native, RuntimeKind::Dataflow][rep % 2];
        let ns = ns_per_task(kind);
        if rep >= 2 {
            samples[rep % 2].push(ns); // the first of each is warmup
        }
    }
    let [native, dataflow] = samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    });
    println!("native {native:.0} ns/task, dataflow {dataflow:.0} ns/task: {:.2}x (gate 1.5x)", dataflow / native);
    assert!(dataflow <= 1.5 * native, "dataflow/native {:.2}x > 1.5x", dataflow / native);
}
