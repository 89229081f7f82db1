//! Trace-layer integration suite: span guarantees under real concurrent
//! execution, for every placement policy over the same DAG fixtures.
//!
//! Checked invariants:
//! * every task gets exactly one execute span (a task never re-runs);
//! * per-worker spans are monotonic and non-overlapping — a worker's
//!   timeline, sorted by start, never has a span starting before the
//!   previous one ended;
//! * the critical path over the measured DAG is bounded by the wall clock
//!   below and the heaviest single task above, and has the fixture's
//!   dependency depth;
//! * a `Steal` span is a take from another worker's deque and nothing
//!   else: the central-queue policy never records one, and no policy does
//!   on a single worker;
//! * with tracing disabled nothing is recorded.

use dagfact_rt::exec;
use dagfact_rt::fault::RunConfig;
use dagfact_rt::native::{NativeDag, NativeTask};
use dagfact_rt::trace::SpanKind;
use dagfact_rt::{RuntimeKind, Trace, TraceRecorder};
use std::sync::Arc;
use std::time::Duration;

const NWORKERS: usize = 4;

/// Build a DAG from `(predecessor, successor)` edges over `ntasks` tasks.
fn dag_from_edges(ntasks: usize, edges: &[(usize, usize)]) -> Vec<NativeTask> {
    let mut tasks: Vec<NativeTask> = (0..ntasks)
        .map(|t| NativeTask {
            owner: t % NWORKERS,
            npred: 0,
            succs: vec![],
            priority: (ntasks - t) as f64,
        })
        .collect();
    for &(p, s) in edges {
        tasks[p].succs.push(s);
        tasks[s].npred += 1;
    }
    tasks
}

/// A fork-join diamond: 0 → {1..=width} → width+1 (depth 3).
fn diamond(width: usize) -> Vec<NativeTask> {
    let edges: Vec<(usize, usize)> = (1..=width).flat_map(|i| [(0, i), (i, width + 1)]).collect();
    dag_from_edges(width + 2, &edges)
}

/// `lanes` independent chains: task i depends on i − lanes (depth
/// ntasks / lanes).
fn lanes(ntasks: usize, lanes: usize) -> Vec<NativeTask> {
    let edges: Vec<(usize, usize)> = (lanes..ntasks).map(|i| (i - lanes, i)).collect();
    dag_from_edges(ntasks, &edges)
}

/// An n×n wavefront: (i, j) depends on (i−1, j) and (i, j−1) (depth 2n−1).
fn wavefront(n: usize) -> Vec<NativeTask> {
    let mut edges = Vec::new();
    for t in 0..n * n {
        if t / n + 1 < n {
            edges.push((t, t + n));
        }
        if t % n + 1 < n {
            edges.push((t, t + 1));
        }
    }
    dag_from_edges(n * n, &edges)
}

fn edges_of(tasks: &[NativeTask]) -> Vec<(usize, usize)> {
    tasks
        .iter()
        .enumerate()
        .flat_map(|(t, task)| task.succs.iter().map(move |&s| (t, s)))
        .collect()
}

/// Run `tasks` under `kind` with sleepy bodies (so several workers
/// genuinely overlap in time) and a fresh attached recorder.
fn traced_run(tasks: &[NativeTask], kind: RuntimeKind, nworkers: usize) -> Trace {
    let rec = TraceRecorder::shared();
    rec.set_edges(edges_of(tasks));
    for t in 0..tasks.len() {
        rec.set_task_meta(t, "1d-panel", t, 1.0e6);
    }
    let dag = NativeDag {
        tasks,
        execute: |_t, _w| std::thread::sleep(Duration::from_micros(200)),
    };
    let config = RunConfig {
        trace: Some(Arc::clone(&rec)),
        ..RunConfig::default()
    };
    exec::run(&dag, kind, nworkers, config).unwrap();
    rec.snapshot()
}

/// Per-worker spans must be monotonic and non-overlapping: sorted by
/// start, each span begins no earlier than the previous one ended.
fn assert_monotone_per_worker(trace: &Trace) {
    let mut workers: Vec<usize> = trace.worker_spans().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    assert!(!workers.is_empty(), "no worker spans recorded");
    for w in workers {
        let mut spans: Vec<_> = trace.worker_spans().filter(|s| s.worker == w).collect();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        for pair in spans.windows(2) {
            assert!(
                pair[1].start_ns >= pair[0].end_ns,
                "worker {w}: span {:?} overlaps {:?}",
                pair[0],
                pair[1]
            );
        }
        for s in &spans {
            assert!(s.end_ns >= s.start_ns, "negative span {s:?}");
        }
    }
}

fn assert_one_execute_per_task(trace: &Trace, ntasks: usize) {
    let mut seen = vec![0usize; ntasks];
    for s in trace.worker_spans() {
        if s.kind == SpanKind::Execute {
            seen[s.task.expect("execute spans carry their task")] += 1;
        }
    }
    for (t, &n) in seen.iter().enumerate() {
        assert_eq!(n, 1, "task {t} has {n} execute spans");
    }
}

fn assert_critical_path_bounds(trace: &Trace) {
    let cp = trace.critical_path();
    let wall = trace.wall_ns();
    assert!(
        cp.length_ns <= wall,
        "critical path {} ns exceeds wall {} ns",
        cp.length_ns,
        wall
    );
    let max_task = trace.task_durations().into_values().max().unwrap_or(0);
    assert!(
        cp.length_ns >= max_task,
        "critical path {} ns below heaviest task {} ns",
        cp.length_ns,
        max_task
    );
    assert!(!cp.tasks.is_empty());
}

fn steal_spans(trace: &Trace) -> usize {
    trace.worker_spans().filter(|s| s.kind == SpanKind::Steal).count()
}

#[test]
fn spans_are_consistent_under_every_policy() {
    // (fixture, dependency depth in tasks)
    let fixtures = [(diamond(24), 3), (lanes(32, 4), 8), (wavefront(8), 15)];
    for kind in RuntimeKind::ALL {
        for (tasks, depth) in &fixtures {
            let trace = traced_run(tasks, kind, NWORKERS);
            assert_one_execute_per_task(&trace, tasks.len());
            assert_monotone_per_worker(&trace);
            assert_critical_path_bounds(&trace);
            let cp = trace.critical_path();
            assert_eq!(cp.tasks.len(), *depth, "{kind:?}");
            // The path starts on a source and ends on a sink.
            assert_eq!(cp.tasks.first().map(|&t| tasks[t].npred), Some(0), "{kind:?}");
            assert_eq!(cp.tasks.last().map(|&t| tasks[t].succs.len()), Some(0), "{kind:?}");
            assert!(trace.parallel_efficiency() > 0.0);
            assert!(trace.parallel_efficiency() <= 1.0 + 1e-9);
            if kind == RuntimeKind::Dataflow {
                assert_eq!(steal_spans(&trace), 0, "the central queue is not stolen from");
            }
        }
    }
}

#[test]
fn a_steal_is_a_take_from_another_workers_deque() {
    // Every task owned by worker 0 and every body long enough for the
    // others to wake up: under the static-owner policy they can only get
    // work by stealing it.
    let mut tasks = diamond(48);
    for t in &mut tasks {
        t.owner = 0;
    }
    let trace = traced_run(&tasks, RuntimeKind::Native, NWORKERS);
    assert!(steal_spans(&trace) > 0, "no stealing happened");
    // One worker has no other deque to take from, whatever the policy.
    for kind in RuntimeKind::ALL {
        let trace = traced_run(&tasks, kind, 1);
        assert_eq!(steal_spans(&trace), 0, "{kind:?}");
        assert_one_execute_per_task(&trace, tasks.len());
    }
}

#[test]
fn disabled_tracing_records_nothing() {
    // A recorder that was never attached sees nothing — an attached one
    // records only for its own run.
    let rec = TraceRecorder::shared();
    let tasks = diamond(8);
    for kind in RuntimeKind::ALL {
        let dag = NativeDag { tasks: &tasks, execute: |_t, _w| {} };
        exec::run(&dag, kind, 2, RunConfig::default()).unwrap();
        assert!(rec.is_empty(), "{kind:?}: untraced run leaked spans into the recorder");
    }
}

/// The report and Gantt renderers stay total on real traces (no panics,
/// non-empty output) — they feed the CLI `--metrics` path.
#[test]
fn renderers_work_on_live_trace() {
    let trace = traced_run(&diamond(12), RuntimeKind::Native, NWORKERS);
    let report = trace.render_report();
    assert!(report.contains("critical path:"));
    assert!(report.contains("parallel efficiency:"));
    assert!(report.contains("1d-panel"));
    let gantt = trace.render_gantt(72);
    assert!(gantt.contains("w0"));
    assert!(gantt.contains('#'));
}
