//! Scheduler-overhead sweep on tiny-task graphs — the paper's afshell10
//! regime, where per-task runtime cost (allocation, locking, queue
//! traffic) dominates end-to-end factorization time.
//!
//! ```text
//! cargo run -p dagfact-bench --bin overhead --release
//! ```
//!
//! Scenarios, all with no-op task bodies so nothing but the runtime
//! itself is on the clock — each one DAG, run under all three placement
//! policies (`native/…`, `dataflow/…`, `ptg/…`):
//!
//! * `independent_1w`, `chains_1w` — one worker: the clean per-task floor
//!   (queue push/pop + supervisor accounting; for chains also the fan-in
//!   CAS), free of context-switch noise.
//! * `independent` — 10k independent tasks over all workers.
//! * `chains`      — 64 chains: every task release runs the fan-in CAS
//!   and a ready-queue push.
//! * `steal_heavy` — all tasks owned by worker 0: under the static-owner
//!   policy idle workers hammer the steal path (victim scan + batched
//!   steal) the whole run; the other two policies ignore owners and show
//!   their shared-queue cost instead.
//! * `steal_chains` — chains all owned by worker 0: every release refills
//!   one deque while the thieves batch-steal, so the owner-pop/steal race
//!   of the chase-lev protocol stays hot.
//! * `kernels/ldlt_update` — the LDLᵀ buffered update on a small panel:
//!   per-call cost including any scratch management.
//!
//! Every scheduler scenario is timed as an interleaved A/A pair (the
//! tracesweep overhead-guard pattern): two independent sample streams of
//! the *same* configuration, alternating run by run. If their medians
//! disagree by more than [`MAX_AA_SKEW`] the box is too noisy for the
//! number to mean anything, and the bench fails instead of letting a
//! before/after gate pass on noise. It also fails when the central queue
//! costs more than [`MAX_DATAFLOW_RATIO`]× the deque floor
//! (`dataflow/independent_1w` vs `native/independent_1w`, re-measured as
//! one interleaved pair).
//!
//! Output: ns/task (ns/call for the kernel) per scenario, median of
//! [`REPS`] runs (+ `aa_skew` for guarded scenarios), written to
//! `results/overhead.json` — the trend file ROADMAP item 2 gates on.

use dagfact_bench::{write_results, Json};
use dagfact_kernels::update::{update_via_buffer, Scatter};
use dagfact_rt::native::{NativeDag, NativeTask};
use dagfact_rt::{exec, RunConfig, RuntimeKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const NTASKS: usize = 10_000;
const REPS: usize = 9;
/// Largest tolerated A/A median skew before a scenario's number is
/// declared noise. Looser than tracesweep's 10% because these runs are
/// milliseconds, not seconds, and single-core boxes jitter more.
const MAX_AA_SKEW: f64 = 0.15;
/// Largest tolerated `dataflow/independent_1w ÷ native/independent_1w`:
/// one shared queue may cost more per task than a private deque, but not
/// a multiple of it.
const MAX_DATAFLOW_RATIO: f64 = 1.5;

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    samples[samples.len() / 2]
}

/// Median seconds of one run of `f`, with one warmup.
fn time_median<F: FnMut()>(mut f: F) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Median seconds of `a` and of `b`, sampled alternately run by run (one
/// warmup each) so a drift in host speed hits both streams equally.
fn time_interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a();
    b();
    let (mut sa, mut sb): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        a();
        sa.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b();
        sb.push(t0.elapsed().as_secs_f64());
    }
    (median(&mut sa), median(&mut sb))
}

fn independent_tasks(threads: usize) -> Vec<NativeTask> {
    (0..NTASKS)
        .map(|i| NativeTask {
            owner: i % threads,
            npred: 0,
            succs: vec![],
            priority: (i % 97) as f64,
        })
        .collect()
}

/// 64 parallel chains: task i depends on i-64 (same chain lane).
fn chain_tasks(threads: usize) -> Vec<NativeTask> {
    const LANES: usize = 64;
    (0..NTASKS)
        .map(|i| NativeTask {
            owner: (i % LANES) % threads,
            npred: u32::from(i >= LANES),
            succs: if i + LANES < NTASKS {
                vec![i + LANES]
            } else {
                vec![]
            },
            priority: (NTASKS - i) as f64,
        })
        .collect()
}

fn steal_heavy_tasks() -> Vec<NativeTask> {
    (0..NTASKS)
        .map(|i| NativeTask {
            owner: 0,
            npred: 0,
            succs: vec![],
            priority: (i % 97) as f64,
        })
        .collect()
}

/// 64 chains all owned by worker 0: every release refills the owner's
/// deque while every other worker lives on the batched-steal path.
fn steal_chain_tasks() -> Vec<NativeTask> {
    const LANES: usize = 64;
    (0..NTASKS)
        .map(|i| NativeTask {
            owner: 0,
            npred: u32::from(i >= LANES),
            succs: if i + LANES < NTASKS {
                vec![i + LANES]
            } else {
                vec![]
            },
            priority: (NTASKS - i) as f64,
        })
        .collect()
}

/// One run of `tasks` under `kind`, checked to have executed every task.
fn run_dag(tasks: &[NativeTask], kind: RuntimeKind, threads: usize) {
    let count = AtomicUsize::new(0);
    let dag = NativeDag {
        tasks,
        // ORDERING: completion tally; the executor joins its workers
        // before returning, which orders the final load.
        execute: |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        },
    };
    if let Err(e) = exec::run(&dag, kind, threads, RunConfig::default()) {
        eprintln!("overhead: {kind:?} run failed: {e}");
        std::process::exit(1);
    }
    assert_eq!(count.load(Ordering::Relaxed), NTASKS);
}

/// A/A-guarded timing (tracesweep's overhead-guard pattern): two sample
/// streams of the *same* run, interleaved. Returns `(best_median_seconds,
/// aa_skew)` where skew is the relative gap between the stream medians —
/// the run-to-run noise floor any before/after claim has to clear.
fn bench_dag(tasks: &[NativeTask], kind: RuntimeKind, threads: usize) -> (f64, f64) {
    let run = || run_dag(tasks, kind, threads);
    let (ma, mb) = time_interleaved(run, run);
    (ma.min(mb), (ma - mb).abs() / ma.min(mb).max(f64::MIN_POSITIVE))
}

/// LDLᵀ buffered update on an afshell-sized small panel, many calls per
/// rep so scratch-buffer management (the per-call `k×n` W2 materialize)
/// is on the clock.
fn bench_ldlt_update() -> (f64, usize) {
    let (m, n, k) = (48usize, 16usize, 16usize);
    let calls = 2_000usize;
    let a1: Vec<f64> = (0..k * m).map(|i| (i % 13) as f64 * 0.25 - 1.0).collect();
    let a2: Vec<f64> = (0..k * n).map(|i| (i % 11) as f64 * 0.125 - 0.5).collect();
    let d: Vec<f64> = (0..k).map(|i| 1.0 + (i % 5) as f64).collect();
    let row_map: Vec<usize> = (0..m).map(|i| i + i / 4).collect();
    let ldc = row_map.last().map_or(m, |&r| r + 1);
    let mut c = vec![0.0f64; ldc * (n + 1)];
    let mut work: Vec<f64> = Vec::new();
    let scatter = Scatter {
        row_map: &row_map,
        col_offset: 1,
    };
    let sec = time_median(|| {
        for _ in 0..calls {
            update_via_buffer(
                m, n, k, -1.0, &a1, m, &a2, n,
                Some(&d), &mut work, &mut c, ldc, scatter,
            );
        }
        std::hint::black_box(&mut c);
    });
    (sec, calls)
}

fn main() {
    // At least two workers so the steal/contention paths execute even on
    // a single-core box; the 1-worker scenarios are the clean per-task
    // floor (no context-switch noise).
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let mut scenarios: Vec<(String, f64, Option<f64>)> = Vec::new();
    let mut noisy = 0usize;

    println!("overhead: tiny-task scheduler sweep ({NTASKS} tasks, {threads} workers, median of {REPS})");
    println!("{:<26} {:>12} {:>10}", "scenario", "ns/task", "A/A skew");

    let dags = [
        ("independent_1w", independent_tasks(1), 1),
        ("chains_1w", chain_tasks(1), 1),
        ("independent", independent_tasks(threads), threads),
        ("chains", chain_tasks(threads), threads),
        ("steal_heavy", steal_heavy_tasks(), threads),
        ("steal_chains", steal_chain_tasks(), threads),
    ];
    for (kind, policy) in [
        (RuntimeKind::Native, "native"),
        (RuntimeKind::Dataflow, "dataflow"),
        (RuntimeKind::Ptg, "ptg"),
    ] {
        for (scenario, tasks, workers) in &dags {
            let name = format!("{policy}/{scenario}");
            let (sec, skew) = bench_dag(tasks, kind, *workers);
            let per_task_ns = sec * 1e9 / NTASKS as f64;
            println!("{name:<26} {per_task_ns:>12.1} {:>9.1}%", skew * 100.0);
            if skew > MAX_AA_SKEW {
                eprintln!(
                    "overhead: {name} A/A skew {:.1}% exceeds the {:.0}% noise bound — \
                     this number cannot support a before/after claim",
                    skew * 100.0,
                    MAX_AA_SKEW * 100.0
                );
                noisy += 1;
            }
            scenarios.push((name, per_task_ns, Some(skew)));
        }
    }

    let (sec, calls) = bench_ldlt_update();
    let per_call_ns = sec * 1e9 / calls as f64;
    println!("{:<26} {per_call_ns:>12.1} {:>10}", "kernels/ldlt_update", "-");
    scenarios.push(("kernels/ldlt_update".to_string(), per_call_ns, None));

    let mut arr: Vec<Json> = Vec::new();
    for (name, ns, skew) in &scenarios {
        let mut obj = Json::obj()
            .field("scenario", name.as_str())
            .field("ns_per_task", *ns);
        if let Some(skew) = skew {
            obj = obj.field("aa_skew", *skew);
        }
        arr.push(obj);
    }
    // The central-queue gate compares two scenarios, so it is measured
    // on its own interleaved pair: a host speed shift between two rows of
    // the table above can neither fake nor hide it.
    let floor = independent_tasks(1);
    let (native, dataflow) = time_interleaved(
        || run_dag(&floor, RuntimeKind::Native, 1),
        || run_dag(&floor, RuntimeKind::Dataflow, 1),
    );
    let ratio = dataflow / native;
    println!("dataflow/native independent_1w, interleaved: {ratio:.2}x (gate {MAX_DATAFLOW_RATIO}x)");

    let doc = Json::obj()
        .field("bench", "overhead")
        .field("ntasks", NTASKS as i64)
        .field("workers", threads as i64)
        .field("reps", REPS as i64)
        .field("max_aa_skew", MAX_AA_SKEW)
        .field("dataflow_native_1w_ratio", ratio)
        .field("max_dataflow_native_1w_ratio", MAX_DATAFLOW_RATIO)
        .field("scenarios", Json::Arr(arr));
    match write_results("overhead", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("overhead: could not write results: {e}");
            std::process::exit(1);
        }
    }
    if noisy > 0 {
        eprintln!("overhead: A/A guard FAILED on {noisy} scenario(s)");
        std::process::exit(1);
    }
    if ratio > MAX_DATAFLOW_RATIO {
        eprintln!("overhead: central-queue gate FAILED ({ratio:.2}x > {MAX_DATAFLOW_RATIO}x)");
        std::process::exit(1);
    }
}
