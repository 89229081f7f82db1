//! Distributed execution sweep over the simulated cluster: strong
//! scaling of the fan-in engine (makespan at 1/2/4/8 nodes, zero
//! faults) and recovery overhead as the injected fault rate rises
//! (message loss/dup/reorder plus node crashes at a fixed width).
//!
//! ```text
//! cargo run -p dagfact-bench --bin distsweep --release
//! ```
//!
//! Output: a human-readable table on stdout plus
//! `results/distsweep.json`. Exits non-zero if any run produces a wrong
//! answer (faulty runs may fail, but only with a typed error). A scaling
//! row's `verified` is the static proof of that width's message graph
//! (`check_dist_static`): every conflicting access of the 1D tasks and
//! their send/apply messages ordered, no cycle.

use dagfact_core::{check_dist_static, factorize_dist, Analysis, DistOptions, SolverOptions};
use dagfact_rt::{write_results, FaultPlan, Json};
use dagfact_sparse::gen;
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;

const WIDTHS: &[usize] = &[1, 2, 4, 8];
/// Per-message loss = dup = reorder probability; crashes arrive at
/// twice this rate (see `plan_for`).
const FAULT_RATES: &[f64] = &[0.0, 0.02, 0.05, 0.10];
const FAULT_WIDTH: usize = 4;
const SEEDS_PER_RATE: u64 = 5;

fn residual(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    a.spmv(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let num = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let nb = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    num / nb.max(f64::MIN_POSITIVE)
}

fn plan_for(rate: f64, seed: u64) -> Option<Arc<FaultPlan>> {
    if rate == 0.0 {
        return None;
    }
    Some(Arc::new(
        FaultPlan::with_seed(seed)
            .message_loss(rate)
            .message_dup(rate)
            .message_reorder(rate)
            .random_crash(rate * 2.0, 3),
    ))
}

fn main() {
    let problems: Vec<(&str, CscMatrix<f64>, FactoKind)> = vec![
        ("laplace3d", gen::grid_laplacian_3d(8, 8, 8), FactoKind::Cholesky),
        (
            "shifted3d",
            gen::shifted_laplacian_3d(7, 7, 7, 1.0),
            FactoKind::Ldlt,
        ),
        (
            "convdiff3d",
            gen::convection_diffusion_3d(6, 6, 6, 0.3),
            FactoKind::Lu,
        ),
    ];
    let mut wrong = 0usize;
    let mut records = Vec::new();

    println!("strong scaling (zero faults):");
    println!(
        "{:<12} {:>6} | {:>5} {:>12} {:>8} {:>8} {:>10}",
        "Matrix", "Method", "nodes", "makespan s", "speedup", "msgs", "MB"
    );
    for (name, a, facto) in &problems {
        let analysis = Analysis::new(a.pattern(), *facto, &SolverOptions::default());
        let b = {
            let mut b = vec![0.0; a.nrows()];
            a.spmv(&vec![1.0; a.nrows()], &mut b);
            b
        };
        let mut base = 0.0f64;
        let mut clean = 0.0f64;
        let mut scaling = Vec::new();
        for &nnodes in WIDTHS {
            let opts = DistOptions {
                nnodes,
                ..DistOptions::default()
            };
            let (factors, report) = match factorize_dist(&analysis, a, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{name} x{nnodes}: zero-fault run failed: {e}");
                    wrong += 1;
                    continue;
                }
            };
            let x = factors.solve(&b);
            let res = residual(a, &x, &b);
            if res > 1e-8 {
                eprintln!("{name} x{nnodes}: residual {res:.3e} too large");
                wrong += 1;
            }
            if nnodes == 1 {
                base = report.makespan;
            }
            if nnodes == FAULT_WIDTH {
                clean = report.makespan;
            }
            let speedup = if report.makespan > 0.0 { base / report.makespan } else { 0.0 };
            println!(
                "{:<12} {:>6} | {:>5} {:>12.6} {:>8.2} {:>8} {:>10.2}",
                name,
                facto.label(),
                nnodes,
                report.makespan,
                speedup,
                report.data_messages,
                report.bytes / 1e6,
            );
            scaling.push(
                Json::obj()
                    .field("nnodes", nnodes)
                    .field("makespan_s", report.makespan)
                    .field("speedup", speedup)
                    .field("tasks", report.tasks_executed)
                    .field("messages", report.data_messages)
                    .field("bytes", report.bytes)
                    .field(
                        "verified",
                        check_dist_static(&analysis, false, nnodes).is_clean(),
                    )
                    .field("residual", res),
            );
        }

        println!("recovery overhead at {FAULT_WIDTH} nodes ({name}):");
        println!(
            "{:>6} | {:>9} {:>6} {:>12} {:>9} {:>7} {:>7} {:>7}",
            "rate", "completed", "typed", "makespan s", "overhead", "retx", "crash", "replay"
        );
        let mut faulty = Vec::new();
        for &rate in FAULT_RATES {
            let mut completed = 0u64;
            let mut typed = 0u64;
            let mut makespans = Vec::new();
            let mut retransmits = 0u64;
            let mut crashes = 0u64;
            let mut replays = 0u64;
            for seed in 0..SEEDS_PER_RATE {
                let opts = DistOptions {
                    nnodes: FAULT_WIDTH,
                    fault_plan: plan_for(rate, 1000 * seed + 17),
                    ..DistOptions::default()
                };
                match factorize_dist(&analysis, a, &opts) {
                    Ok((factors, report)) => {
                        let x = factors.solve(&b);
                        let res = residual(a, &x, &b);
                        if res > 1e-8 {
                            eprintln!("{name} rate {rate} seed {seed}: residual {res:.3e}");
                            wrong += 1;
                            continue;
                        }
                        completed += 1;
                        makespans.push(report.makespan);
                        retransmits += report.retransmits;
                        crashes += report.crashes.len() as u64;
                        replays += report.panels_restored;
                    }
                    // Typed refusal is an acceptable outcome under
                    // faults; a wrong answer never is.
                    Err(e) => {
                        let _ = e;
                        typed += 1;
                    }
                }
            }
            let mean = if makespans.is_empty() {
                0.0
            } else {
                makespans.iter().sum::<f64>() / makespans.len() as f64
            };
            let overhead = if clean > 0.0 && mean > 0.0 { mean / clean } else { 0.0 };
            println!(
                "{:>6.2} | {:>9} {:>6} {:>12.6} {:>9.3} {:>7} {:>7} {:>7}",
                rate, completed, typed, mean, overhead, retransmits, crashes, replays
            );
            faulty.push(
                Json::obj()
                    .field("rate", rate)
                    .field("runs", SEEDS_PER_RATE)
                    .field("completed", completed)
                    .field("typed_failures", typed)
                    .field("mean_makespan_s", mean)
                    .field("overhead", overhead)
                    .field("retransmits", retransmits)
                    .field("crashes", crashes)
                    .field("panels_replayed", replays),
            );
        }
        records.push(
            Json::obj()
                .field("matrix", *name)
                .field("facto", facto.label())
                .field("panels", analysis.symbol.ncblk())
                .field("scaling", scaling)
                .field("fault_width", FAULT_WIDTH)
                .field("faults", faulty),
        );
    }

    let doc = Json::obj().field("records", records);
    match write_results("distsweep", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("distsweep: cannot write results: {e}");
            std::process::exit(1);
        }
    }
    if wrong > 0 {
        eprintln!("distsweep: {wrong} run(s) produced wrong or missing answers");
        std::process::exit(1);
    }
}
