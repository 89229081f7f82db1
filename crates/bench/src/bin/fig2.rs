//! Regenerate **Figure 2** of the paper: CPU strong scaling of the
//! factorization on the nine matrices with the three schedulers
//! (PaStiX-native, StarPU-like, PaRSEC-like) at 1/3/6/9/12 cores, in
//! GFlop/s, on the simulated Mirage node.
//!
//! ```text
//! cargo run -p dagfact-bench --bin fig2 --release [-- <matrix-name>...]
//! ```
//!
//! Paper shape to look for (§V-A): the three schedulers are *comparable*
//! on shared memory; PaRSEC is usually ahead of StarPU (cache reuse), and
//! the generic runtimes trail native PaStiX on the LDLᵀ matrices
//! (pmlDF, Serena) because they redo the D·Lᵀ product in every update.

use dagfact_bench::proxies;
use dagfact_core::{simulate_factorization, SimOptions};
use dagfact_gpusim::{Platform, SimPolicy};
use dagfact_rt::{write_results, Json};

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let cores = [1usize, 3, 6, 9, 12];
    let mut runs = Vec::new();
    println!("Figure 2 — CPU scaling, GFlop/s (simulated Mirage node)");
    println!(
        "{:<10} {:>5} | {:>8} {:>8} {:>8}",
        "Matrix", "cores", "PaStiX", "StarPU", "PaRSEC"
    );
    let mut summary: Vec<(String, [f64; 3])> = Vec::new();
    for m in proxies() {
        if !filter.is_empty() && !filter.iter().any(|f| f.eq_ignore_ascii_case(m.name)) {
            continue;
        }
        let analysis = m.analyze();
        let opts = SimOptions {
            complex: m.is_complex(),
            ..SimOptions::default()
        };
        let mut at12 = [0.0f64; 3];
        for &ncores in &cores {
            let platform = Platform::mirage(ncores, 0);
            let g: Vec<f64> = [
                SimPolicy::NativeStatic,
                SimPolicy::StarPuLike,
                SimPolicy::ParsecLike { streams: 1 },
            ]
            .into_iter()
            .map(|p| simulate_factorization(&analysis, &opts, &platform, p).gflops())
            .collect();
            println!(
                "{:<10} {:>5} | {:>8.2} {:>8.2} {:>8.2}",
                m.name, ncores, g[0], g[1], g[2]
            );
            if ncores == 12 {
                at12 = [g[0], g[1], g[2]];
            }
            runs.push(
                Json::obj()
                    .field("matrix", m.name)
                    .field("cores", ncores)
                    .field("pastix_gflops", g[0])
                    .field("starpu_gflops", g[1])
                    .field("parsec_gflops", g[2]),
            );
        }
        println!();
        summary.push((m.name.to_string(), at12));
    }
    println!("--- 12-core summary (who wins) ---");
    for (name, g) in &summary {
        let winner = ["PaStiX", "StarPU", "PaRSEC"][g
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0];
        println!(
            "{name:<10} PaStiX {:>7.2}  StarPU {:>7.2}  PaRSEC {:>7.2}   best: {winner}",
            g[0], g[1], g[2]
        );
    }
    println!();
    println!("paper checkpoints (§V-A): schedulers comparable on shared memory;");
    println!("PaRSEC ≥ StarPU as cores grow; PaStiX ahead on LDLt (pmlDF, Serena).");
    let doc = Json::obj().field("experiment", "fig2").field("runs", runs).field(
        "summary_12core",
        summary
            .iter()
            .map(|(name, g)| {
                Json::obj()
                    .field("matrix", name.as_str())
                    .field("pastix_gflops", g[0])
                    .field("starpu_gflops", g[1])
                    .field("parsec_gflops", g[2])
            })
            .collect::<Vec<_>>(),
    );
    match write_results("fig2", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/fig2.json: {e}");
            std::process::exit(1);
        }
    }
}
