//! Regenerate **Figure 4** of the paper: hybrid (CPU + GPU) scaling of the
//! factorization on the nine matrices — twelve CPU cores plus 0 to 3 GPUs,
//! StarPU-like vs PaRSEC-like with 1 and 3 streams, GFlop/s, with the
//! CPU-only PaStiX run as the reference bar.
//!
//! ```text
//! cargo run -p dagfact-bench --bin fig4 --release [-- <matrix-name>...]
//! ```
//!
//! Paper shape to look for (§V-C): both runtimes exploit the GPUs with
//! similar results and "satisfying scalability over the 3 GPUs"; PaRSEC
//! benefits from multiple streams (small sparse tasks underfill the
//! device); afshell10 sees almost nothing ("the amount of Flop produced is
//! too small to efficiently benefit from the GPUs").

use dagfact_bench::proxies;
use dagfact_core::{simulate_factorization, SimOptions};
use dagfact_gpusim::{Platform, SimPolicy};
use dagfact_rt::{write_results, Json};

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = Vec::new();
    println!("Figure 4 — hybrid scaling, 12 cores + 0..=3 GPUs, GFlop/s (simulated)");
    println!(
        "{:<10} {:>4} | {:>8} | {:>8} {:>9} {:>9}",
        "Matrix", "gpus", "PaStiX", "StarPU", "PaRSEC-1s", "PaRSEC-3s"
    );
    let mut speedups: Vec<(String, f64, f64)> = Vec::new();
    for m in proxies() {
        if !filter.is_empty() && !filter.iter().any(|f| f.eq_ignore_ascii_case(m.name)) {
            continue;
        }
        let analysis = m.analyze();
        let opts = SimOptions {
            complex: m.is_complex(),
            ..SimOptions::default()
        };
        let pastix_ref =
            simulate_factorization(&analysis, &opts, &Platform::mirage(12, 0), SimPolicy::NativeStatic)
                .gflops();
        let mut best0 = 0.0f64;
        let mut best3 = 0.0f64;
        for gpus in 0..=3usize {
            let platform = Platform::mirage(12, gpus);
            let g: Vec<f64> = [
                SimPolicy::StarPuLike,
                SimPolicy::ParsecLike { streams: 1 },
                SimPolicy::ParsecLike { streams: 3 },
            ]
            .into_iter()
            .map(|p| simulate_factorization(&analysis, &opts, &platform, p).gflops())
            .collect();
            let pastix_col = if gpus == 0 {
                format!("{pastix_ref:>8.2}")
            } else {
                format!("{:>8}", "-")
            };
            println!(
                "{:<10} {:>4} | {} | {:>8.2} {:>9.2} {:>9.2}",
                m.name, gpus, pastix_col, g[0], g[1], g[2]
            );
            let round_best = g.iter().copied().fold(0.0, f64::max);
            if gpus == 0 {
                best0 = round_best;
            }
            if gpus == 3 {
                best3 = round_best;
            }
            runs.push(
                Json::obj()
                    .field("matrix", m.name)
                    .field("gpus", gpus)
                    .field("pastix_cpu_gflops", (gpus == 0).then_some(pastix_ref))
                    .field("starpu_gflops", g[0])
                    .field("parsec_1s_gflops", g[1])
                    .field("parsec_3s_gflops", g[2]),
            );
        }
        println!();
        speedups.push((m.name.to_string(), best0, best3));
    }
    println!("--- GPU speedup summary (best runtime, 0 -> 3 GPUs) ---");
    for (name, b0, b3) in &speedups {
        println!("{name:<10} {b0:>8.2} -> {b3:>8.2} GFlop/s   x{:.2}", b3 / b0);
    }
    println!();
    println!("paper checkpoints (§V-C): GPUs give large gains on the big matrices;");
    println!("PaRSEC's extra streams compensate StarPU's prefetching; afshell10");
    println!("gains little (too few flops for the transfers).");
    let doc = Json::obj().field("experiment", "fig4").field("runs", runs).field(
        "speedups",
        speedups
            .iter()
            .map(|(name, b0, b3)| {
                Json::obj()
                    .field("matrix", name.as_str())
                    .field("best_0gpu_gflops", *b0)
                    .field("best_3gpu_gflops", *b3)
                    .field("speedup", b3 / b0)
            })
            .collect::<Vec<_>>(),
    );
    match write_results("fig4", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/fig4.json: {e}");
            std::process::exit(1);
        }
    }
}
