//! Verify the task graph of every Table-I proxy problem.
//!
//! ```text
//! cargo run -p dagfact-bench --bin verify_sweep --release
//! ```
//!
//! For every proxy, `Analysis::verify_task_graph` proves the one graph
//! all three engines run race-free, deadlock-free and correctly counted.
//! Exits non-zero on any failing proxy, so `make check-analysis` can gate
//! on it.
//!
//! One check per proxy covers LLᵀ, LDLᵀ and LU alike: the analysis is
//! facto-independent (the pattern is symmetrized either way) and so is the
//! program built from it, which `core/tests/verify_graph.rs` asserts
//! (`task_graph_spec_is_the_same_for_every_facto`).

use dagfact_bench::proxies;

fn main() {
    let all = proxies();
    println!("verify sweep: {} proxies, one graph each", all.len());
    println!(
        "{:<10} | {:>9} {:>10} {:>9} | {:>6} {:>6}",
        "Matrix", "tasks", "edges", "pairs", "races", "cycles"
    );
    let mut failures = 0usize;
    for m in &all {
        let stat = m.analyze().verify_task_graph();
        let ok = stat.is_clean();
        println!(
            "{:<10} | {:>9} {:>10} {:>9} | {:>6} {:>6}{}",
            m.name,
            stat.ntasks,
            stat.nedges,
            stat.pairs_checked,
            stat.races.len(),
            stat.deadlocked.len(),
            if ok { "" } else { "  FAILED" },
        );
        if !ok {
            failures += 1;
            println!("static proof : {stat}");
        }
    }
    if failures > 0 {
        eprintln!("verify sweep: {failures} proxy graph(s) FAILED");
        std::process::exit(1);
    }
    println!("verify sweep: all {} proxy graphs clean", all.len());
}
