//! Fan-in communication study over the Table-I proxies: for each matrix,
//! predict the message/byte traffic of fan-out vs fan-in distribution at
//! cluster widths 1/2/4/8 and record it as JSON through the same emitter
//! `dagfact dist --output` uses, so a study has one format regardless of
//! which tool wrote it. This binary is the one writer of
//! `results/comm.json`.
//!
//! ```text
//! cargo run -p dagfact-bench --bin comm --release
//! ```
//!
//! Output: a human-readable table on stdout plus `results/comm.json`.

use dagfact_bench::proxies;
use dagfact_core::{comm_study_json, fan_in_study};
use dagfact_rt::{write_results, Json};

const WIDTHS: &[usize] = &[1, 2, 4, 8];

fn main() {
    println!("communication study: {} proxies x widths {WIDTHS:?}", proxies().len());
    println!(
        "{:<12} {:>6} {:>7} | {:>9} {:>11} | {:>9} {:>11} | {:>6}",
        "Matrix", "Method", "panels", "out msgs", "out MB", "in msgs", "in MB", "ratio"
    );
    let mut records = Vec::new();
    for m in proxies() {
        let analysis = m.analyze();
        for &nnodes in WIDTHS {
            let study = fan_in_study(&analysis, m.is_complex(), nnodes);
            let ratio = study.fan_in.bytes / study.fan_out.bytes.max(f64::MIN_POSITIVE);
            println!(
                "{:<12} {:>6} {:>7} | {:>9} {:>11.1} | {:>9} {:>11.1} | {:>6.3}",
                format!("{}x{}", m.name, nnodes),
                analysis.facto.label(),
                analysis.symbol.ncblk(),
                study.fan_out.messages,
                study.fan_out.bytes / 1e6,
                study.fan_in.messages,
                study.fan_in.bytes / 1e6,
                ratio,
            );
        }
        records.push(comm_study_json(m.name, &analysis, m.is_complex(), WIDTHS));
    }
    let doc = Json::obj().field("records", records);
    match write_results("comm", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("comm: cannot write results: {e}");
            std::process::exit(1);
        }
    }
}
