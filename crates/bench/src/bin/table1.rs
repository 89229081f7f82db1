//! Regenerate **Table I** of the paper: the matrix inventory with size,
//! nnz(A), nnz(L) and factorization flops, for the nine proxy problems,
//! plus the block count of the symbolic structure, which is the task
//! count (one panel task per diagonal block, one update per other, §V).
//!
//! ```text
//! cargo run -p dagfact-bench --bin table1 --release
//! ```
//!
//! Columns labelled `paper` are the published values (matrices ~300×
//! larger); `proxy` are this reproduction's synthetic stand-ins. Compare
//! *ratios* (fill factor nnzL/nnzA, flops ordering), not absolutes.
//!
//! Output: the table on stdout plus machine-readable
//! `results/table1.json` (redirect stdout for the `.txt` copy).

use dagfact_bench::proxies;
use dagfact_rt::{write_results, Json};

fn main() {
    println!("Table I — matrix description (paper values vs. synthetic proxies)");
    println!(
        "{:<10} {:>4} {:>6} | {:>9} {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} {:>10} {:>8} {:>8}",
        "Matrix",
        "Prec",
        "Method",
        "n(paper)",
        "nnzA(p)",
        "nnzL(p)",
        "TFlop(p)",
        "n",
        "nnzA",
        "nnzL",
        "GFlop",
        "fill",
        "blocks"
    );
    let mut prev_flops = 0.0;
    let mut ordering_ok = true;
    let mut rows = Vec::new();
    for m in proxies() {
        let analysis = m.analyze();
        let st = analysis.stats();
        let flops = if m.is_complex() {
            st.flops_complex
        } else {
            st.flops_real
        };
        let fill = st.nnz_l as f64 / (st.nnz_a as f64 / 2.0);
        println!(
            "{:<10} {:>4} {:>6} | {:>9.1e} {:>9.1e} {:>9.1e} {:>9.2} | {:>9} {:>9} {:>9} {:>10.2} {:>8.1} {:>8}",
            m.name,
            m.prec,
            m.facto.label(),
            m.paper.n,
            m.paper.nnz_a,
            m.paper.nnz_l,
            m.paper.tflop,
            st.n,
            st.nnz_a,
            st.nnz_l,
            flops / 1e9,
            fill,
            st.nblocks,
        );
        if flops < prev_flops {
            ordering_ok = false;
        }
        prev_flops = flops;
        rows.push(
            Json::obj()
                .field("matrix", m.name)
                .field("prec", m.prec)
                .field("method", m.facto.label())
                .field(
                    "paper",
                    Json::obj()
                        .field("n", m.paper.n)
                        .field("nnz_a", m.paper.nnz_a)
                        .field("nnz_l", m.paper.nnz_l)
                        .field("tflop", m.paper.tflop),
                )
                .field(
                    "proxy",
                    Json::obj()
                        .field("n", st.n)
                        .field("nnz_a", st.nnz_a)
                        .field("nnz_l", st.nnz_l)
                        .field("gflop", flops / 1e9)
                        .field("fill", fill)
                        .field("blocks", st.nblocks)
                        .field("desc", m.proxy_desc),
                ),
        );
    }
    println!();
    println!(
        "flop ordering preserved vs. Table I: {}",
        if ordering_ok { "yes" } else { "NO — adjust proxy sizes" }
    );
    println!("proxy descriptions:");
    for m in proxies() {
        println!("  {:<10} {}", m.name, m.proxy_desc);
    }
    let doc = Json::obj()
        .field("experiment", "table1")
        .field("flop_ordering_preserved", ordering_ok)
        .field("rows", rows);
    match write_results("table1", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/table1.json: {e}");
            std::process::exit(1);
        }
    }
}
