//! Ablation studies beyond the paper's figures, exercising the design
//! choices DESIGN.md calls out:
//!
//! 1. **amalgamation ratio sweep** — how the paper's "up to 12% more
//!    fill-in" parameter trades flops for panel size and hybrid speed;
//! 2. **panel split width** — the §III granularity knob (1D-ish wide
//!    panels vs. fine splitting);
//! 3. **ordering** — nested dissection vs. the RCM baseline (DAG shape);
//! 4. **scheduler locality** — the cold-read penalty's contribution to
//!    the PaRSEC-vs-StarPU gap (data-reuse on/off).
//!
//! ```text
//! cargo run -p dagfact-bench --bin ablation --release
//! ```

use dagfact_core::{simulate_factorization, Analysis, SimOptions, SolverOptions};
use dagfact_gpusim::{Platform, SimPolicy};
use dagfact_order::OrderingKind;
use dagfact_rt::{write_results, Json};
use dagfact_sparse::gen::grid_laplacian_3d;
use dagfact_symbolic::structure::SplitOptions;
use dagfact_symbolic::supernode::AmalgamationOptions;
use dagfact_symbolic::FactoKind;

fn main() {
    let a = grid_laplacian_3d(40, 40, 40);
    let opts = SimOptions::default();
    let hybrid = Platform::mirage(12, 3);
    let cpu12 = Platform::mirage(12, 0);

    println!("Ablation studies on a 40^3 Poisson problem (Cholesky)");
    println!();
    println!("1) amalgamation fill budget (paper default 0.12)");
    println!(
        "{:>6} {:>9} {:>8} {:>8} | {:>10} {:>10}",
        "ratio", "GFlop", "panels", "blocks", "cpu GF/s", "hyb GF/s"
    );
    let mut amalgamation_rows = Vec::new();
    for ratio in [0.0, 0.05, 0.12, 0.25, 0.50] {
        let an = Analysis::new(
            a.pattern(),
            FactoKind::Cholesky,
            &SolverOptions {
                amalgamation: AmalgamationOptions {
                    fill_ratio: ratio,
                    min_width: 8,
                },
                ..SolverOptions::default()
            },
        );
        let st = an.stats();
        let cpu = simulate_factorization(&an, &opts, &cpu12, SimPolicy::ParsecLike { streams: 1 })
            .gflops();
        let hyb = simulate_factorization(&an, &opts, &hybrid, SimPolicy::ParsecLike { streams: 3 })
            .gflops();
        println!(
            "{:>6.2} {:>9.2} {:>8} {:>8} | {:>10.2} {:>10.2}",
            ratio,
            st.flops_real / 1e9,
            st.ncblk,
            st.nblocks,
            cpu,
            hyb
        );
        amalgamation_rows.push(
            Json::obj()
                .field("fill_ratio", ratio)
                .field("gflop", st.flops_real / 1e9)
                .field("panels", st.ncblk)
                .field("blocks", st.nblocks)
                .field("cpu_gflops", cpu)
                .field("hybrid_gflops", hyb),
        );
    }

    println!();
    println!("2) panel split width (paper §III: split to create parallelism)");
    println!(
        "{:>6} {:>8} {:>8} | {:>10} {:>10}",
        "width", "panels", "blocks", "cpu GF/s", "hyb GF/s"
    );
    let mut split_rows = Vec::new();
    for width in [32usize, 64, 128, 256, 1024] {
        let an = Analysis::new(
            a.pattern(),
            FactoKind::Cholesky,
            &SolverOptions {
                split: SplitOptions { max_width: width },
                ..SolverOptions::default()
            },
        );
        let st = an.stats();
        let cpu = simulate_factorization(&an, &opts, &cpu12, SimPolicy::ParsecLike { streams: 1 })
            .gflops();
        let hyb = simulate_factorization(&an, &opts, &hybrid, SimPolicy::ParsecLike { streams: 3 })
            .gflops();
        println!(
            "{:>6} {:>8} {:>8} | {:>10.2} {:>10.2}",
            width, st.ncblk, st.nblocks, cpu, hyb
        );
        split_rows.push(
            Json::obj()
                .field("max_width", width)
                .field("panels", st.ncblk)
                .field("blocks", st.nblocks)
                .field("cpu_gflops", cpu)
                .field("hybrid_gflops", hyb),
        );
    }

    println!();
    println!("3) ordering (fill-reduction drives everything)");
    println!(
        "{:>18} {:>10} {:>10} | {:>10}",
        "ordering", "nnzL", "GFlop", "cpu GF/s"
    );
    let mut ordering_rows = Vec::new();
    for (name, kind) in [
        ("nested dissection", OrderingKind::NestedDissection),
        ("reverse CM", OrderingKind::ReverseCuthillMcKee),
    ] {
        let an = Analysis::new(
            a.pattern(),
            FactoKind::Cholesky,
            &SolverOptions {
                ordering: kind,
                ..SolverOptions::default()
            },
        );
        let st = an.stats();
        let cpu = simulate_factorization(&an, &opts, &cpu12, SimPolicy::ParsecLike { streams: 1 })
            .gflops();
        println!(
            "{:>18} {:>10} {:>10.2} | {:>10.2}",
            name,
            st.nnz_l,
            st.flops_real / 1e9,
            cpu
        );
        ordering_rows.push(
            Json::obj()
                .field("ordering", name)
                .field("nnz_l", st.nnz_l)
                .field("gflop", st.flops_real / 1e9)
                .field("cpu_gflops", cpu),
        );
    }

    println!();
    println!("4) LDLt temp-buffer trick (native) vs per-update D·Lt (generic, §V-A)");
    let an = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
    let native = simulate_factorization(&an, &opts, &cpu12, SimPolicy::NativeStatic).gflops();
    let generic = simulate_factorization(&an, &opts, &cpu12, SimPolicy::ParsecLike { streams: 1 })
        .gflops();
    println!("   native (buffered D·Lt): {native:.2} GF/s");
    println!("   generic (per-update):   {generic:.2} GF/s   ({:.0}% gap)",
        (1.0 - generic / native) * 100.0
    );

    println!();
    println!("5) subtree clustering (the paper's §VI future work) on a small,");
    println!("   overhead-bound problem (16^3, afshell10-like regime)");
    let small = dagfact_sparse::gen::grid_laplacian_3d(16, 16, 16);
    let an = Analysis::new(small.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let costs = an.costs(false);
    println!(
        "{:>12} {:>8} | {:>10} {:>10}",
        "threshold", "tasks", "starpu GF/s", "parsec GF/s"
    );
    let mut cluster_rows = Vec::new();
    for divisor in [0usize, 1000, 300, 100, 30] {
        let o = SimOptions {
            cluster_flops: (divisor > 0).then(|| costs.total / divisor as f64),
            ..SimOptions::default()
        };
        let dag = dagfact_core::build_sim_dag(&an, &o, &cpu12, SimPolicy::StarPuLike);
        let s = simulate_factorization(&an, &o, &cpu12, SimPolicy::StarPuLike).gflops();
        let p = simulate_factorization(&an, &o, &cpu12, SimPolicy::ParsecLike { streams: 1 })
            .gflops();
        let label = if divisor == 0 {
            "off".to_string()
        } else {
            format!("total/{divisor}")
        };
        println!("{label:>12} {:>8} | {s:>10.2} {p:>11.2}", dag.tasks.len());
        cluster_rows.push(
            Json::obj()
                .field("threshold", label.as_str())
                .field("tasks", dag.tasks.len())
                .field("starpu_gflops", s)
                .field("parsec_gflops", p),
        );
    }

    println!();
    println!("6) fan-in vs fan-out communication (the paper's §VI distributed");
    println!("   future work) — proportional mapping of the 40^3 problem");
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    println!(
        "{:>6} | {:>10} {:>10} | {:>10} {:>10} | {:>9} {:>9}",
        "nodes", "msgs(out)", "MB(out)", "msgs(in)", "MB(in)", "msg cut", "byte cut"
    );
    let mut fan_rows = Vec::new();
    for nnodes in [2usize, 4, 8, 16] {
        let study = dagfact_core::fan_in_study(&an, false, nnodes);
        fan_rows.push(
            Json::obj()
                .field("nodes", nnodes)
                .field(
                    "fan_out",
                    Json::obj()
                        .field("messages", study.fan_out.messages)
                        .field("bytes", study.fan_out.bytes),
                )
                .field(
                    "fan_in",
                    Json::obj()
                        .field("messages", study.fan_in.messages)
                        .field("bytes", study.fan_in.bytes),
                ),
        );
        println!(
            "{:>6} | {:>10} {:>10.1} | {:>10} {:>10.1} | {:>8.1}x {:>8.2}x",
            nnodes,
            study.fan_out.messages,
            study.fan_out.bytes / 1e6,
            study.fan_in.messages,
            study.fan_in.bytes / 1e6,
            study.fan_out.messages as f64 / study.fan_in.messages.max(1) as f64,
            study.fan_out.bytes / study.fan_in.bytes.max(1.0),
        );
    }
    println!("   (fan-in accumulates remote updates locally: far fewer messages,");
    println!("    somewhat fewer bytes, at the price of local buffers — §VI)");
    let doc = Json::obj()
        .field("experiment", "ablation")
        .field("amalgamation", amalgamation_rows)
        .field("split_width", split_rows)
        .field("ordering", ordering_rows)
        .field(
            "ldlt_update",
            Json::obj()
                .field("native_gflops", native)
                .field("generic_gflops", generic),
        )
        .field("clustering", cluster_rows)
        .field("fan_in_out", fan_rows);
    match write_results("ablation", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/ablation.json: {e}");
            std::process::exit(1);
        }
    }
}
