//! Regenerate **Figure 3** of the paper: multi-stream performance of the
//! DGEMM kernel on one GPU, for the three implementations — cuBLAS-like,
//! ASTRA-like, and the sparse adaptation — with 1, 2 and 3 streams.
//!
//! Workload exactly as §V-B: `C = C − A·Bᵀ` with `N = K = 128`, `M` swept
//! to 10000, 100 kernel calls distributed round-robin over the streams.
//! For the sparse curves, "C is a panel twice as tall as A" (blocks of
//! ~200 rows on average).
//!
//! ```text
//! cargo run -p dagfact-bench --bin fig3 --release
//! ```

use dagfact_gpusim::kernelmodel::{stream_bench_gflops, GpuKernelKind};
use dagfact_gpusim::platform::GpuModel;
use dagfact_rt::{write_results, Json};

fn main() {
    let gpu = GpuModel::m2070();
    let ms = [
        128usize, 256, 384, 512, 768, 1000, 1500, 2000, 3000, 4000, 5000, 6000, 8000, 10000,
    ];
    println!("Figure 3 — DGEMM kernel GFlop/s vs M (N=K=128), 100 calls round-robin");
    println!("cuBLAS peak (square-matrix ceiling): {:.0} GFlop/s", gpu.peak_gflops);
    println!();
    println!(
        "{:>6} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "M",
        "cub-1s",
        "cub-2s",
        "cub-3s",
        "ast-1s",
        "ast-2s",
        "ast-3s",
        "sp-1s",
        "sp-2s",
        "sp-3s"
    );
    let mut rows = Vec::new();
    for &m in &ms {
        let run = |kind: GpuKernelKind, s: usize| stream_bench_gflops(&gpu, kind, m, 128, 128, 100, s);
        let sparse = GpuKernelKind::Sparse {
            // "C is a panel twice as tall as A" (§V-B experiment setup).
            target_height: 2 * m,
            ldlt: false,
        };
        let cub: Vec<f64> = (1..=3).map(|s| run(GpuKernelKind::CublasLike, s)).collect();
        let ast: Vec<f64> = (1..=3).map(|s| run(GpuKernelKind::AstraLike, s)).collect();
        let sp: Vec<f64> = (1..=3).map(|s| run(sparse, s)).collect();
        println!(
            "{:>6} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1} | {:>7.1} {:>7.1} {:>7.1}",
            m, cub[0], cub[1], cub[2], ast[0], ast[1], ast[2], sp[0], sp[1], sp[2],
        );
        rows.push(
            Json::obj()
                .field("m", m)
                .field("cublas_gflops", cub)
                .field("astra_gflops", ast)
                .field("sparse_gflops", sp),
        );
    }
    println!();
    println!("paper checkpoints (§V-B):");
    println!("  * one stream is always worst; a second stream helps most for small M;");
    println!("  * the third stream only matters below M ≈ 1000;");
    println!("  * ASTRA sits ~15% below cuBLAS on this non-square sweep;");
    println!("  * the sparse kernel degrades as the destination panel grows taller");
    println!("    (here 2×), and an LDLt variant would cost another ~5%.");

    // LDLᵀ variant callout (the extra D parameter, §V-B last paragraph).
    let m = 4000;
    let llt = stream_bench_gflops(
        &gpu,
        GpuKernelKind::Sparse { target_height: 2 * m, ldlt: false },
        m,
        128,
        128,
        100,
        2,
    );
    let ldlt = stream_bench_gflops(
        &gpu,
        GpuKernelKind::Sparse { target_height: 2 * m, ldlt: true },
        m,
        128,
        128,
        100,
        2,
    );
    println!();
    println!(
        "LDLt kernel variant at M={m}, 2 streams: {llt:.1} -> {ldlt:.1} GFlop/s ({:.1}% loss)",
        (1.0 - ldlt / llt) * 100.0
    );
    let doc = Json::obj()
        .field("experiment", "fig3")
        .field("peak_gflops", gpu.peak_gflops)
        .field("streams", vec![1usize, 2, 3])
        .field("rows", rows)
        .field(
            "ldlt_variant",
            Json::obj()
                .field("m", m)
                .field("streams", 2usize)
                .field("llt_gflops", llt)
                .field("ldlt_gflops", ldlt),
        );
    match write_results("fig3", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write results/fig3.json: {e}");
            std::process::exit(1);
        }
    }
}
