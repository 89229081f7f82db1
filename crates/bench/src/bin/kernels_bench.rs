//! Kernel study: SIMD (AVX2/FMA) vs portable GFLOP/s on the dense
//! kernels, cache-blocking autotune, and an end-to-end factorization
//! proxy with trace-attributed per-kernel rates.
//!
//! ```text
//! cargo run -p dagfact-bench --bin kernels_bench --release
//! ```
//!
//! Sections:
//!
//! 1. **GEMM microkernels** — the dispatched [`gemm`] against
//!    [`gemm_portable`] across the update shapes a supernodal
//!    factorization produces (tall-skinny `m × 32..128`). On an AVX2
//!    host the run **gates** on a ≥[`MIN_SPEEDUP`]× geometric-mean
//!    speedup over the tall-skinny update shapes; without AVX2 the gate
//!    is skipped loudly and only portable rates are recorded.
//! 2. **Blocking autotune** — sweep `mc/kc/nc` candidates on a large
//!    update GEMM, apply the winner via [`simd::set_blocking`], and
//!    persist the choice as a `DAGFACT_KERNELS_BLOCK=mc,kc,nc` line
//!    (printed and recorded in the JSON for the caller to export).
//! 3. **End-to-end proxies** — two Table-I proxy factorizations run
//!    twice (forced-scalar, then the detected ISA) with span recording:
//!    wall time, per-kernel GFLOP/s from the trace attribution, and the
//!    relative residual of a solve. Both runs must reach the same
//!    residual quality — the SIMD kernels change association, not
//!    accuracy.
//!
//! Output: a table on stdout plus `results/BENCH_kernels.json`. Exits
//! non-zero on a failed gate (AVX2 host only) or a residual mismatch.

use dagfact_bench::{write_results, Json};
use dagfact_core::{Analysis, ExecOptions, RuntimeKind, SolverOptions};
use dagfact_kernels::{force_isa, gemm, gemm_portable, isa, simd, Blocking, Isa, Trans};
use dagfact_rt::{RunConfig, TraceRecorder};
use dagfact_sparse::{gen, CscMatrix};
use dagfact_symbolic::FactoKind;
use std::hint::black_box;
use std::time::Instant;

/// Required geometric-mean speedup of the dispatched GEMM over the
/// portable one across the tall-skinny update shapes (AVX2 hosts only).
const MIN_SPEEDUP: f64 = 1.5;
/// Residuals of the scalar and SIMD runs must both sit below this
/// relative bound and within [`RESIDUAL_RATIO`]× of each other.
const MAX_RESIDUAL: f64 = 1e-10;
const RESIDUAL_RATIO: f64 = 10.0;

/// Tall-skinny update shapes (`m × n × k`): the compressed-1D update
/// GEMMs the factorization spends its time in. These drive the gate.
const UPDATE_SHAPES: &[(usize, usize, usize)] =
    &[(256, 32, 32), (512, 32, 64), (1024, 32, 64), (512, 64, 64)];
/// Squarer shapes reported for context (no gate).
const WIDE_SHAPES: &[(usize, usize, usize)] = &[(256, 128, 128), (512, 128, 128)];

fn filled(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f64 / 1000.0 - 1.0
        })
        .collect()
}

/// Median seconds per call over adaptive batches (same shape as the
/// `microbench` harness, but returning the figure for the JSON record).
fn time_median<F: FnMut()>(mut f: F) -> f64 {
    const SAMPLES: usize = 9;
    const TARGET: f64 = 4e-3;
    // Warmup + batch sizing.
    let t0 = Instant::now();
    let mut iters = 0u64;
    while t0.elapsed().as_secs_f64() < 10e-3 {
        f();
        iters += 1;
    }
    let per = t0.elapsed().as_secs_f64() / iters as f64;
    let batch = (TARGET / per).ceil().max(1.0) as u64;
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[SAMPLES / 2]
}

/// GFLOP/s of one `m×n×k` GEMM (`2mnk` flops) given seconds per call.
fn gflops(m: usize, n: usize, k: usize, secs: f64) -> f64 {
    (2 * m * n * k) as f64 / secs / 1e9
}

/// Time the NT×T update-style GEMM `C ← C − A·Bᵀ` for one kernel tier.
fn time_gemm(m: usize, n: usize, k: usize, portable: bool) -> f64 {
    let a = filled(m * k, 1);
    let b = filled(n * k, 2);
    let mut c = filled(m * n, 3);
    time_median(|| {
        let (a, b) = (black_box(&a), black_box(&b));
        if portable {
            gemm_portable(Trans::NoTrans, Trans::Trans, m, n, k, -1.0, a, m, b, n, 1.0, &mut c, m);
        } else {
            gemm(Trans::NoTrans, Trans::Trans, m, n, k, -1.0, a, m, b, n, 1.0, &mut c, m);
        }
    })
}

fn shape_record(m: usize, n: usize, k: usize, portable: f64, simd_t: Option<f64>) -> Json {
    let mut rec = Json::obj()
        .field("m", m as i64)
        .field("n", n as i64)
        .field("k", k as i64)
        .field("portable_gflops", gflops(m, n, k, portable));
    if let Some(t) = simd_t {
        rec = rec
            .field("simd_gflops", gflops(m, n, k, t))
            .field("speedup", portable / t);
    }
    rec
}

fn exec_with(rec: std::sync::Arc<TraceRecorder>) -> ExecOptions {
    ExecOptions {
        run: RunConfig {
            trace: Some(rec),
            ..RunConfig::resilient()
        },
        epsilon_override: None,
        spill_dir: None,
    }
}

/// ‖Ax − b‖∞ / ‖b‖∞ for the solved system.
fn rel_residual(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv(x, &mut ax);
    let num = ax
        .iter()
        .zip(b)
        .map(|(y, r)| (y - r).abs())
        .fold(0.0f64, f64::max);
    let den = b.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    num / den.max(f64::MIN_POSITIVE)
}

/// One traced proxy factorization + solve under the current ISA.
fn run_proxy(a: &CscMatrix<f64>, analysis: &Analysis, nthreads: usize) -> (f64, f64, Json) {
    let rec = TraceRecorder::shared();
    let t0 = Instant::now();
    let factors = analysis
        .factorize_with(a, RuntimeKind::Native, nthreads, &exec_with(rec.clone()))
        .expect("proxy factorization");
    let wall = t0.elapsed().as_secs_f64();
    let b = vec![1.0; a.nrows()];
    let x = factors.solve(&b);
    let resid = rel_residual(a, &x, &b);
    let trace = rec.snapshot();
    let kernels = trace
        .kernel_breakdown()
        .iter()
        .map(|ks| {
            Json::obj()
                .field("kernel", ks.kernel)
                .field("tasks", ks.count as i64)
                .field("time_ms", ks.total_ns as f64 / 1e6)
                .field("gflops", ks.gflops)
        })
        .collect::<Vec<_>>();
    (wall, resid, Json::Arr(kernels))
}

fn main() {
    let detected = isa();
    let avx2 = detected == Isa::Avx2;
    println!("kernel study: detected ISA = {}", detected.name());
    let mut failures = 0usize;

    // --- 1. GEMM microkernels -----------------------------------------
    println!(
        "\n{:<14} | {:>10} {:>10} {:>8}",
        "gemm NTxT", "scalar", "simd", "speedup"
    );
    let mut gemm_records = Vec::new();
    let mut gate_speedups = Vec::new();
    for (shapes, gated) in [(UPDATE_SHAPES, true), (WIDE_SHAPES, false)] {
        for &(m, n, k) in shapes {
            let tp = time_gemm(m, n, k, true);
            let ts = avx2.then(|| time_gemm(m, n, k, false));
            if let Some(ts) = ts {
                if gated {
                    gate_speedups.push(tp / ts);
                }
                println!(
                    "{m:>5}x{n:<3}x{k:<4} | {:>10.2} {:>10.2} {:>7.2}x",
                    gflops(m, n, k, tp),
                    gflops(m, n, k, ts),
                    tp / ts
                );
            } else {
                println!("{m:>5}x{n:<3}x{k:<4} | {:>10.2} {:>10} {:>8}", gflops(m, n, k, tp), "-", "-");
            }
            gemm_records.push(shape_record(m, n, k, tp, ts).field("gated", gated));
        }
    }

    // --- 2. Blocking autotune -----------------------------------------
    let mut autotune_trials = Vec::new();
    let default_blocking = simd::blocking();
    let mut best = (default_blocking, f64::INFINITY);
    if avx2 {
        let (am, an, ak) = (1024usize, 128usize, 128usize);
        for &mc in &[64usize, 128, 256] {
            for &kc in &[128usize, 256, 512] {
                for &nc in &[256usize, 512] {
                    let cand = Blocking { mc, kc, nc };
                    simd::set_blocking(cand);
                    let t = time_gemm(am, an, ak, false);
                    autotune_trials.push(
                        Json::obj()
                            .field("mc", mc as i64)
                            .field("kc", kc as i64)
                            .field("nc", nc as i64)
                            .field("gflops", gflops(am, an, ak, t)),
                    );
                    if t < best.1 {
                        best = (cand, t);
                    }
                }
            }
        }
        simd::set_blocking(best.0);
        println!(
            "\nautotune ({am}x{an}x{ak}): best mc={} kc={} nc={} at {:.2} GF/s",
            best.0.mc,
            best.0.kc,
            best.0.nc,
            gflops(am, an, ak, best.1)
        );
        println!(
            "persist with: export DAGFACT_KERNELS_BLOCK={},{},{}",
            best.0.mc, best.0.kc, best.0.nc
        );
    } else {
        println!("\nautotune: SKIPPED (no AVX2 — blocking only affects the SIMD tier)");
    }
    let autotune_record = Json::obj()
        .field("ran", avx2)
        .field(
            "chosen",
            Json::obj()
                .field("mc", best.0.mc as i64)
                .field("kc", best.0.kc as i64)
                .field("nc", best.0.nc as i64),
        )
        .field(
            "env",
            format!("DAGFACT_KERNELS_BLOCK={},{},{}", best.0.mc, best.0.kc, best.0.nc),
        )
        .field("trials", autotune_trials);

    // --- Gate: geometric-mean speedup over the update shapes ----------
    let gate_record = if avx2 {
        let gm = (gate_speedups.iter().map(|s| s.ln()).sum::<f64>()
            / gate_speedups.len() as f64)
            .exp();
        let pass = gm >= MIN_SPEEDUP;
        if !pass {
            eprintln!(
                "GATE FAILED: geometric-mean update-GEMM speedup {gm:.2}x < {MIN_SPEEDUP}x"
            );
            failures += 1;
        } else {
            println!("\ngate: update-GEMM speedup {gm:.2}x >= {MIN_SPEEDUP}x  PASS");
        }
        Json::obj()
            .field("required", MIN_SPEEDUP)
            .field("measured", gm)
            .field("pass", pass)
    } else {
        println!("\ngate: SKIPPED — host has no AVX2; SIMD speedup not measurable here");
        Json::obj()
            .field("required", MIN_SPEEDUP)
            .field("skipped", "host has no AVX2")
    };

    // --- 3. End-to-end proxies, scalar vs detected ISA ----------------
    let nthreads = std::thread::available_parallelism().map_or(4, |v| v.get().min(8));
    let problems: Vec<(&str, CscMatrix<f64>, FactoKind)> = vec![
        ("audi-proxy", gen::grid_laplacian_3d(16, 16, 16), FactoKind::Cholesky),
        (
            "serena-proxy",
            gen::shifted_laplacian_3d(12, 12, 12, 1.0),
            FactoKind::Ldlt,
        ),
    ];
    println!(
        "\n{:<14} {:>6} | {:>10} {:>10} {:>8} | {:>11} {:>11}",
        "Matrix", "facto", "scalar ms", "simd ms", "speedup", "resid(s)", "resid(v)"
    );
    let mut e2e_records = Vec::new();
    for (name, a, facto) in &problems {
        let analysis = Analysis::new(a.pattern(), *facto, &SolverOptions::default());
        force_isa(Isa::Scalar);
        let (wall_s, resid_s, kernels_s) = run_proxy(a, &analysis, nthreads);
        force_isa(detected);
        let (wall_v, resid_v, kernels_v) = run_proxy(a, &analysis, nthreads);
        // Equal-quality gate: association changes must stay at roundoff.
        let ratio = resid_s.max(resid_v) / resid_s.min(resid_v).max(f64::MIN_POSITIVE);
        let ok = resid_s < MAX_RESIDUAL && resid_v < MAX_RESIDUAL && ratio <= RESIDUAL_RATIO;
        if !ok {
            eprintln!(
                "{name}: residual mismatch — scalar {resid_s:.3e}, simd {resid_v:.3e} (ratio {ratio:.1})"
            );
            failures += 1;
        }
        println!(
            "{:<14} {:>6} | {:>10.2} {:>10.2} {:>7.2}x | {:>11.3e} {:>11.3e}{}",
            name,
            facto.label(),
            wall_s * 1e3,
            wall_v * 1e3,
            wall_s / wall_v,
            resid_s,
            resid_v,
            if ok { "" } else { "  FAILED" },
        );
        e2e_records.push(
            Json::obj()
                .field("matrix", *name)
                .field("facto", facto.label())
                .field("nthreads", nthreads as i64)
                .field("ok", ok)
                .field(
                    "scalar",
                    Json::obj()
                        .field("wall_ms", wall_s * 1e3)
                        .field("residual", resid_s)
                        .field("kernels", kernels_s),
                )
                .field(
                    "simd",
                    Json::obj()
                        .field("wall_ms", wall_v * 1e3)
                        .field("residual", resid_v)
                        .field("kernels", kernels_v),
                )
                .field("speedup", wall_s / wall_v),
        );
    }

    let doc = Json::obj()
        .field("isa", detected.name())
        .field("gemm", gemm_records)
        .field("autotune", autotune_record)
        .field("gate", gate_record)
        .field("end_to_end", e2e_records);
    match write_results("BENCH_kernels", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write results: {e}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("kernels_bench: {failures} failure(s)");
        std::process::exit(1);
    }
}
