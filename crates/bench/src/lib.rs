//! # dagfact-bench
//!
//! The paper-reproduction harness: what regenerates the paper's Table I
//! and Figures 2-4 with the `dagfact` stack, and nothing else. Every
//! binary here is deterministic — simulated or virtual time, no wall
//! clock — so its `results/` output is byte-comparable across runs and
//! `make bench` leaves a committed tree unchanged. Wall-clock measurement
//! lives in `benchmark/` (`BENCHMARK.json`), the repository's only timer.
//! See `EXPERIMENTS.md` at the repository root for the recorded
//! paper-vs-measured comparison.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — matrix inventory: size, nnz(A), nnz(L), flops;
//! * `fig2`   — CPU strong scaling of the three schedulers (simulated
//!   Mirage node, 1→12 cores);
//! * `fig3`   — multi-stream GPU GEMM kernel study (cuBLAS-like /
//!   ASTRA-like / sparse kernels × 1-3 streams);
//! * `fig4`   — hybrid scaling, 12 cores + 0-3 GPUs;
//! * `ablation` — design-choice studies beyond the paper (amalgamation
//!   ratio sweep, 1D vs 2D task split, data-reuse on/off);
//! * `comm`   — fan-out vs fan-in traffic prediction at 1/2/4/8 nodes;
//! * `verify_sweep` — static race/deadlock/count proof of the task graph
//!   of each of the 9 proxies (writes no file).
//!
//! The library half hosts the proxy-matrix registry substituting for the
//! University of Florida set (DESIGN.md §2).

// Errors, not unwraps, in library code (tests: clippy.toml), and no
// console or file I/O and no sleeping but where a site allows it in place
// (clippy.toml's disallowed methods).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod matrices;

pub use matrices::{proxies, MatrixProxy};
