# Convenience targets. The canonical gate is `make check`.

.PHONY: build test bench loc check check-clean check-kernels check-robust check-analysis check-memory check-trace check-serve check-loom check-miri check-tsan lint clippy

build:
	cargo build --release

test:
	cargo test -q --workspace

# Regenerate the paper-reproduction artifacts in results/ (Table I,
# Figures 2-4, ablation, comm study). All simulated or predicted from
# the symbolic structure: the output is byte-identical run to run, so on
# a tree with current results/ this changes nothing — and fails if it
# does.
# Wall-clock numbers come from benchmark/ (BENCHMARK.json) only.
bench:
	tools/check-clean.sh snapshot
	cargo run -q --release -p dagfact-bench --bin table1
	cargo run -q --release -p dagfact-bench --bin fig2
	cargo run -q --release -p dagfact-bench --bin fig3
	cargo run -q --release -p dagfact-bench --bin fig4
	cargo run -q --release -p dagfact-bench --bin ablation
	cargo run -q --release -p dagfact-bench --bin comm
	tools/check-clean.sh verify

# Non-test lines per crate and file -> results/loc.json (the ROADMAP's
# "report non-test line delta per crate" gate).
loc:
	tools/loc.sh

# The full gate: kernels + robustness + static-analysis + memory-budget +
# observability + loom model-checking + serving suites —
# bracketed by the working-tree check: a gate that rewrites a tracked
# file fails here (tools/check-clean.sh). Every step runs on this host;
# none skips.
check:
	tools/check-clean.sh snapshot
	$(MAKE) --no-print-directory check-kernels check-robust check-analysis check-memory check-trace check-loom check-serve
	$(MAKE) --no-print-directory check-clean

# The closing half of the bracket (the snapshot is taken by `check`).
check-clean:
	tools/check-clean.sh verify

# Kernel gate (DESIGN.md §15): the kernels unit suite (with the
# width-identity test: the zmm tile bitwise the ymm tile on AVX-512
# hosts), the differential SIMD-vs-portable fuzz suite — GEMM tiers
# against each other, the sparse update and the blocked TRSM against
# their dense references — and the bitwise contracts (a GEMM equals its
# contraction split into chunks at every tier; the left TRSM equals a
# column-at-a-time substitution) — dispatched, again under DAGFACT_FORCE_SCALAR=1
# (the portable tier of the same build) and in a forced-scalar
# build+test leg (--no-default-features proves the portable tier stands
# alone), the factorization suite on the portable tier (same residual
# bounds as the dispatched run in check-robust), and the release-mode
# ratio test over update and solve shapes: >=1.5x dispatched over
# portable (skipped loudly without AVX2) and, on AVX-512 hosts, zmm over
# ymm >=1.3x f64 / >=1.2x C64. The factors-and-solutions twin of the
# width identity, core/tests/isa_identity.rs, runs in check-robust's
# workspace tests.
check-kernels:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --lib
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --test simd_fuzz --test bitwise
	DAGFACT_FORCE_SCALAR=1 cargo test -q -p dagfact-kernels --test simd_fuzz --test proptest_kernels --test bitwise
	RUST_BACKTRACE=1 cargo test -q -p dagfact-kernels --no-default-features
	DAGFACT_FORCE_SCALAR=1 cargo test -q -p dagfact-core --test factorize_solve --test solve
	cargo test -q --release -p dagfact-kernels --test simd_fuzz -- --ignored

# Full robustness gate: the whole test suite plus the fault-injection and
# recovery suites with backtraces on, the release-mode bare-executor
# ratio test (central queue <= 1.5x the deque floor per task), then a
# warning-free clippy pass.
check-robust:
	RUST_BACKTRACE=1 cargo test -q --workspace
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt --test fault_injection
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test fault_recovery
	cargo test -q --release -p dagfact-rt --test exec_overhead -- --ignored
	cargo clippy --workspace --all-targets -- -D warnings

# Static-analysis gate: the source analyzers (`lint`: hot paths, lock-order
# cycles, ORDERING notes, sync shim), the graph-verifier suites,
# the sweep over the 9 proxies' task graphs (one facto-independent graph
# each, the one all 3 engines run: one static proof; release:
# the graphs are large), the analysis identity at the benchmark's full
# sizes (the only sizes whose nested dissection forks onto a second
# thread; the quick sizes run in the workspace tests) with the full
# renumbering sweep (10 renumberings of 16³-28³ boxes and grids: nnz(L)
# within 1%), nested dissection against the plane reference, and a
# warning-free clippy pass (which carries the no-unwrap/expect, no-I/O
# and SAFETY-contract rules: clippy.toml, the lib.rs of every crate a hot
# root reaches and the rt/core/kernels manifests).
check-analysis: lint
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt verify
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test verify_graph
	cargo run -q --release -p dagfact-bench --bin verify_sweep
	cargo test -q --release -p dagfact-core --test analysis_identity -- --ignored
	cargo test -q --release -p dagfact-core --test plane_reference -- --ignored
	cargo clippy --workspace --all-targets -- -D warnings

# Memory-budget gate: the ledger unit suite, the budgeted-execution suite
# (50% of peak must complete through the demand pager at full accuracy
# on the Table-I proxies; capped two-level runs bitwise equal to
# unconstrained ones; ledger under its cap) and the reader-fuzz suite.
check-memory:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt budget
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test memory_budget
	RUST_BACKTRACE=1 cargo test -q -p dagfact-sparse --test reader_fuzz

# Observability gate: the recorder/analyzer unit suite with the
# Chrome-trace exporter tests (engine traces in rt, simulator traces in
# core), the per-policy span-invariant suite, the same invariants on
# recorded factorizations (3 factorization kinds x 3 policies), and the
# CLI --trace/--metrics tests. The cost of attaching a recorder is
# `rt.trace_overhead_frac` in BENCHMARK.json.
check-trace:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt trace
	RUST_BACKTRACE=1 cargo test -q -p dagfact-rt --test trace_spans
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core trace
	RUST_BACKTRACE=1 cargo test -q -p dagfact-core --test factorize_solve
	RUST_BACKTRACE=1 cargo test -q -p dagfact-cli trace

# Serving gate (DESIGN.md §12): the serve crate's unit suites, the
# job-spec mutation fuzzer, the concurrent soak under faults (injected
# task panics, an overflowing matrix, deadlines — no contamination,
# typed rejections),
# the CLI serve-mode tests, and the release-mode cache ratio test
# (a factor hit must be ≥5x faster than a cold request).
check-serve:
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve --test jobspec_fuzz
	RUST_BACKTRACE=1 cargo test -q -p dagfact-serve --test service_soak
	RUST_BACKTRACE=1 cargo test -q -p dagfact-cli serve
	cargo test -q --release -p dagfact-serve --test service_soak -- --ignored

# Model-check the five runtime sync protocols (+ their negative "teeth"
# twins) under the in-repo loom-style explorer (DESIGN.md §11). The
# dedicated target dir keeps --cfg loom artifacts from churning the
# normal build cache.
check-loom:
	RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom \
	    cargo test -q -p dagfact-rt --release --test loom_models

# Opt-in, outside `make check`: Miri over the curated unsafe-bearing
# suites and TSan over the concurrency suites need a nightly toolchain
# with the miri / rust-src components, which this host does not have
# (each script prints SKIPPED without them). DESIGN.md §11 names the gate
# that covers each unsafe site here instead.
check-miri:
	tools/check-miri.sh

check-tsan:
	tools/check-tsan.sh

# The source gate (DESIGN.md §13, §16): one pass over every library
# source — hot-path purity from the roots in lint-hotpaths.toml, the
# lock-order graph's cycle check, an ORDERING: note on every all-Relaxed
# atomic call, the sync shim — writing results/lint-{hot,sync}.json. Any
# finding fails; nothing is grandfathered.
lint:
	cargo run -q -p dagfact-lint --bin lint

clippy:
	cargo clippy --workspace --all-targets -- -D warnings
