//! # dagfact-cli
//!
//! Command-line front end to the `dagfact` solver stack:
//!
//! ```text
//! dagfact analyze  <matrix.mtx> [--facto auto|chol|ldlt|lu]
//! dagfact solve    <matrix.mtx> [--facto …] [--runtime native|starpu|parsec]
//!                  [--threads N] [--rhs <file>] [--refine N] [--output <file>]
//!                  [--fault-plan <spec>] [--max-refactor-attempts N]
//!                  [--mem-budget <bytes>] [--spill-dir <path>]
//!                  [--trace <file>] [--metrics]
//! dagfact simulate <matrix.mtx> [--facto …] [--cores N] [--gpus N]
//!                  [--policy pastix|starpu|parsec] [--streams N]
//!                  [--trace <file>]
//! dagfact verify   <matrix.mtx> [--facto …]
//! dagfact dist     <matrix.mtx> [--facto …] [--nodes N] [--output <file>]
//! ```
//!
//! `verify` checks the task graph all three engines execute for the
//! matrix: each engine's program must derive the algebraic graph (same
//! successors, task kinds and predecessor counts), and one static proof
//! shows that graph race-free, deadlock-free and well formed. The command
//! fails (non-zero exit) when either check does.
//!
//! `dist` predicts the communication of distributing the factorization
//! over 1, 2, 4, … up to N nodes (the paper's §VI fan-in vs fan-out
//! trade): it prints the table and, with `--output`, writes the JSON
//! record in the shape of `results/comm.json`. It writes no other file.
//!
//! `--trace` writes the recorded task/phase timeline as a Chrome-trace
//! JSON file (load in Perfetto or `chrome://tracing`); `--metrics`
//! appends the per-kernel / per-worker / critical-path report to the
//! solve output. Both observe the run through `dagfact_rt::TraceRecorder`
//! and cost nothing when absent.
//!
//! Matrices are Matrix Market coordinate files (real or complex,
//! general or symmetric). Without `--rhs`, the right-hand side is `A·1`
//! so the exact solution is the all-ones vector — handy for smoke tests.
//!
//! The logic lives in [`run`] (argument vector in, report text out) so the
//! whole CLI is unit-testable without spawning processes.

use dagfact_core::{
    simulate_factorization, Analysis, ExecOptions, RuntimeKind, SimOptions, Solver,
    SolverOptions,
};
use dagfact_rt::{FaultPlan, MemoryBudget, RunConfig};
use dagfact_gpusim::{Platform, SimPolicy};
use dagfact_kernels::{Scalar, C64};
use dagfact_sparse::mm::read_matrix_market_file;
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::fmt::Write as _;

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Opts {
    command: String,
    matrix: String,
    facto: Option<FactoKind>,
    runtime: RuntimeKind,
    threads: usize,
    rhs: Option<String>,
    refine: usize,
    output: Option<String>,
    fault_plan: Option<String>,
    max_refactor_attempts: Option<u32>,
    mem_budget: Option<usize>,
    spill_dir: Option<String>,
    trace: Option<String>,
    metrics: bool,
    cores: usize,
    gpus: usize,
    policy: SimPolicy,
    serve: ServeOpts,
    /// Widest cluster of the `dist` study.
    nodes: usize,
}

/// Options specific to the `serve` subcommand.
#[derive(Debug, Clone, Default)]
struct ServeOpts {
    workers: usize,
    queue_cap: usize,
    deadline_ms: Option<u64>,
    /// Job-spec file (one job per line, `-` = stdin) for batch mode.
    jobs: Option<String>,
    /// TCP listen address for HTTP mode.
    listen: Option<String>,
    /// Stop the HTTP loop after this many requests (tests, soaks).
    max_requests: Option<usize>,
}

/// Entry point: parse `args` (without the program name), execute, return
/// the report text.
pub fn run(args: &[String]) -> Result<String, String> {
    let opts = parse(args)?;
    if opts.command == "serve" {
        return serve_cmd(&opts);
    }
    let complex = matrix_is_complex(&opts.matrix)?;
    if complex {
        dispatch::<C64>(&opts, true)
    } else {
        dispatch::<f64>(&opts, false)
    }
}

/// Usage text.
pub fn usage() -> &'static str {
    "usage:\n  dagfact analyze  <matrix.mtx> [--facto auto|chol|ldlt|lu]\n  dagfact solve    <matrix.mtx> [--facto …] [--runtime native|starpu|parsec]\n                   [--threads N] [--rhs file] [--refine N] [--output file]\n                   [--fault-plan spec] [--max-refactor-attempts N]\n                   [--mem-budget bytes[K|M|G]] [--spill-dir path]\n                   [--trace file.json] [--metrics]\n  dagfact simulate <matrix.mtx> [--facto …] [--cores N] [--gpus N]\n                   [--policy pastix|starpu|parsec] [--streams N]\n                   [--trace file.json]\n  dagfact verify   <matrix.mtx> [--facto …]\n  dagfact serve    (--jobs file|- | --listen addr:port) [--workers N]\n                   [--queue-cap N] [--deadline-ms N] [--max-requests N]\n                   [--mem-budget bytes[K|M|G]] [--fault-plan spec]\n  dagfact dist     <matrix.mtx> [--facto …] [--nodes N] [--output file]"
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut it = args.iter();
    let command = it.next().ok_or_else(|| usage().to_string())?.clone();
    if !["analyze", "solve", "simulate", "verify", "serve", "dist"].contains(&command.as_str()) {
        return Err(format!("unknown command {command:?}\n{}", usage()));
    }
    // `serve` is a daemon: jobs carry their own matrices, so there is no
    // matrix positional.
    let matrix = if command == "serve" {
        String::new()
    } else {
        it.next()
            .ok_or_else(|| format!("{command}: missing matrix file\n{}", usage()))?
            .clone()
    };
    let mut opts = Opts {
        command,
        matrix,
        facto: None,
        runtime: RuntimeKind::Ptg,
        threads: std::thread::available_parallelism().map_or(1, |v| v.get()),
        rhs: None,
        refine: 2,
        output: None,
        fault_plan: None,
        max_refactor_attempts: None,
        mem_budget: None,
        spill_dir: None,
        trace: None,
        metrics: false,
        cores: 12,
        gpus: 0,
        policy: SimPolicy::ParsecLike { streams: 3 },
        serve: ServeOpts {
            workers: 2,
            queue_cap: 32,
            ..ServeOpts::default()
        },
        nodes: 8,
    };
    let mut streams = 3usize;
    let mut policy_name = String::from("parsec");
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--facto" => {
                opts.facto = match value()?.as_str() {
                    "auto" => None,
                    "chol" | "cholesky" | "llt" => Some(FactoKind::Cholesky),
                    "ldlt" => Some(FactoKind::Ldlt),
                    "lu" => Some(FactoKind::Lu),
                    other => return Err(format!("unknown facto {other:?}")),
                }
            }
            "--runtime" => {
                opts.runtime = match value()?.as_str() {
                    "native" | "pastix" => RuntimeKind::Native,
                    "starpu" | "dataflow" => RuntimeKind::Dataflow,
                    "parsec" | "ptg" => RuntimeKind::Ptg,
                    other => return Err(format!("unknown runtime {other:?}")),
                }
            }
            "--threads" => opts.threads = parse_num(&value()?)?,
            "--rhs" => opts.rhs = Some(value()?),
            "--refine" => opts.refine = parse_num(&value()?)?,
            "--output" | "-o" => opts.output = Some(value()?),
            "--fault-plan" => {
                let spec = value()?;
                // Validate eagerly so bad specs fail before the solve.
                FaultPlan::parse(&spec).map_err(|e| format!("--fault-plan: {e}"))?;
                opts.fault_plan = Some(spec);
            }
            "--max-refactor-attempts" => {
                opts.max_refactor_attempts =
                    Some(parse_num(&value()?)?.min(u32::MAX as usize) as u32)
            }
            "--mem-budget" => opts.mem_budget = Some(parse_bytes(&value()?)?),
            "--spill-dir" => opts.spill_dir = Some(value()?),
            "--trace" => opts.trace = Some(value()?),
            "--metrics" => opts.metrics = true,
            "--cores" => opts.cores = parse_num(&value()?)?,
            "--nodes" => opts.nodes = parse_num(&value()?)?.max(1),
            "--gpus" => opts.gpus = parse_num(&value()?)?,
            "--streams" => streams = parse_num(&value()?)?,
            "--policy" => policy_name = value()?,
            "--workers" => opts.serve.workers = parse_num(&value()?)?.max(1),
            "--queue-cap" => opts.serve.queue_cap = parse_num(&value()?)?.max(1),
            "--deadline-ms" => opts.serve.deadline_ms = Some(parse_num(&value()?)? as u64),
            "--jobs" => opts.serve.jobs = Some(value()?),
            "--listen" => opts.serve.listen = Some(value()?),
            "--max-requests" => opts.serve.max_requests = Some(parse_num(&value()?)?),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    opts.policy = match policy_name.as_str() {
        "pastix" | "native" => SimPolicy::NativeStatic,
        "starpu" => SimPolicy::StarPuLike,
        "parsec" => SimPolicy::ParsecLike { streams },
        other => return Err(format!("unknown policy {other:?}")),
    };
    Ok(opts)
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|e| format!("bad number {s:?}: {e}"))
}

/// Parse a byte size with an optional `K`/`M`/`G` suffix (powers of 1024).
fn parse_bytes(s: &str) -> Result<usize, String> {
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1usize << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    let n = digits
        .parse::<usize>()
        .map_err(|e| format!("bad byte size {s:?}: {e}"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte size {s:?} overflows"))
}

/// The `serve` subcommand: start the solve daemon, feed it jobs from a
/// file/stdin (batch mode) or over HTTP (`--listen`), and report the
/// final service counters. One JSON object per answered job, one final
/// `stats` line — machine-readable end to end.
fn serve_cmd(opts: &Opts) -> Result<String, String> {
    use dagfact_serve::{JobSpec, ServeConfig, Service};
    let budget = match opts.mem_budget {
        Some(cap) => MemoryBudget::with_cap(cap),
        None => MemoryBudget::unbounded(),
    };
    let fault_plan = match &opts.fault_plan {
        Some(spec) => Some(std::sync::Arc::new(
            FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?,
        )),
        None => None,
    };
    let config = ServeConfig {
        workers: opts.serve.workers,
        queue_cap: opts.serve.queue_cap,
        budget,
        default_deadline_ms: opts.serve.deadline_ms,
        fault_plan,
        ..ServeConfig::default()
    };
    let service = Service::start(config);
    let mut out = String::new();
    match (&opts.serve.jobs, &opts.serve.listen) {
        (Some(jobs), None) => {
            let text = if jobs == "-" {
                use std::io::Read as _;
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                buf
            } else {
                std::fs::read_to_string(jobs).map_err(|e| format!("cannot read {jobs}: {e}"))?
            };
            // Submit everything first so the pool works the batch
            // concurrently, then collect in order.
            let mut pending = Vec::new();
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let ticket = JobSpec::parse(line)
                    .map_err(dagfact_serve::JobError::BadRequest)
                    .and_then(|spec| service.submit(spec));
                pending.push(ticket);
            }
            for entry in pending {
                let line = match entry.and_then(|ticket| ticket.wait()) {
                    Ok(resp) => resp.to_json(false),
                    Err(e) => e.to_json(),
                };
                let _ = writeln!(out, "{line}");
            }
        }
        (None, Some(addr)) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            let local = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| addr.clone());
            let _ = writeln!(out, "listening on {local}");
            let handled = dagfact_serve::serve_http(listener, &service, opts.serve.max_requests)
                .map_err(|e| format!("serve loop: {e}"))?;
            let _ = writeln!(out, "handled {handled} request(s)");
        }
        _ => return Err(format!("serve needs exactly one of --jobs or --listen\n{}", usage())),
    }
    let stats = service.shutdown();
    let _ = writeln!(out, "stats {}", stats.to_json());
    Ok(out)
}

/// The `dist` subcommand: the fan-out vs fan-in communication study of
/// [`dagfact_core::fan_in_study`] at 1, 2, 4, … up to `--nodes` nodes,
/// as a table, and as the `results/comm.json` record shape at `--output`.
fn dist_cmd<T: Scalar>(opts: &Opts, a: &CscMatrix<T>, complex: bool) -> Result<String, String> {
    let facto = pick_facto(opts, a);
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let widths: Vec<usize> = std::iter::successors(Some(1usize), |w| Some(w * 2))
        .take_while(|&w| w < opts.nodes)
        .chain(std::iter::once(opts.nodes))
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "matrix       : {}", opts.matrix);
    let _ = writeln!(
        out,
        "factorization: {}, {} panels",
        facto.label(),
        analysis.symbol.ncblk()
    );
    let _ = writeln!(
        out,
        "{:>5} | {:>9} {:>10} | {:>9} {:>10} {:>10} | {:>6}",
        "nodes", "out msgs", "out MB", "in msgs", "in MB", "buffer MB", "ratio"
    );
    for &nnodes in &widths {
        let study = dagfact_core::fan_in_study(&analysis, complex, nnodes);
        let buffers: f64 = study.fan_in.buffer_bytes_per_node.iter().sum();
        let _ = writeln!(
            out,
            "{:>5} | {:>9} {:>10.2} | {:>9} {:>10.2} {:>10.2} | {:>6.3}",
            nnodes,
            study.fan_out.messages,
            study.fan_out.bytes / 1e6,
            study.fan_in.messages,
            study.fan_in.bytes / 1e6,
            buffers / 1e6,
            study.fan_in.bytes / study.fan_out.bytes.max(f64::MIN_POSITIVE),
        );
    }
    if let Some(path) = &opts.output {
        let record = dagfact_core::comm_study_json(&opts.matrix, &analysis, complex, &widths);
        let doc = dagfact_rt::Json::obj().field("records", vec![record]);
        std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "study        : written to {path}");
    }
    Ok(out)
}

/// Sniff the Matrix Market header for the `complex` field.
fn matrix_is_complex(path: &str) -> Result<bool, String> {
    let content = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let header = content.lines().next().unwrap_or("");
    Ok(header.to_ascii_lowercase().contains("complex"))
}

fn dispatch<T: Scalar>(opts: &Opts, complex: bool) -> Result<String, String> {
    let a: CscMatrix<T> =
        read_matrix_market_file(&opts.matrix).map_err(|e| format!("read {}: {e}", opts.matrix))?;
    if a.nrows() != a.ncols() {
        return Err(format!("matrix is {}x{}, need square", a.nrows(), a.ncols()));
    }
    match opts.command.as_str() {
        "analyze" => analyze(opts, &a, complex),
        "solve" => solve(opts, &a),
        "simulate" => simulate_cmd(opts, &a, complex),
        "verify" => verify_cmd(opts, &a),
        "dist" => dist_cmd(opts, &a, complex),
        _ => unreachable!(),
    }
}

fn pick_facto<T: Scalar>(opts: &Opts, a: &CscMatrix<T>) -> FactoKind {
    opts.facto.unwrap_or_else(|| {
        if a.is_symmetric() {
            if T::IS_COMPLEX {
                FactoKind::Ldlt
            } else {
                FactoKind::Cholesky
            }
        } else {
            FactoKind::Lu
        }
    })
}

fn analyze<T: Scalar>(opts: &Opts, a: &CscMatrix<T>, complex: bool) -> Result<String, String> {
    let facto = pick_facto(opts, a);
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let st = analysis.stats();
    let flops = if complex { st.flops_complex } else { st.flops_real };
    let mut out = String::new();
    let _ = writeln!(out, "matrix      : {}", opts.matrix);
    let _ = writeln!(out, "order       : {}", st.n);
    let _ = writeln!(out, "nnz(A)      : {} (symmetrized)", st.nnz_a);
    let _ = writeln!(out, "factorization: {}", facto.label());
    let _ = writeln!(out, "nnz(L)      : {}", st.nnz_l);
    let fill = if st.nnz_a == 0 { 0.0 } else { st.nnz_l as f64 / (st.nnz_a as f64 / 2.0) };
    let _ = writeln!(out, "fill factor : {fill:.1}x");
    let _ = writeln!(out, "flops       : {:.3} GFlop", flops / 1e9);
    let _ = writeln!(out, "panels      : {}", st.ncblk);
    let _ = writeln!(out, "blocks      : {}", st.nblocks);
    Ok(out)
}

fn solve<T: Scalar>(opts: &Opts, a: &CscMatrix<T>) -> Result<String, String> {
    let mut options = SolverOptions::default();
    if let Some(n) = opts.max_refactor_attempts {
        options.max_refactor_attempts = n.max(1);
    }
    // Production solves run under the fault-tolerant layer: retries,
    // stall watchdog, and (for chaos testing) an injection plan.
    let mut run = RunConfig::resilient();
    if let Some(spec) = &opts.fault_plan {
        let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
        run.fault_plan = Some(std::sync::Arc::new(plan));
    }
    if let Some(cap) = opts.mem_budget {
        run.budget = Some(MemoryBudget::with_cap(cap));
    }
    // Observability: a span recorder is attached only when a trace export
    // or a metrics report was requested; otherwise the engines skip all
    // timestamping (DESIGN.md §10).
    let recorder = (opts.trace.is_some() || opts.metrics)
        .then(dagfact_rt::TraceRecorder::shared);
    run.trace = recorder.clone();
    let exec = ExecOptions {
        run,
        epsilon_override: None,
        spill_dir: opts.spill_dir.as_ref().map(std::path::PathBuf::from),
    };
    let t0 = std::time::Instant::now();
    let mut solver = Solver::with_exec(a, opts.facto, &options, opts.runtime, opts.threads, &exec)
        .map_err(|e| format!("factorization failed: {e}"))?;
    let t_facto = t0.elapsed().as_secs_f64();
    let n = a.nrows();
    let b: Vec<T> = match &opts.rhs {
        Some(path) => read_vector(path, n)?,
        None => {
            // b = A·1 so the expected solution is the ones vector.
            let ones = vec![T::one(); n];
            let mut b = vec![T::zero(); n];
            a.spmv(&ones, &mut b);
            b
        }
    };
    let t1 = std::time::Instant::now();
    let refined = solver
        .solve_adaptive(&b, opts.refine, 1e-14)
        .map_err(|e| format!("solve failed: {e}"))?;
    let t_solve = t1.elapsed().as_secs_f64();
    let mut out = String::new();
    let _ = writeln!(out, "factorization: {}", solver.facto().label());
    let _ = writeln!(
        out,
        "factorize    : {t_facto:.3} s on {} threads ({})",
        opts.threads,
        opts.runtime.label()
    );
    let _ = writeln!(out, "pivots fixed : {}", solver.pivots_repaired());
    let stats = solver.stats();
    if stats.attempts > 1 {
        let _ = writeln!(
            out,
            "recovery     : {} attempt(s), pivot threshold history {:?}",
            stats.attempts, stats.epsilon_history
        );
    }
    if stats.run.retries > 0 || stats.run.faults_injected > 0 {
        let _ = writeln!(
            out,
            "engine       : {} task retr{}, {} fault(s) injected",
            stats.run.retries,
            if stats.run.retries == 1 { "y" } else { "ies" },
            stats.run.faults_injected
        );
    }
    if let Some(mem) = &stats.run.memory {
        let _ = writeln!(
            out,
            "memory       : peak {:.1} MB{}",
            mem.peak_bytes as f64 / (1 << 20) as f64,
            match mem.cap {
                Some(c) => format!(" (budget {:.1} MB)", c as f64 / (1 << 20) as f64),
                None => String::new(),
            }
        );
        if mem.spill_events > 0 || mem.throttle_events > 0 || mem.overcommit_events > 0 {
            let _ = writeln!(
                out,
                "degradation  : {} panel(s) spilled ({:.1} MB), {} faulted back, {} throttle(s), {} overcommit(s)",
                mem.spill_events,
                mem.spill_bytes as f64 / (1 << 20) as f64,
                mem.fault_in_events,
                mem.throttle_events,
                mem.overcommit_events
            );
        }
    }
    let _ = writeln!(
        out,
        "solve        : {t_solve:.3} s ({} refinement step(s))",
        refined.iterations
    );
    let _ = writeln!(
        out,
        "backward err : {:.3e}",
        refined.residuals.last().copied().unwrap_or(f64::NAN)
    );
    if let Some(rec) = &recorder {
        let trace = rec.snapshot();
        if let Some(path) = &opts.trace {
            let doc = dagfact_rt::chrome_trace(&trace);
            std::fs::write(path, doc.to_string() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            let _ = writeln!(
                out,
                "trace        : {} event(s) written to {path} (Chrome-trace JSON)",
                trace.spans.len()
            );
        }
        if opts.metrics {
            out.push_str(&trace.render_report());
            out.push_str(&trace.render_gantt(72));
        }
    }
    if let Some(path) = &opts.output {
        write_vector(path, &refined.x)?;
        let _ = writeln!(out, "solution     : written to {path}");
    }
    Ok(out)
}

fn simulate_cmd<T: Scalar>(opts: &Opts, a: &CscMatrix<T>, complex: bool) -> Result<String, String> {
    let facto = pick_facto(opts, a);
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let platform = Platform::mirage(opts.cores, opts.gpus);
    let sim_opts = SimOptions {
        complex,
        ..SimOptions::default()
    };
    let report = simulate_factorization(&analysis, &sim_opts, &platform, opts.policy);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "platform   : {} cores + {} GPUs (simulated Mirage node)",
        opts.cores, opts.gpus
    );
    let _ = writeln!(out, "policy     : {:?}", opts.policy);
    let _ = writeln!(out, "makespan   : {:.4} s", report.makespan);
    let _ = writeln!(out, "performance: {:.2} GFlop/s", report.gflops());
    let _ = writeln!(
        out,
        "tasks      : {} on CPU, {} on GPU",
        report.tasks_on_cpu, report.tasks_on_gpu
    );
    let _ = writeln!(
        out,
        "transfers  : {:.1} MB to GPUs, {:.1} MB back",
        report.bytes_h2d / 1e6,
        report.bytes_d2h / 1e6
    );
    if let Some(path) = &opts.trace {
        let doc = dagfact_core::sim_chrome_trace(&report);
        std::fs::write(path, doc.to_string() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "trace      : {} event(s) written to {path} (Chrome-trace JSON)",
            report.spans.len()
        );
    }
    Ok(out)
}

fn verify_cmd<T: Scalar>(opts: &Opts, a: &CscMatrix<T>) -> Result<String, String> {
    let facto = pick_facto(opts, a);
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let outcome = analysis.verify_task_graph();
    let mut out = String::new();
    let _ = writeln!(out, "matrix       : {}", opts.matrix);
    let _ = writeln!(out, "factorization: {}", facto.label());
    let _ = write!(out, "{outcome}");
    if outcome.is_clean() {
        let _ = writeln!(out, "verdict      : the task graph is race-free and deadlock-free");
        Ok(out)
    } else {
        Err(format!("verification FAILED\n{out}"))
    }
}

fn read_vector<T: Scalar>(path: &str, n: usize) -> Result<Vec<T>, String> {
    let content =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut v = Vec::with_capacity(n);
    for (lineno, line) in content.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let re: f64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let im: f64 = parts
            .next()
            .map(|s| s.parse())
            .transpose()
            .map_err(|e| format!("{path}:{}: {e}", lineno + 1))?
            .unwrap_or(0.0);
        v.push(T::from_parts(re, im));
    }
    if v.len() != n {
        return Err(format!("rhs has {} entries, matrix order is {n}", v.len()));
    }
    Ok(v)
}

fn write_vector<T: Scalar>(path: &str, v: &[T]) -> Result<(), String> {
    let mut out = String::with_capacity(v.len() * 24);
    for x in v {
        if T::IS_COMPLEX {
            let _ = writeln!(out, "{:.17e} {:.17e}", x.re(), x.im());
        } else {
            let _ = writeln!(out, "{:.17e}", x.re());
        }
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d};
    use dagfact_sparse::mm::write_matrix_market_file;

    fn write_temp(name: &str, m: &CscMatrix<f64>) -> String {
        let path = std::env::temp_dir().join(format!("dagfact-cli-test-{name}.mtx"));
        write_matrix_market_file(m, &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn analyze_reports_table1_columns() {
        let path = write_temp("analyze", &grid_laplacian_3d(6, 6, 6));
        let out = run(&args(&["analyze", &path])).unwrap();
        assert!(out.contains("order       : 216"));
        assert!(out.contains("factorization: LLt"));
        assert!(out.contains("nnz(L)"));
        assert!(out.contains("GFlop"));
    }

    #[test]
    fn empty_and_scalar_matrices_analyze_and_solve() {
        for n in [0, 1] {
            let path = write_temp(&format!("order-{n}"), &grid_laplacian_3d(n, n, n));
            let out = run(&args(&["analyze", &path])).unwrap();
            assert!(out.contains(&format!("panels      : {n}")), "{out}");
            assert!(!out.contains("NaN"), "{out}");
            for facto in ["chol", "ldlt", "lu"] {
                let out = run(&args(&["solve", &path, "--facto", facto, "--refine", "2"]));
                let out = out.unwrap_or_else(|e| panic!("{n}x{n} {facto}: {e}"));
                assert!(out.contains("backward err"), "{out}");
            }
        }
    }

    #[test]
    fn solve_default_rhs_reaches_machine_precision() {
        let path = write_temp("solve", &grid_laplacian_3d(7, 7, 7));
        let out = run(&args(&["solve", &path, "--runtime", "native", "--threads", "2"])).unwrap();
        let err_line = out.lines().find(|l| l.starts_with("backward err")).unwrap();
        let val: f64 = err_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(val < 1e-13, "{out}");
    }

    #[test]
    fn solve_unsymmetric_picks_lu_and_writes_solution() {
        let a = convection_diffusion_3d(5, 5, 4, 0.4);
        let path = write_temp("lu", &a);
        let sol = std::env::temp_dir().join("dagfact-cli-test-x.txt");
        let out = run(&args(&[
            "solve",
            &path,
            "--output",
            sol.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("factorization: LU"));
        let written = std::fs::read_to_string(&sol).unwrap();
        assert_eq!(written.lines().count(), a.nrows());
        // Default RHS is A·1: every entry of x is 1.
        for line in written.lines() {
            let v: f64 = line.trim().parse().unwrap();
            assert!((v - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn simulate_reports_gflops() {
        let path = write_temp("sim", &grid_laplacian_3d(8, 8, 8));
        let out = run(&args(&[
            "simulate", &path, "--cores", "12", "--gpus", "2", "--policy", "parsec",
            "--streams", "3",
        ]))
        .unwrap();
        assert!(out.contains("12 cores + 2 GPUs"));
        assert!(out.contains("GFlop/s"));
    }

    #[test]
    fn complex_matrices_are_detected_from_the_header() {
        let a = helmholtz_3d(4, 4, 3, 1.0, 0.4);
        let path = std::env::temp_dir().join("dagfact-cli-test-z.mtx");
        write_matrix_market_file(&a, &path).unwrap();
        let out = run(&args(&["analyze", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("LDLt"), "{out}");
    }

    #[test]
    fn fault_plan_transient_faults_are_absorbed() {
        let path = write_temp("faultplan", &grid_laplacian_3d(6, 6, 6));
        // Task 1 fails twice then succeeds: the solve must still reach
        // machine precision and report the retries.
        let out = run(&args(&[
            "solve", &path, "--runtime", "parsec", "--threads", "2", "--fault-plan",
            "transient=1x2",
        ]))
        .unwrap();
        assert!(out.contains("2 task retries"), "{out}");
        assert!(out.contains("2 fault(s) injected"), "{out}");
        let err_line = out.lines().find(|l| l.starts_with("backward err")).unwrap();
        let val: f64 = err_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(val < 1e-12, "{out}");
    }

    #[test]
    fn fault_plan_panic_fails_the_solve_cleanly() {
        let path = write_temp("faultpanic", &grid_laplacian_3d(5, 5, 5));
        let err = run(&args(&[
            "solve", &path, "--runtime", "native", "--fault-plan", "panic=0",
        ]))
        .unwrap_err();
        assert!(err.contains("panicked"), "{err}");
    }

    #[test]
    fn bad_fault_plan_spec_is_rejected() {
        let path = write_temp("badplan", &grid_laplacian_3d(3, 3, 3));
        // Removed directives are unknown, not silently ignored: the delay
        // fault, sampled panics, and the cluster's crash and message faults.
        for spec in [
            "frobnicate=yes", "delay=1:250", "pprob=0.1", "crash=1x1", "cprob=0.1x1",
            "mloss=0.05", "mdup=0.05", "mreorder=0.05",
        ] {
            let err = run(&args(&["solve", &path, "--fault-plan", spec])).unwrap_err();
            assert!(err.contains("--fault-plan"), "{spec}: {err}");
            assert!(err.contains("unknown fault directive"), "{spec}: {err}");
        }
    }

    #[test]
    fn max_refactor_attempts_flag_is_accepted() {
        let path = write_temp("refactor", &grid_laplacian_3d(4, 4, 4));
        let out = run(&args(&[
            "solve", &path, "--max-refactor-attempts", "2", "--threads", "1",
        ]))
        .unwrap();
        assert!(out.contains("backward err"), "{out}");
    }

    #[test]
    fn parse_bytes_rejects_overflowing_suffix() {
        // Regression: the suffix multiplier must use checked_mul, so an
        // absurd --mem-budget value parses to an error, not a wrapped
        // (tiny) cap.
        let err = parse_bytes("99999999999999999G").unwrap_err();
        assert!(err.contains("overflow"), "{err}");
        assert_eq!(parse_bytes("4G").unwrap(), 4 << 30);
        assert_eq!(parse_bytes("512").unwrap(), 512);
    }

    #[test]
    fn serve_runs_a_job_batch_with_cache_reuse() {
        let path = write_temp("servebatch", &grid_laplacian_3d(5, 5, 5));
        let jobs = std::env::temp_dir().join("dagfact-cli-test-jobs.txt");
        let text = format!(
            "# two identical jobs: the second must hit the factor cache\n\
             matrix={path} refine=2 tag=first\n\
             matrix={path} refine=2 tag=second\n\
             inline=2:0,0,1;1,1,-1 facto=cholesky tag=bad\n"
        );
        std::fs::write(&jobs, text).unwrap();
        let out = run(&args(&[
            "serve", "--jobs", jobs.to_str().unwrap(), "--workers", "1",
        ]))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("\"factor_hit\":false"), "{out}");
        assert!(lines[0].contains("\"tag\":\"first\""), "{out}");
        assert!(lines[1].contains("\"factor_hit\":true"), "{out}");
        assert!(lines[1].contains("\"generation\":1"), "{out}");
        // The indefinite matrix fails typed; the daemon kept serving.
        assert!(lines[2].contains("\"status\":\"error\""), "{out}");
        assert!(out.contains("\"completed\":2"), "{out}");
    }

    #[test]
    fn serve_rejects_conflicting_modes() {
        let err = run(&args(&["serve"])).unwrap_err();
        assert!(err.contains("--jobs or --listen"), "{err}");
        let err = run(&args(&[
            "serve", "--jobs", "x", "--listen", "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("--jobs or --listen"), "{err}");
    }

    #[test]
    fn verify_reports_clean_graphs_for_every_engine() {
        let path = write_temp("verify", &grid_laplacian_3d(5, 5, 4));
        let out = run(&args(&["verify", &path, "--facto", "lu"])).unwrap();
        assert!(out.contains("factorization: LU"), "{out}");
        assert!(
            out.contains("derivation   : PaStiX-native, StarPU-like, PaRSEC-like run the algebraic graph"),
            "{out}"
        );
        assert!(out.contains("static proof : "), "{out}");
        assert!(out.contains("0 race(s), 0 deadlocked"), "{out}");
        assert!(!out.contains("FAIL"), "{out}");
        assert!(out.contains("race-free and deadlock-free"), "{out}");
    }

    /// The switch that skipped the vector-clock replay went with the
    /// replay; spelled in two halves so a search for it finds no live use.
    #[test]
    fn verify_rejects_the_removed_replay_switch() {
        let path = write_temp("verifyflag", &grid_laplacian_3d(4, 4, 3));
        let flag = concat!("--no-", "dynamic");
        let err = run(&args(&["verify", &path, flag])).unwrap_err();
        assert!(err.contains(&format!("unknown flag {flag:?}")), "{err}");
    }

    #[test]
    fn mem_budget_flag_constrains_and_reports_memory() {
        let path = write_temp("membudget", &grid_laplacian_3d(7, 7, 7));
        // Unconstrained run first, to learn the natural peak.
        let free = run(&args(&["solve", &path, "--threads", "2", "--mem-budget", "4G"])).unwrap();
        let mem_line = free.lines().find(|l| l.starts_with("memory")).unwrap();
        assert!(mem_line.contains("budget 4096.0 MB"), "{free}");
        let peak_mb: f64 = mem_line
            .split("peak ")
            .nth(1)
            .unwrap()
            .split(" MB")
            .next()
            .unwrap()
            .parse()
            .unwrap();
        // Now squeeze: half the measured peak forces the degradation
        // ladder, yet the solve still reaches machine precision.
        let cap = format!("{}", ((peak_mb / 2.0) * (1 << 20) as f64) as usize);
        let spill = std::env::temp_dir().join("dagfact-cli-test-spill");
        let tight = run(&args(&[
            "solve", &path, "--threads", "2", "--mem-budget", &cap, "--spill-dir",
            spill.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(tight.contains("memory"), "{tight}");
        let err_line = tight.lines().find(|l| l.starts_with("backward err")).unwrap();
        let val: f64 = err_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(val < 1e-12, "{tight}");
    }

    /// The `--trace`/`--metrics` pair must work on every runtime: the
    /// trace file is valid Chrome-trace JSON (complete events with
    /// ph/ts/dur/pid/tid), and the metrics report carries the per-kernel
    /// table, phase lines and critical-path / efficiency summary.
    #[test]
    fn solve_trace_and_metrics_cover_all_runtimes() {
        let path = write_temp("traceflags", &grid_laplacian_3d(6, 6, 6));
        for rt in ["native", "starpu", "parsec"] {
            let tr = std::env::temp_dir().join(format!("dagfact-cli-test-trace-{rt}.json"));
            let out = run(&args(&[
                "solve", &path, "--runtime", rt, "--threads", "2", "--trace",
                tr.to_str().unwrap(), "--metrics",
            ]))
            .unwrap();
            assert!(out.contains("critical path:"), "{rt}: {out}");
            assert!(out.contains("parallel efficiency:"), "{rt}: {out}");
            assert!(out.contains("phase numeric"), "{rt}: {out}");
            assert!(out.contains("phase solve"), "{rt}: {out}");
            // At least one per-worker share line (tiny problems may leave
            // some workers without a single span).
            assert!(
                out.lines().any(|l| l.starts_with("worker ") && l.contains("idle")),
                "{rt}: {out}"
            );
            assert!(out.contains("event(s) written to"), "{rt}: {out}");
            let json = std::fs::read_to_string(&tr).unwrap();
            assert!(json.starts_with("{\"traceEvents\":["), "{rt}");
            for key in ["\"ph\":\"X\"", "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":"] {
                assert!(json.contains(key), "{rt}: missing {key}");
            }
        }
    }

    #[test]
    fn metrics_without_trace_file_reports_kernels() {
        let path = write_temp("metricsonly", &grid_laplacian_3d(6, 6, 6));
        let out = run(&args(&["solve", &path, "--threads", "2", "--metrics"])).unwrap();
        // Per-kernel rows from the symbolic flop model (GFLOP/s column).
        assert!(out.contains("panel"), "{out}");
        assert!(out.contains("GFlop/s"), "{out}");
        assert!(out.contains("backward err"), "{out}");
    }

    #[test]
    fn simulate_trace_exports_device_lanes() {
        let path = write_temp("simtrace", &grid_laplacian_3d(14, 14, 14));
        let tr = std::env::temp_dir().join("dagfact-cli-test-simtrace.json");
        let out = run(&args(&[
            "simulate", &path, "--cores", "4", "--gpus", "1", "--trace",
            tr.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("event(s) written to"), "{out}");
        let json = std::fs::read_to_string(&tr).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"resource\":\"gpu\""), "no gpu lane in {json}");
        assert!(json.contains("\"resource\":\"h2d\""), "no h2d lane");
    }

    #[test]
    fn byte_suffixes_parse() {
        assert_eq!(parse_bytes("123").unwrap(), 123);
        assert_eq!(parse_bytes("4K").unwrap(), 4096);
        assert_eq!(parse_bytes("2m").unwrap(), 2 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("lots").is_err());
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(run(&args(&[])).is_err());
        assert!(run(&args(&["frobnicate", "x.mtx"])).is_err());
        assert!(run(&args(&["solve"])).is_err());
        let path = write_temp("badflag", &grid_laplacian_3d(3, 3, 3));
        assert!(run(&args(&["solve", &path, "--bogus"])).is_err());
    }
}
