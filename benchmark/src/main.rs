//! `dagfact`'s benchmark: per workload, one end-to-end (untraced) run and
//! one per-layer (traced) run. `benchmark/README.md` explains the metrics;
//! `BENCHMARK.json` at the repository root is the driver's copy of the
//! tables in `metrics.rs`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--out FILE]
//! ```
//!
//! With no `--workload`, the program re-executes itself once per workload
//! so each runs in its own process (its own peak RSS, heap and threads).
//! The last line of standard output is one JSON object; the exit code is
//! non-zero on any wrong answer or failed operation.

mod batch;
mod host;
mod layers;
mod metrics;
mod report;
mod serve;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use report::quote;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Cfg;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 24;

const USAGE: &str = "usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--out FILE]
       benchmark --print-contract      (the text of BENCHMARK.json)
workloads: audi_llt shell_lu pml_zldlt serve_mix";

struct Args {
    workload: Option<String>,
    cfg: Cfg,
    out: Option<PathBuf>,
    print_contract: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        cfg: Cfg {
            seed: 1,
            seconds: f64::from(RUN_SECONDS),
            traced: false,
            quick: false,
        },
        out: None,
        print_contract: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.cfg.seconds = s;
            }
            "--trace" => {
                parsed.cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => parsed.cfg.traced = true,
            "--quick" => parsed.cfg.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--print-contract" => parsed.print_contract = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// The text of `BENCHMARK.json`: the driver's view of `metrics.rs`.
/// `tests/contract.rs` keeps the committed file equal to this.
fn contract() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// Run every workload, each in a child process of its own, relaying the
/// children's output. The result line maps workload name to the child's.
fn run_all(cfg: &Cfg, out: Option<&PathBuf>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable to re-execute it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut lines = Vec::new();
    for w in &WORKLOADS {
        let mut child = Command::new(&exe);
        child.args([
            "--workload",
            w.name,
            "--seed",
            &cfg.seed.to_string(),
            "--seconds",
            &cfg.seconds.to_string(),
        ]);
        child.args(["--trace", if cfg.traced { "1" } else { "0" }]);
        if cfg.quick {
            child.arg("--quick");
        }
        let child = child.stdin(Stdio::null()).stderr(Stdio::inherit()).output();
        // `output` waits for the child: no process outlives this loop.
        let output = match child {
            Ok(o) => o,
            Err(e) => {
                eprintln!("cannot run workload {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        all_ok &= output.status.success();
        match text.lines().last().filter(|l| l.starts_with('{')) {
            Some(line) => lines.push(format!("{}: {line}", quote(w.name))),
            None => all_ok = false,
        }
    }
    let line = format!(
        "{{\"correct\": {all_ok}, \"workloads\": {{{}}}}}",
        lines.join(", ")
    );
    finish(all_ok, &line, out)
}

fn finish(ok: bool, line: &str, out: Option<&PathBuf>) -> ExitCode {
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_contract {
        print!("{}", contract());
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.workload else {
        return run_all(&args.cfg, args.out.as_ref());
    };
    let Some(report) = workloads::run(&name, &args.cfg) else {
        eprintln!("unknown workload `{name}`\n{USAGE}");
        return ExitCode::from(2);
    };
    let (ok, line) = report.finish();
    finish(ok, &line, args.out.as_ref())
}
