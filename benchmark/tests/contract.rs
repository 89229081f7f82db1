//! The benchmark against its own contract: `BENCHMARK.json` is what the
//! program says it is, and a `--quick` run of every workload emits every
//! name the file promises, in both kinds of run.

use std::process::Command;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const EXE: &str = env!("CARGO_BIN_EXE_benchmark");

/// Every `"name": "X"` between the keys `from` and `to` of the file.
fn names(from: &str, to: Option<&str>) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{from}\":"))
        .expect("section");
    let end = to.map_or(BENCHMARK_JSON.len(), |t| {
        BENCHMARK_JSON
            .find(&format!("\"{t}\":"))
            .expect("next section")
    });
    BENCHMARK_JSON[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn run(args: &[&str]) -> (bool, String, Duration) {
    let t = Instant::now();
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("run the benchmark");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
        t.elapsed(),
    )
}

#[test]
fn benchmark_json_is_what_the_program_prints() {
    let (ok, text, _) = run(&["--print-contract"]);
    assert!(ok);
    assert_eq!(
        text, BENCHMARK_JSON,
        "regenerate with: benchmark --print-contract > BENCHMARK.json"
    );
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
}

#[test]
fn quick_runs_emit_every_promised_name() {
    let workloads = names("workloads", Some("end_to_end"));
    let end_to_end = names("end_to_end", Some("per_layer"));
    let per_layer = names("per_layer", None);
    assert_eq!(workloads.len(), 4);
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for w in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let (ok, text, took) =
                run(&["--workload", w, "--quick", "--seed", "5", "--trace", trace]);
            assert!(ok, "{w} --trace {trace} failed:\n{text}");
            assert!(took < Duration::from_secs(10), "{w} --quick took {took:?}");
            let line = text.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            for name in expected.iter() {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{w} --trace {trace} lacks {name}"
                );
                // The same name, with its unit, in the table for people.
                assert!(
                    text.lines()
                        .any(|l| l.trim_start().starts_with(name.as_str())),
                    "{name} not printed"
                );
            }
            assert_eq!(
                line.matches("\"unit\": ").count(),
                expected.len(),
                "{w}: metrics beyond the promised ones"
            );
            assert!(text.contains("ops_attempted") && text.contains("ops_failed"));
        }
    }
}

#[test]
fn without_a_workload_every_workload_runs_in_its_own_process() {
    let (ok, text, _) = run(&["--quick"]);
    assert!(ok, "{text}");
    let line = text.lines().last().expect("a result line");
    for w in names("workloads", Some("end_to_end")) {
        assert!(
            line.contains(&format!("\"{w}\": {{\"correct\": true")),
            "{w} missing from {line}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--frobnicate"],
        &["--seed"],
    ] {
        let (ok, text, _) = run(args);
        assert!(
            !ok && !text.contains("\"metrics\""),
            "{args:?} was accepted"
        );
    }
}
