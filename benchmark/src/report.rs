//! One run's result: named metric values, operation accounting, host
//! facts; printed as a table for people and as one JSON line for tools.

use crate::metrics::{unit_of, Better, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::{host, stats};
use std::collections::BTreeMap;

/// Quote and escape a JSON string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One line on a metric: what an end-to-end metric measures, or which
/// end-to-end metric a per-layer metric is expected to move.
fn about(name: &str) -> String {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.what.to_string())
        .or_else(|| {
            PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map(|m| format!("-> {}", m.moves))
        })
        .unwrap_or_default()
}

pub struct Report {
    pub workload: &'static str,
    /// `true`: this is the per-layer run; `false`: the end-to-end run.
    pub traced: bool,
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
    /// Timed operations attempted / failed (errored, wrong answer, or a
    /// served job rejected). A failed operation contributes no sample.
    pub attempted: u64,
    pub failed: u64,
    /// Cleared by any wrong answer or broken cross-check.
    pub correct: bool,
    notes: Vec<(String, String)>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Report {
        let mut r = Report {
            workload,
            traced,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
        };
        r.note("nproc", host::nproc());
        r.note("isa", host::isa());
        r.note(
            "llc_bytes",
            host::llc_bytes().map_or("unknown".to_string(), |b| b.to_string()),
        );
        r.note("busy_threads", 2);
        r
    }

    /// Record a metric. The name must be in the table for this kind of
    /// run: a typo here would otherwise silently drop a metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// Record the median of `samples`, keeping min/quartiles/count for the
    /// printed table.
    pub fn put_samples(&mut self, name: &str, samples: &[f64]) {
        self.insert(name, stats::median(samples), Some(summarize(samples)));
    }

    /// Record the best of `samples` (the smallest time, the largest
    /// rate): the statistic contention on a shared host cannot inflate.
    pub fn put_best(&mut self, name: &str, samples: &[f64]) {
        let higher = END_TO_END
            .iter()
            .any(|m| m.name == name && m.better == Better::Higher);
        let best = samples
            .iter()
            .copied()
            .fold(f64::NAN, |a, b| if higher { a.max(b) } else { a.min(b) });
        self.insert(name, best, Some(summarize(samples)));
    }

    fn insert(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let known = if self.traced {
            PER_LAYER.iter().find(|m| m.name == name).map(|m| m.name)
        } else {
            END_TO_END.iter().find(|m| m.name == name).map(|m| m.name)
        };
        let key = known.unwrap_or_else(|| {
            panic!(
                "metric `{name}` is not in the {} table",
                if self.traced {
                    "per-layer"
                } else {
                    "end-to-end"
                }
            )
        });
        self.values.insert(key, (value, summary));
    }

    /// A fact about the run that is not a metric (host, sizes, counts).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Record a broken cross-check: the run's answer cannot be trusted.
    pub fn wrong(&mut self, why: &str) {
        eprintln!("[{}] WRONG: {why}", self.workload);
        self.correct = false;
    }

    fn names(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// Print every metric by name with its unit, then the result line.
    /// Returns `false` when the run must exit non-zero: a wrong answer, a
    /// failed operation, or an end-to-end metric without a usable value.
    pub fn finish(mut self) -> (bool, String) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end (untraced)"
        };
        println!("== {} :: {kind} ==", self.workload);
        for (k, v) in &self.notes {
            println!("  # {k} = {v}");
        }
        let mut metrics = Vec::new();
        for name in self.names() {
            let unit = unit_of(name).expect("table name");
            // What the metric is, or which end-to-end metric it moves.
            let about = about(name);
            let (value, summary) = match self.values.get(name) {
                Some(&(v, s)) if v.is_finite() => (v, s),
                // A per-layer metric another workload's layer owns reads
                // 0; an end-to-end metric must always be measured.
                _ if self.traced => (0.0, None),
                _ => {
                    self.wrong(&format!("end-to-end metric {name} was not measured"));
                    continue;
                }
            };
            if !self.traced && value <= 0.0 {
                self.wrong(&format!(
                    "end-to-end metric {name} is not positive: {value}"
                ));
            }
            match summary {
                Some(s) => println!(
                    "  {name:<34} {value:>16.6} {unit:<8} (min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6} n {})  -- {about}",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                ),
                None if self.values.contains_key(name) => println!("  {name:<34} {value:>16.6} {unit:<8} -- {about}"),
                None => println!("  {name:<34} {:>16} {unit:<8} (not applicable to this workload)", "0"),
            }
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                value,
                quote(unit)
            ));
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.attempted, self.failed
        );
        let ok = self.correct && self.failed == 0 && self.attempted >= 1;
        let line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (ok, line)
    }
}
