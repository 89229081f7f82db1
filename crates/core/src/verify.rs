//! Static analysis of the solver's task graphs.
//!
//! The three policies run the *same* two-level DAG, produced by
//! [`Analysis::program`] in two descriptions: the algebraic one the ptg
//! and native policies compute (native adds static owners, which are
//! placement, not edges) and the dataflow policy's hazard-inferred graph.
//! Each description carries an implicit safety claim — the dependency
//! edges order every pair of conflicting panel accesses — and the
//! `unsafe` borrows of [`dagfact_rt::SharedSlice`] are sound *only if*
//! that claim holds.
//!
//! This module discharges the claim mechanically, per policy:
//!
//! 1. **Spec extraction** — [`Analysis::task_graph_spec`] evaluates the
//!    successor function of the program object the factorization runs
//!    (same constructor, no-op body) into a [`GraphSpec`] and declares
//!    each task's panel accesses from [`TaskKind::accesses`] — the table
//!    the dataflow inference reads. Nothing is transcribed: what is
//!    checked is what runs.
//! 2. **Static verification** — [`dagfact_rt::verify::check_static`]
//!    proves race-freedom (every conflicting access pair is transitively
//!    ordered), deadlock-freedom (no cycles), and structural sanity
//!    (no dangling/self/duplicate edges, no unreachable tasks).
//! 3. **Cross-engine equivalence** — computed or inferred, the graphs
//!    must induce the *same* order of conflicting panel writes;
//!    [`dagfact_rt::verify::conflict_signature`] canonicalizes each
//!    graph's per-panel writer chains and
//!    [`Analysis::verify_task_graph`] asserts all three agree.
//! 4. **Dynamic oracle** — optionally, [`dagfact_rt::verify::replay`]
//!    drives the real engine (threads, queues, stealing) over the spec
//!    with a vector-clock [`dagfact_rt::verify::RaceChecker`] observing
//!    every declared access — an executable cross-check of the static
//!    pass on actual schedules.
//!
//! [`TaskKind::accesses`]: crate::tasks::TaskKind::accesses

use crate::analysis::Analysis;
use dagfact_rt::verify::{
    check_static, conflict_signature, replay, ClockGranularity, DynamicReport, GraphSpec,
    StaticReport,
};
use dagfact_rt::RuntimeKind;
use std::fmt;

/// Above this task count the dynamic replay switches from exact per-task
/// vector clocks (O(ntasks) per clock — precise but quadratic in memory)
/// to per-worker clocks (scalable, checks the observed schedule).
pub const PER_TASK_CLOCK_LIMIT: usize = 4096;

/// Options for [`Analysis::verify_task_graph`].
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Worker threads for the dynamic replay.
    pub nthreads: usize,
    /// Run the vector-clock replay oracle on each engine (the static
    /// pass and the equivalence check always run).
    pub dynamic: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            nthreads: 4,
            dynamic: true,
        }
    }
}

/// Verification verdict for one engine's graph.
#[derive(Debug)]
pub struct EngineReport {
    /// The engine whose graph was checked.
    pub runtime: RuntimeKind,
    /// Static race/deadlock/structure analysis.
    pub stat: StaticReport,
    /// Dynamic replay verdict, when requested and the engine completed.
    pub dynamic: Option<DynamicReport>,
    /// Engine failure during replay (a stalled scheduler on a cyclic
    /// graph, a panic), kept as text.
    pub dynamic_error: Option<String>,
}

impl EngineReport {
    /// No races, no cycles, no structural defects, and the replay (if
    /// any) agrees.
    pub fn is_clean(&self) -> bool {
        self.stat.is_clean()
            && self.dynamic_error.is_none()
            && self.dynamic.as_ref().is_none_or(|d| d.is_clean())
    }
}

/// Combined verdict over all three engines plus the cross-engine
/// equivalence check.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Per-engine reports, in [`RuntimeKind::ALL`] order.
    pub engines: Vec<EngineReport>,
    /// Human-readable equivalence violations (empty when the three
    /// graphs induce identical conflicting-access orderings).
    pub equivalence_errors: Vec<String>,
}

impl VerifyOutcome {
    /// Every engine clean and all signatures agree.
    pub fn is_clean(&self) -> bool {
        self.engines.iter().all(EngineReport::is_clean) && self.equivalence_errors.is_empty()
    }

    /// Multi-line report (the `dagfact verify` output).
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.engines {
            writeln!(
                f,
                "{:<13}: {} tasks, {} edges, {} race(s), {} deadlocked, {} pair(s) checked{}",
                e.runtime.label(),
                e.stat.ntasks,
                e.stat.nedges,
                e.stat.races.len(),
                e.stat.deadlocked.len(),
                e.stat.pairs_checked,
                if e.stat.is_clean() { "" } else { "  [FAIL]" },
            )?;
            if !e.stat.is_clean() {
                write!(f, "{}", e.stat)?;
            }
            if let Some(d) = &e.dynamic {
                writeln!(
                    f,
                    "{:<13}  replay: {} access(es) checked, {} race(s){}",
                    "",
                    d.naccesses,
                    d.races.len(),
                    if d.is_clean() { "" } else { "  [FAIL]" },
                )?;
            }
            if let Some(err) = &e.dynamic_error {
                writeln!(f, "{:<13}  replay: engine error: {err}  [FAIL]", "")?;
            }
        }
        if self.equivalence_errors.is_empty() {
            writeln!(
                f,
                "equivalence  : all engines induce identical conflicting-access orderings"
            )?;
        } else {
            for e in &self.equivalence_errors {
                writeln!(f, "equivalence  : {e}  [FAIL]")?;
            }
        }
        Ok(())
    }
}

impl Analysis {
    /// The task graph `runtime` executes for this analysis, as an
    /// engine-independent [`GraphSpec`]: happens-before edges from the
    /// program the factorization runs, panel-level access modes from the
    /// shared table, and per-task tags (the source panel) so
    /// [`conflict_signature`] can compare graphs by what they order.
    pub fn task_graph_spec(&self, runtime: RuntimeKind) -> GraphSpec {
        let program = self.program(runtime, 1, false, |_, _| {});
        let mut spec = GraphSpec::from_dag(&program);
        for t in 0..spec.ntasks() {
            let task = program.kind(t);
            for (panel, mode) in task.accesses() {
                spec.access(t, panel, mode);
            }
            spec.set_tag(t, task.cblk() as u64);
        }
        spec
    }

    /// Verify the task graphs of all three engines: static
    /// race/deadlock analysis per engine, cross-engine conflict-order
    /// equivalence, and (per [`VerifyOptions::dynamic`]) a vector-clock
    /// replay through each real engine.
    pub fn verify_task_graph(&self, opts: &VerifyOptions) -> VerifyOutcome {
        let mut engines = Vec::with_capacity(RuntimeKind::ALL.len());
        let mut signatures = Vec::new();
        for rt in RuntimeKind::ALL {
            let spec = self.task_graph_spec(rt);
            let stat = check_static(&spec);
            signatures.push((rt, conflict_signature(&spec)));
            let (dynamic, dynamic_error) = if opts.dynamic {
                let granularity = if spec.ntasks() <= PER_TASK_CLOCK_LIMIT {
                    ClockGranularity::PerTask
                } else {
                    ClockGranularity::PerWorker
                };
                match replay(&spec, rt, opts.nthreads.max(1), granularity) {
                    Ok(report) => (Some(report), None),
                    Err(e) => (None, Some(e.to_string())),
                }
            } else {
                (None, None)
            };
            engines.push(EngineReport {
                runtime: rt,
                stat,
                dynamic,
                dynamic_error,
            });
        }
        let equivalence_errors = compare_signatures(&signatures);
        VerifyOutcome {
            engines,
            equivalence_errors,
        }
    }
}

/// Pairwise-compare canonical conflict signatures against the first
/// engine's; differences are reported per panel.
fn compare_signatures(
    signatures: &[(RuntimeKind, Option<Vec<Vec<u64>>>)],
) -> Vec<String> {
    let mut errors = Vec::new();
    for (rt, sig) in signatures {
        if sig.is_none() {
            errors.push(format!(
                "{} graph is cyclic — no conflict signature",
                rt.label()
            ));
        }
    }
    let mut defined = signatures
        .iter()
        .filter_map(|(rt, sig)| sig.as_ref().map(|s| (rt, s)));
    let Some((base_rt, base)) = defined.next() else {
        return errors;
    };
    for (rt, sig) in defined {
        if sig.len() != base.len() {
            errors.push(format!(
                "{} covers {} panels but {} covers {}",
                rt.label(),
                sig.len(),
                base_rt.label(),
                base.len()
            ));
            continue;
        }
        if let Some(d) = (0..base.len()).find(|&d| sig[d] != base[d]) {
            errors.push(format!(
                "panel {d}: {} orders writers {:?} but {} orders {:?}",
                base_rt.label(),
                base[d],
                rt.label(),
                sig[d]
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_symbolic::FactoKind;

    fn analysis() -> Analysis {
        let a = grid_laplacian_2d(10, 10);
        Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default())
    }

    #[test]
    fn spec_task_counts_match_the_engines() {
        let an = analysis();
        for rt in RuntimeKind::ALL {
            let spec = an.task_graph_spec(rt);
            assert_eq!(spec.ntasks(), an.symbol.blocks.len(), "{}", rt.label());
            assert_eq!(spec.ndata(), an.symbol.ncblk(), "{}", rt.label());
        }
    }

    #[test]
    fn all_engine_graphs_verify_clean_statically() {
        let an = analysis();
        for rt in RuntimeKind::ALL {
            let report = check_static(&an.task_graph_spec(rt));
            assert!(report.is_clean(), "{}:\n{report}", rt.label());
        }
    }

    #[test]
    fn signatures_agree_across_policies() {
        let an = analysis();
        let sigs: Vec<_> = RuntimeKind::ALL
            .iter()
            .map(|&rt| conflict_signature(&an.task_graph_spec(rt)).expect("acyclic"))
            .collect();
        assert_eq!(sigs[0], sigs[1], "native vs dataflow");
        assert_eq!(sigs[1], sigs[2], "dataflow vs ptg");
    }
}
