//! Static analysis of the solver's task graphs.
//!
//! The three policies run the *same* two-level DAG, produced by
//! [`Analysis::program`] in two derivations: the algebraic one the ptg
//! and native policies compute from the cached tables (native adds static
//! owners, which are placement, not edges) and the dataflow policy's
//! hazard-inferred graph. The `unsafe` borrows of
//! [`dagfact_rt::SharedSlice`] are sound *only if* that DAG orders every
//! pair of conflicting panel accesses.
//!
//! [`Analysis::verify_task_graph`] discharges the claim in two steps:
//!
//! 1. **Derivation check** — [`Analysis::derivation_errors`]: every
//!    policy's program must *be* the algebraic one — per task the same
//!    sorted successor list and the same [`TaskKind`] — and each
//!    `num_predecessors` must be the in-degree of the program's own
//!    successor function (the executor hangs on a count too high and
//!    underflows on one too low).
//! 2. **One static proof** — [`Analysis::task_graph_spec`] evaluates the
//!    algebraic program's successor function (same constructor, no-op
//!    body) into a [`GraphSpec`] and declares each task's panel accesses
//!    from [`TaskKind::accesses`], the table the dataflow inference reads;
//!    [`check_static`] proves it race-free (every conflicting access pair
//!    transitively ordered), deadlock-free and well formed (no
//!    dangling/self/duplicate edges). Nothing is transcribed: what is
//!    checked is what runs, and step 1 makes the proof hold for all three
//!    policies.

use crate::analysis::Analysis;
use crate::tasks::TaskKind;
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::verify::{check_static, GraphSpec, StaticReport};
use dagfact_rt::RuntimeKind;
use std::fmt;

/// Derivation messages [`VerifyOutcome`]'s report prints; the rest are
/// counted.
const SHOWN_ERRORS: usize = 8;

/// Verdict of [`Analysis::verify_task_graph`].
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Where a policy's program departs from the algebraic one, one
    /// message per task (empty when all three derive the same graph).
    pub derivation: Vec<String>,
    /// The static proof over [`Analysis::task_graph_spec`].
    pub stat: StaticReport,
}

impl VerifyOutcome {
    /// Every policy runs the algebraic graph, and that graph is race-free,
    /// deadlock-free and well formed.
    pub fn is_clean(&self) -> bool {
        self.derivation.is_empty() && self.stat.is_clean()
    }
}

impl fmt::Display for VerifyOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.derivation.is_empty() {
            let labels = RuntimeKind::ALL.map(RuntimeKind::label);
            writeln!(
                f,
                "derivation   : {} run the algebraic graph",
                labels.join(", ")
            )?;
        }
        for e in self.derivation.iter().take(SHOWN_ERRORS) {
            writeln!(f, "derivation   : {e}  [FAIL]")?;
        }
        if self.derivation.len() > SHOWN_ERRORS {
            writeln!(
                f,
                "derivation   : … {} more",
                self.derivation.len() - SHOWN_ERRORS
            )?;
        }
        let fail = if self.stat.is_clean() { "" } else { "  [FAIL]" };
        writeln!(f, "static proof : {}{fail}", self.stat)
    }
}

impl Analysis {
    /// The task graph every policy executes for this analysis, as an
    /// engine-independent [`GraphSpec`]: happens-before edges from the
    /// algebraic program the factorization runs, panel-level access modes
    /// from the shared table.
    pub fn task_graph_spec(&self) -> GraphSpec {
        let program = self.program(RuntimeKind::Ptg, 1, false, |_, _| {});
        let mut spec = GraphSpec::from_dag(&program);
        for t in 0..spec.ntasks() {
            for (panel, mode) in program.kind(t).accesses() {
                spec.access(t, panel, mode);
            }
        }
        spec
    }

    /// Where `program` (named `label` in the messages, its task kinds
    /// given by `kind`) departs from the algebraic program: a task whose
    /// sorted successor list or kind differs, or whose predecessor count
    /// is not its in-degree under `program`'s own successor function.
    /// Each message names the task.
    pub fn derivation_errors<P: PtgProgram>(
        &self,
        label: &str,
        program: &P,
        kind: impl Fn(usize) -> TaskKind,
    ) -> Vec<String> {
        let algebraic = self.program(RuntimeKind::Ptg, 1, false, |_, _| {});
        let n = algebraic.num_tasks();
        if program.num_tasks() != n {
            return vec![format!(
                "{label}: {} tasks, the algebraic program has {n}",
                program.num_tasks()
            )];
        }
        let mut errors = Vec::new();
        let mut indegree = vec![0u32; n];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for t in 0..n {
            got.clear();
            want.clear();
            program.successors(t, &mut got);
            algebraic.successors(t, &mut want);
            got.sort_unstable();
            want.sort_unstable();
            if got != want {
                errors.push(format!(
                    "{label}: task {t} has successors {got:?}, the algebraic program {want:?}"
                ));
            }
            let (k, a) = (kind(t), algebraic.kind(t));
            if k != a {
                errors.push(format!(
                    "{label}: task {t} is {k:?}, the algebraic program's {a:?}"
                ));
            }
            // An out-of-range successor is already a mismatch above.
            for &s in &got {
                if let Some(d) = indegree.get_mut(s) {
                    *d += 1;
                }
            }
        }
        for (t, &d) in indegree.iter().enumerate() {
            let np = program.num_predecessors(t);
            if np != d {
                errors.push(format!(
                    "{label}: task {t} counts {np} predecessor(s), its in-degree is {d}"
                ));
            }
        }
        errors
    }

    /// Verify the task graph: the derivation check of all three policies'
    /// programs against the algebraic one, then one static
    /// race/deadlock proof of that graph.
    pub fn verify_task_graph(&self) -> VerifyOutcome {
        let mut derivation = Vec::new();
        for rt in RuntimeKind::ALL {
            let program = self.program(rt, 1, false, |_, _| {});
            derivation.extend(self.derivation_errors(rt.label(), &program, |t| program.kind(t)));
        }
        VerifyOutcome {
            derivation,
            stat: check_static(&self.task_graph_spec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_symbolic::FactoKind;

    #[test]
    fn spec_covers_every_task_and_panel() {
        let a = grid_laplacian_2d(10, 10);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let spec = an.task_graph_spec();
        assert_eq!(spec.ntasks(), an.symbol.blocks.len());
        assert_eq!(spec.ndata(), an.symbol.ncblk());
        let report = check_static(&spec);
        assert!(report.is_clean(), "{report}");
    }
}
