//! Static analysis of the solver's task graph.
//!
//! The three policies run the *same* two-level DAG, the one
//! [`Analysis::program`] computes from the cached tables; they differ only
//! in where ready tasks are queued (native adds static owners, which are
//! placement, not edges). The `unsafe` borrows of
//! [`dagfact_rt::SharedSlice`] are sound *only if* that DAG orders every
//! pair of conflicting panel accesses.
//!
//! [`Analysis::verify_task_graph`] discharges the claim with one static
//! proof: [`Analysis::task_graph_spec`] evaluates the program's successor
//! and predecessor-count functions (same constructor, no-op body) into a
//! [`GraphSpec`] and declares each task's panel accesses from
//! [`TaskKind::accesses`](crate::tasks::TaskKind::accesses);
//! [`check_static`] proves it race-free (every conflicting access pair
//! transitively ordered), deadlock-free, well formed (no
//! dangling/self/duplicate edges) and correctly counted (each
//! `num_predecessors` is the task's in-degree). Nothing is transcribed:
//! what is checked is what runs — the edges are the program's, and the
//! accesses are the ones each task body acquires
//! ([`CoefTab::acquire`](crate::coeftab::CoefTab::acquire) takes exactly
//! the declared panels).

use crate::analysis::Analysis;
use dagfact_rt::verify::{check_static, GraphSpec, StaticReport};
use dagfact_rt::RuntimeKind;

impl Analysis {
    /// The task graph every policy executes for this analysis, as an
    /// engine-independent [`GraphSpec`]: happens-before edges and
    /// predecessor counts from the program the factorization runs,
    /// panel-level access modes from the shared table.
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

    /// Verify the task graph: the static race/deadlock/count proof of
    /// [`Analysis::task_graph_spec`].
    pub fn verify_task_graph(&self) -> StaticReport {
        check_static(&self.task_graph_spec())
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
