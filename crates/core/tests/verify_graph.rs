//! End-to-end verification of the task graph over real factorization
//! problems: every policy's program derives the algebraic graph and that
//! graph is statically race- and deadlock-free — plus the negative cases:
//! a program that drops a successor or overstates a predecessor count
//! fails the derivation check, and a dropped dependency edge fails the
//! static proof.

use dagfact_core::tasks::TaskKind;
use dagfact_core::{Analysis, SolverOptions};
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::verify::check_static;
use dagfact_rt::RuntimeKind;
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_2d, grid_laplacian_3d};
use dagfact_symbolic::FactoKind;
use std::collections::BTreeSet;

const FACTOS: [FactoKind; 3] = [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu];

fn analysis_of(facto: FactoKind) -> Analysis {
    // An unsymmetric-valued pattern so LU is honest; the pattern is
    // symmetrized by the analysis either way.
    let a = match facto {
        FactoKind::Lu => convection_diffusion_3d(5, 5, 4, 0.4),
        _ => grid_laplacian_3d(5, 5, 4),
    };
    Analysis::new(a.pattern(), facto, &SolverOptions::default())
}

/// Every edge `successors` reports.
fn edges_of(program: &impl PtgProgram) -> BTreeSet<(usize, usize)> {
    let mut succs = Vec::new();
    (0..program.num_tasks())
        .flat_map(|t| {
            succs.clear();
            program.successors(t, &mut succs);
            succs.iter().map(|&s| (t, s)).collect::<Vec<_>>()
        })
        .collect()
}

/// The dataflow policy infers its edges from the declared accesses of a
/// sequential submission; the ptg and native policies compute them from
/// the block structure. The derivation check holds all three to the
/// algebraic graph, and the static proof holds that graph race-free.
#[test]
fn every_facto_verifies_clean() {
    for facto in FACTOS {
        let an = analysis_of(facto);
        let outcome = an.verify_task_graph();
        assert!(
            outcome.is_clean(),
            "{facto:?} failed verification:\n{outcome}"
        );
        assert!(
            outcome.stat.nedges > an.symbol.ncblk(),
            "{facto:?}: trivial graph"
        );
        assert!(outcome.stat.pairs_checked > 0, "{facto:?}: checked nothing");
    }
}

/// `Analysis::program` never reads `facto`: one graph per pattern, which
/// is what lets `verify_sweep` check each proxy once.
#[test]
fn task_graph_spec_is_the_same_for_every_facto() {
    let a = grid_laplacian_3d(5, 5, 4);
    let [llt, ldlt, lu] =
        FACTOS.map(|f| Analysis::new(a.pattern(), f, &SolverOptions::default()).task_graph_spec());
    assert!(llt.nedges() > 0);
    assert_eq!(llt, ldlt);
    assert_eq!(llt, lu);
}

/// The ptg program with one successor of `drop_from` dropped or one
/// predecessor count of `overcount` raised by one.
struct Mutant<'p, P> {
    inner: &'p P,
    drop_from: Option<usize>,
    overcount: Option<usize>,
}

impl<P: PtgProgram> PtgProgram for Mutant<'_, P> {
    fn num_tasks(&self) -> usize {
        self.inner.num_tasks()
    }
    fn num_predecessors(&self, task: usize) -> u32 {
        self.inner.num_predecessors(task) + u32::from(self.overcount == Some(task))
    }
    fn successors(&self, task: usize, out: &mut Vec<usize>) {
        self.inner.successors(task, out);
        if self.drop_from == Some(task) {
            out.pop();
        }
    }
    fn execute(&self, task: usize, worker: usize) {
        self.inner.execute(task, worker);
    }
}

/// The derivation check has teeth: a program that forgets one successor,
/// or expects one predecessor too many (the executor would never release
/// it), is reported by task.
#[test]
fn derivation_check_names_the_broken_task() {
    let an = analysis_of(FactoKind::Cholesky);
    let ptg = an.program(RuntimeKind::Ptg, 1, false, |_, _| {});
    let kind = |t| ptg.kind(t);
    assert_eq!(
        an.derivation_errors("ptg", &ptg, kind),
        Vec::<String>::new()
    );
    // The first update task: it has exactly one successor.
    let t = (0..ptg.num_tasks())
        .find(|&t| matches!(ptg.kind(t), TaskKind::Update { .. }))
        .expect("a 3D grid factorization has update tasks");
    let named = |errors: Vec<String>| {
        assert!(
            !errors.is_empty(),
            "mutant of task {t} passed the derivation check"
        );
        assert!(
            errors.iter().any(|e| e.contains(&format!("task {t} "))),
            "no message names task {t}: {errors:?}"
        );
    };
    let dropped = Mutant {
        inner: &ptg,
        drop_from: Some(t),
        overcount: None,
    };
    named(an.derivation_errors("dropped", &dropped, kind));
    let overcounted = Mutant {
        inner: &ptg,
        drop_from: None,
        overcount: Some(t),
    };
    named(an.derivation_errors("overcounted", &overcounted, kind));
}

/// The last dependency edge into a panel task orders the final update's
/// write against the panel factorization's read-modify-write of the same
/// panel. Dropping it is the canonical "runtime forgot a dependency" bug;
/// the static proof must notice.
#[test]
fn dropped_edge_is_flagged_by_the_static_proof() {
    let a = grid_laplacian_2d(8, 8);
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    // Find an update → panel edge (the chain-closing edge of a target) in
    // the algebraic program.
    let program = an.program(RuntimeKind::Ptg, 1, false, |_, _| {});
    let edges = edges_of(&program);
    let (pred, panel, target) = (0..program.num_tasks())
        .find_map(|t| match program.kind(t) {
            TaskKind::Update { target, .. } => {
                let panel = an.symbol.cblks[target].block_begin;
                edges.contains(&(t, panel)).then_some((t, panel, target))
            }
            _ => None,
        })
        .expect("a 2D grid factorization has update tasks");

    let mut spec = an.task_graph_spec();
    assert!(spec.remove_edge(pred, panel), "edge must exist in the spec");

    // The update's write and the panel's RW on `target` are no longer
    // ordered.
    let report = check_static(&spec);
    assert!(!report.is_clean());
    assert!(
        report
            .races
            .iter()
            .any(|r| r.data == target && (r.first == pred || r.second == pred)),
        "expected a race on panel {target} involving task {pred}: {report}"
    );
}

/// The native policy adds nothing to the graph but a seed placement: a
/// task sits on the list schedule's owner of its source panel, and the
/// schedule uses every worker.
#[test]
fn native_static_owners_are_the_list_schedule_per_source_panel() {
    let an = analysis_of(FactoKind::Cholesky);
    let nworkers = 4;
    let program = an.program(RuntimeKind::Native, nworkers, false, |_, _| {});
    let owners = an.static_owners(program.costs(), nworkers);
    let mut used = BTreeSet::new();
    for t in 0..program.num_tasks() {
        let owner = program.static_owner(t);
        assert_eq!(owner, owners[program.kind(t).cblk()], "task {t}");
        used.insert(owner);
    }
    assert_eq!(used, (0..nworkers).collect(), "an idle worker in the mapping");
}
