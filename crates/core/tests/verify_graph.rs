//! End-to-end verification of the task graph over real factorization
//! problems: the one graph every policy runs is statically race- and
//! deadlock-free with every predecessor count its task's in-degree, and
//! each of its edges orders a conflicting panel access — plus the
//! negative cases: a program that drops a successor or overstates a
//! predecessor count, and a spec missing a dependency edge, fail the
//! static proof.

use dagfact_core::tasks::TaskKind;
use dagfact_core::{Analysis, SolverOptions};
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::verify::{check_static, GraphSpec, StaticRace};
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

/// The static proof holds the graph all three policies run race-free,
/// deadlock-free and correctly counted.
#[test]
fn every_facto_verifies_clean() {
    for facto in FACTOS {
        let an = analysis_of(facto);
        let report = an.verify_task_graph();
        assert!(report.is_clean(), "{facto:?} failed verification:\n{report}");
        assert!(report.nedges > an.symbol.ncblk(), "{facto:?}: trivial graph");
        assert!(report.pairs_checked > 0, "{facto:?}: checked nothing");
    }
}

/// No edge is spurious: the two ends of every edge touch some panel in
/// conflicting modes. Together with the race proof this pins the graph to
/// the hazards of [`TaskKind::accesses`] from both sides — an
/// over-constrained chain rule, or an access table that forgets an
/// update's read of its source, fails here.
#[test]
fn every_edge_orders_a_conflicting_access() {
    for facto in FACTOS {
        let an = analysis_of(facto);
        let program = an.program(RuntimeKind::Ptg, 1, false, |_, _| {});
        let edges = edges_of(&program);
        assert!(!edges.is_empty(), "{facto:?}: no edges");
        for (t, s) in edges {
            let (a, b) = (program.kind(t), program.kind(s));
            let conflict = a
                .accesses()
                .any(|(p, m)| b.accesses().any(|(q, n)| p == q && m.conflicts_with(n)));
            assert!(conflict, "{facto:?}: edge {t} -> {s} ({a:?} -> {b:?}) orders no conflict");
        }
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

/// The static proof of a program: its edges and counts, the accesses of
/// the tasks it shares ids with.
fn spec_of(program: &impl PtgProgram, kind: impl Fn(usize) -> TaskKind) -> GraphSpec {
    let mut spec = GraphSpec::from_dag(program);
    for t in 0..spec.ntasks() {
        for (panel, mode) in kind(t).accesses() {
            spec.access(t, panel, mode);
        }
    }
    spec
}

/// The count check has teeth: a program that forgets one successor
/// races and leaves that successor counted too high (the executor would
/// never release it), and one that expects a predecessor too many is
/// reported by task.
#[test]
fn broken_programs_fail_the_static_proof_by_task() {
    let an = analysis_of(FactoKind::Cholesky);
    let ptg = an.program(RuntimeKind::Ptg, 1, false, |_, _| {});
    let kind = |t| ptg.kind(t);
    let report = check_static(&spec_of(&ptg, kind));
    assert!(report.is_clean(), "{report}");
    // The first update task: it has exactly one successor.
    let t = (0..ptg.num_tasks())
        .find(|&t| matches!(ptg.kind(t), TaskKind::Update { .. }))
        .expect("a 3D grid factorization has update tasks");
    let mut succ = Vec::new();
    ptg.successors(t, &mut succ);
    let [s] = succ[..] else { panic!("update {t} has successors {succ:?}") };

    let dropped = Mutant { inner: &ptg, drop_from: Some(t), overcount: None };
    let report = check_static(&spec_of(&dropped, kind));
    let pair = |r: &StaticRace| [(r.first, r.second), (r.second, r.first)].contains(&(t, s));
    assert!(report.races.iter().any(pair), "{report}");
    assert_eq!(report.miscounted, [(s, ptg.num_predecessors(s), ptg.num_predecessors(s) - 1)]);

    let overcounted = Mutant { inner: &ptg, drop_from: None, overcount: Some(t) };
    let report = check_static(&spec_of(&overcounted, kind));
    assert!(report.races.is_empty(), "{report}");
    assert_eq!(report.miscounted, [(t, ptg.num_predecessors(t) + 1, ptg.num_predecessors(t))]);
    assert!(report.to_string().contains(&format!("task {t} counts")), "{report}");
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
