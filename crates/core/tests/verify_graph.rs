//! End-to-end verification of the engine task graphs: static
//! race/deadlock analysis, cross-engine equivalence, and the dynamic
//! vector-clock oracle, over real factorization problems — plus the
//! negative case: a deliberately dropped dependency edge must be caught
//! by BOTH the static pass and the replay checker.

use dagfact_core::tasks::TaskKind;
use dagfact_core::{Analysis, SolverOptions, VerifyOptions};
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::verify::{check_static, replay, ClockGranularity};
use dagfact_rt::RuntimeKind;
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_2d, grid_laplacian_3d};
use dagfact_symbolic::FactoKind;
use std::collections::BTreeSet;

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
/// the block structure. All number tasks by block, so the edge sets must
/// be *equal* — and every program's predecessor counts must be the
/// in-degrees of its own successor function, or the executor would hang or
/// underflow.
#[test]
fn inferred_edges_equal_the_algebraic_ones() {
    for facto in [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu] {
        let an = analysis_of(facto);
        let [native, dataflow, ptg] =
            RuntimeKind::ALL.map(|rt| an.program(rt, 2, false, |_, _| {}));
        let algebraic = edges_of(&ptg);
        assert!(algebraic.len() > an.symbol.ncblk(), "{facto:?}: trivial graph");
        assert_eq!(edges_of(&dataflow), algebraic, "{facto:?}");
        assert_eq!(edges_of(&native), algebraic, "{facto:?}");
        for t in 0..ptg.num_tasks() {
            assert_eq!(dataflow.kind(t), ptg.kind(t), "{facto:?}: task {t}");
        }
        for (program, rt) in [&native, &dataflow, &ptg].into_iter().zip(RuntimeKind::ALL) {
            let mut indegree = vec![0u32; program.num_tasks()];
            for (_, s) in edges_of(program) {
                indegree[s] += 1;
            }
            for (t, &d) in indegree.iter().enumerate() {
                assert_eq!(program.num_predecessors(t), d, "{facto:?} {}: task {t}", rt.label());
            }
        }
    }
}

#[test]
fn all_factos_and_engines_verify_clean() {
    for facto in [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu] {
        let an = analysis_of(facto);
        let outcome = an.verify_task_graph(&VerifyOptions {
            nthreads: 4,
            dynamic: true,
        });
        assert!(
            outcome.is_clean(),
            "{facto:?} failed verification:\n{outcome}"
        );
        assert_eq!(outcome.engines.len(), 3);
        for e in &outcome.engines {
            assert!(e.stat.pairs_checked > 0, "{} checked nothing", e.runtime.label());
            let d = e.dynamic.as_ref().expect("dynamic replay requested");
            assert!(d.naccesses > 0);
        }
    }
}

#[test]
fn static_only_mode_skips_the_replay() {
    let an = analysis_of(FactoKind::Cholesky);
    let outcome = an.verify_task_graph(&VerifyOptions {
        nthreads: 1,
        dynamic: false,
    });
    assert!(outcome.is_clean(), "{outcome}");
    assert!(outcome.engines.iter().all(|e| e.dynamic.is_none()));
}

#[test]
fn summary_reads_like_a_report() {
    let an = analysis_of(FactoKind::Cholesky);
    let outcome = an.verify_task_graph(&VerifyOptions {
        nthreads: 2,
        dynamic: true,
    });
    let text = outcome.summary();
    assert!(text.contains("PaStiX-native"), "{text}");
    assert!(text.contains("StarPU-like"), "{text}");
    assert!(text.contains("PaRSEC-like"), "{text}");
    assert!(text.contains("identical conflicting-access orderings"), "{text}");
    assert!(!text.contains("FAIL"), "{text}");
}

/// The last dependency edge into a panel task orders the final update's
/// write against the panel factorization's read-modify-write of the same
/// panel. Dropping it is the canonical "runtime forgot a dependency" bug;
/// both layers of the verifier must notice.
#[test]
fn dropped_edge_is_flagged_by_static_and_dynamic_checkers() {
    let a = grid_laplacian_2d(8, 8);
    let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    // Find an update → panel edge (the chain-closing edge of a target) in
    // the program the ptg policy runs.
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

    let mut spec = an.task_graph_spec(RuntimeKind::Ptg);
    assert!(spec.remove_edge(pred, panel), "edge must exist in the spec");

    // Static pass: the update's write and the panel's RW on `target` are
    // no longer ordered.
    let report = check_static(&spec);
    assert!(!report.is_clean());
    assert!(
        report
            .races
            .iter()
            .any(|r| r.data == target && (r.first == pred || r.second == pred)),
        "expected a race on panel {target} involving task {pred}: {report}"
    );

    // Dynamic oracle: per-task clocks make the missing edge visible on
    // any schedule the engine happens to choose.
    for rt in RuntimeKind::ALL {
        let dyn_report =
            replay(&spec, rt, 4, ClockGranularity::PerTask).expect("replay completes");
        assert!(
            dyn_report.races.iter().any(|r| r.data == target),
            "{}: vector clocks missed the dropped edge: {dyn_report:?}",
            rt.label()
        );
    }
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

/// A broken hazard ordering in one engine must break the cross-engine
/// equivalence signature too (it changes that panel's writer chain).
#[test]
fn equivalence_signature_detects_reordered_writers() {
    use dagfact_rt::verify::conflict_signature;
    let an = analysis_of(FactoKind::Cholesky);
    // The computed graph against the inferred one.
    let base = conflict_signature(&an.task_graph_spec(RuntimeKind::Ptg)).expect("acyclic");
    let inferred = conflict_signature(&an.task_graph_spec(RuntimeKind::Dataflow)).expect("acyclic");
    assert_eq!(base, inferred);
    // Retagging one update task simulates an engine applying a different
    // source's update in its place.
    let program = an.program(RuntimeKind::Ptg, 1, false, |_, _| {});
    let mut spec = an.task_graph_spec(RuntimeKind::Ptg);
    let update = (0..program.num_tasks())
        .find(|&t| matches!(program.kind(t), TaskKind::Update { .. }))
        .expect("has updates");
    spec.set_tag(update, u64::MAX);
    let perturbed = conflict_signature(&spec).expect("still acyclic");
    assert_ne!(base, perturbed, "retagged writer chain must differ");
}
