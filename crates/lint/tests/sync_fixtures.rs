//! Fixture corpus for the lock-discipline & atomics-protocol analyzer
//! (DESIGN.md §16).
//!
//! Each case is a small source snippet with a known-positive or
//! known-negative outcome per rule, checked against golden findings
//! (rule, detail, witness chain, key) through the public pipeline the
//! `lint` binary runs: `Workspace::parse` → `syncgraph::analyze` /
//! `atomics::analyze_atomics` (and the sync-shim check `parse` runs).
//! Every seeded defect has a clean twin proving the rule keys on the
//! defect, not on the construct.

use dagfact_lint::atomics::{analyze_atomics, AtomReport};
use dagfact_lint::syncgraph::{analyze, SyncFinding, SyncReport, SyncRule};
use dagfact_lint::Workspace;

fn parse(files: &[(&str, &str)]) -> Workspace {
    Workspace::parse(
        files
            .iter()
            .enumerate()
            .map(|(i, (m, s))| (format!("fixture{i}.rs"), *m, *s)),
    )
}

/// Run both passes over a set of `(module, source)` fixture files, the
/// same way the `lint` driver does.
fn run(files: &[(&str, &str)]) -> (SyncReport, AtomReport) {
    let ws = parse(files);
    (
        analyze(&ws.graph, &ws.ctxs),
        analyze_atomics(&ws.graph, &ws.ctxs),
    )
}

fn golden(findings: &[SyncFinding]) -> Vec<(SyncRule, String)> {
    findings
        .iter()
        .map(|f| (f.rule, f.detail.clone()))
        .collect()
}

// --- lock-order cycles ---------------------------------------------------

#[test]
fn seeded_two_lock_cycle_is_a_deadlock_witness() {
    let (r, _) = run(&[(
        "fx::dead",
        "impl S {\n\
         \x20 fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
         \x20 fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
         }",
    )]);
    assert_eq!(r.sites.len(), 4);
    assert_eq!(r.edges.len(), 2);
    assert_eq!(
        golden(&r.findings),
        vec![(
            SyncRule::LockCycle,
            "lock-order cycle: S.a <-> S.b".to_string()
        )]
    );
    // The witness chain names both edges with their source locations.
    let f = &r.findings[0];
    assert_eq!(f.chain.len(), 2);
    assert!(
        f.chain[0].starts_with("S.a -> S.b in fx::dead::S::ab"),
        "{:?}",
        f.chain
    );
    assert!(
        f.chain[1].starts_with("S.b -> S.a in fx::dead::S::ba"),
        "{:?}",
        f.chain
    );
    // Keys are line-free and stable.
    assert_eq!(
        f.key(),
        "lock-cycle|fx::dead::S::ab|lock-order cycle: S.a <-> S.b"
    );
}

#[test]
fn consistent_lock_order_clean_twin() {
    let (r, _) = run(&[(
        "fx::dead",
        "impl S {\n\
         \x20 fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
         \x20 fn ab2(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
         }",
    )]);
    // Same order everywhere: the graph has edges but no cycle.
    assert_eq!(r.edges.len(), 2);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn cross_file_cycle_is_found_through_the_whole_graph() {
    let (r, _) = run(&[
        (
            "fx::east",
            "impl S { fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); } }",
        ),
        (
            "fx::west",
            "impl S { fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); } }",
        ),
    ]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, SyncRule::LockCycle);
    assert_eq!(r.findings[0].detail, "lock-order cycle: S.a <-> S.b");
}

// --- guards across blocking calls ----------------------------------------

#[test]
fn seeded_guard_across_recv_with_golden_key() {
    let (r, _) = run(&[(
        "fx::chan",
        "impl S { fn pump(&self) { let g = self.state.lock(); let m = self.rx.recv(); } }",
    )]);
    assert_eq!(
        golden(&r.findings),
        vec![(
            SyncRule::HeldBlocking,
            "guard `S.state` held across .recv()".to_string()
        )]
    );
    assert_eq!(
        r.findings[0].key(),
        "held-across-blocking|fx::chan::S::pump|guard `S.state` held across .recv()"
    );
    assert_eq!(r.findings[0].chain, vec!["fx::chan::S::pump".to_string()]);
}

#[test]
fn guard_released_before_recv_clean_twin() {
    let (r, _) = run(&[(
        "fx::chan",
        "impl S { fn pump(&self) { { let g = self.state.lock(); } let m = self.rx.recv(); } \
         fn pump2(&self) { let g = self.state.lock(); drop(g); let m = self.rx.recv(); } }",
    )]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn guard_across_blocking_callee_carries_witness_chain() {
    let (r, _) = run(&[(
        "fx::deep",
        "impl S {\n\
         \x20 fn outer(&self) { let g = self.state.lock(); self.drain_inbox(); }\n\
         \x20 fn drain_inbox(&self) { self.relay(); }\n\
         \x20 fn relay(&self) { let m = self.rx.recv(); }\n\
         }",
    )]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, SyncRule::HeldBlocking);
    assert_eq!(
        f.detail,
        "guard `S.state` held across .recv() in `fx::deep::S::relay`"
    );
    // Witness chain: the holder, then the BFS path to the blocking call.
    assert_eq!(
        f.chain,
        vec![
            "fx::deep::S::outer".to_string(),
            "fx::deep::S::drain_inbox".to_string(),
            "fx::deep::S::relay".to_string(),
        ]
    );
}

#[test]
fn guard_across_alloc_heavy_callee_is_flagged_with_clean_twin() {
    let heavy = "fn expand() { let mut v = Vec::with_capacity(9); v.push(1); let w = v.clone(); }";
    let (r, _) = run(&[(
        "fx::alloc",
        &format!("impl S {{ fn f(&self) {{ let g = self.state.lock(); expand(); }} }} {heavy}"),
    )]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    assert_eq!(r.findings[0].rule, SyncRule::HeldAlloc);
    assert_eq!(
        r.findings[0].detail,
        "guard `S.state` held across alloc-heavy callee `fx::alloc::expand` (3 alloc sites)"
    );
    // Clean twin: same callee invoked after the guard is gone.
    let (r, _) = run(&[(
        "fx::alloc",
        &format!(
            "impl S {{ fn f(&self) {{ {{ let g = self.state.lock(); }} expand(); }} }} {heavy}"
        ),
    )]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

#[test]
fn condvar_wait_consuming_its_own_guard_is_sanctioned() {
    let (r, _) = run(&[(
        "fx::cv",
        "impl S { fn park(&self) { let mut q = self.queue.lock(); \
         q = self.cond.wait(q); } }",
    )]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

// --- atomics pairing -----------------------------------------------------

#[test]
fn seeded_unpaired_release_store_with_site_chain() {
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn publish(&self) { self.flag.store(true, Ordering::Release); } }",
    )]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    let f = &a.findings[0];
    assert_eq!(f.rule, SyncRule::UnpairedRelease);
    assert_eq!(
        f.detail,
        "`S.flag` has Release-side writes but no Acquire load"
    );
    assert_eq!(
        f.key(),
        "unpaired-release|fx::atom::S::publish|`S.flag` has Release-side writes but no Acquire load"
    );
    assert_eq!(
        f.chain,
        vec!["store(Release) in fx::atom::S::publish (fixture0.rs:1)".to_string()]
    );
}

#[test]
fn paired_release_acquire_clean_twin() {
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn publish(&self) { self.flag.store(true, Ordering::Release); } \
         fn observe(&self) -> bool { self.flag.load(Ordering::Acquire) } }",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
    assert_eq!(a.sites.len(), 2);
}

#[test]
fn unpaired_acquire_load_is_the_mirror_defect() {
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn observe(&self) -> bool { self.flag.load(Ordering::Acquire) } }",
    )]);
    assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
    assert_eq!(a.findings[0].rule, SyncRule::UnpairedAcquire);
    assert_eq!(
        a.findings[0].detail,
        "`S.flag` has Acquire loads but no Release-side write"
    );
}

#[test]
fn seeded_mismarked_relaxed_and_ordering_note_twin() {
    // Relaxed with no written-down reason: flagged.
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } }",
    )]);
    assert_eq!(
        golden(&a.findings),
        vec![(
            SyncRule::UnjustifiedRelaxed,
            "`S.hits` fetch_add(Relaxed) without an ORDERING: note".to_string()
        )]
    );
    // Twin: the note within the marker window suppresses it.
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn bump(&self) {\n\
         \x20 // ORDERING: statistics counter; no memory is published.\n\
         \x20 self.hits.fetch_add(1, Ordering::Relaxed); } }",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

#[test]
fn cx_failure_ordering_stronger_than_success_load_is_flagged() {
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn claim(&self) { \
         let _ = self.owner.compare_exchange(0, 1, Ordering::AcqRel, Ordering::SeqCst); \
         self.owner.store(0, Ordering::Release); } }",
    )]);
    assert!(
        a.findings
            .iter()
            .any(|f| f.rule == SyncRule::CxFailureOrdering
                && f.detail
                    == "`S.owner` compare_exchange failure ordering SeqCst is stronger than the \
                    success load (AcqRel)"),
        "{:?}",
        a.findings
    );
    // Twin: failure no stronger than the success ordering's load side.
    let (_, a) = run(&[(
        "fx::atom",
        "impl S { fn claim(&self) { \
         let _ = self.owner.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire); \
         self.owner.store(0, Ordering::Release); } }",
    )]);
    assert!(a.findings.is_empty(), "{:?}", a.findings);
}

// --- the sync shim ------------------------------------------------------

#[test]
fn std_sync_in_rt_library_code_bypasses_the_shim() {
    let ws = parse(&[(
        "dagfact_rt::native",
        "use std::sync::Arc;\n\
         pub fn run() {\n  use std::sync::Mutex;\n}",
    )]);
    let lines: Vec<usize> = ws.shim.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 3], "{:?}", ws.shim);
    assert_eq!(ws.shim[0].rule, SyncRule::ShimBypass);
    assert_eq!(ws.shim[0].function, "dagfact_rt::native");
}

#[test]
fn std_sync_in_the_shim_model_tests_or_other_crates_is_fine() {
    let src = "use std::sync::Arc;\n";
    let test_mod = "use crate::sync::Arc;\n\
                    #[cfg(test)]\n\
                    mod tests {\n  use std::sync::Mutex;\n  fn t() { use std::sync::Once; }\n}\n\
                    #[cfg(all(test, not(loom)))]\n\
                    use std::sync::Barrier;\n";
    let ws = parse(&[
        ("dagfact_rt::sync", src),
        ("dagfact_rt::model::sched", src),
        ("dagfact_core::numeric", src),
        ("dagfact_rt::exec", test_mod),
    ]);
    assert!(ws.shim.is_empty(), "{:?}", ws.shim);
}
