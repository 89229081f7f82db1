//! Fixture corpus for the lock-order cycle check and the token checks
//! (DESIGN.md §16).
//!
//! Each case is a small source snippet with a known-positive or
//! known-negative outcome per rule, checked against golden findings
//! (rule, detail, witness chain, key) through the public pipeline the
//! `lint` binary runs: `Workspace::parse` (which makes the Relaxed and
//! sync-shim token checks) → `syncgraph::analyze`. Every seeded defect
//! has a clean twin proving the rule keys on the defect, not on the
//! construct.

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

/// Run the lock-order pass over a set of `(module, source)` fixture
/// files, the same way the `lint` driver does.
fn run(files: &[(&str, &str)]) -> SyncReport {
    let ws = parse(files);
    analyze(&ws.graph, &ws.ctxs)
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
    let r = run(&[(
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
    let r = run(&[(
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
    let r = run(&[
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

// --- the Relaxed rule ---------------------------------------------------

#[test]
fn seeded_mismarked_relaxed_and_ordering_note_twin() {
    // Relaxed with no written-down reason: flagged.
    let ws = parse(&[(
        "fx::atom",
        "impl S { fn bump(&self) { self.hits.fetch_add(1, Ordering::Relaxed); } }",
    )]);
    assert_eq!(
        golden(&ws.token_findings),
        vec![(
            SyncRule::UnjustifiedRelaxed,
            "`self.hits` fetch_add(Relaxed) without an ORDERING: note".to_string()
        )]
    );
    assert_eq!(
        ws.token_findings[0].key(),
        "unjustified-relaxed|fx::atom|`self.hits` fetch_add(Relaxed) without an ORDERING: note"
    );
    // Twin: the note within the marker window suppresses it.
    let ws = parse(&[(
        "fx::atom",
        "impl S { fn bump(&self) {\n\
         \x20 // ORDERING: statistics counter; no memory is published.\n\
         \x20 self.hits.fetch_add(1, Ordering::Relaxed); } }",
    )]);
    assert!(ws.token_findings.is_empty(), "{:?}", ws.token_findings);
    // Not sites: a Relaxed failure ordering beside an AcqRel success, a
    // pass-through helper's ordering variable, a test item.
    let ws = parse(&[(
        "fx::atom",
        "impl S { fn claim(&self) { \
         let _ = self.owner.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed); } \
         fn load(&self, order: Ordering) -> u32 { self.inner.load(order) } }\n\
         #[cfg(test)]\n\
         mod tests { fn t(s: &S) { s.hits.fetch_add(1, Ordering::Relaxed); } }",
    )]);
    assert!(ws.token_findings.is_empty(), "{:?}", ws.token_findings);
}

// --- the sync shim ------------------------------------------------------

#[test]
fn std_sync_in_rt_library_code_bypasses_the_shim() {
    let ws = parse(&[(
        "dagfact_rt::native",
        "use std::sync::Arc;\n\
         pub fn run() {\n  use std::sync::Mutex;\n}",
    )]);
    let lines: Vec<usize> = ws.token_findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![1, 3], "{:?}", ws.token_findings);
    assert_eq!(ws.token_findings[0].rule, SyncRule::ShimBypass);
    assert_eq!(ws.token_findings[0].function, "dagfact_rt::native");
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
    assert!(ws.token_findings.is_empty(), "{:?}", ws.token_findings);
}
