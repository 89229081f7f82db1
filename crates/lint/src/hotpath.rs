//! Hot-path purity rules.
//!
//! Given a call graph and the set of functions reachable from the
//! declared hot roots, judge every event in every reachable function
//! against the purity rules:
//!
//! | rule    | trigger                                                | justification marker |
//! |---------|--------------------------------------------------------|----------------------|
//! | alloc   | `Vec::new`, `.push(…)`, `.collect()`, `vec!`, `clone`… | `// ALLOC:`          |
//! | lock    | `.lock()`, `.read()`, `.write()`, `.wait(…)`           | `// LOCK:`           |
//! | panic   | `panic!`, `assert!`, `unreachable!`, …                 | `// PANIC:`          |
//! | index   | `a[i]` slice/array indexing                            | `// BOUNDS:`         |
//! | trace   | recorder-only tracing methods (`merge_lane`, `now_ns`…)| `// TRACE:`          |
//! | macro   | an invocation of a file's own `macro_rules!` item      | none                 |
//! | deny    | a reached crate's root lacks [`crate::ROOT_DENIES`]    | none                 |
//!
//! A marker must appear on the event's line or within the preceding
//! [`crate::WINDOW`] lines. An explicit `assert!`/`panic!`/`unreachable!`
//! is safety code: `// PANIC:` names the precondition or invariant it
//! checks. The `debug_assert!` family is exempt — it compiles out of
//! release builds. Macros are not expanded, so a workspace macro is code
//! the rules cannot see and no marker lets a hot root reach it: hot code
//! is written out.
//!
//! What other gates enforce is not repeated here: `.unwrap()`/`.expect()`
//! are clippy's `unwrap_used`/`expect_used`, console and file I/O and
//! sleeping are clippy's `print_stdout`/`print_stderr`/`dbg_macro` and
//! `disallowed_methods` (`clippy.toml`), each denied in the library code
//! of every crate a hot root reaches: rt, core, kernels, serve, sparse,
//! symbolic, order and bench (the last through a method-name link).
//!
//! Known approximations (documented, deliberate):
//! * The graph has no types. `.f(…)` and `P::f(…)` through a type
//!   parameter link to every impl/trait function named `f`, except the
//!   std-common names of [`crate::callgraph::METHOD_STOPLIST`]; a call
//!   that resolves to nothing (std, a closure) is judged by name only.
//! * A macro the file does not define — std's, or a workspace macro
//!   defined in another file (none is today) — is judged by name; no
//!   macro's arguments are descended into, so a `vec!` inside an
//!   `assert!` is invisible.
//! * `.record(…)` / `.now(…)` are Lane methods that are themselves the
//!   sanctioned single detached-check branch, so the trace rule flags
//!   only `TraceRecorder`-unique names.

use crate::callgraph::CallGraph;
use crate::marked;
use crate::parse::Event;
use crate::syncgraph::FnCtx;
use std::fmt;

/// Which purity rule a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HotRule {
    /// Heap allocation on the hot path.
    Alloc,
    /// Lock acquisition on the hot path.
    Lock,
    /// Explicit panic site (`panic!`, `assert!`, …).
    Panic,
    /// Slice/array indexing without a `// BOUNDS:` contract.
    Index,
    /// Tracing call outside the sanctioned detached-check wrappers.
    Trace,
    /// An invocation of a workspace macro, which the parser does not expand.
    Macro,
    /// A reached crate whose root does not deny [`crate::ROOT_DENIES`].
    Deny,
}

impl HotRule {
    /// Stable lowercase key used in the JSON report.
    pub fn key(self) -> &'static str {
        match self {
            HotRule::Alloc => "alloc",
            HotRule::Lock => "lock",
            HotRule::Panic => "panic",
            HotRule::Index => "index",
            HotRule::Trace => "trace",
            HotRule::Macro => "macro",
            HotRule::Deny => "deny",
        }
    }

    /// The marker comment that justifies this rule, if any does.
    fn marker(self) -> Option<&'static str> {
        match self {
            HotRule::Alloc => Some("ALLOC:"),
            HotRule::Lock => Some("LOCK:"),
            HotRule::Panic => Some("PANIC:"),
            HotRule::Index => Some("BOUNDS:"),
            HotRule::Trace => Some("TRACE:"),
            HotRule::Macro | HotRule::Deny => None,
        }
    }
}

/// One hot-path purity violation: its chain runs from a hot root to the
/// offending function.
pub type HotFinding = crate::Finding<HotRule>;

impl fmt::Display for HotRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Paths whose call allocates (first-segment-insensitive match against
/// `Type::method` suffixes).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "BinaryHeap", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String",
    "Box", "Arc", "Rc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter", "default"];

/// Method names that (re)allocate on growth; `clone` allocates for every
/// heap-backed type in this workspace's hot structures.
const ALLOC_METHODS: &[&str] = &[
    "push", "push_back", "push_front", "insert", "extend", "extend_from_slice", "resize",
    "reserve", "reserve_exact", "collect", "to_vec", "to_string", "to_owned", "append",
    "split_off", "join", "repeat", "into_boxed_slice", "try_reserve", "clone",
];

const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// `read`/`write` are RwLock acquisitions in rt code but also io::Read /
/// io::Write everywhere else; both are lock-or-IO — flag as lock.
const LOCK_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "wait_while", "read", "write"];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Methods unique to `TraceRecorder` — a call to one of these is tracing
/// work outside the sanctioned `Lane` wrappers.
const TRACE_METHODS: &[&str] = &[
    "merge_lane",
    "now_ns",
    "set_task_meta",
    "set_edges",
    "phase_from",
];

/// Judge one event. Returns `(rule, detail)` when it violates a rule.
fn judge(ev: &Event) -> Option<(HotRule, String)> {
    match ev {
        Event::Call { path, .. } if path.len() >= 2 => {
            let (ty, f) = (&path[path.len() - 2], &path[path.len() - 1]);
            if ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&f.as_str()) {
                return Some((HotRule::Alloc, format!("{ty}::{f}")));
            }
            (ty == "TraceRecorder").then(|| (HotRule::Trace, format!("TraceRecorder::{f}")))
        }
        Event::Method { name, .. } => {
            let n = name.as_str();
            let rule = if ALLOC_METHODS.contains(&n) {
                HotRule::Alloc
            } else if LOCK_METHODS.contains(&n) {
                HotRule::Lock
            } else if TRACE_METHODS.contains(&n) {
                HotRule::Trace
            } else {
                return None;
            };
            Some((rule, format!(".{n}()")))
        }
        Event::Macro { name, .. } => {
            let n = name.as_str();
            let rule = if ALLOC_MACROS.contains(&n) {
                HotRule::Alloc
            } else if PANIC_MACROS.contains(&n) {
                HotRule::Panic
            } else {
                return None;
            };
            Some((rule, format!("{n}!")))
        }
        Event::Opaque { name, .. } => {
            Some((HotRule::Macro, format!("`{name}!` is a workspace macro")))
        }
        Event::Index { .. } => Some((HotRule::Index, "slice indexing".to_string())),
        Event::Call { .. } => None,
    }
}

/// Run the purity rules over every function reachable from `roots`,
/// and fail once per reached crate whose parsed root does not deny
/// [`crate::ROOT_DENIES`]; `ctxs[i]` is the context of `graph.functions[i]`.
pub fn check_hot_paths(graph: &CallGraph, roots: &[usize], ctxs: &[FnCtx]) -> Vec<HotFinding> {
    let parent = graph.reach(roots);
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();

    let (mut findings, mut undenied) = (Vec::new(), std::collections::HashSet::new());
    for &i in &reached {
        let f = &graph.functions[i];
        let finding = |rule, line, detail| HotFinding {
            rule,
            file: ctxs[i].file.clone(),
            line,
            function: f.qname.clone(),
            detail,
            chain: graph.witness(&parent, i),
        };
        let krate = f.module.split("::").next().unwrap_or_default();
        if graph.root_denies.get(krate) == Some(&false) && undenied.insert(krate) {
            let detail = format!("crate `{krate}` is reached but its root does not deny {:?}", crate::ROOT_DENIES);
            findings.push(finding(HotRule::Deny, ctxs[i].tokens.get(f.sig.0).map_or(1, |t| t.line), detail));
        }
        for ev in &f.events {
            let Some((rule, detail)) = judge(ev) else {
                continue;
            };
            // The trace module implements the recorder: its own calls
            // are not tracing on the hot path.
            let exempt = rule == HotRule::Trace && f.module.ends_with("::trace");
            let justified = rule.marker().is_some_and(|m| marked(&ctxs[i].comments, ev.line(), m));
            if exempt || justified {
                continue;
            }
            findings.push(finding(rule, ev.line(), detail));
        }
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn run(src: &str, root: &str) -> Vec<HotFinding> {
        let ws = Workspace::parse([("mem.rs".to_string(), "c::m", src)]);
        check_hot_paths(&ws.graph, &ws.graph.by_qname[root], &ws.ctxs)
    }

    fn rules(f: &[HotFinding]) -> Vec<HotRule> {
        f.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn alloc_in_root_is_flagged() {
        let f = run("fn hot() { let v = Vec::with_capacity(8); }", "c::m::hot");
        assert_eq!(rules(&f), vec![HotRule::Alloc]);
        assert_eq!(f[0].detail, "Vec::with_capacity");
    }

    #[test]
    fn alloc_in_callee_carries_witness_chain() {
        let f = run(
            "fn hot() { helper(); } fn helper() { v.push(1); }",
            "c::m::hot",
        );
        assert_eq!(rules(&f), vec![HotRule::Alloc]);
        assert_eq!(f[0].chain, vec!["c::m::hot", "c::m::helper"]);
    }

    #[test]
    fn unreachable_alloc_is_not_flagged() {
        let f = run(
            "fn hot() {} fn cold() { let v = vec![1]; }",
            "c::m::hot",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn justified_alloc_passes() {
        let f = run(
            "fn hot() {\n  // ALLOC: pooled at spawn, amortized O(1).\n  v.push(1);\n}",
            "c::m::hot",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn indexing_needs_bounds_not_hot() {
        let flagged = run("fn hot(a: &[u8]) { let x = a[0]; }", "c::m::hot");
        assert_eq!(rules(&flagged), vec![HotRule::Index]);
        let ok = run(
            "fn hot(a: &[u8]) {\n  // BOUNDS: caller guarantees a.len() > 0.\n  let x = a[0];\n}",
            "c::m::hot",
        );
        assert!(ok.is_empty());
        let wrong_marker = run(
            "fn hot(a: &[u8]) {\n  // LOCK: nope.\n  let x = a[0];\n}",
            "c::m::hot",
        );
        assert_eq!(rules(&wrong_marker), vec![HotRule::Index]);
    }

    #[test]
    fn debug_assert_is_exempt() {
        let f = run("fn hot() { debug_assert!(x > 0); }", "c::m::hot");
        assert!(f.is_empty());
    }

    #[test]
    fn trace_rule() {
        let t = run("fn hot(r: &R) { r.merge_lane(buf); }", "c::m::hot");
        assert_eq!(rules(&t), vec![HotRule::Trace]);
    }

    #[test]
    fn sanctioned_lane_wrappers_are_not_trace_findings() {
        let f = run("fn hot(lane: &mut Lane) { lane.record(span); }", "c::m::hot");
        assert!(f.iter().all(|f| f.rule != HotRule::Trace));
    }

    #[test]
    fn key_is_line_stable() {
        let a = run("fn hot() { assert!(x); }", "c::m::hot");
        let b = run("// pushed down\n\nfn hot() { assert!(x); }", "c::m::hot");
        assert_eq!(a[0].key(), b[0].key());
        assert_eq!(a[0].key(), "panic|c::m::hot|assert!");
    }
}
