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
//! | panic   | `.unwrap()`, `.expect(…)`, `panic!`, `assert!`         | `// PANIC:` (macros only) |
//! | index   | `a[i]` slice/array indexing                            | `// BOUNDS:`         |
//! | io      | `println!`, `File::open`, `thread::sleep`, …           | `// IO:`             |
//! | trace   | recorder-only tracing methods (`merge_lane`, `now_ns`…)| `// TRACE:`          |
//!
//! A marker must appear on the event's line or within the preceding
//! [`crate::WINDOW`] lines. An explicit `assert!`/`panic!`/`unreachable!`
//! is safety code: `// PANIC:` names the precondition or invariant it
//! checks. `.unwrap()`/`.expect()` accept no marker — an implicit panic
//! on the hot path is fixed, never justified. The `debug_assert!` family
//! is exempt — it compiles out of release builds.
//!
//! Known approximations (documented, deliberate):
//! * Macro bodies are not descended into — a `vec!` *inside* another
//!   macro's arguments is invisible. The workspace's hot code does not
//!   hide allocations in macros.
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
    /// Implicit panic site (unwrap/expect/panic-family macro).
    Panic,
    /// Slice/array indexing without a `// BOUNDS:` contract.
    Index,
    /// Blocking or console I/O.
    Io,
    /// Tracing call outside the sanctioned detached-check wrappers.
    Trace,
}

impl HotRule {
    /// Stable lowercase key used in the JSON report.
    pub fn key(self) -> &'static str {
        match self {
            HotRule::Alloc => "alloc",
            HotRule::Lock => "lock",
            HotRule::Panic => "panic",
            HotRule::Index => "index",
            HotRule::Io => "io",
            HotRule::Trace => "trace",
        }
    }

    /// The marker comment that justifies this rule.
    fn marker(self) -> &'static str {
        match self {
            HotRule::Alloc => "ALLOC:",
            HotRule::Lock => "LOCK:",
            HotRule::Panic => "PANIC:",
            HotRule::Index => "BOUNDS:",
            HotRule::Io => "IO:",
            HotRule::Trace => "TRACE:",
        }
    }
}

impl fmt::Display for HotRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One hot-path purity violation.
#[derive(Debug, Clone)]
pub struct HotFinding {
    /// The violated rule.
    pub rule: HotRule,
    /// File the offending function lives in.
    pub file: String,
    /// 1-based line of the offending event.
    pub line: usize,
    /// Qualified name of the offending function.
    pub function: String,
    /// What was seen (`Vec::with_capacity`, `.lock()`, `vec!`, …).
    pub detail: String,
    /// Witness chain from a hot root to the offending function.
    pub chain: Vec<String>,
}

impl HotFinding {
    /// Line-free key (the report's `key`), stable across unrelated edits.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule.key(), self.function, self.detail)
    }
}

/// Paths whose call allocates (first-segment-insensitive match against
/// `Type::method` suffixes).
const ALLOC_TYPES: &[&str] = &[
    "Vec", "VecDeque", "BinaryHeap", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String",
    "Box", "Arc", "Rc",
];
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from", "from_iter", "default"];

/// Method names that (re)allocate on growth.
const ALLOC_METHODS: &[&str] = &[
    "push", "push_back", "push_front", "insert", "extend", "extend_from_slice", "resize",
    "reserve", "reserve_exact", "collect", "to_vec", "to_string", "to_owned", "append",
    "split_off", "join", "repeat", "into_boxed_slice", "try_reserve",
];

/// `clone` allocates for every heap-backed type in this workspace's hot
/// structures; judged separately so the detail names it.
const ALLOC_CLONE: &str = "clone";

const ALLOC_MACROS: &[&str] = &["vec", "format"];

const LOCK_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "wait_while"];
/// `read`/`write` are RwLock acquisitions in rt code but also io::Read /
/// io::Write everywhere else; both are lock-or-IO — flag as lock.
const RWLOCK_METHODS: &[&str] = &["read", "write"];

const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg", "write", "writeln"];
const IO_PATH_HEADS: &[&str] = &["File", "stdin", "stdout", "stderr"];

/// Methods unique to `TraceRecorder` — a call to one of these is tracing
/// work outside the sanctioned `Lane` wrappers.
const TRACE_METHODS: &[&str] = &[
    "merge_lane",
    "now_ns",
    "set_task_meta",
    "set_edges",
    "phase_from",
];

/// Modules exempt from a given rule: the trace module implements the
/// recorder, so its own calls are not "tracing on the hot path".
fn module_exempt(rule: HotRule, module: &str) -> bool {
    matches!(rule, HotRule::Trace) && module.ends_with("::trace")
}

/// Judge one event. Returns `(rule, detail)` when it violates a rule.
fn judge(ev: &Event) -> Option<(HotRule, String)> {
    match ev {
        Event::Call { path, .. } => {
            if path.len() >= 2 {
                let ty = &path[path.len() - 2];
                let f = &path[path.len() - 1];
                if ALLOC_TYPES.contains(&ty.as_str()) && ALLOC_CTORS.contains(&f.as_str()) {
                    return Some((HotRule::Alloc, format!("{ty}::{f}")));
                }
                if ty == "File" && (f == "open" || f == "create") {
                    return Some((HotRule::Io, format!("File::{f}")));
                }
                if ty == "thread" && f == "sleep" {
                    return Some((HotRule::Io, "thread::sleep".to_string()));
                }
                if ty == "TraceRecorder" {
                    return Some((HotRule::Trace, format!("TraceRecorder::{f}")));
                }
                if path.iter().any(|s| s == "fs") {
                    return Some((HotRule::Io, path.join("::")));
                }
            }
            let last = path.last().map(String::as_str).unwrap_or("");
            if path.len() == 1 && IO_PATH_HEADS.contains(&last) {
                return Some((HotRule::Io, format!("{last}()")));
            }
            None
        }
        Event::Method { name, .. } => {
            let n = name.as_str();
            if ALLOC_METHODS.contains(&n) {
                return Some((HotRule::Alloc, format!(".{n}()")));
            }
            if n == ALLOC_CLONE {
                return Some((HotRule::Alloc, ".clone()".to_string()));
            }
            if LOCK_METHODS.contains(&n) || RWLOCK_METHODS.contains(&n) {
                return Some((HotRule::Lock, format!(".{n}()")));
            }
            if PANIC_METHODS.contains(&n) {
                return Some((HotRule::Panic, format!(".{n}()")));
            }
            if TRACE_METHODS.contains(&n) {
                return Some((HotRule::Trace, format!(".{n}()")));
            }
            None
        }
        Event::Macro { name, .. } => {
            let n = name.as_str();
            if ALLOC_MACROS.contains(&n) {
                return Some((HotRule::Alloc, format!("{n}!")));
            }
            if PANIC_MACROS.contains(&n) {
                return Some((HotRule::Panic, format!("{n}!")));
            }
            if IO_MACROS.contains(&n) {
                return Some((HotRule::Io, format!("{n}!")));
            }
            None
        }
        Event::Index { .. } => Some((HotRule::Index, "slice indexing".to_string())),
    }
}

/// Run the purity rules over every function reachable from `roots`;
/// `ctxs[i]` is the context of `graph.functions[i]`.
pub fn check_hot_paths(graph: &CallGraph, roots: &[usize], ctxs: &[FnCtx]) -> Vec<HotFinding> {
    let parent = graph.reach(roots);
    let mut reached: Vec<usize> = parent.keys().copied().collect();
    reached.sort_unstable();

    let mut findings = Vec::new();
    for &i in &reached {
        let f = &graph.functions[i];
        for ev in &f.events {
            let Some((rule, detail)) = judge(ev) else {
                continue;
            };
            if module_exempt(rule, &f.module) {
                continue;
            }
            let implicit_panic = rule == HotRule::Panic && matches!(ev, Event::Method { .. });
            if !implicit_panic && marked(&ctxs[i].comments, ev.line(), rule.marker()) {
                continue;
            }
            findings.push(HotFinding {
                rule,
                file: ctxs[i].file.clone(),
                line: ev.line(),
                function: f.qname.clone(),
                detail,
                chain: graph.witness(&parent, i),
            });
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
    fn implicit_panic_accepts_no_marker() {
        let f = run(
            "fn hot() {\n  // PANIC: justified? no.\n  x.unwrap();\n}",
            "c::m::hot",
        );
        assert_eq!(rules(&f), vec![HotRule::Panic]);
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
    fn io_and_trace_rules() {
        let f = run("fn hot() { println!(\"x\"); }", "c::m::hot");
        assert_eq!(rules(&f), vec![HotRule::Io]);
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
        let a = run("fn hot() { x.unwrap(); }", "c::m::hot");
        let b = run("// pushed down\n\nfn hot() { x.unwrap(); }", "c::m::hot");
        assert_eq!(a[0].key(), b[0].key());
        assert_eq!(a[0].key(), "panic|c::m::hot|.unwrap()");
    }
}
