//! Lock-order analyzer (DESIGN.md §16): the workspace lock-order graph
//! behind `lint-sync`, and its cycle check.
//!
//! Works on the same artifacts as the hot-path analyzer — the parsed
//! token stream and the module-resolved call graph — but asks a
//! different question: **which locks can be held at the same time?**
//!
//! * Every `Mutex`/`RwLock` acquisition site (`.lock()`, empty-argument
//!   `.read()`/`.write()`, `.try_lock()`) is classified by a *lock
//!   identity*: the receiver's field path rooted at the `impl` type
//!   (`Injector.queue`), a parameter's declared type
//!   (`Queues.ready` for `fn steal(queues: &Queues)`), an upper-case
//!   static, or — when the root cannot be resolved — a function-scoped
//!   pseudo-identity. The scheme is conservative: two identities that
//!   print differently may alias the same lock (splits weaken cycle
//!   detection but never fabricate an edge between unrelated locks).
//! * A linear scan of each body tracks **guard liveness** (named `let`
//!   guards die at scope end or `drop(g)`; temporaries die at the end
//!   of their statement). A second acquisition while any guard is live
//!   adds a lock-order edge.
//! * Calls made while a guard is live are resolved through the call
//!   graph; every acquisition reachable from the callee becomes a
//!   **cross-function** edge carrying the BFS witness chain.
//! * Cycles in the lock-order graph (including self-edges: re-acquiring
//!   an identity while holding it) are reported as potential-deadlock
//!   witnesses listing every participating edge with its source chain.
//!   They accept no marker — like `.unwrap()` on a hot path, the fix is
//!   a lock-order change.
//!
//! The model checker (`dagfact_rt::model*`) and the sync shim
//! (`dagfact_rt::sync`) are exempt: they are the verification mechanism
//! and the sanctioned wrapper, not subjects.

use crate::callgraph::CallGraph;
use crate::lex::{group_end, ident_at, punct_at, Comment, Tok, Token};
use crate::parse::Function;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

/// Which sync rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SyncRule {
    /// A cycle in the lock-order graph (potential deadlock).
    LockCycle,
    /// An atomic call whose literal orderings are all `Relaxed`, without
    /// an `// ORDERING:` note.
    UnjustifiedRelaxed,
    /// `use std::sync` in rt library code, past the `crate::sync` shim.
    ShimBypass,
}

impl SyncRule {
    /// Stable key fragment for reports.
    pub fn key(self) -> &'static str {
        match self {
            SyncRule::LockCycle => "lock-cycle",
            SyncRule::UnjustifiedRelaxed => "unjustified-relaxed",
            SyncRule::ShimBypass => "shim-bypass",
        }
    }
}

/// One sync-discipline violation: its chain runs from the holding
/// function to the offending one, or lists a cycle's edges.
pub type SyncFinding = crate::Finding<SyncRule>;

impl fmt::Display for SyncRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct LockSite {
    /// Lock identity (see module docs).
    pub id: String,
    /// Acquiring method (`lock`, `read`, `write`, `try_lock`).
    pub method: String,
    /// Source file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Containing function.
    pub function: String,
}

/// One lock-order edge: a guard of `from` was provably live at an
/// acquisition of `to`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Held lock identity.
    pub from: String,
    /// Acquired lock identity.
    pub to: String,
    /// Function holding `from` at the acquisition (or at the call that
    /// reaches it).
    pub function: String,
    /// Source file of the holding site.
    pub file: String,
    /// 1-based line of the acquisition / call site.
    pub line: usize,
    /// Witness chain from the holding function to the acquiring one
    /// (length 1 for an intra-function edge).
    pub chain: Vec<String>,
}

/// Analyzer output: the lock-order graph plus the findings.
#[derive(Debug, Default)]
pub struct SyncReport {
    /// Every acquisition site, sorted by (file, line).
    pub sites: Vec<LockSite>,
    /// Deduplicated lock-order edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// Lock-order cycles, sorted by (file, line).
    pub findings: Vec<SyncFinding>,
}

/// Per-function context, aligned with [`CallGraph::functions`] by
/// [`crate::Workspace::parse`]: what every pass needs of the owning file.
#[derive(Clone)]
pub struct FnCtx {
    /// Source path (for reports).
    pub file: String,
    /// The owning file's full token stream ([`Function::body`] and
    /// [`Function::sig`] index into it).
    pub tokens: Rc<Vec<Token>>,
    /// The owning file's comments (for justification markers).
    pub comments: Rc<Vec<Comment>>,
}

/// Guard-acquiring methods. `read`/`write` count only with an empty
/// argument list (`io::Read::read` / `io::Write::write` take buffers).
const ACQUIRE_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];

/// Smart-pointer / container heads skipped when inferring a parameter's
/// nominal type (`&Arc<FaultPlan>` → `FaultPlan`).
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Option", "Vec", "Mutex", "RwLock", "RefCell", "Cell", "Result",
];

/// Modules exempt from the sync checks: the model checker is the
/// verification mechanism, the sync shim the sanctioned wrapper.
pub(crate) fn module_exempt(module: &str) -> bool {
    module == "dagfact_rt::sync"
        || module.starts_with("dagfact_rt::sync::")
        || module.contains("::model")
}

/// Walk the receiver chain backwards from the `.` at `dot`: identifier
/// segments joined by `.`, looking through index groups (`x[i].lock()`
/// → `["x"]`… the indexed segment is kept: `self.ready[w].lock()` →
/// `["self", "ready"]`). An opaque receiver (call result, parenthesized
/// expression) yields an empty chain.
pub(crate) fn receiver_chain(toks: &[Token], dot: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = dot; // one past the segment to read
    loop {
        // Look through trailing index groups: `…foo[w]` ← cursor past `]`.
        while k > 0 && punct_at(toks, k - 1, ']') {
            let mut depth = 0usize;
            loop {
                let Some(j) = k.checked_sub(1) else {
                    return Vec::new();
                };
                k = j;
                match toks[k].kind {
                    Tok::Punct(']') => depth += 1,
                    Tok::Punct('[') if depth == 1 => break,
                    Tok::Punct('[') => depth -= 1,
                    _ => {}
                }
            }
        }
        // Anything but an identifier (a `)` of a call, a literal…): opaque.
        let Some(seg) = k.checked_sub(1).and_then(|j| ident_at(toks, j)) else {
            return Vec::new();
        };
        chain.push(seg.to_string());
        k -= 1;
        // Continue only through a `.` immediately before the segment.
        if k == 0 || !punct_at(toks, k - 1, '.') {
            break;
        }
        k -= 1;
    }
    chain.reverse();
    chain
}

/// Infer `parameter name → nominal type` from the signature token range.
fn param_types(tokens: &[Token], sig: (usize, usize)) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let toks = match tokens.get(sig.0..sig.1) {
        Some(t) => t,
        None => return out,
    };
    // The parameter list follows the generics, if any.
    let open = if punct_at(toks, 0, '<') { group_end(toks, 0) } else { 0 };
    if !punct_at(toks, open, '(') {
        return out;
    }
    let close = group_end(toks, open) - 1;
    let mut i = open + 1;
    let mut pname: Option<String> = None;
    let mut in_type = false;
    let mut depth = 0usize;
    while i < close {
        match &toks[i].kind {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('<') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('>') => depth = depth.saturating_sub(1),
            Tok::Punct(',') if depth == 0 => {
                pname = None;
                in_type = false;
            }
            Tok::Punct(':') if depth == 0 && !punct_at(toks, i + 1, ':') => in_type = true,
            Tok::Ident(s) if !in_type && pname.is_none() && s != "mut" && s != "self" => {
                pname = Some(s.clone());
            }
            Tok::Ident(s)
                if in_type
                    && s.chars().next().is_some_and(char::is_uppercase)
                    && !TYPE_WRAPPERS.contains(&s.as_str()) =>
            {
                if let Some(n) = pname.take() {
                    out.insert(n, s.clone());
                }
                in_type = false;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Classify a receiver chain into a lock identity (see module docs).
fn lock_identity(
    chain: &[String],
    f: &Function,
    params: &HashMap<String, String>,
) -> String {
    fn join(root: &str, rest: &[String]) -> String {
        if rest.is_empty() {
            root.to_string()
        } else {
            format!("{}.{}", root, rest.join("."))
        }
    }
    let Some(root) = chain.first() else {
        return format!("<expr {}>", f.qname);
    };
    let rest = &chain[1..];
    if root == "self" {
        return join(f.self_type.as_deref().unwrap_or("Self"), rest);
    }
    if let Some(t) = params.get(root.as_str()) {
        return join(t, rest);
    }
    if root.chars().next().is_some_and(char::is_uppercase) {
        return join(root, rest);
    }
    if !rest.is_empty() {
        // Unknown lowercase local root: keep the field path only. This
        // may split one lock into several identities — conservative.
        return rest.join(".");
    }
    format!("{}::{}", f.qname, root)
}

/// A live guard during the body scan.
struct Guard {
    /// Binding name (`None` for statement temporaries).
    name: Option<String>,
    /// Lock identity it guards.
    id: String,
    /// Brace depth it was created at.
    depth: usize,
}

/// Raw per-function scan results.
#[derive(Debug, Default)]
struct Scan {
    /// `(identity, method, line)` per acquisition.
    acquires: Vec<(String, String, usize)>,
    /// `(held, acquired, line)` intra-function lock-order edges.
    intra_edges: Vec<(String, String, usize)>,
    /// `(callee name, line, held identities)` calls made under guards.
    calls_held: Vec<(String, usize, Vec<String>)>,
}

/// Scan one function body for guard liveness (see module docs).
fn scan_fn(
    f: &Function,
    tokens: &[Token],
    params: &HashMap<String, String>,
) -> Scan {
    let mut out = Scan::default();
    let toks = match tokens.get(f.body.0..f.body.1) {
        Some(t) => t,
        None => return out,
    };
    let n = toks.len();
    let mut guards: Vec<Guard> = Vec::new();
    // A `let [mut] name =` waiting for its initializer, with its depth.
    let mut pending: Option<(String, usize)> = None;
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < n {
        match &toks[i].kind {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                if pending.as_ref().is_some_and(|p| p.1 > depth) {
                    pending = None;
                }
                i += 1;
            }
            Tok::Punct(';') => {
                guards.retain(|g| !(g.name.is_none() && g.depth == depth));
                if pending.as_ref().is_some_and(|p| p.1 >= depth) {
                    pending = None;
                }
                i += 1;
            }
            Tok::Punct('.') if ident_at(toks, i + 1).is_some() => {
                let name = ident_at(toks, i + 1).map(str::to_string).unwrap_or_default();
                let line = toks[i + 1].line;
                // Locate the call parens (allowing a turbofish).
                let mut j = i + 2;
                if punct_at(toks, j, ':') && punct_at(toks, j + 1, ':') && punct_at(toks, j + 2, '<')
                {
                    j = group_end(toks, j + 2);
                }
                if !punct_at(toks, j, '(') {
                    i += 2; // field access / method reference
                    continue;
                }
                let open = j;
                let close = group_end(toks, open) - 1;
                let is_acquire = name == "lock"
                    || name == "try_lock"
                    || ((name == "read" || name == "write") && close == open + 1);
                debug_assert!(ACQUIRE_METHODS.contains(&name.as_str()) || !is_acquire);
                if is_acquire {
                    let chain = receiver_chain(toks, i);
                    let id = lock_identity(&chain, f, params);
                    out.acquires.push((id.clone(), name.clone(), line));
                    for g in &guards {
                        out.intra_edges.push((g.id.clone(), id.clone(), line));
                    }
                    // `let g = m.lock();` binds the guard by name; any
                    // longer initializer chain drops it at the `;`.
                    let named = punct_at(toks, close + 1, ';');
                    match (named, pending.take()) {
                        (true, Some((nm, _))) => guards.push(Guard {
                            name: Some(nm),
                            id,
                            depth,
                        }),
                        (_, p) => {
                            pending = p;
                            guards.push(Guard {
                                name: None,
                                id,
                                depth,
                            });
                        }
                    }
                } else if !guards.is_empty() {
                    let held: Vec<String> = guards.iter().map(|g| g.id.clone()).collect();
                    out.calls_held.push((name, line, held));
                }
                i = open + 1; // keep scanning inside the arguments
            }
            Tok::Ident(kw) if kw == "let" => {
                let mut j = i + 1;
                if ident_at(toks, j) == Some("mut") {
                    j += 1;
                }
                match (ident_at(toks, j), punct_at(toks, j + 1, '=')) {
                    (Some(nm), true) => {
                        pending = Some((nm.to_string(), depth));
                        i = j + 2;
                    }
                    _ => i += 1,
                }
            }
            Tok::Ident(head) => {
                // Path call: `seg::seg::…::f(…)`, plus `drop(g)`.
                let mut segs: Vec<&str> = vec![head];
                let mut j = i + 1;
                while punct_at(toks, j, ':')
                    && punct_at(toks, j + 1, ':')
                    && ident_at(toks, j + 2).is_some()
                {
                    segs.push(ident_at(toks, j + 2).unwrap_or_default());
                    j += 3;
                }
                if !punct_at(toks, j, '(') || crate::parse::is_expr_keyword(head) {
                    i = j.max(i + 1);
                    continue;
                }
                let open = j;
                let close = group_end(toks, open) - 1;
                let last = *segs.last().unwrap_or(&"");
                if last == "drop" && close == open + 2 {
                    if let Some(nm) = ident_at(toks, open + 1) {
                        guards.retain(|g| g.name.as_deref() != Some(nm));
                    }
                } else if !guards.is_empty() && segs.len() <= 3 {
                    let held: Vec<String> = guards.iter().map(|g| g.id.clone()).collect();
                    out.calls_held.push((last.to_string(), toks[i].line, held));
                }
                i = open + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Run the lock-order analysis over the whole graph; `ctxs[i]` is the
/// context of `graph.functions[i]`.
pub fn analyze(graph: &CallGraph, ctxs: &[FnCtx]) -> SyncReport {
    let nf = graph.functions.len();
    let scans: Vec<Scan> = graph
        .functions
        .iter()
        .zip(ctxs)
        .map(|(f, c)| {
            if module_exempt(&f.module) {
                Scan::default()
            } else {
                scan_fn(f, &c.tokens, &param_types(&c.tokens, f.sig))
            }
        })
        .collect();

    let mut sites: Vec<LockSite> = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();

    for i in 0..nf {
        let f = &graph.functions[i];
        let scan = &scans[i];
        let c = &ctxs[i];
        for (id, method, line) in &scan.acquires {
            sites.push(LockSite {
                id: id.clone(),
                method: method.clone(),
                file: c.file.clone(),
                line: *line,
                function: f.qname.clone(),
            });
        }
        for (from, to, line) in &scan.intra_edges {
            edges.push(LockEdge {
                from: from.clone(),
                to: to.clone(),
                function: f.qname.clone(),
                file: c.file.clone(),
                line: *line,
                chain: vec![f.qname.clone()],
            });
        }
    }

    // Cross-function pass: resolve calls made under guards through the
    // call graph; reachable acquisitions become edges.
    let mut reach_cache: HashMap<usize, Rc<HashMap<usize, usize>>> = HashMap::new();
    for i in 0..nf {
        if scans[i].calls_held.is_empty() {
            continue;
        }
        let holder = graph.functions[i].qname.clone();
        let file = ctxs[i].file.clone();
        for (callee, line, held) in &scans[i].calls_held {
            let cands: Vec<usize> = graph.edges[i]
                .iter()
                .copied()
                .filter(|&j| graph.functions[j].name == *callee)
                .collect();
            for j in cands {
                if module_exempt(&graph.functions[j].module) {
                    continue;
                }
                let parent = reach_cache
                    .entry(j)
                    .or_insert_with(|| Rc::new(graph.reach(&[j])))
                    .clone();
                let mut reached: Vec<usize> = parent.keys().copied().collect();
                reached.sort_unstable();
                for k in reached {
                    if module_exempt(&graph.functions[k].module) {
                        continue;
                    }
                    if scans[k].acquires.is_empty() {
                        continue;
                    }
                    let mut chain = vec![holder.clone()];
                    chain.extend(graph.witness(&parent, k));
                    for (aid, _m, _al) in &scans[k].acquires {
                        for gid in held {
                            edges.push(LockEdge {
                                from: gid.clone(),
                                to: aid.clone(),
                                function: holder.clone(),
                                file: file.clone(),
                                line: *line,
                                chain: chain.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    // Dedup edges by (from, to, function) — intra edges were pushed
    // first and win, keeping the tightest witness chain.
    let mut seen_edges: BTreeSet<(String, String, String)> = BTreeSet::new();
    edges.retain(|e| seen_edges.insert((e.from.clone(), e.to.clone(), e.function.clone())));

    // Cycle detection over lock identities (SCCs; a self-edge is a
    // one-node cycle: re-acquiring an identity while holding it).
    let mut findings = find_cycles(&edges);

    sites.sort_by(|a, b| (&a.file, a.line, &a.id).cmp(&(&b.file, b.line, &b.id)));
    edges.sort_by(|a, b| (&a.from, &a.to, &a.function).cmp(&(&b.from, &b.to, &b.function)));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail).cmp(&(&b.file, b.line, b.rule, &b.detail))
    });
    SyncReport {
        sites,
        edges,
        findings,
    }
}

/// The lock-order graph's cycles: each set of identities that reach one
/// another (or one identity that reaches itself: a self-edge) becomes a
/// [`SyncRule::LockCycle`] finding.
fn find_cycles(edges: &[LockEdge]) -> Vec<SyncFinding> {
    let mut next: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        next.entry(&e.from).or_default().insert(&e.to);
    }
    let reach = |from: &str| {
        let (mut seen, mut stack) = (BTreeSet::new(), vec![from]);
        while let Some(u) = stack.pop() {
            for &v in next.get(u).into_iter().flatten() {
                if seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen
    };
    let reached: BTreeMap<&str, BTreeSet<&str>> = next.keys().map(|&u| (u, reach(u))).collect();
    let back = |u: &str, v: &str| reached.get(v).is_some_and(|r| r.contains(u));
    let sccs: BTreeSet<Vec<&str>> = (reached.iter())
        .filter(|(u, r)| r.contains(*u))
        .map(|(u, r)| r.iter().copied().filter(|v| back(u, v)).collect())
        .collect();
    let mut out = Vec::new();
    for m in sccs {
        let inside = |id: &String| m.contains(&id.as_str());
        let mut internal: Vec<&LockEdge> = (edges.iter())
            .filter(|e| inside(&e.from) && inside(&e.to) && (e.from != e.to || m.len() == 1))
            .collect();
        internal.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        let Some(first) = internal.first() else {
            continue;
        };
        let chain = (internal.iter())
            .map(|e| {
                let via = e.chain.join(" -> ");
                format!("{} -> {} in {} ({}:{}) via {via}", e.from, e.to, e.function, e.file, e.line)
            })
            .collect();
        out.push(SyncFinding {
            rule: SyncRule::LockCycle,
            file: first.file.clone(),
            line: first.line,
            function: first.function.clone(),
            detail: format!("lock-order cycle: {}", m.join(" <-> ")),
            chain,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn run(files: &[(&str, &str)]) -> SyncReport {
        let ws = Workspace::parse(
            files
                .iter()
                .enumerate()
                .map(|(i, (m, s))| (format!("fixture{i}.rs"), *m, *s)),
        );
        analyze(&ws.graph, &ws.ctxs)
    }

    #[test]
    fn two_lock_hold_makes_an_edge() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { let g = self.a.lock(); let h = self.b.lock(); } }",
        )]);
        assert_eq!(r.sites.len(), 2);
        assert_eq!(r.edges.len(), 1);
        assert_eq!(r.edges[0].from, "S.a");
        assert_eq!(r.edges[0].to, "S.b");
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn temp_guard_dies_at_statement_end() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { self.a.lock().push(1); let h = self.b.lock(); } }",
        )]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn chained_let_initializer_is_a_temporary() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { let v = self.a.lock().take(); let h = self.b.lock(); } }",
        )]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn scope_and_drop_kill_guards() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { { let g = self.a.lock(); } let h = self.b.lock(); } \
             fn g(&self) { let g = self.a.lock(); drop(g); let h = self.b.lock(); } }",
        )]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn cross_function_edge_carries_witness_chain() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { let g = self.a.lock(); self.helper(); } \
             fn helper(&self) { self.inner(); } \
             fn inner(&self) { let h = self.b.lock(); } }",
        )]);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].from, "S.a");
        assert_eq!(r.edges[0].to, "S.b");
        assert_eq!(
            r.edges[0].chain,
            vec!["r::a::S::f", "r::a::S::helper", "r::a::S::inner"]
        );
    }

    #[test]
    fn two_lock_cycle_is_a_deadlock_witness() {
        let r = run(&[(
            "r::a",
            "impl S { fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); } \
             fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); } }",
        )]);
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == SyncRule::LockCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", r.findings);
        assert_eq!(cycles[0].detail, "lock-order cycle: S.a <-> S.b");
        assert_eq!(cycles[0].chain.len(), 2);
        assert!(cycles[0].chain[0].contains("S.a -> S.b in r::a::S::ab"));
    }

    #[test]
    fn relock_while_held_is_a_self_cycle() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); } }",
        )]);
        let cycles: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == SyncRule::LockCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", r.findings);
        assert_eq!(cycles[0].detail, "lock-order cycle: S.a");
    }

    #[test]
    fn param_type_unifies_free_fn_with_method_identity() {
        let r = run(&[(
            "r::a",
            "pub struct Queues;\n\
             impl Queues { fn pop(&self, w: usize) { let g = self.ready[w].lock(); } }\n\
             fn steal(queues: &Queues, v: usize) { let g = queues.ready[v].lock(); }",
        )]);
        assert_eq!(r.sites.len(), 2);
        assert_eq!(r.sites[0].id, "Queues.ready");
        assert_eq!(r.sites[1].id, "Queues.ready");
    }

    #[test]
    fn rwlock_read_write_only_with_empty_args() {
        let r = run(&[(
            "r::a",
            "impl S { fn f(&self) { let g = self.map.read(); } \
             fn io(&self, f: &mut F) { f.read(buf); f.write(buf); } }",
        )]);
        assert_eq!(r.sites.len(), 1, "{:?}", r.sites);
        assert_eq!(r.sites[0].method, "read");
    }
}
