//! Atomics-protocol pass (DESIGN.md §16): orderings must pair.
//!
//! Scans every function body for atomic operations carrying literal
//! `Ordering::…` arguments, classifies each site by the same identity
//! scheme as the lock analyzer (`Supervisor.poisoned`,
//! `CancelToken.fired`, upper-case statics), and checks the protocol
//! workspace-wide:
//!
//! * **Pairing** — a group with Release-side stores/RMWs but no
//!   Acquire-side load anywhere publishes nothing (its writes are never
//!   observed with a happens-before edge); a group with Acquire loads
//!   but no Release-side writer acquires nothing. Both directions are
//!   findings. `AcqRel`/`SeqCst` RMWs count on both sides.
//! * **Relaxed justification** — a site whose *strongest* ordering is
//!   `Relaxed` must carry an `// ORDERING:` note within the window
//!   (scoped to the op and its identity, not to a source line).
//! * **compare_exchange failure orderings** — the failure ordering must
//!   not be stronger than the success ordering's load component
//!   (`compare_exchange(_, _, Release, Acquire)` smuggles an acquire in
//!   through the failure path; say so with the success ordering
//!   instead).
//!
//! Sites whose identity cannot be resolved to a `Type.field` path or a
//! `SCREAMING_CASE` static (locals, loop variables, pass-through
//! helpers with ordering *variables*) are excluded from pairing — a
//! false merge would hide real findings — but still checked by the
//! site-local rules.

use crate::callgraph::CallGraph;
use crate::lex::Tok;
use crate::parse::Function;
use crate::syncgraph::{
    lock_identity, module_exempt, param_types, receiver_chain, sync_marked, FnCtx, SyncFinding,
    SyncRule,
};
use std::collections::BTreeMap;

/// Atomic methods the pass understands.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_nand",
    "fetch_update",
];

/// Memory orderings, weakest to strongest (for the strength compare).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Order {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst`.
    SeqCst,
}

impl Order {
    fn parse(s: &str) -> Option<Order> {
        Some(match s {
            "Relaxed" => Order::Relaxed,
            "Release" => Order::Release,
            "Acquire" => Order::Acquire,
            "AcqRel" => Order::AcqRel,
            "SeqCst" => Order::SeqCst,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Order::Relaxed => "Relaxed",
            Order::Release => "Release",
            Order::Acquire => "Acquire",
            Order::AcqRel => "AcqRel",
            Order::SeqCst => "SeqCst",
        }
    }

    /// Does this ordering include an acquire edge on a load/RMW?
    fn acquires(self) -> bool {
        matches!(self, Order::Acquire | Order::AcqRel | Order::SeqCst)
    }

    /// Does this ordering include a release edge on a store/RMW?
    fn releases(self) -> bool {
        matches!(self, Order::Release | Order::AcqRel | Order::SeqCst)
    }

    /// Strength of the load component of a *success* ordering
    /// (`Release` success performs a relaxed load).
    fn load_strength(self) -> u8 {
        match self {
            Order::Relaxed | Order::Release => 0,
            Order::Acquire | Order::AcqRel => 1,
            Order::SeqCst => 2,
        }
    }

    /// Strength as a cx *failure* ordering.
    fn failure_strength(self) -> u8 {
        match self {
            Order::Relaxed | Order::Release => 0,
            Order::Acquire | Order::AcqRel => 1,
            Order::SeqCst => 2,
        }
    }
}

/// One atomic operation site with literal orderings.
#[derive(Debug, Clone)]
pub struct AtomSite {
    /// Identity (same scheme as lock identities).
    pub id: String,
    /// Operation name (`load`, `store`, `fetch_add`, …).
    pub op: String,
    /// Literal orderings, in argument order.
    pub orders: Vec<Order>,
    /// Source file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Containing function.
    pub function: String,
}

impl AtomSite {
    fn is_cx(&self) -> bool {
        self.op.starts_with("compare_exchange") || self.op == "fetch_update"
    }

    fn is_load(&self) -> bool {
        self.op == "load"
    }

    fn is_store(&self) -> bool {
        self.op == "store"
    }

    /// The success/primary ordering.
    fn primary(&self) -> Order {
        if self.is_cx() && self.orders.len() >= 2 {
            self.orders[self.orders.len() - 2]
        } else {
            *self.orders.first().unwrap_or(&Order::SeqCst)
        }
    }

    /// The cx failure ordering, if present.
    fn failure(&self) -> Option<Order> {
        if self.is_cx() && self.orders.len() >= 2 {
            self.orders.last().copied()
        } else {
            None
        }
    }

    /// Does the site perform an acquiring load?
    fn acquire_side(&self) -> bool {
        if self.is_store() {
            return false;
        }
        if self.is_load() {
            return self.primary().acquires();
        }
        // RMW: the load half acquires under Acquire/AcqRel/SeqCst; a cx
        // failure ordering can acquire too.
        self.primary().acquires() || self.failure().is_some_and(|o| o.acquires())
    }

    /// Does the site perform a releasing store/RMW?
    fn release_side(&self) -> bool {
        !self.is_load() && self.primary().releases()
    }

    /// Strongest ordering anywhere at the site.
    fn strongest(&self) -> Order {
        self.orders.iter().copied().max().unwrap_or(Order::SeqCst)
    }
}

/// Is `id` precise enough to group by? (`Type.field` or an upper-case
/// static — see module docs.)
fn resolvable(id: &str) -> bool {
    let first_upper = id.chars().next().is_some_and(char::is_uppercase);
    if id.contains('.') {
        return first_upper;
    }
    first_upper && id.chars().all(|c| c.is_uppercase() || c == '_' || c.is_ascii_digit())
}

/// Extract every atomic site from one function body.
fn scan_atomics(f: &Function, ctx: &FnCtx) -> Vec<AtomSite> {
    let mut out = Vec::new();
    let toks = match ctx.tokens.get(f.body.0..f.body.1) {
        Some(t) => t,
        None => return out,
    };
    let params = param_types(&ctx.tokens, f.sig);
    let n = toks.len();
    for i in 0..n {
        let Tok::Punct('.') = toks[i].kind else {
            continue;
        };
        let Some(Tok::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) else {
            continue;
        };
        if !ATOMIC_OPS.contains(&name.as_str()) {
            continue;
        }
        if !matches!(toks.get(i + 2).map(|t| &t.kind), Some(Tok::Punct('('))) {
            continue;
        }
        // Balanced argument region.
        let open = i + 2;
        let mut depth = 0usize;
        let mut close = open;
        for (j, t) in toks.iter().enumerate().skip(open) {
            match t.kind {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let orders: Vec<Order> = toks[open + 1..close]
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Ident(s) => Order::parse(s),
                _ => None,
            })
            .collect();
        if orders.is_empty() {
            continue; // pass-through helpers with ordering variables
        }
        let chain = receiver_chain(toks, i);
        let id = lock_identity(&chain, f, &params);
        out.push(AtomSite {
            id,
            op: name.clone(),
            orders,
            file: ctx.file.clone(),
            line: toks[i + 1].line,
            function: f.qname.clone(),
        });
    }
    out
}

/// Pass output: every classified site plus the findings.
#[derive(Debug, Default)]
pub struct AtomReport {
    /// All sites with literal orderings, sorted by (file, line).
    pub sites: Vec<AtomSite>,
    /// Violations, sorted by (file, line, rule).
    pub findings: Vec<SyncFinding>,
}

/// Run the atomics-protocol pass over the whole graph; `ctxs[i]` is the
/// context of `graph.functions[i]`.
pub fn analyze_atomics(graph: &CallGraph, ctxs: &[FnCtx]) -> AtomReport {
    let mut sites: Vec<AtomSite> = Vec::new();
    for (f, c) in graph.functions.iter().zip(ctxs) {
        if !module_exempt(&f.module) {
            sites.extend(scan_atomics(f, c));
        }
    }
    let comments_of: BTreeMap<&str, &FnCtx> = graph
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.qname.as_str(), &ctxs[i]))
        .collect();
    let marked = |s: &AtomSite| {
        comments_of
            .get(s.function.as_str())
            .is_some_and(|c| sync_marked(&c.comments, s.line))
    };

    let mut findings: Vec<SyncFinding> = Vec::new();

    // Site-local rules.
    for s in &sites {
        if s.strongest() == Order::Relaxed && !marked(s) {
            findings.push(SyncFinding {
                rule: SyncRule::UnjustifiedRelaxed,
                file: s.file.clone(),
                line: s.line,
                function: s.function.clone(),
                detail: format!("`{}` {}(Relaxed) without an ORDERING: note", s.id, s.op),
                chain: vec![s.function.clone()],
            });
        }
        if let Some(fo) = s.failure() {
            if fo.failure_strength() > s.primary().load_strength() && !marked(s) {
                findings.push(SyncFinding {
                    rule: SyncRule::CxFailureOrdering,
                    file: s.file.clone(),
                    line: s.line,
                    function: s.function.clone(),
                    detail: format!(
                        "`{}` {} failure ordering {} is stronger than the success load ({})",
                        s.id,
                        s.op,
                        fo.name(),
                        s.primary().name()
                    ),
                    chain: vec![s.function.clone()],
                });
            }
        }
    }

    // Pairing rules, per resolvable identity group.
    let mut groups: BTreeMap<&str, Vec<&AtomSite>> = BTreeMap::new();
    for s in &sites {
        if resolvable(&s.id) {
            groups.entry(s.id.as_str()).or_default().push(s);
        }
    }
    for (id, group) in groups {
        let has_release = group.iter().any(|s| s.release_side());
        let has_acquire = group.iter().any(|s| s.acquire_side());
        let describe = |sel: &dyn Fn(&AtomSite) -> bool| -> Vec<String> {
            group
                .iter()
                .filter(|s| sel(s))
                .map(|s| {
                    format!(
                        "{}({}) in {} ({}:{})",
                        s.op,
                        s.orders.iter().map(|o| o.name()).collect::<Vec<_>>().join(", "),
                        s.function,
                        s.file,
                        s.line
                    )
                })
                .collect()
        };
        if has_release && !has_acquire {
            let offenders: Vec<&&AtomSite> =
                group.iter().filter(|s| s.release_side()).collect();
            if offenders.iter().all(|s| !marked(s)) {
                let first = offenders[0];
                findings.push(SyncFinding {
                    rule: SyncRule::UnpairedRelease,
                    file: first.file.clone(),
                    line: first.line,
                    function: first.function.clone(),
                    detail: format!("`{id}` has Release-side writes but no Acquire load"),
                    chain: describe(&|s| s.release_side()),
                });
            }
        }
        if has_acquire && !has_release {
            let offenders: Vec<&&AtomSite> =
                group.iter().filter(|s| s.acquire_side()).collect();
            if offenders.iter().all(|s| !marked(s)) {
                let first = offenders[0];
                findings.push(SyncFinding {
                    rule: SyncRule::UnpairedAcquire,
                    file: first.file.clone(),
                    line: first.line,
                    function: first.function.clone(),
                    detail: format!("`{id}` has Acquire loads but no Release-side write"),
                    chain: describe(&|s| s.acquire_side()),
                });
            }
        }
    }

    sites.sort_by(|a, b| (&a.file, a.line, &a.id).cmp(&(&b.file, b.line, &b.id)));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail).cmp(&(&b.file, b.line, b.rule, &b.detail))
    });
    AtomReport { sites, findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workspace;

    fn run(files: &[(&str, &str)]) -> AtomReport {
        let ws = Workspace::parse(
            files
                .iter()
                .enumerate()
                .map(|(i, (m, s))| (format!("fixture{i}.rs"), *m, *s)),
        );
        analyze_atomics(&ws.graph, &ws.ctxs)
    }

    #[test]
    fn paired_release_acquire_is_clean() {
        let r = run(&[(
            "r::a",
            "impl S { fn pub_(&self) { self.flag.store(true, Ordering::Release); } \
             fn sub(&self) -> bool { self.flag.load(Ordering::Acquire) } }",
        )]);
        assert_eq!(r.sites.len(), 2);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn unpaired_release_store_is_flagged() {
        let r = run(&[(
            "r::a",
            "impl S { fn pub_(&self) { self.flag.store(true, Ordering::Release); } \
             fn sub(&self) -> bool { self.flag.load(Ordering::Relaxed) } }",
        )]);
        // The Relaxed load carries no note either — expect both rules.
        let rules: Vec<SyncRule> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&SyncRule::UnpairedRelease), "{:?}", r.findings);
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == SyncRule::UnpairedRelease)
            .unwrap();
        assert_eq!(f.detail, "`S.flag` has Release-side writes but no Acquire load");
        assert!(f.chain[0].starts_with("store(Release) in r::a::S::pub_"));
    }

    #[test]
    fn unpaired_acquire_load_is_flagged() {
        let r = run(&[(
            "r::a",
            "impl S { fn sub(&self) -> bool { self.flag.load(Ordering::Acquire) } }",
        )]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, SyncRule::UnpairedAcquire);
    }

    #[test]
    fn acqrel_rmw_pairs_both_sides() {
        let r = run(&[(
            "r::a",
            "impl S { fn dec(&self) { self.n.fetch_sub(1, Ordering::AcqRel); } }",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn relaxed_without_note_is_flagged_and_note_suppresses() {
        let r = run(&[(
            "r::a",
            "impl S { fn count(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }",
        )]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, SyncRule::UnjustifiedRelaxed);
        assert_eq!(
            r.findings[0].detail,
            "`S.n` fetch_add(Relaxed) without an ORDERING: note"
        );
        let r = run(&[(
            "r::a",
            "impl S { fn count(&self) {\n // ORDERING: stats only; read after join.\n \
             self.n.fetch_add(1, Ordering::Relaxed); } }",
        )]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn cx_failure_stronger_than_success_load_is_flagged() {
        let r = run(&[(
            "r::a",
            "impl S { fn push(&self) { \
             self.top.compare_exchange(t, t + 1, Ordering::Release, Ordering::Acquire); } }",
        )]);
        let f: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == SyncRule::CxFailureOrdering)
            .collect();
        assert_eq!(f.len(), 1, "{:?}", r.findings);
        assert!(f[0].detail.contains("failure ordering Acquire"));
        // AcqRel success / Acquire failure: load components match.
        let r = run(&[(
            "r::a",
            "impl S { fn push(&self) { \
             self.top.compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Acquire); } }",
        )]);
        assert!(
            r.findings
                .iter()
                .all(|f| f.rule != SyncRule::CxFailureOrdering),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn unresolvable_locals_skip_pairing_but_not_local_rules() {
        let r = run(&[(
            "r::a",
            "fn f(x: &AtomicBool) { x.load(Ordering::Acquire); }",
        )]);
        // `x` → AtomicBool (bare wrapper type): excluded from pairing.
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let r = run(&[("r::a", "fn f() { n.store(0, Ordering::Relaxed); }")]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, SyncRule::UnjustifiedRelaxed);
    }

    #[test]
    fn variable_orderings_are_not_sites() {
        let r = run(&[(
            "r::a",
            "impl A { fn load(&self, order: Ordering) -> u32 { self.inner.load(order) } }",
        )]);
        assert!(r.sites.is_empty(), "{:?}", r.sites);
    }
}
