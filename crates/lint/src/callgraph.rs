//! Intra-workspace call graph over [`crate::parse`] output.
//!
//! Resolution is deliberately conservative-but-useful:
//!
//! * **Path calls** resolve through the module's `use` imports, then
//!   `crate::` / `self::` / `super::` prefixes, then same-module
//!   siblings, then `Type::method` against every workspace impl of that
//!   type name.
//! * **Method calls** (`x.f()`) have no receiver types to work with, so
//!   `.f(…)` links to *every* workspace function named `f` that sits in
//!   an `impl`/`trait` block — except for a stoplist of std-common names
//!   (`new`, `push`, `lock`, `clone`, …) whose edges would drag the
//!   whole workspace into every hot path. Stoplisted operations are
//!   still visible to the purity rules directly (the rules look at raw
//!   events, not graph edges), so nothing is lost for rule coverage —
//!   only transitive reachability through, say, an unrelated `Foo::len`
//!   is suppressed.
//! * Calls that resolve to nothing in the workspace (std, closures) are
//!   simply absent from the graph; the rules judge them by name.
//!
//! Reachability is a BFS from the declared hot roots, keeping parent
//! pointers so every finding can print its witness chain
//! `root → f → g → offender`.

use crate::parse::{Event, Function, ParsedFile};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Method names too common to use as graph edges: linking `.len()` to
/// every `len` in the workspace would make everything reachable from
/// everything. The purity rules still see these calls as raw events.
pub const METHOD_STOPLIST: &[&str] = &[
    "new", "default", "len", "is_empty", "clone", "push", "pop", "insert", "remove", "get",
    "get_mut", "contains", "contains_key", "iter", "iter_mut", "into_iter", "next", "collect",
    "lock", "read", "write", "wait", "notify_one", "notify_all", "load", "store", "swap",
    "fetch_add", "fetch_sub", "compare_exchange", "compare_exchange_weak", "clear", "drain",
    "extend", "resize", "reserve", "with_capacity", "take", "replace", "as_ref", "as_mut",
    "as_slice", "as_mut_slice", "as_ptr", "as_mut_ptr", "to_vec", "to_string", "to_owned",
    "unwrap", "expect", "unwrap_or", "unwrap_or_else", "unwrap_or_default", "map", "and_then",
    "or_else", "ok", "err", "is_some", "is_none", "is_ok", "is_err", "min", "max", "abs",
    "sqrt", "send", "recv", "join", "spawn", "fmt", "eq", "ne", "cmp", "partial_cmp", "hash",
    "drop", "from", "into", "try_from", "try_into", "index", "index_mut", "deref", "deref_mut",
    "begin", "end", "record", "now", "flush", "push_back", "push_front", "pop_front",
    "pop_back", "split_at", "split_at_mut", "chunks", "chunks_mut", "windows", "first", "last",
    "sort", "sort_by", "sort_unstable", "binary_search", "position", "find", "filter", "fold",
    "sum", "product", "count", "any", "all", "zip", "enumerate", "rev", "skip", "step_by",
    "saturating_sub", "saturating_add", "checked_mul", "checked_add", "checked_sub",
    "wrapping_add", "wrapping_sub", "copy_from_slice", "clone_from_slice", "fill", "swap_remove",
    // Generic dispatch names that alias std combinators or trait hooks:
    // `bool::then` / `Option::and_then` vs `Permutation::then`, and the
    // `PtgProgram::execute` task hook, which would pull every task body
    // into the executor's reachable set. Hot implementations must be
    // declared as roots instead (see lint-hotpaths.toml).
    "then", "execute",
];

/// The whole-workspace call graph.
pub struct CallGraph {
    /// All functions, indexed by position.
    pub functions: Vec<Function>,
    /// qname → indices (duplicates possible: cfg-gated twins like the
    /// sync shim's two `mod backend`s).
    pub by_qname: HashMap<String, Vec<usize>>,
    /// Adjacency: caller index → callee indices (deduped).
    pub edges: Vec<Vec<usize>>,
}

/// A function index together with the call-site line that reached it.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    idx: usize,
}

impl CallGraph {
    /// Build the graph from parsed files. `files` pairs each parse
    /// result with its module path (already baked into the functions).
    pub fn build(files: Vec<ParsedFile>) -> CallGraph {
        let mut functions = Vec::new();
        // Merged import maps: module → alias → path.
        let mut imports: HashMap<String, HashMap<String, Vec<String>>> = HashMap::new();
        for f in files {
            functions.extend(f.functions);
            for (m, map) in f.imports {
                imports.entry(m).or_default().extend(map);
            }
        }

        let mut by_qname: HashMap<String, Vec<usize>> = HashMap::new();
        // (self_type, name) → indices, and name → indices for methods.
        let mut by_typefn: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_method: HashMap<String, Vec<usize>> = HashMap::new();
        // (module, name) → indices for free functions.
        let mut by_modfn: HashMap<(String, String), Vec<usize>> = HashMap::new();
        for (i, f) in functions.iter().enumerate() {
            by_qname.entry(f.qname.clone()).or_default().push(i);
            if let Some(t) = &f.self_type {
                by_typefn
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
                by_method.entry(f.name.clone()).or_default().push(i);
            } else {
                by_modfn
                    .entry((f.module.clone(), f.name.clone()))
                    .or_default()
                    .push(i);
            }
        }

        let empty = HashMap::new();
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); functions.len()];
        for (i, f) in functions.iter().enumerate() {
            let imp = imports.get(&f.module).unwrap_or(&empty);
            let mut out: Vec<usize> = Vec::new();
            for ev in &f.events {
                match ev {
                    Event::Call { path, .. } => {
                        for r in resolve_path(
                            path, f, imp, &by_qname, &by_typefn, &by_modfn,
                        ) {
                            out.push(r.idx);
                        }
                    }
                    Event::Method { name, .. }
                        if !METHOD_STOPLIST.contains(&name.as_str()) =>
                    {
                        out.extend(by_method.get(name).into_iter().flatten().copied());
                    }
                    _ => {}
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&j| j != i); // self-loops add nothing
            edges[i] = out;
        }

        CallGraph {
            functions,
            by_qname,
            edges,
        }
    }

    /// BFS from `roots` (function indices). Returns, for each reached
    /// function, the index it was first reached from (roots map to
    /// themselves).
    pub fn reach(&self, roots: &[usize]) -> HashMap<usize, usize> {
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut q = VecDeque::new();
        for &r in roots {
            if let Entry::Vacant(e) = parent.entry(r) {
                e.insert(r);
                q.push_back(r);
            }
        }
        while let Some(i) = q.pop_front() {
            for &j in &self.edges[i] {
                if let Entry::Vacant(e) = parent.entry(j) {
                    e.insert(i);
                    q.push_back(j);
                }
            }
        }
        parent
    }

    /// Witness chain `root → … → idx` as qnames, using `parent` from
    /// [`Self::reach`].
    pub fn witness(&self, parent: &HashMap<usize, usize>, mut idx: usize) -> Vec<String> {
        let mut chain = vec![self.functions[idx].qname.clone()];
        let mut guard = 0usize;
        while let Some(&p) = parent.get(&idx) {
            if p == idx || guard > self.functions.len() {
                break;
            }
            chain.push(self.functions[p].qname.clone());
            idx = p;
            guard += 1;
        }
        chain.reverse();
        chain
    }
}

fn resolve_path(
    path: &[String],
    caller: &Function,
    imports: &HashMap<String, Vec<String>>,
    by_qname: &HashMap<String, Vec<usize>>,
    by_typefn: &HashMap<(String, String), Vec<usize>>,
    by_modfn: &HashMap<(String, String), Vec<usize>>,
) -> Vec<Resolved> {
    let mut out = Vec::new();
    if path.is_empty() {
        return out;
    }
    let crate_root = caller
        .module
        .split("::")
        .next()
        .unwrap_or(&caller.module)
        .to_string();

    // Expand the leading segment through imports / crate / self / super /
    // Self into absolute candidate paths.
    let mut candidates: Vec<Vec<String>> = Vec::new();
    let head = path[0].as_str();
    match head {
        "crate" => {
            let mut p = vec![crate_root.clone()];
            p.extend(path[1..].iter().cloned());
            candidates.push(p);
        }
        "self" => {
            let mut p: Vec<String> = caller.module.split("::").map(str::to_string).collect();
            p.extend(path[1..].iter().cloned());
            candidates.push(p);
        }
        "super" => {
            let mut segs: Vec<String> = caller.module.split("::").map(str::to_string).collect();
            let mut rest = path;
            while rest.first().map(String::as_str) == Some("super") {
                segs.pop();
                rest = &rest[1..];
            }
            segs.extend(rest.iter().cloned());
            candidates.push(segs);
        }
        "Self" => {
            if let Some(t) = &caller.self_type {
                let mut p: Vec<String> =
                    caller.module.split("::").map(str::to_string).collect();
                p.push(t.clone());
                p.extend(path[1..].iter().cloned());
                candidates.push(p);
            }
        }
        _ => {
            if let Some(full) = imports.get(head) {
                let mut p = full.clone();
                p.extend(path[1..].iter().cloned());
                // The imported path itself may start with crate/self/super.
                match p.first().map(String::as_str) {
                    Some("crate") => {
                        let mut q = vec![crate_root.clone()];
                        q.extend(p[1..].iter().cloned());
                        candidates.push(q);
                    }
                    Some("self") => {
                        let mut q: Vec<String> =
                            caller.module.split("::").map(str::to_string).collect();
                        q.extend(p[1..].iter().cloned());
                        candidates.push(q);
                    }
                    _ => candidates.push(p),
                }
            }
            // Same-module sibling: `helper(…)`.
            if path.len() == 1 {
                if let Some(v) = by_modfn.get(&(caller.module.clone(), path[0].clone())) {
                    out.extend(v.iter().map(|&idx| Resolved { idx }));
                }
            }
            // Unqualified absolute (dagfact_x::…) or module-relative.
            let mut p: Vec<String> = caller.module.split("::").map(str::to_string).collect();
            p.extend(path.iter().cloned());
            candidates.push(p);
            candidates.push(path.to_vec());
        }
    }

    for cand in &candidates {
        let q = cand.join("::");
        if let Some(v) = by_qname.get(&q) {
            out.extend(v.iter().map(|&idx| Resolved { idx }));
        }
    }

    // `Type::method(…)` — last two segments against every workspace impl
    // of a type with that name (path qualifiers may not match module
    // layout, e.g. re-exports).
    if out.is_empty() && path.len() >= 2 {
        let ty = &path[path.len() - 2];
        let name = &path[path.len() - 1];
        if ty.chars().next().is_some_and(char::is_uppercase) {
            if let Some(v) = by_typefn.get(&(ty.clone(), name.clone())) {
                out.extend(v.iter().map(|&idx| Resolved { idx }));
            }
        }
    }

    out.sort_unstable_by_key(|r| r.idx);
    out.dedup_by_key(|r| r.idx);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(
            files
                .iter()
                .map(|(module, src)| parse_file(src, module))
                .collect(),
        )
    }

    fn idx(g: &CallGraph, qname: &str) -> usize {
        g.by_qname[qname][0]
    }

    #[test]
    fn same_module_sibling_call() {
        let g = graph(&[("c::m", "fn a() { b(); } fn b() {}")]);
        let (a, b) = (idx(&g, "c::m::a"), idx(&g, "c::m::b"));
        assert!(g.edges[a].contains(&b));
    }

    #[test]
    fn cross_module_via_import() {
        let g = graph(&[
            ("c::x", "use crate::y::helper; fn a() { helper(); }"),
            ("c::y", "pub fn helper() {}"),
        ]);
        assert!(g.edges[idx(&g, "c::x::a")].contains(&idx(&g, "c::y::helper")));
    }

    #[test]
    fn crate_prefixed_path_call() {
        let g = graph(&[
            ("c::x", "fn a() { crate::y::helper(); }"),
            ("c::y", "pub fn helper() {}"),
        ]);
        assert!(g.edges[idx(&g, "c::x::a")].contains(&idx(&g, "c::y::helper")));
    }

    #[test]
    fn super_prefixed_path_call() {
        let g = graph(&[
            ("c::x::inner", "fn a() { super::helper(); }"),
            ("c::x", "pub fn helper() {}"),
        ]);
        assert!(g.edges[idx(&g, "c::x::inner::a")].contains(&idx(&g, "c::x::helper")));
    }

    #[test]
    fn type_method_call_resolves_across_modules() {
        let g = graph(&[
            ("c::x", "fn a() { Panel::pack(p); }"),
            ("c::y", "impl Panel { pub fn pack(&self) {} }"),
        ]);
        assert!(g.edges[idx(&g, "c::x::a")].contains(&idx(&g, "c::y::Panel::pack")));
    }

    #[test]
    fn self_method_call_within_impl() {
        let g = graph(&[(
            "c::m",
            "impl S { fn a(&self) { self.helper_step(); } fn helper_step(&self) {} }",
        )]);
        assert!(g.edges[idx(&g, "c::m::S::a")].contains(&idx(&g, "c::m::S::helper_step")));
    }

    #[test]
    fn stoplisted_method_names_do_not_create_edges() {
        let g = graph(&[
            ("c::x", "fn a() { v.push(1); }"),
            ("c::y", "impl Q { pub fn push(&self, x: u8) {} }"),
        ]);
        assert!(g.edges[idx(&g, "c::x::a")].is_empty());
    }

    #[test]
    fn reach_and_witness_chain() {
        let g = graph(&[(
            "c::m",
            "fn root() { mid(); } fn mid() { leaf(); } fn leaf() {} fn unrelated() {}",
        )]);
        let r = idx(&g, "c::m::root");
        let parent = g.reach(&[r]);
        let leaf = idx(&g, "c::m::leaf");
        assert!(parent.contains_key(&leaf));
        assert!(!parent.contains_key(&idx(&g, "c::m::unrelated")));
        assert_eq!(
            g.witness(&parent, leaf),
            vec!["c::m::root", "c::m::mid", "c::m::leaf"]
        );
    }

    #[test]
    fn duplicate_qnames_both_reachable() {
        // cfg-gated twin modules (like the sync shim backends) produce
        // duplicate qnames; both bodies must be analyzed.
        let g = graph(&[(
            "c::m",
            "mod backend { pub fn go() { one(); } fn one() {} }\n\
             mod backend { pub fn go() { two(); } fn two() {} }",
        )]);
        assert_eq!(g.by_qname["c::m::backend::go"].len(), 2);
        let roots = g.by_qname["c::m::backend::go"].clone();
        let parent = g.reach(&roots);
        assert!(parent.contains_key(&idx(&g, "c::m::backend::one")));
        assert!(parent.contains_key(&idx(&g, "c::m::backend::two")));
    }

    #[test]
    fn self_type_assoc_call() {
        let g = graph(&[(
            "c::m",
            "impl S { fn a() { Self::b(); } fn b() {} }",
        )]);
        assert!(g.edges[idx(&g, "c::m::S::a")].contains(&idx(&g, "c::m::S::b")));
    }
}
