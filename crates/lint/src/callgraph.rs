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
//!   an `impl`/`trait` block, and so does a call `P::f(…)` through a type
//!   parameter `P` of the enclosing fn or impl (`W::fmadd` in a tile
//!   generic over its width) — except for a stoplist of std-common names
//!   (`new`, `push`, `lock`, `clone`, the atomic operations, …) whose
//!   edges would drag the whole workspace into every hot path (so the
//!   register tile's `W::load`/`W::store`/`W::swap` are not followed:
//!   they would reach `Workspace::load`). Stoplisted operations are
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
use crate::ATOMIC_OPS;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Method names too common to use as graph edges: linking `.len()` to
/// every `len` in the workspace would make everything reachable from
/// everything. The purity rules still see these calls as raw events.
pub const METHOD_STOPLIST: &[&str] = &[
    "new", "default", "len", "is_empty", "clone", "push", "pop", "insert", "remove", "get", "set",
    "get_mut", "contains", "contains_key", "iter", "iter_mut", "into_iter", "next", "collect",
    "lock", "read", "write", "wait", "notify_one", "notify_all", "clear", "drain",
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
    /// Parsed crate root → whether it denies [`crate::ROOT_DENIES`].
    pub root_denies: HashMap<String, bool>,
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
            match &f.self_type {
                Some(t) => {
                    by_typefn.entry((t.clone(), f.name.clone())).or_default().push(i);
                    by_method.entry(f.name.clone()).or_default().push(i);
                }
                None => by_modfn.entry((f.module.clone(), f.name.clone())).or_default().push(i),
            }
        }

        let empty = HashMap::new();
        // `.f(…)`, and `P::f(…)` through a type parameter `P`: every
        // impl/trait function named `f`.
        let methods = |name: &str| match METHOD_STOPLIST.contains(&name) || ATOMIC_OPS.contains(&name) {
            true => &[][..],
            false => by_method.get(name).map_or(&[][..], Vec::as_slice),
        };
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); functions.len()];
        for (i, f) in functions.iter().enumerate() {
            let imp = imports.get(&f.module).unwrap_or(&empty);
            let mut out: Vec<usize> = Vec::new();
            for ev in &f.events {
                match ev {
                    Event::Call { path, .. } if path.len() == 2 && f.generics.contains(&path[0]) => {
                        out.extend(methods(&path[1]));
                    }
                    Event::Call { path, .. } => {
                        out.extend(resolve_path(path, f, imp, &by_qname, &by_typefn, &by_modfn));
                    }
                    Event::Method { name, .. } => out.extend(methods(name)),
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
            root_denies: HashMap::new(),
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
) -> Vec<usize> {
    let Some(head) = path.first() else {
        return Vec::new();
    };
    let module: Vec<String> = caller.module.split("::").map(str::to_string).collect();
    // A path as written or imported, with its `crate` / `self` / `super`
    // prefix made absolute.
    let absolute = |p: &[String]| -> Vec<String> {
        let supers = p.iter().take_while(|s| *s == "super").count();
        match p.first().map(String::as_str) {
            Some("crate") => [&module[..1], &p[1..]].concat(),
            Some("self") => [&module[..], &p[1..]].concat(),
            Some("super") => [&module[..module.len().saturating_sub(supers)], &p[supers..]].concat(),
            _ => p.to_vec(),
        }
    };
    let mut candidates = Vec::new();
    match head.as_str() {
        "Self" => candidates.extend(
            (caller.self_type.iter()).map(|t| [&module[..], std::slice::from_ref(t), &path[1..]].concat()),
        ),
        "crate" | "self" | "super" => candidates.push(absolute(path)),
        _ => {
            if let Some(full) = imports.get(head) {
                candidates.push(absolute(&[&full[..], &path[1..]].concat()));
            }
            // Module-relative, or already absolute (`dagfact_x::…`).
            candidates.push([&module[..], path].concat());
            candidates.push(path.to_vec());
        }
    }
    let mut out: Vec<usize> = (candidates.iter())
        .filter_map(|c| by_qname.get(&c.join("::")))
        .flatten()
        .copied()
        .collect();
    // Same-module sibling: `helper(…)`.
    if path.len() == 1 {
        out.extend(by_modfn.get(&(caller.module.clone(), head.clone())).into_iter().flatten());
    }

    // `Type::method(…)` — last two segments against every workspace impl
    // of a type with that name (path qualifiers may not match module
    // layout, e.g. re-exports).
    if let [.., ty, name] = path {
        if out.is_empty() && ty.starts_with(char::is_uppercase) {
            out.extend(by_typefn.get(&(ty.clone(), name.clone())).into_iter().flatten());
        }
    }
    out.sort_unstable();
    out.dedup();
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
