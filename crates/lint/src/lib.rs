//! Source analyzers for the dagfact workspace, run as one `lint` binary
//! (`make lint`): the sources are parsed once into a module-resolved
//! call graph ([`Workspace`]), then the passes judge it —
//!
//! * hot-path purity ([`hotpath`], DESIGN.md §13) over everything
//!   reachable from the roots in `lint-hotpaths.toml`;
//! * the lock-order cycle check ([`syncgraph`], DESIGN.md §16) over
//!   every function;
//! * two token checks made while parsing (DESIGN.md §16): an atomic call
//!   whose literal orderings are all `Relaxed` carries an `// ORDERING:`
//!   note, and rt library code does not `use std::sync` — it goes
//!   through `crate::sync`, so the `--cfg loom` model backend sees every
//!   operation. The shim itself and the model checker are exempt.
//!
//! Any finding fails the gate; there is no ledger of accepted ones. The
//! line-level rules (SAFETY contracts; no `.unwrap()`/`.expect()`, console
//! or file I/O or sleeping in library code) are clippy configuration:
//! `clippy.toml` and the crates' lints; the hot-path pass checks that
//! every crate it reaches denies [`ROOT_DENIES`] at its root.

pub mod callgraph;
pub mod config;
pub mod hotpath;
pub mod lex;
pub mod parse;
pub mod syncgraph;

use callgraph::CallGraph;
use lex::{group_end, ident_at, punct_at, Comment, Tok};
use parse::{parse_file, ParsedFile};
use std::fmt;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use syncgraph::{module_exempt, receiver_chain, FnCtx, SyncFinding, SyncRule};

/// How many preceding lines a justifying comment may sit above the
/// construct it justifies (multi-line comments push the marker up).
pub const WINDOW: usize = 12;

/// Is `marker` (`"ALLOC:"`, `"ORDERING:"`, …) in a comment on `line` or
/// within the [`WINDOW`] lines above it?
pub(crate) fn marked(comments: &[Comment], line: usize, marker: &str) -> bool {
    let lo = line.saturating_sub(WINDOW);
    comments
        .iter()
        .any(|c| (lo..=line).contains(&c.line) && c.text.contains(marker))
}

/// Atomic methods: the Relaxed rule reads their ordering arguments, and
/// the call graph links no edge by their names.
pub(crate) const ATOMIC_OPS: &[&str] = &[
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

const ORDERINGS: &[&str] = &["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"];

/// The clippy lints whose `#![deny(…)]` at a crate's root put it under the
/// no-unwrap and no-I/O rules this lint does not repeat.
pub const ROOT_DENIES: &[&str] =
    &["unwrap_used", "expect_used", "print_stdout", "print_stderr", "dbg_macro", "disallowed_methods"];

/// One finding of a pass whose rules are `R`.
#[derive(Debug, Clone)]
pub struct Finding<R> {
    /// The violated rule.
    pub rule: R,
    /// Source file of the offending site.
    pub file: String,
    /// 1-based line of the offending site.
    pub line: usize,
    /// Qualified name of the function it is in.
    pub function: String,
    /// What was seen (`Vec::with_capacity`, `.lock()`, `vec!`, …).
    pub detail: String,
    /// The witness chain that makes it a finding.
    pub chain: Vec<String>,
}

impl<R: fmt::Display> Finding<R> {
    /// Line-free key (the report's `key`), stable across unrelated edits.
    pub fn key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.function, self.detail)
    }
}

/// A set of sources parsed once: the call graph every pass runs on.
pub struct Workspace {
    /// The module-resolved call graph over every parsed function.
    pub graph: CallGraph,
    /// `ctxs[i]` is the file context of `graph.functions[i]`.
    pub ctxs: Vec<FnCtx>,
    /// The token checks' findings (unjustified `Relaxed`, sync-shim
    /// bypasses), made while parsing.
    pub token_findings: Vec<SyncFinding>,
    /// Number of files parsed.
    pub nfiles: usize,
}

impl Workspace {
    /// Parse `(path, module, source)` files and build the call graph.
    pub fn parse<'a>(files: impl IntoIterator<Item = (String, &'a str, &'a str)>) -> Workspace {
        let (mut parsed, mut ctxs, mut found) = (Vec::new(), Vec::new(), Vec::new());
        let mut root_denies = std::collections::HashMap::new();
        for (file, module, src) in files {
            let mut pf = parse_file(src, module);
            if !module.contains("::") {
                *root_denies.entry(module.to_string()).or_default() |= denies_all(&pf.tokens);
            }
            if !module_exempt(module) {
                found.extend(unjustified_relaxed(&pf, &file, module));
                found.extend(shim_bypasses(&pf, &file, module));
            }
            let tokens = Rc::new(std::mem::take(&mut pf.tokens));
            let comments = Rc::new(std::mem::take(&mut pf.comments));
            ctxs.extend(pf.functions.iter().map(|_| FnCtx {
                file: file.clone(),
                tokens: tokens.clone(),
                comments: comments.clone(),
            }));
            parsed.push(pf);
        }
        let nfiles = parsed.len();
        let graph = CallGraph { root_denies, ..CallGraph::build(parsed) };
        Workspace {
            graph,
            ctxs,
            token_findings: found,
            nfiles,
        }
    }

    /// Every library source of the workspace at `root`
    /// (`crates/*/src/**/*.rs`), named relative to `root`.
    pub fn load(root: &Path) -> Workspace {
        let mut paths = Vec::new();
        for krate in std::fs::read_dir(root.join("crates")).into_iter().flatten().flatten() {
            collect_rs(&krate.path().join("src"), &mut paths);
        }
        paths.sort();
        let files: Vec<(String, String, String)> = (paths.iter())
            .filter_map(|p| {
                let rel = p.strip_prefix(root).ok()?;
                let src = std::fs::read_to_string(p).ok()?;
                Some((rel.to_string_lossy().into_owned(), module_path(rel)?, src))
            })
            .collect();
        Workspace::parse(files.iter().map(|(f, m, s)| (f.clone(), m.as_str(), s.as_str())))
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Module path of a library source: `crates/rt/src/foo/bar.rs` →
/// `dagfact_rt::foo::bar`; `lib.rs` / `main.rs` / `mod.rs` name the
/// enclosing module.
fn module_path(rel: &Path) -> Option<String> {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let ["crates", krate, "src", rest @ ..] = comps.as_slice() else {
        return None;
    };
    let mut segs = vec![format!("dagfact_{}", krate.replace('-', "_"))];
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        let seg = if last {
            seg.trim_end_matches(".rs")
        } else {
            seg
        };
        if !(last && matches!(seg, "lib" | "main" | "mod")) {
            segs.push(seg.to_string());
        }
    }
    Some(segs.join("::"))
}

/// Do the file's `#![deny(…)]` attributes name every lint of
/// [`ROOT_DENIES`]?
fn denies_all(t: &[lex::Token]) -> bool {
    let attrs = (0..t.len())
        .filter(|&i| punct_at(t, i, '#') && punct_at(t, i + 1, '!') && ident_at(t, i + 3) == Some("deny"));
    let named: Vec<&str> =
        attrs.flat_map(|i| (i + 4..group_end(t, i + 2)).filter_map(|j| ident_at(t, j))).collect();
    ROOT_DENIES.iter().all(|l| named.contains(l))
}

fn in_test(pf: &ParsedFile, i: usize) -> bool {
    pf.test_spans.iter().any(|&(a, b)| (a..b).contains(&i))
}

fn token_finding(
    rule: SyncRule,
    file: &str,
    line: usize,
    module: &str,
    detail: String,
) -> SyncFinding {
    SyncFinding {
        rule,
        file: file.to_string(),
        line,
        function: module.to_string(),
        detail,
        chain: vec![module.to_string()],
    }
}

/// `.op(…)` atomic calls outside test items whose literal orderings are
/// all `Relaxed`, with no `// ORDERING:` note within the window. A call
/// with ordering *variables* (a pass-through helper) names no literal
/// and is not a site.
fn unjustified_relaxed(pf: &ParsedFile, file: &str, module: &str) -> Vec<SyncFinding> {
    let t = &pf.tokens;
    (0..t.len())
        .filter_map(|i| {
            let op =
                ident_at(t, i + 1).filter(|op| punct_at(t, i, '.') && ATOMIC_OPS.contains(op))?;
            if !punct_at(t, i + 2, '(') || in_test(pf, i) {
                return None;
            }
            let orders: Vec<&str> = t
                .get(i + 3..group_end(t, i + 2) - 1)
                .unwrap_or_default()
                .iter()
                .filter_map(|tok| match &tok.kind {
                    Tok::Ident(s) if ORDERINGS.contains(&s.as_str()) => Some(s.as_str()),
                    _ => None,
                })
                .collect();
            let line = t[i + 1].line;
            if orders.is_empty()
                || orders.iter().any(|&o| o != "Relaxed")
                || marked(&pf.comments, line, "ORDERING:")
            {
                return None;
            }
            let receiver = receiver_chain(t, i).join(".");
            let detail = format!("`{receiver}` {op}(Relaxed) without an ORDERING: note");
            let rule = SyncRule::UnjustifiedRelaxed;
            Some(token_finding(rule, file, line, module, detail))
        })
        .collect()
}

/// `use std::sync` outside test items of an rt module (the shim and the
/// model checker are exempt with the rest of the sync checks).
fn shim_bypasses(pf: &ParsedFile, file: &str, module: &str) -> Vec<SyncFinding> {
    if !(module == "dagfact_rt" || module.starts_with("dagfact_rt::")) {
        return Vec::new();
    }
    let t = &pf.tokens;
    (0..t.len())
        .filter(|&i| {
            ident_at(t, i) == Some("use")
                && ident_at(t, i + 1) == Some("std")
                && punct_at(t, i + 2, ':')
                && punct_at(t, i + 3, ':')
                && ident_at(t, i + 4) == Some("sync")
                && !in_test(pf, i)
        })
        .map(|i| {
            let detail = "`use std::sync` bypasses the crate::sync shim".to_string();
            token_finding(SyncRule::ShimBypass, file, t[i].line, module, detail)
        })
        .collect()
}
