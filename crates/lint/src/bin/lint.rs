//! `lint`: the workspace's source gate (`make lint`, DESIGN.md §13/§16).
//!
//! Parses every library source once, resolves the hot roots declared in
//! `lint-hotpaths.toml`, runs the hot-path purity pass, the lock-order
//! cycle check and the Relaxed and sync-shim token checks, writes
//! `results/lint-hot.json` and `results/lint-sync.json` (the sync report
//! carries the full lock graph, so the before/after of a lock-removal PR
//! is diffable), and exits 1 on any finding. There is no ledger of
//! accepted findings: each one is fixed or justified in place by its
//! marker comment.

use dagfact_lint::config::parse_hotpaths;
use dagfact_lint::hotpath::{check_hot_paths, HotFinding};
use dagfact_lint::syncgraph::{analyze, SyncFinding, SyncReport};
use dagfact_lint::{Finding, Workspace};
use dagfact_rt::{write_results, Json};
use std::fmt;
use std::path::Path;

const HOTPATHS_TOML: &str = "lint-hotpaths.toml";

/// A configuration error: exit 2, distinct from "findings" (1).
fn fail(msg: String) -> ! {
    eprintln!("lint: {msg}");
    std::process::exit(2)
}

fn write(name: &str, doc: &Json) {
    if let Err(e) = write_results(name, doc) {
        eprintln!("lint: warning: could not write results/{name}.json: {e}");
    }
}

fn finding_json<R: fmt::Display>(f: &Finding<R>) -> Json {
    Json::obj()
        .field("rule", f.rule.to_string())
        .field("file", f.file.as_str())
        .field("line", f.line)
        .field("function", f.function.as_str())
        .field("detail", f.detail.as_str())
        .field("key", f.key())
        .field("chain", f.chain.clone())
}

/// Print `f`; the links of its chain are joined by `sep`.
fn report<R: fmt::Display>(f: &Finding<R>, sep: &str) {
    eprintln!("{}:{}: [{}] {} in {}", f.file, f.line, f.rule, f.detail, f.function);
    eprintln!("    via: {}", f.chain.join(sep));
}

fn write_hot(ws: &Workspace, nreach: usize, findings: &[HotFinding]) {
    let findings: Vec<Json> = findings.iter().map(finding_json).collect();
    let doc = Json::obj()
        .field("files", ws.nfiles)
        .field("functions", ws.graph.functions.len())
        .field("reachable", nreach)
        .field("findings", findings);
    write("lint-hot", &doc);
}

fn write_sync(ws: &Workspace, sync: &SyncReport, findings: &[SyncFinding]) {
    let sites: Vec<Json> = sync
        .sites
        .iter()
        .map(|s| {
            Json::obj()
                .field("id", s.id.as_str())
                .field("method", s.method.as_str())
                .field("file", s.file.as_str())
                .field("line", s.line)
                .field("function", s.function.as_str())
        })
        .collect();
    let edges: Vec<Json> = sync
        .edges
        .iter()
        .map(|e| {
            Json::obj()
                .field("from", e.from.as_str())
                .field("to", e.to.as_str())
                .field("function", e.function.as_str())
                .field("file", e.file.as_str())
                .field("line", e.line)
                .field("chain", e.chain.clone())
        })
        .collect();
    let findings: Vec<Json> = findings.iter().map(finding_json).collect();
    let doc = Json::obj()
        .field("lint", "lint-sync")
        .field("files", ws.nfiles)
        .field("functions", ws.graph.functions.len())
        .field(
            "lock_graph",
            Json::obj()
                .field("sites", Json::Arr(sites))
                .field("edges", Json::Arr(edges)),
        )
        .field("findings", Json::Arr(findings));
    write("lint-sync", &doc);
}

fn main() {
    if std::env::args().len() > 1 {
        fail("takes no arguments".to_string());
    }
    // Run from the workspace root regardless of invocation directory.
    if !Path::new("crates").is_dir() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let _ = std::env::set_current_dir(Path::new(&manifest).join("../.."));
        }
    }
    let ws = Workspace::load(Path::new("."));

    let toml = std::fs::read_to_string(HOTPATHS_TOML)
        .unwrap_or_else(|e| fail(format!("cannot read {HOTPATHS_TOML}: {e}")));
    let declared = parse_hotpaths(&toml).unwrap_or_else(|e| fail(e));
    let mut roots = Vec::new();
    let mut missing = Vec::new();
    for r in &declared {
        match ws.graph.by_qname.get(&r.path) {
            Some(v) => roots.extend(v.iter().copied()),
            None => missing.push(r.path.as_str()),
        }
    }
    if !missing.is_empty() {
        fail(format!(
            "hot root(s) in {HOTPATHS_TOML} resolve to no workspace function (renamed or \
             removed?): {}",
            missing.join(", ")
        ));
    }

    let nreach = ws.graph.reach(&roots).len();
    let hot = check_hot_paths(&ws.graph, &roots, &ws.ctxs);
    let sync = analyze(&ws.graph, &ws.ctxs);
    let mut findings: Vec<SyncFinding> = sync
        .findings
        .iter()
        .chain(&ws.token_findings)
        .cloned()
        .collect();
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail).cmp(&(&b.file, b.line, b.rule, &b.detail))
    });
    write_hot(&ws, nreach, &hot);
    write_sync(&ws, &sync, &findings);

    if hot.is_empty() && findings.is_empty() {
        println!(
            "lint: clean — {} files, {} functions, {} reachable from {} hot roots; lock graph: {} \
             sites, {} edges (reports: results/lint-{{hot,sync}}.json)",
            ws.nfiles,
            ws.graph.functions.len(),
            nreach,
            declared.len(),
            sync.sites.len(),
            sync.edges.len()
        );
        return;
    }
    // A hot finding's chain is one call path; a cycle's, one edge a line.
    hot.iter().for_each(|f| report(f, " -> "));
    findings.iter().for_each(|f| report(f, "\n    via: "));
    eprintln!(
        "lint: {} finding(s). Fix each, or justify it in place with its marker (// ALLOC: / \
         LOCK: / BOUNDS: / PANIC: / TRACE: / ORDERING:; a workspace macro, a crate root \
         without the denies and a lock-order cycle take none); nothing is grandfathered.",
        hot.len() + findings.len()
    );
    std::process::exit(1);
}
