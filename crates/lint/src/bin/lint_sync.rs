//! `lint-sync`: lock-discipline & atomics-protocol analyzer.
//!
//! Parses every workspace crate's library sources, builds the
//! module-resolved call graph, and runs two passes (DESIGN.md §16):
//!
//! * the **lock-order graph** (`dagfact_lint::syncgraph`) — every
//!   `Mutex`/`RwLock` acquisition classified by lock identity, edges
//!   where a guard is provably live across another acquisition
//!   (including cross-function holds, with BFS witness chains), cycles
//!   reported as potential-deadlock witnesses, plus the
//!   held-across-blocking / alloc-heavy-callee rules;
//! * the **atomics pairing pass** (`dagfact_lint::atomics`) — every
//!   Release-side write needs an Acquire-side load somewhere (and vice
//!   versa), all-Relaxed sites need `// ORDERING:` notes, and
//!   `compare_exchange` failure orderings must not out-rank the success
//!   ordering's load component.
//!
//! Findings are gated against `tools/lint-sync-baseline.json` exactly
//! like `lint-hot`: new findings fail, stale baseline keys fail (the
//! burn-down must be recorded), `--update-baseline` rewrites. The
//! machine-readable report — including the full lock graph, so the
//! before/after of a lock-removal PR is diffable — lands in
//! `results/lint-sync.json` via the shared emitter.

use dagfact_rt::{write_results, Json};
use dagfact_lint::atomics::{analyze_atomics, AtomReport};
use dagfact_lint::baseline::Baseline;
use dagfact_lint::callgraph::CallGraph;
use dagfact_lint::lex::{Comment, Token};
use dagfact_lint::parse::parse_file;
use dagfact_lint::syncgraph::{analyze, FnCtx, SyncFinding, SyncReport};
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// One parsed file's lexical context: (path, tokens, comments), shared
/// with every function the file contributes to the graph.
type FileMeta = (String, Rc<Vec<Token>>, Rc<Vec<Comment>>);

const BASELINE_PATH: &str = "tools/lint-sync-baseline.json";
const REPORT_NAME: &str = "lint-sync";

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// Module path for a library source file (same convention as lint-hot):
/// `crates/rt/src/foo/bar.rs` → `dagfact_rt::foo::bar`.
fn module_path(rel: &Path) -> Option<String> {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if comps.len() < 4 || comps[0] != "crates" || comps[2] != "src" {
        return None;
    }
    let krate = format!("dagfact_{}", comps[1].replace('-', "_"));
    let mut segs = vec![krate];
    let rest = &comps[3..];
    for (i, seg) in rest.iter().enumerate() {
        let last = i + 1 == rest.len();
        if last {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if !matches!(stem, "lib" | "main" | "mod") {
                segs.push(stem.to_string());
            }
        } else {
            segs.push(seg.to_string());
        }
    }
    Some(segs.join("::"))
}

fn finding_json(f: &SyncFinding) -> Json {
    Json::obj()
        .field("rule", f.rule.key())
        .field("file", f.file.as_str())
        .field("line", f.line)
        .field("function", f.function.as_str())
        .field("detail", f.detail.as_str())
        .field("key", f.key())
        .field("chain", f.chain.clone())
}

fn write_report(sync: &SyncReport, atoms: &AtomReport, findings: &[SyncFinding], nfiles: usize, nfns: usize) {
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
    let atom_sites: Vec<Json> = atoms
        .sites
        .iter()
        .map(|s| {
            Json::obj()
                .field("id", s.id.as_str())
                .field("op", s.op.as_str())
                .field(
                    "orders",
                    s.orders.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>(),
                )
                .field("file", s.file.as_str())
                .field("line", s.line)
                .field("function", s.function.as_str())
        })
        .collect();
    let doc = Json::obj()
        .field("lint", "lint-sync")
        .field("files", nfiles)
        .field("functions", nfns)
        .field(
            "lock_graph",
            Json::obj()
                .field("sites", Json::Arr(sites))
                .field("edges", Json::Arr(edges)),
        )
        .field("atomic_sites", Json::Arr(atom_sites))
        .field(
            "findings",
            Json::Arr(findings.iter().map(finding_json).collect()),
        );
    if let Err(e) = write_results(REPORT_NAME, &doc) {
        eprintln!("lint-sync: warning: could not write results/{REPORT_NAME}.json: {e}");
    }
}

fn main() {
    let update_baseline = std::env::args().any(|a| a == "--update-baseline");

    // Run from the workspace root regardless of invocation directory.
    if !Path::new("crates").is_dir() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            let root = Path::new(&manifest).join("../..");
            let _ = std::env::set_current_dir(root);
        }
    }

    // 1. Parse every library source in the workspace.
    let mut crate_dirs = Vec::new();
    if let Ok(entries) = std::fs::read_dir("crates") {
        for e in entries.flatten() {
            let src = e.path().join("src");
            if src.is_dir() {
                crate_dirs.push(src);
            }
        }
    }
    crate_dirs.sort();

    let mut parsed = Vec::new();
    // Per-function context, aligned with the graph's function order
    // (CallGraph::build concatenates in input order).
    let mut file_meta: Vec<FileMeta> = Vec::new();
    let mut nfiles = 0usize;
    for dir in &crate_dirs {
        let mut files = Vec::new();
        collect_rs(dir, &mut files);
        for path in files {
            let rel = path.clone();
            let Some(module) = module_path(&rel) else {
                continue;
            };
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            nfiles += 1;
            let pf = parse_file(&src, &module);
            let tokens = Rc::new(pf.tokens.clone());
            let comments = Rc::new(pf.comments.clone());
            let rel_str = rel.to_string_lossy().into_owned();
            for _ in 0..pf.functions.len() {
                file_meta.push((rel_str.clone(), tokens.clone(), comments.clone()));
            }
            parsed.push(pf);
        }
    }

    let graph = CallGraph::build(parsed);
    assert_eq!(
        graph.functions.len(),
        file_meta.len(),
        "file metadata misaligned with graph functions"
    );
    let ctx = |i: usize| -> FnCtx {
        let (file, tokens, comments) = &file_meta[i];
        FnCtx {
            file: file.clone(),
            tokens: tokens.clone(),
            comments: comments.clone(),
        }
    };

    // 2. Both passes; one merged, ordered finding list.
    let sync = analyze(&graph, &ctx);
    let atoms = analyze_atomics(&graph, &ctx);
    let mut findings: Vec<SyncFinding> = Vec::new();
    findings.extend(sync.findings.iter().cloned());
    findings.extend(atoms.findings.iter().cloned());
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.detail).cmp(&(&b.file, b.line, b.rule, &b.detail))
    });

    write_report(&sync, &atoms, &findings, nfiles, graph.functions.len());

    // 3. Gate against the baseline.
    let baseline = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(s) => match Baseline::from_json(&s) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("lint-sync: {BASELINE_PATH}: {e}");
                std::process::exit(2);
            }
        },
        Err(_) => Baseline::default(),
    };

    if update_baseline {
        let mut b = Baseline::default();
        for f in &findings {
            b.keys.insert(f.key());
        }
        if let Err(e) = std::fs::write(BASELINE_PATH, b.to_json()) {
            eprintln!("lint-sync: cannot write {BASELINE_PATH}: {e}");
            std::process::exit(2);
        }
        println!(
            "lint-sync: baseline updated — {} grandfathered finding(s) ({} files, {} fns, {} \
             lock sites, {} lock edges, {} atomic sites)",
            b.keys.len(),
            nfiles,
            graph.functions.len(),
            sync.sites.len(),
            sync.edges.len(),
            atoms.sites.len()
        );
        return;
    }

    let keys: Vec<String> = findings.iter().map(|f| f.key()).collect();
    let drift = baseline.drift(keys.iter().map(String::as_str));

    if drift.is_clean() {
        println!(
            "lint-sync: clean — {} files, {} functions; lock graph: {} sites, {} edges; {} \
             atomic sites; {} baselined finding(s), 0 new (report: results/{REPORT_NAME}.json)",
            nfiles,
            graph.functions.len(),
            sync.sites.len(),
            sync.edges.len(),
            atoms.sites.len(),
            baseline.keys.len()
        );
        return;
    }

    if !drift.new.is_empty() {
        eprintln!(
            "lint-sync: {} NEW sync-discipline violation(s) (not in {BASELINE_PATH}):",
            drift.new.len()
        );
        for f in &findings {
            if drift.new.contains(&f.key()) {
                eprintln!("\n  {}:{}: [{}] {} in {}", f.file, f.line, f.rule, f.detail, f.function);
                for link in &f.chain {
                    eprintln!("    via: {link}");
                }
            }
        }
        eprintln!(
            "\n  Fix the violation, add a justification marker (// SYNC: / // ORDERING:), or — \
             as a last resort — grandfather it:\n    cargo run -q -p dagfact-lint --bin \
             lint-sync -- --update-baseline"
        );
    }
    if !drift.stale.is_empty() {
        eprintln!(
            "\nlint-sync: {} baseline key(s) no longer fire — debt was burned down. Record the \
             win:",
            drift.stale.len()
        );
        for k in &drift.stale {
            eprintln!("  - {k}");
        }
        eprintln!(
            "  Re-baseline:\n    cargo run -q -p dagfact-lint --bin lint-sync -- --update-baseline"
        );
    }
    std::process::exit(1);
}
