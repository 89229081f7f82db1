//! `lint-hot`: hot-path purity analyzer for the dagfact workspace.
//!
//! Parses every workspace crate's library sources, builds the
//! module-resolved intra-workspace call graph, and checks every function
//! reachable from the hot roots declared in `lint-hotpaths.toml` against
//! the purity rules (no allocation, no locks, no implicit panics, no
//! unjustified indexing, no blocking I/O, no stray tracing — see
//! `dagfact_lint::hotpath`). Each finding is reported with its witness
//! call chain from a hot root.
//!
//! Findings are gated against the committed baseline
//! `tools/lint-hot-baseline.json`:
//!
//! * findings **not** in the baseline are regressions → exit 1;
//! * baseline keys with no matching finding are burned-down debt that
//!   must be recorded → also exit 1, with the exact command to do so;
//! * `--update-baseline` rewrites the baseline to the current findings.
//!
//! A machine-readable report always lands in `results/lint-hot.json`.

use dagfact_lint::baseline::Baseline;
use dagfact_lint::callgraph::CallGraph;
use dagfact_lint::config::parse_hotpaths;
use dagfact_lint::hotpath::{check_hot_paths, HotFinding};
use dagfact_lint::lex::Comment;
use dagfact_lint::parse::parse_file;
use dagfact_rt::{write_results, Json};
use std::path::{Path, PathBuf};

const HOTPATHS_TOML: &str = "lint-hotpaths.toml";
const BASELINE_PATH: &str = "tools/lint-hot-baseline.json";
const REPORT_NAME: &str = "lint-hot";

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

/// Module path for a library source file:
/// `crates/rt/src/foo/bar.rs` → `dagfact_rt::foo::bar`;
/// `lib.rs` / `main.rs` / `mod.rs` name the enclosing module.
fn module_path(rel: &Path) -> Option<String> {
    let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    // ["crates", "<dir>", "src", ...]
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

fn write_report(findings: &[HotFinding], nfiles: usize, nfns: usize, nreach: usize) {
    let findings: Vec<Json> = findings
        .iter()
        .map(|f| {
            Json::obj()
                .field("rule", f.rule.key())
                .field("file", f.file.as_str())
                .field("line", f.line)
                .field("function", f.function.as_str())
                .field("detail", f.detail.as_str())
                .field("key", f.key())
                .field("chain", f.chain.clone())
        })
        .collect();
    let doc = Json::obj()
        .field("files", nfiles)
        .field("functions", nfns)
        .field("reachable", nreach)
        .field("findings", findings);
    if let Err(e) = write_results(REPORT_NAME, &doc) {
        eprintln!("lint-hot: warning: could not write results/{REPORT_NAME}.json: {e}");
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
    // Per-function (file, comments) lookup, aligned with the graph's
    // function order (CallGraph::build concatenates in input order).
    let mut file_meta: Vec<(String, std::rc::Rc<Vec<Comment>>)> = Vec::new();
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
            let comments = std::rc::Rc::new(pf.comments.clone());
            let rel_str = rel.to_string_lossy().into_owned();
            for _ in 0..pf.functions.len() {
                file_meta.push((rel_str.clone(), comments.clone()));
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

    // 2. Resolve the declared hot roots.
    let toml = match std::fs::read_to_string(HOTPATHS_TOML) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lint-hot: cannot read {HOTPATHS_TOML}: {e}");
            std::process::exit(2);
        }
    };
    let roots_cfg = match parse_hotpaths(&toml) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint-hot: {e}");
            std::process::exit(2);
        }
    };
    let mut roots: Vec<usize> = Vec::new();
    let mut missing = Vec::new();
    for r in &roots_cfg {
        match graph.by_qname.get(&r.path) {
            Some(v) => roots.extend(v.iter().copied()),
            None => missing.push(r.path.clone()),
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "lint-hot: {} hot root(s) in {HOTPATHS_TOML} did not resolve to any workspace \
             function (renamed or removed?):",
            missing.len()
        );
        for m in &missing {
            eprintln!("  {m}");
        }
        std::process::exit(2);
    }

    // 3. Check purity of everything reachable.
    let nreach = graph.reach(&roots).len();
    let findings = check_hot_paths(&graph, &roots, &|i| {
        let (file, comments) = &file_meta[i];
        (file.clone(), comments.as_ref().clone())
    });

    write_report(&findings, nfiles, graph.functions.len(), nreach);

    // 4. Gate against the baseline.
    let baseline = match std::fs::read_to_string(BASELINE_PATH) {
        Ok(s) => match Baseline::from_json(&s) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("lint-hot: {BASELINE_PATH}: {e}");
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
            eprintln!("lint-hot: cannot write {BASELINE_PATH}: {e}");
            std::process::exit(2);
        }
        println!(
            "lint-hot: baseline updated — {} grandfathered finding(s) ({} files, {} fns, {} \
             reachable from {} roots)",
            b.keys.len(),
            nfiles,
            graph.functions.len(),
            nreach,
            roots_cfg.len()
        );
        return;
    }

    let keys: Vec<String> = findings.iter().map(|f| f.key()).collect();
    let drift = baseline.drift(keys.iter().map(String::as_str));

    if drift.is_clean() {
        println!(
            "lint-hot: clean — {} files, {} functions, {} reachable from {} hot roots; {} \
             baselined finding(s), 0 new (report: results/{REPORT_NAME}.json)",
            nfiles,
            graph.functions.len(),
            nreach,
            roots_cfg.len(),
            baseline.keys.len()
        );
        return;
    }

    if !drift.new.is_empty() {
        eprintln!(
            "lint-hot: {} NEW hot-path purity violation(s) (not in {BASELINE_PATH}):",
            drift.new.len()
        );
        for f in &findings {
            if drift.new.contains(&f.key()) {
                eprintln!("\n  {}:{}: [{}] {} in {}", f.file, f.line, f.rule, f.detail, f.function);
                eprintln!("    via: {}", f.chain.join(" -> "));
            }
        }
        eprintln!(
            "\n  Fix the violation, add a justification marker (// ALLOC: / // LOCK: / \
             // BOUNDS: / // IO: / // TRACE: / // HOT:), or — as a last resort — \
             grandfather it:\n    cargo run -q -p dagfact-lint --bin lint-hot -- --update-baseline"
        );
    }
    if !drift.stale.is_empty() {
        eprintln!(
            "\nlint-hot: {} baseline key(s) no longer fire — debt was burned down. Record the \
             win:",
            drift.stale.len()
        );
        for k in &drift.stale {
            eprintln!("  - {k}");
        }
        eprintln!(
            "  Re-baseline:\n    cargo run -q -p dagfact-lint --bin lint-hot -- --update-baseline"
        );
    }
    std::process::exit(1);
}
