//! Fixture corpus for the hot-path purity analyzer (DESIGN.md §13).
//!
//! Each case is a small source snippet with a known-positive or
//! known-negative outcome per rule, checked against golden findings
//! (rule, detail, witness chain, key) through the public pipeline the
//! `lint` binary runs: `Workspace::parse` → `check_hot_paths`. The last
//! case runs the binary itself on a fixture workspace.

use dagfact_lint::config::parse_hotpaths;
use dagfact_lint::hotpath::{check_hot_paths, HotFinding, HotRule};
use dagfact_lint::Workspace;
use std::path::Path;
use std::process::Command;

/// Run the analyzer over a set of `(module, source)` fixture files with
/// one hot root.
fn analyze(files: &[(&str, &str)], root: &str) -> Vec<HotFinding> {
    let ws = Workspace::parse(
        files
            .iter()
            .enumerate()
            .map(|(i, (m, s))| (format!("fixture{i}.rs"), *m, *s)),
    );
    let roots = ws.graph.by_qname.get(root).unwrap_or_else(|| {
        panic!("fixture root {root} did not resolve; known: {:?}", {
            let mut k: Vec<_> = ws.graph.by_qname.keys().collect();
            k.sort();
            k
        })
    });
    check_hot_paths(&ws.graph, roots, &ws.ctxs)
}

fn golden(findings: &[HotFinding]) -> Vec<(HotRule, String)> {
    findings
        .iter()
        .map(|f| (f.rule, f.detail.clone()))
        .collect()
}

// --- rule: allocation ----------------------------------------------------

#[test]
fn alloc_positive_ctor_method_macro_clone() {
    let f = analyze(
        &[(
            "k::gemm",
            "pub fn hot() {\n\
             \x20 let v = Vec::with_capacity(8);\n\
             \x20 v.push(1);\n\
             \x20 let w = vec![0; 4];\n\
             \x20 let x = w.clone();\n\
             }",
        )],
        "k::gemm::hot",
    );
    assert_eq!(
        golden(&f),
        vec![
            (HotRule::Alloc, "Vec::with_capacity".into()),
            (HotRule::Alloc, ".push()".into()),
            (HotRule::Alloc, "vec!".into()),
            (HotRule::Alloc, ".clone()".into()),
        ]
    );
    // Keys are line-free and stable.
    assert_eq!(f[0].key(), "alloc|k::gemm::hot|Vec::with_capacity");
}

#[test]
fn alloc_negative_marker_and_iterators() {
    let f = analyze(
        &[(
            "k::gemm",
            "pub fn hot(dst: &mut [f64], src: &[f64]) {\n\
             \x20 // ALLOC: pooled at spawn; amortized to zero per task.\n\
             \x20 buf.push(1);\n\
             \x20 for (d, s) in dst.iter_mut().zip(src.iter()) { *d += *s; }\n\
             }",
        )],
        "k::gemm::hot",
    );
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

// --- rule: locks ---------------------------------------------------------

#[test]
fn lock_positive_mutex_rwlock_condvar() {
    let f = analyze(
        &[(
            "r::native",
            "pub fn hot() { q.lock(); s.read(); s.write(); cv.wait(g); }",
        )],
        "r::native::hot",
    );
    assert_eq!(
        golden(&f),
        vec![
            (HotRule::Lock, ".lock()".into()),
            (HotRule::Lock, ".read()".into()),
            (HotRule::Lock, ".write()".into()),
            (HotRule::Lock, ".wait()".into()),
        ]
    );
}

#[test]
fn lock_negative_justified_protocol() {
    let f = analyze(
        &[(
            "r::native",
            "pub fn hot() {\n\
             \x20 // LOCK: owner/thief deque protocol, model-checked.\n\
             \x20 q.lock();\n\
             }",
        )],
        "r::native::hot",
    );
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

// --- rule: panic sites ---------------------------------------------------

#[test]
fn panic_marker_silences_explicit_checks() {
    // An assert!/panic!/unreachable! is safety code: `// PANIC:` names
    // the precondition it checks, and the check stays.
    let f = analyze(
        &[(
            "r::ptg",
            "pub fn hot(n: usize) {\n\
             \x20 // PANIC: n is the caller's shape contract.\n\
             \x20 assert!(n > 0);\n\
             \x20 if n == 1 { panic!(\"invariant\"); }\n\
             \x20 unreachable!();\n\
             }",
        )],
        "r::ptg::hot",
    );
    assert!(f.is_empty(), "expected clean, got {f:?}");
    // Only PANIC: does: another rule's marker leaves the check flagged.
    let f = analyze(
        &[(
            "r::ptg",
            "pub fn hot() {\n  // BOUNDS: not a precondition.\n  assert!(c);\n}",
        )],
        "r::ptg::hot",
    );
    assert_eq!(golden(&f), vec![(HotRule::Panic, "assert!".into())]);
}

#[test]
fn panic_negative_debug_assert_is_free() {
    let f = analyze(
        &[(
            "r::ptg",
            "pub fn hot(i: usize, n: usize) { debug_assert!(i < n); debug_assert_eq!(n % 2, 0); }",
        )],
        "r::ptg::hot",
    );
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

// --- rule: slice indexing ------------------------------------------------

#[test]
fn index_positive_and_bounds_negative() {
    let f = analyze(
        &[(
            "k::trsm",
            "pub fn hot(a: &[f64], i: usize) -> f64 { a[i] }\n\
             pub fn safe(a: &[f64], i: usize) -> f64 {\n\
             \x20 // BOUNDS: i < a.len() by the caller's panel contract.\n\
             \x20 a[i]\n\
             }",
        )],
        "k::trsm::hot",
    );
    assert_eq!(golden(&f), vec![(HotRule::Index, "slice indexing".into())]);
    let f = analyze(
        &[(
            "k::trsm",
            "pub fn hot(a: &[f64], i: usize) -> f64 {\n\
             \x20 // BOUNDS: i < a.len() by the caller's panel contract.\n\
             \x20 a[i]\n\
             }",
        )],
        "k::trsm::hot",
    );
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

// --- rule: tracing -------------------------------------------------------

#[test]
fn trace_positive_recorder_negative_lane_wrappers() {
    let f = analyze(
        &[(
            "r::native",
            "pub fn hot(rec: &TraceRecorder) { rec.merge_lane(l); lane.record(span); }",
        )],
        "r::native::hot",
    );
    // merge_lane is TraceRecorder-unique; .record() is the sanctioned
    // detached-check Lane wrapper and stays silent.
    assert_eq!(golden(&f), vec![(HotRule::Trace, ".merge_lane()".into())]);
}

#[test]
fn trace_negative_inside_trace_module() {
    let f = analyze(
        &[("r::trace", "pub fn hot(r: &mut R) { r.merge_lane(l); }")],
        "r::trace::hot",
    );
    assert!(f.is_empty(), "the trace module implements the recorder");
}

// --- call-graph resolution across fixture files --------------------------

#[test]
fn cross_file_resolution_carries_witness_chain() {
    let f = analyze(
        &[
            (
                "r::native",
                "use crate::queue::Ready;\n\
                 pub fn run() { step(); }\n\
                 fn step() { crate::queue::grab(); }",
            ),
            (
                "r::queue",
                "pub struct Ready;\n\
                 pub fn grab() { Ready::refill(); }\n\
                 impl Ready { fn refill() { let v: Vec<u8> = Vec::new(); } }",
            ),
        ],
        "r::native::run",
    );
    assert_eq!(golden(&f), vec![(HotRule::Alloc, "Vec::new".into())]);
    assert_eq!(
        f[0].chain,
        vec![
            "r::native::run",
            "r::native::step",
            "r::queue::grab",
            "r::queue::Ready::refill",
        ]
    );
}

#[test]
fn unreachable_violations_stay_silent() {
    let f = analyze(
        &[(
            "r::native",
            "pub fn hot() {}\n\
             pub fn cold() { v.push(1); q.lock(); x.unwrap(); }",
        )],
        "r::native::hot",
    );
    assert!(f.is_empty(), "cold() is not reachable from hot()");
}

#[test]
fn cfg_test_modules_are_invisible() {
    let f = analyze(
        &[(
            "r::native",
            "pub fn hot() {}\n\
             #[cfg(test)]\n\
             mod tests { pub fn hot() { v.push(1); } }",
        )],
        "r::native::hot",
    );
    assert!(f.is_empty(), "test-only twin must not shadow the hot fn");
}

// --- calls through type parameters ---------------------------------------

#[test]
fn call_through_a_type_parameter_reaches_every_impl() {
    let f = analyze(
        &[
            (
                "k::tile",
                "pub trait Lanes { fn fmadd(); }\n\
                 pub fn hot<Elem: Copy, Wide: Lanes>() { Wide::fmadd(); }",
            ),
            (
                "k::x86",
                "pub struct Zmm;\n\
                 impl Lanes for Zmm { fn fmadd() { let v = Vec::with_capacity(8); } }",
            ),
        ],
        "k::tile::hot",
    );
    assert_eq!(golden(&f), vec![(HotRule::Alloc, "Vec::with_capacity".into())]);
    assert_eq!(f[0].chain, vec!["k::tile::hot", "k::x86::Zmm::fmadd"]);
}

#[test]
fn impl_type_parameters_are_in_scope_and_other_paths_are_not_parameters() {
    let src = "pub struct Tile<W>(W);\n\
               impl<'a, W: Lanes, const N: usize> Tile<W> { pub fn run(&self) { W::grow(); } }\n\
               pub fn hot(t: &Tile<u8>) { t.run(); }\n\
               pub fn cold() { Q::grow(); }\n\
               pub struct Buf;\n\
               impl Lanes for Buf { fn grow() { v.push(1); } }";
    let f = analyze(&[("k::m", src)], "k::m::hot");
    assert_eq!(golden(&f), vec![(HotRule::Alloc, ".push()".into())]);
    assert_eq!(f[0].chain, vec!["k::m::hot", "k::m::Tile::run", "k::m::Buf::grow"]);
    // `Q` is no type parameter of `cold`: its path resolves like any
    // other, to nothing here.
    assert!(analyze(&[("k::m", src)], "k::m::cold").is_empty());
}

// --- workspace macros ----------------------------------------------------

#[test]
fn a_function_a_macro_defines_fails_where_a_hot_root_calls_it() {
    let f = analyze(
        &[(
            "k::update",
            "macro_rules! entry {\n\
             \x20 ($name:ident, $ty:ty) => {\n\
             \x20   pub fn $name(n: usize) -> Vec<$ty> { Vec::with_capacity(n) }\n\
             \x20 };\n\
             }\n\
             entry!(planted, f64);\n\
             pub fn update_via_buffer() { planted(4); }",
        )],
        "k::update::update_via_buffer",
    );
    assert_eq!(golden(&f), vec![(HotRule::Macro, "`entry!` is a workspace macro".into())]);
    assert_eq!(f[0].chain, vec!["k::update::update_via_buffer", "k::update::planted"]);
    assert_eq!(f[0].line, 6, "the finding points at the invocation");
}

#[test]
fn a_workspace_macro_fails_a_hot_root_with_no_marker() {
    let src = "macro_rules! ops { () => { pub fn second() {} }; }\n\
               macro_rules! grow { ($v:expr) => { $v.push(1) }; }\n\
               ops!();\n\
               pub fn hot() { second(); }\n\
               pub fn expr() {\n\
               \x20 // ALLOC: no marker lets a workspace macro through.\n\
               \x20 grow!(buf);\n\
               }";
    let f = analyze(&[("k::m", src)], "k::m::hot");
    assert_eq!(golden(&f), vec![(HotRule::Macro, "`ops!` is a workspace macro".into())]);
    assert_eq!((f[0].line, f[0].function.as_str()), (3, "k::m::second"));
    let f = analyze(&[("k::m", src)], "k::m::expr");
    assert_eq!(golden(&f), vec![(HotRule::Macro, "`grow!` is a workspace macro".into())]);
    assert_eq!(f[0].line, 7);
}

// --- the real workspace --------------------------------------------------

#[test]
fn the_hot_roots_reach_the_register_tile_and_the_task_bodies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root);
    let toml = std::fs::read_to_string(root.join("lint-hotpaths.toml")).unwrap();
    let roots: Vec<usize> = parse_hotpaths(&toml)
        .unwrap()
        .iter()
        .flat_map(|r| ws.graph.by_qname[&r.path].clone())
        .collect();
    let reached = ws.graph.reach(&roots);
    for qname in [
        "dagfact_kernels::simd::x86::Zmm::fmadd",
        "dagfact_kernels::simd::x86::Ymm::fmadd",
        "dagfact_kernels::simd::x86::halves",
        "dagfact_core::numeric::NumericCtx::panel_task",
        "dagfact_core::numeric::NumericCtx::update_task",
    ] {
        let idx = ws.graph.by_qname.get(qname).unwrap_or_else(|| panic!("{qname} not parsed"));
        assert!(idx.iter().any(|i| reached.contains_key(i)), "{qname} is not reachable");
    }
    assert!(check_hot_paths(&ws.graph, &roots, &ws.ctxs).is_empty());
}

// --- hot-roots config ----------------------------------------------------

#[test]
fn hotpaths_config_roundtrip_and_errors() {
    let roots = parse_hotpaths(
        "# comment\n[[root]]\npath = \"a::b::c\"\nnote = \"why\"\n\n[[root]]\npath = \"d::e\"\n",
    )
    .expect("valid config");
    assert_eq!(roots.len(), 2);
    assert_eq!(roots[0].path, "a::b::c");
    assert!(parse_hotpaths("[[root]]\npath = \"\"\n").is_err());
    assert!(parse_hotpaths("[[root]]\nmystery = true\n").is_err());
}

// --- the driver ----------------------------------------------------------

#[test]
fn one_finding_fails_the_gate_with_no_way_to_grandfather_it() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-driver-fixture");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/fx/src")).unwrap();
    std::fs::create_dir_all(root.join("tools")).unwrap();
    let write = |rel: &str, text: &str| std::fs::write(root.join(rel), text).unwrap();
    write(
        "lint-hotpaths.toml",
        "[[root]]\npath = \"dagfact_fx::hot\"\n",
    );
    write(
        "crates/fx/src/lib.rs",
        &format!("{DENIES}pub fn hot() {{ let v = Vec::with_capacity(8); }}\n"),
    );
    // What the deleted ledger used to accept: the finding's key on file.
    write(
        "tools/lint-hot-baseline.json",
        "{\"version\": 1, \"keys\": [\"alloc|dagfact_fx::hot|Vec::with_capacity\"]}",
    );
    let lint = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_lint"))
            .args(args)
            .current_dir(&root)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (code, stderr) = lint(&[]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("[alloc] Vec::with_capacity in dagfact_fx::hot"),
        "{stderr}"
    );
    let report = std::fs::read_to_string(root.join("results/lint-hot.json")).unwrap();
    assert!(
        report.contains("\"key\": \"alloc|dagfact_fx::hot|Vec::with_capacity\""),
        "{report}"
    );
    // No flag accepts it: the binary takes no arguments at all.
    assert_eq!(lint(&["--grandfather"]).0, Some(2));
    assert_eq!(lint(&[]).0, Some(1));

    // The way through is the fix or its justification, in place.
    write(
        "crates/fx/src/lib.rs",
        &format!("{DENIES}pub fn hot() {{\n  // ALLOC: once per run.\n  let v = Vec::with_capacity(8);\n}}\n"),
    );
    let (code, stderr) = lint(&[]);
    assert_eq!(code, Some(0), "{stderr}");
}

/// The crate-root lines that put a crate under clippy's no-unwrap and
/// no-I/O rules.
const DENIES: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]\n\
    #![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]\n";

/// Run the `lint` binary on a fixture workspace: a hot root in crate `fx`
/// (whose root denies) calling into crate `gx`, whose root is `gx_root`.
fn lint_with_callee_root(name: &str, gx_root: &str) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&root);
    for krate in ["fx", "gx"] {
        std::fs::create_dir_all(root.join("crates").join(krate).join("src")).unwrap();
    }
    let write = |rel: &str, text: &str| std::fs::write(root.join(rel), text).unwrap();
    write("lint-hotpaths.toml", "[[root]]\npath = \"dagfact_fx::hot\"\n");
    write("crates/fx/src/lib.rs", &format!("{DENIES}pub fn hot() {{ dagfact_gx::helper(); }}\n"));
    write("crates/gx/src/lib.rs", &format!("{gx_root}pub fn helper() {{}}\n"));
    let out = Command::new(env!("CARGO_BIN_EXE_lint")).current_dir(&root).output().unwrap();
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

/// A crate a hot root reaches is under clippy's no-unwrap and no-I/O
/// rules only if its root denies them: without the two lines the gate
/// fails at the reached function, with them it passes.
#[test]
fn a_reached_crate_must_deny_unwraps_and_io_at_its_root() {
    let (code, stderr) = lint_with_callee_root("lint-deny-missing", "");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("[deny] crate `dagfact_gx` is reached"), "{stderr}");
    assert!(stderr.contains("dagfact_fx::hot -> dagfact_gx::helper"), "{stderr}");
    // One of the two lines is not enough.
    let half = DENIES.lines().next().unwrap();
    assert_eq!(lint_with_callee_root("lint-deny-half", half).0, Some(1));
    let (code, stderr) = lint_with_callee_root("lint-deny-present", DENIES);
    assert_eq!(code, Some(0), "{stderr}");
}
