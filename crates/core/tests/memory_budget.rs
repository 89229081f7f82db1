//! Memory-budgeted execution, end to end: the demand pager under a hard
//! cap (out-of-core panel spilling, counted overcommits) across every
//! runtime engine, and the solve-phase fault-back path — all while
//! the numeric results stay at full accuracy, bit for bit those of the
//! unconstrained run under every policy.

use dagfact_core::{Analysis, ExecOptions, RuntimeKind, SolverError, SolverOptions};
use dagfact_kernels::update::scratch_len;
use dagfact_rt::{MemoryBudget, RunConfig};
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, shifted_laplacian_3d};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;
use std::time::Duration;

fn berr(a: &CscMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut r = vec![0.0; b.len()];
    a.spmv(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let num = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let nx = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let nb = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    num / (a.norm_inf() * nx + nb).max(f64::MIN_POSITIVE)
}

/// Scratch directory for spilled panels, removed on drop.
struct SpillDir(std::path::PathBuf);

impl SpillDir {
    fn new(tag: &str) -> SpillDir {
        let p = std::env::temp_dir().join(format!(
            "dagfact-membudget-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&p).expect("create spill scratch dir");
        SpillDir(p)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn exec(budget: Arc<MemoryBudget>, spill: Option<&SpillDir>) -> ExecOptions {
    ExecOptions {
        run: RunConfig {
            watchdog: Some(Duration::from_secs(30)),
            budget: Some(budget),
            ..RunConfig::default()
        },
        epsilon_override: None,
        spill_dir: spill.map(|s| s.0.clone()),
    }
}

/// The Table-I proxy problems exercised here: one per factorization kind.
fn proxies() -> Vec<(&'static str, CscMatrix<f64>, FactoKind)> {
    vec![
        ("audi-proxy", grid_laplacian_3d(8, 8, 8), FactoKind::Cholesky),
        (
            "serena-proxy",
            shifted_laplacian_3d(7, 7, 7, 1.0),
            FactoKind::Ldlt,
        ),
        (
            "mhd-proxy",
            convection_diffusion_3d(7, 7, 7, 0.4),
            FactoKind::Lu,
        ),
    ]
}

// ---------------------------------------------------------------------
// The headline guarantee: a 50%-of-peak hard cap still completes, via
// the degradation ladder, at the same residual as the unconstrained run
// ---------------------------------------------------------------------

#[test]
fn half_peak_cap_completes_at_unconstrained_accuracy_on_table_i_proxies() {
    for (name, a, kind) in proxies() {
        let analysis = Analysis::new(a.pattern(), kind, &SolverOptions::default());
        let b = vec![1.0; a.nrows()];

        // Unconstrained run, with accounting on, to measure the natural
        // high-water mark. Single-threaded native so the baseline and
        // capped runs schedule identically.
        let free = exec(MemoryBudget::unbounded(), None);
        let f = analysis
            .factorize_with(&a, RuntimeKind::Native, 1, &free)
            .unwrap_or_else(|e| panic!("{name}: unconstrained run failed: {e}"));
        let mem = f.stats.run.memory.as_ref().expect("accounting was on");
        let peak = mem.peak_bytes;
        assert!(peak > 0, "{name}: ledger saw no allocations");
        let e_free = berr(&a, &f.solve(&b), &b);
        assert!(e_free <= 1e-12, "{name}: baseline backward error {e_free:.3e}");

        // Same problem under half the measured peak: the run must finish
        // by degrading (spill / overcommit), not fail.
        let dir = SpillDir::new(name);
        let capped = exec(MemoryBudget::with_cap(peak / 2), Some(&dir));
        let f = analysis
            .factorize_with(&a, RuntimeKind::Native, 1, &capped)
            .unwrap_or_else(|e| panic!("{name}: 50%-cap run failed: {e}"));
        let mem = f.stats.run.memory.as_ref().expect("accounting was on");
        assert!(
            mem.spill_events + mem.overcommit_events > 0,
            "{name}: cap {} vs peak {} triggered no degradation: {mem:?}",
            peak / 2,
            peak
        );
        let e_cap = berr(&a, &f.solve(&b), &b);
        assert!(e_cap <= 1e-12, "{name}: capped backward error {e_cap:.3e}");
        // Degradation is allowed to cost memory traffic, never accuracy:
        // both residuals sit at measurement precision.
        assert!(
            (e_cap - e_free).abs() <= 1e-12,
            "{name}: residual drifted under the cap: {e_cap:.3e} vs {e_free:.3e}"
        );
    }
}

#[test]
fn capped_runs_are_stable_across_every_engine() {
    let a = grid_laplacian_3d(8, 8, 8);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let b = vec![1.0; a.nrows()];
    let peak = natural_peak(&analysis, &a);
    for rt in RuntimeKind::ALL {
        let dir = SpillDir::new(&format!("engines-{rt:?}"));
        let capped = exec(MemoryBudget::with_cap(peak * 6 / 10), Some(&dir));
        let f = analysis
            .factorize_with(&a, rt, 4, &capped)
            .unwrap_or_else(|e| panic!("{rt:?}: capped run failed: {e}"));
        let e = berr(&a, &f.solve(&b), &b);
        assert!(e <= 1e-11, "{rt:?}: backward error {e:.3e}");
    }
}

// ---------------------------------------------------------------------
// One update kernel at every pressure: capped factors are the
// unconstrained factors, and the ledger stays under its cap
// ---------------------------------------------------------------------

/// Ledger high-water of the unconstrained single-worker native run — what
/// the caps below are fractions of.
fn natural_peak(analysis: &Analysis, a: &CscMatrix<f64>) -> usize {
    let free = exec(MemoryBudget::unbounded(), None);
    let f = analysis
        .factorize_with(a, RuntimeKind::Native, 1, &free)
        .expect("unconstrained run");
    f.stats.run.memory.as_ref().expect("accounting was on").peak_bytes
}

/// Factorize under `percent` % of `peak`, solve, and print one row of the
/// capped-run table. Returns the solution and the ledger counters.
fn capped_run(
    name: &str,
    analysis: &Analysis,
    a: &CscMatrix<f64>,
    rt: RuntimeKind,
    workers: usize,
    peak: usize,
    percent: usize,
) -> (Vec<f64>, dagfact_rt::MemoryStats) {
    let cap = peak * percent / 100;
    let dir = SpillDir::new(&format!("{name}-{rt:?}-{workers}-{percent}"));
    let capped = exec(MemoryBudget::with_cap(cap), Some(&dir));
    let f = analysis
        .factorize_with(a, rt, workers, &capped)
        .unwrap_or_else(|e| panic!("{name} {rt:?}x{workers} at {percent}%: {e}"));
    let mem = f.stats.run.memory.clone().expect("accounting was on");
    let b = vec![1.0; a.nrows()];
    let x = f.solve(&b);
    let e = berr(a, &x, &b);
    println!(
        "{name:12} {:8} x{workers} cap {percent:2}%: peak/cap {:.3}, {:3} spills, \
         {:2} overcommits, {:3} pin waits, berr {e:.1e}",
        format!("{rt:?}"),
        mem.peak_bytes as f64 / cap as f64,
        mem.spill_events,
        mem.overcommit_events,
        mem.pin_waits,
    );
    assert!(e <= 1e-12, "{name} {rt:?}x{workers} at {percent}%: backward error {e:.3e}");
    (x, mem)
}

#[test]
fn capped_factors_are_bitwise_equal_to_unconstrained() {
    for (name, a, kind) in proxies() {
        let analysis = Analysis::new(a.pattern(), kind, &SolverOptions::default());
        let peak = natural_peak(&analysis, &a);
        let b = vec![1.0; a.nrows()];
        for rt in RuntimeKind::ALL {
            for workers in [1, 4] {
                let free = exec(MemoryBudget::unbounded(), None);
                let x_free = analysis
                    .factorize_with(&a, rt, workers, &free)
                    .expect("unconstrained run")
                    .solve(&b);
                for percent in [50, 60, 90] {
                    let tag = format!("bits-{name}");
                    let (x, _) = capped_run(&tag, &analysis, &a, rt, workers, peak, percent);
                    assert!(
                        x.iter().zip(&x_free).all(|(u, v)| u.to_bits() == v.to_bits()),
                        "{name} {rt:?}x{workers} at {percent}%: capped solution differs \
                         from the unconstrained one"
                    );
                }
            }
        }
    }
}

/// The most a capped run on `workers` workers can hold when it has to
/// overcommit: the forced charge (LDLᵀ's diagonal), the workers' GEMM
/// buffers (each held at the largest update it ran, so together at most
/// the `workers` largest updates' scratch), and the largest set one task
/// acquires (an update's source and target panels, both sides for LU). A
/// task is forced over the cap only while no other task holds a set, so a
/// cap at or above this floor is never exceeded (DESIGN.md §9).
fn floor(analysis: &Analysis, workers: usize) -> usize {
    let symbol = &analysis.symbol;
    let (lu, ldlt) = (analysis.facto == FactoKind::Lu, analysis.facto == FactoKind::Ldlt);
    let elt = std::mem::size_of::<f64>();
    let panel = |c: usize| {
        let cb = &symbol.cblks[c];
        (cb.stride + if lu { cb.height_below() } else { 0 }) * cb.width() * elt
    };
    let (mut set, mut scratch) = (0, Vec::new());
    for (c, cb) in symbol.cblks.iter().enumerate() {
        set = set.max(panel(c));
        for b in &symbol.blocks[cb.block_begin + 1..cb.block_end] {
            set = set.max(panel(c) + panel(b.facing));
            scratch.push(scratch_len(cb.stride - b.local_offset, b.nrows(), cb.width(), ldlt) * elt);
        }
    }
    scratch.sort_unstable_by(|x, y| y.cmp(x));
    let buffers: usize = scratch.iter().take(workers).sum();
    let diagonal = if ldlt { symbol.n * elt } else { 0 };
    diagonal + buffers + set
}

#[test]
fn capped_ledger_stays_under_its_cap() {
    for (name, a, kind) in proxies() {
        let analysis = Analysis::new(a.pattern(), kind, &SolverOptions::default());
        let peak = natural_peak(&analysis, &a);
        for rt in RuntimeKind::ALL {
            for workers in [1, 4] {
                let floor = floor(&analysis, workers);
                for percent in [50, 60, 75, 90] {
                    let (_, mem) = capped_run(name, &analysis, &a, rt, workers, peak, percent);
                    let cap = peak * percent / 100;
                    let at = format!("{name} {rt:?}x{workers} at {percent}% (floor {floor}, cap {cap})");
                    if floor <= cap {
                        assert!(mem.overcommit_events == 0 && mem.peak_bytes <= cap, "{at}: {mem:?}");
                    } else {
                        assert!(mem.peak_bytes <= floor, "{at}: peak over the floor: {mem:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn spill_directory_appears_with_the_first_eviction() {
    let a = grid_laplacian_3d(8, 8, 8);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let peak = natural_peak(&analysis, &a);
    let entries = |dir: &SpillDir| std::fs::read_dir(&dir.0).expect("scratch dir").count();
    // A cap that never binds: lazy panels, but nothing is ever evicted.
    let roomy = SpillDir::new("lazy-dir-roomy");
    let opts = exec(MemoryBudget::with_cap(1 << 40), Some(&roomy));
    let f = analysis
        .factorize_with(&a, RuntimeKind::Native, 1, &opts)
        .expect("roomy run");
    assert_eq!(entries(&roomy), 0, "a run that never spills must not touch the disk");
    drop(f);
    // Half the peak spills, and the panels are on disk while the factors live.
    let tight = SpillDir::new("lazy-dir-tight");
    let opts = exec(MemoryBudget::with_cap(peak / 2), Some(&tight));
    let f = analysis
        .factorize_with(&a, RuntimeKind::Native, 1, &opts)
        .expect("capped run");
    assert_eq!(entries(&tight), 1, "one store directory under the configured base");
    drop(f);
    assert_eq!(entries(&tight), 0, "the store cleans up after itself");
}

// ---------------------------------------------------------------------
// Solve-phase fault-back: spilled panels return through the infallible
// pins, bitwise, also when column groups pin them concurrently
// ---------------------------------------------------------------------

#[test]
fn solve_faults_spilled_panels_back_in() {
    let a = grid_laplacian_3d(8, 8, 8);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let b = vec![1.0; a.nrows()];
    let free = exec(MemoryBudget::unbounded(), None);
    let clean = analysis
        .factorize_with(&a, RuntimeKind::Native, 1, &free)
        .expect("unconstrained run");
    let peak = clean
        .stats
        .run
        .memory
        .as_ref()
        .expect("accounting was on")
        .peak_bytes;
    let e_clean = berr(&a, &clean.solve(&b), &b);

    let dir = SpillDir::new("faultback");
    let capped = exec(MemoryBudget::with_cap(peak / 2), Some(&dir));
    let f = analysis
        .factorize_with(&a, RuntimeKind::Native, 1, &capped)
        .expect("capped factorization");
    let mem = f.stats.run.memory.as_ref().expect("accounting was on");
    assert!(
        mem.spill_events > 0,
        "cap {} of peak {} must spill for this test to bite",
        peak / 2,
        peak
    );
    // The solve pins every panel, faulting spilled ones back in. The
    // factor's report is a factorize-time snapshot, so post-solve counts
    // come from the live ledger.
    let budget = capped.run.budget.as_ref().expect("budget installed");
    let x = f.solve(&b);
    let live = budget.stats();
    assert!(live.fault_in_events > 0, "spilled panels came back: {live:?}");
    let e = berr(&a, &x, &b);
    assert!(e <= 1e-12, "faulted-back solve backward error {e:.3e}");
    assert!(
        (e - e_clean).abs() <= 1e-12,
        "spill round-trip drifted the residual: {e:.3e} vs {e_clean:.3e}"
    );
    // The cap cannot hold the whole factor, so a second solve faults
    // panels back in again — this time four column groups, one column
    // each, on four threads that pin (and so evict and fault back) the
    // same panels concurrently. Bitwise the one-group solve.
    let n = b.len();
    let b4: Vec<f64> = (0..4 * n).map(|i| b[i % n] * (1 + i / n) as f64).collect();
    let x4 = f.solve_parallel_many(&b4, 4, 4);
    let after = budget.stats();
    assert!(
        after.fault_in_events > live.fault_in_events,
        "4-group solve found every panel resident: {after:?}"
    );
    let x1 = f.solve_parallel_many(&b4, 4, 1);
    assert!(
        x4.iter().zip(&x1).all(|(u, v)| u.to_bits() == v.to_bits()),
        "spilled 4-group solve is not the 1-group one"
    );
    let e4 = berr(&a, &x4[..n], &b);
    assert!(e4 <= 1e-12, "spilled 4-group solve: backward error {e4:.3e}");
}

// ---------------------------------------------------------------------
// Typed refusal: when the pager cannot make progress, the failure is a
// structured BudgetExceeded, never a panic or a hang
// ---------------------------------------------------------------------

#[test]
fn impossible_cap_is_a_typed_budget_error() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    // 1 KiB cannot hold even the assembly entry plan, and no amount of
    // spilling helps a single request larger than the whole cap.
    let opts = exec(MemoryBudget::with_cap(1024), None);
    match analysis.factorize_with(&a, RuntimeKind::Native, 2, &opts) {
        Err(SolverError::BudgetExceeded { cap: 1024, .. }) => {}
        Err(other) => panic!("expected BudgetExceeded, got {other:?}"),
        Ok(_) => panic!("a 1 KiB cap must not admit a 216-node factorization"),
    }
}
