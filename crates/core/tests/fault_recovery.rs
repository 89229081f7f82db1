//! End-to-end fault tolerance of the solver stack: injected task panics,
//! non-finite input, finite overflow, numeric breakdown and the adaptive
//! pivot-escalation recovery loop with its cost bound, across all three
//! runtime engines. Factorizations are counted as the recorder's
//! `"numeric"` phase spans, one per run of the numeric phase.

use dagfact_core::{
    Analysis, ExecOptions, RuntimeKind, Solver, SolverError, SolverOptions,
};
use dagfact_kernels::KernelError;
use dagfact_rt::{EngineError, FaultPlan, RunConfig, SpanKind, TraceRecorder};
use dagfact_sparse::gen::{grid_laplacian_3d, shifted_laplacian_3d};
use dagfact_sparse::{CscMatrix, TripletBuilder};
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

fn watched_with(plan: FaultPlan) -> ExecOptions {
    ExecOptions {
        run: RunConfig {
            fault_plan: Some(Arc::new(plan)),
            watchdog: Some(Duration::from_secs(20)),
            ..RunConfig::default()
        },
        epsilon_override: None,
        spill_dir: None,
    }
}

// ---------------------------------------------------------------------
// Injected panics: structured Err, no hang, on every engine
// ---------------------------------------------------------------------

#[test]
fn injected_panic_surfaces_as_engine_error_on_every_engine() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    for rt in RuntimeKind::ALL {
        let exec = watched_with(FaultPlan::new().panic_on(0));
        match analysis.factorize_with(&a, rt, 4, &exec) {
            Err(SolverError::Engine(EngineError::TaskPanicked { task: 0, .. })) => {}
            Err(other) => panic!("{rt:?}: expected Engine(TaskPanicked), got {other:?}"),
            Ok(_) => panic!("{rt:?}: factorization must not survive an injected panic"),
        }
        // Through the solver, under a kind that reads ε: an engine error
        // is never re-factorized.
        let (rec, mut exec) = traced();
        exec.run.fault_plan = Some(Arc::new(FaultPlan::new().panic_on(0)));
        let options = SolverOptions::default();
        match Solver::with_exec(&a, Some(FactoKind::Ldlt), &options, rt, 4, &exec) {
            Err(SolverError::Engine(EngineError::TaskPanicked { task: 0, .. })) => {}
            other => panic!("{rt:?}: solver: expected TaskPanicked, got {:?}", other.err()),
        }
        assert_eq!(factorizations(&rec), 1, "{rt:?}: a task panic was re-factorized");
    }
}

// ---------------------------------------------------------------------
// Non-finite input, nothing injected: the panel check answers it, and the
// recovery loop runs no second factorization
// ---------------------------------------------------------------------

/// Execution options with a fresh span recorder attached.
fn traced() -> (Arc<TraceRecorder>, ExecOptions) {
    let rec = TraceRecorder::shared();
    let exec = ExecOptions {
        run: RunConfig {
            trace: Some(rec.clone()),
            ..RunConfig::default()
        },
        ..ExecOptions::default()
    };
    (rec, exec)
}

/// Factorizations recorded so far: one `"numeric"` phase span each.
fn factorizations(rec: &TraceRecorder) -> usize {
    let spans = rec.snapshot().spans;
    spans
        .iter()
        .filter(|sp| sp.kind == SpanKind::Phase && sp.label == "numeric")
        .count()
}

/// Which stored entries of `a` the infinity replaces, in the analysis'
/// permuted order: the lower one (an L panel), the upper one (LU's Uᵀ
/// panel), or both.
#[derive(Clone, Copy, Debug)]
enum Side {
    Lower,
    Upper,
    Both,
}

/// `a` with an infinity at an entry coupling two different panels of
/// `analysis` — an off-diagonal block no pivot reads before the panel
/// check does — and the panel whose task must report it.
fn with_infinity(a: &CscMatrix<f64>, analysis: &Analysis, side: Side) -> (CscMatrix<f64>, usize) {
    let perm = analysis.perm.perm();
    let cblks = &analysis.symbol.cblks;
    let panel_of = |k: usize| {
        cblks
            .iter()
            .position(|cb| cb.fcol <= k && k < cb.lcol)
            .unwrap()
    };
    let entries: Vec<(usize, usize)> = (0..a.ncols())
        .flat_map(|j| a.col_rows(j).iter().map(move |&i| (i, j)))
        .collect();
    // Upper in the permuted order: row before column.
    let (i, j) = *entries
        .iter()
        .find(|&&(i, j)| perm[i] < perm[j] && panel_of(perm[i]) != panel_of(perm[j]))
        .expect("a grid couples different panels");
    let hit = |e: (usize, usize)| match side {
        Side::Upper => e == (i, j),
        Side::Lower => e == (j, i),
        Side::Both => e == (i, j) || e == (j, i),
    };
    let values = entries
        .iter()
        .zip(a.values())
        .map(|(&e, &v)| if hit(e) { f64::INFINITY } else { v })
        .collect();
    (CscMatrix::new(a.pattern().clone(), values), panel_of(perm[i]))
}

/// A grid Laplacian with one infinite entry coupling two panels, under
/// every kind, policy and worker count: a typed error, never factors,
/// never a panic. With pivot repair off (ε = 0) the panel task that owns
/// the entry answers `NonFinite` in the array that holds it — L for every
/// kind, LU's Uᵀ for an entry of the strict upper triangle. No threshold
/// makes an infinite entry finite, so the solver runs exactly one
/// factorization at either ε, even with ten attempts allowed.
#[test]
fn infinite_matrix_entry_is_a_typed_error_on_every_engine() {
    let a = grid_laplacian_3d(6, 6, 6);
    for (facto, side, task) in [
        (FactoKind::Cholesky, Side::Both, "L"),
        (FactoKind::Ldlt, Side::Both, "L"),
        (FactoKind::Lu, Side::Lower, "L"),
        (FactoKind::Lu, Side::Upper, "U"),
    ] {
        for epsilon in [0.0, 1e-8] {
            let options = SolverOptions {
                static_pivot_epsilon: epsilon,
                max_refactor_attempts: 10,
                ..SolverOptions::default()
            };
            let analysis = Analysis::new(a.pattern(), facto, &options);
            let (bad, panel) = with_infinity(&a, &analysis, side);
            // With repair on, ‖A‖∞ = ∞ makes every pivot's threshold
            // infinite: the pivot check (LDLᵀ) or the L check of whichever
            // panel finishes first (LU) may answer instead.
            let repairs = facto != FactoKind::Cholesky && epsilon > 0.0;
            let expected = |e: &SolverError| match e {
                SolverError::NonFinite { task: t, block } if *t == task && *block == panel => true,
                SolverError::NonFinite { .. }
                | SolverError::Kernel(KernelError::NonFinitePivot { .. }) => repairs,
                _ => false,
            };
            for rt in RuntimeKind::ALL {
                for workers in 1..=4 {
                    let label = format!("{facto:?} {side:?} ε={epsilon}, {rt:?} x{workers}");
                    match analysis.factorize_with(&bad, rt, workers, &ExecOptions::default()) {
                        Err(e) if expected(&e) => {}
                        other => panic!(
                            "{label}: expected NonFinite in {task} panel {panel}, got {:?}",
                            other.map(|_| "factors")
                        ),
                    }
                    let (rec, exec) = traced();
                    match Solver::with_exec(&bad, Some(facto), &options, rt, workers, &exec) {
                        Err(e) if expected(&e) => {}
                        other => panic!(
                            "{label}: solver: expected NonFinite in {task} panel {panel}, got {:?}",
                            other.map(|_| "solver")
                        ),
                    }
                    assert_eq!(factorizations(&rec), 1, "{label}: the input was re-factorized");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Finite overflow: the breakdown a larger threshold does rescue
// ---------------------------------------------------------------------

/// A 16×16 chain of `[[0, b], [b, 1]]` blocks, each coupled to the next
/// by a unit entry. At ε = 1e-8 the zero pivot is repaired to
/// τ ≈ 1e-8·b and the next pivot `1 − b²/τ` overflows; at ε = 1e-6 it is
/// finite.
fn overflow_chain(b: f64) -> CscMatrix<f64> {
    let n = 16;
    let mut t = TripletBuilder::new(n, n);
    for k in (0..n).step_by(2) {
        t.push(k, k, 0.0);
        t.push(k + 1, k + 1, 1.0);
        t.push(k, k + 1, b);
        t.push(k + 1, k, b);
        if k + 2 < n {
            t.push(k + 1, k + 2, 1.0);
            t.push(k + 2, k + 1, 1.0);
        }
    }
    t.build()
}

#[test]
fn finite_overflow_is_rescued_at_the_next_epsilon() {
    let a = overflow_chain(1e301);
    assert!(a.values().iter().all(|v| v.is_finite()));
    let b = vec![1.0; a.nrows()];
    for facto in [FactoKind::Ldlt, FactoKind::Lu] {
        for rt in RuntimeKind::ALL {
            let (rec, exec) = traced();
            let mut s = Solver::with_exec(&a, Some(facto), &SolverOptions::default(), rt, 2, &exec)
                .unwrap_or_else(|e| panic!("{facto:?} {rt:?}: overflow not rescued: {e}"));
            assert_eq!(s.stats().epsilon_history, [1e-8, 1e-6], "{facto:?} {rt:?}");
            assert_eq!(s.stats().attempts, 2, "{facto:?} {rt:?}");
            assert_eq!(factorizations(&rec), 2, "{facto:?} {rt:?}");
            let r = s.solve_adaptive(&b, 10, 1e-12).expect("refined solve");
            let e = berr(&a, &r.x, &b);
            assert!(e <= 1e-12, "{facto:?} {rt:?}: refined backward error {e:.3e}");
        }
    }
}

// ---------------------------------------------------------------------
// Refinement stalls: Cholesky never re-runs, LDLᵀ walks the schedule once
// ---------------------------------------------------------------------

/// Cholesky's threshold is 0 whatever ε is, so a tolerance refinement
/// cannot reach is answered after one factorization.
#[test]
fn cholesky_stall_is_answered_without_refactorizing() {
    let a = grid_laplacian_3d(6, 6, 6);
    let b = vec![1.0; a.nrows()];
    for rt in RuntimeKind::ALL {
        let (rec, exec) = traced();
        let mut s = Solver::with_exec(
            &a,
            Some(FactoKind::Cholesky),
            &SolverOptions::default(),
            rt,
            2,
            &exec,
        )
        .expect("SPD factorizes");
        match s.solve_adaptive(&b, 3, 1e-30) {
            Err(SolverError::RefinementStalled { .. }) => {}
            other => panic!("{rt:?}: expected RefinementStalled, got {:?}", other.map(|_| "x")),
        }
        assert_eq!(factorizations(&rec), 1, "{rt:?}");
        assert_eq!(s.stats().epsilon_history, [1e-8], "{rt:?}");
    }
}

/// Under LDLᵀ and LU a stall does re-factorize, at each larger ε of the
/// schedule exactly once: three steps from the default 1e-8, however many
/// attempts are allowed.
#[test]
fn refinement_stall_walks_the_epsilon_schedule_once() {
    let a = shifted_laplacian_3d(5, 5, 5, 1.0);
    let b = vec![1.0; a.nrows()];
    let options = SolverOptions {
        max_refactor_attempts: 10,
        ..SolverOptions::default()
    };
    for facto in [FactoKind::Ldlt, FactoKind::Lu] {
        let (rec, exec) = traced();
        let mut s = Solver::with_exec(&a, Some(facto), &options, RuntimeKind::Ptg, 2, &exec)
            .expect("factorizes");
        match s.solve_adaptive(&b, 3, 1e-30) {
            Err(SolverError::RefinementStalled { .. }) => {}
            other => panic!("{facto:?}: expected RefinementStalled, got {:?}", other.map(|_| "x")),
        }
        assert_eq!(s.stats().epsilon_history, [1e-8, 1e-6, 1e-4, 1e-2], "{facto:?}");
        assert_eq!(factorizations(&rec), 4, "{facto:?}");
    }
}

// ---------------------------------------------------------------------
// Numeric breakdown: epsilon escalation rescues a zero-pivot matrix
// ---------------------------------------------------------------------

/// Saddle-point matrix `[[0, Bᵀ], [B, 0]]` with explicit structural zero
/// diagonal: every diagonal entry is exactly 0, so LDLᵀ without static
/// pivoting dies on its very first pivot.
fn saddle_point(m: usize) -> CscMatrix<f64> {
    let n = 2 * m;
    let mut t = TripletBuilder::new(n, n);
    for i in 0..n {
        t.push(i, i, 0.0);
    }
    // B = bidiagonal(2, 1): well conditioned, structurally interesting.
    for i in 0..m {
        t.push(m + i, i, 2.0);
        t.push(i, m + i, 2.0);
        if i + 1 < m {
            t.push(m + i + 1, i, 1.0);
            t.push(i, m + i + 1, 1.0);
        }
    }
    t.build()
}

#[test]
fn zero_pivot_fails_without_escalation() {
    let a = saddle_point(24);
    let options = SolverOptions {
        static_pivot_epsilon: 0.0,
        max_refactor_attempts: 1, // recovery disabled
        ..SolverOptions::default()
    };
    match Solver::<f64>::with_options(&a, Some(FactoKind::Ldlt), &options, RuntimeKind::Native, 2)
    {
        Err(SolverError::Kernel(KernelError::ZeroPivot { .. })) => {}
        other => panic!(
            "expected ZeroPivot with pivoting and recovery disabled, got {:?}",
            other.err()
        ),
    }
}

#[test]
fn epsilon_escalation_rescues_the_zero_pivot_matrix() {
    let a = saddle_point(24);
    let options = SolverOptions {
        static_pivot_epsilon: 0.0, // first attempt must break down
        max_refactor_attempts: 4,
        ..SolverOptions::default()
    };
    for facto in [FactoKind::Ldlt, FactoKind::Lu] {
        let (rec, exec) = traced();
        let mut s = Solver::with_exec(&a, Some(facto), &options, RuntimeKind::Ptg, 2, &exec)
            .expect("escalation must rescue the factorization");
        let stats = s.stats().clone();
        // Attempt 1 (ε = 0) breaks down; the first step repairs it.
        assert_eq!(stats.epsilon_history, [0.0, 1e-8], "{facto:?}");
        assert_eq!((stats.attempts, stats.epsilon), (2, 1e-8), "{facto:?}");
        assert!(s.pivots_repaired() > 0, "{facto:?}: the zero pivots were bumped");

        let b = vec![1.0; a.nrows()];
        let r = s.solve_adaptive(&b, 10, 1e-12).unwrap();
        let e = berr(&a, &r.x, &b);
        assert!(e <= 1e-12, "{facto:?}: refined backward error {e:.3e}");
        assert_eq!(factorizations(&rec), 2, "{facto:?}");
    }
}

// ---------------------------------------------------------------------
// Refinement divergence detection
// ---------------------------------------------------------------------

#[test]
fn diverging_refinement_is_detected_and_reported() {
    let a = grid_laplacian_3d(5, 5, 5);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Native, 2).unwrap();
    // Refine against 3·A with factors of A: each correction overshoots by
    // 2×, so the residual doubles every step — textbook divergence.
    let wrong = CscMatrix::new(
        a.pattern().clone(),
        a.values().iter().map(|v| v * 3.0).collect(),
    );
    let b = vec![1.0; a.nrows()];
    let r = f.solve_refined(&wrong, &b, 10, 1e-14);
    assert!(r.stalled, "residuals {:?}", r.residuals);
    assert!(
        r.iterations < 10,
        "divergence must cut refinement short, ran {}",
        r.iterations
    );
    // The best iterate is restored, not the diverged one.
    let best = r.residuals.iter().copied().fold(f64::INFINITY, f64::min);
    let e = berr(&wrong, &r.x, &b);
    assert!(e <= best * (1.0 + 1e-12), "restored {e:.3e} vs best {best:.3e}");
    match f.solve_refined_checked(&wrong, &b, 10, 1e-14) {
        Err(SolverError::RefinementStalled { last_berr, .. }) => {
            assert!(last_berr.is_finite());
        }
        other => panic!("expected RefinementStalled, got {other:?}"),
    }
}

#[test]
fn healthy_refinement_never_reports_a_stall() {
    let a = shifted_laplacian_3d(6, 6, 6, 1.0);
    let analysis = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Dataflow, 4).unwrap();
    let b = vec![1.0; a.nrows()];
    let r = f.solve_refined_checked(&a, &b, 5, 1e-14).unwrap();
    assert!(!r.stalled);
    assert!(*r.residuals.last().unwrap() <= 1e-12);
}
