//! End-to-end fault tolerance of the solver stack: injected task panics,
//! NaN output corruption, non-finite input, numeric breakdown and the
//! adaptive pivot-escalation recovery loop, across all three runtime
//! engines.

use dagfact_core::{
    Analysis, ExecOptions, RuntimeKind, Solver, SolverError, SolverOptions,
};
use dagfact_kernels::KernelError;
use dagfact_rt::{EngineError, FaultPlan, RunConfig};
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, shifted_laplacian_3d};
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
    }
}

// ---------------------------------------------------------------------
// NaN corruption: each panel task checks the panel it has just finished,
// which catches what pivot checks cannot (the last panel is never
// consumed downstream) before any consumer reads it
// ---------------------------------------------------------------------

#[test]
fn nan_corruption_is_caught_by_the_task_that_finished_the_panel() {
    let spd = grid_laplacian_3d(6, 6, 6);
    let indefinite = shifted_laplacian_3d(5, 5, 5, 1.0);
    let unsymmetric = convection_diffusion_3d(6, 6, 4, 0.3);
    for (a, facto) in [
        (&spd, FactoKind::Cholesky),
        (&indefinite, FactoKind::Ldlt),
        (&unsymmetric, FactoKind::Lu),
    ] {
        let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
        // An early panel (its NaN would spread down the update chain) and
        // the last one (nothing downstream would ever look at it).
        for panel in [0, analysis.symbol.ncblk() - 1] {
            for rt in RuntimeKind::ALL {
                for workers in 1..=4 {
                    let exec = watched_with(FaultPlan::new().corrupt_panel(panel));
                    match analysis.factorize_with(a, rt, workers, &exec) {
                        Err(SolverError::NonFinite { task: "L", block }) if block == panel => {}
                        other => panic!(
                            "{facto:?}, {rt:?} x{workers}: expected NonFinite in L panel {panel}, \
                             got {:?}",
                            other.map(|_| "factors")
                        ),
                    }
                }
            }
        }
    }
}

/// The solver-level recovery loop: the corruption budget is consumed on
/// the first attempt, so the automatic re-factorization comes out clean.
#[test]
fn solver_recovers_from_transient_output_corruption() {
    let a = grid_laplacian_3d(6, 6, 6);
    let exec = {
        let analysis =
            Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        watched_with(FaultPlan::new().corrupt_panel(analysis.symbol.ncblk() - 1))
    };
    let mut s = Solver::with_exec(
        &a,
        Some(FactoKind::Cholesky),
        &SolverOptions::default(),
        RuntimeKind::Native,
        2,
        &exec,
    )
    .expect("one corruption with budget 1 must be absorbed by the retry");
    assert_eq!(s.stats().attempts, 2, "first attempt corrupted, second clean");
    let b = vec![1.0; a.nrows()];
    let r = s.solve_adaptive(&b, 3, 1e-12).unwrap();
    assert!(*r.residuals.last().unwrap() <= 1e-12);
}

// ---------------------------------------------------------------------
// Non-finite input, nothing injected: the same panel check answers it
// ---------------------------------------------------------------------

/// A grid Laplacian with one infinite off-diagonal entry (stored in both
/// triangles): the panel task that owns the entry's column must answer
/// `NonFinite` under every policy, directly and after the recovery loop's
/// escalations — never factors, never a panic. The entry couples two
/// different panels, so the infinity sits in an off-diagonal block that
/// no pivot reads before the panel check does.
#[test]
fn infinite_matrix_entry_is_a_typed_error_on_every_engine() {
    let a = grid_laplacian_3d(6, 6, 6);
    let options = SolverOptions::default();
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &options);
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
    let (i, j) = *entries
        .iter()
        .find(|&&(i, j)| panel_of(perm[i]) != panel_of(perm[j]))
        .expect("a grid couples different panels");
    let panel = panel_of(perm[i].min(perm[j]));
    let values = entries
        .iter()
        .zip(a.values())
        .map(|(&e, &v)| {
            if e == (i, j) || e == (j, i) {
                f64::INFINITY
            } else {
                v
            }
        })
        .collect();
    let bad = CscMatrix::new(a.pattern().clone(), values);
    for rt in RuntimeKind::ALL {
        match analysis.factorize_with(&bad, rt, 2, &ExecOptions::default()) {
            Err(SolverError::NonFinite { task: "L", block }) if block == panel => {}
            other => panic!(
                "{rt:?}: expected NonFinite in L panel {panel}, got {:?}",
                other.map(|_| "factors")
            ),
        }
        match Solver::with_options(&bad, Some(FactoKind::Cholesky), &options, rt, 2) {
            Err(SolverError::NonFinite { task: "L", block }) if block == panel => {}
            other => panic!(
                "{rt:?}: recovery loop: expected NonFinite in L panel {panel}, got {:?}",
                other.map(|_| "solver")
            ),
        }
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
    let mut s =
        Solver::with_options(&a, Some(FactoKind::Ldlt), &options, RuntimeKind::Ptg, 2)
            .expect("escalation must rescue the factorization");
    let stats = s.stats().clone();
    assert!(stats.attempts >= 2, "attempt 1 (ε=0) must have failed");
    assert_eq!(stats.epsilon_history[0], 0.0);
    assert!(
        stats.epsilon_history.windows(2).all(|w| w[1] > w[0]),
        "escalation must be monotone: {:?}",
        stats.epsilon_history
    );
    assert_eq!(stats.epsilon, *stats.epsilon_history.last().unwrap());
    assert!(s.pivots_repaired() > 0, "the zero pivots were bumped");

    let b = vec![1.0; a.nrows()];
    let r = s.solve_adaptive(&b, 10, 1e-12).unwrap();
    let e = berr(&a, &r.x, &b);
    assert!(e <= 1e-12, "refined backward error {e:.3e}");
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
