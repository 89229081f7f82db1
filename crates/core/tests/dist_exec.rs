//! Distributed fan-in engine, end to end: zero-fault equivalence with
//! the native runtime, traffic cross-check against the analytic fan-in
//! study, seeded chaos sweeps (node crashes + message loss/duplication/
//! reordering) with the never-silently-wrong contract, and the recovery
//! edge cases (root-owner crash, duplicate final acks, heartbeat-timeout
//! vs. completion orderings).

use dagfact_core::dist::{factorize_dist, DistError, DistOptions};
use dagfact_core::{fan_in_study, Analysis, RuntimeKind, SolverOptions};
use dagfact_kernels::Scalar;
use dagfact_rt::FaultPlan;
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, shifted_laplacian_3d};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;

fn residual<T: Scalar>(a: &CscMatrix<T>, x: &[T], b: &[T]) -> f64 {
    let mut ax = vec![T::zero(); b.len()];
    a.spmv(x, &mut ax);
    let num = ax
        .iter()
        .zip(b)
        .map(|(&l, &r)| (l - r).modulus())
        .fold(0.0f64, f64::max);
    let den = b.iter().map(|v| v.modulus()).fold(0.0f64, f64::max);
    num / den.max(1e-300)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + 11) % 23) as f64 / 7.0 - 1.0).collect()
}

fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    let num = x
        .iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    let den = y.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    num / den.max(1e-300)
}

/// The three Table-I proxy families the chaos sweep runs over, scaled
/// down so 20 seeds × 3 matrices stay fast.
fn proxies() -> Vec<(&'static str, CscMatrix<f64>, FactoKind)> {
    vec![
        ("laplace3d", grid_laplacian_3d(6, 6, 6), FactoKind::Cholesky),
        (
            "shifted3d",
            shifted_laplacian_3d(6, 6, 6, 1.0),
            FactoKind::Ldlt,
        ),
        (
            "convdiff3d",
            convection_diffusion_3d(5, 5, 5, 0.3),
            FactoKind::Lu,
        ),
    ]
}

fn dist_opts(nnodes: usize) -> DistOptions {
    DistOptions {
        nnodes,
        ..DistOptions::default()
    }
}

// ---------------------------------------------------------------------
// Zero-fault equivalence
// ---------------------------------------------------------------------

#[test]
fn zero_fault_matches_native_factors() {
    for (name, a, facto) in proxies() {
        let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
        let native = analysis.factorize(&a, RuntimeKind::Native, 1).unwrap();
        let (dist, report) = factorize_dist(&analysis, &a, &dist_opts(3)).unwrap();
        assert!(report.crashes.is_empty() && report.retransmits == 0, "{name}");
        assert!(report.tasks_executed as usize >= analysis.symbol.ncblk(), "{name}");
        // Same diagonal (LDLᵀ) and the same solution to rounding: the
        // distributed engine runs the very same kernels, only the update
        // application order differs.
        assert!(rel_diff(&dist.d, &native.d) < 1e-10, "{name}: d drifted");
        let b = rhs(a.nrows());
        let xn = native.solve(&b);
        let xd = dist.solve(&b);
        let tol = if facto == FactoKind::Lu { 1e-9 } else { 1e-10 };
        assert!(residual(&a, &xn, &b) < tol, "{name}: native residual");
        assert!(residual(&a, &xd, &b) < tol, "{name}: dist residual");
        assert!(rel_diff(&xd, &xn) < 1e-9, "{name}: solutions diverged");
    }
}

#[test]
fn zero_fault_traffic_matches_fan_in_study() {
    let a = grid_laplacian_3d(8, 8, 8);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    for nnodes in [2usize, 3, 4] {
        let study = fan_in_study(&analysis, false, nnodes);
        let (_, report) = factorize_dist(&analysis, &a, &dist_opts(nnodes)).unwrap();
        assert_eq!(
            report.data_messages, study.fan_in.messages,
            "{nnodes} nodes: pair-message count must equal the study's prediction"
        );
        let rel = (report.bytes - study.fan_in.bytes).abs() / (1.0 + study.fan_in.bytes);
        assert!(rel < 1e-6, "{nnodes} nodes: byte volume off by {rel:e}");
        assert_eq!(report.sends, report.data_messages, "no retransmits without faults");
        assert_eq!(report.messages_lost, 0);
        assert_eq!(report.recoveries, 0);
    }
}

// ---------------------------------------------------------------------
// Seeded chaos sweep: crashes + loss + duplication + reordering
// ---------------------------------------------------------------------

#[test]
fn chaos_sweep_never_silently_wrong() {
    let mut completed = 0u32;
    let mut typed_failures = 0u32;
    let mut runs_with_faults = 0u32;
    for (name, a, facto) in proxies() {
        let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
        let b = rhs(a.nrows());
        let (clean, _) = factorize_dist(&analysis, &a, &dist_opts(3)).unwrap();
        let xc = clean.solve(&b);
        let tol = if facto == FactoKind::Lu { 1e-9 } else { 1e-10 };
        let rc = residual(&a, &xc, &b);
        assert!(rc < tol, "{name}: fault-free baseline");
        for seed in 0..20u64 {
            let mut plan = FaultPlan::with_seed(seed)
                .message_loss(0.08)
                .message_dup(0.08)
                .message_reorder(0.08)
                .random_crash(0.3, 2 + (seed % 3) as u32);
            if seed % 4 == 0 {
                // Pin a crash on top of the sampled ones.
                plan = plan.crash_node_on((seed as usize / 4) % 3, (seed % 5) as u32);
            }
            let opts = DistOptions {
                fault_plan: Some(Arc::new(plan)),
                ..dist_opts(3)
            };
            match factorize_dist(&analysis, &a, &opts) {
                Ok((f, report)) => {
                    completed += 1;
                    if !report.crashes.is_empty()
                        || report.messages_lost > 0
                        || report.duplicates_injected > 0
                        || report.reorders > 0
                    {
                        runs_with_faults += 1;
                    }
                    let x = f.solve(&b);
                    let r = residual(&a, &x, &b);
                    assert!(r < tol, "{name} seed {seed}: residual {r:e} after {report:?}");
                    assert!(
                        rel_diff(&x, &xc) < 1e-8,
                        "{name} seed {seed}: recovered solution drifted from fault-free"
                    );
                }
                // Typed recovery failure — the allowed alternative to a
                // correct completion. Anything else (panic, hang, silent
                // corruption) fails the test.
                Err(
                    DistError::AllNodesCrashed
                    | DistError::RetransmitExhausted { .. }
                    | DistError::Stalled { .. },
                ) => typed_failures += 1,
                Err(DistError::Solver(e)) => panic!("{name} seed {seed}: numeric failure {e}"),
                Err(e @ DistError::PairBufferMissing { .. }) => {
                    panic!("{name} seed {seed}: protocol invariant violated: {e}")
                }
            }
        }
    }
    assert!(completed >= 30, "chaos sweep: only {completed}/60 runs completed");
    assert!(
        runs_with_faults >= 20,
        "chaos sweep exercised too few faulty runs ({runs_with_faults})"
    );
    // Typed failures are allowed but completion should dominate.
    assert!(completed + typed_failures == 60);
}

// ---------------------------------------------------------------------
// Recovery edge cases
// ---------------------------------------------------------------------

#[test]
fn crash_of_root_supernode_owner_recovers() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let nnodes = 3;
    let root = analysis.symbol.ncblk() - 1;
    let root_owner = fan_in_study(&analysis, false, nnodes).mapping.node_of[root];
    let plan = FaultPlan::with_seed(7).crash_node_on(root_owner, 2);
    let opts = DistOptions {
        fault_plan: Some(Arc::new(plan)),
        ..dist_opts(nnodes)
    };
    let (f, report) = factorize_dist(&analysis, &a, &opts).unwrap();
    assert_eq!(report.crashes, vec![root_owner]);
    assert!(report.recoveries >= 1, "root owner's shard must be adopted");
    assert!(report.panels_restored >= 1, "the root panel itself was lost");
    let b = rhs(a.nrows());
    assert!(residual(&a, &f.solve(&b), &b) < 1e-10);
}

#[test]
fn crash_before_any_work_recovers() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let plan = FaultPlan::with_seed(1).crash_node_on(1, 0);
    let opts = DistOptions {
        fault_plan: Some(Arc::new(plan)),
        ..dist_opts(3)
    };
    let (f, report) = factorize_dist(&analysis, &a, &opts).unwrap();
    assert_eq!(report.crashes, vec![1]);
    assert!(report.recoveries >= 1);
    let b = rhs(a.nrows());
    assert!(residual(&a, &f.solve(&b), &b) < 1e-10);
}

#[test]
fn all_nodes_crashed_is_a_typed_error() {
    let a = grid_laplacian_3d(5, 5, 5);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let plan = FaultPlan::with_seed(2).crash_node_on(0, 0).crash_node_on(1, 0);
    let opts = DistOptions {
        fault_plan: Some(Arc::new(plan)),
        ..dist_opts(2)
    };
    match factorize_dist(&analysis, &a, &opts) {
        Err(DistError::AllNodesCrashed) => {}
        Err(other) => panic!("expected AllNodesCrashed, got {other}"),
        Ok(_) => panic!("expected AllNodesCrashed, got a completed factorization"),
    }
}

#[test]
fn duplicate_delivery_of_every_message_and_ack_is_absorbed() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let native = analysis.factorize(&a, RuntimeKind::Native, 1).unwrap();
    // mdup=1: every data message AND every ack — including the final
    // ack of every pair — is delivered twice.
    let plan = FaultPlan::with_seed(3).message_dup(1.0);
    let opts = DistOptions {
        fault_plan: Some(Arc::new(plan)),
        ..dist_opts(3)
    };
    let (f, report) = factorize_dist(&analysis, &a, &opts).unwrap();
    assert!(report.duplicates_injected > 0);
    assert!(
        report.duplicates_absorbed + report.stale_acks > 0,
        "duplicate data deliveries / final acks must be absorbed, not re-applied"
    );
    let b = rhs(a.nrows());
    let xd = f.solve(&b);
    assert!(residual(&a, &xd, &b) < 1e-10);
    assert!(rel_diff(&xd, &native.solve(&b)) < 1e-9, "duplicates must not double-apply");
}

#[test]
fn heartbeat_timeout_vs_completion_orderings_agree() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let b = rhs(a.nrows());
    // Eager detection: the failure detector fires aggressively, racing
    // the in-flight work of the survivors.
    let eager = DistOptions {
        fault_plan: Some(Arc::new(FaultPlan::with_seed(5).crash_node_on(1, 1))),
        heartbeat_interval: 1e-6,
        heartbeat_timeout_beats: 1,
        ..dist_opts(3)
    };
    // Lazy detection: the survivors drain every task they can and go
    // idle long before the timeout expires.
    let lazy = DistOptions {
        fault_plan: Some(Arc::new(FaultPlan::with_seed(5).crash_node_on(1, 1))),
        heartbeat_interval: 2e-3,
        heartbeat_timeout_beats: 5,
        ..dist_opts(3)
    };
    let mut solutions = Vec::new();
    for (label, opts) in [("eager", eager), ("lazy", lazy)] {
        let (f, report) = factorize_dist(&analysis, &a, &opts).unwrap();
        assert_eq!(report.crashes, vec![1], "{label}");
        assert!(report.recoveries >= 1, "{label}: shard must be adopted");
        let x = f.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-10, "{label}");
        solutions.push(x);
    }
    assert!(
        rel_diff(&solutions[0], &solutions[1]) < 1e-9,
        "detection timing must not change the answer"
    );
}

#[test]
fn heartbeat_churn_without_faults_never_false_positives() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let opts = DistOptions {
        heartbeat_interval: 1e-7,
        heartbeat_timeout_beats: 1,
        ..dist_opts(4)
    };
    let (f, report) = factorize_dist(&analysis, &a, &opts).unwrap();
    assert_eq!(report.recoveries, 0, "live nodes must never be declared dead");
    assert!(report.crashes.is_empty());
    let b = rhs(a.nrows());
    assert!(residual(&a, &f.solve(&b), &b) < 1e-10);
}

#[test]
fn heavy_loss_exhausts_the_retransmit_budget_with_a_typed_error() {
    let a = grid_laplacian_3d(6, 6, 6);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let plan = FaultPlan::with_seed(11).message_loss(1.0);
    let opts = DistOptions {
        fault_plan: Some(Arc::new(plan)),
        max_send_attempts: 3,
        ..dist_opts(3)
    };
    match factorize_dist(&analysis, &a, &opts) {
        Err(DistError::RetransmitExhausted { attempts, .. }) => assert_eq!(attempts, 3),
        Err(DistError::Stalled { .. }) => {} // also a legal typed outcome
        Err(other) => panic!("total loss must surface a transport error, got {other}"),
        Ok(_) => panic!("total loss must not complete"),
    }
}
