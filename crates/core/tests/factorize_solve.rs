//! End-to-end correctness of the factorization and solve across every
//! factorization kind × runtime × arithmetic combination.

use dagfact_core::coeftab::PanelSide;
use dagfact_core::{Analysis, ExecOptions, RuntimeKind, SolverError, SolverOptions};
use dagfact_kernels::{Scalar, C64};
use dagfact_rt::{chrome_trace, Json, RunConfig, SpanKind, Trace, TraceRecorder};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_2d, grid_laplacian_3d, helmholtz_3d, random_spd,
    shifted_laplacian_3d,
};
use dagfact_sparse::{CscMatrix, TripletBuilder};
use dagfact_symbolic::FactoKind;

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

fn rhs_real(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 37 + 11) % 23) as f64 / 7.0 - 1.0).collect()
}

fn rhs_complex(n: usize) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new(((i * 13 + 3) % 17) as f64 / 5.0 - 1.0, ((i * 7) % 11) as f64 / 5.0))
        .collect()
}

/// What a recorded factorization must satisfy under every policy: one
/// `Execute` span per task, a critical path inside the wall clock, a sane
/// parallel efficiency, and a Chrome-trace export with one event per span.
fn assert_trace_invariants(trace: &Trace, ntasks: usize, label: &str) {
    assert!(!trace.spans.is_empty(), "{label}: no spans recorded");
    let mut executed: Vec<usize> = trace
        .worker_spans()
        .filter(|s| s.kind == SpanKind::Execute)
        .map(|s| s.task.expect("execute spans carry their task"))
        .collect();
    assert_eq!(executed.len(), ntasks, "{label}: execute spans vs tasks");
    executed.sort_unstable();
    executed.dedup();
    assert_eq!(executed.len(), ntasks, "{label}: a task was executed twice");
    let (cp, wall) = (trace.critical_path().length_ns, trace.wall_ns());
    assert!(cp <= wall, "{label}: critical path {cp} ns exceeds wall {wall} ns");
    let eff = trace.parallel_efficiency();
    assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "{label}: parallel efficiency {eff}");
    let doc = chrome_trace(trace);
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("{label}: traceEvents is not an array");
    };
    assert_eq!(events.len(), trace.spans.len(), "{label}: one event per span");
}

fn check_real(a: &CscMatrix<f64>, facto: FactoKind, tol: f64) {
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let b = rhs_real(a.nrows());
    for rt in RuntimeKind::ALL {
        for threads in [1usize, 4] {
            let label = format!("{facto:?} via {rt:?} ({threads} threads)");
            let rec = TraceRecorder::shared();
            let exec = ExecOptions {
                run: RunConfig {
                    trace: Some(rec.clone()),
                    ..RunConfig::default()
                },
                ..ExecOptions::default()
            };
            let f = analysis
                .factorize_with(a, rt, threads, &exec)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let x = f.solve(&b);
            let r = residual(a, &x, &b);
            assert!(r < tol, "{label}: residual {r:e}");
            assert_trace_invariants(&rec.snapshot(), f.stats.run.ntasks, &label);
        }
    }
}

#[test]
fn cholesky_on_2d_grid() {
    check_real(&grid_laplacian_2d(15, 13), FactoKind::Cholesky, 1e-10);
}

#[test]
fn cholesky_on_3d_grid() {
    check_real(&grid_laplacian_3d(7, 7, 7), FactoKind::Cholesky, 1e-10);
}

#[test]
fn cholesky_on_random_spd() {
    for seed in [1, 2, 3] {
        check_real(&random_spd(150, 5, seed), FactoKind::Cholesky, 1e-9);
    }
}

#[test]
fn ldlt_on_indefinite_matrix() {
    check_real(&shifted_laplacian_3d(6, 6, 5, 1.0), FactoKind::Ldlt, 1e-9);
}

#[test]
fn ldlt_matches_cholesky_on_spd() {
    // On an SPD matrix LDLᵀ and LLᵀ must produce the same solution.
    let a = grid_laplacian_2d(12, 12);
    let b = rhs_real(a.nrows());
    let chol = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let ldlt = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
    let xc = chol.factorize(&a, RuntimeKind::Native, 2).unwrap().solve(&b);
    let xl = ldlt.factorize(&a, RuntimeKind::Ptg, 2).unwrap().solve(&b);
    for (u, v) in xc.iter().zip(&xl) {
        assert!((u - v).abs() < 1e-9, "{u} vs {v}");
    }
}

#[test]
fn lu_on_unsymmetric_values() {
    check_real(&convection_diffusion_3d(6, 5, 5, 0.45), FactoKind::Lu, 1e-9);
}

#[test]
fn lu_handles_symmetric_matrix_too() {
    // LU on a symmetric SPD matrix must agree with Cholesky.
    let a = grid_laplacian_2d(10, 11);
    let b = rhs_real(a.nrows());
    let lua = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
    let x = lua.factorize(&a, RuntimeKind::Dataflow, 3).unwrap().solve(&b);
    assert!(residual(&a, &x, &b) < 1e-10);
}

#[test]
fn complex_symmetric_ldlt() {
    let a = helmholtz_3d(5, 5, 4, 2.0, 0.8);
    let analysis = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
    let b = rhs_complex(a.nrows());
    for rt in RuntimeKind::ALL {
        let f = analysis.factorize(&a, rt, 2).unwrap();
        let x = f.solve(&b);
        assert!(residual(&a, &x, &b) < 1e-9, "{rt:?}");
    }
}

#[test]
fn complex_lu() {
    let a = dagfact_sparse::gen::complex_unsym_3d(5, 4, 4);
    let analysis = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
    let b = rhs_complex(a.nrows());
    let f = analysis.factorize(&a, RuntimeKind::Ptg, 4).unwrap();
    let x = f.solve(&b);
    assert!(residual(&a, &x, &b) < 1e-9);
}

/// Every stored factor coefficient of a factorization, in panel order:
/// the L panels, the U panels (LU), then the LDLᵀ diagonal.
fn factor_values<T: Scalar>(analysis: &Analysis, a: &CscMatrix<T>, rt: RuntimeKind, threads: usize) -> Vec<T> {
    let f = analysis
        .factorize(a, rt, threads)
        .unwrap_or_else(|e| panic!("{:?}/{rt:?}/{threads}: {e}", analysis.facto));
    let symbol = &analysis.symbol;
    let mut values = Vec::new();
    for c in 0..symbol.ncblk() {
        // SAFETY: the factorization has returned; nothing mutates `f`.
        values.extend_from_slice(unsafe { f.tab.pin_solve(c, PanelSide::L).slice() });
        if f.tab.has_u() {
            // SAFETY: as above.
            values.extend_from_slice(unsafe { f.tab.pin_solve(c, PanelSide::U).slice() });
        }
    }
    values.extend_from_slice(&f.d);
    values
}

/// Every policy at 1–4 workers, and native×4 five times over, against
/// ptg×1 on one problem.
fn assert_policies_agree<T: Scalar>(facto: FactoKind, a: &CscMatrix<T>) {
    let analysis = Analysis::new(a.pattern(), facto, &SolverOptions::default());
    let reference = factor_values(&analysis, a, RuntimeKind::Ptg, 1);
    assert!(reference.iter().all(|v| v.is_finite()));
    let tag = format!("{}/{facto:?}", T::PREC);
    for rt in RuntimeKind::ALL {
        for threads in 1..=4usize {
            let values = factor_values(&analysis, a, rt, threads);
            assert!(values == reference, "{tag}: {rt:?}/{threads} differs bitwise from ptg/1");
        }
    }
    // The static mapping at its widest, repeated: stealing reorders
    // tasks from run to run, never the writers of a panel.
    for run in 0..5 {
        let values = factor_values(&analysis, a, RuntimeKind::Native, 4);
        assert!(values == reference, "{tag}: native/4 run {run} differs bitwise from ptg/1");
    }
}

/// The cross-policy oracle. Every policy runs the one two-level DAG,
/// which chains the updates into a target panel in source order, so only
/// *scheduling* differs between policies and worker counts: the factors
/// are bitwise equal across all of them, and from run to run — for both
/// element types (with `simd_fuzz` and `solve.rs`'s identities, the
/// running gates over the raw-pointer register tiles).
#[test]
fn policies_agree_on_factor_values() {
    assert_policies_agree(FactoKind::Cholesky, &grid_laplacian_3d(6, 6, 6));
    assert_policies_agree(FactoKind::Ldlt, &shifted_laplacian_3d(6, 6, 6, 1.0));
    assert_policies_agree(FactoKind::Lu, &convection_diffusion_3d(6, 6, 6, 0.3));
    let z = helmholtz_3d(6, 6, 6, 2.0, 0.5);
    assert_policies_agree(FactoKind::Ldlt, &z);
    assert_policies_agree(FactoKind::Lu, &z);
}

#[test]
fn cholesky_rejects_indefinite() {
    let a = shifted_laplacian_3d(4, 4, 4, 1.0);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let err = analysis.factorize(&a, RuntimeKind::Native, 2);
    assert!(err.is_err(), "Cholesky must fail on an indefinite matrix");
}

#[test]
fn refinement_improves_static_pivoting() {
    let a = convection_diffusion_3d(5, 5, 4, 0.49);
    let analysis = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Native, 2).unwrap();
    let b = rhs_real(a.nrows());
    let refined = f.solve_refined(&a, &b, 5, 1e-14);
    assert!(
        refined.residuals.last().unwrap() <= refined.residuals.first().unwrap(),
        "refinement made things worse: {:?}",
        refined.residuals
    );
    assert!(*refined.residuals.last().unwrap() < 1e-12);
}

#[test]
fn wide_and_narrow_split_agree() {
    // Panel splitting must not change the numerical result.
    let a = grid_laplacian_2d(16, 16);
    let b = rhs_real(a.nrows());
    let narrow = Analysis::new(
        a.pattern(),
        FactoKind::Cholesky,
        &SolverOptions {
            split: dagfact_symbolic::structure::SplitOptions { max_width: 8 },
            ..SolverOptions::default()
        },
    );
    let wide = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let xn = narrow.factorize(&a, RuntimeKind::Ptg, 4).unwrap().solve(&b);
    let xw = wide.factorize(&a, RuntimeKind::Ptg, 4).unwrap().solve(&b);
    for (u, v) in xn.iter().zip(&xw) {
        assert!((u - v).abs() < 1e-10);
    }
}

#[test]
fn pattern_mismatch_is_reported() {
    let a = grid_laplacian_2d(5, 5);
    let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
    let wrong = grid_laplacian_2d(6, 6);
    assert!(analysis.factorize(&wrong, RuntimeKind::Native, 1).is_err());
    // Same order, but an entry the analysis never saw: the panel that
    // would hold it has no row for it, whichever task touches it first.
    let mut t = TripletBuilder::new(a.nrows(), a.ncols());
    for j in 0..a.ncols() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            t.push(i, j, v);
        }
    }
    t.push(24, 0, -0.5);
    t.push(0, 24, -0.5);
    let superset = t.build();
    for rt in RuntimeKind::ALL {
        match analysis.factorize(&superset, rt, 2) {
            Err(SolverError::PatternMismatch(msg)) => assert!(msg.contains("outside"), "{msg}"),
            other => panic!("{rt:?}: expected PatternMismatch, got {:?}", other.map(|_| "factors")),
        }
    }
}

/// One stored triangle of a symmetric matrix (the Matrix Market
/// `symmetric` convention).
fn lower_triangle(a: &CscMatrix<f64>) -> CscMatrix<f64> {
    let mut t = TripletBuilder::new(a.nrows(), a.ncols());
    for j in 0..a.ncols() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            if i >= j {
                t.push(i, j, v);
            }
        }
    }
    t.build()
}

/// A symmetric kind reads the lower triangle of `P·A·Pᵀ`, which holds
/// only part of a one-triangle matrix's entries once it is permuted:
/// that used to come back `Ok` with the factors of a different matrix
/// (residual 0.79 against the symmetric one on this input).
#[test]
fn symmetric_kinds_reject_a_matrix_stored_as_one_triangle() {
    let full = grid_laplacian_3d(8, 8, 8);
    let lower = lower_triangle(&full);
    let b = rhs_real(full.nrows());
    for facto in [FactoKind::Cholesky, FactoKind::Ldlt] {
        let analysis = Analysis::new(lower.pattern(), facto, &SolverOptions::default());
        match analysis.factorize(&lower, RuntimeKind::Ptg, 2) {
            Err(SolverError::PatternMismatch(msg)) => {
                assert!(msg.contains("symmetrize_from_lower"), "{facto:?}: the fix is not named: {msg}")
            }
            other => panic!("{facto:?}: expected PatternMismatch, got {:?}", other.map(|_| "factors")),
        }
        // The fix it names.
        let mirrored = lower.symmetrize_from_lower();
        let analysis = Analysis::new(mirrored.pattern(), facto, &SolverOptions::default());
        let x = analysis.factorize(&mirrored, RuntimeKind::Ptg, 2).unwrap().solve(&b);
        assert!(residual(&full, &x, &b) < 1e-10, "{facto:?}");
    }
    // LU takes the input as the triangular matrix it is.
    let analysis = Analysis::new(lower.pattern(), FactoKind::Lu, &SolverOptions::default());
    let x = analysis.factorize(&lower, RuntimeKind::Ptg, 2).unwrap().solve(&b);
    assert!(residual(&lower, &x, &b) < 1e-10);
    // A symmetric pattern with a diagonal entry left out is still one.
    let mut t = TripletBuilder::new(3, 3);
    for (i, j, v) in [(0, 0, 2.0), (2, 2, 2.0), (1, 0, 1.0), (0, 1, 1.0), (2, 1, 1.0), (1, 2, 1.0)] {
        t.push(i, j, v);
    }
    let a = t.build();
    let analysis = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
    assert!(analysis.pattern_symmetric);
    let x = analysis.factorize(&a, RuntimeKind::Ptg, 1).unwrap().solve(&[1.0, 2.0, 3.0]);
    assert!(residual(&a, &x, &[1.0, 2.0, 3.0]) < 1e-12);
}

/// The degenerate orders: a 0×0 matrix analyzes to zero panels and
/// factorizes and solves to empty results, a 1×1 one to its reciprocal,
/// under every kind and policy and through [`dagfact_core::Solver`].
#[test]
fn empty_and_scalar_systems_solve() {
    for n in [0usize, 1] {
        let mut t = TripletBuilder::new(n, n);
        (0..n).for_each(|i| t.push(i, i, 4.0));
        let a = t.build();
        let b = vec![2.0; n];
        for facto in [FactoKind::Cholesky, FactoKind::Ldlt, FactoKind::Lu] {
            let label = format!("{n}x{n} {facto:?}");
            let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
            assert_eq!(an.symbol.ncblk(), n, "{label}: panels");
            assert_eq!(an.stats().nnz_l, n, "{label}: nnz(L)");
            for rt in RuntimeKind::ALL {
                for threads in [1, 2] {
                    let f = an.factorize(&a, rt, threads);
                    let f = f.unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(f.solve(&b), vec![0.5; n], "{label}, {rt:?}");
                    assert_eq!(f.solve_many(&[b.clone(), b.clone()].concat(), 2), vec![0.5; 2 * n]);
                    let refined = f.solve_refined(&a, &b, 2, 1e-12);
                    assert_eq!(refined.x, vec![0.5; n], "{label}, {rt:?}");
                }
            }
            let solver = dagfact_core::Solver::with_options(
                &a,
                Some(facto),
                &SolverOptions::default(),
                RuntimeKind::Ptg,
                2,
            )
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(solver.solve(&b), vec![0.5; n], "{label}: Solver");
        }
    }
}
