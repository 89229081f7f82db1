//! One-stop convenience API: pick the factorization, analyze, factorize
//! and solve in a single call chain.
//!
//! [`Solver`] wraps the lower-level [`Analysis`]/[`crate::Factors`] pair for
//! users who just want `x = solve(A, b)`:
//!
//! ```
//! use dagfact_core::solver::Solver;
//! use dagfact_sparse::gen::grid_laplacian_3d;
//!
//! let a = grid_laplacian_3d(8, 8, 8);
//! let solver = Solver::auto(&a).unwrap();
//! let b = vec![1.0; a.nrows()];
//! let x = solver.solve(&b);
//! # let mut ax = vec![0.0; a.nrows()];
//! # a.spmv(&x, &mut ax);
//! # assert!(ax.iter().zip(&b).all(|(l, r)| (l - r).abs() < 1e-9));
//! ```

use crate::analysis::{Analysis, SolverOptions};
use crate::numeric::{ExecOptions, FactorStats};
use crate::refine::RefinedSolve;
use crate::service::SharedFactors;
use crate::SolverError;
use dagfact_kernels::Scalar;
use dagfact_rt::RuntimeKind;
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;

/// Does this failure indicate the *factorization kind* does not fit the
/// matrix (as opposed to an engine fault or non-finite data)? Drives the
/// auto-selection fallback chain in [`Solver::with_exec`].
fn kind_mismatch(e: &SolverError) -> bool {
    matches!(
        e,
        SolverError::Kernel(
            dagfact_kernels::KernelError::NotPositiveDefinite { .. }
                | dagfact_kernels::KernelError::ZeroPivot { .. }
        )
    )
}

/// A factorized linear system ready to solve, owning its analysis: one
/// [`SharedFactors`] handle plus what it takes to re-factorize it. The
/// recovery loop is the handle's; the kind fallback chain and the
/// refinement-driven re-factorization are this type's own.
pub struct Solver<T: Scalar> {
    shared: SharedFactors<T>,
    exec: ExecOptions,
    runtime: RuntimeKind,
    threads: usize,
}

impl<T: Scalar> Solver<T> {
    /// Analyze + factorize `a`, picking the factorization automatically:
    /// symmetric matrices try Cholesky and fall back to LDLᵀ on
    /// indefiniteness; unsymmetric values get static-pivoting LU.
    pub fn auto(a: &CscMatrix<T>) -> Result<Solver<T>, SolverError> {
        let threads = std::thread::available_parallelism().map_or(1, |v| v.get());
        Self::with_options(a, None, &SolverOptions::default(), RuntimeKind::Ptg, threads)
    }

    /// Full-control constructor. `facto = None` selects automatically.
    pub fn with_options(
        a: &CscMatrix<T>,
        facto: Option<FactoKind>,
        options: &SolverOptions,
        runtime: RuntimeKind,
        threads: usize,
    ) -> Result<Solver<T>, SolverError> {
        Self::with_exec(a, facto, options, runtime, threads, &ExecOptions::default())
    }

    /// [`Solver::with_options`] plus execution options: fault-injection
    /// plan, stall watchdog and memory budget for the runtime engine.
    #[allow(clippy::expect_used)] // the plan is never empty
    pub fn with_exec(
        a: &CscMatrix<T>,
        facto: Option<FactoKind>,
        options: &SolverOptions,
        runtime: RuntimeKind,
        threads: usize,
        exec: &ExecOptions,
    ) -> Result<Solver<T>, SolverError> {
        let symmetric = a.is_symmetric();
        let plan: Vec<FactoKind> = match facto {
            Some(k) => vec![k],
            None if symmetric && !T::IS_COMPLEX => {
                vec![FactoKind::Cholesky, FactoKind::Ldlt]
            }
            None if symmetric => vec![FactoKind::Ldlt],
            None => vec![FactoKind::Lu],
        };
        let nkinds = plan.len();
        let mut last_err = None;
        for (i, kind) in plan.into_iter().enumerate() {
            let analysis = Arc::new(Analysis::new_traced(
                a.pattern(),
                kind,
                options,
                exec.run.trace.as_deref(),
            ));
            match SharedFactors::factorize(analysis, a, runtime, threads, exec) {
                Ok(shared) => {
                    return Ok(Solver {
                        shared,
                        exec: exec.clone(),
                        runtime,
                        threads,
                    })
                }
                // Only an unsuitable-factorization failure justifies
                // trying the next kind: a non-positive or dead pivot says
                // "not SPD / needs pivoting", but engine faults and
                // non-finite coefficients say nothing about the kind —
                // falling back there would mask the real failure (and
                // mislabel, e.g., an injected fault as indefiniteness).
                Err(e) if i + 1 < nkinds && kind_mismatch(&e) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last_err.expect("plan is never empty"))
    }

    /// Solve with iterative refinement and adaptive recovery: when
    /// refinement stalls (the factorization is too inaccurate — heavy
    /// static pivoting on an ill-conditioned matrix), re-factorize at the
    /// next static-pivot threshold and try again, under the handle's one
    /// escalation rule: never for Cholesky, never at an ε already tried,
    /// and at most [`SolverOptions::max_refactor_attempts`] total
    /// factorizations. The escalation history ends up in
    /// [`Solver::stats`]. A failed re-factorization leaves the previous
    /// factors in place.
    pub fn solve_adaptive(
        &mut self,
        b: &[T],
        max_iter: usize,
        tol: f64,
    ) -> Result<RefinedSolve<T>, SolverError> {
        loop {
            match self.shared.solve_refined_checked(b, max_iter, tol) {
                Ok(r) => return Ok(r),
                Err(e) => {
                    self.shared =
                        self.shared
                            .refactorize_escalated(e, self.runtime, self.threads, &self.exec)?;
                }
            }
        }
    }

    /// Execution statistics of the current factorization: engine run
    /// report, pivot-threshold escalation history, attempt count.
    pub fn stats(&self) -> &FactorStats {
        self.shared.stats()
    }

    /// The factorization kind actually used.
    pub fn facto(&self) -> FactoKind {
        self.analysis().facto
    }

    /// The underlying analysis (statistics, symbol structure…).
    pub fn analysis(&self) -> &Analysis {
        self.shared.analysis()
    }

    /// Number of pivots repaired by static pivoting.
    pub fn pivots_repaired(&self) -> usize {
        self.shared.pivots_repaired()
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.shared.solve(b)
    }

    /// Solve for several right-hand sides (column-major).
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        self.shared.solve_many(b, nrhs)
    }

    /// Solve with iterative refinement; recommended whenever static
    /// pivoting repaired pivots.
    pub fn solve_refined(&self, b: &[T], max_iter: usize, tol: f64) -> RefinedSolve<T> {
        self.shared
            .factors()
            .solve_refined(self.shared.matrix(), b, max_iter, tol)
    }

    /// Backward error `‖b − A·x‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` of a solution.
    pub fn backward_error(&self, x: &[T], b: &[T]) -> f64 {
        let a = self.shared.matrix();
        let n = b.len();
        let mut r = vec![T::zero(); n];
        a.spmv(x, &mut r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let num = crate::refine::inf_norm(&r);
        let den = a.norm_inf() * crate::refine::inf_norm(x) + crate::refine::inf_norm(b);
        num / den.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_kernels::C64;
    use dagfact_sparse::gen::{
        convection_diffusion_3d, grid_laplacian_3d, helmholtz_3d, shifted_laplacian_3d,
    };

    #[test]
    fn auto_picks_cholesky_for_spd() {
        let a = grid_laplacian_3d(6, 6, 6);
        let s = Solver::auto(&a).unwrap();
        assert_eq!(s.facto(), FactoKind::Cholesky);
        let b = vec![1.0; a.nrows()];
        let x = s.solve(&b);
        assert!(s.backward_error(&x, &b) < 1e-12);
    }

    #[test]
    fn auto_falls_back_to_ldlt_for_indefinite() {
        let a = shifted_laplacian_3d(5, 5, 5, 1.0);
        let s = Solver::auto(&a).unwrap();
        assert_eq!(s.facto(), FactoKind::Ldlt);
        let b = vec![1.0; a.nrows()];
        let x = s.solve(&b);
        assert!(s.backward_error(&x, &b) < 1e-12);
    }

    #[test]
    fn auto_picks_lu_for_unsymmetric() {
        let a = convection_diffusion_3d(5, 5, 4, 0.4);
        let s = Solver::auto(&a).unwrap();
        assert_eq!(s.facto(), FactoKind::Lu);
        let b = vec![1.0; a.nrows()];
        let x = s.solve(&b);
        assert!(s.backward_error(&x, &b) < 1e-12);
    }

    #[test]
    fn auto_picks_ldlt_for_complex_symmetric() {
        let a = helmholtz_3d(5, 4, 4, 1.5, 0.5);
        let s = Solver::auto(&a).unwrap();
        assert_eq!(s.facto(), FactoKind::Ldlt);
        let b: Vec<C64> = (0..a.nrows()).map(|i| C64::new(1.0, i as f64 * 0.1)).collect();
        let x = s.solve(&b);
        assert!(s.backward_error(&x, &b) < 1e-12);
    }

    #[test]
    fn refined_solve_through_the_wrapper() {
        let a = convection_diffusion_3d(5, 5, 5, 0.45);
        let s = Solver::auto(&a).unwrap();
        let b = vec![2.0; a.nrows()];
        let r = s.solve_refined(&b, 3, 1e-14);
        assert!(*r.residuals.last().unwrap() < 1e-12);
    }
}
