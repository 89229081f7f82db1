//! Iterative refinement — the standard companion of static pivoting.
//!
//! PaStiX trades dynamic pivoting for a fixed task DAG; the numerical
//! accuracy lost on nearly-singular pivots is recovered by a few rounds of
//! residual correction: `r = b − A·x`, solve `A·δ = r`, `x ← x + δ`.

use crate::numeric::Factors;
use crate::SolverError;
use dagfact_kernels::Scalar;
use dagfact_sparse::CscMatrix;

/// Outcome of a refined solve.
#[derive(Debug, Clone)]
pub struct RefinedSolve<T> {
    /// The solution (the best iterate seen, if refinement stalled).
    pub x: Vec<T>,
    /// Backward-error history: ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞) after each
    /// step (entry 0 is the unrefined solve).
    pub residuals: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// `true` when refinement diverged (the backward error grew over two
    /// consecutive corrections) and was cut short: the factorization is
    /// too inaccurate and a re-factorization with a larger static-pivot
    /// threshold is the appropriate remedy.
    pub stalled: bool,
}

impl<T: Scalar> Factors<'_, T> {
    /// Solve with iterative refinement against the original matrix `a`.
    /// Stops when the backward error drops below `tol`, after `max_iter`
    /// corrections, or as soon as divergence is detected (backward error
    /// growing across two consecutive iterations — see
    /// [`RefinedSolve::stalled`]); on divergence the best iterate seen is
    /// restored.
    pub fn solve_refined(
        &self,
        a: &CscMatrix<T>,
        b: &[T],
        max_iter: usize,
        tol: f64,
    ) -> RefinedSolve<T> {
        let n = b.len();
        let norm_a = a.norm_inf();
        let norm_b = inf_norm(b);
        let tracer = self.trace.as_deref();
        let mut x = match tracer {
            Some(rec) => rec.phase("solve", || self.solve(b)),
            None => self.solve(b),
        };
        // ALLOC: TRACE: once per solve — the refinement's buffers and its span.
        let mut residuals = Vec::with_capacity(max_iter + 1);
        let mut r = vec![T::zero(); n];
        let mut iterations = 0;
        // Best iterate seen, restored on divergence: one buffer for the
        // whole refinement, not a clone per improving step.
        let mut best_x = vec![T::zero(); n];
        let mut best_berr = f64::INFINITY;
        let mut growths = 0usize;
        let mut stalled = false;
        let refine_from = tracer.map(|rec| rec.now_ns());
        for it in 0..=max_iter {
            // r = b - A x
            a.spmv(&x, &mut r);
            for (ri, &bi) in r.iter_mut().zip(b.iter()) {
                *ri = bi - *ri;
            }
            let berr = inf_norm(&r) / (norm_a * inf_norm(&x) + norm_b).max(f64::MIN_POSITIVE);
            // Divergence / stagnation detection (the LAPACK `gerfs`
            // criterion): a healthy correction shrinks the backward error
            // by orders of magnitude, so failing to even halve it twice in
            // a row — or growing it, or going non-finite — means the
            // factorization is too inaccurate for refinement to help.
            if let Some(&prev) = residuals.last() {
                growths = if !berr.is_finite() || berr > 0.5 * prev {
                    growths + 1
                } else {
                    0
                };
            }
            residuals.push(berr); // ALLOC: never grows past the capacity above.
            if berr < best_berr {
                best_berr = berr;
                best_x.copy_from_slice(&x);
            }
            if growths >= 2 || !berr.is_finite() {
                stalled = true;
                break;
            }
            if berr <= tol || it == max_iter {
                break;
            }
            let delta = self.solve(&r);
            for (xi, di) in x.iter_mut().zip(delta) {
                *xi += di;
            }
            iterations += 1;
        }
        if let (Some(rec), Some(from)) = (tracer, refine_from) {
            rec.phase_from("refine", from); // TRACE: once per solve.
        }
        if stalled && best_berr < f64::INFINITY {
            x = best_x;
        }
        RefinedSolve {
            x,
            residuals,
            iterations,
            stalled,
        }
    }

    /// [`Factors::solve_refined`] with divergence reported as an error:
    /// a stalled refinement that never reached `tol` becomes
    /// [`SolverError::RefinementStalled`] so callers (the adaptive solver
    /// loop, the CLI) can trigger a re-factorization.
    pub fn solve_refined_checked(
        &self,
        a: &CscMatrix<T>,
        b: &[T],
        max_iter: usize,
        tol: f64,
    ) -> Result<RefinedSolve<T>, SolverError> {
        let refined = self.solve_refined(a, b, max_iter, tol);
        // `x` is the best iterate, so judge by the best error reached.
        let best = refined
            .residuals
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        if refined.stalled && best > tol {
            return Err(SolverError::RefinementStalled {
                iterations: refined.iterations,
                last_berr: best,
            });
        }
        Ok(refined)
    }
}

/// ‖v‖∞ over scalar moduli.
pub fn inf_norm<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.modulus()).fold(0.0, f64::max)
}
