//! Shareable analysis/factor handles for long-lived solver services.
//!
//! The repeated-factorization regime the paper's runtime argument is
//! strongest in (FEM time-stepping, circuit simulation: *same sparsity
//! pattern, new values* and *same factors, new right-hand side*) needs
//! the analysis and the numeric factors to outlive a single call so a
//! cache can hand them to many requests. [`SharedFactors`] is that handle:
//! it owns an `Arc<Analysis>`, a clone of the factorized matrix (for
//! iterative refinement), and the numeric [`Factors`] borrowing the shared
//! analysis — the crate's one self-reference, made sharable by the `Arc`
//! (the analysis heap allocation is stable no matter how many caches and
//! jobs hold the handle). It also owns the adaptive recovery loop and its
//! one rule, `escalation`; [`crate::Solver`] is a thin owner of one
//! handle.

use crate::analysis::Analysis;
use crate::numeric::{ExecOptions, FactorStats, Factors};
use crate::refine::RefinedSolve;
use crate::SolverError;
use dagfact_kernels::{KernelError, Scalar};
use dagfact_rt::RuntimeKind;
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::Arc;

/// Every static-pivot ε the recovery loop may move to, in order: from
/// ε = 0 (pivot repair off) or the default 1e-8 up to 1e-2, past which
/// the "factorization" is no longer meaningful.
const EPSILON_SCHEDULE: [f64; 4] = [1e-8, 1e-6, 1e-4, 1e-2];

/// The recovery loop's one rule: the ε to re-factorize `a` at after `err`,
/// or `None` when another factorization cannot change the outcome. It
/// re-runs only when all of these hold, so a factorization runs at most
/// `min(max_refactor_attempts, 1 + the ε steps left)` times:
/// - the error is a numeric breakdown (zero or non-finite pivot,
///   non-finite panel, stalled refinement);
/// - the kind reads ε (Cholesky's threshold is 0 whatever ε is);
/// - attempts remain under [`crate::SolverOptions::max_refactor_attempts`];
/// - the input is finite: a non-finite entry breaks down at every ε (one
///   pass over the values, on this error path only);
/// - a larger ε is left on [`EPSILON_SCHEDULE`], so none is tried twice.
fn escalation<T: Scalar>(
    analysis: &Analysis,
    a: &CscMatrix<T>,
    history: &[f64],
    err: &SolverError,
) -> Option<f64> {
    use KernelError::{NonFinitePivot, ZeroPivot};
    let non_finite = match err {
        SolverError::Kernel(NonFinitePivot { .. }) | SolverError::NonFinite { .. } => true,
        SolverError::Kernel(ZeroPivot { .. }) | SolverError::RefinementStalled { .. } => false,
        _ => return None,
    };
    if analysis.facto == FactoKind::Cholesky
        || history.len() >= analysis.options.max_refactor_attempts as usize
        || (non_finite && !a.values().iter().all(|v| v.is_finite()))
    {
        return None;
    }
    let last = history.last().copied().unwrap_or(0.0);
    EPSILON_SCHEDULE.into_iter().find(|&e| e > last)
}

/// Numeric factors bound to a shared (`Arc`ed) analysis, self-contained
/// enough to be cached and served across requests: the handle carries
/// everything `solve` / `solve_refined` need.
pub struct SharedFactors<T: Scalar> {
    // Field order is load-bearing: `factors` borrows the Arc'ed analysis
    // below and must drop first (fields drop in declaration order).
    factors: Factors<'static, T>,
    matrix: CscMatrix<T>,
    analysis: Arc<Analysis>,
}

impl<T: Scalar> SharedFactors<T> {
    /// Numerically factorize `a` against the shared `analysis` under the
    /// adaptive recovery loop: a breakdown that a larger static-pivot
    /// threshold can change (`escalation`) re-runs at the next ε — the
    /// symbolic structure is threshold-independent, so only the numeric
    /// phase re-runs.
    pub fn factorize(
        analysis: Arc<Analysis>,
        a: &CscMatrix<T>,
        runtime: RuntimeKind,
        threads: usize,
        exec: &ExecOptions,
    ) -> Result<SharedFactors<T>, SolverError> {
        let epsilon = exec
            .epsilon_override
            .unwrap_or(analysis.options.static_pivot_epsilon);
        Self::recover(analysis, a, runtime, threads, exec, epsilon, Vec::new())
    }

    /// Re-factorize the same matrix one escalation step past these
    /// factors' threshold, continuing their attempt count and history;
    /// `cause` comes back when `escalation` allows no further step.
    pub(crate) fn refactorize_escalated(
        &self,
        cause: SolverError,
        runtime: RuntimeKind,
        threads: usize,
        exec: &ExecOptions,
    ) -> Result<SharedFactors<T>, SolverError> {
        let history = self.stats().epsilon_history.clone();
        let Some(epsilon) = escalation(&self.analysis, &self.matrix, &history, &cause) else {
            return Err(cause);
        };
        Self::recover(self.analysis.clone(), &self.matrix, runtime, threads, exec, epsilon, history)
    }

    /// The recovery loop. `history` holds the thresholds already spent
    /// (its length is the attempt count so far); the next attempt runs at
    /// `epsilon`.
    fn recover(
        analysis: Arc<Analysis>,
        a: &CscMatrix<T>,
        runtime: RuntimeKind,
        threads: usize,
        exec: &ExecOptions,
        mut epsilon: f64,
        mut history: Vec<f64>,
    ) -> Result<SharedFactors<T>, SolverError> {
        // SAFETY: `factors` borrows the analysis through this fake
        // 'static reference. The `Arc` heap allocation is stable for the
        // life of the returned struct (the struct holds a clone of the
        // Arc), the reference is never exposed with the fake lifetime,
        // and the field order drops the borrower first.
        let analysis_ref: &'static Analysis = unsafe { &*Arc::as_ptr(&analysis) };
        let factors = loop {
            history.push(epsilon);
            let attempt = history.len() as u32;
            let exec_try = ExecOptions {
                epsilon_override: Some(epsilon),
                ..exec.clone()
            };
            match analysis_ref.factorize_with::<T>(a, runtime, threads, &exec_try) {
                Ok(mut f) => {
                    f.stats.attempts = attempt;
                    f.stats.epsilon_history = history;
                    break f;
                }
                Err(e) => match escalation(&analysis, a, &history, &e) {
                    Some(next) => epsilon = next,
                    None => return Err(e),
                },
            }
        };
        Ok(SharedFactors {
            factors,
            matrix: a.clone(),
            analysis,
        })
    }

    /// The numeric factors (borrow shortened to `self`'s).
    pub(crate) fn factors(&self) -> &Factors<'_, T> {
        &self.factors
    }

    /// The matrix these factors were built from (and refine against).
    pub fn matrix(&self) -> &CscMatrix<T> {
        &self.matrix
    }

    /// The shared analysis these factors were built against.
    pub fn analysis(&self) -> &Arc<Analysis> {
        &self.analysis
    }

    /// Execution statistics of the factorization.
    pub fn stats(&self) -> &FactorStats {
        &self.factors.stats
    }

    /// Number of pivots bumped by static pivoting.
    pub fn pivots_repaired(&self) -> usize {
        self.factors.pivots_repaired
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.factors.solve(b)
    }

    /// Solve for `nrhs` column-major right-hand sides in blocked sweeps,
    /// split by columns over the threads the factors were built on
    /// ([`Factors::solve_many`]).
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        self.factors.solve_many(b, nrhs)
    }

    /// Solve with iterative refinement, reporting divergence as a typed
    /// error (the handle carries the matrix the factors were built from,
    /// so refinement needs no extra arguments).
    pub fn solve_refined_checked(
        &self,
        b: &[T],
        max_iter: usize,
        tol: f64,
    ) -> Result<RefinedSolve<T>, SolverError> {
        self.factors
            .solve_refined_checked(&self.matrix, b, max_iter, tol)
    }

    /// Resident footprint of the handle in bytes (coefficient storage +
    /// LDLᵀ diagonal + the retained matrix) — what a cache should charge
    /// to a [`dagfact_rt::MemoryBudget`] ledger for holding it.
    pub fn resident_bytes(&self) -> usize {
        let elt = core::mem::size_of::<T>();
        let coef = self.factors.tab.layout.total().saturating_mul(elt);
        let diag = self.factors.d.len().saturating_mul(elt);
        // CSC: values + row indices + column pointers.
        let matrix = self
            .matrix
            .nnz()
            .saturating_mul(elt + core::mem::size_of::<usize>())
            .saturating_add((self.matrix.ncols() + 1) * core::mem::size_of::<usize>());
        coef.saturating_add(diag).saturating_add(matrix)
    }
}

impl Analysis {
    /// Resident footprint of the analysis in bytes (permutation + block
    /// symbolic structure) — what a pattern cache should charge to a
    /// [`dagfact_rt::MemoryBudget`] ledger for holding it. An estimate:
    /// the symbol structure dominates and is counted exactly; small
    /// side tables are approximated; the two-level graph is two `u32` per
    /// block.
    pub fn resident_bytes(&self) -> usize {
        let usz = core::mem::size_of::<usize>();
        let perm = self.perm.perm().len().saturating_mul(2 * usz);
        let cblks = core::mem::size_of_val(&self.symbol.cblks[..]);
        let blocks = self
            .symbol
            .blocks
            .len()
            .saturating_mul(6 * usz + 2 * core::mem::size_of::<u32>())
            .saturating_add(self.symbol.col_to_cblk.len() * usz);
        perm.saturating_add(cblks).saturating_add(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_3d;
    use dagfact_symbolic::FactoKind;

    #[test]
    fn shared_factors_solve_multiple_rhs_from_one_analysis() {
        let a = grid_laplacian_3d(6, 6, 6);
        let analysis = Arc::new(Analysis::new(
            a.pattern(),
            FactoKind::Cholesky,
            &SolverOptions::default(),
        ));
        let sf = SharedFactors::factorize(
            analysis.clone(),
            &a,
            RuntimeKind::Native,
            2,
            &ExecOptions::default(),
        )
        .expect("factorize");
        // Same analysis, second factorization with scaled values: the
        // pattern handle is genuinely reusable.
        let scaled = CscMatrix::new(
            a.pattern().clone(),
            a.values().iter().map(|v| v * 2.0).collect(),
        );
        let sf2 = SharedFactors::factorize(
            analysis.clone(),
            &scaled,
            RuntimeKind::Native,
            2,
            &ExecOptions::default(),
        )
        .expect("refactorize");
        let n = a.nrows();
        let mut b = vec![0.0; n];
        a.spmv(&vec![1.0; n], &mut b);
        let r = sf.solve_refined_checked(&b, 2, 1e-12).expect("solve");
        assert!(r.residuals.last().copied().unwrap_or(1.0) < 1e-12);
        // 2A·x = b  →  x = ones/2.
        let x2 = sf2.solve(&b);
        assert!(x2.iter().all(|v| (v - 0.5).abs() < 1e-9), "scaled solve wrong");
        assert!(sf.resident_bytes() > 0);
        assert!(analysis.resident_bytes() > 0);
    }

    #[test]
    fn lu_coefficients_are_charged_and_counted_as_stored() {
        // L panels whole, Uᵀ panels without the square above their rows
        // below the diagonal block: the uncapped ledger's one charge and
        // the handle's footprint both count exactly that.
        use crate::coeftab::CoefTab;
        let a = dagfact_sparse::gen::convection_diffusion_3d(8, 8, 3, 0.3);
        let analysis =
            Arc::new(Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default()));
        let elt = core::mem::size_of::<f64>();
        let cblks = &analysis.symbol.cblks;
        let l: usize = cblks.iter().map(|cb| cb.stride * cb.width()).sum();
        let u: usize = cblks.iter().map(|cb| (cb.stride - cb.width()) * cb.width()).sum();
        let stored = (l + u) * elt;
        let budget = dagfact_rt::MemoryBudget::unbounded();
        drop(CoefTab::<f64>::reserve(&analysis, Some(&budget), None));
        assert_eq!(budget.peak(), stored, "the reservation's forced charge");
        let exec = ExecOptions::default();
        let sf = SharedFactors::factorize(analysis, &a, RuntimeKind::Native, 1, &exec)
            .expect("factorize");
        let usz = core::mem::size_of::<usize>();
        let matrix = a.nnz() * (elt + usz) + (a.ncols() + 1) * usz;
        assert!(sf.factors.d.is_empty(), "only LDLᵀ stores a diagonal");
        assert_eq!(sf.resident_bytes(), stored + matrix);
    }
}
