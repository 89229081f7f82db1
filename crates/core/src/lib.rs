//! # dagfact-core
//!
//! A task-based supernodal sparse direct solver — the Rust reproduction of
//! PaStiX as studied in *"Taking advantage of hybrid systems for sparse
//! direct solvers via task-based runtimes"* (Lacoste et al., IPDPS
//! Workshops 2014).
//!
//! The solver factorizes structurally-symmetric sparse systems `A·x = b`
//! with Cholesky (`LLᵀ`), `LDLᵀ` or static-pivoting `LU`, in real or
//! double-complex arithmetic, through three interchangeable task runtimes
//! (the paper's PaStiX-native / StarPU / PaRSEC comparison), and can
//! *simulate* its own factorization on a parameterized hybrid CPU+GPU
//! platform to reproduce the paper's performance studies.
//!
//! ```no_run
//! use dagfact_core::{Analysis, SolverOptions};
//! use dagfact_symbolic::FactoKind;
//! use dagfact_rt::RuntimeKind;
//! use dagfact_sparse::gen::grid_laplacian_3d;
//!
//! let a = grid_laplacian_3d(20, 20, 20);
//! let analysis = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
//! let factors = analysis.factorize(&a, RuntimeKind::Ptg, 4).unwrap();
//! let b = vec![1.0; a.nrows()];
//! let x = factors.solve(&b);
//! ```

// Structured `SolverError`s, not unwraps, in library code (tests: clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used)]
// No console or file I/O and no sleeping but where a site allows it in
// place (clippy.toml's disallowed methods).
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro, clippy::disallowed_methods)]

pub mod analysis;
pub mod coeftab;
pub mod distributed;
pub mod numeric;
pub mod refine;
pub mod service;
pub mod simulate;
pub mod solve;
pub mod solver;
pub mod spill;
pub mod tasks;
pub mod verify;

pub use analysis::{Analysis, AnalysisStats, SolverOptions};
pub use distributed::{comm_study_json, fan_in_study, CommStats, FanInStudy};
pub use numeric::{ExecOptions, FactorStats, Factors};
pub use refine::RefinedSolve;
pub use service::SharedFactors;
pub use solver::Solver;
pub use simulate::{build_sim_dag, sim_chrome_trace, simulate_factorization, SimOptions};

pub use dagfact_rt::RuntimeKind;
pub use dagfact_symbolic::FactoKind;

/// Solver errors.
#[derive(Debug)]
pub enum SolverError {
    /// A diagonal-block factorization kernel failed (non-SPD matrix given
    /// to Cholesky, or an exactly-zero pivot with no static-pivot
    /// threshold).
    Kernel(dagfact_kernels::KernelError),
    /// The matrix handed to `factorize` does not match the analyzed
    /// pattern.
    PatternMismatch(String),
    /// The runtime engine failed: a task panicked, the scheduler stalled,
    /// or the run was cancelled.
    Engine(dagfact_rt::EngineError),
    /// A panel task found NaN/Inf coefficients in the panel it had just
    /// finished: a non-finite input entry, or a finite one whose update
    /// overflowed, that escaped the pivot checks. Only the second can be
    /// rescued by a larger static-pivot threshold, so the recovery loop
    /// re-factorizes only when every input value is finite.
    /// `task` names the storage array (`"L"`, `"U"` or `"D"`), `block` the
    /// panel it sits in.
    NonFinite { task: &'static str, block: usize },
    /// Iterative refinement diverged: the backward error grew over two
    /// consecutive corrections — the factorization is too inaccurate for
    /// refinement to recover (typically after heavy static pivoting).
    RefinementStalled { iterations: usize, last_berr: f64 },
    /// The memory budget's hard cap cannot be met even by spilling — a
    /// single panel or workspace larger than the whole cap.
    /// `site` is the budget allocation site (`dagfact_rt::budget::site`).
    BudgetExceeded {
        requested: usize,
        used: usize,
        cap: usize,
        site: usize,
    },
    /// The disk-backed spill store failed (I/O error writing or faulting
    /// a panel back in).
    Spill(String),
}

impl core::fmt::Display for SolverError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SolverError::Kernel(e) => write!(f, "kernel failure: {e}"),
            SolverError::PatternMismatch(msg) => write!(f, "pattern mismatch: {msg}"),
            SolverError::Engine(e) => write!(f, "engine failure: {e}"),
            SolverError::NonFinite { task, block } => write!(
                f,
                "non-finite coefficients in {task} panel {block} as its panel task finished"
            ),
            SolverError::RefinementStalled { iterations, last_berr } => write!(
                f,
                "iterative refinement diverging after {iterations} step(s) \
                 (backward error {last_berr:.3e})"
            ),
            SolverError::BudgetExceeded {
                requested,
                used,
                cap,
                site,
            } => write!(
                f,
                "memory budget exceeded beyond recovery: requested {requested} B at \
                 site {site} with {used} B of {cap} B charged (even spilling cannot \
                 make progress)"
            ),
            SolverError::Spill(msg) => write!(f, "spill store failure: {msg}"),
        }
    }
}

impl std::error::Error for SolverError {}

impl From<dagfact_kernels::KernelError> for SolverError {
    fn from(e: dagfact_kernels::KernelError) -> Self {
        SolverError::Kernel(e)
    }
}

impl From<dagfact_rt::EngineError> for SolverError {
    fn from(e: dagfact_rt::EngineError) -> Self {
        SolverError::Engine(e)
    }
}

impl SolverError {
    /// `true` when the run was cancelled through a
    /// [`dagfact_rt::CancelToken`] (deadline, shutdown): the factors
    /// never materialized, nothing about the problem itself is wrong,
    /// and the same job resubmitted without the deadline would likely
    /// succeed.
    pub fn is_cancelled(&self) -> bool {
        matches!(
            self,
            SolverError::Engine(dagfact_rt::EngineError::Cancelled { .. })
        )
    }

    /// Map a budget-layer refusal into the solver error space.
    pub fn from_budget(e: dagfact_rt::BudgetError) -> Self {
        let dagfact_rt::BudgetError::Exceeded {
            requested,
            used,
            cap,
            site,
        } = e;
        SolverError::BudgetExceeded {
            requested,
            used,
            cap,
            site,
        }
    }
}
