//! The analysis phase: ordering → symbolic factorization → block
//! structure → cost model (§III of the paper).
//!
//! Everything here is value-free. Thanks to static pivoting, the block
//! structure produced once by [`Analysis::new`] fixes every task DAG for
//! all subsequent factorizations, solves and simulations, so both DAGs are
//! built here, once ([`crate::tasks`]): the two words per block the
//! factorization's two-level graph is computed from
//! ([`Analysis::two_level`]). Only the dataflow policy derives edges per
//! run: inferring them at submission is that model. The triangular solve needs no graph: elimination order is
//! its schedule.

use crate::tasks::TaskGraph;
use dagfact_order::{compute_ordering, OrderingKind, Permutation};
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::cost::{critical_path_priorities, static_schedule, CostModel, TaskCosts};
use dagfact_symbolic::counts::column_counts;
use dagfact_symbolic::etree::{elimination_tree, postorder, relabel_parent};
use dagfact_symbolic::structure::{SplitOptions, SymbolMatrix};
use dagfact_symbolic::supernode::{
    amalgamate_counts, build_partition, detect_supernodes, AmalgamationOptions,
};
use dagfact_symbolic::FactoKind;

/// Analysis-phase tuning knobs.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Fill-reducing ordering (nested dissection by default, like
    /// PaStiX+SCOTCH).
    pub ordering: OrderingKind,
    /// Amalgamation fill budget; the paper raises it to 0.12 to build
    /// GPU-sized blocks.
    pub amalgamation: AmalgamationOptions,
    /// Vertical panel splitting (parallelism knob of §III).
    pub split: SplitOptions,
    /// Static-pivoting threshold, as a multiple of `‖A‖∞·ε`; 0 disables
    /// pivot repair.
    pub static_pivot_epsilon: f64,
    /// Upper bound on total factorization attempts in the adaptive
    /// recovery loop ([`crate::Solver`]): on numeric breakdown (zero or
    /// non-finite pivots, corrupted coefficients, stalled refinement) the
    /// solver re-factorizes with the static-pivot threshold escalated
    /// ×100 per attempt, up to this many attempts. 1 disables recovery.
    pub max_refactor_attempts: u32,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            ordering: OrderingKind::NestedDissection,
            amalgamation: AmalgamationOptions::default(),
            split: SplitOptions::default(),
            static_pivot_epsilon: 1e-8,
            max_refactor_attempts: 4,
        }
    }
}

/// Headline numbers of an analyzed problem — the columns of the paper's
/// Table I.
#[derive(Debug, Clone)]
pub struct AnalysisStats {
    /// Matrix order.
    pub n: usize,
    /// nnz of the (symmetrized) input pattern.
    pub nnz_a: usize,
    /// Predicted nnz of one factor.
    pub nnz_l: usize,
    /// Factorization flops in real arithmetic.
    pub flops_real: f64,
    /// Factorization flops in double-complex arithmetic.
    pub flops_complex: f64,
    /// Number of panels (column blocks).
    pub ncblk: usize,
    /// Number of blocks (= bound on update-task count, §V).
    pub nblocks: usize,
}

/// The result of the analysis phase: permutation + block symbolic
/// structure + per-task costs, ready to drive numeric factorization or
/// simulation.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Factorization kind this analysis was built for.
    pub facto: FactoKind,
    /// Combined fill-reducing + postorder permutation (`perm[old] = new`).
    pub perm: Permutation,
    /// Block symbolic structure of the factor.
    pub symbol: SymbolMatrix,
    /// The two-level panel/update graph of `symbol`, built once here.
    pub two_level: TaskGraph,
    /// nnz of the symmetrized pattern (for stats).
    pub nnz_a: usize,
    /// Symmetrizing the input pattern added no off-diagonal entry: what a
    /// symmetric factorization kind requires of it (`factorize` answers
    /// `PatternMismatch` otherwise).
    pub pattern_symmetric: bool,
    /// Options the analysis was built with.
    pub options: SolverOptions,
}

impl Analysis {
    /// Analyze a pattern for the given factorization kind.
    ///
    /// The pattern may be structurally unsymmetric: like PaStiX, the
    /// analysis works on `A + Aᵀ` (§III).
    pub fn new(pattern: &SparsityPattern, facto: FactoKind, options: &SolverOptions) -> Analysis {
        Self::new_traced(pattern, facto, options, None)
    }

    /// [`Analysis::new`] with an optional span recorder: the ordering and
    /// the symbolic factorization are recorded as `order` / `symbolic`
    /// phase spans (see [`dagfact_rt::TraceRecorder`]).
    pub fn new_traced(
        pattern: &SparsityPattern,
        facto: FactoKind,
        options: &SolverOptions,
        trace: Option<&dagfact_rt::TraceRecorder>,
    ) -> Analysis {
        assert_eq!(
            pattern.nrows(),
            pattern.ncols(),
            "direct solvers need square matrices"
        );
        let sym = pattern.symmetrize();
        // `sym` is the input plus its missing mirrors plus its missing
        // diagonal entries.
        let missing_diag = (0..pattern.ncols()).filter(|&j| !pattern.contains(j, j)).count();
        let pattern_symmetric = sym.nnz() == pattern.nnz() + missing_diag;
        // 1) Fill-reducing ordering.
        let order_from = trace.map(dagfact_rt::TraceRecorder::now_ns);
        let fill_perm = compute_ordering(&sym, options.ordering);
        let permuted = sym.permute_symmetric(fill_perm.perm());
        if let (Some(rec), Some(from)) = (trace, order_from) {
            rec.phase_from("order", from);
        }
        let symbolic_from = trace.map(dagfact_rt::TraceRecorder::now_ns);
        // 2) Elimination tree + postorder relabeling (supernode columns
        //    must be consecutive).
        let parent = elimination_tree(&permuted);
        let post = postorder(&parent);
        // `post[k]` is the pre-postorder label of new column `k`, i.e. the
        // gather form; `from_iperm` converts it to the scatter form that
        // `permute_symmetric` expects.
        let post_perm = Permutation::from_iperm(post.clone());
        let permuted = permuted.permute_symmetric(post_perm.perm());
        let parent = relabel_parent(&parent, &post);
        let perm = fill_perm.then(&post_perm);
        // 3) Column counts, supernodes, amalgamation (on the counts alone:
        //    row lists are built once, for the final groups), splitting.
        let (cc, _nnzl) = column_counts(&permuted, &parent);
        let first = detect_supernodes(&parent, &cc);
        let first = amalgamate_counts(&parent, &cc, &first, &options.amalgamation);
        let partition = build_partition(&permuted, &parent, first);
        let symbol = SymbolMatrix::from_partition(&partition, &options.split);
        debug_assert_eq!(symbol.validate(), Ok(()));
        let two_level = TaskGraph::build(&symbol);
        if let (Some(rec), Some(from)) = (trace, symbolic_from) {
            rec.phase_from("symbolic", from);
        }
        Analysis {
            facto,
            perm,
            symbol,
            two_level,
            nnz_a: sym.nnz(),
            pattern_symmetric,
            options: options.clone(),
        }
    }

    /// Per-task flop costs for the given arithmetic.
    pub fn costs(&self, complex: bool) -> TaskCosts {
        let model = if complex {
            CostModel::complex(self.facto)
        } else {
            CostModel::real(self.facto)
        };
        TaskCosts::compute(&self.symbol, &model)
    }

    /// Critical-path priorities of the panels.
    pub fn priorities(&self, costs: &TaskCosts) -> Vec<f64> {
        critical_path_priorities(&self.symbol, costs)
    }

    /// Static worker per panel for `nworkers` (PaStiX analyze-time
    /// mapping: the list schedule of the panels' 1D costs); the native
    /// policy's seed placement.
    pub fn static_owners(&self, costs: &TaskCosts, nworkers: usize) -> Vec<usize> {
        static_schedule(&self.symbol, costs, nworkers).owner
    }

    /// Table-I style statistics.
    pub fn stats(&self) -> AnalysisStats {
        let real = self.costs(false);
        let complex = self.costs(true);
        AnalysisStats {
            n: self.symbol.n,
            nnz_a: self.nnz_a,
            nnz_l: self.symbol.nnz_factor(),
            flops_real: real.total,
            flops_complex: complex.total,
            ncblk: self.symbol.ncblk(),
            nblocks: self.symbol.blocks.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfact_sparse::gen::{grid_laplacian_2d, grid_laplacian_3d, random_spd};

    #[test]
    fn analysis_pipeline_produces_valid_symbol() {
        let a = grid_laplacian_3d(8, 8, 8);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        an.symbol.validate().unwrap();
        assert_eq!(an.symbol.n, 512);
        assert_eq!(an.perm.len(), 512);
        let stats = an.stats();
        assert!(stats.nnz_l >= (stats.nnz_a - stats.n) / 2 + stats.n);
        assert!(stats.flops_real > 0.0);
        assert!(stats.flops_complex > 4.0 * stats.flops_real * 0.9);
    }

    #[test]
    fn nested_dissection_beats_natural_on_fill() {
        let a = grid_laplacian_2d(24, 24);
        let nd = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let natural = Analysis::new(
            a.pattern(),
            FactoKind::Cholesky,
            &SolverOptions {
                ordering: OrderingKind::Natural,
                ..SolverOptions::default()
            },
        );
        assert!(
            nd.stats().flops_real < natural.stats().flops_real,
            "ND {} vs natural {}",
            nd.stats().flops_real,
            natural.stats().flops_real
        );
    }

    #[test]
    fn lu_doubles_update_flops() {
        let a = random_spd(120, 4, 3);
        let chol = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let lu = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
        let fc = chol.stats().flops_real;
        let fl = lu.stats().flops_real;
        assert!(fl > 1.8 * fc && fl < 2.3 * fc, "{fc} vs {fl}");
    }

    #[test]
    fn permutation_is_consistent_with_symbol_width() {
        let a = random_spd(200, 3, 9);
        let an = Analysis::new(a.pattern(), FactoKind::Ldlt, &SolverOptions::default());
        // Every column covered by exactly one panel.
        let mut seen = vec![false; 200];
        for c in 0..an.symbol.ncblk() {
            let cb = &an.symbol.cblks[c];
            for sj in &mut seen[cb.fcol..cb.lcol] {
                assert!(!*sj);
                *sj = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn static_owners_cover_workers() {
        let a = grid_laplacian_2d(20, 20);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let costs = an.costs(false);
        let owners = an.static_owners(&costs, 4);
        assert_eq!(owners.len(), an.symbol.ncblk());
        let used: std::collections::HashSet<usize> = owners.iter().copied().collect();
        assert!(used.len() > 1, "static schedule used a single worker");
        assert!(used.iter().all(|&w| w < 4));
    }
}
