//! Numeric factorization: the task bodies and their execution over the
//! three runtimes (§V of the paper).
//!
//! * **panel(c)** — factorize the diagonal block (POTRF / LDLᵀ / static-
//!   pivot GETRF) and apply it to the panel's off-diagonal blocks (TRSM);
//! * **update(c, b)** — apply the outer product of block `b` with the
//!   sub-panel at-and-below `b` to the facing panel (the sparse GEMM,
//!   buffer-then-scatter on CPUs).
//!
//! Every policy runs these two task bodies over the one two-level DAG
//! ([`crate::tasks`]), and the factorization *is* that graph. Before it
//! only the panels' storage is reserved (and `Aᵀ` built for LU — the
//! recorder's `assembly` span); the first task to pin a panel zero-fills
//! it and gathers its entries of `A` ([`PanelSource`]), and each panel
//! task ends by checking the panel it has just made final for NaN/Inf
//! ([`SolverError::NonFinite`]), so no serial pass precedes or follows
//! the engine.
//!
//! The LDLᵀ update rescales by `D` inside each call
//! ("the full LDLᵀ operation at each update", §V-A). PaStiX's per-panel
//! `D·Lᵀ` buffer trick — the reason it wins on `pmlDF` and `Serena` in
//! the paper — measured no end-to-end gain here and is modelled only in
//! the simulator (`gpusim::kernelmodel`).
//!
//! # Memory-budgeted execution
//!
//! When [`ExecOptions::run`] carries a [`MemoryBudget`], every large
//! allocation of the factorization is charged to it: the coefficient
//! panels and the per-worker GEMM buffers (`site::WORKSPACE`) through the
//! pager in [`CoefTab`], the LDLᵀ diagonal directly. Under a hard cap
//! the run degrades instead of failing, by demand paging alone: a charge
//! that does not fit evicts cold panels (those whose consumers are all
//! done first, then least recently used) to the disk-backed
//! [`crate::spill::SpillStore`]; they fault back in on the next touch
//! (usually the solve). A task that still finds no room waits for another
//! task to finish, and only with none running is it forced over the cap
//! (counted).
//!
//! There is one update kernel at every pressure, so a capped run produces
//! the factors of the unconstrained run bit for bit.
//!
//! A task body takes what its [`TaskKind::accesses`] declares — every
//! panel, plus its worker's GEMM-buffer growth — in one
//! [`CoefTab::acquire`] *before* mutating anything, so a refused charge
//! (`BudgetExceeded`) fails the factorization without leaving a
//! half-written panel.

use crate::analysis::Analysis;
use crate::coeftab::{CoefTab, PanelSide, PanelSource, TaskPins};
use crate::tasks::TaskKind;
use crate::SolverError;
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{scratch_len, update_via_buffer, Scatter};
use dagfact_kernels::{getrf, ldlt, ldlt_apply_diag, pack_block, potrf, Scalar};
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::sync::Mutex;
use dagfact_rt::{EngineError, RunConfig, RunReport, RuntimeKind, SharedSlice};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Per-worker scratch memory ("constant memory overhead per working
/// thread", §V-B).
#[derive(Default)]
struct Workspace<T> {
    /// GEMM result buffer (buffer-then-scatter strategy).
    tmp: Vec<T>,
    /// Copy of the diagonal block for aliasing-free TRSM.
    diag: Vec<T>,
    /// Row scatter map (destination storage rows).
    row_map: Vec<usize>,
    /// Bytes of `tmp` currently charged to the budget (high-water; the
    /// charge is released once when the factorization finishes). The
    /// small O(blocksize²) `diag`/`row_map` scratch is deliberately not
    /// accounted.
    tmp_charged: usize,
}

/// Everything the task bodies need, shared across workers.
struct NumericCtx<'a, T: Scalar> {
    analysis: &'a Analysis,
    tab: &'a CoefTab<T>,
    /// The matrix entries a panel's first pin fills it from.
    source: PanelSource<'a, T>,
    /// LDLᵀ diagonal (length n; empty otherwise).
    d: &'a SharedSlice<T>,
    /// Absolute static-pivot threshold.
    threshold: f64,
    /// Updates still reading each source panel; at zero the panel is
    /// retired to the pager (preferred spill victim).
    remaining_reads: Vec<AtomicUsize>,
    pivots_repaired: AtomicUsize,
    /// First error; once set, remaining tasks no-op. A task's "has the
    /// run failed" check is one load, not a lock.
    error: OnceLock<SolverError>,
    workspaces: Vec<Mutex<Workspace<T>>>,
}

impl<'a, T: Scalar> NumericCtx<'a, T> {
    /// Context for `nworkers` workers over `tab`, whose untouched panels
    /// assemble from `source`.
    fn new(
        analysis: &'a Analysis,
        tab: &'a CoefTab<T>,
        d: &'a SharedSlice<T>,
        threshold: f64,
        nworkers: usize,
        source: PanelSource<'a, T>,
    ) -> NumericCtx<'a, T> {
        NumericCtx {
            analysis,
            tab,
            source,
            d,
            threshold,
            remaining_reads: (analysis.symbol.cblks.iter())
                .map(|cb| AtomicUsize::new(cb.block_end - cb.block_begin - 1))
                .collect(),
            pivots_repaired: AtomicUsize::new(0),
            error: OnceLock::new(),
            workspaces: (0..nworkers.max(1))
                .map(|_| Mutex::new(Workspace::default()))
                .collect(),
        }
    }

    fn failed(&self) -> bool {
        self.error.get().is_some()
    }

    /// Keep `e` unless an error is already recorded: the first one wins.
    fn record_error(&self, e: SolverError) {
        let _ = self.error.set(e);
    }

    /// A task body's one acquisition and one failure route: `task`'s
    /// declared panels and its worker's `tmp` buffer charged up to
    /// `scratch` elements, before anything is mutated. A failure is
    /// recorded, so the remaining tasks no-op and the factorization
    /// returns it.
    fn acquire(&self, task: TaskKind, ws: &mut Workspace<T>, scratch: usize) -> Option<TaskPins<'a, T>> {
        let grow = (scratch * std::mem::size_of::<T>()).saturating_sub(ws.tmp_charged);
        let set = self.tab.acquire(task, &self.source, grow).map_err(|e| self.record_error(e)).ok()?;
        ws.tmp_charged += grow;
        Some(set)
    }

    // ------------------------------------------------------------------
    // Panel task
    // ------------------------------------------------------------------

    /// Factorize panel `c` in place and solve its off-diagonal blocks.
    fn panel_task(&self, c: usize, worker: usize) {
        if self.failed() {
            return;
        }
        // BOUNDS: the DAG's panel ids are < ncblk.
        let cb = &self.analysis.symbol.cblks[c];
        let (w, stride) = (cb.width(), cb.stride);
        let below = stride - w;
        // LOCK: the worker's own workspace, never contended: the executor
        // runs one task at a time per worker id.
        // BOUNDS: worker < nworkers == workspaces.len().
        let mut ws = self.workspaces[worker].lock();
        let Some(set) = self.acquire(TaskKind::Panel { cblk: c }, &mut ws, 0) else {
            return;
        };
        // SAFETY: the DAG gives panel(c) exclusive access to panel c: its
        // L side, its U side (empty without one) and its range of the
        // diagonal (LDLᵀ only).
        let (l, u) = unsafe { (set.slice_mut(c, PanelSide::L), set.slice_mut(c, PanelSide::U)) };
        let d: &mut [T] = match self.analysis.facto {
            // SAFETY: as above.
            FactoKind::Ldlt => unsafe { self.d.range_mut(cb.fcol..cb.lcol) },
            _ => &mut [],
        };
        // Factor the diagonal block, then solve each stored side's
        // off-diagonal rows against a copy of it.
        let factored = match self.analysis.facto {
            FactoKind::Cholesky => potrf(w, l, stride).map(|()| 0),
            FactoKind::Ldlt => ldlt(w, l, stride, d, self.threshold),
            FactoKind::Lu => getrf(w, l, stride, self.threshold).map(|stats| stats.repaired),
        };
        match factored {
            // ORDERING: statistics counter; no memory is published.
            Ok(repaired) => self.pivots_repaired.fetch_add(repaired, Ordering::Relaxed),
            Err(e) => return self.record_error(e.into()),
        };
        if below > 0 {
            copy_diag_block(l, stride, w, &mut ws.diag);
            // BOUNDS: w <= stride: `l[w..]` is the panel's off-diagonal rows.
            let (diag, off) = (&ws.diag, &mut l[w..]);
            match self.analysis.facto {
                // L ← L · L_kk⁻ᵀ.
                FactoKind::Cholesky => {
                    trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, below, w, diag, w, off, stride)
                }
                // L ← L · L_kk⁻ᵀ · D⁻¹, unit L_kk.
                FactoKind::Ldlt => {
                    trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::Unit, below, w, diag, w, off, stride);
                    ldlt_apply_diag(below, w, d, off, stride);
                }
                // L side: L ← L · U_kk⁻¹. U side (stored transposed, the
                // rows below the diagonal block only): Uᵀ ← Uᵀ · L_kk⁻ᵀ.
                FactoKind::Lu => {
                    trsm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, below, w, diag, w, off, stride);
                    trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::Unit, below, w, diag, w, u, below);
                }
            }
        }
        // The panel is final from here on, so this is the one place each
        // of its coefficients is checked: numeric breakdown the pivot
        // checks cannot see (a non-finite entry in an off-diagonal block
        // no later pivot touches) must not reach the solve phase.
        let sides = [("L", &*l), ("U", &*u), ("D", &*d)];
        if let Some((task, _)) = sides.into_iter().find(|(_, v)| !all_finite(v)) {
            return self.record_error(SolverError::NonFinite { task, block: c });
        }
        // A panel with no updates is cold as soon as it is factored.
        // BOUNDS: one counter per panel.
        if self.remaining_reads[c].load(Ordering::Acquire) == 0 {
            self.tab.retire(c);
        }
    }

    // ------------------------------------------------------------------
    // Update task
    // ------------------------------------------------------------------

    /// Apply update task of global block `bi` from panel `c` onto its
    /// facing panel. The caller's DAG must order the updates into a common
    /// target against each other (the chain into the panel, `crate::tasks`).
    fn update_task(&self, c: usize, bi: usize, worker: usize) {
        if self.failed() {
            return;
        }
        let symbol = &self.analysis.symbol;
        // BOUNDS: the DAG's update (c, bi) names panel c < ncblk and one
        // of its blocks bi < nblocks.
        let cb = &symbol.cblks[c];
        let block = &symbol.blocks[bi];
        let j = block.facing;
        let n = block.nrows();
        let m = cb.stride - block.local_offset;
        // LOCK: the worker's own workspace, as in `panel_task`.
        // BOUNDS: worker < nworkers == workspaces.len().
        let mut ws = self.workspaces[worker].lock();
        let ws = &mut *ws;
        let scratch = scratch_len(m, n, cb.width(), self.analysis.facto == FactoKind::Ldlt);
        let Some(set) = self.acquire(TaskKind::Update { cblk: c, block: bi, target: j }, ws, scratch) else {
            return;
        };
        // SAFETY: the DAG guarantees panel c is read-only here, and the
        // chain into panel j orders its writers; the two panels are
        // distinct allocations held by the set.
        let (lsrc, ldst) = unsafe { (set.slice(c, PanelSide::L), set.slice_mut(j, PanelSide::L)) };
        // BOUNDS: j = block.facing is a panel id, and block b's
        // local_offset lies inside panel c's stride rows.
        let tcb = &symbol.cblks[j];
        let k = cb.width();
        build_row_map(symbol, c, bi, j, &mut ws.row_map);
        let col_off = block.frow - tcb.fcol;
        let a1 = &lsrc[block.local_offset..];
        let lu = self.analysis.facto == FactoKind::Lu;
        // SAFETY: same discipline as the L side; empty without a U side.
        let (usrc, udst) = unsafe { (set.slice(c, PanelSide::U), set.slice_mut(j, PanelSide::U)) };
        // A Uᵀ panel stores the L panel's rows from the width on, shifted
        // up by the width. BOUNDS: k <= local_offset.
        let (ldu, tldu) = (cb.height_below(), tcb.height_below());
        // C_L -= L[R≥b, c] · (L[R_b, c])ᵀ, or LU's (Uᵀ[R_b, c])ᵀ. LDLᵀ
        // rescales by D inside every update ("the full LDLᵀ operation at
        // each update", §V-A).
        let (a2, lda2) = if lu { (&usrc[block.local_offset - k..], ldu) } else { (a1, cb.stride) };
        // SAFETY: d[cols of c] was finalized by panel(c).
        let d = (self.analysis.facto == FactoKind::Ldlt).then(|| unsafe { self.d.range(cb.fcol..cb.lcol) });
        let scatter = Scatter { row_map: &ws.row_map, col_offset: col_off };
        update_via_buffer(m, n, k, -T::one(), a1, cb.stride, a2, lda2, d, &mut ws.tmp, ldst, tcb.stride, scatter);
        // C_U -= Uᵀ[R>b, c] · (L[R_b, c])ᵀ for the rows strictly below
        // block b (the diagonal part went into C_L's full square). The
        // destination splits in two:
        //   * rows inside the target's column range are the upper
        //     triangle of the target's *diagonal block*, stored
        //     transposed in the L panel (full square);
        //   * rows beyond go into the target's U panel.
        // The diagonal block is the target's first block, so a row lies in
        // it exactly when its (ascending) storage row is below the
        // target's width, and that storage row is `r − fcol`.
        if lu && m > n {
            // BOUNDS: block b's n rows end inside the panel, and the call
            // above left `ws.tmp` at least m·n long; β = 0 overwrites its
            // stale contents.
            let mu = m - n;
            let (ut_below, tmp) = (&usrc[block.local_offset + n - k..], &mut ws.tmp[..mu * n]);
            gemm(Trans::NoTrans, Trans::Trans, mu, n, k, T::one(), ut_below, ldu, a1, cb.stride, T::zero(), tmp, mu);
            // BOUNDS: the map holds m = n + mu rows.
            let below = &ws.row_map[n..m];
            let split = below.partition_point(|&row| row < tcb.width());
            for jj in 0..n {
                // Storage row of the target column cglob = frow + jj.
                let col = block.frow + jj - tcb.fcol;
                // BOUNDS: tmp is mu×n; a row below `split` lies in the
                // target's diagonal block, the rest in its U panel.
                let vals = &tmp[jj * mu..(jj + 1) * mu];
                for (&row, &v) in below[..split].iter().zip(&vals[..split]) {
                    // U[cglob, r] inside the diagonal block: column r of
                    // the L panel, storage row of cglob.
                    ldst[row * tcb.stride + col] -= v;
                }
                for (&row, &v) in below[split..].iter().zip(&vals[split..]) {
                    // Uᵀ[r, cglob] in the U panel, from row `tcb.width()` on.
                    udst[col * tldu + row - tcb.width()] -= v;
                }
            }
        }
        // This update has consumed its read of panel c; the last one
        // hands the panel to the pager as a preferred spill victim.
        // BOUNDS: one counter per panel.
        if self.remaining_reads[c].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.tab.retire(c);
        }
    }
}

/// No NaN or infinity in `v`. A fold that never stops early, so the
/// loop vectorizes; no square root per complex entry.
fn all_finite<T: Scalar>(v: &[T]) -> bool {
    v.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Copy the leading `w×w` block of a panel into the front of the compact,
/// grow-only `out` (leading dimension `w`). Every one of the `w²` elements
/// is overwritten, so nothing is cleared first; the right TRSM reads only
/// the triangle its `uplo` names, so one full copy serves all three
/// factorization kinds.
fn copy_diag_block<T: Scalar>(panel: &[T], stride: usize, w: usize, out: &mut Vec<T>) {
    if out.len() < w * w {
        // ALLOC: grow-only: each worker's copy reaches the widest panel
        // once per factorization.
        out.resize(w * w, T::zero());
    }
    pack_block(w, w, panel, stride, out);
}

/// Destination storage row (`out`) of every source-panel row at-or-below
/// block `bi`, by a merge walk over the two sorted block lists.
fn build_row_map(
    symbol: &dagfact_symbolic::SymbolMatrix,
    c: usize,
    bi: usize,
    j: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    // BOUNDS: c and bi name the update's panel and block, j its facing
    // panel; the walk stays inside `tblocks` by the assert below.
    let cb = &symbol.cblks[c];
    let tblocks = symbol.panel_blocks(j);
    let mut ti = 0usize;
    for sb in &symbol.blocks[bi..cb.block_end] {
        for row in sb.frow..sb.lrow {
            while !(tblocks[ti].frow <= row && row < tblocks[ti].lrow) {
                ti += 1;
                // PANIC: the symbolic closure: every source row has a row
                // in the target panel. A miss is an analysis bug.
                assert!(
                    ti < tblocks.len(),
                    "source row {row} missing from target panel {j} (symbolic closure violated)"
                );
            }
            // ALLOC: cleared, not freed: each worker's maps grow to the
            // tallest update once per factorization.
            // BOUNDS: ti < tblocks.len() by the walk above.
            out.push(tblocks[ti].local_offset + (row - tblocks[ti].frow));
        }
    }
}

// ---------------------------------------------------------------------
// Public entry: factorize over a runtime
// ---------------------------------------------------------------------

/// Execution-time options for one factorization run (as opposed to the
/// analysis-time [`crate::SolverOptions`]): the fault-tolerance
/// configuration handed to the runtime engine, the memory-budget spill
/// directory, plus the static-pivot override used by the adaptive retry
/// loop.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Runtime fault layer: injection plan, stall watchdog, cancellation,
    /// and the memory budget (`RunConfig::budget`) every allocation is
    /// charged to.
    pub run: RunConfig,
    /// Overrides [`crate::SolverOptions::static_pivot_epsilon`] when set.
    /// The symbolic structure does not depend on the threshold, so the
    /// recovery loop can escalate it without re-running the analysis.
    pub epsilon_override: Option<f64>,
    /// Base directory for spilled panels when the budget has a hard cap
    /// (default: system temp dir).
    pub spill_dir: Option<std::path::PathBuf>,
}

/// How a factorization went: the data behind the paper-style run logs and
/// the recovery loop's decisions.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Static-pivot epsilon actually used (threshold = ε·‖A‖∞).
    pub epsilon: f64,
    /// Every epsilon tried by the adaptive recovery loop, in order; the
    /// last entry produced these factors. A single-attempt factorization
    /// has exactly one entry.
    pub epsilon_history: Vec<f64>,
    /// Factorization attempts performed by the recovery loop (≥ 1).
    pub attempts: u32,
    /// The runtime engine's execution report (task counts, injected
    /// faults, memory counters, elapsed time).
    pub run: RunReport,
}

/// The numeric factors produced by [`Analysis::factorize`].
pub struct Factors<'a, T: Scalar> {
    /// The analysis this factorization is based on.
    pub analysis: &'a Analysis,
    /// Coefficient storage (L, and Uᵀ for LU).
    pub tab: CoefTab<T>,
    /// LDLᵀ diagonal (empty for other kinds).
    pub d: Vec<T>,
    /// Number of pivots bumped by static pivoting.
    pub pivots_repaired: usize,
    /// Workers the factorization ran on: [`Factors::solve_many`] splits
    /// its right-hand sides over up to this many threads.
    pub nthreads: usize,
    /// Execution statistics (engine report, pivot-escalation history).
    pub stats: FactorStats,
    /// Span recorder inherited from the factorizing [`ExecOptions`]; the
    /// solve and refine phases record into it when present.
    pub trace: Option<std::sync::Arc<dagfact_rt::TraceRecorder>>,
}

impl Analysis {
    /// Numerically factorize `a` on `nthreads` workers of the chosen
    /// runtime. `a` must have the analyzed pattern (same matrix order; a
    /// superset pattern is rejected).
    pub fn factorize<'a, T: Scalar>(
        &'a self,
        a: &CscMatrix<T>,
        runtime: RuntimeKind,
        nthreads: usize,
    ) -> Result<Factors<'a, T>, SolverError> {
        self.factorize_with(a, runtime, nthreads, &ExecOptions::default())
    }

    /// [`Analysis::factorize`] with explicit execution options: a fault
    /// plan and watchdog for the engine, an optional memory budget
    /// (allocation accounting, pressure-aware degradation, out-of-core
    /// spilling), and an optional static-pivot override. Engine failures
    /// (task panics, scheduler stalls, cancellation) surface as
    /// [`SolverError::Engine`]; every panel task checks the panel it just
    /// finished, so non-finite coefficients are answered with
    /// [`SolverError::NonFinite`]. A symmetric kind on an
    /// analysis whose input pattern was not symmetric is a
    /// [`SolverError::PatternMismatch`], like a matrix of another order
    /// or with an entry outside the analyzed pattern.
    pub fn factorize_with<'a, T: Scalar>(
        &'a self,
        a: &CscMatrix<T>,
        runtime: RuntimeKind,
        nthreads: usize,
        exec: &ExecOptions,
    ) -> Result<Factors<'a, T>, SolverError> {
        self.accepts(a)?;
        let nthreads = nthreads.max(1);
        let tracer = exec.run.trace.clone();
        if let Some(rec) = &tracer {
            // A recovery-loop retry re-runs the numeric phase with task
            // ids starting over: only the final attempt's timeline should
            // be analyzed (phase spans are kept).
            rec.reset_tasks();
        }
        // The coefficients arrive inside the graph, at first touch.
        let budget = exec.run.budget.as_ref();
        let reserve = || (CoefTab::reserve(self, budget, exec.spill_dir.as_deref()), PanelSource::new(self, a));
        let (tab, source) = match &tracer {
            Some(rec) => rec.phase("assembly", reserve),
            None => reserve(),
        };
        // LDLᵀ's diagonal is O(n) — forced (never degrades), but still
        // visible to accounting. No other kind stores one.
        let d_len = if self.facto == FactoKind::Ldlt { self.symbol.n } else { 0 };
        let d_bytes = d_len * std::mem::size_of::<T>();
        if let Some(b) = budget {
            b.charge_forced(d_bytes);
        }
        let d: SharedSlice<T> = SharedSlice::from_vec(vec![T::zero(); d_len]);
        // Static pivoting threshold ε·‖A‖∞ (PaStiX-style); Cholesky has
        // its own positivity check instead, and ε = 0 turns repair off even
        // when ‖A‖∞ is infinite.
        let epsilon = exec
            .epsilon_override
            .unwrap_or(self.options.static_pivot_epsilon);
        let threshold = if self.facto == FactoKind::Cholesky || epsilon <= 0.0 {
            0.0
        } else {
            epsilon * a.norm_inf().max(1.0)
        };
        let mut ctx = NumericCtx::new(self, &tab, &d, threshold, nthreads, source);
        let mut run_numeric = || -> Result<RunReport, SolverError> {
            let report = self.run_engine(&ctx, runtime, nthreads, exec.run.clone());
            // A task-level error is the root cause when present (the
            // engine drains cleanly around it); otherwise an engine error
            // is fatal on its own.
            if let Some(e) = ctx.error.take() {
                return Err(e);
            }
            Ok(report?)
        };
        let outcome: Result<RunReport, SolverError> = match &tracer {
            Some(rec) => rec.phase("numeric", run_numeric),
            None => run_numeric(),
        };
        // Scratch charges are released on every path so a solver-level
        // retry starts from a balanced ledger (the coefficient panels
        // release through `CoefTab`'s own drop).
        if let Some(b) = budget {
            for wsm in &ctx.workspaces {
                let mut ws = wsm.lock();
                b.release(ws.tmp_charged);
                ws.tmp_charged = 0;
            }
            b.release(d_bytes);
        }
        let mut report = outcome?;
        // The ledger's counters, read after the scratch releases above
        // (the engine takes no snapshot of its own).
        report.memory = exec.run.budget.as_ref().map(|b| b.stats());
        // ORDERING: statistics counter, read after the engine's join
        // barrier — no concurrent writer remains.
        let pivots = ctx.pivots_repaired.load(Ordering::Relaxed);
        Ok(Factors {
            analysis: self,
            tab,
            d: d.into_vec(),
            pivots_repaired: pivots,
            nthreads,
            stats: FactorStats {
                epsilon,
                epsilon_history: vec![epsilon],
                attempts: 1,
                run: report,
            },
            trace: tracer,
        })
    }

    /// Can `a` be factorized on this analysis? The order must match, and
    /// a symmetric kind reads only the lower triangle of `P·A·Pᵀ` — of a
    /// pattern that was not symmetric (one stored triangle, say) that is
    /// part of the entries, and the factors those of a different matrix.
    pub(crate) fn accepts<T: Scalar>(&self, a: &CscMatrix<T>) -> Result<(), SolverError> {
        if a.nrows() != self.symbol.n || a.ncols() != self.symbol.n {
            return Err(SolverError::PatternMismatch(format!(
                "analyzed order {} but matrix is {}x{}",
                self.symbol.n,
                a.nrows(),
                a.ncols()
            )));
        }
        if self.facto != FactoKind::Lu && !self.pattern_symmetric {
            return Err(SolverError::PatternMismatch(format!(
                "{:?} needs both triangles stored but the analyzed pattern is not symmetric; \
                 expand a lower-stored matrix with `CscMatrix::symmetrize_from_lower`",
                self.facto
            )));
        }
        Ok(())
    }

    /// Run `runtime`'s [`Analysis::program`] over the task bodies of `ctx`,
    /// registering each task's (kind, panel, flops) and the edges with the
    /// run's trace recorder, if any.
    fn run_engine<T: Scalar>(
        &self,
        ctx: &NumericCtx<'_, T>,
        runtime: RuntimeKind,
        nthreads: usize,
        config: RunConfig,
    ) -> Result<RunReport, EngineError> {
        let program = self.program(runtime, nthreads, T::IS_COMPLEX, |task, worker| match task {
            TaskKind::Panel { cblk } => ctx.panel_task(cblk, worker),
            TaskKind::Update { cblk, block, .. } => ctx.update_task(cblk, block, worker),
        });
        if let Some(rec) = &config.trace {
            let (mut edges, mut succs) = (Vec::new(), Vec::new());
            for t in 0..program.num_tasks() {
                let task = program.kind(t);
                rec.set_task_meta(t, task.name(), task.cblk(), program.flops(task));
                succs.clear();
                program.successors(t, &mut succs);
                edges.extend(succs.iter().map(|&s| (t, s)));
            }
            rec.set_edges(edges);
        }
        dagfact_rt::exec::run(&program, runtime, nthreads, config)
    }
}

#[cfg(test)]
mod tests {
    use super::all_finite;
    use dagfact_kernels::C64;

    #[test]
    fn the_finite_sweep_flags_nan_and_infinities_only() {
        // 1e200 is finite but its square is not: a verdict through the
        // complex modulus (|z|² first) would call it non-finite.
        let huge = 1e200;
        assert!(all_finite(&[1.0, -huge, huge, f64::MAX, 0.0]));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut v = [1.0, huge, 2.0, 3.0, 4.0];
            v[3] = bad;
            assert!(!all_finite(&v), "{bad} passed");
        }
        let z = |re, im| C64::new(re, im);
        assert!(all_finite(&[z(huge, huge), z(-huge, 1.0), z(0.0, f64::MAX)]));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!all_finite(&[z(1.0, 1.0), z(bad, 0.0)]), "re {bad} passed");
            assert!(!all_finite(&[z(0.0, bad), z(1.0, 1.0)]), "im {bad} passed");
        }
        assert!(all_finite::<f64>(&[]));
    }
}
