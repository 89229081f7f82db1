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
//! pager in [`CoefTab`], the pivot diagonal (`site::DIAG`) directly. Under
//! a hard cap the run degrades instead of failing, in pressure order:
//!
//! 1. **throttle** — the engines stop admitting new tasks past the
//!    budget's admission width (see `Supervisor::try_admit`);
//! 2. **spill** — a charge that does not fit evicts cold panels (those
//!    whose consumers are all done first, then least recently used) to
//!    the disk-backed [`crate::spill::SpillStore`]; they fault back in on
//!    the next touch (usually the solve), and only when nothing is
//!    evictable is the charge forced over the cap (counted).
//!
//! There is one update kernel at every pressure, so a capped run produces
//! the factors of the unconstrained run bit for bit.
//!
//! Task bodies pin every panel they touch and charge their workspace
//! *before* mutating anything, so an injected allocation failure
//! (`AllocFail`) at either is retry-safe: the engine re-runs the task
//! under every policy, and with no engine retry budget the adaptive
//! solver retries the factorization without escalating the pivot
//! threshold.

use crate::analysis::Analysis;
use crate::coeftab::{CoefTab, MemoryOptions, PanelSource};
use crate::tasks::TaskKind;
use crate::SolverError;
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{scratch_len, update_via_buffer, Scatter};
use dagfact_kernels::{getrf, ldlt, ldlt_apply_diag, pack_block, potrf, Scalar};
use dagfact_rt::budget::site;
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::sync::Mutex;
use dagfact_rt::{
    EngineError, FaultPlan, RunConfig, RunReport, RuntimeKind, SharedSlice, TransientFault,
};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::FactoKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// Global row index of each mapped row (LU's U-side scatter needs to
    /// know which rows fall inside the destination's diagonal block).
    row_glob: Vec<usize>,
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
    /// LDLᵀ diagonal (length n; unused otherwise).
    d: &'a SharedSlice<T>,
    /// Absolute static-pivot threshold.
    threshold: f64,
    /// Fault-injection plan for NaN output corruption (testing).
    fault: Option<Arc<FaultPlan>>,
    /// Engine retry budget allows at least one retry: a retry-safe pin
    /// failure may panic with [`TransientFault`] instead of poisoning
    /// the whole factorization.
    engine_retries: bool,
    /// Updates still reading each source panel; at zero the panel is
    /// retired to the pager (preferred spill victim).
    remaining_reads: Vec<AtomicUsize>,
    pivots_repaired: AtomicUsize,
    /// First error; once set, remaining tasks no-op.
    error: Mutex<Option<SolverError>>,
    workspaces: Vec<Mutex<Workspace<T>>>,
}

impl<'a, T: Scalar> NumericCtx<'a, T> {
    /// Context for `nworkers` workers over `tab`, whose untouched panels
    /// assemble from `source`. `run` is the engine configuration of the
    /// policy run: its fault plan and whether its retry budget allows a
    /// retry.
    fn new(
        analysis: &'a Analysis,
        tab: &'a CoefTab<T>,
        d: &'a SharedSlice<T>,
        threshold: f64,
        nworkers: usize,
        run: &RunConfig,
        source: PanelSource<'a, T>,
    ) -> NumericCtx<'a, T> {
        NumericCtx {
            analysis,
            tab,
            source,
            d,
            threshold,
            fault: run.fault_plan.clone(),
            engine_retries: run.retry.max_attempts > 1,
            remaining_reads: (analysis.symbol.cblks.iter())
                .map(|cb| AtomicUsize::new(cb.block_end - cb.block_begin - 1))
                .collect(),
            pivots_repaired: AtomicUsize::new(0),
            error: Mutex::new(None),
            workspaces: (0..nworkers.max(1))
                .map(|_| Mutex::new(Workspace::default()))
                .collect(),
        }
    }

    fn failed(&self) -> bool {
        self.error.lock().is_some()
    }

    fn record_error(&self, e: SolverError) {
        let mut guard = self.error.lock();
        if guard.is_none() {
            *guard = Some(e);
        }
    }

    /// Unwrap the result of a pin or a workspace charge, routing
    /// failures: a transient (injected) allocation fault panics with
    /// [`TransientFault`] when the engine has retry budget — every caller
    /// pins and charges before it mutates anything, so the engine re-runs
    /// the task and the consumed per-site fault budget lets the retry
    /// succeed. Everything else (and transient faults with no retry
    /// capacity) is recorded, so the factorization drains and the adaptive
    /// solver can retry without escalating the pivot threshold.
    fn ok_or_fail<R>(&self, r: Result<R, SolverError>, task: usize) -> Option<R> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                if self.engine_retries && e.is_transient_alloc() {
                    std::panic::panic_any(TransientFault { task, attempt: 0 });
                }
                self.record_error(e);
                None
            }
        }
    }

    /// Grow the charged high-water of a worker's `tmp` buffer to `elems`
    /// elements, through the pager: cold panels are evicted to make room
    /// and the charge overcommits only when nothing is evictable.
    fn charge_workspace(&self, ws: &mut Workspace<T>, elems: usize) -> Result<(), SolverError> {
        let bytes = elems * std::mem::size_of::<T>();
        if bytes > ws.tmp_charged {
            self.tab.charge_grow(bytes - ws.tmp_charged, site::WORKSPACE)?;
            ws.tmp_charged = bytes;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Panel task
    // ------------------------------------------------------------------

    /// Factorize panel `c` in place and solve its off-diagonal blocks.
    fn panel_task(&self, c: usize, worker: usize) {
        if self.failed() {
            return;
        }
        let (symbol, src) = (&self.analysis.symbol, Some(&self.source));
        let cb = &symbol.cblks[c];
        let (w, stride) = (cb.width(), cb.stride);
        let below = stride - w;
        // Pin before mutating anything: an allocation failure here is
        // retry-safe.
        let Some(lpin) = self.ok_or_fail(self.tab.pin_l(symbol, c, src), c) else {
            return;
        };
        let upin = if self.analysis.facto == FactoKind::Lu {
            match self.ok_or_fail(self.tab.pin_u(symbol, c, src), c) {
                Some(p) => Some(p),
                None => return,
            }
        } else {
            None
        };
        // SAFETY: the DAG gives panel(c) exclusive access to panel c: its
        // L side, its U side and its range of the diagonal.
        let l = unsafe { lpin.slice_mut() };
        let u: &mut [T] = match &upin {
            // SAFETY: as for L, on the U side.
            Some(up) => unsafe { up.slice_mut() },
            None => &mut [],
        };
        // SAFETY: as for L, on panel c's range of the diagonal.
        let d = unsafe { self.d.range_mut(cb.fcol..cb.lcol) };
        let mut ws = self.workspaces[worker].lock();
        let result: Result<(), SolverError> = (|| {
            match self.analysis.facto {
                FactoKind::Cholesky => {
                    potrf(w, l, stride)?;
                    if below > 0 {
                        copy_diag_block(l, stride, w, &mut ws.diag);
                        trsm(
                            Side::Right,
                            Uplo::Lower,
                            Trans::Trans,
                            Diag::NonUnit,
                            below,
                            w,
                            &ws.diag,
                            w,
                            &mut l[w..],
                            stride,
                        );
                    }
                }
                FactoKind::Ldlt => {
                    let repaired = ldlt(w, l, stride, d, self.threshold)?;
                    // ORDERING: statistics counter; no memory is
                    // published.
                    self.pivots_repaired.fetch_add(repaired, Ordering::Relaxed);
                    if below > 0 {
                        copy_diag_block(l, stride, w, &mut ws.diag);
                        trsm(
                            Side::Right,
                            Uplo::Lower,
                            Trans::Trans,
                            Diag::Unit,
                            below,
                            w,
                            &ws.diag,
                            w,
                            &mut l[w..],
                            stride,
                        );
                        ldlt_apply_diag(below, w, d, &mut l[w..], stride);
                    }
                }
                FactoKind::Lu => {
                    let stats = getrf(w, l, stride, self.threshold)?;
                    // ORDERING: statistics counter; no memory is
                    // published.
                    self.pivots_repaired.fetch_add(stats.repaired, Ordering::Relaxed);
                    if below > 0 {
                        copy_diag_block(l, stride, w, &mut ws.diag);
                        // L side: A_ik ← A_ik · U_kk⁻¹.
                        trsm(
                            Side::Right,
                            Uplo::Upper,
                            Trans::NoTrans,
                            Diag::NonUnit,
                            below,
                            w,
                            &ws.diag,
                            w,
                            &mut l[w..],
                            stride,
                        );
                        // U side (stored transposed): Uᵀ ← Uᵀ · L_kk⁻ᵀ.
                        trsm(
                            Side::Right,
                            Uplo::Lower,
                            Trans::Trans,
                            Diag::Unit,
                            below,
                            w,
                            &ws.diag,
                            w,
                            &mut u[w..],
                            stride,
                        );
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            return self.record_error(e);
        }
        // Fault injection: a NaN for the check below (and the recovery
        // above it) to find.
        if let Some(plan) = &self.fault {
            if plan.take_corruption(c) {
                l[0] = T::from_f64(f64::NAN);
            }
        }
        // The panel is final from here on, so this is the one place each
        // of its coefficients is checked: numeric breakdown the pivot
        // checks cannot see (corruption in off-diagonal blocks no later
        // pivot touches) must not reach the solve phase.
        let sides = [("L", &*l), ("U", &*u), ("D", &*d)];
        if let Some((task, _)) = sides.into_iter().find(|(_, v)| !all_finite(v)) {
            return self.record_error(SolverError::NonFinite { task, block: c });
        }
        // A panel with no updates is cold as soon as it is factored.
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
        let (symbol, src) = (&self.analysis.symbol, Some(&self.source));
        let cb = &symbol.cblks[c];
        let block = &symbol.blocks[bi];
        let j = block.facing;
        let n = block.nrows();
        let m = cb.stride - block.local_offset;
        // Pin every panel up front, before any mutation: a pin failure is
        // then retry-safe.
        let Some(lsrc_pin) = self.ok_or_fail(self.tab.pin_l(symbol, c, src), c) else {
            return;
        };
        let Some(ldst_pin) = self.ok_or_fail(self.tab.pin_l(symbol, j, src), c) else {
            return;
        };
        let upins = if self.analysis.facto == FactoKind::Lu {
            let Some(us) = self.ok_or_fail(self.tab.pin_u(symbol, c, src), c) else {
                return;
            };
            let Some(ud) = self.ok_or_fail(self.tab.pin_u(symbol, j, src), c) else {
                return;
            };
            Some((us, ud))
        } else {
            None
        };
        let mut ws = self.workspaces[worker].lock();
        let ws = &mut *ws;
        // Charge the GEMM buffer before any mutation, so a failure routes
        // like a failed pin.
        let scratch = scratch_len(m, n, cb.width(), self.analysis.facto == FactoKind::Ldlt);
        let Some(()) = self.ok_or_fail(self.charge_workspace(ws, scratch), c) else {
            return;
        };
        // SAFETY: the DAG guarantees panel c is read-only here, and the
        // chain into panel j orders its writers; the two panels are
        // distinct allocations held by their pins.
        let lsrc = unsafe { lsrc_pin.slice() };
        // SAFETY: as above, the chain into panel j orders its writers.
        let ldst = unsafe { ldst_pin.slice_mut() };
        let tcb = &symbol.cblks[j];
        let k = cb.width();
        build_row_map(symbol, c, bi, j, &mut ws.row_map, &mut ws.row_glob);
        let col_off = block.frow - tcb.fcol;
        let a1 = &lsrc[block.local_offset..];
        let a2 = &lsrc[block.local_offset..];
        // `upins` is there exactly for LU.
        match &upins {
            None => {
                // LDLᵀ rescales by D inside every update ("the full LDLᵀ
                // operation at each update", §V-A).
                // SAFETY: d[cols of c] was finalized by panel(c).
                let d = (self.analysis.facto == FactoKind::Ldlt)
                    .then(|| unsafe { self.d.range(cb.fcol..cb.lcol) });
                update_via_buffer(
                    m, n, k,
                    -T::one(),
                    a1, cb.stride,
                    a2, cb.stride,
                    d,
                    &mut ws.tmp,
                    ldst, tcb.stride,
                    Scatter { row_map: &ws.row_map, col_offset: col_off },
                );
            }
            Some((us, ud)) => {
                // SAFETY: same discipline as the L side.
                let (usrc, udst) = unsafe { (us.slice(), ud.slice_mut()) };
                let ut = &usrc[block.local_offset..];
                // C_L -= L[R≥b, c] · (Uᵀ[R_b, c])ᵀ
                update_via_buffer(
                    m, n, k,
                    -T::one(),
                    a1, cb.stride,
                    ut, cb.stride,
                    None,
                    &mut ws.tmp,
                    ldst, tcb.stride,
                    Scatter { row_map: &ws.row_map, col_offset: col_off },
                );
                // C_U -= Uᵀ[R>b, c] · (L[R_b, c])ᵀ for the rows strictly
                // below block b (the diagonal part went into C_L's full
                // square). The destination splits in two:
                //   * rows inside the target's column range are the upper
                //     triangle of the target's *diagonal block*, stored
                //     transposed in the L panel (full square);
                //   * rows beyond go into the target's U panel.
                if m > n {
                    let mu = m - n;
                    let ut_below = &usrc[block.local_offset + n..];
                    let a2l = &lsrc[block.local_offset..];
                    // The L-side call above left `ws.tmp` at least m·n
                    // long; β = 0 overwrites its stale contents.
                    let tmp = &mut ws.tmp[..mu * n];
                    gemm(
                        Trans::NoTrans,
                        Trans::Trans,
                        mu, n, k,
                        T::one(),
                        ut_below, cb.stride,
                        a2l, cb.stride,
                        T::zero(),
                        tmp, mu,
                    );
                    for jj in 0..n {
                        // Column of the target panel.
                        let cglob = block.frow + jj;
                        for ii in 0..mu {
                            let r = ws.row_glob[n + ii]; // global row (r > cglob)
                            let v = tmp[jj * mu + ii];
                            if r < tcb.lcol {
                                // U[cglob, r] inside the diagonal block:
                                // column r of the L panel, storage row of
                                // cglob.
                                ldst[(r - tcb.fcol) * tcb.stride + (cglob - tcb.fcol)] -= v;
                            } else {
                                // Uᵀ[r, cglob] in the U panel.
                                udst[(cglob - tcb.fcol) * tcb.stride + ws.row_map[n + ii]] -= v;
                            }
                        }
                    }
                }
            }
        }
        // This update has consumed its read of panel c; the last one
        // hands the panel to the pager as a preferred spill victim.
        if self.remaining_reads[c].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.tab.retire(c);
        }
    }
}

/// No NaN or infinity in `v`.
fn all_finite<T: Scalar>(v: &[T]) -> bool {
    v.iter().all(|x| x.modulus().is_finite())
}

/// Copy the leading `w×w` block of a panel into the front of the compact,
/// grow-only `out` (leading dimension `w`). Every one of the `w²` elements
/// is overwritten, so nothing is cleared first; the right TRSM reads only
/// the triangle its `uplo` names, so one full copy serves all three
/// factorization kinds.
fn copy_diag_block<T: Scalar>(panel: &[T], stride: usize, w: usize, out: &mut Vec<T>) {
    if out.len() < w * w {
        out.resize(w * w, T::zero());
    }
    pack_block(w, w, panel, stride, out);
}

/// Destination storage row (`out`) and global index (`glob`) of every
/// source-panel row at-or-below block `bi`, by a merge walk over the two
/// sorted block lists.
fn build_row_map(
    symbol: &dagfact_symbolic::SymbolMatrix,
    c: usize,
    bi: usize,
    j: usize,
    out: &mut Vec<usize>,
    glob: &mut Vec<usize>,
) {
    out.clear();
    glob.clear();
    let cb = &symbol.cblks[c];
    let tblocks = symbol.panel_blocks(j);
    let mut ti = 0usize;
    for sb in &symbol.blocks[bi..cb.block_end] {
        for row in sb.frow..sb.lrow {
            while !(tblocks[ti].frow <= row && row < tblocks[ti].lrow) {
                ti += 1;
                assert!(
                    ti < tblocks.len(),
                    "source row {row} missing from target panel {j} (symbolic closure violated)"
                );
            }
            out.push(tblocks[ti].local_offset + (row - tblocks[ti].frow));
            glob.push(row);
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
    /// Runtime fault layer: injection plan, retry policy, stall watchdog,
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
    /// The runtime engine's execution report (task counts, retries,
    /// injected faults, memory counters, elapsed time).
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
    /// plan and retry/watchdog configuration for the engine, an optional
    /// memory budget (allocation accounting, pressure-aware degradation,
    /// out-of-core spilling), and an optional static-pivot override.
    /// Engine failures (task panics, exhausted retry budgets, scheduler
    /// stalls) surface as [`SolverError::Engine`]; every panel task
    /// checks the panel it just finished, so non-finite coefficients are
    /// answered with [`SolverError::NonFinite`]. A symmetric kind on an
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
        // Wire the fault plan into the budget before anything is charged,
        // so every charge sees injected faults.
        if let (Some(b), Some(plan)) = (&exec.run.budget, &exec.run.fault_plan) {
            b.set_fault_plan(plan.clone());
        }
        let mem = MemoryOptions {
            budget: exec.run.budget.clone(),
            spill_dir: exec.spill_dir.clone(),
        };
        let tracer = exec.run.trace.clone();
        if let Some(rec) = &tracer {
            // A recovery-loop retry re-runs the numeric phase with task
            // ids starting over: only the final attempt's timeline should
            // be analyzed (phase spans are kept).
            rec.reset_tasks();
        }
        // The coefficients arrive inside the graph, at first touch.
        let reserve = || CoefTab::reserve(self, &mem).map(|tab| (tab, PanelSource::new(self, a)));
        let (tab, source) = match &tracer {
            Some(rec) => rec.phase("assembly", reserve),
            None => reserve(),
        }?;
        let d_bytes = self.symbol.n * std::mem::size_of::<T>();
        if let Some(b) = &exec.run.budget {
            // The diagonal is O(n) — forced (never degrades), but still
            // visible to accounting and injection.
            b.charge_forced(d_bytes, site::DIAG)
                .map_err(SolverError::from_budget)?;
            b.end_phase("assembly");
        }
        let d: SharedSlice<T> = SharedSlice::from_vec(vec![T::zero(); self.symbol.n]);
        // Static pivoting threshold ε·‖A‖∞ (PaStiX-style); Cholesky has
        // its own positivity check instead.
        let epsilon = exec
            .epsilon_override
            .unwrap_or(self.options.static_pivot_epsilon);
        let threshold = if self.facto == FactoKind::Cholesky {
            0.0
        } else {
            epsilon * a.norm_inf().max(1.0)
        };
        let ctx = NumericCtx::new(self, &tab, &d, threshold, nthreads, &exec.run, source);
        let run_numeric = || -> Result<RunReport, SolverError> {
            let report = self.run_engine(&ctx, runtime, nthreads, exec.run.clone());
            // A task-level error is the root cause when present (the
            // engine drains cleanly around it); otherwise an engine error
            // is fatal on its own.
            if let Some(e) = ctx.error.lock().take() {
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
        if let Some(b) = &exec.run.budget {
            for wsm in &ctx.workspaces {
                let mut ws = wsm.lock();
                b.release(ws.tmp_charged);
                ws.tmp_charged = 0;
            }
            b.release(d_bytes);
            b.end_phase("factorization");
        }
        let mut report = outcome?;
        if let Some(b) = &exec.run.budget {
            // Refresh: the engine's snapshot predates the scratch releases
            // above.
            report.memory = Some(b.stats());
        }
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
