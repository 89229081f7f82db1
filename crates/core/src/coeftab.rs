//! Coefficient storage: the dense panels of the factor, behind a pager.
//!
//! Each column block of the symbol structure owns one dense column-major
//! panel (`stride × width`). PaStiX calls this the *coeftab*. For LU two
//! coeftabs exist: `L` (which also holds the full, square diagonal blocks)
//! and `U`, stored **transposed** so the U panel shares the L panel's row
//! structure below the diagonal block and every kernel stays column-major.
//! The U panel holds only those rows, `(stride − width) × width` (the
//! diagonal block lives whole in the L panel); each side is reserved and
//! charged by its own length ([`PanelLayout`]).
//!
//! Storage is *per panel* (one slot each). A panel is
//!
//! * **untouched** — no contents yet: its first pin zero-fills it and
//!   gathers its entries of `A` from a [`PanelSource`] ("coefficient
//!   initialization"). In a factorization that is whichever task reaches
//!   the panel first, so assembly is not a serial phase before the graph;
//! * **resident** — live dense storage;
//! * **spilled** — written to the disk-backed [`SpillStore`] and faulted
//!   back in on the next touch (only under a memory cap).
//!
//! The two ledger modes differ only in *when storage is obtained*:
//! without a cap [`CoefTab::reserve`] takes every panel's capacity up
//! front, on the calling thread and in slot order (no page is written
//! until the panel is), and nothing ever spills; under a cap the first pin
//! allocates and charges the [`MemoryBudget`], so the working set — not
//! the whole factor — must fit. [`CoefTab::assemble`] ("fully assembled
//! on return") is a reservation plus a pin of every slot.
//!
//! Access goes through [`CoefTab::pin_l`]/[`CoefTab::pin_u`], which
//! return a [`PanelPin`] guard: while pins are outstanding the pager
//! will not evict the panel.
//!
//! Dropping an unbudgeted tab leaves one element allocated (`HEAP_PIN`):
//! glibc hands the top of the heap back to the OS once a dropped factor
//! leaves it free, and the next factorization then faults its ~90 MB in
//! again (DESIGN.md §9).

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::analysis::Analysis;
use crate::spill::SpillStore;
use crate::SolverError;
use dagfact_kernels::Scalar;
use dagfact_rt::budget::{site, MemoryBudget};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::structure::SymbolMatrix;
use dagfact_symbolic::FactoKind;

/// Panel sizes: storage is per panel, this is the canonical description
/// of how long each one is and of each side's total.
#[derive(Debug, Clone)]
pub struct PanelLayout {
    /// Total length of the L side's panels, `Σ stride·width`.
    pub len: usize,
    /// Total length of the Uᵀ side's panels, `Σ (stride − width)·width`
    /// (0 without a U side).
    pub u_len: usize,
}

impl PanelLayout {
    /// Compute the layout for a symbol structure, with a U side for `lu`.
    pub fn new(symbol: &SymbolMatrix, lu: bool) -> PanelLayout {
        let ncblk = symbol.ncblk();
        let side = |keys: std::ops::Range<usize>| keys.map(|k| Self::panel_len(symbol, k)).sum();
        PanelLayout { len: side(0..ncblk), u_len: if lu { side(ncblk..2 * ncblk) } else { 0 } }
    }

    /// Length of slot `key`'s panel: L panel `key` (`key < ncblk`), else
    /// Uᵀ panel `key − ncblk`, the rows below its diagonal block.
    pub fn panel_len(symbol: &SymbolMatrix, key: usize) -> usize {
        let ncblk = symbol.ncblk();
        // BOUNDS: `key` names a slot of `symbol`'s column blocks (caller
        // contract; anything else is a bug worth the panic).
        let cb = &symbol.cblks[key % ncblk];
        let rows = if key < ncblk { cb.stride } else { cb.height_below() };
        rows * cb.width()
    }

    /// Elements stored over both sides.
    pub fn total(&self) -> usize {
        self.len + self.u_len
    }
}

/// Lifecycle of one panel's storage.
enum SlotState<T> {
    /// Never pinned: length 0, and without a cap already the panel's
    /// capacity.
    Untouched(Vec<T>),
    /// Live dense storage.
    Resident(Vec<T>),
    /// On disk in the spill store.
    Spilled,
}

/// One panel slot: its state plus the pager bookkeeping.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    /// Outstanding [`PanelPin`]s; an evictor skips pinned slots.
    /// Increments happen under the state lock, so lock-plus-zero-check
    /// is a sound eviction guard; decrements (pin drops) are lock-free.
    pins: AtomicUsize,
    /// Lock-free mirror of `matches!(state, Resident)` for the eviction
    /// scan (conservative: transitions happen under the state lock).
    resident: AtomicBool,
    /// Last-touch stamp for LRU eviction.
    stamp: AtomicU64,
    /// All factorization consumers are done: preferred spill victim.
    retired: AtomicBool,
}

impl<T> Slot<T> {
    /// An untouched slot over `storage` (length 0).
    fn new(storage: Vec<T>) -> Slot<T> {
        Slot {
            state: Mutex::new(SlotState::Untouched(storage)),
            pins: AtomicUsize::new(0),
            resident: AtomicBool::new(false),
            stamp: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII access to one resident panel. While alive, the pager will not
/// evict the panel; the pointer stays valid (the backing `Box` is only
/// moved out by eviction, which requires zero pins under the slot lock).
pub struct PanelPin<'a, T> {
    slot: &'a Slot<T>,
    ptr: *mut T,
    len: usize,
}

impl<T> PanelPin<'_, T> {
    /// Panel length in elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the panel empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the panel.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent mutable access to this
    /// panel — the same happens-before contract as
    /// [`dagfact_rt::SharedSlice::slice`], discharged by the engines'
    /// dependency ordering (and machine-checked by `rt::verify`).
    pub unsafe fn slice(&self) -> &[T] {
        // SAFETY: ptr/len describe the resident allocation, kept alive
        // by the pin; aliasing discipline is the caller's contract.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mutable view of the panel.
    ///
    /// # Safety
    /// The caller must guarantee *exclusive* access to this panel for
    /// the lifetime of the returned slice — same contract as
    /// [`dagfact_rt::SharedSlice::range_mut`] over the whole panel.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [T] {
        // SAFETY: as above, with exclusivity guaranteed by the caller.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T> Drop for PanelPin<'_, T> {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Memory-management options for a factorization.
#[derive(Debug, Clone, Default)]
pub struct MemoryOptions {
    /// The ledger. `None` disables accounting entirely; a ledger without
    /// a cap tracks peaks but never degrades.
    pub budget: Option<Arc<MemoryBudget>>,
    /// Base directory for the spill store (default: system temp dir).
    pub spill_dir: Option<std::path::PathBuf>,
}

thread_local! {
    /// The first element of the highest-addressed panel of the unbudgeted
    /// tab this thread dropped last (a `Vec<T>`); never read, only kept
    /// allocated until the next such drop.
    static HEAP_PIN: RefCell<Option<Box<dyn Any>>> = const { RefCell::new(None) };
}

/// The numeric storage of a factorization in progress.
pub struct CoefTab<T: 'static> {
    /// Panel layout shared by both sides.
    pub layout: PanelLayout,
    /// Slots `0..ncblk` are the L side; `ncblk..2·ncblk` the Uᵀ side
    /// (LU only).
    slots: Vec<Slot<T>>,
    ncblk: usize,
    lu: bool,
    /// Lazy (pager) mode: set when the budget carries a hard cap.
    lazy: bool,
    budget: Option<Arc<MemoryBudget>>,
    spill: Option<SpillStore>,
    /// Bytes bulk-charged by an uncapped reservation, released on drop.
    eager_charged: usize,
    /// LRU clock.
    clock: AtomicU64,
}

/// What an untouched panel is filled from: the entries of the *original*
/// (unpermuted) `A` that fall into it; fill-in stays zero. An L panel
/// gathers its own columns of `P·A·Pᵀ` (columns `iperm[j]` of `A`); a Uᵀ
/// panel holds *rows* of the strict upper triangle, so LU keeps `Aᵀ` for
/// as long as the source lives — the numeric phase.
pub struct PanelSource<'a, T> {
    analysis: &'a Analysis,
    a: &'a CscMatrix<T>,
    at: Option<CscMatrix<T>>,
}

impl<'a, T: Scalar> PanelSource<'a, T> {
    /// Source of `a`'s entries under `analysis`.
    pub fn new(analysis: &'a Analysis, a: &'a CscMatrix<T>) -> PanelSource<'a, T> {
        let at = (analysis.facto == FactoKind::Lu).then(|| a.transpose());
        PanelSource { analysis, a, at }
    }

    /// Add this source's entries into the zeroed panel of slot `key`; one
    /// outside the analyzed structure is a [`SolverError::PatternMismatch`].
    fn gather(&self, key: usize, data: &mut [T]) -> Result<(), SolverError> {
        let symbol = &self.analysis.symbol;
        let (perm, iperm) = (self.analysis.perm.perm(), self.analysis.perm.iperm());
        let upper = key >= symbol.ncblk();
        let c = key % symbol.ncblk();
        // BOUNDS: `key` names a slot, so `c < ncblk`.
        let cb = &symbol.cblks[c];
        // Whose columns `iperm[col]` to read, and from which permuted row
        // on their entries are this panel's: L takes `P·A·Pᵀ` from the
        // diagonal down (LU: from the top of its full, square diagonal
        // block; a symmetric kind reads only the lower triangle of a fully
        // stored matrix), Uᵀ the rows of `A` right of the diagonal block,
        // which its storage starts at (`skip` rows up).
        let lu = self.at.is_some();
        let m = match &self.at {
            Some(at) if upper => at,
            _ => self.a,
        };
        let (ld, skip) = if upper { (cb.height_below(), cb.width()) } else { (cb.stride, 0) };
        for (j, col) in (cb.fcol..cb.lcol).enumerate() {
            let first = if upper { cb.lcol } else if lu { cb.fcol } else { col };
            // BOUNDS: `perm`/`iperm` are bijections of `0..n` and `a` is
            // `n × n` (`Analysis::accepts`; an `assemble` of another order
            // is a caller bug), so `col`, `old` and every row index of `m`
            // are `< n`.
            let old = iperm[col];
            for (&i, &v) in m.col_rows(old).iter().zip(m.col_values(old)) {
                // BOUNDS: as above; `offset` is a storage row of panel
                // `c`, below its `stride`, and at least `skip` for a row
                // right of the diagonal block: `j·ld + offset − skip` lies
                // in column `j` of `data` (`ld` rows of `width` columns).
                let row = perm[i];
                if row >= first {
                    let Some(offset) = symbol.row_offset_in_panel(c, row) else {
                        // ALLOC: the error message, once per failed run.
                        return Err(SolverError::PatternMismatch(format!(
                            "matrix entry at permuted ({row}, {col}) is outside the analyzed pattern"
                        )));
                    };
                    data[j * ld + offset - skip] += v;
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar> CoefTab<T> {
    /// The fully assembled coefficient storage of `a`, without memory
    /// accounting: every panel is touched here, on the calling thread.
    /// Panics if `a` has an entry outside the analyzed pattern.
    pub fn assemble(analysis: &Analysis, a: &CscMatrix<T>) -> CoefTab<T> {
        let tab = Self::reserve(analysis, &MemoryOptions::default());
        let src = PanelSource::new(analysis, a);
        for key in 0..tab.slots.len() {
            let len = PanelLayout::panel_len(&analysis.symbol, key);
            // With no budget, the one failure left is the matrix itself.
            if let Err(e) = tab.pin(key, len, Some(&src)) {
                panic!("cannot assemble: {e}");
            }
        }
        tab
    }

    /// One untouched slot per panel under `mem`. Without a cap every
    /// panel's capacity is reserved now (charging the ledger, if any, in
    /// one step: both sides' [`PanelLayout::total`]); with a cap nothing is
    /// allocated until a panel is pinned.
    pub fn reserve(analysis: &Analysis, mem: &MemoryOptions) -> CoefTab<T> {
        let symbol = &analysis.symbol;
        let ncblk = symbol.ncblk();
        let lu = analysis.facto == FactoKind::Lu;
        let layout = PanelLayout::new(symbol, lu);
        let lazy = mem.budget.as_ref().is_some_and(|b| b.cap().is_some());
        let nsides = if lu { 2 * ncblk } else { ncblk };
        // An uncapped ledger cannot refuse: the whole factor is counted
        // in one step.
        let eager_charged = match &mem.budget {
            Some(b) if !lazy => {
                let bytes = layout.total() * std::mem::size_of::<T>();
                b.charge_forced(bytes);
                bytes
            }
            _ => 0,
        };
        let mut tab = CoefTab {
            layout,
            slots: Vec::with_capacity(nsides),
            ncblk,
            lu,
            lazy,
            budget: mem.budget.clone(),
            spill: lazy.then(|| SpillStore::new(mem.spill_dir.as_deref())),
            eager_charged,
            clock: AtomicU64::new(0),
        };
        for key in 0..nsides {
            let len = if lazy { 0 } else { PanelLayout::panel_len(symbol, key) };
            tab.slots.push(Slot::new(Vec::with_capacity(len)));
        }
        tab
    }

    /// Does this tab carry a U side?
    pub fn has_u(&self) -> bool {
        self.lu
    }

    /// Pin the L panel of column block `c`, faulting it in if needed. The
    /// panel's first pin fills it from `src`; `None` is for a tab whose
    /// panels have all been touched (the solve, [`CoefTab::assemble`]).
    pub fn pin_l(
        &self,
        symbol: &SymbolMatrix,
        c: usize,
        src: Option<&PanelSource<'_, T>>,
    ) -> Result<PanelPin<'_, T>, SolverError> {
        self.pin(c, PanelLayout::panel_len(symbol, c), src)
    }

    /// Pin the Uᵀ panel of column block `c` (LU only): its rows below the
    /// diagonal block, leading dimension `stride − width`.
    pub fn pin_u(
        &self,
        symbol: &SymbolMatrix,
        c: usize,
        src: Option<&PanelSource<'_, T>>,
    ) -> Result<PanelPin<'_, T>, SolverError> {
        debug_assert!(self.lu, "U panel requested for a non-LU factorization");
        self.pin(self.ncblk + c, PanelLayout::panel_len(symbol, self.ncblk + c), src)
    }

    fn pin(
        &self,
        key: usize,
        len: usize,
        src: Option<&PanelSource<'_, T>>,
    ) -> Result<PanelPin<'_, T>, SolverError> {
        // BOUNDS: `key` is `c` or `ncblk + c` (LU) for a column block `c`
        // of the analysis the slot table was laid out for.
        let slot = &self.slots[key];
        // LOCK: this panel's own slot, contended only by its concurrent readers.
        let mut st = slot.lock();
        // ORDERING: the stamp is an LRU recency hint read under the slot
        // lock; a stale value only skews eviction order, never safety.
        slot.stamp
            .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let esize = std::mem::size_of::<T>();
        match &mut *st {
            SlotState::Resident(_) => {}
            SlotState::Untouched(storage) => {
                // PANIC: only the factorization touches a panel first, with `src`.
                let Some(src) = src else {
                    unreachable!("panel slot {key} pinned without a source before its first touch")
                };
                // Nothing is mutated before the charge succeeds.
                if self.lazy {
                    self.charge_grow(len * esize, site::PANEL_BASE + key)?;
                }
                let mut data = std::mem::take(storage);
                // ALLOC: once per panel per factorization — into the
                // capacity `reserve` holds, or the charge just made.
                data.resize(len, T::zero());
                let gathered = src.gather(key, &mut data);
                // Resident (and charged) even when an entry did not fit:
                // that error fails the factorization that owns the tab.
                *st = SlotState::Resident(data);
                slot.resident.store(true, Ordering::Release);
                gathered?;
            }
            SlotState::Spilled => {
                self.charge_grow(len * esize, site::SPILL_READBACK)?;
                // LOCK: ALLOC: capped ledger only (`read` is the spill file).
                let spill = self
                    .spill
                    .as_ref()
                    .ok_or_else(|| SolverError::Spill("panel spilled without a store".into()))?;
                let data = match spill.read::<T>(key, len) {
                    Ok(d) => d,
                    Err(e) => {
                        if let Some(b) = &self.budget {
                            b.release(len * esize);
                        }
                        return Err(SolverError::Spill(e.to_string()));
                    }
                };
                // The disk copy is stale the moment anyone writes the
                // panel again; a future eviction rewrites it.
                spill.remove(key);
                *st = SlotState::Resident(data.into_vec());
                slot.resident.store(true, Ordering::Release);
                if let Some(b) = &self.budget {
                    b.note_fault_in();
                }
            }
        }
        slot.pins.fetch_add(1, Ordering::AcqRel);
        let ptr = match &mut *st {
            SlotState::Resident(data) => data.as_mut_ptr(),
            // PANIC: unreachable — both other arms above transition to Resident.
            _ => unreachable!("panel not resident after pin transition"),
        };
        Ok(PanelPin { slot, ptr, len })
    }

    /// [`CoefTab::pin_l`] for the solve phase, which has no error
    /// channel. PANIC: a spill-store failure or a panel larger than the
    /// whole cap (capped ledger only) panics.
    pub fn pin_l_solve(&self, symbol: &SymbolMatrix, c: usize) -> PanelPin<'_, T> {
        self.pin_l(symbol, c, None)
            .unwrap_or_else(|e| panic!("cannot fault L panel {c} back in for the solve: {e}"))
    }

    /// [`CoefTab::pin_u`], solve-phase variant (PANIC: see
    /// [`CoefTab::pin_l_solve`]).
    pub fn pin_u_solve(&self, symbol: &SymbolMatrix, c: usize) -> PanelPin<'_, T> {
        self.pin_u(symbol, c, None)
            .unwrap_or_else(|e| panic!("cannot fault U panel {c} back in for the solve: {e}"))
    }

    /// Mark column block `c`'s panels cold: the factorization will no
    /// longer touch them (all updates consuming them are done), so they
    /// are the pager's preferred eviction victims from now on. The solve
    /// phase faults them back in through the pins.
    pub fn retire(&self, c: usize) {
        let keys: [Option<usize>; 2] =
            [Some(c), if self.lu { Some(self.ncblk + c) } else { None }];
        for key in keys.into_iter().flatten() {
            // Release pairs with the Acquire load of `retired` in
            // `evict_one`'s victim scan.
            // BOUNDS: c < ncblk, and the U side's keys follow the L side's.
            self.slots[key].retired.store(true, Ordering::Release);
        }
    }

    /// Charge `bytes` at `site`, evicting cold panels (and finally
    /// overcommitting) to guarantee progress. Only a single request
    /// larger than the whole cap — where spilling provably cannot help —
    /// is returned as an error. Panels charge here
    /// as they materialize or fault in, and so do the workers' GEMM
    /// workspaces as they grow (`numeric.rs`): one pager makes room for
    /// every large allocation of the numeric phase.
    pub(crate) fn charge_grow(&self, bytes: usize, at: usize) -> Result<(), SolverError> {
        let Some(b) = &self.budget else {
            return Ok(());
        };
        while let Err(e) = b.try_charge(bytes, at) {
            if b.cap().is_some_and(|cap| bytes > cap) {
                // Even an empty ledger could not hold it.
                return Err(SolverError::from_budget(e));
            }
            if !self.evict_one() {
                // Nothing evictable (everything pinned or already
                // spilled): overcommit rather than deadlock.
                b.charge_forced(bytes);
                break;
            }
        }
        Ok(())
    }

    /// Spill one unpinned resident panel — retired panels first, then
    /// least-recently-used. Returns `false` when nothing was evicted.
    fn evict_one(&self) -> bool {
        if self.spill.is_none() {
            return false;
        }
        let mut cands: Vec<(bool, u64, usize)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.resident.load(Ordering::Acquire) && s.pins.load(Ordering::Acquire) == 0
            })
            .map(|(key, s)| {
                (
                    !s.retired.load(Ordering::Acquire),
                    // ORDERING: LRU recency hint; staleness only skews
                    // eviction order, never safety.
                    s.stamp.load(Ordering::Relaxed),
                    key,
                )
            })
            .collect(); // ALLOC: capped ledger only, one list per eviction.
        cands.sort_unstable();
        cands.into_iter().any(|(_, _, key)| self.try_evict(key))
    }

    /// Try to spill panel `key` right now. Fails (returns `false`) when
    /// the slot is locked, pinned, not resident, or the write errors.
    fn try_evict(&self, key: usize) -> bool {
        let Some(spill) = self.spill.as_ref() else {
            return false;
        };
        // BOUNDS: `key` comes from the eviction scan's enumeration of the
        // slot table.
        let slot = &self.slots[key];
        let mut st = match slot.state.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return false,
        };
        if slot.pins.load(Ordering::Acquire) > 0 {
            return false;
        }
        let SlotState::Resident(data) = &*st else {
            return false;
        };
        // LOCK: capped ledger only (`write` is the spill file).
        match spill.write(key, data) {
            Ok(written) => {
                let freed = data.len() * std::mem::size_of::<T>();
                *st = SlotState::Spilled;
                slot.resident.store(false, Ordering::Release);
                if let Some(b) = &self.budget {
                    b.release(freed);
                    b.note_spill(written);
                }
                true
            }
            // An IO failure is not fatal here: the caller simply cannot
            // shed this panel and will overcommit instead.
            Err(_) => false,
        }
    }
}

impl<T: 'static> Drop for CoefTab<T> {
    fn drop(&mut self) {
        let Some(b) = self.budget.take() else {
            // Free every panel but the highest-addressed one, shrink that
            // one in place to its first element, and only then free the
            // previous pin. (A budgeted tab keeps nothing: it would sit
            // outside the ledger.)
            let top = (self.slots.drain(..))
                .filter_map(|slot| match slot.state.into_inner().unwrap_or_else(PoisonError::into_inner) {
                    // An untouched panel (a failed run) has no element
                    // to keep.
                    SlotState::Resident(data) => Some(data),
                    _ => None,
                })
                .max_by_key(|data| data.as_ptr() as usize)
                .map(|mut data| {
                    data.truncate(1);
                    data.shrink_to_fit();
                    Box::new(data) as Box<dyn Any>
                });
            // Not during thread teardown, when the slot is already gone.
            let _ = HEAP_PIN.try_with(|pin| pin.replace(top));
            return;
        };
        if self.lazy {
            let esize = std::mem::size_of::<T>();
            for slot in &mut self.slots {
                if let SlotState::Resident(d) =
                    slot.state.get_mut().unwrap_or_else(PoisonError::into_inner)
                {
                    b.release(d.len() * esize);
                }
            }
        } else {
            b.release(self.eager_charged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::SolverOptions;
    use dagfact_sparse::gen::grid_laplacian_2d;
    use dagfact_symbolic::FactoKind;

    #[test]
    fn a_dropped_unbudgeted_tab_leaves_one_element_as_heap_pin() {
        let a = grid_laplacian_2d(9, 7);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let pinned = || {
            HEAP_PIN.with(|pin| {
                let pin = pin.borrow();
                let data = pin.as_ref().and_then(|p| p.downcast_ref::<Vec<f64>>());
                data.map(|data| (data.as_ptr() as usize, data.capacity()))
            })
        };
        drop(CoefTab::assemble(&an, &a));
        let pin = pinned().expect("an unbudgeted drop leaves a pin");
        assert_eq!(pin.1, 1, "the pin is one element, not a panel");
        // A budgeted tab's storage all returns to the ledger.
        let mem = MemoryOptions { budget: Some(MemoryBudget::unbounded()), spill_dir: None };
        let budgeted = CoefTab::<f64>::reserve(&an, &mem);
        drop(budgeted.pin_l(&an.symbol, 0, Some(&PanelSource::new(&an, &a))).expect("pin"));
        drop(budgeted);
        assert_eq!(pinned(), Some(pin), "a budgeted drop must not touch the pin");
    }

    #[test]
    fn lazy_mode_materializes_spills_and_faults_back_bit_exact() {
        let a = grid_laplacian_2d(8, 8);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());

        // Reference: eager assembly.
        let eager = CoefTab::assemble(&an, &a);
        let symbol = &an.symbol;

        // Budgeted: a cap small enough to force paging but larger than
        // any single panel.
        let max_panel: usize = (0..symbol.ncblk())
            .map(|c| PanelLayout::panel_len(symbol, c))
            .max()
            .unwrap_or(0)
            * std::mem::size_of::<f64>();
        let budget = MemoryBudget::with_cap((max_panel * 3).max(4096));
        let mem = MemoryOptions {
            budget: Some(budget.clone()),
            spill_dir: None,
        };
        let lazy = CoefTab::reserve(&an, &mem);
        assert_eq!(budget.used(), 0, "a capped tab holds nothing until a panel is touched");
        let src = PanelSource::new(&an, &a);

        // Touch every panel in order (forces materialize + evictions),
        // then touch them all again (forces fault-ins) and compare.
        for c in 0..symbol.ncblk() {
            let _ = lazy.pin_l(symbol, c, Some(&src)).expect("first touch");
            lazy.retire(c);
        }
        for c in 0..symbol.ncblk() {
            let lp = lazy.pin_l(symbol, c, None).expect("second touch");
            let ep = eager.pin_l(symbol, c, None).expect("eager pin");
            // SAFETY: single-threaded test — no concurrent writer.
            let (lzy, egr) = unsafe { (lp.slice(), ep.slice()) };
            for (x, y) in lzy.iter().zip(egr.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "panel {c} differs");
            }
        }
        let stats = budget.stats();
        assert!(stats.peak_bytes > 0);
        assert!(
            stats.spill_events > 0,
            "cap of 3 panels over {} panels must spill",
            symbol.ncblk()
        );
        assert!(stats.fault_in_events > 0, "second sweep must fault panels in");
        // Ledger stays consistent: nothing resident exceeds the peak.
        assert!(stats.used_bytes <= stats.peak_bytes);
    }

    #[test]
    fn pinned_panels_are_never_evicted() {
        let a = grid_laplacian_2d(8, 8);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let symbol = &an.symbol;
        let max_panel: usize = (0..symbol.ncblk())
            .map(|c| PanelLayout::panel_len(symbol, c))
            .max()
            .unwrap_or(0)
            * std::mem::size_of::<f64>();
        let budget = MemoryBudget::with_cap((max_panel * 2).max(2048));
        let mem = MemoryOptions {
            budget: Some(budget),
            spill_dir: None,
        };
        let tab = CoefTab::reserve(&an, &mem);
        let src = PanelSource::new(&an, &a);
        let pin0 = tab.pin_l(symbol, 0, Some(&src)).expect("pin 0");
        // SAFETY: single-threaded test — no concurrent writer.
        let before = unsafe { pin0.slice() }.to_vec();
        // Hammer the pager: materialize everything else while 0 is pinned.
        for c in 1..symbol.ncblk() {
            let _ = tab.pin_l(symbol, c, Some(&src)).expect("pin");
        }
        // Panel 0 must still be resident and unchanged under the pin.
        // SAFETY: single-threaded test — no concurrent writer.
        let after = unsafe { pin0.slice() };
        for (x, y) in before.iter().zip(after.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn a_retired_panel_is_evicted_before_an_older_live_one() {
        // Panels 0 and 1 fill the cap exactly; 0 is the least recently
        // used, but only 1 is retired. Room for one more panel 1 must
        // come from panel 1 alone: LRU order would take panel 0 first.
        let a = grid_laplacian_2d(8, 8);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let symbol = &an.symbol;
        let bytes = |c| PanelLayout::panel_len(symbol, c) * std::mem::size_of::<f64>();
        let budget = MemoryBudget::with_cap(bytes(0) + bytes(1));
        let mem = MemoryOptions { budget: Some(budget.clone()), spill_dir: None };
        let tab = CoefTab::<f64>::reserve(&an, &mem);
        let src = PanelSource::new(&an, &a);
        for c in [0, 1] {
            drop(tab.pin_l(symbol, c, Some(&src)).expect("first touch"));
        }
        tab.retire(1);
        tab.charge_grow(bytes(1), site::WORKSPACE).expect("room by eviction");
        let resident = |key: usize| tab.slots[key].resident.load(Ordering::Acquire);
        assert!(!resident(1), "the retired panel was not the victim");
        assert!(resident(0), "a live panel was evicted while a retired one was resident");
        assert_eq!((budget.stats().spill_events, budget.stats().overcommit_events), (1, 0));
    }

    #[test]
    fn eviction_never_waits_on_a_held_slot() {
        // `pin` holds its own slot's lock while `charge_grow` evicts
        // others (DESIGN.md §16): the evictor must only ever try-lock.
        let a = grid_laplacian_2d(8, 8);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let mem = MemoryOptions {
            budget: Some(MemoryBudget::with_cap(1 << 30)),
            spill_dir: None,
        };
        let tab = CoefTab::<f64>::reserve(&an, &mem);
        let src = PanelSource::new(&an, &a);
        drop(tab.pin_l(&an.symbol, 0, Some(&src)).expect("pin"));
        let (tab, held) = (&tab, tab.slots[0].lock());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || tx.send(tab.try_evict(0)));
            let evicted = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(held);
            assert_eq!(evicted, Ok(false), "the evictor waited on a held slot");
        });
        assert!(tab.try_evict(0), "a released resident slot spills");
    }

    #[test]
    fn budget_release_on_drop_balances_ledger() {
        // An uncapped reservation charges every side of the whole factor
        // in one step, each by what it stores — LLᵀ its L panels, LU also
        // the Uᵀ panels' rows below their diagonal blocks — and drop
        // returns it all.
        let a = grid_laplacian_2d(6, 6);
        for facto in [FactoKind::Cholesky, FactoKind::Lu] {
            let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
            let budget = MemoryBudget::unbounded();
            let mem = MemoryOptions {
                budget: Some(budget.clone()),
                spill_dir: None,
            };
            let tab = CoefTab::<f64>::reserve(&an, &mem);
            let cblks = &an.symbol.cblks;
            let l: usize = cblks.iter().map(|cb| cb.stride * cb.width()).sum();
            let u: usize = cblks.iter().map(|cb| (cb.stride - cb.width()) * cb.width()).sum();
            let stored = if facto == FactoKind::Lu { l + u } else { l };
            assert!(u > 0 && u < l, "a U side with no rows below its diagonal blocks");
            let whole = stored * std::mem::size_of::<f64>();
            assert_eq!((budget.used(), budget.peak()), (whole, whole), "{facto:?}");
            drop(tab);
            assert_eq!(budget.used(), 0, "{facto:?}: drop must release every charge");
            assert_eq!(budget.stats().overcommit_events, 0);
        }
    }
}
