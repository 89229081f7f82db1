//! Coefficient storage: the dense panels of the factor, behind a pager.
//!
//! Each column block of the symbol structure owns one dense column-major
//! panel (`stride × width`). PaStiX calls this the *coeftab*. For LU two
//! coeftabs exist: `L` (which also holds the full, square diagonal blocks)
//! and `U`, stored **transposed** so the U panel shares the L panel's row
//! structure and every kernel stays column-major.
//!
//! Storage is *per panel* (one slot each), which is what makes the
//! memory-budgeted mode possible: a panel can individually be
//!
//! * **unassembled** — its initial matrix entries held as a compact
//!   scatter list, materialized (allocated + assembled) on first touch;
//! * **resident** — a live dense allocation, charged to the
//!   [`MemoryBudget`];
//! * **spilled** — written to the disk-backed [`SpillStore`] and faulted
//!   back in on the next touch.
//!
//! Access goes through [`CoefTab::pin_l`]/[`CoefTab::pin_u`], which
//! return a [`PanelPin`] guard: while pins are outstanding the pager
//! will not evict the panel. Without a budget cap the tab behaves
//! exactly like the historical flat allocation — everything is
//! materialized eagerly at assembly and nothing ever spills — so the
//! unconstrained numeric path is unchanged.
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
use dagfact_rt::budget::{site, BudgetError, MemoryBudget};
use dagfact_sparse::CscMatrix;
use dagfact_symbolic::structure::SymbolMatrix;
use dagfact_symbolic::FactoKind;

/// Panel sizes: storage is per panel, this is the canonical description
/// of how long each one is and of their total.
#[derive(Debug, Clone)]
pub struct PanelLayout {
    /// Total length of all panels of one side.
    pub len: usize,
}

impl PanelLayout {
    /// Compute the layout for a symbol structure.
    pub fn new(symbol: &SymbolMatrix) -> PanelLayout {
        let len = symbol.cblks.iter().map(|cb| cb.stride * cb.width()).sum();
        PanelLayout { len }
    }

    /// Length of panel `c`.
    pub fn panel_len(&self, symbol: &SymbolMatrix, c: usize) -> usize {
        let cb = &symbol.cblks[c];
        cb.stride * cb.width()
    }
}

/// Lifecycle of one panel's storage.
enum SlotState<T> {
    /// Not yet materialized: the panel's initial entries as
    /// `(local offset, value)` pairs, scattered on first touch.
    Unassembled(Vec<(usize, T)>),
    /// Live dense storage.
    Resident(Box<[T]>),
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
    fn new(state: SlotState<T>, resident: bool) -> Slot<T> {
        Slot {
            state: Mutex::new(state),
            pins: AtomicUsize::new(0),
            resident: AtomicBool::new(resident),
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
    /// [`dagfact_rt::SharedSlice::slice_mut`].
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
    /// Bytes bulk-charged by the eager path, released on drop.
    eager_charged: usize,
    /// LRU clock.
    clock: AtomicU64,
}

impl<T: Scalar> CoefTab<T> {
    /// Allocate storage eagerly and scatter the permuted matrix entries
    /// into the panels ("coefficient initialization"), without memory
    /// accounting — the historical unbudgeted path.
    pub fn assemble(analysis: &Analysis, a: &CscMatrix<T>) -> CoefTab<T> {
        match Self::assemble_with(analysis, a, &MemoryOptions::default()) {
            Ok(tab) => tab,
            // Unreachable: with no budget nothing can fail.
            Err(e) => unreachable!("unbudgeted assembly failed: {e}"),
        }
    }

    /// Assemble under `mem`. Without a cap, every panel is materialized
    /// now (charging the ledger, if any, in bulk); with a cap, panels
    /// hold their entry lists and materialize on first touch so the
    /// working set — not the whole factor — must fit under the cap.
    ///
    /// `a` is the *original* (unpermuted) matrix; entries are routed
    /// through the analysis permutation. Structural zeros of the factor
    /// (fill-in) stay zero.
    pub fn assemble_with(
        analysis: &Analysis,
        a: &CscMatrix<T>,
        mem: &MemoryOptions,
    ) -> Result<CoefTab<T>, SolverError> {
        let symbol = &analysis.symbol;
        let layout = PanelLayout::new(symbol);
        let ncblk = symbol.ncblk();
        let lu = analysis.facto == FactoKind::Lu;
        let lazy = mem.budget.as_ref().is_some_and(|b| b.cap().is_some());
        let spill = lazy.then(|| SpillStore::new(mem.spill_dir.as_deref()));

        // Route every entry to its panel-local scatter list, in the same
        // global scan order the historical flat assembly used — per-slot
        // relative order (and therefore duplicate summation order) is
        // preserved, so the assembled values are bit-identical.
        let nsides = if lu { 2 * ncblk } else { ncblk };
        let mut entries: Vec<Vec<(usize, T)>> = (0..nsides).map(|_| Vec::new()).collect();
        let perm = analysis.perm.perm();
        for oldj in 0..a.ncols() {
            for (&oldi, &v) in a.col_rows(oldj).iter().zip(a.col_values(oldj)) {
                let i = perm[oldi];
                let j = perm[oldj];
                if i >= j {
                    // Lower triangle (or diagonal): L panel of cblk(j).
                    let c = symbol.col_to_cblk[j];
                    let cb = &symbol.cblks[c];
                    let row = symbol.row_offset_in_panel(c, i);
                    entries[c].push(((j - cb.fcol) * cb.stride + row, v));
                } else if !lu {
                    // Symmetric storage: the caller may have provided a
                    // fully-stored symmetric matrix; the upper entry
                    // mirrors an existing lower one — skip it.
                    continue;
                } else {
                    // Strict upper triangle for LU: U[i, j] with i < j.
                    let c = symbol.col_to_cblk[i];
                    let cb = &symbol.cblks[c];
                    if j < cb.lcol {
                        // Inside the diagonal block: stored in L's full
                        // square diagonal block.
                        let row = symbol.row_offset_in_panel(c, i);
                        entries[c].push(((j - cb.fcol) * cb.stride + row, v));
                    } else {
                        // Below-diagonal U entry, stored transposed:
                        // Uᵀ[j, i].
                        let row = symbol.row_offset_in_panel(c, j);
                        entries[ncblk + c].push(((i - cb.fcol) * cb.stride + row, v));
                    }
                }
            }
        }

        let esize = std::mem::size_of::<T>();
        let mut tab = CoefTab {
            layout,
            slots: Vec::with_capacity(nsides),
            ncblk,
            lu,
            lazy,
            budget: mem.budget.clone(),
            spill,
            eager_charged: 0,
            clock: AtomicU64::new(0),
        };

        if lazy {
            // Charge the entry plan; each panel's share is released as it
            // materializes. Panels themselves charge on first touch.
            let entry_size = std::mem::size_of::<(usize, T)>();
            let plan_bytes: usize = entries.iter().map(|e| e.len() * entry_size).sum();
            tab.charge_grow(plan_bytes, site::ASSEMBLY)?;
            for e in entries {
                tab.slots.push(Slot::new(SlotState::Unassembled(e), false));
            }
        } else {
            // Eager: bulk-charge each side, then materialize everything.
            if let Some(b) = &tab.budget {
                let l_bytes = tab.layout.len * esize;
                b.try_charge(l_bytes, site::COEFTAB_L)
                    .map_err(SolverError::from_budget)?;
                tab.eager_charged += l_bytes;
                if lu {
                    let u_bytes = tab.layout.len * esize;
                    if let Err(e) = b.try_charge(u_bytes, site::COEFTAB_U) {
                        b.release(tab.eager_charged);
                        tab.eager_charged = 0;
                        return Err(SolverError::from_budget(e));
                    }
                    tab.eager_charged += u_bytes;
                }
            }
            for (key, e) in entries.into_iter().enumerate() {
                let c = key % ncblk;
                let len = tab.layout.panel_len(symbol, c);
                let mut data = vec![T::zero(); len].into_boxed_slice();
                for (off, v) in e {
                    data[off] += v;
                }
                tab.slots.push(Slot::new(SlotState::Resident(data), true));
            }
        }
        Ok(tab)
    }

    /// Does this tab carry a U side?
    pub fn has_u(&self) -> bool {
        self.lu
    }

    /// Pin the L panel of column block `c`, materializing or faulting it
    /// in if needed.
    pub fn pin_l(&self, symbol: &SymbolMatrix, c: usize) -> Result<PanelPin<'_, T>, SolverError> {
        self.pin(c, self.layout.panel_len(symbol, c))
    }

    /// Pin the Uᵀ panel of column block `c` (LU only).
    pub fn pin_u(&self, symbol: &SymbolMatrix, c: usize) -> Result<PanelPin<'_, T>, SolverError> {
        debug_assert!(self.lu, "U panel requested for a non-LU factorization");
        self.pin(self.ncblk + c, self.layout.panel_len(symbol, c))
    }

    fn pin(&self, key: usize, len: usize) -> Result<PanelPin<'_, T>, SolverError> {
        let slot = &self.slots[key];
        let mut st = slot.lock();
        // ORDERING: the stamp is an LRU recency hint read under the slot
        // lock; a stale value only skews eviction order, never safety.
        slot.stamp
            .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let esize = std::mem::size_of::<T>();
        match &mut *st {
            SlotState::Resident(_) => {}
            SlotState::Unassembled(pending) => {
                // Materialize: charge, allocate zeroed, scatter entries.
                // Nothing is mutated before the charge succeeds, so an
                // injected failure here is retry-safe at any level.
                self.charge_grow(len * esize, site::PANEL_BASE + key)?;
                let entries = std::mem::take(pending);
                let entry_bytes = entries.len() * std::mem::size_of::<(usize, T)>();
                let mut data = vec![T::zero(); len].into_boxed_slice();
                for (off, v) in entries {
                    data[off] += v;
                }
                *st = SlotState::Resident(data);
                slot.resident.store(true, Ordering::Release);
                if let Some(b) = &self.budget {
                    // The entry plan's share of the ASSEMBLY charge is no
                    // longer held.
                    b.release(entry_bytes);
                }
            }
            SlotState::Spilled => {
                self.charge_grow(len * esize, site::SPILL_READBACK)?;
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
                *st = SlotState::Resident(data);
                slot.resident.store(true, Ordering::Release);
                if let Some(b) = &self.budget {
                    b.note_fault_in();
                }
            }
        }
        slot.pins.fetch_add(1, Ordering::AcqRel);
        let ptr = match &mut *st {
            SlotState::Resident(data) => data.as_mut_ptr(),
            // Unreachable: both other arms above transition to Resident.
            _ => unreachable!("panel not resident after pin transition"),
        };
        Ok(PanelPin { slot, ptr, len })
    }

    /// [`CoefTab::pin_l`] for the solve phase, which has no error
    /// channel: injected allocation faults are transient by construction
    /// (each delivery consumes the plan's per-site failure budget), so
    /// the pin is simply retried; a genuine spill-store failure panics.
    pub fn pin_l_solve(&self, symbol: &SymbolMatrix, c: usize) -> PanelPin<'_, T> {
        loop {
            match self.pin_l(symbol, c) {
                Ok(p) => return p,
                Err(e) if e.is_transient_alloc() => continue,
                Err(e) => panic!("cannot fault L panel {c} back in for the solve: {e}"),
            }
        }
    }

    /// [`CoefTab::pin_u`], solve-phase variant (see
    /// [`CoefTab::pin_l_solve`]).
    pub fn pin_u_solve(&self, symbol: &SymbolMatrix, c: usize) -> PanelPin<'_, T> {
        loop {
            match self.pin_u(symbol, c) {
                Ok(p) => return p,
                Err(e) if e.is_transient_alloc() => continue,
                Err(e) => panic!("cannot fault U panel {c} back in for the solve: {e}"),
            }
        }
    }

    /// Mark column block `c`'s panels cold: the factorization will no
    /// longer touch them (all updates consuming them are done). Under
    /// high pressure they are spilled immediately; either way they are
    /// the preferred eviction victims from now on. The solve phase
    /// faults them back in through the pins.
    pub fn retire(&self, c: usize) {
        let keys: [Option<usize>; 2] =
            [Some(c), if self.lu { Some(self.ncblk + c) } else { None }];
        let eager_spill = self
            .budget
            .as_ref()
            .is_some_and(|b| b.should_spill() && self.spill.is_some());
        for key in keys.into_iter().flatten() {
            // SYNC: Release pairs with the Acquire scan of `s.retired`
            // in the eviction victim loop; the load goes through an
            // iterator local the pairing pass cannot resolve.
            self.slots[key].retired.store(true, Ordering::Release);
            if eager_spill {
                self.try_evict(key);
            }
        }
    }

    /// Charge `bytes` at `site`, evicting cold panels (and finally
    /// overcommitting) to guarantee progress. Only a single request
    /// larger than the whole cap — where spilling provably cannot help —
    /// or an injected fault is returned as an error. Panels charge here
    /// as they materialize or fault in, and so do the workers' GEMM
    /// workspaces as they grow (`numeric.rs`): one pager makes room for
    /// every large allocation of the numeric phase.
    pub(crate) fn charge_grow(&self, bytes: usize, at: usize) -> Result<(), SolverError> {
        let Some(b) = &self.budget else {
            return Ok(());
        };
        loop {
            match b.try_charge(bytes, at) {
                Ok(()) => return Ok(()),
                Err(e @ BudgetError::Injected { .. }) => {
                    return Err(SolverError::from_budget(e))
                }
                Err(e @ BudgetError::Exceeded { .. }) => {
                    if b.cap().is_some_and(|cap| bytes > cap) {
                        // Even an empty ledger could not hold it.
                        return Err(SolverError::from_budget(e));
                    }
                    if !self.evict_one() {
                        // Nothing evictable (everything pinned or already
                        // spilled): overcommit rather than deadlock.
                        return b.charge_forced(bytes, at).map_err(SolverError::from_budget);
                    }
                }
            }
        }
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
            .collect();
        cands.sort_unstable();
        cands.into_iter().any(|(_, _, key)| self.try_evict(key))
    }

    /// Try to spill panel `key` right now. Fails (returns `false`) when
    /// the slot is locked, pinned, not resident, or the write errors.
    fn try_evict(&self, key: usize) -> bool {
        let Some(spill) = self.spill.as_ref() else {
            return false;
        };
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
                    SlotState::Resident(data) => Some(data.into_vec()),
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
            let entry_size = std::mem::size_of::<(usize, T)>();
            let esize = std::mem::size_of::<T>();
            for slot in &mut self.slots {
                match slot.state.get_mut().unwrap_or_else(PoisonError::into_inner) {
                    SlotState::Resident(d) => b.release(d.len() * esize),
                    SlotState::Unassembled(e) => b.release(e.len() * entry_size),
                    SlotState::Spilled => {}
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
    use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_2d};
    use dagfact_symbolic::FactoKind;

    #[test]
    fn assembly_places_every_symmetric_entry() {
        let a = grid_laplacian_2d(6, 5);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let tab = CoefTab::assemble(&an, &a);
        let symbol = &an.symbol;
        // Every (i >= j) permuted entry must be found at its slot.
        let perm = an.perm.perm();
        let mut placed = 0usize;
        for oldj in 0..a.ncols() {
            for (&oldi, &v) in a.col_rows(oldj).iter().zip(a.col_values(oldj)) {
                let (i, j) = (perm[oldi], perm[oldj]);
                if i < j {
                    continue;
                }
                let c = symbol.col_to_cblk[j];
                let cb = &symbol.cblks[c];
                let row = symbol.row_offset_in_panel(c, i);
                let pin = tab.pin_l(symbol, c).expect("pin");
                // SAFETY: single-threaded test — no concurrent writer.
                let got = unsafe { pin.slice() }[(j - cb.fcol) * cb.stride + row];
                assert_eq!(got, v, "entry ({oldi},{oldj})");
                placed += 1;
            }
        }
        // Lower triangle including diagonal of a symmetric matrix.
        assert_eq!(placed, (a.nnz() - a.nrows()) / 2 + a.nrows());
        // Total mass conserved (sum of placed values = sum of lower tri).
        let total: f64 = (0..symbol.ncblk())
            .map(|c| {
                let pin = tab.pin_l(symbol, c).expect("pin");
                // SAFETY: single-threaded test — no concurrent writer.
                unsafe { pin.slice() }.iter().sum::<f64>()
            })
            .sum();
        let expect: f64 = (0..a.ncols())
            .flat_map(|j| {
                a.col_rows(j)
                    .iter()
                    .zip(a.col_values(j))
                    .filter(move |&(&i, _)| perm[i] >= perm[j])
                    .map(|(_, &v)| v)
            })
            .sum();
        assert!((total - expect).abs() < 1e-12);
    }

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
        drop(CoefTab::assemble_with(&an, &a, &mem).expect("assembles"));
        assert_eq!(pinned(), Some(pin), "a budgeted drop must not touch the pin");
    }

    #[test]
    fn lu_assembly_splits_lower_and_upper() {
        let a = convection_diffusion_3d(4, 4, 3, 0.3);
        let an = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
        let tab = CoefTab::assemble(&an, &a);
        let symbol = &an.symbol;
        assert!(tab.has_u());
        // All value mass present across the two sides.
        let total: f64 = (0..symbol.ncblk())
            .map(|c| {
                let lp = tab.pin_l(symbol, c).expect("pin L");
                let up = tab.pin_u(symbol, c).expect("pin U");
                // SAFETY: single-threaded test — no concurrent writer.
                let l = unsafe { lp.slice() }.iter().sum::<f64>();
                let u = unsafe { up.slice() }.iter().sum::<f64>();
                l + u
            })
            .sum();
        let expect: f64 = a.values().iter().sum();
        assert!((total - expect).abs() < 1e-10, "{total} vs {expect}");
        // U side is not empty for a convective problem.
        let any_u = (0..symbol.ncblk()).any(|c| {
            let up = tab.pin_u(symbol, c).expect("pin U");
            // SAFETY: single-threaded test — no concurrent writer.
            unsafe { up.slice() }.iter().any(|&v| v != 0.0)
        });
        assert!(any_u);
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
            .map(|c| eager.layout.panel_len(symbol, c))
            .max()
            .unwrap_or(0)
            * std::mem::size_of::<f64>();
        let budget = MemoryBudget::with_cap((max_panel * 3).max(4096));
        let mem = MemoryOptions {
            budget: Some(budget.clone()),
            spill_dir: None,
        };
        let lazy = CoefTab::assemble_with(&an, &a, &mem).expect("lazy assemble");

        // Touch every panel in order (forces materialize + evictions),
        // then touch them all again (forces fault-ins) and compare.
        for c in 0..symbol.ncblk() {
            let _ = lazy.pin_l(symbol, c).expect("first touch");
            lazy.retire(c);
        }
        for c in 0..symbol.ncblk() {
            let lp = lazy.pin_l(symbol, c).expect("second touch");
            let ep = eager.pin_l(symbol, c).expect("eager pin");
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
        let layout = PanelLayout::new(symbol);
        let max_panel: usize = (0..symbol.ncblk())
            .map(|c| layout.panel_len(symbol, c))
            .max()
            .unwrap_or(0)
            * std::mem::size_of::<f64>();
        let budget = MemoryBudget::with_cap((max_panel * 2).max(2048));
        let mem = MemoryOptions {
            budget: Some(budget),
            spill_dir: None,
        };
        let tab = CoefTab::assemble_with(&an, &a, &mem).expect("assemble");
        let pin0 = tab.pin_l(symbol, 0).expect("pin 0");
        // SAFETY: single-threaded test — no concurrent writer.
        let before = unsafe { pin0.slice() }.to_vec();
        // Hammer the pager: materialize everything else while 0 is pinned.
        for c in 1..symbol.ncblk() {
            let _ = tab.pin_l(symbol, c).expect("pin");
        }
        // Panel 0 must still be resident and unchanged under the pin.
        // SAFETY: single-threaded test — no concurrent writer.
        let after = unsafe { pin0.slice() };
        for (x, y) in before.iter().zip(after.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn budget_release_on_drop_balances_ledger() {
        let a = grid_laplacian_2d(6, 6);
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let budget = MemoryBudget::unbounded();
        let mem = MemoryOptions {
            budget: Some(budget.clone()),
            spill_dir: None,
        };
        let tab = CoefTab::assemble_with(&an, &a, &mem).expect("assemble");
        assert!(budget.used() > 0, "eager assembly charges the ledger");
        drop(tab);
        assert_eq!(budget.used(), 0, "drop must release every charge");
        assert!(budget.peak() > 0);
    }
}
