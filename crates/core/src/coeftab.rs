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
//! A task takes what [`TaskKind::accesses`] declares in one step,
//! [`CoefTab::acquire`]: every panel, both sides for LU, plus its worker's
//! GEMM-buffer growth, held as [`TaskPins`] until the body returns. The
//! solve pins panel by panel ([`CoefTab::pin_solve`]). The pager never
//! evicts a pinned panel. Under a cap acquisitions take turns: a set that
//! finds no room waits for another task's release, holding nothing, and
//! is forced over the cap only while no other set is held.
//!
//! Dropping an unbudgeted tab leaves one element allocated (`HEAP_PIN`):
//! glibc hands the top of the heap back to the OS once a dropped factor
//! leaves it free, and the next factorization then faults its ~90 MB in
//! again (DESIGN.md §9).

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::analysis::Analysis;
use crate::spill::SpillStore;
use crate::tasks::TaskKind;
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
    /// Panel length in elements ([`PanelLayout::panel_len`]).
    len: usize,
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
    /// An untouched slot of a `len`-element panel over `storage` (length 0).
    fn new(storage: Vec<T>, len: usize) -> Slot<T> {
        Slot {
            state: Mutex::new(SlotState::Untouched(storage)),
            len,
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
}

impl<T> PanelPin<'_, T> {
    /// Immutable view of the panel.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent mutable access to this
    /// panel — the same happens-before contract as
    /// [`dagfact_rt::SharedSlice::slice`], discharged by the engines'
    /// dependency ordering (and machine-checked by `rt::verify`).
    pub unsafe fn slice(&self) -> &[T] {
        // SAFETY: ptr and the slot's len describe the resident allocation,
        // kept alive by the pin; aliasing discipline is the caller's contract.
        unsafe { std::slice::from_raw_parts(self.ptr, self.slot.len) }
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
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.slot.len) }
    }
}

impl<T> Drop for PanelPin<'_, T> {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Which of a panel's stores: the L panel or LU's Uᵀ panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelSide {
    /// The L panel (with the whole diagonal block).
    L,
    /// The Uᵀ panel (LU only).
    U,
}

/// An acquisition's outcome: `None` when a charge found no room and may
/// not overcommit.
type Acquired<R> = Result<Option<R>, SolverError>;

/// What one task holds while its body runs: a pin of every panel it
/// declares (at most two panels of two sides, inline, so acquiring
/// allocates nothing). Dropping it releases the pins and, under a cap,
/// wakes the acquisitions waiting for room.
pub struct TaskPins<'a, T: 'static> {
    tab: &'a CoefTab<T>,
    pins: [Option<(usize, PanelPin<'a, T>)>; 4],
    /// Counted among the tab's holders (capped ledger only).
    held: bool,
}

impl<T: Scalar> TaskPins<'_, T> {
    /// The pin of panel `c`'s `side`; `None` for the U side of a tab
    /// without one.
    fn find(&self, c: usize, side: PanelSide) -> Option<&PanelPin<'_, T>> {
        if side == PanelSide::U && !self.tab.lu {
            return None;
        }
        let key = self.tab.slot_of(c, side);
        let found = self.pins.iter().flatten().find(|(k, _)| *k == key);
        // PANIC: a body touches only the panels its task declares.
        Some(&found.unwrap_or_else(|| panic!("panel slot {key} is not in the task's set")).1)
    }

    /// Panel `c`'s `side`, read-only; empty for a U side the tab lacks.
    ///
    /// # Safety
    /// As [`PanelPin::slice`].
    pub unsafe fn slice(&self, c: usize, side: PanelSide) -> &[T] {
        // SAFETY: the caller's contract.
        self.find(c, side).map_or(&[], |p| unsafe { p.slice() })
    }

    /// Panel `c`'s `side`, mutable; empty for a U side the tab lacks.
    ///
    /// # Safety
    /// As [`PanelPin::slice_mut`].
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, c: usize, side: PanelSide) -> &mut [T] {
        // SAFETY: the caller's contract.
        self.find(c, side).map_or(&mut [], |p| unsafe { p.slice_mut() })
    }
}

impl<T: 'static> Drop for TaskPins<'_, T> {
    fn drop(&mut self) {
        if self.held {
            // Unpinned before the count drops: an acquirer that sees no
            // holder finds every panel evictable.
            self.pins = Default::default();
            // LOCK: capped ledger only, the holder count.
            let mut holders = self.tab.holders.lock().unwrap_or_else(PoisonError::into_inner);
            *holders -= 1;
            self.tab.released.notify_all();
        }
    }
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
    /// Capped ledger only: held task sets; acquisitions take turns under it.
    holders: Mutex<usize>,
    /// Notified when a held set is released.
    released: Condvar,
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
        let tab = Self::reserve(analysis, None, None);
        let src = PanelSource::new(analysis, a);
        for key in 0..tab.slots.len() {
            // With no budget, the one failure left is the matrix itself.
            if let Err(e) = tab.pin(key, Some(&src), true) {
                panic!("cannot assemble: {e}");
            }
        }
        tab
    }

    /// One untouched slot per panel, charged to `budget` (none: no
    /// accounting; without a cap: peaks only) and spilled under
    /// `spill_dir` (default: the system temp dir). Without a cap every
    /// panel's capacity is reserved now (charging the ledger, if any, in
    /// one step: both sides' [`PanelLayout::total`]); with a cap nothing is
    /// allocated until a panel is pinned.
    pub fn reserve(
        analysis: &Analysis,
        budget: Option<&Arc<MemoryBudget>>,
        spill_dir: Option<&std::path::Path>,
    ) -> CoefTab<T> {
        let symbol = &analysis.symbol;
        let ncblk = symbol.ncblk();
        let lu = analysis.facto == FactoKind::Lu;
        let layout = PanelLayout::new(symbol, lu);
        let lazy = budget.is_some_and(|b| b.cap().is_some());
        let nsides = if lu { 2 * ncblk } else { ncblk };
        // An uncapped ledger cannot refuse: the whole factor is counted
        // in one step.
        let eager_charged = match budget {
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
            budget: budget.cloned(),
            spill: lazy.then(|| SpillStore::new(spill_dir)),
            eager_charged,
            clock: AtomicU64::new(0),
            holders: Mutex::new(0),
            released: Condvar::new(),
        };
        for key in 0..nsides {
            let len = PanelLayout::panel_len(symbol, key);
            tab.slots.push(Slot::new(Vec::with_capacity(if lazy { 0 } else { len }), len));
        }
        tab
    }

    /// Does this tab carry a U side?
    pub fn has_u(&self) -> bool {
        self.lu
    }

    /// Slot of panel `c`'s `side`: L panels first, then the Uᵀ panels.
    fn slot_of(&self, c: usize, side: PanelSide) -> usize {
        c + if side == PanelSide::U { self.ncblk } else { 0 }
    }

    /// Acquire what `task` declares ([`TaskKind::accesses`]) in one step:
    /// every panel, both sides for LU, resident and pinned (first touches
    /// filled from `src`), plus `grow` bytes of its worker's GEMM buffer —
    /// all of it or, on an error, none. Without a cap that is one pin per
    /// panel and nothing shared. Under a cap acquisitions take turns; a set
    /// that finds no room after evicting every unpinned panel drops what
    /// it pinned and waits for another set's release (a pin wait), and is
    /// forced over the cap (an overcommit) only while no other set is held.
    pub fn acquire(&self, task: TaskKind, src: &PanelSource<'_, T>, grow: usize) -> Result<TaskPins<'_, T>, SolverError> {
        // Nothing refuses room without a cap: one attempt does.
        if !self.lazy {
            if let Some(set) = self.try_acquire(task, src, grow, true)? {
                return Ok(set);
            }
        }
        // LOCK: capped ledger only; held across the attempt, never by a body.
        let mut holders = self.holders.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(mut set) = self.try_acquire(task, src, grow, *holders == 0)? {
                *holders += 1;
                set.held = true;
                return Ok(set);
            }
            if let Some(b) = &self.budget {
                b.note_pin_wait();
            }
            // LOCK: capped ledger only; the wait holds no pin and no slot.
            holders = self.released.wait(holders).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One attempt at `task`'s set.
    fn try_acquire(&self, task: TaskKind, src: &PanelSource<'_, T>, grow: usize, overcommit: bool) -> Acquired<TaskPins<'_, T>> {
        let mut set = TaskPins { tab: self, pins: Default::default(), held: false };
        let sides: &[PanelSide] = if self.lu { &[PanelSide::L, PanelSide::U] } else { &[PanelSide::L] };
        let keys = task.accesses().flat_map(|(c, _)| sides.iter().map(move |&side| self.slot_of(c, side)));
        for (entry, key) in set.pins.iter_mut().zip(keys) {
            let Some(pin) = self.pin(key, Some(src), overcommit)? else {
                return Ok(None);
            };
            *entry = Some((key, pin));
        }
        let room = grow == 0 || self.charge_grow(grow, site::WORKSPACE, overcommit)?;
        Ok(room.then_some(set))
    }

    /// Pin slot `key`, faulting it in if needed. The panel's first pin
    /// fills it from `src`; `None` is for a tab whose panels have all been
    /// touched (the solve, [`CoefTab::assemble`]).
    fn pin(&self, key: usize, src: Option<&PanelSource<'_, T>>, overcommit: bool) -> Acquired<PanelPin<'_, T>> {
        // BOUNDS: `key` is `c` or `ncblk + c` (LU) for a column block `c`
        // of the analysis the slot table was laid out for.
        let slot = &self.slots[key];
        // LOCK: this panel's own slot, contended only by its concurrent readers.
        let mut st = slot.lock();
        // ORDERING: the stamp is an LRU recency hint read under the slot
        // lock; a stale value only skews eviction order, never safety.
        slot.stamp
            .store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let (esize, len) = (std::mem::size_of::<T>(), slot.len);
        match &mut *st {
            SlotState::Resident(_) => {}
            SlotState::Untouched(storage) => {
                // PANIC: only the factorization touches a panel first, with `src`.
                let Some(src) = src else {
                    unreachable!("panel slot {key} pinned without a source before its first touch")
                };
                // Nothing is mutated before the charge succeeds.
                if self.lazy && !self.charge_grow(len * esize, site::PANEL_BASE + key, overcommit)? {
                    return Ok(None);
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
                if !self.charge_grow(len * esize, site::SPILL_READBACK, overcommit)? {
                    return Ok(None);
                }
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
        Ok(Some(PanelPin { slot, ptr }))
    }

    /// Pin panel `c`'s `side` of a factored tab (the U side: its rows
    /// below the diagonal block, leading dimension `stride − width`),
    /// faulting it back in if spilled. For the solve phase, which has no
    /// error channel: a charge that finds no room overcommits.
    pub fn pin_solve(&self, c: usize, side: PanelSide) -> PanelPin<'_, T> {
        // PANIC: a spill-store failure or a panel larger than the whole
        // cap (capped ledger only); an overcommitting charge always fits.
        match self.pin(self.slot_of(c, side), None, true) {
            Ok(Some(pin)) => pin,
            Ok(None) => unreachable!("an overcommitting charge found no room"),
            Err(e) => panic!("cannot fault {side:?} panel {c} back in for the solve: {e}"),
        }
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

    /// Charge `bytes` at `site`, evicting cold panels to make room. With
    /// nothing left to evict it is forced over the cap if `overcommit`,
    /// else refused: `Ok(false)`, nothing charged. Only a single request
    /// larger than the whole cap — where spilling provably cannot help —
    /// is an error. Panels charge here as they materialize or fault in,
    /// and so do the workers' GEMM buffers as they grow: one pager makes
    /// room for every large allocation of the numeric phase.
    fn charge_grow(&self, bytes: usize, at: usize, overcommit: bool) -> Result<bool, SolverError> {
        let Some(b) = &self.budget else {
            return Ok(true);
        };
        while let Err(e) = b.try_charge(bytes, at) {
            if b.cap().is_some_and(|cap| bytes > cap) {
                // Even an empty ledger could not hold it.
                return Err(SolverError::from_budget(e));
            }
            if !self.evict_one() {
                // Nothing evictable (everything pinned or already spilled).
                if !overcommit {
                    return Ok(false);
                }
                b.charge_forced(bytes);
                break;
            }
        }
        Ok(true)
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
    use std::time::{Duration, Instant};

    /// Panel `c`'s task set: its first touch, or a pin while held.
    fn panel(c: usize) -> TaskKind {
        TaskKind::Panel { cblk: c }
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
        let budgeted = CoefTab::<f64>::reserve(&an, Some(&MemoryBudget::unbounded()), None);
        drop(budgeted.acquire(panel(0), &PanelSource::new(&an, &a), 0).expect("pin"));
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
        let lazy = CoefTab::reserve(&an, Some(&budget), None);
        assert_eq!(budget.used(), 0, "a capped tab holds nothing until a panel is touched");
        let src = PanelSource::new(&an, &a);

        // Touch every panel in order (forces materialize + evictions),
        // then touch them all again (forces fault-ins) and compare.
        for c in 0..symbol.ncblk() {
            let _ = lazy.acquire(panel(c), &src, 0).expect("first touch");
            lazy.retire(c);
        }
        for c in 0..symbol.ncblk() {
            let lp = lazy.pin_solve(c, PanelSide::L);
            let ep = eager.pin_solve(c, PanelSide::L);
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
        let tab = CoefTab::reserve(&an, Some(&budget), None);
        let src = PanelSource::new(&an, &a);
        let pin0 = tab.acquire(panel(0), &src, 0).expect("pin 0");
        // SAFETY: single-threaded test — no concurrent writer.
        let before = unsafe { pin0.slice(0, PanelSide::L) }.to_vec();
        // Hammer the pager: materialize everything else while 0 is pinned.
        for c in 1..symbol.ncblk() {
            let _ = tab.acquire(panel(c), &src, 0).expect("pin");
        }
        // Panel 0 must still be resident and unchanged under the pin.
        // SAFETY: single-threaded test — no concurrent writer.
        let after = unsafe { pin0.slice(0, PanelSide::L) };
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
        let tab = CoefTab::<f64>::reserve(&an, Some(&budget), None);
        let src = PanelSource::new(&an, &a);
        for c in [0, 1] {
            drop(tab.acquire(panel(c), &src, 0).expect("first touch"));
        }
        tab.retire(1);
        assert!(tab.charge_grow(bytes(1), site::WORKSPACE, false).expect("room by eviction"));
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
        let tab = CoefTab::<f64>::reserve(&an, Some(&MemoryBudget::with_cap(1 << 30)), None);
        let src = PanelSource::new(&an, &a);
        drop(tab.acquire(panel(0), &src, 0).expect("pin"));
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
            let tab = CoefTab::<f64>::reserve(&an, Some(&budget), None);
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

    /// A leaked problem and its source, so that a thread stuck past a
    /// test's time bound cannot outlive what it borrows.
    fn leaked() -> (&'static Analysis, &'static PanelSource<'static, f64>) {
        let a = Box::leak(Box::new(grid_laplacian_2d(8, 8)));
        let an = Analysis::new(a.pattern(), FactoKind::Cholesky, &SolverOptions::default());
        let an: &'static Analysis = Box::leak(Box::new(an));
        (an, Box::leak(Box::new(PanelSource::new(an, a))))
    }

    fn bytes(an: &Analysis, c: usize) -> usize {
        PanelLayout::panel_len(&an.symbol, c) * std::mem::size_of::<f64>()
    }

    /// The first update out of panel `c`, with its source and target.
    fn first_update(an: &Analysis, c: usize) -> (TaskKind, usize, usize) {
        let block = an.symbol.cblks[c].block_begin + 1;
        let target = an.symbol.blocks[block].facing;
        (TaskKind::Update { cblk: c, block, target }, c, target)
    }

    #[test]
    fn a_set_without_room_waits_for_a_release() {
        // Room for one of two panels: the second set waits, holding
        // nothing, until the first is dropped, then evicts its panel.
        let (an, src) = leaked();
        let budget = MemoryBudget::with_cap(bytes(an, 0).max(bytes(an, 1)));
        let tab = Arc::new(CoefTab::<f64>::reserve(an, Some(&budget), None));
        let first = tab.acquire(panel(0), src, 0).expect("room for one");
        let (done, finished) = std::sync::mpsc::channel();
        let second = {
            let tab = tab.clone();
            std::thread::spawn(move || done.send(tab.acquire(panel(1), src, 0).is_ok()))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while budget.stats().pin_waits == 0 {
            assert!(Instant::now() < deadline, "the second set did not wait");
            std::thread::yield_now();
        }
        drop(first);
        let acquired = finished.recv_timeout(Duration::from_secs(10));
        assert_eq!(acquired, Ok(true), "the waiting set did not complete");
        second.join().expect("acquirer").expect("send");
        let stats = budget.stats();
        assert_eq!((stats.overcommit_events, stats.spill_events), (0, 1), "{stats:?}");
        assert!(stats.pin_waits >= 1);
    }

    #[test]
    fn a_set_without_room_and_no_other_holder_overcommits() {
        // Each panel of the update fits the cap, both together do not, and
        // no other set is held to wait for: forced, counted.
        let (an, src) = leaked();
        let (task, c, target) = first_update(an, 0);
        let budget = MemoryBudget::with_cap(bytes(an, c).max(bytes(an, target)));
        let tab = CoefTab::<f64>::reserve(an, Some(&budget), None);
        drop(tab.acquire(task, src, 0).expect("forced"));
        let stats = budget.stats();
        assert_eq!((stats.overcommit_events, stats.pin_waits), (1, 0), "{stats:?}");
    }

    #[test]
    fn crossing_sets_both_finish() {
        // Two tasks each read the panel the other writes (the second is
        // made up: no block of `q` faces `p`), under a cap that holds one
        // such set. Between rounds each takes a third panel, which waits
        // while the other holds the pair. A wait holds nothing, so neither
        // blocks the other for good, and no set ever needs more than the
        // cap.
        let (an, src) = leaked();
        let (forward, p, q) = first_update(an, 0);
        let backward = TaskKind::Update { cblk: q, block: 0, target: p };
        let cap = bytes(an, p) + bytes(an, q);
        let ncblk = an.symbol.ncblk();
        let r = (0..ncblk).find(|&r| r != p && r != q && bytes(an, r) <= cap).expect("a third panel");
        let budget = MemoryBudget::with_cap(cap);
        let tab = Arc::new(CoefTab::<f64>::reserve(an, Some(&budget), None));
        let (done, finished) = std::sync::mpsc::channel();
        let threads: Vec<_> = [forward, backward]
            .into_iter()
            .map(|task| {
                let (tab, done) = (tab.clone(), done.clone());
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let set = tab.acquire(task, src, 0).expect("crossing set");
                        std::thread::yield_now();
                        drop(set);
                        drop(tab.acquire(panel(r), src, 0).expect("third panel"));
                    }
                    done.send(())
                })
            })
            .collect();
        for _ in &threads {
            let finished = finished.recv_timeout(Duration::from_secs(20));
            assert_eq!(finished, Ok(()), "a crossing set never finished");
        }
        for t in threads {
            t.join().expect("acquirer").expect("send");
        }
        let stats = budget.stats();
        assert_eq!(stats.overcommit_events, 0, "{stats:?}");
    }
}
