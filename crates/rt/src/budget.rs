//! Memory-budget accounting for the numeric phase.
//!
//! The paper's GPU contribution is a *memory-constrained* kernel: the
//! scheduler must know what fits on the device and degrade gracefully
//! when the answer is "not everything" (§IV-C). [`MemoryBudget`] is the
//! ledger that makes that decision possible on the host side: every
//! coefficient-panel, temp-buffer and workspace allocation in
//! `dagfact-core` charges the ledger before allocating and releases it
//! when the storage is dropped or spilled.
//!
//! The ledger drives a two-rung degradation ladder (DESIGN.md §9):
//!
//! 1. **Throttling** — the engines narrow their admission width so fewer
//!    tasks (and therefore fewer live panels and workspaces) run
//!    concurrently ([`crate::fault::Supervisor`] consults
//!    [`MemoryBudget::admission_width`]).
//! 2. **Spilling** — cold factored panels are written to a disk-backed
//!    store and faulted back in on the next touch (`core/src/spill.rs`).
//!    Every charge of the numeric phase — panels and the per-worker GEMM
//!    workspaces alike — goes through the pager in `core/src/coeftab.rs`,
//!    which makes room this way before it overcommits.
//!
//! A typed [`BudgetError::Exceeded`] is the ledger's one refusal; the
//! pager turns it into a spill or an overcommit, and only a request that
//! even spilling cannot make room for (a single panel larger than the
//! whole cap) reaches the caller. The ledger counts bytes and does not
//! allocate: a real allocation failure aborts the process.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};

/// Pressure at which the engines throttle admission width to 2.
pub const PRESSURE_THROTTLE: f64 = 0.90;
/// Pressure at which admission width is 1.
pub const PRESSURE_CRITICAL: f64 = 0.97;
/// Pressure at which retired (cold) panels are eagerly spilled.
pub const PRESSURE_SPILL: f64 = 0.85;

/// Identifiers for the allocation sites that charge the budget; a
/// [`BudgetError::Exceeded`] names the site that was refused.
pub mod site {
    /// Whole-factor L coefficient storage (reserved in bulk without a cap).
    pub const COEFTAB_L: usize = 1;
    /// Whole-factor U coefficient storage (the same, LU only).
    pub const COEFTAB_U: usize = 2;
    /// Per-worker GEMM temp buffers.
    pub const WORKSPACE: usize = 4;
    /// Fault-in of a spilled panel during solve or update.
    pub const SPILL_READBACK: usize = 7;
    /// Long-lived service caches (analysis / factor handles held across
    /// requests by `dagfact-serve`); the first shed victim under load.
    pub const CACHE: usize = 8;
    /// Base for per-panel materialization sites: panel `c` of side L
    /// charges at `PANEL_BASE + key(c)`.
    pub const PANEL_BASE: usize = 64;
}

/// Why a charge was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The hard cap would be exceeded by a strict charge (no
    /// spill/overcommit escape).
    Exceeded {
        /// Bytes the caller asked for.
        requested: usize,
        /// Bytes charged at the time of the request.
        used: usize,
        /// The configured hard cap.
        cap: usize,
        /// Allocation site (see [`site`]).
        site: usize,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Exceeded {
                requested,
                used,
                cap,
                site,
            } => write!(
                f,
                "memory budget exceeded: requested {requested} B at site {site} \
                 with {used} B of {cap} B in use"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Degradation rung derived from current pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Below [`PRESSURE_THROTTLE`]: unlimited admission.
    Green,
    /// Admission throttled to width 2.
    Orange,
    /// Admission width 1.
    Red,
}

/// Peak-memory snapshot for one named phase (assembly, factorization,
/// solve, …) as recorded by [`MemoryBudget::end_phase`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStats {
    /// Phase label.
    pub name: String,
    /// High-water mark of charged bytes during the phase.
    pub peak_bytes: usize,
    /// Bytes written to the spill store during the phase.
    pub spill_bytes: usize,
    /// Panels spilled during the phase.
    pub spill_events: usize,
}

/// Snapshot of the ledger counters, carried in `RunReport` and the
/// bench JSON emitter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryStats {
    /// Configured hard cap, if any.
    pub cap: Option<usize>,
    /// Bytes currently charged.
    pub used_bytes: usize,
    /// All-time high-water mark of charged bytes.
    pub peak_bytes: usize,
    /// Total bytes written to the spill store.
    pub spill_bytes: usize,
    /// Panels spilled to disk.
    pub spill_events: usize,
    /// Spilled panels faulted back in.
    pub fault_in_events: usize,
    /// Times an engine worker was denied admission by the throttle.
    pub throttle_events: usize,
    /// Charges forced above the cap because nothing was evictable.
    pub overcommit_events: usize,
    /// Per-phase peaks, in the order the phases ended.
    pub phases: Vec<PhaseStats>,
}

/// The ledger. Cheap to share (`Arc`), all hot-path counters are
/// atomics; the phase list is behind a mutex touched only at phase
/// boundaries.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    cap: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
    phase_peak: AtomicUsize,
    phase_spill_bytes: AtomicUsize,
    phase_spill_events: AtomicUsize,
    spill_bytes: AtomicUsize,
    spill_events: AtomicUsize,
    fault_in_events: AtomicUsize,
    throttle_events: AtomicUsize,
    overcommit_events: AtomicUsize,
    phases: Mutex<Vec<PhaseStats>>,
}

impl MemoryBudget {
    /// Unbounded ledger: accounting (peaks, counters) without a cap.
    pub fn unbounded() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Ledger with a hard cap in bytes.
    pub fn with_cap(cap: usize) -> Arc<Self> {
        Arc::new(Self {
            cap: Some(cap),
            ..Self::default()
        })
    }

    /// The configured hard cap, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
    }

    /// Bytes currently charged.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }

    /// All-time high-water mark.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Acquire)
    }

    /// Fraction of the cap currently in use (0.0 when unbounded).
    pub fn pressure(&self) -> f64 {
        match self.cap {
            Some(cap) if cap > 0 => self.used() as f64 / cap as f64,
            _ => 0.0,
        }
    }

    /// Current degradation rung.
    pub fn level(&self) -> PressureLevel {
        let p = self.pressure();
        if p >= PRESSURE_CRITICAL {
            PressureLevel::Red
        } else if p >= PRESSURE_THROTTLE {
            PressureLevel::Orange
        } else {
            PressureLevel::Green
        }
    }

    /// Should retired (cold) panels be spilled eagerly right now?
    pub fn should_spill(&self) -> bool {
        self.cap.is_some() && self.pressure() >= PRESSURE_SPILL
    }

    /// Engine admission width: `None` means unlimited; `Some(w)` means
    /// at most `w` tasks should run concurrently. Always ≥ 1 so the
    /// watchdog can never see a fully-throttled live graph.
    pub fn admission_width(&self) -> Option<usize> {
        match self.level() {
            PressureLevel::Green => None,
            PressureLevel::Orange => Some(2),
            PressureLevel::Red => Some(1),
        }
    }

    /// Charge `bytes` at `site`, failing if the hard cap would be
    /// exceeded. On `Ok(())` the caller owns the charge and must pair it
    /// with [`Self::release`].
    pub fn try_charge(&self, bytes: usize, site: usize) -> Result<(), BudgetError> {
        // ORDERING: optimistic first read of a CAS loop — a stale value
        // only costs one extra CAS iteration.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(bytes);
            if let Some(cap) = self.cap {
                if next > cap {
                    return Err(BudgetError::Exceeded {
                        requested: bytes,
                        used: cur,
                        cap,
                        site,
                    });
                }
            }
            // ORDERING: Relaxed on CAS failure — the reloaded value only
            // feeds the next iteration's attempt, nothing is published.
            match self.used.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.bump_peak(next);
                    return Ok(());
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Charge `bytes` unconditionally (overcommit): used when an
    /// allocation is required for progress and nothing is evictable.
    pub fn charge_forced(&self, bytes: usize) {
        let next = self.used.fetch_add(bytes, Ordering::AcqRel) + bytes;
        if let Some(cap) = self.cap {
            if next > cap {
                // ORDERING: statistics counter; no memory is published.
                self.overcommit_events.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.bump_peak(next);
    }

    /// Release a previous charge.
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::AcqRel);
    }

    fn bump_peak(&self, next: usize) {
        self.peak.fetch_max(next, Ordering::AcqRel);
        self.phase_peak.fetch_max(next, Ordering::AcqRel);
    }

    /// Record a spill of `bytes` (one panel written to disk).
    pub fn note_spill(&self, bytes: usize) {
        // ORDERING: statistics counters; no memory is published.
        self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_events.fetch_add(1, Ordering::Relaxed);
        self.phase_spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.phase_spill_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a spilled panel faulted back into memory.
    pub fn note_fault_in(&self) {
        // ORDERING: statistics counter; no memory is published.
        self.fault_in_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an admission denial by the engine throttle.
    pub fn note_throttle(&self) {
        // ORDERING: statistics counter; no memory is published.
        self.throttle_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Close the current phase under `name`, recording its peak and
    /// spill traffic, and reset the per-phase counters for the next one.
    pub fn end_phase(&self, name: &str) {
        let peak = self.phase_peak.swap(self.used(), Ordering::AcqRel);
        let spill_bytes = self.phase_spill_bytes.swap(0, Ordering::AcqRel);
        let spill_events = self.phase_spill_events.swap(0, Ordering::AcqRel);
        self.phases.lock().push(PhaseStats {
                name: name.to_string(),
                peak_bytes: peak,
                spill_bytes,
                spill_events,
            });
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> MemoryStats {
        // ORDERING: statistics snapshot; counters are independent and
        // staleness is acceptable, so Relaxed loads suffice.
        MemoryStats {
            cap: self.cap,
            used_bytes: self.used(),
            peak_bytes: self.peak(),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            spill_events: self.spill_events.load(Ordering::Relaxed),
            fault_in_events: self.fault_in_events.load(Ordering::Relaxed),
            throttle_events: self.throttle_events.load(Ordering::Relaxed),
            overcommit_events: self.overcommit_events.load(Ordering::Relaxed),
            phases: self.phases.lock().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_tracks_peak() {
        let b = MemoryBudget::unbounded();
        b.try_charge(100, site::WORKSPACE).expect("charge");
        b.try_charge(50, site::CACHE).expect("charge");
        assert_eq!(b.used(), 150);
        b.release(100);
        assert_eq!(b.used(), 50);
        assert_eq!(b.peak(), 150);
        assert_eq!(b.pressure(), 0.0);
        assert_eq!(b.level(), PressureLevel::Green);
    }

    #[test]
    fn hard_cap_rejects_with_typed_error() {
        let b = MemoryBudget::with_cap(100);
        b.try_charge(80, site::COEFTAB_L).expect("fits");
        let err = b.try_charge(40, site::WORKSPACE).expect_err("over cap");
        assert_eq!(
            err,
            BudgetError::Exceeded {
                requested: 40,
                used: 80,
                cap: 100,
                site: site::WORKSPACE
            }
        );
        // The failed charge must not leak into the ledger.
        assert_eq!(b.used(), 80);
    }

    #[test]
    fn pressure_levels_follow_thresholds() {
        let b = MemoryBudget::with_cap(1000);
        b.try_charge(840, 1).expect("charge");
        assert_eq!(b.level(), PressureLevel::Green);
        assert_eq!(b.admission_width(), None);
        assert!(!b.should_spill());
        b.try_charge(10, 1).expect("charge");
        assert_eq!(b.level(), PressureLevel::Green);
        assert!(b.should_spill());
        b.try_charge(50, 1).expect("charge");
        assert_eq!(b.level(), PressureLevel::Orange);
        assert_eq!(b.admission_width(), Some(2));
        b.try_charge(70, 1).expect("charge");
        assert_eq!(b.level(), PressureLevel::Red);
        assert_eq!(b.admission_width(), Some(1));
        assert!(b.should_spill());
    }

    #[test]
    fn forced_charge_overcommits_and_counts() {
        let b = MemoryBudget::with_cap(100);
        b.try_charge(90, 1).expect("charge");
        b.charge_forced(50);
        assert_eq!(b.used(), 140);
        let stats = b.stats();
        assert_eq!(stats.overcommit_events, 1);
        assert_eq!(stats.peak_bytes, 140);
    }

    #[test]
    fn phases_record_peaks_independently() {
        let b = MemoryBudget::unbounded();
        b.try_charge(100, 1).expect("charge");
        b.end_phase("assembly");
        b.release(100);
        b.try_charge(40, 1).expect("charge");
        b.note_spill(16);
        b.end_phase("factorization");
        let stats = b.stats();
        assert_eq!(stats.phases.len(), 2);
        assert_eq!(stats.phases[0].name, "assembly");
        assert_eq!(stats.phases[0].peak_bytes, 100);
        assert_eq!(stats.phases[0].spill_events, 0);
        // A phase opens at the previous phase's residual usage (100 was
        // still charged at the boundary), so that is its floor.
        assert_eq!(stats.phases[1].peak_bytes, 100);
        assert_eq!(stats.phases[1].spill_bytes, 16);
        assert_eq!(stats.phases[1].spill_events, 1);
        assert_eq!(stats.spill_events, 1);
    }
}
