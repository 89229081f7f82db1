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
//! The ledger is the one input of the demand pager in `core/src/coeftab.rs`
//! (DESIGN.md §9): every charge of the numeric phase — panels as they
//! materialize or fault in, and the per-worker GEMM workspaces as they
//! grow — goes through it, and a charge that does not fit evicts cold
//! panels to a disk-backed store (`core/src/spill.rs`), retired first, then
//! least recently used. A task that still finds no room waits for another's
//! release (a pin wait); with none running it overcommits, counted.
//!
//! A typed [`BudgetError::Exceeded`] is the ledger's one refusal; the
//! pager turns it into a spill or an overcommit, and only a request that
//! even spilling cannot make room for (a single panel larger than the
//! whole cap) reaches the caller. The ledger counts bytes and does not
//! allocate: a real allocation failure aborts the process.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Arc;

/// Identifiers for the allocation sites that charge the budget; a
/// [`BudgetError::Exceeded`] names the site that was refused.
pub mod site {
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
    /// Charges forced above the cap because nothing was evictable.
    pub overcommit_events: usize,
    /// Task acquisitions that found no room and waited for a release.
    pub pin_waits: usize,
}

/// The ledger. Cheap to share (`Arc`); every counter is an atomic.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    cap: Option<usize>,
    used: AtomicUsize,
    peak: AtomicUsize,
    spill_bytes: AtomicUsize,
    spill_events: AtomicUsize,
    fault_in_events: AtomicUsize,
    overcommit_events: AtomicUsize,
    pin_waits: AtomicUsize,
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
    }

    /// Record a spill of `bytes` (one panel written to disk).
    pub fn note_spill(&self, bytes: usize) {
        // ORDERING: statistics counters; no memory is published.
        self.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.spill_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a spilled panel faulted back into memory.
    pub fn note_fault_in(&self) {
        // ORDERING: statistics counter; no memory is published.
        self.fault_in_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a task acquisition that waits for room.
    pub fn note_pin_wait(&self) {
        // ORDERING: statistics counter; no memory is published.
        self.pin_waits.fetch_add(1, Ordering::Relaxed);
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
            overcommit_events: self.overcommit_events.load(Ordering::Relaxed),
            pin_waits: self.pin_waits.load(Ordering::Relaxed),
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
    }

    #[test]
    fn hard_cap_rejects_with_typed_error() {
        let b = MemoryBudget::with_cap(100);
        b.try_charge(80, site::CACHE).expect("fits");
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
        assert_eq!(b.pressure(), 0.8);
    }

    #[test]
    fn forced_charge_overcommits_and_counts() {
        let b = MemoryBudget::with_cap(100);
        b.try_charge(90, 1).expect("charge");
        b.charge_forced(50);
        assert_eq!(b.used(), 140);
        b.note_spill(16);
        b.note_fault_in();
        let stats = b.stats();
        assert_eq!(stats.overcommit_events, 1);
        assert_eq!(stats.peak_bytes, 140);
        assert_eq!((stats.spill_bytes, stats.spill_events, stats.fault_in_events), (16, 1, 1));
    }
}
