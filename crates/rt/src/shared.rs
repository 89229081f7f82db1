//! Runtime-managed shared mutable storage.
//!
//! A task runtime guarantees, through the dependency graph, that two tasks
//! never touch the same datum concurrently unless both accesses are reads.
//! The kernels therefore need *aliasable* mutable access to the coefficient
//! arrays — the same contract StarPU/PaRSEC codelets get from C pointers.
//! [`SharedSlice`] packages that contract: an `UnsafeCell`-backed slice
//! whose unsafe accessors document exactly what the scheduler must enforce.
//!
//! This module also owns [`release_pending`], the checked fan-in
//! decrement all three engines use to release successor tasks — the other
//! piece of runtime-managed shared state whose protocol is model-checked
//! (the `loom_models` fan-in model) rather than merely stress-tested.

use crate::sync::atomic::{AtomicU32, Ordering};
use core::cell::UnsafeCell;

/// A heap slice with interior mutability, shareable across the worker
/// threads of an engine run.
///
/// # Safety contract
///
/// Callers of the mutable range accessors ([`SharedSlice::range_mut`],
/// [`SharedSlice::disjoint_pair`]) must guarantee — normally via the
/// runtime's dependency tracking — that no other thread accesses an
/// overlapping range for the duration of the borrow. Disjoint mutable
/// ranges are always fine; there is no whole-slice mutable view.
///
/// Precisely, each borrow is an *access* of some element range in a mode
/// (read / exclusive write), and the obligation is the invariant checked
/// by [`crate::verify`]: for every pair of tasks whose accesses overlap
/// and conflict (not read–read), the engine's dependency graph must
/// contain a happens-before path between the two tasks. `check_static` proves this
/// for a whole submitted graph. A graph that passes cannot produce two
/// live overlapping borrows here, in any schedule.
pub struct SharedSlice<T> {
    data: UnsafeCell<Box<[T]>>,
    /// Cached so `len()` never forms a reference to the (possibly
    /// concurrently mutated) slice; the allocation is never resized.
    len: usize,
}

// SAFETY: all mutation goes through the documented unsafe accessors whose
// callers promise externally-synchronized, non-overlapping access.
unsafe impl<T: Send> Send for SharedSlice<T> {}
// SAFETY: the same argument as for `Send`.
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Clone + Default> SharedSlice<T> {
    /// Allocate `len` default-initialized elements.
    pub fn new_default(len: usize) -> Self {
        SharedSlice {
            data: UnsafeCell::new(vec![T::default(); len].into_boxed_slice()),
            len,
        }
    }
}

impl<T> SharedSlice<T> {
    /// Wrap an existing vector. ALLOC: reuses its buffer (shrinks it only if over-allocated).
    pub fn from_vec(v: Vec<T>) -> Self {
        let len = v.len();
        SharedSlice {
            data: UnsafeCell::new(v.into_boxed_slice()),
            len,
        }
    }

    /// Number of elements. Reads a cached field: the previous
    /// implementation dereferenced the `UnsafeCell` to ask the box,
    /// materializing a whole-slice shared reference that could overlap a
    /// live `range_mut` borrow on another thread — exactly the kind of
    /// aliasing UB this PR's verification pass exists to remove.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Base pointer to the element storage, derived without materializing
    /// any reference to the slice: a transient whole-slice `&`/`&mut`
    /// (what `(*cell.get()).as_mut_ptr()` auto-ref would create) may
    /// alias a live disjoint borrow held by another task, which is
    /// undefined behavior even if never dereferenced.
    fn base_ptr(&self) -> *mut T {
        // SAFETY: `data` always holds a live box; `addr_of_mut!` projects
        // through the Box place without creating a reference, so this
        // cannot conflict with outstanding element borrows.
        (unsafe { core::ptr::addr_of_mut!(**self.data.get()) }) as *mut T
    }

    /// Immutable view of the whole slice.
    ///
    /// # Safety
    /// No thread may be mutating any element for the duration of the
    /// borrow: every writer task must be ordered against this read by a
    /// dependency edge — the invariant [`crate::verify::check_static`]
    /// proves per engine graph (callers outside an engine run, e.g. after
    /// a join, uphold it trivially).
    pub unsafe fn slice(&self) -> &[T] {
        // SAFETY: storage is live and `len` elements long; absence of
        // concurrent writers is the caller's documented obligation.
        unsafe { core::slice::from_raw_parts(self.base_ptr(), self.len) }
    }

    /// Simultaneous read view of `read` and write view of `write`, which
    /// must be disjoint ranges (checked).
    ///
    /// # Safety
    /// The caller must guarantee (via runtime dependencies) that no other
    /// thread writes `read` or touches `write` during the borrows — i.e.
    /// the task holds a verified read access on `read` and an exclusive
    /// access on `write` in the sense of [`crate::verify::Mode`].
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn disjoint_pair(
        &self,
        read: core::ops::Range<usize>,
        write: core::ops::Range<usize>,
    ) -> (&[T], &mut [T]) {
        assert!(
            read.end <= write.start || write.end <= read.start,
            "overlapping ranges {read:?} and {write:?}"
        );
        let len = self.len();
        assert!(read.end <= len && write.end <= len);
        // SAFETY: ranges are in-bounds (asserted above) and disjoint; the
        // base pointer is reference-free, so the two views only assert
        // exclusivity over their own ranges. Cross-thread exclusivity on
        // those ranges is the caller's documented obligation (a verified
        // read access on `read`, an exclusive access on `write` —
        // `crate::verify::Mode`).
        unsafe {
            let base = self.base_ptr();
            (
                core::slice::from_raw_parts(base.add(read.start), read.len()),
                core::slice::from_raw_parts_mut(base.add(write.start), write.len()),
            )
        }
    }

    /// Mutable view of one range, without touching the rest of the slice
    /// (other ranges may be concurrently borrowed by other tasks).
    ///
    /// # Safety
    /// The caller must hold exclusive access to `range` for the duration
    /// of the borrow: every other task accessing an overlapping range must
    /// be separated from this one by a dependency edge.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: core::ops::Range<usize>) -> &mut [T] {
        assert!(range.end <= self.len());
        // SAFETY: in-bounds (asserted); the view covers only `range`, so
        // concurrent borrows of disjoint ranges never alias. Exclusivity
        // of `range` itself is the caller's obligation, upheld by a
        // dependency edge and machine-checked by `crate::verify` (static
        // graph proof).
        unsafe {
            let base = self.base_ptr();
            core::slice::from_raw_parts_mut(base.add(range.start), range.len())
        }
    }

    /// Immutable view of one range.
    ///
    /// # Safety
    /// No thread may be mutating elements of `range` during the borrow.
    pub unsafe fn range(&self, range: core::ops::Range<usize>) -> &[T] {
        assert!(range.end <= self.len());
        // SAFETY: in-bounds (asserted); absence of concurrent writers to
        // `range` is the caller's obligation — every writer of an
        // overlapping range must be ordered against this task by a
        // dependency edge (`crate::verify::check_static` invariant).
        unsafe {
            let base = self.base_ptr();
            core::slice::from_raw_parts(base.add(range.start), range.len())
        }
    }

    /// Consume the wrapper and return the underlying storage.
    pub fn into_vec(self) -> Vec<T> {
        self.data.into_inner().into_vec()
    }
}

/// A successor's pending counter was released more times than it has
/// predecessors — a corrupted task graph (duplicate successor edges,
/// understated `npred`) or an engine double-release bug. The unchecked
/// `fetch_sub` the engines previously used silently wraps the `u32` here,
/// masking the corruption; [`release_pending`] surfaces it instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseUnderflow {
    /// The successor task whose counter underflowed.
    pub succ: usize,
}

impl core::fmt::Display for ReleaseUnderflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "pending-counter underflow releasing task {}: more releases than predecessors",
            self.succ
        )
    }
}

impl std::error::Error for ReleaseUnderflow {}

/// Checked fan-in release: decrement `pending` toward readiness.
///
/// Returns `Ok(true)` iff this call performed the *final* release (the
/// counter reached zero) — the caller then, exactly once across all
/// predecessors, enqueues the successor. Returns
/// [`Err(ReleaseUnderflow)`](ReleaseUnderflow) when the counter is
/// already zero, in **every** build profile (strictly stronger than a
/// debug assertion: release builds must not mask graph corruption
/// either); the engines route it through the checked-execution layer as
/// `EngineError::ReleaseUnderflow`.
pub fn release_pending(pending: &AtomicU32, succ: usize) -> Result<bool, ReleaseUnderflow> {
    // ORDERING: Relaxed is enough for the initial read — the CAS below
    // re-validates the value and carries the ordering.
    let mut cur = pending.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return Err(ReleaseUnderflow { succ });
        }
        // ORDERING: AcqRel on success. Release so this predecessor's
        // writes are published into the counter's release sequence;
        // Acquire so the *final* decrementer observes every earlier
        // predecessor's writes before the successor is enqueued. The
        // RMW chain keeps the release sequence intact — this is the
        // property the loom fan-in model checks exhaustively (and whose
        // Relaxed weakening its negative twin proves fatal).
        match pending.compare_exchange_weak(cur, cur - 1, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return Ok(cur == 1),
            Err(seen) => cur = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn disjoint_parallel_writes_are_visible() {
        let n = 1000;
        let shared = Arc::new(SharedSlice::<u64>::new_default(n));
        let nthreads = 4;
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..nthreads {
                let shared = Arc::clone(&shared);
                let counter = &counter;
                scope.spawn(move || {
                    // Each thread owns a disjoint block.
                    let block = t * n / nthreads..(t + 1) * n / nthreads;
                    // SAFETY: blocks are disjoint by construction.
                    let s = unsafe { shared.range_mut(block.clone()) };
                    for (v, i) in s.iter_mut().zip(block) {
                        *v = i as u64 + 1;
                    }
                    counter.fetch_add(1, Ordering::Release);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), nthreads);
        // SAFETY: all writers joined.
        let s = unsafe { shared.slice() };
        for (i, &v) in s.iter().enumerate() {
            assert_eq!(v, i as u64 + 1);
        }
    }

    #[test]
    fn roundtrip_vec() {
        let s = SharedSlice::from_vec(vec![1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.into_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn len_never_touches_element_storage() {
        // `len()` must stay callable while another thread holds a live
        // mutable borrow (it used to form a whole-slice reference).
        let shared = Arc::new(SharedSlice::<u32>::new_default(64));
        std::thread::scope(|scope| {
            let s2 = Arc::clone(&shared);
            scope.spawn(move || {
                // SAFETY: sole writer; the other thread only calls len().
                let s = unsafe { s2.range_mut(0..64) };
                for v in s.iter_mut() {
                    *v = 3;
                }
            });
            for _ in 0..100 {
                assert_eq!(shared.len(), 64);
            }
        });
    }

    #[test]
    fn release_pending_counts_down_and_reports_final() {
        let pending = AtomicU32::new(3);
        assert_eq!(release_pending(&pending, 7), Ok(false));
        assert_eq!(release_pending(&pending, 7), Ok(false));
        assert_eq!(release_pending(&pending, 7), Ok(true));
    }

    #[test]
    fn release_pending_underflow_is_typed_not_wrapping() {
        let pending = AtomicU32::new(1);
        assert_eq!(release_pending(&pending, 9), Ok(true));
        // The double release must NOT wrap to u32::MAX…
        let err = release_pending(&pending, 9).unwrap_err();
        assert_eq!(err, ReleaseUnderflow { succ: 9 });
        assert!(err.to_string().contains("task 9"));
        // …and must leave the counter untouched.
        assert_eq!(pending.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn release_pending_exactly_one_final_release_under_contention() {
        let pending = AtomicU32::new(64);
        let finals = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pending = &pending;
                let finals = &finals;
                scope.spawn(move || {
                    for _ in 0..16 {
                        if release_pending(pending, 0).unwrap() {
                            finals.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(finals.load(Ordering::SeqCst), 1);
        assert_eq!(pending.load(Ordering::SeqCst), 0);
    }
}
