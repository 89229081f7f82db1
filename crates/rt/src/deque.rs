//! Work-stealing deques for the task engines — Chase-Lev style,
//! lock-free on every per-task path.
//!
//! The engines want the classic owner-LIFO / thief-FIFO discipline: the
//! releasing worker pushes freshly-unlocked successors on the *hot* end
//! of its own deque (the written panel is still in cache) while idle
//! workers steal the *oldest* — coldest — entry from a victim. Earlier
//! revisions traded the lock-free protocol for a short critical section
//! around a `VecDeque`; on tiny-task DAGs (the afshell regime of
//! `bench/overhead`) that mutex was the dominant per-task cost, so the
//! ready structure is now a bounded Chase-Lev ring \[Chase & Lev 2005;
//! fence placement after Lê et al. 2013, with the fences expressed as
//! `SeqCst` accesses on `top`/`bottom`\]:
//!
//! * **`top`/`bottom` are monotone `u64` indices** into a power-of-two
//!   ring, so an index is never reused (no ABA) and emptiness is just
//!   `top >= bottom`.
//! * **Payloads are `usize` task ids stored in `AtomicUsize` slots** —
//!   a deliberately non-generic design: slot reads that lose the `top`
//!   CAS race read a value that is simply discarded, which is only
//!   memory-safe (without `unsafe`) because the slots are atomics.
//! * **The ring is bounded and never reallocates.** `push` returns the
//!   value back on overflow and the engines spill to the [`Injector`];
//!   correctness never depends on the capacity.
//! * **Thieves take one CAS per stolen item, even in a batch.** A
//!   single CAS advancing `top` by `k > 1` is unsound against a LIFO
//!   owner: the owner bypasses the `top` CAS whenever it observes at
//!   least two entries, so it may legally take `bottom - 1` *inside*
//!   the thief's claimed `[top, top+k)` window. The
//!   `deque_batched_steal_*` models in `tests/loom_models.rs` pin both
//!   sides: per-item CAS is exhaustively clean, the `k = 2` shortcut is
//!   caught double-taking.
//!
//! The owner/thief arbitration for the last element relies on the
//! sequentially-consistent order of the `bottom` store in `pop` against
//! the `top`/`bottom` loads in `steal` (a store-buffering idiom). The
//! model checker explores interleavings — sequentially consistent by
//! construction — so it verifies the protocol logic (take-exactly-once,
//! loss-freedom, the last-element race) but not the fence placement
//! itself; that placement follows the literature cited above.

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex};
use std::collections::VecDeque;

/// Default ring capacity (entries). Deep local queues spill to the
/// injector; see [`WorkerDeque::push`].
const DEFAULT_CAP: usize = 1024;

/// The shared ring. Owner and thief handles delegate here so both sides
/// of the protocol live next to each other.
struct Ring {
    /// Steal index (monotone; thieves CAS it forward one item at a time,
    /// the owner CASes it only for the last-element race).
    top: AtomicU64,
    /// Push index (monotone net of pop's transient decrement; written by
    /// the owner only).
    bottom: AtomicU64,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    slots: Box<[AtomicUsize]>,
}

impl Ring {
    fn with_capacity(cap: usize) -> Ring {
        let cap = cap.max(2).next_power_of_two();
        Ring {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            // ALLOC: once per deque at engine setup; the ring never
            // grows, which is what makes the per-task paths
            // allocation-free (asserted by tests/alloc_counting.rs).
            slots: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Owner push at the LIFO end. `Err(v)` when the ring is full.
    fn push_bottom(&self, v: usize) -> Result<(), usize> {
        // ORDERING: Relaxed — `bottom` has a single writer (the owner,
        // which is this thread), so this read is of our own last store.
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t > self.mask {
            return Err(v);
        }
        // ORDERING: Relaxed slot store — the Release store of `bottom`
        // below publishes it; a thief reads the slot only after an
        // Acquire load of `bottom` observes the new index.
        // BOUNDS: index is masked by the power-of-two ring mask, so it
        // is always < slots.len().
        self.slots[(b & self.mask) as usize].store(v, Ordering::Relaxed);
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner pop at the LIFO end.
    fn take_bottom(&self) -> Option<usize> {
        // ORDERING: Relaxed fast-path emptiness probe — only thieves
        // raise `top`, so a stale value under-reports steals and we
        // merely fall through to the synchronized path.
        let b = self.bottom.load(Ordering::Relaxed);
        if self.top.load(Ordering::Relaxed) >= b {
            return None;
        }
        let b = b - 1;
        // The SeqCst store/load pair is the pop side of the
        // store-buffering arbitration: publish the claim on slot `b`
        // *before* sampling `top`, so a thief that misses the claim is
        // ordered after it (see the module docs).
        self.bottom.store(b, Ordering::SeqCst);
        let t = self.top.load(Ordering::SeqCst);
        if t < b {
            // At least one entry remains for the thieves: slot `b` is
            // unambiguously ours.
            // ORDERING: Relaxed slot read — the owner itself wrote this
            // slot; thieves only read slots.
            // BOUNDS: index is masked by the ring mask, always in range.
            return Some(self.slots[(b & self.mask) as usize].load(Ordering::Relaxed));
        }
        if t == b {
            // Exactly one entry: arbitrate with the thieves on `top`.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            // ORDERING: Relaxed — restores the canonical empty form
            // (`bottom == top`); the next push re-publishes with
            // Release.
            self.bottom.store(b + 1, Ordering::Relaxed);
            // ORDERING: Relaxed slot read — winning the CAS made the
            // slot exclusively ours, and the owner wrote it.
            // BOUNDS: index is masked by the ring mask, always in range.
            return won.then(|| self.slots[(b & self.mask) as usize].load(Ordering::Relaxed));
        }
        // t == b + 1: a thief drained the deque between the fast-path
        // probe and the claim.
        // ORDERING: Relaxed — canonical empty restore, see above.
        self.bottom.store(b + 1, Ordering::Relaxed);
        None
    }

    /// Thief take at the FIFO end. `None` on empty **or** on losing the
    /// `top` CAS — emptiness and contention are both "try again later"
    /// to the polling engines.
    fn take_top(&self) -> Option<usize> {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        if t >= b {
            return None;
        }
        // ORDERING: Relaxed slot read *before* the claim: if the slot is
        // concurrently recycled by a wrapped-around push, that push saw
        // `top` already past `t`, so the CAS below fails and the value
        // is discarded. Monotone u64 indices rule out ABA on `top`.
        // BOUNDS: index is masked by the ring mask, always in range.
        let v = self.slots[(t & self.mask) as usize].load(Ordering::Relaxed);
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .ok()
            .map(|_| v)
    }

    /// Racy length snapshot.
    fn len(&self) -> usize {
        // ORDERING: Relaxed — victim-selection heuristic by contract; a
        // stale value costs one wasted probe or one missed steal round.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        b.saturating_sub(t) as usize
    }
}

/// The owner's end of a work-stealing deque of `usize` task ids.
pub struct WorkerDeque {
    ring: Arc<Ring>,
}

/// A thief's handle onto some worker's deque.
pub struct Stealer {
    ring: Arc<Ring>,
}

impl Clone for Stealer {
    fn clone(&self) -> Self {
        Stealer {
            ring: Arc::clone(&self.ring),
        }
    }
}

impl Default for WorkerDeque {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerDeque {
    /// New empty deque with the default capacity.
    pub fn new() -> WorkerDeque {
        Self::with_capacity(DEFAULT_CAP)
    }

    /// New empty deque holding at least `cap` entries (rounded up to a
    /// power of two).
    pub fn with_capacity(cap: usize) -> WorkerDeque {
        WorkerDeque {
            // ALLOC: one shared ring per deque, at engine setup only.
            ring: Arc::new(Ring::with_capacity(cap)),
        }
    }

    /// A stealer handle for other workers.
    pub fn stealer(&self) -> Stealer {
        Stealer {
            ring: Arc::clone(&self.ring),
        }
    }

    /// Owner push (LIFO end). The ring is bounded: on overflow the value
    /// comes back as `Err` and the caller spills it (the engines use the
    /// shared [`Injector`]); no task is ever dropped.
    pub fn push(&self, value: usize) -> Result<(), usize> {
        self.ring.push_bottom(value)
    }

    /// Owner pop (LIFO end): the most recently released task.
    pub fn pop(&self) -> Option<usize> {
        self.ring.take_bottom()
    }

    /// Free slots from the owner's point of view — a lower bound, since
    /// concurrent thieves only ever *create* space.
    pub fn spare(&self) -> usize {
        (self.ring.mask as usize + 1).saturating_sub(self.ring.len())
    }
}

impl Stealer {
    /// Steal from the FIFO end: the oldest (coldest) task. `None` means
    /// empty **or** lost a race — callers poll, so both are "not now".
    pub fn steal(&self) -> Option<usize> {
        self.ring.take_top()
    }

    /// Batched steal: take up to `limit` items (capped at half the
    /// observed backlog — the victim keeps its hot end), one CAS per
    /// item (see the module docs for why a single `k`-wide CAS is
    /// unsound). The first stolen item is returned to run now; the rest
    /// are handed to `sink` (typically `local.push` with an injector
    /// spill). Stops early on contention.
    pub fn steal_batch(&self, limit: usize, mut sink: impl FnMut(usize)) -> Option<usize> {
        let goal = limit.min(self.ring.len().div_ceil(2)).max(1);
        let first = self.ring.take_top()?;
        for _ in 1..goal {
            match self.ring.take_top() {
                Some(v) => sink(v),
                None => break,
            }
        }
        Some(first)
    }

    /// Number of queued tasks (racy snapshot, for victim selection).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A global MPMC queue seeding the initially-ready tasks and absorbing
/// deque overflow. Mutex-backed: it is touched once per task at seed
/// time and only on the (capacity-bounded) spill path afterwards, so it
/// is deliberately *not* part of the per-task steady state — the
/// lock-order graph in `results/lint-sync.json` carries `Injector.queue`
/// as the only remaining ready-path lock node.
#[derive(Default)]
pub struct Injector<T> {
    queue: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> Injector<T> {
    /// New empty injector.
    pub fn new() -> Injector<T> {
        Injector {
            // ALLOC: one overflow queue per engine run, at setup time.
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Enqueue at the back.
    pub fn push(&self, value: T) {
        // LOCK: global injector — one lock per push: every seed of the
        // ptg and dataflow policies, every task dataflow releases, and
        // deque overflow spills.
        // ALLOC: VecDeque growth amortized over the run.
        let mut q = self.queue.lock();
        q.push_back(value);
        // ORDERING: Relaxed — heuristic length mirror; the mutex is the
        // synchronization point for the queue contents.
        self.len.store(q.len(), Ordering::Relaxed);
    }

    /// Dequeue from the front.
    pub fn steal(&self) -> Option<T> {
        // ORDERING: Relaxed empty pre-check — after the seed drains, all
        // workers poll the injector every loop; this keeps that poll off
        // the mutex.
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        // LOCK: global injector mutex, one lock per pop of a non-empty
        // queue (under dataflow, nearly every task a worker runs).
        let mut q = self.queue.lock();
        let v = q.pop_front();
        // ORDERING: Relaxed — heuristic mirror, see `push`.
        self.len.store(q.len(), Ordering::Relaxed);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_thief_is_fifo() {
        let w = WorkerDeque::new();
        let s = w.stealer();
        w.push(1).unwrap();
        w.push(2).unwrap();
        w.push(3).unwrap();
        assert_eq!(s.steal(), Some(1)); // oldest
        assert_eq!(w.pop(), Some(3)); // newest
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn len_mirror_tracks_contents() {
        let w = WorkerDeque::new();
        let s = w.stealer();
        assert!(s.is_empty());
        w.push(1).unwrap();
        w.push(2).unwrap();
        assert_eq!(s.len(), 2);
        let _ = w.pop();
        assert_eq!(s.len(), 1);
        let _ = s.steal();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_push_returns_the_value_on_overflow() {
        let w = WorkerDeque::with_capacity(4);
        for i in 0..4 {
            w.push(i).unwrap();
        }
        assert_eq!(w.push(99), Err(99), "full ring must hand the value back");
        // Draining one entry makes room again.
        assert_eq!(s_drain_one(&w), Some(0));
        w.push(99).unwrap();
        assert_eq!(w.spare(), 0);
    }

    fn s_drain_one(w: &WorkerDeque) -> Option<usize> {
        w.stealer().steal()
    }

    #[test]
    fn ring_wraps_around_without_losing_or_duplicating() {
        let w = WorkerDeque::with_capacity(4);
        let s = w.stealer();
        // Cycle far past the capacity so indices wrap the ring many
        // times; monotone u64 top/bottom keep every slot claim unique.
        for i in 0..1000usize {
            w.push(i).unwrap();
            let got = if i % 2 == 0 { w.pop() } else { s.steal() };
            assert_eq!(got, Some(i));
        }
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), None);
    }

    #[test]
    fn batched_steal_moves_half_and_returns_first() {
        let w = WorkerDeque::new();
        let s = w.stealer();
        for i in 0..8 {
            w.push(i).unwrap();
        }
        let mut moved = Vec::new();
        let first = s.steal_batch(8, |v| moved.push(v));
        // 8 available → goal is half: item 0 returned, 1..=3 to the sink.
        assert_eq!(first, Some(0));
        assert_eq!(moved, vec![1, 2, 3]);
        assert_eq!(s.len(), 4);
        // The victim keeps its hot end.
        assert_eq!(w.pop(), Some(7));
    }

    #[test]
    fn concurrent_steals_take_each_item_once() {
        let w = WorkerDeque::with_capacity(16_384);
        for i in 0..10_000usize {
            w.push(i).unwrap();
        }
        let taken = Mutex::new(vec![false; 10_000]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = w.stealer();
                let taken = &taken;
                scope.spawn(move || {
                    // Contention returns None; scan until the deque is
                    // observably empty, not merely contended.
                    while !s.is_empty() {
                        if let Some(i) = s.steal() {
                            let mut t = taken.lock();
                            assert!(!t[i], "item {i} stolen twice");
                            t[i] = true;
                        }
                    }
                });
            }
        });
        assert!(taken.into_inner().into_iter().all(|b| b));
    }

    #[test]
    fn owner_and_thieves_race_without_loss() {
        const N: usize = 10_000;
        let w = WorkerDeque::with_capacity(16_384);
        for i in 0..N {
            w.push(i).unwrap();
        }
        let taken = Mutex::new(vec![false; N]);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let s = w.stealer();
                let taken = &taken;
                scope.spawn(move || {
                    while !s.is_empty() {
                        if let Some(i) = s.steal() {
                            let mut t = taken.lock();
                            assert!(!t[i], "item {i} taken twice");
                            t[i] = true;
                        }
                    }
                });
            }
            let taken = &taken;
            scope.spawn(move || {
                while let Some(i) = w.pop() {
                    let mut t = taken.lock();
                    assert!(!t[i], "item {i} taken twice");
                    t[i] = true;
                }
            });
        });
        assert!(taken.into_inner().into_iter().all(|b| b), "an item was lost");
    }

    #[test]
    fn injector_roundtrip() {
        let inj = Injector::new();
        inj.push(5);
        inj.push(6);
        assert_eq!(inj.steal(), Some(5));
        assert_eq!(inj.steal(), Some(6));
        assert_eq!(inj.steal(), None);
    }
}
