//! Exhaustive model checks of the runtime's five core synchronization
//! protocols, run under `--cfg loom` (`make check-loom`).
//!
//! Each protocol gets a positive model — the property holds on **every**
//! interleaving the explorer can produce — and a negative "teeth" twin
//! that weakens the protocol (a relaxed ordering, a dropped lock, a
//! plain wait where a timed one is required) and asserts the checker
//! *catches* it. The teeth tests are what make a green run meaningful:
//! they prove the checker can see the failure class at all.
//!
//! The components under test are the real ones — `release_pending`,
//! `WorkerDeque`, `MemoryBudget`, `TraceRecorder`/`Lane` — compiled
//! against the model backend of [`dagfact_rt::sync`], not re-transcribed
//! pseudo-code.

#![cfg(loom)]

use dagfact_rt::budget::MemoryBudget;
use dagfact_rt::deque::WorkerDeque;
use dagfact_rt::model::{self, cell::ModelCell, thread};
use dagfact_rt::release_pending;
use dagfact_rt::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use dagfact_rt::sync::{Arc, Condvar, Mutex};
use dagfact_rt::trace::{Lane, SpanKind, TraceRecorder};
use std::time::Duration;

// ---------------------------------------------------------------------
// Model 1: fan-in pending-counter release
// ---------------------------------------------------------------------

/// Two predecessors each publish a payload, then decrement the shared
/// pending counter through [`release_pending`]. Exactly one of them
/// observes the final release and must see *both* payloads (the AcqRel
/// RMW chain keeps the release sequence intact).
#[test]
fn fan_in_release_fires_exactly_once_with_full_visibility() {
    model::check(|| {
        let pending = Arc::new(AtomicU32::new(2));
        let a = Arc::new(ModelCell::new(0u32));
        let b = Arc::new(ModelCell::new(0u32));
        let fired = Arc::new(AtomicU32::new(0));

        let (p2, a2, b2, f2) = (
            Arc::clone(&pending),
            Arc::clone(&a),
            Arc::clone(&b),
            Arc::clone(&fired),
        );
        let t = thread::spawn(move || {
            a2.write(1);
            if release_pending(&p2, 9).expect("no underflow") {
                // Final releaser runs the successor: both predecessor
                // payloads must be visible.
                assert_eq!(a2.read(), 1);
                assert_eq!(b2.read(), 2);
                f2.fetch_add(1, Ordering::AcqRel);
            }
        });

        b.write(2);
        if release_pending(&pending, 9).expect("no underflow") {
            assert_eq!(a.read(), 1);
            assert_eq!(b.read(), 2);
            fired.fetch_add(1, Ordering::AcqRel);
        }

        t.join();
        assert_eq!(fired.load(Ordering::Acquire), 1, "successor enqueued once");
        assert_eq!(pending.load(Ordering::Acquire), 0);
    });
}

/// Teeth: the same fan-in with a `Relaxed` decrement tears the
/// happens-before edge — the final releaser reads the other
/// predecessor's payload without ordering, and the checker must report
/// the data race.
#[test]
fn fan_in_with_relaxed_decrement_is_a_data_race() {
    let failure = model::try_check(|| {
        let pending = Arc::new(AtomicU32::new(2));
        let a = Arc::new(ModelCell::new(0u32));
        let b = Arc::new(ModelCell::new(0u32));

        let (p2, a2, b2) = (Arc::clone(&pending), Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            a2.write(1);
            if p2.fetch_sub(1, Ordering::Relaxed) == 1 {
                let _ = a2.read();
                let _ = b2.read();
            }
        });

        b.write(2);
        if pending.fetch_sub(1, Ordering::Relaxed) == 1 {
            let _ = a.read();
            let _ = b.read();
        }

        t.join();
    })
    .expect_err("a Relaxed fan-in decrement must race");
    assert!(failure.message.contains("data race"), "got: {failure}");
}

/// Underflow stays typed (never wraps) in every interleaving: three
/// releases against a counter of two — the third, whoever performs it,
/// gets `Err(ReleaseUnderflow)`.
#[test]
fn fan_in_underflow_is_typed_in_every_interleaving() {
    model::check(|| {
        let pending = Arc::new(AtomicU32::new(2));
        let errs = Arc::new(AtomicU32::new(0));

        let (p2, e2) = (Arc::clone(&pending), Arc::clone(&errs));
        let t = thread::spawn(move || {
            // This predecessor releases twice (a duplicate edge).
            for _ in 0..2 {
                if release_pending(&p2, 3).is_err() {
                    e2.fetch_add(1, Ordering::AcqRel);
                }
            }
        });
        if release_pending(&pending, 3).is_err() {
            errs.fetch_add(1, Ordering::AcqRel);
        }
        t.join();

        assert_eq!(errs.load(Ordering::Acquire), 1, "exactly one typed underflow");
        assert_eq!(pending.load(Ordering::Acquire), 0, "counter never wraps");
    });
}

// ---------------------------------------------------------------------
// Model 2: owner-LIFO / thief-FIFO deque
// ---------------------------------------------------------------------

/// Owner pops and a thief steals concurrently: every item is taken
/// exactly once, owner sees LIFO order, thief sees FIFO order. The
/// single-remaining-item case exercises the Chase-Lev `top` CAS
/// arbitration between `pop` and `steal` in every interleaving.
#[test]
fn deque_owner_and_thief_take_each_item_exactly_once() {
    model::check(|| {
        // Tiny ring: every model atomic is explorable state.
        let w = WorkerDeque::with_capacity(4);
        w.push(1).expect("fits");
        w.push(2).expect("fits");
        let s = w.stealer();
        let taken = Arc::new(Mutex::new(Vec::new()));

        let t2 = Arc::clone(&taken);
        let t = thread::spawn(move || {
            let mut mine = Vec::new();
            // Two bounded attempts (`None` can mean "lost the CAS
            // race"; the engines poll, the model keeps the attempt
            // count finite to bound the interleaving space).
            for _ in 0..2 {
                if let Some(v) = s.steal() {
                    mine.push(v);
                }
            }
            // Thief steals from the FIFO (cold) end.
            assert!(mine == [] as [usize; 0] || mine == [1] || mine == [1, 2]);
            t2.lock().extend(mine);
        });

        let mut mine = Vec::new();
        // One pop attempt concurrent with the thief; the post-join drain
        // below is single-threaded and adds no interleavings.
        if let Some(v) = w.pop() {
            mine.push(v);
        }
        t.join();
        while let Some(v) = w.pop() {
            mine.push(v);
        }
        // Owner pops from the LIFO (hot) end.
        assert!(mine == [] as [usize; 0] || mine == [2] || mine == [2, 1]);
        taken.lock().extend(mine);
        let mut all = taken.lock().clone();
        all.sort_unstable();
        assert_eq!(all, [1, 2], "each item taken exactly once");
    });
}

/// Teeth: check-then-act on the stealer's racy `is_empty` snapshot. Two
/// thieves both observe one remaining item; the loser's `unwrap` panics
/// — under Chase-Lev, `steal` additionally returns `None` on a lost CAS,
/// so the hazard is even wider than under the old mutex deque. This is
/// why the engines treat emptiness as a hint only.
#[test]
fn deque_check_then_act_on_snapshot_panics_somewhere() {
    let failure = model::try_check(|| {
        let w = WorkerDeque::with_capacity(4);
        w.push(7).expect("fits");
        let s1 = w.stealer();
        let s2 = w.stealer();

        let t = thread::spawn(move || {
            if !s1.is_empty() {
                s1.steal().unwrap();
            }
        });
        if !s2.is_empty() {
            s2.steal().unwrap();
        }
        t.join();
    })
    .expect_err("TOCTOU on the emptiness snapshot must panic in some interleaving");
    assert!(failure.message.contains("unwrap"), "got: {failure}");
}

// ---------------------------------------------------------------------
// Model 7: Chase-Lev batched steal (ROADMAP item 5)
// ---------------------------------------------------------------------

/// A thief batch-steals (one `top` CAS per item) while the owner pops:
/// the batch plus the owner's pops cover every item exactly once in
/// every interleaving — loss-freedom and no double-take for the exact
/// protocol `native`'s steal path runs.
#[test]
fn deque_batched_steal_and_owner_pop_cover_each_item_exactly_once() {
    model::check(|| {
        let w = WorkerDeque::with_capacity(4);
        for i in 1..=3 {
            w.push(i).expect("fits");
        }
        let s = w.stealer();
        let taken = Arc::new(Mutex::new(Vec::new()));

        let t2 = Arc::clone(&taken);
        let t = thread::spawn(move || {
            let mut mine = Vec::new();
            if let Some(first) = s.steal_batch(3, |v| mine.push(v)) {
                mine.insert(0, first);
            }
            // FIFO end: stolen items are an in-order run from the cold
            // end.
            for pair in mine.windows(2) {
                assert_eq!(pair[1], pair[0] + 1, "batch must be contiguous from the cold end");
            }
            t2.lock().extend(mine);
        });

        let mut mine = Vec::new();
        // One pop attempt concurrent with the batch; the post-join drain
        // is single-threaded and adds no interleavings.
        if let Some(v) = w.pop() {
            mine.push(v);
        }
        t.join();
        while let Some(v) = w.pop() {
            mine.push(v);
        }
        taken.lock().extend(mine);
        let mut all = taken.lock().clone();
        all.sort_unstable();
        assert_eq!(all, [1, 2, 3], "each item taken exactly once, none lost");
    });
}

/// Teeth: the batched steal that looks cheaper — claim `k = 2` items
/// with a **single** `top` CAS (`t -> t + 2`) — double-takes against a
/// LIFO owner. The owner's plain pops never touch `top` while more than
/// one entry remains, so it can take a slot *inside* the thief's claimed
/// window and the wide CAS still succeeds. This is exactly why
/// `Stealer::steal_batch` pays one CAS per item.
#[test]
fn deque_wide_cas_batch_steal_double_takes_against_the_owner() {
    use dagfact_rt::sync::atomic::{AtomicU64, AtomicUsize};

    // The Chase-Lev ring with the unsound batch shortcut, inlined (the
    // real `deque` module does not expose one, by design).
    struct WideBatch {
        top: AtomicU64,
        bottom: AtomicU64,
        slots: Vec<AtomicUsize>,
    }
    impl WideBatch {
        fn pop(&self) -> Option<usize> {
            let b = self.bottom.load(Ordering::Relaxed);
            if self.top.load(Ordering::Relaxed) >= b {
                return None;
            }
            let b = b - 1;
            self.bottom.store(b, Ordering::SeqCst);
            let t = self.top.load(Ordering::SeqCst);
            if t < b {
                // More than one entry left: plain take, no CAS — the
                // legitimate Chase-Lev owner fast path the wide batch
                // CAS is unsound against.
                return Some(self.slots[b as usize].load(Ordering::Relaxed));
            }
            if t == b {
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then(|| self.slots[b as usize].load(Ordering::Relaxed));
            }
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }

        /// The unsound part: two slots, one CAS.
        fn steal_two(&self) -> Option<[usize; 2]> {
            let t = self.top.load(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::SeqCst);
            if b - t < 2 {
                return None;
            }
            let v0 = self.slots[t as usize].load(Ordering::Relaxed);
            let v1 = self.slots[t as usize + 1].load(Ordering::Relaxed);
            self.top
                .compare_exchange(t, t + 2, Ordering::SeqCst, Ordering::Relaxed)
                .ok()
                .map(|_| [v0, v1])
        }
    }

    let failure = model::try_check(|| {
        let d = Arc::new(WideBatch {
            top: AtomicU64::new(0),
            bottom: AtomicU64::new(3),
            slots: (0..4).map(AtomicUsize::new).collect(),
        });
        let seen = Arc::new(Mutex::new([0u8; 3]));

        let (d2, s2) = (Arc::clone(&d), Arc::clone(&seen));
        let t = thread::spawn(move || {
            if let Some(pair) = d2.steal_two() {
                let mut seen = s2.lock();
                for v in pair {
                    seen[v] += 1;
                    assert!(seen[v] == 1, "item {v} taken twice");
                }
            }
        });

        while let Some(v) = d.pop() {
            let mut seen = seen.lock();
            seen[v] += 1;
            assert!(seen[v] == 1, "item {v} taken twice");
        }
        t.join();
    })
    .expect_err("a k=2 single-CAS batch must double-take in some interleaving");
    assert!(failure.message.contains("taken twice"), "got: {failure}");
}

// ---------------------------------------------------------------------
// Model 3: condvar watchdog shutdown
// ---------------------------------------------------------------------

/// The correct protocol: the shutdown flag mutates under the mutex and
/// the notify follows the mutation. A plain (untimed) wait never loses
/// the wakeup and never deadlocks.
#[test]
fn condvar_shutdown_under_lock_never_loses_the_wakeup() {
    model::check(|| {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());

        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = thread::spawn(move || {
            let mut g = m2.lock();
            *g = true;
            cv2.notify_one();
        });

        {
            let mut g = m.lock();
            while !*g {
                g = cv.wait(g);
            }
        }
        t.join();
    });
}

/// The watchdog pattern: the flag is published *outside* the mutex, so
/// the notify can fire before the waiter parks — but a **timed** wait
/// makes the lost wakeup survivable: the timeout is always a schedulable
/// exit, so no interleaving deadlocks. This is exactly why the engines'
/// idle loops use `wait_timeout` + `idle_check`.
#[test]
fn condvar_timed_wait_survives_a_lost_wakeup() {
    model::check(|| {
        let m = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let flag = Arc::new(AtomicBool::new(false));

        let (cv2, f2) = (Arc::clone(&cv), Arc::clone(&flag));
        let t = thread::spawn(move || {
            f2.store(true, Ordering::Release);
            cv2.notify_one();
        });

        let g = m.lock();
        if !flag.load(Ordering::Acquire) {
            // The notify may already have fired (and been lost); the
            // timeout guarantees progress either way.
            let _g = cv.wait_timeout(g, Duration::from_millis(1));
        }
        t.join();
        assert!(flag.load(Ordering::Acquire));
    });
}

/// Teeth: the same broken publish with a **plain** wait deadlocks in the
/// interleaving where the notify lands between the flag check and the
/// park — the classic lost wakeup, reported by the explorer.
#[test]
fn condvar_plain_wait_loses_the_wakeup_and_deadlocks() {
    let failure = model::try_check(|| {
        let m = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let flag = Arc::new(AtomicBool::new(false));

        let (cv2, f2) = (Arc::clone(&cv), Arc::clone(&flag));
        let t = thread::spawn(move || {
            f2.store(true, Ordering::Release);
            cv2.notify_one();
        });

        let g = m.lock();
        if !flag.load(Ordering::Acquire) {
            let _g = cv.wait(g);
        }
        t.join();
    })
    .expect_err("a plain wait must deadlock on the lost wakeup");
    assert!(failure.message.contains("deadlock"), "got: {failure}");
}

// ---------------------------------------------------------------------
// Model 4: memory-budget ledger
// ---------------------------------------------------------------------

/// Concurrent charges never exceed the cap (the CAS admission check),
/// at least one contender is admitted, and the ledger drains to zero.
#[test]
fn budget_ledger_respects_cap_and_drains() {
    model::check(|| {
        let b = MemoryBudget::with_cap(100);

        // Concurrent admission: 60 + 60 over a cap of 100.
        let admitted = Arc::new(AtomicU32::new(0));
        let (b2, adm2) = (Arc::clone(&b), Arc::clone(&admitted));
        let t = thread::spawn(move || {
            if b2.try_charge(60, 1).is_ok() {
                adm2.fetch_add(1, Ordering::AcqRel);
                b2.release(60);
            }
        });
        if b.try_charge(60, 2).is_ok() {
            admitted.fetch_add(1, Ordering::AcqRel);
            b.release(60);
        }
        t.join();

        assert!(admitted.load(Ordering::Acquire) >= 1, "no livelock: someone got in");
        assert_eq!(b.used(), 0, "ledger drains");
        assert!(b.peak() <= 100, "cap never exceeded");
    });
}

/// Teeth: a load/store ledger (instead of the CAS loop) loses an update
/// when two charges interleave — the explorer finds the interleaving
/// where the final balance is wrong.
#[test]
fn budget_load_store_ledger_loses_updates() {
    let failure = model::try_check(|| {
        let used = Arc::new(AtomicU32::new(0));
        let u2 = Arc::clone(&used);
        let t = thread::spawn(move || {
            let v = u2.load(Ordering::Acquire);
            u2.store(v + 60, Ordering::Release);
        });
        let v = used.load(Ordering::Acquire);
        used.store(v + 60, Ordering::Release);
        t.join();
        assert_eq!(used.load(Ordering::Acquire), 120, "lost update");
    })
    .expect_err("a load/store ledger must lose an update somewhere");
    assert!(failure.message.contains("lost update"), "got: {failure}");
}

// ---------------------------------------------------------------------
// Model 5: trace-lane handoff
// ---------------------------------------------------------------------

/// Two workers record into private lanes that merge into the recorder on
/// drop (worker exit); a detached lane records nothing. Every span
/// arrives exactly once, in every interleaving of the merges.
#[test]
fn trace_lanes_merge_on_worker_exit() {
    model::check(|| {
        let rec = TraceRecorder::shared();

        let r2 = Arc::clone(&rec);
        let t = thread::spawn(move || {
            let mut lane = Lane::new(Some(&r2), 1);
            assert!(lane.enabled());
            let t0 = lane.now();
            lane.record(SpanKind::Execute, Some(0), t0);
            // Lane drops here: merge-on-worker-exit.
        });

        {
            let mut lane = Lane::new(Some(&rec), 0);
            let t0 = lane.now();
            lane.record(SpanKind::Execute, Some(1), t0);
        }

        {
            // Detached lane: tracing disabled, records nothing, merges
            // nothing.
            let mut lane = Lane::new(None, 2);
            assert!(!lane.enabled());
            lane.record(SpanKind::Execute, Some(2), 0);
        }

        t.join();
        assert_eq!(rec.len(), 2, "both attached spans, nothing from the detached lane");
    });
}

/// Teeth: workers sharing one *unsynchronized* span buffer instead of
/// private lanes race on the flush — the reason `Lane` buffers privately
/// and merges under the recorder's mutex.
#[test]
fn trace_shared_unsynchronized_buffer_is_a_data_race() {
    let failure = model::try_check(|| {
        let buf = Arc::new(ModelCell::new(Vec::<u32>::new()));
        let b2 = Arc::clone(&buf);
        let t = thread::spawn(move || b2.with_mut(|v| v.push(1)));
        buf.with_mut(|v| v.push(2));
        t.join();
    })
    .expect_err("two unsynchronized flushes must race");
    assert!(failure.message.contains("data race"), "got: {failure}");
}

// ---------------------------------------------------------------------
// Shim semantics under the model backend
// ---------------------------------------------------------------------

/// Mutations made inside a critical section are visible to the next
/// holder — same contract as the std backend's poison-recovering lock
/// (the model has no poisoning: a panicking holder aborts the whole
/// execution and is reported, which is strictly stricter).
#[test]
fn model_mutex_publishes_critical_section_writes() {
    model::check(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            *m2.lock() += 1;
        });
        *m.lock() += 1;
        t.join();
        assert_eq!(*m.lock(), 2);
    });
}

/// `wait_timeout` returns the reacquired guard after a timeout with no
/// notifier in sight — the caller re-checks its predicate either way,
/// matching the std backend's signature and contract.
#[test]
fn model_wait_timeout_returns_guard_without_notifier() {
    model::check(|| {
        let m = Mutex::new(41u32);
        let cv = Condvar::new();
        let g = m.lock();
        // No other thread exists: the only schedulable exit is the
        // timeout, and the guard comes back usable.
        let mut g = cv.wait_timeout(g, Duration::from_millis(1));
        *g += 1;
        assert_eq!(*g, 42);
    });
}
