//! Dynamic twin of the `lint` hot-path analyzer (DESIGN.md §13): a
//! counting global allocator proving that the loops the analyzer holds
//! allocation-clean really do run at zero heap traffic in steady state.
//!
//! The static rule reasons about *reachable call sites*; this test
//! closes the loop on the dynamic side — if someone slips an allocation
//! past the analyzer (through a stoplisted method name, a macro body,
//! or a trait object), the counter catches it at runtime.
//!
//! Everything runs inside ONE `#[test]` function: the counter is a
//! process-global, and libtest runs `#[test]` functions on parallel
//! threads, so separate tests would observe each other's traffic.

use dagfact_rt::deque::{Injector, WorkerDeque};
use dagfact_rt::shared::release_pending;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// System allocator that counts allocations, but only on threads that
/// opted in via [`MEASURING`] — libtest's harness threads (output
/// capture, timers) allocate concurrently and would make a global
/// counter flaky.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is a Relaxed counter bump and a const-initialized
// thread-local read (no allocation, so no reentrancy).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same layout contract as the caller's, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr came from this allocator's alloc/realloc with
        // this layout, which forwarded to System.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if MEASURING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: ptr/layout/new_size contract forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations performed by THIS thread while running `f`.
fn allocs_during<F: FnOnce()>(f: F) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    f();
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_hot_loops_do_not_allocate() {
    const ITERS: usize = 10_000;

    // --- deque: owner push/pop at steady state -------------------------
    // The Chase-Lev ring is allocated once at construction; every
    // push/pop afterwards — including thousands of wrap-arounds — must
    // never touch the allocator.
    let w = WorkerDeque::new();
    for i in 0..64 {
        w.push(i).expect("warm-up fits the ring");
    }
    for _ in 0..64 {
        let _ = w.pop();
    }
    let n = allocs_during(|| {
        for i in 0..ITERS {
            w.push(i).expect("ring never grows past depth 1");
            assert_eq!(w.pop(), Some(i));
        }
    });
    assert_eq!(n, 0, "WorkerDeque push/pop allocated {n} times");

    // --- deque: thief steal path ---------------------------------------
    let s = w.stealer();
    for i in 0..64 {
        w.push(i).expect("warm-up fits the ring");
    }
    let n = allocs_during(|| {
        for _ in 0..ITERS {
            match s.steal() {
                Some(i) => w.push(i).expect("constant occupancy fits the ring"),
                None => unreachable!("deque drained under a single thread"),
            }
        }
        let _ = s.len();
        let _ = s.is_empty();
        let _ = w.spare();
    });
    assert_eq!(n, 0, "Stealer::steal allocated {n} times");

    // --- deque: batched steal ------------------------------------------
    // The batch loop is plain CAS-per-item with a caller-supplied sink;
    // nothing on the path may allocate.
    let w2 = WorkerDeque::new();
    let s2 = w2.stealer();
    for i in 0..64 {
        w2.push(i).expect("warm-up fits the ring");
    }
    let n = allocs_during(|| {
        for _ in 0..ITERS / 8 {
            let first = s2.steal_batch(8, |v| {
                w2.push(v).expect("items cycle back into the same ring");
            });
            let first = first.expect("deque never drains under a single thread");
            w2.push(first).expect("items cycle back into the same ring");
        }
    });
    assert_eq!(n, 0, "Stealer::steal_batch allocated {n} times");

    // --- injector seed/drain cycle at steady state ---------------------
    let inj = Injector::new();
    for i in 0..64 {
        inj.push(i);
    }
    for _ in 0..64 {
        let _ = inj.steal();
    }
    let n = allocs_during(|| {
        for i in 0..ITERS {
            inj.push(i);
            assert_eq!(inj.steal(), Some(i));
        }
    });
    assert_eq!(n, 0, "Injector push/steal allocated {n} times");

    // --- fan-in release CAS --------------------------------------------
    // Runs once per DAG edge; must be pure atomics.
    let pending = AtomicU32::new(u32::MAX);
    let n = allocs_during(|| {
        for _ in 0..ITERS {
            match release_pending(&pending, 7) {
                Ok(now_ready) => assert!(!now_ready),
                Err(e) => panic!("unexpected underflow: {e:?}"),
            }
        }
    });
    assert_eq!(n, 0, "release_pending allocated {n} times");
}
