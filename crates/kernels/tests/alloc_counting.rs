//! Counting-allocator proof that the buffered update kernel runs
//! allocation-free once its caller-pooled workspace reaches the panel
//! high-water mark, and that the panel kernels (`potrf`/`ldlt`/`getrf`,
//! both `trsm` sides) never touch the heap at all — the dynamic twin of
//! the `lint-hot` static rule (DESIGN.md §13).

use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{update_via_buffer, Scatter};
use dagfact_kernels::{getrf, ldlt, potrf, Trans};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts allocations only on threads that opted in via [`MEASURING`]
/// — libtest's harness threads allocate concurrently and would make a
/// global counter flaky.
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

#[test]
fn warm_update_via_buffer_does_not_allocate() {
    let (m, n, k) = (48usize, 16usize, 16usize);
    let a1: Vec<f64> = (0..k * m).map(|i| (i % 13) as f64 * 0.25 - 1.0).collect();
    let a2: Vec<f64> = (0..k * n).map(|i| (i % 11) as f64 * 0.125 - 0.5).collect();
    let d: Vec<f64> = (0..k).map(|i| 1.0 + (i % 5) as f64).collect();
    let row_map: Vec<usize> = (0..m).map(|i| i + i / 4).collect();
    let ldc = row_map.last().map_or(m, |&r| r + 1);
    let mut c = vec![0.0f64; ldc * (n + 1)];
    let mut work: Vec<f64> = Vec::new();
    let scatter = Scatter {
        row_map: &row_map,
        col_offset: 1,
    };

    // Warmup: the grow-only workspace reaches the high-water mark
    // (m*n + k*n for the LDLᵀ variant) on the first call.
    update_via_buffer(
        m, n, k, -1.0, &a1, m, &a2, n,
        Some(&d), &mut work, &mut c, ldc, scatter,
    );
    assert_eq!(work.len(), m * n + k * n);

    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    for _ in 0..1_000 {
        // Alternate LDLᵀ (full scratch) and LLᵀ (m*n prefix only): the
        // smaller call must not shrink or churn the pooled buffer.
        update_via_buffer(
            m, n, k, -1.0, &a1, m, &a2, n,
            Some(&d), &mut work, &mut c, ldc, scatter,
        );
        update_via_buffer(
            m, n, k, -1.0, &a1, m, &a2, n,
            None, &mut work, &mut c, ldc, scatter,
        );
    }
    MEASURING.with(|m| m.set(false));
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(during, 0, "warm update_via_buffer allocated {during} times");
}

/// The panel task's dense kernels, on both sides of their private block
/// sizes (`NB` = 48 for the factorizations, 16 for `trsm`): the tile
/// copies and staging live on the stack.
#[test]
fn panel_kernels_do_not_allocate() {
    for n in [1usize, 48, 49, 200] {
        // Symmetric and diagonally dominant, so all three factor without
        // repairs; `a` is refilled from `a0` between them.
        let a0: Vec<f64> = (0..n * n)
            .map(|i| if i / n == i % n { 2.0 * n as f64 } else { ((i / n + i % n) % 7) as f64 * 0.125 - 0.375 })
            .collect();
        let (mut a, mut d) = (a0.clone(), vec![0.0f64; n]);
        let m = 40;
        let mut b = vec![1.0f64; m.max(n) * n.max(m)];

        let before = ALLOCS.load(Ordering::Relaxed);
        MEASURING.with(|f| f.set(true));
        potrf(n, &mut a, n).expect("dominant block is SPD");
        trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, m, n, &a, n, &mut b, m);
        trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, m, &a, n, &mut b, n);
        a.copy_from_slice(&a0);
        ldlt(n, &mut a, n, &mut d, 0.0).expect("dominant block has no zero pivot");
        trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::Unit, m, n, &a, n, &mut b, m);
        a.copy_from_slice(&a0);
        getrf(n, &mut a, n, 0.0).expect("dominant block has no zero pivot");
        trsm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, m, n, &a, n, &mut b, m);
        trsm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, m, &a, n, &mut b, n);
        MEASURING.with(|f| f.set(false));
        let during = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(during, 0, "panel kernels at n={n} allocated {during} times");
    }
}
