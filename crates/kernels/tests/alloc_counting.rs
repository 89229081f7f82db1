//! Counting-allocator proof that the buffered update kernel runs
//! allocation-free once its caller-pooled workspace reaches the panel
//! high-water mark, and that `gemm` and the panel kernels
//! (`potrf`/`ldlt`/`getrf`, both `trsm` sides) never touch the heap at
//! all — the dynamic twin of the `lint` hot-path rule (DESIGN.md §13).

use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::update::{update_via_buffer, Scatter};
use dagfact_kernels::{gemm, getrf, ldlt, potrf, Scalar, Trans, C64};
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

/// Warm `update_via_buffer` calls on one element type, `d` on and off.
fn warm_update_allocations<T: Scalar>() -> usize {
    let (m, n, k) = (48usize, 16usize, 16usize);
    let im = |x: f64| if T::IS_COMPLEX { x } else { 0.0 };
    let a1: Vec<T> = (0..k * m).map(|i| T::from_parts((i % 13) as f64 * 0.25 - 1.0, im((i % 7) as f64 * 0.5))).collect();
    let a2: Vec<T> = (0..k * n).map(|i| T::from_parts((i % 11) as f64 * 0.125 - 0.5, im((i % 5) as f64 * 0.25))).collect();
    let d: Vec<T> = (0..k).map(|i| T::from_parts(1.0 + (i % 5) as f64, im(0.5))).collect();
    let row_map: Vec<usize> = (0..m).map(|i| i + i / 4).collect();
    let ldc = row_map.last().map_or(m, |&r| r + 1);
    let mut c = vec![T::zero(); ldc * (n + 1)];
    let mut work: Vec<T> = Vec::new();
    let scatter = Scatter {
        row_map: &row_map,
        col_offset: 1,
    };
    let alpha = -T::one();

    // Warmup: the grow-only workspace reaches the high-water mark
    // (m*n + k*n for the LDLᵀ variant) on the first call.
    update_via_buffer(
        m, n, k, alpha, &a1, m, &a2, n,
        Some(&d), &mut work, &mut c, ldc, scatter,
    );
    assert_eq!(work.len(), m * n + k * n);

    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|m| m.set(true));
    for _ in 0..1_000 {
        // Alternate LDLᵀ (full scratch) and LLᵀ (m*n prefix only): the
        // smaller call must not shrink or churn the pooled buffer.
        update_via_buffer(
            m, n, k, alpha, &a1, m, &a2, n,
            Some(&d), &mut work, &mut c, ldc, scatter,
        );
        update_via_buffer(
            m, n, k, alpha, &a1, m, &a2, n,
            None, &mut work, &mut c, ldc, scatter,
        );
    }
    MEASURING.with(|m| m.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_update_via_buffer_does_not_allocate() {
    for (prec, during) in [("d", warm_update_allocations::<f64>()), ("z", warm_update_allocations::<C64>())] {
        assert_eq!(during, 0, "warm {prec} update_via_buffer allocated {during} times");
    }
}

/// The panel task's dense kernels on one element type, on both sides of
/// their private block sizes (`NB` = 48 for the factorizations, 16 for
/// `trsm`): the tile copies and staging live on the stack, and so does
/// the SIMD tier's packed `α·op(B)` strip.
fn panel_kernel_allocations<T: Scalar>(n: usize) -> usize {
    // Symmetric and diagonally dominant, so all three factor without
    // repairs (complex: symmetric, not Hermitian — LLᵀ does not apply);
    // `a` is refilled from `a0` between them.
    let a0: Vec<T> = (0..n * n)
        .map(|i| {
            let off = ((i / n + i % n) % 7) as f64 * 0.125 - 0.375;
            let (re, im) = if i / n == i % n { (2.0 * n as f64, 1.0) } else { (off, -off) };
            T::from_parts(re, if T::IS_COMPLEX { im } else { 0.0 })
        })
        .collect();
    let (mut a, mut d) = (a0.clone(), vec![T::zero(); n]);
    let m = 40;
    let mut b = vec![T::one(); m.max(n) * n.max(m)];

    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|f| f.set(true));
    if !T::IS_COMPLEX {
        potrf(n, &mut a, n).expect("dominant block is SPD");
        trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::NonUnit, m, n, &a, n, &mut b, m);
        trsm(Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, m, &a, n, &mut b, n);
        a.copy_from_slice(&a0);
    }
    ldlt(n, &mut a, n, &mut d, 0.0).expect("dominant block has no zero pivot");
    trsm(Side::Right, Uplo::Lower, Trans::Trans, Diag::Unit, m, n, &a, n, &mut b, m);
    a.copy_from_slice(&a0);
    getrf(n, &mut a, n, 0.0).expect("dominant block has no zero pivot");
    trsm(Side::Right, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, m, n, &a, n, &mut b, m);
    trsm(Side::Left, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, n, m, &a, n, &mut b, n);
    MEASURING.with(|f| f.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn panel_kernels_do_not_allocate() {
    for n in [1usize, 48, 49, 200] {
        for (prec, during) in [("d", panel_kernel_allocations::<f64>(n)), ("z", panel_kernel_allocations::<C64>(n))] {
            assert_eq!(during, 0, "{prec} panel kernels at n={n} allocated {during} times");
        }
    }
}

/// Warm `gemm` calls on one element type at 100×17×300, under both
/// `op(B)` the solver uses: the contraction crosses the 256-deep `KC`
/// chunk, the rows end below a full tile (100 = 4·24 + 4 real, 12·8 + 4
/// complex) and the columns in a one-column remainder strip, and the
/// dispatched tier forms its `α·op(B)` strip (a stack array) on every
/// path. The unmeasured first call detects the tier, which reads the
/// environment.
fn warm_gemm_allocations<T: Scalar>() -> usize {
    let (m, n, k) = (100usize, 17usize, 300usize);
    let im = |x: f64| if T::IS_COMPLEX { x } else { 0.0 };
    let a: Vec<T> = (0..m * k).map(|i| T::from_parts((i % 13) as f64 * 0.25 - 1.0, im((i % 7) as f64 * 0.5))).collect();
    let b: Vec<T> = (0..k * n).map(|i| T::from_parts((i % 11) as f64 * 0.125 - 0.5, im((i % 5) as f64 * 0.25))).collect();
    let mut c = vec![T::zero(); m * n];
    let alpha = -T::one();
    gemm(Trans::NoTrans, Trans::Trans, m, n, k, alpha, &a, m, &b, n, T::one(), &mut c, m);

    let before = ALLOCS.load(Ordering::Relaxed);
    MEASURING.with(|f| f.set(true));
    for _ in 0..20 {
        gemm(Trans::NoTrans, Trans::Trans, m, n, k, alpha, &a, m, &b, n, T::one(), &mut c, m);
        gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, alpha, &a, m, &b, k, T::zero(), &mut c, m);
    }
    MEASURING.with(|f| f.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_gemm_does_not_allocate() {
    for (prec, during) in [("d", warm_gemm_allocations::<f64>()), ("z", warm_gemm_allocations::<C64>())] {
        assert_eq!(during, 0, "warm {prec} gemm allocated {during} times");
    }
}
