//! "Nothing allocates per task per factorization" (ROADMAP standing
//! gate), checked with a counting global allocator as in
//! `crates/rt/tests/alloc_counting.rs`: a factorization costs its run
//! set-up (panels, workspaces, executor tables) under every policy — the
//! graph is computed from the analysis (native, ptg) or inferred into a
//! few flat vectors (dataflow), never built out of per-task lists and
//! boxed closures. The triangular solve
//! holds the same line: its buffers (the permuted right-hand sides, one
//! product scratch, the result) are allocated once per call, so a warm
//! `solve_many` costs the same few allocations whatever the panel count.
//! And the panel kernels stage on the stack: an LDLᵀ factorization costs
//! what a Cholesky of the same structure does, not one `w` per panel task.
//!
//! ONE `#[test]`: the counter is process-global (see the rt twin).

use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d};
use dagfact_symbolic::FactoKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that counts allocations on threads that opted in via
/// [`MEASURING`] (libtest's harness threads allocate concurrently).
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
fn nothing_allocates_per_task_or_per_panel() {
    no_policy_allocates_per_task();
    warm_solve_allocations_do_not_depend_on_panel_count();
    ldlt_panel_tasks_allocate_no_more_than_cholesky_ones();
}

fn no_policy_allocates_per_task() {
    // The `shell_lu` benchmark proxy at a third of its side: tiny fronts,
    // so tasks — not flops — are what there is a lot of.
    let a = convection_diffusion_3d(56, 56, 3, 0.3);
    let an = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
    let ntasks = an.symbol.blocks.len();
    assert!(ntasks >= 10_000, "only {ntasks} tasks");
    // One worker: the run stays on this (measured) thread.
    let count = |rt| {
        allocs_during(|| {
            an.factorize(&a, rt, 1).expect("factorization succeeds");
        })
    };
    // What PR 20's ptg run allocated here (coefficient panels, workspaces,
    // executor tables): nothing of it per task.
    const RUN_SETUP: usize = 12_297;
    // PR 20's native run, fused 1D tasks and a per-panel mutex table.
    const FUSED_NATIVE: usize = 12_302;
    for rt in RuntimeKind::ALL {
        let n = count(rt);
        assert!(
            n <= RUN_SETUP + ntasks / 16,
            "{}: {n} allocations for {ntasks} tasks, run set-up is {RUN_SETUP}",
            rt.label()
        );
        if rt == RuntimeKind::Native {
            assert!(n <= FUSED_NATIVE, "native: {n} allocations, the fused model made {FUSED_NATIVE}");
        }
    }
}

fn warm_solve_allocations_do_not_depend_on_panel_count() {
    // (panels, allocations of one warm 16-RHS solve) at a grid side.
    let measure = |side: usize| {
        let a = convection_diffusion_3d(side, side, 3, 0.3);
        let an = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
        let f = an.factorize(&a, RuntimeKind::Ptg, 1).expect("factorization succeeds");
        let b = vec![1.0; a.nrows() * 16];
        f.solve_many(&b, 16);
        (an.symbol.ncblk(), allocs_during(|| drop(f.solve_many(&b, 16))))
    };
    let (few, small) = measure(10);
    let (many, large) = measure(40);
    assert!(many >= 8 * few, "{few} vs {many} panels: not a scaling pair");
    assert_eq!(small, large, "solve_many: {small} allocations at {few} panels, {large} at {many}");
    assert!(large <= 4, "solve_many made {large} allocations");
}

fn ldlt_panel_tasks_allocate_no_more_than_cholesky_ones() {
    // One SPD matrix, one ordering, so the two analyses have the same
    // panels and tasks; what differs is the diagonal-block kernel.
    let a = grid_laplacian_3d(12, 12, 12);
    let count = |facto| {
        let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
        let allocs = allocs_during(|| {
            an.factorize(&a, RuntimeKind::Native, 1).expect("factorization succeeds");
        });
        (an.symbol.ncblk(), allocs)
    };
    let (panels, llt) = count(FactoKind::Cholesky);
    let (same, ldlt) = count(FactoKind::Ldlt);
    assert_eq!(panels, same, "the two analyses differ");
    assert!(panels >= 200, "only {panels} panels");
    assert!(
        ldlt <= llt + panels / 16,
        "LDLt: {ldlt} allocations for {panels} panels, Cholesky makes {llt}"
    );
}
