//! "Nothing allocates per task per factorization" (ROADMAP standing
//! gate), checked with a counting global allocator as in
//! `crates/rt/tests/alloc_counting.rs`: a factorization costs one
//! allocation per panel per side plus a small constant (workspaces,
//! executor tables) under every policy — panels assemble in place from
//! the matrix at first touch, with no per-panel entry list, and the
//! graph is computed from the analysis, never built out of per-task lists
//! and boxed closures. The triangular solve
//! holds the same line: its buffers (the permuted right-hand sides, which
//! become the result, one product scratch, one permutation column per
//! column group) are allocated once per call on the calling
//! thread, so a warm `solve_many` costs the same few allocations whatever
//! the panel count, plus a constant when it splits its columns over
//! threads — which allocate nothing themselves.
//! And the panel kernels stage on the stack: an LDLᵀ factorization costs
//! what a Cholesky of the same structure does, not one `w` per panel task.
//!
//! The counters are process-wide, so the threads a measured call spawns
//! (nested dissection and the split solve fork onto scoped threads) are
//! counted with it, and a thread-local one tells the caller's own
//! allocations apart; one lock serializes the measuring tests of this
//! binary.

use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_order::{compute_ordering, OrderingKind};
use dagfact_sparse::gen::{convection_diffusion_3d, grid_laplacian_3d, grid_laplacian_3d_box};
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::FactoKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// System allocator that counts the allocations (and the bytes they ask
/// for) of every thread while [`MEASURING`] is set.
struct Counting;

static MEASURING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Held by a test for as long as it measures: one window at a time.
static WINDOW: Mutex<()> = Mutex::new(());

thread_local! {
    /// The counted allocations this thread made itself.
    static OWN: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // Relaxed: the window opens and closes on the measuring thread, and
    // the threads it spawns are joined inside it.
    if MEASURING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes, Relaxed);
        OWN.with(|own| own.set(own.get() + 1));
    }
}

// SAFETY: pure pass-through to the System allocator; the only added
// behavior is a bump of static atomic counters and of a const-initialized
// thread-local without destructor (no allocation, so no reentrancy).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as the caller's, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr came from this allocator's alloc/realloc with
        // this layout, which forwarded to System.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: ptr/layout/new_size contract forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(calls, requested bytes)` of the allocations made while running `f`,
/// by this thread and any it spawns. The caller holds [`WINDOW`].
fn allocated_during<F: FnOnce()>(f: F) -> (usize, usize) {
    let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    MEASURING.store(true, Relaxed);
    f();
    MEASURING.store(false, Relaxed);
    (ALLOCS.load(Relaxed) - before.0, BYTES.load(Relaxed) - before.1)
}

/// Allocations made while running `f`.
fn allocs_during<F: FnOnce()>(f: F) -> usize {
    allocated_during(f).0
}

/// `(all, by the threads it spawned)` allocations made while running `f`.
fn forked_allocs_during<F: FnOnce()>(f: F) -> (usize, usize) {
    let own = OWN.with(Cell::get);
    let all = allocs_during(f);
    (all, all - (OWN.with(Cell::get) - own))
}

/// The measuring lock; a test that failed while holding it poisons nothing
/// the next one needs.
fn window() -> std::sync::MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn nothing_allocates_per_task_or_per_panel() {
    let _window = window();
    no_policy_allocates_per_task();
    warm_solve_allocations_do_not_depend_on_panel_count();
    ldlt_panel_tasks_allocate_no_more_than_cholesky_ones();
}

fn no_policy_allocates_per_task() {
    // Everything a factorization allocates besides its panels — one
    // allocation per panel per side, reserved before the graph runs: the
    // slot table, LU's transpose (4), the context's
    // per-panel counters, per-worker workspaces and the executor's
    // tables. Measured 60 native / 68 dataflow / 70 ptg on the LU case;
    // the margin of 10 is a few more doublings of a grow-only buffer.
    const SETUP: usize = 80;
    // The bytes of that set-up besides the transpose.
    // Measured 1 275 119 native / 1 182 919 dataflow / 1 307 855 ptg on
    // the LU case. A Uᵀ panel stores only the rows below its diagonal
    // block; the dead `w × w` squares above them would add 1 382 384 bytes
    // (Σ w² · 8) here, so the bound fails on a layout that stores them.
    const SETUP_BYTES: usize = 1_600_000;
    // The `shell_lu` benchmark proxy at a third of its side: tiny fronts,
    // so tasks — not flops — are what there is a lot of. Then a symmetric
    // kind (one side) on a 3D grid.
    let lu = convection_diffusion_3d(56, 56, 3, 0.3);
    let spd = grid_laplacian_3d(14, 14, 14);
    for (a, facto, sides, min_tasks) in
        [(&lu, FactoKind::Lu, 2, 10_000), (&spd, FactoKind::Cholesky, 1, 2_000)]
    {
        let an = Analysis::new(a.pattern(), facto, &SolverOptions::default());
        let (ntasks, ncblk) = (an.symbol.blocks.len(), an.symbol.ncblk());
        assert!(ntasks >= min_tasks, "{facto:?}: only {ntasks} tasks");
        // The bytes an uncapped LU factorization may ask for: the L
        // panels, the Uᵀ panels' rows below their diagonal blocks, what
        // building `Aᵀ` allocates, and the set-up (no diagonal: only
        // LDLᵀ stores one).
        let cblks = &an.symbol.cblks;
        let l: usize = cblks.iter().map(|cb| cb.stride * cb.width()).sum();
        let u: usize = cblks.iter().map(|cb| (cb.stride - cb.width()) * cb.width()).sum();
        let transpose = allocated_during(|| drop(a.transpose())).1;
        let elt = std::mem::size_of::<f64>();
        let max_bytes = (l + u) * elt + transpose + SETUP_BYTES;
        for rt in RuntimeKind::ALL {
            // One worker: the run stays on this (measured) thread.
            let (n, bytes) = allocated_during(|| {
                an.factorize(a, rt, 1).expect("factorization succeeds");
            });
            assert!(
                n <= sides * ncblk + SETUP,
                "{facto:?}, {}: {n} allocations for {ncblk} panels x {sides} side(s) and \
                 {ntasks} tasks; the bound is the panels + {SETUP}",
                rt.label()
            );
            assert!(
                facto != FactoKind::Lu || bytes <= max_bytes,
                "LU, {}: {bytes} bytes allocated, the bound is {max_bytes} (L {l} + Uᵀ {u} \
                 elements, Aᵀ {transpose} bytes, set-up {SETUP_BYTES})",
                rt.label()
            );
        }
    }
}

fn warm_solve_allocations_do_not_depend_on_panel_count() {
    // A solve on one thread allocates its three buffers. A split one
    // allocates them on the calling thread too, before the fork, plus what
    // the fork costs there — std's scope, thread handle and spawn
    // bookkeeping, measured 6 for one extra thread under the test harness
    // (4 outside it). The forked thread itself allocates nothing.
    const ONE_THREAD: usize = 4;
    const TWO_GROUPS: usize = 9;
    // The bytes of the fork's bookkeeping, measured 224 for one extra
    // thread (0 on one thread).
    const FORK_BYTES: usize = 1024;
    // (panels, groups `solve_many` picks for 16 RHS, allocations of a warm
    // 16-RHS solve in two groups, of its forked thread, of `solve_many`,
    // of a warm 1-RHS solve) at a grid side, on factors from two workers.
    let measure = |side: usize| {
        let a = convection_diffusion_3d(side, side, 3, 0.3);
        let an = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
        let f = an.factorize(&a, RuntimeKind::Ptg, 2).expect("factorization succeeds");
        let (b, b1) = (vec![1.0; a.nrows() * 16], vec![1.0; a.nrows()]);
        f.solve_parallel_many(&b, 16, 2);
        f.solve(&b1);
        let (split, forked) = forked_allocs_during(|| drop(f.solve_parallel_many(&b, 16, 2)));
        let (many, many_bytes) = allocated_during(|| drop(f.solve_many(&b, 16)));
        let one = allocs_during(|| drop(f.solve(&b1)));
        // The right-hand sides are held once — the working buffer is the
        // result — beside one permutation column per group and the
        // product scratch: a solve that kept a separate result would ask
        // for n · 16 elements more.
        let (n, groups) = (a.nrows(), f.solve_groups(16));
        let tallest = an.symbol.cblks.iter().map(|cb| cb.height_below()).max().unwrap_or(0);
        let max_bytes =
            (n * 16 + groups * n + tallest * 16) * std::mem::size_of::<f64>() + FORK_BYTES;
        assert!(
            many_bytes <= max_bytes,
            "side {side}: solve_many(16) asked for {many_bytes} bytes, the bound is {max_bytes}"
        );
        (an.symbol.ncblk(), groups, [split, forked, many, one])
    };
    let (few, small_groups, small) = measure(10);
    let (many, large_groups, large) = measure(40);
    let at = || format!("{small:?} allocations at {few} panels, {large:?} at {many}");
    assert!(many >= 8 * few, "{few} vs {many} panels: not a scaling pair");
    // The small case is under the floor, the large one over it.
    assert_eq!((small_groups, large_groups), (1, 2), "the floor moved: re-pick the sizes");
    assert_eq!((small[0], small[1], small[3]), (large[0], large[1], large[3]), "{}", at());
    assert_eq!((large[0], large[1]), (TWO_GROUPS, 0), "split solve: {}", at());
    assert_eq!(large[2], large[0], "solve_many above the floor: {}", at());
    assert!(small[2] <= ONE_THREAD && small[3] <= ONE_THREAD, "{}", at());
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

/// The same gate for the analysis phase: the ordering runs on one
/// traversal workspace per thread and amalgamation on column counts, so
/// they allocate per *result* (a part list, one row list per final panel),
/// not per visit, per candidate or per fundamental supernode. The first
/// case forks its top split onto a second thread, whose workspace counts
/// here; the second is below the fork floor. Bounds are the measured
/// `(calls, bytes)` x 1.5 on a host with a spare thread,
/// and each is checked against what PR 21 — an `n`-long mask, level and
/// component array per dissection call, a sorted copy per amalgamation
/// candidate — did on the same input: at most a quarter of its calls, and
/// for the ordering a tenth of its bytes. On the small 27-point grid the
/// ordering's floor is the adjacency copy it works on plus its result
/// (0.6 MB, a tenth of the parent's 5.9 MB by themselves): measured it is a
/// sixth of the parent's bytes there, and the x 1.5 bound a third.
#[test]
fn analysis_allocations_are_bounded() {
    let _window = window();
    struct Case {
        name: &'static str,
        pattern: SparsityPattern,
        facto: FactoKind,
        /// `(calls, bytes)` of `compute_ordering`: bound, PR 21.
        ordering: [(usize, usize); 2],
        /// The same for `Analysis::new`.
        analysis: [(usize, usize); 2],
        ordering_bytes_divisor: usize,
    }
    let cases = [
        Case {
            name: "convection_diffusion_3d(60,60,3)",
            pattern: convection_diffusion_3d(60, 60, 3, 0.3).pattern().clone(),
            facto: FactoKind::Lu,
            ordering: [(1_660, 3_315_000), (31_467, 58_865_740)],
            analysis: [(9_400, 15_830_000), (124_278, 84_506_888)],
            ordering_bytes_divisor: 10,
        },
        Case {
            name: "grid_laplacian_3d_box(14,14,14)",
            pattern: grid_laplacian_3d_box(14, 14, 14).pattern().clone(),
            facto: FactoKind::Cholesky,
            ordering: [(2_490, 1_526_000), (15_698, 5_901_128)],
            analysis: [(3_360, 7_790_000), (35_413, 17_354_616)],
            ordering_bytes_divisor: 3,
        },
    ];
    for case in &cases {
        let [order_bound, order_parent] = case.ordering;
        let [analysis_bound, analysis_parent] = case.analysis;
        assert!(order_bound.0 <= order_parent.0 / 4, "{}", case.name);
        assert!(order_bound.1 <= order_parent.1 / case.ordering_bytes_divisor, "{}", case.name);
        assert!(analysis_bound.0 <= analysis_parent.0 / 4, "{}", case.name);
        let sym = case.pattern.symmetrize();
        let order =
            allocated_during(|| drop(compute_ordering(&sym, OrderingKind::NestedDissection)));
        let analysis = allocated_during(|| {
            drop(Analysis::new(&case.pattern, case.facto, &SolverOptions::default()))
        });
        println!("{}: ordering {order:?}, Analysis::new {analysis:?}", case.name);
        for (what, got, bound) in
            [("ordering", order, order_bound), ("Analysis::new", analysis, analysis_bound)]
        {
            assert!(
                got.0 <= bound.0 && got.1 <= bound.1,
                "{} {what}: {got:?} (calls, bytes) allocated, the bound is {bound:?}",
                case.name
            );
        }
    }
}
