//! Triangular solve phase: forward / diagonal / backward sweeps over the
//! block structure.
//!
//! There is one solve. Each sweep is a set of per-panel tasks over the 1D
//! panel graph cached in the analysis ([`crate::tasks::OneDGraph`]):
//!
//! * **forward** `L·y = b`: panel `c` solves its rows with its diagonal
//!   triangle once every panel with a block facing `c` has subtracted its
//!   contribution, then subtracts `L[R_b, c]·y_c` from the rows of each
//!   facing panel;
//! * **backward** `Lᵀ/U·x = y`: the transposed graph — panel `c` gathers
//!   from its (already solved) facing panels, then solves its own rows.
//!
//! A panel's off-diagonal blocks are stored one under the other (rows
//! `w..stride` of its column-major storage), so each task makes **one**
//! dense product over all of them, through a compact `(stride − w) × nrhs`
//! scratch: forward `tmp = L[w.., :]·y_c`, then `x[R_b, :] -= tmp[R_b]`
//! block by block; backward gathers `x[R_b, :]` of every block into `tmp`,
//! then `x_c -= L[w.., :]ᵀ·tmp`. Those two shapes, and the diagonal
//! [`trsm`], are what the kernels' SIMD tier is cut for — at one
//! right-hand side they stream the factor once at memory speed, at many
//! they run at the microkernel's rate. No kernel lets a column's rounding
//! depend on the columns beside it, so column `r` of a many-RHS solve is
//! bitwise the single solve of column `r`.
//!
//! The schedule follows from the worker count alone. With one worker —
//! [`Factors::solve`], [`Factors::solve_many`], refinement, the serving
//! path — elimination order (reversed for the backward sweep) is a
//! topological order of the graph, so the sweeps are plain loops: no
//! executor, no locks, no per-task bookkeeping. With more, the same bodies
//! run as a [`PtgProgram`] on the shared executor, and the forward sweep's
//! in-place subtraction from a facing panel's rows takes that panel's
//! lock (PaStiX's per-cblk mutex): the 1D graph orders every contributor
//! before its target but not the contributors of a common target. The
//! lock covers the subtraction only; the product ran before it, into the
//! worker's own scratch.

use crate::numeric::Factors;
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::Scalar;
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::sync::Mutex;
use dagfact_rt::{exec, RunConfig, RuntimeKind, SharedSlice};
use dagfact_symbolic::FactoKind;

impl<T: Scalar> Factors<'_, T> {
    /// Solve `A·x = b` using the computed factors. `b` is in the
    /// *original* (unpermuted) numbering; so is the returned `x`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_on(b, 1, 1)
    }

    /// Solve `A·X = B` for `nrhs` right-hand sides stored column-major in
    /// `b` (length `n·nrhs`). Every panel makes one `(stride − w) × nrhs`
    /// product per sweep and one `w × nrhs` triangular solve, all columns
    /// at once, on the kernels' SIMD tier (module docs) — so the factor is
    /// read once for all `nrhs` columns and many-RHS solves run at GEMM
    /// speed rather than GEMV speed. Column `r` of the result is bitwise
    /// [`Factors::solve`] of column `r`.
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        self.solve_on(b, nrhs, 1)
    }

    /// [`Factors::solve`] with both sweeps run on `nthreads` workers.
    /// One worker is exactly [`Factors::solve`]; with more, contributions
    /// into a panel may be applied in a different order, so results agree
    /// to roundoff.
    pub fn solve_parallel(&self, b: &[T], nthreads: usize) -> Vec<T> {
        self.solve_on(b, 1, nthreads)
    }

    /// Multi-RHS variant of [`Factors::solve_parallel`].
    pub fn solve_parallel_many(&self, b: &[T], nrhs: usize, nthreads: usize) -> Vec<T> {
        self.solve_on(b, nrhs, nthreads)
    }

    /// The solve: permute in, forward sweep, LDLᵀ diagonal, backward
    /// sweep, permute out. PANIC: `b` holds `nrhs ≥ 1` columns of length n.
    fn solve_on(&self, b: &[T], nrhs: usize, nthreads: usize) -> Vec<T> {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        assert!(
            nrhs >= 1 && b.len() == n * nrhs,
            "b must hold nrhs columns of length n (nrhs >= 1)"
        );
        let nthreads = nthreads.max(1);
        // x[perm[i], :] = b[i, :]
        // BOUNDS: b.len() == n·nrhs (asserted above) and `perm` is a
        // bijection on 0..n, here and in the three loops below.
        let perm = self.analysis.perm.perm();
        // ALLOC: the permuted right-hand sides, once per solve.
        let mut x = vec![T::zero(); n * nrhs];
        for r in 0..nrhs {
            for (old, &v) in b[r * n..(r + 1) * n].iter().enumerate() {
                x[r * n + perm[old]] = v;
            }
        }
        let panel = nrhs * symbol.cblks.iter().map(|cb| cb.height_below()).max().unwrap_or(0);
        let nlocks = if nthreads > 1 { symbol.ncblk() } else { 0 };
        let mut sweep = Sweep {
            f: self,
            forward: true,
            x: SharedSlice::from_vec(x),
            nrhs,
            panel,
            // ALLOC: the workers' product buffers, once per solve.
            scratch: SharedSlice::from_vec(vec![T::zero(); nthreads * panel]),
            // ALLOC: multi-worker runs only, once per solve.
            locks: (0..nlocks).map(|_| Mutex::new(())).collect(),
        };
        sweep.run_sweep(nthreads);
        if self.analysis.facto == FactoKind::Ldlt {
            let mut x = sweep.x.into_vec();
            // BOUNDS: x.len() == n·nrhs.
            for r in 0..nrhs {
                for (xi, &di) in x[r * n..(r + 1) * n].iter_mut().zip(self.d.iter()) {
                    *xi /= di;
                }
            }
            sweep.x = SharedSlice::from_vec(x);
        }
        sweep.forward = false;
        sweep.run_sweep(nthreads);
        let x = sweep.x.into_vec();
        // out[i, :] = x[perm[i], :]
        // BOUNDS: as for the permutation in.
        // ALLOC: the result, once per solve.
        let mut out = vec![T::zero(); n * nrhs];
        for r in 0..nrhs {
            for old in 0..n {
                out[r * n + old] = x[r * n + perm[old]];
            }
        }
        out
    }

    /// Forward task of panel `c`: solve its rows `L_cc·y_c = x_c` (unit
    /// diagonal for LDLᵀ/LU) in place, form `tmp = L[w.., c]·y_c` over all
    /// off-diagonal blocks at once, then `x[R_b, :] -= tmp[R_b, :]` block
    /// by block. `tmp` is the worker's `(stride − w) × nrhs` scratch;
    /// `locks` is empty when a single worker runs the sweep.
    fn forward_panel(&self, c: usize, x: &mut [T], tmp: &mut [T], nrhs: usize, locks: &[Mutex<()>]) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        // BOUNDS: c < ncblk, a task id of the sweep.
        let cb = &symbol.cblks[c];
        let (w, h) = (cb.width(), cb.height_below());
        let diag = match self.analysis.facto {
            FactoKind::Cholesky => Diag::NonUnit,
            FactoKind::Ldlt | FactoKind::Lu => Diag::Unit,
        };
        let lpin = self.tab.pin_l_solve(symbol, c);
        // SAFETY: factorization finished and `self` is borrowed shared for
        // the whole solve, so the factor panels have no writer.
        let l = unsafe { lpin.slice() };
        // BOUNDS: fcol + w <= n, so the panel's rows of all nrhs columns
        // lie in x[fcol..] at leading dimension n.
        trsm(Side::Left, Uplo::Lower, Trans::NoTrans, diag, w, nrhs, l, cb.stride, &mut x[cb.fcol..], n);
        if h == 0 {
            return;
        }
        // BOUNDS: the panel holds stride = w + h rows of w columns; y_c is
        // read in place (rows fcol.., leading dimension n) while the
        // product lands in the scratch.
        let yc = &x[cb.fcol..];
        gemm(Trans::NoTrans, Trans::NoTrans, h, nrhs, w, T::one(), &l[w..], cb.stride, yc, n, T::zero(), tmp, h);
        for b in symbol.off_blocks(c) {
            // LOCK: taken only when nthreads > 1 (`locks` is empty on the
            // 1-worker path): the 1D graph leaves the contributors of a
            // common facing panel unordered, so their in-place
            // subtractions from its rows are serialized here.
            let _accum = locks.get(b.facing).map(|lock| lock.lock());
            // BOUNDS: w <= local_offset and local_offset + nrows <= stride
            // place the block inside tmp's h rows; frow + nrows <= n.
            for (xr, tr) in x.chunks_exact_mut(n).zip(tmp.chunks_exact(h)) {
                let xb = &mut xr[b.frow..b.lrow];
                for (xi, &ti) in xb.iter_mut().zip(&tr[b.local_offset - w..]) {
                    *xi -= ti;
                }
            }
        }
    }

    /// Backward task of panel `c`: gather `x[R_b, :]` of every
    /// off-diagonal block into `tmp`, `x_c -= Lᵀ[c, w..]·tmp` (LU:
    /// `U[c, R_b]`, stored transposed in the U panel) in one product, then
    /// the diagonal solve `Lᵀ_cc` / `U_cc` — both in place on the panel's
    /// own rows of `x`, which no concurrent task reads or writes.
    fn backward_panel(&self, c: usize, x: &mut [T], tmp: &mut [T], nrhs: usize) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        // BOUNDS: c < ncblk, a task id of the sweep.
        let cb = &symbol.cblks[c];
        let (w, h) = (cb.width(), cb.height_below());
        let lu = self.analysis.facto == FactoKind::Lu;
        let lpin = self.tab.pin_l_solve(symbol, c);
        let upin = lu.then(|| self.tab.pin_u_solve(symbol, c));
        // SAFETY: read-only factor panels, as in `forward_panel`.
        let l = unsafe { lpin.slice() };
        // SAFETY: as for `l`.
        let u = upin.as_ref().map_or(l, |p| unsafe { p.slice() });
        if h > 0 {
            for b in symbol.off_blocks(c) {
                // BOUNDS: as in `forward_panel`'s subtraction.
                for (xr, tr) in x.chunks_exact(n).zip(tmp.chunks_exact_mut(h)) {
                    tr[b.local_offset - w..][..b.nrows()].copy_from_slice(&xr[b.frow..b.lrow]);
                }
            }
            // BOUNDS: as in `forward_panel`'s product, transposed.
            let xc = &mut x[cb.fcol..];
            gemm(Trans::Trans, Trans::NoTrans, w, nrhs, h, -T::one(), &u[w..], cb.stride, tmp, h, T::one(), xc, n);
        }
        let (uplo, trans, diag) = match self.analysis.facto {
            FactoKind::Lu => (Uplo::Upper, Trans::NoTrans, Diag::NonUnit),
            FactoKind::Cholesky => (Uplo::Lower, Trans::Trans, Diag::NonUnit),
            FactoKind::Ldlt => (Uplo::Lower, Trans::Trans, Diag::Unit),
        };
        // BOUNDS: as in `forward_panel`'s triangular solve.
        trsm(Side::Left, uplo, trans, diag, w, nrhs, l, cb.stride, &mut x[cb.fcol..], n);
    }
}

/// One triangular sweep as a task program: task `c` is panel `c`'s
/// forward or backward body, ordered by the analysis' 1D graph
/// (`forward`) or its transpose.
struct Sweep<'f, 'a, T: Scalar> {
    f: &'f Factors<'a, T>,
    forward: bool,
    /// The right-hand sides, permuted, column-major `n × nrhs`.
    x: SharedSlice<T>,
    nrhs: usize,
    /// Length of one worker's scratch: `nrhs ×` the tallest off-diagonal
    /// part (`stride − w`) of any panel.
    panel: usize,
    /// One product buffer per worker, allocated once per solve.
    scratch: SharedSlice<T>,
    /// Per-panel accumulation locks; empty when one worker runs the sweep.
    locks: Vec<Mutex<()>>,
}

impl<T: Scalar> Sweep<'_, '_, T> {
    fn run_sweep(&self, nthreads: usize) {
        let ncblk = self.num_tasks();
        if nthreads == 1 {
            for k in 0..ncblk {
                self.sweep_panel(if self.forward { k } else { ncblk - 1 - k }, 0);
            }
        } else if let Err(e) = exec::run(self, RuntimeKind::Ptg, nthreads, RunConfig::default()) {
            // PANIC: the factors are read-only and already validated: a sweep
            // has no recoverable failure mode, an executor error is a bug.
            panic!("solve sweep failed: {e}");
        }
    }

    /// Task `c` on `worker`: its scratch, the shared `x`, the direction's
    /// panel body.
    fn sweep_panel(&self, c: usize, worker: usize) {
        // BOUNDS: c < ncblk; worker < nthreads and the scratch holds
        // nthreads panels of `panel` >= (stride − w)·nrhs elements.
        let rows = self.f.analysis.symbol.cblks[c].height_below() * self.nrhs;
        // SAFETY: a worker index names exactly one thread of the run (the
        // caller's own with one worker), and only that thread touches
        // elements of scratch panel `worker` — the column-major
        // `(stride − w) × nrhs` product of the task it is running.
        let tmp = &mut unsafe { self.scratch.slice_mut() }[worker * self.panel..][..rows];
        // SAFETY: concurrent tasks touch disjoint elements of `x`, or are
        // ordered. Forward: panel c's rows are written by its
        // contributors — each subtracts its finished product under
        // `locks[c]`, which covers that read-modify-write and nothing
        // else (the product itself reads only the contributor's own
        // solved rows and writes its own scratch) — and then by task c,
        // which the graph runs after all of them: the pending counter's
        // AcqRel release (`release_pending`, the loom fan-in model)
        // publishes their writes. Backward: task c writes only its own
        // rows and reads rows of the panels it faces, which completed
        // before it in the transposed graph. With one worker the loop in
        // `run_sweep` is sequential.
        let x = unsafe { self.x.slice_mut() };
        if self.forward {
            self.f.forward_panel(c, x, tmp, self.nrhs, &self.locks);
        } else {
            self.f.backward_panel(c, x, tmp, self.nrhs);
        }
    }
}

impl<T: Scalar> PtgProgram for Sweep<'_, '_, T> {
    fn num_tasks(&self) -> usize {
        self.f.analysis.symbol.ncblk()
    }
    fn num_predecessors(&self, c: usize) -> u32 {
        self.f.analysis.one_d.directed(c, self.forward).0
    }
    fn successors(&self, c: usize, out: &mut Vec<usize>) {
        // ALLOC: `out` is the worker's reused high-water buffer.
        out.extend_from_slice(self.f.analysis.one_d.directed(c, self.forward).1);
    }
    fn priority(&self, c: usize) -> f64 {
        // Leaves first going down, top separators first coming back up:
        // the panels that unlock the longest chains.
        if self.forward {
            -(c as f64)
        } else {
            c as f64
        }
    }
    fn execute(&self, c: usize, worker: usize) {
        self.sweep_panel(c, worker);
    }
}
