//! Parallel triangular solves over the task runtimes.
//!
//! The paper times only the factorization, but a production solver also
//! parallelizes the solve phase — PaStiX does. The sweeps use the same
//! 1D dependency structure as the factorization:
//!
//! * **forward** `L·y = b`: panel `c` may solve its rows once every panel
//!   with a block facing `c` has scattered its contribution; afterwards it
//!   scatters `L[R_b, c]·y_c` into each facing panel's rows (serialized by
//!   a per-panel lock, like the runtimes serialize update tasks);
//! * **backward** `Lᵀ/U·x = y`: the reverse DAG; a panel gathers from its
//!   (already solved) facing panels, then solves its own rows — no locks
//!   needed, completed segments are read-only.

use crate::numeric::Factors;
use crate::tasks::OneDGraph;
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::Scalar;
use dagfact_rt::ptg::PtgProgram;
use dagfact_rt::{exec, RunConfig, RuntimeKind, SharedSlice};
use dagfact_symbolic::FactoKind;
use dagfact_rt::sync::Mutex;

/// Run one sweep's DAG to completion. The sweeps have no recoverable
/// failure mode (the factors are read-only and already validated), so an
/// executor error is a bug and panics on the calling thread.
fn run_sweep<D: PtgProgram>(dag: &D, nthreads: usize) {
    if let Err(e) = exec::run(dag, RuntimeKind::Ptg, nthreads, RunConfig::default()) {
        panic!("parallel solve sweep failed: {e}");
    }
}

impl<T: Scalar> Factors<'_, T> {
    /// Solve `A·x = b` with both sweeps parallelized on `nthreads` workers
    /// under the PaRSEC-like policy. Results match [`Factors::solve`] to
    /// roundoff (contributions into a panel are applied in a potentially
    /// different order).
    pub fn solve_parallel(&self, b: &[T], nthreads: usize) -> Vec<T> {
        self.solve_parallel_many(b, 1, nthreads)
    }

    /// Multi-RHS variant of [`Factors::solve_parallel`].
    pub fn solve_parallel_many(&self, b: &[T], nrhs: usize, nthreads: usize) -> Vec<T> {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        assert!(nrhs >= 1);
        assert_eq!(b.len(), n * nrhs, "b must hold nrhs columns of length n");
        let nthreads = nthreads.max(1);
        let perm = self.analysis.perm.perm();
        let mut x0 = vec![T::zero(); n * nrhs];
        for r in 0..nrhs {
            for (old, &v) in b[r * n..(r + 1) * n].iter().enumerate() {
                x0[r * n + perm[old]] = v;
            }
        }
        let x = SharedSlice::from_vec(x0);
        let graph = OneDGraph::build(symbol);
        let locks: Vec<Mutex<()>> = (0..symbol.ncblk()).map(|_| Mutex::new(())).collect();

        // ---- forward sweep --------------------------------------------
        struct Forward<'f, 'a, T: Scalar> {
            f: &'f Factors<'a, T>,
            x: &'f SharedSlice<T>,
            locks: &'f [Mutex<()>],
            graph: &'f OneDGraph,
            nrhs: usize,
        }
        impl<T: Scalar> PtgProgram for Forward<'_, '_, T> {
            fn num_tasks(&self) -> usize {
                self.f.analysis.symbol.ncblk()
            }
            fn num_predecessors(&self, t: usize) -> u32 {
                self.graph.npred[t]
            }
            fn successors(&self, t: usize, out: &mut Vec<usize>) {
                out.extend_from_slice(&self.graph.succs[t]);
            }
            fn priority(&self, t: usize) -> f64 {
                // Deep panels first (they unlock the longest chains).
                -(t as f64)
            }
            fn execute(&self, c: usize, _worker: usize) {
                self.f.forward_panel(c, self.x, self.locks, self.nrhs);
            }
        }
        let forward = Forward {
            f: self,
            x: &x,
            locks: &locks,
            graph: &graph,
            nrhs,
        };
        run_sweep(&forward, nthreads);

        // ---- diagonal sweep (LDLᵀ) -------------------------------------
        if self.analysis.facto == FactoKind::Ldlt {
            // SAFETY: `run_sweep` has returned, which joins every worker
            // thread — no other reference to `x` exists; this phase is
            // single-threaded (upheld by the engine's join barrier).
            let xs = unsafe { x.slice_mut() };
            for r in 0..nrhs {
                for (xi, &di) in xs[r * n..(r + 1) * n].iter_mut().zip(self.d.iter()) {
                    *xi /= di;
                }
            }
        }

        // ---- backward sweep --------------------------------------------
        // Reverse DAG: panel c waits for every panel it feeds.
        let mut succs_rev: Vec<Vec<usize>> = vec![Vec::new(); symbol.ncblk()];
        let mut npred_rev = vec![0u32; symbol.ncblk()];
        for (c, succ) in graph.succs.iter().enumerate() {
            npred_rev[c] = succ.len() as u32;
            for &t in succ {
                succs_rev[t].push(c);
            }
        }
        struct Backward<'f, 'a, T: Scalar> {
            f: &'f Factors<'a, T>,
            x: &'f SharedSlice<T>,
            succs_rev: &'f [Vec<usize>],
            npred_rev: &'f [u32],
            nrhs: usize,
        }
        impl<T: Scalar> PtgProgram for Backward<'_, '_, T> {
            fn num_tasks(&self) -> usize {
                self.f.analysis.symbol.ncblk()
            }
            fn num_predecessors(&self, t: usize) -> u32 {
                self.npred_rev[t]
            }
            fn successors(&self, t: usize, out: &mut Vec<usize>) {
                out.extend_from_slice(&self.succs_rev[t]);
            }
            fn priority(&self, t: usize) -> f64 {
                t as f64 // roots (top separators) first
            }
            fn execute(&self, c: usize, _worker: usize) {
                self.f.backward_panel(c, self.x, self.nrhs);
            }
        }
        let backward = Backward {
            f: self,
            x: &x,
            succs_rev: &succs_rev,
            npred_rev: &npred_rev,
            nrhs,
        };
        run_sweep(&backward, nthreads);

        let xs = x.into_vec();
        let mut out = vec![T::zero(); n * nrhs];
        for r in 0..nrhs {
            for old in 0..n {
                out[r * n + old] = xs[r * n + perm[old]];
            }
        }
        out
    }

    /// Forward task body: solve panel `c`'s rows, scatter to facing
    /// panels.
    fn forward_panel(&self, c: usize, x: &SharedSlice<T>, locks: &[Mutex<()>], nrhs: usize) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        let cb = &symbol.cblks[c];
        let w = cb.width();
        let diag = match self.analysis.facto {
            FactoKind::Cholesky => Diag::NonUnit,
            _ => Diag::Unit,
        };
        let lpin = self.tab.pin_l_solve(symbol, c);
        // SAFETY: factor panels are read-only during the solve — `self`
        // is borrowed shared, so no writer can exist (caller contract,
        // enforced by the borrow checker on `solve_parallel_many`).
        let l = unsafe { lpin.slice() };
        let mut xc = vec![T::zero(); w * nrhs];
        {
            let _own = locks[c].lock();
            // SAFETY: task `c` runs only after all its contributors
            // completed — the PTG pending counter (`release_pending`,
            // AcqRel edge proven by the loom fan-in model) orders their
            // writes before this read, and the per-panel lock excludes
            // concurrent scatters into the same rows.
            let xs = unsafe { x.slice_mut() };
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                diag,
                w,
                nrhs,
                l,
                cb.stride,
                &mut xs[cb.fcol..],
                n,
            );
            for r in 0..nrhs {
                xc[r * w..(r + 1) * w]
                    .copy_from_slice(&xs[r * n + cb.fcol..r * n + cb.fcol + w]);
            }
        }
        let mut contribution = Vec::new();
        for b in symbol.off_blocks(c) {
            let m = b.nrows();
            contribution.clear();
            contribution.resize(m * nrhs, T::zero());
            gemm(
                Trans::NoTrans,
                Trans::NoTrans,
                m,
                nrhs,
                w,
                T::one(),
                &l[b.local_offset..],
                cb.stride,
                &xc,
                w,
                T::zero(),
                &mut contribution,
                m,
            );
            // Scatter-subtract under the target panel's lock (contributions
            // from different panels commute but must not race).
            let _guard = locks[b.facing].lock();
            // SAFETY: rows frow..lrow belong to panel `facing`; the
            // panel's mutex (held here) serializes every writer of those
            // rows, and its release/acquire pair publishes the writes —
            // the mutual-exclusion contract the loom mutex model checks.
            let xs = unsafe { x.slice_mut() };
            for r in 0..nrhs {
                for (i, &v) in contribution[r * m..(r + 1) * m].iter().enumerate() {
                    xs[r * n + b.frow + i] -= v;
                }
            }
        }
    }

    /// Backward task body: gather from solved facing panels, solve own
    /// rows.
    fn backward_panel(&self, c: usize, x: &SharedSlice<T>, nrhs: usize) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        let cb = &symbol.cblks[c];
        let w = cb.width();
        let lu = self.analysis.facto == FactoKind::Lu;
        let lpin = self.tab.pin_l_solve(symbol, c);
        // SAFETY: factor panels are read-only during the solve (shared
        // borrow of `self`; caller contract).
        let l = unsafe { lpin.slice() };
        let upin = lu.then(|| self.tab.pin_u_solve(symbol, c));
        let u = match &upin {
            // SAFETY: as for `l` — read-only factor panels under a
            // shared borrow of `self`.
            Some(p) => unsafe { p.slice() },
            None => l,
        };
        let mut xc = vec![T::zero(); w * nrhs];
        {
            // SAFETY: the segments read here belong to `c` (exclusively
            // ours in the reverse DAG) or to facing panels that already
            // completed — ordered before us by the PTG pending counter's
            // AcqRel edge (`release_pending`, proven by the loom fan-in
            // model). No concurrent writer exists for any of them.
            let xs = unsafe { x.slice() };
            for r in 0..nrhs {
                xc[r * w..(r + 1) * w]
                    .copy_from_slice(&xs[r * n + cb.fcol..r * n + cb.fcol + w]);
            }
            for b in symbol.off_blocks(c) {
                gemm(
                    Trans::Trans,
                    Trans::NoTrans,
                    w,
                    nrhs,
                    b.nrows(),
                    -T::one(),
                    &u[b.local_offset..],
                    cb.stride,
                    &xs[b.frow..],
                    n,
                    T::one(),
                    &mut xc,
                    w,
                );
            }
        }
        if lu {
            trsm(
                Side::Left,
                Uplo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                w,
                nrhs,
                l,
                cb.stride,
                &mut xc,
                w,
            );
        } else {
            let diag = if self.analysis.facto == FactoKind::Cholesky {
                Diag::NonUnit
            } else {
                Diag::Unit
            };
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::Trans,
                diag,
                w,
                nrhs,
                l,
                cb.stride,
                &mut xc,
                w,
            );
        }
        // SAFETY: rows fcol..fcol+w are written only by task `c` in the
        // backward sweep (reverse-DAG exclusivity: every reader of these
        // rows is a predecessor that already ran, ordered by the PTG
        // pending counter's AcqRel edge).
        let xs = unsafe { x.slice_mut() };
        for r in 0..nrhs {
            xs[r * n + cb.fcol..r * n + cb.fcol + w].copy_from_slice(&xc[r * w..(r + 1) * w]);
        }
    }
}
