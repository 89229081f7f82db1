//! Triangular solve phase: forward / diagonal / backward sweeps over the
//! block structure.
//!
//! There is one sweep. Elimination order (reversed for the backward
//! sweep) is a topological order of the panels' dependencies, so both
//! sweeps are plain loops over the panels — no executor, no locks, no
//! per-task bookkeeping:
//!
//! * **forward** `L·y = b`: panel `c` solves its rows with its diagonal
//!   triangle — every panel with a block facing `c` has subtracted its
//!   contribution by then — and subtracts `L[R_b, c]·y_c` from the rows of
//!   each facing panel;
//! * **backward** `Lᵀ/U·x = y`: panel `c` gathers from its (already
//!   solved) facing panels, then solves its own rows.
//!
//! A panel's off-diagonal blocks are stored one under the other (rows
//! `w..stride` of its column-major storage), so each step makes **one**
//! dense product over all of them, through a compact `(stride − w) × nrhs`
//! scratch: forward `tmp = L[w.., :]·y_c`, then `x[R_b, :] -= tmp[R_b]`
//! block by block; backward gathers `x[R_b, :]` of every block into `tmp`,
//! then `x_c -= L[w.., :]ᵀ·tmp`. Those two shapes, and the diagonal
//! [`trsm`], are what the kernels' SIMD tier is cut for: a product one
//! tile wide streams the factor 16 columns at a time, the `Aᵀ·B` tile
//! prefetches the factor's next rows, and a triangle runs all of a
//! group's columns in vector lanes. On `pml_zldlt`'s factors (C64, a
//! 2-vCPU AVX-512 Xeon) an 8-column group takes ≈ 25 ms, 8 of them in the
//! forward product and 7 in the backward one, and `solve_many(16)` runs at
//! ≈ 21 GFlop/s (EXPERIMENTS.md, "Solve sweeps at the tile's rate"). No
//! kernel lets a column's rounding
//! depend on the columns beside it, so column `r` of a many-RHS solve is
//! bitwise the single solve of column `r`.
//!
//! That identity is the parallel solve. Above [`SPLIT_FLOOR`],
//! [`Factors::solve_many`] cuts its right-hand sides into up to
//! [`Factors::nthreads`] contiguous column groups, a multiple of the
//! kernels' 4-column tile wide ([`Factors::solve_groups`]; any width
//! through [`Factors::solve_parallel_many`]). Each group runs the whole
//! sequential solve — permute in, both sweeps, permute out — on its own
//! slabs of one set of buffers: the first group on the calling thread,
//! each other one on a scoped thread. The result is bitwise the 1-worker
//! one at every worker count, and no two threads share a writable
//! element. Every buffer is allocated on the calling thread before the
//! fork, so the forked threads allocate nothing. The `n × nrhs` working
//! buffer is the result: each group permutes its columns back in place,
//! one at a time through an `n`-long scratch column of its own, so the
//! right-hand sides are held once, not twice. A single column never
//! splits: [`Factors::solve`], and refinement with it, stays on the
//! calling thread.

use crate::coeftab::PanelSide;
use crate::numeric::Factors;
use dagfact_kernels::gemm::{gemm, Trans};
use dagfact_kernels::trsm::{trsm, Diag, Side, Uplo};
use dagfact_kernels::Scalar;
use dagfact_symbolic::FactoKind;

/// Columns of the kernels' register tile.
const TILE: usize = 4;

/// Right-hand sides × stored factor entries above which
/// [`Factors::solve_many`] splits. Measured on 2 vCPUs, two groups
/// against one at 8 and 16 right-hand sides on f64 LLᵀ, f64 LU and C64
/// LDLᵀ grids: above 2^18 the split gained 1.06–1.7×; below it the
/// ~25 µs thread start ate the gain about as often as not (0.7–1.5×).
pub const SPLIT_FLOOR: usize = 1 << 18;

/// Width of each column group when `nrhs` columns are cut into at most
/// `groups`: whole tiles per group when there are tiles enough to go
/// round, otherwise as even as the columns allow.
fn group_width(nrhs: usize, groups: usize) -> usize {
    let groups = groups.clamp(1, nrhs.max(1));
    let tiles = nrhs.div_ceil(TILE);
    if tiles >= groups {
        (TILE * tiles.div_ceil(groups)).min(nrhs)
    } else {
        nrhs.div_ceil(groups).max(1)
    }
}

impl<T: Scalar> Factors<'_, T> {
    /// Solve `A·x = b` using the computed factors. `b` is in the
    /// *original* (unpermuted) numbering; so is the returned `x`.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_on(b, 1, 1)
    }

    /// Solve `A·X = B` for `nrhs` right-hand sides stored column-major in
    /// `b` (length `n·nrhs`). Every panel makes one `(stride − w) × nrhs`
    /// product per sweep and one `w × nrhs` triangular solve, all columns
    /// of a group at once, on the kernels' SIMD tier (module docs) — so
    /// the factor is read once per group and many-RHS solves run at GEMM
    /// speed rather than GEMV speed. The columns run in
    /// [`Factors::solve_groups`] groups on as many threads. Column `r` of
    /// the result is bitwise [`Factors::solve`] of column `r`.
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        self.solve_on(b, nrhs, self.solve_groups(nrhs))
    }

    /// The column groups [`Factors::solve_many`] cuts `nrhs` right-hand
    /// sides into: up to [`Factors::nthreads`], each at least a full tile
    /// wide, once `nrhs ×` the stored factor entries exceed
    /// [`SPLIT_FLOOR`]; otherwise one. A narrower group gains nothing: at
    /// one or two columns each thread streams the whole factor at memory
    /// speed, and two threads share that bandwidth (two right-hand sides
    /// split 1 + 1 measured 0.87–0.95× on the probes' largest factors).
    pub fn solve_groups(&self, nrhs: usize) -> usize {
        let groups = if nrhs.saturating_mul(self.tab.layout.len) > SPLIT_FLOOR {
            self.nthreads.min(nrhs / TILE)
        } else {
            1
        };
        nrhs.div_ceil(group_width(nrhs, groups))
    }

    /// [`Factors::solve_many`] in at most `groups` column groups whatever
    /// the problem's size; one group is the sequential solve.
    pub fn solve_parallel_many(&self, b: &[T], nrhs: usize, groups: usize) -> Vec<T> {
        self.solve_on(b, nrhs, groups)
    }

    /// The solve of `nrhs` columns in at most `groups` groups (module
    /// docs). PANIC: `b` holds `nrhs ≥ 1` columns of length n.
    fn solve_on(&self, b: &[T], nrhs: usize, groups: usize) -> Vec<T> {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        assert!(
            nrhs >= 1 && b.len() == n * nrhs,
            "b must hold nrhs columns of length n (nrhs >= 1)"
        );
        let width = group_width(nrhs, groups);
        let tallest = symbol.cblks.iter().map(|cb| cb.height_below()).max().unwrap_or(0).max(1);
        // ALLOC: the working buffer (the result), the groups' product
        // scratch and one permutation column per group, once per solve,
        // on the calling thread.
        let mut x = vec![T::zero(); n * nrhs];
        let mut tmp = vec![T::zero(); tallest * nrhs];
        let mut cols = vec![T::zero(); n * nrhs.div_ceil(width)];
        // One slab of each buffer per group; none at all when n == 0.
        let slab = (n * width).max(1);
        let mut slabs = b
            .chunks(slab)
            .zip(x.chunks_mut(slab))
            .zip(tmp.chunks_mut(tallest * width))
            .zip(cols.chunks_mut(n.max(1)));
        let first = slabs.next();
        let solve_first = || {
            if let Some((((b, x), tmp), col)) = first {
                self.solve_group(b, x, tmp, col);
            }
        };
        if width == nrhs {
            solve_first();
        } else {
            std::thread::scope(|s| {
                // ALLOC: the fork — once per call, one thread per group
                // but the first, only above `SPLIT_FLOOR` (or when
                // `solve_parallel_many` asks for it); the forked threads
                // allocate nothing.
                for (((b, x), tmp), col) in slabs {
                    s.spawn(move || self.solve_group(b, x, tmp, col));
                }
                solve_first();
            });
        }
        x
    }

    /// The sequential solve of one column group: `b`'s columns permuted
    /// into `x`, the forward sweep, the LDLᵀ diagonal, the backward sweep,
    /// `x` permuted back in place, a column at a time through `col`. `x`
    /// holds as many columns as `b`, `col` one; `tmp` that many times the
    /// tallest off-diagonal part of a panel.
    fn solve_group(&self, b: &[T], x: &mut [T], tmp: &mut [T], col: &mut [T]) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        let nrhs = x.len() / n;
        let perm = self.analysis.perm.perm();
        // x[perm[i], :] = b[i, :]
        // BOUNDS: every column has length n and `perm` is a bijection on
        // 0..n, here and in the permutation out.
        for (xc, bc) in x.chunks_exact_mut(n).zip(b.chunks_exact(n)) {
            for (&new, &v) in perm.iter().zip(bc) {
                xc[new] = v;
            }
        }
        for c in 0..symbol.ncblk() {
            self.forward_panel(c, x, tmp, nrhs);
        }
        if self.analysis.facto == FactoKind::Ldlt {
            for xc in x.chunks_exact_mut(n) {
                for (xi, &di) in xc.iter_mut().zip(&self.d) {
                    *xi /= di;
                }
            }
        }
        for c in (0..symbol.ncblk()).rev() {
            self.backward_panel(c, x, tmp, nrhs);
        }
        // x[i, :] = x[perm[i], :], each column read from its copy in `col`
        // BOUNDS: as for the permutation in; `col` has length n.
        for xc in x.chunks_exact_mut(n) {
            col.copy_from_slice(xc);
            for (o, &new) in xc.iter_mut().zip(perm) {
                *o = col[new];
            }
        }
    }

    /// Forward step of panel `c`: solve its rows `L_cc·y_c = x_c` (unit
    /// diagonal for LDLᵀ/LU) in place, form `tmp = L[w.., c]·y_c` over all
    /// off-diagonal blocks at once, then `x[R_b, :] -= tmp[R_b, :]` block
    /// by block. `tmp` holds at least `(stride − w) × nrhs` elements.
    fn forward_panel(&self, c: usize, x: &mut [T], tmp: &mut [T], nrhs: usize) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        // BOUNDS: c < ncblk, a panel of the sweep.
        let cb = &symbol.cblks[c];
        let (w, h) = (cb.width(), cb.height_below());
        let diag = match self.analysis.facto {
            FactoKind::Cholesky => Diag::NonUnit,
            FactoKind::Ldlt | FactoKind::Lu => Diag::Unit,
        };
        let lpin = self.tab.pin_solve(c, PanelSide::L);
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

    /// Backward step of panel `c`: gather `x[R_b, :]` of every
    /// off-diagonal block into `tmp`, `x_c -= Lᵀ[c, w..]·tmp` (LU:
    /// `U[c, R_b]`, stored transposed in the U panel) in one product, then
    /// the diagonal solve `Lᵀ_cc` / `U_cc` — both in place on the panel's
    /// own rows of `x`.
    fn backward_panel(&self, c: usize, x: &mut [T], tmp: &mut [T], nrhs: usize) {
        let symbol = &self.analysis.symbol;
        let n = symbol.n;
        // BOUNDS: c < ncblk, a panel of the sweep.
        let cb = &symbol.cblks[c];
        let (w, h) = (cb.width(), cb.height_below());
        let lu = self.analysis.facto == FactoKind::Lu;
        let lpin = self.tab.pin_solve(c, PanelSide::L);
        let upin = lu.then(|| self.tab.pin_solve(c, PanelSide::U));
        // SAFETY: read-only factor panels, as in `forward_panel`.
        let l = unsafe { lpin.slice() };
        // The off-diagonal rows: LU's Uᵀ panel holds only those (leading
        // dimension h), L has them below its diagonal block. BOUNDS: w <= stride.
        // SAFETY: as for `l`.
        let (u, ldu) = upin.as_ref().map_or((&l[w..], cb.stride), |p| (unsafe { p.slice() }, h));
        if h > 0 {
            for b in symbol.off_blocks(c) {
                // BOUNDS: as in `forward_panel`'s subtraction.
                for (xr, tr) in x.chunks_exact(n).zip(tmp.chunks_exact_mut(h)) {
                    tr[b.local_offset - w..][..b.nrows()].copy_from_slice(&xr[b.frow..b.lrow]);
                }
            }
            // BOUNDS: as in `forward_panel`'s product, transposed.
            let xc = &mut x[cb.fcol..];
            gemm(Trans::Trans, Trans::NoTrans, w, nrhs, h, -T::one(), u, ldu, tmp, h, T::one(), xc, n);
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
