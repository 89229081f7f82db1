//! Developer scratch example: reconstruct L·U from the block storage and
//! locate where it diverges from P·A·Pᵀ.

use dagfact_core::{Analysis, RuntimeKind, SolverOptions};
use dagfact_sparse::gen::convection_diffusion_3d;
use dagfact_symbolic::FactoKind;

fn main() {
    let a = convection_diffusion_3d(3, 2, 1, 0.45);
    let n = a.nrows();
    let analysis = Analysis::new(a.pattern(), FactoKind::Lu, &SolverOptions::default());
    let f = analysis.factorize(&a, RuntimeKind::Native, 1).unwrap();
    let symbol = &analysis.symbol;
    // Dense L (unit lower) and U (upper) from the block storage.
    let mut ld = vec![0.0f64; n * n];
    let mut ud = vec![0.0f64; n * n];
    for i in 0..n {
        ld[i * n + i] = 1.0;
    }
    for c in 0..symbol.ncblk() {
        let cb = &symbol.cblks[c];
        let lpin = f.tab.pin_l_solve(symbol, c);
        let upin = f.tab.pin_u_solve(symbol, c);
        // SAFETY: single-threaded example; factorization finished — no
        // concurrent writer exists.
        let lp = unsafe { lpin.slice() };
        // SAFETY: as for L.
        let up = unsafe { upin.slice() };
        for (local_j, j) in (cb.fcol..cb.lcol).enumerate() {
            for b in symbol.panel_blocks(c) {
                for r in b.frow..b.lrow {
                    let off = b.local_offset + (r - b.frow);
                    let lv = lp[local_j * cb.stride + off];
                    let uv = up[local_j * cb.stride + off];
                    if r > j {
                        ld[j * n + r] = lv; // L strict lower
                        if r >= cb.lcol {
                            // U stored transposed: U[j, r]
                            ud[r * n + j] = uv;
                        }
                    }
                    if r <= j {
                        ud[j * n + r] = lv; // U upper incl diag from L panel
                    }
                }
            }
        }
    }
    // P A P^T dense.
    let perm = analysis.perm.perm();
    let mut ap = vec![0.0f64; n * n];
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            ap[perm[j] * n + perm[i]] = v;
        }
    }
    // L·U
    let mut prod = vec![0.0f64; n * n];
    for j in 0..n {
        for i in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += ld[k * n + i] * ud[j * n + k];
            }
            prod[j * n + i] = acc;
        }
    }
    let mut max = (0.0f64, 0, 0);
    for j in 0..n {
        for i in 0..n {
            let d = (prod[j * n + i] - ap[j * n + i]).abs();
            if d > max.0 {
                max = (d, i, j);
            }
        }
    }
    println!("max |LU - PAP'| = {:.3e} at ({}, {})", max.0, max.1, max.2);
    println!("col_to_cblk: {:?}", symbol.col_to_cblk);
    for (label, m) in [("PAP'", &ap), ("LU  ", &prod), ("L   ", &ld), ("U   ", &ud)] {
        println!("{label}:");
        for i in 0..n {
            let row: Vec<String> = (0..n).map(|j| format!("{:7.3}", m[j * n + i])).collect();
            println!("  {}", row.join(" "));
        }
    }
}
