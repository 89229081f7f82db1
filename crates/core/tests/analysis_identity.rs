//! Identity oracle of the analysis phase: a change that makes
//! `Analysis::new` cheaper must return the *same* permutation, supernode
//! partition and block structure. The constants are fingerprints of the
//! five benchmark patterns, at `--quick` sizes and — `#[ignore]`d, run
//! with `--release -- --ignored` — at the sizes `benchmark/` times. A
//! change that means to move the ordering re-captures them; they were
//! last re-captured when nested dissection began relabeling its graph
//! canonically and cutting 27-point pieces by multilevel separators.
//!
//! The fingerprint is FNV-1a over `u64` words.

use dagfact_core::{Analysis, SolverOptions};
use dagfact_order::{compute_ordering, OrderingKind};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_3d, grid_laplacian_3d_box, helmholtz_3d,
    shifted_laplacian_3d,
};
use dagfact_sparse::SparsityPattern;
use dagfact_symbolic::FactoKind;

fn fnv(words: impl IntoIterator<Item = usize>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |x, v| {
        (x ^ v as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What an analysis is identified by.
#[derive(Debug, PartialEq, Eq)]
struct Id {
    /// `compute_ordering` alone on the symmetrized pattern.
    order_perm: u64,
    /// `Analysis::perm` (fill-reducing ordering, then postorder).
    perm: u64,
    ncblk: usize,
    nblocks: usize,
    /// `(frow, lrow)` of every block.
    block_rows: u64,
}

fn identify(pattern: &SparsityPattern, facto: FactoKind) -> Id {
    let order = compute_ordering(&pattern.symmetrize(), OrderingKind::NestedDissection);
    let an = Analysis::new(pattern, facto, &SolverOptions::default());
    Id {
        order_perm: fnv(order.perm().iter().copied()),
        perm: fnv(an.perm.perm().iter().copied()),
        ncblk: an.symbol.ncblk(),
        nblocks: an.symbol.blocks.len(),
        block_rows: fnv(an.symbol.blocks.iter().flat_map(|b| [b.frow, b.lrow])),
    }
}

/// The five patterns of `benchmark/` (`audi_llt`, `shell_lu`, `pml_zldlt`
/// and the two problems of `serve_mix`) at grid sides `s`.
fn benchmark_ids(s: [usize; 5]) -> [Id; 5] {
    [
        identify(grid_laplacian_3d_box(s[0], s[0], s[0]).pattern(), FactoKind::Cholesky),
        identify(convection_diffusion_3d(s[1], s[1], 3, 0.3).pattern(), FactoKind::Lu),
        identify(helmholtz_3d(s[2], s[2], s[2], 2.0, 0.5).pattern(), FactoKind::Ldlt),
        identify(grid_laplacian_3d_box(s[3], s[3], s[3]).pattern(), FactoKind::Cholesky),
        identify(shifted_laplacian_3d(s[4], s[4], s[4], 1.0).pattern(), FactoKind::Ldlt),
    ]
}

#[test]
fn quick_sizes_match_the_parent() {
    let got = benchmark_ids([10, 40, 10, 8, 10]);
    println!("{got:#x?}");
    assert_eq!(got, QUICK);
}

#[test]
#[ignore = "full benchmark sizes: run with --release -- --ignored"]
fn full_sizes_match_the_parent() {
    let got = benchmark_ids([28, 150, 28, 20, 28]);
    println!("{got:#x?}");
    assert_eq!(got, FULL);
}

/// `0..n` in a random order drawn from `seed` (Fisher-Yates on SplitMix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

/// The block structure must not depend on how the input is numbered: a
/// random renumbering of a 27-point box may cost at most a quarter more
/// blocks than the grid order, at the same fill within 0.5%. Separators
/// ordered by minimum degree failed it (24³: 18 283 blocks against
/// 11 042, 1.66×); by first contact it is 6 603 against 6 020 (1.10×).
/// 24³ is the smallest box above 6³ at which the fill check holds for
/// this seed: from 7³ to 23³ the renumbered dissection cuts other
/// separators and nnz(L) moves by 0.8–15% whichever way they are ordered
/// (the separator search depends on the numbering, their order no longer
/// does), and 6³ has too few blocks to tell (120 against 167).
#[test]
fn block_count_does_not_depend_on_the_numbering() {
    let natural = grid_laplacian_3d_box(24, 24, 24).pattern().clone();
    let renumbered = natural.permute_symmetric(&shuffled(natural.ncols(), 7));
    let stats = |pattern: &SparsityPattern| {
        Analysis::new(pattern, FactoKind::Cholesky, &SolverOptions::default()).stats()
    };
    let (natural, renumbered) = (stats(&natural), stats(&renumbered));
    let blocks = renumbered.nblocks as f64 / natural.nblocks as f64;
    let fill = renumbered.nnz_l as f64 / natural.nnz_l as f64;
    println!("blocks {} -> {} ({blocks:.3}x), nnz(L) {fill:.5}x", natural.nblocks, renumbered.nblocks);
    assert!(blocks <= 1.25, "renumbering multiplies the blocks by {blocks:.3}");
    assert!((fill - 1.0).abs() <= 0.005, "renumbering multiplies nnz(L) by {fill:.5}");
}

/// nnz(L) of `Analysis::new` on 10 random renumberings of `pattern`,
/// against the input as given: the largest relative deviation, and how
/// many renumberings stay within 0.5%.
fn renumbering_spread(pattern: &SparsityPattern, facto: FactoKind) -> (f64, usize) {
    let nnz_l = |p: &SparsityPattern| {
        Analysis::new(p, facto, &SolverOptions::default()).stats().nnz_l
    };
    let natural = nnz_l(pattern) as f64;
    let deviations: Vec<f64> = (1..=10)
        .map(|seed| pattern.permute_symmetric(&shuffled(pattern.ncols(), seed)))
        .map(|renumbered| (nnz_l(&renumbered) as f64 / natural - 1.0).abs())
        .collect();
    let within = deviations.iter().filter(|&&d| d <= 0.005).count();
    (deviations.into_iter().fold(0.0, f64::max), within)
}

/// Print the renumbering spread of `pattern` and hold it to `bound`.
fn assert_spread(name: &str, pattern: &SparsityPattern, facto: FactoKind, bound: f64) {
    let (worst, within) = renumbering_spread(pattern, facto);
    println!("{name}: max |shuffled / natural - 1| = {worst:.5}, {within}/10 within 0.5%");
    assert!(worst <= bound, "{name}: renumbering moves nnz(L) by {worst:.4}");
}

/// Nested dissection renumbers its graph canonically before it cuts it, so
/// the fill of a renumbered box or grid is the fill of the grid order:
/// at most 1% apart on each of 10 renumberings (0 on cubes, whose
/// canonical graph is the same for every numbering).
fn assert_renumbering_keeps_the_fill(sides: &[usize]) {
    for &s in sides {
        let (boxed, grid) = (grid_laplacian_3d_box(s, s, s), grid_laplacian_3d(s, s, s));
        assert_spread(&format!("27-point {s}³"), boxed.pattern(), FactoKind::Cholesky, 0.01);
        assert_spread(&format!("7-point {s}³"), grid.pattern(), FactoKind::Cholesky, 0.01);
    }
}

#[test]
fn renumbering_keeps_the_fill() {
    assert_renumbering_keeps_the_fill(&[16, 20]);
}

/// The cubes, a small convection–diffusion problem, and the limit off the
/// cube: where no symmetry swaps the root's tied neighbours, the ranks
/// still follow the numbering there, and a 30×20×15 grid's fill moves by
/// up to 5.7% (its 27-point box by 0.3%).
#[test]
#[ignore = "the full renumbering sweep: run with --release -- --ignored"]
fn renumbering_sweep() {
    assert_renumbering_keeps_the_fill(&[16, 20, 24, 28]);
    let pattern = convection_diffusion_3d(20, 20, 3, 0.3).pattern().clone();
    assert_spread("convection-diffusion 20x20x3", &pattern, FactoKind::Lu, 0.01);
    let grid = grid_laplacian_3d(30, 20, 15);
    assert_spread("7-point 30x20x15", grid.pattern(), FactoKind::Cholesky, 0.06);
    let boxed = grid_laplacian_3d_box(30, 20, 15);
    assert_spread("27-point 30x20x15", boxed.pattern(), FactoKind::Cholesky, 0.01);
}

const QUICK: [Id; 5] = [
    Id {
        order_perm: 0x4e4c_76eb_a61d_404d,
        perm: 0x127a_42d0_4ec6_1e97,
        ncblk: 45,
        nblocks: 567,
        block_rows: 0x2d3b_5bf8_631f_6637,
    },
    Id {
        order_perm: 0x9a42_9f22_f6b6_6905,
        perm: 0x5315_67ac_672a_88a3,
        ncblk: 826,
        nblocks: 5628,
        block_rows: 0xcd99_e7a2_27d4_36de,
    },
    Id {
        order_perm: 0xaf44_b86e_7c63_6485,
        perm: 0x68c6_47cd_09d1_2c19,
        ncblk: 183,
        nblocks: 1339,
        block_rows: 0xda60_beef_317f_bd1e,
    },
    Id {
        order_perm: 0x315d_2043_4b07_9519,
        perm: 0xb040_75dd_b4cc_7d0b,
        ncblk: 34,
        nblocks: 367,
        block_rows: 0x4ef6_d7c3_8384_e0d5,
    },
    Id {
        order_perm: 0xaf44_b86e_7c63_6485,
        perm: 0x68c6_47cd_09d1_2c19,
        ncblk: 183,
        nblocks: 1339,
        block_rows: 0xda60_beef_317f_bd1e,
    },
];

const FULL: [Id; 5] = [
    Id {
        order_perm: 0xd0bc_bc4c_a8c8_804f,
        perm: 0x4056_0a2a_9d21_b139,
        ncblk: 497,
        nblocks: 12428,
        block_rows: 0xdc3e_fb1f_3c60_a976,
    },
    Id {
        order_perm: 0x086f_7db1_5079_d5df,
        perm: 0x1b3f_e5d3_fbfe_cdf9,
        ncblk: 9543,
        nblocks: 68792,
        block_rows: 0x32c1_e44d_91d4_f8c9,
    },
    Id {
        order_perm: 0xb8b2_7487_e97a_9dbd,
        perm: 0x312d_9d4b_d5b4_e5d9,
        ncblk: 2181,
        nblocks: 23301,
        block_rows: 0x4289_1315_cf87_761a,
    },
    Id {
        order_perm: 0x5a00_ebdd_4012_8645,
        perm: 0xda92_95f6_eba3_b95d,
        ncblk: 225,
        nblocks: 4636,
        block_rows: 0x4b0c_b947_d175_8c53,
    },
    Id {
        order_perm: 0xb8b2_7487_e97a_9dbd,
        perm: 0x312d_9d4b_d5b4_e5d9,
        ncblk: 2181,
        nblocks: 23301,
        block_rows: 0x4289_1315_cf87_761a,
    },
];
