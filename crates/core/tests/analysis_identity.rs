//! Identity oracle of the analysis phase: a change that makes
//! `Analysis::new` cheaper must return the *same* permutation, supernode
//! partition and block structure. The constants are fingerprints of the
//! five benchmark patterns, at `--quick` sizes and — `#[ignore]`d, run
//! with `--release -- --ignored` — at the sizes `benchmark/` times. A
//! change that means to move the ordering re-captures them; they were
//! last re-captured when nested dissection began numbering separators by
//! first contact instead of minimum degree.
//!
//! The fingerprint is FNV-1a over `u64` words.

use dagfact_core::{Analysis, SolverOptions};
use dagfact_order::{compute_ordering, OrderingKind};
use dagfact_sparse::gen::{
    convection_diffusion_3d, grid_laplacian_3d_box, helmholtz_3d, shifted_laplacian_3d,
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

const QUICK: [Id; 5] = [
    Id {
        order_perm: 0xfbf9_db8e_e920_762d,
        perm: 0x258f_b7d1_7d2d_88d7,
        ncblk: 47,
        nblocks: 576,
        block_rows: 0xae8a_eef7_931f_8670,
    },
    Id {
        order_perm: 0x30c6_1ff4_3a3b_76c1,
        perm: 0x17e7_c672_02bf_ff41,
        ncblk: 849,
        nblocks: 5755,
        block_rows: 0x7b37_b784_5c30_3d25,
    },
    Id {
        order_perm: 0x72a1_26f6_2e93_ce91,
        perm: 0x1896_eba2_2e58_021d,
        ncblk: 182,
        nblocks: 1350,
        block_rows: 0x81d0_64eb_e679_a3d8,
    },
    Id {
        order_perm: 0xaa0c_5cf0_1a70_e899,
        perm: 0x225a_29bd_01b2_7765,
        ncblk: 30,
        nblocks: 359,
        block_rows: 0x501a_4f9d_00c8_84d5,
    },
    Id {
        order_perm: 0x72a1_26f6_2e93_ce91,
        perm: 0x1896_eba2_2e58_021d,
        ncblk: 182,
        nblocks: 1350,
        block_rows: 0x81d0_64eb_e679_a3d8,
    },
];

const FULL: [Id; 5] = [
    Id {
        order_perm: 0x0910_b0ab_80ee_e05d,
        perm: 0x9b0e_5f0e_79e6_660d,
        ncblk: 353,
        nblocks: 9381,
        block_rows: 0xd999_4018_b84d_5695,
    },
    Id {
        order_perm: 0xc21a_1be4_c033_b7e7,
        perm: 0x5bc2_7296_9628_74e3,
        ncblk: 9330,
        nblocks: 71205,
        block_rows: 0xe89a_0ae3_8828_a9fc,
    },
    Id {
        order_perm: 0xe56f_bcb2_cc15_5b7b,
        perm: 0x08d2_2c27_1fa1_2b75,
        ncblk: 2126,
        nblocks: 23040,
        block_rows: 0x9e9e_e17c_f9e1_0297,
    },
    Id {
        order_perm: 0x17f8_1ef4_3bdd_bcf3,
        perm: 0x9812_f59f_5b1a_2d09,
        ncblk: 211,
        nblocks: 4222,
        block_rows: 0x00d0_4bd4_8245_1d89,
    },
    Id {
        order_perm: 0xe56f_bcb2_cc15_5b7b,
        perm: 0x08d2_2c27_1fa1_2b75,
        ncblk: 2126,
        nblocks: 23040,
        block_rows: 0x9e9e_e17c_f9e1_0297,
    },
];
