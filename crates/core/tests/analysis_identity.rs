//! Identity oracle of the analysis phase: a change that makes
//! `Analysis::new` cheaper must return the *same* permutation, supernode
//! partition and block structure. The constants were captured at PR 21
//! (the commit before the traversal workspace) on the five benchmark
//! patterns, at `--quick` sizes and — `#[ignore]`d, run with `--release
//! -- --ignored` — at the sizes `benchmark/` times.
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

const QUICK: [Id; 5] = [
    Id {
        order_perm: 0x2df9_5368_6887_3be7,
        perm: 0x6ec8_3bc8_a218_c141,
        ncblk: 47,
        nblocks: 842,
        block_rows: 0x9d2e_a479_808c_bcda,
    },
    Id {
        order_perm: 0x7916_722e_cdf8_d117,
        perm: 0x17b9_2da3_78a3_b631,
        ncblk: 848,
        nblocks: 5798,
        block_rows: 0x7f9d_b2d9_64d1_a8b9,
    },
    Id {
        order_perm: 0xbade_7a0d_3f59_d835,
        perm: 0x0cf2_5cff_6233_6b19,
        ncblk: 182,
        nblocks: 1349,
        block_rows: 0x59fa_e28b_1686_c692,
    },
    Id {
        order_perm: 0xb2cf_e583_40b0_f82b,
        perm: 0xc996_2a02_76f2_fc27,
        ncblk: 30,
        nblocks: 483,
        block_rows: 0x4dd0_137e_afbd_4c65,
    },
    Id {
        order_perm: 0xbade_7a0d_3f59_d835,
        perm: 0x0cf2_5cff_6233_6b19,
        ncblk: 182,
        nblocks: 1349,
        block_rows: 0x59fa_e28b_1686_c692,
    },
];

const FULL: [Id; 5] = [
    Id {
        order_perm: 0xc484_0413_7672_5b71,
        perm: 0x9612_787c_2949_a089,
        ncblk: 353,
        nblocks: 16640,
        block_rows: 0x35c1_cd0f_08ed_db44,
    },
    Id {
        order_perm: 0xbcc9_07ae_0354_97fd,
        perm: 0xa4f8_e05e_1ceb_c9f3,
        ncblk: 9346,
        nblocks: 78467,
        block_rows: 0x865a_81f2_9812_415d,
    },
    Id {
        order_perm: 0xdf8c_90c7_4110_2d6f,
        perm: 0x8cc6_147d_fd1a_c8db,
        ncblk: 2130,
        nblocks: 23629,
        block_rows: 0x90c8_3425_de7f_944a,
    },
    Id {
        order_perm: 0x9c51_d33b_7524_e4c9,
        perm: 0x58ef_f1bb_7875_fd03,
        ncblk: 211,
        nblocks: 6999,
        block_rows: 0x34f8_0a25_8968_50bb,
    },
    Id {
        order_perm: 0xdf8c_90c7_4110_2d6f,
        perm: 0x8cc6_147d_fd1a_c8db,
        ncblk: 2130,
        nblocks: 23629,
        block_rows: 0x90c8_3425_de7f_944a,
    },
];
