//! Block symbolic structure: panels (column blocks) × row blocks.
//!
//! This is PaStiX's compressed symbol matrix. Each supernode — possibly
//! split vertically "prior to the factorization to limit the task
//! granularity and create more parallelism" (§III) — becomes a [`CBlk`]
//! whose coefficients are stored as one dense column-major panel. The
//! panel's rows are grouped into [`Block`]s, each facing the column block
//! that owns those rows; `update(k → facing)` tasks are generated per
//! (panel, off-diagonal block) pair, exactly the paper's extended task set
//! (§V: "the number of tasks is bound by the number of blocks in the
//! symbolic structure").

use crate::supernode::SupernodePartition;

/// A column block (panel): a contiguous column range plus the list of its
/// row blocks. `stride` is the panel height (Σ block heights), i.e. the
/// leading dimension of the dense panel storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CBlk {
    /// First column (inclusive).
    pub fcol: usize,
    /// Last column (exclusive).
    pub lcol: usize,
    /// Range of this panel's blocks in [`SymbolMatrix::blocks`]; block 0 of
    /// the range is always the diagonal block.
    pub block_begin: usize,
    /// End (exclusive) of the block range.
    pub block_end: usize,
    /// Total stored rows of the panel (leading dimension of its storage).
    pub stride: usize,
}

impl CBlk {
    /// Panel width in columns.
    pub fn width(&self) -> usize {
        self.lcol - self.fcol
    }

    /// Rows strictly below the diagonal block.
    pub fn height_below(&self) -> usize {
        self.stride - self.width()
    }
}

/// A row block inside a panel: a contiguous global row range whose rows all
/// belong to the columns of one facing panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First row (inclusive, global index).
    pub frow: usize,
    /// Last row (exclusive).
    pub lrow: usize,
    /// Column block owning rows `frow..lrow` (for the diagonal block this
    /// is the panel itself).
    pub facing: usize,
    /// Row offset of this block inside its panel's dense storage.
    pub local_offset: usize,
}

impl Block {
    /// Number of rows in the block.
    pub fn nrows(&self) -> usize {
        self.lrow - self.frow
    }
}

/// Options for panel splitting.
#[derive(Debug, Clone)]
pub struct SplitOptions {
    /// Panels wider than this are split into chunks of at most this many
    /// columns ("supernodes of the higher levels are split vertically",
    /// §III).
    pub max_width: usize,
}

impl Default for SplitOptions {
    fn default() -> Self {
        SplitOptions { max_width: 128 }
    }
}

/// The complete block symbolic structure of the factor.
#[derive(Debug, Clone)]
pub struct SymbolMatrix {
    /// Matrix order.
    pub n: usize,
    /// Column blocks, ascending by `fcol`.
    pub cblks: Vec<CBlk>,
    /// All row blocks, grouped per column block.
    pub blocks: Vec<Block>,
    /// Map from column to its column block.
    pub col_to_cblk: Vec<usize>,
}

impl SymbolMatrix {
    /// Build the block structure from an (amalgamated) supernode
    /// partition, splitting wide panels.
    pub fn from_partition(partition: &SupernodePartition, split: &SplitOptions) -> SymbolMatrix {
        let n = partition.snode_of.len();
        assert!(split.max_width >= 1);
        // 1) Final column partition: chunks of each supernode.
        //    chunk_cols[c] = (fcol, lcol, owning supernode)
        let mut chunks: Vec<(usize, usize, usize)> = Vec::new();
        for s in 0..partition.len() {
            let cols = partition.cols(s);
            let w = cols.len();
            let nchunk = w.div_ceil(split.max_width);
            // Spread columns evenly so chunks differ by at most one column
            // (better balance than one ragged tail chunk).
            let base = w / nchunk;
            let extra = w % nchunk;
            let mut fc = cols.start;
            for c in 0..nchunk {
                let width = base + usize::from(c < extra);
                chunks.push((fc, fc + width, s));
                fc += width;
            }
            debug_assert_eq!(fc, cols.end);
        }
        let ncblk = chunks.len();
        let mut col_to_cblk = vec![0usize; n];
        for (ci, &(fc, lc, _)) in chunks.iter().enumerate() {
            col_to_cblk[fc..lc].fill(ci);
        }
        // 2) Per-chunk row set: the columns of later chunks of the same
        //    supernode, then the supernode's below rows. Group consecutive
        //    runs into blocks, splitting at facing-cblk boundaries.
        let mut cblks = Vec::with_capacity(ncblk);
        let mut blocks: Vec<Block> = Vec::new();
        let mut rowbuf: Vec<usize> = Vec::new();
        for &(fc, lc, s) in &chunks {
            let block_begin = blocks.len();
            // Diagonal block first.
            blocks.push(Block {
                frow: fc,
                lrow: lc,
                facing: col_to_cblk[fc],
                local_offset: 0,
            });
            let mut offset = lc - fc;
            rowbuf.clear();
            // Remaining columns of the parent supernode (dense below the
            // diagonal within a supernode).
            rowbuf.extend(lc..partition.cols(s).end);
            rowbuf.extend(partition.rows[s].iter().copied());
            // rows are sorted: cols(s).end <= rows[s][0].
            let mut i = 0;
            while i < rowbuf.len() {
                let frow = rowbuf[i];
                let facing = col_to_cblk[frow];
                let mut lrow = frow + 1;
                let mut next = i + 1;
                while next < rowbuf.len()
                    && rowbuf[next] == lrow
                    && col_to_cblk[rowbuf[next]] == facing
                {
                    lrow += 1;
                    next += 1;
                }
                blocks.push(Block {
                    frow,
                    lrow,
                    facing,
                    local_offset: offset,
                });
                offset += lrow - frow;
                i = next;
            }
            cblks.push(CBlk {
                fcol: fc,
                lcol: lc,
                block_begin,
                block_end: blocks.len(),
                stride: offset,
            });
        }
        SymbolMatrix {
            n,
            cblks,
            blocks,
            col_to_cblk,
        }
    }

    /// Number of column blocks (panels).
    pub fn ncblk(&self) -> usize {
        self.cblks.len()
    }

    /// Blocks of panel `c` (first entry is the diagonal block).
    pub fn panel_blocks(&self, c: usize) -> &[Block] {
        // BOUNDS: `c` names a column block (caller contract); its block
        // range lies inside `blocks` (`validate`).
        &self.blocks[self.cblks[c].block_begin..self.cblks[c].block_end]
    }

    /// Off-diagonal blocks of panel `c`.
    pub fn off_blocks(&self, c: usize) -> &[Block] {
        // BOUNDS: as `panel_blocks`; every panel starts with its diagonal
        // block, so `block_begin + 1 <= block_end`.
        &self.blocks[self.cblks[c].block_begin + 1..self.cblks[c].block_end]
    }

    /// Stored entries of the factor (one triangle; double it for LU's two
    /// factors minus the shared diagonal).
    pub fn nnz_factor(&self) -> usize {
        self.cblks
            .iter()
            .map(|cb| {
                let w = cb.width();
                // Diagonal block counted as a full triangle, off-diagonal
                // blocks fully.
                w * (w + 1) / 2 + cb.height_below() * w
            })
            .sum()
    }

    /// Storage row of global row `row` inside panel `c`, or `None` when the
    /// row is not part of the panel's structure (symbolic closure rules
    /// that out for legal updates; a matrix entry outside the analyzed
    /// pattern is how it happens). The panel's blocks are sorted by `frow`
    /// and disjoint, so the only one that can hold `row` is the last that
    /// starts at or before it.
    pub fn row_offset_in_panel(&self, c: usize, row: usize) -> Option<usize> {
        let blocks = self.panel_blocks(c);
        // BOUNDS: `partition_point` returns at most `blocks.len()`.
        let b = blocks[..blocks.partition_point(|b| b.frow <= row)].last()?;
        (row < b.lrow).then(|| b.local_offset + (row - b.frow))
    }

    /// Total update tasks (couples of panels): one per off-diagonal block.
    pub fn n_update_tasks(&self) -> usize {
        self.blocks.len() - self.cblks.len()
    }

    /// Structural sanity check used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let mut expected_col = 0usize;
        for (ci, cb) in self.cblks.iter().enumerate() {
            if cb.fcol != expected_col {
                return Err(format!("cblk {ci} starts at {} != {expected_col}", cb.fcol));
            }
            if cb.lcol <= cb.fcol {
                return Err(format!("cblk {ci} empty"));
            }
            expected_col = cb.lcol;
            let blocks = self.panel_blocks(ci);
            if blocks.is_empty() {
                return Err(format!("cblk {ci} has no diagonal block"));
            }
            let diag = &blocks[0];
            if diag.frow != cb.fcol || diag.lrow != cb.lcol || diag.facing != ci {
                return Err(format!("cblk {ci} diagonal block malformed: {diag:?}"));
            }
            let mut offset = 0usize;
            let mut prev_end = 0usize;
            for (bi, b) in blocks.iter().enumerate() {
                if b.local_offset != offset {
                    return Err(format!("cblk {ci} block {bi} offset {} != {offset}", b.local_offset));
                }
                offset += b.nrows();
                if bi > 0 {
                    if b.frow < prev_end {
                        return Err(format!("cblk {ci} blocks overlap/unsorted at {bi}"));
                    }
                    if b.frow < cb.lcol {
                        return Err(format!("cblk {ci} off-block {bi} above diagonal"));
                    }
                    let fb = &self.cblks[b.facing];
                    if b.frow < fb.fcol || b.lrow > fb.lcol {
                        return Err(format!(
                            "cblk {ci} block {bi} rows {}..{} spill facing cblk {}",
                            b.frow, b.lrow, b.facing
                        ));
                    }
                }
                prev_end = b.lrow;
            }
            if offset != cb.stride {
                return Err(format!("cblk {ci} stride {} != {offset}", cb.stride));
            }
        }
        if expected_col != self.n {
            return Err(format!("columns covered {expected_col} != {}", self.n));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::column_counts;
    use crate::etree::{elimination_tree, postorder, relabel_parent};
    use crate::supernode::{amalgamate, build_partition, detect_supernodes, AmalgamationOptions};
    use dagfact_sparse::gen::{grid_laplacian_2d, grid_laplacian_3d, random_spd};
    use dagfact_sparse::SparsityPattern;

    fn symbol_for(pattern: &SparsityPattern, max_width: usize) -> SymbolMatrix {
        let sym = pattern.symmetrize();
        let parent = elimination_tree(&sym);
        let post = postorder(&parent);
        let mut perm = vec![0usize; post.len()];
        for (new, &old) in post.iter().enumerate() {
            perm[old] = new;
        }
        let permuted = sym.permute_symmetric(&perm);
        let parent = relabel_parent(&parent, &post);
        let (cc, _) = column_counts(&permuted, &parent);
        let first = detect_supernodes(&parent, &cc);
        let part = build_partition(&permuted, &parent, first);
        let part = amalgamate(part, &AmalgamationOptions::default());
        SymbolMatrix::from_partition(&part, &SplitOptions { max_width })
    }

    #[test]
    fn structure_validates_on_grids() {
        for (nx, ny) in [(6, 6), (10, 8), (13, 5)] {
            let a = grid_laplacian_2d(nx, ny);
            let sym = symbol_for(a.pattern(), 16);
            sym.validate().unwrap();
        }
        let a3 = grid_laplacian_3d(6, 6, 6);
        symbol_for(a3.pattern(), 24).validate().unwrap();
    }

    #[test]
    fn structure_validates_on_random() {
        for seed in 0..4 {
            let a = random_spd(60, 4, seed);
            symbol_for(a.pattern(), 8).validate().unwrap();
        }
    }

    #[test]
    fn splitting_respects_max_width() {
        let a = grid_laplacian_2d(16, 16);
        let sym = symbol_for(a.pattern(), 8);
        for cb in &sym.cblks {
            assert!(cb.width() <= 8, "panel wider than split limit");
        }
        // The top separator of a 16x16 grid is ≥ 16 wide: splitting must
        // produce more panels than the unsplit structure.
        let unsplit = symbol_for(a.pattern(), usize::MAX >> 1);
        assert!(sym.ncblk() > unsplit.ncblk());
        // Splitting is exact: the factor nnz (lower-triangle accounting)
        // is invariant.
        assert_eq!(sym.nnz_factor(), unsplit.nnz_factor());
    }

    #[test]
    fn row_lookup_agrees_with_a_linear_scan() {
        let (a2, a3) = (grid_laplacian_2d(9, 9), grid_laplacian_3d(6, 6, 6));
        for sym in [symbol_for(a2.pattern(), 12), symbol_for(a3.pattern(), 24)] {
            let mut present = 0;
            for ci in 0..sym.ncblk() {
                for row in 0..sym.n {
                    let scan = (sym.panel_blocks(ci).iter())
                        .find(|b| b.frow <= row && row < b.lrow)
                        .map(|b| b.local_offset + (row - b.frow));
                    assert_eq!(sym.row_offset_in_panel(ci, row), scan, "panel {ci}, row {row}");
                    present += usize::from(scan.is_some());
                }
            }
            let rows: usize = sym.cblks.iter().map(|cb| cb.stride).sum();
            assert_eq!(present, rows, "every storage row of every panel is found");
        }
    }

    #[test]
    fn row_offset_is_none_outside_the_structure() {
        // Two disconnected 2-vertex components: no panel of the first
        // component can contain a row of the second.
        let entries = vec![(0usize, 0usize), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)];
        let p = SparsityPattern::from_entries(4, 4, entries);
        let sym = symbol_for(&p, 64);
        assert_eq!(sym.row_offset_in_panel(0, 3), None);
    }

    #[test]
    fn update_task_count_matches_off_blocks() {
        let a = grid_laplacian_2d(10, 10);
        let sym = symbol_for(a.pattern(), 8);
        let total_off: usize = (0..sym.ncblk()).map(|c| sym.off_blocks(c).len()).sum();
        assert_eq!(sym.n_update_tasks(), total_off);
        assert!(total_off > 0);
    }
}
