use crate::params::{widen_range, FAKE_QUANT_CHUNK};
use crate::{Bitwidth, QuantError, QuantParams};
use paro_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Quantization grouping granularity for a rank-2 tensor.
///
/// These are the granularities the paper discusses: "per-row" for attention
/// maps under the naive scheme, "per-dimension" (per-column) for `V`,
/// "per-tensor" as the coarsest baseline, and "per-block" for PARO's
/// reorder-based scheme.
///
/// # Example
///
/// ```
/// use paro_quant::{fake_quant_2d, Bitwidth, Grouping};
/// use paro_tensor::Tensor;
/// # fn main() -> Result<(), paro_quant::QuantError> {
/// let t = Tensor::from_fn(&[4, 4], |i| (i[0] * 4 + i[1]) as f32 * 0.1);
/// let (quantized, params) = fake_quant_2d(&t, Grouping::PerRow, Bitwidth::B8)?;
/// assert_eq!(params.len(), 4); // one parameter set per row
/// assert_eq!(quantized.shape(), t.shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Grouping {
    /// One set of parameters for the whole tensor.
    PerTensor,
    /// One set of parameters per row (the naive attention-map scheme).
    PerRow,
    /// One set of parameters per column ("per-dimension", used for `V`).
    PerCol,
    /// One set of parameters per rectangular block.
    Block(BlockGrid),
}

/// A rectangular block partition of a rank-2 tensor.
///
/// Blocks are `block_rows x block_cols`; edge blocks may be smaller when the
/// tensor dimensions are not multiples of the block edges.
///
/// # Example
///
/// ```
/// use paro_quant::BlockGrid;
/// # fn main() -> Result<(), paro_quant::QuantError> {
/// let grid = BlockGrid::square(4)?;
/// assert_eq!(grid.grid_dims(10, 9), (3, 3));
/// // The bottom-right block is clipped to 2x1.
/// assert_eq!(grid.block_bounds(2, 2, 10, 9), (8, 8, 2, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockGrid {
    /// Rows per block.
    pub block_rows: usize,
    /// Columns per block.
    pub block_cols: usize,
}

impl BlockGrid {
    /// Creates a block grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadBlockGrid`] if either edge is zero.
    pub fn new(block_rows: usize, block_cols: usize) -> Result<Self, QuantError> {
        if block_rows == 0 || block_cols == 0 {
            return Err(QuantError::BadBlockGrid {
                block_rows,
                block_cols,
            });
        }
        Ok(BlockGrid {
            block_rows,
            block_cols,
        })
    }

    /// Creates a square block grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadBlockGrid`] if `edge` is zero.
    pub fn square(edge: usize) -> Result<Self, QuantError> {
        BlockGrid::new(edge, edge)
    }

    /// Number of block rows/cols covering an `rows x cols` tensor.
    pub fn grid_dims(&self, rows: usize, cols: usize) -> (usize, usize) {
        (
            rows.div_ceil(self.block_rows),
            cols.div_ceil(self.block_cols),
        )
    }

    /// Total number of blocks covering an `rows x cols` tensor.
    pub fn block_count(&self, rows: usize, cols: usize) -> usize {
        let (gr, gc) = self.grid_dims(rows, cols);
        gr * gc
    }

    /// The row/col bounds of block `(bi, bj)` within an `rows x cols` tensor:
    /// `(row0, col0, height, width)`.
    pub fn block_bounds(
        &self,
        bi: usize,
        bj: usize,
        rows: usize,
        cols: usize,
    ) -> (usize, usize, usize, usize) {
        let row0 = bi * self.block_rows;
        let col0 = bj * self.block_cols;
        let h = self.block_rows.min(rows.saturating_sub(row0));
        let w = self.block_cols.min(cols.saturating_sub(col0));
        (row0, col0, h, w)
    }
}

/// Summary statistics of one quantization group, used by the sensitivity
/// metric (paper Sec. III-B) and the analysis experiments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroupStats {
    /// Mean of the group's values.
    pub mean: f32,
    /// Mean of absolute values ("block importance" numerator).
    pub abs_mean: f32,
    /// Population variance within the group.
    pub variance: f32,
    /// Maximum absolute value.
    pub abs_max: f32,
    /// Number of elements in the group.
    pub len: usize,
}

/// Columns [`Grouping::PerCol`] calibrates and quantizes together: one
/// 64-byte line of each row.
const COL_BLOCK: usize = 16;

/// [`fake_quant_2d`] under [`Grouping::PerRow`], in place: each row of
/// `t` is calibrated and then overwritten by its fake-quantized values,
/// so a caller that owns its activations quantizes them without a second
/// buffer. Returns the per-row parameters.
///
/// # Errors
///
/// Returns [`QuantError::Tensor`] with a rank mismatch if `t` is not
/// rank 2.
pub fn fake_quant_rows_in_place(
    t: &mut Tensor,
    bits: Bitwidth,
) -> Result<Vec<QuantParams>, QuantError> {
    require_rank2(t)?;
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let a = t.as_mut_slice();
    let kernel = crate::kernels::active_kernel();
    let mut params = Vec::with_capacity(m);
    for r in 0..m {
        let row = &mut a[r * n..(r + 1) * n];
        let p = QuantParams::calibrate_minmax(row, bits);
        p.fake_quant_in_place(row, kernel);
        params.push(p);
    }
    Ok(params)
}

/// Fake-quantizes a rank-2 tensor under a grouping at a uniform bitwidth.
///
/// Returns the fake-quantized tensor and the per-group parameters, in
/// row-major group order (rows for [`Grouping::PerRow`], columns for
/// [`Grouping::PerCol`], blocks row-major for [`Grouping::Block`]).
///
/// # Errors
///
/// Propagates tensor shape errors; returns [`QuantError::Tensor`] with a
/// rank mismatch if `t` is not rank 2.
pub fn fake_quant_2d(
    t: &Tensor,
    grouping: Grouping,
    bits: Bitwidth,
) -> Result<(Tensor, Vec<QuantParams>), QuantError> {
    require_rank2(t)?;
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let a = t.as_slice();
    let kernel = crate::kernels::active_kernel();
    match grouping {
        Grouping::PerTensor => {
            let p = QuantParams::calibrate_minmax(a, bits);
            let out = Tensor::from_vec(&[m, n], p.fake_quant_slice(a))?;
            Ok((out, vec![p]))
        }
        Grouping::PerRow => {
            let mut out = t.clone();
            let params = fake_quant_rows_in_place(&mut out, bits)?;
            Ok((out, params))
        }
        Grouping::PerCol => {
            // Columns are strided. A block of them is calibrated by
            // streaming its rows, then quantized through a transposed
            // stack tile, so every read and write of `t` walks a row and
            // the quantize kernel still sees each column contiguously.
            let mut out = vec![0.0f32; m * n];
            let mut params = Vec::with_capacity(n);
            let mut tile = [[0.0f32; FAKE_QUANT_CHUNK]; COL_BLOCK];
            for c0 in (0..n).step_by(COL_BLOCK) {
                let cb = COL_BLOCK.min(n - c0);
                let mut lo = [f32::INFINITY; COL_BLOCK];
                let mut hi = [f32::NEG_INFINITY; COL_BLOCK];
                for r in 0..m {
                    widen_range(&mut lo, &mut hi, &a[r * n + c0..r * n + c0 + cb]);
                }
                params.extend((0..cb).map(|j| QuantParams::from_finite_range(lo[j], hi[j], bits)));
                for r0 in (0..m).step_by(FAKE_QUANT_CHUNK) {
                    let rc = FAKE_QUANT_CHUNK.min(m - r0);
                    for i in 0..rc {
                        let row = &a[(r0 + i) * n + c0..(r0 + i) * n + c0 + cb];
                        for (col, &v) in tile.iter_mut().zip(row) {
                            col[i] = v;
                        }
                    }
                    for (col, p) in tile.iter_mut().zip(&params[c0..c0 + cb]) {
                        p.fake_quant_in_place(&mut col[..rc], kernel);
                    }
                    for i in 0..rc {
                        let row = &mut out[(r0 + i) * n + c0..(r0 + i) * n + c0 + cb];
                        for (o, col) in row.iter_mut().zip(&tile) {
                            *o = col[i];
                        }
                    }
                }
            }
            Ok((Tensor::from_vec(&[m, n], out)?, params))
        }
        Grouping::Block(grid) => {
            let count = grid.block_count(m, n);
            fake_quant_blocks(t, grid, &vec![bits; count])
        }
    }
}

/// Fake-quantizes a rank-2 tensor block-wise with per-block bitwidths.
///
/// This is PARO's mixed-precision attention-map quantization: block `(bi,bj)`
/// (row-major index `bi·grid_cols + bj`) is quantized at
/// `bits_per_block[bi·grid_cols + bj]`; zero-bit blocks dequantize to zero.
///
/// # Errors
///
/// Returns [`QuantError::BitwidthCountMismatch`] if the bitwidth list length
/// differs from the block count, or a tensor error for non-rank-2 input.
pub fn fake_quant_blocks(
    t: &Tensor,
    grid: BlockGrid,
    bits_per_block: &[Bitwidth],
) -> Result<(Tensor, Vec<QuantParams>), QuantError> {
    require_rank2(t)?;
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let (gr, gc) = grid.grid_dims(m, n);
    if bits_per_block.len() != gr * gc {
        return Err(QuantError::BitwidthCountMismatch {
            supplied: bits_per_block.len(),
            blocks: gr * gc,
        });
    }
    // The blocks tile the tensor, so each is gathered from the copy into
    // one reused buffer, fake-quantized there and written back over
    // itself.
    let mut out = t.clone();
    let a = out.as_mut_slice();
    let kernel = crate::kernels::active_kernel();
    let mut block = Vec::with_capacity(grid.block_rows * grid.block_cols);
    let mut params = Vec::with_capacity(gr * gc);
    for bi in 0..gr {
        for bj in 0..gc {
            let (r0, c0, h, w) = grid.block_bounds(bi, bj, m, n);
            block.clear();
            for r in r0..r0 + h {
                block.extend_from_slice(&a[r * n + c0..r * n + c0 + w]);
            }
            let p = QuantParams::calibrate_minmax(&block, bits_per_block[bi * gc + bj]);
            p.fake_quant_in_place(&mut block, kernel);
            for (r, row) in (r0..r0 + h).zip(block.chunks_exact(w)) {
                a[r * n + c0..r * n + c0 + w].copy_from_slice(row);
            }
            params.push(p);
        }
    }
    Ok((out, params))
}

/// Computes [`GroupStats`] for every block of a rank-2 tensor under a grid,
/// in row-major block order.
///
/// # Errors
///
/// Returns a tensor error for non-rank-2 input.
pub fn group_stats(t: &Tensor, grid: BlockGrid) -> Result<Vec<GroupStats>, QuantError> {
    require_rank2(t)?;
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let (gr, gc) = grid.grid_dims(m, n);
    let mut stats = Vec::with_capacity(gr * gc);
    for bi in 0..gr {
        for bj in 0..gc {
            let (r0, c0, h, w) = grid.block_bounds(bi, bj, m, n);
            let block = t.block(r0, c0, h, w)?;
            stats.push(GroupStats {
                mean: block.mean(),
                abs_mean: block.abs_mean(),
                variance: block.variance(),
                abs_max: block
                    .as_slice()
                    .iter()
                    .fold(0.0f32, |acc, &x| acc.max(x.abs())),
                len: block.len(),
            });
        }
    }
    Ok(stats)
}

fn require_rank2(t: &Tensor) -> Result<(), QuantError> {
    if t.rank() != 2 {
        return Err(QuantError::Tensor(paro_tensor::TensorError::RankMismatch {
            expected: 2,
            actual: t.rank(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_tensor::metrics;

    fn patterned(m: usize, n: usize) -> Tensor {
        Tensor::from_fn(&[m, n], |i| {
            // Diagonal outliers on a near-zero background, like a softmax
            // attention map with local aggregation.
            if i[0] == i[1] {
                0.9
            } else {
                0.001 * ((i[0] * 7 + i[1] * 3) % 10) as f32
            }
        })
    }

    #[test]
    fn block_grid_validation() {
        assert!(BlockGrid::new(0, 4).is_err());
        assert!(BlockGrid::new(4, 0).is_err());
        assert!(BlockGrid::square(0).is_err());
        assert!(BlockGrid::square(8).is_ok());
    }

    #[test]
    fn block_grid_dims_and_bounds() {
        let g = BlockGrid::new(4, 3).unwrap();
        assert_eq!(g.grid_dims(10, 9), (3, 3));
        assert_eq!(g.block_count(10, 9), 9);
        assert_eq!(g.block_bounds(2, 2, 10, 9), (8, 6, 2, 3));
        assert_eq!(g.block_bounds(0, 0, 10, 9), (0, 0, 4, 3));
    }

    #[test]
    fn per_tensor_vs_per_row_param_counts() {
        let t = patterned(8, 8);
        let (_, p) = fake_quant_2d(&t, Grouping::PerTensor, Bitwidth::B8).unwrap();
        assert_eq!(p.len(), 1);
        let (_, p) = fake_quant_2d(&t, Grouping::PerRow, Bitwidth::B8).unwrap();
        assert_eq!(p.len(), 8);
        let (_, p) = fake_quant_2d(&t, Grouping::PerCol, Bitwidth::B8).unwrap();
        assert_eq!(p.len(), 8);
        let (_, p) = fake_quant_2d(
            &t,
            Grouping::Block(BlockGrid::square(4).unwrap()),
            Bitwidth::B8,
        )
        .unwrap();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn blockwise_beats_rowwise_on_diagonal_pattern() {
        // The paper's key claim (Sec. III-A): on diagonal-patterned maps,
        // row-wise min-max quantization is crushed by outliers while
        // block-wise grouping isolates them.
        let t = patterned(32, 32);
        let (row_q, _) = fake_quant_2d(&t, Grouping::PerRow, Bitwidth::B4).unwrap();
        let (blk_q, _) = fake_quant_2d(
            &t,
            Grouping::Block(BlockGrid::square(8).unwrap()),
            Bitwidth::B4,
        )
        .unwrap();
        let row_err = metrics::relative_l2(&t, &row_q).unwrap();
        let blk_err = metrics::relative_l2(&t, &blk_q).unwrap();
        // Row groups contain the 0.9 outlier plus tiny values -> big error
        // on the tiny values; 8x8 diagonal blocks contain the outlier only
        // in diagonal blocks.
        assert!(
            blk_err < row_err,
            "block err {blk_err} should beat row err {row_err}"
        );
    }

    #[test]
    fn mixed_precision_blocks_respect_bitwidths() {
        let t = patterned(8, 8);
        let grid = BlockGrid::square(4).unwrap();
        let bits = vec![Bitwidth::B8, Bitwidth::B0, Bitwidth::B0, Bitwidth::B8];
        let (q, params) = fake_quant_blocks(&t, grid, &bits).unwrap();
        // Off-diagonal blocks (indices 1, 2) are zeroed.
        for r in 0..4 {
            for c in 4..8 {
                assert_eq!(q.at(&[r, c]), 0.0);
                assert_eq!(q.at(&[c, r]), 0.0);
            }
        }
        // Diagonal blocks keep their outliers.
        assert!(q.at(&[0, 0]) > 0.5);
        assert!(q.at(&[7, 7]) > 0.5);
        assert_eq!(params.len(), 4);
        assert_eq!(params[1].bits(), Bitwidth::B0);
    }

    #[test]
    fn bitwidth_count_mismatch_rejected() {
        let t = patterned(8, 8);
        let grid = BlockGrid::square(4).unwrap();
        assert!(matches!(
            fake_quant_blocks(&t, grid, &[Bitwidth::B8]),
            Err(QuantError::BitwidthCountMismatch { .. })
        ));
    }

    #[test]
    fn non_divisible_blocks_cover_everything() {
        let t = patterned(10, 7);
        let grid = BlockGrid::new(4, 3).unwrap();
        let count = grid.block_count(10, 7);
        let (q, params) = fake_quant_blocks(&t, grid, &vec![Bitwidth::B8; count]).unwrap();
        assert_eq!(params.len(), count);
        // 8-bit block quantization should be accurate everywhere, including
        // edge blocks.
        assert!(metrics::relative_l2(&t, &q).unwrap() < 0.05);
    }

    #[test]
    fn group_stats_shapes_and_values() {
        let t = Tensor::from_fn(&[4, 4], |i| if i[0] < 2 && i[1] < 2 { 1.0 } else { 0.0 });
        let stats = group_stats(&t, BlockGrid::square(2).unwrap()).unwrap();
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].mean, 1.0);
        assert_eq!(stats[0].variance, 0.0);
        assert_eq!(stats[3].abs_max, 0.0);
        assert_eq!(stats[0].len, 4);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let v = Tensor::zeros(&[4]);
        assert!(fake_quant_2d(&v, Grouping::PerRow, Bitwidth::B8).is_err());
        assert!(group_stats(&v, BlockGrid::square(2).unwrap()).is_err());
    }

    #[test]
    fn percol_matches_transposed_perrow() {
        let t = patterned(6, 9);
        let (qc, _) = fake_quant_2d(&t, Grouping::PerCol, Bitwidth::B4).unwrap();
        let tt = t.transpose2d().unwrap();
        let (qr, _) = fake_quant_2d(&tt, Grouping::PerRow, Bitwidth::B4).unwrap();
        assert_eq!(qc, qr.transpose2d().unwrap());
    }

    /// In place, each row becomes its own min-max fake quantization,
    /// written into the tensor's own buffer.
    #[test]
    fn rows_quantize_in_their_own_buffer() {
        let (m, n) = (5, 7);
        let t = patterned(m, n);
        let mut q = t.clone();
        let buffer = q.as_slice().as_ptr();
        let params = fake_quant_rows_in_place(&mut q, Bitwidth::B4).unwrap();
        assert_eq!(q.as_slice().as_ptr(), buffer);
        assert_eq!(params.len(), m);
        for (r, p) in params.iter().enumerate() {
            let row = &t.as_slice()[r * n..(r + 1) * n];
            assert_eq!(*p, QuantParams::calibrate_minmax(row, Bitwidth::B4));
            for (y, &x) in q.as_slice()[r * n..(r + 1) * n].iter().zip(row) {
                assert_eq!(y.to_bits(), p.fake_quant(x).to_bits());
            }
        }
        let mut v = Tensor::zeros(&[4]);
        assert!(fake_quant_rows_in_place(&mut v, Bitwidth::B8).is_err());
    }
}
