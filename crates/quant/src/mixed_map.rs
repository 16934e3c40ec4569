//! Packed storage of a mixed-precision attention map.
//!
//! The accelerator stores each attention-map block at its allocated
//! bitwidth: packed integer codes plus one FP16-style `(scale, zero_point)`
//! pair per block, and nothing at all for 0-bit blocks. This type is that
//! storage format in software: it quantizes a map block-wise into packed
//! codes, reports the exact byte footprint (the number the paper's
//! "average 4.80 bits" compression claim is about), and dequantizes back
//! for computation.

use crate::{Bitwidth, BlockGrid, PackedCodes, PackedRow, QuantError, QuantParams};
use paro_tensor::kernel::{active_kernel, Kernel};
use paro_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Bytes charged per stored block for quantization parameters (FP16 scale
/// + INT8 zero point, padded).
pub const PARAM_BYTES_PER_BLOCK: usize = 4;

/// A block-quantized attention map in packed storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixedPrecisionMap {
    rows: usize,
    cols: usize,
    grid: BlockGrid,
    blocks: Vec<StoredBlock>,
}

/// One stored block: packed codes + parameters (absent for 0-bit blocks).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredBlock {
    bits: Bitwidth,
    params: QuantParams,
    codes: PackedCodes,
}

impl MixedPrecisionMap {
    /// Quantizes a rank-2 map block-wise at the given per-block bitwidths
    /// (row-major block order) into packed storage.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BitwidthCountMismatch`] if the bitwidth list
    /// does not match the block count, and propagates tensor errors.
    pub fn quantize(
        map: &Tensor,
        grid: BlockGrid,
        bits_per_block: &[Bitwidth],
    ) -> Result<Self, QuantError> {
        Self::quantize_with(map, grid, bits_per_block, active_kernel())
    }

    /// [`MixedPrecisionMap::quantize`] on an explicit [`Kernel`]
    /// (forced-kernel testing). The stored blocks are bit-identical
    /// across kernels.
    ///
    /// # Errors
    ///
    /// Same as [`MixedPrecisionMap::quantize`].
    pub fn quantize_with(
        map: &Tensor,
        grid: BlockGrid,
        bits_per_block: &[Bitwidth],
        kernel: Kernel,
    ) -> Result<Self, QuantError> {
        if map.rank() != 2 {
            return Err(QuantError::Tensor(paro_tensor::TensorError::RankMismatch {
                expected: 2,
                actual: map.rank(),
            }));
        }
        let (rows, cols) = (map.shape()[0], map.shape()[1]);
        let (gr, gc) = grid.grid_dims(rows, cols);
        if bits_per_block.len() != gr * gc {
            return Err(QuantError::BitwidthCountMismatch {
                supplied: bits_per_block.len(),
                blocks: gr * gc,
            });
        }
        let data = map.as_slice();
        let mut blocks = Vec::with_capacity(gr * gc);
        // One block row at a time through the fused executor's own
        // per-block step; its scratch is reused across rows.
        let mut row = PackedRow::new();
        for bi in 0..gr {
            let (r0, _, h, _) = grid.block_bounds(bi, 0, rows, cols);
            row.quantize(
                &data[r0 * cols..(r0 + h) * cols],
                cols,
                grid,
                &bits_per_block[bi * gc..(bi + 1) * gc],
                kernel,
            )?;
            blocks.extend(
                row.stored_blocks()
                    .map(|(bits, params, codes)| StoredBlock {
                        bits,
                        params,
                        codes,
                    }),
            );
        }
        Ok(MixedPrecisionMap {
            rows,
            cols,
            grid,
            blocks,
        })
    }

    /// Map dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The block grid.
    pub fn grid(&self) -> BlockGrid {
        self.grid
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The bitwidth of block `i` (row-major).
    pub fn block_bits(&self, i: usize) -> Bitwidth {
        self.blocks[i].bits
    }

    /// The quantization parameters of block `i` (row-major).
    pub fn block_params(&self, i: usize) -> QuantParams {
        self.blocks[i].params
    }

    /// The packed codes of block `i` (row-major), stored row-major within
    /// the block.
    pub fn block_codes(&self, i: usize) -> &PackedCodes {
        &self.blocks[i].codes
    }

    /// The bytes the execution path actually reads for block `i`: packed
    /// code payload plus parameter bytes, or 0 for a bypassed 0-bit block.
    pub fn block_payload_bytes(&self, i: usize) -> usize {
        let b = &self.blocks[i];
        if b.bits == Bitwidth::B0 {
            0
        } else {
            b.codes.byte_len() + PARAM_BYTES_PER_BLOCK
        }
    }

    /// Exact storage footprint in bytes: packed code payloads plus
    /// parameter bytes for every non-skipped block.
    pub fn footprint_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                if b.bits == Bitwidth::B0 {
                    0
                } else {
                    b.codes.byte_len() + PARAM_BYTES_PER_BLOCK
                }
            })
            .sum()
    }

    /// Footprint of the same map stored uniformly at `bits`.
    pub fn uniform_footprint_bytes(&self, bits: Bitwidth) -> usize {
        if bits == Bitwidth::B0 {
            return 0;
        }
        self.blocks
            .iter()
            .map(|b| PackedCodes::bytes_for(b.codes.len(), bits) + PARAM_BYTES_PER_BLOCK)
            .sum()
    }

    /// Element-weighted average stored bits per map element.
    pub fn effective_bits(&self) -> f32 {
        let mut bit_sum = 0u64;
        let mut elems = 0u64;
        for b in &self.blocks {
            bit_sum += b.bits.bits() as u64 * b.codes.len() as u64;
            elems += b.codes.len() as u64;
        }
        if elems == 0 {
            0.0
        } else {
            bit_sum as f32 / elems as f32
        }
    }

    /// Dequantizes the full map back to a dense tensor (0-bit blocks read
    /// as zeros).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors (cannot fail for a well-formed map).
    pub fn dequantize(&self) -> Result<Tensor, QuantError> {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        let (gr, gc) = self.grid.grid_dims(self.rows, self.cols);
        for bi in 0..gr {
            for bj in 0..gc {
                let (r0, c0, h, w) = self.grid.block_bounds(bi, bj, self.rows, self.cols);
                let stored = &self.blocks[bi * gc + bj];
                if stored.bits == Bitwidth::B0 {
                    continue;
                }
                let values: Vec<f32> = stored
                    .codes
                    .unpack()
                    .into_iter()
                    .map(|c| stored.params.dequantize(c))
                    .collect();
                let block = Tensor::from_vec(&[h, w], values)?;
                out.set_block(r0, c0, &block)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_quant_blocks;
    use paro_tensor::metrics;

    fn softmax_like(n: usize) -> Tensor {
        Tensor::from_fn(&[n, n], |i| {
            if i[0] / 4 == i[1] / 4 {
                0.2 + 0.01 * ((i[0] + i[1]) % 5) as f32
            } else {
                0.002 + 0.0005 * ((i[0] * 3 + i[1]) % 7) as f32
            }
        })
    }

    fn mixed_bits(n_blocks: usize) -> Vec<Bitwidth> {
        (0..n_blocks)
            .map(|i| match i % 4 {
                0 => Bitwidth::B8,
                1 => Bitwidth::B4,
                2 => Bitwidth::B2,
                _ => Bitwidth::B0,
            })
            .collect()
    }

    #[test]
    fn packed_dequantize_matches_fake_quant() {
        // The packed storage path must be bit-identical to the float-side
        // fake quantization.
        let map = softmax_like(16);
        let grid = BlockGrid::square(4).unwrap();
        let bits = mixed_bits(grid.block_count(16, 16));
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        let (fq, _) = fake_quant_blocks(&map, grid, &bits).unwrap();
        assert_eq!(packed.dequantize().unwrap(), fq);
    }

    #[test]
    fn footprint_tracks_effective_bits() {
        let map = softmax_like(32);
        let grid = BlockGrid::square(4).unwrap();
        let count = grid.block_count(32, 32);
        let bits = mixed_bits(count);
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        // (8+4+2+0)/4 = 3.5 effective bits.
        assert!((packed.effective_bits() - 3.5).abs() < 0.01);
        let payload = packed.footprint_bytes() as f32;
        let ideal = 32.0 * 32.0 * 3.5 / 8.0;
        // Payload = codes + per-block params; with tiny 4x4 blocks the
        // parameter overhead is large (4 bytes per 16 elements), so allow
        // up to 50% above the pure-code ideal.
        assert!(
            payload >= ideal && payload < ideal * 1.5,
            "payload {payload} vs ideal {ideal}"
        );
    }

    #[test]
    fn compression_vs_uniform_int8_and_fp16() {
        // The paper's 4.80-bit claim: vs INT8 storage the mixed map is
        // ~8/4.8 = 1.67x smaller (ignoring params).
        let map = softmax_like(64);
        let grid = BlockGrid::square(8).unwrap();
        let count = grid.block_count(64, 64);
        // ~10% B0, 20% B2, 30% B4, 40% B8 -> ~4.8 bits nominal.
        let bits: Vec<Bitwidth> = (0..count)
            .map(|i| {
                let frac = i as f32 / count as f32;
                if frac < 0.10 {
                    Bitwidth::B0
                } else if frac < 0.30 {
                    Bitwidth::B2
                } else if frac < 0.60 {
                    Bitwidth::B4
                } else {
                    Bitwidth::B8
                }
            })
            .collect();
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        assert!(
            (packed.effective_bits() - 4.8).abs() < 0.2,
            "effective bits {}",
            packed.effective_bits()
        );
        let int8 = packed.uniform_footprint_bytes(Bitwidth::B8);
        let ratio = int8 as f32 / packed.footprint_bytes() as f32;
        assert!(
            (1.4..2.0).contains(&ratio),
            "compression vs INT8 {ratio} should be ~1.67x"
        );
    }

    #[test]
    fn zero_bit_blocks_cost_nothing() {
        let map = softmax_like(8);
        let grid = BlockGrid::square(4).unwrap();
        let bits = vec![Bitwidth::B0; grid.block_count(8, 8)];
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        assert_eq!(packed.footprint_bytes(), 0);
        assert!(packed
            .dequantize()
            .unwrap()
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn quality_preserved_through_packing() {
        let map = softmax_like(32);
        let grid = BlockGrid::square(4).unwrap();
        let bits = vec![Bitwidth::B8; grid.block_count(32, 32)];
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        let back = packed.dequantize().unwrap();
        assert!(metrics::relative_l2(&map, &back).unwrap() < 0.02);
    }

    #[test]
    fn validation() {
        let map = softmax_like(8);
        let grid = BlockGrid::square(4).unwrap();
        assert!(matches!(
            MixedPrecisionMap::quantize(&map, grid, &[Bitwidth::B8]),
            Err(QuantError::BitwidthCountMismatch { .. })
        ));
        let v = Tensor::zeros(&[4]);
        assert!(MixedPrecisionMap::quantize(&v, grid, &[]).is_err());
    }

    #[test]
    fn accessors() {
        let map = softmax_like(8);
        let grid = BlockGrid::square(4).unwrap();
        let bits = mixed_bits(grid.block_count(8, 8));
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        assert_eq!(packed.shape(), (8, 8));
        assert_eq!(packed.block_count(), 4);
        assert_eq!(packed.block_bits(0), Bitwidth::B8);
        assert_eq!(packed.block_bits(3), Bitwidth::B0);
    }
}
