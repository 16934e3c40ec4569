//! Packed-integer block-sparse `AttnV` execution: the deployment path's
//! compute kernels.
//!
//! [`MixedPrecisionMap`] is the *storage* model — packed 2/4/8-bit codes
//! per block, nothing for 0-bit blocks. This module adds the matching
//! *compute* model: a block body that unpacks a block's codes from the
//! packed bytes, multiplies them with per-column-quantized `V` codes in
//! exact integer sums, and applies the FP16-style scale product per block
//! and column — exactly the PE-array / vector-unit split of
//! [`crate::quantized_gemm_i32`] + [`crate::dequantize_gemm`], so the two
//! paths are bit-identical on the same codes whenever the reference's
//! i32 sums do not overflow. 0-bit blocks are bypassed
//! without touching their bytes (the dispatcher bypass), with MAC
//! accounting matching the float-side block-sparse reference.

use crate::block_row::{AttnVOperand, BlockRef};
use crate::kernels::{self, BlockScratch, Kernel};
use crate::mixed_map::PARAM_BYTES_PER_BLOCK;
use crate::{Bitwidth, MixedPrecisionMap, PackedCodes, QuantError, QuantParams};
use paro_tensor::{Tensor, TensorError};

/// A rank-2 tensor quantized per column ("per-dimension", the granularity
/// the paper uses for `V`), with the integer codes kept for compute.
///
/// [`PerColCodes::dequantize`] is bit-identical to
/// `fake_quant_2d(t, Grouping::PerCol, bits).0` — the codes are the real
/// integer form of the float path's fake-quantized tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct PerColCodes {
    codes: Vec<u32>,
    rows: usize,
    cols: usize,
    bits: Bitwidth,
    params: Vec<QuantParams>,
}

impl PerColCodes {
    /// Quantizes a rank-2 tensor per column at the given bitwidth.
    ///
    /// # Errors
    ///
    /// Returns a tensor rank error if `t` is not rank 2.
    pub fn quantize(t: &Tensor, bits: Bitwidth) -> Result<Self, QuantError> {
        if t.rank() != 2 {
            return Err(QuantError::Tensor(TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            }));
        }
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        let a = t.as_slice();
        let mut params = Vec::with_capacity(cols);
        let mut codes = vec![0u32; rows * cols];
        let mut col = vec![0.0f32; rows];
        for c in 0..cols {
            for r in 0..rows {
                col[r] = a[r * cols + c];
            }
            let p = QuantParams::calibrate_minmax(&col, bits);
            for r in 0..rows {
                codes[r * cols + c] = p.quantize(col[r]);
            }
            params.push(p);
        }
        Ok(PerColCodes {
            codes,
            rows,
            cols,
            bits,
            params,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage bitwidth.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Per-column quantization parameters.
    pub fn params(&self) -> &[QuantParams] {
        &self.params
    }

    /// Row-major codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Packed storage footprint: per-column packed code payloads plus one
    /// parameter record per column.
    pub fn payload_bytes(&self) -> usize {
        self.cols * (PackedCodes::bytes_for(self.rows, self.bits) + PARAM_BYTES_PER_BLOCK)
    }

    /// Dequantizes back to a float tensor, bit-identical to the per-column
    /// fake-quantized view.
    pub fn dequantize(&self) -> Tensor {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[r * self.cols + c] = self.params[c].dequantize(self.codes[r * self.cols + c]);
            }
        }
        Tensor::from_vec(&[self.rows, self.cols], out).expect("dims match codes by construction")
    }
}

/// Result of one packed-integer block-sparse `map x V`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedAttnV {
    /// The attention output `[n, d]`.
    pub output: Tensor,
    /// MACs actually executed (every element of every non-0-bit block,
    /// matching the float-side block-sparse accounting).
    pub executed_macs: u64,
    /// MACs a dense computation would have executed.
    pub dense_macs: u64,
    /// Packed map bytes the kernels actually read: code payload plus
    /// parameter bytes of every non-bypassed block.
    pub packed_map_bytes: u64,
    /// Number of 0-bit blocks bypassed without touching their bytes.
    pub skipped_blocks: usize,
    /// Stable name of the micro-kernel that executed the MACs (see
    /// [`paro_tensor::kernel::Kernel::as_str`]).
    pub kernel: &'static str,
}

impl PackedAttnV {
    /// Fraction of dense MACs skipped.
    pub fn skipped_fraction(&self) -> f64 {
        if self.dense_macs == 0 {
            return 0.0;
        }
        1.0 - self.executed_macs as f64 / self.dense_macs as f64
    }
}

/// Computes `map x V` directly on packed integer codes, skipping 0-bit
/// blocks.
///
/// Per block `b` (scale `s_b`, zero point `z_b`) and output column `c`
/// (V scale `s_c`, zero point `z_c`), the contribution to `out[r][c]` is
/// `(Σ_k (m[r][k] − z_b)·(v[k][c] − z_c)) · (s_b·s_c)` — exact integer
/// accumulation then one f32 scale application, the expression
/// [`crate::quantized_gemm_i32`] + [`crate::dequantize_gemm`] compute, so
/// on identical codes whose sums fit i32 the two paths agree bit for
/// bit. Each block row
/// runs through [`AttnVOperand::accumulate`]'s steps, the same ones the
/// fused attention executor streams.
///
/// # Errors
///
/// Returns a matmul dimension mismatch if `v.rows()` differs from the
/// map's column count, a packed-length error for a malformed stored
/// block, or [`QuantError::Transient`] when the `quant.pack_attn_v`
/// failpoint is armed (chaos builds only).
pub fn packed_attn_v(map: &MixedPrecisionMap, v: &PerColCodes) -> Result<PackedAttnV, QuantError> {
    packed_attn_v_with(map, v, kernels::active_kernel())
}

/// [`packed_attn_v`] on an explicit [`Kernel`] instead of the dispatched
/// one. Outputs are bit-identical across kernels; the equivalence tests
/// and in-process benchmark comparisons use this to pin SIMD paths
/// against the scalar reference.
///
/// # Errors
///
/// Same as [`packed_attn_v`].
pub fn packed_attn_v_with(
    map: &MixedPrecisionMap,
    v: &PerColCodes,
    kernel: Kernel,
) -> Result<PackedAttnV, QuantError> {
    let operand = AttnVOperand::new(v, kernel)?;
    let (m, n) = map.shape();
    if v.rows() != n {
        return Err(QuantError::Tensor(TensorError::MatmulDimMismatch {
            left: vec![m, n],
            right: vec![v.rows(), v.cols()],
        }));
    }
    let d = v.cols();
    let grid = map.grid();
    let (gr, gc) = grid.grid_dims(m, n);
    let mut out = vec![0.0f32; m * d];
    let mut scratch = BlockScratch::default();
    for bi in 0..gr {
        let (r0, _, h, _) = grid.block_bounds(bi, 0, m, n);
        let blocks = (0..gc).map(|bj| {
            let idx = bi * gc + bj;
            let (_, c0, _, w) = grid.block_bounds(bi, bj, m, n);
            let codes = map.block_codes(idx);
            BlockRef {
                c0,
                w,
                elems: codes.len(),
                bits: map.block_bits(idx),
                params: map.block_params(idx),
                bytes: codes.as_bytes(),
            }
        });
        operand.accumulate_blocks(blocks, h, &mut scratch, &mut out[r0 * d..(r0 + h) * d])?;
    }
    let mut executed = 0u64;
    let mut packed_bytes = 0u64;
    let mut skipped = 0usize;
    for idx in 0..map.block_count() {
        if map.block_bits(idx) == Bitwidth::B0 {
            skipped += 1;
        } else {
            executed += (map.block_codes(idx).len() * d) as u64;
            packed_bytes += map.block_payload_bytes(idx) as u64;
        }
    }
    Ok(PackedAttnV {
        output: Tensor::from_vec(&[m, d], out)?,
        executed_macs: executed,
        dense_macs: (m * n * d) as u64,
        packed_map_bytes: packed_bytes,
        skipped_blocks: skipped,
        kernel: kernel.as_str(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dequantize_gemm, quantized_gemm_i32, BlockGrid, Grouping, QuantizedGemmOperand};
    use paro_tensor::rng::seeded;
    use paro_tensor::{metrics, Tensor};
    use rand::distributions::Uniform;

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
    fn percol_codes_dequantize_matches_fake_quant() {
        let v = Tensor::random(&[13, 7], &Uniform::new(-2.0f32, 2.0), &mut seeded(5));
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let q = PerColCodes::quantize(&v, bits).unwrap();
            let (fq, params) = crate::fake_quant_2d(&v, Grouping::PerCol, bits).unwrap();
            assert_eq!(q.dequantize(), fq, "bits={bits}");
            assert_eq!(q.params(), &params[..]);
        }
    }

    #[test]
    fn percol_payload_counts_packed_bytes() {
        let v = Tensor::zeros(&[10, 4]);
        let q = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        // 4 columns x (10 bytes of codes + 4 param bytes).
        assert_eq!(q.payload_bytes(), 4 * 14);
        let q2 = PerColCodes::quantize(&v, Bitwidth::B2).unwrap();
        // 10 elements x 2 bits = 3 bytes per column.
        assert_eq!(q2.payload_bytes(), 4 * 7);
    }

    #[test]
    fn single_block_bit_identical_to_reference_gemm() {
        // One map block spanning the whole key range, checked per V column
        // against quantized_gemm_i32 + dequantize_gemm built from the SAME
        // codes: i32 accumulators and f32 outputs must agree bit for bit.
        let n = 12;
        let d = 5;
        let map = softmax_like(n);
        let v = Tensor::random(&[n, d], &Uniform::new(-1.5f32, 1.5), &mut seeded(9));
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let grid = BlockGrid::square(n).unwrap();
            let packed = MixedPrecisionMap::quantize(&map, grid, &[bits]).unwrap();
            let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
            let got = packed_attn_v(&packed, &vq).unwrap();
            let a_op = QuantizedGemmOperand::from_parts(
                packed.block_codes(0).unpack(),
                n,
                n,
                packed.block_params(0),
            )
            .unwrap();
            for c in 0..d {
                let col_codes: Vec<u32> = (0..n).map(|r| vq.codes()[r * d + c]).collect();
                let b_op =
                    QuantizedGemmOperand::from_parts(col_codes, n, 1, vq.params()[c]).unwrap();
                let acc = quantized_gemm_i32(&a_op, &b_op).unwrap();
                let want = dequantize_gemm(&acc, &a_op, &b_op).unwrap();
                for r in 0..n {
                    let g = got.output.at(&[r, c]);
                    let w = want.at(&[r, 0]);
                    assert_eq!(g.to_bits(), w.to_bits(), "bits={bits} r={r} c={c}");
                }
            }
        }
    }

    #[test]
    fn matches_float_sparse_path_and_accounts_macs() {
        let n = 18; // not divisible by the block edge: clipped edge blocks
        let d = 6;
        let map = softmax_like(n);
        let grid = BlockGrid::square(4).unwrap();
        let bits = mixed_bits(grid.block_count(n, n));
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        let v = Tensor::random(&[n, d], &Uniform::new(-1.0f32, 1.0), &mut seeded(3));
        let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        let got = packed_attn_v(&packed, &vq).unwrap();
        // Float reference: dense matmul of the dequantized operands.
        let dense = packed
            .dequantize()
            .unwrap()
            .matmul(&vq.dequantize())
            .unwrap();
        assert!(
            metrics::relative_l2(&dense, &got.output).unwrap() < 1e-5,
            "packed-int output must match the fake-quant float path"
        );
        // MAC accounting: every non-B0 block contributes h*w*d.
        let (gr, gc) = grid.grid_dims(n, n);
        let mut want_exec = 0u64;
        let mut want_bytes = 0u64;
        let mut want_skipped = 0usize;
        for bi in 0..gr {
            for bj in 0..gc {
                let idx = bi * gc + bj;
                if packed.block_bits(idx) == Bitwidth::B0 {
                    want_skipped += 1;
                    continue;
                }
                let (_, _, h, w) = grid.block_bounds(bi, bj, n, n);
                want_exec += (h * w * d) as u64;
                want_bytes += packed.block_payload_bytes(idx) as u64;
            }
        }
        assert_eq!(got.executed_macs, want_exec);
        assert_eq!(got.dense_macs, (n * n * d) as u64);
        assert_eq!(got.packed_map_bytes, want_bytes);
        assert_eq!(got.skipped_blocks, want_skipped);
        assert!(got.skipped_fraction() > 0.0);
    }

    #[test]
    fn all_b0_map_yields_exact_zero_output_for_free() {
        let n = 8;
        let grid = BlockGrid::square(4).unwrap();
        let bits = vec![Bitwidth::B0; grid.block_count(n, n)];
        let packed = MixedPrecisionMap::quantize(&softmax_like(n), grid, &bits).unwrap();
        let vq = PerColCodes::quantize(&Tensor::full(&[n, 3], 1.0), Bitwidth::B8).unwrap();
        let got = packed_attn_v(&packed, &vq).unwrap();
        assert!(got.output.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(got.executed_macs, 0);
        assert_eq!(got.packed_map_bytes, 0);
        assert_eq!(got.skipped_blocks, 4);
        assert_eq!(got.skipped_fraction(), 1.0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let packed = MixedPrecisionMap::quantize(
            &softmax_like(8),
            BlockGrid::square(4).unwrap(),
            &[Bitwidth::B8; 4],
        )
        .unwrap();
        let vq = PerColCodes::quantize(&Tensor::zeros(&[7, 3]), Bitwidth::B8).unwrap();
        assert!(packed_attn_v(&packed, &vq).is_err());
        let rank1 = Tensor::zeros(&[4]);
        assert!(PerColCodes::quantize(&rank1, Bitwidth::B8).is_err());
    }

    #[test]
    fn block_gemm_validates_lengths() {
        // `V` of ones (centered 1, scale 1) and one 2×2 block of codes
        // [1, 2; 3, 0] at zero point 0: `accumulate_blocks`, the entry of
        // the block GEMM, checks each block against the operand and the
        // output before any body runs.
        let vq = PerColCodes::quantize(&Tensor::full(&[2, 2], 1.0), Bitwidth::B8).unwrap();
        let operand = AttnVOperand::new(&vq, Kernel::Scalar).unwrap();
        let codes = PackedCodes::pack(&[1, 2, 3, 0], Bitwidth::B4).unwrap();
        let block = |c0, elems, bytes| BlockRef {
            c0,
            w: 2,
            elems,
            bits: Bitwidth::B4,
            params: QuantParams::new(1.0, 0, Bitwidth::B4),
            bytes,
        };
        let bytes = codes.as_bytes();
        let mut scratch = BlockScratch::default();
        let mut run = |b: BlockRef, h: usize, out: &mut [f32]| {
            operand.accumulate_blocks([b], h, &mut scratch, out)
        };
        // Wrong code count for the claimed block shape.
        assert!(run(block(0, 4, bytes), 3, &mut [0.0; 6]).is_err());
        // A payload shorter than its codes.
        assert!(run(block(0, 4, &bytes[..1]), 2, &mut [0.0; 4]).is_err());
        // Keys past `V`'s rows.
        assert!(run(block(1, 4, bytes), 2, &mut [0.0; 4]).is_err());
        // Wrong output length.
        assert!(run(block(0, 4, bytes), 2, &mut [0.0; 3]).is_err());
        // Correct shapes pass.
        let mut out = [0.0f32; 4];
        assert!(run(block(0, 4, bytes), 2, &mut out).is_ok());
        assert_eq!(out, [3.0; 4]);
    }

    #[test]
    fn tile_boundaries_are_seamless() {
        // One block of 81 keys per row: 41 code pairs, the last padded
        // with a zero code.
        let w = 81;
        let h = 3;
        let map = Tensor::from_fn(&[h, w], |i| ((i[0] * w + i[1]) % 13) as f32 * 0.05);
        let grid = BlockGrid::new(h, w).unwrap();
        let packed = MixedPrecisionMap::quantize(&map, grid, &[Bitwidth::B2]).unwrap();
        let v = Tensor::from_fn(&[w, 2], |i| ((i[0] + i[1]) % 5) as f32 - 2.0);
        let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        let got = packed_attn_v(&packed, &vq).unwrap();
        let dense = packed
            .dequantize()
            .unwrap()
            .matmul(&vq.dequantize())
            .unwrap();
        assert!(metrics::relative_l2(&dense, &got.output).unwrap() < 1e-5);
    }
}
