//! Property-based equivalence tests of the packed-integer execution path.
//!
//! For random maps, allocations (including non-divisible block edges and
//! fully-bypassed block rows) and `V` tensors, the packed-int kernels,
//! the reference integer GEMM (`quantized_gemm_i32` + `dequantize_gemm`)
//! and the fake-quant f32 path must agree: bit-for-bit on integer codes
//! and against the reference GEMM, within float tolerance against the
//! float path.

use paro_core::sparse::sparse_attn_v;
use paro_quant::{
    dequantize_gemm, fake_quant_2d, fake_quant_blocks, packed_attn_v, quantized_gemm_i32, Bitwidth,
    BlockGrid, Grouping, MixedPrecisionMap, PerColCodes, QuantizedGemmOperand,
};
use paro_tensor::Tensor;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn unit_f32(state: &mut u64) -> f32 {
    (lcg(state) % 10_000) as f32 / 10_000.0
}

/// Random per-block bitwidths; when the grid has more than one block row,
/// the entire first block row is forced to B0 (a fully-bypassed row).
fn random_bits(gr: usize, gc: usize, state: &mut u64) -> Vec<Bitwidth> {
    (0..gr * gc)
        .map(|i| {
            if gr > 1 && i < gc {
                Bitwidth::B0
            } else {
                match lcg(state) % 4 {
                    0 => Bitwidth::B0,
                    1 => Bitwidth::B2,
                    2 => Bitwidth::B4,
                    _ => Bitwidth::B8,
                }
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn packed_int_path_matches_fake_quant_and_reference_gemm(
        n in 2usize..20,
        d in 1usize..6,
        edge in 1usize..7,
        seed in 0u64..200,
    ) {
        let mut s = seed.wrapping_add(0x9e3779b9);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let v = Tensor::from_fn(&[n, d], |_| unit_f32(&mut s) * 4.0 - 2.0);
        let grid = BlockGrid::square(edge).unwrap();
        let (gr, gc) = grid.grid_dims(n, n);
        let bits = random_bits(gr, gc, &mut s);

        // Codes: packed storage dequantizes bit-identically to the
        // fake-quant float path on the same map and allocation.
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        let (fq, _) = fake_quant_blocks(&map, grid, &bits).unwrap();
        prop_assert_eq!(packed.dequantize().unwrap(), fq.clone());

        // V codes: per-column integer quantization is bit-identical to the
        // per-column fake-quant view.
        let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        let (vfq, _) = fake_quant_2d(&v, Grouping::PerCol, Bitwidth::B8).unwrap();
        prop_assert_eq!(vq.dequantize(), vfq.clone());

        // Execution: packed-int AttnV vs the float block-sparse reference —
        // same MAC accounting, outputs within float rounding.
        let got = packed_attn_v(&packed, &vq).unwrap();
        let sparse = sparse_attn_v(&fq, grid, &bits, &vfq).unwrap();
        prop_assert_eq!(got.executed_macs, sparse.executed_macs);
        prop_assert_eq!(got.dense_macs, sparse.dense_macs);
        let b0_blocks = bits.iter().filter(|&&b| b == Bitwidth::B0).count();
        prop_assert_eq!(got.skipped_blocks, b0_blocks);
        for (a, b) in got.output.as_slice().iter().zip(sparse.output.as_slice()) {
            prop_assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "int {} vs float {}", a, b
            );
        }

        // Accumulators: every output equals, bit for bit, the sum over its
        // row's non-B0 blocks in column order of dequantize_gemm ∘
        // quantized_gemm_i32 on identical codes (map block x V column),
        // starting from 0 — the same i32 sums and the same scaling.
        let mut want = vec![0.0f32; n * d];
        for bi in 0..gr {
            for bj in 0..gc {
                let idx = bi * gc + bj;
                if packed.block_bits(idx) == Bitwidth::B0 {
                    continue;
                }
                let (r0, c0, h, w) = grid.block_bounds(bi, bj, n, n);
                let codes = packed.block_codes(idx).unpack();
                let a_op =
                    QuantizedGemmOperand::from_parts(codes, h, w, packed.block_params(idx))
                        .unwrap();
                for c in 0..d {
                    let col: Vec<u32> = (0..w).map(|r| vq.codes()[(c0 + r) * d + c]).collect();
                    let b_op =
                        QuantizedGemmOperand::from_parts(col, w, 1, vq.params()[c]).unwrap();
                    let acc = quantized_gemm_i32(&a_op, &b_op).unwrap();
                    let block = dequantize_gemm(&acc, &a_op, &b_op).unwrap();
                    for lr in 0..h {
                        want[(r0 + lr) * d + c] += block.at(&[lr, 0]);
                    }
                }
            }
        }
        for (i, (a, b)) in got.output.as_slice().iter().zip(&want).enumerate() {
            prop_assert!(a.to_bits() == b.to_bits(), "output {}: {} vs {}", i, a, b);
        }
    }

    #[test]
    fn single_block_f32_output_bit_identical_to_dequantize_gemm(
        n in 2usize..16,
        d in 1usize..5,
        bi in 1usize..4,
        seed in 0u64..200,
    ) {
        // With one block spanning the whole map, the packed path's f32
        // output must match dequantize_gemm(quantized_gemm_i32(...)) bit
        // for bit — same i32 accumulators, same scale expression.
        let bits = Bitwidth::ALL[bi];
        let mut s = seed.wrapping_add(7);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let v = Tensor::from_fn(&[n, d], |_| unit_f32(&mut s) * 2.0 - 1.0);
        let grid = BlockGrid::new(n, n).unwrap();
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
            let col: Vec<u32> = (0..n).map(|r| vq.codes()[r * d + c]).collect();
            let b_op = QuantizedGemmOperand::from_parts(col, n, 1, vq.params()[c]).unwrap();
            let acc = quantized_gemm_i32(&a_op, &b_op).unwrap();
            let want = dequantize_gemm(&acc, &a_op, &b_op).unwrap();
            for r in 0..n {
                prop_assert_eq!(
                    got.output.at(&[r, c]).to_bits(),
                    want.at(&[r, 0]).to_bits()
                );
            }
        }
    }

    #[test]
    fn all_b0_allocation_is_free_and_zero(
        n in 2usize..16,
        d in 1usize..5,
        edge in 1usize..6,
        seed in 0u64..100,
    ) {
        let mut s = seed.wrapping_add(3);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let v = Tensor::from_fn(&[n, d], |_| unit_f32(&mut s));
        let grid = BlockGrid::square(edge).unwrap();
        let count = grid.block_count(n, n);
        let packed = MixedPrecisionMap::quantize(&map, grid, &vec![Bitwidth::B0; count]).unwrap();
        let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        let got = packed_attn_v(&packed, &vq).unwrap();
        prop_assert!(got.output.as_slice().iter().all(|&x| x == 0.0));
        prop_assert_eq!(got.executed_macs, 0);
        prop_assert_eq!(got.packed_map_bytes, 0);
        prop_assert_eq!(got.skipped_blocks, count);
    }
}
