//! Bit-exactness of the AVX2 micro-kernels against the scalar reference.
//!
//! Every dispatchable kernel (`scalar`, and `avx2` where the host
//! supports it) must produce **bit-identical i32 accumulators** — the
//! AVX2 paths reorder additions and multiply zero codes instead of
//! skipping them, both of which are exact in wrapping i32 arithmetic, so
//! any divergence is a bug, not rounding. Test names are prefixed
//! `kernel_` so the CI sanitizer job can select exactly this suite.

use paro_quant::{
    packed_attn_v_with, packed_block_gemm_i32_with, quantized_gemm_i32_with, Bitwidth, BlockGrid,
    MixedPrecisionMap, PackedCodes, PerColCodes, QuantParams, QuantizedGemmOperand,
};
use paro_tensor::kernel::Kernel;
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

/// Runs one packed block GEMM on every supported kernel and asserts the
/// accumulators are bit-equal to the scalar reference.
fn assert_block_gemm_agrees(
    h: usize,
    w: usize,
    d: usize,
    bits: Bitwidth,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut s = seed.wrapping_add(0x51_0000);
    let max = bits.max_code();
    let codes: Vec<u32> = (0..h * w)
        .map(|_| (lcg(&mut s) as u32) % (max + 1))
        .collect();
    let packed = PackedCodes::pack(&codes, bits).unwrap();
    let v: Vec<i32> = (0..w * d)
        .map(|_| (lcg(&mut s) as i32 % 257) - 128)
        .collect();
    let zp = (lcg(&mut s) as i32) % (max as i32 + 1);
    let mut want = vec![0i32; h * d];
    packed_block_gemm_i32_with(&packed, zp, h, w, &v, d, &mut want, Kernel::Scalar).unwrap();
    for kernel in Kernel::supported() {
        let mut got = vec![0i32; h * d];
        packed_block_gemm_i32_with(&packed, zp, h, w, &v, d, &mut got, kernel).unwrap();
        prop_assert!(
            got == want,
            "{} disagrees with scalar at {:?} h={} w={} d={}",
            kernel,
            bits,
            h,
            w,
            d
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes across every bitwidth: ragged tile tails (`w` spans
    /// the 64-code tile boundary) and ragged column tails (`d` spans the
    /// 64/32/8-lane SIMD chunks).
    #[test]
    fn kernel_block_gemm_bit_identical_across_kernels(
        h in 1usize..12,
        w in 1usize..140,
        d in 1usize..80,
        bi in 1usize..4,
        seed in 0u64..1000,
    ) {
        assert_block_gemm_agrees(h, w, d, Bitwidth::ALL[bi], seed)?;
    }

    /// The streaming integer GEMM: `k` spans the 256-element `TILE_K`
    /// boundary so every kernel hits both full and ragged segments.
    #[test]
    fn kernel_quantized_gemm_i32_bit_identical_across_kernels(
        m in 1usize..6,
        k in 1usize..300,
        n in 1usize..16,
        bi in 1usize..4,
        seed in 0u64..1000,
    ) {
        let bits = Bitwidth::ALL[bi];
        let mut s = seed.wrapping_add(0x6e);
        let max = bits.max_code();
        let a_codes: Vec<u32> = (0..m * k).map(|_| (lcg(&mut s) as u32) % (max + 1)).collect();
        let b_codes: Vec<u32> = (0..k * n).map(|_| (lcg(&mut s) as u32) % 256).collect();
        let a = QuantizedGemmOperand::from_parts(
            a_codes, m, k, QuantParams::new(0.5, (max / 2) as i32, bits),
        ).unwrap();
        let b = QuantizedGemmOperand::from_parts(
            b_codes, k, n, QuantParams::new(0.25, 128, Bitwidth::B8),
        ).unwrap();
        let want = quantized_gemm_i32_with(&a, &b, Kernel::Scalar).unwrap();
        for kernel in Kernel::supported() {
            let got = quantized_gemm_i32_with(&a, &b, kernel).unwrap();
            prop_assert!(got == want, "{} disagrees with scalar", kernel);
        }
    }

    /// The full packed `AttnV` path — mixed per-block bitwidths including
    /// B0-bypassed blocks — must agree bit for bit across kernels, both
    /// on the f32 output (same i32 accumulators, same scale expression)
    /// and on the MAC/byte accounting the bypass produces.
    #[test]
    fn kernel_packed_attn_v_bit_identical_across_kernels(
        n in 2usize..24,
        d in 1usize..8,
        edge in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0x9e3779b9);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let v = Tensor::from_fn(&[n, d], |_| unit_f32(&mut s) * 4.0 - 2.0);
        let grid = BlockGrid::square(edge).unwrap();
        let (gr, gc) = grid.grid_dims(n, n);
        let bits: Vec<Bitwidth> = (0..gr * gc)
            .map(|_| match lcg(&mut s) % 4 {
                0 => Bitwidth::B0,
                1 => Bitwidth::B2,
                2 => Bitwidth::B4,
                _ => Bitwidth::B8,
            })
            .collect();
        let packed = MixedPrecisionMap::quantize(&map, grid, &bits).unwrap();
        let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
        let want = packed_attn_v_with(&packed, &vq, Kernel::Scalar).unwrap();
        for kernel in Kernel::supported() {
            let got = packed_attn_v_with(&packed, &vq, kernel).unwrap();
            prop_assert_eq!(got.executed_macs, want.executed_macs);
            prop_assert_eq!(got.skipped_blocks, want.skipped_blocks);
            prop_assert_eq!(got.packed_map_bytes, want.packed_map_bytes);
            prop_assert_eq!(got.kernel, kernel.as_str());
            for (a, b) in got.output.as_slice().iter().zip(want.output.as_slice()) {
                prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "{} output diverges from scalar: {} vs {}", kernel, a, b
                );
            }
        }
    }
}

/// Exact SIMD boundary shapes, pinned deterministically: full tiles,
/// one-over/one-under tile tails, and each column-chunk width.
#[test]
fn kernel_block_gemm_agrees_on_simd_boundaries() {
    for &(h, w) in &[(1, 63), (1, 64), (1, 65), (2, 128), (3, 129), (4, 1)] {
        for &d in &[1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65] {
            for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
                assert_block_gemm_agrees(h, w, d, bits, (h * w * d) as u64).unwrap();
            }
        }
    }
}
