//! Bit-exactness of the AVX2 micro-kernels against the scalar reference.
//!
//! Every dispatchable kernel (`scalar`, and `avx2` where the host
//! supports it) must produce **bit-identical outputs** — the AVX2 paths
//! sum key pairs in another order and multiply zero codes instead of
//! skipping them, and every kernel sums exactly (in i32 where a block's
//! bound allows it, in i128 otherwise), so the order does not matter;
//! every kernel converts and scales the sums with the same f32
//! operations, so any divergence is a bug, not rounding. The block GEMM
//! runs through `packed_attn_v_with` on one-block maps whose codes and
//! zero points are set exactly, and is checked against a plain-loop
//! oracle that sums exactly too. Operands cover their whole domain:
//! centered 8-bit `V` spans ±255, codes 0 and max meet zero points at
//! both ends of the code range, and near-flat blocks put the zero point
//! millions of codes away, so their sums leave i32. Test names are
//! prefixed `kernel_` so the CI sanitizer job can select exactly this
//! suite.

use paro_quant::{
    packed_attn_v_with, Bitwidth, BlockGrid, MixedPrecisionMap, PerColCodes, QuantParams,
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

/// Quantization steps of the map and of `V`: powers of two, so every
/// value below is exact and a group holding codes 0 and max calibrates
/// to exactly this scale and the intended zero point.
const MAP_STEP: f32 = 1.0 / 64.0;
const V_STEP: f32 = 1.0 / 8.0;

/// One `h × w` block of map `codes` at zero point `zp` against `V` codes
/// (`w × d`, row-major) at per-column zero points `v_zps`, through
/// `packed_attn_v_with` on every supported kernel: the output bits must
/// equal the plain-loop oracle's. The values are `(code − zp) · step`,
/// so a group holding codes 0 and max quantizes back to exactly the
/// given codes and zero point, which is asserted; any other group still
/// runs, on the codes min-max calibration gives it.
#[allow(clippy::too_many_arguments)]
fn assert_block_agrees(
    codes: &[u32],
    bits: Bitwidth,
    zp: i32,
    h: usize,
    w: usize,
    v_codes: &[u32],
    v_zps: &[i32],
    d: usize,
) -> Result<(), TestCaseError> {
    let map = Tensor::from_fn(&[h, w], |i| {
        (codes[i[0] * w + i[1]] as i32 - zp) as f32 * MAP_STEP
    });
    let v = Tensor::from_fn(&[w, d], |i| {
        (v_codes[i[0] * d + i[1]] as i32 - v_zps[i[1]]) as f32 * V_STEP
    });
    let packed = MixedPrecisionMap::quantize(&map, BlockGrid::new(h, w).unwrap(), &[bits]).unwrap();
    let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
    let (m_codes, m_params) = (packed.block_codes(0).unpack(), packed.block_params(0));
    if codes.contains(&0) && codes.contains(&bits.max_code()) {
        prop_assert_eq!(&m_codes[..], codes);
        prop_assert_eq!(m_params.zero_point(), zp);
    }
    for (j, &z) in v_zps.iter().enumerate() {
        let col: Vec<u32> = (0..w).map(|k| v_codes[k * d + j]).collect();
        if col.contains(&0) && col.contains(&255) {
            prop_assert!(
                (0..w).all(|k| vq.codes()[k * d + j] == col[k]),
                "column {}",
                j
            );
            prop_assert_eq!(vq.params()[j].zero_point(), z);
        }
    }
    assert_kernels_match_oracle(&packed, &vq, h)
}

/// `packed_attn_v_with` on a one-block map must give the oracle's output
/// bits on every supported kernel.
fn assert_kernels_match_oracle(
    packed: &MixedPrecisionMap,
    vq: &PerColCodes,
    h: usize,
) -> Result<(), TestCaseError> {
    let (codes, params) = (packed.block_codes(0).unpack(), packed.block_params(0));
    let want: Vec<u32> = exact_sums(&codes, params, vq, h)
        .iter()
        .zip(vq.params().iter().cycle())
        .map(|(&sum, vp)| (0.0 + sum as f32 * (params.scale() * vp.scale())).to_bits())
        .collect();
    for kernel in Kernel::supported() {
        let got = packed_attn_v_with(packed, vq, kernel).unwrap();
        let got: Vec<u32> = got.output.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert!(
            got == want,
            "{} disagrees with the oracle at {:?} h={} w={} d={} zp={}",
            kernel,
            params.bits(),
            h,
            vq.rows(),
            vq.cols(),
            params.zero_point()
        );
    }
    Ok(())
}

/// The sums of one block by plain loops, exactly: `Σ_k (code − z_b) ·
/// (v − z_c)` in i128 for each of the `h × d` outputs. The oracle's
/// output is `0 + sum as f32 · (s_b · s_c)`.
fn exact_sums(codes: &[u32], params: QuantParams, vq: &PerColCodes, h: usize) -> Vec<i128> {
    let (w, d) = (vq.rows(), vq.cols());
    let centered = |code: u32, zp: i32| i128::from(code) - i128::from(zp);
    let mut out = Vec::with_capacity(h * d);
    for r in 0..h {
        for (j, vp) in vq.params().iter().enumerate() {
            out.push(
                (0..w)
                    .map(|k| {
                        centered(codes[r * w + k], params.zero_point())
                            * centered(vq.codes()[k * d + j], vp.zero_point())
                    })
                    .sum(),
            );
        }
    }
    out
}

/// `V` (`n × d`) whose columns take three forms: both signs (zero point
/// mid-range), all positive (zero point 0) and all negative (zero point
/// 255), so centered `V` spans ±255.
fn signed_columns(n: usize, d: usize, s: &mut u64) -> Tensor {
    Tensor::from_fn(&[n, d], |i| match i[1] % 3 {
        0 => unit_f32(s) * 4.0 - 2.0,
        1 => unit_f32(s) * 2.0,
        _ => -unit_f32(s) * 2.0,
    })
}

/// One random block: codes over the whole range and a zero point
/// anywhere in it, `V` codes over the whole 8-bit range at per-column
/// zero points anywhere in it (centered `V` within ±255). Each group
/// holds both ends of its range, so the codes land exactly.
fn assert_random_block_agrees(
    h: usize,
    w: usize,
    d: usize,
    bits: Bitwidth,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut s = seed.wrapping_add(0x51_0000);
    let max = bits.max_code();
    let mut codes: Vec<u32> = (0..h * w)
        .map(|_| (lcg(&mut s) as u32) % (max + 1))
        .collect();
    codes[0] = 0;
    codes[h * w - 1] = max;
    let zp = (lcg(&mut s) as i32) % (max as i32 + 1);
    let mut v_codes: Vec<u32> = (0..w * d).map(|_| (lcg(&mut s) as u32) % 256).collect();
    for j in 0..d {
        v_codes[j] = 0;
        v_codes[(w - 1) * d + j] = 255;
    }
    let v_zps: Vec<i32> = (0..d).map(|_| (lcg(&mut s) as i32) % 256).collect();
    assert_block_agrees(&codes, bits, zp, h, w, &v_codes, &v_zps, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes across every bitwidth: odd widths (a zero-padded
    /// last code pair) and ragged column tails (`d` spans the 64- and
    /// 8-column register chunks and the masked tail).
    #[test]
    fn kernel_block_gemm_bit_identical_across_kernels(
        h in 1usize..12,
        w in 1usize..140,
        d in 1usize..80,
        bi in 1usize..4,
        seed in 0u64..1000,
    ) {
        assert_random_block_agrees(h, w, d, Bitwidth::ALL[bi], seed)?;
    }

    /// The full packed `AttnV` path — mixed per-block bitwidths including
    /// B0-bypassed blocks, block columns at odd key offsets (odd edges),
    /// head dimensions 1–9 (the whole row in the masked tail below 8)
    /// and around 16 and 64 — must agree bit for bit across kernels,
    /// both on the f32 output (same i32 sums, same scale expression) and
    /// on the MAC/byte accounting the bypass produces.
    #[test]
    fn kernel_packed_attn_v_bit_identical_across_kernels(
        n in 2usize..24,
        d in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65]),
        edge in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0x9e3779b9);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
        let v = signed_columns(n, d, &mut s);
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

/// Exact SIMD boundary shapes, pinned deterministically: even and odd
/// widths, and each column-chunk width with one over and one under.
#[test]
fn kernel_block_gemm_agrees_on_simd_boundaries() {
    for &(h, w) in &[(1, 63), (1, 64), (1, 65), (2, 128), (3, 129), (4, 1)] {
        for &d in &[1usize, 7, 8, 9, 31, 32, 33, 63, 64, 65] {
            for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
                assert_random_block_agrees(h, w, d, bits, (h * w * d) as u64).unwrap();
            }
        }
    }
}

/// The ends of both operand domains: codes 0 and max against zero points
/// 0 and max (centered codes at ±max), and `V` columns at +255, −255 or
/// a mix of both, on the workloads' 6-key blocks and their neighbours, at
/// depths around 8, 16 and 64. Every group holds both ends of its range,
/// so min-max calibration gives exactly these codes and zero points.
#[test]
fn kernel_block_gemm_agrees_at_domain_ends() {
    let (h, d_all) = (6usize, [7usize, 8, 9, 15, 16, 17, 63, 64, 65]);
    // `V` column `j` as (code of key `k`, zero point): mostly +255,
    // mostly −255, or alternating between the two by column.
    let plus = |k: usize| (if k == 0 { 0 } else { 255 }, 0);
    let minus = |k: usize| (if k == 0 { 255 } else { 0 }, 255);
    let v_patterns: [&dyn Fn(usize, usize) -> (u32, i32); 3] =
        [&|k, _| plus(k), &|k, _| minus(k), &|k, j| {
            if j % 2 == 0 {
                plus(k)
            } else {
                minus(k)
            }
        }];
    for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
        let max = bits.max_code();
        for w in [5usize, 6, 7] {
            let patterns: [&dyn Fn(usize) -> u32; 3] = [
                &|i| if i == 0 { max } else { 0 },
                &|i| if i == 0 { 0 } else { max },
                &|i| max * (i as u32 % 2),
            ];
            for code_at in patterns {
                let codes: Vec<u32> = (0..h * w).map(code_at).collect();
                for zp in [0, max as i32] {
                    for &d in &d_all {
                        for v_at in v_patterns {
                            let v_codes: Vec<u32> =
                                (0..w * d).map(|i| v_at(i / d, i % d).0).collect();
                            let v_zps: Vec<i32> = (0..d).map(|j| v_at(1, j).1).collect();
                            assert_block_agrees(&codes, bits, zp, h, w, &v_codes, &v_zps, d)
                                .unwrap();
                        }
                    }
                }
            }
        }
    }
}

/// Near-flat blocks, as near-uniform attention gives them: every value
/// within a relative spread of 1e-5 or 3e-6 of one level, so min-max
/// calibration puts the zero point 10⁵–10⁸ codes below the codes. Their
/// sums leave i32 (asserted for the wide block of each case); every
/// kernel must still give the exact oracle's bits, on the workloads'
/// 6-key blocks and on wider ones.
#[test]
fn kernel_packed_attn_v_exact_on_near_flat_blocks() {
    let level = 1.0 / 1152.0;
    for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
        for spread in [1e-5f32, 3e-6] {
            for (h, w, d) in [(6, 6, 64), (6, 5, 9), (3, 64, 17)] {
                let mut s = (h * w * d) as u64 + bits.bits() as u64;
                let map = Tensor::from_fn(&[h, w], |_| level * (1.0 + spread * unit_f32(&mut s)));
                let v = signed_columns(w, d, &mut s);
                let grid = BlockGrid::new(h, w).unwrap();
                let packed = MixedPrecisionMap::quantize(&map, grid, &[bits]).unwrap();
                let vq = PerColCodes::quantize(&v, Bitwidth::B8).unwrap();
                if w == 64 {
                    let (codes, params) = (packed.block_codes(0).unpack(), packed.block_params(0));
                    let sums = exact_sums(&codes, params, &vq, h);
                    assert!(
                        sums.iter().any(|&x| i32::try_from(x).is_err()),
                        "{bits:?} spread {spread}: no sum leaves i32"
                    );
                }
                assert_kernels_match_oracle(&packed, &vq, h).unwrap();
            }
        }
    }
}
