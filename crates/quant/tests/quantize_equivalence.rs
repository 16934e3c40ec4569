//! Bit-exactness of the SIMD quantize/pack kernels against scalar.
//!
//! The SIMD paths replicate the scalar `(x / s).round() + zp` pipeline with
//! correctly-rounded IEEE division and an exact half-away-from-zero rebuild,
//! falling back to scalar for lanes outside the safe conversion range — so
//! every kernel must produce **identical codes** on any input, including
//! NaN/∞ and overflowing magnitudes. Test names are prefixed `kernel_` so
//! the CI sanitizer job can select exactly this suite.

use paro_quant::{
    fake_quant_2d, fake_quant_blocks, fake_quant_sq_errors, Bitwidth, BlockGrid, Grouping,
    MixedPrecisionMap, QuantParams,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random calibrated slices across every bitwidth and SIMD-ragged
    /// lengths: each kernel's codes must equal the scalar element-wise
    /// `QuantParams::quantize` exactly.
    #[test]
    fn kernel_quantize_slice_bit_identical_across_kernels(
        len in 1usize..70,
        bi in 0usize..4,
        span in 0.01f32..100.0,
        seed in 0u64..1000,
    ) {
        let bits = Bitwidth::ALL[bi];
        let mut s = seed.wrapping_add(0x9a3e);
        let values: Vec<f32> = (0..len).map(|_| (unit_f32(&mut s) - 0.5) * span).collect();
        let params = QuantParams::calibrate_minmax(&values, bits);
        let want: Vec<u32> = values.iter().map(|&v| params.quantize(v)).collect();
        for kernel in Kernel::supported() {
            let got = params.quantize_slice_with(&values, kernel);
            prop_assert!(got == want, "{} disagrees with scalar at {:?}", kernel, bits);
        }
    }

    /// Full mixed-precision map quantization — random grids with ragged
    /// block tails and B0 blocks — compared struct-for-struct (params,
    /// packed codes, bitwidths) across kernels.
    #[test]
    fn kernel_mixed_map_quantize_bit_identical_across_kernels(
        n in 2usize..24,
        edge in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0x517e);
        let map = Tensor::from_fn(&[n, n], |_| unit_f32(&mut s));
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
        let want = MixedPrecisionMap::quantize_with(&map, grid, &bits, Kernel::Scalar).unwrap();
        for kernel in Kernel::supported() {
            let got = MixedPrecisionMap::quantize_with(&map, grid, &bits, kernel).unwrap();
            prop_assert!(got == want, "{} map disagrees with scalar", kernel);
        }
    }
}

/// Adversarial parameters and inputs, pinned deterministically: NaN, ±∞,
/// exact halves (round-half-away ties), magnitudes past the i32-safe
/// conversion bound, a subnormal-producing scale, and zero-points at the
/// i32 extremes that force the whole-call scalar fallback.
#[test]
fn kernel_quantize_slice_agrees_on_adversarial_inputs() {
    let mut values: Vec<f32> = (0..37).map(|i| (i as f32 * 0.73 - 13.0) * 1.7).collect();
    values.extend([
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        3.0e12,
        -3.0e12,
        0.5,
        -0.5,
        1.5,
        2.5,
        -2.5,
        16_777_216.0,
        1_073_741_824.0,
    ]);
    for (scale, zp) in [
        (0.01, 7),
        (1.0e-30, 0),
        (1.0, -3),
        (0.37, i32::MAX),
        (2.5, i32::MIN),
    ] {
        let params = QuantParams::new(scale, zp, Bitwidth::B8);
        let want: Vec<u32> = values.iter().map(|&v| params.quantize(v)).collect();
        for kernel in Kernel::supported() {
            let got = params.quantize_slice_with(&values, kernel);
            assert_eq!(got, want, "{kernel} scale={scale} zp={zp}");
        }
    }
}

/// All-B0 maps quantize to the same empty payload on every kernel, and
/// B0 slices always return zero codes.
#[test]
fn kernel_quantize_b0_is_zero_on_every_kernel() {
    let params = QuantParams::new(1.0, 0, Bitwidth::B0);
    let values = [1.0f32, -2.0, f32::NAN, 1.0e30];
    for kernel in Kernel::supported() {
        assert_eq!(params.quantize_slice_with(&values, kernel), vec![0; 4]);
    }
    let map = Tensor::from_fn(&[6, 6], |i| (i[0] * 6 + i[1]) as f32 * 0.1);
    let grid = BlockGrid::square(4).unwrap();
    let bits = [Bitwidth::B0; 4];
    let want = MixedPrecisionMap::quantize_with(&map, grid, &bits, Kernel::Scalar).unwrap();
    for kernel in Kernel::supported() {
        let got = MixedPrecisionMap::quantize_with(&map, grid, &bits, kernel).unwrap();
        assert_eq!(got, want, "{kernel}");
    }
}

/// `fake_quant_2d`'s per-row and per-column arms on the dispatched
/// kernel: every group's parameters equal `calibrate_minmax` of that
/// row or column, and every element equals the scalar
/// `QuantParams::fake_quant` bit for bit. 300 rows and columns cross the
/// 256-value chunk the arms quantize per stack buffer and the 16-column
/// blocks of the per-column arm; the tensor carries NaN, ±∞, −0, exact
/// halves, a constant column and saturated zero points.
#[test]
fn kernel_fake_quant_rows_and_cols_match_elementwise() {
    let (m, n) = (300, 300);
    let mut s = 0x2d_u64;
    let mut data: Vec<f32> = (0..m * n).map(|_| (unit_f32(&mut s) - 0.5) * 6.0).collect();
    for (i, v) in [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.5,
        -2.5,
        3.0e12,
    ]
    .into_iter()
    .enumerate()
    {
        data[(i * 41 % m) * n + i * 37 % n] = v;
    }
    // A constant column, and a row and a column far from zero with a
    // tiny span, whose zero point saturates at `i32::MIN`.
    for r in 0..m {
        data[r * n + 5] = 1.25;
        data[r * n + 9] = 1.0e6 + (r % 3) as f32 * 0.0625;
    }
    for c in 0..n {
        data[7 * n + c] = 1.0e6 + (c % 3) as f32 * 0.0625;
    }
    let t = Tensor::from_vec(&[m, n], data).unwrap();
    let a = t.as_slice();
    for bits in Bitwidth::ALL.iter().copied() {
        for grouping in [Grouping::PerRow, Grouping::PerCol] {
            let (got, params) = fake_quant_2d(&t, grouping, bits).unwrap();
            let groups = if grouping == Grouping::PerRow { m } else { n };
            assert_eq!(params.len(), groups);
            for (g, p) in params.iter().enumerate() {
                let group: Vec<f32> = if grouping == Grouping::PerRow {
                    a[g * n..(g + 1) * n].to_vec()
                } else {
                    (0..m).map(|r| a[r * n + g]).collect()
                };
                assert_eq!(
                    *p,
                    QuantParams::calibrate_minmax(&group, bits),
                    "{grouping:?} {g}"
                );
            }
            for (i, (&x, &y)) in a.iter().zip(got.as_slice()).enumerate() {
                let p = params[if grouping == Grouping::PerRow {
                    i / n
                } else {
                    i % n
                }];
                assert_eq!(
                    y.to_bits(),
                    p.fake_quant(x).to_bits(),
                    "{grouping:?} {bits} element {i} ({x})"
                );
            }
        }
    }
}

/// The per-lane error map of block-row calibration on every kernel:
/// `err = (x − x̂)²` and `sq = x²`, with `x̂` the scalar
/// `QuantParams::fake_quant` of each lane's own parameters, bit for bit.
/// Rows of every length 0–17, 63–65 and 1,152 (whole and ragged 8-lane
/// chunks) carry NaN, ±∞, ±0, subnormals and exact halves; the lanes
/// either share one parameter set or cycle through scales of
/// `f32::MIN_POSITIVE` and zero points at ±2³⁰, one past them and at the
/// i32 ends, so a chunk mixes fast and scalar lanes.
#[test]
fn kernel_fake_quant_sq_errors_match_fake_quant() {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-45,
        f32::MIN_POSITIVE,
        0.5,
        -2.5,
        3.0e12,
        1.5,
    ];
    let lane_params: [(f32, i32); 12] = [
        (0.01, 7),
        (f32::MIN_POSITIVE, 0),
        (f32::MIN_POSITIVE, 3),
        (0.37, 1 << 30),
        (0.37, -(1 << 30)),
        (0.37, (1 << 30) + 1),
        (0.37, -(1 << 30) - 1),
        (2.5, i32::MAX),
        (2.5, i32::MIN),
        (1.0e-3, -5),
        (7.0, 100),
        (1.0e-38, 2),
    ];
    let mut s = 0x5ca1e_u64;
    let lengths = (0..=17).chain(63..=65).chain([1152]);
    for len in lengths {
        let values: Vec<f32> = (0..len)
            .map(|i| {
                if i % 5 == 3 {
                    specials[(i / 5) % specials.len()]
                } else {
                    (unit_f32(&mut s) - 0.5) * 4.0
                }
            })
            .collect();
        let shared = vec![(0.015f32, 17i32); len];
        let cycled: Vec<(f32, i32)> = (0..len)
            .map(|i| lane_params[(i * 7) % lane_params.len()])
            .collect();
        for lanes in [shared, cycled] {
            let (scales, zps): (Vec<f32>, Vec<i32>) = lanes.iter().copied().unzip();
            for bits in Bitwidth::ALL {
                let (want_err, want_sq): (Vec<u32>, Vec<u32>) = values
                    .iter()
                    .zip(&lanes)
                    .map(|(&x, &(scale, zp))| {
                        let e = x - QuantParams::new(scale, zp, bits).fake_quant(x);
                        ((e * e).to_bits(), (x * x).to_bits())
                    })
                    .unzip();
                for kernel in Kernel::supported() {
                    let (mut err, mut sq) = (vec![0.0f32; len], vec![0.0f32; len]);
                    fake_quant_sq_errors(kernel, &values, &scales, &zps, bits, &mut err, &mut sq);
                    let err: Vec<u32> = err.iter().map(|v| v.to_bits()).collect();
                    let sq: Vec<u32> = sq.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(err, want_err, "{kernel} {bits} len={len}");
                    assert_eq!(sq, want_sq, "{kernel} {bits} len={len}");
                }
            }
        }
    }
}

/// `fake_quant_blocks` on every block shape, ragged edges included:
/// each block's parameters are `calibrate_minmax` of its values and each
/// element its scalar `fake_quant`, bit for bit, with mixed widths.
#[test]
fn kernel_fake_quant_blocks_match_elementwise() {
    let (m, n) = (23, 17);
    let mut s = 0xb10c_u64;
    let mut data: Vec<f32> = (0..m * n).map(|_| unit_f32(&mut s) * 0.3).collect();
    data[5] = f32::NAN;
    data[40] = f32::INFINITY;
    data[77] = -0.0;
    let t = Tensor::from_vec(&[m, n], data).unwrap();
    for grid in [
        BlockGrid::square(6).unwrap(),
        BlockGrid::new(4, 7).unwrap(),
        BlockGrid::square(30).unwrap(),
    ] {
        let (gr, gc) = grid.grid_dims(m, n);
        let bits: Vec<Bitwidth> = (0..gr * gc).map(|b| Bitwidth::ALL[b % 4]).collect();
        let (got, params) = fake_quant_blocks(&t, grid, &bits).unwrap();
        for bi in 0..gr {
            for bj in 0..gc {
                let (r0, c0, h, w) = grid.block_bounds(bi, bj, m, n);
                let block = t.block(r0, c0, h, w).unwrap();
                let p = params[bi * gc + bj];
                assert_eq!(
                    p,
                    QuantParams::calibrate_minmax(block.as_slice(), bits[bi * gc + bj])
                );
                for r in r0..r0 + h {
                    for c in c0..c0 + w {
                        let want = p.fake_quant(t.at(&[r, c]));
                        assert_eq!(
                            got.at(&[r, c]).to_bits(),
                            want.to_bits(),
                            "{grid:?} ({r}, {c})"
                        );
                    }
                }
            }
        }
    }
}
