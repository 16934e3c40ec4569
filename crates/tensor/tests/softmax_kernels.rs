//! Bit-exactness of the softmax row function across kernels.
//!
//! `softmax_in_place_with` runs one loop, compiled once for the scalar
//! reference and once with AVX2 enabled, where it vectorizes. Its
//! roundings must not move: every kernel must give the scalar bits on
//! rows of every length around the 8-lane chunks and at the attention
//! maps' row lengths, on `−∞` lanes and all-`−∞` rows, NaN, `±0` and
//! `+∞`, and on spreads that reach below `exp`'s normal range. Test names
//! are prefixed `kernel_` so the CI kernel steps select exactly this
//! suite.

use paro_tensor::{kernel::Kernel, softmax_in_place_with};

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Softmaxes `row` on every supported kernel and requires the scalar
/// reference's bits; returns them.
fn assert_kernels_agree(row: &[f32], what: &str) -> Vec<f32> {
    let mut want = row.to_vec();
    softmax_in_place_with(&mut want, Kernel::Scalar);
    for kernel in Kernel::supported() {
        let mut got = row.to_vec();
        softmax_in_place_with(&mut got, kernel);
        for (i, (x, y)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}, len {}, lane {i}: {kernel} gives {x:e}, scalar {y:e}",
                row.len()
            );
        }
    }
    want
}

/// `len` scores in `[−spread, 0]` plus a varying offset.
fn scores(len: usize, spread: f32, seed: u64) -> Vec<f32> {
    let mut s = seed ^ 0x50f7;
    (0..len)
        .map(|_| (lcg(&mut s) % 100_000) as f32 / 100_000.0 * -spread + 3.25)
        .collect()
}

const LENGTHS: [usize; 23] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65, 384, 1152,
];

#[test]
fn kernel_softmax_bit_identical_on_every_length() {
    for len in LENGTHS {
        // Narrow spreads keep every lane in range; 120 and 1e4 push
        // lanes below −87.34, where `exp` returns exactly 0.
        for (seed, spread) in [1.0f32, 20.0, 120.0, 1e4].into_iter().enumerate() {
            let got = assert_kernels_agree(&scores(len, spread, seed as u64), "random");
            if len > 0 {
                let sum: f32 = got.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "len {len}: sums to {sum}");
            }
        }
    }
}

#[test]
fn kernel_softmax_bit_identical_on_special_lanes() {
    let ninf = f32::NEG_INFINITY;
    for len in LENGTHS.into_iter().filter(|&len| len > 0) {
        let base = scores(len, 40.0, len as u64);
        let with = |every: usize, v: f32| -> Vec<f32> {
            let mut row = base.clone();
            for x in row.iter_mut().step_by(every) {
                *x = v;
            }
            row
        };

        // Bypassed lanes read exactly 0 and leave the rest a distribution.
        let masked = assert_kernels_agree(&with(3, ninf), "every third lane −∞");
        assert!(masked.iter().step_by(3).all(|&x| x.to_bits() == 0));

        // A row with no finite score comes back as zeros.
        let all_masked = assert_kernels_agree(&vec![ninf; len], "all −∞");
        assert!(all_masked.iter().all(|&x| x.to_bits() == 0));

        // One NaN lane poisons its row.
        let nan = assert_kernels_agree(&with(len.max(2) - 1, f32::NAN), "NaN lane");
        assert!(nan.iter().all(|x| x.is_nan()));

        // Equal scores of either zero sign give the uniform row.
        let zeros: Vec<f32> = (0..len)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        let uniform = assert_kernels_agree(&zeros, "±0");
        assert!(uniform.iter().all(|&x| x == 1.0 / len as f32));

        assert_kernels_agree(&with(5, f32::INFINITY), "+∞ lanes");
        assert_kernels_agree(&with(4, -87.4), "lanes just below −87.34");
        assert_kernels_agree(&with(2, -1e30), "far-below lanes");
    }
}

/// Scores that straddle the low end of `exp`'s range (a softmax never
/// reaches the high end): each lane's `x − max` lands within four ulps
/// inside or outside `[−87.34, 0]`.
#[test]
fn kernel_softmax_bit_identical_at_the_range_edge() {
    let lo = -87.336_54f32;
    let edge: Vec<f32> = (0..1152u32)
        .map(|i| {
            let step = (i % 9) as i32 - 4;
            f32::from_bits((lo.to_bits() as i32 + step) as u32)
        })
        .chain([0.0])
        .collect();
    let got = assert_kernels_agree(&edge, "range edge");
    for (x, y) in edge.iter().zip(&got) {
        if *x < lo {
            assert_eq!(y.to_bits(), 0, "score {x:e}");
        }
    }
}
