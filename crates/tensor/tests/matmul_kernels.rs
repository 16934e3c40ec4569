//! Bit-exactness of the f32 matmul micro-kernels against the scalar
//! reference.
//!
//! Every kernel adds each output's `k` products in the same order, so
//! outputs must be **bit-identical** — including when the zero-segment
//! bypass fires and when non-finite right-hand values disable it. Shapes
//! span several full 6-row register tiles and 16-wide (AVX2) column
//! panels plus every row and column remainder. Test
//! names are prefixed `kernel_` so the CI sanitizer job can select
//! exactly this suite.

use paro_tensor::{kernel::Kernel, Tensor};
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn assert_matmul_agrees(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    let want = a.matmul_with(b, Kernel::Scalar).unwrap();
    for kernel in Kernel::supported() {
        let got = a.matmul_with(b, kernel).unwrap();
        for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
            prop_assert!(
                x.to_bits() == y.to_bits(),
                "{} diverges from scalar: {} vs {}",
                kernel,
                x,
                y
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes with `k` spanning the 256-element `TILE_K` boundary
    /// twice; a slice of the left operand's rows is zeroed so the
    /// zero-segment bypass fires on whole tiles, on some rows of a tile,
    /// and not at all.
    #[test]
    fn kernel_matmul_f32_bit_identical_across_kernels(
        m in 1usize..26,
        k in 1usize..600,
        n in 1usize..70,
        zero_rows in 0usize..8,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0xf32);
        let mut a_data: Vec<f32> = (0..m * k)
            .map(|_| (lcg(&mut s) % 2_000) as f32 / 1_000.0 - 1.0)
            .collect();
        for r in 0..zero_rows.min(m) {
            for x in &mut a_data[r * k..(r + 1) * k] {
                *x = 0.0;
            }
        }
        let a = Tensor::from_vec(&[m, k], a_data).unwrap();
        let b = Tensor::from_fn(&[k, n], |_| (lcg(&mut s) % 2_000) as f32 / 500.0 - 2.0);
        assert_matmul_agrees(&a, &b)?;
    }

    /// Non-finite right-hand values disable the zero-segment bypass; the
    /// dense IEEE result (NaN/∞ propagated through zero products) must
    /// still be bit-identical across kernels.
    #[test]
    fn kernel_matmul_nonfinite_rhs_bit_identical_across_kernels(
        m in 1usize..26,
        k in 1usize..300,
        n in 1usize..70,
        poison in 0usize..4,
        seed in 0u64..1000,
    ) {
        let mut s = seed.wrapping_add(0xbad);
        // Rows 0 and 7 are all zero: without the bypass they must still
        // pick up the poisoned column.
        let a = Tensor::from_fn(&[m, k], |i| {
            if i[0] % 7 == 0 || (i[0] + i[1]) % 3 == 0 { 0.0 } else { 1.5 }
        });
        let mut b_data: Vec<f32> = (0..k * n)
            .map(|_| (lcg(&mut s) % 2_000) as f32 / 1_000.0 - 1.0)
            .collect();
        let len = b_data.len();
        b_data[lcg(&mut s) as usize % len] = match poison {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => 0.0,
        };
        let b = Tensor::from_vec(&[k, n], b_data).unwrap();
        assert_matmul_agrees(&a, &b)?;
    }
}

/// Exact SIMD boundary shapes, pinned deterministically: `k` at and
/// around `TILE_K`, `m` at and around the 6-row tile, `n` at and around
/// each lane width and column panel.
#[test]
fn kernel_matmul_agrees_on_simd_boundaries() {
    let mut s = 7u64;
    for &k in &[1usize, 255, 256, 257, 513] {
        for &m in &[1usize, 5, 6, 7, 12, 13] {
            for &n in &[1usize, 3, 4, 5, 7, 8, 9, 15, 16, 17, 32, 33] {
                let a = Tensor::from_fn(&[m, k], |_| (lcg(&mut s) % 100) as f32 / 10.0 - 5.0);
                let b = Tensor::from_fn(&[k, n], |_| (lcg(&mut s) % 100) as f32 / 10.0 - 5.0);
                assert_matmul_agrees(&a, &b).unwrap();
            }
        }
    }
}

/// One DiT-block dense layer: the FFN down projection (`k` = 4·hidden =
/// 1024, four `TILE_K` segments; `n` = hidden 256) on a 101-token row
/// panel — 16 full row tiles plus a 5-row remainder. Tokens 40..50 are
/// zero in their second segment, so the tile of rows 42..48 takes the
/// bypass there and its two neighbours mix bypassed and computed rows.
#[test]
fn kernel_matmul_agrees_on_a_dit_linear() {
    let (m, k, n) = (101, 1024, 256);
    let mut s = 11u64;
    let a = Tensor::from_fn(&[m, k], |i| {
        if (40..50).contains(&i[0]) && (256..512).contains(&i[1]) {
            0.0
        } else {
            (lcg(&mut s) % 2_000) as f32 / 1_000.0 - 1.0
        }
    });
    let b = Tensor::from_fn(&[k, n], |_| (lcg(&mut s) % 2_000) as f32 / 20_000.0 - 0.05);
    assert_matmul_agrees(&a, &b).unwrap();
}
