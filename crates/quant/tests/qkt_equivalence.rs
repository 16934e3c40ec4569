//! Bit-exactness of the `QKᵀ` score kernels against scalar.
//!
//! The SIMD path widens i8 codes to i16 and uses `vpmaddwd`, which is
//! exact for any i8 inputs, and i32 addition is associative — so every
//! kernel must produce **bit-identical scores** (the same i32 sums,
//! converted and scaled by the same f32 operations in the same order)
//! regardless of summation order, and so must an independent plain-loop
//! oracle. Any divergence is a bug, not rounding. Test names are prefixed
//! `kernel_` so the CI sanitizer job can select exactly this suite.

use paro_quant::{qkt_scores_with, KeySpan, WideRows};
use paro_tensor::kernel::Kernel;
use proptest::prelude::*;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn codes_i8(n: usize, state: &mut u64) -> Vec<i8> {
    (0..n).map(|_| lcg(state) as u8 as i8).collect()
}

/// Scores `q` against three `n`-key panels over `spans` on `kernel`;
/// columns outside every span keep a poison value.
fn scores(q: &WideRows, panels: &[WideRows; 3], spans: &[KeySpan], kernel: Kernel) -> Vec<u32> {
    let n = panels[0].rows();
    let q_scales: Vec<f32> = (0..q.rows()).map(|r| 0.003 + r as f32 * 7e-4).collect();
    let k_scales: Vec<f32> = (0..n).map(|c| 0.011 + c as f32 * 3e-4).collect();
    let mut out = vec![f32::NAN; q.rows() * n];
    let [a, b, c] = panels;
    qkt_scores_with(
        q,
        &q_scales,
        &[a, b, c],
        spans,
        &k_scales,
        0.125,
        &mut out,
        kernel,
    )
    .unwrap();
    out.iter().map(|x| x.to_bits()).collect()
}

/// The same scores from plain i8 loops over the unwidened codes.
fn oracle(q: &[i8], k: &[Vec<i8>; 3], h: usize, n: usize, d: usize, spans: &[KeySpan]) -> Vec<u32> {
    let mut out = vec![f32::NAN; h * n];
    for span in spans {
        for c in span.cols.clone() {
            for r in 0..h {
                let krow = &k[span.panel][c * d..(c + 1) * d];
                let sum: i32 = q[r * d..(r + 1) * d]
                    .iter()
                    .zip(krow)
                    .map(|(&a, &b)| a as i32 * b as i32)
                    .sum();
                let (qs, ks) = (0.003 + r as f32 * 7e-4, 0.011 + c as f32 * 3e-4);
                out[r * n + c] = sum as f32 * qs * ks * 0.125;
            }
        }
    }
    out.iter().map(|x| x.to_bits()).collect()
}

/// Runs one block row of `h` queries against `n` keys in `spans` on
/// every supported kernel and asserts the scores equal the scalar
/// reference's and the oracle's, bit for bit.
fn assert_scores_agree(
    h: usize,
    n: usize,
    d: usize,
    spans: &[KeySpan],
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut s = seed.wrapping_add(0x9127_0000);
    let q = codes_i8(h * d, &mut s);
    let k = [
        codes_i8(n * d, &mut s),
        codes_i8(n * d, &mut s),
        codes_i8(n * d, &mut s),
    ];
    let wq = WideRows::new(&q, h, d).unwrap();
    let panels = k.clone().map(|k| WideRows::new(&k, n, d).unwrap());
    let want = scores(&wq, &panels, spans, Kernel::Scalar);
    prop_assert!(
        want == oracle(&q, &k, h, n, d, spans),
        "scalar disagrees with the oracle"
    );
    for kernel in Kernel::supported() {
        let got = scores(&wq, &panels, spans, kernel);
        prop_assert!(
            got == want,
            "{} disagrees with scalar at h={} n={} d={} spans={:?}",
            kernel,
            h,
            n,
            d,
            spans
        );
    }
    Ok(())
}

/// `n` keys cut into runs of 1–9 columns, each on a random panel or
/// skipped (a 0-bit block).
fn random_spans(n: usize, seed: u64) -> Vec<KeySpan> {
    let mut s = seed.wrapping_add(0x5a5a);
    let mut spans = Vec::new();
    let mut c0 = 0;
    while c0 < n {
        let c1 = (c0 + 1 + lcg(&mut s) as usize % 9).min(n);
        let panel = lcg(&mut s) as usize % 4;
        if panel < 3 {
            spans.push(KeySpan {
                cols: c0..c1,
                panel,
            });
        }
        c0 = c1;
    }
    spans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random shapes and spans, in column order and shuffled: `d` spans
    /// the 16-lane step and its zero-padded tail, `n` the 8-key group and
    /// its repeated-key tail, and groups cross span, panel and gap
    /// boundaries; codes span the whole i8 range.
    #[test]
    fn kernel_qkt_bit_identical_across_kernels(
        h in 1usize..12,
        n in 1usize..40,
        d in 1usize..140,
        seed in 0u64..1000,
    ) {
        let mut spans = random_spans(n, seed);
        assert_scores_agree(h, n, d, &spans, seed)?;
        let mut s = seed;
        for i in (1..spans.len()).rev() {
            spans.swap(i, lcg(&mut s) as usize % (i + 1));
        }
        assert_scores_agree(h, n, d, &spans, seed)?;
    }
}

/// Spans out of column order and overlapping ones: the single-store
/// path of an 8-key group must only take 8 consecutive columns, and a
/// column in several spans keeps the last one's score, as the oracle
/// writes them.
#[test]
fn kernel_qkt_spans_in_any_order_and_overlapping() {
    let span = |cols: std::ops::Range<usize>, panel| KeySpan { cols, panel };
    let cases = [
        // Columns 0, 1, 5, 6, 2, 3, 4, 7: the first and last of the
        // group are 7 apart, yet the group is not consecutive.
        vec![span(0..2, 0), span(5..7, 1), span(2..5, 2), span(7..8, 0)],
        // Runs in reverse order, across groups of 8.
        vec![span(16..20, 0), span(8..16, 1), span(0..8, 2)],
        // The same columns on two panels: the second one's scores land.
        vec![span(0..8, 0), span(0..8, 1), span(3..11, 2)],
    ];
    for spans in &cases {
        for d in [1usize, 16, 17, 64] {
            assert_scores_agree(3, 20, d, spans, d as u64).unwrap();
        }
    }
}

/// 6-key blocks (the workloads' edge) at 2, 4 and 8 bits with a 0-bit
/// block between them: every 8-key group straddles a width change or
/// the gap. Depths around 8, 16 and 64.
#[test]
fn kernel_qkt_groups_straddle_widths_and_bypassed_blocks() {
    let spans = [
        KeySpan {
            cols: 0..6,
            panel: 0,
        },
        KeySpan {
            cols: 6..12,
            panel: 1,
        },
        KeySpan {
            cols: 18..24,
            panel: 2,
        },
        KeySpan {
            cols: 24..30,
            panel: 0,
        },
        KeySpan {
            cols: 30..33,
            panel: 1,
        },
    ];
    for h in [1usize, 5, 6] {
        for d in [1usize, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65] {
            assert_scores_agree(h, 33, d, &spans, (h * d) as u64).unwrap();
        }
    }
}

/// Exact SIMD boundary depths, pinned deterministically: each vector
/// width, one-over/one-under, the zero-padded tails, and key counts
/// around the 8-key group.
#[test]
fn kernel_qkt_agrees_on_simd_boundaries() {
    for &(h, n) in &[(1, 1), (1, 5), (3, 8), (4, 9), (2, 16), (6, 23)] {
        for &d in &[1usize, 15, 16, 17, 31, 32, 33, 47, 48, 64, 65, 96, 100] {
            let spans = [KeySpan {
                cols: 0..n,
                panel: 0,
            }];
            assert_scores_agree(h, n, d, &spans, (h * n * d) as u64).unwrap();
        }
    }
}

/// Saturated operands at the largest bench depth stay exact: |sum| ≤
/// d·128² is far inside i32, and a `vpmaddwd` pair of i8 products
/// cannot overflow.
#[test]
fn kernel_qkt_extreme_codes_do_not_overflow() {
    let d = 4096;
    for pattern in [[127i8, 127], [-128, 127], [-128, -128]] {
        let codes: Vec<i8> = (0..d).map(|j| pattern[j % 2]).collect();
        let wide = WideRows::new(&codes, 1, d).unwrap();
        let panels = [wide.clone(), wide.clone(), wide.clone()];
        let spans = [KeySpan {
            cols: 0..1,
            panel: 0,
        }];
        let want = scores(&wide, &panels, &spans, Kernel::Scalar);
        let k = [codes.clone(), codes.clone(), codes.clone()];
        assert_eq!(want, oracle(&codes, &k, 1, 1, d, &spans), "{pattern:?}");
        for kernel in Kernel::supported() {
            assert_eq!(
                scores(&wide, &panels, &spans, kernel),
                want,
                "{kernel} {pattern:?}"
            );
        }
    }
}
