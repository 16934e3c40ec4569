use crate::Bitwidth;
use paro_tensor::kernel::Kernel;
use serde::{Deserialize, Serialize};

/// Values [`QuantParams::fake_quant_in_place`] quantizes per stack buffer.
pub(crate) const FAKE_QUANT_CHUNK: usize = 256;

/// Smallest and largest finite value of `values` (`+∞` and `−∞` when
/// there is none). Eight independent lanes let the loop vectorize; they
/// meet the values in another order than one sequential fold, which can
/// change only the sign of a zero result.
pub(crate) fn finite_range(values: &[f32]) -> (f32, f32) {
    const LANES: usize = 8;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        widen_range(&mut lo, &mut hi, chunk);
    }
    widen_range(&mut lo, &mut hi, tail);
    (
        lo.into_iter().fold(f32::INFINITY, f32::min),
        hi.into_iter().fold(f32::NEG_INFINITY, f32::max),
    )
}

/// Widens the per-lane ranges `lo[j]..=hi[j]` by the finite `values[j]`
/// (non-finite values leave their lane as it is). Start the lanes at
/// `+∞` and `−∞`; once they have seen a group's values, their smallest
/// `lo` and largest `hi` are the range that
/// [`QuantParams::from_finite_range`] calibrates at any bitwidth. The
/// lanes meet the values in any order: min and max are exact, and only
/// the sign of a zero bound can differ, which calibration ignores.
#[inline(always)]
pub fn widen_range(lo: &mut [f32], hi: &mut [f32], values: &[f32]) {
    for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(values) {
        // Branch-free compare-and-select, so the lanes vectorize (the NaN
        // rule of `f32::min`/`max` does not): a non-finite `v` becomes
        // the neutral bound first.
        let finite = v.abs() < f32::INFINITY;
        let vl = if finite { v } else { f32::INFINITY };
        let vh = if finite { v } else { f32::NEG_INFINITY };
        *l = if vl < *l { vl } else { *l };
        *h = if vh > *h { vh } else { *h };
    }
}

/// Uniform affine quantization parameters for one group.
///
/// Implements the paper's Sec. II-B scheme: a float `x` is approximated by
/// `x̂ = s·(x_int − z)` where the integer code is
/// `x_int = clamp(round(x/s) + z, 0, 2^b − 1)`.
///
/// Calibration is dynamic min-max, exactly as in the paper:
/// `s = (max(x) − min(x)) / (2^b − 1)` with `z = round(−min(x)/s)`, so
/// `min(x)` *quantizes to* code 0 but code 0 *dequantizes to* `−s·z`,
/// which can differ from `min(x)` by up to `s/2` (the zero point is an
/// integer, so it rounds). See [`QuantParams::calibrate_minmax`] for the
/// precise round-trip contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
    bits: Bitwidth,
}

impl QuantParams {
    /// Builds parameters directly from a scale, zero point and bitwidth.
    ///
    /// Prefer [`QuantParams::calibrate_minmax`] unless replaying stored
    /// parameters. A non-positive or non-finite `scale` is clamped to a tiny
    /// positive value so `quantize` never divides by zero.
    pub fn new(scale: f32, zero_point: i32, bits: Bitwidth) -> Self {
        let scale = if scale.is_finite() && scale > 0.0 {
            scale
        } else {
            f32::MIN_POSITIVE
        };
        QuantParams {
            scale,
            zero_point,
            bits,
        }
    }

    /// Dynamic min-max calibration over a group of values (the paper's
    /// activation-quantization rule).
    ///
    /// Round-trip contract (let `lo = min(x)`, `s` the scale):
    ///
    /// - `quantize(lo) == 0` exactly — `round` is symmetric about zero, so
    ///   `round(lo/s) + round(−lo/s) = 0` always;
    /// - `dequantize(quantize(lo))` may differ from `lo` by up to `s/2`,
    ///   because the zero point `z = round(−lo/s)` is rounded to an
    ///   integer. Code 0 dequantizes to `−s·z`, not to `lo`;
    /// - an exact `0.0` in a group whose range straddles zero round-trips
    ///   to exactly `0.0` (code `z` dequantizes to `s·(z−z) = 0`).
    ///
    /// Degenerate groups (empty, constant, or all-non-finite) yield a scale
    /// that reproduces the constant exactly via the zero point.
    pub fn calibrate_minmax(values: &[f32], bits: Bitwidth) -> Self {
        if bits == Bitwidth::B0 {
            return QuantParams::new(1.0, 0, bits);
        }
        let (lo, hi) = finite_range(values);
        QuantParams::from_finite_range(lo, hi, bits)
    }

    /// [`QuantParams::calibrate_minmax`] of a group whose smallest and
    /// largest finite values are `lo` and `hi` (`+∞` and `−∞` when it
    /// has none). Either zero may carry either sign: `±0` gives the same
    /// parameters. One range serves every bitwidth.
    pub fn from_finite_range(lo: f32, hi: f32, bits: Bitwidth) -> Self {
        if bits == Bitwidth::B0 {
            return QuantParams::new(1.0, 0, bits);
        }
        if !lo.is_finite() || !hi.is_finite() {
            return QuantParams::new(1.0, 0, bits);
        }
        let span = hi - lo;
        if span <= 0.0 {
            // Constant group: represent the constant `c = lo` exactly.
            // With s = |c| and z = -sign(c), code 0 dequantizes to exactly
            // c; a zero constant uses the trivial (s, z=0) pair.
            if lo == 0.0 {
                return QuantParams::new(f32::MIN_POSITIVE, 0, bits);
            }
            let z = if lo > 0.0 { -1 } else { 1 };
            return QuantParams::new(lo.abs(), z, bits);
        }
        // True min-max affine calibration: the range is [min, max], NOT
        // extended to include zero. This matters for PARO: after reorder,
        // dense high-value blocks sit far from zero, and a [min, max] range
        // gives them a far smaller scale than a [0, max] range would.
        let scale = span / bits.max_code() as f32;
        let zero_point = (-lo / scale).round() as i32;
        QuantParams::new(scale, zero_point, bits)
    }

    /// Percentile-clipped calibration: like
    /// [`QuantParams::calibrate_minmax`] but the range covers only the
    /// central `pct` fraction of the (sorted) values, clipping the tails.
    ///
    /// A standard PTQ alternative to min-max for heavy-tailed activations.
    /// For post-softmax attention maps it is usually the *wrong* choice —
    /// the outliers carry the attention mass — which the `quant`
    /// calibration ablation demonstrates; it is provided for that
    /// comparison and for users quantizing other tensors.
    ///
    /// `pct` is clamped to `(0, 1]`; `pct = 1.0` reduces to min-max.
    pub fn calibrate_percentile(values: &[f32], bits: Bitwidth, pct: f32) -> Self {
        if bits == Bitwidth::B0 {
            return QuantParams::new(1.0, 0, bits);
        }
        let pct = if pct.is_finite() {
            pct.clamp(1e-3, 1.0)
        } else {
            1.0
        };
        let mut finite: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return QuantParams::new(1.0, 0, bits);
        }
        finite.sort_by(f32::total_cmp);
        let n = finite.len();
        let cut = (((1.0 - pct) / 2.0) * n as f32).floor() as usize;
        let lo = finite[cut.min(n - 1)];
        let hi = finite[(n - 1 - cut).max(cut.min(n - 1))];
        let span = hi - lo;
        if span <= 0.0 {
            return QuantParams::calibrate_minmax(&[lo], bits);
        }
        let scale = span / bits.max_code() as f32;
        let zero_point = (-lo / scale).round() as i32;
        QuantParams::new(scale, zero_point, bits)
    }

    /// The scaling factor `s`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero point `z`.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// The bitwidth `b`.
    pub fn bits(&self) -> Bitwidth {
        self.bits
    }

    /// Quantizes a value to its integer code `clamp(round(x/s)+z, 0, 2^b−1)`.
    ///
    /// `B0` always returns code 0.
    pub fn quantize(&self, x: f32) -> u32 {
        if self.bits == Bitwidth::B0 {
            return 0;
        }
        // Saturating: `±∞ as i64` saturates to the i64 extremes, and the
        // zero-point add must not wrap past them (it clamps next anyway).
        let q = ((x / self.scale).round() as i64).saturating_add(self.zero_point as i64);
        q.clamp(0, self.bits.max_code() as i64) as u32
    }

    /// Quantizes a slice of values in one pass on the dispatched SIMD
    /// kernel. Element for element bit-identical to
    /// [`QuantParams::quantize`].
    pub fn quantize_slice(&self, values: &[f32]) -> Vec<u32> {
        self.quantize_slice_with(values, crate::kernels::active_kernel())
    }

    /// [`QuantParams::quantize_slice`] on an explicit kernel (forced-kernel
    /// testing); results are bit-identical across kernels.
    pub fn quantize_slice_with(&self, values: &[f32], kernel: Kernel) -> Vec<u32> {
        let mut out = vec![0u32; values.len()];
        self.quantize_into(values, kernel, &mut out);
        out
    }

    /// `out[i] = quantize(values[i])` into a caller-owned buffer of the
    /// same length, on `kernel`.
    pub(crate) fn quantize_into(&self, values: &[f32], kernel: Kernel, out: &mut [u32]) {
        if self.bits == Bitwidth::B0 {
            out.fill(0); // B0 always codes to 0, no arithmetic at all
            return;
        }
        crate::kernels::quantize_codes(
            kernel,
            values,
            self.scale,
            self.zero_point,
            self.bits.max_code(),
            out,
        );
    }

    /// Dequantizes an integer code back to a float `s·(code − z)`.
    ///
    /// `B0` always returns 0 (the block is skipped).
    pub fn dequantize(&self, code: u32) -> f32 {
        if self.bits == Bitwidth::B0 {
            return 0.0;
        }
        self.scale * (code as i64 - self.zero_point as i64) as f32
    }

    /// Quantize-then-dequantize ("fake quantization"), the float-side model
    /// of the integer datapath.
    pub fn fake_quant(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// Fake-quantizes a slice in one pass on the dispatched SIMD kernel.
    /// Element for element bit-identical to [`QuantParams::fake_quant`].
    pub fn fake_quant_slice(&self, values: &[f32]) -> Vec<f32> {
        let mut out = values.to_vec();
        self.fake_quant_in_place(&mut out, crate::kernels::active_kernel());
        out
    }

    /// `v = fake_quant(v)` for every value, without touching the heap:
    /// codes come from the quantize kernel one stack-sized chunk at a
    /// time and are dequantized by [`QuantParams::dequantize`], so the
    /// result is bit-identical to [`QuantParams::fake_quant`].
    pub(crate) fn fake_quant_in_place(&self, values: &mut [f32], kernel: Kernel) {
        if self.bits == Bitwidth::B0 {
            values.fill(0.0);
            return;
        }
        let mut codes = [0u32; FAKE_QUANT_CHUNK];
        for chunk in values.chunks_mut(FAKE_QUANT_CHUNK) {
            let codes = &mut codes[..chunk.len()];
            crate::kernels::quantize_codes(
                kernel,
                chunk,
                self.scale,
                self.zero_point,
                self.bits.max_code(),
                codes,
            );
            for (v, &code) in chunk.iter_mut().zip(codes.iter()) {
                *v = self.dequantize(code);
            }
        }
    }

    /// Sum of squared quantization errors over a group.
    pub fn sq_error(&self, values: &[f32]) -> f32 {
        values
            .iter()
            .map(|&v| {
                let e = v - self.fake_quant(v);
                e * e
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let values: Vec<f32> = (0..100).map(|i| (i as f32 * 0.173).sin() * 3.0).collect();
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let p = QuantParams::calibrate_minmax(&values, bits);
            for &v in &values {
                let err = (v - p.fake_quant(v)).abs();
                assert!(
                    err <= p.scale() / 2.0 + 1e-5,
                    "bits={bits} v={v} err={err} scale={}",
                    p.scale()
                );
            }
        }
    }

    #[test]
    fn min_quantizes_to_code_zero_but_roundtrip_rounds() {
        // The documented contract: quantize(min) is exactly code 0, yet
        // dequantize(0) = −s·z can miss min by up to s/2 because the zero
        // point is rounded to an integer. Both halves are pinned here so a
        // future "fix" to either side shows up as a test failure.
        let groups: [&[f32]; 4] = [
            &[0.1, 1.0],
            &[-0.73, 0.4, 2.2],
            &[3.0, 3.1, 9.7],
            &[-5.0, -1.0, -0.2],
        ];
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            for values in groups {
                let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
                let p = QuantParams::calibrate_minmax(values, bits);
                assert_eq!(p.quantize(lo), 0, "bits={bits} lo={lo}");
                let err = (p.dequantize(0) - lo).abs();
                assert!(
                    err <= p.scale() / 2.0 + 1e-6,
                    "bits={bits} lo={lo} err={err} scale={}",
                    p.scale()
                );
            }
        }
        // A concrete case where the round-trip is NOT exact: [0.1, 1.0] at
        // B2 gives s = 0.3 and z = round(−1/3) = 0, so code 0 reads back
        // as 0.0, not 0.1.
        let p = QuantParams::calibrate_minmax(&[0.1, 1.0], Bitwidth::B2);
        assert_eq!(p.zero_point(), 0);
        assert_ne!(p.dequantize(p.quantize(0.1)), 0.1);
    }

    #[test]
    fn zero_is_exactly_representable() {
        // Post-softmax attention maps are full of (near-)zeros; the
        // calibration must keep exact zeros exact.
        let values = [0.0f32, 0.1, 0.9, 0.0, 0.3];
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let p = QuantParams::calibrate_minmax(&values, bits);
            assert_eq!(p.fake_quant(0.0), 0.0, "bits={bits}");
        }
    }

    #[test]
    fn b0_skips_everything() {
        let p = QuantParams::calibrate_minmax(&[1.0, 2.0, 3.0], Bitwidth::B0);
        assert_eq!(p.quantize(2.5), 0);
        assert_eq!(p.dequantize(0), 0.0);
        assert_eq!(p.fake_quant(123.0), 0.0);
    }

    #[test]
    fn constant_group_is_representable() {
        let p = QuantParams::calibrate_minmax(&[0.0, 0.0, 0.0], Bitwidth::B4);
        assert_eq!(p.fake_quant(0.0), 0.0);
    }

    #[test]
    fn empty_and_nonfinite_groups_do_not_panic() {
        let p = QuantParams::calibrate_minmax(&[], Bitwidth::B8);
        assert!(p.scale() > 0.0);
        let p = QuantParams::calibrate_minmax(&[f32::NAN, f32::INFINITY], Bitwidth::B8);
        assert!(p.fake_quant(1.0).is_finite());
    }

    #[test]
    fn codes_stay_in_range() {
        let values = [-5.0f32, -1.0, 0.0, 2.0, 7.0];
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let p = QuantParams::calibrate_minmax(&values, bits);
            for v in [-100.0f32, -5.0, 0.0, 7.0, 100.0] {
                assert!(p.quantize(v) <= bits.max_code());
            }
        }
    }

    #[test]
    fn more_bits_never_worse() {
        let values: Vec<f32> = (0..256).map(|i| ((i * 37) % 101) as f32 * 0.01).collect();
        let e2 = QuantParams::calibrate_minmax(&values, Bitwidth::B2).sq_error(&values);
        let e4 = QuantParams::calibrate_minmax(&values, Bitwidth::B4).sq_error(&values);
        let e8 = QuantParams::calibrate_minmax(&values, Bitwidth::B8).sq_error(&values);
        assert!(e2 >= e4);
        assert!(e4 >= e8);
    }

    #[test]
    fn outlier_inflates_scale() {
        // The paper's core observation (Sec. III-A): a single large outlier
        // in the group inflates the scale and crushes the small values.
        let uniform = [0.01f32, 0.012, 0.011, 0.013];
        let with_outlier = [0.01f32, 0.012, 0.011, 0.9];
        let pu = QuantParams::calibrate_minmax(&uniform, Bitwidth::B4);
        let po = QuantParams::calibrate_minmax(&with_outlier, Bitwidth::B4);
        assert!(po.scale() > pu.scale() * 10.0);
        // Small values become indistinguishable under the outlier-driven scale.
        assert_eq!(po.quantize(0.01), po.quantize(0.012));
        // Without the outlier they stay distinguishable.
        assert_ne!(pu.quantize(0.01), pu.quantize(0.013));
    }

    #[test]
    fn percentile_full_range_equals_minmax() {
        let values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.31).sin()).collect();
        let a = QuantParams::calibrate_minmax(&values, Bitwidth::B4);
        let b = QuantParams::calibrate_percentile(&values, Bitwidth::B4, 1.0);
        assert!((a.scale() - b.scale()).abs() < 1e-6);
        assert_eq!(a.zero_point(), b.zero_point());
    }

    #[test]
    fn percentile_clips_tails() {
        // One huge outlier among small values: 90th-percentile calibration
        // ignores it and keeps the small values' resolution.
        let mut values = vec![0.01f32; 99];
        values.push(10.0);
        let minmax = QuantParams::calibrate_minmax(&values, Bitwidth::B4);
        let clipped = QuantParams::calibrate_percentile(&values, Bitwidth::B4, 0.9);
        assert!(clipped.scale() < minmax.scale() / 10.0);
        // But the outlier itself saturates badly under clipping.
        let err_clipped = (10.0 - clipped.fake_quant(10.0)).abs();
        let err_minmax = (10.0 - minmax.fake_quant(10.0)).abs();
        assert!(err_clipped > err_minmax);
    }

    #[test]
    fn percentile_wrong_for_attention_maps() {
        // The ablation conclusion: on an attention-map-like distribution
        // (few large in-group values carrying the mass, many near-zero
        // background values), clipping the top percentile destroys the
        // values that matter — total *mass-weighted* error explodes.
        let mut values: Vec<f32> = (0..96).map(|i| 1e-3 + 1e-4 * (i % 7) as f32).collect();
        values.extend([0.22f32, 0.24, 0.25, 0.29]); // the in-group mass
        let minmax = QuantParams::calibrate_minmax(&values, Bitwidth::B4);
        let clipped = QuantParams::calibrate_percentile(&values, Bitwidth::B4, 0.9);
        let weighted_err = |p: &QuantParams| -> f32 {
            values
                .iter()
                .map(|&v| v * (v - p.fake_quant(v)).abs())
                .sum()
        };
        assert!(
            weighted_err(&clipped) > weighted_err(&minmax) * 3.0,
            "clipping should be far worse on attention maps: {} vs {}",
            weighted_err(&clipped),
            weighted_err(&minmax)
        );
    }

    #[test]
    fn percentile_degenerate_inputs() {
        let p = QuantParams::calibrate_percentile(&[], Bitwidth::B8, 0.9);
        assert!(p.scale() > 0.0);
        let p = QuantParams::calibrate_percentile(&[f32::NAN], Bitwidth::B8, 0.9);
        assert!(p.scale() > 0.0);
        let p = QuantParams::calibrate_percentile(&[5.0; 10], Bitwidth::B8, 0.5);
        assert_eq!(p.fake_quant(5.0), 5.0);
        let p = QuantParams::calibrate_percentile(&[1.0, 2.0], Bitwidth::B0, 0.9);
        assert_eq!(p.fake_quant(2.0), 0.0);
    }

    #[test]
    fn quantize_slice_matches_elementwise() {
        let values: Vec<f32> = (0..41).map(|i| (i as f32 * 0.37).sin() * 4.0).collect();
        for bits in [Bitwidth::B0, Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let p = QuantParams::calibrate_minmax(&values, bits);
            let want: Vec<u32> = values.iter().map(|&v| p.quantize(v)).collect();
            assert_eq!(p.quantize_slice(&values), want, "bits={bits}");
        }
    }

    #[test]
    fn new_clamps_bad_scale() {
        let p = QuantParams::new(0.0, 0, Bitwidth::B8);
        assert!(p.scale() > 0.0);
        let p = QuantParams::new(f32::NAN, 0, Bitwidth::B8);
        assert!(p.scale() > 0.0);
    }
}
