//! Integer micro-kernels with runtime SIMD dispatch: packed `AttnV`, the
//! two quantize maps and the per-lane fake-quantization error map of
//! block-row calibration ([`fake_quant_sq_errors`]).
//!
//! This module is the compute backend of [`crate::packed_attn_v`] and
//! the fused executor's [`crate::AttnVOperand`]. It dispatches on the
//! same [`Kernel`] value as the f32 kernels in [`paro_tensor::kernel`],
//! so one process runs one consistent kernel set.
//!
//! Every loop has two bodies: the scalar reference and AVX2. The packed
//! `AttnV` block multiplies a block's 2/4/8-bit codes, centered on its
//! zero point, with `V` codes centered on theirs:
//!
//! - `V` is laid out once per head as [`VPairs`]: consecutive key rows
//!   interleaved column by column as i16 pairs, the operand form of
//!   `vpmaddwd`. A column's centered codes span `[−z_c, max − z_c]`, so
//!   its zero point alone decides whether they fit i16; a centered 8-bit
//!   code of a zero point inside the code range spans ±255. One
//!   `vpmaddwd` then adds two keys' products for 8 output columns.
//! - The AVX2 body unpacks a block's codes once into centered i16 pairs
//!   (a zero pads an odd first or last pair, so any block edge and any
//!   key offset run the same loop), broadcasts each pair against the
//!   matching `V` pair row, and keeps up to 64 output columns of i32
//!   sums in ymm registers across the block's keys. The sums go straight
//!   into the block row's f32 output: each lane is converted, scaled by
//!   `s_b · s_c` and added, in that order and without FMA — the
//!   per-block dequantization of [`crate::dequantize_gemm`] — so there is
//!   no i32 accumulator buffer and no second pass. `V` rows are
//!   zero-padded to 8 columns and the output tail is a masked load and
//!   store, so a ragged head dimension runs in the same body.
//! - The scalar reference centers each row's codes once, with the same
//!   zero padding, walks the same operand pair by pair, skips a pair of
//!   zero centered codes (it contributes nothing), and dequantizes the
//!   row's sums with the same expression.
//!
//! Every sum is exact. A block of `w` keys whose bound `w · max|code −
//! z_b| · max|centered V|` stays below 2³¹ keeps every partial sum
//! inside i32, in any order, and runs the bodies above. Min-max
//! calibration can put a zero point far outside the code range (a
//! near-flat block, as near-uniform attention gives): any other block,
//! and any head whose centered `V` does not fit i16, runs the scalar
//! reference with i128 sums, which are exact for any i32 zero points.
//! Exact sums do not depend on their order, so every body gives the same
//! bits — pinned by `tests/kernel_equivalence.rs` on every kernel the
//! host supports — and correctness does not depend on the data.
//!
//! Each dispatcher asserts that the CPU supports the kernel it is given
//! before any AVX2 body runs, so a safe caller passing
//! [`Kernel::Avx2`] on a CPU without AVX2 panics instead of executing
//! instructions the CPU lacks.

// The AVX2 paths need `unsafe` for intrinsics; bounds are established by
// the safe dispatchers (shapes validated by the callers).
#![allow(unsafe_code)]

use crate::block_row::BlockRef;
use crate::{Bitwidth, PackedCodes};
pub use paro_tensor::kernel::{active_kernel, Kernel};
use std::ops::{Add, Mul};

/// Output columns of one AVX2 accumulator (8 i32 lanes); a [`VPairs`]
/// row is zero-padded to a multiple of it.
const COL_LANES: usize = 8;

/// Centered `V` codes (`rows × d`) in the pair layout `vpmaddwd`
/// consumes: key rows `2p` and `2p + 1` form pair row `p`, which holds
/// `v[2p][j], v[2p + 1][j]` for every column `j` in turn, padded with
/// zero columns to a multiple of [`COL_LANES`]. An odd row count pads a
/// zero last row. Read-only once built.
#[derive(Debug, Clone)]
pub(crate) struct VPairs {
    vals: PairVals,
    rows: usize,
    d: usize,
    /// Columns per pair row: `d` rounded up to [`COL_LANES`].
    dp: usize,
    /// The largest `w · max|code − z_b|` of a block whose sums stay in
    /// i32: `(2³¹ − 1) / max|centered V|`.
    sum_limit: u64,
}

#[derive(Debug, Clone)]
enum PairVals {
    /// Every centered value fits i16: the form every body runs on.
    Narrow(Vec<i16>),
    /// Some does not: only the scalar reference runs, on exact i128 sums.
    Wide(Vec<i64>),
}

impl VPairs {
    /// The operand of the `rows × d` codes `codes` (row-major, at most
    /// `max_code`) centered on their columns' `zero_points`. The layout
    /// and the sum bound follow from the zero points alone.
    pub(crate) fn new(
        codes: &[u32],
        rows: usize,
        d: usize,
        zero_points: &[i32],
        max_code: u32,
    ) -> Self {
        debug_assert_eq!((codes.len(), zero_points.len()), (rows * d, d));
        let max_v = zero_points
            .iter()
            .map(|&z| z.unsigned_abs().max(z.abs_diff(max_code as i32)))
            .max()
            .unwrap_or(0);
        let dp = d.next_multiple_of(COL_LANES);
        let vals = if max_v <= i16::MAX as u32 {
            PairVals::Narrow(interleave(codes, rows, d, dp, zero_points, |c, z| {
                (c as i32 - z) as i16
            }))
        } else {
            PairVals::Wide(interleave(codes, rows, d, dp, zero_points, |c, z| {
                i64::from(c) - i64::from(z)
            }))
        };
        VPairs {
            vals,
            rows,
            d,
            dp,
            sum_limit: i32::MAX as u64 / u64::from(max_v.max(1)),
        }
    }

    /// Key rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Columns (the head dimension).
    pub(crate) fn cols(&self) -> usize {
        self.d
    }

    /// Bytes of the operand.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        match &self.vals {
            PairVals::Narrow(v) => 2 * v.len(),
            PairVals::Wide(v) => 8 * v.len(),
        }
    }
}

/// The pair layout of [`VPairs`] with `center(code, z_c)` as each value,
/// two key rows at a time (zero in the padding).
fn interleave<T: Copy + Default>(
    codes: &[u32],
    rows: usize,
    d: usize,
    dp: usize,
    zero_points: &[i32],
    center: impl Fn(u32, i32) -> T,
) -> Vec<T> {
    let mut out = vec![T::default(); rows.div_ceil(2) * 2 * dp];
    for p in 0..rows.div_ceil(2) {
        let dst = &mut out[p * 2 * dp..][..2 * d];
        let even = &codes[2 * p * d..][..d];
        match codes.get((2 * p + 1) * d..(2 * p + 2) * d) {
            Some(odd) => {
                for (((o, &a), &b), &z) in
                    dst.chunks_exact_mut(2).zip(even).zip(odd).zip(zero_points)
                {
                    o[0] = center(a, z);
                    o[1] = center(b, z);
                }
            }
            None => {
                for ((o, &a), &z) in dst.chunks_exact_mut(2).zip(even).zip(zero_points) {
                    o[0] = center(a, z);
                }
            }
        }
    }
    out
}

/// Reusable buffers of the block bodies: the scalar reference's centered
/// codes and row of sums, in i32 and in i128, and the AVX2 body's
/// centered code pairs and scale products.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    scalar: (Vec<i32>, Vec<i32>),
    exact: (Vec<i128>, Vec<i128>),
    #[cfg_attr(
        not(any(target_arch = "x86", target_arch = "x86_64")),
        allow(dead_code)
    )]
    avx2: (Vec<i16>, Vec<f32>),
}

/// Code `e` of a payload packed at `BITS` bits (codes never straddle
/// bytes: 8 % `BITS` == 0).
#[inline(always)]
fn code_at<const BITS: usize>(bytes: &[u8], e: usize) -> i32 {
    let mask = ((1u16 << BITS) - 1) as u8;
    ((bytes[e * BITS / 8] >> (e * BITS % 8)) & mask) as i32
}

/// The sum type of the scalar block body: i32 for a block whose bound
/// keeps every partial sum in range, i128 for any other.
trait Acc: Copy + Default + PartialEq + Add<Output = Self> + Mul<Output = Self> {
    /// `code − zp`, which the caller has bounded to the type.
    fn centered(code: i32, zp: i32) -> Self;
    /// The nearest f32, ties to even, as `cvtdq2ps` rounds.
    fn to_f32(self) -> f32;
}

impl Acc for i32 {
    fn centered(code: i32, zp: i32) -> i32 {
        code - zp
    }
    fn to_f32(self) -> f32 {
        self as f32
    }
}

impl Acc for i128 {
    fn centered(code: i32, zp: i32) -> i128 {
        i128::from(code) - i128::from(zp)
    }
    fn to_f32(self) -> f32 {
        self as f32
    }
}

/// Scalar reference block body: per row, the row's codes centered on the
/// block's zero point (zero where a pair passes the block's keys), each
/// pair of them times its `V` pair row summed in `A` — a pair of zero
/// codes is skipped — and `out[r][j] += sum as f32 · (s_b · s_c)`.
fn attn_v_scalar<const BITS: usize, T: Copy + Into<A>, A: Acc>(
    block: &BlockRef,
    h: usize,
    v: &VPairs,
    vals: &[T],
    scales: &[f32],
    (codes, sums): &mut (Vec<A>, Vec<A>),
    out: &mut [f32],
) {
    let (w, zp, s_b) = (block.w, block.params.zero_point(), block.params.scale());
    let s = block.c0 & 1;
    let zero = A::default();
    codes.clear();
    codes.resize((s + w).div_ceil(2) * 2, zero);
    sums.resize(v.d, zero);
    let vrows = vals[(block.c0 / 2) * 2 * v.dp..].chunks_exact(2 * v.dp);
    for r in 0..h {
        for (k, c) in codes[s..s + w].iter_mut().enumerate() {
            *c = A::centered(code_at::<BITS>(block.bytes, r * w + k), zp);
        }
        sums.fill(zero);
        for (cp, vrow) in codes.chunks_exact(2).zip(vrows.clone()) {
            let (c0, c1) = (cp[0], cp[1]);
            if c0 == zero && c1 == zero {
                continue; // zero operands: no contribution to an exact sum
            }
            for (s, pair) in sums.iter_mut().zip(vrow.chunks_exact(2)) {
                *s = *s + (c0 * pair[0].into() + c1 * pair[1].into());
            }
        }
        let orow = &mut out[r * v.d..(r + 1) * v.d];
        for ((o, &a), &s_c) in orow.iter_mut().zip(sums.iter()).zip(scales) {
            *o += a.to_f32() * (s_b * s_c);
        }
    }
}

/// Scalar reference of the affine quantize map — element for element
/// exactly [`crate::QuantParams::quantize`]:
/// `clamp(round(x/s) + z, 0, max_code)` with `round` half-away-from-zero
/// and the sum taken in i64.
fn quantize_codes_scalar(values: &[f32], scale: f32, zp: i32, max_code: u32, out: &mut [u32]) {
    for (o, &x) in out.iter_mut().zip(values) {
        let q = ((x / scale).round() as i64).saturating_add(zp as i64);
        *o = q.clamp(0, max_code as i64) as u32;
    }
}

/// Scalar reference of the per-lane fake-quantization error map — lane
/// for lane exactly [`crate::QuantParams::fake_quant`]:
/// `x̂ = s·(clamp(round(x/s) + z, 0, max_code) − z)` with the code
/// centered in i64, then `err = (x − x̂)²` and `sq = x²`.
fn fake_quant_sq_errors_scalar(
    values: &[f32],
    scales: &[f32],
    zero_points: &[i32],
    max_code: u32,
    (err, sq): (&mut [f32], &mut [f32]),
) {
    for ((((&x, &s), &z), e2), x2) in values
        .iter()
        .zip(scales)
        .zip(zero_points)
        .zip(err.iter_mut())
        .zip(sq.iter_mut())
    {
        let code = ((x / s).round() as i64)
            .saturating_add(z as i64)
            .clamp(0, max_code as i64);
        let e = x - s * (code - z as i64) as f32;
        *e2 = e * e;
        *x2 = x * x;
    }
}

/// Scalar reference of the symmetric INT8 map — element for element
/// exactly [`crate::SymmetricInt8::quantize_rowwise`]'s inner loop:
/// non-finite values quantize to 0, everything else to
/// `clamp(round(x/s), −127, 127)`.
fn quantize_symmetric_scalar(values: &[f32], scale: f32, out: &mut [i8]) {
    for (o, &x) in out.iter_mut().zip(values) {
        let v = if x.is_finite() { x } else { 0.0 };
        *o = (v / scale).round().clamp(-127.0, 127.0) as i8;
    }
}

/// Rounded magnitudes below this bound (2³⁰) convert to i32 exactly and
/// cannot overflow the i32 zero-point add (itself bounded by it); any
/// other lane — including NaN/∞ — falls back to the scalar map.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const QUANTIZE_SAFE_BOUND: f32 = 1_073_741_824.0;

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{
        fake_quant_sq_errors_scalar, quantize_codes_scalar, quantize_symmetric_scalar, BlockRef,
        VPairs, QUANTIZE_SAFE_BOUND,
    };
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Mask of the first `lanes` (< 8) of 8 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tail_mask(lanes: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(lanes as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }

    /// `out[0..8] += sums as f32 · scales[0..8]` — conversion, multiply
    /// and add in that order — or only the first `lanes` of them (masked
    /// loads and store) when `FULL` is false.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and 8 (or `lanes`, when not `FULL`) values
    /// at `out` and at `scales`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dequant_add<const FULL: bool>(
        out: *mut f32,
        scales: *const f32,
        lanes: usize,
        sums: __m256i,
    ) {
        let sums = _mm256_cvtepi32_ps(sums);
        if FULL {
            let add = _mm256_mul_ps(sums, _mm256_loadu_ps(scales));
            _mm256_storeu_ps(out, _mm256_add_ps(_mm256_loadu_ps(out), add));
        } else {
            let mask = tail_mask(lanes);
            let add = _mm256_mul_ps(sums, _mm256_maskload_ps(scales, mask));
            let sum = _mm256_add_ps(_mm256_maskload_ps(out, mask), add);
            _mm256_maskstore_ps(out, mask, sum);
        }
    }

    /// `NV · 8` output columns of one row at `out`: the sums of the
    /// row's `np` code pairs (`pairs`, two i16 each) times the matching
    /// `V` pair rows (`v`, `pstride` i16 apart), held in `NV` ymm
    /// registers across the whole row, then dequantized into `out` with
    /// `scales`.
    ///
    /// # Safety
    /// Caller must ensure AVX2, `np` pairs at `pairs`, `np` pair rows
    /// of at least `16 · NV` i16 from `v`, and [`dequant_add`]'s bounds
    /// for every 8 columns (all full when `FULL`, the one chunk holding
    /// `lanes` otherwise).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn row_chunk<const NV: usize, const FULL: bool>(
        pairs: *const i16,
        np: usize,
        v: *const i16,
        pstride: usize,
        out: *mut f32,
        scales: *const f32,
        lanes: usize,
    ) {
        let mut acc = [_mm256_setzero_si256(); NV];
        for i in 0..np {
            let cp = _mm256_set1_epi32((pairs.add(2 * i) as *const i32).read_unaligned());
            let vp = v.add(i * pstride);
            for (c, a) in acc.iter_mut().enumerate() {
                let vv = _mm256_loadu_si256(vp.add(16 * c) as *const __m256i);
                *a = _mm256_add_epi32(*a, _mm256_madd_epi16(vv, cp));
            }
        }
        for (c, a) in acc.iter().enumerate() {
            dequant_add::<FULL>(out.add(8 * c), scales.add(8 * c), lanes, *a);
        }
    }

    /// The block's codes centered on `zp` as i16 pairs, `np` per row
    /// (returned): row `r`'s pair `i` holds elements `2i − s` and
    /// `2i + 1 − s` of the row (`s` = 1 for a block at an odd key
    /// offset), zero outside it.
    ///
    /// # Safety
    /// `bytes` must hold `h · w` codes at `BITS` bits, and they must fit
    /// i16 once centered on `zp`.
    unsafe fn centered_pairs<const BITS: usize>(
        bytes: &[u8],
        zp: i32,
        h: usize,
        w: usize,
        s: usize,
        halves: &mut Vec<i16>,
    ) -> usize {
        let np = (s + w).div_ceil(2);
        let mask = ((1u16 << BITS) - 1) as u8;
        halves.clear();
        halves.resize(h * 2 * np, 0);
        for (r, row) in halves.chunks_exact_mut(2 * np).enumerate() {
            for (k, x) in row[s..s + w].iter_mut().enumerate() {
                let e = r * w + k;
                let code = (*bytes.get_unchecked(e * BITS / 8) >> (e * BITS % 8)) & mask;
                *x = (code as i32 - zp) as i16;
            }
        }
        np
    }

    /// The AVX2 block body: the block's codes become centered i16 pairs
    /// once, the block's scale products `s_b · s_c` one row of floats,
    /// and each of its `h` rows goes through [`row_chunk`] 64 output
    /// columns at a time while they last, then 8 at a time, the last 8
    /// masked if `d` is ragged.
    ///
    /// # Safety
    /// Caller must ensure AVX2, `block` holding `h · w` codes at `BITS`
    /// that fit i16 once centered on its zero point (and sums that stay
    /// in i32, for exact output), keys inside `v`'s rows, `vals` the
    /// narrow values of `v`, `d` scales and `out` of `h · d` values (`d`
    /// = `v`'s columns).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn attn_v_avx2<const BITS: usize>(
        block: &BlockRef,
        h: usize,
        v: &VPairs,
        vals: &[i16],
        scales: &[f32],
        (halves, scale_row): &mut (Vec<i16>, Vec<f32>),
        out: &mut [f32],
    ) {
        let (d, k0, s_b) = (v.d, block.c0, block.params.scale());
        let np = centered_pairs::<BITS>(
            block.bytes,
            block.params.zero_point(),
            h,
            block.w,
            k0 & 1,
            halves,
        );
        scale_row.clear();
        scale_row.extend(scales.iter().map(|&s_c| s_b * s_c));
        let pstride = 2 * v.dp;
        let vk = vals.as_ptr().add((k0 / 2) * pstride);
        let sc = scale_row.as_ptr();
        for r in 0..h {
            let pairs = halves.as_ptr().add(r * 2 * np);
            let orow = out.as_mut_ptr().add(r * d);
            let mut j = 0;
            while j + 64 <= d {
                let (vj, oj, sj) = (vk.add(2 * j), orow.add(j), sc.add(j));
                row_chunk::<8, true>(pairs, np, vj, pstride, oj, sj, 8);
                j += 64;
            }
            while j + 8 <= d {
                let (vj, oj, sj) = (vk.add(2 * j), orow.add(j), sc.add(j));
                row_chunk::<1, true>(pairs, np, vj, pstride, oj, sj, 8);
                j += 8;
            }
            if j < d {
                let (vj, oj, sj) = (vk.add(2 * j), orow.add(j), sc.add(j));
                row_chunk::<1, false>(pairs, np, vj, pstride, oj, sj, d - j);
            }
        }
    }

    /// `f32::round` (half away from zero) of every lane, which is *not*
    /// a hardware rounding mode, rebuilt as truncate + bump: a lane whose
    /// dropped fraction is ≥ 0.5 adds ±1 with the operand's sign. The
    /// bump is only ever nonzero below 2²⁴ (larger floats are already
    /// integers), so the add is exact. NaN stays NaN.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn round_half_away(r: __m256) -> __m256 {
        let signmask = _mm256_set1_ps(-0.0);
        let t = _mm256_round_ps(r, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
        let frac = _mm256_andnot_ps(signmask, _mm256_sub_ps(r, t));
        let bump = _mm256_and_ps(
            _mm256_cmp_ps(frac, _mm256_set1_ps(0.5), _CMP_GE_OQ),
            _mm256_or_ps(_mm256_and_ps(signmask, r), _mm256_set1_ps(1.0)),
        );
        _mm256_add_ps(t, bump)
    }

    // Bit-identical AVX2 replication of the scalar quantize map. IEEE
    // division is correctly rounded, so `divps` matches scalar `/` lane
    // for lane, and [`round_half_away`] rebuilds `f32::round`; any lane
    // whose rounded magnitude reaches [`QUANTIZE_SAFE_BOUND`] — including
    // NaN/∞, which fail the ordered compare — is redone through the
    // scalar map instead of trusting `cvtps` out-of-range behavior.

    /// # Safety
    /// Caller must ensure AVX2 and `|zp| ≤ 2³⁰`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_codes_avx2(
        values: &[f32],
        scale: f32,
        zp: i32,
        max_code: u32,
        out: &mut [u32],
    ) {
        let sv = _mm256_set1_ps(scale);
        let signmask = _mm256_set1_ps(-0.0);
        let bound = _mm256_set1_ps(QUANTIZE_SAFE_BOUND);
        let zpv = _mm256_set1_epi32(zp);
        let zero = _mm256_setzero_si256();
        let maxv = _mm256_set1_epi32(max_code as i32);
        let n = values.len().min(out.len());
        let mut j = 0usize;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(values.as_ptr().add(j));
            let r = _mm256_div_ps(x, sv);
            let rounded = round_half_away(r);
            let safe = _mm256_cmp_ps(_mm256_andnot_ps(signmask, rounded), bound, _CMP_LT_OQ);
            if _mm256_movemask_ps(safe) != 0xFF {
                quantize_codes_scalar(&values[j..j + 8], scale, zp, max_code, &mut out[j..j + 8]);
                j += 8;
                continue;
            }
            let code = _mm256_add_epi32(_mm256_cvtps_epi32(rounded), zpv);
            let clamped = _mm256_min_epi32(_mm256_max_epi32(code, zero), maxv);
            _mm256_storeu_si256(out.as_mut_ptr().add(j) as *mut __m256i, clamped);
            j += 8;
        }
        quantize_codes_scalar(&values[j..n], scale, zp, max_code, &mut out[j..n]);
    }

    /// The quantize map above with a scale and zero point per lane, then
    /// the dequantization `s · (code − z)` (centered in i32, converted
    /// and multiplied in that order) and both squares. Eight lanes whose
    /// rounded magnitude or zero point passes [`QUANTIZE_SAFE_BOUND`]
    /// (NaN and ∞ included) are redone through the scalar map; any other
    /// code stays within `±(2³⁰ + max_code)`, so every i32 step is exact.
    ///
    /// # Safety
    /// Caller must ensure AVX2, `max_code < 2³⁰`, and `scales`,
    /// `zero_points`, `err` and `sq` each holding `values.len()` values.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fake_quant_sq_errors_avx2(
        values: &[f32],
        scales: &[f32],
        zero_points: &[i32],
        max_code: u32,
        (err, sq): (&mut [f32], &mut [f32]),
    ) {
        let signmask = _mm256_set1_ps(-0.0);
        let bound = _mm256_set1_ps(QUANTIZE_SAFE_BOUND);
        let zp_hi = _mm256_set1_epi32(1 << 30);
        let zp_lo = _mm256_set1_epi32(-(1 << 30));
        let zero = _mm256_setzero_si256();
        let maxv = _mm256_set1_epi32(max_code as i32);
        let n = values.len();
        let mut j = 0usize;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(values.as_ptr().add(j));
            let s = _mm256_loadu_ps(scales.as_ptr().add(j));
            let z = _mm256_loadu_si256(zero_points.as_ptr().add(j) as *const __m256i);
            let r = _mm256_div_ps(x, s);
            let rounded = round_half_away(r);
            let safe = _mm256_cmp_ps(_mm256_andnot_ps(signmask, rounded), bound, _CMP_LT_OQ);
            let wide_zp =
                _mm256_or_si256(_mm256_cmpgt_epi32(z, zp_hi), _mm256_cmpgt_epi32(zp_lo, z));
            if _mm256_movemask_ps(safe) != 0xFF || _mm256_movemask_epi8(wide_zp) != 0 {
                let lanes = j..j + 8;
                fake_quant_sq_errors_scalar(
                    &values[lanes.clone()],
                    &scales[lanes.clone()],
                    &zero_points[lanes.clone()],
                    max_code,
                    (&mut err[lanes.clone()], &mut sq[lanes]),
                );
                j += 8;
                continue;
            }
            let code = _mm256_add_epi32(_mm256_cvtps_epi32(rounded), z);
            let code = _mm256_min_epi32(_mm256_max_epi32(code, zero), maxv);
            let xh = _mm256_mul_ps(s, _mm256_cvtepi32_ps(_mm256_sub_epi32(code, z)));
            let e = _mm256_sub_ps(x, xh);
            _mm256_storeu_ps(err.as_mut_ptr().add(j), _mm256_mul_ps(e, e));
            _mm256_storeu_ps(sq.as_mut_ptr().add(j), _mm256_mul_ps(x, x));
            j += 8;
        }
        fake_quant_sq_errors_scalar(
            &values[j..],
            &scales[j..],
            &zero_points[j..],
            max_code,
            (&mut err[j..], &mut sq[j..]),
        );
    }

    // The symmetric map needs no safe-lane fallback: the dispatcher
    // guarantees a positive finite scale, so `x/s` is NaN-free for any
    // finite `x`, non-finite inputs are masked to 0 (an ordered `|x| < ∞`
    // compare rejects NaN too), and the ±127 clamp happens in f32 *before*
    // the i32 convert — even an ∞ quotient (subnormal scale) clamps to
    // exactly what the scalar map produces.

    /// # Safety
    /// Caller must ensure AVX2 and a positive finite `scale`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn quantize_symmetric_avx2(values: &[f32], scale: f32, out: &mut [i8]) {
        let sv = _mm256_set1_ps(scale);
        let signmask = _mm256_set1_ps(-0.0);
        let inf = _mm256_set1_ps(f32::INFINITY);
        let lim = _mm256_set1_ps(127.0);
        let nlim = _mm256_set1_ps(-127.0);
        let n = values.len().min(out.len());
        let mut tmp = [0i32; 8];
        let mut j = 0usize;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(values.as_ptr().add(j));
            let finite = _mm256_cmp_ps(_mm256_andnot_ps(signmask, x), inf, _CMP_LT_OQ);
            let r = _mm256_div_ps(x, sv);
            let rounded = round_half_away(r);
            let clamped = _mm256_min_ps(_mm256_max_ps(rounded, nlim), lim);
            let q = _mm256_cvtps_epi32(_mm256_and_ps(clamped, finite));
            _mm256_storeu_si256(tmp.as_mut_ptr() as *mut __m256i, q);
            for (o, &c) in out[j..j + 8].iter_mut().zip(&tmp) {
                *o = c as i8;
            }
            j += 8;
        }
        quantize_symmetric_scalar(&values[j..n], scale, &mut out[j..n]);
    }
}

/// One live packed block of an `h`-row block row on the chosen kernel:
/// `out[r][j] += (Σ_k (code[r][k] − z_b) · v[c0 + k][j]) as f32 ·
/// (s_b · scales[j])`, the sum exact and the scaling in that order, where the block's keys are `v`'s rows `c0..c0 + w` and `out`
/// holds `h` rows of `v`'s `d` columns. A 0-bit block adds nothing.
///
/// # Panics
///
/// If the CPU does not support `kernel`, if the keys pass `v`'s rows, if
/// the payload holds fewer than `h · w` codes, or if `scales` and `out`
/// do not hold `d` and `h · d` values: the bounds the AVX2 body relies
/// on.
pub(crate) fn attn_v_block(
    kernel: Kernel,
    block: &BlockRef,
    h: usize,
    v: &VPairs,
    scales: &[f32],
    scratch: &mut BlockScratch,
    out: &mut [f32],
) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    assert!(
        block.c0 + block.w <= v.rows
            && scales.len() == v.d
            && out.len() == h * v.d
            && block.bytes.len() >= PackedCodes::bytes_for(h * block.w, block.bits),
        "block outside its operands"
    );
    match block.bits {
        Bitwidth::B0 => {} // nothing stored, nothing accumulated
        Bitwidth::B2 => attn_v_on::<2>(kernel, block, h, v, scales, scratch, out),
        Bitwidth::B4 => attn_v_on::<4>(kernel, block, h, v, scales, scratch, out),
        Bitwidth::B8 => attn_v_on::<8>(kernel, block, h, v, scales, scratch, out),
    }
}

/// [`attn_v_block`] at `BITS` bits: AVX2 where the kernel and the
/// operands' ranges allow it, the scalar reference otherwise — on i32
/// sums within the block's bound, on i128 sums past it.
#[inline]
fn attn_v_on<const BITS: usize>(
    kernel: Kernel,
    block: &BlockRef,
    h: usize,
    v: &VPairs,
    scales: &[f32],
    scratch: &mut BlockScratch,
    out: &mut [f32],
) {
    // Centered codes span `[−zp, max − zp]`; every partial sum of a
    // block within `w · max_c · max|centered V| < 2³¹` fits i32.
    let zp = block.params.zero_point();
    let max_c = zp.unsigned_abs().max(zp.abs_diff((1 << BITS) - 1));
    let in_i32 = (block.w as u64).saturating_mul(u64::from(max_c)) <= v.sum_limit;
    match (kernel, &v.vals) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted by `attn_v_block`),
        // which also checked the keys, payload, scales and output against
        // the operand; the guard bounds the centered codes and the sums.
        (Kernel::Avx2, PairVals::Narrow(vals)) if in_i32 && max_c <= i16::MAX as u32 => unsafe {
            x86::attn_v_avx2::<BITS>(block, h, v, vals, scales, &mut scratch.avx2, out)
        },
        (_, PairVals::Narrow(vals)) if in_i32 => {
            attn_v_scalar::<BITS, i16, i32>(block, h, v, vals, scales, &mut scratch.scalar, out)
        }
        (_, PairVals::Narrow(vals)) => {
            attn_v_scalar::<BITS, i16, i128>(block, h, v, vals, scales, &mut scratch.exact, out)
        }
        (_, PairVals::Wide(vals)) => {
            attn_v_scalar::<BITS, i64, i128>(block, h, v, vals, scales, &mut scratch.exact, out)
        }
    }
}

/// `out[i] = clamp(round(values[i]/scale) + zp, 0, max_code)` on the
/// chosen kernel — the per-block inner loop of
/// [`crate::MixedPrecisionMap::quantize`]. Bit-identical to
/// [`crate::QuantParams::quantize`] per element on every kernel: unsafe
/// lanes (rounded magnitude ≥ 2³⁰, NaN, ∞) and out-of-bound zero points
/// are redone through the scalar map.
pub(crate) fn quantize_codes(
    kernel: Kernel,
    values: &[f32],
    scale: f32,
    zp: i32,
    max_code: u32,
    out: &mut [u32],
) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    debug_assert_eq!(values.len(), out.len());
    // The AVX2 path adds `zp` in i32; a zero point past the safe bound
    // could overflow the add, so such a block runs scalar end to end.
    // (Min-max calibration never produces one — correctness just must
    // not depend on that.)
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above) and the guard
        // bounds `zp`.
        Kernel::Avx2 if zp.unsigned_abs() <= 1 << 30 => unsafe {
            x86::quantize_codes_avx2(values, scale, zp, max_code, out)
        },
        _ => quantize_codes_scalar(values, scale, zp, max_code, out),
    }
}

/// The squared fake-quantization error of one row whose lanes carry their
/// own parameters, on the chosen kernel: for `x = values[i]` and `x̂`
/// its fake quantization at `bits` with scale `scales[i]` and zero point
/// `zero_points[i]`, `err[i] = (x − x̂)²` and `sq[i] = x²`.
///
/// A row of a block-quantized map holds one lane per column, each with
/// its block's parameters, so a caller streams a map row by row and sums
/// the errors in row-major order. For a positive finite scale, `x̂` is
/// bit for bit [`crate::QuantParams::fake_quant`] of the lane's
/// parameters on every kernel (at `B0`, `x̂ = 0`): AVX2 divides (no
/// reciprocal), rounds half away from zero, and redoes through the
/// scalar map any lane whose `|round(x/s)|` reaches 2³⁰ or whose `|z|`
/// passes it, NaN and ±∞ included.
///
/// # Panics
///
/// If the CPU does not support `kernel`, or if `scales`, `zero_points`,
/// `err` and `sq` do not each hold `values.len()` values: the bounds the
/// AVX2 body relies on.
pub fn fake_quant_sq_errors(
    kernel: Kernel,
    values: &[f32],
    scales: &[f32],
    zero_points: &[i32],
    bits: Bitwidth,
    err: &mut [f32],
    sq: &mut [f32],
) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    let n = values.len();
    assert!(
        scales.len() == n && zero_points.len() == n && err.len() == n && sq.len() == n,
        "lane parameters and outputs must match the row"
    );
    if bits == Bitwidth::B0 {
        // Every value reads back as 0, whatever its parameters.
        for ((e2, x2), &x) in err.iter_mut().zip(sq.iter_mut()).zip(values) {
            *e2 = x * x;
            *x2 = x * x;
        }
        return;
    }
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 and every slice holds `n` values
        // (both asserted above); a bitwidth's largest code is below 2³⁰.
        Kernel::Avx2 => unsafe {
            x86::fake_quant_sq_errors_avx2(values, scales, zero_points, bits.max_code(), (err, sq))
        },
        _ => fake_quant_sq_errors_scalar(values, scales, zero_points, bits.max_code(), (err, sq)),
    }
}

/// `out[i] = clamp(round(values[i]/scale), −127, 127)` as signed INT8
/// (non-finite values → 0) on the chosen kernel — the per-row inner loop
/// of [`crate::SymmetricInt8::quantize_rowwise`]. Bit-identical to the
/// scalar map on every kernel.
pub(crate) fn quantize_symmetric_i8(kernel: Kernel, values: &[f32], scale: f32, out: &mut [i8]) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    debug_assert_eq!(values.len(), out.len());
    // A non-positive or non-finite scale routes NaN quotients through the
    // scalar map's NaN semantics; rowwise calibration never produces one
    // — correctness just must not depend on that.
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above) and the guard
        // bounds `scale`.
        Kernel::Avx2 if scale.is_finite() && scale > 0.0 => unsafe {
            x86::quantize_symmetric_avx2(values, scale, out)
        },
        _ => quantize_symmetric_scalar(values, scale, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S_B: f32 = 0.37;

    /// One block of `v`'s rows `k0..` on `kernel`, added into output rows
    /// of 0.5, as bits.
    #[allow(clippy::too_many_arguments)]
    fn run_block(
        kernel: Kernel,
        bits: Bitwidth,
        packed: &PackedCodes,
        zp: i32,
        h: usize,
        k0: usize,
        v: &VPairs,
        scales: &[f32],
    ) -> Vec<u32> {
        let (w, d) = (packed.len() / h, v.cols());
        let block = BlockRef {
            c0: k0,
            w,
            elems: h * w,
            bits,
            params: crate::QuantParams::new(S_B, zp, bits),
            bytes: packed.as_bytes(),
        };
        let mut out = vec![0.5f32; h * d];
        let mut scratch = BlockScratch::default();
        attn_v_block(kernel, &block, h, v, scales, &mut scratch, &mut out);
        out.iter().map(|x| x.to_bits()).collect()
    }

    /// 8-bit `V` codes (`rows × d`, row-major) and their columns' zero
    /// points.
    struct TestV {
        codes: Vec<u32>,
        zps: Vec<i32>,
        d: usize,
    }

    impl TestV {
        fn new(rows: usize, d: usize, code: fn(usize, usize) -> u32, zp: fn(usize) -> i32) -> Self {
            TestV {
                codes: (0..rows * d).map(|i| code(i / d, i % d)).collect(),
                zps: (0..d).map(zp).collect(),
                d,
            }
        }

        fn pairs(&self) -> VPairs {
            VPairs::new(
                &self.codes,
                self.codes.len() / self.d,
                self.d,
                &self.zps,
                255,
            )
        }

        fn centered(&self, k: usize, j: usize) -> i128 {
            i128::from(self.codes[k * self.d + j]) - i128::from(self.zps[j])
        }
    }

    /// [`run_block`]'s contract by plain loops over the `h × w` codes and
    /// the centered `V`, sums exact in i128.
    fn oracle(codes: &[u32], zp: i32, h: usize, k0: usize, v: &TestV, scales: &[f32]) -> Vec<u32> {
        let w = codes.len() / h;
        let mut out = Vec::with_capacity(h * v.d);
        for r in 0..h {
            for (j, &s_c) in scales.iter().enumerate() {
                let sum: i128 = (0..w)
                    .map(|k| {
                        (i128::from(codes[r * w + k]) - i128::from(zp)) * v.centered(k0 + k, j)
                    })
                    .sum();
                out.push((0.5 + sum as f32 * (S_B * s_c)).to_bits());
            }
        }
        out
    }

    /// Every supported kernel must produce the plain-loop oracle's output
    /// bits: at even and odd key offsets (a zero-padded first pair), odd
    /// widths (a zero-padded last pair, and an odd operand's padded last
    /// row), ragged column tails and rows wider than one 64-column chunk.
    #[test]
    fn block_gemm_kernels_agree_on_odd_shapes() {
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            for (h, w, d, k0, rows) in [
                (3, 85, 7, 0, 85),
                (2, 5, 70, 1, 7),
                (4, 6, 64, 3, 9),
                (1, 1, 9, 4, 5),
                (6, 5, 130, 5, 10),
            ] {
                let max = bits.max_code();
                let codes: Vec<u32> = (0..h * w).map(|i| (i as u32 * 7 + 3) % (max + 1)).collect();
                let packed = PackedCodes::pack(&codes, bits).unwrap();
                // Centered `V` spans ±255: zero points 0, 255 and 128.
                let v = TestV::new(
                    rows,
                    d,
                    |k, j| ((k * 31 + j * 7) % 256) as u32,
                    |j| [0, 255, 128][j % 3],
                );
                let scales: Vec<f32> = (0..d).map(|j| 0.01 + j as f32 * 1e-3).collect();
                let zp = (max / 2) as i32;
                let want = oracle(&codes, zp, h, k0, &v, &scales);
                for kernel in Kernel::supported() {
                    let got = run_block(kernel, bits, &packed, zp, h, k0, &v.pairs(), &scales);
                    assert_eq!(got, want, "kernel={kernel} bits={bits} w={w} d={d} k0={k0}");
                }
            }
        }
    }

    /// Operands outside i16 or past the i32 bound — a zero point far from
    /// the code range, or a centered `V` past ±32767 — fall back to the
    /// scalar reference on every kernel: with i32 sums while the block's
    /// bound holds, with exact i128 sums past it.
    #[test]
    fn attn_v_out_of_i16_operands_agree() {
        let (h, w, d) = (3, 6, 12);
        let codes: Vec<u32> = (0..h * w).map(|i| (i as u32 * 37) % 256).collect();
        let packed = PackedCodes::pack(&codes, Bitwidth::B8).unwrap();
        let scales = vec![0.25f32; d];
        let narrow = TestV::new(
            w,
            d,
            |k, j| ((k * 3 + j * 40) % 256) as u32,
            |j| [0, 255, 100][j % 3],
        );
        let wide = TestV::new(
            w,
            d,
            |k, j| ((k * 3 + j * 40) % 256) as u32,
            |j| [1_000_000, -2_000_000_000, i32::MIN, i32::MAX][j % 4],
        );
        assert!(matches!(narrow.pairs().vals, PairVals::Narrow(_)));
        assert!(matches!(wide.pairs().vals, PairVals::Wide(_)));
        for (v, zp) in [
            (&narrow, -40_000),
            (&narrow, 32_769),
            (&narrow, 32_768),
            (&narrow, 255 - 32_767),
            (&narrow, -25_409_026),
            (&narrow, i32::MIN),
            (&narrow, i32::MAX),
            (&wide, 7),
            (&wide, i32::MIN),
        ] {
            let want = oracle(&codes, zp, h, 0, v, &scales);
            for kernel in Kernel::supported() {
                let got = run_block(kernel, Bitwidth::B8, &packed, zp, h, 0, &v.pairs(), &scales);
                assert_eq!(got, want, "kernel={kernel} zp={zp}");
            }
        }
    }

    /// The pair layout stores i16: half the bytes of i32 rows once the
    /// padding to whole pairs and 8 columns is paid.
    #[test]
    fn narrow_pairs_halve_the_operand() {
        let v = TestV::new(1152, 64, |k, j| ((k + j) % 256) as u32, |_| 128);
        assert_eq!(v.pairs().bytes(), 1152 * 64 * 2);
        let odd = TestV::new(5, 3, |_, _| 1, |_| 0);
        assert_eq!(odd.pairs().bytes(), 3 * 2 * 8 * 2);
    }

    /// The zero points alone choose the layout: 8-bit codes centered on a
    /// zero point in `[255 − 32767, 32767]` always fit i16, and on any
    /// other zero point they never all do. Both layouts hold the same
    /// values, zero-padded alike.
    #[test]
    fn layout_follows_the_zero_points() {
        let code = |k: usize, j: usize| ((k * 5 + j * 11) % 256) as u32;
        for (zp, narrow) in [
            (32_767, true),
            (255 - 32_767, true),
            (32_768, false),
            (255 - 32_768, false),
        ] {
            let v = TestV::new(5, 3, code, |_| 0);
            let v = TestV {
                zps: vec![7, zp, 7],
                ..v
            };
            let pairs = v.pairs();
            let vals: Vec<i128> = match &pairs.vals {
                PairVals::Narrow(x) if narrow => x.iter().map(|&a| a.into()).collect(),
                PairVals::Wide(x) if !narrow => x.iter().map(|&a| a.into()).collect(),
                other => panic!("zp={zp}: {other:?}"),
            };
            for k in 0..6 {
                for j in 0..8 {
                    let want = if k < 5 && j < 3 { v.centered(k, j) } else { 0 };
                    assert_eq!(
                        vals[(k / 2) * 16 + 2 * j + (k & 1)],
                        want,
                        "zp={zp} k={k} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_kernels_agree_including_unsafe_lanes() {
        // Mixed ordinary / half-way / huge / non-finite values with an odd
        // length (lane tail), plus a zero point past the SIMD-safe bound
        // (whole-call scalar fallback). Half-way values pin the
        // round-half-away-from-zero rebuild against nearest-even `cvtps`.
        let mut values: Vec<f32> = (0..37).map(|i| (i as f32 - 18.0) * 0.173).collect();
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
        ]);
        for (scale, zp) in [(0.01f32, 7), (1.0e-30, 0), (1.0, -3), (0.37, i32::MAX)] {
            let mut want = vec![0u32; values.len()];
            quantize_codes(Kernel::Scalar, &values, scale, zp, 255, &mut want);
            for kernel in Kernel::supported() {
                let mut got = vec![0u32; values.len()];
                quantize_codes(kernel, &values, scale, zp, 255, &mut got);
                assert_eq!(got, want, "kernel={kernel} scale={scale} zp={zp}");
            }
        }
    }

    #[test]
    fn symmetric_quantize_kernels_agree_including_nonfinite_lanes() {
        // Ordinary values (odd length → lane tail), exact halves pinning
        // the round-half-away rebuild, non-finite inputs (→ 0), and an
        // ∞ quotient from a subnormal scale (→ ±127 via the f32 clamp).
        let mut values: Vec<f32> = (0..41).map(|i| (i as f32 - 20.0) * 6.3).collect();
        values.extend([
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            -0.5,
            1.5,
            -2.5,
            -0.0,
            1.0e30,
        ]);
        for scale in [1.0f32, 0.173, 1.0e-39, 1.0e30, f32::NAN, -1.0, 0.0] {
            let mut want = vec![0i8; values.len()];
            quantize_symmetric_scalar(&values, scale, &mut want);
            for kernel in Kernel::supported() {
                let mut got = vec![0i8; values.len()];
                quantize_symmetric_i8(kernel, &values, scale, &mut got);
                assert_eq!(got, want, "kernel={kernel} scale={scale}");
            }
        }
    }
}
