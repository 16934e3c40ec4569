//! Integer micro-kernels with runtime SIMD dispatch: packed `AttnV`,
//! the unpacked-operand GEMM and the two quantize maps.
//!
//! This module is the compute backend of [`crate::packed_attn_v`], the
//! fused executor's [`crate::AttnVOperand`] and
//! [`crate::quantized_gemm_i32`]. It dispatches on the same [`Kernel`]
//! value as the f32 kernels in [`paro_tensor::kernel`], so one process
//! runs one consistent kernel set.
//!
//! Every loop has two bodies: the scalar reference and AVX2. The packed
//! `AttnV` block multiplies a block's 2/4/8-bit codes, centered on its
//! zero point, with `V` codes centered on theirs:
//!
//! - `V` is laid out once per head as [`VPairs`]: consecutive key rows
//!   interleaved column by column as i16 pairs, the operand form of
//!   `vpmaddwd`. A centered 8-bit code spans ±255, so it fits i16; one
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
//! Every product is exact and the sums are wrapping i32 additions, which
//! are associative, so both bodies are **bit-identical** for any summation
//! order — pinned by `tests/kernel_equivalence.rs` on every kernel the
//! host supports. Min-max calibration can put a zero point far outside
//! the code range (a group much narrower than its distance from zero);
//! a block whose centered codes, or a head whose centered `V`, would not
//! fit i16 runs the scalar reference instead, so correctness does not
//! depend on the data.
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

/// k-dimension tile edge of the unpacked-operand GEMM (shared with the
/// f32 drivers).
pub(crate) const TILE_K: usize = paro_tensor::kernel::TILE_K;

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
}

#[derive(Debug, Clone)]
enum PairVals {
    /// Every value fits i16: the form both bodies run on.
    Narrow(Vec<i16>),
    /// Some value does not: only the scalar reference runs, on i32.
    Wide(Vec<i32>),
}

impl VPairs {
    /// The operand of the `rows × d` centered codes `value(k, j)`.
    pub(crate) fn new(rows: usize, d: usize, value: impl Fn(usize, usize) -> i32) -> Self {
        let dp = d.next_multiple_of(COL_LANES);
        let mut narrow = vec![0i16; rows.div_ceil(2) * 2 * dp];
        for k in 0..rows {
            let base = (k / 2) * 2 * dp + (k & 1);
            for j in 0..d {
                let x = value(k, j);
                if x != x as i16 as i32 {
                    return Self::wide(rows, d, dp, value);
                }
                narrow[base + 2 * j] = x as i16;
            }
        }
        VPairs {
            vals: PairVals::Narrow(narrow),
            rows,
            d,
            dp,
        }
    }

    /// [`VPairs::new`] for values that do not all fit i16.
    #[cold]
    fn wide(rows: usize, d: usize, dp: usize, value: impl Fn(usize, usize) -> i32) -> Self {
        let mut wide = vec![0i32; rows.div_ceil(2) * 2 * dp];
        for k in 0..rows {
            let base = (k / 2) * 2 * dp + (k & 1);
            for j in 0..d {
                wide[base + 2 * j] = value(k, j);
            }
        }
        VPairs {
            vals: PairVals::Wide(wide),
            rows,
            d,
            dp,
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
            PairVals::Wide(v) => 4 * v.len(),
        }
    }
}

/// Reusable buffers of the block bodies: the scalar reference's centered
/// codes and row of sums, and the AVX2 body's centered code pairs and
/// scale products.
#[derive(Debug, Default)]
pub(crate) struct BlockScratch {
    scalar: (Vec<i32>, Vec<i32>),
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

/// Scalar reference block body: per row, the row's codes centered on the
/// block's zero point (zero where a pair passes the block's keys), each
/// pair of them times its `V` pair row summed in i32 — a pair of zero
/// codes is skipped — and `out[r][j] += sum as f32 · (s_b · s_c)`.
fn attn_v_scalar<const BITS: usize, T: Copy + Into<i32>>(
    block: &BlockRef,
    h: usize,
    v: &VPairs,
    vals: &[T],
    scales: &[f32],
    (codes, sums): &mut (Vec<i32>, Vec<i32>),
    out: &mut [f32],
) {
    let (w, zp, s_b) = (block.w, block.params.zero_point(), block.params.scale());
    let s = block.c0 & 1;
    codes.clear();
    codes.resize((s + w).div_ceil(2) * 2, 0);
    sums.resize(v.d, 0);
    let vrows = vals[(block.c0 / 2) * 2 * v.dp..].chunks_exact(2 * v.dp);
    for r in 0..h {
        for (k, c) in codes[s..s + w].iter_mut().enumerate() {
            *c = code_at::<BITS>(block.bytes, r * w + k).wrapping_sub(zp);
        }
        sums.fill(0);
        for (cp, vrow) in codes.chunks_exact(2).zip(vrows.clone()) {
            let (c0, c1) = (cp[0], cp[1]);
            if c0 == 0 && c1 == 0 {
                continue; // zero operands: no contribution in exact i32
            }
            for (s, pair) in sums.iter_mut().zip(vrow.chunks_exact(2)) {
                let t = c0.wrapping_mul(pair[0].into());
                *s = s.wrapping_add(t.wrapping_add(c1.wrapping_mul(pair[1].into())));
            }
        }
        let orow = &mut out[r * v.d..(r + 1) * v.d];
        for ((o, &a), &s_c) in orow.iter_mut().zip(sums.iter()).zip(scales) {
            *o += a as f32 * (s_b * s_c);
        }
    }
}

/// `arow[j] += mv · vrow[j]` over `min(arow.len(), vrow.len())` lanes.
#[inline(always)]
fn axpy_i32_scalar(arow: &mut [i32], vrow: &[i32], mv: i32) {
    for (o, &vv) in arow.iter_mut().zip(vrow) {
        *o += mv * vv;
    }
}

/// Unpacked-operand GEMM body ([`crate::quantized_gemm_i32`]'s inner
/// loops) shared by the scalar and AVX2 kernels, `$axpy` selecting the
/// ISA: `A` codes are centered on the fly, rows walk the `k` dimension in
/// [`TILE_K`] segments so each `B` panel is streamed once per tile, zero
/// `A` operands skip their row.
macro_rules! gemm_body {
    ($axpy:ident, $a:ident, $za:ident, $b:ident, $m:ident, $k:ident, $n:ident, $out:ident) => {{
        for i in 0..$m {
            let arow = &$a[i * $k..(i + 1) * $k];
            let orow = &mut $out[i * $n..(i + 1) * $n];
            let mut k0 = 0usize;
            while k0 < $k {
                let kt = TILE_K.min($k - k0);
                for (p, &code) in arow[k0..k0 + kt].iter().enumerate() {
                    let av = code as i32 - $za;
                    if av == 0 {
                        continue; // exact zero contribution
                    }
                    let brow = &$b[(k0 + p) * $n..(k0 + p + 1) * $n];
                    $axpy(orow, brow, av);
                }
                k0 += kt;
            }
        }
    }};
}

fn gemm_i32_scalar(a: &[u32], za: i32, b: &[i32], m: usize, k: usize, n: usize, out: &mut [i32]) {
    gemm_body!(axpy_i32_scalar, a, za, b, m, k, n, out)
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
        axpy_i32_scalar, quantize_codes_scalar, quantize_symmetric_scalar, BlockRef, VPairs,
        QUANTIZE_SAFE_BOUND, TILE_K,
    };
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// `arow[j] += mv · vrow[j]`, 8 i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn axpy_i32_avx2(arow: &mut [i32], vrow: &[i32], mv: i32) {
        let n = arow.len().min(vrow.len());
        let vm = _mm256_set1_epi32(mv);
        let mut j = 0usize;
        while j + 8 <= n {
            let o = _mm256_loadu_si256(arow.as_ptr().add(j) as *const __m256i);
            let v = _mm256_loadu_si256(vrow.as_ptr().add(j) as *const __m256i);
            _mm256_storeu_si256(
                arow.as_mut_ptr().add(j) as *mut __m256i,
                _mm256_add_epi32(o, _mm256_mullo_epi32(vm, v)),
            );
            j += 8;
        }
        axpy_i32_scalar(&mut arow[j..n], &vrow[j..n], mv);
    }

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
    /// that fit i16 once centered on its zero point, keys inside `v`'s
    /// rows, `vals` the narrow values of `v`, `d` scales and `out` of
    /// `h · d` values (`d` = `v`'s columns).
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

    /// # Safety
    /// Caller must ensure the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_i32_avx2(
        a: &[u32],
        za: i32,
        b: &[i32],
        m: usize,
        k: usize,
        n: usize,
        out: &mut [i32],
    ) {
        gemm_body!(axpy_i32_avx2, a, za, b, m, k, n, out)
    }

    // Bit-identical AVX2 replication of the scalar quantize map. IEEE
    // division is correctly rounded, so `divps` matches scalar `/` lane
    // for lane; `f32::round` (half away from zero) is *not* a hardware
    // rounding mode, so it is rebuilt as truncate + bump: a lane whose
    // dropped fraction is ≥ 0.5 adds ±1 with the operand's sign. The
    // bump is only ever nonzero below 2²⁴ (larger floats are already
    // integers), so the add is exact; any lane whose rounded magnitude
    // reaches [`QUANTIZE_SAFE_BOUND`] — including NaN/∞, which fail the
    // ordered compare — is redone through the scalar map instead of
    // trusting `cvtps` out-of-range behavior.

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
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
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
            let t = _mm256_round_ps(r, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
            let frac = _mm256_andnot_ps(signmask, _mm256_sub_ps(r, t));
            let bump = _mm256_and_ps(
                _mm256_cmp_ps(frac, half, _CMP_GE_OQ),
                _mm256_or_ps(_mm256_and_ps(signmask, r), one),
            );
            let rounded = _mm256_add_ps(t, bump);
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
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
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
            let t = _mm256_round_ps(r, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
            let frac = _mm256_andnot_ps(signmask, _mm256_sub_ps(r, t));
            let bump = _mm256_and_ps(
                _mm256_cmp_ps(frac, half, _CMP_GE_OQ),
                _mm256_or_ps(_mm256_and_ps(signmask, r), one),
            );
            let rounded = _mm256_add_ps(t, bump);
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
/// (s_b · scales[j])`, the sum exact in i32 and the scaling in that
/// order, where the block's keys are `v`'s rows `c0..c0 + w` and `out`
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
/// operands' ranges allow it, the scalar reference otherwise.
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
    // Centered codes span `[−zp, max − zp]`.
    let zp = block.params.zero_point();
    let codes_fit = zp <= -(i16::MIN as i32) && zp >= (1 << BITS) - 1 - i16::MAX as i32;
    match (kernel, &v.vals) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted by `attn_v_block`),
        // which also checked the keys, payload, scales and output against
        // the operand; the guard bounds the centered codes.
        (Kernel::Avx2, PairVals::Narrow(vals)) if codes_fit => unsafe {
            x86::attn_v_avx2::<BITS>(block, h, v, vals, scales, &mut scratch.avx2, out)
        },
        (_, PairVals::Narrow(vals)) => {
            attn_v_scalar::<BITS, i16>(block, h, v, vals, scales, &mut scratch.scalar, out)
        }
        (_, PairVals::Wide(vals)) => {
            attn_v_scalar::<BITS, i32>(block, h, v, vals, scales, &mut scratch.scalar, out)
        }
    }
}

/// `out[i][j] += Σ_p (a[i][p] − za) · b[p][j]` (`b` pre-centered) on the
/// chosen kernel — the tiled inner loops of [`crate::quantized_gemm_i32`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_i32(
    kernel: Kernel,
    a: &[u32],
    za: i32,
    b: &[i32],
    m: usize,
    k: usize,
    n: usize,
    out: &mut [i32],
) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above).
        Kernel::Avx2 => unsafe { x86::gemm_i32_avx2(a, za, b, m, k, n, out) },
        _ => gemm_i32_scalar(a, za, b, m, k, n, out),
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

    /// [`run_block`]'s contract by plain loops over the `h × w` codes and
    /// the centered `V` values `value(k, j)`, sums wrapping in i32.
    fn oracle(
        codes: &[u32],
        zp: i32,
        h: usize,
        k0: usize,
        d: usize,
        value: impl Fn(usize, usize) -> i32,
        scales: &[f32],
    ) -> Vec<u32> {
        let w = codes.len() / h;
        let mut out = Vec::with_capacity(h * d);
        for r in 0..h {
            for (j, &s_c) in scales.iter().enumerate() {
                let sum = (0..w).fold(0i32, |acc, k| {
                    let c = (codes[r * w + k] as i32).wrapping_sub(zp);
                    acc.wrapping_add(c.wrapping_mul(value(k0 + k, j)))
                });
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
                let value = |k: usize, j: usize| ((k * 31 + j * 7) % 511) as i32 - 255;
                let v = VPairs::new(rows, d, value);
                let scales: Vec<f32> = (0..d).map(|j| 0.01 + j as f32 * 1e-3).collect();
                let zp = (max / 2) as i32;
                let want = oracle(&codes, zp, h, k0, d, value, &scales);
                for kernel in Kernel::supported() {
                    let got = run_block(kernel, bits, &packed, zp, h, k0, &v, &scales);
                    assert_eq!(got, want, "kernel={kernel} bits={bits} w={w} d={d} k0={k0}");
                }
            }
        }
    }

    /// Operands outside i16 — a zero point far from the code range, or a
    /// centered `V` past ±32767 — fall back to the scalar reference on
    /// every kernel, with wrapping sums.
    #[test]
    fn attn_v_out_of_i16_operands_agree() {
        let (h, w, d) = (3, 6, 12);
        let codes: Vec<u32> = (0..h * w).map(|i| (i as u32 * 37) % 256).collect();
        let packed = PackedCodes::pack(&codes, Bitwidth::B8).unwrap();
        let scales = vec![0.25f32; d];
        let narrow_at: fn(usize, usize) -> i32 = |k, j| (k as i32 * 3 - j as i32) % 256;
        let wide_at: fn(usize, usize) -> i32 = |k, j| (k as i32 - 2) * 1_000_000 + j as i32;
        let narrow = VPairs::new(w, d, narrow_at);
        let wide = VPairs::new(w, d, wide_at);
        assert!(matches!(narrow.vals, PairVals::Narrow(_)));
        assert!(matches!(wide.vals, PairVals::Wide(_)));
        for (v, value, zp) in [
            (&narrow, narrow_at, -40_000),
            (&narrow, narrow_at, 32_769),
            (&narrow, narrow_at, 32_768),
            (&narrow, narrow_at, 255 - 32_767),
            (&wide, wide_at, 7),
            (&narrow, narrow_at, i32::MIN),
        ] {
            let want = oracle(&codes, zp, h, 0, d, value, &scales);
            for kernel in Kernel::supported() {
                let got = run_block(kernel, Bitwidth::B8, &packed, zp, h, 0, v, &scales);
                assert_eq!(got, want, "kernel={kernel} zp={zp}");
            }
        }
    }

    /// The pair layout stores i16: half the bytes of i32 rows once the
    /// padding to whole pairs and 8 columns is paid.
    #[test]
    fn narrow_pairs_halve_the_operand() {
        let v = VPairs::new(1152, 64, |k, j| (k + j) as i32 % 511 - 255);
        assert_eq!(v.bytes(), 1152 * 64 * 2);
        let odd = VPairs::new(5, 3, |_, _| 1);
        assert_eq!(odd.bytes(), 3 * 2 * 8 * 2);
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

    #[test]
    fn gemm_kernels_agree_on_ragged_tails() {
        let (m, k, n) = (4, TILE_K + 5, 13); // n not a lane multiple
        let a: Vec<u32> = (0..m * k).map(|i| (i as u32 * 11) % 256).collect();
        let b: Vec<i32> = (0..k * n).map(|i| (i as i32 % 17) - 8).collect();
        let mut want = vec![0i32; m * n];
        gemm_i32(Kernel::Scalar, &a, 128, &b, m, k, n, &mut want);
        for kernel in Kernel::supported() {
            let mut got = vec![0i32; m * n];
            gemm_i32(kernel, &a, 128, &b, m, k, n, &mut got);
            assert_eq!(got, want, "kernel={kernel}");
        }
    }
}
