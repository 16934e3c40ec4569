//! Per-bitwidth integer micro-kernels with runtime SIMD dispatch.
//!
//! This module is the compute backend of [`crate::packed_attn_v`] and
//! [`crate::quantized_gemm_i32`]: tile-wise unpack of 2/4/8-bit packed
//! codes fused with an i32 multiply-accumulate against the `V` / `B`
//! operand rows. It dispatches on the same [`Kernel`] value as the f32
//! kernels in [`paro_tensor::kernel`], so one process runs one
//! consistent kernel set.
//!
//! Every loop has two bodies: the scalar reference and AVX2. Structure
//! shared by both:
//!
//! - rows are walked in [`TILE`]-code tiles; each tile is unpacked from
//!   the packed bytes straight into a zero-point-centered stack buffer
//!   (AVX2 widens 8 codes at a time — `vpsrlvd` variable shifts for
//!   2/4-bit, `vpmovzxbd` for 8-bit), then MAC'd immediately while it is
//!   L1-hot — the packed map bytes are streamed exactly once per tile;
//! - a centered code of 0 contributes nothing in exact i32 arithmetic
//!   and skips its `V` row (the element-level sparsity below the B0
//!   block bypass); the AVX2 block path multiplies zeros instead — its
//!   register-blocked MAC keeps the accumulators in ymm registers across
//!   the whole tile and stays branch-free, which is worth more than the
//!   skipped work, and a zero term is exactly a no-op in i32;
//! - the MAC itself is a `d`-wide i32 axpy (`vpmulld` + `vpaddd` on
//!   AVX2).
//!
//! i32 addition is associative, and no kernel reorders the per-output
//! accumulation anyway, so both paths are **bit-identical** — pinned by
//! `tests/kernel_equivalence.rs` on all kernels the host supports.
//!
//! Each dispatcher asserts that the CPU supports the kernel it is given
//! before any AVX2 body runs, so a safe caller passing
//! [`Kernel::Avx2`] on a CPU without AVX2 panics instead of executing
//! instructions the CPU lacks.

// The AVX2 paths need `unsafe` for intrinsics; bounds are established by
// the safe dispatchers (shapes validated by the callers).
#![allow(unsafe_code)]

use crate::Bitwidth;
pub use paro_tensor::kernel::{active_kernel, Kernel};

/// Elements unpacked per tile: one stack buffer refill of the inner MAC
/// loop. 64 codes = 16 packed bytes at 2 bits — a cache-line-ish chunk.
pub(crate) const TILE: usize = 64;

/// k-dimension tile edge of the unpacked-operand GEMM (shared with the
/// f32 drivers).
pub(crate) const TILE_K: usize = paro_tensor::kernel::TILE_K;

/// Scalar bit-extract of `tile.len()` codes starting at element `elem0`,
/// zero-point-centered. Codes never straddle bytes (8 % bits == 0).
#[inline(always)]
fn unpack_centered_scalar(
    bytes: &[u8],
    bits: usize,
    mask: u8,
    elem0: usize,
    zp: i32,
    tile: &mut [i32],
) {
    for (ti, slot) in tile.iter_mut().enumerate() {
        let bit0 = (elem0 + ti) * bits;
        *slot = ((bytes[bit0 / 8] >> (bit0 % 8)) & mask) as i32 - zp;
    }
}

#[inline(always)]
fn unpack_b2_scalar(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
    unpack_centered_scalar(bytes, 2, 0x3, elem0, zp, tile);
}

#[inline(always)]
fn unpack_b4_scalar(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
    unpack_centered_scalar(bytes, 4, 0xF, elem0, zp, tile);
}

#[inline(always)]
fn unpack_b8_scalar(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
    unpack_centered_scalar(bytes, 8, 0xFF, elem0, zp, tile);
}

/// `arow[j] += mv · vrow[j]` over `min(arow.len(), vrow.len())` lanes.
#[inline(always)]
fn axpy_i32_scalar(arow: &mut [i32], vrow: &[i32], mv: i32) {
    for (o, &vv) in arow.iter_mut().zip(vrow) {
        *o += mv * vv;
    }
}

/// Scalar block GEMM: per block row, [`TILE`]-code tiles are unpacked
/// (centered) by `unpack` and immediately MAC'd against the matching `V`
/// rows.
#[allow(clippy::too_many_arguments)]
fn block_gemm_scalar(
    unpack: impl Fn(&[u8], usize, i32, &mut [i32]),
    bytes: &[u8],
    zp: i32,
    h: usize,
    w: usize,
    v: &[i32],
    d: usize,
    acc: &mut [i32],
) {
    let mut tile = [0i32; TILE];
    for lr in 0..h {
        let row_base = lr * w;
        let arow = &mut acc[lr * d..(lr + 1) * d];
        let mut k0 = 0usize;
        while k0 < w {
            let t = TILE.min(w - k0);
            unpack(bytes, row_base + k0, zp, &mut tile[..t]);
            for (ti, &mv) in tile[..t].iter().enumerate() {
                if mv == 0 {
                    continue; // zero operand: no contribution in exact i32
                }
                let vrow = &v[(k0 + ti) * d..(k0 + ti + 1) * d];
                axpy_i32_scalar(arow, vrow, mv);
            }
            k0 += t;
        }
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
        axpy_i32_scalar, quantize_codes_scalar, quantize_symmetric_scalar, unpack_b2_scalar,
        unpack_b4_scalar, unpack_b8_scalar, QUANTIZE_SAFE_BOUND, TILE, TILE_K,
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

    /// Register-blocked tile MAC: `arow[j] += Σ_ti tile[ti] · v[ti·d + j]`.
    ///
    /// The per-code axpy shape stores the accumulator row after every
    /// code and reloads it for the next, putting a store→load forward on
    /// the critical path `t` times per row. Here the accumulators live in
    /// ymm registers across the whole tile — the row is loaded/stored
    /// once per 32-column chunk — and zero codes are multiplied instead
    /// of branched around: in exact i32 a zero operand contributes
    /// nothing either way, so bit-identity with the skipping scalar body
    /// holds while the inner loop stays branch-free.
    ///
    /// # Safety
    /// Caller must ensure AVX2 and that `v` holds at least
    /// `tile.len() · d` elements; `arow` must be at least `d` long.
    #[target_feature(enable = "avx2")]
    unsafe fn tile_mac_avx2(tile: &[i32], v: &[i32], d: usize, arow: &mut [i32]) {
        debug_assert!(v.len() >= tile.len() * d);
        debug_assert!(arow.len() >= d);
        let mut j = 0usize;
        // 64-column chunks first — 8 ymm accumulators fill the register
        // file and cover the model's whole `d = 64` row in one pass.
        while j + 64 <= d {
            let ap = arow.as_mut_ptr().add(j);
            let mut a = [
                _mm256_loadu_si256(ap as *const __m256i),
                _mm256_loadu_si256(ap.add(8) as *const __m256i),
                _mm256_loadu_si256(ap.add(16) as *const __m256i),
                _mm256_loadu_si256(ap.add(24) as *const __m256i),
                _mm256_loadu_si256(ap.add(32) as *const __m256i),
                _mm256_loadu_si256(ap.add(40) as *const __m256i),
                _mm256_loadu_si256(ap.add(48) as *const __m256i),
                _mm256_loadu_si256(ap.add(56) as *const __m256i),
            ];
            for (ti, &mv) in tile.iter().enumerate() {
                let vm = _mm256_set1_epi32(mv);
                let vp = v.as_ptr().add(ti * d + j);
                for (c, acc) in a.iter_mut().enumerate() {
                    *acc = _mm256_add_epi32(
                        *acc,
                        _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp.add(8 * c) as *const __m256i)),
                    );
                }
            }
            for (c, acc) in a.iter().enumerate() {
                _mm256_storeu_si256(ap.add(8 * c) as *mut __m256i, *acc);
            }
            j += 64;
        }
        while j + 32 <= d {
            let ap = arow.as_mut_ptr().add(j);
            let mut a0 = _mm256_loadu_si256(ap as *const __m256i);
            let mut a1 = _mm256_loadu_si256(ap.add(8) as *const __m256i);
            let mut a2 = _mm256_loadu_si256(ap.add(16) as *const __m256i);
            let mut a3 = _mm256_loadu_si256(ap.add(24) as *const __m256i);
            for (ti, &mv) in tile.iter().enumerate() {
                let vm = _mm256_set1_epi32(mv);
                let vp = v.as_ptr().add(ti * d + j);
                let m0 = _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp as *const __m256i));
                let m1 = _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp.add(8) as *const __m256i));
                let m2 = _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp.add(16) as *const __m256i));
                let m3 = _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp.add(24) as *const __m256i));
                a0 = _mm256_add_epi32(a0, m0);
                a1 = _mm256_add_epi32(a1, m1);
                a2 = _mm256_add_epi32(a2, m2);
                a3 = _mm256_add_epi32(a3, m3);
            }
            _mm256_storeu_si256(ap as *mut __m256i, a0);
            _mm256_storeu_si256(ap.add(8) as *mut __m256i, a1);
            _mm256_storeu_si256(ap.add(16) as *mut __m256i, a2);
            _mm256_storeu_si256(ap.add(24) as *mut __m256i, a3);
            j += 32;
        }
        while j + 8 <= d {
            let ap = arow.as_mut_ptr().add(j);
            let mut a0 = _mm256_loadu_si256(ap as *const __m256i);
            for (ti, &mv) in tile.iter().enumerate() {
                let vm = _mm256_set1_epi32(mv);
                let vp = v.as_ptr().add(ti * d + j);
                a0 = _mm256_add_epi32(
                    a0,
                    _mm256_mullo_epi32(vm, _mm256_loadu_si256(vp as *const __m256i)),
                );
            }
            _mm256_storeu_si256(ap as *mut __m256i, a0);
            j += 8;
        }
        if j < d {
            for (ti, &mv) in tile.iter().enumerate() {
                if mv == 0 {
                    continue;
                }
                axpy_i32_scalar(&mut arow[j..d], &v[ti * d + j..ti * d + d], mv);
            }
        }
    }

    /// AVX2 2-bit unpack: after realigning to a byte boundary (4 codes
    /// per byte), each 16-bit load yields 8 codes via `vpsrlvd` variable
    /// shifts + mask, widened to centered i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_b2_avx2(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
        let t = tile.len();
        let mut ti = 0usize;
        while ti < t && (elem0 + ti) & 3 != 0 {
            ti += 1;
        }
        unpack_b2_scalar(bytes, elem0, zp, &mut tile[..ti.min(t)]);
        let zpv = _mm256_set1_epi32(zp);
        let shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
        let mask = _mm256_set1_epi32(0x3);
        while ti + 8 <= t {
            let base = (elem0 + ti) / 4;
            let word = u16::from_le_bytes([bytes[base], bytes[base + 1]]) as i32;
            let codes = _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(word), shifts), mask);
            _mm256_storeu_si256(
                tile.as_mut_ptr().add(ti) as *mut __m256i,
                _mm256_sub_epi32(codes, zpv),
            );
            ti += 8;
        }
        unpack_b2_scalar(bytes, elem0 + ti, zp, &mut tile[ti..]);
    }

    /// AVX2 4-bit unpack: one 32-bit load (2 codes per byte) yields 8
    /// codes via `vpsrlvd` + mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_b4_avx2(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
        let t = tile.len();
        let mut ti = 0usize;
        while ti < t && (elem0 + ti) & 1 != 0 {
            ti += 1;
        }
        unpack_b4_scalar(bytes, elem0, zp, &mut tile[..ti.min(t)]);
        let zpv = _mm256_set1_epi32(zp);
        let shifts = _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
        let mask = _mm256_set1_epi32(0xF);
        while ti + 8 <= t {
            let base = (elem0 + ti) / 2;
            let word = i32::from_le_bytes([
                bytes[base],
                bytes[base + 1],
                bytes[base + 2],
                bytes[base + 3],
            ]);
            let codes = _mm256_and_si256(_mm256_srlv_epi32(_mm256_set1_epi32(word), shifts), mask);
            _mm256_storeu_si256(
                tile.as_mut_ptr().add(ti) as *mut __m256i,
                _mm256_sub_epi32(codes, zpv),
            );
            ti += 8;
        }
        unpack_b4_scalar(bytes, elem0 + ti, zp, &mut tile[ti..]);
    }

    /// AVX2 8-bit unpack: `vpmovzxbd` widens 8 bytes to 8 i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_b8_avx2(bytes: &[u8], elem0: usize, zp: i32, tile: &mut [i32]) {
        let t = tile.len();
        let zpv = _mm256_set1_epi32(zp);
        let mut ti = 0usize;
        while ti + 8 <= t {
            let lo = _mm_loadl_epi64(bytes.as_ptr().add(elem0 + ti) as *const __m128i);
            let codes = _mm256_cvtepu8_epi32(lo);
            _mm256_storeu_si256(
                tile.as_mut_ptr().add(ti) as *mut __m256i,
                _mm256_sub_epi32(codes, zpv),
            );
            ti += 8;
        }
        unpack_b8_scalar(bytes, elem0 + ti, zp, &mut tile[ti..]);
    }

    /// The AVX2 block drivers swap the per-code axpy for the
    /// register-blocked [`tile_mac_avx2`] — same tile walk as
    /// `block_gemm_scalar`, different MAC shape.
    macro_rules! avx2_block_driver {
        ($name:ident, $unpack:ident) => {
            /// # Safety
            /// Caller must ensure the CPU supports AVX2.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(
                bytes: &[u8],
                zp: i32,
                h: usize,
                w: usize,
                v: &[i32],
                d: usize,
                acc: &mut [i32],
            ) {
                let mut tile = [0i32; TILE];
                for lr in 0..h {
                    let row_base = lr * w;
                    let arow = &mut acc[lr * d..(lr + 1) * d];
                    let mut k0 = 0usize;
                    while k0 < w {
                        let t = TILE.min(w - k0);
                        $unpack(bytes, row_base + k0, zp, &mut tile[..t]);
                        tile_mac_avx2(&tile[..t], &v[k0 * d..], d, arow);
                        k0 += t;
                    }
                }
            }
        };
    }

    avx2_block_driver!(block_gemm_avx2_b2, unpack_b2_avx2);
    avx2_block_driver!(block_gemm_avx2_b4, unpack_b4_avx2);
    avx2_block_driver!(block_gemm_avx2_b8, unpack_b8_avx2);

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

/// One packed block's `acc[r][c] += Σ_k (code[r][k] − zp) · v[k][c]` on
/// the chosen kernel. `bytes` holds `h·w` packed codes at `bits`;
/// `v` is `w·d` centered i32; `acc` is `h·d`. Shapes are validated by
/// the public wrapper ([`crate::packed_block_gemm_i32_with`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn block_gemm(
    kernel: Kernel,
    bits: Bitwidth,
    bytes: &[u8],
    zp: i32,
    h: usize,
    w: usize,
    v: &[i32],
    d: usize,
    acc: &mut [i32],
) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    match (kernel, bits) {
        (_, Bitwidth::B0) => {} // nothing stored, nothing accumulated
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above).
        (Kernel::Avx2, Bitwidth::B2) => unsafe {
            x86::block_gemm_avx2_b2(bytes, zp, h, w, v, d, acc)
        },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        (Kernel::Avx2, Bitwidth::B4) => unsafe {
            x86::block_gemm_avx2_b4(bytes, zp, h, w, v, d, acc)
        },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        (Kernel::Avx2, Bitwidth::B8) => unsafe {
            x86::block_gemm_avx2_b8(bytes, zp, h, w, v, d, acc)
        },
        (_, Bitwidth::B2) => block_gemm_scalar(unpack_b2_scalar, bytes, zp, h, w, v, d, acc),
        (_, Bitwidth::B4) => block_gemm_scalar(unpack_b4_scalar, bytes, zp, h, w, v, d, acc),
        (_, Bitwidth::B8) => block_gemm_scalar(unpack_b8_scalar, bytes, zp, h, w, v, d, acc),
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
    use crate::PackedCodes;

    /// Every supported kernel must produce the same accumulators as the
    /// scalar reference on a shape that exercises realignment (odd tile
    /// starts for the packed unpack) and ragged axpy tails.
    #[test]
    fn block_gemm_kernels_agree_on_odd_shapes() {
        for bits in [Bitwidth::B2, Bitwidth::B4, Bitwidth::B8] {
            let (h, w, d) = (3, TILE + 21, 7); // w odd → mid-byte rows for b2/b4
            let max = bits.max_code();
            let codes: Vec<u32> = (0..h * w).map(|i| (i as u32 * 7 + 3) % (max + 1)).collect();
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            let v: Vec<i32> = (0..w * d).map(|i| (i as i32 % 9) - 4).collect();
            let zp = (max / 2) as i32;
            let mut want = vec![0i32; h * d];
            block_gemm(
                Kernel::Scalar,
                bits,
                packed.as_bytes(),
                zp,
                h,
                w,
                &v,
                d,
                &mut want,
            );
            for kernel in Kernel::supported() {
                let mut got = vec![0i32; h * d];
                block_gemm(kernel, bits, packed.as_bytes(), zp, h, w, &v, d, &mut got);
                assert_eq!(got, want, "kernel={kernel} bits={bits}");
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
