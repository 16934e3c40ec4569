//! i8×i8→i32 score micro-kernels for the `QKᵀ` path.
//!
//! The output-aware score computation (paper Sec. IV-B) multiplies a
//! panel of symmetric INT8 `Q` codes against a panel of (possibly
//! LDZ-truncated) INT8 `K` codes, one block at a time. This module is
//! that multiply: `acc[r][c] = Σ_j q[r][j] · k[c][j]` over contiguous
//! row-major panels, dispatched on the same [`Kernel`] value as every
//! other hot loop in the workspace.
//!
//! The AVX2 path widens 32 signed bytes at a time to i16 lanes
//! (`vpmovsxbw`) and multiply-accumulates pairs into i32 lanes
//! (`vpmaddwd` — exact: |product| ≤ 127² = 16129, and a pair sum fits
//! i16×2 comfortably inside i32). Every product is exact and i32
//! addition is associative, so the horizontal lane sum equals the
//! scalar left-to-right sum **bit for bit** on any input — pinned by
//! `tests/qkt_equivalence.rs` on all kernels the host supports. The
//! dispatcher asserts that the CPU supports the kernel it is given
//! before the AVX2 body runs.
//!
//! Accumulators do not overflow for any realistic head dimension:
//! |acc| ≤ d·127², so i32 holds every `d` up to ~133 000.

// The AVX2 path needs `unsafe` for intrinsics; bounds are established by
// the safe dispatchers (shapes validated by the public wrappers).
#![allow(unsafe_code)]

use crate::QuantError;
use paro_tensor::kernel::{active_kernel, Kernel};

fn qkt_scalar(q: &[i8], h: usize, k: &[i8], w: usize, d: usize, acc: &mut [i32]) {
    for r in 0..h {
        let qrow = &q[r * d..(r + 1) * d];
        let arow = &mut acc[r * w..(r + 1) * w];
        for (c, slot) in arow.iter_mut().enumerate() {
            let krow = &k[c * d..(c + 1) * d];
            let mut sum = 0i32;
            for (&a, &b) in qrow.iter().zip(krow) {
                sum += a as i32 * b as i32;
            }
            *slot = sum;
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// Horizontal sum of 4 i32 lanes (exact — i32 addition commutes).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi32_sse(v: __m128i) -> i32 {
        let hi = _mm_add_epi32(v, _mm_shuffle_epi32(v, 0b01_00_11_10));
        _mm_cvtsi128_si32(_mm_add_epi32(hi, _mm_shuffle_epi32(hi, 0b00_00_00_01)))
    }

    /// i8 dot product over `n` elements, 32 bytes per step.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_i8_avx2(a: *const i8, b: *const i8, n: usize) -> i32 {
        let mut accv = _mm256_setzero_si256();
        let mut j = 0usize;
        while j + 32 <= n {
            let av = _mm256_loadu_si256(a.add(j) as *const __m256i);
            let bv = _mm256_loadu_si256(b.add(j) as *const __m256i);
            let alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(av));
            let ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(av, 1));
            let blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(bv));
            let bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(bv, 1));
            accv = _mm256_add_epi32(accv, _mm256_madd_epi16(alo, blo));
            accv = _mm256_add_epi32(accv, _mm256_madd_epi16(ahi, bhi));
            j += 32;
        }
        if j + 16 <= n {
            let av = _mm_loadu_si128(a.add(j) as *const __m128i);
            let bv = _mm_loadu_si128(b.add(j) as *const __m128i);
            accv = _mm256_add_epi32(
                accv,
                _mm256_madd_epi16(_mm256_cvtepi8_epi16(av), _mm256_cvtepi8_epi16(bv)),
            );
            j += 16;
        }
        let lanes = _mm_add_epi32(
            _mm256_castsi256_si128(accv),
            _mm256_extracti128_si256(accv, 1),
        );
        let mut sum = hsum_epi32_sse(lanes);
        while j < n {
            sum += *a.add(j) as i32 * *b.add(j) as i32;
            j += 1;
        }
        sum
    }

    /// # Safety
    /// Caller must ensure AVX2 and validated panel shapes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn qkt_avx2(
        q: &[i8],
        h: usize,
        k: &[i8],
        w: usize,
        d: usize,
        acc: &mut [i32],
    ) {
        for r in 0..h {
            let qp = q.as_ptr().add(r * d);
            let arow = &mut acc[r * w..(r + 1) * w];
            for (c, slot) in arow.iter_mut().enumerate() {
                *slot = dot_i8_avx2(qp, k.as_ptr().add(c * d), d);
            }
        }
    }
}

/// `acc[r][c] = Σ_j q[r][j] · k[c][j]` on the chosen kernel over
/// contiguous row-major panels (`q` is `h·d`, `k` is `w·d` — `k` rows
/// are *keys*, i.e. the panel is already transposed relative to the
/// score matrix). Results overwrite `acc` (`h·w`).
fn qkt_i8_i32(kernel: Kernel, q: &[i8], h: usize, k: &[i8], w: usize, d: usize, acc: &mut [i32]) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above); shapes are
        // validated by the public wrapper.
        Kernel::Avx2 => unsafe { x86::qkt_avx2(q, h, k, w, d, acc) },
        _ => qkt_scalar(q, h, k, w, d, acc),
    }
}

/// One `QKᵀ` block's integer score accumulators on the active
/// [`Kernel`]: `acc[r][c] = Σ_j q[r·d+j] · k[c·d+j]`.
///
/// `q` holds `h` query rows of `d` codes, `k` holds `w` key rows of `d`
/// codes (both row-major, contiguous), and `acc` receives `h·w` i32
/// results (overwritten, not accumulated).
///
/// # Errors
///
/// Returns [`QuantError::PackedLengthMismatch`] if any slice length
/// disagrees with `h`, `w`, `d`.
pub fn qkt_block_i32(
    q: &[i8],
    h: usize,
    k: &[i8],
    w: usize,
    d: usize,
    acc: &mut [i32],
) -> Result<(), QuantError> {
    qkt_block_i32_with(q, h, k, w, d, acc, active_kernel())
}

/// [`qkt_block_i32`] on an explicit [`Kernel`]. Accumulators are
/// bit-identical across kernels (exact products, associative i32
/// accumulation).
///
/// # Errors
///
/// Same as [`qkt_block_i32`].
pub fn qkt_block_i32_with(
    q: &[i8],
    h: usize,
    k: &[i8],
    w: usize,
    d: usize,
    acc: &mut [i32],
    kernel: Kernel,
) -> Result<(), QuantError> {
    if q.len() != h * d {
        return Err(QuantError::PackedLengthMismatch {
            bytes: q.len(),
            expected: h * d,
        });
    }
    if k.len() != w * d {
        return Err(QuantError::PackedLengthMismatch {
            bytes: k.len(),
            expected: w * d,
        });
    }
    if acc.len() != h * w {
        return Err(QuantError::PackedLengthMismatch {
            bytes: acc.len(),
            expected: h * w,
        });
    }
    qkt_i8_i32(kernel, q, h, k, w, d, acc);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_on_ragged_depths() {
        // Depths straddling the 16/32-byte AVX2 steps, including tails.
        for d in [1usize, 7, 15, 16, 17, 31, 32, 33, 48, 64, 100] {
            let (h, w) = (3usize, 5usize);
            let q: Vec<i8> = (0..h * d).map(|i| ((i * 37 + 11) % 255) as i8).collect();
            let k: Vec<i8> = (0..w * d).map(|i| ((i * 91 + 5) % 255) as i8).collect();
            let mut want = vec![0i32; h * w];
            qkt_block_i32_with(&q, h, &k, w, d, &mut want, Kernel::Scalar).unwrap();
            for kernel in Kernel::supported() {
                let mut got = vec![0i32; h * w];
                qkt_block_i32_with(&q, h, &k, w, d, &mut got, kernel).unwrap();
                assert_eq!(got, want, "kernel={kernel} d={d}");
            }
        }
    }

    #[test]
    fn matches_hand_dot() {
        let q: Vec<i8> = vec![1, -2, 3, 4, -5, 6];
        let k: Vec<i8> = vec![7, 8, -9, -1, 2, 3];
        let mut acc = vec![0i32; 4];
        qkt_block_i32(&q, 2, &k, 2, 3, &mut acc).unwrap();
        // [1·7 − 2·8 − 3·9, −1 − 4 + 9, 4·7 − 5·8 − 6·9, −4 − 10 + 18]
        assert_eq!(acc, vec![-36, 4, -66, 4]);
    }

    #[test]
    fn validation() {
        let q = vec![0i8; 6];
        let k = vec![0i8; 6];
        let mut acc = vec![0i32; 4];
        assert!(qkt_block_i32(&q, 2, &k, 2, 3, &mut acc).is_ok());
        assert!(qkt_block_i32(&q, 2, &k, 3, 3, &mut acc).is_err());
        assert!(qkt_block_i32(&q, 3, &k, 2, 3, &mut acc).is_err());
        assert!(qkt_block_i32(&q, 2, &k, 2, 2, &mut acc).is_err());
    }
}
