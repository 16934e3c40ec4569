//! Integer `QKᵀ` score kernels: symmetric INT8 `Q` and `K` codes
//! multiplied in exact i32 sums and scaled to f32 scores.
//!
//! The output-aware score computation (paper Sec. IV-B) multiplies each
//! query row with the `K` rows of the live blocks of its block row,
//! each `K` row possibly LDZ-truncated to its block's bitwidth. Both
//! operands are held as [`WideRows`]: codes widened to i16 and
//! zero-padded to 16 lanes, the operand form of `vpmaddwd`. A head's `K`
//! panels are widened once, and a block row's queries once per block
//! row.
//!
//! [`qkt_scores_with`] walks the scored key columns 8 at a time, across
//! span and panel boundaries. The AVX2 body keeps one ymm of pair sums
//! per key (`vpmaddwd` — exact: |product| ≤ 127·128, and a pair sum fits
//! i32), reduces the 8 keys' sums to one ymm of 8 scores with a `vphaddd`
//! tree, then converts and scales them, `a · s_q · s_k · scale` in that
//! order, and stores them into the output row. A group short of 8 keys
//! repeats its last key and stores only its own lanes; zero padding makes
//! any head dimension run the same loop. Every product is exact and i32
//! addition is associative, so the scores equal the scalar reference's
//! **bit for bit** on any input — pinned by `tests/qkt_equivalence.rs`
//! on every kernel the host supports. The dispatcher asserts that the
//! CPU supports the kernel it is given before the AVX2 body runs.
//!
//! Sums do not overflow for any realistic head dimension: |sum| ≤
//! d·127·128, so i32 holds every `d` up to ~132 000.

// The AVX2 path needs `unsafe` for intrinsics; bounds are established by
// the safe dispatcher (shapes validated by the public wrapper).
#![allow(unsafe_code)]

use crate::QuantError;
use paro_tensor::kernel::Kernel;
use paro_tensor::TensorError;
use std::ops::Range;

/// i16 lanes of one AVX2 step; a [`WideRows`] row is zero-padded to a
/// multiple of it.
const LANES: usize = 16;

/// Keys one AVX2 step scores.
const KEYS: usize = 8;

/// Rows of symmetric INT8 codes widened to i16, each zero-padded to a
/// multiple of 16 lanes: the operand form of the score kernels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WideRows {
    codes: Vec<i16>,
    rows: usize,
    d: usize,
    stride: usize,
}

impl WideRows {
    /// `rows` rows of `d` codes (row-major), widened.
    ///
    /// # Errors
    ///
    /// [`QuantError::PackedLengthMismatch`] if `codes` does not hold
    /// `rows · d` values.
    pub fn new(codes: &[i8], rows: usize, d: usize) -> Result<Self, QuantError> {
        let mut wide = WideRows::default();
        wide.assign(codes, rows, d)?;
        Ok(wide)
    }

    /// Replaces the rows with `codes`, reusing the allocation.
    ///
    /// # Errors
    ///
    /// As [`WideRows::new`]; the rows are unchanged on error.
    pub fn assign(&mut self, codes: &[i8], rows: usize, d: usize) -> Result<(), QuantError> {
        if codes.len() != rows * d {
            return Err(QuantError::PackedLengthMismatch {
                bytes: codes.len(),
                expected: rows * d,
            });
        }
        let stride = d.next_multiple_of(LANES);
        self.codes.clear();
        self.codes.resize(rows * stride, 0);
        for (r, src) in codes.chunks_exact(d.max(1)).enumerate() {
            let dst = &mut self.codes[r * stride..r * stride + d];
            for (o, &c) in dst.iter_mut().zip(src) {
                *o = c as i16;
            }
        }
        (self.rows, self.d, self.stride) = (rows, d, stride);
        Ok(())
    }

    /// The same rows with `f` applied to every code (padding stays zero).
    pub fn map(&self, f: impl Fn(i8) -> i8) -> Self {
        let mut out = self.clone();
        for row in out.codes.chunks_exact_mut(self.stride.max(1)) {
            for c in &mut row[..self.d] {
                *c = f(*c as i8) as i16;
            }
        }
        out
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `i`, padding included.
    fn row(&self, i: usize) -> &[i16] {
        &self.codes[i * self.stride..(i + 1) * self.stride]
    }
}

/// A run of key columns scored against one panel of [`qkt_scores_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpan {
    /// Key columns (rows of the panel).
    pub cols: Range<usize>,
    /// Index of the panel in `panels`.
    pub panel: usize,
}

fn scores_scalar(
    q: &WideRows,
    q_scales: &[f32],
    panels: &[&WideRows],
    spans: &[KeySpan],
    k_scales: &[f32],
    scale: f32,
    out: &mut [f32],
) {
    let n = k_scales.len();
    for span in spans {
        let k = panels[span.panel];
        for c in span.cols.clone() {
            let krow = &k.row(c)[..k.d];
            for (r, &qs) in q_scales.iter().enumerate() {
                let mut sum = 0i32;
                for (&a, &b) in q.row(r).iter().zip(krow) {
                    sum += a as i32 * b as i32;
                }
                out[r * n + c] = sum as f32 * qs * k_scales[c] * scale;
            }
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    use super::{KeySpan, WideRows, KEYS, LANES};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The 8 lane sums of each of 8 accumulators, in one ymm.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce8(a: &[__m256i; KEYS]) -> __m256i {
        // Per 128-bit half: keys 0-3 (then 4-7) summed over that half.
        let s0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(a[0], a[1]), _mm256_hadd_epi32(a[2], a[3]));
        let s4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(a[4], a[5]), _mm256_hadd_epi32(a[6], a[7]));
        _mm256_add_epi32(
            _mm256_permute2x128_si256(s0123, s4567, 0x20),
            _mm256_permute2x128_si256(s0123, s4567, 0x31),
        )
    }

    /// Scores every query row against 8 keys (`keys`, rows of `q`'s
    /// stride, at columns `cols`) and stores the first `lanes` scores of
    /// each row into `out` (rows of `n`).
    ///
    /// # Safety
    /// Caller must ensure AVX2, key rows of `q.stride` i16, `cols`
    /// below `n` and below `k_scales.len()`, and `out` of `q.rows · n`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn group(
        q: &WideRows,
        q_scales: &[f32],
        keys: &[*const i16; KEYS],
        cols: &[usize; KEYS],
        lanes: usize,
        k_scales: &[f32],
        scale: f32,
        out: &mut [f32],
        n: usize,
    ) {
        let ks = cols.map(|c| *k_scales.get_unchecked(c));
        let ks = _mm256_loadu_ps(ks.as_ptr());
        let sv = _mm256_set1_ps(scale);
        // One store only where the 8 columns are consecutive: spans may
        // come in any order.
        let contiguous = lanes == KEYS && cols.windows(2).all(|p| p[1] == p[0] + 1);
        for (r, &qs) in q_scales.iter().enumerate() {
            let qp = q.codes.as_ptr().add(r * q.stride);
            let mut acc = [_mm256_setzero_si256(); KEYS];
            let mut t = 0;
            while t < q.stride {
                let qv = _mm256_loadu_si256(qp.add(t) as *const __m256i);
                for (a, &kp) in acc.iter_mut().zip(keys) {
                    let kv = _mm256_loadu_si256(kp.add(t) as *const __m256i);
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(qv, kv));
                }
                t += LANES;
            }
            let sums = _mm256_cvtepi32_ps(reduce8(&acc));
            let scores = _mm256_mul_ps(
                _mm256_mul_ps(_mm256_mul_ps(sums, _mm256_set1_ps(qs)), ks),
                sv,
            );
            let row = out.as_mut_ptr().add(r * n);
            if contiguous {
                _mm256_storeu_ps(row.add(cols[0]), scores);
            } else {
                let mut lane = [0.0f32; KEYS];
                _mm256_storeu_ps(lane.as_mut_ptr(), scores);
                for (&c, &s) in cols.iter().zip(&lane).take(lanes) {
                    *row.add(c) = s;
                }
            }
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 and shapes validated by
    /// [`super::qkt_scores_with`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scores_avx2(
        q: &WideRows,
        q_scales: &[f32],
        panels: &[&WideRows],
        spans: &[KeySpan],
        k_scales: &[f32],
        scale: f32,
        out: &mut [f32],
    ) {
        let n = k_scales.len();
        let mut keys = [std::ptr::null::<i16>(); KEYS];
        let mut cols = [0usize; KEYS];
        let mut lanes = 0;
        for span in spans {
            let k = panels[span.panel];
            for c in span.cols.clone() {
                keys[lanes] = k.codes.as_ptr().add(c * k.stride);
                cols[lanes] = c;
                lanes += 1;
                if lanes == KEYS {
                    group(q, q_scales, &keys, &cols, KEYS, k_scales, scale, out, n);
                    lanes = 0;
                }
            }
        }
        if lanes > 0 {
            // Pad the group with its last key; only its own lanes land.
            for i in lanes..KEYS {
                (keys[i], cols[i]) = (keys[lanes - 1], cols[lanes - 1]);
            }
            group(q, q_scales, &keys, &cols, lanes, k_scales, scale, out, n);
        }
    }
}

/// Scores query rows against the key columns of `spans`: `out[r·n + c]
/// = (Σ_j q[r][j] · k[c][j]) as f32 · q_scales[r] · k_scales[c] · scale`,
/// multiplied in that order, where `k` is the panel `panels[span.panel]`
/// of the span that holds column `c` and `n = k_scales.len()`. Spans may
/// come in any order; a column in several spans gets the last one's
/// score, and columns outside every span keep their values. Scores are
/// bit-identical across kernels (exact products, associative i32 sums).
///
/// # Errors
///
/// [`QuantError::PackedLengthMismatch`] if `q_scales` does not hold one
/// scale per query row, `out` is not `q.rows() · n`, a span names a
/// missing panel or runs past its panel's rows or past `n`; a tensor
/// dimension error if a panel's rows are not as long as the queries'.
///
/// # Panics
///
/// If the CPU does not support `kernel`.
#[allow(clippy::too_many_arguments)]
pub fn qkt_scores_with(
    q: &WideRows,
    q_scales: &[f32],
    panels: &[&WideRows],
    spans: &[KeySpan],
    k_scales: &[f32],
    scale: f32,
    out: &mut [f32],
    kernel: Kernel,
) -> Result<(), QuantError> {
    let n = k_scales.len();
    let check = |got: usize, expected: usize| {
        if got == expected {
            Ok(())
        } else {
            Err(QuantError::PackedLengthMismatch {
                bytes: got,
                expected,
            })
        }
    };
    check(q_scales.len(), q.rows)?;
    check(out.len(), q.rows * n)?;
    for span in spans {
        let Some(&k) = panels.get(span.panel) else {
            return Err(QuantError::PackedLengthMismatch {
                bytes: span.panel,
                expected: panels.len(),
            });
        };
        if k.d != q.d {
            return Err(QuantError::Tensor(TensorError::MatmulDimMismatch {
                left: vec![q.rows, q.d],
                right: vec![k.d, k.rows],
            }));
        }
        let end = span.cols.end.max(span.cols.start);
        check(end, end.min(k.rows).min(n))?;
    }
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above); shapes are
        // validated above.
        Kernel::Avx2 => unsafe {
            x86::scores_avx2(q, q_scales, panels, spans, k_scales, scale, out)
        },
        _ => scores_scalar(q, q_scales, panels, spans, k_scales, scale, out),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rows × d` codes from a seed, spanning the whole i8 range.
    fn codes(rows: usize, d: usize, seed: usize) -> Vec<i8> {
        (0..rows * d)
            .map(|i| ((i * 37 + seed * 11) % 256) as u8 as i8)
            .collect()
    }

    fn run(q: &WideRows, k: &WideRows, spans: &[KeySpan], kernel: Kernel) -> Vec<u32> {
        let n = k.rows();
        let q_scales: Vec<f32> = (0..q.rows()).map(|r| 0.01 + r as f32 * 1e-3).collect();
        let k_scales: Vec<f32> = (0..n).map(|c| 0.02 + c as f32 * 1e-4).collect();
        let mut out = vec![-1.0f32; q.rows() * n];
        qkt_scores_with(
            q,
            &q_scales,
            &[k],
            spans,
            &k_scales,
            0.125,
            &mut out,
            kernel,
        )
        .unwrap();
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn kernels_agree_on_ragged_depths() {
        // Depths straddling the 16-lane step; key counts straddling the
        // 8-key group, split into spans with a gap.
        for d in [1usize, 7, 15, 16, 17, 31, 32, 33, 48, 64, 100] {
            let (h, n) = (3usize, 21usize);
            let q = WideRows::new(&codes(h, d, 1), h, d).unwrap();
            let k = WideRows::new(&codes(n, d, 2), n, d).unwrap();
            for spans in [
                vec![KeySpan {
                    cols: 0..n,
                    panel: 0,
                }],
                vec![
                    KeySpan {
                        cols: 0..5,
                        panel: 0,
                    },
                    KeySpan {
                        cols: 9..21,
                        panel: 0,
                    },
                ],
            ] {
                let want = run(&q, &k, &spans, Kernel::Scalar);
                for kernel in Kernel::supported() {
                    assert_eq!(run(&q, &k, &spans, kernel), want, "kernel={kernel} d={d}");
                }
            }
        }
    }

    #[test]
    fn matches_hand_dot() {
        let q = WideRows::new(&[1, -2, 3, 4, -5, 6], 2, 3).unwrap();
        let k = WideRows::new(&[7, 8, -9, -1, 2, 3], 2, 3).unwrap();
        let spans = [KeySpan {
            cols: 0..2,
            panel: 0,
        }];
        let mut out = vec![0.0f32; 4];
        for kernel in Kernel::supported() {
            qkt_scores_with(
                &q,
                &[1.0; 2],
                &[&k],
                &spans,
                &[1.0; 2],
                1.0,
                &mut out,
                kernel,
            )
            .unwrap();
            // [1·7 − 2·8 − 3·9, −1 − 4 + 9, 4·7 − 5·8 − 6·9, −4 − 10 + 18]
            assert_eq!(out, vec![-36.0, 4.0, -66.0, 4.0], "kernel={kernel}");
        }
    }

    #[test]
    fn validation() {
        let q = WideRows::new(&[0; 6], 2, 3).unwrap();
        let k = WideRows::new(&[0; 6], 2, 3).unwrap();
        let short = WideRows::new(&[0; 4], 2, 2).unwrap();
        let all = [KeySpan {
            cols: 0..2,
            panel: 0,
        }];
        let mut out = vec![0.0f32; 4];
        let s = Kernel::Scalar;
        assert!(qkt_scores_with(&q, &[1.0; 2], &[&k], &all, &[1.0; 2], 1.0, &mut out, s).is_ok());
        assert!(qkt_scores_with(&q, &[1.0; 3], &[&k], &all, &[1.0; 2], 1.0, &mut out, s).is_err());
        assert!(qkt_scores_with(&q, &[1.0; 2], &[&k], &all, &[1.0; 3], 1.0, &mut out, s).is_err());
        assert!(
            qkt_scores_with(&q, &[1.0; 2], &[&short], &all, &[1.0; 2], 1.0, &mut out, s).is_err()
        );
        let past = [KeySpan {
            cols: 1..3,
            panel: 0,
        }];
        let mut wide = vec![0.0f32; 6];
        assert!(
            qkt_scores_with(&q, &[1.0; 2], &[&k], &past, &[1.0; 3], 1.0, &mut wide, s).is_err()
        );
        let missing = [KeySpan {
            cols: 0..2,
            panel: 1,
        }];
        assert!(
            qkt_scores_with(&q, &[1.0; 2], &[&k], &missing, &[1.0; 2], 1.0, &mut out, s).is_err()
        );
        assert!(WideRows::new(&[0; 5], 2, 3).is_err());
    }

    #[test]
    fn widened_rows_are_zero_padded_and_map_keeps_the_padding() {
        let w = WideRows::new(&[1, -2, 3, -4], 2, 2).unwrap();
        assert_eq!(w.row(1)[..3], [3, -4, 0]);
        assert_eq!(w.row(0).len(), LANES);
        let m = w.map(|c| c.saturating_sub(1));
        assert_eq!(m.row(0)[..3], [0, -3, 0]);
        assert!(m.row(1)[2..].iter().all(|&x| x == 0));
    }
}
