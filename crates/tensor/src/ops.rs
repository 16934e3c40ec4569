use crate::kernel::{self, Kernel};
use crate::{Shape, Tensor, TensorError};

impl Tensor {
    /// Row-wise numerically-stable softmax of a rank-2 tensor, one
    /// [`softmax_in_place`] per row.
    ///
    /// Each row is shifted by its maximum before exponentiation, so the
    /// result is finite for any finite input. A `−∞` score gets exactly
    /// 0, and a row with no score above `−∞` comes back as zeros instead
    /// of 0/0 = NaN: masking a score to `−∞` removes it from the row, and
    /// masking the whole row removes the row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let mut out = Vec::with_capacity(m * n);
        if n > 0 {
            // Copy and normalize one row at a time, while it is L1-hot.
            for row in self.as_slice().chunks_exact(n) {
                let start = out.len();
                out.extend_from_slice(row);
                softmax_in_place(&mut out[start..]);
            }
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Permutes the tensor's axes: `out[i_perm[0], ...] = self[i_0, ...]`.
    ///
    /// `perm[k]` names the source axis that becomes output axis `k`, matching
    /// the convention of `numpy.transpose`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPermutation`] if `perm` is not a
    /// permutation of `0..rank`.
    pub fn permute_axes(&self, perm: &[usize]) -> Result<Tensor, TensorError> {
        let out_shape = self.shape_obj().permuted(perm)?;
        let in_strides = self.shape_obj().strides();
        let mut out = vec![0.0f32; self.len()];
        let out_shape_obj = Shape::new(out_shape.dims().to_vec());
        let a = self.as_slice();
        for (flat_out, slot) in out.iter_mut().enumerate() {
            let out_idx = out_shape_obj
                .multi_index(flat_out)
                .expect("in range by construction");
            // output axis k holds source axis perm[k]
            let mut flat_in = 0usize;
            for (k, &p) in perm.iter().enumerate() {
                flat_in += out_idx[k] * in_strides[p];
            }
            *slot = a[flat_in];
        }
        Tensor::from_vec(out_shape.dims(), out)
    }

    /// Gathers rows of a rank-2 tensor: `out[i, :] = self[indices[i], :]`.
    ///
    /// This is the token-reorder primitive: applying a permutation of token
    /// indices to a `[tokens, dim]` embedding matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2, or
    /// [`TensorError::IndexOutOfRange`] if any index exceeds the row count.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let a = self.as_slice();
        let mut out = Vec::with_capacity(indices.len() * n);
        for &src in indices {
            if src >= m {
                return Err(TensorError::IndexOutOfRange { index: src, len: m });
            }
            out.extend_from_slice(&a[src * n..(src + 1) * n]);
        }
        Tensor::from_vec(&[indices.len(), n], out)
    }

    /// Scatters rows of a rank-2 tensor: `out[indices[i], :] = self[i, :]`.
    ///
    /// The inverse of [`Tensor::gather_rows`] when `indices` is a permutation
    /// of `0..rows`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2,
    /// [`TensorError::ElementCountMismatch`] if `indices.len()` differs from
    /// the row count, or [`TensorError::IndexOutOfRange`] for a bad index.
    pub fn scatter_rows(&self, indices: &[usize]) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if indices.len() != m {
            return Err(TensorError::ElementCountMismatch {
                requested: indices.len(),
                actual: m,
            });
        }
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for (i, &dst) in indices.iter().enumerate() {
            if dst >= m {
                return Err(TensorError::IndexOutOfRange { index: dst, len: m });
            }
            out[dst * n..(dst + 1) * n].copy_from_slice(&a[i * n..(i + 1) * n]);
        }
        Tensor::from_vec(&[m, n], out)
    }

    /// Extracts a rectangular block of a rank-2 tensor.
    ///
    /// The block covers rows `row0..row0+rows` and columns `col0..col0+cols`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2 or
    /// [`TensorError::IndexOutOfRange`] if the block exceeds the bounds.
    pub fn block(
        &self,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        if row0 + rows > m {
            return Err(TensorError::IndexOutOfRange {
                index: row0 + rows,
                len: m,
            });
        }
        if col0 + cols > n {
            return Err(TensorError::IndexOutOfRange {
                index: col0 + cols,
                len: n,
            });
        }
        let a = self.as_slice();
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let base = (row0 + r) * n + col0;
            out.extend_from_slice(&a[base..base + cols]);
        }
        Tensor::from_vec(&[rows, cols], out)
    }

    /// Writes a rectangular block into a rank-2 tensor in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either tensor is not rank 2
    /// or [`TensorError::IndexOutOfRange`] if the block exceeds the bounds.
    pub fn set_block(
        &mut self,
        row0: usize,
        col0: usize,
        block: &Tensor,
    ) -> Result<(), TensorError> {
        if self.rank() != 2 || block.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    block.rank()
                },
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let (rows, cols) = (block.shape()[0], block.shape()[1]);
        if row0 + rows > m {
            return Err(TensorError::IndexOutOfRange {
                index: row0 + rows,
                len: m,
            });
        }
        if col0 + cols > n {
            return Err(TensorError::IndexOutOfRange {
                index: col0 + cols,
                len: n,
            });
        }
        let b = block.as_slice().to_vec();
        let a = self.as_mut_slice();
        for r in 0..rows {
            let base = (row0 + r) * n + col0;
            a[base..base + cols].copy_from_slice(&b[r * cols..(r + 1) * cols]);
        }
        Ok(())
    }
}

/// `row = softmax(row)` in place on the dispatched kernel: the per-row
/// arithmetic of [`Tensor::softmax_rows`], for callers that score a map a
/// few rows at a time and must match the whole-tensor result bit for bit.
///
/// ```
/// let mut row = [0.0f32, 0.0];
/// paro_tensor::softmax_in_place(&mut row);
/// assert_eq!(row, [0.5, 0.5]);
/// ```
pub fn softmax_in_place(row: &mut [f32]) {
    softmax_in_place_with(row, kernel::active_kernel());
}

/// [`softmax_in_place`] on an explicit [`Kernel`]; every kernel gives the
/// same bits.
///
/// The row is shifted by its [`row_max`], each lane becomes
/// `e = exp(x − max)` on [`exp`] and is added into one of eight lane
/// sums, the sums are reduced in a fixed tree, and each `e` is divided by
/// the total. `exp(−∞)` is exactly 0, so a `−∞` lane needs no branch; a
/// row with no score above `−∞` is shifted by 0 instead, sums to 0 and
/// stays all zeros. A NaN lane makes the sum NaN, and so the whole row.
///
/// The AVX2 kernel compiles the same loop with AVX2 enabled, which
/// vectorizes it; Rust never fuses a multiply and an add into an FMA, so
/// its roundings are the scalar ones.
///
/// # Panics
///
/// Panics if the CPU cannot run `kernel` ([`Kernel::is_supported`]).
#[allow(unsafe_code)]
pub fn softmax_in_place_with(row: &mut [f32], kernel: Kernel) {
    assert!(
        kernel.is_supported(),
        "{kernel} is not supported by this CPU"
    );
    match kernel {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: the CPU supports AVX2 (asserted above), the only
        // requirement of the `target_feature` function.
        Kernel::Avx2 => unsafe { softmax_avx2(row) },
        _ => softmax_body(row),
    }
}

/// [`softmax_body`] compiled with AVX2 enabled.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn softmax_avx2(row: &mut [f32]) {
    softmax_body(row);
}

/// The one softmax loop of [`softmax_in_place_with`], inlined into each
/// kernel's body so each compiles it for its own instruction set.
#[inline(always)]
fn softmax_body(row: &mut [f32]) {
    const LANES: usize = 8;
    let max = row_max_body(row);
    let shift = if max == f32::NEG_INFINITY { 0.0 } else { max };
    // Eight independent sums, as `row_max` keeps eight maxima: one running
    // sum is a serial chain of adds that does not vectorize.
    let mut sums = [0.0f32; LANES];
    let mut chunks = row.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        for (s, x) in sums.iter_mut().zip(chunk) {
            let e = exp(*x - shift);
            *x = e;
            *s += e;
        }
    }
    for (s, x) in sums.iter_mut().zip(chunks.into_remainder()) {
        let e = exp(*x - shift);
        *x = e;
        *s += e;
    }
    let [s0, s1, s2, s3, s4, s5, s6, s7] = sums;
    let sum = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
    if sum != 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// `eˣ` in f32, with no branch on `x`, so a loop over it vectorizes.
///
/// Cody–Waite reduction `x = n·ln 2 + g` with `n` the nearest integer to
/// `x·log₂e` (rounded by adding `1.5·2²³`, not by `f32::round`, which
/// compiles to a call to `roundf` on baseline x86-64), Cephes' degree-5
/// polynomial for `eᵍ` on `|g| ≤ ½ ln 2`, and `2ⁿ` built from exponent
/// bits in two factors, so that `n = 128` and `n = −126` stay normal.
/// Out-of-range inputs are selected, not branched on.
///
/// Within 1 ulp of libm's `expf` on `[ln 2⁻¹²⁶, ln f32::MAX] ≈ [−87.34,
/// 88.72]`, where `eˣ` is a normal float. Below that range, `−∞`
/// included, it returns exactly `0`, where libm returns subnormals down to
/// `x ≈ −103.97`; above it, `+∞`. NaN gives NaN and `exp(0) == 1`.
///
/// ```
/// assert_eq!(paro_tensor::exp(0.0), 1.0);
/// assert_eq!(paro_tensor::exp(f32::NEG_INFINITY), 0.0);
/// assert!((paro_tensor::exp(1.0) - std::f32::consts::E).abs() <= f32::EPSILON);
/// ```
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // The lowest `x` whose `eˣ` is normal and the highest whose `eˣ` is
    // finite.
    const LO: f32 = -87.336_54;
    const HI: f32 = 88.722_83;
    // `1.5·2²³`: adding it rounds any `|v| < 2²²` to an integer, which
    // lands in the sum's low mantissa bits.
    const ROUND: f32 = 12_582_912.0;
    // ln 2 = LN2_HI + LN2_LO, with LN2_HI = 355/512 on 9 significant
    // bits so that `n·LN2_HI` is exact.
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 6] = [
        1.987_569_1e-4,
        1.398_199_9e-3,
        8.333_452e-3,
        4.166_579_6e-2,
        1.666_666_5e-1,
        0.5,
    ];
    let t = x * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let g = x - n * LN2_HI - n * LN2_LO;
    let poly = ((((P[0] * g + P[1]) * g + P[2]) * g + P[3]) * g + P[4]) * g + P[5];
    let eg = poly * (g * g) + g + 1.0;
    // `n` as an integer, read off `t`'s bits (garbage for out-of-range
    // `x`, whose result is selected away below).
    let ni = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let half = ni >> 1;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    let y = eg * pow2(half) * pow2(ni.wrapping_sub(half));
    let y = if x > HI { f32::INFINITY } else { y };
    if x < LO {
        0.0
    } else {
        y
    }
}

/// The largest non-NaN value of `row` (`−∞` when there is none): the
/// value `row.iter().fold(f32::NEG_INFINITY, f32::max)` returns, found
/// with eight independent lanes so the scan vectorizes instead of
/// waiting on one compare chain. Only the sign of a zero maximum may
/// differ, which no `x − max` can observe.
pub fn row_max(row: &[f32]) -> f32 {
    row_max_body(row)
}

/// The loop of [`row_max`], inlined into [`softmax_body`] too, so the
/// AVX2 softmax scans its row for the maximum on ymm registers instead
/// of calling the baseline-x86-64 copy of [`row_max`].
#[inline(always)]
fn row_max_body(row: &[f32]) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [f32::NEG_INFINITY; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            // NaN compares false and leaves the lane, as `f32::max` does.
            *m = if v > *m { v } else { *m };
        }
    }
    for (m, &v) in lanes.iter_mut().zip(tail) {
        *m = if v > *m { v } else { *m };
    }
    lanes.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// Returns the inverse of a permutation given as an index vector.
///
/// `inverse_permutation(p)[p[i]] == i` for every `i`.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..perm.len()`.
///
/// # Example
///
/// ```
/// let p = vec![2, 0, 1];
/// assert_eq!(paro_tensor::inverse_permutation(&p), vec![1, 2, 0]);
/// ```
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![usize::MAX; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        assert!(p < perm.len(), "index {p} out of range in permutation");
        assert!(inv[p] == usize::MAX, "duplicate index {p} in permutation");
        inv[p] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_fn(&[3, 5], |i| (i[0] as f32) - (i[1] as f32) * 0.3);
        let s = t.softmax_rows().unwrap();
        for r in 0..3 {
            let sum: f32 = (0..5).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_handles_large_values() {
        let t = Tensor::from_vec(&[1, 3], vec![1000.0, 1001.0, 999.0]).unwrap();
        let s = t.softmax_rows().unwrap();
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        assert!(s.at(&[0, 1]) > s.at(&[0, 0]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::from_vec(&[1, 4], vec![0.1, 0.5, -0.2, 0.9]).unwrap();
        let shifted = t.map(|x| x + 123.0);
        let a = t.softmax_rows().unwrap();
        let b = shifted.softmax_rows().unwrap();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// The lowest input whose `eˣ` is normal and the highest whose `eˣ`
    /// is finite: the ends of `exp`'s 1-ulp range.
    const EXP_LO: f32 = -87.336_54;
    const EXP_HI: f32 = 88.722_83;

    /// Every 997th float of the range, so every binade is visited: the
    /// relative error against the f64 exponential stays within 2⁻²³.
    #[test]
    fn exp_is_accurate_across_its_range() {
        let mut checked = 0;
        for bits in (0..=EXP_LO.to_bits() - 0x8000_0000)
            .step_by(997)
            .map(|b| b | 0x8000_0000)
            .chain((0..=EXP_HI.to_bits()).step_by(997))
            .chain([EXP_LO.to_bits(), EXP_HI.to_bits()])
        {
            let x = f32::from_bits(bits);
            let want = (x as f64).exp();
            let rel = ((exp(x) as f64 - want) / want).abs();
            assert!(
                rel <= f32::EPSILON as f64,
                "exp({x:e}): relative error {rel:e}"
            );
            checked += 1;
        }
        assert!(checked > 2_000_000, "{checked} inputs");
    }

    #[test]
    fn exp_saturates_outside_its_range() {
        let below = f32::from_bits(EXP_LO.to_bits() + 1);
        for x in [
            below,
            -88.0,
            -103.97,
            -104.0,
            -1e30,
            f32::MIN,
            f32::NEG_INFINITY,
        ] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
        let above = f32::from_bits(EXP_HI.to_bits() + 1);
        for x in [above, 89.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        assert!(exp(f32::NAN).is_nan());
        assert!(exp(-f32::NAN).is_nan());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
    }

    /// Output bits at fixed inputs, the same on every host whatever its
    /// libm. The last three are 1 ulp below glibc 2.36's `expf`.
    #[test]
    fn exp_golden_bits() {
        for (x, bits) in [
            (1.0f32, 0x402d_f854u32),
            (-1.0, 0x3ebc_5ab2),
            (0.5, 0x3fd3_094c),
            (0.1, 0x3f8d_763e),
            (-0.3, 0x3f3d_a643),
            (-10.0, 0x383e_6bce),
            (10.0, 0x46ac_14ee),
            (-50.5, 0x1b0d_6cfa),
            (42.0, 0x5dc1_192b),
            (EXP_LO, 0x0080_0026),
            (EXP_HI, 0x7f7f_ff84),
            (1.000_000_7, 0x402d_f85c),
            (-87.330_52, 0x0080_c5fe),
            (80.000_015, 0x792a_bc78),
        ] {
            assert_eq!(exp(x).to_bits(), bits, "exp({x:e}) = {:e}", exp(x));
        }
    }

    #[test]
    fn softmax_of_a_masked_row() {
        let ninf = f32::NEG_INFINITY;
        let t = Tensor::from_vec(
            &[3, 3],
            vec![0.0, ninf, 0.0, ninf, ninf, ninf, 1.0, f32::NAN, 2.0],
        )
        .unwrap();
        let s = t.softmax_rows().unwrap();
        assert_eq!(&s.as_slice()[..6], &[0.5, 0.0, 0.5, 0.0, 0.0, 0.0]);
        assert!(s.as_slice()[6..].iter().all(|x| x.is_nan()));
        assert!(Tensor::zeros(&[2, 0]).softmax_rows().unwrap().is_empty());
    }

    #[test]
    fn permute_axes_matches_manual() {
        let t = Tensor::from_fn(&[2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let p = t.permute_axes(&[2, 0, 1]).unwrap();
        assert_eq!(p.shape(), &[4, 2, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    assert_eq!(p.at(&[c, a, b]), t.at(&[a, b, c]));
                }
            }
        }
    }

    #[test]
    fn permute_identity_is_noop() {
        let t = Tensor::from_fn(&[3, 4], |i| (i[0] + i[1]) as f32);
        assert_eq!(t.permute_axes(&[0, 1]).unwrap(), t);
    }

    #[test]
    fn gather_then_scatter_roundtrip() {
        let t = Tensor::from_fn(&[5, 3], |i| (i[0] * 3 + i[1]) as f32);
        let perm = vec![4, 2, 0, 3, 1];
        let g = t.gather_rows(&perm).unwrap();
        let back = g.scatter_rows(&perm).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn gather_rejects_out_of_range() {
        let t = Tensor::zeros(&[3, 2]);
        assert!(matches!(
            t.gather_rows(&[0, 5]),
            Err(TensorError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn block_extract_and_set() {
        let mut t = Tensor::from_fn(&[4, 4], |i| (i[0] * 4 + i[1]) as f32);
        let b = t.block(1, 2, 2, 2).unwrap();
        assert_eq!(b.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
        let z = Tensor::full(&[2, 2], -1.0);
        t.set_block(1, 2, &z).unwrap();
        assert_eq!(t.at(&[1, 2]), -1.0);
        assert_eq!(t.at(&[2, 3]), -1.0);
        assert_eq!(t.at(&[0, 0]), 0.0);
        assert!(t.block(3, 3, 2, 2).is_err());
    }

    #[test]
    fn inverse_permutation_roundtrip() {
        let p = vec![3, 1, 4, 0, 2];
        let inv = inverse_permutation(&p);
        for (i, &pi) in p.iter().enumerate() {
            assert_eq!(inv[pi], i);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn inverse_permutation_rejects_duplicates() {
        inverse_permutation(&[0, 0, 1]);
    }
}
