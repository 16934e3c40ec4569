use crate::{Shape, Tensor, TensorError};

impl Tensor {
    /// Row-wise numerically-stable softmax of a rank-2 tensor.
    ///
    /// Each row is shifted by its maximum before exponentiation, so the
    /// result is finite for any finite input.
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

/// `row = softmax(row)` in place: the per-row arithmetic of
/// [`Tensor::softmax_rows`], for callers that score a map a few rows at a
/// time and must match the whole-tensor result bit for bit.
///
/// ```
/// let mut row = [0.0f32, 0.0];
/// paro_tensor::softmax_in_place(&mut row);
/// assert_eq!(row, [0.5, 0.5]);
/// ```
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row_max(row);
    let mut sum = 0.0f32;
    for x in row.iter_mut() {
        let e = (*x - max).exp();
        *x = e;
        sum += e;
    }
    if sum > 0.0 {
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
}

/// The largest non-NaN value of `row` (`−∞` when there is none): the
/// value `row.iter().fold(f32::NEG_INFINITY, f32::max)` returns, found
/// with eight independent lanes so the scan vectorizes instead of
/// waiting on one compare chain. Only the sign of a zero maximum may
/// differ, which no `x − max` can observe.
pub fn row_max(row: &[f32]) -> f32 {
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
