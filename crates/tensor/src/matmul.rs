use crate::kernel::{self, Kernel};
use crate::{Tensor, TensorError};

impl Tensor {
    /// Dense matrix multiplication of two rank-2 tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Dispatches to the widest micro-kernel the CPU supports (see
    /// [`crate::kernel`]); all kernels produce bit-identical results.
    ///
    /// Fully-zero left-operand `k`-segments bypass their `b` panel (the
    /// block-sparse fast path), which would drop `0·NaN` and `0·∞`
    /// contributions; when `other` contains non-finite values the bypass is
    /// disabled so the result matches IEEE dense semantics (`0·NaN = NaN`,
    /// propagated into the accumulator).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2
    /// and [`TensorError::MatmulDimMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.matmul_with(other, kernel::active_kernel())
    }

    /// [`Tensor::matmul`] on an explicit [`Kernel`] instead of the
    /// dispatched one. Outputs are bit-identical across kernels; the
    /// equivalence tests and in-process benchmark comparisons use this to
    /// pin the AVX2 path against the scalar reference.
    ///
    /// The AVX2 kernel runs a register tile of 6 rows × 16 columns over a
    /// packed column panel of `other`. Each
    /// output still adds its `k` products in ascending `k` from `+0`, with
    /// a separate multiply and add (never FMA), so the roundings are the
    /// scalar reference's. An all-zero 256-element `k` segment of `self`
    /// is skipped; that is exact when `other` is finite, because every
    /// skipped product is `±0` and an accumulator that starts at `+0` is
    /// never `-0`, so adding `±0` changes no bit.
    ///
    /// # Panics
    ///
    /// Panics if the CPU cannot run `kern` ([`Kernel::is_supported`]).
    ///
    /// # Errors
    ///
    /// Same as [`Tensor::matmul`].
    pub fn matmul_with(&self, other: &Tensor, kern: Kernel) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (other.shape()[0], other.shape()[1]);
        if k != k2 {
            return Err(TensorError::MatmulDimMismatch {
                left: self.shape().to_vec(),
                right: other.shape().to_vec(),
            });
        }
        let a = self.as_slice();
        let b = other.as_slice();
        // The zero-segment bypass silently turns 0·NaN and 0·∞ into 0; only
        // take it when the right operand is entirely finite.
        let skip_zeros = b.iter().all(|v| v.is_finite());
        let mut out = vec![0.0f32; m * n];
        kernel::matmul_f32(kern, a, b, &mut out, m, k, n, skip_zeros);
        Tensor::from_vec(&[m, n], out)
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape()[0], self.shape()[1]);
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(&[n, m], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matmul() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_matmul() {
        let n = 7;
        let eye = Tensor::from_fn(&[n, n], |i| if i[0] == i[1] { 1.0 } else { 0.0 });
        let x = Tensor::from_fn(&[n, n], |i| (i[0] * n + i[1]) as f32);
        assert_eq!(eye.matmul(&x).unwrap(), x);
        assert_eq!(x.matmul(&eye).unwrap(), x);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            a.matmul(&v),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn zero_times_nonfinite_propagates() {
        // IEEE semantics: 0·NaN = NaN and 0·∞ = NaN must reach the output
        // even though zero left operands normally skip the inner loop.
        let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![f32::NAN, f32::INFINITY, 2.0, 3.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c.at(&[0, 0]).is_nan(), "0·NaN must propagate");
        assert!(c.at(&[0, 1]).is_nan(), "0·∞ must propagate");
        // A fully-zero row against a non-finite column too.
        let z = Tensor::zeros(&[1, 2]);
        assert!(z.matmul(&b).unwrap().at(&[0, 0]).is_nan());
        // Finite inputs still take the skip path and stay exact.
        let bf = Tensor::from_vec(&[2, 2], vec![4.0, 5.0, 2.0, 3.0]).unwrap();
        assert_eq!(a.matmul(&bf).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let t = Tensor::from_fn(&[3, 5], |i| (i[0] * 5 + i[1]) as f32);
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.shape(), &[5, 3]);
        assert_eq!(tt.at(&[4, 2]), t.at(&[2, 4]));
        assert_eq!(tt.transpose2d().unwrap(), t);
    }

    #[test]
    fn matmul_transpose_identity_property() {
        // (A B)^T == B^T A^T
        let a = Tensor::from_fn(&[3, 4], |i| ((i[0] + 1) * (i[1] + 2)) as f32 * 0.1);
        let b = Tensor::from_fn(&[4, 2], |i| ((i[0] * 2 + i[1]) as f32).sin());
        let lhs = a.matmul(&b).unwrap().transpose2d().unwrap();
        let rhs = b
            .transpose2d()
            .unwrap()
            .matmul(&a.transpose2d().unwrap())
            .unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }
}
