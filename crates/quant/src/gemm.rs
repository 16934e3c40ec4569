//! Integer GEMM modeling the accelerator's fixed-point datapath.
//!
//! The PARO architecture (Sec. IV-A) executes all matrix multiplications on
//! fixed-point PE arrays and forwards integer accumulation results to the
//! vector unit, which applies the FP16 quantization scales. This module
//! reproduces that split in software: [`quantized_gemm_i32`] is the PE-array
//! half (pure integer multiply-accumulate) and [`dequantize_gemm`] is the
//! vector-unit half (scale application). Tests verify that the pair matches
//! the fake-quantized float computation bit-for-bit in exact arithmetic.

use crate::{Bitwidth, QuantError, QuantParams};
use paro_tensor::{Tensor, TensorError};

/// One operand of an integer GEMM: quantization codes plus the parameters
/// that map them back to floats.
///
/// Codes are stored unpacked (`u32`) for compute; the packed form in
/// [`crate::PackedCodes`] is the storage model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedGemmOperand {
    codes: Vec<u32>,
    rows: usize,
    cols: usize,
    params: QuantParams,
}

impl QuantizedGemmOperand {
    /// Quantizes a rank-2 tensor per-tensor at the given bitwidth.
    ///
    /// # Errors
    ///
    /// Returns a tensor rank error if `t` is not rank 2.
    pub fn quantize(t: &Tensor, bits: Bitwidth) -> Result<Self, QuantError> {
        if t.rank() != 2 {
            return Err(QuantError::Tensor(TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            }));
        }
        let params = QuantParams::calibrate_minmax(t.as_slice(), bits);
        let codes = t.as_slice().iter().map(|&v| params.quantize(v)).collect();
        Ok(QuantizedGemmOperand {
            codes,
            rows: t.shape()[0],
            cols: t.shape()[1],
            params,
        })
    }

    /// Builds an operand from pre-computed codes (e.g. unpacked from a
    /// [`crate::MixedPrecisionMap`] block), for checking other integer
    /// kernels against this reference path on identical codes.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::PackedLengthMismatch`] if `codes` does not
    /// hold `rows * cols` values, or [`QuantError::CodeOutOfRange`] if a
    /// code exceeds the bitwidth implied by `params`.
    pub fn from_parts(
        codes: Vec<u32>,
        rows: usize,
        cols: usize,
        params: QuantParams,
    ) -> Result<Self, QuantError> {
        if codes.len() != rows * cols {
            return Err(QuantError::PackedLengthMismatch {
                bytes: codes.len(),
                expected: rows * cols,
            });
        }
        let max = params.bits().max_code();
        for &c in &codes {
            if c > max {
                return Err(QuantError::CodeOutOfRange { code: c, max });
            }
        }
        Ok(QuantizedGemmOperand {
            codes,
            rows,
            cols,
            params,
        })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// The unpacked codes in row-major order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Dequantizes back to a float tensor (the fake-quantized view).
    pub fn dequantize(&self) -> Tensor {
        let data = self
            .codes
            .iter()
            .map(|&c| self.params.dequantize(c))
            .collect();
        Tensor::from_vec(&[self.rows, self.cols], data).expect("dims match codes by construction")
    }
}

/// Integer matrix multiplication with i32 accumulation (the PE-array half).
///
/// Computes `acc[i][j] = Σ_k (a_code[i][k] − z_a) · (b_code[k][j] − z_b)`,
/// i.e. zero points are subtracted before multiplication, exactly as a
/// fixed-point MAC array with pre-offset operand registers would. One
/// plain loop: this is the reference other integer kernels are checked
/// against, not a production path.
///
/// # Errors
///
/// Returns [`QuantError::Tensor`] with a matmul dimension mismatch if the
/// inner dimensions differ.
pub fn quantized_gemm_i32(
    a: &QuantizedGemmOperand,
    b: &QuantizedGemmOperand,
) -> Result<Vec<i32>, QuantError> {
    if a.cols != b.rows {
        return Err(QuantError::Tensor(TensorError::MatmulDimMismatch {
            left: vec![a.rows, a.cols],
            right: vec![b.rows, b.cols],
        }));
    }
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let za = a.params.zero_point();
    let zb = b.params.zero_point();
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a.codes[i * k + p] as i32 - za;
            for j in 0..n {
                out[i * n + j] += av * (b.codes[p * n + j] as i32 - zb);
            }
        }
    }
    Ok(out)
}

/// Applies the FP16-style scale product to an integer accumulation result
/// (the vector-unit half), producing the float GEMM output.
///
/// # Errors
///
/// Returns [`QuantError::PackedLengthMismatch`] if `acc` does not hold
/// `a.rows() * b.cols()` values.
pub fn dequantize_gemm(
    acc: &[i32],
    a: &QuantizedGemmOperand,
    b: &QuantizedGemmOperand,
) -> Result<Tensor, QuantError> {
    let expected = a.rows * b.cols;
    if acc.len() != expected {
        return Err(QuantError::PackedLengthMismatch {
            bytes: acc.len(),
            expected,
        });
    }
    let s = a.params.scale() * b.params.scale();
    let data = acc.iter().map(|&v| v as f32 * s).collect();
    Ok(Tensor::from_vec(&[a.rows, b.cols], data)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paro_tensor::metrics;
    use paro_tensor::rng::seeded;
    use rand::distributions::Uniform;

    fn random_t(m: usize, n: usize, seed: u64) -> Tensor {
        Tensor::random(&[m, n], &Uniform::new(-2.0f32, 2.0), &mut seeded(seed))
    }

    #[test]
    fn integer_path_matches_fake_quant_path() {
        // The fixed-point PE array + vector unit must compute exactly the
        // same result as multiplying the fake-quantized float tensors.
        let a = random_t(7, 9, 1);
        let b = random_t(9, 5, 2);
        let qa = QuantizedGemmOperand::quantize(&a, Bitwidth::B8).unwrap();
        let qb = QuantizedGemmOperand::quantize(&b, Bitwidth::B8).unwrap();
        let acc = quantized_gemm_i32(&qa, &qb).unwrap();
        let int_result = dequantize_gemm(&acc, &qa, &qb).unwrap();
        let float_result = qa.dequantize().matmul(&qb.dequantize()).unwrap();
        for (x, y) in int_result.as_slice().iter().zip(float_result.as_slice()) {
            assert!((x - y).abs() < 1e-3 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn int8_gemm_is_accurate() {
        let a = random_t(16, 32, 3);
        let b = random_t(32, 16, 4);
        let exact = a.matmul(&b).unwrap();
        let qa = QuantizedGemmOperand::quantize(&a, Bitwidth::B8).unwrap();
        let qb = QuantizedGemmOperand::quantize(&b, Bitwidth::B8).unwrap();
        let approx = dequantize_gemm(&quantized_gemm_i32(&qa, &qb).unwrap(), &qa, &qb).unwrap();
        assert!(metrics::relative_l2(&exact, &approx).unwrap() < 0.02);
    }

    #[test]
    fn lower_bits_lose_accuracy_monotonically() {
        let a = random_t(12, 24, 5);
        let b = random_t(24, 12, 6);
        let exact = a.matmul(&b).unwrap();
        let mut errs = Vec::new();
        for bits in [Bitwidth::B8, Bitwidth::B4, Bitwidth::B2] {
            let qa = QuantizedGemmOperand::quantize(&a, bits).unwrap();
            let qb = QuantizedGemmOperand::quantize(&b, bits).unwrap();
            let approx = dequantize_gemm(&quantized_gemm_i32(&qa, &qb).unwrap(), &qa, &qb).unwrap();
            errs.push(metrics::relative_l2(&exact, &approx).unwrap());
        }
        assert!(errs[0] < errs[1] && errs[1] < errs[2], "{errs:?}");
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let qa = QuantizedGemmOperand::quantize(&random_t(2, 3, 7), Bitwidth::B8).unwrap();
        let qb = QuantizedGemmOperand::quantize(&random_t(4, 2, 8), Bitwidth::B8).unwrap();
        assert!(quantized_gemm_i32(&qa, &qb).is_err());
    }

    #[test]
    fn acc_length_validated() {
        let qa = QuantizedGemmOperand::quantize(&random_t(2, 3, 9), Bitwidth::B8).unwrap();
        let qb = QuantizedGemmOperand::quantize(&random_t(3, 2, 10), Bitwidth::B8).unwrap();
        assert!(dequantize_gemm(&[0; 3], &qa, &qb).is_err());
    }

    #[test]
    fn rank_validated() {
        let v = Tensor::zeros(&[4]);
        assert!(QuantizedGemmOperand::quantize(&v, Bitwidth::B8).is_err());
    }

    #[test]
    fn b0_operand_yields_zero_output() {
        let qa = QuantizedGemmOperand::quantize(&random_t(3, 3, 11), Bitwidth::B0).unwrap();
        let qb = QuantizedGemmOperand::quantize(&random_t(3, 3, 12), Bitwidth::B8).unwrap();
        let out = dequantize_gemm(&quantized_gemm_i32(&qa, &qb).unwrap(), &qa, &qb).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }
}
