//! Quantization substrate for the PARO reproduction.
//!
//! Implements the quantization machinery of the paper's Sec. II-B and
//! Sec. III: uniform affine quantization `x ≈ s·(x_int − z)` with dynamic
//! min-max calibration, the grouping granularities used by the baselines and
//! by PARO (per-tensor, per-row, per-dimension, per-block), bit-packed
//! integer storage for 2/4/8-bit codes, and an integer GEMM that checks the
//! fixed-point compute path against the fake-quantized float path.
//!
//! # Example
//!
//! ```
//! use paro_quant::{Bitwidth, QuantParams};
//!
//! let values = [0.0f32, 0.25, 0.5, 1.0];
//! let params = QuantParams::calibrate_minmax(&values, Bitwidth::B8);
//! for &v in &values {
//!     let code = params.quantize(v);
//!     let back = params.dequantize(code);
//!     // Within half a quantization step.
//!     assert!((v - back).abs() <= params.scale() / 2.0 + 1e-6);
//! }
//! ```

// `deny` rather than `forbid`: the SIMD micro-kernels in `kernels` and
// `qkt` opt back in with a module-level `allow` — every other module
// stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bitwidth;
mod block_row;
mod error;
mod gemm;
mod grouping;
mod int_attn;
mod kernels;
mod mixed_map;
mod packed;
mod params;
mod qkt;
mod symmetric;

pub use bitwidth::{Bitwidth, ParseBitwidthError};
pub use block_row::{AttnVOperand, PackedRow, RowCounts};
pub use error::QuantError;
pub use gemm::{dequantize_gemm, quantized_gemm_i32, QuantizedGemmOperand};
pub use grouping::{
    fake_quant_2d, fake_quant_blocks, fake_quant_rows_in_place, group_stats, BlockGrid, GroupStats,
    Grouping,
};
pub use int_attn::{packed_attn_v, packed_attn_v_with, PackedAttnV, PerColCodes};
pub use kernels::fake_quant_sq_errors;
pub use mixed_map::{MixedPrecisionMap, PARAM_BYTES_PER_BLOCK};
pub use packed::PackedCodes;
pub use params::{widen_range, QuantParams};
pub use qkt::{qkt_scores_with, KeySpan, WideRows};
pub use symmetric::SymmetricInt8;
