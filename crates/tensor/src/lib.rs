//! Minimal dense tensor substrate for the PARO reproduction.
//!
//! The PARO paper evaluates attention quantization on CogVideoX, a video
//! diffusion transformer. This crate provides the numerical substrate that
//! the rest of the reproduction builds on: a dense row-major [`Tensor`] of
//! `f32` values with the handful of operations 3D-full-attention needs
//! (matrix multiplication, softmax, axis permutation, row gather), plus
//! fidelity metrics and heatmap rendering used by the experiment harness.
//!
//! The crate is deliberately small and dependency-free (only `rand` for
//! initialization): the reproduction must be auditable bottom-up, and the
//! workloads are simulated at reduced scale, so a hand-rolled dense kernel
//! set is both sufficient and transparent.
//!
//! # Example
//!
//! ```
//! use paro_tensor::Tensor;
//!
//! # fn main() -> Result<(), paro_tensor::TensorError> {
//! let q = Tensor::from_fn(&[4, 8], |idx| (idx[0] * 8 + idx[1]) as f32 * 0.01);
//! let k = Tensor::from_fn(&[4, 8], |idx| (idx[0] + idx[1]) as f32 * 0.02);
//! let scores = q.matmul(&k.transpose2d()?)?;
//! let attn = scores.softmax_rows()?;
//! assert_eq!(attn.shape(), &[4, 4]);
//! // Each softmax row sums to 1.
//! for row in 0..4 {
//!     let s: f32 = (0..4).map(|c| attn.at(&[row, c])).sum();
//!     assert!((s - 1.0).abs() < 1e-5);
//! }
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the SIMD micro-kernels in `kernel` opt
// back in with a module-level `allow`, and the softmax dispatcher in
// `ops` with one on the function that calls its AVX2-compiled body —
// everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod kernel;
mod matmul;
pub mod metrics;
mod ops;
pub mod render;
pub mod rng;
mod shape;
mod tensor;

pub use error::TensorError;
pub use kernel::Kernel;
pub use ops::{exp, inverse_permutation, row_max, softmax_in_place, softmax_in_place_with};
pub use shape::Shape;
pub use tensor::Tensor;
