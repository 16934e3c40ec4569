//! The PARO algorithm: pattern-aware reorder-based attention quantization.
//!
//! This crate implements the software half of the paper's co-design
//! (Sec. III), plus the algorithm-level baselines it compares against:
//!
//! - [`reorder`] — the six token-reorder plans over the `(frame, height,
//!   width)` grid, offline per-head plan selection minimizing block-wise
//!   quantization error, online application and exact inverse (paper
//!   Fig. 3).
//! - [`sensitivity`] — the block sensitivity metric
//!   `S = (Σx)^α · ‖x − x_q‖^(1−α)` (paper Sec. III-B).
//! - [`allocate`] — budget-constrained mixed-precision bitwidth allocation
//!   over `{0, 2, 4, 8}` bits (the paper's integer program), with an exact
//!   dynamic-programming solver and a fast greedy solver.
//! - [`ldz`] — a functional model of the leading-zero (LDZ) unit that
//!   truncates `K` operands to the output block's bitwidth (paper
//!   Sec. IV-B), enabling output-bitwidth-aware `QKᵀ`.
//! - [`methods`] / [`pipeline`] — the quantized-attention method zoo
//!   (FP16, SageAttention, Sanger-style sparse, naive/block-wise INT8/4,
//!   PARO INT8/4, PARO mixed-precision) used to regenerate Table I.
//! - [`int_pipeline`] — the deployment path executed on packed integer
//!   codes: mixed-precision map storage driving per-bitwidth i32 `AttnV`
//!   kernels, with packed-byte and MAC accounting.
//! - [`pool`] — the process-wide compute pool (sized by
//!   `available_parallelism`) that the forward passes and paro-serve share.
//! - [`cancel`] — cooperative per-request deadlines, checked between
//!   pipeline stages so an expired request stops mid-service.
//! - [`analysis`] — the data-distribution analysis behind Fig. 1.
//!
//! # Example
//!
//! ```
//! use paro_core::methods::AttentionMethod;
//! use paro_core::pipeline::{run_attention, AttentionInputs};
//! use paro_model::{patterns, ModelConfig};
//!
//! # fn main() -> Result<(), paro_core::CoreError> {
//! let cfg = ModelConfig::tiny(4, 4, 4);
//! let spec = patterns::PatternSpec::for_head(&cfg.grid, 0, 0);
//! let head = patterns::synthesize_head(&cfg.grid, cfg.head_dim(), &spec, 1);
//! let inputs = AttentionInputs::new(head.q, head.k, head.v, cfg.grid)?;
//! let run = run_attention(&inputs, &AttentionMethod::paro_mixed(4.8))?;
//! assert!(run.avg_bits <= 4.8 + 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod analysis;
pub mod artifact;
pub mod calibration;
pub mod cancel;
pub mod diffusion;
mod error;
pub mod exec;
pub mod int_pipeline;
pub mod ldz;
mod map_scan;
pub mod methods;
pub mod pipeline;
pub mod pool;
pub mod reorder;
mod score;
pub mod sensitivity;
pub mod sparse;

pub use error::CoreError;
