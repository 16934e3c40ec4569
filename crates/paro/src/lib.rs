//! PARO — pattern-aware reorder-based attention quantization, reproduced.
//!
//! This facade crate re-exports the full reproduction of the DAC 2025
//! paper *"PARO: Hardware-Software Co-design with Pattern-aware
//! Reorder-based Attention Quantization in Video Generation Models"*:
//!
//! - [`tensor`] — dense tensor substrate (matmul, softmax, permutation,
//!   fidelity metrics, heatmap rendering).
//! - [`quant`] — uniform affine quantization, grouping granularities,
//!   packed integer storage, integer GEMM.
//! - [`model`] — CogVideoX-shaped workloads and the synthetic
//!   3D-full-attention pattern generator.
//! - [`core`] — the PARO algorithm: reorder plans, sensitivity-guided
//!   mixed-precision allocation, LDZ truncation, the quantized-attention
//!   method zoo.
//! - [`sim`] — the cycle-level accelerator simulator and baseline machines
//!   (Sanger, ViTCoD, A100).
//! - [`serve`] — the in-process concurrent attention-serving engine:
//!   bounded admission, frozen-calibration plan cache, deterministic
//!   multi-threaded execution, serving metrics.
//! - [`trace`] — low-overhead span tracing across the pipeline, pool and
//!   serving engine, with Chrome trace-event export and per-stage
//!   summaries (`paro trace` drives it from the CLI).
//! - [`failpoint`] — deterministic fault injection (named sites armed by
//!   kind/skip/count, compiled out by default) driving the serve chaos
//!   suite.
//! - [`artifact`] — the zero-copy frozen-plan artifact format
//!   (`paro plan build/inspect/verify` on the CLI; see
//!   `docs/ARTIFACT.md` for the byte-level contract).
//!
//! # Quickstart
//!
//! ```
//! use paro::core::methods::AttentionMethod;
//! use paro::core::pipeline::{reference_attention, run_attention, AttentionInputs};
//! use paro::model::{patterns, ModelConfig};
//! use paro::tensor::metrics;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize one attention head with a temporal-diagonal pattern.
//! let cfg = ModelConfig::tiny(4, 4, 4);
//! let spec = patterns::PatternSpec::new(patterns::PatternKind::Temporal);
//! let head = patterns::synthesize_head(&cfg.grid, cfg.head_dim(), &spec, 7);
//!
//! // Run PARO mixed-precision attention at a 4.8-bit budget.
//! let reference = reference_attention(&head.q, &head.k, &head.v)?;
//! let inputs = AttentionInputs::new(head.q, head.k, head.v, cfg.grid)?;
//! let run = run_attention(&inputs, &AttentionMethod::paro_mixed(4.8))?;
//!
//! // Near-lossless at 4.8 bits.
//! let err = metrics::relative_l2(&reference, &run.output)?;
//! assert!(err < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use paro_artifact as artifact;
pub use paro_core as core;
pub use paro_failpoint as failpoint;
pub use paro_model as model;
pub use paro_quant as quant;
pub use paro_serve as serve;
pub use paro_sim as sim;
pub use paro_tensor as tensor;
pub use paro_trace as trace;

pub mod cli;
pub mod plans;
pub mod report;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use paro_core::allocate::{allocate_dp, allocate_greedy, BitAllocation};
    pub use paro_core::methods::AttentionMethod;
    pub use paro_core::pipeline::{reference_attention, run_attention, AttentionInputs};
    pub use paro_core::reorder::{select_plan, ReorderPlan};
    pub use paro_core::sensitivity::SensitivityTable;
    pub use paro_core::CoreError;
    pub use paro_model::patterns::{synthesize_head, PatternKind, PatternSpec};
    pub use paro_model::{AxisOrder, ModelConfig, TokenGrid};
    pub use paro_quant::{Bitwidth, BlockGrid, Grouping, QuantParams};
    pub use paro_sim::machines::{
        GpuMachine, Machine, ParoMachine, ParoOptimizations, SangerConfig, SangerMachine,
        VitcodConfig, VitcodMachine,
    };
    pub use paro_sim::{AttentionProfile, HardwareConfig, Report};
    pub use paro_tensor::{metrics, Tensor};
}
