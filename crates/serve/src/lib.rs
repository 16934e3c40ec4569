//! `paro-serve`: an in-process concurrent attention-serving engine.
//!
//! PARO's co-design splits attention quantization into an expensive
//! offline phase (reorder-plan selection + mixed-precision bit
//! allocation, frozen as [`paro_core::calibration::HeadCalibration`]) and
//! a cheap online phase
//! ([`paro_core::pipeline::run_attention_calibrated`]). This crate builds
//! the serving layer that exploits that split:
//!
//! - [`engine`] — a multi-tenant work graph feeding a pool of worker
//!   threads, one cost-annotated `(block, head)` head task per request,
//!   with results reassembled in submission order so multi-threaded
//!   output is **bit-identical** to a single-threaded run. Each request
//!   is its own failure domain: panics are contained to a typed
//!   [`ServeError::Faulted`], transient faults retry with backoff, and a
//!   persistently-faulting packed-int path degrades to the f32 reference
//!   pipeline rather than failing the request.
//! - [`scheduler`] — the work graph itself: start-time weighted-fair
//!   queuing across tenant classes, continuous-batching waves that
//!   backfill idle workers between requests, and a quota-driven
//!   load-shedding ladder (degrade to a coarse bit budget, then reject).
//!   The contract is documented in `docs/SCHEDULING.md`.
//! - [`plan_cache`] — a thread-safe LRU cache of frozen calibrations
//!   keyed by `(model, block, head, method)`: calibration runs once per
//!   head, every later request reuses the frozen plan.
//! - [`plan_store`] — frozen plans from disk: with
//!   [`ServeConfig::plan_artifact`] set, cache misses fill from a
//!   validated `paro-artifact` file instead of recalibrating, so a cold
//!   start costs one file read instead of one calibration per head.
//! - [`admission`] — backpressure (a full queue rejects with a structured
//!   [`ServeError`] instead of blocking), NaN/Inf input rejection at the
//!   door, per-request deadlines with cooperative mid-pipeline
//!   cancellation, and the per-request cost that batch LPT ordering
//!   and SFQ tags share, taken from the simulator's dispatch model.
//! - [`lifecycle`] — the calibration-drift lifecycle: a cheap fidelity
//!   proxy sampled from served requests feeds a staleness [`Watchdog`]
//!   (`Fresh → Suspect → Stale` with EWMA thresholds and hysteresis),
//!   plans carry a **epoch** that requests pin at admission, and a
//!   [`RecalibrationPolicy`] recalibrates online and hot-swaps the new
//!   generation atomically. The contract is in `docs/LIFECYCLE.md`.
//! - [`metrics`] — lock-cheap counters and latency histograms
//!   (p50/p95/p99, queue depth, cache hit rate, per-stage timing),
//!   exportable as a serde-JSON snapshot.
//! - [`workload`] — deterministic synthetic workloads (scaled CogVideoX
//!   configs) for benchmarks and tests.
//!
//! # Example
//!
//! ```
//! use paro_serve::prelude::*;
//! use std::sync::Arc;
//!
//! let model = workload::scaled_config(&paro_model::ModelConfig::cogvideox_2b(), 2, 4, 4);
//! let source = Arc::new(workload::SyntheticSource::new(model.clone(), 1, 7));
//! let cfg = ServeConfig {
//!     workers: 2,
//!     block_edge: 4,
//!     ..ServeConfig::default()
//! };
//! let engine = Engine::new(cfg, model.clone(), source).unwrap();
//! let requests = workload::synthetic_requests(&workload::WorkloadSpec {
//!     model,
//!     requests: 4,
//!     blocks: 1,
//!     heads: 2,
//!     seed: 7,
//! });
//! let outcome = engine.run_batch(requests);
//! assert_eq!(outcome.completed(), 4);
//! let snap = engine.metrics_snapshot();
//! assert_eq!(snap.completed, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod engine;
pub mod lifecycle;
pub mod metrics;
pub mod plan_cache;
pub mod plan_store;
pub mod scheduler;
pub mod workload;

pub use admission::ServeError;
pub use engine::{
    BatchOutcome, CalibrationSource, Engine, ServeConfig, ServeRequest, ServeResponse, Ticket,
};
pub use lifecycle::{PlanHealth, RecalibrationPolicy, Watchdog, WatchdogConfig, WatchdogStats};
pub use metrics::{
    LatencyHistogram, LatencySummary, Metrics, MetricsSnapshot, TenantMetrics, TenantSnapshot,
};
pub use plan_cache::{CacheStats, MethodKey, PlanCache, PlanKey};
pub use plan_store::PlanStore;
pub use scheduler::{GraphStats, TenantClass, WorkGraph};

/// Convenience re-exports for engine users.
pub mod prelude {
    pub use crate::engine::{Engine, ServeConfig, ServeRequest};
    pub use crate::scheduler::TenantClass;
    pub use crate::workload;
    pub use crate::ServeError;
}
