//! `paro-trace`: low-overhead span tracing for the PARO runtime.
//!
//! The serving engine, the compute pool and the attention pipeline all
//! report *aggregate* counters (see `paro-serve::metrics`); what they
//! cannot show is **where one request spends its time** — reorder vs.
//! calibration vs. `QKᵀ` vs. packed `AttnV` vs. queue wait. This crate is
//! the measurement substrate for that question, built to be embeddable in
//! every runtime crate:
//!
//! - **Zero dependencies.** Records are plain structs; both exporters
//!   (Chrome trace-event JSON and per-stage summaries) are hand-rolled.
//! - **Low overhead.** Recording goes through a thread-local buffer whose
//!   mutex is only ever contended at session drain; an inactive session
//!   costs one relaxed atomic load per span site.
//! - **Compile-out.** Without the `enabled` cargo feature every API call
//!   is an inlined no-op, so instrumented hot loops carry no cost at all.
//!
//! # Model
//!
//! A [`TraceSession`] brackets a recording window; finishing it yields a
//! [`Trace`] of [`SpanRecord`]s. Spans are RAII guards ([`span`]) named by
//! a `&'static str` stage (the canonical stage names live in [`stage`]),
//! nest per thread (`parent` links), and carry a **correlation context**
//! ([`ctx`]) — the serving engine sets it to the request index before any
//! compute runs, and [`paro-core`'s compute
//! pool](../paro_core/pool/index.html) forwards it across thread hops, so
//! one trace shows a request crossing the admission queue into pool
//! workers. Externally-timed intervals (queue waits) are recorded with
//! [`record_range`].
//!
//! # Example
//!
//! ```
//! let session = paro_trace::TraceSession::start();
//! {
//!     let _request = paro_trace::ctx(7);
//!     let _outer = paro_trace::span("pipeline.qkt");
//!     let _inner = paro_trace::span("pipeline.quantize_map");
//! }
//! let trace = session.finish();
//! # #[cfg(feature = "enabled")]
//! # {
//! assert_eq!(trace.records.len(), 2);
//! // Records sort by start time: outer span first, inner linked to it.
//! assert_eq!(trace.records[0].stage, "pipeline.qkt");
//! assert_eq!(trace.records[1].parent, trace.records[0].id);
//! assert!(trace.records.iter().all(|r| r.ctx == 7));
//! // Exporters: Chrome trace-event JSON + per-stage summary.
//! let json = trace.chrome_json();
//! assert!(json.contains("\"traceEvents\""));
//! let summary = trace.summary();
//! assert_eq!(summary.len(), 2);
//! # }
//! ```
//!
//! The emitted JSON loads in Perfetto / `about://tracing`; the field
//! contract is documented in `docs/TELEMETRY.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod record;
mod summary;

#[cfg(feature = "enabled")]
mod collector;
#[cfg(not(feature = "enabled"))]
mod noop;

pub use record::{SpanOutcome, SpanRecord, NO_CTX, NO_DETAIL};
pub use summary::{format_table, summarize, summarize_by_ctx, CtxSummary, StageSummary};

#[cfg(feature = "enabled")]
pub use collector::{
    ctx, current_ctx, is_active, record_range, span, span_detailed, CtxGuard, SpanGuard,
    TraceSession,
};
#[cfg(not(feature = "enabled"))]
pub use noop::{
    ctx, current_ctx, is_active, record_range, span, span_detailed, CtxGuard, SpanGuard,
    TraceSession,
};

/// Whether recording support is compiled into this build (the `enabled`
/// cargo feature). When `false`, every span/event call is a no-op and
/// sessions always return empty traces.
pub const COMPILED_IN: bool = cfg!(feature = "enabled");

/// Canonical stage names emitted by the instrumented PARO crates.
///
/// Instrumentation sites reference these constants so the telemetry
/// contract (`docs/TELEMETRY.md`) has a single source of truth; exporters
/// accept any `&'static str`, so downstream users may add their own.
pub mod stage {
    /// Admission-to-pickup wait of one serve request in the engine queue.
    pub const SERVE_QUEUE_WAIT: &str = "serve.queue_wait";
    /// One serve request's worker service time (calibration resolution +
    /// attention execution).
    pub const SERVE_SERVICE: &str = "serve.service";
    /// Plan-cache miss: offline calibration of one head.
    pub const SERVE_CALIBRATE: &str = "serve.calibrate";
    /// Batch submission loop of `Engine::run_batch`.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// Submission-order reassembly wait of `Engine::run_batch`.
    pub const SERVE_REASSEMBLE: &str = "serve.reassemble";
    /// Wait of one job in the shared compute-pool queue.
    pub const POOL_QUEUE_WAIT: &str = "pool.queue_wait";
    /// Execution of one job on a compute-pool worker.
    pub const POOL_EXECUTE: &str = "pool.execute";
    /// INT8 quantization of `Q`/`K` (the online pipeline also folds `V`
    /// fake-quant into this span; the calibrated int path reports `V`
    /// separately under [`PIPELINE_QUANTIZE_V`], and here also builds the
    /// symmetric INT8 codes its score kernel multiplies).
    pub const PIPELINE_QUANTIZE_QKV: &str = "pipeline.quantize_qkv";
    /// Packed per-column integer quantization of `V` (calibrated int
    /// path only — kept distinct from [`PIPELINE_QUANTIZE_QKV`] so the
    /// two workloads don't share one median).
    pub const PIPELINE_QUANTIZE_V: &str = "pipeline.quantize_v";
    /// Online reorder-plan selection (the non-calibrated pipeline).
    pub const PIPELINE_SELECT_PLAN: &str = "pipeline.select_plan";
    /// Token reorder of `Q`/`K`/`V` under the selected plan.
    pub const PIPELINE_REORDER: &str = "pipeline.reorder";
    /// `QKᵀ` score computation + softmax (LDZ-truncated when
    /// output-aware): the whole map in the online pipeline, one block row
    /// per span in the calibrated int path's fused loop.
    pub const PIPELINE_QKT: &str = "pipeline.qkt";
    /// Block-wise (mixed-precision) quantization of the softmaxed map:
    /// the whole map in the online pipeline, one block row per span in
    /// the fused loop.
    pub const PIPELINE_QUANTIZE_MAP: &str = "pipeline.quantize_map";
    /// `AttnV` — block-sparse: the whole map in the online pipeline, one
    /// packed-integer block row per span in the fused loop.
    pub const PIPELINE_ATTN_V: &str = "pipeline.attn_v";
    /// Inverse reorder of the attention output.
    pub const PIPELINE_UNREORDER: &str = "pipeline.unreorder";
    /// The calibrated int path's fused loop over one range of block rows
    /// (today: all of a head's): per block row, [`PIPELINE_QKT`],
    /// [`PIPELINE_QUANTIZE_MAP`] and [`PIPELINE_ATTN_V`].
    pub const PIPELINE_BLOCK_ROWS: &str = "pipeline.block_rows";
    /// LDZ precompute of the output-aware `QKᵀ`: one truncated copy of
    /// the head's `K` codes per kept bitwidth below 8 that the allocation
    /// uses (at most two per head).
    pub const QKT_LDZ: &str = "qkt.ldz";
    /// The i8×i8→i32 score micro-kernel calls of one block row with their
    /// scaling to f32 scores (one block's MAC is shorter than a span
    /// record, so per-block spans would dominate the stage); `detail`
    /// names the dispatched kernel.
    pub const QKT_MAC: &str = "qkt.mac";
    /// The softmax of one scored block row's rows: with [`QKT_MAC`] the
    /// whole of a fused-loop [`PIPELINE_QKT`] span.
    pub const QKT_SOFTMAX: &str = "qkt.softmax";
    /// Zero-point centering ("unpack") of the per-column `V` codes.
    pub const ATTNV_UNPACK: &str = "attnv.unpack";
    /// The per-bitwidth i32 MAC micro-kernel calls of one packed block row
    /// together with their per-block dequantization (scale product and
    /// f32 add into the output rows); none for a row whose blocks are all
    /// 0-bit. `detail` names the dispatched kernel.
    pub const ATTNV_MAC: &str = "attnv.mac";
    /// Multi-sample offline head calibration (`calibrate_head`), after
    /// its argument checks: [`CALIBRATE_SELECT`],
    /// [`CALIBRATE_SENSITIVITY`] and [`CALIBRATE_ALLOCATE`], which cover
    /// it.
    pub const CALIBRATE_HEAD: &str = "calibrate.head";
    /// Plan selection inside [`CALIBRATE_HEAD`]: the one shared copy of
    /// the calibration maps and the pool batch that scores every
    /// (sample, axis order) candidate.
    pub const CALIBRATE_SELECT: &str = "calibrate.select";
    /// The sensitivity table of the averaged reordered map inside
    /// [`CALIBRATE_HEAD`]: one pool batch over ranges of its block rows.
    pub const CALIBRATE_SENSITIVITY: &str = "calibrate.sensitivity";
    /// The greedy bit allocation inside [`CALIBRATE_HEAD`], on the
    /// calling thread.
    pub const CALIBRATE_ALLOCATE: &str = "calibrate.allocate";
    /// Backoff sleep before one retry of a transiently-faulted request.
    pub const SERVE_RETRY_BACKOFF: &str = "serve.retry_backoff";
    /// Degraded fallback: the reference f32 attention path run after the
    /// packed-int path faulted (marked with the `degraded` outcome).
    pub const SERVE_FALLBACK: &str = "serve.fallback";
    /// One-shot kernel-dispatch resolution: a zero-length span emitted at
    /// session start whose `detail` names the micro-kernel every hot loop
    /// runs (`scalar` / `avx2`).
    pub const KERNEL_DISPATCH: &str = "kernel.dispatch";
    /// Reading + structural validation of a plan artifact at engine
    /// startup (and the per-request artifact lookup on a plan-cache
    /// miss).
    pub const PLAN_LOAD: &str = "plan.load";
    /// Deep semantic verification of a loaded plan artifact against the
    /// serving configuration.
    pub const PLAN_VERIFY: &str = "plan.verify";
    /// Admission-to-dispatch wait of one head task in the serving work
    /// graph: the interval between entering a tenant queue and the
    /// weighted-fair scheduler granting the task to a worker.
    pub const SCHED_QUEUE_WAIT: &str = "sched.queue_wait";
    /// One scheduler wave: the busy period between the work graph's
    /// in-flight count leaving zero and returning to zero. The range's
    /// context is the wave id.
    pub const SCHED_WAVE: &str = "sched.wave";
    /// Load-shedding decision marker: a zero-length span emitted at
    /// admission when a tenant over quota is degraded to its coarse shed
    /// budget (`detail` = `degrade`) or rejected outright (`detail` =
    /// `reject`).
    pub const SCHED_SHED: &str = "sched.shed";
    /// Plan-health transition marker: a zero-length span emitted by the
    /// staleness watchdog when a plan epoch's health state changes
    /// (`detail` = the new state, `fresh` / `suspect` / `stale`).
    pub const PLAN_HEALTH: &str = "plan.health";
    /// One online recalibration attempt: re-freezing every head plan
    /// from the current calibration source (marked `degraded` when the
    /// attempt faulted and serving continues on the stale epoch).
    pub const PLAN_RECALIBRATE: &str = "plan.recalibrate";
    /// Atomic plan hot-swap: publication of a freshly recalibrated epoch
    /// to new admissions (the span's correlation context is the new
    /// epoch).
    pub const PLAN_SWAP: &str = "plan.swap";

    /// Every canonical stage name, for exporter tests and documentation
    /// checks.
    pub const ALL: &[&str] = &[
        SERVE_QUEUE_WAIT,
        SERVE_SERVICE,
        SERVE_CALIBRATE,
        SERVE_ADMIT,
        SERVE_REASSEMBLE,
        POOL_QUEUE_WAIT,
        POOL_EXECUTE,
        PIPELINE_QUANTIZE_QKV,
        PIPELINE_QUANTIZE_V,
        PIPELINE_SELECT_PLAN,
        PIPELINE_REORDER,
        PIPELINE_QKT,
        PIPELINE_QUANTIZE_MAP,
        PIPELINE_ATTN_V,
        PIPELINE_UNREORDER,
        PIPELINE_BLOCK_ROWS,
        QKT_LDZ,
        QKT_MAC,
        QKT_SOFTMAX,
        ATTNV_UNPACK,
        ATTNV_MAC,
        CALIBRATE_HEAD,
        CALIBRATE_SELECT,
        CALIBRATE_SENSITIVITY,
        CALIBRATE_ALLOCATE,
        SERVE_RETRY_BACKOFF,
        SERVE_FALLBACK,
        KERNEL_DISPATCH,
        PLAN_LOAD,
        PLAN_VERIFY,
        SCHED_QUEUE_WAIT,
        SCHED_WAVE,
        SCHED_SHED,
        PLAN_HEALTH,
        PLAN_RECALIBRATE,
        PLAN_SWAP,
    ];
}

/// A finished recording: every span captured between
/// [`TraceSession::start`] and [`TraceSession::finish`], sorted by start
/// time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The recorded spans, sorted by `start_ns` (ties by `id`).
    pub records: Vec<SpanRecord>,
    /// Spans dropped because a thread hit its buffer cap during the
    /// session. Non-zero means the summaries undercount.
    pub dropped: u64,
}

impl Trace {
    /// Exports the trace in Chrome trace-event JSON (the format Perfetto
    /// and `about://tracing` load). See `docs/TELEMETRY.md` for the field
    /// contract.
    pub fn chrome_json(&self) -> String {
        chrome::chrome_json(&self.records)
    }

    /// Per-stage aggregate durations (count/total/p50/p95/max), sorted by
    /// total time descending.
    pub fn summary(&self) -> Vec<StageSummary> {
        summarize(&self.records)
    }

    /// Per-context per-stage aggregates: one [`CtxSummary`] per distinct
    /// correlation context (spans without a context are grouped under
    /// [`NO_CTX`]).
    pub fn summary_by_ctx(&self) -> Vec<CtxSummary> {
        summarize_by_ctx(&self.records)
    }
}
