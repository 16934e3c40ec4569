//! The concurrent attention-serving engine.
//!
//! A multi-tenant **work graph** ([`crate::scheduler::WorkGraph`]) feeds
//! a pool of worker threads; each request is one cost-annotated
//! `(block, head)` head task. Admission walks the per-tenant shedding
//! ladder, dispatch is start-time weighted-fair across tenant classes,
//! and batching is continuous: a new request's head tasks backfill idle
//! workers while earlier requests are still in flight — the compute pool
//! never drains between requests. Workers resolve the head's frozen
//! calibration through the [`PlanCache`] (calibrating on first touch via
//! a [`CalibrationSource`]) and execute
//! the packed-integer calibrated pipeline
//! ([`paro_core::int_pipeline::run_attention_calibrated_int`]), recording
//! packed-byte traffic and MAC counts into the metrics. Results are
//! reassembled in submission order, so the multi-threaded engine's output
//! is **bit-identical** to a single-threaded run: every request's
//! computation is a pure function of its inputs and its cache key, and
//! scheduling only changes latency. (A tier-1 shed serves the request at
//! its tenant's coarse bit budget — flagged `shed` in the response, never
//! silent.) The full contract lives in `docs/SCHEDULING.md`.
//!
//! Worker threads only orchestrate (graph dispatch, cache lookups,
//! waiting); the CPU-heavy work — calibration and the attention kernels —
//! runs on the process-wide [`paro_core::pool::ComputePool`], which is
//! sized by `available_parallelism`. Raising `workers` therefore
//! increases request concurrency without oversubscribing cores.

use crate::admission::{relock, request_cost, rewait, ServeError};
use crate::lifecycle::{PlanHealth, RecalibrationPolicy, Watchdog, WatchdogConfig, WatchdogStats};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::plan_cache::{MethodKey, PlanCache, PlanKey};
use crate::plan_store::PlanStore;
use crate::scheduler::{Admission, GraphStats, TenantClass, WorkGraph};
use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::cancel::Deadline;
use paro_core::int_pipeline::{run_attention_calibrated_int_with, IntAttentionRun};
use paro_core::pipeline::{run_attention_calibrated_reference, AttentionInputs, AttentionRun};
use paro_core::pool::{panic_message, ComputePool};
use paro_core::CoreError;
use paro_model::{ModelConfig, TokenGrid};
use paro_quant::{Bitwidth, BlockGrid};
use paro_sim::dispatch::lpt_order;
use paro_tensor::Tensor;
use paro_trace::SpanOutcome;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Base backoff slept before retry `k` after a transient fault; the sleep
/// is `k × RETRY_BACKOFF`, linearly increasing.
pub const RETRY_BACKOFF: Duration = Duration::from_micros(250);

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker (orchestration) threads. Compute runs on the shared
    /// [`paro_core::pool::ComputePool`], so this bounds request
    /// concurrency, not core usage.
    pub workers: usize,
    /// Submission queue capacity; a full queue rejects, never blocks.
    pub queue_capacity: usize,
    /// Plan-cache capacity (calibrations, i.e. heads).
    pub cache_capacity: usize,
    /// Quantization block edge.
    pub block_edge: usize,
    /// Bitwidth used to score reorder plans during calibration.
    pub calib_bits: Bitwidth,
    /// Mixed-precision average-bit budget.
    pub budget: f32,
    /// Sensitivity alpha.
    pub alpha: f32,
    /// Whether `QKᵀ` is output-bitwidth aware (LDZ truncation).
    pub output_aware: bool,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Maximum retries after a transient fault (contained panic or
    /// injected transient error) before the request degrades or fails.
    /// Retry `k` first sleeps `k ×` [`RETRY_BACKOFF`].
    pub retry_limit: u32,
    /// Whether a request whose packed-int path keeps faulting falls back
    /// to the f32 reference pipeline (marked `degraded` in the response,
    /// metrics and trace) instead of failing.
    pub degraded_fallback: bool,
    /// Path to a frozen plan artifact (see `paro-artifact` and
    /// `docs/ARTIFACT.md`). When set, the engine loads and verifies the
    /// artifact at construction and plan-cache misses fill from its
    /// frozen calibrations instead of recalibrating; heads absent from
    /// the artifact still calibrate through the [`CalibrationSource`].
    pub plan_artifact: Option<std::path::PathBuf>,
    /// Tenant classes (scheduling weight, quota, shed budget). The
    /// default is a single unbounded class, which reproduces the
    /// single-tenant engine exactly. [`ServeRequest::tenant`] indexes
    /// into this list.
    pub tenants: Vec<TenantClass>,
    /// Staleness watchdog configuration. `None` disables the fidelity
    /// proxy entirely (no per-request sampling, responses never flag
    /// `stale_plan`). See `docs/LIFECYCLE.md`.
    pub watchdog: Option<WatchdogConfig>,
    /// When (if ever) the engine recalibrates online and hot-swaps a new
    /// plan epoch. [`RecalibrationPolicy::OnStale`] requires a watchdog.
    pub recalibration: RecalibrationPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 4096,
            block_edge: 6,
            calib_bits: Bitwidth::B4,
            budget: 4.8,
            alpha: 0.5,
            output_aware: false,
            default_deadline: None,
            retry_limit: 2,
            degraded_fallback: true,
            plan_artifact: None,
            tenants: vec![TenantClass::default()],
            watchdog: None,
            recalibration: RecalibrationPolicy::Off,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig("workers must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue capacity must be >= 1".into(),
            ));
        }
        if self.cache_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "cache capacity must be >= 1".into(),
            ));
        }
        if self.block_edge == 0 {
            return Err(ServeError::InvalidConfig("block edge must be >= 1".into()));
        }
        if !(self.budget > 0.0 && self.budget <= 8.0) {
            return Err(ServeError::InvalidConfig("budget must be in (0, 8]".into()));
        }
        if self.tenants.is_empty() {
            return Err(ServeError::InvalidConfig(
                "at least one tenant class is required".into(),
            ));
        }
        for (i, t) in self.tenants.iter().enumerate() {
            if !(t.weight.is_finite() && t.weight > 0.0) {
                return Err(ServeError::InvalidConfig(format!(
                    "tenant '{}' weight must be finite and positive",
                    t.name
                )));
            }
            if t.quota == 0 {
                return Err(ServeError::InvalidConfig(format!(
                    "tenant '{}' quota must be >= 1",
                    t.name
                )));
            }
            if let Some(b) = t.shed_budget {
                if !(b > 0.0 && b <= 8.0) {
                    return Err(ServeError::InvalidConfig(format!(
                        "tenant '{}' shed budget must be in (0, 8]",
                        t.name
                    )));
                }
            }
            if self.tenants[..i].iter().any(|o| o.name == t.name) {
                return Err(ServeError::InvalidConfig(format!(
                    "duplicate tenant name '{}'",
                    t.name
                )));
            }
        }
        if let Some(wd) = &self.watchdog {
            wd.validate()?;
        }
        match self.recalibration {
            RecalibrationPolicy::OnStale if self.watchdog.is_none() => {
                return Err(ServeError::InvalidConfig(
                    "recalibration policy OnStale requires a watchdog".into(),
                ));
            }
            RecalibrationPolicy::Periodic { every_requests: 0 } => {
                return Err(ServeError::InvalidConfig(
                    "periodic recalibration interval must be >= 1 request".into(),
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

/// Where calibration samples come from when a head misses the cache.
///
/// Implementations **must** be deterministic in `(block, head)`: the maps
/// returned for a key may not depend on request arrival order, or the
/// engine's bit-identical-across-thread-counts guarantee breaks.
pub trait CalibrationSource: Send + Sync {
    /// Post-softmax attention maps (`[n, n]`, canonical order) of the
    /// given head over the calibration set.
    ///
    /// # Errors
    ///
    /// Propagates synthesis/pipeline errors.
    fn calibration_maps(&self, block: usize, head: usize) -> Result<Vec<Tensor>, CoreError>;
}

/// One attention request: a `(block, head)` unit of work.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Transformer block index.
    pub block: usize,
    /// Head index.
    pub head: usize,
    /// The head's `Q/K/V`.
    pub inputs: AttentionInputs,
    /// Per-request deadline (falls back to the engine default).
    pub deadline: Option<Duration>,
    /// Tenant class index into [`ServeConfig::tenants`] (0 = the default
    /// class on a single-tenant engine).
    pub tenant: usize,
}

/// A completed request.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Position in the submitted batch (submission order).
    pub index: usize,
    /// Transformer block index.
    pub block: usize,
    /// Head index.
    pub head: usize,
    /// The attention result.
    pub run: AttentionRun,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Time spent queued.
    pub queue_wait: Duration,
    /// Worker service time.
    pub service: Duration,
    /// Whether the result came from the f32 reference fallback after the
    /// packed-int path faulted (graceful degradation).
    pub degraded: bool,
    /// Pipeline attempts this response took (1 = no retries).
    pub attempts: u32,
    /// Tenant class index the request was admitted under.
    pub tenant: usize,
    /// Whether tier 1 of the shedding ladder served this request at its
    /// tenant's coarse `shed_budget` instead of the configured budget.
    pub shed: bool,
    /// Plan epoch the request was pinned to at admission. A request
    /// admitted before a hot-swap finishes on its pinned epoch even if
    /// the engine publishes a newer one mid-flight.
    pub epoch: u64,
    /// Whether the watchdog considered the serving plan stale at the
    /// time this response completed. The request was still served (the
    /// lifecycle never sheds), but downstream consumers can weigh the
    /// result accordingly.
    pub stale_plan: bool,
}

/// Outcome of [`Engine::run_batch`]: per-request results in submission
/// order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per submitted request, index-aligned with the input.
    pub responses: Vec<Result<ServeResponse, ServeError>>,
}

impl BatchOutcome {
    /// Number of successful responses.
    pub fn completed(&self) -> usize {
        self.responses.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of failed/rejected requests.
    pub fn failed(&self) -> usize {
        self.responses.len() - self.completed()
    }
}

/// A handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
    index: usize,
}

impl Ticket {
    /// The request's submission index.
    pub fn index(&self) -> usize {
        self.index
    }
}

#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Result<ServeResponse, ServeError>>>,
    done: Condvar,
    filled: AtomicBool,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            result: Mutex::new(None),
            done: Condvar::new(),
            filled: AtomicBool::new(false),
        })
    }

    /// Delivers the request's result exactly once. The normal service
    /// path and the worker's panic recovery can both reach a slot; the
    /// first delivery wins so a contained panic never overwrites a result
    /// already handed to the waiter.
    fn fill_once(&self, result: Result<ServeResponse, ServeError>) {
        if self.filled.swap(true, Ordering::AcqRel) {
            return;
        }
        *relock(&self.result) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ServeResponse, ServeError> {
        let mut guard = relock(&self.result);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = rewait(&self.done, guard);
        }
    }
}

struct Job {
    index: usize,
    block: usize,
    head: usize,
    inputs: AttentionInputs,
    deadline: Option<Duration>,
    enqueued: Instant,
    slot: Arc<Slot>,
    tenant: usize,
    /// Coarse bit budget a tier-1 shed degraded this task to; `None`
    /// serves at the configured budget.
    budget_override: Option<f32>,
    /// Plan epoch pinned at admission. The request resolves every head
    /// plan at this epoch for its whole lifetime, so a hot-swap mid-batch
    /// never mixes plan generations within one request.
    epoch: u64,
}

/// Shared calibration-lifecycle state: the published plan epoch, the
/// staleness watchdog, and the single-recalibration-in-flight guard.
/// One instance is shared by the engine handle and every worker.
struct Lifecycle {
    /// The epoch new admissions pin. Monotonically increasing; published
    /// *after* a recalibrated generation is fully inserted in the cache,
    /// so a request can never observe the new epoch without its plans.
    epoch: AtomicU64,
    /// Epoch the configured plan artifact was frozen at (0 without an
    /// artifact). Artifact lookups only satisfy misses at this epoch —
    /// later epochs exist only in the cache, by construction.
    base_epoch: u64,
    watchdog: Option<Watchdog>,
    policy: RecalibrationPolicy,
    /// Single-flight guard: at most one recalibration (background or
    /// synchronous) runs at a time.
    recalibrating: AtomicBool,
    /// Handle of the most recent background recalibration thread, joined
    /// at shutdown so the engine never leaks a running recalibrator.
    recalib_thread: Mutex<Option<JoinHandle<()>>>,
    /// Completed requests since the last recalibration started; drives
    /// [`RecalibrationPolicy::Periodic`].
    completed_since_recalib: AtomicU64,
}

/// The in-process attention-serving engine.
pub struct Engine {
    cfg: ServeConfig,
    model: ModelConfig,
    graph: Arc<WorkGraph<Job>>,
    cache: Arc<PlanCache>,
    metrics: Arc<Metrics>,
    source: Arc<dyn CalibrationSource>,
    lifecycle: Arc<Lifecycle>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    submitted: std::sync::atomic::AtomicUsize,
}

impl Engine {
    /// Builds the engine and spawns its worker pool.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a zero worker count,
    /// queue/cache capacity, block edge, or an out-of-range budget.
    pub fn new(
        cfg: ServeConfig,
        model: ModelConfig,
        source: Arc<dyn CalibrationSource>,
    ) -> Result<Self, ServeError> {
        cfg.validate()?;
        // The serving engine quantizes pure visual attention: every
        // pattern family and calibration plan assumes the token sequence
        // is exactly the video grid. A non-zero text prefix would be
        // silently mis-modelled, so reject it loudly instead of zeroing
        // it behind the caller's back (workload::scaled_config documents
        // the explicit zeroing callers opt into).
        if model.text_tokens > 0 {
            return Err(ServeError::InvalidConfig(format!(
                "model '{}' has text_tokens = {}: the engine serves pure visual attention; \
                 zero the text prefix explicitly (see workload::scaled_config) before serving",
                model.name, model.text_tokens
            )));
        }
        // A configured plan artifact is loaded and verified once, up
        // front: a corrupt or mismatched artifact fails engine
        // construction with a typed error instead of surfacing (or worse,
        // silently serving a wrong plan) on the first cold request.
        let plans = match &cfg.plan_artifact {
            Some(path) => {
                let store = PlanStore::load(path)?;
                store.verify(&model, &cfg)?;
                Some(Arc::new(store))
            }
            None => None,
        };
        let graph = Arc::new(WorkGraph::new(&cfg.tenants, cfg.queue_capacity));
        let cache = Arc::new(PlanCache::new(cfg.cache_capacity));
        let names: Vec<&str> = cfg.tenants.iter().map(|t| t.name.as_str()).collect();
        let metrics = Arc::new(Metrics::with_tenants(&names));
        // The engine starts at the artifact's frozen epoch (0 without
        // one); online recalibration only ever moves forward from there.
        let base_epoch = plans.as_ref().map_or(0, |p| p.meta().epoch);
        let lifecycle = Arc::new(Lifecycle {
            epoch: AtomicU64::new(base_epoch),
            base_epoch,
            watchdog: cfg.watchdog.map(Watchdog::new),
            policy: cfg.recalibration,
            recalibrating: AtomicBool::new(false),
            recalib_thread: Mutex::new(None),
            completed_since_recalib: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let ctx = WorkerCtx {
                cfg: cfg.clone(),
                model: model.clone(),
                graph: Arc::clone(&graph),
                cache: Arc::clone(&cache),
                metrics: Arc::clone(&metrics),
                source: Arc::clone(&source),
                plans: plans.clone(),
                lifecycle: Arc::clone(&lifecycle),
            };
            let handle = std::thread::Builder::new()
                .name(format!("paro-serve-{i}"))
                .spawn(move || worker_loop(&ctx))
                .map_err(|e| {
                    // Release any workers already spawned before failing.
                    graph.close();
                    ServeError::InvalidConfig(format!("failed to spawn worker thread: {e}"))
                })?;
            workers.push(handle);
        }
        Ok(Engine {
            cfg,
            model,
            graph,
            cache,
            metrics,
            source,
            lifecycle,
            workers: Mutex::new(workers),
            started: Instant::now(),
            submitted: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The model this engine serves.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Submits one request without blocking.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] under overload (the rejection is also
    /// counted in the metrics), [`ServeError::Closed`] after shutdown.
    pub fn try_submit(&self, request: ServeRequest) -> Result<Ticket, ServeError> {
        self.submit_job(request, false)
    }

    /// Submits one request, waiting for queue space instead of rejecting.
    /// Batch drivers use this to pace themselves; external callers should
    /// prefer [`Engine::try_submit`] and honor the backpressure.
    ///
    /// # Errors
    ///
    /// [`ServeError::Closed`] after shutdown.
    pub fn submit_blocking(&self, request: ServeRequest) -> Result<Ticket, ServeError> {
        self.submit_job(request, true)
    }

    fn submit_job(&self, request: ServeRequest, blocking: bool) -> Result<Ticket, ServeError> {
        use std::sync::atomic::Ordering::Relaxed;
        if request.tenant >= self.cfg.tenants.len() {
            self.metrics.invalid_input.fetch_add(1, Relaxed);
            return Err(ServeError::InvalidInput(format!(
                "request (block {}, head {}): tenant index {} out of range ({} classes)",
                request.block,
                request.head,
                request.tenant,
                self.cfg.tenants.len()
            )));
        }
        // Reject non-finite inputs here, where the failure is attributable
        // to the caller: NaN/Inf propagates through softmax into the
        // sparse kernels' zero-skip precondition and would otherwise
        // surface as an unrelated pipeline error (or garbage) much later.
        for (name, tensor) in [
            ("q", request.inputs.q()),
            ("k", request.inputs.k()),
            ("v", request.inputs.v()),
        ] {
            if tensor.as_slice().iter().any(|v| !v.is_finite()) {
                self.metrics.invalid_input.fetch_add(1, Relaxed);
                return Err(ServeError::InvalidInput(format!(
                    "request (block {}, head {}): {name} contains NaN/Inf",
                    request.block, request.head
                )));
            }
        }
        // SFQ cost annotation: the frozen per-block cycle model when the
        // head's calibration is cached, the budget-scaled estimate
        // otherwise (same numbers run_batch's LPT ordering uses).
        let cal = self.cache.peek(&self.plan_key(request.block, request.head));
        let cost = request_cost(
            request.inputs.tokens(),
            self.model.head_dim(),
            self.cfg.budget,
            cal.as_deref(),
        );
        let index = self.submitted.fetch_add(1, Relaxed);
        let slot = Slot::new();
        let tenant = request.tenant;
        let deadline = request.deadline.or(self.cfg.default_deadline);
        let shed_budget = self.cfg.tenants[tenant].shed_budget;
        // Pin the plan epoch at admission: the request serves every head
        // at this generation even if a hot-swap lands while it is queued.
        let epoch = self.lifecycle.epoch.load(Relaxed);
        let admitted = self
            .graph
            .submit(tenant, cost, index as u64, blocking, |admission| Job {
                index,
                block: request.block,
                head: request.head,
                inputs: request.inputs,
                deadline,
                enqueued: Instant::now(),
                slot: Arc::clone(&slot),
                tenant,
                budget_override: match admission {
                    Admission::Full => None,
                    Admission::Shed => shed_budget,
                },
                epoch,
            });
        match admitted {
            Ok(admission) => {
                self.metrics.submitted.fetch_add(1, Relaxed);
                if let Some(row) = self.metrics.tenant(tenant) {
                    row.submitted.fetch_add(1, Relaxed);
                    if admission == Admission::Shed {
                        row.shed_degraded.fetch_add(1, Relaxed);
                    }
                }
                Ok(Ticket { slot, index })
            }
            Err(e) => {
                match &e {
                    ServeError::QueueFull { .. } => {
                        self.metrics.rejected.fetch_add(1, Relaxed);
                    }
                    ServeError::Shed { .. } => {
                        self.metrics.rejected.fetch_add(1, Relaxed);
                        if let Some(row) = self.metrics.tenant(tenant) {
                            row.shed_rejected.fetch_add(1, Relaxed);
                        }
                    }
                    _ => {}
                }
                Err(e)
            }
        }
    }

    /// Blocks until the ticket's request completes.
    ///
    /// # Errors
    ///
    /// Returns the request's failure (deadline miss, pipeline error).
    pub fn wait(&self, ticket: Ticket) -> Result<ServeResponse, ServeError> {
        ticket.slot.wait()
    }

    /// Runs a whole batch: admits every request in cost-LPT order
    /// ([`paro_sim::dispatch::lpt_order`] over
    /// [`crate::admission::request_cost`]), waits for completion, and
    /// returns results in **submission order** — deterministic
    /// regardless of worker count.
    /// Submission paces itself on queue space (a batch larger than the
    /// queue is fed as workers drain it); per-request failures (deadline
    /// miss, pipeline error, engine shutdown) appear as per-index errors.
    pub fn run_batch(&self, requests: Vec<ServeRequest>) -> BatchOutcome {
        let n = requests.len();
        let head_dim = self.model.head_dim();
        let costs: Vec<f64> = requests
            .iter()
            .map(|r| {
                let cal = self.cache.peek(&self.plan_key(r.block, r.head));
                request_cost(r.inputs.tokens(), head_dim, self.cfg.budget, cal.as_deref())
            })
            .collect();
        let order = lpt_order(&costs);
        let mut slots: Vec<Option<Result<Ticket, ServeError>>> = (0..n).map(|_| None).collect();
        let mut requests: Vec<Option<ServeRequest>> = requests.into_iter().map(Some).collect();
        let admit_span = paro_trace::span(paro_trace::stage::SERVE_ADMIT);
        for &i in &order {
            let req = requests[i].take().expect("each index admitted once");
            slots[i] = Some(self.submit_blocking(req));
        }
        drop(admit_span);
        let _reassemble_span = paro_trace::span(paro_trace::stage::SERVE_REASSEMBLE);
        let responses = slots
            .into_iter()
            .map(|slot| match slot.expect("all indices filled") {
                Ok(ticket) => self.wait(ticket),
                Err(e) => Err(e),
            })
            .collect();
        BatchOutcome { responses }
    }

    /// Quiesces the worker pool: queued work stays queued until
    /// [`Engine::resume`]. Submissions are still accepted (and still
    /// rejected once the queue fills) — the knob drains workers for
    /// reconfiguration and makes overload deterministic to test.
    pub fn pause(&self) {
        self.graph.pause();
    }

    /// Resumes a paused worker pool.
    pub fn resume(&self) {
        self.graph.resume();
    }

    /// Current work-graph depth (tasks admitted, not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.graph.len()
    }

    /// Point-in-time scheduler counters: queued/in-flight tasks, waves,
    /// and shedding-ladder decisions.
    pub fn graph_stats(&self) -> GraphStats {
        self.graph.stats()
    }

    /// Point-in-time metrics snapshot (JSON-serializable).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics
            .snapshot(self.graph.len(), self.started.elapsed(), self.cache.stats())
    }

    fn plan_key(&self, block: usize, head: usize) -> PlanKey {
        PlanKey {
            model: self.model.name.clone(),
            grid: (
                self.model.grid.frames(),
                self.model.grid.height(),
                self.model.grid.width(),
            ),
            block,
            head,
            method: MethodKey::new(
                self.cfg.block_edge,
                self.cfg.calib_bits,
                self.cfg.budget,
                self.cfg.alpha,
            ),
            epoch: self.lifecycle.epoch.load(Ordering::Relaxed),
        }
    }

    /// The plan epoch new admissions currently pin.
    pub fn current_epoch(&self) -> u64 {
        self.lifecycle.epoch.load(Ordering::Relaxed)
    }

    /// The watchdog's current verdict on the serving plan, or `None`
    /// when no watchdog is configured.
    pub fn plan_health(&self) -> Option<PlanHealth> {
        self.lifecycle.watchdog.as_ref().map(Watchdog::health)
    }

    /// Point-in-time watchdog internals (baseline, EWMA deviation,
    /// sample counts), or `None` when no watchdog is configured.
    pub fn watchdog_stats(&self) -> Option<WatchdogStats> {
        self.lifecycle.watchdog.as_ref().map(Watchdog::stats)
    }

    /// Recalibrates every ready head plan from the calibration source and
    /// atomically hot-swaps the new generation in, returning the new
    /// epoch. In-flight requests finish on their pinned epoch; admissions
    /// after the swap pick up the new one. Mutually exclusive with any
    /// background recalibration — this call waits for one in flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::Faulted`] when the recalibrator faults (including
    /// injected `serve.recalibrate` failpoints) after the configured
    /// bounded retries. The engine keeps serving on the old epoch; the
    /// failure is counted in `recalib_failed`.
    pub fn recalibrate(&self) -> Result<u64, ServeError> {
        while self.lifecycle.recalibrating.swap(true, Ordering::AcqRel) {
            let handle = relock(&self.lifecycle.recalib_thread).take();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => std::thread::yield_now(),
            }
        }
        let ctx = RecalibCtx {
            cfg: self.cfg.clone(),
            model: self.model.clone(),
            cache: Arc::clone(&self.cache),
            metrics: Arc::clone(&self.metrics),
            source: Arc::clone(&self.source),
            lifecycle: Arc::clone(&self.lifecycle),
        };
        let result = recalibrate_guarded(&ctx);
        self.lifecycle.recalibrating.store(false, Ordering::Release);
        result
    }
}

impl Engine {
    /// Shuts the engine down: closes the work graph (subsequent
    /// submissions fail with [`ServeError::Closed`]), lets workers drain
    /// every already-queued request, and joins them. Every outstanding
    /// [`Ticket`] resolves — queued requests are still served, so no
    /// waiter is ever leaked. Idempotent: a second call (or the implicit
    /// one in `Drop`) is a no-op.
    pub fn shutdown(&self) {
        self.graph.close();
        let handles = std::mem::take(&mut *relock(&self.workers));
        for handle in handles {
            let _ = handle.join();
        }
        // A background recalibration may still be running; join it so
        // shutdown never leaks a thread touching the (shared) cache.
        let recalib = relock(&self.lifecycle.recalib_thread).take();
        if let Some(handle) = recalib {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct WorkerCtx {
    cfg: ServeConfig,
    model: ModelConfig,
    graph: Arc<WorkGraph<Job>>,
    cache: Arc<PlanCache>,
    metrics: Arc<Metrics>,
    source: Arc<dyn CalibrationSource>,
    plans: Option<Arc<PlanStore>>,
    lifecycle: Arc<Lifecycle>,
}

fn worker_loop(ctx: &WorkerCtx) {
    use std::sync::atomic::Ordering::Relaxed;
    while let Some(job) = ctx.graph.next() {
        // The per-request failure domain: a panic anywhere in service —
        // worker orchestration, cache calibration, a pool job — is caught
        // here, converted to a typed fault and delivered to this request's
        // waiter. The loop (and therefore the engine) keeps serving, and
        // the fault stays confined to the panicking tenant's request.
        let slot = Arc::clone(&job.slot);
        let tenant = job.tenant;
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_one(ctx, &job)));
        // The wave accounting must see the task retire even when it
        // panicked, or a contained fault would keep its wave open forever.
        ctx.graph.task_done();
        if let Err(payload) = outcome {
            ctx.metrics.faulted.fetch_add(1, Relaxed);
            ctx.metrics.failed.fetch_add(1, Relaxed);
            if let Some(row) = ctx.metrics.tenant(tenant) {
                row.failed.fetch_add(1, Relaxed);
            }
            slot.fill_once(Err(ServeError::Faulted {
                site: "serve.worker".into(),
                message: panic_message(payload.as_ref()),
            }));
        }
    }
}

/// Services one popped job end-to-end and fills its slot. Runs inside the
/// worker's `catch_unwind` failure domain.
fn serve_one(ctx: &WorkerCtx, job: &Job) {
    use std::sync::atomic::Ordering::Relaxed;
    let picked_up = Instant::now();
    let waited = picked_up.duration_since(job.enqueued);
    ctx.metrics.queue_wait.record(waited);
    // All spans this request produces — here and on the compute pool —
    // carry its submission index as the correlation context.
    let _request_ctx = paro_trace::ctx(job.index as u64);
    paro_trace::record_range(
        paro_trace::stage::SERVE_QUEUE_WAIT,
        job.enqueued,
        picked_up,
        job.index as u64,
    );
    if let Some(budget) = job.deadline {
        if waited > budget {
            ctx.metrics.deadline_missed.fetch_add(1, Relaxed);
            if let Some(row) = ctx.metrics.tenant(job.tenant) {
                row.failed.fetch_add(1, Relaxed);
            }
            job.slot
                .fill_once(Err(ServeError::DeadlineExceeded { waited, budget }));
            return;
        }
    }
    let service_span = paro_trace::span(paro_trace::stage::SERVE_SERVICE);
    let result = execute(ctx, job);
    match &result {
        Ok(exec) if exec.degraded => service_span.set_outcome(SpanOutcome::Degraded),
        Ok(_) => {}
        Err(ServeError::DeadlineExceeded { .. }) => {
            service_span.set_outcome(SpanOutcome::Cancelled)
        }
        Err(_) => service_span.set_outcome(SpanOutcome::Failed),
    }
    drop(service_span);
    let service = picked_up.elapsed();
    ctx.metrics.service.record(service);
    ctx.metrics.total.record(job.enqueued.elapsed());
    match result {
        Ok(exec) => {
            ctx.metrics.completed.fetch_add(1, Relaxed);
            if exec.degraded {
                ctx.metrics.degraded.fetch_add(1, Relaxed);
            }
            if let Some(row) = ctx.metrics.tenant(job.tenant) {
                row.completed.fetch_add(1, Relaxed);
                row.total.record(job.enqueued.elapsed());
            }
            let stale_plan = observe_lifecycle(ctx, job, &exec);
            job.slot.fill_once(Ok(ServeResponse {
                index: job.index,
                block: job.block,
                head: job.head,
                run: exec.run,
                cache_hit: exec.cache_hit,
                queue_wait: waited,
                service,
                degraded: exec.degraded,
                attempts: exec.attempts,
                tenant: job.tenant,
                shed: job.budget_override.is_some(),
                epoch: job.epoch,
                stale_plan,
            }));
        }
        Err(e) => {
            match &e {
                ServeError::DeadlineExceeded { .. } => {
                    ctx.metrics.timed_out.fetch_add(1, Relaxed);
                }
                ServeError::Faulted { .. } => {
                    ctx.metrics.faulted.fetch_add(1, Relaxed);
                }
                _ => {}
            }
            ctx.metrics.failed.fetch_add(1, Relaxed);
            if let Some(row) = ctx.metrics.tenant(job.tenant) {
                row.failed.fetch_add(1, Relaxed);
            }
            job.slot.fill_once(Err(e));
        }
    }
}

/// A successful execution: the attention result plus how it was obtained.
struct Executed {
    run: AttentionRun,
    cache_hit: bool,
    degraded: bool,
    attempts: u32,
}

/// Post-completion lifecycle bookkeeping for one successful request:
/// feeds the fidelity proxy to the watchdog (sampled), flags/counts stale
/// service, and triggers background recalibration per the policy.
/// Returns whether the response should carry `stale_plan`.
fn observe_lifecycle(ctx: &WorkerCtx, job: &Job, exec: &Executed) -> bool {
    use std::sync::atomic::Ordering::Relaxed;
    let lc = &ctx.lifecycle;
    let mut went_stale = false;
    if let Some(wd) = &lc.watchdog {
        // Only clean, current-epoch, full-budget results feed the proxy:
        // a degraded f32 fallback, a shed coarse-budget run, or a request
        // pinned to a pre-swap epoch would shift the sparsity baseline
        // for reasons that have nothing to do with drift.
        let clean =
            !exec.degraded && job.budget_override.is_none() && job.epoch == lc.epoch.load(Relaxed);
        if clean {
            if let Some(state) = wd.observe((job.block, job.head), f64::from(exec.run.map_sparsity))
            {
                // Zero-length marker span: the transition itself is the
                // event; its detail names the state entered.
                drop(paro_trace::span_detailed(
                    paro_trace::stage::PLAN_HEALTH,
                    state.name(),
                ));
                if state == PlanHealth::Stale {
                    ctx.metrics.stale_detected.fetch_add(1, Relaxed);
                    went_stale = true;
                }
            }
        }
    }
    let stale_plan = lc
        .watchdog
        .as_ref()
        .is_some_and(|wd| wd.health() == PlanHealth::Stale);
    if stale_plan {
        ctx.metrics.stale_served.fetch_add(1, Relaxed);
    }
    match lc.policy {
        RecalibrationPolicy::Off => {}
        RecalibrationPolicy::OnStale => {
            if went_stale {
                trigger_background_recalibration(ctx);
            }
        }
        RecalibrationPolicy::Periodic { every_requests } => {
            let n = lc.completed_since_recalib.fetch_add(1, Relaxed) + 1;
            if n >= every_requests {
                trigger_background_recalibration(ctx);
            }
        }
    }
    stale_plan
}

/// Everything one recalibration run needs, owned — buildable from the
/// engine handle (synchronous path) or a worker (background trigger).
struct RecalibCtx {
    cfg: ServeConfig,
    model: ModelConfig,
    cache: Arc<PlanCache>,
    metrics: Arc<Metrics>,
    source: Arc<dyn CalibrationSource>,
    lifecycle: Arc<Lifecycle>,
}

/// Starts a background recalibration unless one is already in flight.
/// The spawned thread owns its whole failure domain (`catch_unwind`), so
/// a panicking recalibrator can never take a worker — let alone the
/// engine — down with it.
fn trigger_background_recalibration(ctx: &WorkerCtx) {
    let lc = &ctx.lifecycle;
    if lc.recalibrating.swap(true, Ordering::AcqRel) {
        return;
    }
    let rctx = RecalibCtx {
        cfg: ctx.cfg.clone(),
        model: ctx.model.clone(),
        cache: Arc::clone(&ctx.cache),
        metrics: Arc::clone(&ctx.metrics),
        source: Arc::clone(&ctx.source),
        lifecycle: Arc::clone(&ctx.lifecycle),
    };
    let spawned = std::thread::Builder::new()
        .name("paro-recalibrate".into())
        .spawn(move || {
            // The recalibrator reports through metrics/trace; a failure
            // here leaves the old epoch serving, which is the designed
            // degraded mode (responses flag `stale_plan`).
            let _ = recalibrate_guarded(&rctx);
            rctx.lifecycle.recalibrating.store(false, Ordering::Release);
        });
    match spawned {
        Ok(handle) => {
            let mut guard = relock(&lc.recalib_thread);
            // Reap the previous (finished) recalibrator before storing.
            if let Some(prev) = guard.take() {
                let _ = prev.join();
            }
            *guard = Some(handle);
        }
        Err(_) => lc.recalibrating.store(false, Ordering::Release),
    }
}

/// Runs one recalibration with panic containment: a panic anywhere in
/// the run (e.g. an injected `serve.recalibrate` panic failpoint) is
/// converted to a typed fault and counted, exactly like an error return.
fn recalibrate_guarded(ctx: &RecalibCtx) -> Result<u64, ServeError> {
    use std::sync::atomic::Ordering::Relaxed;
    match catch_unwind(AssertUnwindSafe(|| run_recalibration(ctx))) {
        Ok(result) => result,
        Err(payload) => {
            ctx.metrics.recalib_failed.fetch_add(1, Relaxed);
            Err(ServeError::Faulted {
                site: paro_failpoint::site::SERVE_RECALIBRATE.into(),
                message: panic_message(payload.as_ref()),
            })
        }
    }
}

/// One recalibration run: re-freezes every plan the cache holds at the
/// current epoch from the (possibly drifted) calibration source, then
/// atomically hot-swaps the new generation in and publishes the bumped
/// epoch. Transient faults get the same bounded linear-backoff retry as
/// the serving path; a final failure leaves the old epoch serving.
fn run_recalibration(ctx: &RecalibCtx) -> Result<u64, ServeError> {
    use std::sync::atomic::Ordering::Relaxed;
    // Restart the periodic clock at the *start* so a failing run cannot
    // re-trigger on every completed request.
    ctx.lifecycle.completed_since_recalib.store(0, Relaxed);
    let recalib_span = paro_trace::span(paro_trace::stage::PLAN_RECALIBRATE);
    let old_epoch = ctx.lifecycle.epoch.load(Relaxed);
    let new_epoch = old_epoch + 1;
    let keys = ctx.cache.ready_keys_at(old_epoch);
    let mut attempts = 1u32;
    let mut result = attempt_recalibration(ctx, &keys, new_epoch);
    while let Err(e) = &result {
        if !(e.is_transient() && attempts <= ctx.cfg.retry_limit) {
            break;
        }
        {
            let _backoff_span = paro_trace::span(paro_trace::stage::SERVE_RETRY_BACKOFF);
            std::thread::sleep(RETRY_BACKOFF * attempts);
        }
        attempts += 1;
        result = attempt_recalibration(ctx, &keys, new_epoch);
    }
    match result {
        Ok(entries) => {
            // The swap is atomic from a request's point of view: the full
            // generation lands in the cache first, and only then is the
            // epoch published for new admissions to pin. The span's
            // correlation context carries the epoch being published.
            let _swap_ctx = paro_trace::ctx(new_epoch);
            let swap_span = paro_trace::span(paro_trace::stage::PLAN_SWAP);
            ctx.cache.insert_generation(entries);
            ctx.lifecycle.epoch.store(new_epoch, Relaxed);
            if let Some(wd) = &ctx.lifecycle.watchdog {
                // Fresh plans need a fresh baseline: the proxy's normal
                // range legitimately moves with the new generation.
                wd.reset();
                drop(paro_trace::span_detailed(
                    paro_trace::stage::PLAN_HEALTH,
                    PlanHealth::Fresh.name(),
                ));
            }
            drop(swap_span);
            ctx.metrics.recalibrations.fetch_add(1, Relaxed);
            Ok(new_epoch)
        }
        Err(e) => {
            recalib_span.set_outcome(SpanOutcome::Failed);
            ctx.metrics.recalib_failed.fetch_add(1, Relaxed);
            Err(e)
        }
    }
}

/// One attempt at re-freezing the whole plan generation. Every head
/// calibrates on the shared compute pool — recalibration interleaves with
/// serving work at per-head granularity instead of monopolizing cores.
fn attempt_recalibration(
    ctx: &RecalibCtx,
    keys: &[PlanKey],
    new_epoch: u64,
) -> Result<Vec<(PlanKey, Arc<HeadCalibration>)>, ServeError> {
    if paro_failpoint::fire(paro_failpoint::site::SERVE_RECALIBRATE) {
        return Err(ServeError::Faulted {
            site: paro_failpoint::site::SERVE_RECALIBRATE.into(),
            message: "fault injected".into(),
        });
    }
    let mut entries = Vec::with_capacity(keys.len());
    for key in keys {
        // Re-freeze at the key's own method point, so shed coarse-budget
        // plans recalibrate at the shed budget, not the full one.
        let cal = calibrate_on_pool(&ctx.source, key.block, key.head, ctx.model.grid, key.method)?;
        entries.push((key.at_epoch(new_epoch), Arc::new(cal)));
    }
    Ok(entries)
}

/// Calibrates one head on the shared compute pool: pulls the head's
/// calibration maps from `source` and freezes its plan on `grid` at the
/// `method` point. Calibration is CPU-bound, so it runs on the pool and
/// serve workers never oversubscribe cores; a panicking calibrator
/// surfaces as a typed [`ServeError::Faulted`] instead of killing the
/// pool.
fn calibrate_on_pool(
    source: &Arc<dyn CalibrationSource>,
    block_idx: usize,
    head: usize,
    grid: TokenGrid,
    method: MethodKey,
) -> Result<HeadCalibration, ServeError> {
    let source = Arc::clone(source);
    ComputePool::global().try_run(move || {
        let maps = source.calibration_maps(block_idx, head)?;
        let block = BlockGrid::square(method.block_edge).map_err(CoreError::from)?;
        Ok(calibrate_head(
            &maps,
            &grid,
            block,
            method.calib_bits,
            method.budget(),
            method.alpha(),
        )?)
    })?
}

fn execute(ctx: &WorkerCtx, job: &Job) -> Result<Executed, ServeError> {
    use std::sync::atomic::Ordering::Relaxed;
    if paro_failpoint::fire(paro_failpoint::site::SERVE_EXECUTE) {
        return Err(ServeError::Faulted {
            site: paro_failpoint::site::SERVE_EXECUTE.into(),
            message: "fault injected".into(),
        });
    }
    // Absolute deadline for cooperative cancellation inside the pipeline
    // stages, anchored at admission so queue time counts against it.
    let deadline = job
        .deadline
        .map_or(Deadline::NONE, |budget| Deadline::at(job.enqueued + budget));
    // A tier-1 shed serves at the tenant's coarse budget: the method key
    // carries the *effective* budget, so coarse and full-fidelity plans
    // occupy distinct cache entries and never cross-contaminate.
    let budget = job.budget_override.unwrap_or(ctx.cfg.budget);
    let key = PlanKey {
        model: ctx.model.name.clone(),
        grid: (
            ctx.model.grid.frames(),
            ctx.model.grid.height(),
            ctx.model.grid.width(),
        ),
        block: job.block,
        head: job.head,
        method: MethodKey::new(
            ctx.cfg.block_edge,
            ctx.cfg.calib_bits,
            budget,
            ctx.cfg.alpha,
        ),
        epoch: job.epoch,
    };
    // Bounded retry with linear backoff for transient faults (contained
    // panics, injected transient errors). The whole attempt — calibration
    // resolution *and* the packed-int run — is retried, so a pool fault
    // during a cache miss recovers too. Deterministic failures and
    // deadline cancellations are never retried.
    let mut attempts = 1u32;
    let mut result = attempt_int(ctx, job, &key, deadline);
    while let Err(e) = &result {
        if !(e.is_transient() && attempts <= ctx.cfg.retry_limit && !deadline.expired()) {
            break;
        }
        ctx.metrics.retried.fetch_add(1, Relaxed);
        {
            let _backoff_span = paro_trace::span(paro_trace::stage::SERVE_RETRY_BACKOFF);
            std::thread::sleep(RETRY_BACKOFF * attempts);
        }
        attempts += 1;
        result = attempt_int(ctx, job, &key, deadline);
    }
    match result {
        Ok((int, cache_hit)) => Ok(Executed {
            run: int.run,
            cache_hit,
            degraded: false,
            attempts,
        }),
        Err(e) if e.is_transient() && ctx.cfg.degraded_fallback => {
            // Graceful degradation: retries are exhausted but the fault is
            // transient to the *packed-int* path; serve the request on the
            // f32 reference pipeline rather than failing it. The downgrade
            // is visible in the response, the metrics and the trace.
            let (cal, cache_hit) = resolve_calibration(ctx, job, &key)?;
            let fallback_span = paro_trace::span(paro_trace::stage::SERVE_FALLBACK);
            fallback_span.set_outcome(SpanOutcome::Degraded);
            let inputs = job.inputs.clone();
            let cal_for_run = Arc::clone(&cal);
            let output_aware = ctx.cfg.output_aware;
            let run = ComputePool::global().try_run(move || {
                run_attention_calibrated_reference(&inputs, &cal_for_run, output_aware)
            })??;
            drop(fallback_span);
            Ok(Executed {
                run,
                cache_hit,
                degraded: true,
                attempts,
            })
        }
        Err(e) => Err(e),
    }
}

/// One full attempt at serving the request on the packed-int path:
/// calibration resolution through the single-flight cache, then the int
/// pipeline. Returns the run and whether the plan came from the cache.
fn attempt_int(
    ctx: &WorkerCtx,
    job: &Job,
    key: &PlanKey,
    deadline: Deadline,
) -> Result<(IntAttentionRun, bool), ServeError> {
    let (cal, cache_hit) = resolve_calibration(ctx, job, key)?;
    let int = int_attention(ctx, job, &cal, deadline)?;
    Ok((int, cache_hit))
}

/// Resolves the head's frozen calibration through the plan cache,
/// calibrating on the shared compute pool on a miss. `try_run` contains a
/// panicking calibrator to a typed fault instead of killing the pool (the
/// plan cache then wakes all single-flight waiters with the error, so the
/// fault is retryable).
fn resolve_calibration(
    ctx: &WorkerCtx,
    job: &Job,
    key: &PlanKey,
) -> Result<(Arc<HeadCalibration>, bool), ServeError> {
    use std::sync::atomic::Ordering::Relaxed;
    ctx.cache.get_or_calibrate(key, || {
        // A frozen artifact satisfies the miss without any computation:
        // thawing a record is pure decoding, so it runs on the worker
        // thread, not the compute pool. The artifact holds full-budget
        // plans of the epoch it was frozen at only — shed tasks and misses
        // on recalibrated epochs calibrate from the live source instead.
        let frozen = job.epoch == ctx.lifecycle.base_epoch && job.budget_override.is_none();
        if let Some(store) = ctx.plans.as_ref().filter(|_| frozen) {
            let _load_span = paro_trace::span(paro_trace::stage::PLAN_LOAD);
            if let Some(cal) = store.lookup(job.block, job.head)? {
                return Ok(cal);
            }
        }
        let _calibrate_span = paro_trace::span(paro_trace::stage::SERVE_CALIBRATE);
        let t0 = Instant::now();
        // The key's method point carries the effective (possibly shed)
        // budget.
        let cal = calibrate_on_pool(
            &ctx.source,
            job.block,
            job.head,
            *job.inputs.grid(),
            key.method,
        )?;
        ctx.metrics.calibration_ns.fetch_add(
            t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            Relaxed,
        );
        Ok::<_, ServeError>(cal)
    })
}

/// One attempt at the packed-int attention path on the compute pool, with
/// pool panics mapped to [`ServeError::Faulted`] and mid-pipeline deadline
/// cancellation mapped to [`ServeError::DeadlineExceeded`].
fn int_attention(
    ctx: &WorkerCtx,
    job: &Job,
    cal: &Arc<HeadCalibration>,
    deadline: Deadline,
) -> Result<IntAttentionRun, ServeError> {
    use std::sync::atomic::Ordering::Relaxed;
    let t0 = Instant::now();
    let inputs = job.inputs.clone();
    let cal_for_run = Arc::clone(cal);
    let output_aware = ctx.cfg.output_aware;
    let int = ComputePool::global()
        .try_run(move || {
            run_attention_calibrated_int_with(&inputs, &cal_for_run, output_aware, deadline)
        })?
        .map_err(|e| match e {
            CoreError::Cancelled => ServeError::DeadlineExceeded {
                waited: job.enqueued.elapsed(),
                budget: job.deadline.unwrap_or(Duration::ZERO),
            },
            other => ServeError::from(other),
        })?;
    ctx.metrics.attention_ns.fetch_add(
        t0.elapsed().as_nanos().min(u64::MAX as u128) as u64,
        Relaxed,
    );
    ctx.metrics
        .packed_map_bytes
        .fetch_add(int.stats.packed_map_bytes, Relaxed);
    ctx.metrics
        .int_executed_macs
        .fetch_add(int.stats.executed_macs, Relaxed);
    ctx.metrics
        .int_dense_macs
        .fetch_add(int.stats.dense_macs, Relaxed);
    Ok(int)
}
