//! `serve_poisson`: single-head requests through `paro_serve::Engine`.
//!
//! Two equal-weight tenant classes; requests alternate between them and
//! cycle 32 `(block, head)` pairs of a CogVideoX-2B model on the 6×8×8
//! grid (384 tokens), with fresh `Q/K/V` per step. Set-up calibrates every
//! pair through the engine, so the measured phases are plan-cache hits.
//! The run alternates segments of two phases:
//!
//! - A: an open loop with Poisson arrivals at a fixed rate, timed per
//!   request from its due time to its response;
//! - B: a closed burst through `Engine::run_batch`, for throughput.
//!
//! At ~6–10 ms per head the serving overhead (admission, work-graph
//! dispatch, cache lookups, pool hand-offs) is a visible share of each
//! request, and queueing at a fixed load turns any per-request cost into
//! latency. The linears, output-aware `QKᵀ` and large-N memory are not
//! touched here.

use crate::alloc::measure_peak;
use crate::harness::{
    all_finite, bits, highest, mean_rel_l2, nproc, repeat_setup, RunCfg, PEAK_REPS,
};
use crate::layers::{add_calibration_layers, b0_share, int_pipeline_layers, HeadCase};
use crate::report::{median, ms, quantile, supported_tail, Outcome, PhaseCount};
use crate::spans::Tracer;
use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::int_pipeline::run_attention_calibrated_int;
use paro_core::pipeline::reference_attention;
use paro_core::pool::ComputePool;
use paro_model::ModelConfig;
use paro_quant::BlockGrid;
use paro_serve::engine::CalibrationSource;
use paro_serve::workload::{
    open_loop_arrivals, scaled_config, synthetic_requests, SyntheticSource, WorkloadSpec,
};
use paro_serve::{Engine, MethodKey, PlanKey, ServeConfig, ServeError, ServeRequest, TenantClass};
use paro_tensor::rng::derive_seed;
use paro_tensor::Tensor;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Size of one run; `tiny` shrinks it for the self-test.
struct Shape {
    frames: usize,
    height: usize,
    width: usize,
    blocks: usize,
    heads: usize,
    /// Distinct inputs per pair; request `g` uses step `(g / pairs) % steps`.
    steps: usize,
    /// Offered rate of phase A, requests per second.
    rate: f64,
    /// Requests per phase-B burst.
    burst: usize,
    /// Length of one A+B segment.
    segment: Duration,
}

const FULL: Shape = Shape {
    frames: 6,
    height: 8,
    width: 8,
    blocks: 2,
    heads: 16,
    steps: 4,
    rate: 50.0,
    burst: 256,
    segment: Duration::from_secs(5),
};

const TINY: Shape = Shape {
    frames: 2,
    height: 4,
    width: 6,
    blocks: 2,
    heads: 2,
    steps: 2,
    rate: 200.0,
    burst: 16,
    segment: Duration::from_millis(400),
};

/// Share of a segment the open loop runs; the burst after it takes about
/// the rest. The bursts' throughput is a time average over their share of
/// the run, so a larger share steadies it; the open loop keeps enough
/// requests for ten beyond its p99.
const OPEN_SHARE: f64 = 0.75;
/// Beyond the first cycle through the inputs, every `SAMPLE_EVERY`-th
/// request of phase A is kept and checked against a direct pipeline call.
const SAMPLE_EVERY: usize = 13;
/// Calibration samples per head, as `paro serve-bench` uses.
const CALIBRATION_SAMPLES: usize = 2;
/// Largest `output_rel_l2` against f32 attention that passes.
pub const REL_L2_BOUND: f64 = 0.06;

/// One phase-A request as the benchmark saw it.
struct Sample {
    index: usize,
    due: Instant,
    submitted: Instant,
    /// When `try_submit` returned.
    admitted: Instant,
    /// When the waiter began to wait for the response, and when it woke.
    wait_began: Instant,
    woke: Instant,
    outcome: Result<Served, String>,
}

struct Served {
    queue_wait: Duration,
    service: Duration,
    cache_hit: bool,
    finite: bool,
    /// The output, for sampled requests.
    kept: Option<Tensor>,
}

impl Sample {
    /// When the engine completed the request: its submission plus the
    /// response's own queue wait and service. The engine starts the queue
    /// wait after its input checks, so this is early by their few
    /// microseconds; the single waiter thread's wake-up is not in it.
    fn completed(&self, r: &Served) -> Instant {
        self.submitted + r.queue_wait + r.service
    }

    fn latency_ms(&self, r: &Served) -> f64 {
        ms(self.completed(r) - self.due)
    }

    /// From completion to the waiter's wake-up: the hand-off of the
    /// response, plus the wait for earlier responses, since one waiter
    /// takes them in submission order.
    fn handoff_ms(&self, r: &Served) -> f64 {
        ms(self.woke.saturating_duration_since(self.completed(r)))
    }
}

struct Workload {
    model: ModelConfig,
    config: ServeConfig,
    /// `pairs × steps` requests; request `g` is `inputs[g % len]` under
    /// tenant `g % 2`.
    inputs: Vec<ServeRequest>,
    pairs: usize,
    calibration_seed: u64,
}

impl Workload {
    /// Whether the output of measured request `index` is kept for the
    /// checks: the first cycle through every input, then every
    /// `SAMPLE_EVERY`-th request.
    fn kept(&self, index: usize) -> bool {
        index < self.pairs + self.inputs.len() || index.is_multiple_of(SAMPLE_EVERY)
    }

    fn request(&self, g: usize) -> ServeRequest {
        let mut r = self.inputs[g % self.inputs.len()].clone();
        r.tenant = g % 2;
        r
    }

    fn plan(&self, engine: &Engine, block: usize, head: usize) -> Arc<HeadCalibration> {
        let c = &self.config;
        let key = PlanKey {
            model: self.model.name.clone(),
            grid: (
                self.model.grid.frames(),
                self.model.grid.height(),
                self.model.grid.width(),
            ),
            block,
            head,
            method: MethodKey::new(c.block_edge, c.calib_bits, c.budget, c.alpha),
            epoch: 0,
        };
        engine
            .cache()
            .peek(&key)
            .expect("set-up calibrated every pair")
    }

    /// Engine construction plus in-engine calibration of every pair.
    /// Returns the engine and the bits of the warm-up outputs.
    fn setup(&self) -> (Engine, Vec<u32>) {
        let source = SyntheticSource::new(
            self.model.clone(),
            CALIBRATION_SAMPLES,
            self.calibration_seed,
        );
        let engine = Engine::new(self.config.clone(), self.model.clone(), Arc::new(source))
            .expect("valid engine config");
        let warm = engine.run_batch((0..self.pairs).map(|g| self.request(g)).collect());
        let bits = warm
            .responses
            .into_iter()
            .flat_map(|r| {
                let out = r.expect("warm-up request succeeds").run.output;
                out.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect();
        (engine, bits)
    }
}

/// Phase A: submits `arrivals` on schedule from this thread while one
/// waiter thread collects responses in submission order. Each latency
/// ends at the request's own completion (see [`Sample::completed`]), so a
/// response that waits behind an earlier one is not charged for it. In
/// the traced run every second submission runs inside a span, so the
/// tracing cost shows as `trace_overhead_pct`; the other spans are
/// recorded from the samples after the loop.
fn open_loop(
    engine: &Engine,
    w: &Workload,
    first: usize,
    arrivals: &[Duration],
    tracer: &Tracer,
) -> Vec<Sample> {
    type Submitted = (
        usize,
        Instant,
        Instant,
        Instant,
        Result<paro_serve::Ticket, ServeError>,
    );
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<Submitted>();
        let waiter = s.spawn(move || {
            rx.into_iter()
                .map(|(index, due, submitted, admitted, ticket)| {
                    let wait_began = Instant::now();
                    let response = ticket.and_then(|t| engine.wait(t));
                    let woke = Instant::now();
                    let outcome = response
                        .map(|r| Served {
                            queue_wait: r.queue_wait,
                            service: r.service,
                            cache_hit: r.cache_hit,
                            finite: all_finite(&r.run.output),
                            kept: w.kept(index).then(|| r.run.output.clone()),
                        })
                        .map_err(|e| e.to_string());
                    Sample {
                        index,
                        due,
                        submitted,
                        admitted,
                        wait_began,
                        woke,
                        outcome,
                    }
                })
                .collect::<Vec<_>>()
        });
        // A short lead so the first arrival is not late by construction.
        let start = Instant::now() + Duration::from_millis(2);
        let mut next = Some(w.request(first));
        for (i, at) in arrivals.iter().enumerate() {
            let index = first + i;
            let request = next.take().expect("prepared ahead");
            let due = start + *at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let span = traced(index).then(|| tracer.span("serve.submit", None, index as u64));
            let submitted = Instant::now();
            let ticket = engine.try_submit(request);
            let admitted = Instant::now();
            drop(span);
            tx.send((index, due, submitted, admitted, ticket))
                .expect("waiter outlives the generator");
            // Clone the next request while waiting for its due time.
            if i + 1 < arrivals.len() {
                next = Some(w.request(index + 1));
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread does not panic")
    })
}

fn traced(index: usize) -> bool {
    index.is_multiple_of(2)
}

/// A request's span and its children: generator lateness, queue wait and
/// service, which tile it. The hand-off to the waiter follows it.
fn record_spans(tr: &Tracer, s: &Sample, r: &Served) {
    let id = s.index as u64;
    let done = s.completed(r);
    let parent = tr.record("serve.request", s.due, done, None, id);
    tr.record("serve.generator_late", s.due, s.submitted, parent, id);
    let picked = s.submitted + r.queue_wait;
    tr.record("serve.queue_wait", s.submitted, picked, parent, id);
    tr.record("serve.service", picked, done, parent, id);
    tr.record("serve.handoff", done, s.woke, None, id);
}

/// What the measured phases leave behind.
struct Phases {
    samples: Vec<Sample>,
    burst: PhaseCount,
    burst_finite: bool,
    /// Wall time and pool busy nanoseconds of the open loop and the bursts.
    open_busy: (Duration, u64),
    burst_busy: (Duration, u64),
    pool_jobs: u64,
    dispatched: u64,
    waves: u64,
    /// The next unused request index.
    next: usize,
}

/// Alternates open-loop and burst segments for `time`.
fn measure(engine: &Engine, w: &Workload, shape: &Shape, cfg: &RunCfg, time: Duration) -> Phases {
    let segments = (time.as_secs_f64() / shape.segment.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let open_time = shape.segment.mul_f64(OPEN_SHARE);
    let pool = ComputePool::global();
    let (graph0, jobs0) = (engine.graph_stats(), pool.stats().executed_jobs);
    let mut p = Phases {
        samples: Vec::new(),
        burst: PhaseCount::default(),
        burst_finite: true,
        open_busy: (Duration::ZERO, 0),
        burst_busy: (Duration::ZERO, 0),
        pool_jobs: 0,
        dispatched: 0,
        waves: 0,
        next: w.pairs,
    };
    for seg in 0..segments {
        let cap = (shape.rate * open_time.as_secs_f64() * 2.0) as usize + 64;
        let arrivals: Vec<Duration> =
            open_loop_arrivals(shape.rate, cap, derive_seed(cfg.seed, 100 + seg as u64))
                .into_iter()
                .take_while(|at| *at < open_time)
                .collect();
        let (b0, t0) = (pool.stats().busy_ns, Instant::now());
        p.samples
            .extend(open_loop(engine, w, p.next, &arrivals, &cfg.tracer));
        p.open_busy.0 += t0.elapsed();
        p.open_busy.1 += pool.stats().busy_ns - b0;
        p.next += arrivals.len();

        let requests: Vec<ServeRequest> = (0..shape.burst).map(|i| w.request(p.next + i)).collect();
        p.next += shape.burst;
        let (b0, t0) = (pool.stats().busy_ns, Instant::now());
        let outcome = engine.run_batch(requests);
        p.burst_busy.0 += t0.elapsed();
        p.burst_busy.1 += pool.stats().busy_ns - b0;
        p.burst.sent += shape.burst as u64;
        for r in &outcome.responses {
            match r {
                Ok(r) => {
                    p.burst.succeeded += 1;
                    p.burst_finite &= all_finite(&r.run.output);
                }
                Err(_) => p.burst.failed += 1,
            }
        }
    }
    let graph1 = engine.graph_stats();
    p.pool_jobs = pool.stats().executed_jobs - jobs0;
    p.dispatched = graph1.dispatched - graph0.dispatched;
    p.waves = graph1.waves - graph0.waves;
    p
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let shape = if cfg.tiny { &TINY } else { &FULL };
    let mut out = Outcome::default();
    let model = scaled_config(
        &ModelConfig::cogvideox_2b(),
        shape.frames,
        shape.height,
        shape.width,
    );
    let config = ServeConfig {
        workers: nproc(),
        tenants: vec![
            TenantClass::new("tenant-a", 1.0),
            TenantClass::new("tenant-b", 1.0),
        ],
        ..ServeConfig::default()
    };
    let pairs = shape.blocks * shape.heads;
    // Inputs first, before any clock starts.
    let w = Workload {
        inputs: synthetic_requests(&WorkloadSpec {
            model: model.clone(),
            requests: pairs * shape.steps,
            blocks: shape.blocks,
            heads: shape.heads,
            seed: derive_seed(cfg.seed, 2),
        }),
        model,
        config,
        pairs,
        calibration_seed: derive_seed(cfg.seed, 1),
    };
    let (engine, _) = repeat_setup(&mut out, &cfg.tracer, |_| w.setup(), |a, b| a.1 == b.1);
    let after_setup = engine.metrics_snapshot();
    let p = measure(&engine, &w, shape, cfg, cfg.loop_time());
    let measured = engine.metrics_snapshot();

    let open = PhaseCount {
        sent: p.samples.len() as u64,
        succeeded: p.samples.iter().filter(|s| s.outcome.is_ok()).count() as u64,
        failed: p.samples.iter().filter(|s| s.outcome.is_err()).count() as u64,
    };
    out.phases.push(("open_loop", open));
    out.phases.push(("closed_burst", p.burst));
    let served: Vec<(&Sample, &Served)> = p
        .samples
        .iter()
        .filter_map(|s| s.outcome.as_ref().ok().map(|r| (s, r)))
        .collect();
    let latency: Vec<f64> = served.iter().map(|(s, r)| s.latency_ms(r)).collect();
    let saturation = p.burst.succeeded as f64 / p.burst_busy.0.as_secs_f64();
    out.metrics.add("latency_p50_ms", "ms", median(&latency));
    out.metrics
        .add("latency_p90_ms", "ms", quantile(&latency, 0.9));
    out.metrics
        .add("latency_p99_ms", "ms", quantile(&latency, 0.99));
    out.metrics.add("throughput_per_s", "1/s", saturation);
    let (pct, tail) = supported_tail(&latency);
    out.metrics.add("latency_tail_ms", "ms", tail);
    out.metrics.add("latency_tail_percentile", "%", pct);
    out.metrics
        .add("latency_tail_samples", "count", latency.len() as f64);
    let attempted = (open.sent + p.burst.sent).max(1) as f64;
    out.metrics.add(
        "failed_share",
        "ratio",
        (open.failed + p.burst.failed) as f64 / attempted,
    );

    // Correctness, outside the timed phases.
    let kept: Vec<(ServeRequest, &Tensor)> = served
        .iter()
        .filter_map(|(s, r)| r.kept.as_ref().map(|out| (w.request(s.index), out)))
        .collect();
    let identical = kept.iter().all(|(request, output)| {
        let plan = w.plan(&engine, request.block, request.head);
        let direct = run_attention_calibrated_int(&request.inputs, &plan, w.config.output_aware)
            .expect("direct call runs");
        bits(&direct.run.output) == bits(output)
    });
    // One response per distinct input: the measured phase starts a cycle
    // through all of them.
    let first_cycle = served
        .iter()
        .filter(|(s, _)| s.index < w.pairs + w.inputs.len())
        .filter_map(|(s, r)| r.kept.as_ref().map(|out| (w.request(s.index), out)));
    let rel_l2 = mean_rel_l2(first_cycle.map(|(request, output)| {
        let i = &request.inputs;
        let reference = reference_attention(i.q(), i.k(), i.v()).expect("f32 reference");
        (reference, output)
    }));
    out.metrics.add("output_rel_l2", "ratio", rel_l2);
    let peaks: Vec<f64> = (0..PEAK_REPS)
        .map(|i| {
            let request = w.request(p.next + i);
            measure_peak(|| engine.wait(engine.try_submit(request).expect("idle engine admits"))).1
        })
        .collect();
    out.metrics.add("peak_heap_mb", "MiB", highest(&peaks));
    out.check(
        "outputs.finite",
        served.iter().all(|(_, r)| r.finite) && p.burst_finite,
        format!("{} responses", served.len() as u64 + p.burst.succeeded),
    );
    out.check(
        "outputs.bit_identical_to_direct_call",
        identical && !kept.is_empty(),
        format!(
            "{} sampled responses equal run_attention_calibrated_int with the engine's frozen plan",
            kept.len()
        ),
    );
    out.check(
        "output_rel_l2.bound",
        rel_l2 < REL_L2_BOUND,
        format!(
            "{rel_l2:.6} mean over the sample against f32 reference_attention, bound {REL_L2_BOUND}"
        ),
    );

    let plan0 = w.plan(&engine, 0, 0);
    out.property("tokens", w.model.grid.len());
    out.property("head_dim", w.model.head_dim());
    out.property("pairs", pairs);
    out.property("engine_workers", w.config.workers);
    out.property("tenants", w.config.tenants.len());
    out.property("block_edge", w.config.block_edge);
    out.property("budget_bits", w.config.budget);
    out.property("offered_rate_per_s", shape.rate);
    out.property("measured_saturation_per_s", format!("{saturation:.1}"));
    out.property("b0_share_pair0", format!("{:.4}", b0_share(&plan0)));

    if cfg.traced() {
        let requests = attempted;
        let counter = |after: u64, before: u64| (after - before) as f64;
        let queue: Vec<f64> = served.iter().map(|(_, r)| ms(r.queue_wait)).collect();
        let service: Vec<f64> = served.iter().map(|(_, r)| ms(r.service)).collect();
        let lateness: Vec<f64> = p.samples.iter().map(|s| ms(s.submitted - s.due)).collect();
        let admission: Vec<f64> = p
            .samples
            .iter()
            .map(|s| ms(s.admitted - s.submitted))
            .collect();
        let handoff: Vec<f64> = served.iter().map(|(s, r)| s.handoff_ms(r)).collect();
        let already_done = served
            .iter()
            .filter(|(s, r)| s.wait_began >= s.completed(r))
            .count();
        let m = &mut out.metrics;
        m.add("serve.queue_wait_p50_ms", "ms", median(&queue));
        m.add("serve.queue_wait_p99_ms", "ms", quantile(&queue, 0.99));
        m.add("serve.service_p50_ms", "ms", median(&service));
        m.add("serve.submit_p50_ms", "ms", median(&admission));
        m.add("serve.handoff_p50_ms", "ms", median(&handoff));
        m.add("serve.handoff_p99_ms", "ms", quantile(&handoff, 0.99));
        m.add(
            "serve.already_done_share",
            "ratio",
            already_done as f64 / served.len().max(1) as f64,
        );
        m.add(
            "serve.generator_late_p99_ms",
            "ms",
            quantile(&lateness, 0.99),
        );
        m.add(
            "serve.cache_hit_share",
            "ratio",
            served.iter().filter(|(_, r)| r.cache_hit).count() as f64 / served.len().max(1) as f64,
        );
        m.add("serve.calibration_ms", "ms", after_setup.calibration_ms);
        m.add(
            "serve.rejected",
            "count",
            counter(measured.rejected, after_setup.rejected),
        );
        m.add(
            "serve.timed_out",
            "count",
            counter(measured.timed_out, after_setup.timed_out),
        );
        m.add(
            "serve.retried",
            "count",
            counter(measured.retried, after_setup.retried),
        );
        m.add(
            "serve.degraded",
            "count",
            counter(measured.degraded, after_setup.degraded),
        );
        m.add("sched.dispatched", "count", p.dispatched as f64 / requests);
        m.add("sched.waves", "count", p.waves as f64 / requests);
        let threads = ComputePool::global().threads() as f64;
        let share =
            |(wall, busy): (Duration, u64)| busy as f64 / (wall.as_nanos() as f64 * threads);
        m.add("pool.busy_share", "ratio", share(p.open_busy));
        m.add("pool.burst_busy_share", "ratio", share(p.burst_busy));
        m.add("pool.jobs", "count", p.pool_jobs as f64 / requests);
        let with_spans = |spanned: bool| -> Vec<f64> {
            served
                .iter()
                .filter(|(s, _)| traced(s.index) == spanned)
                .map(|(s, r)| s.latency_ms(r))
                .collect()
        };
        let plain = median(&with_spans(false));
        m.add(
            "trace_overhead_pct",
            "%",
            (median(&with_spans(true)) - plain) / plain * 100.0,
        );
        for (s, r) in &served {
            if traced(s.index) {
                record_spans(&cfg.tracer, s, r);
            }
        }
        out.attribution(
            "serve.attribution",
            served.iter().all(|(s, r)| s.completed(r) <= s.woke),
            "every request's lateness + queue wait + service ends before its waiter woke",
        );
        layers(cfg, &w, &engine, &plan0, &mut out);
    }
    engine.shutdown();
    out
}

/// The int pipeline and calibration of pair (0, 0), timed directly.
fn layers(cfg: &RunCfg, w: &Workload, engine: &Engine, plan0: &HeadCalibration, out: &mut Outcome) {
    let tr = &cfg.tracer;
    let request = w.request(0);
    let case = HeadCase {
        inputs: &request.inputs,
        cal: &w.plan(engine, request.block, request.head),
        output_aware: w.config.output_aware,
    };
    int_pipeline_layers(tr, &case, 20, cfg.layer_time().mul_f64(0.7), out);
    let source = SyntheticSource::new(w.model.clone(), CALIBRATION_SAMPLES, w.calibration_seed);
    let c = &w.config;
    let block = BlockGrid::square(c.block_edge).expect("non-zero edge");
    let mut same_plan = true;
    for rep in 0..3u64 {
        let maps = {
            let _s = tr.span("calibration.maps", None, rep);
            source.calibration_maps(0, 0).expect("calibration maps")
        };
        let _s = tr.span("calibration.head", None, rep);
        let cal = calibrate_head(&maps, &w.model.grid, block, c.calib_bits, c.budget, c.alpha)
            .expect("calibration");
        same_plan &= &cal == plan0;
    }
    out.attribution(
        "calibration.matches_engine",
        same_plan,
        "calibrating pair (0, 0) directly gives the plan the engine cached",
    );
    add_calibration_layers(tr, out);
}
