//! What every workload shares: run settings, repeated set-up and the
//! closed measurement loop.

use crate::report::{median, ms, quantile, supported_tail, Outcome, PhaseCount};
use crate::spans::Tracer;
use paro_core::pool::{ComputePool, PoolStats};
use paro_tensor::metrics::relative_l2;
use paro_tensor::Tensor;
use std::time::{Duration, Instant};

/// Cores available to the process; the pool and the engine's workers are
/// pinned to it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Operations `peak_heap_mb` is the highest peak of. On the pool, whether
/// two threads' buffers overlap depends on timing, so one operation's
/// peak varies while the highest of several does not.
pub const PEAK_REPS: usize = 5;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Settings of one run, from the command line.
pub struct RunCfg {
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    pub tracer: Tracer,
    /// Shrinks every workload to a size the self-test runs in seconds.
    pub tiny: bool,
}

impl RunCfg {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Time of the end-to-end loop: all of the run, or part of it when the
    /// traced run also times layers.
    pub fn loop_time(&self) -> Duration {
        let share = if self.traced() { 0.4 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Time left for per-layer timing in the traced run.
    pub fn layer_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.6)
    }
}

/// Runs `setup` [`SETUP_REPS`] times, records `setup_s` (the median) and
/// returns the last result. `same` checks that every repetition built the
/// same thing.
pub fn repeat_setup<T>(
    out: &mut Outcome,
    tracer: &Tracer,
    mut setup: impl FnMut(Option<crate::spans::SpanId>) -> T,
    same: impl Fn(&T, &T) -> bool,
) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built: Option<T> = None;
    let mut identical = true;
    for rep in 0..SETUP_REPS {
        let span = tracer.span("setup", None, rep as u64);
        let t0 = Instant::now();
        let value = setup(span.id());
        times.push(t0.elapsed().as_secs_f64());
        drop(span);
        if let Some(prev) = &built {
            identical &= same(prev, &value);
        }
        // The previous set-up is dropped here, after this one was timed, so
        // its teardown stays out of `setup_s`.
        built = Some(value);
    }
    out.metrics.add("setup_s", "s", median(&times));
    out.check(
        "setup.deterministic",
        identical,
        format!("{SETUP_REPS} set-ups from one seed built identical plans"),
    );
    built.expect("SETUP_REPS > 0")
}

/// Per-operation latencies of a closed loop with one caller.
pub struct ClosedLoop {
    /// Latencies of the iterations run without a span.
    pub latencies_ms: Vec<f64>,
    /// Latencies of the iterations run inside a benchmark span (traced run).
    pub traced_ms: Vec<f64>,
    pub busy: Duration,
    pub failed: u64,
    wall: Duration,
    pool_before: PoolStats,
    pool_after: PoolStats,
}

/// Calls `op` back to back for `time` (and at least `min_ops` times).
/// `check` sees each successful result outside the timed part; errors
/// count as failed operations. In the traced run
/// every second iteration runs inside a span, so the tracing cost shows
/// as `trace_overhead_pct`.
pub fn closed_loop<T>(
    tracer: &Tracer,
    name: &'static str,
    time: Duration,
    min_ops: usize,
    mut op: impl FnMut() -> Result<T, String>,
    mut check: impl FnMut(T),
) -> ClosedLoop {
    let pool = ComputePool::global();
    let mut l = ClosedLoop {
        latencies_ms: Vec::new(),
        traced_ms: Vec::new(),
        busy: Duration::ZERO,
        failed: 0,
        wall: Duration::ZERO,
        pool_before: pool.stats(),
        pool_after: pool.stats(),
    };
    let started = Instant::now();
    let mut i = 0u64;
    while (i as usize) < min_ops || started.elapsed() < time {
        let traced = tracer.enabled() && i % 2 == 1;
        let span = traced.then(|| tracer.span(name, None, i));
        let t0 = Instant::now();
        let result = op();
        let dt = t0.elapsed();
        drop(span);
        l.busy += dt;
        if traced {
            l.traced_ms.push(ms(dt));
        } else {
            l.latencies_ms.push(ms(dt));
        }
        match result {
            Ok(value) => check(value),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                l.failed += 1;
            }
        }
        i += 1;
    }
    l.wall = started.elapsed();
    l.pool_after = pool.stats();
    l
}

impl ClosedLoop {
    pub fn ops(&self) -> usize {
        self.latencies_ms.len() + self.traced_ms.len()
    }

    /// Records the loop's end-to-end latency and throughput metrics.
    /// Throughput divides by the time spent in `op`, which leaves out the
    /// benchmark's own checks between operations.
    pub fn report(&self, out: &mut Outcome, phase: &'static str) {
        let all: Vec<f64> = self
            .latencies_ms
            .iter()
            .chain(&self.traced_ms)
            .copied()
            .collect();
        out.phases.push((
            phase,
            PhaseCount {
                sent: self.ops() as u64,
                succeeded: self.ops() as u64 - self.failed,
                failed: self.failed,
            },
        ));
        out.metrics
            .add("latency_p50_ms", "ms", median(&self.latencies_ms));
        out.metrics
            .add("latency_p90_ms", "ms", quantile(&self.latencies_ms, 0.9));
        out.metrics
            .add("latency_p99_ms", "ms", quantile(&self.latencies_ms, 0.99));
        out.metrics.add(
            "throughput_per_s",
            "1/s",
            (self.ops() as u64 - self.failed) as f64 / self.busy.as_secs_f64(),
        );
        out.metrics.add(
            "failed_share",
            "ratio",
            self.failed as f64 / self.ops() as f64,
        );
        let (pct, tail) = supported_tail(&all);
        out.metrics.add("latency_tail_ms", "ms", tail);
        out.metrics.add("latency_tail_percentile", "%", pct);
        out.metrics
            .add("latency_tail_samples", "count", all.len() as f64);
    }

    /// `pool.busy_share` and `pool.jobs` (per operation) over the loop, for
    /// a workload whose operation runs on the compute pool.
    pub fn report_pool(&self, out: &mut Outcome) {
        out.metrics.add(
            "pool.busy_share",
            "ratio",
            self.pool_after
                .busy_fraction_since(&self.pool_before, self.wall),
        );
        out.metrics.add(
            "pool.jobs",
            "count",
            (self.pool_after.executed_jobs - self.pool_before.executed_jobs) as f64
                / self.ops() as f64,
        );
    }

    /// `trace_overhead_pct`: traced against untraced median latency.
    pub fn trace_overhead_pct(&self) -> f64 {
        let plain = median(&self.latencies_ms);
        (median(&self.traced_ms) - plain) / plain * 100.0
    }
}

pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// The bits of every value, for exact comparison.
pub fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

pub fn all_finite(t: &Tensor) -> bool {
    t.as_slice().iter().all(|v| v.is_finite())
}

/// Mean relative L2 error of outputs against their f32 references.
pub fn mean_rel_l2<'a>(pairs: impl Iterator<Item = (Tensor, &'a Tensor)>) -> f64 {
    let errors: Vec<f64> = pairs
        .map(|(reference, output)| {
            f64::from(relative_l2(&reference, output).expect("outputs match their references"))
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len().max(1) as f64
}
