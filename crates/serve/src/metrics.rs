//! Lock-cheap serving metrics: counters, latency histograms and a
//! serde-serializable snapshot.
//!
//! Workers record into atomics only (no mutex on the hot path); the
//! snapshot is taken by the caller whenever it wants a consistent-enough
//! view. Latencies go into a fixed log-scale histogram in microseconds,
//! from which approximate p50/p95/p99 are read out as the upper bound of
//! the containing bucket — the standard monitoring trade-off (bounded
//! memory, bounded error).

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log-scale histogram buckets: bucket `i` covers latencies in
/// `[2^i, 2^(i+1))` microseconds, with the last bucket open-ended. 30
/// buckets reach ~18 minutes, far beyond any sane attention latency.
const BUCKETS: usize = 30;

/// A fixed-bucket, atomically-updated latency histogram (microseconds).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Approximate quantile in microseconds: the upper bound of the bucket
    /// containing the `q`-th observation (`q` in `[0, 1]`). Returns 0 when
    /// empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i, capped at the observed max.
                let upper = if i + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Serializable summary of this histogram.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one latency histogram.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Observation count.
    pub count: u64,
    /// Mean in microseconds.
    pub mean_us: f64,
    /// Approximate median (µs).
    pub p50_us: u64,
    /// Approximate 95th percentile (µs).
    pub p95_us: u64,
    /// Approximate 99th percentile (µs).
    pub p99_us: u64,
    /// Maximum observed (µs).
    pub max_us: u64,
}

/// Per-tenant counters and latency, one row per configured tenant class.
/// Updated with relaxed atomics exactly like [`Metrics`].
#[derive(Debug)]
pub struct TenantMetrics {
    /// The tenant class name (fixed at engine construction).
    pub name: String,
    /// Requests this tenant had accepted into the work graph.
    pub submitted: AtomicU64,
    /// Requests this tenant completed successfully (including degraded).
    pub completed: AtomicU64,
    /// Requests admitted degraded to the tenant's coarse shed budget
    /// (tier 1 of the shedding ladder).
    pub shed_degraded: AtomicU64,
    /// Requests rejected by tier 2 of the shedding ladder.
    pub shed_rejected: AtomicU64,
    /// Requests that failed for any non-shed reason (fault, deadline,
    /// pipeline error).
    pub failed: AtomicU64,
    /// End-to-end latency (admission to completion) of this tenant's
    /// completed requests.
    pub total: LatencyHistogram,
}

impl TenantMetrics {
    /// Zeroed metrics for the named tenant.
    pub fn new(name: impl Into<String>) -> Self {
        TenantMetrics {
            name: name.into(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed_degraded: AtomicU64::new(0),
            shed_rejected: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            total: LatencyHistogram::new(),
        }
    }

    /// Serializable snapshot of this tenant's row.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            name: self.name.clone(),
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_degraded: self.shed_degraded.load(Ordering::Relaxed),
            shed_rejected: self.shed_rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            total: self.total.summary(),
        }
    }
}

/// A point-in-time view of one tenant's metrics row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSnapshot {
    /// The tenant class name.
    pub name: String,
    /// Requests accepted into the work graph.
    pub submitted: u64,
    /// Requests completed successfully (including degraded).
    pub completed: u64,
    /// Requests admitted degraded to the coarse shed budget.
    pub shed_degraded: u64,
    /// Requests rejected by the shedding ladder.
    pub shed_rejected: u64,
    /// Requests that failed for any non-shed reason.
    pub failed: u64,
    /// End-to-end latency of completed requests.
    pub total: LatencySummary,
}

/// All engine counters and histograms. Shared between workers via `Arc`;
/// every update is a relaxed atomic.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted into the queue.
    pub submitted: AtomicU64,
    /// Requests completed successfully.
    pub completed: AtomicU64,
    /// Requests rejected at admission (queue full).
    pub rejected: AtomicU64,
    /// Requests that missed their deadline.
    pub deadline_missed: AtomicU64,
    /// Requests that failed inside the attention pipeline.
    pub failed: AtomicU64,
    /// Requests cancelled mid-pipeline by their deadline (a subset of
    /// deadline accounting distinct from `deadline_missed`, which counts
    /// requests already expired at queue pickup).
    pub timed_out: AtomicU64,
    /// Retry attempts made after transient faults (counts retries, not
    /// requests: one request retried twice adds 2).
    pub retried: AtomicU64,
    /// Requests completed on the degraded f32 reference fallback after
    /// the packed-int path faulted.
    pub degraded: AtomicU64,
    /// Requests that faulted (worker/pool panic or injected fault)
    /// without recovering. Every faulted request is also counted failed.
    pub faulted: AtomicU64,
    /// Requests rejected at admission for non-finite (NaN/Inf) inputs.
    pub invalid_input: AtomicU64,
    /// Watchdog transitions into [`crate::lifecycle::PlanHealth::Stale`]
    /// (one per declared-stale epoch, not per request).
    pub stale_detected: AtomicU64,
    /// Online recalibrations that completed and hot-swapped a new epoch.
    pub recalibrations: AtomicU64,
    /// Recalibration attempts that failed (fault, panic, or exhausted
    /// retries); serving continued on the stale epoch.
    pub recalib_failed: AtomicU64,
    /// Requests served while the watchdog held the current epoch Stale
    /// (each such response is flagged `stale_plan`).
    pub stale_served: AtomicU64,
    /// Time from admission to a worker picking the request up.
    pub queue_wait: LatencyHistogram,
    /// Worker service time (calibration lookup + attention).
    pub service: LatencyHistogram,
    /// End-to-end time (admission to completion).
    pub total: LatencyHistogram,
    /// Cumulative nanoseconds spent computing calibrations (cache misses).
    pub calibration_ns: AtomicU64,
    /// Cumulative nanoseconds spent in the calibrated attention kernel.
    pub attention_ns: AtomicU64,
    /// Cumulative packed attention-map bytes read by the integer kernels.
    pub packed_map_bytes: AtomicU64,
    /// Cumulative `AttnV` MACs executed by the integer kernels.
    pub int_executed_macs: AtomicU64,
    /// Cumulative `AttnV` MACs a dense execution would have needed.
    pub int_dense_macs: AtomicU64,
    /// Per-tenant rows, indexed by tenant class (empty for the implicit
    /// single-tenant engine constructed with [`Metrics::new`]).
    pub tenants: Vec<TenantMetrics>,
}

impl Metrics {
    /// Creates zeroed metrics with no tenant rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates zeroed metrics with one row per named tenant class.
    pub fn with_tenants<S: AsRef<str>>(names: &[S]) -> Self {
        Metrics {
            tenants: names
                .iter()
                .map(|n| TenantMetrics::new(n.as_ref()))
                .collect(),
            ..Self::default()
        }
    }

    /// The metrics row for a tenant index, when one exists.
    pub fn tenant(&self, index: usize) -> Option<&TenantMetrics> {
        self.tenants.get(index)
    }

    /// Builds the serializable snapshot. `queue_depth` is sampled by the
    /// caller (the engine owns the queue); `elapsed` scopes the
    /// requests-per-second figure.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        elapsed: Duration,
        cache: crate::plan_cache::CacheStats,
    ) -> MetricsSnapshot {
        let completed = self.completed.load(Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
            invalid_input: self.invalid_input.load(Ordering::Relaxed),
            stale_detected: self.stale_detected.load(Ordering::Relaxed),
            recalibrations: self.recalibrations.load(Ordering::Relaxed),
            recalib_failed: self.recalib_failed.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            queue_depth,
            elapsed_s: secs,
            requests_per_sec: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            queue_wait: self.queue_wait.summary(),
            service: self.service.summary(),
            total: self.total.summary(),
            calibration_ms: self.calibration_ns.load(Ordering::Relaxed) as f64 / 1e6,
            attention_ms: self.attention_ns.load(Ordering::Relaxed) as f64 / 1e6,
            packed_map_bytes: self.packed_map_bytes.load(Ordering::Relaxed),
            int_executed_macs: self.int_executed_macs.load(Ordering::Relaxed),
            int_dense_macs: self.int_dense_macs.load(Ordering::Relaxed),
            int_macs_skipped_fraction: {
                let dense = self.int_dense_macs.load(Ordering::Relaxed);
                let exec = self.int_executed_macs.load(Ordering::Relaxed);
                if dense == 0 {
                    0.0
                } else {
                    1.0 - exec as f64 / dense as f64
                }
            },
            cache,
            tenants: self.tenants.iter().map(TenantMetrics::snapshot).collect(),
        }
    }
}

/// A point-in-time, JSON-serializable view of the engine's metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that missed their deadline.
    pub deadline_missed: u64,
    /// Requests that failed in the pipeline.
    pub failed: u64,
    /// Requests cancelled mid-pipeline by their deadline.
    pub timed_out: u64,
    /// Retry attempts made after transient faults.
    pub retried: u64,
    /// Requests completed on the degraded f32 reference fallback.
    pub degraded: u64,
    /// Requests that faulted (panic or injected fault) unrecovered.
    pub faulted: u64,
    /// Requests rejected at admission for non-finite inputs.
    pub invalid_input: u64,
    /// Watchdog transitions into the Stale health state.
    pub stale_detected: u64,
    /// Completed online recalibrations (each hot-swapped a new epoch).
    pub recalibrations: u64,
    /// Failed recalibration attempts (serving continued on the stale
    /// epoch).
    pub recalib_failed: u64,
    /// Requests served while the current epoch was held Stale.
    pub stale_served: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Wall-clock window the throughput figure covers (seconds).
    pub elapsed_s: f64,
    /// Completed requests per second over the window.
    pub requests_per_sec: f64,
    /// Admission-to-pickup latency.
    pub queue_wait: LatencySummary,
    /// Worker service latency.
    pub service: LatencySummary,
    /// End-to-end latency.
    pub total: LatencySummary,
    /// Total time spent calibrating (cache misses), milliseconds.
    pub calibration_ms: f64,
    /// Total time spent in calibrated attention, milliseconds.
    pub attention_ms: f64,
    /// Packed attention-map bytes read by the integer kernels.
    pub packed_map_bytes: u64,
    /// `AttnV` MACs executed on packed codes (0-bit blocks bypassed).
    pub int_executed_macs: u64,
    /// `AttnV` MACs a dense execution would have needed.
    pub int_dense_macs: u64,
    /// Fraction of dense `AttnV` MACs the dispatcher bypass skipped.
    pub int_macs_skipped_fraction: f64,
    /// Plan-cache statistics.
    pub cache: crate::plan_cache::CacheStats,
    /// Per-tenant rows (empty for a single-tenant engine).
    pub tenants: Vec<TenantSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            h.record(Duration::from_micros(us));
        }
        let (p50, p95, p99) = (h.quantile_us(0.5), h.quantile_us(0.95), h.quantile_us(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p99 never exceeds the observed max.
        assert!(p99 <= 5120);
        // p50 bucket upper bound for 160µs is 255.
        assert!((160..=255).contains(&p50), "p50={p50}");
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn mean_matches_sum() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        assert!((h.mean_us() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serializes() {
        let m = Metrics::new();
        m.submitted.store(5, Ordering::Relaxed);
        m.completed.store(4, Ordering::Relaxed);
        m.total.record(Duration::from_micros(900));
        m.packed_map_bytes.store(1024, Ordering::Relaxed);
        m.int_executed_macs.store(75, Ordering::Relaxed);
        m.int_dense_macs.store(100, Ordering::Relaxed);
        let snap = m.snapshot(
            2,
            Duration::from_secs(2),
            crate::plan_cache::CacheStats {
                entries: 1,
                capacity: 8,
                hits: 3,
                misses: 1,
                evictions: 0,
                inflight_waits: 2,
                hit_rate: 0.75,
            },
        );
        assert_eq!(snap.submitted, 5);
        assert!((snap.requests_per_sec - 2.0).abs() < 1e-9);
        assert_eq!(snap.packed_map_bytes, 1024);
        assert!((snap.int_macs_skipped_fraction - 0.25).abs() < 1e-9);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"requests_per_sec\""));
        assert!(json.contains("\"p99_us\""));
        assert!(json.contains("\"hit_rate\""));
        assert!(json.contains("\"packed_map_bytes\""));
        assert!(json.contains("\"int_macs_skipped_fraction\""));
        for key in [
            "timed_out",
            "retried",
            "degraded",
            "faulted",
            "invalid_input",
            "stale_detected",
            "recalibrations",
            "recalib_failed",
            "stale_served",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn tenant_rows_snapshot_per_class() {
        let m = Metrics::with_tenants(&["interactive", "batch"]);
        assert_eq!(m.tenants.len(), 2);
        m.tenant(1)
            .unwrap()
            .submitted
            .fetch_add(3, Ordering::Relaxed);
        m.tenant(1)
            .unwrap()
            .shed_degraded
            .fetch_add(1, Ordering::Relaxed);
        m.tenant(1)
            .unwrap()
            .total
            .record(Duration::from_micros(500));
        let snap = m.snapshot(
            0,
            Duration::from_secs(1),
            crate::plan_cache::CacheStats {
                entries: 0,
                capacity: 8,
                hits: 0,
                misses: 0,
                evictions: 0,
                inflight_waits: 0,
                hit_rate: 0.0,
            },
        );
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].name, "interactive");
        assert_eq!(snap.tenants[1].submitted, 3);
        assert_eq!(snap.tenants[1].shed_degraded, 1);
        assert_eq!(snap.tenants[1].total.count, 1);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"tenants\""));
        assert!(json.contains("\"batch\""));
        assert!(json.contains("\"shed_rejected\""));
        // The implicit single-tenant engine serializes an empty list.
        assert!(Metrics::new().tenants.is_empty());
    }
}
