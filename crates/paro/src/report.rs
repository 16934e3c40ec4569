//! Machine-readable report types the `paro` binary prints as JSON.
//!
//! These structs define the telemetry contract documented in
//! `docs/TELEMETRY.md`: every field serialized here must appear in that
//! document (a unit test in `tests/telemetry_contract.rs` diffs the two),
//! so renaming or adding a field is a documented, reviewable change.
//! Every report opens with the same [`RunInfo`] envelope, `run`.

use paro_core::int_pipeline::IntPathStats;
use paro_model::ModelConfig;
use paro_serve::MetricsSnapshot;
use paro_sim::tune::RooflineModel;
use paro_trace::StageSummary;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// The build and host identity every report carries first, as `run`: a
/// number only means something next to the model, kernel and host width
/// that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunInfo {
    /// Scaled model name (e.g. `CogVideoX-2B@4x6x6`).
    pub model: String,
    /// Tokens per attention head (the scaled grid's volume).
    pub tokens: usize,
    /// Head dimension of the model.
    pub head_dim: usize,
    /// RNG seed of the workload and its calibration source (`--seed`).
    pub seed: u64,
    /// The micro-kernel runtime dispatch selected (`scalar`, `sse4.1` or
    /// `avx2`).
    pub kernel: String,
    /// `true` when `PARO_KERNEL` overrode detection for this run —
    /// a forced run is not comparable to a detected baseline.
    pub kernel_forced: bool,
    /// Effective compute-pool worker threads on this host
    /// (`PARO_POOL_THREADS` or `available_parallelism`) — runs on hosts
    /// of different widths are not comparable. `0` means the width was
    /// not recorded (baselines predating the field carry it explicitly).
    pub pool_threads: usize,
    /// Whether span recording is compiled into this binary
    /// (`paro-trace/enabled`).
    pub trace_compiled_in: bool,
    /// Whether fault injection is compiled into this binary
    /// (`paro-failpoint/enabled`).
    pub failpoints_compiled_in: bool,
}

impl RunInfo {
    /// The identity of a run of `model` with `seed` in this process: the
    /// dispatched kernel, the compute pool's width and the compiled-in
    /// instrumentation.
    pub fn new(model: &ModelConfig, seed: u64) -> Self {
        let dispatch = paro_tensor::kernel::active();
        RunInfo {
            model: model.name.clone(),
            tokens: model.grid.len(),
            head_dim: model.head_dim(),
            seed,
            kernel: dispatch.kernel.as_str().to_string(),
            kernel_forced: dispatch.forced,
            pool_threads: paro_core::pool::ComputePool::global().threads(),
            trace_compiled_in: paro_trace::COMPILED_IN,
            failpoints_compiled_in: paro_failpoint::COMPILED_IN,
        }
    }
}

/// Prints `report` as pretty JSON on stdout, first writing it to `out`
/// (creating missing parent directories) when given.
///
/// # Errors
///
/// A message naming the path that could not be written.
pub fn emit<T: Serialize>(report: &T, out: Option<&str>) -> Result<(), String> {
    let json =
        serde_json::to_string_pretty(report).map_err(|e| format!("cannot encode report: {e}"))?;
    if let Some(path) = out {
        crate::plans::write_output(path, json.as_bytes())?;
    }
    println!("{json}");
    Ok(())
}

/// Top-level JSON report `paro serve-bench` prints to stdout: the
/// workload/engine configuration, the run's wall-clock throughput, the
/// per-stage trace summary, and the engine's full metrics snapshot.
/// Serves as a machine-readable baseline for serving-performance
/// regressions.
#[derive(Debug, Serialize)]
pub struct ServeBenchReport {
    /// Build and host identity.
    pub run: RunInfo,
    /// Serve worker threads.
    pub threads: usize,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// Requests submitted.
    pub requests: usize,
    /// Distinct `(block, head)` pairs the stream cycles through.
    pub distinct_heads: usize,
    /// Requests that completed successfully.
    pub completed: usize,
    /// Requests that failed (deadline miss, pipeline error).
    pub failed: usize,
    /// Wall-clock time of the batch, milliseconds.
    pub wall_ms: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Per-stage span aggregates recorded during the batch, largest total
    /// first. Empty when tracing is compiled out.
    pub trace_stages: Vec<StageSummaryRow>,
    /// The engine's full metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// Top-level JSON report `paro soak-bench` prints to stdout: a
/// two-tenant open-loop (Poisson-arrival) soak of the continuous-batching
/// engine, its measured pool occupancy next to the simulator's predicted
/// wave occupancy, and whether outputs stayed bit-identical across
/// repeats (docs/SCHEDULING.md).
#[derive(Debug, Serialize)]
pub struct SoakBenchReport {
    /// Build and host identity; `run.seed` also seeds the arrival
    /// schedule.
    pub run: RunInfo,
    /// Serve worker threads.
    pub threads: usize,
    /// Submission-queue capacity.
    pub queue_capacity: usize,
    /// Requests in the open-loop arrival schedule (per run).
    pub requests: usize,
    /// Offered arrival rate, requests per second (`--rate`).
    pub rate_per_sec: f64,
    /// Runs aggregated into this report (`--repeat`): counters are
    /// summed, fractions and quantiles averaged.
    pub repeat: usize,
    /// Simulator-predicted worker occupancy of one wave of this workload
    /// under LPT dispatch (`paro_sim::dispatch::predicted_wave_occupancy`).
    pub predicted_wave_occupancy: f64,
    /// The aggregated continuous-batching runs (head-granular backfill).
    pub continuous: SoakRunReport,
    /// Whether every request index completed by more than one run
    /// produced bit-identical output tensors.
    pub outputs_bit_identical: bool,
}

/// The aggregated runs of a soak-bench: counters from the engine's
/// metrics, scheduler accounting from the work graph, measured
/// compute-pool occupancy, and flattened aggregate latency quantiles.
#[derive(Debug, Serialize)]
pub struct SoakRunReport {
    /// Wall-clock time from first submission to last completion, ms.
    pub wall_ms: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (fault, deadline, pipeline error).
    pub failed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests cancelled mid-pipeline by their deadline.
    pub timed_out: u64,
    /// Requests that faulted without recovering.
    pub faulted: u64,
    /// Requests admitted degraded to a coarse shed budget.
    pub shed_degraded: u64,
    /// Requests rejected by the shedding ladder.
    pub shed_rejected: u64,
    /// Scheduler waves (busy periods) the run closed.
    pub waves: u64,
    /// Head tasks the work graph dispatched to workers.
    pub dispatched: u64,
    /// Fraction of worker-thread time the shared compute pool spent
    /// executing jobs over the run's wall clock (`pool.execute` busy
    /// fraction, 0..=1).
    pub pool_busy_fraction: f64,
    /// Aggregate end-to-end p50 latency across tenants, ms.
    pub total_p50_ms: f64,
    /// Aggregate end-to-end p95 latency across tenants, ms.
    pub total_p95_ms: f64,
    /// Aggregate end-to-end p99 latency across tenants, ms.
    pub total_p99_ms: f64,
    /// Per-tenant outcome rows, one per configured tenant class.
    pub tenants: Vec<SoakTenantRow>,
}

/// One tenant's outcome in a soak-bench run.
#[derive(Debug, Serialize)]
pub struct SoakTenantRow {
    /// The tenant class name.
    pub name: String,
    /// The tenant's weighted-fair-queuing weight.
    pub weight: f64,
    /// Requests accepted into the work graph.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests admitted degraded to the tenant's shed budget.
    pub shed_degraded: u64,
    /// Requests rejected by the shedding ladder.
    pub shed_rejected: u64,
    /// Requests that failed for any non-shed reason.
    pub failed: u64,
    /// This tenant's mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// This tenant's end-to-end p50 latency, ms.
    pub p50_ms: f64,
    /// This tenant's end-to-end p95 latency, ms.
    pub p95_ms: f64,
    /// This tenant's end-to-end p99 latency, ms.
    pub p99_ms: f64,
}

/// Top-level JSON report `paro drift-bench` prints to stdout: the
/// drift-injection schedule, the watchdog's detection/recovery verdicts,
/// the hot-swap bit-identity check, the engine's lifecycle counters and
/// the measured per-observation watchdog overhead. The CI drift-smoke
/// job gates on the verdict booleans (see docs/LIFECYCLE.md).
#[derive(Debug, Serialize)]
pub struct DriftBenchReport {
    /// Build and host identity.
    pub run: RunInfo,
    /// Serve worker threads.
    pub threads: usize,
    /// Requests per batch (`--requests`).
    pub requests_per_batch: usize,
    /// Transformer blocks in the workload.
    pub blocks: usize,
    /// Heads per block in the workload.
    pub heads: usize,
    /// Fresh batches served before drift injection (`--warmup`).
    pub warmup_batches: usize,
    /// Detection bound in drifted batches (`--detect-within`).
    pub detect_bound_batches: usize,
    /// Post-recalibration recovery batches (`--post`).
    pub post_batches: usize,
    /// Wall-clock time of the whole lifecycle run, ms.
    pub wall_ms: f64,
    /// Drifted batches served before the watchdog flagged `Stale`
    /// (absent when the bound elapsed without detection).
    pub detected_after_batches: Option<usize>,
    /// Whether `Stale` was flagged within `detect_bound_batches`.
    pub detected_within_bound: bool,
    /// Whether recalibration succeeded and published a new epoch.
    pub recalibrated: bool,
    /// Whether every post-recalibration batch served un-flagged with
    /// health back to `fresh` and the proxy inside the fresh band.
    pub recovered: bool,
    /// Whether requests in flight across the mid-batch hot-swap stayed
    /// bit-identical to a never-swapped engine.
    pub swap_bit_identical: bool,
    /// Conjunction of the four verdicts above; `false` exits non-zero.
    pub passed: bool,
    /// Plan epoch before recalibration.
    pub epoch_before: u64,
    /// Plan epoch after recalibration (equals `epoch_before` when
    /// recalibration never ran or failed).
    pub epoch_after: u64,
    /// Watchdog EWMA deviation at the end of warmup (the fresh band).
    pub fresh_ewma: f64,
    /// Watchdog EWMA deviation at detection time.
    pub drift_ewma: f64,
    /// Watchdog EWMA deviation after the recovery batches.
    pub recovered_ewma: f64,
    /// `stale_detected` counter from the engine's metrics.
    pub stale_detected: u64,
    /// `recalibrations` counter from the engine's metrics.
    pub recalibrations: u64,
    /// `recalib_failed` counter from the engine's metrics.
    pub recalib_failed: u64,
    /// `stale_served` counter from the engine's metrics.
    pub stale_served: u64,
    /// Measured cost of one `Watchdog::observe` call, nanoseconds —
    /// the per-request overhead of arming the watchdog.
    pub watchdog_observe_ns: f64,
}

/// Top-level JSON report `paro chaos-bench` prints to stdout: which
/// faults were armed and fired, what the chaos batch resolved to, and
/// whether a clean batch run on the same engine afterwards reproduced the
/// never-faulted baseline bit for bit.
#[derive(Debug, Serialize)]
pub struct ChaosBenchReport {
    /// Build and host identity; when `run.failpoints_compiled_in` is
    /// `false`, nothing fires and the run degenerates to a clean-vs-clean
    /// determinism check.
    pub run: RunInfo,
    /// Requests per batch (baseline, chaos and clean batches alike).
    pub requests: usize,
    /// Serve worker threads.
    pub threads: usize,
    /// The faults armed for the chaos batch, with their fire counts.
    pub injected: Vec<InjectedFaultRow>,
    /// Chaos-batch requests that resolved `Ok`.
    pub chaos_completed: usize,
    /// Chaos-batch requests that resolved to a typed error. Every request
    /// resolves one way or the other — a hang is a chaos-bench failure.
    pub chaos_failed: usize,
    /// Clean-batch (post-reset, same engine) requests that resolved `Ok`.
    pub clean_completed: usize,
    /// Whether the clean batch's outputs matched the never-faulted
    /// baseline engine bit for bit.
    pub clean_bit_identical: bool,
    /// Engine metric: requests that faulted (panics, injected faults)
    /// without recovering.
    pub faulted: u64,
    /// Engine metric: retry attempts made after transient faults.
    pub retried: u64,
    /// Engine metric: requests served on the degraded f32 fallback.
    pub degraded: u64,
    /// Engine metric: requests cancelled mid-pipeline by their deadline.
    pub timed_out: u64,
    /// Wall-clock time of the whole run (all three batches), ms.
    pub wall_ms: f64,
}

/// One armed fault site in the chaos-bench report.
#[derive(Debug, Clone, Serialize)]
pub struct InjectedFaultRow {
    /// The failpoint site name (see `paro_failpoint::site`).
    pub site: String,
    /// Fault kind: `panic`, `error` or `delay`.
    pub kind: String,
    /// Site calls skipped before the fault window opens.
    pub skip: u64,
    /// Faults injected once the window opens.
    pub times: u64,
    /// How often the site actually fired during the chaos batch.
    pub fired: u64,
}

/// One row of a per-stage trace summary, in microseconds — the JSON form
/// of [`paro_trace::StageSummary`].
#[derive(Debug, Clone, Serialize)]
pub struct StageSummaryRow {
    /// Stage name (see `paro_trace::stage` for the canonical set).
    pub stage: String,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: f64,
    /// Median span duration, microseconds.
    pub p50_us: f64,
    /// 95th-percentile span duration, microseconds.
    pub p95_us: f64,
    /// Longest span duration, microseconds.
    pub max_us: f64,
}

impl From<&paro_trace::StageSummary> for StageSummaryRow {
    fn from(s: &paro_trace::StageSummary) -> Self {
        StageSummaryRow {
            stage: s.stage.to_string(),
            count: s.count,
            total_us: s.total_ns as f64 / 1e3,
            p50_us: s.p50_ns as f64 / 1e3,
            p95_us: s.p95_ns as f64 / 1e3,
            max_us: s.max_ns as f64 / 1e3,
        }
    }
}

/// Converts a trace's per-stage summaries into JSON rows.
pub fn stage_rows(summaries: &[paro_trace::StageSummary]) -> Vec<StageSummaryRow> {
    summaries.iter().map(StageSummaryRow::from).collect()
}

/// Top-level JSON report `paro perf-bench` writes (as `BENCH_<label>.json`)
/// and prints: per-stage span medians of the single-head packed-integer
/// pipeline, plus packed-`AttnV` throughput under both the dispatched
/// micro-kernel and a forced-scalar reference pass of the same binary.
/// This file is the repository's performance trajectory — the CI
/// `perf-smoke` job diffs a fresh run against the committed
/// `BENCH_ci_baseline.json` with [`diff_stage_medians`].
#[derive(Debug, Serialize, Deserialize)]
pub struct PerfBenchReport {
    /// Build and host identity; medians require tracing, so
    /// `run.trace_compiled_in` is always `true` in a written report.
    pub run: RunInfo,
    /// Free-form run label (`--label`), embedded so a directory of bench
    /// files stays self-describing.
    pub label: String,
    /// Timed pipeline iterations per pass (medians are taken over these).
    pub iters: usize,
    /// Median span duration per pipeline stage over the dispatched pass.
    pub stages: Vec<PerfStageRow>,
    /// Packed-`AttnV` throughput under the dispatched kernel.
    pub attn_v: AttnVThroughput,
    /// The same measurement with the kernel forced to `scalar` in-process.
    pub scalar_attn_v: AttnVThroughput,
    /// `attn_v.macs_per_sec / scalar_attn_v.macs_per_sec` — how much
    /// faster the dispatched MAC kernel is than scalar on this host.
    pub attn_v_speedup_vs_scalar: f64,
}

/// One per-stage median row of a perf-bench pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfStageRow {
    /// Stage name (see `paro_trace::stage` for the canonical set).
    pub stage: String,
    /// Spans recorded for this stage across all iterations.
    pub count: u64,
    /// Median span duration, microseconds.
    pub p50_us: f64,
}

/// Throughput of the packed-`AttnV` MAC micro-kernel in one perf-bench
/// pass, derived from the total `attnv.mac` kernel time (one span per
/// non-zero block) and the run's MAC/byte accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttnVThroughput {
    /// The micro-kernel that executed this pass.
    pub kernel: String,
    /// Whole-pipeline wall time per head, milliseconds.
    pub ms_per_head: f64,
    /// Median per-block `attnv.mac` span duration, microseconds.
    pub mac_p50_us: f64,
    /// Executed (non-bypassed) MACs per second through the kernel,
    /// from the stage's total time per pipeline pass.
    pub macs_per_sec: f64,
    /// Packed attention-map bytes streamed through the kernel per
    /// second, GB/s.
    pub packed_map_gb_per_sec: f64,
}

impl AttnVThroughput {
    /// Derives one pass's throughput from its span summary, its run's
    /// MAC/byte accounting and its wall time over `iters` pipeline runs.
    /// `attnv.mac` records one span per non-zero block, so throughput
    /// comes from the stage's total kernel time per pipeline pass and the
    /// median is the per-block duration. A pass that ran no MAC (every
    /// block 0-bit) reports zero throughput.
    pub fn from_summary(
        summary: &[StageSummary],
        stats: &IntPathStats,
        wall: Duration,
        iters: usize,
    ) -> Self {
        let mac = summary
            .iter()
            .find(|s| s.stage == paro_trace::stage::ATTNV_MAC);
        let mac_secs = mac.map_or(0.0, |m| m.total_ns as f64 * 1e-9 / iters as f64);
        let per_sec = |n: u64| {
            if mac_secs > 0.0 {
                n as f64 / mac_secs
            } else {
                0.0
            }
        };
        AttnVThroughput {
            kernel: stats.kernel.to_string(),
            ms_per_head: wall.as_secs_f64() * 1e3 / iters as f64,
            mac_p50_us: mac.map_or(0.0, |m| m.p50_ns as f64 / 1e3),
            macs_per_sec: per_sec(stats.executed_macs),
            packed_map_gb_per_sec: per_sec(stats.packed_map_bytes) / 1e9,
        }
    }
}

/// Top-level JSON report `paro tune` writes (`--report`): the bit-budget
/// search outcome under the latency SLO, the roofline model seeded from
/// the measured perf-bench baseline, the per-head chosen budgets, and a
/// predicted-vs-measured validation of the first tuned head on this host.
#[derive(Debug, Serialize, Deserialize)]
pub struct TuneReport {
    /// Build and host identity of the tuned workload.
    pub run: RunInfo,
    /// Path of the perf-bench baseline (`--bench`) that seeded the
    /// roofline model.
    pub bench: String,
    /// The per-head latency SLO, microseconds (`--slo-us`).
    pub slo_us: f64,
    /// Whether the tuned allocation's predicted mean latency meets the
    /// SLO. When `false` every head already sits at its fastest budget.
    pub meets_slo: bool,
    /// Roofline-predicted mean per-head latency of the tuned allocation,
    /// microseconds.
    pub predicted_mean_us: f64,
    /// Total fidelity-proxy cost added by downgrades relative to the
    /// best-fidelity assignment.
    pub fidelity_sacrificed: f64,
    /// Greedy downgrade moves the search took.
    pub moves: usize,
    /// Mean chosen trial budget across heads — serving the tuned
    /// artifact requires `ServeConfig::budget` set to this value.
    pub mean_budget_bits: f32,
    /// The roofline model the search predicted latencies with.
    pub roofline: RooflineModel,
    /// The chosen operating point per head.
    pub heads: Vec<TuneHeadRow>,
    /// End-to-end timing of the first tuned head on this host, compared
    /// against the roofline prediction.
    pub validation: TuneValidation,
    /// Path the tuned artifact was written to (`--out`).
    pub artifact: String,
    /// Size of the tuned artifact, bytes.
    pub artifact_bytes: usize,
}

/// One head's chosen operating point in a tune report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneHeadRow {
    /// Transformer block index.
    pub block: u32,
    /// Attention head index within the block.
    pub head: u32,
    /// The chosen trial average-bit budget.
    pub budget_bits: f32,
    /// Roofline-predicted per-head latency at this budget, microseconds.
    pub predicted_us: f64,
    /// Fidelity-proxy cost (weighted quantization cost) at this budget.
    pub fidelity_cost: f64,
    /// Achieved average bits of the frozen allocation.
    pub avg_bits: f32,
    /// Mean per-sample selection error of the calibrated order.
    pub mean_error: f32,
}

/// Predicted-vs-measured check of one tuned head: the packed-integer
/// pipeline is run on this host with the chosen frozen calibration and
/// timed against the roofline prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneValidation {
    /// Transformer block index of the validated head.
    pub block: u32,
    /// Attention head index of the validated head.
    pub head: u32,
    /// Timed pipeline iterations (after one warm-up pass).
    pub iters: usize,
    /// Roofline-predicted latency, microseconds.
    pub predicted_us: f64,
    /// Measured mean latency on this host, microseconds.
    pub measured_us: f64,
    /// `predicted_us / measured_us` — how well the roofline transfers
    /// to this host (1.0 is perfect).
    pub predicted_over_measured: f64,
}

/// Stages whose baseline median sits under this floor are reported but
/// never gated: a span this short is dominated by timer and scheduler
/// noise, and a percentage threshold on it would flap.
pub const PERF_GATE_FLOOR_US: f64 = 50.0;

/// One row of a baseline-vs-current perf diff.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDiffRow {
    /// Stage name.
    pub stage: String,
    /// Baseline median, microseconds (`None` when the stage is new).
    pub baseline_p50_us: Option<f64>,
    /// Current median, microseconds (`None` when the stage disappeared).
    pub current_p50_us: Option<f64>,
    /// Relative change in percent (`None` unless both sides are present
    /// and the baseline is positive).
    pub delta_pct: Option<f64>,
    /// Whether this row trips the regression gate.
    pub regressed: bool,
}

/// Diffs current per-stage medians against a baseline.
///
/// A stage regresses when both sides measured it, its baseline median is
/// at least [`PERF_GATE_FLOOR_US`], and the current median exceeds the
/// baseline by more than `tolerance_pct` percent. Stages present on only
/// one side are reported (so renames are visible in the table) but do not
/// gate. Rows follow the baseline's order, with new stages appended.
pub fn diff_stage_medians(
    baseline: &[PerfStageRow],
    current: &[PerfStageRow],
    tolerance_pct: f64,
) -> Vec<PerfDiffRow> {
    let cur = |name: &str| current.iter().find(|r| r.stage == name);
    let mut rows: Vec<PerfDiffRow> = baseline
        .iter()
        .map(|b| {
            let c = cur(&b.stage);
            let delta_pct = c
                .filter(|_| b.p50_us > 0.0)
                .map(|c| (c.p50_us - b.p50_us) / b.p50_us * 100.0);
            let regressed =
                b.p50_us >= PERF_GATE_FLOOR_US && delta_pct.is_some_and(|d| d > tolerance_pct);
            PerfDiffRow {
                stage: b.stage.clone(),
                baseline_p50_us: Some(b.p50_us),
                current_p50_us: c.map(|c| c.p50_us),
                delta_pct,
                regressed,
            }
        })
        .collect();
    for c in current {
        if !baseline.iter().any(|b| b.stage == c.stage) {
            rows.push(PerfDiffRow {
                stage: c.stage.clone(),
                baseline_p50_us: None,
                current_p50_us: Some(c.p50_us),
                delta_pct: None,
                regressed: false,
            });
        }
    }
    rows
}

/// Names of baseline stages the candidate report no longer measures.
///
/// [`diff_stage_medians`] deliberately reports disappeared stages without
/// gating on them (so renames stay visible in the table) — but a CI
/// comparison must not pass silently when a stage it used to watch has
/// vanished: that usually means a stage was renamed or a code path stopped
/// running, and the gate would be comparing against nothing. The
/// `perf-bench --compare` gate fails when this is non-empty.
pub fn missing_baseline_stages(baseline: &[PerfStageRow], current: &[PerfStageRow]) -> Vec<String> {
    baseline
        .iter()
        .filter(|b| !current.iter().any(|c| c.stage == b.stage))
        .map(|b| b.stage.clone())
        .collect()
}

/// Renders a perf diff as an aligned text table; regressed rows are
/// marked `REGRESSED`, ungated rows under the noise floor ` (ungated)`.
pub fn format_diff_table(rows: &[PerfDiffRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>9}\n",
        "stage", "baseline_us", "current_us", "delta"
    ));
    let num = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.1}"));
    for r in rows {
        let delta = r.delta_pct.map_or("-".to_string(), |d| format!("{d:+.1}%"));
        let mark = if r.regressed {
            "  REGRESSED"
        } else if r.baseline_p50_us.is_some_and(|b| b < PERF_GATE_FLOOR_US) {
            "  (ungated)"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>9}{}\n",
            r.stage,
            num(r.baseline_p50_us),
            num(r.current_p50_us),
            delta,
            mark
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stage: &str, p50_us: f64) -> PerfStageRow {
        PerfStageRow {
            stage: stage.to_string(),
            count: 5,
            p50_us,
        }
    }

    #[test]
    fn diff_flags_only_gated_regressions() {
        let baseline = [row("attnv.mac", 400.0), row("pipeline.qkt", 1000.0)];
        let current = [row("attnv.mac", 560.0), row("pipeline.qkt", 1200.0)];
        let rows = diff_stage_medians(&baseline, &current, 30.0);
        // +40% on attnv.mac trips the gate, +20% on qkt stays inside it.
        assert!(rows[0].regressed, "{rows:?}");
        assert!(!rows[1].regressed, "{rows:?}");
        assert!((rows[0].delta_pct.unwrap() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn diff_never_gates_below_noise_floor() {
        let baseline = [row("pipeline.reorder", PERF_GATE_FLOOR_US / 2.0)];
        let current = [row("pipeline.reorder", PERF_GATE_FLOOR_US * 10.0)];
        let rows = diff_stage_medians(&baseline, &current, 30.0);
        assert!(!rows[0].regressed, "{rows:?}");
        assert!(rows[0].delta_pct.unwrap() > 30.0);
    }

    #[test]
    fn diff_reports_added_and_removed_stages_without_gating() {
        let baseline = [row("attnv.mac", 400.0)];
        let current = [row("kernel.dispatch", 0.1)];
        let rows = diff_stage_medians(&baseline, &current, 30.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].current_p50_us, None);
        assert_eq!(rows[1].baseline_p50_us, None);
        assert!(rows.iter().all(|r| !r.regressed), "{rows:?}");
        let table = format_diff_table(&rows);
        assert!(table.contains("attnv.mac"));
        assert!(table.contains("kernel.dispatch"));
    }

    #[test]
    fn missing_stages_lists_disappeared_baseline_rows_only() {
        let baseline = [row("attnv.mac", 400.0), row("pipeline.qkt", 1000.0)];
        let current = [row("attnv.mac", 410.0), row("qkt.mac", 90.0)];
        assert_eq!(
            missing_baseline_stages(&baseline, &current),
            vec!["pipeline.qkt".to_string()]
        );
        assert!(missing_baseline_stages(&baseline, &baseline).is_empty());
        // New candidate-only stages never count as missing.
        assert!(missing_baseline_stages(&[], &current).is_empty());
    }

    #[test]
    fn improvement_never_regresses() {
        let baseline = [row("attnv.mac", 1000.0)];
        let current = [row("attnv.mac", 100.0)];
        let rows = diff_stage_medians(&baseline, &current, 30.0);
        assert!(!rows[0].regressed);
        assert!(rows[0].delta_pct.unwrap() < 0.0);
    }

    #[test]
    fn perf_report_round_trips_through_json() {
        let report = PerfBenchReport {
            run: RunInfo {
                model: "CogVideoX-2B@6x8x8".to_string(),
                tokens: 384,
                head_dim: 64,
                seed: 42,
                kernel: "avx2".to_string(),
                kernel_forced: false,
                pool_threads: 8,
                trace_compiled_in: true,
                failpoints_compiled_in: false,
            },
            label: "ci_baseline".to_string(),
            iters: 5,
            stages: vec![row("attnv.mac", 412.5)],
            attn_v: AttnVThroughput {
                kernel: "avx2".to_string(),
                ms_per_head: 3.1,
                mac_p50_us: 412.5,
                macs_per_sec: 1.9e9,
                packed_map_gb_per_sec: 0.4,
            },
            scalar_attn_v: AttnVThroughput {
                kernel: "scalar".to_string(),
                ms_per_head: 6.0,
                mac_p50_us: 1400.0,
                macs_per_sec: 0.6e9,
                packed_map_gb_per_sec: 0.12,
            },
            attn_v_speedup_vs_scalar: 3.39,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.label, report.label);
        assert_eq!(back.stages.len(), 1);
        assert_eq!(back.stages[0].stage, "attnv.mac");
        assert_eq!(back.attn_v.kernel, "avx2");
        assert_eq!(back.scalar_attn_v.mac_p50_us, 1400.0);
        assert_eq!(back.run.pool_threads, 8);
    }

    #[test]
    fn attn_v_throughput_is_zero_when_no_block_ran_a_mac() {
        // At budget 0 every block is 0-bit: the summary has no
        // `attnv.mac` row, which is a result, not a tracing failure.
        let stats = IntPathStats {
            packed_map_bytes: 0,
            v_payload_bytes: 4_736,
            executed_macs: 0,
            dense_macs: 9_437_184,
            skipped_blocks: 4_096,
            kernel: "avx2",
        };
        let summary = [StageSummary {
            stage: paro_trace::stage::PIPELINE_ATTN_V,
            count: 2,
            total_ns: 40_000,
            p50_ns: 20_000,
            p95_ns: 20_000,
            max_ns: 20_000,
        }];
        let t = AttnVThroughput::from_summary(&summary, &stats, Duration::from_millis(4), 2);
        assert_eq!(t.kernel, "avx2");
        assert_eq!(t.ms_per_head, 2.0);
        assert_eq!(t.mac_p50_us, 0.0);
        assert_eq!(t.macs_per_sec, 0.0);
        assert_eq!(t.packed_map_gb_per_sec, 0.0);
    }
}
