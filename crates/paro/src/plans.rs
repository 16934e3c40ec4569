//! The synthetic workload every `paro` subcommand runs, and the
//! implementation of `paro plan build/inspect/verify` and `paro tune`.
//!
//! The logic lives here in the library so integration tests can drive
//! artifact building and bit-budget tuning without shelling out to the
//! binary; the `paro` binary's matching subcommands are thin wrappers
//! adding file IO and printing. See `docs/ARTIFACT.md` for the artifact
//! format contract and `docs/TELEMETRY.md` for the tune report.

use crate::cli::{PlanBuildOpts, ServeBenchOpts, TuneOpts};
use crate::report::{PerfBenchReport, RunInfo, TuneHeadRow, TuneReport, TuneValidation};
use paro_artifact::{ArtifactBuilder, ArtifactError, ArtifactView};
use paro_core::artifact::{head_record, order_from_code, plan_meta};
use paro_core::calibration::{calibrate_head, HeadCalibration};
use paro_core::int_pipeline::run_attention_calibrated_int;
use paro_core::pipeline::AttentionInputs;
use paro_model::patterns::{synthesize_head, PatternSpec};
use paro_model::{ModelConfig, TokenGrid};
use paro_quant::BlockGrid;
use paro_serve::workload::{scaled_config, SyntheticSource, WorkloadSpec};
use paro_serve::{
    BatchOutcome, CalibrationSource, Engine, ServeConfig, ServeError, ServeRequest, ServeResponse,
    TenantClass, WatchdogConfig,
};
use paro_sim::tune::{tune_budgets, BudgetOption, HeadCandidate, RooflineModel, TuneOutcome};
use paro_sim::AttentionProfile;
use paro_trace::Trace;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The trial average-bit budgets `paro tune` calibrates each head at —
/// the paper's discrete palette of mixed-precision operating points.
pub const TRIAL_BUDGETS: [f32; 3] = [2.0, 4.0, 8.0];

/// Writes `bytes` to `path`, creating missing parent directories.
///
/// Every file the `paro` binary writes goes through here so a typo'd
/// `--out some/missing/dir/x.json` produces a clear error naming the
/// offending path instead of a bare io error with no context.
///
/// # Errors
///
/// A human-readable message naming `path` (and the parent directory
/// when creating it failed).
pub fn write_output(path: &str, bytes: &[u8]) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot write {path}: creating directory {}: {e}",
                    parent.display()
                )
            })?;
        }
    }
    std::fs::write(p, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The scaled CogVideoX-2B workload model the synthetic commands share.
pub fn workload_model(grid: &TokenGrid) -> ModelConfig {
    scaled_config(
        &ModelConfig::cogvideox_2b(),
        grid.frames(),
        grid.height(),
        grid.width(),
    )
}

/// The calibration source of the synthetic workload with `seed`. Serving,
/// `plan build`, `tune` and `perf-bench` all calibrate from it, so an
/// artifact built with the same grid, seed and budget holds the very
/// plans a serving engine would have calibrated in-process.
pub fn synthetic_source(model: &ModelConfig, seed: u64) -> SyntheticSource {
    SyntheticSource::new(model.clone(), 2, seed ^ 0xca11b)
}

/// The serving engine of a CLI workload: `opts`' worker, queue, block,
/// budget, deadline and plan-artifact knobs over `source`, with the given
/// tenant classes and an optional fidelity watchdog.
///
/// # Errors
///
/// [`ServeError`] from engine construction (invalid configuration, an
/// unreadable or mismatched plan artifact).
pub fn workload_engine(
    opts: &ServeBenchOpts,
    model: &ModelConfig,
    source: Arc<dyn CalibrationSource>,
    tenants: Vec<TenantClass>,
    watchdog: Option<WatchdogConfig>,
) -> Result<Engine, ServeError> {
    let cfg = ServeConfig {
        workers: opts.threads,
        queue_capacity: opts.queue,
        block_edge: opts.block_edge,
        budget: opts.budget,
        default_deadline: (opts.deadline_ms > 0).then(|| Duration::from_millis(opts.deadline_ms)),
        plan_artifact: opts.plan.as_ref().map(PathBuf::from),
        tenants,
        watchdog,
        ..ServeConfig::default()
    };
    Engine::new(cfg, model.clone(), source)
}

/// The request stream of a CLI workload: `requests` requests cycling
/// through `opts`' blocks × heads.
pub fn workload_spec(opts: &ServeBenchOpts, model: &ModelConfig, requests: usize) -> WorkloadSpec {
    WorkloadSpec {
        model: model.clone(),
        requests,
        blocks: opts.blocks,
        heads: opts.heads,
        seed: opts.seed,
    }
}

/// A response's output tensor as raw bits, for bit-identity checks.
pub fn output_bits(resp: &ServeResponse) -> Vec<u32> {
    resp.run
        .output
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// Records the one-shot `kernel.dispatch` span: a zero-length marker at
/// the head of the session whose `detail` names the micro-kernel every
/// dispatched hot loop runs, so traces and summaries are self-describing.
pub fn record_kernel_dispatch() {
    let _d = paro_trace::span_detailed(
        paro_trace::stage::KERNEL_DISPATCH,
        paro_tensor::kernel::active_kernel().as_str(),
    );
}

/// Runs one batch under a trace session and shuts the engine down,
/// returning the outcome, the batch's wall time and the recorded trace.
/// In a build with tracing compiled out the trace is empty.
pub fn run_traced_batch(
    engine: &Engine,
    requests: Vec<ServeRequest>,
) -> (BatchOutcome, Duration, Trace) {
    let session = paro_trace::TraceSession::start();
    record_kernel_dispatch();
    let t0 = Instant::now();
    let outcome = engine.run_batch(requests);
    let wall = t0.elapsed();
    // Joining the workers orders the final wave-close span (recorded
    // after the last response is delivered) before the session snapshot.
    engine.shutdown();
    (outcome, wall, session.finish())
}

/// Calibrates every `(block, head)` of the synthetic workload and
/// freezes the plans into artifact bytes.
///
/// The calibration source is [`synthetic_source`], so an artifact built
/// with the same grid/seed/budget serves the very plans `serve-bench`
/// would have calibrated in-process.
///
/// # Errors
///
/// Calibration and artifact-encoding errors propagate.
pub fn build_plan_bytes(opts: &PlanBuildOpts) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let model = workload_model(&opts.grid);
    let defaults = ServeConfig::default();
    let source = synthetic_source(&model, opts.seed);
    let block_grid = BlockGrid::square(opts.block_edge)?;
    let meta = plan_meta(
        &model,
        block_grid,
        defaults.calib_bits,
        opts.budget,
        defaults.alpha,
    );
    let mut builder = ArtifactBuilder::new(meta);
    for block in 0..opts.blocks {
        for head in 0..opts.heads {
            let maps = source.calibration_maps(block, head)?;
            let cal = calibrate_head(
                &maps,
                &model.grid,
                block_grid,
                defaults.calib_bits,
                opts.budget,
                defaults.alpha,
            )?;
            builder.push_head(head_record(block as u32, head as u32, &cal));
        }
    }
    Ok(builder.build()?)
}

/// Renders an artifact's metadata and per-head plan table as text.
///
/// # Errors
///
/// [`ArtifactError`] when the bytes fail structural validation.
pub fn inspect_text(bytes: &[u8]) -> Result<String, ArtifactError> {
    let view = ArtifactView::parse(bytes)?;
    let meta = view.meta();
    let mut out = String::new();
    let legacy = if view.is_legacy() {
        format!(" (legacy — current writer is v{})", paro_artifact::VERSION)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "plan artifact v{}{} — model {} ({}x{}x{} grid, {}x{} blocks)\n",
        view.version(),
        legacy,
        meta.model,
        meta.frames,
        meta.height,
        meta.width,
        meta.block_rows,
        meta.block_cols,
    ));
    out.push_str(&format!(
        "epoch {}  calibrated {}\n",
        meta.epoch,
        if meta.created_at == 0 {
            "undated".to_string()
        } else {
            format_utc(meta.created_at)
        },
    ));
    out.push_str(&format!(
        "calib_bits {}  budget {:.2}  alpha {:.2}  heads {}  ({} bytes)\n",
        meta.calib_bits,
        meta.budget,
        meta.alpha,
        view.head_count(),
        bytes.len(),
    ));
    out.push_str(&format!(
        "{:<6} {:<5} {:<6} {:>9} {:>9} {:>11} {:>7}\n",
        "block", "head", "order", "avg_bits", "mean_err", "total_cost", "blocks"
    ));
    for i in 0..view.head_count() {
        let h = view.head(i)?;
        let order = order_from_code(h.order_code)?;
        out.push_str(&format!(
            "{:<6} {:<5} {:<6} {:>9.2} {:>9.5} {:>11.3} {:>7}\n",
            h.block,
            h.head,
            order.to_string(),
            h.avg_bits,
            h.mean_error,
            h.total_cost,
            h.bit_codes.len(),
        ));
    }
    Ok(out)
}

/// Structurally verifies artifact bytes — header, checksum, section
/// bounds (via parse) plus the deep per-head domain check — and returns
/// a one-line summary.
///
/// # Errors
///
/// [`ArtifactError`] naming the first violated invariant.
pub fn verify_text(bytes: &[u8]) -> Result<String, ArtifactError> {
    let view = ArtifactView::parse(bytes)?;
    view.verify_deep()?;
    // A legacy (older-format) artifact is readable forever — flag it
    // rather than failing, so operators know its lifecycle fields
    // (epoch, timestamp) are defaulted, not recorded.
    let legacy = if view.is_legacy() {
        format!(
            " — legacy v{} format (readable; re-freeze to v{} to record epoch and timestamp)",
            view.version(),
            paro_artifact::VERSION,
        )
    } else {
        String::new()
    };
    Ok(format!(
        "artifact OK: model {}, {} heads, {} bytes — header, checksum and per-head domains verified{legacy}",
        view.meta().model,
        view.head_count(),
        bytes.len(),
    ))
}

/// Formats a Unix timestamp as `YYYY-MM-DD HH:MM:SS UTC` without a
/// calendar dependency (civil-from-days, Gregorian).
fn format_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(month <= 2);
    format!("{y:04}-{month:02}-{d:02} {h:02}:{m:02}:{s:02} UTC")
}

/// Seeds the roofline model from a measured perf-bench baseline: the
/// achieved MAC rate and packed-map streaming bandwidth, plus the
/// precision-independent stage medians (reorder, unpack, unreorder) as
/// fixed per-head overhead. Tokens and head dimension come from the
/// model being tuned, not the baseline's.
pub fn roofline_from_bench(bench: &PerfBenchReport, model: &ModelConfig) -> RooflineModel {
    let p50 = |name: &str| {
        bench
            .stages
            .iter()
            .find(|r| r.stage == name)
            .map_or(0.0, |r| r.p50_us)
    };
    RooflineModel {
        macs_per_sec: bench.attn_v.macs_per_sec,
        packed_map_bytes_per_sec: bench.attn_v.packed_map_gb_per_sec * 1e9,
        fixed_us: p50(paro_trace::stage::PIPELINE_REORDER)
            + p50(paro_trace::stage::ATTNV_UNPACK)
            + p50(paro_trace::stage::PIPELINE_UNREORDER),
        tokens: model.grid.len(),
        head_dim: model.head_dim(),
    }
}

/// Runs `paro tune` end to end: reads the `--bench` baseline, searches
/// per-head budgets, and returns the report plus the tuned artifact
/// bytes (writing both is the caller's job).
///
/// # Errors
///
/// Unreadable or malformed baselines, calibration failures and
/// [`paro_sim::SimError::BadTuneInput`] all propagate.
pub fn run_tune(opts: &TuneOpts) -> Result<(TuneReport, Vec<u8>), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(&opts.bench)
        .map_err(|e| format!("cannot read bench baseline {}: {e}", opts.bench))?;
    let bench: PerfBenchReport = serde_json::from_str(&text)
        .map_err(|e| format!("bench baseline {} malformed: {e}", opts.bench))?;
    tune_with_bench(opts, &bench)
}

/// [`run_tune`] with the baseline already parsed — the testable core.
///
/// # Errors
///
/// See [`run_tune`].
pub fn tune_with_bench(
    opts: &TuneOpts,
    bench: &PerfBenchReport,
) -> Result<(TuneReport, Vec<u8>), Box<dyn std::error::Error>> {
    let model = workload_model(&opts.grid);
    let roofline = roofline_from_bench(bench, &model);
    let defaults = ServeConfig::default();
    let source = synthetic_source(&model, opts.seed);
    let block_grid = BlockGrid::square(opts.block_edge)?;

    // One candidate operating point per head per trial budget, each a
    // real frozen calibration (so the tuned artifact serves exactly
    // what the search scored).
    let mut candidates: Vec<HeadCandidate> = Vec::new();
    let mut cals: Vec<Vec<HeadCalibration>> = Vec::new();
    for block in 0..opts.blocks {
        for head in 0..opts.heads {
            let maps = source.calibration_maps(block, head)?;
            let mut options = Vec::new();
            let mut head_cals = Vec::new();
            for &budget in &TRIAL_BUDGETS {
                let cal = calibrate_head(
                    &maps,
                    &model.grid,
                    block_grid,
                    defaults.calib_bits,
                    budget,
                    defaults.alpha,
                )?;
                options.push(BudgetOption {
                    budget_bits: budget,
                    profile: AttentionProfile::from_bits(&cal.allocation.bits)?,
                    fidelity_cost: cal.allocation.total_cost as f64,
                });
                head_cals.push(cal);
            }
            candidates.push(HeadCandidate {
                block: block as u32,
                head: head as u32,
                options,
            });
            cals.push(head_cals);
        }
    }

    let outcome = tune_budgets(&roofline, &candidates, opts.slo_us)?;

    // Freeze the chosen calibration per head. The artifact's budget
    // field is the mean chosen trial budget: serving a tuned artifact
    // requires setting `ServeConfig::budget` to this reported value.
    let mean_budget =
        outcome.chosen.iter().map(|c| c.budget_bits).sum::<f32>() / outcome.chosen.len() as f32;
    let meta = plan_meta(
        &model,
        block_grid,
        defaults.calib_bits,
        mean_budget,
        defaults.alpha,
    );
    let mut builder = ArtifactBuilder::new(meta);
    let mut rows = Vec::new();
    for (i, choice) in outcome.chosen.iter().enumerate() {
        let cal = &cals[i][choice.option];
        builder.push_head(head_record(choice.block, choice.head, cal));
        rows.push(TuneHeadRow {
            block: choice.block,
            head: choice.head,
            budget_bits: choice.budget_bits,
            predicted_us: choice.predicted_us,
            fidelity_cost: choice.fidelity_cost,
            avg_bits: cal.allocation.avg_bits,
            mean_error: cal.mean_error,
        });
    }
    let bytes = builder.build()?;

    let validation = validate_tuned_head(&model, &cals, &outcome, opts.seed, &defaults)?;
    let report = TuneReport {
        run: RunInfo::new(&model, opts.seed),
        bench: opts.bench.clone(),
        slo_us: opts.slo_us,
        meets_slo: outcome.meets_slo,
        predicted_mean_us: outcome.predicted_mean_us,
        fidelity_sacrificed: outcome.fidelity_sacrificed,
        moves: outcome.moves,
        mean_budget_bits: mean_budget,
        roofline,
        heads: rows,
        validation,
        artifact: opts.out.clone(),
        artifact_bytes: bytes.len(),
    };
    Ok((report, bytes))
}

/// Measures the first head's tuned assignment end to end on this host
/// (warm once, then time the packed-integer pipeline) and pairs the
/// result with the roofline prediction for the report's
/// predicted-vs-measured comparison.
fn validate_tuned_head(
    model: &ModelConfig,
    cals: &[Vec<HeadCalibration>],
    outcome: &TuneOutcome,
    seed: u64,
    defaults: &ServeConfig,
) -> Result<TuneValidation, Box<dyn std::error::Error>> {
    let choice = &outcome.chosen[0];
    let cal = &cals[0][choice.option];
    let spec = PatternSpec::for_head(&model.grid, choice.block as usize, choice.head as usize);
    let head = synthesize_head(&model.grid, model.head_dim(), &spec, seed);
    let inputs = AttentionInputs::new(head.q, head.k, head.v, model.grid)?;
    let iters = 5usize;
    run_attention_calibrated_int(&inputs, cal, defaults.output_aware)?;
    let t0 = Instant::now();
    for _ in 0..iters {
        run_attention_calibrated_int(&inputs, cal, defaults.output_aware)?;
    }
    let measured_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    Ok(TuneValidation {
        block: choice.block,
        head: choice.head,
        iters,
        predicted_us: choice.predicted_us,
        measured_us,
        predicted_over_measured: if measured_us > 0.0 {
            choice.predicted_us / measured_us
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AttnVThroughput, PerfStageRow};

    fn build_opts() -> PlanBuildOpts {
        PlanBuildOpts {
            grid: TokenGrid::new(2, 4, 4),
            blocks: 1,
            heads: 2,
            block_edge: 4,
            budget: 4.8,
            seed: 42,
            out: "unused.paro".to_string(),
        }
    }

    fn bench_report() -> PerfBenchReport {
        let pass = |kernel: &str| AttnVThroughput {
            kernel: kernel.to_string(),
            ms_per_head: 3.2,
            mac_p50_us: 410.0,
            macs_per_sec: 7.0e9,
            packed_map_gb_per_sec: 0.08,
        };
        PerfBenchReport {
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
            label: "test".to_string(),
            iters: 5,
            stages: vec![
                PerfStageRow {
                    stage: paro_trace::stage::PIPELINE_REORDER.to_string(),
                    count: 5,
                    p50_us: 40.0,
                },
                PerfStageRow {
                    stage: paro_trace::stage::ATTNV_UNPACK.to_string(),
                    count: 5,
                    p50_us: 15.0,
                },
                PerfStageRow {
                    stage: paro_trace::stage::PIPELINE_UNREORDER.to_string(),
                    count: 5,
                    p50_us: 7.0,
                },
            ],
            attn_v: pass("avx2"),
            scalar_attn_v: pass("scalar"),
            attn_v_speedup_vs_scalar: 1.0,
        }
    }

    fn tune_opts(slo_us: f64) -> TuneOpts {
        TuneOpts {
            grid: TokenGrid::new(2, 4, 4),
            blocks: 1,
            heads: 2,
            block_edge: 4,
            seed: 42,
            bench: "BENCH_test.json".to_string(),
            slo_us,
            out: "PLAN_tuned.paro".to_string(),
            report: "TUNE_report.json".to_string(),
        }
    }

    #[test]
    fn built_plans_parse_inspect_and_verify() {
        let bytes = build_plan_bytes(&build_opts()).unwrap();
        let view = ArtifactView::parse(&bytes).unwrap();
        assert_eq!(view.head_count(), 2);
        assert_eq!(view.meta().model, "CogVideoX-2B@2x4x4");
        view.verify_deep().unwrap();
        let text = inspect_text(&bytes).unwrap();
        assert!(text.contains("CogVideoX-2B@2x4x4"), "{text}");
        assert!(text.contains("avg_bits"), "{text}");
        // A freshly built artifact is current-format: epoch 0, no
        // legacy marker, and a real calibration timestamp when the
        // builder stamped one.
        assert!(text.contains("epoch 0"), "{text}");
        assert!(!text.contains("legacy"), "{text}");
        let ok = verify_text(&bytes).unwrap();
        assert!(ok.contains("artifact OK"), "{ok}");
        assert!(!ok.contains("legacy"), "{ok}");
        // Corruption is reported, not swallowed.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(verify_text(&bad).is_err());
    }

    #[test]
    fn legacy_artifacts_inspect_and_verify_as_readable_but_legacy() {
        let bytes = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../artifact/tests/fixtures/golden_v1.paro"
        ))
        .expect("committed v1 fixture");
        let text = inspect_text(&bytes).unwrap();
        assert!(text.contains("plan artifact v1 (legacy"), "{text}");
        assert!(text.contains("epoch 0"), "{text}");
        assert!(text.contains("calibrated undated"), "{text}");
        let ok = verify_text(&bytes).unwrap();
        assert!(ok.contains("artifact OK"), "{ok}");
        assert!(ok.contains("legacy v1 format (readable"), "{ok}");
    }

    #[test]
    fn utc_formatting_is_gregorian() {
        assert_eq!(format_utc(0), "1970-01-01 00:00:00 UTC");
        assert_eq!(format_utc(1_750_000_000), "2025-06-15 15:06:40 UTC");
        assert_eq!(format_utc(951_782_400), "2000-02-29 00:00:00 UTC");
    }

    #[test]
    fn roofline_is_seeded_from_measured_stages() {
        let bench = bench_report();
        let model = workload_model(&TokenGrid::new(2, 4, 4));
        let m = roofline_from_bench(&bench, &model);
        assert_eq!(m.macs_per_sec, 7.0e9);
        assert_eq!(m.packed_map_bytes_per_sec, 0.08 * 1e9);
        assert_eq!(m.fixed_us, 40.0 + 15.0 + 7.0);
        assert_eq!(m.tokens, 32);
        assert_eq!(m.head_dim, model.head_dim());
        m.validate().unwrap();
    }

    #[test]
    fn loose_slo_tunes_to_best_fidelity_and_emits_a_valid_artifact() {
        let (report, bytes) = tune_with_bench(&tune_opts(1e9), &bench_report()).unwrap();
        assert!(report.meets_slo);
        assert_eq!(report.moves, 0);
        assert_eq!(report.fidelity_sacrificed, 0.0);
        assert_eq!(report.heads.len(), 2);
        assert!(report.predicted_mean_us > 0.0);
        assert!(report.validation.measured_us > 0.0);
        assert!(report.validation.predicted_over_measured > 0.0);
        // The tuned artifact is structurally sound and carries the
        // chosen heads.
        let view = ArtifactView::parse(&bytes).unwrap();
        view.verify_deep().unwrap();
        assert_eq!(view.head_count(), 2);
        assert_eq!(report.artifact_bytes, bytes.len());
        let budgets: Vec<f32> = report.heads.iter().map(|h| h.budget_bits).collect();
        assert!(
            budgets.iter().all(|b| TRIAL_BUDGETS.contains(b)),
            "{budgets:?}"
        );
    }

    #[test]
    fn infeasible_slo_is_reported_not_hidden() {
        let (report, bytes) = tune_with_bench(&tune_opts(1e-3), &bench_report()).unwrap();
        assert!(!report.meets_slo);
        assert!(report.moves > 0);
        // Best effort: every head driven to its fastest trial budget.
        assert!(report.heads.iter().all(|h| h.budget_bits == 2.0));
        ArtifactView::parse(&bytes).unwrap().verify_deep().unwrap();
    }
}
