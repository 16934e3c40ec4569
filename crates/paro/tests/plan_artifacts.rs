//! End-to-end tests of `paro plan build/inspect/verify` and `paro tune`
//! through the library layer the binary wraps (`paro::plans`), including
//! the file-writing paths the CLI exercises.

use paro::cli::{PlanBuildOpts, TuneOpts};
use paro::model::TokenGrid;
use paro::plans::{
    build_plan_bytes, inspect_text, run_tune, synthetic_source, verify_text, workload_model,
    write_output,
};
use paro::serve::workload::{synthetic_requests, WorkloadSpec};
use paro::serve::{Engine, ServeConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn build_opts(out: &Path) -> PlanBuildOpts {
    PlanBuildOpts {
        grid: TokenGrid::new(2, 4, 4),
        blocks: 2,
        heads: 2,
        block_edge: 4,
        budget: 4.8,
        seed: 42,
        out: out.to_string_lossy().into_owned(),
    }
}

#[test]
fn plan_build_writes_into_missing_directories_and_verifies() {
    // The --out parent does not exist; write_output must create it
    // rather than surfacing a bare io error.
    let out = tmp("plan_build/nested/dir/plans.paro");
    let opts = build_opts(&out);
    let bytes = build_plan_bytes(&opts).unwrap();
    write_output(&opts.out, &bytes).unwrap();
    let back = std::fs::read(&out).unwrap();
    assert_eq!(back, bytes);
    let ok = verify_text(&back).unwrap();
    assert!(ok.contains("artifact OK"), "{ok}");
    let text = inspect_text(&back).unwrap();
    assert!(text.contains("CogVideoX-2B@2x4x4"), "{text}");
    // One table row per (block, head) pair after the three metadata
    // lines (format/model, epoch/timestamp, knobs) and the table header.
    assert_eq!(text.lines().count(), 4 + opts.blocks * opts.heads, "{text}");
}

#[test]
fn write_output_errors_name_the_offending_path() {
    // Parent "directory" is a regular file: creation must fail with a
    // message carrying the full output path.
    let blocker = tmp("write_output_blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let target = blocker.join("sub").join("x.json");
    let path = target.to_string_lossy().into_owned();
    let err = write_output(&path, b"{}").unwrap_err();
    assert!(err.contains(&path), "error must name the path: {err}");
    assert!(err.contains("cannot write"), "{err}");
}

#[test]
fn engine_serves_a_built_artifact_without_recalibrating() {
    let out = tmp("plan_serve/plans.paro");
    let opts = build_opts(&out);
    let bytes = build_plan_bytes(&opts).unwrap();
    write_output(&opts.out, &bytes).unwrap();

    let model = workload_model(&opts.grid);
    // The engine must mirror the build's calibration knobs or the
    // artifact is (correctly) rejected at construction.
    let cfg = ServeConfig {
        workers: 2,
        block_edge: opts.block_edge,
        budget: opts.budget,
        plan_artifact: Some(out.clone()),
        ..ServeConfig::default()
    };
    let source = Arc::new(synthetic_source(&model, opts.seed));
    let engine = Engine::new(cfg, model.clone(), source).unwrap();
    let spec = WorkloadSpec {
        model,
        requests: 8,
        blocks: opts.blocks,
        heads: opts.heads,
        seed: opts.seed,
    };
    let outcome = engine.run_batch(synthetic_requests(&spec));
    assert_eq!(outcome.completed(), 8);
    assert_eq!(outcome.failed(), 0);
    let snap = engine.metrics_snapshot();
    // Every cold key was a cache miss satisfied by the frozen store, so
    // no time was spent calibrating.
    assert_eq!(snap.cache.misses, (opts.blocks * opts.heads) as u64);
    assert_eq!(snap.calibration_ms, 0.0);
}

fn tune_opts(slo_us: f64) -> TuneOpts {
    TuneOpts {
        grid: TokenGrid::new(2, 4, 4),
        blocks: 1,
        heads: 2,
        block_edge: 4,
        seed: 42,
        bench: concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ci_baseline.json").to_string(),
        slo_us,
        out: tmp("tune/PLAN_tuned.paro").to_string_lossy().into_owned(),
        report: tmp("tune/TUNE_report.json").to_string_lossy().into_owned(),
    }
}

#[test]
fn tune_against_the_committed_baseline_meets_a_loose_slo() {
    let opts = tune_opts(1e9);
    let (report, bytes) = run_tune(&opts).unwrap();
    assert!(report.meets_slo);
    assert_eq!(report.moves, 0);
    assert_eq!(report.heads.len(), 2);
    assert!(report.predicted_mean_us > 0.0);
    assert!(report.predicted_mean_us <= opts.slo_us);
    assert!(report.validation.measured_us > 0.0);
    // The emitted artifact is servable: it parses and deep-verifies.
    write_output(&opts.out, &bytes).unwrap();
    let back = std::fs::read(&opts.out).unwrap();
    assert!(verify_text(&back).unwrap().contains("artifact OK"));
    // The report round-trips through JSON (what the binary writes).
    let json = serde_json::to_string_pretty(&report).unwrap();
    write_output(&opts.report, json.as_bytes()).unwrap();
    let text = std::fs::read_to_string(&opts.report).unwrap();
    let parsed: paro::report::TuneReport = serde_json::from_str(&text).unwrap();
    assert_eq!(parsed.heads.len(), report.heads.len());
    assert_eq!(parsed.meets_slo, report.meets_slo);
}

#[test]
fn tune_reports_an_infeasible_slo_as_unmet() {
    let (report, _bytes) = run_tune(&tune_opts(1e-3)).unwrap();
    assert!(!report.meets_slo);
    assert!(report.moves > 0);
    assert!(report.fidelity_sacrificed > 0.0);
    // Best effort: every head at the fastest trial budget.
    assert!(report.heads.iter().all(|h| h.budget_bits == 2.0));
}
