//! Pins the telemetry contract of `docs/TELEMETRY.md` against the code.
//!
//! The document's `<!-- contract:... -->` sections list every JSON field
//! the `paro` binary emits, as backticked dotted paths in markdown table
//! rows. These tests serialize real report/trace values, walk every key
//! path in the resulting JSON, and assert set equality both ways: a field
//! added to the code without documenting it fails, and so does a
//! documented field the code no longer emits. Every report's `run.*`
//! paths are checked against the one shared `run` section, the rest
//! against the report's own section.

use paro::report::{
    AttnVThroughput, PerfBenchReport, PerfStageRow, RunInfo, ServeBenchReport, StageSummaryRow,
    TuneHeadRow, TuneReport, TuneValidation,
};
use paro::serve::{CacheStats, Metrics};
use paro::sim::tune::RooflineModel;
use paro::trace::{stage, SpanOutcome, SpanRecord, Trace, NO_CTX, NO_DETAIL};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeSet;
use std::time::Duration;

fn telemetry_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/TELEMETRY.md");
    std::fs::read_to_string(path).expect("docs/TELEMETRY.md must exist")
}

/// Extracts the backticked first-column entries of the markdown table
/// rows between `<!-- contract:{section} -->` and its closing marker.
fn documented(doc: &str, section: &str) -> BTreeSet<String> {
    let begin = format!("<!-- contract:{section} -->");
    let end = format!("<!-- /contract:{section} -->");
    let body = doc
        .split(&begin)
        .nth(1)
        .unwrap_or_else(|| panic!("marker {begin} missing from docs/TELEMETRY.md"))
        .split(&end)
        .next()
        .unwrap_or_else(|| panic!("marker {end} missing from docs/TELEMETRY.md"));
    let fields: BTreeSet<String> = body
        .lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("| `")?;
            let (path, _) = rest.split_once('`')?;
            Some(path.to_string())
        })
        .collect();
    assert!(
        !fields.is_empty(),
        "contract section {section} documents no fields"
    );
    fields
}

/// Collects every key path in a JSON value: map entries become dotted
/// paths, array elements are walked under `name[]`.
fn key_paths(value: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match value {
        Value::Map(entries) => {
            for (key, child) in entries {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        Value::Seq(items) => {
            let elem = format!("{prefix}[]");
            for child in items {
                key_paths(child, &elem, out);
            }
        }
        _ => {}
    }
}

fn assert_contract(emitted: &BTreeSet<String>, documented: &BTreeSet<String>, what: &str) {
    let undocumented: Vec<&String> = emitted.difference(documented).collect();
    let stale: Vec<&String> = documented.difference(emitted).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "{what} diverges from docs/TELEMETRY.md\n  emitted but undocumented: \
         {undocumented:?}\n  documented but not emitted: {stale:?}"
    );
}

/// Every key path of `report` serialized to JSON.
fn report_paths(report: &impl Serialize) -> BTreeSet<String> {
    let json = serde_json::to_string(report).expect("report serializes");
    let value = serde_json::parse_value(&json).expect("report JSON parses");
    let mut paths = BTreeSet::new();
    key_paths(&value, "", &mut paths);
    paths
}

/// Checks a report's `run.*` paths against the shared `run` section and
/// its other paths against the report's own `section`.
fn assert_report_contract(report: &impl Serialize, section: &str) {
    let (run, own): (BTreeSet<String>, BTreeSet<String>) = report_paths(report)
        .into_iter()
        .partition(|p| p == "run" || p.starts_with("run."));
    let doc = telemetry_doc();
    assert_contract(
        &run,
        &documented(&doc, "run"),
        &format!("{section} run envelope"),
    );
    assert_contract(
        &own,
        &documented(&doc, section),
        &format!("{section} report"),
    );
}

/// The build and host identity every sample report carries.
fn sample_run() -> RunInfo {
    RunInfo {
        model: "CogVideoX-2B@4x6x6".to_string(),
        tokens: 144,
        head_dim: 64,
        seed: 42,
        kernel: "avx2".to_string(),
        kernel_forced: false,
        pool_threads: 2,
        cpu_model: "test cpu".to_string(),
        nproc: 2,
        trace_compiled_in: true,
        failpoints_compiled_in: false,
    }
}

/// A fully-populated report: one trace stage row so the array element
/// fields serialize, and a snapshot off a live two-tenant `Metrics` so
/// every latency block and the per-tenant rows are present.
fn sample_report() -> ServeBenchReport {
    let metrics = Metrics::with_tenants(&["interactive", "batch"]);
    metrics.queue_wait.record(Duration::from_micros(40));
    metrics.service.record(Duration::from_micros(900));
    metrics.total.record(Duration::from_micros(950));
    let tenant = metrics.tenant(0).expect("tenant 0 configured");
    tenant
        .submitted
        .store(1, std::sync::atomic::Ordering::Relaxed);
    tenant.total.record(Duration::from_micros(950));
    let snapshot = metrics.snapshot(
        0,
        Duration::from_secs(1),
        CacheStats {
            entries: 1,
            capacity: 64,
            hits: 1,
            misses: 1,
            evictions: 0,
            inflight_waits: 1,
            hit_rate: 0.5,
        },
    );
    ServeBenchReport {
        run: sample_run(),
        threads: 2,
        queue_capacity: 32,
        requests: 2,
        distinct_heads: 1,
        completed: 2,
        failed: 0,
        wall_ms: 1.5,
        requests_per_sec: 1333.3,
        trace_stages: vec![StageSummaryRow {
            stage: stage::POOL_EXECUTE.to_string(),
            count: 2,
            total_us: 800.0,
            p50_us: 400.0,
            p95_us: 410.0,
            max_us: 410.0,
        }],
        metrics: snapshot,
    }
}

#[test]
fn serve_bench_report_fields_match_docs() {
    assert_report_contract(&sample_report(), "serve-bench");
}

#[test]
fn chrome_trace_event_fields_match_docs() {
    // One span inside a request (carries `args.ctx`) and one outside
    // (omits it); the first ended non-ok so it carries `args.outcome`.
    // The union covers every documented key, including the optional ones.
    let trace = Trace {
        records: vec![
            SpanRecord {
                id: 2,
                parent: 0,
                stage: stage::SERVE_SERVICE,
                start_ns: 1_000,
                end_ns: 9_000,
                ctx: 4,
                thread: 2,
                outcome: SpanOutcome::Failed,
                detail: "avx2",
            },
            SpanRecord {
                id: 1,
                parent: 0,
                stage: stage::SERVE_ADMIT,
                start_ns: 500,
                end_ns: 12_000,
                ctx: NO_CTX,
                thread: 1,
                outcome: SpanOutcome::Ok,
                detail: NO_DETAIL,
            },
        ],
        dropped: 0,
    };
    let value = serde_json::parse_value(&trace.chrome_json()).expect("chrome JSON parses");
    let mut emitted = BTreeSet::new();
    key_paths(&value, "", &mut emitted);
    assert_contract(
        &emitted,
        &documented(&telemetry_doc(), "chrome-event"),
        "chrome trace-event file",
    );
}

/// A fully-populated perf-bench report: one stage row so the array
/// element fields serialize.
fn sample_perf_report() -> PerfBenchReport {
    let pass = |kernel: &str| AttnVThroughput {
        kernel: kernel.to_string(),
        ms_per_head: 3.2,
        mac_p50_us: 410.0,
        macs_per_sec: 1.8e9,
        packed_map_gb_per_sec: 0.35,
    };
    PerfBenchReport {
        run: sample_run(),
        label: "ci_baseline".to_string(),
        iters: 5,
        stages: vec![PerfStageRow {
            stage: stage::ATTNV_MAC.to_string(),
            count: 5,
            p50_us: 410.0,
            total_us: 410.0,
        }],
        attn_v: pass("avx2"),
        scalar_attn_v: pass("scalar"),
        attn_v_speedup_vs_scalar: 2.4,
    }
}

#[test]
fn perf_bench_report_fields_match_docs() {
    assert_report_contract(&sample_perf_report(), "perf-bench");
}

/// A fully-populated tune report: one head row so the array element
/// fields serialize.
fn sample_tune_report() -> TuneReport {
    TuneReport {
        run: sample_run(),
        bench: "BENCH_ci_baseline.json".to_string(),
        slo_us: 1500.0,
        meets_slo: true,
        predicted_mean_us: 1120.4,
        fidelity_sacrificed: 0.0,
        moves: 0,
        mean_budget_bits: 8.0,
        roofline: RooflineModel {
            macs_per_sec: 7.1e9,
            packed_map_bytes_per_sec: 7.9e7,
            fixed_us: 63.4,
            tokens: 144,
            head_dim: 64,
        },
        heads: vec![TuneHeadRow {
            block: 0,
            head: 0,
            budget_bits: 8.0,
            predicted_us: 1120.4,
            fidelity_cost: 0.8,
            avg_bits: 7.9,
            mean_error: 0.012,
        }],
        validation: TuneValidation {
            block: 0,
            head: 0,
            iters: 5,
            predicted_us: 1120.4,
            measured_us: 980.2,
            predicted_over_measured: 1.14,
        },
        artifact: "PLAN_tuned.paro".to_string(),
        artifact_bytes: 1024,
    }
}

#[test]
fn tune_report_fields_match_docs() {
    assert_report_contract(&sample_tune_report(), "tune");
}

#[test]
fn every_report_opens_with_the_same_run_envelope() {
    let reports: [(&str, Value); 3] = [
        ("serve-bench", sample_report().to_value()),
        ("perf-bench", sample_perf_report().to_value()),
        ("tune", sample_tune_report().to_value()),
    ];
    let run_keys = |value: &Value| -> Vec<String> {
        let Value::Map(entries) = value else {
            panic!("a report serializes to a JSON object");
        };
        let (first, run) = entries.first().expect("a report has fields");
        assert_eq!(first, "run", "run must be a report's first key");
        let Value::Map(fields) = run else {
            panic!("run serializes to a JSON object");
        };
        fields.iter().map(|(k, _)| k.clone()).collect()
    };
    let expected = run_keys(&reports[0].1);
    for (name, value) in &reports {
        assert_eq!(run_keys(value), expected, "{name} run envelope");
    }
}

#[test]
fn stage_catalogue_matches_docs() {
    let listed: BTreeSet<String> = stage::ALL.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        listed.len(),
        stage::ALL.len(),
        "stage::ALL contains duplicates"
    );
    assert_contract(
        &listed,
        &documented(&telemetry_doc(), "stages"),
        "stage catalogue",
    );
}
