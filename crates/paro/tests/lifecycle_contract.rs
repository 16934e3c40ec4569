//! Pins the calibration-drift lifecycle contract of `docs/LIFECYCLE.md`
//! against the code.
//!
//! The document's `<!-- contract:... -->` tables list the health
//! states, watchdog configuration (with defaults), recalibration
//! policies, and the lifecycle metric/stage names. These tests parse
//! each table and check it against the live types, so the document
//! cannot drift from the lifecycle machinery. The *dynamic* guarantees
//! (detection bounds, swap atomicity, fault isolation) are pinned by
//! `crates/serve/tests/lifecycle.rs` and `crates/serve/tests/chaos.rs`.

use paro::serve::{CacheStats, Metrics, PlanHealth, RecalibrationPolicy, WatchdogConfig};
use paro::trace::stage;
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Duration;

fn lifecycle_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/LIFECYCLE.md");
    std::fs::read_to_string(path).expect("docs/LIFECYCLE.md must exist")
}

/// The markdown table body between `<!-- contract:{section} -->` and its
/// closing marker.
fn section<'a>(doc: &'a str, name: &str) -> &'a str {
    let begin = format!("<!-- contract:{name} -->");
    let end = format!("<!-- /contract:{name} -->");
    doc.split(&begin)
        .nth(1)
        .unwrap_or_else(|| panic!("marker {begin} missing from docs/LIFECYCLE.md"))
        .split(&end)
        .next()
        .unwrap_or_else(|| panic!("marker {end} missing from docs/LIFECYCLE.md"))
}

/// The backticked tokens of every table row, in document order — one
/// `Vec` per row (header and separator rows carry no backticks and are
/// skipped).
fn rows(doc: &str, name: &str) -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = section(doc, name)
        .lines()
        .filter_map(|line| {
            let line = line.trim();
            line.strip_prefix('|')?;
            let cells: Vec<String> = line
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect();
            (!cells.is_empty()).then_some(cells)
        })
        .collect();
    assert!(!rows.is_empty(), "contract section {name} lists no rows");
    rows
}

fn first_column(doc: &str, name: &str) -> Vec<String> {
    rows(doc, name).into_iter().map(|r| r[0].clone()).collect()
}

#[test]
fn health_state_table_matches_the_enum() {
    let doc = lifecycle_doc();
    let table = rows(&doc, "health-states");
    let states = [PlanHealth::Fresh, PlanHealth::Suspect, PlanHealth::Stale];
    assert_eq!(table.len(), states.len(), "one row per health state");
    for (row, state) in table.iter().zip(states) {
        assert_eq!(row[0], format!("{state:?}"), "variant name");
        assert_eq!(row[1], state.name(), "serialized name");
        // The serialized form the report/trace consumers see is the
        // lowercase name, exactly as documented.
        assert_eq!(
            state.to_value(),
            serde::Value::Str(state.name().to_string())
        );
    }
}

#[test]
fn watchdog_config_table_matches_defaults() {
    let doc = lifecycle_doc();
    let table = rows(&doc, "watchdog-config");
    let d = WatchdogConfig::default();
    let expected: Vec<(&str, String)> = vec![
        ("sample_every", d.sample_every.to_string()),
        ("baseline_samples", d.baseline_samples.to_string()),
        ("ewma_alpha", format!("{}", d.ewma_alpha)),
        ("suspect_threshold", format!("{}", d.suspect_threshold)),
        ("stale_threshold", format!("{}", d.stale_threshold)),
        ("hysteresis", d.hysteresis.to_string()),
    ];
    assert_eq!(table.len(), expected.len(), "one row per config field");
    for (row, (field, default)) in table.iter().zip(expected) {
        assert_eq!(row[0], field, "field name");
        assert_eq!(row[1], default, "documented default of {field}");
    }
}

#[test]
fn recalibration_policy_table_matches_the_enum() {
    let doc = lifecycle_doc();
    let listed = first_column(&doc, "recalibration-policies");
    // One row per variant, in declaration order, named by the variant's
    // Debug name.
    let variants = [RecalibrationPolicy::Off, RecalibrationPolicy::OnStale];
    assert_eq!(listed.len(), variants.len(), "one row per policy");
    for (name, variant) in listed.iter().zip(variants) {
        assert_eq!(*name, format!("{variant:?}"), "policy row");
    }
}

#[test]
fn lifecycle_metric_rows_are_real_snapshot_fields() {
    let doc = lifecycle_doc();
    let listed = first_column(&doc, "lifecycle-metrics");
    // Serialize a live snapshot and collect its top-level keys; every
    // documented lifecycle counter must be one of them.
    let snapshot = Metrics::new().snapshot(
        0,
        Duration::from_secs(1),
        CacheStats {
            entries: 0,
            capacity: 64,
            hits: 0,
            misses: 0,
            evictions: 0,
            inflight_waits: 0,
            hit_rate: 0.0,
        },
    );
    let keys: BTreeSet<String> = match snapshot.to_value() {
        serde::Value::Map(entries) => entries.into_iter().map(|(k, _)| k).collect(),
        other => panic!("snapshot serializes to a map, got {other:?}"),
    };
    assert_eq!(
        listed,
        vec![
            "stale_detected".to_string(),
            "recalibrations".to_string(),
            "recalib_failed".to_string(),
            "stale_served".to_string(),
        ],
        "the four lifecycle counters, in order"
    );
    for counter in &listed {
        assert!(
            keys.contains(counter),
            "documented counter {counter} is not a MetricsSnapshot field"
        );
    }
}

#[test]
fn lifecycle_stage_rows_match_the_catalogue() {
    let doc = lifecycle_doc();
    let listed: BTreeSet<String> = first_column(&doc, "lifecycle-stages").into_iter().collect();
    // Exactly the runtime plan.* stages (plan.load / plan.verify are
    // engine-construction stages owned by the artifact path).
    let expected: BTreeSet<String> = [
        stage::PLAN_HEALTH,
        stage::PLAN_RECALIBRATE,
        stage::PLAN_SWAP,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    assert_eq!(listed, expected);
    for s in &listed {
        assert!(
            stage::ALL.contains(&s.as_str()),
            "documented stage {s} is not in stage::ALL"
        );
    }
}
