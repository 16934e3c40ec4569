//! Pins the scheduling contract of `docs/SCHEDULING.md` against the code.
//!
//! The document's `<!-- contract:... -->` tables describe the work
//! graph's public surface and semantics. These tests parse each table
//! and check it against the live types — field listings against the
//! structs' `Debug` output, the worked SFQ example against an actual
//! `WorkGraph` dispatch run, and the shedding ladder against real
//! admission decisions — so the document cannot drift from the
//! scheduler.

use paro::serve::scheduler::Admission;
use paro::serve::{ServeError, TenantClass, WorkGraph};
use std::collections::BTreeSet;

fn scheduling_doc() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/SCHEDULING.md");
    std::fs::read_to_string(path).expect("docs/SCHEDULING.md must exist")
}

/// The markdown table body between `<!-- contract:{section} -->` and its
/// closing marker.
fn section<'a>(doc: &'a str, name: &str) -> &'a str {
    let begin = format!("<!-- contract:{name} -->");
    let end = format!("<!-- /contract:{name} -->");
    doc.split(&begin)
        .nth(1)
        .unwrap_or_else(|| panic!("marker {begin} missing from docs/SCHEDULING.md"))
        .split(&end)
        .next()
        .unwrap_or_else(|| panic!("marker {end} missing from docs/SCHEDULING.md"))
}

/// First backticked token of every table row, in document order (the
/// header and separator rows carry no backticks and are skipped).
fn rows_in_order(doc: &str, name: &str) -> Vec<String> {
    let rows: Vec<String> = section(doc, name)
        .lines()
        .filter_map(|line| {
            let line = line.trim().strip_prefix('|')?;
            let (_, rest) = line.split_once('`')?;
            let (cell, _) = rest.split_once('`')?;
            Some(cell.to_string())
        })
        .collect();
    assert!(!rows.is_empty(), "contract section {name} lists no rows");
    rows
}

fn rows_as_set(doc: &str, name: &str) -> BTreeSet<String> {
    rows_in_order(doc, name).into_iter().collect()
}

/// Field names of a `#[derive(Debug)]` struct rendered with `{:?}`:
/// identifiers immediately preceding a `:` between the outer braces.
fn debug_field_names(dbg: &str) -> BTreeSet<String> {
    let body = dbg
        .split_once('{')
        .map(|(_, rest)| rest)
        .unwrap_or(dbg)
        .rsplit_once('}')
        .map(|(body, _)| body)
        .unwrap_or(dbg);
    body.split(", ")
        .filter_map(|chunk| {
            let (key, _) = chunk.split_once(':')?;
            let key = key.trim();
            let is_ident =
                !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
            is_ident.then(|| key.to_string())
        })
        .collect()
}

#[test]
fn tenant_class_table_matches_the_struct() {
    let fields = debug_field_names(&format!("{:?}", TenantClass::default()));
    assert_eq!(
        rows_as_set(&scheduling_doc(), "tenant-class"),
        fields,
        "tenant-class table diverges from TenantClass"
    );
}

#[test]
fn graph_stats_table_matches_the_struct() {
    let graph: WorkGraph<u8> = WorkGraph::new(&[TenantClass::default()], 4);
    let fields = debug_field_names(&format!("{:?}", graph.stats()));
    assert_eq!(
        rows_as_set(&scheduling_doc(), "graph-stats"),
        fields,
        "graph-stats table diverges from GraphStats"
    );
}

#[test]
fn sched_stage_table_matches_the_catalogue() {
    let sched: BTreeSet<String> = paro::trace::stage::ALL
        .iter()
        .filter(|s| s.starts_with("sched."))
        .map(|s| s.to_string())
        .collect();
    assert_eq!(
        rows_as_set(&scheduling_doc(), "sched-stages"),
        sched,
        "sched-stages table diverges from the stage catalogue"
    );
}

/// Replays the documented worked example through a real `WorkGraph` and
/// asserts the dispatch order the table claims.
#[test]
fn sfq_worked_example_matches_the_scheduler() {
    let classes = [
        TenantClass::new("interactive", 3.0),
        TenantClass::new("batch", 1.0),
    ];
    let graph: WorkGraph<&'static str> = WorkGraph::new(&classes, 64);
    for _ in 0..4 {
        graph
            .submit(0, 60.0, 0, false, |_| "interactive")
            .expect("interactive admits");
    }
    for _ in 0..4 {
        graph
            .submit(1, 60.0, 0, false, |_| "batch")
            .expect("batch admits");
    }
    let dispatched: Vec<&str> = (0..8)
        .map(|_| {
            let t = graph.next().expect("8 tasks are queued");
            graph.task_done();
            t
        })
        .collect();
    let documented = rows_in_order(&scheduling_doc(), "sfq-example");
    assert_eq!(
        dispatched, documented,
        "worked SFQ example diverges from actual dispatch order"
    );
}

/// Drives a real graph through every tier of the documented ladder.
#[test]
fn shed_ladder_matches_the_documented_tiers() {
    let tiers = rows_in_order(&scheduling_doc(), "shed-ladder");
    assert_eq!(tiers, ["0", "1", "2"], "ladder must document three tiers");

    let classes = [
        TenantClass {
            name: "shedding".to_string(),
            weight: 1.0,
            quota: 2,
            shed_budget: Some(2.0),
        },
        TenantClass {
            name: "hard".to_string(),
            weight: 1.0,
            quota: 2,
            shed_budget: None,
        },
    ];
    let graph: WorkGraph<Admission> = WorkGraph::new(&classes, 64);

    // Tier 0: below quota, full fidelity.
    for _ in 0..2 {
        assert_eq!(
            graph.submit(0, 10.0, 0, false, |a| a).expect("admits"),
            Admission::Full
        );
    }
    // Tier 1: the grace band degrades when a shed budget is configured.
    for _ in 0..2 {
        assert_eq!(
            graph.submit(0, 10.0, 0, false, |a| a).expect("admits"),
            Admission::Shed
        );
    }
    // Tier 2: beyond twice the quota, reject.
    match graph.submit(0, 10.0, 0, false, |a| a) {
        Err(ServeError::Shed {
            tenant,
            depth,
            quota,
        }) => {
            assert_eq!(tenant, "shedding");
            assert_eq!((depth, quota), (4, 2));
        }
        other => panic!("expected a tier-2 rejection, got {other:?}"),
    }
    // Without a shed budget, tier 1 is skipped: reject straight at quota.
    for _ in 0..2 {
        assert_eq!(
            graph.submit(1, 10.0, 0, false, |a| a).expect("admits"),
            Admission::Full
        );
    }
    assert!(matches!(
        graph.submit(1, 10.0, 0, false, |a| a),
        Err(ServeError::Shed { .. })
    ));
    let stats = graph.stats();
    assert_eq!((stats.shed_degraded, stats.shed_rejected), (2, 2));
}

/// Whole-graph capacity rejects before the per-tenant ladder runs, as
/// the ladder section states.
#[test]
fn queue_full_takes_precedence_over_the_ladder() {
    let graph: WorkGraph<Admission> = WorkGraph::new(&[TenantClass::default()], 2);
    for _ in 0..2 {
        assert_eq!(
            graph.submit(0, 10.0, 0, false, |a| a).expect("admits"),
            Admission::Full
        );
    }
    assert!(matches!(
        graph.submit(0, 10.0, 0, false, |a| a),
        Err(ServeError::QueueFull { capacity: 2 })
    ));
}
