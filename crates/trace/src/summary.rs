//! Per-stage aggregation of span records into count/total/percentile
//! rows, plus a fixed-width table renderer for CLI output.

use crate::record::SpanRecord;

/// Aggregate durations of every span sharing one stage name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// The stage name these spans share.
    pub stage: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_ns: u64,
    /// Median span duration (nearest-rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile span duration (nearest-rank), nanoseconds.
    pub p95_ns: u64,
    /// Longest span duration, nanoseconds.
    pub max_ns: u64,
}

/// Per-stage summaries for one correlation context; see
/// [`summarize_by_ctx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtxSummary {
    /// The correlation context (serve request index), or
    /// [`crate::NO_CTX`] for uncorrelated spans.
    pub ctx: u64,
    /// The context's stage aggregates, sorted by total time descending.
    pub stages: Vec<StageSummary>,
}

/// Nearest-rank percentile over a sorted slice: the smallest element
/// such that at least `q` of the distribution is at or below it.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarize_group(stage: &'static str, mut durations: Vec<u64>) -> StageSummary {
    durations.sort_unstable();
    StageSummary {
        stage,
        count: durations.len() as u64,
        total_ns: durations.iter().sum(),
        p50_ns: percentile(&durations, 0.50),
        p95_ns: percentile(&durations, 0.95),
        max_ns: durations.last().copied().unwrap_or(0),
    }
}

/// Groups records by stage and aggregates durations, sorted by total
/// time descending (ties broken by stage name for determinism).
pub fn summarize(records: &[SpanRecord]) -> Vec<StageSummary> {
    let mut groups: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for r in records {
        match groups.iter_mut().find(|(s, _)| *s == r.stage) {
            Some((_, durations)) => durations.push(r.duration_ns()),
            None => groups.push((r.stage, vec![r.duration_ns()])),
        }
    }
    let mut rows: Vec<StageSummary> = groups
        .into_iter()
        .map(|(stage, durations)| summarize_group(stage, durations))
        .collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.stage.cmp(b.stage)));
    rows
}

/// Like [`summarize`] but grouped by correlation context first, so one
/// serve request's stage breakdown can be read in isolation. Contexts
/// sort ascending with [`crate::NO_CTX`] last.
pub fn summarize_by_ctx(records: &[SpanRecord]) -> Vec<CtxSummary> {
    let mut contexts: Vec<u64> = records.iter().map(|r| r.ctx).collect();
    contexts.sort_unstable();
    contexts.dedup();
    contexts
        .into_iter()
        .map(|ctx| {
            let subset: Vec<SpanRecord> =
                records.iter().filter(|r| r.ctx == ctx).copied().collect();
            CtxSummary {
                ctx,
                stages: summarize(&subset),
            }
        })
        .collect()
}

/// Renders summary rows as a fixed-width text table with microsecond
/// durations — the format `paro trace` and `paro serve-bench` print.
pub fn format_table(rows: &[StageSummary]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
        "stage", "count", "total_us", "p50_us", "p95_us", "max_us"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<24} {:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1}\n",
            row.stage,
            row.count,
            row.total_ns as f64 / 1e3,
            row.p50_ns as f64 / 1e3,
            row.p95_ns as f64 / 1e3,
            row.max_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_CTX;

    fn rec(stage: &'static str, start: u64, end: u64, ctx: u64) -> SpanRecord {
        SpanRecord {
            id: start + 1,
            parent: 0,
            stage,
            start_ns: start,
            end_ns: end,
            ctx,
            thread: 1,
            outcome: crate::record::SpanOutcome::Ok,
            detail: crate::record::NO_DETAIL,
        }
    }

    #[test]
    fn summarize_counts_and_percentiles() {
        // Durations 100..=1000 in steps of 100 for "a"; one 50ns "b".
        let mut records: Vec<SpanRecord> =
            (1..=10u64).map(|i| rec("a", 0, i * 100, NO_CTX)).collect();
        records.push(rec("b", 0, 50, NO_CTX));
        let rows = summarize(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].stage, "a"); // larger total first
        assert_eq!(rows[0].count, 10);
        assert_eq!(rows[0].total_ns, 5500);
        assert_eq!(rows[0].p50_ns, 500);
        assert_eq!(rows[0].p95_ns, 1000);
        assert_eq!(rows[0].max_ns, 1000);
        assert_eq!(rows[1].stage, "b");
        assert_eq!(rows[1].p50_ns, 50);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42], 0.50), 42);
        assert_eq!(percentile(&[42], 0.95), 42);
        assert_eq!(percentile(&[], 0.95), 0);
    }

    #[test]
    fn by_ctx_groups_and_orders() {
        let records = vec![
            rec("a", 0, 10, 2),
            rec("a", 0, 20, 1),
            rec("b", 0, 5, NO_CTX),
        ];
        let groups = summarize_by_ctx(&records);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].ctx, 1);
        assert_eq!(groups[1].ctx, 2);
        assert_eq!(groups[2].ctx, NO_CTX);
        assert_eq!(groups[0].stages[0].total_ns, 20);
    }

    #[test]
    fn table_has_header_and_rows() {
        let rows = summarize(&[rec("pipeline.qkt", 0, 1500, NO_CTX)]);
        let table = format_table(&rows);
        assert!(table.starts_with("stage"));
        assert!(table.contains("pipeline.qkt"));
        assert!(table.contains("1.5"));
    }
}
