//! Sample statistics, metrics and the result lines the benchmark prints.

use serde::{Serialize, Value};
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Run properties in insertion order, printed in the header as a JSON
/// object.
#[derive(Debug, Clone, Default)]
pub struct Properties(pub Vec<(String, String)>);

impl Serialize for Properties {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

/// A check: what was checked and whether it held. A failed gate makes
/// the run incorrect; an attribution check only reports how well the
/// traced run's parts explain the whole, since a later change to the
/// program may legitimately move the parts apart.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub gate: bool,
    pub detail: String,
}

/// Requests or operations of one measured phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCount {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Properties of the run printed in the header.
    pub properties: Properties,
    /// Phases in run order, with their request counts.
    pub phases: Vec<(&'static str, PhaseCount)>,
    pub checks: Vec<Check>,
    /// Every metric measured; the result line carries the ones
    /// `BENCHMARK.json` lists for the run's mode.
    pub metrics: Metrics,
}

impl Outcome {
    pub fn property(&mut self, key: &str, value: impl ToString) {
        self.properties.0.push((key.to_string(), value.to_string()));
    }

    /// A correctness check: the run fails if it does not hold.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.push_check(name, passed, true, detail.into());
    }

    /// An attribution check of the traced run, reported only.
    pub fn attribution(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.push_check(name, passed, false, detail.into());
    }

    fn push_check(&mut self, name: &str, passed: bool, gate: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            gate,
            detail,
        });
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, c)| c.failed).sum()
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed || !c.gate)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; the median when there are fewer than 20 samples.
pub fn supported_tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let q = if n >= 20.0 { 1.0 - 10.0 / n } else { 0.5 };
    // Two decimals of a percentile are plenty to name it.
    let pct = (q * 10_000.0).floor() / 100.0;
    (pct, quantile(samples, pct / 100.0))
}

impl Serialize for Metrics {
    /// `{"<name>": {"value": <number>, "unit": "<unit>"}, ...}` in print order.
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|m| {
                    let entry = Value::Map(vec![
                        ("value".into(), m.value.to_value()),
                        ("unit".into(), m.unit.to_value()),
                    ]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    }
}

/// The last line of standard output.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The last line of standard output, carrying `selected` metrics.
pub fn result_line(outcome: &Outcome, selected: Metrics) -> String {
    to_json(&ResultLine {
        correct: outcome.correct(),
        attempted: outcome.attempted().max(1),
        failed: outcome.failed(),
        metrics: selected,
    })
}

#[derive(Serialize)]
struct PhaseRow {
    phase: &'static str,
    sent: u64,
    succeeded: u64,
    failed: u64,
}

#[derive(Serialize)]
struct HeaderLine {
    header: Properties,
    phases: Vec<PhaseRow>,
}

/// The header line: run properties and per-phase request counts.
pub fn header_line(outcome: &Outcome) -> String {
    let phases = outcome
        .phases
        .iter()
        .map(|&(phase, c)| PhaseRow {
            phase,
            sent: c.sent,
            succeeded: c.succeeded,
            failed: c.failed,
        })
        .collect();
    to_json(&HeaderLine {
        header: outcome.properties.clone(),
        phases,
    })
}

pub fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("the vendored serializer cannot fail")
}

/// Human-readable lines: checks, then every metric with its unit.
pub fn report_lines(outcome: &Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    for c in &outcome.checks {
        let kind = if c.gate { "check" } else { "attribution" };
        let verdict = match (c.passed, c.gate) {
            (true, _) => "ok  ",
            (false, true) => "FAIL",
            (false, false) => "off ",
        };
        lines.push(format!("{kind} {verdict} {}: {}", c.name, c.detail));
    }
    for m in &outcome.metrics.0 {
        lines.push(format!(
            "metric {:<34} {:>16.6} {}",
            m.name, m.value, m.unit
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn supported_tail_leaves_ten_samples_beyond() {
        let s: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, value) = supported_tail(&s);
        assert_eq!(pct, 99.0);
        assert!(s.iter().filter(|&&v| v > value).count() >= 10);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.phases.push((
            "loop",
            PhaseCount {
                sent: 3,
                succeeded: 3,
                failed: 0,
            },
        ));
        let mut selected = Metrics::default();
        selected.add("latency_p50_ms", "ms", 1.25);
        o.check("finite", true, "");
        assert_eq!(
            result_line(&o, selected),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
             {\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
    }
}
