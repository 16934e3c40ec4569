//! In-memory spans recorded by the benchmark around the public calls it
//! makes into each layer. Spans stay in memory until the run ends and are
//! then written out as a Chrome trace (`chrome://tracing`, Perfetto).
//!
//! A disabled tracer reads no clock and records nothing, so the untraced
//! run pays only a branch per call site.

use serde::Serialize;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; children name their parent by it.
pub type SpanId = u32;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    /// The request or iteration the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Open span; recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: SpanId,
    name: &'static str,
    start: Option<Instant>,
    parent: Option<SpanId>,
    request: u64,
}

impl Guard<'_> {
    pub fn id(&self) -> Option<SpanId> {
        self.start.map(|_| self.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.tracer.push(Span {
                id: self.id,
                name: self.name,
                start,
                end: Instant::now(),
                parent: self.parent,
                request: self.request,
            });
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("no span writer panics").push(span);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Guard<'_> {
        Guard {
            tracer: self,
            id: if self.on {
                self.next.fetch_add(1, Relaxed)
            } else {
                0
            },
            name,
            start: self.on.then(Instant::now),
            parent,
            request,
        }
    }

    /// Records a span whose ends were measured elsewhere.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = self.next.fetch_add(1, Relaxed);
        self.push(Span {
            id,
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("no span writer panics").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per request, the summed durations of the spans named `name`, in ms,
    /// in request order.
    pub fn sums_by_request_ms(&self, name: &str) -> Vec<f64> {
        let mut sums = std::collections::BTreeMap::<u64, f64>::new();
        for s in self.spans().iter().filter(|s| s.name == name) {
            *sums.entry(s.request).or_default() += s.ms();
        }
        sums.into_values().collect()
    }

    /// Self times of every span named `name`, in ms: its duration minus
    /// the part of it its children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(Instant, Instant)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                kids.sort();
                let mut covered = 0.0;
                let mut cur: Option<(Instant, Instant)> = None;
                for (a, b) in kids {
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += (cb - ca).as_secs_f64();
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += (cb - ca).as_secs_f64();
                }
                s.ms() - covered * 1e3
            })
            .collect()
    }

    /// Writes every span as a Chrome trace-event JSON file.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
        let trace = ChromeTrace {
            traceEvents: self
                .spans()
                .iter()
                .map(|s| TraceEvent {
                    name: s.name,
                    ph: "X",
                    pid: 1,
                    tid: 1,
                    ts: us(self.origin, s.start),
                    dur: us(s.start, s.end),
                    args: EventArgs {
                        id: s.id,
                        parent: s.parent,
                        request: s.request,
                    },
                })
                .collect(),
        };
        std::fs::write(path, crate::report::to_json(&trace))
    }
}

/// The Chrome trace-event file format: complete (`"X"`) events, times in
/// microseconds since the tracer was made.
#[derive(Serialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<TraceEvent>,
}

#[derive(Serialize)]
struct TraceEvent {
    name: &'static str,
    ph: &'static str,
    pid: u32,
    tid: u32,
    ts: f64,
    dur: f64,
    args: EventArgs,
}

#[derive(Serialize)]
struct EventArgs {
    id: SpanId,
    parent: Option<SpanId>,
    request: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_merged_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let p = t.record("parent", at(0), at(10), None, 0);
        t.record("child", at(1), at(4), p, 0);
        t.record("child", at(3), at(6), p, 0);
        t.record("child", at(8), at(12), p, 0);
        let own = t.self_ms("parent");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 3.0).abs() < 1e-9, "self time {}", own[0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", None, 0));
        assert!(t
            .record("y", Instant::now(), Instant::now(), None, 0)
            .is_none());
        assert!(t.spans().is_empty());
    }
}
