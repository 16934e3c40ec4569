//! The head-granular work graph: continuous batching, weighted-fair
//! queuing and load-shedding tiers.
//!
//! The engine used to feed workers from a single FIFO queue, one ticket
//! per request — under mixed traffic the compute pool drained between
//! batches. This module replaces the queue with a **work graph**: admitted
//! requests decompose into cost-annotated head tasks held in per-tenant
//! queues, and workers pull the next task through a start-time fair
//! queuing (SFQ) scheduler, so a new request's heads backfill idle
//! workers while earlier requests are still in flight.
//!
//! # Weighted-fair queuing (SFQ)
//!
//! Every tenant `t` has a weight `w_t`. On admission a task with cost `c`
//! (PE-cycle estimate from [`crate::admission::request_cost`]) is tagged
//!
//! ```text
//! start  = max(v, finish_tag_t)
//! finish = start + c / w_t
//! finish_tag_t = finish
//! ```
//!
//! where `v` is the graph's virtual time. Dispatch picks the backlogged
//! tenant whose **head task has the minimum start tag** (ties broken by
//! tenant index, FIFO within a tenant) and advances `v` to that tag. Over
//! any interval in which a tenant stays backlogged it receives at least
//! `w_t / Σ w` of the dispatched cost — and because every admitted task's
//! start tag is finite, every task is dispatched after a bounded volume
//! of competing work: **no tenant starves**, however small its weight.
//! The exact guarantees are documented in `docs/SCHEDULING.md`.
//!
//! # Shedding tiers
//!
//! Each tenant has a queue-depth `quota`. Admission walks a ladder:
//! below quota a task is admitted at full fidelity (tier 0); from quota
//! to twice quota, a tenant with a configured coarse `shed_budget` is
//! **degraded** — admitted, but served at the coarser bit budget
//! (tier 1, `sched.shed`/`degrade`); beyond that (or without a shed
//! budget) the task is **rejected** with [`ServeError::Shed`] (tier 2,
//! `sched.shed`/`reject`). Whole-graph capacity still rejects with
//! [`ServeError::QueueFull`] first, exactly like the old queue.
//!
//! # Waves
//!
//! Dispatch is bracketed into *waves* for observability: a wave is the
//! busy period between the in-flight count leaving and returning to
//! zero. Batching is continuous — a task dispatches whenever a worker
//! asks for one, and neither admission nor dispatch ever gates on the
//! wave. Every wave is recorded as a `sched.wave` trace range whose
//! context is the wave id.

use crate::admission::{relock, rewait, ServeError};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One tenant's scheduling class: fair-share weight, admission quota and
/// the optional coarse bit budget its overload tier degrades to.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantClass {
    /// Tenant name (unique within a config; used in metrics and errors).
    pub name: String,
    /// Fair-share weight: a backlogged tenant receives at least
    /// `weight / Σ weights` of the dispatched cost. Must be finite and
    /// positive.
    pub weight: f64,
    /// Queue-depth quota: tasks queued at or beyond it enter the
    /// shedding ladder. `usize::MAX` (the default) never sheds.
    pub quota: usize,
    /// Coarse average-bit budget the tier-1 shed degrades this tenant
    /// to. `None` skips tier 1: the tenant rejects at quota.
    pub shed_budget: Option<f32>,
}

impl TenantClass {
    /// A tenant with the given name and weight, an unbounded quota and
    /// no shed budget.
    pub fn new(name: impl Into<String>, weight: f64) -> Self {
        TenantClass {
            name: name.into(),
            weight,
            quota: usize::MAX,
            shed_budget: None,
        }
    }
}

impl Default for TenantClass {
    /// The implicit single-tenant class: weight 1, never sheds.
    fn default() -> Self {
        TenantClass::new("default", 1.0)
    }
}

/// Admission tier the work graph granted a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Tier 0: admitted at full fidelity.
    Full,
    /// Tier 1: admitted degraded — serve at the tenant's coarse
    /// `shed_budget`.
    Shed,
}

/// Point-in-time counters of a work graph, for tests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Tasks queued (admitted, not yet dispatched).
    pub queued: usize,
    /// Tasks dispatched and not yet marked done.
    pub in_flight: usize,
    /// Tasks dispatched since construction.
    pub dispatched: u64,
    /// Waves opened since construction.
    pub waves: u64,
    /// Tasks admitted degraded (tier 1).
    pub shed_degraded: u64,
    /// Tasks rejected by the shedding ladder (tier 2).
    pub shed_rejected: u64,
}

/// A cost-tagged task waiting in a tenant queue.
#[derive(Debug)]
struct Scheduled<T> {
    item: T,
    /// SFQ start tag (virtual time units).
    start: f64,
    /// Trace correlation context (the request's submission index).
    ctx: u64,
    enqueued: Instant,
}

#[derive(Debug)]
struct TenantQueue<T> {
    tasks: VecDeque<Scheduled<T>>,
    /// Finish tag of the tenant's most recently admitted task.
    finish_tag: f64,
}

#[derive(Debug)]
struct GraphState<T> {
    tenants: Vec<TenantQueue<T>>,
    /// SFQ virtual time: the start tag of the task most recently
    /// dispatched.
    virtual_time: f64,
    queued: usize,
    in_flight: usize,
    closed: bool,
    paused: bool,
    /// Id of the current/most recent wave (first wave is 1).
    wave_id: u64,
    /// Start instant of the open wave, if one is open.
    wave_started: Option<Instant>,
    dispatched: u64,
    shed_degraded: u64,
    shed_rejected: u64,
}

/// The multi-tenant head-task work graph (see the module docs).
///
/// Generic over the task payload `T` so the scheduler's fairness and
/// shedding logic is unit-testable without an engine behind it.
#[derive(Debug)]
pub struct WorkGraph<T> {
    inner: Mutex<GraphState<T>>,
    /// Signals consumers: task admitted, resume, close.
    dispatchable: Condvar,
    /// Signals blocked producers: capacity freed, close.
    space: Condvar,
    capacity: usize,
    names: Vec<String>,
    weights: Vec<f64>,
    quotas: Vec<usize>,
    shed_budgets: Vec<Option<f32>>,
}

impl<T> WorkGraph<T> {
    /// Creates a graph with the given tenant classes and whole-graph
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics on an empty class list, a zero capacity, or a non-finite /
    /// non-positive weight — the engine validates its configuration
    /// before construction, so these are internal contract violations.
    pub fn new(classes: &[TenantClass], capacity: usize) -> Self {
        assert!(!classes.is_empty(), "work graph needs at least one tenant");
        assert!(capacity > 0, "work graph capacity must be positive");
        for class in classes {
            assert!(
                class.weight.is_finite() && class.weight > 0.0,
                "tenant weight must be finite and positive"
            );
        }
        WorkGraph {
            inner: Mutex::new(GraphState {
                tenants: classes
                    .iter()
                    .map(|_| TenantQueue {
                        tasks: VecDeque::new(),
                        finish_tag: 0.0,
                    })
                    .collect(),
                virtual_time: 0.0,
                queued: 0,
                in_flight: 0,
                closed: false,
                paused: false,
                wave_id: 0,
                wave_started: None,
                dispatched: 0,
                shed_degraded: 0,
                shed_rejected: 0,
            }),
            dispatchable: Condvar::new(),
            space: Condvar::new(),
            capacity,
            names: classes.iter().map(|c| c.name.clone()).collect(),
            weights: classes.iter().map(|c| c.weight).collect(),
            quotas: classes.iter().map(|c| c.quota).collect(),
            shed_budgets: classes.iter().map(|c| c.shed_budget).collect(),
        }
    }

    /// Number of tenant classes.
    pub fn tenant_count(&self) -> usize {
        self.names.len()
    }

    /// Admits one task for `tenant` with estimated cost `cost`, tagging
    /// it through the SFQ ladder. The task payload is built *after* the
    /// admission tier is known, under the graph lock, by `make` — so a
    /// degraded admission can bake its coarse budget into the task.
    /// `ctx` is the trace correlation context (the request index).
    ///
    /// When `blocking`, a graph at capacity parks the producer instead
    /// of rejecting (batch drivers pace themselves this way).
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when non-blocking at capacity,
    /// [`ServeError::Shed`] from tier 2 of the shedding ladder,
    /// [`ServeError::Closed`] after [`WorkGraph::close`].
    pub fn submit(
        &self,
        tenant: usize,
        cost: f64,
        ctx: u64,
        blocking: bool,
        make: impl FnOnce(Admission) -> T,
    ) -> Result<Admission, ServeError> {
        assert!(tenant < self.names.len(), "tenant index out of range");
        let mut state = relock(&self.inner);
        if blocking {
            while !state.closed && state.queued >= self.capacity {
                state = rewait(&self.space, state);
            }
        }
        if state.closed {
            return Err(ServeError::Closed);
        }
        if state.queued >= self.capacity {
            return Err(ServeError::QueueFull {
                capacity: self.capacity,
            });
        }
        // Shedding ladder: tier 0 below quota, tier 1 (degrade) in the
        // grace band when a coarse budget is configured, tier 2 (reject)
        // beyond it.
        let depth = state.tenants[tenant].tasks.len();
        let quota = self.quotas[tenant];
        let admission = if depth < quota {
            Admission::Full
        } else if self.shed_budgets[tenant].is_some() && depth < quota.saturating_mul(2) {
            state.shed_degraded += 1;
            drop(paro_trace::span_detailed(
                paro_trace::stage::SCHED_SHED,
                "degrade",
            ));
            Admission::Shed
        } else {
            state.shed_rejected += 1;
            drop(paro_trace::span_detailed(
                paro_trace::stage::SCHED_SHED,
                "reject",
            ));
            return Err(ServeError::Shed {
                tenant: self.names[tenant].clone(),
                depth,
                quota,
            });
        };
        let start = state.virtual_time.max(state.tenants[tenant].finish_tag);
        let finish = start + cost.max(1.0) / self.weights[tenant];
        let tq = &mut state.tenants[tenant];
        tq.finish_tag = finish;
        tq.tasks.push_back(Scheduled {
            item: make(admission),
            start,
            ctx,
            enqueued: Instant::now(),
        });
        state.queued += 1;
        drop(state);
        self.dispatchable.notify_one();
        Ok(admission)
    }

    /// Dispatches the next task: blocks until the SFQ scheduler grants
    /// one, returns `None` once the graph is closed and drained. Pausing
    /// holds dispatch (close overrides pause so shutdown always drains).
    /// The caller **must** pair every granted task with one
    /// [`WorkGraph::task_done`] call, or the wave accounting wedges.
    pub fn next(&self) -> Option<T> {
        let mut state = relock(&self.inner);
        loop {
            if !state.paused || state.closed {
                if let Some(task) = self.dispatch(&mut state) {
                    drop(state);
                    self.space.notify_one();
                    return Some(task);
                }
                if state.closed && state.queued == 0 {
                    return None;
                }
            }
            state = rewait(&self.dispatchable, state);
        }
    }

    /// Picks the backlogged tenant whose head task has the minimum start
    /// tag, pops it and updates the wave accounting.
    fn dispatch(&self, state: &mut GraphState<T>) -> Option<T> {
        let tenant = (0..state.tenants.len())
            .filter(|&t| !state.tenants[t].tasks.is_empty())
            .min_by(|&a, &b| {
                let (ta, tb) = (
                    state.tenants[a].tasks[0].start,
                    state.tenants[b].tasks[0].start,
                );
                ta.total_cmp(&tb).then(a.cmp(&b))
            })?;
        let task = state.tenants[tenant]
            .tasks
            .pop_front()
            .expect("picked tenant is non-empty");
        state.virtual_time = state.virtual_time.max(task.start);
        state.queued -= 1;
        state.in_flight += 1;
        state.dispatched += 1;
        if state.wave_started.is_none() {
            state.wave_id += 1;
            state.wave_started = Some(Instant::now());
        }
        paro_trace::record_range(
            paro_trace::stage::SCHED_QUEUE_WAIT,
            task.enqueued,
            Instant::now(),
            task.ctx,
        );
        Some(task.item)
    }

    /// Marks one previously dispatched task finished (success or
    /// failure alike), closing the wave when the graph goes idle.
    pub fn task_done(&self) {
        let mut state = relock(&self.inner);
        debug_assert!(state.in_flight > 0, "task_done without a dispatch");
        state.in_flight = state.in_flight.saturating_sub(1);
        if state.in_flight == 0 && state.queued == 0 {
            if let Some(started) = state.wave_started.take() {
                paro_trace::record_range(
                    paro_trace::stage::SCHED_WAVE,
                    started,
                    Instant::now(),
                    state.wave_id,
                );
            }
        }
    }

    /// Tasks queued (admitted, not yet dispatched).
    pub fn len(&self) -> usize {
        relock(&self.inner).queued
    }

    /// Whether no tasks are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> GraphStats {
        let state = relock(&self.inner);
        GraphStats {
            queued: state.queued,
            in_flight: state.in_flight,
            dispatched: state.dispatched,
            waves: state.wave_id,
            shed_degraded: state.shed_degraded,
            shed_rejected: state.shed_rejected,
        }
    }

    /// Holds dispatch (producers may still fill the graph). Used to
    /// quiesce workers and to make overload deterministic in tests.
    pub fn pause(&self) {
        relock(&self.inner).paused = true;
    }

    /// Resumes dispatch.
    pub fn resume(&self) {
        relock(&self.inner).paused = false;
        self.dispatchable.notify_all();
    }

    /// Closes the graph: producers fail with [`ServeError::Closed`],
    /// consumers drain the remaining tasks then receive `None`. Close
    /// overrides pause so shutdown always completes.
    pub fn close(&self) {
        relock(&self.inner).closed = true;
        self.dispatchable.notify_all();
        self.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn two_tenants(w0: f64, w1: f64) -> Vec<TenantClass> {
        vec![TenantClass::new("a", w0), TenantClass::new("b", w1)]
    }

    fn fill(graph: &WorkGraph<usize>, tenant: usize, n: usize, cost: f64) {
        for i in 0..n {
            graph
                .submit(tenant, cost, i as u64, false, |_| tenant * 1000 + i)
                .unwrap();
        }
    }

    #[test]
    fn wfq_shares_track_weights() {
        // Tenant a at weight 3, b at weight 1, equal task costs: draining
        // the backlog one task at a time must interleave ~3 a-tasks per
        // b-task, not serve either tenant's queue to exhaustion first.
        let graph = WorkGraph::new(&two_tenants(3.0, 1.0), 128);
        fill(&graph, 0, 24, 600.0);
        fill(&graph, 1, 24, 600.0);
        let first: Vec<usize> = (0..16)
            .map(|_| {
                let t = graph.next().unwrap() / 1000;
                graph.task_done();
                t
            })
            .collect();
        let a = first.iter().filter(|&&t| t == 0).count();
        assert!((11..=13).contains(&a), "tenant a got {a}/16: {first:?}");
        // FIFO within each tenant.
        let graph = WorkGraph::new(&two_tenants(1.0, 1.0), 16);
        fill(&graph, 0, 3, 10.0);
        let order: Vec<usize> = (0..3)
            .map(|_| {
                let v = graph.next().unwrap();
                graph.task_done();
                v
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn low_weight_tenant_is_not_starved() {
        // A 1:1000 weight ratio: the low-weight tenant's first task has
        // start tag ~0 and must dispatch within the first few grants even
        // under a huge high-weight backlog.
        let graph = WorkGraph::new(&two_tenants(1000.0, 1.0), 256);
        fill(&graph, 0, 100, 500.0);
        fill(&graph, 1, 1, 500.0);
        let mut b_pos = None;
        for i in 0..101 {
            let t = graph.next().unwrap() / 1000;
            graph.task_done();
            if t == 1 {
                b_pos = Some(i);
                break;
            }
        }
        let pos = b_pos.expect("tenant b must be served");
        assert!(pos <= 2, "tenant b served at position {pos}");
    }

    #[test]
    fn shed_ladder_degrades_then_rejects() {
        let classes = vec![TenantClass {
            name: "t".into(),
            weight: 1.0,
            quota: 2,
            shed_budget: Some(2.0),
        }];
        let graph: WorkGraph<Admission> = WorkGraph::new(&classes, 64);
        for _ in 0..2 {
            assert_eq!(
                graph.submit(0, 1.0, 0, false, |a| a).unwrap(),
                Admission::Full
            );
        }
        for _ in 0..2 {
            assert_eq!(
                graph.submit(0, 1.0, 0, false, |a| a).unwrap(),
                Admission::Shed
            );
        }
        let err = graph.submit(0, 1.0, 0, false, |a| a).unwrap_err();
        match err {
            ServeError::Shed {
                tenant,
                depth,
                quota,
            } => {
                assert_eq!(tenant, "t");
                assert_eq!(depth, 4);
                assert_eq!(quota, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
        let stats = graph.stats();
        assert_eq!(stats.shed_degraded, 2);
        assert_eq!(stats.shed_rejected, 1);
    }

    #[test]
    fn quota_without_shed_budget_rejects_at_quota() {
        let classes = vec![TenantClass {
            name: "hard".into(),
            weight: 1.0,
            quota: 1,
            shed_budget: None,
        }];
        let graph: WorkGraph<u8> = WorkGraph::new(&classes, 64);
        graph.submit(0, 1.0, 0, false, |_| 0).unwrap();
        assert!(matches!(
            graph.submit(0, 1.0, 0, false, |_| 0),
            Err(ServeError::Shed { .. })
        ));
    }

    #[test]
    fn capacity_rejects_before_tenant_ladder() {
        let graph: WorkGraph<u8> = WorkGraph::new(&[TenantClass::default()], 2);
        graph.submit(0, 1.0, 0, false, |_| 0).unwrap();
        graph.submit(0, 1.0, 0, false, |_| 0).unwrap();
        assert!(matches!(
            graph.submit(0, 1.0, 0, false, |_| 0),
            Err(ServeError::QueueFull { capacity: 2 })
        ));
    }

    #[test]
    fn close_drains_then_ends_and_rejects_producers() {
        let graph: WorkGraph<u8> = WorkGraph::new(&[TenantClass::default()], 4);
        graph.submit(0, 1.0, 0, false, |_| 9).unwrap();
        graph.close();
        assert!(matches!(
            graph.submit(0, 1.0, 0, false, |_| 0),
            Err(ServeError::Closed)
        ));
        assert_eq!(graph.next(), Some(9));
        graph.task_done();
        assert_eq!(graph.next(), None);
    }

    #[test]
    fn pause_holds_dispatch_until_resume() {
        let graph: Arc<WorkGraph<u8>> = Arc::new(WorkGraph::new(&[TenantClass::default()], 4));
        graph.pause();
        graph.submit(0, 1.0, 0, false, |_| 7).unwrap();
        let consumer = {
            let g = Arc::clone(&graph);
            std::thread::spawn(move || g.next())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(graph.len(), 1);
        graph.resume();
        assert_eq!(consumer.join().unwrap(), Some(7));
        graph.task_done();
    }

    #[test]
    fn continuous_never_gates_on_in_flight_work() {
        let graph: WorkGraph<usize> = WorkGraph::new(&[TenantClass::default()], 64);
        fill(&graph, 0, 2, 10.0);
        let _a = graph.next().unwrap();
        // A new arrival while a task is in flight dispatches immediately.
        fill(&graph, 0, 1, 10.0);
        let _b = graph.next().unwrap();
        let _c = graph.next().unwrap();
        assert_eq!(graph.stats().in_flight, 3);
        graph.task_done();
        graph.task_done();
        graph.task_done();
        assert_eq!(graph.stats().waves, 1);
    }

    #[test]
    fn blocking_submit_waits_for_space() {
        let graph: Arc<WorkGraph<u8>> = Arc::new(WorkGraph::new(&[TenantClass::default()], 1));
        graph.submit(0, 1.0, 0, false, |_| 1).unwrap();
        let producer = {
            let g = Arc::clone(&graph);
            std::thread::spawn(move || g.submit(0, 1.0, 1, true, |_| 2))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(graph.len(), 1);
        assert_eq!(graph.next(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(graph.next(), Some(2));
        graph.task_done();
        graph.task_done();
    }

    #[test]
    fn concurrent_producers_and_consumers_deliver_everything() {
        // A small capacity parks the blocking producers, so admission,
        // dispatch and completion all contend on the graph lock.
        let graph: Arc<WorkGraph<usize>> = Arc::new(WorkGraph::new(&two_tenants(1.0, 2.0), 8));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&graph);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = g.next() {
                        got.push(v);
                        g.task_done();
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|tenant| {
                let g = Arc::clone(&graph);
                std::thread::spawn(move || {
                    for i in 0..32 {
                        g.submit(tenant, 10.0, i as u64, true, |_| tenant * 1000 + i)
                            .unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        graph.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let want: Vec<usize> = (0..2)
            .flat_map(|t| (0..32).map(move |i| t * 1000 + i))
            .collect();
        assert_eq!(all, want);
        let stats = graph.stats();
        assert_eq!(
            (stats.queued, stats.in_flight, stats.dispatched),
            (0, 0, 64)
        );
    }

    #[test]
    fn queue_survives_a_poisoning_panic() {
        // A thread that panics while holding the graph lock must not take
        // the graph down with it: later operations recover from poison.
        let graph: Arc<WorkGraph<u8>> = Arc::new(WorkGraph::new(&[TenantClass::default()], 4));
        graph.submit(0, 1.0, 0, false, |_| 1).unwrap();
        let g = Arc::clone(&graph);
        let _ = std::thread::spawn(move || {
            let _guard = relock(&g.inner);
            panic!("poison the graph lock");
        })
        .join();
        assert!(graph.inner.is_poisoned());
        graph.submit(0, 1.0, 1, false, |_| 2).unwrap();
        assert_eq!(graph.len(), 2);
        assert_eq!(graph.next(), Some(1));
        graph.task_done();
        assert_eq!(graph.next(), Some(2));
        graph.task_done();
        assert_eq!(graph.stats().in_flight, 0);
    }
}
