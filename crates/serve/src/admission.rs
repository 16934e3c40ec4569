//! Admission control: structured errors, deadlines and request costs.
//!
//! The engine never blocks a submitter: a full work graph returns
//! [`ServeError::QueueFull`] immediately (backpressure the caller can act
//! on), and each request carries an optional deadline checked when a
//! worker picks it up — a request that waited past its budget is failed
//! with [`ServeError::DeadlineExceeded`] instead of burning compute on an
//! answer nobody wants anymore.
//!
//! Batch scheduling reuses the simulator's dispatch cost model
//! ([`paro_sim::dispatch`]): per-request cycle costs derive from the
//! frozen bit allocation when one is cached (exactly the accelerator's
//! per-block cost table) and from the method's bit budget otherwise, and
//! longest-processing-time-first ordering
//! ([`paro_sim::dispatch::lpt_order`]) keeps workers level-loaded the
//! same way the PE-row dispatcher levels block work.

use paro_core::calibration::HeadCalibration;
use paro_quant::Bitwidth;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Locks a serve-side mutex, recovering from poison. Every structure the
/// engine guards this way (work-graph state, result slots, the plan cache
/// map) stays consistent across a holder's panic — state transitions happen
/// before panicking code can run — so propagating the poison would only
/// convert one failed request into a dead engine.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`relock`].
pub(crate) fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Structured serving errors.
#[derive(Debug)]
pub enum ServeError {
    /// The submission queue is at capacity; retry later or shed load.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request spent longer than its deadline budget in the queue.
    DeadlineExceeded {
        /// Time the request had waited when a worker reached it.
        waited: Duration,
        /// The request's deadline budget.
        budget: Duration,
    },
    /// The engine is shutting down; no new work is accepted.
    Closed,
    /// Invalid engine configuration.
    InvalidConfig(String),
    /// A request's Q/K/V contained NaN/Inf values, rejected at admission
    /// (non-finite inputs violate the zero-skip precondition of the
    /// sparse kernels downstream).
    InvalidInput(String),
    /// The attention pipeline failed.
    Core(paro_core::CoreError),
    /// The request's worker or compute-pool job panicked. The panic was
    /// contained to this request — the engine keeps serving.
    Faulted {
        /// Where the panic was caught (e.g. `serve.worker`).
        site: String,
        /// The panic payload's message.
        message: String,
    },
    /// The request was rejected by tier 2 of the load-shedding ladder:
    /// its tenant's queue depth exhausted both the quota and (when
    /// configured) the degraded grace band. Per-tenant backpressure —
    /// other tenants are unaffected. See `docs/SCHEDULING.md`.
    Shed {
        /// The tenant class that was shed.
        tenant: String,
        /// The tenant's queue depth at rejection.
        depth: usize,
        /// The tenant's configured quota.
        quota: usize,
    },
    /// A configured plan artifact could not be loaded, or disagrees with
    /// the serving configuration. Deterministic: retrying the same file
    /// against the same configuration fails the same way.
    Artifact {
        /// The artifact file path.
        path: String,
        /// Why it was rejected (typed `paro_artifact::ArtifactError` or a
        /// configuration mismatch, rendered).
        reason: String,
    },
}

impl ServeError {
    /// Whether retrying the request can plausibly succeed: `true` for
    /// contained panics ([`ServeError::Faulted`]) and transient pipeline
    /// faults, `false` for rejections, timeouts and deterministic errors.
    pub fn is_transient(&self) -> bool {
        match self {
            ServeError::Faulted { .. } => true,
            ServeError::Core(e) => e.is_transient(),
            _ => false,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            ServeError::DeadlineExceeded { waited, budget } => write!(
                f,
                "deadline exceeded: waited {:.3} ms of a {:.3} ms budget",
                waited.as_secs_f64() * 1e3,
                budget.as_secs_f64() * 1e3
            ),
            ServeError::Closed => write!(f, "engine is closed"),
            ServeError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            ServeError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            ServeError::Core(e) => write!(f, "attention pipeline error: {e}"),
            ServeError::Faulted { site, message } => {
                write!(f, "request faulted at {site}: {message}")
            }
            ServeError::Shed {
                tenant,
                depth,
                quota,
            } => write!(
                f,
                "request shed: tenant '{tenant}' at depth {depth} exceeds quota {quota}"
            ),
            ServeError::Artifact { path, reason } => {
                write!(f, "plan artifact '{path}' rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<paro_core::CoreError> for ServeError {
    fn from(e: paro_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<paro_core::pool::PoolFault> for ServeError {
    /// A compute-pool job panicked: the pool contained it, and the
    /// request sees a transient fault at the `pool.job` site.
    fn from(fault: paro_core::pool::PoolFault) -> Self {
        ServeError::Faulted {
            site: paro_failpoint::site::POOL_JOB.into(),
            message: fault.message,
        }
    }
}

/// Estimated execution cost (PE-array cycles) of one attention request.
///
/// With a frozen calibration the cost is the sum of the simulator's
/// per-block cycle costs under the allocation's bitwidths — the same
/// numbers the dispatcher in `paro-sim` schedules with. Without one
/// (first request on a cold key), the INT8 map cost is scaled by the
/// method's average-bit budget.
pub fn request_cost(
    tokens: usize,
    head_dim: usize,
    budget: f32,
    cal: Option<&HeadCalibration>,
) -> f64 {
    let map_macs_int8 = (tokens * tokens) as f64 * head_dim as f64;
    match cal {
        Some(cal) => {
            let blocks = cal.allocation.bits.len().max(1);
            let macs_per_block = map_macs_int8 / blocks as f64;
            paro_sim::dispatch::block_costs(macs_per_block, &cal.allocation.bits)
                .iter()
                .sum()
        }
        None => map_macs_int8 * (budget as f64 / Bitwidth::B8.bits() as f64).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{TenantClass, WorkGraph};
    use paro_core::allocate::BitAllocation;
    use paro_model::AxisOrder;
    use paro_quant::BlockGrid;
    use std::sync::Arc;

    // Every request is admitted through the work graph; the tests below
    // pin its admission side: rejection without blocking, close releasing
    // parked producers, and pause holding consumers while producers fill.

    fn single_tenant_graph(capacity: usize) -> WorkGraph<u8> {
        WorkGraph::new(&[TenantClass::default()], capacity)
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let graph = single_tenant_graph(2);
        graph.pause();
        graph.submit(0, 1.0, 0, false, |_| 1).unwrap();
        graph.submit(0, 1.0, 1, false, |_| 2).unwrap();
        let err = graph
            .submit(0, 1.0, 2, false, |_| {
                unreachable!("a rejected request is never built")
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { capacity: 2 }));
        assert_eq!(graph.len(), 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let graph = Arc::new(single_tenant_graph(1));
        graph.submit(0, 1.0, 0, false, |_| 10).unwrap();
        // A blocking producer parks on the full graph; close releases it.
        let producer = {
            let g = Arc::clone(&graph);
            std::thread::spawn(move || g.submit(0, 1.0, 1, true, |_| 11))
        };
        std::thread::sleep(Duration::from_millis(20));
        graph.close();
        assert!(matches!(producer.join().unwrap(), Err(ServeError::Closed)));
        assert_eq!(graph.next(), Some(10));
        graph.task_done();
        assert_eq!(graph.next(), None);
    }

    #[test]
    fn pause_holds_consumers_until_resume() {
        let graph = Arc::new(single_tenant_graph(4));
        graph.pause();
        let consumer = {
            let g = Arc::clone(&graph);
            std::thread::spawn(move || g.next())
        };
        // Producers still fill a paused graph; the consumer takes nothing.
        graph.submit(0, 1.0, 0, false, |_| 7).unwrap();
        graph.submit(0, 1.0, 1, false, |_| 8).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(graph.len(), 2);
        graph.resume();
        assert_eq!(consumer.join().unwrap(), Some(7));
        graph.task_done();
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn calibrated_cost_follows_bitwidths() {
        // 10 tokens × head_dim 4 = 400 INT8 MACs over four blocks: 100 per
        // block, summed under the allocation's bitwidths (B0 bypassed).
        let cal = |bits: Vec<Bitwidth>| HeadCalibration {
            order: AxisOrder::Fhw,
            block: BlockGrid::square(5).unwrap(),
            allocation: BitAllocation {
                bits,
                avg_bits: 0.0,
                total_cost: 0.0,
            },
            mean_error: 0.0,
        };
        let mixed = cal(vec![Bitwidth::B0, Bitwidth::B2, Bitwidth::B4, Bitwidth::B8]);
        assert_eq!(request_cost(10, 4, 8.0, Some(&mixed)), 175.0);
        let bypassed = cal(vec![Bitwidth::B0, Bitwidth::B0]);
        assert_eq!(request_cost(10, 4, 8.0, Some(&bypassed)), 0.0);
    }

    #[test]
    fn cost_scales_with_bits() {
        // Without a calibration, cost scales with the budget.
        let c8 = request_cost(64, 16, 8.0, None);
        let c4 = request_cost(64, 16, 4.0, None);
        assert!((c8 / c4 - 2.0).abs() < 1e-9);
        assert!((c8 - (64.0 * 64.0 * 16.0)).abs() < 1e-6);
    }

    #[test]
    fn errors_display_structured_context() {
        let e = ServeError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        let e = ServeError::DeadlineExceeded {
            waited: Duration::from_millis(12),
            budget: Duration::from_millis(10),
        };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains("10"), "{s}");
        let e = ServeError::Faulted {
            site: "serve.worker".to_string(),
            message: "index out of bounds".to_string(),
        };
        let s = e.to_string();
        assert!(
            s.contains("serve.worker") && s.contains("index out of bounds"),
            "{s}"
        );
        let e = ServeError::InvalidInput("q contains NaN".to_string());
        assert!(e.to_string().contains("NaN"));
        let e = ServeError::Artifact {
            path: "plans/tiny.paro".to_string(),
            reason: "checksum mismatch".to_string(),
        };
        let s = e.to_string();
        assert!(
            s.contains("plans/tiny.paro") && s.contains("checksum mismatch"),
            "{s}"
        );
    }

    #[test]
    fn transient_classification() {
        assert!(ServeError::Faulted {
            site: "s".into(),
            message: "m".into()
        }
        .is_transient());
        assert!(ServeError::Core(paro_core::CoreError::Transient { site: "s" }).is_transient());
        assert!(!ServeError::Core(paro_core::CoreError::Cancelled).is_transient());
        assert!(!ServeError::QueueFull { capacity: 1 }.is_transient());
        assert!(!ServeError::Closed.is_transient());
        assert!(!ServeError::InvalidInput("nan".into()).is_transient());
        assert!(!ServeError::Artifact {
            path: "p.paro".into(),
            reason: "bad magic".into()
        }
        .is_transient());
        assert!(!ServeError::DeadlineExceeded {
            waited: Duration::from_millis(2),
            budget: Duration::from_millis(1),
        }
        .is_transient());
        assert!(!ServeError::Shed {
            tenant: "batch".into(),
            depth: 9,
            quota: 4,
        }
        .is_transient());
    }

    #[test]
    fn shed_error_displays_tenant_and_quota() {
        let e = ServeError::Shed {
            tenant: "batch".into(),
            depth: 9,
            quota: 4,
        };
        let s = e.to_string();
        assert!(
            s.contains("batch") && s.contains('9') && s.contains('4'),
            "{s}"
        );
    }
}
