//! Chaos suite: deterministic fault injection against the serving engine.
//!
//! Every test arms `paro-failpoint` sites and asserts the engine's
//! fault-tolerance contract: every submitted request resolves to `Ok` or
//! a typed `Err` (a watchdog turns a deadlock into a test failure, not a
//! hang), the engine keeps serving after faults, and a clean batch run
//! after injected faults is bit-identical to a never-faulted baseline.
//!
//! The whole file compiles out without the `failpoints` feature.

#![cfg(feature = "failpoints")]

use paro_core::pipeline::run_attention_calibrated_reference;
use paro_failpoint::{self as fp, FaultKind, FaultSpec};
use paro_model::ModelConfig;
use paro_serve::workload::{
    scaled_config, synthetic_requests, with_tenant, SyntheticSource, WorkloadSpec,
};
use paro_serve::{
    BatchOutcome, Engine, MethodKey, PlanKey, ServeConfig, ServeError, ServeRequest, TenantClass,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The failpoint registry is process-global; chaos tests must not
/// interleave. Lock first, then clear any armed leftovers.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> MutexGuard<'static, ()> {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fp::reset();
    guard
}

fn test_model() -> ModelConfig {
    scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4)
}

fn test_config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: 64,
        block_edge: 4,
        ..ServeConfig::default()
    }
}

fn test_requests(model: &ModelConfig, requests: usize) -> Vec<ServeRequest> {
    synthetic_requests(&WorkloadSpec {
        model: model.clone(),
        requests,
        blocks: 2,
        heads: 1,
        seed: 4242,
    })
}

fn test_engine(workers: usize) -> Engine {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    Engine::new(test_config(workers), model, source).expect("valid config")
}

/// Runs `f` on a helper thread and fails the test if it does not finish
/// within the watchdog budget — a deadlocked engine must become a test
/// failure, never a hung suite.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(_) => panic!("{label}: engine deadlocked (watchdog expired)"),
    }
}

fn outputs_bits(outcome: &BatchOutcome) -> Vec<Vec<u32>> {
    outcome
        .responses
        .iter()
        .map(|r| {
            r.as_ref()
                .expect("clean request must complete")
                .run
                .output
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn pool_panic_is_contained_and_retried_to_success() {
    let _chaos = chaos_guard();
    fp::arm(
        fp::site::POOL_JOB,
        FaultSpec::immediate(FaultKind::Panic, 1),
    );
    let outcome = with_watchdog("pool panic", || {
        let engine = test_engine(1);
        let model = engine.model().clone();
        engine.run_batch(test_requests(&model, 2))
    });
    assert_eq!(fp::fired(fp::site::POOL_JOB), 1);
    assert_eq!(outcome.completed(), 2, "{:?}", outcome.responses);
    let first = outcome.responses[0].as_ref().unwrap();
    assert!(first.attempts >= 2, "pool panic must cost a retry");
    fp::reset();
}

#[test]
fn fault_in_a_heads_nested_work_fails_only_its_request_once() {
    let _chaos = chaos_guard();
    // 128 tokens at 4-token blocks: three block-row ranges per head, so a
    // request's pool job submits its head's ranges as a nested batch.
    let model = scaled_config(&ModelConfig::cogvideox_2b(), 2, 8, 8);
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let engine =
        Arc::new(Engine::new(test_config(1), model.clone(), source).expect("valid config"));
    let requests = move || test_requests(&model, 3);
    // The clean run also calibrates every head, so below the only pool
    // jobs are each request's own job and its head's nested batch.
    let clean_engine = Arc::clone(&engine);
    let clean_requests = requests.clone();
    let clean = with_watchdog("clean split heads", move || {
        outputs_bits(&clean_engine.run_batch(clean_requests()))
    });
    // Call 0 is the first request's own pool job; call 1 is a job of its
    // head's nested batch.
    fp::arm(fp::site::POOL_JOB, FaultSpec::new(FaultKind::Panic, 1, 1));
    // Zero-length delays fire without effect: they count site calls.
    for site in [fp::site::PIPELINE_INT_ATTN, fp::site::QUANT_PACK_ATTN_V] {
        fp::arm(site, FaultSpec::immediate(FaultKind::Delay(0), u64::MAX));
    }
    let chaos_engine = Arc::clone(&engine);
    let chaos = with_watchdog("nested fault", move || chaos_engine.run_batch(requests()));
    assert_eq!(fp::fired(fp::site::POOL_JOB), 1);
    assert_eq!(chaos.completed(), 3, "{:?}", chaos.responses);
    let attempts: Vec<u32> = chaos
        .responses
        .iter()
        .map(|r| r.as_ref().unwrap().attempts)
        .collect();
    assert_eq!(
        attempts.iter().filter(|&&a| a >= 2).count(),
        1,
        "only the faulted request retries: {attempts:?}"
    );
    assert!(chaos
        .responses
        .iter()
        .all(|r| !r.as_ref().unwrap().degraded));
    // Per-head sites still fire once per head attempt, not per range.
    let heads: u64 = attempts.iter().map(|&a| u64::from(a)).sum();
    assert_eq!(fp::fired(fp::site::PIPELINE_INT_ATTN), heads);
    assert_eq!(fp::fired(fp::site::QUANT_PACK_ATTN_V), heads);
    assert_eq!(
        outputs_bits(&chaos),
        clean,
        "retried outputs match the clean run"
    );
    fp::reset();
}

#[test]
fn calibration_panic_wakes_waiters_and_engine_survives() {
    let _chaos = chaos_guard();
    fp::arm(
        fp::site::PLAN_CACHE_CALIBRATE,
        FaultSpec::immediate(FaultKind::Panic, 1),
    );
    let engine = Arc::new(test_engine(4));
    let model = engine.model().clone();
    // Everything targets one head, so all requests funnel through the
    // same single-flight calibration; the panicking computer must wake
    // the waiters, not strand them.
    let requests: Vec<ServeRequest> = test_requests(&model, 8)
        .into_iter()
        .map(|mut r| {
            r.block = 0;
            r
        })
        .collect();
    let run_engine = Arc::clone(&engine);
    let outcome = with_watchdog("calibration panic", move || run_engine.run_batch(requests));
    assert_eq!(fp::fired(fp::site::PLAN_CACHE_CALIBRATE), 1);
    assert_eq!(outcome.responses.len(), 8);
    // The panic unwinds through the worker's failure domain: exactly the
    // panicking request fails, typed; every waiter resolves Ok.
    let faulted: Vec<&ServeError> = outcome
        .responses
        .iter()
        .filter_map(|r| r.as_ref().err())
        .collect();
    assert_eq!(faulted.len(), 1, "{faulted:?}");
    assert!(
        matches!(faulted[0], ServeError::Faulted { .. }),
        "{:?}",
        faulted[0]
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.faulted, 1);
    // The engine keeps serving afterwards, on the now-cached plan.
    let requests: Vec<ServeRequest> = test_requests(&model, 4)
        .into_iter()
        .map(|mut r| {
            r.block = 0;
            r
        })
        .collect();
    let run_engine = Arc::clone(&engine);
    let after = with_watchdog("post-panic batch", move || run_engine.run_batch(requests));
    assert_eq!(after.completed(), 4);
    fp::reset();
}

#[test]
fn transient_int_fault_retries_to_success() {
    let _chaos = chaos_guard();
    fp::arm(
        fp::site::PIPELINE_INT_ATTN,
        FaultSpec::immediate(FaultKind::Error, 1),
    );
    let engine = test_engine(1);
    let model = engine.model().clone();
    let outcome = engine.run_batch(test_requests(&model, 1));
    assert_eq!(outcome.completed(), 1, "{:?}", outcome.responses);
    let resp = outcome.responses[0].as_ref().unwrap();
    assert_eq!(resp.attempts, 2);
    assert!(!resp.degraded);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.retried, 1);
    assert_eq!(snap.failed, 0);
    fp::reset();
}

#[test]
fn transient_quant_fault_recovers_too() {
    let _chaos = chaos_guard();
    fp::arm(
        fp::site::QUANT_PACK_ATTN_V,
        FaultSpec::immediate(FaultKind::Error, 1),
    );
    let engine = test_engine(1);
    let model = engine.model().clone();
    let outcome = engine.run_batch(test_requests(&model, 1));
    assert_eq!(outcome.completed(), 1, "{:?}", outcome.responses);
    assert_eq!(engine.metrics_snapshot().retried, 1);
    fp::reset();
}

#[test]
fn exhausted_retries_degrade_to_bit_exact_reference_fallback() {
    let _chaos = chaos_guard();
    // Every packed-int attempt faults; the request must degrade, not fail.
    fp::arm(
        fp::site::PIPELINE_INT_ATTN,
        FaultSpec::immediate(FaultKind::Error, u64::MAX),
    );
    let engine = test_engine(1);
    let model = engine.model().clone();
    let cfg = engine.config().clone();
    let request = test_requests(&model, 1).remove(0);
    let inputs = request.inputs.clone();
    let (block, head) = (request.block, request.head);
    let outcome = engine.run_batch(vec![request]);
    assert_eq!(outcome.completed(), 1, "{:?}", outcome.responses);
    let resp = outcome.responses[0].as_ref().unwrap();
    assert!(resp.degraded, "response must be marked degraded");
    assert_eq!(resp.attempts, 1 + cfg.retry_limit);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.degraded, 1);
    assert_eq!(snap.retried, cfg.retry_limit as u64);
    assert_eq!(snap.completed, 1);
    // The degraded output is exactly the f32 reference pipeline's.
    let key = PlanKey {
        model: model.name.clone(),
        grid: (model.grid.frames(), model.grid.height(), model.grid.width()),
        block,
        head,
        method: MethodKey::new(cfg.block_edge, cfg.calib_bits, cfg.budget, cfg.alpha),
        epoch: 0,
    };
    let cal = engine.cache().peek(&key).expect("plan cached");
    let reference =
        run_attention_calibrated_reference(&inputs, &cal, cfg.output_aware).expect("reference ok");
    assert_eq!(
        resp.run.output.as_slice(),
        reference.output.as_slice(),
        "degraded output must be the reference path's, bit for bit"
    );
    fp::reset();
}

#[test]
fn delay_fault_expires_deadline_with_typed_timeout() {
    let _chaos = chaos_guard();
    // Hold the int pipeline long past the request's deadline; the next
    // cooperative cancellation check must cancel it, typed, un-retried.
    fp::arm(
        fp::site::PIPELINE_INT_ATTN,
        FaultSpec::immediate(FaultKind::Delay(1500), 1),
    );
    let engine = test_engine(1);
    let model = engine.model().clone();
    let mut request = test_requests(&model, 1).remove(0);
    request.deadline = Some(Duration::from_millis(300));
    let outcome = with_watchdog("deadline expiry", move || {
        let out = engine.run_batch(vec![request]);
        (out, engine.metrics_snapshot())
    });
    let (outcome, snap) = outcome;
    let err = outcome.responses[0].as_ref().expect_err("must time out");
    assert!(
        matches!(err, ServeError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(snap.timed_out, 1);
    assert_eq!(snap.retried, 0, "cancellation must not be retried");
    fp::reset();
}

#[test]
fn clean_batch_after_chaos_is_bit_identical_to_baseline() {
    let _chaos = chaos_guard();
    const N: usize = 10;
    // Baseline: a never-faulted single-tenant engine. The chaos engine
    // below runs the same batch split across two weighted tenant classes
    // on the work graph — the head tasks interleave completely
    // differently, and the outputs must not care.
    let baseline = with_watchdog("baseline batch", || {
        let engine = test_engine(3);
        let model = engine.model().clone();
        outputs_bits(&engine.run_batch(test_requests(&model, N)))
    });
    // Chaos: one fault of every flavor, spread across the batch — a
    // pool-job panic, a calibration panic, and transient int-pipeline,
    // quant and execution errors.
    fp::arm(
        fp::site::POOL_JOB,
        FaultSpec::immediate(FaultKind::Panic, 1),
    );
    // The chaos engine's cache is cold and the batch spans two heads, so
    // calibration runs at least twice: the second call panics.
    fp::arm(
        fp::site::PLAN_CACHE_CALIBRATE,
        FaultSpec::new(FaultKind::Panic, 1, 1),
    );
    fp::arm(
        fp::site::PIPELINE_INT_ATTN,
        FaultSpec::new(FaultKind::Error, 1, 1),
    );
    fp::arm(
        fp::site::QUANT_PACK_ATTN_V,
        FaultSpec::new(FaultKind::Error, 2, 1),
    );
    fp::arm(
        fp::site::SERVE_EXECUTE,
        FaultSpec::new(FaultKind::Error, 3, 1),
    );
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let cfg = ServeConfig {
        tenants: vec![
            TenantClass::new("interactive", 4.0),
            TenantClass::new("batch", 1.0),
        ],
        ..test_config(3)
    };
    let engine = Arc::new(Engine::new(cfg, model.clone(), source).expect("valid config"));
    fn two_tenant_batch(model: &ModelConfig) -> Vec<ServeRequest> {
        test_requests(model, N)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                r.tenant = i % 2;
                r
            })
            .collect()
    }
    let chaos_engine = Arc::clone(&engine);
    let chaos_model = model.clone();
    let chaos = with_watchdog("chaos batch", move || {
        chaos_engine.run_batch(two_tenant_batch(&chaos_model))
    });
    // Contract: every request resolved — Ok or typed Err — and at least
    // one injected fault actually fired, the calibration panic among them.
    assert_eq!(chaos.responses.len(), N);
    let fired: u64 = fp::site::ALL.iter().map(|s| fp::fired(s)).sum();
    assert!(fired >= 1, "no injected fault fired");
    assert_eq!(
        fp::fired(fp::site::PLAN_CACHE_CALIBRATE),
        1,
        "the calibration panic must fire"
    );
    for r in &chaos.responses {
        if let Err(e) = r {
            assert!(
                matches!(
                    e,
                    ServeError::Faulted { .. }
                        | ServeError::Core(_)
                        | ServeError::DeadlineExceeded { .. }
                ),
                "untyped/unexpected error: {e:?}"
            );
        }
    }
    // Disarm and re-run on the *same* engine: output must be bit-identical
    // to the never-faulted single-tenant baseline even though the work
    // graph schedules this batch across two weighted tenants.
    fp::reset();
    let model = engine.model().clone();
    let clean_engine = Arc::clone(&engine);
    let clean = with_watchdog("clean batch", move || {
        clean_engine.run_batch(two_tenant_batch(&model))
    });
    assert_eq!(clean.completed(), N, "{:?}", clean.responses);
    assert_eq!(
        outputs_bits(&clean),
        baseline,
        "post-chaos clean batch must match the baseline bit for bit"
    );
    // The graph's scheduler accounting survived the chaos: every
    // dispatched task retires (tickets resolve just before the worker
    // reports task completion, so poll briefly), no wave wedged, and
    // dispatch covered both batches.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = engine.graph_stats();
        if stats.in_flight == 0 && stats.queued == 0 {
            assert_eq!(stats.dispatched, 2 * N as u64);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "graph never quiesced: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn mid_wave_tenant_panic_faults_only_that_tenant() {
    let _chaos = chaos_guard();
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    // No retries, no fallback: a contained fault must surface as the
    // request's typed error rather than being healed, so blast-radius
    // attribution is exact.
    let cfg = ServeConfig {
        retry_limit: 0,
        degraded_fallback: false,
        tenants: vec![
            TenantClass::new("victim", 1.0),
            TenantClass::new("bystander", 1.0),
        ],
        ..test_config(3)
    };
    let engine = Arc::new(Engine::new(cfg, model.clone(), source).expect("valid config"));
    // Requests for one tenant, all pinned to a single block so cache
    // warmth is controlled per tenant.
    fn pinned(model: &ModelConfig, n: usize, block: usize, tenant: usize) -> Vec<ServeRequest> {
        let reqs = test_requests(model, n)
            .into_iter()
            .map(|mut r| {
                r.block = block;
                r
            })
            .collect();
        with_tenant(reqs, tenant)
    }
    // Warm the bystander's head (block 1) so its requests never touch
    // calibration again; the victim's head (block 0) stays cold.
    let warm_engine = Arc::clone(&engine);
    let warm_model = model.clone();
    let warmed = with_watchdog("warm bystander", move || {
        warm_engine.run_batch(pinned(&warm_model, 4, 1, 1))
    });
    assert_eq!(warmed.completed(), 4);
    // Every calibration from here on panics — which only the victim's
    // cold head will trigger, mid-wave, while bystander tasks are in
    // flight on the same graph.
    fp::arm(
        fp::site::PLAN_CACHE_CALIBRATE,
        FaultSpec::immediate(FaultKind::Panic, u64::MAX),
    );
    let mixed: Vec<ServeRequest> = pinned(&model, 6, 0, 0)
        .into_iter()
        .chain(pinned(&model, 6, 1, 1))
        .collect();
    let run_engine = Arc::clone(&engine);
    let outcome = with_watchdog("mixed chaos batch", move || run_engine.run_batch(mixed));
    assert!(fp::fired(fp::site::PLAN_CACHE_CALIBRATE) >= 1);
    for (i, r) in outcome.responses.iter().enumerate() {
        if i < 6 {
            let err = r.as_ref().expect_err("victim requests must fault");
            assert!(
                matches!(err, ServeError::Faulted { .. } | ServeError::Core(_)),
                "victim {i}: {err:?}"
            );
        } else {
            let resp = r.as_ref().expect("bystander requests must complete");
            assert_eq!(resp.tenant, 1);
        }
    }
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.tenants[0].failed, 6, "all victim requests failed");
    assert_eq!(snap.tenants[0].completed, 0);
    assert_eq!(snap.tenants[1].failed, 0, "fault leaked across tenants");
    assert_eq!(snap.tenants[1].completed, 10);
    fp::reset();
}

#[test]
fn recalibrator_panic_is_typed_and_engine_keeps_serving() {
    let _chaos = chaos_guard();
    let engine = test_engine(2);
    let model = engine.model().clone();
    // Warm a full plan generation and take a clean baseline.
    let baseline = outputs_bits(&with_watchdog("recalib warmup", {
        let model = model.clone();
        let engine = Arc::new(test_engine(1));
        move || engine.run_batch(test_requests(&model, 4))
    }));
    let epoch_before = engine.current_epoch();
    engine.run_batch(test_requests(&model, 4));
    // A panicking recalibrator surfaces as a typed fault, not a crash.
    fp::arm(
        fp::site::SERVE_RECALIBRATE,
        FaultSpec::immediate(FaultKind::Panic, 1),
    );
    let err = engine
        .recalibrate()
        .expect_err("panicking recalibrator must fail typed");
    assert!(
        matches!(&err, ServeError::Faulted { site, .. } if site == fp::site::SERVE_RECALIBRATE),
        "typed fault names the site: {err:?}"
    );
    assert_eq!(fp::fired(fp::site::SERVE_RECALIBRATE), 1);
    assert_eq!(
        engine.current_epoch(),
        epoch_before,
        "failed recalibration never publishes an epoch"
    );
    let snap = engine.metrics_snapshot();
    assert!(snap.recalib_failed >= 1);
    assert_eq!(snap.recalibrations, 0);
    // The engine still serves, bit-identical to the never-faulted run.
    fp::reset();
    let after = with_watchdog("post-recalib-panic batch", {
        let model = model.clone();
        let engine = Arc::new(engine);
        move || engine.run_batch(test_requests(&model, 4))
    });
    assert_eq!(outputs_bits(&after), baseline);
}

#[test]
fn background_recalibration_fault_leaves_engine_serving_stale() {
    use paro_serve::workload::{synthetic_requests_at_phase, DriftSource};
    use paro_serve::{CalibrationSource, PlanHealth, RecalibrationPolicy, WatchdogConfig};

    let _chaos = chaos_guard();
    let model = test_model();
    let source = Arc::new(DriftSource::new(model.clone(), 1, 7));
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 64,
        block_edge: 4,
        watchdog: Some(WatchdogConfig {
            sample_every: 1,
            baseline_samples: 3,
            ewma_alpha: 0.5,
            suspect_threshold: 0.04,
            stale_threshold: 0.08,
            hysteresis: 2,
        }),
        recalibration: RecalibrationPolicy::OnStale,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        cfg,
        model.clone(),
        Arc::clone(&source) as Arc<dyn CalibrationSource>,
    )
    .expect("valid config");
    let phased = |requests: usize, phase: usize| {
        synthetic_requests_at_phase(
            &WorkloadSpec {
                model: model.clone(),
                requests,
                blocks: 2,
                heads: 2,
                seed: 4242,
            },
            phase,
        )
    };
    // Baseline forms on phase-0 traffic.
    for _ in 0..3 {
        assert_eq!(engine.run_batch(phased(12, 0)).completed(), 12);
    }
    // Every background recalibration attempt panics (covers the bounded
    // retries too — a panic aborts the run outright).
    fp::arm(
        fp::site::SERVE_RECALIBRATE,
        FaultSpec::immediate(FaultKind::Panic, u64::MAX),
    );
    // Drifted traffic flips the watchdog to Stale, which triggers the
    // (doomed) background recalibration.
    engine.run_batch(phased(12, 1));
    assert_eq!(engine.plan_health(), Some(PlanHealth::Stale));
    // Wait for the background recalibrator to fail (it is asynchronous).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while engine.metrics_snapshot().recalib_failed == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background recalibration failure never surfaced in metrics"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(fp::fired(fp::site::SERVE_RECALIBRATE) >= 1);
    // The engine is still up, serving on the pinned stale epoch and
    // flagging it — degraded, not down.
    let out = with_watchdog("stale-serving batch", {
        let engine = Arc::new(engine);
        let reqs = phased(8, 1);
        move || {
            let outcome = engine.run_batch(reqs);
            let epoch = engine.current_epoch();
            let snap = engine.metrics_snapshot();
            (outcome, epoch, snap)
        }
    });
    let (outcome, epoch, snap) = out;
    assert_eq!(outcome.completed(), 8);
    assert_eq!(epoch, 0, "no epoch was ever published");
    assert!(outcome
        .responses
        .iter()
        .all(|r| r.as_ref().unwrap().stale_plan));
    assert!(snap.stale_served >= 8);
    assert_eq!(snap.recalibrations, 0);
    fp::reset();
}
