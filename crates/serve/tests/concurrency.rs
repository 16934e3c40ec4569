//! Concurrency correctness: the engine's multi-threaded output must be
//! bit-identical to a single-threaded run, and overload must reject
//! instead of blocking.

use paro_model::ModelConfig;
use paro_serve::workload::{scaled_config, synthetic_requests, SyntheticSource, WorkloadSpec};
use paro_serve::{Engine, ServeConfig, ServeError, ServeRequest};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
        heads: 3,
        seed: 1234,
    })
}

fn run_with_workers(workers: usize) -> Vec<Vec<f32>> {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 2, 99));
    let engine = Engine::new(test_config(workers), model.clone(), source).unwrap();
    let outcome = engine.run_batch(test_requests(&model, 18));
    outcome
        .responses
        .into_iter()
        .map(|r| {
            r.expect("request must complete")
                .run
                .output
                .as_slice()
                .to_vec()
        })
        .collect()
}

#[test]
fn output_is_bit_identical_across_worker_counts() {
    let baseline = run_with_workers(1);
    for workers in [2usize, 8] {
        let outputs = run_with_workers(workers);
        assert_eq!(baseline.len(), outputs.len());
        for (i, (a, b)) in baseline.iter().zip(&outputs).enumerate() {
            // Bitwise equality, not tolerance: scheduling must not
            // change a single ulp.
            let a_bits: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "request {i} differs at {workers} workers");
        }
    }
}

#[test]
fn full_queue_rejects_instead_of_blocking() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..test_config(1)
    };
    let engine = Engine::new(cfg, model.clone(), source).unwrap();
    // Quiesce workers so the queue fills deterministically.
    engine.pause();
    let reqs = test_requests(&model, 3);
    let mut tickets = Vec::new();
    for req in reqs.into_iter().take(2) {
        tickets.push(engine.try_submit(req).unwrap());
    }
    let t0 = Instant::now();
    let err = engine
        .try_submit(test_requests(&model, 1).remove(0))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::QueueFull { capacity: 2 }),
        "expected QueueFull, got {err}"
    );
    // Rejection must be immediate, not a blocked push that timed out.
    assert!(t0.elapsed() < Duration::from_millis(100));
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.queue_depth, 2);
    // Resume and drain: the two admitted requests still complete.
    engine.resume();
    for t in tickets {
        engine.wait(t).unwrap();
    }
    assert_eq!(engine.metrics_snapshot().completed, 2);
}

#[test]
fn expired_deadline_fails_fast_with_structured_error() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let engine = Engine::new(test_config(1), model.clone(), source).unwrap();
    engine.pause();
    let mut req = test_requests(&model, 1).remove(0);
    req.deadline = Some(Duration::ZERO);
    let ticket = engine.try_submit(req).unwrap();
    // Any nonzero queue wait exceeds a zero budget once workers resume.
    std::thread::sleep(Duration::from_millis(5));
    engine.resume();
    match engine.wait(ticket) {
        Err(ServeError::DeadlineExceeded { waited, budget }) => {
            assert!(waited > budget);
            assert_eq!(budget, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(engine.metrics_snapshot().deadline_missed, 1);
}

#[test]
fn plan_cache_hits_dominate_after_warmup() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 2, 99));
    let engine = Engine::new(test_config(4), model.clone(), source).unwrap();
    // 6 distinct heads, 90 requests: one cold miss per head, then reuse.
    let outcome = engine.run_batch(test_requests(&model, 90));
    assert_eq!(outcome.completed(), 90);
    let stats = engine.cache().stats();
    assert_eq!(stats.entries, 6);
    assert!(
        stats.hit_rate > 0.9,
        "hit rate {} with {} hits / {} misses",
        stats.hit_rate,
        stats.hits,
        stats.misses
    );
    // Cache hits must be reported per-response too.
    let hits = outcome
        .responses
        .iter()
        .filter(|r| r.as_ref().unwrap().cache_hit)
        .count();
    assert!(hits >= 84, "per-response hits {hits}");
}

#[test]
fn responses_arrive_in_submission_order() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 3));
    let engine = Engine::new(test_config(8), model.clone(), source).unwrap();
    let reqs = test_requests(&model, 12);
    let expected: Vec<(usize, usize)> = reqs.iter().map(|r| (r.block, r.head)).collect();
    let outcome = engine.run_batch(reqs);
    for (i, resp) in outcome.responses.iter().enumerate() {
        let resp = resp.as_ref().unwrap();
        assert_eq!(resp.index, i);
        assert_eq!((resp.block, resp.head), expected[i]);
    }
}

#[test]
fn invalid_configs_are_rejected() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 3));
    for cfg in [
        ServeConfig {
            workers: 0,
            ..test_config(1)
        },
        ServeConfig {
            queue_capacity: 0,
            ..test_config(1)
        },
        ServeConfig {
            budget: 0.0,
            ..test_config(1)
        },
    ] {
        let err = Engine::new(cfg, model.clone(), Arc::clone(&source) as _)
            .err()
            .expect("config must be rejected");
        assert!(matches!(err, ServeError::InvalidConfig(_)), "{err}");
    }
}

#[test]
fn invalid_inputs_are_rejected_at_admission() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let engine = Engine::new(test_config(2), model.clone(), source).unwrap();
    let mut requests = test_requests(&model, 3);
    let bad = paro_serve::workload::corrupt_with_nan(requests.remove(1));
    let err = engine
        .try_submit(bad)
        .expect_err("NaN input must be rejected at admission");
    assert!(matches!(err, ServeError::InvalidInput(_)), "{err:?}");
    // Clean requests still serve fine afterwards.
    let outcome = engine.run_batch(requests);
    assert_eq!(outcome.completed(), 2);
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.invalid_input, 1);
    assert_eq!(snap.failed, 0);
}

#[test]
fn shutdown_resolves_every_ticket_and_is_idempotent() {
    let model = test_model();
    let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
    let engine = Engine::new(test_config(2), model.clone(), source).unwrap();
    // Pause workers so submissions stay queued, guaranteeing queued (and,
    // once resumed, in-flight) work exists when shutdown starts.
    engine.pause();
    let tickets: Vec<_> = test_requests(&model, 6)
        .into_iter()
        .map(|r| engine.try_submit(r).expect("queue has room"))
        .collect();
    engine.resume();
    engine.shutdown();
    // Close drains queued work before workers exit, so no waiter leaks.
    for ticket in tickets {
        engine
            .wait(ticket)
            .expect("queued request must still be served through shutdown");
    }
    // Second shutdown is a no-op; submissions now fail Closed.
    engine.shutdown();
    let err = engine
        .try_submit(test_requests(&model, 1).remove(0))
        .expect_err("closed engine must reject");
    assert!(matches!(err, ServeError::Closed), "{err:?}");
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.completed, 6);
}
