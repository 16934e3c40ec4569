//! Calibration-drift lifecycle contract tests: epoch pinning, atomic
//! hot-swap, and the watchdog → recalibrate → recover loop from
//! `docs/LIFECYCLE.md`.
//!
//! The headline properties:
//! - **Epoch pinning**: every request carries exactly one plan epoch,
//!   fixed at admission — a hot-swap mid-batch never mixes generations
//!   within a request, and observed epochs are monotone in submission
//!   order.
//! - **Swap atomicity**: requests in flight across a hot-swap produce
//!   outputs bit-identical to a never-swapped run, even when the new
//!   generation's plans differ (the swap only affects later admissions).
//! - **The drift loop**: drifted traffic flips the watchdog to `Stale`
//!   within a bounded number of batches, recalibration publishes a new
//!   epoch, and the fidelity proxy returns to its pre-drift band.

use paro_model::ModelConfig;
use paro_serve::workload::{scaled_config, synthetic_requests_at_phase, DriftSource, WorkloadSpec};
use paro_serve::{
    CalibrationSource, Engine, PlanHealth, RecalibrationPolicy, ServeConfig, ServeRequest,
    WatchdogConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

fn test_model() -> ModelConfig {
    scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4)
}

fn test_requests(model: &ModelConfig, requests: usize, phase: usize) -> Vec<ServeRequest> {
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
}

/// Fast-reacting watchdog for tests: sample everything, tiny baselines,
/// hair-trigger hysteresis. The thresholds sit between the measured
/// in-phase deviation (~0.01) and the cross-phase shift (~0.08+).
fn test_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        sample_every: 1,
        baseline_samples: 3,
        ewma_alpha: 0.5,
        suspect_threshold: 0.04,
        stale_threshold: 0.08,
        hysteresis: 2,
    }
}

fn drift_engine(workers: usize, watchdog: Option<WatchdogConfig>) -> (Engine, Arc<DriftSource>) {
    let model = test_model();
    let source = Arc::new(DriftSource::new(model.clone(), 1, 7));
    let cfg = ServeConfig {
        workers,
        queue_capacity: 64,
        block_edge: 4,
        watchdog,
        recalibration: RecalibrationPolicy::Off,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        cfg,
        model,
        Arc::clone(&source) as Arc<dyn CalibrationSource>,
    )
    .expect("valid config");
    (engine, source)
}

fn output_bits(r: &paro_serve::ServeResponse) -> Vec<u32> {
    r.run
        .output
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// The full drift loop on one engine: fresh baseline, drifted traffic
/// flips the watchdog to Stale within two batches, requests served on
/// the stale plan are flagged, recalibration from the drifted source
/// publishes a new epoch, and the proxy returns to the fresh band.
#[test]
fn drift_is_detected_and_recalibration_restores_fresh() {
    let (engine, source) = drift_engine(2, Some(test_watchdog()));
    let model = engine.model().clone();
    // Warm: baseline forms, health stays Fresh, nothing flagged.
    for _ in 0..3 {
        let out = engine.run_batch(test_requests(&model, 12, 0));
        assert_eq!(out.completed(), 12);
        assert!(out
            .responses
            .iter()
            .all(|r| !r.as_ref().unwrap().stale_plan));
    }
    assert_eq!(engine.plan_health(), Some(PlanHealth::Fresh));
    let fresh_ewma = engine.watchdog_stats().unwrap().ewma_deviation;
    // Drift: rotated pattern families served on phase-0 plans. The
    // watchdog must flag Stale within two batches.
    let mut detected_within = None;
    for batch in 0..2 {
        engine.run_batch(test_requests(&model, 12, 1));
        if engine.plan_health() == Some(PlanHealth::Stale) {
            detected_within = Some(batch + 1);
            break;
        }
    }
    assert_eq!(detected_within, Some(1), "drift flagged within bound");
    let snap = engine.metrics_snapshot();
    assert!(snap.stale_detected >= 1);
    assert!(snap.stale_served >= 1, "stale service is counted");
    // Requests served while stale carry the flag.
    let stale_out = engine.run_batch(test_requests(&model, 4, 1));
    assert!(stale_out
        .responses
        .iter()
        .all(|r| r.as_ref().unwrap().stale_plan));
    // Recalibrate against the drifted source: epoch bumps, health
    // resets, and post-swap traffic at the new phase stays Fresh with
    // the proxy back in the pre-drift band.
    source.set_phase(1);
    let old_epoch = engine.current_epoch();
    let new_epoch = engine.recalibrate().expect("recalibration succeeds");
    assert_eq!(new_epoch, old_epoch + 1);
    assert_eq!(engine.current_epoch(), new_epoch);
    assert_eq!(engine.plan_health(), Some(PlanHealth::Fresh));
    for _ in 0..3 {
        let out = engine.run_batch(test_requests(&model, 12, 1));
        assert_eq!(out.completed(), 12);
        for r in &out.responses {
            let r = r.as_ref().unwrap();
            assert_eq!(r.epoch, new_epoch, "new admissions pin the new epoch");
            assert!(!r.stale_plan, "recovered plans serve un-flagged");
        }
    }
    assert_eq!(engine.plan_health(), Some(PlanHealth::Fresh));
    let recovered_ewma = engine.watchdog_stats().unwrap().ewma_deviation;
    assert!(
        recovered_ewma < fresh_ewma + 0.04,
        "proxy recovered to the pre-drift band: {recovered_ewma} vs fresh {fresh_ewma}"
    );
    let snap = engine.metrics_snapshot();
    assert_eq!(snap.recalibrations, 1);
    assert_eq!(snap.recalib_failed, 0, "no recalibration attempt failed");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Epoch observation is monotone and unmixed: across any sequence of
    /// batches interleaved with recalibrations, every response's epoch is
    /// exactly the epoch published at its admission, and observed epochs
    /// never decrease in submission order.
    #[test]
    fn epochs_are_pinned_at_admission_and_monotone(
        workers in 1usize..=3,
        rounds in 1usize..=3,
        swap_after in prop::sample::select(vec![true, false]),
    ) {
        let (engine, source) = drift_engine(workers, None);
        let model = engine.model().clone();
        let mut last_epoch = 0u64;
        for round in 0..rounds {
            let epoch_at_submit = engine.current_epoch();
            prop_assert!(epoch_at_submit >= last_epoch);
            let out = engine.run_batch(test_requests(&model, 8, round));
            prop_assert_eq!(out.completed(), 8);
            for r in &out.responses {
                let r = r.as_ref().unwrap();
                // Policy is Off and no swap runs mid-batch here, so the
                // pinned epoch is exactly the pre-submission one.
                prop_assert_eq!(r.epoch, epoch_at_submit);
            }
            last_epoch = epoch_at_submit;
            if swap_after {
                source.set_phase(round + 1);
                let new_epoch = engine.recalibrate().unwrap();
                prop_assert_eq!(new_epoch, epoch_at_submit + 1);
            }
        }
    }

    /// Hot-swap atomicity: requests admitted before a swap — and still
    /// queued while it lands — produce outputs bit-identical to a
    /// never-swapped engine, even though the swapped-in generation's
    /// plans are different (drifted source). Admissions after the swap
    /// pin the new epoch.
    #[test]
    fn hot_swap_mid_batch_is_bit_identical_for_unchanged_heads(
        workers in 1usize..=3,
        drift_phase in 1usize..=5,
        n in 4usize..=10,
    ) {
        // Baseline: same warmup + batch, no swap ever.
        let (baseline, _) = drift_engine(workers, None);
        let model = baseline.model().clone();
        baseline.run_batch(test_requests(&model, 4, 0));
        let expected: Vec<Vec<u32>> = baseline
            .run_batch(test_requests(&model, n, 0))
            .responses
            .iter()
            .map(|r| output_bits(r.as_ref().unwrap()))
            .collect();

        let (engine, source) = drift_engine(workers, None);
        // Warm the epoch-0 cache so the swap has a generation to replace.
        engine.run_batch(test_requests(&model, 4, 0));
        // Park the batch in the queue, then swap underneath it.
        engine.pause();
        let tickets: Vec<_> = test_requests(&model, n, 0)
            .into_iter()
            .map(|r| engine.try_submit(r).expect("queue has room"))
            .collect();
        source.set_phase(drift_phase);
        let new_epoch = engine.recalibrate().unwrap();
        engine.resume();
        for (ticket, expected_bits) in tickets.into_iter().zip(&expected) {
            let resp = engine.wait(ticket).expect("pinned request completes");
            // In-flight requests keep their pinned epoch and stay
            // bit-identical across the swap.
            prop_assert_eq!(resp.epoch, new_epoch - 1);
            prop_assert_eq!(&output_bits(&resp), expected_bits);
        }
        // Post-swap admissions pick up the new generation.
        let post = engine.run_batch(test_requests(&model, 2, 0));
        for r in &post.responses {
            prop_assert_eq!(r.as_ref().unwrap().epoch, new_epoch);
        }
    }
}
