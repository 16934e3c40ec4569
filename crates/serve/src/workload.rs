//! Synthetic serving workloads: scaled-down CogVideoX configurations,
//! deterministic per-head request streams, and the matching
//! [`CalibrationSource`].
//!
//! Everything here is a pure function of `(model, block, head, seed)`, so
//! a workload replayed against engines with different worker counts
//! produces bit-identical outputs — the property the concurrency tests
//! pin down.

use crate::engine::{CalibrationSource, ServeRequest};
use paro_core::pipeline::{attention_map, AttentionInputs};
use paro_core::CoreError;
use paro_model::patterns::{synthesize_head, PatternSpec};
use paro_model::{ModelConfig, TokenGrid};
use paro_tensor::rng::derive_seed;
use paro_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A CogVideoX-style config with the token grid swapped for a smaller
/// one, keeping the block/head/hidden structure. The full 17.8k-token
/// grid is an accelerator-scale workload; serving benchmarks on a CPU
/// functional model run the same per-head algorithm on a reduced grid.
///
/// The returned config has `text_tokens = 0`: the serving engine
/// quantizes pure visual attention and **rejects** configs with a text
/// prefix ([`crate::Engine::new`] fails with a typed
/// [`crate::ServeError::InvalidConfig`]). This function is the explicit,
/// documented place that zeroing happens — callers that build their own
/// `ModelConfig` must zero the prefix themselves, knowingly, instead of
/// having the engine silently rewrite it.
pub fn scaled_config(
    base: &ModelConfig,
    frames: usize,
    height: usize,
    width: usize,
) -> ModelConfig {
    let mut cfg = base.clone();
    cfg.name = format!("{}@{}x{}x{}", base.name, frames, height, width);
    cfg.grid = TokenGrid::new(frames, height, width);
    cfg.text_tokens = 0;
    cfg
}

/// Specification of a synthetic request stream over a model's heads.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Model to serve (grid defines the token count).
    pub model: ModelConfig,
    /// Number of requests to generate.
    pub requests: usize,
    /// Transformer blocks touched (cycled; capped at `model.blocks`).
    pub blocks: usize,
    /// Heads per block touched (cycled; capped at `model.heads`).
    pub heads: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Distinct `(block, head)` pairs the stream cycles through.
    pub fn distinct_heads(&self) -> usize {
        self.blocks.min(self.model.blocks) * self.heads.min(self.model.heads)
    }
}

/// Generates the request stream: request `r` targets pair
/// `r % distinct_heads`, with fresh `Q/K/V` noise per diffusion "step"
/// (`r / distinct_heads`). Deterministic in `(spec, r)`.
///
/// # Panics
///
/// Panics if the spec has zero blocks, heads or requests, or if the
/// synthesized inputs are inconsistent (impossible by construction).
pub fn synthetic_requests(spec: &WorkloadSpec) -> Vec<ServeRequest> {
    synthetic_requests_at_phase(spec, 0)
}

/// [`synthetic_requests`] at a given **drift phase**: every head's
/// pattern family comes from
/// [`PatternSpec::for_head_phase`], so advancing the phase rotates the
/// block-sparsity structure of the whole stream while keeping shapes,
/// seeds and request order fixed. Phase 0 is bit-identical to
/// [`synthetic_requests`].
///
/// # Panics
///
/// Same conditions as [`synthetic_requests`].
pub fn synthetic_requests_at_phase(spec: &WorkloadSpec, phase: usize) -> Vec<ServeRequest> {
    let blocks = spec.blocks.min(spec.model.blocks);
    let heads = spec.heads.min(spec.model.heads);
    assert!(blocks > 0 && heads > 0, "workload needs blocks and heads");
    assert!(spec.requests > 0, "workload needs at least one request");
    let pairs = blocks * heads;
    let head_dim = spec.model.head_dim();
    (0..spec.requests)
        .map(|r| {
            let pair = r % pairs;
            let (block, head) = (pair / heads, pair % heads);
            let pattern = PatternSpec::for_head_phase(&spec.model.grid, block, head, phase);
            let h = synthesize_head(
                &spec.model.grid,
                head_dim,
                &pattern,
                derive_seed(spec.seed, 0x5e71e + r as u64),
            );
            let inputs = AttentionInputs::new(h.q, h.k, h.v, spec.model.grid)
                .expect("synthesized head shapes are consistent");
            ServeRequest {
                block,
                head,
                inputs,
                deadline: None,
                tenant: 0,
            }
        })
        .collect()
}

/// Tags every request in a stream with the given tenant class index
/// (streams generate under the default tenant 0; multi-tenant
/// workloads retag per stream).
pub fn with_tenant(mut requests: Vec<ServeRequest>, tenant: usize) -> Vec<ServeRequest> {
    for r in &mut requests {
        r.tenant = tenant;
    }
    requests
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic open-loop (Poisson) arrival schedule: `count` absolute
/// arrival offsets from the stream start, with exponential inter-arrival
/// times at `rate_per_sec`. Open-loop means arrivals do not slow down
/// when the server lags — the repo benchmark's `serve_poisson` workload
/// submits on this clock and measures the resulting queueing, exactly
/// how production overload behaves (a closed loop would hide it).
///
/// # Panics
///
/// Panics if `rate_per_sec` is not finite and positive.
pub fn open_loop_arrivals(rate_per_sec: f64, count: usize, seed: u64) -> Vec<std::time::Duration> {
    assert!(
        rate_per_sec.is_finite() && rate_per_sec > 0.0,
        "arrival rate must be finite and positive"
    );
    let mut state = seed ^ 0xa41a_11a5_0f75_ed15;
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1]: the +1 offset keeps ln() finite.
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            let u = (u + 1.0 / (1u64 << 53) as f64).min(1.0);
            at += -u.ln() / rate_per_sec;
            std::time::Duration::from_secs_f64(at)
        })
        .collect()
}

/// Corrupts one request's `Q` tensor with a NaN at a fixed position —
/// the canonical "bad client" for admission-validation and chaos tests.
/// Returns the corrupted request; the original is consumed.
///
/// # Panics
///
/// Panics if the request's `Q` tensor is empty.
pub fn corrupt_with_nan(request: ServeRequest) -> ServeRequest {
    let ServeRequest {
        block,
        head,
        inputs,
        deadline,
        tenant,
    } = request;
    let grid = *inputs.grid();
    let (mut q, k, v) = (inputs.q().clone(), inputs.k().clone(), inputs.v().clone());
    assert!(!q.is_empty(), "cannot corrupt an empty tensor");
    q.as_mut_slice()[0] = f32::NAN;
    let inputs =
        AttentionInputs::new(q, k, v, grid).expect("corruption changes values, not shapes");
    ServeRequest {
        block,
        head,
        inputs,
        deadline,
        tenant,
    }
}

/// Calibration-sample source backed by the same synthetic pattern
/// generator: the maps for a head depend only on `(block, head)` and the
/// source's own seed, never on serving traffic.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    model: ModelConfig,
    samples: usize,
    seed: u64,
}

impl SyntheticSource {
    /// A source producing `samples` calibration maps per head.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(model: ModelConfig, samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "calibration needs at least one sample");
        SyntheticSource {
            model,
            samples,
            seed,
        }
    }
}

impl CalibrationSource for SyntheticSource {
    fn calibration_maps(&self, block: usize, head: usize) -> Result<Vec<Tensor>, CoreError> {
        phased_calibration_maps(&self.model, self.samples, self.seed, block, head, 0)
    }
}

/// Shared map synthesis for [`SyntheticSource`] (always phase 0) and
/// [`DriftSource`] (whatever phase the drift schedule has advanced to).
fn phased_calibration_maps(
    model: &ModelConfig,
    samples: usize,
    seed: u64,
    block: usize,
    head: usize,
    phase: usize,
) -> Result<Vec<Tensor>, CoreError> {
    let head_dim = model.head_dim();
    let pattern = PatternSpec::for_head_phase(&model.grid, block, head, phase);
    let pair = (block * model.heads.max(1) + head) as u64;
    (0..samples)
        .map(|s| {
            let h = synthesize_head(
                &model.grid,
                head_dim,
                &pattern,
                derive_seed(seed, 0xca11b + pair * 97 + s as u64),
            );
            attention_map(&h.q, &h.k)
        })
        .collect()
}

/// A calibration source whose underlying pattern families **rotate on a
/// schedule**: the drift workload for the lifecycle and chaos tests. At
/// phase 0 it is bit-identical to [`SyntheticSource`]; advancing the
/// phase (the "timestep index" of the drift schedule) rotates every
/// head's pattern family via [`PatternSpec::for_head_phase`], modelling
/// traffic whose block-sparsity structure has walked away from the
/// calibration set.
///
/// Determinism caveat: maps depend on `(block, head, phase)` — the
/// source stays arrival-order independent *within* a phase, which is
/// what the engine's bit-identity guarantee needs. Advancing the phase
/// between batches is the controlled violation drift tests exist to
/// exercise.
#[derive(Debug)]
pub struct DriftSource {
    model: ModelConfig,
    samples: usize,
    seed: u64,
    phase: AtomicUsize,
}

impl DriftSource {
    /// A drift source starting at phase 0 (identical to
    /// [`SyntheticSource`] with the same arguments).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn new(model: ModelConfig, samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "calibration needs at least one sample");
        DriftSource {
            model,
            samples,
            seed,
            phase: AtomicUsize::new(0),
        }
    }

    /// Advances the drift schedule to the given phase. Calibration maps
    /// requested after this reflect the rotated pattern families.
    pub fn set_phase(&self, phase: usize) {
        self.phase.store(phase, Ordering::Relaxed);
    }

    /// The current drift phase.
    pub fn phase(&self) -> usize {
        self.phase.load(Ordering::Relaxed)
    }
}

impl CalibrationSource for DriftSource {
    fn calibration_maps(&self, block: usize, head: usize) -> Result<Vec<Tensor>, CoreError> {
        let phase = self.phase.load(Ordering::Relaxed);
        phased_calibration_maps(&self.model, self.samples, self.seed, block, head, phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            model: scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4),
            requests: 10,
            blocks: 2,
            heads: 2,
            seed: 9,
        }
    }

    #[test]
    fn scaled_config_keeps_structure() {
        let cfg = scaled_config(&ModelConfig::cogvideox_2b(), 4, 6, 6);
        assert_eq!(cfg.blocks, 30);
        assert_eq!(cfg.heads, 30);
        assert_eq!(cfg.head_dim(), 64);
        assert_eq!(cfg.grid.len(), 144);
        assert_eq!(cfg.text_tokens, 0);
        assert!(cfg.name.contains("CogVideoX-2B"));
    }

    #[test]
    fn requests_cycle_pairs_and_vary_noise() {
        let s = spec();
        let reqs = synthetic_requests(&s);
        assert_eq!(reqs.len(), 10);
        assert_eq!(s.distinct_heads(), 4);
        // Pair cycling: request 0 and 4 hit the same head...
        assert_eq!((reqs[0].block, reqs[0].head), (reqs[4].block, reqs[4].head));
        // ...with different noise.
        assert_ne!(reqs[0].inputs.q(), reqs[4].inputs.q());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_requests(&spec());
        let b = synthetic_requests(&spec());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.inputs.q(), y.inputs.q());
            assert_eq!(x.inputs.k(), y.inputs.k());
            assert_eq!(x.inputs.v(), y.inputs.v());
        }
    }

    #[test]
    fn corruption_injects_nan_without_changing_shape() {
        let reqs = synthetic_requests(&spec());
        let clean_shape = reqs[0].inputs.q().shape().to_vec();
        let bad = corrupt_with_nan(reqs.into_iter().next().unwrap());
        assert_eq!(bad.inputs.q().shape(), &clean_shape[..]);
        assert!(bad.inputs.q().as_slice()[0].is_nan());
        assert!(bad.inputs.k().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tenant_tagging_relabels_every_request() {
        let reqs = with_tenant(synthetic_requests(&spec()), 3);
        assert!(reqs.iter().all(|r| r.tenant == 3));
    }

    #[test]
    fn open_loop_arrivals_are_deterministic_and_increasing() {
        let a = open_loop_arrivals(100.0, 50, 42);
        let b = open_loop_arrivals(100.0, 50, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // Mean inter-arrival tracks 1/rate to within a loose factor.
        let mean = a.last().unwrap().as_secs_f64() / 50.0;
        assert!((0.002..0.05).contains(&mean), "mean inter-arrival {mean}");
        // A different seed gives a different schedule.
        assert_ne!(a, open_loop_arrivals(100.0, 50, 43));
    }

    #[test]
    fn source_is_arrival_order_independent() {
        let cfg = scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4);
        let src = SyntheticSource::new(cfg, 2, 5);
        let a = src.calibration_maps(1, 3).unwrap();
        let _ = src.calibration_maps(0, 0).unwrap();
        let b = src.calibration_maps(1, 3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn engine_rejects_text_prefix_and_accepts_zeroed_config() {
        use crate::engine::{Engine, ServeConfig};
        use crate::ServeError;
        use std::sync::Arc;

        let cfg = ServeConfig {
            workers: 1,
            block_edge: 4,
            ..ServeConfig::default()
        };
        // A text prefix must be rejected loudly, not silently zeroed.
        let mut with_text = scaled_config(&ModelConfig::cogvideox_2b(), 2, 4, 4);
        with_text.text_tokens = 226;
        let source = Arc::new(SyntheticSource::new(with_text.clone(), 1, 7));
        match Engine::new(cfg.clone(), with_text, source) {
            Err(ServeError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains("text_tokens"),
                    "message names the field: {msg}"
                );
                assert!(msg.contains("226"), "message carries the value: {msg}");
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a running engine"),
        }
        // The explicitly-zeroed config (what scaled_config produces) is
        // accepted and serves.
        let model = scaled_config(&ModelConfig::cogvideox_2b(), 2, 4, 4);
        let source = Arc::new(SyntheticSource::new(model.clone(), 1, 7));
        let engine = Engine::new(cfg, model.clone(), source).expect("zeroed config accepted");
        let outcome = engine.run_batch(synthetic_requests(&WorkloadSpec {
            model,
            requests: 2,
            blocks: 1,
            heads: 1,
            seed: 3,
        }));
        assert_eq!(outcome.completed(), 2);
    }

    #[test]
    fn phase_zero_requests_match_unphased_stream() {
        let s = spec();
        let a = synthetic_requests(&s);
        let b = synthetic_requests_at_phase(&s, 0);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.inputs.q(), y.inputs.q());
            assert_eq!(x.inputs.k(), y.inputs.k());
        }
        // A later phase rotates pattern families: the stream changes.
        let c = synthetic_requests_at_phase(&s, 1);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.inputs.q() != y.inputs.q()),
            "phase 1 must change at least one request's inputs"
        );
    }

    #[test]
    fn drift_source_matches_synthetic_at_phase_zero_and_rotates_after() {
        let cfg = scaled_config(&ModelConfig::cogvideox_2b(), 3, 4, 4);
        let synth = SyntheticSource::new(cfg.clone(), 2, 5);
        let drift = DriftSource::new(cfg, 2, 5);
        assert_eq!(drift.phase(), 0);
        assert_eq!(
            synth.calibration_maps(1, 3).unwrap(),
            drift.calibration_maps(1, 3).unwrap(),
            "phase 0 is bit-identical to the static source"
        );
        drift.set_phase(2);
        assert_eq!(drift.phase(), 2);
        let rotated: Vec<_> = (0..6)
            .map(|h| drift.calibration_maps(1, h).unwrap())
            .collect();
        let baseline: Vec<_> = (0..6)
            .map(|h| synth.calibration_maps(1, h).unwrap())
            .collect();
        assert!(
            rotated != baseline,
            "advancing the phase must rotate some head's maps"
        );
        // Within a phase the source is still arrival-order independent.
        let a = drift.calibration_maps(1, 3).unwrap();
        let _ = drift.calibration_maps(0, 0).unwrap();
        assert_eq!(a, drift.calibration_maps(1, 3).unwrap());
    }
}
