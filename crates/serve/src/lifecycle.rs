//! Calibration-drift lifecycle: the fidelity watchdog and the online
//! recalibration policies.
//!
//! PARO freezes reorder plans and bit allocations once and serves from
//! them forever — which is only sound while attention patterns stay
//! close to the calibration set. This module closes the loop: a cheap
//! **fidelity proxy** sampled from served requests feeds a staleness
//! [`Watchdog`] whose [`PlanHealth`] state machine (Fresh → Suspect →
//! Stale, with EWMA thresholds and hysteresis) decides when the frozen
//! plans have drifted far enough to re-freeze. The engine then
//! recalibrates per [`RecalibrationPolicy`] and hot-swaps the new plan
//! epoch atomically (see `docs/LIFECYCLE.md` for the full contract).
//!
//! # The fidelity proxy
//!
//! The proxy is the **post-quantization map sparsity** of the served
//! request ([`paro_core::pipeline::AttentionRun::map_sparsity`]): the
//! fraction of attention-map codes that quantize to exactly zero under
//! the head's frozen bit allocation. It is computed by the packed-int
//! pipeline anyway (it drives the B0/zero-skip bypass), so sampling it
//! costs one atomic counter and, every `sample_every`-th request, a
//! short mutex-guarded EWMA update — no extra passes over data. The
//! signal moves with drift because per-block quantization parameters
//! follow the *actual* maps while the bit allocation stays frozen: when
//! a head's pattern rotates away from its calibration, mass lands in
//! blocks the plan starved of bits (raising their zero fraction) and
//! leaves the blocks the plan favored.
//!
//! Baselines are **per head and per epoch**: the proxy's absolute level
//! varies wildly across `(block, head)` pairs (different pattern
//! families quantize to very different zero fractions), so each head's
//! first `baseline_samples` samples after a (re)calibration define that
//! head's expected value. What is *comparable* across heads is the
//! deviation from one's own baseline — the watchdog tracks a single
//! EWMA of `|sample − head baseline|` against the `suspect` / `stale`
//! thresholds. Hysteresis (N consecutive samples agreeing) keeps one
//! outlier request from flapping the state.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::admission::{relock, ServeError};

/// Health of the currently-published plan epoch, as judged by the
/// fidelity watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanHealth {
    /// The fidelity proxy tracks the epoch's baseline.
    Fresh,
    /// The proxy has deviated past the suspect threshold — drift is
    /// plausible but not yet actionable.
    Suspect,
    /// Sustained deviation past the stale threshold: the frozen plans no
    /// longer describe the traffic; recalibration is warranted.
    Stale,
}

impl PlanHealth {
    /// Lowercase label, used as the `plan.health` trace-span detail.
    pub fn name(&self) -> &'static str {
        match self {
            PlanHealth::Fresh => "fresh",
            PlanHealth::Suspect => "suspect",
            PlanHealth::Stale => "stale",
        }
    }
}

// Serialized as its lowercase label (the same string the `plan.health`
// trace detail carries), not the externally-tagged variant name.
impl Serialize for PlanHealth {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

/// When the engine recalibrates and hot-swaps a new plan epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecalibrationPolicy {
    /// Never recalibrate online ([`crate::Engine::recalibrate`] can still
    /// be called explicitly).
    Off,
    /// Recalibrate in the background when the watchdog declares the
    /// current epoch [`PlanHealth::Stale`]. Requires a watchdog.
    OnStale,
}

/// Watchdog tuning knobs. See `docs/LIFECYCLE.md` for the contract and
/// the reasoning behind the defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Sample the fidelity proxy on every `sample_every`-th eligible
    /// request (eligible = full-fidelity, packed-int, current-epoch).
    /// 1 samples everything; larger values cheapen the watchdog further.
    pub sample_every: u64,
    /// Number of initial samples **per head** each epoch that define
    /// that head's baseline (their mean). A head's samples feed no
    /// health judgment until its baseline is established.
    pub baseline_samples: u32,
    /// EWMA smoothing factor in `(0, 1]` applied to the per-head
    /// `|sample − baseline|` deviations (1 = no smoothing, track the
    /// latest deviation).
    pub ewma_alpha: f64,
    /// EWMA deviation at or above which the epoch becomes Suspect.
    pub suspect_threshold: f64,
    /// EWMA deviation at or above which the epoch becomes Stale. Must be
    /// `>= suspect_threshold`.
    pub stale_threshold: f64,
    /// Consecutive samples that must agree on a *different* health state
    /// before the watchdog transitions to it (1 = immediate).
    pub hysteresis: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            sample_every: 4,
            baseline_samples: 8,
            ewma_alpha: 0.3,
            suspect_threshold: 0.04,
            stale_threshold: 0.08,
            hysteresis: 3,
        }
    }
}

impl WatchdogConfig {
    /// Validates every knob's domain.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.sample_every == 0 {
            return Err(ServeError::InvalidConfig(
                "watchdog sample_every must be >= 1".into(),
            ));
        }
        if self.baseline_samples == 0 {
            return Err(ServeError::InvalidConfig(
                "watchdog baseline_samples must be >= 1".into(),
            ));
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(ServeError::InvalidConfig(
                "watchdog ewma_alpha must be in (0, 1]".into(),
            ));
        }
        for (what, v) in [
            ("suspect_threshold", self.suspect_threshold),
            ("stale_threshold", self.stale_threshold),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ServeError::InvalidConfig(format!(
                    "watchdog {what} must be finite and positive"
                )));
            }
        }
        if self.stale_threshold < self.suspect_threshold {
            return Err(ServeError::InvalidConfig(
                "watchdog stale_threshold must be >= suspect_threshold".into(),
            ));
        }
        if self.hysteresis == 0 {
            return Err(ServeError::InvalidConfig(
                "watchdog hysteresis must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One head's baseline accumulator for the current epoch.
#[derive(Debug, Clone)]
struct HeadBaseline {
    key: (usize, usize),
    sum: f64,
    count: u32,
    /// The established baseline mean, once `count` reaches the
    /// configured `baseline_samples`.
    mean: Option<f64>,
}

/// Mutable watchdog state, reset on every epoch swap.
#[derive(Debug, Clone)]
struct WatchdogState {
    /// Per-`(block, head)` baselines. Linear scan: serving workloads
    /// touch at most a few dozen heads.
    baselines: Vec<HeadBaseline>,
    /// EWMA of `|sample − head baseline|`, shared across heads (the
    /// deviation — unlike the raw proxy — is comparable across heads).
    ewma: f64,
    health: PlanHealth,
    /// The state the last samples have been voting for, with the number
    /// of consecutive votes (hysteresis).
    pending: Option<(PlanHealth, u32)>,
    samples: u64,
}

impl WatchdogState {
    fn new() -> Self {
        WatchdogState {
            baselines: Vec::new(),
            ewma: 0.0,
            health: PlanHealth::Fresh,
            pending: None,
            samples: 0,
        }
    }
}

/// The staleness watchdog: per-epoch baseline, deviation EWMA, and the
/// hysteresis-guarded [`PlanHealth`] state machine.
///
/// Thread-safe; the hot-path cost for non-sampled requests is a single
/// relaxed atomic increment.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    counter: AtomicU64,
    state: Mutex<WatchdogState>,
}

impl Watchdog {
    /// A watchdog with the given (already validated) configuration.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            counter: AtomicU64::new(0),
            state: Mutex::new(WatchdogState::new()),
        }
    }

    /// The watchdog's configuration.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Feeds one eligible request's fidelity proxy, attributed to the
    /// `(block, head)` it was measured on. Decides internally whether
    /// this request is sampled (`sample_every`); returns the new health
    /// state when this observation caused a transition, `None`
    /// otherwise.
    pub fn observe(&self, key: (usize, usize), proxy: f64) -> Option<PlanHealth> {
        let tick = self.counter.fetch_add(1, Ordering::Relaxed);
        if !tick.is_multiple_of(self.cfg.sample_every) {
            return None;
        }
        if !proxy.is_finite() {
            return None;
        }
        let mut state = relock(&self.state);
        state.samples += 1;
        // Establish this head's epoch baseline from its first K samples.
        let baseline_samples = self.cfg.baseline_samples;
        let entry = match state.baselines.iter_mut().find(|b| b.key == key) {
            Some(entry) => entry,
            None => {
                state.baselines.push(HeadBaseline {
                    key,
                    sum: 0.0,
                    count: 0,
                    mean: None,
                });
                state.baselines.last_mut().expect("just pushed")
            }
        };
        let baseline = match entry.mean {
            Some(mean) => mean,
            None => {
                entry.sum += proxy;
                entry.count += 1;
                if entry.count >= baseline_samples {
                    entry.mean = Some(entry.sum / f64::from(entry.count));
                }
                return None;
            }
        };
        let deviation = (proxy - baseline).abs();
        state.ewma = self.cfg.ewma_alpha * deviation + (1.0 - self.cfg.ewma_alpha) * state.ewma;
        let target = if state.ewma >= self.cfg.stale_threshold {
            PlanHealth::Stale
        } else if state.ewma >= self.cfg.suspect_threshold {
            PlanHealth::Suspect
        } else {
            PlanHealth::Fresh
        };
        if target == state.health {
            state.pending = None;
            return None;
        }
        // Hysteresis: `hysteresis` consecutive samples must vote for the
        // same new state before the transition happens.
        let votes = match state.pending {
            Some((pending, votes)) if pending == target => votes + 1,
            _ => 1,
        };
        if votes >= self.cfg.hysteresis {
            state.health = target;
            state.pending = None;
            Some(target)
        } else {
            state.pending = Some((target, votes));
            None
        }
    }

    /// The current health state.
    pub fn health(&self) -> PlanHealth {
        relock(&self.state).health
    }

    /// Resets for a new plan epoch: clears the baseline, EWMA and
    /// hysteresis, returning to [`PlanHealth::Fresh`]. Called under the
    /// hot-swap.
    pub fn reset(&self) {
        *relock(&self.state) = WatchdogState::new();
    }

    /// Point-in-time snapshot for reports.
    pub fn stats(&self) -> WatchdogStats {
        let state = relock(&self.state);
        WatchdogStats {
            health: state.health,
            heads_tracked: state.baselines.len() as u64,
            heads_baselined: state.baselines.iter().filter(|b| b.mean.is_some()).count() as u64,
            ewma_deviation: state.ewma,
            samples: state.samples,
            observed: self.counter.load(Ordering::Relaxed),
        }
    }
}

/// Serializable point-in-time watchdog state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WatchdogStats {
    /// Current health of the published epoch.
    pub health: PlanHealth,
    /// Distinct `(block, head)` pairs sampled this epoch.
    pub heads_tracked: u64,
    /// How many of those have an established baseline (collected their
    /// `baseline_samples` samples).
    pub heads_baselined: u64,
    /// EWMA of `|sample − head baseline|`.
    pub ewma_deviation: f64,
    /// Samples taken for the current epoch (every `sample_every`-th
    /// observation).
    pub samples: u64,
    /// Eligible requests observed for the current epoch (sampled or
    /// not).
    pub observed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            sample_every: 1,
            baseline_samples: 4,
            ewma_alpha: 1.0,
            suspect_threshold: 0.05,
            stale_threshold: 0.10,
            hysteresis: 2,
        }
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(WatchdogConfig::default().validate().is_ok());
        for bad in [
            WatchdogConfig {
                sample_every: 0,
                ..cfg()
            },
            WatchdogConfig {
                baseline_samples: 0,
                ..cfg()
            },
            WatchdogConfig {
                ewma_alpha: 0.0,
                ..cfg()
            },
            WatchdogConfig {
                ewma_alpha: 1.5,
                ..cfg()
            },
            WatchdogConfig {
                suspect_threshold: f64::NAN,
                ..cfg()
            },
            WatchdogConfig {
                stale_threshold: 0.01,
                ..cfg()
            },
            WatchdogConfig {
                hysteresis: 0,
                ..cfg()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn baseline_then_fresh_on_stable_signal() {
        let wd = Watchdog::new(cfg());
        for _ in 0..16 {
            assert_eq!(wd.observe((0, 0), 0.5), None);
        }
        assert_eq!(wd.health(), PlanHealth::Fresh);
        let stats = wd.stats();
        assert_eq!((stats.heads_tracked, stats.heads_baselined), (1, 1));
        assert!(stats.ewma_deviation < 1e-12);
        assert_eq!(stats.samples, 16);
    }

    #[test]
    fn drift_walks_fresh_suspect_stale_with_hysteresis() {
        let wd = Watchdog::new(cfg());
        for _ in 0..4 {
            wd.observe((0, 0), 0.5); // baseline = 0.5
        }
        // One outlier does not transition (hysteresis = 2)...
        assert_eq!(wd.observe((0, 0), 0.57), None);
        assert_eq!(wd.health(), PlanHealth::Fresh);
        // ...the second consecutive vote does.
        assert_eq!(wd.observe((0, 0), 0.57), Some(PlanHealth::Suspect));
        // Sustained heavier drift escalates to Stale.
        assert_eq!(wd.observe((0, 0), 0.65), None);
        assert_eq!(wd.observe((0, 0), 0.65), Some(PlanHealth::Stale));
        assert_eq!(wd.health(), PlanHealth::Stale);
        // Recovery walks back down once the signal returns to baseline.
        assert_eq!(wd.observe((0, 0), 0.5), None);
        assert_eq!(wd.observe((0, 0), 0.5), Some(PlanHealth::Fresh));
    }

    #[test]
    fn interrupted_votes_reset_hysteresis() {
        let wd = Watchdog::new(cfg());
        for _ in 0..4 {
            wd.observe((0, 0), 0.5);
        }
        assert_eq!(wd.observe((0, 0), 0.57), None); // 1 vote for Suspect
        assert_eq!(wd.observe((0, 0), 0.5), None); // back in band: votes cleared
        assert_eq!(wd.observe((0, 0), 0.57), None); // 1 vote again, not 2
        assert_eq!(wd.health(), PlanHealth::Fresh);
    }

    #[test]
    fn sample_every_skips_requests() {
        let wd = Watchdog::new(WatchdogConfig {
            sample_every: 3,
            ..cfg()
        });
        for _ in 0..9 {
            wd.observe((0, 0), 0.5);
        }
        let stats = wd.stats();
        assert_eq!(stats.observed, 9);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn reset_starts_a_new_baseline() {
        let wd = Watchdog::new(cfg());
        for _ in 0..4 {
            wd.observe((0, 0), 0.5);
        }
        wd.observe((0, 0), 0.8);
        wd.observe((0, 0), 0.8);
        assert_ne!(wd.health(), PlanHealth::Fresh);
        wd.reset();
        assert_eq!(wd.health(), PlanHealth::Fresh);
        assert_eq!(wd.stats().heads_baselined, 0);
        // The new baseline forms around the new signal level.
        for _ in 0..4 {
            wd.observe((0, 0), 0.8);
        }
        assert_eq!(wd.stats().heads_baselined, 1);
        for _ in 0..8 {
            wd.observe((0, 0), 0.8);
        }
        assert_eq!(wd.health(), PlanHealth::Fresh);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        let wd = Watchdog::new(cfg());
        for _ in 0..4 {
            wd.observe((0, 0), 0.5);
        }
        wd.observe((0, 0), f64::NAN);
        wd.observe((0, 0), f64::INFINITY);
        assert_eq!(wd.health(), PlanHealth::Fresh);
        assert!(wd.stats().ewma_deviation.is_finite());
    }

    #[test]
    fn health_names_are_lowercase_stable() {
        assert_eq!(PlanHealth::Fresh.name(), "fresh");
        assert_eq!(PlanHealth::Suspect.name(), "suspect");
        assert_eq!(PlanHealth::Stale.name(), "stale");
        assert_eq!(
            serde_json::to_string(&PlanHealth::Stale).unwrap(),
            "\"stale\""
        );
    }
}
