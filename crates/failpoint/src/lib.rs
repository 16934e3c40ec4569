//! `paro-failpoint`: deterministic fault injection for the PARO runtime.
//!
//! Robustness claims ("one bad request yields one `Err`, the engine keeps
//! serving") are only testable if faults can be provoked *on demand and
//! deterministically*. This crate provides named **failpoints** — fixed
//! sites in the compute pool, the plan cache, the integer attention
//! pipeline and the packed-map kernels — that tests arm with a fault
//! kind, a number of calls to skip, and a trigger count; the serve chaos
//! suite (`cargo test -p paro-serve --features failpoints`) drives them
//! against the engine. Production builds compile the whole
//! mechanism out (the `enabled` cargo feature, mirroring `paro-trace`):
//! every site call is then an inlined no-op that can never fire.
//!
//! # Model
//!
//! A site is a `&'static str` (catalogued in [`site`]). Instrumented code
//! calls [`fire`] at the site; armed state is global and keyed by site:
//!
//! - [`FaultKind::Panic`] — [`fire`] panics (after releasing internal
//!   locks), exercising unwind paths.
//! - [`FaultKind::Error`] — [`fire`] returns `true`; the site maps that to
//!   its own typed transient error.
//! - [`FaultKind::Delay`] — [`fire`] sleeps for the given milliseconds and
//!   returns `false`, for deterministic deadline expiry mid-service.
//!
//! A [`FaultSpec`] fires on calls `skip .. skip + times` (0-based per-site
//! call counter), so a seed-derived `skip` picks *which* request of a
//! batch gets hurt. [`fired`] reports how often a site actually triggered;
//! [`reset`] disarms everything and clears counters between scenarios.
//!
//! # Example
//!
//! ```
//! use paro_failpoint::{arm, fire, fired, reset, site, FaultKind, FaultSpec};
//!
//! reset();
//! arm(site::QUANT_PACK_ATTN_V, FaultSpec::new(FaultKind::Error, 1, 1));
//! assert!(!fire(site::QUANT_PACK_ATTN_V)); // call 0: skipped
//! # #[cfg(feature = "enabled")]
//! assert!(fire(site::QUANT_PACK_ATTN_V)); // call 1: fires
//! assert!(!fire(site::QUANT_PACK_ATTN_V)); // call 2: exhausted
//! # #[cfg(feature = "enabled")]
//! assert_eq!(fired(site::QUANT_PACK_ATTN_V), 1);
//! reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Whether fault injection is compiled into this build (the `enabled`
/// cargo feature). When `false`, [`arm`] is ignored and [`fire`] can never
/// trigger.
pub const COMPILED_IN: bool = cfg!(feature = "enabled");

/// Canonical failpoint sites instrumented in the PARO crates.
///
/// Instrumentation and the chaos tests reference these constants, so
/// they share a single source of truth. [`fire`] accepts any
/// `&'static str`, so tests may add private sites.
pub mod site {
    /// Inside a compute-pool worker, before the submitted job body runs
    /// (`paro-core::pool`). `Error` is treated as `Panic` here: pool jobs
    /// return bare values, so the only expressible fault is an unwind.
    pub const POOL_JOB: &str = "pool.job";
    /// Inside the plan cache's single-flight window, before the
    /// calibrator closure runs (`paro-serve::plan_cache`). A `Panic`
    /// exercises the poison-safe waiter wakeup.
    pub const PLAN_CACHE_CALIBRATE: &str = "plan_cache.calibrate";
    /// Entry of the calibrated integer attention pipeline
    /// (`paro-core::int_pipeline`). `Error` yields a transient
    /// `CoreError`; `Delay` holds the request mid-service so a deadline
    /// can expire between stages.
    pub const PIPELINE_INT_ATTN: &str = "pipeline.int_attn";
    /// Entry of the packed block-sparse `AttnV` kernel: building its `V`
    /// operand (`paro-quant::AttnVOperand::new`), once per head in the
    /// fused int pipeline and once per `packed_attn_v` call. `Error`
    /// yields a transient `QuantError`.
    pub const QUANT_PACK_ATTN_V: &str = "quant.pack_attn_v";
    /// Top of the serve worker's per-request execution
    /// (`paro-serve::engine`), before calibration resolution.
    pub const SERVE_EXECUTE: &str = "serve.execute";
    /// Inside the online recalibrator (`paro-serve::engine`), before the
    /// per-head re-freeze loop runs. `Panic` exercises the recalibrator's
    /// failure domain (the engine must keep serving on the stale epoch);
    /// `Error` yields a transient recalibration failure that consumes one
    /// bounded retry.
    pub const SERVE_RECALIBRATE: &str = "serve.recalibrate";

    /// Every canonical site, for harness iteration and documentation
    /// checks.
    pub const ALL: &[&str] = &[
        POOL_JOB,
        PLAN_CACHE_CALIBRATE,
        PIPELINE_INT_ATTN,
        QUANT_PACK_ATTN_V,
        SERVE_EXECUTE,
        SERVE_RECALIBRATE,
    ];
}

/// What happens when an armed failpoint triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (internal locks released first), exercising
    /// unwind/poison recovery paths.
    Panic,
    /// Make [`fire`] return `true`; the site converts that into its own
    /// typed transient error.
    Error,
    /// Sleep for the given number of milliseconds, then behave as if not
    /// armed. Deterministically forces deadline expiry mid-pipeline.
    Delay(u64),
}

/// An armed fault: fires on per-site calls `skip .. skip + times`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault to inject when the window is hit.
    pub kind: FaultKind,
    /// Number of site calls to let pass before the first trigger.
    pub skip: u64,
    /// Number of consecutive calls (after `skip`) that trigger.
    pub times: u64,
}

impl FaultSpec {
    /// A spec firing on calls `skip .. skip + times`.
    pub fn new(kind: FaultKind, skip: u64, times: u64) -> Self {
        Self { kind, skip, times }
    }

    /// A spec firing on the first `times` calls.
    pub fn immediate(kind: FaultKind, times: u64) -> Self {
        Self::new(kind, 0, times)
    }
}

#[cfg(feature = "enabled")]
mod active {
    use super::{FaultKind, FaultSpec};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock, PoisonError};
    use std::thread;
    use std::time::Duration;

    struct Armed {
        spec: FaultSpec,
        /// Site calls observed since arming (or the last [`super::reset`]).
        hits: u64,
        /// Calls that actually triggered the fault.
        fired: u64,
    }

    fn registry() -> &'static Mutex<HashMap<&'static str, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<&'static str, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn lock() -> std::sync::MutexGuard<'static, HashMap<&'static str, Armed>> {
        // A panic while holding this lock is by design (Panic faults are
        // raised *after* release); recover from poison regardless so the
        // harness itself can never deadlock a test run.
        registry().lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms `site` with `spec`, replacing any previous arming (and its
    /// counters).
    pub fn arm(site: &'static str, spec: FaultSpec) {
        lock().insert(
            site,
            Armed {
                spec,
                hits: 0,
                fired: 0,
            },
        );
    }

    /// Disarms every site and clears all counters. Call between chaos
    /// scenarios.
    pub fn reset() {
        lock().clear();
    }

    /// How many times `site` actually triggered since it was armed.
    pub fn fired(site: &'static str) -> u64 {
        lock().get(site).map_or(0, |a| a.fired)
    }

    /// Site-side hook: called by instrumented code. Returns `true` when an
    /// armed [`super::FaultKind::Error`] fires (the caller maps it to its
    /// own typed error); panics for `Panic`; sleeps then returns `false`
    /// for `Delay`.
    pub fn fire(site: &'static str) -> bool {
        let action = {
            let mut map = lock();
            let Some(armed) = map.get_mut(site) else {
                return false;
            };
            let call = armed.hits;
            armed.hits += 1;
            let window = armed.spec.skip..armed.spec.skip.saturating_add(armed.spec.times);
            if !window.contains(&call) {
                return false;
            }
            armed.fired += 1;
            armed.spec.kind
            // Lock dropped here, before any panic or sleep.
        };
        match action {
            FaultKind::Panic => panic!("injected panic at failpoint '{site}'"),
            FaultKind::Error => true,
            FaultKind::Delay(ms) => {
                thread::sleep(Duration::from_millis(ms));
                false
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub use active::{arm, fire, fired, reset};

#[cfg(not(feature = "enabled"))]
mod inert {
    use super::FaultSpec;

    /// Compiled out: arming has no effect.
    #[inline(always)]
    pub fn arm(_site: &'static str, _spec: FaultSpec) {}

    /// Compiled out: nothing to clear.
    #[inline(always)]
    pub fn reset() {}

    /// Compiled out: no site ever fires.
    #[inline(always)]
    pub fn fired(_site: &'static str) -> u64 {
        0
    }

    /// Compiled out: never fires.
    #[inline(always)]
    pub fn fire(_site: &'static str) -> bool {
        false
    }
}

#[cfg(not(feature = "enabled"))]
pub use inert::{arm, fire, fired, reset};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "enabled")]
    use std::panic::{catch_unwind, AssertUnwindSafe};
    #[cfg(feature = "enabled")]
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// The registry is process-global; serialize tests that touch it.
    #[cfg(feature = "enabled")]
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn site_catalogue_is_unique_and_nonempty() {
        let mut names: Vec<&str> = site::ALL.to_vec();
        assert!(!names.is_empty());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), site::ALL.len(), "duplicate site names");
        assert!(site::ALL.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn unarmed_site_never_fires() {
        assert!(!fire("tests.unarmed"));
        assert_eq!(fired("tests.unarmed"), 0);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn error_fires_within_window_only() {
        let _guard = test_lock();
        reset();
        arm("tests.window", FaultSpec::new(FaultKind::Error, 2, 2));
        let outcomes: Vec<bool> = (0..6).map(|_| fire("tests.window")).collect();
        assert_eq!(outcomes, [false, false, true, true, false, false]);
        assert_eq!(fired("tests.window"), 2);
        reset();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn panic_kind_unwinds_and_registry_survives() {
        let _guard = test_lock();
        reset();
        arm("tests.panic", FaultSpec::immediate(FaultKind::Panic, 1));
        let unwound = catch_unwind(AssertUnwindSafe(|| fire("tests.panic")));
        let message = *unwound
            .expect_err("armed panic must unwind")
            .downcast::<String>()
            .expect("payload is the formatted message");
        assert!(message.contains("tests.panic"), "got: {message}");
        assert_eq!(fired("tests.panic"), 1);
        // The registry is not poisoned: the same site is exhausted now.
        assert!(!fire("tests.panic"));
        reset();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn delay_sleeps_then_passes() {
        let _guard = test_lock();
        reset();
        arm("tests.delay", FaultSpec::immediate(FaultKind::Delay(5), 1));
        let start = std::time::Instant::now();
        assert!(!fire("tests.delay"));
        assert!(start.elapsed() >= std::time::Duration::from_millis(5));
        reset();
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn rearm_restarts_the_counter() {
        let _guard = test_lock();
        reset();
        arm("tests.rearm", FaultSpec::immediate(FaultKind::Error, 1));
        assert!(fire("tests.rearm"));
        assert!(!fire("tests.rearm"));
        arm("tests.rearm", FaultSpec::immediate(FaultKind::Error, 1));
        assert!(fire("tests.rearm"));
        assert_eq!(fired("tests.rearm"), 1);
        reset();
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn compiled_out_arm_is_inert() {
        arm("tests.inert", FaultSpec::immediate(FaultKind::Panic, 9));
        assert!(!fire("tests.inert"));
        assert_eq!(fired("tests.inert"), 0);
        let compiled_in = COMPILED_IN;
        assert!(!compiled_in);
    }
}
