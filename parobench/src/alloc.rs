//! A counting wrapper around the system allocator, for `peak_heap_mb`.
//!
//! Counting is off by default, so timed loops run through a wrapper whose
//! only cost is one relaxed load per call. [`measure_peak`] turns it on
//! around one operation and reports the highest live heap above the
//! level at the start. Frees of memory allocated before the start lower
//! the live level, so the figure is the operation's net peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The benchmark binary's global allocator.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and so from `System`.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            shrink(layout.size());
            grow(new_size);
        }
        p
    }
}

/// Runs `op` with counting on and returns its result and the peak live
/// heap above the level at its start, in MiB.
pub fn measure_peak<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    ENABLED.store(true, Relaxed);
    let out = op();
    ENABLED.store(false, Relaxed);
    let peak = PEAK.load(Relaxed) - base;
    (out, peak.max(0) as f64 / (1024.0 * 1024.0))
}

/// Turns counting on or off without measuring, so a loop can be timed
/// with the wrapper's counting cost and without it.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}
