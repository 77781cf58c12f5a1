//! Live-heap accounting: the system allocator, wrapped to track the bytes
//! currently allocated and their high-water mark.
//!
//! The process's peak resident set (`VmHWM`) also counts what the C
//! allocator keeps cached per thread arena, which on `tenants-zipf` with
//! two drain workers moved by a fifth between runs of the same code. The live-heap peak counts only what the program holds; the
//! benchmark's own checks run under [`excluding`], so their transient
//! buffers (the software reference model densifies operands) do not count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static BASE: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters only observe
// sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

/// High-water mark of live heap bytes since the process started, less the
/// bytes live at [`set_base`], in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed).saturating_sub(BASE.load(Relaxed)) as f64 / (1024.0 * 1024.0)
}

/// Leaves out of [`peak_mb`] what is live now: the benchmark's own buffers
/// that stay allocated for the whole run (the speed calibration's matrix).
pub fn set_base() {
    BASE.store(LIVE.load(Relaxed), Relaxed);
}

/// Runs `f` without letting its transient allocations raise the peak:
/// afterwards the peak is what it was before, or the bytes `f` left live
/// if that is more. Only for code that runs while no other thread of the
/// program allocates.
pub fn excluding<R>(f: impl FnOnce() -> R) -> R {
    let before = PEAK.load(Relaxed);
    let out = f();
    PEAK.store(before.max(LIVE.load(Relaxed)), Relaxed);
    out
}
