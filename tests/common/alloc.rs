//! One recording allocator for the suites that audit the heap:
//! `alloc_free` counts allocations, `mem_budget` follows live bytes and
//! their high-water mark, and `decoder_hostile` records the largest
//! single request. Each binary declares its own
//! `#[global_allocator] static GLOBAL: RecordingAlloc = RecordingAlloc;`.
//!
//! The records are **thread-local**, so background harness threads
//! (libtest's monitor, stdout capture) cannot flake an audit. Live
//! bytes are followed always; the count and the largest request only
//! while [`armed`], and while armed a request above [`REFUSE_ABOVE`] is
//! refused (null), so code that trusts a forged size aborts the test
//! binary instead of exhausting the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init so reading these inside the allocator can never
    // itself allocate (no lazy registration path).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Requests above this are refused while armed: far beyond anything an
/// audited path may ask for, far below what would hurt the host.
const REFUSE_ABOVE: usize = 1 << 30;

/// Records this thread's allocations; delegates to the system allocator.
pub struct RecordingAlloc;

/// Note a request of `size` bytes; `false` means refuse it.
fn admit(size: usize) -> bool {
    // `try_with` so allocations during thread teardown (after TLS
    // destruction) pass through unrecorded instead of aborting.
    if !ARMED.try_with(Cell::get).unwrap_or(false) {
        return true;
    }
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    size <= REFUSE_ABOVE
}

fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    // Saturating: a block may be freed by another thread than its owner.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, or refuses with null, which the
// contract allows; the bookkeeping around the calls touches no block.
unsafe impl GlobalAlloc for RecordingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !admit(layout.size()) {
            return std::ptr::null_mut();
        }
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !admit(new_size) {
            return std::ptr::null_mut();
        }
        // The old block counts until the new one exists.
        grow(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        shrink(layout.size());
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Run `f` armed.
fn armed<T>(f: impl FnOnce() -> T) -> T {
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    out
}

/// How many allocations (and reallocations) `f` performed.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = COUNT.with(Cell::get);
    armed(f);
    COUNT.with(Cell::get) - before
}

/// `f`'s result and the largest single allocation it requested.
pub fn largest_request<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = armed(f);
    (out, LARGEST.with(Cell::get))
}

/// The bytes live on this thread.
pub fn live_bytes() -> usize {
    LIVE.with(Cell::get)
}

/// `f`'s result and how far this thread's live heap rose above where it
/// stood when `f` began.
pub fn peak_live_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = live_bytes();
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}
