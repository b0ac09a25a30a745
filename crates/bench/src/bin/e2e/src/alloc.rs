//! A counting global allocator: heap calls per request, on all
//! threads. It counts only while armed, so timed passes pay one
//! relaxed load of a read-shared flag per heap call and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed throughout: both are statistics that publish no other data.
static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns how many times any thread called `alloc`,
/// `alloc_zeroed` or `realloc` meanwhile.
pub fn count(f: impl FnOnce()) -> u64 {
    let before = CALLS.load(Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    CALLS.load(Ordering::Relaxed) - before
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_while_armed() {
        // The test binary installs the same allocator (see main.rs).
        let outside = Vec::<u8>::with_capacity(64);
        let mut inside = Vec::new();
        let calls = super::count(|| inside = Vec::<u8>::with_capacity(64));
        assert!(calls >= 1);
        drop((outside, inside));
    }
}
