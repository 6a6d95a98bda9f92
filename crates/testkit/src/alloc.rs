//! A counting global allocator for footprint and allocation tests.
//!
//! A test binary installs it with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: sledge_testkit::alloc::CountingAlloc = sledge_testkit::alloc::CountingAlloc;
//! ```
//!
//! and reads [`AllocCounts::now`] around the code it measures. The counters
//! are process-wide: every thread's allocations land in them, so the tests
//! of one binary must not measure at the same time (take one shared lock),
//! and a measurement reads byte counts, never clocks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static WATCHED_SIZE: AtomicUsize = AtomicUsize::new(0);
static WATCHED: AtomicU64 = AtomicU64::new(0);

/// [`System`], counting what it hands out and takes back.
#[derive(Debug)]
pub struct CountingAlloc;

fn handed_out(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size == WATCHED_SIZE.load(Ordering::Relaxed) {
        WATCHED.fetch_add(1, Ordering::Relaxed);
    }
}

fn taken_back(size: usize) {
    FREED.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            handed_out(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            handed_out(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        taken_back(layout.size());
        System.dealloc(ptr, layout);
    }

    /// A move to a new size counts as one allocation of `new_size` bytes
    /// and the return of the old block.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            taken_back(layout.size());
            handed_out(new_size);
        }
        moved
    }
}

/// Count, from now on, the allocations of exactly `size` bytes in
/// [`AllocCounts::watched`] (0 stops watching). One size at a time.
pub fn watch(size: usize) {
    WATCHED_SIZE.store(size, Ordering::Relaxed);
}

/// The counters at one moment, or (through [`AllocCounts::since`]) what
/// happened between two moments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Allocations (a reallocation counts once).
    pub allocs: u64,
    /// Bytes handed out.
    pub bytes: u64,
    /// Bytes taken back.
    pub freed: u64,
    /// Allocations of the size given to [`watch`].
    pub watched: u64,
}

impl AllocCounts {
    /// The counters now.
    pub fn now() -> AllocCounts {
        AllocCounts {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            freed: FREED.load(Ordering::Relaxed),
            watched: WATCHED.load(Ordering::Relaxed),
        }
    }

    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            freed: self.freed - earlier.freed,
            watched: self.watched - earlier.watched,
        }
    }

    /// Bytes handed out and not taken back (negative when more was freed).
    pub fn live(&self) -> i64 {
        self.bytes as i64 - self.freed as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_what_it_hands_out_and_takes_back() {
        // An odd size no other test of this binary allocates.
        const SIZE: usize = 40_961;
        watch(SIZE);
        let before = AllocCounts::now();
        let block = vec![7u8; SIZE];
        let held = AllocCounts::now().since(before);
        assert!(held.allocs >= 1 && held.bytes >= SIZE as u64, "{held:?}");
        assert_eq!(held.watched, 1);
        drop(std::hint::black_box(block));
        let after = AllocCounts::now().since(before);
        assert!(after.freed >= SIZE as u64, "{after:?}");
        assert_eq!(after.watched, 1);
    }
}
