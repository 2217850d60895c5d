//! Counting global allocator: a process-wide allocation count (for
//! `allocs_per_op`), per-thread counts (for handler spans and for telling the
//! traced run's deployments apart by thread) and per-thread live bytes (for
//! the store replay's footprint).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};

use crate::sys;

/// Wraps [`System`], counting every allocation and reallocation.
pub struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

/// One thread's allocation count, on a cache line of its own. Only the
/// owning thread writes it; any thread may read it.
#[repr(align(64))]
struct Slot {
    tid: AtomicI32,
    allocs: AtomicU64,
}

const SLOTS: usize = 1024;
#[allow(clippy::declare_interior_mutable_const)]
const FREE: Slot = Slot {
    tid: AtomicI32::new(0),
    allocs: AtomicU64::new(0),
};
/// Claimed by threads on their first allocation and never released, so a
/// count stays readable after its thread exits. Threads beyond `SLOTS` go
/// uncounted per thread.
static TABLE: [Slot; SLOTS] = [FREE; SLOTS];
const UNCLAIMED: usize = usize::MAX;

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
    static THREAD_LIVE: Cell<i64> = const { Cell::new(0) };
}

fn slot() -> Option<&'static Slot> {
    SLOT.try_with(|c| {
        if c.get() == UNCLAIMED {
            let tid = sys::tid();
            let free = TABLE.iter().position(|s| {
                s.tid
                    .compare_exchange(0, tid, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            });
            c.set(free.unwrap_or(SLOTS));
        }
        TABLE.get(c.get())
    })
    .ok()
    .flatten()
}

fn note(grow: i64, counted: bool) {
    if counted {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = slot() {
            s.allocs
                .store(s.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }
    let _ = THREAD_LIVE.try_with(|c| c.set(c.get() + grow));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only atomics, const-initialised thread
// locals and the gettid system call, none of which allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by every thread of the process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    slot().map_or(0, |s| s.allocs.load(Ordering::Relaxed))
}

/// Allocations made so far by the threads with these ids.
pub fn of_threads(tids: &[i32]) -> u64 {
    TABLE
        .iter()
        .filter(|s| tids.contains(&s.tid.load(Ordering::Relaxed)))
        .map(|s| s.allocs.load(Ordering::Relaxed))
        .sum()
}

/// Bytes allocated minus bytes freed by the calling thread so far.
pub fn thread_live_bytes() -> i64 {
    THREAD_LIVE.with(Cell::get)
}
