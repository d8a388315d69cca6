//! A counting `GlobalAlloc` over the system allocator. Only the traced
//! binary installs it, and it counts only while a probe has it enabled,
//! so the traced phases run the same allocation path as the untraced
//! binary plus one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// More shards than a child has threads (generator + at most three
/// workers), so every thread counts into a cache line of its own and a
/// thread's shard is that thread's count exactly.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard {
    calls: AtomicU64,
    bytes: AtomicU64,
}

/// Allocation calls and bytes requested.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

pub struct CountingAlloc {
    enabled: AtomicBool,
    next_shard: AtomicUsize,
    shards: [Shard; SHARDS],
}

thread_local! {
    /// This thread's shard, assigned at its first counted allocation.
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator allocates nothing.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

// Every atomic here is a statistic that publishes no other data:
// Relaxed throughout.
impl CountingAlloc {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> CountingAlloc {
        CountingAlloc {
            enabled: AtomicBool::new(false),
            next_shard: AtomicUsize::new(0),
            shards: [const {
                Shard {
                    calls: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                }
            }; SHARDS],
        }
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    fn shard(&self) -> &Shard {
        // A thread past its TLS teardown counts into shard 0.
        let index = SHARD
            .try_with(|slot| {
                if slot.get() == usize::MAX {
                    slot.set(self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS);
                }
                slot.get()
            })
            .unwrap_or(0);
        &self.shards[index]
    }

    fn count(&self, bytes: usize) {
        if self.enabled.load(Ordering::Relaxed) {
            let shard = self.shard();
            shard.calls.fetch_add(1, Ordering::Relaxed);
            shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    fn read(shard: &Shard) -> Counts {
        Counts {
            calls: shard.calls.load(Ordering::Relaxed),
            bytes: shard.bytes.load(Ordering::Relaxed),
        }
    }

    /// Counts of the calling thread alone.
    pub fn this_thread(&self) -> Counts {
        Self::read(self.shard())
    }

    /// Counts of every thread.
    pub fn all_threads(&self) -> Counts {
        self.shards
            .iter()
            .map(Self::read)
            .fold(Counts::default(), |a, c| Counts {
                calls: a.calls + c.calls,
                bytes: a.bytes + c.bytes,
            })
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting beside it
// touches only atomics and a const-initialised thread-local `Cell`, so
// it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`; the caller's obligations are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
