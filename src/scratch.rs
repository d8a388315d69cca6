//! A lock-free pool of per-call scratch buffers — the substrate behind
//! the shared-`&self` ring API.
//!
//! [`Ring`](crate::Ring) used to own its scratch buffers directly, which
//! forced every hot-path method onto `&mut self` and made a ring
//! impossible to share across worker threads without cloning plans and
//! twiddle tables. [`ScratchPool`] moves those buffers behind a fixed
//! array of atomic slots: callers *check out* one `n`-residue buffer at
//! a time (a transform needs one, a polynomial product three), use it,
//! and the guard returns it on drop. Checkout and return probe slots
//! with plain loads and touch only a promising slot with one atomic
//! pointer swap/CAS — no mutex, no ABA hazard (whole boxes are
//! exchanged, never linked), and no allocation once the pool has
//! warmed up to the caller's concurrency level.
//!
//! With `W` concurrent polymul callers the pool converges on
//! `min(3·W, capacity)` live buffers; beyond that, overflow buffers are
//! simply freed on return, so a burst never permanently grows the pool.
//! The capacity is sized at construction: three buffers per hardware
//! thread ([`std::thread::available_parallelism`]), clamped so small
//! containers still absorb oversubscribed pools and huge hosts don't
//! pin unbounded memory.

use mqx_simd::ResidueSoa;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Smallest slot count a default-sized pool gets: three buffers for
/// each of ~10 workers even on a single-core container, where thread
/// pools routinely oversubscribe the one hardware thread.
const MIN_DEFAULT_SLOTS: usize = 32;

/// Hard ceiling on slots for any pool: bounds the full-pool probe cost
/// and the parked-buffer memory on very wide hosts (256 workers × 3
/// buffers each).
const MAX_SLOTS: usize = 768;

/// Buffers a polymul holds at once — the sizing unit for capacity.
const BUFFERS_PER_CALLER: usize = 3;

/// Default slot count: three buffers per hardware thread, clamped to
/// `[MIN_DEFAULT_SLOTS, MAX_SLOTS]`.
fn default_slots() -> usize {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    (threads.saturating_mul(BUFFERS_PER_CALLER)).clamp(MIN_DEFAULT_SLOTS, MAX_SLOTS)
}

/// A lock-free checkout/return pool of `n`-residue scratch buffers for
/// one ring geometry.
#[derive(Debug)]
pub(crate) struct ScratchPool {
    n: usize,
    slots: Box<[AtomicPtr<ResidueSoa>]>,
}

impl ScratchPool {
    /// An empty pool for `n`-residue buffers, sized for this machine's
    /// hardware parallelism; buffers are allocated lazily on first
    /// checkout.
    pub fn new(n: usize) -> ScratchPool {
        ScratchPool {
            n,
            slots: (0..default_slots())
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
        }
    }

    /// Number of buffers the pool can park (its slot count).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Checks a buffer out of the pool, allocating a fresh one if every
    /// slot is empty or contended away. Contents are unspecified
    /// (pooled buffers carry whatever the previous caller left); every
    /// user overwrites before reading.
    pub fn checkout(&self) -> ScratchGuard<'_> {
        for slot in self.slots.iter() {
            // Read-mostly probe: only attempt the RMW on slots that
            // look occupied, so a miss scans with plain loads instead
            // of dirtying every slot's cache line with a swap (pools
            // can be hundreds of slots wide). A stale null read just
            // falls through to allocation — benign.
            // ORDERING: the Relaxed probe is advisory (stale reads only
            // mis-skip a slot); the Acquire swap below pairs with
            // `give_back`'s Release CAS so every write to the buffer
            // made before publication is visible to the new owner.
            if slot.load(Ordering::Relaxed).is_null() {
                continue;
            }
            let p = slot.swap(ptr::null_mut(), Ordering::Acquire);
            if !p.is_null() {
                return ScratchGuard {
                    pool: self,
                    // SAFETY: a non-null slot pointer was produced by
                    // `Box::into_raw` in `give_back` and ownership was
                    // transferred to the slot; the swap above took it
                    // back exclusively.
                    buf: Some(unsafe { Box::from_raw(p) }),
                };
            }
        }
        ScratchGuard {
            pool: self,
            buf: Some(Box::new(ResidueSoa::zeros(self.n))),
        }
    }

    /// Returns a buffer to the first empty slot, or frees it when the
    /// pool is full.
    fn give_back(&self, buf: Box<ResidueSoa>) {
        let p = Box::into_raw(buf);
        for slot in self.slots.iter() {
            // Same read-mostly probe as checkout: CAS only slots that
            // look empty, so returning into a full pool scans with
            // loads rather than failed RMWs.
            // ORDERING: Relaxed probe is advisory; the Release CAS
            // publishes the buffer (pairs with checkout's Acquire
            // swap), and its Relaxed failure ordering is fine — a lost
            // race reads nothing through the pointer.
            if !slot.load(Ordering::Relaxed).is_null() {
                continue;
            }
            if slot
                .compare_exchange(ptr::null_mut(), p, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
        // Pool full: drop the overflow buffer.
        // SAFETY: `p` came from `Box::into_raw` above and was not
        // installed in any slot, so ownership is still ours.
        drop(unsafe { Box::from_raw(p) });
    }

    /// Number of buffers currently parked in the pool (racy snapshot;
    /// for tests and diagnostics).
    #[cfg(test)]
    pub fn pooled(&self) -> usize {
        // ORDERING: racy diagnostic snapshot; Relaxed loads because no
        // decision here requires synchronizing with buffer contents.
        self.slots
            .iter()
            .filter(|s| !s.load(Ordering::Relaxed).is_null())
            .count()
    }
}

impl Drop for ScratchPool {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: `&mut self` guarantees no concurrent checkout;
                // the pointer owns its box (see `give_back`).
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

/// An exclusively-owned scratch buffer, returned to its pool on drop.
pub(crate) struct ScratchGuard<'p> {
    pool: &'p ScratchPool,
    buf: Option<Box<ResidueSoa>>,
}

impl Deref for ScratchGuard<'_> {
    type Target = ResidueSoa;

    fn deref(&self) -> &ResidueSoa {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut ResidueSoa {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_reuses_the_same_allocation() {
        let pool = ScratchPool::new(32);
        assert_eq!(pool.pooled(), 0, "lazy: nothing allocated up front");
        let first_ptr = {
            let guard = pool.checkout();
            &*guard as *const ResidueSoa
        };
        assert_eq!(pool.pooled(), 1);
        let guard = pool.checkout();
        assert_eq!(&*guard as *const ResidueSoa, first_ptr, "buffer was pooled");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new(16);
        let mut g1 = pool.checkout();
        let mut g2 = pool.checkout();
        let mut g3 = pool.checkout();
        g1.set(0, 7);
        g2.set(0, 9);
        g3.set(0, 11);
        assert_eq!(g1.get(0), 7);
        assert_eq!(g2.get(0), 9);
        assert_eq!(g3.get(0), 11);
        drop(g1);
        drop(g2);
        drop(g3);
        assert_eq!(pool.pooled(), 3);
    }

    #[test]
    fn overflow_beyond_capacity_is_freed_not_leaked() {
        let pool = ScratchPool::new(8);
        let capacity = pool.capacity();
        let guards: Vec<_> = (0..capacity + 4).map(|_| pool.checkout()).collect();
        drop(guards);
        // Only `capacity` buffers fit; the rest were freed on return.
        assert_eq!(pool.pooled(), capacity);
    }

    #[test]
    fn default_capacity_tracks_hardware_parallelism() {
        let pool = ScratchPool::new(8);
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let expected = (threads * BUFFERS_PER_CALLER).clamp(MIN_DEFAULT_SLOTS, MAX_SLOTS);
        assert_eq!(pool.capacity(), expected);
    }

    #[test]
    fn buffers_have_the_pool_geometry() {
        let pool = ScratchPool::new(64);
        let guard = pool.checkout();
        assert_eq!(guard.len(), 64);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScratchPool>();
    }

    #[test]
    fn hammered_from_threads_stays_consistent() {
        let pool = ScratchPool::new(16);
        std::thread::scope(|scope| {
            for t in 0..8_u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..200 {
                        // The polymul shape: three buffers held at once.
                        let mut a = pool.checkout();
                        let mut b = pool.checkout();
                        let mut tmp = pool.checkout();
                        let v = u128::from(t * 1000 + i);
                        a.set(0, v);
                        b.set(0, v + 1);
                        tmp.set(0, v + 2);
                        // Exclusive ownership: nobody else wrote ours.
                        assert_eq!(a.get(0), v);
                        assert_eq!(b.get(0), v + 1);
                        assert_eq!(tmp.get(0), v + 2);
                    }
                });
            }
        });
        assert!(pool.pooled() <= 24, "at most three buffers per worker");
    }

    #[test]
    fn high_worker_hammer_converges_without_steady_state_churn() {
        // As many polymul callers (three buffers each) as the default
        // sizing provisions for: the pool must absorb their whole
        // working set.
        let pool = ScratchPool::new(16);
        let workers = pool.capacity() / BUFFERS_PER_CALLER;
        std::thread::scope(|scope| {
            for t in 0..workers as u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..50 {
                        let mut a = pool.checkout();
                        let mut b = pool.checkout();
                        let mut tmp = pool.checkout();
                        let v = u128::from(t * 1000 + i);
                        a.set(0, v);
                        b.set(0, v + 1);
                        tmp.set(0, v + 2);
                        assert_eq!(a.get(0), v);
                        assert_eq!(b.get(0), v + 1);
                        assert_eq!(tmp.get(0), v + 2);
                    }
                });
            }
        });
        // Warm pool: at most the working set is parked, and a full-width
        // burst round-trips with zero overflow frees afterwards.
        assert!(pool.pooled() <= workers * BUFFERS_PER_CALLER);
        let guards: Vec<_> = (0..workers * BUFFERS_PER_CALLER)
            .map(|_| pool.checkout())
            .collect();
        drop(guards);
        assert_eq!(
            pool.pooled(),
            workers * BUFFERS_PER_CALLER,
            "the pool parks the whole 3·W working set"
        );
    }
}
