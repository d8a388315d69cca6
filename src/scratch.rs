//! A free list of per-call scratch sets — what lets every
//! [`Ring`](crate::Ring) method take `&self`, so one ring (one plan,
//! one twiddle set) serves any number of threads.
//!
//! [`ScratchPool`] keeps the buffers in a mutex-guarded free list: each
//! call takes one [`ScratchSet`] (three `n`-residue buffers, what a
//! polynomial product needs), uses it, and puts it back. The lock
//! covers only the pop and the push, never the kernel, so a panic
//! inside a kernel drops the set it held and leaves the list intact.
//!
//! The list holds as many sets as were ever in use at once — the
//! ring's peak concurrency — and allocates nothing once it has warmed
//! up to that level.

use mqx_simd::ResidueSoa;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The buffers one ring call works in.
pub(crate) struct ScratchSet {
    pub(crate) a: ResidueSoa,
    pub(crate) b: ResidueSoa,
    pub(crate) tmp: ResidueSoa,
}

/// A free list of [`ScratchSet`]s for one ring geometry.
pub(crate) struct ScratchPool {
    n: usize,
    free: Mutex<Vec<ScratchSet>>,
}

impl ScratchPool {
    /// An empty pool for `n`-residue buffers; sets are allocated on
    /// first use.
    pub(crate) fn new(n: usize) -> ScratchPool {
        ScratchPool {
            n,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` on a set of its own: a pooled one, or a fresh one when
    /// every pooled set is in use. Contents are unspecified (a pooled
    /// set carries whatever the previous caller left); every user
    /// overwrites before reading.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ScratchSet) -> R) -> R {
        // Its own statement, so the lock is released before a fresh
        // set is allocated and before `f` runs.
        let pooled = self.free().pop();
        // `tmp` is allocated first. Planes allocated back to back tend
        // to sit back to back, so `tmp`, which `vadd` / `vsub` write,
        // lands just below the `a` and `b` planes they read, and each
        // load runs ahead of the stores modulo 4 KiB. Allocated last,
        // `tmp` puts every load on the low 12 address bits of the
        // previous iteration's store, and the load stalls on it ("4K
        // aliasing"): `word_add` served ~10 % fewer requests that way
        // on a 2-vCPU AVX-512 Xeon.
        let mut set = pooled.unwrap_or_else(|| {
            let tmp = ResidueSoa::zeros(self.n);
            ScratchSet {
                a: ResidueSoa::zeros(self.n),
                b: ResidueSoa::zeros(self.n),
                tmp,
            }
        });
        let result = f(&mut set);
        self.free().push(set);
        result
    }

    /// The free list. No code panics while holding the lock (it guards
    /// only a `pop` or a `push`), so a poisoned lock still holds a
    /// valid list.
    fn free(&self) -> MutexGuard<'_, Vec<ScratchSet>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_return_reuses_the_same_allocation() {
        let pool = ScratchPool::new(32);
        assert_eq!(pool.free().len(), 0, "lazy: nothing allocated up front");
        let first = pool.with(|set| set.a.hi().as_ptr());
        assert_eq!(pool.free().len(), 1);
        let second = pool.with(|set| set.a.hi().as_ptr());
        assert_eq!(second, first, "the returned set is the next call's");
        assert_eq!(pool.free().len(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_buffers() {
        let pool = ScratchPool::new(16);
        pool.with(|outer| {
            pool.with(|inner| {
                outer.a.set(0, 7);
                inner.a.set(0, 9);
                assert_eq!(outer.a.get(0), 7);
                assert_eq!(inner.a.get(0), 9);
            });
        });
        assert_eq!(pool.free().len(), 2);
    }

    #[test]
    fn buffers_have_the_pool_geometry() {
        let pool = ScratchPool::new(64);
        pool.with(|set| {
            assert_eq!([set.a.len(), set.b.len(), set.tmp.len()], [64; 3]);
        });
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
                        pool.with(|set| {
                            let v = u128::from(t * 1000 + i);
                            set.a.set(0, v);
                            set.b.set(0, v + 1);
                            set.tmp.set(0, v + 2);
                            std::thread::yield_now();
                            // Exclusive ownership: nobody else wrote ours.
                            assert_eq!(set.a.get(0), v);
                            assert_eq!(set.b.get(0), v + 1);
                            assert_eq!(set.tmp.get(0), v + 2);
                        });
                    }
                });
            }
        });
        assert!(pool.free().len() <= 8, "at most one set per thread");
    }
}
