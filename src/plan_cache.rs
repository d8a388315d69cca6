//! A keyed cache of [`NttPlan`]s, so rings can be opened per-request
//! without re-paying the `O(n)` twiddle-table build.
//!
//! Plans are immutable once built and independent of the executing
//! backend, so one plan can back any number of [`Ring`](crate::Ring)s
//! across threads — the cache hands out [`Arc`] clones keyed by
//! `(modulus, multiplication algorithm, n)`. A server opening a ring
//! per request, or an [`RnsRing`](crate::RnsRing) opening one ring per
//! residue channel, pays the table build exactly once per distinct key.
//!
//! The process-wide [`global`] cache is what [`Ring`](crate::Ring) and
//! [`RnsRing`](crate::RnsRing) use by default; independent
//! [`PlanCache`] instances exist for isolation (tests asserting hit
//! counts, tenants with separate capacity). Long-lived servers that see
//! many distinct geometries can bound a cache with
//! [`PlanCache::with_capacity`]: the least-recently-used plan is
//! evicted on overflow, and because entries are `Arc`s, eviction never
//! invalidates a live ring — it only makes the *next* open of that
//! geometry rebuild.
//!
//! ```
//! use mqx::{core::primes, plan_cache, Ring};
//!
//! let before = plan_cache::global().stats();
//! let _a = Ring::auto(primes::Q124, 256)?;
//! let _b = Ring::auto(primes::Q124, 256)?; // same key: served from cache
//! let after = plan_cache::global().stats();
//! assert!(after.hits > before.hits);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::error::Error;
use mqx_core::{Modulus, MulAlgorithm};
use mqx_ntt::NttPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The cache key: everything [`NttPlan::new`] depends on.
type PlanKey = (u128, MulAlgorithm, usize);

/// Counters describing a cache's traffic, from [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-built plan.
    pub hits: u64,
    /// Lookups that had to build (and insert) a plan.
    pub misses: u64,
    /// Plans evicted by the LRU capacity bound (always 0 for unbounded
    /// caches).
    pub evictions: u64,
    /// Distinct plans currently held.
    pub entries: usize,
}

/// One cached plan plus its recency stamp for LRU eviction.
struct CacheEntry {
    plan: Arc<NttPlan>,
    /// Logical clock value of the most recent lookup that touched this
    /// entry.
    last_used: u64,
}

/// The keyed map plus the logical clock, guarded by one mutex.
#[derive(Default)]
struct Inner {
    plans: HashMap<PlanKey, CacheEntry>,
    tick: u64,
}

/// A keyed `(modulus, algorithm, n) → Arc<NttPlan>` cache with hit,
/// miss and eviction counters, optionally bounded by an LRU capacity.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    /// `None` = unbounded ([`PlanCache::new`]); `Some(k)` = at most `k`
    /// plans, LRU-evicted on overflow.
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache holding at most `capacity` plans: when an
    /// insert would exceed the bound, the least-recently-used plan is
    /// dropped from the cache (outstanding [`Arc`]s — i.e. live rings —
    /// stay valid) and the eviction counter increments.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a cache that can hold nothing would
    /// turn every lookup into a rebuild; use no cache instead).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be at least 1");
        PlanCache {
            capacity: Some(capacity),
            ..PlanCache::default()
        }
    }

    /// The capacity bound, if this cache has one.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Returns the plan for `(modulus, n)`, building and caching it on
    /// first use. The lock is held across a miss's table build, so
    /// concurrent requests for one key build it exactly once.
    ///
    /// # Errors
    ///
    /// [`Error::Ntt`] when no plan exists for the requested size (not
    /// cached: the same request fails identically every time).
    pub fn plan_for(&self, modulus: &Modulus, n: usize) -> Result<Arc<NttPlan>, Error> {
        let key: PlanKey = (modulus.value(), modulus.algorithm(), n);
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.plans.get_mut(&key) {
            entry.last_used = tick;
            // ORDERING: statistics counter; Relaxed because the map
            // itself is protected by the mutex above and nothing is
            // published through the counter.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&entry.plan));
        }
        let plan = Arc::new(NttPlan::new(modulus, n)?);
        inner.plans.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                last_used: tick,
            },
        );
        // ORDERING: statistics counter, as for `hits` above.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(capacity) = self.capacity {
            while inner.plans.len() > capacity {
                // The just-inserted entry carries the newest stamp, so
                // the minimum is always an older entry.
                let oldest = inner
                    .plans
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("non-empty over-capacity map");
                inner.plans.remove(&oldest);
                // ORDERING: statistics counter, as for `hits` above.
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(plan)
    }

    /// Current hit/miss/eviction/entry counters.
    pub fn stats(&self) -> CacheStats {
        // ORDERING: Relaxed counter reads — the snapshot is advisory
        // and intentionally not atomic across the three counters.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache poisoned").plans.len(),
        }
    }

    /// Drops every cached plan (outstanding `Arc`s stay valid). The
    /// counters are not reset, and explicit clears do not count as
    /// evictions.
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("plan cache poisoned")
            .plans
            .clear();
    }
}

/// The process-wide cache every [`Ring`](crate::Ring) and
/// [`RnsRing`](crate::RnsRing) uses unless a builder pins another one.
/// Unbounded: servers that cycle through many geometries should pin a
/// [`PlanCache::with_capacity`] instance via the ring builders.
pub fn global() -> &'static Arc<PlanCache> {
    static GLOBAL: OnceLock<Arc<PlanCache>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(PlanCache::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;
    use mqx_ntt::NttError;

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new();
        let m = Modulus::new_prime(primes::Q124).unwrap();
        let a = cache.plan_for(&m, 64).unwrap();
        let b = cache.plan_for(&m, 64).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one build, shared plan");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn distinct_keys_build_distinct_plans() {
        let cache = PlanCache::new();
        let m = Modulus::new_prime(primes::Q124).unwrap();
        let k = m.with_algorithm(MulAlgorithm::Karatsuba);
        cache.plan_for(&m, 64).unwrap();
        cache.plan_for(&m, 128).unwrap(); // different n
        cache.plan_for(&k, 64).unwrap(); // different algorithm
        cache
            .plan_for(&Modulus::new_prime(primes::Q62).unwrap(), 64)
            .unwrap(); // different modulus
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 4));
    }

    #[test]
    fn failures_are_reported_and_not_cached() {
        let cache = PlanCache::new();
        let m = Modulus::new_prime(primes::Q124).unwrap();
        assert!(matches!(
            cache.plan_for(&m, 12).unwrap_err(),
            Error::Ntt(NttError::SizeNotPowerOfTwo { .. })
        ));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn clear_keeps_counters_and_outstanding_plans() {
        let cache = PlanCache::new();
        let m = Modulus::new_prime(primes::Q124).unwrap();
        let plan = cache.plan_for(&m, 64).unwrap();
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().evictions, 0, "clear is not an eviction");
        assert_eq!(plan.size(), 64, "outstanding Arc still valid");
        // Re-requesting after clear rebuilds.
        cache.plan_for(&m, 64).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn global_cache_is_shared() {
        assert!(Arc::ptr_eq(global(), global()));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_is_rejected() {
        let _ = PlanCache::with_capacity(0);
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = PlanCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let m = Modulus::new_prime(primes::Q124).unwrap();
        cache.plan_for(&m, 64).unwrap(); // A
        cache.plan_for(&m, 128).unwrap(); // B
        cache.plan_for(&m, 64).unwrap(); // touch A: B is now LRU
        cache.plan_for(&m, 256).unwrap(); // C evicts B
        let stats = cache.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 2));
        // A survived (hit), B rebuilds (miss).
        cache.plan_for(&m, 64).unwrap();
        assert_eq!(cache.stats().hits, 2);
        cache.plan_for(&m, 128).unwrap();
        assert_eq!(cache.stats().misses, 4, "B was evicted and rebuilt");
    }

    #[test]
    fn eviction_preserves_arc_sharing_for_live_rings() {
        use crate::Ring;
        let cache = Arc::new(PlanCache::with_capacity(1));
        let build = |n: usize| {
            Ring::builder(primes::Q124, n)
                .backend_name("portable")
                .plan_cache(Arc::clone(&cache))
                .build()
                .unwrap()
        };
        // Two rings on one geometry share the cached plan.
        let r1 = build(64);
        let r2 = build(64);
        assert!(Arc::ptr_eq(&r1.plan_arc(), &r2.plan_arc()));
        // A different geometry evicts it from the cache...
        let r3 = build(128);
        assert_eq!(cache.stats().evictions, 1);
        // ...but the live rings keep sharing the evicted plan and stay
        // fully usable.
        assert!(Arc::ptr_eq(&r1.plan_arc(), &r2.plan_arc()));
        let xs: Vec<u128> = (0..64).collect();
        assert_eq!(
            r1.polymul_cyclic(&xs, &xs).unwrap(),
            r2.polymul_cyclic(&xs, &xs).unwrap()
        );
        // A re-open of the evicted geometry rebuilds a fresh plan.
        let r4 = build(64);
        assert!(!Arc::ptr_eq(&r1.plan_arc(), &r4.plan_arc()));
        assert_eq!(r3.size(), 128);
    }
}
