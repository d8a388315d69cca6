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
//! [`PlanCache`] instances exist for isolation (tests and benchmarks
//! asserting hit counts). A cache is unbounded: it holds one plan per
//! distinct geometry it has been asked for.
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The cache key: everything [`NttPlan::new`] depends on.
type PlanKey = (u128, MulAlgorithm, usize);

/// Counters describing a cache's traffic, from [`PlanCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from an already-built plan.
    pub hits: u64,
    /// Lookups that had to build (and insert) a plan.
    pub misses: u64,
    /// Distinct plans currently held.
    pub entries: usize,
}

/// A keyed `(modulus, algorithm, n) → Arc<NttPlan>` cache with hit and
/// miss counters.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

/// The plans and their traffic counters, under one lock.
#[derive(Default)]
struct Inner {
    plans: HashMap<PlanKey, Arc<NttPlan>>,
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
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
        let mut inner = self.lock();
        if let Some(plan) = inner.plans.get(&key).cloned() {
            inner.hits += 1;
            return Ok(plan);
        }
        let plan = Arc::new(NttPlan::new(modulus, n)?);
        inner.plans.insert(key, Arc::clone(&plan));
        inner.misses += 1;
        Ok(plan)
    }

    /// Current hit/miss/entry counters, read together.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.plans.len(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache poisoned")
    }
}

/// The process-wide cache every [`Ring`](crate::Ring) and
/// [`RnsRing`](crate::RnsRing) uses unless a builder pins another one.
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
    fn global_cache_is_shared() {
        assert!(Arc::ptr_eq(global(), global()));
    }
}
