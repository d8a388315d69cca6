//! The [`Ring`] front door: a prime field, an NTT plan, a
//! runtime-selected [`Backend`], and a pooled scratch substrate — the
//! one entry point the tests, examples and benchmarks go through.
//!
//! Every hot-path method takes `&self`: per-call scratch comes from an
//! internal lock-free `ScratchPool`, so one ring is an
//! immutable, shareable handle — wrap it in an [`Arc`] and hammer it
//! from as many threads as you like (see `tests/shared_ring.rs`), or
//! drive it through [`RingExecutor`](crate::RingExecutor) for batched
//! serving.
//!
//! ```
//! use mqx::{core::primes, Ring};
//!
//! // Pick the fastest tier this machine can actually execute.
//! let ring = Ring::auto(primes::Q124, 256)?;
//!
//! // Negacyclic polynomial product (the RLWE workhorse), entirely in
//! // the selected vector tier.
//! let f: Vec<u128> = (0..256_u64).map(|i| u128::from(i % 17)).collect();
//! let g: Vec<u128> = (0..256_u64).map(|i| u128::from(i % 23)).collect();
//! let product = ring.polymul_negacyclic(&f, &g)?;
//! assert_eq!(product.len(), 256);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::backend::{self, Backend};
use crate::error::Error;
use crate::plan_cache::{self, PlanCache};
use crate::scratch::ScratchPool;
use mqx_core::Modulus;
use mqx_ntt::NttPlan;
use mqx_simd::ResidueSoa;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// How a [`RingBuilder`] or an [`RnsRingBuilder`](crate::RnsRingBuilder)
/// picks its backend.
pub(crate) enum BackendChoice {
    /// The process's auto selection: the `MQX_BACKEND` pin when set,
    /// otherwise the measured-calibration winner. See
    /// [`backend::selected_backend`].
    Auto,
    /// Look the name up in the registry at build time.
    Named(String),
    /// Use this exact instance.
    Instance(Arc<dyn Backend>),
}

impl BackendChoice {
    /// Resolves the choice to one backend instance.
    pub(crate) fn resolve(self) -> Result<Arc<dyn Backend>, Error> {
        match self {
            BackendChoice::Auto => backend::selected_backend(),
            BackendChoice::Instance(b) => Ok(b),
            BackendChoice::Named(name) => {
                backend::by_name(&name).ok_or_else(|| Error::UnknownBackend {
                    name,
                    available: backend::names(),
                })
            }
        }
    }
}

/// Configures and builds a [`Ring`].
///
/// ```
/// use mqx::{core::primes, RingBuilder};
///
/// let ring = RingBuilder::new(primes::Q124, 64)
///     .backend_name("portable")
///     .build()?;
/// assert_eq!(ring.backend().name(), "portable");
/// # Ok::<(), mqx::Error>(())
/// ```
pub struct RingBuilder {
    modulus: u128,
    n: usize,
    choice: BackendChoice,
    cache: Arc<PlanCache>,
    scratch_workers: Option<usize>,
    lazy: bool,
}

impl RingBuilder {
    /// Starts a builder for an `n`-point ring over the prime `modulus`.
    pub fn new(modulus: u128, n: usize) -> Self {
        RingBuilder {
            modulus,
            n,
            choice: BackendChoice::Auto,
            cache: Arc::clone(plan_cache::global()),
            scratch_workers: None,
            lazy: true,
        }
    }

    /// Pins an exact backend instance (e.g. one from
    /// [`backend::available`]).
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.choice = BackendChoice::Instance(backend);
        self
    }

    /// Pins a backend by registry name; [`RingBuilder::build`] fails
    /// with [`Error::UnknownBackend`] if this host does not offer it.
    pub fn backend_name(mut self, name: &str) -> Self {
        self.choice = BackendChoice::Named(name.to_string());
        self
    }

    /// Serves the NTT plan from `cache` instead of the process-wide
    /// [`plan_cache::global`] — for tenants with isolated capacity or
    /// tests asserting hit counts.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sizes the ring's internal scratch pool for `workers` concurrent
    /// polymul callers (three pooled buffers each). Without a hint the
    /// pool is sized from [`std::thread::available_parallelism`], which
    /// under-provisions when an executor runs more workers than the
    /// machine has hardware threads — past the pool's capacity, extra
    /// in-flight calls degrade to steady-state malloc/free churn.
    pub fn scratch_concurrency(mut self, workers: usize) -> Self {
        self.scratch_workers = Some(workers);
        self
    }

    /// Routes polynomial products through the lazy-reduction fused
    /// pipeline (`true`, the default) or the canonical
    /// per-stage-reduced kernels (`false`). The two paths are
    /// bit-identical; the canonical one is the oracle the tests and the
    /// benchmark's reference ring compare the default against.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Builds the ring: validates the modulus, constructs the NTT plan,
    /// resolves the backend, and sets up the lock-free scratch pool
    /// (buffers themselves are allocated lazily on first use).
    pub fn build(self) -> Result<Ring, Error> {
        let backend = self.choice.resolve()?;
        let modulus = Modulus::new_prime(self.modulus)?;
        let plan = self.cache.plan_for(&modulus, self.n)?;
        let n = plan.size();
        let scratch = match self.scratch_workers {
            Some(workers) => ScratchPool::with_concurrency(n, workers),
            None => ScratchPool::new(n),
        };
        Ok(Ring {
            modulus,
            plan,
            backend,
            scratch,
            lazy: self.lazy,
        })
    }
}

/// A polynomial ring `ℤ_q[x]/(xⁿ ± 1)` bound to one runtime-dispatched
/// engine tier.
///
/// The ring holds a shared handle to its [`NttPlan`] (served by the
/// [`plan_cache`](crate::plan_cache), so per-request ring opens skip
/// the `O(n)` table build) plus a lock-free pool of `n`-residue
/// scratch sets, so repeated transforms and polynomial products
/// allocate nothing once the pool has warmed up (beyond the caller's
/// own output, for the slice-based conveniences).
///
/// Every method takes `&self` and the type is `Send + Sync`: an
/// `Arc<Ring>` can be shared across any number of worker threads, each
/// call checking its scratch out of the pool independently. Results are
/// bit-identical regardless of concurrency (each call owns its working
/// set exclusively).
pub struct Ring {
    modulus: Modulus,
    plan: Arc<NttPlan>,
    backend: Arc<dyn Backend>,
    scratch: ScratchPool,
    /// Route polynomial products through the lazy-reduction fused
    /// pipeline ([`Backend::polymul_cyclic_fused`]). Bit-identical to
    /// the canonical path; see [`RingBuilder::lazy`].
    lazy: bool,
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ring")
            .field("modulus", &self.modulus.value())
            .field("n", &self.plan.size())
            .field("backend", &self.backend.name())
            .finish()
    }
}

impl Ring {
    /// Builds an `n`-point ring over the prime `modulus` on the fastest
    /// vector tier **as measured on this machine**: the first auto
    /// build triggers a one-shot micro-calibration that times a short
    /// NTT + `vmul` burst on every registry backend and ranks tiers
    /// by observed ns/butterfly (memoized process-wide; see
    /// [`backend::calibration`]). `MQX_BACKEND=<name>` overrides it
    /// with a registry backend (unknown names fail with
    /// [`Error::UnknownBackend`]).
    pub fn auto(modulus: u128, n: usize) -> Result<Ring, Error> {
        RingBuilder::new(modulus, n).build()
    }

    /// Builds a ring pinned to an exact backend instance.
    pub fn with_backend(modulus: u128, n: usize, backend: Arc<dyn Backend>) -> Result<Ring, Error> {
        RingBuilder::new(modulus, n).backend(backend).build()
    }

    /// Builds a ring pinned to a backend by registry name.
    pub fn with_backend_name(modulus: u128, n: usize, name: &str) -> Result<Ring, Error> {
        RingBuilder::new(modulus, n).backend_name(name).build()
    }

    /// Starts a [`RingBuilder`] for finer control.
    pub fn builder(modulus: u128, n: usize) -> RingBuilder {
        RingBuilder::new(modulus, n)
    }

    /// The backend executing this ring's kernels. Safe to call from any
    /// thread: the backend is immutable and shared.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// A shareable handle to the backend.
    pub fn backend_arc(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// The ring's modulus (with Barrett constants).
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The underlying NTT plan. Plans are immutable once built, so this
    /// reference is safe to read concurrently with any ring operation.
    pub fn plan(&self) -> &NttPlan {
        &self.plan
    }

    /// A shareable handle to the (cached) NTT plan.
    pub fn plan_arc(&self) -> Arc<NttPlan> {
        Arc::clone(&self.plan)
    }

    /// The transform size `n`.
    pub fn size(&self) -> usize {
        self.plan.size()
    }

    /// Whether negacyclic (`xⁿ + 1`) operations are available.
    pub fn supports_negacyclic(&self) -> bool {
        self.plan.psi_soa().is_some()
    }

    /// Whether this ring routes polynomial products through the
    /// lazy-reduction fused pipeline (the default; see
    /// [`RingBuilder::lazy`]).
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    fn check_len(&self, got: usize) -> Result<(), Error> {
        if got == self.plan.size() {
            Ok(())
        } else {
            Err(Error::LengthMismatch {
                expected: self.plan.size(),
                got,
            })
        }
    }

    // ---- transforms ----------------------------------------------------

    /// Forward NTT in place (natural order in and out). Scratch comes
    /// from the ring's lock-free pool, so concurrent calls on a shared
    /// ring never contend on a buffer; no allocation once the pool has
    /// warmed up.
    pub fn forward(&self, x: &mut ResidueSoa) -> Result<(), Error> {
        self.check_len(x.len())?;
        let mut tmp = self.scratch.checkout();
        self.backend.forward_ntt(&self.plan, x, &mut tmp);
        Ok(())
    }

    /// Inverse NTT in place, including the `n⁻¹` scale. Thread-safe like
    /// [`Ring::forward`].
    pub fn inverse(&self, x: &mut ResidueSoa) -> Result<(), Error> {
        self.check_len(x.len())?;
        let mut tmp = self.scratch.checkout();
        self.backend.inverse_ntt(&self.plan, x, &mut tmp);
        Ok(())
    }

    // ---- element-wise kernels ------------------------------------------

    /// `out[i] = x[i] + y[i] mod q`. Inputs may be any (equal) length.
    pub fn vadd(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa) {
        self.backend.vadd(x, y, out, &self.modulus);
    }

    /// `out[i] = x[i] − y[i] mod q`.
    pub fn vsub(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa) {
        self.backend.vsub(x, y, out, &self.modulus);
    }

    /// `out[i] = x[i] · y[i] mod q`.
    pub fn vmul(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa) {
        self.backend.vmul(x, y, out, &self.modulus);
    }

    /// `y[i] ← a·x[i] + y[i] mod q`.
    pub fn axpy(&self, a: u128, x: &ResidueSoa, y: &mut ResidueSoa) {
        self.backend.axpy(a, x, y, &self.modulus);
    }

    // ---- polynomial products -------------------------------------------

    /// Cyclic product in `ℤ_q[x]/(xⁿ − 1)`, entirely in the selected
    /// tier. Operates on pooled scratch buffers checked out for this
    /// call, so concurrent products on a shared ring never interfere:
    /// the only allocation is the returned vector (plus a one-time
    /// buffer build while the pool warms up).
    pub fn polymul_cyclic(&self, a: &[u128], b: &[u128]) -> Result<Vec<u128>, Error> {
        let mut out = Vec::new();
        self.polymul_cyclic_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`Ring::polymul_cyclic`] writing into a caller-owned vector: the
    /// steady-state allocation-free slice form (`out` is resized once
    /// and reused across calls; all working buffers come from the pool).
    pub fn polymul_cyclic_into(
        &self,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        let mut sa = self.scratch.checkout();
        let mut sb = self.scratch.checkout();
        let mut tmp = self.scratch.checkout();
        sa.copy_from_u128s(a);
        sb.copy_from_u128s(b);
        if self.lazy {
            self.backend
                .polymul_cyclic_fused(&self.plan, &mut sa, &mut sb, &mut tmp);
        } else {
            self.backend
                .polymul_cyclic(&self.plan, &mut sa, &mut sb, &mut tmp);
        }
        out.clear();
        out.resize(self.plan.size(), 0);
        sa.write_u128s(out);
        Ok(())
    }

    /// Cyclic product over SoA buffers with the result left in `a` — the
    /// allocation-free form (only transform scratch is pooled).
    pub fn polymul_cyclic_soa(&self, a: &mut ResidueSoa, b: &mut ResidueSoa) -> Result<(), Error> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        let mut tmp = self.scratch.checkout();
        if self.lazy {
            self.backend
                .polymul_cyclic_fused(&self.plan, a, b, &mut tmp);
        } else {
            self.backend.polymul_cyclic(&self.plan, a, b, &mut tmp);
        }
        Ok(())
    }

    /// Negacyclic product in `ℤ_q[x]/(xⁿ + 1)` — the RLWE workhorse —
    /// via the ψ-twisted cyclic transform, with the twist itself running
    /// through the backend's vector multiply. Thread-safe like every
    /// ring operation: scratch is per-call, from the pool.
    ///
    /// # Errors
    ///
    /// [`Error::NoNegacyclicSupport`] if the field has no `2n`-th root
    /// of unity (check [`Ring::supports_negacyclic`]).
    pub fn polymul_negacyclic(&self, a: &[u128], b: &[u128]) -> Result<Vec<u128>, Error> {
        let mut out = Vec::new();
        self.polymul_negacyclic_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`Ring::polymul_negacyclic`] writing into a caller-owned vector:
    /// the steady-state allocation-free slice form.
    ///
    /// # Errors
    ///
    /// [`Error::NoNegacyclicSupport`] if the field has no `2n`-th root
    /// of unity.
    pub fn polymul_negacyclic_into(
        &self,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        if !self.supports_negacyclic() {
            return Err(Error::NoNegacyclicSupport {
                n: self.plan.size(),
            });
        }

        let mut sa = self.scratch.checkout();
        let mut sb = self.scratch.checkout();
        let mut tmp = self.scratch.checkout();
        sa.copy_from_u128s(a);
        sb.copy_from_u128s(b);

        if self.lazy {
            // Whole-pipeline fused form: twist, transforms, pointwise
            // and merged untwist·n⁻¹ all stay in the lazy domains.
            self.backend
                .polymul_negacyclic_fused(&self.plan, &mut sa, &mut sb, &mut tmp)
                .map_err(|_| Error::NoNegacyclicSupport {
                    n: self.plan.size(),
                })?;
        } else {
            let (psi, psi_inv) = self
                .plan
                .psi_soa()
                .zip(self.plan.psi_inv_soa())
                .expect("supports_negacyclic checked above");

            // Twist: buf ← input ⊙ ψ.
            self.backend.vmul(&sa, psi, &mut tmp, &self.modulus);
            std::mem::swap(&mut *sa, &mut *tmp);
            self.backend.vmul(&sb, psi, &mut tmp, &self.modulus);
            std::mem::swap(&mut *sb, &mut *tmp);

            // Cyclic product of the twisted operands (includes the n⁻¹).
            self.backend
                .polymul_cyclic(&self.plan, &mut sa, &mut sb, &mut tmp);

            // Untwist: result ⊙ ψ^{−i}, landing back in `sa`.
            self.backend.vmul(&sa, psi_inv, &mut tmp, &self.modulus);
            std::mem::swap(&mut *sa, &mut *tmp);
        }

        out.clear();
        out.resize(self.plan.size(), 0);
        sa.write_u128s(out);
        Ok(())
    }

    /// `out[i] = a[i] ± b[i] mod q` over scalar residue slices:
    /// [`Ring::vadd`] / [`Ring::vsub`] on pooled SoA scratch, written
    /// into a caller-owned vector — like the `polymul_*_into` forms,
    /// allocation-free once `out` and the pool are warm. The operands
    /// must be `n` long, because the pooled buffers they are staged in
    /// keep the ring's geometry.
    pub(crate) fn add_sub_into(
        &self,
        subtract: bool,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        if a.len() != b.len() {
            return Err(Error::OperandLengthMismatch {
                a: a.len(),
                b: b.len(),
            });
        }
        self.check_len(a.len())?;
        let mut sa = self.scratch.checkout();
        let mut sb = self.scratch.checkout();
        let mut sum = self.scratch.checkout();
        sa.copy_from_u128s(a);
        sb.copy_from_u128s(b);
        if subtract {
            self.vsub(&sa, &sb, &mut sum);
        } else {
            self.vadd(&sa, &sb, &mut sum);
        }
        out.clear();
        out.resize(a.len(), 0);
        sum.write_u128s(out);
        Ok(())
    }
}

/// A [`Ring`] is the one-channel case of the generic polynomial-ring
/// interface: `split_cow` validates the word-sized residues and takes
/// them as channel 0 (copying only a borrowed operand), `join_at` wraps
/// channel 0's result back up.
impl crate::PolyRing for Ring {
    fn size(&self) -> usize {
        self.plan.size()
    }

    fn modulus_bits(&self) -> u64 {
        u64::from(self.modulus.bits())
    }

    fn supports_negacyclic(&self) -> bool {
        Ring::supports_negacyclic(self)
    }

    fn channels(&self) -> usize {
        1
    }

    fn split_cow(&self, coeffs: Cow<'_, crate::Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
        let words = coeffs.as_words().ok_or(Error::CoefficientKind {
            expected: "word",
            got: coeffs.kind(),
        })?;
        self.check_len(words.len())?;
        let q = self.modulus.value();
        if let Some(index) = words.iter().position(|&w| w >= q) {
            return Err(Error::CoefficientOutOfRange { index });
        }
        let words = match coeffs {
            Cow::Owned(crate::Coefficients::Word(owned)) => owned,
            _ => words.to_vec(),
        };
        Ok(vec![words])
    }

    fn channel_apply_at_into(
        &self,
        op: &crate::RingOp,
        width: usize,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        use crate::{PolyOp, RingOp};
        if width != 1 || !op.is_binary() {
            return Err(Error::UnsupportedOp {
                op: op.name(),
                reason: "a single-modulus ring has no RNS channel structure to drop or extend",
            });
        }
        if channel != 0 {
            return Err(Error::ChannelOutOfRange {
                channel,
                channels: 1,
            });
        }
        let b = b.ok_or(Error::OperandCountMismatch {
            op: op.name(),
            expected: 2,
            got: 1,
        })?;
        let (ra, rb) = a
            .first()
            .zip(b.first())
            .ok_or(Error::ChannelCountMismatch {
                expected: 1,
                got: 0,
            })?;
        match op {
            RingOp::Polymul(PolyOp::Cyclic) => self.polymul_cyclic_into(ra, rb, out),
            RingOp::Polymul(PolyOp::Negacyclic) => self.polymul_negacyclic_into(ra, rb, out),
            _ => self.add_sub_into(matches!(op, RingOp::Sub), ra, rb, out),
        }
    }

    fn join_at(
        &self,
        width: usize,
        mut channels: Vec<Vec<u128>>,
    ) -> Result<crate::Coefficients, Error> {
        if width != 1 {
            return Err(Error::UnsupportedOp {
                op: "join",
                reason: "a single-modulus ring recombines exactly one channel",
            });
        }
        if channels.len() != 1 {
            return Err(Error::ChannelCountMismatch {
                expected: 1,
                got: channels.len(),
            });
        }
        Ok(crate::Coefficients::Word(channels.swap_remove(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;
    use mqx_ntt::polymul;

    const N: usize = 64;

    fn poly(n: usize, q: u128, seed: u64) -> Vec<u128> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                u128::from(state) % q
            })
            .collect()
    }

    #[test]
    fn auto_ring_builds_and_transforms() {
        let ring = Ring::auto(primes::Q124, N).unwrap();
        let xs = poly(N, primes::Q124, 0xA11CE);
        let mut soa = ResidueSoa::from_u128s(&xs);
        ring.forward(&mut soa).unwrap();
        ring.inverse(&mut soa).unwrap();
        assert_eq!(soa.to_u128s(), xs, "roundtrip on {}", ring.backend().name());
    }

    #[test]
    fn forced_portable_ring_matches_scalar_plan() {
        let ring = Ring::with_backend_name(primes::Q124, N, "portable").unwrap();
        assert_eq!(ring.backend().name(), "portable");
        let xs = poly(N, primes::Q124, 0xBEE);
        let mut expected = xs.clone();
        ring.plan().forward_scalar(&mut expected);
        let mut soa = ResidueSoa::from_u128s(&xs);
        ring.forward(&mut soa).unwrap();
        assert_eq!(soa.to_u128s(), expected);
    }

    #[test]
    fn unknown_backend_is_a_clean_error() {
        let err = Ring::with_backend_name(primes::Q124, N, "tpu").unwrap_err();
        match err {
            Error::UnknownBackend { name, available } => {
                assert_eq!(name, "tpu");
                assert!(available.contains(&"portable"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn invalid_modulus_and_size_propagate() {
        assert!(matches!(Ring::auto(4, N).unwrap_err(), Error::Modulus(_)));
        assert!(matches!(
            Ring::auto(primes::Q124, 12).unwrap_err(),
            Error::Ntt(_)
        ));
    }

    #[test]
    fn length_mismatch_rejected_before_kernels_panic() {
        let ring = Ring::auto(primes::Q124, N).unwrap();
        let mut short = ResidueSoa::zeros(N - 1);
        assert!(matches!(
            ring.forward(&mut short).unwrap_err(),
            Error::LengthMismatch { expected, got } if expected == N && got == N - 1
        ));
        let a = vec![0_u128; N];
        let b = vec![0_u128; N + 1];
        assert!(ring.polymul_cyclic(&a, &b).is_err());
    }

    #[test]
    fn polymul_matches_schoolbook_on_every_backend() {
        let a = poly(N, primes::Q124, 1);
        let b = poly(N, primes::Q124, 2);
        let m = Modulus::new_prime(primes::Q124).unwrap();
        let cyclic = polymul::schoolbook_cyclic(&a, &b, &m);
        let negacyclic = polymul::schoolbook_negacyclic(&a, &b, &m);
        for backend in crate::backend::available() {
            let name = backend.name();
            let ring = Ring::with_backend(primes::Q124, N, backend).unwrap();
            assert_eq!(ring.polymul_cyclic(&a, &b).unwrap(), cyclic, "{name}");
            assert_eq!(
                ring.polymul_negacyclic(&a, &b).unwrap(),
                negacyclic,
                "{name}"
            );
        }
    }

    #[test]
    fn negacyclic_unsupported_is_reported() {
        // Q14 has 2-adicity 10: n = 1024 cyclic works, negacyclic cannot.
        let ring = Ring::auto(primes::Q14, 1024).unwrap();
        assert!(!ring.supports_negacyclic());
        let a = vec![1_u128; 1024];
        assert!(matches!(
            ring.polymul_negacyclic(&a, &a).unwrap_err(),
            Error::NoNegacyclicSupport { n: 1024 }
        ));
    }

    #[test]
    fn elementwise_ops_match_modulus_arithmetic() {
        let ring = Ring::auto(primes::Q124, N).unwrap();
        let m = *ring.modulus();
        let a = poly(17, m.value(), 7); // deliberately not lane-aligned
        let b = poly(17, m.value(), 8);
        let sa = ResidueSoa::from_u128s(&a);
        let sb = ResidueSoa::from_u128s(&b);
        let mut out = ResidueSoa::zeros(17);
        ring.vadd(&sa, &sb, &mut out);
        for i in 0..17 {
            assert_eq!(out.get(i), m.add_mod(a[i], b[i]), "vadd {i}");
        }
        ring.vmul(&sa, &sb, &mut out);
        for i in 0..17 {
            assert_eq!(out.get(i), m.mul_mod(a[i], b[i]), "vmul {i}");
        }
        let mut y = sb.clone();
        ring.axpy(a[0], &sa, &mut y);
        for i in 0..17 {
            assert_eq!(y.get(i), m.add_mod(m.mul_mod(a[0], a[i]), b[i]), "axpy {i}");
        }
    }
}
