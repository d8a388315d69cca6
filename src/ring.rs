//! The [`Ring`] front door: a prime field, an NTT plan, a
//! runtime-selected [`Backend`], and a pooled scratch substrate — the
//! one entry point the tests, examples and benchmarks go through.
//!
//! Every hot-path method takes `&self`: each call takes its scratch
//! from an internal mutex-guarded free list, so one ring is an
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
use crate::scratch::{ScratchPool, ScratchSet};
use crate::PolyOp;
use mqx_core::Modulus;
use mqx_ntt::{polymul, NttPlan};
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

/// Configures and builds a [`Ring`] ([`Ring::builder`]).
///
/// ```
/// use mqx::{core::primes, Ring};
///
/// let ring = Ring::builder(primes::Q124, 64)
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
    lazy: bool,
}

impl RingBuilder {
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
    /// [`plan_cache::global`] — for tests and benchmarks asserting hit
    /// counts.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Routes polynomial products through the backend's lazy-reduction
    /// fused pipeline (`true`, the default, and the only serving path)
    /// or, with `false`, through the scalar reference products
    /// [`mqx_ntt::polymul::polymul_cyclic`] /
    /// [`mqx_ntt::polymul::polymul_negacyclic`] (Cooley–Tukey with
    /// canonical Barrett arithmetic), which share no kernel with any
    /// backend — for oracles, not serving. The two are bit-identical.
    /// A `lazy(false)` ring still runs its transforms and element-wise
    /// ops on its backend.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Builds the ring: validates the modulus, constructs the NTT plan,
    /// resolves the backend, and sets up an empty scratch free list
    /// (scratch sets are allocated lazily on first use).
    pub fn build(self) -> Result<Ring, Error> {
        let backend = self.choice.resolve()?;
        let modulus = Modulus::new_prime(self.modulus)?;
        let plan = self.cache.plan_for(&modulus, self.n)?;
        let scratch = ScratchPool::new(plan.size());
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
/// the `O(n)` table build) plus a free list of `n`-residue scratch
/// sets, so repeated transforms and polynomial products allocate
/// nothing once the list has warmed up (beyond the caller's own
/// output, for the slice-based conveniences).
///
/// Every method takes `&self` and the type is `Send + Sync`: an
/// `Arc<Ring>` can be shared across any number of worker threads, each
/// call taking a scratch set of its own from the free list. Results are
/// bit-identical regardless of concurrency (each call owns its working
/// set exclusively).
pub struct Ring {
    modulus: Modulus,
    plan: Arc<NttPlan>,
    backend: Arc<dyn Backend>,
    scratch: ScratchPool,
    /// Route polynomial products through the backend's fused pipeline
    /// ([`Backend::polymul_cyclic_fused`]), else through the scalar
    /// reference; see [`RingBuilder::lazy`].
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
        Ring::builder(modulus, n).build()
    }

    /// Starts a [`RingBuilder`] for an `n`-point ring over the prime
    /// `modulus`: to pin a backend, serve the plan from another cache,
    /// or build the scalar reference ring.
    pub fn builder(modulus: u128, n: usize) -> RingBuilder {
        RingBuilder {
            modulus,
            n,
            choice: BackendChoice::Auto,
            cache: Arc::clone(plan_cache::global()),
            lazy: true,
        }
    }

    /// The backend executing this ring's kernels. Safe to call from any
    /// thread: the backend is immutable and shared.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
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

    /// The transform size `n`.
    pub fn size(&self) -> usize {
        self.plan.size()
    }

    /// Whether negacyclic (`xⁿ + 1`) operations are available.
    pub fn supports_negacyclic(&self) -> bool {
        self.plan.supports_negacyclic()
    }

    /// Whether this ring routes polynomial products through the
    /// backend's lazy-reduction fused pipeline (the default). `false`
    /// means scalar reference products, for oracles, not serving (see
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

    /// Checks that `words` is one operand of this ring: `n` residues,
    /// each below `q`.
    fn check_residues(&self, words: &[u128]) -> Result<(), Error> {
        self.check_len(words.len())?;
        let q = self.modulus.value();
        out_of_range(words.iter().position(|&w| w >= q))
    }

    /// [`Ring::check_residues`] over the hi/lo planes of an SoA buffer.
    fn check_soa(&self, x: &ResidueSoa) -> Result<(), Error> {
        self.check_len(x.len())?;
        let q = self.modulus.value();
        let mut words = x.hi().iter().zip(x.lo());
        out_of_range(words.position(|(&hi, &lo)| u128::from(hi) << 64 | u128::from(lo) >= q))
    }

    // ---- transforms ----------------------------------------------------

    /// Forward NTT in place (natural order in and out). Each call
    /// takes a scratch set of its own from the ring's free list (the
    /// lock covers only the hand-out and the return, never the
    /// transform), so concurrent calls on a shared ring never share a
    /// buffer; no allocation once the list has warmed up.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] for a buffer that is not `n` long,
    /// [`Error::CoefficientOutOfRange`] for a residue `≥ q`.
    pub fn forward(&self, x: &mut ResidueSoa) -> Result<(), Error> {
        self.check_soa(x)?;
        self.scratch
            .with(|set| self.backend.forward_ntt(&self.plan, x, &mut set.tmp));
        Ok(())
    }

    /// Inverse NTT in place, including the `n⁻¹` scale. Thread-safe like
    /// [`Ring::forward`].
    ///
    /// # Errors
    ///
    /// As [`Ring::forward`].
    pub fn inverse(&self, x: &mut ResidueSoa) -> Result<(), Error> {
        self.check_soa(x)?;
        self.scratch
            .with(|set| self.backend.inverse_ntt(&self.plan, x, &mut set.tmp));
        Ok(())
    }

    // ---- polynomial products -------------------------------------------

    /// Cyclic product in `ℤ_q[x]/(xⁿ − 1)`, entirely in the selected
    /// tier. Operates on a pooled scratch set taken for this call, so
    /// concurrent products on a shared ring never interfere: the only
    /// allocation is the returned vector (plus a one-time set build
    /// while the free list warms up).
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] for an operand that is not `n` long,
    /// [`Error::CoefficientOutOfRange`] for a coefficient `≥ q`.
    pub fn polymul_cyclic(&self, a: &[u128], b: &[u128]) -> Result<Vec<u128>, Error> {
        let mut out = Vec::new();
        self.polymul_cyclic_into(a, b, &mut out)?;
        Ok(out)
    }

    /// [`Ring::polymul_cyclic`] writing into a caller-owned vector: the
    /// steady-state allocation-free slice form (`out` is resized once
    /// and reused across calls; all working buffers come from the pool).
    ///
    /// # Errors
    ///
    /// As [`Ring::polymul_cyclic`].
    pub fn polymul_cyclic_into(
        &self,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_residues(a)?;
        self.check_residues(b)?;
        self.polymul_into(PolyOp::Cyclic, a, b, out)
    }

    /// Negacyclic product in `ℤ_q[x]/(xⁿ + 1)` — the RLWE workhorse —
    /// via the ψ-twisted cyclic transform. Thread-safe like every ring
    /// operation: scratch is per-call, from the pool.
    ///
    /// # Errors
    ///
    /// As [`Ring::polymul_cyclic`], plus [`Error::NoNegacyclicSupport`]
    /// if the field has no `2n`-th root of unity (check
    /// [`Ring::supports_negacyclic`]).
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
    /// As [`Ring::polymul_negacyclic`].
    pub fn polymul_negacyclic_into(
        &self,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_residues(a)?;
        self.check_residues(b)?;
        self.polymul_into(PolyOp::Negacyclic, a, b, out)
    }

    /// The slice-form product for operands whose residues are already
    /// known to be below `q` (checked by the public forms, or by
    /// [`split_cow`](crate::PolyRing::split_cow) on the request path),
    /// and the one place a ring chooses its polymul path: the backend's
    /// fused pipeline on pooled SoA buffers, or — on a `lazy(false)`
    /// ring — the scalar reference products, which touch no backend
    /// kernel.
    pub(crate) fn polymul_into(
        &self,
        op: PolyOp,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        let no_root = |_| Error::NoNegacyclicSupport {
            n: self.plan.size(),
        };
        let plan = &*self.plan;
        if !self.lazy {
            *out = match op {
                PolyOp::Cyclic => polymul::polymul_cyclic(plan, a, b),
                PolyOp::Negacyclic => polymul::polymul_negacyclic(plan, a, b).map_err(no_root)?,
            };
            return Ok(());
        }
        self.scratch.with(|ScratchSet { a: sa, b: sb, tmp }| {
            sa.copy_from_u128s(a);
            sb.copy_from_u128s(b);
            match op {
                PolyOp::Cyclic => self.backend.polymul_cyclic_fused(plan, sa, sb, tmp),
                PolyOp::Negacyclic => self
                    .backend
                    .polymul_negacyclic_fused(plan, sa, sb, tmp)
                    .map_err(no_root)?,
            }
            out.clear();
            out.resize(plan.size(), 0);
            sa.write_u128s(out);
            Ok(())
        })
    }

    /// `out[i] = a[i] ± b[i] mod m` over scalar residue slices: the
    /// backend's `vadd` / `vsub` on pooled SoA scratch, written into a
    /// caller-owned vector — like the `polymul_*_into` forms,
    /// allocation-free once `out` and the free list are warm. `m` is the
    /// ring's own modulus, or — for an RNS extension channel — a fresh
    /// prime of the same width, served by this ring's backend and
    /// scratch. The operands must be `n` long, because the pooled
    /// buffers they are staged in keep the ring's geometry; `b` is as
    /// long as `a` in every call (both callers ran
    /// [`check_channel_call`](crate::poly::check_channel_call)).
    pub(crate) fn add_sub_into(
        &self,
        m: &Modulus,
        subtract: bool,
        a: &[u128],
        b: &[u128],
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        self.check_len(a.len())?;
        self.scratch.with(|ScratchSet { a: sa, b: sb, tmp }| {
            sa.copy_from_u128s(a);
            sb.copy_from_u128s(b);
            if subtract {
                self.backend.vsub(sa, sb, tmp, m);
            } else {
                self.backend.vadd(sa, sb, tmp, m);
            }
            out.clear();
            out.resize(a.len(), 0);
            tmp.write_u128s(out);
        });
        Ok(())
    }
}

/// The residue check's verdict on the index of the first residue `≥ q`.
fn out_of_range(index: Option<usize>) -> Result<(), Error> {
    match index {
        Some(index) => Err(Error::CoefficientOutOfRange { index }),
        None => Ok(()),
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
        self.check_residues(words)?;
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
        use crate::RingOp;
        if width != 1 || !op.is_binary() {
            return Err(Error::UnsupportedOp {
                op: op.name(),
                reason: "a single-modulus ring has no RNS channel structure to drop or extend",
            });
        }
        let b = crate::poly::check_channel_call(op, 1, 1, channel, a, b)?;
        match op {
            RingOp::Polymul(poly) => self.polymul_into(*poly, &a[0], &b[0], out),
            _ => self.add_sub_into(&self.modulus, matches!(op, RingOp::Sub), &a[0], &b[0], out),
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
        let ring = Ring::builder(primes::Q124, N)
            .backend_name("portable")
            .build()
            .unwrap();
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
        let err = Ring::builder(primes::Q124, N)
            .backend_name("tpu")
            .build()
            .unwrap_err();
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
            let ring = Ring::builder(primes::Q124, N)
                .backend(backend)
                .build()
                .unwrap();
            assert_eq!(ring.polymul_cyclic(&a, &b).unwrap(), cyclic, "{name}");
            assert_eq!(
                ring.polymul_negacyclic(&a, &b).unwrap(),
                negacyclic,
                "{name}"
            );
        }
    }

    #[test]
    fn coefficients_at_or_above_q_are_rejected() {
        let q = primes::Q124;
        let good = poly(N, q, 3);
        for (index, bad) in [(0, q), (N - 1, u128::MAX - 5)] {
            let mut a = poly(N, q, 4);
            a[index] = bad;
            for lazy in [true, false] {
                let ring = Ring::builder(q, N).lazy(lazy).build().unwrap();
                let mut out = Vec::new();
                for err in [
                    ring.polymul_cyclic(&a, &good).unwrap_err(),
                    ring.polymul_negacyclic(&good, &a).unwrap_err(),
                    ring.polymul_cyclic_into(&good, &a, &mut out).unwrap_err(),
                    ring.polymul_negacyclic_into(&a, &good, &mut out)
                        .unwrap_err(),
                ] {
                    assert!(
                        matches!(err, Error::CoefficientOutOfRange { index: i } if i == index),
                        "lazy={lazy}: {err:?}"
                    );
                    let msg = err.to_string();
                    assert!(!msg.contains("RNS"), "a word ring's bound is q: {msg}");
                }
                let mut soa = ResidueSoa::from_u128s(&a);
                for err in [
                    ring.forward(&mut soa).unwrap_err(),
                    ring.inverse(&mut soa).unwrap_err(),
                ] {
                    assert!(
                        matches!(err, Error::CoefficientOutOfRange { index: i } if i == index),
                        "lazy={lazy}: {err:?}"
                    );
                }
                assert_eq!(soa.to_u128s(), a, "a rejected transform leaves x as it was");
            }
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
        let backend = ring.backend();
        let mut out = ResidueSoa::zeros(17);
        backend.vadd(&sa, &sb, &mut out, &m);
        for i in 0..17 {
            assert_eq!(out.get(i), m.add_mod(a[i], b[i]), "vadd {i}");
        }
        backend.vmul(&sa, &sb, &mut out, &m);
        for i in 0..17 {
            assert_eq!(out.get(i), m.mul_mod(a[i], b[i]), "vmul {i}");
        }
        let mut y = sb.clone();
        backend.axpy(a[0], &sa, &mut y, &m);
        for i in 0..17 {
            assert_eq!(y.get(i), m.add_mod(m.mul_mod(a[0], a[i]), b[i]), "axpy {i}");
        }
    }
}
