//! Runtime-dispatched engine backends: one object-safe interface over
//! every vector tier the *running machine* actually has.
//!
//! The engine crates (`mqx_simd`, `mqx_ntt`, `mqx_blas`) are generic
//! over [`SimdEngine`] at compile time; before this layer existed every
//! caller had to name concrete engine types behind `cfg(target_feature)`
//! gates, so a binary built without `-C target-cpu=native` silently lost
//! all vector tiers. [`Backend`] erases the engine type parameter behind
//! a trait object, and the registry ([`available`], [`by_name`],
//! [`default_backend`]) discovers tiers with
//! `std::arch::is_x86_feature_detected!` at **runtime** — the same binary
//! picks AVX-512 on a server and falls back to the portable engine in a
//! container, with no rebuild. The vector tiers run at full speed in
//! that same ordinary build: every kernel a backend calls runs its
//! vector loop inside [`SimdEngine::vectorize`], the engine's
//! target-feature frame, so the intrinsics inline without any
//! `-C target-cpu` flag.
//!
//! The registry is built **once per process** (an [`OnceLock`]-backed
//! memo): every [`available`] / [`by_name`] / [`names`] call borrows
//! the same [`Arc`]s, so backend identity is stable —
//! `Arc::ptr_eq(&by_name("portable")?, &by_name("portable")?)` holds —
//! and ring builds never re-run feature detection or re-allocate the
//! registry.
//!
//! **Which backend does auto selection pick?** Not a static guess: the
//! first auto-built ring triggers a one-shot [`calibrate`] pass that
//! *measures* a short forward-NTT + `vmul` burst on every registry
//! backend and ranks the tiers by observed ns/butterfly (see
//! [`calibration`]). `MQX_BACKEND=<name>` pins a registry backend for
//! every auto selection.
//!
//! The registry holds the hardware tiers and nothing else. The paper's
//! MQX engines (functional and PISA mode, the Figure 6 ablation) and
//! the Table 5/6 proxy engines reproduce figures; they serve nothing,
//! so the `mqx_bench` crate builds them itself with [`from_engine`].
//!
//! Most code should go through [`Ring`](crate::Ring), which pairs a
//! backend with an [`NttPlan`] and reusable scratch buffers; the raw
//! registry is for tooling that needs to enumerate or pin tiers (the
//! cross-tier agreement tests, the benchmark tier runner).
//!
//! ```
//! use mqx::backend;
//!
//! // Every host has at least the portable tier.
//! let tiers = backend::available();
//! assert!(tiers.iter().any(|b| b.name() == "portable"));
//! // Measurement engines are not registered.
//! assert!(backend::by_name("mqx-pisa").is_none());
//! // Auto selection ranks tiers by measured cost (memoized).
//! let cal = backend::calibration();
//! assert_eq!(cal.winner().name(), cal.ranking()[0].name());
//! ```

pub mod calibrate;

use crate::error::Error;
use mqx_blas::LinComb;
use mqx_core::Modulus;
use mqx_ntt::NttPlan;
use mqx_simd::{Lanes, OneLimb, Portable, ResidueSoa, SimdEngine, TwoLimbs};
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

#[cfg(target_arch = "x86_64")]
use mqx_simd::{Avx2, Avx512};

/// The vector tier a backend belongs to (the paper's x-axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Tier {
    /// The always-available portable (scalar-emulation) engine.
    Portable,
    /// AVX2: four 64-bit lanes, emulated masks.
    Avx2,
    /// AVX-512: eight 64-bit lanes, real mask registers.
    Avx512,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        })
    }
}

/// An object-safe engine: the full kernel surface of one vector tier,
/// with the engine type parameter erased.
///
/// All operations follow the conventions of the generic kernels they
/// wrap: data travels in structure-of-arrays form ([`ResidueSoa`]),
/// inputs must be reduced below the modulus, and NTT buffers must match
/// the plan size (the wrapped kernels panic otherwise — [`Ring`]
/// validates lengths before calling in).
///
/// [`Ring`]: crate::Ring
pub trait Backend: Send + Sync {
    /// Stable name (`"portable"`, `"avx2"`, `"avx512"` in the registry;
    /// whatever [`from_engine`] was given otherwise).
    fn name(&self) -> &'static str;

    /// The tier this backend measures.
    fn tier(&self) -> Tier;

    /// Number of 64-bit lanes per vector operation.
    fn lanes(&self) -> usize;

    /// Forward NTT over `x` (natural order in and out); `scratch` must
    /// have the plan's length.
    fn forward_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa);

    /// Inverse NTT over `x`, including the `n⁻¹` scale.
    fn inverse_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa);

    /// Element-wise modular addition: `out[i] = x[i] + y[i] mod q`.
    fn vadd(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus);

    /// Element-wise modular subtraction.
    fn vsub(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus);

    /// Element-wise modular multiplication.
    fn vmul(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus);

    /// `y[i] ← a·x[i] + y[i] mod q` with broadcast scalar `a`.
    fn axpy(&self, a: u128, x: &ResidueSoa, y: &mut ResidueSoa, m: &Modulus);

    /// `out[j] = (k + Σ_t c_t · x_t[j]) mod q` for every `j`, over
    /// rows of `u128` words and constant Shoup multipliers
    /// ([`mqx_blas::lincomb`]): the one kernel under the RNS boundary.
    /// Rows may hold any word, reduced or not; the result is canonical.
    /// A modulus below `2^62` runs one 64-bit limb per lane, any other
    /// two.
    ///
    /// Panics on the kernel's misuse: a row that is not `out.len()`
    /// words long, or an offset at or above `q`.
    fn lincomb(&self, m: &Modulus, comb: &LinComb<'_>, out: &mut [u128]);

    /// Cyclic polynomial product through the *fused lazy pipeline*, the
    /// one polymul path a backend serves: forward(a), forward(b),
    /// point-wise multiply and inverse run back-to-back in the lazy
    /// Shoup-butterfly domains, with the canonical reduction and `n⁻¹`
    /// scale merged into the final pass. The canonical product is left in
    /// `a`; `b` is clobbered and `scratch` must have the plan's length.
    /// No allocation. Bit-identical to the scalar reference
    /// [`mqx_ntt::polymul::polymul_cyclic`].
    fn polymul_cyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    );

    /// Negacyclic polynomial product through the fused lazy pipeline:
    /// ψ twist, fused cyclic body, merged `ψ^{−i}·n⁻¹` untwist. Result in
    /// `a`, `b` clobbered, no allocation; bit-identical to the scalar
    /// reference [`mqx_ntt::polymul::polymul_negacyclic`].
    ///
    /// # Errors
    ///
    /// Returns [`mqx_ntt::NttError::NoRoot`] when the plan's field has no
    /// 2n-th root of unity.
    fn polymul_negacyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) -> Result<(), mqx_ntt::NttError>;
}

impl fmt::Debug for dyn Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backend")
            .field("name", &self.name())
            .field("tier", &self.tier())
            .field("lanes", &self.lanes())
            .finish()
    }
}

/// The adapter that erases a concrete [`SimdEngine`] behind [`Backend`].
struct EngineBackend<E: SimdEngine> {
    name: &'static str,
    tier: Tier,
    _engine: PhantomData<fn() -> E>,
}

impl<E: SimdEngine> Backend for EngineBackend<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tier(&self) -> Tier {
        self.tier
    }

    fn lanes(&self) -> usize {
        E::LANES
    }

    fn forward_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        plan.forward_simd::<E>(x, scratch);
    }

    fn inverse_ntt(&self, plan: &NttPlan, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        plan.inverse_simd::<E>(x, scratch);
    }

    fn vadd(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        mqx_blas::simd::vadd::<E>(x, y, out, m);
    }

    fn vsub(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        mqx_blas::simd::vsub::<E>(x, y, out, m);
    }

    fn vmul(&self, x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
        mqx_blas::simd::vmul::<E>(x, y, out, m);
    }

    fn axpy(&self, a: u128, x: &ResidueSoa, y: &mut ResidueSoa, m: &Modulus) {
        mqx_blas::simd::axpy::<E>(a, x, y, m);
    }

    fn lincomb(&self, m: &Modulus, comb: &LinComb<'_>, out: &mut [u128]) {
        if m.value() < <OneLimb as Lanes<E>>::BOUND {
            mqx_blas::lincomb::<E, OneLimb>(m, comb, out);
        } else {
            mqx_blas::lincomb::<E, TwoLimbs>(m, comb, out);
        }
    }

    fn polymul_cyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) {
        // The lazy pipeline accepts the full [0, 2q) Shoup domain, not
        // just canonical inputs (rule L3; see NttPlan::polymul_fused_*).
        let q = plan.modulus().value();
        mqx_ntt::debug_assert_domain_soa(a, 2 * q, "polymul_cyclic_fused input a");
        mqx_ntt::debug_assert_domain_soa(b, 2 * q, "polymul_cyclic_fused input b");
        plan.polymul_fused_cyclic_simd::<E>(a, b, scratch);
    }

    fn polymul_negacyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) -> Result<(), mqx_ntt::NttError> {
        // Same [0, 2q) lazy domain as the cyclic method above.
        let q = plan.modulus().value();
        mqx_ntt::debug_assert_domain_soa(a, 2 * q, "polymul_negacyclic_fused input a");
        mqx_ntt::debug_assert_domain_soa(b, 2 * q, "polymul_negacyclic_fused input b");
        plan.polymul_fused_negacyclic_simd::<E>(a, b, scratch)
    }
}

/// Wraps engine `E` as a [`Backend`] named `name`, measuring `tier`.
///
/// The registry's hardware tiers are built with this; so are the
/// paper's measurement engines (MQX in functional and PISA mode, the
/// Table 5/6 proxies), which the `mqx_bench` crate builds for itself.
/// The function is generic, so `E`'s kernels are compiled in the crate
/// that names `E`. The result is not registered: [`by_name`] and auto
/// selection never see it.
///
/// `E`'s kernels check the CPU themselves (`SimdEngine::token`), so a
/// backend over an engine this host cannot run panics on first use
/// instead of faulting.
///
/// ```
/// use mqx::backend::{self, Tier};
/// use mqx::simd::Portable;
///
/// let b = backend::from_engine::<Portable>("my-portable", Tier::Portable);
/// assert_eq!((b.name(), b.lanes()), ("my-portable", 8));
/// assert!(backend::by_name("my-portable").is_none());
/// ```
pub fn from_engine<E: SimdEngine>(name: &'static str, tier: Tier) -> Arc<dyn Backend> {
    Arc::new(EngineBackend::<E> {
        name,
        tier,
        _engine: PhantomData,
    })
}

/// The process-wide registry, built exactly once: feature detection
/// and the `Arc` allocations happen on the first call, and every later
/// lookup borrows the memoized entries (stable `Arc::ptr_eq` identity).
pub(crate) fn registry() -> &'static [Arc<dyn Backend>] {
    static REGISTRY: OnceLock<Vec<Arc<dyn Backend>>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Every backend the running machine can execute, fastest first:
/// AVX-512 and AVX2 (when `is_x86_feature_detected!` confirms them),
/// then the always-available portable engine.
///
/// The registry itself is memoized: this clones handles to the same
/// process-wide instances every time (so `Arc::ptr_eq` identity is
/// stable across calls), it never re-runs detection.
pub fn available() -> Vec<Arc<dyn Backend>> {
    registry().to_vec()
}

/// Builds the registry contents; runs once, behind [`registry`].
fn build_registry() -> Vec<Arc<dyn Backend>> {
    let mut out: Vec<Arc<dyn Backend>> = Vec::new();

    #[cfg(target_arch = "x86_64")]
    {
        if mqx_simd::avx512_detected() {
            out.push(from_engine::<Avx512>("avx512", Tier::Avx512));
        }
        if mqx_simd::avx2_detected() {
            out.push(from_engine::<Avx2>("avx2", Tier::Avx2));
        }
    }
    out.push(from_engine::<Portable>("portable", Tier::Portable));
    out
}

/// The names [`available`] currently offers, in the same order.
/// Borrows the memoized registry — no registry rebuild per call.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|b| b.name()).collect()
}

/// Looks a backend up by its registry name. Returns a handle to the
/// memoized process-wide instance (stable `Arc::ptr_eq` identity).
pub fn by_name(name: &str) -> Option<Arc<dyn Backend>> {
    registry().iter().find(|b| b.name() == name).cloned()
}

/// The widest hardware tier *detected* on this CPU: the registry's
/// head (AVX-512 → AVX2 → portable).
///
/// This is not what [`Ring::auto`](crate::Ring::auto) uses — auto
/// selection goes through the measured [`calibration`] ranking (see
/// [`selected_backend`]). It is the measurement-free prediction the
/// calibration is validated against.
///
/// Detection alone decides: the kernels enable each tier's target
/// features themselves ([`SimdEngine::vectorize`]), so a wider detected
/// tier is the faster one however the binary was built.
pub fn default_backend() -> Arc<dyn Backend> {
    registry()
        .first()
        .cloned()
        .expect("the portable backend is always available")
}

/// The memoized once-per-process calibration: per-backend measured
/// ns/butterfly and the ranked tiers. The first call pays the
/// measurement burst; every later call returns the same object.
pub fn calibration() -> &'static calibrate::Calibration {
    calibrate::process_calibration()
}

/// The backend auto selection resolves to for this process:
/// the `MQX_BACKEND` pin when set (unknown names are rejected with
/// [`Error::UnknownBackend`]), otherwise the [`calibration`] winner —
/// the registry backend with the best measured ns/butterfly.
pub fn selected_backend() -> Result<Arc<dyn Backend>, Error> {
    calibrate::select(calibrate::env_pin().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;

    #[test]
    fn registry_is_the_detected_hardware_tiers() {
        let names = names();
        let widest_first: Vec<_> = ["avx512", "avx2", "portable"]
            .into_iter()
            .filter(|n| names.contains(n))
            .collect();
        assert_eq!(names, widest_first);
        assert_eq!(names.last(), Some(&"portable"));
    }

    #[test]
    fn hardware_tiers_follow_runtime_detection() {
        let names = names();
        assert_eq!(
            names.contains(&"avx512"),
            mqx_simd::avx512_detected(),
            "avx512 presence must track runtime detection"
        );
        assert_eq!(names.contains(&"avx2"), mqx_simd::avx2_detected());
    }

    #[test]
    fn default_backend_is_widest_detected_tier() {
        let d = default_backend();
        let expected = if mqx_simd::avx512_detected() {
            "avx512"
        } else if mqx_simd::avx2_detected() {
            "avx2"
        } else {
            "portable"
        };
        assert_eq!(d.name(), expected);
        assert!(Arc::ptr_eq(&d, &registry()[0]));
    }

    #[test]
    fn every_backend_does_elementwise_arithmetic() {
        let m = Modulus::new(primes::Q124).unwrap();
        let q = m.value();
        let x = ResidueSoa::from_u128s(&[q - 1, 1, 2, 3, 4, 5, 6, 7]);
        let y = ResidueSoa::from_u128s(&[2, q - 1, 2, 3, 4, 5, 6, 7]);
        for b in available() {
            let mut out = ResidueSoa::zeros(8);
            b.vadd(&x, &y, &mut out, &m);
            assert_eq!(out.get(0), 1, "{} vadd wrap", b.name());
            assert_eq!(out.get(2), 4, "{} vadd", b.name());
            assert!(b.lanes() >= 1, "{}", b.name());
        }
    }

    #[test]
    fn registry_is_memoized_with_stable_identity() {
        let first = available();
        let second = available();
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b), "{} re-allocated", a.name());
        }
        // by_name and default_backend borrow the same instances.
        let portable = by_name("portable").unwrap();
        assert!(Arc::ptr_eq(&portable, &by_name("portable").unwrap()));
        let d = default_backend();
        assert!(Arc::ptr_eq(&d, &by_name(d.name()).unwrap()));
    }

    #[test]
    fn pisa_is_flagged_non_consumable() {
        // The MQX modes are measurement engines built by `mqx_bench`, not
        // registry tiers; the engine struct carries the §4.2 flag.
        let pisa = mqx_bench::engines::mqx_pisa();
        assert!(!pisa.consumable);
        assert_eq!(pisa.backend.name(), "mqx-pisa");
        let functional = mqx_bench::engines::mqx_functional();
        assert!(functional.consumable);
        for name in ["mqx-functional", "mqx-pisa"] {
            assert!(by_name(name).is_none(), "{name} registered");
        }
    }

    #[test]
    fn ablation_set_matches_figure6() {
        let set = mqx_bench::engines::ablation_variants();
        let labels: Vec<_> = set.iter().map(|v| v.label).collect();
        assert_eq!(labels, ["Base", "+M", "+C", "+M,C", "+Mh,C", "+M,C,P"]);
        assert!(set[0].consumable, "Base is a real engine");
        assert!(set[1..].iter().all(|v| !v.consumable));
    }

    #[test]
    fn selected_backend_is_the_calibration_winner_without_a_pin() {
        let b = selected_backend().unwrap();
        // The winner invariant only applies when no ambient MQX_BACKEND
        // pin was inherited from the environment (a documented knob).
        match std::env::var("MQX_BACKEND") {
            Ok(pin) if !pin.is_empty() => assert_eq!(b.name(), pin),
            _ => assert!(Arc::ptr_eq(&b, &calibration().winner())),
        }
    }
}
