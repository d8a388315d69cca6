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
//! *measures* a short forward-NTT + `vmul` burst on every consumable
//! backend and ranks the tiers by observed ns/butterfly (see
//! [`calibration`]). `MQX_BACKEND=<name>` pins a registry backend for
//! every auto selection.
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
//! // The PISA projection backend is never consumable (§4.2).
//! let pisa = backend::by_name("mqx-pisa").unwrap();
//! assert!(!pisa.consumable());
//! // Auto selection ranks tiers by measured cost (memoized).
//! let cal = backend::calibration();
//! assert!(cal.winner().consumable());
//! ```

pub mod calibrate;

use crate::error::Error;
use mqx_core::Modulus;
use mqx_ntt::NttPlan;
use mqx_simd::{profiles, proxy, Mqx, Portable, ResidueSoa, SimdEngine};
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
    /// The proposed MQX ISA extension (functional or PISA mode).
    Mqx,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Portable => "portable",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
            Tier::Mqx => "mqx",
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
    /// Stable registry name (`"portable"`, `"avx2"`, `"avx512"`,
    /// `"mqx-functional"`, `"mqx-pisa"`, …).
    fn name(&self) -> &'static str;

    /// The tier this backend measures.
    fn tier(&self) -> Tier;

    /// Number of 64-bit lanes per vector operation.
    fn lanes(&self) -> usize;

    /// Whether numerical results may be consumed as values. `false` for
    /// PISA-mode backends, whose instruction streams have representative
    /// *cost* but deliberately wrong *numbers* (§4.2); their outputs must
    /// only ever feed timers.
    fn consumable(&self) -> bool {
        true
    }

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

    /// Cyclic polynomial product via the convolution theorem, entirely in
    /// this backend's tier: forward-transform both operands in place,
    /// multiply point-wise, inverse-transform. The product is left in
    /// `a`; `b` is consumed as a transform buffer and `scratch` must have
    /// the plan's length.
    fn polymul_cyclic(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) {
        self.forward_ntt(plan, a, scratch);
        self.forward_ntt(plan, b, scratch);
        self.vmul(a, b, scratch, plan.modulus());
        std::mem::swap(a, scratch);
        self.inverse_ntt(plan, a, scratch);
    }

    /// Cyclic polynomial product through the *fused lazy pipeline*:
    /// forward(a), forward(b), point-wise multiply and inverse run
    /// back-to-back in the `[0, 2q)` Shoup-butterfly domain, with the
    /// canonical reduction and `n⁻¹` scale merged into the final pass.
    /// Same contract as [`Backend::polymul_cyclic`] (result in `a`, `b`
    /// clobbered, no allocation) and bit-identical to it.
    ///
    /// The default implementation falls back to the canonical path, so
    /// every backend is correct by construction; the engine-backed
    /// registry tiers all override it with the lazy kernels.
    fn polymul_cyclic_fused(
        &self,
        plan: &NttPlan,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) {
        // The default delegates to the canonical path, whose add/sub
        // folds assume canonical inputs — hence the tighter `q` bound
        // (engine overrides accept the full [0, 2q) lazy domain).
        let q = plan.modulus().value();
        mqx_ntt::debug_assert_domain_soa(a, q, "polymul_cyclic_fused (default) input a");
        mqx_ntt::debug_assert_domain_soa(b, q, "polymul_cyclic_fused (default) input b");
        self.polymul_cyclic(plan, a, b, scratch);
    }

    /// Negacyclic polynomial product through the fused lazy pipeline:
    /// ψ twist, fused cyclic body, merged `ψ^{−i}·n⁻¹` untwist. Result in
    /// `a`, `b` clobbered, no allocation; bit-identical to the canonical
    /// twist/cyclic/untwist sequence.
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
    ) -> Result<(), mqx_ntt::NttError> {
        // Canonical-only, as for the cyclic default above.
        let q = plan.modulus().value();
        mqx_ntt::debug_assert_domain_soa(a, q, "polymul_negacyclic_fused (default) input a");
        mqx_ntt::debug_assert_domain_soa(b, q, "polymul_negacyclic_fused (default) input b");
        let (psi, psi_inv) = match (plan.psi_soa(), plan.psi_inv_soa()) {
            (Some(p), Some(pi)) => (p, pi),
            _ => {
                return Err(mqx_ntt::NttError::NoRoot(mqx_core::RootError::NoSuchRoot {
                    order: 2 * plan.size() as u64,
                }))
            }
        };
        let m = plan.modulus();
        self.vmul(a, psi, scratch, m);
        std::mem::swap(a, scratch);
        self.vmul(b, psi, scratch, m);
        std::mem::swap(b, scratch);
        self.polymul_cyclic(plan, a, b, scratch);
        self.vmul(a, psi_inv, scratch, m);
        std::mem::swap(a, scratch);
        Ok(())
    }
}

impl fmt::Debug for dyn Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backend")
            .field("name", &self.name())
            .field("tier", &self.tier())
            .field("lanes", &self.lanes())
            .field("consumable", &self.consumable())
            .finish()
    }
}

impl dyn Backend {
    /// Convenience alias for the free function [`available`], so call
    /// sites can write `<dyn Backend>::available()`.
    pub fn available() -> Vec<Arc<dyn Backend>> {
        available()
    }
}

/// The adapter that erases a concrete [`SimdEngine`] behind [`Backend`].
struct EngineBackend<E: SimdEngine> {
    name: &'static str,
    tier: Tier,
    consumable: bool,
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

    fn consumable(&self) -> bool {
        self.consumable
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
        // Same [0, 2q) lazy domain as the cyclic override above.
        let q = plan.modulus().value();
        mqx_ntt::debug_assert_domain_soa(a, 2 * q, "polymul_negacyclic_fused input a");
        mqx_ntt::debug_assert_domain_soa(b, 2 * q, "polymul_negacyclic_fused input b");
        plan.polymul_fused_negacyclic_simd::<E>(a, b, scratch)
    }
}

fn make<E: SimdEngine>(name: &'static str, tier: Tier, consumable: bool) -> Arc<dyn Backend> {
    Arc::new(EngineBackend::<E> {
        name,
        tier,
        consumable,
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

/// Every backend the running machine can execute, fastest hardware tier
/// first: AVX-512 and AVX2 (when `is_x86_feature_detected!` confirms
/// them), the always-available portable engine, then the MQX engines
/// over the best detected base — `"mqx-functional"` (bit-exact Table 2
/// emulation, slow) and `"mqx-pisa"` (representative cost, non-consumable
/// numbers).
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
            out.push(make::<Avx512>("avx512", Tier::Avx512, true));
        }
        if mqx_simd::avx2_detected() {
            out.push(make::<Avx2>("avx2", Tier::Avx2, true));
        }
    }
    out.push(make::<Portable>("portable", Tier::Portable, true));

    #[cfg(target_arch = "x86_64")]
    if mqx_simd::avx512_detected() {
        out.push(make::<Mqx<Avx512, profiles::McFunctional>>(
            "mqx-functional",
            Tier::Mqx,
            true,
        ));
        out.push(make::<Mqx<Avx512, profiles::McPisa>>(
            "mqx-pisa",
            Tier::Mqx,
            false,
        ));
        return out;
    }

    out.push(make::<Mqx<Portable, profiles::McFunctional>>(
        "mqx-functional",
        Tier::Mqx,
        true,
    ));
    out.push(make::<Mqx<Portable, profiles::McPisa>>(
        "mqx-pisa",
        Tier::Mqx,
        false,
    ));
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

/// The widest hardware tier *detected* on this CPU (AVX-512 → AVX2 →
/// portable, the registry's order). MQX backends are never
/// auto-selected: functional mode is a slow bit-exact emulation and
/// PISA mode is non-consumable.
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
        .iter()
        .find(|b| b.consumable() && b.tier() != Tier::Mqx)
        .cloned()
        .expect("the portable backend is always available")
}

/// The memoized once-per-process calibration: per-backend measured
/// ns/butterfly and the ranked consumable tiers. The first call pays
/// the measurement burst (a few tens of milliseconds); every later call
/// returns the same object.
pub fn calibration() -> &'static calibrate::Calibration {
    calibrate::process_calibration()
}

/// The backend auto selection resolves to for this process:
/// the `MQX_BACKEND` pin when set (unknown names are rejected with
/// [`Error::UnknownBackend`]), otherwise the [`calibration`] winner —
/// the consumable non-MQX backend with the best measured ns/butterfly.
pub fn selected_backend() -> Result<Arc<dyn Backend>, Error> {
    calibrate::select(calibrate::env_pin().as_deref())
}

/// Per-channel auto selection for `k` residue channels: the pin (when
/// set) applies to every channel; otherwise channels round-robin over
/// the calibration's competitive set, so near-tied tiers may share the
/// channel work (see [`calibrate::Calibration::channel_backends`]).
pub(crate) fn selected_channel_backends(k: usize) -> Result<Vec<Arc<dyn Backend>>, Error> {
    calibrate::select_channels(calibrate::env_pin().as_deref(), k)
}

/// One Figure 6 ablation variant: a label matching the paper's x-axis
/// and the backend that measures it.
pub struct AblationVariant {
    /// The paper's variant label (`"Base"`, `"+M"`, `"+C"`, …).
    pub label: &'static str,
    /// The measuring backend (PISA mode for every MQX variant).
    pub backend: Arc<dyn Backend>,
}

/// The Figure 6 sensitivity set over the best detected base engine:
/// `Base` (the unmodified engine) plus the five MQX component
/// combinations, all in PISA mode exactly as the paper measures them.
///
/// `Base` and the `+M,C` (`"mqx-pisa"`) entries are the memoized
/// registry instances — `Arc::ptr_eq` identity with [`by_name`] holds,
/// so per-backend caches (e.g. calibration scores) see the same
/// object. The remaining profile combinations are not registry
/// members and are minted per call.
pub fn ablation_variants() -> Vec<AblationVariant> {
    fn over<E: SimdEngine>(base: Arc<dyn Backend>, pisa: Arc<dyn Backend>) -> Vec<AblationVariant> {
        vec![
            AblationVariant {
                label: "Base",
                backend: base,
            },
            AblationVariant {
                label: "+M",
                backend: make::<Mqx<E, profiles::MPisa>>("mqx+M-pisa", Tier::Mqx, false),
            },
            AblationVariant {
                label: "+C",
                backend: make::<Mqx<E, profiles::CPisa>>("mqx+C-pisa", Tier::Mqx, false),
            },
            AblationVariant {
                label: "+M,C",
                backend: pisa,
            },
            AblationVariant {
                label: "+Mh,C",
                backend: make::<Mqx<E, profiles::MhCPisa>>("mqx+MhC-pisa", Tier::Mqx, false),
            },
            AblationVariant {
                label: "+M,C,P",
                backend: make::<Mqx<E, profiles::McpPisa>>("mqx+MCP-pisa", Tier::Mqx, false),
            },
        ]
    }

    // The registry's "mqx-pisa" sits over the same base engine this
    // function selects (AVX-512 when detected, portable otherwise).
    let pisa = by_name("mqx-pisa").expect("mqx-pisa is always registered");

    #[cfg(target_arch = "x86_64")]
    if mqx_simd::avx512_detected() {
        let base = by_name("avx512").expect("detected ⇒ registered");
        return over::<Avx512>(base, pisa);
    }
    let base = by_name("portable").expect("portable is always registered");
    over::<Portable>(base, pisa)
}

/// One functional-mode MQX profile: the Figure 6 component label and a
/// bit-exact (consumable) backend running that profile's Table 2
/// emulation.
pub struct FunctionalProfile {
    /// The component-combination label (`"+M"`, `"+C"`, …).
    pub label: &'static str,
    /// The bit-exact backend for that profile.
    pub backend: Arc<dyn Backend>,
}

/// Every MQX component combination in **functional** (bit-exact) mode,
/// over the portable engine — the §4.2 correctness side of the Figure 6
/// ablation. These all carry `consumable() == true` and must agree with
/// the scalar reference bit for bit on every kernel; the test suites
/// enforce that at the NTT level.
pub fn functional_profile_backends() -> Vec<FunctionalProfile> {
    vec![
        FunctionalProfile {
            label: "+M",
            backend: make::<Mqx<Portable, profiles::MFunctional>>("mqx+M-func", Tier::Mqx, true),
        },
        FunctionalProfile {
            label: "+C",
            backend: make::<Mqx<Portable, profiles::CFunctional>>("mqx+C-func", Tier::Mqx, true),
        },
        FunctionalProfile {
            label: "+M,C",
            backend: make::<Mqx<Portable, profiles::McFunctional>>("mqx+MC-func", Tier::Mqx, true),
        },
        FunctionalProfile {
            label: "+Mh,C",
            backend: make::<Mqx<Portable, profiles::MhCFunctional>>(
                "mqx+MhC-func",
                Tier::Mqx,
                true,
            ),
        },
        FunctionalProfile {
            label: "+M,C,P",
            backend: make::<Mqx<Portable, profiles::McpFunctional>>(
                "mqx+MCP-func",
                Tier::Mqx,
                true,
            ),
        },
    ]
}

/// One Table 5/6 PISA-validation pair: the unmodified backend and the
/// same engine with one real instruction swapped for its PISA proxy.
pub struct ProxyPair {
    /// The real (target) instruction being modeled.
    pub target: &'static str,
    /// The proxy instruction PISA substitutes for it.
    pub proxy: &'static str,
    /// The ground-truth backend.
    pub target_backend: Arc<dyn Backend>,
    /// The proxied backend (non-consumable: wrong numbers by design).
    pub proxy_backend: Arc<dyn Backend>,
}

/// The Table 5/6 validation set for this host: each detected hardware
/// tier paired with its proxy-substituted twin, or the portable
/// methodology check when no vector hardware is present.
///
/// Target backends are the memoized registry instances (stable
/// `Arc::ptr_eq` identity with [`by_name`]); only the proxy twins —
/// deliberately-wrong engines that never belong in the registry — are
/// minted per call.
pub fn pisa_proxy_pairs() -> Vec<ProxyPair> {
    let mut pairs = Vec::new();

    #[cfg(target_arch = "x86_64")]
    {
        if mqx_simd::avx2_detected() {
            let avx2 = by_name("avx2").expect("detected ⇒ registered");
            pairs.push(ProxyPair {
                target: "_mm256_mul_epu32",
                proxy: "_mm256_mullo_epi32",
                target_backend: avx2,
                proxy_backend: make::<proxy::ProxyMul32<Avx2>>(
                    "avx2-proxy-mul32",
                    Tier::Avx2,
                    false,
                ),
            });
        }
        if mqx_simd::avx512_detected() {
            let avx512 = by_name("avx512").expect("detected ⇒ registered");
            pairs.push(ProxyPair {
                target: "_mm512_mask_add_epi64",
                proxy: "_mm512_add_epi64",
                target_backend: Arc::clone(&avx512),
                proxy_backend: make::<proxy::ProxyMaskAdd<Avx512>>(
                    "avx512-proxy-mask-add",
                    Tier::Avx512,
                    false,
                ),
            });
            pairs.push(ProxyPair {
                target: "_mm512_mask_sub_epi64",
                proxy: "_mm512_sub_epi64",
                target_backend: avx512,
                proxy_backend: make::<proxy::ProxyMaskSub<Avx512>>(
                    "avx512-proxy-mask-sub",
                    Tier::Avx512,
                    false,
                ),
            });
        }
    }

    if pairs.is_empty() {
        // No vector hardware: validate the methodology on the portable
        // engine (the proxies still swap real work for different work).
        let portable = by_name("portable").expect("portable is always registered");
        pairs.push(ProxyPair {
            target: "mul32_wide (portable)",
            proxy: "mullo32 (portable)",
            target_backend: Arc::clone(&portable),
            proxy_backend: make::<proxy::ProxyMul32<Portable>>(
                "portable-proxy-mul32",
                Tier::Portable,
                false,
            ),
        });
        pairs.push(ProxyPair {
            target: "mask_add (portable)",
            proxy: "add (portable)",
            target_backend: Arc::clone(&portable),
            proxy_backend: make::<proxy::ProxyMaskAdd<Portable>>(
                "portable-proxy-mask-add",
                Tier::Portable,
                false,
            ),
        });
        pairs.push(ProxyPair {
            target: "mask_sub (portable)",
            proxy: "sub (portable)",
            target_backend: portable,
            proxy_backend: make::<proxy::ProxyMaskSub<Portable>>(
                "portable-proxy-mask-sub",
                Tier::Portable,
                false,
            ),
        });
    }

    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;

    #[test]
    fn registry_always_offers_portable_and_mqx() {
        let names = names();
        assert!(names.contains(&"portable"), "{names:?}");
        assert!(names.contains(&"mqx-functional"), "{names:?}");
        assert!(names.contains(&"mqx-pisa"), "{names:?}");
        // Registry names are unique.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "{names:?}");
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
        assert!(d.consumable());
        assert_ne!(d.tier(), Tier::Mqx);
        let expected = if mqx_simd::avx512_detected() {
            "avx512"
        } else if mqx_simd::avx2_detected() {
            "avx2"
        } else {
            "portable"
        };
        assert_eq!(d.name(), expected);
    }

    #[test]
    fn pisa_is_flagged_non_consumable() {
        let pisa = by_name("mqx-pisa").unwrap();
        assert!(!pisa.consumable());
        assert_eq!(pisa.tier(), Tier::Mqx);
        let functional = by_name("mqx-functional").unwrap();
        assert!(functional.consumable());
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
            if b.consumable() {
                assert_eq!(out.get(0), 1, "{} vadd wrap", b.name());
                assert_eq!(out.get(2), 4, "{} vadd", b.name());
            }
            assert!(b.lanes() >= 1, "{}", b.name());
        }
    }

    #[test]
    fn ablation_set_matches_figure6() {
        let set = ablation_variants();
        let labels: Vec<_> = set.iter().map(|v| v.label).collect();
        assert_eq!(labels, ["Base", "+M", "+C", "+M,C", "+Mh,C", "+M,C,P"]);
        assert!(set[0].backend.consumable(), "Base is a real engine");
        assert!(set[1..].iter().all(|v| !v.backend.consumable()));
    }

    #[test]
    fn proxy_pairs_are_nonempty_and_non_consumable() {
        let pairs = pisa_proxy_pairs();
        assert!(!pairs.is_empty());
        for p in &pairs {
            assert!(p.target_backend.consumable(), "{}", p.target);
            assert!(!p.proxy_backend.consumable(), "{}", p.proxy);
        }
    }

    #[test]
    fn dyn_backend_inherent_available_matches_free_fn() {
        let a: Vec<_> = <dyn Backend>::available()
            .iter()
            .map(|b| b.name())
            .collect();
        assert_eq!(a, names());
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
    fn ablation_and_proxy_sets_reuse_registry_instances() {
        let set = ablation_variants();
        let base = &set[0].backend;
        assert!(
            Arc::ptr_eq(base, &by_name(base.name()).unwrap()),
            "Base must be the registry instance"
        );
        let mc = set.iter().find(|v| v.label == "+M,C").unwrap();
        assert!(
            Arc::ptr_eq(&mc.backend, &by_name("mqx-pisa").unwrap()),
            "+M,C must be the registry mqx-pisa"
        );
        for pair in pisa_proxy_pairs() {
            let registered = by_name(pair.target_backend.name())
                .expect("every proxy target is a registry backend");
            assert!(
                Arc::ptr_eq(&pair.target_backend, &registered),
                "{} target must be the registry instance",
                pair.target
            );
        }
    }

    #[test]
    fn selected_backend_is_consumable_and_never_mqx_without_a_pin() {
        let b = selected_backend().unwrap();
        // The selection is always consumable (non-consumable pins are
        // rejected with an error before this point).
        assert!(b.consumable());
        // The winner invariants only apply when no ambient MQX_BACKEND
        // pin was inherited from the environment (a documented knob —
        // e.g. MQX_BACKEND=mqx-functional is a legitimate MQX-tier
        // selection).
        match std::env::var("MQX_BACKEND") {
            Ok(pin) if !pin.is_empty() => assert_eq!(b.name(), pin),
            _ => {
                assert_ne!(b.tier(), Tier::Mqx);
                assert!(Arc::ptr_eq(&b, &calibration().winner()));
            }
        }
    }
}
