//! The paper's measurement engines. The `mqx` facade registers only the
//! hardware tiers this host detects, because those are what serve; the
//! engines here exist to reproduce figures, so this crate builds them
//! with [`mqx::backend::from_engine`], and their kernels are compiled
//! here, not in the facade:
//!
//! * [`mqx_functional`] / [`mqx_pisa`]: the full MQX extension (`+M,C`)
//!   in the two §4.2 modes;
//! * [`ablation_variants`]: Figure 6, the base engine and the five MQX
//!   component combinations, all in PISA mode;
//! * [`functional_profiles`]: the same five combinations in functional
//!   mode, over the portable engine (the correctness side of Figure 6);
//! * [`proxy_pairs`]: Tables 5/6, each detected hardware tier and its
//!   twin with one instruction swapped for its PISA proxy.
//!
//! The MQX engines extend the best detected base: AVX-512 when this
//! host has it, portable otherwise (the paper extends AVX-512, not
//! AVX2). They report the base's [`Tier`].
//!
//! PISA-mode engines and proxy twins run instruction streams with
//! representative *cost* and deliberately wrong *numbers* (§4.2). The
//! flag that says so is [`Engine::consumable`]: their outputs may only
//! feed timers.

use mqx::backend::{self, from_engine, Backend, Tier};
use mqx_simd::profiles::{self, MqxProfile};
use mqx_simd::{proxy, Mqx, Portable, SimdEngine};
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
use mqx_simd::{Avx2, Avx512};

/// One measurement engine: the backend, what the paper calls it, and
/// whether its numbers may be consumed.
#[derive(Clone, Debug)]
pub struct Engine {
    /// The paper's name for it: a Figure 6 variant (`"Base"`, `"+M"`,
    /// …), an MQX mode (`"mqx-pisa"`), or a Table 5 instruction.
    pub label: &'static str,
    /// The backend that runs it.
    pub backend: Arc<dyn Backend>,
    /// `true` when the outputs are values; `false` for PISA mode and
    /// the proxy twins, whose outputs are wrong by design and only
    /// their cost means anything.
    pub consumable: bool,
}

impl Engine {
    /// The registry's instance of a detected hardware tier.
    fn registered(label: &'static str, name: &str) -> Engine {
        Engine {
            label,
            backend: backend::by_name(name).expect("detected ⇒ registered"),
            consumable: true,
        }
    }

    /// MQX profile `P` over the detected base, named `name`.
    fn mqx<P: MqxProfile>(label: &'static str, name: &'static str) -> Engine {
        let engine = |backend| Engine {
            label,
            backend,
            consumable: P::FUNCTIONAL,
        };
        #[cfg(target_arch = "x86_64")]
        if mqx_simd::avx512_detected() {
            return engine(from_engine::<Mqx<Avx512, P>>(name, Tier::Avx512));
        }
        engine(from_engine::<Mqx<Portable, P>>(name, Tier::Portable))
    }
}

/// The full MQX extension (`+M,C`) in functional mode: Table 2
/// semantics emulated lane by lane, bit-exact and slow.
pub fn mqx_functional() -> Engine {
    Engine::mqx::<profiles::McFunctional>("mqx-functional", "mqx-functional")
}

/// The full MQX extension (`+M,C`) in PISA mode: the Table 3 proxy
/// stream, representative cost and wrong numbers.
pub fn mqx_pisa() -> Engine {
    Engine::mqx::<profiles::McPisa>("mqx-pisa", "mqx-pisa")
}

/// The Figure 6 sensitivity set: `Base` (the registry instance of the
/// base engine) plus the five MQX component combinations, all in PISA
/// mode exactly as the paper measures them. `+M,C` is [`mqx_pisa`].
pub fn ablation_variants() -> Vec<Engine> {
    let base = if mqx_simd::avx512_detected() {
        "avx512"
    } else {
        "portable"
    };
    vec![
        Engine::registered("Base", base),
        Engine::mqx::<profiles::MPisa>("+M", "mqx+M-pisa"),
        Engine::mqx::<profiles::CPisa>("+C", "mqx+C-pisa"),
        Engine {
            label: "+M,C",
            ..mqx_pisa()
        },
        Engine::mqx::<profiles::MhCPisa>("+Mh,C", "mqx+MhC-pisa"),
        Engine::mqx::<profiles::McpPisa>("+M,C,P", "mqx+MCP-pisa"),
    ]
}

/// Every MQX component combination in functional (bit-exact) mode over
/// the portable engine: the §4.2 correctness side of the Figure 6
/// ablation. Each must agree with the scalar reference bit for bit.
pub fn functional_profiles() -> Vec<Engine> {
    fn profile<P: MqxProfile>(label: &'static str, name: &'static str) -> Engine {
        Engine {
            label,
            backend: from_engine::<Mqx<Portable, P>>(name, Tier::Portable),
            consumable: P::FUNCTIONAL,
        }
    }
    vec![
        profile::<profiles::MFunctional>("+M", "mqx+M-func"),
        profile::<profiles::CFunctional>("+C", "mqx+C-func"),
        profile::<profiles::McFunctional>("+M,C", "mqx+MC-func"),
        profile::<profiles::MhCFunctional>("+Mh,C", "mqx+MhC-func"),
        profile::<profiles::McpFunctional>("+M,C,P", "mqx+MCP-func"),
    ]
}

/// One Table 5/6 PISA-validation pair: a hardware tier, labelled with
/// the instruction under test, and the same engine with that
/// instruction swapped for its proxy, labelled with the proxy.
#[derive(Clone, Debug)]
pub struct ProxyPair {
    /// The ground truth: a registry backend, consumable.
    pub target: Engine,
    /// The proxied twin: never consumable.
    pub proxy: Engine,
}

impl ProxyPair {
    /// Pairs the registry's `base` tier with proxy engine `P`.
    fn new<P: SimdEngine>(
        base: &str,
        target: &'static str,
        proxy: &'static str,
        name: &'static str,
    ) -> ProxyPair {
        let target = Engine::registered(target, base);
        let tier = target.backend.tier();
        ProxyPair {
            target,
            proxy: Engine {
                label: proxy,
                backend: from_engine::<P>(name, tier),
                consumable: false,
            },
        }
    }
}

/// The Table 5/6 validation set for this host: each detected hardware
/// tier paired with its proxy-substituted twin, or the portable
/// methodology check when no vector hardware is present.
pub fn proxy_pairs() -> Vec<ProxyPair> {
    let mut pairs = Vec::new();

    #[cfg(target_arch = "x86_64")]
    {
        if mqx_simd::avx2_detected() {
            pairs.push(ProxyPair::new::<proxy::ProxyMul32<Avx2>>(
                "avx2",
                "_mm256_mul_epu32",
                "_mm256_mullo_epi32",
                "avx2-proxy-mul32",
            ));
        }
        if mqx_simd::avx512_detected() {
            pairs.push(ProxyPair::new::<proxy::ProxyMaskAdd<Avx512>>(
                "avx512",
                "_mm512_mask_add_epi64",
                "_mm512_add_epi64",
                "avx512-proxy-mask-add",
            ));
            pairs.push(ProxyPair::new::<proxy::ProxyMaskSub<Avx512>>(
                "avx512",
                "_mm512_mask_sub_epi64",
                "_mm512_sub_epi64",
                "avx512-proxy-mask-sub",
            ));
        }
    }

    if pairs.is_empty() {
        // No vector hardware: validate the methodology on the portable
        // engine (the proxies still swap real work for different work).
        pairs.push(ProxyPair::new::<proxy::ProxyMul32<Portable>>(
            "portable",
            "mul32_wide (portable)",
            "mullo32 (portable)",
            "portable-proxy-mul32",
        ));
        pairs.push(ProxyPair::new::<proxy::ProxyMaskAdd<Portable>>(
            "portable",
            "mask_add (portable)",
            "add (portable)",
            "portable-proxy-mask-add",
        ));
        pairs.push(ProxyPair::new::<proxy::ProxyMaskSub<Portable>>(
            "portable",
            "mask_sub (portable)",
            "sub (portable)",
            "portable-proxy-mask-sub",
        ));
    }

    pairs
}
