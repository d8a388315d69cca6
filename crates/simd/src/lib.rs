//! SIMD engines and the MQX ISA extension for vectorized 128-bit modular
//! arithmetic.
//!
//! This crate implements §3.2 and §4 of the paper. The central abstraction
//! is [`SimdEngine`]: a set of vector primitives that map one-to-one onto
//! AVX-512 (and AVX2) instructions, plus three *derived* operations —
//! [`SimdEngine::mul_wide`], [`SimdEngine::adc`] and [`SimdEngine::sbb`] —
//! whose default implementations are exactly the multi-instruction AVX-512
//! emulation sequences the paper starts from (Table 1, Listing 2), and
//! which the [`Mqx`] engine overrides with the proposed single-instruction
//! forms (Table 2).
//!
//! # Engines
//!
//! | Engine | Lanes | Availability | [`Token`] (the CPU check) | Paper tier |
//! |---|---|---|---|---|
//! | [`Portable`] | 8 | always | free | correctness anchor / scalar emulation |
//! | [`Avx2`] | 4 | x86-64 build + [`avx2_detected`] at runtime | once per kernel call | AVX2 |
//! | [`Avx512`] | 8 | x86-64 build + [`avx512_detected`] at runtime | once per kernel call | AVX-512 |
//! | [`Mqx<E, P>`] | as `E` | as `E` | `E`'s | MQX (Figure 6 profiles) |
//!
//! # Compile-time vs runtime availability
//!
//! The hardware engines are **compiled** into every x86-64 build — their
//! bodies are `#[target_feature]`-style intrinsics that the CPU validates
//! at execution time, not at load time — and must only be **executed**
//! after the matching [`avx2_detected`] / [`avx512_detected`] runtime
//! check passes. The `mqx` facade's backend registry performs that check
//! and is the supported way to reach the hardware engines; the registry
//! holds [`Portable`], [`Avx2`] and [`Avx512`] and nothing else. The
//! [`Mqx`] and [`proxy`] engines reproduce the paper's figures: the
//! `mqx_bench` crate wraps them with `mqx::backend::from_engine`. The
//! engines enforce the check themselves with a [`Token`]: every
//! constructor of a vector or mask (`splat`, `load`, the mask
//! constructors, and [`VDword`] / [`ResidueSoa`] loads on top of them)
//! takes one, and only
//! [`SimdEngine::token`] mints one — after the detection check, which
//! panics deterministically on an unsupported host instead of faulting.
//! [`SimdEngine::vectorize`] mints the token once per kernel call and
//! hands it to the kernel, so the check runs once per kernel, never per
//! vector, and the arithmetic runs none: a vector in hand proves it ran.
//!
//! An ordinary `cargo build --release` serves the vector tiers at full
//! speed: kernels run their vector loops inside
//! [`SimdEngine::vectorize`], the one function per engine that is
//! compiled with the engine's target features, and every engine op,
//! [`VDword`] / [`ResidueSoa`] accessor and modular op in this crate is
//! `#[inline(always)]` so the intrinsics inline into that frame. No
//! `-C target-cpu` flag is involved; the *compiled* column of
//! [`tier_summary`] only says whether the whole build happened to enable
//! the features and no longer predicts speed.
//!
//! # MQX modes
//!
//! Each [`MqxProfile`](profiles::MqxProfile) carries a `FUNCTIONAL` flag —
//! the same flag the paper describes in §4.2:
//!
//! * **functional** (`FUNCTIONAL = true`): every MQX instruction is
//!   emulated lane-by-lane per Table 2; results are bit-exact and checked
//!   against the scalar kernels.
//! * **PISA** (`FUNCTIONAL = false`): every MQX instruction executes as
//!   its Table 3 *proxy* (`vpmullq`, masked `vpaddq`/`vpsubq`). Timing is
//!   representative of the proposed hardware; **numerical results are
//!   deliberately wrong** and must never be consumed as values.
//!
//! # Example
//!
//! ```
//! use mqx_core::{Modulus, primes};
//! use mqx_simd::{Portable, SimdEngine, VDword, VModulus};
//!
//! let q = Modulus::new(primes::Q124)?;
//! let vq = VModulus::<Portable>::new(&q);
//! // Eight residues in structure-of-arrays (hi[], lo[]) form.
//! let t = Portable::token();
//! let a = VDword::<Portable>::broadcast(t, primes::Q124 - 1);
//! let b = VDword::<Portable>::broadcast(t, 2);
//! let c = mqx_simd::addmod(a, b, &vq);
//! assert_eq!(c.extract(0), 1); // (q-1) + 2 ≡ 1 (mod q)
//! # Ok::<(), mqx_core::ModulusError>(())
//! ```

#![warn(missing_docs)]

mod delegate;
mod dmod;
mod engine;
mod lanes;
mod mqx;
mod portable;
pub mod profiles;
pub mod proxy;
mod smod;
mod soa;

#[cfg(test)]
mod proptests;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

pub use dmod::{
    add_unreduced, addmod, addmod_lazy, addmod_listing3_faithful, mulmod, mulmod_karatsuba,
    mulmod_schoolbook, mulmod_shoup_lazy, reduce_2q_to_q, reduce_4q_to_2q, submod, submod_lazy,
    VDword, VModulus,
};
pub use engine::{SimdEngine, Token};
pub use lanes::{Lanes, OneLimb, TwoLimbs, MAX_LANES};
pub use mqx::Mqx;
pub use portable::Portable;
pub use smod::{
    add_unreduced_word, addmod_lazy_word, mulmod_shoup_lazy_word, mulmod_word, reduce_2q_to_q_word,
    reduce_4q_to_2q_word, submod_lazy_word,
};
pub use soa::{debug_assert_domain_soa, ResidueSoa};

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2;
#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512;

/// Returns `true` when this build was *compiled with* the AVX-512 target
/// features enabled for every function (e.g. via `-C target-cpu=native`
/// on an AVX-512 host). Kernels do not need it — their
/// [`SimdEngine::vectorize`] frames enable the features themselves — so
/// this is a build diagnostic, not a speed predictor. The engine itself
/// is compiled into every x86-64 build; see [`avx512_detected`] for
/// whether this machine can execute it.
pub const fn avx512_compiled() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512dq"
    ))
}

/// Returns `true` when this build was compiled with the AVX2 target
/// feature enabled. See [`avx2_detected`] for the runtime axis.
pub const fn avx2_compiled() -> bool {
    cfg!(all(target_arch = "x86_64", target_feature = "avx2"))
}

/// Returns `true` when the running CPU supports the AVX-512 subset the
/// [`Avx512`] engine needs (`avx512f` + `avx512dq`), regardless of the
/// flags this binary was compiled with.
#[inline]
pub fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Returns `true` when the running CPU supports AVX2.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// One-line description of the vector tiers, for benchmark reports.
///
/// Reports two axes per tier: *compiled* (the whole binary was built
/// with the tier's features, e.g. `-C target-cpu=native`; irrelevant to
/// kernel speed, which comes from the [`SimdEngine::vectorize`] frames)
/// and *detected* (this CPU can execute the tier; when it cannot, the
/// backend registry does not offer it).
pub fn tier_summary() -> String {
    let axis = |compiled: bool, detected: bool| {
        format!(
            "compiled:{}/detected:{}",
            if compiled { "yes" } else { "no" },
            if detected { "yes" } else { "no" },
        )
    };
    format!(
        "portable=yes avx2={} avx512={}",
        axis(avx2_compiled(), avx2_detected()),
        axis(avx512_compiled(), avx512_detected()),
    )
}

#[cfg(test)]
mod feature_tests {
    use super::*;

    #[test]
    fn summary_reports_both_axes_for_both_tiers() {
        let s = tier_summary();
        assert!(s.starts_with("portable=yes"), "{s}");
        for tier in ["avx2=", "avx512="] {
            let rest = s.split(tier).nth(1).expect(tier);
            assert!(rest.starts_with("compiled:"), "{s}");
            assert!(rest.contains("/detected:"), "{s}");
        }
    }

    #[test]
    fn compiled_implies_detected_on_this_host() {
        // A binary compiled with the features enabled is necessarily
        // running on a host that has them (it would have trapped long
        // before reaching this test otherwise).
        if avx512_compiled() {
            assert!(avx512_detected());
        }
        if avx2_compiled() {
            assert!(avx2_detected());
        }
    }
}
