//! Integration: the `Ring`/`Backend` runtime-dispatch front door.
//!
//! These tests encode the API's host-portability contract: `Ring::auto`
//! must select a working backend on any machine (AVX-512 server or
//! plain x86-64 container), a pinned `"portable"` ring must behave
//! identically to the scalar reference, and the registry must reflect
//! what the CPU actually reports.

use mqx::backend::{self, Tier};
use mqx::core::{primes, Modulus};
use mqx::simd::ResidueSoa;
use mqx::{Error, Ring};

const N: usize = 128;

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
fn auto_selects_a_working_consumable_backend() {
    let ring = Ring::auto(primes::Q124, N).unwrap();
    assert!(
        backend::names().contains(&ring.backend().name()),
        "auto picks a registry (hardware) tier"
    );

    // And it actually works: NTT round trip restores the input.
    let xs = poly(N, primes::Q124, 0xDECAF);
    let mut soa = ResidueSoa::from_u128s(&xs);
    ring.forward(&mut soa).unwrap();
    assert_ne!(soa.to_u128s(), xs, "forward transform changes the data");
    ring.inverse(&mut soa).unwrap();
    assert_eq!(soa.to_u128s(), xs, "roundtrip on {}", ring.backend().name());
}

#[test]
fn auto_matches_the_measured_calibration() {
    // Auto selection follows the startup measurement, not a
    // compile-flag guess: whatever tier the calibration ranked first
    // on this (binary, machine) pair is the one the ring runs on —
    // unless the documented MQX_BACKEND pin overrides it, in which
    // case the pin wins and the winner comparison does not apply.
    let ring = Ring::auto(primes::Q124, N).unwrap();
    let cal = backend::calibration();
    match std::env::var("MQX_BACKEND") {
        Ok(pin) if !pin.is_empty() => assert_eq!(ring.backend().name(), pin),
        _ => assert_eq!(ring.backend().name(), cal.winner().name()),
    }

    // The prediction the measurement is validated against: the widest
    // tier the host can execute (detected). Build flags play no part —
    // the kernels enable their own target features.
    let expected_widest = if mqx::simd::avx512_detected() {
        "avx512"
    } else if mqx::simd::avx2_detected() {
        "avx2"
    } else {
        "portable"
    };
    assert_eq!(backend::default_backend().name(), expected_widest);
}

/// The forced-portable check from the acceptance criteria: pinning the
/// tier that exists on every host must work everywhere and agree with
/// the scalar reference bit for bit.
#[test]
fn forced_portable_ring_works_on_any_host() {
    let q = primes::Q124;
    let ring = Ring::builder(q, N)
        .backend_name("portable")
        .build()
        .unwrap();
    assert_eq!(ring.backend().name(), "portable");
    assert_eq!(ring.backend().tier(), Tier::Portable);

    let a = poly(N, q, 1);
    let b = poly(N, q, 2);
    let m = Modulus::new_prime(q).unwrap();
    assert_eq!(
        ring.polymul_cyclic(&a, &b).unwrap(),
        mqx::ntt::polymul::schoolbook_cyclic(&a, &b, &m)
    );
    assert_eq!(
        ring.polymul_negacyclic(&a, &b).unwrap(),
        mqx::ntt::polymul::schoolbook_negacyclic(&a, &b, &m)
    );
}

#[test]
fn builder_pins_each_available_backend() {
    for b in backend::available() {
        let name = b.name();
        let ring = Ring::builder(primes::Q124, N).backend(b).build().unwrap();
        assert_eq!(ring.backend().name(), name);
        // The same backend is reachable by name.
        let by_name = Ring::builder(primes::Q124, N)
            .backend_name(name)
            .build()
            .unwrap();
        assert_eq!(by_name.backend().name(), name);
    }
}

#[test]
fn registry_and_ring_report_consistent_metadata() {
    for b in backend::available() {
        assert!(
            b.lanes() == 4 || b.lanes() == 8,
            "{}: {}",
            b.name(),
            b.lanes()
        );
        match b.tier() {
            Tier::Avx2 => assert_eq!(b.lanes(), 4, "{}", b.name()),
            Tier::Avx512 => assert_eq!(b.lanes(), 8, "{}", b.name()),
            Tier::Portable => assert_eq!(b.lanes(), 8, "{}", b.name()),
            _ => {}
        }
    }
}

#[test]
fn unknown_backend_error_lists_what_exists() {
    let err = Ring::builder(primes::Q124, N)
        .backend_name("quantum")
        .build()
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("quantum"), "{msg}");
    assert!(msg.contains("portable"), "{msg}");
    match err {
        Error::UnknownBackend { available, .. } => {
            assert_eq!(available, backend::names());
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn repeated_transforms_reuse_ring_buffers() {
    // The scratch-reuse contract: a ring survives many transforms and
    // products with stable results (nothing is freed or clobbered
    // between calls).
    let q = primes::Q124;
    let ring = Ring::auto(q, N).unwrap();
    let a = poly(N, q, 3);
    let b = poly(N, q, 4);
    let first = ring.polymul_negacyclic(&a, &b).unwrap();
    for _ in 0..10 {
        assert_eq!(ring.polymul_negacyclic(&a, &b).unwrap(), first);
    }
    // Interleave with cyclic products and raw transforms.
    let cyclic = ring.polymul_cyclic(&a, &b).unwrap();
    let mut soa = ResidueSoa::from_u128s(&a);
    ring.forward(&mut soa).unwrap();
    ring.inverse(&mut soa).unwrap();
    assert_eq!(soa.to_u128s(), a);
    assert_eq!(ring.polymul_cyclic(&a, &b).unwrap(), cyclic);
    assert_eq!(ring.polymul_negacyclic(&a, &b).unwrap(), first);
}

#[test]
fn tier_summary_reports_runtime_detection() {
    // Benchmark reports read both axes of the summary: whether the whole
    // build enabled a tier's features and whether this host detects it.
    let s = mqx::simd::tier_summary();
    assert!(s.contains("compiled:"), "{s}");
    assert!(s.contains("detected:"), "{s}");
    let avx512 = mqx::simd::avx512_detected();
    assert!(
        s.contains(&format!(
            "avx512=compiled:{}/detected:{}",
            if mqx::simd::avx512_compiled() {
                "yes"
            } else {
                "no"
            },
            if avx512 { "yes" } else { "no" },
        )),
        "{s}"
    );
}
