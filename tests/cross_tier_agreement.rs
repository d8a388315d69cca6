//! Integration: the same polynomial product computed by every tier and
//! baseline in the workspace must agree bit for bit (the paper's §5.3
//! "bitwise-identical results" requirement).
//!
//! Vector tiers are reached exclusively through the facade's
//! runtime-dispatch registry (`mqx::backend`): the test iterates
//! whatever backends this host actually offers, so the same test binary
//! covers AVX-512 on capable machines and degrades to AVX2/portable
//! elsewhere — no `cfg(target_feature)`, no concrete engine types. The
//! functional MQX engines, which the registry does not hold, pass the
//! same checks in `crates/bench/tests/functional_agreement.rs`.

use mqx::backend;
use mqx::baseline::fhe::{FheBackend, FheNtt};
use mqx::baseline::gmp::{GmpNtt, GmpRing};
use mqx::core::{nt, primes, Modulus};
use mqx::ntt::{naive, polymul, NttPlan};
use mqx::simd::ResidueSoa;
use mqx::{Coefficients, PolyOp, PolyRing, Ring, RingOp};

const N: usize = 256;

fn workload(q: u128) -> (Vec<u128>, Vec<u128>) {
    let mut state = 0x1234_5678_9ABC_DEF0_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        u128::from(state)
    };
    let a: Vec<u128> = (0..N).map(|_| next() % q).collect();
    let b: Vec<u128> = (0..N).map(|_| next() % q).collect();
    (a, b)
}

#[test]
fn every_forward_ntt_agrees() {
    let m = Modulus::new_prime(primes::Q124).unwrap();
    let plan = NttPlan::new(&m, N).unwrap();
    let (a, _) = workload(m.value());

    // Oracle: Eq. 11 verbatim.
    let expected = naive::dft(&a, plan.omega(), &m);

    // Optimized scalar (iterative CT).
    let mut ct = a.clone();
    plan.forward_scalar(&mut ct);
    assert_eq!(ct, expected, "scalar CT");

    // Pease constant-geometry, scalar arithmetic.
    let mut pease = a.clone();
    let mut scratch = vec![0_u128; N];
    plan.forward_pease_scalar(&mut pease, &mut scratch);
    assert_eq!(pease, expected, "pease scalar");

    // Every runtime-discovered vector backend (portable, AVX2/AVX-512
    // where detected).
    for b in backend::available() {
        let mut soa = ResidueSoa::from_u128s(&a);
        let mut soa_scratch = ResidueSoa::zeros(N);
        b.forward_ntt(&plan, &mut soa, &mut soa_scratch);
        assert_eq!(soa.to_u128s(), expected, "{} forward", b.name());
    }

    // OpenFHE-style baseline.
    let omega = nt::root_of_unity(&m, N as u64).unwrap();
    let fhe = FheNtt::new(FheBackend::new(m.value()), N, omega);
    let mut fhe_buf = a.clone();
    fhe.forward(&mut fhe_buf);
    assert_eq!(fhe_buf, expected, "openfhe-like");

    // GMP-style baseline.
    let ring = GmpRing::new(m.value());
    let gmp = GmpNtt::new(GmpRing::new(m.value()), N, omega);
    let mut big = ring.lift(&a);
    gmp.forward(&mut big);
    assert_eq!(ring.lower(&big), expected, "gmp");
}

#[test]
fn polynomial_products_agree_across_paths() {
    let m = Modulus::new_prime(primes::Q124).unwrap();
    let plan = NttPlan::new(&m, N).unwrap();
    let (a, b) = workload(m.value());

    let schoolbook = polymul::schoolbook_cyclic(&a, &b, &m);
    assert_eq!(polymul::polymul_cyclic(&plan, &a, &b), schoolbook);

    let schoolbook_neg = polymul::schoolbook_negacyclic(&a, &b, &m);
    assert_eq!(
        polymul::polymul_negacyclic(&plan, &a, &b).unwrap(),
        schoolbook_neg
    );
}

/// The dispatch-layer agreement check: every discovered backend's
/// polynomial product must be bit-identical to the portable backend's.
#[test]
fn every_backend_polymul_is_bit_identical_to_portable() {
    let (a, b) = workload(primes::Q124);

    let portable = backend::by_name("portable").expect("portable always registered");
    let reference_cyclic = Ring::builder(primes::Q124, N)
        .backend(portable.clone())
        .build()
        .unwrap()
        .polymul_cyclic(&a, &b)
        .unwrap();
    let reference_nega = Ring::builder(primes::Q124, N)
        .backend(portable)
        .build()
        .unwrap()
        .polymul_negacyclic(&a, &b)
        .unwrap();

    for backend in backend::available() {
        let name = backend.name();
        let ring = Ring::builder(primes::Q124, N)
            .backend(backend)
            .build()
            .unwrap();
        assert_eq!(
            ring.polymul_cyclic(&a, &b).unwrap(),
            reference_cyclic,
            "{name} cyclic"
        );
        assert_eq!(
            ring.polymul_negacyclic(&a, &b).unwrap(),
            reference_nega,
            "{name} negacyclic"
        );
    }
}

/// The lazy-reduction fused pipeline is part of the same §5.3 bitwise
/// contract: on every tier, the fused path must reproduce the
/// `lazy(false)` reference ring (scalar Cooley–Tukey, canonical Barrett)
/// exactly — lazy 2q/4q domains and Shoup butterflies change the
/// arithmetic route, never the bits.
#[test]
fn every_backend_fused_polymul_is_bit_identical_to_canonical_portable() {
    let (a, b) = workload(primes::Q124);

    let canonical_portable = Ring::builder(primes::Q124, N)
        .backend_name("portable")
        .lazy(false)
        .build()
        .unwrap();
    let reference_cyclic = canonical_portable.polymul_cyclic(&a, &b).unwrap();
    let reference_nega = canonical_portable.polymul_negacyclic(&a, &b).unwrap();

    for backend in backend::available() {
        let name = backend.name();
        let fused = Ring::builder(primes::Q124, N)
            .backend(backend)
            .lazy(true)
            .build()
            .unwrap();
        assert_eq!(
            fused.polymul_cyclic(&a, &b).unwrap(),
            reference_cyclic,
            "{name} fused cyclic"
        );
        assert_eq!(
            fused.polymul_negacyclic(&a, &b).unwrap(),
            reference_nega,
            "{name} fused negacyclic"
        );
    }
}

#[test]
fn blas_tiers_agree_with_baselines() {
    let m = Modulus::new(primes::Q124).unwrap();
    let (a, b) = workload(m.value());

    let scalar_sum = mqx::blas::scalar::vadd(&a, &b, &m);
    let scalar_prod = mqx::blas::scalar::vmul(&a, &b, &m);

    // Every vector backend.
    let sa = ResidueSoa::from_u128s(&a);
    let sb = ResidueSoa::from_u128s(&b);
    for backend in backend::available() {
        let mut out = ResidueSoa::zeros(N);
        backend.vadd(&sa, &sb, &mut out, &m);
        assert_eq!(out.to_u128s(), scalar_sum, "{} vadd", backend.name());
        backend.vmul(&sa, &sb, &mut out, &m);
        assert_eq!(out.to_u128s(), scalar_prod, "{} vmul", backend.name());
    }

    // Division-based baseline.
    let fhe = FheBackend::new(m.value());
    assert_eq!(mqx::baseline::fhe::blas::vadd(&fhe, &a, &b), scalar_sum);
    assert_eq!(mqx::baseline::fhe::blas::vmul(&fhe, &a, &b), scalar_prod);

    // Arbitrary-precision baseline.
    let ring = GmpRing::new(m.value());
    let (ba, bb) = (ring.lift(&a), ring.lift(&b));
    assert_eq!(ring.lower(&ring.vadd(&ba, &bb)), scalar_sum);
    assert_eq!(ring.lower(&ring.vmul(&ba, &bb)), scalar_prod);
}

/// Deterministic residues below `q` for the edge-shape tests, with the
/// wrap-around extremes `q − 1` and `0` up front.
fn residues(len: usize, q: u128, seed: u64) -> Vec<u128> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i {
                0 => q - 1,
                1 => 0,
                _ => ((u128::from(state) << 64) | u128::from(!state)) % q,
            }
        })
        .collect()
}

/// The element-wise kernels run a vector body inside the engine's
/// target-feature frame and finish with a scalar tail: lengths below,
/// at and just past one vector (4 lanes on AVX2, 8 elsewhere), and a
/// long body with a 3-element tail, must all match the scalar oracle
/// on every backend — the wide word modulus and one
/// word-sized RNS channel prime.
#[test]
fn elementwise_kernels_match_scalar_at_ragged_lengths() {
    for q in [primes::Q124, primes::Q62] {
        let m = Modulus::new(q).unwrap();
        for len in [1, 7, 8, 9, 17, 4096 + 3] {
            let x = residues(len, q, 0xA11CE);
            let y = residues(len, q, 0xB0B);
            let scale = q - 2;
            let sum = mqx::blas::scalar::vadd(&x, &y, &m);
            let diff = mqx::blas::scalar::vsub(&x, &y, &m);
            let prod = mqx::blas::scalar::vmul(&x, &y, &m);
            let mut fma = y.clone();
            mqx::blas::scalar::axpy(scale, &x, &mut fma, &m);

            let (sx, sy) = (ResidueSoa::from_u128s(&x), ResidueSoa::from_u128s(&y));
            for backend in backend::available() {
                let what = format!("{} q={q:#x} len={len}", backend.name());
                let mut out = ResidueSoa::zeros(len);
                backend.vadd(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), sum, "{what} vadd");
                backend.vsub(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), diff, "{what} vsub");
                backend.vmul(&sx, &sy, &mut out, &m);
                assert_eq!(out.to_u128s(), prod, "{what} vmul");
                let mut acc = sy.clone();
                backend.axpy(scale, &sx, &mut acc, &m);
                assert_eq!(acc.to_u128s(), fma, "{what} axpy");
            }
        }
    }
}

/// Transforms with `n/2` below the lane count take the scalar-butterfly
/// branch of the Pease kernels *inside* the frame (n ≤ 8 on 8-lane
/// engines, n ≤ 4 on AVX2); n = 16 is the first all-vector size.
/// Forward, inverse and both fused products must match the scalar
/// references on every backend.
#[test]
fn tiny_transforms_match_scalar_on_every_backend() {
    for q in [primes::Q124, primes::Q62] {
        let m = Modulus::new_prime(q).unwrap();
        for n in [2, 4, 8, 16] {
            let plan = NttPlan::new(&m, n).unwrap();
            let a = residues(n, q, 0xFACE);
            let b = residues(n, q, 0xFEED);
            let mut spectrum = a.clone();
            plan.forward_scalar(&mut spectrum);
            let cyclic = polymul::schoolbook_cyclic(&a, &b, &m);
            let negacyclic = polymul::schoolbook_negacyclic(&a, &b, &m);

            for backend in backend::available() {
                let what = format!("{} q={q:#x} n={n}", backend.name());
                let mut scratch = ResidueSoa::zeros(n);

                let mut x = ResidueSoa::from_u128s(&a);
                backend.forward_ntt(&plan, &mut x, &mut scratch);
                assert_eq!(x.to_u128s(), spectrum, "{what} forward");
                backend.inverse_ntt(&plan, &mut x, &mut scratch);
                assert_eq!(x.to_u128s(), a, "{what} inverse");

                let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                backend.polymul_cyclic_fused(&plan, &mut sa, &mut sb, &mut scratch);
                assert_eq!(sa.to_u128s(), cyclic, "{what} fused cyclic");

                let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                backend
                    .polymul_negacyclic_fused(&plan, &mut sa, &mut sb, &mut scratch)
                    .unwrap();
                assert_eq!(sa.to_u128s(), negacyclic, "{what} fused negacyclic");
            }
        }
    }
}

/// The calibrated auto pick's products must be bit-identical to the
/// portable reference — whatever tier the startup measurement ranked
/// first on this host.
#[test]
fn calibrated_auto_pick_agrees_with_portable() {
    let (a, b) = workload(primes::Q124);

    let auto_ring = Ring::auto(primes::Q124, N).unwrap();
    let portable_ring = Ring::builder(primes::Q124, N)
        .backend_name("portable")
        .build()
        .unwrap();
    assert_eq!(
        auto_ring.polymul_cyclic(&a, &b).unwrap(),
        portable_ring.polymul_cyclic(&a, &b).unwrap(),
        "calibrated pick '{}' cyclic",
        auto_ring.backend().name()
    );
    assert_eq!(
        auto_ring.polymul_negacyclic(&a, &b).unwrap(),
        portable_ring.polymul_negacyclic(&a, &b).unwrap(),
        "calibrated pick '{}' negacyclic",
        auto_ring.backend().name()
    );
}

/// The op-vocabulary agreement check: every backend tier
/// must produce bit-identical `Add` and `Rescale` outputs — the word
/// ring's vector-add path dispatches through the pinned backend, and
/// the RNS rescale runs per channel over backend-opened rings.
#[test]
fn every_backend_tier_agrees_on_add_and_rescale() {
    use mqx::bignum::BigUint;
    use mqx::{Coefficients, PolyRing, RingOp, RnsRing};

    // Word-ring Add across every tier vs portable.
    let (a, b) = workload(primes::Q124);
    let a_c = Coefficients::Word(a);
    let b_c = Coefficients::Word(b);
    let portable = Ring::builder(primes::Q124, N)
        .backend_name("portable")
        .build()
        .unwrap();
    let reference_add = portable.apply(&RingOp::Add, &a_c, Some(&b_c)).unwrap();
    for backend in backend::available() {
        let name = backend.name();
        let ring = Ring::builder(primes::Q124, N)
            .backend(backend)
            .build()
            .unwrap();
        assert_eq!(
            ring.apply(&RingOp::Add, &a_c, Some(&b_c)).unwrap(),
            reference_add,
            "{name} word add"
        );
    }

    // RNS Add + Rescale: the same two-channel basis pinned per tier.
    let basis = [primes::Q62, primes::Q30];
    let rns = |name: &str| {
        RnsRing::builder(N)
            .moduli(&basis)
            .backend_name(name)
            .build()
            .unwrap()
    };
    let portable_rns = rns("portable");
    let product = portable_rns.product_modulus().clone();
    let coeffs = |seed: u64| -> Coefficients {
        let mut state = seed;
        Coefficients::Big(
            (0..N)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    BigUint::from(u128::from(state))
                        .mul_mod(&BigUint::from(u128::from(!state)), &product)
                })
                .collect::<Vec<BigUint>>(),
        )
    };
    let ra = coeffs(0xC0FFEE);
    let rb = coeffs(0xF00D);
    let reference_add = portable_rns.apply(&RingOp::Add, &ra, Some(&rb)).unwrap();
    let reference_rescale = portable_rns.apply(&RingOp::Rescale, &ra, None).unwrap();
    for backend in backend::available() {
        let name = backend.name();
        let ring = rns(name);
        assert_eq!(
            ring.apply(&RingOp::Add, &ra, Some(&rb)).unwrap(),
            reference_add,
            "{name} rns add"
        );
        assert_eq!(
            ring.apply(&RingOp::Rescale, &ra, None).unwrap(),
            reference_rescale,
            "{name} rns rescale"
        );
    }
}

#[test]
fn two_field_crt_consistency() {
    // RNS invariant, now through the sharded front door: an `RnsRing`
    // product over coprime channels must recombine to exactly the value
    // a direct product modulo Q = ∏ qᵢ would give (checks that
    // independent moduli behave as independent rings end to end). The
    // scalar seed of this test — residues of a wide product agreeing
    // channel by channel — is the k = 1 slice of the same assertion.
    use mqx::bignum::BigUint;
    use mqx::RnsRing;

    let a_scalar = 123_456_789_012_345_u128;
    let b_scalar = 987_654_321_098_765_u128;
    let exact = a_scalar * b_scalar; // fits u128

    // Two channels, then the 3-channel extension: the same inputs must
    // recombine identically however finely the basis shards.
    for basis in [
        &[primes::Q62, primes::Q30][..],
        &[primes::Q62, primes::Q30, primes::Q14][..],
    ] {
        let ring = RnsRing::builder(N).moduli(basis).build().unwrap();

        // Per-channel residues of the wide product still agree with
        // direct per-field arithmetic (the original scalar invariant).
        for (&q, ring) in basis.iter().zip(ring.rings()) {
            let m = ring.modulus();
            assert_eq!(
                m.mul_mod(a_scalar % q, b_scalar % q),
                exact % q,
                "channel {q}"
            );
        }

        // Polynomial form: constant polynomials a·b must recombine to
        // the exact wide product reduced mod Q.
        let product_q = ring.product_modulus().clone();
        let mut a = vec![BigUint::zero(); N];
        let mut b = vec![BigUint::zero(); N];
        a[0] = &BigUint::from(a_scalar) % &product_q;
        b[0] = &BigUint::from(b_scalar) % &product_q;
        let cyclic = RingOp::Polymul(PolyOp::Cyclic);
        let out = ring.apply(&cyclic, &a.into(), Some(&b.into())).unwrap();
        let out = out.into_bigs().unwrap();
        assert_eq!(out[0], &BigUint::from(exact) % &product_q, "{basis:?}");
        assert!(out[1..].iter().all(BigUint::is_zero));

        // And the decompose → recombine boundary is the identity.
        let coeffs: Vec<BigUint> = (0..N as u64)
            .map(|i| &BigUint::from(exact.wrapping_mul(u128::from(i * 2 + 1))) % &product_q)
            .collect();
        let coeffs = Coefficients::Big(coeffs);
        let channels = ring.split(&coeffs).unwrap();
        assert_eq!(channels.len(), basis.len());
        let joined = ring.join_at(basis.len(), channels).unwrap();
        assert_eq!(joined, coeffs, "{basis:?}");
    }
}
