//! Integration: the RNS-domain op vocabulary against independent
//! oracles. `Rescale` and `BasisExtend` run entirely in residue
//! arithmetic inside the ring; here their outputs are pinned against
//! (a) big-integer schoolbook evaluation of the same definition and
//! (b) the OpenFHE-style `FheRnsNtt` baseline, over seeded loops and
//! every basis size k ∈ {1, 2, 3}. A pair of tests drives mixed-op
//! priority batches through the executor and demands bit-identity with
//! sequential `apply` execution, and a last pair pins the evaluation
//! primitive's own contract: malformed direct calls error instead of
//! panicking, and `out` is reused for every op at every width.

mod common;

use common::submit_and_join;
use mqx::baseline::fhe::FheRnsNtt;
use mqx::bignum::BigUint;
use mqx::core::{nt, primes, Modulus};
use mqx::{
    Coefficients, Error, PolyOp, PolyRing, Priority, Ring, RingExecutor, RingOp, RingRequest,
    RnsRing,
};
use std::sync::Arc;

const N: usize = 64;

/// The k = 1, 2, 3 bases the seeded loops sweep (all NTT-friendly at
/// `N` for both cyclic and negacyclic products).
const BASES: [&[u128]; 3] = [
    &[primes::Q62],
    &[primes::Q62, primes::Q30],
    &[primes::Q62, primes::Q30, primes::Q14],
];

fn big_coeffs(n: usize, product: &BigUint, seed: u64) -> Vec<BigUint> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let hi = BigUint::from(u128::from(state));
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            hi.mul_mod(&BigUint::from(u128::from(state)), product)
        })
        .collect()
}

/// The baseline oracle over the same basis (roots of unity supplied
/// from the optimized number theory, as `FheRnsNtt` requires).
fn oracle(basis: &[u128]) -> FheRnsNtt {
    let omegas: Vec<u128> = basis
        .iter()
        .map(|&q| {
            nt::root_of_unity(&Modulus::new_prime(q).unwrap(), N as u64).expect("root exists")
        })
        .collect();
    FheRnsNtt::new(basis, N, &omegas)
}

#[test]
fn rescale_matches_schoolbook_and_baseline_oracle() {
    for basis in [BASES[1], BASES[2]] {
        let k = basis.len();
        let ring = RnsRing::builder(N).moduli(basis).build().unwrap();
        assert_eq!(
            ring.op_output_channels_at(&RingOp::Rescale, k).unwrap(),
            k - 1
        );
        let product = ring.product_modulus().clone();
        let fhe = oracle(basis);
        let q_last = BigUint::from(basis[k - 1]);
        let half = BigUint::from(basis[k - 1] / 2);
        let (reduced, _) = product.div_rem(&q_last);

        for round in 0..5_u64 {
            let a = big_coeffs(N, &product, 0x5CA1E ^ (round << 8));
            let got = ring
                .apply(&RingOp::Rescale, &Coefficients::Big(a.clone()), None)
                .unwrap();

            // Big-integer schoolbook of the same definition:
            // ⌊(x + ⌊q_last/2⌋)/q_last⌋ mod Q′.
            let schoolbook: Vec<BigUint> = a
                .iter()
                .map(|x| {
                    let (quot, _) = (x + &half).div_rem(&q_last);
                    let (_, rem) = quot.div_rem(&reduced);
                    rem
                })
                .collect();
            assert_eq!(got, Coefficients::Big(schoolbook), "k={k} round={round}");

            // And the OpenFHE-style baseline agrees.
            assert_eq!(
                got,
                Coefficients::Big(fhe.rescale(&a)),
                "k={k} round={round} oracle"
            );
        }
    }
}

#[test]
fn rescale_rejects_bases_with_nothing_to_keep() {
    // k = 1: dropping the only channel leaves no ring to express the
    // result in.
    let ring = RnsRing::builder(N).moduli(BASES[0]).build().unwrap();
    assert!(matches!(
        ring.apply(
            &RingOp::Rescale,
            &Coefficients::Big(vec![BigUint::zero(); N]),
            None
        ),
        Err(Error::UnsupportedOp { op: "rescale", .. })
    ));
    // A single-modulus word ring has no RNS channel structure at all.
    let word = Ring::auto(primes::Q124, N).unwrap();
    assert!(matches!(
        word.apply(&RingOp::Rescale, &Coefficients::Word(vec![0; N]), None),
        Err(Error::UnsupportedOp { op: "rescale", .. })
    ));
}

#[test]
fn basis_extend_roundtrips_and_matches_baseline_oracle() {
    for basis in BASES {
        let k = basis.len();
        let ring = RnsRing::builder(N).moduli(basis).build().unwrap();
        let product = ring.product_modulus().clone();
        let fhe = oracle(basis);

        for extra in [1_usize, 2] {
            let op = RingOp::BasisExtend {
                extra_channels: extra,
            };
            assert_eq!(ring.op_output_channels_at(&op, k).unwrap(), k + extra);
            let extended = ring.extended_moduli(extra).unwrap();
            assert_eq!(extended.len(), k + extra);
            assert_eq!(&extended[..k], basis, "source channels pass through");

            for round in 0..3_u64 {
                let a = big_coeffs(N, &product, 0xBA515 ^ (round << 8) ^ (extra as u64));
                let coeffs = Coefficients::Big(a.clone());

                // Roundtrip: recombining over the larger basis is the
                // identity, because the value never left [0, Q).
                let got = ring.apply(&op, &coeffs, None).unwrap();
                assert_eq!(got, Coefficients::Big(a.clone()), "k={k} extra={extra}");

                // Channel for channel, the digit-folding path must land
                // on the baseline's directly-reduced residues.
                let residues = ring.split(&coeffs).unwrap();
                let rows = fhe.basis_extend(&a, &extended);
                for (t, row) in rows.iter().enumerate() {
                    assert_eq!(
                        &ring.channel_apply_at(&op, k, t, &residues, None).unwrap(),
                        row,
                        "k={k} extra={extra} channel={t}"
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_op_priority_batch_matches_sequential_rns() {
    let concrete = RnsRing::auto(3, N).unwrap();
    let product = concrete.product_modulus().clone();
    let ring: Arc<dyn PolyRing> = Arc::new(concrete);
    let pool = RingExecutor::new(2).unwrap();

    let classes = [Priority::High, Priority::Normal, Priority::Low];
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for i in 0..24_u64 {
        let a = Coefficients::Big(big_coeffs(N, &product, 0xA1 ^ i));
        let b = Coefficients::Big(big_coeffs(N, &product, 0xB2 ^ (i << 1)));
        let (op, request) = match i % 6 {
            0 => (
                RingOp::Polymul(PolyOp::Negacyclic),
                RingRequest::polymul(PolyOp::Negacyclic, a.clone(), b.clone()),
            ),
            1 => (
                RingOp::Polymul(PolyOp::Cyclic),
                RingRequest::polymul(PolyOp::Cyclic, a.clone(), b.clone()),
            ),
            2 => (RingOp::Add, RingRequest::add(a.clone(), b.clone())),
            3 => (RingOp::Sub, RingRequest::sub(a.clone(), b.clone())),
            4 => (RingOp::Rescale, RingRequest::rescale(a.clone())),
            _ => (
                RingOp::BasisExtend { extra_channels: 1 },
                RingRequest::basis_extend(a.clone(), 1),
            ),
        };
        let b_ref = op.is_binary().then_some(&b);
        expected.push(ring.apply(&op, &a, b_ref).unwrap());
        requests.push(request.with_priority(classes[i as usize % classes.len()]));
    }

    let served = submit_and_join(&pool, &ring, requests).expect("mixed-op batch");
    assert_eq!(served, expected, "pool must match sequential apply");
}

#[test]
fn mixed_op_priority_batch_matches_sequential_word_ring() {
    let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, N).unwrap());
    let pool = RingExecutor::new(2).unwrap();

    let poly = |seed: u64| -> Coefficients {
        let mut state = seed;
        Coefficients::Word(
            (0..N)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    u128::from(state) % primes::Q124
                })
                .collect(),
        )
    };

    let classes = [Priority::Low, Priority::High, Priority::Normal];
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for i in 0..12_u64 {
        let a = poly(0x11 + i);
        let b = poly(0x22 + i);
        let (op, request) = match i % 4 {
            0 => (
                RingOp::Polymul(PolyOp::Negacyclic),
                RingRequest::polymul(PolyOp::Negacyclic, a.clone(), b.clone()),
            ),
            1 => (
                RingOp::Polymul(PolyOp::Cyclic),
                RingRequest::polymul(PolyOp::Cyclic, a.clone(), b.clone()),
            ),
            2 => (RingOp::Add, RingRequest::add(a.clone(), b.clone())),
            _ => (RingOp::Sub, RingRequest::sub(a.clone(), b.clone())),
        };
        let b_ref = op.is_binary().then_some(&b);
        expected.push(ring.apply(&op, &a, b_ref).unwrap());
        requests.push(request.with_priority(classes[i as usize % classes.len()]));
    }

    let served = submit_and_join(&pool, &ring, requests).expect("mixed-op batch");
    assert_eq!(served, expected, "pool must match sequential apply");
}

const EVERY_OP: [RingOp; 6] = [
    RingOp::Polymul(PolyOp::Cyclic),
    RingOp::Polymul(PolyOp::Negacyclic),
    RingOp::Add,
    RingOp::Sub,
    RingOp::Rescale,
    RingOp::BasisExtend { extra_channels: 1 },
];

/// Channel-major residues over `moduli`, as an op chain would hold them
/// at that width.
fn residues(moduli: &[u128], seed: u64) -> Vec<Vec<u128>> {
    let mut state = seed;
    moduli
        .iter()
        .map(|&q| {
            (0..N)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    u128::from(state) % q
                })
                .collect()
        })
        .collect()
}

/// A direct trait call with no channels at all, or with a second
/// operand narrower than the first, is an error for every op — the
/// primitive checks the splits before it indexes them.
#[test]
fn zero_width_and_short_operands_error_instead_of_panicking() {
    let rns = RnsRing::builder(N).moduli(BASES[2]).build().unwrap();
    let word = Ring::auto(primes::Q124, N).unwrap();
    let a = residues(BASES[2], 0x0DD);
    let mut out = Vec::new();
    for op in EVERY_OP {
        for ring in [&rns as &dyn PolyRing, &word] {
            for b in [None, Some(&[][..])] {
                assert!(
                    ring.channel_apply_at_into(&op, 0, 0, &[], b, &mut out)
                        .is_err(),
                    "{op} at width 0"
                );
            }
        }
        let err = rns
            .channel_apply_at_into(&op, 3, 0, &a, Some(&a[..2]), &mut out)
            .unwrap_err();
        if op.is_binary() {
            assert!(
                matches!(
                    err,
                    Error::ChannelCountMismatch {
                        expected: 3,
                        got: 2
                    }
                ),
                "{op}: {err}"
            );
        } else {
            assert!(
                matches!(err, Error::OperandCountMismatch { got: 2, .. }),
                "{op}: {err}"
            );
        }
        assert!(
            rns.channel_apply_at_into(&op, 3, 0, &a[..2], None, &mut out)
                .is_err(),
            "{op} with a narrower than the width"
        );
    }
}

/// Runs every output channel of `op` twice into the same vector: the
/// second call must keep the allocation (capacity and pointer) and
/// still produce what the allocating form does.
fn assert_out_is_reused(ring: &dyn PolyRing, op: &RingOp, a: &[Vec<u128>]) {
    let width = a.len();
    let b = op.is_binary().then_some(a);
    for channel in 0..ring.op_output_channels_at(op, width).unwrap() {
        let mut out = Vec::new();
        ring.channel_apply_at_into(op, width, channel, a, b, &mut out)
            .unwrap();
        let (pointer, capacity) = (out.as_ptr(), out.capacity());
        ring.channel_apply_at_into(op, width, channel, a, b, &mut out)
            .unwrap();
        assert_eq!(
            (out.as_ptr(), out.capacity()),
            (pointer, capacity),
            "{op} width={width} channel={channel} reallocated"
        );
        assert_eq!(
            out,
            ring.channel_apply_at(op, width, channel, a, b).unwrap(),
            "{op} width={width} channel={channel}"
        );
    }
}

#[test]
fn second_call_with_the_same_out_keeps_its_capacity_and_pointer() {
    let word = Ring::auto(primes::Q124, N).unwrap();
    let a = residues(&[primes::Q124], 0xA110C);
    for op in EVERY_OP.iter().filter(|op| op.is_binary()) {
        assert_out_is_reused(&word, op, &a);
    }

    let rns = RnsRing::builder(N).moduli(BASES[2]).build().unwrap();
    let k = rns.channels();
    let chain = rns.extended_moduli(1).unwrap();
    for width in [2, 3, 4] {
        let a = residues(&chain[..width], 0xA110C + width as u64);
        for op in EVERY_OP {
            if matches!(op, RingOp::Polymul(_)) && width > k {
                // Extension channels have no NTT plans.
                assert!(rns.op_output_channels_at(&op, width).is_err());
                continue;
            }
            assert_out_is_reused(&rns, &op, &a);
        }
    }
}
