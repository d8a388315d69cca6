//! Integration: the word-level CRT under `RnsRing` — decomposition,
//! Garner digits, basis-extension fold and limb assembly — against the
//! `BigUint` oracle (`CrtContext::{to_residues, recombine}` and plain
//! `%`), through the public surface only. Every small-basis value is
//! pinned exhaustively in `src/rns.rs`'s unit tests; here the bases are
//! wide (a 124-bit channel next to 62- and 30-bit ones, and the
//! generated 62-bit chains) and the coefficients sit on the boundaries:
//! limb edges, the moduli and their neighbours, `Q − 1`, and residues
//! handed in unreduced. The served size, `RnsRing::auto(3, 2048)`, and a
//! ring shorter than one vector run split, join, extension and rescale
//! against the oracle too.

use mqx::bignum::crt::CrtContext;
use mqx::bignum::BigUint;
use mqx::core::primes;
use mqx::{Coefficients, PolyRing, RingOp, RnsRing};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 64;
const EXTEND: RingOp = RingOp::BasisExtend { extra_channels: 1 };

fn rings() -> Vec<RnsRing> {
    vec![
        RnsRing::builder(N)
            .moduli(&[primes::Q124, primes::Q62, primes::Q30])
            .build()
            .unwrap(),
        RnsRing::builder(N)
            .moduli(&[primes::Q62, primes::Q124])
            .build()
            .unwrap(),
        RnsRing::auto(3, N).unwrap(),
        RnsRing::auto(4, N).unwrap(),
        // Width 1: a single digit, a single-term assembly.
        RnsRing::builder(N).moduli(&[primes::Q62]).build().unwrap(),
    ]
}

/// `N` coefficients below `Q`: the boundary values first, seeded random
/// ones after.
fn boundary_coeffs(ring: &RnsRing, seed: u64) -> Vec<BigUint> {
    let q = ring.product_modulus();
    let one = BigUint::one();
    let top_limb_clear = BigUint::power_of_two(64 * (q.limbs().len() as u64 - 1));
    let mut xs = vec![
        BigUint::zero(),
        one.clone(),
        q - &one, // residue m_i − 1 in every channel
        BigUint::from(u64::MAX),
        BigUint::from(1_u64 << 63),
        BigUint::from(u128::MAX),
        top_limb_clear.clone(),
        &top_limb_clear - &one,
    ];
    let mut prefix = BigUint::one();
    for &m in ring.moduli() {
        let m = BigUint::from(m);
        xs.extend([&m - &one, m.clone(), &m + &one, q - &m]);
        prefix = &prefix * &m;
        xs.push(&prefix - &one);
        xs.push(prefix.clone());
    }
    xs.retain(|x| x < q);
    assert!(xs.len() < N, "room for random coefficients");
    let mut rng = StdRng::seed_from_u64(seed);
    xs.resize_with(N, || BigUint::random_below(&mut rng, q));
    xs
}

/// `xs` split into the ring's residue channels.
fn split(ring: &RnsRing, xs: &[BigUint]) -> Vec<Vec<u128>> {
    ring.split(&Coefficients::Big(xs.to_vec())).unwrap()
}

/// `channels` joined at the ring's own width.
fn join(ring: &RnsRing, channels: &[Vec<u128>]) -> Vec<BigUint> {
    let joined = ring.join_at(ring.channels(), channels.to_vec()).unwrap();
    joined.into_bigs().unwrap()
}

fn column(channels: &[Vec<u128>], j: usize) -> Vec<u128> {
    channels.iter().map(|ch| ch[j]).collect()
}

#[test]
fn split_and_join_match_the_biguint_oracle_at_the_boundaries() {
    for (i, ring) in rings().iter().enumerate() {
        let oracle = CrtContext::new(ring.moduli()).unwrap();
        let xs = boundary_coeffs(ring, 0x5EED + i as u64);
        let channels = split(ring, &xs);
        assert_eq!(channels.len(), ring.channels());
        for (j, x) in xs.iter().enumerate() {
            let residues = column(&channels, j);
            assert_eq!(residues, oracle.to_residues(x), "split of {x}");
            assert_eq!(oracle.recombine(&residues), *x);
        }
        assert_eq!(join(ring, &channels), xs, "{ring:?}");
        // A second split, and a join of the owned channels, agree.
        let big = Coefficients::Big(xs);
        assert_eq!(ring.split(&big).unwrap(), channels);
        assert_eq!(ring.join_at(ring.channels(), channels).unwrap(), big);
    }
}

#[test]
fn unreduced_residues_alias_exactly_as_the_biguint_path_does() {
    for (i, ring) in rings().iter().enumerate() {
        let oracle = CrtContext::new(ring.moduli()).unwrap();
        let xs = boundary_coeffs(ring, 0xA11A5 + i as u64);
        let mut channels = split(ring, &xs);
        // r, r + m, r + 2m, … up to the top of the word, cycling per
        // coefficient; every fourth one pinned to u128::MAX.
        for (channel, &m) in channels.iter_mut().zip(ring.moduli()) {
            for (j, r) in channel.iter_mut().enumerate() {
                *r = match j % 4 {
                    0 => *r,
                    1 => *r + m,
                    2 => *r + (u128::MAX - *r) / m * m,
                    _ => u128::MAX,
                };
            }
        }
        let expected: Vec<BigUint> = (0..N)
            .map(|j| oracle.recombine(&column(&channels, j)))
            .collect();
        assert_eq!(join(ring, &channels), expected, "{ring:?}");

        // A basis extension reads the same digits: unreduced input folds
        // to the fresh-prime residue of the aliased value.
        let k = ring.channels();
        let p = BigUint::from(ring.extended_moduli(1).unwrap()[k]);
        let mut fresh = Vec::new();
        ring.channel_apply_at_into(&EXTEND, k, k, &channels, None, &mut fresh)
            .unwrap();
        let folded: Vec<BigUint> = fresh.into_iter().map(BigUint::from).collect();
        let reduced: Vec<BigUint> = expected.iter().map(|x| x % &p).collect();
        assert_eq!(folded, reduced, "{ring:?}");
    }
}

#[test]
fn fresh_channel_is_the_value_mod_the_fresh_prime_and_joins_back() {
    for (i, ring) in rings().iter().enumerate() {
        let k = ring.channels();
        let xs = boundary_coeffs(ring, 0xF01D + i as u64);
        let mut channels = split(ring, &xs);
        let p = ring.extended_moduli(1).unwrap()[k];
        let mut fresh = Vec::new();
        ring.channel_apply_at_into(&EXTEND, k, k, &channels, None, &mut fresh)
            .unwrap();
        for (x, &r) in xs.iter().zip(&fresh) {
            assert_eq!(BigUint::from(r), x % &BigUint::from(p), "{x} mod {p}");
        }
        // Joined at the extended width (constants no native-width call
        // reads), the value is unchanged.
        channels.push(fresh);
        assert_eq!(
            ring.join_at(k + 1, channels).unwrap(),
            Coefficients::Big(xs)
        );
    }
}

/// Width 3 → `Rescale` → width 2 → `BasisExtend` → width 3: the
/// non-native width reads its own rows of the digit tables, and the
/// chain lands back on the ring's own third prime.
#[test]
fn rescaled_then_extended_chain_reads_the_narrower_widths_tables() {
    let ring = RnsRing::auto(3, N).unwrap();
    let moduli = ring.moduli().to_vec();
    let xs = boundary_coeffs(&ring, 0x2E5C);
    let channels = split(&ring, &xs);

    let mut narrow = vec![Vec::new(), Vec::new()];
    for (c, out) in narrow.iter_mut().enumerate() {
        ring.channel_apply_at_into(&RingOp::Rescale, 3, c, &channels, None, out)
            .unwrap();
    }
    // round(x / q_last) = ⌊(x + ⌊q_last / 2⌋) / q_last⌋ mod q_0·q_1
    // (the top half-interval below Q rounds up to q_0·q_1 ≡ 0).
    let q_last = BigUint::from(moduli[2]);
    let half = BigUint::from(moduli[2] / 2);
    let kept = &BigUint::from(moduli[0]) * &BigUint::from(moduli[1]);
    let rounded: Vec<BigUint> = xs
        .iter()
        .map(|x| &(&(x + &half) / &q_last) % &kept)
        .collect();
    assert_eq!(
        ring.join_at(2, narrow.clone()).unwrap(),
        Coefficients::Big(rounded.clone())
    );

    let mut third = Vec::new();
    ring.channel_apply_at_into(&EXTEND, 2, 2, &narrow, None, &mut third)
        .unwrap();
    for (y, &r) in rounded.iter().zip(&third) {
        assert_eq!(BigUint::from(r), y % &q_last, "{y} mod {q_last}");
    }
    narrow.push(third);
    assert_eq!(ring.join_at(3, narrow).unwrap(), Coefficients::Big(rounded));
}

/// The boundary at the served size, `RnsRing::auto(3, 2048)` (many whole
/// vectors), and at n = 4, shorter than one vector of any engine (a
/// partial vector only): split, join, the fresh `BasisExtend` channel
/// and `Rescale`, each against the `BigUint` oracle, bit for bit.
#[test]
fn boundary_matches_the_oracle_at_the_served_size_and_below_one_vector() {
    for n in [4, 2048] {
        let ring = RnsRing::auto(3, n).unwrap();
        let oracle = CrtContext::new(ring.moduli()).unwrap();
        let q = ring.product_modulus();
        let mut rng = StdRng::seed_from_u64(0xB0DA + n as u64);
        let mut xs: Vec<BigUint> = (0..n).map(|_| BigUint::random_below(&mut rng, q)).collect();
        xs[0] = BigUint::zero();
        xs[n - 1] = q - &BigUint::one();

        let channels = split(&ring, &xs);
        for (j, x) in xs.iter().enumerate() {
            assert_eq!(
                column(&channels, j),
                oracle.to_residues(x),
                "n={n}: split of {x}"
            );
        }
        assert_eq!(join(&ring, &channels), xs, "n={n}: join");

        let p = BigUint::from(ring.extended_moduli(1).unwrap()[3]);
        let mut fresh = Vec::new();
        ring.channel_apply_at_into(&EXTEND, 3, 3, &channels, None, &mut fresh)
            .unwrap();
        assert_eq!(fresh.len(), n);
        for (x, &r) in xs.iter().zip(&fresh) {
            assert_eq!(BigUint::from(r), x % &p, "n={n}: {x} mod {p}");
        }

        let q_last = BigUint::from(ring.moduli()[2]);
        let half = BigUint::from(ring.moduli()[2] / 2);
        for c in 0..2 {
            let mut out = Vec::new();
            ring.channel_apply_at_into(&RingOp::Rescale, 3, c, &channels, None, &mut out)
                .unwrap();
            let m_c = BigUint::from(ring.moduli()[c]);
            for (x, &r) in xs.iter().zip(&out) {
                let rounded = &(x + &half) / &q_last;
                assert_eq!(BigUint::from(r), &rounded % &m_c, "n={n}: rescale of {x}");
            }
        }
    }
}
