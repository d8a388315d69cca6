//! Integration: every vector modular op of `mqx_simd` — the double-word
//! ops and the single-word (`*_word`) lazy ops — on every engine this
//! host can run, against the scalar `Modulus` / `mqx_core::shoup`
//! reference: exhaustively over each op's documented input domain for
//! tiny primes, over boundary values at the 124-bit modulus cap for the
//! double-word ops, and over boundary values of the word-sized RNS
//! channel primes for the single-word ops.
//!
//! The lazy ops carry the fused NTT pipeline, and the engines build
//! their constants (`splat(1)`, the zero mask, `2q`) from a token, so
//! this sweep is the net under both: a wrong constant or a fold against
//! the wrong bound shows up as one lane that disagrees. The transposed
//! inverse's Harvey butterfly, composed from those ops, is swept over
//! every `[0, 4q)` input pair the same way, at both lane widths. So is
//! the RNS boundary's linear-combination kernel (`mqx::blas::lincomb`),
//! against the scalar `ShoupMul`.

use mqx::blas::{lincomb, LinComb};
use mqx::core::shoup::{self, ShoupCtx};
use mqx::core::{primes, Modulus, ShoupMul};
use mqx::simd::profiles::McpFunctional;
use mqx::simd::{
    add_unreduced, add_unreduced_word, addmod, addmod_lazy, addmod_lazy_word, mulmod_karatsuba,
    mulmod_schoolbook, mulmod_shoup_lazy, mulmod_shoup_lazy_word, mulmod_word, reduce_2q_to_q,
    reduce_2q_to_q_word, reduce_4q_to_2q, reduce_4q_to_2q_word, submod, submod_lazy,
    submod_lazy_word, Lanes, Mqx, OneLimb, Portable, ResidueSoa, SimdEngine, TwoLimbs, VDword,
    VModulus,
};

/// Every op of the sweep, with its input domain (as a multiple of `q`
/// for each operand) and its scalar reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    MulSchoolbook,
    MulKaratsuba,
    AddLazy,
    /// `a + b` with no correction, `[0, 2q)` in, `[0, 4q)` out.
    AddUnreduced,
    SubLazy,
    /// `x · w` with `x ∈ [0, 4q)` and a canonical multiplier `w`.
    MulShoupLazy,
    Reduce2q,
    Reduce4q,
    // The single-word ops, for moduli below 2^62: the same contracts,
    // on one 64-bit lane.
    AddLazyWord,
    AddUnreducedWord,
    SubLazyWord,
    /// Shoup with the one-limb constant `⌊w·2^64/q⌋`, the hi limb of
    /// the stored two-limb one.
    MulShoupLazyWord,
    /// Barrett product of canonical operands.
    MulWord,
    Reduce2qWord,
    Reduce4qWord,
}

/// The double-word ops, valid for any modulus up to 124 bits.
const OPS: [Op; 10] = [
    Op::Add,
    Op::Sub,
    Op::MulSchoolbook,
    Op::MulKaratsuba,
    Op::AddLazy,
    Op::AddUnreduced,
    Op::SubLazy,
    Op::MulShoupLazy,
    Op::Reduce2q,
    Op::Reduce4q,
];

/// The single-word ops, valid for moduli below `2^62`.
const WORD_OPS: [Op; 7] = [
    Op::AddLazyWord,
    Op::AddUnreducedWord,
    Op::SubLazyWord,
    Op::MulShoupLazyWord,
    Op::MulWord,
    Op::Reduce2qWord,
    Op::Reduce4qWord,
];

/// `x·w − ⌊x·w'/2^64⌋·q mod 2^64` with the one-limb Shoup constant
/// `w' = ⌊w·2^64/q⌋`, read from the hi limb of the two-limb one.
fn shoup_word(x: u128, w: u128, w_shoup: u128, q: u128) -> u128 {
    let (x, w, w1, q) = (x as u64, w as u64, (w_shoup >> 64) as u64, q as u64);
    let qhat = ((u128::from(x) * u128::from(w1)) >> 64) as u64;
    u128::from(x.wrapping_mul(w).wrapping_sub(qhat.wrapping_mul(q)))
}

impl Op {
    fn is_word(self) -> bool {
        WORD_OPS.contains(&self)
    }

    /// Upper bounds of the two operands' domains, in units of `q`
    /// (`0` for the unused second operand of a unary op).
    fn domains(self) -> (u128, u128) {
        match self {
            Op::Add | Op::Sub | Op::MulSchoolbook | Op::MulKaratsuba | Op::MulWord => (1, 1),
            Op::AddLazy
            | Op::AddUnreduced
            | Op::SubLazy
            | Op::AddLazyWord
            | Op::AddUnreducedWord
            | Op::SubLazyWord => (2, 2),
            Op::MulShoupLazy | Op::MulShoupLazyWord => (4, 1),
            Op::Reduce2q | Op::Reduce2qWord => (2, 0),
            Op::Reduce4q | Op::Reduce4qWord => (4, 0),
        }
    }

    /// The scalar reference: the exact lane value the vector op must
    /// produce, after checking its range and its residue mod q against
    /// `Modulus`.
    fn expected(self, m: &Modulus, ctx: &ShoupCtx, a: u128, b: u128) -> u128 {
        let q = m.value();
        let fold = |x: u128, c: u128| if x >= c { x - c } else { x };
        let (value, bound, residue) = match self {
            Op::Add => (m.add_mod(a, b), q, m.add_mod(a, b)),
            Op::Sub => (m.sub_mod(a, b), q, m.sub_mod(a, b)),
            Op::MulSchoolbook | Op::MulKaratsuba | Op::MulWord => {
                (m.mul_mod(a, b), q, m.mul_mod(a, b))
            }
            Op::AddLazy | Op::AddLazyWord => (fold(a + b, 2 * q), 2 * q, m.add_mod(a % q, b % q)),
            Op::AddUnreduced | Op::AddUnreducedWord => (a + b, 4 * q, m.add_mod(a % q, b % q)),
            Op::SubLazy | Op::SubLazyWord => (a + 2 * q - b, 4 * q, m.sub_mod(a % q, b % q)),
            Op::MulShoupLazy => (
                shoup::mul_lazy(a, b, ctx.constant(b), q),
                2 * q,
                m.mul_mod(a % q, b),
            ),
            Op::MulShoupLazyWord => (
                shoup_word(a, b, ctx.constant(b), q),
                2 * q,
                m.mul_mod(a % q, b),
            ),
            Op::Reduce2q | Op::Reduce2qWord => (a % q, q, a % q),
            Op::Reduce4q | Op::Reduce4qWord => (fold(a, 2 * q), 2 * q, a % q),
        };
        assert!(
            value < bound,
            "{self:?} reference {value} escapes [0, {bound})"
        );
        assert_eq!(value % q, residue, "{self:?} reference is not the residue");
        value
    }
}

/// `xs` padded to `len` (whole vectors) with its first value; callers
/// drop the padding lanes.
fn pad(xs: &[u128], len: usize) -> ResidueSoa {
    xs.iter()
        .copied()
        .chain(std::iter::repeat(xs[0]))
        .take(len)
        .collect()
}

/// Runs `op` over the lanes `(a[i], b[i])` on engine `E`, inside its
/// kernel frame, and returns the lane results.
fn run<E: SimdEngine>(op: Op, m: &Modulus, ctx: &ShoupCtx, a: &[u128], b: &[u128]) -> Vec<u128> {
    let vm = VModulus::<E>::new(m);
    let padded = a.len().div_ceil(E::LANES) * E::LANES;
    let (sa, sb) = (pad(a, padded), pad(b, padded));
    // Shoup constants of the multipliers (canonical only for those ops).
    let shoup_b: ResidueSoa = match op {
        Op::MulShoupLazy | Op::MulShoupLazyWord => {
            sb.to_u128s().into_iter().map(|w| ctx.constant(w)).collect()
        }
        _ => sb.clone(),
    };
    let mut out = ResidueSoa::zeros(padded);
    E::vectorize(
        #[inline(always)]
        |t| {
            for i in (0..padded).step_by(E::LANES) {
                if op.is_word() {
                    // One lane per residue: the lo planes, and the
                    // one-limb Shoup constant from the hi plane.
                    let (x, y) = (E::load(t, &sa.lo()[i..]), E::load(t, &sb.lo()[i..]));
                    let r = match op {
                        Op::AddLazyWord => addmod_lazy_word(x, y, &vm),
                        Op::AddUnreducedWord => add_unreduced_word::<E>(x, y),
                        Op::SubLazyWord => submod_lazy_word(x, y, &vm),
                        Op::MulShoupLazyWord => {
                            mulmod_shoup_lazy_word(x, y, E::load(t, &shoup_b.hi()[i..]), &vm)
                        }
                        Op::MulWord => mulmod_word(x, y, &vm),
                        Op::Reduce2qWord => reduce_2q_to_q_word(x, &vm),
                        Op::Reduce4qWord => reduce_4q_to_2q_word(x, &vm),
                        _ => unreachable!("{op:?} is a double-word op"),
                    };
                    E::store(r, &mut out.parts_mut().1[i..]);
                    continue;
                }
                let x: VDword<E> = sa.load_vector(t, i);
                let y: VDword<E> = sb.load_vector(t, i);
                let r = match op {
                    Op::Add => addmod(x, y, &vm),
                    Op::Sub => submod(x, y, &vm),
                    Op::MulSchoolbook => mulmod_schoolbook(x, y, &vm),
                    Op::MulKaratsuba => mulmod_karatsuba(x, y, &vm),
                    Op::AddLazy => addmod_lazy(x, y, &vm),
                    Op::AddUnreduced => add_unreduced(x, y),
                    Op::SubLazy => submod_lazy(x, y, &vm),
                    Op::MulShoupLazy => mulmod_shoup_lazy(x, y, shoup_b.load_vector(t, i), &vm),
                    Op::Reduce2q => reduce_2q_to_q(x, &vm),
                    Op::Reduce4q => reduce_4q_to_2q(x, &vm),
                    _ => unreachable!("{op:?} is a single-word op"),
                };
                out.store_vector(i, r);
            }
        },
    );
    let mut lanes = out.to_u128s();
    lanes.truncate(a.len());
    lanes
}

/// Checks `op` on `E` for every pair of `xs × ys`.
fn check_pairs<E: SimdEngine>(op: Op, q: u128, xs: &[u128], ys: &[u128]) {
    let m = Modulus::new(q).unwrap();
    let ctx = ShoupCtx::new(&m);
    let (a, b): (Vec<u128>, Vec<u128>) = xs
        .iter()
        .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
        .unzip();
    let got = run::<E>(op, &m, &ctx, &a, &b);
    for ((&x, &y), got) in a.iter().zip(&b).zip(got) {
        let want = op.expected(&m, &ctx, x, y);
        assert_eq!(got, want, "{} {op:?} q={q:#x} a={x:#x} b={y:#x}", E::NAME);
    }
}

/// Every input pair of every op's domain, for three tiny primes.
fn exhaustive<E: SimdEngine>() {
    for q in [17_u128, 97, 257] {
        for op in OPS.into_iter().chain(WORD_OPS) {
            let (da, db) = op.domains();
            let xs: Vec<u128> = (0..da * q).collect();
            let ys: Vec<u128> = if db == 0 {
                vec![0]
            } else {
                (0..db * q).collect()
            };
            check_pairs::<E>(op, q, &xs, &ys);
        }
    }
}

/// Boundary values below `bound` for modulus `q`: the ends of each lazy
/// domain, and the edges of `limb_bits`-bit limbs — 64 for the carry and
/// borrow positions of the hi/lo split, 32 for the halves the
/// emulated widening multiply splits a word into.
fn edges(q: u128, bound: u128, limb_bits: u32) -> Vec<u128> {
    let limb = 1_u128 << limb_bits;
    let q_hi = q >> limb_bits << limb_bits;
    let mut v: Vec<u128> = [1, 2, 3, 4]
        .iter()
        .flat_map(|&k| [k * q - 2, k * q - 1, k * q, k * q + 1])
        .chain([
            0,
            1,
            2,
            limb - 1,
            limb,
            limb + 1,
            q_hi - 1,
            q_hi,
            q_hi + limb - 1,
        ])
        .chain([q - limb, q - limb + 1, 2 * q - limb, 2 * q + limb - 1])
        .filter(|&x| x < bound)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The word-sized primes the single-word ops serve: `RnsRing::auto(3,
/// 2048)`'s basis (the three largest 62-bit primes with `2^12 | q − 1`)
/// and `Q62`.
fn word_primes() -> Vec<u128> {
    let mut qs = primes::ntt_prime_chain(62, 12, 3).unwrap();
    qs.push(primes::Q62);
    qs
}

/// Boundary pairs of `ops` for each of `qs`, on `limb_bits`-bit limb
/// edges.
fn check_edges<E: SimdEngine>(ops: &[Op], qs: &[u128], limb_bits: u32) {
    for &q in qs {
        for &op in ops {
            let (da, db) = op.domains();
            let xs = edges(q, da * q, limb_bits);
            let ys = if db == 0 {
                vec![0]
            } else {
                edges(q, db * q, limb_bits)
            };
            check_pairs::<E>(op, q, &xs, &ys);
        }
    }
}

/// Boundary pairs of the double-word ops at the 124-bit cap (the serving
/// prime and the largest modulus the engines accept), and of the
/// single-word ops at the word-sized channel primes.
fn boundary<E: SimdEngine>() {
    check_edges::<E>(&OPS, &[primes::Q124, (1 << 124) - 59, primes::Q120], 64);
    check_edges::<E>(&WORD_OPS, &word_primes(), 32);
}

/// The transposed inverse's lazy Harvey butterfly on `E` for every pair
/// of `us × vs` (both `[0, 4q)`): `u ← fold_{2q}(u)`, `t = shoup_lazy(v,
/// w)`, legs `u + t` and `u − t + 2q`, each exactly the scalar value
/// and inside `[0, 4q)`. The twiddle varies with the pair, `w = (u +
/// 3v) mod q`, so every canonical twiddle occurs at the tiny primes.
/// With `word`, the one-limb butterfly on the lo planes, its Shoup
/// constant the hi limb of the stored two-limb one.
fn check_butterflies<E: SimdEngine>(q: u128, us: &[u128], vs: &[u128], word: bool) {
    let m = Modulus::new(q).unwrap();
    let ctx = ShoupCtx::new(&m);
    let vm = VModulus::<E>::new(&m);
    let (a, b): (Vec<u128>, Vec<u128>) = us
        .iter()
        .flat_map(|&u| vs.iter().map(move |&v| (u, v)))
        .unzip();
    let ws: Vec<u128> = a.iter().zip(&b).map(|(&u, &v)| (u + 3 * v) % q).collect();
    let padded = a.len().div_ceil(E::LANES) * E::LANES;
    let (su, sv, sw) = (pad(&a, padded), pad(&b, padded), pad(&ws, padded));
    let sws: ResidueSoa = sw.to_u128s().into_iter().map(|w| ctx.constant(w)).collect();
    let (mut sum, mut diff) = (ResidueSoa::zeros(padded), ResidueSoa::zeros(padded));
    E::vectorize(
        #[inline(always)]
        |t| {
            for i in (0..padded).step_by(E::LANES) {
                if word {
                    let lo = |x: &ResidueSoa| E::load(t, &x.lo()[i..]);
                    let u = reduce_4q_to_2q_word::<E>(lo(&su), &vm);
                    let w_shoup = E::load(t, &sws.hi()[i..]);
                    let vw = mulmod_shoup_lazy_word::<E>(lo(&sv), lo(&sw), w_shoup, &vm);
                    E::store(add_unreduced_word::<E>(u, vw), &mut sum.parts_mut().1[i..]);
                    E::store(
                        submod_lazy_word::<E>(u, vw, &vm),
                        &mut diff.parts_mut().1[i..],
                    );
                    continue;
                }
                let u = reduce_4q_to_2q::<E>(su.load_vector(t, i), &vm);
                let vw = mulmod_shoup_lazy::<E>(
                    sv.load_vector(t, i),
                    sw.load_vector(t, i),
                    sws.load_vector(t, i),
                    &vm,
                );
                sum.store_vector(i, add_unreduced::<E>(u, vw));
                diff.store_vector(i, submod_lazy::<E>(u, vw, &vm));
            }
        },
    );
    // The reference legs: the Shoup products' residues are pinned by the
    // `MulShoupLazy*` sweeps, so checking their range here is enough.
    let shoup_ref: fn(u128, u128, u128, u128) -> u128 =
        if word { shoup_word } else { shoup::mul_lazy };
    for (i, ((&u, &v), &w)) in a.iter().zip(&b).zip(&ws).enumerate() {
        let uf = if u >= 2 * q { u - 2 * q } else { u };
        let vw = shoup_ref(v, w, sws.get(i), q);
        let want = (uf + vw, uf + 2 * q - vw);
        let got = (sum.get(i), diff.get(i));
        assert!(
            want.0 < 4 * q && want.1 < 4 * q && got == want,
            "{} q={q:#x} word={word} u={u:#x} v={v:#x} w={w:#x}: (sum, diff) = {got:#x?}, \
             reference {want:#x?}",
            E::NAME,
        );
    }
}

/// The butterfly over every `[0, 4q)` pair at the tiny primes (both
/// widths), over the domain ends and limb edges at the 124-bit cap (two
/// limbs), and over the domain ends and 32-bit-half edges at the
/// word-sized channel primes (one limb).
fn butterflies<E: SimdEngine>() {
    for q in [17_u128, 97, 257] {
        let all: Vec<u128> = (0..4 * q).collect();
        check_butterflies::<E>(q, &all, &all, false);
        check_butterflies::<E>(q, &all, &all, true);
    }
    for q in [primes::Q124, (1 << 124) - 59, primes::Q120] {
        let e = edges(q, 4 * q, 64);
        check_butterflies::<E>(q, &e, &e, false);
    }
    for q in word_primes() {
        let e = edges(q, 4 * q, 32);
        check_butterflies::<E>(q, &e, &e, true);
    }
}

/// `lincomb` at lane width `L` on `E` against the scalar `ShoupMul`,
/// for combinations of one to three rows: every multiplier of
/// `{0, 1, q − 1}` on every row, both offset ends, and rows holding every
/// tuple of `words` — odd lengths, so each call ends in a partial
/// vector.
fn check_lincomb<E: SimdEngine, L: Lanes<E>>(q: u128, words: &[u128]) {
    let m = Modulus::new(q).unwrap();
    let multipliers = [0, 1, q - 1].map(|w| ShoupMul::new(w, &m));
    for rows in 1..=3_u32 {
        let tuples = words.len().pow(rows);
        let n = 2 * tuples + 1;
        // Row t, coefficient j: digit t of j's tuple index in base |words|.
        let word = |t: u32, j: usize| words[(j % tuples) / words.len().pow(t) % words.len()];
        let lead: Vec<u128> = (0..n).map(|j| word(0, j)).collect();
        let block: Vec<u128> = (1..rows)
            .flat_map(|t| (0..n).map(move |j| word(t, j)))
            .collect();
        for pick in 0..3_usize.pow(rows) {
            let coeffs: Vec<ShoupMul> = (0..rows)
                .map(|t| multipliers[pick / 3_usize.pow(t) % 3])
                .collect();
            for offset in [0, q - 1] {
                let comb = LinComb {
                    coeffs: &coeffs,
                    lead: &lead,
                    rows: &block,
                    offset,
                };
                let mut out = vec![u128::MAX; n];
                lincomb::<E, L>(&m, &comb, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let want = (0..rows).fold(offset, |acc, t| {
                        m.add_mod(acc, coeffs[t as usize].mul(word(t, j) % q))
                    });
                    assert_eq!(
                        got,
                        want,
                        "{} q={q:#x} rows={rows} j={j} of {n} coeffs={:?} offset={offset:#x}",
                        E::NAME,
                        coeffs.iter().map(ShoupMul::multiplier).collect::<Vec<_>>(),
                    );
                }
            }
        }
    }
}

/// The boundary kernel at both lane widths: one limb for every modulus
/// below `2^62` (the tiny primes, the `RnsRing::auto(3, 2048)` primes
/// and `Q62`), two limbs for those and `Q124`. Rows hold 0, `q − 1`,
/// `2^64 − 1` (a limb of a split's limb plane) and `u128::MAX` (a word
/// a one-limb load must reduce before it enters a lane).
fn lincomb_edges<E: SimdEngine>() {
    let small = [17_u128, 97, 257].into_iter().chain(word_primes());
    for q in small.clone() {
        check_lincomb::<E, OneLimb>(q, &[0, q - 1, u128::from(u64::MAX), u128::MAX]);
    }
    for q in small.chain([primes::Q124]) {
        check_lincomb::<E, TwoLimbs>(q, &[0, q - 1, u128::from(u64::MAX), u128::MAX]);
    }
}

fn sweep<E: SimdEngine>() {
    exhaustive::<E>();
    boundary::<E>();
    butterflies::<E>();
    lincomb_edges::<E>();
}

#[test]
fn portable_agrees_with_scalar_on_every_edge() {
    sweep::<Portable>();
}

#[test]
fn predicated_mqx_agrees_with_scalar_on_every_edge() {
    // The `+P` dataflow: predicated carries fed the zero mask.
    sweep::<Mqx<Portable, McpFunctional>>();
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_agrees_with_scalar_on_every_edge() {
    if !mqx::simd::avx2_detected() {
        return; // host cannot execute this engine
    }
    sweep::<mqx::simd::Avx2>();
}

#[cfg(target_arch = "x86_64")]
#[test]
fn avx512_agrees_with_scalar_on_every_edge() {
    if !mqx::simd::avx512_detected() {
        return; // host cannot execute this engine
    }
    sweep::<mqx::simd::Avx512>();
}
