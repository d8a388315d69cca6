//! Vectorized double-word modular arithmetic (§3.2, Listings 2–3).
//!
//! A batch of [`SimdEngine::LANES`] 128-bit residues travels as a
//! [`VDword`]: one vector of high words and one of low words (the hi/lo
//! split of Figure 2). The kernels are generic over the engine, and are
//! written against the carry/widening seam ([`SimdEngine::adc`],
//! [`SimdEngine::sbb`], [`SimdEngine::mul_wide`]):
//!
//! * on [`Portable`](crate::Portable)/[`Avx2`](crate::Avx2)/
//!   [`Avx512`](crate::Avx512) those ops expand to the paper's baseline
//!   emulation sequences, so [`addmod`] compiles to the Listing 2
//!   instruction mix;
//! * on [`Mqx`](crate::Mqx) they are single instructions, so the same
//!   source compiles to the Listing 3 mix.

use crate::engine::SimdEngine;
use mqx_core::Modulus;

/// A vector of `E::LANES` double-words in split (hi, lo) representation.
pub struct VDword<E: SimdEngine> {
    /// High 64 bits of each lane.
    pub hi: E::V,
    /// Low 64 bits of each lane.
    pub lo: E::V,
}

impl<E: SimdEngine> Clone for VDword<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E: SimdEngine> Copy for VDword<E> {}

impl<E: SimdEngine> std::fmt::Debug for VDword<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VDword")
            .field("hi", &self.hi)
            .field("lo", &self.lo)
            .finish()
    }
}

impl<E: SimdEngine> VDword<E> {
    /// Broadcasts one 128-bit value to all lanes.
    #[inline(always)]
    pub fn broadcast(t: E::Token, x: u128) -> Self {
        VDword {
            hi: E::splat(t, (x >> 64) as u64),
            lo: E::splat(t, x as u64),
        }
    }

    /// Loads `E::LANES` residues from split hi/lo slices.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than `E::LANES`.
    #[inline(always)]
    pub fn load(t: E::Token, hi: &[u64], lo: &[u64]) -> Self {
        VDword {
            hi: E::load(t, hi),
            lo: E::load(t, lo),
        }
    }

    /// Stores the lanes back to split hi/lo slices.
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than `E::LANES`.
    #[inline(always)]
    pub fn store(self, hi: &mut [u64], lo: &mut [u64]) {
        E::store(self.hi, hi);
        E::store(self.lo, lo);
    }

    /// Gathers `E::LANES` values from a `u128` slice (test convenience;
    /// checks the CPU through [`SimdEngine::token`]).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() < E::LANES`, or on a CPU that cannot run `E`.
    pub fn from_u128s(xs: &[u128]) -> Self {
        let mut hi = [0_u64; 8];
        let mut lo = [0_u64; 8];
        for i in 0..E::LANES {
            hi[i] = (xs[i] >> 64) as u64;
            lo[i] = xs[i] as u64;
        }
        VDword::load(E::token(), &hi, &lo)
    }

    /// Reads one lane as `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= E::LANES`.
    #[inline(always)]
    pub fn extract(self, lane: usize) -> u128 {
        (u128::from(E::extract(self.hi, lane)) << 64) | u128::from(E::extract(self.lo, lane))
    }

    /// Returns all lanes as a `Vec<u128>` (test convenience).
    pub fn to_u128s(self) -> Vec<u128> {
        (0..E::LANES).map(|i| self.extract(i)).collect()
    }
}

/// Per-engine broadcast of a [`Modulus`]: the modulus and Barrett
/// constants splatted across lanes, built once and reused by every kernel
/// call (the paper precomputes µ the same way).
pub struct VModulus<E: SimdEngine> {
    /// Modulus, split and splatted.
    pub q: VDword<E>,
    /// `2q`, split and splatted — the upper bound of the lazy butterfly
    /// domain (fits: `q ≤ 2^124`).
    pub two_q: VDword<E>,
    /// Barrett constant µ, split and splatted.
    pub mu: VDword<E>,
    /// Barrett shift `k = 2·bits(q) + 1`.
    pub k: u32,
    /// The scalar modulus this was built from.
    pub scalar: Modulus,
}

impl<E: SimdEngine> Clone for VModulus<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E: SimdEngine> Copy for VModulus<E> {}

impl<E: SimdEngine> std::fmt::Debug for VModulus<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VModulus")
            .field("q", &self.scalar.value())
            .field("k", &self.k)
            .finish()
    }
}

impl<E: SimdEngine> VModulus<E> {
    /// Broadcasts a scalar [`Modulus`] across the engine's lanes.
    ///
    /// # Panics
    ///
    /// Panics on a CPU that cannot run `E` (the one check of
    /// [`SimdEngine::token`]).
    #[inline(always)]
    pub fn new(m: &Modulus) -> Self {
        let t = E::token();
        VModulus {
            q: VDword::broadcast(t, m.value()),
            two_q: VDword::broadcast(t, 2 * m.value()),
            mu: VDword::broadcast(t, m.mu()),
            k: m.barrett_shift(),
            scalar: *m,
        }
    }
}

/// Vectorized double-word modular addition — Listing 2 (baseline engines)
/// / Listing 3 (MQX engines) from one source.
///
/// Computes `(a + b) mod q` per lane for `a, b < q`.
///
/// The final compare-against-`q` is expressed as a trial subtraction whose
/// borrow-out selects the result. Unlike the printed Listing 3 (which
/// tests only `mh < eh` and misses the `eh = mh, el ≥ ml` boundary — see
/// [`addmod_listing3_faithful`]), this form is exact for every input; the
/// instruction count is identical.
#[inline(always)]
pub fn addmod<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    // e = a + b via the carry chain (Eq. 6).
    let (el, elc) = E::adc0(a.lo, b.lo);
    let (eh, _ehc) = E::adc(a.hi, b.hi, elc); // q ≤ 2^124 ⇒ never carries out

    // s = e − q; the borrow says whether e < q.
    let (sl, slb) = E::sbb0(el, m.q.lo);
    let (sh, shb) = E::sbb(eh, m.q.hi, slb);

    let ge = E::mask_not(shb);
    if E::HAS_PREDICATION {
        // +P dataflow (§5.5): the predicated subtraction folds the select
        // into the carry op. The proposed instruction has no borrow
        // *output*, so the high word reuses the borrow `slb` computed by
        // the trial chain above.
        let lo = E::psbb(el, m.q.lo, E::mask_zero(E::witness(el)), ge);
        let hi = E::psbb(eh, m.q.hi, slb, ge);
        let _ = (sl, sh);
        VDword { hi, lo }
    } else {
        VDword {
            hi: E::blend(ge, eh, sh),
            lo: E::blend(ge, el, sl),
        }
    }
}

/// The paper's Listing 3 exactly as printed, including its boundary
/// behaviour: the reduce-or-not control is `(mh < eh) ∨ carry`, which
/// does **not** subtract when the sum's high word *equals* the modulus'
/// high word while the low word reaches it. On such inputs the result is
/// the unreduced sum (still congruent, but ≥ q).
///
/// Kept for side-by-side study and for the regression test that documents
/// the discrepancy; use [`addmod`] for exact reduction at the same cost.
#[inline(always)]
pub fn addmod_listing3_faithful<E: SimdEngine>(
    a: VDword<E>,
    b: VDword<E>,
    m: &VModulus<E>,
) -> VDword<E> {
    let z_mask = E::mask_zero(E::witness(a.lo));
    let (el, elc) = E::adc(a.lo, b.lo, z_mask);
    let (eh, ehc) = E::adc(a.hi, b.hi, elc);
    let ehc1 = E::cmp_lt(m.q.hi, eh);
    let ctrl = E::mask_or(ehc1, ehc);
    let (c1, clc) = E::sbb(el, m.q.lo, z_mask);
    let cl = E::blend(ctrl, el, c1);
    let (c1, _ehc2) = E::sbb(eh, m.q.hi, clc);
    let ch = E::blend(ctrl, eh, c1);
    VDword { hi: ch, lo: cl }
}

/// Vectorized double-word modular subtraction (Eq. 3/7): raw borrow chain,
/// then conditional add-back of `q` on underflow.
#[inline(always)]
pub fn submod<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    let (dl, dlb) = E::sbb0(a.lo, b.lo);
    let (dh, dhb) = E::sbb(a.hi, b.hi, dlb); // dhb ⇔ a < b

    if E::HAS_PREDICATION {
        // The predicated add has no carry output, so one plain adc0
        // supplies the low-word carry for the high half.
        let (_, slc) = E::adc0(dl, m.q.lo);
        let lo = E::padc(dl, m.q.lo, E::mask_zero(E::witness(dl)), dhb);
        let hi = E::padc(dh, m.q.hi, slc, dhb);
        VDword { hi, lo }
    } else {
        let (sl, slc) = E::adc0(dl, m.q.lo);
        let (sh, _) = E::adc(dh, m.q.hi, slc);
        VDword {
            hi: E::blend(dhb, dh, sh),
            lo: E::blend(dhb, dl, sl),
        }
    }
}

/// The 256-bit product of two lane vectors as four 64-bit limb vectors
/// `[x0, x1, x2, x3]` (least significant first), via the schoolbook
/// method (Eq. 8): four widening multiplies and a carry tree.
#[inline(always)]
fn mul_256_schoolbook<E: SimdEngine>(a: VDword<E>, b: VDword<E>) -> [E::V; 4] {
    let (p00h, p00l) = E::mul_wide(a.lo, b.lo);
    let (p01h, p01l) = E::mul_wide(a.lo, b.hi);
    let (p10h, p10l) = E::mul_wide(a.hi, b.lo);
    let (p11h, p11l) = E::mul_wide(a.hi, b.hi);

    let x0 = p00l;
    // Column 1: p00h + p01l + p10l.
    let (t, ca) = E::adc0(p00h, p01l);
    let (x1, cb) = E::adc0(t, p10l);
    // Column 2: p01h + p10h + p11l (+ column-1 carries).
    let (t, da) = E::adc(p01h, p10h, ca);
    let (x2, db) = E::adc(t, p11l, cb);
    // Column 3: p11h + carries (cannot overflow: the product < 2^256).
    let one = E::splat(E::witness(a.lo), 1);
    let x3 = E::mask_add(p11h, da, p11h, one);
    let x3 = E::mask_add(x3, db, x3, one);
    [x0, x1, x2, x3]
}

/// As [`mul_256_schoolbook`] but with the Karatsuba identity (Eq. 9):
/// three widening multiplies plus carry fix-ups.
#[inline(always)]
fn mul_256_karatsuba<E: SimdEngine>(a: VDword<E>, b: VDword<E>) -> [E::V; 4] {
    let t = E::witness(a.lo);
    let (zero, one) = (E::splat(t, 0), E::splat(t, 1));
    // z0 = a.lo·b.lo, z2 = a.hi·b.hi.
    let (z0h, z0l) = E::mul_wide(a.lo, b.lo);
    let (z2h, z2l) = E::mul_wide(a.hi, b.hi);
    // sa = a.lo + a.hi (carry ca), sb likewise.
    let (sa, ca) = E::adc0(a.lo, a.hi);
    let (sb, cb) = E::adc0(b.lo, b.hi);
    // m = sa·sb, then fold in the carry cross terms:
    // (ca·2^64 + sa)(cb·2^64 + sb) = ca·cb·2^128 + (ca·sb + cb·sa)·2^64 + sa·sb
    let (mh, ml) = E::mul_wide(sa, sb);
    let mut m0 = ml;
    let mut m1 = mh;
    // m2 accumulates ca&cb plus carries from the 2^64-scaled additions.
    let mut m2 = E::and(E::blend(ca, zero, one), E::blend(cb, zero, one));
    // + ca·sb·2^64
    let (t, k) = E::adc0(m1, E::blend(ca, zero, sb));
    m1 = t;
    m2 = E::mask_add(m2, k, m2, one);
    // + cb·sa·2^64
    let (t, k) = E::adc0(m1, E::blend(cb, zero, sa));
    m1 = t;
    m2 = E::mask_add(m2, k, m2, one);
    // − z0 − z2 (the middle term is a0·b1 + a1·b0 ≥ 0, so m never
    // underflows overall; borrows propagate into m2).
    let (t, bor) = E::sbb0(m0, z0l);
    m0 = t;
    let (t, bor) = E::sbb(m1, z0h, bor);
    m1 = t;
    m2 = E::mask_sub(m2, bor, m2, one);
    let (t, bor) = E::sbb0(m0, z2l);
    m0 = t;
    let (t, bor) = E::sbb(m1, z2h, bor);
    m1 = t;
    m2 = E::mask_sub(m2, bor, m2, one);

    // x = z2·2^128 + m·2^64 + z0.
    let x0 = z0l;
    let (x1, k1) = E::adc0(z0h, m0);
    let (x2, k2) = E::adc(z2l, m1, k1);
    let (t, _) = E::adc(z2h, m2, k2);
    let x3 = t;
    [x0, x1, x2, x3]
}

/// Barrett reduction of a 4-limb product against the broadcast modulus:
/// `t = ⌊x·µ/2^k⌋` (a 4×2-limb product and a long shift), `c = x − t·q`,
/// one conditional subtraction. Mirrors [`mqx_core::Modulus::reduce_wide`]
/// limb for limb.
#[inline(always)]
fn barrett_reduce<E: SimdEngine>(x: [E::V; 4], m: &VModulus<E>) -> VDword<E> {
    let tok = E::witness(x[0]);
    let one = E::splat(tok, 1);
    let zero = E::splat(tok, 0);

    // ---- y = x · µ (only limbs ⌊k/64⌋.. of y are consumed, but every
    // column is computed so the carries into them are exact).
    let (h0l, l0l) = E::mul_wide(x[0], m.mu.lo);
    let (h1l, l1l) = E::mul_wide(x[1], m.mu.lo);
    let (h2l, l2l) = E::mul_wide(x[2], m.mu.lo);
    let (h3l, l3l) = E::mul_wide(x[3], m.mu.lo);
    let (h0h, l0h) = E::mul_wide(x[0], m.mu.hi);
    let (h1h, l1h) = E::mul_wide(x[1], m.mu.hi);
    let (h2h, l2h) = E::mul_wide(x[2], m.mu.hi);
    let (h3h, l3h) = E::mul_wide(x[3], m.mu.hi);

    let y0 = l0l;
    // Column 1: h0l + l1l + l0h.
    let (t, c1a) = E::adc0(h0l, l1l);
    let (y1, c1b) = E::adc0(t, l0h);
    // Column 2: h1l + l2l + h0h + l1h (+2 carries). Keep a mul-high
    // (≤ MAX−1) as the first operand of every carry-in add so the
    // compare-based carry recovery stays exact on baseline engines.
    let (t, c2a) = E::adc(h1l, l2l, c1a);
    let (t, c2b) = E::adc(t, h0h, c1b);
    let (y2, c2c) = E::adc0(t, l1h);
    // Column 3: h2l + l3l + h1h + l2h (+3 carries).
    let (t, c3a) = E::adc(h2l, l3l, c2a);
    let (t, c3b) = E::adc(t, h1h, c2b);
    let (y3, c3c) = E::adc(t, l2h, c2c);
    // Column 4: h3l + h2h + l3h (+3 carries).
    let (t, c4a) = E::adc(h3l, l3h, c3a);
    let (t, c4b) = E::adc(t, h2h, c3b);
    let (y4, c4c) = E::adc(t, zero, c3c);
    // Column 5: h3h + carries.
    let y5 = E::mask_add(h3h, c4a, h3h, one);
    let y5 = E::mask_add(y5, c4b, y5, one);
    let y5 = E::mask_add(y5, c4c, y5, one);

    // ---- t = y >> k, two limbs.
    let y = [y0, y1, y2, y3, y4, y5];
    let s = (m.k / 64) as usize;
    let r = m.k % 64; // k = 2b+1 is odd, so r ∈ 1..64
    debug_assert!(r != 0 && s + 1 < 6);
    let pick = |i: usize| -> E::V {
        if i < 6 {
            y[i]
        } else {
            zero
        }
    };
    let tl = E::or(E::shr(pick(s), r), E::shl(pick(s + 1), 64 - r));
    let th = E::or(E::shr(pick(s + 1), r), E::shl(pick(s + 2), 64 - r));

    // ---- c = x − t·q on the low 128 bits (c < 2q < 2^125).
    let (tq0h, tq0l) = E::mul_wide(tl, m.q.lo);
    let tq1 = E::add(E::add(tq0h, E::mullo(tl, m.q.hi)), E::mullo(th, m.q.lo));
    let (c0, bor) = E::sbb0(x[0], tq0l);
    let (c1, _) = E::sbb(x[1], tq1, bor);

    // ---- single conditional subtraction.
    let c: VDword<E> = VDword { hi: c1, lo: c0 };
    let (s0, b0) = E::sbb0(c.lo, m.q.lo);
    let (s1, b1) = E::sbb(c.hi, m.q.hi, b0);
    let ge = E::mask_not(b1);
    if E::HAS_PREDICATION {
        let lo = E::psbb(c.lo, m.q.lo, E::mask_zero(tok), ge);
        let hi = E::psbb(c.hi, m.q.hi, b0, ge);
        let _ = (s0, s1);
        VDword { hi, lo }
    } else {
        VDword {
            hi: E::blend(ge, c.hi, s1),
            lo: E::blend(ge, c.lo, s0),
        }
    }
}

/// Vectorized double-word modular multiplication, dispatching on the
/// algorithm configured in the underlying [`Modulus`]
/// (`Modulus::with_algorithm`): schoolbook (Eq. 8, the §5.1 default) or
/// Karatsuba (Eq. 9, the §5.5 alternative). Kernels built on this —
/// NTT butterflies, BLAS `vmul`/`axpy` — therefore follow the modulus'
/// setting, which is how the §5.5 sensitivity study swaps algorithms.
#[inline(always)]
pub fn mulmod<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    match m.scalar.algorithm() {
        mqx_core::MulAlgorithm::Schoolbook => mulmod_schoolbook::<E>(a, b, m),
        mqx_core::MulAlgorithm::Karatsuba => mulmod_karatsuba::<E>(a, b, m),
    }
}

/// Vectorized modular multiplication with the schoolbook product
/// (Eq. 8): four widening multiplies.
///
/// Opens its own target-feature frame (as [`SimdEngine::vectorize`]
/// does, but on the strength of the operands, which prove the CPU check
/// ran — so no check per call) and is *not* force-inlined: every kernel
/// of an engine then shares one compiled copy of the Barrett chain (the
/// largest body in the crate) instead of carrying its own, and the
/// compiler inlines it into a calling frame where that pays.
#[inline]
pub fn mulmod_schoolbook<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    E::enter(
        E::witness(a.lo),
        #[inline(always)]
        |_| barrett_reduce::<E>(mul_256_schoolbook::<E>(a, b), m),
    )
}

/// Vectorized modular multiplication with the Karatsuba product
/// (Eq. 9): three widening multiplies plus carry fix-ups.
/// Frames like [`mulmod_schoolbook`].
#[inline]
pub fn mulmod_karatsuba<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    E::enter(
        E::witness(a.lo),
        #[inline(always)]
        |_| barrett_reduce::<E>(mul_256_karatsuba::<E>(a, b), m),
    )
}

// ---------------------------------------------------------------------------
// Lazy-reduction kernels (Shoup butterflies, [0, 2q)/[0, 4q) domains).
//
// The fused NTT pipeline keeps coefficients *unreduced* between butterflies:
// at most one conditional correction per butterfly instead of the full
// trial-subtract pair of `addmod`/`submod` plus Barrett's µ multiply. The
// ops below are the vector counterparts of `mqx_core::shoup::mul_lazy` and
// the scalar fold helpers in `mqx_ntt`.
// ---------------------------------------------------------------------------

/// Correction-free lazy addition: `a + b` per lane, the raw carry chain
/// with no fold. Inputs `< 2q` give an output `< 4q` — the sum leg of
/// the Harvey Cooley–Tukey butterfly, whose `[0, 4q)` outputs the next
/// stage's `u` fold ([`reduce_4q_to_2q`]) and the lazy Shoup multiply
/// absorb. Never carries out of 128 bits for lazy values: both operands
/// stay below `2^126`.
#[inline(always)]
pub fn add_unreduced<E: SimdEngine>(a: VDword<E>, b: VDword<E>) -> VDword<E> {
    let (lo, c) = E::adc0(a.lo, b.lo);
    let (hi, _) = E::adc(a.hi, b.hi, c);
    VDword { hi, lo }
}

/// `a − b mod 2^128` per lane — raw borrow chain, wrapping.
#[inline(always)]
fn sub_wrap<E: SimdEngine>(a: VDword<E>, b: VDword<E>) -> VDword<E> {
    let (lo, b0) = E::sbb0(a.lo, b.lo);
    let (hi, _) = E::sbb(a.hi, b.hi, b0);
    VDword { hi, lo }
}

/// Low 128 bits of the 256-bit lane product `a·b`.
#[inline(always)]
fn mullo_128<E: SimdEngine>(a: VDword<E>, b: VDword<E>) -> VDword<E> {
    let (h, l) = E::mul_wide(a.lo, b.lo);
    let hi = E::add(h, E::add(E::mullo(a.lo, b.hi), E::mullo(a.hi, b.lo)));
    VDword { hi, lo: l }
}

/// One conditional correction: `x − c` where the trial subtraction's
/// borrow selects between `x` and `x − c`. The single compare-subtract
/// the lazy butterflies are allowed.
#[inline(always)]
fn fold_once<E: SimdEngine>(x: VDword<E>, c: VDword<E>) -> VDword<E> {
    let (sl, b0) = E::sbb0(x.lo, c.lo);
    let (sh, b1) = E::sbb(x.hi, c.hi, b0);
    // b1 set ⇔ x < c ⇒ keep x; otherwise take the subtracted value.
    VDword {
        hi: E::blend(b1, sh, x.hi),
        lo: E::blend(b1, sl, x.lo),
    }
}

/// Lazy modular addition for the `[0, 2q)` butterfly domain: `a + b`
/// followed by a single conditional subtraction of `2q`. Inputs `< 2q`
/// produce an output `< 2q` — one correction where [`addmod`] needs a
/// full trial-subtract select against `q`.
#[inline(always)]
pub fn addmod_lazy<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    fold_once::<E>(add_unreduced::<E>(a, b), m.two_q)
}

/// Lazy modular subtraction: `a − b + 2q`, completely branch-free (zero
/// corrections). Inputs `< 2q` produce an output `< 4q`, which
/// [`mulmod_shoup_lazy`] accepts directly — the Gentleman–Sande butterfly
/// therefore pays no correction at all on its difference leg.
#[inline(always)]
pub fn submod_lazy<E: SimdEngine>(a: VDword<E>, b: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    sub_wrap::<E>(add_unreduced::<E>(a, m.two_q), b)
}

/// Lazy Shoup multiplication by a precomputed `(w, w' = ⌊w·2^128/q⌋)`
/// pair: `r = x·w − ⌊x·w'/2^128⌋·q ∈ [0, 2q)` for **any** lane value
/// `x`, reduced or not (see `mqx_core::shoup::mul_lazy` for the bound).
/// Three low-half multiplies and one widening multiply replace the
/// eight-multiply Barrett sequence, with no correction step.
#[inline(always)]
pub fn mulmod_shoup_lazy<E: SimdEngine>(
    x: VDword<E>,
    w: VDword<E>,
    w_shoup: VDword<E>,
    m: &VModulus<E>,
) -> VDword<E> {
    // q̂ = hi128(x · w') — limbs 2 and 3 of the 256-bit product.
    let p = mul_256_schoolbook::<E>(x, w_shoup);
    let qhat = VDword { hi: p[3], lo: p[2] };
    sub_wrap::<E>(mullo_128::<E>(x, w), mullo_128::<E>(qhat, m.q))
}

/// Canonicalizes a `[0, 2q)` lazy value into `[0, q)` with one
/// conditional subtraction.
#[inline(always)]
pub fn reduce_2q_to_q<E: SimdEngine>(x: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    fold_once::<E>(x, m.q)
}

/// Folds a `[0, 4q)` value into `[0, 2q)` with one conditional
/// subtraction of `2q`.
#[inline(always)]
pub fn reduce_4q_to_2q<E: SimdEngine>(x: VDword<E>, m: &VModulus<E>) -> VDword<E> {
    fold_once::<E>(x, m.two_q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;
    use mqx_core::primes;

    type P = Portable;

    fn vmod(q: u128) -> VModulus<P> {
        VModulus::new(&Modulus::new(q).unwrap())
    }

    fn check_all_lanes(got: VDword<P>, expected: &[u128]) {
        for (i, &want) in expected.iter().enumerate() {
            assert_eq!(got.extract(i), want, "lane {i}");
        }
    }

    fn test_vectors(q: u128) -> (Vec<u128>, Vec<u128>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut state: u128 = 0x9E37_79B9_7F4A_7C15_F39C_0C9E_4CF5_0A11;
        for i in 0..8 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            a.push(match i {
                0 => 0,
                1 => q - 1,
                2 => q / 2,
                _ => state % q,
            });
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            b.push(match i {
                0 => 0,
                1 => q - 1,
                2 => q / 2 + 1,
                _ => state % q,
            });
        }
        (a, b)
    }

    #[test]
    fn addmod_matches_scalar_all_moduli() {
        for q in [primes::Q124, primes::Q120, primes::Q62, primes::Q30, 97] {
            let m = vmod(q);
            let (a, b) = test_vectors(q);
            let got = addmod(VDword::<P>::from_u128s(&a), VDword::<P>::from_u128s(&b), &m);
            let expected: Vec<u128> = (0..8).map(|i| m.scalar.add_mod(a[i], b[i])).collect();
            check_all_lanes(got, &expected);
        }
    }

    #[test]
    fn submod_matches_scalar_all_moduli() {
        for q in [primes::Q124, primes::Q120, primes::Q62, primes::Q30, 97] {
            let m = vmod(q);
            let (a, b) = test_vectors(q);
            let got = submod(VDword::<P>::from_u128s(&a), VDword::<P>::from_u128s(&b), &m);
            let expected: Vec<u128> = (0..8).map(|i| m.scalar.sub_mod(a[i], b[i])).collect();
            check_all_lanes(got, &expected);
        }
    }

    #[test]
    fn mulmod_matches_scalar_all_moduli() {
        for q in [primes::Q124, primes::Q120, primes::Q62, primes::Q30, 97] {
            let m = vmod(q);
            let (a, b) = test_vectors(q);
            let av = VDword::<P>::from_u128s(&a);
            let bv = VDword::<P>::from_u128s(&b);
            let expected: Vec<u128> = (0..8).map(|i| m.scalar.mul_mod(a[i], b[i])).collect();
            check_all_lanes(mulmod(av, bv, &m), &expected);
            check_all_lanes(mulmod_karatsuba(av, bv, &m), &expected);
        }
    }

    #[test]
    fn mulmod_worst_case_operands() {
        // (q−1)² in every lane stresses the Barrett estimate bound.
        for q in [primes::Q124, primes::Q120] {
            let m = vmod(q);
            let a = VDword::<P>::broadcast(P::token(), q - 1);
            let got = mulmod(a, a, &m);
            for i in 0..8 {
                assert_eq!(got.extract(i), 1, "(q-1)² ≡ 1 mod q, lane {i}");
            }
        }
    }

    /// The column-4 carries `(c4a, c4b, c4c)` of [`barrett_reduce`]'s
    /// `y = x·µ`, for `x = a·b`: a scalar mirror of its carry chain, so
    /// the operands below can prove they reach column 5.
    fn column4_carries(m: &Modulus, a: u128, b: u128) -> [bool; 3] {
        let limb = |x: u128| [x as u64, (x >> 64) as u64];
        let mul = |x: u64, y: u64| {
            let p = u128::from(x) * u128::from(y);
            ((p >> 64) as u64, p as u64)
        };
        let adc = |x: u64, y: u64, c: bool| {
            let s = u128::from(x) + u128::from(y) + u128::from(c);
            (s as u64, s >> 64 != 0)
        };
        // x = a·b as four limbs.
        let ([a0, a1], [b0, b1]) = (limb(a), limb(b));
        let (p00, p01, p10, p11) = (mul(a0, b0), mul(a0, b1), mul(a1, b0), mul(a1, b1));
        let (t, ca) = adc(p00.0, p01.1, false);
        let (x1, cb) = adc(t, p10.1, false);
        let (t, da) = adc(p01.0, p10.0, ca);
        let (x2, db) = adc(t, p11.1, cb);
        let x = [p00.1, x1, x2, p11.0 + u64::from(da) + u64::from(db)];
        // y = x·µ, columns 1–4, exactly as `barrett_reduce` chains them.
        let [mu_lo, mu_hi] = limb(m.mu());
        let (h0l, _) = mul(x[0], mu_lo);
        let (h1l, l1l) = mul(x[1], mu_lo);
        let (h2l, l2l) = mul(x[2], mu_lo);
        let (h3l, l3l) = mul(x[3], mu_lo);
        let (h0h, l0h) = mul(x[0], mu_hi);
        let (h1h, l1h) = mul(x[1], mu_hi);
        let (h2h, l2h) = mul(x[2], mu_hi);
        let (_, l3h) = mul(x[3], mu_hi);
        let (t, c1a) = adc(h0l, l1l, false);
        let (_, c1b) = adc(t, l0h, false);
        let (t, c2a) = adc(h1l, l2l, c1a);
        let (t, c2b) = adc(t, h0h, c1b);
        let (_, c2c) = adc(t, l1h, false);
        let (t, c3a) = adc(h2l, l3l, c2a);
        let (t, c3b) = adc(t, h1h, c2b);
        let (_, c3c) = adc(t, l2h, c2c);
        let (t, c4a) = adc(h3l, l3h, c3a);
        let (t, c4b) = adc(t, h2h, c3b);
        let (_, c4c) = adc(t, 0, c3c);
        [c4a, c4b, c4c]
    }

    /// Every carry into column 5 of the Barrett `x·µ` is taken by some
    /// operand pair, on every engine. Column 5 feeds the top limb of the
    /// quotient estimate, so a dropped carry there is a wrong product —
    /// but only for a few operands. The serving primes sit just below a
    /// power of two, so their µ is nearly one too and never sets
    /// `c4a`/`c4b`; the 124-bit modulus here (the hex digits of e) has a
    /// µ with dense limbs.
    fn barrett_column5_carries<E: SimdEngine>() {
        let m = Modulus::new(0xB7E_1516_28AE_D2A6_ABF7_1588_09CF_4F3D).unwrap();
        let vm = VModulus::<E>::new(&m);
        let cases: [(u128, u128, usize); 3] = [
            (
                0x73A_1A30_409E_C5DD_5885_4FF6_0915_97FA,
                0x5BB_4372_4400_216A_F97C_0F93_0B5B_8D57,
                0,
            ),
            (
                0x490_FAD1_E67F_8223_FA93_0F46_0332_7671,
                0xA43_E7DA_9569_E67C_BB78_EB54_4AB3_7D93,
                1,
            ),
            (
                0xB7E_1511_DC3B_7DD6_78C9_9947_7789_D8FE,
                0xAA4_FFC4_D527_EB6A_2A96_FAFB_84B1_808C,
                2,
            ),
        ];
        for (a, b, carry) in cases {
            let mut want = [false; 3];
            want[carry] = true;
            assert_eq!(column4_carries(&m, a, b), want, "operands for c4{carry}");
            let av = VDword::<E>::broadcast(E::token(), a);
            let bv = VDword::<E>::broadcast(E::token(), b);
            let expected = vec![m.mul_mod(a, b); E::LANES];
            let school = mulmod_schoolbook(av, bv, &vm).to_u128s();
            assert_eq!(school, expected, "{} schoolbook, c4{carry}", E::NAME);
            let kara = mulmod_karatsuba(av, bv, &vm).to_u128s();
            assert_eq!(kara, expected, "{} karatsuba, c4{carry}", E::NAME);
        }
    }

    #[test]
    fn barrett_takes_every_column5_carry_on_every_engine() {
        barrett_column5_carries::<P>();
        barrett_column5_carries::<crate::Mqx<P, crate::profiles::McpFunctional>>();
        barrett_column5_carries::<crate::Mqx<P, crate::profiles::McFunctional>>();
        #[cfg(target_arch = "x86_64")]
        {
            if crate::avx2_detected() {
                barrett_column5_carries::<crate::Avx2>();
            }
            if crate::avx512_detected() {
                barrett_column5_carries::<crate::Avx512>();
            }
        }
    }

    #[test]
    fn listing3_faithful_differs_only_on_equal_high_boundary() {
        // Construct a + b whose high word equals q's high word while the
        // low word reaches q's low word: printed Listing 3 skips the
        // subtraction there.
        let q = primes::Q124;
        let m = vmod(q);
        let qh = (q >> 64) << 64;
        let a = (qh | 0x500_000) / 2;
        let b = q - (qh | 0x400_000) / 2; // a + b lands on high(q), low ≥ low(q)
        let sum = a + b;
        assert_eq!(sum >> 64, q >> 64, "constructed boundary case");
        assert!(sum >= q && (sum & u64::MAX as u128) >= (q & u64::MAX as u128));

        let av = VDword::<P>::broadcast(P::token(), a);
        let bv = VDword::<P>::broadcast(P::token(), b);
        let exact = addmod(av, bv, &m).extract(0);
        let faithful = addmod_listing3_faithful(av, bv, &m).extract(0);
        assert_eq!(exact, m.scalar.add_mod(a, b));
        assert_eq!(faithful, sum, "printed listing leaves the sum unreduced");
        assert_ne!(exact, faithful);
        // They agree modulo q — the faithful version is congruent.
        assert_eq!(faithful % q, exact);
    }

    #[test]
    fn listing3_faithful_agrees_on_generic_inputs() {
        let q = primes::Q124;
        let m = vmod(q);
        let (a, b) = test_vectors(q);
        let av = VDword::<P>::from_u128s(&a);
        let bv = VDword::<P>::from_u128s(&b);
        let exact = addmod(av, bv, &m);
        let faithful = addmod_listing3_faithful(av, bv, &m);
        for i in 0..8 {
            // The printed listing is only defined off the equal-high-word
            // boundary; skip lanes that land on it (lane 2 sums to exactly
            // q by construction).
            if (a[i] + b[i]) >> 64 == q >> 64 {
                continue;
            }
            assert_eq!(exact.extract(i), faithful.extract(i), "lane {i}");
        }
    }

    #[test]
    fn figure2_toy_trace() {
        // The paper's Figure 2 walks addmod through 4 lanes of 2-bit
        // elements (modulus m = [3, 1] i.e. 3·4 + 1 = 13 in the 2-bit
        // word metaphor). Reproduce the trace with real 64-bit words by
        // scaling the example: lanes a = [3,1,0,2]·2^64 + [0,1,3,2]-ish
        // values under a 124-bit modulus exercise the same select paths.
        let q = primes::Q124;
        let m = vmod(q);
        // Lane 0: wraps (selects the subtracted value); lane 1: no wrap.
        let a = [q - 1, 5, q / 2, q / 3, 0, 1, q - 2, q / 7];
        let b = [2, 7, q / 2 + 1, q / 3, 0, q - 1, 1, q / 9];
        let got = addmod(VDword::<P>::from_u128s(&a), VDword::<P>::from_u128s(&b), &m);
        for i in 0..8 {
            assert_eq!(got.extract(i), m.scalar.add_mod(a[i], b[i]), "lane {i}");
        }
    }

    #[test]
    fn vdword_roundtrips() {
        let xs: Vec<u128> = (0..8_u64).map(|i| (u128::from(i) << 64) | 0xABC).collect();
        let v = VDword::<P>::from_u128s(&xs);
        assert_eq!(v.to_u128s(), xs);
        let mut hi = [0_u64; 8];
        let mut lo = [0_u64; 8];
        v.store(&mut hi, &mut lo);
        let v2 = VDword::<P>::load(P::token(), &hi, &lo);
        assert_eq!(v2.to_u128s(), xs);
        let b = VDword::<P>::broadcast(P::token(), 42);
        assert_eq!(b.extract(3), 42);
    }

    #[test]
    fn lazy_ops_respect_domains_and_agree_mod_q() {
        use mqx_core::ShoupMul;
        for q in [primes::Q124, primes::Q120, primes::Q62] {
            let m = vmod(q);
            // Lazy-domain inputs in [0, 2q), including both extremes.
            let a: Vec<u128> = (0..8)
                .map(|i| match i {
                    0 => 0,
                    1 => 2 * q - 1,
                    2 => q,
                    3 => q - 1,
                    _ => (0xABCD_u128.wrapping_mul(i as u128 + 3) * 0x1234_5678) % (2 * q),
                })
                .collect();
            let b: Vec<u128> = (0..8)
                .map(|i| match i {
                    0 => 2 * q - 1,
                    1 => 0,
                    2 => q + 1,
                    3 => q - 1,
                    _ => (0x9876_u128.wrapping_mul(i as u128 + 7) * 0x0FED_CBA9) % (2 * q),
                })
                .collect();
            let av = VDword::<P>::from_u128s(&a);
            let bv = VDword::<P>::from_u128s(&b);

            let sum = addmod_lazy(av, bv, &m);
            let diff = submod_lazy(av, bv, &m);
            for i in 0..8 {
                let s = sum.extract(i);
                assert!(s < 2 * q, "sum lane {i} out of [0,2q)");
                assert_eq!(s % q, m.scalar.add_mod(a[i] % q, b[i] % q), "sum lane {i}");
                let d = diff.extract(i);
                assert!(d < 4 * q, "diff lane {i} out of [0,4q)");
                assert_eq!(d % q, m.scalar.sub_mod(a[i] % q, b[i] % q), "diff lane {i}");
            }

            // Shoup lazy multiply accepts the unreduced [0,4q) difference.
            let w = q / 3 + 1;
            let sm = ShoupMul::new(w, &m.scalar);
            let wv = VDword::<P>::broadcast(P::token(), sm.multiplier());
            let wsv = VDword::<P>::broadcast(P::token(), sm.constant());
            let prod = mulmod_shoup_lazy(diff, wv, wsv, &m);
            for i in 0..8 {
                let p = prod.extract(i);
                assert!(p < 2 * q, "prod lane {i} out of [0,2q)");
                assert_eq!(p, sm.mul_lazy(diff.extract(i)), "prod lane {i}");
            }

            // Folds: [0,4q) → [0,2q) → [0,q), each a single correction.
            let folded = reduce_4q_to_2q(diff, &m);
            let canon = reduce_2q_to_q(reduce_2q_to_q(folded, &m), &m);
            for i in 0..8 {
                assert!(folded.extract(i) < 2 * q, "fold lane {i}");
                assert_eq!(canon.extract(i), diff.extract(i) % q, "canon lane {i}");
            }
        }
    }
}
