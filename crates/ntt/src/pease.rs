//! The Pease constant-geometry dataflow (§3.2), in both of its
//! geometries.
//!
//! **Decimation in frequency (DIF): natural → bit-reversed.** Every stage
//! `s = 0 … log₂n − 1` reads partner elements at a fixed stride `n/2`
//! and writes adjacent pairs:
//!
//! ```text
//! y[2i]   = x[i] + x[i + n/2]
//! y[2i+1] = (x[i] − x[i + n/2]) · ω^{(i >> s) << s}
//! ```
//!
//! after `log₂ n` stages the output is in bit-reversed order. The
//! constant geometry is what makes the SIMD version regular: loads are
//! unit-stride from two halves, and the paired store is the element-wise
//! interleave that AVX-512 expresses with `vpunpcklqdq`/`vpunpckhqdq`/
//! `vpermt2q` (`SimdEngine::interleave_lo`/`interleave_hi`).
//!
//! **Transposed, decimation in time (DIT): bit-reversed → natural.** The
//! DFT matrix is symmetric, so the transpose of the whole DIF transform
//! (`R·DFT`, `R` the bit reversal) is `DFT·R`: run on a bit-reversed
//! input, it returns the natural-order transform. Transposing stage by
//! stage reverses the stage order (`s = log₂n − 1 … 0`) and turns each
//! stage around — the same twiddle `ω^{(i >> s) << s}` on the same
//! butterfly `i`, but read from adjacent pairs and written at stride
//! `n/2`:
//!
//! ```text
//! t = x[2i+1] · ω^{(i >> s) << s}
//! y[i] = x[2i] + t,   y[i + n/2] = x[2i] − t
//! ```
//!
//! — a Cooley–Tukey butterfly whose paired *load* is the deinterleave
//! (`SimdEngine::deinterleave_even`/`deinterleave_odd`). The fused
//! polymuls run the DIF forward and this DIT inverse back to back, so no
//! permutation pass runs between them: the point-wise product does not
//! care about order.
//!
//! Every `*_simd` kernel here runs its loop inside
//! [`SimdEngine::vectorize`], the engine's target-feature frame; see its
//! docs for what code inside such a closure must keep true. The lazy
//! kernels of the fused polymuls are generic over the lane width
//! ([`mqx_simd::Lanes`]): one 64-bit limb per residue for a modulus below
//! `2^62`, two otherwise.

use crate::plan::{NttPlan, StageTwiddles};
use mqx_core::shoup;
use mqx_simd::{addmod, mulmod, submod, Lanes, ResidueSoa, SimdEngine, TwoLimbs, VDword, VModulus};

/// Runs all Pease stages with scalar arithmetic. On return `x` holds the
/// transform in **bit-reversed** order (the caller applies the final
/// permutation).
pub(crate) fn pease_scalar(
    plan: &NttPlan,
    x: &mut Vec<u128>,
    y: &mut Vec<u128>,
    stages: &[StageTwiddles],
) {
    let n = x.len();
    let half = n / 2;
    let m = plan.modulus();
    for stage in stages {
        for i in 0..half {
            let u = x[i];
            let v = x[i + half];
            let w = stage.at(i);
            y[2 * i] = m.add_mod(u, v);
            y[2 * i + 1] = m.mul_mod(m.sub_mod(u, v), w);
        }
        std::mem::swap(x, y);
    }
}

/// Runs all Pease stages with the engine's vector arithmetic. Falls back
/// to scalar butterflies when `n/2 < E::LANES` (only the trailing sizes
/// of tiny transforms). Output is bit-reversed, as in the scalar form.
pub(crate) fn pease_simd<E: SimdEngine>(
    plan: &NttPlan,
    x: &mut ResidueSoa,
    y: &mut ResidueSoa,
    stages: &[StageTwiddles],
    vm: &VModulus<E>,
) {
    E::vectorize(
        #[inline(always)]
        |t| {
            let half = x.len() / 2;
            let m = plan.modulus();
            for stage in stages {
                if half < E::LANES {
                    // Tiny transform: scalar butterflies keep the dataflow
                    // identical without partial vectors.
                    for i in 0..half {
                        let u = x.get(i);
                        let v = x.get(i + half);
                        let w = stage.at(i);
                        y.set(2 * i, m.add_mod(u, v));
                        y.set(2 * i + 1, m.mul_mod(m.sub_mod(u, v), w));
                    }
                } else {
                    // Twiddles repeat in runs of 2^s: early stages load the
                    // per-index expanded table (pattern varies inside the
                    // vector); later stages broadcast the single value the
                    // whole vector shares. Chosen once per stage.
                    match lane_tables::<E>(stage) {
                        Some((w, _)) => canonical_stage::<E>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| w.load_vector::<E>(t, i),
                        ),
                        None => canonical_stage::<E>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| VDword::<E>::broadcast(t, stage.at(i)),
                        ),
                    }
                }
                std::mem::swap(x, y);
            }
        },
    );
}

/// Runs all Pease stages with *lazy* Gentleman–Sande butterflies: the
/// sum leg is `fold_{2q}(u + v)` (one conditional correction) and the
/// difference leg is `shoup_lazy(u − v + 2q, w)` (no correction at all —
/// the lazy Shoup multiply accepts the unreduced `[0, 4q)` difference and
/// returns `[0, 2q)`). Coefficients therefore stay in `[0, 2q)` across
/// every stage, and the AVX paths drop their per-butterfly
/// compare-subtract pairs to one. Output is bit-reversed, as in
/// [`pease_simd`]. Runs at lane width `W` (see [`mqx_simd::Lanes`]).
pub(crate) fn pease_lazy_simd<E: SimdEngine, W: Lanes<E>>(
    plan: &NttPlan,
    x: &mut ResidueSoa,
    y: &mut ResidueSoa,
    stages: &[StageTwiddles],
    vm: &VModulus<E>,
) {
    let half = x.len() / 2;
    let q = plan.modulus().value();
    let two_q = 2 * q;
    W::debug_assert_domain(x, two_q, "pease_lazy input");
    E::vectorize(
        #[inline(always)]
        |t| {
            for stage in stages {
                if half < E::LANES {
                    // Tiny transform: scalar lazy butterflies keep the dataflow
                    // (and the lazy domain) identical without partial vectors.
                    for i in 0..half {
                        let u = W::read(x, i);
                        let v = W::read(x, i + half);
                        let mut sum = u + v;
                        if sum >= two_q {
                            sum -= two_q;
                        }
                        let diff =
                            shoup::mul_lazy(u + two_q - v, stage.at(i), stage.at_shoup(i), q);
                        W::write(y, 2 * i, sum);
                        W::write(y, 2 * i + 1, diff);
                    }
                } else {
                    match lane_tables::<E>(stage) {
                        Some((w, w_shoup)) => lazy_stage::<E, W>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| W::load_twiddles(t, w, w_shoup, i),
                        ),
                        None => lazy_stage::<E, W>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| W::splat_twiddle(t, stage.at(i), stage.at_shoup(i)),
                        ),
                    }
                }
                std::mem::swap(x, y);
            }
        },
    );
}

/// Runs the **transposed** Pease stages — the decimation-in-time twin of
/// [`pease_lazy_simd`] — with lazy Harvey Cooley–Tukey butterflies.
/// Consumes a **bit-reversed** input and leaves natural order, so a
/// forward transform's output feeds it with no permutation between.
///
/// Stages run `s = log₂n − 1 … 0` over the same tables, and butterfly
/// `i` reads the same twiddle `w_s[i >> s]` as in the forward stage: the
/// transpose of `interleave ∘ diag(1, w) ∘ (u ± v)` is
/// `(u ± v) ∘ diag(1, w) ∘ deinterleave`. Per butterfly:
///
/// ```text
/// u = fold_{2q}(x[2i]),  t = shoup_lazy(x[2i+1], w)
/// y[i] = u + t,          y[i + n/2] = u − t + 2q
/// ```
///
/// one conditional fold and no other correction: `u, t < 2q`, so both
/// legs land in `[0, 4q)`, the input domain of the next stage.
///
/// Domain contract (debug-asserted): inputs `< 4q`; outputs `< 4q`.
pub(crate) fn pease_lazy_inverse_simd<E: SimdEngine, W: Lanes<E>>(
    plan: &NttPlan,
    x: &mut ResidueSoa,
    y: &mut ResidueSoa,
    stages: &[StageTwiddles],
    vm: &VModulus<E>,
) {
    let half = x.len() / 2;
    let q = plan.modulus().value();
    let two_q = 2 * q;
    W::debug_assert_domain(x, 4 * q, "pease_lazy_inverse input");
    E::vectorize(
        #[inline(always)]
        |t| {
            for stage in stages.iter().rev() {
                if half < E::LANES {
                    // Tiny transform: the same lazy butterflies, scalar.
                    for i in 0..half {
                        let mut u = W::read(x, 2 * i);
                        if u >= two_q {
                            u -= two_q;
                        }
                        let vw = shoup::mul_lazy(
                            W::read(x, 2 * i + 1),
                            stage.at(i),
                            stage.at_shoup(i),
                            q,
                        );
                        W::write(y, i, u + vw);
                        W::write(y, i + half, u + two_q - vw);
                    }
                } else {
                    match lane_tables::<E>(stage) {
                        Some((w, w_shoup)) => lazy_inverse_stage::<E, W>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| W::load_twiddles(t, w, w_shoup, i),
                        ),
                        None => lazy_inverse_stage::<E, W>(
                            t,
                            x,
                            y,
                            vm,
                            #[inline(always)]
                            |i| W::splat_twiddle(t, stage.at(i), stage.at_shoup(i)),
                        ),
                    }
                }
                std::mem::swap(x, y);
            }
        },
    );
}

/// The stage's per-index twiddle tables (values, Shoup constants) when a
/// vector of `E::LANES` butterflies spans more than one twiddle run
/// (`2^s < E::LANES`); `None` when one broadcast value serves the whole
/// vector. [`NttPlan::new`] builds the tables for every stage with
/// `2^s` below the widest vector (8 lanes), so they are there whenever
/// an engine needs them.
#[inline(always)]
fn lane_tables<E: SimdEngine>(stage: &StageTwiddles) -> Option<(&ResidueSoa, &ResidueSoa)> {
    if (1_usize << stage.shift) >= E::LANES {
        return None;
    }
    let tables = stage.expanded.as_ref().zip(stage.expanded_shoup.as_ref());
    debug_assert!(tables.is_some(), "stage {} has no lane tables", stage.shift);
    tables
}

/// One vector stage of [`pease_simd`]: canonical butterflies, the
/// twiddle of vector index `i` from `twiddle(i)`.
#[inline(always)]
fn canonical_stage<E: SimdEngine>(
    t: E::Token,
    x: &ResidueSoa,
    y: &mut ResidueSoa,
    vm: &VModulus<E>,
    twiddle: impl Fn(usize) -> VDword<E>,
) {
    let half = x.len() / 2;
    for i in (0..half).step_by(E::LANES) {
        let u = x.load_vector::<E>(t, i);
        let v = x.load_vector::<E>(t, i + half);
        let sum = addmod::<E>(u, v, vm);
        let diff = mulmod::<E>(submod::<E>(u, v, vm), twiddle(i), vm);
        <TwoLimbs as Lanes<E>>::store_interleaved(y, 2 * i, sum, diff);
    }
}

/// One vector stage of [`pease_lazy_simd`]: lazy butterflies, the
/// twiddle and its Shoup constant for vector index `i` from
/// `twiddle(i)`.
#[inline(always)]
fn lazy_stage<E: SimdEngine, W: Lanes<E>>(
    t: E::Token,
    x: &ResidueSoa,
    y: &mut ResidueSoa,
    vm: &VModulus<E>,
    twiddle: impl Fn(usize) -> (W::V, W::V),
) {
    W::debug_assert_domain(x, 2 * vm.scalar.value(), "lazy stage input");
    let half = x.len() / 2;
    for i in (0..half).step_by(E::LANES) {
        let u = W::load(t, x, i);
        let v = W::load(t, x, i + half);
        let (w, w_shoup) = twiddle(i);
        let sum = W::add_lazy(u, v, vm);
        let diff = W::mul_shoup_lazy(W::sub_lazy(u, v, vm), w, w_shoup, vm);
        W::store_interleaved(y, 2 * i, sum, diff);
    }
}

/// One vector stage of [`pease_lazy_inverse_simd`]: lazy Harvey
/// butterflies on the deinterleaved pairs, both legs stored at unit
/// stride.
#[inline(always)]
fn lazy_inverse_stage<E: SimdEngine, W: Lanes<E>>(
    t: E::Token,
    x: &ResidueSoa,
    y: &mut ResidueSoa,
    vm: &VModulus<E>,
    twiddle: impl Fn(usize) -> (W::V, W::V),
) {
    W::debug_assert_domain(x, 4 * vm.scalar.value(), "lazy inverse stage input");
    let half = x.len() / 2;
    for i in (0..half).step_by(E::LANES) {
        let (u, v) = W::load_deinterleaved(t, x, 2 * i);
        let (w, w_shoup) = twiddle(i);
        let u = W::reduce_4q(u, vm);
        let vw = W::mul_shoup_lazy(v, w, w_shoup, vm);
        W::store(y, i, W::add_unreduced(u, vw));
        W::store(y, i + half, W::sub_lazy(u, vw, vm));
    }
}

/// Lazy point-wise multiply `a[i] ← a[i]·b[i] mod q` between the fused
/// forward and inverse passes: both operands arrive in `[0, 2q)`, are
/// folded to canonical with one correction each (Barrett needs reduced
/// operands), and the product leaves canonical — a valid `< 2q` input
/// for the lazy inverse.
pub(crate) fn pointwise_fold_mul_simd<E: SimdEngine, W: Lanes<E>>(
    a: &mut ResidueSoa,
    b: &ResidueSoa,
    vm: &VModulus<E>,
) {
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = a.len();
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let x = W::reduce_2q(W::load(t, a, i), vm);
                let y = W::reduce_2q(W::load(t, b, i), vm);
                W::store(a, i, W::mul(x, y, vm));
                i += lanes;
            }
            let m = vm.scalar;
            let q = m.value();
            while i < n {
                let fold = |v: u128| if v >= q { v - q } else { v };
                let r = m.mul_mod(fold(W::read(a, i)), fold(W::read(b, i)));
                W::write(a, i, r);
                i += 1;
            }
        },
    );
}

/// The fused inverse's final pass: multiply every residue by the
/// constant `(c, c_shoup)` with a lazy Shoup multiply, then canonicalize
/// with a single conditional subtraction — `n⁻¹` scale and canonical
/// reduction in one sweep, writing every plane of `x`.
pub(crate) fn scale_shoup_canonical_simd<E: SimdEngine, W: Lanes<E>>(
    x: &mut ResidueSoa,
    c: u128,
    c_shoup: u128,
    vm: &VModulus<E>,
) {
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = x.len();
            let (cv, csv) = W::splat_twiddle(t, c, c_shoup);
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let r = W::mul_shoup_lazy(W::load(t, x, i), cv, csv, vm);
                W::store_canonical(t, x, i, W::reduce_2q(r, vm));
                i += lanes;
            }
            let q = vm.scalar.value();
            while i < n {
                let r = shoup::mul_lazy(W::read(x, i), c, c_shoup, q);
                x.set(i, if r >= q { r - q } else { r });
                i += 1;
            }
        },
    );
}

/// Element-wise lazy Shoup multiply by a per-index table — the ψ twist
/// (and, with `canonicalize`, the merged `ψ^{−i}·n⁻¹` untwist) of the
/// fused negacyclic pipeline. Leaves values in `[0, 2q)`, or canonical
/// `[0, q)` in every plane of `x` when `canonicalize` is set.
pub(crate) fn twist_shoup_simd<E: SimdEngine, W: Lanes<E>>(
    x: &mut ResidueSoa,
    w: &ResidueSoa,
    w_shoup: &ResidueSoa,
    vm: &VModulus<E>,
    canonicalize: bool,
) {
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = x.len();
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let (wv, wsv) = W::load_twiddles(t, w, w_shoup, i);
                let r = W::mul_shoup_lazy(W::load(t, x, i), wv, wsv, vm);
                if canonicalize {
                    W::store_canonical(t, x, i, W::reduce_2q(r, vm));
                } else {
                    W::store(x, i, r);
                }
                i += lanes;
            }
            let q = vm.scalar.value();
            while i < n {
                let r = shoup::mul_lazy(W::read(x, i), w.get(i), w_shoup.get(i), q);
                if canonicalize {
                    x.set(i, if r >= q { r - q } else { r });
                } else {
                    W::write(x, i, r);
                }
                i += 1;
            }
        },
    );
}

/// Scales every residue by a constant (the inverse transform's `n⁻¹`).
pub(crate) fn scale_simd<E: SimdEngine>(x: &mut ResidueSoa, c: u128, vm: &VModulus<E>) {
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = x.len();
            let cv = VDword::<E>::broadcast(t, c);
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let v = x.load_vector::<E>(t, i);
                x.store_vector::<E>(i, mulmod::<E>(v, cv, vm));
                i += lanes;
            }
            let m = vm.scalar;
            while i < n {
                x.set(i, m.mul_mod(x.get(i), c));
                i += 1;
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::{primes, Modulus};
    use mqx_simd::Portable;

    #[test]
    fn scale_simd_handles_tails() {
        let m = Modulus::new(primes::Q124).unwrap();
        let vm = VModulus::<Portable>::new(&m);
        // Length 11: one full vector + 3 scalar tail elements.
        let xs: Vec<u128> = (1..=11_u64).map(u128::from).collect();
        let mut soa = ResidueSoa::from_u128s(&xs);
        scale_simd::<Portable>(&mut soa, 3, &vm);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(soa.get(i), x * 3, "index {i}");
        }
    }

    #[test]
    fn interleave_pattern_matches_scalar_writes() {
        // One Pease stage by hand on n = 16 (half = 8 = one vector).
        let m = Modulus::new_prime(primes::Q30).unwrap();
        let plan = crate::NttPlan::new(&m, 16).unwrap();
        let xs: Vec<u128> = (0..16_u64).map(|i| u128::from(i * 3 + 1)).collect();

        let mut scalar_x = xs.clone();
        let mut scalar_y = vec![0_u128; 16];
        pease_scalar(&plan, &mut scalar_x, &mut scalar_y, &plan.pease_fwd[..1]);

        let mut soa = ResidueSoa::from_u128s(&xs);
        let mut scratch = ResidueSoa::zeros(16);
        pease_simd::<Portable>(
            &plan,
            &mut soa,
            &mut scratch,
            &plan.pease_fwd[..1],
            &VModulus::new(&m),
        );

        assert_eq!(soa.to_u128s(), scalar_x);
    }

    /// The one-limb final passes write both planes of their output: a
    /// `hi` plane left stale by an earlier buffer swap reads as zero
    /// afterwards, and the `lo` plane holds the canonical value computed
    /// from the `lo` input alone. Length 11 runs one whole Portable
    /// vector and a 3-element scalar tail.
    #[test]
    fn one_limb_final_passes_write_every_plane() {
        use mqx_simd::OneLimb;
        let q = primes::Q62;
        let m = Modulus::new_prime(q).unwrap();
        let vm = VModulus::<Portable>::new(&m);
        let ctx = mqx_core::shoup::ShoupCtx::new(&m);
        // Lazy inputs in [0, 4q) on the lo plane, garbage above it.
        let lo: Vec<u128> = (0..11_u128)
            .map(|i| (4 * q - 1 - i * 0x1234_5678) % (4 * q))
            .collect();
        let stale = || {
            let mut x = ResidueSoa::from_u128s(&lo);
            x.parts_mut().0.fill(u64::MAX);
            x
        };
        let c = q / 3;
        let mut x = stale();
        scale_shoup_canonical_simd::<Portable, OneLimb>(&mut x, c, ctx.constant(c), &vm);
        let want: Vec<u128> = lo.iter().map(|&v| m.mul_mod(v % q, c)).collect();
        assert_eq!(x.to_u128s(), want, "scale");

        let ws: Vec<u128> = (0..11_u128).map(|i| (i * 0x9E37_79B9 + 5) % q).collect();
        let w = ResidueSoa::from_u128s(&ws);
        let w_shoup: ResidueSoa = ws.iter().map(|&v| ctx.constant(v)).collect();
        let mut x = stale();
        twist_shoup_simd::<Portable, OneLimb>(&mut x, &w, &w_shoup, &vm, true);
        let want: Vec<u128> = lo
            .iter()
            .zip(&ws)
            .map(|(&v, &w)| m.mul_mod(v % q, w))
            .collect();
        assert_eq!(x.to_u128s(), want, "untwist");
    }

    /// Stage s of the DIF forward (ω tables) followed by the transposed
    /// DIT stage s (ω⁻¹ tables) is `(u ± v)·diag(1, w⁻¹w)·(u ± v)`, i.e.
    /// 2·x, at lane width `W`. n = 16 runs whole Portable vectors
    /// (twiddles from the lane tables at s < 3, broadcast after), n = 4
    /// the scalar fallback.
    fn transposed_stage_undoes_forward_stage<W: Lanes<Portable>>(q: u128) {
        let m = Modulus::new_prime(q).unwrap();
        let vm = VModulus::<Portable>::new(&m);
        for n in [4_usize, 16] {
            let plan = crate::NttPlan::new(&m, n).unwrap();
            // Forward inputs in [0, 2q), both extremes included.
            let xs: Vec<u128> = (0..n as u128)
                .map(|i| match i {
                    0 => 2 * q - 1,
                    1 => q,
                    _ => (i * 0x9E37_79B9_7F4A_7C15 + 3) % (2 * q),
                })
                .collect();
            for s in 0..plan.log_size() as usize {
                let mut x = ResidueSoa::from_u128s(&xs);
                let mut y = ResidueSoa::zeros(n);
                pease_lazy_simd::<Portable, W>(&plan, &mut x, &mut y, &plan.pease_fwd[s..=s], &vm);
                pease_lazy_inverse_simd::<Portable, W>(
                    &plan,
                    &mut x,
                    &mut y,
                    &plan.pease_inv[s..=s],
                    &vm,
                );
                for (i, &v) in xs.iter().enumerate() {
                    let got = W::read(&x, i);
                    assert!(got < 4 * q, "n={n} s={s} index {i} escapes [0, 4q)");
                    assert_eq!(got % q, m.add_mod(v % q, v % q), "n={n} s={s} index {i}");
                }
            }
        }
    }

    #[test]
    fn transposed_stage_undoes_forward_stage_up_to_two() {
        use mqx_simd::OneLimb;
        transposed_stage_undoes_forward_stage::<TwoLimbs>(primes::Q124);
        transposed_stage_undoes_forward_stage::<OneLimb>(primes::Q62);
    }
}
