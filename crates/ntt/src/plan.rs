//! The [`NttPlan`]: per-(modulus, size) precomputation and the scalar
//! dataflows.

use crate::error::NttError;
use crate::pease;
use mqx_core::shoup::ShoupCtx;
use mqx_core::{nt, Modulus, RootError};
use mqx_simd::{
    debug_assert_domain_soa, Lanes, OneLimb, ResidueSoa, SimdEngine, TwoLimbs, VModulus,
};
use std::mem::size_of;
use std::sync::OnceLock;

/// Per-stage twiddle table for the Pease dataflow.
///
/// Stage `s` of the constant-geometry DIF transform multiplies index `i`
/// (`0 ≤ i < n/2`) by `ω^{(i >> s) << s}`: the `2^{log₂n−1−s}` distinct
/// values each repeat for `2^s` consecutive indices. The distinct values
/// are stored once; for the first stages (repeat shorter than a vector)
/// an expanded per-index SoA table lets vector loads pick up the
/// intra-register pattern directly, while later stages broadcast a single
/// value per vector.
#[derive(Clone, Debug)]
pub(crate) struct StageTwiddles {
    /// Distinct twiddles: `values[j] = ω^{j·2^s}`, `len = 2^{log₂n−1−s}`.
    pub values: Vec<u128>,
    /// Shoup constants `⌊values[j]·2^128/q⌋`, same indexing as `values`.
    pub values_shoup: Vec<u128>,
    /// The stage index `s` (twiddle for index `i` is `values[i >> shift]`).
    pub shift: u32,
    /// Full per-index table in SoA form, present when the repeat length
    /// `2^s` is below the widest vector (8 lanes).
    pub expanded: Option<ResidueSoa>,
    /// Shoup constants of `expanded`, same layout.
    pub expanded_shoup: Option<ResidueSoa>,
}

impl StageTwiddles {
    /// The twiddle applied at butterfly index `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u128 {
        self.values[i >> self.shift]
    }

    /// The Shoup constant of the twiddle applied at butterfly index `i`.
    #[inline]
    pub fn at_shoup(&self, i: usize) -> u128 {
        self.values_shoup[i >> self.shift]
    }

    /// Residues held, for [`NttPlan::table_bytes`].
    fn residues(&self) -> usize {
        let soa = |t: &Option<ResidueSoa>| t.as_ref().map_or(0, ResidueSoa::len);
        self.values.len()
            + self.values_shoup.len()
            + soa(&self.expanded)
            + soa(&self.expanded_shoup)
    }
}

/// Precomputed ψ twist tables for the fused negacyclic pipeline: the
/// forward twist `ψ^i` and the *merged* untwist-and-scale `ψ^{−i}·n⁻¹`,
/// each with its Shoup constant so both element-wise passes run as lazy
/// Shoup multiplies. Those four planes are what serving reads and are
/// built with the plan; the plain `ψ^i` / `ψ^{−i}` slices only the
/// scalar reference [`crate::polymul::polymul_negacyclic`] reads sit in
/// cells filled on first use.
#[derive(Clone, Debug)]
pub(crate) struct FusedTwist {
    /// ψ⁻¹, the seed of the on-first-use `ψ^{−i}` slice (ψ itself is
    /// `psi[1]`).
    psi0_inv: u128,
    /// `ψ^i`, canonical, SoA layout.
    pub psi: ResidueSoa,
    /// Shoup constants of `ψ^i`.
    pub psi_shoup: ResidueSoa,
    /// `ψ^{−i}·n⁻¹`, canonical — the fused pipeline's single final pass.
    pub psi_inv_n: ResidueSoa,
    /// Shoup constants of `ψ^{−i}·n⁻¹`.
    pub psi_inv_n_shoup: ResidueSoa,
    /// `ψ^i` and `ψ^{−i}` as plain slices, for the scalar reference
    /// `polymul_negacyclic` (whose inverse NTT already applies `n⁻¹`).
    psi_vec: OnceLock<Vec<u128>>,
    psi_inv_vec: OnceLock<Vec<u128>>,
}

impl FusedTwist {
    /// Residues held so far, for [`NttPlan::table_bytes`].
    fn residues(&self) -> usize {
        self.psi.len()
            + self.psi_shoup.len()
            + self.psi_inv_n.len()
            + self.psi_inv_n_shoup.len()
            + self.psi_vec.get().map_or(0, Vec::len)
            + self.psi_inv_vec.get().map_or(0, Vec::len)
    }
}

fn shoup_constants(ctx: &ShoupCtx, ws: &[u128]) -> Vec<u128> {
    ws.iter().map(|&w| ctx.constant(w)).collect()
}

/// The geometric sequence `first·base^i` for `0 ≤ i < n`.
fn geometric(m: &Modulus, first: u128, base: u128, n: usize) -> Vec<u128> {
    let mut out = Vec::with_capacity(n);
    let mut p = first;
    for _ in 0..n {
        out.push(p);
        p = m.mul_mod(p, base);
    }
    out
}

/// A reusable NTT plan: Barrett constants, twiddle tables, the
/// bit-reversal permutation, and `n⁻¹`.
///
/// Building a plan costs O(n) modular multiplications (every table is a
/// geometric sequence; a Shoup constant is one more multiply, see
/// [`ShoupCtx`]) and is done once per (modulus, size); the paper's
/// kernels precompute the same state (§5.1 warms it before timing).
///
/// [`NttPlan::new`] builds **one** table family: the Pease
/// constant-geometry stages with their Shoup constants and
/// lane-expanded copies, plus the fused negacyclic twist — what the
/// SIMD kernels, and so every served request, read. The Cooley–Tukey
/// twiddles of the `*_scalar` reference transforms and the unmerged
/// ψ / ψ⁻¹ slices of the scalar reference
/// [`polymul_negacyclic`](crate::polymul::polymul_negacyclic) are built
/// on their first use, so opening a ring does not pay for tables only
/// oracles, baselines and benches read. [`NttPlan::table_bytes`]
/// reports what is resident.
///
/// The plan offers exactly two kinds of transform: the SIMD kernels
/// (the §3.2 Pease transforms [`NttPlan::forward_simd`] /
/// [`NttPlan::inverse_simd`] and the served fused polymuls
/// [`NttPlan::polymul_fused_cyclic_simd`] /
/// [`NttPlan::polymul_fused_negacyclic_simd`]) and the scalar oracles
/// ([`NttPlan::forward_scalar`] / [`NttPlan::inverse_scalar`], the
/// Pease scalar pair).
#[derive(Clone, Debug)]
pub struct NttPlan {
    m: Modulus,
    n: usize,
    log_n: u32,
    /// ω_n and ω_n⁻¹.
    omega: u128,
    omega_inv: u128,
    /// n⁻¹ mod q, for the inverse transform.
    n_inv: u128,
    /// Shoup constant of `n_inv`, for the fused cyclic pipeline's final
    /// scale.
    n_inv_shoup: u128,
    /// Pease per-stage tables (forward and inverse).
    pub(crate) pease_fwd: Vec<StageTwiddles>,
    pub(crate) pease_inv: Vec<StageTwiddles>,
    /// Bit-reversal permutation of 0..n. Read only by the standalone
    /// transforms (which keep natural order in and out) and the scalar
    /// paths; the fused polymuls never permute.
    bitrev: Vec<u32>,
    /// Twist tables for negacyclic use, when the field supports a 2n-th
    /// root.
    twist: Option<FusedTwist>,
    /// Whether the fused pipelines run one limb per residue: `q < 2^62`,
    /// so every lazy value (`< 4q`) fits a 64-bit lane.
    one_limb: bool,
    /// Cooley–Tukey per-stage twiddles (forward and inverse), built by
    /// the first scalar transform in that direction: the stage with
    /// butterfly span `len` holds the `len/2` twiddles `ω^{(n/len)·j}`.
    ct_fwd: OnceLock<Vec<Vec<u128>>>,
    ct_inv: OnceLock<Vec<Vec<u128>>>,
}

impl NttPlan {
    /// Builds a plan for an `n`-point transform over the prime field of
    /// `m`.
    ///
    /// # Errors
    ///
    /// * [`NttError::SizeTooSmall`] / [`NttError::SizeNotPowerOfTwo`] for
    ///   unusable sizes;
    /// * [`NttError::NoRoot`] if `n ∤ q − 1` (the field's 2-adicity is
    ///   too small for the requested size).
    ///
    /// Negacyclic (ψ) tables are attached when the field also has a
    /// `2n`-th root; otherwise the plan still serves cyclic transforms
    /// and [`NttPlan::supports_negacyclic`] returns `false`.
    pub fn new(m: &Modulus, n: usize) -> Result<Self, NttError> {
        if n < 2 {
            return Err(NttError::SizeTooSmall);
        }
        if !n.is_power_of_two() {
            return Err(NttError::SizeNotPowerOfTwo { n });
        }
        let log_n = n.trailing_zeros();
        let omega = nt::root_of_unity(m, n as u64)?;
        let omega_inv = m.inv_mod(omega).expect("root invertible");
        let n_inv = m.inv_mod(n as u128).expect("n < q invertible");

        let ctx = ShoupCtx::new(m);
        let pease_fwd = build_pease_tables(m, &ctx, n, omega);
        let pease_inv = build_pease_tables(m, &ctx, n, omega_inv);

        let mut bitrev = vec![0_u32; n];
        for (i, slot) in bitrev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - log_n);
        }

        // Negacyclic tables if ψ (a 2n-th root with ψ² = ω) exists.
        let twist = nt::root_of_unity(m, 2 * n as u64).ok().map(|mut psi0| {
            // Pick the square root of ω among ψ, so the twist matches
            // the forward tables exactly.
            if m.mul_mod(psi0, psi0) != omega {
                // Any primitive 2n-th root squares to *a* primitive
                // n-th root; adjust by an odd power to hit ours.
                let mut k = 1_u128;
                loop {
                    let cand = m.pow_mod(psi0, 2 * k + 1);
                    if m.mul_mod(cand, cand) == omega {
                        psi0 = cand;
                        break;
                    }
                    k += 1;
                    assert!(k < 2 * n as u128, "no compatible ψ found");
                }
            }
            let psi0_inv = m.inv_mod(psi0).expect("psi invertible");
            // Merge ψ^{−i} with the n⁻¹ scale so the untwist is the
            // *only* pass after the lazy inverse transform:
            // ψ^{−i}·n⁻¹ is the geometric sequence that starts at n⁻¹.
            let psi = geometric(m, 1, psi0, n);
            let psi_inv_n = geometric(m, n_inv, psi0_inv, n);
            FusedTwist {
                psi0_inv,
                psi_shoup: ResidueSoa::from_u128s(&shoup_constants(&ctx, &psi)),
                psi: ResidueSoa::from_u128s(&psi),
                psi_inv_n_shoup: ResidueSoa::from_u128s(&shoup_constants(&ctx, &psi_inv_n)),
                psi_inv_n: ResidueSoa::from_u128s(&psi_inv_n),
                psi_vec: OnceLock::new(),
                psi_inv_vec: OnceLock::new(),
            }
        });

        Ok(NttPlan {
            m: *m,
            n,
            log_n,
            omega,
            omega_inv,
            n_inv,
            n_inv_shoup: ctx.constant(n_inv),
            pease_fwd,
            pease_inv,
            bitrev,
            twist,
            one_limb: m.value() < 1 << 62,
            ct_fwd: OnceLock::new(),
            ct_inv: OnceLock::new(),
        })
    }

    /// The transform size.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The modulus the plan was built for.
    pub fn modulus(&self) -> &Modulus {
        &self.m
    }

    /// The primitive `n`-th root of unity the plan evaluates at.
    pub fn omega(&self) -> u128 {
        self.omega
    }

    /// ω⁻¹, the root the inverse transform evaluates at.
    pub fn omega_inv(&self) -> u128 {
        self.omega_inv
    }

    /// log₂ of the transform size.
    pub fn log_size(&self) -> u32 {
        self.log_n
    }

    /// `n⁻¹ mod q`.
    pub fn n_inv(&self) -> u128 {
        self.n_inv
    }

    /// Whether negacyclic (x^n + 1) operations are available — requires a
    /// `2n`-th root of unity in the field.
    pub fn supports_negacyclic(&self) -> bool {
        self.twist.is_some()
    }

    /// ψ powers (`ψ^i`, `0 ≤ i < n`), if negacyclic support is
    /// available — the plain-slice form the scalar reference
    /// [`polymul_negacyclic`](crate::polymul::polymul_negacyclic)
    /// reads, built on the first call.
    pub fn psi(&self) -> Option<&[u128]> {
        let t = self.twist.as_ref()?;
        Some(t.psi_vec.get_or_init(|| t.psi.to_u128s()))
    }

    /// ψ^{−i} powers, if negacyclic support is available (built on the
    /// first call).
    pub fn psi_inv(&self) -> Option<&[u128]> {
        let t = self.twist.as_ref()?;
        Some(
            t.psi_inv_vec
                .get_or_init(|| geometric(&self.m, 1, t.psi0_inv, self.n)),
        )
    }

    /// Bytes of precomputed tables this plan currently holds: what
    /// [`NttPlan::new`] built plus whichever on-first-use tables have
    /// been filled since.
    pub fn table_bytes(&self) -> usize {
        let pease = self.pease_fwd.iter().chain(&self.pease_inv);
        let ct = [&self.ct_fwd, &self.ct_inv]
            .into_iter()
            .filter_map(OnceLock::get)
            .flatten();
        let residues = pease.map(StageTwiddles::residues).sum::<usize>()
            + ct.map(Vec::len).sum::<usize>()
            + self.twist.as_ref().map_or(0, FusedTwist::residues);
        residues * size_of::<u128>() + self.bitrev.len() * size_of::<u32>()
    }

    fn ct_fwd(&self) -> &[Vec<u128>] {
        self.ct_fwd
            .get_or_init(|| build_ct_tables(&self.m, self.n, self.omega))
    }

    fn ct_inv(&self) -> &[Vec<u128>] {
        self.ct_inv
            .get_or_init(|| build_ct_tables(&self.m, self.n, self.omega_inv))
    }

    pub(crate) fn no_negacyclic_root(&self) -> NttError {
        NttError::NoRoot(RootError::NoSuchRoot {
            order: 2 * self.n as u64,
        })
    }

    // ---- scalar dataflow: iterative Cooley–Tukey ------------------------

    /// In-place forward NTT, natural order in and out — the paper's
    /// optimized scalar tier (§3.1 arithmetic inside a radix-2 loop nest).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.size()`; debug-asserts inputs reduced.
    pub fn forward_scalar(&self, x: &mut [u128]) {
        assert_eq!(x.len(), self.n, "input length must match plan size");
        self.bit_reverse_permute(x);
        self.ct_butterflies(x, self.ct_fwd());
    }

    /// In-place inverse NTT, natural order in and out (includes the
    /// `n⁻¹` scale).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.size()`.
    pub fn inverse_scalar(&self, x: &mut [u128]) {
        assert_eq!(x.len(), self.n, "input length must match plan size");
        self.bit_reverse_permute(x);
        self.ct_butterflies(x, self.ct_inv());
        for v in x.iter_mut() {
            *v = self.m.mul_mod(*v, self.n_inv);
        }
    }

    fn bit_reverse_permute(&self, x: &mut [u128]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                x.swap(i, j);
            }
        }
    }

    fn ct_butterflies(&self, x: &mut [u128], tables: &[Vec<u128>]) {
        let m = &self.m;
        for (s, tw) in tables.iter().enumerate() {
            let half = 1_usize << s; // butterflies per block
            let len = half * 2; // block span
            for block in (0..self.n).step_by(len) {
                for j in 0..half {
                    let u = x[block + j];
                    let v = m.mul_mod(x[block + j + half], tw[j]);
                    x[block + j] = m.add_mod(u, v);
                    x[block + j + half] = m.sub_mod(u, v);
                }
            }
        }
    }

    // ---- Pease constant-geometry dataflow (scalar and SIMD) -------------

    /// Out-of-place forward NTT in the Pease constant-geometry dataflow,
    /// scalar arithmetic. `x` is consumed as input and holds the natural-
    /// order output; `scratch` must be the same length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size.
    pub fn forward_pease_scalar(&self, x: &mut Vec<u128>, scratch: &mut Vec<u128>) {
        assert_eq!(x.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        pease::pease_scalar(self, x, scratch, &self.pease_fwd);
        self.bit_reverse_out(x, scratch);
    }

    /// Out-of-place inverse NTT (Pease dataflow, scalar arithmetic),
    /// including the `n⁻¹` scale.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size.
    pub fn inverse_pease_scalar(&self, x: &mut Vec<u128>, scratch: &mut Vec<u128>) {
        assert_eq!(x.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        pease::pease_scalar(self, x, scratch, &self.pease_inv);
        self.bit_reverse_out(x, scratch);
        for v in x.iter_mut() {
            *v = self.m.mul_mod(*v, self.n_inv);
        }
    }

    fn bit_reverse_out(&self, x: &mut [u128], scratch: &mut [u128]) {
        for i in 0..self.n {
            scratch[self.bitrev[i] as usize] = x[i];
        }
        x.copy_from_slice(scratch);
    }

    /// Forward NTT over SoA data with the engine's vector width — the
    /// §3.2 SIMD kernel. Natural order in and out.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size.
    pub fn forward_simd<E: SimdEngine>(&self, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        assert_eq!(x.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        let vm = VModulus::<E>::new(&self.m);
        pease::pease_simd::<E>(self, x, scratch, &self.pease_fwd, &vm);
        self.bit_reverse_soa(x, scratch);
    }

    /// Inverse NTT over SoA data (includes the `n⁻¹` scale).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size.
    pub fn inverse_simd<E: SimdEngine>(&self, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        assert_eq!(x.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        let vm = VModulus::<E>::new(&self.m);
        pease::pease_simd::<E>(self, x, scratch, &self.pease_inv, &vm);
        self.bit_reverse_soa(x, scratch);
        pease::scale_simd::<E>(x, self.n_inv, &vm);
    }

    /// `scratch[bitrev[i]] = x[i]`, then swap: one scatter per `u64`
    /// plane, so the walk moves words, not packed `u128`s.
    fn bit_reverse_soa(&self, x: &mut ResidueSoa, scratch: &mut ResidueSoa) {
        let (sh, sl) = scratch.parts_mut();
        for (dst, src) in [(sh, x.hi()), (sl, x.lo())] {
            for (&j, &v) in self.bitrev.iter().zip(src) {
                dst[j as usize] = v;
            }
        }
        std::mem::swap(x, scratch);
    }

    // ---- fused lazy pipelines (SIMD, Shoup butterflies) -----------------

    /// Fused cyclic polynomial product: forward(a), forward(b), pointwise
    /// multiply, inverse, with the canonical reduction and the `n⁻¹` scale
    /// merged into one final Shoup pass. No allocation and **no
    /// permutation**: both forwards leave their output bit-reversed, the
    /// pointwise product does not care about order, and the transposed
    /// (decimation-in-time) lazy inverse consumes bit-reversed input and
    /// leaves natural order. The forwards run in `[0, 2q)`, the inverse
    /// in `[0, 4q)`; `a` holds the canonical result, in both planes.
    /// `b` is clobbered, and `scratch`'s contents do not matter.
    ///
    /// A modulus below `2^62` runs every pass on the `lo` planes only,
    /// with the single-word lazy ops
    /// ([`mulmod_shoup_lazy_word`](mqx_simd::mulmod_shoup_lazy_word) and
    /// its siblings); a wider one runs the two-limb ops.
    ///
    /// Bit-identical to the canonical forward/pointwise/inverse pipeline:
    /// both produce the unique canonical residues of the same ring
    /// element.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size; debug-asserts inputs
    /// `< 2q`.
    pub fn polymul_fused_cyclic_simd<E: SimdEngine>(
        &self,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        debug_assert_domain_soa(a, 2 * self.m.value(), "polymul_fused input a");
        debug_assert_domain_soa(b, 2 * self.m.value(), "polymul_fused input b");
        self.pipeline::<E>(a, b, scratch, None);
    }

    /// Fused negacyclic polynomial product: lazy ψ-twist, the fused
    /// cyclic body without its final scale (so again no permutation: the
    /// transposed inverse reads the forwards' bit-reversed output), then a
    /// single merged `ψ^{−i}·n⁻¹` untwist-and-canonicalize pass, which
    /// accepts the inverse's `[0, 4q)` output. No allocation; `a` holds
    /// the canonical result, at the lane width of
    /// [`NttPlan::polymul_fused_cyclic_simd`].
    ///
    /// # Errors
    ///
    /// Returns [`NttError::NoRoot`] if the field has no 2n-th root.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ from the plan size; debug-asserts inputs
    /// `< 2q`.
    pub fn polymul_fused_negacyclic_simd<E: SimdEngine>(
        &self,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
    ) -> Result<(), NttError> {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        assert_eq!(scratch.len(), self.n);
        let twist = self
            .twist
            .as_ref()
            .ok_or_else(|| self.no_negacyclic_root())?;
        debug_assert_domain_soa(a, 2 * self.m.value(), "polymul_fused input a");
        debug_assert_domain_soa(b, 2 * self.m.value(), "polymul_fused input b");
        self.pipeline::<E>(a, b, scratch, Some(twist));
        Ok(())
    }

    /// Picks the lane width once and runs the fused pipeline at it.
    fn pipeline<E: SimdEngine>(
        &self,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
        twist: Option<&FusedTwist>,
    ) {
        if self.one_limb {
            self.pipeline_at::<E, OneLimb>(a, b, scratch, twist);
        } else {
            self.pipeline_at::<E, TwoLimbs>(a, b, scratch, twist);
        }
    }

    /// The fused pipeline at lane width `W`: with `twist`, the
    /// negacyclic product (ψ twist in, merged `ψ^{−i}·n⁻¹` untwist out),
    /// without it the cyclic one (`n⁻¹` scale out). The last pass
    /// canonicalizes `a` and writes both of its planes.
    fn pipeline_at<E: SimdEngine, W: Lanes<E>>(
        &self,
        a: &mut ResidueSoa,
        b: &mut ResidueSoa,
        scratch: &mut ResidueSoa,
        twist: Option<&FusedTwist>,
    ) {
        let vm = VModulus::<E>::new(&self.m);
        if let Some(tw) = twist {
            pease::twist_shoup_simd::<E, W>(a, &tw.psi, &tw.psi_shoup, &vm, false);
            pease::twist_shoup_simd::<E, W>(b, &tw.psi, &tw.psi_shoup, &vm, false);
        }
        pease::pease_lazy_simd::<E, W>(self, a, scratch, &self.pease_fwd, &vm);
        pease::pease_lazy_simd::<E, W>(self, b, scratch, &self.pease_fwd, &vm);
        pease::pointwise_fold_mul_simd::<E, W>(a, b, &vm);
        pease::pease_lazy_inverse_simd::<E, W>(self, a, scratch, &self.pease_inv, &vm);
        match twist {
            Some(tw) => {
                pease::twist_shoup_simd::<E, W>(a, &tw.psi_inv_n, &tw.psi_inv_n_shoup, &vm, true)
            }
            None => pease::scale_shoup_canonical_simd::<E, W>(a, self.n_inv, self.n_inv_shoup, &vm),
        }
    }
}

fn build_ct_tables(m: &Modulus, n: usize, omega: u128) -> Vec<Vec<u128>> {
    (0..n.trailing_zeros())
        .map(|s| {
            let step = m.pow_mod(omega, (n >> (s + 1)) as u128); // ω^{n/len}
            geometric(m, 1, step, 1 << s)
        })
        .collect()
}

fn build_pease_tables(m: &Modulus, ctx: &ShoupCtx, n: usize, omega: u128) -> Vec<StageTwiddles> {
    let log_n = n.trailing_zeros();
    let half = n / 2;
    let mut stages = Vec::with_capacity(log_n as usize);
    for s in 0..log_n {
        let distinct = 1_usize << (log_n - 1 - s);
        let step = m.pow_mod(omega, 1_u128 << s); // ω^{2^s}
        let values = geometric(m, 1, step, distinct);
        let values_shoup = shoup_constants(ctx, &values);
        // Expand per-index for stages whose repeat run (2^s) is shorter
        // than the widest vector, so SIMD loads see the right pattern.
        let (expanded, expanded_shoup) = if (1_usize << s) < 8 {
            let full: Vec<u128> = (0..half).map(|i| values[i >> s]).collect();
            let full_shoup: Vec<u128> = (0..half).map(|i| values_shoup[i >> s]).collect();
            (
                Some(ResidueSoa::from_u128s(&full)),
                Some(ResidueSoa::from_u128s(&full_shoup)),
            )
        } else {
            (None, None)
        };
        stages.push(StageTwiddles {
            values,
            values_shoup,
            shift: s,
            expanded,
            expanded_shoup,
        });
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use mqx_core::primes;

    fn plan(q: u128, n: usize) -> NttPlan {
        NttPlan::new(&Modulus::new_prime(q).unwrap(), n).unwrap()
    }

    fn ramp(n: usize, q: u128) -> Vec<u128> {
        (0..n as u64)
            .map(|i| (u128::from(i) * 0x9E37 + 17) % q)
            .collect()
    }

    #[test]
    fn plan_validation_errors() {
        let m = Modulus::new_prime(primes::Q124).unwrap();
        assert_eq!(NttPlan::new(&m, 0).unwrap_err(), NttError::SizeTooSmall);
        assert_eq!(NttPlan::new(&m, 1).unwrap_err(), NttError::SizeTooSmall);
        assert_eq!(
            NttPlan::new(&m, 12).unwrap_err(),
            NttError::SizeNotPowerOfTwo { n: 12 }
        );
        // Q124's 2-adicity is 20 → 2^21 has no root.
        assert!(matches!(
            NttPlan::new(&m, 1 << 21).unwrap_err(),
            NttError::NoRoot(_)
        ));
    }

    #[test]
    fn forward_scalar_matches_naive_small() {
        for (q, n) in [(primes::Q14, 8), (primes::Q30, 16), (primes::Q124, 32)] {
            let p = plan(q, n);
            let x = ramp(n, q);
            let expected = naive::dft(&x, p.omega(), p.modulus());
            let mut got = x.clone();
            p.forward_scalar(&mut got);
            assert_eq!(got, expected, "q={q} n={n}");
        }
    }

    #[test]
    fn pease_scalar_matches_naive_small() {
        for (q, n) in [(primes::Q14, 8), (primes::Q30, 64), (primes::Q124, 16)] {
            let p = plan(q, n);
            let x = ramp(n, q);
            let expected = naive::dft(&x, p.omega(), p.modulus());
            let mut got = x.clone();
            let mut scratch = vec![0_u128; n];
            p.forward_pease_scalar(&mut got, &mut scratch);
            assert_eq!(got, expected, "q={q} n={n}");
        }
    }

    #[test]
    fn roundtrip_scalar_and_pease() {
        for n in [2_usize, 4, 64, 256, 1024] {
            let p = plan(primes::Q124, n);
            let x = ramp(n, primes::Q124);
            let mut a = x.clone();
            p.forward_scalar(&mut a);
            p.inverse_scalar(&mut a);
            assert_eq!(a, x, "ct roundtrip n={n}");

            let mut b = x.clone();
            let mut scratch = vec![0_u128; n];
            p.forward_pease_scalar(&mut b, &mut scratch);
            p.inverse_pease_scalar(&mut b, &mut scratch);
            assert_eq!(b, x, "pease roundtrip n={n}");
        }
    }

    #[test]
    fn pease_equals_ct_all_sizes() {
        for n in [2_usize, 4, 8, 16, 128, 512] {
            let p = plan(primes::Q120, n);
            let x = ramp(n, primes::Q120);
            let mut a = x.clone();
            p.forward_scalar(&mut a);
            let mut b = x.clone();
            let mut scratch = vec![0_u128; n];
            p.forward_pease_scalar(&mut b, &mut scratch);
            assert_eq!(a, b, "n={n}");
        }
    }

    #[test]
    fn simd_portable_matches_scalar() {
        use mqx_simd::Portable;
        for n in [16_usize, 64, 1024] {
            let p = plan(primes::Q124, n);
            let x = ramp(n, primes::Q124);
            let mut expected = x.clone();
            p.forward_scalar(&mut expected);

            let mut soa = ResidueSoa::from_u128s(&x);
            let mut scratch = ResidueSoa::zeros(n);
            p.forward_simd::<Portable>(&mut soa, &mut scratch);
            assert_eq!(soa.to_u128s(), expected, "forward n={n}");

            p.inverse_simd::<Portable>(&mut soa, &mut scratch);
            assert_eq!(soa.to_u128s(), x, "roundtrip n={n}");
        }
    }

    /// The smallest prime `q ≥ 2^62` with `2^10 | q − 1` (negacyclic up
    /// to n = 512): it fits one 64-bit word, but `4q` does not, so its
    /// plans must stay on two limbs.
    fn smallest_ntt_prime_from_2_62() -> u128 {
        ((1_u128 << 62) + 1..)
            .step_by(1 << 10)
            .find(|&q| mqx_core::nt::is_prime(q))
            .unwrap()
    }

    /// Both fused pipelines on engine `E` against the canonical scalar
    /// path, on a ramp and on the all-`(q − 1)` worst case, for moduli
    /// on both lane widths. Sizes 2–512 cover the `n/2 < LANES` scalar
    /// fallback and whole vectors of every tier. The scratch buffer
    /// starts with an all-ones `hi` plane, which a one-limb pipeline
    /// never reads and must not leak into the result: a canonical
    /// product below `2^64` has a zero `hi` plane.
    fn fused_matches_canonical_scalar<E: mqx_simd::SimdEngine>() {
        use crate::polymul;
        let wide_word = smallest_ntt_prime_from_2_62();
        for (q, one_limb) in [
            (primes::Q124, false),
            (wide_word, false),
            (primes::Q62, true),
            (primes::Q30, true),
        ] {
            for log_n in 1..=9 {
                let n = 1_usize << log_n;
                let p = plan(q, n);
                assert_eq!(p.one_limb, one_limb, "q={q:#x}");
                let ramp_a = ramp(n, q);
                let ramp_b: Vec<u128> = ramp_a.iter().map(|&v| (v * 7 + 3) % q).collect();
                for (a, b) in [(ramp_a, ramp_b), (vec![q - 1; n], vec![q - 1; n])] {
                    let what = format!("{} q={q:#x} n={n}", E::NAME);
                    let stale_scratch = || {
                        let mut s = ResidueSoa::zeros(n);
                        s.parts_mut().0.fill(u64::MAX);
                        s
                    };
                    let assert_hi_plane = |sa: &ResidueSoa| {
                        if q < 1 << 64 {
                            assert!(sa.hi().iter().all(|&h| h == 0), "{what}: stale hi plane");
                        }
                    };

                    let mut scratch = stale_scratch();
                    let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                    p.polymul_fused_cyclic_simd::<E>(&mut sa, &mut sb, &mut scratch);
                    assert_eq!(
                        sa.to_u128s(),
                        polymul::polymul_cyclic(&p, &a, &b),
                        "{what} cyclic"
                    );
                    assert_hi_plane(&sa);

                    let mut scratch = stale_scratch();
                    let (mut sa, mut sb) = (ResidueSoa::from_u128s(&a), ResidueSoa::from_u128s(&b));
                    p.polymul_fused_negacyclic_simd::<E>(&mut sa, &mut sb, &mut scratch)
                        .unwrap();
                    let expected = polymul::polymul_negacyclic(&p, &a, &b).unwrap();
                    assert_eq!(sa.to_u128s(), expected, "{what} negacyclic");
                    assert_hi_plane(&sa);
                }
            }
        }
    }

    #[test]
    fn fused_simd_pipelines_match_canonical_scalar() {
        use mqx_simd::{profiles::McpFunctional, Mqx, Portable};
        fused_matches_canonical_scalar::<Portable>();
        fused_matches_canonical_scalar::<Mqx<Portable, McpFunctional>>();
        #[cfg(target_arch = "x86_64")]
        {
            if mqx_simd::avx2_detected() {
                fused_matches_canonical_scalar::<mqx_simd::Avx2>();
            }
            if mqx_simd::avx512_detected() {
                fused_matches_canonical_scalar::<mqx_simd::Avx512>();
            }
        }
    }

    #[test]
    fn fused_negacyclic_error_when_no_psi() {
        // Q14 has 2-adicity 10: n = 1024 cyclic works, negacyclic cannot.
        let p = plan(primes::Q14, 1024);
        let ones = ResidueSoa::from_u128s(&[1; 1024]);
        let (mut a, mut b) = (ones.clone(), ones);
        let mut scratch = ResidueSoa::zeros(1024);
        assert!(matches!(
            p.polymul_fused_negacyclic_simd::<mqx_simd::Portable>(&mut a, &mut b, &mut scratch),
            Err(NttError::NoRoot(_))
        ));
    }

    #[test]
    fn inverse_scales_correctly() {
        // INTT(NTT(x)) = x requires the 1/n factor; check against naive.
        let p = plan(primes::Q30, 32);
        let x = ramp(32, primes::Q30);
        let y = naive::dft(&x, p.omega(), p.modulus());
        let mut got = y.clone();
        p.inverse_scalar(&mut got);
        assert_eq!(got, x);
    }

    #[test]
    fn negacyclic_support_follows_two_adicity() {
        // Q14 has 2-adicity 10: n = 512 is the largest cyclic size, and
        // ψ (1024-th root) exists for n = 512 only via 2n = 1024 ≤ 2^10.
        let p512 = plan(primes::Q14, 512);
        assert!(p512.supports_negacyclic());
        let p1024 = plan(primes::Q14, 1024);
        assert!(!p1024.supports_negacyclic());
    }

    #[test]
    fn plan_accessors() {
        let p = plan(primes::Q124, 64);
        assert_eq!(p.size(), 64);
        assert_eq!(p.modulus().value(), primes::Q124);
        let m = p.modulus();
        assert_eq!(m.mul_mod(p.n_inv(), 64), 1);
        assert_eq!(m.pow_mod(p.omega(), 64), 1);
    }

    /// `⌊w·2^128/q⌋` through `BigUint` — the oracle
    /// `mqx_core::shoup`'s own tests pin the long division to.
    fn shoup_oracle(w: u128, q: u128) -> u128 {
        use mqx_bignum::BigUint;
        (&(&BigUint::from(w) << 128) / &BigUint::from(q))
            .to_u128()
            .unwrap()
    }

    /// Q124 and the basis `RnsRing::auto(3, n)` generates.
    fn serving_moduli(n: usize) -> Vec<u128> {
        let mut qs = vec![primes::Q124];
        qs.extend(primes::ntt_prime_chain(62, n.trailing_zeros() + 1, 3).unwrap());
        qs
    }

    fn assert_pease_stages(p: &NttPlan, stages: &[StageTwiddles], root: u128) {
        let (m, q) = (p.modulus(), p.modulus().value());
        assert_eq!(stages.len(), p.log_size() as usize);
        for (s, st) in stages.iter().enumerate() {
            assert_eq!(st.shift as usize, s);
            assert_eq!(st.values.len(), p.size() >> (s + 1));
            for (j, (&w, &ws)) in st.values.iter().zip(&st.values_shoup).enumerate() {
                assert_eq!(
                    w,
                    m.pow_mod(root, (j as u128) << s),
                    "stage {s} twiddle {j}"
                );
                assert_eq!(ws, shoup_oracle(w, q), "stage {s} shoup {j}");
            }
            assert_eq!(st.expanded.is_some(), (1_usize << s) < 8);
            if let (Some(full), Some(full_shoup)) = (&st.expanded, &st.expanded_shoup) {
                assert_eq!(full.len(), p.size() / 2);
                assert_eq!(full_shoup.len(), p.size() / 2);
                for i in 0..full.len() {
                    assert_eq!(full.get(i), st.values[i >> s], "stage {s} expanded {i}");
                    assert_eq!(full_shoup.get(i), st.values_shoup[i >> s]);
                }
            }
        }
    }

    #[test]
    fn eager_tables_match_pow_mod_and_the_shoup_oracle() {
        for n in [256_usize, 2048, 4096] {
            for q in serving_moduli(n) {
                let p = plan(q, n);
                let m = p.modulus();
                assert_eq!(m.mul_mod(p.omega(), p.omega_inv()), 1);
                assert_eq!(m.pow_mod(p.omega(), n as u128 / 2), q - 1, "ω primitive");
                assert_pease_stages(&p, &p.pease_fwd, p.omega());
                assert_pease_stages(&p, &p.pease_inv, p.omega_inv());
                assert_eq!(m.mul_mod(p.n_inv(), n as u128), 1);
                assert_eq!(p.n_inv_shoup, shoup_oracle(p.n_inv(), q));

                let t = p
                    .twist
                    .as_ref()
                    .expect("2n | q − 1 for every serving modulus");
                let psi0 = t.psi.get(1);
                assert_eq!(m.mul_mod(psi0, psi0), p.omega(), "ψ² = ω");
                assert_eq!(m.mul_mod(psi0, t.psi0_inv), 1);
                for i in 0..n {
                    let w = t.psi.get(i);
                    assert_eq!(w, m.pow_mod(psi0, i as u128), "ψ^{i}");
                    assert_eq!(t.psi_shoup.get(i), shoup_oracle(w, q));
                    let w = t.psi_inv_n.get(i);
                    let expected = m.mul_mod(m.pow_mod(t.psi0_inv, i as u128), p.n_inv());
                    assert_eq!(w, expected, "ψ^-{i}·n⁻¹");
                    assert_eq!(t.psi_inv_n_shoup.get(i), shoup_oracle(w, q));
                }
            }
        }
    }

    #[test]
    fn on_first_use_tables_match_pow_mod_and_the_shoup_oracle() {
        let (q, n) = (primes::Q124, 256);
        let p = plan(q, n);
        let m = p.modulus();
        for (tables, root) in [(p.ct_fwd(), p.omega()), (p.ct_inv(), p.omega_inv())] {
            for (s, tw) in tables.iter().enumerate() {
                assert_eq!(tw.len(), 1 << s);
                for (j, &w) in tw.iter().enumerate() {
                    assert_eq!(w, m.pow_mod(root, (j * (n >> (s + 1))) as u128));
                }
            }
        }
        let (psi, psi_inv) = (p.psi().unwrap(), p.psi_inv().unwrap());
        assert_eq!(psi, p.twist.as_ref().unwrap().psi.to_u128s());
        for i in 0..n {
            assert_eq!(m.mul_mod(psi[i], psi_inv[i]), 1, "ψ^{i}·ψ^-{i}");
        }
    }

    #[test]
    fn serving_kernels_leave_the_on_first_use_tables_unbuilt() {
        use mqx_simd::Portable;
        let (q, n) = (primes::Q124, 4096);
        let p = plan(q, n);
        let eager = p.table_bytes();

        let x = ramp(n, q);
        let mut a = ResidueSoa::from_u128s(&x);
        let mut b = ResidueSoa::from_u128s(&x);
        let mut scratch = ResidueSoa::zeros(n);
        p.polymul_fused_cyclic_simd::<Portable>(&mut a, &mut b, &mut scratch);
        b.copy_from_u128s(&x);
        p.polymul_fused_negacyclic_simd::<Portable>(&mut a, &mut b, &mut scratch)
            .unwrap();
        p.forward_simd::<Portable>(&mut a, &mut scratch);
        p.inverse_simd::<Portable>(&mut a, &mut scratch);
        assert!(p.supports_negacyclic());
        assert_eq!(p.table_bytes(), eager, "serving built a reference table");

        let mut grown = eager;
        let mut assert_grew = |p: &NttPlan, what: &str| {
            assert!(p.table_bytes() > grown, "{what} built nothing");
            grown = p.table_bytes();
        };
        let mut y = x.clone();
        p.forward_scalar(&mut y);
        assert_grew(&p, "forward_scalar");
        p.inverse_scalar(&mut y);
        assert_grew(&p, "inverse_scalar");
        assert_eq!(y, x);
        p.psi();
        assert_grew(&p, "psi()");
        p.psi_inv();
        assert_grew(&p, "psi_inv()");

        // Nothing is left to build, and a second call builds nothing.
        p.forward_scalar(&mut y);
        p.psi();
        assert_eq!(p.table_bytes(), grown);
        // Exactly the reference tables were added: n − 1 Cooley–Tukey
        // twiddles per direction plus the `ψ^i` and `ψ^{−i}` slices.
        let reference = (2 * (n - 1) + 2 * n) * size_of::<u128>();
        assert_eq!(grown - eager, reference, "on-first-use table bytes");
    }

    /// The one-limb pipeline reads its Shoup constants from the `hi`
    /// limbs of the stored two-limb ones: `⌊w·2^64/q⌋ = hi64(⌊w·2^128/q⌋)`
    /// must hold for every twiddle, twist and `n⁻¹` constant of a 62-bit
    /// plan. The oracle is exact in `u128`: `w < q < 2^62`, so
    /// `w·2^64 < 2^126`.
    #[test]
    fn one_limb_shoup_constants_are_the_hi_limbs_of_the_stored_ones() {
        let n = 4096_usize;
        let q = primes::ntt_prime_chain(62, n.trailing_zeros() + 1, 1).unwrap()[0];
        let p = plan(q, n);
        assert!(p.one_limb);
        let check = |w: u128, w_shoup: u128, what: &str| {
            assert!(w < q, "{what}: twiddle {w:#x} not canonical");
            assert_eq!(w_shoup >> 64, (w << 64) / q, "{what}: w = {w:#x}");
        };
        for st in p.pease_fwd.iter().chain(&p.pease_inv) {
            for (&w, &ws) in st.values.iter().zip(&st.values_shoup) {
                check(w, ws, &format!("stage {}", st.shift));
            }
            if let (Some(full), Some(full_shoup)) = (&st.expanded, &st.expanded_shoup) {
                for i in 0..full.len() {
                    // The one-limb loads: value from `lo`, constant from `hi`.
                    let (w, ws) = (u128::from(full.lo()[i]), u128::from(full_shoup.hi()[i]));
                    assert_eq!(full.get(i), w, "stage {} expanded {i}", st.shift);
                    assert_eq!(ws, (w << 64) / q, "stage {} expanded {i}", st.shift);
                }
            }
        }
        let t = p.twist.as_ref().unwrap();
        for i in 0..n {
            check(t.psi.get(i), t.psi_shoup.get(i), &format!("ψ^{i}"));
            check(
                t.psi_inv_n.get(i),
                t.psi_inv_n_shoup.get(i),
                &format!("ψ^-{i}·n⁻¹"),
            );
        }
        check(p.n_inv, p.n_inv_shoup, "n⁻¹");
    }

    #[test]
    fn threads_racing_the_first_scalar_call_agree_with_naive() {
        use std::sync::{Arc, Barrier};
        let (q, n) = (primes::Q124, 256);
        let p = Arc::new(plan(q, n));
        let x = ramp(n, q);
        let expected = naive::dft(&x, p.omega(), p.modulus());
        let start = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (p, start, mut y) = (Arc::clone(&p), Arc::clone(&start), x.clone());
                std::thread::spawn(move || {
                    start.wait();
                    p.forward_scalar(&mut y);
                    y
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }
}
