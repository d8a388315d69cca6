//! Sharded multi-modulus rings: [`RnsRing`] runs polynomial arithmetic
//! over a modulus wider than the machine word as `k` independent
//! word-sized residue channels.
//!
//! A Residue Number System (RNS) basis is a set of pairwise-coprime
//! NTT-friendly primes `q_0, …, q_{k−1}`; by the CRT isomorphism
//! `ℤ_Q[x]/(xⁿ ± 1) ≅ ∏ᵢ ℤ_{q_i}[x]/(xⁿ ± 1)` (with `Q = ∏ q_i`), a
//! polynomial product modulo the wide `Q` is exactly `k` independent
//! single-prime products — the standard production alternative to
//! multi-word arithmetic, and how scalable accelerator designs
//! parallelize large-modulus kernels. [`RnsRing`] owns one [`Ring`] per
//! channel, all dispatched to the one backend the builder resolves, and
//! recombines channel results by Garner's algorithm.
//!
//! Everything per coefficient is word arithmetic over constants
//! precomputed once per basis width: CRT decomposition is a dot product
//! of a coefficient's limbs with `2^(64j) mod q_i`, the Garner
//! mixed-radix digits come from a table of `(q_0 ⋯ q_{j−1}) mod q_i`
//! Shoup multipliers, a basis extension folds those digits onto the
//! fresh prime, and the join hands them to
//! [`CrtContext::assemble`] — the one place a wide integer is written.
//! [`mqx_bignum::crt`]'s `BigUint` routines are the oracle the tests
//! pin this to, not the request path.
//!
//! Plans for every channel come from the shared
//! [`plan_cache`](crate::plan_cache), so opening a second ring over the
//! same basis rebuilds nothing.
//!
//! Like [`Ring`], every hot-path method takes `&self` and the type is
//! `Send + Sync`: an `Arc<RnsRing>` is a shareable handle, and batched
//! serving goes through [`RingExecutor`](crate::RingExecutor), which
//! fans `channels × batch` into work-stealing items instead of spawning
//! threads per call.
//!
//! ```
//! use mqx::bignum::BigUint;
//! use mqx::{core::primes, RnsRing};
//!
//! // Two word-sized channels stand in for a ~92-bit modulus.
//! let ring = RnsRing::with_moduli(&[primes::Q62, primes::Q30], 64)?;
//! assert_eq!(ring.channels(), 2);
//! assert!(ring.product_modulus().bits() > 64);
//!
//! let f: Vec<BigUint> = (0..64_u64).map(BigUint::from).collect();
//! let g: Vec<BigUint> = (0..64_u64).map(|i| BigUint::from(i * i)).collect();
//! let product = ring.polymul_negacyclic(&f, &g)?;
//! assert_eq!(product.len(), 64);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::backend::Backend;
use crate::error::Error;
use crate::ops::RingOp;
use crate::plan_cache::{self, PlanCache};
use crate::ring::{BackendChoice, Ring, RingBuilder};
use mqx_bignum::crt::CrtContext;
use mqx_bignum::BigUint;
use mqx_core::{primes, Modulus, ShoupMul};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default channel width for generated bases: 62-bit NTT primes.
///
/// The engine tiers have no single-word kernel yet: a 62-bit channel
/// runs the same two-limb (124-bit) kernels as a `Q124` ring, with a hi
/// plane of zeros, so its butterflies cost what a `Q124` one does.
/// Single-word kernels for such channels are an open ROADMAP item.
const DEFAULT_BASIS_BITS: u32 = 62;

/// Why a zero-channel width is rejected.
const NO_CHANNELS: &str = "an op chain rescaled the basis away (zero channels left)";

/// How an [`RnsRingBuilder`] obtains its basis.
enum BasisChoice {
    /// Use these moduli verbatim (validated for pairwise coprimality).
    Explicit(Vec<u128>),
    /// Generate `count` primes below `2^bits` via
    /// [`primes::ntt_prime_chain`].
    Generated { bits: u32, count: usize },
    /// Auto-size channel count and width so the product modulus spans at
    /// least this many bits.
    TargetBits(u32),
}

/// Configures and builds an [`RnsRing`].
///
/// ```
/// use mqx::RnsRingBuilder;
///
/// // A 3-channel basis of generated 62-bit NTT primes, pinned to the
/// // portable tier on every channel.
/// let ring = RnsRingBuilder::new(256)
///     .generated_basis(62, 3)
///     .backend_name("portable")
///     .build()?;
/// assert_eq!(ring.channels(), 3);
/// assert!(ring.backend_names().iter().all(|&n| n == "portable"));
/// # Ok::<(), mqx::Error>(())
/// ```
pub struct RnsRingBuilder {
    n: usize,
    basis: BasisChoice,
    choice: BackendChoice,
    cache: Arc<PlanCache>,
    scratch_workers: Option<usize>,
}

impl RnsRingBuilder {
    /// Starts a builder for `n`-point rings. Without further
    /// configuration the basis is empty and [`RnsRingBuilder::build`]
    /// fails; pick one with [`RnsRingBuilder::moduli`] or
    /// [`RnsRingBuilder::generated_basis`].
    pub fn new(n: usize) -> Self {
        RnsRingBuilder {
            n,
            basis: BasisChoice::Explicit(Vec::new()),
            choice: BackendChoice::Auto,
            cache: Arc::clone(plan_cache::global()),
            scratch_workers: None,
        }
    }

    /// Uses these pairwise-coprime primes as the basis, one channel per
    /// modulus, in order.
    pub fn moduli(mut self, moduli: &[u128]) -> Self {
        self.basis = BasisChoice::Explicit(moduli.to_vec());
        self
    }

    /// Generates a basis of the `count` largest NTT-friendly primes
    /// below `2^bits` whose 2-adicity supports negacyclic products at
    /// the builder's `n` (i.e. `2n | q − 1`).
    pub fn generated_basis(mut self, bits: u32, count: usize) -> Self {
        self.basis = BasisChoice::Generated { bits, count };
        self
    }

    /// Auto-sizes the basis from a requested product-modulus width:
    /// picks the channel count and per-channel prime width so that
    /// `Q = ∏ qᵢ` spans at least `bits` bits, with every channel
    /// NTT-friendly at the builder's `n` (negacyclic included). Callers
    /// stop counting channels by hand — ask for "a 186-bit modulus" and
    /// get (say) three 62-bit channels.
    ///
    /// Widths are balanced: the target is divided evenly over the
    /// fewest word-sized channels that can carry it, then widened one
    /// bit at a time (spilling into an extra channel past the 62-bit
    /// single-word ceiling) until the generated product actually
    /// reaches the target.
    pub fn target_modulus_bits(mut self, bits: u32) -> Self {
        self.basis = BasisChoice::TargetBits(bits);
        self
    }

    /// Pins every channel to an exact backend instance (e.g. one from
    /// [`backend::available`](crate::backend::available)).
    pub fn backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.choice = BackendChoice::Instance(backend);
        self
    }

    /// Pins every channel to the named registry backend;
    /// [`RnsRingBuilder::build`] fails with [`Error::UnknownBackend`] if
    /// this host does not offer it.
    pub fn backend_name(mut self, name: &str) -> Self {
        self.choice = BackendChoice::Named(name.to_string());
        self
    }

    /// Serves every channel's NTT plan from `cache` instead of the
    /// process-wide [`plan_cache::global`].
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Sizes every channel ring's scratch pool for `workers` concurrent
    /// callers (see `RingBuilder::scratch_concurrency`): servers
    /// driving the ring through a wide
    /// [`RingExecutor`](crate::RingExecutor) pass the executor width so
    /// in-flight channel products never degrade to malloc/free churn.
    pub fn scratch_concurrency(mut self, workers: usize) -> Self {
        self.scratch_workers = Some(workers);
        self
    }

    /// Builds the ring: resolves the basis, validates coprimality,
    /// precomputes the Garner constants, and opens one backend-dispatched
    /// [`Ring`] per channel (plans served by the configured cache).
    pub fn build(self) -> Result<RnsRing, Error> {
        // Negacyclic products at size n need a 2n-th root of unity,
        // i.e. 2-adicity ≥ log₂(n) + 1.
        let two_adicity = self.n.trailing_zeros() + 1;
        let moduli = match self.basis {
            BasisChoice::Explicit(v) => v,
            BasisChoice::Generated { bits, count } => {
                primes::ntt_prime_chain(bits, two_adicity, count).ok_or(Error::BasisGeneration {
                    bits,
                    two_adicity,
                    count,
                })?
            }
            BasisChoice::TargetBits(bits) => auto_basis(bits, two_adicity)?,
        };
        // The native width's constants double as the basis validation;
        // they seed the width cache, so no request builds them.
        let native = Arc::new(WidthCtx::new(&moduli)?);

        // Resolve the choice once for the whole basis (one env/memo
        // consult instead of k): every channel ring holds the same Arc.
        let backend = self.choice.resolve()?;
        let rings: Vec<Ring> = moduli
            .iter()
            .map(|&q| {
                let mut builder = RingBuilder::new(q, self.n)
                    .backend(Arc::clone(&backend))
                    .plan_cache(Arc::clone(&self.cache));
                if let Some(workers) = self.scratch_workers {
                    builder = builder.scratch_concurrency(workers);
                }
                builder.build()
            })
            .collect::<Result<_, _>>()?;

        let widths = Mutex::new(HashMap::from([(moduli.len(), Arc::clone(&native))]));
        Ok(RnsRing {
            rings,
            native,
            n: self.n,
            widths,
        })
    }
}

/// Precomputed constants for one *width* `m`: the ring's own basis
/// (`m = k`), or the basis an op chain reaches after rescales (`m < k`,
/// a prefix of the ring's own primes) or basis extensions (`m > k`, the
/// ring's primes followed by its deterministic fresh primes). Width
/// uniquely determines the basis because every basis in a graph is a
/// prefix of one chain — [`RingOp::BasisExtend`] appends to the end,
/// [`RingOp::Rescale`] drops from the end. Cached per width in the ring
/// ([`PlanCache`] discipline: keyed, built once, shared by every
/// request — pay the inversions at setup, never per coefficient).
/// Every table a per-coefficient loop reads is word-sized ([`Modulus`],
/// [`ShoupMul`]), for any channel width [`Modulus`] accepts.
struct WidthCtx {
    /// Barrett contexts for the width's primes, in channel order.
    mods: Vec<Modulus>,
    /// The validated basis: moduli, product and the prefix products the
    /// join's assembler sums digits against. Set-up and the final
    /// assembly only — nothing per coefficient runs its `BigUint`
    /// arithmetic.
    crt: CrtContext,
    /// `h = ⌊q_last / 2⌋` for rescaling *from* this width (0 when the
    /// width has no channel to drop).
    half: u128,
    /// `h mod q_i` for every surviving channel `i < m − 1`.
    half_mod: Vec<u128>,
    /// `(q_last mod q_i)⁻¹ mod q_i` for every surviving channel.
    q_inv: Vec<ShoupMul>,
    /// `fold[c][j] = (m_0 ⋯ m_{j−1}) mod m_c` — the word-level table
    /// both Garner steps read. Digit `c` of this basis subtracts
    /// `Σ_{j<c} v_j · fold[c][j]`; a basis extension *into* channel `c`
    /// of this width folds a width-`w ≤ c` source's digits against the
    /// first `w` entries, which only involve primes before `c`.
    fold: Vec<Vec<ShoupMul>>,
    /// Garner constants: `inv[i] = fold[i][i]⁻¹ mod m_i`.
    inv: Vec<ShoupMul>,
    /// `radix[c][j] = 2^(64j) mod m_c`, one entry per limb of a
    /// coefficient below the product: CRT decomposition is the dot
    /// product of a coefficient's limbs with row `c`.
    radix: Vec<Vec<ShoupMul>>,
}

impl WidthCtx {
    fn new(moduli: &[u128]) -> Result<Self, Error> {
        const COPRIME: &str = "pairwise-coprime basis makes every prefix invertible";
        let crt = CrtContext::new(moduli)?;
        let mods = moduli
            .iter()
            .map(|&q| Modulus::new(q).map_err(Error::from))
            .collect::<Result<Vec<_>, _>>()?;
        let m = moduli.len();
        let (half, half_mod, q_inv) = if m >= 2 {
            let q_last = moduli[m - 1];
            let half = q_last / 2;
            let survivors = &mods[..m - 1];
            let half_mod = survivors.iter().map(|md| md.reduce(half)).collect();
            let q_inv = survivors
                .iter()
                .map(|md| ShoupMul::new(md.inv_mod(q_last).expect(COPRIME), md))
                .collect();
            (half, half_mod, q_inv)
        } else {
            (0, Vec::new(), Vec::new())
        };
        let shoup_row = |md: &Modulus, row: Vec<u128>| -> Vec<ShoupMul> {
            row.into_iter().map(|w| ShoupMul::new(w, md)).collect()
        };
        let fold: Vec<Vec<ShoupMul>> = mods
            .iter()
            .map(|md| shoup_row(md, crt.prefixes_mod(md.value())))
            .collect();
        let inv = mods
            .iter()
            .zip(&fold)
            .enumerate()
            .map(|(i, (md, row))| {
                ShoupMul::new(md.inv_mod(row[i].multiplier()).expect(COPRIME), md)
            })
            .collect();
        let limbs = crt.product().limbs().len();
        let radix = mods
            .iter()
            .map(|md| {
                let step = md.reduce(1 << 64);
                let powers = std::iter::successors(Some(1), |&w| Some(md.mul_mod(w, step)));
                shoup_row(md, powers.take(limbs).collect())
            })
            .collect();
        Ok(WidthCtx {
            mods,
            crt,
            half,
            half_mod,
            q_inv,
            fold,
            inv,
            radix,
        })
    }

    /// The Garner mixed-radix digits of coefficient `index` of a
    /// channel-major residue matrix over this basis:
    /// `v_i = (r_i − Σ_{j<i} v_j·fold[i][j]) · inv_i mod m_i`, so that
    /// `x = Σ v_i · (m_0 ⋯ m_{i−1})` with every `v_i < m_i`. Residues
    /// at or above their modulus alias their reduction.
    fn digits_at(&self, channels: &[Vec<u128>], index: usize, digits: &mut [u128]) {
        debug_assert!(channels.len() == self.mods.len() && digits.len() == self.mods.len());
        for (i, (m, channel)) in self.mods.iter().zip(channels).enumerate() {
            let r = reduce_word(m, channel[index]);
            let known = dot_mod(m, &self.fold[i][..i], digits[..i].iter().copied());
            digits[i] = self.inv[i].mul(m.sub_mod(r, known));
            debug_assert!(digits[i] < m.value(), "Garner digit {i} outside [0, m_i)");
        }
    }

    /// `x mod m_c` for channel `c` of this basis, from the mixed-radix
    /// digits of `x` over a narrower source basis (a prefix of this one
    /// ending before `c`): the basis-extension fold
    /// `Σ v_j · fold[c][j] mod m_c`.
    fn fold_onto(&self, channel: usize, digits: &[u128]) -> u128 {
        debug_assert!(
            digits.len() <= channel,
            "source basis must end before the target"
        );
        let row = &self.fold[channel][..digits.len()];
        dot_mod(&self.mods[channel], row, digits.iter().copied())
    }

    /// `x mod m_c` for a coefficient `x` below the product: the dot
    /// product of its limbs with `2^(64j) mod m_c`.
    fn residue(&self, channel: usize, x: &BigUint) -> u128 {
        debug_assert!(x < self.crt.product());
        let limbs = x.limbs().iter().map(|&l| u128::from(l));
        dot_mod(&self.mods[channel], &self.radix[channel], limbs)
    }
}

/// `x mod m` for a word that is almost always already reduced (a residue
/// of this channel, or of a neighbouring prime of the same width): the
/// 128-bit division runs only when it has to.
#[inline]
fn reduce_word(m: &Modulus, x: u128) -> u128 {
    if x < m.value() {
        x
    } else {
        m.reduce(x)
    }
}

/// `Σ xs[j] · row[j] mod m` — the one word-level kernel under CRT
/// decomposition (limbs against powers of `2^64`), the Garner recurrence
/// and the basis-extension fold (digits against prefix products).
/// [`ShoupMul::mul_lazy`] takes any `u128` — a digit of another channel,
/// a raw limb — so no input is reduced before its multiply; the running
/// sum stays in `[0, 2q)` and is reduced once at the end.
#[inline]
fn dot_mod(m: &Modulus, row: &[ShoupMul], xs: impl Iterator<Item = u128>) -> u128 {
    let q = m.value();
    let sum = row.iter().zip(xs).fold(0_u128, |acc, (w, x)| {
        // Both below 2q ≤ 2^125: the sum cannot wrap.
        let t = acc + w.mul_lazy(x);
        debug_assert!(t < 4 * q, "lazy sum outside [0, 4q)");
        if t >= 2 * q {
            t - 2 * q
        } else {
            t
        }
    });
    if sum >= q {
        sum - q
    } else {
        sum
    }
}

/// Picks a basis whose product spans at least `target_bits` bits: the
/// fewest word-sized channels that can carry the target with balanced
/// widths, widened (and eventually spilled into an extra channel) until
/// the *generated* product — primes sit slightly below `2^width` —
/// actually reaches the target.
fn auto_basis(target_bits: u32, two_adicity: u32) -> Result<Vec<u128>, Error> {
    let target = target_bits.max(1);
    // A prime with 2^two_adicity | q − 1 needs at least two_adicity + 1
    // bits; give the search one bit of headroom.
    let floor_bits = (two_adicity + 2).min(DEFAULT_BASIS_BITS);
    let mut count = target.div_ceil(DEFAULT_BASIS_BITS).max(1) as usize;
    let mut width = target
        .div_ceil(count as u32)
        .clamp(floor_bits, DEFAULT_BASIS_BITS);
    // Each attempt either widens a channel or adds one, so the walk is
    // finite; the cap is generous slack over the worst case.
    for _ in 0..256 {
        if let Some(chain) = primes::ntt_prime_chain(width, two_adicity, count) {
            let product = chain
                .iter()
                .fold(BigUint::one(), |acc, &q| &acc * &BigUint::from(q));
            if product.bits() >= u64::from(target) {
                return Ok(chain);
            }
        }
        if width < DEFAULT_BASIS_BITS {
            width += 1;
        } else {
            count += 1;
            width = target
                .div_ceil(count as u32)
                .clamp(floor_bits, DEFAULT_BASIS_BITS);
        }
    }
    Err(Error::BasisGeneration {
        bits: width,
        two_adicity,
        count,
    })
}

/// A sharded multi-modulus polynomial ring `ℤ_Q[x]/(xⁿ ± 1)` with
/// `Q = ∏ q_i`: one runtime-dispatched [`Ring`] per word-sized residue
/// channel, CRT decomposition/recombination at the boundary, and
/// channel execution fanned out across scoped threads.
pub struct RnsRing {
    rings: Vec<Ring>,
    /// The native width's constants (also `widths[k]`).
    native: Arc<WidthCtx>,
    n: usize,
    /// Constants for the basis-changing ops and the join, keyed by
    /// channel width: the native width from construction, the others
    /// built on first use.
    widths: Mutex<HashMap<usize, Arc<WidthCtx>>>,
}

impl fmt::Debug for RnsRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RnsRing")
            .field("moduli", &self.moduli())
            .field("n", &self.n)
            .field("backends", &self.backend_names())
            .finish()
    }
}

impl RnsRing {
    /// Builds an `n`-point ring over an auto-generated basis of
    /// `channels` word-sized (62-bit) NTT primes, every channel on the
    /// measured calibration winner (see
    /// [`backend::calibration`](crate::backend::calibration) and the
    /// `MQX_BACKEND` override).
    pub fn auto(channels: usize, n: usize) -> Result<RnsRing, Error> {
        RnsRingBuilder::new(n)
            .generated_basis(DEFAULT_BASIS_BITS, channels)
            .build()
    }

    /// Builds an `n`-point ring over the given pairwise-coprime primes.
    pub fn with_moduli(moduli: &[u128], n: usize) -> Result<RnsRing, Error> {
        RnsRingBuilder::new(n).moduli(moduli).build()
    }

    /// Starts an [`RnsRingBuilder`] for finer control.
    pub fn builder(n: usize) -> RnsRingBuilder {
        RnsRingBuilder::new(n)
    }

    /// The number of residue channels `k`.
    pub fn channels(&self) -> usize {
        self.rings.len()
    }

    /// The transform size `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// The channel moduli, in channel order.
    pub fn moduli(&self) -> &[u128] {
        self.native.crt.moduli()
    }

    /// The product modulus `Q = ∏ q_i` the ring emulates.
    pub fn product_modulus(&self) -> &BigUint {
        self.native.crt.product()
    }

    /// The per-channel rings, in channel order.
    pub fn rings(&self) -> &[Ring] {
        &self.rings
    }

    /// The backend name each channel dispatches to.
    pub fn backend_names(&self) -> Vec<&'static str> {
        self.rings.iter().map(|r| r.backend().name()).collect()
    }

    /// Whether every channel field has a `2n`-th root of unity (the
    /// requirement for [`RnsRing::polymul_negacyclic`]).
    pub fn supports_negacyclic(&self) -> bool {
        self.rings.iter().all(Ring::supports_negacyclic)
    }

    fn check_len(&self, got: usize) -> Result<(), Error> {
        if got == self.n {
            Ok(())
        } else {
            Err(Error::LengthMismatch {
                expected: self.n,
                got,
            })
        }
    }

    /// Decomposes a coefficient slice into per-channel residue vectors
    /// (channel-major: `k` vectors of `n` residues).
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] for a slice of the wrong length;
    /// [`Error::CoefficientOutOfRange`] for any coefficient at or above
    /// [`RnsRing::product_modulus`] (callers reduce first, so aliasing
    /// can never silently change a value).
    pub fn to_residues(&self, coeffs: &[BigUint]) -> Result<Vec<Vec<u128>>, Error> {
        self.check_len(coeffs.len())?;
        let ctx = &self.native;
        if let Some(index) = coeffs.iter().position(|c| c >= ctx.crt.product()) {
            return Err(Error::CoefficientOutOfRange { index });
        }
        // Channel-major: one output vector per channel, no
        // per-coefficient allocation on this serial boundary path.
        Ok((0..self.channels())
            .map(|channel| coeffs.iter().map(|c| ctx.residue(channel, c)).collect())
            .collect())
    }

    /// Recombines per-channel residue vectors (channel-major, as
    /// produced by [`RnsRing::to_residues`]) into coefficients in
    /// `[0, Q)` by Garner's algorithm.
    ///
    /// # Errors
    ///
    /// [`Error::ChannelCountMismatch`] when `channels.len() != k`;
    /// [`Error::LengthMismatch`] when any channel vector is not
    /// `n`-long.
    pub fn recombine(&self, channels: &[Vec<u128>]) -> Result<Vec<BigUint>, Error> {
        recombine_with(&self.native, channels, self.n)
    }

    /// Negacyclic product in `ℤ_Q[x]/(xⁿ + 1)` — the RLWE workhorse
    /// over a modulus wider than the machine word. Coefficients must be
    /// reduced below [`RnsRing::product_modulus`]; the result is
    /// reduced likewise. Takes `&self`: safe to call concurrently on a
    /// shared ring.
    ///
    /// This one-shot path runs the channels one after another on the
    /// calling thread. To run them in parallel, submit the product to a
    /// [`RingExecutor`](crate::RingExecutor), which fans
    /// `channels × batch` out as work-stealing items on threads started
    /// once.
    ///
    /// # Errors
    ///
    /// [`Error::NoNegacyclicSupport`] if any channel field lacks a
    /// `2n`-th root of unity (check [`RnsRing::supports_negacyclic`]),
    /// plus the [`RnsRing::to_residues`] validation errors.
    pub fn polymul_negacyclic(&self, a: &[BigUint], b: &[BigUint]) -> Result<Vec<BigUint>, Error> {
        self.polymul_big(a, b, true)
    }

    /// Cyclic product in `ℤ_Q[x]/(xⁿ − 1)`, sharded per channel like
    /// [`RnsRing::polymul_negacyclic`] (and equally thread-safe).
    pub fn polymul_cyclic(&self, a: &[BigUint], b: &[BigUint]) -> Result<Vec<BigUint>, Error> {
        self.polymul_big(a, b, false)
    }

    fn polymul_big(
        &self,
        a: &[BigUint],
        b: &[BigUint],
        negacyclic: bool,
    ) -> Result<Vec<BigUint>, Error> {
        let a_channels = self.to_residues(a)?;
        let b_channels = self.to_residues(b)?;
        let per_channel = self
            .rings
            .iter()
            .zip(a_channels.iter().zip(&b_channels))
            .map(|(ring, (ra, rb))| {
                if negacyclic {
                    ring.polymul_negacyclic(ra, rb)
                } else {
                    ring.polymul_cyclic(ra, rb)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.recombine(&per_channel)
    }

    /// The first `count` fresh NTT primes of the ring's deterministic
    /// extension chain: the same descending 62-bit chain the generated
    /// bases use, minus any prime already in this basis. At most `k` of
    /// the chain's primes sit in the basis, so `k + count` candidates
    /// always hold `count` fresh ones (or the chain itself runs out →
    /// `BasisGeneration`). A shorter request is always a prefix of a
    /// longer one — the property that lets a channel *width* uniquely
    /// name a basis in op-graph chains.
    fn fresh_primes(&self, count: usize) -> Result<Vec<u128>, Error> {
        let two_adicity = self.n.trailing_zeros() + 1;
        let want = self.channels() + count;
        let chain = primes::ntt_prime_chain(DEFAULT_BASIS_BITS, two_adicity, want).ok_or(
            Error::BasisGeneration {
                bits: DEFAULT_BASIS_BITS,
                two_adicity,
                count: want,
            },
        )?;
        Ok(chain
            .into_iter()
            .filter(|q| !self.moduli().contains(q))
            .take(count)
            .collect())
    }

    /// The moduli of width `m`: a prefix of the ring's basis chain (own
    /// primes, then deterministic fresh primes). See [`WidthCtx`].
    fn width_moduli(&self, width: usize) -> Result<Vec<u128>, Error> {
        if width == 0 {
            return Err(Error::UnsupportedOp {
                op: "op-graph",
                reason: NO_CHANNELS,
            });
        }
        let k = self.channels();
        if width <= k {
            return Ok(self.moduli()[..width].to_vec());
        }
        let mut moduli = self.moduli().to_vec();
        moduli.extend(self.fresh_primes(width - k)?);
        Ok(moduli)
    }

    /// The constants for `width` channels, built on first use and
    /// cached. Warmed at submit so graph validation errors surface
    /// before any work item runs.
    fn width_ctx(&self, width: usize) -> Result<Arc<WidthCtx>, Error> {
        if let Some(ctx) = self
            .widths
            .lock()
            .expect("width cache poisoned")
            .get(&width)
        {
            return Ok(Arc::clone(ctx));
        }
        // Build outside the lock (the prime search is the slow part);
        // racing builders produce identical contexts, first insert wins.
        let ctx = Arc::new(WidthCtx::new(&self.width_moduli(width)?)?);
        let mut cache = self.widths.lock().expect("width cache poisoned");
        Ok(Arc::clone(cache.entry(width).or_insert(ctx)))
    }

    /// How many channels `op` produces from `width`-channel operands,
    /// or why this ring cannot run it at that width.
    fn output_width(&self, op: &RingOp, width: usize) -> Result<usize, Error> {
        let unsupported = |reason| {
            Err(Error::UnsupportedOp {
                op: op.name(),
                reason,
            })
        };
        match op {
            _ if width == 0 => unsupported(NO_CHANNELS),
            RingOp::Polymul(_) if width > self.channels() => {
                unsupported("extension channels have no NTT plans; multiply before extending")
            }
            RingOp::Rescale if width < 2 => {
                unsupported("needs at least two RNS channels (one to drop, one to keep)")
            }
            RingOp::BasisExtend { extra_channels: 0 } => {
                unsupported("needs at least one extra channel to extend into")
            }
            RingOp::Rescale => Ok(width - 1),
            RingOp::BasisExtend { extra_channels } => Ok(width + extra_channels),
            RingOp::Polymul(_) | RingOp::Add | RingOp::Sub => Ok(width),
        }
    }

    /// The basis a [`RingOp::BasisExtend`] with this width targets: the
    /// ring's own primes followed by `extra_channels` freshly generated
    /// coprime NTT primes (deterministic per ring, so every request
    /// extending by the same width lands in the same basis).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedOp`] for a zero extension,
    /// [`Error::BasisGeneration`] when the prime chain cannot supply
    /// enough fresh primes.
    pub fn extended_moduli(&self, extra_channels: usize) -> Result<Vec<u128>, Error> {
        let op = RingOp::BasisExtend { extra_channels };
        self.width_moduli(self.output_width(&op, self.channels())?)
    }
}

/// Garner recombination of channel-major residues against an arbitrary
/// basis context (the ring's own, or an op's output basis): word-level
/// digits, then one limb-vector assembly per coefficient.
fn recombine_with(ctx: &WidthCtx, channels: &[Vec<u128>], n: usize) -> Result<Vec<BigUint>, Error> {
    if channels.len() != ctx.mods.len() {
        return Err(Error::ChannelCountMismatch {
            expected: ctx.mods.len(),
            got: channels.len(),
        });
    }
    for channel in channels {
        if channel.len() != n {
            return Err(Error::LengthMismatch {
                expected: n,
                got: channel.len(),
            });
        }
    }
    let mut digits = vec![0_u128; channels.len()];
    Ok((0..n)
        .map(|j| {
            ctx.digits_at(channels, j, &mut digits);
            ctx.crt.assemble(&digits)
        })
        .collect())
}

/// An [`RnsRing`] exposes its residue channels directly: `split` is CRT
/// decomposition, `join_at` is Garner recombination, and each output
/// channel of an op is an independent word-sized work item — the
/// decomposition [`RingExecutor`](crate::RingExecutor) schedules. The
/// native width `k` is one width among the others: the basis-changing
/// ops and the join read the same per-width constants at every width.
impl crate::PolyRing for RnsRing {
    fn size(&self) -> usize {
        self.n
    }

    fn modulus_bits(&self) -> u64 {
        self.product_modulus().bits()
    }

    fn supports_negacyclic(&self) -> bool {
        self.rings.iter().all(Ring::supports_negacyclic)
    }

    fn channels(&self) -> usize {
        self.rings.len()
    }

    fn split_cow(
        &self,
        coeffs: std::borrow::Cow<'_, crate::Coefficients>,
    ) -> Result<Vec<Vec<u128>>, Error> {
        let bigs = coeffs.as_bigs().ok_or(Error::CoefficientKind {
            expected: "big",
            got: coeffs.kind(),
        })?;
        self.to_residues(bigs)
    }

    fn op_output_channels_at(&self, op: &RingOp, width: usize) -> Result<usize, Error> {
        let outputs = self.output_width(op, width)?;
        // Work items on the ring's own channels read no width
        // constants. Every other op's are warmed here — at submit — so
        // a basis error surfaces before any work item runs.
        if outputs > self.channels() || !op.is_binary() {
            self.width_ctx(width)?;
            self.width_ctx(outputs)?;
        }
        Ok(outputs)
    }

    fn channel_apply_at_into(
        &self,
        op: &RingOp,
        width: usize,
        channel: usize,
        a: &[Vec<u128>],
        b: Option<&[Vec<u128>]>,
        out: &mut Vec<u128>,
    ) -> Result<(), Error> {
        // Everything the arms below index by is checked here, once:
        // the width, the arity, both operand splits against the width,
        // and the output channel.
        let outputs = self.output_width(op, width)?;
        let got = 1 + usize::from(b.is_some());
        if got != op.arity() {
            return Err(Error::OperandCountMismatch {
                op: op.name(),
                expected: op.arity(),
                got,
            });
        }
        if let Some(short) = [Some(a), b]
            .into_iter()
            .flatten()
            .find(|s| s.len() != width)
        {
            return Err(Error::ChannelCountMismatch {
                expected: width,
                got: short.len(),
            });
        }
        if channel >= outputs {
            return Err(Error::ChannelOutOfRange {
                channel,
                channels: outputs,
            });
        }
        let n = a[0].len();
        if let Some(bad) = a.iter().find(|ch| ch.len() != n) {
            return Err(Error::LengthMismatch {
                expected: n,
                got: bad.len(),
            });
        }
        if let Some(bad) = b.and_then(|b| b.iter().find(|ch| ch.len() != n)) {
            return Err(Error::OperandLengthMismatch { a: n, b: bad.len() });
        }
        // A binary op's `b` passed the same checks as `a`; unary ops
        // never read it.
        let b = b.unwrap_or_default();
        out.clear();
        match op {
            RingOp::Polymul(p) => {
                // `channel < width ≤ k`: one of the ring's own channels,
                // which carry the NTT plans.
                let ring = &self.rings[channel];
                match p {
                    crate::PolyOp::Cyclic => {
                        ring.polymul_cyclic_into(&a[channel], &b[channel], out)
                    }
                    crate::PolyOp::Negacyclic => {
                        ring.polymul_negacyclic_into(&a[channel], &b[channel], out)
                    }
                }
            }
            RingOp::Add | RingOp::Sub => {
                let subtract = matches!(op, RingOp::Sub);
                let (ra, rb) = (&a[channel], &b[channel]);
                match self.rings.get(channel) {
                    // One of the ring's own channels: the SIMD engine
                    // path, whatever the width.
                    Some(ring) => ring.add_sub_into(subtract, ra, rb, out),
                    // An extension channel: scalar Barrett arithmetic
                    // over the fresh prime.
                    None => {
                        let ctx = self.width_ctx(width)?;
                        let m = &ctx.mods[channel];
                        out.extend(ra.iter().zip(rb).map(|(&x, &y)| {
                            if subtract {
                                m.sub_mod(x, y)
                            } else {
                                m.add_mod(x, y)
                            }
                        }));
                        Ok(())
                    }
                }
            }
            RingOp::Rescale => {
                // out = round(x / q_last) mod q_i, entirely word-level:
                // with v = (x + h) mod q_last (computable from the last
                // channel alone), round(x / q_last) = (x + h − v)/q_last,
                // so out_i = (a_i + h − v) · q_last⁻¹ mod q_i.
                let ctx = self.width_ctx(width)?;
                let (m_last, m_i) = (&ctx.mods[width - 1], &ctx.mods[channel]);
                let (h_i, q_inv) = (ctx.half_mod[channel], &ctx.q_inv[channel]);
                out.extend(a[channel].iter().zip(&a[width - 1]).map(|(&a_i, &a_last)| {
                    let v = m_last.add_mod(a_last, ctx.half);
                    let t = m_i.sub_mod(m_i.add_mod(a_i, h_i), reduce_word(m_i, v));
                    q_inv.mul(t)
                }));
                Ok(())
            }
            // Channels inside the source basis pass through unchanged.
            RingOp::BasisExtend { .. } if channel < width => {
                out.extend_from_slice(&a[channel]);
                Ok(())
            }
            RingOp::BasisExtend { .. } => {
                // A fresh channel: fold the Garner mixed-radix digits of
                // each coefficient over the source-width basis against
                // the target channel's precomputed `prefix mod p` table
                // — word arithmetic only, one digit buffer per call.
                let src = self.width_ctx(width)?;
                let tgt = self.width_ctx(outputs)?;
                let mut digits = vec![0_u128; width];
                out.extend((0..n).map(|j| {
                    src.digits_at(a, j, &mut digits);
                    tgt.fold_onto(channel, &digits)
                }));
                Ok(())
            }
        }
    }

    fn join_at(
        &self,
        width: usize,
        channels: Vec<Vec<u128>>,
    ) -> Result<crate::Coefficients, Error> {
        let ctx = self.width_ctx(width)?;
        recombine_with(&ctx, &channels, self.n).map(crate::Coefficients::Big)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend;
    use crate::plan_cache::PlanCache;
    use mqx_bignum::crt::CrtError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 64;

    fn coeffs(ring: &RnsRing, seed: u64) -> Vec<BigUint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ring.size())
            .map(|_| BigUint::random_below(&mut rng, ring.product_modulus()))
            .collect()
    }

    #[test]
    fn residue_roundtrip_is_identity() {
        let ring = RnsRing::with_moduli(&[primes::Q62, primes::Q30, primes::Q14], N).unwrap();
        let xs = coeffs(&ring, 0xC0FFEE);
        let channels = ring.to_residues(&xs).unwrap();
        assert_eq!(channels.len(), 3);
        assert_eq!(ring.recombine(&channels).unwrap(), xs);
    }

    #[test]
    fn negacyclic_matches_big_schoolbook() {
        let ring = RnsRing::with_moduli(&[primes::Q62, primes::Q30], N).unwrap();
        assert!(ring.supports_negacyclic());
        let a = coeffs(&ring, 1);
        let b = coeffs(&ring, 2);
        let expected =
            mqx_ntt::polymul::schoolbook_negacyclic_big(&a, &b, &ring.product_modulus().clone());
        assert_eq!(ring.polymul_negacyclic(&a, &b).unwrap(), expected);
    }

    #[test]
    fn generated_basis_builds_distinct_word_sized_channels() {
        let ring = RnsRing::auto(3, N).unwrap();
        assert_eq!(ring.channels(), 3);
        // The basis is the prime chain for (62 bits, 2-adicity log₂(2n)).
        let adicity = (N as u32).trailing_zeros() + 1;
        assert_eq!(
            ring.moduli(),
            primes::ntt_prime_chain(62, adicity, 3).unwrap()
        );
        assert!(ring.product_modulus().bits() > 128, "wider than u128");
        assert!(ring.supports_negacyclic());
        let mut sorted = ring.moduli().to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "distinct moduli");
    }

    #[test]
    fn backend_instance_is_on_every_channel() {
        let instance =
            backend::from_engine::<mqx_simd::Portable>("pinned", backend::Tier::Portable);
        let ring = RnsRing::builder(N)
            .moduli(&[primes::Q62, primes::Q30, primes::Q14])
            .backend(Arc::clone(&instance))
            .build()
            .unwrap();
        for channel in ring.rings() {
            assert!(Arc::ptr_eq(&channel.backend_arc(), &instance));
        }
    }

    #[test]
    fn builder_errors_are_specific() {
        assert!(matches!(
            RnsRingBuilder::new(N).build().unwrap_err(),
            Error::Crt(CrtError::EmptyBasis)
        ));
        assert!(matches!(
            RnsRing::with_moduli(&[primes::Q62, primes::Q62], N).unwrap_err(),
            Error::Crt(CrtError::NotCoprime { i: 0, j: 1 })
        ));
        assert!(matches!(
            RnsRing::builder(N)
                .generated_basis(14, 100)
                .build()
                .unwrap_err(),
            Error::BasisGeneration { count: 100, .. }
        ));
    }

    #[test]
    fn unreduced_coefficients_are_rejected() {
        let ring = RnsRing::with_moduli(&[primes::Q30, primes::Q14], N).unwrap();
        let mut a = coeffs(&ring, 3);
        a[7] = ring.product_modulus().clone();
        let b = coeffs(&ring, 4);
        assert!(matches!(
            ring.polymul_negacyclic(&a, &b).unwrap_err(),
            Error::CoefficientOutOfRange { index: 7 }
        ));
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let ring = RnsRing::with_moduli(&[primes::Q62, primes::Q30], N).unwrap();
        let a = coeffs(&ring, 5);
        let short = a[..N - 1].to_vec();
        assert!(matches!(
            ring.polymul_cyclic(&a, &short).unwrap_err(),
            Error::LengthMismatch { got, .. } if got == N - 1
        ));
        assert!(matches!(
            ring.recombine(&[vec![0; N]]).unwrap_err(),
            Error::ChannelCountMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn target_bits_exact_multiple_uses_full_width_channels() {
        // 186 = 3 × 62: three full-width channels, no overshoot in count.
        let ring = RnsRing::builder(N)
            .target_modulus_bits(186)
            .build()
            .unwrap();
        assert_eq!(ring.channels(), 3);
        assert!(ring.product_modulus().bits() >= 186);
        assert!(ring.supports_negacyclic());
        for &q in ring.moduli() {
            assert_eq!(128 - q.leading_zeros(), 62, "full-width channel {q}");
        }
    }

    #[test]
    fn target_bits_balances_widths_when_over_provisioned() {
        // 80 bits needs two channels; balanced widths sit near 40 bits,
        // not one 62-bit plus one tiny channel.
        let ring = RnsRing::builder(N).target_modulus_bits(80).build().unwrap();
        assert_eq!(ring.channels(), 2);
        assert!(ring.product_modulus().bits() >= 80);
        for &q in ring.moduli() {
            let w = 128 - q.leading_zeros();
            assert!((38..=44).contains(&w), "balanced width, got {w} bits");
        }
    }

    #[test]
    fn target_bits_single_channel_and_tiny_targets() {
        let ring = RnsRing::builder(N).target_modulus_bits(30).build().unwrap();
        assert_eq!(ring.channels(), 1);
        assert!(ring.product_modulus().bits() >= 30);
        // A target below the 2-adicity floor still yields a valid
        // (over-provisioned) NTT-friendly channel.
        let tiny = RnsRing::builder(N).target_modulus_bits(1).build().unwrap();
        assert_eq!(tiny.channels(), 1);
        assert!(tiny.supports_negacyclic());
    }

    #[test]
    fn target_bits_product_actually_multiplies_correctly() {
        let ring = RnsRing::builder(N)
            .target_modulus_bits(124)
            .build()
            .unwrap();
        assert!(ring.product_modulus().bits() >= 124);
        let a = coeffs(&ring, 7);
        let b = coeffs(&ring, 8);
        let expected =
            mqx_ntt::polymul::schoolbook_negacyclic_big(&a, &b, &ring.product_modulus().clone());
        assert_eq!(ring.polymul_negacyclic(&a, &b).unwrap(), expected);
    }

    /// Every value of a small basis through the word path and the
    /// `BigUint` oracle: digits, assembly, decomposition, and the fold
    /// onto `fresh` (coprime to the basis).
    fn pin_word_crt_to_oracle(basis: [u128; 3], fresh: u128) {
        let ctx = WidthCtx::new(&basis).unwrap();
        let mut extended = basis.to_vec();
        extended.push(fresh);
        let tgt = WidthCtx::new(&extended).unwrap();
        let mut digits = [0_u128; 3];
        let mut cases = 0_u64;
        for r0 in 0..basis[0] {
            for r1 in 0..basis[1] {
                for r2 in 0..basis[2] {
                    let residues = [r0, r1, r2];
                    let channels = residues.map(|r| vec![r]);
                    ctx.digits_at(&channels, 0, &mut digits);
                    assert_eq!(digits[..], ctx.crt.digits(&residues), "{residues:?}");
                    let x = ctx.crt.assemble(&digits);
                    assert_eq!(x, ctx.crt.recombine(&residues), "{residues:?}");
                    let split: Vec<u128> = (0..3).map(|c| ctx.residue(c, &x)).collect();
                    assert_eq!(split, ctx.crt.to_residues(&x), "{x}");
                    assert_eq!(split, residues, "{x}");
                    let folded = BigUint::from(tgt.fold_onto(3, &digits));
                    assert_eq!(folded, &x % &BigUint::from(fresh), "{x} mod {fresh}");
                    cases += 1;
                }
            }
        }
        assert_eq!(BigUint::from(cases), *ctx.crt.product(), "every value once");
    }

    #[test]
    fn word_crt_matches_oracle_on_every_value_of_a_prime_basis() {
        pin_word_crt_to_oracle([13, 17, 19], 23); // 4199 values
    }

    #[test]
    fn word_crt_matches_oracle_on_every_value_of_a_composite_basis() {
        pin_word_crt_to_oracle([4, 9, 25], 49); // coprime, not prime: 900 values
    }

    #[test]
    fn native_width_constants_are_built_once_at_construction() {
        let ring = RnsRing::auto(3, N).unwrap();
        let cached = ring.width_ctx(3).unwrap();
        assert!(
            Arc::ptr_eq(&cached, &ring.native),
            "cache seeded by build()"
        );
    }

    #[test]
    fn channels_share_plans_through_the_builder_cache() {
        let cache = Arc::new(PlanCache::new());
        let build = || {
            RnsRing::builder(N)
                .moduli(&[primes::Q62, primes::Q30])
                .plan_cache(Arc::clone(&cache))
                .build()
                .unwrap()
        };
        let _first = build();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2));
        let _second = build();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2), "second ring: all hits");
    }
}
