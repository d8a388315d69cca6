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
//! Everything per coefficient runs one backend kernel,
//! [`Backend::lincomb`]: `out[j] = (k + Σ_t c_t · x_t[j]) mod q`,
//! lane-parallel across the coefficients `j`, with Shoup multipliers
//! precomputed once per basis width. CRT decomposition combines the
//! coefficients' 64-bit limb planes with `2^(64t) mod q_c`; the Garner
//! mixed-radix digits are computed one digit row at a time, each from
//! its channel's residues and the digit rows before it; a basis
//! extension folds those digit rows onto the fresh prime; a rescale is
//! two calls. The join hands each coefficient's digits to
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
//! use mqx::{core::primes, Coefficients, PolyOp, PolyRing, RingOp, RnsRing};
//!
//! // Two word-sized channels stand in for a ~92-bit modulus.
//! let ring = RnsRing::builder(64)
//!     .moduli(&[primes::Q62, primes::Q30])
//!     .build()?;
//! assert_eq!(ring.channels(), 2);
//! assert!(ring.product_modulus().bits() > 64);
//!
//! let f = Coefficients::Big((0..64_u64).map(BigUint::from).collect());
//! let g = Coefficients::Big((0..64_u64).map(|i| BigUint::from(i * i)).collect());
//! let product = ring.apply(&RingOp::Polymul(PolyOp::Negacyclic), &f, Some(&g))?;
//! assert_eq!(product.len(), 64);
//!
//! // The boundary on its own: two residue channels, one Garner join.
//! let residues = ring.split(&f)?;
//! assert_eq!(residues.len(), 2);
//! assert_eq!(ring.join_at(2, residues)?, f);
//! # Ok::<(), mqx::Error>(())
//! ```

use crate::backend::Backend;
use crate::error::Error;
use crate::ops::RingOp;
use crate::plan_cache::{self, PlanCache};
use crate::poly::{self, Coefficients, PolyRing};
use crate::ring::{BackendChoice, Ring};
use mqx_bignum::crt::CrtContext;
use mqx_bignum::BigUint;
use mqx_blas::LinComb;
use mqx_core::{primes, Modulus, ShoupMul};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::iter;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default channel width for generated bases: 62-bit NTT primes.
///
/// 62 bits is the widest channel whose lazy butterfly domain `[0, 4q)`
/// fits one 64-bit lane, so each channel's fused polymul runs the
/// one-limb kernels on the `lo` plane alone (`NttPlan` picks the width
/// from the modulus): a lazy Shoup product is one widening multiply and
/// two low-half multiplies instead of six and four. The channels'
/// element-wise `Add` / `Sub` (`Backend::vadd` / `vsub`) still run the
/// two-limb ops.
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
}

/// Configures and builds an [`RnsRing`] ([`RnsRing::builder`]).
///
/// ```
/// use mqx::{PolyRing, RnsRing};
///
/// // A 3-channel basis of generated 62-bit NTT primes, pinned to the
/// // portable tier on every channel.
/// let ring = RnsRing::builder(256)
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
}

impl RnsRingBuilder {
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
                Ring::builder(q, self.n)
                    .backend(Arc::clone(&backend))
                    .plan_cache(Arc::clone(&self.cache))
                    .build()
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
///
/// Every boundary step over the width is one [`Backend::lincomb`] call
/// per channel and [`BLOCK`] of coefficients (two for a rescale) over
/// these tables, for any channel
/// width [`Modulus`] accepts: one 64-bit limb per lane for a channel
/// below `2^62`, two otherwise. Each [`ShoupMul`] serves both lane
/// widths: the one-limb Shoup constant is the `hi` limb of its stored
/// two-limb one.
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
    /// A rescale's multipliers and offset for every surviving channel
    /// `i < m − 1`, with `u_i = (q_last mod m_i)⁻¹ mod m_i`:
    /// `[u_i, −u_i]` and `h · u_i mod m_i`.
    rescale: Vec<([ShoupMul; 2], u128)>,
    /// `fold[c][j] = p_j = (m_0 ⋯ m_{j−1}) mod m_c` — the multipliers of
    /// a basis extension *into* channel `c` of this width from the
    /// digits of a width-`w ≤ c` source, `Σ_{j<w} p_j · v_j` (entries
    /// `j < w` only involve primes before `c`).
    fold: Vec<Vec<ShoupMul>>,
    /// `garner[i] = [1, −p_0, …, −p_{i−1}] · p_i⁻¹ mod m_i`, with `p_j`
    /// taken mod `m_i` as in `fold`: Garner digit `i` is
    /// `v_i = garner[i][0] · r_i + Σ_{j<i} garner[i][j + 1] · v_j`.
    garner: Vec<Vec<ShoupMul>>,
    /// `radix[c][t] = 2^(64t) mod m_c`, one entry per limb of a
    /// coefficient below the product: CRT decomposition combines the
    /// coefficients' limb planes with row `c`.
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
        let q_last = moduli[m - 1];
        let half = if m >= 2 { q_last / 2 } else { 0 };
        let rescale = mods[..m - 1]
            .iter()
            .map(|md| {
                let u = md.inv_mod(q_last).expect(COPRIME);
                let pair = [u, md.sub_mod(0, u)].map(|w| ShoupMul::new(w, md));
                (pair, md.mul_mod(md.reduce(half), u))
            })
            .collect();
        let shoup_row = |md: &Modulus, row: Vec<u128>| -> Vec<ShoupMul> {
            row.into_iter().map(|w| ShoupMul::new(w, md)).collect()
        };
        let prefixes: Vec<Vec<u128>> = mods.iter().map(|md| crt.prefixes_mod(md.value())).collect();
        let fold = mods
            .iter()
            .zip(&prefixes)
            .map(|(md, p)| shoup_row(md, p.clone()))
            .collect();
        let garner = mods
            .iter()
            .zip(&prefixes)
            .enumerate()
            .map(|(i, (md, p))| {
                let inv = md.inv_mod(p[i]).expect(COPRIME);
                let negated = p[..i].iter().map(|&p| md.sub_mod(0, p));
                let row = iter::once(1).chain(negated).map(|w| md.mul_mod(w, inv));
                shoup_row(md, row.collect())
            })
            .collect();
        let limbs = crt.product().limbs().len();
        let radix = mods
            .iter()
            .map(|md| {
                let step = md.reduce(1 << 64);
                let powers = iter::successors(Some(1), |&w| Some(md.mul_mod(w, step)));
                shoup_row(md, powers.take(limbs).collect())
            })
            .collect();
        Ok(WidthCtx {
            mods,
            crt,
            half,
            rescale,
            fold,
            garner,
            radix,
        })
    }

    /// CRT decomposition of coefficients below the product,
    /// channel-major: channel `c` is `Σ_t limb_t · 2^(64t) mod m_c` over
    /// the coefficients' limb planes, laid out one block at a time.
    fn split(&self, backend: &dyn Backend, coeffs: &[BigUint]) -> Vec<Vec<u128>> {
        let n = coeffs.len();
        let limbs = self.radix[0].len();
        let mut channels: Vec<Vec<u128>> = self.mods.iter().map(|_| vec![0; n]).collect();
        let mut planes = vec![0_u128; limbs * BLOCK.min(n)];
        for range in blocks(n) {
            let b = range.len();
            // Plane t holds limb t of every coefficient of the block.
            let planes = &mut planes[..limbs * b];
            planes.fill(0);
            for (j, x) in coeffs[range.clone()].iter().enumerate() {
                debug_assert!(x < self.crt.product());
                for (t, &limb) in x.limbs().iter().enumerate() {
                    planes[t * b + j] = u128::from(limb);
                }
            }
            let (lead, rows) = planes.split_at(b);
            for ((m, radix), residues) in self.mods.iter().zip(&self.radix).zip(&mut channels) {
                let comb = LinComb {
                    coeffs: radix,
                    lead,
                    rows,
                    offset: 0,
                };
                backend.lincomb(m, &comb, &mut residues[range.clone()]);
            }
        }
        channels
    }

    /// The Garner mixed-radix digits of coefficients `range` of a
    /// channel-major residue matrix over this basis, digit-major: row `i`
    /// of `digits` holds `v_i = (r_i − Σ_{j<i} v_j · p_j) · p_i⁻¹ mod m_i`
    /// for every coefficient of the range, so that
    /// `x = Σ v_i · (m_0 ⋯ m_{i−1})` with every `v_i < m_i`. Residues at
    /// or above their modulus alias their reduction.
    fn digits(
        &self,
        backend: &dyn Backend,
        channels: &[Vec<u128>],
        range: Range<usize>,
        digits: &mut [u128],
    ) {
        debug_assert_eq!(channels.len(), self.mods.len());
        let b = range.len();
        for (i, (m, residues)) in self.mods.iter().zip(channels).enumerate() {
            let (known, rest) = digits.split_at_mut(i * b);
            let comb = LinComb {
                coeffs: &self.garner[i],
                lead: &residues[range.clone()],
                rows: known,
                offset: 0,
            };
            backend.lincomb(m, &comb, &mut rest[..b]);
        }
    }

    /// Channel `c` of this basis for the coefficients of `a`, residues
    /// over `src`, a narrower basis (a prefix of this one ending at or
    /// before `c`): per block, the Garner digits over `src` folded onto
    /// `m_c`, `Σ_j p_j · v_j mod m_c`.
    fn extend_onto(
        &self,
        src: &WidthCtx,
        backend: &dyn Backend,
        channel: usize,
        a: &[Vec<u128>],
        out: &mut [u128],
    ) {
        let width = src.mods.len();
        debug_assert!(width <= channel, "source basis must end before the target");
        let mut digits = vec![0_u128; width * BLOCK.min(out.len())];
        for range in blocks(out.len()) {
            let b = range.len();
            let digits = &mut digits[..width * b];
            src.digits(backend, a, range.clone(), digits);
            let (lead, rows) = digits.split_at(b);
            let comb = LinComb {
                coeffs: &self.fold[channel][..width],
                lead,
                rows,
                offset: 0,
            };
            backend.lincomb(&self.mods[channel], &comb, &mut out[range]);
        }
    }

    /// Surviving channel `c` of a rescale from this width,
    /// `round(x / q_last) mod m_c`: with `v = (a_last + h) mod q_last`
    /// (from the last channel alone), `round(x / q_last) = (x + h − v) /
    /// q_last`, so the channel is `(a_c + h − v) · q_last⁻¹ mod m_c`.
    fn rescale(&self, backend: &dyn Backend, channel: usize, a: &[Vec<u128>], out: &mut [u128]) {
        let last = self.mods.len() - 1;
        debug_assert!(channel < last);
        let (coeffs, offset) = &self.rescale[channel];
        let mut v = [0_u128; BLOCK];
        for range in blocks(out.len()) {
            let v = &mut v[..range.len()];
            let round = LinComb {
                // p_0 = 1.
                coeffs: &self.fold[last][..1],
                lead: &a[last][range.clone()],
                rows: &[],
                offset: self.half,
            };
            backend.lincomb(&self.mods[last], &round, v);
            let divide = LinComb {
                coeffs,
                lead: &a[channel][range.clone()],
                rows: v,
                offset: *offset,
            };
            backend.lincomb(&self.mods[channel], &divide, &mut out[range]);
        }
    }
}

/// Coefficients per boundary block: a block's digit rows or limb planes
/// take `BLOCK · 16` bytes each (4 KiB), so they stay in the first-level
/// cache and a call's buffers do not grow with `n`.
const BLOCK: usize = 256;

/// `0..n` in consecutive ranges of [`BLOCK`] coefficients (the last one
/// shorter).
fn blocks(n: usize) -> impl Iterator<Item = Range<usize>> {
    (0..n)
        .step_by(BLOCK)
        .map(move |start| start..n.min(start + BLOCK))
}

/// A sharded multi-modulus polynomial ring `ℤ_Q[x]/(xⁿ ± 1)` with
/// `Q = ∏ q_i`: one runtime-dispatched [`Ring`] per word-sized residue
/// channel and CRT decomposition/recombination at the boundary. Direct
/// calls run the channels one after another on the calling thread; a
/// [`RingExecutor`](crate::RingExecutor) fans them out as separate work
/// items.
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
        RnsRing::builder(n)
            .generated_basis(DEFAULT_BASIS_BITS, channels)
            .build()
    }

    /// Starts an [`RnsRingBuilder`] for `n`-point rings. Without further
    /// configuration the basis is empty and [`RnsRingBuilder::build`]
    /// fails; pick one with [`RnsRingBuilder::moduli`] or
    /// [`RnsRingBuilder::generated_basis`].
    pub fn builder(n: usize) -> RnsRingBuilder {
        RnsRingBuilder {
            n,
            basis: BasisChoice::Explicit(Vec::new()),
            choice: BackendChoice::Auto,
            cache: Arc::clone(plan_cache::global()),
        }
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

    /// The backend every channel, and every boundary kernel, runs on.
    fn backend(&self) -> &dyn Backend {
        self.rings[0].backend()
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
        if let Some(ctx) = self.widths().get(&width) {
            return Ok(Arc::clone(ctx));
        }
        // Build outside the lock (the prime search is the slow part);
        // racing builders produce identical contexts, first insert wins.
        let ctx = Arc::new(WidthCtx::new(&self.width_moduli(width)?)?);
        Ok(Arc::clone(self.widths().entry(width).or_insert(ctx)))
    }

    /// The width cache. Nothing that can panic runs under the lock (a
    /// lookup, or one insert of a finished context), so a poisoned lock
    /// still holds a valid map.
    fn widths(&self) -> MutexGuard<'_, HashMap<usize, Arc<WidthCtx>>> {
        self.widths.lock().unwrap_or_else(PoisonError::into_inner)
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

/// An [`RnsRing`] is reached through its residue channels: `split` is
/// CRT decomposition, `join_at` is Garner recombination, and each output
/// channel of an op is an independent word-sized work item — the
/// decomposition [`RingExecutor`](crate::RingExecutor) schedules. The
/// native width `k` is one width among the others: the basis-changing
/// ops and the join read the same per-width constants at every width.
impl PolyRing for RnsRing {
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

    /// CRT decomposition. Coefficients at or above
    /// [`RnsRing::product_modulus`] are rejected with
    /// [`Error::CoefficientOutOfRange`] (callers reduce first, so
    /// aliasing can never silently change a value).
    fn split_cow(&self, coeffs: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
        let bigs = coeffs.as_bigs().ok_or(Error::CoefficientKind {
            expected: "big",
            got: coeffs.kind(),
        })?;
        if bigs.len() != self.n {
            return Err(Error::LengthMismatch {
                expected: self.n,
                got: bigs.len(),
            });
        }
        if let Some(index) = bigs.iter().position(|c| c >= self.product_modulus()) {
            return Err(Error::CoefficientOutOfRange { index });
        }
        Ok(self.native.split(self.backend(), bigs))
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
        // Everything the arms below index by is checked here, once.
        let outputs = self.output_width(op, width)?;
        let b = poly::check_channel_call(op, width, outputs, channel, a, b)?;
        let n = a[0].len();
        out.clear();
        match op {
            RingOp::Polymul(p) => {
                // `channel < width ≤ k`: one of the ring's own channels,
                // which carry the NTT plans.
                self.rings[channel].polymul_into(*p, &a[channel], &b[channel], out)
            }
            RingOp::Add | RingOp::Sub => {
                let subtract = matches!(op, RingOp::Sub);
                let (ra, rb) = (&a[channel], &b[channel]);
                // The backend's element-wise kernel on every channel: a
                // channel of the ring's own runs on its ring, and an
                // extension channel — which has none — on the first
                // channel's ring, over the fresh prime.
                match self.rings.get(channel) {
                    Some(ring) => ring.add_sub_into(ring.modulus(), subtract, ra, rb, out),
                    None => {
                        let m = self.width_ctx(width)?.mods[channel];
                        self.rings[0].add_sub_into(&m, subtract, ra, rb, out)
                    }
                }
            }
            RingOp::Rescale => {
                // out = round(x / q_last) mod q_i, from channel i and the
                // last channel alone.
                out.resize(n, 0);
                let ctx = self.width_ctx(width)?;
                ctx.rescale(self.backend(), channel, a, out);
                Ok(())
            }
            // Channels inside the source basis pass through unchanged.
            RingOp::BasisExtend { .. } if channel < width => {
                out.extend_from_slice(&a[channel]);
                Ok(())
            }
            RingOp::BasisExtend { .. } => {
                // A fresh channel: the Garner digits over the source-width
                // basis, folded onto the fresh prime block by block — one
                // digit buffer per call.
                let src = self.width_ctx(width)?;
                out.resize(n, 0);
                let tgt = self.width_ctx(outputs)?;
                tgt.extend_onto(&src, self.backend(), channel, a, out);
                Ok(())
            }
        }
    }

    /// Garner recombination over the width's basis: the digit rows on
    /// the ring's backend, then one limb-vector assembly per
    /// coefficient. Every channel must be `n` long
    /// ([`Error::LengthMismatch`]).
    fn join_at(&self, width: usize, channels: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
        let ctx = self.width_ctx(width)?;
        if channels.len() != width {
            return Err(Error::ChannelCountMismatch {
                expected: width,
                got: channels.len(),
            });
        }
        let n = self.n;
        if let Some(bad) = channels.iter().find(|ch| ch.len() != n) {
            return Err(Error::LengthMismatch {
                expected: n,
                got: bad.len(),
            });
        }
        let mut digits = vec![0_u128; width * BLOCK.min(n)];
        let mut column = vec![0_u128; width];
        let mut coeffs = Vec::with_capacity(n);
        for range in blocks(n) {
            let b = range.len();
            let digits = &mut digits[..width * b];
            ctx.digits(self.backend(), &channels, range, digits);
            coeffs.extend((0..b).map(|j| {
                for (d, row) in column.iter_mut().zip(digits.chunks_exact(b)) {
                    *d = row[j];
                }
                ctx.crt.assemble(&column)
            }));
        }
        Ok(Coefficients::Big(coeffs))
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
    const NEGACYCLIC: RingOp = RingOp::Polymul(crate::PolyOp::Negacyclic);

    fn ring_over(moduli: &[u128]) -> Result<RnsRing, Error> {
        RnsRing::builder(N).moduli(moduli).build()
    }

    fn coeffs(ring: &RnsRing, seed: u64) -> Vec<BigUint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ring.size())
            .map(|_| BigUint::random_below(&mut rng, ring.product_modulus()))
            .collect()
    }

    #[test]
    fn residue_roundtrip_is_identity() {
        let ring = ring_over(&[primes::Q62, primes::Q30, primes::Q14]).unwrap();
        let xs = coeffs(&ring, 0xC0FFEE);
        let xs = Coefficients::Big(xs);
        let channels = ring.split(&xs).unwrap();
        assert_eq!(channels.len(), 3);
        assert_eq!(ring.join_at(3, channels).unwrap(), xs);
    }

    #[test]
    fn negacyclic_matches_big_schoolbook() {
        let ring = ring_over(&[primes::Q62, primes::Q30]).unwrap();
        assert!(ring.supports_negacyclic());
        let a = coeffs(&ring, 1);
        let b = coeffs(&ring, 2);
        let expected =
            mqx_ntt::polymul::schoolbook_negacyclic_big(&a, &b, &ring.product_modulus().clone());
        let product = ring.apply(&NEGACYCLIC, &a.into(), Some(&b.into()));
        assert_eq!(product.unwrap(), Coefficients::Big(expected));
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
            assert!(std::ptr::addr_eq(channel.backend(), Arc::as_ptr(&instance)));
        }
    }

    #[test]
    fn builder_errors_are_specific() {
        assert!(matches!(
            RnsRing::builder(N).build().unwrap_err(),
            Error::Crt(CrtError::EmptyBasis)
        ));
        assert!(matches!(
            ring_over(&[primes::Q62, primes::Q62]).unwrap_err(),
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
        let ring = ring_over(&[primes::Q30, primes::Q14]).unwrap();
        let mut a = coeffs(&ring, 3);
        a[7] = ring.product_modulus().clone();
        let b = coeffs(&ring, 4);
        assert!(matches!(
            ring.apply(&NEGACYCLIC, &a.into(), Some(&b.into()))
                .unwrap_err(),
            Error::CoefficientOutOfRange { index: 7 }
        ));
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let ring = ring_over(&[primes::Q62, primes::Q30]).unwrap();
        let a = coeffs(&ring, 5);
        let short = Coefficients::Big(a[..N - 1].to_vec());
        assert!(matches!(
            ring.split(&short).unwrap_err(),
            Error::LengthMismatch { got, .. } if got == N - 1
        ));
        assert!(matches!(
            ring.join_at(2, vec![vec![0; N]]).unwrap_err(),
            Error::ChannelCountMismatch {
                expected: 2,
                got: 1
            }
        ));
    }

    /// Every value of a small basis through the word path and the
    /// `BigUint` oracle, on every registry backend, in one call per
    /// step: digits, assembly, decomposition, the fold onto `fresh`
    /// (coprime to the basis) and the rescale that drops the last prime.
    fn pin_word_crt_to_oracle(basis: [u128; 3], fresh: u128) {
        let ctx = WidthCtx::new(&basis).unwrap();
        let mut extended = basis.to_vec();
        extended.push(fresh);
        let tgt = WidthCtx::new(&extended).unwrap();
        let mut columns = Vec::new();
        for r0 in 0..basis[0] {
            for r1 in 0..basis[1] {
                for r2 in 0..basis[2] {
                    columns.push([r0, r1, r2]);
                }
            }
        }
        let n = columns.len();
        assert_eq!(
            BigUint::from(n as u64),
            *ctx.crt.product(),
            "every value once"
        );
        let channels: Vec<Vec<u128>> = (0..3)
            .map(|c| columns.iter().map(|r| r[c]).collect())
            .collect();
        let xs: Vec<BigUint> = columns.iter().map(|r| ctx.crt.recombine(r)).collect();
        let (q_last, half) = (BigUint::from(basis[2]), BigUint::from(basis[2] / 2));
        for b in backend::available() {
            let mut digits = vec![0; 3 * n];
            ctx.digits(&*b, &channels, 0..n, &mut digits);
            for (j, (residues, x)) in columns.iter().zip(&xs).enumerate() {
                let column: Vec<u128> = (0..3).map(|i| digits[i * n + j]).collect();
                assert_eq!(
                    column,
                    ctx.crt.digits(residues),
                    "{} {residues:?}",
                    b.name()
                );
                assert_eq!(ctx.crt.assemble(&column), *x, "{} {residues:?}", b.name());
            }
            assert_eq!(ctx.split(&*b, &xs), channels, "{}", b.name());
            let mut folded = vec![0; n];
            tgt.extend_onto(&ctx, &*b, 3, &channels, &mut folded);
            for (x, &r) in xs.iter().zip(&folded) {
                assert_eq!(
                    BigUint::from(r),
                    x % &BigUint::from(fresh),
                    "{} {x}",
                    b.name()
                );
            }
            for (c, &m_c) in basis[..2].iter().enumerate() {
                let mut out = vec![0; n];
                ctx.rescale(&*b, c, &channels, &mut out);
                let m_c = BigUint::from(m_c);
                for (x, &r) in xs.iter().zip(&out) {
                    let rounded = &(x + &half) / &q_last;
                    assert_eq!(BigUint::from(r), &rounded % &m_c, "{} {x}", b.name());
                }
            }
        }
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
