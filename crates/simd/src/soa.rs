//! Structure-of-arrays storage for vectors of 128-bit residues.
//!
//! The SIMD kernels consume residues as two parallel `u64` arrays (high
//! words and low words) so that a vector load grabs eight high words or
//! eight low words at once — the layout of Figure 2, extended from one
//! register to whole arrays. [`ResidueSoa`] owns that layout and converts
//! to and from the scalar `u128` representation at the edges.

use crate::engine::SimdEngine;
use crate::{VDword, VModulus};

/// A growable vector of 128-bit residues stored as split hi/lo arrays.
///
/// ```
/// use mqx_simd::ResidueSoa;
/// let soa = ResidueSoa::from_u128s(&[1_u128 << 70, 42]);
/// assert_eq!(soa.len(), 2);
/// assert_eq!(soa.to_u128s(), vec![1_u128 << 70, 42]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResidueSoa {
    hi: Vec<u64>,
    lo: Vec<u64>,
}

impl ResidueSoa {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a zero-filled container of `len` residues.
    pub fn zeros(len: usize) -> Self {
        ResidueSoa {
            hi: vec![0; len],
            lo: vec![0; len],
        }
    }

    /// Builds from scalar residues.
    pub fn from_u128s(xs: &[u128]) -> Self {
        ResidueSoa {
            hi: xs.iter().map(|&x| (x >> 64) as u64).collect(),
            lo: xs.iter().map(|&x| x as u64).collect(),
        }
    }

    /// Overwrites the container from scalar residues, reusing the
    /// existing allocation when `xs.len() <= self.capacity()` — the
    /// zero-allocation ingest path for reusable ring buffers.
    pub fn copy_from_u128s(&mut self, xs: &[u128]) {
        self.hi.clear();
        self.lo.clear();
        self.hi.extend(xs.iter().map(|&x| (x >> 64) as u64));
        self.lo.extend(xs.iter().map(|&x| x as u64));
    }

    /// Writes the residues into `out`, which must have the same length —
    /// the allocation-free counterpart of [`ResidueSoa::to_u128s`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn write_u128s(&self, out: &mut [u128]) {
        assert_eq!(out.len(), self.len(), "output length must match");
        for (slot, (&h, &l)) in out.iter_mut().zip(self.hi.iter().zip(&self.lo)) {
            *slot = (u128::from(h) << 64) | u128::from(l);
        }
    }

    /// Converts back to scalar residues.
    pub fn to_u128s(&self) -> Vec<u128> {
        self.hi
            .iter()
            .zip(&self.lo)
            .map(|(&h, &l)| (u128::from(h) << 64) | u128::from(l))
            .collect()
    }

    /// Number of residues.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.hi.len()
    }

    /// Returns `true` if the container holds no residues.
    pub fn is_empty(&self) -> bool {
        self.hi.is_empty()
    }

    /// Reads one residue.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline(always)]
    pub fn get(&self, i: usize) -> u128 {
        (u128::from(self.hi[i]) << 64) | u128::from(self.lo[i])
    }

    /// Writes one residue.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline(always)]
    pub fn set(&mut self, i: usize, x: u128) {
        self.hi[i] = (x >> 64) as u64;
        self.lo[i] = x as u64;
    }

    /// The high-word array.
    pub fn hi(&self) -> &[u64] {
        &self.hi
    }

    /// The low-word array.
    pub fn lo(&self) -> &[u64] {
        &self.lo
    }

    /// Mutable views of both arrays (for kernel stores).
    #[inline(always)]
    pub fn parts_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (&mut self.hi, &mut self.lo)
    }

    /// Loads lanes `[i, i + E::LANES)` as a vector pair.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline(always)]
    pub fn load_vector<E: SimdEngine>(&self, t: E::Token, i: usize) -> VDword<E> {
        VDword::load(t, &self.hi[i..], &self.lo[i..])
    }

    /// Stores a vector pair to lanes `[i, i + E::LANES)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[inline(always)]
    pub fn store_vector<E: SimdEngine>(&mut self, i: usize, v: VDword<E>) {
        v.store(&mut self.hi[i..], &mut self.lo[i..]);
    }

    /// Debug helper: asserts every residue is reduced below the modulus.
    pub fn assert_reduced<E: SimdEngine>(&self, m: &VModulus<E>) {
        let q = m.scalar.value();
        for i in 0..self.len() {
            assert!(
                self.get(i) < q,
                "residue {i} = {:#x} not reduced",
                self.get(i)
            );
        }
    }
}

/// Debug-asserts the lazy coefficient-domain contract over SoA data:
/// every value below `bound`. Compiled out of release builds.
///
/// This is the check lint rule **L3** demands at the entry of every
/// in-place `*_lazy_*` / `*_fused_*` kernel: lazy forward stages
/// accept `[0, 2q)`, the lazy inverse accepts `[0, 4q)`, and the fused
/// polymul pipelines accept canonical (or `[0, 2q)`) operands. See the
/// README's "Correctness tooling" section.
#[inline]
pub fn debug_assert_domain_soa(x: &ResidueSoa, bound: u128, what: &str) {
    if cfg!(debug_assertions) {
        for i in 0..x.len() {
            let v = x.get(i);
            assert!(v < bound, "{what}: coefficient {i} = {v:#x} ≥ {bound:#x}");
        }
    }
}

impl FromIterator<u128> for ResidueSoa {
    fn from_iter<T: IntoIterator<Item = u128>>(iter: T) -> Self {
        let mut out = ResidueSoa::new();
        for x in iter {
            out.hi.push((x >> 64) as u64);
            out.lo.push(x as u64);
        }
        out
    }
}

impl Extend<u128> for ResidueSoa {
    fn extend<T: IntoIterator<Item = u128>>(&mut self, iter: T) {
        for x in iter {
            self.hi.push((x >> 64) as u64);
            self.lo.push(x as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;

    #[test]
    fn roundtrip_and_indexing() {
        let xs: Vec<u128> = (0..20_u64)
            .map(|i| (u128::from(i) << 64) | u128::from(i * 7))
            .collect();
        let mut soa = ResidueSoa::from_u128s(&xs);
        assert_eq!(soa.len(), 20);
        assert!(!soa.is_empty());
        assert_eq!(soa.to_u128s(), xs);
        assert_eq!(soa.get(3), xs[3]);
        soa.set(3, 999);
        assert_eq!(soa.get(3), 999);
    }

    #[test]
    fn vector_load_store() {
        let xs: Vec<u128> = (0..16_u64).map(u128::from).collect();
        let mut soa = ResidueSoa::from_u128s(&xs);
        let v = soa.load_vector::<Portable>(Portable::token(), 8);
        assert_eq!(v.extract(0), 8);
        assert_eq!(v.extract(7), 15);
        soa.store_vector::<Portable>(0, v);
        assert_eq!(soa.get(0), 8);
        assert_eq!(soa.get(7), 15);
    }

    #[test]
    fn collect_and_extend() {
        let mut soa: ResidueSoa = (0..5_u64).map(u128::from).collect();
        soa.extend([100_u128, 200]);
        assert_eq!(soa.len(), 7);
        assert_eq!(soa.get(6), 200);
    }

    #[test]
    fn zeros_is_reduced() {
        use mqx_core::{primes, Modulus};
        let m = VModulus::<Portable>::new(&Modulus::new(primes::Q124).unwrap());
        ResidueSoa::zeros(16).assert_reduced(&m);
    }
}
