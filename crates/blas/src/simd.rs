//! SIMD-tier BLAS kernels: the engine processes `E::LANES` residues per
//! iteration over the SoA layout; scalar code finishes the tail when the
//! length is not a lane multiple. ("BLAS operations … can be implemented
//! by looping over scalar or SIMD modular arithmetic", §3.2. The paper
//! assumes lane-multiple lengths; the tail handling here just removes
//! that assumption.)
//!
//! Every kernel runs its loop inside [`SimdEngine::vectorize`], so the
//! hardware engines execute inlined intrinsics in an ordinary build.

use mqx_core::Modulus;
use mqx_simd::{addmod, mulmod, submod, ResidueSoa, SimdEngine, VDword, VModulus};

/// Vector addition into `out`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn vadd<E: SimdEngine>(x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
    binary_kernel::<E>(
        x,
        y,
        out,
        m,
        #[inline(always)]
        |a, b, vm| addmod::<E>(a, b, vm),
        |m, a, b| m.add_mod(a, b),
    );
}

/// Vector subtraction into `out`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn vsub<E: SimdEngine>(x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
    binary_kernel::<E>(
        x,
        y,
        out,
        m,
        #[inline(always)]
        |a, b, vm| submod::<E>(a, b, vm),
        |m, a, b| m.sub_mod(a, b),
    );
}

/// Point-wise vector multiplication into `out`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn vmul<E: SimdEngine>(x: &ResidueSoa, y: &ResidueSoa, out: &mut ResidueSoa, m: &Modulus) {
    binary_kernel::<E>(
        x,
        y,
        out,
        m,
        #[inline(always)]
        |a, b, vm| mulmod::<E>(a, b, vm),
        |m, a, b| m.mul_mod(a, b),
    );
}

/// `axpy`: `y[i] ← a·x[i] + y[i] mod q` with broadcast scalar `a`.
///
/// # Panics
///
/// Panics if lengths differ; debug-asserts `a < q`.
pub fn axpy<E: SimdEngine>(a: u128, x: &ResidueSoa, y: &mut ResidueSoa, m: &Modulus) {
    assert_eq!(x.len(), y.len());
    debug_assert!(a < m.value());
    let vm = VModulus::<E>::new(m);
    E::vectorize(
        #[inline(always)]
        |t| {
            let av = VDword::<E>::broadcast(t, a);
            let n = x.len();
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let xv = x.load_vector::<E>(t, i);
                let yv = y.load_vector::<E>(t, i);
                y.store_vector::<E>(i, addmod::<E>(mulmod::<E>(av, xv, &vm), yv, &vm));
                i += lanes;
            }
            while i < n {
                let v = m.add_mod(m.mul_mod(a, x.get(i)), y.get(i));
                y.set(i, v);
                i += 1;
            }
        },
    );
}

/// Dot product `Σ x[i]·y[i] mod q`: lane-parallel multiply-accumulate,
/// then a horizontal modular reduction of the lane partials.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot<E: SimdEngine>(x: &ResidueSoa, y: &ResidueSoa, m: &Modulus) -> u128 {
    assert_eq!(x.len(), y.len());
    let vm = VModulus::<E>::new(m);
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = x.len();
            let lanes = E::LANES;
            let mut acc = VDword::<E>::broadcast(t, 0);
            let mut i = 0;
            while i + lanes <= n {
                let xv = x.load_vector::<E>(t, i);
                let yv = y.load_vector::<E>(t, i);
                acc = addmod::<E>(acc, mulmod::<E>(xv, yv, &vm), &vm);
                i += lanes;
            }
            let mut total = 0_u128;
            for lane in 0..lanes {
                total = m.add_mod(total, acc.extract(lane));
            }
            while i < n {
                total = m.add_mod(total, m.mul_mod(x.get(i), y.get(i)));
                i += 1;
            }
            total
        },
    )
}

/// Matrix–vector product `out = A·x mod q`, `A` row-major (`rows` rows of
/// `x.len()` columns) — the gemv of §2.3 in the SIMD tier.
///
/// # Panics
///
/// Panics if `a.len() != rows * x.len()`.
pub fn gemv<E: SimdEngine>(a: &ResidueSoa, rows: usize, x: &ResidueSoa, m: &Modulus) -> Vec<u128> {
    assert_eq!(a.len(), rows * x.len());
    let cols = x.len();
    let mut out = Vec::with_capacity(rows);
    // Row views need contiguous SoA slices; rebuild per row from the
    // flat container (cheap relative to the O(cols) arithmetic).
    for r in 0..rows {
        let row: ResidueSoa = (0..cols).map(|c| a.get(r * cols + c)).collect();
        out.push(dot::<E>(&row, x, m));
    }
    out
}

/// Shared shape of the three element-wise kernels: vector body over full
/// lanes, scalar tail for the remainder.
///
/// `vector_op` must be an `#[inline(always)]` closure, never a fn item
/// such as `addmod::<E>`: a fn item is called through a compiler shim
/// that stays outside the target-feature frame (see
/// [`SimdEngine::vectorize`]).
fn binary_kernel<E: SimdEngine>(
    x: &ResidueSoa,
    y: &ResidueSoa,
    out: &mut ResidueSoa,
    m: &Modulus,
    vector_op: impl Fn(VDword<E>, VDword<E>, &VModulus<E>) -> VDword<E>,
    scalar_op: impl Fn(&Modulus, u128, u128) -> u128,
) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), out.len());
    let vm = VModulus::<E>::new(m);
    E::vectorize(
        #[inline(always)]
        |t| {
            let n = x.len();
            let lanes = E::LANES;
            let mut i = 0;
            while i + lanes <= n {
                let xv = x.load_vector::<E>(t, i);
                let yv = y.load_vector::<E>(t, i);
                out.store_vector::<E>(i, vector_op(xv, yv, &vm));
                i += lanes;
            }
            while i < n {
                out.set(i, scalar_op(m, x.get(i), y.get(i)));
                i += 1;
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqx_core::primes;
    use mqx_simd::Portable;

    #[test]
    fn gemv_matches_scalar() {
        let m = Modulus::new(primes::Q62).unwrap();
        let q = m.value();
        let rows = 4;
        let cols = 8;
        let a_vals: Vec<u128> = (0..rows * cols)
            .map(|i| (i as u128 * 37 + 11) % q)
            .collect();
        let x_vals: Vec<u128> = (0..cols).map(|i| (i as u128 * 101 + 3) % q).collect();
        let a = ResidueSoa::from_u128s(&a_vals);
        let x = ResidueSoa::from_u128s(&x_vals);
        assert_eq!(
            gemv::<Portable>(&a, rows, &x, &m),
            crate::scalar::gemv(&a_vals, rows, &x_vals, &m)
        );
    }

    #[test]
    fn dot_empty_and_short() {
        let m = Modulus::new(primes::Q30).unwrap();
        let empty = ResidueSoa::new();
        assert_eq!(dot::<Portable>(&empty, &empty, &m), 0);
        // Shorter than one vector: pure tail path.
        let x = ResidueSoa::from_u128s(&[2, 3]);
        let y = ResidueSoa::from_u128s(&[5, 7]);
        assert_eq!(dot::<Portable>(&x, &y, &m), 31);
    }

    #[test]
    fn vadd_in_place_aliasing_out_buffer() {
        // out is a distinct buffer by API design; verify basic shape.
        let m = Modulus::new(primes::Q30).unwrap();
        let x = ResidueSoa::from_u128s(&[1; 16]);
        let y = ResidueSoa::from_u128s(&[2; 16]);
        let mut out = ResidueSoa::zeros(16);
        vadd::<Portable>(&x, &y, &mut out, &m);
        assert_eq!(out.to_u128s(), vec![3; 16]);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let m = Modulus::new(primes::Q30).unwrap();
        let x = ResidueSoa::from_u128s(&[1; 8]);
        let y = ResidueSoa::from_u128s(&[2; 9]);
        let mut out = ResidueSoa::zeros(8);
        vadd::<Portable>(&x, &y, &mut out, &m);
    }
}
