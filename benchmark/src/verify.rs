//! The correctness gate: expected responses from the reference ring,
//! and an independent oracle for the first request of each shape. Both
//! run before any timing and outside every timed span.

use crate::workload::{Rings, Workload};
use mqx::baseline::fhe::FheRnsNtt;
use mqx::bignum::BigUint;
use mqx::core::{nt, Modulus};
use mqx::ntt::polymul::{schoolbook_cyclic, schoolbook_negacyclic};
use mqx::{Coefficients, Error, PolyOp, PolyRing, RingOp, RingRequest};

/// Evaluates one request sequentially on the calling thread — the
/// no-executor service path (`PolyRing::apply` / `apply_graph`).
pub fn apply(ring: &dyn PolyRing, request: &RingRequest) -> Result<Coefficients, Error> {
    match request.op_graph() {
        Some(graph) => {
            let operands: Vec<Coefficients> = std::iter::once(request.a())
                .chain(request.b())
                .cloned()
                .collect();
            ring.apply_graph(graph, &operands)
        }
        None => ring.apply(request.op(), request.a(), request.b()),
    }
}

/// The response every request of the pool must produce, bit for bit.
pub fn expected(reference: &Rings, pool: &[RingRequest]) -> Result<Vec<Coefficients>, Error> {
    let ring = reference.poly();
    pool.iter().map(|request| apply(&*ring, request)).collect()
}

fn roots(moduli: &[u128], order: usize) -> Vec<u128> {
    moduli
        .iter()
        .map(|&q| {
            let m = Modulus::new_prime(q).expect("ring moduli are prime");
            nt::root_of_unity(&m, order as u64).expect("NTT-friendly at the ring size")
        })
        .collect()
}

/// `round(a ⊛ b / p) mod Q` for the negacyclic product `⊛` — what the
/// relinearize graph computes — through the division-based baseline
/// only. `FheRnsNtt::relinearize` itself is cyclic, so the negacyclic
/// product is composed from the same kernels: the linear product is a
/// cyclic one at size 2n over zero-padded operands, folded with the
/// sign flip; extending the basis by `p` leaves the value unchanged,
/// and `FheRnsNtt::rescale` over the extended basis divides and rounds.
fn relinearize_oracle(moduli: &[u128], p: u128, a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    let n = a.len();
    let doubled = FheRnsNtt::new(moduli, 2 * n, &roots(moduli, 2 * n));
    let pad = |x: &[BigUint]| {
        let mut padded = x.to_vec();
        padded.resize(2 * n, BigUint::zero());
        padded
    };
    let linear = doubled.polymul_cyclic(&pad(a), &pad(b));
    let q = doubled.product();
    let negacyclic: Vec<BigUint> = (0..n)
        .map(|i| linear[i].sub_mod(&linear[i + n], q))
        .collect();
    let mut extended = moduli.to_vec();
    extended.push(p);
    FheRnsNtt::new(&extended, n, &roots(&extended, n)).rescale(&negacyclic)
}

/// Checks the first request of each shape, at full size, against an
/// oracle that shares no kernel with the library paths: O(n²)
/// schoolbook products and coefficient-wise modular sums for the word
/// rings, the division-based OpenFHE-style baseline for the RNS graph.
pub fn oracle_agrees(
    workload: &Workload,
    reference: &Rings,
    pool: &[RingRequest],
    expected: &[Coefficients],
) -> bool {
    pool.iter()
        .zip(expected)
        .take(workload.shapes())
        .all(|(request, expected)| {
            let Some(b) = request.b() else {
                return false;
            };
            match (reference, request.a(), b) {
                (Rings::Word(ring), Coefficients::Word(a), Coefficients::Word(b)) => {
                    let m = ring.modulus();
                    let oracle = match request.op() {
                        RingOp::Polymul(PolyOp::Negacyclic) => schoolbook_negacyclic(a, b, m),
                        RingOp::Polymul(PolyOp::Cyclic) => schoolbook_cyclic(a, b, m),
                        RingOp::Add => a.iter().zip(b).map(|(&x, &y)| m.add_mod(x, y)).collect(),
                        RingOp::Sub => a.iter().zip(b).map(|(&x, &y)| m.sub_mod(x, y)).collect(),
                        _ => return false,
                    };
                    expected.as_words() == Some(&oracle[..])
                }
                (Rings::Rns(ring), Coefficients::Big(a), Coefficients::Big(b)) => {
                    let Ok(extended) = ring.extended_moduli(1) else {
                        return false;
                    };
                    let p = extended[extended.len() - 1];
                    expected.as_bigs() == Some(&relinearize_oracle(ring.moduli(), p, a, b)[..])
                }
                _ => false,
            }
        })
}
