//! Reference baselines for the reproduction (§5.3–§5.4).
//!
//! The paper compares against two CPU baselines, neither of which is
//! available to a pure-Rust offline build, so this crate substitutes
//! behaviour-faithful stand-ins (the README's "Layout" table lists
//! every in-tree substitute):
//!
//! * [`fhe`] — **OpenFHE's default math backend** stand-in: modular
//!   arithmetic on native-width integers with *division-based* reduction
//!   (no Barrett precomputation in the hot path) and a textbook radix-2
//!   NTT with precomputed root tables. This is the "state-of-the-art FHE
//!   library" tier of Figures 1 and 5.
//! * [`gmp`] — **GMP (exact integer arithmetic)** stand-in: the same
//!   kernels over heap-allocated arbitrary-precision integers from
//!   [`mqx_bignum`], with per-operation allocation and normalization —
//!   the cost profile of `mpz_*` calls at 128-bit operand sizes. This is
//!   the "GMP" tier of Figures 4 and 5.
//!
//! Both baselines are *numerically identical* to the optimized kernels
//! (the paper configures GMP "to perform exact integer arithmetic,
//! ensuring bitwise-identical results"); the test suites enforce that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fhe;
pub mod gmp;
