//! Facade crate for the MQX reproduction workspace: the runtime-dispatched
//! [`Ring`]/[`Backend`] API over every engine tier, plus re-exports of the
//! workspace libraries.
//!
//! # The front door
//!
//! The engine crates are generic over [`simd::SimdEngine`] at compile
//! time. This crate erases that type parameter behind the object-safe
//! [`Backend`] trait and discovers the tiers the *running machine*
//! supports via runtime CPU feature detection — the same binary uses
//! AVX-512 on a server and the portable engine in a container, with no
//! rebuild and no `cfg(target_feature)` in caller code:
//!
//! * [`Ring::auto`] — picks the fastest tier **as measured on this
//!   machine**: a one-shot startup micro-calibration ranks every
//!   registry backend by observed ns/butterfly (memoized; see
//!   [`backend::calibration`]), with `MQX_BACKEND=<name>` pinning a
//!   tier;
//! * [`Ring::builder`] — pins a tier ([`RingBuilder::backend_name`]),
//!   serves the plan from another cache, or builds the scalar
//!   reference ring;
//! * [`backend::available`] — enumerates what this host offers (the
//!   registry is built once per process and memoized);
//! * [`RnsRing`] — shards a wider-than-word modulus across word-sized
//!   residue channels (one backend-dispatched ring each) with CRT
//!   recombination;
//! * [`PolyRing`] — the object-safe trait unifying both ring kinds, so
//!   callers are generic over single- and multi-modulus rings;
//! * [`RingOp`] — the executor-facing ciphertext-pipeline vocabulary
//!   (polymul, add, sub, modulus rescale, RNS basis extension), each op
//!   decomposed into independent per-channel work items through the
//!   [`PolyRing::channel_apply_at_into`] / [`PolyRing::join_at`]
//!   contract;
//! * [`OpGraph`] — dependency graphs of [`RingOp`] nodes executed as
//!   *one* request with resident residues: intermediates stay
//!   channel-major between nodes and the CRT join runs exactly once, at
//!   the graph output (canned composite kernels:
//!   [`OpGraph::relinearize`], [`OpGraph::multiply_accumulate`]);
//! * [`RingExecutor`] — the one serving surface: a work-stealing
//!   thread-pool serving [`RingRequest`]s (an [`OpGraph`] plus a
//!   [`Priority`] and an optional deadline; a single [`RingOp`] is the
//!   one-node graph) against any shared `Arc<dyn PolyRing>`. Requests
//!   enter only through [`RingExecutor::submit`]: classes drain
//!   strictly High → Normal → Low, each class's queue bounded by the
//!   one depth limit ([`RingExecutorBuilder::queue_depth`]), a full
//!   class sheds with
//!   [`Error::Overloaded`], and [`AdmissionStats`] reconciles every
//!   decision. Deadlines shed at dequeue, cancellation is cooperative
//!   ([`RequestHandle::cancel`] / detached [`Canceller`]s), and every
//!   [`RequestHandle`] is a [`Future`](std::future::Future) that
//!   [`RequestHandle::wait`] blocks on (std wakers only;
//!   [`frontdoor::block_on`] and [`frontdoor::join_all`] ship in-tree,
//!   with the former front-door names as aliases);
//! * [`plan_cache`] — the keyed NTT-plan cache behind every ring open.
//!
//! Rings are immutable, shareable handles: every hot-path method takes
//! `&self` (per-call scratch comes from an internal free list), so
//! an `Arc<Ring>` or `Arc<RnsRing>` can be hammered from any number of
//! threads with bit-identical results.
//!
//! ```
//! use mqx::{core::primes, Ring};
//!
//! let ring = Ring::auto(primes::Q124, 1024)?;
//! println!("running on the {} backend", ring.backend().name());
//!
//! let f: Vec<u128> = (0..1024_u64).map(|i| u128::from(i % 17)).collect();
//! let g: Vec<u128> = (0..1024_u64).map(|i| u128::from(i % 23)).collect();
//! let product = ring.polymul_negacyclic(&f, &g)?;
//! assert_eq!(product.len(), 1024);
//! # Ok::<(), mqx::Error>(())
//! ```
//!
//! # The workspace libraries
//!
//! * [`core`] — double-word (128-bit) Barrett modular arithmetic and
//!   number theory ([`mqx_core`]).
//! * [`simd`] — vector engines (portable/AVX2/AVX-512) and the MQX ISA
//!   extension with PISA performance projection ([`mqx_simd`]).
//! * [`ntt`] — number theoretic transforms, Pease constant-geometry
//!   dataflow, polynomial multiplication ([`mqx_ntt`]).
//! * [`blas`] — vector kernels over 128-bit residues ([`mqx_blas`]).
//! * [`bignum`] — the arbitrary-precision GMP-substitute ([`mqx_bignum`]).
//! * [`baseline`] — the OpenFHE-style and GMP-style baselines
//!   ([`mqx_baseline`]).
//!
//! # Lower-level quickstart
//!
//! The generic layers remain public for code that wants to monomorphize
//! over one engine:
//!
//! ```
//! use mqx::core::{primes, Modulus};
//! use mqx::ntt::NttPlan;
//!
//! let m = Modulus::new_prime(primes::Q124)?;
//! let plan = NttPlan::new(&m, 256)?;
//! let mut data: Vec<u128> = (0..256_u64).map(u128::from).collect();
//! let original = data.clone();
//! plan.forward_scalar(&mut data);
//! plan.inverse_scalar(&mut data);
//! assert_eq!(data, original);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
mod executor;
pub mod frontdoor;
mod graph;
mod ops;
pub mod plan_cache;
mod poly;
mod ring;
mod rns;
mod scratch;

pub use backend::{Backend, Tier};
pub use error::Error;
pub use executor::{
    AdmissionStats, Canceller, Priority, RequestHandle, RingExecutor, RingExecutorBuilder,
    RingRequest, DEFAULT_QUEUE_DEPTH,
};
pub use graph::{GraphNode, OpGraph, OpGraphBuilder, Operand};
pub use ops::RingOp;
pub use plan_cache::PlanCache;
pub use poly::{Coefficients, PolyOp, PolyRing};
pub use ring::{Ring, RingBuilder};
pub use rns::{RnsRing, RnsRingBuilder};

pub use mqx_baseline as baseline;
pub use mqx_bignum as bignum;
pub use mqx_blas as blas;
pub use mqx_core as core;
pub use mqx_ntt as ntt;
pub use mqx_simd as simd;
