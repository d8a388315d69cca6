//! The four workloads: which ring is served, which requests are sent,
//! and how the load is offered. `BENCHMARK.json` and README.md say why
//! each one exists.

use mqx::bignum::BigUint;
use mqx::core::primes;
use mqx::frontdoor::FrontDoor;
use mqx::{Coefficients, Error, OpGraph, PlanCache, PolyOp, PolyRing, Ring, RingRequest, RnsRing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Requests a closed loop keeps in flight in its saturating phase (its
/// light phase keeps one).
pub const CLOSED_WINDOW: usize = 16;

/// Width in bits of the primes `RnsRing::auto` generates; the reference
/// ring asks for the same chain by hand, and [`Workload::serve`]'s
/// caller checks the two bases agree.
const RNS_BASIS_BITS: u32 = 62;

/// The arrival schedule of the one open-loop workload.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Light step, about a quarter of the seed's capacity (1.4 k req/s
    /// with generator and worker on one CPU). At ISSUE 11's 600 req/s
    /// over 40 % of the requests found the worker busy: the median sat
    /// on the edge between those and the ones served at once, and a
    /// host 10 % slower moved it by 40 %.
    pub light_rps: f64,
    /// Overload step, over eight times the seed's capacity, so it
    /// stays an overload after a sixfold kernel gain.
    pub overload_rps: f64,
    /// Each request's deadline, counted from its scheduled send time.
    pub deadline_ms: u64,
    /// `FrontDoor` queue depth per class.
    pub queue_depth: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    WordPolymul,
    RnsRelin,
    WordAdd,
    QosOpen,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
}

/// Every workload, in the order a suite interleaves them.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "word_polymul",
        kind: Kind::WordPolymul,
    },
    Workload {
        name: "rns_relin",
        kind: Kind::RnsRelin,
    },
    Workload {
        name: "word_add",
        kind: Kind::WordAdd,
    },
    Workload {
        name: "qos_open",
        kind: Kind::QosOpen,
    },
];

/// The ring a workload serves, kept by concrete type as well so the
/// layer probes can reach the plan and the backend behind it.
pub enum Rings {
    Word(Arc<Ring>),
    Rns(Arc<RnsRing>),
}

impl Rings {
    /// The handle requests are submitted against.
    pub fn poly(&self) -> Arc<dyn PolyRing> {
        match self {
            Rings::Word(ring) => Arc::clone(ring) as Arc<dyn PolyRing>,
            Rings::Rns(ring) => Arc::clone(ring) as Arc<dyn PolyRing>,
        }
    }

    /// The single-modulus ring whose kernels a request runs: the ring
    /// itself, or channel 0 of an RNS ring.
    pub fn kernel(&self) -> &Ring {
        match self {
            Rings::Word(ring) => ring,
            Rings::Rns(ring) => &ring.rings()[0],
        }
    }

    /// The backend name of every channel.
    pub fn backend_names(&self) -> Vec<&'static str> {
        match self {
            Rings::Word(ring) => vec![ring.backend().name()],
            Rings::Rns(ring) => ring.backend_names(),
        }
    }

    /// The channel moduli.
    pub fn moduli(&self) -> Vec<u128> {
        match self {
            Rings::Word(ring) => vec![ring.modulus().value()],
            Rings::Rns(ring) => ring.moduli().to_vec(),
        }
    }
}

/// What set-up produces: the served ring and the front door over a
/// fresh worker pool.
pub struct Served {
    pub rings: Rings,
    pub ring: Arc<dyn PolyRing>,
    pub door: FrontDoor,
}

/// Uniform-enough residues below `q`.
pub fn random_words(rng: &mut StdRng, n: usize, q: u128) -> Vec<u128> {
    (0..n).map(|_| rng.gen::<u128>() % q).collect()
}

/// Uniform-enough coefficients below `q`: three random limbs cover the
/// 186-bit product modulus, reduced once.
pub fn random_bigs(rng: &mut StdRng, n: usize, q: &BigUint) -> Vec<BigUint> {
    (0..n)
        .map(|_| &BigUint::from_limbs(vec![rng.gen(), rng.gen(), rng.gen()]) % q)
        .collect()
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|workload| workload.name == name)
    }

    /// Transform size of the served ring.
    pub fn n(&self) -> usize {
        match self.kind {
            Kind::WordPolymul | Kind::WordAdd => 4096,
            Kind::RnsRelin => 2048,
            Kind::QosOpen => 1024,
        }
    }

    /// `Some` for the open-loop workload.
    pub fn open_loop(&self) -> Option<OpenLoop> {
        (self.kind == Kind::QosOpen).then_some(OpenLoop {
            light_rps: 400.0,
            overload_rps: 12_000.0,
            deadline_ms: 50,
            queue_depth: 64,
        })
    }

    /// Distinct request shapes; the pool's first `shapes()` requests
    /// have one each, and the pool cycles through them in order.
    pub fn shapes(&self) -> usize {
        match self.kind {
            Kind::RnsRelin => 1,
            _ => 2,
        }
    }

    /// Whether a request is a coefficient-wise add/sub (one
    /// `Backend::vadd`/`vsub`) and not polynomial products.
    pub fn adds(&self) -> bool {
        self.kind == Kind::WordAdd
    }

    /// `Backend` kernel calls one request makes: one fused polymul per
    /// residue channel, or the one vector add.
    pub fn kernel_calls(&self) -> usize {
        match self.kind {
            Kind::RnsRelin => 3,
            _ => 1,
        }
    }

    fn pool_size(&self) -> usize {
        match self.kind {
            Kind::WordPolymul | Kind::WordAdd => 32,
            Kind::RnsRelin => 16,
            Kind::QosOpen => 64,
        }
    }

    /// The reference ring: pinned to `portable`, canonical (non-lazy)
    /// kernels where the builder offers the choice, so the served
    /// lazy/auto path is checked against a different kernel path. Its
    /// plans come from a private cache: building it must not warm the
    /// process-wide cache the timed set-up then reads.
    pub fn reference(&self) -> Result<Rings, Error> {
        let cache = Arc::new(PlanCache::new());
        Ok(match self.kind {
            Kind::RnsRelin => Rings::Rns(Arc::new(
                RnsRing::builder(self.n())
                    .generated_basis(RNS_BASIS_BITS, 3)
                    .backend_name("portable")
                    .plan_cache(cache)
                    .build()?,
            )),
            _ => Rings::Word(Arc::new(
                Ring::builder(primes::Q124, self.n())
                    .backend_name("portable")
                    .lazy(false)
                    .plan_cache(cache)
                    .build()?,
            )),
        })
    }

    /// The request pool, a function of the seed alone. Scheduling
    /// options (class, deadline) are attached at send time.
    pub fn requests(&self, reference: &Rings, seed: u64) -> Vec<RingRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.n();
        (0..self.pool_size())
            .map(|i| match (self.kind, reference) {
                (Kind::RnsRelin, Rings::Rns(ring)) => {
                    let q = ring.product_modulus();
                    let operands = (0..2)
                        .map(|_| Coefficients::Big(random_bigs(&mut rng, n, q)))
                        .collect();
                    RingRequest::graph(OpGraph::relinearize(PolyOp::Negacyclic, 1), operands)
                }
                _ => {
                    let a = Coefficients::Word(random_words(&mut rng, n, primes::Q124));
                    let b = Coefficients::Word(random_words(&mut rng, n, primes::Q124));
                    match (self.kind, i % 2) {
                        (Kind::WordAdd, 0) => RingRequest::add(a, b),
                        (Kind::WordAdd, _) => RingRequest::sub(a, b),
                        (_, 0) => RingRequest::polymul(PolyOp::Negacyclic, a, b),
                        (_, _) => RingRequest::polymul(PolyOp::Cyclic, a, b),
                    }
                }
            })
            .collect()
    }

    /// The ring and front door a user gets by default: `Ring::auto` /
    /// `RnsRing::auto` (so `MQX_*` overrides, when set, apply) and a
    /// front door over a fresh pool of `workers` threads.
    pub fn serve(&self, workers: usize) -> Result<Served, Error> {
        let rings = match self.kind {
            Kind::RnsRelin => Rings::Rns(Arc::new(RnsRing::auto(3, self.n())?)),
            _ => Rings::Word(Arc::new(Ring::auto(primes::Q124, self.n())?)),
        };
        let door = match self.open_loop() {
            Some(open) => FrontDoor::builder(workers)
                .queue_depth(open.queue_depth)
                .build()?,
            None => FrontDoor::new(workers)?,
        };
        Ok(Served {
            ring: rings.poly(),
            rings,
            door,
        })
    }
}
