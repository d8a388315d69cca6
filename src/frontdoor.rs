//! Std-only async driving for [`RequestHandle`] futures — [`block_on`]
//! and [`join_all`] — plus the names the former two-layer front door
//! used.
//!
//! Admission control and async completion live in the pool itself (see
//! the [`executor`](crate::RingExecutor) docs): [`RingExecutor::submit`]
//! sheds a full class with [`Error::Overloaded`](crate::Error::Overloaded),
//! and every [`RequestHandle`] is a
//! [`Future`]`<Output = Result<Coefficients, Error>>`. The build is
//! offline, so this module ships the minimal runtime tests, examples and
//! thread-per-core servers drive those futures with; any waker-driven
//! runtime can drive them too.
//!
//! [`FrontDoor`] and [`AsyncRequestHandle`] are aliases of
//! [`RingExecutor`] and [`RequestHandle`], kept so code written against
//! the front door compiles unchanged; `FrontDoor::builder` returns a
//! [`RingExecutorBuilder`](crate::RingExecutorBuilder).
//!
//! ```
//! use std::sync::Arc;
//! use mqx::core::primes;
//! use mqx::frontdoor::{block_on, join_all, FrontDoor};
//! use mqx::{PolyOp, PolyRing, Ring, RingRequest};
//!
//! let ring: Arc<dyn PolyRing> = Arc::new(Ring::auto(primes::Q124, 64)?);
//! let door = FrontDoor::builder(2).queue_depth(64).build()?;
//!
//! // Submit a burst, then await the whole batch through one join.
//! let futures: Vec<_> = (0..8_u64)
//!     .map(|i| {
//!         let a: Vec<u128> = (0..64).map(|j| u128::from(i + j)).collect();
//!         door.submit(
//!             &ring,
//!             RingRequest::polymul(PolyOp::Negacyclic, a.clone().into(), a.into()),
//!         )
//!     })
//!     .collect::<Result<_, _>>()?;
//! let products = block_on(join_all(futures));
//! assert_eq!(products.len(), 8);
//! for product in products {
//!     assert_eq!(product?.len(), 64);
//! }
//!
//! let stats = door.stats();
//! assert!(stats.reconciles());
//! assert_eq!(stats.admitted, 8);
//! # Ok::<(), mqx::Error>(())
//! ```
//!
//! [`Coefficients`]: crate::Coefficients
//! [`Error`]: crate::Error

pub use crate::executor::{AdmissionStats, DEFAULT_QUEUE_DEPTH};

/// ```
/// use mqx::frontdoor::block_on;
/// assert_eq!(block_on(async { 2 + 2 }), 4);
/// ```
pub use crate::executor::block_on;
use crate::executor::{RequestHandle, RingExecutor};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// The admission-controlled pool under its front-door name.
///
/// ```
/// use mqx::frontdoor::FrontDoor;
///
/// let door = FrontDoor::builder(2).queue_depth(256).build()?;
/// assert_eq!(door.queue_depth_limit(), 256);
/// # Ok::<(), mqx::Error>(())
/// ```
pub type FrontDoor = RingExecutor;

/// The one request handle under its front-door name: a
/// [`RequestHandle`] is already a [`Future`].
pub type AsyncRequestHandle = RequestHandle;

/// One sub-future of a [`JoinAll`].
enum Slot<F: Future> {
    Pending(F),
    Done(F::Output),
    Taken,
}

/// Future returned by [`join_all`]: resolves once every sub-future has,
/// yielding their outputs in submission order.
#[must_use = "futures do nothing unless polled; block_on or join them"]
pub struct JoinAll<F: Future> {
    slots: Vec<Slot<F>>,
}

/// Joins a collection of futures into one future yielding every output
/// in input order — the batch-await a serving loop uses to collect a
/// burst of [`RequestHandle`]s in a single [`block_on`].
///
/// Completed sub-futures are never re-polled; the join resolves when
/// the last one does.
pub fn join_all<F, I>(futures: I) -> JoinAll<F>
where
    F: Future + Unpin,
    I: IntoIterator<Item = F>,
{
    JoinAll {
        slots: futures.into_iter().map(Slot::Pending).collect(),
    }
}

// Sound: `JoinAll` holds no self-references and never hands out a
// pinned view of an output value; with the futures themselves `Unpin`,
// moving the struct is always fine.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut done = true;
        for slot in &mut this.slots {
            if let Slot::Pending(future) = slot {
                match Pin::new(future).poll(cx) {
                    Poll::Ready(value) => *slot = Slot::Done(value),
                    Poll::Pending => done = false,
                }
            }
        }
        if !done {
            return Poll::Pending;
        }
        Poll::Ready(
            this.slots
                .iter_mut()
                .map(|slot| match std::mem::replace(slot, Slot::Taken) {
                    Slot::Done(value) => value,
                    _ => panic!("JoinAll polled after completion"),
                })
                .collect(),
        )
    }
}

impl<F: Future> std::fmt::Debug for JoinAll<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Pending(_)))
            .count();
        f.debug_struct("JoinAll")
            .field("total", &self.slots.len())
            .field("pending", &pending)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coefficients, Error, PolyOp, PolyRing, Priority, Ring, RingOp, RingRequest};
    use mqx_core::primes;
    use std::borrow::Cow;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const N: usize = 64;

    fn ring() -> Arc<dyn PolyRing> {
        Arc::new(Ring::auto(primes::Q124, N).unwrap())
    }

    fn request(seed: u64) -> RingRequest {
        let a: Vec<u128> = (0..N as u64).map(|i| u128::from(i * 3 + seed)).collect();
        let b: Vec<u128> = (0..N as u64)
            .map(|i| u128::from(i + 2 * seed + 1))
            .collect();
        RingRequest::polymul(PolyOp::Cyclic, a.into(), b.into())
    }

    #[test]
    fn block_on_drives_plain_futures() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
        assert_eq!(block_on(std::future::ready("done")), "done");
    }

    #[test]
    fn join_all_preserves_input_order() {
        let futures: Vec<_> = (0..5).map(std::future::ready).collect();
        assert_eq!(block_on(join_all(futures)), vec![0, 1, 2, 3, 4]);
        let empty: Vec<std::future::Ready<u8>> = Vec::new();
        assert_eq!(block_on(join_all(empty)), Vec::<u8>::new());
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let door = FrontDoor::new(1).unwrap();
        assert_eq!(door.queue_depth_limit(), DEFAULT_QUEUE_DEPTH);
        let door = FrontDoor::builder(1).queue_depth(8).build().unwrap();
        assert_eq!(door.queue_depth_limit(), 8);
        assert_eq!(door.workers(), 1);
        assert!(matches!(
            FrontDoor::builder(0).build().unwrap_err(),
            Error::NoWorkers
        ));
    }

    #[test]
    fn awaited_product_matches_blocking_wait() {
        let ring = ring();
        let door = FrontDoor::new(2).unwrap();
        let expected = door
            .executor()
            .submit(&ring, request(5))
            .unwrap()
            .wait()
            .unwrap();
        let future = door.submit(&ring, request(5)).unwrap();
        assert_eq!(block_on(future), Ok(expected.clone()));
        // The synchronous escape hatch consumes the same outcome.
        let handle = door.submit(&ring, request(5)).unwrap();
        assert_eq!(handle.wait(), Ok(expected));
        let stats = door.stats();
        assert!(stats.reconciles());
        assert_eq!(
            stats.submitted, 3,
            "one pool, one submit: every submit counts"
        );
    }

    #[test]
    fn validation_errors_surface_and_are_uncounted() {
        let ring = ring();
        let door = FrontDoor::new(1).unwrap();
        let uneven = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N].into(),
        );
        assert!(matches!(
            door.submit(&ring, uneven).unwrap_err(),
            Error::OperandLengthMismatch { .. }
        ));
        let stats = door.stats();
        assert_eq!(stats.submitted, 0);
        assert!(stats.reconciles());
    }

    #[test]
    fn depth_zero_class_sheds_everything_but_permits_never_materialize() {
        let ring = ring();
        let door = FrontDoor::builder(1).queue_depth(0).build().unwrap();
        let shed = door
            .submit(&ring, request(1).with_priority(Priority::Low))
            .unwrap();
        assert!(shed.is_finished(), "resolved at admission");
        // Nothing left to cancel: a no-op that keeps the outcome.
        shed.canceller().cancel();
        assert!(matches!(
            block_on(shed),
            Err(Error::Overloaded {
                class: Priority::Low,
                depth: 0
            })
        ));
        // The limit holds for every class.
        let normal = door.submit(&ring, request(2)).unwrap();
        assert!(matches!(
            block_on(normal),
            Err(Error::Overloaded {
                class: Priority::Normal,
                depth: 0
            })
        ));
        let stats = door.stats();
        assert!(stats.reconciles());
        assert_eq!(stats.shed_at_submit_for(Priority::Low), 1);
        assert_eq!(stats.shed_at_submit_total(), 2);
        assert_eq!(stats.admitted, 0);
    }

    /// A ring whose split panics: a misbehaving third-party impl.
    struct SplitBomb(Ring);

    impl PolyRing for SplitBomb {
        fn size(&self) -> usize {
            self.0.size()
        }
        fn modulus_bits(&self) -> u64 {
            PolyRing::modulus_bits(&self.0)
        }
        fn supports_negacyclic(&self) -> bool {
            self.0.supports_negacyclic()
        }
        fn channels(&self) -> usize {
            1
        }
        fn split_cow(&self, _: Cow<'_, Coefficients>) -> Result<Vec<Vec<u128>>, Error> {
            panic!("split bomb")
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
            self.0.channel_apply_at_into(op, width, channel, a, b, out)
        }
        fn join_at(&self, width: usize, parts: Vec<Vec<u128>>) -> Result<Coefficients, Error> {
            self.0.join_at(width, parts)
        }
    }

    /// A depth-1 class whose one worker is held: after a submit that
    /// fails validation, one whose deadline has already passed, and one
    /// whose split panics, the next valid submit is admitted, not shed.
    #[test]
    fn submit_validation_error_releases_the_slot() {
        // Built before the gate, so a failing assertion drops the gate's
        // sender (releasing the worker) before the pool joins it.
        let door = FrontDoor::builder(1).queue_depth(1).build().unwrap();
        let (gated, open) = crate::executor::tests::gated_ring();
        let ring = ring();
        let blocker = door.submit(&gated, request(1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while door.queue_depths() != [0; 3] {
            assert!(Instant::now() < deadline, "the worker never dequeued");
            std::thread::yield_now();
        }
        let uneven = RingRequest::polymul(
            PolyOp::Cyclic,
            vec![0_u128; N - 1].into(),
            vec![0_u128; N].into(),
        );
        assert!(door.submit(&ring, uneven).is_err());
        let expired = door
            .submit(&ring, request(2).with_deadline(Instant::now()))
            .unwrap();
        assert!(matches!(block_on(expired), Err(Error::DeadlineExceeded)));
        let bomb: Arc<dyn PolyRing> = Arc::new(SplitBomb(Ring::auto(primes::Q124, N).unwrap()));
        let split = catch_unwind(AssertUnwindSafe(|| door.submit(&bomb, request(4))));
        assert!(split.is_err(), "the split panicked in the submitter");
        let admitted = door.submit(&ring, request(3)).unwrap();
        assert!(
            !admitted.is_finished(),
            "queued behind the blocker, not shed"
        );
        open.send(()).unwrap();
        assert!(block_on(blocker).is_ok());
        assert!(block_on(admitted).is_ok());
        let stats = door.stats();
        assert!(stats.reconciles());
        assert_eq!((stats.submitted, stats.admitted), (3, 3));
        assert_eq!(stats.shed_at_submit_total(), 0);
        assert_eq!(stats.shed_at_deadline, 1);
    }
}
