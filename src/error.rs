//! The unified facade error type.
//!
//! Every fallible operation behind the [`Ring`](crate::Ring) /
//! [`Backend`](crate::Backend) front door returns [`Error`], which wraps
//! the layer-specific errors (`ModulusError` from `mqx_core`, `NttError`
//! from `mqx_ntt`) and adds the dispatch-layer failures (unknown backend
//! name, negacyclic operation on a ring without a 2n-th root).

use mqx_bignum::crt::CrtError;
use mqx_core::ModulusError;
use mqx_ntt::NttError;
use std::fmt;

/// Any error the facade API can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The modulus was rejected (too small, too wide, or not prime).
    Modulus(ModulusError),
    /// The NTT plan could not be built for the requested size.
    Ntt(NttError),
    /// No registered backend has the requested name. Carries the names
    /// that *are* available on this host, for actionable messages.
    UnknownBackend {
        /// The rejected name.
        name: String,
        /// Names the registry currently offers.
        available: Vec<&'static str>,
    },
    /// A negacyclic operation was requested on a ring whose field has no
    /// `2n`-th root of unity.
    NoNegacyclicSupport {
        /// The ring size.
        n: usize,
    },
    /// Input length does not match the ring size.
    LengthMismatch {
        /// The ring (and therefore expected input) size.
        expected: usize,
        /// The offending input length.
        got: usize,
    },
    /// An RNS basis was rejected (empty, a modulus below 2, or moduli
    /// sharing a factor).
    Crt(CrtError),
    /// The requested NTT prime chain could not be generated.
    BasisGeneration {
        /// Requested prime width in bits.
        bits: u32,
        /// Requested minimum 2-adicity of `q − 1`.
        two_adicity: u32,
        /// Requested number of channels.
        count: usize,
    },
    /// A per-channel argument list does not match the number of residue
    /// channels.
    ChannelCountMismatch {
        /// The basis channel count.
        expected: usize,
        /// The offending list length.
        got: usize,
    },
    /// A coefficient is at or above the ring's (product) modulus — a
    /// word residue `≥ q` or a big integer `≥ Q` — so reducing it would
    /// silently alias a different canonical value.
    CoefficientOutOfRange {
        /// Index of the offending coefficient.
        index: usize,
    },
    /// A [`Coefficients`](crate::Coefficients) value is not in the
    /// representation this ring consumes (word-sized residues for
    /// `Ring`, big integers for `RnsRing`).
    CoefficientKind {
        /// The representation the ring accepts.
        expected: &'static str,
        /// The representation that was passed.
        got: &'static str,
    },
    /// A [`RingExecutor`](crate::RingExecutor) was requested with zero
    /// worker threads.
    NoWorkers,
    /// An executor worker panicked while running one residue channel of
    /// a request; the request is completed with this error instead of
    /// deadlocking its handle.
    ChannelPanicked {
        /// The residue channel whose kernel panicked.
        channel: usize,
    },
    /// An executor worker panicked while joining a request's channel
    /// products (the [`PolyRing::join_at`](crate::PolyRing::join_at) step);
    /// the request is completed with this error instead of deadlocking
    /// its handle.
    JoinPanicked,
    /// A channel index passed to
    /// [`PolyRing::channel_apply_at_into`](crate::PolyRing::channel_apply_at_into)
    /// is out of range for the op's output channels.
    ChannelOutOfRange {
        /// The offending channel index.
        channel: usize,
        /// The number of output channels the op has at that width.
        channels: usize,
    },
    /// The requested [`RingOp`](crate::RingOp) is not supported by this
    /// ring (e.g. `Rescale` needs at least two RNS channels, and a
    /// single-modulus `Ring` has no channel structure to drop or
    /// extend).
    UnsupportedOp {
        /// The rejected operation's name.
        op: &'static str,
        /// Why the ring rejected it.
        reason: &'static str,
    },
    /// The number of operands does not match the operation's arity
    /// (binary ops such as `Add` need two operands, unary ops such as
    /// `Rescale` exactly one).
    OperandCountMismatch {
        /// The operation's name.
        op: &'static str,
        /// The arity the operation requires.
        expected: usize,
        /// The number of operands that were passed.
        got: usize,
    },
    /// The two operands of a binary operation have different lengths;
    /// rejected at submit instead of panicking inside a worker.
    OperandLengthMismatch {
        /// Length of the first operand.
        a: usize,
        /// Length of the second operand.
        b: usize,
    },
    /// The request was cancelled via
    /// [`RequestHandle::cancel`](crate::RequestHandle::cancel) before it
    /// finished executing; its remaining channels were skipped.
    Cancelled,
    /// The request's deadline passed before it finished executing (it
    /// was shed at submit or at dequeue instead of burning worker
    /// time).
    DeadlineExceeded,
    /// An [`OpGraph`](crate::OpGraph) failed structural validation at
    /// build (a dangling operand reference, an unused intermediate node,
    /// operands whose channel bases cannot match, an empty graph, …).
    InvalidGraph {
        /// Index of the offending node.
        node: usize,
        /// What the node violates.
        reason: &'static str,
    },
    /// The request was shed at admission: its priority class's bounded
    /// queue in the [`RingExecutor`](crate::RingExecutor) was already
    /// at its configured depth, so the request was refused immediately
    /// — zero channels executed, zero caller blocking — instead of
    /// growing the queue without bound. The caller retries later (or
    /// submits in a class with room).
    Overloaded {
        /// The priority class whose queue was full.
        class: crate::executor::Priority,
        /// That class's configured depth limit.
        depth: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Modulus(e) => write!(f, "{e}"),
            Error::Ntt(e) => write!(f, "{e}"),
            Error::UnknownBackend { name, available } => {
                write!(
                    f,
                    "no backend named {name:?} on this host (available: {})",
                    available.join(", ")
                )
            }
            Error::NoNegacyclicSupport { n } => write!(
                f,
                "ring of size {n} has no 2n-th root of unity; negacyclic operations unavailable"
            ),
            Error::LengthMismatch { expected, got } => {
                write!(f, "input length {got} does not match ring size {expected}")
            }
            Error::Crt(e) => write!(f, "{e}"),
            Error::BasisGeneration {
                bits,
                two_adicity,
                count,
            } => write!(
                f,
                "cannot generate {count} distinct {bits}-bit NTT primes with 2-adicity {two_adicity}"
            ),
            Error::ChannelCountMismatch { expected, got } => write!(
                f,
                "per-channel list has {got} entries but the basis has {expected} channels"
            ),
            Error::CoefficientOutOfRange { index } => write!(
                f,
                "coefficient {index} is not reduced below the ring's modulus"
            ),
            Error::CoefficientKind { expected, got } => write!(
                f,
                "ring consumes {expected} coefficients but was given {got} coefficients"
            ),
            Error::NoWorkers => write!(f, "a ring executor needs at least one worker thread"),
            Error::ChannelPanicked { channel } => write!(
                f,
                "executor worker panicked while running residue channel {channel}"
            ),
            Error::JoinPanicked => write!(
                f,
                "executor worker panicked while joining a request's channel products"
            ),
            Error::ChannelOutOfRange { channel, channels } => write!(
                f,
                "channel index {channel} is out of range for a ring with {channels} channels"
            ),
            Error::UnsupportedOp { op, reason } => {
                write!(f, "ring does not support the {op} operation: {reason}")
            }
            Error::OperandCountMismatch { op, expected, got } => write!(
                f,
                "the {op} operation takes {expected} operand(s) but was given {got}"
            ),
            Error::OperandLengthMismatch { a, b } => write!(
                f,
                "binary operation operands have mismatched lengths ({a} vs {b})"
            ),
            Error::Cancelled => write!(f, "request was cancelled before it finished executing"),
            Error::DeadlineExceeded => write!(
                f,
                "request deadline passed before it finished executing; it was shed"
            ),
            Error::InvalidGraph { node, reason } => {
                write!(f, "op graph node {node} is invalid: {reason}")
            }
            Error::Overloaded { class, depth } => write!(
                f,
                "request shed at admission: the {class} class queue is at its depth limit \
                 ({depth}); retry later"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Modulus(e) => Some(e),
            Error::Ntt(e) => Some(e),
            Error::Crt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CrtError> for Error {
    fn from(e: CrtError) -> Self {
        Error::Crt(e)
    }
}

impl From<ModulusError> for Error {
    fn from(e: ModulusError) -> Self {
        Error::Modulus(e)
    }
}

impl From<NttError> for Error {
    fn from(e: NttError) -> Self {
        Error::Ntt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_layer_errors_with_sources() {
        let e = Error::from(ModulusError::TooSmall);
        assert!(e.source().is_some());
        assert_eq!(e.to_string(), ModulusError::TooSmall.to_string());

        let e = Error::from(NttError::SizeTooSmall);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("at least 2"));
    }

    #[test]
    fn dispatch_errors_are_actionable() {
        let e = Error::UnknownBackend {
            name: "gpu".into(),
            available: vec!["portable", "avx512"],
        };
        let msg = e.to_string();
        assert!(msg.contains("gpu") && msg.contains("portable"), "{msg}");
        assert!(e.source().is_none());

        let e = Error::LengthMismatch {
            expected: 1024,
            got: 7,
        };
        assert!(e.to_string().contains("1024"));
    }

    #[test]
    fn rns_errors_are_actionable() {
        let e = Error::from(CrtError::NotCoprime { i: 0, j: 2 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("not coprime"), "{e}");

        let e = Error::BasisGeneration {
            bits: 62,
            two_adicity: 20,
            count: 99,
        };
        let msg = e.to_string();
        assert!(msg.contains("99") && msg.contains("62"), "{msg}");

        let e = Error::ChannelCountMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3 channels"), "{e}");

        // One variant for both ring kinds: the message names the ring's
        // modulus, not the RNS product a word ring does not have.
        let msg = Error::CoefficientOutOfRange { index: 17 }.to_string();
        assert!(
            msg.contains("17") && msg.contains("ring's modulus"),
            "{msg}"
        );
        assert!(!msg.contains("RNS"), "{msg}");
    }

    #[test]
    fn executor_errors_are_actionable() {
        let e = Error::CoefficientKind {
            expected: "word",
            got: "big",
        };
        let msg = e.to_string();
        assert!(msg.contains("word") && msg.contains("big"), "{msg}");
        assert!(e.source().is_none());

        assert!(Error::NoWorkers.to_string().contains("at least one"));

        let e = Error::ChannelPanicked { channel: 2 };
        assert!(e.to_string().contains("channel 2"), "{e}");

        assert!(Error::JoinPanicked.to_string().contains("joining"));

        let e = Error::ChannelOutOfRange {
            channel: 3,
            channels: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('2'), "{msg}");
    }

    #[test]
    fn op_errors_are_actionable() {
        let e = Error::UnsupportedOp {
            op: "rescale",
            reason: "needs at least two RNS channels",
        };
        let msg = e.to_string();
        assert!(msg.contains("rescale") && msg.contains("two RNS"), "{msg}");
        assert!(e.source().is_none());

        let e = Error::OperandCountMismatch {
            op: "add",
            expected: 2,
            got: 1,
        };
        let msg = e.to_string();
        assert!(msg.contains("add") && msg.contains("2 operand"), "{msg}");

        let e = Error::OperandLengthMismatch { a: 1024, b: 512 };
        let msg = e.to_string();
        assert!(msg.contains("1024") && msg.contains("512"), "{msg}");
    }

    #[test]
    fn graph_errors_are_actionable() {
        let e = Error::InvalidGraph {
            node: 4,
            reason: "operand references a later node",
        };
        let msg = e.to_string();
        assert!(
            msg.contains("node 4") && msg.contains("later node"),
            "{msg}"
        );
        assert!(e.source().is_none());
    }

    #[test]
    fn qos_errors_are_actionable() {
        let e = Error::Cancelled;
        assert!(e.to_string().contains("cancelled"), "{e}");
        assert!(e.source().is_none());

        let e = Error::DeadlineExceeded;
        let msg = e.to_string();
        assert!(msg.contains("deadline") && msg.contains("shed"), "{msg}");
        assert!(e.source().is_none());

        let e = Error::Overloaded {
            class: crate::executor::Priority::Low,
            depth: 2,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("low") && msg.contains('2') && msg.contains("retry later"),
            "{msg}"
        );
        assert!(e.source().is_none());
    }
}
