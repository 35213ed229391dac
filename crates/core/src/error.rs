//! Runtime error types.

use std::fmt;

use nonctg_datatype::DatatypeError;

/// Errors raised by the message-passing runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields; the variants themselves are documented
pub enum CoreError {
    /// A datatype-level error (construction, packing, bounds).
    Datatype(DatatypeError),
    /// Destination or source rank outside the communicator.
    InvalidRank { rank: usize, size: usize },
    /// The incoming message is larger than the posted receive buffer
    /// (MPI_ERR_TRUNCATE).
    Truncate { incoming: usize, capacity: usize },
    /// Sender and receiver type signatures do not match.
    SignatureMismatch,
    /// `bsend` was called without enough attached buffer space.
    BsendBufferOverflow { needed: usize, available: usize },
    /// `buffer_detach` without an attached buffer, or double attach.
    BufferAttachState(&'static str),
    /// One-sided operation outside a fence epoch, or on a bad window.
    Rma(&'static str),
    /// RMA access outside the bounds of the target window.
    RmaOutOfRange { offset: usize, len: usize, window: usize },
    /// A blocking operation waited past the deadlock-detection timeout.
    /// `report` carries the watchdog's per-rank diagnostics (what each
    /// rank is blocked on, queued mailbox envelopes, last operation).
    Deadlock {
        /// What this rank was waiting for when the timeout expired.
        waiting_for: &'static str,
        /// Per-rank fabric diagnostics; empty until the fabric enriches
        /// the error on its way out.
        report: String,
    },
    /// A peer rank panicked or was crashed by the fault plan; the fabric
    /// is poisoned and no further progress with that peer is possible.
    PeerFailed {
        /// World rank of the first rank that failed.
        rank: usize,
    },
    /// This rank's closure panicked under [`crate::Universe::run_supervised`].
    RankPanicked {
        /// World rank that panicked.
        rank: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An injected send fault persisted past the bounded retry budget.
    SendFailed {
        /// Destination rank of the failed send.
        dst: usize,
        /// Number of attempts made before giving up.
        attempts: u32,
    },
}

impl CoreError {
    /// A deadlock error with no diagnostics yet (the fabric fills the
    /// report via `Fabric::enrich` as the error propagates out).
    pub(crate) fn deadlock(waiting_for: &'static str) -> CoreError {
        CoreError::Deadlock { waiting_for, report: String::new() }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Datatype(e) => write!(f, "datatype error: {e}"),
            CoreError::InvalidRank { rank, size } => {
                write!(f, "rank {rank} out of range for communicator of size {size}")
            }
            CoreError::Truncate { incoming, capacity } => {
                write!(f, "message truncated: {incoming} bytes incoming, buffer holds {capacity}")
            }
            CoreError::SignatureMismatch => write!(f, "send/recv type signatures do not match"),
            CoreError::BsendBufferOverflow { needed, available } => {
                write!(f, "bsend needs {needed} buffer bytes but only {available} are attached")
            }
            CoreError::BufferAttachState(msg) => write!(f, "buffer attach state: {msg}"),
            CoreError::Rma(msg) => write!(f, "one-sided error: {msg}"),
            CoreError::RmaOutOfRange { offset, len, window } => {
                write!(f, "RMA access {offset}..{} outside window of {window} bytes", offset + len)
            }
            CoreError::Deadlock { waiting_for, report } => {
                write!(f, "likely deadlock while waiting for {waiting_for}")?;
                if !report.is_empty() {
                    write!(f, "\n{report}")?;
                }
                Ok(())
            }
            CoreError::PeerFailed { rank } => {
                write!(f, "peer rank {rank} failed (panicked or crashed); fabric poisoned")
            }
            CoreError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            CoreError::SendFailed { dst, attempts } => {
                write!(f, "send to rank {dst} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Datatype(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatatypeError> for CoreError {
    fn from(e: DatatypeError) -> Self {
        CoreError::Datatype(e)
    }
}

/// Result alias for runtime operations.
pub type Result<T> = std::result::Result<T, CoreError>;
