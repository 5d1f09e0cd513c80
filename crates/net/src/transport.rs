//! The seam between the cluster runtimes and the socket substrate.
//!
//! [`Transport`] captures exactly what the runtimes consume from a network
//! endpoint — identity, fire-and-forget `send`, encode-once `broadcast`,
//! timed `recv`, byte accounting — without exposing sockets, so a wrapper
//! (fault injection, TLS) or another substrate can stand in for a
//! [`ReactorEndpoint`](crate::reactor::ReactorEndpoint) without touching the
//! protocol cores or the cluster runtimes. [`TransportStats`] is the
//! mesh-wide counter block every implementation reports into.
//!
//! # Trust model
//!
//! A connection's 16-byte preamble *asserts* the dialer's identity; nothing
//! authenticates it. That matches the paper's network assumptions — the
//! protocol defends against Byzantine *replicas* with signatures on every
//! message whose sender matters, but assumes point-to-point links are
//! authenticated by the environment (in a real deployment: TLS/mTLS between
//! machines). The one message class that leans on transport identity is the
//! Lion mode's *unsigned* `ACCEPT` (an optimization the paper allows because
//! the trusted primary is the only consumer): on a loopback transport, any
//! local process that can reach the primary's listener could forge it.
//! Loopback test clusters are the intended deployment here; an authenticated
//! handshake belongs to the same future substrate as TLS.

use seemore_types::NodeId;
use seemore_wire::Message;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

/// First delay of the exponential backoff between failed dials.
pub const INITIAL_BACKOFF: Duration = Duration::from_millis(1);

/// Ceiling of the redial backoff.
pub const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// What the cluster runtimes need from a network substrate.
///
/// No socket types leak through, sends are fire-and-forget (the transport
/// owns queueing and reconnection), and receives are pull-based with a
/// timeout so caller threads keep servicing their timers.
pub trait Transport: Send {
    /// The node this endpoint speaks as.
    fn local(&self) -> NodeId;

    /// Hands `message` over for delivery to `to`. Returns without waiting
    /// for the peer; delivery is asynchronous, FIFO per connection, and
    /// best-effort ordered across reconnects (receivers must tolerate
    /// reordering, as protocol cores do).
    fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError>;

    /// Queues `message` for delivery to every peer in `to`, encoding it
    /// **once**: the same shared frame is placed on every destination's
    /// outbox, so the fan-out cost of a proposal or vote broadcast is one
    /// serialization plus `n` reference-count bumps instead of `n`
    /// serializations.
    ///
    /// Delivery is attempted to every listed peer even if an earlier one
    /// fails; the first error (if any) is returned afterwards. The default
    /// implementation falls back to per-peer [`send`](Self::send) for
    /// transports without a shared-frame fast path.
    fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        let mut first_error = None;
        for &peer in to {
            if let Err(error) = self.send(peer, message) {
                first_error.get_or_insert(error);
            }
        }
        match first_error {
            None => Ok(()),
            Some(error) => Err(error),
        }
    }

    /// Waits up to `timeout` for the next message addressed to this node,
    /// returning it together with the sender's identity.
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Message), RecvTimeoutError>;

    /// Live byte/message counters for this endpoint's mesh.
    fn stats(&self) -> Arc<TransportStats>;
}

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination is not part of the mesh's address book.
    UnknownPeer(NodeId),
    /// The transport has been shut down.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(node) => write!(f, "unknown peer {node}"),
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Bytes and messages that crossed the wire, aggregated mesh-wide, plus the
/// hot-path savings counters (frames gathered per write, encodes shared).
///
/// Sent counters advance when a frame is written to a socket;
/// [`bytes_read`](Self::bytes_read) advances on raw reads, and the received
/// counters advance on successful decodes. Identity preambles count toward
/// [`bytes_sent`](Self::bytes_sent)/[`bytes_read`](Self::bytes_read) — they
/// are on the wire too.
///
/// # Memory ordering
///
/// Every counter is a *monotonic event count* updated and read with
/// [`Ordering::Relaxed`], deliberately: no control flow ever branches on a
/// counter, no counter update is meant to publish other memory (a decoded
/// frame reaches the thread that receives it under its inbox's lock, which
/// provides its own happens-before edge), and the only consumers are
/// end-of-run reports and test assertions that read after the relevant
/// threads have been joined or the traffic has quiesced. `SeqCst` would buy nothing here except
/// a full fence on every byte counted on the hot path. A point-in-time read
/// across counters may be mutually inconsistent (e.g. `messages_sent` can
/// momentarily lag `bytes_sent` mid-write); consumers that compare counters
/// must tolerate that, exactly as they must for any concurrent statistics.
#[derive(Debug, Default)]
pub struct TransportStats {
    pub(crate) messages_sent: AtomicU64,
    pub(crate) messages_received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
    pub(crate) write_syscalls: AtomicU64,
    pub(crate) direct_writes: AtomicU64,
    pub(crate) vectored_writes: AtomicU64,
    pub(crate) partial_writes: AtomicU64,
    pub(crate) frames_coalesced: AtomicU64,
    pub(crate) encodes_saved: AtomicU64,
    pub(crate) reconnects: AtomicU64,
}

impl TransportStats {
    /// Messages successfully written to a socket.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Messages successfully decoded from a socket.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Bytes written to sockets (frames plus preambles).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of successfully decoded frames — the payload traffic, net of
    /// preambles and partially received frames. By the
    /// codec's size contract this equals the sum of `wire_size()` over every
    /// message counted in [`messages_received`](Self::messages_received).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Raw bytes pulled off `read(2)` (preambles included — they are on
    /// the wire too). `bytes_read - bytes_received`
    /// is the framing overhead plus whatever is still sitting undecoded in
    /// reassembly buffers.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// `write(2)`/`writev(2)` calls issued (preambles included).
    pub fn write_syscalls(&self) -> u64 {
        self.write_syscalls.load(Ordering::Relaxed)
    }

    /// Frames written to the socket by the *sending* thread's flush (a
    /// replica loop's end-of-turn flush, or a deliver-now send): no
    /// event-loop handoff, no context switch. On the Lion happy path nearly
    /// every frame should land here; the rest were drained by an event loop
    /// after a dial or on `EPOLLOUT`, so a low ratio means sends keep
    /// finding the connection down or congested.
    pub fn direct_writes(&self) -> u64 {
        self.direct_writes.load(Ordering::Relaxed)
    }

    /// Writes that offered more than one slice (`writev(2)` via
    /// `write_vectored`): a flush carrying the several frames one replica
    /// loop turn queued for a peer, or a backlog drained by an event loop.
    /// Each delivers its frames straight from their shared buffers, without
    /// a copy. A turn that queues one frame per peer makes none.
    pub fn vectored_writes(&self) -> u64 {
        self.vectored_writes.load(Ordering::Relaxed)
    }

    /// Writes that accepted only part of the offered bytes (kernel send
    /// buffer full). Each one leaves a partially written frame at the head
    /// of an outbox; sustained growth means a peer is not keeping up and
    /// backpressure is doing its job.
    pub fn partial_writes(&self) -> u64 {
        self.partial_writes.load(Ordering::Relaxed)
    }

    /// Frames completed by a write that had already completed another frame
    /// — each one is a syscall the gather write saved. On the protocol path
    /// these are the frames a replica loop turn queued for a peer beyond the
    /// first. Every frame is completed by exactly one write, so
    /// `messages_sent - frames_coalesced` is the number of writes that
    /// completed at least one frame.
    pub fn frames_coalesced(&self) -> u64 {
        self.frames_coalesced.load(Ordering::Relaxed)
    }

    /// Per-destination serializations avoided by encode-once broadcasts
    /// (`peers - 1` per broadcast) — each one is a full message encode plus
    /// its allocation that a per-peer `send` loop would have paid.
    pub fn encodes_saved(&self) -> u64 {
        self.encodes_saved.load(Ordering::Relaxed)
    }

    /// Outbound connections established (initial dials included). A mesh
    /// that never loses a connection shows exactly one per outbound peer;
    /// every additional count is a rebuild after a dead connection — the
    /// per-peer flakiness signal the replica-health rollup surfaces.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}
