//! Network substrate for the SeeMoRe reproduction.
//!
//! The paper evaluates SeeMoRe on Amazon EC2 with both clouds in the same
//! region; this crate supplies the models that let the discrete-event
//! simulator (in `seemore-runtime`) reproduce the same experiments on a
//! laptop:
//!
//! * [`Placement`] — which cloud (private, public, or client side) each
//!   endpoint lives in.
//! * [`LatencyModel`] — one-way link latency as a function of the two
//!   endpoints' placements and the message size, with optional jitter.
//! * [`CpuModel`] — per-message processing cost (serialization plus
//!   signature generation/verification), which is what saturates a replica
//!   and bends the throughput/latency curves of Figures 2 and 3.
//! * [`LinkFaults`] — message drop/duplication probabilities and explicit
//!   partitions for fault-injection experiments.
//!
//! Alongside the simulator models, one *real* transport serves actual
//! sockets behind the narrow [`Transport`] trait — the seam between the
//! cluster runtimes and the network substrate, kept deliberately narrow so
//! a wrapper (fault injection, TLS) or another substrate can slot in without
//! touching the protocol cores:
//!
//! * [`reactor`] — an event-loop mesh ([`ReactorMesh`]) over nonblocking
//!   sockets and an `epoll` shim ([`poll`]): each node's own thread reads
//!   its inbound connections through its endpoint's [`Inbox`], a small fixed
//!   pool of reactor threads accepts, dials and drains congested outboxes,
//!   and senders write per-turn gather (`writev`) writes themselves.
//! * [`transport`] — the [`Transport`] trait itself, [`TransportError`] and
//!   the [`TransportStats`] counters the mesh reports into.
//!
//! # Which transport when
//!
//! * **[`ReactorMesh`]** — whenever bytes must cross real sockets. Thread
//!   count is fixed (a few event loops per mesh, plus the threads that own
//!   the endpoints) regardless of peer or client count, so one node sustains
//!   thousands of concurrent client connections. Delivery is FIFO per connection, at-least-once across
//!   reconnects (lazy dialing, exponential backoff, frames queued while a
//!   peer is down survive until it returns), and broadcasts encode once.
//!   Every node, client or replica, owns an endpoint: a listener plus one
//!   dialed connection per peer it sends to. The `socket_e2e` suite drives
//!   the mesh to the histories the deterministic `SyncCluster` test
//!   harness produces.
//! * **The simulator** (`seemore-runtime`) — no sockets at all; see that
//!   crate's docs for when the discrete-event simulator is the right
//!   tool.
//!
//! # Hot path
//!
//! The transport pays its dominant costs once instead of
//! per-message/per-peer, and a frame crosses no thread it does not have to:
//! [`Transport::broadcast`] serializes a message a single time and shares
//! the encoded frame across every destination (encode-once); a replica loop
//! queues every frame of one turn and then flushes, so each peer gets one
//! write per turn from the *sending* thread, a `writev` gather write
//! straight from the queued frames' shared buffers when the turn produced
//! several ([`ReactorHandle::flush`]); backlogs left by a dial or a full
//! socket drain the same way on the event loop; the *receiving* thread
//! waits on its own [`Inbox`], reads its ready sockets and decodes their
//! frames itself, with no reactor hop or channel in between, and stops
//! reading at a fixed read-ahead so a fast sender meets TCP backpressure
//! instead of growing the receiver's memory; and receive buffers are reused
//! across frames with hysteresis-bounded capacity. See the [`reactor`]
//! module docs for the design and [`TransportStats`] for the counters
//! quantifying each saving.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cpu;
pub mod faults;
pub mod latency;
pub mod placement;
pub mod poll;
pub mod reactor;
pub mod transport;

pub use cpu::CpuModel;
pub use faults::{LinkDecision, LinkFaults};
pub use latency::LatencyModel;
pub use placement::{Placement, Zone};
pub use reactor::{Inbox, InboxWaker, ReactorEndpoint, ReactorHandle, ReactorMesh};
pub use transport::{Transport, TransportError, TransportStats};
