//! An event-loop (reactor) TCP transport: thousands of connections per
//! node on a fixed handful of threads.
//!
//! This is the substrate under `seemore-runtime`'s `SocketCluster`: every
//! node (replica or client) owns a [`ReactorEndpoint`] with a loopback
//! listener, and a [`ReactorMesh`] wires a full set of endpoints together so
//! that any node can reach any other by [`NodeId`]. Messages serialize
//! through the real codec (`seemore_wire::codec`), so the bytes counted by
//! [`TransportStats`] are the bytes that actually crossed a TCP connection.
//! Each node's own thread reads its inbound connections through its
//! endpoint's [`Inbox`]; a small fixed pool of **event-loop threads** does
//! the rest (accepting, dialing, draining congested outboxes) through
//! nonblocking I/O and an `epoll` shim ([`crate::poll`]). The
//! protocol-facing surface is the narrow [`Transport`] trait.
//!
//! # Topology and threads
//!
//! Who reads and writes what:
//!
//! * **The owner reads.** Every endpoint has an [`Inbox`]: a poller of its
//!   own, the inbound connections it adopted, and the frames decoded but not
//!   yet handed out. The thread that receives from the endpoint (a replica
//!   thread, a client thread) waits on that poller, reads the ready sockets
//!   and decodes their frames itself, so a delivered message crosses no
//!   thread and no channel between the socket and the protocol core.
//! * **The sender writes.** A queued frame leaves from the sending thread's
//!   flush (see *Hot path*).
//! * **The pool does the rest, and reads no socket.** Every listener is
//!   registered with one of the pool's pollers. A listener accepts and hands
//!   each new connection to its node's inbox, which registers it with the
//!   inbox's poller. Outbound connections are dialed and, when congested,
//!   drained by a pool loop; the only read a pool thread makes is the probe
//!   that notices an outbound connection's EOF. Pool thread count is
//!   **constant in the number of connections**; an endpoint adds one poller,
//!   not a thread.
//! * Connections are unidirectional and lazily dialed: the first send to a
//!   peer queues a dial on the peer's event loop, which connects, writes a
//!   16-byte identity preamble and drains whatever queued up meanwhile.
//!   Failed dials back off exponentially from [`INITIAL_BACKOFF`] to
//!   [`MAX_BACKOFF`] using deadlines folded into the loop's `epoll_wait`
//!   timeout (no sleeping thread per peer). Dialing itself is a bounded
//!   blocking `connect` from the loop thread — on the loopback deployments
//!   this transport targets, connects complete (or refuse) immediately.
//! * The preamble is the codec's 4-byte magic, its version byte, a tag byte
//!   (0 replica, 1 client), two reserved bytes that must be zero, and the
//!   dialer's id as 8 little-endian bytes. After it come whole codec frames
//!   and nothing else. The reader learns the peer's identity from the
//!   preamble, then reassembles frames in a per-connection [`StreamBuf`] and
//!   decodes each one, tagged with its sender. A malformed preamble or a
//!   poisoned frame stream drops that connection — never the process.
//!
//! # Hot path
//!
//! * **Encode-once broadcast** — [`ReactorHandle::broadcast`] serializes a
//!   message a single time into a shared [`Frame`] (`Arc<[u8]>`, built
//!   through a thread-local scratch buffer) and enqueues the same bytes on
//!   every destination's outbox; the per-peer cost is a reference-count
//!   bump. [`TransportStats::encodes_saved`] counts the serializations
//!   avoided.
//! * **One gather write per peer per turn** — [`ReactorHandle::queue`] and
//!   [`ReactorHandle::queue_broadcast`] append frames to each peer's outbox
//!   without writing and remember which connections got frames; one
//!   [`ReactorHandle::flush`] then drains each of those connections once,
//!   from the *sending* thread under the outbox lock, with no event-loop
//!   handoff. Several frames leave in one `writev`
//!   ([`Write::write_vectored`]) straight from the queued frames' `Arc`
//!   buffers (no coalescing copy), a single frame in a plain write. The
//!   replica loop flushes once per turn, so a primary's Commit for one slot
//!   and Prepare for the next reach a backup in one syscall
//!   ([`TransportStats::direct_writes`], [`TransportStats::vectored_writes`],
//!   [`TransportStats::frames_coalesced`]). A flush writes its connections
//!   in a fixed order, replicas by id and then clients. The deliver-now
//!   calls ([`ReactorHandle::send`], [`ReactorHandle::broadcast`],
//!   [`ReactorHandle::send_frame`]) are queue plus flush.
//! * **Backlog drains on the loop** — frames queued while a dial is in
//!   progress or the kernel send buffer is full wait for the event loop,
//!   which drains them the same way on connect or on `EPOLLOUT`; a flush
//!   skips such a connection. A partially accepted write
//!   ([`TransportStats::partial_writes`]) leaves the remainder at the head
//!   of the queue and arms `EPOLLOUT`; the loop resumes the drain when the
//!   socket opens up — that is backpressure, not an error.
//! * **Receive on the owner's thread** — [`Inbox::recv_timeout`] (and the
//!   replica loop's wait) blocks in the inbox's own `epoll_wait`, then reads
//!   every ready connection and decodes its frames on the calling thread:
//!   one wake-up per burst, no reactor hop, no channel, no futex hand-off.
//!   The order across connections stays close to the order of arrival:
//!   connections are registered edge-triggered, so a wait lists them by
//!   the arrival of their oldest unread bytes, and frames read together are
//!   decoded one per connection per round in that order. (A Peacock passive
//!   replica that handles a slot's checkpoint before its proposal loses the
//!   slot; draining connections one after another made that common.)
//!   Each inbox owns one small read chunk and each connection one
//!   reassembly buffer, reused across frames and capacity-bounded, so
//!   steady-state receive performs no allocations beyond the decoded
//!   messages themselves.
//! * **Bounded read-ahead** — an owner reads a connection only while fewer
//!   than [`INBOX_READ_AHEAD`] decoded frames wait in its inbox. Past that,
//!   bytes stay in the kernel, TCP pushes back, and a fast sender shows up
//!   as [`TransportStats::partial_writes`] and an `EPOLLOUT` drain instead
//!   of as memory growth at the receiver.
//!
//! # Delivery semantics
//!
//! FIFO per connection, and frames queued while a peer is down survive
//! until it returns. Across a reconnect delivery is at-least-once: a frame
//! the kernel had partially delivered when a connection died is
//! retransmitted whole, and frames still buffered on the old connection may
//! interleave with the new connection's at the receiver — the protocol cores
//! tolerate duplication and reordering by design, exactly as they must on a
//! real network. The preamble *asserts* identity; authentication is the
//! environment's job (see the [`transport`](crate::transport) module docs
//! for the trust model).

use crate::poll::{Event, Interest, Poller};
use crate::transport::{Transport, TransportError, TransportStats, INITIAL_BACKOFF, MAX_BACKOFF};
use seemore_types::{ClientId, NodeId, ReplicaId};
use seemore_wire::codec::{frame_len, Frame, StreamBuf, CODEC_VERSION, MAGIC};
use seemore_wire::Message;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Length of the per-connection identity preamble: magic, codec version, a
/// replica/client tag, two reserved zero bytes, and the 8-byte id.
const PREAMBLE_LEN: usize = 16;

/// Preamble tag byte: the dialer is a replica.
const TAG_REPLICA: u8 = 0;
/// Preamble tag byte: the dialer is a client.
const TAG_CLIENT: u8 = 1;

/// Bound on the blocking `connect` a loop performs (loopback connects
/// complete or refuse in microseconds; this is a safety net).
const CONNECT_TIMEOUT: Duration = Duration::from_millis(100);

/// Backstop tick for the event loops: the longest a loop sleeps before
/// rechecking shutdown and redial deadlines even with no traffic.
const TICK: Duration = Duration::from_millis(100);

/// Size of each inbox's read scratch: small, because every endpoint has one.
const INBOX_READ_CHUNK: usize = 8 * 1024;

/// Decoded frames an [`Inbox`] holds before its owner stops reading its
/// connections. Past this, bytes stay in the kernel and TCP pushes back on
/// the sender.
pub const INBOX_READ_AHEAD: usize = 128;

/// Bounded work per readiness event: reads per connection…
const MAX_READS_PER_EVENT: usize = 8;
/// …accepted connections per listener event…
const MAX_ACCEPTS_PER_EVENT: usize = 64;
/// …and gather-write slices per `writev`.
const MAX_SLICES: usize = 64;

/// Ceiling on bytes offered to one gather write.
const MAX_BURST: usize = 256 * 1024;

thread_local! {
    /// Per-thread scratch for encoding outgoing messages: `send` and
    /// `broadcast` build each [`Frame`] through this buffer, so a replica
    /// thread's steady-state encode cost is one `Arc` allocation per
    /// *message* (not per destination, and with no intermediate `Vec`).
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

fn encode_preamble(node: NodeId) -> [u8; PREAMBLE_LEN] {
    let (tag, id) = match node {
        NodeId::Replica(ReplicaId(r)) => (TAG_REPLICA, u64::from(r)),
        NodeId::Client(ClientId(c)) => (TAG_CLIENT, c),
    };
    let mut out = [0u8; PREAMBLE_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = CODEC_VERSION;
    out[5] = tag;
    out[8..16].copy_from_slice(&id.to_le_bytes());
    out
}

/// The dialer a preamble announces, or `None` for a malformed one: wrong
/// magic or version, an unknown tag, or a nonzero reserved byte.
fn decode_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Option<NodeId> {
    if bytes[..4] != MAGIC || bytes[4] != CODEC_VERSION || bytes[6..8] != [0, 0] {
        return None;
    }
    let id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    match bytes[5] {
        TAG_REPLICA => Some(NodeId::Replica(ReplicaId(u32::try_from(id).ok()?))),
        TAG_CLIENT => Some(NodeId::Client(ClientId(id))),
        _ => None,
    }
}

/// The identity preamble a raw client connection must write after
/// connecting — exposed for transport-level tests that hold many
/// connections open without building endpoints.
pub fn client_preamble(client: ClientId) -> [u8; PREAMBLE_LEN] {
    encode_preamble(NodeId::Client(client))
}

/// The mutable half of an outbound connection, shared between sender
/// threads (queue and flush) and the owning event loop (dial,
/// redial, `EPOLLOUT` drains). All socket writes happen under this lock, so
/// frames of concurrent senders never interleave mid-frame and FIFO holds.
#[derive(Debug, Default)]
struct OutState {
    /// The established connection (nonblocking), if any.
    stream: Option<TcpStream>,
    /// Frames awaiting the socket, oldest first.
    queue: VecDeque<Frame>,
    /// Bytes of `queue[0]` already accepted by the socket — nonzero exactly
    /// while a partial write is outstanding.
    head_written: usize,
    /// Whether `EPOLLOUT` is armed for this connection.
    interest_out: bool,
    /// Whether a dial (or scheduled redial) is in flight on the loop.
    connecting: bool,
    /// Poller token of the current registration.
    token: u64,
    /// Next redial delay.
    backoff: Duration,
}

/// One outbound connection from one node to one peer.
#[derive(Debug)]
struct Outbound {
    /// The node that dials: what the preamble announces.
    local: NodeId,
    /// The node it reaches: its place in a flush.
    peer: NodeId,
    addr: SocketAddr,
    /// The event loop that owns dialing and drain-on-writable.
    event_loop: Arc<LoopHandle>,
    state: Mutex<OutState>,
}

enum DrainOutcome {
    /// Queue empty; `EPOLLOUT` can be disarmed.
    Drained,
    /// Socket full; remainder stays queued, `EPOLLOUT` must be armed.
    Blocked,
    /// Connection dead; caller tears down and redials.
    Failed,
}

/// Writes as much of the queue as the socket accepts, gathering up to
/// [`MAX_SLICES`] frames per `writev`. Must be called with the state lock
/// held and `state.stream` present. `direct` marks writes issued from the
/// sending thread's flush (for [`TransportStats::direct_writes`]).
fn drain_locked(state: &mut OutState, stats: &TransportStats, direct: bool) -> DrainOutcome {
    loop {
        if state.queue.is_empty() {
            return DrainOutcome::Drained;
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(state.queue.len().min(MAX_SLICES));
        let mut offered = 0usize;
        // Only the head frame can be partly written.
        let mut skip = state.head_written;
        for frame in state.queue.iter() {
            if slices.len() == MAX_SLICES || offered >= MAX_BURST {
                break;
            }
            let rest = &frame.bytes()[skip..];
            slices.push(IoSlice::new(rest));
            offered += rest.len();
            skip = 0;
        }
        let slice_count = slices.len();
        let result = {
            let mut stream: &TcpStream = state.stream.as_ref().expect("stream present");
            stream.write_vectored(&slices)
        };
        drop(slices);
        match result {
            Ok(0) => return DrainOutcome::Failed,
            Ok(n) => {
                stats.bytes_sent.fetch_add(n as u64, Ordering::Relaxed);
                stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                if slice_count > 1 {
                    stats.vectored_writes.fetch_add(1, Ordering::Relaxed);
                }
                let partial = n < offered;
                if partial {
                    stats.partial_writes.fetch_add(1, Ordering::Relaxed);
                }
                let mut written = state.head_written + n;
                let mut completed = 0u64;
                while let Some(frame) = state.queue.front() {
                    if written < frame.len() {
                        break;
                    }
                    written -= frame.len();
                    state.queue.pop_front();
                    completed += 1;
                }
                state.head_written = written;
                stats.messages_sent.fetch_add(completed, Ordering::Relaxed);
                stats
                    .frames_coalesced
                    .fetch_add(completed.saturating_sub(1), Ordering::Relaxed);
                if direct {
                    stats.direct_writes.fetch_add(completed, Ordering::Relaxed);
                }
                if partial {
                    return DrainOutcome::Blocked;
                }
                // Full burst accepted; keep going if frames remain.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return DrainOutcome::Blocked,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return DrainOutcome::Failed,
        }
    }
}

/// Commands other threads hand to an event loop (senders queue a dial, the
/// mesh registers and stops listeners).
enum Command {
    AddListener {
        inbox: Arc<InboxShared>,
        listener: TcpListener,
    },
    Dial(Arc<Outbound>),
    StopNode(NodeId),
}

/// The shareable face of one event loop: its poller (thread-safe to arm
/// interest on and to wake) plus the command queue.
#[derive(Debug)]
struct LoopHandle {
    poller: Poller,
    commands: Mutex<Vec<Command>>,
}

impl std::fmt::Debug for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Command::AddListener { inbox, .. } => write!(f, "AddListener({})", inbox.node),
            Command::Dial(out) => write!(f, "Dial({:?})", out.addr),
            Command::StopNode(node) => write!(f, "StopNode({node})"),
        }
    }
}

impl LoopHandle {
    fn push(&self, command: Command) {
        self.commands.lock().expect("command lock").push(command);
        self.poller.wake();
    }

    fn take(&self) -> Vec<Command> {
        std::mem::take(&mut *self.commands.lock().expect("command lock"))
    }
}

/// State shared by every handle, endpoint and loop of one mesh.
#[derive(Debug)]
struct ReactorShared {
    addresses: HashMap<NodeId, SocketAddr>,
    stats: Arc<TransportStats>,
    shutdown: AtomicBool,
    loops: Vec<Arc<LoopHandle>>,
    next_loop: AtomicUsize,
    next_token: AtomicU64,
    /// Currently open inbound connections, mesh-wide.
    inbound_live: AtomicU64,
    /// Inbound connections ever accepted, mesh-wide.
    accepted_total: AtomicU64,
}

impl ReactorShared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn next_token(&self) -> u64 {
        self.next_token.fetch_add(1, Ordering::Relaxed)
    }

    fn pick_loop(&self) -> Arc<LoopHandle> {
        let i = self.next_loop.fetch_add(1, Ordering::Relaxed) % self.loops.len();
        Arc::clone(&self.loops[i])
    }
}

/// A full mesh of reactor-driven endpoints on loopback.
///
/// Every address is bound up front (so all of them are known before any
/// traffic flows), endpoints are handed out once via
/// [`take_endpoint`](Self::take_endpoint), and dropping the mesh (or calling
/// [`shutdown`](Self::shutdown)) stops the event-loop pool.
#[derive(Debug)]
pub struct ReactorMesh {
    shared: Arc<ReactorShared>,
    endpoints: Mutex<HashMap<NodeId, ReactorEndpoint>>,
    /// The event-loop threads, joined by [`shutdown`](Self::shutdown).
    loop_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ReactorMesh {
    /// Binds a loopback listener per node and starts the event-loop pool.
    pub fn new(nodes: &[NodeId]) -> io::Result<ReactorMesh> {
        let mut listeners = Vec::with_capacity(nodes.len());
        let mut addresses = HashMap::with_capacity(nodes.len());
        for &node in nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addresses.insert(node, listener.local_addr()?);
            listeners.push((node, listener));
        }

        let loop_count = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4);
        let mut loops = Vec::with_capacity(loop_count);
        for _ in 0..loop_count {
            loops.push(Arc::new(LoopHandle {
                poller: Poller::new()?,
                commands: Mutex::new(Vec::new()),
            }));
        }
        let shared = Arc::new(ReactorShared {
            addresses,
            stats: Arc::new(TransportStats::default()),
            shutdown: AtomicBool::new(false),
            loops,
            next_loop: AtomicUsize::new(0),
            next_token: AtomicU64::new(0),
            inbound_live: AtomicU64::new(0),
            accepted_total: AtomicU64::new(0),
        });

        // Endpoints first: a failing poller leaves no loop thread behind.
        let mut endpoints = HashMap::with_capacity(nodes.len());
        for (node, listener) in listeners {
            endpoints.insert(node, attach_endpoint(&shared, node, listener)?);
        }
        let mut loop_threads = Vec::with_capacity(shared.loops.len());
        for (index, handle) in shared.loops.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let handle = Arc::clone(handle);
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-{index}"))
                    .spawn(move || event_loop(shared, handle))?,
            );
        }
        Ok(ReactorMesh {
            shared,
            endpoints: Mutex::new(endpoints),
            loop_threads: Mutex::new(loop_threads),
        })
    }

    /// Hands the endpoint of `node` to its owner. Each endpoint can be
    /// taken once.
    pub fn take_endpoint(&self, node: NodeId) -> Option<ReactorEndpoint> {
        self.endpoints.lock().expect("mesh lock").remove(&node)
    }

    /// The loopback address `node` listens on. Exposed for transport-level
    /// tests.
    pub fn address(&self, node: NodeId) -> Option<SocketAddr> {
        self.shared.addresses.get(&node).copied()
    }

    /// Mesh-wide traffic counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.shared.stats)
    }

    /// `(live, total)` inbound connections across the mesh, all of them
    /// adopted by endpoint inboxes.
    pub fn connections(&self) -> (u64, u64) {
        (
            self.shared.inbound_live.load(Ordering::Relaxed),
            self.shared.accepted_total.load(Ordering::Relaxed),
        )
    }

    /// Tears down `node`'s listener and every established inbound
    /// connection to it, without forgetting its address: peers keep
    /// queueing and redialing with backoff until
    /// [`start_endpoint`](Self::start_endpoint) brings the node back.
    /// The connections close whether or not the node's owner is receiving;
    /// its inbox hands out the frames it already decoded, then reports
    /// disconnection. The flap primitive for fault-injection tests.
    pub fn stop_endpoint(&self, node: NodeId) {
        for handle in &self.shared.loops {
            handle.push(Command::StopNode(node));
        }
    }

    /// (Re)starts `node`'s endpoint on an explicitly bound listener —
    /// after a [`stop_endpoint`](Self::stop_endpoint), rebind the node's
    /// original address (see [`address`](Self::address)) and hand the
    /// listener here. The node must be part of the mesh's address book.
    pub fn start_endpoint(
        &self,
        node: NodeId,
        listener: TcpListener,
    ) -> io::Result<ReactorEndpoint> {
        if !self.shared.addresses.contains_key(&node) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{node} is not in the mesh address book"),
            ));
        }
        attach_endpoint(&self.shared, node, listener)
    }

    /// Stops the event-loop pool, closes the connections it holds and every
    /// endpoint's inbound connections, and returns once the loops have
    /// exited. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        for handle in &self.shared.loops {
            handle.poller.wake();
        }
        // Wait for the loops to close what they hold, so the teardown is
        // done when this returns rather than running into what comes next.
        let threads = std::mem::take(&mut *self.loop_threads.lock().expect("loop threads lock"));
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for ReactorMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Creates `node`'s inbox and registers its listener with the pool, which
/// hands every connection it accepts to that inbox. Returns the endpoint.
fn attach_endpoint(
    shared: &Arc<ReactorShared>,
    node: NodeId,
    listener: TcpListener,
) -> io::Result<ReactorEndpoint> {
    let inbox = Arc::new(InboxShared {
        node,
        poller: Poller::new()?,
        mesh: Arc::clone(shared),
        state: Mutex::new(InboxState::default()),
    });
    shared.pick_loop().push(Command::AddListener {
        inbox: Arc::clone(&inbox),
        listener,
    });
    Ok(ReactorEndpoint {
        handle: ReactorHandle {
            local: node,
            shared: Arc::clone(shared),
            writers: Arc::new(Mutex::new(HashMap::new())),
            unflushed: Arc::new(Mutex::new(Vec::new())),
        },
        inbox: Inbox { shared: inbox },
    })
}

/// One node's attachment to a [`ReactorMesh`]: a cloneable sending
/// [`ReactorHandle`] plus the [`Inbox`] its owner receives from.
#[derive(Debug)]
pub struct ReactorEndpoint {
    handle: ReactorHandle,
    inbox: Inbox,
}

impl ReactorEndpoint {
    /// A cloneable sending handle (usable from any thread).
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// The node's inbox: its inbound connections, read and decoded by the
    /// thread that receives from it.
    pub fn incoming(&self) -> &Inbox {
        &self.inbox
    }

    /// Splits the endpoint into its sending handle and its inbox, so the
    /// thread that receives can own the inbox.
    pub fn into_parts(self) -> (ReactorHandle, Inbox) {
        (self.handle, self.inbox)
    }
}

impl Transport for ReactorEndpoint {
    fn local(&self) -> NodeId {
        self.handle.local
    }

    fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError> {
        self.handle.send(to, message)
    }

    fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        self.handle.broadcast(to, message)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Message), RecvTimeoutError> {
        self.inbox.recv_timeout(timeout)
    }

    fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.handle.shared.stats)
    }
}

/// The sending half of a [`ReactorEndpoint`]; cheap to clone and share.
///
/// Two ways to send. The deliver-now calls ([`send`](Self::send),
/// [`broadcast`](Self::broadcast), [`send_frame`](Self::send_frame)) write
/// before they return, unless the connection is still dialing or
/// congested. The queueing calls ([`queue`](Self::queue),
/// [`queue_broadcast`](Self::queue_broadcast)) only append to the peers'
/// outboxes; the next [`flush`](Self::flush) writes each connection that
/// got frames once. A deliver-now call is a queueing call plus a flush, so
/// it also delivers whatever this handle queued before it, in order. Clones
/// share one set of queued connections.
#[derive(Debug, Clone)]
pub struct ReactorHandle {
    local: NodeId,
    shared: Arc<ReactorShared>,
    /// Outbound connections by destination.
    writers: Arc<Mutex<HashMap<NodeId, Arc<Outbound>>>>,
    /// Connections that got frames since the last flush, each listed once.
    unflushed: Arc<Mutex<Vec<Arc<Outbound>>>>,
}

impl ReactorHandle {
    /// The node this handle sends as.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Encodes `message` (through the thread's reusable scratch) and
    /// delivers it to `to`, dialing the peer on first use. Order is FIFO
    /// while a connection lasts; a reconnect re-sends the unfinished head
    /// frame first but may interleave with frames the receiver still holds
    /// from the old connection.
    pub fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError> {
        self.send_frame(to, encode_frame(message))
    }

    /// Encode-once broadcast: one serialization shared by every peer (see
    /// [`Transport::broadcast`]), delivered now.
    pub fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        let queued = self.queue_broadcast(to, message);
        self.flush();
        queued
    }

    /// Delivers an already-encoded frame to `to` — the encode-once fan-out
    /// primitive.
    pub fn send_frame(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        self.queue_frame(to, frame)?;
        self.flush();
        Ok(())
    }

    /// Like [`send`](Self::send), but writes nothing until the next
    /// [`flush`](Self::flush).
    pub fn queue(&self, to: NodeId, message: &Message) -> Result<(), TransportError> {
        self.queue_frame(to, encode_frame(message))
    }

    /// Like [`broadcast`](Self::broadcast), but writes nothing until the
    /// next [`flush`](Self::flush). Every listed peer gets the frame even if
    /// an earlier one fails; the first error is returned afterwards.
    pub fn queue_broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        let Some((&last, rest)) = to.split_last() else {
            return Ok(());
        };
        let frame = encode_frame(message);
        self.shared
            .stats
            .encodes_saved
            .fetch_add(rest.len() as u64, Ordering::Relaxed);
        let mut first_error = None;
        for &peer in rest {
            if let Err(error) = self.queue_frame(peer, frame.clone()) {
                first_error.get_or_insert(error);
            }
        }
        if let Err(error) = self.queue_frame(last, frame) {
            first_error.get_or_insert(error);
        }
        match first_error {
            None => Ok(()),
            Some(error) => Err(error),
        }
    }

    /// Like [`send_frame`](Self::send_frame), but writes nothing until the
    /// next [`flush`](Self::flush). A peer that is not connected yet is
    /// dialed now; its dial drains the queue.
    fn queue_frame(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        if self.shared.is_shutdown() {
            return Err(TransportError::Closed);
        }
        let addr = *self
            .shared
            .addresses
            .get(&to)
            .ok_or(TransportError::UnknownPeer(to))?;
        let outbound = Arc::clone(
            self.writers
                .lock()
                .expect("writer map lock")
                .entry(to)
                .or_insert_with(|| {
                    Arc::new(Outbound {
                        local: self.local,
                        peer: to,
                        addr,
                        event_loop: self.shared.pick_loop(),
                        state: Mutex::new(OutState {
                            backoff: INITIAL_BACKOFF,
                            ..OutState::default()
                        }),
                    })
                }),
        );
        {
            let mut state = outbound.state.lock().expect("outbound lock");
            state.queue.push_back(frame);
            if state.stream.is_none() && !state.connecting {
                state.connecting = true;
                outbound
                    .event_loop
                    .push(Command::Dial(Arc::clone(&outbound)));
            }
        }
        let mut unflushed = self.unflushed.lock().expect("unflushed lock");
        if !unflushed
            .iter()
            .any(|queued| Arc::ptr_eq(queued, &outbound))
        {
            unflushed.push(outbound);
        }
        Ok(())
    }

    /// Writes every connection that got frames since the last flush, once
    /// each: one `writev` for several frames, a plain write for one. A
    /// connection still dialing, or waiting for `EPOLLOUT`, is left to its
    /// event loop. With nothing queued this makes no syscall.
    ///
    /// The connections go in a fixed order, replicas by id and then clients,
    /// whatever order the frames were queued in. Each write can wake its
    /// peer, and on a busy CPU a woken peer may run, and answer, before this
    /// thread writes the next connection; a fixed order at least makes the
    /// peers that see a broadcast first the same ones in every turn. In
    /// SeeMoRe those are the private cloud's, which take the lowest ids: a
    /// passive private replica that sees a slot's checkpoint from the proxies
    /// before the slot's proposal discards the proposal.
    pub fn flush(&self) {
        let mut unflushed = self.unflushed.lock().expect("unflushed lock");
        unflushed.sort_unstable_by_key(|outbound| outbound.peer);
        for outbound in unflushed.drain(..) {
            flush_outbound(&self.shared, &outbound);
        }
    }
}

/// Drains `outbound`'s queue from the calling thread if the connection is
/// up and not waiting for `EPOLLOUT`, arming `EPOLLOUT` on a partial write
/// and scheduling a redial if the connection just died. Otherwise a dial is
/// in flight or `EPOLLOUT` is armed, and the loop will pick the frames up
/// in FIFO position.
fn flush_outbound(shared: &ReactorShared, outbound: &Arc<Outbound>) {
    let mut state = outbound.state.lock().expect("outbound lock");
    if state.stream.is_none() || state.interest_out {
        return;
    }
    match drain_locked(&mut state, &shared.stats, true) {
        DrainOutcome::Drained => {}
        DrainOutcome::Blocked => arm_writable(outbound, &mut state),
        DrainOutcome::Failed => {
            // Connection died under us: close it, retransmit the whole head
            // frame after the loop redials (duplication of partially
            // delivered bytes is tolerated by the cores).
            state.stream = None;
            state.head_written = 0;
            state.interest_out = false;
            state.connecting = true;
            outbound
                .event_loop
                .push(Command::Dial(Arc::clone(outbound)));
        }
    }
}

/// Arms `EPOLLOUT` for an established connection (state lock held).
/// `epoll_ctl` is thread-safe against a concurrent `epoll_wait`, so sender
/// threads arm interest directly without waking the loop.
fn arm_writable(outbound: &Outbound, state: &mut OutState) {
    if state.interest_out {
        return;
    }
    if let Some(stream) = state.stream.as_ref() {
        if outbound
            .event_loop
            .poller
            .modify(stream.as_raw_fd(), state.token, Interest::READ_WRITE)
            .is_ok()
        {
            state.interest_out = true;
        }
    }
}

/// Encodes through the thread-local scratch: one `Arc` allocation per
/// message, no intermediate `Vec`.
fn encode_frame(message: &Message) -> Frame {
    ENCODE_SCRATCH.with(|scratch| Frame::encode_with(&mut scratch.borrow_mut(), message))
}

// ---------------------------------------------------------------------------
// Reading inbound connections.

/// One inbound connection's read side: the nonblocking stream, its
/// reassembly buffer and the peer its preamble announced.
#[derive(Debug)]
struct InboundConn {
    stream: TcpStream,
    peer: Option<NodeId>,
    buf: StreamBuf,
    /// The peer closed or the socket failed: hand out what is buffered,
    /// then drop the connection.
    ended: bool,
}

/// A stream that lost framing (bad preamble, bad frame); the connection is
/// dropped.
#[derive(Debug)]
struct Poisoned;

/// What one read from a socket brought.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chunk {
    /// A whole chunk: the socket may hold more.
    Full,
    /// Less than a chunk: the socket held no more bytes, though the peer's
    /// close may still be pending.
    Partial,
    /// No bytes: the socket would block, or the connection ended.
    Nothing,
}

impl InboundConn {
    fn new(stream: TcpStream) -> InboundConn {
        InboundConn {
            stream,
            peer: None,
            buf: StreamBuf::new(),
            ended: false,
        }
    }

    /// Appends one chunk from the socket to the buffer. A peer close or a
    /// failed read marks the connection ended.
    fn read_chunk(&mut self, stats: &TransportStats, scratch: &mut [u8]) -> Chunk {
        loop {
            let result = {
                let mut stream: &TcpStream = &self.stream;
                stream.read(scratch)
            };
            return match result {
                Ok(0) => {
                    self.ended = true;
                    Chunk::Nothing
                }
                Ok(n) => {
                    stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    self.buf.push(&scratch[..n]);
                    if n == scratch.len() {
                        Chunk::Full
                    } else {
                        Chunk::Partial
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Chunk::Nothing,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.ended = true;
                    Chunk::Nothing
                }
            };
        }
    }

    /// Whether a whole frame (or a poisoned one) is buffered, so the next
    /// [`next_frame`](Self::next_frame) needs no read.
    fn has_frame(&self) -> bool {
        self.peer.is_some()
            && match frame_len(self.buf.bytes()) {
                Ok(Some(len)) => self.buf.buffered() >= len,
                Ok(None) => false,
                Err(_) => true,
            }
    }

    /// Decodes the next whole buffered frame, tagged with its sender;
    /// `Ok(None)` when none is buffered.
    fn next_frame(
        &mut self,
        stats: &TransportStats,
    ) -> Result<Option<(NodeId, Message)>, Poisoned> {
        if self.peer.is_none() {
            if self.buf.buffered() < PREAMBLE_LEN {
                return Ok(None);
            }
            let mut preamble = [0u8; PREAMBLE_LEN];
            preamble.copy_from_slice(&self.buf.bytes()[..PREAMBLE_LEN]);
            self.peer = Some(decode_preamble(&preamble).ok_or(Poisoned)?);
            self.buf.consume(PREAMBLE_LEN);
        }
        let peer = self.peer.expect("peer decoded above");
        let bytes = self.buf.bytes();
        let Some(frame_total) = frame_len(bytes).map_err(|_| Poisoned)? else {
            return Ok(None);
        };
        if bytes.len() < frame_total {
            return Ok(None);
        }
        let message = seemore_wire::codec::decode(&bytes[..frame_total]).map_err(|_| Poisoned)?;
        self.buf.consume(frame_total);
        stats.messages_received.fetch_add(1, Ordering::Relaxed);
        stats
            .bytes_received
            .fetch_add(frame_total as u64, Ordering::Relaxed);
        Ok(Some((peer, message)))
    }
}

// ---------------------------------------------------------------------------
// The inbox: a node's inbound connections, read by the node's own thread.

/// A node's receive side: the inbound connections its listener accepted, a
/// poller over them, and the frames decoded but not yet handed out.
///
/// No thread reads on its behalf. The thread that receives —
/// [`recv_timeout`](Self::recv_timeout), or [`wait`](Self::wait) then
/// [`try_recv`](Self::try_recv) — blocks in the inbox's own poller, reads
/// every ready connection and decodes its frames itself. It reads only while
/// fewer than [`INBOX_READ_AHEAD`] frames are pending; past that the bytes
/// stay in the kernel and TCP flow control holds the sender back. Frames of
/// one connection come out in the order they were sent; frames read together
/// from several connections come out one per connection per round, so a
/// burst on one connection does not jump ahead of frames that arrived on
/// the others at the same time.
///
/// The pool's listener adopts new connections while the owner waits, and
/// [`ReactorMesh::stop_endpoint`] closes them whether or not it waits.
#[derive(Debug)]
pub struct Inbox {
    shared: Arc<InboxShared>,
}

impl Inbox {
    /// The oldest decoded frame, tagged with its sender. Reads no socket
    /// ([`wait`](Self::wait) does). `Disconnected` once the endpoint was
    /// stopped or its mesh shut down and every decoded frame was handed out.
    pub fn try_recv(&self) -> Result<(NodeId, Message), TryRecvError> {
        let mut state = self.shared.lock();
        match state.pending.pop_front() {
            Some(frame) => Ok(frame),
            None if self.shared.is_closed(&state) => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Reads the ready connections into the pending queue. Returns at once
    /// if frames are pending already; otherwise blocks up to `timeout` (zero
    /// polls) until a connection is readable or an [`InboxWaker`] fires.
    pub fn wait(&self, timeout: Duration) {
        self.shared.fill(timeout);
    }

    /// Waits up to `timeout` for the next frame: [`try_recv`](Self::try_recv)
    /// and [`wait`](Self::wait) until one is pending or the time is up. A
    /// zero timeout reads once without blocking.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Message), RecvTimeoutError> {
        self.wait_for(timeout, || self.try_recv())
    }

    /// The loop behind [`recv_timeout`](Self::recv_timeout), for an owner
    /// that also takes work from elsewhere: tries `take`, and between tries
    /// [`wait`](Self::wait)s, until `take` yields or the time is up. Whoever
    /// queues that other work wakes the inbox (see [`InboxWaker`]).
    pub fn wait_for<T>(
        &self,
        timeout: Duration,
        mut take: impl FnMut() -> Result<T, TryRecvError>,
    ) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let mut waited = false;
        loop {
            match take() {
                Ok(item) => return Ok(item),
                Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) => {}
            }
            let remaining =
                deadline.map_or(timeout, |at| at.saturating_duration_since(Instant::now()));
            if waited && remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            self.wait(remaining);
            waited = true;
        }
    }

    /// Frames decoded but not yet handed out: at most [`INBOX_READ_AHEAD`].
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.shared.lock().pending.len()
    }

    /// A handle that interrupts this inbox's [`wait`](Self::wait) from any
    /// thread.
    pub fn waker(&self) -> InboxWaker {
        InboxWaker {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Ends an [`Inbox`]'s current or next [`wait`](Inbox::wait) early: a thread
/// that queues work for the inbox's owner somewhere else (a control command)
/// wakes it, so the owner does not sit out its timeout first.
#[derive(Debug, Clone)]
pub struct InboxWaker {
    shared: Arc<InboxShared>,
}

impl InboxWaker {
    /// Wakes the inbox's owner. Cheap and safe from any thread.
    pub fn wake(&self) {
        self.shared.poller.wake();
    }
}

/// The state behind an [`Inbox`], shared with the listener that adopts
/// connections into it and with its wakers. The owner never holds the lock
/// while it blocks.
#[derive(Debug)]
struct InboxShared {
    node: NodeId,
    poller: Poller,
    mesh: Arc<ReactorShared>,
    state: Mutex<InboxState>,
}

#[derive(Debug, Default)]
struct InboxState {
    /// Adopted connections by poller token.
    conns: HashMap<u64, InboundConn>,
    /// Decoded frames not yet handed out, oldest first.
    pending: VecDeque<(NodeId, Message)>,
    /// Connections the last read's decoding rounds stopped at, in round
    /// order: the next read serves them first, since their buffers or
    /// sockets may hold bytes that no readiness event will report again.
    /// (Between reads, the decoding rounds' ring; kept for its capacity.)
    backlog: VecDeque<u64>,
    /// Readiness events, reused across waits.
    events: Vec<Event>,
    /// Read chunk, allocated on the first read.
    scratch: Vec<u8>,
    /// Stopped: adopts nothing and reads nothing.
    closed: bool,
}

impl InboxShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, InboxState> {
        self.state.lock().expect("inbox lock")
    }

    fn is_closed(&self, state: &InboxState) -> bool {
        state.closed || self.mesh.is_shutdown()
    }

    /// Registers a connection the node's listener accepted.
    fn adopt(&self, stream: TcpStream) {
        let mut state = self.lock();
        if state.closed {
            return; // dropping the stream refuses the peer
        }
        let token = self.mesh.next_token();
        // Edge-triggered, so a wait lists connections in the order their
        // oldest unread bytes arrived; `fill` remembers the ones it leaves
        // bytes in.
        if self
            .poller
            .add(stream.as_raw_fd(), token, Interest::READ_EDGE)
            .is_ok()
        {
            state.conns.insert(token, InboundConn::new(stream));
            self.mesh.inbound_live.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes every adopted connection (peers see a reset and redial) and
    /// wakes the owner, whose receives report disconnection once the frames
    /// already decoded are handed out.
    fn close(&self) {
        let mut state = self.lock();
        if !state.closed {
            state.closed = true;
            let closed = state.conns.len() as u64;
            state.conns.clear();
            state.backlog.clear();
            self.mesh.inbound_live.fetch_sub(closed, Ordering::Relaxed);
        }
        drop(state);
        self.poller.wake();
    }

    /// The read pass behind [`Inbox::wait`].
    fn fill(&self, timeout: Duration) {
        let (mut events, timeout) = {
            let mut state = self.lock();
            if !state.pending.is_empty() || self.is_closed(&state) {
                return;
            }
            // A backlogged connection may hold bytes that no readiness event
            // reports: poll, do not block.
            let timeout = if state.backlog.is_empty() {
                timeout
            } else {
                Duration::ZERO
            };
            (std::mem::take(&mut state.events), timeout)
        };
        // A failed wait reads nothing; the next one retries.
        if self.poller.wait(&mut events, Some(timeout)).is_err() {
            events.clear();
        }
        let mut guard = self.lock();
        let state = &mut *guard;
        // The backlog first (its bytes are the oldest), then the connections
        // in the order their oldest unread bytes arrived.
        let mut ring = std::mem::take(&mut state.backlog);
        let mut closing = Vec::new();
        for event in &events {
            if event.hangup {
                closing.push(event.token);
            }
            if !ring.contains(&event.token) {
                ring.push_back(event.token);
            }
        }
        state.events = events;
        if state.scratch.is_empty() {
            state.scratch.resize(INBOX_READ_CHUNK, 0);
        }
        // Read every listed connection that has no whole frame buffered (one
        // that has leaves its bytes in the kernel). Edge-triggered readiness
        // reports nothing more for bytes left behind, so note the
        // connections that may still have some: those not read, and those
        // whose read budget ran out before their socket did.
        let mut unread = Vec::new();
        for &token in &ring {
            let Some(conn) = state.conns.get_mut(&token) else {
                continue; // closed since the wait
            };
            if conn.ended {
                continue;
            }
            if conn.has_frame() {
                unread.push(token);
                continue;
            }
            let mut reads = 0;
            loop {
                match conn.read_chunk(&self.mesh.stats, &mut state.scratch) {
                    Chunk::Full => {
                        reads += 1;
                        if reads == MAX_READS_PER_EVENT {
                            unread.push(token);
                            break;
                        }
                    }
                    // A close that came with the last bytes sends no event
                    // of its own: read on to the end of the stream.
                    Chunk::Partial if closing.contains(&token) => {}
                    Chunk::Partial | Chunk::Nothing => break,
                }
            }
        }
        // Decode one frame per connection per round. Draining connections
        // one after another would hand out every frame of the first before
        // any of the second, however much later they arrived; the rounds
        // keep frames that arrived together in about the order they arrived.
        // They stop when the read-ahead bound is reached, and when a
        // connection runs dry that still has bytes in the kernel: its next
        // frame may be older than the other connections' next ones.
        while let Some(token) = ring.pop_front() {
            if state.pending.len() >= INBOX_READ_AHEAD {
                ring.push_front(token);
                break;
            }
            let Some(conn) = state.conns.get_mut(&token) else {
                continue;
            };
            match conn.next_frame(&self.mesh.stats) {
                Ok(Some(frame)) => {
                    state.pending.push_back(frame);
                    ring.push_back(token);
                    continue;
                }
                Ok(None) if unread.contains(&token) => {
                    ring.push_front(token);
                    break;
                }
                // Nothing more until the socket is readable again.
                Ok(None) if !conn.ended => continue,
                Ok(None) | Err(Poisoned) => {}
            }
            // Finished: closed by the peer, failed, or poisoned.
            state.conns.remove(&token);
            self.mesh.inbound_live.fetch_sub(1, Ordering::Relaxed);
        }
        // The next read resumes the rounds where they stopped, so no sender
        // starves the others.
        state.backlog = ring;
    }
}

// ---------------------------------------------------------------------------
// The event loop.

/// What one poller token points at.
enum Entry {
    Listener {
        inbox: Arc<InboxShared>,
        listener: TcpListener,
    },
    Out(Arc<Outbound>),
}

/// A loop's private state (registry, redial deadlines).
struct LoopState {
    registry: HashMap<u64, Entry>,
    redials: Vec<(Instant, Arc<Outbound>)>,
}

fn event_loop(shared: Arc<ReactorShared>, handle: Arc<LoopHandle>) {
    let mut state = LoopState {
        registry: HashMap::new(),
        redials: Vec::new(),
    };
    let mut events: Vec<Event> = Vec::new();
    while !shared.is_shutdown() {
        for command in handle.take() {
            match command {
                Command::AddListener { inbox, listener } => {
                    if listener.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = shared.next_token();
                    if handle
                        .poller
                        .add(listener.as_raw_fd(), token, Interest::READ)
                        .is_ok()
                    {
                        state
                            .registry
                            .insert(token, Entry::Listener { inbox, listener });
                    }
                }
                Command::Dial(outbound) => attempt_dial(&shared, &handle, &mut state, outbound),
                Command::StopNode(node) => {
                    // Drop the node's listener and close its inbox: new dials
                    // are refused, established peers see a reset and fall
                    // back to queue + redial.
                    state.registry.retain(|_, entry| match entry {
                        Entry::Listener { inbox, .. } if inbox.node == node => {
                            inbox.close();
                            false
                        }
                        _ => true,
                    });
                }
            }
        }
        // Fire due redials; fold the next deadline into the wait timeout.
        let now = Instant::now();
        let mut i = 0;
        while i < state.redials.len() {
            if state.redials[i].0 <= now {
                let (_, outbound) = state.redials.swap_remove(i);
                attempt_dial(&shared, &handle, &mut state, outbound);
            } else {
                i += 1;
            }
        }
        let timeout = state
            .redials
            .iter()
            .map(|(deadline, _)| deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(TICK)
            .min(TICK);
        if handle.poller.wait(&mut events, Some(timeout)).is_err() {
            // A failing poller would spin this loop; stop, and let owners
            // and senders see the breakage as closed inboxes and timeouts.
            break;
        }
        for &event in &events {
            handle_event(&shared, &mut state, event);
        }
    }
    // The inboxes this loop's listeners feed close with it, so their owners
    // see the mesh go instead of waiting on connections nobody accepts.
    let unregistered = handle
        .take()
        .into_iter()
        .filter_map(|command| match command {
            Command::AddListener { inbox, .. } => Some(inbox),
            _ => None,
        });
    let registered = state
        .registry
        .into_values()
        .filter_map(|entry| match entry {
            Entry::Listener { inbox, .. } => Some(inbox),
            _ => None,
        });
    for inbox in registered.chain(unregistered) {
        inbox.close();
    }
}

fn handle_event(shared: &Arc<ReactorShared>, state: &mut LoopState, event: Event) {
    // The entry is temporarily removed so handlers can borrow the rest of
    // the loop state; it is reinserted unless the connection died.
    let Some(entry) = state.registry.remove(&event.token) else {
        return; // stale token (connection torn down since the wait)
    };
    match entry {
        Entry::Listener { inbox, listener } => {
            for _ in 0..MAX_ACCEPTS_PER_EVENT {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        shared.accepted_total.fetch_add(1, Ordering::Relaxed);
                        // From here on the node's own thread reads it.
                        inbox.adopt(stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    // Transient accept failures (ECONNABORTED, EMFILE) must
                    // not kill the listener; level-triggered readiness will
                    // re-fire if connections remain.
                    Err(_) => break,
                }
            }
            state
                .registry
                .insert(event.token, Entry::Listener { inbox, listener });
        }
        Entry::Out(outbound) => {
            if handle_out_event(shared, state, &outbound, event) {
                state.registry.insert(event.token, Entry::Out(outbound));
            }
        }
    }
}

/// Handles readiness on an outbound connection: readable means EOF/RST
/// (the connection is unidirectional — peers never send payload back),
/// writable resumes a blocked drain. Returns `false` when the registry
/// entry is dead (torn down or replaced by a redial).
fn handle_out_event(
    shared: &Arc<ReactorShared>,
    loop_state: &mut LoopState,
    outbound: &Arc<Outbound>,
    event: Event,
) -> bool {
    let mut state = outbound.state.lock().expect("outbound lock");
    if state.token != event.token || state.stream.is_none() {
        return false; // stale registration
    }
    if event.readable || event.hangup {
        let mut probe = [0u8; 64];
        let dead = loop {
            let result = {
                let mut stream: &TcpStream = state.stream.as_ref().expect("stream present");
                stream.read(&mut probe)
            };
            match result {
                Ok(0) => break true,
                Ok(_) => continue, // stray bytes on a one-way connection: discard
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break event.hangup,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break true,
            }
        };
        if dead {
            teardown_for_redial(&mut state, outbound, loop_state);
            return false;
        }
    }
    if event.writable && state.interest_out {
        match drain_locked(&mut state, &shared.stats, false) {
            DrainOutcome::Drained => {
                if let Some(stream) = state.stream.as_ref() {
                    let _ = outbound.event_loop.poller.modify(
                        stream.as_raw_fd(),
                        state.token,
                        Interest::READ,
                    );
                }
                state.interest_out = false;
            }
            DrainOutcome::Blocked => {}
            DrainOutcome::Failed => {
                teardown_for_redial(&mut state, outbound, loop_state);
                return false;
            }
        }
    }
    true
}

/// Closes a dead connection and, if frames are queued, schedules an
/// immediate redial (backoff applies to *failed* dials, not the first
/// attempt after a drop).
fn teardown_for_redial(state: &mut OutState, outbound: &Arc<Outbound>, loop_state: &mut LoopState) {
    state.stream = None;
    state.head_written = 0;
    state.interest_out = false;
    if state.queue.is_empty() {
        state.connecting = false;
    } else {
        state.connecting = true;
        loop_state
            .redials
            .push((Instant::now(), Arc::clone(outbound)));
    }
}

/// Dials `outbound.addr` (bounded blocking connect — loopback), writes the
/// identity preamble, drains whatever queued up, and registers the socket.
/// On failure the redial is rescheduled with exponential backoff.
fn attempt_dial(
    shared: &Arc<ReactorShared>,
    handle: &Arc<LoopHandle>,
    loop_state: &mut LoopState,
    outbound: Arc<Outbound>,
) {
    if shared.is_shutdown() {
        return;
    }
    let old_token = {
        let state = outbound.state.lock().expect("outbound lock");
        if state.stream.is_some() {
            return; // already connected (redundant dial request)
        }
        state.token
    };
    // Connect without holding the state lock: senders keep queueing while
    // the (bounded, loopback) connect is in flight.
    let connected =
        TcpStream::connect_timeout(&outbound.addr, CONNECT_TIMEOUT).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            stream.write_all(&encode_preamble(outbound.local))?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        });
    match connected {
        Err(_) => {
            let mut state = outbound.state.lock().expect("outbound lock");
            let delay = state.backoff;
            state.backoff = (state.backoff * 2).min(MAX_BACKOFF);
            loop_state
                .redials
                .push((Instant::now() + delay, Arc::clone(&outbound)));
        }
        Ok(stream) => {
            shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .bytes_sent
                .fetch_add(PREAMBLE_LEN as u64, Ordering::Relaxed);
            shared.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
            let token = shared.next_token();
            let fd = stream.as_raw_fd();
            let mut state = outbound.state.lock().expect("outbound lock");
            state.stream = Some(stream);
            state.connecting = false;
            state.head_written = 0;
            state.backoff = INITIAL_BACKOFF;
            state.token = token;
            let interest = match drain_locked(&mut state, &shared.stats, false) {
                DrainOutcome::Drained => {
                    state.interest_out = false;
                    Interest::READ
                }
                DrainOutcome::Blocked => {
                    state.interest_out = true;
                    Interest::READ_WRITE
                }
                DrainOutcome::Failed => {
                    teardown_for_redial(&mut state, &outbound, loop_state);
                    return;
                }
            };
            if handle.poller.add(fd, token, interest).is_ok() {
                // Drop a stale registry entry from a previous registration of
                // *this* connection only — `old_token` may predate any
                // registration (freshly created outbounds default to 0) and
                // must not evict whatever else lives under that token.
                if matches!(
                    loop_state.registry.get(&old_token),
                    Some(Entry::Out(existing)) if Arc::ptr_eq(existing, &outbound)
                ) {
                    loop_state.registry.remove(&old_token);
                }
                loop_state
                    .registry
                    .insert(token, Entry::Out(Arc::clone(&outbound)));
            } else {
                teardown_for_redial(&mut state, &outbound, loop_state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::{SeqNum, Timestamp};
    use seemore_wire::{ClientRequest, StateRequest, WireSize};

    fn replica(r: u32) -> NodeId {
        NodeId::Replica(ReplicaId(r))
    }

    /// Polls `settled` until it holds. Counters advance just *after* the
    /// syscall they count, so a receiver can see a frame a moment before
    /// the sender's loop thread has accounted for it.
    fn wait_until(what: &str, settled: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !settled() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Rebinds a stopped node's reserved address (the port may linger for a
    /// moment after its listener closed).
    fn rebind(addr: SocketAddr) -> TcpListener {
        (0..100)
            .find_map(|_| {
                TcpListener::bind(addr).ok().or_else(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    None
                })
            })
            .expect("rebind the stopped node's address")
    }

    fn state_request(seq: u64) -> Message {
        Message::StateRequest(StateRequest {
            from_seq: SeqNum(seq),
            replica: ReplicaId(0),
        })
    }

    #[test]
    fn messages_cross_the_reactor_mesh_fifo() {
        let mesh = ReactorMesh::new(&[replica(0), replica(1)]).unwrap();
        let a = mesh.take_endpoint(replica(0)).unwrap();
        let b = mesh.take_endpoint(replica(1)).unwrap();
        const FRAMES: u64 = 200;
        for seq in 0..FRAMES {
            a.send(replica(1), &state_request(seq)).unwrap();
        }
        for seq in 0..FRAMES {
            let (from, message) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, replica(0));
            assert_eq!(message, state_request(seq), "FIFO on one connection");
        }
        let stats = mesh.stats();
        assert_eq!(stats.messages_sent(), FRAMES);
        assert_eq!(stats.messages_received(), FRAMES);
        // Raw reads account for the frames plus the identity preamble.
        assert_eq!(stats.bytes_read(), stats.bytes_sent());
        assert_eq!(
            stats.bytes_received(),
            stats.bytes_sent() - PREAMBLE_LEN as u64
        );
        mesh.shutdown();
    }

    #[test]
    fn established_connections_take_the_direct_write_path() {
        let mesh = ReactorMesh::new(&[replica(0), replica(1)]).unwrap();
        let a = mesh.take_endpoint(replica(0)).unwrap();
        let b = mesh.take_endpoint(replica(1)).unwrap();
        // First send dials (the loop drains the queue); wait for delivery so
        // the connection is established and idle.
        a.send(replica(1), &state_request(0)).unwrap();
        b.recv_timeout(Duration::from_secs(5)).unwrap();
        for seq in 1..=50 {
            a.send(replica(1), &state_request(seq)).unwrap();
            b.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = mesh.stats();
        assert!(
            stats.direct_writes() >= 40,
            "established idle connection should serve sends from the sending \
             thread (saw {} direct of {} sent)",
            stats.direct_writes(),
            stats.messages_sent()
        );
        mesh.shutdown();
    }

    #[test]
    fn broadcast_encodes_once_and_reaches_every_peer_in_order() {
        let all: Vec<NodeId> = (0..4).map(replica).collect();
        let mesh = ReactorMesh::new(&all).unwrap();
        let sender = mesh.take_endpoint(all[0]).unwrap();
        let peers: Vec<NodeId> = all[1..].to_vec();
        let receivers: Vec<ReactorEndpoint> = peers
            .iter()
            .map(|&node| mesh.take_endpoint(node).unwrap())
            .collect();
        const FRAMES: u64 = 20;
        for seq in 0..FRAMES {
            sender.broadcast(&peers, &state_request(seq)).unwrap();
        }
        for receiver in &receivers {
            for seq in 0..FRAMES {
                let (from, message) = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(from, all[0]);
                assert_eq!(message, state_request(seq), "exactly once, FIFO");
            }
            assert!(
                receiver.recv_timeout(Duration::from_millis(50)).is_err(),
                "no duplicate deliveries"
            );
        }
        let stats = mesh.stats();
        assert_eq!(stats.encodes_saved(), FRAMES * (peers.len() as u64 - 1));
        assert_eq!(stats.messages_sent(), FRAMES * peers.len() as u64);
        mesh.shutdown();
        assert_eq!(sender.broadcast(&[], &state_request(0)), Ok(()));
    }

    #[test]
    fn unknown_peers_and_shutdown_are_reported() {
        let mesh = ReactorMesh::new(&[replica(0), replica(1)]).unwrap();
        let a = mesh.take_endpoint(replica(0)).unwrap();
        assert_eq!(
            a.send(replica(42), &state_request(0)),
            Err(TransportError::UnknownPeer(replica(42)))
        );
        mesh.shutdown();
        assert_eq!(
            a.send(replica(1), &state_request(0)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn bytes_on_wire_match_the_size_contract() {
        let client = NodeId::Client(ClientId(7));
        let mesh = ReactorMesh::new(&[replica(0), client]).unwrap();
        let sender = mesh.take_endpoint(client).unwrap();
        let receiver = mesh.take_endpoint(replica(0)).unwrap();

        let message = Message::Request(ClientRequest {
            client: ClientId(7),
            timestamp: Timestamp(1),
            operation: vec![0xEE; 500],
            signature: seemore_crypto::Signature::INVALID,
        });
        sender.send(replica(0), &message).unwrap();
        let (from, received) = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, client);
        assert_eq!(received, message);

        let stats = mesh.stats();
        wait_until("the send to be accounted", || stats.messages_sent() == 1);
        assert_eq!(stats.messages_received(), 1);
        // Wire bytes = one preamble + exactly wire_size() frame bytes.
        assert_eq!(
            stats.bytes_sent(),
            (PREAMBLE_LEN + message.wire_size()) as u64
        );
        // Raw reads saw everything that was written; the decoded-frame
        // counter excludes the preamble, matching the size contract exactly.
        assert_eq!(stats.bytes_read(), stats.bytes_sent());
        assert_eq!(stats.bytes_received(), message.wire_size() as u64);
        mesh.shutdown();
    }

    #[test]
    fn broadcast_reports_unknown_peers_but_still_reaches_the_rest() {
        let mesh = ReactorMesh::new(&[replica(0), replica(1)]).unwrap();
        let a = mesh.take_endpoint(replica(0)).unwrap();
        let b = mesh.take_endpoint(replica(1)).unwrap();
        let ghost = replica(42);
        assert_eq!(
            a.broadcast(&[ghost, replica(1)], &state_request(7)),
            Err(TransportError::UnknownPeer(ghost))
        );
        let (_, message) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(message, state_request(7), "known peers still served");
        mesh.shutdown();
    }

    /// A broadcast's shared frame must reach every listed peer exactly once
    /// even when one peer has never been reachable: the frames queued while
    /// its dial backs off (`ECONNREFUSED`) survive until the peer comes up,
    /// and meanwhile the live peer is served from the sending thread. Both
    /// write paths are forced here, so the write accounting is exact.
    #[test]
    fn broadcast_survives_a_peer_mid_reconnect() {
        let (a, b, c) = (replica(0), replica(1), replica(2));
        let mesh = ReactorMesh::new(&[a, b, c]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap();
        let live = mesh.take_endpoint(c).unwrap();
        let b_addr = mesh.address(b).unwrap();
        // Take b down before any traffic and wait until its port refuses
        // connections, so a's dial can only fail until b is restarted.
        drop(mesh.take_endpoint(b));
        mesh.stop_endpoint(b);
        wait_until("b's listener to close", || {
            TcpStream::connect(b_addr).is_err()
        });
        // Establish a -> c, so the broadcasts below find it up and idle.
        sender.send(c, &state_request(u64::MAX)).unwrap();
        live.recv_timeout(Duration::from_secs(5)).unwrap();

        const FRAMES: u64 = 16;
        for seq in 0..FRAMES {
            sender.broadcast(&[b, c], &state_request(seq)).unwrap();
        }
        // The live peer drains immediately, proving the shared frames are
        // not held hostage by the unreachable one.
        for seq in 0..FRAMES {
            let (_, message) = live.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(message, state_request(seq));
        }

        // Now bring b up on its reserved address; the redial connects and
        // delivers the whole queue.
        let late = mesh.start_endpoint(b, rebind(b_addr)).unwrap();
        for seq in 0..FRAMES {
            let (from, message) = late.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, a);
            assert_eq!(message, state_request(seq), "exactly once, in order");
        }
        assert!(
            late.recv_timeout(Duration::from_millis(100)).is_err(),
            "no frame delivered twice after the reconnect"
        );

        // Every frame is completed by exactly one write: it either had that
        // write to itself or rode along in a gather write (coalesced). The
        // only other writes are the two connections' preambles.
        let stats = mesh.stats();
        wait_until("the sends to be accounted", || {
            stats.messages_sent() == 1 + 2 * FRAMES
        });
        assert_eq!(stats.partial_writes(), 0);
        assert_eq!(stats.reconnects(), 2, "one dial each for b and c");
        assert_eq!(
            stats.messages_sent(),
            (stats.write_syscalls() - stats.reconnects()) + stats.frames_coalesced()
        );
        assert_eq!(stats.direct_writes(), FRAMES, "c served by the sender");
        assert_eq!(stats.vectored_writes(), 1, "b's backlog in one writev");
        assert_eq!(stats.frames_coalesced(), FRAMES - 1);
        mesh.shutdown();
    }

    /// Receives one frame per message of `expected` on `endpoint` and
    /// checks they match in order, all from `from`.
    fn expect_frames(endpoint: &ReactorEndpoint, from: NodeId, expected: &[Message]) {
        for message in expected {
            let received = endpoint.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(received, (from, message.clone()), "FIFO");
        }
    }

    /// A mesh of `a` plus peers `p` and `q`, with `a`'s connections to both
    /// already established and accounted for.
    fn warmed_mesh() -> (
        ReactorMesh,
        ReactorEndpoint,
        ReactorEndpoint,
        ReactorEndpoint,
    ) {
        let (a, p, q) = (replica(0), replica(1), replica(2));
        let mesh = ReactorMesh::new(&[a, p, q]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap();
        let to_p = mesh.take_endpoint(p).unwrap();
        let to_q = mesh.take_endpoint(q).unwrap();
        sender.send(p, &state_request(u64::MAX)).unwrap();
        sender.send(q, &state_request(u64::MAX)).unwrap();
        expect_frames(&to_p, a, &[state_request(u64::MAX)]);
        expect_frames(&to_q, a, &[state_request(u64::MAX)]);
        let stats = mesh.stats();
        wait_until("the warm-up to be accounted", || stats.messages_sent() == 2);
        (mesh, sender, to_p, to_q)
    }

    #[test]
    fn one_flush_writes_each_queued_peer_once() {
        let (mesh, sender, to_p, to_q) = warmed_mesh();
        let (a, p, q) = (replica(0), replica(1), replica(2));
        let handle = sender.handle();
        let stats = mesh.stats();
        let writes = stats.write_syscalls();
        const K: u64 = 5;
        let frames: Vec<Message> = (0..K).map(state_request).collect();
        for message in &frames {
            handle.queue(p, message).unwrap();
        }
        handle.queue(q, &state_request(K)).unwrap();
        assert_eq!(stats.write_syscalls(), writes, "queueing writes nothing");
        handle.flush();
        expect_frames(&to_p, a, &frames);
        expect_frames(&to_q, a, &[state_request(K)]);
        wait_until("the flush to be accounted", || {
            stats.messages_sent() == 2 + K + 1
        });
        assert_eq!(stats.write_syscalls() - writes, 2, "one write per peer");
        assert_eq!(stats.vectored_writes(), 1, "p's frames in one writev");
        assert_eq!(stats.frames_coalesced(), K - 1);
        mesh.shutdown();
    }

    /// Queues `k` frames for a peer that refuses connections and flushes,
    /// then restarts the peer, whose dial drains the queue. Returns the
    /// mesh's counters once every frame arrived once, in order.
    fn drain_behind_a_dial(k: u64) -> Arc<TransportStats> {
        let (a, b) = (replica(0), replica(1));
        let mesh = ReactorMesh::new(&[a, b]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap().handle();
        let b_addr = mesh.address(b).unwrap();
        // b refuses connections until restarted, so a's dial backs off.
        drop(mesh.take_endpoint(b));
        mesh.stop_endpoint(b);
        wait_until("b's listener to close", || {
            TcpStream::connect(b_addr).is_err()
        });
        let frames: Vec<Message> = (0..k).map(state_request).collect();
        for message in &frames {
            sender.queue(b, message).unwrap();
        }
        sender.flush();
        let stats = mesh.stats();
        assert_eq!(stats.write_syscalls(), 0, "flush skips the dialing peer");

        let late = mesh.start_endpoint(b, rebind(b_addr)).unwrap();
        expect_frames(&late, a, &frames);
        assert!(
            late.recv_timeout(Duration::from_millis(100)).is_err(),
            "each frame delivered once"
        );
        wait_until("the drain to be accounted", || stats.messages_sent() == k);
        assert_eq!(stats.partial_writes(), 0);
        assert_eq!(stats.direct_writes(), 0, "the dial drained the queue");
        mesh.shutdown();
        stats
    }

    #[test]
    fn flush_skips_a_dialing_peer_and_the_dial_drains_its_queue() {
        const K: u64 = 4;
        let stats = drain_behind_a_dial(K);
        assert_eq!(stats.write_syscalls(), 2, "the preamble, then one writev");
        assert_eq!(stats.frames_coalesced(), K - 1);
    }

    /// A backlog drains at most [`MAX_SLICES`] frames per gather write: 150
    /// frames queued behind a dial leave in writes of 64, 64 and 22.
    #[test]
    fn a_backlog_drains_at_most_max_slices_frames_per_write() {
        const K: u64 = 150;
        let stats = drain_behind_a_dial(K);
        assert_eq!(stats.write_syscalls(), 4, "the preamble, then three writes");
        assert_eq!(stats.vectored_writes(), 3);
        assert_eq!(stats.frames_coalesced(), K - 3);
    }

    #[test]
    fn flush_with_nothing_queued_makes_no_syscall() {
        let (mesh, sender, _to_p, _to_q) = warmed_mesh();
        let stats = mesh.stats();
        let writes = stats.write_syscalls();
        sender.handle().flush();
        sender.handle().flush();
        assert_eq!(stats.write_syscalls(), writes);
        mesh.shutdown();
    }

    #[test]
    fn send_after_queued_frames_keeps_fifo() {
        let (mesh, sender, to_p, _to_q) = warmed_mesh();
        let (a, p) = (replica(0), replica(1));
        let handle = sender.handle();
        let stats = mesh.stats();
        let writes = stats.write_syscalls();
        for seq in 0..3 {
            handle.queue(p, &state_request(seq)).unwrap();
        }
        handle.send(p, &state_request(3)).unwrap();
        let frames: Vec<Message> = (0..4).map(state_request).collect();
        expect_frames(&to_p, a, &frames);
        wait_until("the send to be accounted", || {
            stats.messages_sent() == 2 + 4
        });
        assert_eq!(
            stats.write_syscalls() - writes,
            1,
            "the send carries the queue"
        );
        mesh.shutdown();
    }

    /// Identities round-trip; the retired multiplexing layering is refused:
    /// a nonzero reserved byte (once the multiplexing flag) and tag 2 (once
    /// the client hub).
    #[test]
    fn preamble_round_trips_identities_and_mux_flag() {
        for node in [replica(3), NodeId::Client(ClientId(9))] {
            assert_eq!(decode_preamble(&encode_preamble(node)), Some(node));
        }
        let valid = encode_preamble(replica(0));
        for (index, byte) in [(0, b'!'), (5, 2), (6, 0x01), (7, 0x01)] {
            let mut refused = valid;
            refused[index] = byte;
            assert_eq!(decode_preamble(&refused), None, "byte {index} = {byte}");
        }
    }

    /// The event-loop pool is fixed-size: idle connections cost file
    /// descriptors, not threads, and do not starve the connections that
    /// carry traffic. 256 raw client connections sit idle on one replica's
    /// listener while an echo through a client endpoint still completes.
    #[test]
    fn idle_connections_are_held_while_a_client_endpoint_still_echoes() {
        use std::io::Write as _;
        const IDLE: u64 = 256;
        let client = NodeId::Client(ClientId(0));
        let mesh = ReactorMesh::new(&[replica(0), client]).unwrap();
        let server = mesh.take_endpoint(replica(0)).unwrap();
        let addr = mesh.address(replica(0)).unwrap();
        let idle: Vec<TcpStream> = (0..IDLE)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .write_all(&client_preamble(ClientId(1_000 + i)))
                    .unwrap();
                stream
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while mesh.connections().0 < IDLE {
            assert!(
                Instant::now() < deadline,
                "accepted only {} of {IDLE} idle connections",
                mesh.connections().0
            );
            std::thread::sleep(Duration::from_millis(2));
        }

        let port = mesh.take_endpoint(client).unwrap();
        port.send(replica(0), &state_request(7)).unwrap();
        let (from, message) = server.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, client);
        server.send(from, &message).unwrap();
        let (from, message) = port.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, message), (replica(0), state_request(7)));
        assert!(mesh.connections().0 >= IDLE, "idle connections stay open");
        drop(idle);
        mesh.shutdown();
    }

    /// Stopping a node closes its inbound connections although its owner
    /// never receives: no other thread reads them, so the close cannot wait
    /// for one. The owner then sees disconnection, and the peer sees the
    /// reset and redials the restarted node.
    #[test]
    fn stop_endpoint_closes_inbound_connections_of_an_owner_that_is_not_receiving() {
        let (a, b) = (replica(0), replica(1));
        let mesh = ReactorMesh::new(&[a, b]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap();
        let idle = mesh.take_endpoint(b).unwrap();
        let b_addr = mesh.address(b).unwrap();
        sender.send(b, &state_request(0)).unwrap();
        wait_until("b to adopt a's connection", || mesh.connections().0 == 1);

        mesh.stop_endpoint(b);
        wait_until("b's connection to close", || mesh.connections().0 == 0);
        assert_eq!(
            idle.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Disconnected),
            "the unread frame closed with its connection"
        );

        let late = mesh.start_endpoint(b, rebind(b_addr)).unwrap();
        // Frames written before a noticed the reset die with the old
        // connection; keep sending until one arrives over the new one.
        let seq = std::cell::Cell::new(1);
        wait_until("a to redial the restarted node", || {
            sender.send(b, &state_request(seq.get())).unwrap();
            seq.set(seq.get() + 1);
            late.recv_timeout(Duration::from_millis(10)).is_ok()
        });
        assert_eq!(mesh.stats().reconnects(), 2, "a dialed b twice");
        mesh.shutdown();
    }

    /// Writes `preamble` and then `frames` on a raw connection to `addr`.
    fn raw_connection(addr: SocketAddr, preamble: &[u8], frames: &[&[u8]]) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(preamble).unwrap();
        for frame in frames {
            stream.write_all(frame).unwrap();
        }
        stream
    }

    /// A connection that opens with garbage is dropped; the node's other
    /// connections keep delivering. A preamble of the retired multiplexed
    /// layering (a replica's, with the old multiplexing flag set) counts as
    /// garbage.
    #[test]
    fn a_garbage_preamble_drops_only_its_own_connection() {
        let mesh = ReactorMesh::new(&[replica(0)]).unwrap();
        let server = mesh.take_endpoint(replica(0)).unwrap();
        let addr = mesh.address(replica(0)).unwrap();
        let mut multiplexed = encode_preamble(replica(1));
        multiplexed[6] = 0x01;
        let mut garbage: Vec<TcpStream> = [[b'!'; PREAMBLE_LEN], multiplexed]
            .iter()
            .map(|preamble| raw_connection(addr, preamble, &[]))
            .collect();
        let frame = seemore_wire::codec::encode(&state_request(4));
        let _good = raw_connection(addr, &client_preamble(ClientId(5)), &[&frame]);
        assert_eq!(
            server.recv_timeout(Duration::from_secs(5)),
            Ok((NodeId::Client(ClientId(5)), state_request(4)))
        );
        wait_until("the garbage connections to be dropped", || {
            let _ = server.recv_timeout(Duration::from_millis(1));
            mesh.connections().0 == 1
        });
        for stream in &mut garbage {
            let mut probe = [0u8; 1];
            assert!(
                matches!(stream.read(&mut probe), Ok(0) | Err(_)),
                "the garbage connection was closed"
            );
        }
        mesh.shutdown();
    }

    /// Adopted connections count as live from the moment the listener hands
    /// them over, owner receiving or not, and stop counting once the owner's
    /// read finds them closed.
    #[test]
    fn connections_count_adopted_connections_until_they_close() {
        let mesh = ReactorMesh::new(&[replica(0)]).unwrap();
        let server = mesh.take_endpoint(replica(0)).unwrap();
        let addr = mesh.address(replica(0)).unwrap();
        let clients: Vec<TcpStream> = (0..3)
            .map(|c| raw_connection(addr, &client_preamble(ClientId(c)), &[]))
            .collect();
        wait_until("three adopted connections", || mesh.connections() == (3, 3));
        drop(clients);
        wait_until("the closed connections to be reaped", || {
            let _ = server.recv_timeout(Duration::from_millis(1));
            mesh.connections() == (0, 3)
        });
        mesh.shutdown();
    }

    /// Read-ahead is bounded: an endpoint that does not receive has nothing
    /// read on its behalf, and one that does never holds more than
    /// [`INBOX_READ_AHEAD`] decoded frames. The rest waits in the kernel and
    /// the sender's outbox, and all of it arrives once, in order.
    #[test]
    fn read_ahead_is_bounded_and_loses_nothing() {
        let (a, b) = (replica(0), replica(1));
        let mesh = ReactorMesh::new(&[a, b]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap().handle();
        let receiver = mesh.take_endpoint(b).unwrap();
        let frame = |seq: u64| {
            Message::Request(ClientRequest {
                client: ClientId(seq),
                timestamp: Timestamp(seq),
                operation: vec![0xAB; 1024],
                signature: seemore_crypto::Signature::INVALID,
            })
        };
        const FRAMES: u64 = 10_000;
        for seq in 0..FRAMES {
            sender.queue(b, &frame(seq)).unwrap();
            if seq % 64 == 63 {
                sender.flush();
            }
        }
        sender.flush();
        let stats = mesh.stats();
        wait_until("the sender to write", || stats.bytes_sent() > 0);
        assert_eq!(stats.bytes_read(), 0, "nobody reads for an idle owner");
        assert_eq!(receiver.incoming().pending(), 0);

        let mut most_pending = 0;
        for seq in 0..FRAMES {
            let received = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(received, (a, frame(seq)), "in order, exactly once");
            most_pending = most_pending.max(receiver.incoming().pending());
        }
        assert!(
            most_pending < INBOX_READ_AHEAD,
            "pending reached {most_pending}"
        );
        assert!(
            receiver.recv_timeout(Duration::from_millis(50)).is_err(),
            "no frame delivered twice"
        );
        assert_eq!(stats.messages_received(), FRAMES);
        mesh.shutdown();
    }

    /// Satellite regression: the reconnect storm. A peer flaps repeatedly
    /// mid-broadcast; every frame sent while the peer was provably down is
    /// queued and must arrive exactly once, FIFO, after the peer returns —
    /// and the full received sequence (including frames that raced a dying
    /// connection, which TCP may silently eat) must be a duplicate-free
    /// subsequence of the send order.
    #[test]
    fn reconnect_storm_preserves_fifo_and_exactly_once_for_queued_frames() {
        let a = replica(0);
        let b = replica(1);
        let c = replica(2);
        let mesh = ReactorMesh::new(&[a, b, c]).unwrap();
        let sender = mesh.take_endpoint(a).unwrap();
        let live = mesh.take_endpoint(c).unwrap();
        let b_addr = mesh.address(b).unwrap();
        let mut b_endpoint = Some(mesh.take_endpoint(b).unwrap());

        const FLAPS: u64 = 4;
        const PER_FLAP: u64 = 8;
        let mut seq = 0u64;
        let mut received: Vec<u64> = Vec::new();
        let drain = |endpoint: &ReactorEndpoint, received: &mut Vec<u64>| {
            while let Ok((from, message)) = endpoint.recv_timeout(Duration::from_millis(200)) {
                assert_eq!(from, a);
                let Message::StateRequest(request) = message else {
                    panic!("unexpected message");
                };
                received.push(request.from_seq.0);
            }
        };

        for _ in 0..FLAPS {
            // Warm the connection so the flap kills something real.
            sender.broadcast(&[b, c], &state_request(seq)).unwrap();
            seq += 1;
            drain(b_endpoint.as_ref().unwrap(), &mut received);

            // Take b down: listener gone, established connections reset.
            mesh.stop_endpoint(b);
            drop(b_endpoint.take());
            // Probe until the sender's transport has *observed* the death
            // (a send fails or the loop reaps the reset connection). Frames
            // sent from here on are queued, not racing a dying socket.
            std::thread::sleep(Duration::from_millis(30));
            sender.broadcast(&[b, c], &state_request(seq)).unwrap();
            seq += 1;
            std::thread::sleep(Duration::from_millis(30));

            // The tracked batch: broadcast while b is provably down. These
            // must survive queued in the outbox, in order.
            let tracked: Vec<u64> = (0..PER_FLAP)
                .map(|_| {
                    let s = seq;
                    sender.broadcast(&[b, c], &state_request(s)).unwrap();
                    seq += 1;
                    s
                })
                .collect();
            // The live peer keeps receiving throughout the flap.
            let mut live_got = Vec::new();
            drain(&live, &mut live_got);

            // Bring b back on its reserved address; the redial backoff
            // reconnects and the queued batch arrives exactly once, FIFO.
            let endpoint = mesh.start_endpoint(b, rebind(b_addr)).unwrap();
            let mut round: Vec<u64> = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            while round.iter().filter(|s| tracked.contains(s)).count() < tracked.len() {
                match endpoint.recv_timeout(Duration::from_millis(200)) {
                    Ok((from, Message::StateRequest(request))) => {
                        assert_eq!(from, a);
                        round.push(request.from_seq.0);
                    }
                    Ok(_) => panic!("unexpected message"),
                    Err(_) => assert!(
                        Instant::now() < deadline,
                        "tracked frames never arrived: got {round:?}, wanted {tracked:?}"
                    ),
                }
            }
            let tracked_received: Vec<u64> = round
                .iter()
                .copied()
                .filter(|s| tracked.contains(s))
                .collect();
            assert_eq!(
                tracked_received, tracked,
                "frames queued while the peer was down must arrive exactly once, in order"
            );
            received.extend(round);
            b_endpoint = Some(endpoint);
        }

        // Global properties across all flaps: no duplicates anywhere, and
        // the received order is a subsequence of the send order.
        let mut unique = received.clone();
        unique.sort_unstable();
        let before = unique.len();
        unique.dedup();
        assert_eq!(unique.len(), before, "duplicate delivery: {received:?}");
        assert!(
            received.windows(2).all(|w| w[0] < w[1]),
            "received order must be a subsequence of send order: {received:?}"
        );
        mesh.shutdown();
    }
}
