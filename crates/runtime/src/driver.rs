//! The replica thread's event loop and the closed-loop client driver of
//! [`SocketCluster`](crate::socket::SocketCluster).
//!
//! The replica loop with its timer wheel, the [`ReplicaCommand`] control
//! protocol (deliver / crash / recover / mode switch / shutdown) and the
//! client driver with its retransmission fallback live here; `socket.rs`
//! binds the mesh, spawns the threads and routes commands to them.

use seemore_core::actions::{Action, Timer};
use seemore_core::client::{ClientOutcome, ClientProtocol};
use seemore_core::protocol::ReplicaProtocol;
use seemore_net::{Inbox, ReactorEndpoint, ReactorHandle, Transport};
use seemore_types::{Duration, Instant, Mode, NodeId, OpClass};
use seemore_wire::Message;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::Instant as StdInstant;

/// Control commands sent to a replica thread.
#[allow(clippy::large_enum_variant)] // Deliver dominates and is the common case
pub(crate) enum ReplicaCommand {
    /// A protocol message from `from` to process.
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The message.
        message: Message,
    },
    /// Fail-stop the replica (it keeps its thread but produces no actions).
    Crash,
    /// Replace the crashed core with one rebuilt from its durable store and
    /// run its `on_start` (the restart half of a crash-recover schedule).
    /// Timers armed by the previous incarnation are discarded — a restarted
    /// process has no memory of them.
    Recover(Box<dyn ReplicaProtocol>),
    /// Ask the replica to initiate a dynamic mode switch (SeeMoRe only;
    /// other cores ignore it). This is how `Scenario::with_mode_switch`
    /// reaches the socket runtime, which has no simulator event queue to
    /// schedule the announcement through.
    ModeSwitch {
        /// The mode to switch to.
        mode: Mode,
    },
    /// Stop the thread and hand the core back for inspection.
    Shutdown,
}

/// Commands and messages a replica thread handles per wake-up before it
/// fires timers and flushes: enough to amortize the loop bookkeeping under
/// load without starving timers.
const DRAIN_BATCH: usize = 32;

/// Converts elapsed wall-clock time into the protocol's virtual instants.
pub(crate) fn to_instant(start: StdInstant) -> Instant {
    Instant::from_nanos(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Where a replica thread's work comes from: control commands first, then
/// the frames the replica's own thread reads off its connections. Whoever
/// queues a command wakes `frames` (see `ReplicaControl` in `socket.rs`), so
/// a command never waits out an idle wait, and one queued before a wake-up
/// is handled before anything that wake-up read.
pub(crate) struct NodeInbox {
    pub(crate) commands: Receiver<ReplicaCommand>,
    pub(crate) frames: Inbox,
}

impl NodeInbox {
    /// The next command or message already at hand, without blocking.
    fn try_recv(&self) -> Result<ReplicaCommand, TryRecvError> {
        if let Ok(command) = self.commands.try_recv() {
            return Ok(command);
        }
        self.frames
            .try_recv()
            .map(|(from, message)| ReplicaCommand::Deliver { from, message })
    }

    /// Waits up to `timeout` for the next command or message.
    fn recv_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<ReplicaCommand, RecvTimeoutError> {
        self.frames.wait_for(timeout, || self.try_recv())
    }
}

/// The replica thread body: waits on `inbox` with a deadline derived from
/// the earliest armed timer, handles what arrives, fires due timers, and
/// sends the protocol's messages through `handle`. Returns the core on
/// shutdown (or once the inbox disconnects) so callers can inspect
/// execution histories and metrics.
///
/// Each wake-up handles a bounded batch: the command or message that ended
/// the wait, then up to `DRAIN_BATCH - 1` more that are already at hand, so
/// the per-wake-up bookkeeping (clock reads, timer scans) is amortized
/// across messages without starving timers. The wait is the replica's own
/// `epoll_wait`: the thread reads and decodes its sockets itself, so a
/// delivered message crosses no other thread. A control command queued
/// before a wake-up is handled before the messages that wake-up read, so a
/// replica told to crash while idle answers nothing after.
///
/// A *turn* is one wake-up's batch and its due timers, in four steps:
///
/// 1. **handle** — [`ReplicaProtocol::begin_turn`], then the batch and the
///    due timers, whose actions accumulate;
/// 2. **sync** — [`ReplicaProtocol::end_turn`], one WAL sync for every vote
///    the turn appended (group commit);
/// 3. **queue** — the turn's frames ([`ReactorHandle::queue`], and
///    [`ReactorHandle::queue_broadcast`], which encodes a broadcast once for
///    every peer);
/// 4. **flush** — [`ReactorHandle::flush`] once, before the loop blocks, so
///    each peer gets one write per turn.
///
/// The sync comes before the queueing, not merely before the flush: a
/// queued frame can leave early, through a dial or an armed `EPOLLOUT`.
/// Invariants: no frame is queued before the sync that covers its vote, and
/// no frame stays queued across a blocking wait.
///
/// Connection failures surface as reconnect attempts inside the transport;
/// a send can only fail on shutdown, which the loop is about to observe
/// anyway, so send errors are dropped.
pub(crate) fn run_replica_loop(
    mut replica: Box<dyn ReplicaProtocol>,
    inbox: &NodeInbox,
    start: StdInstant,
    handle: &ReactorHandle,
) -> Box<dyn ReplicaProtocol> {
    let mut timers: BTreeMap<Instant, Vec<Timer>> = BTreeMap::new();
    let mut armed: HashMap<Timer, Instant> = HashMap::new();
    let mut actions = replica.on_start(to_instant(start));
    loop {
        // Carry out the actions accumulated so far.
        for action in actions.drain(..) {
            match action {
                Action::Send { to, message } => {
                    let _ = handle.queue(to, &message);
                }
                Action::Broadcast { to, message } => {
                    let _ = handle.queue_broadcast(&to, &message);
                }
                Action::SetTimer { timer, after } => {
                    let deadline = to_instant(start) + after;
                    armed.insert(timer, deadline);
                    timers.entry(deadline).or_default().push(timer);
                }
                Action::CancelTimer { timer } => {
                    armed.remove(&timer);
                }
                Action::Executed { .. } | Action::Violation(_) => {}
            }
        }
        handle.flush();
        // Wait until the next timer deadline (or a command, or traffic).
        let now = to_instant(start);
        let wait = match timers.keys().next().copied() {
            Some(deadline) if deadline > now => (deadline - now).to_std(),
            Some(_) => std::time::Duration::ZERO,
            None => std::time::Duration::from_millis(50),
        };
        let mut next = match inbox.recv_timeout(wait) {
            Ok(command) => Some(command),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => return replica,
        };
        let now = to_instant(start);
        replica.begin_turn();
        let mut handled = 0;
        while let Some(command) = next {
            match command {
                ReplicaCommand::Deliver { from, message } => {
                    actions.extend(replica.on_message(from, message, now));
                }
                ReplicaCommand::Crash => replica.crash(),
                ReplicaCommand::Recover(core) => {
                    // The old core's votes already in `actions` are synced
                    // by its own store before the new core takes the turn.
                    replica.end_turn();
                    replica = core;
                    replica.begin_turn();
                    timers.clear();
                    armed.clear();
                    actions.extend(replica.on_start(now));
                }
                ReplicaCommand::ModeSwitch { mode } => {
                    actions.extend(replica.request_mode_switch(mode, now));
                }
                ReplicaCommand::Shutdown => {
                    replica.end_turn();
                    return replica;
                }
            }
            handled += 1;
            next = if handled < DRAIN_BATCH {
                inbox.try_recv().ok()
            } else {
                None
            };
        }
        // Fire due timers.
        let now = to_instant(start);
        let due: Vec<Instant> = timers.range(..=now).map(|(t, _)| *t).collect();
        for deadline in due {
            for timer in timers.remove(&deadline).unwrap_or_default() {
                if armed.get(&timer) == Some(&deadline) {
                    armed.remove(&timer);
                    actions.extend(replica.on_timer(timer, now));
                }
            }
        }
        replica.end_turn();
    }
}

/// How [`drive_client`] paces one closed-loop client.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrivePlan {
    /// Number of operations to submit, one after another.
    pub requests: usize,
    /// Patience per request before retransmitting.
    pub timeout: Duration,
    /// The cluster's wall-clock epoch protocol instants are measured from.
    pub start: StdInstant,
    /// If set and passed while a request is still pending, the driver gives
    /// the request up and returns — the bound the scenario runner needs so a
    /// failure schedule that exceeds the deployment's fault tolerance cannot
    /// hang a wall-clock run forever.
    pub abandon_at: Option<StdInstant>,
}

/// Drives a closed-loop client on the calling thread: submits
/// `plan.requests` operations one after another, pumping replies through
/// the client core until each completes, retransmitting (and extending the
/// deadline) when the cluster goes quiet — protocols with a crashed primary
/// need the client's broadcast path.
///
/// `port` is the client's own endpoint: the client's thread reads its
/// replies off it and sends through it. `make_op` is called with the request
/// index to produce each operation payload together with its read/write
/// classification (reads route through the client's fast path).
pub(crate) fn drive_client<C: ClientProtocol>(
    client: &mut C,
    plan: DrivePlan,
    port: &ReactorEndpoint,
    mut make_op: impl FnMut(usize) -> (Vec<u8>, OpClass),
) -> Vec<ClientOutcome> {
    let start = plan.start;
    let mut outcomes = Vec::new();
    for index in 0..plan.requests {
        let now = to_instant(start);
        let (operation, class) = make_op(index);
        let actions = client.submit_op(operation, class, now);
        perform_client_actions(actions, port);
        let mut deadline = StdInstant::now() + plan.timeout.to_std();
        while client.has_pending() {
            if plan.abandon_at.is_some_and(|at| StdInstant::now() >= at) {
                outcomes.extend(client.take_completed());
                return outcomes;
            }
            let remaining = deadline.saturating_duration_since(StdInstant::now());
            if remaining.is_zero() {
                // Retransmit and extend the deadline, so the loop goes back
                // to draining the inbox between retransmissions; protocols
                // with a crashed primary need the broadcast path, and the
                // replies it eventually produces must still be read.
                let actions = client.on_retransmit_timer(to_instant(start));
                perform_client_actions(actions, port);
                deadline = StdInstant::now() + plan.timeout.to_std();
                continue;
            }
            match port.recv_timeout(remaining.min(std::time::Duration::from_millis(20))) {
                Ok((from, message)) => {
                    let now = to_instant(start);
                    let actions = client.on_message(from, message, now);
                    perform_client_actions(actions, port);
                    // A quorum protocol's replies arrive as a burst (every
                    // replica answers); drain what is already queued in the
                    // same wakeup instead of paying one park/unpark cycle
                    // per reply.
                    for _ in 0..16 {
                        match port.recv_timeout(std::time::Duration::ZERO) {
                            Ok((from, message)) => {
                                let actions = client.on_message(from, message, now);
                                perform_client_actions(actions, port);
                            }
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => {
                                outcomes.extend(client.take_completed());
                                return outcomes;
                            }
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return outcomes,
            }
        }
        outcomes.extend(client.take_completed());
    }
    outcomes
}

/// Sends a client's actions, one frame per destination (a client's
/// broadcast goes to each replica in turn).
fn perform_client_actions(actions: Vec<Action>, port: &ReactorEndpoint) {
    for action in actions {
        match action {
            Action::Send { to, message } => {
                let _ = port.send(to, &message);
            }
            Action::Broadcast { to, message } => {
                for peer in to {
                    let _ = port.send(peer, &message);
                }
            }
            _ => {}
        }
    }
}
