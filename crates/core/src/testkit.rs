//! A minimal synchronous cluster harness for unit, integration and property
//! tests.
//!
//! The real execution substrates live in the `seemore-runtime` crate (a
//! socket runtime and a discrete-event simulator with a latency model).
//! [`SyncCluster`] is deliberately simpler: it delivers every outstanding
//! message immediately and in FIFO order, tracks armed timers without a
//! clock, and lets tests fire timers explicitly. That makes protocol
//! behaviour — quorum formation, commits, view changes, mode switches —
//! fully deterministic and easy to assert on. It is also the reference the
//! socket runtime's loopback tests (`tests/socket_e2e.rs`) compare their
//! per-slot histories against.

use crate::actions::{Action, Timer};
use crate::client::ClientProtocol;
use crate::protocol::ReplicaProtocol;
use seemore_types::{ClientId, Instant, NodeId, ReplicaId};
use seemore_wire::Message;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// An in-flight message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sender of the message.
    pub from: NodeId,
    /// Destination of the message.
    pub to: NodeId,
    /// The message itself.
    pub message: Message,
}

/// A synchronous, deterministic cluster of replicas plus clients.
pub struct SyncCluster {
    replicas: HashMap<ReplicaId, Box<dyn ReplicaProtocol>>,
    clients: HashMap<ClientId, Box<dyn ClientProtocol>>,
    queue: VecDeque<Envelope>,
    /// Timers currently armed per replica.
    armed: HashMap<ReplicaId, BTreeSet<Timer>>,
    /// Replicas whose outbound messages are dropped (network-partitioned or
    /// crashed from the outside world's perspective).
    isolated: BTreeSet<ReplicaId>,
    /// Virtual "now" handed to cores (advanced manually by tests).
    now: Instant,
    delivered: u64,
}

impl Default for SyncCluster {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncCluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        SyncCluster {
            replicas: HashMap::new(),
            clients: HashMap::new(),
            queue: VecDeque::new(),
            armed: HashMap::new(),
            isolated: BTreeSet::new(),
            now: Instant::ZERO,
            delivered: 0,
        }
    }

    /// Adds a replica core to the cluster.
    pub fn add_replica(&mut self, replica: Box<dyn ReplicaProtocol>) {
        let id = replica.id();
        self.replicas.insert(id, replica);
        self.armed.entry(id).or_default();
    }

    /// Adds a client core to the cluster.
    pub fn add_client<C: ClientProtocol + 'static>(&mut self, client: C) {
        self.clients.insert(client.id(), Box::new(client));
    }

    /// Immutable access to a replica.
    pub fn replica(&self, id: ReplicaId) -> &dyn ReplicaProtocol {
        self.replicas.get(&id).expect("unknown replica").as_ref()
    }

    /// Mutable access to a replica (e.g. to crash it).
    pub fn replica_mut(&mut self, id: ReplicaId) -> &mut Box<dyn ReplicaProtocol> {
        self.replicas.get_mut(&id).expect("unknown replica")
    }

    /// Immutable access to a client.
    pub fn client(&self, id: ClientId) -> &dyn ClientProtocol {
        self.clients.get(&id).expect("unknown client").as_ref()
    }

    /// Mutable access to a client.
    pub fn client_mut(&mut self, id: ClientId) -> &mut Box<dyn ClientProtocol> {
        self.clients.get_mut(&id).expect("unknown client")
    }

    /// Replica ids currently registered.
    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        let mut ids: Vec<ReplicaId> = self.replicas.keys().copied().collect();
        ids.sort();
        ids
    }

    /// Total messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The virtual time handed to cores.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Advances the virtual clock (does not fire timers; use
    /// [`fire_timer`](Self::fire_timer) / [`fire_all_timers`](Self::fire_all_timers)).
    pub fn advance_time(&mut self, by: seemore_types::Duration) {
        self.now = self.now + by;
    }

    /// Cuts a replica off from the network: its outbound messages are
    /// dropped and no messages are delivered to it.
    pub fn isolate(&mut self, id: ReplicaId) {
        self.isolated.insert(id);
    }

    /// Reconnects a previously isolated replica.
    pub fn reconnect(&mut self, id: ReplicaId) {
        self.isolated.remove(&id);
    }

    /// Whether a replica is currently isolated.
    pub fn is_isolated(&self, id: ReplicaId) -> bool {
        self.isolated.contains(&id)
    }

    /// Replaces a replica's core with one rebuilt from its durable store
    /// (e.g. [`SeeMoReReplica::recover`](crate::replica::SeeMoReReplica::recover))
    /// and runs its `on_start`, queueing the recovery announcement. The
    /// previous incarnation's armed timers are discarded — a restart forgets
    /// its timer wheel — and the replica is reconnected if it was isolated.
    pub fn restart(&mut self, id: ReplicaId, core: Box<dyn ReplicaProtocol>) {
        assert_eq!(core.id(), id, "restarted core built for the wrong id");
        self.replicas.insert(id, core);
        self.armed.insert(id, BTreeSet::new());
        self.isolated.remove(&id);
        let now = self.now;
        let actions = self
            .replicas
            .get_mut(&id)
            .expect("just inserted")
            .on_start(now);
        self.apply_actions(NodeId::Replica(id), actions);
    }

    /// Injects a client operation: the client core builds a signed request
    /// and the resulting sends are queued.
    pub fn submit(&mut self, client: ClientId, operation: Vec<u8>) {
        let now = self.now;
        let actions = self
            .clients
            .get_mut(&client)
            .expect("unknown client")
            .submit(operation, now);
        self.apply_actions(NodeId::Client(client), actions);
    }

    /// Injects a client operation with an explicit read/write
    /// classification, routing reads through the client's fast path.
    pub fn submit_op(
        &mut self,
        client: ClientId,
        operation: Vec<u8>,
        class: seemore_types::OpClass,
    ) {
        let now = self.now;
        let actions = self
            .clients
            .get_mut(&client)
            .expect("unknown client")
            .submit_op(operation, class, now);
        self.apply_actions(NodeId::Client(client), actions);
    }

    /// Queues an arbitrary message (used by fault-injection tests to forge
    /// traffic).
    pub fn inject(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.queue.push_back(Envelope { from, to, message });
    }

    /// Asks a replica to initiate a dynamic mode switch, queueing whatever
    /// announcements it produces (SeeMoRe only; a no-op on other cores).
    pub fn request_mode_switch(&mut self, id: ReplicaId, mode: seemore_types::Mode) {
        let now = self.now;
        let actions = self
            .replicas
            .get_mut(&id)
            .expect("unknown replica")
            .request_mode_switch(mode, now);
        self.apply_actions(NodeId::Replica(id), actions);
    }

    /// Delivers every queued message (and the messages those deliveries
    /// generate) until the network is quiet. Returns the number of messages
    /// delivered. Panics after `limit` deliveries to catch livelock bugs.
    pub fn run_to_quiescence(&mut self, limit: u64) -> u64 {
        let mut count = 0;
        while let Some(envelope) = self.queue.pop_front() {
            count += 1;
            assert!(
                count <= limit,
                "message storm: more than {limit} deliveries"
            );
            self.deliver(envelope);
        }
        count
    }

    /// Delivers at most one queued message. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        match self.queue.pop_front() {
            Some(envelope) => {
                self.deliver(envelope);
                true
            }
            None => false,
        }
    }

    /// Delivers the `index`-th (modulo queue length) queued message instead
    /// of the front one, modelling network reordering — the asynchronous
    /// network may deliver messages in any order, and interleaving tests use
    /// this to open races FIFO delivery can never produce. Returns `false`
    /// when idle.
    pub fn step_reordered(&mut self, index: usize) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let index = index % self.queue.len();
        let envelope = self.queue.remove(index).expect("index bounded by len");
        self.deliver(envelope);
        true
    }

    /// Delivers the first queued message, in queue order, that `select`
    /// picks, and leaves the rest queued: a test that must hold one message
    /// back (a proposal to one replica, say) while everything else flows.
    /// `select` also sees each message it passes over, so it can observe
    /// the traffic. Returns `false` when it picks none.
    pub fn step_matching(&mut self, select: impl FnMut(&Envelope) -> bool) -> bool {
        let Some(index) = self.queue.iter().position(select) else {
            return false;
        };
        let envelope = self.queue.remove(index).expect("position is in bounds");
        self.deliver(envelope);
        true
    }

    /// Drops every queued message `select` picks, as a lossy link would,
    /// and leaves the rest queued in order. Returns how many it dropped.
    pub fn drop_matching(&mut self, mut select: impl FnMut(&Envelope) -> bool) -> usize {
        let queued = self.queue.len();
        self.queue.retain(|envelope| !select(envelope));
        queued - self.queue.len()
    }

    /// Number of messages currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Fires one armed timer on one replica (if armed), delivering any
    /// resulting messages immediately.
    pub fn fire_timer(&mut self, id: ReplicaId, timer: Timer) -> bool {
        let armed = self.armed.entry(id).or_default();
        if !armed.remove(&timer) {
            return false;
        }
        let now = self.now;
        let actions = self
            .replicas
            .get_mut(&id)
            .expect("unknown replica")
            .on_timer(timer, now);
        self.apply_actions(NodeId::Replica(id), actions);
        true
    }

    /// Fires every armed replica timer once (snapshotting the armed set
    /// first), then drains the network. Returns how many timers fired.
    pub fn fire_all_timers(&mut self, limit: u64) -> usize {
        let snapshot: Vec<(ReplicaId, Timer)> = self
            .armed
            .iter()
            .flat_map(|(id, timers)| timers.iter().map(|t| (*id, *t)))
            .collect();
        let mut fired = 0;
        for (id, timer) in snapshot {
            if self.fire_timer(id, timer) {
                fired += 1;
            }
            self.run_to_quiescence(limit);
        }
        fired
    }

    /// Fires every armed *client* retransmission timer.
    pub fn fire_client_timers(&mut self, limit: u64) {
        let ids: Vec<ClientId> = self.clients.keys().copied().collect();
        let now = self.now;
        for id in ids {
            let actions = self
                .clients
                .get_mut(&id)
                .expect("client")
                .on_retransmit_timer(now);
            self.apply_actions(NodeId::Client(id), actions);
            self.run_to_quiescence(limit);
        }
    }

    /// The timers currently armed on `id`.
    pub fn armed_timers(&self, id: ReplicaId) -> Vec<Timer> {
        self.armed
            .get(&id)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    fn deliver(&mut self, envelope: Envelope) {
        self.delivered += 1;
        let now = self.now;
        match envelope.to {
            NodeId::Replica(id) => {
                if self.isolated.contains(&id) {
                    return;
                }
                let Some(replica) = self.replicas.get_mut(&id) else {
                    return;
                };
                let actions = replica.on_message(envelope.from, envelope.message, now);
                self.apply_actions(NodeId::Replica(id), actions);
            }
            NodeId::Client(id) => {
                let Some(client) = self.clients.get_mut(&id) else {
                    return;
                };
                let actions = client.on_message(envelope.from, envelope.message, now);
                self.apply_actions(NodeId::Client(id), actions);
            }
        }
    }

    fn apply_actions(&mut self, from: NodeId, actions: Vec<Action>) {
        // Drop outbound traffic from isolated replicas.
        let sender_isolated = matches!(from, NodeId::Replica(r) if self.isolated.contains(&r));
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    if !sender_isolated {
                        self.queue.push_back(Envelope { from, to, message });
                    }
                }
                Action::Broadcast { to, message } => {
                    if !sender_isolated {
                        // The deterministic test cluster has no shared-bytes
                        // fast path; deliver one clone per destination.
                        crate::actions::fan_out(to, message, |peer, message| {
                            self.queue.push_back(Envelope {
                                from,
                                to: peer,
                                message,
                            });
                        });
                    }
                }
                Action::SetTimer { timer, .. } => {
                    if let NodeId::Replica(id) = from {
                        self.armed.entry(id).or_default().insert(timer);
                    }
                }
                Action::CancelTimer { timer } => {
                    if let NodeId::Replica(id) = from {
                        self.armed.entry(id).or_default().remove(&timer);
                    }
                }
                Action::Executed { .. } | Action::Violation(_) => {}
            }
        }
    }
}
