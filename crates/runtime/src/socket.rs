//! A thread-per-replica runtime over real loopback TCP sockets.
//!
//! [`SocketCluster`] runs the sans-IO [`ReplicaProtocol`] and
//! [`ClientProtocol`] cores on real threads and real clocks: every message
//! is encoded through the wire codec (`seemore_wire::codec`), crosses an
//! actual `std::net` TCP connection of a [`ReactorMesh`], and is decoded by
//! a streaming frame reader on the receiving side. It is the closest this
//! workspace gets to the paper's deployed system: the bytes it reports
//! really were written to and read from sockets.
//!
//! The replica event loop and the closed-loop client driver live in
//! `crate::driver`; this module binds the TCP endpoints, spawns the threads
//! and routes control commands. Every replica and every client owns an
//! endpoint: a listener, the connections it dials, and an
//! [`Inbox`](seemore_net::Inbox). Each replica or client thread reads and
//! decodes its own inbound connections through that inbox: it blocks in the
//! inbox's `epoll_wait`, so a delivered message crosses no other thread and
//! no channel. Control commands ride a separate channel; queueing one wakes
//! the replica's inbox, and the replica handles it before the traffic that
//! wake-up read. See the crate docs for guidance on choosing between the
//! simulator and this runtime.

use crate::driver::{self, NodeInbox, ReplicaCommand};
use seemore_core::client::{ClientOutcome, ClientProtocol};
use seemore_core::protocol::ReplicaProtocol;
use seemore_net::{InboxWaker, ReactorEndpoint, ReactorMesh, TransportStats};
use seemore_types::{ClientId, Duration, Mode, NodeId, OpClass, ReplicaId};
use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant as StdInstant;

/// How the cluster reaches a replica thread: its command channel, plus the
/// waker of its inbox, which [`send`](Self::send) rings after every command
/// so an idle replica sees it at once.
struct ReplicaControl {
    commands: Sender<ReplicaCommand>,
    waker: InboxWaker,
}

impl ReplicaControl {
    fn send(&self, command: ReplicaCommand) {
        let _ = self.commands.send(command);
        self.waker.wake();
    }
}

/// Handle to a running socket-backed cluster.
///
/// The handle is `Sync`: multiple client threads may call
/// [`run_client`](Self::run_client) concurrently (one call per client id).
pub struct SocketCluster {
    mesh: ReactorMesh,
    replica_controls: HashMap<ReplicaId, ReplicaControl>,
    replicas: Vec<JoinHandle<Box<dyn ReplicaProtocol>>>,
    /// Each client's endpoint, read by the thread that runs the client.
    clients: HashMap<ClientId, ReactorEndpoint>,
    stats: Arc<TransportStats>,
    start: StdInstant,
}

impl SocketCluster {
    /// Binds a loopback TCP mesh over every replica and client, then spawns
    /// one replica thread (the shared event loop, reading its own inbound
    /// connections through its endpoint's inbox) per replica.
    ///
    /// `client_ids` lists the clients that will interact with the cluster
    /// through [`run_client`](Self::run_client); each gets its own listener
    /// so replicas can push replies back over real connections.
    pub fn spawn(
        replicas: Vec<Box<dyn ReplicaProtocol>>,
        client_ids: &[ClientId],
    ) -> io::Result<Self> {
        let nodes: Vec<NodeId> = replicas
            .iter()
            .map(|r| NodeId::Replica(r.id()))
            .chain(client_ids.iter().map(|c| NodeId::Client(*c)))
            .collect();
        let mesh = ReactorMesh::new(&nodes)?;
        let stats = mesh.stats();
        // The clock epoch starts after the mesh is bound, so listener setup
        // is not charged to the protocol's timers or measurement windows.
        let start = StdInstant::now();

        let take = |node: NodeId| -> ReactorEndpoint {
            mesh.take_endpoint(node)
                .expect("endpoint exists for every spawned node")
        };

        let mut replica_controls = HashMap::new();
        let mut replica_handles = Vec::new();
        for replica in replicas {
            let id = replica.id();
            let (handle, frames) = take(NodeId::Replica(id)).into_parts();
            let (commands, rx) = channel::<ReplicaCommand>();
            let waker = frames.waker();
            replica_controls.insert(id, ReplicaControl { commands, waker });
            // The replica thread reads and decodes its own connections (no
            // reactor-thread hop, no channel); rare control commands ride
            // the command channel and wake the inbox when queued.
            let inbox = NodeInbox {
                commands: rx,
                frames,
            };
            let thread = std::thread::Builder::new()
                .name(format!("replica-{id}"))
                .spawn(move || driver::run_replica_loop(replica, &inbox, start, &handle))
                .expect("spawn replica thread");
            replica_handles.push(thread);
        }

        let clients = client_ids
            .iter()
            .map(|&client| (client, take(NodeId::Client(client))))
            .collect();

        Ok(SocketCluster {
            mesh,
            replica_controls,
            replicas: replica_handles,
            clients,
            stats,
            start,
        })
    }

    /// Crashes a replica (fail-stop). Its sockets stay up but the core
    /// produces no further actions. The command wakes an idle replica, so
    /// nothing that arrives after this call gets an answer.
    pub fn crash(&self, replica: ReplicaId) {
        self.command(replica, ReplicaCommand::Crash);
    }

    fn command(&self, replica: ReplicaId, command: ReplicaCommand) {
        if let Some(control) = self.replica_controls.get(&replica) {
            control.send(command);
        }
    }

    /// Restarts a crashed replica with `core`, a fresh protocol core rebuilt
    /// from its durable store (see `seemore_store::Durability::recover`).
    /// The replica thread drops the dead incarnation (and its timers) and
    /// runs the new core's `on_start`, which announces the rejoin over the
    /// still-connected mesh.
    pub fn recover(&self, replica: ReplicaId, core: Box<dyn ReplicaProtocol>) {
        assert_eq!(core.id(), replica, "recovery core built for the wrong id");
        self.command(replica, ReplicaCommand::Recover(core));
    }

    /// Asks `replica` to announce a dynamic mode switch (SeeMoRe only; other
    /// cores ignore the request). This is how `Scenario::with_mode_switch`
    /// is delivered on this runtime.
    pub fn request_mode_switch(&self, replica: ReplicaId, mode: Mode) {
        self.command(replica, ReplicaCommand::ModeSwitch { mode });
    }

    /// The wall-clock epoch all protocol instants (timers, client outcome
    /// timestamps) are measured from.
    pub(crate) fn epoch(&self) -> StdInstant {
        self.start
    }

    /// Runs a closed-loop client on the calling thread: submits `requests`
    /// operations one after another over real sockets and returns the
    /// outcomes.
    ///
    /// `make_op` is called with the request index to produce each operation
    /// payload plus its read/write classification (reads take the client's
    /// fast path).
    /// Different clients may run concurrently from different threads through
    /// a shared `&SocketCluster`.
    pub fn run_client<C, F>(
        &self,
        client: C,
        requests: usize,
        timeout: Duration,
        make_op: F,
    ) -> (C, Vec<ClientOutcome>)
    where
        C: ClientProtocol,
        F: FnMut(usize) -> (Vec<u8>, OpClass),
    {
        self.run_client_until(client, requests, timeout, None, make_op)
    }

    /// [`run_client`](Self::run_client) with an overall wall-clock bound:
    /// once `abandon_at` passes, an incomplete request is given up on and
    /// the call returns. Used by the scenario runner so that failure
    /// schedules beyond the deployment's fault tolerance cannot hang a run.
    pub(crate) fn run_client_until<C, F>(
        &self,
        mut client: C,
        requests: usize,
        timeout: Duration,
        abandon_at: Option<StdInstant>,
        make_op: F,
    ) -> (C, Vec<ClientOutcome>)
    where
        C: ClientProtocol,
        F: FnMut(usize) -> (Vec<u8>, OpClass),
    {
        let port = self
            .clients
            .get(&client.id())
            .expect("client id not registered at spawn time");
        let outcomes = driver::drive_client(
            &mut client,
            driver::DrivePlan {
                requests,
                timeout,
                start: self.start,
                abandon_at,
            },
            port,
            make_op,
        );
        (client, outcomes)
    }

    /// Messages and bytes that actually crossed the TCP mesh so far
    /// (received side: decoded frames only, so the bytes exclude the
    /// per-connection preambles).
    pub fn traffic(&self) -> (u64, u64) {
        (self.stats.messages_received(), self.stats.bytes_received())
    }

    /// Live transport counters (both directions).
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.stats)
    }

    /// Shuts the cluster down — replicas first, then the TCP mesh — and
    /// returns the replica cores for inspection. The shutdown command wakes
    /// every idle replica thread at once, like any other command.
    ///
    /// # Panics
    ///
    /// If a replica thread panicked, this re-raises the first such panic
    /// once every thread is joined and the mesh is down, rather than return
    /// fewer cores than the cluster had.
    pub fn shutdown(mut self) -> Vec<Box<dyn ReplicaProtocol>> {
        for control in self.replica_controls.values() {
            control.send(ReplicaCommand::Shutdown);
        }
        let joined: Vec<_> = self.replicas.drain(..).map(JoinHandle::join).collect();
        self.replica_controls.clear();
        self.mesh.shutdown();
        joined
            .into_iter()
            .map(|core| core.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_app::{KvOp, KvResult, KvStore};
    use seemore_core::actions::{Action, Timer};
    use seemore_core::client::ClientCore;
    use seemore_core::config::ProtocolConfig;
    use seemore_core::exec::ExecutedEntry;
    use seemore_core::metrics::ReplicaMetrics;
    use seemore_core::replica::SeeMoReReplica;
    use seemore_crypto::KeyStore;
    use seemore_net::Transport;
    use seemore_types::{ClusterConfig, Instant, Mode, SeqNum, View};
    use seemore_wire::{Message, StateRequest};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A scripted core with no timers: it answers every message with three
    /// copies of it, sent back to the sender, until it is crashed. A
    /// [`panicking`](Triple::panicking) one panics on its first message
    /// instead.
    struct Triple {
        id: ReplicaId,
        metrics: ReplicaMetrics,
        crashed: bool,
        panics: bool,
    }

    impl Triple {
        fn new(id: u32) -> Triple {
            Triple {
                id: ReplicaId(id),
                metrics: ReplicaMetrics::default(),
                crashed: false,
                panics: false,
            }
        }

        fn panicking(id: u32) -> Triple {
            Triple {
                panics: true,
                ..Triple::new(id)
            }
        }
    }

    impl ReplicaProtocol for Triple {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_message(&mut self, from: NodeId, message: Message, _now: Instant) -> Vec<Action> {
            assert!(!self.panics, "scripted replica panic");
            if self.crashed {
                return Vec::new();
            }
            (0..3)
                .map(|_| Action::Send {
                    to: from,
                    message: message.clone(),
                })
                .collect()
        }
        fn crash(&mut self) {
            self.crashed = true;
        }
        fn is_crashed(&self) -> bool {
            self.crashed
        }
        fn on_timer(&mut self, _timer: Timer, _now: Instant) -> Vec<Action> {
            Vec::new()
        }
        fn view(&self) -> View {
            View::ZERO
        }
        fn mode(&self) -> Mode {
            Mode::Lion
        }
        fn executed(&self) -> &[ExecutedEntry] {
            &[]
        }
        fn metrics(&self) -> &ReplicaMetrics {
            &self.metrics
        }
    }

    fn wait_until(what: &str, settled: impl Fn() -> bool) {
        let deadline = StdInstant::now() + std::time::Duration::from_secs(5);
        while !settled() {
            assert!(StdInstant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// The replica loop over a real mesh: every turn's three sends to one
    /// peer leave in one `writev`, and they leave before the loop blocks —
    /// the replies arrive although nothing else ever reaches the loop.
    #[test]
    fn replica_loop_writes_each_peer_once_per_turn() {
        let (looped, peer) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
        let mesh = ReactorMesh::new(&[looped, peer]).unwrap();
        let (handle, frames) = mesh.take_endpoint(looped).unwrap().into_parts();
        let remote = mesh.take_endpoint(peer).unwrap();
        let (commands, rx) = channel();
        let control = ReplicaControl {
            commands,
            waker: frames.waker(),
        };
        let thread = std::thread::spawn(move || {
            let inbox = NodeInbox {
                commands: rx,
                frames,
            };
            driver::run_replica_loop(Box::new(Triple::new(0)), &inbox, StdInstant::now(), &handle)
        });
        let ping = |seq: u64| {
            Message::StateRequest(StateRequest {
                from_seq: SeqNum(seq),
                replica: ReplicaId(1),
            })
        };
        let turn = |seq: u64| {
            remote.send(looped, &ping(seq)).unwrap();
            for _ in 0..3 {
                let (from, message) = remote
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .expect("the turn's frames were flushed before the loop blocked");
                assert_eq!((from, message), (looped, ping(seq)));
            }
        };

        // The first turn dials both connections; count from the second.
        turn(0);
        let stats = mesh.stats();
        wait_until("the first turn to be accounted", || {
            stats.messages_sent() == 4
        });
        let writes = stats.write_syscalls();
        let vectored = stats.vectored_writes();
        let coalesced = stats.frames_coalesced();
        const TURNS: u64 = 20;
        for seq in 1..=TURNS {
            turn(seq);
        }
        wait_until("the turns to be accounted", || {
            stats.messages_sent() == 4 * (TURNS + 1)
        });
        assert_eq!(
            stats.write_syscalls() - writes,
            2 * TURNS,
            "per turn: one write for the ping, one for the loop's three replies"
        );
        assert_eq!(stats.vectored_writes() - vectored, TURNS);
        assert_eq!(stats.frames_coalesced() - coalesced, 2 * TURNS);

        control.send(ReplicaCommand::Shutdown);
        thread.join().expect("replica loop exits");
        mesh.shutdown();
    }

    /// A core that stands in for a durable one: it numbers its turns,
    /// answers every message with three frames stamped with the number of
    /// the turn that produced them, and publishes a turn's number as synced
    /// at its `end_turn`, after a pause a sync could take.
    struct TurnStamper {
        id: ReplicaId,
        metrics: ReplicaMetrics,
        turn: u64,
        turn_open: bool,
        synced: Arc<AtomicU64>,
    }

    impl ReplicaProtocol for TurnStamper {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_message(&mut self, from: NodeId, _message: Message, _now: Instant) -> Vec<Action> {
            assert!(self.turn_open, "a message handled outside a turn");
            (0..3)
                .map(|_| Action::Send {
                    to: from,
                    message: Message::StateRequest(StateRequest {
                        from_seq: SeqNum(self.turn),
                        replica: self.id,
                    }),
                })
                .collect()
        }
        fn begin_turn(&mut self) {
            self.turn += 1;
            self.turn_open = true;
        }
        fn end_turn(&mut self) {
            self.turn_open = false;
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.synced.store(self.turn, Ordering::SeqCst);
        }
        fn on_timer(&mut self, _timer: Timer, _now: Instant) -> Vec<Action> {
            Vec::new()
        }
        fn view(&self) -> View {
            View::ZERO
        }
        fn mode(&self) -> Mode {
            Mode::Lion
        }
        fn executed(&self) -> &[ExecutedEntry] {
            &[]
        }
        fn metrics(&self) -> &ReplicaMetrics {
            &self.metrics
        }
    }

    /// Vote-before-send on the replica loop: no frame of a turn reaches a
    /// peer before that turn's `end_turn` (the WAL sync) has returned.
    #[test]
    fn replica_loop_syncs_a_turn_before_any_of_its_frames_leaves() {
        let (looped, peer) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
        let mesh = ReactorMesh::new(&[looped, peer]).unwrap();
        let (handle, frames) = mesh.take_endpoint(looped).unwrap().into_parts();
        let remote = mesh.take_endpoint(peer).unwrap();
        let (commands, rx) = channel();
        let control = ReplicaControl {
            commands,
            waker: frames.waker(),
        };
        let synced = Arc::new(AtomicU64::new(0));
        let core = TurnStamper {
            id: ReplicaId(0),
            metrics: ReplicaMetrics::default(),
            turn: 0,
            turn_open: false,
            synced: Arc::clone(&synced),
        };
        let thread = std::thread::spawn(move || {
            let inbox = NodeInbox {
                commands: rx,
                frames,
            };
            driver::run_replica_loop(Box::new(core), &inbox, StdInstant::now(), &handle)
        });
        for seq in 0..10 {
            let ping = Message::StateRequest(StateRequest {
                from_seq: SeqNum(seq),
                replica: ReplicaId(1),
            });
            remote.send(looped, &ping).unwrap();
            for _ in 0..3 {
                let (from, message) = remote
                    .recv_timeout(std::time::Duration::from_secs(5))
                    .expect("the turn's frames arrive");
                assert_eq!(from, looped);
                let Message::StateRequest(StateRequest { from_seq, .. }) = message else {
                    panic!("unexpected {message:?}");
                };
                let synced = synced.load(Ordering::SeqCst);
                assert!(
                    from_seq.0 <= synced,
                    "a frame of turn {} arrived before its sync (last synced: {synced})",
                    from_seq.0
                );
            }
        }

        control.send(ReplicaCommand::Shutdown);
        thread.join().expect("replica loop exits");
        mesh.shutdown();
    }

    /// A command reaches an idle replica before the traffic that follows
    /// it: crashed while parked in its inbox wait, the replica must not
    /// answer the message sent right after the crash.
    #[test]
    fn a_crash_reaches_an_idle_replica_before_its_next_message() {
        let client = ClientId(0);
        let looped = NodeId::Replica(ReplicaId(0));
        let core: Box<dyn ReplicaProtocol> = Box::new(Triple::new(0));
        let sockets = SocketCluster::spawn(vec![core], &[client]).unwrap();
        let port = &sockets.clients[&client];
        let ping = Message::StateRequest(StateRequest {
            from_seq: SeqNum(1),
            replica: ReplicaId(0),
        });
        // A live replica answers with three copies.
        port.send(looped, &ping).unwrap();
        for _ in 0..3 {
            let answer = port.recv_timeout(std::time::Duration::from_secs(5));
            assert_eq!(
                answer.expect("a live replica answers"),
                (looped, ping.clone())
            );
        }
        // Let the replica thread park in its idle wait, then crash it and
        // send at once.
        std::thread::sleep(std::time::Duration::from_millis(10));
        sockets.crash(ReplicaId(0));
        port.send(looped, &ping).unwrap();
        let answer = port.recv_timeout(std::time::Duration::from_millis(100));
        assert!(answer.is_err(), "a crashed replica answered: {answer:?}");
        let cores = sockets.shutdown();
        assert!(cores[0].is_crashed());
    }

    /// A replica thread that panicked must not vanish from the returned
    /// cores: `shutdown` joins every thread, stops the mesh, and then
    /// re-raises the panic.
    #[test]
    #[should_panic(expected = "scripted replica panic")]
    fn shutdown_re_raises_a_replica_panic() {
        let client = ClientId(0);
        let cores: Vec<Box<dyn ReplicaProtocol>> =
            vec![Box::new(Triple::new(0)), Box::new(Triple::panicking(1))];
        let sockets = SocketCluster::spawn(cores, &[client]).unwrap();
        let ping = Message::StateRequest(StateRequest {
            from_seq: SeqNum(1),
            replica: ReplicaId(1),
        });
        sockets.clients[&client]
            .send(NodeId::Replica(ReplicaId(1)), &ping)
            .unwrap();
        let panicked = &sockets.replicas[1];
        wait_until("the replica thread to panic", || panicked.is_finished());
        sockets.shutdown();
    }

    /// Shutdown must not wait out the replica loop's 50 ms idle wait: the
    /// stopped endpoints wake every blocked replica thread at once.
    #[test]
    fn idle_cluster_shuts_down_inside_the_idle_wait() {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(43, cluster.total_size(), 0);
        let replicas: Vec<Box<dyn ReplicaProtocol>> = cluster
            .replicas()
            .map(|r| {
                Box::new(SeeMoReReplica::new(
                    r,
                    cluster,
                    ProtocolConfig::default(),
                    keystore.clone(),
                    Mode::Lion,
                    Box::new(KvStore::new()),
                )) as Box<dyn ReplicaProtocol>
            })
            .collect();
        assert_eq!(replicas.len(), 6);
        let sockets = SocketCluster::spawn(replicas, &[]).unwrap();
        // Time the case that matters: every thread already parked in its
        // idle wait. A thread that has not parked yet reads the command
        // before it blocks, and would pass without the wake-up.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let stopping = StdInstant::now();
        let cores = sockets.shutdown();
        let took = stopping.elapsed();
        assert_eq!(cores.len(), 6);
        assert!(
            took < std::time::Duration::from_millis(25),
            "shutdown took {took:?}"
        );
    }

    #[test]
    fn socket_cluster_serves_kv_requests_over_tcp() {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(41, cluster.total_size(), 1);
        let replicas: Vec<Box<dyn ReplicaProtocol>> = cluster
            .replicas()
            .map(|r| {
                Box::new(SeeMoReReplica::new(
                    r,
                    cluster,
                    ProtocolConfig::default(),
                    keystore.clone(),
                    Mode::Lion,
                    Box::new(KvStore::new()),
                )) as Box<dyn ReplicaProtocol>
            })
            .collect();
        let client_id = ClientId(0);
        let sockets = SocketCluster::spawn(replicas, &[client_id]).unwrap();
        let client = ClientCore::new(
            client_id,
            cluster,
            keystore,
            Mode::Lion,
            Duration::from_millis(500),
        );
        let (_client, outcomes) = sockets.run_client(client, 4, Duration::from_secs(10), |i| {
            (
                KvOp::Put {
                    key: format!("key-{i}").into_bytes(),
                    value: b"value".to_vec(),
                }
                .encode(),
                OpClass::Write,
            )
        });
        assert_eq!(outcomes.len(), 4);
        for outcome in &outcomes {
            assert_eq!(KvResult::decode(&outcome.result), Some(KvResult::Ok));
        }
        let (messages, bytes) = sockets.traffic();
        assert!(messages > 0, "messages crossed real sockets");
        assert!(bytes > 0, "bytes crossed real sockets");
        // Give in-flight commit notifications a moment to land, then check
        // safety: a reply quorum guarantees the *quorum* executed, so a
        // straggler may legitimately be one commit behind at shutdown —
        // but every history must be a prefix of the longest one.
        std::thread::sleep(std::time::Duration::from_millis(100));
        let cores = sockets.shutdown();
        assert_eq!(cores.len(), cluster.total_size() as usize);
        let longest = cores
            .iter()
            .map(|core| core.executed().to_vec())
            .max_by_key(|h| h.len())
            .expect("at least one replica");
        assert_eq!(longest.len(), 4, "most advanced replica executed all 4");
        for core in &cores {
            let history = core.executed();
            assert!(
                history
                    .iter()
                    .zip(longest.iter())
                    .all(|(a, b)| a.seq == b.seq && a.digest == b.digest),
                "replica {} diverged from the canonical history",
                core.id()
            );
        }
    }
}
