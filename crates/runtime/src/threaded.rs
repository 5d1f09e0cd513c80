//! A thread-per-replica runtime over in-memory channels.
//!
//! One of the three execution substrates (see the crate docs for when to use
//! which): real OS threads and real clocks like
//! [`SocketCluster`](crate::socket::SocketCluster), but messages stay plain
//! Rust values moved through crossbeam channels by a router thread — no
//! serialization, no sockets. That makes it the fastest way to exercise the
//! protocol cores under true concurrency, and the reference point the socket
//! runtime's loopback end-to-end tests compare their histories against.
//!
//! The replica event loop (timer wheel, `ReplicaCommand` control protocol)
//! and the closed-loop client driver are shared with the socket runtime
//! through `crate::driver`; only the byte-moving differs. Each replica
//! thread's inbox is its command channel, which the router feeds traffic
//! into as `Deliver` commands. Timers are implemented with `recv_timeout`
//! deadlines inside each replica thread.
//! Delivered traffic is counted with the [`WireSize`] model — the same
//! number the socket runtime observes as real encoded bytes.

use crate::driver::{self, ReplicaCommand};
use crossbeam_channel::{unbounded, Receiver, Sender};
use seemore_core::client::{ClientOutcome, ClientProtocol};
use seemore_core::protocol::ReplicaProtocol;
use seemore_types::{ClientId, Duration, Mode, NodeId, OpClass, ReplicaId};
use seemore_wire::{Message, WireSize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant as StdInstant;

/// A message in flight between threads.
#[derive(Debug)]
struct Envelope {
    from: NodeId,
    message: Message,
}

/// The threaded runtime's [`driver::ReplicaSink`]: messages stay Rust
/// values, so a broadcast is one clone per destination through the router
/// (the default `broadcast`); there are no bytes to share.
struct RouterSink {
    from: NodeId,
    out: Sender<(NodeId, Envelope)>,
}

impl driver::ReplicaSink for RouterSink {
    fn send(&mut self, to: NodeId, message: Message) {
        let _ = self.out.send((
            to,
            Envelope {
                from: self.from,
                message,
            },
        ));
    }
}

/// Handle to a running threaded cluster.
///
/// The handle is `Sync`: multiple client threads may call
/// [`run_client`](Self::run_client) concurrently (one call per client id).
pub struct ThreadedCluster {
    replica_senders: HashMap<ReplicaId, Sender<ReplicaCommand>>,
    client_inboxes: HashMap<ClientId, Receiver<Envelope>>,
    client_outbox: Sender<(NodeId, Envelope)>,
    router: Option<JoinHandle<()>>,
    replicas: Vec<JoinHandle<Box<dyn ReplicaProtocol>>>,
    messages_delivered: Arc<AtomicU64>,
    bytes_delivered: Arc<AtomicU64>,
    start: StdInstant,
}

impl ThreadedCluster {
    /// Spawns one thread per replica plus a router thread.
    ///
    /// `client_ids` lists the clients that will interact with the cluster
    /// through [`run_client`](Self::run_client).
    pub fn spawn(replicas: Vec<Box<dyn ReplicaProtocol>>, client_ids: &[ClientId]) -> Self {
        let start = StdInstant::now();
        // Router: fan-in channel carrying (destination, envelope).
        let (router_tx, router_rx) = unbounded::<(NodeId, Envelope)>();

        let mut replica_senders: HashMap<ReplicaId, Sender<ReplicaCommand>> = HashMap::new();
        let mut replica_handles = Vec::new();
        let mut client_senders: HashMap<ClientId, Sender<Envelope>> = HashMap::new();
        let mut client_inboxes = HashMap::new();
        for client in client_ids {
            let (tx, rx) = unbounded();
            client_senders.insert(*client, tx);
            client_inboxes.insert(*client, rx);
        }

        for replica in replicas {
            let id = replica.id();
            let (tx, rx) = unbounded::<ReplicaCommand>();
            replica_senders.insert(id, tx);
            let out = router_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("replica-{id}"))
                .spawn(move || {
                    driver::run_replica_loop(
                        replica,
                        &rx,
                        start,
                        RouterSink {
                            from: NodeId::Replica(id),
                            out,
                        },
                    )
                })
                .expect("spawn replica thread");
            replica_handles.push(handle);
        }

        // Router thread: moves envelopes to replica or client inboxes.
        let senders = replica_senders.clone();
        let messages_delivered = Arc::new(AtomicU64::new(0));
        let bytes_delivered = Arc::new(AtomicU64::new(0));
        let message_count = Arc::clone(&messages_delivered);
        let byte_count = Arc::clone(&bytes_delivered);
        let router = std::thread::Builder::new()
            .name("router".to_string())
            .spawn(move || {
                while let Ok((to, envelope)) = router_rx.recv() {
                    message_count.fetch_add(1, Ordering::Relaxed);
                    byte_count.fetch_add(envelope.message.wire_size() as u64, Ordering::Relaxed);
                    match to {
                        NodeId::Replica(id) => {
                            if let Some(tx) = senders.get(&id) {
                                let _ = tx.send(ReplicaCommand::Deliver {
                                    from: envelope.from,
                                    message: envelope.message,
                                });
                            }
                        }
                        NodeId::Client(id) => {
                            if let Some(tx) = client_senders.get(&id) {
                                let _ = tx.send(envelope);
                            }
                        }
                    }
                }
            })
            .expect("spawn router thread");

        ThreadedCluster {
            replica_senders,
            client_inboxes,
            client_outbox: router_tx,
            router: Some(router),
            replicas: replica_handles,
            messages_delivered,
            bytes_delivered,
            start,
        }
    }

    /// Crashes a replica (fail-stop).
    pub fn crash(&self, replica: ReplicaId) {
        if let Some(tx) = self.replica_senders.get(&replica) {
            let _ = tx.send(ReplicaCommand::Crash);
        }
    }

    /// Restarts a crashed replica with `core`, a fresh protocol core rebuilt
    /// from its durable store (see `seemore_store::Durability::recover`).
    /// The replica thread drops the dead incarnation (and its timers) and
    /// runs the new core's `on_start`, which announces the rejoin.
    pub fn recover(&self, replica: ReplicaId, core: Box<dyn ReplicaProtocol>) {
        assert_eq!(core.id(), replica, "recovery core built for the wrong id");
        if let Some(tx) = self.replica_senders.get(&replica) {
            let _ = tx.send(ReplicaCommand::Recover(core));
        }
    }

    /// Asks `replica` to announce a dynamic mode switch (SeeMoRe only; other
    /// cores ignore the request). This is how `Scenario::with_mode_switch`
    /// is delivered on the concurrent runtimes.
    pub fn request_mode_switch(&self, replica: ReplicaId, mode: Mode) {
        if let Some(tx) = self.replica_senders.get(&replica) {
            let _ = tx.send(ReplicaCommand::ModeSwitch { mode });
        }
    }

    /// The wall-clock epoch all protocol instants (timers, client outcome
    /// timestamps) are measured from.
    pub(crate) fn epoch(&self) -> StdInstant {
        self.start
    }

    /// Runs a closed-loop client on the calling thread: submits `requests`
    /// operations one after another and returns the outcomes.
    ///
    /// `make_op` is called with the request index to produce each operation
    /// payload plus its read/write classification (reads take the client's
    /// fast path).
    /// Different clients may run concurrently from different threads through
    /// a shared `&ThreadedCluster`.
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
        let inbox = self
            .client_inboxes
            .get(&client.id())
            .expect("client id not registered at spawn time");
        let from = NodeId::Client(client.id());
        let outcomes = driver::drive_client(
            &mut client,
            driver::DrivePlan {
                requests,
                timeout,
                start: self.start,
                abandon_at,
            },
            |wait| {
                inbox
                    .recv_timeout(wait)
                    .map(|envelope| (envelope.from, envelope.message))
            },
            |to, message| {
                let _ = self.client_outbox.send((to, Envelope { from, message }));
            },
            make_op,
        );
        (client, outcomes)
    }

    /// Messages and bytes delivered by the router so far (wire-size model —
    /// by the codec's size contract, also the bytes a real transport would
    /// have carried).
    pub fn traffic(&self) -> (u64, u64) {
        (
            self.messages_delivered.load(Ordering::Relaxed),
            self.bytes_delivered.load(Ordering::Relaxed),
        )
    }

    /// Shuts the cluster down and returns the replica cores for inspection.
    pub fn shutdown(mut self) -> Vec<Box<dyn ReplicaProtocol>> {
        for tx in self.replica_senders.values() {
            let _ = tx.send(ReplicaCommand::Shutdown);
        }
        let mut cores = Vec::new();
        for handle in self.replicas.drain(..) {
            if let Ok(core) = handle.join() {
                cores.push(core);
            }
        }
        drop(self.client_outbox.clone());
        self.replica_senders.clear();
        if let Some(router) = self.router.take() {
            // The router exits once every sender is dropped; detach it.
            drop(router);
        }
        cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_app::{KvOp, KvResult, KvStore};
    use seemore_core::client::ClientCore;
    use seemore_core::config::ProtocolConfig;
    use seemore_core::replica::SeeMoReReplica;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClusterConfig, Mode};

    #[test]
    fn threaded_cluster_serves_kv_requests() {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(99, cluster.total_size(), 1);
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
        let threaded = ThreadedCluster::spawn(replicas, &[client_id]);
        let client = ClientCore::new(
            client_id,
            cluster,
            keystore,
            Mode::Lion,
            Duration::from_millis(200),
        );
        let (_client, outcomes) = threaded.run_client(client, 4, Duration::from_secs(5), |i| {
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
        let (messages, bytes) = threaded.traffic();
        assert!(messages > 0);
        assert!(bytes > 0);
        let cores = threaded.shutdown();
        assert_eq!(cores.len(), cluster.total_size() as usize);
        // Every replica executed all four requests.
        for core in &cores {
            assert_eq!(core.executed().len(), 4, "replica {} lagging", core.id());
        }
    }

    #[test]
    fn clients_can_run_concurrently_through_a_shared_handle() {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(13, cluster.total_size(), 4);
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
        let client_ids: Vec<ClientId> = (0..4).map(ClientId).collect();
        let threaded = ThreadedCluster::spawn(replicas, &client_ids);
        let completed: usize = std::thread::scope(|scope| {
            let cluster_ref = &threaded;
            let keystore = &keystore;
            client_ids
                .iter()
                .map(|id| {
                    let client = ClientCore::new(
                        *id,
                        cluster,
                        keystore.clone(),
                        Mode::Lion,
                        Duration::from_millis(200),
                    );
                    scope.spawn(move || {
                        let (_, outcomes) =
                            cluster_ref.run_client(client, 3, Duration::from_secs(5), |i| {
                                (
                                    KvOp::Put {
                                        key: format!("k-{i}").into_bytes(),
                                        value: b"v".to_vec(),
                                    }
                                    .encode(),
                                    OpClass::Write,
                                )
                            });
                        outcomes.len()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(completed, 12);
        threaded.shutdown();
    }
}
