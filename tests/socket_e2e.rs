//! Loopback end-to-end: the socket runtime runs the real protocol over real
//! TCP connections and produces the same per-slot histories as the threaded
//! runtime.
//!
//! For SeeMoRe in all three modes plus the CFT and BFT baselines, with
//! request batching enabled (`max_batch > 1`, so every proposal goes through
//! the batch-flush machinery) and a non-primary replica crashed mid-run:
//!
//! * a deterministic interleaved workload produces **identical per-slot
//!   histories** on the socket runtime and the threaded runtime (same
//!   sequence numbers, same batch offsets, same request digests);
//! * a concurrent multi-client workload on the socket runtime keeps every
//!   live replica in per-slot agreement and completes every request, with
//!   nonzero bytes crossing real sockets.

use seemore::app::NoopApp;
use seemore::baselines::{BaselineClient, BaselineConfig, BftReplica, CftReplica};
use seemore::core::batching::BatchConfig;
use seemore::core::client::{ClientCore, ClientProtocol};
use seemore::core::config::ProtocolConfig;
use seemore::core::exec::ExecutedEntry;
use seemore::core::protocol::ReplicaProtocol;
use seemore::core::replica::SeeMoReReplica;
use seemore::core::{route_operation, RoutedClient, ShardGuard, ShardRouter};
use seemore::crypto::{Digest, KeyStore};
use seemore::runtime::{SocketCluster, SocketOptions, ThreadedCluster};
use seemore::types::OpClass;
use seemore::types::{
    ClientId, ClusterConfig, Duration, GroupId, Mode, NodeId, Partitioning, ReplicaId, SeqNum,
    ShardMap, View,
};
use std::collections::BTreeMap;

/// The five protocol deployments the acceptance criteria name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Lion,
    Dog,
    Peacock,
    Cft,
    Bft,
}

const ALL_CASES: [Case; 5] = [Case::Lion, Case::Dog, Case::Peacock, Case::Cft, Case::Bft];

impl Case {
    fn name(self) -> &'static str {
        match self {
            Case::Lion => "Lion",
            Case::Dog => "Dog",
            Case::Peacock => "Peacock",
            Case::Cft => "CFT",
            Case::Bft => "BFT",
        }
    }

    fn mode(self) -> Option<Mode> {
        match self {
            Case::Lion => Some(Mode::Lion),
            Case::Dog => Some(Mode::Dog),
            Case::Peacock => Some(Mode::Peacock),
            _ => None,
        }
    }
}

/// Batching on (`max_batch = 4`), short flush timer, sane socket timeouts.
fn pconfig() -> ProtocolConfig {
    ProtocolConfig {
        batch: BatchConfig::new(4, Duration::from_micros(500)).into(),
        ..ProtocolConfig::default()
    }
}

/// The replica cores, the view-0 primary, and a safe non-primary crash
/// victim (the highest-numbered replica, which is never the initial primary
/// in any of these deployments).
struct Deployment {
    replicas: Vec<Box<dyn ReplicaProtocol>>,
    clients: Vec<Box<dyn ClientProtocol>>,
    crash_victim: ReplicaId,
}

fn deploy(case: Case, client_count: u64) -> Deployment {
    let seed = 0x50C4E7;
    match case.mode() {
        Some(mode) => {
            let cluster = ClusterConfig::minimal(1, 1).expect("valid cluster");
            let keystore = KeyStore::generate(seed, cluster.total_size(), client_count);
            let replicas: Vec<Box<dyn ReplicaProtocol>> = cluster
                .replicas()
                .map(|r| {
                    Box::new(SeeMoReReplica::new(
                        r,
                        cluster,
                        pconfig(),
                        keystore.clone(),
                        mode,
                        Box::new(NoopApp::new(8)),
                    )) as Box<dyn ReplicaProtocol>
                })
                .collect();
            let clients = (0..client_count)
                .map(|c| {
                    Box::new(ClientCore::new(
                        ClientId(c),
                        cluster,
                        keystore.clone(),
                        mode,
                        Duration::from_millis(500),
                    )) as Box<dyn ClientProtocol>
                })
                .collect();
            let primary = cluster.primary(mode, View(0)).expect("view-0 primary");
            let victim = ReplicaId(cluster.total_size() - 1);
            assert_ne!(victim, primary, "crash victim must not be the primary");
            Deployment {
                replicas,
                clients,
                crash_victim: victim,
            }
        }
        None => {
            let config = match case {
                Case::Cft => BaselineConfig::cft(2),
                _ => BaselineConfig::bft(2),
            };
            let keystore = KeyStore::generate(seed, config.network_size, client_count);
            let replicas: Vec<Box<dyn ReplicaProtocol>> = config
                .replicas()
                .map(|r| match case {
                    Case::Cft => Box::new(CftReplica::new(
                        r,
                        config,
                        pconfig(),
                        Box::new(NoopApp::new(8)),
                    )) as Box<dyn ReplicaProtocol>,
                    _ => Box::new(BftReplica::new(
                        r,
                        config,
                        pconfig(),
                        keystore.clone(),
                        Box::new(NoopApp::new(8)),
                    )) as Box<dyn ReplicaProtocol>,
                })
                .collect();
            let clients = (0..client_count)
                .map(|c| {
                    Box::new(BaselineClient::new(
                        ClientId(c),
                        config,
                        keystore.clone(),
                        Duration::from_millis(500),
                    )) as Box<dyn ClientProtocol>
                })
                .collect();
            let victim = ReplicaId(config.network_size - 1);
            assert_ne!(victim, config.primary(View(0)));
            Deployment {
                replicas,
                clients,
                crash_victim: victim,
            }
        }
    }
}

/// The concurrent runtime flavors under comparison: in-memory channels,
/// sockets with a private endpoint per client (the configuration
/// `BENCHMARK.json` runs), and sockets with every client
/// multiplexed through the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flavor {
    Threaded,
    Socket,
    SocketMux,
}

impl Flavor {
    fn name(self) -> &'static str {
        match self {
            Flavor::Threaded => "threaded",
            Flavor::Socket => "socket",
            Flavor::SocketMux => "socket-mux",
        }
    }

    fn options(self) -> SocketOptions {
        SocketOptions {
            client_mux: self == Flavor::SocketMux,
        }
    }
}

/// The concurrent runtimes behind one driving interface.
enum Harness {
    Threaded(ThreadedCluster),
    Socket(SocketCluster),
}

impl Harness {
    fn spawn(
        flavor: Flavor,
        replicas: Vec<Box<dyn ReplicaProtocol>>,
        clients: &[ClientId],
    ) -> Self {
        match flavor {
            Flavor::Threaded => Harness::Threaded(ThreadedCluster::spawn(replicas, clients)),
            _ => Harness::Socket(
                SocketCluster::spawn_with(replicas, clients, flavor.options())
                    .expect("bind loopback"),
            ),
        }
    }

    fn crash(&self, replica: ReplicaId) {
        match self {
            Harness::Threaded(c) => c.crash(replica),
            Harness::Socket(c) => c.crash(replica),
        }
    }

    fn run_one(
        &self,
        client: Box<dyn ClientProtocol>,
        op: Vec<u8>,
    ) -> (Box<dyn ClientProtocol>, usize) {
        let timeout = Duration::from_secs(10);
        let (client, outcomes) = match self {
            Harness::Threaded(c) => {
                c.run_client(client, 1, timeout, |_| (op.clone(), OpClass::Write))
            }
            Harness::Socket(c) => {
                c.run_client(client, 1, timeout, |_| (op.clone(), OpClass::Write))
            }
        };
        (client, outcomes.len())
    }

    fn shutdown(self) -> Vec<Box<dyn ReplicaProtocol>> {
        match self {
            Harness::Threaded(c) => c.shutdown(),
            Harness::Socket(c) => c.shutdown(),
        }
    }
}

/// Runs the deterministic interleaved workload: two clients submit
/// alternately (one outstanding request in the whole system at a time), the
/// crash victim fail-stops a third of the way in, and the surviving
/// replicas' histories come back for comparison.
fn run_deterministic(case: Case, flavor: Flavor) -> Vec<(ReplicaId, Vec<ExecutedEntry>)> {
    const ROUNDS: usize = 6;
    let deployment = deploy(case, 2);
    let crash_victim = deployment.crash_victim;
    let client_ids: Vec<ClientId> = deployment.clients.iter().map(|c| c.id()).collect();
    let harness = Harness::spawn(flavor, deployment.replicas, &client_ids);

    let mut clients = deployment.clients;
    let mut completed = 0usize;
    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            harness.crash(crash_victim);
        }
        let mut next = Vec::with_capacity(clients.len());
        for client in clients {
            let id = client.id();
            let (client, done) = harness.run_one(client, format!("op-{id}-{round}").into_bytes());
            completed += done;
            next.push(client);
        }
        clients = next;
    }
    assert_eq!(
        completed,
        ROUNDS * 2,
        "{} ({}): every request must complete despite the crash",
        case.name(),
        flavor.name(),
    );

    harness
        .shutdown()
        .into_iter()
        .filter(|core| core.id() != crash_victim)
        .map(|core| (core.id(), core.executed().to_vec()))
        .collect()
}

/// Per-slot view of a history: sequence number → ordered request digests.
fn slot_map(history: &[ExecutedEntry]) -> BTreeMap<SeqNum, Vec<Digest>> {
    let mut slots: BTreeMap<SeqNum, Vec<Digest>> = BTreeMap::new();
    for entry in history {
        slots.entry(entry.seq).or_default().push(entry.digest);
    }
    slots
}

/// Within one runtime's histories: every pair of live replicas (all pairs,
/// not just adjacent ones — a replica missing a slot must not mask
/// divergence between its neighbours) agrees on every slot both executed.
fn assert_internal_agreement(case: Case, histories: &[(ReplicaId, Vec<ExecutedEntry>)]) {
    let maps: Vec<(ReplicaId, BTreeMap<SeqNum, Vec<Digest>>)> = histories
        .iter()
        .map(|(id, history)| (*id, slot_map(history)))
        .collect();
    for (i, (id_a, a)) in maps.iter().enumerate() {
        for (id_b, b) in maps.iter().skip(i + 1) {
            for (seq, digests) in a {
                if let Some(other) = b.get(seq) {
                    assert_eq!(
                        digests,
                        other,
                        "{}: {id_a} and {id_b} diverge at {seq}",
                        case.name()
                    );
                }
            }
        }
    }
}

/// The longest (most complete) history of a run, as the run's canonical
/// execution order.
fn canonical(histories: &[(ReplicaId, Vec<ExecutedEntry>)]) -> Vec<ExecutedEntry> {
    histories
        .iter()
        .map(|(_, h)| h.clone())
        .max_by_key(|h| h.len())
        .expect("at least one live replica")
}

/// Acceptance: all three SeeMoRe modes plus both baselines complete the
/// loopback e2e over real TCP sockets — with private client endpoints *and*
/// with clients multiplexed through the hub — and their per-slot histories
/// match the threaded runtime's.
#[test]
fn socket_histories_match_threaded_histories() {
    for case in ALL_CASES {
        let threaded = run_deterministic(case, Flavor::Threaded);
        assert_internal_agreement(case, &threaded);
        let threaded_canon = canonical(&threaded);

        for flavor in [Flavor::Socket, Flavor::SocketMux] {
            let histories = run_deterministic(case, flavor);
            assert_internal_agreement(case, &histories);
            let canon = canonical(&histories);
            assert_eq!(
                canon.len(),
                threaded_canon.len(),
                "{} ({}): history lengths differ",
                case.name(),
                flavor.name()
            );
            for (s, t) in canon.iter().zip(threaded_canon.iter()) {
                assert_eq!(
                    (s.seq, s.offset, s.request, s.digest),
                    (t.seq, t.offset, t.request, t.digest),
                    "{} ({}): runtimes ordered requests differently",
                    case.name(),
                    flavor.name()
                );
            }
        }
    }
}

/// Concurrent clients over real sockets with batching and a crashed backup:
/// liveness for every request, per-slot safety for every live replica, and
/// real bytes on the wire.
#[test]
fn concurrent_clients_over_sockets_stay_safe_under_a_crash() {
    for (case, flavor) in [
        (Case::Lion, Flavor::Socket),
        (Case::Dog, Flavor::Socket),
        (Case::Bft, Flavor::Socket),
        (Case::Lion, Flavor::SocketMux),
        (Case::Dog, Flavor::SocketMux),
        (Case::Bft, Flavor::SocketMux),
    ] {
        const CLIENTS: u64 = 4;
        const PER_CLIENT: usize = 4;
        let deployment = deploy(case, CLIENTS);
        let crash_victim = deployment.crash_victim;
        let client_ids: Vec<ClientId> = deployment.clients.iter().map(|c| c.id()).collect();
        let cluster = SocketCluster::spawn_with(deployment.replicas, &client_ids, flavor.options())
            .expect("bind loopback");

        let completed: usize = std::thread::scope(|scope| {
            let cluster = &cluster;
            // Crash the backup while the clients are mid-workload.
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                cluster.crash(crash_victim);
            });
            let handles: Vec<_> = deployment
                .clients
                .into_iter()
                .map(|client| {
                    scope.spawn(move || {
                        let id = client.id();
                        let (_, outcomes) =
                            cluster.run_client(client, PER_CLIENT, Duration::from_secs(10), |i| {
                                (format!("op-{id}-{i}").into_bytes(), OpClass::Write)
                            });
                        outcomes.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(
            completed,
            (CLIENTS as usize) * PER_CLIENT,
            "{}: every concurrent request must complete despite the crash",
            case.name()
        );

        let (messages, bytes) = cluster.traffic();
        assert!(messages > 0, "{}: no messages on the wire", case.name());
        assert!(bytes > 0, "{}: no bytes on the wire", case.name());

        let histories: Vec<(ReplicaId, Vec<ExecutedEntry>)> = cluster
            .shutdown()
            .into_iter()
            .filter(|core| core.id() != crash_victim)
            .map(|core| (core.id(), core.executed().to_vec()))
            .collect();
        assert_internal_agreement(case, &histories);
        // The canonical history must contain every submitted request exactly
        // once (batch atomicity: nothing lost, nothing duplicated).
        let canon = canonical(&histories);
        let mut ids: Vec<_> = canon.iter().map(|e| e.request).collect();
        let total = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), total, "{}: duplicated execution", case.name());
        assert_eq!(
            total,
            (CLIENTS as usize) * PER_CLIENT,
            "{}: canonical history incomplete",
            case.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded multi-group deployments over real sockets.
// ---------------------------------------------------------------------------

/// One live socket-backed SeeMoRe group of a sharded deployment: its
/// cluster, key material, view-0 primary, and one client core per physical
/// client (every client is registered with every group).
struct SocketShard {
    cluster: SocketCluster,
    keystore: KeyStore,
    primary: ReplicaId,
    clients: Vec<Option<Box<dyn ClientProtocol>>>,
}

/// Spawns `groups` independent Lion groups over loopback TCP, each replica
/// wrapped in a [`ShardGuard`] enforcing `map`.
fn deploy_sharded(groups: u32, map: &ShardMap, client_count: u64) -> Vec<SocketShard> {
    (0..groups)
        .map(|g| {
            let group = GroupId(g);
            let seed = 0x50C4E7 ^ (u64::from(g) + 1).wrapping_mul(0x9E3779B97F4A7C15);
            let cluster_config = ClusterConfig::minimal(1, 1).expect("valid cluster");
            let keystore = KeyStore::generate(seed, cluster_config.total_size(), client_count);
            let replicas: Vec<Box<dyn ReplicaProtocol>> = cluster_config
                .replicas()
                .map(|r| {
                    let inner = Box::new(SeeMoReReplica::new(
                        r,
                        cluster_config,
                        pconfig(),
                        keystore.clone(),
                        Mode::Lion,
                        Box::new(NoopApp::new(8)),
                    )) as Box<dyn ReplicaProtocol>;
                    let signer = keystore
                        .signer_for(NodeId::Replica(r))
                        .expect("replica signer");
                    Box::new(ShardGuard::new(inner, group, map.clone(), signer))
                        as Box<dyn ReplicaProtocol>
                })
                .collect();
            let clients: Vec<Option<Box<dyn ClientProtocol>>> = (0..client_count)
                .map(|c| {
                    Some(Box::new(ClientCore::new(
                        ClientId(c),
                        cluster_config,
                        keystore.clone(),
                        Mode::Lion,
                        Duration::from_millis(500),
                    )) as Box<dyn ClientProtocol>)
                })
                .collect();
            let client_ids: Vec<ClientId> = (0..client_count).map(ClientId).collect();
            let cluster =
                SocketCluster::spawn_with(replicas, &client_ids, Flavor::Socket.options())
                    .expect("bind loopback");
            SocketShard {
                cluster,
                keystore,
                primary: cluster_config
                    .primary(Mode::Lion, View(0))
                    .expect("primary"),
                clients,
            }
        })
        .collect()
}

/// Routes one operation to completion through a sharded deployment: submit
/// to the group the router's cached map names, follow at most two verified
/// redirects. Returns the group that executed the operation.
fn route_to_completion(
    shards: &mut [SocketShard],
    router: &mut ShardRouter,
    client: usize,
    op: &[u8],
) -> GroupId {
    for _ in 0..3 {
        let g = router.route(op);
        let core = shards[g.as_usize()].clients[client]
            .take()
            .expect("client core in place");
        let attempt = RoutedClient::new(core, g, router);
        let (attempt, outcomes) =
            shards[g.as_usize()]
                .cluster
                .run_client(attempt, 1, Duration::from_secs(10), |_| {
                    (op.to_vec(), OpClass::Write)
                });
        let redirected = attempt.redirected();
        shards[g.as_usize()].clients[client] = Some(attempt.into_inner());
        if !redirected {
            assert_eq!(outcomes.len(), 1, "request must complete once routed");
            return g;
        }
        assert!(
            outcomes.is_empty(),
            "a redirected attempt completes nothing"
        );
    }
    panic!("operation failed to settle within the redirect hop budget");
}

/// Shuts a sharded deployment down and returns each group's live-replica
/// histories.
fn shard_histories(
    shards: Vec<SocketShard>,
    crashed: &[(GroupId, ReplicaId)],
) -> Vec<Vec<(ReplicaId, Vec<ExecutedEntry>)>> {
    shards
        .into_iter()
        .enumerate()
        .map(|(g, shard)| {
            shard
                .cluster
                .shutdown()
                .into_iter()
                .filter(|core| !crashed.contains(&(GroupId(g as u32), core.id())))
                .map(|core| (core.id(), core.executed().to_vec()))
                .collect()
        })
        .collect()
}

/// Two Lion groups over real sockets, clients routing with the
/// authoritative map: every group reaches internal per-slot agreement, and
/// every operation executes in exactly the group that owns its key.
#[test]
fn two_shard_groups_agree_per_slot_and_partition_the_keyspace() {
    const CLIENTS: u64 = 2;
    const ROUNDS: usize = 6;
    let map = ShardMap::uniform(2);
    let mut shards = deploy_sharded(2, &map, CLIENTS);
    let keystores: Vec<KeyStore> = shards.iter().map(|s| s.keystore.clone()).collect();
    let mut routers: Vec<ShardRouter> = (0..CLIENTS)
        .map(|_| ShardRouter::new(map.clone(), keystores.clone()))
        .collect();

    let mut owned = [0usize; 2];
    for round in 0..ROUNDS {
        for (client, router) in routers.iter_mut().enumerate() {
            let op = format!("shard-op-{client}-{round}").into_bytes();
            let executed_in = route_to_completion(&mut shards, router, client, &op);
            assert_eq!(
                executed_in,
                route_operation(&map, &op),
                "operations must land in the owner group"
            );
            owned[executed_in.as_usize()] += 1;
        }
        // A correct map never triggers a redirect.
        for router in &routers {
            assert_eq!(router.redirects_followed(), 0);
        }
    }
    assert!(
        owned[0] > 0 && owned[1] > 0,
        "workload must hit both groups"
    );

    let histories = shard_histories(shards, &[]);
    for (g, group_histories) in histories.iter().enumerate() {
        assert_internal_agreement(Case::Lion, group_histories);
        assert_eq!(
            canonical(group_histories).len(),
            owned[g],
            "group {g} must execute exactly its owned operations"
        );
    }
}

/// Clients seeded with a stale version-1 map that routes everything to
/// group 0, against an authority running a newer hash partition: the first
/// misrouted key comes back as a signed redirect, the router adopts the
/// newer map, and every operation still executes exactly once, in its owner
/// group — the wrong group refuses *before* consensus, so nothing is ever
/// executed twice.
#[test]
fn stale_maps_redirect_to_exactly_once_execution() {
    const CLIENTS: u64 = 2;
    const ROUNDS: usize = 6;
    let authority = ShardMap {
        version: 2,
        partitioning: Partitioning::Hash { groups: 2 },
    };
    let stale = ShardMap::uniform(1);
    assert!(stale.is_older_than(&authority));

    let mut shards = deploy_sharded(2, &authority, CLIENTS);
    let keystores: Vec<KeyStore> = shards.iter().map(|s| s.keystore.clone()).collect();
    let mut routers: Vec<ShardRouter> = (0..CLIENTS)
        .map(|_| ShardRouter::new(stale.clone(), keystores.clone()))
        .collect();

    let mut owned = [0usize; 2];
    let mut submitted = 0usize;
    for round in 0..ROUNDS {
        for (client, router) in routers.iter_mut().enumerate() {
            let op = format!("stale-op-{client}-{round}").into_bytes();
            let executed_in = route_to_completion(&mut shards, router, client, &op);
            assert_eq!(executed_in, route_operation(&authority, &op));
            owned[executed_in.as_usize()] += 1;
            submitted += 1;
        }
    }
    // At least one client started on a key group 0 does not own, followed
    // the redirect, and adopted the authority map.
    let followed: u64 = routers.iter().map(|r| r.redirects_followed()).sum();
    let adopted: u64 = routers.iter().map(|r| r.maps_adopted()).sum();
    assert!(
        followed > 0,
        "the stale map must cause at least one redirect"
    );
    assert!(
        adopted > 0,
        "a followed redirect must deliver the newer map"
    );
    for router in &routers {
        assert_eq!(router.redirects_rejected(), 0);
        assert_eq!(router.map().version, authority.version);
    }
    assert!(owned[1] > 0, "group 1 is only reachable through a redirect");

    // Exactly-once: across BOTH groups every request digest appears once,
    // and each group executed precisely the operations it owns.
    let histories = shard_histories(shards, &[]);
    let mut all_digests: Vec<Digest> = Vec::new();
    for (g, group_histories) in histories.iter().enumerate() {
        assert_internal_agreement(Case::Lion, group_histories);
        let canon = canonical(group_histories);
        assert_eq!(canon.len(), owned[g], "group {g} over- or under-executed");
        all_digests.extend(canon.iter().map(|e| e.digest));
    }
    let total = all_digests.len();
    all_digests.sort();
    all_digests.dedup();
    assert_eq!(all_digests.len(), total, "cross-group duplicate execution");
    assert_eq!(total, submitted, "every submitted operation executed once");
}

/// Fault isolation: crashing shard A's primary (forcing a view change in
/// that group) must leave shard B's execution history bit-identical to a
/// run without the crash — groups share no protocol state, so a view change
/// is a strictly group-local event.
#[test]
fn a_view_change_in_one_shard_leaves_the_other_bit_identical() {
    const CLIENTS: u64 = 2;
    const ROUNDS: usize = 6;

    let run = |crash_group_zero: bool| -> Vec<Vec<(ReplicaId, Vec<ExecutedEntry>)>> {
        let map = ShardMap::uniform(2);
        let mut shards = deploy_sharded(2, &map, CLIENTS);
        let keystores: Vec<KeyStore> = shards.iter().map(|s| s.keystore.clone()).collect();
        let mut routers: Vec<ShardRouter> = (0..CLIENTS)
            .map(|_| ShardRouter::new(map.clone(), keystores.clone()))
            .collect();
        let mut crashed = Vec::new();
        for round in 0..ROUNDS {
            if crash_group_zero && round == ROUNDS / 3 {
                let primary = shards[0].primary;
                shards[0].cluster.crash(primary);
                crashed.push((GroupId(0), primary));
            }
            for (client, router) in routers.iter_mut().enumerate() {
                let op = format!("iso-op-{client}-{round}").into_bytes();
                route_to_completion(&mut shards, router, client, &op);
            }
        }
        shard_histories(shards, &crashed)
    };

    let crashed = run(true);
    let control = run(false);

    // Shard A survived its primary crash (the view change completed and the
    // remaining operations executed) ...
    assert_internal_agreement(Case::Lion, &crashed[0]);
    assert_eq!(
        canonical(&crashed[0]).len(),
        canonical(&control[0]).len(),
        "shard A must finish its workload despite the view change"
    );
    // ... and shard B never noticed: its canonical history is identical in
    // sequence numbers, batch offsets, request ids and digests.
    let b_crashed = canonical(&crashed[1]);
    let b_control = canonical(&control[1]);
    assert_eq!(b_crashed.len(), b_control.len());
    for (a, b) in b_crashed.iter().zip(b_control.iter()) {
        assert_eq!(
            (a.seq, a.offset, a.request, a.digest),
            (b.seq, b.offset, b.request, b.digest),
            "shard B's history must be bit-identical across the crash"
        );
    }
}
