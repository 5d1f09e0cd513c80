//! Loopback end-to-end: the socket runtime runs the real protocol over real
//! TCP connections and produces the same per-slot histories as the
//! deterministic, sans-IO `SyncCluster` reference.
//!
//! For SeeMoRe in all three modes plus the CFT and BFT baselines, with
//! request batching enabled (`max_batch > 1`, so every proposal goes through
//! the batch-flush machinery) and a non-primary replica crashed mid-run:
//!
//! * a deterministic interleaved workload produces **identical per-slot
//!   histories** on the socket runtime and on `SyncCluster`, which delivers
//!   every message at once in FIFO order (same sequence numbers, same batch
//!   offsets, same request and result digests);
//! * a concurrent multi-client workload on the socket runtime keeps every
//!   live replica in per-slot agreement and completes every request, with
//!   nonzero bytes crossing real sockets — also when the view-0 primary
//!   crashes too and the survivors must change views.

use seemore::app::NoopApp;
use seemore::baselines::{BaselineClient, BaselineConfig, BftReplica, CftReplica};
use seemore::core::actions::Timer;
use seemore::core::batching::BatchConfig;
use seemore::core::check::{self, History};
use seemore::core::client::{ClientCore, ClientOutcome, ClientProtocol};
use seemore::core::config::ProtocolConfig;
use seemore::core::exec::ExecutedEntry;
use seemore::core::protocol::ReplicaProtocol;
use seemore::core::replica::SeeMoReReplica;
use seemore::core::testkit::SyncCluster;
use seemore::crypto::KeyStore;
use seemore::runtime::SocketCluster;
use seemore::types::OpClass;
use seemore::types::{ClientId, ClusterConfig, Duration, Mode, ReplicaId, View};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    primary: ReplicaId,
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
                primary,
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
            let primary = config.primary(View(0));
            let victim = ReplicaId(config.network_size - 1);
            assert_ne!(victim, primary);
            Deployment {
                replicas,
                clients,
                primary,
                crash_victim: victim,
            }
        }
    }
}

/// Rounds of the deterministic workload: each client submits once per round.
const ROUNDS: usize = 6;

/// Runs the deterministic interleaved workload over sockets: two clients
/// submit alternately (one outstanding request in the whole system at a
/// time), the crash victim fail-stops a third of the way in, and the
/// surviving replicas' histories come back for comparison.
fn run_deterministic(case: Case) -> Vec<(ReplicaId, Vec<ExecutedEntry>)> {
    let deployment = deploy(case, 2);
    let crash_victim = deployment.crash_victim;
    let client_ids: Vec<ClientId> = deployment.clients.iter().map(|c| c.id()).collect();
    let cluster = SocketCluster::spawn(deployment.replicas, &client_ids).expect("bind loopback");

    let mut clients = deployment.clients;
    let mut completed = 0usize;
    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            cluster.crash(crash_victim);
        }
        let mut next = Vec::with_capacity(clients.len());
        for client in clients {
            let op = format!("op-{}-{round}", client.id()).into_bytes();
            let (client, outcomes) = cluster.run_client(client, 1, Duration::from_secs(10), |_| {
                (op.clone(), OpClass::Write)
            });
            completed += outcomes.len();
            next.push(client);
        }
        clients = next;
    }
    assert_eq!(
        completed,
        ROUNDS * 2,
        "{} (socket): every request must complete despite the crash",
        case.name(),
    );

    cluster
        .shutdown()
        .into_iter()
        .filter(|core| core.id() != crash_victim)
        .map(|core| (core.id(), core.executed().to_vec()))
        .collect()
}

/// The same workload on the same cores, on the deterministic, sans-IO
/// `SyncCluster`: every message is delivered at once in FIFO order, and the
/// only timer fired is a primary's armed batch flush, which is what a
/// partial batch waits for on sockets too. No protocol timer (progress,
/// view change, client retransmission) ever fires, so this is the history a
/// fault-free network with no timeouts produces.
fn run_reference(case: Case) -> Vec<(ReplicaId, Vec<ExecutedEntry>)> {
    const LIMIT: u64 = 100_000;
    let deployment = deploy(case, 2);
    let crash_victim = deployment.crash_victim;
    let mut cluster = SyncCluster::new();
    for replica in deployment.replicas {
        cluster.add_replica(replica);
    }
    let client_ids: Vec<ClientId> = deployment.clients.iter().map(|c| c.id()).collect();
    for client in deployment.clients {
        cluster.add_client(client);
    }

    let mut completed = 0usize;
    for round in 0..ROUNDS {
        if round == ROUNDS / 3 {
            cluster.replica_mut(crash_victim).crash();
        }
        for &id in &client_ids {
            cluster.submit(id, format!("op-{id}-{round}").into_bytes());
            cluster.run_to_quiescence(LIMIT);
            while cluster.client(id).has_pending() {
                let flushes: Vec<(ReplicaId, Timer)> = cluster
                    .replica_ids()
                    .into_iter()
                    .flat_map(|r| cluster.armed_timers(r).into_iter().map(move |t| (r, t)))
                    .filter(|(_, timer)| matches!(timer, Timer::BatchFlush { .. }))
                    .collect();
                assert!(
                    !flushes.is_empty(),
                    "{} (reference): a request is stuck with no batch to flush",
                    case.name()
                );
                for (replica, timer) in flushes {
                    cluster.fire_timer(replica, timer);
                }
                cluster.run_to_quiescence(LIMIT);
            }
            completed += cluster.client_mut(id).take_completed().len();
        }
    }
    assert_eq!(
        completed,
        ROUNDS * 2,
        "{} (reference): every request must complete despite the crash",
        case.name(),
    );

    cluster
        .replica_ids()
        .into_iter()
        .filter(|&id| id != crash_victim)
        .map(|id| (id, cluster.replica(id).executed().to_vec()))
        .collect()
}

/// Borrows owned histories in the form the oracle takes.
fn view(histories: &[(ReplicaId, Vec<ExecutedEntry>)]) -> Vec<History<'_>> {
    histories
        .iter()
        .map(|(id, h)| (*id, h.as_slice()))
        .collect()
}

/// Acceptance: all three SeeMoRe modes plus both baselines complete the
/// loopback e2e over real TCP sockets, and their per-slot histories match
/// the deterministic `SyncCluster` reference's.
#[test]
fn socket_histories_match_the_sync_reference() {
    for case in ALL_CASES {
        let reference = run_reference(case);
        let reference = view(&reference);
        assert_eq!(check::safety(&reference, &[]), Ok(()), "{}", case.name());

        let histories = run_deterministic(case);
        let histories = view(&histories);
        assert_eq!(check::safety(&histories, &[]), Ok(()), "{}", case.name());
        assert_eq!(
            check::slots(check::canonical(&histories)),
            check::slots(check::canonical(&reference)),
            "{}: sockets and the reference executed different slots",
            case.name()
        );
    }
}

/// Concurrent clients over real sockets with batching and a crashed backup
/// (and, for Lion and Dog, the view-0 primary as well, so the survivors
/// must change views): liveness for every request, per-slot safety for
/// every live replica, and real bytes on the wire.
#[test]
fn concurrent_clients_over_sockets_stay_safe_under_a_crash() {
    for (case, primary_too) in [
        (Case::Lion, false),
        (Case::Dog, false),
        (Case::Bft, false),
        (Case::Lion, true),
        (Case::Dog, true),
    ] {
        const CLIENTS: u64 = 4;
        const PER_CLIENT: usize = 4;
        // A client broadcasts its request after this much silence, which a
        // crashed primary's backups need to notice it and change views.
        const PATIENCE: Duration = Duration::from_millis(500);
        let deployment = deploy(case, CLIENTS);
        let mut victims = vec![deployment.crash_victim];
        if primary_too {
            victims.push(deployment.primary);
        }
        let client_ids: Vec<ClientId> = deployment.clients.iter().map(|c| c.id()).collect();
        let cluster =
            SocketCluster::spawn(deployment.replicas, &client_ids).expect("bind loopback");

        let issued = AtomicUsize::new(0);
        let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
            let (cluster, victims, issued) = (&cluster, &victims, &issued);
            let handles: Vec<_> = deployment
                .clients
                .into_iter()
                .map(|client| {
                    scope.spawn(move || {
                        let id = client.id();
                        let (_, outcomes) = cluster.run_client(client, PER_CLIENT, PATIENCE, |i| {
                            // Crash the victims once half the workload
                            // is issued, so the rest runs without them.
                            let half = (CLIENTS as usize) * PER_CLIENT / 2;
                            if issued.fetch_add(1, Ordering::SeqCst) + 1 == half {
                                for &victim in victims {
                                    cluster.crash(victim);
                                }
                            }
                            (format!("op-{id}-{i}").into_bytes(), OpClass::Write)
                        });
                        outcomes
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(
            outcomes.len(),
            (CLIENTS as usize) * PER_CLIENT,
            "{}: every concurrent request must complete despite the crash",
            case.name()
        );

        let (messages, bytes) = cluster.traffic();
        assert!(messages > 0, "{}: no messages on the wire", case.name());
        assert!(bytes > 0, "{}: no bytes on the wire", case.name());

        let survivors: Vec<_> = cluster
            .shutdown()
            .into_iter()
            .filter(|core| !victims.contains(&core.id()))
            .collect();
        if primary_too {
            assert!(
                survivors.iter().any(|core| core.view() > View(0)),
                "{}: the primary's crash must force a view change",
                case.name()
            );
        }
        let histories: Vec<History> = survivors
            .iter()
            .map(|core| (core.id(), core.executed()))
            .collect();
        assert_eq!(
            check::safety(&histories, &outcomes),
            Ok(()),
            "{}",
            case.name()
        );
        // The canonical history must contain every submitted request exactly
        // once (batch atomicity: nothing lost, nothing duplicated).
        let canon = check::canonical(&histories);
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
