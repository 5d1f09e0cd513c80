//! Crash-recover-rejoin end to end.
//!
//! A replica is killed mid-run and later restarted from its durable store
//! (last persisted checkpoint plus the write-ahead-log suffix), rejoining
//! via the recovery announcement and state transfer:
//!
//! * on the deterministic simulator, for SeeMoRe in all three modes plus
//!   the CFT and BFT baselines, the run with a crash-recover schedule
//!   produces **per-slot histories identical to a no-crash control**;
//! * on the socket runtime the restarted replica really is torn down and
//!   rebuilt from the store on its own thread, and the telemetry rollup
//!   shows the completed recovery;
//! * a kill-9 torn WAL tail (the store's fault-injection hook) is repaired
//!   at recovery and the replica still rejoins without a safety violation;
//! * a Lion cluster on the socket runtime with a file store per replica
//!   (group commit: one sync per replica loop turn) restarts a replica from
//!   its files, and the histories pass the safety oracle.

use seemore::app::{KvOp, KvStore, NoopApp};
use seemore::core::actions::{Action, Timer};
use seemore::core::check::{self, History};
use seemore::core::client::ClientCore;
use seemore::core::config::ProtocolConfig;
use seemore::core::exec::ExecutedEntry;
use seemore::core::replica::SeeMoReReplica;
use seemore::core::testkit::SyncCluster;
use seemore::core::{ReplicaMetrics, ReplicaProtocol};
use seemore::crypto::KeyStore;
use seemore::net::{CpuModel, LatencyModel};
use seemore::runtime::scenario::{CrashRecover, DurabilityKind};
use seemore::runtime::{ProtocolKind, RuntimeKind, Scenario, SocketCluster};
use seemore::store::{FileStore, MemStore, StoreConfig};
use seemore::telemetry::{EventKind, RingRecorder, TraceEvent};
use seemore::types::{
    ClientId, ClusterConfig, Duration, Instant, Mode, NodeId, OpClass, ReplicaId, SeqNum, View,
};
use seemore::wire::{Checkpoint, Message};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The protocols the acceptance criteria name: SeeMoRe in all three modes
/// plus both baselines.
const CASES: [ProtocolKind; 5] = [
    ProtocolKind::SeeMoReLion,
    ProtocolKind::SeeMoReDog,
    ProtocolKind::SeeMoRePeacock,
    ProtocolKind::Cft,
    ProtocolKind::Bft,
];

#[test]
fn simulated_crash_recover_matches_a_no_crash_control() {
    for protocol in CASES {
        // The highest-numbered replica is never the view-0 primary in any
        // of these deployments, so the crash exercises rejoin without also
        // forcing a view change.
        let victim = ReplicaId(protocol.network_size(1, 1) - 1);
        // Pin the timing models so the comparison is exact: with zero CPU
        // cost, jitter-free links and no link faults the simulator draws no
        // randomness per delivery and no node's busy-queue shifts, so
        // removing the victim's messages (and adding the recovery
        // exchange) cannot perturb when anyone else's events fire — the
        // surviving timeline is event-identical to the control's.
        let base = || {
            Scenario::new(protocol, 1, 1)
                .with_clients(4)
                .with_duration(Duration::from_millis(300), Duration::from_millis(20))
                .with_latency(LatencyModel::same_region().without_jitter())
                .with_cpu(CpuModel {
                    per_message: Duration::ZERO,
                    per_kilobyte: Duration::ZERO,
                    per_signature: Duration::ZERO,
                })
                .with_durability(DurabilityKind::Memory)
        };

        let scenario = base().with_crash_recover(CrashRecover::replica(
            victim,
            Instant::from_nanos(80_000_000),
            Instant::from_nanos(160_000_000),
        ));
        let (mut sim, _) = scenario.build();
        sim.run_until(Instant::ZERO + scenario.duration);
        let report = sim.report(Instant::ZERO + scenario.warmup, scenario.timeline_bucket);
        assert!(
            report.completed > 0,
            "{}: no progress through the crash",
            protocol.name()
        );

        let histories: Vec<History> = sim
            .replica_ids()
            .into_iter()
            .map(|id| (id, sim.replica(id).executed()))
            .collect();
        assert_eq!(
            check::safety(&histories, sim.completions()),
            Ok(()),
            "{}",
            protocol.name()
        );

        // The no-crash control, durability included so the runs differ only
        // in the schedule, executes the same requests with the same results
        // at the same slots.
        let control_scenario = base();
        let (mut control, _) = control_scenario.build();
        control.run_until(Instant::ZERO + control_scenario.duration);
        let control_histories: Vec<History> = control
            .replica_ids()
            .into_iter()
            .map(|id| (id, control.replica(id).executed()))
            .collect();
        let control_slots = check::slots(check::canonical(&control_histories));
        for (seq, slot) in check::slots(check::canonical(&histories)) {
            assert_eq!(
                Some(&slot),
                control_slots.get(&seq),
                "{}: slot {seq} differs from the no-crash control",
                protocol.name()
            );
        }

        // The victim really rejoined: it caught back up to exactly where
        // the same replica stands in the control run (public replicas
        // naturally trail the trusted tier by the in-flight window at run
        // end, so the control's own victim is the right yardstick).
        let victim_history = histories
            .iter()
            .find(|(id, _)| *id == victim)
            .map(|&(_, h)| h)
            .expect("victim history");
        assert!(
            !victim_history.is_empty(),
            "{}: recovered replica executed nothing",
            protocol.name()
        );
        let victim_max = victim_history
            .iter()
            .map(|e| e.seq)
            .max()
            .expect("nonempty");
        let control_victim_max = control
            .replica(victim)
            .executed()
            .iter()
            .map(|e| e.seq)
            .max()
            .expect("control victim executed");
        assert_eq!(
            victim_max,
            control_victim_max,
            "{}: recovered replica stalled short of its no-crash self",
            protocol.name()
        );
    }
}

#[test]
fn concurrent_runtimes_tear_down_and_rejoin_a_crashed_replica() {
    // Every protocol over real TCP, so the shared rejoin code is driven
    // through all three state-adoption rules: the first response (CFT), the
    // trusted tier only (SeeMoRe), `f + 1` matching responses (BFT,
    // S-UpRight).
    for protocol in CASES.into_iter().chain([ProtocolKind::SUpright]) {
        let victim = ReplicaId(protocol.network_size(1, 1) - 1);
        let report = Scenario::new(protocol, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(500), Duration::from_millis(10))
            .with_runtime(RuntimeKind::Socket)
            .with_tracing(true)
            .with_crash_recover(CrashRecover::replica(
                victim,
                Instant::from_nanos(100_000_000),
                Instant::from_nanos(200_000_000),
            ))
            .run();
        let label = protocol.name();
        assert!(report.completed > 0, "{label}: no progress");
        let health = report
            .health
            .iter()
            .find(|h| h.replica == victim)
            .expect("victim health rollup");
        assert!(
            health.recoveries >= 1,
            "{label}: the victim never completed its rejoin"
        );
    }
}

#[test]
fn socket_runtime_buffers_pre_rejoin_traffic_instead_of_stalling() {
    // Regression: a recovering replica receives live protocol traffic the
    // moment its announcement goes out (the socket mesh never went down).
    // Those messages must be buffered and replayed after the rejoin — a
    // recovering core that silently dropped them would come back
    // permanently behind and the health rollup would show no completed
    // recovery. A long post-recovery window with ongoing client load drives
    // exactly that interleaving over real TCP.
    let victim = ReplicaId(ProtocolKind::SeeMoReLion.network_size(1, 1) - 1);
    let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
        .with_clients(4)
        .with_duration(Duration::from_millis(600), Duration::from_millis(10))
        .with_runtime(RuntimeKind::Socket)
        .with_tracing(true)
        .with_crash_recover(CrashRecover::replica(
            victim,
            Instant::from_nanos(120_000_000),
            Instant::from_nanos(240_000_000),
        ))
        .run();
    assert!(report.completed > 0);
    let health = report
        .health
        .iter()
        .find(|h| h.replica == victim)
        .expect("victim health rollup");
    assert!(
        health.recoveries >= 1,
        "rejoin must complete under live traffic (buffered, not dropped)"
    );
}

#[test]
fn torn_wal_tail_is_repaired_and_the_replica_still_rejoins() {
    // Kill-9 model: the victim's store catches an append mid-write (the
    // tail frame is corrupted), the replica restarts from that store, and
    // the recovery path must treat the torn record as never written —
    // rejoining cleanly with no divergence from the live replicas.
    let cluster_config = ClusterConfig::minimal(1, 1).expect("valid cluster");
    let keystore = KeyStore::generate(0xD15C, cluster_config.total_size(), 1);
    let pconfig = ProtocolConfig::default();
    let mut cluster = SyncCluster::new();
    let mut stores: BTreeMap<ReplicaId, Arc<MemStore>> = BTreeMap::new();
    for replica in cluster_config.replicas() {
        let store = Arc::new(MemStore::new(StoreConfig::default()));
        let mut core = SeeMoReReplica::new(
            replica,
            cluster_config,
            pconfig,
            keystore.clone(),
            Mode::Lion,
            Box::new(NoopApp::new(0)),
        );
        core.set_store(store.clone());
        stores.insert(replica, store);
        cluster.add_replica(Box::new(core));
    }
    cluster.add_client(ClientCore::new(
        ClientId(0),
        cluster_config,
        keystore.clone(),
        Mode::Lion,
        pconfig.client_timeout,
    ));
    let victim = ReplicaId(cluster_config.total_size() - 1);

    for i in 0..6 {
        cluster.submit(ClientId(0), format!("pre-{i}").into_bytes());
        cluster.run_to_quiescence(100_000);
    }
    let store = stores.get(&victim).expect("victim store").clone();
    assert!(store.wal_records() > 0, "votes must be in the WAL");

    // Fail-stop the victim, let the cluster commit entries it misses, then
    // tear the last WAL frame as a kill-9 mid-append would.
    cluster.isolate(victim);
    for i in 0..4 {
        cluster.submit(ClientId(0), format!("miss-{i}").into_bytes());
        cluster.run_to_quiescence(100_000);
    }
    store.corrupt_wal_tail(3);

    let recovered = SeeMoReReplica::recover(
        victim,
        cluster_config,
        pconfig,
        keystore.clone(),
        Mode::Lion,
        Box::new(NoopApp::new(0)),
        store,
    );
    cluster.restart(victim, Box::new(recovered));
    cluster.run_to_quiescence(100_000);

    for i in 0..4 {
        cluster.submit(ClientId(0), format!("post-{i}").into_bytes());
        cluster.run_to_quiescence(100_000);
    }

    let histories: Vec<History> = cluster
        .replica_ids()
        .into_iter()
        .map(|id| (id, cluster.replica(id).executed()))
        .collect();
    let outcomes = cluster.client(ClientId(0)).completed();
    assert_eq!(check::safety(&histories, outcomes), Ok(()), "torn-tail");
    let victim_history = histories
        .iter()
        .find(|(id, _)| *id == victim)
        .map(|&(_, h)| h)
        .expect("victim history");
    let max_slot = histories
        .iter()
        .flat_map(|(_, h)| h.iter().map(|e| e.seq))
        .max()
        .expect("cluster executed something");
    assert_eq!(
        victim_history.iter().map(|e| e.seq).max(),
        Some(max_slot),
        "the recovered replica must execute the post-recovery slots"
    );
}

#[test]
fn socket_lion_on_file_stores_restarts_a_replica_from_its_files() {
    // The replica loop's group commit on real files: every replica of a
    // Lion cluster syncs its `FileStore` once per turn, one of them is
    // crashed and rebuilt from what its files hold, and it must rejoin
    // without contradicting anything it voted before the crash.
    let dir = std::env::temp_dir().join(format!("seemore-recovery-file-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_of = |replica: ReplicaId| {
        let path = dir.join(format!("replica-{}", replica.0));
        Arc::new(FileStore::open(path, StoreConfig::default()).expect("open store dir"))
    };
    let cluster_config = ClusterConfig::minimal(1, 1).expect("valid cluster");
    let keystore = KeyStore::generate(0xF11E, cluster_config.total_size(), 1);
    let pconfig = ProtocolConfig::with_checkpoint_period(8);
    let replica = |id: ReplicaId| {
        SeeMoReReplica::new(
            id,
            cluster_config,
            pconfig,
            keystore.clone(),
            Mode::Lion,
            Box::new(KvStore::new()),
        )
    };
    let cores: Vec<Box<dyn ReplicaProtocol>> = cluster_config
        .replicas()
        .map(|id| {
            let mut core = replica(id);
            core.set_store(store_of(id));
            Box::new(core) as Box<dyn ReplicaProtocol>
        })
        .collect();
    let victim = ReplicaId(cluster_config.total_size() - 1);
    let client_id = ClientId(0);
    let sockets = SocketCluster::spawn(cores, &[client_id]).expect("bind loopback");
    let mut client = ClientCore::new(
        client_id,
        cluster_config,
        keystore.clone(),
        Mode::Lion,
        Duration::from_millis(500),
    );
    let mut outcomes = Vec::new();
    let mut phase = |client: ClientCore, tag: &str, count: usize| {
        let (client, completed) =
            sockets.run_client(client, count, Duration::from_millis(500), |i| {
                let op = KvOp::Put {
                    key: format!("key-{}", i % 5).into_bytes(),
                    value: format!("{tag}-{i}").into_bytes(),
                };
                (op.encode(), OpClass::Write)
            });
        assert_eq!(completed.len(), count, "{tag}: every request completes");
        outcomes.extend(completed);
        client
    };

    client = phase(client, "pre", 20);
    sockets.crash(victim);
    client = phase(client, "missed", 20);
    // The crashed core made no appends since the crash, so opening its
    // directory again sees everything it ever synced.
    let ring = Arc::new(RingRecorder::new(1 << 12));
    let mut recovered = SeeMoReReplica::recover(
        victim,
        cluster_config,
        pconfig,
        keystore.clone(),
        Mode::Lion,
        Box::new(KvStore::new()),
        store_of(victim),
    );
    recovered.set_recorder(ring.clone());
    sockets.recover(victim, Box::new(recovered));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut events: Vec<TraceEvent> = Vec::new();
    while !events
        .iter()
        .any(|e| e.kind == EventKind::RecoveryCompleted)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "the restarted replica never completed its rejoin"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        events.extend(ring.drain());
    }
    phase(client, "post", 20);
    // Let the last commit notifications land before the histories are read.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let cores = sockets.shutdown();
    let histories: Vec<History> = cores.iter().map(|c| (c.id(), c.executed())).collect();
    assert_eq!(check::safety(&histories, &outcomes), Ok(()), "lion-file");
    let victim_max = cores
        .iter()
        .find(|core| core.id() == victim)
        .and_then(|core| core.executed().iter().map(|e| e.seq).max());
    assert!(
        victim_max > Some(SeqNum(40)),
        "the restarted replica executed nothing after its rejoin: {victim_max:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replica core whose outgoing `CHECKPOINT` announcements are copied into a
/// shared list.
struct CheckpointTap {
    inner: SeeMoReReplica,
    announced: Arc<Mutex<Vec<Checkpoint>>>,
}

impl CheckpointTap {
    fn tap(&self, actions: Vec<Action>) -> Vec<Action> {
        for action in &actions {
            if let Action::Send { message, .. } | Action::Broadcast { message, .. } = action {
                if let Message::Checkpoint(checkpoint) = message {
                    let mut announced = self.announced.lock().expect("tap lock");
                    if !announced.contains(checkpoint) {
                        announced.push(checkpoint.clone());
                    }
                }
            }
        }
        actions
    }
}

impl ReplicaProtocol for CheckpointTap {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }
    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_start(now);
        self.tap(actions)
    }
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_message(from, message, now);
        self.tap(actions)
    }
    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_timer(timer, now);
        self.tap(actions)
    }
    fn view(&self) -> View {
        self.inner.view()
    }
    fn mode(&self) -> Mode {
        self.inner.mode()
    }
    fn executed(&self) -> &[ExecutedEntry] {
        self.inner.executed()
    }
    fn metrics(&self) -> &ReplicaMetrics {
        self.inner.metrics()
    }
}

#[test]
fn peacock_proxy_restored_by_state_transfer_announces_the_executors_digest() {
    // Peacock's checkpoints become stable on m+1 *matching* digests from
    // proxies, so a proxy that got its state from a snapshot must digest it
    // to the same 32 bytes as the proxies that executed every write.
    let cluster_config = ClusterConfig::minimal(1, 1).expect("valid cluster");
    let keystore = KeyStore::generate(0xD16E, cluster_config.total_size(), 1);
    let pconfig = ProtocolConfig::with_checkpoint_period(4);
    let announced = Arc::new(Mutex::new(Vec::new()));
    let mut cluster = SyncCluster::new();
    let mut stores: BTreeMap<ReplicaId, Arc<MemStore>> = BTreeMap::new();
    for replica in cluster_config.replicas() {
        let store = Arc::new(MemStore::new(StoreConfig::default()));
        let mut core = SeeMoReReplica::new(
            replica,
            cluster_config,
            pconfig,
            keystore.clone(),
            Mode::Peacock,
            Box::new(KvStore::new()),
        );
        core.set_store(store.clone());
        stores.insert(replica, store);
        cluster.add_replica(Box::new(CheckpointTap {
            inner: core,
            announced: announced.clone(),
        }));
    }
    cluster.add_client(ClientCore::new(
        ClientId(0),
        cluster_config,
        keystore.clone(),
        Mode::Peacock,
        pconfig.client_timeout,
    ));
    let mut writes = 0u32;
    let mut write = |cluster: &mut SyncCluster, count: u32| {
        for _ in 0..count {
            // Overwrites, new keys, appends and deletes, so the snapshot the
            // victim installs differs from a replay of any prefix.
            let op = match writes % 4 {
                0 | 1 => KvOp::Put {
                    key: format!("key-{}", writes % 7).into_bytes(),
                    value: vec![writes as u8; 40],
                },
                2 => KvOp::Append {
                    key: format!("key-{}", writes % 5).into_bytes(),
                    suffix: vec![0xAB; 9],
                },
                _ => KvOp::Delete {
                    key: format!("key-{}", writes % 3).into_bytes(),
                },
            };
            writes += 1;
            cluster.submit(ClientId(0), op.encode());
            cluster.run_to_quiescence(100_000);
        }
    };

    // The highest-numbered replica is a view-0 proxy but not the primary.
    let victim = ReplicaId(cluster_config.total_size() - 1);
    write(&mut cluster, 6);
    cluster.isolate(victim);
    write(&mut cluster, 9);
    let missed: Vec<SeqNum> = (7..=15).map(SeqNum).collect();

    let recovered = SeeMoReReplica::recover(
        victim,
        cluster_config,
        pconfig,
        keystore.clone(),
        Mode::Peacock,
        Box::new(KvStore::new()),
        stores.get(&victim).expect("victim store").clone(),
    );
    cluster.restart(
        victim,
        Box::new(CheckpointTap {
            inner: recovered,
            announced: announced.clone(),
        }),
    );
    cluster.run_to_quiescence(100_000);
    write(&mut cluster, 10);

    // The victim skipped the slots it missed: its state came from a snapshot.
    let victim_history = cluster.replica(victim).executed();
    assert!(
        missed
            .iter()
            .any(|seq| victim_history.iter().all(|entry| entry.seq != *seq)),
        "the victim must have been restored by state transfer, not by replay"
    );
    assert_eq!(
        victim_history.iter().map(|entry| entry.seq).max(),
        Some(SeqNum(25)),
        "the victim must have rejoined and executed the later slots"
    );

    // Every checkpoint it announced after rejoining carries the digest the
    // executing proxies announced for the same sequence number.
    let announced = announced.lock().expect("tap lock");
    let after_rejoin: Vec<&Checkpoint> = announced
        .iter()
        .filter(|checkpoint| checkpoint.replica == victim && checkpoint.seq > SeqNum(15))
        .collect();
    assert!(
        !after_rejoin.is_empty(),
        "the rejoined proxy announced no checkpoint"
    );
    for checkpoint in after_rejoin {
        let others: Vec<&Checkpoint> = announced
            .iter()
            .filter(|other| other.seq == checkpoint.seq && other.replica != victim)
            .collect();
        assert!(
            others.len() >= 2,
            "{}: expected the other proxies to announce too",
            checkpoint.seq
        );
        for other in others {
            assert_eq!(
                other.state_digest, checkpoint.state_digest,
                "{}: {} digests its executed state differently from the restored {victim}",
                checkpoint.seq, other.replica
            );
        }
    }
}

#[test]
fn in_memory_log_stays_bounded_by_the_checkpoint_period() {
    // Satellite: even with durability disabled entirely, checkpoint-driven
    // truncation must keep the resident log bounded — a long run may never
    // hold more than two checkpoint periods' worth of instances.
    let period = 8u64;
    let scenario = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
        .with_clients(4)
        .with_checkpoint_period(period)
        .with_duration(Duration::from_millis(300), Duration::from_millis(20));
    let (mut sim, _) = scenario.build();
    sim.run_until(Instant::ZERO + scenario.duration);
    let report = sim.report(Instant::ZERO + scenario.warmup, scenario.timeline_bucket);
    assert!(
        report.completed > 10 * period,
        "the run must span many checkpoint periods, got {}",
        report.completed
    );
    for id in sim.replica_ids() {
        let peak = sim.replica(id).metrics().peak_log_instances;
        assert!(peak > 0, "{id}: the log was never populated");
        assert!(
            peak <= 2 * period,
            "{id}: peak resident log of {peak} instances exceeds 2x the \
             checkpoint period ({period})"
        );
    }
}

#[test]
fn wal_replay_at_restart_is_bounded_by_the_checkpoint_period() {
    // Recovery work is proportional to one checkpoint period, not to
    // uptime: every persisted checkpoint truncates the WAL below it, so a
    // replica crashed far into a run replays only the suffix above its last
    // checkpoint. With a period longer than the run nothing is truncated
    // and the restart replays the whole history. Deterministic simulator,
    // so the record counts are exact.
    const PERIOD: u64 = 64;
    // Trusted (it votes on every slot, so its WAL grows with the log) but
    // never the view-0 primary, so the crash forces no view change.
    let victim = ReplicaId(1);
    let replayed = |period: u64| -> u64 {
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(8)
            .with_duration(Duration::from_millis(240), Duration::from_millis(10))
            .with_checkpoint_period(period)
            .with_durability(DurabilityKind::Memory)
            .with_crash_recover(CrashRecover::replica(
                victim,
                Instant::from_nanos(160_000_000),
                Instant::from_nanos(180_000_000),
            ))
            .with_tracing(true)
            .run();
        assert!(
            report.completed > 2 * PERIOD,
            "period {period}: the run must span several checkpoint periods, got {}",
            report.completed
        );
        let health = report
            .health
            .iter()
            .find(|h| h.replica == victim)
            .expect("victim health rollup");
        assert!(
            health.recoveries >= 1,
            "period {period}: the rejoin did not complete"
        );
        health.wal_replayed
    };
    let compacted = replayed(PERIOD);
    let uncompacted = replayed(u64::MAX / 2);
    assert!(
        compacted <= 4 * PERIOD,
        "compaction must keep the replayed suffix within 4x the checkpoint \
         period ({PERIOD}), replayed {compacted} records"
    );
    assert!(
        uncompacted >= 2 * compacted.max(1),
        "without compaction the restart must replay at least 2x the compacted \
         suffix ({uncompacted} vs {compacted} records)"
    );
}
