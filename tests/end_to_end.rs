//! Workspace-level integration tests: the full stack (types → crypto → wire
//! → protocol cores → network models → simulator) driven through the public
//! facade crate, the way a downstream user would.

use seemore::app::{KvOp, KvResult, KvStore};
use seemore::core::byzantine::ByzantineBehavior;
use seemore::core::check::{self, History};
use seemore::core::client::ClientCore;
use seemore::core::config::ProtocolConfig;
use seemore::core::replica::SeeMoReReplica;
use seemore::core::testkit::SyncCluster;
use seemore::crypto::KeyStore;
use seemore::net::LatencyModel;
use seemore::runtime::{ProtocolKind, Scenario, Workload};
use seemore::types::planner::{cluster_from_outcome, plan_with_ratios};
use seemore::types::{ClientId, ClusterConfig, Duration, Instant, Mode, PlannerInput};

const LIMIT: u64 = 500_000;

/// Every protocol the evaluation compares makes progress on the simulator
/// and reports sensible statistics — at the paper's smallest deployment,
/// and for the baselines also at `f = 0`, where every quorum is the lone
/// primary itself and no vote will ever arrive to trigger the commit.
#[test]
fn all_protocols_make_progress_in_simulation() {
    let fault_free = [ProtocolKind::Cft, ProtocolKind::Bft, ProtocolKind::SUpright];
    let cases = ProtocolKind::ALL
        .into_iter()
        .map(|protocol| (protocol, 1))
        .chain(fault_free.into_iter().map(|protocol| (protocol, 0)));
    for (protocol, faults) in cases {
        let name = protocol.name();
        let report = Scenario::new(protocol, faults, faults)
            .with_clients(4)
            .with_duration(Duration::from_millis(80), Duration::from_millis(20))
            .run();
        assert!(report.completed > 0, "{name} at c = m = {faults}");
        assert!(report.throughput_kreqs > 0.0);
        assert!(report.avg_latency_ms > 0.0);
        assert!(report.p50_latency_ms <= report.p99_latency_ms);
        assert!(report.messages_delivered > 0);
    }
}

/// The headline comparison of the paper: with equal total fault tolerance
/// (f = c + m), the Lion mode performs close to CFT and clearly better than
/// BFT, and every SeeMoRe mode beats the location-oblivious S-UpRight.
#[test]
fn seemore_beats_bft_and_tracks_cft() {
    let run = |protocol| {
        Scenario::new(protocol, 1, 1)
            .with_clients(24)
            .with_duration(Duration::from_millis(250), Duration::from_millis(50))
            .run()
            .throughput_kreqs
    };
    let lion = run(ProtocolKind::SeeMoReLion);
    let dog = run(ProtocolKind::SeeMoReDog);
    let peacock = run(ProtocolKind::SeeMoRePeacock);
    let cft = run(ProtocolKind::Cft);
    let bft = run(ProtocolKind::Bft);
    let upright = run(ProtocolKind::SUpright);

    assert!(lion > bft, "Lion ({lion:.2}) must beat BFT ({bft:.2})");
    assert!(dog > bft, "Dog ({dog:.2}) must beat BFT ({bft:.2})");
    assert!(
        peacock >= upright * 0.95,
        "Peacock ({peacock:.2}) must at least match S-UpRight ({upright:.2})"
    );
    // The paper reports an 8% peak-throughput gap between Lion and CFT.
    // Without BFT-SMaRt's request batching the simulated gap is larger
    // (~25% in this simulator), so the assertion only pins the shape:
    // Lion must stay within a modest constant factor of CFT while CFT stays
    // ahead (it tolerates no Byzantine faults and pays no signatures).
    assert!(
        lion >= cft * 0.6,
        "Lion ({lion:.2}) should stay close to CFT ({cft:.2}) at c=m=1, as in Fig. 2(a)"
    );
    assert!(
        cft > lion,
        "CFT ({cft:.2}) is expected to stay ahead of Lion ({lion:.2})"
    );
    assert!(
        lion >= upright,
        "Lion ({lion:.2}) must beat S-UpRight ({upright:.2})"
    );
}

/// The 4/0 benchmark is more expensive than 0/4 for every protocol
/// (Figure 3's observation about request vs. reply size).
#[test]
fn request_payload_hurts_more_than_reply_payload() {
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::Bft,
    ] {
        let run = |request, reply| {
            Scenario::new(protocol, 1, 1)
                .with_clients(16)
                .with_payload(request, reply)
                .with_duration(Duration::from_millis(200), Duration::from_millis(50))
                .run()
                .throughput_kreqs
        };
        let zero_four = run(0, 4096);
        let four_zero = run(4096, 0);
        assert!(
            four_zero < zero_four,
            "{}: 4/0 ({four_zero:.2}) should be slower than 0/4 ({zero_four:.2})",
            protocol.name()
        );
    }
}

/// A primary crash produces a view change and throughput recovers
/// (Figure 4's shape) for SeeMoRe and for the BFT-style baselines.
#[test]
fn view_change_recovers_throughput() {
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::Bft,
        ProtocolKind::SUpright,
    ] {
        let crash_at = Instant::ZERO + Duration::from_millis(100);
        let report = Scenario::new(protocol, 1, 1)
            .with_clients(8)
            .with_duration(Duration::from_millis(400), Duration::from_millis(20))
            .with_primary_crash(crash_at)
            .run();
        assert!(
            report.view_changes > 0,
            "{}: no view change",
            protocol.name()
        );
        let after: u64 = report
            .timeline
            .iter()
            .filter(|b| b.start_ms > 250.0)
            .map(|b| b.completed)
            .sum();
        assert!(
            after > 0,
            "{}: no recovery after the crash",
            protocol.name()
        );
    }
}

/// Planner output composes with the protocol: plan a rental, build the
/// cluster, run it in the synchronous harness with a replicated KV store.
#[test]
fn planner_to_running_cluster() {
    let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(2, 1, 0.3)).unwrap();
    let cluster_config = cluster_from_outcome(2, 1, outcome).unwrap();
    assert_eq!(cluster_config.total_size(), 12);

    let keystore = KeyStore::generate(55, cluster_config.total_size(), 1);
    let mut cluster = SyncCluster::new();
    for replica in cluster_config.replicas() {
        cluster.add_replica(Box::new(SeeMoReReplica::new(
            replica,
            cluster_config,
            ProtocolConfig::default(),
            keystore.clone(),
            Mode::Lion,
            Box::new(KvStore::new()),
        )));
    }
    cluster.add_client(ClientCore::new(
        ClientId(0),
        cluster_config,
        keystore,
        Mode::Lion,
        Duration::from_millis(100),
    ));

    cluster.submit(
        ClientId(0),
        KvOp::Put {
            key: b"plan".to_vec(),
            value: b"deployed".to_vec(),
        }
        .encode(),
    );
    cluster.run_to_quiescence(LIMIT);
    cluster.submit(
        ClientId(0),
        KvOp::Get {
            key: b"plan".to_vec(),
        }
        .encode(),
    );
    cluster.run_to_quiescence(LIMIT);

    let outcomes = cluster.client(ClientId(0)).completed();
    assert_eq!(outcomes.len(), 2);
    assert_eq!(
        KvResult::decode(&outcomes[1].result),
        Some(KvResult::Value(b"deployed".to_vec()))
    );
}

/// Mode switching mid-run keeps every replica consistent and the protocol
/// continues to commit in the new mode.
#[test]
fn mode_switch_preserves_consistency() {
    let scenario = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
        .with_clients(4)
        .with_duration(Duration::from_millis(250), Duration::from_millis(20))
        .with_mode_switch(Instant::ZERO + Duration::from_millis(120), Mode::Dog);
    let (mut sim, _) = scenario.build();
    sim.run_until(Instant::ZERO + scenario.duration);

    let ids = sim.replica_ids();
    for replica in &ids {
        assert_eq!(
            sim.replica(*replica).mode(),
            Mode::Dog,
            "{replica} did not switch"
        );
    }
    let histories: Vec<History> = ids
        .iter()
        .map(|r| (*r, sim.replica(*r).executed()))
        .collect();
    check::safety(&histories, sim.completions()).unwrap();
    let report = sim.report(Instant::ZERO + scenario.warmup, Duration::from_millis(10));
    assert!(report.mode_switches > 0);
    assert!(report.completed > 0);
}

/// Byzantine public replicas at the tolerated bound cannot break safety or
/// liveness in any mode, in the timed simulator.
#[test]
fn byzantine_bound_is_tolerated_in_simulation() {
    for behavior in [
        ByzantineBehavior::Silent,
        ByzantineBehavior::ConflictingVotes,
        ByzantineBehavior::CorruptSignatures,
    ] {
        for protocol in [
            ProtocolKind::SeeMoReLion,
            ProtocolKind::SeeMoReDog,
            ProtocolKind::SeeMoRePeacock,
        ] {
            let scenario = Scenario::new(protocol, 1, 1)
                .with_clients(4)
                .with_duration(Duration::from_millis(150), Duration::from_millis(30))
                .with_byzantine(1, behavior);
            let (mut sim, _) = scenario.build();
            sim.run_until(Instant::ZERO + scenario.duration);
            let report = sim.report(Instant::ZERO + scenario.warmup, Duration::from_millis(10));
            assert!(
                report.completed > 0,
                "{} with {:?}: no progress",
                protocol.name(),
                behavior
            );
            // Honest replicas (all but the wrapped last public one) agree.
            let ids = sim.replica_ids();
            let byzantine = *ids.last().unwrap();
            let honest: Vec<History> = ids
                .into_iter()
                .filter(|r| *r != byzantine)
                .map(|r| (r, sim.replica(r).executed()))
                .collect();
            assert_eq!(
                check::safety(&honest, sim.completions()),
                Ok(()),
                "{} with {:?}",
                protocol.name(),
                behavior
            );
        }
    }
}

/// Geo-separated clouds flip the latency ordering between Lion and Peacock,
/// which is the paper's motivation for the Peacock mode and mode switching.
#[test]
fn peacock_wins_when_clouds_are_far_apart() {
    let run = |protocol, latency| {
        Scenario::new(protocol, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(200), Duration::from_millis(50))
            .with_latency(latency)
            .run()
            .avg_latency_ms
    };
    // Same region: Lion's two phases beat Peacock's three.
    let lion_near = run(ProtocolKind::SeeMoReLion, LatencyModel::same_region());
    let peacock_near = run(ProtocolKind::SeeMoRePeacock, LatencyModel::same_region());
    assert!(lion_near < peacock_near);
    // Clouds 20 ms apart: Peacock avoids the cross-cloud round trips.
    let lion_far = run(ProtocolKind::SeeMoReLion, LatencyModel::geo_separated(20));
    let peacock_far = run(
        ProtocolKind::SeeMoRePeacock,
        LatencyModel::geo_separated(20),
    );
    assert!(
        peacock_far < lion_far,
        "peacock ({peacock_far:.2} ms) should beat lion ({lion_far:.2} ms) across distant clouds"
    );
}

/// The KV workload generator drives the replicated store through the whole
/// simulator stack.
#[test]
fn kv_workload_runs_through_the_simulator() {
    use seemore::core::replica::SeeMoReReplica;
    use seemore::net::{CpuModel, LinkFaults, Placement};
    use seemore::runtime::{SimConfig, Simulation};

    let cluster = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(77, cluster.total_size(), 2);
    let mut sim = Simulation::new(SimConfig {
        latency: LatencyModel::same_region(),
        cpu: CpuModel::default(),
        faults: LinkFaults::none(),
        placement: Placement::hybrid(cluster),
        seed: 3,
    });
    for replica in cluster.replicas() {
        sim.add_replica(Box::new(SeeMoReReplica::new(
            replica,
            cluster,
            ProtocolConfig::default(),
            keystore.clone(),
            Mode::Lion,
            Box::new(KvStore::new()),
        )));
    }
    for client in 0..2u64 {
        sim.add_client(
            ClientCore::new(
                ClientId(client),
                cluster,
                keystore.clone(),
                Mode::Lion,
                Duration::from_millis(50),
            ),
            Workload::kv(64, 32, 0.5),
            Instant::from_nanos(client * 1_000),
        );
    }
    sim.run_until(Instant::from_nanos(40_000_000));
    assert!(sim.completions().len() > 10);
    // All results decode as KV results.
    for outcome in sim.completions() {
        assert!(KvResult::decode(&outcome.result).is_some());
    }
}
