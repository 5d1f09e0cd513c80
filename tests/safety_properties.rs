//! Property-based safety tests.
//!
//! The core guarantee of State Machine Replication is that all non-faulty
//! replicas execute the same requests in the same order, no matter how the
//! network behaves within the model (drops, duplication, reordering) and no
//! matter which tolerated failures occur. Because the unit of ordering is a
//! *batch* of client requests, the tests additionally check batch atomicity:
//! no request is lost, duplicated, or reordered across batch boundaries, a
//! batch's requests execute contiguously under one sequence number, and a
//! view change preserves prepared-but-uncommitted batches. All properties
//! are checked across random batching policies (`max_batch` sizes and flush
//! delays, plus the adaptive AIMD controller) in all three SeeMoRe modes.
//!
//! The judge is `seemore_core::check::safety`: every pair of listed
//! replicas agrees, slot by slot, on request *and* result digests (keyed by
//! sequence number, so a replica that skipped old slots via checkpoint
//! state transfer is still compared with every other); each history runs
//! slots in order, batches contiguously and each client's requests in
//! timestamp order; a re-executed request keeps its first result; and
//! every write a client saw complete was executed by a listed replica.

use proptest::prelude::*;
use seemore::app::NoopApp;
use seemore::core::byzantine::{ByzantineBehavior, ByzantineReplica};
use seemore::core::check::{self, History};
use seemore::core::client::ClientCore;
use seemore::core::config::{BatchPolicy, ProtocolConfig};
use seemore::core::replica::SeeMoReReplica;
use seemore::crypto::KeyStore;
use seemore::net::{CpuModel, LatencyModel, LinkFaults, Placement};
use seemore::runtime::{ProtocolKind, Scenario, SimConfig, Simulation, Workload};
use seemore::types::{ClientId, ClusterConfig, Duration, Instant, Mode, ReplicaId, SeqNum};
use std::collections::BTreeMap;

/// Builds a simulation with optional link faults, a Byzantine public replica,
/// an optional crash of a private replica, and a batching policy.
#[allow(clippy::too_many_arguments)]
fn build(
    mode: Mode,
    seed: u64,
    drop_prob: f64,
    duplicate_prob: f64,
    byzantine: Option<ByzantineBehavior>,
    crash_private_backup: bool,
    clients: u64,
    crash_primary_ms: Option<u64>,
    batch: BatchPolicy,
) -> (Simulation, ClusterConfig, Option<ReplicaId>) {
    let cluster = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(seed, cluster.total_size(), clients);
    let mut sim = Simulation::new(SimConfig {
        latency: LatencyModel::same_region(),
        cpu: CpuModel::default(),
        faults: LinkFaults::chaotic(drop_prob, duplicate_prob, 0.05),
        placement: Placement::hybrid(cluster),
        seed,
    });
    let pconfig = ProtocolConfig::default().with_batch_policy(batch);
    let byzantine_id = byzantine.map(|_| ReplicaId(cluster.total_size() - 1));
    for replica in cluster.replicas() {
        let core = SeeMoReReplica::new(
            replica,
            cluster,
            pconfig,
            keystore.clone(),
            mode,
            Box::new(NoopApp::new(16)),
        );
        match (byzantine, byzantine_id) {
            (Some(behavior), Some(id)) if id == replica => {
                sim.add_replica(Box::new(ByzantineReplica::new(core, behavior)));
            }
            _ => sim.add_replica(Box::new(core)),
        }
    }
    for client in 0..clients {
        sim.add_client(
            ClientCore::new(
                ClientId(client),
                cluster,
                keystore.clone(),
                mode,
                Duration::from_millis(30),
            ),
            Workload::micro(8),
            Instant::from_nanos(client * 2_000),
        );
    }
    if crash_private_backup {
        // Replica 1 is a trusted backup in view 0 for every mode.
        sim.schedule_crash(Instant::from_nanos(5_000_000), ReplicaId(1));
    }
    if let Some(ms) = crash_primary_ms {
        let primary = cluster.primary(mode, seemore::types::View(0)).unwrap();
        sim.schedule_crash(Instant::from_nanos(ms * 1_000_000), primary);
    }
    (sim, cluster, byzantine_id)
}

/// The executed histories of `replicas`, as the oracle takes them.
fn histories<'a>(sim: &'a Simulation, replicas: &[ReplicaId]) -> Vec<History<'a>> {
    replicas
        .iter()
        .map(|r| (*r, sim.replica(*r).executed()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Under random loss/duplication, an arbitrary Byzantine behaviour in
    /// the public cloud and a random batching policy, every mode preserves
    /// safety and batch atomicity, and keeps committing.
    #[test]
    fn safety_under_random_network_and_byzantine_faults(
        seed in 0u64..1_000_000,
        mode_index in 0usize..3,
        drop in 0.0f64..0.08,
        duplicate in 0.0f64..0.08,
        byz_choice in 0usize..4,
        crash_backup in proptest::bool::ANY,
        max_batch in 1usize..16,
        delay_us in 50u64..400,
    ) {
        let mode = Mode::ALL[mode_index];
        let behavior = match byz_choice {
            0 => None,
            1 => Some(ByzantineBehavior::Silent),
            2 => Some(ByzantineBehavior::ConflictingVotes),
            _ => Some(ByzantineBehavior::CorruptSignatures),
        };
        let batch = BatchPolicy::fixed(max_batch, Duration::from_micros(delay_us));
        let (mut sim, cluster, byzantine_id) =
            build(mode, seed, drop, duplicate, behavior, crash_backup, 3, None, batch);
        sim.run_until(Instant::from_nanos(250_000_000));
        if sim.completions().is_empty() {
            // Unlucky schedules (heavy loss plus a silent proxy) can churn
            // through several view changes before the first commit lands;
            // give liveness more virtual time before declaring starvation.
            sim.run_until(Instant::from_nanos(1_500_000_000));
        }

        let honest: Vec<ReplicaId> = cluster
            .replicas()
            .filter(|r| Some(*r) != byzantine_id && !(crash_backup && *r == ReplicaId(1)))
            .collect();
        prop_assert_eq!(check::safety(&histories(&sim, &honest), sim.completions()), Ok(()));
        prop_assert!(
            !sim.completions().is_empty(),
            "{mode} seed={seed} drop={drop:.2} dup={duplicate:.2} byz={behavior:?} \
             max_batch={max_batch} crash_backup={crash_backup} made no progress"
        );
    }

    /// A primary crash at a random time never violates safety — including
    /// the fate of prepared-but-uncommitted batches — and the cluster keeps
    /// executing after the view change, under a random batching policy.
    #[test]
    fn safety_across_view_changes(
        seed in 0u64..1_000_000,
        mode_index in 0usize..3,
        crash_ms in 10u64..60,
        max_batch in 1usize..16,
    ) {
        let mode = Mode::ALL[mode_index];
        let batch = BatchPolicy::fixed(max_batch, Duration::from_micros(200));
        let (mut sim, cluster, _) =
            build(mode, seed, 0.0, 0.0, None, false, 3, Some(crash_ms), batch);
        sim.run_until(Instant::from_nanos(500_000_000));

        let primary = cluster.primary(mode, seemore::types::View(0)).unwrap();
        let alive: Vec<ReplicaId> =
            cluster.replicas().filter(|r| *r != primary).collect();
        prop_assert_eq!(check::safety(&histories(&sim, &alive), sim.completions()), Ok(()));

        // Progress resumed after the crash.
        let after_crash = sim
            .completions()
            .iter()
            .filter(|o| o.completed_at > Instant::from_nanos((crash_ms + 200) * 1_000_000))
            .count();
        prop_assert!(
            after_crash > 0,
            "{mode} max_batch={max_batch}: no progress after primary crash at {crash_ms} ms"
        );
    }

    /// The adaptive batching controller preserves safety and batch
    /// atomicity in all three modes, keeps every executed slot within its
    /// configured ceiling, and makes progress — for random ceilings and
    /// delay bounds.
    #[test]
    fn adaptive_batching_is_safe_and_bounded_in_every_mode(
        seed in 0u64..1_000_000,
        mode_index in 0usize..3,
        ceiling in 2usize..32,
        delay_us in 50u64..400,
    ) {
        let mode = Mode::ALL[mode_index];
        let batch = BatchPolicy::adaptive(ceiling, Duration::from_micros(delay_us));
        let (mut sim, cluster, _) =
            build(mode, seed, 0.0, 0.0, None, false, 4, None, batch);
        sim.run_until(Instant::from_nanos(150_000_000));

        let replicas: Vec<ReplicaId> = cluster.replicas().collect();
        prop_assert_eq!(check::safety(&histories(&sim, &replicas), sim.completions()), Ok(()));
        prop_assert!(
            !sim.completions().is_empty(),
            "{mode} seed={seed} ceiling={ceiling}: no progress under the adaptive policy"
        );

        // Every executed slot carries between 1 and `ceiling` requests: the
        // controller's effective cap never escaped its bounds.
        for replica in &replicas {
            let mut per_slot: BTreeMap<SeqNum, usize> = BTreeMap::new();
            for entry in sim.replica(*replica).executed() {
                *per_slot.entry(entry.seq).or_default() += 1;
            }
            for (seq, count) in per_slot {
                prop_assert!(
                    (1..=ceiling).contains(&count),
                    "{mode} {replica}: slot {seq} carries {count} requests (ceiling {ceiling})"
                );
            }
        }

        // The chosen-size telemetry agrees with the histories.
        let report = sim.report(Instant::ZERO, Duration::from_millis(5));
        prop_assert!(report.batching.batches > 0);
        prop_assert!(
            report.batching.max_size <= ceiling,
            "{mode}: reported max batch {} above ceiling {ceiling}",
            report.batching.max_size
        );
        prop_assert!(report.batching.p50_size as f64 <= report.batching.max_size as f64);
    }
}

/// Deterministic regression: the same seed produces byte-identical results,
/// which is what makes every experiment in this repository reproducible.
#[test]
fn simulation_runs_are_reproducible() {
    let run = |seed| {
        let (mut sim, cluster, _) = build(
            Mode::Dog,
            seed,
            0.02,
            0.02,
            None,
            false,
            3,
            None,
            BatchPolicy::fixed(8, Duration::from_micros(100)),
        );
        sim.run_until(Instant::from_nanos(60_000_000));
        let digest: Vec<_> = cluster
            .replicas()
            .map(|r| sim.replica(r).executed().len())
            .collect();
        (sim.completions().len(), sim.messages_delivered(), digest)
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).1, 0);
}

/// `max_batch = 1` reproduces unbatched single-request agreement exactly:
/// for a fixed seed, a run with the batching knobs at their disabled default
/// and a run with an explicit `max_batch = 1` policy produce identical
/// executed histories, message counts and completions.
#[test]
fn max_batch_one_matches_unbatched_agreement() {
    for mode in Mode::ALL {
        let run = |batch: BatchPolicy| {
            let (mut sim, cluster, _) = build(mode, 1234, 0.0, 0.0, None, false, 4, None, batch);
            sim.run_until(Instant::from_nanos(40_000_000));
            let histories: Vec<Vec<_>> = cluster
                .replicas()
                .map(|r| sim.replica(r).executed().to_vec())
                .collect();
            (
                sim.completions().len(),
                sim.messages_delivered(),
                sim.bytes_delivered(),
                histories,
            )
        };
        let disabled = run(BatchPolicy::disabled());
        let singleton = run(BatchPolicy::fixed(1, Duration::from_micros(500)));
        assert_eq!(disabled.0, singleton.0, "{mode}: completions differ");
        assert_eq!(disabled.1, singleton.1, "{mode}: message counts differ");
        assert_eq!(disabled.2, singleton.2, "{mode}: byte counts differ");
        assert_eq!(disabled.3, singleton.3, "{mode}: histories differ");
        assert!(disabled.0 > 0, "{mode}: no progress");
    }
}

/// Batching is a throughput win, not just a knob: under a closed-loop load
/// the `max_batch = 64` policy strictly outperforms `max_batch = 1`.
#[test]
fn batching_strictly_improves_closed_loop_throughput() {
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::Cft,
    ] {
        let run = |max_batch| {
            Scenario::new(protocol, 1, 1)
                .with_clients(24)
                .with_duration(Duration::from_millis(200), Duration::from_millis(50))
                .with_batching(max_batch, Duration::from_micros(100))
                .run()
                .throughput_kreqs
        };
        let unbatched = run(1);
        let batched = run(64);
        assert!(
            batched > unbatched,
            "{}: max_batch=64 ({batched:.2} kreq/s) must beat max_batch=1 ({unbatched:.2} kreq/s)",
            protocol.name()
        );
    }
}

/// The point of the adaptive controller (and this PR's acceptance bar): it
/// must beat a static `max_batch = 64` on low-load p50 latency (the static
/// policy makes every never-full batch wait out the flush delay; the
/// adaptive cap decays to ~1 and proposes immediately) *and* beat a static
/// `max_batch = 1` on high-load throughput (where it grows toward the
/// ceiling and amortizes the quorum cost). Deterministic: the simulator is
/// seeded.
#[test]
fn adaptive_batching_beats_static_extremes() {
    let delay = Duration::from_millis(1);
    for protocol in [
        ProtocolKind::SeeMoReLion,
        ProtocolKind::Cft,
        ProtocolKind::Bft,
    ] {
        // Low load: 2 closed-loop clients.
        let low = |scenario: Scenario| {
            scenario
                .with_clients(2)
                .with_duration(Duration::from_millis(150), Duration::from_millis(30))
                .run()
        };
        let static_64 = low(Scenario::new(protocol, 1, 1).with_batching(64, delay));
        let adaptive_low = low(Scenario::new(protocol, 1, 1).with_adaptive_batching(64, delay));
        assert!(
            adaptive_low.p50_latency_ms < static_64.p50_latency_ms,
            "{}: adaptive low-load p50 {:.3} ms must beat static-64's {:.3} ms",
            protocol.name(),
            adaptive_low.p50_latency_ms,
            static_64.p50_latency_ms
        );

        // High load: 24 closed-loop clients.
        let high = |scenario: Scenario| {
            scenario
                .with_clients(24)
                .with_duration(Duration::from_millis(200), Duration::from_millis(50))
                .run()
        };
        let static_1 = high(Scenario::new(protocol, 1, 1).with_batching(1, delay));
        let adaptive_high = high(Scenario::new(protocol, 1, 1).with_adaptive_batching(64, delay));
        assert!(
            adaptive_high.throughput_kreqs > static_1.throughput_kreqs,
            "{}: adaptive high-load throughput {:.2} kreq/s must beat static-1's {:.2} kreq/s",
            protocol.name(),
            adaptive_high.throughput_kreqs,
            static_1.throughput_kreqs
        );
        // The controller really did choose bigger batches under load, and
        // reported them.
        assert!(
            adaptive_high.batching.max_size > 1,
            "{}: the adaptive cap never grew under load",
            protocol.name()
        );
        assert!(adaptive_high.batching.max_size <= 64);
        assert!(adaptive_high.batching.batches > 0);
    }
}
