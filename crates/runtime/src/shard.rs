//! Sharded multi-group scale-out: N independent SeeMoRe groups behind one
//! scenario.
//!
//! [`Scenario::with_shards`] partitions the keyspace with a hash
//! [`ShardMap`] and fronts `n` *complete* clusters — each group has its own
//! replicas, primary, view changes, checkpoints and key material, running
//! the unmodified single-group protocol. Nothing crosses groups: agreement,
//! recovery and mode switches are group-local, which is exactly why
//! aggregate throughput scales.
//!
//! On the concurrent runtimes [`ShardedCluster`] spawns one physical
//! cluster per group (threaded mesh or real loopback sockets), wraps every
//! replica in a [`ShardGuard`] that refuses keys the group does not own
//! with a signed redirect, and gives every client a [`ShardRouter`] plus
//! one client core per group. The closed-loop drive routes each operation
//! with the router's cached map, and on a verified redirect adopts the
//! newer map and resubmits to the owner — one extra round trip, no wasted
//! consensus, exactly-once execution (the wrong group refuses *before*
//! agreement).
//!
//! On the simulator a sharded run executes the groups as independent
//! deterministic simulations (clients are partitioned round-robin and their
//! workloads restricted to their group's keys), merged with
//! [`RunReport::merged`] — useful for modelling studies; the redirect
//! machinery itself is exercised by the concurrent runtimes.
//!
//! Per-group failure schedules are addressed by group through
//! [`ShardOverride`]: crash one group's primary, switch one group's mode,
//! or run different protocols per group, while the global knobs keep
//! applying to every group.

use crate::driver::to_instant;
use crate::report::{RunReport, ShardReport, TransportReport};
use crate::scenario::{AnyCluster, ProtocolKind, RuntimeKind, Scenario};
use crate::socket::{SocketCluster, SocketOptions};
use crate::threaded::ThreadedCluster;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use seemore_core::client::{ClientOutcome, ClientProtocol};
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::shard::{RoutedClient, ShardGuard, ShardRouter};
use seemore_crypto::KeyStore;
use seemore_types::{
    ClientId, Duration, GroupId, Instant, Mode, NodeId, OpClass, Partitioning, ReplicaId, ShardMap,
};
use std::time::Instant as StdInstant;

/// Per-group overrides for a sharded run, addressed by group id.
#[derive(Debug, Clone)]
pub struct ShardOverride {
    /// The group this override applies to.
    pub group: GroupId,
    /// Run this protocol on the group instead of the scenario's (e.g. one
    /// Peacock group in an otherwise-Lion deployment).
    pub protocol: Option<ProtocolKind>,
    /// Crash the group's view-0 primary at this instant.
    pub crash_primary_at: Option<Instant>,
    /// Announce a mode switch on the group at this instant (SeeMoRe only).
    pub mode_switch: Option<(Instant, Mode)>,
}

impl ShardOverride {
    /// An empty override for `group`; chain the builder methods to fill it.
    pub fn for_group(group: GroupId) -> ShardOverride {
        ShardOverride {
            group,
            protocol: None,
            crash_primary_at: None,
            mode_switch: None,
        }
    }

    /// Runs `protocol` on this group.
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Crashes this group's view-0 primary at `at`.
    pub fn crash_primary_at(mut self, at: Instant) -> Self {
        self.crash_primary_at = Some(at);
        self
    }

    /// Announces a switch to `mode` on this group at `at`.
    pub fn mode_switch(mut self, at: Instant, mode: Mode) -> Self {
        self.mode_switch = Some((at, mode));
        self
    }
}

/// Maximum routing attempts per operation: first try plus redirects. Two
/// covers the stale-map case (miss, adopt, hit); the margin tolerates a map
/// that goes stale again mid-flight without ever looping.
const MAX_ROUTE_HOPS: u32 = 4;

/// The authoritative shard map of a sharded run.
///
/// With the stale-client-map knob the authority's version is bumped past the
/// version-1 map clients are seeded with, so redirects demonstrably carry a
/// *newer* map for the router to adopt.
fn authority_map(scenario: &Scenario) -> ShardMap {
    if scenario.stale_client_map {
        ShardMap {
            version: 2,
            partitioning: Partitioning::Hash {
                groups: scenario.shards,
            },
        }
    } else {
        ShardMap::uniform(scenario.shards)
    }
}

/// Seed mix so each group's cluster (key material, per-group randomness)
/// is distinct but deterministic in the scenario seed.
fn group_seed(seed: u64, group: GroupId) -> u64 {
    seed ^ (u64::from(group.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407)
}

/// This group's share of `clients` under round-robin partitioning.
fn client_share(clients: u32, shards: u32, group: GroupId) -> u32 {
    clients / shards + u32::from(group.0 < clients % shards)
}

/// The scenario one group of a sharded run executes: single-group, distinct
/// seed, with this group's overrides applied. Global crash / mode-switch
/// knobs are inherited (they apply to every group); an override replaces
/// them for its group.
fn shard_scenario(scenario: &Scenario, group: GroupId) -> Scenario {
    let mut shard = scenario.clone();
    shard.shards = 1;
    shard.shard_overrides = Vec::new();
    shard.stale_client_map = false;
    shard.seed = group_seed(scenario.seed, group);
    if let Some(o) = scenario.shard_overrides.iter().find(|o| o.group == group) {
        if let Some(protocol) = o.protocol {
            shard.protocol = protocol;
        }
        if o.crash_primary_at.is_some() {
            shard.crash_primary_at = o.crash_primary_at;
        }
        if o.mode_switch.is_some() {
            shard.mode_switch = o.mode_switch;
        }
    }
    shard
}

/// Entry point for `Scenario::run` when `shards > 1`.
pub(crate) fn run_sharded(scenario: &Scenario) -> RunReport {
    let map = authority_map(scenario);
    match scenario.runtime {
        RuntimeKind::Simulated => {
            // Independent deterministic simulations, one per group: clients
            // are partitioned round-robin and each partition's workload is
            // restricted to its group's keys, so no operation ever needs a
            // cross-group hop.
            let shards = (0..scenario.shards)
                .map(|g| {
                    let group = GroupId(g);
                    let mut shard = shard_scenario(scenario, group);
                    shard.clients = client_share(scenario.clients, scenario.shards, group);
                    shard.workload = Some(scenario.workload().sharded(map.clone(), group));
                    ShardReport {
                        group,
                        report: shard.run(),
                    }
                })
                .collect();
            RunReport::merged(shards)
        }
        kind => ShardedCluster::spawn(scenario, kind).drive(scenario),
    }
}

/// One group's running cluster plus everything needed to drive and report
/// on it.
struct ShardGroup {
    group: GroupId,
    scenario: Scenario,
    cluster: AnyCluster,
    keystore: KeyStore,
    primary: ReplicaId,
    mode_switch_announcer: Option<ReplicaId>,
    trace: crate::scenario::TraceHandles,
    clients: Vec<Box<dyn ClientProtocol>>,
}

/// `N` live single-group clusters composed behind the `Scenario` API.
///
/// Every physical cluster is spawned exactly as an unsharded run would
/// spawn it — same meshes, same event loops, same options — with two
/// sharding additions: each replica is wrapped in a [`ShardGuard`] carrying
/// the authoritative map and the replica's signer, and every client id is
/// registered with *every* group so the routing tier can reach whichever
/// group owns a key.
pub struct ShardedCluster {
    groups: Vec<ShardGroup>,
    map: ShardMap,
}

impl ShardedCluster {
    /// Spawns one cluster per group on the given concurrent runtime.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`RuntimeKind::Simulated`] (the simulator path
    /// never constructs a `ShardedCluster`) or if loopback sockets cannot
    /// be bound.
    pub fn spawn(scenario: &Scenario, kind: RuntimeKind) -> ShardedCluster {
        let map = authority_map(scenario);
        let client_ids: Vec<ClientId> = (0..u64::from(scenario.clients)).map(ClientId).collect();
        let groups = (0..scenario.shards)
            .map(|g| {
                let group = GroupId(g);
                let shard = shard_scenario(scenario, group);
                let cores = shard.build_cores();
                let keystore = cores.keystore.clone();
                let replicas: Vec<Box<dyn ReplicaProtocol>> = cores
                    .replicas
                    .into_iter()
                    .map(|inner| {
                        let signer = keystore
                            .signer_for(NodeId::Replica(inner.id()))
                            .expect("replica signer");
                        Box::new(ShardGuard::new(inner, group, map.clone(), signer))
                            as Box<dyn ReplicaProtocol>
                    })
                    .collect();
                let cluster = match kind {
                    RuntimeKind::Threaded => {
                        AnyCluster::Threaded(ThreadedCluster::spawn(replicas, &client_ids))
                    }
                    RuntimeKind::Socket => AnyCluster::Socket(
                        SocketCluster::spawn_with(
                            replicas,
                            &client_ids,
                            SocketOptions {
                                client_mux: scenario.client_mux,
                            },
                        )
                        .expect("bind loopback TCP sockets"),
                    ),
                    RuntimeKind::Simulated => {
                        unreachable!("the simulator path never spawns a ShardedCluster")
                    }
                };
                ShardGroup {
                    group,
                    scenario: shard,
                    cluster,
                    keystore,
                    primary: cores.primary,
                    mode_switch_announcer: cores.mode_switch_announcer,
                    trace: cores.trace,
                    clients: cores.clients,
                }
            })
            .collect();
        ShardedCluster { groups, map }
    }

    /// Number of groups in the composition.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The authoritative shard map the guards enforce.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Drives the closed-loop clients across every group for the scenario's
    /// wall-clock window, then shuts the clusters down and merges the
    /// per-group reports.
    pub fn drive(mut self, scenario: &Scenario) -> RunReport {
        let shard_count = self.groups.len();
        let clients = scenario.clients as usize;
        let patience = scenario.protocol_config().client_timeout;
        let run_for = scenario.duration.to_std();

        // Transpose per-group client cores into per-client rows: physical
        // client `i` owns one core per group, all with id `ClientId(i)` but
        // each signed with (and known to) its own group's key material.
        let mut per_client: Vec<Vec<Option<Box<dyn ClientProtocol>>>> = (0..clients)
            .map(|_| Vec::with_capacity(shard_count))
            .collect();
        for group in &mut self.groups {
            for (i, core) in group.clients.drain(..).enumerate() {
                per_client[i].push(Some(core));
            }
        }
        let keystores: Vec<KeyStore> = self.groups.iter().map(|g| g.keystore.clone()).collect();
        let seed_map = if scenario.stale_client_map {
            ShardMap::uniform(1)
        } else {
            self.map.clone()
        };

        // The shared epoch for schedules and the run window; each group's
        // own clock epoch (used for outcome timestamps) is slightly earlier.
        let start = StdInstant::now();
        let abandon_at = start + run_for;
        // Client threads only need the clusters; sharing bare cluster
        // references keeps the (non-`Sync`) client cores out of the scope.
        let clusters: Vec<&AnyCluster> = self.groups.iter().map(|g| &g.cluster).collect();

        let (returned, mut group_outcomes) = std::thread::scope(|scope| {
            // Per-group failure schedules, addressed by group.
            for g in &self.groups {
                if let Some(at) = g.scenario.crash_primary_at {
                    let delay = Duration::from_nanos(at.as_nanos()).to_std();
                    if delay < run_for {
                        let (cluster, primary) = (&g.cluster, g.primary);
                        scope.spawn(move || {
                            let elapsed = start.elapsed();
                            if delay > elapsed {
                                std::thread::sleep(delay - elapsed);
                            }
                            cluster.crash(primary);
                        });
                    }
                }
                if let (Some((at, mode)), Some(announcer)) =
                    (g.scenario.mode_switch, g.mode_switch_announcer)
                {
                    let delay = Duration::from_nanos(at.as_nanos()).to_std();
                    if delay < run_for {
                        let cluster = &g.cluster;
                        scope.spawn(move || {
                            let elapsed = start.elapsed();
                            if delay > elapsed {
                                std::thread::sleep(delay - elapsed);
                            }
                            cluster.request_mode_switch(announcer, mode);
                        });
                    }
                }
            }

            let handles: Vec<_> = per_client
                .into_iter()
                .enumerate()
                .map(|(index, cores)| {
                    let workload = scenario.workload();
                    let read_fast_path = scenario.read_fast_path;
                    let seed = scenario.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut router = ShardRouter::new(seed_map.clone(), keystores.clone());
                    let clusters = clusters.clone();
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        let mut cores = cores;
                        let mut outcomes: Vec<Vec<ClientOutcome>> =
                            (0..shard_count).map(|_| Vec::new()).collect();
                        while start.elapsed() < run_for {
                            let (op, class) = workload.next_classified(&mut rng);
                            let class = if read_fast_path {
                                class
                            } else {
                                OpClass::Write
                            };
                            let mut hops = 0u32;
                            loop {
                                let g = router.route(&op).as_usize().min(shard_count - 1);
                                let core = cores[g].take().expect("client core in place");
                                let attempt =
                                    RoutedClient::new(core, GroupId(g as u32), &mut router);
                                let (attempt, completed) = clusters[g].run_client(
                                    attempt,
                                    1,
                                    patience,
                                    abandon_at,
                                    |_| (op.clone(), class),
                                );
                                let redirected = attempt.redirected();
                                cores[g] = Some(attempt.into_inner());
                                outcomes[g].extend(completed);
                                hops += 1;
                                if !redirected
                                    || hops >= MAX_ROUTE_HOPS
                                    || start.elapsed() >= run_for
                                {
                                    break;
                                }
                            }
                        }
                        (cores, outcomes)
                    })
                })
                .collect();

            let mut returned = Vec::new();
            let mut group_outcomes: Vec<Vec<ClientOutcome>> =
                (0..shard_count).map(|_| Vec::new()).collect();
            for handle in handles {
                let (cores, outcomes) = handle.join().expect("client thread");
                for (g, completed) in outcomes.into_iter().enumerate() {
                    group_outcomes[g].extend(completed);
                }
                returned.push(cores);
            }
            (returned, group_outcomes)
        });

        // Retransmissions, attributed to the group whose core performed them.
        let mut group_retransmissions = vec![0u64; shard_count];
        for cores in &returned {
            for (g, core) in cores.iter().enumerate() {
                if let Some(core) = core {
                    group_retransmissions[g] += core.retransmissions();
                }
            }
        }

        let warmup = scenario.warmup;
        let bucket = scenario.timeline_bucket;
        let shard_reports = self
            .groups
            .into_iter()
            .enumerate()
            .map(|(g, group)| {
                let run_end = to_instant(group.cluster.epoch());
                let (messages, bytes) = group.cluster.traffic();
                let transport = match &group.cluster {
                    AnyCluster::Socket(sockets) => {
                        Some(TransportReport::from_stats(&sockets.stats()))
                    }
                    AnyCluster::Threaded(_) => None,
                };
                let replicas = group.cluster.shutdown();
                let mut metrics = ReplicaMetrics::default();
                for replica in &replicas {
                    metrics.merge(replica.metrics());
                }
                let mut report = RunReport::from_outcomes(
                    &std::mem::take(&mut group_outcomes[g]),
                    Instant::ZERO + warmup,
                    run_end,
                    bucket,
                );
                report.messages_delivered = messages;
                report.bytes_delivered = bytes;
                report.view_changes = metrics.view_changes_completed;
                report.mode_switches = metrics.mode_switches;
                report.retransmissions = group_retransmissions[g];
                report.batching = crate::report::BatchReport::from_telemetry(&metrics.batch);
                report.transport = transport;
                group.trace.attach(&mut report, bucket);
                ShardReport {
                    group: group.group,
                    report,
                }
            })
            .collect();
        RunReport::merged(shard_reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_share_partitions_round_robin() {
        assert_eq!(client_share(8, 4, GroupId(0)), 2);
        assert_eq!(client_share(9, 4, GroupId(0)), 3);
        assert_eq!(client_share(9, 4, GroupId(1)), 2);
        assert_eq!(client_share(9, 4, GroupId(3)), 2);
        let total: u32 = (0..4).map(|g| client_share(9, 4, GroupId(g))).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn shard_scenarios_apply_overrides_per_group() {
        let scenario = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_shards(3)
            .with_shard_crash(GroupId(1), Instant::from_nanos(5))
            .with_shard_override(
                ShardOverride::for_group(GroupId(2))
                    .protocol(ProtocolKind::SeeMoRePeacock)
                    .mode_switch(Instant::from_nanos(9), Mode::Dog),
            );
        let g0 = shard_scenario(&scenario, GroupId(0));
        let g1 = shard_scenario(&scenario, GroupId(1));
        let g2 = shard_scenario(&scenario, GroupId(2));
        assert_eq!(g0.shards, 1);
        assert_eq!(g0.crash_primary_at, None);
        assert_eq!(g1.crash_primary_at, Some(Instant::from_nanos(5)));
        assert_eq!(g1.protocol, ProtocolKind::SeeMoReLion);
        assert_eq!(g2.protocol, ProtocolKind::SeeMoRePeacock);
        assert_eq!(g2.mode_switch, Some((Instant::from_nanos(9), Mode::Dog)));
        // Distinct, deterministic per-group seeds.
        assert_ne!(g0.seed, g1.seed);
        assert_eq!(g1.seed, shard_scenario(&scenario, GroupId(1)).seed);
    }

    #[test]
    fn the_authority_map_outruns_the_stale_client_seed() {
        let fresh = authority_map(&Scenario::new(ProtocolKind::SeeMoReLion, 1, 1).with_shards(4));
        assert_eq!(fresh, ShardMap::uniform(4));
        let bumped = authority_map(
            &Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
                .with_shards(4)
                .with_stale_client_map(true),
        );
        assert!(ShardMap::uniform(1).is_older_than(&bumped));
        assert_eq!(bumped.groups(), 4);
    }
}
