//! Linearizability property tests for the read-only fast path.
//!
//! The fast path serves reads *without ordering them* — from the trusted
//! primary's executed state under a commit-index lease in Lion/Dog, from a
//! `2m + 1`-matching proxy quorum in Peacock, and through the analogous
//! seams in the CFT (leader reads) and BFT (quorum reads) baselines. The
//! property that must survive is linearizability of the resulting register:
//! **every read returns the value of the latest write that completed before
//! the read was invoked** (reads concurrent with a write may return either
//! side of it).
//!
//! The harness drives the deterministic [`SyncCluster`] through *random
//! message-level interleavings*: submissions, partial network deliveries,
//! timer fires, primary crashes and dynamic mode switches are shuffled by a
//! seeded RNG, so reads race proposals, commits, view changes and mode
//! switches in every way the schedule space allows. Every write carries a
//! globally unique value, and `seemore_core::check::reads_linearizable`
//! then judges each read outcome against the commit order, which it takes
//! from the longest listed history once every pair of listed replicas has
//! been found in per-slot agreement (request and result digests):
//!
//! * a read returning value `v` identifies the write `W` that produced it;
//!   if any other write to the same key is ordered *after* `W` but
//!   *completed before the read was invoked*, the read was stale — FAIL;
//! * a read returning `NotFound` fails if any write to its key completed
//!   before the read was invoked;
//! * a read returning a value never written to its key, or written by a
//!   write no listed replica executed, fails, and so does a completed write
//!   that no listed replica executed.
//!
//! Interval endpoints come from the harness' virtual clock (invocation =
//! submission instant, response = completion instant), so only genuinely
//! non-overlapping operations are constrained — the check is sound for
//! concurrent operations by construction. That the checker has teeth (a
//! fabricated stale read is rejected) is a unit test of `check` itself.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seemore::app::{KvOp, KvStore};
use seemore::baselines::{BaselineClient, BaselineConfig, BftReplica, CftReplica};
use seemore::core::check::{self, History, Invocation};
use seemore::core::client::{ClientCore, ClientOutcome};
use seemore::core::config::ProtocolConfig;
use seemore::core::replica::SeeMoReReplica;
use seemore::core::testkit::SyncCluster;
use seemore::crypto::KeyStore;
use seemore::types::{
    ClientId, ClusterConfig, Duration, Instant, Mode, OpClass, ReplicaId, RequestId, Timestamp,
};
use std::collections::HashMap;

const LIMIT: u64 = 400_000;
const KEYS: [&str; 2] = ["alpha", "beta"];

/// Everything the checker needs about one run.
#[derive(Default)]
struct OpLog {
    /// Every submission, in order. Timestamps are assigned 1, 2, 3, … per
    /// client in submission order by the client cores.
    invocations: Vec<Invocation>,
    /// Per-client submission counters.
    counters: HashMap<ClientId, u64>,
    /// Monotonic counter making every written value globally unique.
    next_value: u64,
}

impl OpLog {
    /// Records a submission of `op` by `client` and returns the operation
    /// bytes plus classification to hand to the client core.
    fn record(&mut self, client: ClientId, op: KvOp, now: Instant) -> (Vec<u8>, OpClass) {
        let counter = self.counters.entry(client).or_insert(0);
        *counter += 1;
        let class = match op {
            KvOp::Get { .. } => OpClass::Read,
            _ => OpClass::Write,
        };
        let bytes = op.encode();
        self.invocations.push(Invocation {
            request: RequestId::new(client, Timestamp(*counter)),
            op,
            at: now,
        });
        (bytes, class)
    }

    /// Draws a fresh unique value.
    fn fresh_value(&mut self) -> Vec<u8> {
        self.next_value += 1;
        format!("w{}", self.next_value).into_bytes()
    }
}

/// One random step of the interleaving schedule.
fn random_step(
    cluster: &mut SyncCluster,
    rng: &mut SmallRng,
    log: &mut OpLog,
    clients: &[ClientId],
) {
    cluster.advance_time(Duration::from_micros(500));
    match rng.gen_range(0usize..100) {
        // Submit an operation on an idle client (reads and writes mixed).
        0..=49 => {
            let client = clients[rng.gen_range(0usize..clients.len())];
            if cluster.client(client).has_pending() {
                return;
            }
            let key = KEYS[rng.gen_range(0usize..KEYS.len())].as_bytes().to_vec();
            let op = if rng.gen_bool(0.5) {
                KvOp::Get { key }
            } else {
                let value = log.fresh_value();
                KvOp::Put { key, value }
            };
            let now = cluster.now();
            let (op, class) = log.record(client, op, now);
            cluster.submit_op(client, op, class);
        }
        // Deliver a few queued messages (partial progress — this is what
        // lets reads race in-flight proposals and commits). Half the time
        // the delivery is *reordered*: the asynchronous network may deliver
        // in any order, and reordering is exactly what opens the
        // read-overtakes-commit races the fence and lease exist to close.
        50..=84 => {
            let deliveries = rng.gen_range(1usize..12);
            for _ in 0..deliveries {
                let delivered = if rng.gen_bool(0.5) {
                    let index = rng.gen_range(0usize..64);
                    cluster.step_reordered(index)
                } else {
                    cluster.step()
                };
                if !delivered {
                    break;
                }
            }
        }
        // Drain the network completely.
        85..=92 => {
            cluster.run_to_quiescence(LIMIT);
        }
        // Client retransmission timers (drives read fallbacks too).
        93..=96 => {
            cluster.fire_client_timers(LIMIT);
        }
        // Replica timers: progress/suspicion/flush — may trigger view
        // changes mid-run, which the fast path must survive.
        _ => {
            cluster.advance_time(Duration::from_millis(250));
            cluster.fire_all_timers(LIMIT);
        }
    }
}

/// Lets every in-flight operation finish: drains the network and keeps
/// firing timers (view changes, retransmissions, fallbacks) until no client
/// has a pending request.
fn drain(cluster: &mut SyncCluster, clients: &[ClientId]) {
    for _ in 0..80 {
        cluster.run_to_quiescence(LIMIT);
        if clients.iter().all(|c| !cluster.client(*c).has_pending()) {
            return;
        }
        cluster.advance_time(Duration::from_millis(300));
        cluster.fire_all_timers(LIMIT);
        cluster.fire_client_timers(LIMIT);
    }
}

/// Collects every completed outcome from every client.
fn outcomes(cluster: &SyncCluster, clients: &[ClientId]) -> Vec<ClientOutcome> {
    clients
        .iter()
        .flat_map(|c| cluster.client(*c).completed().to_vec())
        .collect()
}

/// The executed histories of `replicas`, as the oracle takes them.
fn histories<'a>(cluster: &'a SyncCluster, replicas: &[ReplicaId]) -> Vec<History<'a>> {
    replicas
        .iter()
        .map(|r| (*r, cluster.replica(*r).executed()))
        .collect()
}

// ----------------------------------------------------------------------
// SeeMoRe harness
// ----------------------------------------------------------------------

struct SeeMoReHarness {
    cluster: SyncCluster,
    config: ClusterConfig,
    clients: Vec<ClientId>,
}

fn build_seemore(mode: Mode, seed: u64, clients: u64) -> SeeMoReHarness {
    let config = ClusterConfig::minimal(1, 1).expect("valid cluster");
    let keystore = KeyStore::generate(seed, config.total_size(), clients);
    let mut cluster = SyncCluster::new();
    for replica in config.replicas() {
        cluster.add_replica(Box::new(SeeMoReReplica::new(
            replica,
            config,
            ProtocolConfig::default(),
            keystore.clone(),
            mode,
            Box::new(KvStore::new()),
        )));
    }
    let ids: Vec<ClientId> = (0..clients).map(ClientId).collect();
    for id in &ids {
        cluster.add_client(ClientCore::new(
            *id,
            config,
            keystore.clone(),
            mode,
            Duration::from_millis(100),
        ));
    }
    SeeMoReHarness {
        cluster,
        config,
        clients: ids,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random read/write interleavings in all three modes, fault-free:
    /// every completed read is linearizable and the run makes progress.
    #[test]
    fn seemore_reads_are_linearizable_in_every_mode(
        seed in 0u64..1_000_000,
        mode_index in 0usize..3,
        steps in 30usize..80,
    ) {
        let mode = Mode::ALL[mode_index];
        let mut h = build_seemore(mode, seed, 3);
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0xFA57);
        let mut log = OpLog::default();
        for _ in 0..steps {
            random_step(&mut h.cluster, rng, &mut log, &h.clients);
        }
        drain(&mut h.cluster, &h.clients);

        let outcomes = outcomes(&h.cluster, &h.clients);
        let replicas: Vec<ReplicaId> = h.config.replicas().collect();
        let histories = histories(&h.cluster, &replicas);
        let verdict = check::reads_linearizable(&histories, &log.invocations, &outcomes);
        prop_assert_eq!(verdict, Ok(()), "{mode} seed={seed}");
        prop_assert!(!outcomes.is_empty(), "{mode} seed={seed}: no operation completed");
    }

    /// Same property with the view-0 primary crashing at a random point in
    /// the schedule: reads served before, during and after the view change
    /// must all be linearizable (the lease must expire before the successor
    /// commits anything conflicting).
    #[test]
    fn seemore_reads_stay_linearizable_across_a_view_change(
        seed in 0u64..1_000_000,
        mode_index in 0usize..3,
        steps in 40usize..80,
        crash_at in 5usize..35,
    ) {
        let mode = Mode::ALL[mode_index];
        let mut h = build_seemore(mode, seed, 3);
        let primary = h.config.primary(mode, seemore::types::View(0)).unwrap();
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0xDEAD);
        let mut log = OpLog::default();
        for step in 0..steps {
            if step == crash_at {
                h.cluster.replica_mut(primary).crash();
            }
            random_step(&mut h.cluster, rng, &mut log, &h.clients);
        }
        drain(&mut h.cluster, &h.clients);

        let outcomes = outcomes(&h.cluster, &h.clients);
        let alive: Vec<ReplicaId> = h.config.replicas().filter(|r| *r != primary).collect();
        let histories = histories(&h.cluster, &alive);
        let verdict = check::reads_linearizable(&histories, &log.invocations, &outcomes);
        prop_assert_eq!(verdict, Ok(()), "{mode} seed={seed} crash_at={crash_at}");
    }

    /// Same property across a dynamic mode switch announced mid-schedule:
    /// the read rule changes under the clients' feet (lease reads ↔ quorum
    /// reads) and parked reads are flushed as refusals, yet every completed
    /// read stays linearizable.
    #[test]
    fn seemore_reads_stay_linearizable_across_a_mode_switch(
        seed in 0u64..1_000_000,
        from_index in 0usize..3,
        to_index in 0usize..3,
        steps in 40usize..80,
        switch_at in 5usize..35,
    ) {
        let from = Mode::ALL[from_index];
        let to = Mode::ALL[to_index];
        prop_assume!(from != to);
        let mut h = build_seemore(from, seed, 3);
        let trusted: Vec<ReplicaId> = h.config.private_replicas().collect();
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0x5717C4);
        let mut log = OpLog::default();
        for step in 0..steps {
            if step == switch_at {
                // Only the legitimate announcer for the next view acts; the
                // others ignore the request, so asking every trusted replica
                // is the simplest correct trigger.
                for replica in &trusted {
                    h.cluster.request_mode_switch(*replica, to);
                }
            }
            random_step(&mut h.cluster, rng, &mut log, &h.clients);
        }
        drain(&mut h.cluster, &h.clients);

        let outcomes = outcomes(&h.cluster, &h.clients);
        let replicas: Vec<ReplicaId> = h.config.replicas().collect();
        let histories = histories(&h.cluster, &replicas);
        let verdict = check::reads_linearizable(&histories, &log.invocations, &outcomes);
        prop_assert_eq!(verdict, Ok(()), "{from}->{to} seed={seed} switch_at={switch_at}");
    }

    /// The same classification seam through the baselines: CFT leader reads
    /// and BFT quorum reads are linearizable under random interleavings,
    /// with and without a leader crash mid-schedule.
    #[test]
    fn baseline_reads_are_linearizable(
        seed in 0u64..1_000_000,
        bft in proptest::bool::ANY,
        crash_leader in proptest::bool::ANY,
        steps in 30usize..70,
        crash_at in 5usize..25,
    ) {
        let config = if bft {
            BaselineConfig::bft(1)
        } else {
            BaselineConfig::cft(1)
        };
        let keystore = KeyStore::generate(seed, config.network_size, 3);
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            if bft {
                cluster.add_replica(Box::new(BftReplica::new(
                    replica,
                    config,
                    ProtocolConfig::default(),
                    keystore.clone(),
                    Box::new(KvStore::new()),
                )));
            } else {
                cluster.add_replica(Box::new(CftReplica::new(
                    replica,
                    config,
                    ProtocolConfig::default(),
                    Box::new(KvStore::new()),
                )));
            }
        }
        let clients: Vec<ClientId> = (0..3).map(ClientId).collect();
        for id in &clients {
            cluster.add_client(BaselineClient::new(
                *id,
                config,
                keystore.clone(),
                Duration::from_millis(100),
            ));
        }

        let leader = config.primary(seemore::types::View::ZERO);
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0xBA5E);
        let mut log = OpLog::default();
        for step in 0..steps {
            if crash_leader && step == crash_at {
                cluster.replica_mut(leader).crash();
            }
            random_step(&mut cluster, rng, &mut log, &clients);
        }
        drain(&mut cluster, &clients);

        let outcomes = outcomes(&cluster, &clients);
        let reference: Vec<ReplicaId> = config
            .replicas()
            .filter(|r| !(crash_leader && *r == leader))
            .collect();
        let histories = histories(&cluster, &reference);
        let verdict = check::reads_linearizable(&histories, &log.invocations, &outcomes);
        let name = if bft { "BFT" } else { "CFT" };
        prop_assert_eq!(verdict, Ok(()), "{name} seed={seed} crash_leader={crash_leader}");
    }
}
