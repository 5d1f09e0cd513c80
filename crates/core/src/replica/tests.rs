//! Protocol-level tests for the SeeMoRe replica, driven through the
//! synchronous test cluster.

use crate::actions::Timer;
use crate::batching::BatchConfig;
use crate::byzantine::{ByzantineBehavior, ByzantineReplica};
use crate::check::{self, History};
use crate::client::ClientCore;
use crate::config::{BatchPolicy, ProtocolConfig};
use crate::replica::SeeMoReReplica;
use crate::testkit::SyncCluster;
use seemore_app::{KvOp, KvResult, KvStore};
use seemore_crypto::KeyStore;
use seemore_store::{Durability, DurableCheckpoint, RecoveredState, WalRecord};
use seemore_types::{ClientId, ClusterConfig, Duration, Mode, ReplicaId, SeqNum};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds a cluster of SeeMoRe replicas plus `clients` clients, all in
/// `mode`.
fn build_cluster(
    c: u32,
    m: u32,
    mode: Mode,
    clients: u64,
    pconfig: ProtocolConfig,
) -> (SyncCluster, ClusterConfig, KeyStore) {
    let cluster_config = ClusterConfig::minimal(c, m).expect("valid minimal cluster");
    let keystore = KeyStore::generate(
        0x5eed ^ u64::from(c * 31 + m),
        cluster_config.total_size(),
        clients,
    );
    let mut cluster = SyncCluster::new();
    for replica in cluster_config.replicas() {
        cluster.add_replica(Box::new(SeeMoReReplica::new(
            replica,
            cluster_config,
            pconfig,
            keystore.clone(),
            mode,
            Box::new(KvStore::new()),
        )));
    }
    for client in 0..clients {
        cluster.add_client(ClientCore::new(
            ClientId(client),
            cluster_config,
            keystore.clone(),
            mode,
            Duration::from_millis(100),
        ));
    }
    (cluster, cluster_config, keystore)
}

/// The executed histories of `replicas`, as the oracle takes them.
fn histories(
    cluster: &SyncCluster,
    replicas: impl IntoIterator<Item = ReplicaId>,
) -> Vec<History<'_>> {
    replicas
        .into_iter()
        .map(|r| (r, cluster.replica(r).executed()))
        .collect()
}

/// The batch-flush timer currently armed on `id` (timers are
/// generation-tagged, so tests must look the live identity up rather than
/// name a constant).
fn armed_batch_flush(cluster: &SyncCluster, id: ReplicaId) -> Option<Timer> {
    cluster
        .armed_timers(id)
        .into_iter()
        .find(|t| matches!(t, Timer::BatchFlush { .. }))
}

fn put_op(key: &str, value: &str) -> Vec<u8> {
    KvOp::Put {
        key: key.as_bytes().to_vec(),
        value: value.as_bytes().to_vec(),
    }
    .encode()
}

fn get_op(key: &str) -> Vec<u8> {
    KvOp::Get {
        key: key.as_bytes().to_vec(),
    }
    .encode()
}

const LIMIT: u64 = 200_000;

// ----------------------------------------------------------------------
// Normal-case operation, one test per mode
// ----------------------------------------------------------------------

#[test]
fn lion_mode_commits_and_replies() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("account", "100"));
    cluster.run_to_quiescence(LIMIT);

    let client = cluster.client(ClientId(0));
    assert_eq!(client.completed().len(), 1, "client request must complete");
    assert_eq!(
        KvResult::decode(&client.completed()[0].result),
        Some(KvResult::Ok)
    );

    // Every replica executed the request.
    for replica in config.replicas() {
        assert_eq!(
            cluster.replica(replica).executed().len(),
            1,
            "{replica} lagging"
        );
    }
    check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
}

#[test]
fn dog_mode_commits_and_replies() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Dog, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("k", "v"));
    cluster.run_to_quiescence(LIMIT);

    let client = cluster.client(ClientId(0));
    assert_eq!(client.completed().len(), 1);

    for replica in config.replicas() {
        assert_eq!(
            cluster.replica(replica).executed().len(),
            1,
            "{replica} did not execute (passive replicas learn via INFORM)"
        );
    }
    check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
}

#[test]
fn peacock_mode_commits_and_replies() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Peacock, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("k", "v"));
    cluster.run_to_quiescence(LIMIT);

    let client = cluster.client(ClientId(0));
    assert_eq!(client.completed().len(), 1);

    for replica in config.replicas() {
        assert_eq!(
            cluster.replica(replica).executed().len(),
            1,
            "{replica} lagging"
        );
    }
    check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
}

#[test]
fn sequential_requests_are_totally_ordered_across_clients() {
    for mode in Mode::ALL {
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 3, ProtocolConfig::default());
        for round in 0..5 {
            for client in 0..3u64 {
                cluster.submit(
                    ClientId(client),
                    put_op(&format!("k{client}"), &format!("{round}")),
                );
                cluster.run_to_quiescence(LIMIT);
            }
        }
        for client in 0..3u64 {
            assert_eq!(
                cluster.client(ClientId(client)).completed().len(),
                5,
                "{mode}: client {client} incomplete"
            );
        }
        let replicas: Vec<ReplicaId> = config.replicas().collect();
        for replica in &replicas {
            assert_eq!(
                cluster.replica(*replica).executed().len(),
                15,
                "{mode}: {replica}"
            );
        }
        check::safety(&histories(&cluster, replicas.iter().copied()), &[]).unwrap();
    }
}

#[test]
fn reads_observe_prior_writes() {
    let (mut cluster, _, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("x", "42"));
    cluster.run_to_quiescence(LIMIT);
    cluster.submit(ClientId(0), get_op("x"));
    cluster.run_to_quiescence(LIMIT);

    let client = cluster.client(ClientId(0));
    assert_eq!(client.completed().len(), 2);
    assert_eq!(
        KvResult::decode(&client.completed()[1].result),
        Some(KvResult::Value(b"42".to_vec()))
    );
}

// ----------------------------------------------------------------------
// Crash tolerance
// ----------------------------------------------------------------------

#[test]
fn lion_tolerates_backup_crash_in_private_cloud() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    // Crash the non-primary trusted replica (r1); c = 1 tolerates it.
    cluster.replica_mut(ReplicaId(1)).crash();

    for i in 0..3 {
        cluster.submit(ClientId(0), put_op("k", &format!("{i}")));
        cluster.run_to_quiescence(LIMIT);
    }
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 3);
    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != ReplicaId(1)).collect();
    for replica in &alive {
        assert_eq!(cluster.replica(*replica).executed().len(), 3);
    }
    check::safety(&histories(&cluster, alive.iter().copied()), &[]).unwrap();
}

#[test]
fn lion_primary_crash_triggers_view_change_and_recovers() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    // Establish normal operation first.
    cluster.submit(ClientId(0), put_op("a", "1"));
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 1);

    // Crash the primary of view 0 (replica 0).
    cluster.replica_mut(ReplicaId(0)).crash();

    // The next request goes to the dead primary and stalls.
    cluster.submit(ClientId(0), put_op("a", "2"));
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 1);

    // Client retransmits; replicas forward to the dead primary and arm
    // progress timers.
    cluster.fire_client_timers(LIMIT);
    // Timers expire: view change to view 1 with the other trusted replica as
    // primary.
    cluster.fire_all_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);
    // Retransmit again so the new primary orders the request.
    cluster.fire_client_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);

    assert_eq!(
        cluster.client(ClientId(0)).completed().len(),
        2,
        "request must complete after the view change"
    );
    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != ReplicaId(0)).collect();
    for replica in &alive {
        assert!(
            cluster.replica(*replica).view() > seemore_types::View(0),
            "{replica} should have moved past view 0"
        );
    }
    check::safety(&histories(&cluster, alive.iter().copied()), &[]).unwrap();
}

#[test]
fn peacock_primary_crash_recovers_via_transferer() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Peacock, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("a", "1"));
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 1);

    // The Peacock primary of view 0 is the first public replica.
    let primary = config
        .primary(Mode::Peacock, seemore_types::View(0))
        .unwrap();
    cluster.replica_mut(primary).crash();

    cluster.submit(ClientId(0), put_op("a", "2"));
    cluster.run_to_quiescence(LIMIT);
    cluster.fire_client_timers(LIMIT);
    cluster.fire_all_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);
    cluster.fire_client_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);
    // One more retransmission round in case the first landed during the
    // view change.
    cluster.fire_client_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);

    assert_eq!(cluster.client(ClientId(0)).completed().len(), 2);
    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != primary).collect();
    check::safety(&histories(&cluster, alive.iter().copied()), &[]).unwrap();
}

// ----------------------------------------------------------------------
// Byzantine tolerance
// ----------------------------------------------------------------------

#[test]
fn byzantine_public_replicas_cannot_break_safety() {
    for behavior in [
        ByzantineBehavior::Silent,
        ByzantineBehavior::CorruptSignatures,
        ByzantineBehavior::ConflictingVotes,
    ] {
        for mode in [Mode::Dog, Mode::Peacock, Mode::Lion] {
            let cluster_config = ClusterConfig::minimal(1, 1).unwrap();
            let keystore = KeyStore::generate(777, cluster_config.total_size(), 1);
            let mut cluster = SyncCluster::new();
            // The last public replica misbehaves (m = 1 tolerated).
            let byzantine_id = ReplicaId(cluster_config.total_size() - 1);
            for replica in cluster_config.replicas() {
                let core = SeeMoReReplica::new(
                    replica,
                    cluster_config,
                    ProtocolConfig::default(),
                    keystore.clone(),
                    mode,
                    Box::new(KvStore::new()),
                );
                if replica == byzantine_id {
                    cluster.add_replica(Box::new(ByzantineReplica::new(core, behavior)));
                } else {
                    cluster.add_replica(Box::new(core));
                }
            }
            cluster.add_client(ClientCore::new(
                ClientId(0),
                cluster_config,
                keystore.clone(),
                mode,
                Duration::from_millis(100),
            ));

            for i in 0..3 {
                cluster.submit(ClientId(0), put_op("k", &format!("{i}")));
                cluster.run_to_quiescence(LIMIT);
                // Give lagging paths a chance via retransmission.
                if cluster.client(ClientId(0)).has_pending() {
                    cluster.fire_client_timers(LIMIT);
                    cluster.run_to_quiescence(LIMIT);
                }
            }
            assert_eq!(
                cluster.client(ClientId(0)).completed().len(),
                3,
                "{mode} with {behavior:?}: client starved"
            );
            let honest: Vec<ReplicaId> = cluster_config
                .replicas()
                .filter(|r| *r != byzantine_id)
                .collect();
            check::safety(&histories(&cluster, honest.iter().copied()), &[]).unwrap();
        }
    }
}

// ----------------------------------------------------------------------
// Checkpointing and garbage collection
// ----------------------------------------------------------------------

#[test]
fn checkpoints_become_stable_and_garbage_collect() {
    let pconfig = ProtocolConfig::with_checkpoint_period(4);
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 1, pconfig);
    for i in 0..9 {
        cluster.submit(ClientId(0), put_op(&format!("k{i}"), "v"));
        cluster.run_to_quiescence(LIMIT);
    }
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 9);
    for replica in config.replicas() {
        let metrics = cluster.replica(replica).metrics();
        assert!(
            metrics.stable_checkpoints >= 2,
            "{replica} stabilized only {} checkpoints",
            metrics.stable_checkpoints
        );
    }
    // Every replica executed past the second checkpoint, slot 8.
    let histories = histories(&cluster, config.replicas());
    check::progress_past(&histories, SeqNum(8)).unwrap();
}

#[test]
fn dog_mode_checkpoints_are_driven_by_the_trusted_primary() {
    let pconfig = ProtocolConfig::with_checkpoint_period(2);
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Dog, 1, pconfig);
    for i in 0..6 {
        cluster.submit(ClientId(0), put_op(&format!("k{i}"), "v"));
        cluster.run_to_quiescence(LIMIT);
    }
    for replica in config.replicas() {
        assert!(
            cluster.replica(replica).metrics().stable_checkpoints >= 1,
            "{replica}"
        );
    }
    // The passive replicas too executed up to the last checkpoint, slot 6.
    let histories = histories(&cluster, config.replicas());
    check::progress_past(&histories, SeqNum(6)).unwrap();
}

// ----------------------------------------------------------------------
// Dynamic mode switching
// ----------------------------------------------------------------------

#[test]
fn mode_switch_lion_to_peacock_and_back() {
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("a", "1"));
    cluster.run_to_quiescence(LIMIT);

    // Switch to Peacock: the announcer is the transferer of view 1.
    let announcer =
        crate::replica::mode_switch_announcer(&config, seemore_types::View(1), Mode::Peacock)
            .unwrap();
    let now = cluster.now();
    let actions = cluster
        .replica_mut(announcer)
        .request_mode_switch(Mode::Peacock, now);
    assert!(!actions.is_empty(), "announcer must emit the MODE-CHANGE");
    // Feed the announcer's own actions into the network.
    for action in &actions {
        for (to, message) in action.sends() {
            cluster.inject(
                seemore_types::NodeId::Replica(announcer),
                to,
                message.clone(),
            );
        }
    }
    cluster.run_to_quiescence(LIMIT);

    for replica in config.replicas() {
        assert_eq!(
            cluster.replica(replica).mode(),
            Mode::Peacock,
            "{replica} did not switch"
        );
    }

    // The protocol keeps working in the new mode.
    cluster.submit(ClientId(0), put_op("a", "2"));
    cluster.run_to_quiescence(LIMIT);
    if cluster.client(ClientId(0)).has_pending() {
        cluster.fire_client_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);
    }
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 2);

    // And back to Lion (announcer = primary of the next view in Lion mode).
    let current_view = cluster.replica(ReplicaId(0)).view();
    let announcer = crate::replica::mode_switch_announcer(
        &config,
        seemore_types::View(current_view.0 + 1),
        Mode::Lion,
    )
    .unwrap();
    let now = cluster.now();
    let actions = cluster
        .replica_mut(announcer)
        .request_mode_switch(Mode::Lion, now);
    for action in &actions {
        for (to, message) in action.sends() {
            cluster.inject(
                seemore_types::NodeId::Replica(announcer),
                to,
                message.clone(),
            );
        }
    }
    cluster.run_to_quiescence(LIMIT);
    for replica in config.replicas() {
        assert_eq!(
            cluster.replica(replica).mode(),
            Mode::Lion,
            "{replica} did not switch back"
        );
    }

    cluster.submit(ClientId(0), put_op("a", "3"));
    cluster.run_to_quiescence(LIMIT);
    if cluster.client(ClientId(0)).has_pending() {
        cluster.fire_client_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);
    }
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 3);
    check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
}

// ----------------------------------------------------------------------
// Larger failure configurations (the Fig. 2 scenarios)
// ----------------------------------------------------------------------

#[test]
fn figure2_configurations_all_commit() {
    for (c, m) in [(1, 1), (2, 2), (1, 3), (3, 1)] {
        for mode in Mode::ALL {
            let (mut cluster, config, _) = build_cluster(c, m, mode, 1, ProtocolConfig::default());
            cluster.submit(ClientId(0), put_op("k", "v"));
            cluster.run_to_quiescence(LIMIT);
            if cluster.client(ClientId(0)).has_pending() {
                cluster.fire_client_timers(LIMIT);
                cluster.run_to_quiescence(LIMIT);
            }
            assert_eq!(
                cluster.client(ClientId(0)).completed().len(),
                1,
                "c={c} m={m} {mode}: request did not complete"
            );
            check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
        }
    }
}

// ----------------------------------------------------------------------
// Batching: one sequence number orders many requests
// ----------------------------------------------------------------------

/// A full batch (size trigger) commits atomically in every mode: all member
/// requests execute in batch order under one sequence number, and every
/// client gets its reply.
#[test]
fn full_batches_commit_atomically_in_every_mode() {
    for mode in Mode::ALL {
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 3, pconfig);
        for client in 0..3u64 {
            cluster.submit(ClientId(client), put_op(&format!("k{client}"), "v"));
        }
        cluster.run_to_quiescence(LIMIT);
        if (0..3u64).any(|c| cluster.client(ClientId(c)).has_pending()) {
            cluster.fire_client_timers(LIMIT);
            cluster.run_to_quiescence(LIMIT);
        }
        for client in 0..3u64 {
            assert_eq!(
                cluster.client(ClientId(client)).completed().len(),
                1,
                "{mode}: client {client} starved"
            );
        }
        for replica in config.replicas() {
            let history = cluster.replica(replica).executed();
            assert_eq!(history.len(), 3, "{mode}: {replica} lagging");
            // All three requests share one slot, in batch order.
            assert!(
                history.iter().all(|e| e.seq == SeqNum(1)),
                "{mode}: {replica}"
            );
            let offsets: Vec<usize> = history.iter().map(|e| e.offset).collect();
            assert_eq!(offsets, vec![0, 1, 2], "{mode}: {replica}");
        }
        check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
    }
}

/// A partial batch is cut by the flush timer (latency trigger), not lost.
#[test]
fn partial_batches_flush_on_the_timer() {
    for mode in Mode::ALL {
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(64, Duration::from_millis(1)));
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 2, pconfig);
        cluster.submit(ClientId(0), put_op("a", "1"));
        cluster.submit(ClientId(1), put_op("b", "2"));
        cluster.run_to_quiescence(LIMIT);
        // Nothing ordered yet: the buffer holds 2 < 64 requests.
        let primary = config.primary(mode, seemore_types::View(0)).unwrap();
        for replica in config.replicas() {
            assert!(
                cluster.replica(replica).executed().is_empty(),
                "{mode}: {replica}"
            );
        }
        // The flush timer cuts the partial batch.
        let flush = armed_batch_flush(&cluster, primary).expect("flush timer armed");
        assert!(cluster.fire_timer(primary, flush), "{mode}: timer armed");
        cluster.run_to_quiescence(LIMIT);
        if (0..2u64).any(|c| cluster.client(ClientId(c)).has_pending()) {
            cluster.fire_client_timers(LIMIT);
            cluster.run_to_quiescence(LIMIT);
        }
        for replica in config.replicas() {
            let history = cluster.replica(replica).executed();
            assert_eq!(history.len(), 2, "{mode}: {replica} lagging");
            assert!(
                history.iter().all(|e| e.seq == SeqNum(1)),
                "{mode}: {replica}"
            );
        }
        for client in 0..2u64 {
            assert_eq!(
                cluster.client(ClientId(client)).completed().len(),
                1,
                "{mode}"
            );
        }
    }
}

/// A view change preserves a prepared-but-uncommitted batch: the batch was
/// proposed by the old primary and received by the backups but never
/// committed; the new view must re-propose and commit it without losing,
/// duplicating or reordering its member requests.
#[test]
fn view_change_preserves_prepared_but_uncommitted_batches() {
    let pconfig =
        ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 3, pconfig);
    let primary = config.primary(Mode::Lion, seemore_types::View(0)).unwrap();

    // Deliver the three client requests to the primary; the third fills the
    // batch and queues the PREPARE broadcast.
    for client in 0..3u64 {
        cluster.submit(ClientId(client), put_op(&format!("k{client}"), "v"));
    }
    for _ in 0..3 {
        assert!(cluster.step(), "request delivery");
    }
    // Cut the primary off *before* any ACCEPT can reach it: the queued
    // PREPAREs still go out (they were already sent), but the commit never
    // happens — the batch is prepared everywhere and committed nowhere.
    cluster.isolate(primary);
    cluster.run_to_quiescence(LIMIT);
    for replica in config.replicas().filter(|r| *r != primary) {
        assert!(
            cluster.replica(replica).executed().is_empty(),
            "{replica} committed early"
        );
    }

    // Backups suspect the primary and install view 1; the new primary
    // re-proposes the carried batch.
    cluster.fire_all_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);
    cluster.fire_client_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);

    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != primary).collect();
    for replica in &alive {
        let history = cluster.replica(*replica).executed();
        assert!(
            cluster.replica(*replica).view() > seemore_types::View(0),
            "{replica} still in view 0"
        );
        // The batch survived intact: same three requests, batch order
        // preserved, nothing duplicated.
        let executed: Vec<u64> = history
            .iter()
            .filter(|e| e.request.client != crate::chassis::NOOP_CLIENT)
            .map(|e| e.request.client.0)
            .collect();
        assert_eq!(
            executed,
            vec![0, 1, 2],
            "{replica} lost or reordered the batch"
        );
    }
    check::safety(&histories(&cluster, alive.iter().copied()), &[]).unwrap();
    for client in 0..3u64 {
        assert_eq!(
            cluster.client(ClientId(client)).completed().len(),
            1,
            "client {client} starved across the view change"
        );
    }
}

/// A signed `VIEW-CHANGE` from `voter` for `(view, mode)` carrying
/// `prepares`.
fn signed_view_change(
    keystore: &KeyStore,
    voter: ReplicaId,
    view: seemore_types::View,
    mode: Mode,
    prepares: Vec<seemore_wire::PrepareCert>,
) -> seemore_wire::Message {
    use seemore_crypto::Signature;
    use seemore_types::NodeId;
    use seemore_wire::{SignedPayload, ViewChange};

    let mut vote = ViewChange {
        new_view: view,
        mode,
        stable_seq: SeqNum(0),
        checkpoint_proof: Vec::new(),
        prepares,
        commits: Vec::new(),
        replica: voter,
        signature: Signature::INVALID,
    };
    vote.signature = keystore
        .signer_for(NodeId::Replica(voter))
        .unwrap()
        .sign(&vote.signing_bytes());
    seemore_wire::Message::ViewChange(vote)
}

/// Certificate re-validation at the Peacock transferer: a carried batch that
/// does not hash to its certificate's digest, or that holds a member request
/// whose client signature does not verify, is not re-proposed; its slot
/// becomes a no-op in the NEW-VIEW.
#[test]
fn peacock_new_view_fills_invalid_certificates_with_no_ops() {
    use crate::protocol::ReplicaProtocol;
    use seemore_crypto::{Digest, Signature};
    use seemore_types::{NodeId, Timestamp, View};
    use seemore_wire::{Batch, ClientRequest, Message, PrepareCert};

    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(0xCE27, config.total_size(), 1);
    let transferer = config.transferer(View(1)).unwrap();
    let mut replica = SeeMoReReplica::new(
        transferer,
        config,
        ProtocolConfig::default(),
        keystore.clone(),
        Mode::Peacock,
        Box::new(KvStore::new()),
    );
    let client = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
    let request =
        |ts: u64| ClientRequest::new(ClientId(0), Timestamp(ts), put_op("k", "v"), &client);
    let cert = |seq: u64, batch: Batch| PrepareCert {
        view: View(0),
        seq: SeqNum(seq),
        digest: batch.digest(),
        primary_signature: Signature::INVALID,
        batch: Some(batch),
    };
    let mut wrong_digest = cert(1, Batch::single(request(1)));
    wrong_digest.digest = Digest::of_bytes(b"some other batch");
    let forged = ClientRequest::from_parts(
        ClientId(0),
        Timestamp(2),
        put_op("k", "forged"),
        request(2).signature,
    );
    let valid = cert(3, Batch::single(request(3)));
    let prepares = vec![wrong_digest, cert(2, Batch::single(forged)), valid.clone()];

    // The 2m + 1 = 3 public voters all carry the same certificates.
    let mut new_view = None;
    for voter in config.public_replicas().take(3) {
        let vote = signed_view_change(&keystore, voter, View(1), Mode::Peacock, prepares.clone());
        let actions =
            replica.on_message(NodeId::Replica(voter), vote, seemore_types::Instant::ZERO);
        new_view = new_view.or(actions
            .iter()
            .flat_map(crate::actions::Action::sends)
            .find_map(|(_, message)| match message {
                Message::NewView(new_view) => Some(new_view.clone()),
                _ => None,
            }));
    }
    let new_view = new_view.expect("three votes complete the NEW-VIEW");
    assert_eq!(replica.view(), View(1));
    let slots: Vec<(u64, bool)> = new_view
        .prepares
        .iter()
        .map(|cert| {
            let noop = cert.batch.as_ref().is_some_and(|batch| {
                batch
                    .iter()
                    .all(|r| r.client() == crate::chassis::NOOP_CLIENT)
            });
            (cert.seq.0, noop)
        })
        .collect();
    assert_eq!(slots, vec![(1, true), (2, true), (3, false)]);
    assert_eq!(new_view.prepares[2].digest, valid.digest);
}

/// Only the collector of the view being installed (the Lion primary of that
/// view) may send its NEW-VIEW; a correctly signed one from anybody else is
/// refused and counted.
#[test]
fn lion_refuses_a_new_view_from_a_replica_that_is_not_its_collector() {
    use crate::protocol::ReplicaProtocol;
    use seemore_crypto::Signature;
    use seemore_types::{NodeId, View};
    use seemore_wire::{Message, NewView, SignedPayload};

    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(0xC011, config.total_size(), 1);
    let mut replica = SeeMoReReplica::new(
        ReplicaId(2),
        config,
        ProtocolConfig::default(),
        keystore.clone(),
        Mode::Lion,
        Box::new(KvStore::new()),
    );
    let impostor = ReplicaId(3);
    assert_ne!(config.primary(Mode::Lion, View(1)).unwrap(), impostor);
    let mut new_view = NewView {
        view: View(1),
        mode: Mode::Lion,
        prepares: Vec::new(),
        commits: Vec::new(),
        checkpoint: None,
        view_change_proof: Vec::new(),
        replica: impostor,
        signature: Signature::INVALID,
    };
    new_view.signature = keystore
        .signer_for(NodeId::Replica(impostor))
        .unwrap()
        .sign(&new_view.signing_bytes());
    replica.on_message(
        NodeId::Replica(impostor),
        Message::NewView(new_view),
        seemore_types::Instant::ZERO,
    );
    assert_eq!(replica.view(), View(0));
    assert_eq!(replica.metrics().rejected_messages, 1);
}

/// A replica that buffered requests and was then deposed re-routes its
/// buffer to the new primary instead of stranding the requests.
#[test]
fn deposed_primary_reroutes_its_batch_buffer() {
    let pconfig =
        ProtocolConfig::default().with_batching(BatchConfig::new(64, Duration::from_millis(1)));
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Lion, 2, pconfig);
    let primary = config.primary(Mode::Lion, seemore_types::View(0)).unwrap();

    // Two requests reach the primary's buffer (64 never fills).
    cluster.submit(ClientId(0), put_op("a", "1"));
    cluster.submit(ClientId(1), put_op("b", "2"));
    cluster.run_to_quiescence(LIMIT);

    // Clients retransmit to everyone; backups forward to the (stalled)
    // primary and arm suspicion timers. The primary is isolated so its
    // flush can no longer reach anyone.
    cluster.isolate(primary);
    cluster.fire_client_timers(LIMIT);
    cluster.fire_all_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);
    cluster.fire_client_timers(LIMIT);
    cluster.run_to_quiescence(LIMIT);

    for client in 0..2u64 {
        assert_eq!(
            cluster.client(ClientId(client)).completed().len(),
            1,
            "client {client} starved after the primary was deposed"
        );
    }
    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != primary).collect();
    check::safety(&histories(&cluster, alive.iter().copied()), &[]).unwrap();
}

/// Regression for the stale flush-timer bug: a size-trigger cut used to
/// leave the armed `BatchFlush` timer live, so it fired into the *next*
/// buffer and cut it prematurely — silently truncating the flush delay of
/// every batch after the first under steady load. With generation-tagged
/// timers the stale expiry is provably not the armed timer and is ignored:
/// the second batch waits out its own full delay.
#[test]
fn stale_flush_timer_cannot_truncate_the_next_batch() {
    for mode in Mode::ALL {
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 4, pconfig);
        let primary = config.primary(mode, seemore_types::View(0)).unwrap();

        // The first request arms the flush timer; remember that identity.
        cluster.submit(ClientId(0), put_op("a", "1"));
        cluster.run_to_quiescence(LIMIT);
        let stale =
            armed_batch_flush(&cluster, primary).expect("first buffered request arms the timer");

        // Fill the batch: the size trigger cuts it, which must invalidate
        // (and cancel) the armed timer.
        cluster.submit(ClientId(1), put_op("b", "2"));
        cluster.submit(ClientId(2), put_op("c", "3"));
        cluster.run_to_quiescence(LIMIT);
        if (0..3u64).any(|c| cluster.client(ClientId(c)).has_pending()) {
            cluster.fire_client_timers(LIMIT);
            cluster.run_to_quiescence(LIMIT);
        }
        for replica in config.replicas() {
            assert_eq!(
                cluster.replica(replica).executed().len(),
                3,
                "{mode}: {replica} missing the first batch"
            );
        }
        assert!(
            armed_batch_flush(&cluster, primary).is_none(),
            "{mode}: the size cut must cancel the flush timer"
        );

        // A fourth request starts the second buffer with a fresh timer.
        cluster.submit(ClientId(3), put_op("d", "4"));
        cluster.run_to_quiescence(LIMIT);
        let fresh = armed_batch_flush(&cluster, primary).expect("second buffer arms a timer");
        assert_ne!(fresh, stale, "{mode}: every arming gets a new generation");

        // The stale timer expires anyway (a substrate can race an expiry
        // against the cancel): it must NOT cut the second batch early.
        let now = cluster.now();
        let actions = cluster.replica_mut(primary).on_timer(stale, now);
        assert!(
            actions.is_empty(),
            "{mode}: stale flush timer produced actions: {actions:?}"
        );
        cluster.run_to_quiescence(LIMIT);
        for replica in config.replicas() {
            assert_eq!(
                cluster.replica(replica).executed().len(),
                3,
                "{mode}: {replica} executed the second batch before its delay elapsed"
            );
        }
        assert_eq!(
            cluster.replica(primary).metrics().batch.stale_timer_fires,
            1,
            "{mode}: the stale expiry should be counted"
        );

        // The *current* timer — i.e. the full delay of the second buffer —
        // is what flushes it.
        assert!(
            cluster.fire_timer(primary, fresh),
            "{mode}: fresh timer still armed"
        );
        cluster.run_to_quiescence(LIMIT);
        if cluster.client(ClientId(3)).has_pending() {
            cluster.fire_client_timers(LIMIT);
            cluster.run_to_quiescence(LIMIT);
        }
        assert_eq!(
            cluster.client(ClientId(3)).completed().len(),
            1,
            "{mode}: second batch lost"
        );
        check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
    }
}

/// A zero flush delay with a cap above 1 must not arm a zero-delay timer
/// per request (degenerate timer churn): it proposes every request
/// immediately, exactly like an unbatched policy.
#[test]
fn zero_delay_policy_proposes_immediately_without_timer_churn() {
    for mode in Mode::ALL {
        let pconfig = ProtocolConfig::default().with_batching(BatchConfig::new(8, Duration::ZERO));
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 2, pconfig);
        let primary = config.primary(mode, seemore_types::View(0)).unwrap();
        for client in 0..2u64 {
            cluster.submit(ClientId(client), put_op(&format!("k{client}"), "v"));
        }
        cluster.run_to_quiescence(LIMIT);
        if (0..2u64).any(|c| cluster.client(ClientId(c)).has_pending()) {
            cluster.fire_client_timers(LIMIT);
            cluster.run_to_quiescence(LIMIT);
        }
        assert!(
            armed_batch_flush(&cluster, primary).is_none(),
            "{mode}: a zero-delay policy must never arm a flush timer"
        );
        for client in 0..2u64 {
            assert_eq!(
                cluster.client(ClientId(client)).completed().len(),
                1,
                "{mode}: client {client}"
            );
        }
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 2, "{mode}");
        }
        // Every batch was a singleton cut on arrival.
        assert_eq!(
            cluster.replica(primary).metrics().batch.max_size(),
            1,
            "{mode}"
        );
    }
}

/// The adaptive policy grows the effective cap past 1 under a request burst
/// (slots in flight at cut time) and never cuts a batch above its ceiling,
/// in every mode.
#[test]
fn adaptive_policy_grows_batches_under_load_in_every_mode() {
    for mode in Mode::ALL {
        let pconfig = ProtocolConfig::default()
            .with_batch_policy(BatchPolicy::adaptive(4, Duration::from_millis(1)));
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 6, pconfig);
        let primary = config.primary(mode, seemore_types::View(0)).unwrap();

        for round in 0..3 {
            for client in 0..6u64 {
                cluster.submit(ClientId(client), put_op(&format!("k{client}-{round}"), "v"));
            }
            // Drain the burst, firing flush timers for partial tails and
            // client retransmissions for stragglers.
            for _ in 0..20 {
                cluster.run_to_quiescence(LIMIT);
                if let Some(flush) = armed_batch_flush(&cluster, primary) {
                    cluster.fire_timer(primary, flush);
                    continue;
                }
                if (0..6u64).any(|c| cluster.client(ClientId(c)).has_pending()) {
                    cluster.fire_client_timers(LIMIT);
                    cluster.run_to_quiescence(LIMIT);
                }
                break;
            }
        }

        let telemetry = &cluster.replica(primary).metrics().batch;
        assert!(telemetry.batches() > 0, "{mode}: nothing was cut");
        assert!(
            telemetry.max_size() >= 2,
            "{mode}: the cap never grew under load (max {})",
            telemetry.max_size()
        );
        assert!(
            telemetry.max_size() <= 4,
            "{mode}: a batch exceeded the ceiling (max {})",
            telemetry.max_size()
        );
        for client in 0..6u64 {
            assert_eq!(
                cluster.client(ClientId(client)).completed().len(),
                3,
                "{mode}: client {client} starved"
            );
        }
        check::safety(&histories(&cluster, config.replicas()), &[]).unwrap();
    }
}

// ----------------------------------------------------------------------
// Message-count sanity vs. Table 1 expectations
// ----------------------------------------------------------------------

#[test]
fn lion_uses_linear_messages_and_dog_uses_quadratic() {
    let (mut lion, config, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    lion.submit(ClientId(0), put_op("k", "v"));
    lion.run_to_quiescence(LIMIT);
    let lion_msgs: u64 = config
        .replicas()
        .map(|r| lion.replica(r).metrics().agreement_messages_sent())
        .sum();

    let (mut dog, config, _) = build_cluster(1, 1, Mode::Dog, 1, ProtocolConfig::default());
    dog.submit(ClientId(0), put_op("k", "v"));
    dog.run_to_quiescence(LIMIT);
    let dog_msgs: u64 = config
        .replicas()
        .map(|r| dog.replica(r).metrics().agreement_messages_sent())
        .sum();

    let (mut peacock, config, _) = build_cluster(1, 1, Mode::Peacock, 1, ProtocolConfig::default());
    peacock.submit(ClientId(0), put_op("k", "v"));
    peacock.run_to_quiescence(LIMIT);
    let peacock_msgs: u64 = config
        .replicas()
        .map(|r| peacock.replica(r).metrics().agreement_messages_sent())
        .sum();

    // Lion (O(n), 2 phases over the full network) must use fewer agreement
    // messages than either proxy-based quadratic mode — the message-count
    // column of Table 1. (Dog and Peacock are close to each other at this
    // small scale: Dog has one fewer phase but one more voter per phase.)
    assert!(lion_msgs < dog_msgs, "lion={lion_msgs} dog={dog_msgs}");
    assert!(
        lion_msgs < peacock_msgs,
        "lion={lion_msgs} peacock={peacock_msgs}"
    );
}

// ----------------------------------------------------------------------
// Read-only fast path
// ----------------------------------------------------------------------

#[test]
fn fast_path_reads_serve_without_ordering_in_every_mode() {
    for mode in Mode::ALL {
        let (mut cluster, config, _) = build_cluster(1, 1, mode, 2, ProtocolConfig::default());
        cluster.submit(ClientId(0), put_op("x", "42"));
        cluster.run_to_quiescence(LIMIT);
        let ordered_before: usize = config
            .replicas()
            .map(|r| cluster.replica(r).executed().len())
            .sum();

        cluster.submit_op(ClientId(1), get_op("x"), seemore_types::OpClass::Read);
        cluster.run_to_quiescence(LIMIT);

        let client = cluster.client(ClientId(1));
        assert_eq!(client.completed().len(), 1, "{mode}: read must complete");
        let outcome = &client.completed()[0];
        assert_eq!(outcome.class, seemore_types::OpClass::Read);
        assert_eq!(
            KvResult::decode(&outcome.result),
            Some(KvResult::Value(b"42".to_vec())),
            "{mode}: read must observe the committed write"
        );

        // The read never entered the ordered path: no replica executed a
        // second operation, and at least one replica served it fast.
        let ordered_after: usize = config
            .replicas()
            .map(|r| cluster.replica(r).executed().len())
            .sum();
        assert_eq!(
            ordered_after, ordered_before,
            "{mode}: the fast read must not be ordered"
        );
        let served: u64 = config
            .replicas()
            .map(|r| cluster.replica(r).metrics().reads_served)
            .sum();
        match mode {
            // A single trusted primary serves Lion/Dog reads.
            Mode::Lion | Mode::Dog => assert_eq!(served, 1, "{mode}"),
            // Every proxy answers in Peacock (3m + 1 = 4).
            Mode::Peacock => assert_eq!(served, 4, "{mode}"),
        }
    }
}

#[test]
fn backup_refuses_fast_reads_in_trusted_primary_modes() {
    for mode in [Mode::Lion, Mode::Dog] {
        let (mut cluster, _, keystore) = build_cluster(1, 1, mode, 1, ProtocolConfig::default());
        let signer = keystore
            .signer_for(seemore_types::NodeId::Client(ClientId(0)))
            .unwrap();
        let read = seemore_wire::ReadRequest::new(
            ClientId(0),
            seemore_types::Timestamp(1),
            get_op("x"),
            &signer,
        );
        // A backup (trusted, but not the primary) must refuse: its executed
        // state may lag the acknowledged prefix.
        cluster.inject(
            seemore_types::NodeId::Client(ClientId(0)),
            seemore_types::NodeId::Replica(ReplicaId(1)),
            seemore_wire::Message::ReadRequest(read),
        );
        cluster.run_to_quiescence(LIMIT);
        assert_eq!(
            cluster.replica(ReplicaId(1)).metrics().reads_refused,
            1,
            "{mode}: backup must refuse"
        );
        assert_eq!(cluster.replica(ReplicaId(1)).metrics().reads_served, 0);
    }
}

#[test]
fn expired_lease_refuses_and_the_client_falls_back_to_the_ordered_path() {
    let (mut cluster, _, _) = build_cluster(1, 1, Mode::Lion, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("x", "7"));
    cluster.run_to_quiescence(LIMIT);

    // Let the lease (one request timeout past the last commit) expire with
    // no new quorum contact.
    cluster.advance_time(Duration::from_millis(500));
    cluster.submit_op(ClientId(0), get_op("x"), seemore_types::OpClass::Read);
    cluster.run_to_quiescence(LIMIT);

    // The refusal redirected the client to the ordered path, which ordered
    // and executed the Get like any other request — and ordering the Get
    // renewed the lease as a side effect.
    let client = cluster.client(ClientId(0));
    assert_eq!(client.completed().len(), 2);
    let outcome = &client.completed()[1];
    assert_eq!(outcome.class, seemore_types::OpClass::Read);
    assert_eq!(
        KvResult::decode(&outcome.result),
        Some(KvResult::Value(b"7".to_vec()))
    );
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_refused, 1);
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_served, 0);

    // With the lease fresh again, the next read takes the fast path.
    cluster.submit_op(ClientId(0), get_op("x"), seemore_types::OpClass::Read);
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_served, 1);
    assert_eq!(cluster.client(ClientId(0)).completed().len(), 3);
}

#[test]
fn dog_reads_park_behind_the_commit_index_fence() {
    // Submit a write and a read back-to-back without draining in between:
    // the primary proposes the write (slot 1 in flight), then receives the
    // read while its own execution still lags the proxies' progress. The
    // fence must hold the read until the INFORM-driven execution catches
    // up, so the read observes the write it arrived after.
    let (mut cluster, _, _) = build_cluster(1, 1, Mode::Dog, 2, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("x", "fenced"));
    cluster.submit_op(ClientId(1), get_op("x"), seemore_types::OpClass::Read);
    cluster.run_to_quiescence(LIMIT);

    let reader = cluster.client(ClientId(1));
    assert_eq!(reader.completed().len(), 1);
    assert_eq!(
        KvResult::decode(&reader.completed()[0].result),
        Some(KvResult::Value(b"fenced".to_vec())),
        "a read arriving after an in-flight write must wait for it"
    );
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_served, 1);
}

#[test]
fn mode_switch_refuses_parked_reads() {
    // Park a read behind a write that can never commit (the proxies are
    // isolated), then announce a mode switch: the primary must refuse the
    // parked read so its client is not stranded.
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Dog, 2, ProtocolConfig::default());
    for proxy in config.public_replicas() {
        cluster.isolate(proxy);
    }
    cluster.submit(ClientId(0), put_op("x", "stuck"));
    cluster.submit_op(ClientId(1), get_op("x"), seemore_types::OpClass::Read);
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_served, 0);
    assert_eq!(cluster.replica(ReplicaId(0)).metrics().reads_refused, 0);

    // The announcer for a Peacock switch starting at view 1 is the
    // transferer (trusted r1); its announcement reaches the primary, which
    // stops normal-case processing and flushes the parked read as a refusal.
    cluster.request_mode_switch(ReplicaId(1), Mode::Peacock);
    cluster.run_to_quiescence(LIMIT);
    assert_eq!(
        cluster.replica(ReplicaId(0)).metrics().reads_refused,
        1,
        "the parked read must be refused on a mode switch"
    );
}

#[test]
fn peacock_reads_park_behind_prepared_but_uncommitted_slots() {
    // A Peacock proxy must not answer a fast-path read while a slot it has
    // *prepared* is still unexecuted: the write may already have been
    // acknowledged to its client (the write path accepts m+1 matching
    // replies), and this proxy's stale answer could complete a
    // matching-but-stale 2m+1 read quorum together with m Byzantine proxies
    // and the (at most m) honest proxies outside the write's prepare quorum.
    use crate::protocol::ReplicaProtocol;
    use seemore_crypto::Signature;
    use seemore_types::{NodeId, Timestamp};
    use seemore_wire::{Batch, Commit, Message, PbftPrepare, PrePrepare, SignedPayload};

    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(0xFE7CE, config.total_size(), 1);
    // r2 is the view-0 Peacock primary; r3 is an ordinary proxy under test.
    let mut proxy = SeeMoReReplica::new(
        ReplicaId(3),
        config,
        ProtocolConfig::default(),
        keystore.clone(),
        Mode::Peacock,
        Box::new(KvStore::new()),
    );
    let now = seemore_types::Instant::ZERO;

    // The primary's PRE-PREPARE for slot 1.
    let client_signer = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
    let request = seemore_wire::ClientRequest::new(
        ClientId(0),
        Timestamp(1),
        put_op("x", "new"),
        &client_signer,
    );
    let batch = Batch::single(request);
    let primary_signer = keystore.signer_for(NodeId::Replica(ReplicaId(2))).unwrap();
    let mut preprepare = PrePrepare {
        view: seemore_types::View(0),
        seq: SeqNum(1),
        digest: batch.digest(),
        batch: batch.clone(),
        signature: Signature::INVALID,
    };
    preprepare.signature = primary_signer.sign(&preprepare.signing_bytes());
    proxy.on_message(
        NodeId::Replica(ReplicaId(2)),
        Message::PrePrepare(preprepare),
        now,
    );

    // One more prepare vote reaches the 2m = 2 matching threshold (the
    // proxy's own vote was recorded when it handled the pre-prepare): the
    // slot is now *prepared* but not committed.
    let vote_signer = keystore.signer_for(NodeId::Replica(ReplicaId(4))).unwrap();
    let mut vote = PbftPrepare {
        view: seemore_types::View(0),
        seq: SeqNum(1),
        digest: batch.digest(),
        replica: ReplicaId(4),
        signature: Signature::INVALID,
    };
    vote.signature = vote_signer.sign(&vote.signing_bytes());
    proxy.on_message(
        NodeId::Replica(ReplicaId(4)),
        Message::PbftPrepare(vote),
        now,
    );
    assert_eq!(proxy.executed().len(), 0, "slot must not have executed yet");

    // A fast-path read arriving now must park, not serve.
    let read =
        seemore_wire::ReadRequest::new(ClientId(0), Timestamp(2), get_op("x"), &client_signer);
    let actions = proxy.on_message(NodeId::Client(ClientId(0)), Message::ReadRequest(read), now);
    assert!(
        actions.iter().all(|a| !a.is_send()),
        "read behind the prepared frontier must be parked, got {actions:?}"
    );
    assert_eq!(proxy.metrics().reads_served, 0);
    assert_eq!(proxy.metrics().reads_refused, 0);

    // Commit votes from two more proxies reach 2m + 1 = 3 (with the proxy's
    // own vote from the prepare step): the slot executes and the parked
    // read is served — with the committed value.
    for replica in [4u32, 5] {
        let signer = keystore
            .signer_for(NodeId::Replica(ReplicaId(replica)))
            .unwrap();
        let mut commit = Commit {
            view: seemore_types::View(0),
            seq: SeqNum(1),
            digest: batch.digest(),
            replica: ReplicaId(replica),
            batch: None,
            signature: Signature::INVALID,
        };
        commit.signature = signer.sign(&commit.signing_bytes());
        proxy.on_message(
            NodeId::Replica(ReplicaId(replica)),
            Message::Commit(commit),
            now,
        );
    }
    assert_eq!(proxy.executed().len(), 1);
    assert_eq!(
        proxy.metrics().reads_served,
        1,
        "parked read must be served"
    );
}

// ----------------------------------------------------------------------
// Validity
// ----------------------------------------------------------------------

/// ROADMAP item 23. The Peacock primary is a public-cloud node the model
/// lets be Byzantine. After client 0's first write, it sends every replica
/// a correctly signed `PRE-PREPARE` for slot 2 whose batch is a `Put` that
/// claims client 0, ts 99, under an invalid client signature, and then
/// crashes. Before the validity rule, all five other replicas executed it,
/// and the proxies answered client 0's next write (ts 2) from the reply
/// cache without ordering it (`CompletionLost { client 0, ts 2 }`). Now no
/// replica votes for or executes the forgery, and the write at ts 2 is
/// ordered by the next view's primary.
#[test]
fn peacock_replicas_refuse_a_proposal_holding_a_request_no_client_signed() {
    use seemore_crypto::Signature;
    use seemore_types::{NodeId, RequestId, Timestamp, View};
    use seemore_wire::{Batch, ClientRequest, Message, PrePrepare, SignedPayload};

    let (mut cluster, config, keystore) =
        build_cluster(1, 1, Mode::Peacock, 1, ProtocolConfig::default());
    cluster.submit(ClientId(0), put_op("k", "v1"));
    cluster.run_to_quiescence(LIMIT);

    let primary = config.primary(Mode::Peacock, View(0)).unwrap();
    let forged = ClientRequest::from_parts(
        ClientId(0),
        Timestamp(99),
        put_op("k", "forged"),
        Signature::INVALID,
    );
    let batch = Batch::single(forged);
    let mut preprepare = PrePrepare {
        view: View(0),
        seq: SeqNum(2),
        digest: batch.digest(),
        batch,
        signature: Signature::INVALID,
    };
    preprepare.signature = keystore
        .signer_for(NodeId::Replica(primary))
        .unwrap()
        .sign(&preprepare.signing_bytes());
    for replica in config.replicas().filter(|r| *r != primary) {
        let message = Message::PrePrepare(preprepare.clone());
        cluster.inject(NodeId::Replica(primary), NodeId::Replica(replica), message);
    }
    cluster.run_to_quiescence(LIMIT);
    cluster.replica_mut(primary).crash();

    cluster.submit(ClientId(0), put_op("k", "v2"));
    for _ in 0..3 {
        cluster.run_to_quiescence(LIMIT);
        cluster.fire_client_timers(LIMIT);
        cluster.fire_all_timers(LIMIT);
    }
    cluster.run_to_quiescence(LIMIT);

    let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != primary).collect();
    let histories = histories(&cluster, alive.iter().copied());
    let write = |ts| RequestId::new(ClientId(0), Timestamp(ts));
    let outcomes = cluster.client(ClientId(0)).completed();
    assert_eq!(
        outcomes.iter().map(|o| o.request).collect::<Vec<_>>(),
        vec![write(1), write(2)]
    );
    assert_eq!(check::safety(&histories, outcomes), Ok(()));
    assert_eq!(check::validity(&histories, &[write(1), write(2)]), Ok(()));
    for replica in &alive {
        let executed = cluster.replica(*replica).executed();
        assert!(
            executed.iter().any(|entry| entry.request == write(2)),
            "{replica} did not execute client 0's write at ts 2"
        );
    }
}

// ----------------------------------------------------------------------
// State transfer
// ----------------------------------------------------------------------

/// ROADMAP item 13. In Peacock the private replicas are passive: they
/// execute what the proxies commit but do not vote, and `m + 1` matching
/// proxy `CHECKPOINT`s make a checkpoint stable. If both take the
/// checkpoint of slot `k` before `k`'s `PRE-PREPARE`, they garbage-collect
/// the log below `k` with `k` unexecuted and drop the proposal as outside
/// their window. They then ask for state at every later checkpoint, but
/// adopt a snapshot only from the trusted tier, and neither trusted replica
/// holds `k`. Both must still execute past `k`, and no `STATE-RESPONSE` may
/// carry an unbounded backlog.
#[test]
#[ignore = "ROADMAP item 13, not fixed yet: both private replicas stay at slot 1 \
            (NoProgress { replica: r0, reached: 1, checkpoint: 3 }), and a STATE-RESPONSE \
            carries 4485 B, the backlog of every committed-but-unexecuted batch"]
fn private_replicas_execute_past_a_checkpoint_that_outran_its_proposal() {
    use seemore_types::NodeId;
    use seemore_wire::{Message, WireSize};

    /// The checkpoint whose `PRE-PREPARE` the private replicas see last.
    const K: SeqNum = SeqNum(2);
    /// Deliveries allowed after each submitted write.
    const STEP_BOUND: u64 = 20_000;
    /// Writes in the run; all but the first `K` after the held proposals.
    const WRITES: u64 = 48;
    /// Largest `STATE-RESPONSE` allowed. A snapshot of `WRITES` small keys
    /// (~1 KiB) plus one window of single-request batches (16 slots of
    /// ~90 B) fits; the backlog of every committed-but-unexecuted batch
    /// (~90 B per write) does not.
    const MAX_STATE_RESPONSE: usize = 4 * 1024;

    let pconfig = ProtocolConfig::with_checkpoint_period(K.0);
    let (mut cluster, config, _) = build_cluster(1, 1, Mode::Peacock, 1, pconfig);
    let privates: Vec<ReplicaId> = config.private_replicas().collect();
    let held = |envelope: &crate::testkit::Envelope| {
        matches!(&envelope.message, Message::PrePrepare(p) if p.seq == K)
            && matches!(envelope.to, NodeId::Replica(r) if privates.contains(&r))
    };
    let mut largest_state_response = 0;
    let mut drive = |cluster: &mut SyncCluster, hold: bool| {
        let mut steps = 0;
        while steps < STEP_BOUND
            && cluster.step_matching(|envelope| {
                if let Message::StateResponse(_) = &envelope.message {
                    largest_state_response =
                        largest_state_response.max(envelope.message.wire_size());
                }
                !(hold && held(envelope))
            })
        {
            steps += 1;
        }
    };

    for i in 1..=K.0 {
        cluster.submit(ClientId(0), put_op(&format!("k{i}"), "v"));
        // Everything but the held proposals flows, the proxies' checkpoint
        // announcements for `K` included.
        drive(&mut cluster, true);
    }
    assert_eq!(
        cluster.pending(),
        privates.len(),
        "only the held proposals remain"
    );
    drive(&mut cluster, false);
    for i in K.0 + 1..=WRITES {
        cluster.submit(ClientId(0), put_op(&format!("k{i}"), "v"));
        drive(&mut cluster, false);
    }

    assert_eq!(
        cluster.client(ClientId(0)).completed().len(),
        WRITES as usize
    );
    assert_eq!(
        check::progress_past(&histories(&cluster, privates.iter().copied()), K.next()),
        Ok(())
    );
    assert!(
        largest_state_response <= MAX_STATE_RESPONSE,
        "a STATE-RESPONSE of {largest_state_response} B"
    );
}

// ----------------------------------------------------------------------
// Group commit: one WAL sync per driver turn
// ----------------------------------------------------------------------

/// A store that only counts: appends (synced or not) and syncs, where a
/// plain `append` is one of each.
#[derive(Default)]
struct CountingStore {
    appends: AtomicU64,
    syncs: AtomicU64,
}

impl CountingStore {
    fn counts(&self) -> (u64, u64) {
        (
            self.appends.load(Ordering::SeqCst),
            self.syncs.load(Ordering::SeqCst),
        )
    }
}

impl Durability for CountingStore {
    fn enabled(&self) -> bool {
        true
    }
    fn append(&self, record: &WalRecord) {
        self.append_unsynced(record);
        self.sync();
    }
    fn append_unsynced(&self, _record: &WalRecord) {
        self.appends.fetch_add(1, Ordering::SeqCst);
    }
    fn sync(&self) {
        self.syncs.fetch_add(1, Ordering::SeqCst);
    }
    fn persist_checkpoint(&self, _checkpoint: &DurableCheckpoint) {}
    fn compact_below(&self, _seq: SeqNum) {}
    fn recover(&self) -> Option<RecoveredState> {
        None
    }
}

/// The view-0 Lion primary of a minimal deployment on a counting store,
/// and a function that makes the `n`-th signed client request for it.
fn counted_lion_primary() -> (
    SeeMoReReplica,
    Arc<CountingStore>,
    impl Fn(u64) -> seemore_wire::Message,
) {
    use seemore_types::{NodeId, Timestamp, View};
    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(0x6C0, config.total_size(), 1);
    let primary = config.primary(Mode::Lion, View(0)).unwrap();
    let mut replica = SeeMoReReplica::new(
        primary,
        config,
        ProtocolConfig::default(),
        keystore.clone(),
        Mode::Lion,
        Box::new(KvStore::new()),
    );
    let store = Arc::new(CountingStore::default());
    replica.set_store(store.clone());
    let signer = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
    let request = move |n: u64| {
        seemore_wire::Message::Request(seemore_wire::ClientRequest::new(
            ClientId(0),
            Timestamp(n),
            put_op("k", &n.to_string()),
            &signer,
        ))
    };
    (replica, store, request)
}

#[test]
fn a_turn_shares_one_wal_sync_among_its_votes() {
    use crate::protocol::ReplicaProtocol;
    use seemore_types::{Instant, NodeId};
    let client = NodeId::Client(ClientId(0));

    // Two requests in one turn: two proposals appended, one sync.
    let (mut primary, store, request) = counted_lion_primary();
    primary.begin_turn();
    for n in 1..=2 {
        primary.on_message(client, request(n), Instant::ZERO);
    }
    assert_eq!(store.counts(), (2, 0), "nothing is synced inside the turn");
    primary.end_turn();
    assert_eq!(store.counts(), (2, 1));
    let metrics = primary.metrics();
    assert_eq!((metrics.wal_appends, metrics.wal_syncs), (2, 1));

    // The same two requests outside a turn: each proposal syncs itself.
    let (mut primary, store, request) = counted_lion_primary();
    for n in 1..=2 {
        primary.on_message(client, request(n), Instant::ZERO);
    }
    assert_eq!(store.counts(), (2, 2));
    let metrics = primary.metrics();
    assert_eq!((metrics.wal_appends, metrics.wal_syncs), (2, 2));

    // A turn that appends nothing syncs nothing, even when it sends.
    let (mut primary, store, _) = counted_lion_primary();
    primary.begin_turn();
    let actions = primary.on_message(
        NodeId::Replica(ReplicaId(1)),
        seemore_wire::Message::StateRequest(seemore_wire::StateRequest {
            from_seq: SeqNum(0),
            replica: ReplicaId(1),
        }),
        Instant::ZERO,
    );
    assert!(actions.iter().any(|a| a.is_send()), "the state is served");
    primary.end_turn();
    assert_eq!(store.counts(), (0, 0));
    assert_eq!(primary.metrics().wal_syncs, 0);
}
