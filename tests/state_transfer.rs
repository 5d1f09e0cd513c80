//! Checkpoint catch-up and state adoption, pinned per protocol by driving
//! `ReplicaProtocol::on_message` directly.
//!
//! The three protocols differ in whose state a replica believes and whom it
//! asks, and in nothing else:
//!
//! * **PBFT** adopts a snapshot once `f + 1` replicas vouch for the same
//!   `(seq, state_digest)` with verified checkpoints, and refuses a response
//!   whose checkpoint does not verify or whose `replica` is not its sender.
//! * **SeeMoRe** adopts a snapshot only from the private cloud, and the
//!   committed entries a response carries from anyone.
//! * **CFT** adopts the first response.
//!
//! When a stable checkpoint is ahead of execution, SeeMoRe asks the private
//! cloud and the checkpoint's announcer, PBFT asks everyone and CFT asks the
//! announcer. None sends more while a request sent at that checkpoint is in
//! flight, and each asks again at the next one, whether the first answer
//! was lost or is only slow (a slow one is then answered twice, and
//! adopted once).
//!
//! The last case is ROADMAP item 13's lost request: a Dog passive replica
//! that asked a proxy which never answers catches up at the next stable
//! checkpoint.

use seemore::app::{KvOp, KvStore};
use seemore::baselines::{BaselineConfig, BftReplica, CftReplica};
use seemore::core::check::{self, History};
use seemore::core::exec::ExecutionEngine;
use seemore::core::testkit::{Envelope, SyncCluster};
use seemore::core::{Action, ClientCore, ProtocolConfig, ReplicaProtocol, SeeMoReReplica};
use seemore::crypto::{Digest, KeyStore, Signature};
use seemore::types::{
    ClientId, ClusterConfig, Duration, Instant, Mode, NodeId, ReplicaId, SeqNum, Timestamp, View,
};
use seemore::wire::{
    Batch, Checkpoint, ClientRequest, Inform, Message, SignedPayload, StateResponse,
};

const NOW: Instant = Instant::ZERO;

fn put(key: &str) -> Vec<u8> {
    KvOp::Put {
        key: key.as_bytes().to_vec(),
        value: b"v".to_vec(),
    }
    .encode()
}

/// A state donor: slots `1..=upto` executed on a KV store, one signed
/// single-request batch each.
struct Donor {
    keystore: KeyStore,
    batches: Vec<Batch>,
    engine: ExecutionEngine,
}

impl Donor {
    fn new(keystore: &KeyStore, upto: u64) -> Self {
        let signer = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let batches: Vec<Batch> = (1..=upto + 1)
            .map(|i| {
                Batch::single(ClientRequest::new(
                    ClientId(0),
                    Timestamp(i),
                    put(&format!("k{i}")),
                    &signer,
                ))
            })
            .collect();
        let mut engine = ExecutionEngine::new(Box::new(KvStore::new()));
        for (i, batch) in batches.iter().take(upto as usize).enumerate() {
            engine.add_committed(SeqNum(i as u64 + 1), batch.clone());
        }
        engine.execute_ready();
        Donor {
            keystore: keystore.clone(),
            batches,
            engine,
        }
    }

    /// The batch of slot `seq` (one past the snapshot is available too).
    fn batch(&self, seq: u64) -> Batch {
        self.batches[seq as usize - 1].clone()
    }

    /// `replica`'s checkpoint of the donor's state, signed when `signed`.
    fn checkpoint(&self, replica: u32, signed: bool) -> Checkpoint {
        let mut checkpoint = Checkpoint {
            seq: self.engine.last_executed(),
            state_digest: self.engine.state_digest(),
            replica: ReplicaId(replica),
            signature: Signature::INVALID,
        };
        if signed {
            let signer = self
                .keystore
                .signer_for(NodeId::Replica(ReplicaId(replica)))
                .unwrap();
            checkpoint.signature = signer.sign(&checkpoint.signing_bytes());
        }
        checkpoint
    }

    /// `replica`'s answer: its checkpoint, the donor's snapshot and the
    /// committed entries at `entries`.
    fn response(&self, replica: u32, signed: bool, entries: &[u64]) -> StateResponse {
        StateResponse {
            checkpoint: Some(self.checkpoint(replica, signed)),
            snapshot: Some(self.engine.snapshot()),
            entries: entries
                .iter()
                .map(|&s| (SeqNum(s), self.batch(s)))
                .collect(),
            replica: ReplicaId(replica),
        }
    }
}

fn from(replica: u32) -> NodeId {
    NodeId::Replica(ReplicaId(replica))
}

fn executed_seqs(replica: &dyn ReplicaProtocol) -> Vec<u64> {
    replica.executed().iter().map(|e| e.seq.0).collect()
}

/// Each `STATE-REQUEST` the actions send, by recipient, in order.
fn state_requests(actions: &[Action]) -> Vec<ReplicaId> {
    actions
        .iter()
        .flat_map(Action::sends)
        .filter(|(_, message)| matches!(message, Message::StateRequest(_)))
        .map(|(to, _)| to.as_replica().expect("state requests go to replicas"))
        .collect()
}

/// A checkpoint for `seq` signed by `replica` (a digest nobody checks
/// against state here).
fn signed_checkpoint(keystore: &KeyStore, replica: u32, seq: u64) -> Checkpoint {
    let mut checkpoint = Checkpoint {
        seq: SeqNum(seq),
        state_digest: Digest::of_bytes(&seq.to_le_bytes()),
        replica: ReplicaId(replica),
        signature: Signature::INVALID,
    };
    let signer = keystore.signer_for(from(replica)).unwrap();
    checkpoint.signature = signer.sign(&checkpoint.signing_bytes());
    checkpoint
}

/// Delivers checkpoints for `seq` from each of `announcers`, in order, and
/// returns the `STATE-REQUEST`s all of them produced.
fn announce(
    replica: &mut dyn ReplicaProtocol,
    keystore: &KeyStore,
    announcers: &[u32],
    seq: u64,
) -> Vec<ReplicaId> {
    let mut requests = Vec::new();
    for &announcer in announcers {
        let checkpoint = signed_checkpoint(keystore, announcer, seq);
        let actions = replica.on_message(from(announcer), Message::Checkpoint(checkpoint), NOW);
        requests.extend(state_requests(&actions));
    }
    requests
}

fn bft_replica(keystore: &KeyStore, id: u32) -> BftReplica {
    BftReplica::new(
        ReplicaId(id),
        BaselineConfig::bft(1),
        ProtocolConfig::default(),
        keystore.clone(),
        Box::new(KvStore::new()),
    )
}

fn cft_replica(id: u32) -> CftReplica {
    CftReplica::new(
        ReplicaId(id),
        BaselineConfig::cft(1),
        ProtocolConfig::default(),
        Box::new(KvStore::new()),
    )
}

fn seemore_replica(keystore: &KeyStore, id: u32, mode: Mode) -> SeeMoReReplica {
    SeeMoReReplica::new(
        ReplicaId(id),
        ClusterConfig::minimal(1, 1).unwrap(),
        ProtocolConfig::default(),
        keystore.clone(),
        mode,
        Box::new(KvStore::new()),
    )
}

// ----------------------------------------------------------------------
// Adoption
// ----------------------------------------------------------------------

/// PBFT, `f = 1`: a catching-up replica installs the snapshot only on the
/// second matching response, and refuses (and counts) a response with a
/// forged checkpoint or a `replica` that is not its sender.
#[test]
fn bft_adopts_a_snapshot_once_f_plus_one_replicas_vouch_for_it() {
    let keystore = KeyStore::generate(31, 4, 1);
    let donor = Donor::new(&keystore, 2);
    let mut replica = bft_replica(&keystore, 3);
    // Two matching checkpoints make slot 2 stable ahead of execution.
    assert!(!announce(&mut replica, &keystore, &[1, 2], 2).is_empty());

    let deliver = |replica: &mut BftReplica, sender: u32, response: StateResponse| {
        replica.on_message(from(sender), Message::StateResponse(response), NOW);
    };
    // The snapshot ends at slot 2; the entry for slot 3 executes only once
    // it is installed.
    deliver(&mut replica, 1, donor.response(1, true, &[3]));
    assert_eq!(executed_seqs(&replica), Vec::<u64>::new(), "f responses");

    let rejected = replica.metrics().rejected_messages;
    deliver(&mut replica, 2, donor.response(2, false, &[3]));
    assert_eq!(replica.metrics().rejected_messages, rejected + 1);
    deliver(&mut replica, 0, donor.response(2, true, &[3]));
    assert_eq!(replica.metrics().rejected_messages, rejected + 2);
    assert_eq!(
        executed_seqs(&replica),
        Vec::<u64>::new(),
        "refused responses"
    );

    deliver(&mut replica, 2, donor.response(2, true, &[3]));
    assert_eq!(executed_seqs(&replica), vec![3], "f + 1 responses");
}

/// Peacock: a private replica takes a public proxy's entries but not its
/// snapshot, and the same snapshot from the private cloud.
#[test]
fn peacock_adopts_snapshots_from_the_private_cloud_and_entries_from_anyone() {
    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(32, config.total_size(), 1);
    let donor = Donor::new(&keystore, 2);
    let mut replica = seemore_replica(&keystore, 0, Mode::Peacock);

    let public = donor.response(3, true, &[1]);
    replica.on_message(from(3), Message::StateResponse(public), NOW);
    assert_eq!(replica.last_executed(), SeqNum(1), "entries only");

    let private = donor.response(1, true, &[]);
    replica.on_message(from(1), Message::StateResponse(private), NOW);
    assert_eq!(replica.last_executed(), SeqNum(2));
    assert_eq!(replica.state_digest(), donor.engine.state_digest());
}

/// CFT: the first response is believed.
#[test]
fn cft_adopts_the_first_response() {
    let keystore = KeyStore::generate(33, 3, 1);
    let donor = Donor::new(&keystore, 2);
    let mut replica = cft_replica(2);
    let response = donor.response(0, false, &[3]);
    replica.on_message(from(0), Message::StateResponse(response), NOW);
    assert_eq!(executed_seqs(&replica), vec![3]);
}

// ----------------------------------------------------------------------
// Catch-up recipients and the in-flight guard
// ----------------------------------------------------------------------

/// Peacock: replica 1 (private) asks the other private replica and the
/// proxy whose checkpoint made slot 2 stable, never itself, once each.
/// While that request is unanswered, an inform quorum for a slot whose
/// proposal it never saw asks nobody; the next stable checkpoint asks both
/// again, since the first request may have gone to a replica that crashed.
#[test]
fn seemore_catch_up_asks_the_private_cloud_and_the_announcer_once_per_checkpoint() {
    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(34, config.total_size(), 1);
    let mut replica = seemore_replica(&keystore, 1, Mode::Peacock);
    // m + 1 = 2 matching proxy checkpoints make a checkpoint stable.
    let asked = announce(&mut replica, &keystore, &[3, 4], 2);
    assert_eq!(asked, vec![ReplicaId(0), ReplicaId(4)]);
    assert_eq!(replica.stable_checkpoint(), SeqNum(2));

    // m + 1 = 2 informs commit slot 3 for a passive replica.
    let mut asked = Vec::new();
    for proxy in [3, 4] {
        let mut inform = Inform {
            view: View(0),
            seq: SeqNum(3),
            digest: Digest::of_bytes(b"slot 3"),
            replica: ReplicaId(proxy),
            signature: Signature::INVALID,
        };
        let signer = keystore.signer_for(from(proxy)).unwrap();
        inform.signature = signer.sign(&inform.signing_bytes());
        let actions = replica.on_message(from(proxy), Message::Inform(inform), NOW);
        asked.extend(state_requests(&actions));
    }
    assert_eq!(asked, vec![]);

    let asked = announce(&mut replica, &keystore, &[3, 4], 4);
    assert_eq!(asked, vec![ReplicaId(0), ReplicaId(4)]);
    assert_eq!(replica.stable_checkpoint(), SeqNum(4));
}

/// PBFT: a catch-up asks every other replica once; the next stable
/// checkpoint, with that request unanswered, asks them again.
#[test]
fn bft_catch_up_asks_every_other_replica_once_per_checkpoint() {
    let keystore = KeyStore::generate(35, 4, 1);
    let mut replica = bft_replica(&keystore, 3);
    let everyone = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
    assert_eq!(announce(&mut replica, &keystore, &[1, 2], 2), everyone);
    assert_eq!(announce(&mut replica, &keystore, &[1, 2], 4), everyone);
}

/// PBFT: an answer that is only slow, not lost, is asked for again at the
/// next stable checkpoint too, so every replica asked sends a second
/// `STATE-RESPONSE` (n - 1 = 3 more here, each a full snapshot). They cost
/// only their bytes: the first `f + 1` matching answers are adopted, and
/// the rest are dropped unrefused once nothing is in flight.
#[test]
fn bft_a_slow_answer_asked_for_again_at_the_next_checkpoint_is_adopted_once() {
    let keystore = KeyStore::generate(38, 4, 1);
    let donor = Donor::new(&keystore, 4);
    let mut replica = bft_replica(&keystore, 3);
    let everyone = vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)];
    assert_eq!(announce(&mut replica, &keystore, &[1, 2], 2), everyone);

    // The donor's checkpoint at slot 4 is stable before any answer arrives.
    let mut asked = Vec::new();
    for announcer in [1, 2] {
        let checkpoint = Message::Checkpoint(donor.checkpoint(announcer, true));
        let actions = replica.on_message(from(announcer), checkpoint, NOW);
        asked.extend(state_requests(&actions));
    }
    assert_eq!(asked, everyone, "asked again");

    // Both rounds are answered: the late first round, then the second.
    let rejected = replica.metrics().rejected_messages;
    for (answer, sender) in [0, 1, 2, 0, 1, 2].into_iter().enumerate() {
        let response = Message::StateResponse(donor.response(sender, true, &[5]));
        replica.on_message(from(sender), response, NOW);
        let executed = if answer == 0 { vec![] } else { vec![5] };
        assert_eq!(executed_seqs(&replica), executed, "after answer {answer}");
    }
    assert_eq!(replica.metrics().rejected_messages, rejected);
}

/// CFT: a catch-up asks the announcer alone, and asks again at the next
/// stable checkpoint.
#[test]
fn cft_catch_up_asks_the_announcer_at_every_stable_checkpoint() {
    let keystore = KeyStore::generate(36, 3, 1);
    let mut replica = cft_replica(2);
    assert_eq!(
        announce(&mut replica, &keystore, &[0], 2),
        vec![ReplicaId(0)]
    );
    assert_eq!(
        announce(&mut replica, &keystore, &[0], 4),
        vec![ReplicaId(0)]
    );
}

// ----------------------------------------------------------------------
// A state request that is never answered
// ----------------------------------------------------------------------

/// ROADMAP item 13's family, caused by a crash alone. In Dog, passive
/// replica 1 (trusted) misses slot 1's `PREPARE` but collects the inform
/// quorum for it, so it asks the first informing proxy for state. That
/// proxy never answers (it crashed; here the request is held). The request
/// is in flight for the stable checkpoint it was sent at only, so the next
/// stable checkpoint, ahead of replica 1's execution, asks again, and
/// replica 1 executes past it. (While the request stayed in flight until
/// answered, replica 1 never executed past slot 0:
/// `NoProgress { replica: r1, reached: 0, checkpoint: 3 }`.)
#[test]
fn a_passive_replica_whose_state_request_was_lost_catches_up_at_the_next_checkpoint() {
    /// Checkpoint period: the later checkpoints the replica must catch up at.
    const PERIOD: u64 = 2;
    const WRITES: u64 = 8;
    const STEP_BOUND: u64 = 20_000;
    const PASSIVE: ReplicaId = ReplicaId(1);

    let config = ClusterConfig::minimal(1, 1).unwrap();
    let keystore = KeyStore::generate(37, config.total_size(), 1);
    let pconfig = ProtocolConfig::with_checkpoint_period(PERIOD);
    let mut cluster = SyncCluster::new();
    for replica in config.replicas() {
        cluster.add_replica(Box::new(SeeMoReReplica::new(
            replica,
            config,
            pconfig,
            keystore.clone(),
            Mode::Dog,
            Box::new(KvStore::new()),
        )));
    }
    cluster.add_client(ClientCore::new(
        ClientId(0),
        config,
        keystore,
        Mode::Dog,
        Duration::from_millis(100),
    ));

    // The replica the passive one first asks for state is the crashed
    // proxy: nothing the passive replica sends it arrives.
    let mut crashed: Option<NodeId> = None;
    let mut lost = |envelope: &Envelope| {
        let from_passive = envelope.from == NodeId::Replica(PASSIVE);
        if from_passive && matches!(envelope.message, Message::StateRequest(_)) {
            crashed.get_or_insert(envelope.to);
        }
        let missed = envelope.to == NodeId::Replica(PASSIVE)
            && matches!(&envelope.message, Message::Prepare(p) if p.seq == SeqNum(1));
        missed || (from_passive && crashed == Some(envelope.to))
    };
    for i in 1..=WRITES {
        cluster.submit(ClientId(0), put(&format!("k{i}")));
        let mut steps = 0;
        while steps < STEP_BOUND && cluster.step_matching(|envelope| !lost(envelope)) {
            steps += 1;
        }
    }
    assert_eq!(
        cluster.client(ClientId(0)).completed().len(),
        WRITES as usize
    );
    assert!(crashed.is_some(), "the passive replica asked for state");
    let stable = cluster.replica(PASSIVE).metrics().stable_checkpoints;
    assert!(stable >= 2, "later checkpoints were stable");

    // Past the first stable checkpoint: catching up at any later one lets
    // the slots after it execute in order.
    let histories: Vec<History> = vec![(PASSIVE, cluster.replica(PASSIVE).executed())];
    assert_eq!(check::progress_past(&histories, SeqNum(PERIOD + 1)), Ok(()));
}
