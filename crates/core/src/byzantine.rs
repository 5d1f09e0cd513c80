//! Byzantine behaviour injection for public-cloud replicas.
//!
//! The paper's adversary can coordinate malicious public-cloud nodes but
//! cannot forge signatures of correct nodes (Section 3.1). These wrappers
//! reproduce that adversary inside the simulation: a [`ByzantineReplica`]
//! wraps a correct core and perturbs its *outgoing* traffic (it still holds
//! only its own signing key), so tests and benchmarks can verify that safety
//! holds and liveness recovers with up to `m` such replicas in the public
//! cloud.

use crate::actions::{Action, Timer};
use crate::exec::ExecutedEntry;
use crate::metrics::ReplicaMetrics;
use crate::protocol::ReplicaProtocol;
use seemore_crypto::{Digest, Signature};
use seemore_types::{Instant, Mode, NodeId, ReplicaId, SeqNum, View};
use seemore_wire::Message;

/// The misbehaviour a Byzantine replica exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehavior {
    /// Sends nothing at all (indistinguishable from a crash to the rest of
    /// the system, but keeps receiving).
    Silent,
    /// As primary, assigns conflicting sequence numbers / digests to
    /// different recipients (equivocation); as backup, behaves normally.
    EquivocateProposals,
    /// Replaces every outgoing signature with garbage.
    CorruptSignatures,
    /// Votes for a garbage digest in every accept / prepare / commit vote it
    /// sends (conflicting votes).
    ConflictingVotes,
    /// Delays nothing and corrupts nothing — a correct replica. Useful as a
    /// control in randomized tests.
    Honest,
}

/// A wrapper that applies a [`ByzantineBehavior`] to a correct protocol core.
pub struct ByzantineReplica<P> {
    inner: P,
    behavior: ByzantineBehavior,
}

impl<P: ReplicaProtocol> ByzantineReplica<P> {
    /// Wraps `inner` with the given behaviour.
    pub fn new(inner: P, behavior: ByzantineBehavior) -> Self {
        ByzantineReplica { inner, behavior }
    }

    /// The configured behaviour.
    pub fn behavior(&self) -> ByzantineBehavior {
        self.behavior
    }

    /// Access to the wrapped core (diagnostics in tests).
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn corrupt(&self, actions: Vec<Action>) -> Vec<Action> {
        // Per-destination misbehaviour (equivocation, alternating corrupt
        // votes) needs one send per recipient, so broadcasts are lowered to
        // individual sends first. An honest wrapper keeps broadcasts intact
        // — it must not perturb the substrate's encode-once fast path.
        let actions = match self.behavior {
            ByzantineBehavior::Honest => actions,
            _ => actions
                .into_iter()
                .flat_map(|action| match action {
                    Action::Broadcast { to, message } => to
                        .into_iter()
                        .map(|peer| Action::Send {
                            to: peer,
                            message: message.clone(),
                        })
                        .collect::<Vec<Action>>(),
                    other => vec![other],
                })
                .collect(),
        };
        match self.behavior {
            ByzantineBehavior::Honest => actions,
            ByzantineBehavior::Silent => actions
                .into_iter()
                .filter(|action| !action.is_send())
                .collect(),
            ByzantineBehavior::CorruptSignatures => actions
                .into_iter()
                .map(|action| match action {
                    Action::Send { to, message } => Action::Send {
                        to,
                        message: corrupt_signature(message),
                    },
                    other => other,
                })
                .collect(),
            ByzantineBehavior::ConflictingVotes => {
                let mut flip = false;
                actions
                    .into_iter()
                    .map(|action| match action {
                        Action::Send { to, message } => {
                            flip = !flip;
                            let message = if flip {
                                corrupt_vote_digest(message)
                            } else {
                                message
                            };
                            Action::Send { to, message }
                        }
                        other => other,
                    })
                    .collect()
            }
            ByzantineBehavior::EquivocateProposals => {
                let mut flip = false;
                actions
                    .into_iter()
                    .map(|action| match action {
                        Action::Send { to, message } => {
                            flip = !flip;
                            let message = if flip { equivocate(message) } else { message };
                            Action::Send { to, message }
                        }
                        other => other,
                    })
                    .collect()
            }
        }
    }
}

/// Replaces the signature of any protocol message with an invalid one.
fn corrupt_signature(message: Message) -> Message {
    match message {
        Message::Prepare(mut m) => {
            m.signature = Signature::INVALID;
            Message::Prepare(m)
        }
        Message::PrePrepare(mut m) => {
            m.signature = Signature::INVALID;
            Message::PrePrepare(m)
        }
        Message::Accept(mut m) => {
            if m.signature.is_some() {
                m.signature = Some(Signature::INVALID);
            }
            Message::Accept(m)
        }
        Message::PbftPrepare(mut m) => {
            m.signature = Signature::INVALID;
            Message::PbftPrepare(m)
        }
        Message::Commit(mut m) => {
            m.signature = Signature::INVALID;
            Message::Commit(m)
        }
        Message::Inform(mut m) => {
            m.signature = Signature::INVALID;
            Message::Inform(m)
        }
        Message::Checkpoint(mut m) => {
            m.signature = Signature::INVALID;
            Message::Checkpoint(m)
        }
        Message::ViewChange(mut m) => {
            m.signature = Signature::INVALID;
            Message::ViewChange(m)
        }
        Message::NewView(mut m) => {
            m.signature = Signature::INVALID;
            Message::NewView(m)
        }
        Message::Reply(mut m) => {
            m.signature = Signature::INVALID;
            Message::Reply(m)
        }
        other => other,
    }
}

/// Makes vote-style messages vote for a garbage digest.
fn corrupt_vote_digest(message: Message) -> Message {
    let garbage = Digest::of_bytes(b"byzantine-conflicting-vote");
    match message {
        Message::Accept(mut m) => {
            m.digest = garbage;
            Message::Accept(m)
        }
        Message::PbftPrepare(mut m) => {
            m.digest = garbage;
            Message::PbftPrepare(m)
        }
        Message::Commit(mut m) => {
            m.digest = garbage;
            Message::Commit(m)
        }
        Message::Inform(mut m) => {
            m.digest = garbage;
            Message::Inform(m)
        }
        other => other,
    }
}

/// Makes a primary's proposal equivocate: different recipients see different
/// sequence numbers for the same request.
fn equivocate(message: Message) -> Message {
    match message {
        Message::PrePrepare(mut m) => {
            m.seq = SeqNum(m.seq.0 + 1_000);
            Message::PrePrepare(m)
        }
        Message::Prepare(mut m) => {
            m.seq = SeqNum(m.seq.0 + 1_000);
            Message::Prepare(m)
        }
        other => other,
    }
}

impl<P: ReplicaProtocol> ReplicaProtocol for ByzantineReplica<P> {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }

    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_start(now);
        self.corrupt(actions)
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_message(from, message, now);
        self.corrupt(actions)
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        let actions = self.inner.on_timer(timer, now);
        self.corrupt(actions)
    }

    fn begin_turn(&mut self) {
        self.inner.begin_turn();
    }

    fn end_turn(&mut self) {
        self.inner.end_turn();
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

    fn request_mode_switch(&mut self, mode: Mode, now: Instant) -> Vec<Action> {
        let actions = self.inner.request_mode_switch(mode, now);
        self.corrupt(actions)
    }

    fn is_crashed(&self) -> bool {
        self.inner.is_crashed()
    }

    fn crash(&mut self) {
        self.inner.crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::{ClientId, RequestId, Timestamp};

    /// A stub core that always emits one signed commit-vote send.
    struct Stub;

    impl ReplicaProtocol for Stub {
        fn id(&self) -> ReplicaId {
            ReplicaId(3)
        }
        fn on_message(&mut self, _f: NodeId, _m: Message, _n: Instant) -> Vec<Action> {
            vec![
                Action::Send {
                    to: NodeId::Replica(ReplicaId(0)),
                    message: Message::Commit(seemore_wire::Commit {
                        view: View(0),
                        seq: SeqNum(1),
                        digest: Digest::of_bytes(b"real"),
                        replica: ReplicaId(3),
                        batch: None,
                        signature: Signature::from_bytes([9u8; 32]),
                    }),
                },
                Action::Executed {
                    seq: SeqNum(1),
                    request: RequestId::new(ClientId(0), Timestamp(1)),
                },
            ]
        }
        fn on_timer(&mut self, _t: Timer, _n: Instant) -> Vec<Action> {
            Vec::new()
        }
        fn view(&self) -> View {
            View::ZERO
        }
        fn mode(&self) -> Mode {
            Mode::Peacock
        }
        fn executed(&self) -> &[ExecutedEntry] {
            &[]
        }
        fn metrics(&self) -> &ReplicaMetrics {
            static METRICS: std::sync::OnceLock<ReplicaMetrics> = std::sync::OnceLock::new();
            METRICS.get_or_init(ReplicaMetrics::default)
        }
    }

    fn drive(behavior: ByzantineBehavior) -> Vec<Action> {
        let mut replica = ByzantineReplica::new(Stub, behavior);
        assert_eq!(replica.behavior(), behavior);
        assert_eq!(replica.id(), ReplicaId(3));
        replica.on_message(
            NodeId::Replica(ReplicaId(0)),
            Message::StateRequest(seemore_wire::StateRequest {
                from_seq: SeqNum(0),
                replica: ReplicaId(0),
            }),
            Instant::ZERO,
        )
    }

    #[test]
    fn silent_drops_sends_but_keeps_diagnostics() {
        let actions = drive(ByzantineBehavior::Silent);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Executed { .. }));
    }

    #[test]
    fn honest_passes_through() {
        let actions = drive(ByzantineBehavior::Honest);
        assert_eq!(actions.len(), 2);
        if let Some((_, Message::Commit(commit))) = actions[0].as_send() {
            assert_eq!(commit.digest, Digest::of_bytes(b"real"));
        } else {
            panic!("expected a commit send");
        }
    }

    #[test]
    fn corrupt_signatures_invalidates_tags() {
        let actions = drive(ByzantineBehavior::CorruptSignatures);
        if let Some((_, Message::Commit(commit))) = actions[0].as_send() {
            assert_eq!(commit.signature, Signature::INVALID);
        } else {
            panic!("expected a commit send");
        }
    }

    #[test]
    fn conflicting_votes_change_digests() {
        let actions = drive(ByzantineBehavior::ConflictingVotes);
        if let Some((_, Message::Commit(commit))) = actions[0].as_send() {
            assert_ne!(commit.digest, Digest::of_bytes(b"real"));
        } else {
            panic!("expected a commit send");
        }
    }

    #[test]
    fn equivocation_only_touches_proposals() {
        // The stub emits a commit, not a proposal, so equivocation leaves it
        // untouched.
        let actions = drive(ByzantineBehavior::EquivocateProposals);
        if let Some((_, Message::Commit(commit))) = actions[0].as_send() {
            assert_eq!(commit.seq, SeqNum(1));
        } else {
            panic!("expected a commit send");
        }
        // But a proposal gets its sequence number shifted.
        let ks = seemore_crypto::KeyStore::generate(1, 4, 1);
        let client = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let request =
            seemore_wire::ClientRequest::new(ClientId(0), Timestamp(1), b"op".to_vec(), &client);
        let batch = seemore_wire::Batch::single(request);
        let preprepare = Message::PrePrepare(seemore_wire::PrePrepare {
            view: View(0),
            seq: SeqNum(7),
            digest: batch.digest(),
            batch,
            signature: Signature::INVALID,
        });
        if let Message::PrePrepare(m) = equivocate(preprepare) {
            assert_eq!(m.seq, SeqNum(1_007));
        } else {
            panic!("expected a pre-prepare");
        }
    }
}
