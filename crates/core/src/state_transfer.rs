//! Recovery, written once: recording `CHECKPOINT`s, catching up when a
//! stable checkpoint is ahead of execution, serving state to a peer that
//! asks (`STATE-REQUEST`) or restarted (`RECOVERY`), adopting the
//! `STATE-RESPONSE`s that come back, finishing a restarted replica's rejoin,
//! and replaying the WAL at restart (Section 5.1 of the paper).
//!
//! The protocols differ only in whose checkpoints and state a replica
//! believes and whom it asks. That reaches this code as values, never as a
//! branch on which protocol is calling: the [`TransferRules`] each
//! protocol's constructor fixes, and `Option<&mut SigningContext>`, which
//! decides whether checkpoints and restart announcements are verified.
//!
//! | | trusted | a catch-up asks | adoption |
//! |---|---|---|---|
//! | CFT | every replica | the announcer | [`Adoption::Trusted`] |
//! | SeeMoRe | the private cloud | it and the announcer | [`Adoption::Trusted`] |
//! | PBFT | none | every replica | [`Adoption::Matching`] (`f + 1`) |
//!
//! The protocol keeps what is its own: its `execute_ready` once state was
//! adopted ([`Inbound::Adopted`](crate::chassis::Inbound::Adopted)),
//! re-delivering what [`ReplicaChassis::finish_recovery`] hands back,
//! SeeMoRe's other requests through [`ReplicaChassis::request_state`], and
//! the WAL records whose meaning differs, which it re-arms before
//! [`ReplicaChassis::replay`] sees them: a `COMMIT` (a decision in CFT, a
//! vote elsewhere), PBFT's implicit own prepare on a `PRE-PREPARE`, and
//! SeeMoRe's stability rule after a view entry.

use crate::actions::{Action, Timer};
use crate::chassis::{ReplicaChassis, SigningContext};
use crate::log::{Instance, Proposal};
use seemore_crypto::Signature;
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::EventKind;
use seemore_types::{Instant, NodeId, ProtocolViolation, ReplicaId, SeqNum};
use seemore_wire::{Checkpoint, Message, Recovery, SignedPayload, StateRequest, StateResponse};
use std::collections::VecDeque;
use std::sync::Arc;

/// How a replica adopts a peer's `STATE-RESPONSE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// Each response: its snapshot if the sender is trusted, its committed
    /// entries from anyone (they still execute in order, once).
    Trusted,
    /// Collect responses while a request is in flight or the replica is
    /// rejoining; adopt once this many replicas vouch for the same
    /// `(seq, state_digest)` with verified checkpoints (PBFT's `f + 1`).
    Matching(usize),
}

/// Whose checkpoints and state a replica believes, and whom it asks.
#[derive(Debug, Clone, Copy)]
pub struct TransferRules {
    /// Replicas `0..trusted` are trusted (the private cloud is numbered
    /// first): one trusted `CHECKPOINT` is stable under
    /// [`StabilityRule::TrustedSigner`](crate::checkpoint::StabilityRule),
    /// live and replayed alike, and [`Adoption::Trusted`] takes a snapshot
    /// only from them.
    pub trusted: u32,
    /// A catch-up asks replicas `0..ask` and the checkpoint's announcer.
    pub ask: u32,
    /// How responses are adopted.
    pub adoption: Adoption,
}

/// A replica's state transfer: its rules and what is in flight.
#[derive(Debug)]
pub(crate) struct TransferState {
    rules: TransferRules,
    /// The stable checkpoint a `STATE-REQUEST` awaiting its answer was
    /// sent at. A request is in flight for that checkpoint only: one sent
    /// to a replica that crashed or lost it must not block the catch-up at
    /// every later one.
    in_flight: Option<SeqNum>,
    /// Responses collected toward [`Adoption::Matching`], one per replica.
    responses: Vec<StateResponse>,
}

impl TransferState {
    pub(crate) fn new(rules: TransferRules) -> Self {
        TransferState {
            rules,
            in_flight: None,
            responses: Vec::new(),
        }
    }
}

/// The replica a message claiming to be `claimed`'s came from, or the
/// refusal: no replica sent it, or another one did.
fn sender(from: NodeId, claimed: ReplicaId) -> Result<ReplicaId, ProtocolViolation> {
    match from.as_replica() {
        Some(sender) if sender == claimed => Ok(sender),
        Some(_) => Err(ProtocolViolation::BadSignature {
            claimed_signer: NodeId::Replica(claimed),
        }),
        None => Err(ProtocolViolation::UnexpectedSender {
            sender: ReplicaId(u32::MAX),
            expected_role: "replica",
        }),
    }
}

/// Refuses `payload` if the deployment signs and `signer`'s `signature` over
/// it does not verify.
fn verified(
    signer: ReplicaId,
    payload: &impl SignedPayload,
    signature: &Signature,
    signing: Option<&mut SigningContext>,
) -> Result<(), ProtocolViolation> {
    let claimed_signer = NodeId::Replica(signer);
    if signing.is_some_and(|signing| !signing.verify_once(claimed_signer, payload, signature)) {
        return Err(ProtocolViolation::BadSignature { claimed_signer });
    }
    Ok(())
}

impl ReplicaChassis {
    fn trusts(&self, replica: ReplicaId) -> bool {
        replica.0 < self.transfer.rules.trusted
    }

    /// A peer's `CHECKPOINT`, verified and recorded as the rules trust its
    /// sender. If it made a checkpoint stable ahead of execution, asks for
    /// the missing state: a slot this replica lost for good (one proposed
    /// while it was down, say) would otherwise stall execution forever.
    pub(crate) fn on_checkpoint(
        &mut self,
        from: NodeId,
        checkpoint: Checkpoint,
        signing: Option<&mut SigningContext>,
    ) -> Result<Vec<Action>, ProtocolViolation> {
        let announcer = sender(from, checkpoint.replica)?;
        verified(announcer, &checkpoint, &checkpoint.signature, signing)?;
        let mut actions = Vec::new();
        let seq = checkpoint.seq;
        if self.checkpoints.record(checkpoint, self.trusts(announcer)) {
            self.metrics.stable_checkpoints += 1;
            self.after_stable_checkpoint();
            if self.exec.last_executed() < seq {
                let ask = self.transfer.rules.ask;
                let announcer = (announcer.0 >= ask).then_some(announcer);
                self.request_state(&mut actions, (0..ask).map(ReplicaId).chain(announcer));
            }
        }
        Ok(actions)
    }

    /// Asks `recipients` (never this replica) for the state above its
    /// execution, unless a request sent at the current stable checkpoint is
    /// in flight. A newer stable checkpoint always asks again, whether the
    /// earlier request was lost or its answer is only slow.
    pub fn request_state(
        &mut self,
        actions: &mut Vec<Action>,
        recipients: impl IntoIterator<Item = ReplicaId>,
    ) {
        let stable = self.checkpoints.stable_seq();
        if self.transfer.in_flight >= Some(stable) {
            return;
        }
        let request = StateRequest {
            from_seq: self.exec.last_executed(),
            replica: self.id,
        };
        let queued = actions.len();
        self.broadcast_to(actions, recipients, Message::StateRequest(request));
        if actions.len() > queued {
            self.transfer.in_flight = Some(stable);
        }
    }

    /// Answers a `STATE-REQUEST` (or a restarted peer's announcement) with
    /// the snapshot and the committed suffix above `from_seq`.
    pub fn serve_state(&mut self, from_seq: SeqNum, to: ReplicaId) -> Vec<Action> {
        let mut actions = Vec::new();
        let response = StateResponse {
            checkpoint: self.checkpoints.stable_proof().first().cloned(),
            snapshot: Some(self.exec.snapshot()),
            entries: self.exec.committed_after(from_seq),
            replica: self.id,
        };
        let to = NodeId::Replica(to);
        self.send(&mut actions, to, Message::StateResponse(response));
        actions
    }

    /// A restarted peer's `RECOVERY`, once verified, gets what a
    /// `STATE-REQUEST` from its last executed slot would.
    pub(crate) fn on_recovery(
        &mut self,
        from: NodeId,
        recovery: Recovery,
        signing: Option<&mut SigningContext>,
    ) -> Result<Vec<Action>, ProtocolViolation> {
        let sender = sender(from, recovery.replica)?;
        verified(sender, &recovery, &recovery.signature, signing)?;
        Ok(self.serve_state(recovery.last_executed, sender))
    }

    /// A peer's `STATE-RESPONSE`, under the adoption rule: whether state was
    /// adopted (the protocol then executes what became ready), or the
    /// refusal.
    pub(crate) fn on_state_response(
        &mut self,
        from: NodeId,
        response: StateResponse,
        signing: Option<&mut SigningContext>,
    ) -> Result<bool, ProtocolViolation> {
        let need = match self.transfer.rules.adoption {
            Adoption::Trusted => {
                let sender = sender(from, response.replica)?;
                if let (Some(snapshot), true) = (&response.snapshot, self.trusts(sender)) {
                    self.adopt_snapshot(snapshot, response.checkpoint.as_ref());
                }
                self.adopt_entries(response);
                self.transfer.in_flight = None;
                return Ok(true);
            }
            Adoption::Matching(need) if self.recovering || self.transfer.in_flight.is_some() => {
                need
            }
            Adoption::Matching(_) => return Ok(false),
        };
        let sender = sender(from, response.replica)?;
        if let Some(cp) = &response.checkpoint {
            verified(cp.replica, cp, &cp.signature, signing)?;
        }
        // Only the key just added can have reached `need`: any other would
        // have been adopted, and the collection cleared, when it did.
        let key = |r: &StateResponse| r.checkpoint.as_ref().map(|cp| (cp.seq, cp.state_digest));
        let agreed = key(&response);
        let responses = &mut self.transfer.responses;
        responses.retain(|r| r.replica != sender);
        responses.push(response);
        if responses.iter().filter(|r| key(r) == agreed).count() < need {
            return Ok(false);
        }
        let agreed: Vec<StateResponse> = std::mem::take(responses)
            .into_iter()
            .filter(|r| key(r) == agreed)
            .collect();
        let best = agreed.iter().max_by_key(|r| r.entries.len());
        if let Some(StateResponse {
            snapshot: Some(snapshot),
            checkpoint: Some(cp),
            ..
        }) = best
        {
            self.adopt_snapshot(snapshot, Some(cp));
        }
        for response in agreed {
            self.adopt_entries(response);
        }
        self.transfer.in_flight = None;
        Ok(true)
    }

    /// Fast-forwards over a peer's snapshot if it is ahead of local state (a
    /// stale one is ignored by `restore`), making the checkpoint it was
    /// taken at stable and running the stable-checkpoint housekeeping.
    fn adopt_snapshot(&mut self, snapshot: &[u8], checkpoint: Option<&Checkpoint>) {
        let before = self.exec.last_executed();
        self.exec.restore(snapshot);
        if self.exec.last_executed() > before {
            if let Some(cp) = checkpoint {
                self.checkpoints
                    .make_stable(cp.seq, cp.state_digest, vec![cp.clone()]);
            }
            self.after_stable_checkpoint();
        }
    }

    /// Re-enters a response's committed suffix into the normal execution
    /// path.
    fn adopt_entries(&mut self, response: StateResponse) {
        let low_mark = self.log.low_mark();
        for (seq, batch) in response.entries {
            if self.exec.add_committed(seq, batch) && seq > low_mark {
                self.log.instance_mut(seq).committed = true;
            }
        }
    }

    /// Restarts from the durable state in `store`: restores its last
    /// checkpoint and enters the *recovering* state. Returns the WAL suffix:
    /// the caller re-arms its own records from it and hands each to
    /// [`replay`](Self::replay).
    pub fn restore(&mut self, store: Arc<dyn Durability>) -> Vec<WalRecord> {
        let state = store.recover().unwrap_or_default();
        self.store = store;
        if let Some(cp) = &state.checkpoint {
            self.exec.restore(&cp.snapshot);
            self.checkpoints
                .make_stable(cp.seq, cp.state_digest, cp.proof.clone());
            self.log.garbage_collect(cp.seq);
            self.persisted_checkpoint = cp.seq;
        }
        self.wal_replayed = state.wal.len() as u64;
        self.recovering = true;
        state.wal
    }

    /// `on_start`: a restarted replica announces itself; a fresh (or
    /// crashed) one has nothing to do.
    pub fn on_start(&mut self, now: Instant, signing: Option<&mut SigningContext>) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.crashed || !self.recovering {
            return actions;
        }
        self.trace_at = now;
        self.trace(EventKind::RecoveryStarted, None, None, self.wal_replayed);
        self.announce_recovery(&mut actions, signing);
        actions
    }

    /// Broadcasts the `RECOVERY` announcement — signed when the deployment
    /// signs, carrying [`Signature::INVALID`] in a crash-only one — and arms
    /// the re-announce timer.
    pub(crate) fn announce_recovery(
        &mut self,
        actions: &mut Vec<Action>,
        signing: Option<&mut SigningContext>,
    ) {
        let mut recovery = Recovery {
            last_executed: self.exec.last_executed(),
            view: self.view,
            replica: self.id,
            signature: Signature::INVALID,
        };
        if let Some(signing) = signing {
            recovery.signature = signing.sign(&recovery);
        }
        self.broadcast(actions, Message::Recovery(recovery));
        actions.push(Action::SetTimer {
            timer: Timer::Recovery,
            after: self.pconfig.request_timeout,
        });
    }

    /// The log instance a replayed vote for `seq` re-arms, or `None` at or
    /// below the restored checkpoint.
    pub fn replayed(&mut self, seq: SeqNum) -> Option<&mut Instance> {
        (seq > self.log.low_mark()).then(|| self.log.instance_mut(seq))
    }

    /// Replays one WAL record, re-arming the guards the live replica had:
    /// the installed view, accepted proposals, recorded votes,
    /// `inform_sent` and checkpoint votes. Idempotent (votes are
    /// first-vote-wins, flags are merely re-set), so records duplicated by a
    /// crash between compaction's rewrite and delete are harmless.
    pub fn replay(&mut self, record: WalRecord) {
        let vote = match record {
            WalRecord::ViewEntered { view, mode } if view >= self.view => {
                (self.view, self.mode) = (view, mode);
                return;
            }
            WalRecord::ViewEntered { .. } => return,
            WalRecord::Vote(vote) => vote,
        };
        let proposal = |view, digest, batch, primary_signature| Proposal {
            view,
            digest,
            batch,
            primary_signature,
        };
        match vote {
            Message::Prepare(p) => {
                let proposal = proposal(p.view, p.digest, p.batch, p.signature);
                self.replay_proposal(p.seq, proposal);
            }
            Message::PrePrepare(p) => {
                let proposal = proposal(p.view, p.digest, p.batch, p.signature);
                self.replay_proposal(p.seq, proposal);
            }
            Message::Accept(v) => {
                if let Some(instance) = self.replayed(v.seq) {
                    instance.record_accept(v.replica, v.digest);
                }
            }
            Message::PbftPrepare(v) => {
                if let Some(instance) = self.replayed(v.seq) {
                    instance.record_pbft_prepare(v.replica, v.digest);
                }
            }
            Message::Inform(v) => {
                if let Some(instance) = self.replayed(v.seq) {
                    instance.record_inform(v.replica, v.digest);
                    instance.inform_sent = true;
                }
            }
            Message::Checkpoint(cp) => {
                let trusted = self.trusts(cp.replica);
                if self.checkpoints.record(cp, trusted) {
                    self.log.garbage_collect(self.checkpoints.stable_seq());
                }
            }
            _ => {}
        }
    }

    /// A replayed proposal: numbering resumes above it, and it stands
    /// unless the slot already has one.
    fn replay_proposal(&mut self, seq: SeqNum, proposal: Proposal) {
        if seq > self.log.low_mark() {
            self.next_seq = self.next_seq.max(seq);
            self.log.instance_mut(seq).proposal.get_or_insert(proposal);
        }
    }

    /// Leaves the recovering state and hands back everything buffered while
    /// rejoining, oldest first, for the caller to re-deliver to itself.
    /// Nothing, if the replica was not rejoining.
    pub fn finish_recovery(&mut self, actions: &mut Vec<Action>) -> VecDeque<(NodeId, Message)> {
        if !self.recovering {
            return VecDeque::new();
        }
        self.recovering = false;
        let timer = Timer::Recovery;
        actions.push(Action::CancelTimer { timer });
        self.trace(EventKind::RecoveryCompleted, None, None, self.wal_replayed);
        std::mem::take(&mut self.recovery_buffer)
    }
}
