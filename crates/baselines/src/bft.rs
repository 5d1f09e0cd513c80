//! The Byzantine fault-tolerant baseline: a PBFT-style replica.
//!
//! Used for two lines of the paper's evaluation:
//!
//! * **BFT** — [`BaselineConfig::bft`]: `3f + 1` replicas, `2f + 1` quorums,
//!   the classic PBFT configuration where every failure is treated as
//!   Byzantine.
//! * **S-UpRight** — [`crate::config::s_upright`]: the same agreement run
//!   over the hybrid network of `3m + 2c + 1` replicas with `2m + c + 1`
//!   quorums and `m + 1` reply quorums, i.e. the UpRight sizing with a
//!   PBFT-like (pessimistic) protocol, exactly as Section 6 describes.
//!
//! Normal case: `PRE-PREPARE` from the primary to everyone, all-to-all
//! `PREPARE` votes, all-to-all `COMMIT` votes, execution and a reply from
//! every replica. View change: replicas send `VIEW-CHANGE` evidence to
//! everyone and the new primary emits a `NEW-VIEW` re-proposing undecided
//! requests.

use crate::config::BaselineConfig;
use seemore_app::StateMachine;
use seemore_core::actions::{Action, Timer};
use seemore_core::chassis::{
    noop_request, Duties, Inbound, ReplicaChassis, SigningContext, NOOP_CLIENT,
};
use seemore_core::checkpoint::StabilityRule;
use seemore_core::config::ProtocolConfig;
use seemore_core::exec::ExecutedEntry;
use seemore_core::log::Proposal;
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::reads::ReadRule;
use seemore_crypto::{Digest, KeyStore, Signature};
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::{EventKind, Recorder};
use seemore_types::{Instant, Mode, NodeId, ReplicaId, SeqNum, View};
use seemore_wire::{
    Batch, Checkpoint, ClientRequest, Commit, Message, NewView, PbftPrepare, PrePrepare,
    PrepareCert, Recovery, StateRequest, StateResponse, ViewChange,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A PBFT-style replica, parameterized by a [`BaselineConfig`].
pub struct BftReplica {
    /// The protocol-independent half shared with the SeeMoRe replica and
    /// the CFT baseline (see [`seemore_core::chassis`]); trace events carry
    /// [`Mode::Peacock`], the closest SeeMoRe analogue.
    chassis: ReplicaChassis,
    /// This replica's signing identity and allocation-free verify path.
    signing: SigningContext,
    config: BaselineConfig,
    in_view_change: bool,
    target_view: View,
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
    new_view_sent: Vec<View>,
    /// `STATE-RESPONSE`s collected while rejoining or catching up; the
    /// snapshot is adopted only once `f + 1` distinct replicas vouch for the
    /// same checkpoint digest, so at least one honest replica stands behind
    /// it.
    recovery_responses: Vec<(ReplicaId, StateResponse)>,
    /// True while a checkpoint-triggered catch-up (outside recovery) awaits
    /// its `f + 1` matching `STATE-RESPONSE`s.
    catching_up: bool,
}

impl BftReplica {
    /// Creates a PBFT-style replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the group or the key store has no signer
    /// for it.
    pub fn new(
        id: ReplicaId,
        config: BaselineConfig,
        pconfig: ProtocolConfig,
        keystore: KeyStore,
        app: Box<dyn StateMachine>,
    ) -> Self {
        assert!(config.contains(id), "replica {id} outside the BFT group");
        BftReplica {
            chassis: ReplicaChassis::new(
                id,
                config.network_size,
                pconfig,
                Mode::Peacock,
                StabilityRule::Quorum(config.reply_quorum as usize),
                app,
            ),
            signing: SigningContext::new(id, keystore),
            config,
            in_view_change: false,
            target_view: View::ZERO,
            view_changes: BTreeMap::new(),
            new_view_sent: Vec::new(),
            recovery_responses: Vec::new(),
            catching_up: false,
        }
    }

    /// Attaches a durability store (see [`ReplicaChassis::set_store`]).
    pub fn set_store(&mut self, store: Arc<dyn Durability>) {
        self.chassis.set_store(store);
    }

    /// Rebuilds a PBFT replica from the durable state in `store` and leaves
    /// it recovering: `on_start` broadcasts a signed `RECOVERY` announcement
    /// and the rejoin completes once `f + 1` replicas agree on the committed
    /// suffix this replica missed.
    pub fn recover(
        id: ReplicaId,
        config: BaselineConfig,
        pconfig: ProtocolConfig,
        keystore: KeyStore,
        app: Box<dyn StateMachine>,
        store: Arc<dyn Durability>,
    ) -> Self {
        let mut replica = Self::new(id, config, pconfig, keystore, app);
        for record in replica.chassis.restore(store) {
            replica.replay_record(record);
        }
        replica
    }

    /// Replays one WAL record. Replay only re-arms local vote state — the
    /// `prepared`/`committed` flags and recorded votes keep the replica from
    /// ever contradicting a persisted vote (no-un-vote), and the vote paths'
    /// existing idempotency guards make double-replay harmless.
    fn replay_record(&mut self, record: WalRecord) {
        let low_mark = self.chassis.log.low_mark();
        let my_id = self.chassis.id;
        match record {
            WalRecord::ViewEntered { view, .. } => {
                if view >= self.chassis.view {
                    self.chassis.view = view;
                }
            }
            WalRecord::Vote(Message::PrePrepare(p)) if p.seq > low_mark => {
                self.chassis.next_seq = self.chassis.next_seq.max(p.seq);
                let digest = p.digest;
                let instance = self.chassis.log.instance_mut(p.seq);
                if instance.proposal.is_none() {
                    instance.proposal = Some(Proposal {
                        view: p.view,
                        digest,
                        batch: p.batch,
                        primary_signature: p.signature,
                    });
                }
                instance.record_pbft_prepare(my_id, digest);
            }
            WalRecord::Vote(Message::PbftPrepare(v)) if v.seq > low_mark => {
                self.chassis
                    .log
                    .instance_mut(v.seq)
                    .record_pbft_prepare(v.replica, v.digest);
            }
            WalRecord::Vote(Message::Commit(c)) if c.seq > low_mark => {
                let instance = self.chassis.log.instance_mut(c.seq);
                instance.prepared = true;
                instance.record_commit(c.replica, c.digest);
                self.chassis.reads.note_prepared(c.seq);
            }
            WalRecord::Vote(Message::Checkpoint(cp)) => {
                if self.chassis.checkpoints.record(cp, false) {
                    self.chassis
                        .log
                        .garbage_collect(self.chassis.checkpoints.stable_seq());
                }
            }
            WalRecord::Vote(_) => {}
        }
    }

    /// Replaces the structured-event sink (see
    /// [`ReplicaChassis::set_recorder`]).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.chassis.set_recorder(recorder);
    }

    fn primary(&self) -> ReplicaId {
        self.config.primary(self.chassis.view)
    }

    fn is_primary(&self) -> bool {
        self.primary() == self.chassis.id
    }

    /// Executes what is ready. In PBFT every replica replies (the client
    /// waits for `f + 1` matching replies) and announces checkpoints.
    fn execute_ready(&mut self, actions: &mut Vec<Action>) {
        let duties = Duties {
            reply: true,
            announce: true,
            reads: self.read_rule(),
            settle_when_idle: true,
        };
        self.chassis
            .execute_ready(actions, duties, Some(&mut self.signing));
    }

    /// PBFT's read-only optimization: every replica answers from its
    /// executed state behind its prepared fence, and the client needs
    /// `2f + 1` matching replies. A view change refuses instead.
    fn read_rule(&self) -> ReadRule {
        if self.in_view_change {
            ReadRule::Refuse
        } else {
            ReadRule::Prepared
        }
    }

    // --------------------------------------------------------------
    // Normal case
    // --------------------------------------------------------------

    fn on_request(&mut self, request: ClientRequest, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self
            .signing
            .verify(NodeId::Client(request.client), &request, &request.signature)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        if self
            .chassis
            .reply_from_cache(&mut actions, &request, Some(&mut self.signing))
            || self.in_view_change
        {
            return actions;
        }
        if self.is_primary() {
            self.buffer_or_propose(&mut actions, request, now);
        } else {
            let primary = self.primary();
            self.chassis
                .forward_request(&mut actions, primary, request, true);
        }
        actions
    }

    /// Offers `request` to the batching controller, proposing immediately
    /// when the policy says so (always, when the effective cap is 1).
    fn buffer_or_propose(
        &mut self,
        actions: &mut Vec<Action>,
        request: ClientRequest,
        now: Instant,
    ) {
        if let Some(batch) = self.chassis.admit_request(actions, request, now) {
            self.propose_batch(actions, batch);
        }
    }

    /// Assigns a sequence number to `batch` and broadcasts the signed
    /// `PRE-PREPARE`.
    fn propose_batch(&mut self, actions: &mut Vec<Action>, batch: Batch) {
        let Some(seq) = self.chassis.assign_slot(&batch) else {
            return;
        };
        let digest = batch.digest();
        let mut preprepare = PrePrepare {
            view: self.chassis.view,
            seq,
            digest,
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        preprepare.signature = self.signing.sign(&preprepare);
        let instance = self.chassis.log.instance_mut(seq);
        instance.proposal = Some(Proposal {
            view: self.chassis.view,
            digest,
            batch,
            primary_signature: preprepare.signature,
        });
        // The primary's pre-prepare counts as its prepare vote.
        instance.record_pbft_prepare(self.chassis.id, digest);
        self.chassis
            .broadcast(actions, Message::PrePrepare(preprepare));
        // A one-replica cluster (`f = 0`) is its own quorum: no vote will
        // ever arrive, so the slot prepares and commits here.
        self.try_prepare(actions, seq, digest);
    }

    fn on_pre_prepare(&mut self, from: NodeId, preprepare: PrePrepare) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.in_view_change
            || preprepare.view != self.chassis.view
            || from.as_replica() != Some(self.primary())
            || preprepare.digest != preprepare.batch.digest()
            || !self.signing.verify_once(
                NodeId::Replica(self.primary()),
                &preprepare,
                &preprepare.signature,
            )
            || !self
                .chassis
                .log
                .in_window(preprepare.seq, self.chassis.pconfig.high_water_mark)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        let seq = preprepare.seq;
        let digest = preprepare.digest;
        let primary = self.primary();
        let my_id = self.chassis.id;
        {
            let instance = self.chassis.log.instance_mut(seq);
            if let Some(existing) = &instance.proposal {
                if existing.view == preprepare.view && existing.digest != digest {
                    // Equivocating primary; ignore (the view change timer
                    // handles liveness).
                    self.chassis.metrics.rejected_messages += 1;
                    return actions;
                }
            }
            instance.proposal = Some(Proposal {
                view: preprepare.view,
                digest,
                batch: preprepare.batch,
                primary_signature: preprepare.signature,
            });
            // Count the primary's implicit prepare vote and our own.
            instance.record_pbft_prepare(primary, digest);
            instance.record_pbft_prepare(my_id, digest);
        }
        let mut vote = PbftPrepare {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        vote.signature = self.signing.sign(&vote);
        self.chassis
            .broadcast(&mut actions, Message::PbftPrepare(vote));
        self.chassis.progress_armed.insert(seq, self.chassis.view);
        actions.push(Action::SetTimer {
            timer: Timer::RequestProgress { seq },
            after: self.chassis.pconfig.request_timeout,
        });
        self.try_prepare(&mut actions, seq, digest);
        actions
    }

    fn on_pbft_prepare(&mut self, from: NodeId, vote: PbftPrepare) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if vote.view != self.chassis.view
            || self.in_view_change
            || sender != vote.replica
            || !self
                .signing
                .verify_once(NodeId::Replica(sender), &vote, &vote.signature)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        self.chassis
            .log
            .instance_mut(vote.seq)
            .record_pbft_prepare(sender, vote.digest);
        self.try_prepare(&mut actions, vote.seq, vote.digest);
        actions
    }

    fn try_prepare(&mut self, actions: &mut Vec<Action>, seq: SeqNum, digest: Digest) {
        let quorum = self.config.quorum as usize;
        let instance = self.chassis.log.instance_mut(seq);
        if instance.prepared
            || !instance.proposal_matches(self.chassis.view, &digest)
            || instance
                .pbft_prepares
                .values()
                .filter(|d| **d == digest)
                .count()
                < quorum
        {
            return;
        }
        instance.prepared = true;
        instance.record_commit(self.chassis.id, digest);
        // Advance the prepared frontier fencing this replica's reads.
        self.chassis.reads.note_prepared(seq);
        let mut commit = Commit {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            batch: None,
            signature: Signature::INVALID,
        };
        commit.signature = self.signing.sign(&commit);
        self.chassis.broadcast(actions, Message::Commit(commit));
        self.try_commit(actions, seq, digest);
    }

    fn on_commit(&mut self, from: NodeId, commit: Commit) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if commit.view != self.chassis.view
            || self.in_view_change
            || sender != commit.replica
            || !self
                .signing
                .verify_once(NodeId::Replica(sender), &commit, &commit.signature)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        self.chassis
            .log
            .instance_mut(commit.seq)
            .record_commit(sender, commit.digest);
        self.try_commit(&mut actions, commit.seq, commit.digest);
        actions
    }

    fn try_commit(&mut self, actions: &mut Vec<Action>, seq: SeqNum, digest: Digest) {
        let quorum = self.config.quorum as usize;
        let instance = self.chassis.log.instance_mut(seq);
        let votes = instance.matching_commits(&digest);
        if instance.committed
            || !instance.prepared
            || !instance.proposal_matches(self.chassis.view, &digest)
            || votes < quorum
        {
            return;
        }
        instance.committed = true;
        let batch = instance.proposal.as_ref().map(|p| p.batch.clone());
        self.chassis
            .trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.chassis.trace(EventKind::Committed, Some(seq), None, 0);
        if let Some(batch) = batch {
            self.chassis.metrics.committed += 1;
            self.chassis.exec.add_committed(seq, batch);
            self.execute_ready(actions);
        }
        actions.push(Action::CancelTimer {
            timer: Timer::RequestProgress { seq },
        });
    }

    fn on_checkpoint(&mut self, from: NodeId, checkpoint: Checkpoint) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if sender != checkpoint.replica
            || !self.signing.verify_once(
                NodeId::Replica(sender),
                &checkpoint,
                &checkpoint.signature,
            )
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        let seq = checkpoint.seq;
        if self.chassis.checkpoints.record(checkpoint, false) {
            self.chassis.metrics.stable_checkpoints += 1;
            self.chassis.after_stable_checkpoint();
            // Fallen behind the stable checkpoint (e.g. an instance proposed
            // while this replica was down can never be re-learned from the
            // vote traffic): ask the whole group for state and adopt the
            // snapshot once `f + 1` responses agree, exactly as a rejoin
            // does. Without this a permanently missed slot stalls in-order
            // execution forever.
            if self.chassis.exec.last_executed() < seq && !self.catching_up {
                self.catching_up = true;
                self.recovery_responses.clear();
                let request = StateRequest {
                    from_seq: self.chassis.exec.last_executed(),
                    replica: self.chassis.id,
                };
                self.chassis
                    .broadcast(&mut actions, Message::StateRequest(request));
            }
        }
        actions
    }

    // --------------------------------------------------------------
    // State transfer and crash recovery
    // --------------------------------------------------------------

    /// Answers a verified restart announcement with this replica's
    /// committed suffix above the announcer's durable state.
    fn on_recovery(&mut self, from: NodeId, recovery: Recovery) -> Vec<Action> {
        if from.as_replica() != Some(recovery.replica)
            || !self.signing.verify_once(
                NodeId::Replica(recovery.replica),
                &recovery,
                &recovery.signature,
            )
        {
            self.chassis.metrics.rejected_messages += 1;
            return Vec::new();
        }
        self.chassis
            .serve_state(recovery.last_executed, recovery.replica)
    }

    /// Collects a peer's `STATE-RESPONSE` toward the `f + 1` matching
    /// quorum — with at most `f` Byzantine replicas, at least one voucher
    /// is honest, so a fabricated snapshot can never gather the quorum
    /// alone. Once the quorum forms, the agreed snapshot is adopted and the
    /// committed entries re-enter the normal execution path. Returns whether
    /// adoption happened (shared by the rejoin and the checkpoint-triggered
    /// catch-up).
    fn record_state_response(
        &mut self,
        from: NodeId,
        response: StateResponse,
        actions: &mut Vec<Action>,
    ) -> bool {
        let Some(sender) = from.as_replica() else {
            return false;
        };
        if sender != response.replica {
            self.chassis.metrics.rejected_messages += 1;
            return false;
        }
        if let Some(cp) = &response.checkpoint {
            let (replica, signature) = (cp.replica, cp.signature);
            if !self
                .signing
                .verify_once(NodeId::Replica(replica), cp, &signature)
            {
                self.chassis.metrics.rejected_messages += 1;
                return false;
            }
        }
        self.recovery_responses.retain(|(s, _)| *s != sender);
        self.recovery_responses.push((sender, response));

        let need = self.config.fault_bound as usize + 1;
        let key = |r: &StateResponse| r.checkpoint.as_ref().map(|cp| (cp.seq, cp.state_digest));
        let agreed: Vec<StateResponse> = {
            let responses = &self.recovery_responses;
            responses
                .iter()
                .map(|(_, r)| r)
                .find(|candidate| {
                    responses
                        .iter()
                        .filter(|(_, other)| key(other) == key(candidate))
                        .count()
                        >= need
                })
                .map(|candidate| {
                    let k = key(candidate);
                    responses
                        .iter()
                        .filter(|(_, r)| key(r) == k)
                        .map(|(_, r)| r.clone())
                        .collect()
                })
                .unwrap_or_default()
        };
        if agreed.is_empty() {
            return false;
        }

        let best = agreed
            .iter()
            .max_by_key(|r| r.entries.len())
            .expect("agreement group is non-empty");
        if let (Some(snapshot), Some(cp)) = (&best.snapshot, &best.checkpoint) {
            if self.chassis.adopt_snapshot(snapshot, Some(cp)) {
                self.chassis.after_stable_checkpoint();
            }
        }
        for response in &agreed {
            self.chassis.adopt_entries(response.entries.iter().cloned());
        }
        self.execute_ready(actions);
        self.recovery_responses.clear();
        true
    }

    /// Finishes the rejoin once the state-response quorum forms: adopts the
    /// agreed state, leaves the recovering state and re-delivers everything
    /// buffered while down.
    fn complete_recovery(
        &mut self,
        from: NodeId,
        response: StateResponse,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.record_state_response(from, response, &mut actions) {
            return actions;
        }
        for (from, message) in self.chassis.finish_recovery(&mut actions) {
            actions.extend(self.on_message(from, message, now));
        }
        actions
    }

    /// A `STATE-RESPONSE` outside recovery only matters while a
    /// checkpoint-triggered catch-up is in flight.
    fn on_state_response(&mut self, from: NodeId, response: StateResponse) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.catching_up && self.record_state_response(from, response, &mut actions) {
            self.catching_up = false;
        }
        actions
    }

    // --------------------------------------------------------------
    // View change
    // --------------------------------------------------------------

    fn start_view_change(&mut self, target: View, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.in_view_change && self.target_view >= target {
            return actions;
        }
        self.in_view_change = true;
        self.target_view = target;
        self.chassis.metrics.view_changes_started += 1;
        self.chassis
            .trace(EventKind::ViewChangeStart, None, None, target.0);
        self.chassis
            .refuse_parked_reads(&mut actions, Some(&mut self.signing));

        let stable = self.chassis.checkpoints.stable_seq();
        let mut prepares = Vec::new();
        for (seq, instance) in self.chassis.log.instances_after(stable) {
            // PBFT carries certificates for *prepared* requests; committed
            // ones are re-proposed too so lagging replicas catch up.
            if !(instance.prepared || instance.committed) {
                continue;
            }
            let Some(proposal) = &instance.proposal else {
                continue;
            };
            prepares.push(PrepareCert {
                view: proposal.view,
                seq: *seq,
                digest: proposal.digest,
                primary_signature: proposal.primary_signature,
                batch: Some(proposal.batch.clone()),
            });
        }
        let mut view_change = ViewChange {
            new_view: target,
            mode: Mode::Peacock,
            stable_seq: stable,
            checkpoint_proof: self.chassis.checkpoints.stable_proof().to_vec(),
            prepares,
            commits: Vec::new(),
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        view_change.signature = self.signing.sign(&view_change);
        self.view_changes
            .entry(target)
            .or_default()
            .insert(self.chassis.id, view_change.clone());
        self.chassis
            .broadcast(&mut actions, Message::ViewChange(view_change));
        actions.push(Action::SetTimer {
            timer: Timer::ViewChange { view: target },
            after: self.chassis.pconfig.view_change_timeout,
        });
        self.try_assemble(&mut actions, target, now);
        actions
    }

    fn on_view_change(
        &mut self,
        from: NodeId,
        view_change: ViewChange,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if view_change.new_view <= self.chassis.view
            || sender != view_change.replica
            || !self.signing.verify_once(
                NodeId::Replica(sender),
                &view_change,
                &view_change.signature,
            )
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        let target = view_change.new_view;
        self.view_changes
            .entry(target)
            .or_default()
            .insert(sender, view_change);
        // PBFT liveness rule: join once more than `f` replicas voted for a
        // newer view.
        let votes = self.view_changes.get(&target).map(|v| v.len()).unwrap_or(0);
        if !self.in_view_change && votes > self.config.fault_bound as usize {
            actions.extend(self.start_view_change(target, now));
        }
        self.try_assemble(&mut actions, target, now);
        actions
    }

    fn try_assemble(&mut self, actions: &mut Vec<Action>, target: View, now: Instant) {
        if self.config.primary(target) != self.chassis.id
            || self.new_view_sent.contains(&target)
            || target <= self.chassis.view
        {
            return;
        }
        let threshold = self.config.view_change_threshold() as usize;
        let Some(votes) = self.view_changes.get(&target) else {
            return;
        };
        let others = votes.keys().filter(|r| **r != self.chassis.id).count();
        if others < threshold {
            return;
        }
        self.new_view_sent.push(target);
        let votes: Vec<ViewChange> = votes.values().cloned().collect();

        let mut low = self.chassis.checkpoints.stable_seq();
        let mut best_checkpoint = self.chassis.checkpoints.stable_proof().first().cloned();
        for vote in &votes {
            if vote.stable_seq > low {
                low = vote.stable_seq;
                best_checkpoint = vote.checkpoint_proof.first().cloned();
            }
        }
        let mut high = low;
        for vote in &votes {
            for cert in &vote.prepares {
                high = high.max(cert.seq);
            }
        }

        let mut prepares_out = Vec::new();
        let mut seq = low.next();
        while seq <= high {
            // Certificate re-validation: every member request's signature
            // was already verified on first arrival, so the memo (when
            // enabled) turns these re-checks into digest lookups.
            let prepared = votes.iter().flat_map(|v| v.prepares.iter()).find(|p| {
                p.seq == seq
                    && p.batch
                        .as_ref()
                        .map(|batch| {
                            batch.digest() == p.digest
                                && batch.iter().all(|r| {
                                    r.client == NOOP_CLIENT
                                        || self.signing.verify(
                                            NodeId::Client(r.client),
                                            r,
                                            &r.signature,
                                        )
                                })
                        })
                        .unwrap_or(false)
            });
            if let Some(cert) = prepared {
                prepares_out.push(cert.clone());
            } else {
                let batch = Batch::single(noop_request(seq));
                prepares_out.push(PrepareCert {
                    view: self.chassis.view,
                    seq,
                    digest: batch.digest(),
                    primary_signature: Signature::INVALID,
                    batch: Some(batch),
                });
            }
            seq = seq.next();
        }

        let mut new_view = NewView {
            view: target,
            mode: Mode::Peacock,
            prepares: prepares_out,
            commits: Vec::new(),
            checkpoint: best_checkpoint,
            view_change_proof: votes,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        new_view.signature = self.signing.sign(&new_view);
        self.chassis
            .broadcast(actions, Message::NewView(new_view.clone()));
        self.install_new_view(actions, new_view, now);
    }

    fn on_new_view(&mut self, from: NodeId, new_view: NewView, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if new_view.view <= self.chassis.view
            || sender != self.config.primary(new_view.view)
            || sender != new_view.replica
            || !self
                .signing
                .verify_once(NodeId::Replica(sender), &new_view, &new_view.signature)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        self.install_new_view(&mut actions, new_view, now);
        actions
    }

    fn install_new_view(&mut self, actions: &mut Vec<Action>, new_view: NewView, now: Instant) {
        actions.push(Action::CancelTimer {
            timer: Timer::ViewChange {
                view: new_view.view,
            },
        });
        self.chassis.enter_view(new_view.view, Mode::Peacock);
        self.in_view_change = false;
        self.chassis.metrics.view_changes_completed += 1;
        self.chassis
            .trace(EventKind::ViewChangeInstall, None, None, new_view.view.0);
        self.chassis
            .refuse_parked_reads(actions, Some(&mut self.signing));
        self.chassis.assigned.clear();
        self.view_changes.retain(|view, _| *view > new_view.view);
        self.chassis.log.reset_votes_for_new_view();

        if let Some(cp) = &new_view.checkpoint {
            if cp.seq > self.chassis.checkpoints.stable_seq() {
                self.chassis
                    .checkpoints
                    .make_stable(cp.seq, cp.state_digest, vec![cp.clone()]);
                self.chassis.after_stable_checkpoint();
            }
        }
        let mut highest = self
            .chassis
            .checkpoints
            .stable_seq()
            .max(self.chassis.exec.last_executed());
        let i_am_primary = self.config.primary(new_view.view) == self.chassis.id;
        for cert in &new_view.prepares {
            highest = highest.max(cert.seq);
            let Some(batch) = cert.batch.clone() else {
                continue;
            };
            let digest = cert.digest;
            let seq = cert.seq;
            {
                let instance = self.chassis.log.instance_mut(seq);
                if instance.committed {
                    continue;
                }
                instance.proposal = Some(Proposal {
                    view: new_view.view,
                    digest,
                    batch,
                    primary_signature: cert.primary_signature,
                });
                instance.record_pbft_prepare(self.config.primary(new_view.view), digest);
                instance.record_pbft_prepare(self.chassis.id, digest);
            }
            if !i_am_primary {
                let mut vote = PbftPrepare {
                    view: new_view.view,
                    seq,
                    digest,
                    replica: self.chassis.id,
                    signature: Signature::INVALID,
                };
                vote.signature = self.signing.sign(&vote);
                self.chassis.broadcast(actions, Message::PbftPrepare(vote));
            }
        }
        self.chassis.next_seq = highest;
        self.execute_ready(actions);

        // Requests buffered for batching under the old view are re-routed:
        // the new primary proposes them, everyone else forwards them (and
        // the armed flush timer, if any, is cancelled with the buffer).
        let buffered = self.chassis.batcher.drain(actions);
        if i_am_primary {
            for request in buffered {
                if self
                    .chassis
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_none()
                {
                    self.buffer_or_propose(actions, request, now);
                }
            }
            self.flush_buffered(actions);
        } else {
            let primary = self.config.primary(new_view.view);
            for request in buffered {
                if self
                    .chassis
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_none()
                {
                    self.chassis
                        .send(actions, NodeId::Replica(primary), Message::Request(request));
                }
            }
        }
    }

    /// Forces out any partially accumulated batch.
    fn flush_buffered(&mut self, actions: &mut Vec<Action>) {
        if let Some(batch) = self.chassis.flush_batch(actions) {
            self.propose_batch(actions, batch);
        }
    }

    /// The batch flush timer of `generation` fired: propose the buffer
    /// (primary) or re-route it to the current primary (a replica deposed
    /// while buffering).
    fn on_batch_flush(&mut self, generation: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.chassis.flush_timer_is_current(generation) || self.in_view_change {
            return actions;
        }
        if self.is_primary() {
            if let Some(batch) = self.chassis.cut_on_flush_timer(generation) {
                self.propose_batch(&mut actions, batch);
            }
        } else {
            let primary = self.primary();
            for request in self.chassis.batcher.drain(&mut actions) {
                self.chassis.send(
                    &mut actions,
                    NodeId::Replica(primary),
                    Message::Request(request),
                );
            }
        }
        actions
    }
}

impl ReplicaProtocol for BftReplica {
    fn id(&self) -> ReplicaId {
        self.chassis.id
    }

    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        self.chassis.on_start(now, Some(&mut self.signing))
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        let message = match self.chassis.receive(from, message, now) {
            Inbound::Deliver(message) => message,
            Inbound::Rejoin(response) => return self.complete_recovery(from, response, now),
            Inbound::Handled(actions) => return actions,
        };
        let actions = match message {
            Message::Request(request) => self.on_request(request, now),
            Message::ReadRequest(read) => {
                let rule = self.read_rule();
                self.chassis
                    .on_read_request(read, rule, Some(&mut self.signing))
            }
            Message::PrePrepare(preprepare) => self.on_pre_prepare(from, preprepare),
            Message::PbftPrepare(vote) => self.on_pbft_prepare(from, vote),
            Message::Commit(commit) => self.on_commit(from, commit),
            Message::Checkpoint(checkpoint) => self.on_checkpoint(from, checkpoint),
            Message::ViewChange(view_change) => self.on_view_change(from, view_change, now),
            Message::NewView(new_view) => self.on_new_view(from, new_view, now),
            Message::Recovery(recovery) => self.on_recovery(from, recovery),
            Message::StateRequest(request) => {
                self.chassis.serve_state(request.from_seq, request.replica)
            }
            Message::StateResponse(response) => self.on_state_response(from, response),
            _ => Vec::new(),
        };
        self.chassis.metrics.note_log_size(self.chassis.log.len());
        actions
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        if let Some(actions) = self.chassis.timer_gate(timer, now, Some(&mut self.signing)) {
            return actions;
        }
        match timer {
            Timer::RequestProgress { seq } => {
                let committed = self
                    .chassis
                    .log
                    .instance(seq)
                    .map(|i| i.committed)
                    .unwrap_or(seq <= self.chassis.exec.last_executed());
                if committed || self.in_view_change {
                    return Vec::new();
                }
                let armed = self
                    .chassis
                    .progress_armed
                    .get(&seq)
                    .copied()
                    .unwrap_or(View::ZERO);
                if armed < self.chassis.view {
                    // A newer view was installed since this timer was armed;
                    // give the new primary a full timeout first.
                    self.chassis.progress_armed.insert(seq, self.chassis.view);
                    return vec![Action::SetTimer {
                        timer: Timer::RequestProgress { seq },
                        after: self.chassis.pconfig.request_timeout,
                    }];
                }
                self.start_view_change(self.chassis.view.next(), now)
            }
            Timer::ForwardedRequest { request } => {
                if self
                    .chassis
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_some()
                    || self.in_view_change
                {
                    return Vec::new();
                }
                let armed = self
                    .chassis
                    .forwarded_armed
                    .get(&request)
                    .copied()
                    .unwrap_or(View::ZERO);
                if armed < self.chassis.view {
                    self.chassis
                        .forwarded_armed
                        .insert(request, self.chassis.view);
                    return vec![Action::SetTimer {
                        timer: Timer::ForwardedRequest { request },
                        after: self.chassis.pconfig.request_timeout,
                    }];
                }
                self.start_view_change(self.chassis.view.next(), now)
            }
            Timer::ViewChange { view } => {
                if self.in_view_change && self.chassis.view < view {
                    self.start_view_change(view.next(), now)
                } else {
                    Vec::new()
                }
            }
            Timer::BatchFlush { generation } => self.on_batch_flush(generation),
            Timer::Recovery => Vec::new(),
            Timer::ClientRetransmit { .. } => Vec::new(),
        }
    }

    fn begin_turn(&mut self) {
        self.chassis.begin_turn();
    }

    fn end_turn(&mut self) {
        self.chassis.end_turn();
    }

    fn view(&self) -> View {
        self.chassis.view
    }

    fn mode(&self) -> Mode {
        self.chassis.mode
    }

    fn executed(&self) -> &[ExecutedEntry] {
        self.chassis.exec.history()
    }

    fn metrics(&self) -> &ReplicaMetrics {
        &self.chassis.metrics
    }

    fn is_crashed(&self) -> bool {
        self.chassis.crashed
    }

    fn crash(&mut self) {
        self.chassis.crashed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BaselineClient;
    use crate::config::s_upright;
    use seemore_app::KvStore;
    use seemore_core::byzantine::{ByzantineBehavior, ByzantineReplica};
    use seemore_core::check::{self, History};
    use seemore_core::testkit::SyncCluster;
    use seemore_types::{ClientId, Duration};

    const LIMIT: u64 = 200_000;

    fn build(
        config: BaselineConfig,
        byzantine: Option<(ReplicaId, ByzantineBehavior)>,
    ) -> SyncCluster {
        let keystore = KeyStore::generate(21, config.network_size, 2);
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            let core = BftReplica::new(
                replica,
                config,
                ProtocolConfig::default(),
                keystore.clone(),
                Box::new(KvStore::new()),
            );
            match byzantine {
                Some((id, behavior)) if id == replica => {
                    cluster.add_replica(Box::new(ByzantineReplica::new(core, behavior)));
                }
                _ => cluster.add_replica(Box::new(core)),
            }
        }
        for client in 0..2u64 {
            cluster.add_client(BaselineClient::new(
                ClientId(client),
                config,
                keystore.clone(),
                Duration::from_millis(100),
            ));
        }
        cluster
    }

    #[test]
    fn bft_quorum_reads_complete_without_ordering() {
        use seemore_app::{KvOp, KvResult};
        use seemore_types::OpClass;

        let config = BaselineConfig::bft(1);
        let mut cluster = build(config, None);
        cluster.submit(
            ClientId(0),
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        cluster.run_to_quiescence(LIMIT);

        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"k".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(LIMIT);

        let client = cluster.client(ClientId(1));
        assert_eq!(client.completed().len(), 1);
        assert_eq!(client.completed()[0].class, OpClass::Read);
        assert_eq!(
            KvResult::decode(&client.completed()[0].result),
            Some(KvResult::Value(b"v".to_vec()))
        );
        // All 3f + 1 replicas answered; none ordered a second operation.
        let served: u64 = config
            .replicas()
            .map(|r| cluster.replica(r).metrics().reads_served)
            .sum();
        assert_eq!(served, 4);
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 1);
        }
    }

    /// PBFT's read-only optimization is fenced at the prepared frontier: a
    /// replica must not answer while a slot it has prepared is unexecuted,
    /// because the write may already be acknowledged (`f + 1` matching
    /// replies) and its stale answer could complete a matching-but-stale
    /// `2f + 1` read quorum with `f` Byzantine replicas. The same schedule
    /// as the SeeMoRe core's Peacock test.
    #[test]
    fn bft_reads_park_behind_prepared_but_uncommitted_slots() {
        use seemore_app::{KvOp, KvResult};
        use seemore_types::Timestamp;
        use seemore_wire::{ReadRequest, SignedPayload};

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(24, config.network_size, 1);
        // r0 is the view-0 primary; r1 is the backup under test.
        let mut replica = BftReplica::new(
            ReplicaId(1),
            config,
            ProtocolConfig::default(),
            keystore.clone(),
            Box::new(KvStore::new()),
        );
        let now = Instant::ZERO;
        let signer = |node| keystore.signer_for(node).unwrap();
        let client = signer(NodeId::Client(ClientId(0)));

        // The primary's PRE-PREPARE for slot 1 counts as its prepare vote,
        // and the backup adds its own.
        let put = KvOp::Put {
            key: b"x".to_vec(),
            value: b"new".to_vec(),
        };
        let batch = Batch::single(ClientRequest::new(
            ClientId(0),
            Timestamp(1),
            put.encode(),
            &client,
        ));
        let digest = batch.digest();
        let mut preprepare = PrePrepare {
            view: View::ZERO,
            seq: SeqNum(1),
            digest,
            batch,
            signature: Signature::INVALID,
        };
        preprepare.signature =
            signer(NodeId::Replica(ReplicaId(0))).sign(&preprepare.signing_bytes());
        replica.on_message(
            NodeId::Replica(ReplicaId(0)),
            Message::PrePrepare(preprepare),
            now,
        );

        // A third prepare vote reaches 2f + 1: the slot is *prepared*, and
        // the backup's own commit vote is in, but the slot has not committed.
        let mut vote = PbftPrepare {
            view: View::ZERO,
            seq: SeqNum(1),
            digest,
            replica: ReplicaId(2),
            signature: Signature::INVALID,
        };
        vote.signature = signer(NodeId::Replica(ReplicaId(2))).sign(&vote.signing_bytes());
        replica.on_message(
            NodeId::Replica(ReplicaId(2)),
            Message::PbftPrepare(vote),
            now,
        );
        assert!(replica.executed().is_empty(), "slot 1 must not execute yet");

        // A read arriving now parks instead of answering.
        let get = KvOp::Get { key: b"x".to_vec() }.encode();
        let read = ReadRequest::new(ClientId(0), Timestamp(2), get, &client);
        let actions =
            replica.on_message(NodeId::Client(ClientId(0)), Message::ReadRequest(read), now);
        assert!(
            actions.iter().all(|a| !a.is_send()),
            "a read behind the prepared frontier must park, got {actions:?}"
        );
        assert_eq!(replica.metrics().reads_served, 0);
        assert_eq!(replica.metrics().reads_refused, 0);

        // Two more commit votes reach 2f + 1: slot 1 executes and the parked
        // read is served, with the committed value.
        let mut served = None;
        for voter in [2, 3] {
            let mut commit = Commit {
                view: View::ZERO,
                seq: SeqNum(1),
                digest,
                replica: ReplicaId(voter),
                batch: None,
                signature: Signature::INVALID,
            };
            commit.signature =
                signer(NodeId::Replica(ReplicaId(voter))).sign(&commit.signing_bytes());
            let actions = replica.on_message(
                NodeId::Replica(ReplicaId(voter)),
                Message::Commit(commit),
                now,
            );
            served = served.or(actions.into_iter().find_map(|a| match a {
                Action::Send {
                    message: Message::ReadReply(reply),
                    ..
                } => Some(reply),
                _ => None,
            }));
        }
        assert_eq!(replica.executed().len(), 1);
        assert_eq!(
            replica.metrics().reads_served,
            1,
            "the parked read is served"
        );
        let reply = served.expect("the served read's reply");
        assert!(!reply.refused);
        assert_eq!(
            KvResult::decode(&reply.result),
            Some(KvResult::Value(b"new".to_vec()))
        );
    }

    #[test]
    fn bft_reads_tolerate_a_silent_replica() {
        use seemore_app::{KvOp, KvResult};
        use seemore_types::OpClass;

        let config = BaselineConfig::bft(1);
        let mut cluster = build(config, Some((ReplicaId(3), ByzantineBehavior::Silent)));
        cluster.submit(
            ClientId(0),
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        cluster.run_to_quiescence(LIMIT);
        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"k".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(LIMIT);
        // 2f + 1 = 3 honest matching replies complete the read.
        let client = cluster.client(ClientId(1));
        assert_eq!(client.completed().len(), 1);
        assert_eq!(
            KvResult::decode(&client.completed()[0].result),
            Some(KvResult::Value(b"v".to_vec()))
        );
    }

    #[test]
    fn bft_commits_requests_on_all_replicas() {
        let config = BaselineConfig::bft(1);
        let mut cluster = build(config, None);
        cluster.submit(ClientId(0), b"op".to_vec());
        cluster.run_to_quiescence(LIMIT);
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 1);
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 1, "{replica}");
        }
    }

    #[test]
    fn s_upright_commits_with_hybrid_sizing() {
        let config = s_upright(1, 1);
        let mut cluster = build(config, None);
        for i in 0..4 {
            cluster.submit(ClientId(0), format!("op{i}").into_bytes());
            cluster.run_to_quiescence(LIMIT);
        }
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 4);
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 4, "{replica}");
        }
    }

    #[test]
    fn bft_tolerates_a_silent_byzantine_backup() {
        let config = BaselineConfig::bft(1);
        let mut cluster = build(config, Some((ReplicaId(3), ByzantineBehavior::Silent)));
        for i in 0..3 {
            cluster.submit(ClientId(0), format!("op{i}").into_bytes());
            cluster.run_to_quiescence(LIMIT);
        }
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 3);
    }

    #[test]
    fn bft_tolerates_conflicting_votes() {
        let config = s_upright(1, 1);
        let byz = ReplicaId(config.network_size - 1);
        let mut cluster = build(config, Some((byz, ByzantineBehavior::ConflictingVotes)));
        for i in 0..3 {
            cluster.submit(ClientId(0), format!("op{i}").into_bytes());
            cluster.run_to_quiescence(LIMIT);
            if cluster.client(ClientId(0)).has_pending() {
                cluster.fire_client_timers(LIMIT);
                cluster.run_to_quiescence(LIMIT);
            }
        }
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 3);
        let honest: Vec<History> = config
            .replicas()
            .filter(|r| *r != byz)
            .map(|r| (r, cluster.replica(r).executed()))
            .collect();
        let outcomes = cluster.client(ClientId(0)).completed();
        check::safety(&honest, outcomes).unwrap();
    }

    #[test]
    fn bft_primary_crash_triggers_view_change() {
        let config = BaselineConfig::bft(1);
        let mut cluster = build(config, None);
        cluster.submit(ClientId(0), b"first".to_vec());
        cluster.run_to_quiescence(LIMIT);
        cluster.replica_mut(ReplicaId(0)).crash();

        cluster.submit(ClientId(0), b"second".to_vec());
        cluster.run_to_quiescence(LIMIT);
        cluster.fire_client_timers(LIMIT);
        cluster.fire_all_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);
        cluster.fire_client_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);
        cluster.fire_client_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);

        assert_eq!(cluster.client(ClientId(0)).completed().len(), 2);
        assert!(cluster.replica(ReplicaId(1)).view() > View(0));
    }

    /// Regression (same bug as the SeeMoRe core): a size-trigger cut used to
    /// leave the armed flush timer live, so its stale expiry cut the next
    /// buffer prematurely. Generation-tagged timers make the stale expiry a
    /// no-op.
    #[test]
    fn bft_stale_flush_timer_cannot_truncate_the_next_batch() {
        use seemore_core::batching::BatchConfig;

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(23, config.network_size, 4);
        let mut cluster = SyncCluster::new();
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        for replica in config.replicas() {
            cluster.add_replica(Box::new(BftReplica::new(
                replica,
                config,
                pconfig,
                keystore.clone(),
                Box::new(KvStore::new()),
            )));
        }
        for client in 0..4u64 {
            cluster.add_client(BaselineClient::new(
                ClientId(client),
                config,
                keystore.clone(),
                Duration::from_millis(100),
            ));
        }
        let primary = config.primary(View::ZERO);
        let armed_flush = |cluster: &SyncCluster| {
            cluster
                .armed_timers(primary)
                .into_iter()
                .find(|t| matches!(t, Timer::BatchFlush { .. }))
        };

        cluster.submit(ClientId(0), b"a".to_vec());
        cluster.run_to_quiescence(LIMIT);
        let stale = armed_flush(&cluster).expect("first request arms the flush timer");

        cluster.submit(ClientId(1), b"b".to_vec());
        cluster.submit(ClientId(2), b"c".to_vec());
        cluster.run_to_quiescence(LIMIT);
        assert_eq!(cluster.replica(primary).executed().len(), 3);
        assert!(
            armed_flush(&cluster).is_none(),
            "size cut cancels the timer"
        );

        cluster.submit(ClientId(3), b"d".to_vec());
        cluster.run_to_quiescence(LIMIT);
        let fresh = armed_flush(&cluster).expect("second buffer arms a fresh timer");
        assert_ne!(fresh, stale);
        let now = cluster.now();
        let actions = cluster.replica_mut(primary).on_timer(stale, now);
        assert!(actions.is_empty(), "stale flush produced {actions:?}");
        cluster.run_to_quiescence(LIMIT);
        assert_eq!(
            cluster.replica(primary).executed().len(),
            3,
            "second batch flushed before its delay elapsed"
        );
        assert_eq!(
            cluster.replica(primary).metrics().batch.stale_timer_fires,
            1
        );

        assert!(cluster.fire_timer(primary, fresh));
        cluster.run_to_quiescence(LIMIT);
        assert_eq!(cluster.replica(primary).executed().len(), 4);
        assert_eq!(cluster.client(ClientId(3)).completed().len(), 1);
    }

    #[test]
    fn bft_checkpoints_reach_stability_via_quorum() {
        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(22, config.network_size, 1);
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            cluster.add_replica(Box::new(BftReplica::new(
                replica,
                config,
                ProtocolConfig::with_checkpoint_period(2),
                keystore.clone(),
                Box::new(KvStore::new()),
            )));
        }
        cluster.add_client(BaselineClient::new(
            ClientId(0),
            config,
            keystore,
            Duration::from_millis(100),
        ));
        for i in 0..6 {
            cluster.submit(ClientId(0), format!("op{i}").into_bytes());
            cluster.run_to_quiescence(LIMIT);
        }
        for replica in config.replicas() {
            assert!(
                cluster.replica(replica).metrics().stable_checkpoints >= 1,
                "{replica} never stabilized a checkpoint"
            );
        }
    }
}
