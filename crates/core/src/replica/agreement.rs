//! Normal-case agreement handlers for the three SeeMoRe modes
//! (Sections 5.1–5.3 of the paper), generalized to order [`Batch`]es.
//!
//! The unit of agreement is a batch: the primary accumulates pending client
//! requests under the configured [`BatchPolicy`](crate::config::BatchPolicy)
//! (static knobs or the adaptive AIMD controller — see [`crate::batching`])
//! and assigns one sequence number to the whole batch, so one proposal
//! broadcast, one round of votes and one commit order every request it
//! carries. An effective batch cap of 1 degenerates to classic
//! one-request-per-slot agreement. The primary feeds its in-flight slot
//! count (proposed but not yet executed) to the controller at every cut;
//! that occupancy is the load signal the adaptive policy grows on.

use super::SeeMoReReplica;
use crate::actions::{Action, Timer};
use crate::log::Proposal;
use seemore_crypto::{Digest, Signature};
use seemore_telemetry::EventKind;
use seemore_types::{Instant, Mode, NodeId, ProtocolViolation, ReplicaId, SeqNum, View};
use seemore_wire::{
    Accept, Batch, ClientRequest, Commit, Inform, Message, PbftPrepare, PrePrepare, Prepare,
    SignedPayload,
};

impl SeeMoReReplica {
    // ------------------------------------------------------------------
    // Primary: batching and proposing
    // ------------------------------------------------------------------

    /// Offers `request` to the batching controller, proposing immediately
    /// when the policy says so (always, when the effective cap is 1).
    pub(crate) fn buffer_or_propose(
        &mut self,
        actions: &mut Vec<Action>,
        request: ClientRequest,
        now: Instant,
    ) {
        if let Some(batch) = self.chassis.admit_request(actions, request, now) {
            self.propose_batch(actions, batch, now);
        }
    }

    /// The batch flush timer of `generation` fired: propose whatever is
    /// buffered, provided the generation is still current. A replica that
    /// was deposed while buffering re-routes its buffer to the current
    /// primary instead, so no request is stranded.
    pub(crate) fn on_batch_flush(&mut self, generation: u64, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.chassis.flush_timer_is_current(generation) {
            return actions;
        }
        if self.chassis.in_view_change() {
            // Keep buffering: the buffer is re-routed when the new view is
            // installed (see `on_installed`).
            return actions;
        }
        if self.is_primary() {
            if let Some(batch) = self.chassis.cut_on_flush_timer(generation) {
                self.propose_batch(&mut actions, batch, now);
            }
        } else {
            for request in self.chassis.batcher.drain(&mut actions) {
                self.forward_to_primary(&mut actions, request);
            }
        }
        actions
    }

    /// Assigns a sequence number to `batch` and broadcasts the proposal
    /// (a `PREPARE` in Lion/Dog, a `PRE-PREPARE` in Peacock). The slot's
    /// read-lease anchor is recorded as the send time *minus the batching
    /// delay bound*: a member request may have sat in the buffer for up to
    /// `max_delay` after arming a backup's suspicion timer via forwarding,
    /// and the lease derived from this slot must not outlive a deposal that
    /// timer could trigger.
    pub(crate) fn propose_batch(&mut self, actions: &mut Vec<Action>, batch: Batch, now: Instant) {
        let Some(seq) = self.chassis.assign_slot(&batch) else {
            return;
        };
        if self.chassis.mode.has_trusted_primary() {
            self.chassis.anchor_read_lease(seq, now);
        }
        let digest = batch.digest();

        match self.chassis.mode {
            Mode::Lion | Mode::Dog => {
                let mut prepare = Prepare {
                    view: self.chassis.view,
                    seq,
                    digest,
                    batch: batch.clone(),
                    signature: Signature::INVALID,
                };
                prepare.signature = self.signing.sign(&prepare);
                let instance = self.chassis.log.instance_mut(seq);
                instance.proposal = Some(Proposal {
                    view: self.chassis.view,
                    digest,
                    batch,
                    primary_signature: prepare.signature,
                });
                self.chassis.broadcast(actions, Message::Prepare(prepare));
            }
            Mode::Peacock => {
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
                // The paper: the Peacock primary multicasts the pre-prepare
                // (with the batch) to *all* nodes, not only the proxies.
                self.chassis
                    .broadcast(actions, Message::PrePrepare(preprepare));
                // Arm a progress timer on the primary too, so a stalled
                // quorum is detected even if backups are slow.
                self.chassis.progress_armed.insert(seq, self.chassis.view);
                actions.push(Action::SetTimer {
                    timer: Timer::RequestProgress { seq },
                    after: self.chassis.pconfig.request_timeout,
                });
            }
        }
    }

    // ------------------------------------------------------------------
    // Proposal validation shared by PREPARE and PRE-PREPARE
    // ------------------------------------------------------------------

    /// Validates a batch proposal received from the network. On success the
    /// proposal's batch is moved into the log and `true` is returned.
    ///
    /// The primary's signature is checked over `proposal`'s canonical
    /// signing bytes, built through the replica's scratch buffer. In
    /// Peacock, whose primary is untrusted, every member request must also
    /// pass the validity rule ([`SigningContext::forged_request`]) before
    /// this replica votes for or executes the batch.
    ///
    /// [`SigningContext::forged_request`]: crate::chassis::SigningContext::forged_request
    fn accept_proposal(
        &mut self,
        actions: &mut Vec<Action>,
        from: NodeId,
        proposal: impl Proposed,
    ) -> bool {
        let (view, seq, digest, signature) = proposal.header();
        let Some(sender) = from.as_replica() else {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender: ReplicaId(u32::MAX),
                expected_role: "primary replica",
            }));
            return false;
        };
        if self.chassis.in_view_change() {
            return false;
        }
        if view != self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: view,
                expected: self.chassis.view,
            }));
            return false;
        }
        if sender != self.current_primary() {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "current primary",
            }));
            return false;
        }
        if !self
            .signing
            .verify_once(NodeId::Replica(sender), &proposal, &signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return false;
        }
        // The advertised digest must bind exactly the carried batch (content
        // *and* order), so a Byzantine primary cannot smuggle different
        // request orders past the quorum-matching digest.
        if digest != proposal.batch().digest() {
            actions.push(
                self.chassis
                    .violation(ProtocolViolation::DigestMismatch { seq: Some(seq) }),
            );
            return false;
        }
        if self.chassis.mode == Mode::Peacock {
            if let Some(forged) = self.signing.forged_request(proposal.batch()) {
                let claimed_signer = NodeId::Client(forged.client());
                actions.push(
                    self.chassis
                        .violation(ProtocolViolation::BadSignature { claimed_signer }),
                );
                return false;
            }
        }
        if !self
            .chassis
            .log
            .in_window(seq, self.chassis.pconfig.high_water_mark)
        {
            actions.push(self.chassis.violation(ProtocolViolation::OutsideWindow {
                seq,
                low: self.chassis.log.low_mark(),
                high: SeqNum(self.chassis.log.low_mark().0 + self.chassis.pconfig.high_water_mark),
            }));
            return false;
        }
        let instance = self.chassis.log.instance_mut(seq);
        if let Some(existing) = &instance.proposal {
            if existing.view == view && existing.digest != digest {
                // The primary proposed two different batches for the same
                // sequence number. A trusted primary never does this; an
                // untrusted (Peacock) primary doing it is Byzantine.
                actions.push(
                    self.chassis
                        .violation(ProtocolViolation::Equivocation { seq, view }),
                );
                return false;
            }
            if existing.view == view && existing.digest == digest {
                // Duplicate delivery; already stored.
                return true;
            }
        }
        instance.proposal = Some(Proposal {
            view,
            digest,
            batch: proposal.into_batch(),
            primary_signature: signature,
        });
        true
    }

    // ------------------------------------------------------------------
    // PREPARE (Lion and Dog modes)
    // ------------------------------------------------------------------

    /// Handles the trusted primary's `PREPARE`.
    pub(crate) fn on_prepare(
        &mut self,
        from: NodeId,
        prepare: Prepare,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.chassis.mode == Mode::Peacock {
            actions.push(self.chassis.violation(ProtocolViolation::WrongMode {
                current: self.chassis.mode,
            }));
            return actions;
        }
        let (seq, digest) = (prepare.seq, prepare.digest);
        if !self.accept_proposal(&mut actions, from, prepare) {
            return actions;
        }

        match self.chassis.mode {
            Mode::Lion => {
                // Every backup votes directly to the trusted primary; the
                // vote needs no signature because only the primary uses it.
                let accept = Accept {
                    view: self.chassis.view,
                    seq,
                    digest,
                    replica: self.chassis.id,
                    signature: None,
                };
                let primary = self.current_primary();
                self.chassis.send(
                    &mut actions,
                    NodeId::Replica(primary),
                    Message::Accept(accept),
                );
                self.chassis.progress_armed.insert(seq, self.chassis.view);
                actions.push(Action::SetTimer {
                    timer: Timer::RequestProgress { seq },
                    after: self.chassis.pconfig.request_timeout,
                });
            }
            Mode::Dog => {
                if self.is_proxy() {
                    // Proxies exchange *signed* accepts with each other; the
                    // signatures double as view-change evidence.
                    let mut accept = Accept {
                        view: self.chassis.view,
                        seq,
                        digest,
                        replica: self.chassis.id,
                        signature: None,
                    };
                    accept.signature = Some(self.signing.sign(&accept));
                    // Record our own vote before broadcasting.
                    self.chassis
                        .log
                        .instance_mut(seq)
                        .record_accept(self.chassis.id, digest);
                    let proxies = self.current_proxies();
                    self.chassis
                        .broadcast_to(&mut actions, proxies, Message::Accept(accept));
                    self.chassis.progress_armed.insert(seq, self.chassis.view);
                    actions.push(Action::SetTimer {
                        timer: Timer::RequestProgress { seq },
                        after: self.chassis.pconfig.request_timeout,
                    });
                    self.try_commit_dog(&mut actions, seq, digest, now);
                }
                // Passive replicas just hold the proposal and wait for
                // INFORM messages; they might already have enough.
                self.try_execute_informed(&mut actions, seq, now);
            }
            Mode::Peacock => unreachable!("handled above"),
        }
        actions
    }

    // ------------------------------------------------------------------
    // PRE-PREPARE (Peacock mode)
    // ------------------------------------------------------------------

    /// Handles the untrusted primary's `PRE-PREPARE`.
    pub(crate) fn on_pre_prepare(
        &mut self,
        from: NodeId,
        preprepare: PrePrepare,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.chassis.mode != Mode::Peacock {
            actions.push(self.chassis.violation(ProtocolViolation::WrongMode {
                current: self.chassis.mode,
            }));
            return actions;
        }
        let (seq, digest) = (preprepare.seq, preprepare.digest);
        if !self.accept_proposal(&mut actions, from, preprepare) {
            return actions;
        }

        if self.is_proxy() && !self.is_primary() {
            let mut vote = PbftPrepare {
                view: self.chassis.view,
                seq,
                digest,
                replica: self.chassis.id,
                signature: Signature::INVALID,
            };
            vote.signature = self.signing.sign(&vote);
            self.chassis
                .log
                .instance_mut(seq)
                .record_pbft_prepare(self.chassis.id, digest);
            let proxies = self.current_proxies();
            self.chassis
                .broadcast_to(&mut actions, proxies, Message::PbftPrepare(vote));
            self.chassis.progress_armed.insert(seq, self.chassis.view);
            actions.push(Action::SetTimer {
                timer: Timer::RequestProgress { seq },
                after: self.chassis.pconfig.request_timeout,
            });
            self.try_prepare_peacock(&mut actions, seq, digest, now);
        }
        // Passive replicas hold the proposal for later INFORM matching.
        self.try_execute_informed(&mut actions, seq, now);
        actions
    }

    // ------------------------------------------------------------------
    // ACCEPT (Lion: primary collects; Dog: proxies collect)
    // ------------------------------------------------------------------

    /// Handles an `ACCEPT` vote.
    pub(crate) fn on_accept(&mut self, from: NodeId, accept: Accept, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if sender != accept.replica {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "the replica named in the vote",
            }));
            return actions;
        }
        if accept.view != self.chassis.view || self.chassis.in_view_change() {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: accept.view,
                expected: self.chassis.view,
            }));
            return actions;
        }

        match self.chassis.mode {
            Mode::Lion => {
                if !self.is_primary() {
                    return actions; // only the primary consumes Lion accepts
                }
                self.note_vote_digest(accept.seq, accept.view, &accept.digest);
                let instance = self.chassis.log.instance_mut(accept.seq);
                if !instance.proposal_matches(accept.view, &accept.digest) {
                    return actions;
                }
                instance.record_accept(sender, accept.digest);
                self.try_commit_lion(&mut actions, accept.seq, accept.digest, now);
            }
            Mode::Dog => {
                if !self.is_proxy() {
                    return actions;
                }
                // Dog accepts must be signed by the voting proxy.
                let Some(signature) = accept.signature else {
                    actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                        claimed_signer: NodeId::Replica(sender),
                    }));
                    return actions;
                };
                if !self.cluster.is_proxy(sender, self.chassis.view)
                    || !self
                        .signing
                        .verify_once(NodeId::Replica(sender), &accept, &signature)
                {
                    actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                        claimed_signer: NodeId::Replica(sender),
                    }));
                    return actions;
                }
                self.note_vote_digest(accept.seq, accept.view, &accept.digest);
                self.chassis
                    .log
                    .instance_mut(accept.seq)
                    .record_accept(sender, accept.digest);
                self.try_commit_dog(&mut actions, accept.seq, accept.digest, now);
            }
            Mode::Peacock => {
                actions.push(self.chassis.violation(ProtocolViolation::WrongMode {
                    current: self.chassis.mode,
                }));
            }
        }
        actions
    }

    /// Lion primary: commit once `2m + c` accepts (plus its own proposal)
    /// are in.
    fn try_commit_lion(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
        now: Instant,
    ) {
        let threshold = self.cluster.lion_accept_threshold() as usize;
        let instance = self.chassis.log.instance_mut(seq);
        let votes = instance.matching_accepts(&digest);
        if instance.commit_sent || votes < threshold {
            return;
        }
        let Some(proposal) = instance.proposal.clone() else {
            return;
        };
        instance.commit_sent = true;
        instance.committed = true;
        self.chassis
            .trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.chassis.trace(EventKind::Committed, Some(seq), None, 0);
        // An accept quorum of the current view followed this primary:
        // extend the read lease, anchored at the slot's *propose* time (not
        // at evidence arrival, which a delayed network could abuse).
        self.chassis.extend_read_lease(seq);

        let mut commit = Commit {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            // The Lion primary attaches the batch so a replica that missed
            // the PREPARE can still execute.
            batch: Some(proposal.batch.clone()),
            signature: Signature::INVALID,
        };
        commit.signature = self.signing.sign(&commit);
        self.chassis.broadcast(actions, Message::Commit(commit));

        self.chassis.metrics.committed += 1;
        self.chassis.exec.add_committed(seq, proposal.batch);
        self.execute_ready(actions, now);
    }

    /// Dog proxy: commit once `2m + 1` matching accepts (including its own)
    /// are in.
    fn try_commit_dog(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
        now: Instant,
    ) {
        let threshold = self.cluster.proxy_quorum() as usize;
        let instance = self.chassis.log.instance_mut(seq);
        let votes = instance.matching_accepts(&digest);
        if instance.commit_sent || votes < threshold {
            return;
        }
        if !instance.proposal_matches(self.chassis.view, &digest) {
            return;
        }
        instance.commit_sent = true;
        self.chassis
            .trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.broadcast_commit_vote(actions, seq, digest);
        self.mark_committed_by_proxy(actions, seq, digest, now);
    }

    // ------------------------------------------------------------------
    // PBFT-PREPARE (Peacock mode)
    // ------------------------------------------------------------------

    /// Handles a PBFT-style `PREPARE` vote (Peacock proxies only).
    pub(crate) fn on_pbft_prepare(
        &mut self,
        from: NodeId,
        vote: PbftPrepare,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.chassis.mode != Mode::Peacock || !self.is_proxy() {
            return actions;
        }
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if vote.view != self.chassis.view || self.chassis.in_view_change() {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: vote.view,
                expected: self.chassis.view,
            }));
            return actions;
        }
        if sender != vote.replica
            || !self.cluster.is_proxy(sender, self.chassis.view)
            || !self
                .signing
                .verify_once(NodeId::Replica(sender), &vote, &vote.signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(vote.replica),
            }));
            return actions;
        }
        self.note_vote_digest(vote.seq, vote.view, &vote.digest);
        self.chassis
            .log
            .instance_mut(vote.seq)
            .record_pbft_prepare(sender, vote.digest);
        self.try_prepare_peacock(&mut actions, vote.seq, vote.digest, now);
        actions
    }

    /// Peacock proxy: once the proposal plus `2m` matching prepare votes are
    /// in, the batch is *prepared* and the proxy broadcasts its commit vote.
    fn try_prepare_peacock(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
        now: Instant,
    ) {
        let threshold = 2 * self.cluster.byzantine_bound() as usize;
        let instance = self.chassis.log.instance_mut(seq);
        if instance.prepared
            || !instance.proposal_matches(self.chassis.view, &digest)
            || instance
                .pbft_prepares
                .values()
                .filter(|d| **d == digest)
                .count()
                < threshold
        {
            return;
        }
        instance.prepared = true;
        instance.record_commit(self.chassis.id, digest);
        // Advance the prepared frontier that fences this proxy's fast-path
        // reads (see `ReadRule::Prepared`).
        self.chassis.reads.note_prepared(seq);
        self.broadcast_commit_vote(actions, seq, digest);
        self.try_commit_peacock(actions, seq, digest, now);
    }

    /// Broadcasts this proxy's `COMMIT` vote to the other proxies.
    fn broadcast_commit_vote(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
    ) {
        let mut commit = Commit {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            batch: None,
            signature: Signature::INVALID,
        };
        commit.signature = self.signing.sign(&commit);
        let proxies = self.current_proxies();
        self.chassis
            .broadcast_to(actions, proxies, Message::Commit(commit));
    }

    // ------------------------------------------------------------------
    // COMMIT
    // ------------------------------------------------------------------

    /// Handles a `COMMIT`: either the Lion primary's commit announcement or
    /// a proxy commit vote (Dog / Peacock).
    pub(crate) fn on_commit(&mut self, from: NodeId, commit: Commit, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if sender != commit.replica {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "the replica named in the commit",
            }));
            return actions;
        }
        if commit.view != self.chassis.view || self.chassis.in_view_change() {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: commit.view,
                expected: self.chassis.view,
            }));
            return actions;
        }
        if !self
            .signing
            .verify_once(NodeId::Replica(sender), &commit, &commit.signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return actions;
        }

        match self.chassis.mode {
            Mode::Lion => {
                // Only the trusted primary's commit counts.
                if sender != self.current_primary() {
                    actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                        sender,
                        expected_role: "current primary",
                    }));
                    return actions;
                }
                let instance = self.chassis.log.instance_mut(commit.seq);
                if instance.committed {
                    return actions;
                }
                instance.committed = true;
                // Prefer the attached batch (validated against the signed
                // digest); fall back to the stored proposal if the primary
                // elided it.
                let batch = commit
                    .batch
                    .filter(|batch| batch.digest() == commit.digest)
                    .or_else(|| instance.proposal.as_ref().map(|p| p.batch.clone()));
                self.chassis
                    .trace(EventKind::Committed, Some(commit.seq), None, 0);
                if let Some(batch) = batch {
                    self.chassis.metrics.committed += 1;
                    self.chassis.exec.add_committed(commit.seq, batch);
                    self.execute_ready(&mut actions, now);
                } else {
                    // We cannot execute without the batch; fetch state.
                    self.chassis.request_state(&mut actions, [sender]);
                }
            }
            Mode::Dog | Mode::Peacock => {
                if !self.is_proxy() || !self.cluster.is_proxy(sender, self.chassis.view) {
                    return actions;
                }
                self.note_vote_digest(commit.seq, commit.view, &commit.digest);
                self.chassis
                    .log
                    .instance_mut(commit.seq)
                    .record_commit(sender, commit.digest);
                match self.chassis.mode {
                    // A lagging Dog proxy adopts the commit once m+1 proxies
                    // vouch for it (at least one of them is honest).
                    Mode::Dog => {
                        let threshold = self.cluster.byzantine_bound() as usize + 1;
                        let instance = self.chassis.log.instance_mut(commit.seq);
                        if !instance.committed
                            && instance.matching_commits(&commit.digest) >= threshold
                            && instance.proposal_matches(self.chassis.view, &commit.digest)
                        {
                            self.mark_committed_by_proxy(
                                &mut actions,
                                commit.seq,
                                commit.digest,
                                now,
                            );
                        }
                    }
                    Mode::Peacock => {
                        self.try_commit_peacock(&mut actions, commit.seq, commit.digest, now);
                    }
                    Mode::Lion => unreachable!(),
                }
            }
        }
        actions
    }

    /// Peacock proxy: committed once `2m + 1` matching commit votes
    /// (including its own) are in.
    fn try_commit_peacock(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
        now: Instant,
    ) {
        let threshold = self.cluster.proxy_quorum() as usize;
        let instance = self.chassis.log.instance_mut(seq);
        let votes = instance.matching_commits(&digest);
        if instance.committed
            || !instance.prepared
            || !instance.proposal_matches(self.chassis.view, &digest)
            || votes < threshold
        {
            return;
        }
        self.chassis
            .trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.mark_committed_by_proxy(actions, seq, digest, now);
    }

    /// Common tail for proxies (Dog / Peacock): mark committed, inform the
    /// passive replicas, execute and reply.
    fn mark_committed_by_proxy(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: seemore_crypto::Digest,
        now: Instant,
    ) {
        let instance = self.chassis.log.instance_mut(seq);
        if instance.committed {
            return;
        }
        instance.committed = true;
        let batch = instance.proposal.as_ref().map(|p| p.batch.clone());
        let send_inform = !instance.inform_sent;
        instance.inform_sent = true;
        self.chassis.trace(EventKind::Committed, Some(seq), None, 0);

        if send_inform {
            let mut inform = Inform {
                view: self.chassis.view,
                seq,
                digest,
                replica: self.chassis.id,
                signature: Signature::INVALID,
            };
            inform.signature = self.signing.sign(&inform);
            let passive = self.passive_replicas();
            self.chassis
                .broadcast_to(actions, passive, Message::Inform(inform));
        }

        if let Some(batch) = batch {
            self.chassis.metrics.committed += 1;
            self.chassis.exec.add_committed(seq, batch);
            self.execute_ready(actions, now);
        }
        actions.push(Action::CancelTimer {
            timer: Timer::RequestProgress { seq },
        });
    }

    // ------------------------------------------------------------------
    // INFORM (passive replicas in Dog / Peacock)
    // ------------------------------------------------------------------

    /// Handles an `INFORM` notification from a proxy.
    pub(crate) fn on_inform(&mut self, from: NodeId, inform: Inform, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.chassis.mode == Mode::Lion {
            actions.push(self.chassis.violation(ProtocolViolation::WrongMode {
                current: self.chassis.mode,
            }));
            return actions;
        }
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if inform.view != self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: inform.view,
                expected: self.chassis.view,
            }));
            return actions;
        }
        if sender != inform.replica
            || !self.cluster.is_proxy(sender, self.chassis.view)
            || !self
                .signing
                .verify_once(NodeId::Replica(sender), &inform, &inform.signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(inform.replica),
            }));
            return actions;
        }
        self.chassis
            .log
            .instance_mut(inform.seq)
            .record_inform(sender, inform.digest);
        self.try_execute_informed(&mut actions, inform.seq, now);
        actions
    }

    /// Passive replica: execute once enough matching informs have arrived
    /// and the batch itself is known (from the primary's proposal).
    pub(crate) fn try_execute_informed(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        now: Instant,
    ) {
        if self.is_agreement_participant() {
            return;
        }
        let threshold = self.cluster.inform_threshold(self.chassis.mode) as usize;
        let instance = self.chassis.log.instance_mut(seq);
        if instance.committed {
            return;
        }
        let Some(proposal) = instance.proposal.clone() else {
            // We know the batch committed but never saw the proposal; ask a
            // proxy that informed us for the state.
            if instance.informs.len() >= threshold {
                if let Some(&proxy) = instance.informs.keys().next() {
                    self.chassis.request_state(actions, [proxy]);
                }
            }
            return;
        };
        let matching = instance
            .informs
            .values()
            .filter(|d| **d == proposal.digest)
            .count();
        if matching < threshold {
            return;
        }
        instance.committed = true;
        self.chassis.metrics.committed += 1;
        self.chassis.trace(EventKind::Committed, Some(seq), None, 0);
        // A Dog primary learns through an inform quorum (>= m+1 honest
        // proxies) that the current view is still committing its proposals:
        // extend the read lease, anchored at the slot's propose time.
        if self.chassis.mode == Mode::Dog && self.is_primary() {
            self.chassis.extend_read_lease(seq);
        }
        self.chassis.exec.add_committed(seq, proposal.batch);
        self.execute_ready(actions, now);
    }

    /// Compares an incoming vote's digest against the proposal this replica
    /// accepted for `seq` in `view`, counting a disagreement as a
    /// vote-mismatch signal (a conflicting vote can only come from a replica
    /// that is lagging, partitioned — or lying). Purely observational: the
    /// vote is still recorded and judged by the normal quorum rules.
    pub(crate) fn note_vote_digest(
        &mut self,
        seq: SeqNum,
        view: View,
        digest: &seemore_crypto::Digest,
    ) {
        let mismatch = self
            .chassis
            .log
            .instance_mut(seq)
            .proposal
            .as_ref()
            .is_some_and(|p| p.view == view && p.digest != *digest);
        if mismatch {
            self.chassis.metrics.vote_mismatches += 1;
            self.chassis
                .trace(EventKind::VoteMismatch, Some(seq), None, 0);
        }
    }
}

/// A batch proposal as it arrives: the trusted primary's `PREPARE` or the
/// untrusted primary's `PRE-PREPARE`, handed to `accept_proposal` by value,
/// so the batch its checks hashed moves into the log with its request
/// digests filled instead of being copied.
trait Proposed: SignedPayload {
    /// The signed `(view, seq, digest)` and the primary's signature.
    fn header(&self) -> (View, SeqNum, Digest, Signature);
    /// The proposed batch.
    fn batch(&self) -> &Batch;
    /// The proposed batch, moved out.
    fn into_batch(self) -> Batch;
}

impl Proposed for Prepare {
    fn header(&self) -> (View, SeqNum, Digest, Signature) {
        (self.view, self.seq, self.digest, self.signature)
    }
    fn batch(&self) -> &Batch {
        &self.batch
    }
    fn into_batch(self) -> Batch {
        self.batch
    }
}

impl Proposed for PrePrepare {
    fn header(&self) -> (View, SeqNum, Digest, Signature) {
        (self.view, self.seq, self.digest, self.signature)
    }
    fn batch(&self) -> &Batch {
        &self.batch
    }
    fn into_batch(self) -> Batch {
        self.batch
    }
}
