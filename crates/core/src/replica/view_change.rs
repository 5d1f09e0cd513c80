//! View changes, new-view installation and dynamic mode switching
//! (Sections 5.1–5.4 of the paper).

use super::SeeMoReReplica;
use crate::actions::{Action, Timer};
use crate::chassis::{noop_request, NOOP_CLIENT};
use crate::log::Proposal;
use crate::protocol::ReplicaProtocol;
use seemore_crypto::Signature;
use seemore_telemetry::EventKind;
use seemore_types::{
    ClusterConfig, Instant, Mode, NodeId, ProtocolViolation, ReplicaId, RequestId, SeqNum, View,
};
use seemore_wire::{
    Accept, Batch, ClientRequest, CommitCert, Message, ModeChange, NewView, PbftPrepare,
    PrepareCert, ViewChange,
};

/// The trusted replica that is allowed to announce a switch to `mode`
/// starting at `new_view`: the new primary for Lion/Dog, the transferer for
/// Peacock (Section 5.4).
pub fn mode_switch_announcer(
    cluster: &ClusterConfig,
    new_view: View,
    mode: Mode,
) -> Option<ReplicaId> {
    match mode {
        Mode::Lion | Mode::Dog => cluster.primary(mode, new_view).ok(),
        Mode::Peacock => cluster.transferer(new_view).ok(),
    }
}

impl SeeMoReReplica {
    /// The mode the *next* view will run in (the pending switch target, if
    /// any, otherwise the current mode).
    pub(crate) fn effective_next_mode(&self) -> Mode {
        self.pending_mode.unwrap_or(self.chassis.mode)
    }

    /// The replica that collects `VIEW-CHANGE` messages and emits the
    /// `NEW-VIEW` for `(view, mode)`: the new primary in Lion/Dog, the
    /// trusted transferer in Peacock.
    pub(crate) fn new_view_collector(&self, view: View, mode: Mode) -> Option<ReplicaId> {
        match mode {
            Mode::Lion | Mode::Dog => self.cluster.primary(mode, view).ok(),
            Mode::Peacock => self.cluster.transferer(view).ok(),
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// A request we learned about never committed: suspect the primary.
    pub(crate) fn on_progress_timeout(&mut self, seq: SeqNum, now: Instant) -> Vec<Action> {
        let committed = self
            .chassis
            .log
            .instance(seq)
            .map(|instance| instance.committed)
            .unwrap_or(seq <= self.chassis.exec.last_executed());
        if committed || self.vc.in_view_change {
            return Vec::new();
        }
        // If a newer view was installed after this timer was armed, or the
        // system is visibly making progress, give the primary another full
        // timeout before suspecting it.
        let armed_view = self
            .chassis
            .progress_armed
            .get(&seq)
            .copied()
            .unwrap_or(View::ZERO);
        if armed_view < self.chassis.view || self.recent_progress(now) {
            self.chassis.progress_armed.insert(seq, self.chassis.view);
            return vec![Action::SetTimer {
                timer: Timer::RequestProgress { seq },
                after: self.chassis.pconfig.request_timeout,
            }];
        }
        self.suspect_primary(now)
    }

    /// Whether commit progress was observed within the last suspicion
    /// timeout (used to damp spurious view changes while the primary is
    /// healthy but busy).
    fn recent_progress(&self, now: Instant) -> bool {
        now.duration_since(self.last_progress) < self.chassis.pconfig.request_timeout
            && self.last_progress > Instant::ZERO
    }

    /// A request we forwarded to the primary was never executed.
    pub(crate) fn on_forwarded_timeout(&mut self, request: RequestId, now: Instant) -> Vec<Action> {
        let executed = self
            .chassis
            .exec
            .cached_reply(request.client, request.timestamp)
            .is_some();
        if executed || self.vc.in_view_change {
            return Vec::new();
        }
        // Same grace period as progress timers: a freshly installed primary
        // gets a full timeout (and the request is re-forwarded to it), and a
        // primary that is visibly committing other requests is not deposed.
        let armed_view = self
            .chassis
            .forwarded_armed
            .get(&request)
            .copied()
            .unwrap_or(View::ZERO);
        if armed_view < self.chassis.view || self.recent_progress(now) {
            self.chassis
                .forwarded_armed
                .insert(request, self.chassis.view);
            let mut actions = Vec::new();
            // Re-forward the buffered request to the *current* primary so it
            // does not depend on the client noticing the view change.
            if let Some(buffered) = self.forwarded_requests.get(&request).cloned() {
                if !self.is_primary() {
                    let primary = self.current_primary();
                    self.chassis.send(
                        &mut actions,
                        NodeId::Replica(primary),
                        Message::Request(buffered),
                    );
                } else {
                    actions.extend(self.on_message(
                        NodeId::Replica(self.chassis.id),
                        Message::Request(buffered),
                        now,
                    ));
                }
            }
            actions.push(Action::SetTimer {
                timer: Timer::ForwardedRequest { request },
                after: self.chassis.pconfig.request_timeout,
            });
            return actions;
        }
        self.suspect_primary(now)
    }

    /// No `NEW-VIEW` arrived for the view we voted for: escalate.
    pub(crate) fn on_view_change_timeout(&mut self, view: View, now: Instant) -> Vec<Action> {
        if !self.vc.in_view_change || self.chassis.view >= view {
            return Vec::new();
        }
        let mode = self.effective_next_mode();
        self.start_view_change(view.next(), mode, now)
    }

    fn suspect_primary(&mut self, now: Instant) -> Vec<Action> {
        let mode = self.effective_next_mode();
        if !self.is_view_change_voter(mode) {
            return Vec::new();
        }
        self.chassis.trace(
            EventKind::SuspicionFired,
            None,
            None,
            u64::from(self.current_primary().0),
        );
        self.start_view_change(self.chassis.view.next(), mode, now)
    }

    // ------------------------------------------------------------------
    // Sending VIEW-CHANGE
    // ------------------------------------------------------------------

    /// Stops normal-case processing and votes to install `target_view` in
    /// `target_mode`.
    pub(crate) fn start_view_change(
        &mut self,
        target_view: View,
        target_mode: Mode,
        _now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.vc.in_view_change && self.vc.target_view >= target_view {
            return actions;
        }
        self.vc.in_view_change = true;
        self.vc.target_view = target_view;
        self.chassis.metrics.view_changes_started += 1;
        self.chassis
            .trace(EventKind::ViewChangeStart, None, None, target_view.0);
        // Normal-case processing stops: parked fast-path reads can no longer
        // be served under this view's fence, so their clients must fall back
        // to the ordered path.
        self.chassis
            .refuse_parked_reads(&mut actions, Some(&mut self.signing));

        let stable_seq = self.chassis.checkpoints.stable_seq();
        let mut prepares = Vec::new();
        let mut commits = Vec::new();
        for (seq, instance) in self.chassis.log.instances_after(stable_seq) {
            let Some(proposal) = &instance.proposal else {
                continue;
            };
            let cert_batch = Some(proposal.batch.clone());
            if instance.committed && target_mode == Mode::Lion {
                // Only the Lion mode carries commit certificates; Dog and
                // Peacock omit them to keep view-change messages small.
                commits.push(CommitCert {
                    view: proposal.view,
                    seq: *seq,
                    digest: proposal.digest,
                    primary_signature: proposal.primary_signature,
                    batch: cert_batch,
                });
            } else {
                prepares.push(PrepareCert {
                    view: proposal.view,
                    seq: *seq,
                    digest: proposal.digest,
                    primary_signature: proposal.primary_signature,
                    batch: cert_batch,
                });
            }
        }

        let mut view_change = ViewChange {
            new_view: target_view,
            mode: target_mode,
            stable_seq,
            checkpoint_proof: self.chassis.checkpoints.stable_proof().to_vec(),
            prepares,
            commits,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        view_change.signature = self.signing.sign(&view_change);

        // Record our own vote so a collector that is also a voter counts it.
        self.vc
            .received
            .entry(target_view)
            .or_default()
            .insert(self.chassis.id, view_change.clone());

        // Recipients depend on the *target* mode (Section 5.2: in the Dog
        // mode only the public cloud and the next primary are involved).
        let recipients: Vec<ReplicaId> = match target_mode {
            Mode::Lion | Mode::Peacock => self.cluster.replicas().collect(),
            Mode::Dog => {
                let mut set: Vec<ReplicaId> = self.cluster.public_replicas().collect();
                if let Some(primary) = self.new_view_collector(target_view, target_mode) {
                    if !set.contains(&primary) {
                        set.push(primary);
                    }
                }
                set
            }
        };
        self.chassis
            .broadcast_to(&mut actions, recipients, Message::ViewChange(view_change));
        actions.push(Action::SetTimer {
            timer: Timer::ViewChange { view: target_view },
            after: self.chassis.pconfig.view_change_timeout,
        });

        // The collector might already hold enough votes (including this one).
        self.try_assemble_new_view(&mut actions, target_view, target_mode, _now);
        actions
    }

    // ------------------------------------------------------------------
    // Receiving VIEW-CHANGE
    // ------------------------------------------------------------------

    /// Handles a `VIEW-CHANGE` vote from another replica.
    pub(crate) fn on_view_change(
        &mut self,
        from: NodeId,
        view_change: ViewChange,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if sender != view_change.replica
            || !self.signing.verify_once(
                NodeId::Replica(sender),
                &view_change,
                &view_change.signature,
            )
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(view_change.replica),
            }));
            return actions;
        }
        if view_change.new_view <= self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: view_change.new_view,
                expected: self.chassis.view.next(),
            }));
            return actions;
        }
        let target_view = view_change.new_view;
        let target_mode = view_change.mode;
        self.vc
            .received
            .entry(target_view)
            .or_default()
            .insert(sender, view_change);

        // Liveness rule: if more than `m` replicas already voted for a newer
        // view, join them even if our own timer has not fired yet (a correct
        // replica must be among them).
        let votes = self
            .vc
            .received
            .get(&target_view)
            .map(|v| v.len())
            .unwrap_or(0);
        if !self.vc.in_view_change
            && votes > self.cluster.byzantine_bound() as usize
            && self.is_view_change_voter(target_mode)
        {
            actions.extend(self.start_view_change(target_view, target_mode, now));
        }

        self.try_assemble_new_view(&mut actions, target_view, target_mode, now);
        actions
    }

    /// If this replica is the collector for `(view, mode)` and holds enough
    /// votes, build and broadcast the `NEW-VIEW`.
    fn try_assemble_new_view(
        &mut self,
        actions: &mut Vec<Action>,
        view: View,
        mode: Mode,
        now: Instant,
    ) {
        if self.new_view_collector(view, mode) != Some(self.chassis.id) {
            return;
        }
        if self.vc.new_view_sent.contains(&view) || view <= self.chassis.view {
            return;
        }
        let threshold = self.cluster.view_change_threshold(mode) as usize;
        let Some(votes) = self.vc.received.get(&view) else {
            return;
        };
        let votes_from_others = votes.keys().filter(|r| **r != self.chassis.id).count();
        if votes_from_others < threshold {
            return;
        }
        self.vc.new_view_sent.push(view);

        let votes: Vec<ViewChange> = votes.values().cloned().collect();
        let new_view = self.build_new_view(view, mode, &votes);
        self.chassis
            .broadcast(actions, Message::NewView(new_view.clone()));
        self.install_new_view(actions, new_view, now);
    }

    /// Constructs the `NEW-VIEW` message from the received `VIEW-CHANGE`
    /// evidence, following the three rules of Section 5.1.
    fn build_new_view(&mut self, view: View, mode: Mode, votes: &[ViewChange]) -> NewView {
        // Adopt the most recent stable checkpoint among the votes and our own.
        let mut best_checkpoint = self.chassis.checkpoints.stable_proof().first().cloned();
        let mut low = self.chassis.checkpoints.stable_seq();
        for vote in votes {
            if vote.stable_seq > low {
                if let Some(cp) = vote.checkpoint_proof.first() {
                    low = vote.stable_seq;
                    best_checkpoint = Some(cp.clone());
                }
            }
        }

        // Highest sequence number mentioned by any certificate.
        let mut high = low;
        for vote in votes {
            for cert in vote.prepares.iter() {
                high = high.max(cert.seq);
            }
            for cert in vote.commits.iter() {
                high = high.max(cert.seq);
            }
        }

        let lion_commit_threshold = self.cluster.quorum(Mode::Lion).quorum_size as usize;
        let mut prepares_out: Vec<PrepareCert> = Vec::new();
        let mut commits_out: Vec<CommitCert> = Vec::new();

        let mut seq = low.next();
        while seq <= high {
            // Rule 1: any commit certificate wins.
            let committed = votes
                .iter()
                .flat_map(|v| v.commits.iter())
                .find(|c| c.seq == seq && self.validate_cert_batch(c.digest, c.batch.as_ref()));
            // Collect prepare evidence for this sequence number.
            let prepared: Vec<&PrepareCert> = votes
                .iter()
                .flat_map(|v| v.prepares.iter())
                .filter(|p| p.seq == seq && self.validate_cert_batch(p.digest, p.batch.as_ref()))
                .collect();

            if let Some(cert) = committed {
                commits_out.push(CommitCert { ..cert.clone() });
            } else if mode == Mode::Lion && prepared.len() >= lion_commit_threshold {
                // Rule 2a (Lion): a full quorum of prepares proves the
                // batch may have committed; carry it as committed.
                let cert = prepared[0];
                commits_out.push(CommitCert {
                    view: cert.view,
                    seq,
                    digest: cert.digest,
                    primary_signature: cert.primary_signature,
                    batch: cert.batch.clone(),
                });
            } else if let Some(cert) = prepared.first() {
                // Rule 2b: at least one valid prepare; re-propose it.
                prepares_out.push((*cert).clone());
            } else {
                // Rule 3: nobody saw a proposal; fill the gap with a no-op.
                prepares_out.push(self.noop_cert(seq));
            }
            seq = seq.next();
        }

        let mut message = NewView {
            view,
            mode,
            prepares: prepares_out,
            commits: commits_out,
            checkpoint: best_checkpoint,
            view_change_proof: Vec::new(),
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        message.signature = self.signing.sign(&message);
        message
    }

    /// A certificate is only usable if the batch it carries matches its
    /// combined digest (binding membership, content and order) and every
    /// member request carries a valid client signature (or is the internal
    /// no-op). This is what prevents a Byzantine public replica from
    /// smuggling a fabricated or reordered operation through a view change.
    ///
    /// These are quorum-certificate *re-checks*: each member request was
    /// already verified when it first arrived, so with the memo enabled the
    /// second HMAC is skipped.
    fn validate_cert_batch(
        &mut self,
        digest: seemore_crypto::Digest,
        batch: Option<&Batch>,
    ) -> bool {
        let Some(batch) = batch else { return false };
        if batch.digest() != digest {
            return false;
        }
        batch.iter().all(|request| {
            request.client == NOOP_CLIENT
                || self
                    .signing
                    .verify(NodeId::Client(request.client), request, &request.signature)
        })
    }

    /// Builds the no-op filler certificate for a gap sequence number
    /// (the paper's `µ∅`, as a singleton batch).
    fn noop_cert(&self, seq: SeqNum) -> PrepareCert {
        let batch = Batch::single(noop_request(seq));
        PrepareCert {
            view: self.chassis.view,
            seq,
            digest: batch.digest(),
            primary_signature: Signature::INVALID,
            batch: Some(batch),
        }
    }

    // ------------------------------------------------------------------
    // Receiving NEW-VIEW
    // ------------------------------------------------------------------

    /// Handles a `NEW-VIEW` from the new primary (Lion / Dog) or the
    /// transferer (Peacock).
    pub(crate) fn on_new_view(
        &mut self,
        from: NodeId,
        new_view: NewView,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if new_view.view <= self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: new_view.view,
                expected: self.chassis.view.next(),
            }));
            return actions;
        }
        let expected = self.new_view_collector(new_view.view, new_view.mode);
        if Some(sender) != expected || sender != new_view.replica {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "new-view collector (new primary or transferer)",
            }));
            return actions;
        }
        if !self
            .signing
            .verify_once(NodeId::Replica(sender), &new_view, &new_view.signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return actions;
        }
        self.install_new_view(&mut actions, new_view, now);
        actions
    }

    /// Applies a validated `NEW-VIEW`: adopts the view, mode and checkpoint,
    /// replays the carried certificates, and re-enters the normal case.
    fn install_new_view(&mut self, actions: &mut Vec<Action>, new_view: NewView, now: Instant) {
        let old_mode = self.chassis.mode;
        actions.push(Action::CancelTimer {
            timer: Timer::ViewChange {
                view: new_view.view,
            },
        });

        self.chassis.enter_view(new_view.view, new_view.mode);
        if self.pending_mode == Some(new_view.mode) {
            self.pending_mode = None;
        }
        if old_mode != new_view.mode {
            self.chassis.metrics.mode_switches += 1;
            self.chassis
                .checkpoints
                .set_rule(Self::stability_rule_for(new_view.mode, &self.cluster));
            self.chassis.trace(
                EventKind::ModeSwitchDone,
                None,
                None,
                u64::from(new_view.mode.index()),
            );
        }
        self.vc.in_view_change = false;
        self.vc.received.retain(|view, _| *view > new_view.view);
        self.chassis.metrics.view_changes_completed += 1;
        self.chassis
            .trace(EventKind::ViewChangeInstall, None, None, new_view.view.0);
        self.chassis.assigned.clear();
        self.chassis.log.reset_votes_for_new_view();
        // Any read still parked from the previous view is refused. The
        // lease anchors of the dead view went with `enter_view`: a freshly
        // installed trusted primary starts with no lease and earns one from
        // its first committed slot (its propose time is the anchor), so
        // reads arriving before that fall back to the ordered path —
        // conservative, but it avoids granting a lease from evidence whose
        // send times we cannot bound.
        self.chassis
            .refuse_parked_reads(actions, Some(&mut self.signing));

        // Adopt the carried checkpoint if it is ahead of ours.
        if let Some(cp) = &new_view.checkpoint {
            if cp.seq > self.chassis.checkpoints.stable_seq() {
                self.chassis
                    .checkpoints
                    .make_stable(cp.seq, cp.state_digest, vec![cp.clone()]);
                self.chassis.after_stable_checkpoint();
                if self.chassis.exec.last_executed() < cp.seq
                    && self.cluster.is_trusted(new_view.replica)
                {
                    self.request_state_transfer(actions, new_view.replica);
                }
            }
        }

        let mut highest = self
            .chassis
            .checkpoints
            .stable_seq()
            .max(self.chassis.exec.last_executed());

        // Committed certificates: mark committed and execute.
        for cert in &new_view.commits {
            highest = highest.max(cert.seq);
            let instance = self.chassis.log.instance_mut(cert.seq);
            instance.committed = true;
            instance.proposal = Some(Proposal {
                view: new_view.view,
                digest: cert.digest,
                batch: cert
                    .batch
                    .clone()
                    .unwrap_or_else(|| Batch::single(noop_request(cert.seq))),
                primary_signature: cert.primary_signature,
            });
            if let Some(batch) = cert.batch.clone() {
                self.chassis.metrics.committed += 1;
                self.chassis.exec.add_committed(cert.seq, batch);
            }
        }

        // Prepared certificates: adopt as proposals of the new view and vote.
        let i_am_primary = self.current_primary() == self.chassis.id;
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
            }
            match self.chassis.mode {
                Mode::Lion => {
                    if !i_am_primary {
                        let accept = Accept {
                            view: self.chassis.view,
                            seq,
                            digest,
                            replica: self.chassis.id,
                            signature: None,
                        };
                        let primary = self.current_primary();
                        self.chassis.send(
                            actions,
                            NodeId::Replica(primary),
                            Message::Accept(accept),
                        );
                    }
                }
                Mode::Dog => {
                    if self.is_proxy() {
                        let mut accept = Accept {
                            view: self.chassis.view,
                            seq,
                            digest,
                            replica: self.chassis.id,
                            signature: None,
                        };
                        accept.signature = Some(self.signing.sign(&accept));
                        self.chassis
                            .log
                            .instance_mut(seq)
                            .record_accept(self.chassis.id, digest);
                        let proxies = self.current_proxies();
                        self.chassis
                            .broadcast_to(actions, proxies, Message::Accept(accept));
                    }
                }
                Mode::Peacock => {
                    if self.is_proxy() && !i_am_primary {
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
                            .broadcast_to(actions, proxies, Message::PbftPrepare(vote));
                    }
                }
            }
        }

        // The new primary continues sequence numbering above everything the
        // new view carried over.
        self.chassis.next_seq = highest;
        self.execute_ready(actions, now);

        // Requests that were sitting in the (old) primary's batch buffer
        // when the view changed must not be stranded: a prepared-but-never-
        // proposed buffer is re-routed through the normal request paths (and
        // its armed flush timer, if any, is cancelled with it).
        let buffered = self.chassis.batcher.drain(actions);

        if self.current_primary() == self.chassis.id {
            // A newly installed primary immediately proposes the requests
            // that were forwarded to the failed primary (plus its own
            // leftover buffer) but never ordered, so recovery does not wait
            // for client retransmissions (this is what keeps the Figure 4
            // outage short). The pending set is sorted by request identity
            // so recovery batches are deterministic.
            let mut pending: Vec<ClientRequest> = self
                .forwarded_requests
                .values()
                .chain(buffered.iter())
                .filter(|request| {
                    self.chassis
                        .exec
                        .cached_reply(request.client, request.timestamp)
                        .is_none()
                        && !self.chassis.assigned.contains_key(&request.id())
                })
                .cloned()
                .collect();
            pending.sort_by_key(ClientRequest::id);
            pending.dedup_by_key(|request| request.id());
            for request in pending {
                self.buffer_or_propose(actions, request, now);
            }
            // Recovery must not wait out the flush delay: cut the partial
            // batch.
            self.flush_pending_batch(actions, now);
        } else {
            for request in buffered {
                if self
                    .chassis
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_none()
                {
                    self.forward_to_primary(actions, request);
                }
            }
        }

        // A brand-new Lion/Dog primary must also drive the carried-over
        // prepares to commit; its own "vote" is implicit in having proposed
        // them, so nothing further is needed here — accepts from the backups
        // will arrive and the normal-case path takes over.
    }

    // ------------------------------------------------------------------
    // Dynamic mode switching (Section 5.4)
    // ------------------------------------------------------------------

    /// Called on the trusted replica that should announce a switch to
    /// `new_mode`. Returns no actions if this replica is not the legitimate
    /// announcer.
    pub(crate) fn initiate_mode_switch(&mut self, new_mode: Mode, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if new_mode == self.chassis.mode {
            return actions;
        }
        let target_view = self.chassis.view.next();
        let announcer = mode_switch_announcer(&self.cluster, target_view, new_mode);
        if announcer != Some(self.chassis.id) || !self.cluster.is_trusted(self.chassis.id) {
            return actions;
        }
        let mut announcement = ModeChange {
            new_view: target_view,
            new_mode,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        announcement.signature = self.signing.sign(&announcement);
        self.chassis
            .broadcast(&mut actions, Message::ModeChange(announcement.clone()));
        actions.extend(self.apply_mode_change(announcement, now));
        actions
    }

    /// Handles a `MODE-CHANGE` announcement.
    pub(crate) fn on_mode_change(
        &mut self,
        from: NodeId,
        mode_change: ModeChange,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if mode_change.new_view <= self.chassis.view {
            actions.push(self.chassis.violation(ProtocolViolation::WrongView {
                got: mode_change.new_view,
                expected: self.chassis.view.next(),
            }));
            return actions;
        }
        let announcer =
            mode_switch_announcer(&self.cluster, mode_change.new_view, mode_change.new_mode);
        if sender != mode_change.replica
            || announcer != Some(sender)
            || !self.cluster.is_trusted(sender)
        {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender,
                expected_role: "trusted mode-switch announcer",
            }));
            return actions;
        }
        if !self.signing.verify_once(
            NodeId::Replica(sender),
            &mode_change,
            &mode_change.signature,
        ) {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(sender),
            }));
            return actions;
        }
        actions.extend(self.apply_mode_change(mode_change, now));
        actions
    }

    /// Adopts a validated mode-change announcement: remembers the pending
    /// mode and participates in the view change that installs it.
    fn apply_mode_change(&mut self, mode_change: ModeChange, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        self.pending_mode = Some(mode_change.new_mode);
        self.chassis.trace(
            EventKind::ModeSwitchStart,
            None,
            None,
            u64::from(mode_change.new_mode.index()),
        );
        if self.is_view_change_voter(mode_change.new_mode) {
            actions.extend(self.start_view_change(mode_change.new_view, mode_change.new_mode, now));
        } else {
            // Non-voters (private replicas for Dog/Peacock targets) stop
            // normal-case processing and wait for the NEW-VIEW.
            self.vc.in_view_change = true;
            self.vc.target_view = mode_change.new_view;
            self.chassis
                .refuse_parked_reads(&mut actions, Some(&mut self.signing));
            actions.push(Action::SetTimer {
                timer: Timer::ViewChange {
                    view: mode_change.new_view,
                },
                after: self.chassis.pconfig.view_change_timeout,
            });
        }
        actions
    }
}
