//! The crash fault-tolerant baseline: a Multi-Paxos-style, leader-driven
//! protocol over `2f + 1` replicas (the paper's "CFT" line, i.e. the Paxos
//! configuration of BFT-SMaRt).
//!
//! Normal case (two phases, linear messages, no signatures):
//!
//! 1. the client sends its request to the leader,
//! 2. the leader accumulates pending requests under the shared batching
//!    policy, assigns the cut batch a sequence number and broadcasts a
//!    `PREPARE` (with `max_batch = 1` this is one request per slot),
//! 3. backups answer with an `ACCEPT` to the leader,
//! 4. after `f` accepts (plus its own) the leader broadcasts a `COMMIT`,
//!    executes and replies to each client in the batch.
//!
//! View changes follow the same pattern as SeeMoRe's Lion mode but without
//! any cryptographic evidence (crash faults cannot forge messages).

use crate::config::BaselineConfig;
use seemore_app::StateMachine;
use seemore_core::actions::{Action, Timer};
use seemore_core::chassis::{noop_request, Duties, Inbound, ReplicaChassis};
use seemore_core::checkpoint::StabilityRule;
use seemore_core::config::ProtocolConfig;
use seemore_core::exec::ExecutedEntry;
use seemore_core::log::Proposal;
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::reads::ReadRule;
use seemore_crypto::{Digest, Signature};
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::{EventKind, Recorder};
use seemore_types::{Instant, Mode, NodeId, ReplicaId, SeqNum, View};
use seemore_wire::{
    Accept, Batch, Checkpoint, ClientRequest, Commit, CommitCert, Message, NewView, Prepare,
    PrepareCert, Recovery, StateRequest, StateResponse, ViewChange,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A crash fault-tolerant (Paxos-style) replica.
pub struct CftReplica {
    /// The protocol-independent half shared with the SeeMoRe replica and
    /// the BFT baseline (see [`seemore_core::chassis`]). Crash-only
    /// deployments sign nothing, so there is no signing context beside it;
    /// trace events carry [`Mode::Lion`], the closest SeeMoRe analogue.
    chassis: ReplicaChassis,
    config: BaselineConfig,
    in_view_change: bool,
    target_view: View,
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
    new_view_sent: Vec<View>,
}

impl CftReplica {
    /// Creates a CFT replica.
    pub fn new(
        id: ReplicaId,
        config: BaselineConfig,
        pconfig: ProtocolConfig,
        app: Box<dyn StateMachine>,
    ) -> Self {
        assert!(config.contains(id), "replica {id} outside the CFT group");
        CftReplica {
            chassis: ReplicaChassis::new(
                id,
                config.network_size,
                pconfig,
                Mode::Lion,
                StabilityRule::TrustedSigner,
                app,
            ),
            config,
            in_view_change: false,
            target_view: View::ZERO,
            view_changes: BTreeMap::new(),
            new_view_sent: Vec::new(),
        }
    }

    /// Attaches a durability store (see [`ReplicaChassis::set_store`]).
    pub fn set_store(&mut self, store: Arc<dyn Durability>) {
        self.chassis.set_store(store);
    }

    /// Rebuilds a CFT replica from the durable state in `store` and leaves
    /// it recovering: `on_start` announces the restart and the first
    /// `STATE-RESPONSE` completes the rejoin. Crash-only deployments skip
    /// signatures, so the announcement carries [`Signature::INVALID`].
    pub fn recover(
        id: ReplicaId,
        config: BaselineConfig,
        pconfig: ProtocolConfig,
        app: Box<dyn StateMachine>,
        store: Arc<dyn Durability>,
    ) -> Self {
        let mut replica = Self::new(id, config, pconfig, app);
        for record in replica.chassis.restore(store) {
            replica.replay_record(record);
        }
        replica
    }

    /// Replays one WAL record (idempotent; see the core's no-un-vote
    /// argument — the same guards exist in this baseline's vote paths).
    fn replay_record(&mut self, record: WalRecord) {
        let low_mark = self.chassis.log.low_mark();
        match record {
            WalRecord::ViewEntered { view, .. } => {
                if view >= self.chassis.view {
                    self.chassis.view = view;
                }
            }
            WalRecord::Vote(Message::Prepare(p)) if p.seq > low_mark => {
                self.chassis.next_seq = self.chassis.next_seq.max(p.seq);
                let instance = self.chassis.log.instance_mut(p.seq);
                if instance.proposal.is_none() {
                    instance.proposal = Some(Proposal {
                        view: p.view,
                        digest: p.digest,
                        batch: p.batch,
                        primary_signature: p.signature,
                    });
                }
            }
            WalRecord::Vote(Message::Accept(a)) if a.seq > low_mark => {
                self.chassis
                    .log
                    .instance_mut(a.seq)
                    .record_accept(a.replica, a.digest);
            }
            WalRecord::Vote(Message::Commit(c)) if c.seq > low_mark => {
                let instance = self.chassis.log.instance_mut(c.seq);
                instance.commit_sent = true;
                instance.committed = true;
            }
            WalRecord::Vote(Message::Checkpoint(cp)) => {
                if self.chassis.checkpoints.record(cp, true) {
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

    /// The leader serves reads under the same propose-time-anchored lease as
    /// SeeMoRe's trusted primary, fenced at its proposal frontier; everyone
    /// else, and everyone during a view change, refuses.
    fn read_rule(&self, now: Instant) -> ReadRule {
        if self.is_primary() && !self.in_view_change {
            ReadRule::Leased(now)
        } else {
            ReadRule::Refuse
        }
    }

    /// Executes what is ready. The leader replies and announces checkpoints;
    /// crash-only deployments sign neither (the paper's CFT line pays no
    /// cryptography cost).
    fn execute_ready(&mut self, actions: &mut Vec<Action>, now: Instant) {
        let duties = Duties {
            reply: self.is_primary(),
            announce: self.is_primary(),
            reads: self.read_rule(now),
            settle_when_idle: true,
        };
        self.chassis.execute_ready(actions, duties, None);
    }

    // --------------------------------------------------------------
    // Normal case
    // --------------------------------------------------------------

    fn on_request(&mut self, request: ClientRequest, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.chassis.reply_from_cache(&mut actions, &request, None) || self.in_view_change {
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
            self.propose_batch(actions, batch, now);
        }
    }

    /// Assigns a sequence number to `batch` and broadcasts the `PREPARE`;
    /// `now` (the send time) is recorded as the slot's lease anchor.
    fn propose_batch(&mut self, actions: &mut Vec<Action>, batch: Batch, now: Instant) {
        let Some(seq) = self.chassis.assign_slot(&batch) else {
            return;
        };
        self.chassis.anchor_read_lease(seq, now);
        let digest = batch.digest();
        let prepare = Prepare {
            view: self.chassis.view,
            seq,
            digest,
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        self.chassis.log.instance_mut(seq).proposal = Some(Proposal {
            view: self.chassis.view,
            digest,
            batch,
            primary_signature: Signature::INVALID,
        });
        self.chassis.broadcast(actions, Message::Prepare(prepare));
        // A one-replica cluster (`f = 0`) is its own quorum: no `ACCEPT`
        // will ever arrive, so the slot commits here.
        self.commit_if_accepted(actions, seq, digest, now);
    }

    fn on_prepare(&mut self, from: NodeId, prepare: Prepare) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.in_view_change
            || prepare.view != self.chassis.view
            || from.as_replica() != Some(self.primary())
            || prepare.digest != prepare.batch.digest()
            || !self
                .chassis
                .log
                .in_window(prepare.seq, self.chassis.pconfig.high_water_mark)
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        let seq = prepare.seq;
        let digest = prepare.digest;
        self.chassis.log.instance_mut(seq).proposal = Some(Proposal {
            view: prepare.view,
            digest,
            batch: prepare.batch,
            primary_signature: Signature::INVALID,
        });
        let accept = Accept {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            signature: None,
        };
        let primary = self.primary();
        self.chassis.send(
            &mut actions,
            NodeId::Replica(primary),
            Message::Accept(accept),
        );
        actions.push(Action::SetTimer {
            timer: Timer::RequestProgress { seq },
            after: self.chassis.pconfig.request_timeout,
        });
        actions
    }

    fn on_accept(&mut self, from: NodeId, accept: Accept, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if !self.is_primary() || accept.view != self.chassis.view || self.in_view_change {
            return actions;
        }
        let instance = self.chassis.log.instance_mut(accept.seq);
        if !instance.proposal_matches(accept.view, &accept.digest) {
            return actions;
        }
        instance.record_accept(sender, accept.digest);
        self.commit_if_accepted(&mut actions, accept.seq, accept.digest, now);
        actions
    }

    /// Commits the leader's proposal for `seq` once `quorum - 1` matching
    /// `ACCEPT`s stand beside its own vote: broadcasts the `COMMIT`, extends
    /// the read lease and executes. Idempotent per slot.
    fn commit_if_accepted(
        &mut self,
        actions: &mut Vec<Action>,
        seq: SeqNum,
        digest: Digest,
        now: Instant,
    ) {
        let threshold = self.config.quorum.saturating_sub(1) as usize;
        let instance = self.chassis.log.instance_mut(seq);
        let votes = instance.matching_accepts(&digest);
        if instance.commit_sent || votes < threshold {
            return;
        }
        instance.commit_sent = true;
        instance.committed = true;
        let batch = instance.proposal.as_ref().map(|p| p.batch.clone());
        self.chassis
            .trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.chassis.trace(EventKind::Committed, Some(seq), None, 0);
        // An accept quorum just followed this leader: extend the read
        // lease, anchored at the slot's propose time.
        self.chassis.extend_read_lease(seq);
        let commit = Commit {
            view: self.chassis.view,
            seq,
            digest,
            replica: self.chassis.id,
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        self.chassis.broadcast(actions, Message::Commit(commit));
        if let Some(batch) = batch {
            self.chassis.metrics.committed += 1;
            self.chassis.exec.add_committed(seq, batch);
            self.execute_ready(actions, now);
        }
    }

    fn on_commit(&mut self, from: NodeId, commit: Commit, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if from.as_replica() != Some(self.primary())
            || commit.view != self.chassis.view
            || self.in_view_change
        {
            self.chassis.metrics.rejected_messages += 1;
            return actions;
        }
        let instance = self.chassis.log.instance_mut(commit.seq);
        if instance.committed {
            return actions;
        }
        instance.committed = true;
        let batch = commit
            .batch
            .or_else(|| instance.proposal.as_ref().map(|p| p.batch.clone()));
        self.chassis
            .trace(EventKind::Committed, Some(commit.seq), None, 0);
        if let Some(batch) = batch {
            self.chassis.metrics.committed += 1;
            self.chassis.exec.add_committed(commit.seq, batch);
            self.execute_ready(&mut actions, now);
        }
        actions
    }

    fn on_checkpoint(&mut self, checkpoint: Checkpoint) -> Vec<Action> {
        let mut actions = Vec::new();
        let seq = checkpoint.seq;
        let announcer = checkpoint.replica;
        if self.chassis.checkpoints.record(checkpoint, true) {
            self.chassis.metrics.stable_checkpoints += 1;
            self.chassis.after_stable_checkpoint();
            // Fallen behind the stable checkpoint (an instance this replica
            // missed for good, e.g. one proposed while it was down, would
            // otherwise stall in-order execution forever): fetch state from
            // the announcer. Crash faults cannot lie, so one response is
            // enough and a stale snapshot is ignored by `restore`.
            if self.chassis.exec.last_executed() < seq && announcer != self.chassis.id {
                let request = StateRequest {
                    from_seq: self.chassis.exec.last_executed(),
                    replica: self.chassis.id,
                };
                self.chassis.send(
                    &mut actions,
                    NodeId::Replica(announcer),
                    Message::StateRequest(request),
                );
            }
        }
        actions
    }

    // --------------------------------------------------------------
    // State transfer and crash recovery
    // --------------------------------------------------------------

    /// Adopts a peer's state response: fast-forwards over the snapshot if it
    /// is ahead of local state and re-enters the carried committed suffix
    /// into the normal execution path. Crash faults cannot lie, so the first
    /// response is believed, whoever sent it.
    fn adopt_state(&mut self, response: StateResponse, now: Instant, actions: &mut Vec<Action>) {
        if let Some(snapshot) = &response.snapshot {
            if self
                .chassis
                .adopt_snapshot(snapshot, response.checkpoint.as_ref())
            {
                self.chassis.after_stable_checkpoint();
            }
        }
        self.chassis.adopt_entries(response.entries);
        self.execute_ready(actions, now);
    }

    /// Adopts a peer's state response and leaves the recovering state,
    /// re-delivering everything buffered while rejoining.
    fn complete_recovery(&mut self, response: StateResponse, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        self.adopt_state(response, now, &mut actions);
        for (from, message) in self.chassis.finish_recovery(&mut actions) {
            actions.extend(self.on_message(from, message, now));
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
        self.chassis.refuse_parked_reads(&mut actions, None);

        let stable = self.chassis.checkpoints.stable_seq();
        let mut prepares = Vec::new();
        let mut commits = Vec::new();
        for (seq, instance) in self.chassis.log.instances_after(stable) {
            let Some(proposal) = &instance.proposal else {
                continue;
            };
            let cert = PrepareCert {
                view: proposal.view,
                seq: *seq,
                digest: proposal.digest,
                primary_signature: Signature::INVALID,
                batch: Some(proposal.batch.clone()),
            };
            if instance.committed {
                commits.push(CommitCert {
                    view: proposal.view,
                    seq: *seq,
                    digest: proposal.digest,
                    primary_signature: Signature::INVALID,
                    batch: Some(proposal.batch.clone()),
                });
            } else {
                prepares.push(cert);
            }
        }
        let view_change = ViewChange {
            new_view: target,
            mode: Mode::Lion,
            stable_seq: stable,
            checkpoint_proof: self.chassis.checkpoints.stable_proof().to_vec(),
            prepares,
            commits,
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
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
        if view_change.new_view <= self.chassis.view {
            return actions;
        }
        let target = view_change.new_view;
        self.view_changes
            .entry(target)
            .or_default()
            .insert(sender, view_change);
        // Join once anyone else asked for a newer view (crash faults cannot
        // lie, so a single vote is trustworthy).
        if !self.in_view_change {
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
            for cert in &vote.commits {
                high = high.max(cert.seq);
            }
        }

        let mut prepares_out = Vec::new();
        let mut commits_out = Vec::new();
        let mut seq = low.next();
        while seq <= high {
            let committed = votes
                .iter()
                .flat_map(|v| v.commits.iter())
                .find(|c| c.seq == seq);
            let prepared = votes
                .iter()
                .flat_map(|v| v.prepares.iter())
                .find(|p| p.seq == seq);
            if let Some(cert) = committed {
                commits_out.push(cert.clone());
            } else if let Some(cert) = prepared {
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

        let new_view = NewView {
            view: target,
            mode: Mode::Lion,
            prepares: prepares_out,
            commits: commits_out,
            checkpoint: best_checkpoint,
            view_change_proof: Vec::new(),
            replica: self.chassis.id,
            signature: Signature::INVALID,
        };
        self.chassis
            .broadcast(actions, Message::NewView(new_view.clone()));
        self.install_new_view(actions, new_view, now);
    }

    fn on_new_view(&mut self, from: NodeId, new_view: NewView, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if new_view.view <= self.chassis.view
            || from.as_replica() != Some(self.config.primary(new_view.view))
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
        self.chassis.enter_view(new_view.view, Mode::Lion);
        self.in_view_change = false;
        self.chassis.metrics.view_changes_completed += 1;
        self.chassis
            .trace(EventKind::ViewChangeInstall, None, None, new_view.view.0);
        self.chassis.refuse_parked_reads(actions, None);
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
        for cert in &new_view.commits {
            highest = highest.max(cert.seq);
            self.chassis.log.instance_mut(cert.seq).committed = true;
            if let Some(batch) = cert.batch.clone() {
                self.chassis.exec.add_committed(cert.seq, batch);
            }
        }
        let i_am_primary = self.config.primary(new_view.view) == self.chassis.id;
        for cert in &new_view.prepares {
            highest = highest.max(cert.seq);
            let Some(batch) = cert.batch.clone() else {
                continue;
            };
            let instance = self.chassis.log.instance_mut(cert.seq);
            if instance.committed {
                continue;
            }
            instance.proposal = Some(Proposal {
                view: new_view.view,
                digest: cert.digest,
                batch,
                primary_signature: Signature::INVALID,
            });
            if !i_am_primary {
                let accept = Accept {
                    view: new_view.view,
                    seq: cert.seq,
                    digest: cert.digest,
                    replica: self.chassis.id,
                    signature: None,
                };
                let primary = self.config.primary(new_view.view);
                self.chassis
                    .send(actions, NodeId::Replica(primary), Message::Accept(accept));
            }
        }
        self.chassis.next_seq = highest;
        self.execute_ready(actions, now);

        // Requests buffered for batching under the old view are re-routed:
        // the new leader proposes them, everyone else forwards them (and the
        // armed flush timer, if any, is cancelled with the buffer).
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
            self.flush_buffered(actions, now);
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
    fn flush_buffered(&mut self, actions: &mut Vec<Action>, now: Instant) {
        if let Some(batch) = self.chassis.flush_batch(actions) {
            self.propose_batch(actions, batch, now);
        }
    }

    /// The batch flush timer of `generation` fired: propose the buffer
    /// (leader) or re-route it to the current leader (a replica deposed
    /// while buffering).
    fn on_batch_flush(&mut self, generation: u64, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.chassis.flush_timer_is_current(generation) || self.in_view_change {
            return actions;
        }
        if self.is_primary() {
            if let Some(batch) = self.chassis.cut_on_flush_timer(generation) {
                self.propose_batch(&mut actions, batch, now);
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

impl ReplicaProtocol for CftReplica {
    fn id(&self) -> ReplicaId {
        self.chassis.id
    }

    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        self.chassis.on_start(now, None)
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        let message = match self.chassis.receive(from, message, now) {
            Inbound::Deliver(message) => message,
            Inbound::Rejoin(response) => return self.complete_recovery(response, now),
            Inbound::Handled(actions) => return actions,
        };
        let actions = match message {
            Message::Request(request) => self.on_request(request, now),
            Message::ReadRequest(read) => {
                let rule = self.read_rule(now);
                self.chassis.on_read_request(read, rule, None)
            }
            Message::Prepare(prepare) => self.on_prepare(from, prepare),
            Message::Accept(accept) => self.on_accept(from, accept, now),
            Message::Commit(commit) => self.on_commit(from, commit, now),
            Message::Checkpoint(checkpoint) => self.on_checkpoint(checkpoint),
            Message::ViewChange(view_change) => self.on_view_change(from, view_change, now),
            Message::NewView(new_view) => self.on_new_view(from, new_view, now),
            // A restarted peer's announcement and a lagging peer's request
            // get the same answer (crash faults cannot lie, so neither is
            // verified): the committed suffix above where the peer stands.
            Message::Recovery(Recovery {
                last_executed: from_seq,
                replica,
                ..
            })
            | Message::StateRequest(StateRequest { from_seq, replica }) => {
                self.chassis.serve_state(from_seq, replica)
            }
            // Answer to the checkpoint-triggered catch-up above.
            Message::StateResponse(response) => {
                let mut actions = Vec::new();
                self.adopt_state(response, now, &mut actions);
                actions
            }
            _ => Vec::new(),
        };
        self.chassis.metrics.note_log_size(self.chassis.log.len());
        actions
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        if let Some(actions) = self.chassis.timer_gate(timer, now, None) {
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
                    Vec::new()
                } else {
                    self.start_view_change(self.chassis.view.next(), now)
                }
            }
            Timer::ForwardedRequest { request } => {
                if self
                    .chassis
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_some()
                    || self.in_view_change
                {
                    Vec::new()
                } else {
                    self.start_view_change(self.chassis.view.next(), now)
                }
            }
            Timer::ViewChange { view } => {
                if self.in_view_change && self.chassis.view < view {
                    self.start_view_change(view.next(), now)
                } else {
                    Vec::new()
                }
            }
            Timer::BatchFlush { generation } => self.on_batch_flush(generation, now),
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
    use seemore_app::KvStore;
    use seemore_core::testkit::SyncCluster;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClientId, Duration};

    fn build(f: u32) -> (SyncCluster, BaselineConfig) {
        let config = BaselineConfig::cft(f);
        let keystore = KeyStore::generate(9, config.network_size, 2);
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            cluster.add_replica(Box::new(CftReplica::new(
                replica,
                config,
                ProtocolConfig::default(),
                Box::new(KvStore::new()),
            )));
        }
        for client in 0..2u64 {
            cluster.add_client(BaselineClient::new(
                ClientId(client),
                config,
                keystore.clone(),
                Duration::from_millis(100),
            ));
        }
        (cluster, config)
    }

    #[test]
    fn cft_commits_requests() {
        let (mut cluster, config) = build(2);
        cluster.submit(ClientId(0), b"op-1".to_vec());
        cluster.run_to_quiescence(100_000);
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 1);
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 1);
        }
    }

    #[test]
    fn cft_tolerates_f_backup_crashes() {
        let (mut cluster, config) = build(2);
        cluster.replica_mut(ReplicaId(3)).crash();
        cluster.replica_mut(ReplicaId(4)).crash();
        for i in 0..4 {
            cluster.submit(ClientId(0), format!("op-{i}").into_bytes());
            cluster.run_to_quiescence(100_000);
        }
        assert_eq!(cluster.client(ClientId(0)).completed().len(), 4);
        let _ = config;
    }

    #[test]
    fn cft_leader_crash_triggers_view_change() {
        let (mut cluster, _) = build(1);
        cluster.submit(ClientId(0), b"first".to_vec());
        cluster.run_to_quiescence(100_000);
        cluster.replica_mut(ReplicaId(0)).crash();

        cluster.submit(ClientId(0), b"second".to_vec());
        cluster.run_to_quiescence(100_000);
        cluster.fire_client_timers(100_000);
        cluster.fire_all_timers(100_000);
        cluster.run_to_quiescence(100_000);
        cluster.fire_client_timers(100_000);
        cluster.run_to_quiescence(100_000);
        cluster.fire_client_timers(100_000);
        cluster.run_to_quiescence(100_000);

        assert_eq!(cluster.client(ClientId(0)).completed().len(), 2);
        assert!(cluster.replica(ReplicaId(1)).view() > View(0));
    }

    /// Regression (same bug as the SeeMoRe core): a size-trigger cut used to
    /// leave the armed flush timer live, so its stale expiry cut the next
    /// buffer prematurely. Generation-tagged timers make the stale expiry a
    /// no-op.
    #[test]
    fn cft_stale_flush_timer_cannot_truncate_the_next_batch() {
        use seemore_core::batching::BatchConfig;

        let config = BaselineConfig::cft(1);
        let keystore = KeyStore::generate(9, config.network_size, 4);
        let mut cluster = SyncCluster::new();
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        for replica in config.replicas() {
            cluster.add_replica(Box::new(CftReplica::new(
                replica,
                config,
                pconfig,
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
        let leader = config.primary(View::ZERO);
        let armed_flush = |cluster: &SyncCluster| {
            cluster
                .armed_timers(leader)
                .into_iter()
                .find(|t| matches!(t, Timer::BatchFlush { .. }))
        };

        cluster.submit(ClientId(0), b"a".to_vec());
        cluster.run_to_quiescence(100_000);
        let stale = armed_flush(&cluster).expect("first request arms the flush timer");

        // Fill the batch; the size cut must invalidate the armed timer.
        cluster.submit(ClientId(1), b"b".to_vec());
        cluster.submit(ClientId(2), b"c".to_vec());
        cluster.run_to_quiescence(100_000);
        assert_eq!(cluster.replica(leader).executed().len(), 3);
        assert!(
            armed_flush(&cluster).is_none(),
            "size cut cancels the timer"
        );

        // Refill one request; the stale expiry must not cut it early.
        cluster.submit(ClientId(3), b"d".to_vec());
        cluster.run_to_quiescence(100_000);
        let fresh = armed_flush(&cluster).expect("second buffer arms a fresh timer");
        assert_ne!(fresh, stale);
        let now = cluster.now();
        let actions = cluster.replica_mut(leader).on_timer(stale, now);
        assert!(actions.is_empty(), "stale flush produced {actions:?}");
        cluster.run_to_quiescence(100_000);
        assert_eq!(
            cluster.replica(leader).executed().len(),
            3,
            "second batch flushed before its delay elapsed"
        );
        assert_eq!(cluster.replica(leader).metrics().batch.stale_timer_fires, 1);

        // The current timer is what flushes the second batch.
        assert!(cluster.fire_timer(leader, fresh));
        cluster.run_to_quiescence(100_000);
        assert_eq!(cluster.replica(leader).executed().len(), 4);
        assert_eq!(cluster.client(ClientId(3)).completed().len(), 1);
    }

    #[test]
    fn cft_leader_serves_fast_reads_and_backups_never_see_them() {
        use seemore_app::{KvOp, KvResult};
        use seemore_types::OpClass;

        let (mut cluster, config) = build(1);
        cluster.submit(
            ClientId(0),
            KvOp::Put {
                key: b"x".to_vec(),
                value: b"9".to_vec(),
            }
            .encode(),
        );
        cluster.run_to_quiescence(100_000);

        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"x".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(100_000);

        let client = cluster.client(ClientId(1));
        assert_eq!(client.completed().len(), 1);
        assert_eq!(client.completed()[0].class, OpClass::Read);
        assert_eq!(
            KvResult::decode(&client.completed()[0].result),
            Some(KvResult::Value(b"9".to_vec()))
        );
        // The read was served by the leader without ordering.
        let leader = config.primary(View::ZERO);
        assert_eq!(cluster.replica(leader).metrics().reads_served, 1);
        for replica in config.replicas() {
            assert_eq!(cluster.replica(replica).executed().len(), 1);
        }

        // Once the lease (one request timeout past the last commit's
        // proposal) has lapsed with no new quorum contact, the leader
        // refuses, and the client falls back to the ordered path — which
        // renews the lease as a side effect.
        cluster.advance_time(Duration::from_millis(500));
        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"x".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(100_000);
        let client = cluster.client(ClientId(1));
        assert_eq!(client.completed().len(), 2);
        assert_eq!(
            KvResult::decode(&client.completed()[1].result),
            Some(KvResult::Value(b"9".to_vec()))
        );
        assert_eq!(cluster.replica(leader).metrics().reads_refused, 1);
        assert_eq!(cluster.replica(leader).metrics().reads_served, 1);
        assert_eq!(cluster.replica(leader).executed().len(), 2, "ordered");

        // With the lease fresh again, the next read takes the fast path.
        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"x".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(100_000);
        assert_eq!(cluster.replica(leader).metrics().reads_served, 2);
        assert_eq!(cluster.client(ClientId(1)).completed().len(), 3);
    }

    #[test]
    fn cft_view_change_refuses_a_read_parked_behind_the_fence() {
        use seemore_app::KvOp;
        use seemore_types::OpClass;

        // The backups are cut off, so the leader's proposal never commits
        // and a read arriving behind it parks at the fence.
        let (mut cluster, config) = build(1);
        let leader = config.primary(View::ZERO);
        for backup in config.replicas().filter(|r| *r != leader) {
            cluster.isolate(backup);
        }
        cluster.submit(
            ClientId(0),
            KvOp::Put {
                key: b"x".to_vec(),
                value: b"stuck".to_vec(),
            }
            .encode(),
        );
        cluster.submit_op(
            ClientId(1),
            KvOp::Get { key: b"x".to_vec() }.encode(),
            OpClass::Read,
        );
        cluster.run_to_quiescence(100_000);
        assert_eq!(cluster.replica(leader).metrics().reads_served, 0);
        assert_eq!(cluster.replica(leader).metrics().reads_refused, 0);

        // A backup's vote for view 1 makes the leader join the view change,
        // which refuses the parked read so its client is not stranded.
        let view_change = ViewChange {
            new_view: View(1),
            mode: Mode::Lion,
            stable_seq: SeqNum(0),
            checkpoint_proof: Vec::new(),
            prepares: Vec::new(),
            commits: Vec::new(),
            replica: ReplicaId(1),
            signature: Signature::INVALID,
        };
        cluster.inject(
            NodeId::Replica(ReplicaId(1)),
            NodeId::Replica(leader),
            Message::ViewChange(view_change),
        );
        cluster.run_to_quiescence(100_000);
        assert_eq!(
            cluster.replica(leader).metrics().reads_refused,
            1,
            "the parked read must be refused when the view change starts"
        );
        assert_eq!(cluster.replica(leader).metrics().reads_served, 0);
    }

    #[test]
    fn cft_checkpoints_and_garbage_collects() {
        let config = BaselineConfig::cft(1);
        let keystore = KeyStore::generate(10, config.network_size, 1);
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            cluster.add_replica(Box::new(CftReplica::new(
                replica,
                config,
                ProtocolConfig::with_checkpoint_period(2),
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
            cluster.submit(ClientId(0), format!("op-{i}").into_bytes());
            cluster.run_to_quiescence(100_000);
        }
        for replica in config.replicas() {
            assert!(cluster.replica(replica).metrics().stable_checkpoints >= 1);
        }
    }
}
