//! The SeeMoRe replica: one state machine implementing the Lion, Dog and
//! Peacock modes, their view changes, checkpointing and dynamic mode
//! switching.
//!
//! [`SeeMoReReplica`] owns a [`ReplicaChassis`] — the message log, the
//! execution engine with its replies and checkpoint announcements, the
//! checkpoint manager, the outgoing path, batch admission, the read fast
//! path, durability, the rejoin exchange and the view change, all shared
//! with the CFT and BFT baselines — plus a [`SigningContext`], and keeps
//! what is SeeMoRe's own: the three modes' agreement, who may serve reads
//! and who replies and announces in each mode, the values each mode's view
//! change runs under, mode switching, and the rule that state is only
//! adopted from the trusted tier.
//!
//! Message handlers live in the `agreement` submodule (normal case) and
//! the `view_change` submodule (view-change values, the vote for a
//! re-proposed slot, and mode switch).

mod agreement;
mod view_change;

pub use view_change::mode_switch_announcer;

#[cfg(test)]
mod tests;

use crate::actions::{Action, Timer};
use crate::chassis::{Duties, Inbound, ReplicaChassis, SigningContext};
use crate::checkpoint::StabilityRule;
use crate::config::ProtocolConfig;
use crate::exec::ExecutedEntry;
use crate::log::MessageLog;
use crate::metrics::ReplicaMetrics;
use crate::protocol::ReplicaProtocol;
use crate::reads::ReadRule;
use crate::view_change::ViewChangeInput;
use seemore_app::StateMachine;
use seemore_crypto::KeyStore;
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::Recorder;
use seemore_types::{
    ClusterConfig, Instant, Mode, NodeId, ProtocolViolation, ReplicaId, RequestId, SeqNum, View,
};
use seemore_wire::{Checkpoint, ClientRequest, Message, Recovery, StateRequest, StateResponse};
use std::collections::HashMap;
use std::sync::Arc;

/// A replica running the SeeMoRe protocol.
pub struct SeeMoReReplica {
    /// Everything around agreement that the baselines share: identity and
    /// tracing, log / execution / checkpoints, the outgoing path, batch
    /// admission, durability, the rejoin exchange, execution with its
    /// replies and checkpoint announcements, and the read fast path. The
    /// live mode is `chassis.mode`, the installed view `chassis.view`.
    pub(crate) chassis: ReplicaChassis,
    /// This replica's signing identity and allocation-free verify path.
    pub(crate) signing: SigningContext,
    pub(crate) cluster: ClusterConfig,
    /// Requests this replica forwarded to a primary and is still watching;
    /// a newly installed primary proposes these immediately so that view
    /// changes recover without waiting for client retransmission.
    pub(crate) forwarded_requests: HashMap<RequestId, ClientRequest>,
    /// Mode the protocol will switch to at the next view change, if any.
    pub(crate) pending_mode: Option<Mode>,
    /// Whether a state-transfer request is already outstanding.
    pub(crate) state_transfer_pending: bool,
    /// Last time this replica observed commit progress (a valid COMMIT,
    /// INFORM or NEW-VIEW). Suspicion timers re-arm instead of deposing the
    /// primary while progress is being made — the PBFT practice of
    /// restarting the timer whenever the system moves forward.
    pub(crate) last_progress: Instant,
}

impl std::fmt::Debug for SeeMoReReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeeMoReReplica")
            .field("id", &self.chassis.id)
            .field("mode", &self.chassis.mode)
            .field("view", &self.chassis.view)
            .field("last_executed", &self.chassis.exec.last_executed())
            .finish_non_exhaustive()
    }
}

impl SeeMoReReplica {
    /// Creates a replica in the given initial mode, view 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of `cluster` or if the key store has
    /// no signer for it — both are configuration errors caught at startup.
    pub fn new(
        id: ReplicaId,
        cluster: ClusterConfig,
        pconfig: ProtocolConfig,
        keystore: KeyStore,
        mode: Mode,
        app: Box<dyn StateMachine>,
    ) -> Self {
        assert!(cluster.contains(id), "replica {id} not in cluster");
        let rule = Self::stability_rule_for(mode, &cluster);
        SeeMoReReplica {
            chassis: ReplicaChassis::new(id, cluster.total_size(), pconfig, mode, rule, app),
            signing: SigningContext::new(id, keystore),
            cluster,
            forwarded_requests: HashMap::new(),
            pending_mode: None,
            state_transfer_pending: false,
            last_progress: Instant::ZERO,
        }
    }

    /// Attaches a durability store (see [`ReplicaChassis::set_store`]).
    pub fn set_store(&mut self, store: Arc<dyn Durability>) {
        self.chassis.set_store(store);
    }

    /// Rebuilds a replica from the durable state in `store` (its last
    /// checkpoint plus the WAL suffix), leaving it in the *recovering*
    /// state: [`on_start`](ReplicaProtocol::on_start) announces the
    /// recovery, peers answer with a [`StateResponse`], and the first one
    /// completes the rejoin. Replayed votes re-arm the same log guards the
    /// live replica had (accepted proposals, `commit_sent`, `inform_sent`,
    /// installed view), so the restarted replica can never contradict a
    /// claim it made before the crash.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        id: ReplicaId,
        cluster: ClusterConfig,
        pconfig: ProtocolConfig,
        keystore: KeyStore,
        initial_mode: Mode,
        app: Box<dyn StateMachine>,
        store: Arc<dyn Durability>,
    ) -> Self {
        let mut replica = Self::new(id, cluster, pconfig, keystore, initial_mode, app);
        for record in replica.chassis.restore(store) {
            replica.replay_record(record);
        }
        replica
    }

    /// Replays one WAL record into in-memory state (see
    /// [`recover`](Self::recover)). Replay is idempotent: votes are
    /// first-vote-wins and flags are merely re-set, so duplicated records
    /// (a crash between compaction's rewrite and delete) are harmless.
    fn replay_record(&mut self, record: WalRecord) {
        match record {
            WalRecord::ViewEntered { view, mode } => {
                if view >= self.chassis.view {
                    self.chassis.view = view;
                    self.chassis.mode = mode;
                    self.chassis
                        .checkpoints
                        .set_rule(Self::stability_rule_for(mode, &self.cluster));
                }
            }
            WalRecord::Vote(message) => self.replay_vote(message),
        }
    }

    fn replay_vote(&mut self, message: Message) {
        use crate::log::Proposal;
        let in_window = |log: &MessageLog, seq: SeqNum| seq > log.low_mark();
        match message {
            Message::Prepare(p) if in_window(&self.chassis.log, p.seq) => {
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
            Message::PrePrepare(p) if in_window(&self.chassis.log, p.seq) => {
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
            Message::Accept(a) if in_window(&self.chassis.log, a.seq) => {
                self.chassis
                    .log
                    .instance_mut(a.seq)
                    .record_accept(a.replica, a.digest);
            }
            Message::PbftPrepare(v) if in_window(&self.chassis.log, v.seq) => {
                self.chassis
                    .log
                    .instance_mut(v.seq)
                    .record_pbft_prepare(v.replica, v.digest);
            }
            Message::Commit(c) if in_window(&self.chassis.log, c.seq) => {
                let instance = self.chassis.log.instance_mut(c.seq);
                instance.record_commit(c.replica, c.digest);
                // Having sent a commit-phase message is the claim that
                // must survive the crash: the guards in `try_commit_*`
                // key off these flags, so the restarted replica cannot
                // emit a conflicting commit for the slot.
                instance.commit_sent = true;
                instance.prepared = true;
            }
            Message::Inform(i) if in_window(&self.chassis.log, i.seq) => {
                let instance = self.chassis.log.instance_mut(i.seq);
                instance.record_inform(i.replica, i.digest);
                instance.inform_sent = true;
            }
            Message::Checkpoint(cp) => {
                let trusted = self.cluster.is_trusted(cp.replica);
                if self.chassis.checkpoints.record(cp, trusted) {
                    self.chassis
                        .log
                        .garbage_collect(self.chassis.checkpoints.stable_seq());
                }
            }
            _ => {}
        }
    }

    /// Replaces the structured-event sink (see
    /// [`ReplicaChassis::set_recorder`]).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.chassis.set_recorder(recorder);
    }

    /// Checkpoint stability rule for `mode`: a single trusted signature in
    /// Lion/Dog, `m + 1` matching messages in Peacock.
    pub(crate) fn stability_rule_for(mode: Mode, cluster: &ClusterConfig) -> StabilityRule {
        match mode {
            Mode::Lion | Mode::Dog => StabilityRule::TrustedSigner,
            Mode::Peacock => StabilityRule::Quorum(cluster.byzantine_bound() as usize + 1),
        }
    }

    /// The cluster configuration this replica was built with.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The primary of the current `(mode, view)`.
    pub fn current_primary(&self) -> ReplicaId {
        self.cluster
            .primary(self.chassis.mode, self.chassis.view)
            .expect("cluster validated at construction")
    }

    /// Whether this replica is the current primary.
    pub fn is_primary(&self) -> bool {
        self.current_primary() == self.chassis.id
    }

    /// Whether this replica is a proxy in the current view (Dog / Peacock).
    pub fn is_proxy(&self) -> bool {
        self.cluster.is_proxy(self.chassis.id, self.chassis.view)
    }

    /// Whether this replica participates in the agreement quorum of the
    /// current mode and view.
    pub fn is_agreement_participant(&self) -> bool {
        match self.chassis.mode {
            Mode::Lion => true,
            Mode::Dog | Mode::Peacock => self.is_proxy(),
        }
    }

    /// The sequence number of the last request this replica executed.
    pub fn last_executed(&self) -> SeqNum {
        self.chassis.exec.last_executed()
    }

    /// The sequence number of the last stable checkpoint.
    pub fn stable_checkpoint(&self) -> SeqNum {
        self.chassis.checkpoints.stable_seq()
    }

    /// The application state digest (diagnostics / tests).
    pub fn state_digest(&self) -> seemore_crypto::Digest {
        self.chassis.exec.state_digest()
    }

    /// The proxies of the current view.
    pub(crate) fn current_proxies(&self) -> Vec<ReplicaId> {
        self.cluster.proxies(self.chassis.view)
    }

    /// The passive replicas of the current view: the private cloud plus the
    /// non-proxy public replicas (Dog / Peacock informs go to these).
    pub(crate) fn passive_replicas(&self) -> Vec<ReplicaId> {
        self.cluster
            .replicas()
            .filter(|r| !self.cluster.is_proxy(*r, self.chassis.view))
            .collect()
    }

    // ------------------------------------------------------------------
    // Client requests
    // ------------------------------------------------------------------

    /// Handles a `REQUEST`, whether received directly from the client or
    /// forwarded / retransmitted.
    fn on_request(&mut self, request: ClientRequest, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();

        // Signature check: requests are signed by their client.
        if !self
            .signing
            .verify(NodeId::Client(request.client), &request, &request.signature)
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Client(request.client),
            }));
            return actions;
        }
        if self
            .chassis
            .reply_from_cache(&mut actions, &request, Some(&mut self.signing))
        {
            return actions;
        }
        if self.chassis.in_view_change() {
            // Requests received during a view change are deferred; the client
            // will retransmit.
            return actions;
        }

        if self.is_primary() {
            self.buffer_or_propose(&mut actions, request, now);
        } else {
            self.forward_to_primary(&mut actions, request);
        }
        actions
    }

    /// Forwards `request` to the current primary and watches for progress so
    /// that a dead primary is eventually suspected (this is what lets a
    /// client broadcast trigger a view change).
    pub(crate) fn forward_to_primary(&mut self, actions: &mut Vec<Action>, request: ClientRequest) {
        let primary = self.current_primary();
        if self.chassis.exec.last_timestamp(request.client) < Some(request.timestamp)
            || self.chassis.exec.last_timestamp(request.client).is_none()
        {
            self.forwarded_requests
                .insert(request.id(), request.clone());
            let watch = self.is_view_change_voter(self.chassis.mode);
            self.chassis
                .forward_request(actions, primary, request, watch);
        }
    }

    // ------------------------------------------------------------------
    // Read-only fast path and execution: the values the chassis runs on
    // ------------------------------------------------------------------

    /// Whether, and behind which fence, this replica may serve fast-path
    /// reads now. Lion / Dog: only the lease-holding trusted primary serves,
    /// fenced at its proposal frontier — the fence is what makes Dog reads
    /// linearizable, since proxies may acknowledge a write to its client
    /// before the primary's INFORM-driven execution catches up. Peacock:
    /// every proxy answers behind its prepared fence and the client needs
    /// `2m + 1` matching replies; passive replicas refuse, their state lags
    /// the proxies' acknowledged prefix. Nobody serves during a view change.
    fn read_rule(&self, now: Instant) -> ReadRule {
        if self.chassis.in_view_change() {
            return ReadRule::Refuse;
        }
        match self.chassis.mode {
            Mode::Lion | Mode::Dog if self.is_primary() => ReadRule::Leased(now),
            Mode::Peacock if self.is_proxy() => ReadRule::Prepared,
            _ => ReadRule::Refuse,
        }
    }

    /// Executes what is ready. Only the Lion primary replies in the Lion
    /// mode, proxies in Dog and Peacock; the trusted primary announces
    /// checkpoints in Lion and Dog, every proxy in Peacock (stability needs
    /// `m + 1` matching). A drain that executed nothing does nothing more.
    pub(crate) fn execute_ready(&mut self, actions: &mut Vec<Action>, now: Instant) {
        let (reply, announce) = match self.chassis.mode {
            Mode::Lion => (self.is_primary(), self.is_primary()),
            Mode::Dog => (self.is_proxy(), self.is_primary()),
            Mode::Peacock => (self.is_proxy(), self.is_proxy()),
        };
        let duties = Duties {
            reply,
            announce,
            reads: self.read_rule(now),
            settle_when_idle: false,
        };
        let first = self.chassis.exec.history().len();
        self.chassis
            .execute_ready(actions, duties, Some(&mut self.signing));
        for entry in &self.chassis.exec.history()[first..] {
            self.forwarded_requests.remove(&entry.request);
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing and state transfer
    // ------------------------------------------------------------------

    /// Handles an incoming `CHECKPOINT` message.
    fn on_checkpoint(&mut self, from: NodeId, checkpoint: Checkpoint) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            actions.push(self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender: ReplicaId(u32::MAX),
                expected_role: "replica",
            }));
            return actions;
        };
        if sender != checkpoint.replica
            || !self.signing.verify_once(
                NodeId::Replica(checkpoint.replica),
                &checkpoint,
                &checkpoint.signature,
            )
        {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(checkpoint.replica),
            }));
            return actions;
        }
        let trusted = self.cluster.is_trusted(checkpoint.replica);
        let seq = checkpoint.seq;
        if self.chassis.checkpoints.record(checkpoint, trusted) {
            self.chassis.metrics.stable_checkpoints += 1;
            self.chassis.after_stable_checkpoint();
            // If we have fallen behind the stable checkpoint, ask for
            // state. The announcer has the freshest committed suffix, but in
            // Peacock mode announcers are untrusted proxies and a snapshot
            // is only ever adopted from the trusted tier — so also ask every
            // private-cloud replica (at most `c` of them can be down, and a
            // stale or duplicate response is ignored by `restore`).
            // Without the trusted copies a replica that lost an instance
            // permanently (e.g. one proposed while it was crashed) could
            // never execute past the gap.
            if self.chassis.exec.last_executed() < seq && !self.state_transfer_pending {
                self.state_transfer_pending = true;
                let request = StateRequest {
                    from_seq: self.chassis.exec.last_executed(),
                    replica: self.chassis.id,
                };
                let mut recipients: Vec<ReplicaId> = self.cluster.private_replicas().collect();
                if !recipients.contains(&sender) {
                    recipients.push(sender);
                }
                for recipient in recipients {
                    if recipient == self.chassis.id {
                        continue;
                    }
                    self.chassis.send(
                        &mut actions,
                        NodeId::Replica(recipient),
                        Message::StateRequest(request.clone()),
                    );
                }
            }
        }
        actions
    }

    /// Handles a `STATE-RESPONSE`.
    ///
    /// Snapshots are only adopted from trusted (private cloud) replicas: a
    /// Byzantine public replica could otherwise install a fabricated state.
    /// Pending committed entries are harmless to accept from anyone because
    /// they re-enter the normal commit path.
    fn on_state_response(
        &mut self,
        from: NodeId,
        response: StateResponse,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        self.state_transfer_pending = false;
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if let (Some(snapshot), true) = (&response.snapshot, self.cluster.is_trusted(sender)) {
            if self
                .chassis
                .adopt_snapshot(snapshot, response.checkpoint.as_ref())
            {
                self.chassis.after_stable_checkpoint();
            }
        }
        self.chassis.adopt_entries(response.entries);
        self.execute_ready(&mut actions, now);
        actions
    }

    /// Handles a `RECOVERY` announcement from a restarted peer by sending
    /// it the committed suffix above its durable state — the same answer a
    /// `STATE-REQUEST` from that sequence number would get.
    fn on_recovery(&mut self, from: NodeId, recovery: Recovery) -> Vec<Action> {
        let Some(sender) = from.as_replica() else {
            return vec![self.chassis.violation(ProtocolViolation::UnexpectedSender {
                sender: ReplicaId(u32::MAX),
                expected_role: "replica",
            })];
        };
        if sender != recovery.replica
            || !self.signing.verify_once(
                NodeId::Replica(recovery.replica),
                &recovery,
                &recovery.signature,
            )
        {
            return vec![self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Replica(recovery.replica),
            })];
        }
        self.chassis
            .serve_state(recovery.last_executed, recovery.replica)
    }

    /// Finishes the rejoin on the first `STATE-RESPONSE`: adopts it under
    /// the trust rule above, leaves the recovering state and re-delivers
    /// everything buffered while rejoining.
    fn complete_recovery(
        &mut self,
        from: NodeId,
        response: StateResponse,
        now: Instant,
    ) -> Vec<Action> {
        let mut actions = self.on_state_response(from, response, now);
        for (from, message) in self.chassis.finish_recovery(&mut actions) {
            actions.extend(self.on_message(from, message, now));
        }
        actions
    }
}

impl ReplicaProtocol for SeeMoReReplica {
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
        // Observing commit-carrying traffic counts as progress for the
        // suspicion timers (the actual validity checks happen in the
        // handlers; a forged message can at worst delay a view change by one
        // timeout, which does not affect safety).
        if matches!(
            message.kind(),
            seemore_wire::MessageKind::Commit
                | seemore_wire::MessageKind::Inform
                | seemore_wire::MessageKind::NewView
        ) {
            self.last_progress = now;
        }
        let actions = match message {
            Message::Request(request) => self.on_request(request, now),
            Message::ReadRequest(read) => {
                let rule = self.read_rule(now);
                self.chassis
                    .on_read_request(read, rule, Some(&mut self.signing))
            }
            Message::Prepare(prepare) => self.on_prepare(from, prepare, now),
            Message::PrePrepare(preprepare) => self.on_pre_prepare(from, preprepare, now),
            Message::Accept(accept) => self.on_accept(from, accept, now),
            Message::PbftPrepare(vote) => self.on_pbft_prepare(from, vote, now),
            Message::Commit(commit) => self.on_commit(from, commit, now),
            Message::Inform(inform) => self.on_inform(from, inform, now),
            Message::Checkpoint(checkpoint) => self.on_checkpoint(from, checkpoint),
            Message::ViewChange(vote) => self.view_change(ViewChangeInput::Vote(from, vote), now),
            Message::NewView(new_view) => {
                self.view_change(ViewChangeInput::NewView(from, new_view), now)
            }
            Message::ModeChange(mode_change) => self.on_mode_change(from, mode_change, now),
            Message::StateRequest(request) => {
                self.chassis.serve_state(request.from_seq, request.replica)
            }
            Message::StateResponse(response) => self.on_state_response(from, response, now),
            Message::Recovery(recovery) => self.on_recovery(from, recovery),
            // Replicas never receive replies.
            Message::Reply(_) | Message::ReadReply(_) => Vec::new(),
        };
        self.chassis.metrics.note_log_size(self.chassis.log.len());
        actions
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        if let Some(actions) = self.chassis.timer_gate(timer, now, Some(&mut self.signing)) {
            return actions;
        }
        match timer {
            Timer::RequestProgress { .. }
            | Timer::ForwardedRequest { .. }
            | Timer::ViewChange { .. } => self.on_suspicion_timer(timer, now),
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

    fn request_mode_switch(&mut self, mode: Mode, now: Instant) -> Vec<Action> {
        self.chassis.trace_at = now;
        self.initiate_mode_switch(mode, now)
    }

    fn is_crashed(&self) -> bool {
        self.chassis.crashed
    }

    fn crash(&mut self) {
        self.chassis.crashed = true;
    }
}
