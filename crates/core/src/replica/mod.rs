//! The SeeMoRe replica: one state machine implementing the Lion, Dog and
//! Peacock modes, their view changes, checkpointing and dynamic mode
//! switching.
//!
//! [`SeeMoReReplica`] owns a [`ReplicaChassis`] — the message log, the
//! execution engine with its replies and checkpoint announcements, the
//! checkpoint manager, the outgoing path, batch admission, the read fast
//! path, durability, checkpoints and state transfer, the rejoin exchange
//! and the view change, all shared with the CFT and BFT baselines — plus a
//! [`SigningContext`], and keeps what is SeeMoRe's own: the three modes'
//! agreement, who may serve reads and who replies and announces in each
//! mode, the values each mode's view change runs under, mode switching, and
//! the trust it gives the private cloud ([`TransferRules`]).
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
use crate::metrics::ReplicaMetrics;
use crate::protocol::ReplicaProtocol;
use crate::reads::ReadRule;
use crate::state_transfer::{Adoption, TransferRules};
use crate::view_change::ViewChangeInput;
use seemore_app::StateMachine;
use seemore_crypto::KeyStore;
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::Recorder;
use seemore_types::{
    ClusterConfig, Instant, Mode, NodeId, ProtocolViolation, ReplicaId, RequestId, SeqNum, View,
};
use seemore_wire::{ClientRequest, Message};
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
        // The private cloud is trusted, and a catch-up asks it too.
        let transfer = TransferRules {
            trusted: cluster.private_size(),
            ask: cluster.private_size(),
            adoption: Adoption::Trusted,
        };
        let size = cluster.total_size();
        SeeMoReReplica {
            chassis: ReplicaChassis::new(id, size, pconfig, mode, rule, transfer, app),
            signing: SigningContext::new(id, keystore),
            cluster,
            forwarded_requests: HashMap::new(),
            pending_mode: None,
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
    /// recovery, and the first `STATE-RESPONSE` from a replica completes the
    /// rejoin (see [`crate::state_transfer`]).
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
            let view_entered = matches!(record, WalRecord::ViewEntered { .. });
            if let WalRecord::Vote(Message::Commit(c)) = &record {
                // The guards in `try_commit_*` key off these flags, so the
                // restarted replica cannot emit a conflicting commit.
                if let Some(instance) = replica.chassis.replayed(c.seq) {
                    instance.record_commit(c.replica, c.digest);
                    instance.commit_sent = true;
                    instance.prepared = true;
                }
            }
            replica.chassis.replay(record);
            if view_entered {
                let rule = Self::stability_rule_for(replica.chassis.mode, &replica.cluster);
                replica.chassis.checkpoints.set_rule(rule);
            }
        }
        replica
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
        if !self.signing.verify(
            NodeId::Client(request.client()),
            &request,
            &request.signature,
        ) {
            actions.push(self.chassis.violation(ProtocolViolation::BadSignature {
                claimed_signer: NodeId::Client(request.client()),
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
        if self.chassis.exec.last_timestamp(request.client()) < Some(request.timestamp())
            || self.chassis.exec.last_timestamp(request.client()).is_none()
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
}

impl ReplicaProtocol for SeeMoReReplica {
    fn id(&self) -> ReplicaId {
        self.chassis.id
    }

    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        self.chassis.on_start(now, Some(&mut self.signing))
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        let message = match self
            .chassis
            .receive(from, message, now, Some(&mut self.signing))
        {
            Inbound::Deliver(message) => message,
            // Execute what adopted state made ready and, if that ended the
            // rejoin, re-deliver what arrived meanwhile.
            Inbound::Adopted => {
                let mut actions = Vec::new();
                self.execute_ready(&mut actions, now);
                for (from, message) in self.chassis.finish_recovery(&mut actions) {
                    actions.extend(self.on_message(from, message, now));
                }
                return actions;
            }
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
            Message::ViewChange(vote) => self.view_change(ViewChangeInput::Vote(from, vote), now),
            Message::NewView(new_view) => {
                self.view_change(ViewChangeInput::NewView(from, new_view), now)
            }
            Message::ModeChange(mode_change) => self.on_mode_change(from, mode_change, now),
            // Replicas never receive replies, and the chassis handles
            // checkpoints and state transfer itself.
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
            Timer::RequestProgress { .. }
            | Timer::ForwardedRequest { .. }
            | Timer::ViewChange { .. } => self.on_suspicion_timer(timer, now),
            Timer::BatchFlush { generation } => self.on_batch_flush(generation, now),
            Timer::Recovery | Timer::ClientRetransmit { .. } => Vec::new(),
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
