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
//! every replica. View change (the shared one of
//! [`seemore_core::view_change`]): replicas send `VIEW-CHANGE` evidence to
//! everyone and the new primary emits a `NEW-VIEW` re-proposing undecided
//! requests.

use crate::config::BaselineConfig;
use seemore_app::StateMachine;
use seemore_core::actions::{Action, Timer};
use seemore_core::chassis::{Duties, Inbound, ReplicaChassis, SigningContext};
use seemore_core::checkpoint::StabilityRule;
use seemore_core::config::ProtocolConfig;
use seemore_core::exec::ExecutedEntry;
use seemore_core::log::Proposal;
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::reads::ReadRule;
use seemore_core::state_transfer::{Adoption, TransferRules};
use seemore_core::view_change::{
    Carried, Expiry, Grace, Suspicion, ViewChangeInput, ViewChangeRules,
};
use seemore_crypto::{Digest, KeyStore, Signature};
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::{EventKind, Recorder};
use seemore_types::{Instant, Mode, NodeId, ReplicaId, SeqNum, View};
use seemore_wire::{Batch, ClientRequest, Commit, Message, PbftPrepare, PrePrepare};
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
        // No replica is trusted alone: a catch-up asks everyone, and `f + 1`
        // matching responses include an honest one.
        let transfer = TransferRules {
            trusted: 0,
            ask: config.network_size,
            guarded: true,
            adoption: Adoption::Matching(config.fault_bound as usize + 1),
        };
        BftReplica {
            chassis: ReplicaChassis::new(
                id,
                config.network_size,
                pconfig,
                Mode::Peacock,
                StabilityRule::Quorum(config.reply_quorum as usize),
                transfer,
                app,
            ),
            signing: SigningContext::new(id, keystore),
            config,
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
        let id = replica.chassis.id;
        for record in replica.chassis.restore(store) {
            match &record {
                // Its own PRE-PREPARE was this (primary) replica's prepare
                // vote, and a COMMIT says the slot was prepared.
                WalRecord::Vote(Message::PrePrepare(p)) => {
                    if let Some(instance) = replica.chassis.replayed(p.seq) {
                        instance.record_pbft_prepare(id, p.digest);
                    }
                }
                WalRecord::Vote(Message::Commit(c)) => {
                    if let Some(instance) = replica.chassis.replayed(c.seq) {
                        instance.prepared = true;
                        instance.record_commit(c.replica, c.digest);
                        replica.chassis.reads.note_prepared(c.seq);
                    }
                }
                _ => {}
            }
            replica.chassis.replay(record);
        }
        replica
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
        if self.chassis.in_view_change() {
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
            || self.chassis.in_view_change()
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
        if self.chassis.in_view_change()
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
            || self.chassis.in_view_change()
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
            || self.chassis.in_view_change()
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

    // --------------------------------------------------------------
    // View change
    // --------------------------------------------------------------

    /// PBFT's values for the view change to `view`: the primary of that
    /// view collects from `2f` others, more than `f` votes for a newer view
    /// make a replica join, a vote carries its prepared slots (PBFT has no
    /// commit certificates), and the `NEW-VIEW` embeds the votes.
    fn view_change_rules(&self, view: View) -> ViewChangeRules {
        ViewChangeRules {
            view,
            mode: Mode::Peacock,
            collector: Some(self.config.primary(view)),
            threshold: self.config.view_change_threshold() as usize,
            join_after: self.config.fault_bound as usize,
            voter: true,
            carried: Carried::Prepared,
            promote_prepared: None,
            embed_votes: true,
            recipients: self.config.replicas().collect(),
        }
    }

    /// Runs one view-change step (see [`seemore_core::view_change`]). Once
    /// a `NEW-VIEW` is installed, every replica counts the new primary's
    /// implicit prepare and its own for each re-proposed slot and a backup
    /// broadcasts its signed prepare; requests stranded in the batch buffer
    /// are proposed by the new primary and forwarded by everyone else.
    fn view_change(&mut self, input: ViewChangeInput, now: Instant) -> Vec<Action> {
        let rules = self.view_change_rules(input.target().0);
        let mut actions = Vec::new();
        let signing = Some(&mut self.signing);
        let Some(installed) = self
            .chassis
            .view_change(&mut actions, input, &rules, signing)
        else {
            return actions;
        };
        let (primary, id) = (self.primary(), self.chassis.id);
        for (seq, digest) in installed.reproposed {
            let instance = self.chassis.log.instance_mut(seq);
            instance.record_pbft_prepare(primary, digest);
            instance.record_pbft_prepare(id, digest);
            if primary != id {
                let mut vote = PbftPrepare {
                    view: self.chassis.view,
                    seq,
                    digest,
                    replica: id,
                    signature: Signature::INVALID,
                };
                vote.signature = self.signing.sign(&vote);
                self.chassis
                    .broadcast(&mut actions, Message::PbftPrepare(vote));
            }
        }
        self.execute_ready(&mut actions);
        let stranded = self.chassis.take_stranded(&mut actions);
        if primary == id {
            for request in stranded {
                self.buffer_or_propose(&mut actions, request, now);
            }
            // Recovery must not wait out the flush delay.
            if let Some(batch) = self.chassis.flush_batch(&mut actions) {
                self.propose_batch(&mut actions, batch);
            }
        } else {
            let to = NodeId::Replica(primary);
            for request in stranded {
                self.chassis
                    .send(&mut actions, to, Message::Request(request));
            }
        }
        actions
    }

    /// The batch flush timer of `generation` fired: propose the buffer
    /// (primary) or re-route it to the current primary (a replica deposed
    /// while buffering).
    fn on_batch_flush(&mut self, generation: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.chassis.flush_timer_is_current(generation) || self.chassis.in_view_change() {
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
        let message = match self
            .chassis
            .receive(from, message, now, Some(&mut self.signing))
        {
            Inbound::Deliver(message) => message,
            // Execute what adopted state made ready and, if that ended the
            // rejoin, re-deliver what arrived meanwhile.
            Inbound::Adopted => {
                let mut actions = Vec::new();
                self.execute_ready(&mut actions);
                for (from, message) in self.chassis.finish_recovery(&mut actions) {
                    actions.extend(self.on_message(from, message, now));
                }
                return actions;
            }
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
            Message::ViewChange(vote) => self.view_change(ViewChangeInput::Vote(from, vote), now),
            Message::NewView(new_view) => {
                self.view_change(ViewChangeInput::NewView(from, new_view), now)
            }
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
            | Timer::ViewChange { .. } => {
                let suspicion = Suspicion {
                    primary: self.primary(),
                    voter: true,
                    grace: Grace::NewerView,
                };
                let mut actions = Vec::new();
                match self
                    .chassis
                    .on_suspicion_timer(&mut actions, timer, suspicion)
                {
                    Expiry::Suspect(view) => {
                        self.view_change(ViewChangeInput::Start(view, Mode::Peacock), now)
                    }
                    Expiry::Quiet | Expiry::Regranted => actions,
                }
            }
            Timer::BatchFlush { generation } => self.on_batch_flush(generation),
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
    use seemore_core::chassis::NOOP_CLIENT;
    use seemore_core::check::{self, History};
    use seemore_core::testkit::SyncCluster;
    use seemore_types::{ClientId, Duration};
    use seemore_wire::{NewView, PrepareCert, ViewChange};

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

    /// The BFT twin of the SeeMoRe core's
    /// `view_change_preserves_prepared_but_uncommitted_batches`: r1 and r2
    /// prepare the batch (with the primary's implicit vote), r3 never sees
    /// it, so it commits nowhere; the view change carries it and the new
    /// primary re-proposes it whole, in batch order, exactly once.
    #[test]
    fn bft_view_change_preserves_prepared_but_uncommitted_batches() {
        use seemore_core::batching::BatchConfig;

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(26, config.network_size, 3);
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            cluster.add_replica(Box::new(BftReplica::new(
                replica,
                config,
                pconfig,
                keystore.clone(),
                Box::new(KvStore::new()),
            )));
        }
        for client in 0..3u64 {
            cluster.add_client(BaselineClient::new(
                ClientId(client),
                config,
                keystore.clone(),
                Duration::from_millis(100),
            ));
        }
        let primary = config.primary(View::ZERO);
        let late = ReplicaId(3);

        for client in 0..3u64 {
            cluster.submit(ClientId(client), format!("k{client}").into_bytes());
        }
        for _ in 0..3 {
            assert!(cluster.step(), "request delivery");
        }
        cluster.isolate(primary);
        cluster.isolate(late);
        cluster.run_to_quiescence(LIMIT);
        cluster.reconnect(late);
        let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != primary).collect();
        for replica in &alive {
            assert!(
                cluster.replica(*replica).executed().is_empty(),
                "{replica} committed early"
            );
        }

        cluster.fire_all_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);
        cluster.fire_client_timers(LIMIT);
        cluster.run_to_quiescence(LIMIT);

        for replica in &alive {
            assert!(cluster.replica(*replica).view() > View::ZERO, "{replica}");
            let executed: Vec<u64> = cluster
                .replica(*replica)
                .executed()
                .iter()
                .filter(|e| e.request.client != NOOP_CLIENT)
                .map(|e| e.request.client.0)
                .collect();
            assert_eq!(executed, vec![0, 1, 2], "{replica} lost or reordered it");
        }
        let histories: Vec<History> = alive
            .iter()
            .map(|r| (*r, cluster.replica(*r).executed()))
            .collect();
        check::safety(&histories, &[]).unwrap();
        for client in 0..3u64 {
            assert_eq!(cluster.client(ClientId(client)).completed().len(), 1);
        }
    }

    /// A signed VIEW-CHANGE `vote` from `voter` for view 1.
    fn signed_vote(keystore: &KeyStore, voter: ReplicaId, prepares: Vec<PrepareCert>) -> Message {
        use seemore_wire::SignedPayload;
        let mut vote = ViewChange {
            new_view: View(1),
            mode: Mode::Peacock,
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
        Message::ViewChange(vote)
    }

    /// Certificate re-validation at the collector: a carried batch that does
    /// not hash to its certificate's digest, or that holds a member request
    /// whose client signature does not verify, is not re-proposed; its slot
    /// becomes a no-op in the NEW-VIEW.
    #[test]
    fn bft_new_view_fills_invalid_certificates_with_no_ops() {
        use seemore_types::Timestamp;

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(27, config.network_size, 1);
        let collector = config.primary(View(1));
        let mut replica = BftReplica::new(
            collector,
            config,
            ProtocolConfig::default(),
            keystore.clone(),
            Box::new(KvStore::new()),
        );
        let client = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let request = |ts: u64| {
            ClientRequest::new(
                ClientId(0),
                Timestamp(ts),
                format!("op{ts}").into_bytes(),
                &client,
            )
        };
        let cert = |seq: u64, batch: Batch| PrepareCert {
            view: View::ZERO,
            seq: SeqNum(seq),
            digest: batch.digest(),
            primary_signature: Signature::INVALID,
            batch: Some(batch),
        };
        let mut wrong_digest = cert(1, Batch::single(request(1)));
        wrong_digest.digest = Digest::of_bytes(b"some other batch");
        let mut forged = request(2);
        forged.operation = b"forged".to_vec();
        let valid = cert(3, Batch::single(request(3)));
        let prepares = vec![wrong_digest, cert(2, Batch::single(forged)), valid.clone()];

        let mut new_view = None;
        for voter in [ReplicaId(2), ReplicaId(3)] {
            let vote = signed_vote(&keystore, voter, prepares.clone());
            let actions = replica.on_message(NodeId::Replica(voter), vote, Instant::ZERO);
            new_view =
                new_view.or(actions
                    .iter()
                    .flat_map(Action::sends)
                    .find_map(|(_, message)| match message {
                        Message::NewView(new_view) => Some(new_view.clone()),
                        _ => None,
                    }));
        }
        let new_view = new_view.expect("two votes from others complete the NEW-VIEW");
        assert_eq!(replica.view(), View(1));
        let slots: Vec<(u64, bool)> = new_view
            .prepares
            .iter()
            .map(|cert| {
                let noop = cert
                    .batch
                    .as_ref()
                    .is_some_and(|batch| batch.iter().all(|r| r.client == NOOP_CLIENT));
                (cert.seq.0, noop)
            })
            .collect();
        assert_eq!(slots, vec![(1, true), (2, true), (3, false)]);
        assert_eq!(new_view.prepares[2].digest, valid.digest);
    }

    /// Only the primary of the view being installed may send its NEW-VIEW;
    /// a correctly signed one from anybody else is refused and counted.
    #[test]
    fn bft_refuses_a_new_view_from_a_replica_that_is_not_its_primary() {
        use seemore_wire::SignedPayload;

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(28, config.network_size, 1);
        let mut replica = BftReplica::new(
            ReplicaId(2),
            config,
            ProtocolConfig::default(),
            keystore.clone(),
            Box::new(KvStore::new()),
        );
        let impostor = ReplicaId(3);
        assert_ne!(config.primary(View(1)), impostor);
        let mut new_view = NewView {
            view: View(1),
            mode: Mode::Peacock,
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
            Instant::ZERO,
        );
        assert_eq!(replica.view(), View::ZERO);
        assert_eq!(replica.metrics().rejected_messages, 1);
    }

    /// PBFT's view change has no commit certificates: one in a `NEW-VIEW`
    /// would let the new primary order a batch on its word alone, so an
    /// installing backup ignores it and executes nothing it carries.
    #[test]
    fn bft_backups_ignore_commit_certificates_in_a_new_view() {
        use seemore_types::Timestamp;
        use seemore_wire::{CommitCert, SignedPayload};

        let config = BaselineConfig::bft(1);
        let keystore = KeyStore::generate(29, config.network_size, 1);
        let mut replica = BftReplica::new(
            ReplicaId(2),
            config,
            ProtocolConfig::default(),
            keystore.clone(),
            Box::new(KvStore::new()),
        );
        let client = keystore.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let batch = Batch::single(ClientRequest::new(
            ClientId(0),
            Timestamp(1),
            b"op".to_vec(),
            &client,
        ));
        let collector = config.primary(View(1));
        let mut new_view = NewView {
            view: View(1),
            mode: Mode::Peacock,
            prepares: Vec::new(),
            commits: vec![CommitCert {
                view: View::ZERO,
                seq: SeqNum(1),
                digest: batch.digest(),
                primary_signature: Signature::INVALID,
                batch: Some(batch),
            }],
            checkpoint: None,
            view_change_proof: Vec::new(),
            replica: collector,
            signature: Signature::INVALID,
        };
        new_view.signature = keystore
            .signer_for(NodeId::Replica(collector))
            .unwrap()
            .sign(&new_view.signing_bytes());
        replica.on_message(
            NodeId::Replica(collector),
            Message::NewView(new_view),
            Instant::ZERO,
        );
        assert_eq!(replica.view(), View(1));
        assert!(replica.executed().is_empty());
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
