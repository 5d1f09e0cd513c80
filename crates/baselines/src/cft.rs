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
//! View changes run the shared view change of [`seemore_core::view_change`]
//! like SeeMoRe's Lion mode, but without any cryptographic evidence (crash
//! faults cannot forge messages).

use crate::config::BaselineConfig;
use seemore_app::StateMachine;
use seemore_core::actions::{Action, Timer};
use seemore_core::chassis::{Duties, Inbound, ReplicaChassis};
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
use seemore_crypto::{Digest, Signature};
use seemore_store::{Durability, WalRecord};
use seemore_telemetry::{EventKind, Recorder};
use seemore_types::{Instant, Mode, NodeId, ReplicaId, SeqNum, View};
use seemore_wire::{Accept, Batch, ClientRequest, Commit, Message, Prepare};
use std::sync::Arc;

/// A crash fault-tolerant (Paxos-style) replica.
pub struct CftReplica {
    /// The protocol-independent half shared with the SeeMoRe replica and
    /// the BFT baseline (see [`seemore_core::chassis`]). Crash-only
    /// deployments sign nothing, so there is no signing context beside it;
    /// trace events carry [`Mode::Lion`], the closest SeeMoRe analogue.
    chassis: ReplicaChassis,
    config: BaselineConfig,
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
        // Crash faults cannot lie: every replica is believed, and a catch-up
        // asks the announcer at every stable checkpoint.
        let transfer = TransferRules {
            trusted: config.network_size,
            ask: 0,
            adoption: Adoption::Trusted,
        };
        CftReplica {
            chassis: ReplicaChassis::new(
                id,
                config.network_size,
                pconfig,
                Mode::Lion,
                StabilityRule::TrustedSigner,
                transfer,
                app,
            ),
            config,
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
            // A COMMIT is the leader's decision, so the slot is committed.
            if let WalRecord::Vote(Message::Commit(c)) = &record {
                if let Some(instance) = replica.chassis.replayed(c.seq) {
                    instance.commit_sent = true;
                    instance.committed = true;
                }
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

    /// The leader serves reads under the same propose-time-anchored lease as
    /// SeeMoRe's trusted primary, fenced at its proposal frontier; everyone
    /// else, and everyone during a view change, refuses.
    fn read_rule(&self, now: Instant) -> ReadRule {
        if self.is_primary() && !self.chassis.in_view_change() {
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
        if self.chassis.reply_from_cache(&mut actions, &request, None)
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
        if self.chassis.in_view_change()
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
        if !self.is_primary() || accept.view != self.chassis.view || self.chassis.in_view_change() {
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
            || self.chassis.in_view_change()
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

    // --------------------------------------------------------------
    // View change
    // --------------------------------------------------------------

    /// Multi-Paxos's values for the view change to `view`: the leader of
    /// that view collects from `f` others, one vote for a newer view is
    /// enough to join (crash faults cannot lie), and a vote carries every
    /// proposal, committed ones as commit certificates.
    fn view_change_rules(&self, view: View) -> ViewChangeRules {
        ViewChangeRules {
            view,
            mode: Mode::Lion,
            collector: Some(self.config.primary(view)),
            threshold: self.config.view_change_threshold() as usize,
            join_after: 0,
            voter: true,
            carried: Carried::CommitsAndProposals,
            promote_prepared: None,
            embed_votes: false,
            recipients: self.config.replicas().collect(),
        }
    }

    /// Runs one view-change step (see [`seemore_core::view_change`]). Once
    /// a `NEW-VIEW` is installed, a backup accepts each re-proposed slot to
    /// the new leader, and requests stranded in the batch buffer are
    /// proposed by the new leader and forwarded by everyone else.
    fn view_change(&mut self, input: ViewChangeInput, now: Instant) -> Vec<Action> {
        let rules = self.view_change_rules(input.target().0);
        let mut actions = Vec::new();
        let Some(installed) = self.chassis.view_change(&mut actions, input, &rules, None) else {
            return actions;
        };
        let primary = self.primary();
        for (seq, digest) in installed.reproposed {
            if primary != self.chassis.id {
                let accept = Accept {
                    view: self.chassis.view,
                    seq,
                    digest,
                    replica: self.chassis.id,
                    signature: None,
                };
                let to = NodeId::Replica(primary);
                self.chassis.send(&mut actions, to, Message::Accept(accept));
            }
        }
        self.execute_ready(&mut actions, now);
        let stranded = self.chassis.take_stranded(&mut actions);
        if primary == self.chassis.id {
            for request in stranded {
                self.buffer_or_propose(&mut actions, request, now);
            }
            // Recovery must not wait out the flush delay.
            if let Some(batch) = self.chassis.flush_batch(&mut actions) {
                self.propose_batch(&mut actions, batch, now);
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
    /// (leader) or re-route it to the current leader (a replica deposed
    /// while buffering).
    fn on_batch_flush(&mut self, generation: u64, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.chassis.flush_timer_is_current(generation) || self.chassis.in_view_change() {
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
        let message = match self.chassis.receive(from, message, now, None) {
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
        let actions = match message {
            Message::Request(request) => self.on_request(request, now),
            Message::ReadRequest(read) => {
                let rule = self.read_rule(now);
                self.chassis.on_read_request(read, rule, None)
            }
            Message::Prepare(prepare) => self.on_prepare(from, prepare),
            Message::Accept(accept) => self.on_accept(from, accept, now),
            Message::Commit(commit) => self.on_commit(from, commit, now),
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
        if let Some(actions) = self.chassis.timer_gate(timer, now, None) {
            return actions;
        }
        match timer {
            Timer::RequestProgress { .. }
            | Timer::ForwardedRequest { .. }
            | Timer::ViewChange { .. } => {
                let suspicion = Suspicion {
                    primary: self.primary(),
                    voter: true,
                    grace: Grace::None,
                };
                let mut actions = Vec::new();
                match self
                    .chassis
                    .on_suspicion_timer(&mut actions, timer, suspicion)
                {
                    Expiry::Suspect(view) => {
                        self.view_change(ViewChangeInput::Start(view, Mode::Lion), now)
                    }
                    Expiry::Quiet | Expiry::Regranted => actions,
                }
            }
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
    use seemore_wire::{NewView, ViewChange};

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

    /// The CFT twin of the SeeMoRe core's
    /// `view_change_preserves_prepared_but_uncommitted_batches`: a batch the
    /// backups accepted but the crashed leader never committed is carried by
    /// the view change and re-proposed whole, in batch order, exactly once.
    #[test]
    fn cft_view_change_preserves_prepared_but_uncommitted_batches() {
        use seemore_core::batching::BatchConfig;
        use seemore_core::chassis::NOOP_CLIENT;
        use seemore_core::check::{self, History};

        let config = BaselineConfig::cft(1);
        let keystore = KeyStore::generate(9, config.network_size, 3);
        let pconfig =
            ProtocolConfig::default().with_batching(BatchConfig::new(3, Duration::from_millis(1)));
        let mut cluster = SyncCluster::new();
        for replica in config.replicas() {
            cluster.add_replica(Box::new(CftReplica::new(
                replica,
                config,
                pconfig,
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
        let leader = config.primary(View::ZERO);

        // The third request fills the batch and queues the PREPAREs; the
        // leader is cut off before any ACCEPT reaches it.
        for client in 0..3u64 {
            cluster.submit(ClientId(client), format!("k{client}").into_bytes());
        }
        for _ in 0..3 {
            assert!(cluster.step(), "request delivery");
        }
        cluster.isolate(leader);
        cluster.run_to_quiescence(100_000);
        let alive: Vec<ReplicaId> = config.replicas().filter(|r| *r != leader).collect();
        for replica in &alive {
            assert!(cluster.replica(*replica).executed().is_empty());
        }

        cluster.fire_all_timers(100_000);
        cluster.run_to_quiescence(100_000);
        cluster.fire_client_timers(100_000);
        cluster.run_to_quiescence(100_000);

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

    /// Only the leader of the view being installed may send its NEW-VIEW;
    /// one from anybody else is refused and counted.
    #[test]
    fn cft_refuses_a_new_view_from_a_replica_that_is_not_its_leader() {
        let config = BaselineConfig::cft(1);
        let mut replica = CftReplica::new(
            ReplicaId(2),
            config,
            ProtocolConfig::default(),
            Box::new(KvStore::new()),
        );
        let impostor = ReplicaId(0);
        assert_ne!(config.primary(View(1)), impostor);
        let new_view = NewView {
            view: View(1),
            mode: Mode::Lion,
            prepares: Vec::new(),
            commits: Vec::new(),
            checkpoint: None,
            view_change_proof: Vec::new(),
            replica: impostor,
            signature: Signature::INVALID,
        };
        replica.on_message(
            NodeId::Replica(impostor),
            Message::NewView(new_view),
            Instant::ZERO,
        );
        assert_eq!(replica.view(), View::ZERO);
        assert_eq!(replica.metrics().rejected_messages, 1);
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
