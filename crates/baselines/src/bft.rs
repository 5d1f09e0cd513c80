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
use seemore_core::batching::AdaptiveBatcher;
use seemore_core::checkpoint::{CheckpointManager, StabilityRule};
use seemore_core::config::ProtocolConfig;
use seemore_core::exec::{ExecutedEntry, ExecutionEngine};
use seemore_core::log::{MessageLog, Proposal};
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::reads::ParkedReads;
use seemore_crypto::VerifyCache;
use seemore_crypto::{Digest, KeyStore, Signature, Signer};
use seemore_store::{Durability, DurableCheckpoint, NullStore, WalRecord};
use seemore_telemetry::{EventKind, NullRecorder, Recorder, TraceEvent};
use seemore_types::{
    ClientId, Instant, Mode, NodeId, ReplicaId, RequestId, SeqNum, Timestamp, View,
};
use seemore_wire::{
    Batch, Checkpoint, ClientReply, ClientRequest, Commit, Message, MessageKind, NewView,
    PbftPrepare, PrePrepare, PrepareCert, ReadReply, ReadRequest, Recovery, SignedPayload,
    SigningScratch, StateRequest, StateResponse, ViewChange, WireSize,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The pseudo-client used for no-op gap fillers during view changes.
const NOOP_CLIENT: ClientId = ClientId(u64::MAX);

/// A PBFT-style replica, parameterized by a [`BaselineConfig`].
pub struct BftReplica {
    id: ReplicaId,
    config: BaselineConfig,
    pconfig: ProtocolConfig,
    keystore: KeyStore,
    signer: Signer,
    view: View,
    log: MessageLog,
    exec: ExecutionEngine,
    checkpoints: CheckpointManager,
    next_seq: SeqNum,
    assigned: HashMap<RequestId, SeqNum>,
    /// Pending requests accumulating into the next batch (primary only),
    /// plus the shared controller deciding when to cut them.
    batcher: AdaptiveBatcher,
    in_view_change: bool,
    target_view: View,
    view_changes: BTreeMap<View, BTreeMap<ReplicaId, ViewChange>>,
    new_view_sent: Vec<View>,
    /// View in which each progress timer was armed (stale timers re-arm
    /// instead of deposing a freshly installed primary).
    progress_armed: HashMap<SeqNum, View>,
    /// View in which each forwarded-request timer was armed.
    forwarded_armed: HashMap<RequestId, View>,
    /// Highest slot this replica has *prepared* (2f+1 matching prepare
    /// votes). Reads are fenced at this frontier: an acknowledged write's
    /// commit quorum contains at least f+1 honest prepared replicas, so
    /// once every prepared slot is executed locally at most f honest
    /// replicas can still answer with the pre-write value — not enough,
    /// with f Byzantine ones, for a 2f+1 matching stale quorum.
    highest_prepared: SeqNum,
    /// Fast-path reads parked until the prepared frontier is executed.
    parked_reads: ParkedReads,
    /// Reusable buffer for canonical signing bytes (allocation-free
    /// sign/verify, shared seam with the SeeMoRe cores).
    scratch: SigningScratch,
    /// Bounded memo of already-verified signatures (`None` when disabled by
    /// [`ProtocolConfig::verify_memo`]).
    verify_memo: Option<VerifyCache>,
    metrics: ReplicaMetrics,
    crashed: bool,
    /// Durable vote/checkpoint store ([`NullStore`] unless the deployment
    /// opts into persistence).
    store: Arc<dyn Durability>,
    /// True between a durable restart and the rejoin quorum's completion.
    recovering: bool,
    /// WAL records replayed at the last restart (telemetry detail).
    wal_replayed: u64,
    /// Protocol traffic parked while rejoining, re-delivered afterwards.
    recovery_buffer: std::collections::VecDeque<(NodeId, Message)>,
    /// `STATE-RESPONSE`s collected while rejoining; the snapshot is adopted
    /// only once `f + 1` distinct replicas vouch for the same checkpoint
    /// digest, so at least one honest replica stands behind it.
    recovery_responses: Vec<(ReplicaId, StateResponse)>,
    /// True while a checkpoint-triggered catch-up (outside recovery) awaits
    /// its `f + 1` matching `STATE-RESPONSE`s.
    catching_up: bool,
    /// Highest checkpoint written to the durable store (skip re-persisting).
    persisted_checkpoint: SeqNum,
    /// Structured-event sink (a no-op [`NullRecorder`] unless the runtime
    /// attaches a real one).
    recorder: Arc<dyn Recorder>,
    /// Timestamp of the protocol input currently being processed; stamps
    /// every event emitted while handling it.
    trace_at: Instant,
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
        let signer = keystore
            .signer_for(NodeId::Replica(id))
            .expect("key store must contain a signer for this replica");
        BftReplica {
            id,
            config,
            pconfig,
            keystore,
            signer,
            view: View::ZERO,
            log: MessageLog::new(),
            exec: ExecutionEngine::new(app),
            checkpoints: CheckpointManager::new(
                pconfig.checkpoint_period,
                StabilityRule::Quorum(config.reply_quorum as usize),
            ),
            next_seq: SeqNum(0),
            assigned: HashMap::new(),
            batcher: AdaptiveBatcher::new(pconfig.batch),
            in_view_change: false,
            target_view: View::ZERO,
            view_changes: BTreeMap::new(),
            new_view_sent: Vec::new(),
            progress_armed: HashMap::new(),
            forwarded_armed: HashMap::new(),
            highest_prepared: SeqNum(0),
            parked_reads: ParkedReads::new(),
            scratch: SigningScratch::new(),
            verify_memo: pconfig.verify_memo.then(VerifyCache::default),
            metrics: ReplicaMetrics::default(),
            crashed: false,
            store: Arc::new(NullStore),
            recovering: false,
            wal_replayed: 0,
            recovery_buffer: std::collections::VecDeque::new(),
            recovery_responses: Vec::new(),
            catching_up: false,
            persisted_checkpoint: SeqNum(0),
            recorder: Arc::new(NullRecorder),
            trace_at: Instant::ZERO,
        }
    }

    /// Attaches a durability store (see the SeeMoRe core's `set_store`).
    pub fn set_store(&mut self, store: Arc<dyn Durability>) {
        self.store = store;
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
        let state = store.recover().unwrap_or_default();
        replica.store = store;
        if let Some(cp) = &state.checkpoint {
            replica.exec.restore(&cp.snapshot);
            replica
                .checkpoints
                .make_stable(cp.seq, cp.state_digest, cp.proof.clone());
            replica.log.garbage_collect(cp.seq);
            replica.persisted_checkpoint = cp.seq;
        }
        replica.wal_replayed = state.wal.len() as u64;
        for record in state.wal {
            replica.replay_record(record);
        }
        replica.recovering = true;
        replica
    }

    /// Replays one WAL record. Replay only re-arms local vote state — the
    /// `prepared`/`committed` flags and recorded votes keep the replica from
    /// ever contradicting a persisted vote (no-un-vote), and the vote paths'
    /// existing idempotency guards make double-replay harmless.
    fn replay_record(&mut self, record: WalRecord) {
        let low_mark = self.log.low_mark();
        let my_id = self.id;
        match record {
            WalRecord::ViewEntered { view, .. } => {
                if view >= self.view {
                    self.view = view;
                }
            }
            WalRecord::Vote(Message::PrePrepare(p)) if p.seq > low_mark => {
                self.next_seq = self.next_seq.max(p.seq);
                let digest = p.digest;
                let instance = self.log.instance_mut(p.seq);
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
                self.log
                    .instance_mut(v.seq)
                    .record_pbft_prepare(v.replica, v.digest);
            }
            WalRecord::Vote(Message::Commit(c)) if c.seq > low_mark => {
                let instance = self.log.instance_mut(c.seq);
                instance.prepared = true;
                instance.record_commit(c.replica, c.digest);
                self.highest_prepared = self.highest_prepared.max(c.seq);
            }
            WalRecord::Vote(Message::Checkpoint(cp)) => {
                if self.checkpoints.record(cp, false) {
                    self.log.garbage_collect(self.checkpoints.stable_seq());
                }
            }
            WalRecord::Vote(_) => {}
        }
    }

    /// Appends safety-critical outgoing messages to the WAL before they are
    /// queued (no-un-vote).
    #[inline]
    fn persist_outgoing(&self, message: &Message) {
        if self.store.enabled()
            && matches!(
                message.kind(),
                MessageKind::PrePrepare
                    | MessageKind::PbftPrepare
                    | MessageKind::Commit
                    | MessageKind::Checkpoint
            )
        {
            self.store.append(&WalRecord::Vote(message.clone()));
        }
    }

    /// Attaches a structured-event recorder (replacing the no-op default).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Records one protocol event, stamped with the input's arrival time.
    #[inline]
    fn trace(
        &self,
        kind: EventKind,
        slot: Option<SeqNum>,
        request: Option<RequestId>,
        detail: u64,
    ) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent {
                seq: 0,
                at: self.trace_at,
                node: NodeId::Replica(self.id),
                view: self.view,
                mode: Mode::Peacock,
                slot,
                request,
                kind,
                detail,
            });
        }
    }

    fn primary(&self) -> ReplicaId {
        self.config.primary(self.view)
    }

    fn is_primary(&self) -> bool {
        self.primary() == self.id
    }

    fn send(&mut self, actions: &mut Vec<Action>, to: NodeId, message: Message) {
        self.persist_outgoing(&message);
        self.metrics
            .record_sent(message.kind(), message.wire_size());
        actions.push(Action::Send { to, message });
    }

    fn broadcast(&mut self, actions: &mut Vec<Action>, message: Message) {
        self.persist_outgoing(&message);
        let recipients: Vec<NodeId> = self
            .config
            .replicas()
            .filter(|r| *r != self.id)
            .map(NodeId::Replica)
            .collect();
        for _ in &recipients {
            self.metrics
                .record_sent(message.kind(), message.wire_size());
        }
        seemore_core::actions::broadcast(actions, recipients, message, None);
    }

    /// Signs `payload`'s canonical bytes through the reusable scratch
    /// buffer — no allocation per signature.
    fn sign_payload(&mut self, payload: &impl SignedPayload) -> Signature {
        self.signer.sign(self.scratch.bytes_of(payload))
    }

    /// Verifies `signature` over `payload` through the scratch buffer and
    /// (when enabled) the verified-signature memo, so duplicate deliveries
    /// and certificate re-checks skip the second HMAC. Used only on paths
    /// the protocol re-verifies (retransmitted client requests and reads,
    /// view-change certificate re-checks); quorum votes are verified
    /// exactly once in healthy runs and take [`verify`](Self::verify)
    /// instead, where a memo lookup would be pure overhead.
    fn verify_node(
        &mut self,
        node: NodeId,
        payload: &impl SignedPayload,
        signature: &Signature,
    ) -> bool {
        let Self {
            scratch,
            keystore,
            verify_memo,
            ..
        } = self;
        let bytes = scratch.bytes_of(payload);
        match verify_memo {
            Some(memo) => memo.verify(keystore, node, bytes, signature),
            None => keystore.verify(node, bytes, signature),
        }
    }

    /// Plain (memo-free) replica-signature verification through the scratch
    /// buffer — the vote-path check.
    fn verify(
        &mut self,
        replica: ReplicaId,
        payload: &impl SignedPayload,
        signature: &Signature,
    ) -> bool {
        let Self {
            scratch, keystore, ..
        } = self;
        keystore.verify(
            NodeId::Replica(replica),
            scratch.bytes_of(payload),
            signature,
        )
    }

    fn execute_ready(&mut self, actions: &mut Vec<Action>) {
        let executions = self.exec.execute_ready();
        for execution in executions {
            self.metrics.executed += 1;
            self.trace(
                EventKind::Executed,
                Some(execution.seq),
                Some(execution.request.id()),
                0,
            );
            actions.push(Action::Executed {
                seq: execution.seq,
                request: execution.request.id(),
            });
            actions.push(Action::CancelTimer {
                timer: Timer::RequestProgress { seq: execution.seq },
            });
            actions.push(Action::CancelTimer {
                timer: Timer::ForwardedRequest {
                    request: execution.request.id(),
                },
            });
            self.forwarded_armed.remove(&execution.request.id());
            if execution.request.client != NOOP_CLIENT {
                self.trace(
                    EventKind::Replied,
                    Some(execution.seq),
                    Some(execution.request.id()),
                    0,
                );
                // In PBFT every replica replies; the client waits for f+1
                // matching replies.
                let reply = ClientReply::new_with(
                    &mut self.scratch,
                    &self.signer,
                    Mode::Peacock,
                    self.view,
                    execution.request.id(),
                    self.id,
                    execution.result,
                );
                self.send(
                    actions,
                    NodeId::Client(execution.request.client),
                    Message::Reply(reply),
                );
            }
        }
        self.maybe_checkpoint(actions);
        self.serve_parked_reads(actions);
    }

    fn maybe_checkpoint(&mut self, actions: &mut Vec<Action>) {
        let executed = self.exec.last_executed();
        if !self.checkpoints.should_checkpoint(executed) {
            return;
        }
        let mut checkpoint = Checkpoint {
            seq: executed,
            state_digest: self.exec.state_digest(),
            replica: self.id,
            signature: Signature::INVALID,
        };
        checkpoint.signature = self.sign_payload(&checkpoint);
        if self.checkpoints.record(checkpoint.clone(), false) {
            self.metrics.stable_checkpoints += 1;
            self.after_stable_checkpoint();
        }
        self.broadcast(actions, Message::Checkpoint(checkpoint));
    }

    /// Truncates in-memory state below the stable checkpoint and, when
    /// durability is on, snapshots the checkpoint and compacts the WAL.
    fn after_stable_checkpoint(&mut self) {
        let stable = self.checkpoints.stable_seq();
        self.log.garbage_collect(stable);
        self.progress_armed.retain(|seq, _| *seq > stable);
        self.assigned.retain(|_, seq| *seq > stable);
        if self.store.enabled() && stable > self.persisted_checkpoint {
            let checkpoint = DurableCheckpoint {
                seq: stable,
                state_digest: self.checkpoints.stable_digest(),
                snapshot: self.exec.snapshot(),
                proof: self.checkpoints.stable_proof().to_vec(),
            };
            self.store.persist_checkpoint(&checkpoint);
            self.store.compact_below(stable);
            self.persisted_checkpoint = stable;
            self.trace(EventKind::CheckpointPersisted, Some(stable), None, 0);
        }
    }

    // --------------------------------------------------------------
    // Read-only fast path (PBFT quorum reads)
    // --------------------------------------------------------------

    /// Handles a `READ-REQUEST`: every replica answers from its executed
    /// state (the classic PBFT read-only optimization); the client accepts
    /// only `2f + 1` matching replies, whose intersection with every
    /// committed write's quorum contains an honest replica that had already
    /// executed the write. A view change refuses instead, redirecting the
    /// client to the ordered path.
    fn on_read_request(&mut self, read: ReadRequest, _now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.verify_node(NodeId::Client(read.client), &read, &read.signature) {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        if self.in_view_change {
            self.refuse_read(&mut actions, &read);
            return actions;
        }
        // Prepared fence (see the field docs): answer only once every slot
        // this replica has prepared is executed, otherwise honest laggards
        // could complete a matching-but-stale 2f+1 read quorum against a
        // write that was acknowledged with only f+1 replies.
        let fence = self.highest_prepared;
        if self.exec.last_executed() >= fence {
            self.serve_read(&mut actions, &read);
        } else {
            self.parked_reads.park(fence, read);
        }
        actions
    }

    fn serve_read(&mut self, actions: &mut Vec<Action>, read: &ReadRequest) {
        match self.exec.read(&read.operation) {
            Some(result) => {
                self.metrics.reads_served += 1;
                self.trace(EventKind::Executed, None, Some(read.id()), 0);
                self.trace(EventKind::Replied, None, Some(read.id()), 0);
                let reply = ReadReply::new_with(
                    &mut self.scratch,
                    &self.signer,
                    Mode::Peacock,
                    self.view,
                    read.id(),
                    self.id,
                    self.exec.last_executed(),
                    result,
                );
                self.send(
                    actions,
                    NodeId::Client(read.client),
                    Message::ReadReply(reply),
                );
            }
            None => self.refuse_read(actions, read),
        }
    }

    fn refuse_read(&mut self, actions: &mut Vec<Action>, read: &ReadRequest) {
        self.metrics.reads_refused += 1;
        self.trace(EventKind::ReadRefused, None, Some(read.id()), 0);
        let reply = ReadReply::refusal_with(
            &mut self.scratch,
            &self.signer,
            Mode::Peacock,
            self.view,
            read.id(),
            self.id,
            self.exec.last_executed(),
        );
        self.send(
            actions,
            NodeId::Client(read.client),
            Message::ReadReply(reply),
        );
    }

    fn serve_parked_reads(&mut self, actions: &mut Vec<Action>) {
        for read in self.parked_reads.take_ready(self.exec.last_executed()) {
            self.serve_read(actions, &read);
        }
    }

    fn refuse_parked_reads(&mut self, actions: &mut Vec<Action>) {
        for read in self.parked_reads.drain() {
            self.refuse_read(actions, &read);
        }
    }

    // --------------------------------------------------------------
    // Normal case
    // --------------------------------------------------------------

    fn on_request(&mut self, request: ClientRequest, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.verify_node(NodeId::Client(request.client), &request, &request.signature) {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        if let Some(result) = self
            .exec
            .cached_reply(request.client, request.timestamp)
            .cloned()
        {
            let reply = ClientReply::new_with(
                &mut self.scratch,
                &self.signer,
                Mode::Peacock,
                self.view,
                request.id(),
                self.id,
                result,
            );
            self.send(
                &mut actions,
                NodeId::Client(request.client),
                Message::Reply(reply),
            );
            return actions;
        }
        if self.in_view_change {
            return actions;
        }
        if self.is_primary() {
            self.buffer_or_propose(&mut actions, request, now);
        } else {
            let primary = self.primary();
            let id = request.id();
            self.send(
                &mut actions,
                NodeId::Replica(primary),
                Message::Request(request),
            );
            // Only the first forwarding of a request arms the suspicion
            // timer; client retransmissions must not keep resetting it.
            if !self.forwarded_armed.contains_key(&id) {
                self.forwarded_armed.insert(id, self.view);
                actions.push(Action::SetTimer {
                    timer: Timer::ForwardedRequest { request: id },
                    after: self.pconfig.request_timeout,
                });
            }
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
        let id = request.id();
        if self.assigned.contains_key(&id) {
            return;
        }
        self.trace(EventKind::RequestAdmitted, None, Some(id), 0);
        let in_flight = self.slots_in_flight();
        if let Some(batch) = self
            .batcher
            .offer(request, now, in_flight, actions, &mut self.metrics)
        {
            self.propose_batch(actions, batch);
        }
    }

    /// Slots this primary proposed that have not executed yet — the
    /// occupancy signal the adaptive batching policy grows on.
    fn slots_in_flight(&self) -> u64 {
        self.next_seq.0.saturating_sub(self.exec.last_executed().0)
    }

    /// Assigns a sequence number to `batch` and broadcasts the signed
    /// `PRE-PREPARE`.
    fn propose_batch(&mut self, actions: &mut Vec<Action>, batch: Batch) {
        let seq = SeqNum(self.next_seq.0.max(self.exec.last_executed().0) + 1);
        if !self.log.in_window(seq, self.pconfig.high_water_mark) {
            return;
        }
        self.next_seq = seq;
        for id in batch.request_ids() {
            self.assigned.insert(id, seq);
        }
        if self.recorder.enabled() {
            self.trace(EventKind::BatchCut, Some(seq), None, batch.len() as u64);
            for id in batch.request_ids() {
                self.trace(
                    EventKind::ProposeSent,
                    Some(seq),
                    Some(id),
                    batch.len() as u64,
                );
            }
        }
        let digest = batch.digest();
        let mut preprepare = PrePrepare {
            view: self.view,
            seq,
            digest,
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        preprepare.signature = self.sign_payload(&preprepare);
        let instance = self.log.instance_mut(seq);
        instance.proposal = Some(Proposal {
            view: self.view,
            digest,
            batch,
            primary_signature: preprepare.signature,
        });
        // The primary's pre-prepare counts as its prepare vote.
        instance.record_pbft_prepare(self.id, digest);
        self.broadcast(actions, Message::PrePrepare(preprepare));
        // A one-replica cluster (`f = 0`) is its own quorum: no vote will
        // ever arrive, so the slot prepares and commits here.
        self.try_prepare(actions, seq, digest);
    }

    fn on_pre_prepare(&mut self, from: NodeId, preprepare: PrePrepare) -> Vec<Action> {
        let mut actions = Vec::new();
        if self.in_view_change
            || preprepare.view != self.view
            || from.as_replica() != Some(self.primary())
            || preprepare.digest != preprepare.batch.digest()
            || !self.verify(self.primary(), &preprepare, &preprepare.signature)
            || !self
                .log
                .in_window(preprepare.seq, self.pconfig.high_water_mark)
        {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        let seq = preprepare.seq;
        let digest = preprepare.digest;
        let primary = self.primary();
        let my_id = self.id;
        {
            let instance = self.log.instance_mut(seq);
            if let Some(existing) = &instance.proposal {
                if existing.view == preprepare.view && existing.digest != digest {
                    // Equivocating primary; ignore (the view change timer
                    // handles liveness).
                    self.metrics.rejected_messages += 1;
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
            view: self.view,
            seq,
            digest,
            replica: self.id,
            signature: Signature::INVALID,
        };
        vote.signature = self.sign_payload(&vote);
        self.broadcast(&mut actions, Message::PbftPrepare(vote));
        self.progress_armed.insert(seq, self.view);
        actions.push(Action::SetTimer {
            timer: Timer::RequestProgress { seq },
            after: self.pconfig.request_timeout,
        });
        self.try_prepare(&mut actions, seq, digest);
        actions
    }

    fn on_pbft_prepare(&mut self, from: NodeId, vote: PbftPrepare) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if vote.view != self.view
            || self.in_view_change
            || sender != vote.replica
            || !self.verify(sender, &vote, &vote.signature)
        {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        self.log
            .instance_mut(vote.seq)
            .record_pbft_prepare(sender, vote.digest);
        self.try_prepare(&mut actions, vote.seq, vote.digest);
        actions
    }

    fn try_prepare(&mut self, actions: &mut Vec<Action>, seq: SeqNum, digest: Digest) {
        let quorum = self.config.quorum as usize;
        let instance = self.log.instance_mut(seq);
        if instance.prepared
            || !instance.proposal_matches(self.view, &digest)
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
        instance.record_commit(self.id, digest);
        // Advance the prepared frontier fencing this replica's reads.
        self.highest_prepared = self.highest_prepared.max(seq);
        let mut commit = Commit {
            view: self.view,
            seq,
            digest,
            replica: self.id,
            batch: None,
            signature: Signature::INVALID,
        };
        commit.signature = self.sign_payload(&commit);
        self.broadcast(actions, Message::Commit(commit));
        self.try_commit(actions, seq, digest);
    }

    fn on_commit(&mut self, from: NodeId, commit: Commit) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if commit.view != self.view
            || self.in_view_change
            || sender != commit.replica
            || !self.verify(sender, &commit, &commit.signature)
        {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        self.log
            .instance_mut(commit.seq)
            .record_commit(sender, commit.digest);
        self.try_commit(&mut actions, commit.seq, commit.digest);
        actions
    }

    fn try_commit(&mut self, actions: &mut Vec<Action>, seq: SeqNum, digest: Digest) {
        let quorum = self.config.quorum as usize;
        let instance = self.log.instance_mut(seq);
        let votes = instance.matching_commits(&digest);
        if instance.committed
            || !instance.prepared
            || !instance.proposal_matches(self.view, &digest)
            || votes < quorum
        {
            return;
        }
        instance.committed = true;
        let batch = instance.proposal.as_ref().map(|p| p.batch.clone());
        self.trace(EventKind::QuorumReached, Some(seq), None, votes as u64);
        self.trace(EventKind::Committed, Some(seq), None, 0);
        if let Some(batch) = batch {
            self.metrics.committed += 1;
            self.exec.add_committed(seq, batch);
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
        if sender != checkpoint.replica || !self.verify(sender, &checkpoint, &checkpoint.signature)
        {
            self.metrics.rejected_messages += 1;
            return actions;
        }
        let seq = checkpoint.seq;
        if self.checkpoints.record(checkpoint, false) {
            self.metrics.stable_checkpoints += 1;
            self.after_stable_checkpoint();
            // Fallen behind the stable checkpoint (e.g. an instance proposed
            // while this replica was down can never be re-learned from the
            // vote traffic): ask the whole group for state and adopt the
            // snapshot once `f + 1` responses agree, exactly as a rejoin
            // does. Without this a permanently missed slot stalls in-order
            // execution forever.
            if self.exec.last_executed() < seq && !self.catching_up {
                self.catching_up = true;
                self.recovery_responses.clear();
                let request = StateRequest {
                    from_seq: self.exec.last_executed(),
                    replica: self.id,
                };
                self.broadcast(&mut actions, Message::StateRequest(request));
            }
        }
        actions
    }

    // --------------------------------------------------------------
    // Crash recovery
    // --------------------------------------------------------------

    /// Broadcasts the signed restart announcement and arms the re-announce
    /// timer.
    fn announce_recovery(&mut self, actions: &mut Vec<Action>) {
        let mut recovery = Recovery {
            last_executed: self.exec.last_executed(),
            view: self.view,
            replica: self.id,
            signature: Signature::INVALID,
        };
        recovery.signature = self.sign_payload(&recovery);
        self.broadcast(actions, Message::Recovery(recovery));
        actions.push(Action::SetTimer {
            timer: Timer::Recovery,
            after: self.pconfig.request_timeout,
        });
    }

    /// Answers a verified restart announcement with this replica's
    /// committed suffix above the announcer's durable state.
    fn on_recovery(&mut self, from: NodeId, recovery: Recovery) -> Vec<Action> {
        if from.as_replica() != Some(recovery.replica)
            || !self.verify(recovery.replica, &recovery, &recovery.signature)
        {
            self.metrics.rejected_messages += 1;
            return Vec::new();
        }
        self.serve_state(recovery.last_executed, recovery.replica)
    }

    /// Builds and sends a `STATE-RESPONSE` covering everything committed
    /// above `from_seq`.
    fn serve_state(&mut self, from_seq: SeqNum, to: ReplicaId) -> Vec<Action> {
        let mut actions = Vec::new();
        let response = StateResponse {
            checkpoint: self.checkpoints.stable_proof().first().cloned(),
            snapshot: Some(self.exec.snapshot()),
            entries: self.exec.committed_after(from_seq),
            replica: self.id,
        };
        self.send(
            &mut actions,
            NodeId::Replica(to),
            Message::StateResponse(response),
        );
        actions
    }

    /// Message handling while rejoining: `STATE-RESPONSE`s accumulate toward
    /// the `f + 1` rejoin quorum, state-serving traffic is answered,
    /// everything else is buffered for re-delivery after the rejoin.
    fn on_message_recovering(
        &mut self,
        from: NodeId,
        message: Message,
        now: Instant,
    ) -> Vec<Action> {
        match message {
            Message::StateResponse(response) => self.complete_recovery(from, response, now),
            Message::StateRequest(request) => self.serve_state(request.from_seq, request.replica),
            Message::Recovery(recovery) => self.on_recovery(from, recovery),
            other => {
                if self.recovery_buffer.len() >= seemore_core::replica::RECOVERY_BUFFER_CAP {
                    self.recovery_buffer.pop_front();
                }
                self.recovery_buffer.push_back((from, other));
                Vec::new()
            }
        }
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
            self.metrics.rejected_messages += 1;
            return false;
        }
        if let Some(cp) = &response.checkpoint {
            let (replica, signature) = (cp.replica, cp.signature);
            if !self.verify(replica, cp, &signature) {
                self.metrics.rejected_messages += 1;
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
        if let (Some(snapshot), Some(cp)) = (best.snapshot.clone(), best.checkpoint.clone()) {
            let before = self.exec.last_executed();
            self.exec.restore(&snapshot);
            if self.exec.last_executed() > before {
                self.checkpoints
                    .make_stable(cp.seq, cp.state_digest, vec![cp]);
                self.after_stable_checkpoint();
            }
        }
        let low_mark = self.log.low_mark();
        for response in &agreed {
            for (seq, batch) in &response.entries {
                if self.exec.add_committed(*seq, batch.clone()) && *seq > low_mark {
                    self.log.instance_mut(*seq).committed = true;
                }
            }
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
        self.recovering = false;
        actions.push(Action::CancelTimer {
            timer: Timer::Recovery,
        });
        self.trace(EventKind::RecoveryCompleted, None, None, self.wal_replayed);
        let buffered = std::mem::take(&mut self.recovery_buffer);
        for (from, message) in buffered {
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
        self.metrics.view_changes_started += 1;
        self.trace(EventKind::ViewChangeStart, None, None, target.0);
        self.refuse_parked_reads(&mut actions);

        let stable = self.checkpoints.stable_seq();
        let mut prepares = Vec::new();
        for (seq, instance) in self.log.instances_after(stable) {
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
            checkpoint_proof: self.checkpoints.stable_proof().to_vec(),
            prepares,
            commits: Vec::new(),
            replica: self.id,
            signature: Signature::INVALID,
        };
        view_change.signature = self.sign_payload(&view_change);
        self.view_changes
            .entry(target)
            .or_default()
            .insert(self.id, view_change.clone());
        self.broadcast(&mut actions, Message::ViewChange(view_change));
        actions.push(Action::SetTimer {
            timer: Timer::ViewChange { view: target },
            after: self.pconfig.view_change_timeout,
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
        if view_change.new_view <= self.view
            || sender != view_change.replica
            || !self.verify(sender, &view_change, &view_change.signature)
        {
            self.metrics.rejected_messages += 1;
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
        if self.config.primary(target) != self.id
            || self.new_view_sent.contains(&target)
            || target <= self.view
        {
            return;
        }
        let threshold = self.config.view_change_threshold() as usize;
        let Some(votes) = self.view_changes.get(&target) else {
            return;
        };
        let others = votes.keys().filter(|r| **r != self.id).count();
        if others < threshold {
            return;
        }
        self.new_view_sent.push(target);
        let votes: Vec<ViewChange> = votes.values().cloned().collect();

        let mut low = self.checkpoints.stable_seq();
        let mut best_checkpoint = self.checkpoints.stable_proof().first().cloned();
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
                                        || self.verify_node(
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
                let batch = Batch::single(ClientRequest {
                    client: NOOP_CLIENT,
                    timestamp: Timestamp(seq.0),
                    operation: Vec::new(),
                    signature: Signature::INVALID,
                });
                prepares_out.push(PrepareCert {
                    view: self.view,
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
            replica: self.id,
            signature: Signature::INVALID,
        };
        new_view.signature = self.sign_payload(&new_view);
        self.broadcast(actions, Message::NewView(new_view.clone()));
        self.install_new_view(actions, new_view, now);
    }

    fn on_new_view(&mut self, from: NodeId, new_view: NewView, now: Instant) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(sender) = from.as_replica() else {
            return actions;
        };
        if new_view.view <= self.view
            || sender != self.config.primary(new_view.view)
            || sender != new_view.replica
            || !self.verify(sender, &new_view, &new_view.signature)
        {
            self.metrics.rejected_messages += 1;
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
        self.view = new_view.view;
        // Persist the view boundary before any vote in it: replaying the WAL
        // must never resurrect a vote under a view this replica left.
        if self.store.enabled() {
            self.store.append(&WalRecord::ViewEntered {
                view: self.view,
                mode: Mode::Peacock,
            });
        }
        self.in_view_change = false;
        self.metrics.view_changes_completed += 1;
        self.trace(EventKind::ViewChangeInstall, None, None, new_view.view.0);
        self.refuse_parked_reads(actions);
        self.assigned.clear();
        self.view_changes.retain(|view, _| *view > new_view.view);
        self.log.reset_votes_for_new_view();

        if let Some(cp) = &new_view.checkpoint {
            if cp.seq > self.checkpoints.stable_seq() {
                self.checkpoints
                    .make_stable(cp.seq, cp.state_digest, vec![cp.clone()]);
                self.after_stable_checkpoint();
            }
        }
        let mut highest = self.checkpoints.stable_seq().max(self.exec.last_executed());
        let i_am_primary = self.config.primary(new_view.view) == self.id;
        for cert in &new_view.prepares {
            highest = highest.max(cert.seq);
            let Some(batch) = cert.batch.clone() else {
                continue;
            };
            let digest = cert.digest;
            let seq = cert.seq;
            {
                let instance = self.log.instance_mut(seq);
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
                instance.record_pbft_prepare(self.id, digest);
            }
            if !i_am_primary {
                let mut vote = PbftPrepare {
                    view: new_view.view,
                    seq,
                    digest,
                    replica: self.id,
                    signature: Signature::INVALID,
                };
                vote.signature = self.sign_payload(&vote);
                self.broadcast(actions, Message::PbftPrepare(vote));
            }
        }
        self.next_seq = highest;
        self.execute_ready(actions);

        // Requests buffered for batching under the old view are re-routed:
        // the new primary proposes them, everyone else forwards them (and
        // the armed flush timer, if any, is cancelled with the buffer).
        let buffered = self.batcher.drain(actions);
        if i_am_primary {
            for request in buffered {
                if self
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
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_none()
                {
                    self.send(actions, NodeId::Replica(primary), Message::Request(request));
                }
            }
        }
    }

    /// Forces out any partially accumulated batch.
    fn flush_buffered(&mut self, actions: &mut Vec<Action>) {
        if let Some(batch) = self.batcher.flush(actions, &mut self.metrics) {
            self.propose_batch(actions, batch);
        }
    }

    /// The batch flush timer of `generation` fired: propose the buffer
    /// (primary) or re-route it to the current primary (a replica deposed
    /// while buffering). Stale generations — timers that raced a
    /// size-trigger cut — are counted and ignored so they can never truncate
    /// the next buffer's delay.
    fn on_batch_flush(&mut self, generation: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        if !self.batcher.timer_is_current(generation) {
            self.metrics.batch.stale_timer_fires += 1;
            return actions;
        }
        if self.in_view_change {
            return actions;
        }
        if self.is_primary() {
            let in_flight = self.slots_in_flight();
            if let Some(batch) =
                self.batcher
                    .on_flush_timer(generation, in_flight, &mut self.metrics)
            {
                self.propose_batch(&mut actions, batch);
            }
        } else {
            let primary = self.primary();
            for request in self.batcher.drain(&mut actions) {
                self.send(
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
        self.id
    }

    fn on_start(&mut self, now: Instant) -> Vec<Action> {
        if self.crashed || !self.recovering {
            return Vec::new();
        }
        self.trace_at = now;
        self.trace(EventKind::RecoveryStarted, None, None, self.wal_replayed);
        let mut actions = Vec::new();
        self.announce_recovery(&mut actions);
        actions
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        if self.crashed {
            return Vec::new();
        }
        self.trace_at = now;
        self.metrics.record_received(message.kind());
        if self.recovering {
            return self.on_message_recovering(from, message, now);
        }
        let actions = match message {
            Message::Request(request) => self.on_request(request, now),
            Message::ReadRequest(read) => self.on_read_request(read, now),
            Message::PrePrepare(preprepare) => self.on_pre_prepare(from, preprepare),
            Message::PbftPrepare(vote) => self.on_pbft_prepare(from, vote),
            Message::Commit(commit) => self.on_commit(from, commit),
            Message::Checkpoint(checkpoint) => self.on_checkpoint(from, checkpoint),
            Message::ViewChange(view_change) => self.on_view_change(from, view_change, now),
            Message::NewView(new_view) => self.on_new_view(from, new_view, now),
            Message::Recovery(recovery) => self.on_recovery(from, recovery),
            Message::StateRequest(request) => self.serve_state(request.from_seq, request.replica),
            Message::StateResponse(response) => self.on_state_response(from, response),
            _ => Vec::new(),
        };
        self.metrics.note_log_size(self.log.len());
        actions
    }

    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action> {
        if self.crashed {
            return Vec::new();
        }
        self.trace_at = now;
        if self.recovering {
            if matches!(timer, Timer::Recovery) {
                let mut actions = Vec::new();
                self.announce_recovery(&mut actions);
                return actions;
            }
            return Vec::new();
        }
        match timer {
            Timer::RequestProgress { seq } => {
                let committed = self
                    .log
                    .instance(seq)
                    .map(|i| i.committed)
                    .unwrap_or(seq <= self.exec.last_executed());
                if committed || self.in_view_change {
                    return Vec::new();
                }
                let armed = self.progress_armed.get(&seq).copied().unwrap_or(View::ZERO);
                if armed < self.view {
                    // A newer view was installed since this timer was armed;
                    // give the new primary a full timeout first.
                    self.progress_armed.insert(seq, self.view);
                    return vec![Action::SetTimer {
                        timer: Timer::RequestProgress { seq },
                        after: self.pconfig.request_timeout,
                    }];
                }
                self.start_view_change(self.view.next(), now)
            }
            Timer::ForwardedRequest { request } => {
                if self
                    .exec
                    .cached_reply(request.client, request.timestamp)
                    .is_some()
                    || self.in_view_change
                {
                    return Vec::new();
                }
                let armed = self
                    .forwarded_armed
                    .get(&request)
                    .copied()
                    .unwrap_or(View::ZERO);
                if armed < self.view {
                    self.forwarded_armed.insert(request, self.view);
                    return vec![Action::SetTimer {
                        timer: Timer::ForwardedRequest { request },
                        after: self.pconfig.request_timeout,
                    }];
                }
                self.start_view_change(self.view.next(), now)
            }
            Timer::ViewChange { view } => {
                if self.in_view_change && self.view < view {
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

    fn view(&self) -> View {
        self.view
    }

    fn mode(&self) -> Mode {
        Mode::Peacock
    }

    fn executed(&self) -> &[ExecutedEntry] {
        self.exec.history()
    }

    fn metrics(&self) -> &ReplicaMetrics {
        &self.metrics
    }

    fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn crash(&mut self) {
        self.crashed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::BaselineClient;
    use crate::config::s_upright;
    use seemore_app::KvStore;
    use seemore_core::byzantine::{ByzantineBehavior, ByzantineReplica};
    use seemore_core::testkit::SyncCluster;
    use seemore_types::Duration;

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
        // Histories of honest replicas agree.
        let honest: Vec<ReplicaId> = config.replicas().filter(|r| *r != byz).collect();
        for window in honest.windows(2) {
            let a = cluster.replica(window[0]).executed();
            let b = cluster.replica(window[1]).executed();
            for i in 0..a.len().min(b.len()) {
                assert_eq!(a[i].digest, b[i].digest);
            }
        }
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
