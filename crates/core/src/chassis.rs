//! The replica chassis: everything *around* agreement that the SeeMoRe
//! replica and the CFT / BFT baselines share.
//!
//! The paper's comparison is only fair if the protocols differ in phases,
//! quorum sizes and who is trusted — and in nothing else. A
//! [`ReplicaChassis`] is the part of a replica that does not depend on any
//! of those: its identity and telemetry stamp, the message log, execution
//! engine and checkpoint manager, the outgoing path with its vote-before-send
//! WAL rule, batch admission, and the input gates that stop a crashed
//! replica and buffer a rejoining one's live traffic.
//! [`SigningContext`] is the signing half, owned by the replicas that sign
//! (SeeMoRe, BFT, S-UpRight) and simply absent from the crash-only baseline.
//!
//! It also runs the parts of the normal case every protocol performs the
//! same way once agreement is reached: draining executed batches (the
//! `Executed` / `CancelTimer` actions and the client replies), announcing
//! checkpoints, answering an executed request from the reply cache, and the
//! read-only fast path — the read lease with its propose-time anchors, the
//! read-index and prepared fences, and parking, serving and refusing reads
//! (in [`crate::reads`]). The view change, its suspicion timers and the
//! bookkeeping of which view armed each of them are chassis code too (in
//! [`crate::view_change`]), and so is recovery: checkpoints, catch-up,
//! serving and adopting state, the rejoin after a restart and WAL replay
//! (in [`crate::state_transfer`]).
//!
//! Each replica struct owns a chassis as a plain field and calls into it.
//! What the paper says differs stays with the caller and reaches the shared
//! code as a value: the agreement handlers and which replayed votes re-arm
//! which flags, the view change's rules
//! ([`ViewChangeRules`](crate::view_change::ViewChangeRules)), the read
//! admission verdict ([`ReadRule`]), who replies and who announces
//! checkpoints ([`Duties`]), whether a message is signed
//! (`Option<&mut SigningContext>`), the mode label on trace events, and
//! whose checkpoints and state are trusted ([`TransferRules`]). The chassis
//! has no callback, no type parameter and no branch on which protocol is
//! calling it.

use crate::actions::{broadcast, Action, Timer};
use crate::batching::AdaptiveBatcher;
use crate::checkpoint::{CheckpointManager, StabilityRule};
use crate::config::ProtocolConfig;
use crate::exec::ExecutionEngine;
use crate::log::MessageLog;
use crate::metrics::ReplicaMetrics;
use crate::reads::{ReadPath, ReadRule};
use crate::state_transfer::{TransferRules, TransferState};
use crate::view_change::ViewChangeState;
use seemore_app::StateMachine;
use seemore_crypto::{KeyStore, Signature, Signer, VerifyCache};
use seemore_store::{Durability, DurableCheckpoint, NullStore, WalRecord};
use seemore_telemetry::{EventKind, NullRecorder, Recorder, TraceEvent};
use seemore_types::{
    ClientId, Instant, Mode, NodeId, ProtocolViolation, ReplicaId, RequestId, SeqNum, Timestamp,
    View,
};
use seemore_wire::{
    Batch, Checkpoint, ClientReply, ClientRequest, Message, MessageKind, SignedPayload,
    SigningScratch, WireSize,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Most messages a recovering replica will hold before the oldest is
/// evicted (clients and peers retransmit, so a bounded buffer is safe; each
/// eviction is counted in [`ReplicaMetrics::recovery_buffer_dropped`]).
pub const RECOVERY_BUFFER_CAP: usize = 1024;

/// The pseudo-client of the no-op requests a new primary proposes to fill
/// the ordering gaps a view change leaves (the paper's `µ∅`). Nobody replies
/// to it.
pub const NOOP_CLIENT: ClientId = ClientId(u64::MAX);

/// The no-op request that fills slot `seq`.
pub fn noop_request(seq: SeqNum) -> ClientRequest {
    ClientRequest::from_parts(
        NOOP_CLIENT,
        Timestamp(seq.0),
        Vec::new(),
        Signature::INVALID,
    )
}

/// Whether `request` is an internal no-op: the no-op client with nothing
/// to execute. No key signs for [`NOOP_CLIENT`], so this shape is the only
/// unsigned request a replica accepts.
fn is_noop(request: &ClientRequest) -> bool {
    request.client() == NOOP_CLIENT && request.operation().is_empty()
}

/// What a replica owes when committed batches execute: the values in which
/// the protocols differ, computed by the caller for each
/// [`ReplicaChassis::execute_ready`].
#[derive(Debug, Clone, Copy)]
pub struct Duties {
    /// Reply to the client of each executed request (the Lion primary, Dog
    /// and Peacock proxies, the CFT leader, every BFT replica).
    pub reply: bool,
    /// Announce a checkpoint when execution reaches one (the Lion and Dog
    /// primary, Peacock proxies, the CFT leader, every BFT replica).
    pub announce: bool,
    /// The rule parked reads are served under once execution moved.
    pub reads: ReadRule,
    /// Whether a drain that executed nothing still announces a due
    /// checkpoint and serves or refuses parked reads (the baselines do; the
    /// SeeMoRe replica stops there).
    pub settle_when_idle: bool,
}

/// A replica's signing identity and its allocation-free sign/verify path.
pub struct SigningContext {
    keystore: KeyStore,
    /// This replica's signer.
    signer: Signer,
    /// Reusable buffer for canonical signing bytes, so the sign/verify hot
    /// path performs no per-message allocation.
    scratch: SigningScratch,
    /// Bounded memo of already-verified signatures: a retransmitted client
    /// request or read skips the second HMAC. Semantically
    /// invisible (memoized verify ≡ plain verify, property-tested in
    /// `seemore-crypto`).
    verify_memo: VerifyCache,
}

impl SigningContext {
    /// The signing context of replica `id`.
    ///
    /// # Panics
    ///
    /// Panics if the key store has no signer for `id` — a configuration
    /// error caught at startup.
    pub fn new(id: ReplicaId, keystore: KeyStore) -> Self {
        let signer = keystore
            .signer_for(NodeId::Replica(id))
            .expect("key store must contain a signer for this replica");
        SigningContext {
            keystore,
            signer,
            scratch: SigningScratch::new(),
            verify_memo: VerifyCache::default(),
        }
    }

    /// Signs `payload`'s canonical bytes through the reusable scratch
    /// buffer — no allocation per signature.
    pub fn sign(&mut self, payload: &impl SignedPayload) -> Signature {
        self.signer.sign(self.scratch.bytes_of(payload))
    }

    /// Verifies `signature` as `node`'s signature over `payload`, through
    /// the scratch buffer and the verified-signature memo, so a redelivery
    /// skips the second HMAC.
    ///
    /// Use this only on paths where the protocol actually re-verifies
    /// identical bytes — a client request or read reaching the replica
    /// directly, which clients retransmit. A request's signed bytes are its
    /// header and stored digest (about 80 B), so the memo key and the HMAC
    /// each hash that much, not the operation. Quorum votes and the member
    /// requests of a proposal or certificate are mostly seen once, so for
    /// them the memo's digest-keyed lookup is pure overhead: they go
    /// through [`verify_once`](Self::verify_once) instead.
    pub fn verify(
        &mut self,
        node: NodeId,
        payload: &impl SignedPayload,
        signature: &Signature,
    ) -> bool {
        let bytes = self.scratch.bytes_of(payload);
        self.verify_memo
            .verify(&self.keystore, node, bytes, signature)
    }

    /// Validity: the first member request of `batch` that is neither an
    /// internal no-op ([`NOOP_CLIENT`] with an empty operation) nor signed
    /// by its client, or `None` when every member is one of the two.
    ///
    /// A replica that takes a batch from an untrusted node applies this
    /// before it votes or re-proposes: a Peacock replica on its primary's
    /// `PRE-PREPARE`, a BFT backup on its primary's, and every signing
    /// protocol on the certificates of a view change. Each check is one
    /// plain verification over the request's header and stored digest
    /// (about 80 B), not its operation. It bypasses the memo: a proposal's
    /// receivers have mostly never seen its requests, so a probe would
    /// miss, and the entries it left behind would hold memory on every
    /// replica for nothing.
    pub fn forged_request<'a>(&mut self, batch: &'a Batch) -> Option<&'a ClientRequest> {
        batch.iter().find(|request| {
            !is_noop(request)
                && !self.verify_once(
                    NodeId::Client(request.client()),
                    *request,
                    &request.signature,
                )
        })
    }

    /// Plain (memo-free) verification through the scratch buffer — the
    /// vote-path variant of [`verify`](Self::verify) for signatures the
    /// protocol checks exactly once.
    pub fn verify_once(
        &mut self,
        node: NodeId,
        payload: &impl SignedPayload,
        signature: &Signature,
    ) -> bool {
        self.keystore
            .verify(node, self.scratch.bytes_of(payload), signature)
    }
}

/// What [`ReplicaChassis::receive`] did with an incoming message.
pub enum Inbound {
    /// Nothing left for the protocol: the replica is crashed, the chassis
    /// handled a recovery message itself (a `CHECKPOINT`, a `STATE-REQUEST`,
    /// a `RECOVERY`, a refused or not yet conclusive `STATE-RESPONSE`), or
    /// it buffered the message of a rejoining replica.
    Handled(Vec<Action>),
    /// A peer's state was adopted under the replica's
    /// [`TransferRules`], fixed when it was built. The protocol runs its
    /// `execute_ready`, then re-delivers what
    /// [`ReplicaChassis::finish_recovery`] hands back if this ended a rejoin.
    Adopted,
    /// A message for the protocol's own handlers.
    Deliver(Message),
}

/// The protocol-independent half of a replica (see the module docs).
pub struct ReplicaChassis {
    /// This replica's id.
    pub id: ReplicaId,
    /// Size of the replica group; peers are `0..group_size`.
    group_size: u32,
    /// Timeouts, window and batching policy.
    pub pconfig: ProtocolConfig,
    /// The installed view (advanced by the protocol's view change through
    /// [`enter_view`](Self::enter_view)).
    pub view: View,
    /// The mode stamped on trace events: the live mode of a SeeMoRe
    /// replica, the fixed closest analogue of a baseline.
    pub mode: Mode,
    /// Agreement instances above the stable checkpoint.
    pub log: MessageLog,
    /// Applies committed batches in order.
    pub exec: ExecutionEngine,
    /// Checkpoint votes and the stable checkpoint.
    pub checkpoints: CheckpointManager,
    /// Next sequence number to assign (meaningful only while primary).
    pub next_seq: SeqNum,
    /// Requests this primary has already assigned a sequence number (the
    /// sequence number of the batch each request rides in).
    pub assigned: HashMap<RequestId, SeqNum>,
    /// Pending requests accumulating into the next batch (primary only),
    /// plus the controller deciding when to cut them.
    pub batcher: AdaptiveBatcher,
    /// Protocol counters.
    pub metrics: ReplicaMetrics,
    /// The read lease, the prepared frontier and the parked fast-path reads.
    pub reads: ReadPath,
    /// View in which each outstanding progress timer was armed; a timer that
    /// fires after a newer view was installed is re-armed instead of
    /// suspecting the (new) primary immediately.
    pub progress_armed: HashMap<SeqNum, View>,
    /// View in which each forwarded-request timer was armed (see
    /// [`forward_request`](Self::forward_request)).
    pub forwarded_armed: HashMap<RequestId, View>,
    /// The view change in progress, if any (see [`crate::view_change`]).
    pub(crate) vc: ViewChangeState,
    /// Whose state is believed, and the state transfer in flight (see
    /// [`crate::state_transfer`]).
    pub(crate) transfer: TransferState,
    /// Whether the replica was fail-stopped by its driver.
    pub crashed: bool,
    /// Durable store for safety-critical state. [`NullStore`] (disabled) by
    /// default; every persistence site is guarded by `store.enabled()` so
    /// the default configuration does no snapshot or encode work.
    pub(crate) store: Arc<dyn Durability>,
    /// Whether a driver turn is open (see [`begin_turn`](Self::begin_turn)):
    /// WAL appends then wait for the turn's one sync.
    turn_open: bool,
    /// Whether the open turn appended anything its end must sync.
    turn_appended: bool,
    /// Whether this replica restarted from durable state and has not yet
    /// received the committed suffix it missed while down.
    pub(crate) recovering: bool,
    /// WAL records replayed at recovery (telemetry detail).
    pub(crate) wal_replayed: u64,
    /// Messages received while recovering, re-delivered once the rejoin
    /// completes so no view change or vote is lost. Bounded by
    /// [`RECOVERY_BUFFER_CAP`]; the oldest message is evicted (and counted)
    /// on overflow.
    pub(crate) recovery_buffer: VecDeque<(NodeId, Message)>,
    /// Stable sequence number of the last checkpoint written to the store,
    /// so re-stabilization paths do not rewrite an identical snapshot.
    pub(crate) persisted_checkpoint: SeqNum,
    /// Structured event sink. [`NullRecorder`] by default, in which case
    /// every trace site reduces to one cold branch (see
    /// `seemore-telemetry`'s zero-allocation contract).
    recorder: Arc<dyn Recorder>,
    /// Timestamp of the entry point currently executing, so helpers without
    /// a `now` parameter can stamp trace events. The input gates
    /// ([`on_start`](Self::on_start), [`receive`](Self::receive),
    /// [`timer_gate`](Self::timer_gate)) set it; a driver's direct command
    /// sets it itself.
    pub trace_at: Instant,
}

impl ReplicaChassis {
    /// A chassis for replica `id` of a `group_size`-replica group, in view
    /// 0, tracing as `mode`, with checkpoints stabilizing under `rule` and
    /// state believed and fetched under `transfer`.
    pub fn new(
        id: ReplicaId,
        group_size: u32,
        pconfig: ProtocolConfig,
        mode: Mode,
        rule: StabilityRule,
        transfer: TransferRules,
        app: Box<dyn StateMachine>,
    ) -> Self {
        ReplicaChassis {
            id,
            group_size,
            pconfig,
            view: View::ZERO,
            mode,
            log: MessageLog::new(),
            exec: ExecutionEngine::new(app),
            checkpoints: CheckpointManager::new(pconfig.checkpoint_period, rule),
            next_seq: SeqNum(0),
            assigned: HashMap::new(),
            batcher: AdaptiveBatcher::new(pconfig.batch),
            metrics: ReplicaMetrics::default(),
            reads: ReadPath::new(Instant::ZERO + pconfig.request_timeout),
            progress_armed: HashMap::new(),
            forwarded_armed: HashMap::new(),
            vc: ViewChangeState::default(),
            transfer: TransferState::new(transfer),
            crashed: false,
            store: Arc::new(NullStore),
            turn_open: false,
            turn_appended: false,
            recovering: false,
            wal_replayed: 0,
            recovery_buffer: VecDeque::new(),
            persisted_checkpoint: SeqNum(0),
            recorder: Arc::new(NullRecorder),
            trace_at: Instant::ZERO,
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    /// Replaces the structured-event sink (a shared ring buffer in traced
    /// runs). Call before the replica starts processing messages.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Records one structured protocol event, stamped with this replica's
    /// identity, view, mode and the current entry point's timestamp. A
    /// single branch when tracing is disabled.
    #[inline]
    pub fn trace(
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
                mode: self.mode,
                slot,
                request,
                kind,
                detail,
            });
        }
    }

    /// Records a protocol violation (an invalid message) and returns the
    /// corresponding action.
    pub fn violation(&mut self, violation: ProtocolViolation) -> Action {
        self.metrics.rejected_messages += 1;
        if matches!(violation, ProtocolViolation::BadSignature { .. }) {
            self.trace(EventKind::SigVerifyFail, None, None, 0);
        }
        Action::Violation(violation)
    }

    // ------------------------------------------------------------------
    // Outgoing messages
    // ------------------------------------------------------------------

    /// Appends `message` to the durable WAL if it is a safety-critical vote
    /// (the *no-un-vote* rule: a claim must be durable before any peer can
    /// observe it). One cold branch when durability is disabled.
    #[inline]
    fn persist_outgoing(&mut self, message: &Message) {
        if self.store.enabled()
            && matches!(
                message.kind(),
                MessageKind::Prepare
                    | MessageKind::PrePrepare
                    | MessageKind::Accept
                    | MessageKind::PbftPrepare
                    | MessageKind::Commit
                    | MessageKind::Inform
                    | MessageKind::Checkpoint
            )
        {
            self.wal_append(&WalRecord::Vote(message.clone()));
        }
    }

    /// Appends `record` to the WAL: unsynced while a turn is open, whose
    /// [`end_turn`](Self::end_turn) syncs it before any of the turn's
    /// messages is sent, and synced on its own otherwise.
    fn wal_append(&mut self, record: &WalRecord) {
        self.metrics.wal_appends += 1;
        if self.turn_open {
            self.store.append_unsynced(record);
            self.turn_appended = true;
        } else {
            self.store.append(record);
            self.metrics.wal_syncs += 1;
        }
    }

    /// Opens a driver turn: until [`end_turn`](Self::end_turn), WAL appends
    /// are not synced one by one. The driver must not hand any action the
    /// turn produces to the transport before `end_turn` returns.
    pub fn begin_turn(&mut self) {
        self.turn_open = true;
    }

    /// Closes the turn, syncing the WAL once if the turn appended anything:
    /// group commit. Every vote the turn produced is durable when this
    /// returns, so its messages may be sent.
    pub fn end_turn(&mut self) {
        self.turn_open = false;
        if std::mem::take(&mut self.turn_appended) {
            self.store.sync();
            self.metrics.wal_syncs += 1;
        }
    }

    /// Queues a send and records it in the metrics. Safety-critical votes
    /// hit the WAL before the action is queued.
    pub fn send(&mut self, actions: &mut Vec<Action>, to: NodeId, message: Message) {
        self.persist_outgoing(&message);
        self.metrics
            .record_sent(message.kind(), message.wire_size());
        actions.push(Action::Send { to, message });
    }

    /// Queues a broadcast to `recipients` (excluding this replica) and
    /// records each copy in the metrics. Safety-critical votes hit the WAL
    /// once per broadcast, before any copy is queued.
    pub fn broadcast_to(
        &mut self,
        actions: &mut Vec<Action>,
        recipients: impl IntoIterator<Item = ReplicaId>,
        message: Message,
    ) {
        self.persist_outgoing(&message);
        let recipients: Vec<NodeId> = recipients
            .into_iter()
            .filter(|r| *r != self.id)
            .map(NodeId::Replica)
            .collect();
        for _ in &recipients {
            self.metrics
                .record_sent(message.kind(), message.wire_size());
        }
        broadcast(actions, recipients, message, None);
    }

    /// [`broadcast_to`](Self::broadcast_to) every other replica of the group.
    pub fn broadcast(&mut self, actions: &mut Vec<Action>, message: Message) {
        self.broadcast_to(actions, (0..self.group_size).map(ReplicaId), message);
    }

    // ------------------------------------------------------------------
    // Batch admission (primary)
    // ------------------------------------------------------------------

    /// Slots this primary proposed that have not executed yet — the
    /// occupancy signal the adaptive batching policy grows on.
    pub fn slots_in_flight(&self) -> u64 {
        self.next_seq.0.saturating_sub(self.exec.last_executed().0)
    }

    /// Offers `request` to the batching controller and returns the batch to
    /// propose when the policy cuts one (always, when the effective cap is
    /// 1). A request that already rides in an assigned slot is a duplicate
    /// transmission; the commit path will answer its client.
    pub fn admit_request(
        &mut self,
        actions: &mut Vec<Action>,
        request: ClientRequest,
        now: Instant,
    ) -> Option<Batch> {
        let id = request.id();
        if self.assigned.contains_key(&id) {
            return None;
        }
        self.trace(EventKind::RequestAdmitted, None, Some(id), 0);
        let in_flight = self.slots_in_flight();
        self.batcher
            .offer(request, now, in_flight, actions, &mut self.metrics)
    }

    /// Whether `generation` names the armed flush timer. A stale one — a
    /// timer that raced a size-trigger cut — is counted and must be
    /// ignored, so it can never truncate the next buffer's delay.
    pub fn flush_timer_is_current(&mut self, generation: u64) -> bool {
        let current = self.batcher.timer_is_current(generation);
        if !current {
            self.metrics.batch.stale_timer_fires += 1;
        }
        current
    }

    /// The current flush timer fired on the primary: cuts the partial batch.
    pub fn cut_on_flush_timer(&mut self, generation: u64) -> Option<Batch> {
        let in_flight = self.slots_in_flight();
        self.batcher
            .on_flush_timer(generation, in_flight, &mut self.metrics)
    }

    /// Forces out any partially accumulated batch (a new view was installed,
    /// where recovery should not wait out the flush delay).
    pub fn flush_batch(&mut self, actions: &mut Vec<Action>) -> Option<Batch> {
        self.batcher.flush(actions, &mut self.metrics)
    }

    /// Assigns `batch` the next sequence number and remembers its member
    /// requests as assigned. `None` when the window is full: the batch is
    /// dropped and the clients retransmit once the backlog drains.
    pub fn assign_slot(&mut self, batch: &Batch) -> Option<SeqNum> {
        let seq = SeqNum(self.next_seq.0.max(self.exec.last_executed().0) + 1);
        if !self.log.in_window(seq, self.pconfig.high_water_mark) {
            return None;
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
        Some(seq)
    }

    // ------------------------------------------------------------------
    // Client requests, execution and checkpoint announcement
    // ------------------------------------------------------------------

    /// Forwards `request` to `primary`. With `watch`, the first forwarding
    /// of a request also arms its suspicion timer, noting the view that
    /// armed it; client retransmissions must not keep resetting it, or a
    /// dead primary is never suspected.
    pub fn forward_request(
        &mut self,
        actions: &mut Vec<Action>,
        primary: ReplicaId,
        request: ClientRequest,
        watch: bool,
    ) {
        let id = request.id();
        self.send(actions, NodeId::Replica(primary), Message::Request(request));
        if watch && !self.forwarded_armed.contains_key(&id) {
            self.forwarded_armed.insert(id, self.view);
            actions.push(Action::SetTimer {
                timer: Timer::ForwardedRequest { request: id },
                after: self.pconfig.request_timeout,
            });
        }
    }

    /// Exactly-once: answers a request this replica already executed from
    /// the reply cache. Returns whether it did.
    pub fn reply_from_cache(
        &mut self,
        actions: &mut Vec<Action>,
        request: &ClientRequest,
        signing: Option<&mut SigningContext>,
    ) -> bool {
        let Some(result) = self
            .exec
            .cached_reply(request.client(), request.timestamp())
            .cloned()
        else {
            return false;
        };
        let reply = self.client_reply(request.id(), result, signing);
        self.send(
            actions,
            NodeId::Client(request.client()),
            Message::Reply(reply),
        );
        true
    }

    /// A reply in the current mode and view, signed when the deployment
    /// signs.
    fn client_reply(
        &self,
        request: RequestId,
        result: Vec<u8>,
        signing: Option<&mut SigningContext>,
    ) -> ClientReply {
        let mut reply = ClientReply {
            mode: self.mode,
            view: self.view,
            request,
            replica: self.id,
            result,
            signature: Signature::INVALID,
        };
        if let Some(signing) = signing {
            reply.signature = signing.sign(&reply);
        }
        reply
    }

    /// Drains the execution queue (whole batches, atomically): one
    /// `Executed` action per request, its progress and forwarded-request
    /// timers cancelled, and a reply where `duties` say so. Then, unless
    /// nothing executed and `duties` stop there, announces a due checkpoint
    /// and serves the parked reads the new frontier covers.
    pub fn execute_ready(
        &mut self,
        actions: &mut Vec<Action>,
        duties: Duties,
        mut signing: Option<&mut SigningContext>,
    ) {
        let executions = self.exec.execute_ready();
        if executions.is_empty() && !duties.settle_when_idle {
            return;
        }
        for execution in executions {
            let (seq, id) = (execution.seq, execution.request.id());
            self.metrics.executed += 1;
            self.trace(EventKind::Executed, Some(seq), Some(id), 0);
            actions.push(Action::Executed { seq, request: id });
            actions.push(Action::CancelTimer {
                timer: Timer::RequestProgress { seq },
            });
            actions.push(Action::CancelTimer {
                timer: Timer::ForwardedRequest { request: id },
            });
            self.forwarded_armed.remove(&id);
            if duties.reply && execution.request.client() != NOOP_CLIENT {
                self.trace(EventKind::Replied, Some(seq), Some(id), 0);
                let reply = self.client_reply(id, execution.result, signing.as_deref_mut());
                self.send(
                    actions,
                    NodeId::Client(execution.request.client()),
                    Message::Reply(reply),
                );
            }
        }
        if duties.announce {
            self.maybe_checkpoint(actions, signing.as_deref_mut());
        }
        // Executions moved the commit index forward; parked reads whose
        // fence is now covered can be served.
        self.serve_parked_reads(actions, duties.reads, signing);
    }

    /// Announces a checkpoint when the executed sequence number sits on a
    /// checkpoint boundary above the stable one, recording the replica's own
    /// vote first. That vote counts as trusted: under the trusted-signer
    /// rule only a trusted primary announces, and a quorum rule ignores
    /// trust.
    fn maybe_checkpoint(
        &mut self,
        actions: &mut Vec<Action>,
        signing: Option<&mut SigningContext>,
    ) {
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
        if let Some(signing) = signing {
            checkpoint.signature = signing.sign(&checkpoint);
        }
        if self.checkpoints.record(checkpoint.clone(), true) {
            self.metrics.stable_checkpoints += 1;
            self.after_stable_checkpoint();
        }
        self.broadcast(actions, Message::Checkpoint(checkpoint));
    }

    // ------------------------------------------------------------------
    // Durability: views and checkpoints
    // ------------------------------------------------------------------

    /// Attaches a durability store. Call before the replica starts
    /// processing messages; from then on every safety-critical outgoing
    /// message is appended to the store's WAL before it is handed to the
    /// transport, and stable checkpoints are snapshotted durably.
    pub fn set_store(&mut self, store: Arc<dyn Durability>) {
        self.store = store;
    }

    /// Installs `view` (and the mode it runs in). No-un-vote across views:
    /// the installed view is durable before any vote sent *in* it, otherwise
    /// a restart could re-vote in an older view and contradict this view's
    /// certificates. The read lease anchors of the dead view are dropped: a
    /// freshly installed primary earns its lease from its own first
    /// committed slot.
    pub fn enter_view(&mut self, view: View, mode: Mode) {
        self.view = view;
        self.mode = mode;
        self.reads.forget_anchors();
        if self.store.enabled() {
            self.wal_append(&WalRecord::ViewEntered { view, mode });
        }
    }

    /// Housekeeping after the stable checkpoint advanced: truncates the
    /// in-memory log, the assigned-request map, the progress timers' views
    /// and the read lease anchors below it and (when durability is enabled)
    /// snapshots the checkpoint to the store and compacts the WAL below it.
    /// Keeping the resident log bounded does not depend on durability.
    pub fn after_stable_checkpoint(&mut self) {
        let stable = self.checkpoints.stable_seq();
        self.log.garbage_collect(stable);
        self.assigned.retain(|_, seq| *seq > stable);
        self.progress_armed.retain(|seq, _| *seq > stable);
        self.reads.forget_anchors_below(stable);
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

    // ------------------------------------------------------------------
    // Input gates
    // ------------------------------------------------------------------

    /// The gate every `on_timer` passes first. `Some` means the chassis
    /// consumed the expiry: the replica is crashed, or it is rejoining, when
    /// only the recovery re-announce timer runs.
    pub fn timer_gate(
        &mut self,
        timer: Timer,
        now: Instant,
        signing: Option<&mut SigningContext>,
    ) -> Option<Vec<Action>> {
        if self.crashed {
            return Some(Vec::new());
        }
        self.trace_at = now;
        if !self.recovering {
            return None;
        }
        let mut actions = Vec::new();
        if matches!(timer, Timer::Recovery) {
            self.announce_recovery(&mut actions, signing);
        }
        Some(actions)
    }

    /// The gate every `on_message` passes first. The chassis handles
    /// checkpoints and state transfer itself (see [`crate::state_transfer`]);
    /// while rejoining it serves peers and adopts state, and buffers
    /// everything else for re-delivery after the rejoin, so no vote or
    /// view-change message is lost.
    pub fn receive(
        &mut self,
        from: NodeId,
        message: Message,
        now: Instant,
        signing: Option<&mut SigningContext>,
    ) -> Inbound {
        if self.crashed {
            return Inbound::Handled(Vec::new());
        }
        self.trace_at = now;
        self.metrics.record_received(message.kind());
        let handled = match message {
            Message::StateRequest(request) => {
                Ok(self.serve_state(request.from_seq, request.replica))
            }
            Message::Recovery(recovery) => self.on_recovery(from, recovery, signing),
            Message::StateResponse(response) => {
                match self.on_state_response(from, response, signing) {
                    Ok(true) => return Inbound::Adopted,
                    Ok(false) => Ok(Vec::new()),
                    Err(refusal) => Err(refusal),
                }
            }
            Message::Checkpoint(checkpoint) if !self.recovering => {
                self.on_checkpoint(from, checkpoint, signing)
            }
            message if !self.recovering => return Inbound::Deliver(message),
            message => {
                if self.recovery_buffer.len() >= RECOVERY_BUFFER_CAP {
                    self.recovery_buffer.pop_front();
                    self.metrics.recovery_buffer_dropped += 1;
                }
                self.recovery_buffer.push_back((from, message));
                return Inbound::Handled(Vec::new());
            }
        };
        // As a protocol does after each message it handles.
        if !self.recovering {
            self.metrics.note_log_size(self.log.len());
        }
        Inbound::Handled(handled.unwrap_or_else(|refusal| vec![self.violation(refusal)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state_transfer::Adoption;
    use seemore_app::NoopApp;
    use seemore_store::{MemStore, StoreConfig};
    use seemore_wire::{StateRequest, StateResponse};

    fn restarted() -> ReplicaChassis {
        let mut chassis = ReplicaChassis::new(
            ReplicaId(2),
            3,
            ProtocolConfig::default(),
            Mode::Lion,
            StabilityRule::TrustedSigner,
            TransferRules {
                trusted: 3,
                ask: 0,
                adoption: Adoption::Trusted,
            },
            Box::new(NoopApp::new(0)),
        );
        let wal = chassis.restore(Arc::new(MemStore::new(StoreConfig::default())));
        assert!(wal.is_empty() && chassis.recovering);
        chassis
    }

    #[test]
    fn a_full_recovery_buffer_counts_every_evicted_message_oldest_first() {
        let mut chassis = restarted();
        let total = RECOVERY_BUFFER_CAP as u64 + 3;
        for i in 0..total {
            // Any message the chassis does not serve itself is buffered; a
            // checkpoint announcement is the smallest one to tell apart.
            let message = Message::Checkpoint(Checkpoint {
                seq: SeqNum(i),
                state_digest: seemore_crypto::Digest::of_bytes(b"state"),
                replica: ReplicaId(0),
                signature: Signature::INVALID,
            });
            let peer = NodeId::Replica(ReplicaId(0));
            let inbound = chassis.receive(peer, message, Instant::ZERO, None);
            assert!(matches!(inbound, Inbound::Handled(actions) if actions.is_empty()));
        }
        assert_eq!(chassis.metrics.recovery_buffer_dropped, 3);

        let mut actions = Vec::new();
        let buffered = chassis.finish_recovery(&mut actions);
        assert!(!chassis.recovering);
        assert_eq!(buffered.len(), RECOVERY_BUFFER_CAP);
        let seqs: Vec<u64> = buffered
            .iter()
            .map(|(_, message)| match message {
                Message::Checkpoint(cp) => cp.seq.0,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(seqs, (3..total).collect::<Vec<_>>(), "oldest evicted first");
    }

    #[test]
    fn a_recovering_chassis_serves_state_and_hands_rejoin_traffic_to_the_protocol() {
        let mut chassis = restarted();
        let peer = NodeId::Replica(ReplicaId(0));
        let request = Message::StateRequest(StateRequest {
            from_seq: SeqNum(0),
            replica: ReplicaId(0),
        });
        match chassis.receive(peer, request, Instant::ZERO, None) {
            Inbound::Handled(actions) => assert!(matches!(
                actions.as_slice(),
                [Action::Send {
                    message: Message::StateResponse(_),
                    ..
                }]
            )),
            _ => panic!("a state request is served by the chassis"),
        }
        let response = StateResponse {
            checkpoint: None,
            snapshot: None,
            entries: Vec::new(),
            replica: ReplicaId(0),
        };
        assert!(matches!(
            chassis.receive(peer, Message::StateResponse(response), Instant::ZERO, None),
            Inbound::Adopted
        ));
        assert_eq!(chassis.metrics.recovery_buffer_dropped, 0);
    }
}
