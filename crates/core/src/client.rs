//! The client side of SeeMoRe: request submission, per-mode reply quorums,
//! retransmission, and the mode-aware read-only fast path (Section 5 plus
//! the PBFT read optimization lineage).

use crate::actions::{Action, Timer};
use crate::reads::ReadTally;
use seemore_crypto::{Digest, KeyStore, Signer};
use seemore_telemetry::{EventKind, NullRecorder, Recorder, TraceEvent};
use seemore_types::{
    ClientId, ClusterConfig, Duration, Instant, Mode, NodeId, OpClass, ReplicaId, RequestId,
    Timestamp, View,
};
use seemore_wire::{ClientReply, ClientRequest, Message, ReadReply, ReadRequest, SignedPayload};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The sans-IO contract for protocol clients (SeeMoRe's [`ClientCore`] and
/// the baseline clients), so that runtimes and the test kit can drive any of
/// them interchangeably.
pub trait ClientProtocol: Send {
    /// The client's identity.
    fn id(&self) -> ClientId;
    /// Submits a new operation, returning send/timer actions.
    fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action>;
    /// Submits an operation with an explicit read/write classification.
    ///
    /// Writes always take the ordered path; clients that implement a read
    /// fast path route [`OpClass::Read`] operations through it. The default
    /// implementation ignores the classification and orders everything,
    /// which is always safe.
    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: Instant) -> Vec<Action> {
        let _ = class;
        self.submit(operation, now)
    }
    /// Handles a message addressed to the client.
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action>;
    /// Handles the retransmission timer.
    fn on_retransmit_timer(&mut self, now: Instant) -> Vec<Action>;
    /// Completed requests, in completion order.
    fn completed(&self) -> &[ClientOutcome];
    /// Drains and returns the completed requests.
    fn take_completed(&mut self) -> Vec<ClientOutcome>;
    /// Whether a request is currently outstanding.
    fn has_pending(&self) -> bool;
    /// Number of retransmissions performed so far.
    fn retransmissions(&self) -> u64;
}

impl ClientProtocol for Box<dyn ClientProtocol> {
    fn id(&self) -> ClientId {
        (**self).id()
    }
    fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        (**self).submit(operation, now)
    }
    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: Instant) -> Vec<Action> {
        (**self).submit_op(operation, class, now)
    }
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        (**self).on_message(from, message, now)
    }
    fn on_retransmit_timer(&mut self, now: Instant) -> Vec<Action> {
        (**self).on_retransmit_timer(now)
    }
    fn completed(&self) -> &[ClientOutcome] {
        (**self).completed()
    }
    fn take_completed(&mut self) -> Vec<ClientOutcome> {
        (**self).take_completed()
    }
    fn has_pending(&self) -> bool {
        (**self).has_pending()
    }
    fn retransmissions(&self) -> u64 {
        (**self).retransmissions()
    }
}

/// A completed request, as observed by the client.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Identity of the completed request.
    pub request: RequestId,
    /// Whether the operation was submitted as a read or a write (reads that
    /// fell back to the ordered path still count as reads).
    pub class: OpClass,
    /// The accepted result payload.
    pub result: Vec<u8>,
    /// Time from first transmission to acceptance.
    pub latency: Duration,
    /// When the result was accepted.
    pub completed_at: Instant,
}

/// Reply votes collected for the outstanding request.
#[derive(Debug, Default)]
struct ReplyTally {
    /// Voting replicas per result digest.
    votes: HashMap<Digest, BTreeSet<ReplicaId>>,
    /// The actual result bytes per digest.
    results: HashMap<Digest, Vec<u8>>,
}

/// The outstanding request, if any.
#[derive(Debug)]
struct Pending {
    /// The request identity `(client, timestamp)`, shared by the fast path
    /// and the ordered fallback.
    id: RequestId,
    /// The signed ordered-path request — built eagerly for writes, lazily on
    /// fallback for reads (so the common all-fast-path case pays one
    /// signature, not two).
    ordered: Option<ClientRequest>,
    /// The operation bytes kept for the lazy fallback (reads only; taken
    /// when the fallback request is built).
    fallback_op: Option<Vec<u8>>,
    sent_at: Instant,
    /// Read/write classification recorded in the outcome.
    class: OpClass,
    /// `Some` while a read is on the fast path; `None` on the ordered path
    /// (writes always, reads after falling back).
    read: Option<ReadTally>,
    tally: ReplyTally,
    retransmitted: bool,
}

/// A sans-IO SeeMoRe client.
///
/// Clients know the cluster layout (which replicas are trusted), track the
/// current mode and view from validated replies, send each request to the
/// current primary, and fall back to broadcasting after a timeout exactly as
/// the paper prescribes.
pub struct ClientCore {
    id: ClientId,
    cluster: ClusterConfig,
    keystore: KeyStore,
    signer: Signer,
    mode: Mode,
    view: View,
    timeout: Duration,
    next_timestamp: Timestamp,
    pending: Option<Pending>,
    completed: Vec<ClientOutcome>,
    retransmissions: u64,
    read_fallbacks: u64,
    /// Structured event sink ([`NullRecorder`] unless tracing is on).
    recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for ClientCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCore")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("view", &self.view)
            .field("completed", &self.completed.len())
            .finish_non_exhaustive()
    }
}

impl ClientCore {
    /// Creates a client that believes the protocol is in `mode`, view 0.
    ///
    /// # Panics
    ///
    /// Panics if the key store has no signer for this client.
    pub fn new(
        id: ClientId,
        cluster: ClusterConfig,
        keystore: KeyStore,
        mode: Mode,
        timeout: Duration,
    ) -> Self {
        let signer = keystore
            .signer_for(NodeId::Client(id))
            .expect("key store must contain a signer for this client");
        ClientCore {
            id,
            cluster,
            keystore,
            signer,
            mode,
            view: View::ZERO,
            timeout,
            next_timestamp: Timestamp(0),
            pending: None,
            completed: Vec::new(),
            retransmissions: 0,
            read_fallbacks: 0,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Replaces the structured-event sink (a shared ring buffer in traced
    /// runs).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Records one client-side protocol event; a single branch when tracing
    /// is disabled. `detail` carries the op class (0 read, 1 write).
    #[inline]
    fn trace(&self, kind: EventKind, request: RequestId, detail: u64, at: Instant) {
        if self.recorder.enabled() {
            self.recorder.record(TraceEvent {
                seq: 0,
                at,
                node: NodeId::Client(self.id),
                view: self.view,
                mode: self.mode,
                slot: None,
                request: Some(request),
                kind,
                detail,
            });
        }
    }

    /// The client's identity.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The mode the client currently believes the protocol is in.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The view the client currently believes the protocol is in.
    pub fn view(&self) -> View {
        self.view
    }

    /// Whether a request is currently outstanding.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Completed requests, in completion order.
    pub fn completed(&self) -> &[ClientOutcome] {
        &self.completed
    }

    /// Drains and returns the completed requests.
    pub fn take_completed(&mut self) -> Vec<ClientOutcome> {
        std::mem::take(&mut self.completed)
    }

    /// Number of times this client had to retransmit a request.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Number of reads that abandoned the fast path and fell back to the
    /// ordered path (refusals, quorum mismatches or timeouts).
    pub fn read_fallbacks(&self) -> u64 {
        self.read_fallbacks
    }

    /// The primary this client would currently address.
    pub fn current_primary(&self) -> ReplicaId {
        self.cluster
            .primary(self.mode, self.view)
            .expect("client cluster config validated at construction")
    }

    /// Submits a new operation. Returns the send and timer actions; panics
    /// if a request is already outstanding (SeeMoRe clients are closed-loop:
    /// one outstanding request each, as in the paper's evaluation).
    pub fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        assert!(
            self.pending.is_none(),
            "client {} already has a pending request",
            self.id
        );
        self.next_timestamp = self.next_timestamp.next();
        let request = ClientRequest::new(self.id, self.next_timestamp, operation, &self.signer);
        let mut actions = Vec::new();
        let primary = self.current_primary();
        actions.push(Action::Send {
            to: NodeId::Replica(primary),
            message: Message::Request(request.clone()),
        });
        actions.push(Action::SetTimer {
            timer: Timer::ClientRetransmit {
                timestamp: request.timestamp,
            },
            after: self.timeout,
        });
        self.trace(EventKind::ClientSubmit, request.id(), 1, now);
        self.pending = Some(Pending {
            id: request.id(),
            ordered: Some(request),
            fallback_op: None,
            sent_at: now,
            class: OpClass::Write,
            read: None,
            tally: ReplyTally::default(),
            retransmitted: false,
        });
        actions
    }

    /// Submits a read-only operation through the mode-aware fast path:
    /// to the trusted primary in Lion/Dog (served under its commit-index
    /// lease), to the proxies in Peacock (accepted on `2m + 1` matching
    /// replies). Falls back to the ordered path on refusal, quorum mismatch
    /// or timeout; the fallback reuses the same `(client, timestamp)`
    /// identity so it inherits the ordered path's exactly-once handling.
    ///
    /// # Panics
    ///
    /// Panics if a request is already outstanding (closed-loop clients).
    pub fn submit_read(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        assert!(
            self.pending.is_none(),
            "client {} already has a pending request",
            self.id
        );
        self.next_timestamp = self.next_timestamp.next();
        let nonce = self.next_timestamp;
        let read = ReadRequest::new(self.id, nonce, operation.clone(), &self.signer);
        let mut actions = Vec::new();
        for to in self.read_targets() {
            actions.push(Action::Send {
                to: NodeId::Replica(to),
                message: Message::ReadRequest(read.clone()),
            });
        }
        actions.push(Action::SetTimer {
            timer: Timer::ClientRetransmit { timestamp: nonce },
            after: self.timeout,
        });
        self.trace(EventKind::ClientSubmit, read.id(), 0, now);
        self.pending = Some(Pending {
            id: read.id(),
            // The ordered-path fallback shares this identity but is only
            // built (and signed) if a fallback actually happens.
            ordered: None,
            fallback_op: Some(operation),
            sent_at: now,
            class: OpClass::Read,
            read: Some(ReadTally::new()),
            tally: ReplyTally::default(),
            retransmitted: false,
        });
        actions
    }

    /// The replicas a read is issued to in the client's current mode/view:
    /// the trusted primary in Lion/Dog, the `3m + 1` proxies in Peacock.
    fn read_targets(&self) -> Vec<ReplicaId> {
        match self.mode {
            Mode::Lion | Mode::Dog => vec![self.current_primary()],
            Mode::Peacock => self.cluster.proxies(self.view),
        }
    }

    /// Handles any message addressed to the client (`REPLY` and
    /// `READ-REPLY`).
    pub fn on_message(&mut self, _from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        match message {
            Message::Reply(reply) => self.on_reply(reply, now),
            Message::ReadReply(reply) => self.on_read_reply(reply, now),
            _ => Vec::new(),
        }
    }

    /// Handles a `REPLY` from a replica.
    pub fn on_reply(&mut self, reply: ClientReply, now: Instant) -> Vec<Action> {
        // Validate the signature before anything else.
        if !self.keystore.verify(
            NodeId::Replica(reply.replica),
            &reply.signing_bytes(),
            &reply.signature,
        ) {
            return Vec::new();
        }
        let Some(pending_ref) = &self.pending else {
            return Vec::new();
        };
        if reply.request != pending_ref.id {
            return Vec::new();
        }
        if pending_ref.read.is_some() {
            // Ordered replies cannot complete a read that is still on the
            // fast path (they can only arrive for the identity after a
            // fallback, which clears the read phase first).
            return Vec::new();
        }
        let retransmitted = pending_ref.retransmitted;

        let replier_trusted = self.cluster.is_trusted(reply.replica);
        // Trusted replicas never lie: adopt their mode/view immediately so the
        // next request goes to the right primary even across view changes.
        if replier_trusted {
            self.mode = reply.mode;
            self.view = self.view.max(reply.view);
        }
        let threshold = self.acceptance_threshold(retransmitted);

        let result_digest = Digest::of_fields(&[b"reply-result", &reply.result]);
        let pending = self.pending.as_mut().expect("checked above");
        pending
            .tally
            .votes
            .entry(result_digest)
            .or_default()
            .insert(reply.replica);
        pending
            .tally
            .results
            .entry(result_digest)
            .or_insert_with(|| reply.result.clone());

        let votes = pending
            .tally
            .votes
            .get(&result_digest)
            .map(|s| s.len())
            .unwrap_or(0);
        let accepted = if replier_trusted {
            // A single reply from the trusted private cloud is always
            // sufficient (Lion primary reply, or a private replica answering
            // a retransmission).
            true
        } else {
            votes >= threshold as usize
        };
        if !accepted {
            return Vec::new();
        }

        // Accept the result.
        let pending = self.pending.take().expect("checked above");
        let result = pending
            .tally
            .results
            .get(&result_digest)
            .cloned()
            .unwrap_or_default();
        // Untrusted quorums can also teach us the current mode/view.
        if !replier_trusted {
            self.mode = reply.mode;
            self.view = self.view.max(reply.view);
        }
        let class_detail = u64::from(!pending.class.is_read());
        self.trace(EventKind::ClientDone, pending.id, class_detail, now);
        self.completed.push(ClientOutcome {
            request: pending.id,
            class: pending.class,
            result,
            latency: now - pending.sent_at,
            completed_at: now,
        });
        vec![Action::CancelTimer {
            timer: Timer::ClientRetransmit {
                timestamp: pending.id.timestamp,
            },
        }]
    }

    /// Handles a `READ-REPLY` from a replica.
    pub fn on_read_reply(&mut self, reply: ReadReply, now: Instant) -> Vec<Action> {
        if !self.keystore.verify(
            NodeId::Replica(reply.replica),
            &reply.signing_bytes(),
            &reply.signature,
        ) {
            return Vec::new();
        }
        let Some(pending) = &mut self.pending else {
            return Vec::new();
        };
        if pending.read.is_none() || reply.request != pending.id {
            return Vec::new();
        }

        let replier_trusted = self.cluster.is_trusted(reply.replica);
        // Trusted replicas never lie: adopt their mode/view immediately, as
        // on the write path.
        if replier_trusted {
            self.mode = reply.mode;
            self.view = self.view.max(reply.view);
        }

        if reply.refused {
            let read = pending.read.as_mut().expect("checked above");
            let refusals = read.record_refusal(reply.replica);
            // The decision is keyed on the *replier*, not on the mode the
            // reply claims (the cluster may have switched modes under the
            // client's feet): a trusted replica's refusal is authoritative,
            // while untrusted refusals fall back once more than `m` have
            // accumulated — at least one of them is then honest, telling us
            // the fast path is unavailable (view change, mode switch).
            if replier_trusted || refusals > self.cluster.byzantine_bound() as usize {
                return self.fall_back_to_ordered();
            }
            return Vec::new();
        }

        // Tally the served reply.
        let (_, digest) = reply.matching_key();
        let read = pending.read.as_mut().expect("checked above");
        let votes = read.record(digest, reply.replica, &reply.result);

        let accepted = match reply.mode {
            // In Lion/Dog a single reply suffices, but only from the
            // lease-holding trusted primary of the view it claims — a
            // trusted *backup*'s state may lag the acknowledged prefix, and
            // it refuses reads anyway.
            Mode::Lion | Mode::Dog => {
                replier_trusted && self.cluster.primary(reply.mode, reply.view) == Ok(reply.replica)
            }
            // Peacock: `2m + 1` matching replies guarantee intersection with
            // every committed write's quorum in at least one honest replica
            // that had already executed the write.
            Mode::Peacock => !replier_trusted && votes >= self.cluster.proxy_quorum() as usize,
        };
        if !accepted {
            return Vec::new();
        }

        let pending = self.pending.take().expect("checked above");
        let result = pending
            .read
            .as_ref()
            .and_then(|read| read.result_for(&digest))
            .unwrap_or_default();
        // An untrusted quorum also teaches us the current mode/view.
        if !replier_trusted {
            self.mode = reply.mode;
            self.view = self.view.max(reply.view);
        }
        self.trace(EventKind::ClientDone, pending.id, 0, now);
        self.completed.push(ClientOutcome {
            request: pending.id,
            class: OpClass::Read,
            result,
            latency: now - pending.sent_at,
            completed_at: now,
        });
        vec![Action::CancelTimer {
            timer: Timer::ClientRetransmit {
                timestamp: pending.id.timestamp,
            },
        }]
    }

    /// Abandons the read fast path for the outstanding read and re-submits
    /// the identical operation through the ordered path under the identical
    /// `(client, timestamp)` identity.
    fn fall_back_to_ordered(&mut self) -> Vec<Action> {
        let signer = self.signer.clone();
        let primary = self.current_primary();
        let Some(pending) = &mut self.pending else {
            return Vec::new();
        };
        if pending.read.take().is_none() {
            return Vec::new();
        }
        self.read_fallbacks += 1;
        pending.tally = ReplyTally::default();
        pending.retransmitted = false;
        // Build (and sign) the ordered-path request only now that a
        // fallback is actually happening — the identity is the read's
        // `(client, nonce)`, so exactly-once carries over.
        let operation = pending.fallback_op.take().unwrap_or_default();
        let request =
            ClientRequest::new(pending.id.client, pending.id.timestamp, operation, &signer);
        pending.ordered = Some(request.clone());
        vec![
            Action::Send {
                to: NodeId::Replica(primary),
                message: Message::Request(request),
            },
            Action::SetTimer {
                timer: Timer::ClientRetransmit {
                    timestamp: pending.id.timestamp,
                },
                after: self.timeout,
            },
        ]
    }

    /// Matching-reply threshold for untrusted repliers, per mode and
    /// transmission attempt (Table 1 plus the retransmission rules of
    /// Sections 5.1–5.3).
    fn acceptance_threshold(&self, retransmitted: bool) -> u32 {
        if retransmitted {
            self.cluster.retransmit_reply_threshold(self.mode)
        } else {
            match self.mode {
                // On the first transmission in Lion mode only the primary
                // replies, and the primary is trusted; untrusted replies
                // require m+1 agreement.
                Mode::Lion => self.cluster.byzantine_bound() + 1,
                Mode::Dog | Mode::Peacock => self.cluster.reply_threshold(self.mode),
            }
        }
    }

    /// The client's retransmission timer fired: a read still on the fast
    /// path falls back to the ordered path (quorum mismatch, lost replies or
    /// an unreachable primary); an ordered request is broadcast.
    pub fn on_retransmit_timer(&mut self, _now: Instant) -> Vec<Action> {
        if self
            .pending
            .as_ref()
            .is_some_and(|pending| pending.read.is_some())
        {
            return self.fall_back_to_ordered();
        }
        let Some(pending) = &mut self.pending else {
            return Vec::new();
        };
        pending.retransmitted = true;
        self.retransmissions += 1;
        let Some(request) = pending.ordered.clone() else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        // Lion: broadcast to every replica (any replica that executed will
        // answer). Dog / Peacock: broadcast to the proxies of the current
        // view (they executed the request and hold the reply).
        let recipients: Vec<ReplicaId> = match self.mode {
            Mode::Lion => self.cluster.replicas().collect(),
            Mode::Dog | Mode::Peacock => {
                let mut proxies = self.cluster.proxies(self.view);
                // Also nudge the trusted primary (Dog) so an undelivered
                // request gets ordered.
                if let Ok(primary) = self.cluster.primary(self.mode, self.view) {
                    if !proxies.contains(&primary) {
                        proxies.push(primary);
                    }
                }
                proxies
            }
        };
        for to in recipients {
            actions.push(Action::Send {
                to: NodeId::Replica(to),
                message: Message::Request(request.clone()),
            });
        }
        actions.push(Action::SetTimer {
            timer: Timer::ClientRetransmit {
                timestamp: request.timestamp,
            },
            after: self.timeout,
        });
        actions
    }
}

impl ClientProtocol for ClientCore {
    fn id(&self) -> ClientId {
        ClientCore::id(self)
    }
    fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        ClientCore::submit(self, operation, now)
    }
    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: Instant) -> Vec<Action> {
        match class {
            OpClass::Read => ClientCore::submit_read(self, operation, now),
            OpClass::Write => ClientCore::submit(self, operation, now),
        }
    }
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        ClientCore::on_message(self, from, message, now)
    }
    fn on_retransmit_timer(&mut self, now: Instant) -> Vec<Action> {
        ClientCore::on_retransmit_timer(self, now)
    }
    fn completed(&self) -> &[ClientOutcome] {
        ClientCore::completed(self)
    }
    fn take_completed(&mut self) -> Vec<ClientOutcome> {
        ClientCore::take_completed(self)
    }
    fn has_pending(&self) -> bool {
        ClientCore::has_pending(self)
    }
    fn retransmissions(&self) -> u64 {
        ClientCore::retransmissions(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::FailureBounds;

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(2, 4, FailureBounds::new(1, 1)).unwrap()
    }

    fn keystore() -> KeyStore {
        KeyStore::generate(11, 6, 4)
    }

    fn reply_from(
        ks: &KeyStore,
        replica: u32,
        request: RequestId,
        result: &[u8],
        mode: Mode,
        view: View,
    ) -> ClientReply {
        let signer = ks.signer_for(NodeId::Replica(ReplicaId(replica))).unwrap();
        ClientReply::new(
            mode,
            view,
            request,
            ReplicaId(replica),
            result.to_vec(),
            &signer,
        )
    }

    fn new_client(mode: Mode) -> ClientCore {
        ClientCore::new(
            ClientId(0),
            cluster(),
            keystore(),
            mode,
            Duration::from_millis(100),
        )
    }

    #[test]
    fn submit_targets_the_primary_and_arms_a_timer() {
        let mut client = new_client(Mode::Lion);
        let actions = client.submit(b"op".to_vec(), Instant::ZERO);
        assert!(client.has_pending());
        let (to, message) = actions[0].as_send().unwrap();
        assert_eq!(*to, NodeId::Replica(ReplicaId(0))); // Lion primary of view 0
        assert_eq!(message.kind(), seemore_wire::MessageKind::Request);
        assert!(matches!(actions[1], Action::SetTimer { .. }));

        let mut peacock = new_client(Mode::Peacock);
        let actions = peacock.submit(b"op".to_vec(), Instant::ZERO);
        let (to, _) = actions[0].as_send().unwrap();
        assert_eq!(*to, NodeId::Replica(ReplicaId(2))); // Peacock primary is public
    }

    #[test]
    #[should_panic(expected = "pending request")]
    fn second_submit_while_pending_panics() {
        let mut client = new_client(Mode::Lion);
        client.submit(b"a".to_vec(), Instant::ZERO);
        client.submit(b"b".to_vec(), Instant::ZERO);
    }

    #[test]
    fn lion_completes_on_single_trusted_reply() {
        let ks = keystore();
        let mut client = new_client(Mode::Lion);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        let reply = reply_from(&ks, 0, id, b"done", Mode::Lion, View(0));
        let actions = client.on_reply(reply, Instant::from_nanos(5_000_000));
        assert!(!client.has_pending());
        assert_eq!(client.completed().len(), 1);
        assert_eq!(client.completed()[0].result, b"done");
        assert_eq!(client.completed()[0].latency, Duration::from_millis(5));
        assert!(matches!(actions[0], Action::CancelTimer { .. }));
    }

    #[test]
    fn peacock_requires_m_plus_one_matching_replies() {
        let ks = keystore();
        let mut client = new_client(Mode::Peacock);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        // First (untrusted) reply is not enough for m = 1.
        assert!(client
            .on_reply(
                reply_from(&ks, 2, id, b"r", Mode::Peacock, View(0)),
                Instant::ZERO
            )
            .is_empty());
        assert!(client.has_pending());
        // A conflicting reply from another replica does not help.
        assert!(client
            .on_reply(
                reply_from(&ks, 3, id, b"bogus", Mode::Peacock, View(0)),
                Instant::ZERO
            )
            .is_empty());
        assert!(client.has_pending());
        // A second matching reply completes (m + 1 = 2).
        client.on_reply(
            reply_from(&ks, 4, id, b"r", Mode::Peacock, View(0)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
        assert_eq!(client.completed()[0].result, b"r");
    }

    #[test]
    fn dog_requires_two_m_plus_one_on_first_attempt() {
        let ks = keystore();
        let mut client = new_client(Mode::Dog);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        for replica in [2u32, 3] {
            assert!(client
                .on_reply(
                    reply_from(&ks, replica, id, b"r", Mode::Dog, View(0)),
                    Instant::ZERO
                )
                .is_empty());
        }
        assert!(client.has_pending());
        // Third matching proxy reply reaches 2m+1 = 3.
        client.on_reply(
            reply_from(&ks, 4, id, b"r", Mode::Dog, View(0)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
    }

    #[test]
    fn retransmission_lowers_the_threshold_and_broadcasts() {
        let ks = keystore();
        let mut client = new_client(Mode::Dog);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let actions = client.on_retransmit_timer(Instant::ZERO);
        assert_eq!(client.retransmissions(), 1);
        // Broadcast went to the 4 proxies + the trusted primary, plus a timer.
        let sends = actions.iter().filter(|a| a.is_send()).count();
        assert_eq!(sends, 5);

        let id = RequestId::new(ClientId(0), Timestamp(1));
        // After retransmission m+1 = 2 matching replies suffice.
        client.on_reply(
            reply_from(&ks, 2, id, b"r", Mode::Dog, View(0)),
            Instant::ZERO,
        );
        assert!(client.has_pending());
        client.on_reply(
            reply_from(&ks, 5, id, b"r", Mode::Dog, View(0)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
    }

    #[test]
    fn invalid_or_stale_replies_are_ignored() {
        let ks = keystore();
        let mut client = new_client(Mode::Lion);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));

        // Reply for a different request id.
        let wrong_id = RequestId::new(ClientId(0), Timestamp(9));
        client.on_reply(
            reply_from(&ks, 0, wrong_id, b"x", Mode::Lion, View(0)),
            Instant::ZERO,
        );
        assert!(client.has_pending());

        // Forged signature (claims to be replica 0 but signed by replica 5).
        let forged = {
            let mut reply = reply_from(&ks, 5, id, b"x", Mode::Lion, View(0));
            reply.replica = ReplicaId(0);
            reply
        };
        client.on_reply(forged, Instant::ZERO);
        assert!(client.has_pending());

        // Replies when nothing is pending are ignored too.
        let mut idle = new_client(Mode::Lion);
        assert!(idle
            .on_reply(
                reply_from(&ks, 0, id, b"x", Mode::Lion, View(0)),
                Instant::ZERO
            )
            .is_empty());
    }

    #[test]
    fn client_learns_mode_and_view_from_trusted_replies() {
        let ks = keystore();
        let mut client = new_client(Mode::Lion);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        // Trusted replica 1 answers from view 3 in Dog mode.
        client.on_reply(
            reply_from(&ks, 1, id, b"r", Mode::Dog, View(3)),
            Instant::ZERO,
        );
        assert_eq!(client.mode(), Mode::Dog);
        assert_eq!(client.view(), View(3));
        // Next submission goes to the Dog primary of view 3 (= 3 mod S = r1).
        let actions = client.submit(b"next".to_vec(), Instant::ZERO);
        let (to, _) = actions[0].as_send().unwrap();
        assert_eq!(*to, NodeId::Replica(ReplicaId(1)));
    }

    #[test]
    fn take_completed_drains() {
        let ks = keystore();
        let mut client = new_client(Mode::Lion);
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        client.on_reply(
            reply_from(&ks, 0, id, b"r", Mode::Lion, View(0)),
            Instant::ZERO,
        );
        assert_eq!(client.take_completed().len(), 1);
        assert!(client.completed().is_empty());
        let _ = client.on_message(
            NodeId::Replica(ReplicaId(0)),
            Message::StateRequest(seemore_wire::StateRequest {
                from_seq: seemore_types::SeqNum(0),
                replica: ReplicaId(0),
            }),
            Instant::ZERO,
        );
    }
}
