//! The client side of every protocol: request submission, reply quorums,
//! retransmission, and the mode-aware read-only fast path (Section 5 plus
//! the PBFT read optimization lineage).
//!
//! There is one client, [`ClientCore`]. What differs between SeeMoRe and
//! the baselines — who the primary is, which repliers are trusted, how many
//! matching replies complete a request and where a read or a retransmission
//! goes (Table 1's reply column, the retransmission rules of Sections
//! 5.1–5.3) — is a [`ReplyPolicy`]. [`ClusterConfig`] is SeeMoRe's policy;
//! the baselines' `BaselineConfig` is theirs.

use crate::actions::{Action, Timer};
use seemore_crypto::{Digest, KeyStore, Signature, Signer};
use seemore_telemetry::{EventKind, NullRecorder, Recorder, TraceEvent};
use seemore_types::{
    ClientId, ClusterConfig, Duration, Instant, Mode, NodeId, OpClass, ReplicaId, RequestId,
    Timestamp, View,
};
use seemore_wire::{ClientReply, ClientRequest, Message, ReadReply, ReadRequest, SignedPayload};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The sans-IO contract runtimes and the test kit drive clients through.
///
/// [`ClientCore`] is the one client implementation (the baselines'
/// `BaselineClient` is a newtype that forwards to it); the trait stays for
/// callers that hold a `Box<dyn ClientProtocol>`.
pub trait ClientProtocol: Send {
    /// The client's identity.
    fn id(&self) -> ClientId;
    /// Submits a new operation on the ordered path, returning send/timer
    /// actions.
    fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action>;
    /// Submits an operation with an explicit read/write classification:
    /// writes take the ordered path, [`OpClass::Read`] operations the read
    /// fast path.
    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: Instant) -> Vec<Action>;
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

/// The rules a protocol's client follows, asked of the protocol's static
/// configuration. Everything else about a client is the same for every
/// protocol and lives in [`ClientCore`].
pub trait ReplyPolicy: Send {
    /// The primary of `view` in `mode`.
    fn primary(&self, mode: Mode, view: View) -> ReplicaId;
    /// Whether one reply from `replica` is believed on its own, and teaches
    /// the client the replier's mode and view at once.
    fn is_trusted(&self, replica: ReplicaId) -> bool;
    /// Whether replies are signed and must be verified before they count.
    fn signed_replies(&self) -> bool;
    /// Matching replies from untrusted replicas that complete an ordered
    /// request, on the first transmission or after a retransmission.
    fn reply_threshold(&self, mode: Mode, retransmitted: bool) -> u32;
    /// The most faulty repliers a fast read must allow for: one refusal
    /// more than this contains an honest one and ends the fast path.
    fn byzantine_bound(&self) -> u32;
    /// The replicas a fast-path read is sent to.
    fn read_targets(&self, mode: Mode, view: View) -> Vec<ReplicaId>;
    /// The replicas a timed-out ordered request is broadcast to.
    fn retransmit_targets(&self, mode: Mode, view: View) -> Vec<ReplicaId>;
    /// How a served read is accepted in `mode`: `None` means the trusted
    /// primary of the view the reply claims serves alone; `Some(q)` means
    /// `q` matching replies from untrusted replicas.
    fn read_quorum(&self, mode: Mode) -> Option<u32>;
}

/// SeeMoRe's client rules: the private cloud is trusted, and quorums follow
/// the mode (Table 1 plus the retransmission rules of Sections 5.1–5.3).
impl ReplyPolicy for ClusterConfig {
    fn primary(&self, mode: Mode, view: View) -> ReplicaId {
        ClusterConfig::primary(self, mode, view)
            .expect("client cluster config validated at construction")
    }

    fn is_trusted(&self, replica: ReplicaId) -> bool {
        ClusterConfig::is_trusted(self, replica)
    }

    fn signed_replies(&self) -> bool {
        true
    }

    fn reply_threshold(&self, mode: Mode, retransmitted: bool) -> u32 {
        if retransmitted {
            return self.retransmit_reply_threshold(mode);
        }
        match mode {
            // On the first transmission in Lion mode only the primary
            // replies, and the primary is trusted; untrusted replies
            // require m+1 agreement.
            Mode::Lion => ClusterConfig::byzantine_bound(self) + 1,
            Mode::Dog | Mode::Peacock => ClusterConfig::reply_threshold(self, mode),
        }
    }

    fn byzantine_bound(&self) -> u32 {
        ClusterConfig::byzantine_bound(self)
    }

    /// The trusted primary in Lion/Dog, the `3m + 1` proxies in Peacock.
    fn read_targets(&self, mode: Mode, view: View) -> Vec<ReplicaId> {
        match mode {
            Mode::Lion | Mode::Dog => vec![ReplyPolicy::primary(self, mode, view)],
            Mode::Peacock => self.proxies(view),
        }
    }

    /// Lion: every replica (any replica that executed will answer). Dog /
    /// Peacock: the proxies of the view (they executed the request and hold
    /// the reply), plus the primary so an undelivered request gets ordered.
    fn retransmit_targets(&self, mode: Mode, view: View) -> Vec<ReplicaId> {
        match mode {
            Mode::Lion => self.replicas().collect(),
            Mode::Dog | Mode::Peacock => {
                let mut proxies = self.proxies(view);
                if let Ok(primary) = ClusterConfig::primary(self, mode, view) {
                    if !proxies.contains(&primary) {
                        proxies.push(primary);
                    }
                }
                proxies
            }
        }
    }

    /// Lion/Dog: the lease-holding trusted primary alone — a trusted
    /// *backup*'s state may lag the acknowledged prefix, and it refuses
    /// reads anyway. Peacock: `2m + 1` matching proxies, which intersect
    /// every committed write's quorum in an honest replica that had already
    /// executed the write.
    fn read_quorum(&self, mode: Mode) -> Option<u32> {
        match mode {
            Mode::Lion | Mode::Dog => None,
            Mode::Peacock => Some(self.proxy_quorum()),
        }
    }
}

/// Reply votes collected for the outstanding request: served replies per
/// matching digest, and refusals of the read fast path.
#[derive(Debug, Default)]
struct ReplyTally {
    /// Voting replicas per matching digest.
    votes: HashMap<Digest, BTreeSet<ReplicaId>>,
    /// The actual result bytes per digest.
    results: HashMap<Digest, Vec<u8>>,
    /// Replicas that refused the fast path.
    refusals: BTreeSet<ReplicaId>,
}

impl ReplyTally {
    /// Records a refusal; returns how many distinct replicas have refused.
    fn record_refusal(&mut self, replica: ReplicaId) -> usize {
        self.refusals.insert(replica);
        self.refusals.len()
    }

    /// Records a served reply under its matching digest; returns how many
    /// distinct replicas now match it.
    fn record(&mut self, digest: Digest, replica: ReplicaId, result: &[u8]) -> usize {
        self.results
            .entry(digest)
            .or_insert_with(|| result.to_vec());
        let voters = self.votes.entry(digest).or_default();
        voters.insert(replica);
        voters.len()
    }

    /// Removes and returns the result bytes recorded for `digest`.
    fn take_result(&mut self, digest: &Digest) -> Vec<u8> {
        self.results.remove(digest).unwrap_or_default()
    }
}

/// Where the outstanding request is.
#[derive(Debug)]
enum Path {
    /// A read on the fast path, with its operation bytes kept for the
    /// ordered fallback — built (and signed) only if a fallback happens, so
    /// the common all-fast-path case pays one signature, not two.
    FastRead(Vec<u8>),
    /// On the ordered path: writes always, reads after falling back.
    Ordered(ClientRequest),
}

/// The outstanding request, if any.
#[derive(Debug)]
struct Pending {
    /// The request identity `(client, timestamp)`, shared by the fast path
    /// and the ordered fallback.
    id: RequestId,
    /// Read/write classification recorded in the outcome.
    class: OpClass,
    path: Path,
    sent_at: Instant,
    tally: ReplyTally,
    retransmitted: bool,
}

/// A sans-IO client for every protocol.
///
/// It tracks the current mode and view from validated replies, sends each
/// request to the current primary, and falls back to broadcasting after a
/// timeout, as its [`ReplyPolicy`] prescribes.
pub struct ClientCore {
    id: ClientId,
    policy: Box<dyn ReplyPolicy>,
    keystore: KeyStore,
    signer: Signer,
    mode: Mode,
    view: View,
    timeout: Duration,
    next_timestamp: Timestamp,
    pending: Option<Pending>,
    completed: Vec<ClientOutcome>,
    retransmissions: u64,
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
    /// Creates a SeeMoRe client that believes the protocol is in `mode`,
    /// view 0.
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
        Self::with_policy(id, Box::new(cluster), keystore, mode, timeout)
    }

    /// Creates a client that follows `policy` and believes the protocol is
    /// in `mode`, view 0.
    ///
    /// # Panics
    ///
    /// Panics if the key store has no signer for this client.
    pub fn with_policy(
        id: ClientId,
        policy: Box<dyn ReplyPolicy>,
        keystore: KeyStore,
        mode: Mode,
        timeout: Duration,
    ) -> Self {
        let signer = keystore
            .signer_for(NodeId::Client(id))
            .expect("key store must contain a signer for this client");
        ClientCore {
            id,
            policy,
            keystore,
            signer,
            mode,
            view: View::ZERO,
            timeout,
            next_timestamp: Timestamp(0),
            pending: None,
            completed: Vec::new(),
            retransmissions: 0,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Replaces the structured-event sink (a shared ring buffer in traced
    /// runs).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Records one client-side protocol event; a single branch when tracing
    /// is disabled. The event's `detail` is `class` (0 read, 1 write).
    #[inline]
    fn trace(&self, kind: EventKind, request: RequestId, class: OpClass, at: Instant) {
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
                detail: u64::from(!class.is_read()),
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

    /// The primary this client would currently address.
    fn current_primary(&self) -> ReplicaId {
        self.policy.primary(self.mode, self.view)
    }

    /// Submits a new operation. Returns the send and timer actions; panics
    /// if a request is already outstanding (clients are closed-loop: one
    /// outstanding request each, as in the paper's evaluation).
    pub fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        let id = self.next_request();
        let request = ClientRequest::new(self.id, id.timestamp, operation, &self.signer);
        let actions = self.transmit(
            &[self.current_primary()],
            Message::Request(request.clone()),
            id.timestamp,
        );
        self.start(id, OpClass::Write, Path::Ordered(request), now);
        actions
    }

    /// Submits a read-only operation through the fast path, to the
    /// policy's read targets (the trusted primary in Lion/Dog and CFT, the
    /// proxies in Peacock, every replica in BFT). Falls back to the ordered
    /// path on refusal, quorum mismatch or timeout; the fallback reuses the
    /// same `(client, timestamp)` identity so it inherits the ordered path's
    /// exactly-once handling.
    ///
    /// # Panics
    ///
    /// Panics if a request is already outstanding (closed-loop clients).
    pub fn submit_read(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        let id = self.next_request();
        let read = ReadRequest::new(self.id, id.timestamp, operation.clone(), &self.signer);
        let actions = self.transmit(
            &self.policy.read_targets(self.mode, self.view),
            Message::ReadRequest(read),
            id.timestamp,
        );
        self.start(id, OpClass::Read, Path::FastRead(operation), now);
        actions
    }

    /// The identity of a new request.
    fn next_request(&mut self) -> RequestId {
        assert!(
            self.pending.is_none(),
            "client {} already has a pending request",
            self.id
        );
        self.next_timestamp = self.next_timestamp.next();
        RequestId::new(self.id, self.next_timestamp)
    }

    /// Makes `id` the outstanding request.
    fn start(&mut self, id: RequestId, class: OpClass, path: Path, now: Instant) {
        self.trace(EventKind::ClientSubmit, id, class, now);
        self.pending = Some(Pending {
            id,
            class,
            path,
            sent_at: now,
            tally: ReplyTally::default(),
            retransmitted: false,
        });
    }

    /// Sends `message` to each of `targets` and (re)arms the retransmission
    /// timer of the request stamped `timestamp`.
    fn transmit(
        &self,
        targets: &[ReplicaId],
        message: Message,
        timestamp: Timestamp,
    ) -> Vec<Action> {
        let send = |to: ReplicaId, message| Action::Send {
            to: NodeId::Replica(to),
            message,
        };
        let mut actions = Vec::with_capacity(targets.len() + 1);
        if let Some((&last, rest)) = targets.split_last() {
            actions.extend(rest.iter().map(|&to| send(to, message.clone())));
            actions.push(send(last, message));
        }
        actions.push(Action::SetTimer {
            timer: Timer::ClientRetransmit { timestamp },
            after: self.timeout,
        });
        actions
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

    /// Whether a reply to `request` answers the outstanding request on the
    /// path it is on (`fast_read`).
    fn expects(&self, request: RequestId, fast_read: bool) -> bool {
        self.pending.as_ref().is_some_and(|pending| {
            pending.id == request && matches!(pending.path, Path::FastRead(_)) == fast_read
        })
    }

    /// Whether `reply` from `replica` carries a valid signature, where the
    /// policy signs replies.
    fn authentic(
        &self,
        replica: ReplicaId,
        reply: &impl SignedPayload,
        signature: &Signature,
    ) -> bool {
        !self.policy.signed_replies()
            || self
                .keystore
                .verify(NodeId::Replica(replica), &reply.signing_bytes(), signature)
    }

    /// Adopts the mode and view a believed reply reports.
    fn learn(&mut self, mode: Mode, view: View) {
        self.mode = mode;
        self.view = self.view.max(view);
    }

    /// Handles a `REPLY` from a replica.
    pub fn on_reply(&mut self, reply: ClientReply, now: Instant) -> Vec<Action> {
        if !self.expects(reply.request, false)
            || !self.authentic(reply.replica, &reply, &reply.signature)
        {
            return Vec::new();
        }
        let trusted = self.policy.is_trusted(reply.replica);
        // Trusted replicas never lie: adopt their mode/view immediately so the
        // next request goes to the right primary even across view changes.
        if trusted {
            self.learn(reply.mode, reply.view);
        }
        let pending = self.pending.as_mut().expect("checked above");
        let threshold = self
            .policy
            .reply_threshold(self.mode, pending.retransmitted);
        let (_, digest) = reply.matching_key();
        let votes = pending.tally.record(digest, reply.replica, &reply.result);
        // A single trusted reply is always sufficient (Lion primary reply,
        // a private replica answering a retransmission, any CFT replica).
        if !trusted && votes < threshold as usize {
            return Vec::new();
        }
        self.complete(digest, trusted, reply.mode, reply.view, now)
    }

    /// Handles a `READ-REPLY` from a replica.
    fn on_read_reply(&mut self, reply: ReadReply, now: Instant) -> Vec<Action> {
        if !self.expects(reply.request, true)
            || !self.authentic(reply.replica, &reply, &reply.signature)
        {
            return Vec::new();
        }
        let trusted = self.policy.is_trusted(reply.replica);
        if trusted {
            self.learn(reply.mode, reply.view);
        }
        let pending = self.pending.as_mut().expect("checked above");
        if reply.refused {
            let refusals = pending.tally.record_refusal(reply.replica);
            // The decision is keyed on the *replier*, not on the mode the
            // reply claims (the cluster may have switched modes under the
            // client's feet): a trusted replica's refusal is authoritative,
            // while untrusted refusals fall back once more than the
            // Byzantine bound have accumulated — at least one of them is
            // then honest, telling us the fast path is unavailable (view
            // change, mode switch).
            if trusted || refusals > self.policy.byzantine_bound() as usize {
                return self.fall_back_to_ordered();
            }
            return Vec::new();
        }
        let (_, digest) = reply.matching_key();
        let votes = pending.tally.record(digest, reply.replica, &reply.result);
        let accepted = match self.policy.read_quorum(reply.mode) {
            None => trusted && self.policy.primary(reply.mode, reply.view) == reply.replica,
            Some(quorum) => !trusted && votes >= quorum as usize,
        };
        if !accepted {
            return Vec::new();
        }
        self.complete(digest, trusted, reply.mode, reply.view, now)
    }

    /// Accepts the result recorded under `digest` for the outstanding
    /// request. An untrusted quorum also teaches the client the `mode` and
    /// `view` of the reply that completed it.
    fn complete(
        &mut self,
        digest: Digest,
        trusted: bool,
        mode: Mode,
        view: View,
        now: Instant,
    ) -> Vec<Action> {
        if !trusted {
            self.learn(mode, view);
        }
        let mut pending = self.pending.take().expect("checked by the caller");
        self.trace(EventKind::ClientDone, pending.id, pending.class, now);
        self.completed.push(ClientOutcome {
            request: pending.id,
            class: pending.class,
            result: pending.tally.take_result(&digest),
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
    /// `(client, timestamp)` identity, so exactly-once carries over.
    fn fall_back_to_ordered(&mut self) -> Vec<Action> {
        let primary = self.current_primary();
        let Some(pending) = &mut self.pending else {
            return Vec::new();
        };
        let Path::FastRead(operation) = &mut pending.path else {
            return Vec::new();
        };
        let request = ClientRequest::new(
            pending.id.client,
            pending.id.timestamp,
            std::mem::take(operation),
            &self.signer,
        );
        pending.path = Path::Ordered(request.clone());
        pending.tally = ReplyTally::default();
        pending.retransmitted = false;
        let timestamp = pending.id.timestamp;
        self.transmit(&[primary], Message::Request(request), timestamp)
    }

    /// The client's retransmission timer fired: a read still on the fast
    /// path falls back to the ordered path (quorum mismatch, lost replies or
    /// an unreachable primary); an ordered request is broadcast to the
    /// policy's retransmission targets.
    pub fn on_retransmit_timer(&mut self, _now: Instant) -> Vec<Action> {
        let Some(pending) = &mut self.pending else {
            return Vec::new();
        };
        let request = match &pending.path {
            Path::FastRead(_) => return self.fall_back_to_ordered(),
            Path::Ordered(request) => request.clone(),
        };
        pending.retransmitted = true;
        let timestamp = pending.id.timestamp;
        self.retransmissions += 1;
        self.transmit(
            &self.policy.retransmit_targets(self.mode, self.view),
            Message::Request(request),
            timestamp,
        )
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

    #[test]
    fn tally_counts_distinct_replicas_only() {
        let mut tally = ReplyTally::default();
        let digest = Digest::of_bytes(b"v");
        assert_eq!(tally.record(digest, ReplicaId(1), b"v"), 1);
        assert_eq!(tally.record(digest, ReplicaId(1), b"v"), 1);
        assert_eq!(tally.record(digest, ReplicaId(2), b"v"), 2);
        assert_eq!(tally.take_result(&digest), b"v".to_vec());
        assert_eq!(tally.record_refusal(ReplicaId(3)), 1);
        assert_eq!(tally.record_refusal(ReplicaId(3)), 1);
        assert_eq!(tally.record_refusal(ReplicaId(4)), 2);
    }
}
