//! The replica side of the read-only fast path, written once for every
//! protocol.
//!
//! [`ReadPath`] is the state: the read lease with its propose-time anchors,
//! the prepared frontier, and the reads parked behind a fence
//! ([`ParkedReads`]). The handlers — admit, park, serve, refuse, and the
//! serve-time re-check of the lease — are methods of
//! [`ReplicaChassis`], so the SeeMoRe replica and the CFT / BFT baselines
//! run the same code. What differs between them reaches it as a value: the
//! [`ReadRule`] the caller's role allows right now, and whether replies are
//! signed (`Option<&mut SigningContext>`). The client's side of a read
//! lives in [`ClientCore`](crate::client::ClientCore).
//!
//! The lease rule and why it is safe are in the crate docs ("The read-only
//! fast path"); [`ReplicaChassis::extend_read_lease`] is its one
//! implementation.

use crate::actions::Action;
use crate::chassis::{ReplicaChassis, SigningContext};
use seemore_crypto::Signature;
use seemore_telemetry::EventKind;
use seemore_types::{Instant, NodeId, ProtocolViolation, RequestId, SeqNum};
use seemore_wire::{Message, ReadReply, ReadRequest};
use std::collections::HashMap;

/// Whether, and behind which fence, a replica may serve fast-path reads in
/// its current role: the admission verdict its protocol computes and hands
/// to [`ReplicaChassis::on_read_request`] and
/// [`ReplicaChassis::execute_ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadRule {
    /// Refuse every read: the replica does not serve reads in its role
    /// (a backup, a passive replica), or a view change is under way.
    Refuse,
    /// Serve under the read lease as of the given time, once executed
    /// state covers every slot this replica had proposed when the read
    /// arrived (the read-index fence). A lapsed lease refuses, and a parked
    /// read re-checks the lease when it is served. A trusted SeeMoRe
    /// primary and the CFT leader.
    Leased(Instant),
    /// Serve once executed state covers every slot this replica has
    /// prepared (the prepared fence); no lease. A Peacock proxy and every
    /// BFT replica, whose clients need a quorum of matching replies.
    Prepared,
}

/// The read lease, the prepared frontier and the parked reads of one
/// replica (see the module docs).
#[derive(Debug)]
pub struct ReadPath {
    /// Until when this replica, as lease holder, may serve reads from its
    /// executed state without ordering them. Extended to `anchor + τ` (one
    /// suspicion timeout) every time a slot it proposed commits with quorum
    /// evidence, where the anchor is the slot's *proposal send time*, not
    /// the evidence's arrival time: replicas arm their suspicion timers no
    /// earlier than the proposal's send and wait out `τ` of silence before
    /// deposing a primary, so the lease derived from any slot expires before
    /// a successor elected behind this replica's back can commit a
    /// conflicting write — even if the evidence itself was delayed
    /// arbitrarily in the network.
    lease_until: Instant,
    /// When each in-flight slot was proposed by this replica: the lease
    /// anchors above. Consumed on commit, pruned below the stable
    /// checkpoint, cleared when a view is installed.
    proposed_at: HashMap<SeqNum, Instant>,
    /// Highest slot this replica has *prepared* (the prepared fence). An
    /// acknowledged write's commit quorum holds at least `m + 1` (Peacock)
    /// or `f + 1` (BFT) honest prepared replicas, so once every prepared
    /// slot is executed here, at most `m` (`f`) honest replicas can still
    /// answer with the pre-write value: too few, with the Byzantine ones,
    /// for a `2m + 1` (`2f + 1`) matching stale quorum.
    highest_prepared: SeqNum,
    /// Reads waiting for the execution frontier to reach their fence.
    parked: ParkedReads,
}

impl ReadPath {
    /// A read path whose lease runs until `lease_until`: all replicas boot
    /// together into view 0, which counts as the initial quorum contact.
    pub(crate) fn new(lease_until: Instant) -> Self {
        ReadPath {
            lease_until,
            proposed_at: HashMap::new(),
            highest_prepared: SeqNum(0),
            parked: ParkedReads::new(),
        }
    }

    /// Drops the lease anchors of a dead view: a freshly installed primary
    /// starts with no lease and earns one from its first committed slot.
    pub(crate) fn forget_anchors(&mut self) {
        self.proposed_at.clear();
    }

    /// Drops the lease anchors at or below the stable checkpoint.
    pub(crate) fn forget_anchors_below(&mut self, stable: SeqNum) {
        self.proposed_at.retain(|seq, _| *seq > stable);
    }

    /// Advances the prepared frontier to `seq`.
    pub fn note_prepared(&mut self, seq: SeqNum) {
        self.highest_prepared = self.highest_prepared.max(seq);
    }
}

impl ReplicaChassis {
    /// Handles a `READ-REQUEST`: verifies the client's signature when the
    /// deployment signs, then serves the read from executed state, parks it
    /// behind the fence `rule` names, or refuses it so the client falls back
    /// to the ordered path.
    pub fn on_read_request(
        &mut self,
        read: ReadRequest,
        rule: ReadRule,
        mut signing: Option<&mut SigningContext>,
    ) -> Vec<Action> {
        let mut actions = Vec::new();
        if let Some(signing) = signing.as_deref_mut() {
            if !signing.verify(NodeId::Client(read.client), &read, &read.signature) {
                actions.push(self.violation(ProtocolViolation::BadSignature {
                    claimed_signer: NodeId::Client(read.client),
                }));
                return actions;
            }
        }
        let fence = match rule {
            ReadRule::Refuse => None,
            ReadRule::Leased(now) if now >= self.reads.lease_until => {
                // The replica would have served this read, but its lease
                // lapsed: commit evidence (and so lease extension) stopped
                // flowing.
                self.trace(EventKind::LeaseExpiry, None, Some(read.id()), 0);
                None
            }
            ReadRule::Leased(_) => Some(self.next_seq.max(self.exec.last_executed())),
            ReadRule::Prepared => Some(self.reads.highest_prepared),
        };
        let Some(fence) = fence else {
            self.refuse_read(&mut actions, &read, signing);
            return actions;
        };
        self.trace(EventKind::RequestAdmitted, None, Some(read.id()), 0);
        if self.exec.last_executed() >= fence {
            self.serve_read(&mut actions, &read, signing);
        } else {
            self.reads.parked.park(fence, read);
        }
        actions
    }

    /// Serves every parked read whose fence executed state now covers, under
    /// `rule` as it stands after the execution. A lease-held rule is
    /// re-checked here, not only at admission: the very commit evidence
    /// that advanced execution may have been delayed past the lease the read
    /// was parked under (a successor could have committed meanwhile), and
    /// then every parked read is refused instead.
    pub(crate) fn serve_parked_reads(
        &mut self,
        actions: &mut Vec<Action>,
        rule: ReadRule,
        mut signing: Option<&mut SigningContext>,
    ) {
        if self.reads.parked.is_empty() {
            return;
        }
        let may_serve = match rule {
            ReadRule::Refuse => false,
            ReadRule::Leased(now) => now < self.reads.lease_until,
            ReadRule::Prepared => true,
        };
        if !may_serve {
            self.refuse_parked_reads(actions, signing);
            return;
        }
        for read in self.reads.parked.take_ready(self.exec.last_executed()) {
            self.serve_read(actions, &read, signing.as_deref_mut());
        }
    }

    /// Refuses every parked read: a view change or mode switch started, so
    /// the fence no longer means anything and the clients must fall back.
    pub fn refuse_parked_reads(
        &mut self,
        actions: &mut Vec<Action>,
        mut signing: Option<&mut SigningContext>,
    ) {
        for read in self.reads.parked.drain() {
            self.refuse_read(actions, &read, signing.as_deref_mut());
        }
    }

    /// Evaluates `read` against executed state and replies; refuses when the
    /// application cannot prove the operation read-only (which also stops a
    /// Byzantine client from sneaking a mutation past ordering).
    fn serve_read(
        &mut self,
        actions: &mut Vec<Action>,
        read: &ReadRequest,
        signing: Option<&mut SigningContext>,
    ) {
        let Some(result) = self.exec.read(&read.operation) else {
            self.refuse_read(actions, read, signing);
            return;
        };
        self.metrics.reads_served += 1;
        self.trace(EventKind::Executed, None, Some(read.id()), 0);
        self.trace(EventKind::Replied, None, Some(read.id()), 0);
        self.send_read_reply(actions, read, false, result, signing);
    }

    /// Sends a refusal redirecting the client to the ordered path.
    fn refuse_read(
        &mut self,
        actions: &mut Vec<Action>,
        read: &ReadRequest,
        signing: Option<&mut SigningContext>,
    ) {
        self.metrics.reads_refused += 1;
        self.trace(EventKind::ReadRefused, None, Some(read.id()), 0);
        self.send_read_reply(actions, read, true, Vec::new(), signing);
    }

    fn send_read_reply(
        &mut self,
        actions: &mut Vec<Action>,
        read: &ReadRequest,
        refused: bool,
        result: Vec<u8>,
        signing: Option<&mut SigningContext>,
    ) {
        let mut reply = ReadReply {
            mode: self.mode,
            view: self.view,
            request: read.id(),
            replica: self.id,
            last_executed: self.exec.last_executed(),
            refused,
            result,
            signature: Signature::INVALID,
        };
        if let Some(signing) = signing {
            reply.signature = signing.sign(&reply);
        }
        self.send(
            actions,
            NodeId::Client(read.client),
            Message::ReadReply(reply),
        );
    }

    /// Records the slot `seq` this replica proposed at `now` as a lease
    /// anchor, discounted by the batching delay bound: a member request may
    /// have sat in the buffer for up to `max_delay` after arming a backup's
    /// suspicion timer via forwarding, and the lease derived from this slot
    /// must not outlive a deposal that timer could trigger.
    pub fn anchor_read_lease(&mut self, seq: SeqNum, now: Instant) {
        let anchor = now.saturating_sub(self.pconfig.batch.max_delay());
        self.reads.proposed_at.insert(seq, anchor);
    }

    /// A quorum of the current view followed this replica's proposal for
    /// `seq`: consumes the slot's propose-time anchor (if this replica
    /// proposed it) and extends the read lease to `anchor + τ`.
    pub fn extend_read_lease(&mut self, seq: SeqNum) {
        let Some(anchor) = self.reads.proposed_at.remove(&seq) else {
            return;
        };
        let extended = anchor + self.pconfig.request_timeout;
        if extended > self.reads.lease_until {
            self.reads.lease_until = extended;
            self.trace(EventKind::LeaseGrant, None, None, extended.as_nanos());
        }
    }
}

/// Fast-path reads parked behind a commit-index fence, keyed by their
/// `(client, nonce)` identity. Re-parking a retransmitted read replaces its
/// entry (fences only move forward, which is harmless).
#[derive(Debug, Default)]
pub struct ParkedReads {
    parked: HashMap<RequestId, (SeqNum, ReadRequest)>,
}

impl ParkedReads {
    /// An empty park.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no reads are parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Parks `read` until the execution frontier reaches `fence`.
    pub fn park(&mut self, fence: SeqNum, read: ReadRequest) {
        self.parked.insert(read.id(), (fence, read));
    }

    /// Removes and returns (in deterministic id order) every read whose
    /// fence is covered by `executed`.
    pub fn take_ready(&mut self, executed: SeqNum) -> Vec<ReadRequest> {
        if self.parked.is_empty() {
            return Vec::new();
        }
        let mut ready: Vec<RequestId> = self
            .parked
            .iter()
            .filter(|(_, (fence, _))| *fence <= executed)
            .map(|(id, _)| *id)
            .collect();
        ready.sort();
        ready
            .into_iter()
            .map(|id| self.parked.remove(&id).expect("collected above").1)
            .collect()
    }

    /// Removes and returns every parked read (in deterministic id order) —
    /// used when a view change or mode switch invalidates the fence and the
    /// clients must be told to fall back.
    pub fn drain(&mut self) -> Vec<ReadRequest> {
        let mut parked: Vec<(RequestId, ReadRequest)> = self
            .parked
            .drain()
            .map(|(id, (_, read))| (id, read))
            .collect();
        parked.sort_by_key(|(id, _)| *id);
        parked.into_iter().map(|(_, read)| read).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::Signature;
    use seemore_types::{ClientId, Timestamp};

    fn read(client: u64, nonce: u64) -> ReadRequest {
        ReadRequest {
            client: ClientId(client),
            nonce: Timestamp(nonce),
            operation: Vec::new(),
            signature: Signature::INVALID,
        }
    }

    #[test]
    fn parked_reads_release_in_fence_then_id_order() {
        let mut parked = ParkedReads::new();
        parked.park(SeqNum(5), read(2, 1));
        parked.park(SeqNum(3), read(1, 1));
        parked.park(SeqNum(9), read(0, 1));
        assert!(!parked.is_empty());

        // Nothing ready below the lowest fence.
        assert!(parked.take_ready(SeqNum(2)).is_empty());
        // Frontier 5 releases the two reads fenced at 3 and 5, id-sorted.
        let ready = parked.take_ready(SeqNum(5));
        assert_eq!(
            ready.iter().map(|r| r.client).collect::<Vec<_>>(),
            vec![ClientId(1), ClientId(2)]
        );
        // The rest drains on demand.
        let rest = parked.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].client, ClientId(0));
        assert!(parked.is_empty());
    }

    #[test]
    fn reparking_replaces_the_fence() {
        let mut parked = ParkedReads::new();
        parked.park(SeqNum(3), read(0, 1));
        parked.park(SeqNum(7), read(0, 1)); // retransmission, later fence
        assert!(parked.take_ready(SeqNum(5)).is_empty());
        assert_eq!(parked.take_ready(SeqNum(7)).len(), 1);
    }
}
