//! The typed protocol events the tracer records.

use std::fmt;

use seemore_types::{Instant, Mode, NodeId, RequestId, SeqNum, View};

/// What happened. See the crate docs for the full taxonomy; `detail` on the
/// owning [`TraceEvent`] carries the kind-specific payload noted per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A client handed a request to the transport. `detail` is the op class
    /// (`0` read, `1` write).
    ClientSubmit,
    /// A client matched a reply certificate and completed the request.
    /// `detail` is the op class (`0` read, `1` write).
    ClientDone,
    /// The primary admitted a client request into its batcher.
    RequestAdmitted,
    /// A batch closed and left the batcher. `detail` is the batch size.
    BatchCut,
    /// A request left the primary inside a proposal; the event's `slot` is
    /// the sequence number the batch was assigned.
    ProposeSent,
    /// The decision quorum for `slot` arrived. `detail` is the vote count.
    QuorumReached,
    /// `slot` committed locally.
    Committed,
    /// A request executed against the application. For fast-path reads this
    /// is the serve point (no slot).
    Executed,
    /// A reply left for the client.
    Replied,
    /// A view change started toward `view`.
    ViewChangeStart,
    /// `view` was installed.
    ViewChangeInstall,
    /// A mode switch toward `mode` was requested. `detail` is the target
    /// mode's paper index (1 = Lion, 2 = Dog, 3 = Peacock).
    ModeSwitchStart,
    /// A mode switch completed; the event's `mode` is the new mode.
    ModeSwitchDone,
    /// The primary's read lease was granted or extended. `detail` is the
    /// lease expiry as nanoseconds since the time origin.
    LeaseGrant,
    /// The read lease lapsed (a read arrived after expiry).
    LeaseExpiry,
    /// A fast-path read was refused. `detail` is `0` when the lease was
    /// missing/expired and `1` when a fence blocked it.
    ReadRefused,
    /// This replica started suspecting the primary of `view`.
    SuspicionFired,
    /// A message signature failed verification.
    SigVerifyFail,
    /// A vote's digest disagreed with the locally accepted proposal for
    /// `slot`.
    VoteMismatch,
    /// A replica restarted from durable state and began its rejoin.
    /// `detail` is the number of WAL records replayed.
    RecoveryStarted,
    /// A stable checkpoint was written to the durable store (and the WAL
    /// compacted below it); `slot` is the checkpointed sequence number.
    CheckpointPersisted,
    /// A recovering replica received the committed suffix it missed and
    /// resumed normal processing. `detail` is the number of WAL records
    /// replayed at restart.
    RecoveryCompleted,
}

impl EventKind {
    /// Every kind, in declaration order.
    pub const ALL: [EventKind; 22] = [
        EventKind::ClientSubmit,
        EventKind::ClientDone,
        EventKind::RequestAdmitted,
        EventKind::BatchCut,
        EventKind::ProposeSent,
        EventKind::QuorumReached,
        EventKind::Committed,
        EventKind::Executed,
        EventKind::Replied,
        EventKind::ViewChangeStart,
        EventKind::ViewChangeInstall,
        EventKind::ModeSwitchStart,
        EventKind::ModeSwitchDone,
        EventKind::LeaseGrant,
        EventKind::LeaseExpiry,
        EventKind::ReadRefused,
        EventKind::SuspicionFired,
        EventKind::SigVerifyFail,
        EventKind::VoteMismatch,
        EventKind::RecoveryStarted,
        EventKind::CheckpointPersisted,
        EventKind::RecoveryCompleted,
    ];

    /// Stable snake_case name used by the JSONL export.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ClientSubmit => "client_submit",
            EventKind::ClientDone => "client_done",
            EventKind::RequestAdmitted => "request_admitted",
            EventKind::BatchCut => "batch_cut",
            EventKind::ProposeSent => "propose_sent",
            EventKind::QuorumReached => "quorum_reached",
            EventKind::Committed => "committed",
            EventKind::Executed => "executed",
            EventKind::Replied => "replied",
            EventKind::ViewChangeStart => "view_change_start",
            EventKind::ViewChangeInstall => "view_change_install",
            EventKind::ModeSwitchStart => "mode_switch_start",
            EventKind::ModeSwitchDone => "mode_switch_done",
            EventKind::LeaseGrant => "lease_grant",
            EventKind::LeaseExpiry => "lease_expiry",
            EventKind::ReadRefused => "read_refused",
            EventKind::SuspicionFired => "suspicion_fired",
            EventKind::SigVerifyFail => "sig_verify_fail",
            EventKind::VoteMismatch => "vote_mismatch",
            EventKind::RecoveryStarted => "recovery_started",
            EventKind::CheckpointPersisted => "checkpoint_persisted",
            EventKind::RecoveryCompleted => "recovery_completed",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded protocol step: fixed-size, `Copy`, and cheap enough to stamp
/// on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Per-recorder sequence number, assigned at record time; together with
    /// the node it makes intra-node order unambiguous even under timestamp
    /// ties.
    pub seq: u64,
    /// Monotonic timestamp. Virtual time on the simulator; wall-clock nanos
    /// since the shared run origin on the socket runtime, so events
    /// from different nodes are directly comparable.
    pub at: Instant,
    /// The emitting node.
    pub node: NodeId,
    /// The emitter's view at record time.
    pub view: View,
    /// The emitter's mode at record time (clients report their configured
    /// mode).
    pub mode: Mode,
    /// The slot the event concerns, when it concerns one.
    pub slot: Option<SeqNum>,
    /// The request the event concerns, when it concerns one.
    pub request: Option<RequestId>,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload; see [`EventKind`].
    pub detail: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
