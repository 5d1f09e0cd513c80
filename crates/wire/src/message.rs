//! The top-level [`Message`] enum moved between nodes by the network
//! substrate, plus [`MessageKind`] used for per-kind metrics.

use crate::agreement::{Accept, Commit, Inform, PbftPrepare, PrePrepare, Prepare};
use crate::client::{ClientReply, ClientRequest, ReadReply, ReadRequest};
use crate::control::{
    Checkpoint, ModeChange, NewView, Recovery, StateRequest, StateResponse, ViewChange,
};
use crate::size::WireSize;
use std::fmt;

/// Every message any protocol in this workspace can put on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
pub enum Message {
    /// A client's request for a state-machine operation.
    Request(ClientRequest),
    /// A replica's reply to a client.
    Reply(ClientReply),
    /// A client's read-only request for the mode-aware fast path.
    ReadRequest(ReadRequest),
    /// A replica's (served or refused) answer to a read-only request.
    ReadReply(ReadReply),
    /// Trusted-primary proposal (Lion / Dog).
    Prepare(Prepare),
    /// Untrusted-primary proposal (Peacock / PBFT / S-UpRight).
    PrePrepare(PrePrepare),
    /// Backup / proxy accept vote (Lion / Dog).
    Accept(Accept),
    /// PBFT-style prepare vote (Peacock / PBFT / S-UpRight).
    PbftPrepare(PbftPrepare),
    /// Commit announcement or commit vote.
    Commit(Commit),
    /// Commit notification for passive replicas (Dog / Peacock).
    Inform(Inform),
    /// Periodic checkpoint announcement.
    Checkpoint(Checkpoint),
    /// Vote to replace the current primary.
    ViewChange(ViewChange),
    /// Installation of a new view.
    NewView(NewView),
    /// Announcement of a dynamic mode switch.
    ModeChange(ModeChange),
    /// Request for missing state (state transfer).
    StateRequest(StateRequest),
    /// Response carrying missing state (state transfer).
    StateResponse(StateResponse),
    /// Announcement by a replica restarting from durable state.
    Recovery(Recovery),
}

/// Discriminant-only view of [`Message`], used as a metrics key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageKind {
    /// See [`Message::Request`].
    Request,
    /// See [`Message::Reply`].
    Reply,
    /// See [`Message::ReadRequest`].
    ReadRequest,
    /// See [`Message::ReadReply`].
    ReadReply,
    /// See [`Message::Prepare`].
    Prepare,
    /// See [`Message::PrePrepare`].
    PrePrepare,
    /// See [`Message::Accept`].
    Accept,
    /// See [`Message::PbftPrepare`].
    PbftPrepare,
    /// See [`Message::Commit`].
    Commit,
    /// See [`Message::Inform`].
    Inform,
    /// See [`Message::Checkpoint`].
    Checkpoint,
    /// See [`Message::ViewChange`].
    ViewChange,
    /// See [`Message::NewView`].
    NewView,
    /// See [`Message::ModeChange`].
    ModeChange,
    /// See [`Message::StateRequest`].
    StateRequest,
    /// See [`Message::StateResponse`].
    StateResponse,
    /// See [`Message::Recovery`].
    Recovery,
}

impl MessageKind {
    /// All message kinds, in declaration order.
    pub const ALL: [MessageKind; 17] = [
        MessageKind::Request,
        MessageKind::Reply,
        MessageKind::ReadRequest,
        MessageKind::ReadReply,
        MessageKind::Prepare,
        MessageKind::PrePrepare,
        MessageKind::Accept,
        MessageKind::PbftPrepare,
        MessageKind::Commit,
        MessageKind::Inform,
        MessageKind::Checkpoint,
        MessageKind::ViewChange,
        MessageKind::NewView,
        MessageKind::ModeChange,
        MessageKind::StateRequest,
        MessageKind::StateResponse,
        MessageKind::Recovery,
    ];

    /// Whether messages of this kind belong to the agreement data path
    /// (as opposed to control-plane traffic such as view changes).
    pub fn is_agreement(self) -> bool {
        matches!(
            self,
            MessageKind::Prepare
                | MessageKind::PrePrepare
                | MessageKind::Accept
                | MessageKind::PbftPrepare
                | MessageKind::Commit
                | MessageKind::Inform
        )
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MessageKind::Request => "REQUEST",
            MessageKind::Reply => "REPLY",
            MessageKind::ReadRequest => "READ-REQUEST",
            MessageKind::ReadReply => "READ-REPLY",
            MessageKind::Prepare => "PREPARE",
            MessageKind::PrePrepare => "PRE-PREPARE",
            MessageKind::Accept => "ACCEPT",
            MessageKind::PbftPrepare => "PBFT-PREPARE",
            MessageKind::Commit => "COMMIT",
            MessageKind::Inform => "INFORM",
            MessageKind::Checkpoint => "CHECKPOINT",
            MessageKind::ViewChange => "VIEW-CHANGE",
            MessageKind::NewView => "NEW-VIEW",
            MessageKind::ModeChange => "MODE-CHANGE",
            MessageKind::StateRequest => "STATE-REQUEST",
            MessageKind::StateResponse => "STATE-RESPONSE",
            MessageKind::Recovery => "RECOVERY",
        };
        f.write_str(name)
    }
}

impl Message {
    /// The kind discriminant of this message.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Request(_) => MessageKind::Request,
            Message::Reply(_) => MessageKind::Reply,
            Message::ReadRequest(_) => MessageKind::ReadRequest,
            Message::ReadReply(_) => MessageKind::ReadReply,
            Message::Prepare(_) => MessageKind::Prepare,
            Message::PrePrepare(_) => MessageKind::PrePrepare,
            Message::Accept(_) => MessageKind::Accept,
            Message::PbftPrepare(_) => MessageKind::PbftPrepare,
            Message::Commit(_) => MessageKind::Commit,
            Message::Inform(_) => MessageKind::Inform,
            Message::Checkpoint(_) => MessageKind::Checkpoint,
            Message::ViewChange(_) => MessageKind::ViewChange,
            Message::NewView(_) => MessageKind::NewView,
            Message::ModeChange(_) => MessageKind::ModeChange,
            Message::StateRequest(_) => MessageKind::StateRequest,
            Message::StateResponse(_) => MessageKind::StateResponse,
            Message::Recovery(_) => MessageKind::Recovery,
        }
    }
}

impl WireSize for Message {
    fn wire_size(&self) -> usize {
        match self {
            Message::Request(m) => m.wire_size(),
            Message::Reply(m) => m.wire_size(),
            Message::ReadRequest(m) => m.wire_size(),
            Message::ReadReply(m) => m.wire_size(),
            Message::Prepare(m) => m.wire_size(),
            Message::PrePrepare(m) => m.wire_size(),
            Message::Accept(m) => m.wire_size(),
            Message::PbftPrepare(m) => m.wire_size(),
            Message::Commit(m) => m.wire_size(),
            Message::Inform(m) => m.wire_size(),
            Message::Checkpoint(m) => m.wire_size(),
            Message::ViewChange(m) => m.wire_size(),
            Message::NewView(m) => m.wire_size(),
            Message::ModeChange(m) => m.wire_size(),
            Message::StateRequest(m) => m.wire_size(),
            Message::StateResponse(m) => m.wire_size(),
            Message::Recovery(m) => m.wire_size(),
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for Message {
            fn from(value: $ty) -> Self {
                Message::$variant(value)
            }
        }
    };
}

impl_from!(Request, ClientRequest);
impl_from!(Reply, ClientReply);
impl_from!(ReadRequest, ReadRequest);
impl_from!(ReadReply, ReadReply);
impl_from!(Prepare, Prepare);
impl_from!(PrePrepare, PrePrepare);
impl_from!(Accept, Accept);
impl_from!(PbftPrepare, PbftPrepare);
impl_from!(Commit, Commit);
impl_from!(Inform, Inform);
impl_from!(Checkpoint, Checkpoint);
impl_from!(ViewChange, ViewChange);
impl_from!(NewView, NewView);
impl_from!(ModeChange, ModeChange);
impl_from!(StateRequest, StateRequest);
impl_from!(StateResponse, StateResponse);
impl_from!(Recovery, Recovery);

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::{Digest, KeyStore, Signature};
    use seemore_types::{ClientId, NodeId, ReplicaId, SeqNum, Timestamp, View};

    fn sample_request() -> ClientRequest {
        let ks = KeyStore::generate(4, 1, 1);
        let signer = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        ClientRequest::new(ClientId(0), Timestamp(1), b"noop".to_vec(), &signer)
    }

    #[test]
    fn kind_matches_variant() {
        let req = sample_request();
        let messages: Vec<Message> = vec![
            req.clone().into(),
            Message::Accept(Accept {
                view: View(0),
                seq: SeqNum(1),
                digest: req.digest(),
                replica: ReplicaId(1),
                signature: None,
            }),
            Message::Checkpoint(Checkpoint {
                seq: SeqNum(10),
                state_digest: Digest::ZERO,
                replica: ReplicaId(0),
                signature: Signature::INVALID,
            }),
            Message::StateRequest(StateRequest {
                from_seq: SeqNum(5),
                replica: ReplicaId(2),
            }),
        ];
        let kinds: Vec<MessageKind> = messages.iter().map(Message::kind).collect();
        assert_eq!(
            kinds,
            vec![
                MessageKind::Request,
                MessageKind::Accept,
                MessageKind::Checkpoint,
                MessageKind::StateRequest
            ]
        );
    }

    #[test]
    fn agreement_classification() {
        assert!(MessageKind::Prepare.is_agreement());
        assert!(MessageKind::Inform.is_agreement());
        assert!(!MessageKind::Request.is_agreement());
        assert!(!MessageKind::ReadRequest.is_agreement());
        assert!(!MessageKind::ReadReply.is_agreement());
        assert!(!MessageKind::ViewChange.is_agreement());
        assert!(!MessageKind::Checkpoint.is_agreement());
        assert_eq!(MessageKind::ALL.len(), 17);
    }

    #[test]
    fn display_names_are_paper_style() {
        assert_eq!(MessageKind::PrePrepare.to_string(), "PRE-PREPARE");
        assert_eq!(MessageKind::ReadRequest.to_string(), "READ-REQUEST");
        assert_eq!(MessageKind::ReadReply.to_string(), "READ-REPLY");
        assert_eq!(MessageKind::ViewChange.to_string(), "VIEW-CHANGE");
        assert_eq!(MessageKind::ModeChange.to_string(), "MODE-CHANGE");
    }

    #[test]
    fn wire_size_dispatches_to_variant() {
        let req = sample_request();
        let as_message: Message = req.clone().into();
        assert_eq!(as_message.wire_size(), req.wire_size());
    }
}
