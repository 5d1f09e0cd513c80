//! Strongly-typed identifiers used throughout the workspace.
//!
//! The paper identifies each replica with an integer in `[0, N-1]` where the
//! trusted replicas of the private cloud occupy `[0, S-1]` and the untrusted
//! replicas of the public cloud occupy `[S, N-1]` (Section 5). We keep that
//! convention but wrap the raw integers in newtypes so that a view number can
//! never be confused with a sequence number or a replica index.

use std::fmt;

/// Index of a replica inside the cluster, in `[0, N-1]`.
///
/// Replicas `< S` live in the trusted private cloud; replicas `>= S` live in
/// the untrusted public cloud (see
/// [`ClusterConfig::trust_of`](crate::ClusterConfig::trust_of)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

impl ReplicaId {
    /// Returns the raw index as a `usize`, convenient for vector indexing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(value: u32) -> Self {
        ReplicaId(value)
    }
}

/// Identifier of a client of the replicated service.
///
/// The paper places no restriction on clients other than that their number is
/// finite; clients sign their requests and tag them with a monotonically
/// increasing [`Timestamp`] to obtain exactly-once semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u64> for ClientId {
    fn from(value: u64) -> Self {
        ClientId(value)
    }
}

/// Any addressable endpoint on the network: a replica or a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A replica participating in state machine replication.
    Replica(ReplicaId),
    /// A client issuing requests against the replicated service.
    Client(ClientId),
}

impl NodeId {
    /// Returns the replica id if this endpoint is a replica.
    pub fn as_replica(self) -> Option<ReplicaId> {
        match self {
            NodeId::Replica(r) => Some(r),
            NodeId::Client(_) => None,
        }
    }

    /// Returns the client id if this endpoint is a client.
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            NodeId::Client(c) => Some(c),
            NodeId::Replica(_) => None,
        }
    }

    /// True if this endpoint is a replica.
    pub fn is_replica(self) -> bool {
        matches!(self, NodeId::Replica(_))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Replica(r) => write!(f, "{r}"),
            NodeId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl From<ReplicaId> for NodeId {
    fn from(value: ReplicaId) -> Self {
        NodeId::Replica(value)
    }
}

impl From<ClientId> for NodeId {
    fn from(value: ClientId) -> Self {
        NodeId::Client(value)
    }
}

/// A view number.
///
/// Replicas move through a succession of configurations called views; within
/// a view one replica is the primary and the others are backups (Section 5).
/// Views are numbered consecutively starting from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

impl View {
    /// The initial view every replica starts in.
    pub const ZERO: View = View(0);

    /// The view that follows this one.
    #[inline]
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// Returns `true` if `other` is strictly newer than this view.
    #[inline]
    pub fn is_older_than(self, other: View) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Sequence number assigned by the primary to totally order requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The sequence number that follows this one.
    #[inline]
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }

    /// The sequence number that precedes this one, saturating at zero.
    #[inline]
    pub fn prev(self) -> SeqNum {
        SeqNum(self.0.saturating_sub(1))
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Client-assigned, monotonically increasing request timestamp.
///
/// Used both to totally order the requests of a single client and to provide
/// exactly-once execution semantics: a replica never re-executes a request
/// whose timestamp is not newer than the last executed timestamp it has
/// recorded for that client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The timestamp that follows this one.
    #[inline]
    pub fn next(self) -> Timestamp {
        Timestamp(self.0 + 1)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts{}", self.0)
    }
}

/// Globally unique identity of a client request: the issuing client plus the
/// client-assigned timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The client that issued the request.
    pub client: ClientId,
    /// The client-local timestamp of the request.
    pub timestamp: Timestamp,
}

impl RequestId {
    /// Builds a request id from its parts.
    pub fn new(client: ClientId, timestamp: Timestamp) -> Self {
        RequestId { client, timestamp }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.client, self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_display_and_conversion() {
        let r = ReplicaId::from(7u32);
        assert_eq!(r.as_usize(), 7);
        assert_eq!(r.to_string(), "r7");
    }

    #[test]
    fn node_id_projections() {
        let r: NodeId = ReplicaId(3).into();
        let c: NodeId = ClientId(9).into();
        assert_eq!(r.as_replica(), Some(ReplicaId(3)));
        assert_eq!(r.as_client(), None);
        assert_eq!(c.as_client(), Some(ClientId(9)));
        assert_eq!(c.as_replica(), None);
        assert!(r.is_replica());
        assert!(!c.is_replica());
    }

    #[test]
    fn view_ordering_and_succession() {
        let v = View::ZERO;
        assert_eq!(v.next(), View(1));
        assert!(v.is_older_than(View(1)));
        assert!(!View(2).is_older_than(View(2)));
    }

    #[test]
    fn seqnum_next_prev() {
        assert_eq!(SeqNum(0).prev(), SeqNum(0));
        assert_eq!(SeqNum(5).next(), SeqNum(6));
        assert_eq!(SeqNum(5).next().prev(), SeqNum(5));
    }

    #[test]
    fn request_id_identity() {
        let a = RequestId::new(ClientId(1), Timestamp(10));
        let b = RequestId::new(ClientId(1), Timestamp(10));
        let c = RequestId::new(ClientId(1), Timestamp(11));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "c1@ts10");
    }

    #[test]
    fn timestamp_monotone() {
        let t = Timestamp::default();
        assert!(t < t.next());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::Replica(ReplicaId(2)).to_string(), "r2");
        assert_eq!(NodeId::Client(ClientId(4)).to_string(), "c4");
    }
}
