//! Client-facing messages: `REQUEST` / `REPLY` for the ordered path and
//! `READ-REQUEST` / `READ-REPLY` for the read-only fast path.

use crate::size::{
    canonical_bytes_into, SignedPayload, WireSize, HEADER_LEN, INT_LEN, SIGNATURE_LEN,
};
use seemore_crypto::{Digest, Signature, Signer};
use seemore_types::{ClientId, Mode, ReplicaId, RequestId, SeqNum, Timestamp, View};

/// `⟨REQUEST, op, ts_ς, ς⟩_σς` — a state-machine operation requested by a
/// client (Section 5.1).
///
/// The operation payload is opaque to the protocol: the replicated
/// application layer (the `seemore-app` crate) encodes and decodes it. The
/// client timestamp totally orders the requests of one client and provides
/// exactly-once semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRequest {
    /// The issuing client.
    pub client: ClientId,
    /// Client-local, monotonically increasing timestamp.
    pub timestamp: Timestamp,
    /// Opaque, application-defined operation bytes.
    pub operation: Vec<u8>,
    /// The client's signature over `(client, timestamp, operation)`.
    pub signature: Signature,
}

impl ClientRequest {
    /// Builds and signs a request.
    pub fn new(
        client: ClientId,
        timestamp: Timestamp,
        operation: Vec<u8>,
        signer: &Signer,
    ) -> Self {
        let mut request = ClientRequest {
            client,
            timestamp,
            operation,
            signature: Signature::INVALID,
        };
        request.signature = signer.sign(&request.signing_bytes());
        request
    }

    /// The request's identity `(client, timestamp)`.
    pub fn id(&self) -> RequestId {
        RequestId::new(self.client, self.timestamp)
    }

    /// The digest `D(µ)` embedded in agreement messages.
    pub fn digest(&self) -> Digest {
        Digest::of_fields(&[
            b"client-request",
            &self.client.0.to_le_bytes(),
            &self.timestamp.0.to_le_bytes(),
            &self.operation,
        ])
    }
}

impl SignedPayload for ClientRequest {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "request",
            &[
                &self.client.0.to_le_bytes(),
                &self.timestamp.0.to_le_bytes(),
                &self.operation,
            ],
        )
    }
}

impl WireSize for ClientRequest {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + self.operation.len() + SIGNATURE_LEN
    }
}

/// `⟨REPLY, π, v, ts_ς, u⟩_σr` — the result of executing a request, sent by
/// a replica back to the issuing client.
///
/// The mode index `π` and view number let the client track the current
/// primary across mode and view changes (Section 5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReply {
    /// Mode the replying replica is operating in.
    pub mode: Mode,
    /// View the request was executed in.
    pub view: View,
    /// Identity of the request this reply answers.
    pub request: RequestId,
    /// The replica that executed the request and produced this reply.
    pub replica: ReplicaId,
    /// Opaque, application-defined result bytes.
    pub result: Vec<u8>,
    /// The replica's signature.
    pub signature: Signature,
}

impl ClientReply {
    /// Builds and signs a reply.
    pub fn new(
        mode: Mode,
        view: View,
        request: RequestId,
        replica: ReplicaId,
        result: Vec<u8>,
        signer: &Signer,
    ) -> Self {
        let mut reply = ClientReply {
            mode,
            view,
            request,
            replica,
            result,
            signature: Signature::INVALID,
        };
        reply.signature = signer.sign(&reply.signing_bytes());
        reply
    }

    /// The key used to match replies from different replicas: two replies
    /// "match" when they answer the same request with the same result.
    pub fn matching_key(&self) -> (RequestId, Digest) {
        (
            self.request,
            Digest::of_fields(&[b"reply-result", &self.result]),
        )
    }
}

impl SignedPayload for ClientReply {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "reply",
            &[
                &[self.mode.index()],
                &self.view.0.to_le_bytes(),
                &self.request.client.0.to_le_bytes(),
                &self.request.timestamp.0.to_le_bytes(),
                &self.replica.0.to_le_bytes(),
                &self.result,
            ],
        )
    }
}

impl WireSize for ClientReply {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 4 * INT_LEN + 1 + self.result.len() + SIGNATURE_LEN
    }
}

/// `⟨READ-REQUEST, op, n_ς, ς⟩_σς` — a read-only operation a client asks to
/// have served from a replica's executed state instead of through the
/// three-phase ordered path (the PBFT read-only optimization, applied
/// per-mode: a single lease-holding trusted primary answers in Lion/Dog,
/// a `2m + 1` matching proxy quorum answers in Peacock).
///
/// The nonce draws from the same per-client counter as the ordered path's
/// timestamps, so a read that falls back to the ordered path re-submits the
/// identical operation under the identical `(client, nonce)` identity and
/// inherits the ordered path's exactly-once handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequest {
    /// The issuing client.
    pub client: ClientId,
    /// Client-local nonce identifying this read (shared counter with the
    /// ordered path's timestamps).
    pub nonce: Timestamp,
    /// Opaque, application-defined read-only operation bytes.
    pub operation: Vec<u8>,
    /// The client's signature over `(client, nonce, operation)`.
    pub signature: Signature,
}

impl ReadRequest {
    /// Builds and signs a read request.
    pub fn new(client: ClientId, nonce: Timestamp, operation: Vec<u8>, signer: &Signer) -> Self {
        let mut request = ReadRequest {
            client,
            nonce,
            operation,
            signature: Signature::INVALID,
        };
        request.signature = signer.sign(&request.signing_bytes());
        request
    }

    /// The read's identity `(client, nonce)`.
    pub fn id(&self) -> RequestId {
        RequestId::new(self.client, self.nonce)
    }
}

impl SignedPayload for ReadRequest {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "read-request",
            &[
                &self.client.0.to_le_bytes(),
                &self.nonce.0.to_le_bytes(),
                &self.operation,
            ],
        )
    }
}

impl WireSize for ReadRequest {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + self.operation.len() + SIGNATURE_LEN
    }
}

/// `⟨READ-REPLY, π, v, n_ς, e, u⟩_σr` — a replica's answer to a
/// [`ReadRequest`], carrying the result evaluated against its executed state
/// at commit index `e`, or a refusal redirecting the client to the ordered
/// path.
///
/// A replica refuses (sets [`refused`](Self::refused), empty result) when it
/// is not allowed to serve the fast path: it is not the lease-holding
/// trusted primary (Lion/Dog), its lease expired, a view change or mode
/// switch is in progress, or the application cannot prove the operation
/// read-only. Refusals are first-class signed replies so the client falls
/// back immediately instead of waiting out a timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadReply {
    /// Mode the replying replica is operating in.
    pub mode: Mode,
    /// View the read was served in.
    pub view: View,
    /// Identity `(client, nonce)` of the read this reply answers.
    pub request: RequestId,
    /// The replica that served (or refused) the read.
    pub replica: ReplicaId,
    /// The replica's last executed sequence number when it served the read
    /// (diagnostic freshness marker).
    pub last_executed: SeqNum,
    /// Whether the replica refused to serve the fast path; the client must
    /// fall back to the ordered path.
    pub refused: bool,
    /// Opaque, application-defined result bytes (empty on refusal).
    pub result: Vec<u8>,
    /// The replica's signature.
    pub signature: Signature,
}

impl ReadReply {
    /// Builds and signs a served read reply.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mode: Mode,
        view: View,
        request: RequestId,
        replica: ReplicaId,
        last_executed: SeqNum,
        result: Vec<u8>,
        signer: &Signer,
    ) -> Self {
        let mut reply = ReadReply {
            mode,
            view,
            request,
            replica,
            last_executed,
            refused: false,
            result,
            signature: Signature::INVALID,
        };
        reply.signature = signer.sign(&reply.signing_bytes());
        reply
    }

    /// Builds and signs a refusal.
    pub fn refusal(
        mode: Mode,
        view: View,
        request: RequestId,
        replica: ReplicaId,
        last_executed: SeqNum,
        signer: &Signer,
    ) -> Self {
        let mut reply = ReadReply {
            mode,
            view,
            request,
            replica,
            last_executed,
            refused: true,
            result: Vec::new(),
            signature: Signature::INVALID,
        };
        reply.signature = signer.sign(&reply.signing_bytes());
        reply
    }

    /// The key used to match read replies from different replicas: two
    /// replies "match" when they answer the same read with the same result
    /// (refusals never match served replies).
    pub fn matching_key(&self) -> (RequestId, Digest) {
        (
            self.request,
            Digest::of_fields(&[
                b"read-reply-result",
                &[u8::from(self.refused)],
                &self.result,
            ]),
        )
    }
}

impl SignedPayload for ReadReply {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "read-reply",
            &[
                &[self.mode.index()],
                &self.view.0.to_le_bytes(),
                &self.request.client.0.to_le_bytes(),
                &self.request.timestamp.0.to_le_bytes(),
                &self.replica.0.to_le_bytes(),
                &self.last_executed.0.to_le_bytes(),
                &[u8::from(self.refused)],
                &self.result,
            ],
        )
    }
}

impl WireSize for ReadReply {
    fn wire_size(&self) -> usize {
        // The refusal bit travels in the block-header flags, so it costs no
        // body bytes (mirroring the ACCEPT signature-presence flag).
        HEADER_LEN + 5 * INT_LEN + 1 + self.result.len() + SIGNATURE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::KeyStore;
    use seemore_types::NodeId;

    fn keystore() -> KeyStore {
        KeyStore::generate(1, 4, 2)
    }

    #[test]
    fn request_signature_covers_all_fields() {
        let ks = keystore();
        let client = ClientId(0);
        let signer = ks.signer_for(NodeId::Client(client)).unwrap();
        let req = ClientRequest::new(client, Timestamp(1), b"put k v".to_vec(), &signer);
        assert!(ks.verify(NodeId::Client(client), &req.signing_bytes(), &req.signature));

        // Any mutation invalidates the signature.
        let mut tampered = req.clone();
        tampered.operation = b"put k evil".to_vec();
        assert!(!ks.verify(
            NodeId::Client(client),
            &tampered.signing_bytes(),
            &tampered.signature
        ));
        let mut tampered = req.clone();
        tampered.timestamp = Timestamp(2);
        assert!(!ks.verify(
            NodeId::Client(client),
            &tampered.signing_bytes(),
            &tampered.signature
        ));
    }

    #[test]
    fn request_digest_is_stable_and_content_sensitive() {
        let ks = keystore();
        let signer = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let a = ClientRequest::new(ClientId(0), Timestamp(1), b"op".to_vec(), &signer);
        let b = ClientRequest::new(ClientId(0), Timestamp(1), b"op".to_vec(), &signer);
        let c = ClientRequest::new(ClientId(0), Timestamp(2), b"op".to_vec(), &signer);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.id(), RequestId::new(ClientId(0), Timestamp(1)));
    }

    #[test]
    fn reply_matching_key_ignores_replica_identity() {
        let ks = keystore();
        let s0 = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        let s1 = ks.signer_for(NodeId::Replica(ReplicaId(1))).unwrap();
        let id = RequestId::new(ClientId(0), Timestamp(3));
        let a = ClientReply::new(Mode::Lion, View(0), id, ReplicaId(0), b"ok".to_vec(), &s0);
        let b = ClientReply::new(Mode::Lion, View(0), id, ReplicaId(1), b"ok".to_vec(), &s1);
        let c = ClientReply::new(Mode::Lion, View(0), id, ReplicaId(1), b"no".to_vec(), &s1);
        assert_eq!(a.matching_key(), b.matching_key());
        assert_ne!(a.matching_key(), c.matching_key());
    }

    #[test]
    fn reply_signature_verifies() {
        let ks = keystore();
        let replica = ReplicaId(2);
        let signer = ks.signer_for(NodeId::Replica(replica)).unwrap();
        let id = RequestId::new(ClientId(1), Timestamp(9));
        let reply = ClientReply::new(
            Mode::Peacock,
            View(4),
            id,
            replica,
            b"value".to_vec(),
            &signer,
        );
        assert!(ks.verify(
            NodeId::Replica(replica),
            &reply.signing_bytes(),
            &reply.signature
        ));
    }

    #[test]
    fn read_request_signature_covers_all_fields() {
        let ks = keystore();
        let client = ClientId(0);
        let signer = ks.signer_for(NodeId::Client(client)).unwrap();
        let read = ReadRequest::new(client, Timestamp(7), b"get k".to_vec(), &signer);
        assert!(ks.verify(
            NodeId::Client(client),
            &read.signing_bytes(),
            &read.signature
        ));
        assert_eq!(read.id(), RequestId::new(client, Timestamp(7)));

        let mut tampered = read.clone();
        tampered.operation = b"get evil".to_vec();
        assert!(!ks.verify(
            NodeId::Client(client),
            &tampered.signing_bytes(),
            &tampered.signature
        ));
        let mut tampered = read;
        tampered.nonce = Timestamp(8);
        assert!(!ks.verify(
            NodeId::Client(client),
            &tampered.signing_bytes(),
            &tampered.signature
        ));
    }

    #[test]
    fn read_reply_matching_distinguishes_refusals_and_results() {
        let ks = keystore();
        let s0 = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        let s1 = ks.signer_for(NodeId::Replica(ReplicaId(1))).unwrap();
        let id = RequestId::new(ClientId(0), Timestamp(3));
        let a = ReadReply::new(
            Mode::Peacock,
            View(0),
            id,
            ReplicaId(0),
            SeqNum(5),
            b"v".to_vec(),
            &s0,
        );
        let b = ReadReply::new(
            Mode::Peacock,
            View(0),
            id,
            ReplicaId(1),
            SeqNum(9),
            b"v".to_vec(),
            &s1,
        );
        // Matching ignores the replica identity and the commit index.
        assert_eq!(a.matching_key(), b.matching_key());
        let refusal = ReadReply::refusal(Mode::Peacock, View(0), id, ReplicaId(1), SeqNum(9), &s1);
        assert!(refusal.refused);
        assert_ne!(a.matching_key(), refusal.matching_key());
        // An empty served result does not match a refusal either.
        let empty = ReadReply::new(
            Mode::Peacock,
            View(0),
            id,
            ReplicaId(0),
            SeqNum(5),
            Vec::new(),
            &s0,
        );
        assert_ne!(empty.matching_key(), refusal.matching_key());
        // Signatures cover the refusal bit: flipping it invalidates.
        let mut flipped = refusal.clone();
        flipped.refused = false;
        assert!(!ks.verify(
            NodeId::Replica(ReplicaId(1)),
            &flipped.signing_bytes(),
            &flipped.signature
        ));
        assert!(ks.verify(
            NodeId::Replica(ReplicaId(1)),
            &refusal.signing_bytes(),
            &refusal.signature
        ));
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let ks = keystore();
        let signer = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let small = ClientRequest::new(ClientId(0), Timestamp(1), vec![], &signer);
        let large = ClientRequest::new(ClientId(0), Timestamp(1), vec![0u8; 4096], &signer);
        assert_eq!(large.wire_size() - small.wire_size(), 4096);

        let rs = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        let id = RequestId::new(ClientId(0), Timestamp(1));
        let small_reply = ClientReply::new(Mode::Lion, View(0), id, ReplicaId(0), vec![], &rs);
        let large_reply =
            ClientReply::new(Mode::Lion, View(0), id, ReplicaId(0), vec![0u8; 4096], &rs);
        assert_eq!(large_reply.wire_size() - small_reply.wire_size(), 4096);
    }
}
