//! The [`Batch`]: the unit of ordering.
//!
//! Agreement does not order individual client requests; it orders *batches*
//! — ordered, non-empty sequences of requests that share one sequence number
//! and one combined digest. A primary accumulates pending requests under its
//! batching policy and proposes the whole batch in a single
//! `PREPARE` / `PRE-PREPARE`, so the per-slot quorum cost (one proposal
//! broadcast, one round of votes, one commit) is amortized over every
//! request in the batch. With a batch size of one the protocol degenerates
//! to classic one-request-per-slot agreement.
//!
//! Replicas commit and execute a batch atomically: either every request in
//! the batch is executed, in batch order, at the batch's sequence number, or
//! none is. The combined [`digest`](Batch::digest) binds the identity,
//! content *and order* of the member requests, so a Byzantine primary cannot
//! present different request orders to different replicas without producing
//! different digests.

use crate::client::ClientRequest;
use crate::size::WireSize;
use seemore_crypto::{Digest, FieldHasher};
use seemore_types::RequestId;

/// An ordered, non-empty sequence of client requests agreed on as one unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    requests: Vec<ClientRequest>,
}

impl Batch {
    /// Builds a batch from an ordered request list.
    ///
    /// # Panics
    ///
    /// Panics if `requests` is empty: an empty batch has no digest identity
    /// and no sequence number to occupy. Gap-filling uses a singleton no-op
    /// batch instead.
    pub fn new(requests: Vec<ClientRequest>) -> Self {
        assert!(
            !requests.is_empty(),
            "a batch must contain at least one request"
        );
        Batch { requests }
    }

    /// A batch holding exactly one request.
    pub fn single(request: ClientRequest) -> Self {
        Batch {
            requests: vec![request],
        }
    }

    /// The combined digest `D(µ₁ ‖ … ‖ µ_k)` embedded in agreement messages.
    ///
    /// Built over the per-request digests in batch order, so it is sensitive
    /// to membership, content and order.
    pub fn digest(&self) -> Digest {
        let mut hasher = FieldHasher::new();
        hasher.field(b"batch");
        for request in &self.requests {
            hasher.field(request.digest().as_bytes());
        }
        hasher.finish()
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Always `false`: batches are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The member requests, in batch order.
    pub fn requests(&self) -> &[ClientRequest] {
        &self.requests
    }

    /// Iterates over the member requests in batch order.
    pub fn iter(&self) -> std::slice::Iter<'_, ClientRequest> {
        self.requests.iter()
    }

    /// Consumes the batch, yielding its requests in batch order.
    pub fn into_requests(self) -> Vec<ClientRequest> {
        self.requests
    }

    /// Identities of the member requests, in batch order.
    pub fn request_ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.requests.iter().map(ClientRequest::id)
    }

    /// Whether the batch contains a request with `id`.
    pub fn contains(&self, id: RequestId) -> bool {
        self.requests.iter().any(|request| request.id() == id)
    }
}

impl From<ClientRequest> for Batch {
    fn from(request: ClientRequest) -> Self {
        Batch::single(request)
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a ClientRequest;
    type IntoIter = std::slice::Iter<'a, ClientRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

impl WireSize for Batch {
    fn wire_size(&self) -> usize {
        // A length prefix plus the encoded member requests, matching the
        // generic length-prefixed-sequence model used for `Vec<T>`.
        self.requests.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size::INT_LEN;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClientId, NodeId, Timestamp};

    fn request(ks: &KeyStore, client: u64, ts: u64, op: &[u8]) -> ClientRequest {
        let signer = ks.signer_for(NodeId::Client(ClientId(client))).unwrap();
        ClientRequest::new(ClientId(client), Timestamp(ts), op.to_vec(), &signer)
    }

    fn keystore() -> KeyStore {
        KeyStore::generate(1, 4, 4)
    }

    #[test]
    fn digest_is_order_sensitive() {
        let ks = keystore();
        let a = request(&ks, 0, 1, b"a");
        let b = request(&ks, 1, 1, b"b");
        let ab = Batch::new(vec![a.clone(), b.clone()]);
        let ba = Batch::new(vec![b, a]);
        assert_ne!(ab.digest(), ba.digest());
    }

    #[test]
    fn digest_is_the_field_digest_of_label_and_request_digests() {
        // The value every build since the wire codec has agreed on.
        let ks = keystore();
        let a = request(&ks, 0, 1, b"a");
        let b = request(&ks, 1, 1, b"b");
        let expected = Digest::of_fields(&[b"batch", a.digest().as_bytes(), b.digest().as_bytes()]);
        assert_eq!(Batch::new(vec![a, b]).digest(), expected);
    }

    #[test]
    fn digest_is_content_and_membership_sensitive() {
        let ks = keystore();
        let a = request(&ks, 0, 1, b"a");
        let b = request(&ks, 1, 1, b"b");
        let one = Batch::single(a.clone());
        let two = Batch::new(vec![a.clone(), b]);
        assert_ne!(one.digest(), two.digest());

        let a_again = Batch::single(a.clone());
        assert_eq!(one.digest(), a_again.digest());

        let different_content = Batch::single(request(&ks, 0, 1, b"x"));
        assert_ne!(one.digest(), different_content.digest());
    }

    #[test]
    fn singleton_batch_digest_differs_from_raw_request_digest() {
        // Domain separation: a batch digest can never be confused with a bare
        // request digest, so pre-batching and post-batching messages cannot
        // be cross-played.
        let ks = keystore();
        let request = request(&ks, 0, 1, b"op");
        assert_ne!(Batch::single(request.clone()).digest(), request.digest());
    }

    #[test]
    fn accessors_expose_batch_order() {
        let ks = keystore();
        let a = request(&ks, 0, 1, b"a");
        let b = request(&ks, 1, 1, b"b");
        let batch = Batch::new(vec![a.clone(), b.clone()]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.requests()[0], a);
        assert_eq!(batch.requests()[1], b);
        let ids: Vec<_> = batch.request_ids().collect();
        assert_eq!(ids, vec![a.id(), b.id()]);
        assert!(batch.contains(a.id()));
        assert!(!batch.contains(seemore_types::RequestId::new(ClientId(9), Timestamp(9))));
        assert_eq!(batch.clone().into_requests(), vec![a.clone(), b]);
        assert_eq!(batch.iter().count(), 2);
        assert_eq!((&batch).into_iter().count(), 2);
        let singleton: Batch = a.into();
        assert_eq!(singleton.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_batches_are_rejected() {
        let _ = Batch::new(Vec::new());
    }

    #[test]
    fn wire_size_sums_member_requests() {
        let ks = keystore();
        let a = request(&ks, 0, 1, b"aa");
        let b = request(&ks, 1, 1, b"bbbb");
        let expected = INT_LEN + a.wire_size() + b.wire_size();
        assert_eq!(Batch::new(vec![a, b]).wire_size(), expected);
    }
}
