//! Agreement-phase messages: `PREPARE`, `PRE-PREPARE`, `ACCEPT`,
//! PBFT-style `PREPARE` votes, `COMMIT` and `INFORM`.
//!
//! The unit of agreement is a [`Batch`] of client requests: proposals carry
//! the full batch and every digest field is the batch's combined digest, so
//! one slot of quorum traffic orders every request in the batch. Naming
//! follows the paper:
//!
//! * [`Prepare`] is the trusted primary's proposal in the Lion and Dog modes
//!   (`⟨⟨PREPARE, v, n, d⟩_σp, µ⟩` with `µ` generalized to a batch).
//! * [`PrePrepare`] is the untrusted primary's proposal in the Peacock mode
//!   and in the PBFT / S-UpRight baselines.
//! * [`Accept`] is the backup/proxy vote of the Lion and Dog modes; it is
//!   unsigned in Lion (only the trusted primary consumes it) and signed in
//!   Dog (proxies exchange it as evidence).
//! * [`PbftPrepare`] is the first all-to-all vote of PBFT-style agreement
//!   (used by Peacock and the BFT / S-UpRight baselines).
//! * [`Commit`] doubles as the trusted primary's commit announcement
//!   (Lion — carries the batch so lagging replicas can still execute) and
//!   as the commit vote of proxy/PBFT agreement.
//! * [`Inform`] notifies passive replicas that a batch committed
//!   (Dog and Peacock modes).

use crate::batch::Batch;
use crate::size::{
    canonical_bytes_into, SignedPayload, WireSize, DIGEST_LEN, HEADER_LEN, INT_LEN, SIGNATURE_LEN,
};
use seemore_crypto::{Digest, Signature};
use seemore_types::{ReplicaId, SeqNum, View};

/// `⟨⟨PREPARE, v, n, d⟩_σp, µ⟩` — the trusted primary's proposal
/// (Lion and Dog modes), ordering one batch at sequence number `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prepare {
    /// View in which the batch is proposed.
    pub view: View,
    /// Sequence number assigned by the primary.
    pub seq: SeqNum,
    /// Combined digest of the proposed batch.
    pub digest: Digest,
    /// The full batch (attached so every replica can execute).
    pub batch: Batch,
    /// The primary's signature over `(view, seq, digest)`.
    pub signature: Signature,
}

impl Prepare {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for Prepare {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "prepare",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
            ],
        )
    }
}

impl WireSize for Prepare {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + DIGEST_LEN + self.batch.wire_size() + SIGNATURE_LEN
    }
}

/// `⟨⟨PRE-PREPARE, v, n, d⟩_σp, µ⟩` — the untrusted primary's proposal
/// (Peacock mode, PBFT and S-UpRight baselines), ordering one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepare {
    /// View in which the batch is proposed.
    pub view: View,
    /// Sequence number assigned by the primary.
    pub seq: SeqNum,
    /// Combined digest of the proposed batch.
    pub digest: Digest,
    /// The full batch.
    pub batch: Batch,
    /// The primary's signature over `(view, seq, digest)`.
    pub signature: Signature,
}

impl PrePrepare {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for PrePrepare {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "pre-prepare",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
            ],
        )
    }
}

impl WireSize for PrePrepare {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + DIGEST_LEN + self.batch.wire_size() + SIGNATURE_LEN
    }
}

/// `⟨ACCEPT, v, n, d, r⟩(_σr)` — the backup vote of the Lion mode (unsigned,
/// sent only to the trusted primary) and the proxy vote of the Dog mode
/// (signed, exchanged among proxies as view-change evidence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accept {
    /// View of the vote.
    pub view: View,
    /// Sequence number being voted on.
    pub seq: SeqNum,
    /// Combined digest of the batch being voted on.
    pub digest: Digest,
    /// The voting replica.
    pub replica: ReplicaId,
    /// Signature, present only when the mode requires signed accepts (Dog).
    pub signature: Option<Signature>,
}

impl Accept {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for Accept {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "accept",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for Accept {
    fn wire_size(&self) -> usize {
        HEADER_LEN
            + 2 * INT_LEN
            + DIGEST_LEN
            + INT_LEN
            + if self.signature.is_some() {
                SIGNATURE_LEN
            } else {
                0
            }
    }
}

/// PBFT-style `⟨PREPARE, v, n, d, r⟩_σr` vote — the first all-to-all phase of
/// Peacock / PBFT / S-UpRight agreement, establishing that non-faulty
/// replicas received matching proposals from the primary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbftPrepare {
    /// View of the vote.
    pub view: View,
    /// Sequence number being voted on.
    pub seq: SeqNum,
    /// Combined digest of the batch being voted on.
    pub digest: Digest,
    /// The voting replica.
    pub replica: ReplicaId,
    /// The voter's signature.
    pub signature: Signature,
}

impl PbftPrepare {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for PbftPrepare {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "pbft-prepare",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for PbftPrepare {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 3 * INT_LEN + DIGEST_LEN + SIGNATURE_LEN
    }
}

/// `COMMIT` — either the trusted primary's commit announcement
/// (Lion: `⟨⟨COMMIT, v, n, d⟩_σp, µ⟩`, batch attached) or a commit vote in
/// proxy / PBFT agreement (`⟨COMMIT, v, n, d, r⟩_σr`, no batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// View of the commit.
    pub view: View,
    /// Sequence number being committed.
    pub seq: SeqNum,
    /// Combined digest of the committed batch.
    pub digest: Digest,
    /// The sending replica (the primary in Lion mode).
    pub replica: ReplicaId,
    /// The full batch, attached only by the Lion-mode primary so that
    /// replicas that missed the `PREPARE` can still execute.
    pub batch: Option<Batch>,
    /// The sender's signature.
    pub signature: Signature,
}

impl Commit {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for Commit {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "commit",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for Commit {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 3 * INT_LEN + DIGEST_LEN + self.batch.wire_size() + SIGNATURE_LEN
    }
}

/// `⟨INFORM, v, n, d, r⟩_σr` — sent by proxies to passive replicas (private
/// cloud and non-proxy public replicas) once a batch has committed
/// (Dog and Peacock modes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inform {
    /// View of the committed batch.
    pub view: View,
    /// Sequence number of the committed batch.
    pub seq: SeqNum,
    /// Combined digest of the committed batch.
    pub digest: Digest,
    /// The proxy sending the notification.
    pub replica: ReplicaId,
    /// The proxy's signature.
    pub signature: Signature,
}

impl Inform {
    /// The `(view, seq, digest)` triple quorum matching is performed on.
    pub fn key(&self) -> (View, SeqNum, Digest) {
        (self.view, self.seq, self.digest)
    }
}

impl SignedPayload for Inform {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "inform",
            &[
                &self.view.0.to_le_bytes(),
                &self.seq.0.to_le_bytes(),
                self.digest.as_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for Inform {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 3 * INT_LEN + DIGEST_LEN + SIGNATURE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientRequest;
    use seemore_crypto::{KeyStore, Signer};
    use seemore_types::{ClientId, NodeId, Timestamp};

    fn fixtures() -> (KeyStore, Signer, Batch) {
        let ks = KeyStore::generate(3, 4, 2);
        let c0 = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let c1 = ks.signer_for(NodeId::Client(ClientId(1))).unwrap();
        let batch = Batch::new(vec![
            ClientRequest::new(ClientId(0), Timestamp(1), b"op-a".to_vec(), &c0),
            ClientRequest::new(ClientId(1), Timestamp(1), b"op-b".to_vec(), &c1),
        ]);
        let primary = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        (ks, primary, batch)
    }

    #[test]
    fn prepare_and_preprepare_share_key_semantics() {
        let (_, primary, batch) = fixtures();
        let digest = batch.digest();
        let prepare = Prepare {
            view: View(1),
            seq: SeqNum(5),
            digest,
            batch: batch.clone(),
            signature: primary.sign(b"x"),
        };
        let preprepare = PrePrepare {
            view: View(1),
            seq: SeqNum(5),
            digest,
            batch,
            signature: primary.sign(b"x"),
        };
        assert_eq!(prepare.key(), preprepare.key());
        assert_eq!(prepare.key(), (View(1), SeqNum(5), digest));
    }

    #[test]
    fn signing_bytes_differ_between_message_kinds() {
        let (_, _, batch) = fixtures();
        let digest = batch.digest();
        let prepare = Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest,
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        let preprepare = PrePrepare {
            view: View(0),
            seq: SeqNum(1),
            digest,
            batch,
            signature: Signature::INVALID,
        };
        // A signature on a PREPARE must not validate a PRE-PREPARE with the
        // same fields (domain separation via the label).
        assert_ne!(prepare.signing_bytes(), preprepare.signing_bytes());
    }

    #[test]
    fn proposal_signature_binds_the_batch_through_its_digest() {
        let (ks, primary, batch) = fixtures();
        let mut prepare = Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch.digest(),
            batch: batch.clone(),
            signature: Signature::INVALID,
        };
        prepare.signature = primary.sign(&prepare.signing_bytes());
        assert!(ks.verify(
            NodeId::Replica(ReplicaId(0)),
            &prepare.signing_bytes(),
            &prepare.signature
        ));
        // Reordering the batch changes the digest, so the signed bytes no
        // longer describe the carried batch.
        let mut requests = batch.clone().into_requests();
        requests.reverse();
        let reordered = Batch::new(requests);
        assert_ne!(reordered.digest(), prepare.digest);
    }

    #[test]
    fn accept_signature_is_optional_and_affects_size() {
        let digest = Digest::of_bytes(b"d");
        let unsigned = Accept {
            view: View(0),
            seq: SeqNum(1),
            digest,
            replica: ReplicaId(3),
            signature: None,
        };
        let signed = Accept {
            signature: Some(Signature::INVALID),
            ..unsigned.clone()
        };
        assert_eq!(signed.wire_size() - unsigned.wire_size(), SIGNATURE_LEN);
        assert_eq!(unsigned.signing_bytes(), signed.signing_bytes());
    }

    #[test]
    fn commit_carries_batch_only_in_lion_mode_usage() {
        let (_, primary, batch) = fixtures();
        let digest = batch.digest();
        let with_batch = Commit {
            view: View(0),
            seq: SeqNum(1),
            digest,
            replica: ReplicaId(0),
            batch: Some(batch.clone()),
            signature: primary.sign(b"c"),
        };
        let without = Commit {
            batch: None,
            ..with_batch.clone()
        };
        assert!(with_batch.wire_size() > without.wire_size());
        // The batch is NOT part of the signed bytes: the signature covers
        // (view, seq, digest) and the digest already binds the batch.
        assert_eq!(with_batch.signing_bytes(), without.signing_bytes());
    }

    #[test]
    fn votes_sign_their_sender() {
        let digest = Digest::of_bytes(b"d");
        let a = PbftPrepare {
            view: View(2),
            seq: SeqNum(7),
            digest,
            replica: ReplicaId(1),
            signature: Signature::INVALID,
        };
        let b = PbftPrepare {
            replica: ReplicaId(2),
            ..a.clone()
        };
        assert_ne!(a.signing_bytes(), b.signing_bytes());

        let i = Inform {
            view: View(2),
            seq: SeqNum(7),
            digest,
            replica: ReplicaId(1),
            signature: Signature::INVALID,
        };
        let j = Inform {
            replica: ReplicaId(2),
            ..i.clone()
        };
        assert_ne!(i.signing_bytes(), j.signing_bytes());
        assert_eq!(i.key(), j.key());
    }

    #[test]
    fn verified_round_trip_with_keystore() {
        let (ks, primary, batch) = fixtures();
        let mut prepare = Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch.digest(),
            batch,
            signature: Signature::INVALID,
        };
        prepare.signature = primary.sign(&prepare.signing_bytes());
        assert!(ks.verify(
            NodeId::Replica(ReplicaId(0)),
            &prepare.signing_bytes(),
            &prepare.signature
        ));
        // Another replica cannot have produced it.
        assert!(!ks.verify(
            NodeId::Replica(ReplicaId(1)),
            &prepare.signing_bytes(),
            &prepare.signature
        ));
    }

    #[test]
    fn proposal_wire_size_scales_with_batch_size() {
        let (ks, primary, batch) = fixtures();
        let single = Batch::single(batch.requests()[0].clone());
        let small = Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: single.digest(),
            batch: single,
            signature: primary.sign(b"s"),
        };
        let large = Prepare {
            view: View(0),
            seq: SeqNum(1),
            digest: batch.digest(),
            batch: batch.clone(),
            signature: primary.sign(b"l"),
        };
        assert!(large.wire_size() > small.wire_size());
        let _ = ks;
    }
}
