//! Control-plane messages: checkpoints, view changes, new views, mode
//! changes and state transfer.

use crate::batch::Batch;
use crate::size::{
    canonical_bytes_into, SignedPayload, WireSize, DIGEST_LEN, HEADER_LEN, INT_LEN, SIGNATURE_LEN,
};
use seemore_crypto::{Digest, Signature};
use seemore_types::{Mode, ReplicaId, SeqNum, View};

/// `⟨CHECKPOINT, n, d⟩_σ` — periodic snapshot announcement.
///
/// In the Lion and Dog modes the trusted primary produces the checkpoint and
/// a single signed message makes it stable; in the Peacock mode (and in the
/// PBFT / S-UpRight baselines) replicas exchange checkpoints and a quorum of
/// matching ones is required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number of the last request folded into the snapshot.
    pub seq: SeqNum,
    /// Digest of the application state after executing `seq`.
    pub state_digest: Digest,
    /// The replica announcing the checkpoint.
    pub replica: ReplicaId,
    /// The announcer's signature.
    pub signature: Signature,
}

impl SignedPayload for Checkpoint {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "checkpoint",
            &[
                &self.seq.0.to_le_bytes(),
                self.state_digest.as_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for Checkpoint {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + DIGEST_LEN + SIGNATURE_LEN
    }
}

/// Evidence that a `PREPARE` / `PRE-PREPARE` was received from the primary
/// of `view` for `(seq, digest)`; carried inside `VIEW-CHANGE` messages
/// (the paper's set `P`, "without the request message µ" — the batch is
/// attached only when the sender still has it and the new primary may need
/// it to re-propose).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrepareCert {
    /// View the original proposal was made in.
    pub view: View,
    /// Sequence number of the proposal.
    pub seq: SeqNum,
    /// Combined digest of the proposed batch.
    pub digest: Digest,
    /// Signature of the primary that made the proposal.
    pub primary_signature: Signature,
    /// The batch itself, when available, so the new primary can re-issue it.
    pub batch: Option<Batch>,
}

impl WireSize for PrepareCert {
    fn wire_size(&self) -> usize {
        2 * INT_LEN + DIGEST_LEN + SIGNATURE_LEN + self.batch.wire_size()
    }
}

/// Evidence that a batch committed (the paper's set `C` in the Lion mode):
/// a `COMMIT` signed by the primary of `view`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitCert {
    /// View the commit happened in.
    pub view: View,
    /// Sequence number of the committed batch.
    pub seq: SeqNum,
    /// Combined digest of the committed batch.
    pub digest: Digest,
    /// Signature of the primary that committed it.
    pub primary_signature: Signature,
    /// The batch itself, when available.
    pub batch: Option<Batch>,
}

impl WireSize for CommitCert {
    fn wire_size(&self) -> usize {
        2 * INT_LEN + DIGEST_LEN + SIGNATURE_LEN + self.batch.wire_size()
    }
}

/// `⟨VIEW-CHANGE, v+1, n, ξ, P, C⟩` — a replica's vote to move to a new view
/// after suspecting the primary (Section 5.1–5.3).
///
/// * Lion: sent by every replica; carries both prepare (`P`) and commit
///   (`C`) certificates.
/// * Dog / Peacock: sent by public-cloud replicas; carries only prepare
///   certificates (`C` is omitted to keep the message small, as the paper
///   prescribes for the Dog mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The proposed new view `v + 1`.
    pub new_view: View,
    /// Mode the sender expects the new view to operate in.
    pub mode: Mode,
    /// Sequence number of the sender's last stable checkpoint.
    pub stable_seq: SeqNum,
    /// The checkpoint certificate `ξ` proving that checkpoint is stable.
    pub checkpoint_proof: Vec<Checkpoint>,
    /// Prepare certificates for requests above the stable checkpoint.
    pub prepares: Vec<PrepareCert>,
    /// Commit certificates for requests above the stable checkpoint.
    pub commits: Vec<CommitCert>,
    /// The sender.
    pub replica: ReplicaId,
    /// The sender's signature.
    pub signature: Signature,
}

impl SignedPayload for ViewChange {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        // The signature binds the proposed view, mode, stable checkpoint and
        // a digest of the carried certificate sets.
        let mut cert_summary = Vec::new();
        for p in &self.prepares {
            cert_summary.extend_from_slice(&p.view.0.to_le_bytes());
            cert_summary.extend_from_slice(&p.seq.0.to_le_bytes());
            cert_summary.extend_from_slice(p.digest.as_bytes());
        }
        for c in &self.commits {
            cert_summary.extend_from_slice(&c.view.0.to_le_bytes());
            cert_summary.extend_from_slice(&c.seq.0.to_le_bytes());
            cert_summary.extend_from_slice(c.digest.as_bytes());
        }
        canonical_bytes_into(
            out,
            "view-change",
            &[
                &self.new_view.0.to_le_bytes(),
                &[self.mode.index()],
                &self.stable_seq.0.to_le_bytes(),
                &cert_summary,
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for ViewChange {
    fn wire_size(&self) -> usize {
        HEADER_LEN
            + 3 * INT_LEN
            + 1
            + self.checkpoint_proof.wire_size()
            + self.prepares.wire_size()
            + self.commits.wire_size()
            + SIGNATURE_LEN
    }
}

/// `⟨NEW-VIEW, v+1, P', C'⟩_σ` — the new primary's (Lion, Dog) or the
/// transferer's (Peacock) instruction installing the new view.
///
/// Because the sender is trusted in SeeMoRe, the paper notes that the
/// `VIEW-CHANGE` messages themselves need not be embedded; the
/// `view_change_proof` field is therefore only populated by the PBFT /
/// S-UpRight baselines, whose new primary is untrusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewView {
    /// The view being installed.
    pub view: View,
    /// Mode the new view operates in.
    pub mode: Mode,
    /// Re-issued proposals for uncommitted sequence numbers (`P'`).
    pub prepares: Vec<PrepareCert>,
    /// Re-issued commits for already-committed sequence numbers (`C'`).
    pub commits: Vec<CommitCert>,
    /// Latest stable checkpoint carried over into the new view.
    pub checkpoint: Option<Checkpoint>,
    /// Embedded view-change evidence (baselines only).
    pub view_change_proof: Vec<ViewChange>,
    /// The sender (new primary or transferer).
    pub replica: ReplicaId,
    /// The sender's signature.
    pub signature: Signature,
}

impl SignedPayload for NewView {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        let mut cert_summary = Vec::new();
        for p in &self.prepares {
            cert_summary.extend_from_slice(&p.seq.0.to_le_bytes());
            cert_summary.extend_from_slice(p.digest.as_bytes());
        }
        for c in &self.commits {
            cert_summary.extend_from_slice(&c.seq.0.to_le_bytes());
            cert_summary.extend_from_slice(c.digest.as_bytes());
        }
        canonical_bytes_into(
            out,
            "new-view",
            &[
                &self.view.0.to_le_bytes(),
                &[self.mode.index()],
                &cert_summary,
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for NewView {
    fn wire_size(&self) -> usize {
        HEADER_LEN
            + 2 * INT_LEN
            + 1
            + self.prepares.wire_size()
            + self.commits.wire_size()
            + self.checkpoint.wire_size()
            + self.view_change_proof.wire_size()
            + SIGNATURE_LEN
    }
}

/// `⟨MODE-CHANGE, v+1, π'⟩_σs` — announcement by a trusted replica that the
/// protocol is switching to mode `π'` starting from view `v+1`
/// (Section 5.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeChange {
    /// First view of the new mode.
    pub new_view: View,
    /// The mode being switched to.
    pub new_mode: Mode,
    /// The trusted replica announcing the switch (primary of the new view
    /// for Lion/Dog, transferer of the new view for Peacock).
    pub replica: ReplicaId,
    /// The announcer's signature.
    pub signature: Signature,
}

impl SignedPayload for ModeChange {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "mode-change",
            &[
                &self.new_view.0.to_le_bytes(),
                &[self.new_mode.index()],
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for ModeChange {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN + 1 + SIGNATURE_LEN
    }
}

/// Request for missing committed entries, sent by a replica that has fallen
/// behind (state transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateRequest {
    /// First sequence number the requester is missing.
    pub from_seq: SeqNum,
    /// The requesting replica.
    pub replica: ReplicaId,
}

impl WireSize for StateRequest {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 2 * INT_LEN
    }
}

/// Response to a [`StateRequest`]: the committed batches starting at the
/// requested sequence number, plus the sender's latest stable checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateResponse {
    /// Latest stable checkpoint known to the sender.
    pub checkpoint: Option<Checkpoint>,
    /// Serialized application state at the sender's stable checkpoint, so a
    /// lagging replica can catch up without replaying the whole history.
    pub snapshot: Option<Vec<u8>>,
    /// Committed `(seq, batch)` pairs above the checkpoint.
    pub entries: Vec<(SeqNum, Batch)>,
    /// The responding replica.
    pub replica: ReplicaId,
}

impl WireSize for StateResponse {
    fn wire_size(&self) -> usize {
        HEADER_LEN
            + INT_LEN
            + self.checkpoint.wire_size()
            + 1
            + self.snapshot.as_ref().map_or(0, |s| s.len() + INT_LEN)
            + INT_LEN
            + self
                .entries
                .iter()
                .map(|(_, batch)| INT_LEN + batch.wire_size())
                .sum::<usize>()
    }
}

/// `⟨RECOVERY, n, v, i⟩_σ` — broadcast by a replica that restarted from its
/// durable state (checkpoint + WAL suffix) and needs the committed suffix it
/// missed while down. Peers answer with a [`StateResponse`] from
/// `last_executed + 1`; the first valid response completes the rejoin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Last sequence number the recovering replica has executed (from its
    /// restored checkpoint plus replayed WAL).
    pub last_executed: SeqNum,
    /// The view the recovering replica restored; peers in a later view will
    /// bring it forward via the normal new-view machinery.
    pub view: View,
    /// The recovering replica.
    pub replica: ReplicaId,
    /// The announcer's signature (so a forged announcement cannot trigger
    /// snapshot traffic at a byzantine replica's chosen moment).
    pub signature: Signature,
}

impl SignedPayload for Recovery {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "recovery",
            &[
                &self.last_executed.0.to_le_bytes(),
                &self.view.0.to_le_bytes(),
                &self.replica.0.to_le_bytes(),
            ],
        )
    }
}

impl WireSize for Recovery {
    fn wire_size(&self) -> usize {
        HEADER_LEN + 3 * INT_LEN + SIGNATURE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientRequest;
    use seemore_crypto::{KeyStore, Signer};
    use seemore_types::{ClientId, NodeId, Timestamp};

    fn signer(ks: &KeyStore, r: u32) -> Signer {
        ks.signer_for(NodeId::Replica(ReplicaId(r))).unwrap()
    }

    fn batch(ks: &KeyStore) -> Batch {
        let signer = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        Batch::single(ClientRequest::new(
            ClientId(0),
            Timestamp(1),
            b"op".to_vec(),
            &signer,
        ))
    }

    #[test]
    fn checkpoint_signature_binds_state_digest() {
        let ks = KeyStore::generate(9, 4, 1);
        let s = signer(&ks, 0);
        let mut cp = Checkpoint {
            seq: SeqNum(100),
            state_digest: Digest::of_bytes(b"state"),
            replica: ReplicaId(0),
            signature: Signature::INVALID,
        };
        cp.signature = s.sign(&cp.signing_bytes());
        assert!(ks.verify(
            NodeId::Replica(ReplicaId(0)),
            &cp.signing_bytes(),
            &cp.signature
        ));
        let tampered = Checkpoint {
            state_digest: Digest::of_bytes(b"other"),
            ..cp.clone()
        };
        assert!(!ks.verify(
            NodeId::Replica(ReplicaId(0)),
            &tampered.signing_bytes(),
            &tampered.signature
        ));
    }

    #[test]
    fn view_change_signature_covers_certificates() {
        let ks = KeyStore::generate(9, 4, 1);
        let batch = batch(&ks);
        let base = ViewChange {
            new_view: View(2),
            mode: Mode::Lion,
            stable_seq: SeqNum(0),
            checkpoint_proof: vec![],
            prepares: vec![PrepareCert {
                view: View(1),
                seq: SeqNum(1),
                digest: batch.digest(),
                primary_signature: Signature::INVALID,
                batch: Some(batch.clone()),
            }],
            commits: vec![],
            replica: ReplicaId(3),
            signature: Signature::INVALID,
        };
        let mut different = base.clone();
        different.prepares[0].seq = SeqNum(2);
        assert_ne!(base.signing_bytes(), different.signing_bytes());

        let mut commit_added = base.clone();
        commit_added.commits.push(CommitCert {
            view: View(1),
            seq: SeqNum(1),
            digest: batch.digest(),
            primary_signature: Signature::INVALID,
            batch: None,
        });
        assert_ne!(base.signing_bytes(), commit_added.signing_bytes());
    }

    #[test]
    fn new_view_signature_covers_reissued_proposals() {
        let ks = KeyStore::generate(9, 4, 1);
        let batch = batch(&ks);
        let base = NewView {
            view: View(3),
            mode: Mode::Dog,
            prepares: vec![PrepareCert {
                view: View(3),
                seq: SeqNum(7),
                digest: batch.digest(),
                primary_signature: Signature::INVALID,
                batch: Some(batch),
            }],
            commits: vec![],
            checkpoint: None,
            view_change_proof: vec![],
            replica: ReplicaId(1),
            signature: Signature::INVALID,
        };
        let mut different = base.clone();
        different.prepares[0].digest = Digest::of_bytes(b"other");
        assert_ne!(base.signing_bytes(), different.signing_bytes());
        assert_ne!(
            base.signing_bytes(),
            ModeChange {
                new_view: View(3),
                new_mode: Mode::Dog,
                replica: ReplicaId(1),
                signature: Signature::INVALID,
            }
            .signing_bytes()
        );
    }

    #[test]
    fn mode_change_binds_mode_and_view() {
        let a = ModeChange {
            new_view: View(5),
            new_mode: Mode::Peacock,
            replica: ReplicaId(0),
            signature: Signature::INVALID,
        };
        let b = ModeChange {
            new_mode: Mode::Lion,
            ..a.clone()
        };
        let c = ModeChange {
            new_view: View(6),
            ..a.clone()
        };
        assert_ne!(a.signing_bytes(), b.signing_bytes());
        assert_ne!(a.signing_bytes(), c.signing_bytes());
    }

    #[test]
    fn wire_sizes_grow_with_certificates() {
        let ks = KeyStore::generate(9, 4, 1);
        let batch = batch(&ks);
        let empty = ViewChange {
            new_view: View(1),
            mode: Mode::Lion,
            stable_seq: SeqNum(0),
            checkpoint_proof: vec![],
            prepares: vec![],
            commits: vec![],
            replica: ReplicaId(0),
            signature: Signature::INVALID,
        };
        let mut with_prepares = empty.clone();
        with_prepares.prepares.push(PrepareCert {
            view: View(0),
            seq: SeqNum(1),
            digest: batch.digest(),
            primary_signature: Signature::INVALID,
            batch: Some(batch.clone()),
        });
        assert!(with_prepares.wire_size() > empty.wire_size());

        let resp_empty = StateResponse {
            checkpoint: None,
            snapshot: None,
            entries: vec![],
            replica: ReplicaId(0),
        };
        let resp_full = StateResponse {
            checkpoint: None,
            snapshot: Some(vec![0u8; 128]),
            entries: vec![(SeqNum(1), batch)],
            replica: ReplicaId(0),
        };
        assert!(resp_full.wire_size() > resp_empty.wire_size());
        assert!(
            StateRequest {
                from_seq: SeqNum(1),
                replica: ReplicaId(0)
            }
            .wire_size()
                > 0
        );
    }
}
