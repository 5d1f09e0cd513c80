//! The signed redirect reply of the sharded topology.
//!
//! In a sharded deployment the keyspace is partitioned across independent
//! agreement groups by a versioned [`ShardMap`]. A client routes each
//! operation with its cached map; when the map is stale the request lands on
//! a group that does not own the key. The receiving replica refuses the
//! request *before* it enters agreement and answers with a [`Redirect`]: a
//! first-class, signed reply naming the authoritative owner group and
//! carrying the replica's (newer) `ShardMap` so the client can refresh its
//! cache and re-route — one extra round trip, no wasted consensus.
//!
//! Like every reply a client acts on, the redirect is signed: the signature
//! covers the misrouted request's identity, the answering replica, both
//! group ids and the full map (version *and* partitioning), so a Byzantine
//! public-cloud replica cannot splice a stale map or a bogus owner onto a
//! valid signature.

use crate::size::INT_LEN;
use crate::size::{canonical_bytes_into, SignedPayload, WireSize, HEADER_LEN, SIGNATURE_LEN};
use seemore_crypto::{Signature, Signer};
use seemore_types::{GroupId, Partitioning, ReplicaId, RequestId, ShardMap};
use serde::{Deserialize, Serialize};

/// A replica's signed answer to a request for a key its group does not own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Redirect {
    /// Identity of the misrouted request.
    pub request: RequestId,
    /// The replica answering (scoped to `group`).
    pub replica: ReplicaId,
    /// The group the answering replica belongs to — the group the client
    /// (wrongly) sent the request to.
    pub group: GroupId,
    /// The group that owns the request's key under `map`.
    pub target: GroupId,
    /// The authoritative shard map in force at the answering replica.
    pub map: ShardMap,
    /// Signature over every field above.
    pub signature: Signature,
}

impl Redirect {
    /// Builds and signs a redirect.
    pub fn new(
        request: RequestId,
        replica: ReplicaId,
        group: GroupId,
        target: GroupId,
        map: ShardMap,
        signer: &Signer,
    ) -> Redirect {
        let mut redirect = Redirect {
            request,
            replica,
            group,
            target,
            map,
            signature: Signature::INVALID,
        };
        redirect.signature = signer.sign(&redirect.signing_bytes());
        redirect
    }
}

/// Canonical byte string of a partitioning scheme, used both for signing and
/// as the codec's body layout vocabulary (tag byte, then the scheme's data).
fn partitioning_bytes(partitioning: &Partitioning) -> Vec<u8> {
    let Partitioning::Hash { groups } = partitioning;
    let mut out = vec![0u8];
    out.extend_from_slice(&u64::from(*groups).to_le_bytes());
    out
}

/// Encoded size of a partitioning scheme (tag byte plus scheme data), shared
/// between [`WireSize`] and the codec.
pub(crate) fn partitioning_wire_size(partitioning: &Partitioning) -> usize {
    let Partitioning::Hash { .. } = partitioning;
    1 + INT_LEN
}

impl SignedPayload for Redirect {
    fn signing_bytes_into(&self, out: &mut Vec<u8>) {
        canonical_bytes_into(
            out,
            "redirect",
            &[
                &self.request.client.0.to_le_bytes(),
                &self.request.timestamp.0.to_le_bytes(),
                &self.replica.0.to_le_bytes(),
                &self.group.0.to_le_bytes(),
                &self.target.0.to_le_bytes(),
                &self.map.version.to_le_bytes(),
                &partitioning_bytes(&self.map.partitioning),
            ],
        )
    }
}

impl WireSize for Redirect {
    fn wire_size(&self) -> usize {
        // request (client + timestamp), replica, group, target, map version,
        // then the partitioning scheme and the signature.
        HEADER_LEN + 6 * INT_LEN + partitioning_wire_size(&self.map.partitioning) + SIGNATURE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClientId, NodeId, Timestamp};

    fn sample(map: ShardMap) -> (Redirect, KeyStore) {
        let ks = KeyStore::generate(0x5A4D, 4, 2);
        let signer = ks.signer_for(NodeId::Replica(ReplicaId(1))).unwrap();
        let redirect = Redirect::new(
            RequestId::new(ClientId(0), Timestamp(9)),
            ReplicaId(1),
            GroupId(0),
            GroupId(2),
            map,
            &signer,
        );
        (redirect, ks)
    }

    fn verifies(redirect: &Redirect, ks: &KeyStore) -> bool {
        ks.verify(
            NodeId::Replica(redirect.replica),
            &redirect.signing_bytes(),
            &redirect.signature,
        )
    }

    #[test]
    fn a_well_formed_redirect_verifies() {
        let (redirect, ks) = sample(ShardMap::uniform(4));
        assert!(verifies(&redirect, &ks));
    }

    #[test]
    fn tampering_with_the_target_group_invalidates_the_signature() {
        let (mut redirect, ks) = sample(ShardMap::uniform(4));
        redirect.target = GroupId(3);
        assert!(!verifies(&redirect, &ks));
    }

    #[test]
    fn tampering_with_the_map_version_invalidates_the_signature() {
        let (mut redirect, ks) = sample(ShardMap::uniform(4));
        redirect.map.version += 1;
        assert!(!verifies(&redirect, &ks));
    }

    #[test]
    fn tampering_with_the_partitioning_invalidates_the_signature() {
        let (mut redirect, ks) = sample(ShardMap::uniform(4));
        redirect.map.partitioning = Partitioning::Hash { groups: 8 };
        assert!(!verifies(&redirect, &ks));
    }

    #[test]
    fn tampering_with_the_request_identity_invalidates_the_signature() {
        let (mut redirect, ks) = sample(ShardMap::uniform(2));
        redirect.request = RequestId::new(ClientId(0), Timestamp(10));
        assert!(!verifies(&redirect, &ks));
    }

    #[test]
    fn a_different_replicas_key_does_not_verify() {
        let (mut redirect, ks) = sample(ShardMap::uniform(2));
        redirect.replica = ReplicaId(2);
        assert!(!verifies(&redirect, &ks));
    }

    #[test]
    fn wire_size_accounts_for_the_partitioning_payload() {
        let (hash, _) = sample(ShardMap::uniform(4));
        assert_eq!(
            hash.wire_size(),
            HEADER_LEN + 6 * INT_LEN + 1 + INT_LEN + SIGNATURE_LEN
        );
    }
}
