//! Simulated digital signatures.
//!
//! Every node (replica or client) owns a [`SecretKey`]; signing a message
//! produces a [`Signature`] (an HMAC-SHA-256 tag over the message bytes).
//! Verification goes through a shared [`KeyStore`] that maps node identities
//! to their secret keys — the in-simulation equivalent of "all machines have
//! the public keys of all other machines" (Section 3.1 of the paper).
//!
//! The unforgeability argument is preserved because Byzantine behaviours in
//! this workspace are implemented as wrappers around protocol cores that only
//! ever hold *their own* [`Signer`]; they can refuse to sign, equivocate, or
//! send garbage tags, but they cannot produce a tag that verifies as another
//! node, exactly like the adversary in the paper's model.

use crate::digest::Digest;
use crate::hmac::{constant_time_eq, HmacKey};
use seemore_types::{ClientId, NodeId, ReplicaId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Length of secret keys and signature tags, in bytes.
pub const KEY_LEN: usize = 32;

/// A node's secret signing key.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey([u8; KEY_LEN]);

impl SecretKey {
    /// Derives the secret key of `node` from a cluster-wide seed.
    ///
    /// Key material is simulated: the whole cluster is generated from one
    /// seed so that runs are reproducible, and the derivation goes through
    /// SHA-256 so keys do not reveal the seed or each other.
    pub fn derive(cluster_seed: u64, node: NodeId) -> SecretKey {
        let label: &[u8] = match node {
            NodeId::Replica(_) => b"replica-key",
            NodeId::Client(_) => b"client-key",
        };
        let index = match node {
            NodeId::Replica(ReplicaId(r)) => u64::from(r),
            NodeId::Client(ClientId(c)) => c,
        };
        let digest = Digest::of_fields(&[
            b"seemore-secret-key",
            label,
            &cluster_seed.to_le_bytes(),
            &index.to_le_bytes(),
        ]);
        SecretKey(*digest.as_bytes())
    }

    /// Builds a key from raw bytes (mainly for tests).
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> SecretKey {
        SecretKey(bytes)
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(…)")
    }
}

/// A signature tag over a message, attributable to a single node.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature([u8; KEY_LEN]);

impl Signature {
    /// An obviously invalid signature, useful for fault injection.
    pub const INVALID: Signature = Signature([0u8; KEY_LEN]);

    /// Raw tag bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// Builds a signature from raw bytes (fault injection / deserialization).
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Signature {
        Signature(bytes)
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Signature({prefix}…)")
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::INVALID
    }
}

/// The signing half held by a single node.
#[derive(Clone, Debug)]
pub struct Signer {
    node: NodeId,
    key: HmacKey,
}

impl Signer {
    /// Creates a signer for `node` with the given secret key. The HMAC key
    /// schedule runs here, once, not in every [`sign`](Self::sign).
    pub fn new(node: NodeId, key: SecretKey) -> Signer {
        Signer {
            node,
            key: HmacKey::new(key.as_bytes()),
        }
    }

    /// The identity this signer signs as.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Signs an arbitrary byte string.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(self.key.mac(message))
    }

    /// Signs a digest (the common case for protocol messages: the signed
    /// payload is itself summarized by a digest).
    pub fn sign_digest(&self, digest: &Digest) -> Signature {
        self.sign(digest.as_bytes())
    }
}

/// The verification half shared by every node in the cluster.
///
/// Cloning a `KeyStore` is cheap (the key table is behind an `Arc`). The
/// table holds each node's key with its HMAC key schedule already run.
#[derive(Clone, Debug)]
pub struct KeyStore {
    keys: Arc<BTreeMap<NodeId, HmacKey>>,
    cluster_seed: u64,
}

impl KeyStore {
    /// Generates a key store for `replica_count` replicas and
    /// `client_count` clients from a single seed.
    pub fn generate(cluster_seed: u64, replica_count: u32, client_count: u64) -> KeyStore {
        let replicas = (0..replica_count).map(|r| NodeId::Replica(ReplicaId(r)));
        let clients = (0..client_count).map(|c| NodeId::Client(ClientId(c)));
        let keys = replicas
            .chain(clients)
            .map(|node| {
                let key = SecretKey::derive(cluster_seed, node);
                (node, HmacKey::new(key.as_bytes()))
            })
            .collect();
        KeyStore {
            keys: Arc::new(keys),
            cluster_seed,
        }
    }

    /// The seed this key store was generated from.
    pub fn cluster_seed(&self) -> u64 {
        self.cluster_seed
    }

    /// Number of keys registered.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the key store is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns the signer for `node`, if the node is known.
    ///
    /// The runtime hands each node only its own signer; fault injectors for
    /// Byzantine replicas are given the same single signer, never the whole
    /// store's signing capability.
    pub fn signer_for(&self, node: NodeId) -> Option<Signer> {
        self.keys.get(&node).map(|key| Signer {
            node,
            key: key.clone(),
        })
    }

    /// Verifies that `signature` is `node`'s signature over `message`.
    pub fn verify(&self, node: NodeId, message: &[u8], signature: &Signature) -> bool {
        match self.keys.get(&node) {
            Some(key) => constant_time_eq(&key.mac(message), signature.as_bytes()),
            None => false,
        }
    }

    /// Verifies a signature over a digest.
    pub fn verify_digest(&self, node: NodeId, digest: &Digest, signature: &Signature) -> bool {
        self.verify(node, digest.as_bytes(), signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> KeyStore {
        KeyStore::generate(42, 4, 2)
    }

    #[test]
    fn generate_registers_all_nodes() {
        let ks = store();
        assert_eq!(ks.len(), 6);
        assert!(!ks.is_empty());
        assert_eq!(ks.cluster_seed(), 42);
        assert!(ks.signer_for(NodeId::Replica(ReplicaId(3))).is_some());
        assert!(ks.signer_for(NodeId::Client(ClientId(1))).is_some());
        assert!(ks.signer_for(NodeId::Replica(ReplicaId(4))).is_none());
    }

    #[test]
    fn sign_verify_round_trip() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(2));
        let signer = ks.signer_for(node).unwrap();
        assert_eq!(signer.node(), node);
        let sig = signer.sign(b"prepare v0 n1");
        assert!(ks.verify(node, b"prepare v0 n1", &sig));
        assert!(!ks.verify(node, b"prepare v0 n2", &sig));
    }

    #[test]
    fn signatures_are_not_transferable_between_nodes() {
        let ks = store();
        let a = NodeId::Replica(ReplicaId(0));
        let b = NodeId::Replica(ReplicaId(1));
        let sig = ks.signer_for(a).unwrap().sign(b"message");
        assert!(ks.verify(a, b"message", &sig));
        assert!(!ks.verify(b, b"message", &sig));
    }

    #[test]
    fn invalid_signature_never_verifies() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(0));
        assert!(!ks.verify(node, b"anything", &Signature::INVALID));
        assert!(!ks.verify(node, b"anything", &Signature::default()));
    }

    #[test]
    fn unknown_node_never_verifies() {
        let ks = store();
        let unknown = NodeId::Client(ClientId(999));
        let sig = Signature::from_bytes([7u8; KEY_LEN]);
        assert!(!ks.verify(unknown, b"hello", &sig));
    }

    #[test]
    fn digest_signing_matches_byte_signing() {
        let ks = store();
        let node = NodeId::Client(ClientId(0));
        let signer = ks.signer_for(node).unwrap();
        let digest = Digest::of_bytes(b"payload");
        let by_digest = signer.sign_digest(&digest);
        let by_bytes = signer.sign(digest.as_bytes());
        assert_eq!(by_digest, by_bytes);
        assert!(ks.verify_digest(node, &digest, &by_digest));
    }

    #[test]
    fn key_derivation_is_deterministic_and_distinct() {
        let a = SecretKey::derive(1, NodeId::Replica(ReplicaId(0)));
        let b = SecretKey::derive(1, NodeId::Replica(ReplicaId(0)));
        let c = SecretKey::derive(1, NodeId::Replica(ReplicaId(1)));
        let d = SecretKey::derive(2, NodeId::Replica(ReplicaId(0)));
        let e = SecretKey::derive(1, NodeId::Client(ClientId(0)));
        assert_eq!(a, b);
        assert_ne!(a.as_bytes(), c.as_bytes());
        assert_ne!(a.as_bytes(), d.as_bytes());
        assert_ne!(a.as_bytes(), e.as_bytes());
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let key = SecretKey::from_bytes([0xaa; KEY_LEN]);
        let rendered = format!("{key:?}");
        assert!(!rendered.contains("aa"));
    }

    #[test]
    fn signer_and_keystore_debug_print_no_key_or_midstate_bytes() {
        // The whole rendering is pinned, so nothing rides along: not the key
        // and not the SHA-256 states derived from it, in any base.
        let node = NodeId::Replica(ReplicaId(1));
        let signer = Signer::new(node, SecretKey::from_bytes([0xaa; KEY_LEN]));
        assert_eq!(
            format!("{signer:?}"),
            format!("Signer {{ node: {node:?}, key: HmacKey(…) }}")
        );
        let ks = KeyStore::generate(42, 1, 0);
        let only = NodeId::Replica(ReplicaId(0));
        assert_eq!(
            format!("{ks:?}"),
            format!("KeyStore {{ keys: {{{only:?}: HmacKey(…)}}, cluster_seed: 42 }}")
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::hmac::hmac_sha256;
    use proptest::prelude::*;

    proptest! {
        /// A signature verifies if and only if node, message and tag all
        /// match.
        #[test]
        fn verification_soundness(
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            tamper in any::<u8>(),
            idx in 0usize..256,
        ) {
            let ks = KeyStore::generate(7, 3, 1);
            let node = NodeId::Replica(ReplicaId(1));
            let signer = ks.signer_for(node).unwrap();
            let sig = signer.sign(&msg);
            prop_assert!(ks.verify(node, &msg, &sig));

            // Tampering with the message breaks verification.
            if !msg.is_empty() && tamper != 0 {
                let mut tampered = msg.clone();
                let i = idx % tampered.len();
                tampered[i] ^= tamper;
                prop_assert!(!ks.verify(node, &tampered, &sig));
            }

            // Tampering with the tag breaks verification.
            if tamper != 0 {
                let mut bytes = *sig.as_bytes();
                bytes[idx % KEY_LEN] ^= tamper;
                prop_assert!(!ks.verify(node, &msg, &Signature::from_bytes(bytes)));
            }
        }

        /// Signing and verifying from the cached midstates is the textbook
        /// HMAC under the node's secret key — for any key, and for two
        /// different messages MAC'd back to back with the one cached key (a
        /// midstate mutated instead of copied gets the second one wrong).
        #[test]
        fn cached_key_schedule_agrees_with_one_shot_hmac(
            key in proptest::collection::vec(any::<u8>(), KEY_LEN..KEY_LEN + 1),
            seed in any::<u64>(),
            first in proptest::collection::vec(any::<u8>(), 0..700),
            second in proptest::collection::vec(any::<u8>(), 0..700),
        ) {
            let key: [u8; KEY_LEN] = key.try_into().expect("KEY_LEN bytes");
            let node = NodeId::Replica(ReplicaId(2));
            let signer = Signer::new(node, SecretKey::from_bytes(key));
            for message in [&first, &second, &first] {
                prop_assert_eq!(signer.sign(message).as_bytes(), &hmac_sha256(&key, message));
            }

            let ks = KeyStore::generate(seed, 3, 1);
            let derived = SecretKey::derive(seed, node);
            for message in [&first, &second, &first] {
                let tag = Signature::from_bytes(hmac_sha256(derived.as_bytes(), message));
                prop_assert!(ks.verify(node, message, &tag));
                prop_assert_eq!(ks.signer_for(node).unwrap().sign(message), tag);
            }
        }
    }
}
