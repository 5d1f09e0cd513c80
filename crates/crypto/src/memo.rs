//! A bounded memo of already-verified signatures.
//!
//! BFT-lineage protocols re-verify the same bytes surprisingly often: client
//! retransmissions redeliver identical signed requests, a lagging replica
//! receives the same vote through more than one path, and view-change /
//! state-transfer handling re-checks quorum-certificate signatures that the
//! normal case already verified.
//! Each of those re-checks is an HMAC over the signed bytes; [`VerifyCache`]
//! turns the repeat into a digest of the same bytes plus a hash-map probe.
//! With the HMAC key schedule cached that saves the outer hash's two
//! compressions, whatever the message's length. The signed bytes are
//! short for every message: a vote's header, or a client request's header
//! and its stored digest (about 80 B, whatever the size of its operation).
//!
//! # Soundness
//!
//! The memo may only ever *agree* with [`KeyStore::verify`]; it must never
//! accept a `(node, message, signature)` triple that plain verification
//! rejects. Two properties guarantee this:
//!
//! 1. Entries are inserted only after a successful plain verification, keyed
//!    by `(node, D(message))` with the verified signature stored as the
//!    value, where `D` is the collision-resistant [`Digest`]. A later lookup
//!    hits only if the node matches, the message digests to the same value
//!    (so, modulo a SHA-256 collision, *is* the same bytes) and the
//!    presented signature equals the stored one byte-for-byte.
//! 2. A lookup whose stored signature differs from the presented one does
//!    **not** reject; it falls through to plain verification. The memo is an
//!    accept-side shortcut only, so a scheme with more than one valid
//!    signature per message (unlike HMAC) would still verify correctly.
//!
//! Rejections are deliberately *not* memoized: a negative cache keyed by
//! attacker-controlled bytes would let a Byzantine peer churn the map and
//! evict the useful entries for free.
//!
//! # Bounding
//!
//! The map is bounded by a two-generation scheme: inserts go to the current
//! generation, lookups probe both, and when the current generation reaches
//! `capacity` entries it becomes the previous one (which is dropped). Every
//! entry therefore survives between `capacity` and `2 * capacity` inserts —
//! recently verified signatures stay hot, memory is capped, and there is no
//! per-entry LRU bookkeeping on the fast path.

use crate::digest::Digest;
use crate::keys::{KeyStore, Signature};
use seemore_types::NodeId;
use std::collections::HashMap;

/// Default number of entries per generation (a full generation of 72-byte
/// keys plus 32-byte signatures is on the order of 100 KiB per replica).
pub const DEFAULT_VERIFY_CACHE_CAPACITY: usize = 1024;

/// A bounded `(sender, message-digest) → verified signature` memo in front
/// of [`KeyStore::verify`]. See the [module docs](self) for the soundness
/// argument and the bounding scheme.
#[derive(Debug, Clone)]
pub struct VerifyCache {
    current: HashMap<(NodeId, Digest), Signature>,
    previous: HashMap<(NodeId, Digest), Signature>,
    capacity: usize,
    hits: u64,
    lookups: u64,
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::new(DEFAULT_VERIFY_CACHE_CAPACITY)
    }
}

impl VerifyCache {
    /// A cache holding up to `capacity` entries per generation (at most
    /// `2 * capacity` in total). A zero capacity disables memoization
    /// entirely — every call is a plain verification.
    pub fn new(capacity: usize) -> VerifyCache {
        VerifyCache {
            current: HashMap::with_capacity(capacity.min(DEFAULT_VERIFY_CACHE_CAPACITY)),
            previous: HashMap::new(),
            capacity,
            hits: 0,
            lookups: 0,
        }
    }

    /// Memoized [`KeyStore::verify`]: returns exactly what plain
    /// verification would, skipping the HMAC when this `(node, message,
    /// signature)` triple was already verified recently.
    pub fn verify(
        &mut self,
        keystore: &KeyStore,
        node: NodeId,
        message: &[u8],
        signature: &Signature,
    ) -> bool {
        if self.capacity == 0 {
            return keystore.verify(node, message, signature);
        }
        self.lookups += 1;
        let key = (node, Digest::of_bytes(message));
        if let Some(seen) = self.current.get(&key).or_else(|| self.previous.get(&key)) {
            if seen == signature {
                self.hits += 1;
                return true;
            }
            // A different signature for known bytes falls through to the
            // plain check — the memo never turns into a rejector.
        }
        if keystore.verify(node, message, signature) {
            self.insert(key, *signature);
            true
        } else {
            false
        }
    }

    /// Entries currently memoized (both generations).
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the memo (no HMAC performed).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total memoized-verify calls (with a non-zero capacity).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    fn insert(&mut self, key: (NodeId, Digest), signature: Signature) {
        if self.current.len() >= self.capacity {
            self.previous = std::mem::take(&mut self.current);
        }
        self.current.insert(key, signature);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::ReplicaId;

    fn store() -> KeyStore {
        KeyStore::generate(11, 3, 1)
    }

    #[test]
    fn hits_skip_the_hmac_and_agree_with_plain_verify() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(1));
        let signer = ks.signer_for(node).unwrap();
        let sig = signer.sign(b"vote v1 n4");
        let mut memo = VerifyCache::new(64);

        assert!(memo.verify(&ks, node, b"vote v1 n4", &sig));
        assert_eq!(memo.hits(), 0, "first check is a miss");
        assert!(memo.verify(&ks, node, b"vote v1 n4", &sig));
        assert_eq!(memo.hits(), 1, "duplicate delivery hits the memo");
        assert_eq!(memo.lookups(), 2);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn cached_bytes_with_a_wrong_signature_are_still_rejected() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(0));
        let signer = ks.signer_for(node).unwrap();
        let sig = signer.sign(b"message");
        let mut memo = VerifyCache::new(64);
        assert!(memo.verify(&ks, node, b"message", &sig));

        // Same bytes, tampered tag: the memo must fall through and reject.
        let mut bad = *sig.as_bytes();
        bad[0] ^= 0xFF;
        assert!(!memo.verify(&ks, node, b"message", &Signature::from_bytes(bad)));
        // Same bytes, another node's valid tag: rejected too.
        let other = NodeId::Replica(ReplicaId(2));
        let other_sig = ks.signer_for(other).unwrap().sign(b"message");
        assert!(!memo.verify(&ks, node, b"message", &other_sig));
        assert!(memo.verify(&ks, other, b"message", &other_sig));
    }

    #[test]
    fn capacity_bounds_the_memo_across_generations() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(0));
        let signer = ks.signer_for(node).unwrap();
        let mut memo = VerifyCache::new(8);
        for i in 0..100u32 {
            let message = i.to_le_bytes();
            let sig = signer.sign(&message);
            assert!(memo.verify(&ks, node, &message, &sig));
            assert!(memo.len() <= 16, "two generations of 8");
        }
        // The most recent entry is still hot.
        let sig = signer.sign(&99u32.to_le_bytes());
        let hits = memo.hits();
        assert!(memo.verify(&ks, node, &99u32.to_le_bytes(), &sig));
        assert_eq!(memo.hits(), hits + 1);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(0));
        let signer = ks.signer_for(node).unwrap();
        let sig = signer.sign(b"m");
        let mut memo = VerifyCache::new(0);
        assert!(memo.verify(&ks, node, b"m", &sig));
        assert!(memo.verify(&ks, node, b"m", &sig));
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.lookups(), 0);
        assert!(memo.is_empty());
    }

    #[test]
    fn rejections_are_not_cached() {
        let ks = store();
        let node = NodeId::Replica(ReplicaId(0));
        let mut memo = VerifyCache::new(8);
        for i in 0..100u32 {
            assert!(!memo.verify(&ks, node, &i.to_le_bytes(), &Signature::INVALID));
        }
        assert!(memo.is_empty(), "garbage must not churn the memo");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use seemore_types::ReplicaId;

    proptest! {
        /// The acceptance property of the issue: memoized verify is
        /// *extensionally equal* to plain verify — on every call of a long,
        /// adversarial interleaving of repeats, tampered tags, tampered
        /// bytes and cross-node replays, both return the same bool (so the
        /// memo can never accept what plain verification rejects, nor the
        /// reverse).
        #[test]
        fn memoized_verify_equals_plain_verify(
            seeds in proptest::collection::vec(
                (0u8..3, 0u8..4, any::<u8>(), any::<bool>(), any::<bool>()),
                1..200,
            ),
            capacity in 0usize..16,
        ) {
            let ks = KeyStore::generate(31, 3, 0);
            let mut memo = VerifyCache::new(capacity);
            for (node_index, message_index, tamper, corrupt_sig, cross_node) in seeds {
                let node = NodeId::Replica(ReplicaId(u32::from(node_index)));
                let message = [b'm', message_index, tamper & 0x3];
                let honest_signer = ks.signer_for(node).unwrap();
                let mut sig = if cross_node {
                    // A valid signature of a *different* node over the same
                    // bytes (the splice attack the memo key must resist).
                    let other = NodeId::Replica(ReplicaId(u32::from((node_index + 1) % 3)));
                    ks.signer_for(other).unwrap().sign(&message)
                } else {
                    honest_signer.sign(&message)
                };
                if corrupt_sig && tamper != 0 {
                    let mut bytes = *sig.as_bytes();
                    bytes[usize::from(tamper) % bytes.len()] ^= tamper;
                    sig = Signature::from_bytes(bytes);
                }
                let plain = ks.verify(node, &message, &sig);
                let memoized = memo.verify(&ks, node, &message, &sig);
                prop_assert_eq!(memoized, plain);
            }
        }
    }
}
