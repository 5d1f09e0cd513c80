//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! `HMAC(K, m) = H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`: both hashes start with
//! one block that depends on the key alone. [`HmacKey`] compresses those two
//! blocks once and keeps the resulting SHA-256 states, so every MAC under
//! the key starts from a copy of them.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, OUTPUT_LEN};
use std::fmt;

/// An HMAC-SHA-256 key with its key schedule done: the SHA-256 states after
/// the ipad block and after the opad block.
///
/// The two states are equivalent to the key — whoever holds them can MAC
/// under it — so `Debug` prints nothing of them and the type is not
/// serializable.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Runs the key schedule for `key`.
    ///
    /// Keys longer than the 64-byte SHA-256 block are first hashed, as
    /// required by RFC 2104; shorter keys are zero-padded.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..OUTPUT_LEN].copy_from_slice(&sha256(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let keyed_state = |pad: u8| {
            let mut hasher = Sha256::new();
            hasher.update(&block_key.map(|byte| byte ^ pad));
            hasher
        };
        HmacKey {
            inner: keyed_state(0x36),
            outer: keyed_state(0x5c),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; OUTPUT_LEN] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material, and the midstates are key material.
        write!(f, "HmacKey(…)")
    }
}

/// Computes `HMAC-SHA256(key, message)` for a key used once; callers that
/// MAC repeatedly under one key hold an [`HmacKey`].
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; OUTPUT_LEN] {
    HmacKey::new(key).mac(message)
}

/// Constant-time comparison of two byte strings of equal length.
///
/// Returns `false` if the lengths differ. Used when verifying signatures so
/// that (even inside the simulation) verification does not leak how many
/// prefix bytes matched.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Asserts an RFC 4231 answer through the one-shot function and through
    /// one [`HmacKey`] used twice with another message in between — the
    /// second use fails if a MAC disturbs the cached midstates.
    fn assert_vector(key: &[u8], data: &[u8], expected: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), expected, "one-shot");
        let keyed = HmacKey::new(key);
        assert_eq!(hex(&keyed.mac(data)), expected, "keyed, first use");
        assert_ne!(hex(&keyed.mac(b"something else")), expected);
        assert_eq!(hex(&keyed.mac(data)), expected, "keyed, reused");
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        assert_vector(
            &[0x0bu8; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    // RFC 4231 test case 2: "Jefe" / "what do ya want for nothing?".
    #[test]
    fn rfc4231_case_2() {
        assert_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case_3() {
        assert_vector(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        assert_vector(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // RFC 4231 test case 7: long key and long data.
    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        assert_vector(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn different_keys_give_different_tags() {
        let tag_a = hmac_sha256(b"key-a", b"message");
        let tag_b = hmac_sha256(b"key-b", b"message");
        assert_ne!(tag_a, tag_b);
    }

    #[test]
    fn different_messages_give_different_tags() {
        let tag_a = hmac_sha256(b"key", b"message-1");
        let tag_b = hmac_sha256(b"key", b"message-2");
        assert_ne!(tag_a, tag_b);
    }

    #[test]
    fn constant_time_eq_behaviour() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// HMAC is deterministic and key-sensitive.
        #[test]
        fn deterministic_and_key_sensitive(
            key in proptest::collection::vec(any::<u8>(), 1..128),
            msg in proptest::collection::vec(any::<u8>(), 0..512),
            flip in 0usize..128,
        ) {
            let tag = hmac_sha256(&key, &msg);
            prop_assert_eq!(tag, hmac_sha256(&key, &msg));

            let mut other_key = key.clone();
            let idx = flip % other_key.len();
            other_key[idx] ^= 0x01;
            prop_assert_ne!(tag, hmac_sha256(&other_key, &msg));
        }

        /// constant_time_eq agrees with ordinary equality.
        #[test]
        fn constant_time_eq_matches_eq(
            a in proptest::collection::vec(any::<u8>(), 0..64),
            b in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assert_eq!(constant_time_eq(&a, &b), a == b);
        }
    }
}
