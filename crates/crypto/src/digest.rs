//! Message digests (`D(µ)` in the paper's notation).

use crate::sha256::{sha256, Sha256, OUTPUT_LEN};
use std::fmt;

/// A 32-byte SHA-256 digest of a message.
///
/// The paper uses digests to protect the integrity of a message and to refer
/// to a request compactly inside `PREPARE` / `ACCEPT` / `COMMIT` messages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; OUTPUT_LEN]);

impl Digest {
    /// The all-zero digest, used as a placeholder for "no request" (e.g. the
    /// genesis checkpoint).
    pub const ZERO: Digest = Digest([0u8; OUTPUT_LEN]);

    /// Digest of a raw byte string.
    pub fn of_bytes(data: &[u8]) -> Digest {
        Digest(sha256(data))
    }

    /// Digest of a sequence of labelled fields.
    ///
    /// Each field is absorbed as `len || bytes` so that field boundaries are
    /// unambiguous (no concatenation ambiguity between e.g. `("ab", "c")` and
    /// `("a", "bc")`).
    pub fn of_fields(fields: &[&[u8]]) -> Digest {
        let mut hasher = FieldHasher::new();
        for field in fields {
            hasher.field(field);
        }
        hasher.finish()
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; OUTPUT_LEN] {
        &self.0
    }

    /// Builds a digest from raw bytes (used when deserializing).
    pub fn from_bytes(bytes: [u8; OUTPUT_LEN]) -> Digest {
        Digest(bytes)
    }

    /// A short hexadecimal prefix, convenient for logging.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Full hexadecimal rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// [`Digest::of_fields`] one field at a time, for callers whose fields are
/// produced as they go and would otherwise be collected first.
#[derive(Debug, Clone, Default)]
pub struct FieldHasher(Sha256);

impl FieldHasher {
    /// A hasher with no fields absorbed.
    pub fn new() -> FieldHasher {
        FieldHasher::default()
    }

    /// Absorbs the next field as `len || bytes`.
    pub fn field(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    /// The digest of the fields absorbed so far, equal to
    /// [`Digest::of_fields`] over the same sequence.
    pub fn finish(self) -> Digest {
        Digest(self.0.finalize())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_bytes_matches_sha256() {
        assert_eq!(Digest::of_bytes(b"abc").as_bytes(), &sha256(b"abc"));
    }

    #[test]
    fn field_framing_prevents_concatenation_ambiguity() {
        let a = Digest::of_fields(&[b"ab", b"c"]);
        let b = Digest::of_fields(&[b"a", b"bc"]);
        let c = Digest::of_fields(&[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn zero_digest_is_default() {
        assert_eq!(Digest::default(), Digest::ZERO);
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
    }

    #[test]
    fn hex_renderings() {
        let d = Digest::of_bytes(b"abc");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(d.short_hex().len(), 8);
        assert!(d.to_hex().starts_with(&d.short_hex()));
        assert_eq!(format!("{d}"), d.short_hex());
        assert!(format!("{d:?}").contains(&d.short_hex()));
    }

    #[test]
    fn from_bytes_round_trip() {
        let d = Digest::of_bytes(b"round-trip");
        assert_eq!(Digest::from_bytes(*d.as_bytes()), d);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Field digests are injective over field boundaries for the inputs
        /// we can enumerate cheaply.
        #[test]
        fn distinct_field_splits_distinct_digests(
            data in proptest::collection::vec(any::<u8>(), 2..64),
            split_a in 1usize..63,
            split_b in 1usize..63,
        ) {
            let a = split_a % data.len();
            let b = split_b % data.len();
            prop_assume!(a != b && a > 0 && b > 0);
            let da = Digest::of_fields(&[&data[..a], &data[a..]]);
            let db = Digest::of_fields(&[&data[..b], &data[b..]]);
            prop_assert_ne!(da, db);
        }
    }
}
