//! Cryptographic substrate for the SeeMoRe reproduction.
//!
//! The paper assumes standard cryptographic primitives: collision-resistant
//! message digests to protect message integrity, and signatures that a
//! Byzantine replica cannot forge on behalf of a correct replica
//! (Section 3.1). This crate provides both, implemented from scratch so that
//! the workspace has no external cryptography dependencies:
//!
//! * [`mod@sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4),
//!   validated against the standard test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / RFC 4231).
//! * [`Digest`] — a 32-byte message digest.
//! * [`KeyStore`] / [`SecretKey`] / [`Signature`] — *simulated* digital
//!   signatures: each node holds a secret HMAC key and every node can verify
//!   any signature through a shared [`KeyStore`].
//!
//! ## Why simulated signatures are sound here
//!
//! The protocol only relies on two properties of signatures: (1) a Byzantine
//! replica cannot produce a valid signature of another replica, and (2) every
//! replica and client can verify every signature. In this reproduction the
//! Byzantine fault injectors are never handed other nodes' secret keys, so
//! property (1) holds inside the simulation exactly as it would with
//! public-key signatures, while the shared [`KeyStore`] provides property
//! (2). The CPU cost of signing/verifying (an HMAC over the message) is also
//! paid on every code path the paper pays it on, which is what matters for
//! the performance model. This substitution is also summarised in the
//! repository's `README.md`.
//!
//! ## Hot path
//!
//! Signing and verification dominate BFT-lineage throughput profiles (PBFT
//! and Zyzzyva both report MAC/signature work as the top CPU consumer), so
//! the two repeated costs around the HMAC itself are engineered away:
//!
//! * **Allocation**: the canonical signing bytes of a message are built
//!   through `SignedPayload::signing_bytes_into` into a per-replica scratch
//!   buffer (`seemore_wire::SigningScratch`), so the classic
//!   `sign(&m.signing_bytes())` pattern stops allocating a `Vec` per
//!   signature — steady state performs zero allocations per sign/verify.
//! * **Repeat verification**: [`VerifyCache`] is a bounded memo of
//!   already-verified signatures keyed by `(sender, message digest)`.
//!   Duplicate deliveries (client retransmissions, votes arriving through
//!   multiple paths) and quorum-certificate re-checks skip the second HMAC.
//!   The memo is accept-side only and never disagrees with plain
//!   [`KeyStore::verify`] — inserts happen only after a successful plain
//!   verification, hits additionally require a byte-identical signature,
//!   and mismatches fall through to the full check (see [`memo`] for the
//!   complete soundness argument and the property test backing it).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod digest;
pub mod hmac;
pub mod keys;
pub mod memo;
pub mod sha256;

pub use digest::Digest;
pub use hmac::hmac_sha256;
pub use keys::{KeyStore, SecretKey, Signature, Signer};
pub use memo::VerifyCache;
pub use sha256::{sha256, Sha256};
