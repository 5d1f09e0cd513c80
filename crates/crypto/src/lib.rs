//! Cryptographic substrate for the SeeMoRe reproduction.
//!
//! The paper assumes standard cryptographic primitives: collision-resistant
//! message digests to protect message integrity, and signatures that a
//! Byzantine replica cannot forge on behalf of a correct replica
//! (Section 3.1). This crate provides both, implemented from scratch so that
//! the workspace has no external cryptography dependencies:
//!
//! * [`mod@sha256`] — a from-scratch SHA-256 implementation (FIPS 180-4)
//!   with a portable and a SHA-NI compression function chosen by the CPU at
//!   run time, validated against the standard test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / RFC 4231), keyed once per
//!   [`HmacKey`].
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
//! the hash itself is fast and the repeated costs around it are engineered
//! away:
//!
//! * **Compression**: every digest and tag in the workspace — request and
//!   batch digests, HMAC tags, the key-value store's Merkle digest — ends
//!   in one private `compress_blocks` in [`mod@sha256`], which walks whole
//!   blocks in the caller's slice without copying them. On an x86-64 CPU
//!   whose `sha`, `ssse3` and `sse4.1` bits `is_x86_feature_detected!`
//!   finds at run time it runs the SHA extensions (about 1.3 GB/s on the
//!   2.1 GHz Xeon the benchmark runs on); on every other CPU it runs the
//!   portable scalar code (about 230 MB/s there), which is also the oracle
//!   the tests hold the fast path to. The outputs are bit-identical and
//!   nothing but the CPU selects between them.
//! * **The one `unsafe` module**: `sha256::sha_ni` is the only place in
//!   the crate with `unsafe`, and its entry point is a safe function. The
//!   `#[target_feature]` function is only called after the feature check in
//!   that same function succeeded; its unaligned loads and stores take their
//!   pointers from `chunks_exact` slices and fixed-size arrays, so each
//!   covers exactly the 16 bytes it touches. The crate denies
//!   `clippy::undocumented_unsafe_blocks` and `unsafe_op_in_unsafe_fn`, so a
//!   block without its `// SAFETY:` argument fails CI.
//! * **Key schedule**: an HMAC hashes one key-dependent block before the
//!   message and another before the inner digest. [`HmacKey`] compresses
//!   both once per key — at [`Signer::new`] and [`KeyStore::generate`] —
//!   and `sign` / `verify` copy the two states. That is 2 of the ~6
//!   compressions of a MAC over a 168-byte vote frame, and 2 of 66 over a
//!   4 KB request: it matters for votes and is invisible for payloads,
//!   where the compression function is the whole cost.
//! * **Allocation**: the canonical signing bytes of a message are built
//!   through `SignedPayload::signing_bytes_into` into a per-replica scratch
//!   buffer (`seemore_wire::SigningScratch`), so the classic
//!   `sign(&m.signing_bytes())` pattern stops allocating a `Vec` per
//!   signature — steady state performs zero allocations per sign/verify.
//! * **Repeat verification**: [`VerifyCache`] is a bounded memo of
//!   already-verified signatures keyed by `(sender, message digest)`.
//!   Duplicate deliveries (client retransmissions, votes arriving through
//!   multiple paths) and quorum-certificate re-checks skip the keyed hash.
//!   A hit still hashes the whole signed message to form its key, so with
//!   the key schedule cached it saves only the outer hash's two
//!   compressions, and a miss pays that digest on top of the full
//!   verification. Every signed message is short: a client request is
//!   signed over its header and its digest, not its operation.
//!   The memo is accept-side only and never disagrees with plain
//!   [`KeyStore::verify`] — inserts happen only after a successful plain
//!   verification, hits additionally require a byte-identical signature,
//!   and mismatches fall through to the full check (see [`memo`] for the
//!   complete soundness argument and the property test backing it).

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod digest;
pub mod hmac;
pub mod keys;
pub mod memo;
pub mod sha256;

pub use digest::{Digest, FieldHasher};
pub use hmac::{hmac_sha256, HmacKey};
pub use keys::{KeyStore, SecretKey, Signature, Signer};
pub use memo::VerifyCache;
pub use sha256::{sha256, sha256_portable, Sha256};
