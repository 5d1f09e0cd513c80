//! Replicated application layer.
//!
//! SeeMoRe (like every State Machine Replication protocol) is agnostic to
//! the service being replicated: replicas agree on an order for opaque
//! operations and each replica applies them to a local copy of the service
//! state. This crate supplies:
//!
//! * [`StateMachine`] — the deterministic-execution contract replicas drive,
//! * [`KvStore`] — a deterministic key-value store used by the examples and
//!   integration tests,
//! * [`NoopApp`] — the micro-benchmark application of the paper's
//!   evaluation (0/0, 0/4 and 4/0 payload configurations), which executes
//!   nothing but returns replies of a configurable size,
//! * [`kv::KvOp`] / [`kv::KvResult`] — a tiny self-describing binary
//!   encoding for operations and results, so that requests are plain byte
//!   strings on the wire exactly as the protocol expects.
//!
//! # The key-value store's state digest
//!
//! Checkpoint announcers call [`StateMachine::state_digest`] on the commit
//! path, so [`KvStore`] keeps its digest incrementally, as the root of a
//! Merkle tree over hash buckets:
//!
//! * A key lives in bucket `FNV-1a(key) mod 2^14`. The 16 384 bucket ids are
//!   fixed — replicas can only compare digests over one tree shape — but only
//!   non-empty buckets are stored, 64 ids to a group with an occupancy mask,
//!   each with its entries in key order and the SHA-256 of those entries.
//! * A bucket's entries are one byte slab, each entry `[key len u64][key]
//!   [value len u64][value]`, which is exactly what the bucket's hash reads
//!   after its tag and entry count: re-hashing a bucket is one SHA-256 pass
//!   over its slab.
//! * Above the buckets is a dense tree of fan-out 16 (1024, 64, 4 nodes and
//!   the root; 35 KB). A node hashes the occupancy mask and the hashes of its
//!   non-empty children; a node with none has the fixed all-zero hash, so an
//!   empty store needs no hashing to be consistent and an emptied region
//!   hashes like one never written. The digest is the root bound to the key
//!   count. With the group table and the dirty bits, a store's fixed cost is
//!   about 45 KB; the rest follows the buckets it fills.
//! * `Put`, `Delete`, `Append` and `restore` set their bucket's dirty bit and
//!   hash nothing. `state_digest` re-hashes the dirty buckets and the nodes
//!   above them and remembers the result until the next write.
//!   [`KvStore::digest_stats`] counts that work. On 40 000 keys of 128 B a
//!   digest after 360 scattered writes hashes 0.39 MB where a full pass
//!   hashes 5.9 MB; the first digest of a store, or the one after a restore,
//!   is the full pass.
//!
//! **Why a Merkle tree and not a sum.** An incremental digest can also be had
//! by adding or XOR-ing one hash per entry. At 256 bits that is not collision
//! resistant: Wagner's generalized-birthday attack finds a set of entries
//! whose hashes sum to a chosen value in roughly 2^(256 / (1 + log2 k)) work
//! for `k` lists, far below 2^128. The digest is what lets a replica accept a
//! snapshot from an untrusted peer because `m + 1` checkpoints vouch for its
//! hash, so a Byzantine proxy must not be able to fit a fabricated state to
//! an honest digest. Every step here is SHA-256 over an injective encoding,
//! at a fixed position in the tree.
//!
//! **Memory and lookup.** A key costs its slab entry (16 B of length fields
//! plus its bytes) and a share of its bucket's 64 B header: on 40 000 keys of
//! 11 B with 128 B values, 182 B of live heap per key and one allocation per
//! bucket (0.38 per key), where an entry of two `Vec`s in a vector per bucket
//! took 212 B and 2.38 allocations (`tests/kv_memory.rs` counts them exactly
//! and bounds a store below the older layout's figures). Buckets hold about
//! 2.4 keys at that size, so a lookup walks the slab from its start,
//! comparing keys in order. Entries of varying length cannot be bisected
//! without an index of their offsets, another allocation per bucket that
//! would save nothing over a walk of two or three entries through one
//! contiguous run of bytes. A same-length `Put` overwrites the value in
//! place; a new key, a resized value, `Append` and `Delete` splice the slab,
//! which is reallocated to its exact length (slack in 15 000 small slabs
//! would strand more memory than the entries use).
//!
//! **What it costs elsewhere.** Placement by hash gives up key order: the
//! snapshot, which stays in key order byte for byte, sorts its entries. FNV-1a
//! is unkeyed, so a client can craft keys that share a bucket. Every
//! operation on such a bucket of `n` keys is then linear in its bytes: a
//! lookup walks up to `n` entries, and a write that changes the slab's length
//! copies the whole slab, so filling it costs `O(n^2)` bytes copied. Each
//! digest after a write re-hashes the whole bucket too. A bucket is still
//! never more than the full pass every digest used to be, and only the
//! crowded bucket pays: other keys keep their ~2.4-entry buckets.
//!
//! **Compatibility.** The digest *value* differs from builds that hashed the
//! whole map in key order, so the replicas of one cluster must run one build.
//! Stores written by earlier builds stay readable: the snapshot format is
//! unchanged, and a durable checkpoint's digest is carried as recorded, not
//! re-derived from its snapshot on load.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod kv;
pub mod noop;
pub mod state_machine;

pub use kv::{DigestStats, KvOp, KvResult, KvStore};
pub use noop::NoopApp;
pub use state_machine::StateMachine;
