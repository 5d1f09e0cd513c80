//! Baseline protocols used by the paper's evaluation, implemented on the
//! same sans-IO substrate as SeeMoRe so that comparisons isolate protocol
//! differences only:
//!
//! * [`CftReplica`] — a crash fault-tolerant, Multi-Paxos-style protocol
//!   (the paper's "CFT" line, BFT-SMaRt's Paxos configuration): `2f + 1`
//!   replicas, two phases, linear messages, no signatures.
//! * [`BftReplica`] — a PBFT-style protocol (the paper's "BFT" line):
//!   `3f + 1` replicas, three phases, quadratic messages, signed votes.
//! * [`s_upright`] — the simplified UpRight configuration ("S-UpRight"):
//!   the same PBFT-style agreement run over the hybrid network of
//!   `3m + 2c + 1` replicas with `2m + c + 1` quorums, exactly as the
//!   evaluation section describes.
//!
//! All three implement [`ReplicaProtocol`](seemore_core::ReplicaProtocol)
//! and are driven by the same runtimes, workloads and benchmarks as SeeMoRe.
//! Their clients are SeeMoRe's [`ClientCore`](seemore_core::ClientCore)
//! under [`BaselineConfig`]'s
//! [`ReplyPolicy`](seemore_core::client::ReplyPolicy); [`BaselineClient`]
//! builds one.
//!
//! Both replica structs own a
//! [`ReplicaChassis`](seemore_core::chassis::ReplicaChassis) — the same one
//! the SeeMoRe replica owns — for everything around agreement: the outgoing
//! path and its WAL rule, batch admission, execution with its replies,
//! checkpoint announcement and persistence, the read fast path, restart and
//! rejoin. What is written here is what the paper says differs: phases and
//! quorums, view change, who replies and who may serve reads (a
//! [`Duties`](seemore_core::chassis::Duties) and a
//! [`ReadRule`](seemore_core::reads::ReadRule) value), and whose state
//! response a rejoining replica believes (the first under CFT, `f + 1`
//! matching under BFT / S-UpRight). [`CftReplica`] has no
//! [`SigningContext`](seemore_core::chassis::SigningContext): the crash-only
//! line pays no cryptography.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bft;
pub mod cft;
pub mod client;
pub mod config;

pub use bft::BftReplica;
pub use cft::CftReplica;
pub use client::BaselineClient;
pub use config::{s_upright, BaselineConfig};
