//! SeeMoRe — a hybrid fault-tolerant State Machine Replication protocol for
//! public/private cloud environments.
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`types`] — identifiers, cluster configuration, quorum math and the
//!   public-cloud sizing planner.
//! * [`crypto`] — digests and (simulated) signatures.
//! * [`wire`] — the protocol's message types, the unit of ordering
//!   ([`wire::Batch`]), and the real binary codec ([`wire::codec`]) whose
//!   encoded lengths the [`wire::WireSize`] model is contractually equal to.
//! * [`net`] — the network substrate: latency/CPU/fault models for the
//!   simulator, plus a real loopback TCP transport ([`net::reactor`]) behind
//!   the [`net::Transport`] seam.
//! * [`app`] — the replicated application layer (state machine trait and a
//!   key-value store).
//! * [`store`] — durable replica state: a segmented, CRC-framed write-ahead
//!   log plus checkpoint snapshots behind the narrow [`store::Durability`]
//!   seam every core holds (a no-op null store by default), powering
//!   crash-recover-rejoin ([`runtime::Scenario::with_crash_recover`]).
//! * [`core`] — the SeeMoRe protocol itself: Lion, Dog and Peacock modes,
//!   view changes, checkpointing, dynamic mode switching and request
//!   batching.
//! * [`baselines`] — CFT (Multi-Paxos-like), BFT (PBFT) and S-UpRight
//!   baselines used by the paper's evaluation.
//! * [`runtime`] — the two execution substrates (discrete-event
//!   simulator and socket-backed runtime — see the `seemore_runtime` crate
//!   docs for when to use each), workload generation, failure schedules and
//!   metrics.
//!
//! # Batched agreement
//!
//! Agreement orders [`wire::Batch`]es — ordered, non-empty sequences of
//! client requests that share one sequence number and one combined digest —
//! rather than individual requests. A primary accumulates pending requests
//! under a [`core::config::BatchPolicy`], executed by the shared
//! [`core::batching::AdaptiveBatcher`] controller:
//!
//! * **static** ([`core::batching::BatchConfig`]) — the classic two knobs:
//!   a batch is proposed as soon as `max_batch` requests are buffered (the
//!   size trigger) or `max_delay` after the first request entered the empty
//!   buffer (the latency trigger);
//! * **adaptive** ([`core::batching::AdaptiveBatchConfig`]) — an AIMD
//!   controller that grows the effective cap toward a configured ceiling
//!   while slots are in flight at cut time (the system is saturated) and
//!   decays it toward 1 when batches are cut partial with nothing in flight
//!   (the system is idle), shortening the flush delay as the cap grows.
//!   `max_delay` stays the hard bound on how long any request may wait, and
//!   the sizes the controller actually chose are reported in
//!   [`runtime::RunReport::batching`].
//!
//! One slot of quorum traffic (proposal broadcast, vote round, commit) then
//! orders every request in the batch, so per-request agreement cost falls
//! roughly by the batch size — the standard throughput lever of leader-based
//! replication. Replicas commit and execute batches atomically (all member
//! requests, in batch order, or none) while still recording one
//! [`core::exec::ExecutedEntry`] per request and replying to every client
//! individually, so per-request safety properties stay directly checkable.
//!
//! The batch-flush timer is generation-tagged
//! ([`core::actions::Timer::BatchFlush`]): a size-trigger cut invalidates
//! the armed generation, so a stale timer expiration can never truncate the
//! next buffer's delay.
//!
//! With an effective cap of 1 (the default) the flush timer is never armed
//! and the protocol reproduces unbatched one-request-per-slot agreement
//! exactly — bit-for-bit identical executed histories for a fixed simulator
//! seed. The policy is surfaced per-replica through
//! [`core::config::ProtocolConfig::batch`] and per-experiment through
//! [`runtime::Scenario::with_batching`] /
//! [`runtime::Scenario::with_adaptive_batching`], and applies to all three
//! SeeMoRe modes *and* the baselines so Table-1-style comparisons remain
//! apples-to-apples.

#![deny(rustdoc::broken_intra_doc_links)]

pub use seemore_app as app;
pub use seemore_baselines as baselines;
pub use seemore_core as core;
pub use seemore_crypto as crypto;
pub use seemore_net as net;
pub use seemore_runtime as runtime;
pub use seemore_store as store;
pub use seemore_telemetry as telemetry;
pub use seemore_types as types;
pub use seemore_wire as wire;
