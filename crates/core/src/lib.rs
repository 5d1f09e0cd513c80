//! The SeeMoRe protocol: hybrid crash/Byzantine State Machine Replication
//! for public/private cloud environments.
//!
//! This crate contains the paper's primary contribution:
//!
//! * [`replica::SeeMoReReplica`] — a replica implementing the **Lion**,
//!   **Dog** and **Peacock** modes (Sections 5.1–5.3), including
//!   checkpointing, garbage collection, state transfer, per-mode view
//!   changes and dynamic mode switching (Section 5.4).
//! * [`chassis::ReplicaChassis`] — the protocol-independent half of a
//!   replica, owned as a plain field by `SeeMoReReplica` and by the CFT and
//!   BFT baselines alike: identity and tracing, the log / execution /
//!   checkpoint state, the outgoing path with its vote-before-send WAL
//!   rule, batch admission, execution with its replies and checkpoint
//!   announcements, the read fast path ([`reads`]), the view change
//!   ([`view_change`]), durable restart and the rejoin exchange — plus
//!   [`chassis::SigningContext`] for the replicas that sign. What the paper
//!   says differs between the protocols (phases, quorums, who collects a
//!   view change, who replies and who may serve reads, whose state is
//!   trusted) stays in the replica structs and reaches the chassis as
//!   values ([`chassis::Duties`], [`reads::ReadRule`],
//!   [`view_change::ViewChangeRules`]).
//! * [`client::ClientCore`] — the one client, for SeeMoRe and the
//!   baselines alike: request submission, reply quorums, retransmission
//!   and the read fast path. What differs between the protocols' clients
//!   (who is primary, which repliers are trusted, how many matching replies
//!   complete a request) is a [`client::ReplyPolicy`], implemented by
//!   [`ClusterConfig`](seemore_types::ClusterConfig) here and by the
//!   baselines' configuration there.
//! * [`batching`] — the request-batching controller: primaries order
//!   [`Batch`]es of requests (one sequence number, one quorum round per
//!   batch) under a [`config::BatchPolicy`] — either the
//!   static `max_batch` / `max_delay` knobs or the adaptive AIMD
//!   controller that sizes batches from observed load.
//! * [`byzantine`] — Byzantine behaviour wrappers used by the tests and the
//!   evaluation harness to inject equivocation, silence and signature
//!   corruption into public-cloud replicas.
//! * [`profile`] — the analytical cost model behind Table 1.
//!
//! # The read-only fast path
//!
//! Operations carry a read/write classification
//! ([`OpClass`](seemore_types::OpClass)); writes are batched, sequenced and
//! executed through full agreement, while reads are served from a replica's
//! executed state under a mode-aware freshness rule — the single biggest
//! win for real (read-heavy) workloads, in the lineage of PBFT's read-only
//! optimization:
//!
//! * **Lion / Dog — trusted-primary lease reads.** Only the current trusted
//!   primary serves reads, and only while it holds a *commit-index lease*:
//!   whenever a slot this primary proposed commits with quorum evidence (a
//!   Lion accept quorum, a Dog inform quorum), the lease is extended to
//!   `propose_time + τ` — anchored at the **send time of the proposal**,
//!   never at the arrival time of the evidence, because a delayed ACCEPT or
//!   INFORM could otherwise revive a deposed primary's lease after its
//!   successor has already committed. Replicas arm their suspicion timers
//!   no earlier than the proposal's send and wait out `τ` of silence before
//!   voting to depose, so every lease expires before a successor elected
//!   behind this primary's back can commit a conflicting write; a freshly
//!   installed primary starts lease-less and earns one from its first
//!   committed slot. Each read is additionally *fenced* at the primary's
//!   proposal frontier: it is served only once `last_executed` covers every
//!   slot the primary had proposed when the read arrived. The fence is what
//!   makes Dog reads linearizable — Dog proxies may acknowledge a write to
//!   its client before the primary's INFORM-driven execution catches up,
//!   and the fence forces the read to wait for exactly that prefix.
//! * **Peacock — quorum reads behind a prepared fence.** The primary is
//!   untrusted, so no single reply can be believed: every proxy answers
//!   from its executed state and the client accepts only `2m + 1`
//!   *matching* replies. Matching alone is not freshness, though — the
//!   write path acknowledges on `m + 1` matching replies, so `m` Byzantine
//!   proxies plus honest laggards could assemble a matching *stale* quorum
//!   against an already-acknowledged write. Each proxy therefore serves
//!   reads only once every slot it has **prepared** is executed (the
//!   prepared fence): an acknowledged write's commit quorum contains at
//!   least `m + 1` honest prepared proxies, so behind the fence at most `m`
//!   honest proxies can still answer with the pre-write value — not enough,
//!   together with `m` Byzantine ones, to reach `2m + 1`. A concurrent
//!   write to the same key makes replies mismatch, and the read falls
//!   back.
//!
//! Like every lease scheme (Raft leader leases, Spanner), the
//! trusted-primary lease is a *real-time* mechanism: it is sound under the
//! same bounded-delay assumption the suspicion timers already encode —
//! that a forwarded request reaches the primary within the suspicion
//! timeout's margin (the batching delay a request may additionally spend
//! in the primary's buffer *is* discounted from the anchor). Under
//! unbounded asynchrony a delayed forward could arm a suspicion timer
//! arbitrarily long before the primary ever proposes the request, and no
//! propose-time anchor can cover that; deployments that cannot accept the
//! assumption can disable the fast path and order every read
//! (`Scenario::with_read_fast_path(false)` — always linearizable, never
//! fast). Agreement safety itself never depends on the lease.
//!
//! The lease, both fences and the serve-time re-check are written once, in
//! [`reads`]: [`ReplicaChassis::extend_read_lease`](chassis::ReplicaChassis::extend_read_lease)
//! is the lease rule above and
//! [`ReplicaChassis::on_read_request`](chassis::ReplicaChassis::on_read_request)
//! admits every read. The CFT baseline's leader reads run the same code
//! under [`reads::ReadRule::Leased`], the BFT baseline's quorum reads under
//! [`reads::ReadRule::Prepared`], so this argument covers them too.
//!
//! A read **falls back to the ordered path** whenever the fast path cannot
//! answer: the contacted replica refuses (not the lease-holding primary,
//! lease expired, view change or mode switch in progress, or the
//! application cannot prove the operation read-only — see
//! [`StateMachine::execute_read`](seemore_app::StateMachine::execute_read)),
//! a Peacock reply quorum fails to match, or the client times out.
//! Refusals are first-class signed `READ-REPLY` messages so clients fall
//! back immediately; the fallback re-submits the identical operation under
//! the identical `(client, timestamp)` identity, inheriting the ordered
//! path's exactly-once handling. Ordering a read is always safe — just
//! slower — so the fast path is strictly an optimization, never a safety
//! dependency.
//!
//! # The view change
//!
//! One view change serves every protocol ([`view_change`]): the paper's
//! rules (a commit certificate wins, a prepared batch is re-proposed, a gap
//! gets a no-op) written once in the chassis. The protocols differ only in
//! values: a [`view_change::ViewChangeRules`] per target view (collector
//! and threshold, `join_after`, `voter`, what a vote carries, Lion's
//! `promote_prepared`, `embed_votes`, the recipients), a
//! [`view_change::Suspicion`] per timer expiry with its
//! [`view_change::Grace`] (none for CFT, a newer view for BFT, a newer view
//! or recent progress for SeeMoRe), and `Option<&mut SigningContext>`,
//! which decides signing and the re-validation of carried batches.
//!
//! Every protocol core is *sans-IO*: it consumes [`Message`]s and timer
//! expirations and produces [`Action`]s, never touching sockets, clocks or
//! threads. The `seemore-runtime` crate drives cores over either real
//! loopback TCP sockets or a deterministic discrete-event simulator, and
//! [`testkit::SyncCluster`] drives them synchronously for tests. Beside it,
//! [`check`] is the one oracle every test judges its histories with: pure
//! functions over executed histories and client outcomes, each returning a
//! typed [`check::Violation`] instead of panicking.
//!
//! [`Message`]: seemore_wire::Message
//! [`Batch`]: seemore_wire::Batch

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod actions;
pub mod batching;
pub mod byzantine;
pub mod chassis;
pub mod check;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod exec;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod protocol;
pub mod reads;
pub mod replica;
pub mod testkit;
pub mod view_change;

pub use actions::{Action, Timer};
pub use batching::{
    AdaptiveBatchConfig, AdaptiveBatcher, BatchAccumulator, BatchConfig, FlushCause,
};
pub use byzantine::{ByzantineBehavior, ByzantineReplica};
pub use chassis::{Inbound, ReplicaChassis, SigningContext};
pub use client::{ClientCore, ClientOutcome, ClientProtocol, ReplyPolicy};
pub use config::{BatchPolicy, ProtocolConfig};
pub use exec::ExecutedEntry;
pub use metrics::{BatchTelemetry, ReplicaMetrics};
pub use profile::ProtocolProfile;
pub use protocol::ReplicaProtocol;
pub use reads::ParkedReads;
pub use replica::SeeMoReReplica;
