//! Execution substrates and measurement harness for the SeeMoRe
//! reproduction.
//!
//! # The two runtimes
//!
//! The same sans-IO protocol cores run on two substrates; pick by what you
//! want to learn:
//!
//! * [`sim`] — a **deterministic discrete-event simulator** driving the
//!   cores over the latency, CPU and fault models from `seemore-net`.
//!   Virtual time, perfectly reproducible for a fixed seed, thousands of
//!   simulated seconds per wall second. Use it to regenerate the paper's
//!   figures, sweep parameters, and shake out protocol bugs with the
//!   property tests.
//! * [`socket`] — a **thread-per-replica runtime over loopback TCP**. Real
//!   OS concurrency and real clocks: every message is encoded by the real
//!   wire codec, crosses a `std::net` TCP connection, and is reassembled by
//!   a streaming frame reader. Use it when the question involves real
//!   concurrency or real IO: codec cost, framing, socket back-pressure,
//!   bytes-on-wire — this is the deployable shape of the system.
//!
//! # The socket transport, and how clients attach
//!
//! There is one: `seemore-net`'s reactor mesh. Each replica and each client
//! reads its own inbound connections on its own thread; a fixed pool of
//! epoll event loops accepts, dials and drains congested connections, so
//! thread count stays flat as connections grow. Clients attach the way the
//! paper's clients do: each owns an endpoint with a listener, dials one
//! connection per replica it sends to, and replicas dial it back for
//! replies. That is the shape of independent client machines and what
//! `BENCHMARK.json` measures. The loopback end-to-end suite
//! (`tests/socket_e2e.rs`) drives it to the per-slot histories of the
//! deterministic `SyncCluster` from `seemore_core::testkit`.
//!
//! Supporting modules:
//!
//! * [`workload`] — the 0/0, 0/4 and 4/0 micro-benchmarks of the evaluation
//!   plus a key-value workload for the examples.
//! * [`report`] — throughput / latency / timeline statistics extracted from
//!   a run.
//! * [`scenario`] — one-call builders that assemble a cluster (SeeMoRe in
//!   any mode, or one of the baselines), attach clients and failure
//!   schedules, run it on either runtime ([`Scenario::with_runtime`]) and
//!   return a [`report::RunReport`].
//!
//! # Telemetry
//!
//! Every protocol core (SeeMoRe in all three modes, the CFT/BFT/S-UpRight
//! baselines, and both client cores) is instrumented with the structured
//! tracer from `seemore-telemetry`. [`Scenario::with_tracing`] turns it on:
//! each core gets its own lock-free-to-allocate bounded ring
//! ([`seemore_telemetry::RingRecorder`]), and after the run the scenario
//! drains every ring, time-sorts the merged trace, and attaches three
//! derived views to the [`report::RunReport`]:
//!
//! * [`RunReport::phases`](report::RunReport::phases) — a per-mode,
//!   per-op-class commit-latency breakdown over the five request phases
//!   (client→primary, batch wait, agreement, execution, reply), each leg a
//!   log-bucketed histogram out to p99.9.
//! * [`RunReport::health`](report::RunReport::health) — one
//!   [`seemore_telemetry::ReplicaHealth`] rollup per replica: suspicions
//!   fired, reads refused, vote mismatches, signature-verification
//!   failures, and view-change durations, bucketed on the same timeline as
//!   the throughput view. Socket runs additionally report mesh-wide
//!   connection rebuilds in
//!   [`TransportReport::reconnects`](report::TransportReport::reconnects).
//! * [`RunReport::trace`](report::RunReport::trace) — the raw, time-sorted
//!   event stream, exportable to JSONL via [`seemore_telemetry::jsonl`] and
//!   re-importable with the same module's parser.
//!
//! With tracing off (the default) the cores carry a
//! [`seemore_telemetry::NullRecorder`] whose `record` is a provable no-op —
//! the disabled path allocates nothing and costs one inlined branch per
//! event site (asserted by the zero-allocation test in `seemore-telemetry`
//! and the `trace_overhead` microbenchmark). Latency percentiles in
//! [`ClassStats`] — split by operation class and
//! extended to p99.9 — come from the same histogram type, so report memory
//! stays constant no matter how many requests a run completes.
//!
//! `examples/telemetry.rs` prints the phase-breakdown table and dumps a
//! JSONL trace for a short socket run.
//!
//! # Durability
//!
//! By default replica state lives only in memory: a crashed replica is gone,
//! and the paper's fault bounds (`c`, `m`) are what keep the cluster live.
//! [`Scenario::with_durability`] attaches a store from `seemore-store` to
//! every core — [`scenario::DurabilityKind::Memory`] for the byte-exact
//! in-memory WAL (what tests and the simulator use) or
//! [`scenario::DurabilityKind::File`] for real files with real `fsync`. With
//! a store attached every core appends each safety-critical vote to a
//! CRC-framed write-ahead log and syncs it *before* the message leaves the
//! replica (a restarted replica can never contradict its earlier self — no
//! un-voting). On the socket runtime one sync covers every vote of a replica
//! loop turn (group commit, see `ReplicaProtocol::begin_turn`). Each core also
//! persists a snapshot at each stable checkpoint, and compacts the WAL
//! below it, so recovery work stays proportional to one checkpoint period.
//!
//! [`Scenario::with_crash_recover`] turns that durable state into a full
//! crash-recover-rejoin schedule, honoured on every runtime: the simulator
//! restarts the core deterministically at the scheduled virtual instant,
//! while the socket runtime really tears the core down and swaps in one
//! rebuilt from the store on the replica's own thread
//! ([`SocketCluster::recover`]). The
//! restarted replica replays its WAL suffix onto the recovered checkpoint,
//! broadcasts a `RECOVERY` announcement, fetches the committed suffix it
//! missed via the existing state-transfer messages (requiring `f + 1`
//! matching responses where peers may lie), and only then resumes voting —
//! buffering, not dropping, protocol traffic that arrives mid-rejoin.
//! Recovery shows up in telemetry as `RecoveryStarted` /
//! `CheckpointPersisted` / `RecoveryCompleted` events and in
//! [`seemore_telemetry::ReplicaHealth`] as recovery counts/durations and
//! WAL-replay lengths. `examples/recovery.rs` crashes and rejoins a replica
//! mid-run and prints the rejoin latency.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod driver;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod socket;
pub mod workload;

pub use report::{BatchReport, ClassStats, RunReport, TimelineBucket, TransportReport};
pub use scenario::{CrashRecover, DurabilityKind, ProtocolKind, RuntimeKind, Scenario};
pub use sim::{SimConfig, Simulation};
pub use socket::SocketCluster;
pub use workload::Workload;
