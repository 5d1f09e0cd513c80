//! The only file that names the program under test.
//!
//! Everything else in the benchmark speaks in the plain types defined here
//! and in `workloads.rs`, so a change to the program's public API is a change
//! to this one file. It builds clusters by hand from public constructors on
//! the socket runtime with its default options (the reactor transport),
//! encodes operations, wraps the three trait seams with timers for traced
//! runs, reads counters back after shutdown, and times the public functions
//! of the layers that cannot be wrapped (crypto, wire, net).

use crate::trace::{Sink, Span, SpanKind};
use crate::workloads::{App, Op, Protocol, Spec, Store, VALUE_BYTES};
use seemore::app::{KvOp, KvResult, KvStore, NoopApp, StateMachine};
use seemore::baselines::{BaselineClient, BaselineConfig, CftReplica};
use seemore::core::client::ClientProtocol;
use seemore::core::{
    Action, BatchPolicy, ClientCore, ProtocolConfig, ReplicaMetrics, ReplicaProtocol,
    SeeMoReReplica, Timer,
};
use seemore::crypto::{Digest, KeyStore, VerifyCache};
use seemore::net::{ReactorMesh, TransportStats};
use seemore::runtime::SocketCluster;
use seemore::store::{
    Durability, DurableCheckpoint, FileStore, FsyncPolicy, MemStore, RecoveredState, StoreConfig,
    WalRecord,
};
use seemore::telemetry::{derive_phases, Phase, Recorder, ReplicaHealth, RingRecorder, TraceEvent};
use seemore::types::{
    ClientId, ClusterConfig, Duration, Instant as ProtocolInstant, Mode, NodeId, OpClass,
    ReplicaId, SeqNum, Timestamp, View,
};
use seemore::wire::{codec, Batch, ClientRequest, Message, PrePrepare, Prepare, SignedPayload};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Crash and Byzantine bounds of every SeeMoRe deployment here (six
/// replicas: two private, four public), and the crash bound of the CFT
/// baseline with the same total tolerance (five replicas).
const CRASH_FAULTS: u32 = 1;
const BYZANTINE_FAULTS: u32 = 1;

/// Ring sizes for traced runs. A replica records about six events per
/// committed request; pages are only touched as events arrive.
const REPLICA_RING: usize = 1 << 19;
const CLIENT_RING: usize = 1 << 17;

// ---------------------------------------------------------------------------
// Operations and results
// ---------------------------------------------------------------------------

/// An operation as the client core takes it.
#[derive(Debug, Clone)]
pub struct EncodedOp {
    pub bytes: Vec<u8>,
    pub read: bool,
}

fn key_name(key: u64) -> Vec<u8> {
    format!("key{key:08}").into_bytes()
}

/// The value a `Put` with `tag` by `writer` stores: recognisable, unique, and
/// `VALUE_BYTES` long. Prefilled values use `writer = u64::MAX`.
pub fn value_bytes(writer: u64, tag: u64) -> Vec<u8> {
    let mut value = Vec::with_capacity(VALUE_BYTES);
    value.extend_from_slice(&tag.to_le_bytes());
    value.extend_from_slice(&writer.to_le_bytes());
    value.resize(VALUE_BYTES, (tag as u8) ^ 0x5A);
    value
}

pub fn prefill_value(key: u64) -> Vec<u8> {
    value_bytes(u64::MAX, key)
}

pub fn encode(spec: &Spec, client: usize, op: Op) -> EncodedOp {
    match op {
        Op::Noop => {
            let App::Noop { request_bytes } = spec.app else {
                unreachable!("only the no-op application gets no-op operations");
            };
            EncodedOp {
                bytes: NoopApp::request_payload(request_bytes),
                read: false,
            }
        }
        Op::Put { key, tag } => EncodedOp {
            bytes: KvOp::Put {
                key: key_name(key),
                value: value_bytes(client as u64, tag),
            }
            .encode(),
            read: false,
        },
        Op::Get { key } => EncodedOp {
            bytes: KvOp::Get { key: key_name(key) }.encode(),
            read: true,
        },
    }
}

/// What a reply payload says, for the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A write was applied.
    Ok,
    Value(Vec<u8>),
    NotFound,
    /// The no-op application's reply of this many bytes.
    Opaque(usize),
    Malformed,
}

pub fn decode_answer(spec: &Spec, result: &[u8]) -> Answer {
    if matches!(spec.app, App::Noop { .. }) {
        return Answer::Opaque(result.len());
    }
    match KvResult::decode(result) {
        Some(KvResult::Ok) => Answer::Ok,
        Some(KvResult::Value(value)) => Answer::Value(value),
        Some(KvResult::NotFound) => Answer::NotFound,
        Some(KvResult::MalformedOperation) | None => Answer::Malformed,
    }
}

/// The digest a replica's history records for a result payload.
pub fn result_digest(result: &[u8]) -> [u8; 32] {
    *Digest::of_fields(&[b"result", result]).as_bytes()
}

fn make_app(spec: &Spec) -> Box<dyn StateMachine> {
    match spec.app {
        App::Noop { .. } => Box::new(NoopApp::new(0)),
        App::KvCounter => Box::new(KvStore::new()),
        App::Kv { keys } => {
            let mut store = KvStore::new();
            for key in 0..keys as u64 {
                store.apply(KvOp::Put {
                    key: key_name(key),
                    value: prefill_value(key),
                });
            }
            Box::new(store)
        }
    }
}

/// Size of the application state every replica starts from (and, because
/// writes replace equal-sized values, keeps), as its own snapshot encodes it.
pub fn state_bytes(spec: &Spec) -> u64 {
    make_app(spec).snapshot().len() as u64
}

// ---------------------------------------------------------------------------
// Timed wrappers (traced runs only)
// ---------------------------------------------------------------------------

struct TimedReplica {
    inner: Box<dyn ReplicaProtocol>,
    sink: Arc<Sink>,
}

impl ReplicaProtocol for TimedReplica {
    fn id(&self) -> ReplicaId {
        self.inner.id()
    }
    fn on_start(&mut self, now: ProtocolInstant) -> Vec<Action> {
        let inner = &mut self.inner;
        self.sink.time(SpanKind::Handler, || inner.on_start(now))
    }
    fn on_message(&mut self, from: NodeId, message: Message, now: ProtocolInstant) -> Vec<Action> {
        let inner = &mut self.inner;
        self.sink
            .time(SpanKind::Handler, || inner.on_message(from, message, now))
    }
    fn on_timer(&mut self, timer: Timer, now: ProtocolInstant) -> Vec<Action> {
        let inner = &mut self.inner;
        self.sink
            .time(SpanKind::Handler, || inner.on_timer(timer, now))
    }
    fn view(&self) -> View {
        self.inner.view()
    }
    fn mode(&self) -> Mode {
        self.inner.mode()
    }
    fn executed(&self) -> &[seemore::core::ExecutedEntry] {
        self.inner.executed()
    }
    fn metrics(&self) -> &ReplicaMetrics {
        self.inner.metrics()
    }
    fn request_mode_switch(&mut self, mode: Mode, now: ProtocolInstant) -> Vec<Action> {
        self.inner.request_mode_switch(mode, now)
    }
    fn is_crashed(&self) -> bool {
        self.inner.is_crashed()
    }
    fn crash(&mut self) {
        self.inner.crash()
    }
}

struct TimedApp {
    inner: Box<dyn StateMachine>,
    sink: Arc<Sink>,
}

impl StateMachine for TimedApp {
    fn execute(&mut self, op: &[u8]) -> Vec<u8> {
        let inner = &mut self.inner;
        self.sink.time(SpanKind::AppExecute, || inner.execute(op))
    }
    fn execute_read(&self, op: &[u8]) -> Option<Vec<u8>> {
        self.sink
            .time(SpanKind::AppRead, || self.inner.execute_read(op))
    }
    fn state_digest(&self) -> Digest {
        self.sink
            .time(SpanKind::AppDigest, || self.inner.state_digest())
    }
    fn snapshot(&self) -> Vec<u8> {
        self.sink
            .time(SpanKind::AppSnapshot, || self.inner.snapshot())
    }
    fn restore(&mut self, snapshot: &[u8]) {
        self.inner.restore(snapshot)
    }
    fn executed_count(&self) -> u64 {
        self.inner.executed_count()
    }
}

struct TimedStore {
    inner: Arc<dyn Durability>,
    sink: Arc<Sink>,
}

impl Durability for TimedStore {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
    fn append(&self, record: &WalRecord) {
        self.sink
            .time(SpanKind::StoreAppend, || self.inner.append(record))
    }
    fn persist_checkpoint(&self, checkpoint: &DurableCheckpoint) {
        self.sink.time(SpanKind::StoreCheckpoint, || {
            self.inner.persist_checkpoint(checkpoint)
        })
    }
    fn compact_below(&self, seq: SeqNum) {
        self.sink
            .time(SpanKind::StoreCompact, || self.inner.compact_below(seq))
    }
    fn recover(&self) -> Option<RecoveredState> {
        self.sink
            .time_detached(SpanKind::StoreRecover, || self.inner.recover())
    }
}

/// Per-replica span sink and event ring of a traced run.
struct ReplicaTrace {
    sink: Arc<Sink>,
    ring: Arc<RingRecorder>,
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Group {
    SeeMoRe { cluster: ClusterConfig, mode: Mode },
    Cft { config: BaselineConfig },
}

/// A client core, owned by one client thread at a time.
pub struct Client(Box<dyn ClientProtocol>);

impl Client {
    pub fn retransmissions(&self) -> u64 {
        self.0.retransmissions()
    }
}

/// One completed operation as the client core reports it.
#[derive(Debug)]
pub struct Reply {
    pub client: u64,
    pub timestamp: u64,
    /// First transmission to accepted reply quorum, on the cluster's clock.
    pub latency_ns: u64,
    pub result: Vec<u8>,
}

/// Transport counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCounters {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub write_syscalls: u64,
    pub vectored_writes: u64,
    pub partial_writes: u64,
    pub frames_coalesced: u64,
    pub encodes_saved: u64,
    /// `TransportStats::reconnects`, which counts first connects too.
    pub connects: u64,
}

/// One entry of a replica's execution history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    pub seq: u64,
    pub offset: u64,
    pub client: u64,
    pub timestamp: u64,
    pub request_digest: [u8; 32],
    pub result_digest: [u8; 32],
}

#[derive(Debug, Clone)]
pub struct ReplicaEnd {
    pub id: u32,
    pub crashed: bool,
    pub history: Vec<Executed>,
}

/// Protocol counters summed over the replica cores returned by shutdown;
/// they cover the cluster's whole life, not a window.
#[derive(Debug, Clone, Default)]
pub struct CoreCounters {
    pub messages_sent: u64,
    pub bytes_sent: u64,
    pub agreement_messages_sent: u64,
    pub rejected_messages: u64,
    pub batches: u64,
    pub batch_mean_size: f64,
    pub batches_cut_by_timer: u64,
    pub reads_served: u64,
    pub reads_refused: u64,
    /// Most `NEW-VIEW`s any one replica installed.
    pub view_changes: u64,
    pub peak_log_instances: u64,
}

/// What the event rings say, reduced to the numbers the report prints.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Median of each request phase for ordered writes, µs, in commit order:
    /// client→primary, batch wait, agreement, execution, reply.
    pub phase_p50_us: [f64; 5],
    /// Means of the same phases; per request the phases add up to its
    /// latency, so these add up to the mean latency if the trace is whole.
    pub phase_mean_us: [f64; 5],
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub view_change_max_ms: f64,
    pub rejoin_ms: f64,
    pub wal_replayed: u64,
}

pub struct Ended {
    pub replicas: Vec<ReplicaEnd>,
    pub counters: CoreCounters,
    pub shutdown_ms: f64,
    /// Spans of each replica, by replica id, and the reduced event trace;
    /// empty and `None` unless the run was traced.
    pub spans: Vec<Vec<Span>>,
    pub telemetry: Option<Telemetry>,
}

/// Everything needed to build (and, after a crash, rebuild) a replica core.
struct Plan {
    spec: Spec,
    group: Group,
    keystore: KeyStore,
    pconfig: ProtocolConfig,
    stores: Vec<Option<Arc<dyn Durability>>>,
    traces: Option<Vec<ReplicaTrace>>,
}

impl Plan {
    /// A replica core, fresh or rebuilt from its store, wrapped when traced.
    fn core(&self, id: ReplicaId, from_store: bool) -> Box<dyn ReplicaProtocol> {
        let trace = self.traces.as_ref().map(|traces| &traces[id.0 as usize]);
        let app: Box<dyn StateMachine> = match trace {
            Some(trace) => Box::new(TimedApp {
                inner: make_app(&self.spec),
                sink: trace.sink.clone(),
            }),
            None => make_app(&self.spec),
        };
        let store = self.stores[id.0 as usize].clone();
        let ring = trace.map(|trace| trace.ring.clone() as Arc<dyn Recorder>);
        let core: Box<dyn ReplicaProtocol> = match self.group {
            Group::SeeMoRe { cluster, mode } => {
                let keystore = self.keystore.clone();
                let mut core = match (from_store, store) {
                    (true, Some(store)) => SeeMoReReplica::recover(
                        id,
                        cluster,
                        self.pconfig,
                        keystore,
                        mode,
                        app,
                        store,
                    ),
                    (_, store) => {
                        let mut core =
                            SeeMoReReplica::new(id, cluster, self.pconfig, keystore, mode, app);
                        if let Some(store) = store {
                            core.set_store(store);
                        }
                        core
                    }
                };
                if let Some(ring) = ring {
                    core.set_recorder(ring);
                }
                Box::new(core)
            }
            Group::Cft { config } => {
                let mut core = match (from_store, store) {
                    (true, Some(store)) => {
                        CftReplica::recover(id, config, self.pconfig, app, store)
                    }
                    (_, store) => {
                        let mut core = CftReplica::new(id, config, self.pconfig, app);
                        if let Some(store) = store {
                            core.set_store(store);
                        }
                        core
                    }
                };
                if let Some(ring) = ring {
                    core.set_recorder(ring);
                }
                Box::new(core)
            }
        };
        match trace {
            Some(trace) => Box::new(TimedReplica {
                inner: core,
                sink: trace.sink.clone(),
            }),
            None => core,
        }
    }
}

pub struct Cluster {
    plan: Plan,
    sockets: SocketCluster,
    store_dir: PathBuf,
    client_rings: Vec<Arc<RingRecorder>>,
    stats: Arc<TransportStats>,
    /// Binding the mesh and spawning replica and reactor threads.
    pub spawn_ms: f64,
}

impl Cluster {
    /// Builds and spawns the cluster `spec` describes. `epoch` is the origin
    /// of span timestamps when `traced`; untraced clusters carry no wrapper,
    /// recorder or sink at all.
    pub fn start(
        spec: &Spec,
        seed: u64,
        store_dir: &Path,
        traced: Option<Instant>,
    ) -> io::Result<Cluster> {
        let group = match spec.protocol {
            Protocol::Cft => Group::Cft {
                config: BaselineConfig::cft(CRASH_FAULTS + BYZANTINE_FAULTS),
            },
            seemore_mode => Group::SeeMoRe {
                cluster: ClusterConfig::minimal(CRASH_FAULTS, BYZANTINE_FAULTS)
                    .expect("c = 1, m = 1 is a valid deployment"),
                mode: match seemore_mode {
                    Protocol::Lion => Mode::Lion,
                    Protocol::Dog => Mode::Dog,
                    _ => Mode::Peacock,
                },
            },
        };
        let replica_ids: Vec<ReplicaId> = match group {
            Group::SeeMoRe { cluster, .. } => cluster.replicas().collect(),
            Group::Cft { config } => config.replicas().collect(),
        };
        let keystore = KeyStore::generate(seed, replica_ids.len() as u32, spec.clients as u64);
        let pconfig = ProtocolConfig {
            batch: match spec.batching {
                Some((ceiling, delay_us)) => {
                    BatchPolicy::adaptive(ceiling, Duration::from_micros(delay_us))
                }
                None => BatchPolicy::disabled(),
            },
            ..ProtocolConfig::default()
        };
        // A store left by an earlier run must not be replayed into this one.
        let _ = std::fs::remove_dir_all(store_dir);
        let traces = traced.map(|epoch| {
            replica_ids
                .iter()
                .map(|_| ReplicaTrace {
                    sink: Arc::new(Sink::new(epoch)),
                    ring: Arc::new(RingRecorder::new(REPLICA_RING)),
                })
                .collect::<Vec<_>>()
        });
        let mut stores = Vec::new();
        for id in &replica_ids {
            let store: Option<Arc<dyn Durability>> = match spec.store {
                Store::None => None,
                Store::Memory => Some(Arc::new(MemStore::new(StoreConfig::default()))),
                Store::FileFsyncAlways => Some(Arc::new(FileStore::open(
                    store_dir.join(format!("replica-{}", id.0)),
                    StoreConfig {
                        fsync: FsyncPolicy::Always,
                        ..StoreConfig::default()
                    },
                )?)),
            };
            stores.push(match (&traces, store) {
                (Some(traces), Some(inner)) => Some(Arc::new(TimedStore {
                    inner,
                    sink: traces[id.0 as usize].sink.clone(),
                }) as Arc<dyn Durability>),
                (_, store) => store,
            });
        }
        let client_rings = match traced {
            Some(_) => (0..spec.clients)
                .map(|_| Arc::new(RingRecorder::new(CLIENT_RING)))
                .collect(),
            None => Vec::new(),
        };
        let plan = Plan {
            spec: *spec,
            group,
            keystore,
            pconfig,
            stores,
            traces,
        };
        let cores = replica_ids.iter().map(|id| plan.core(*id, false)).collect();
        let client_ids: Vec<ClientId> = (0..spec.clients as u64).map(ClientId).collect();
        let spawning = Instant::now();
        let sockets = SocketCluster::spawn(cores, &client_ids)?;
        Ok(Cluster {
            plan,
            stats: sockets.stats(),
            sockets,
            store_dir: store_dir.to_path_buf(),
            client_rings,
            spawn_ms: spawning.elapsed().as_secs_f64() * 1e3,
        })
    }

    pub fn client(&self, index: usize) -> Client {
        let id = ClientId(index as u64);
        let timeout = self.plan.pconfig.client_timeout;
        let ring = self
            .client_rings
            .get(index)
            .map(|ring| ring.clone() as Arc<dyn Recorder>);
        Client(match self.plan.group {
            Group::SeeMoRe { cluster, mode } => {
                let mut core =
                    ClientCore::new(id, cluster, self.plan.keystore.clone(), mode, timeout);
                if let Some(ring) = ring {
                    core.set_recorder(ring);
                }
                Box::new(core)
            }
            Group::Cft { config } => {
                let mut core = BaselineClient::new(id, config, self.plan.keystore.clone(), timeout);
                if let Some(ring) = ring {
                    core.set_recorder(ring);
                }
                Box::new(core)
            }
        })
    }

    /// Sends one operation and blocks until its reply quorum is accepted —
    /// `run_client` with a count of one, the only public client API. The
    /// client core retransmits every `client_timeout` until then.
    pub fn submit(&self, client: Client, op: &EncodedOp) -> (Client, Reply) {
        let class = if op.read {
            OpClass::Read
        } else {
            OpClass::Write
        };
        let (core, mut outcomes) =
            self.sockets
                .run_client(client.0, 1, self.plan.pconfig.client_timeout, |_| {
                    (op.bytes.clone(), class)
                });
        let outcome = outcomes
            .pop()
            .expect("run_client returns once its one request completed");
        let reply = Reply {
            client: outcome.request.client.0,
            timestamp: outcome.request.timestamp.0,
            latency_ns: outcome.latency.as_nanos(),
            result: outcome.result,
        };
        (Client(core), reply)
    }

    /// The replica that leads view 0.
    pub fn primary(&self) -> u32 {
        match self.plan.group {
            Group::SeeMoRe { cluster, mode } => {
                cluster
                    .primary(mode, View::ZERO)
                    .expect("the deployment has trusted replicas")
                    .0
            }
            Group::Cft { config } => config.primary(View::ZERO).0,
        }
    }

    /// A replica of the primary's own tier that is not the view-0 primary.
    pub fn backup_beside_primary(&self) -> u32 {
        let primary = self.primary();
        match self.plan.group {
            Group::SeeMoRe { cluster, .. } => cluster
                .private_replicas()
                .map(|id| id.0)
                .find(|id| *id != primary)
                .expect("c = 1 gives two private replicas"),
            Group::Cft { config } => (primary + 1) % config.network_size,
        }
    }

    pub fn crash(&self, replica: u32) {
        self.sockets.crash(ReplicaId(replica));
    }

    /// Restarts a crashed replica from its store (rejoin + state transfer).
    pub fn recover(&self, replica: u32) {
        let id = ReplicaId(replica);
        self.sockets.recover(id, self.plan.core(id, true));
    }

    pub fn transport(&self) -> TransportCounters {
        TransportCounters {
            messages_sent: self.stats.messages_sent(),
            bytes_sent: self.stats.bytes_sent(),
            write_syscalls: self.stats.write_syscalls(),
            vectored_writes: self.stats.vectored_writes(),
            partial_writes: self.stats.partial_writes(),
            frames_coalesced: self.stats.frames_coalesced(),
            encodes_saved: self.stats.encodes_saved(),
            connects: self.stats.reconnects(),
        }
    }

    /// Stops the cluster and hands back what the cores recorded.
    pub fn shutdown(self) -> Ended {
        let stopping = Instant::now();
        let cores = self.sockets.shutdown();
        let shutdown_ms = stopping.elapsed().as_secs_f64() * 1e3;
        let _ = std::fs::remove_dir_all(&self.store_dir);

        let mut merged = ReplicaMetrics::default();
        let mut view_changes = 0;
        let mut replicas = Vec::new();
        for core in &cores {
            merged.merge(core.metrics());
            view_changes = view_changes.max(core.metrics().view_changes_completed);
            replicas.push(ReplicaEnd {
                id: core.id().0,
                crashed: core.is_crashed(),
                history: core
                    .executed()
                    .iter()
                    .map(|entry| Executed {
                        seq: entry.seq.0,
                        offset: entry.offset as u64,
                        client: entry.request.client.0,
                        timestamp: entry.request.timestamp.0,
                        request_digest: *entry.digest.as_bytes(),
                        result_digest: *entry.result_digest.as_bytes(),
                    })
                    .collect(),
            });
        }
        replicas.sort_by_key(|replica| replica.id);
        let counters = CoreCounters {
            messages_sent: merged.total_sent(),
            bytes_sent: merged.total_sent_bytes(),
            agreement_messages_sent: merged.agreement_messages_sent(),
            rejected_messages: merged.rejected_messages,
            batches: merged.batch.batches(),
            batch_mean_size: merged.batch.mean_size(),
            batches_cut_by_timer: merged.batch.cut_by_timer,
            reads_served: merged.reads_served,
            reads_refused: merged.reads_refused,
            view_changes,
            peak_log_instances: merged.peak_log_instances,
        };

        let mode = match self.plan.group {
            Group::SeeMoRe { mode, .. } => mode,
            // The baselines report their closest SeeMoRe mode in events.
            Group::Cft { .. } => Mode::Lion,
        };
        let traces = self.plan.traces.as_ref();
        let telemetry = traces.map(|traces| reduce_events(traces, &self.client_rings, mode));
        let spans = traces
            .into_iter()
            .flatten()
            .map(|trace| trace.sink.take())
            .collect();
        Ended {
            replicas,
            counters,
            shutdown_ms,
            spans,
            telemetry,
        }
    }
}

fn reduce_events(
    traces: &[ReplicaTrace],
    client_rings: &[Arc<RingRecorder>],
    mode: Mode,
) -> Telemetry {
    let rings = traces.iter().map(|trace| &trace.ring).chain(client_rings);
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut out = Telemetry::default();
    for ring in rings {
        out.events_recorded += ring.recorded();
        out.events_dropped += ring.dropped();
        events.extend(ring.drain());
    }
    seemore::telemetry::sort_events(&mut events);
    let phases = derive_phases(&events);
    if let Some(cell) = phases.cell(mode, OpClass::Write) {
        for phase in Phase::ALL {
            let spans = &cell.phases[phase.index()];
            out.phase_p50_us[phase.index()] = spans.percentile(0.5) as f64 / 1e3;
            out.phase_mean_us[phase.index()] = spans.mean() / 1e3;
        }
    }
    let origin = seemore::telemetry::trace_origin(&events).unwrap_or(ProtocolInstant::ZERO);
    for id in 0..traces.len() as u32 {
        let health =
            ReplicaHealth::from_events(ReplicaId(id), &events, origin, Duration::from_secs(1));
        out.view_change_max_ms = out
            .view_change_max_ms
            .max(health.view_change_max.as_millis_f64());
        out.rejoin_ms = out.rejoin_ms.max(health.recovery_max.as_millis_f64());
        out.wal_replayed += health.wal_replayed;
    }
    out
}

// ---------------------------------------------------------------------------
// Unit costs of the layers that cannot be wrapped
// ---------------------------------------------------------------------------

/// Costs of single public calls into crypto, wire and net, on messages shaped
/// like the workload's: its request size and its mean batch size.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    pub sign_ns: f64,
    pub verify_ns: f64,
    pub verify_memo_hit_ns: f64,
    /// Digest of one client request of the workload's size.
    pub digest_ns: f64,
    /// SHA-256 over bulk data, per KiB: times the state size, this is the
    /// cost of one full-state checkpoint digest.
    pub digest_ns_per_kib: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    /// Encoded size of the workload's proposal message.
    pub frame_bytes: u64,
    /// Round trip of that frame between two reactor endpoints.
    pub rtt_us_p50: f64,
}

/// Median over rounds of the mean time of one call, ns.
fn time_call<T>(mut call: impl FnMut() -> T) -> f64 {
    const ROUNDS: usize = 7;
    const BUDGET_NS: u128 = 15_000_000;
    let mut per_call = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed().as_nanos() < BUDGET_NS {
            for _ in 0..16 {
                std::hint::black_box(call());
            }
            calls += 16;
        }
        per_call.push(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    crate::stats::median(&per_call)
}

pub fn unit_costs(spec: &Spec, seed: u64, batch_size: usize) -> io::Result<UnitCosts> {
    let keystore = KeyStore::generate(seed, 2, 1);
    let client = ClientId(0);
    let client_signer = keystore
        .signer_for(NodeId::Client(client))
        .expect("generated above");
    let primary = NodeId::Replica(ReplicaId(0));
    let primary_signer = keystore.signer_for(primary).expect("generated above");

    let sample_op = match spec.app {
        App::Noop { .. } => encode(spec, 0, Op::Noop),
        App::Kv { .. } | App::KvCounter => encode(spec, 0, Op::Put { key: 0, tag: 0 }),
    };
    let requests: Vec<ClientRequest> = (0..batch_size.max(1) as u64)
        .map(|ts| {
            ClientRequest::new(
                client,
                Timestamp(ts + 1),
                sample_op.bytes.clone(),
                &client_signer,
            )
        })
        .collect();
    let request = requests[0].clone();
    let signing_bytes = request.signing_bytes();
    let signature = client_signer.sign(&signing_bytes);
    let mut memo = VerifyCache::default();
    memo.verify(
        &keystore,
        NodeId::Client(client),
        &signing_bytes,
        &signature,
    );
    let bulk = vec![0xA5u8; 64 * 1024];

    let batch = Batch::new(requests);
    let digest = batch.digest();
    let proposal = if spec.protocol == Protocol::Peacock {
        let mut message = PrePrepare {
            view: View::ZERO,
            seq: SeqNum(1),
            digest,
            batch,
            signature,
        };
        message.signature = primary_signer.sign(&message.signing_bytes());
        Message::PrePrepare(message)
    } else {
        let mut message = Prepare {
            view: View::ZERO,
            seq: SeqNum(1),
            digest,
            batch,
            signature,
        };
        message.signature = primary_signer.sign(&message.signing_bytes());
        Message::Prepare(message)
    };
    let frame = codec::encode(&proposal);

    Ok(UnitCosts {
        sign_ns: time_call(|| client_signer.sign(&signing_bytes)),
        verify_ns: time_call(|| {
            keystore.verify(NodeId::Client(client), &signing_bytes, &signature)
        }),
        verify_memo_hit_ns: time_call(|| {
            memo.verify(
                &keystore,
                NodeId::Client(client),
                &signing_bytes,
                &signature,
            )
        }),
        digest_ns: time_call(|| request.digest()),
        digest_ns_per_kib: time_call(|| Digest::of_bytes(&bulk)) / 64.0,
        encode_ns: time_call(|| codec::encode(&proposal)),
        decode_ns: time_call(|| codec::decode(&frame)),
        frame_bytes: frame.len() as u64,
        rtt_us_p50: reactor_round_trip_us(&proposal)?,
    })
}

/// Ping-pongs `message` between two endpoints of a fresh reactor mesh on
/// loopback and returns the median round trip.
fn reactor_round_trip_us(message: &Message) -> io::Result<f64> {
    const WARMUP: usize = 200;
    const ROUNDS: usize = 2_000;
    let (ping, pong) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
    let mesh = ReactorMesh::new(&[ping, pong])?;
    let near = mesh.take_endpoint(ping).expect("bound above");
    let far = mesh.take_endpoint(pong).expect("bound above");
    let patience = std::time::Duration::from_secs(5);
    let failed = |what: &str| io::Error::other(format!("reactor ping-pong: {what}"));
    let mut samples = Vec::with_capacity(ROUNDS);
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || {
            for _ in 0..WARMUP + ROUNDS {
                match far.incoming().recv_timeout(patience) {
                    Ok((from, message)) => {
                        if far.handle().send(from, &message).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        let handle = near.handle();
        for round in 0..WARMUP + ROUNDS {
            let started = Instant::now();
            handle
                .send(pong, message)
                .map_err(|_| failed("send refused"))?;
            near.incoming()
                .recv_timeout(patience)
                .map_err(|_| failed("no echo within 5 s"))?;
            if round >= WARMUP {
                samples.push(started.elapsed().as_nanos() as u64);
            }
        }
        echo.join().map_err(|_| failed("echo thread panicked"))
    })?;
    mesh.shutdown();
    samples.sort_unstable();
    Ok(crate::stats::percentile(&samples, 0.5) as f64 / 1e3)
}
