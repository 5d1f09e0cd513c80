//! One-call experiment builders.
//!
//! A [`Scenario`] describes one point of the paper's evaluation — which
//! protocol, which failure bounds, how many clients, which payload sizes,
//! and any failure to inject — and [`Scenario::run`] assembles the cluster,
//! drives it and returns a [`RunReport`]. The benchmark harness sweeps
//! scenarios to regenerate every figure.
//!
//! By default scenarios run on the deterministic discrete-event simulator;
//! [`Scenario::with_runtime`] selects [`SocketCluster`] (real threads, real
//! loopback TCP through the wire codec) instead. There `duration`/`warmup`
//! are wall-clock, closed-loop clients run on their own threads, and the
//! simulator-only knobs (latency, CPU and link-fault models, Byzantine
//! payload corruption timing) are ignored. Primary crashes, crash-recover
//! schedules and mode switches are honoured on both runtimes; on sockets a
//! mode switch reaches its announcing replica as a driver command.

use crate::driver::to_instant;
use crate::report::RunReport;
use crate::sim::{SimConfig, Simulation};
use crate::socket::SocketCluster;
use crate::workload::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use seemore_app::{KvStore, NoopApp, StateMachine};
use seemore_baselines::{s_upright, BaselineConfig, BftReplica, CftReplica};
use seemore_core::byzantine::{ByzantineBehavior, ByzantineReplica};
use seemore_core::client::{ClientCore, ClientProtocol, ReplyPolicy};
use seemore_core::config::{BatchPolicy, ProtocolConfig};
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::replica::SeeMoReReplica;
use seemore_crypto::KeyStore;
use seemore_net::{CpuModel, LatencyModel, LinkFaults, Placement};
use seemore_store::{Durability, FileStore, MemStore, StoreConfig};
use seemore_telemetry::{Recorder, RingRecorder};
use seemore_types::{ClientId, ClusterConfig, Duration, Instant, Mode, OpClass, ReplicaId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Which protocol a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// SeeMoRe in the Lion mode.
    SeeMoReLion,
    /// SeeMoRe in the Dog mode.
    SeeMoReDog,
    /// SeeMoRe in the Peacock mode.
    SeeMoRePeacock,
    /// The crash fault-tolerant baseline (Paxos), sized for `f = c + m`.
    Cft,
    /// The Byzantine fault-tolerant baseline (PBFT), sized for `f = c + m`.
    Bft,
    /// The S-UpRight hybrid baseline (PBFT agreement over `3m + 2c + 1`).
    SUpright,
}

impl ProtocolKind {
    /// Every protocol line plotted in the paper's figures, in plot order.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Bft,
        ProtocolKind::SUpright,
        ProtocolKind::SeeMoRePeacock,
        ProtocolKind::SeeMoReDog,
        ProtocolKind::SeeMoReLion,
        ProtocolKind::Cft,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::SeeMoReLion => "Lion",
            ProtocolKind::SeeMoReDog => "Dog",
            ProtocolKind::SeeMoRePeacock => "Peacock",
            ProtocolKind::Cft => "CFT",
            ProtocolKind::Bft => "BFT",
            ProtocolKind::SUpright => "S-UpRight",
        }
    }

    /// The SeeMoRe mode, if this is a SeeMoRe line.
    pub fn seemore_mode(self) -> Option<Mode> {
        match self {
            ProtocolKind::SeeMoReLion => Some(Mode::Lion),
            ProtocolKind::SeeMoReDog => Some(Mode::Dog),
            ProtocolKind::SeeMoRePeacock => Some(Mode::Peacock),
            _ => None,
        }
    }

    /// Total number of replicas this protocol deploys for `(c, m)`.
    pub fn network_size(self, c: u32, m: u32) -> u32 {
        match self {
            ProtocolKind::SeeMoReLion
            | ProtocolKind::SeeMoReDog
            | ProtocolKind::SeeMoRePeacock
            | ProtocolKind::SUpright => 3 * m + 2 * c + 1,
            ProtocolKind::Cft => 2 * (c + m) + 1,
            ProtocolKind::Bft => 3 * (c + m) + 1,
        }
    }
}

/// Which durable store backs every replica (see [`seemore_store`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum DurabilityKind {
    /// No persistence (the default): every core holds the allocation-free
    /// `NullStore` and runs bit-identical to a build without the seam.
    #[default]
    None,
    /// The in-memory store with the real byte-level framing — what
    /// [`Scenario::with_crash_recover`] enables, and what simulated and
    /// in-process restarts recover from.
    Memory,
    /// Real files under `<dir>/replica-<id>/` with real `fsync` (the
    /// store's default policy, `FsyncPolicy::Always`): one sync per replica
    /// turn on the socket runtime, one per vote on the simulator.
    File(PathBuf),
}

/// One crash-and-rejoin entry of a [`Scenario::with_crash_recover`]
/// schedule: kill the replica at `crash_at`, then restart it at
/// `recover_at` from whatever its durable store holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecover {
    /// Which replica to restart; `None` targets the view-0 primary.
    pub replica: Option<ReplicaId>,
    /// When to kill it.
    pub crash_at: Instant,
    /// When to bring it back from its durable store.
    pub recover_at: Instant,
}

impl CrashRecover {
    /// Crash-and-recover the view-0 primary.
    pub fn primary(crash_at: Instant, recover_at: Instant) -> Self {
        CrashRecover {
            replica: None,
            crash_at,
            recover_at,
        }
    }

    /// Crash-and-recover a specific replica.
    pub fn replica(replica: ReplicaId, crash_at: Instant, recover_at: Instant) -> Self {
        CrashRecover {
            replica: Some(replica),
            crash_at,
            recover_at,
        }
    }
}

/// Which execution substrate a scenario runs on (see the crate docs for
/// guidance on choosing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuntimeKind {
    /// The deterministic discrete-event simulator (virtual time; the
    /// default, and what regenerates the paper's figures).
    #[default]
    Simulated,
    /// Thread-per-replica over real loopback TCP through the wire codec
    /// (wall-clock time; reported bytes really crossed sockets): every
    /// replica and client owns an endpoint with its own listener, each
    /// replica and client thread reads its own inbound connections, and a
    /// fixed pool of epoll event loops accepts, dials and drains.
    Socket,
}

impl RuntimeKind {
    /// Display name for reports and benches.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Simulated => "simulated",
            RuntimeKind::Socket => "socket",
        }
    }
}

/// A fully specified experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Crash-fault bound `c`.
    pub crash_faults: u32,
    /// Byzantine-fault bound `m`.
    pub byzantine_faults: u32,
    /// Number of closed-loop clients.
    pub clients: u32,
    /// Request payload size in bytes.
    pub request_size: usize,
    /// Reply payload size in bytes.
    pub reply_size: usize,
    /// Total simulated run length.
    pub duration: Duration,
    /// Warm-up excluded from the measured window.
    pub warmup: Duration,
    /// Timeline bucket width (Figure 4).
    pub timeline_bucket: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Link latency model.
    pub latency: LatencyModel,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Link fault injection.
    pub faults: LinkFaults,
    /// Checkpoint period (requests between checkpoints).
    pub checkpoint_period: u64,
    /// The request-batching policy every primary runs: either the static
    /// `max_batch` / `max_delay` knobs or the adaptive AIMD controller
    /// (see [`seemore_core::batching`]). Applies to SeeMoRe in every mode
    /// and to all baselines, so comparisons stay apples-to-apples.
    pub batch: BatchPolicy,
    /// Protocol timeouts.
    pub request_timeout: Duration,
    /// If set, crash the view-0 primary at this instant (Figure 4).
    pub crash_primary_at: Option<Instant>,
    /// Which durable store backs every replica ([`DurabilityKind::None`] by
    /// default; [`Scenario::with_crash_recover`] auto-enables `Memory`).
    pub durability: DurabilityKind,
    /// Crash-and-rejoin schedule: each entry kills a replica and later
    /// restarts it from its durable store, on every runtime.
    pub crash_recover: Vec<CrashRecover>,
    /// If set, announce a switch to this mode at the given instant
    /// (SeeMoRe only).
    pub mode_switch: Option<(Instant, Mode)>,
    /// The per-client operation generator. `None` (the default) runs the
    /// paper's micro-benchmark at [`request_size`](Self::request_size)
    /// against the no-op application; `Some(Workload::Kv { .. })` runs
    /// key-value operations (with its `read_fraction`) against the
    /// replicated KV store, on every runtime.
    pub workload: Option<Workload>,
    /// Whether read-classified operations take the mode-aware fast path
    /// (true, the default) or are downgraded to the ordered path (the
    /// ordered-everything arm of `seemore-bench` ablation 9).
    pub read_fast_path: bool,
    /// Number of public-cloud replicas wrapped with this Byzantine
    /// behaviour (must stay ≤ `m` for guarantees to hold).
    pub byzantine_replicas: u32,
    /// The behaviour applied to those replicas.
    pub byzantine_behavior: ByzantineBehavior,
    /// Which execution substrate to run on.
    pub runtime: RuntimeKind,
    /// Whether every replica and client records a structured protocol trace
    /// (false, the default). With tracing on, the returned [`RunReport`]
    /// carries the per-phase latency breakdown, per-replica health rollups
    /// and the raw event trace; with it off, cores run the provably
    /// zero-cost [`seemore_telemetry::NullRecorder`].
    pub tracing: bool,
}

impl Scenario {
    /// A scenario with the defaults used throughout the evaluation:
    /// 0/0 payloads, same-region latency, 16 clients, 400 ms of simulated
    /// time with a 100 ms warm-up.
    pub fn new(protocol: ProtocolKind, c: u32, m: u32) -> Self {
        Scenario {
            protocol,
            crash_faults: c,
            byzantine_faults: m,
            clients: 16,
            request_size: 0,
            reply_size: 0,
            duration: Duration::from_millis(400),
            warmup: Duration::from_millis(100),
            timeline_bucket: Duration::from_millis(5),
            seed: 0xC0FFEE,
            latency: LatencyModel::same_region(),
            cpu: CpuModel::default(),
            faults: LinkFaults::none(),
            checkpoint_period: 1_000,
            batch: BatchPolicy::fixed(1, Duration::from_micros(100)),
            request_timeout: Duration::from_millis(20),
            crash_primary_at: None,
            durability: DurabilityKind::None,
            crash_recover: Vec::new(),
            mode_switch: None,
            workload: None,
            read_fast_path: true,
            byzantine_replicas: 0,
            byzantine_behavior: ByzantineBehavior::Honest,
            runtime: RuntimeKind::Simulated,
            tracing: false,
        }
    }

    /// Enables or disables structured protocol tracing (disabled by
    /// default). See [`Scenario::tracing`].
    pub fn with_tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Selects the execution substrate (the simulator or sockets).
    pub fn with_runtime(mut self, runtime: RuntimeKind) -> Self {
        self.runtime = runtime;
        self
    }

    /// Sets the number of closed-loop clients.
    pub fn with_clients(mut self, clients: u32) -> Self {
        self.clients = clients;
        self
    }

    /// Sets the request/reply payload sizes in bytes (the paper's `x/y`
    /// micro-benchmarks use 0 or 4096).
    pub fn with_payload(mut self, request: usize, reply: usize) -> Self {
        self.request_size = request;
        self.reply_size = reply;
        self
    }

    /// Sets the simulated duration and warm-up.
    pub fn with_duration(mut self, duration: Duration, warmup: Duration) -> Self {
        self.duration = duration;
        self.warmup = warmup;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Crashes the view-0 primary at `at` (the Figure 4 experiment).
    pub fn with_primary_crash(mut self, at: Instant) -> Self {
        self.crash_primary_at = Some(at);
        self
    }

    /// Selects the durable store backing every replica (see
    /// [`DurabilityKind`]). `None`, the default, keeps cores on the
    /// allocation-free null store.
    pub fn with_durability(mut self, durability: DurabilityKind) -> Self {
        self.durability = durability;
        self
    }

    /// Adds a crash-and-rejoin entry: the scheduled replica is killed at
    /// `schedule.crash_at` and restarted at `schedule.recover_at` from its
    /// durable store (last persisted checkpoint plus the WAL suffix), after
    /// which it announces the restart and rejoins via state transfer.
    /// Honoured on every runtime — a deterministic restart on the
    /// simulator, a real core teardown and reload on sockets.
    /// Enables [`DurabilityKind::Memory`] if no store was selected yet.
    pub fn with_crash_recover(mut self, schedule: CrashRecover) -> Self {
        if self.durability == DurabilityKind::None {
            self.durability = DurabilityKind::Memory;
        }
        self.crash_recover.push(schedule);
        self
    }

    /// Announces a mode switch at `at` (SeeMoRe only).
    pub fn with_mode_switch(mut self, at: Instant, mode: Mode) -> Self {
        self.mode_switch = Some((at, mode));
        self
    }

    /// Uses an explicit workload generator (e.g. [`Workload::kv`] with a
    /// read fraction) instead of the default micro-benchmark. KV workloads
    /// run against the replicated [`KvStore`]; micro workloads against the
    /// no-op application.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Enables or disables the read-only fast path (enabled by default).
    /// With the fast path off, reads are downgraded to the ordered path at
    /// submission; the RNG draws and operation bytes are identical, so the
    /// two arms differ only in how reads travel.
    pub fn with_read_fast_path(mut self, enabled: bool) -> Self {
        self.read_fast_path = enabled;
        self
    }

    /// The effective workload generator for this scenario.
    pub fn workload(&self) -> Workload {
        self.workload.clone().unwrap_or(Workload::Micro {
            request_size: self.request_size,
        })
    }

    /// The application instance every replica runs: the replicated KV store
    /// under a KV workload, the paper's no-op micro-benchmark app otherwise.
    fn make_app(&self) -> Box<dyn StateMachine> {
        match self.workload() {
            Workload::Kv { .. } => Box::new(KvStore::new()),
            Workload::Micro { .. } => Box::new(NoopApp::new(self.reply_size)),
        }
    }

    /// Like [`make_app`](Self::make_app), but as an owned callable a
    /// recover factory can keep: every restart needs a fresh application
    /// instance for the recovered snapshot to land in.
    fn app_factory(&self) -> Arc<dyn Fn() -> Box<dyn StateMachine> + Send + Sync> {
        match self.workload() {
            Workload::Kv { .. } => Arc::new(|| Box::new(KvStore::new())),
            Workload::Micro { .. } => {
                let reply_size = self.reply_size;
                Arc::new(move || Box::new(NoopApp::new(reply_size)))
            }
        }
    }

    /// The durable store for one replica, or `None` when durability is off.
    fn make_store(&self, replica: ReplicaId) -> Option<Arc<dyn Durability>> {
        match &self.durability {
            DurabilityKind::None => None,
            DurabilityKind::Memory => Some(Arc::new(MemStore::new(StoreConfig::default()))),
            DurabilityKind::File(dir) => {
                let path = dir.join(format!("replica-{}", replica.0));
                let store =
                    FileStore::open(&path, StoreConfig::default()).expect("open durable store dir");
                Some(Arc::new(store))
            }
        }
    }

    /// Uses a custom latency model (e.g. geo-separated clouds).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Uses a custom CPU model (e.g. free crypto, `seemore-bench` ablation 3).
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Injects link faults.
    pub fn with_link_faults(mut self, faults: LinkFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the checkpoint period.
    pub fn with_checkpoint_period(mut self, period: u64) -> Self {
        self.checkpoint_period = period;
        self
    }

    /// Sets a *static* request-batching policy: batches of up to
    /// `max_batch` requests, with a partial batch flushed after
    /// `batch_delay`. Applies to SeeMoRe in every mode and to all
    /// baselines, so comparisons stay apples-to-apples. `with_batching(1, _)`
    /// reproduces unbatched agreement exactly.
    pub fn with_batching(mut self, max_batch: usize, batch_delay: Duration) -> Self {
        self.batch = BatchPolicy::fixed(max_batch, batch_delay);
        self
    }

    /// Sets the *adaptive* request-batching policy: the effective batch cap
    /// grows toward `ceiling` under load and decays toward 1 when idle,
    /// with flush delays bounded by `max_delay`. The chosen sizes are
    /// reported in [`RunReport::batching`].
    pub fn with_adaptive_batching(mut self, ceiling: usize, max_delay: Duration) -> Self {
        self.batch = BatchPolicy::adaptive(ceiling, max_delay);
        self
    }

    /// Wraps `count` public-cloud replicas with the given Byzantine
    /// behaviour (SeeMoRe and BFT-style baselines).
    pub fn with_byzantine(mut self, count: u32, behavior: ByzantineBehavior) -> Self {
        self.byzantine_replicas = count;
        self.byzantine_behavior = behavior;
        self
    }

    pub(crate) fn protocol_config(&self) -> ProtocolConfig {
        ProtocolConfig {
            checkpoint_period: self.checkpoint_period,
            high_water_mark: self.checkpoint_period.saturating_mul(4).max(64),
            request_timeout: self.request_timeout,
            view_change_timeout: self.request_timeout.mul(2),
            client_timeout: self.request_timeout.mul(2),
            batch: self.batch,
        }
    }

    /// Builds the cluster, runs it on the selected runtime and returns the
    /// report.
    pub fn run(&self) -> RunReport {
        match self.runtime {
            RuntimeKind::Simulated => {
                let (mut sim, primary, trace) = self.build_traced();
                if let Some(at) = self.crash_primary_at {
                    sim.schedule_crash(at, primary);
                }
                sim.run_until(Instant::ZERO + self.duration);
                let mut report = sim.report(Instant::ZERO + self.warmup, self.timeline_bucket);
                trace.attach(&mut report, self.timeline_bucket);
                report
            }
            RuntimeKind::Socket => self.run_concurrent(),
        }
    }

    /// Builds the simulation without running it (used by tests and examples
    /// that want to inspect intermediate state). Returns the simulation and
    /// the id of the view-0 primary.
    pub fn build(&self) -> (Simulation, ReplicaId) {
        let (sim, primary, _) = self.build_traced();
        (sim, primary)
    }

    /// [`Scenario::build`] plus the live trace-ring handles, so a caller that
    /// runs the simulation itself can still drain the trace afterwards.
    fn build_traced(&self) -> (Simulation, ReplicaId, TraceHandles) {
        let cores = self.build_cores();
        let config = SimConfig {
            latency: self.latency,
            cpu: self.cpu,
            faults: self.faults.clone(),
            placement: cores.placement,
            seed: self.seed,
        };
        let mut sim = Simulation::new(config);
        sim.set_read_fast_path(self.read_fast_path);
        for replica in cores.replicas {
            sim.add_replica(replica);
        }
        for (index, client) in cores.clients.into_iter().enumerate() {
            sim.add_client(
                client,
                self.workload(),
                Instant::from_nanos(index as u64 * 5_000),
            );
        }
        if let (Some((at, target_mode)), Some(announcer)) =
            (self.mode_switch, cores.mode_switch_announcer)
        {
            sim.schedule_mode_switch(at, announcer, target_mode);
        }
        for entry in &self.crash_recover {
            let replica = entry.replica.unwrap_or(cores.primary);
            let Some(factory) = cores.recover_factories.get(&replica) else {
                continue;
            };
            let factory = factory.clone();
            sim.set_recover_factory(replica, Box::new(move || factory()));
            sim.schedule_crash(entry.crash_at, replica);
            sim.schedule_recover(entry.recover_at, replica);
        }
        (sim, cores.primary, cores.trace)
    }

    /// One replica's wiring, spelled once for the three core types: attaches
    /// this replica's trace ring and durable store (where the scenario has
    /// them) to the fresh `core`, and registers the factory that rebuilds
    /// the replica from that store after a crash — `recovered`, with the
    /// same ring re-attached.
    fn wire_core<C: ReplicaProtocol + 'static>(
        &self,
        replica: ReplicaId,
        trace: &mut TraceHandles,
        recover_factories: &mut BTreeMap<ReplicaId, RecoverFactory>,
        mut core: C,
        (set_recorder, set_store): (Attach<C, dyn Recorder>, Attach<C, dyn Durability>),
        recovered: impl Fn(Box<dyn StateMachine>, Arc<dyn Durability>) -> C + Send + Sync + 'static,
    ) -> C {
        let recorder = trace.for_replica(self.tracing, replica);
        if let Some(recorder) = recorder.clone() {
            set_recorder(&mut core, recorder);
        }
        if let Some(store) = self.make_store(replica) {
            set_store(&mut core, store.clone());
            let app = self.app_factory();
            recover_factories.insert(
                replica,
                Arc::new(move || {
                    let mut core = recovered(app(), store.clone());
                    if let Some(recorder) = recorder.clone() {
                        set_recorder(&mut core, recorder);
                    }
                    Box::new(core) as Box<dyn ReplicaProtocol>
                }),
            );
        }
        core
    }

    /// The scenario's clients, every protocol's alike: a [`ClientCore`]
    /// under the protocol's reply `policy`, starting in `mode`, with a trace
    /// ring each when tracing is on.
    fn build_clients<P: ReplyPolicy + Copy + 'static>(
        &self,
        policy: P,
        keystore: &KeyStore,
        mode: Mode,
        trace: &mut TraceHandles,
    ) -> Vec<Box<dyn ClientProtocol>> {
        let timeout = self.protocol_config().client_timeout;
        (0..u64::from(self.clients))
            .map(|client| {
                let mut core = ClientCore::with_policy(
                    ClientId(client),
                    Box::new(policy),
                    keystore.clone(),
                    mode,
                    timeout,
                );
                if let Some(recorder) = trace.for_client(self.tracing) {
                    core.set_recorder(recorder);
                }
                Box::new(core) as Box<dyn ClientProtocol>
            })
            .collect()
    }

    /// Assembles the replica and client cores for this scenario,
    /// independently of the runtime that will drive them.
    pub(crate) fn build_cores(&self) -> CoreSet {
        let c = self.crash_faults;
        let m = self.byzantine_faults;
        let pconfig = self.protocol_config();
        let mut trace = TraceHandles::default();
        let mut recover_factories: BTreeMap<ReplicaId, RecoverFactory> = BTreeMap::new();

        match self.protocol.seemore_mode() {
            Some(mode) => {
                let cluster = ClusterConfig::minimal(c, m).expect("valid SeeMoRe cluster");
                let keystore =
                    KeyStore::generate(self.seed, cluster.total_size(), u64::from(self.clients));
                // The last `byzantine_replicas` public replicas misbehave.
                let byzantine_cutoff = cluster.total_size().saturating_sub(self.byzantine_replicas);
                let mut replicas: Vec<Box<dyn ReplicaProtocol>> = Vec::new();
                for replica in cluster.replicas() {
                    let recover_keystore = keystore.clone();
                    let core = self.wire_core(
                        replica,
                        &mut trace,
                        &mut recover_factories,
                        SeeMoReReplica::new(
                            replica,
                            cluster,
                            pconfig,
                            keystore.clone(),
                            mode,
                            self.make_app(),
                        ),
                        (SeeMoReReplica::set_recorder, SeeMoReReplica::set_store),
                        move |app, store| {
                            let keystore = recover_keystore.clone();
                            SeeMoReReplica::recover(
                                replica, cluster, pconfig, keystore, mode, app, store,
                            )
                        },
                    );
                    // A restarted replica always comes back honest: the
                    // Byzantine wrapper models live misbehaviour, not a
                    // corrupted store.
                    if replica.0 >= byzantine_cutoff && !cluster.is_trusted(replica) {
                        replicas.push(Box::new(ByzantineReplica::new(
                            core,
                            self.byzantine_behavior,
                        )));
                    } else {
                        replicas.push(Box::new(core));
                    }
                }
                let clients = self.build_clients(cluster, &keystore, mode, &mut trace);
                let mode_switch_announcer = self.mode_switch.and_then(|(_, target_mode)| {
                    seemore_core::replica::mode_switch_announcer(
                        &cluster,
                        seemore_types::View(1),
                        target_mode,
                    )
                });
                CoreSet {
                    replicas,
                    clients,
                    placement: Placement::hybrid(cluster),
                    primary: cluster
                        .primary(mode, seemore_types::View(0))
                        .expect("view-0 primary"),
                    mode_switch_announcer,
                    trace,
                    recover_factories,
                }
            }
            None => {
                let config = match self.protocol {
                    ProtocolKind::Cft => BaselineConfig::cft(c + m),
                    ProtocolKind::Bft => BaselineConfig::bft(c + m),
                    ProtocolKind::SUpright => s_upright(c, m),
                    _ => unreachable!("SeeMoRe handled above"),
                };
                let keystore =
                    KeyStore::generate(self.seed, config.network_size, u64::from(self.clients));
                let byzantine_cutoff = config.network_size.saturating_sub(self.byzantine_replicas);
                let mut replicas: Vec<Box<dyn ReplicaProtocol>> = Vec::new();
                for replica in config.replicas() {
                    match self.protocol {
                        ProtocolKind::Cft => {
                            let core = self.wire_core(
                                replica,
                                &mut trace,
                                &mut recover_factories,
                                CftReplica::new(replica, config, pconfig, self.make_app()),
                                (CftReplica::set_recorder, CftReplica::set_store),
                                move |app, store| {
                                    CftReplica::recover(replica, config, pconfig, app, store)
                                },
                            );
                            replicas.push(Box::new(core));
                        }
                        _ => {
                            let recover_keystore = keystore.clone();
                            let core = self.wire_core(
                                replica,
                                &mut trace,
                                &mut recover_factories,
                                BftReplica::new(
                                    replica,
                                    config,
                                    pconfig,
                                    keystore.clone(),
                                    self.make_app(),
                                ),
                                (BftReplica::set_recorder, BftReplica::set_store),
                                move |app, store| {
                                    let keystore = recover_keystore.clone();
                                    BftReplica::recover(
                                        replica, config, pconfig, keystore, app, store,
                                    )
                                },
                            );
                            if replica.0 >= byzantine_cutoff && replica.0 != 0 {
                                replicas.push(Box::new(ByzantineReplica::new(
                                    core,
                                    self.byzantine_behavior,
                                )));
                            } else {
                                replicas.push(Box::new(core));
                            }
                        }
                    }
                }
                let clients = self.build_clients(config, &keystore, config.mode(), &mut trace);
                CoreSet {
                    replicas,
                    clients,
                    placement: Placement::flat(),
                    primary: config.primary(seemore_types::View(0)),
                    mode_switch_announcer: None,
                    trace,
                    recover_factories,
                }
            }
        }
    }

    /// Runs the scenario on [`SocketCluster`]: closed-loop clients on their
    /// own OS threads against real replica threads, for `duration` of
    /// wall-clock time.
    pub(crate) fn run_concurrent(&self) -> RunReport {
        let mut cores = self.build_cores();
        let recover_factories = std::mem::take(&mut cores.recover_factories);
        let client_ids: Vec<ClientId> = cores.clients.iter().map(|c| c.id()).collect();
        let primary = cores.primary;
        let patience = self.protocol_config().client_timeout;
        let cluster =
            SocketCluster::spawn(cores.replicas, &client_ids).expect("bind loopback TCP sockets");
        // Measure against the cluster's own clock epoch — the one outcome
        // timestamps, timers and the crash schedule are all stamped with —
        // so socket-mesh setup time is not charged to the measurement
        // window.
        let start = cluster.epoch();

        let run_for = self.duration.to_std();
        let (clients, outcomes) = std::thread::scope(|scope| {
            // Like the simulator (which never fires events past `run_until`),
            // a crash scheduled beyond the run window is simply dropped; the
            // sleep is bounded by the window so the scope cannot outlive it.
            if let Some(at) = self.crash_primary_at {
                let delay = Duration::from_nanos(at.as_nanos()).to_std();
                if delay < run_for {
                    let cluster = &cluster;
                    scope.spawn(move || {
                        let elapsed = start.elapsed();
                        if delay > elapsed {
                            std::thread::sleep(delay - elapsed);
                        }
                        cluster.crash(primary);
                    });
                }
            }
            // Crash-recover entries get one scheduler thread each: it kills
            // the replica at `crash_at`, then (still inside the window)
            // rebuilds a core from the shared durable store and hands it to
            // the cluster, which swaps it in on the replica's own thread.
            for entry in &self.crash_recover {
                let replica = entry.replica.unwrap_or(primary);
                let Some(factory) = recover_factories.get(&replica).cloned() else {
                    continue;
                };
                let crash_delay = Duration::from_nanos(entry.crash_at.as_nanos()).to_std();
                let recover_delay = Duration::from_nanos(entry.recover_at.as_nanos()).to_std();
                if crash_delay >= run_for {
                    continue;
                }
                let cluster = &cluster;
                scope.spawn(move || {
                    let elapsed = start.elapsed();
                    if crash_delay > elapsed {
                        std::thread::sleep(crash_delay - elapsed);
                    }
                    cluster.crash(replica);
                    if recover_delay < run_for {
                        let elapsed = start.elapsed();
                        if recover_delay > elapsed {
                            std::thread::sleep(recover_delay - elapsed);
                        }
                        cluster.recover(replica, factory());
                    }
                });
            }
            // Mode switches are delivered as a driver command to the
            // announcing replica, mirroring the simulator's scheduled
            // announcement (a switch scheduled beyond the window is dropped,
            // like a crash).
            if let (Some((at, target_mode)), Some(announcer)) =
                (self.mode_switch, cores.mode_switch_announcer)
            {
                let delay = Duration::from_nanos(at.as_nanos()).to_std();
                if delay < run_for {
                    let cluster = &cluster;
                    scope.spawn(move || {
                        let elapsed = start.elapsed();
                        if delay > elapsed {
                            std::thread::sleep(delay - elapsed);
                        }
                        cluster.request_mode_switch(announcer, target_mode);
                    });
                }
            }
            // Clients give a pending request up once the window closes, so
            // even a failure schedule beyond the deployment's fault
            // tolerance leaves the run bounded.
            let abandon_at = start + run_for;
            let handles: Vec<_> = cores
                .clients
                .into_iter()
                .enumerate()
                .map(|(index, client)| {
                    let cluster = &cluster;
                    let workload = self.workload();
                    let read_fast_path = self.read_fast_path;
                    let seed = self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    scope.spawn(move || {
                        let mut rng = SmallRng::seed_from_u64(seed);
                        let mut client = client;
                        let mut outcomes = Vec::new();
                        while start.elapsed() < run_for {
                            let (back, completed) = cluster.run_client_until(
                                client,
                                1,
                                patience,
                                Some(abandon_at),
                                |_| {
                                    let (op, class) = workload.next_classified(&mut rng);
                                    if read_fast_path {
                                        (op, class)
                                    } else {
                                        (op, OpClass::Write)
                                    }
                                },
                            );
                            client = back;
                            outcomes.extend(completed);
                        }
                        (client, outcomes)
                    })
                })
                .collect();
            let mut clients = Vec::new();
            let mut outcomes = Vec::new();
            for handle in handles {
                let (client, completed) = handle.join().expect("client thread");
                clients.push(client);
                outcomes.extend(completed);
            }
            (clients, outcomes)
        });

        let run_end = to_instant(start);
        let (messages, bytes) = cluster.traffic();
        let transport = crate::report::TransportReport::from_stats(&cluster.stats());
        let replicas = cluster.shutdown();
        let mut metrics = seemore_core::metrics::ReplicaMetrics::default();
        for replica in &replicas {
            metrics.merge(replica.metrics());
        }
        let mut report = RunReport::from_outcomes(
            &outcomes,
            Instant::ZERO + self.warmup,
            run_end,
            self.timeline_bucket,
        );
        report.messages_delivered = messages;
        report.bytes_delivered = bytes;
        report.view_changes = metrics.view_changes_completed;
        report.mode_switches = metrics.mode_switches;
        report.retransmissions = clients.iter().map(|c| c.retransmissions()).sum();
        report.batching = crate::report::BatchReport::from_telemetry(&metrics.batch);
        report.transport = Some(transport);
        // Replica threads are joined by `shutdown` and client threads by the
        // scope above, so the rings hold every event the run produced.
        cores.trace.attach(&mut report, self.timeline_bucket);
        report
    }
}

/// A core type's setter for a shared handle (`set_recorder`, `set_store`).
type Attach<C, T> = fn(&mut C, Arc<T>);

/// Builds a replacement core for a crashed replica from its durable store
/// (shared by the simulator's restart events and the socket runtime's
/// recover commands, so one schedule entry can fire more than once).
pub(crate) type RecoverFactory = Arc<dyn Fn() -> Box<dyn ReplicaProtocol> + Send + Sync>;

/// Replica and client cores plus the metadata runtimes need to place and
/// drive them.
pub(crate) struct CoreSet {
    pub(crate) replicas: Vec<Box<dyn ReplicaProtocol>>,
    pub(crate) clients: Vec<Box<dyn ClientProtocol>>,
    pub(crate) placement: Placement,
    pub(crate) primary: ReplicaId,
    pub(crate) mode_switch_announcer: Option<ReplicaId>,
    pub(crate) trace: TraceHandles,
    pub(crate) recover_factories: BTreeMap<ReplicaId, RecoverFactory>,
}

/// Trace-ring capacity per replica: at roughly six events per committed
/// request this covers ~10k requests before the ring starts overwriting its
/// oldest events.
const REPLICA_TRACE_CAPACITY: usize = 1 << 16;
/// Trace-ring capacity per client (two events per completed request).
const CLIENT_TRACE_CAPACITY: usize = 1 << 14;

/// Live handles to every traced core's event ring, kept by the scenario so
/// the report can drain them once the run is over. Empty when tracing is
/// disabled, in which case [`TraceHandles::attach`] is a no-op and the
/// report's trace fields stay empty.
#[derive(Default)]
pub(crate) struct TraceHandles {
    recorders: Vec<Arc<RingRecorder>>,
    replicas: Vec<ReplicaId>,
}

impl TraceHandles {
    /// Allocates (and remembers) a recorder for `replica`, or `None` when
    /// tracing is off.
    fn for_replica(&mut self, tracing: bool, replica: ReplicaId) -> Option<Arc<RingRecorder>> {
        if !tracing {
            return None;
        }
        self.replicas.push(replica);
        let recorder = Arc::new(RingRecorder::new(REPLICA_TRACE_CAPACITY));
        self.recorders.push(recorder.clone());
        Some(recorder)
    }

    /// Allocates (and remembers) a recorder for a client, or `None` when
    /// tracing is off.
    fn for_client(&mut self, tracing: bool) -> Option<Arc<RingRecorder>> {
        if !tracing {
            return None;
        }
        let recorder = Arc::new(RingRecorder::new(CLIENT_TRACE_CAPACITY));
        self.recorders.push(recorder.clone());
        Some(recorder)
    }

    /// Drains every ring into one trace and attaches it to the report.
    pub(crate) fn attach(self, report: &mut RunReport, health_bucket: Duration) {
        if self.recorders.is_empty() {
            return;
        }
        let mut events = Vec::new();
        for recorder in &self.recorders {
            events.extend(recorder.drain());
        }
        report.attach_trace(events, &self.replicas, health_bucket);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_kind_metadata() {
        assert_eq!(ProtocolKind::ALL.len(), 6);
        assert_eq!(ProtocolKind::SeeMoReLion.name(), "Lion");
        assert_eq!(ProtocolKind::Cft.name(), "CFT");
        assert_eq!(ProtocolKind::SeeMoReDog.seemore_mode(), Some(Mode::Dog));
        assert_eq!(ProtocolKind::Bft.seemore_mode(), None);
        // Fig. 2(a) caption sizes.
        assert_eq!(ProtocolKind::SeeMoReLion.network_size(1, 1), 6);
        assert_eq!(ProtocolKind::SUpright.network_size(1, 1), 6);
        assert_eq!(ProtocolKind::Cft.network_size(1, 1), 5);
        assert_eq!(ProtocolKind::Bft.network_size(1, 1), 7);
    }

    #[test]
    fn every_protocol_makes_progress_in_a_short_run() {
        for protocol in ProtocolKind::ALL {
            let report = Scenario::new(protocol, 1, 1)
                .with_clients(4)
                .with_duration(Duration::from_millis(60), Duration::from_millis(10))
                .run();
            assert!(
                report.completed > 0,
                "{} completed no requests",
                protocol.name()
            );
            assert!(report.throughput_kreqs > 0.0);
            assert!(report.avg_latency_ms > 0.0);
        }
    }

    #[test]
    fn lion_outperforms_bft_at_equal_fault_tolerance() {
        let lion = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(16)
            .with_duration(Duration::from_millis(150), Duration::from_millis(30))
            .run();
        let bft = Scenario::new(ProtocolKind::Bft, 1, 1)
            .with_clients(16)
            .with_duration(Duration::from_millis(150), Duration::from_millis(30))
            .run();
        assert!(
            lion.throughput_kreqs > bft.throughput_kreqs,
            "lion {:.2} kreq/s should beat BFT {:.2} kreq/s",
            lion.throughput_kreqs,
            bft.throughput_kreqs
        );
    }

    #[test]
    fn primary_crash_scenario_records_view_changes() {
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(4)
            .with_duration(Duration::from_millis(300), Duration::from_millis(10))
            .with_primary_crash(Instant::from_nanos(50_000_000))
            .run();
        assert!(report.view_changes > 0);
        // The timeline shows completions after the crash point.
        let after: u64 = report
            .timeline
            .iter()
            .filter(|b| b.start_ms > 100.0)
            .map(|b| b.completed)
            .sum();
        assert!(after > 0, "throughput should recover after the view change");
    }

    #[test]
    fn byzantine_public_replica_does_not_stop_seemore() {
        let report = Scenario::new(ProtocolKind::SeeMoReDog, 1, 1)
            .with_clients(4)
            .with_duration(Duration::from_millis(100), Duration::from_millis(20))
            .with_byzantine(1, ByzantineBehavior::ConflictingVotes)
            .run();
        assert!(report.completed > 0);
    }

    #[test]
    fn concurrent_runtimes_produce_reports_with_traffic() {
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(150), Duration::from_millis(10))
            .with_runtime(RuntimeKind::Socket)
            .run();
        assert!(report.completed > 0, "no progress");
        assert!(report.messages_delivered > 0);
        assert!(report.bytes_delivered > 0, "no bytes on the wire");
    }

    #[test]
    fn concurrent_runtime_survives_a_primary_crash() {
        // Regression: the client driver must keep draining replies between
        // retransmissions, or every client thread livelocks once the
        // crashed primary makes a request outlive its first deadline.
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(400), Duration::from_millis(10))
            .with_primary_crash(Instant::from_nanos(80_000_000))
            .with_runtime(RuntimeKind::Socket)
            .run();
        assert!(report.completed > 0);
        assert!(
            report.view_changes > 0,
            "the crash must have forced a view change"
        );
    }

    #[test]
    fn concurrent_runtime_is_bounded_even_beyond_fault_tolerance() {
        // A single-replica CFT deployment whose only replica crashes can
        // never complete another request; the wall-clock run must still
        // return when its window closes instead of retransmitting forever.
        let report = Scenario::new(ProtocolKind::Cft, 0, 0)
            .with_clients(1)
            .with_duration(Duration::from_millis(200), Duration::from_millis(10))
            .with_primary_crash(Instant::from_nanos(20_000_000))
            .with_runtime(RuntimeKind::Socket)
            .run();
        // Returning at all is the regression being tested; the report is a
        // bonus sanity check.
        assert!(report.measured_duration > Duration::ZERO);
    }

    #[test]
    fn mode_switch_completes_over_sockets() {
        // Regression: `with_mode_switch` used to be wired only through the
        // simulator's event queue, so wall-clock runs silently ignored it;
        // it is now delivered as a driver command.
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(400), Duration::from_millis(10))
            .with_mode_switch(Instant::from_nanos(100_000_000), Mode::Peacock)
            .with_runtime(RuntimeKind::Socket)
            .run();
        assert!(
            report.mode_switches > 0,
            "the scheduled mode switch must be delivered over sockets"
        );
        assert!(report.completed > 0);
    }

    #[test]
    fn kv_workload_flows_through_the_simulator_and_splits_classes() {
        // Regression: `Scenario::build` used to hardcode `Workload::micro`,
        // so simulated runs ignored the configured workload entirely.
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(8)
            .with_duration(Duration::from_millis(120), Duration::from_millis(20))
            .with_workload(crate::workload::Workload::kv(64, 32, 0.5))
            .run();
        assert!(report.completed > 0);
        assert!(report.reads.completed > 0, "reads must be generated");
        assert!(report.writes.completed > 0, "writes must be generated");
        assert_eq!(
            report.reads.completed + report.writes.completed,
            report.completed
        );
    }

    #[test]
    fn read_fraction_zero_reproduces_the_ordered_path_bit_for_bit() {
        let base = |fast: bool| {
            Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
                .with_clients(4)
                .with_duration(Duration::from_millis(100), Duration::from_millis(20))
                .with_workload(crate::workload::Workload::kv(32, 16, 0.0))
                .with_read_fast_path(fast)
                .run()
        };
        let fast_on = base(true);
        let fast_off = base(false);
        // With no reads generated, the fast-path flag changes nothing: the
        // runs are event-for-event identical.
        assert_eq!(fast_on.completed, fast_off.completed);
        assert_eq!(fast_on.messages_delivered, fast_off.messages_delivered);
        assert_eq!(fast_on.bytes_delivered, fast_off.bytes_delivered);
        assert_eq!(fast_on.reads.completed, 0);
        assert_eq!(fast_off.reads.completed, 0);
    }

    #[test]
    fn read_heavy_lion_outperforms_the_ordered_everything_path() {
        let run = |fast: bool| {
            Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
                .with_clients(16)
                .with_duration(Duration::from_millis(200), Duration::from_millis(40))
                .with_workload(crate::workload::Workload::kv(64, 32, 0.9))
                .with_read_fast_path(fast)
                .run()
        };
        let fast = run(true);
        let ordered = run(false);
        assert!(fast.reads.completed > 0);
        assert!(
            fast.throughput_kreqs > ordered.throughput_kreqs,
            "fast reads {:.2} kreq/s must beat ordered-everything {:.2} kreq/s",
            fast.throughput_kreqs,
            ordered.throughput_kreqs
        );
        // Fast-path reads skip agreement entirely, so they are also cheaper
        // per operation than the writes in the same run.
        assert!(
            fast.reads.avg_latency_ms < fast.writes.avg_latency_ms,
            "reads {:.3} ms vs writes {:.3} ms",
            fast.reads.avg_latency_ms,
            fast.writes.avg_latency_ms
        );
    }

    #[test]
    fn tracing_fills_phases_health_and_trace_on_every_runtime() {
        for kind in [RuntimeKind::Simulated, RuntimeKind::Socket] {
            let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
                .with_clients(2)
                .with_duration(Duration::from_millis(100), Duration::from_millis(10))
                .with_runtime(kind)
                .with_tracing(true)
                .run();
            assert!(report.completed > 0, "{}: no progress", kind.name());
            assert!(!report.trace.is_empty(), "{}: empty trace", kind.name());
            assert!(
                report.phases.requests() > 0,
                "{}: no phase spans derived",
                kind.name()
            );
            let lion = report
                .phases
                .cell(Mode::Lion, OpClass::Write)
                .expect("lion write cell");
            assert!(lion.requests > 0);
            // Six replicas for (c, m) = (1, 1), each with a health rollup.
            assert_eq!(report.health.len(), 6, "{}", kind.name());
            // Write percentiles extend to p99.9 and stay ordered.
            assert!(report.writes.p99_latency_ms <= report.writes.p999_latency_ms);
        }
    }

    #[test]
    fn tracing_does_not_change_the_simulated_history() {
        // The disabled recorder is a no-op and the enabled one only copies
        // values out; neither may perturb the protocol. On the deterministic
        // simulator the two runs must be event-for-event identical.
        let run = |tracing: bool| {
            Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
                .with_clients(4)
                .with_duration(Duration::from_millis(120), Duration::from_millis(20))
                .with_workload(crate::workload::Workload::kv(64, 32, 0.5))
                .with_tracing(tracing)
                .run()
        };
        let traced = run(true);
        let plain = run(false);
        assert_eq!(traced.completed, plain.completed);
        assert_eq!(traced.messages_delivered, plain.messages_delivered);
        assert_eq!(traced.bytes_delivered, plain.bytes_delivered);
        assert_eq!(traced.reads.completed, plain.reads.completed);
        assert_eq!(traced.writes.completed, plain.writes.completed);
        assert_eq!(traced.timeline.len(), plain.timeline.len());
        for (a, b) in traced.timeline.iter().zip(&plain.timeline) {
            assert_eq!(a.completed, b.completed);
        }
        assert!(!traced.trace.is_empty());
        assert!(plain.trace.is_empty());
    }

    #[test]
    fn socket_trace_round_trips_through_jsonl() {
        let report = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(100), Duration::from_millis(10))
            .with_runtime(RuntimeKind::Socket)
            .with_tracing(true)
            .run();
        assert!(!report.trace.is_empty());
        let text = seemore_telemetry::jsonl::trace_to_string(&report.trace);
        let parsed = seemore_telemetry::jsonl::parse_trace(&text).expect("trace parses back");
        assert_eq!(parsed, report.trace);
        // Socket runs also surface mesh reconnect totals in the report.
        let transport = report.transport.expect("socket runs report transport");
        assert!(transport.reconnects > 0, "initial dials count as connects");
    }

    #[test]
    fn mode_switch_scenario_switches_modes() {
        let scenario = Scenario::new(ProtocolKind::SeeMoReLion, 1, 1)
            .with_clients(2)
            .with_duration(Duration::from_millis(200), Duration::from_millis(10))
            .with_mode_switch(Instant::from_nanos(50_000_000), Mode::Peacock);
        let (mut sim, _) = scenario.build();
        sim.run_until(Instant::ZERO + scenario.duration);
        let report = sim.report(Instant::ZERO + scenario.warmup, scenario.timeline_bucket);
        assert!(
            report.mode_switches > 0,
            "mode switch should have been installed"
        );
        // All replicas ended up in the Peacock mode.
        for replica in sim.replica_ids() {
            assert_eq!(sim.replica(replica).mode(), Mode::Peacock);
        }
        assert!(report.completed > 0);
    }
}
