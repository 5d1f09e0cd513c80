//! A deterministic discrete-event simulator for sans-IO protocol cores.
//!
//! The simulator owns a set of replica cores and client cores, an event
//! queue ordered by virtual time, and the network/CPU models from
//! `seemore-net`. Each node processes one message at a time: a message that
//! arrives while its destination is busy queues behind the in-progress work,
//! which is what makes throughput saturate as load increases — the effect
//! the paper's throughput/latency curves measure.
//!
//! Determinism: all randomness (latency jitter, link faults, workload
//! operations) comes from a single seeded RNG, and ties in virtual time are
//! broken by insertion order, so a given seed always reproduces the same
//! run.
//!
//! This is one of two execution substrates (see the crate docs): use the
//! simulator for reproducible figures and parameter sweeps in virtual time,
//! and [`crate::socket`] when real concurrency, codec and socket costs
//! should be part of the measurement.
//!
//! # Batching
//!
//! The unit of ordering is a batch of client requests (see
//! `seemore_core::batching`). The simulator needs no batching logic of its
//! own: the policy — static knobs or the adaptive AIMD controller — lives
//! in the replica cores, configured through `ProtocolConfig::batch` (or
//! `Scenario::with_batching` / `Scenario::with_adaptive_batching`), and its
//! latency trigger is the cores' generation-tagged `Timer::BatchFlush`,
//! which flows through the same `SetTimer` / timer-generation machinery as
//! every other protocol timer (the per-identity generations here and the
//! in-timer generation tag are independent defences: either alone suppresses
//! a stale flush). Because a cap-1 core never arms the flush timer or
//! buffers a request, runs with batching disabled are event-for-event
//! identical to the pre-batching simulator, and a fixed seed still
//! reproduces them exactly. The sizes the controller actually chose are
//! aggregated into `RunReport::batching` by [`Simulation::report`].

use crate::workload::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use seemore_core::actions::{Action, Timer};
use seemore_core::client::{ClientOutcome, ClientProtocol};
use seemore_core::protocol::ReplicaProtocol;
use seemore_net::{CpuModel, LatencyModel, LinkDecision, LinkFaults, Placement};
use seemore_types::{ClientId, Duration, Instant, Mode, NodeId, OpClass, ReplicaId};
use seemore_wire::{Message, WireSize};
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Static configuration of a simulation.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Link latency model.
    pub latency: LatencyModel,
    /// Per-message processing cost model.
    pub cpu: CpuModel,
    /// Link fault injection.
    pub faults: LinkFaults,
    /// Endpoint placement (which cloud each replica lives in).
    pub placement: Placement,
    /// RNG seed; a given seed reproduces the same run exactly.
    pub seed: u64,
}

#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Deliver dominates and is the common case
enum EventKind {
    Deliver {
        from: NodeId,
        to: NodeId,
        message: Message,
    },
    ReplicaTimer {
        replica: ReplicaId,
        timer: Timer,
        generation: u64,
    },
    ClientTimer {
        client: ClientId,
        generation: u64,
    },
    ClientSubmit {
        client: ClientId,
    },
    Crash {
        replica: ReplicaId,
    },
    Recover {
        replica: ReplicaId,
    },
    ModeSwitch {
        replica: ReplicaId,
        mode: Mode,
    },
}

struct Event {
    at: Instant,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// The discrete-event simulator.
pub struct Simulation {
    config: SimConfig,
    rng: SmallRng,
    now: Instant,
    next_seq: u64,
    events: BinaryHeap<Event>,
    replicas: BTreeMap<ReplicaId, Box<dyn ReplicaProtocol>>,
    /// Builders invoked by a scheduled [`EventKind::Recover`]: each returns
    /// a fresh core rebuilt from the replica's durable store, replacing the
    /// crashed one (the simulated analogue of a process restart).
    recover_factories: BTreeMap<ReplicaId, Box<dyn Fn() -> Box<dyn ReplicaProtocol> + Send>>,
    clients: BTreeMap<ClientId, Box<dyn ClientProtocol>>,
    workloads: BTreeMap<ClientId, Workload>,
    /// Whether each client keeps submitting a new request after completing
    /// the previous one (closed loop).
    closed_loop: bool,
    /// Whether read-classified operations take the client's fast path
    /// (true, the default) or are downgraded to the ordered path (the
    /// ordered arm of `seemore-bench` ablation 9).
    read_fast_path: bool,
    replica_timer_gen: HashMap<(ReplicaId, Timer), u64>,
    client_timer_gen: HashMap<ClientId, u64>,
    busy_until: HashMap<NodeId, Instant>,
    completions: Vec<ClientOutcome>,
    messages_delivered: u64,
    bytes_delivered: u64,
    submit_stop: Instant,
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new(config: SimConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        Simulation {
            config,
            rng,
            now: Instant::ZERO,
            next_seq: 0,
            events: BinaryHeap::new(),
            replicas: BTreeMap::new(),
            recover_factories: BTreeMap::new(),
            clients: BTreeMap::new(),
            workloads: BTreeMap::new(),
            closed_loop: true,
            read_fast_path: true,
            replica_timer_gen: HashMap::new(),
            client_timer_gen: HashMap::new(),
            busy_until: HashMap::new(),
            completions: Vec::new(),
            messages_delivered: 0,
            bytes_delivered: 0,
            submit_stop: Instant::from_nanos(u64::MAX),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Completed client requests so far.
    pub fn completions(&self) -> &[ClientOutcome] {
        &self.completions
    }

    /// Messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Bytes delivered so far (wire-size model).
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Access to a replica (for assertions in tests and examples).
    pub fn replica(&self, id: ReplicaId) -> &dyn ReplicaProtocol {
        self.replicas.get(&id).expect("unknown replica").as_ref()
    }

    /// Replica ids registered in the simulation.
    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        self.replicas.keys().copied().collect()
    }

    /// Access to a client.
    pub fn client(&self, id: ClientId) -> &dyn ClientProtocol {
        self.clients.get(&id).expect("unknown client").as_ref()
    }

    /// Mutable access to the link fault model (to create partitions mid-run).
    pub fn faults_mut(&mut self) -> &mut LinkFaults {
        &mut self.config.faults
    }

    /// Disables the closed loop: clients submit only what the test schedules.
    pub fn set_closed_loop(&mut self, enabled: bool) {
        self.closed_loop = enabled;
    }

    /// Enables or disables the read fast path: when disabled, reads are
    /// downgraded to the ordered path at submission (every other aspect of
    /// the run — RNG draws, operation bytes — is identical, which is what
    /// makes ablation 9's fast and ordered columns comparable).
    pub fn set_read_fast_path(&mut self, enabled: bool) {
        self.read_fast_path = enabled;
    }

    /// Stops issuing new requests after `at` (in-flight requests still
    /// complete). Used to wind a run down cleanly.
    pub fn stop_submissions_at(&mut self, at: Instant) {
        self.submit_stop = at;
    }

    /// Registers a replica core.
    pub fn add_replica(&mut self, replica: Box<dyn ReplicaProtocol>) {
        self.replicas.insert(replica.id(), replica);
    }

    /// Registers a client core with its workload; the client submits its
    /// first request at `first_submit`.
    pub fn add_client<C: ClientProtocol + 'static>(
        &mut self,
        client: C,
        workload: Workload,
        first_submit: Instant,
    ) {
        let id = client.id();
        self.clients.insert(id, Box::new(client));
        self.workloads.insert(id, workload);
        self.push_event(first_submit, EventKind::ClientSubmit { client: id });
    }

    /// Schedules a crash (fail-stop) of `replica` at `at`.
    pub fn schedule_crash(&mut self, at: Instant, replica: ReplicaId) {
        self.push_event(at, EventKind::Crash { replica });
    }

    /// Registers the builder a scheduled recovery of `replica` uses to
    /// rebuild its core from the durable store.
    pub fn set_recover_factory(
        &mut self,
        replica: ReplicaId,
        factory: Box<dyn Fn() -> Box<dyn ReplicaProtocol> + Send>,
    ) {
        self.recover_factories.insert(replica, factory);
    }

    /// Schedules a restart of `replica` at `at`: its core is replaced by a
    /// fresh one from the registered factory (see
    /// [`set_recover_factory`](Self::set_recover_factory)) and `on_start`
    /// runs, announcing the rejoin. Timers armed by the previous incarnation
    /// are invalidated — a restarted process has no memory of them.
    pub fn schedule_recover(&mut self, at: Instant, replica: ReplicaId) {
        self.push_event(at, EventKind::Recover { replica });
    }

    /// Schedules a mode-switch announcement on `replica` at `at`.
    pub fn schedule_mode_switch(&mut self, at: Instant, replica: ReplicaId, mode: Mode) {
        self.push_event(at, EventKind::ModeSwitch { replica, mode });
    }

    fn push_event(&mut self, at: Instant, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event { at, seq, kind });
    }

    /// Runs the simulation until virtual time `deadline` (inclusive of
    /// events scheduled exactly at the deadline).
    pub fn run_until(&mut self, deadline: Instant) {
        while let Some(event) = self.events.peek() {
            if event.at > deadline {
                break;
            }
            let event = self.events.pop().expect("peeked");
            self.now = event.at;
            self.handle(event.kind);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until the event queue drains completely (useful for small tests;
    /// closed-loop workloads never drain, so cap submissions first).
    pub fn run_to_idle(&mut self, max_events: u64) {
        let mut handled = 0u64;
        while let Some(event) = self.events.pop() {
            handled += 1;
            assert!(
                handled <= max_events,
                "simulation did not quiesce after {max_events} events"
            );
            self.now = event.at;
            self.handle(event.kind);
        }
    }

    /// Whether a timer identity is armed at most once for the life of a run
    /// (generation-tagged identities like `BatchFlush`). Re-armable
    /// identities must keep their generation entry so a stale queued event
    /// cannot collide with a fresh arming; single-shot identities can have
    /// it reclaimed on fire or cancel.
    fn timer_is_single_shot(timer: &Timer) -> bool {
        matches!(timer, Timer::BatchFlush { .. })
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { from, to, message } => self.deliver(from, to, message),
            EventKind::ReplicaTimer {
                replica,
                timer,
                generation,
            } => {
                let current = self
                    .replica_timer_gen
                    .get(&(replica, timer))
                    .copied()
                    .unwrap_or(0);
                if current != generation {
                    return; // cancelled or re-armed
                }
                if Self::timer_is_single_shot(&timer) {
                    // A generation-tagged identity is armed exactly once;
                    // reclaim its map entry so the generation map does not
                    // grow with every flush timer ever armed.
                    self.replica_timer_gen.remove(&(replica, timer));
                }
                let now = self.now;
                let actions = match self.replicas.get_mut(&replica) {
                    Some(core) => core.on_timer(timer, now),
                    None => Vec::new(),
                };
                self.apply_actions(NodeId::Replica(replica), actions);
            }
            EventKind::ClientTimer { client, generation } => {
                let current = self.client_timer_gen.get(&client).copied().unwrap_or(0);
                if current != generation {
                    return;
                }
                let now = self.now;
                let actions = match self.clients.get_mut(&client) {
                    Some(core) => core.on_retransmit_timer(now),
                    None => Vec::new(),
                };
                self.apply_actions(NodeId::Client(client), actions);
            }
            EventKind::ClientSubmit { client } => self.client_submit(client),
            EventKind::Crash { replica } => {
                if let Some(core) = self.replicas.get_mut(&replica) {
                    core.crash();
                }
            }
            EventKind::Recover { replica } => {
                let Some(factory) = self.recover_factories.get(&replica) else {
                    return;
                };
                let mut core = factory();
                assert_eq!(core.id(), replica, "recover factory built the wrong core");
                // Invalidate every timer the dead incarnation armed: bumping
                // the generation makes pending events stale without colliding
                // with arms the new core performs.
                for ((r, _), generation) in self.replica_timer_gen.iter_mut() {
                    if *r == replica {
                        *generation += 1;
                    }
                }
                let now = self.now;
                let actions = core.on_start(now);
                self.replicas.insert(replica, core);
                self.apply_actions(NodeId::Replica(replica), actions);
            }
            EventKind::ModeSwitch { replica, mode } => {
                let now = self.now;
                let actions = match self.replicas.get_mut(&replica) {
                    Some(core) => core.request_mode_switch(mode, now),
                    None => Vec::new(),
                };
                self.apply_actions(NodeId::Replica(replica), actions);
            }
        }
    }

    fn client_submit(&mut self, client: ClientId) {
        if self.now > self.submit_stop {
            return;
        }
        let Some(workload) = self.workloads.get(&client) else {
            return;
        };
        let (op, class) = workload.next_classified(&mut self.rng);
        let class = if self.read_fast_path {
            class
        } else {
            OpClass::Write
        };
        let now = self.now;
        let Some(core) = self.clients.get_mut(&client) else {
            return;
        };
        if core.has_pending() {
            return;
        }
        let actions = core.submit_op(op, class, now);
        self.apply_actions(NodeId::Client(client), actions);
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, message: Message) {
        self.messages_delivered += 1;
        self.bytes_delivered += message.wire_size() as u64;

        // The destination processes messages one at a time: processing starts
        // when both the message has arrived and the node is free.
        let cost = self.config.cpu.cost(&message);
        let start = self
            .now
            .max(self.busy_until.get(&to).copied().unwrap_or(Instant::ZERO));
        let done = start + cost;
        self.busy_until.insert(to, done);

        match to {
            NodeId::Replica(id) => {
                let Some(core) = self.replicas.get_mut(&id) else {
                    return;
                };
                let actions = core.on_message(from, message, done);
                self.apply_actions(to, actions);
            }
            NodeId::Client(id) => {
                let Some(core) = self.clients.get_mut(&id) else {
                    return;
                };
                let actions = core.on_message(from, message, done);
                // Collect completions and keep the closed loop going.
                let finished = core.take_completed();
                let had_completion = !finished.is_empty();
                self.completions.extend(finished);
                self.apply_actions(to, actions);
                if had_completion && self.closed_loop && done <= self.submit_stop {
                    self.push_event(done, EventKind::ClientSubmit { client: id });
                }
            }
        }
    }

    fn apply_actions(&mut self, from: NodeId, actions: Vec<Action>) {
        // A broadcast clones one signed message to many recipients; the sender
        // signs once and then only serializes per copy. Track which messages
        // (by kind and size) have already paid their signature cost in this
        // batch so later copies are charged serialization only.
        let mut signed_already: Vec<(seemore_wire::MessageKind, usize)> = Vec::new();
        for action in actions {
            match action {
                Action::Send { to, message } => {
                    let key = (message.kind(), message.wire_size());
                    let first_copy = !signed_already.contains(&key);
                    if first_copy {
                        signed_already.push(key);
                    }
                    self.send(from, to, message, first_copy);
                }
                Action::Broadcast { to, message } => {
                    // One signed message to many destinations: the first
                    // copy pays the signature cost, the rest pay
                    // serialization only — the CPU-model counterpart of the
                    // socket runtime's encode-once broadcast.
                    let key = (message.kind(), message.wire_size());
                    let mut first_copy = !signed_already.contains(&key);
                    if first_copy {
                        signed_already.push(key);
                    }
                    seemore_core::actions::fan_out(to, message, |peer, message| {
                        self.send(from, peer, message, first_copy);
                        first_copy = false;
                    });
                }
                Action::SetTimer { timer, after } => match from {
                    NodeId::Replica(id) => {
                        let generation = self.replica_timer_gen.entry((id, timer)).or_insert(0);
                        *generation += 1;
                        let generation = *generation;
                        self.push_event(
                            self.now + after,
                            EventKind::ReplicaTimer {
                                replica: id,
                                timer,
                                generation,
                            },
                        );
                    }
                    NodeId::Client(id) => {
                        let generation = self.client_timer_gen.entry(id).or_insert(0);
                        *generation += 1;
                        let generation = *generation;
                        self.push_event(
                            self.now + after,
                            EventKind::ClientTimer {
                                client: id,
                                generation,
                            },
                        );
                    }
                },
                Action::CancelTimer { timer } => match from {
                    NodeId::Replica(id) => {
                        if Self::timer_is_single_shot(&timer) {
                            // Removing the entry (value 1, the single arming)
                            // makes the pending event's generation check read
                            // 0 and skip, and the identity is never re-armed
                            // — so the map stays bounded instead of keeping a
                            // dead entry per cancelled flush timer.
                            self.replica_timer_gen.remove(&(id, timer));
                        } else {
                            *self.replica_timer_gen.entry((id, timer)).or_insert(0) += 1;
                        }
                    }
                    NodeId::Client(id) => {
                        *self.client_timer_gen.entry(id).or_insert(0) += 1;
                    }
                },
                Action::Executed { .. } | Action::Violation(_) => {}
            }
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId, message: Message, first_copy: bool) {
        // Sending also occupies the sender: signing (first copy only) plus
        // serialization for every copy.
        let cost = if first_copy {
            self.config.cpu.cost(&message)
        } else {
            self.config.cpu.serialization_cost(&message)
        };
        let departure = self
            .now
            .max(self.busy_until.get(&from).copied().unwrap_or(Instant::ZERO))
            + cost;
        self.busy_until.insert(from, departure);

        match self.config.faults.decide(from, to, &mut self.rng) {
            LinkDecision::Drop => {}
            LinkDecision::Deliver {
                copies,
                extra_delay,
            } => {
                for _ in 0..copies {
                    let delay = self.config.latency.delay(
                        &self.config.placement,
                        from,
                        to,
                        message.wire_size(),
                        &mut self.rng,
                    );
                    let arrival = departure + delay + extra_delay;
                    self.push_event(
                        arrival,
                        EventKind::Deliver {
                            from,
                            to,
                            message: message.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Merged metrics from every replica.
    pub fn merged_replica_metrics(&self) -> seemore_core::metrics::ReplicaMetrics {
        let mut merged = seemore_core::metrics::ReplicaMetrics::default();
        for replica in self.replicas.values() {
            merged.merge(replica.metrics());
        }
        merged
    }

    /// Total client retransmissions.
    pub fn total_retransmissions(&self) -> u64 {
        self.clients.values().map(|c| c.retransmissions()).sum()
    }

    /// Builds a [`crate::RunReport`] for the window `[measure_from, now]`.
    pub fn report(&self, measure_from: Instant, bucket: Duration) -> crate::RunReport {
        let mut report =
            crate::RunReport::from_outcomes(&self.completions, measure_from, self.now, bucket);
        let metrics = self.merged_replica_metrics();
        report.messages_delivered = self.messages_delivered;
        report.bytes_delivered = self.bytes_delivered;
        report.view_changes = metrics.view_changes_completed;
        report.mode_switches = metrics.mode_switches;
        report.retransmissions = self.total_retransmissions();
        report.batching = crate::report::BatchReport::from_telemetry(&metrics.batch);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_app::NoopApp;
    use seemore_core::client::ClientCore;
    use seemore_core::config::ProtocolConfig;
    use seemore_core::replica::SeeMoReReplica;
    use seemore_crypto::KeyStore;
    use seemore_types::ClusterConfig;

    fn build_sim(mode: Mode, clients: u64) -> (Simulation, ClusterConfig) {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(42, cluster.total_size(), clients);
        let config = SimConfig {
            latency: LatencyModel::same_region(),
            cpu: CpuModel::default(),
            faults: LinkFaults::none(),
            placement: Placement::hybrid(cluster),
            seed: 7,
        };
        let mut sim = Simulation::new(config);
        for replica in cluster.replicas() {
            sim.add_replica(Box::new(SeeMoReReplica::new(
                replica,
                cluster,
                ProtocolConfig::default(),
                keystore.clone(),
                mode,
                Box::new(NoopApp::new(0)),
            )));
        }
        for client in 0..clients {
            sim.add_client(
                ClientCore::new(
                    ClientId(client),
                    cluster,
                    keystore.clone(),
                    mode,
                    Duration::from_millis(50),
                ),
                Workload::micro_0_0(),
                Instant::from_nanos(client * 1_000),
            );
        }
        (sim, cluster)
    }

    #[test]
    fn closed_loop_clients_complete_many_requests() {
        let (mut sim, cluster) = build_sim(Mode::Lion, 2);
        sim.run_until(Instant::from_nanos(50_000_000)); // 50 ms of virtual time
        assert!(
            sim.completions().len() > 20,
            "expected steady progress, got {}",
            sim.completions().len()
        );
        // All replicas stayed in view 0 (no spurious view changes).
        for replica in cluster.replicas() {
            assert_eq!(sim.replica(replica).view(), seemore_types::View(0));
        }
        assert!(sim.messages_delivered() > 100);
        assert!(sim.bytes_delivered() > 0);
    }

    #[test]
    fn simulation_is_deterministic_for_a_seed() {
        let (mut a, _) = build_sim(Mode::Dog, 2);
        let (mut b, _) = build_sim(Mode::Dog, 2);
        a.run_until(Instant::from_nanos(20_000_000));
        b.run_until(Instant::from_nanos(20_000_000));
        assert_eq!(a.completions().len(), b.completions().len());
        assert_eq!(a.messages_delivered(), b.messages_delivered());
        assert_eq!(a.bytes_delivered(), b.bytes_delivered());
    }

    #[test]
    fn crash_of_the_primary_triggers_a_view_change_and_progress_resumes() {
        let (mut sim, cluster) = build_sim(Mode::Lion, 2);
        // Crash the view-0 primary after 10 ms.
        let primary = cluster.primary(Mode::Lion, seemore_types::View(0)).unwrap();
        sim.schedule_crash(Instant::from_nanos(10_000_000), primary);
        sim.run_until(Instant::from_nanos(2_000_000_000)); // 2 s
        let report = sim.report(Instant::ZERO, Duration::from_millis(10));
        assert!(
            report.view_changes > 0,
            "a view change should have completed"
        );
        // Requests completed both before and after the crash.
        let after_crash = sim
            .completions()
            .iter()
            .filter(|o| o.completed_at > Instant::from_nanos(1_000_000_000))
            .count();
        assert!(after_crash > 0, "no progress after the view change");
    }

    #[test]
    fn report_reflects_throughput_and_latency() {
        let (mut sim, _) = build_sim(Mode::Peacock, 4);
        sim.run_until(Instant::from_nanos(50_000_000));
        let report = sim.report(Instant::from_nanos(10_000_000), Duration::from_millis(5));
        assert!(report.completed > 0);
        assert!(report.throughput_kreqs > 0.0);
        assert!(report.avg_latency_ms > 0.0);
        assert!(report.p50_latency_ms <= report.p99_latency_ms);
        assert!(!report.timeline.is_empty());
    }

    #[test]
    fn flush_timer_generations_do_not_leak_map_entries() {
        // Every armed BatchFlush carries a fresh generation, i.e. a fresh
        // key in the simulator's timer-generation map. Those keys are
        // single-shot and must be reclaimed on fire/cancel, or a long
        // batched run grows the map by one dead entry per buffered batch.
        use seemore_core::config::{BatchPolicy, ProtocolConfig};

        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(17, cluster.total_size(), 4);
        let config = SimConfig {
            latency: LatencyModel::same_region(),
            cpu: CpuModel::default(),
            faults: LinkFaults::none(),
            placement: Placement::hybrid(cluster),
            seed: 3,
        };
        let mut sim = Simulation::new(config);
        let pconfig = ProtocolConfig::default()
            .with_batch_policy(BatchPolicy::adaptive(16, Duration::from_micros(200)));
        for replica in cluster.replicas() {
            sim.add_replica(Box::new(SeeMoReReplica::new(
                replica,
                cluster,
                pconfig,
                keystore.clone(),
                Mode::Lion,
                Box::new(NoopApp::new(0)),
            )));
        }
        for client in 0..4 {
            sim.add_client(
                ClientCore::new(
                    ClientId(client),
                    cluster,
                    keystore.clone(),
                    Mode::Lion,
                    Duration::from_millis(50),
                ),
                Workload::micro_0_0(),
                Instant::from_nanos(client * 1_000),
            );
        }
        sim.run_until(Instant::from_nanos(100_000_000));
        let report = sim.report(Instant::ZERO, Duration::from_millis(10));
        assert!(report.batching.batches > 50, "batching was exercised");
        let live_flush_entries = sim
            .replica_timer_gen
            .keys()
            .filter(|(_, timer)| matches!(timer, Timer::BatchFlush { .. }))
            .count();
        assert!(
            live_flush_entries <= cluster.total_size() as usize,
            "{live_flush_entries} flush-timer generation entries survive \
             (at most one armed timer per replica should)"
        );
    }

    #[test]
    fn lossy_network_still_makes_progress() {
        let cluster = ClusterConfig::minimal(1, 1).unwrap();
        let keystore = KeyStore::generate(43, cluster.total_size(), 1);
        let config = SimConfig {
            latency: LatencyModel::same_region(),
            cpu: CpuModel::default(),
            faults: LinkFaults::chaotic(0.05, 0.05, 0.05),
            placement: Placement::hybrid(cluster),
            seed: 11,
        };
        let mut sim = Simulation::new(config);
        for replica in cluster.replicas() {
            sim.add_replica(Box::new(SeeMoReReplica::new(
                replica,
                cluster,
                ProtocolConfig::default(),
                keystore.clone(),
                Mode::Lion,
                Box::new(NoopApp::new(0)),
            )));
        }
        sim.add_client(
            ClientCore::new(
                ClientId(0),
                cluster,
                keystore,
                Mode::Lion,
                Duration::from_millis(20),
            ),
            Workload::micro_0_0(),
            Instant::ZERO,
        );
        sim.run_until(Instant::from_nanos(500_000_000));
        assert!(
            !sim.completions().is_empty(),
            "drops/duplicates/reordering must not prevent progress"
        );
    }
}
