//! The load generator: one blocking thread per logical client (`client-N`),
//! which is the only client API the runtime offers, plus the main thread,
//! which samples process CPU at segment boundaries and plays the fault
//! script. Inputs are generated and encoded before any clock starts; a client
//! thread only indexes its pool.

use crate::adapter::{self, Client, Cluster, EncodedOp, Ended, Reply, TransportCounters};
use crate::procfs::{self, Calibration};
use crate::workloads::{self, Op, Spec};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How long client threads get to finish the operation they have in flight
/// once told to stop — well over `2 × client_timeout`.
const DRAIN: Duration = Duration::from_secs(5);

/// Completed operations (all clients) at which peak memory is read. A fixed
/// count, not a fixed time: replicas keep their whole execution history, so
/// memory at a fixed time grows with speed and would punish a faster program.
const PEAK_RSS_AT_OPS: u64 = 2_000;

/// How often the main thread samples the machine's slowdown factor during
/// the window (about 0.5 ms of CPU each time).
const CALIBRATE_EVERY: Duration = Duration::from_millis(200);

/// Pause between the last reply and shutdown, so commit notifications still
/// in flight reach the slower replicas before their histories are compared.
const QUIESCE: Duration = Duration::from_millis(100);

/// Every client's operations, abstract (for the checker) and encoded (for the
/// program), generated from the seed alone.
pub struct Inputs {
    pub ops: Vec<Vec<Op>>,
    pools: Vec<Arc<Vec<EncodedOp>>>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let ops: Vec<Vec<Op>> = (0..spec.clients)
            .map(|client| workloads::operations(spec, seed, client))
            .collect();
        let pools = ops
            .iter()
            .enumerate()
            .map(|(client, ops)| {
                Arc::new(
                    ops.iter()
                        .map(|op| adapter::encode(spec, client, *op))
                        .collect(),
                )
            })
            .collect();
        Inputs { ops, pools }
    }
}

/// One completed operation.
#[derive(Debug)]
pub struct Sample {
    /// Position in the client's stream (its pool index is this modulo the
    /// pool length).
    pub position: u64,
    /// When the reply quorum was accepted, ns since the epoch.
    pub done_ns: u64,
    pub read: bool,
    pub reply: Reply,
}

#[derive(Debug, Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    /// Operations handed to the client core, completed or not.
    pub attempted: u64,
    pub retransmissions: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warmup_s: f64,
    pub window_s: f64,
    /// Equal parts of the window, each measured on its own.
    pub segments: usize,
    /// Play the fault script once the window has closed, while the clients go
    /// on for `AFTERMATH_S`: crash the private backup, recover it from its
    /// store a second later, crash the view-0 primary a second after that.
    /// Every run plays, checks and reports the faults, but outside the window
    /// the gated metrics come from — the README says why.
    pub faults: bool,
}

/// How long a faulted run keeps offering load after its window.
pub const AFTERMATH_S: f64 = 4.5;

/// What the main thread observed while the clients ran.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Segment boundaries: time (ns since the epoch) and process CPU (µs) at
    /// each; `segments + 1` entries.
    pub boundaries: Vec<(u64, f64)>,
    pub threads_before: Vec<(String, f64)>,
    pub threads_after: Vec<(String, f64)>,
    pub transport_before: TransportCounters,
    pub transport_after: TransportCounters,
    /// Peak resident memory (`VmHWM`) when the session's 2000th operation
    /// completed, or at the window's end in a run too short to get there.
    pub peak_rss_mb: f64,
    /// Resident memory at the window's two ends.
    pub rss_mb: (f64, f64),
    pub primary_crashed_ns: Option<u64>,
    /// The machine's slowdown factor, sampled every `CALIBRATE_EVERY` of the
    /// window: time (ns since the epoch) and factor.
    pub slowdown: Vec<(u64, f64)>,
}

/// What client threads share beyond their own logs.
#[derive(Debug, Default)]
struct Progress {
    completed: AtomicU64,
    /// `VmHWM` when the `PEAK_RSS_AT_OPS`th operation completed.
    peak_rss_mb: OnceLock<f64>,
}

pub struct Session {
    cluster: Arc<Cluster>,
    epoch: Instant,
    clients: Vec<Option<Client>>,
    logs: Vec<Arc<Mutex<ClientLog>>>,
    progress: Arc<Progress>,
    calibration: Calibration,
    /// Keygen, prefill, bind, spawn and the first committed reply, and the
    /// machine's slowdown factor right after it.
    pub setup_s: f64,
    pub setup_slowdown: f64,
    pub spawn_ms: f64,
}

fn lock(log: &Mutex<ClientLog>) -> std::sync::MutexGuard<'_, ClientLog> {
    log.lock()
        .expect("no code panics while holding a client log")
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn sleep_until(epoch: Instant, at: Duration) {
    if let Some(wait) = at.checked_sub(epoch.elapsed()) {
        std::thread::sleep(wait);
    }
}

impl Session {
    /// Starts the cluster and commits one operation through it.
    pub fn open(
        spec: &Spec,
        seed: u64,
        inputs: &Inputs,
        store_dir: &Path,
        traced: bool,
    ) -> io::Result<Session> {
        let epoch = Instant::now();
        let cluster = Cluster::start(spec, seed, store_dir, traced.then_some(epoch))?;
        let logs: Vec<Arc<Mutex<ClientLog>>> = (0..spec.clients)
            .map(|_| {
                // Room for a run's samples up front, so that no reallocation
                // copy lands inside the measured window.
                Arc::new(Mutex::new(ClientLog {
                    samples: Vec::with_capacity(1 << 17),
                    ..ClientLog::default()
                }))
            })
            .collect();
        let mut clients: Vec<Option<Client>> =
            (0..spec.clients).map(|i| Some(cluster.client(i))).collect();
        let progress = Arc::new(Progress::default());
        let first = clients[0].take().expect("just built");
        let lane = Lane {
            cluster: &cluster,
            pool: &inputs.pools[0],
            epoch,
            log: &logs[0],
            progress: &progress,
        };
        clients[0] = Some(lane.step(first));
        let setup_s = epoch.elapsed().as_secs_f64();
        let calibration = Calibration::new()?;
        Ok(Session {
            setup_slowdown: calibration.factor(),
            calibration,
            spawn_ms: cluster.spawn_ms,
            cluster: Arc::new(cluster),
            epoch,
            clients,
            logs,
            progress,
            setup_s,
        })
    }

    /// The replica that leads view 0.
    pub fn primary(&self) -> u32 {
        self.cluster.primary()
    }

    /// Offers load for the warm-up and the window, then lets the clients
    /// finish what they have in flight.
    pub fn run(&mut self, spec: &Spec, inputs: &Inputs, schedule: Schedule) -> Timeline {
        let epoch = self.epoch;
        let started = epoch.elapsed();
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for index in 0..spec.clients {
            let client = self.clients[index]
                .take()
                .expect("a client is handed back unless its thread hung");
            let cluster = Arc::clone(&self.cluster);
            let pool = Arc::clone(&inputs.pools[index]);
            let log = Arc::clone(&self.logs[index]);
            let progress = Arc::clone(&self.progress);
            let stop = Arc::clone(&stop);
            let thread = std::thread::Builder::new()
                .name(format!("client-{index}"))
                .spawn(move || {
                    let mut client = client;
                    let lane = Lane {
                        cluster: &cluster,
                        pool: &pool,
                        epoch,
                        log: &log,
                        progress: &progress,
                    };
                    while !stop.load(Ordering::Relaxed) {
                        client = lane.step(client);
                    }
                    client
                })
                .expect("spawn client thread");
            threads.push(thread);
        }

        let window_from = started + Duration::from_secs_f64(schedule.warmup_s);
        let window = Duration::from_secs_f64(schedule.window_s);
        // Everything the main thread does, in time order.
        enum Tick {
            Boundary,
            Calibrate,
            Crash(u32),
            Recover(u32),
            End,
        }
        let mut ticks: Vec<(Duration, Tick)> = (0..=schedule.segments)
            .map(|k| {
                let part = k as f64 / schedule.segments as f64;
                (window_from + window.mul_f64(part), Tick::Boundary)
            })
            .collect();
        let samples = (schedule.window_s / CALIBRATE_EVERY.as_secs_f64()) as u32;
        ticks.extend((0..samples).map(|k| {
            // Off the boundaries, so the two never contend for one instant.
            let at = window_from + CALIBRATE_EVERY * k + CALIBRATE_EVERY / 2;
            (at, Tick::Calibrate)
        }));
        ticks.sort_by_key(|(at, _)| *at);
        let primary = self.cluster.primary();
        if schedule.faults {
            let backup = self.cluster.backup_beside_primary();
            let after = |seconds| window_from + window + Duration::from_secs(seconds);
            ticks.push((after(0), Tick::Crash(backup)));
            ticks.push((after(1), Tick::Recover(backup)));
            ticks.push((after(2), Tick::Crash(primary)));
            ticks.push((
                window_from + window + Duration::from_secs_f64(AFTERMATH_S),
                Tick::End,
            ));
        }

        let mut timeline = Timeline::default();
        for (at, tick) in ticks {
            sleep_until(epoch, at);
            match tick {
                Tick::Boundary => {
                    timeline
                        .boundaries
                        .push((since(epoch), procfs::process_cpu_us()));
                    if timeline.boundaries.len() == 1 {
                        timeline.threads_before = procfs::thread_cpu_us();
                        timeline.transport_before = self.cluster.transport();
                        timeline.rss_mb.0 = procfs::rss_mb();
                    } else if timeline.boundaries.len() > schedule.segments {
                        timeline.threads_after = procfs::thread_cpu_us();
                        timeline.transport_after = self.cluster.transport();
                        timeline.rss_mb.1 = procfs::rss_mb();
                    }
                }
                Tick::Calibrate => {
                    let factor = self.calibration.factor();
                    timeline.slowdown.push((since(epoch), factor));
                }
                Tick::Crash(replica) => {
                    self.cluster.crash(replica);
                    if replica == primary {
                        timeline.primary_crashed_ns = Some(since(epoch));
                    }
                }
                Tick::Recover(replica) => self.cluster.recover(replica),
                Tick::End => {}
            }
        }
        timeline.peak_rss_mb = *self.progress.peak_rss_mb.get_or_init(procfs::peak_rss_mb);
        stop.store(true, Ordering::Relaxed);

        let deadline = Instant::now() + DRAIN;
        for (index, thread) in threads.into_iter().enumerate() {
            while !thread.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if thread.is_finished() {
                let client = thread.join().expect("client thread panicked");
                lock(&self.logs[index]).retransmissions = client.retransmissions();
                self.clients[index] = Some(client);
            }
            // A thread still blocked in `run_client` keeps its operation
            // counted as attempted and never completed; it is left behind
            // and ends with the process.
        }
        timeline
    }

    /// Stops the cluster. `None` when a client thread hung and still holds
    /// the cluster, in which case there are no histories to check.
    pub fn close(self) -> (Vec<ClientLog>, Option<Ended>) {
        std::thread::sleep(QUIESCE);
        let ended = Arc::try_unwrap(self.cluster).ok().map(Cluster::shutdown);
        let logs = self
            .logs
            .iter()
            .map(|log| std::mem::take(&mut *lock(log)))
            .collect();
        (logs, ended)
    }
}

/// One client's way into the cluster and its log.
struct Lane<'a> {
    cluster: &'a Cluster,
    pool: &'a [EncodedOp],
    epoch: Instant,
    log: &'a Mutex<ClientLog>,
    progress: &'a Progress,
}

impl Lane<'_> {
    /// Sends the client's next operation and logs its completion.
    fn step(&self, client: Client) -> Client {
        let position = {
            let mut log = lock(self.log);
            log.attempted += 1;
            log.attempted - 1
        };
        let op = &self.pool[position as usize % self.pool.len()];
        let (client, reply) = self.cluster.submit(client, op);
        let done_ns = since(self.epoch);
        lock(self.log).samples.push(Sample {
            position,
            done_ns,
            read: op.read,
            reply,
        });
        if self.progress.completed.fetch_add(1, Ordering::Relaxed) + 1 == PEAK_RSS_AT_OPS {
            let _ = self.progress.peak_rss_mb.set(procfs::peak_rss_mb());
        }
        client
    }
}
