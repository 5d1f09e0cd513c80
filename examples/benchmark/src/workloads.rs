//! The seven workloads and their seeded inputs.
//!
//! A workload is plain data here: which protocol, which application, how
//! many clients, what they send. `adapter.rs` turns it into a cluster and
//! into encoded operations; nothing in this file touches the program under
//! test, so the program only ever sees inputs generated from `--seed`.

/// Which replication protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Lion,
    Dog,
    Peacock,
    /// The crash-only baseline, `f = 2` (five replicas, unsigned).
    Cft,
}

/// The replicated application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Ignores the request, replies with zero bytes.
    Noop { request_bytes: usize },
    /// Key-value store prefilled with `keys` keys of `VALUE_BYTES` each;
    /// clients draw keys from a Zipf distribution, half reads half writes.
    Kv { keys: usize },
    /// Empty key-value store; each client alternates `Put` and `Get` on its
    /// own key, writing a counter.
    KvCounter,
}

/// Where votes are persisted before they are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Store {
    None,
    Memory,
    /// Real files, `fsync` after every record.
    FileFsyncAlways,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists: the layers it loads and the ones it bypasses.
    pub why: &'static str,
    pub protocol: Protocol,
    pub app: App,
    pub clients: usize,
    /// Adaptive batching `(ceiling, max delay µs)`; `None` proposes every
    /// request in its own slot.
    pub batching: Option<(usize, u64)>,
    pub store: Store,
    /// Once the measured window has closed, crash a backup, recover it, crash
    /// the primary, with the clients still running (see `load::Schedule`).
    pub faults_after_window: bool,
}

pub const VALUE_BYTES: usize = 128;
const ZIPF_EXPONENT: f64 = 0.99;

/// Operations generated per client for the key-value workloads; a client
/// that gets through all of them starts over.
const KV_POOL_OPS: usize = 1 << 14;

pub const ALL: [Spec; 7] = [
    Spec {
        name: "lion_small",
        why: "Lion, empty request and reply, no batching or store: only fixed per-message cost in net and runtime",
        protocol: Protocol::Lion,
        app: App::Noop { request_bytes: 0 },
        clients: 2,
        batching: None,
        store: Store::None,
        faults_after_window: false,
    },
    Spec {
        name: "cft_small",
        why: "Crash-only baseline on the same load: the floor; lion_small minus this is the cost of signatures and the hybrid quorum",
        protocol: Protocol::Cft,
        app: App::Noop { request_bytes: 0 },
        clients: 2,
        batching: None,
        store: Store::None,
        faults_after_window: false,
    },
    Spec {
        name: "peacock_4k",
        why: "Peacock with 4 KB requests: three phases of signed all-to-all votes, so crypto, wire and net bytes dominate",
        protocol: Protocol::Peacock,
        app: App::Noop { request_bytes: 4096 },
        clients: 2,
        batching: None,
        store: Store::None,
        faults_after_window: false,
    },
    Spec {
        name: "kv_mixed_loaded",
        why: "Lion KV store, 1000 keys, Zipf, half reads, 8 clients, adaptive batching: batching, read fast path and queueing do the work",
        protocol: Protocol::Lion,
        app: App::Kv { keys: 1_000 },
        clients: 8,
        batching: Some((16, 500)),
        store: Store::None,
        faults_after_window: false,
    },
    Spec {
        name: "kv_large_state",
        why: "Same load on 40000 prefilled keys: the full-state digest at every checkpoint dominates and shows in the tail",
        protocol: Protocol::Lion,
        app: App::Kv { keys: 40_000 },
        clients: 8,
        batching: Some((16, 500)),
        store: Store::None,
        faults_after_window: false,
    },
    Spec {
        name: "lion_durable",
        why: "lion_small with 256 B requests and a file WAL synced on every vote: store append and fsync dominate",
        protocol: Protocol::Lion,
        app: App::Noop { request_bytes: 256 },
        clients: 2,
        batching: None,
        store: Store::FileFsyncAlways,
        faults_after_window: false,
    },
    Spec {
        name: "dog_faults",
        why: "Dog KV with in-memory WAL, 2 clients on their own keys; after the window a backup crashes and rejoins, then the primary crashes",
        protocol: Protocol::Dog,
        app: App::KvCounter,
        clients: 2,
        batching: None,
        store: Store::Memory,
        faults_after_window: true,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|spec| spec.name == name)
}

/// One operation before encoding. Keys are indices; `adapter.rs` names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// An opaque payload of the workload's request size.
    Noop,
    /// Write `tag` (unique per client and position) under `key`.
    Put {
        key: u64,
        tag: u64,
    },
    Get {
        key: u64,
    },
}

/// splitmix64: the whole benchmark's only randomness, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` by a precomputed cumulative distribution and a
/// binary search: O(n) once, O(log n) per draw, where the program's own
/// `Workload::kv_skewed` walks every key with two `powf` on every draw.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += ((rank + 1) as f64).powf(-exponent);
            cdf.push(total);
        }
        for entry in &mut cdf {
            *entry /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&edge| edge <= u)
            .min(self.cdf.len() - 1)
    }

    /// Exact probability of `rank`.
    pub fn probability(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// The operations client `client` sends, in order; built before any clock
/// starts. A client that reaches the end starts again from the beginning.
///
/// Key-value workloads give every key one owner: client `c` only touches
/// keys `≡ c (mod clients)`, drawing the rank within its stripe from the Zipf
/// distribution. Popularity across the whole store stays skewed the same way,
/// and because clients are closed-loop, every `Get` has exactly one correct
/// answer — the client's previous `Put` of that key, or the prefilled value —
/// which the checker holds it to.
pub fn operations(spec: &Spec, seed: u64, client: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    match spec.app {
        App::Noop { .. } => vec![Op::Noop],
        App::KvCounter => (0..KV_POOL_OPS as u64)
            .map(|i| {
                if i % 2 == 0 {
                    Op::Put {
                        key: client as u64,
                        tag: i / 2,
                    }
                } else {
                    Op::Get { key: client as u64 }
                }
            })
            .collect(),
        App::Kv { keys } => {
            let stripe = keys / spec.clients;
            let zipf = Zipf::new(stripe, ZIPF_EXPONENT);
            (0..KV_POOL_OPS as u64)
                .map(|i| {
                    let key = (zipf.sample(&mut rng) * spec.clients + client) as u64;
                    if rng.next_u64() & 1 == 0 {
                        Op::Put { key, tag: i }
                    } else {
                        Op::Get { key }
                    }
                })
                .collect()
        }
    }
}

/// Draws from the sampler and holds the empirical distribution against the
/// exact one: the largest gap between the two cumulative distributions must
/// be within what `draws` samples allow (Dvoretzky–Kiefer–Wolfowitz at
/// 1 − 10⁻⁶ confidence), and sampling must be reproducible from the seed.
pub fn zipf_selftest() -> Result<(), String> {
    let n = 5_000;
    let draws = 400_000usize;
    let zipf = Zipf::new(n, ZIPF_EXPONENT);
    let exact_total: f64 = (0..n).map(|rank| zipf.probability(rank)).sum();
    if (exact_total - 1.0).abs() > 1e-9 {
        return Err(format!("zipf probabilities sum to {exact_total}"));
    }
    let direct: f64 = (1..=n).map(|k| (k as f64).powf(-ZIPF_EXPONENT)).sum();
    let p0 = 1.0 / direct;
    if (zipf.probability(0) - p0).abs() > 1e-12 {
        return Err("zipf rank-0 probability differs from the closed form".to_string());
    }
    let mut counts = vec![0u64; n];
    let mut rng = Rng::new(7);
    let mut first = Vec::new();
    for i in 0..draws {
        let rank = zipf.sample(&mut rng);
        counts[rank] += 1;
        if i < 64 {
            first.push(rank);
        }
    }
    let mut rng = Rng::new(7);
    if first.iter().any(|&rank| rank != zipf.sample(&mut rng)) {
        return Err("zipf sampling is not reproducible from its seed".to_string());
    }
    let mut seen = 0u64;
    let mut worst: f64 = 0.0;
    for (count, exact) in counts.iter().zip(&zipf.cdf) {
        seen += count;
        worst = worst.max((seen as f64 / draws as f64 - exact).abs());
    }
    let allowed = ((2.0f64 / 1e-6).ln() / (2.0 * draws as f64)).sqrt();
    if worst > allowed {
        return Err(format!(
            "zipf empirical CDF is {worst:.5} from the exact CDF (allowed {allowed:.5})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_matches_exact_distribution() {
        zipf_selftest().unwrap();
    }

    #[test]
    fn streams_are_reproducible_and_striped() {
        let spec = find("kv_mixed_loaded").unwrap();
        let a = operations(spec, 11, 3);
        assert_eq!(a, operations(spec, 11, 3));
        assert_ne!(a, operations(spec, 12, 3));
        assert!(a.iter().all(|op| match op {
            Op::Put { key, .. } | Op::Get { key } => key % 8 == 3 && *key < 1_000,
            Op::Noop => false,
        }));
    }

    #[test]
    fn names_are_unique() {
        for (i, spec) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|other| other.name != spec.name));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }
}
