//! Workload generators.
//!
//! The paper's evaluation uses micro-benchmarks named `x/y` where `x` is the
//! request payload size and `y` the reply payload size in kilobytes (0/0,
//! 0/4 and 4/0). [`Workload::micro`] reproduces those; [`Workload::kv`]
//! generates key-value operations for the examples and integration tests,
//! optionally with Zipfian key skew ([`Workload::kv_skewed`]).

use rand::Rng;
use seemore_app::KvOp;
use seemore_types::OpClass;

/// A per-client operation generator.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Fixed-size opaque payloads executed by the no-op application
    /// (the paper's micro-benchmarks).
    Micro {
        /// Request payload size in bytes.
        request_size: usize,
    },
    /// Key-value operations executed by the replicated KV store.
    Kv {
        /// Number of distinct keys.
        keys: u64,
        /// Size of written values in bytes.
        value_size: usize,
        /// Fraction of operations that are reads (0.0 – 1.0).
        read_fraction: f64,
        /// Zipfian skew exponent for key popularity. `0.0` (the default)
        /// selects keys uniformly; larger values concentrate traffic on a
        /// hot set (YCSB's classic setting is `0.99`).
        skew: f64,
    },
}

impl Workload {
    /// The `x/0` and `x/4` micro-benchmarks: requests of `request_size`
    /// bytes (the reply size is configured on the application side).
    pub fn micro(request_size: usize) -> Self {
        Workload::Micro { request_size }
    }

    /// The 0/0 micro-benchmark.
    pub fn micro_0_0() -> Self {
        Workload::micro(0)
    }

    /// A key-value workload with uniform key popularity.
    pub fn kv(keys: u64, value_size: usize, read_fraction: f64) -> Self {
        Workload::kv_skewed(keys, value_size, read_fraction, 0.0)
    }

    /// A key-value workload with Zipfian key popularity: key rank `i`
    /// (1-based) is drawn with probability proportional to `1 / i^skew`.
    /// `skew = 0.0` degenerates to the uniform workload.
    pub fn kv_skewed(keys: u64, value_size: usize, read_fraction: f64, skew: f64) -> Self {
        Workload::Kv {
            keys,
            value_size,
            read_fraction,
            skew,
        }
    }

    /// Generates the next operation payload.
    pub fn next_op<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        self.next_classified(rng).0
    }

    /// Generates the next operation payload together with its read/write
    /// classification (the workload is the layer that knows what it
    /// generated, so classification costs nothing here).
    ///
    /// Micro operations are opaque payloads executed by the no-op
    /// application; they classify as writes so `read_fraction = 0` KV runs
    /// and micro runs exercise the identical ordered path.
    pub fn next_classified<R: Rng + ?Sized>(&self, rng: &mut R) -> (Vec<u8>, OpClass) {
        match self {
            Workload::Micro { request_size } => (vec![0xA5u8; *request_size], OpClass::Write),
            Workload::Kv {
                keys,
                value_size,
                read_fraction,
                skew,
            } => {
                let rank = if *skew > 0.0 {
                    zipf_rank(rng, *keys, *skew)
                } else {
                    rng.gen_range(0..*keys)
                };
                let key = format!("key-{rank}").into_bytes();
                if rng.gen_bool(read_fraction.clamp(0.0, 1.0)) {
                    let op = KvOp::Get { key };
                    let class = op.class();
                    (op.encode(), class)
                } else {
                    let value = vec![rng.gen::<u8>(); *value_size];
                    let op = KvOp::Put { key, value };
                    let class = op.class();
                    (op.encode(), class)
                }
            }
        }
    }

    /// The nominal request payload size, used for reporting.
    pub fn request_size(&self) -> usize {
        match self {
            Workload::Micro { request_size } => *request_size,
            Workload::Kv { value_size, .. } => *value_size + 16,
        }
    }
}

/// Draws a 0-based key rank from the Zipfian distribution over `keys` ranks
/// with exponent `skew`, by an inverse-CDF walk over the unnormalised
/// weights `1 / (rank + 1)^skew`.
///
/// The walk is `O(keys)` per draw, which is deliberate: workloads in this
/// repository use key counts in the hundreds, the generator is cloneable
/// state-free, and an exact walk keeps the distribution honest (no
/// approximation constant to validate).
fn zipf_rank<R: Rng + ?Sized>(rng: &mut R, keys: u64, skew: f64) -> u64 {
    let total: f64 = (1..=keys).map(|rank| (rank as f64).powf(-skew)).sum();
    let mut remaining = rng.gen::<f64>() * total;
    for rank in 1..=keys {
        remaining -= (rank as f64).powf(-skew);
        if remaining <= 0.0 {
            return rank - 1;
        }
    }
    keys - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn micro_workload_produces_fixed_size_payloads() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Workload::micro(4096);
        assert_eq!(w.next_op(&mut rng).len(), 4096);
        assert_eq!(w.request_size(), 4096);
        assert_eq!(Workload::micro_0_0().next_op(&mut rng).len(), 0);
    }

    #[test]
    fn classification_matches_generated_operations() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = Workload::kv(10, 8, 0.5);
        for _ in 0..100 {
            let (op, class) = w.next_classified(&mut rng);
            assert_eq!(KvOp::classify(&op), class);
        }
        // Micro ops are opaque: conservatively writes.
        let (_, class) = Workload::micro(16).next_classified(&mut rng);
        assert_eq!(class, OpClass::Write);
        // read_fraction = 0 produces writes only.
        let w = Workload::kv(10, 8, 0.0);
        for _ in 0..50 {
            assert_eq!(w.next_classified(&mut rng).1, OpClass::Write);
        }
    }

    #[test]
    fn kv_workload_produces_decodable_operations() {
        let mut rng = SmallRng::seed_from_u64(2);
        let w = Workload::kv(100, 32, 0.5);
        let mut reads = 0;
        let mut writes = 0;
        for _ in 0..200 {
            let op = w.next_op(&mut rng);
            match KvOp::decode(&op).expect("kv ops must decode") {
                KvOp::Get { .. } => reads += 1,
                KvOp::Put { value, .. } => {
                    assert_eq!(value.len(), 32);
                    writes += 1;
                }
                other => panic!("unexpected op {other:?}"),
            }
        }
        assert!(reads > 50 && writes > 50, "reads={reads} writes={writes}");
        assert!(w.request_size() > 32);
    }

    /// Frequency of each key rank over `draws` write-only operations.
    fn key_frequencies(w: &Workload, keys: u64, draws: u64, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; keys as usize];
        for _ in 0..draws {
            let op = w.next_op(&mut rng);
            let Some(KvOp::Put { key, .. }) = KvOp::decode(&op) else {
                panic!("write-only kv workloads produce puts");
            };
            let rank: u64 = std::str::from_utf8(&key[4..]).unwrap().parse().unwrap();
            counts[rank as usize] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / draws as f64)
            .collect()
    }

    #[test]
    fn zero_skew_takes_the_uniform_path_bit_identically() {
        // `kv` and an explicit skew of 0.0 must consume the RNG identically
        // to the historical uniform generator (same draws, same order), so
        // adding the skew knob cannot perturb any existing seeded run.
        let uniform = Workload::kv(64, 16, 0.3);
        let skewed_zero = Workload::kv_skewed(64, 16, 0.3, 0.0);
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..500 {
            assert_eq!(
                uniform.next_classified(&mut a),
                skewed_zero.next_classified(&mut b)
            );
        }
    }

    #[test]
    fn zipfian_skew_concentrates_traffic_within_theoretical_bounds() {
        let keys = 100u64;
        let skew = 0.99f64;
        let draws = 40_000u64;
        let freq = key_frequencies(&Workload::kv_skewed(keys, 8, 0.0, skew), keys, draws, 7);

        // Theoretical mass of rank i (1-based) is (1/i^s) / H where
        // H = sum over ranks of 1/i^s.
        let h: f64 = (1..=keys).map(|i| (i as f64).powf(-skew)).sum();
        for (idx, expected_rank) in [(0usize, 1u64), (1, 2), (9, 10)] {
            let expected = (expected_rank as f64).powf(-skew) / h;
            let observed = freq[idx];
            assert!(
                (observed - expected).abs() < 0.15 * expected + 0.002,
                "rank {expected_rank}: observed {observed:.4}, expected {expected:.4}"
            );
        }
        // The hot key dominates: far above the uniform share and above
        // rank 10 by roughly 10^0.99.
        assert!(freq[0] > 4.0 / keys as f64);
        assert!(freq[0] > 5.0 * freq[9]);
        // Uniform, by contrast, stays near 1/keys everywhere.
        let uniform = key_frequencies(&Workload::kv(keys, 8, 0.0), keys, draws, 7);
        for (rank, f) in uniform.iter().enumerate() {
            assert!(
                (*f - 0.01).abs() < 0.006,
                "uniform rank {rank} drifted: {f:.4}"
            );
        }
    }
}
