//! Workload generators.
//!
//! The paper's evaluation uses micro-benchmarks named `x/y` where `x` is the
//! request payload size and `y` the reply payload size in kilobytes (0/0,
//! 0/4 and 4/0). [`Workload::micro`] reproduces those; [`Workload::kv`]
//! generates key-value operations over uniformly drawn keys for the
//! examples and integration tests.

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
        Workload::Kv {
            keys,
            value_size,
            read_fraction,
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
            } => {
                let rank = rng.gen_range(0..*keys);
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
}
