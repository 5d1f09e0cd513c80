//! The cost of `KvStore::state_digest`, as counts.
//!
//! A checkpoint digest is taken on the commit path every `checkpoint_period`
//! slots, so it has to cost in proportion to the writes since the last one,
//! not to the size of the state. `KvStore::digest_stats` counts the buckets
//! re-hashed and the bytes fed to SHA-256; the counts repeat exactly, so the
//! bounds below do not depend on the machine.

use seemore::app::{KvOp, KvResult, KvStore, StateMachine};

const KEYS: u64 = 40_000;
const VALUE_BYTES: usize = 128;
/// Writes between two checkpoints of the benchmark's `kv_large_state`
/// workload: 128 slots of about 2.8 requests.
const WRITES: u64 = 360;

fn key(index: u64) -> Vec<u8> {
    format!("key{index:08}").into_bytes()
}

fn prefilled() -> KvStore {
    let mut store = KvStore::new();
    for index in 0..KEYS {
        store.apply(KvOp::Put {
            key: key(index),
            value: vec![index as u8; VALUE_BYTES],
        });
    }
    store
}

#[test]
fn a_checkpoint_digest_hashes_the_writes_since_the_last_one_not_the_state() {
    let mut store = prefilled();
    let state_bytes = store.snapshot().len() as u64;

    // Prefilling hashed nothing: writes only mark buckets.
    assert_eq!(store.digest_stats().bytes_hashed, 0);

    // The first digest is the one full build.
    let first = store.state_digest();
    let built = store.digest_stats();
    assert!(built.bytes_hashed >= state_bytes);

    // Distinct keys spread over the key space: the worst case for the number
    // of buckets 360 writes can dirty.
    for write in 0..WRITES {
        let result = store.execute(
            &KvOp::Put {
                key: key(write * (KEYS / WRITES) + 17),
                value: vec![0xEE; VALUE_BYTES],
            }
            .encode(),
        );
        assert_eq!(result, KvResult::Ok.encode());
    }
    let second = store.state_digest();
    assert_ne!(second, first);
    let after_writes = store.digest_stats();
    let rehashed = after_writes.buckets_rehashed - built.buckets_rehashed;
    let hashed = after_writes.bytes_hashed - built.bytes_hashed;
    assert!(
        rehashed <= WRITES,
        "{rehashed} buckets re-hashed for {WRITES} writes"
    );
    assert!(
        hashed * 10 < state_bytes,
        "{hashed} of {state_bytes} state bytes hashed after {WRITES} writes"
    );

    // Nothing dirty: the digest is remembered and nothing is hashed.
    assert_eq!(store.state_digest(), second);
    assert_eq!(store.digest_stats(), after_writes);

    // Reads do not dirty anything either.
    let hit = store.execute_read(&KvOp::Get { key: key(17) }.encode());
    assert!(hit.is_some());
    assert_eq!(store.state_digest(), second);
    assert_eq!(store.digest_stats(), after_writes);
}

#[test]
fn restored_cloned_and_executed_stores_agree_on_the_digest() {
    let mut executed = prefilled();
    for write in 0..WRITES {
        executed.execute(
            &KvOp::Append {
                key: key(write * 3),
                suffix: b"+".to_vec(),
            }
            .encode(),
        );
    }
    // One replica digested along the way, the others did not; one was
    // restored from a snapshot, one was cloned.
    let mut restored = KvStore::new();
    restored.restore(&executed.snapshot());
    let cloned = executed.clone();
    let digest = executed.state_digest();
    assert_eq!(restored.state_digest(), digest);
    assert_eq!(cloned.state_digest(), digest);

    // A clone owns its cache: writing to it leaves the original's digest
    // alone, and the two diverge.
    let mut fork = executed.clone();
    fork.execute(&KvOp::Delete { key: key(1) }.encode());
    assert_ne!(fork.state_digest(), digest);
    assert_eq!(executed.state_digest(), digest);
}
