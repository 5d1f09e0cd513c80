//! What a `KvStore` keeps on the heap, as counts.
//!
//! The benchmark's `kv_large_state` workload prefills six stores of 40 000
//! keys, so the bytes a store spends per key are most of that workload's
//! resident memory. A counting `#[global_allocator]` wraps the system
//! allocator; since a global allocator is process-wide, it lives in this
//! test binary only, the test is a single `#[test]`, and only allocations
//! made by the measuring thread inside a measurement window count. The
//! counts are of requested sizes and repeat exactly, so the bounds below do
//! not depend on the machine or on the allocator's rounding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use seemore::app::{KvOp, KvStore, StateMachine};

struct CountingAllocator;

/// Allocations made minus allocations freed inside measurement windows.
static LIVE_ALLOCATIONS: AtomicI64 = AtomicI64::new(0);
/// Bytes requested minus bytes freed inside measurement windows.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// Const-initialized so reading it inside the allocator cannot itself
// allocate.
thread_local! {
    static MEASURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counting() -> bool {
    MEASURING.try_with(|m| m.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `build` and returns what it left allocated, as (allocations, bytes),
/// with what it built. Everything `build` allocated and freed again nets to
/// zero; what it returns is still live.
fn live_after<R>(build: impl FnOnce() -> R) -> (i64, i64, R) {
    let (allocations, bytes) = (
        LIVE_ALLOCATIONS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    );
    MEASURING.with(|m| m.set(true));
    let built = build();
    MEASURING.with(|m| m.set(false));
    (
        LIVE_ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        built,
    )
}

/// The shape of the benchmark's `kv_large_state` prefill.
const KEYS: i64 = 40_000;
const KEY_BYTES: i64 = 11;
const VALUE_BYTES: i64 = 128;

/// What one entry's bytes take in its bucket's slab: the key, the value and
/// a u64 length field before each.
const ENTRY_BYTES: i64 = 8 + KEY_BYTES + 8 + VALUE_BYTES;
/// Live bytes per key allowed on top of the entry itself. The 64-byte bucket
/// headers sit in one vector per group of 64 bucket ids, which holds ~58
/// buckets at this size and has grown to 64 slots: 4 KB per group, 26 B per
/// key. The store's fixed 45 KB (group table, dirty bits, interior nodes)
/// adds 1 B per key. A store that keeps a key and its value in heap objects
/// of their own spends a tuple of two `Vec` headers (48 B) per key on top of
/// its entry's bytes and goes over (212 B per key in all, 2.38 allocations).
const OVERHEAD_BYTES_PER_KEY: i64 = 32;

fn key(index: i64) -> Vec<u8> {
    format!("key{index:08}").into_bytes()
}

fn prefilled() -> KvStore {
    let mut store = KvStore::new();
    for index in 0..KEYS {
        store.apply(KvOp::Put {
            key: key(index),
            value: vec![index as u8; VALUE_BYTES as usize],
        });
    }
    store
}

fn assert_compact(what: &str, allocations: i64, bytes: i64) {
    assert!(
        allocations <= KEYS,
        "{what}: {allocations} live allocations for {KEYS} keys, more than one per key"
    );
    assert!(
        bytes <= KEYS * (ENTRY_BYTES + OVERHEAD_BYTES_PER_KEY),
        "{what}: {bytes} live bytes for {KEYS} keys, {} per key against a bound of {} + {}",
        bytes / KEYS,
        ENTRY_BYTES,
        OVERHEAD_BYTES_PER_KEY,
    );
}

#[test]
fn a_store_keeps_each_key_in_well_under_one_allocation_and_close_to_its_bytes() {
    assert_eq!(key(0).len() as i64, KEY_BYTES);

    let (allocations, bytes, store) = live_after(prefilled);
    assert_eq!(store.len() as i64, KEYS);
    assert_compact("prefilled", allocations, bytes);

    // A restored store holds the same entries in the same buckets, and
    // decoding the snapshot leaves nothing behind but the store.
    let snapshot = store.snapshot();
    let (restored_allocations, restored_bytes, restored) = live_after(|| {
        let mut restored = KvStore::new();
        restored.restore(&snapshot);
        restored
    });
    assert_eq!(restored.state_digest(), store.state_digest());
    assert_compact("restored", restored_allocations, restored_bytes);

    // Taking the digest fills caches the store already holds: no bucket or
    // node allocates.
    let mut fresh = prefilled();
    let (digest_allocations, digest_bytes, _) = live_after(|| fresh.state_digest());
    assert_eq!((digest_allocations, digest_bytes), (0, 0));

    // Overwriting with equal-sized values, as the workload does, leaves the
    // store's footprint exactly where it was.
    let (put_allocations, put_bytes, _) = live_after(|| {
        for index in (0..KEYS).step_by(7) {
            fresh.apply(KvOp::Put {
                key: key(index),
                value: vec![0xEE; VALUE_BYTES as usize],
            });
        }
    });
    assert_eq!((put_allocations, put_bytes), (0, 0));
}
