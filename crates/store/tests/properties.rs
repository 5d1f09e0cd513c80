//! Property tests for the store: compaction never drops a record above the
//! stable checkpoint, and `recover(persist(state)) == state` across random
//! crash points, including torn final WAL records (CRC-rejected tail) and
//! torn records followed by a segment's zero fill.

use proptest::prelude::*;
use seemore_crypto::{Digest, Signature};
use seemore_store::{
    frame, Durability, DurableCheckpoint, FileStore, FsyncPolicy, MemStore, StoreConfig, WalRecord,
};
use seemore_types::{Mode, ReplicaId, SeqNum, View};
use seemore_wire::{Accept, Checkpoint, Commit, Message};

/// Builds one of the record shapes the cores actually append, keyed off two
/// small generated integers.
fn record(kind: u8, seq: u64) -> WalRecord {
    match kind % 3 {
        0 => WalRecord::Vote(Message::Accept(Accept {
            view: View(u64::from(kind / 3)),
            seq: SeqNum(seq),
            digest: Digest::of_bytes(&seq.to_le_bytes()),
            replica: ReplicaId(1),
            signature: Some(Signature::INVALID),
        })),
        1 => WalRecord::Vote(Message::Commit(Commit {
            view: View(u64::from(kind / 3)),
            seq: SeqNum(seq),
            digest: Digest::of_bytes(&seq.to_le_bytes()),
            replica: ReplicaId(1),
            batch: None,
            signature: Signature::INVALID,
        })),
        _ => WalRecord::ViewEntered {
            view: View(seq),
            mode: Mode::ALL[(kind % 3) as usize],
        },
    }
}

fn store(segment_bytes: usize) -> MemStore {
    MemStore::new(StoreConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Compaction keeps exactly the records above the stable checkpoint
    /// (plus slot-less records), in order, no matter how appends interleave
    /// with segment rotation.
    #[test]
    fn compaction_never_drops_a_record_above_stable(
        kinds in proptest::collection::vec(any::<u8>(), 1..80),
        stable in 0u64..40,
        segment_bytes in 64usize..512,
    ) {
        let store = store(segment_bytes);
        let mut appended = Vec::new();
        for (offset, &kind) in kinds.iter().enumerate() {
            let rec = record(kind, offset as u64);
            store.append(&rec);
            appended.push(rec);
        }
        store.compact_below(SeqNum(stable));

        let survived = store.recover().expect("mem store recovers").wal;
        let expected: Vec<WalRecord> = appended
            .into_iter()
            .filter(|r| r.slot().is_none_or(|s| s > SeqNum(stable)))
            .collect();
        prop_assert_eq!(survived, expected);
    }

    /// Recovery returns exactly what was persisted: the checkpoint plus the
    /// full WAL suffix, byte-for-byte, across segment-rotation boundaries.
    #[test]
    fn recover_round_trips_persisted_state(
        kinds in proptest::collection::vec(any::<u8>(), 0..60),
        snapshot in proptest::collection::vec(any::<u8>(), 0..256),
        segment_bytes in 64usize..512,
    ) {
        let store = store(segment_bytes);
        let checkpoint = DurableCheckpoint {
            seq: SeqNum(16),
            state_digest: Digest::of_bytes(&snapshot),
            snapshot,
            proof: vec![Checkpoint {
                seq: SeqNum(16),
                state_digest: Digest::ZERO,
                replica: ReplicaId(0),
                signature: Signature::INVALID,
            }],
        };
        store.persist_checkpoint(&checkpoint);
        let mut appended = Vec::new();
        for (offset, &kind) in kinds.iter().enumerate() {
            let rec = record(kind, 17 + offset as u64);
            store.append(&rec);
            appended.push(rec);
        }

        let state = store.recover().expect("mem store recovers");
        prop_assert!(!state.torn_tail);
        prop_assert_eq!(state.checkpoint, Some(checkpoint));
        prop_assert_eq!(state.wal, appended);
    }

    /// A crash at ANY byte offset (kill-9 mid-append) loses at most the
    /// record being written: recovery returns the exact prefix of records
    /// whose frames completed, flags the torn tail, and never yields a
    /// corrupt or phantom record.
    #[test]
    fn recovery_survives_a_crash_at_any_byte(
        kinds in proptest::collection::vec(any::<u8>(), 1..40),
        cut_seed in any::<u64>(),
        segment_bytes in 64usize..512,
    ) {
        let store = store(segment_bytes);
        let mut boundaries = vec![0usize];
        let mut appended = Vec::new();
        for (offset, &kind) in kinds.iter().enumerate() {
            let rec = record(kind, offset as u64);
            store.append(&rec);
            boundaries.push(store.wal_bytes());
            appended.push(rec);
        }
        let total = store.wal_bytes();
        let cut = (cut_seed % (total as u64 + 1)) as usize;
        store.truncate_wal_to(cut);

        let state = store.recover().expect("mem store recovers");
        let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
        prop_assert_eq!(&state.wal[..], &appended[..whole]);
        prop_assert_eq!(state.torn_tail, cut != boundaries[whole]);
    }

    /// The same crash in a [`FileStore`] segment that ends in zero fill: the
    /// frame being written is cut at any byte and the rest of the file reads
    /// as the fill it was to land on. Recovery returns the records whose
    /// frames completed, and reports a tear exactly when a nonzero byte of
    /// the cut frame reached the file.
    #[test]
    fn recovery_survives_a_crash_at_any_byte_before_zero_fill(
        kinds in proptest::collection::vec(any::<u8>(), 1..40),
        cut_seed in any::<u64>(),
        fill in 0usize..600,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        let mut appended = Vec::new();
        for (offset, &kind) in kinds.iter().enumerate() {
            let rec = record(kind, offset as u64);
            frame::encode_record(&rec, &mut stream);
            boundaries.push(stream.len());
            appended.push(rec);
        }
        let cut = (cut_seed % (stream.len() as u64 + 1)) as usize;
        let mut segment = stream[..cut].to_vec();
        segment.resize(stream.len() + fill, 0);
        let dir = std::env::temp_dir()
            .join(format!("seemore-store-fill-crash-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("store dir");
        std::fs::write(dir.join("wal-000001.log"), &segment).expect("segment");

        let config = StoreConfig { fsync: FsyncPolicy::Never, ..StoreConfig::default() };
        let state = FileStore::open(&dir, config).expect("open").recover().expect("recovers");
        let _ = std::fs::remove_dir_all(&dir);
        // A frame is whole once every byte of it the crash cut off is zero:
        // the fill already holds those bytes.
        let whole = boundaries
            .iter()
            .rposition(|&end| end <= cut || stream[cut..end].iter().all(|&byte| byte == 0))
            .expect("the empty prefix is whole");
        prop_assert_eq!(&state.wal[..], &appended[..whole]);
        let written = &stream[boundaries[whole].min(cut)..cut];
        prop_assert_eq!(state.torn_tail, written.iter().any(|&byte| byte != 0));
    }

    /// A corrupt (bit-flipped) tail is CRC-rejected rather than decoded:
    /// recovery keeps a clean prefix and reports the tear.
    #[test]
    fn corrupt_tail_is_crc_rejected(
        kinds in proptest::collection::vec(any::<u8>(), 1..30),
        back in 0usize..32,
    ) {
        let store = store(256);
        let mut appended = Vec::new();
        for (offset, &kind) in kinds.iter().enumerate() {
            let rec = record(kind, offset as u64);
            store.append(&rec);
            appended.push(rec);
        }
        let total = store.wal_bytes();
        prop_assume!(back < total);
        store.corrupt_wal_tail(back);

        let state = store.recover().expect("mem store recovers");
        prop_assert!(state.torn_tail);
        // A single-byte flip is always caught (length, CRC, or payload), and
        // whatever survives must be an exact prefix of what was appended.
        prop_assert!(state.wal.len() < appended.len());
        prop_assert_eq!(&state.wal[..], &appended[..state.wal.len()]);
    }
}
