//! The two store backends: [`FileStore`] (real files, real `fsync`) and
//! [`MemStore`] (identical framing in memory, with fault-injection hooks).

use crate::frame;
use crate::{Durability, DurableCheckpoint, FsyncPolicy, RecoveredState, WalRecord};
use seemore_types::SeqNum;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Tuning knobs shared by both store backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Whether the WAL's syncs call `fdatasync` (see the crate docs for the
    /// trade-offs).
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh WAL segment once the active one reaches this many
    /// bytes (clamped to at least one frame's worth). The bound counts a
    /// [`FileStore`] segment's zero fill as well as its records: the fill
    /// stops at it, and only a frame that starts below it and ends past it
    /// makes a file longer.
    pub segment_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
        }
    }
}

impl StoreConfig {
    fn segment_limit(&self) -> usize {
        self.segment_bytes.max(64)
    }
}

/// Keeps the records above `seq`, re-framed into one fresh byte stream.
///
/// Compaction is rewrite-then-delete, so a crash between the two steps
/// leaves both the old segments and the compacted copy on disk; replay then
/// sees each surviving record twice, which is safe because WAL replay is
/// idempotent (first vote wins, flags are merely re-set).
fn compacted_bytes(segments: &[Vec<u8>], seq: SeqNum) -> Vec<u8> {
    let decoded = frame::assemble(None, segments);
    let mut out = Vec::new();
    for record in &decoded.wal {
        if record.slot().is_none_or(|slot| slot > seq) {
            frame::encode_record(record, &mut out);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemInner {
    segments: Vec<Vec<u8>>,
    checkpoint: Option<Vec<u8>>,
}

impl MemInner {
    fn active(&mut self) -> &mut Vec<u8> {
        if self.segments.is_empty() {
            self.segments.push(Vec::new());
        }
        self.segments.last_mut().expect("segment exists")
    }
}

/// An in-memory store running the exact byte-level framing of [`FileStore`],
/// used by the deterministic simulator and by tests. Crash recovery is
/// modelled by keeping the store alive across a simulated restart and calling
/// [`recover`](Durability::recover) on it; the fault-injection hooks model
/// kill-9 mid-append by truncating or corrupting the WAL tail first.
#[derive(Debug, Default)]
pub struct MemStore {
    config: StoreConfig,
    inner: Mutex<MemInner>,
}

impl MemStore {
    /// Creates an empty in-memory store.
    pub fn new(config: StoreConfig) -> Self {
        MemStore {
            config,
            inner: Mutex::new(MemInner::default()),
        }
    }

    /// Total bytes currently in the WAL, across all segments.
    pub fn wal_bytes(&self) -> usize {
        let inner = self.inner.lock().expect("store lock");
        inner.segments.iter().map(Vec::len).sum()
    }

    /// Number of cleanly framed records currently in the WAL.
    pub fn wal_records(&self) -> usize {
        let inner = self.inner.lock().expect("store lock");
        frame::assemble(None, &inner.segments).wal.len()
    }

    /// Fault injection: truncates the WAL to its first `len` bytes, modelling
    /// a kill-9 (or power cut) that caught an append mid-write.
    pub fn truncate_wal_to(&self, len: usize) {
        let mut inner = self.inner.lock().expect("store lock");
        let mut remaining = len;
        for segment in &mut inner.segments {
            let keep = remaining.min(segment.len());
            segment.truncate(keep);
            remaining -= keep;
        }
    }

    /// Fault injection: flips a byte `back` positions from the WAL's end,
    /// modelling a torn sector whose length field still looks plausible.
    pub fn corrupt_wal_tail(&self, back: usize) {
        let mut inner = self.inner.lock().expect("store lock");
        let total: usize = inner.segments.iter().map(Vec::len).sum();
        if total == 0 || back >= total {
            return;
        }
        let mut offset = total - 1 - back;
        for segment in &mut inner.segments {
            if offset < segment.len() {
                segment[offset] ^= 0xFF;
                return;
            }
            offset -= segment.len();
        }
    }
}

impl Durability for MemStore {
    fn enabled(&self) -> bool {
        true
    }

    fn append(&self, record: &WalRecord) {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.active().len() >= self.config.segment_limit() {
            inner.segments.push(Vec::new());
        }
        frame::encode_record(record, inner.active());
    }

    fn persist_checkpoint(&self, checkpoint: &DurableCheckpoint) {
        let bytes = frame::encode_checkpoint(checkpoint);
        let mut inner = self.inner.lock().expect("store lock");
        inner.checkpoint = Some(bytes);
    }

    fn compact_below(&self, seq: SeqNum) {
        let mut inner = self.inner.lock().expect("store lock");
        let compacted = compacted_bytes(&inner.segments, seq);
        inner.segments = vec![compacted];
    }

    fn recover(&self) -> Option<RecoveredState> {
        let inner = self.inner.lock().expect("store lock");
        Some(frame::assemble(
            inner.checkpoint.as_deref(),
            &inner.segments,
        ))
    }
}

// ---------------------------------------------------------------------------
// FileStore
// ---------------------------------------------------------------------------

const CHECKPOINT_FILE: &str = "checkpoint.bin";
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.log")
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// The unit zero fill is written in, from a buffer on the stack.
const PAGE: usize = 4 << 10;
/// The most zero fill written ahead of one frame.
const FILL_MAX: usize = 256 << 10;

/// Where a segment's zero fill should end before a frame ending at `end` is
/// written into a segment whose file holds `filled` bytes. It runs past the
/// frame by as much as the file already holds, clamped to one page to
/// [`FILL_MAX`], so a fresh store's first sync writes two pages and a busy
/// segment extends its file once per [`FILL_MAX`]; page-aligned; never past
/// `limit` unless the frame alone ends past it.
fn fill_end(filled: usize, end: usize, limit: usize) -> usize {
    (end + filled.clamp(PAGE, FILL_MAX))
        .next_multiple_of(PAGE)
        .min(limit.max(end))
}

/// Writes zeros over `from..to` of `file`, a page at a time.
fn write_zeros(file: &File, from: usize, to: usize) -> std::io::Result<()> {
    let zeros = [0u8; PAGE];
    let mut at = from;
    while at < to {
        let len = (to - at).min(PAGE - at % PAGE);
        file.write_all_at(&zeros[..len], at as u64)?;
        at += len;
    }
    Ok(())
}

#[derive(Debug)]
struct FileInner {
    active: File,
    active_index: u64,
    /// Bytes of records in the active segment: where the next frame goes.
    active_len: usize,
    /// Bytes the active segment's file holds: its records, then zero fill.
    filled: usize,
    /// Whether the active segment holds appends no sync has covered yet.
    unsynced: bool,
    /// Segment files on disk, the active one included.
    segments: usize,
}

/// A file-backed store: WAL segments `wal-NNNNNN.log` plus an atomically
/// replaced `checkpoint.bin`, all in one directory owned by the replica.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    config: StoreConfig,
    repaired: bool,
    inner: Mutex<FileInner>,
}

impl FileStore {
    /// Opens (or creates) a store in `dir`. A torn tail left by a crash
    /// mid-append is repaired in place (truncated to the last clean frame),
    /// exactly as a database WAL would, so subsequent appends are never
    /// hidden behind garbage; [`recover`](Durability::recover) still reports
    /// that a tail was discarded.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> std::io::Result<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let repaired = Self::repair(&dir)?;
        let existing = Self::segment_indices(&dir)?;
        let next = existing.last().map_or(1, |last| last + 1);
        let active = Self::create_segment(&dir, next)?;
        Ok(FileStore {
            dir,
            config,
            repaired,
            inner: Mutex::new(FileInner {
                active,
                active_index: next,
                active_len: 0,
                filled: 0,
                unsynced: false,
                segments: existing.len() + 1,
            }),
        })
    }

    /// Truncates the first torn frame (and drops any segments after it —
    /// nothing durable can follow a tear, since the tear was the last write
    /// before the crash). Returns whether anything was discarded.
    fn repair(dir: &Path) -> std::io::Result<bool> {
        let indices = Self::segment_indices(dir)?;
        for (position, &index) in indices.iter().enumerate() {
            let path = dir.join(segment_name(index));
            let bytes = fs::read(&path)?;
            let decoded = frame::decode_wal(&bytes);
            if !decoded.torn_tail {
                continue;
            }
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(decoded.clean_len as u64)?;
            file.sync_data()?;
            for &later in &indices[position + 1..] {
                let _ = fs::remove_file(dir.join(segment_name(later)));
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_indices(dir: &Path) -> std::io::Result<Vec<u64>> {
        let mut indices = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(index) = entry.file_name().to_str().and_then(segment_index) {
                indices.push(index);
            }
        }
        indices.sort_unstable();
        Ok(indices)
    }

    /// Creates segment `index`, which must not exist yet: frames are written
    /// at offsets from zero, so reusing a file would write over its records.
    fn create_segment(dir: &Path, index: u64) -> std::io::Result<File> {
        OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(dir.join(segment_name(index)))
    }

    fn read_segments(&self) -> std::io::Result<Vec<Vec<u8>>> {
        let mut segments = Vec::new();
        for index in Self::segment_indices(&self.dir)? {
            let mut bytes = Vec::new();
            File::open(self.dir.join(segment_name(index)))?.read_to_end(&mut bytes)?;
            segments.push(bytes);
        }
        Ok(segments)
    }

    fn sync_dir(&self) {
        // Directory fsync makes renames and segment creation durable; some
        // filesystems refuse it, which only weakens power-loss (not kill-9)
        // guarantees, so failures are tolerated.
        if let Ok(handle) = File::open(&self.dir) {
            let _ = handle.sync_all();
        }
    }
}

impl Durability for FileStore {
    fn enabled(&self) -> bool {
        true
    }

    fn append(&self, record: &WalRecord) {
        self.append_unsynced(record);
        self.sync();
    }

    fn append_unsynced(&self, record: &WalRecord) {
        let mut bytes = Vec::new();
        frame::encode_record(record, &mut bytes);
        let mut inner = self.inner.lock().expect("store lock");
        if inner.active_len >= self.config.segment_limit() {
            // The full segment's unsynced tail is synced here, so a later
            // `sync` only has the new segment to cover.
            if self.config.fsync == FsyncPolicy::Always {
                inner.active.sync_data().expect("wal segment sync");
            }
            inner.active_index += 1;
            inner.active =
                Self::create_segment(&self.dir, inner.active_index).expect("wal segment create");
            inner.active_len = 0;
            inner.filled = 0;
            inner.segments += 1;
            self.sync_dir();
        }
        // A sync that only overwrites blocks the file already has flushes
        // data alone; one that grows the file also commits the new size to
        // the filesystem's journal. So a frame that would pass the zero fill
        // writes more fill first, and the next syncs land inside it.
        let start = inner.active_len;
        let end = start + bytes.len();
        if end > inner.filled {
            let fill = fill_end(inner.filled, end, self.config.segment_limit());
            write_zeros(&inner.active, end, fill).expect("wal zero fill");
            inner.filled = fill;
        }
        inner
            .active
            .write_all_at(&bytes, start as u64)
            .expect("wal append");
        inner.active_len = end;
        inner.unsynced = true;
    }

    fn sync(&self) {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.unsynced && self.config.fsync == FsyncPolicy::Always {
            inner.active.sync_data().expect("wal sync");
        }
        inner.unsynced = false;
    }

    fn persist_checkpoint(&self, checkpoint: &DurableCheckpoint) {
        let bytes = frame::encode_checkpoint(checkpoint);
        let tmp = self.dir.join(CHECKPOINT_TMP);
        let _inner = self.inner.lock().expect("store lock");
        let mut file = File::create(&tmp).expect("checkpoint create");
        file.write_all(&bytes).expect("checkpoint write");
        file.sync_data().expect("checkpoint sync");
        drop(file);
        fs::rename(&tmp, self.dir.join(CHECKPOINT_FILE)).expect("checkpoint rename");
        self.sync_dir();
    }

    fn compact_below(&self, seq: SeqNum) {
        let mut inner = self.inner.lock().expect("store lock");
        // A rewrite costs a file creation, a data sync, two directory syncs
        // and an unlink however little it keeps: milliseconds on the commit
        // path at every stable checkpoint, which is where a synced WAL's
        // latency tail came from. So it waits until the WAL has spilled into
        // a second segment; until then the records the checkpoint covers stay
        // on disk and `recover` drops them.
        if inner.segments == 1 {
            return;
        }
        let old_indices = Self::segment_indices(&self.dir).expect("wal list");
        let new_index = old_indices.last().map_or(1, |last| last + 1);
        let file = Self::create_segment(&self.dir, new_index).expect("wal segment create");
        // One frame in memory at a time: the WAL is a segment or more by now.
        let mut out = BufWriter::new(&file);
        let mut kept = 0;
        let mut frame = Vec::new();
        for &index in &old_indices {
            let segment = File::open(self.dir.join(segment_name(index))).expect("wal read");
            let mut reader = BufReader::new(segment);
            // `open` repaired any torn tail and every append since was whole,
            // so each segment reads clean up to its zero fill.
            while let Some(record) = frame::read_record(&mut reader, &mut frame) {
                if record.slot().is_none_or(|slot| slot > seq) {
                    out.write_all(&frame).expect("wal rewrite");
                    kept += frame.len();
                }
            }
        }
        out.flush().expect("wal rewrite");
        drop(out);
        // The rewrite read the unsynced appends back from the page cache and
        // this sync covers them, along with everything else it kept.
        if self.config.fsync == FsyncPolicy::Always {
            file.sync_data().expect("wal rewrite sync");
        }
        inner.active = file;
        inner.active_index = new_index;
        inner.active_len = kept;
        inner.filled = kept;
        inner.unsynced = false;
        inner.segments = 1;
        self.sync_dir();
        for index in old_indices {
            let _ = fs::remove_file(self.dir.join(segment_name(index)));
        }
        self.sync_dir();
    }

    fn recover(&self) -> Option<RecoveredState> {
        let _inner = self.inner.lock().expect("store lock");
        let checkpoint = fs::read(self.dir.join(CHECKPOINT_FILE)).ok();
        let segments = self.read_segments().expect("wal read");
        let mut state = frame::assemble(checkpoint.as_deref(), &segments);
        state.torn_tail |= self.repaired;
        Some(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::{Digest, Signature};
    use seemore_types::{ReplicaId, View};
    use seemore_wire::{Accept, Checkpoint, Message};

    fn vote(seq: u64) -> WalRecord {
        WalRecord::Vote(Message::Accept(Accept {
            view: View(0),
            seq: SeqNum(seq),
            digest: Digest::of_bytes(&seq.to_le_bytes()),
            replica: ReplicaId(1),
            signature: Some(Signature::INVALID),
        }))
    }

    fn checkpoint(seq: u64) -> DurableCheckpoint {
        DurableCheckpoint {
            seq: SeqNum(seq),
            state_digest: Digest::of_bytes(&seq.to_le_bytes()),
            snapshot: vec![0xAB; 48],
            proof: vec![Checkpoint {
                seq: SeqNum(seq),
                state_digest: Digest::of_bytes(&seq.to_le_bytes()),
                replica: ReplicaId(0),
                signature: Signature::INVALID,
            }],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seemore-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_round_trips_and_compacts() {
        let store = MemStore::new(StoreConfig {
            segment_bytes: 128,
            ..StoreConfig::default()
        });
        for seq in 1..=20 {
            store.append(&vote(seq));
        }
        store.append(&WalRecord::ViewEntered {
            view: View(2),
            mode: seemore_types::Mode::Lion,
        });
        store.persist_checkpoint(&checkpoint(10));
        store.compact_below(SeqNum(10));

        let state = store.recover().expect("mem store recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.checkpoint, Some(checkpoint(10)));
        assert_eq!(state.wal.len(), 11); // votes 11..=20 plus the view record
        assert!(state
            .wal
            .iter()
            .all(|r| r.slot().is_none_or(|s| s > SeqNum(10))));
    }

    #[test]
    fn mem_store_truncation_drops_only_the_tail() {
        let store = MemStore::new(StoreConfig::default());
        for seq in 1..=5 {
            store.append(&vote(seq));
        }
        store.truncate_wal_to(store.wal_bytes() - 3);
        let state = store.recover().expect("recovers");
        assert!(state.torn_tail);
        assert_eq!(state.wal, (1..=4).map(vote).collect::<Vec<_>>());
    }

    #[test]
    fn mem_store_corruption_is_crc_rejected() {
        let store = MemStore::new(StoreConfig::default());
        for seq in 1..=3 {
            store.append(&vote(seq));
        }
        store.corrupt_wal_tail(2);
        let state = store.recover().expect("recovers");
        assert!(state.torn_tail);
        assert_eq!(state.wal, vec![vote(1), vote(2)]);
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = FileStore::open(
                &dir,
                StoreConfig {
                    fsync: FsyncPolicy::Always,
                    segment_bytes: 256,
                },
            )
            .expect("open");
            for seq in 1..=12 {
                store.append(&vote(seq));
            }
            store.persist_checkpoint(&checkpoint(8));
            store.compact_below(SeqNum(8));
        }
        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.checkpoint, Some(checkpoint(8)));
        assert_eq!(state.wal, (9..=12).map(vote).collect::<Vec<_>>());
        // New appends after reopen land after the recovered suffix.
        store.append(&vote(13));
        let state = store.recover().expect("recovers");
        assert_eq!(state.wal, (9..=13).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_recovers_past_a_torn_tail_on_disk() {
        let dir = temp_dir("torn");
        {
            let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
            for seq in 1..=4 {
                store.append(&vote(seq));
            }
        }
        // Tear the final frame the way kill-9 mid-write would: the file ends
        // in zero fill, so cut it 5 bytes before the last frame's end.
        let segment = dir.join(segment_name(1));
        let mut bytes = fs::read(&segment).expect("read segment");
        let records = frame::decode_wal(&bytes).clean_len;
        bytes.truncate(records - 5);
        fs::write(&segment, bytes).expect("rewrite segment");

        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(state.torn_tail);
        assert_eq!(state.wal, (1..=3).map(vote).collect::<Vec<_>>());
        // The fresh active segment sorts after the torn one, so new appends
        // are visible even though the torn tail was discarded.
        store.append(&vote(9));
        let state = store.recover().expect("recovers");
        assert_eq!(state.wal.last(), Some(&vote(9)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_checkpoint_replacement_is_atomic_in_effect() {
        let dir = temp_dir("ckpt");
        let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
        store.persist_checkpoint(&checkpoint(8));
        store.persist_checkpoint(&checkpoint(16));
        let state = store.recover().expect("recovers");
        assert_eq!(state.checkpoint, Some(checkpoint(16)));
        assert!(!dir.join(CHECKPOINT_TMP).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_compaction_waits_for_a_second_segment() {
        let dir = temp_dir("lazy");
        let view = WalRecord::ViewEntered {
            view: View(2),
            mode: seemore_types::Mode::Lion,
        };
        let frame_len = {
            let mut bytes = Vec::new();
            frame::encode_record(&vote(1), &mut bytes);
            bytes.len()
        };
        let store = FileStore::open(
            &dir,
            StoreConfig {
                fsync: FsyncPolicy::Always,
                segment_bytes: 20 * frame_len,
            },
        )
        .expect("open");
        // The records' length: a segment's file also holds zero fill.
        let wal_len = |index: u64| {
            fs::read(dir.join(segment_name(index))).map(|bytes| frame::decode_wal(&bytes).clean_len)
        };

        // One segment: the checkpoint is persisted, nothing is rewritten, and
        // recovery hides what the checkpoint covers.
        for seq in 1..=12 {
            store.append(&vote(seq));
        }
        store.append(&view);
        store.persist_checkpoint(&checkpoint(8));
        store.compact_below(SeqNum(8));
        assert_eq!(FileStore::segment_indices(&dir).expect("list"), vec![1]);
        let before = wal_len(1).expect("segment 1");
        assert!(before > 12 * frame_len);
        let state = store.recover().expect("recovers");
        assert_eq!(state.checkpoint, Some(checkpoint(8)));
        let mut expected: Vec<WalRecord> = (9..=12).map(vote).collect();
        expected.push(view.clone());
        assert_eq!(state.wal, expected);

        // Spill into a second segment: the next compaction rewrites the
        // survivors of both into one and deletes them.
        for seq in 13..=24 {
            store.append(&vote(seq));
            expected.push(vote(seq));
        }
        assert_eq!(FileStore::segment_indices(&dir).expect("list"), vec![1, 2]);
        store.persist_checkpoint(&checkpoint(16));
        store.compact_below(SeqNum(16));
        assert_eq!(FileStore::segment_indices(&dir).expect("list"), vec![3]);
        expected.retain(|record| record.slot().is_none_or(|slot| slot > SeqNum(16)));
        let bytes = fs::read(dir.join(segment_name(3))).expect("segment 3");
        assert_eq!(frame::decode_wal(&bytes).records, expected);
        assert_eq!(store.recover().expect("recovers").wal, expected);

        // Back to one segment: appends land behind the survivors, and the
        // next checkpoint leaves the file alone again.
        store.append(&vote(25));
        expected.push(vote(25));
        store.persist_checkpoint(&checkpoint(24));
        store.compact_below(SeqNum(24));
        assert_eq!(FileStore::segment_indices(&dir).expect("list"), vec![3]);
        assert_eq!(wal_len(3).expect("segment 3"), bytes.len() + frame_len);
        assert_eq!(store.recover().expect("recovers").wal, vec![view, vote(25)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_rotates_segments() {
        let dir = temp_dir("rotate");
        let store = FileStore::open(
            &dir,
            StoreConfig {
                fsync: FsyncPolicy::Never,
                segment_bytes: 64,
            },
        )
        .expect("open");
        for seq in 1..=30 {
            store.append(&vote(seq));
        }
        let segments = FileStore::segment_indices(&dir).expect("list");
        assert!(segments.len() > 1, "expected rotation, got {segments:?}");
        let state = store.recover().expect("recovers");
        assert_eq!(state.wal, (1..=30).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    fn unsynced(store: &FileStore) -> bool {
        store.inner.lock().expect("store lock").unsynced
    }

    #[test]
    fn file_store_unsynced_appends_survive_a_reopen_once_synced() {
        let dir = temp_dir("group");
        {
            let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
            store.append(&vote(1));
            assert!(!unsynced(&store), "a plain append syncs");
            for seq in 2..=6 {
                store.append_unsynced(&vote(seq));
            }
            assert!(unsynced(&store));
            store.sync();
            assert!(!unsynced(&store));
            store.append(&vote(7));
        }
        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.wal, (1..=7).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_loses_no_unsynced_record_across_rotation_or_compaction() {
        let dir = temp_dir("group-rewrite");
        let frame_len = {
            let mut bytes = Vec::new();
            frame::encode_record(&vote(1), &mut bytes);
            bytes.len()
        };
        let config = StoreConfig {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 * frame_len,
        };
        {
            let store = FileStore::open(&dir, config).expect("open");
            // One turn's appends spill over two rotations before its sync.
            for seq in 1..=10 {
                store.append_unsynced(&vote(seq));
            }
            assert_eq!(
                FileStore::segment_indices(&dir).expect("list"),
                vec![1, 2, 3]
            );
            store.sync();
            // The next turn rewrites the WAL between its appends and its sync.
            store.append_unsynced(&vote(11));
            store.persist_checkpoint(&checkpoint(4));
            store.compact_below(SeqNum(4));
            assert_eq!(FileStore::segment_indices(&dir).expect("list"), vec![4]);
            assert!(!unsynced(&store), "the rewrite's sync covered vote 11");
            store.append_unsynced(&vote(12));
            store.sync();
        }
        let store = FileStore::open(&dir, config).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.checkpoint, Some(checkpoint(4)));
        assert_eq!(state.wal, (5..=12).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    fn frame_len() -> usize {
        let mut bytes = Vec::new();
        frame::encode_record(&vote(1), &mut bytes);
        bytes.len()
    }

    /// The active segment's bytes and the length of its records.
    fn segment_bytes(dir: &Path, index: u64) -> (Vec<u8>, usize) {
        let bytes = fs::read(dir.join(segment_name(index))).expect("read segment");
        let records = frame::decode_wal(&bytes).clean_len;
        (bytes, records)
    }

    #[test]
    fn file_store_zero_fill_recovers_clean_across_a_reopen() {
        let dir = temp_dir("fill-reopen");
        {
            let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
            for seq in 1..=5 {
                store.append(&vote(seq));
            }
        }
        let (bytes, records) = segment_bytes(&dir, 1);
        assert_eq!(records, 5 * frame_len());
        assert_eq!(bytes.len(), 2 * PAGE, "a fresh segment's first fill");
        assert!(bytes[records..].iter().all(|&byte| byte == 0));

        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.wal, (1..=5).map(vote).collect::<Vec<_>>());
        assert_eq!(segment_bytes(&dir, 1).0, bytes, "no repair ran");
        store.append(&vote(6));
        drop(store);
        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.wal, (1..=6).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_discards_a_frame_torn_inside_the_fill() {
        let dir = temp_dir("fill-torn");
        {
            let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
            for seq in 1..=4 {
                store.append(&vote(seq));
            }
        }
        // The last frame's header and the first bytes of its payload were
        // written, and the rest reads as the zero fill it was to land on.
        let segment = dir.join(segment_name(1));
        let (mut bytes, records) = segment_bytes(&dir, 1);
        bytes[records - frame_len() + 12..records].fill(0);
        fs::write(&segment, &bytes).expect("rewrite segment");

        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(state.torn_tail);
        assert_eq!(state.wal, (1..=3).map(vote).collect::<Vec<_>>());
        assert_eq!(segment_bytes(&dir, 1).0.len(), 3 * frame_len());
        store.append(&vote(9));
        let state = store.recover().expect("recovers");
        assert_eq!(state.wal.last(), Some(&vote(9)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_repairs_a_zero_header_followed_by_nonzero_bytes() {
        let dir = temp_dir("fill-garbage");
        {
            let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
            for seq in 1..=3 {
                store.append(&vote(seq));
            }
        }
        // A later frame landed while the one before it did not: zeros where
        // a header should be, then bytes that are not fill.
        let segment = dir.join(segment_name(1));
        let (mut bytes, records) = segment_bytes(&dir, 1);
        bytes[records + 20] = 0x5A;
        fs::write(&segment, &bytes).expect("rewrite segment");
        let decoded = frame::decode_wal(&bytes);
        assert!(decoded.torn_tail);
        assert_eq!(decoded.clean_len, records);

        let store = FileStore::open(&dir, StoreConfig::default()).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(state.torn_tail);
        assert_eq!(state.wal, (1..=3).map(vote).collect::<Vec<_>>());
        assert_eq!(segment_bytes(&dir, 1).0.len(), records, "repair truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_syncs_inside_the_fill_leave_the_file_length_alone() {
        let dir = temp_dir("fill-length");
        let store = FileStore::open(&dir, StoreConfig::default()).expect("open");
        let file_len = || {
            fs::metadata(dir.join(segment_name(1)))
                .expect("segment")
                .len()
        };
        store.append(&vote(1));
        let filled = file_len();
        assert_eq!(filled as usize % PAGE, 0);
        let inside = (filled as usize / frame_len()) as u64;
        assert!(inside > 8, "the first fill holds more than a few votes");
        for seq in 2..=inside {
            store.append_unsynced(&vote(seq));
            store.sync();
            assert_eq!(file_len(), filled, "append {seq} stayed inside the fill");
        }
        // The first frame past the fill writes more fill ahead of itself.
        store.append(&vote(inside + 1));
        assert!(file_len() > filled);
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.wal, (1..=inside + 1).map(vote).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_rotation_and_compaction_through_filled_segments_keep_every_record_above_the_checkpoint(
    ) {
        let dir = temp_dir("fill-rotate");
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            segment_bytes: 5 * PAGE,
        };
        let mut expected = Vec::new();
        {
            let store = FileStore::open(&dir, config).expect("open");
            for seq in 1..=400 {
                store.append(&vote(seq));
                expected.push(vote(seq));
            }
            let indices = FileStore::segment_indices(&dir).expect("list");
            assert!(indices.len() > 2, "expected rotation, got {indices:?}");
            // The fill stops at the segment bound, so a full segment's last
            // frame overwrote the end of it; the active one still has fill.
            let (active, full) = indices.split_last().expect("segments");
            for &index in full {
                let (bytes, records) = segment_bytes(&dir, index);
                assert!(records >= config.segment_bytes);
                assert_eq!(bytes.len(), records);
            }
            let (bytes, records) = segment_bytes(&dir, *active);
            assert!(records < bytes.len() && bytes.len() <= config.segment_bytes);

            store.persist_checkpoint(&checkpoint(150));
            store.compact_below(SeqNum(150));
            expected.retain(|record| record.slot().is_none_or(|slot| slot > SeqNum(150)));
            assert_eq!(FileStore::segment_indices(&dir).expect("list").len(), 1);
            assert_eq!(store.recover().expect("recovers").wal, expected);

            // Appends behind the compacted survivors fill and rotate again.
            for seq in 401..=600 {
                store.append(&vote(seq));
                expected.push(vote(seq));
            }
            store.persist_checkpoint(&checkpoint(450));
            store.compact_below(SeqNum(450));
            expected.retain(|record| record.slot().is_none_or(|slot| slot > SeqNum(450)));
            store.append(&vote(601));
            expected.push(vote(601));
        }
        let store = FileStore::open(&dir, config).expect("reopen");
        let state = store.recover().expect("recovers");
        assert!(!state.torn_tail);
        assert_eq!(state.checkpoint, Some(checkpoint(450)));
        assert_eq!(state.wal, expected);
        let _ = fs::remove_dir_all(&dir);
    }
}
