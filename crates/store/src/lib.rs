//! Durable replica state: a segmented, CRC-framed write-ahead log plus
//! durable checkpoint snapshots, behind the narrow [`Durability`] seam every
//! protocol core holds.
//!
//! # What is persisted, and when
//!
//! A replica's safety-critical state is exactly the set of claims it has made
//! to its peers: the proposals it issued, the votes it cast for slots
//! (`ACCEPT`, PBFT `PREPARE`, `COMMIT`, `INFORM`), the checkpoints it signed,
//! and the view it has installed. Each of those is appended to the WAL as a
//! [`WalRecord`] and synced **before** the corresponding message is handed to
//! the transport — the *no-un-vote* rule. A replica that crashes and recovers
//! therefore replays every claim it may have made, re-arms the same log
//! guards (accepted proposal, `commit_sent`, `inform_sent`, installed view),
//! and can never cast a conflicting vote for a slot or regress to an earlier
//! view: to an observer, recovery is indistinguishable from a long network
//! delay.
//!
//! The sync is shared by a *turn*: everything a replica thread handles
//! between two waits. Inside a turn a core appends with
//! [`Durability::append_unsynced`], and once the turn's handlers have run
//! the driver has the core call [`Durability::sync`] once, before it queues
//! any of the turn's messages (group commit). Outside a turn every
//! [`Durability::append`] syncs on its own.
//!
//! A [`FileStore`] WAL segment holds its records followed by zero fill. A
//! frame is written at the records' end, over zeros already in the file;
//! before a frame that would pass the fill's end, more zeros are written
//! past it (as much as the segment holds, one page to 256 KiB, never past
//! [`StoreConfig::segment_bytes`]). Reading stops at the first all-zero
//! frame header (see [`frame`]).
//!
//! What is *not* persisted: peer votes (re-collected or re-fetched via state
//! transfer), application state between checkpoints (re-executed from the
//! fetched suffix), client reply queues (clients retransmit), and timers.
//!
//! # Checkpoints and compaction
//!
//! When a checkpoint becomes stable the full execution snapshot (application
//! state, `last_executed`, reply cache) and the stability certificate are
//! written durably ([`Durability::persist_checkpoint`], atomic via
//! write-to-temp + rename), and the WAL is compacted: every record about a
//! slot at or below the stable sequence number is dropped
//! ([`Durability::compact_below`]). Disk usage is therefore bounded by one
//! checkpoint snapshot plus one checkpoint period of votes, and recovery
//! time stays flat no matter how long the replica has been running.
//!
//! [`FileStore`] amortises that rewrite: a compaction costs a file creation,
//! a data sync, two directory syncs and an unlink however little survives,
//! all on the commit path, so it runs only once the WAL has spilled into a
//! second segment ([`StoreConfig::segment_bytes`]) and otherwise leaves the
//! covered records on disk for [`Durability::recover`] to drop. Its bound is
//! one segment more; what recovery returns is the same.
//!
//! # Fsync policy
//!
//! [`FsyncPolicy`] says whether a sync reaches the disk:
//!
//! * [`Always`](FsyncPolicy::Always) (the default) — every
//!   [`sync`](Durability::sync), and so every synced append, is an
//!   `fdatasync`. A vote is on disk before it is on the wire; survives power
//!   loss. Most syncs write only the pages the turn's frames overwrote in
//!   the zero fill: the file keeps its size, so the filesystem commits no
//!   metadata for it. A sync after the fill was extended also makes the new
//!   file size durable, as every sync of a growing file would.
//! * [`Never`](FsyncPolicy::Never) — leave syncing to the OS. Still survives
//!   process crashes (kill-9: the page cache outlives the process); an
//!   unsynced tail may be lost on power failure, votes it held included.
//!
//! A torn append (power cut mid-write) leaves a partial final frame whose
//! length or CRC check fails, with zero fill or nothing after it; recovery
//! discards the torn tail and keeps the longest cleanly-framed prefix. Under `Always`, losing a *suffix* of the
//! WAL is safe for the same reason losing the whole process is: the votes in
//! it were never synced, so they were never sent either.
//!
//! Two interchangeable stores implement the seam: [`FileStore`] (real files,
//! real `fsync`) and [`MemStore`] (the same byte-level framing in memory,
//! with fault-injection hooks for torn-tail testing). [`NullStore`] is the
//! default: durability off, every call a no-op, the hot path bit-identical
//! to a build without this crate.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod frame;
mod store;

pub use store::{FileStore, MemStore, StoreConfig};

use seemore_crypto::Digest;
use seemore_types::{Mode, SeqNum, View};
use seemore_wire::{Checkpoint, Message};

/// Whether the write-ahead log's syncs call `fdatasync` (see the crate docs
/// for the trade-offs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every sync reaches the disk.
    Always,
    /// Never sync explicitly; the OS writes back on its own schedule.
    Never,
}

/// One durable claim appended to the WAL before the corresponding message is
/// sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A safety-critical outgoing message: a proposal, a slot vote, or a
    /// signed checkpoint. Persisted before the send so the replica can never
    /// un-vote.
    Vote(
        /// The message exactly as sent (wire encoding reused for framing).
        Message,
    ),
    /// The replica installed `view` in `mode` (written at `NEW-VIEW`
    /// installation and at mode switches, before the installation takes
    /// effect). Replay restores the view so a recovered replica cannot
    /// participate in a view it already left.
    ViewEntered {
        /// The installed view.
        view: View,
        /// The mode in force for that view.
        mode: Mode,
    },
}

impl WalRecord {
    /// The slot this record concerns, if it concerns one — the compaction
    /// key: records with a slot at or below the stable checkpoint are
    /// dropped, slot-less records are kept.
    pub fn slot(&self) -> Option<SeqNum> {
        match self {
            WalRecord::Vote(message) => match message {
                Message::Prepare(p) => Some(p.seq),
                Message::PrePrepare(p) => Some(p.seq),
                Message::Accept(a) => Some(a.seq),
                Message::PbftPrepare(p) => Some(p.seq),
                Message::Commit(c) => Some(c.seq),
                Message::Inform(i) => Some(i.seq),
                Message::Checkpoint(c) => Some(c.seq),
                _ => None,
            },
            WalRecord::ViewEntered { .. } => None,
        }
    }
}

/// A durable checkpoint snapshot: everything a replica needs to restart
/// execution above `seq` without replaying history below it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableCheckpoint {
    /// Sequence number the checkpoint covers.
    pub seq: SeqNum,
    /// Application state digest at `seq` (cross-checked against the proof).
    pub state_digest: Digest,
    /// Execution snapshot (application state, `last_executed`, reply cache)
    /// as produced by the execution engine.
    pub snapshot: Vec<u8>,
    /// The stability certificate: the signed `CHECKPOINT` messages that made
    /// this checkpoint stable.
    pub proof: Vec<Checkpoint>,
}

/// Everything a restarted replica gets back from its store.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// The last durable checkpoint, if one was ever persisted.
    pub checkpoint: Option<DurableCheckpoint>,
    /// The WAL suffix, in append order. Every slot-bearing record in it is
    /// above the checkpoint.
    pub wal: Vec<WalRecord>,
    /// Whether a torn tail (partial or corrupt final frames) was discarded
    /// while reading the WAL.
    pub torn_tail: bool,
}

/// The narrow durability seam held by every protocol core.
///
/// Implementations must be cheap to call when disabled: cores guard every
/// call with [`enabled`](Durability::enabled), so [`NullStore`] keeps the
/// default configuration allocation-free and bit-identical to a build
/// without durability.
///
/// Write failures panic: a replica that cannot make its vote durable must
/// halt rather than vote on memory alone (continuing would silently void the
/// no-un-vote guarantee).
pub trait Durability: Send + Sync {
    /// Whether this store persists anything at all. `false` promises every
    /// other method is a no-op, letting cores skip snapshot/encode work.
    fn enabled(&self) -> bool;

    /// Appends one record to the WAL and syncs it, honouring the fsync
    /// policy. Must be called **before** the corresponding message is
    /// handed to the transport.
    fn append(&self, record: &WalRecord);

    /// Appends one record without syncing it. The caller must call
    /// [`sync`](Durability::sync) before the corresponding message is
    /// handed to the transport. Defaults to [`append`](Durability::append).
    fn append_unsynced(&self, record: &WalRecord) {
        self.append(record);
    }

    /// Makes every record appended so far durable, honouring the fsync
    /// policy; a no-op when nothing is unsynced. Defaults to a no-op, which
    /// is right for a store whose `append_unsynced` syncs.
    fn sync(&self) {}

    /// Durably replaces the checkpoint snapshot (atomic: a crash mid-write
    /// leaves the previous checkpoint intact).
    fn persist_checkpoint(&self, checkpoint: &DurableCheckpoint);

    /// Drops every WAL record about a slot at or below `seq` (slot-less
    /// records survive). Called after
    /// [`persist_checkpoint`](Durability::persist_checkpoint) so the dropped
    /// records are covered by the snapshot. A store may put the rewrite off
    /// (it is called on the commit path) as long as
    /// [`recover`](Durability::recover) never returns a record the durable
    /// checkpoint covers.
    fn compact_below(&self, seq: SeqNum);

    /// Reads the durable state back: the last checkpoint plus the WAL
    /// suffix, with any torn tail discarded. `None` when the store is
    /// disabled.
    fn recover(&self) -> Option<RecoveredState>;
}

/// The default store: durability off, every operation a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStore;

impl Durability for NullStore {
    fn enabled(&self) -> bool {
        false
    }

    fn append(&self, _record: &WalRecord) {}

    fn persist_checkpoint(&self, _checkpoint: &DurableCheckpoint) {}

    fn compact_below(&self, _seq: SeqNum) {}

    fn recover(&self) -> Option<RecoveredState> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::ReplicaId;
    use seemore_wire::StateRequest;

    #[test]
    fn null_store_is_disabled_and_inert() {
        let store = NullStore;
        assert!(!store.enabled());
        store.append(&WalRecord::ViewEntered {
            view: View(3),
            mode: Mode::Lion,
        });
        store.compact_below(SeqNum(10));
        assert!(store.recover().is_none());
    }

    #[test]
    fn slot_extraction_covers_vote_kinds_only() {
        let record = WalRecord::Vote(Message::StateRequest(StateRequest {
            from_seq: SeqNum(4),
            replica: ReplicaId(1),
        }));
        assert_eq!(record.slot(), None);
        let view = WalRecord::ViewEntered {
            view: View(1),
            mode: Mode::Peacock,
        };
        assert_eq!(view.slot(), None);
    }
}
