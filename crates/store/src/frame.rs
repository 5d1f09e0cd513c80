//! Byte-level framing shared by the file-backed and in-memory stores.
//!
//! Every WAL record is one frame:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload = [tag: u8] [body]
//! ```
//!
//! `crc32` covers the payload. A crash mid-append leaves a partial final
//! frame — a short header, a short payload, or a payload whose CRC no longer
//! matches — and [`decode_wal`] stops at the first such frame, reporting the
//! discarded tail. Because appends are strictly sequential, everything
//! before the first bad frame is exactly the set of records that were
//! durably appended.
//!
//! A segment holds its records followed by zero fill (a
//! [`FileStore`](crate::FileStore) writes zeros ahead of its appends so that
//! a sync overwrites blocks the file already has). An all-zero header ends
//! the records: `len` counts at least the payload's tag byte, so no real
//! frame starts with eight zero bytes. Where the bytes left are fewer than a
//! header, all of them zero ends the records too. The tail is clean when
//! every byte after that point is zero, and torn when a nonzero byte
//! follows.
//!
//! [`WalRecord::Vote`] bodies reuse the versioned wire codec, so the store
//! inherits its size contract and adversarial-input hardening; the small
//! store-local records use fixed-width little-endian fields.

use crate::{DurableCheckpoint, RecoveredState, WalRecord};
use seemore_crypto::Digest;
use seemore_types::{Mode, SeqNum, View};
use seemore_wire::codec;
use seemore_wire::Message;
use std::io::Read;

/// Frame tag for [`WalRecord::Vote`].
const TAG_VOTE: u8 = 1;
/// Frame tag for [`WalRecord::ViewEntered`].
const TAG_VIEW_ENTERED: u8 = 2;

/// Magic prefix of the checkpoint blob (`"SMCP"`).
const CHECKPOINT_MAGIC: u32 = 0x534D_4350;

/// Largest payload [`decode_wal`] will accept, mirroring the wire codec's
/// frame bound so a corrupt length field cannot demand an absurd allocation.
const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// One byte through the CRC register, a bit at a time: the definition the
/// lookup tables are built from and checked against.
const fn crc32_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC32_TABLES[k][b]` is the register after byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        tables[0][byte] = crc32_byte(byte as u32);
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the classic WAL checksum,
/// implemented directly so the offline build needs no external crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(low & 0xFF) as usize]
            ^ t[6][(low >> 8 & 0xFF) as usize]
            ^ t[5][(low >> 16 & 0xFF) as usize]
            ^ t[4][(low >> 24) as usize]
            ^ t[3][usize::from(chunk[4])]
            ^ t[2][usize::from(chunk[5])]
            ^ t[1][usize::from(chunk[6])]
            ^ t[0][usize::from(chunk[7])];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends the frame for `record` to `out`.
pub fn encode_record(record: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    match record {
        WalRecord::Vote(message) => {
            payload.push(TAG_VOTE);
            payload.extend_from_slice(&codec::encode(message));
        }
        WalRecord::ViewEntered { view, mode } => {
            payload.push(TAG_VIEW_ENTERED);
            payload.extend_from_slice(&view.0.to_le_bytes());
            payload.push(mode.index());
        }
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// The records decoded from one WAL byte stream, plus whether a torn tail
/// was discarded to get them.
#[derive(Debug, Clone, Default)]
pub struct DecodedWal {
    /// Cleanly framed records, in append order.
    pub records: Vec<WalRecord>,
    /// Whether trailing bytes were discarded (short frame, CRC mismatch, or
    /// an undecodable payload).
    pub torn_tail: bool,
    /// Bytes consumed by the clean records — the offset to truncate a torn
    /// stream to when repairing it in place.
    pub clean_len: usize,
}

/// Whether `bytes`, read from a frame boundary, start with zero fill: an
/// all-zero header, or fewer bytes than a header, all of them zero.
fn is_fill(bytes: &[u8]) -> bool {
    bytes.iter().take(8).all(|&byte| byte == 0)
}

/// Decodes a WAL byte stream, keeping the longest cleanly-framed prefix. The
/// records end at zero fill; bytes after it count as a torn tail only if one
/// of them is nonzero.
pub fn decode_wal(bytes: &[u8]) -> DecodedWal {
    let mut out = DecodedWal::default();
    let mut at = 0;
    while at < bytes.len() {
        if is_fill(&bytes[at..]) {
            out.torn_tail = bytes[at..].iter().any(|&byte| byte != 0);
            return out;
        }
        let Some(header) = bytes.get(at..at + 8) else {
            out.torn_tail = true;
            return out;
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            out.torn_tail = true;
            return out;
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            out.torn_tail = true;
            return out;
        };
        if crc32(payload) != crc {
            out.torn_tail = true;
            return out;
        }
        match decode_payload(payload) {
            Some(record) => out.records.push(record),
            None => {
                out.torn_tail = true;
                return out;
            }
        }
        at += 8 + len;
        out.clean_len = at;
    }
    out
}

/// Reads the next frame of a WAL stream into `frame` (header and payload,
/// exactly as stored) and decodes its record. `None` at the end of the
/// stream, at zero fill and at the first frame [`decode_wal`] would discard,
/// so a loop over it sees the same clean prefix in the memory of one frame.
pub fn read_record(reader: &mut impl Read, frame: &mut Vec<u8>) -> Option<WalRecord> {
    frame.resize(8, 0);
    reader.read_exact(frame).ok()?;
    if is_fill(frame) {
        return None;
    }
    let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD {
        return None;
    }
    if reader.by_ref().take(len as u64).read_to_end(frame).ok()? != len {
        return None;
    }
    if crc32(&frame[8..]) != crc {
        return None;
    }
    decode_payload(&frame[8..])
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&tag, body) = payload.split_first()?;
    match tag {
        TAG_VOTE => codec::decode(body).ok().map(WalRecord::Vote),
        TAG_VIEW_ENTERED => {
            if body.len() != 9 {
                return None;
            }
            let view = View(u64::from_le_bytes(body[0..8].try_into().expect("8 bytes")));
            let mode = Mode::from_index(body[8])?;
            Some(WalRecord::ViewEntered { view, mode })
        }
        _ => None,
    }
}

/// Encodes a checkpoint blob: magic, CRC over the body, then the snapshot
/// and the stability certificate (each proof entry framed through the wire
/// codec).
pub fn encode_checkpoint(checkpoint: &DurableCheckpoint) -> Vec<u8> {
    let mut body = Vec::with_capacity(checkpoint.snapshot.len() + 128);
    body.extend_from_slice(&checkpoint.seq.0.to_le_bytes());
    body.extend_from_slice(checkpoint.state_digest.as_bytes());
    body.extend_from_slice(&(checkpoint.snapshot.len() as u64).to_le_bytes());
    body.extend_from_slice(&checkpoint.snapshot);
    body.extend_from_slice(&(checkpoint.proof.len() as u32).to_le_bytes());
    for proof in &checkpoint.proof {
        let encoded = codec::encode(&Message::Checkpoint(proof.clone()));
        body.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        body.extend_from_slice(&encoded);
    }
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes a checkpoint blob; `None` if it is absent, truncated or corrupt
/// (a crash mid-rename can only ever lose the *new* checkpoint, never
/// corrupt the old one, so corruption here means "no durable checkpoint").
pub fn decode_checkpoint(bytes: &[u8]) -> Option<DurableCheckpoint> {
    if bytes.len() < 8 {
        return None;
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if magic != CHECKPOINT_MAGIC {
        return None;
    }
    let body = &bytes[8..];
    if crc32(body) != crc {
        return None;
    }
    let mut at = 0;
    let read_u64 = |at: usize| -> Option<u64> {
        body.get(at..at + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    };
    let seq = SeqNum(read_u64(at)?);
    at += 8;
    let digest_bytes: [u8; 32] = body.get(at..at + 32)?.try_into().ok()?;
    let state_digest = Digest::from_bytes(digest_bytes);
    at += 32;
    let snapshot_len = read_u64(at)? as usize;
    at += 8;
    let snapshot = body.get(at..at + snapshot_len)?.to_vec();
    at += snapshot_len;
    let proof_count = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
    at += 4;
    let mut proof = Vec::with_capacity(proof_count.min(1024));
    for _ in 0..proof_count {
        let len = u32::from_le_bytes(body.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let encoded = body.get(at..at + len)?;
        at += len;
        match codec::decode(encoded).ok()? {
            Message::Checkpoint(cp) => proof.push(cp),
            _ => return None,
        }
    }
    Some(DurableCheckpoint {
        seq,
        state_digest,
        snapshot,
        proof,
    })
}

/// Assembles a [`RecoveredState`] from a raw checkpoint blob and the WAL
/// byte streams of every segment in order (shared by both store backends).
/// Records the checkpoint covers are left out: they are still in the WAL
/// after a crash between persisting a checkpoint and compacting below it, and
/// in a [`FileStore`](crate::FileStore) until its next compaction.
pub fn assemble(checkpoint: Option<&[u8]>, segments: &[Vec<u8>]) -> RecoveredState {
    let checkpoint = checkpoint.and_then(decode_checkpoint);
    let mut wal = Vec::new();
    let mut torn_tail = false;
    for (index, segment) in segments.iter().enumerate() {
        let decoded = decode_wal(segment);
        wal.extend(decoded.records);
        if decoded.torn_tail {
            // A torn frame in a non-final segment means everything after it
            // (including later segments) is unreliable; stop here.
            torn_tail = true;
            let _ = index;
            break;
        }
    }
    if let Some(covered) = checkpoint.as_ref().map(|checkpoint| checkpoint.seq) {
        wal.retain(|record| record.slot().is_none_or(|slot| slot > covered));
    }
    RecoveredState {
        checkpoint,
        wal,
        torn_tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::Signature;
    use seemore_types::ReplicaId;
    use seemore_wire::{Accept, Checkpoint};

    fn vote(seq: u64) -> WalRecord {
        WalRecord::Vote(Message::Accept(Accept {
            view: View(0),
            seq: SeqNum(seq),
            digest: Digest::of_bytes(&seq.to_le_bytes()),
            replica: ReplicaId(2),
            signature: Some(Signature::INVALID),
        }))
    }

    /// The bit-at-a-time CRC-32 the table-driven one replaced, kept as its
    /// oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in bytes {
            crc = crc32_byte(crc ^ u32::from(byte));
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        /// Any bytes, from any offset (so the eight-byte strides start at
        /// every alignment) and of any length (so every remainder occurs).
        #[test]
        fn crc32_matches_the_bitwise_oracle(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            skip in 0usize..16,
        ) {
            let bytes = &data[skip.min(data.len())..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bitwise(bytes));
        }
    }

    #[test]
    fn records_round_trip() {
        let records = vec![
            vote(1),
            WalRecord::ViewEntered {
                view: View(7),
                mode: Mode::Dog,
            },
            vote(2),
        ];
        let mut bytes = Vec::new();
        for record in &records {
            encode_record(record, &mut bytes);
        }
        let decoded = decode_wal(&bytes);
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.records, records);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_crash_point() {
        let records = vec![vote(1), vote(2), vote(3)];
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for record in &records {
            encode_record(record, &mut bytes);
            boundaries.push(bytes.len());
        }
        for cut in 0..bytes.len() {
            let decoded = decode_wal(&bytes[..cut]);
            // The decode keeps exactly the records whose frames lie wholly
            // below the cut.
            let whole = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(decoded.records.len(), whole, "cut at {cut}");
            assert_eq!(decoded.records[..], records[..whole]);
            assert_eq!(decoded.torn_tail, cut != boundaries[whole]);
        }
    }

    #[test]
    fn read_record_sees_what_decode_wal_keeps() {
        let records = vec![
            vote(1),
            WalRecord::ViewEntered {
                view: View(7),
                mode: Mode::Dog,
            },
            vote(3),
        ];
        let mut bytes = Vec::new();
        for record in &records {
            encode_record(record, &mut bytes);
        }
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let streams = (0..=bytes.len())
            .map(|cut| &bytes[..cut])
            .chain([&corrupt[..]]);
        for stream in streams {
            let mut reader = stream;
            let mut frame = Vec::new();
            let mut read = Vec::new();
            let mut framed = Vec::new();
            while let Some(record) = read_record(&mut reader, &mut frame) {
                read.push(record);
                framed.extend_from_slice(&frame);
            }
            let decoded = decode_wal(stream);
            assert_eq!(read, decoded.records);
            assert_eq!(framed, stream[..decoded.clean_len]);
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut bytes = Vec::new();
        encode_record(&vote(1), &mut bytes);
        encode_record(&vote(2), &mut bytes);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let decoded = decode_wal(&bytes);
        assert!(decoded.torn_tail);
        assert_eq!(decoded.records, vec![vote(1)]);
    }

    #[test]
    fn absurd_length_field_is_rejected_without_allocation() {
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0x7F]; // ~2 GiB length
        bytes.extend_from_slice(&[0u8; 4]);
        let decoded = decode_wal(&bytes);
        assert!(decoded.torn_tail);
        assert!(decoded.records.is_empty());
    }

    #[test]
    fn checkpoint_blob_round_trips() {
        let checkpoint = DurableCheckpoint {
            seq: SeqNum(40),
            state_digest: Digest::of_bytes(b"state"),
            snapshot: vec![1, 2, 3, 4, 5],
            proof: vec![Checkpoint {
                seq: SeqNum(40),
                state_digest: Digest::of_bytes(b"state"),
                replica: ReplicaId(0),
                signature: Signature::INVALID,
            }],
        };
        let bytes = encode_checkpoint(&checkpoint);
        assert_eq!(decode_checkpoint(&bytes), Some(checkpoint));
    }

    #[test]
    fn corrupt_checkpoint_is_treated_as_absent() {
        let checkpoint = DurableCheckpoint {
            seq: SeqNum(8),
            state_digest: Digest::ZERO,
            snapshot: vec![9; 64],
            proof: Vec::new(),
        };
        let mut bytes = encode_checkpoint(&checkpoint);
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_none());
        bytes[20] ^= 0x01;
        assert!(decode_checkpoint(&bytes).is_none());
        assert!(decode_checkpoint(&[]).is_none());
    }

    #[test]
    fn assemble_stops_at_a_torn_middle_segment() {
        let mut clean = Vec::new();
        encode_record(&vote(1), &mut clean);
        let mut torn = Vec::new();
        encode_record(&vote(2), &mut torn);
        torn.truncate(torn.len() - 3);
        let mut later = Vec::new();
        encode_record(&vote(3), &mut later);

        let state = assemble(None, &[clean, torn, later]);
        assert!(state.torn_tail);
        assert_eq!(state.wal, vec![vote(1)]);
        assert!(state.checkpoint.is_none());
    }
}
