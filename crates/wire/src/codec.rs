//! The real wire codec: a versioned, length-prefixed binary encoding for
//! every [`Message`] variant.
//!
//! # Frame layout
//!
//! Every encoded message (and every nested block that carries a
//! [`HEADER_LEN`]-sized header in its [`WireSize`] accounting: client
//! requests inside batches, checkpoints inside proofs, embedded view-change
//! evidence) starts with the same 16-byte header:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  ("SeMR")
//!      4     1  codec version (1)
//!      5     1  message kind tag
//!      6     2  flags (little-endian; per-kind meaning, e.g. bit 0 of an
//!               ACCEPT frame records whether the optional signature is
//!               present)
//!      8     8  body length in bytes (little-endian), excluding the header
//! ```
//!
//! The body is a fixed field sequence per kind: integers are 8-byte
//! little-endian, digests and signatures are raw 32-byte strings, sequences
//! carry an 8-byte element count, and `Option`s carry a 1-byte presence tag
//! (except the ACCEPT signature, which is recorded in the header flags so
//! that the historical size model is preserved byte-for-byte). A message
//! with exactly one variable-length payload (the request operation, the
//! reply result) stores it as the unprefixed tail of the body — its length
//! is recovered from the body length.
//!
//! # The size contract
//!
//! `encode(m).len() == m.wire_size()` for every message `m`. [`WireSize`]
//! used to be an *estimate* of what a length-prefixed codec would produce;
//! this module turns it into an asserted contract (see the
//! `codec_properties` integration tests), so the simulator's bandwidth model
//! and the socket runtime's real byte counts are the same number.
//!
//! # Decoding
//!
//! [`decode`] never panics on untrusted input: every malformed input maps to
//! a typed [`DecodeError`] (truncation, bad magic, unsupported version,
//! frames over [`MAX_FRAME`], unknown kind tags, structural garbage). The
//! streaming [`FrameReader`] reassembles frames from arbitrary TCP segment
//! boundaries and surfaces the same errors.

use crate::agreement::{Accept, Commit, Inform, PbftPrepare, PrePrepare, Prepare};
use crate::batch::Batch;
use crate::client::{ClientReply, ClientRequest, ReadReply, ReadRequest};
use crate::control::{
    Checkpoint, CommitCert, ModeChange, NewView, PrepareCert, Recovery, StateRequest,
    StateResponse, ViewChange,
};
use crate::message::Message;
use crate::size::{WireSize, HEADER_LEN};
use seemore_crypto::{Digest, Signature};
use seemore_types::{ClientId, Mode, ReplicaId, RequestId, SeqNum, Timestamp, View};
use std::fmt;
use std::sync::Arc;

/// The four magic bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"SeMR";

/// The codec version this module encodes and accepts.
pub const CODEC_VERSION: u8 = 1;

/// Upper bound on a whole frame (header included). Frames whose header
/// announces more than this are rejected before any allocation, which stops
/// a malicious peer from making a replica reserve gigabytes off an 8-byte
/// length field.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of a digest or signature on the wire.
const HASH_LEN: usize = 32;

/// ACCEPT header flag bit: the optional signature is present.
const FLAG_ACCEPT_SIGNED: u16 = 1;

/// READ-REPLY header flag bit: the replica refused the fast path.
const FLAG_READ_REFUSED: u16 = 1;

// Kind tags. These are wire artifacts (not `MessageKind` discriminants) so
// reordering the Rust enum can never silently change the protocol.
const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_PREPARE: u8 = 3;
const KIND_PRE_PREPARE: u8 = 4;
const KIND_ACCEPT: u8 = 5;
const KIND_PBFT_PREPARE: u8 = 6;
const KIND_COMMIT: u8 = 7;
const KIND_INFORM: u8 = 8;
const KIND_CHECKPOINT: u8 = 9;
const KIND_VIEW_CHANGE: u8 = 10;
const KIND_NEW_VIEW: u8 = 11;
const KIND_MODE_CHANGE: u8 = 12;
const KIND_STATE_REQUEST: u8 = 13;
const KIND_STATE_RESPONSE: u8 = 14;
const KIND_READ_REQUEST: u8 = 15;
const KIND_READ_REPLY: u8 = 16;
// 17 was a shard redirect; it is retired and must not be reused.
const KIND_RECOVERY: u8 = 18;

/// Why a byte string failed to decode. Every variant is a graceful error —
/// the decoder never panics and never allocates proportionally to an
/// attacker-controlled length field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the announced structure was complete.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame announces a codec version this build does not speak.
    BadVersion(u8),
    /// The frame announces a total length over [`MAX_FRAME`] bytes.
    FrameTooLarge(u64),
    /// The kind tag does not name any message type.
    UnknownKind(u8),
    /// The frame is structurally invalid (the reason names the field).
    Malformed(&'static str),
    /// The frame decoded but left unconsumed bytes behind.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated mid-frame"),
            DecodeError::BadMagic(found) => write!(f, "bad magic bytes {found:02x?}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            DecodeError::FrameTooLarge(len) => {
                write!(f, "frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})")
            }
            DecodeError::UnknownKind(k) => write!(f, "unknown message kind tag {k}"),
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a message into one self-contained frame.
///
/// The returned buffer's length equals `message.wire_size()` — the size
/// model *is* the codec.
pub fn encode(message: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(message.wire_size());
    encode_into(message, &mut out);
    out
}

/// One encoded message as immutable shared bytes (`Arc<[u8]>`).
///
/// A `Frame` is the unit the broadcast hot path fans out: the sender encodes
/// a message **once** — ideally through [`Frame::encode_with`], which reuses
/// a caller-owned scratch buffer so steady-state encoding allocates only the
/// single `Arc` — and then clones the handle onto every destination's writer
/// queue. Cloning is a reference-count bump; the bytes are never copied or
/// re-serialized per destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame(Arc<[u8]>);

impl Frame {
    /// Encodes `message` into a fresh frame (allocating convenience; the hot
    /// path uses [`encode_with`](Self::encode_with)).
    pub fn encode(message: &Message) -> Frame {
        let mut scratch = Vec::with_capacity(message.wire_size());
        Frame::encode_with(&mut scratch, message)
    }

    /// Encodes `message` through the reusable `scratch` buffer, then builds
    /// the shared frame with one allocation and one copy directly from the
    /// encode buffer (no intermediate `Vec` is moved into the `Arc`, and
    /// `scratch`'s capacity is retained for the next encode).
    pub fn encode_with(scratch: &mut Vec<u8>, message: &Message) -> Frame {
        scratch.clear();
        encode_into(message, scratch);
        Frame(Arc::from(scratch.as_slice()))
    }

    /// Wraps already-encoded frame bytes (tests / fault injection).
    pub fn from_bytes(bytes: &[u8]) -> Frame {
        Frame(Arc::from(bytes))
    }

    /// The encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Encoded length in bytes (by the size contract, the message's
    /// `wire_size()`).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the frame is empty (never true for a codec-produced frame,
    /// which always carries at least a header).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Encodes a message, appending the frame to `out`.
pub fn encode_into(message: &Message, out: &mut Vec<u8>) {
    match message {
        Message::Request(m) => put_request(out, m),
        Message::Reply(m) => put_reply(out, m),
        Message::ReadRequest(m) => put_block(out, KIND_READ_REQUEST, 0, |b| {
            put_u64(b, m.client.0);
            put_u64(b, m.nonce.0);
            put_hash(b, m.signature.as_bytes());
            b.extend_from_slice(&m.operation);
        }),
        Message::ReadReply(m) => {
            let flags = if m.refused { FLAG_READ_REFUSED } else { 0 };
            put_block(out, KIND_READ_REPLY, flags, |b| {
                put_u8(b, m.mode.index());
                put_u64(b, m.view.0);
                put_u64(b, m.request.client.0);
                put_u64(b, m.request.timestamp.0);
                put_u64(b, u64::from(m.replica.0));
                put_u64(b, m.last_executed.0);
                put_hash(b, m.signature.as_bytes());
                b.extend_from_slice(&m.result);
            });
        }
        Message::Prepare(m) => put_block(out, KIND_PREPARE, 0, |b| {
            put_u64(b, m.view.0);
            put_u64(b, m.seq.0);
            put_hash(b, m.digest.as_bytes());
            put_hash(b, m.signature.as_bytes());
            put_batch(b, &m.batch);
        }),
        Message::PrePrepare(m) => put_block(out, KIND_PRE_PREPARE, 0, |b| {
            put_u64(b, m.view.0);
            put_u64(b, m.seq.0);
            put_hash(b, m.digest.as_bytes());
            put_hash(b, m.signature.as_bytes());
            put_batch(b, &m.batch);
        }),
        Message::Accept(m) => {
            let flags = if m.signature.is_some() {
                FLAG_ACCEPT_SIGNED
            } else {
                0
            };
            put_block(out, KIND_ACCEPT, flags, |b| {
                put_u64(b, m.view.0);
                put_u64(b, m.seq.0);
                put_hash(b, m.digest.as_bytes());
                put_u64(b, u64::from(m.replica.0));
                if let Some(signature) = &m.signature {
                    put_hash(b, signature.as_bytes());
                }
            });
        }
        Message::PbftPrepare(m) => put_block(out, KIND_PBFT_PREPARE, 0, |b| {
            put_u64(b, m.view.0);
            put_u64(b, m.seq.0);
            put_hash(b, m.digest.as_bytes());
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
        }),
        Message::Commit(m) => put_block(out, KIND_COMMIT, 0, |b| {
            put_u64(b, m.view.0);
            put_u64(b, m.seq.0);
            put_hash(b, m.digest.as_bytes());
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
            put_option(b, m.batch.as_ref(), put_batch);
        }),
        Message::Inform(m) => put_block(out, KIND_INFORM, 0, |b| {
            put_u64(b, m.view.0);
            put_u64(b, m.seq.0);
            put_hash(b, m.digest.as_bytes());
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
        }),
        Message::Checkpoint(m) => put_checkpoint(out, m),
        Message::ViewChange(m) => put_view_change(out, m),
        Message::NewView(m) => put_block(out, KIND_NEW_VIEW, 0, |b| {
            put_u64(b, m.view.0);
            put_u8(b, m.mode.index());
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
            put_seq(b, &m.prepares, put_prepare_cert);
            put_seq(b, &m.commits, put_commit_cert);
            put_option(b, m.checkpoint.as_ref(), put_checkpoint);
            put_seq(b, &m.view_change_proof, put_view_change);
        }),
        Message::ModeChange(m) => put_block(out, KIND_MODE_CHANGE, 0, |b| {
            put_u64(b, m.new_view.0);
            put_u8(b, m.new_mode.index());
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
        }),
        Message::StateRequest(m) => put_block(out, KIND_STATE_REQUEST, 0, |b| {
            put_u64(b, m.from_seq.0);
            put_u64(b, u64::from(m.replica.0));
        }),
        Message::Recovery(m) => put_block(out, KIND_RECOVERY, 0, |b| {
            put_u64(b, m.last_executed.0);
            put_u64(b, m.view.0);
            put_u64(b, u64::from(m.replica.0));
            put_hash(b, m.signature.as_bytes());
        }),
        Message::StateResponse(m) => put_block(out, KIND_STATE_RESPONSE, 0, |b| {
            put_u64(b, u64::from(m.replica.0));
            put_option(b, m.checkpoint.as_ref(), put_checkpoint);
            match &m.snapshot {
                Some(snapshot) => {
                    put_u8(b, 1);
                    put_u64(b, snapshot.len() as u64);
                    b.extend_from_slice(snapshot);
                }
                None => put_u8(b, 0),
            }
            put_u64(b, m.entries.len() as u64);
            for (seq, batch) in &m.entries {
                put_u64(b, seq.0);
                put_batch(b, batch);
            }
        }),
    }
}

/// Validates a frame header and returns the total frame length (header
/// included), or `Ok(None)` when fewer than [`HEADER_LEN`] bytes are
/// available yet.
///
/// This is the one place stream reassemblers (the [`FrameReader`] here, the
/// reactor transport's inbox reader in `seemore-net`) learn how many
/// bytes the next frame occupies: magic, version and the [`MAX_FRAME`] bound
/// are checked eagerly, so a poisoned stream fails as soon as its header
/// arrives instead of buffering an announced multi-gigabyte body.
pub fn frame_len(bytes: &[u8]) -> Result<Option<usize>, DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Ok(None);
    }
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&bytes[..4]);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if bytes[4] != CODEC_VERSION {
        return Err(DecodeError::BadVersion(bytes[4]));
    }
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let frame_len = (HEADER_LEN as u64).saturating_add(body_len);
    if frame_len > MAX_FRAME as u64 {
        return Err(DecodeError::FrameTooLarge(frame_len));
    }
    Ok(Some(frame_len as usize))
}

/// Decodes one complete frame. The input must contain exactly one frame;
/// leftover bytes are a [`DecodeError::TrailingBytes`] error (streams use
/// [`FrameReader`] instead).
pub fn decode(bytes: &[u8]) -> Result<Message, DecodeError> {
    let mut reader = Reader::new(bytes);
    let message = read_message(&mut reader)?;
    if reader.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(reader.remaining()));
    }
    Ok(message)
}

/// Reassembles codec frames from a byte stream delivered in arbitrary
/// chunks (TCP segmentation, short reads).
///
/// Feed raw bytes with [`push`](Self::push) and drain complete messages with
/// [`next_frame`](Self::next_frame). Header validation (magic, version,
/// [`MAX_FRAME`]) happens as soon as the 16 header bytes are available, so a
/// poisoned stream fails fast instead of buffering an announced multi-gigabyte
/// frame. After an error the stream has lost framing; the caller should drop
/// the connection.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: StreamBuf,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.push(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.buf.buffered()
    }

    /// Current capacity of the internal reassembly buffer (exposed so tests
    /// can assert the buffer reuse stays bounded under adversarial
    /// segmentation and frame-size mixes).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Number of times the reassembly buffer released excess capacity
    /// (exposed so tests can assert the shrink hysteresis: sustained large
    /// bursts must not thrash the allocator).
    pub fn shrinks(&self) -> u64 {
        self.buf.shrinks()
    }

    /// Returns the next complete message, `Ok(None)` if more bytes are
    /// needed, or the decode error that poisoned the stream.
    pub fn next_frame(&mut self) -> Result<Option<Message>, DecodeError> {
        let available = self.buf.bytes();
        // Validate the header eagerly, before the body arrives.
        let frame_len = match frame_len(available)? {
            Some(len) => len,
            None => return Ok(None),
        };
        if available.len() < frame_len {
            return Ok(None);
        }
        let message = decode(&available[..frame_len])?;
        self.buf.consume(frame_len);
        Ok(Some(message))
    }
}

/// A reusable stream-reassembly buffer: append raw bytes at the tail, consume
/// parsed records from the head, amortized O(1) on both ends.
///
/// This is the buffer discipline shared by [`FrameReader`] and the reactor
/// transport's inbox reader in `seemore-net`. Compaction policy:
///
/// * Consumed bytes are dropped (shifting the live suffix down) only once
///   they dominate the buffer, so `push` does not memmove on every frame.
/// * Excess capacity left behind by a large burst is released with
///   **hysteresis**: the buffer must sit mostly-empty for
///   [`StreamBuf::QUIET_COMPACTIONS`] consecutive compactions — with no
///   intervening fill above half the retained cap — before `shrink_to` runs.
///   A peer that regularly carries >64 KiB bursts therefore keeps its big
///   buffer (no realloc thrash: the old unconditional shrink reallocated on
///   every burst), while a buffer grown once by an oversized frame still
///   returns its memory instead of pinning tens of megabytes for the
///   lifetime of the connection.
#[derive(Debug, Default)]
pub struct StreamBuf {
    buf: Vec<u8>,
    start: usize,
    /// Max bytes buffered since the previous compaction — the signal that a
    /// shrink would be premature because the capacity is actively used.
    peak: usize,
    /// Consecutive compactions during which `peak` stayed below half the
    /// retained cap.
    quiet: u32,
    /// Monotonic count of `shrink_to` calls actually performed.
    shrinks: u64,
}

impl StreamBuf {
    /// Capacity the buffer is allowed to retain while (mostly) empty. A
    /// single oversized frame may grow the buffer up to [`MAX_FRAME`] while
    /// it is in flight, but once consumed (and quiet) the buffer shrinks
    /// back.
    pub const MAX_RETAINED_CAPACITY: usize = 64 * 1024;

    /// Mostly-empty compactions required before excess capacity is released.
    pub const QUIET_COMPACTIONS: u32 = 8;

    /// An empty buffer.
    pub fn new() -> StreamBuf {
        StreamBuf::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
        self.peak = self.peak.max(self.buffered());
    }

    /// The live (unconsumed) bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Current capacity of the underlying allocation.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Number of times excess capacity was actually released.
    pub fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Marks `n` bytes at the head as consumed.
    ///
    /// # Panics
    /// If `n` exceeds [`buffered`](Self::buffered).
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.buffered(), "consumed past the buffered bytes");
        self.start += n;
        self.compact();
    }

    fn compact(&mut self) {
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        if self.buf.capacity() <= Self::MAX_RETAINED_CAPACITY {
            // Nothing to release; stay out of the hysteresis bookkeeping so
            // a later growth starts its quiet count fresh.
            self.quiet = 0;
            self.peak = self.buffered();
            return;
        }
        if self.peak > Self::MAX_RETAINED_CAPACITY / 2 {
            // The window since the last compaction actually used the big
            // buffer — keep it, restart the quiet count.
            self.quiet = 0;
        } else {
            self.quiet += 1;
            if self.quiet >= Self::QUIET_COMPACTIONS
                && self.buffered() <= Self::MAX_RETAINED_CAPACITY / 2
            {
                self.buf.shrink_to(Self::MAX_RETAINED_CAPACITY);
                self.shrinks += 1;
                self.quiet = 0;
            }
        }
        self.peak = self.buffered();
    }
}

// ---------------------------------------------------------------------------
// Encoding primitives.

fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_hash(out: &mut Vec<u8>, bytes: &[u8; HASH_LEN]) {
    out.extend_from_slice(bytes);
}

/// Writes a 16-byte block header, runs `body`, then patches the body length.
fn put_block(out: &mut Vec<u8>, kind: u8, flags: u16, body: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&MAGIC);
    out.push(CODEC_VERSION);
    out.push(kind);
    out.extend_from_slice(&flags.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    let body_start = out.len();
    body(out);
    let body_len = (out.len() - body_start) as u64;
    out[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
}

/// Writes an 8-byte element count followed by the encoded elements
/// (mirroring the `Vec<T>` [`WireSize`] model).
fn put_seq<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u64(out, items.len() as u64);
    for item in items {
        put(out, item);
    }
}

/// Writes a 1-byte presence tag followed by the value when present
/// (mirroring the `Option<T>` [`WireSize`] model).
fn put_option<T>(out: &mut Vec<u8>, value: Option<&T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match value {
        Some(value) => {
            put_u8(out, 1);
            put(out, value);
        }
        None => put_u8(out, 0),
    }
}

fn put_request(out: &mut Vec<u8>, request: &ClientRequest) {
    put_block(out, KIND_REQUEST, 0, |b| {
        put_u64(b, request.client.0);
        put_u64(b, request.timestamp.0);
        put_hash(b, request.signature.as_bytes());
        b.extend_from_slice(&request.operation);
    });
}

fn put_reply(out: &mut Vec<u8>, reply: &ClientReply) {
    put_block(out, KIND_REPLY, 0, |b| {
        put_u8(b, reply.mode.index());
        put_u64(b, reply.view.0);
        put_u64(b, reply.request.client.0);
        put_u64(b, reply.request.timestamp.0);
        put_u64(b, u64::from(reply.replica.0));
        put_hash(b, reply.signature.as_bytes());
        b.extend_from_slice(&reply.result);
    });
}

fn put_batch(out: &mut Vec<u8>, batch: &Batch) {
    put_u64(out, batch.len() as u64);
    for request in batch {
        put_request(out, request);
    }
}

fn put_checkpoint(out: &mut Vec<u8>, checkpoint: &Checkpoint) {
    put_block(out, KIND_CHECKPOINT, 0, |b| {
        put_u64(b, checkpoint.seq.0);
        put_hash(b, checkpoint.state_digest.as_bytes());
        put_u64(b, u64::from(checkpoint.replica.0));
        put_hash(b, checkpoint.signature.as_bytes());
    });
}

/// Prepare and commit certificates share one wire layout; a single body
/// writer keeps the two from ever drifting apart.
fn put_cert_fields(
    out: &mut Vec<u8>,
    view: View,
    seq: SeqNum,
    digest: &Digest,
    primary_signature: &Signature,
    batch: Option<&Batch>,
) {
    put_u64(out, view.0);
    put_u64(out, seq.0);
    put_hash(out, digest.as_bytes());
    put_hash(out, primary_signature.as_bytes());
    put_option(out, batch, put_batch);
}

fn put_prepare_cert(out: &mut Vec<u8>, cert: &PrepareCert) {
    put_cert_fields(
        out,
        cert.view,
        cert.seq,
        &cert.digest,
        &cert.primary_signature,
        cert.batch.as_ref(),
    );
}

fn put_commit_cert(out: &mut Vec<u8>, cert: &CommitCert) {
    put_cert_fields(
        out,
        cert.view,
        cert.seq,
        &cert.digest,
        &cert.primary_signature,
        cert.batch.as_ref(),
    );
}

fn put_view_change(out: &mut Vec<u8>, vc: &ViewChange) {
    put_block(out, KIND_VIEW_CHANGE, 0, |b| {
        put_u64(b, vc.new_view.0);
        put_u8(b, vc.mode.index());
        put_u64(b, vc.stable_seq.0);
        put_u64(b, u64::from(vc.replica.0));
        put_hash(b, vc.signature.as_bytes());
        put_seq(b, &vc.checkpoint_proof, put_checkpoint);
        put_seq(b, &vc.prepares, put_prepare_cert);
        put_seq(b, &vc.commits, put_commit_cert);
    });
}

// ---------------------------------------------------------------------------
// Decoding primitives.

/// A bounds-checked cursor over untrusted bytes. Every accessor returns
/// [`DecodeError::Truncated`] instead of slicing out of range.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn hash(&mut self) -> Result<[u8; HASH_LEN], DecodeError> {
        Ok(self.take(HASH_LEN)?.try_into().expect("32 bytes"))
    }

    fn digest(&mut self) -> Result<Digest, DecodeError> {
        Ok(Digest::from_bytes(self.hash()?))
    }

    fn signature(&mut self) -> Result<Signature, DecodeError> {
        Ok(Signature::from_bytes(self.hash()?))
    }

    fn replica(&mut self) -> Result<ReplicaId, DecodeError> {
        let raw = self.u64()?;
        u32::try_from(raw)
            .map(ReplicaId)
            .map_err(|_| DecodeError::Malformed("replica id overflows u32"))
    }

    fn mode(&mut self) -> Result<Mode, DecodeError> {
        Mode::from_index(self.u8()?).ok_or(DecodeError::Malformed("unknown mode index"))
    }

    /// Reads an element count and sanity-checks it against the bytes left:
    /// every element occupies at least `min_element` bytes, so any larger
    /// count is lying and would otherwise drive a huge allocation.
    fn count(&mut self, min_element: usize) -> Result<usize, DecodeError> {
        let count = self.u64()?;
        let cap = (self.remaining() / min_element.max(1)) as u64;
        if count > cap {
            return Err(DecodeError::Truncated);
        }
        Ok(count as usize)
    }
}

/// A parsed 16-byte block header.
struct BlockHeader {
    kind: u8,
    flags: u16,
    body_len: usize,
}

fn read_block_header(r: &mut Reader) -> Result<BlockHeader, DecodeError> {
    let magic: [u8; 4] = r.take(4)?.try_into().expect("4 bytes");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != CODEC_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let kind = r.u8()?;
    let flags = r.u16()?;
    let body_len = r.u64()?;
    let frame_len = (HEADER_LEN as u64).saturating_add(body_len);
    if frame_len > MAX_FRAME as u64 {
        return Err(DecodeError::FrameTooLarge(frame_len));
    }
    let body_len = body_len as usize;
    if body_len > r.remaining() {
        return Err(DecodeError::Truncated);
    }
    Ok(BlockHeader {
        kind,
        flags,
        body_len,
    })
}

/// Reads one block (header + body) and decodes it as a [`Message`].
fn read_message(r: &mut Reader) -> Result<Message, DecodeError> {
    let header = read_block_header(r)?;
    let mut body = Reader::new(r.take(header.body_len)?);
    let message = match header.kind {
        KIND_REQUEST => Message::Request(read_request_body(&mut body)?),
        KIND_REPLY => Message::Reply(read_reply_body(&mut body)?),
        KIND_READ_REQUEST => {
            let client = ClientId(body.u64()?);
            let nonce = Timestamp(body.u64()?);
            let signature = body.signature()?;
            let operation = body.take(body.remaining())?.to_vec();
            Message::ReadRequest(ReadRequest {
                client,
                nonce,
                operation,
                signature,
            })
        }
        KIND_READ_REPLY => {
            let mode = body.mode()?;
            let view = View(body.u64()?);
            let client = ClientId(body.u64()?);
            let nonce = Timestamp(body.u64()?);
            let replica = body.replica()?;
            let last_executed = SeqNum(body.u64()?);
            let signature = body.signature()?;
            let result = body.take(body.remaining())?.to_vec();
            Message::ReadReply(ReadReply {
                mode,
                view,
                request: RequestId::new(client, nonce),
                replica,
                last_executed,
                refused: header.flags & FLAG_READ_REFUSED != 0,
                result,
                signature,
            })
        }
        KIND_PREPARE => {
            let (view, seq, digest, signature, batch) = read_proposal_body(&mut body)?;
            Message::Prepare(Prepare {
                view,
                seq,
                digest,
                batch,
                signature,
            })
        }
        KIND_PRE_PREPARE => {
            let (view, seq, digest, signature, batch) = read_proposal_body(&mut body)?;
            Message::PrePrepare(PrePrepare {
                view,
                seq,
                digest,
                batch,
                signature,
            })
        }
        KIND_ACCEPT => {
            let view = View(body.u64()?);
            let seq = SeqNum(body.u64()?);
            let digest = body.digest()?;
            let replica = body.replica()?;
            let signature = if header.flags & FLAG_ACCEPT_SIGNED != 0 {
                Some(body.signature()?)
            } else {
                None
            };
            Message::Accept(Accept {
                view,
                seq,
                digest,
                replica,
                signature,
            })
        }
        KIND_PBFT_PREPARE => {
            let (view, seq, digest, replica, signature) = read_vote_body(&mut body)?;
            Message::PbftPrepare(PbftPrepare {
                view,
                seq,
                digest,
                replica,
                signature,
            })
        }
        KIND_COMMIT => {
            let view = View(body.u64()?);
            let seq = SeqNum(body.u64()?);
            let digest = body.digest()?;
            let replica = body.replica()?;
            let signature = body.signature()?;
            let batch = read_option(&mut body, read_batch)?;
            Message::Commit(Commit {
                view,
                seq,
                digest,
                replica,
                batch,
                signature,
            })
        }
        KIND_INFORM => {
            let (view, seq, digest, replica, signature) = read_vote_body(&mut body)?;
            Message::Inform(Inform {
                view,
                seq,
                digest,
                replica,
                signature,
            })
        }
        KIND_CHECKPOINT => Message::Checkpoint(read_checkpoint_body(&mut body)?),
        KIND_VIEW_CHANGE => Message::ViewChange(read_view_change_body(&mut body)?),
        KIND_NEW_VIEW => {
            let view = View(body.u64()?);
            let mode = body.mode()?;
            let replica = body.replica()?;
            let signature = body.signature()?;
            let prepares = read_seq(&mut body, MIN_CERT_LEN, read_prepare_cert)?;
            let commits = read_seq(&mut body, MIN_CERT_LEN, read_commit_cert)?;
            let checkpoint = read_option(&mut body, read_checkpoint)?;
            let view_change_proof = read_seq(&mut body, HEADER_LEN, read_view_change)?;
            Message::NewView(NewView {
                view,
                mode,
                prepares,
                commits,
                checkpoint,
                view_change_proof,
                replica,
                signature,
            })
        }
        KIND_MODE_CHANGE => {
            let new_view = View(body.u64()?);
            let new_mode = body.mode()?;
            let replica = body.replica()?;
            let signature = body.signature()?;
            Message::ModeChange(ModeChange {
                new_view,
                new_mode,
                replica,
                signature,
            })
        }
        KIND_STATE_REQUEST => {
            let from_seq = SeqNum(body.u64()?);
            let replica = body.replica()?;
            Message::StateRequest(StateRequest { from_seq, replica })
        }
        KIND_RECOVERY => {
            let last_executed = SeqNum(body.u64()?);
            let view = View(body.u64()?);
            let replica = body.replica()?;
            let signature = body.signature()?;
            Message::Recovery(Recovery {
                last_executed,
                view,
                replica,
                signature,
            })
        }
        KIND_STATE_RESPONSE => {
            let replica = body.replica()?;
            let checkpoint = read_option(&mut body, read_checkpoint)?;
            let snapshot = match body.u8()? {
                0 => None,
                1 => {
                    let len = body.count(1)?;
                    Some(body.take(len)?.to_vec())
                }
                _ => return Err(DecodeError::Malformed("snapshot presence tag")),
            };
            let count = body.count(8)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let seq = SeqNum(body.u64()?);
                let batch = read_batch(&mut body)?;
                entries.push((seq, batch));
            }
            Message::StateResponse(StateResponse {
                checkpoint,
                snapshot,
                entries,
                replica,
            })
        }
        other => return Err(DecodeError::UnknownKind(other)),
    };
    if body.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(body.remaining()));
    }
    Ok(message)
}

/// Smallest possible encoded prepare/commit certificate: two integers, a
/// digest, a signature and an absent-batch tag.
const MIN_CERT_LEN: usize = 8 + 8 + HASH_LEN + HASH_LEN + 1;

/// Reads a nested block and checks it carries the expected kind, returning a
/// reader over exactly its body.
fn read_expected_block<'a>(r: &mut Reader<'a>, kind: u8) -> Result<Reader<'a>, DecodeError> {
    let header = read_block_header(r)?;
    if header.kind != kind {
        return Err(DecodeError::Malformed("nested block has wrong kind"));
    }
    Ok(Reader::new(r.take(header.body_len)?))
}

fn read_request_body(body: &mut Reader) -> Result<ClientRequest, DecodeError> {
    let client = ClientId(body.u64()?);
    let timestamp = Timestamp(body.u64()?);
    let signature = body.signature()?;
    let operation = body.take(body.remaining())?.to_vec();
    Ok(ClientRequest {
        client,
        timestamp,
        operation,
        signature,
    })
}

fn read_reply_body(body: &mut Reader) -> Result<ClientReply, DecodeError> {
    let mode = body.mode()?;
    let view = View(body.u64()?);
    let client = ClientId(body.u64()?);
    let timestamp = Timestamp(body.u64()?);
    let replica = body.replica()?;
    let signature = body.signature()?;
    let result = body.take(body.remaining())?.to_vec();
    Ok(ClientReply {
        mode,
        view,
        request: RequestId::new(client, timestamp),
        replica,
        result,
        signature,
    })
}

type ProposalFields = (View, SeqNum, Digest, Signature, Batch);

fn read_proposal_body(body: &mut Reader) -> Result<ProposalFields, DecodeError> {
    let view = View(body.u64()?);
    let seq = SeqNum(body.u64()?);
    let digest = body.digest()?;
    let signature = body.signature()?;
    let batch = read_batch(body)?;
    Ok((view, seq, digest, signature, batch))
}

type VoteFields = (View, SeqNum, Digest, ReplicaId, Signature);

fn read_vote_body(body: &mut Reader) -> Result<VoteFields, DecodeError> {
    let view = View(body.u64()?);
    let seq = SeqNum(body.u64()?);
    let digest = body.digest()?;
    let replica = body.replica()?;
    let signature = body.signature()?;
    Ok((view, seq, digest, replica, signature))
}

fn read_request(r: &mut Reader) -> Result<ClientRequest, DecodeError> {
    let mut body = read_expected_block(r, KIND_REQUEST)?;
    let request = read_request_body(&mut body)?;
    debug_assert_eq!(body.remaining(), 0, "request body reads its full tail");
    Ok(request)
}

fn read_batch(r: &mut Reader) -> Result<Batch, DecodeError> {
    let count = r.count(HEADER_LEN)?;
    if count == 0 {
        // `Batch::new` rejects empty batches by panicking; the decoder must
        // instead refuse the frame gracefully.
        return Err(DecodeError::Malformed("empty batch"));
    }
    let mut requests = Vec::with_capacity(count);
    for _ in 0..count {
        requests.push(read_request(r)?);
    }
    Ok(Batch::new(requests))
}

fn read_checkpoint_body(body: &mut Reader) -> Result<Checkpoint, DecodeError> {
    let seq = SeqNum(body.u64()?);
    let state_digest = body.digest()?;
    let replica = body.replica()?;
    let signature = body.signature()?;
    Ok(Checkpoint {
        seq,
        state_digest,
        replica,
        signature,
    })
}

fn read_checkpoint(r: &mut Reader) -> Result<Checkpoint, DecodeError> {
    let mut body = read_expected_block(r, KIND_CHECKPOINT)?;
    let checkpoint = read_checkpoint_body(&mut body)?;
    if body.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(body.remaining()));
    }
    Ok(checkpoint)
}

fn read_prepare_cert(r: &mut Reader) -> Result<PrepareCert, DecodeError> {
    let view = View(r.u64()?);
    let seq = SeqNum(r.u64()?);
    let digest = r.digest()?;
    let primary_signature = r.signature()?;
    let batch = read_option(r, read_batch)?;
    Ok(PrepareCert {
        view,
        seq,
        digest,
        primary_signature,
        batch,
    })
}

fn read_commit_cert(r: &mut Reader) -> Result<CommitCert, DecodeError> {
    let cert = read_prepare_cert(r)?;
    Ok(CommitCert {
        view: cert.view,
        seq: cert.seq,
        digest: cert.digest,
        primary_signature: cert.primary_signature,
        batch: cert.batch,
    })
}

fn read_view_change_body(body: &mut Reader) -> Result<ViewChange, DecodeError> {
    let new_view = View(body.u64()?);
    let mode = body.mode()?;
    let stable_seq = SeqNum(body.u64()?);
    let replica = body.replica()?;
    let signature = body.signature()?;
    let checkpoint_proof = read_seq(body, HEADER_LEN, read_checkpoint)?;
    let prepares = read_seq(body, MIN_CERT_LEN, read_prepare_cert)?;
    let commits = read_seq(body, MIN_CERT_LEN, read_commit_cert)?;
    Ok(ViewChange {
        new_view,
        mode,
        stable_seq,
        checkpoint_proof,
        prepares,
        commits,
        replica,
        signature,
    })
}

fn read_view_change(r: &mut Reader) -> Result<ViewChange, DecodeError> {
    let mut body = read_expected_block(r, KIND_VIEW_CHANGE)?;
    let vc = read_view_change_body(&mut body)?;
    if body.remaining() > 0 {
        return Err(DecodeError::TrailingBytes(body.remaining()));
    }
    Ok(vc)
}

fn read_seq<T>(
    r: &mut Reader,
    min_element: usize,
    mut read: impl FnMut(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Vec<T>, DecodeError> {
    let count = r.count(min_element)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        items.push(read(r)?);
    }
    Ok(items)
}

fn read_option<T>(
    r: &mut Reader,
    read: impl FnOnce(&mut Reader) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(read(r)?)),
        _ => Err(DecodeError::Malformed("option presence tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::KeyStore;
    use seemore_types::NodeId;

    fn keystore() -> KeyStore {
        KeyStore::generate(7, 4, 2)
    }

    fn request(ks: &KeyStore, client: u64, ts: u64, op: &[u8]) -> ClientRequest {
        let signer = ks.signer_for(NodeId::Client(ClientId(client))).unwrap();
        ClientRequest::new(ClientId(client), Timestamp(ts), op.to_vec(), &signer)
    }

    fn sample_prepare(ks: &KeyStore) -> Message {
        let batch = Batch::new(vec![request(ks, 0, 1, b"a"), request(ks, 1, 1, b"bb")]);
        let signer = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        Message::Prepare(Prepare {
            view: View(3),
            seq: SeqNum(17),
            digest: batch.digest(),
            batch,
            signature: signer.sign(b"p"),
        })
    }

    #[test]
    fn round_trip_matches_and_length_is_wire_size() {
        let ks = keystore();
        let message = sample_prepare(&ks);
        let bytes = encode(&message);
        assert_eq!(bytes.len(), message.wire_size());
        assert_eq!(decode(&bytes).unwrap(), message);
    }

    #[test]
    fn request_with_payload_round_trips() {
        let ks = keystore();
        let message = Message::Request(request(&ks, 1, 9, &[0xAB; 300]));
        let bytes = encode(&message);
        assert_eq!(bytes.len(), message.wire_size());
        assert_eq!(decode(&bytes).unwrap(), message);
    }

    #[test]
    fn accept_signature_presence_is_preserved() {
        for signature in [None, Some(Signature::from_bytes([9u8; 32]))] {
            let message = Message::Accept(Accept {
                view: View(1),
                seq: SeqNum(2),
                digest: Digest::of_bytes(b"d"),
                replica: ReplicaId(3),
                signature,
            });
            let bytes = encode(&message);
            assert_eq!(bytes.len(), message.wire_size());
            assert_eq!(decode(&bytes).unwrap(), message);
        }
    }

    #[test]
    fn read_messages_round_trip_and_honour_the_size_contract() {
        let ks = keystore();
        let signer = ks.signer_for(NodeId::Client(ClientId(1))).unwrap();
        let request = Message::ReadRequest(crate::client::ReadRequest::new(
            ClientId(1),
            Timestamp(9),
            vec![0x5A; 77],
            &signer,
        ));
        let bytes = encode(&request);
        assert_eq!(bytes.len(), request.wire_size());
        assert_eq!(decode(&bytes).unwrap(), request);

        let rs = ks.signer_for(NodeId::Replica(ReplicaId(2))).unwrap();
        let id = RequestId::new(ClientId(1), Timestamp(9));
        for reply in [
            crate::client::ReadReply::new(
                Mode::Dog,
                View(4),
                id,
                ReplicaId(2),
                SeqNum(31),
                b"value-bytes".to_vec(),
                &rs,
            ),
            crate::client::ReadReply::refusal(
                Mode::Peacock,
                View(5),
                id,
                ReplicaId(2),
                SeqNum(31),
                &rs,
            ),
        ] {
            let message = Message::ReadReply(reply);
            let bytes = encode(&message);
            assert_eq!(bytes.len(), message.wire_size());
            assert_eq!(decode(&bytes).unwrap(), message);
        }
    }

    #[test]
    fn read_reply_refusal_travels_in_the_header_flags() {
        let ks = keystore();
        let rs = ks.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
        let id = RequestId::new(ClientId(0), Timestamp(1));
        let refusal = crate::client::ReadReply::refusal(
            Mode::Lion,
            View(0),
            id,
            ReplicaId(0),
            SeqNum(0),
            &rs,
        );
        let bytes = encode(&Message::ReadReply(refusal.clone()));
        // Bit 0 of the little-endian flags at offset 6 carries the refusal.
        assert_eq!(bytes[6] & 1, 1);
        // Clearing the flag decodes to a non-refused reply whose signature no
        // longer verifies — a Byzantine proxy cannot flip refusals in flight.
        let mut cleared = bytes;
        cleared[6] &= !1;
        use crate::size::SignedPayload;
        let Message::ReadReply(decoded) = decode(&cleared).unwrap() else {
            panic!("kind preserved");
        };
        assert!(!decoded.refused);
        assert!(!ks.verify(
            NodeId::Replica(ReplicaId(0)),
            &decoded.signing_bytes(),
            &decoded.signature
        ));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let ks = keystore();
        let bytes = encode(&sample_prepare(&ks));
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, DecodeError::Truncated), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_version_and_oversize_are_typed_errors() {
        let ks = keystore();
        let bytes = encode(&sample_prepare(&ks));

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode(&bad_magic).unwrap_err(),
            DecodeError::BadMagic(_)
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            decode(&bad_version).unwrap_err(),
            DecodeError::BadVersion(99)
        );

        let mut oversized = bytes.clone();
        oversized[8..16].copy_from_slice(&(MAX_FRAME as u64).to_le_bytes());
        assert!(matches!(
            decode(&oversized).unwrap_err(),
            DecodeError::FrameTooLarge(_)
        ));

        let mut unknown_kind = bytes;
        unknown_kind[5] = 200;
        assert_eq!(
            decode(&unknown_kind).unwrap_err(),
            DecodeError::UnknownKind(200)
        );
    }

    #[test]
    fn empty_batch_is_rejected_gracefully() {
        // Hand-craft a PREPARE whose batch announces zero requests.
        let mut out = Vec::new();
        put_block(&mut out, KIND_PREPARE, 0, |b| {
            put_u64(b, 0); // view
            put_u64(b, 1); // seq
            put_hash(b, Digest::ZERO.as_bytes());
            put_hash(b, Signature::INVALID.as_bytes());
            put_u64(b, 0); // batch count = 0
        });
        assert_eq!(
            decode(&out).unwrap_err(),
            DecodeError::Malformed("empty batch")
        );
    }

    #[test]
    fn lying_counts_do_not_allocate() {
        // A STATE-RESPONSE announcing 2^60 entries in a tiny frame must be
        // rejected by the count sanity check, not by the allocator.
        let mut out = Vec::new();
        put_block(&mut out, KIND_STATE_RESPONSE, 0, |b| {
            put_u64(b, 0); // replica
            put_u8(b, 0); // no checkpoint
            put_u8(b, 0); // no snapshot
            put_u64(b, 1 << 60); // entry count (lie)
        });
        assert_eq!(decode(&out).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn frame_reader_reassembles_byte_at_a_time() {
        let ks = keystore();
        let first = sample_prepare(&ks);
        let second = Message::Request(request(&ks, 0, 2, b"tail"));
        let mut stream = encode(&first);
        stream.extend_from_slice(&encode(&second));

        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in &stream {
            reader.push(std::slice::from_ref(byte));
            while let Some(message) = reader.next_frame().unwrap() {
                decoded.push(message);
            }
        }
        assert_eq!(decoded, vec![first, second]);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_rejects_poisoned_streams_early() {
        let mut reader = FrameReader::new();
        reader.push(b"XXXXYYYYZZZZAAAA"); // 16 garbage bytes
        assert!(matches!(
            reader.next_frame().unwrap_err(),
            DecodeError::BadMagic(_)
        ));

        let mut reader = FrameReader::new();
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(CODEC_VERSION);
        header.push(KIND_REQUEST);
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&u64::MAX.to_le_bytes());
        reader.push(&header);
        // The oversize is detected from the header alone, long before any
        // body bytes arrive.
        assert!(matches!(
            reader.next_frame().unwrap_err(),
            DecodeError::FrameTooLarge(_)
        ));
    }

    #[test]
    fn decode_errors_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(9).to_string().contains('9'));
        assert!(DecodeError::TrailingBytes(3).to_string().contains('3'));
    }

    #[test]
    fn frame_encodes_once_and_shares_bytes_across_clones() {
        let ks = keystore();
        let message = sample_prepare(&ks);
        let mut scratch = Vec::new();
        let frame = Frame::encode_with(&mut scratch, &message);
        // Same bytes as the plain encoder, honouring the size contract.
        assert_eq!(frame.bytes(), encode(&message).as_slice());
        assert_eq!(frame.len(), message.wire_size());
        assert!(!frame.is_empty());
        // Clones share the allocation — a fan-out never copies the bytes.
        let clone = frame.clone();
        assert!(std::ptr::eq(frame.bytes(), clone.bytes()));
        assert_eq!(frame, clone);
        // The scratch buffer is reusable: a second encode through it reuses
        // its capacity and produces an independent, correct frame.
        let second = Message::Request(request(&ks, 1, 2, b"next"));
        let capacity = scratch.capacity();
        let frame2 = Frame::encode_with(&mut scratch, &second);
        assert_eq!(scratch.capacity(), capacity, "capacity retained");
        assert_eq!(decode(frame2.bytes()).unwrap(), second);
        assert_eq!(Frame::encode(&second), frame2);
        assert_eq!(Frame::from_bytes(frame2.bytes()), frame2);
    }

    /// Satellite regression: a long stream alternating near-maximal and
    /// zero-payload frames, delivered under adversarial segmentation, must
    /// not grow the reader's internal buffer unboundedly — capacity stays
    /// within a small constant factor of the largest in-flight frame, and
    /// drains back to the retained cap once the oversized frames are
    /// consumed.
    #[test]
    fn frame_reader_buffer_stays_bounded_across_frame_size_mixes() {
        let ks = keystore();
        let big = Message::Request(request(&ks, 0, 1, &vec![0x5Au8; 256 * 1024]));
        let tiny = Message::Request(request(&ks, 0, 2, b""));
        let big_bytes = encode(&big);
        let tiny_bytes = encode(&tiny);
        let largest = big_bytes.len();

        let mut stream = Vec::new();
        for _ in 0..20 {
            stream.extend_from_slice(&big_bytes);
            for _ in 0..50 {
                stream.extend_from_slice(&tiny_bytes);
            }
        }

        // Adversarial segmentation: cycle through pathological chunk sizes
        // (single bytes, just-under-header, odd primes, a large read).
        let chunks = [1usize, 15, 17, 4093, 16 * 1024];
        let mut reader = FrameReader::new();
        let mut decoded = 0usize;
        let mut offset = 0usize;
        let mut turn = 0usize;
        while offset < stream.len() {
            let take = chunks[turn % chunks.len()].min(stream.len() - offset);
            turn += 1;
            reader.push(&stream[offset..offset + take]);
            offset += take;
            while reader.next_frame().unwrap().is_some() {
                decoded += 1;
            }
            // The bound: buffered bytes never exceed one frame plus one read
            // chunk, and the vector's doubling growth at most doubles that.
            assert!(
                reader.buffer_capacity() <= 2 * (largest + 16 * 1024),
                "capacity {} grew past the bound",
                reader.buffer_capacity()
            );
        }
        assert_eq!(decoded, 20 * 51);
        assert_eq!(reader.buffered(), 0);
        // With the stream fully consumed, the oversized frames' capacity has
        // been released down to the retained cap.
        assert!(
            reader.buffer_capacity() <= StreamBuf::MAX_RETAINED_CAPACITY,
            "empty reader retains {} bytes",
            reader.buffer_capacity()
        );
    }

    /// Satellite regression: the shrink hysteresis. A peer that carries
    /// bursts larger than 64 KiB back-to-back must keep its big buffer — the old
    /// unconditional `shrink_to` released the capacity after every burst and
    /// reallocated it on the next one, a realloc per frame on the hot path.
    #[test]
    fn sustained_large_bursts_do_not_thrash_the_reader_buffer() {
        let ks = keystore();
        let big = Message::Request(request(&ks, 0, 1, &vec![0x5Au8; 100 * 1024]));
        let big_bytes = encode(&big);

        let mut reader = FrameReader::new();
        // Warm up: one burst grows the buffer past the retained cap.
        reader.push(&big_bytes);
        assert!(reader.next_frame().unwrap().is_some());
        let warm_capacity = reader.buffer_capacity();
        assert!(warm_capacity > StreamBuf::MAX_RETAINED_CAPACITY);

        // Sustained load: 64 more bursts, each fully drained before the
        // next arrives (the worst case for the old policy — the buffer is
        // empty, so the unconditional shrink fired every time).
        for _ in 0..64 {
            reader.push(&big_bytes);
            assert!(reader.next_frame().unwrap().is_some());
        }
        assert_eq!(
            reader.shrinks(),
            0,
            "shrink fired during sustained large bursts"
        );
        assert_eq!(
            reader.buffer_capacity(),
            warm_capacity,
            "buffer reallocated under sustained load"
        );

        // Once the large traffic stops, quiet small-frame traffic releases
        // the excess capacity exactly once.
        let tiny = Message::Request(request(&ks, 0, 2, b""));
        let tiny_bytes = encode(&tiny);
        for _ in 0..4 * StreamBuf::QUIET_COMPACTIONS {
            reader.push(&tiny_bytes);
            assert!(reader.next_frame().unwrap().is_some());
        }
        assert_eq!(reader.shrinks(), 1, "quiet stream should shrink once");
        assert!(reader.buffer_capacity() <= StreamBuf::MAX_RETAINED_CAPACITY);
    }

    /// The `frame_len` helper (shared with the reactor transport's inbox
    /// reader) agrees with the encoder and rejects poisoned
    /// headers eagerly.
    #[test]
    fn frame_len_matches_encoded_frames_and_rejects_bad_headers() {
        let ks = keystore();
        let message = Message::Request(request(&ks, 0, 1, b"hello"));
        let bytes = encode(&message);
        assert_eq!(frame_len(&bytes).unwrap(), Some(bytes.len()));
        // A partial header is "need more bytes", not an error.
        assert_eq!(frame_len(&bytes[..15]).unwrap(), None);
        // Corrupt magic fails as soon as the header is visible.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(frame_len(&bad), Err(DecodeError::BadMagic(_))));
        // An announced multi-gigabyte body is rejected without buffering.
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(matches!(
            frame_len(&huge),
            Err(DecodeError::FrameTooLarge(_))
        ));
    }
}
