//! Wire protocol for the SeeMoRe reproduction.
//!
//! This crate defines every message exchanged by the SeeMoRe protocol
//! (Section 5 of the paper) and by the baseline protocols used in the
//! evaluation (Paxos-style CFT, PBFT and S-UpRight):
//!
//! * client traffic — [`ClientRequest`] / [`ClientReply`] on the ordered
//!   path, [`ReadRequest`] / [`ReadReply`] on the read-only fast path,
//! * the ordering unit — [`Batch`], an ordered sequence of requests agreed
//!   on under one sequence number with one combined digest,
//! * agreement traffic — [`Prepare`], [`PrePrepare`], [`Accept`],
//!   [`PbftPrepare`], [`Commit`], [`Inform`],
//! * control traffic — [`Checkpoint`], [`ViewChange`], [`NewView`],
//!   [`ModeChange`], and state-transfer messages.
//!
//! Inside the discrete-event simulator messages stay plain Rust values; on
//! the socket runtime they serialize through [`codec`] — a versioned,
//! length-prefixed binary encoding with a streaming [`FrameReader`] and a
//! typed [`DecodeError`]. The [`WireSize`] trait is the codec's size
//! contract: `wire_size()` equals the exact length [`codec::encode`]
//! produces, so the simulator's bandwidth model and the bytes that really
//! cross a TCP connection are the same number. Signatures cover each
//! message's [`SignedPayload::signing_bytes`], which include every
//! semantically relevant field.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod agreement;
pub mod batch;
pub mod client;
pub mod codec;
pub mod control;
pub mod message;
pub mod size;

pub use agreement::{Accept, Commit, Inform, PbftPrepare, PrePrepare, Prepare};
pub use batch::Batch;
pub use client::{ClientReply, ClientRequest, ReadReply, ReadRequest};
pub use codec::{
    decode, encode, frame_len, DecodeError, Frame, FrameReader, StreamBuf, CODEC_VERSION, MAGIC,
    MAX_FRAME,
};
pub use control::{
    Checkpoint, CommitCert, ModeChange, NewView, PrepareCert, Recovery, StateRequest,
    StateResponse, ViewChange,
};
pub use message::{Message, MessageKind};
pub use size::{SignedPayload, SigningScratch, WireSize, DIGEST_LEN, HEADER_LEN, SIGNATURE_LEN};
