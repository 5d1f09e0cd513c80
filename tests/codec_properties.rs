//! The wire codec's two contracts, asserted over randomized instances of
//! every [`Message`] variant:
//!
//! 1. **Round-trip**: `decode(encode(m)) == m`.
//! 2. **Size**: `encode(m).len() == m.wire_size()` — `WireSize` is not an
//!    estimate, it *is* the encoded length.
//!
//! Plus the adversarial half: truncated frames, corrupted magic/version
//! bytes, length fields over `MAX_FRAME`, lying element counts and mid-frame
//! TCP segmentation must all surface as typed `DecodeError`s — never a
//! panic, never a hang, never an attacker-sized allocation.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use seemore::crypto::{Digest, KeyStore, Signature};
use seemore::types::{ClientId, Mode, NodeId, ReplicaId, RequestId, SeqNum, Timestamp, View};
use seemore::wire::codec::{decode, encode, DecodeError, FrameReader, MAX_FRAME};
use seemore::wire::{
    Accept, Batch, Checkpoint, ClientReply, ClientRequest, Commit, CommitCert, Inform, Message,
    ModeChange, NewView, PbftPrepare, PrePrepare, Prepare, PrepareCert, ReadReply, ReadRequest,
    Recovery, SignedPayload, StateRequest, StateResponse, ViewChange, WireSize,
};

/// Number of distinct message kinds the generator can produce.
const KINDS: usize = 17;

fn keystore() -> KeyStore {
    KeyStore::generate(0xC0DEC, 8, 4)
}

fn signature(rng: &mut SmallRng) -> Signature {
    let mut bytes = [0u8; 32];
    for b in &mut bytes {
        *b = rng.gen_range(0u64..256) as u8;
    }
    Signature::from_bytes(bytes)
}

fn digest(rng: &mut SmallRng) -> Digest {
    Digest::of_bytes(&rng.next_u64().to_le_bytes())
}

fn mode(rng: &mut SmallRng) -> Mode {
    Mode::ALL[rng.gen_range(0usize..3)]
}

fn request(rng: &mut SmallRng, ks: &KeyStore) -> ClientRequest {
    let client = ClientId(rng.gen_range(0u64..4));
    let op_len = rng.gen_range(0usize..512);
    let operation: Vec<u8> = (0..op_len)
        .map(|_| rng.gen_range(0u64..256) as u8)
        .collect();
    let signer = ks.signer_for(NodeId::Client(client)).expect("client key");
    ClientRequest::new(
        client,
        Timestamp(rng.gen_range(0u64..1_000)),
        operation,
        &signer,
    )
}

fn batch(rng: &mut SmallRng, ks: &KeyStore) -> Batch {
    let len = rng.gen_range(1usize..6);
    Batch::new((0..len).map(|_| request(rng, ks)).collect())
}

fn checkpoint(rng: &mut SmallRng) -> Checkpoint {
    Checkpoint {
        seq: SeqNum(rng.gen_range(0u64..10_000)),
        state_digest: digest(rng),
        replica: ReplicaId(rng.gen_range(0u64..8) as u32),
        signature: signature(rng),
    }
}

fn prepare_cert(rng: &mut SmallRng, ks: &KeyStore) -> PrepareCert {
    PrepareCert {
        view: View(rng.gen_range(0u64..16)),
        seq: SeqNum(rng.gen_range(0u64..10_000)),
        digest: digest(rng),
        primary_signature: signature(rng),
        batch: rng.gen_bool(0.5).then(|| batch(rng, ks)),
    }
}

fn commit_cert(rng: &mut SmallRng, ks: &KeyStore) -> CommitCert {
    CommitCert {
        view: View(rng.gen_range(0u64..16)),
        seq: SeqNum(rng.gen_range(0u64..10_000)),
        digest: digest(rng),
        primary_signature: signature(rng),
        batch: rng.gen_bool(0.5).then(|| batch(rng, ks)),
    }
}

fn view_change(rng: &mut SmallRng, ks: &KeyStore) -> ViewChange {
    ViewChange {
        new_view: View(rng.gen_range(1u64..16)),
        mode: mode(rng),
        stable_seq: SeqNum(rng.gen_range(0u64..1_000)),
        checkpoint_proof: (0..rng.gen_range(0usize..3))
            .map(|_| checkpoint(rng))
            .collect(),
        prepares: (0..rng.gen_range(0usize..3))
            .map(|_| prepare_cert(rng, ks))
            .collect(),
        commits: (0..rng.gen_range(0usize..3))
            .map(|_| commit_cert(rng, ks))
            .collect(),
        replica: ReplicaId(rng.gen_range(0u64..8) as u32),
        signature: signature(rng),
    }
}

/// Builds a randomized instance of the `index`-th message kind.
fn arbitrary_message(seed: u64, index: usize) -> Message {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let ks = keystore();
    match index % KINDS {
        0 => Message::Request(request(rng, &ks)),
        1 => {
            let result_len = rng.gen_range(0usize..512);
            Message::Reply(ClientReply {
                mode: mode(rng),
                view: View(rng.gen_range(0u64..16)),
                request: RequestId::new(
                    ClientId(rng.gen_range(0u64..4)),
                    Timestamp(rng.gen_range(0u64..1_000)),
                ),
                replica: ReplicaId(rng.gen_range(0u64..8) as u32),
                result: (0..result_len)
                    .map(|_| rng.gen_range(0u64..256) as u8)
                    .collect(),
                signature: signature(rng),
            })
        }
        2 => {
            let batch = batch(rng, &ks);
            Message::Prepare(Prepare {
                view: View(rng.gen_range(0u64..16)),
                seq: SeqNum(rng.gen_range(0u64..10_000)),
                digest: batch.digest(),
                batch,
                signature: signature(rng),
            })
        }
        3 => {
            let batch = batch(rng, &ks);
            Message::PrePrepare(PrePrepare {
                view: View(rng.gen_range(0u64..16)),
                seq: SeqNum(rng.gen_range(0u64..10_000)),
                digest: batch.digest(),
                batch,
                signature: signature(rng),
            })
        }
        4 => Message::Accept(Accept {
            view: View(rng.gen_range(0u64..16)),
            seq: SeqNum(rng.gen_range(0u64..10_000)),
            digest: digest(rng),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: rng.gen_bool(0.5).then(|| signature(rng)),
        }),
        5 => Message::PbftPrepare(PbftPrepare {
            view: View(rng.gen_range(0u64..16)),
            seq: SeqNum(rng.gen_range(0u64..10_000)),
            digest: digest(rng),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: signature(rng),
        }),
        6 => Message::Commit(Commit {
            view: View(rng.gen_range(0u64..16)),
            seq: SeqNum(rng.gen_range(0u64..10_000)),
            digest: digest(rng),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            batch: rng.gen_bool(0.5).then(|| batch(rng, &ks)),
            signature: signature(rng),
        }),
        7 => Message::Inform(Inform {
            view: View(rng.gen_range(0u64..16)),
            seq: SeqNum(rng.gen_range(0u64..10_000)),
            digest: digest(rng),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: signature(rng),
        }),
        8 => Message::Checkpoint(checkpoint(rng)),
        9 => Message::ViewChange(view_change(rng, &ks)),
        10 => Message::NewView(NewView {
            view: View(rng.gen_range(1u64..16)),
            mode: mode(rng),
            prepares: (0..rng.gen_range(0usize..3))
                .map(|_| prepare_cert(rng, &ks))
                .collect(),
            commits: (0..rng.gen_range(0usize..3))
                .map(|_| commit_cert(rng, &ks))
                .collect(),
            checkpoint: rng.gen_bool(0.5).then(|| checkpoint(rng)),
            view_change_proof: (0..rng.gen_range(0usize..2))
                .map(|_| view_change(rng, &ks))
                .collect(),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: signature(rng),
        }),
        11 => Message::ModeChange(ModeChange {
            new_view: View(rng.gen_range(1u64..16)),
            new_mode: mode(rng),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: signature(rng),
        }),
        12 => Message::StateRequest(StateRequest {
            from_seq: SeqNum(rng.gen_range(0u64..10_000)),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
        }),
        13 => {
            let client = ClientId(rng.gen_range(0u64..4));
            let op_len = rng.gen_range(0usize..512);
            let operation: Vec<u8> = (0..op_len)
                .map(|_| rng.gen_range(0u64..256) as u8)
                .collect();
            let signer = ks.signer_for(NodeId::Client(client)).expect("client key");
            Message::ReadRequest(ReadRequest::new(
                client,
                Timestamp(rng.gen_range(0u64..1_000)),
                operation,
                &signer,
            ))
        }
        14 => {
            let result_len = rng.gen_range(0usize..512);
            Message::ReadReply(ReadReply {
                mode: mode(rng),
                view: View(rng.gen_range(0u64..16)),
                request: RequestId::new(
                    ClientId(rng.gen_range(0u64..4)),
                    Timestamp(rng.gen_range(0u64..1_000)),
                ),
                replica: ReplicaId(rng.gen_range(0u64..8) as u32),
                last_executed: SeqNum(rng.gen_range(0u64..10_000)),
                refused: rng.gen_bool(0.25),
                result: (0..result_len)
                    .map(|_| rng.gen_range(0u64..256) as u8)
                    .collect(),
                signature: signature(rng),
            })
        }
        15 => {
            let snapshot_len = rng.gen_range(0usize..256);
            Message::StateResponse(StateResponse {
                checkpoint: rng.gen_bool(0.5).then(|| checkpoint(rng)),
                snapshot: rng.gen_bool(0.5).then(|| {
                    (0..snapshot_len)
                        .map(|_| rng.gen_range(0u64..256) as u8)
                        .collect()
                }),
                entries: (0..rng.gen_range(0usize..3))
                    .map(|_| (SeqNum(rng.gen_range(0u64..10_000)), batch(rng, &ks)))
                    .collect(),
                replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            })
        }
        _ => Message::Recovery(Recovery {
            last_executed: SeqNum(rng.gen_range(0u64..10_000)),
            view: View(rng.gen_range(0u64..64)),
            replica: ReplicaId(rng.gen_range(0u64..8) as u32),
            signature: signature(rng),
        }),
    }
}

proptest! {
    /// Contracts 1 and 2 for every variant: sweeping `index` over the full
    /// kind space each case guarantees no variant is under-sampled.
    #[test]
    fn every_variant_round_trips_at_its_wire_size(seed in 0u64..u64::MAX) {
        for index in 0..KINDS {
            let message = arbitrary_message(seed, index);
            let bytes = encode(&message);
            prop_assert_eq!(
                bytes.len(),
                message.wire_size(),
                "size contract violated for {:?}",
                message.kind()
            );
            let decoded = decode(&bytes).expect("well-formed frame decodes");
            prop_assert_eq!(decoded, message);
        }
    }

    /// A request's stored digest is recomputed from the decoded bytes: a
    /// decoded request equals the original, has its digest (computed
    /// afresh, since the original's is not on the wire) and its client
    /// signature, which covers that digest, still verifies.
    #[test]
    fn a_decoded_request_keeps_its_digest_and_signature(seed in 0u64..u64::MAX) {
        let ks = keystore();
        let request = request(&mut SmallRng::seed_from_u64(seed), &ks);
        let Message::Request(decoded) = decode(&encode(&Message::Request(request.clone())))
            .expect("well-formed frame decodes")
        else {
            panic!("a request decodes as a request");
        };
        prop_assert_eq!(&decoded, &request);
        prop_assert_eq!(decoded.digest(), request.digest());
        prop_assert!(ks.verify(
            NodeId::Client(decoded.client()),
            &decoded.signing_bytes(),
            &decoded.signature
        ));
    }

    /// Adversarial: every proper prefix of every frame is `Truncated`.
    #[test]
    fn every_truncation_is_a_typed_error(seed in 0u64..u64::MAX, index in 0usize..KINDS) {
        let bytes = encode(&arbitrary_message(seed, index));
        // Check every prefix for small frames, a stride for large ones.
        let stride = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            match decode(&bytes[..cut]) {
                Err(DecodeError::Truncated) => {}
                other => panic!("cut at {cut}/{}: expected Truncated, got {other:?}", bytes.len()),
            }
        }
    }

    /// Adversarial: flipping any single byte never panics — it either still
    /// decodes (the flip hit a payload byte) or yields a typed error.
    #[test]
    fn single_byte_corruption_never_panics(seed in 0u64..u64::MAX, index in 0usize..KINDS) {
        let bytes = encode(&arbitrary_message(seed, index));
        let stride = (bytes.len() / 48).max(1);
        for position in (0..bytes.len()).step_by(stride) {
            let mut corrupted = bytes.clone();
            corrupted[position] ^= 0x41;
            let _ = decode(&corrupted); // must return, Ok or Err — never panic
        }
    }

    /// Adversarial: the streaming reader reassembles frames across arbitrary
    /// segmentation boundaries (the TCP reality).
    #[test]
    fn frame_reader_survives_arbitrary_segmentation(
        seed in 0u64..u64::MAX,
        chunk_seed in 0u64..u64::MAX,
    ) {
        let messages: Vec<Message> = (0..KINDS).map(|i| arbitrary_message(seed, i)).collect();
        let mut stream = Vec::new();
        for message in &messages {
            stream.extend_from_slice(&encode(message));
        }
        let rng = &mut SmallRng::seed_from_u64(chunk_seed);
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        while offset < stream.len() {
            let chunk = rng.gen_range(1usize..257).min(stream.len() - offset);
            reader.push(&stream[offset..offset + chunk]);
            offset += chunk;
            while let Some(message) = reader.next_frame().expect("clean stream") {
                decoded.push(message);
            }
        }
        prop_assert_eq!(decoded, messages);
        prop_assert_eq!(reader.buffered(), 0);
    }
}

#[test]
fn oversized_length_fields_are_rejected_before_allocation() {
    let ks = keystore();
    let rng = &mut SmallRng::seed_from_u64(7);
    let bytes = encode(&Message::Request(request(rng, &ks)));

    // Top-level frame announcing > MAX_FRAME.
    let mut huge = bytes.clone();
    huge[8..16].copy_from_slice(&(MAX_FRAME as u64 + 1).to_le_bytes());
    assert!(matches!(
        decode(&huge).unwrap_err(),
        DecodeError::FrameTooLarge(_)
    ));

    // u64::MAX must not overflow the header arithmetic.
    let mut wrap = bytes;
    wrap[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        decode(&wrap).unwrap_err(),
        DecodeError::FrameTooLarge(_)
    ));
}

#[test]
fn corrupt_magic_and_version_are_typed_errors() {
    let ks = keystore();
    let rng = &mut SmallRng::seed_from_u64(11);
    let bytes = encode(&Message::Checkpoint(checkpoint(rng)));
    let _ = &ks;

    for position in 0..4 {
        let mut bad = bytes.clone();
        bad[position] ^= 0xFF;
        assert!(
            matches!(decode(&bad).unwrap_err(), DecodeError::BadMagic(_)),
            "magic byte {position}"
        );
    }
    let mut bad_version = bytes.clone();
    bad_version[4] = 0;
    assert_eq!(
        decode(&bad_version).unwrap_err(),
        DecodeError::BadVersion(0)
    );

    let mut bad_kind = bytes;
    bad_kind[5] = 0xEE;
    assert_eq!(
        decode(&bad_kind).unwrap_err(),
        DecodeError::UnknownKind(0xEE)
    );
}

#[test]
fn trailing_bytes_are_rejected() {
    let ks = keystore();
    let rng = &mut SmallRng::seed_from_u64(13);
    let mut bytes = encode(&Message::Request(request(rng, &ks)));
    bytes.extend_from_slice(b"junk");
    assert_eq!(decode(&bytes).unwrap_err(), DecodeError::TrailingBytes(4));
}

/// Kind tag 17 carried a shard redirect in earlier builds. It is retired:
/// a frame of any kind relabelled 17 is refused like any unknown kind.
#[test]
fn the_retired_kind_17_is_an_unknown_kind() {
    for index in 0..KINDS {
        let mut bytes = encode(&arbitrary_message(17, index));
        bytes[5] = 17;
        assert_eq!(decode(&bytes).unwrap_err(), DecodeError::UnknownKind(17));
    }
}
