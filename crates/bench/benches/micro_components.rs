//! Micro-benchmarks for the building blocks whose costs feed the simulator's
//! CPU model: hashing, signing, verification, request/batch digests,
//! key-value execution and quorum bookkeeping, plus the socket transport's
//! per-frame write cost (deliver-now vs queued and flushed once) and its
//! round trip between two inboxes.
//!
//! Implemented with the lightweight self-timing harness from `seemore-bench`
//! (criterion is unavailable in the offline build environment): each
//! benchmark reports the median nanoseconds per operation over several
//! timed rounds.

use seemore_app::{KvOp, KvStore, StateMachine};
use seemore_bench::{header, quick_mode, time_op};
use seemore_core::log::Instance;
use seemore_crypto::{
    hmac_sha256, sha256, sha256_portable, Digest, HmacKey, KeyStore, VerifyCache,
};
use seemore_net::ReactorMesh;
use seemore_telemetry::{EventKind, NullRecorder, Recorder, RingRecorder, TraceEvent};
use seemore_types::{ClientId, Instant, Mode, NodeId, ReplicaId, SeqNum, Timestamp, View};
use seemore_wire::codec::{decode, encode, Frame};
use seemore_wire::{
    Batch, ClientRequest, Message, Prepare, SignedPayload, SigningScratch, WireSize,
};
use std::time::Duration;

fn main() {
    header("Micro-benchmarks: components behind the CPU cost model");

    // Both SHA-256 paths side by side, whichever one this CPU selects: the
    // portable function is called directly, so the row is there on a
    // SHA-NI host too.
    println!(
        "sha256 path selected here : {}",
        seemore_crypto::sha256::backend()
    );
    type OneShot = fn(&[u8]) -> [u8; 32];
    let paths: [(&str, OneShot); 2] = [("selected", sha256), ("portable", sha256_portable)];
    for size in [64usize, 1024, 4096] {
        let data = vec![0xabu8; size];
        for (path, hash) in paths {
            let ns = time_op(&format!("sha256/{size}B/{path}"), || {
                hash(&data);
            });
            println!(
                "sha256/{size:>5}B {path:<8}    : {ns:>9.0} ns/op ({:.1} MB/s)",
                size as f64 * 1_000.0 / ns.max(1.0)
            );
        }
    }

    // HMAC with the key schedule redone on every call against a keyed
    // `HmacKey` that starts from the two cached midstates: the saving is two
    // compressions, so it shows on a vote-sized message and vanishes at 4 KiB.
    let key = [7u8; 32];
    let keyed = HmacKey::new(&key);
    for size in [168usize, 1024, 4096] {
        let data = vec![0xcdu8; size];
        let ns = time_op(&format!("hmac_sha256/{size}B/one-shot"), || {
            hmac_sha256(&key, &data);
        });
        println!("hmac_sha256/{size:>4}B one-shot: {ns:>9.0} ns/op");
        let ns = time_op(&format!("hmac_sha256/{size}B/keyed"), || {
            keyed.mac(&data);
        });
        println!("hmac_sha256/{size:>4}B keyed   : {ns:>9.0} ns/op");
    }

    let keystore = KeyStore::generate(5, 4, 1);
    let signer = keystore.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
    let message = vec![0x42u8; 256];
    let ns = time_op("sign/256B", || {
        signer.sign(&message);
    });
    println!("sign/256B                 : {ns:>9.0} ns/op");
    let signature = signer.sign(&message);
    let ns = time_op("verify/256B", || {
        keystore.verify(NodeId::Replica(ReplicaId(0)), &message, &signature);
    });
    println!("verify/256B               : {ns:>9.0} ns/op");

    let client_keys = KeyStore::generate(6, 1, 1);
    let client_signer = client_keys.signer_for(NodeId::Client(ClientId(0))).unwrap();
    for size in [0usize, 4096] {
        let request =
            ClientRequest::new(ClientId(0), Timestamp(1), vec![0u8; size], &client_signer);
        // A request computes its digest once, on first use: a replica pays
        // it on a request it just decoded. The row is decode plus that first
        // digest, less decode alone; every later use is the stored read.
        let frame = encode(&Message::Request(request.clone()));
        let decoded = |digest: bool| {
            let Ok(Message::Request(fresh)) = decode(&frame) else {
                unreachable!("a request frame decodes as a request")
            };
            if digest {
                std::hint::black_box(fresh.digest());
            }
            std::hint::black_box(fresh);
        };
        let decode_ns = time_op("request_decode", || decoded(false));
        let ns = time_op("request_decode_digest", || decoded(true)) - decode_ns;
        println!("request_digest/{size:>4}B     : {ns:>9.0} ns/op (first use, after decode)");
        let ns = time_op("request_digest_stored", || {
            request.digest();
        });
        println!("request_digest_stored/{size:>4}B: {ns:>9.0} ns/op");
        // The client signs `(client, ts, D(µ))`, so the signed input has
        // the same length at every operation size.
        let signed = request.signing_bytes().len();
        let ns = time_op("request_sign_verify", || {
            let fresh =
                ClientRequest::new(ClientId(0), Timestamp(2), vec![0u8; size], &client_signer);
            client_keys.verify(
                NodeId::Client(ClientId(0)),
                &fresh.signing_bytes(),
                &fresh.signature,
            );
        });
        println!(
            "request_sign_verify/{size:>4}B: {ns:>9.0} ns/op (digest, sign and verify {signed} B)"
        );
        let ns = time_op("request_wire_size", || {
            request.wire_size();
        });
        println!("request_wire_size/{size:>4}B  : {ns:>9.0} ns/op");
    }

    // The combined digest of a batch is what agreement quorums match on;
    // its cost must scale linearly in the batch size for the batching
    // throughput model to hold.
    for batch_size in [1usize, 8, 64] {
        let requests: Vec<ClientRequest> = (0..batch_size)
            .map(|i| {
                ClientRequest::new(
                    ClientId(0),
                    Timestamp(i as u64 + 1),
                    vec![0u8; 64],
                    &client_signer,
                )
            })
            .collect();
        let batch = Batch::new(requests);
        let ns = time_op("batch_digest", || {
            batch.digest();
        });
        println!("batch_digest/{batch_size:>3} reqs     : {ns:>9.0} ns/op");
    }

    // One op: a new store takes `keys` puts of 64 B values, then a get of
    // each key. At 40 000 keys the buckets hold ~2.4 keys each, the load of
    // the benchmark's `kv_large_state` prefill.
    let put_get = |keys: u32| {
        let mut store = KvStore::new();
        for i in 0..keys {
            store.execute(
                &KvOp::Put {
                    key: format!("key-{i}").into_bytes(),
                    value: vec![0u8; 64],
                }
                .encode(),
            );
        }
        for i in 0..keys {
            store.execute(
                &KvOp::Get {
                    key: format!("key-{i}").into_bytes(),
                }
                .encode(),
            );
        }
    };
    let ns = time_op("kvstore/put_get_1k_keys", || put_get(1_000));
    println!("kvstore/put_get_1k_keys   : {ns:>9.0} ns/op");
    let ns = time_op("kvstore/put_get_40k_keys", || put_get(40_000));
    println!("kvstore/put_get_40k_keys  : {ns:>9.0} ns/op");

    let mut store = KvStore::new();
    for i in 0..1_000u32 {
        store.execute(
            &KvOp::Put {
                key: format!("key-{i}").into_bytes(),
                value: vec![0u8; 64],
            }
            .encode(),
        );
    }
    let ns = time_op("kvstore/state_digest_1k_keys", || {
        store.state_digest();
    });
    println!("kvstore/state_digest_1k   : {ns:>9.0} ns/op");

    // The checkpoint stall: what `state_digest` costs on the commit path,
    // when every bucket is dirty (the first digest of a store, or the one
    // after a restore) and after the 256 writes of two checkpoint periods'
    // worth of small batches, as the state grows. Only the digest is timed.
    let sizes: &[usize] = if quick_mode() {
        &[1_000, 40_000]
    } else {
        &[1_000, 40_000, 1_000_000]
    };
    for &keys in sizes {
        let put = |store: &mut KvStore, index: usize, fill: u8| {
            store.apply(KvOp::Put {
                key: format!("key{index:08}").into_bytes(),
                value: vec![fill; 128],
            });
        };
        let median_ns = |mut samples: Vec<f64>| {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            samples[samples.len() / 2]
        };
        let timed_digest = |store: &KvStore| {
            let start = std::time::Instant::now();
            std::hint::black_box(store.state_digest());
            start.elapsed().as_nanos() as f64
        };
        let mut store = KvStore::new();
        let full = median_ns(
            (0..3u8)
                .map(|round| {
                    for index in 0..keys {
                        put(&mut store, index, round);
                    }
                    timed_digest(&store)
                })
                .collect(),
        );
        let stride = keys / 256;
        let after_writes = median_ns(
            (0..7u8)
                .map(|round| {
                    for write in 0..256 {
                        put(&mut store, write * stride + usize::from(round), 0xEE);
                    }
                    timed_digest(&store)
                })
                .collect(),
        );
        println!("kv_state_digest/full rebuild  {keys:>7} keys: {full:>12.0} ns/digest");
        println!(
            "kv_state_digest/256 writes    {keys:>7} keys: {after_writes:>12.0} ns/digest ({:.0}x)",
            full / after_writes.max(1.0)
        );
    }

    let digest = Digest::of_bytes(b"proposal");
    let ns = time_op("instance/record_100_votes", || {
        let mut instance = Instance::default();
        for voter in 0..100u32 {
            instance.record_commit(ReplicaId(voter), digest);
        }
        instance.matching_commits(&digest);
    });
    println!("instance/record_100_votes : {ns:>9.0} ns/op");

    // Codec cost: what the socket runtime pays (and the simulator's CPU
    // model charges as "serialization") per message, for a small request, a
    // 4 KiB request, and a 64-request PREPARE — the shapes that dominate the
    // data path. Throughput is reported against the encoded size, which by
    // the size contract equals `wire_size()`.
    for (label, message) in [
        (
            "request/0B",
            Message::Request(ClientRequest::new(
                ClientId(0),
                Timestamp(1),
                Vec::new(),
                &client_signer,
            )),
        ),
        (
            "request/4KiB",
            Message::Request(ClientRequest::new(
                ClientId(0),
                Timestamp(2),
                vec![0u8; 4096],
                &client_signer,
            )),
        ),
        ("prepare/64 reqs", {
            let requests: Vec<ClientRequest> = (0..64)
                .map(|i| {
                    ClientRequest::new(ClientId(0), Timestamp(i + 1), vec![0u8; 64], &client_signer)
                })
                .collect();
            let batch = Batch::new(requests);
            let signer = keystore.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
            Message::Prepare(Prepare {
                view: View(0),
                seq: SeqNum(1),
                digest: batch.digest(),
                batch,
                signature: signer.sign(b"bench"),
            })
        }),
    ] {
        let encoded = encode(&message);
        assert_eq!(encoded.len(), message.wire_size(), "size contract");
        let size = encoded.len();
        let ns = time_op("encode", || {
            encode(&message);
        });
        println!(
            "encode/{label:<16}   : {ns:>9.0} ns/op ({:.1} MB/s, {size} B)",
            size as f64 * 1_000.0 / ns.max(1.0)
        );
        let ns = time_op("decode", || {
            decode(&encoded).expect("well-formed frame");
        });
        println!(
            "decode/{label:<16}   : {ns:>9.0} ns/op ({:.1} MB/s)",
            size as f64 * 1_000.0 / ns.max(1.0)
        );
    }

    // The sign/verify hot path: allocating `signing_bytes()` vs the
    // scratch-buffer seam, and plain verification vs the bounded memo on a
    // hot (repeated) message — the duplicate-delivery / certificate-re-check
    // case the memo exists for. A memo *miss* pays the key digest on top of
    // the HMAC, which is why the cores consult it only on paths the
    // protocol actually re-verifies.
    {
        let replica_signer = keystore.signer_for(NodeId::Replica(ReplicaId(1))).unwrap();
        let request = ClientRequest::new(ClientId(0), Timestamp(3), vec![0u8; 64], &client_signer);
        let ns = time_op("sign_alloc", || {
            replica_signer.sign(&request.signing_bytes());
        });
        println!("sign/alloc signing_bytes  : {ns:>9.0} ns/op");
        let mut scratch = SigningScratch::new();
        let ns = time_op("sign_scratch", || {
            replica_signer.sign(scratch.bytes_of(&request));
        });
        println!("sign/scratch reuse        : {ns:>9.0} ns/op");

        let node = NodeId::Client(ClientId(0));
        let bytes = request.signing_bytes();
        let ns = time_op("verify_plain", || {
            client_keys.verify(node, &bytes, &request.signature);
        });
        println!("verify/plain (hot)        : {ns:>9.0} ns/op");
        let mut memo = VerifyCache::default();
        memo.verify(&client_keys, node, &bytes, &request.signature);
        let ns = time_op("verify_memoized", || {
            memo.verify(&client_keys, node, &bytes, &request.signature);
        });
        println!("verify/memoized (hot)     : {ns:>9.0} ns/op");
    }

    // Broadcast fan-out: per-peer re-encoding (PR 2's behaviour) vs
    // encode-once shared frames. The shapes mirror what a primary actually
    // fans out: a small vote and a 64-request PREPARE.
    for (label, message) in [
        (
            "request/0B",
            Message::Request(ClientRequest::new(
                ClientId(0),
                Timestamp(9),
                Vec::new(),
                &client_signer,
            )),
        ),
        ("prepare/64 reqs", {
            let requests: Vec<ClientRequest> = (0..64)
                .map(|i| {
                    ClientRequest::new(ClientId(0), Timestamp(i + 1), vec![0u8; 64], &client_signer)
                })
                .collect();
            let batch = Batch::new(requests);
            let signer = keystore.signer_for(NodeId::Replica(ReplicaId(0))).unwrap();
            Message::Prepare(Prepare {
                view: View(0),
                seq: SeqNum(1),
                digest: batch.digest(),
                batch,
                signature: signer.sign(b"bench"),
            })
        }),
    ] {
        const FANOUT: usize = 6;
        let ns = time_op("fanout_per_peer", || {
            for _ in 0..FANOUT {
                std::hint::black_box(encode(&message));
            }
        });
        println!("fanout6/per-peer {label:<16}: {ns:>9.0} ns/op");
        let mut scratch = Vec::new();
        let ns = time_op("fanout_encode_once", || {
            let frame = Frame::encode_with(&mut scratch, &message);
            for _ in 0..FANOUT {
                std::hint::black_box(frame.clone());
            }
        });
        println!("fanout6/encode-once {label:<13}: {ns:>9.0} ns/op");
    }

    // The per-turn gather write: k frames to one loopback peer as k
    // deliver-now sends (k write syscalls) against k queued frames and one
    // flush (one `writev`). Only the sending side of a round is timed; the
    // receiver takes the round's frames through its inbox (read and decoded
    // on this thread) before the next one starts, so the socket is idle at
    // every send, as on the protocol path.
    {
        let (near, far) = (NodeId::Replica(ReplicaId(0)), NodeId::Replica(ReplicaId(1)));
        let mesh = ReactorMesh::new(&[near, far]).expect("bind a loopback mesh");
        let origin = mesh.take_endpoint(near).expect("bound above");
        let sender = origin.handle();
        let receiver = mesh.take_endpoint(far).expect("bound above");
        let request = Message::Request(ClientRequest::new(
            ClientId(0),
            Timestamp(10),
            Vec::new(),
            &client_signer,
        ));
        let rounds = if quick_mode() { 500 } else { 5_000 };
        let ns_per_frame = |frames: usize, send: &dyn Fn()| {
            let mut samples: Vec<f64> = (0..rounds)
                .map(|_| {
                    let start = std::time::Instant::now();
                    send();
                    let ns = start.elapsed().as_nanos() as f64;
                    for _ in 0..frames {
                        receiver
                            .incoming()
                            .recv_timeout(Duration::from_secs(5))
                            .expect("loopback delivers");
                    }
                    ns / frames as f64
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            samples[samples.len() / 2]
        };
        // Dial first, so every timed round finds the connection up.
        ns_per_frame(1, &|| sender.send(far, &request).expect("mesh is up"));
        for frames in [1usize, 2, 5] {
            let ns = ns_per_frame(frames, &|| {
                for _ in 0..frames {
                    sender.send(far, &request).expect("mesh is up");
                }
            });
            println!("net/{frames} frames deliver-now   : {ns:>9.0} ns/frame");
            let ns = ns_per_frame(frames, &|| {
                for _ in 0..frames {
                    sender.queue(far, &request).expect("mesh is up");
                }
                sender.flush();
            });
            println!("net/{frames} frames queue + flush : {ns:>9.0} ns/frame");
        }

        // One frame there and back between two threads, each waiting in its
        // own inbox and reading its socket itself: the fixed network cost a
        // replica pays per message it waits for.
        let patience = Duration::from_secs(5);
        let warmup = rounds / 10;
        let mut samples: Vec<f64> = std::thread::scope(|scope| {
            let echo = &receiver;
            scope.spawn(move || {
                for _ in 0..warmup + rounds {
                    let (from, message) = echo.incoming().recv_timeout(patience).expect("ping");
                    echo.handle().send(from, &message).expect("mesh is up");
                }
            });
            (0..warmup + rounds)
                .map(|_| {
                    let start = std::time::Instant::now();
                    sender.send(far, &request).expect("mesh is up");
                    origin.incoming().recv_timeout(patience).expect("pong");
                    start.elapsed().as_nanos() as f64
                })
                .skip(warmup)
                .collect()
        });
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let ns = samples[samples.len() / 2];
        println!("net/ping-pong round trip  : {ns:>9.0} ns/op");
        mesh.shutdown();
    }

    // The structured tracer's per-event cost, as the cores pay it: every
    // event site checks `enabled()` first, so the disabled row is the price
    // every *untraced* run pays at every site (it must be branch-only), and
    // the enabled row is the bounded-ring append a traced run pays.
    {
        let event = TraceEvent {
            seq: 0,
            at: Instant::from_nanos(1_250_000),
            node: NodeId::Replica(ReplicaId(0)),
            view: View(1),
            mode: Mode::Lion,
            slot: Some(SeqNum(42)),
            request: None,
            kind: EventKind::Committed,
            detail: 8,
        };
        let null = NullRecorder;
        let ns_disabled = time_op("trace_overhead/disabled", || {
            if std::hint::black_box(&null).enabled() {
                null.record(std::hint::black_box(event));
            }
        });
        println!("trace/disabled site       : {ns_disabled:>9.1} ns/op");
        let ring = RingRecorder::new(1 << 16);
        let ns_enabled = time_op("trace_overhead/enabled", || {
            if std::hint::black_box(&ring).enabled() {
                ring.record(std::hint::black_box(event));
            }
        });
        println!(
            "trace/enabled ring append : {ns_enabled:>9.1} ns/op ({} recorded, {} dropped)",
            ring.recorded(),
            ring.dropped()
        );
    }
}
