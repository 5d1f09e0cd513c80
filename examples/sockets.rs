//! A replicated key-value store over real loopback TCP sockets.
//!
//! The smallest hybrid-cloud deployment of the paper's evaluation (c = 1,
//! m = 1, six replicas, Lion mode) on the socket runtime: every protocol
//! message is serialized by the versioned wire codec, crosses a real
//! `std::net` TCP connection, and is reassembled by a streaming frame
//! reader on the far side. At the end, the cluster reports the bytes that actually crossed
//! the wire — by the codec's size contract, the same number the simulator's
//! `WireSize` model charges for.
//!
//! Run with: `cargo run --example sockets`.

use seemore::app::{KvOp, KvResult, KvStore};
use seemore::core::batching::BatchConfig;
use seemore::core::client::ClientCore;
use seemore::core::config::ProtocolConfig;
use seemore::core::protocol::ReplicaProtocol;
use seemore::core::replica::SeeMoReReplica;
use seemore::crypto::KeyStore;
use seemore::runtime::socket::SocketCluster;
use seemore::types::{ClientId, ClusterConfig, Duration, Mode};

fn main() {
    // 1. The smallest hybrid cloud of the paper's evaluation: 2 trusted +
    //    4 untrusted replicas (N = 3m + 2c + 1 = 6), Lion mode.
    let cluster = ClusterConfig::minimal(1, 1).expect("valid cluster");
    let keystore = KeyStore::generate(2026, cluster.total_size(), 1);

    // 2. Replica cores with request batching enabled — proposals carry up to
    //    8 requests per slot, flushed after at most 500 µs.
    let config = ProtocolConfig {
        batch: BatchConfig::new(8, Duration::from_micros(500)).into(),
        ..ProtocolConfig::default()
    };
    let replicas: Vec<Box<dyn ReplicaProtocol>> = cluster
        .replicas()
        .map(|id| {
            Box::new(SeeMoReReplica::new(
                id,
                cluster,
                config,
                keystore.clone(),
                Mode::Lion,
                Box::new(KvStore::new()),
            )) as Box<dyn ReplicaProtocol>
        })
        .collect();

    // 3. Spawn the socket runtime: one loopback TCP listener per replica
    //    and per client, one protocol thread per replica that reads its own
    //    inbound connections, a fixed pool of epoll event loops accepting,
    //    dialing and draining, lazy dialing with reconnect + backoff.
    let client_id = ClientId(0);
    let sockets = SocketCluster::spawn(replicas, &[client_id]).expect("bind loopback sockets");
    println!(
        "SocketCluster up: {} replicas + 1 client, reactor TCP mesh on 127.0.0.1",
        cluster.total_size()
    );

    // 4. Drive a closed-loop client through the replicated store.
    let client = ClientCore::new(
        client_id,
        cluster,
        keystore,
        Mode::Lion,
        Duration::from_millis(250),
    );
    let operations = 16usize;
    let (client, outcomes) = sockets.run_client(client, operations, Duration::from_secs(10), |i| {
        let op = KvOp::Put {
            key: format!("key-{i}").into_bytes(),
            value: format!("value-{i}").into_bytes(),
        };
        (op.encode(), op.class())
    });
    assert_eq!(outcomes.len(), operations);
    let acknowledged = outcomes
        .iter()
        .filter(|o| KvResult::decode(&o.result) == Some(KvResult::Ok))
        .count();
    println!("{acknowledged}/{operations} PUTs acknowledged by a reply quorum");

    // 5. Read one key back — a self-classified Get takes the read fast
    // path (served by the trusted Lion primary under its commit-index
    // lease, no agreement round).
    let (_client, reads) = sockets.run_client(client, 1, Duration::from_secs(10), |_| {
        let op = KvOp::Get {
            key: b"key-3".to_vec(),
        };
        (op.encode(), op.class())
    });
    match KvResult::decode(&reads[0].result) {
        Some(KvResult::Value(v)) => {
            println!("GET key-3 -> {:?}", String::from_utf8_lossy(&v));
        }
        other => println!("GET key-3 -> unexpected {other:?}"),
    }

    // 6. Real bytes, really on the wire.
    let (messages, bytes) = sockets.traffic();
    println!("wire traffic: {messages} messages, {bytes} bytes across loopback TCP");
    let stats = sockets.stats();
    println!(
        "hot path: {} direct writes, {} vectored writes, {} partial writes, {} encodes saved",
        stats.direct_writes(),
        stats.vectored_writes(),
        stats.partial_writes(),
        stats.encodes_saved()
    );

    let cores = sockets.shutdown();
    let executed = cores
        .iter()
        .map(|core| core.executed().len())
        .max()
        .unwrap_or(0);
    println!("shutdown clean; most advanced replica executed {executed} requests");
    assert!(bytes > 0, "the whole point was real bytes on a real wire");
}
