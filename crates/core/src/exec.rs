//! In-order, batch-atomic execution of committed batches with exactly-once
//! semantics and a reply cache.
//!
//! The unit of commitment is a [`Batch`]: a slot's batch is applied
//! atomically — every member request executes, in batch order, before the
//! next sequence number is considered — while the history still records one
//! [`ExecutedEntry`] per request so that per-request safety properties
//! (no loss, no duplication, no reordering) remain directly checkable.

use seemore_app::StateMachine;
use seemore_crypto::Digest;
use seemore_types::{ClientId, RequestId, SeqNum, Timestamp};
use seemore_wire::{Batch, ClientRequest};
use std::collections::{BTreeMap, HashMap};

/// One executed request, recorded in execution order.
///
/// The integration tests compare these histories across replicas to check the
/// SMR safety property: non-faulty replicas execute the same requests in the
/// same order. Requests from the same batch share a sequence number and are
/// distinguished by their position [`offset`](Self::offset) in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedEntry {
    /// Sequence number of the batch the request was executed in.
    pub seq: SeqNum,
    /// Position of the request inside its batch.
    pub offset: usize,
    /// Identity of the executed request.
    pub request: RequestId,
    /// Digest of the executed request.
    pub digest: Digest,
    /// Digest of the result returned by the state machine.
    pub result_digest: Digest,
}

/// The outcome of executing one request while draining the execution queue.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Sequence number of the batch that was executed.
    pub seq: SeqNum,
    /// The request that was executed (or served from cache, see `result`).
    pub request: ClientRequest,
    /// The reply payload for the client.
    pub result: Vec<u8>,
}

/// Applies committed batches to the local state machine strictly in
/// sequence-number order, and the requests within each batch strictly in
/// batch order.
///
/// A request whose client timestamp is not newer than the last executed
/// timestamp for that client is *not* re-applied to the state machine (the
/// paper's exactly-once semantics); the cached reply is returned instead so
/// the client still receives an answer. This also makes re-proposal of a
/// request in a later batch (e.g. across a view change) harmless.
pub struct ExecutionEngine {
    app: Box<dyn StateMachine>,
    committed: BTreeMap<SeqNum, Batch>,
    last_executed: SeqNum,
    reply_cache: HashMap<ClientId, (Timestamp, Vec<u8>)>,
    history: Vec<ExecutedEntry>,
}

impl std::fmt::Debug for ExecutionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionEngine")
            .field("last_executed", &self.last_executed)
            .field("pending", &self.committed.len())
            .field("executed", &self.history.len())
            .finish()
    }
}

impl ExecutionEngine {
    /// Wraps a state machine.
    pub fn new(app: Box<dyn StateMachine>) -> Self {
        ExecutionEngine {
            app,
            committed: BTreeMap::new(),
            last_executed: SeqNum(0),
            reply_cache: HashMap::new(),
            history: Vec::new(),
        }
    }

    /// Registers a committed batch for execution at `seq`.
    ///
    /// Returns `false` if a *different* batch was already committed at that
    /// sequence number (which would indicate a protocol violation upstream).
    pub fn add_committed(&mut self, seq: SeqNum, batch: Batch) -> bool {
        if seq <= self.last_executed {
            return true; // already executed; nothing to do
        }
        match self.committed.get(&seq) {
            Some(existing) => existing.digest() == batch.digest(),
            None => {
                self.committed.insert(seq, batch);
                true
            }
        }
    }

    /// Whether `seq` has been committed (and possibly executed).
    pub fn is_committed(&self, seq: SeqNum) -> bool {
        seq <= self.last_executed || self.committed.contains_key(&seq)
    }

    /// Executes every committed batch that is next in sequence order. Each
    /// batch is applied atomically: all of its requests execute, in batch
    /// order, before the next sequence number is considered.
    pub fn execute_ready(&mut self) -> Vec<Execution> {
        let mut out = Vec::new();
        loop {
            let next = self.last_executed.next();
            let Some(batch) = self.committed.remove(&next) else {
                break;
            };
            for (offset, request) in batch.into_requests().into_iter().enumerate() {
                let result = self.execute_one(next, offset, &request);
                out.push(Execution {
                    seq: next,
                    request,
                    result,
                });
            }
            self.last_executed = next;
        }
        out
    }

    fn execute_one(&mut self, seq: SeqNum, offset: usize, request: &ClientRequest) -> Vec<u8> {
        let cached = self.reply_cache.get(&request.client());
        let result = match cached {
            // Exactly-once: a stale or duplicate timestamp is answered from
            // the cache without touching the state machine.
            Some((last_ts, reply)) if request.timestamp() <= *last_ts => reply.clone(),
            _ => {
                let reply = self.app.execute(request.operation());
                self.reply_cache
                    .insert(request.client(), (request.timestamp(), reply.clone()));
                reply
            }
        };
        self.history.push(ExecutedEntry {
            seq,
            offset,
            request: request.id(),
            digest: request.digest(),
            result_digest: Digest::of_fields(&[b"result", &result]),
        });
        result
    }

    /// Highest sequence number executed so far (zero if none).
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Last executed timestamp for `client`, if any.
    pub fn last_timestamp(&self, client: ClientId) -> Option<Timestamp> {
        self.reply_cache.get(&client).map(|(ts, _)| *ts)
    }

    /// Cached reply for `client` if `timestamp` is not newer than the last
    /// executed timestamp.
    pub fn cached_reply(&self, client: ClientId, timestamp: Timestamp) -> Option<&Vec<u8>> {
        match self.reply_cache.get(&client) {
            Some((last_ts, reply)) if timestamp <= *last_ts => Some(reply),
            _ => None,
        }
    }

    /// Evaluates a read-only operation against the current application state
    /// without mutating it.
    ///
    /// Returns `None` when the application cannot prove the operation
    /// read-only (see [`StateMachine::execute_read`]); the caller must then
    /// refuse the read fast path so the operation goes through ordering.
    pub fn read(&self, op: &[u8]) -> Option<Vec<u8>> {
        self.app.execute_read(op)
    }

    /// Digest of the application state (used by checkpoints).
    pub fn state_digest(&self) -> Digest {
        self.app.state_digest()
    }

    /// Serialized application state plus execution metadata, for state
    /// transfer.
    ///
    /// The reply cache is part of the snapshot: a replica that fast-forwards
    /// past executed slots must also learn which `(client, timestamp)` pairs
    /// those slots already applied, otherwise a request re-proposed across a
    /// view change would be re-applied on the restored replica while every
    /// other replica serves it from cache — silently diverging application
    /// state.
    pub fn snapshot(&self) -> Vec<u8> {
        let app_snapshot = self.app.snapshot();
        let mut out = Vec::with_capacity(app_snapshot.len() + 24 + self.reply_cache.len() * 32);
        out.extend_from_slice(&self.last_executed.0.to_le_bytes());
        out.extend_from_slice(&(app_snapshot.len() as u64).to_le_bytes());
        out.extend_from_slice(&app_snapshot);
        // Reply cache, sorted by client for a canonical encoding.
        let mut cache: Vec<(&ClientId, &(Timestamp, Vec<u8>))> = self.reply_cache.iter().collect();
        cache.sort_by_key(|(client, _)| **client);
        out.extend_from_slice(&(cache.len() as u64).to_le_bytes());
        for (client, (timestamp, reply)) in cache {
            out.extend_from_slice(&client.0.to_le_bytes());
            out.extend_from_slice(&timestamp.0.to_le_bytes());
            out.extend_from_slice(&(reply.len() as u64).to_le_bytes());
            out.extend_from_slice(reply);
        }
        out
    }

    /// Installs a snapshot produced by [`snapshot`](Self::snapshot),
    /// fast-forwarding the executed sequence number and adopting the carried
    /// reply cache (newer timestamps win over local entries).
    pub fn restore(&mut self, snapshot: &[u8]) {
        let read_u64 = |at: usize| -> Option<u64> {
            snapshot
                .get(at..at + 8)
                .map(|bytes| u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
        };
        let (Some(seq), Some(len)) = (read_u64(0), read_u64(8)) else {
            return;
        };
        let seq = SeqNum(seq);
        let len = len as usize;
        if snapshot.len() < 16 + len {
            return;
        }
        if seq <= self.last_executed {
            return; // stale snapshot; keep local state
        }
        self.app.restore(&snapshot[16..16 + len]);
        self.last_executed = seq;
        // Committed-but-unexecuted batches at or below the snapshot are now
        // redundant.
        self.committed = self.committed.split_off(&seq.next());

        // Adopt the carried reply cache.
        let mut at = 16 + len;
        let Some(entries) = read_u64(at) else { return };
        at += 8;
        for _ in 0..entries {
            let (Some(client), Some(timestamp), Some(reply_len)) =
                (read_u64(at), read_u64(at + 8), read_u64(at + 16))
            else {
                return;
            };
            at += 24;
            let Some(reply) = snapshot.get(at..at + reply_len as usize) else {
                return;
            };
            at += reply_len as usize;
            let client = ClientId(client);
            let timestamp = Timestamp(timestamp);
            match self.reply_cache.get(&client) {
                Some((local_ts, _)) if *local_ts >= timestamp => {}
                _ => {
                    self.reply_cache.insert(client, (timestamp, reply.to_vec()));
                }
            }
        }
    }

    /// Execution history in execution order.
    pub fn history(&self) -> &[ExecutedEntry] {
        &self.history
    }

    /// Number of requests executed (including cache-served duplicates).
    pub fn executed_count(&self) -> u64 {
        self.history.len() as u64
    }

    /// Committed batches above `from` (used to answer state transfer).
    pub fn committed_after(&self, from: SeqNum) -> Vec<(SeqNum, Batch)> {
        self.committed
            .range(from.next()..)
            .map(|(seq, batch)| (*seq, batch.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_app::{KvOp, KvResult, KvStore, NoopApp};
    use seemore_crypto::KeyStore;
    use seemore_types::NodeId;

    fn request(ks: &KeyStore, client: u64, ts: u64, op: Vec<u8>) -> ClientRequest {
        let signer = ks.signer_for(NodeId::Client(ClientId(client))).unwrap();
        ClientRequest::new(ClientId(client), Timestamp(ts), op, &signer)
    }

    fn engine() -> (ExecutionEngine, KeyStore) {
        (
            ExecutionEngine::new(Box::new(KvStore::new())),
            KeyStore::generate(5, 1, 4),
        )
    }

    #[test]
    fn executes_in_sequence_order_only() {
        let (mut exec, ks) = engine();
        let r1 = request(
            &ks,
            0,
            1,
            KvOp::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            }
            .encode(),
        );
        let r2 = request(&ks, 0, 2, KvOp::Get { key: b"a".to_vec() }.encode());

        // Commit seq 2 first: nothing executes until seq 1 arrives.
        assert!(exec.add_committed(SeqNum(2), Batch::single(r2)));
        assert!(exec.execute_ready().is_empty());
        assert_eq!(exec.last_executed(), SeqNum(0));

        assert!(exec.add_committed(SeqNum(1), Batch::single(r1)));
        let executed = exec.execute_ready();
        assert_eq!(executed.len(), 2);
        assert_eq!(executed[0].seq, SeqNum(1));
        assert_eq!(executed[1].seq, SeqNum(2));
        assert_eq!(
            KvResult::decode(&executed[1].result),
            Some(KvResult::Value(b"1".to_vec()))
        );
        assert_eq!(exec.last_executed(), SeqNum(2));
        assert_eq!(exec.executed_count(), 2);
    }

    #[test]
    fn batches_execute_atomically_and_in_batch_order() {
        let (mut exec, ks) = engine();
        let batch = Batch::new(vec![
            request(
                &ks,
                0,
                1,
                KvOp::Put {
                    key: b"k".to_vec(),
                    value: b"a".to_vec(),
                }
                .encode(),
            ),
            request(
                &ks,
                1,
                1,
                KvOp::Append {
                    key: b"k".to_vec(),
                    suffix: b"b".to_vec(),
                }
                .encode(),
            ),
            request(&ks, 2, 1, KvOp::Get { key: b"k".to_vec() }.encode()),
        ]);
        assert!(exec.add_committed(SeqNum(1), batch));
        let executed = exec.execute_ready();
        assert_eq!(executed.len(), 3);
        // All three share the slot, and the read at offset 2 observes both
        // prior writes of the same batch (within-batch ordering).
        assert!(executed.iter().all(|e| e.seq == SeqNum(1)));
        assert_eq!(
            KvResult::decode(&executed[2].result),
            Some(KvResult::Value(b"ab".to_vec()))
        );
        assert_eq!(exec.last_executed(), SeqNum(1));
        let offsets: Vec<usize> = exec.history().iter().map(|e| e.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2]);
    }

    /// A stale duplicate — a request re-proposed after a newer request of
    /// its client executed, as a view change can do — must record the
    /// result of its own first execution, not the reply cached for the
    /// newer request.
    #[test]
    #[ignore = "not fixed yet, execute_one answers a stale duplicate with its client's latest \
                cached reply: slot 3 records the Put with result digest 24e01fa9 (the Get's) where \
                its first execution at slot 1 recorded 6c9a5cd5 (ResultChanged)"]
    fn a_stale_duplicate_records_its_own_result() {
        let (mut exec, ks) = engine();
        let put = request(
            &ks,
            0,
            1,
            KvOp::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            }
            .encode(),
        );
        let get = request(&ks, 0, 2, KvOp::Get { key: b"a".to_vec() }.encode());
        assert!(exec.add_committed(SeqNum(1), Batch::single(put.clone())));
        assert!(exec.add_committed(SeqNum(2), Batch::single(get)));
        assert!(exec.add_committed(SeqNum(3), Batch::single(put)));
        assert_eq!(exec.execute_ready().len(), 3);

        let results: Vec<Digest> = exec.history().iter().map(|e| e.result_digest).collect();
        assert_eq!(
            crate::check::exactly_once(&[(seemore_types::ReplicaId(0), exec.history())]),
            Ok(()),
            "result digests of slots 1, 2, 3: {results:?}"
        );
    }

    #[test]
    fn conflicting_commit_is_rejected() {
        let (mut exec, ks) = engine();
        let a = Batch::single(request(&ks, 0, 1, b"op-a".to_vec()));
        let b = Batch::single(request(&ks, 1, 1, b"op-b".to_vec()));
        assert!(exec.add_committed(SeqNum(1), a.clone()));
        assert!(!exec.add_committed(SeqNum(1), b));
        assert!(exec.add_committed(SeqNum(1), a)); // same batch is fine
    }

    #[test]
    fn exactly_once_execution_with_reply_cache() {
        let (mut exec, ks) = engine();
        let put = request(
            &ks,
            0,
            5,
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        exec.add_committed(SeqNum(1), Batch::single(put.clone()));
        exec.execute_ready();
        assert_eq!(exec.last_timestamp(ClientId(0)), Some(Timestamp(5)));

        // The same request committed again at a later sequence number (e.g.
        // re-proposed in another batch across a view change) must not be
        // applied twice.
        let duplicate = put.clone();
        let delete = request(&ks, 1, 1, KvOp::Delete { key: b"k".to_vec() }.encode());
        exec.add_committed(SeqNum(2), Batch::new(vec![duplicate, delete]));
        let executed = exec.execute_ready();
        assert_eq!(executed.len(), 2);
        // The duplicate was served from the cache: the key still existed when
        // the delete ran, so the delete found it.
        assert_eq!(KvResult::decode(&executed[1].result), Some(KvResult::Ok));
        // Cached reply is available.
        assert!(exec.cached_reply(ClientId(0), Timestamp(5)).is_some());
        assert!(exec.cached_reply(ClientId(0), Timestamp(6)).is_none());
    }

    #[test]
    fn history_records_order_and_digests() {
        let (mut exec, ks) = engine();
        let r1 = request(&ks, 0, 1, b"x".to_vec());
        let r2 = request(&ks, 1, 1, b"y".to_vec());
        exec.add_committed(SeqNum(1), Batch::single(r1.clone()));
        exec.add_committed(SeqNum(2), Batch::single(r2.clone()));
        exec.execute_ready();
        let history = exec.history();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0].request, r1.id());
        assert_eq!(history[0].digest, r1.digest());
        assert_eq!(history[1].request, r2.id());
        assert!(exec.is_committed(SeqNum(1)));
        assert!(!exec.is_committed(SeqNum(3)));
    }

    #[test]
    fn snapshot_restore_fast_forwards() {
        let (mut a, ks) = engine();
        for i in 1..=10u64 {
            let r = request(
                &ks,
                0,
                i,
                KvOp::Put {
                    key: format!("k{i}").into_bytes(),
                    value: b"v".to_vec(),
                }
                .encode(),
            );
            a.add_committed(SeqNum(i), Batch::single(r));
        }
        a.execute_ready();
        let snapshot = a.snapshot();

        let mut b = ExecutionEngine::new(Box::new(KvStore::new()));
        b.restore(&snapshot);
        assert_eq!(b.last_executed(), SeqNum(10));
        assert_eq!(b.state_digest(), a.state_digest());

        // Garbage snapshots are ignored.
        let mut c = ExecutionEngine::new(Box::new(KvStore::new()));
        c.restore(&[0, 1, 2]);
        assert_eq!(c.last_executed(), SeqNum(0));
    }

    #[test]
    fn restore_carries_the_reply_cache_so_reproposals_stay_exactly_once() {
        // Replica A executes a non-idempotent append at ts 1.
        let (mut a, ks) = engine();
        let append = request(
            &ks,
            0,
            1,
            KvOp::Append {
                key: b"k".to_vec(),
                suffix: b"x".to_vec(),
            }
            .encode(),
        );
        a.add_committed(SeqNum(1), Batch::single(append.clone()));
        a.execute_ready();

        // Replica B never executed slot 1; it catches up via state transfer.
        let mut b = ExecutionEngine::new(Box::new(KvStore::new()));
        b.restore(&a.snapshot());
        assert_eq!(b.last_executed(), SeqNum(1));
        assert_eq!(b.last_timestamp(ClientId(0)), Some(Timestamp(1)));
        assert!(b.cached_reply(ClientId(0), Timestamp(1)).is_some());

        // The same request is re-proposed in a later batch (e.g. across a
        // view change). Both replicas must serve it from cache; if B
        // re-applied it, its KV state would hold "xx" and diverge from A.
        a.add_committed(SeqNum(2), Batch::single(append.clone()));
        a.execute_ready();
        b.add_committed(SeqNum(2), Batch::single(append));
        b.execute_ready();
        assert_eq!(
            a.state_digest(),
            b.state_digest(),
            "replayed append diverged state"
        );
    }

    #[test]
    fn restore_ignores_stale_snapshots() {
        let (mut a, ks) = engine();
        let early = a.snapshot();
        a.add_committed(
            SeqNum(1),
            Batch::single(request(
                &ks,
                0,
                1,
                KvOp::Put {
                    key: b"k".to_vec(),
                    value: b"v".to_vec(),
                }
                .encode(),
            )),
        );
        a.execute_ready();
        let digest = a.state_digest();
        // Restoring an older snapshot must not rewind state or metadata.
        a.restore(&early);
        assert_eq!(a.last_executed(), SeqNum(1));
        assert_eq!(a.state_digest(), digest);
    }

    #[test]
    fn committed_after_returns_pending_entries() {
        let (mut exec, ks) = engine();
        exec.add_committed(SeqNum(3), Batch::single(request(&ks, 0, 1, b"a".to_vec())));
        exec.add_committed(SeqNum(5), Batch::single(request(&ks, 0, 2, b"b".to_vec())));
        let after = exec.committed_after(SeqNum(3));
        assert_eq!(after.len(), 1);
        assert_eq!(after[0].0, SeqNum(5));
        assert_eq!(exec.committed_after(SeqNum(0)).len(), 2);
    }

    #[test]
    fn works_with_noop_app() {
        let mut exec = ExecutionEngine::new(Box::new(NoopApp::new(64)));
        let ks = KeyStore::generate(5, 1, 1);
        exec.add_committed(SeqNum(1), Batch::single(request(&ks, 0, 1, vec![])));
        let executed = exec.execute_ready();
        assert_eq!(executed[0].result.len(), 64);
    }
}
