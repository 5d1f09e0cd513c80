//! Replica-side bookkeeping for the read-only fast path.
//!
//! [`ParkedReads`] holds fast-path reads waiting behind a commit-index fence
//! until the local execution frontier covers it — used identically by the
//! SeeMoRe replica (Lion/Dog proposal-frontier fence, Peacock
//! prepared-frontier fence) and by the CFT / BFT baselines, so the fence
//! logic cannot drift between protocols. The client's side of a read lives
//! in [`ClientCore`](crate::client::ClientCore).

use seemore_types::{RequestId, SeqNum};
use seemore_wire::ReadRequest;
use std::collections::HashMap;

/// Fast-path reads parked behind a commit-index fence, keyed by their
/// `(client, nonce)` identity. Re-parking a retransmitted read replaces its
/// entry (fences only move forward, which is harmless).
#[derive(Debug, Default)]
pub struct ParkedReads {
    parked: HashMap<RequestId, (SeqNum, ReadRequest)>,
}

impl ParkedReads {
    /// An empty park.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no reads are parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Parks `read` until the execution frontier reaches `fence`.
    pub fn park(&mut self, fence: SeqNum, read: ReadRequest) {
        self.parked.insert(read.id(), (fence, read));
    }

    /// Removes and returns (in deterministic id order) every read whose
    /// fence is covered by `executed`.
    pub fn take_ready(&mut self, executed: SeqNum) -> Vec<ReadRequest> {
        if self.parked.is_empty() {
            return Vec::new();
        }
        let mut ready: Vec<RequestId> = self
            .parked
            .iter()
            .filter(|(_, (fence, _))| *fence <= executed)
            .map(|(id, _)| *id)
            .collect();
        ready.sort();
        ready
            .into_iter()
            .map(|id| self.parked.remove(&id).expect("collected above").1)
            .collect()
    }

    /// Removes and returns every parked read (in deterministic id order) —
    /// used when a view change or mode switch invalidates the fence and the
    /// clients must be told to fall back.
    pub fn drain(&mut self) -> Vec<ReadRequest> {
        let mut parked: Vec<(RequestId, ReadRequest)> = self
            .parked
            .drain()
            .map(|(id, (_, read))| (id, read))
            .collect();
        parked.sort_by_key(|(id, _)| *id);
        parked.into_iter().map(|(_, read)| read).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::Signature;
    use seemore_types::{ClientId, Timestamp};

    fn read(client: u64, nonce: u64) -> ReadRequest {
        ReadRequest {
            client: ClientId(client),
            nonce: Timestamp(nonce),
            operation: Vec::new(),
            signature: Signature::INVALID,
        }
    }

    #[test]
    fn parked_reads_release_in_fence_then_id_order() {
        let mut parked = ParkedReads::new();
        parked.park(SeqNum(5), read(2, 1));
        parked.park(SeqNum(3), read(1, 1));
        parked.park(SeqNum(9), read(0, 1));
        assert!(!parked.is_empty());

        // Nothing ready below the lowest fence.
        assert!(parked.take_ready(SeqNum(2)).is_empty());
        // Frontier 5 releases the two reads fenced at 3 and 5, id-sorted.
        let ready = parked.take_ready(SeqNum(5));
        assert_eq!(
            ready.iter().map(|r| r.client).collect::<Vec<_>>(),
            vec![ClientId(1), ClientId(2)]
        );
        // The rest drains on demand.
        let rest = parked.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].client, ClientId(0));
        assert!(parked.is_empty());
    }

    #[test]
    fn reparking_replaces_the_fence() {
        let mut parked = ParkedReads::new();
        parked.park(SeqNum(3), read(0, 1));
        parked.park(SeqNum(7), read(0, 1)); // retransmission, later fence
        assert!(parked.take_ready(SeqNum(5)).is_empty());
        assert_eq!(parked.take_ready(SeqNum(7)).len(), 1);
    }
}
