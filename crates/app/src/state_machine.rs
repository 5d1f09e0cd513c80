//! The deterministic state machine contract.

use seemore_crypto::Digest;

/// A deterministic service replicated by the protocol.
///
/// The paper requires operations to be *atomic* and *deterministic*: the same
/// operation executed in the same initial state must produce the same final
/// state and the same result on every replica, and the initial state must be
/// identical everywhere (Section 5). The protocol guarantees that every
/// non-faulty replica calls [`execute`](StateMachine::execute) with the same
/// operations in the same order.
pub trait StateMachine: Send {
    /// Applies one operation and returns its result.
    ///
    /// `op` is the opaque operation payload carried inside the client's
    /// `REQUEST`; the returned bytes become the `REPLY` payload.
    fn execute(&mut self, op: &[u8]) -> Vec<u8>;

    /// Evaluates a *read-only* operation against the current state without
    /// mutating it, or returns `None` when the operation is not provably
    /// read-only (including malformed input).
    ///
    /// This is the application half of the read fast path: replicas serve
    /// `READ-REQUEST`s through this method instead of ordering them, so an
    /// implementation must guarantee that `execute_read` observes exactly
    /// the state produced by the `execute` history so far and changes
    /// nothing — not even diagnostic counters that feed
    /// [`state_digest`](StateMachine::state_digest). Returning `None` makes
    /// the replica refuse the fast path and the client falls back to the
    /// ordered path, which is always safe; the default implementation
    /// refuses everything.
    fn execute_read(&self, _op: &[u8]) -> Option<Vec<u8>> {
        None
    }

    /// A digest of the current state, used in `CHECKPOINT` messages so that
    /// replicas can compare snapshots without shipping them.
    ///
    /// What the replicas rely on:
    ///
    /// * **It is called on the commit path.** Every checkpoint announcer —
    ///   the trusted primary in Lion and Dog, every proxy in Peacock, every
    ///   replica of the baselines — calls it once every `checkpoint_period`
    ///   slots, between executing the slot and handling the next message. An
    ///   implementation should cost in proportion to what changed since the
    ///   previous call, not to the size of the state, or every checkpoint is
    ///   a stall in the commit latency's tail.
    /// * **It is a function of the content only.** Peacock and the BFT
    ///   baseline need `m + 1` / `2f + 1` *matching* digests from replicas
    ///   that reached the state differently: by executing the history, by
    ///   restoring a snapshot during state transfer or recovery, in a
    ///   different order within the bounds of determinism. Equal state must
    ///   give equal digests whatever the route, and it must be infeasible to
    ///   construct a different state with the same digest, or a Byzantine
    ///   replica could pass a fabricated snapshot off under an honest
    ///   checkpoint.
    /// * **Reads do not move it** (see
    ///   [`execute_read`](StateMachine::execute_read)).
    ///
    /// The value is opaque to the protocol and may differ between builds of
    /// an implementation; the replicas of one cluster run one build.
    fn state_digest(&self) -> Digest;

    /// Serializes the full state for state transfer to a lagging replica.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the state with a snapshot produced by
    /// [`snapshot`](StateMachine::snapshot) on another replica.
    fn restore(&mut self, snapshot: &[u8]);

    /// Number of operations executed so far (diagnostic; used by tests to
    /// assert exactly-once execution).
    fn executed_count(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-test state machine: appends operation lengths.
    struct Counter {
        total: u64,
        executed: u64,
    }

    impl StateMachine for Counter {
        fn execute(&mut self, op: &[u8]) -> Vec<u8> {
            self.total += op.len() as u64;
            self.executed += 1;
            self.total.to_le_bytes().to_vec()
        }
        fn state_digest(&self) -> Digest {
            Digest::of_fields(&[b"counter", &self.total.to_le_bytes()])
        }
        fn snapshot(&self) -> Vec<u8> {
            let mut out = self.total.to_le_bytes().to_vec();
            out.extend_from_slice(&self.executed.to_le_bytes());
            out
        }
        fn restore(&mut self, snapshot: &[u8]) {
            self.total = u64::from_le_bytes(snapshot[..8].try_into().unwrap());
            self.executed = u64::from_le_bytes(snapshot[8..16].try_into().unwrap());
        }
        fn executed_count(&self) -> u64 {
            self.executed
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut sm: Box<dyn StateMachine> = Box::new(Counter {
            total: 0,
            executed: 0,
        });
        let r1 = sm.execute(b"abc");
        assert_eq!(r1, 3u64.to_le_bytes().to_vec());
        assert_eq!(sm.executed_count(), 1);
        let digest_before = sm.state_digest();
        sm.execute(b"defg");
        assert_ne!(sm.state_digest(), digest_before);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = Counter {
            total: 0,
            executed: 0,
        };
        a.execute(b"hello");
        a.execute(b"world!");
        let snap = a.snapshot();

        let mut b = Counter {
            total: 0,
            executed: 0,
        };
        b.restore(&snap);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(b.executed_count(), 2);
    }
}
