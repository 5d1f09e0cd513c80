//! The sans-IO contract every replica core (SeeMoRe and the baselines)
//! implements.

use crate::actions::{Action, Timer};
use crate::exec::ExecutedEntry;
use crate::metrics::ReplicaMetrics;
use seemore_types::{Instant, Mode, NodeId, ReplicaId, View};
use seemore_wire::Message;

/// A replica-side protocol state machine.
///
/// Implementations never perform IO: the driving substrate (socket runtime
/// or discrete-event simulator) feeds messages and timer expirations in and
/// carries the returned [`Action`]s out. This keeps every protocol
/// deterministic and directly testable.
pub trait ReplicaProtocol: Send {
    /// This replica's identity.
    fn id(&self) -> ReplicaId;

    /// Called once when the replica starts; returns initial actions (for
    /// example arming timers). The default implementation does nothing.
    fn on_start(&mut self, _now: Instant) -> Vec<Action> {
        Vec::new()
    }

    /// Handles a message received from `from`.
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action>;

    /// Handles the expiry of a previously armed timer.
    fn on_timer(&mut self, timer: Timer, now: Instant) -> Vec<Action>;

    /// Opens a *turn*: the inputs a driver hands the core between two
    /// waits. Until [`end_turn`](Self::end_turn) the core may leave its WAL
    /// appends unsynced, so the driver must not carry out any action the
    /// turn produced before `end_turn` returns. The default does nothing,
    /// which keeps every append synced on its own: drivers that never open
    /// a turn (the simulator, `SyncCluster`) and wrappers that do not
    /// forward it lose nothing but the shared sync.
    fn begin_turn(&mut self) {}

    /// Closes the turn [`begin_turn`](Self::begin_turn) opened, making every
    /// vote it appended durable with one sync (group commit). The default
    /// does nothing.
    fn end_turn(&mut self) {}

    /// The view this replica currently operates in (diagnostics).
    fn view(&self) -> View;

    /// The mode this replica currently operates in. Baselines report the
    /// closest equivalent (`Lion` for CFT, `Peacock` for BFT-style cores).
    fn mode(&self) -> Mode;

    /// The execution history so far, in execution order. Tests use this to
    /// assert the SMR safety property (all non-faulty replicas execute the
    /// same requests in the same order).
    fn executed(&self) -> &[ExecutedEntry];

    /// Message and protocol counters.
    fn metrics(&self) -> &ReplicaMetrics;

    /// Asks the replica to initiate a switch to `mode` (SeeMoRe only; the
    /// default implementation ignores the request and returns no actions).
    fn request_mode_switch(&mut self, _mode: Mode, _now: Instant) -> Vec<Action> {
        Vec::new()
    }

    /// Whether this replica has crashed (used by fault injection wrappers;
    /// a crashed replica produces no actions).
    fn is_crashed(&self) -> bool {
        false
    }

    /// Crash the replica (fail-stop). Default implementations may ignore
    /// this if they do not support fault injection.
    fn crash(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::SeqNum;

    /// A trivial core used to exercise the default methods.
    struct Echo {
        id: ReplicaId,
        metrics: ReplicaMetrics,
        executed: Vec<ExecutedEntry>,
    }

    impl ReplicaProtocol for Echo {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_message(&mut self, from: NodeId, message: Message, _now: Instant) -> Vec<Action> {
            // Echo the message straight back.
            vec![Action::Send { to: from, message }]
        }
        fn on_timer(&mut self, _timer: Timer, _now: Instant) -> Vec<Action> {
            Vec::new()
        }
        fn view(&self) -> View {
            View::ZERO
        }
        fn mode(&self) -> Mode {
            Mode::Lion
        }
        fn executed(&self) -> &[ExecutedEntry] {
            &self.executed
        }
        fn metrics(&self) -> &ReplicaMetrics {
            &self.metrics
        }
    }

    #[test]
    fn default_implementations_are_benign() {
        let mut echo = Echo {
            id: ReplicaId(1),
            metrics: ReplicaMetrics::default(),
            executed: vec![ExecutedEntry {
                seq: SeqNum(1),
                offset: 0,
                request: seemore_types::RequestId::new(
                    seemore_types::ClientId(0),
                    seemore_types::Timestamp(1),
                ),
                digest: seemore_crypto::Digest::ZERO,
                result_digest: seemore_crypto::Digest::ZERO,
            }],
        };
        assert!(echo.on_start(Instant::ZERO).is_empty());
        assert!(echo
            .request_mode_switch(Mode::Dog, Instant::ZERO)
            .is_empty());
        assert!(!echo.is_crashed());
        echo.begin_turn(); // no-ops by default
        echo.end_turn();
        echo.crash(); // no-op by default
        assert!(!echo.is_crashed());
        assert_eq!(echo.executed().len(), 1);
        assert_eq!(echo.id(), ReplicaId(1));
    }

    #[test]
    fn trait_objects_dispatch() {
        let mut boxed: Box<dyn ReplicaProtocol> = Box::new(Echo {
            id: ReplicaId(0),
            metrics: ReplicaMetrics::default(),
            executed: vec![],
        });
        let msg = Message::StateRequest(seemore_wire::StateRequest {
            from_seq: SeqNum(0),
            replica: ReplicaId(9),
        });
        let actions = boxed.on_message(NodeId::Replica(ReplicaId(9)), msg, Instant::ZERO);
        assert_eq!(actions.len(), 1);
        assert_eq!(boxed.mode(), Mode::Lion);
        assert_eq!(boxed.view(), View::ZERO);
    }
}
