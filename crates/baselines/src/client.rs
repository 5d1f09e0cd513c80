//! The baselines' client rules.
//!
//! A baseline client is [`ClientCore`] under [`BaselineConfig`]'s
//! [`ReplyPolicy`]: no replica is trusted under BFT / S-UpRight and every
//! replica is under CFT. Requests go to the primary of the view, complete
//! on `reply_quorum` matching replies and are broadcast to the whole group
//! after a timeout. CFT reads go to the leader (served under its
//! commit-index lease); BFT reads go to every replica and need `2f + 1`
//! matching replies.

use crate::config::BaselineConfig;
use seemore_core::actions::Action;
use seemore_core::client::{ClientCore, ClientOutcome, ClientProtocol, ReplyPolicy};
use seemore_crypto::KeyStore;
use seemore_telemetry::Recorder;
use seemore_types::{ClientId, Duration, Instant, Mode, NodeId, OpClass, ReplicaId, View};
use seemore_wire::Message;
use std::sync::Arc;

impl BaselineConfig {
    /// The SeeMoRe mode the baseline's replies and trace events carry: Lion
    /// for the crash-only line, Peacock for the Byzantine ones.
    pub fn mode(&self) -> Mode {
        if self.signed {
            Mode::Peacock
        } else {
            Mode::Lion
        }
    }
}

impl ReplyPolicy for BaselineConfig {
    fn primary(&self, _mode: Mode, view: View) -> ReplicaId {
        BaselineConfig::primary(self, view)
    }

    /// A crash-only replica never lies; a Byzantine one may.
    fn is_trusted(&self, _replica: ReplicaId) -> bool {
        !self.signed
    }

    fn signed_replies(&self) -> bool {
        self.signed
    }

    fn reply_threshold(&self, _mode: Mode, _retransmitted: bool) -> u32 {
        self.reply_quorum
    }

    fn byzantine_bound(&self) -> u32 {
        self.fault_bound
    }

    fn read_targets(&self, _mode: Mode, view: View) -> Vec<ReplicaId> {
        if self.signed {
            self.replicas().collect()
        } else {
            vec![BaselineConfig::primary(self, view)]
        }
    }

    fn retransmit_targets(&self, _mode: Mode, _view: View) -> Vec<ReplicaId> {
        self.replicas().collect()
    }

    /// The leader alone in the crash model; a full `2f + 1` agreement
    /// quorum in the Byzantine models (`reply_quorum` would only prove the
    /// result correct, not fresh).
    fn read_quorum(&self, _mode: Mode) -> Option<u32> {
        self.signed.then_some(self.quorum)
    }
}

/// A [`ClientCore`] built from a [`BaselineConfig`].
#[derive(Debug)]
pub struct BaselineClient(ClientCore);

impl BaselineClient {
    /// Creates a baseline client.
    ///
    /// # Panics
    ///
    /// Panics if the key store has no signer for this client.
    pub fn new(
        id: ClientId,
        config: BaselineConfig,
        keystore: KeyStore,
        timeout: Duration,
    ) -> Self {
        BaselineClient(ClientCore::with_policy(
            id,
            Box::new(config),
            keystore,
            config.mode(),
            timeout,
        ))
    }

    /// Attaches a structured-event recorder (replacing the no-op default).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.0.set_recorder(recorder);
    }

    /// The view the client currently believes the group is in.
    pub fn view(&self) -> View {
        self.0.view()
    }
}

impl ClientProtocol for BaselineClient {
    fn id(&self) -> ClientId {
        self.0.id()
    }
    fn submit(&mut self, operation: Vec<u8>, now: Instant) -> Vec<Action> {
        self.0.submit(operation, now)
    }
    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: Instant) -> Vec<Action> {
        ClientProtocol::submit_op(&mut self.0, operation, class, now)
    }
    fn on_message(&mut self, from: NodeId, message: Message, now: Instant) -> Vec<Action> {
        self.0.on_message(from, message, now)
    }
    fn on_retransmit_timer(&mut self, now: Instant) -> Vec<Action> {
        self.0.on_retransmit_timer(now)
    }
    fn completed(&self) -> &[ClientOutcome] {
        self.0.completed()
    }
    fn take_completed(&mut self) -> Vec<ClientOutcome> {
        self.0.take_completed()
    }
    fn has_pending(&self) -> bool {
        self.0.has_pending()
    }
    fn retransmissions(&self) -> u64 {
        self.0.retransmissions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::s_upright;
    use seemore_crypto::Signature;
    use seemore_types::{RequestId, SeqNum, Timestamp};
    use seemore_wire::{ClientReply, ReadReply};

    fn keystore() -> KeyStore {
        KeyStore::generate(3, 10, 2)
    }

    fn reply(
        ks: &KeyStore,
        replica: u32,
        request: RequestId,
        result: &[u8],
        signed: bool,
    ) -> ClientReply {
        if signed {
            let signer = ks.signer_for(NodeId::Replica(ReplicaId(replica))).unwrap();
            ClientReply::new(
                Mode::Peacock,
                View(0),
                request,
                ReplicaId(replica),
                result.to_vec(),
                &signer,
            )
        } else {
            ClientReply {
                mode: Mode::Lion,
                view: View(0),
                request,
                replica: ReplicaId(replica),
                result: result.to_vec(),
                signature: Signature::INVALID,
            }
        }
    }

    #[test]
    fn cft_client_accepts_a_single_unsigned_reply() {
        let ks = keystore();
        let mut client = BaselineClient::new(
            ClientId(0),
            BaselineConfig::cft(1),
            ks.clone(),
            Duration::from_millis(50),
        );
        let actions = client.submit(b"op".to_vec(), Instant::ZERO);
        assert_eq!(actions.len(), 2);
        assert!(client.has_pending());
        let id = RequestId::new(ClientId(0), Timestamp(1));
        client.on_message(
            NodeId::Replica(ReplicaId(0)),
            Message::Reply(reply(&ks, 0, id, b"ok", false)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
        assert_eq!(client.completed().len(), 1);
    }

    #[test]
    fn bft_client_needs_matching_quorum_and_valid_signatures() {
        let ks = keystore();
        let mut client = BaselineClient::new(
            ClientId(0),
            BaselineConfig::bft(1),
            ks.clone(),
            Duration::from_millis(50),
        );
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        // Unsigned reply is rejected in a signed configuration.
        client.on_message(
            NodeId::Replica(ReplicaId(0)),
            Message::Reply(reply(&ks, 0, id, b"ok", false)),
            Instant::ZERO,
        );
        assert!(client.has_pending());
        // Two valid matching replies (f + 1 = 2) complete the request.
        client.on_message(
            NodeId::Replica(ReplicaId(1)),
            Message::Reply(reply(&ks, 1, id, b"ok", true)),
            Instant::ZERO,
        );
        assert!(client.has_pending());
        client.on_message(
            NodeId::Replica(ReplicaId(2)),
            Message::Reply(reply(&ks, 2, id, b"ok", true)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
    }

    #[test]
    fn s_upright_client_reply_quorum_is_m_plus_one() {
        let ks = keystore();
        let cfg = s_upright(1, 2);
        assert_eq!(cfg.reply_quorum, 3);
        let mut client =
            BaselineClient::new(ClientId(1), cfg, ks.clone(), Duration::from_millis(50));
        client.submit(b"op".to_vec(), Instant::ZERO);
        let id = RequestId::new(ClientId(1), Timestamp(1));
        for r in 0..2u32 {
            client.on_message(
                NodeId::Replica(ReplicaId(r)),
                Message::Reply(reply(&ks, r, id, b"v", true)),
                Instant::ZERO,
            );
            assert!(client.has_pending());
        }
        client.on_message(
            NodeId::Replica(ReplicaId(2)),
            Message::Reply(reply(&ks, 2, id, b"v", true)),
            Instant::ZERO,
        );
        assert!(!client.has_pending());
    }

    #[test]
    fn retransmission_broadcasts_to_the_whole_group() {
        let ks = keystore();
        let mut client = BaselineClient::new(
            ClientId(0),
            BaselineConfig::bft(1),
            ks,
            Duration::from_millis(50),
        );
        client.submit(b"op".to_vec(), Instant::ZERO);
        let actions = client.on_retransmit_timer(Instant::ZERO);
        let sends = actions.iter().filter(|a| a.is_send()).count();
        assert_eq!(sends, 4);
        assert_eq!(client.retransmissions(), 1);
        // Nothing pending -> nothing to retransmit.
        let mut idle = BaselineClient::new(
            ClientId(1),
            BaselineConfig::bft(1),
            keystore(),
            Duration::from_millis(50),
        );
        assert!(idle.on_retransmit_timer(Instant::ZERO).is_empty());
    }

    #[test]
    fn one_byzantine_read_reply_cannot_move_a_bft_clients_view() {
        let ks = keystore();
        let mut client = BaselineClient::new(
            ClientId(0),
            BaselineConfig::bft(1),
            ks.clone(),
            Duration::from_millis(50),
        );
        client.submit_op(b"get".to_vec(), OpClass::Read, Instant::ZERO);
        let id = RequestId::new(ClientId(0), Timestamp(1));
        // Replica 3 is the primary of view 7 at n = 4: a lone liar claiming
        // that view would make itself the client's primary.
        let signer = ks.signer_for(NodeId::Replica(ReplicaId(3))).unwrap();
        let lie = ReadReply::new(
            Mode::Peacock,
            View(7),
            id,
            ReplicaId(3),
            SeqNum(0),
            b"v".to_vec(),
            &signer,
        );
        client.on_message(
            NodeId::Replica(ReplicaId(3)),
            Message::ReadReply(lie),
            Instant::ZERO,
        );
        assert!(client.has_pending());
        assert_eq!(client.view(), View(0));
    }
}
