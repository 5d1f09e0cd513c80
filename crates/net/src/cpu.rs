//! Per-message processing cost model.
//!
//! Replica CPU time — serialization, hashing, signature generation and
//! verification — is what limits throughput once enough clients are
//! attached; the network in the paper's single-region testbed is far from
//! saturated. The simulator charges every message a processing time at both
//! the sender and the receiver, and a replica handles messages one at a
//! time, so protocols that exchange more (or more expensive) messages per
//! request saturate earlier — exactly the effect behind Figures 2 and 3.

use seemore_crypto::Signature;
use seemore_types::Duration;
use seemore_wire::{Message, WireSize};

/// Processing-cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Fixed cost of handling any message (dispatch, bookkeeping, syscalls).
    pub per_message: Duration,
    /// Additional cost per kilobyte of message payload (copy + hash).
    pub per_kilobyte: Duration,
    /// Cost of generating or verifying one signature / MAC.
    pub per_signature: Duration,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            per_message: Duration::from_micros(4),
            per_kilobyte: Duration::from_micros(2),
            // BFT-SMaRt-style MAC authenticators rather than public-key
            // signatures; calibrated against the HMAC micro-benchmark.
            per_signature: Duration::from_micros(3),
        }
    }
}

impl CpuModel {
    /// A model with free cryptography, used to isolate message-count effects
    /// (`seemore-bench` ablation 3).
    pub fn without_crypto(mut self) -> Self {
        self.per_signature = Duration::ZERO;
        self
    }

    /// Number of signature operations a node performs when sending or
    /// receiving `message` (signing on send, verifying on receive — the cost
    /// is symmetric in this model).
    pub fn signature_ops(message: &Message) -> u32 {
        match message {
            Message::Request(m) => u32::from(m.signature != Signature::INVALID),
            Message::Reply(m) => u32::from(m.signature != Signature::INVALID),
            Message::ReadRequest(m) => u32::from(m.signature != Signature::INVALID),
            Message::ReadReply(m) => u32::from(m.signature != Signature::INVALID),
            Message::Prepare(m) => u32::from(m.signature != Signature::INVALID),
            Message::PrePrepare(m) => u32::from(m.signature != Signature::INVALID),
            Message::Accept(m) => u32::from(m.signature.is_some()),
            Message::PbftPrepare(m) => u32::from(m.signature != Signature::INVALID),
            Message::Commit(m) => u32::from(m.signature != Signature::INVALID),
            Message::Inform(m) => u32::from(m.signature != Signature::INVALID),
            Message::Checkpoint(m) => u32::from(m.signature != Signature::INVALID),
            // Control-plane messages carry a signature plus embedded
            // certificates; approximate with signature + one op per carried
            // certificate.
            Message::ViewChange(m) => 1 + (m.prepares.len() + m.commits.len()) as u32,
            Message::NewView(m) => 1 + (m.prepares.len() + m.commits.len()) as u32,
            Message::ModeChange(_) => 1,
            Message::StateRequest(_) => 0,
            Message::StateResponse(m) => m.entries.len() as u32,
            Message::Recovery(m) => u32::from(m.signature != Signature::INVALID),
        }
    }

    /// Serialization-only cost (no signature work): what the sender pays for
    /// each additional copy of an already-signed broadcast message.
    pub fn serialization_cost(&self, message: &Message) -> Duration {
        let bytes = message.wire_size();
        let size_cost = Duration::from_nanos(
            (self.per_kilobyte.as_nanos() as f64 * bytes as f64 / 1024.0) as u64,
        );
        self.per_message + size_cost
    }

    /// Processing time for one message at one node.
    pub fn cost(&self, message: &Message) -> Duration {
        let bytes = message.wire_size();
        let size_cost = Duration::from_nanos(
            (self.per_kilobyte.as_nanos() as f64 * bytes as f64 / 1024.0) as u64,
        );
        let crypto_cost = Duration::from_nanos(
            self.per_signature.as_nanos() * u64::from(Self::signature_ops(message)),
        );
        self.per_message + size_cost + crypto_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClientId, NodeId, ReplicaId, SeqNum, Timestamp, View};
    use seemore_wire::{Accept, ClientRequest, Inform};

    fn request(signed: bool, size: usize) -> ClientRequest {
        let ks = KeyStore::generate(5, 2, 1);
        let signer = ks.signer_for(NodeId::Client(ClientId(0))).unwrap();
        let mut request = ClientRequest::new(ClientId(0), Timestamp(1), vec![0u8; size], &signer);
        if !signed {
            request.signature = Signature::INVALID;
        }
        request
    }

    #[test]
    fn signed_messages_cost_more_than_unsigned() {
        let model = CpuModel::default();
        let signed = Message::Request(request(true, 0));
        let unsigned = Message::Request(request(false, 0));
        assert!(model.cost(&signed) > model.cost(&unsigned));
        assert_eq!(
            model.cost(&signed).as_nanos() - model.cost(&unsigned).as_nanos(),
            model.per_signature.as_nanos()
        );
    }

    #[test]
    fn larger_payloads_cost_more() {
        let model = CpuModel::default();
        let small = Message::Request(request(true, 0));
        let large = Message::Request(request(true, 4096));
        assert!(model.cost(&large) > model.cost(&small));
    }

    #[test]
    fn unsigned_accept_has_no_crypto_cost() {
        let accept = Message::Accept(Accept {
            view: View(0),
            seq: SeqNum(1),
            digest: seemore_crypto::Digest::ZERO,
            replica: ReplicaId(1),
            signature: None,
        });
        assert_eq!(CpuModel::signature_ops(&accept), 0);
        let signed_accept = Message::Accept(Accept {
            view: View(0),
            seq: SeqNum(1),
            digest: seemore_crypto::Digest::ZERO,
            replica: ReplicaId(1),
            signature: Some(Signature::from_bytes([1; 32])),
        });
        assert_eq!(CpuModel::signature_ops(&signed_accept), 1);
    }

    #[test]
    fn without_crypto_removes_signature_cost() {
        let model = CpuModel::default().without_crypto();
        let inform = Message::Inform(Inform {
            view: View(0),
            seq: SeqNum(1),
            digest: seemore_crypto::Digest::ZERO,
            replica: ReplicaId(2),
            signature: Signature::from_bytes([1; 32]),
        });
        let base = model.per_message;
        assert!(model.cost(&inform) >= base);
        assert!(model.cost(&inform) < base + Duration::from_micros(2));
    }
}
