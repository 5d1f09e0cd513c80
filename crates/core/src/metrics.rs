//! Per-replica protocol counters.
//!
//! The evaluation cares about the number of messages each protocol exchanges
//! per committed request (Table 1) and about control-plane events such as
//! view changes (Figure 4). Every core maintains a [`ReplicaMetrics`] that
//! the runtime aggregates.

use crate::batching::FlushCause;
use seemore_wire::MessageKind;
use std::collections::BTreeMap;

/// Chosen-size telemetry of the batching controller: what batch sizes the
/// policy actually cut and why, maintained by the replica that cut them and
/// aggregated into `RunReport` by the runtime.
#[derive(Debug, Clone, Default)]
pub struct BatchTelemetry {
    /// Histogram of cut batch sizes (`size → count`).
    sizes: BTreeMap<usize, u64>,
    /// Batches cut by the size trigger (buffer reached the effective cap).
    pub cut_by_size: u64,
    /// Batches cut by the flush timer (partial buffer, latency trigger).
    pub cut_by_timer: u64,
    /// Batches forced out (view-change installation).
    pub cut_forced: u64,
    /// Stale flush-timer expirations that were correctly ignored (a timer
    /// generation that had already been invalidated by a cut).
    pub stale_timer_fires: u64,
}

impl BatchTelemetry {
    /// Records one cut batch of `len` requests.
    pub fn record_cut(&mut self, len: usize, cause: FlushCause) {
        *self.sizes.entry(len).or_default() += 1;
        match cause {
            FlushCause::Size => self.cut_by_size += 1,
            FlushCause::Timer => self.cut_by_timer += 1,
            FlushCause::Forced => self.cut_forced += 1,
        }
    }

    /// Total batches cut.
    pub fn batches(&self) -> u64 {
        self.sizes.values().sum()
    }

    /// Mean cut batch size (0 when nothing was cut).
    pub fn mean_size(&self) -> f64 {
        let total = self.batches();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .sizes
            .iter()
            .map(|(size, count)| *size as u64 * count)
            .sum();
        weighted as f64 / total as f64
    }

    /// Median cut batch size (0 when nothing was cut).
    pub fn p50_size(&self) -> usize {
        let total = self.batches();
        if total == 0 {
            return 0;
        }
        let midpoint = total.div_ceil(2);
        let mut seen = 0u64;
        for (size, count) in &self.sizes {
            seen += count;
            if seen >= midpoint {
                return *size;
            }
        }
        0
    }

    /// Largest batch ever cut.
    pub fn max_size(&self) -> usize {
        self.sizes.keys().next_back().copied().unwrap_or(0)
    }

    /// Folds another replica's batch telemetry into this one.
    pub fn merge(&mut self, other: &BatchTelemetry) {
        for (size, count) in &other.sizes {
            *self.sizes.entry(*size).or_default() += count;
        }
        self.cut_by_size += other.cut_by_size;
        self.cut_by_timer += other.cut_by_timer;
        self.cut_forced += other.cut_forced;
        self.stale_timer_fires += other.stale_timer_fires;
    }
}

/// Counters maintained by every replica core.
#[derive(Debug, Clone, Default)]
pub struct ReplicaMetrics {
    sent: BTreeMap<MessageKind, u64>,
    received: BTreeMap<MessageKind, u64>,
    sent_bytes: u64,
    /// Requests committed by this replica.
    pub committed: u64,
    /// Requests executed by this replica.
    pub executed: u64,
    /// View changes this replica participated in (sent a `VIEW-CHANGE`).
    pub view_changes_started: u64,
    /// `NEW-VIEW`s this replica installed.
    pub view_changes_completed: u64,
    /// Mode switches this replica completed.
    pub mode_switches: u64,
    /// Checkpoints that became stable at this replica.
    pub stable_checkpoints: u64,
    /// Messages discarded as invalid (bad signature, wrong view, ...).
    pub rejected_messages: u64,
    /// Agreement votes whose digest disagreed with the proposal this
    /// replica accepted for the same slot and view — a per-peer
    /// misbehaviour (or lag) signal surfaced to the health rollup.
    pub vote_mismatches: u64,
    /// Read-only requests this replica served from executed state without
    /// ordering (the read fast path).
    pub reads_served: u64,
    /// Read-only requests this replica refused (not the lease-holding
    /// primary, lease expired, view change in progress, or the operation was
    /// not provably read-only), redirecting the client to the ordered path.
    pub reads_refused: u64,
    /// What the batching controller actually did (sizes and flush causes).
    pub batch: BatchTelemetry,
    /// Largest number of agreement instances resident in the message log at
    /// any point — the witness that checkpoint-driven truncation keeps the
    /// in-memory log bounded (merge takes the maximum, not the sum).
    pub peak_log_instances: u64,
    /// Messages a rejoining replica evicted from its full recovery buffer
    /// (oldest first) instead of re-delivering them after the rejoin; their
    /// senders retransmit, but the loss is never silent.
    pub recovery_buffer_dropped: u64,
    /// Records this replica appended to its write-ahead log.
    pub wal_appends: u64,
    /// Syncs this replica asked its write-ahead log for: one per append
    /// made outside a turn, one per turn that appended anything (group
    /// commit). `wal_syncs / wal_appends` below 1 means turns shared syncs.
    pub wal_syncs: u64,
}

impl ReplicaMetrics {
    /// Records an outgoing message of `kind` with the given wire size.
    pub fn record_sent(&mut self, kind: MessageKind, wire_size: usize) {
        *self.sent.entry(kind).or_default() += 1;
        self.sent_bytes += wire_size as u64;
    }

    /// Records an incoming message of `kind`.
    pub fn record_received(&mut self, kind: MessageKind) {
        *self.received.entry(kind).or_default() += 1;
    }

    /// Notes the current resident size of the message log, keeping the peak.
    pub fn note_log_size(&mut self, len: usize) {
        self.peak_log_instances = self.peak_log_instances.max(len as u64);
    }

    /// Number of messages of `kind` sent so far.
    pub fn sent(&self, kind: MessageKind) -> u64 {
        self.sent.get(&kind).copied().unwrap_or(0)
    }

    /// Number of messages of `kind` received so far.
    pub fn received(&self, kind: MessageKind) -> u64 {
        self.received.get(&kind).copied().unwrap_or(0)
    }

    /// Total messages sent across all kinds.
    pub fn total_sent(&self) -> u64 {
        self.sent.values().sum()
    }

    /// Total messages received across all kinds.
    pub fn total_received(&self) -> u64 {
        self.received.values().sum()
    }

    /// Total bytes sent (according to the wire-size model).
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Messages sent on the agreement data path only (excluding client
    /// traffic and control-plane messages), matching the "number of message
    /// exchanges" column of Table 1.
    pub fn agreement_messages_sent(&self) -> u64 {
        self.sent
            .iter()
            .filter(|(kind, _)| kind.is_agreement())
            .map(|(_, count)| *count)
            .sum()
    }

    /// Folds another replica's counters into this one (used by the runtime
    /// to aggregate cluster-wide totals).
    pub fn merge(&mut self, other: &ReplicaMetrics) {
        for (kind, count) in &other.sent {
            *self.sent.entry(*kind).or_default() += count;
        }
        for (kind, count) in &other.received {
            *self.received.entry(*kind).or_default() += count;
        }
        self.sent_bytes += other.sent_bytes;
        self.committed += other.committed;
        self.executed += other.executed;
        self.view_changes_started += other.view_changes_started;
        self.view_changes_completed += other.view_changes_completed;
        self.mode_switches += other.mode_switches;
        self.stable_checkpoints += other.stable_checkpoints;
        self.rejected_messages += other.rejected_messages;
        self.vote_mismatches += other.vote_mismatches;
        self.reads_served += other.reads_served;
        self.reads_refused += other.reads_refused;
        self.batch.merge(&other.batch);
        self.peak_log_instances = self.peak_log_instances.max(other.peak_log_instances);
        self.recovery_buffer_dropped += other.recovery_buffer_dropped;
        self.wal_appends += other.wal_appends;
        self.wal_syncs += other.wal_syncs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = ReplicaMetrics::default();
        m.record_sent(MessageKind::Prepare, 100);
        m.record_sent(MessageKind::Prepare, 100);
        m.record_sent(MessageKind::Reply, 32);
        m.record_received(MessageKind::Accept);
        assert_eq!(m.sent(MessageKind::Prepare), 2);
        assert_eq!(m.sent(MessageKind::Reply), 1);
        assert_eq!(m.sent(MessageKind::Commit), 0);
        assert_eq!(m.received(MessageKind::Accept), 1);
        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.total_received(), 1);
        assert_eq!(m.total_sent_bytes(), 232);
    }

    #[test]
    fn agreement_messages_exclude_client_and_control_traffic() {
        let mut m = ReplicaMetrics::default();
        m.record_sent(MessageKind::Prepare, 10);
        m.record_sent(MessageKind::Accept, 10);
        m.record_sent(MessageKind::Reply, 10);
        m.record_sent(MessageKind::ViewChange, 10);
        m.record_sent(MessageKind::Checkpoint, 10);
        assert_eq!(m.agreement_messages_sent(), 2);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = ReplicaMetrics::default();
        a.record_sent(MessageKind::Commit, 50);
        a.committed = 3;
        a.view_changes_completed = 1;

        let mut b = ReplicaMetrics::default();
        b.record_sent(MessageKind::Commit, 50);
        b.record_received(MessageKind::Prepare);
        b.committed = 2;
        b.rejected_messages = 4;
        b.recovery_buffer_dropped = 3;
        a.wal_appends = 7;
        a.wal_syncs = 2;
        b.wal_appends = 5;
        b.wal_syncs = 1;

        a.merge(&b);
        assert_eq!(a.sent(MessageKind::Commit), 2);
        assert_eq!(a.received(MessageKind::Prepare), 1);
        assert_eq!(a.committed, 5);
        assert_eq!(a.rejected_messages, 4);
        assert_eq!(a.recovery_buffer_dropped, 3);
        assert_eq!((a.wal_appends, a.wal_syncs), (12, 3));
        assert_eq!(a.view_changes_completed, 1);
        assert_eq!(a.total_sent_bytes(), 100);
    }

    #[test]
    fn batch_telemetry_statistics() {
        let mut t = BatchTelemetry::default();
        assert_eq!(t.batches(), 0);
        assert_eq!(t.mean_size(), 0.0);
        assert_eq!(t.p50_size(), 0);
        assert_eq!(t.max_size(), 0);

        t.record_cut(1, FlushCause::Size);
        t.record_cut(2, FlushCause::Timer);
        t.record_cut(2, FlushCause::Timer);
        t.record_cut(8, FlushCause::Forced);
        assert_eq!(t.batches(), 4);
        assert_eq!(t.cut_by_size, 1);
        assert_eq!(t.cut_by_timer, 2);
        assert_eq!(t.cut_forced, 1);
        assert!((t.mean_size() - 13.0 / 4.0).abs() < 1e-12);
        assert_eq!(t.p50_size(), 2);
        assert_eq!(t.max_size(), 8);
    }

    #[test]
    fn batch_telemetry_single_cut_percentiles_collapse() {
        let mut t = BatchTelemetry::default();
        t.record_cut(5, FlushCause::Timer);
        assert_eq!(t.batches(), 1);
        assert_eq!(t.p50_size(), 5);
        assert_eq!(t.max_size(), 5);
        assert!((t.mean_size() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn batch_telemetry_merge_into_empty_is_identity() {
        let mut empty = BatchTelemetry::default();
        let mut other = BatchTelemetry::default();
        other.record_cut(3, FlushCause::Size);
        empty.merge(&other);
        assert_eq!(empty.batches(), 1);
        assert_eq!(empty.p50_size(), 3);
        // Merging an empty telemetry in changes nothing.
        let before = empty.clone();
        empty.merge(&BatchTelemetry::default());
        assert_eq!(empty.batches(), before.batches());
        assert_eq!(empty.p50_size(), before.p50_size());
        assert_eq!(empty.max_size(), before.max_size());
    }

    #[test]
    fn batch_telemetry_merges_through_replica_metrics() {
        let mut a = ReplicaMetrics::default();
        a.batch.record_cut(4, FlushCause::Size);
        a.batch.stale_timer_fires = 2;
        let mut b = ReplicaMetrics::default();
        b.batch.record_cut(4, FlushCause::Size);
        b.batch.record_cut(1, FlushCause::Timer);
        a.merge(&b);
        assert_eq!(a.batch.batches(), 3);
        assert_eq!(a.batch.cut_by_size, 2);
        assert_eq!(a.batch.cut_by_timer, 1);
        assert_eq!(a.batch.stale_timer_fires, 2);
        assert_eq!(a.batch.max_size(), 4);
        assert_eq!(a.batch.p50_size(), 4);
    }
}
