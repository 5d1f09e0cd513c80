//! Tunable protocol parameters (timeouts, checkpoint period, window sizes,
//! batching policy).

use crate::batching::{AdaptiveBatchConfig, BatchConfig};
use seemore_types::Duration;

/// How a primary batches client requests into agreement slots (executed by
/// [`AdaptiveBatcher`](crate::batching::AdaptiveBatcher)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// The classic fixed knobs: cut at `max_batch` requests or after
    /// `max_delay`, whichever comes first.
    Static(BatchConfig),
    /// The AIMD controller: the effective cap grows toward `ceiling` under
    /// load and decays toward 1 when idle, with the flush delay adapting
    /// within `(0, max_delay]`. See the [`batching`](crate::batching) module
    /// docs for the control law.
    Adaptive(AdaptiveBatchConfig),
}

impl BatchPolicy {
    /// Batching disabled: every request is proposed on arrival in its own
    /// slot, bit-for-bit reproducing unbatched agreement.
    pub fn disabled() -> Self {
        BatchPolicy::Static(BatchConfig::disabled())
    }

    /// A static policy with the given size cap and flush delay.
    pub fn fixed(max_batch: usize, max_delay: Duration) -> Self {
        BatchPolicy::Static(BatchConfig::new(max_batch, max_delay))
    }

    /// An adaptive policy growing up to `ceiling` with flush delays bounded
    /// by `max_delay`.
    pub fn adaptive(ceiling: usize, max_delay: Duration) -> Self {
        BatchPolicy::Adaptive(AdaptiveBatchConfig::new(ceiling, max_delay))
    }

    /// The largest batch this policy may ever cut.
    pub fn ceiling(&self) -> usize {
        match self {
            BatchPolicy::Static(config) => config.max_batch.max(1),
            BatchPolicy::Adaptive(config) => config.ceiling.max(1),
        }
    }

    /// The hard bound on how long a buffered request may wait before its
    /// batch is proposed.
    pub fn max_delay(&self) -> Duration {
        match self {
            BatchPolicy::Static(config) => config.max_delay,
            BatchPolicy::Adaptive(config) => config.max_delay,
        }
    }

    /// Whether this policy can ever buffer a request (a ceiling above 1 and
    /// a non-zero delay; anything else proposes immediately).
    pub fn is_batching(&self) -> bool {
        self.ceiling() > 1 && self.max_delay() > Duration::ZERO
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy::disabled()
    }
}

impl From<BatchConfig> for BatchPolicy {
    fn from(config: BatchConfig) -> Self {
        BatchPolicy::Static(config)
    }
}

impl From<AdaptiveBatchConfig> for BatchPolicy {
    fn from(config: AdaptiveBatchConfig) -> Self {
        BatchPolicy::Adaptive(config)
    }
}

/// Parameters governing a replica's behaviour that are not part of the
/// cluster topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// A checkpoint is produced whenever the executed sequence number is
    /// divisible by this period (the paper's evaluation uses 10 000).
    pub checkpoint_period: u64,
    /// Size of the sequence-number window above the last stable checkpoint
    /// within which proposals are accepted (PBFT's high-water mark).
    pub high_water_mark: u64,
    /// The progress timeout `τ`: how long a backup waits between learning of
    /// a proposal and seeing it commit before suspecting the primary.
    pub request_timeout: Duration,
    /// How long a replica waits for a `NEW-VIEW` after sending a
    /// `VIEW-CHANGE` before escalating to the next view.
    pub view_change_timeout: Duration,
    /// Client-side retransmission timeout (the paper's "preset time").
    pub client_timeout: Duration,
    /// The primary's request-batching policy. Defaults to disabled (a static
    /// `max_batch = 1`), which reproduces unbatched one-request-per-slot
    /// agreement exactly.
    pub batch: BatchPolicy,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            checkpoint_period: 128,
            high_water_mark: 512,
            request_timeout: Duration::from_millis(200),
            view_change_timeout: Duration::from_millis(400),
            client_timeout: Duration::from_millis(500),
            batch: BatchPolicy::disabled(),
        }
    }
}

impl ProtocolConfig {
    /// The configuration used by the view-change experiment of the paper's
    /// evaluation (Section 6.3): a checkpoint every 10 000 requests.
    pub fn paper_evaluation() -> Self {
        ProtocolConfig {
            checkpoint_period: 10_000,
            high_water_mark: 40_000,
            ..Self::default()
        }
    }

    /// A configuration with a small checkpoint period, convenient for tests
    /// that want to exercise garbage collection quickly.
    pub fn with_checkpoint_period(period: u64) -> Self {
        ProtocolConfig {
            checkpoint_period: period,
            high_water_mark: period.saturating_mul(4).max(16),
            ..Self::default()
        }
    }

    /// The same configuration with a static batching policy.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = BatchPolicy::Static(batch);
        self
    }

    /// The same configuration with an arbitrary batching policy (static or
    /// adaptive).
    pub fn with_batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let cfg = ProtocolConfig::default();
        assert!(cfg.high_water_mark >= cfg.checkpoint_period);
        assert!(cfg.view_change_timeout >= cfg.request_timeout);
    }

    #[test]
    fn paper_evaluation_matches_section_6_3() {
        let cfg = ProtocolConfig::paper_evaluation();
        assert_eq!(cfg.checkpoint_period, 10_000);
        assert!(cfg.high_water_mark >= cfg.checkpoint_period);
    }

    #[test]
    fn with_checkpoint_period_scales_window() {
        let cfg = ProtocolConfig::with_checkpoint_period(4);
        assert_eq!(cfg.checkpoint_period, 4);
        assert!(cfg.high_water_mark >= 16);
        let tiny = ProtocolConfig::with_checkpoint_period(1);
        assert!(tiny.high_water_mark >= 16);
    }

    #[test]
    fn batching_defaults_off_and_is_configurable() {
        assert!(!ProtocolConfig::default().batch.is_batching());
        let cfg = ProtocolConfig::default()
            .with_batching(BatchConfig::new(16, Duration::from_micros(100)));
        assert_eq!(cfg.batch.ceiling(), 16);
        assert!(
            cfg.batch.max_delay() < cfg.request_timeout,
            "flush must beat suspicion"
        );
        let adaptive = ProtocolConfig::default()
            .with_batch_policy(BatchPolicy::adaptive(64, Duration::from_micros(200)));
        assert!(adaptive.batch.is_batching());
        assert_eq!(adaptive.batch.ceiling(), 64);
    }

    #[test]
    fn policy_classification_and_conversions() {
        assert_eq!(BatchPolicy::default(), BatchPolicy::disabled());
        assert!(!BatchPolicy::disabled().is_batching());
        assert!(!BatchPolicy::fixed(8, Duration::ZERO).is_batching());
        assert!(BatchPolicy::fixed(8, Duration::from_micros(50)).is_batching());
        assert!(!BatchPolicy::adaptive(1, Duration::from_micros(50)).is_batching());
        assert!(BatchPolicy::adaptive(2, Duration::from_micros(50)).is_batching());
        assert_eq!(BatchPolicy::adaptive(0, Duration::ZERO).ceiling(), 1);
        let from_static: BatchPolicy = BatchConfig::new(4, Duration::from_micros(10)).into();
        assert_eq!(from_static.ceiling(), 4);
        let from_adaptive: BatchPolicy =
            AdaptiveBatchConfig::new(32, Duration::from_micros(10)).into();
        assert_eq!(from_adaptive.ceiling(), 32);
        assert_eq!(from_adaptive.max_delay(), Duration::from_micros(10));
    }
}
