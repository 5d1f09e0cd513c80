//! Request batching: the policy under which a primary accumulates pending
//! client requests and cuts them into [`Batch`]es for ordering.
//!
//! Batching is the standard throughput lever of leader-based replication:
//! each agreement slot pays one proposal broadcast, one round of votes and
//! one commit regardless of how many requests ride in the slot, so ordering
//! `k` requests per slot divides the per-request quorum cost by `k`.
//!
//! # The controller
//!
//! All buffering runs through one sans-IO controller, [`AdaptiveBatcher`],
//! which wraps the raw request buffer ([`BatchAccumulator`]) and executes a
//! [`crate::config::BatchPolicy`]:
//!
//! * **`BatchPolicy::Static`** — the classic two-knob policy
//!   ([`BatchConfig`]): a batch is cut as soon as `max_batch` requests are
//!   buffered (the size trigger) or `max_delay` after the first request
//!   entered an empty buffer (the latency trigger, implemented with the
//!   [`crate::actions::Timer::BatchFlush`] timer).
//! * **`BatchPolicy::Adaptive`** — an AIMD controller
//!   ([`AdaptiveBatchConfig`]) that tunes the *effective* size cap from
//!   observed load instead of trusting a hand-picked constant. The load
//!   signal is in-flight slot occupancy (slots proposed but not yet
//!   executed, supplied by the owning replica at each cut): a size-triggered
//!   cut while earlier slots are still in flight means the system is
//!   saturated, so the cap grows additively (up to `ceiling`); a
//!   timer-triggered cut of a half-empty buffer with nothing in flight means
//!   the system is idle, so the cap halves (multiplicative decrease, down to
//!   1); a long arrival gap also decays the cap toward 1. The effective
//!   flush delay shrinks as the cap grows — under load a partial batch fills
//!   quickly anyway, so waiting the full `max_delay` would only add latency
//!   — but never exceeds `max_delay`, which stays the hard bound on how long
//!   any buffered request can wait.
//!
//! With an effective cap of 1 every request is proposed immediately and the
//! timer is never armed, reproducing unbatched, one-request-per-slot
//! agreement exactly. All three SeeMoRe modes and both baselines own the
//! same controller so their comparison stays apples-to-apples.
//!
//! # Timer identity
//!
//! The flush timer is **generation-tagged**: every arming produces a new
//! `Timer::BatchFlush { generation }` value, and a cut or drain invalidates
//! the armed generation (and emits a `CancelTimer` for it). A timer
//! expiration is only honoured when its generation matches the currently
//! armed one, so a stale timer — one that was armed for a buffer that has
//! since been cut by the size trigger — can never fire into the *next*
//! buffer and truncate its `max_delay`. This makes stale flushes a
//! type-level impossibility instead of a substrate race.
//!
//! # Invariants
//!
//! * Every cut batch holds between 1 and `ceiling` (or `max_batch`)
//!   requests.
//! * The flush timer is armed only when `effective_delay() > 0`; a policy
//!   with `max_delay == 0` and a cap above 1 proposes every request
//!   immediately instead of arming a degenerate zero-delay timer per
//!   request.
//! * Whenever the buffer is non-empty, a flush timer with delay at most
//!   `max_delay` is armed, so no request waits longer than `max_delay`
//!   before its batch is proposed.

use crate::actions::{Action, Timer};
use crate::config::BatchPolicy;
use crate::metrics::ReplicaMetrics;
use seemore_types::{Duration, Instant, RequestId};
use seemore_wire::{Batch, ClientRequest};
use std::collections::HashSet;

/// The two static batching knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum requests per batch; a full buffer flushes immediately.
    pub max_batch: usize,
    /// Maximum time the first buffered request may wait before the buffer is
    /// flushed regardless of its size. A zero delay with `max_batch > 1`
    /// degenerates to immediate per-request proposal (no timer is armed).
    pub max_delay: Duration,
}

impl BatchConfig {
    /// Batching disabled: every request is proposed on arrival in its own
    /// slot (`max_batch = 1`), bit-for-bit reproducing unbatched agreement.
    pub fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }

    /// A batching policy with the given size cap and flush delay.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        BatchConfig {
            max_batch: max_batch.max(1),
            max_delay,
        }
    }

    /// Whether this policy ever buffers: it takes both a cap above 1 and a
    /// non-zero delay (a zero delay proposes immediately, see the module
    /// invariants).
    pub fn is_batching(&self) -> bool {
        self.max_batch > 1 && self.max_delay > Duration::ZERO
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::disabled()
    }
}

/// Configuration of the adaptive (AIMD) batch-size controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveBatchConfig {
    /// Upper bound on the effective batch-size cap the controller may grow
    /// to. The controller starts at 1 and never exceeds this.
    pub ceiling: usize,
    /// Hard bound on how long a buffered request may wait before its batch
    /// is proposed; the effective flush delay adapts within `(0, max_delay]`.
    pub max_delay: Duration,
}

impl AdaptiveBatchConfig {
    /// An adaptive policy growing up to `ceiling` requests per batch with
    /// flush delays bounded by `max_delay`.
    pub fn new(ceiling: usize, max_delay: Duration) -> Self {
        AdaptiveBatchConfig {
            ceiling: ceiling.max(1),
            max_delay,
        }
    }
}

/// Why a batch left the buffer (recorded in
/// [`BatchTelemetry`](crate::metrics::BatchTelemetry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// The buffer reached the effective size cap.
    Size,
    /// The flush timer expired on a partial buffer.
    Timer,
    /// The owner forced the buffer out (e.g. when installing a new view,
    /// where recovery should not wait out the flush delay).
    Forced,
}

/// The raw request buffer: arrival order plus duplicate suppression.
///
/// The accumulator holds mechanics only; *when* to cut is decided by the
/// [`AdaptiveBatcher`] wrapping it.
#[derive(Debug, Default)]
pub struct BatchAccumulator {
    buffer: Vec<ClientRequest>,
    buffered_ids: HashSet<RequestId>,
}

impl BatchAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        BatchAccumulator::default()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Number of buffered requests.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether a request with `id` is currently buffered.
    pub fn contains(&self, id: RequestId) -> bool {
        self.buffered_ids.contains(&id)
    }

    /// Appends a request in arrival order; returns `false` (and buffers
    /// nothing) if it is already buffered.
    pub fn insert(&mut self, request: ClientRequest) -> bool {
        if !self.buffered_ids.insert(request.id()) {
            return false;
        }
        self.buffer.push(request);
        true
    }

    /// Cuts the current buffer into a batch, or `None` if nothing is
    /// buffered.
    pub fn take_batch(&mut self) -> Option<Batch> {
        if self.buffer.is_empty() {
            return None;
        }
        self.buffered_ids.clear();
        Some(Batch::new(std::mem::take(&mut self.buffer)))
    }

    /// Drains the buffer as raw requests without forming a batch (used when
    /// a view change deposes the buffering primary and the requests must be
    /// re-routed instead of proposed).
    pub fn drain(&mut self) -> Vec<ClientRequest> {
        self.buffered_ids.clear();
        std::mem::take(&mut self.buffer)
    }
}

/// An arrival gap of this many `max_delay` windows counts as idle and decays
/// the adaptive cap toward 1.
const IDLE_DECAY_WINDOWS: u64 = 8;

/// The effective flush delay shrinks linearly from `max_delay` (cap 1) down
/// to `max_delay / DELAY_FLOOR_DIV` (cap at the ceiling).
const DELAY_FLOOR_DIV: u64 = 4;

/// The batching controller owned by every primary-capable protocol core.
///
/// Wraps a [`BatchAccumulator`] and executes a [`BatchPolicy`]: it decides
/// when a buffer is cut (size trigger, generation-tagged flush timer, forced
/// flush), arms and cancels the flush timer through the owner's `Action`
/// vector, records [chosen-size telemetry](crate::metrics::BatchTelemetry),
/// and — under the adaptive policy — tunes the effective size cap and flush
/// delay from observed load. See the [module docs](self) for the control
/// law.
#[derive(Debug)]
pub struct AdaptiveBatcher {
    policy: BatchPolicy,
    acc: BatchAccumulator,
    /// Effective size cap, in `[1, ceiling]` (fixed at `max_batch` for the
    /// static policy).
    cap: usize,
    /// Generation of the most recently armed flush timer; monotonically
    /// increasing, so every arming produces a distinct timer identity.
    generation: u64,
    /// Generation of the currently armed flush timer, if any.
    armed: Option<u64>,
    /// When the most recent request entered the buffer (drives idle decay).
    last_arrival: Option<Instant>,
}

impl AdaptiveBatcher {
    /// Creates a controller executing `policy` over an empty buffer.
    pub fn new(policy: BatchPolicy) -> Self {
        let cap = match policy {
            BatchPolicy::Static(config) => config.max_batch.max(1),
            // The adaptive controller starts unbatched and must earn its
            // batch size from observed load.
            BatchPolicy::Adaptive(_) => 1,
        };
        AdaptiveBatcher {
            policy,
            acc: BatchAccumulator::new(),
            cap,
            generation: 0,
            armed: None,
            last_arrival: None,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The current effective size cap (always within `[1, ceiling]`).
    pub fn effective_cap(&self) -> usize {
        self.cap
    }

    /// The largest cap the policy allows.
    pub fn ceiling(&self) -> usize {
        match self.policy {
            BatchPolicy::Static(config) => config.max_batch.max(1),
            BatchPolicy::Adaptive(config) => config.ceiling.max(1),
        }
    }

    /// The hard bound on how long a buffered request may wait.
    pub fn max_delay(&self) -> Duration {
        match self.policy {
            BatchPolicy::Static(config) => config.max_delay,
            BatchPolicy::Adaptive(config) => config.max_delay,
        }
    }

    /// The delay the next flush timer will be armed with: `max_delay` for
    /// the static policy, and for the adaptive policy a value that shrinks
    /// linearly from `max_delay` (cap 1) to `max_delay / 4` (cap at the
    /// ceiling) — never more than `max_delay`.
    pub fn effective_delay(&self) -> Duration {
        match self.policy {
            BatchPolicy::Static(config) => config.max_delay,
            BatchPolicy::Adaptive(config) => {
                let ceiling = config.ceiling.max(1);
                if ceiling <= 1 || self.cap <= 1 {
                    return config.max_delay;
                }
                let full = config.max_delay.as_nanos();
                let floor = full / DELAY_FLOOR_DIV;
                let shrink = (full - floor) * (self.cap as u64 - 1) / (ceiling as u64 - 1);
                Duration::from_nanos(full - shrink)
            }
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Number of buffered requests.
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// Whether a request with `id` is currently buffered.
    pub fn contains(&self, id: RequestId) -> bool {
        self.acc.contains(id)
    }

    /// Whether `generation` names the currently armed flush timer. A firing
    /// of any other generation is stale and must be ignored.
    pub fn timer_is_current(&self, generation: u64) -> bool {
        self.armed == Some(generation)
    }

    /// Offers a request to the buffer. Returns the batch to propose if a cut
    /// is due (buffer reached the effective cap, or the policy never waits);
    /// otherwise buffers the request and — when it starts a fresh buffer —
    /// arms the generation-tagged flush timer through `actions`.
    ///
    /// `in_flight` is the owner's count of slots proposed but not yet
    /// executed: the load signal the adaptive policy grows on.
    pub fn offer(
        &mut self,
        request: ClientRequest,
        now: Instant,
        in_flight: u64,
        actions: &mut Vec<Action>,
        metrics: &mut ReplicaMetrics,
    ) -> Option<Batch> {
        self.decay_if_idle(now);
        if !self.acc.insert(request) {
            return None;
        }
        self.last_arrival = Some(now);
        if self.acc.len() >= self.cap || self.effective_delay() == Duration::ZERO {
            return Some(self.cut(FlushCause::Size, in_flight, actions, metrics));
        }
        if self.acc.len() == 1 {
            self.arm(actions);
        }
        None
    }

    /// The flush timer of `generation` fired. Returns the partial batch to
    /// propose if the generation is current and the buffer is non-empty;
    /// stale generations are counted and ignored.
    pub fn on_flush_timer(
        &mut self,
        generation: u64,
        in_flight: u64,
        metrics: &mut ReplicaMetrics,
    ) -> Option<Batch> {
        if !self.timer_is_current(generation) {
            metrics.batch.stale_timer_fires += 1;
            return None;
        }
        self.armed = None;
        let batch = self.acc.take_batch()?;
        metrics.batch.record_cut(batch.len(), FlushCause::Timer);
        self.adapt(batch.len(), FlushCause::Timer, in_flight);
        Some(batch)
    }

    /// Forces out the buffer regardless of the triggers (used when a new
    /// view is installed, where recovery should not wait out the delay).
    /// Cancels the armed flush timer. Forced cuts do not feed the adaptive
    /// control law: they say nothing about steady-state load.
    pub fn flush(
        &mut self,
        actions: &mut Vec<Action>,
        metrics: &mut ReplicaMetrics,
    ) -> Option<Batch> {
        self.disarm(actions);
        let batch = self.acc.take_batch()?;
        metrics.batch.record_cut(batch.len(), FlushCause::Forced);
        Some(batch)
    }

    /// Drains the buffer as raw requests without forming a batch (a deposed
    /// primary re-routes them instead of proposing). Cancels the armed flush
    /// timer.
    pub fn drain(&mut self, actions: &mut Vec<Action>) -> Vec<ClientRequest> {
        self.disarm(actions);
        self.acc.drain()
    }

    /// Cuts the buffer, cancelling the armed timer and feeding the control
    /// law.
    fn cut(
        &mut self,
        cause: FlushCause,
        in_flight: u64,
        actions: &mut Vec<Action>,
        metrics: &mut ReplicaMetrics,
    ) -> Batch {
        self.disarm(actions);
        let batch = self.acc.take_batch().expect("cut of a non-empty buffer");
        metrics.batch.record_cut(batch.len(), cause);
        self.adapt(batch.len(), cause, in_flight);
        batch
    }

    /// Arms a fresh flush timer: a new generation, the current effective
    /// delay.
    fn arm(&mut self, actions: &mut Vec<Action>) {
        self.generation += 1;
        self.armed = Some(self.generation);
        actions.push(Action::SetTimer {
            timer: Timer::BatchFlush {
                generation: self.generation,
            },
            after: self.effective_delay(),
        });
    }

    /// Invalidates (and cancels) the armed flush timer, if any. After this,
    /// a firing of the old generation is provably stale.
    fn disarm(&mut self, actions: &mut Vec<Action>) {
        if let Some(generation) = self.armed.take() {
            actions.push(Action::CancelTimer {
                timer: Timer::BatchFlush { generation },
            });
        }
    }

    /// The AIMD control law (adaptive policy only); see the module docs.
    fn adapt(&mut self, len: usize, cause: FlushCause, in_flight: u64) {
        let BatchPolicy::Adaptive(config) = self.policy else {
            return;
        };
        let ceiling = config.ceiling.max(1);
        match cause {
            // Additive increase: the buffer filled while earlier slots were
            // still in flight — the system is saturated, bigger batches
            // amortize better.
            FlushCause::Size if in_flight > 0 => self.cap = (self.cap + 1).min(ceiling),
            // Multiplicative decrease: the timer cut a half-empty buffer
            // with nothing in flight — the load does not sustain the cap.
            FlushCause::Timer if in_flight == 0 && len.saturating_mul(2) <= self.cap => {
                self.cap = (self.cap / 2).max(1);
            }
            FlushCause::Size | FlushCause::Timer | FlushCause::Forced => {}
        }
    }

    /// Decays the adaptive cap toward 1 after long arrival gaps (one halving
    /// per `IDLE_DECAY_WINDOWS × max_delay` of silence).
    fn decay_if_idle(&mut self, now: Instant) {
        let BatchPolicy::Adaptive(config) = self.policy else {
            return;
        };
        let (Some(last), true) = (self.last_arrival, config.max_delay > Duration::ZERO) else {
            return;
        };
        let window = config.max_delay.mul(IDLE_DECAY_WINDOWS);
        let mut gaps = now.duration_since(last).as_nanos() / window.as_nanos().max(1);
        while gaps > 0 && self.cap > 1 {
            self.cap /= 2;
            gaps -= 1;
        }
        self.cap = self.cap.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_crypto::KeyStore;
    use seemore_types::{ClientId, NodeId, Timestamp};

    fn request(ks: &KeyStore, client: u64, ts: u64) -> ClientRequest {
        let signer = ks.signer_for(NodeId::Client(ClientId(client))).unwrap();
        ClientRequest::new(ClientId(client), Timestamp(ts), b"op".to_vec(), &signer)
    }

    fn keystore() -> KeyStore {
        KeyStore::generate(1, 1, 64)
    }

    fn static_batcher(max_batch: usize, delay: Duration) -> AdaptiveBatcher {
        AdaptiveBatcher::new(BatchPolicy::Static(BatchConfig::new(max_batch, delay)))
    }

    fn adaptive_batcher(ceiling: usize, delay: Duration) -> AdaptiveBatcher {
        AdaptiveBatcher::new(BatchPolicy::Adaptive(AdaptiveBatchConfig::new(
            ceiling, delay,
        )))
    }

    /// The armed `SetTimer` generation in `actions`, if any.
    fn armed_generation(actions: &[Action]) -> Option<u64> {
        actions.iter().rev().find_map(|action| match action {
            Action::SetTimer {
                timer: Timer::BatchFlush { generation },
                ..
            } => Some(*generation),
            _ => None,
        })
    }

    #[test]
    fn disabled_policy_flushes_every_request_immediately() {
        let ks = keystore();
        let mut batcher = static_batcher(1, Duration::ZERO);
        let mut metrics = ReplicaMetrics::default();
        for ts in 1..=3 {
            let mut actions = Vec::new();
            let batch = batcher
                .offer(
                    request(&ks, 0, ts),
                    Instant::ZERO,
                    0,
                    &mut actions,
                    &mut metrics,
                )
                .expect("immediate flush");
            assert_eq!(batch.len(), 1);
            assert!(actions.is_empty(), "no timer traffic when unbatched");
        }
        assert!(batcher.is_empty());
        assert_eq!(metrics.batch.cut_by_size, 3);
    }

    #[test]
    fn size_trigger_cuts_full_batches_in_arrival_order_and_disarms() {
        let ks = keystore();
        let mut batcher = static_batcher(3, Duration::from_millis(5));
        let mut metrics = ReplicaMetrics::default();
        let mut actions = Vec::new();
        assert!(batcher
            .offer(
                request(&ks, 0, 1),
                Instant::ZERO,
                0,
                &mut actions,
                &mut metrics
            )
            .is_none());
        let stale = armed_generation(&actions).expect("first buffered request arms the timer");
        assert!(batcher
            .offer(
                request(&ks, 1, 1),
                Instant::ZERO,
                0,
                &mut actions,
                &mut metrics
            )
            .is_none());
        assert_eq!(batcher.len(), 2);

        let mut cut_actions = Vec::new();
        let batch = batcher
            .offer(
                request(&ks, 2, 1),
                Instant::ZERO,
                0,
                &mut cut_actions,
                &mut metrics,
            )
            .expect("size trigger");
        let clients: Vec<u64> = batch.requests().iter().map(|r| r.client().0).collect();
        assert_eq!(clients, vec![0, 1, 2], "arrival order preserved");
        assert!(batcher.is_empty());
        // The size cut cancelled the armed timer and invalidated its
        // generation: the stale firing is a no-op.
        assert!(cut_actions.iter().any(|a| matches!(
            a,
            Action::CancelTimer { timer: Timer::BatchFlush { generation } } if *generation == stale
        )));
        assert!(!batcher.timer_is_current(stale));
        assert!(batcher.on_flush_timer(stale, 0, &mut metrics).is_none());
        assert_eq!(metrics.batch.stale_timer_fires, 1);

        // The next request starts a fresh buffer with a fresh generation.
        let mut fresh_actions = Vec::new();
        assert!(batcher
            .offer(
                request(&ks, 3, 1),
                Instant::ZERO,
                0,
                &mut fresh_actions,
                &mut metrics
            )
            .is_none());
        let fresh = armed_generation(&fresh_actions).expect("re-armed");
        assert_ne!(fresh, stale, "every arming gets a new generation");
        assert!(batcher.timer_is_current(fresh));
    }

    #[test]
    fn stale_timer_does_not_cut_the_next_buffer() {
        // The regression the generation tag exists for: fill to the cap,
        // refill one request, fire the *old* timer — the new buffer must
        // survive and wait out its own timer.
        let ks = keystore();
        let mut batcher = static_batcher(2, Duration::from_millis(5));
        let mut metrics = ReplicaMetrics::default();
        let mut actions = Vec::new();
        batcher.offer(
            request(&ks, 0, 1),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        let stale = armed_generation(&actions).unwrap();
        assert!(batcher
            .offer(
                request(&ks, 1, 1),
                Instant::ZERO,
                0,
                &mut actions,
                &mut metrics
            )
            .is_some());

        let mut actions = Vec::new();
        batcher.offer(
            request(&ks, 2, 1),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        assert_eq!(batcher.len(), 1);
        assert!(
            batcher.on_flush_timer(stale, 0, &mut metrics).is_none(),
            "stale timer must not cut the second buffer"
        );
        assert_eq!(batcher.len(), 1, "second buffer intact");
        let fresh = armed_generation(&actions).unwrap();
        let batch = batcher
            .on_flush_timer(fresh, 0, &mut metrics)
            .expect("current timer cuts");
        assert_eq!(batch.len(), 1);
        assert_eq!(metrics.batch.cut_by_timer, 1);
    }

    #[test]
    fn zero_delay_with_large_cap_proposes_immediately_without_timers() {
        let ks = keystore();
        let mut batcher = static_batcher(8, Duration::ZERO);
        let mut metrics = ReplicaMetrics::default();
        for ts in 1..=3 {
            let mut actions = Vec::new();
            let batch = batcher
                .offer(
                    request(&ks, 0, ts),
                    Instant::ZERO,
                    0,
                    &mut actions,
                    &mut metrics,
                )
                .expect("zero delay means no waiting");
            assert_eq!(batch.len(), 1);
            assert!(
                actions.is_empty(),
                "a zero-delay policy must never arm a flush timer"
            );
        }
        assert!(!BatchConfig::new(8, Duration::ZERO).is_batching());
    }

    #[test]
    fn duplicates_are_rejected_while_buffered() {
        let ks = keystore();
        let mut batcher = static_batcher(8, Duration::from_millis(5));
        let mut metrics = ReplicaMetrics::default();
        let mut actions = Vec::new();
        let r = request(&ks, 0, 1);
        assert!(batcher
            .offer(r.clone(), Instant::ZERO, 0, &mut actions, &mut metrics)
            .is_none());
        assert!(batcher
            .offer(r.clone(), Instant::ZERO, 0, &mut actions, &mut metrics)
            .is_none());
        assert_eq!(batcher.len(), 1);
        assert!(batcher.contains(r.id()));
        // Only the first offer armed a timer.
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::SetTimer { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn flush_and_drain_empty_the_buffer_and_cancel_the_timer() {
        let ks = keystore();
        let mut batcher = static_batcher(8, Duration::from_millis(5));
        let mut metrics = ReplicaMetrics::default();
        let mut actions = Vec::new();
        assert!(batcher.flush(&mut actions, &mut metrics).is_none());
        batcher.offer(
            request(&ks, 0, 1),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        batcher.offer(
            request(&ks, 1, 1),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        let armed = armed_generation(&actions).unwrap();

        let mut flush_actions = Vec::new();
        let batch = batcher.flush(&mut flush_actions, &mut metrics).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batcher.is_empty());
        assert!(flush_actions
            .iter()
            .any(|a| matches!(a, Action::CancelTimer { timer: Timer::BatchFlush { generation } } if *generation == armed)));
        assert_eq!(metrics.batch.cut_forced, 1);

        let mut actions = Vec::new();
        batcher.offer(
            request(&ks, 2, 2),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        let drained = batcher.drain(&mut actions);
        assert_eq!(drained.len(), 1);
        assert!(batcher.is_empty());
        assert!(!batcher.contains(drained[0].id()));
    }

    #[test]
    fn adaptive_cap_grows_under_load_and_stays_below_the_ceiling() {
        let ks = keystore();
        let mut batcher = adaptive_batcher(4, Duration::from_micros(100));
        let mut metrics = ReplicaMetrics::default();
        assert_eq!(batcher.effective_cap(), 1, "adaptive starts unbatched");
        let mut ts = 0u64;
        // Sustained load: every size cut happens with slots in flight.
        for _ in 0..64 {
            let mut actions = Vec::new();
            loop {
                ts += 1;
                if batcher
                    .offer(
                        request(&ks, 0, ts),
                        Instant::ZERO,
                        3,
                        &mut actions,
                        &mut metrics,
                    )
                    .is_some()
                {
                    break;
                }
            }
            assert!(batcher.effective_cap() <= 4, "cap within ceiling");
        }
        assert_eq!(batcher.effective_cap(), 4, "cap reached the ceiling");
        assert!(batcher.effective_delay() <= batcher.max_delay());
        assert_eq!(
            batcher.effective_delay(),
            Duration::from_micros(25),
            "delay shrank to the floor at the ceiling"
        );
    }

    #[test]
    fn adaptive_cap_decays_on_idle_timer_cuts_and_arrival_gaps() {
        let ks = keystore();
        let mut batcher = adaptive_batcher(16, Duration::from_micros(100));
        let mut metrics = ReplicaMetrics::default();
        // Grow to the ceiling first.
        let mut ts = 0u64;
        for _ in 0..64 {
            let mut actions = Vec::new();
            loop {
                ts += 1;
                if batcher
                    .offer(
                        request(&ks, 0, ts),
                        Instant::ZERO,
                        1,
                        &mut actions,
                        &mut metrics,
                    )
                    .is_some()
                {
                    break;
                }
            }
        }
        assert_eq!(batcher.effective_cap(), 16);

        // A timer cut of a half-empty buffer with nothing in flight halves.
        let mut actions = Vec::new();
        ts += 1;
        batcher.offer(
            request(&ks, 0, ts),
            Instant::ZERO,
            0,
            &mut actions,
            &mut metrics,
        );
        let gen = armed_generation(&actions).unwrap();
        assert!(batcher.on_flush_timer(gen, 0, &mut metrics).is_some());
        assert_eq!(batcher.effective_cap(), 8);

        // A long arrival gap decays further (one halving per idle window).
        let mut actions = Vec::new();
        ts += 1;
        let much_later = Instant::ZERO + Duration::from_micros(100).mul(IDLE_DECAY_WINDOWS);
        batcher.offer(
            request(&ks, 0, ts),
            much_later,
            0,
            &mut actions,
            &mut metrics,
        );
        assert_eq!(batcher.effective_cap(), 4);
        let far_future = much_later + Duration::from_secs(10);
        let mut actions = Vec::new();
        ts += 1;
        batcher.offer(
            request(&ks, 0, ts),
            far_future,
            0,
            &mut actions,
            &mut metrics,
        );
        assert_eq!(batcher.effective_cap(), 1, "decays all the way to 1");
    }

    #[test]
    fn static_policy_never_adapts() {
        let ks = keystore();
        let mut batcher = static_batcher(4, Duration::from_micros(100));
        let mut metrics = ReplicaMetrics::default();
        let mut ts = 0u64;
        for _ in 0..16 {
            let mut actions = Vec::new();
            loop {
                ts += 1;
                if batcher
                    .offer(
                        request(&ks, 0, ts),
                        Instant::ZERO,
                        9,
                        &mut actions,
                        &mut metrics,
                    )
                    .is_some()
                {
                    break;
                }
            }
            assert_eq!(batcher.effective_cap(), 4, "static cap is fixed");
            assert_eq!(batcher.effective_delay(), Duration::from_micros(100));
        }
    }

    #[test]
    fn config_clamps_and_classifies() {
        assert_eq!(BatchConfig::new(0, Duration::ZERO).max_batch, 1);
        assert!(!BatchConfig::disabled().is_batching());
        assert!(BatchConfig::new(2, Duration::from_micros(50)).is_batching());
        assert!(!BatchConfig::new(2, Duration::ZERO).is_batching());
        assert_eq!(BatchConfig::default(), BatchConfig::disabled());
        assert_eq!(AdaptiveBatchConfig::new(0, Duration::ZERO).ceiling, 1);
    }

    use proptest::prelude::*;
    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Property: under arbitrary arrival/firing schedules the controller
        /// keeps every cut batch within `[1, ceiling]`, keeps the cap within
        /// `[1, ceiling]`, never arms a timer for longer than `max_delay`,
        /// and always has a timer armed while requests are buffered (the
        /// wait-bound invariant).
        #[test]
        fn adaptive_controller_invariants_under_random_schedules(
                seed in 0u64..1_000_000,
                ceiling in 1usize..32,
                delay_us in 1u64..500,
                steps in 32usize..160,
            ) {
                let ks = KeyStore::generate(seed, 1, 4);
                let max_delay = Duration::from_micros(delay_us);
                let mut batcher = adaptive_batcher(ceiling, max_delay);
                let mut metrics = ReplicaMetrics::default();
                let mut now = Instant::ZERO;
                let mut armed: Option<u64> = None;
                let mut rng = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                let mut next = || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                let mut ts = 0u64;
                for _ in 0..steps {
                    let roll = next() % 100;
                    now = now + Duration::from_nanos(next() % (max_delay.as_nanos() * 2 + 1));
                    let in_flight = next() % 4;
                    let mut actions = Vec::new();
                    let cut = if roll < 70 {
                        ts += 1;
                        batcher.offer(
                            request(&ks, next() % 4, ts),
                            now,
                            in_flight,
                            &mut actions,
                            &mut metrics,
                        )
                    } else if roll < 90 {
                        // Fire whatever timer the harness believes is armed
                        // (possibly stale from the controller's view).
                        armed
                            .take()
                            .and_then(|g| batcher.on_flush_timer(g, in_flight, &mut metrics))
                    } else {
                        batcher.flush(&mut actions, &mut metrics)
                    };
                    for action in &actions {
                        match action {
                            Action::SetTimer {
                                timer: Timer::BatchFlush { generation },
                                after,
                            } => {
                                prop_assert!(
                                    *after <= max_delay,
                                    "armed delay {after} exceeds the bound {max_delay}"
                                );
                                armed = Some(*generation);
                            }
                            Action::CancelTimer {
                                timer: Timer::BatchFlush { generation },
                            } if armed == Some(*generation) => {
                                armed = None;
                            }
                            _ => {}
                        }
                    }
                    if let Some(batch) = cut {
                        prop_assert!(!batch.is_empty());
                        prop_assert!(
                            batch.len() <= ceiling,
                            "batch of {} exceeds ceiling {ceiling}",
                            batch.len()
                        );
                    }
                    prop_assert!(batcher.effective_cap() >= 1);
                    prop_assert!(batcher.effective_cap() <= ceiling);
                    prop_assert!(batcher.effective_delay() <= max_delay);
                    // Wait-bound invariant: a non-empty buffer always has an
                    // armed flush timer (with delay <= max_delay, asserted
                    // above), so no request can wait unboundedly.
                    if !batcher.is_empty() {
                        prop_assert!(
                            armed.is_some_and(|g| batcher.timer_is_current(g)),
                            "non-empty buffer without a current flush timer"
                        );
                    }
                }
                let _ = metrics;
        }
    }
}
