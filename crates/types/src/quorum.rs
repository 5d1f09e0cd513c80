//! Quorum arithmetic for crash, Byzantine and hybrid failure models
//! (Section 3.2 of the paper).
//!
//! The paper derives the following minimum sizes:
//!
//! | Model | Quorum | Minimum network |
//! |-------|--------|-----------------|
//! | Crash (Paxos) | `c + 1` | `2c + 1` |
//! | Byzantine (PBFT) | `2m + 1` | `3m + 1` |
//! | Hybrid (SeeMoRe / UpRight) | `2m + c + 1` | `3m + 2c + 1` |
//!
//! In every model the network must be at least `f` larger than the quorum
//! (so that `f` simultaneously unresponsive replicas cannot block progress)
//! and any two quorums must intersect in at least `m + 1` replicas (so that
//! at least one non-faulty replica witnesses both).

/// Failure model a quorum system is designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureModel {
    /// Only benign crash failures (Paxos-style).
    Crash,
    /// Only Byzantine failures (PBFT-style); crash failures are counted as
    /// Byzantine.
    Byzantine,
    /// The paper's hybrid model: `c` crash failures in the private cloud and
    /// `m` Byzantine failures in the public cloud.
    Hybrid,
}

/// A complete description of a quorum system: how many replicas exist, how
/// many may fail in each class, and how large a quorum must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuorumSpec {
    /// Failure model this spec was derived for.
    pub model: FailureModel,
    /// Bound on crash failures tolerated.
    pub crash_bound: u32,
    /// Bound on Byzantine failures tolerated.
    pub byzantine_bound: u32,
    /// Total number of replicas participating in agreement.
    pub network_size: u32,
    /// Number of replicas that must be heard from before a decision.
    pub quorum_size: u32,
}

impl QuorumSpec {
    /// Minimum crash-fault-tolerant quorum system for `c` crash failures:
    /// network `2c + 1`, quorum `c + 1`.
    pub fn crash(c: u32) -> QuorumSpec {
        QuorumSpec {
            model: FailureModel::Crash,
            crash_bound: c,
            byzantine_bound: 0,
            network_size: 2 * c + 1,
            quorum_size: c + 1,
        }
    }

    /// Minimum Byzantine-fault-tolerant quorum system for `m` Byzantine
    /// failures: network `3m + 1`, quorum `2m + 1`.
    pub fn byzantine(m: u32) -> QuorumSpec {
        QuorumSpec {
            model: FailureModel::Byzantine,
            crash_bound: 0,
            byzantine_bound: m,
            network_size: 3 * m + 1,
            quorum_size: 2 * m + 1,
        }
    }

    /// Minimum hybrid quorum system for `c` crash and `m` Byzantine
    /// failures: network `3m + 2c + 1`, quorum `2m + c + 1` (Equation 1).
    pub fn hybrid(c: u32, m: u32) -> QuorumSpec {
        QuorumSpec {
            model: FailureModel::Hybrid,
            crash_bound: c,
            byzantine_bound: m,
            network_size: 3 * m + 2 * c + 1,
            quorum_size: 2 * m + c + 1,
        }
    }

    /// A quorum system over an explicitly given network size. The quorum is
    /// kept at the model minimum; `network_size` must be at least the model
    /// minimum for the spec to be [`valid`](Self::is_valid).
    pub fn with_network_size(self, network_size: u32) -> QuorumSpec {
        QuorumSpec {
            network_size,
            ..self
        }
    }

    /// Total number of failures of any kind tolerated.
    pub fn total_faults(&self) -> u32 {
        self.crash_bound + self.byzantine_bound
    }

    /// Size of the guaranteed intersection of any two quorums:
    /// `2 * quorum - network`.
    pub fn min_intersection(&self) -> i64 {
        2 * i64::from(self.quorum_size) - i64::from(self.network_size)
    }

    /// Whether the quorum system provides safety and liveness under its
    /// failure model:
    ///
    /// * any two quorums intersect in at least `m + 1` replicas (safety), and
    /// * a quorum can be formed from non-faulty replicas alone, i.e.
    ///   `network - (c + m) >= quorum` (liveness).
    pub fn is_valid(&self) -> bool {
        let intersection_ok = self.min_intersection() >= i64::from(self.byzantine_bound) + 1;
        let liveness_ok = self.network_size >= self.quorum_size + self.total_faults();
        let quorum_fits = self.quorum_size <= self.network_size;
        intersection_ok && liveness_ok && quorum_fits
    }

    /// Number of replies a client must collect before accepting a result.
    ///
    /// In a crash model one reply suffices; with Byzantine replicas the
    /// client needs `m + 1` matching replies so that at least one comes from
    /// a non-faulty replica.
    pub fn client_reply_quorum(&self) -> u32 {
        match self.model {
            FailureModel::Crash => 1,
            FailureModel::Byzantine | FailureModel::Hybrid => self.byzantine_bound + 1,
        }
    }
}

/// Returns the smallest quorum size that still guarantees an intersection of
/// at least `m + 1` replicas between any two quorums over a network of
/// `network_size` replicas.
///
/// Derived from `|Q| + |Q'| - N >= m + 1`, i.e. `|Q| >= (N + m + 1) / 2`
/// rounded up.
pub fn min_quorum_for_intersection(network_size: u32, byzantine_bound: u32) -> u32 {
    let needed = network_size + byzantine_bound + 1;
    needed.div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_spec_matches_paxos() {
        let q = QuorumSpec::crash(1);
        assert_eq!(q.network_size, 3);
        assert_eq!(q.quorum_size, 2);
        assert!(q.is_valid());
        assert_eq!(q.client_reply_quorum(), 1);

        let q = QuorumSpec::crash(2);
        assert_eq!(q.network_size, 5);
        assert_eq!(q.quorum_size, 3);
        assert!(q.is_valid());
    }

    #[test]
    fn byzantine_spec_matches_pbft() {
        let q = QuorumSpec::byzantine(1);
        assert_eq!(q.network_size, 4);
        assert_eq!(q.quorum_size, 3);
        assert!(q.is_valid());
        assert_eq!(q.client_reply_quorum(), 2);

        let q = QuorumSpec::byzantine(3);
        assert_eq!(q.network_size, 10);
        assert_eq!(q.quorum_size, 7);
        assert!(q.is_valid());
    }

    #[test]
    fn hybrid_spec_matches_equation_one() {
        // The worked sizes from the evaluation section (Fig. 2 captions).
        let q = QuorumSpec::hybrid(1, 1);
        assert_eq!(q.network_size, 6);
        assert_eq!(q.quorum_size, 4);
        assert!(q.is_valid());

        let q = QuorumSpec::hybrid(2, 2);
        assert_eq!(q.network_size, 11);
        assert_eq!(q.quorum_size, 7);

        let q = QuorumSpec::hybrid(1, 3);
        assert_eq!(q.network_size, 12);
        assert_eq!(q.quorum_size, 8);

        let q = QuorumSpec::hybrid(3, 1);
        assert_eq!(q.network_size, 10);
        assert_eq!(q.quorum_size, 6);
    }

    #[test]
    fn hybrid_intersection_contains_a_correct_replica() {
        for c in 0..5u32 {
            for m in 0..5u32 {
                let q = QuorumSpec::hybrid(c, m);
                assert!(
                    q.min_intersection() >= i64::from(m) + 1,
                    "c={c} m={m}: intersection {} < m+1",
                    q.min_intersection()
                );
                assert!(q.is_valid(), "c={c} m={m} should be valid");
            }
        }
    }

    #[test]
    fn undersized_network_is_invalid() {
        let q = QuorumSpec::hybrid(1, 1).with_network_size(5);
        assert!(!q.is_valid());
    }

    #[test]
    fn oversized_network_keeps_liveness_but_checks_intersection() {
        // Growing the network without growing quorums weakens intersection;
        // is_valid must notice.
        let q = QuorumSpec::byzantine(1).with_network_size(6);
        assert!(!q.is_valid());
    }

    #[test]
    fn min_quorum_for_intersection_matches_closed_forms() {
        // Crash model: m = 0, N = 2c+1 -> quorum c+1.
        for c in 0..10u32 {
            assert_eq!(min_quorum_for_intersection(2 * c + 1, 0), c + 1);
        }
        // Byzantine model: N = 3m+1 -> quorum 2m+1.
        for m in 0..10u32 {
            assert_eq!(min_quorum_for_intersection(3 * m + 1, m), 2 * m + 1);
        }
        // Hybrid model: N = 3m+2c+1 -> quorum 2m+c+1.
        for c in 0..6u32 {
            for m in 0..6u32 {
                assert_eq!(
                    min_quorum_for_intersection(3 * m + 2 * c + 1, m),
                    2 * m + c + 1
                );
            }
        }
    }

    #[test]
    fn total_faults_sums_both_classes() {
        assert_eq!(QuorumSpec::hybrid(2, 3).total_faults(), 5);
        assert_eq!(QuorumSpec::crash(4).total_faults(), 4);
        assert_eq!(QuorumSpec::byzantine(4).total_faults(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// For every hybrid configuration the minimum network size derived in
        /// the paper yields quorums whose pairwise intersection contains at
        /// least one non-faulty replica, and progress is possible with all
        /// faulty replicas silent.
        #[test]
        fn hybrid_quorums_always_sound(c in 0u32..64, m in 0u32..64) {
            let q = QuorumSpec::hybrid(c, m);
            prop_assert!(q.is_valid());
            prop_assert!(q.min_intersection() >= i64::from(m) + 1);
            prop_assert!(q.network_size - q.total_faults() >= q.quorum_size);
        }

        /// Shrinking the network below the minimum always breaks validity.
        #[test]
        fn undersized_networks_rejected(c in 0u32..32, m in 0u32..32, shrink in 1u32..4) {
            let minimum = 3 * m + 2 * c + 1;
            prop_assume!(minimum > shrink);
            let q = QuorumSpec::hybrid(c, m).with_network_size(minimum - shrink);
            prop_assert!(!q.is_valid());
        }

        /// The generic intersection bound agrees with the closed-form quorum
        /// sizes used by the three failure models.
        #[test]
        fn intersection_bound_is_tight(c in 0u32..64, m in 0u32..64) {
            let n = 3 * m + 2 * c + 1;
            let q = min_quorum_for_intersection(n, m);
            prop_assert_eq!(q, 2 * m + c + 1);
            // One less than the bound must violate the m+1 intersection.
            if q > 0 {
                let intersection = 2 * i64::from(q - 1) - i64::from(n);
                prop_assert!(intersection < i64::from(m) + 1);
            }
        }
    }
}
