//! Cluster topology: which replicas are trusted, who is primary, which
//! public-cloud replicas act as proxies, and how large the quorums are in
//! each mode.
//!
//! The paper identifies replicas with integers in `[0, N-1]`; trusted
//! replicas of the private cloud occupy `[0, S-1]` and untrusted replicas of
//! the public cloud occupy `[S, N-1]` (Section 5). Primaries, proxies and
//! transferers are all deterministic functions of the view number and this
//! configuration, so every correct replica and client derives the same roles
//! locally without communication.

use crate::error::ConfigError;
use crate::id::{ReplicaId, View};
use crate::mode::Mode;
use crate::quorum::QuorumSpec;

/// Trust class of a replica, determined solely by which cloud hosts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trust {
    /// Hosted in the private cloud: may crash but never behaves maliciously.
    Trusted,
    /// Hosted in the public cloud: may behave arbitrarily (Byzantine).
    Untrusted,
}

/// Role a replica plays in a particular `(mode, view)` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaRole {
    /// The replica that orders requests in this view.
    Primary,
    /// A replica that participates in the agreement quorum.
    Active,
    /// A replica that is only informed of committed requests and does not
    /// vote in agreement (private-cloud backups in Dog/Peacock mode,
    /// non-proxy public replicas).
    Passive,
}

/// Failure bounds of the hybrid model: at most `c` crash failures in the
/// private cloud and at most `m` Byzantine failures in the public cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FailureBounds {
    /// Maximum number of crashed replicas tolerated in the private cloud.
    pub crash: u32,
    /// Maximum number of Byzantine replicas tolerated in the public cloud.
    pub byzantine: u32,
}

impl FailureBounds {
    /// Convenience constructor.
    pub fn new(crash: u32, byzantine: u32) -> Self {
        FailureBounds { crash, byzantine }
    }

    /// Total failures of any class, `f = c + m`.
    pub fn total(&self) -> u32 {
        self.crash + self.byzantine
    }
}

/// Static description of a hybrid-cloud cluster.
///
/// `private_size` (`S`) replicas are trusted, `public_size` (`P`) replicas
/// are untrusted, and the failure bounds `(c, m)` must be satisfiable by the
/// respective clouds. The minimum total size is `3m + 2c + 1` (Equation 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterConfig {
    private_size: u32,
    public_size: u32,
    bounds: FailureBounds,
}

impl ClusterConfig {
    /// Builds and validates a cluster configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the failure bounds exceed their cloud
    /// sizes, if the total network is smaller than `3m + 2c + 1`, or if the
    /// public cloud cannot host the `3m + 1` proxies required by the Dog and
    /// Peacock modes.
    pub fn new(
        private_size: u32,
        public_size: u32,
        bounds: FailureBounds,
    ) -> Result<Self, ConfigError> {
        if bounds.crash > private_size {
            return Err(ConfigError::CrashBoundExceedsPrivateCloud {
                private: private_size,
                crash_bound: bounds.crash,
            });
        }
        if bounds.byzantine > public_size {
            return Err(ConfigError::ByzantineBoundExceedsPublicCloud {
                public: public_size,
                byzantine_bound: bounds.byzantine,
            });
        }
        let required = 3 * bounds.byzantine + 2 * bounds.crash + 1;
        let actual = private_size + public_size;
        if actual < required {
            return Err(ConfigError::NetworkTooSmall { actual, required });
        }
        let proxies_required = 3 * bounds.byzantine + 1;
        if public_size < proxies_required {
            return Err(ConfigError::PublicCloudTooSmallForProxies {
                actual: public_size,
                required: proxies_required,
            });
        }
        Ok(ClusterConfig {
            private_size,
            public_size,
            bounds,
        })
    }

    /// The configuration used throughout the paper's evaluation: `2c`
    /// replicas in the private cloud and `3m + 1` in the public cloud, for a
    /// total of exactly `3m + 2c + 1`.
    pub fn minimal(crash: u32, byzantine: u32) -> Result<Self, ConfigError> {
        ClusterConfig::new(
            2 * crash,
            3 * byzantine + 1,
            FailureBounds::new(crash, byzantine),
        )
    }

    /// Number of trusted replicas `S` in the private cloud.
    pub fn private_size(&self) -> u32 {
        self.private_size
    }

    /// Number of untrusted replicas `P` in the public cloud.
    pub fn public_size(&self) -> u32 {
        self.public_size
    }

    /// Total number of replicas `N = S + P`.
    pub fn total_size(&self) -> u32 {
        self.private_size + self.public_size
    }

    /// The failure bounds `(c, m)` the cluster is dimensioned for.
    pub fn bounds(&self) -> FailureBounds {
        self.bounds
    }

    /// Maximum crash failures tolerated in the private cloud (`c`).
    pub fn crash_bound(&self) -> u32 {
        self.bounds.crash
    }

    /// Maximum Byzantine failures tolerated in the public cloud (`m`).
    pub fn byzantine_bound(&self) -> u32 {
        self.bounds.byzantine
    }

    /// Trust class of `replica`: trusted iff its id is below `S`.
    pub fn trust_of(&self, replica: ReplicaId) -> Trust {
        if replica.0 < self.private_size {
            Trust::Trusted
        } else {
            Trust::Untrusted
        }
    }

    /// Whether `replica` is hosted in the trusted private cloud.
    pub fn is_trusted(&self, replica: ReplicaId) -> bool {
        self.trust_of(replica) == Trust::Trusted
    }

    /// Whether `replica` is a valid id for this cluster.
    pub fn contains(&self, replica: ReplicaId) -> bool {
        replica.0 < self.total_size()
    }

    /// Iterator over every replica id in the cluster.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.total_size()).map(ReplicaId)
    }

    /// Iterator over the trusted replicas `[0, S-1]`.
    pub fn private_replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.private_size).map(ReplicaId)
    }

    /// Iterator over the untrusted replicas `[S, N-1]`.
    pub fn public_replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (self.private_size..self.total_size()).map(ReplicaId)
    }

    /// Number of proxies used by the Dog and Peacock modes: `3m + 1`.
    pub fn proxy_count(&self) -> u32 {
        3 * self.bounds.byzantine + 1
    }

    /// The primary of `view` when operating in `mode`.
    ///
    /// * Lion / Dog: `p = v mod S` — always a trusted replica.
    /// * Peacock: `p = (v mod P) + S` — always an untrusted replica, and by
    ///   construction always one of the view's proxies.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoTrustedReplicas`] for Lion/Dog when `S = 0`.
    pub fn primary(&self, mode: Mode, view: View) -> Result<ReplicaId, ConfigError> {
        match mode {
            Mode::Lion | Mode::Dog => {
                if self.private_size == 0 {
                    Err(ConfigError::NoTrustedReplicas { mode })
                } else {
                    Ok(ReplicaId((view.0 % u64::from(self.private_size)) as u32))
                }
            }
            Mode::Peacock => Ok(ReplicaId(
                (view.0 % u64::from(self.public_size)) as u32 + self.private_size,
            )),
        }
    }

    /// The trusted *transferer* that drives view changes in the Peacock mode:
    /// `t = v' mod S` for the new view `v'`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoTrustedReplicas`] when `S = 0`.
    pub fn transferer(&self, new_view: View) -> Result<ReplicaId, ConfigError> {
        if self.private_size == 0 {
            Err(ConfigError::NoTrustedReplicas {
                mode: Mode::Peacock,
            })
        } else {
            Ok(ReplicaId(
                (new_view.0 % u64::from(self.private_size)) as u32,
            ))
        }
    }

    /// Whether `replica` is one of the `3m + 1` proxies of `view`.
    ///
    /// The paper's membership test is `r - (v mod P) ∈ [S, S + 3m]` for
    /// public-cloud replicas; we apply it with wrap-around modulo `P` so that
    /// it remains well-defined when the public cloud is larger than the proxy
    /// set and the rotation window would otherwise run past `N - 1`.
    pub fn is_proxy(&self, replica: ReplicaId, view: View) -> bool {
        if replica.0 < self.private_size || replica.0 >= self.total_size() {
            return false;
        }
        let p = u64::from(self.public_size);
        let offset = u64::from(replica.0 - self.private_size);
        let rotation = view.0 % p;
        let position = (offset + p - rotation) % p;
        position < u64::from(self.proxy_count())
    }

    /// The proxy set of `view`, in ascending replica-id order.
    pub fn proxies(&self, view: View) -> Vec<ReplicaId> {
        self.public_replicas()
            .filter(|r| self.is_proxy(*r, view))
            .collect()
    }

    /// The replicas participating in agreement for `(mode, view)`:
    /// every replica in Lion, the proxies in Dog and Peacock.
    pub fn agreement_set(&self, mode: Mode, view: View) -> Vec<ReplicaId> {
        match mode {
            Mode::Lion => self.replicas().collect(),
            Mode::Dog | Mode::Peacock => self.proxies(view),
        }
    }

    /// Role of `replica` in `(mode, view)`.
    pub fn role_of(&self, replica: ReplicaId, mode: Mode, view: View) -> ReplicaRole {
        if let Ok(primary) = self.primary(mode, view) {
            if primary == replica {
                return ReplicaRole::Primary;
            }
        }
        match mode {
            Mode::Lion => ReplicaRole::Active,
            Mode::Dog | Mode::Peacock => {
                if self.is_proxy(replica, view) {
                    ReplicaRole::Active
                } else {
                    ReplicaRole::Passive
                }
            }
        }
    }

    /// The quorum system governing agreement in `mode` (Table 1):
    ///
    /// * Lion: quorum `2m + c + 1` over the full network `3m + 2c + 1`,
    /// * Dog / Peacock: quorum `2m + 1` over the `3m + 1` proxies.
    pub fn quorum(&self, mode: Mode) -> QuorumSpec {
        match mode {
            Mode::Lion => {
                let base = QuorumSpec::hybrid(self.bounds.crash, self.bounds.byzantine);
                let n = self.total_size();
                // If the deployment is larger than the paper's minimum
                // network, grow the quorum just enough to preserve the
                // `m + 1` intersection guarantee.
                let quorum_size = base
                    .quorum_size
                    .max(crate::quorum::min_quorum_for_intersection(
                        n,
                        self.bounds.byzantine,
                    ));
                QuorumSpec {
                    network_size: n,
                    quorum_size,
                    ..base
                }
            }
            Mode::Dog | Mode::Peacock => {
                QuorumSpec::byzantine(self.bounds.byzantine).with_network_size(self.proxy_count())
            }
        }
    }

    /// Number of `ACCEPT` messages (excluding the primary's own) the Lion
    /// primary must collect before committing: `2m + c` on the paper's
    /// minimum network, one less than the Lion quorum in general.
    pub fn lion_accept_threshold(&self) -> u32 {
        self.quorum(Mode::Lion).quorum_size - 1
    }

    /// Number of matching messages a proxy must collect (including its own)
    /// in the Dog and Peacock modes: `2m + 1`.
    pub fn proxy_quorum(&self) -> u32 {
        2 * self.bounds.byzantine + 1
    }

    /// Number of matching `INFORM` messages a passive replica waits for
    /// before executing, per mode (Dog: `2m + 1`, Peacock: `m + 1`).
    pub fn inform_threshold(&self, mode: Mode) -> u32 {
        match mode {
            Mode::Lion => 1, // Lion has no informs; commit comes from the trusted primary.
            Mode::Dog => 2 * self.bounds.byzantine + 1,
            Mode::Peacock => self.bounds.byzantine + 1,
        }
    }

    /// Number of matching replies a client waits for before accepting a
    /// result, per mode (first transmission).
    ///
    /// * Lion: a single reply signed by the trusted primary.
    /// * Dog: `2m + 1` matching replies from proxies.
    /// * Peacock: `m + 1` matching replies from proxies.
    pub fn reply_threshold(&self, mode: Mode) -> u32 {
        match mode {
            Mode::Lion => 1,
            Mode::Dog => 2 * self.bounds.byzantine + 1,
            Mode::Peacock => self.bounds.byzantine + 1,
        }
    }

    /// Number of matching replies a client waits for after *retransmitting*
    /// a request (Lion: one trusted reply or `m + 1` from the public cloud;
    /// Dog/Peacock: `m + 1`).
    pub fn retransmit_reply_threshold(&self, mode: Mode) -> u32 {
        match mode {
            Mode::Lion | Mode::Dog | Mode::Peacock => self.bounds.byzantine + 1,
        }
    }

    /// Number of `VIEW-CHANGE` messages the new primary (Lion) or the new
    /// primary / transferer (Dog, Peacock) must collect before emitting a
    /// `NEW-VIEW` (Lion: `2m + c`; Dog / Peacock: `2m + 1`).
    pub fn view_change_threshold(&self, mode: Mode) -> u32 {
        match mode {
            Mode::Lion => self.quorum(Mode::Lion).quorum_size - 1,
            Mode::Dog | Mode::Peacock => 2 * self.bounds.byzantine + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(s: u32, p: u32, c: u32, m: u32) -> ClusterConfig {
        ClusterConfig::new(s, p, FailureBounds::new(c, m)).expect("valid config")
    }

    #[test]
    fn minimal_matches_evaluation_sizes() {
        // Fig. 2 captions: SeeMoRe network sizes 6, 11, 12 and 10.
        assert_eq!(ClusterConfig::minimal(1, 1).unwrap().total_size(), 6);
        assert_eq!(ClusterConfig::minimal(2, 2).unwrap().total_size(), 11);
        assert_eq!(ClusterConfig::minimal(1, 3).unwrap().total_size(), 12);
        assert_eq!(ClusterConfig::minimal(3, 1).unwrap().total_size(), 10);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(matches!(
            ClusterConfig::new(1, 4, FailureBounds::new(2, 1)),
            Err(ConfigError::CrashBoundExceedsPrivateCloud { .. })
        ));
        assert!(matches!(
            ClusterConfig::new(2, 1, FailureBounds::new(1, 2)),
            Err(ConfigError::ByzantineBoundExceedsPublicCloud { .. })
        ));
        assert!(matches!(
            ClusterConfig::new(2, 2, FailureBounds::new(1, 1)),
            Err(ConfigError::NetworkTooSmall { .. })
        ));
        // Network big enough overall, but the public cloud cannot host 3m+1
        // proxies.
        assert!(matches!(
            ClusterConfig::new(6, 3, FailureBounds::new(1, 1)),
            Err(ConfigError::PublicCloudTooSmallForProxies { .. })
        ));
    }

    #[test]
    fn trust_split_follows_id_ranges() {
        let cluster = cfg(2, 4, 1, 1);
        assert_eq!(cluster.trust_of(ReplicaId(0)), Trust::Trusted);
        assert_eq!(cluster.trust_of(ReplicaId(1)), Trust::Trusted);
        for r in 2..6 {
            assert_eq!(cluster.trust_of(ReplicaId(r)), Trust::Untrusted);
        }
        assert_eq!(cluster.private_replicas().count(), 2);
        assert_eq!(cluster.public_replicas().count(), 4);
        assert_eq!(cluster.replicas().count(), 6);
        assert!(cluster.contains(ReplicaId(5)));
        assert!(!cluster.contains(ReplicaId(6)));
    }

    #[test]
    fn lion_and_dog_primary_is_trusted_and_rotates() {
        let cluster = cfg(2, 4, 1, 1);
        for mode in [Mode::Lion, Mode::Dog] {
            assert_eq!(cluster.primary(mode, View(0)).unwrap(), ReplicaId(0));
            assert_eq!(cluster.primary(mode, View(1)).unwrap(), ReplicaId(1));
            assert_eq!(cluster.primary(mode, View(2)).unwrap(), ReplicaId(0));
            for v in 0..10 {
                let p = cluster.primary(mode, View(v)).unwrap();
                assert!(cluster.is_trusted(p));
            }
        }
    }

    #[test]
    fn peacock_primary_is_untrusted_and_is_a_proxy() {
        let cluster = cfg(2, 6, 1, 1);
        for v in 0..20 {
            let view = View(v);
            let p = cluster.primary(Mode::Peacock, view).unwrap();
            assert!(!cluster.is_trusted(p));
            assert!(
                cluster.is_proxy(p, view),
                "primary {p} must be a proxy in {view}"
            );
        }
    }

    #[test]
    fn proxy_set_has_exactly_three_m_plus_one_members() {
        let cluster = cfg(2, 6, 1, 1);
        for v in 0..12 {
            let proxies = cluster.proxies(View(v));
            assert_eq!(proxies.len(), cluster.proxy_count() as usize);
            for proxy in &proxies {
                assert!(!cluster.is_trusted(*proxy));
            }
        }
    }

    #[test]
    fn proxy_set_rotates_with_view() {
        let cluster = cfg(2, 6, 1, 1);
        let v0: Vec<_> = cluster.proxies(View(0));
        let v1: Vec<_> = cluster.proxies(View(1));
        assert_ne!(v0, v1, "rotation must change the proxy set when P > 3m+1");
        // When the public cloud is exactly 3m+1, every public replica is a
        // proxy in every view.
        let tight = cfg(2, 4, 1, 1);
        for v in 0..8 {
            assert_eq!(tight.proxies(View(v)).len(), 4);
        }
    }

    #[test]
    fn transferer_is_trusted() {
        let cluster = cfg(3, 4, 1, 1);
        for v in 0..9 {
            let t = cluster.transferer(View(v)).unwrap();
            assert!(cluster.is_trusted(t));
        }
        assert_eq!(cluster.transferer(View(4)).unwrap(), ReplicaId(1));
    }

    #[test]
    fn roles_reflect_mode() {
        let cluster = cfg(2, 4, 1, 1);
        let view = View(0);
        assert_eq!(
            cluster.role_of(ReplicaId(0), Mode::Lion, view),
            ReplicaRole::Primary
        );
        assert_eq!(
            cluster.role_of(ReplicaId(3), Mode::Lion, view),
            ReplicaRole::Active
        );
        // Dog: primary trusted, private backup passive, proxies active.
        assert_eq!(
            cluster.role_of(ReplicaId(0), Mode::Dog, view),
            ReplicaRole::Primary
        );
        assert_eq!(
            cluster.role_of(ReplicaId(1), Mode::Dog, view),
            ReplicaRole::Passive
        );
        assert_eq!(
            cluster.role_of(ReplicaId(2), Mode::Dog, view),
            ReplicaRole::Active
        );
        // Peacock: public primary, private replicas passive.
        assert_eq!(
            cluster.role_of(
                cluster.primary(Mode::Peacock, view).unwrap(),
                Mode::Peacock,
                view
            ),
            ReplicaRole::Primary
        );
        assert_eq!(
            cluster.role_of(ReplicaId(0), Mode::Peacock, view),
            ReplicaRole::Passive
        );
    }

    #[test]
    fn quorum_sizes_match_table1() {
        let cluster = cfg(2, 4, 1, 1);
        let lion = cluster.quorum(Mode::Lion);
        assert_eq!(lion.quorum_size, 4); // 2m + c + 1
        assert_eq!(lion.network_size, 6); // 3m + 2c + 1
        let dog = cluster.quorum(Mode::Dog);
        assert_eq!(dog.quorum_size, 3); // 2m + 1
        assert_eq!(dog.network_size, 4); // 3m + 1
        let peacock = cluster.quorum(Mode::Peacock);
        assert_eq!(peacock.quorum_size, 3);
        assert_eq!(peacock.network_size, 4);
    }

    #[test]
    fn thresholds_match_protocol_description() {
        let cluster = cfg(4, 7, 2, 2);
        assert_eq!(cluster.lion_accept_threshold(), 6); // 2m + c
        assert_eq!(cluster.proxy_quorum(), 5); // 2m + 1
        assert_eq!(cluster.inform_threshold(Mode::Dog), 5);
        assert_eq!(cluster.inform_threshold(Mode::Peacock), 3); // m + 1
        assert_eq!(cluster.reply_threshold(Mode::Lion), 1);
        assert_eq!(cluster.reply_threshold(Mode::Dog), 5);
        assert_eq!(cluster.reply_threshold(Mode::Peacock), 3);
        assert_eq!(cluster.retransmit_reply_threshold(Mode::Lion), 3);
        assert_eq!(cluster.view_change_threshold(Mode::Lion), 6);
        assert_eq!(cluster.view_change_threshold(Mode::Dog), 5);
        assert_eq!(cluster.view_change_threshold(Mode::Peacock), 5);
    }

    #[test]
    fn agreement_set_contents() {
        let cluster = cfg(2, 4, 1, 1);
        assert_eq!(cluster.agreement_set(Mode::Lion, View(0)).len(), 6);
        let dog_set = cluster.agreement_set(Mode::Dog, View(0));
        assert_eq!(dog_set.len(), 4);
        assert!(dog_set.iter().all(|r| !cluster.is_trusted(*r)));
    }

    #[test]
    fn no_trusted_replicas_is_rejected_for_trusted_primary_modes() {
        let cluster = ClusterConfig::new(0, 7, FailureBounds::new(0, 2)).unwrap();
        assert!(matches!(
            cluster.primary(Mode::Lion, View(0)),
            Err(ConfigError::NoTrustedReplicas { .. })
        ));
        assert!(cluster.primary(Mode::Peacock, View(0)).is_ok());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cluster() -> impl Strategy<Value = ClusterConfig> {
        (0u32..4, 0u32..4, 0u32..4, 0u32..4).prop_filter_map(
            "valid cluster",
            |(c, m, extra_s, extra_p)| {
                ClusterConfig::new(
                    2 * c + extra_s,
                    3 * m + 1 + extra_p,
                    FailureBounds::new(c, m),
                )
                .ok()
            },
        )
    }

    proptest! {
        /// The primary of every view is trusted in Lion/Dog and untrusted in
        /// Peacock, and the Peacock primary is always a member of its view's
        /// proxy set.
        #[test]
        fn primary_placement_invariant(cluster in arb_cluster(), v in 0u64..1000) {
            let view = View(v);
            if cluster.private_size() > 0 {
                let lion = cluster.primary(Mode::Lion, view).unwrap();
                prop_assert!(cluster.is_trusted(lion));
            }
            let peacock = cluster.primary(Mode::Peacock, view).unwrap();
            prop_assert!(!cluster.is_trusted(peacock));
            prop_assert!(cluster.is_proxy(peacock, view));
        }

        /// Every view has exactly `3m + 1` proxies and they are all public.
        #[test]
        fn proxy_set_size_invariant(cluster in arb_cluster(), v in 0u64..1000) {
            let proxies = cluster.proxies(View(v));
            prop_assert_eq!(proxies.len() as u32, cluster.proxy_count());
            for p in proxies {
                prop_assert!(!cluster.is_trusted(p));
            }
        }

        /// Quorum systems derived from a valid cluster are themselves valid.
        #[test]
        fn derived_quorums_are_valid(cluster in arb_cluster()) {
            for mode in Mode::ALL {
                prop_assert!(cluster.quorum(mode).is_valid(),
                    "mode {mode} quorum invalid for {cluster:?}");
            }
        }
    }
}
