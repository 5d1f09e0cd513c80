//! Public-cloud sizing planner (Section 4 of the paper).
//!
//! An enterprise that owns `S` trusted servers, of which up to `c` may crash,
//! needs a total network of `3m + 2c + 1` replicas to run SeeMoRe. This
//! module answers the question the paper poses: *how many servers `P` must be
//! rented from an untrusted public cloud?*
//!
//! Two methods are provided, matching the paper:
//!
//! 1. **Ratio-based** — the public cloud advertises the fraction `alpha` of
//!    its nodes that may be malicious (and optionally the fraction `beta`
//!    that may merely crash). Equations 2 and 3:
//!    `P = ceil((S - (2c + 1)) / (3*alpha + 2*beta - 1))`.
//! 2. **Explicit-bound** — the public cloud guarantees at most `M` concurrent
//!    malicious (and optionally `C` crash) failures in the rented cluster:
//!    `P = (3M + 2C + 2c + 1) - S`.

use crate::config::{ClusterConfig, FailureBounds};
use crate::error::ConfigError;

/// Inputs to the ratio-based planner (Equations 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(clippy::derive_partial_eq_without_eq)]
pub struct PlannerInput {
    /// Number of trusted servers owned by the enterprise (`S`).
    pub private_size: u32,
    /// Bound on crash failures within the private cloud (`c`).
    pub private_crash_bound: u32,
    /// Fraction of public-cloud nodes that may be malicious (`alpha = m / P`).
    pub malicious_ratio: f64,
    /// Fraction of public-cloud nodes that may crash (`beta = c_pub / P`).
    /// Set to zero when the provider reports no crash statistics, in which
    /// case all public faults are treated as malicious (Equation 2).
    pub crash_ratio: f64,
}

impl PlannerInput {
    /// Planner input for a provider that only reports a malicious ratio
    /// (Equation 2).
    pub fn with_malicious_ratio(private_size: u32, private_crash_bound: u32, alpha: f64) -> Self {
        PlannerInput {
            private_size,
            private_crash_bound,
            malicious_ratio: alpha,
            crash_ratio: 0.0,
        }
    }
}

/// The planner's recommendation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerOutcome {
    /// The private cloud alone satisfies `S >= 2c + 1`; run a crash
    /// fault-tolerant protocol (e.g. Paxos) without renting anything.
    PrivateCloudSufficient {
        /// Number of private servers that would actually be needed.
        required_private: u32,
    },
    /// There is no usable private cloud (`S = 0` or `S = c`); rent everything
    /// and run a Byzantine fault-tolerant protocol in the public cloud.
    UsePublicCloudOnly {
        /// Servers to rent for a pure BFT deployment tolerating the expected
        /// number of malicious nodes.
        rent: u32,
        /// Byzantine bound implied by the rented size and ratio.
        byzantine_bound: u32,
    },
    /// Rent `rent` public servers and run SeeMoRe over the hybrid network.
    RentFromPublicCloud {
        /// Servers to rent (`P`).
        rent: u32,
        /// Byzantine bound `m` implied by the rented size.
        byzantine_bound: u32,
        /// Resulting total network size `N = S + P`.
        network_size: u32,
    },
}

/// Ratio-based sizing (Equations 2 and 3).
///
/// # Errors
///
/// * [`ConfigError::MaliciousRatioTooHigh`] if `3*alpha + 2*beta >= 1` can
///   never be satisfied (in particular `alpha >= 1/3` with `beta = 0`).
/// * [`ConfigError::InvalidPlannerInput`] if the ratios are not in `[0, 1)`
///   or the crash bound exceeds the private cloud size.
pub fn plan_with_ratios(input: PlannerInput) -> Result<PlannerOutcome, ConfigError> {
    let PlannerInput {
        private_size: s,
        private_crash_bound: c,
        malicious_ratio: alpha,
        crash_ratio: beta,
    } = input;
    if !(0.0..1.0).contains(&alpha) || !(0.0..1.0).contains(&beta) {
        return Err(ConfigError::InvalidPlannerInput(format!(
            "ratios must be in [0, 1): alpha={alpha}, beta={beta}"
        )));
    }
    if c > s {
        return Err(ConfigError::InvalidPlannerInput(format!(
            "crash bound c={c} exceeds private cloud size S={s}"
        )));
    }

    // S >= 2c + 1: the private cloud can run Paxos by itself.
    if s >= 2 * c + 1 {
        return Ok(PlannerOutcome::PrivateCloudSufficient {
            required_private: 2 * c + 1,
        });
    }

    let denominator = 3.0 * alpha + 2.0 * beta - 1.0;
    if denominator >= 0.0 {
        // The provider is too unreliable: renting more servers adds faults at
        // least as fast as it adds capacity.
        return Err(ConfigError::MaliciousRatioTooHigh { alpha });
    }

    // No usable private cloud: rent everything and run plain BFT.
    if s == 0 || s == c {
        // Smallest P such that P >= 3*ceil(alpha*P) + 1.
        let mut p = 4u32;
        loop {
            let m = expected_byzantine(p, alpha);
            if p >= 3 * m + 1 {
                return Ok(PlannerOutcome::UsePublicCloudOnly {
                    rent: p,
                    byzantine_bound: m,
                });
            }
            p += 1;
        }
    }

    // Equation 2 / 3: P = ceil((S - (2c + 1)) / (3*alpha + 2*beta - 1)).
    let numerator = f64::from(s) - f64::from(2 * c + 1);
    let mut p = (numerator / denominator).ceil() as u32;
    // The uniform-distribution assumption can leave the ceiling one node shy
    // once m = ceil(alpha * P) is re-derived as an integer; bump until the
    // constraint N >= 3m + 2c + 1 actually holds.
    loop {
        let m = expected_byzantine(p, alpha);
        let c_pub = (beta * f64::from(p)).ceil() as u32;
        let n = s + p;
        if n >= 3 * m + 2 * (c + c_pub) + 1 && p >= 3 * m + 1 {
            return Ok(PlannerOutcome::RentFromPublicCloud {
                rent: p,
                byzantine_bound: m,
                network_size: n,
            });
        }
        p += 1;
    }
}

/// Explicit-bound sizing: the provider guarantees at most
/// `max_malicious` concurrent malicious and `max_crash` concurrent crash
/// failures among the rented nodes. `P = (3M + 2C + 2c + 1) - S`.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidPlannerInput`] if the private crash bound
/// exceeds the private cloud size.
pub fn plan_with_explicit_bounds(
    private_size: u32,
    private_crash_bound: u32,
    max_malicious: u32,
    max_crash: u32,
) -> Result<PlannerOutcome, ConfigError> {
    if private_crash_bound > private_size {
        return Err(ConfigError::InvalidPlannerInput(format!(
            "crash bound c={private_crash_bound} exceeds private cloud size S={private_size}"
        )));
    }
    if private_size >= 2 * private_crash_bound + 1 {
        return Ok(PlannerOutcome::PrivateCloudSufficient {
            required_private: 2 * private_crash_bound + 1,
        });
    }
    let required_total = 3 * max_malicious + 2 * (max_crash + private_crash_bound) + 1;
    let rent_for_hybrid = required_total.saturating_sub(private_size);
    // The Dog/Peacock modes additionally need 3M + 1 public proxies.
    let rent = rent_for_hybrid.max(3 * max_malicious + 1);
    Ok(PlannerOutcome::RentFromPublicCloud {
        rent,
        byzantine_bound: max_malicious,
        network_size: private_size + rent,
    })
}

/// Builds a [`ClusterConfig`] from a planner recommendation.
///
/// # Errors
///
/// Propagates [`ConfigError`] if the outcome does not describe a hybrid
/// deployment (private-only and public-only outcomes have no hybrid config).
pub fn cluster_from_outcome(
    private_size: u32,
    private_crash_bound: u32,
    outcome: PlannerOutcome,
) -> Result<ClusterConfig, ConfigError> {
    match outcome {
        PlannerOutcome::RentFromPublicCloud {
            rent,
            byzantine_bound,
            ..
        } => ClusterConfig::new(
            private_size,
            rent,
            FailureBounds::new(private_crash_bound, byzantine_bound),
        ),
        PlannerOutcome::PrivateCloudSufficient { .. } => Err(ConfigError::InvalidPlannerInput(
            "private cloud is sufficient; no hybrid cluster is needed".to_string(),
        )),
        PlannerOutcome::UsePublicCloudOnly { .. } => Err(ConfigError::InvalidPlannerInput(
            "no usable private cloud; run a BFT protocol in the public cloud instead".to_string(),
        )),
    }
}

/// Expected number of malicious nodes among `p` rented nodes under a uniform
/// malicious ratio `alpha` (the paper's worst-case rounding: any subset of
/// size `p` contains at most `ceil(alpha * p)` malicious nodes).
fn expected_byzantine(p: u32, alpha: f64) -> u32 {
    (alpha * f64::from(p)).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // Section 4: S = 2, c = 1, alpha = 0.3  =>  P = 10.
        let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(2, 1, 0.3)).unwrap();
        match outcome {
            PlannerOutcome::RentFromPublicCloud {
                rent,
                byzantine_bound,
                network_size,
            } => {
                assert_eq!(rent, 10);
                assert_eq!(byzantine_bound, 3); // ceil(0.3 * 10)
                assert_eq!(network_size, 12); // 3*3 + 2*1 + 1
            }
            other => panic!("expected a rental recommendation, got {other:?}"),
        }
    }

    #[test]
    fn sufficient_private_cloud_needs_no_rental() {
        let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(5, 2, 0.2)).unwrap();
        assert_eq!(
            outcome,
            PlannerOutcome::PrivateCloudSufficient {
                required_private: 5
            }
        );

        let outcome = plan_with_explicit_bounds(7, 3, 1, 0).unwrap();
        assert_eq!(
            outcome,
            PlannerOutcome::PrivateCloudSufficient {
                required_private: 7
            }
        );
    }

    #[test]
    fn malicious_ratio_one_third_is_rejected() {
        let err =
            plan_with_ratios(PlannerInput::with_malicious_ratio(2, 1, 1.0 / 3.0)).unwrap_err();
        assert!(matches!(err, ConfigError::MaliciousRatioTooHigh { .. }));

        // With a crash ratio the combined denominator can also be infeasible.
        let err = plan_with_ratios(PlannerInput {
            private_size: 2,
            private_crash_bound: 1,
            malicious_ratio: 0.2,
            crash_ratio: 0.25,
        })
        .unwrap_err();
        assert!(matches!(err, ConfigError::MaliciousRatioTooHigh { .. }));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(plan_with_ratios(PlannerInput::with_malicious_ratio(2, 3, 0.1)).is_err());
        assert!(plan_with_ratios(PlannerInput::with_malicious_ratio(2, 1, 1.5)).is_err());
        assert!(plan_with_ratios(PlannerInput {
            private_size: 2,
            private_crash_bound: 1,
            malicious_ratio: 0.1,
            crash_ratio: -0.2,
        })
        .is_err());
        assert!(plan_with_explicit_bounds(1, 2, 1, 0).is_err());
    }

    #[test]
    fn no_private_cloud_falls_back_to_bft() {
        let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(0, 0, 0.2)).unwrap();
        match outcome {
            PlannerOutcome::UsePublicCloudOnly {
                rent,
                byzantine_bound,
            } => {
                assert!(rent >= 3 * byzantine_bound + 1);
                assert!(byzantine_bound >= 1 || rent >= 1);
            }
            other => panic!("expected public-cloud-only, got {other:?}"),
        }

        // S = c: every private node may crash, so the private cloud is useless.
        let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(1, 1, 0.1)).unwrap();
        assert!(matches!(outcome, PlannerOutcome::UsePublicCloudOnly { .. }));
    }

    #[test]
    fn explicit_bound_formula() {
        // P = (3M + 2C + 2c + 1) - S with M=2, C=1, c=1, S=2 -> 11 - 2 = 9...
        // (3*2 + 2*1 + 2*1 + 1) - 2 = 11 - 2 = 9.
        let outcome = plan_with_explicit_bounds(2, 1, 2, 1).unwrap();
        match outcome {
            PlannerOutcome::RentFromPublicCloud {
                rent,
                byzantine_bound,
                network_size,
            } => {
                assert_eq!(rent, 9);
                assert_eq!(byzantine_bound, 2);
                assert_eq!(network_size, 11);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explicit_bound_guarantees_proxy_capacity() {
        // With a tiny private deficit the formula alone could rent fewer than
        // 3M + 1 nodes; the planner must still rent enough for the proxies.
        let outcome = plan_with_explicit_bounds(2, 1, 3, 0).unwrap();
        match outcome {
            PlannerOutcome::RentFromPublicCloud {
                rent,
                byzantine_bound,
                ..
            } => {
                assert!(rent >= 3 * byzantine_bound + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rental_outcomes_produce_valid_clusters() {
        let outcome = plan_with_ratios(PlannerInput::with_malicious_ratio(2, 1, 0.3)).unwrap();
        let cluster = cluster_from_outcome(2, 1, outcome).unwrap();
        assert_eq!(cluster.total_size(), 12);
        assert!(cluster.quorum(crate::Mode::Lion).is_valid());

        let outcome = plan_with_explicit_bounds(2, 1, 2, 0).unwrap();
        let cluster = cluster_from_outcome(2, 1, outcome).unwrap();
        assert!(cluster.quorum(crate::Mode::Lion).is_valid());
    }

    #[test]
    fn non_hybrid_outcomes_cannot_build_clusters() {
        assert!(cluster_from_outcome(
            5,
            2,
            PlannerOutcome::PrivateCloudSufficient {
                required_private: 5
            }
        )
        .is_err());
        assert!(cluster_from_outcome(
            0,
            0,
            PlannerOutcome::UsePublicCloudOnly {
                rent: 4,
                byzantine_bound: 1
            }
        )
        .is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whenever the ratio planner recommends renting, the resulting
        /// network satisfies Equation 1 for the implied Byzantine bound and
        /// can host the 3m+1 proxies.
        #[test]
        fn ratio_planner_recommendations_are_sound(
            c in 1u32..6,
            extra in 0u32..1,
            alpha in 0.01f64..0.30,
        ) {
            // Choose S strictly between c and 2c+1 so renting is required.
            let s = (c + 1 + extra).min(2 * c);
            prop_assume!(s > c && s < 2 * c + 1);
            let outcome = plan_with_ratios(
                PlannerInput::with_malicious_ratio(s, c, alpha)
            );
            prop_assume!(outcome.is_ok());
            if let PlannerOutcome::RentFromPublicCloud { rent, byzantine_bound, network_size } =
                outcome.unwrap()
            {
                prop_assert_eq!(network_size, s + rent);
                prop_assert!(network_size >= 3 * byzantine_bound + 2 * c + 1);
                prop_assert!(rent >= 3 * byzantine_bound + 1);
                let cluster = cluster_from_outcome(s, c, PlannerOutcome::RentFromPublicCloud {
                    rent, byzantine_bound, network_size,
                });
                prop_assert!(cluster.is_ok());
            }
        }

        /// The explicit-bound planner always satisfies the generalized
        /// Equation 1 with the provider-supplied bounds.
        #[test]
        fn explicit_planner_recommendations_are_sound(
            c in 1u32..6,
            m in 0u32..6,
            c_pub in 0u32..4,
        ) {
            let s = c + 1; // forces renting whenever c >= 1
            prop_assume!(s < 2 * c + 1);
            let outcome = plan_with_explicit_bounds(s, c, m, c_pub).unwrap();
            if let PlannerOutcome::RentFromPublicCloud { rent, network_size, .. } = outcome {
                prop_assert!(network_size >= 3 * m + 2 * (c + c_pub) + 1);
                prop_assert!(rent >= 3 * m + 1);
            } else {
                prop_assert!(false, "expected a rental outcome");
            }
        }
    }
}
