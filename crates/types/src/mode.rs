//! The three operating modes of SeeMoRe (Section 5).
//!
//! * **Lion** — a trusted primary in the private cloud orders requests and
//!   drives a two-phase agreement over all `3m + 2c + 1` replicas with
//!   quorums of `2m + c + 1`. Linear message complexity.
//! * **Dog** — a trusted primary orders requests but delegates agreement to
//!   `3m + 1` *proxies* in the public cloud with quorums of `2m + 1`. Two
//!   phases, quadratic messages among the proxies. Reduces the load on the
//!   private cloud.
//! * **Peacock** — an untrusted primary in the public cloud runs a PBFT-like
//!   three-phase agreement among `3m + 1` proxies; the private cloud is
//!   passive in agreement but supplies the *transferer* that drives view
//!   changes.

use std::fmt;

/// Operating mode of the SeeMoRe protocol.
///
/// The paper indexes modes with `pi ∈ {1, 2, 3}`; we keep the same numbering
/// in [`Mode::index`] so that `REPLY` messages can carry it exactly as in the
/// paper's message format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mode {
    /// Trusted primary, all replicas participate (2 phases, `O(n)` messages).
    Lion,
    /// Trusted primary, public-cloud proxies run agreement (2 phases,
    /// `O(n²)` messages among `3m + 1` proxies).
    Dog,
    /// Untrusted primary, PBFT-like agreement among `3m + 1` proxies
    /// (3 phases, `O(n²)` messages).
    Peacock,
}

impl Mode {
    /// All modes in ascending paper order.
    pub const ALL: [Mode; 3] = [Mode::Lion, Mode::Dog, Mode::Peacock];

    /// The paper's numeric mode identifier `pi ∈ {1, 2, 3}`.
    pub fn index(self) -> u8 {
        match self {
            Mode::Lion => 1,
            Mode::Dog => 2,
            Mode::Peacock => 3,
        }
    }

    /// Parses the paper's numeric mode identifier.
    pub fn from_index(index: u8) -> Option<Mode> {
        match index {
            1 => Some(Mode::Lion),
            2 => Some(Mode::Dog),
            3 => Some(Mode::Peacock),
            _ => None,
        }
    }

    /// Whether the primary of this mode lives in the trusted private cloud.
    pub fn has_trusted_primary(self) -> bool {
        matches!(self, Mode::Lion | Mode::Dog)
    }

    /// Whether agreement is delegated to the `3m + 1` public-cloud proxies.
    pub fn uses_proxies(self) -> bool {
        matches!(self, Mode::Dog | Mode::Peacock)
    }

    /// Number of communication phases between the primary receiving a
    /// request and the request committing (Table 1).
    pub fn phases(self) -> u32 {
        match self {
            Mode::Lion | Mode::Dog => 2,
            Mode::Peacock => 3,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Mode::Lion => "Lion",
            Mode::Dog => "Dog",
            Mode::Peacock => "Peacock",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        for mode in Mode::ALL {
            assert_eq!(Mode::from_index(mode.index()), Some(mode));
        }
        assert_eq!(Mode::from_index(0), None);
        assert_eq!(Mode::from_index(4), None);
    }

    #[test]
    fn primary_trust_matches_paper() {
        assert!(Mode::Lion.has_trusted_primary());
        assert!(Mode::Dog.has_trusted_primary());
        assert!(!Mode::Peacock.has_trusted_primary());
    }

    #[test]
    fn proxy_usage_matches_paper() {
        assert!(!Mode::Lion.uses_proxies());
        assert!(Mode::Dog.uses_proxies());
        assert!(Mode::Peacock.uses_proxies());
    }

    #[test]
    fn phase_counts_match_table1() {
        assert_eq!(Mode::Lion.phases(), 2);
        assert_eq!(Mode::Dog.phases(), 2);
        assert_eq!(Mode::Peacock.phases(), 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(Mode::Lion.to_string(), "Lion");
        assert_eq!(Mode::Dog.to_string(), "Dog");
        assert_eq!(Mode::Peacock.to_string(), "Peacock");
    }
}
