//! Read/write classification of state-machine operations.
//!
//! SeeMoRe's read-only fast path (and the equivalent seams in the CFT and
//! BFT baselines) needs to know, *before* ordering, whether an operation
//! mutates state. A [`OpClass::Write`] must be batched, sequenced and
//! executed through full agreement; a [`OpClass::Read`] may instead be
//! served from a replica's executed state under the mode's freshness rule
//! (trusted-primary lease reads in Lion/Dog, `2m + 1`-matching quorum reads
//! in Peacock). Classification is conservative: anything a layer cannot
//! prove read-only is treated as a write.

use std::fmt;

/// Whether an operation mutates the replicated state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// The operation does not mutate state and may take the read fast path.
    Read,
    /// The operation (potentially) mutates state and must be ordered.
    Write,
}

impl OpClass {
    /// Whether this is the read class.
    pub fn is_read(self) -> bool {
        matches!(self, OpClass::Read)
    }

    /// Whether this is the write class.
    pub fn is_write(self) -> bool {
        matches!(self, OpClass::Write)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_predicates() {
        assert!(OpClass::Read.is_read());
        assert!(!OpClass::Read.is_write());
        assert!(OpClass::Write.is_write());
        assert!(!OpClass::Write.is_read());
    }

    #[test]
    fn display_names() {
        assert_eq!(OpClass::Read.to_string(), "read");
        assert_eq!(OpClass::Write.to_string(), "write");
    }
}
