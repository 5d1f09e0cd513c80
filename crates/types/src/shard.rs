//! Sharded (multi-group) topology vocabulary.
//!
//! A single SeeMoRe group caps out at one primary's CPU and one agreement
//! pipeline. To scale beyond that, the keyspace is partitioned across `N`
//! **independent groups**, each a complete SeeMoRe deployment with its own
//! mode, primary, view and fault budget — the paper's per-deployment
//! Lion/Dog/Peacock choice, made per shard. This module defines the
//! vocabulary the wire, client and runtime layers share:
//!
//! * [`GroupId`] — index of a group, in `[0, N-1]`.
//! * [`GroupNodeId`] — a group-scoped endpoint: the global identity of a
//!   replica or client **within a sharded topology** is `(GroupId, NodeId)`;
//!   the protocol cores keep using the plain [`NodeId`]
//!   because each core lives entirely inside one group.
//! * [`ShardMap`] — a versioned mapping from operation keys to groups.
//!   Hash-partitioned ([`Partitioning::Hash`]). Clients cache a `ShardMap`
//!   and refresh it when a replica answers with a signed redirect carrying
//!   a newer version.

use crate::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an agreement group (shard), in `[0, N-1]`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Returns the raw index as a `usize`, convenient for vector indexing.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GroupId {
    fn from(value: u32) -> Self {
        GroupId(value)
    }
}

/// A group-scoped endpoint: which group a node belongs to plus its identity
/// inside that group.
///
/// Replica and client ids are only unique *within* a group; a sharded
/// topology addresses nodes by this pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupNodeId {
    /// The group the node belongs to.
    pub group: GroupId,
    /// The node's identity inside that group.
    pub node: NodeId,
}

impl GroupNodeId {
    /// Builds a group-scoped endpoint from its parts.
    pub fn new(group: GroupId, node: NodeId) -> Self {
        GroupNodeId { group, node }
    }
}

impl fmt::Display for GroupNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.group, self.node)
    }
}

/// How the keyspace is split across groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Partitioning {
    /// Keys are hashed (FNV-1a, 64-bit) and assigned modulo the group count.
    /// Uniform by construction; the default.
    Hash {
        /// Number of groups the hash space is split across (at least 1).
        groups: u32,
    },
}

/// A versioned mapping from operation keys to agreement groups.
///
/// The version totally orders map revisions: a replica that receives a
/// request for a key it does not own answers with a signed redirect carrying
/// its (authoritative) map, and a client adopts any map whose version is
/// strictly newer than the one it cached.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Revision counter; higher versions supersede lower ones.
    pub version: u64,
    /// The partitioning scheme in force at this version.
    pub partitioning: Partitioning,
}

impl ShardMap {
    /// A version-1 hash partitioning over `groups` groups (the standard
    /// starting map). `groups` is clamped to at least 1.
    pub fn uniform(groups: u32) -> ShardMap {
        ShardMap {
            version: 1,
            partitioning: Partitioning::Hash {
                groups: groups.max(1),
            },
        }
    }

    /// Number of groups this map routes across (always at least 1).
    pub fn groups(&self) -> u32 {
        let Partitioning::Hash { groups } = self.partitioning;
        groups.max(1)
    }

    /// The group that owns `key`.
    pub fn group_of(&self, key: &[u8]) -> GroupId {
        GroupId((fnv1a(key) % u64::from(self.groups())) as u32)
    }

    /// Whether `other` supersedes this map.
    pub fn is_older_than(&self, other: &ShardMap) -> bool {
        self.version < other.version
    }
}

impl Default for ShardMap {
    fn default() -> Self {
        ShardMap::uniform(1)
    }
}

/// 64-bit FNV-1a. Stable across platforms and cheap enough to sit on the
/// client's per-request routing path; routing only needs an even spread, not
/// collision resistance (ownership is re-checked by the group's replicas).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, ReplicaId};

    #[test]
    fn group_id_display_and_conversion() {
        let g = GroupId::from(3u32);
        assert_eq!(g.as_usize(), 3);
        assert_eq!(g.to_string(), "g3");
    }

    #[test]
    fn group_node_id_display() {
        let replica = GroupNodeId::new(GroupId(1), NodeId::Replica(ReplicaId(2)));
        let client = GroupNodeId::new(GroupId(0), NodeId::Client(ClientId(7)));
        assert_eq!(replica.to_string(), "g1/r2");
        assert_eq!(client.to_string(), "g0/c7");
    }

    #[test]
    fn hash_map_routes_deterministically_and_in_range() {
        let map = ShardMap::uniform(4);
        assert_eq!(map.groups(), 4);
        for i in 0..1000u32 {
            let key = format!("key-{i}");
            let g = map.group_of(key.as_bytes());
            assert!(g.0 < 4);
            assert_eq!(g, map.group_of(key.as_bytes()));
        }
    }

    #[test]
    fn hash_map_spreads_keys_reasonably() {
        let map = ShardMap::uniform(4);
        let mut counts = [0u32; 4];
        for i in 0..4000u32 {
            counts[map.group_of(format!("key-{i}").as_bytes()).as_usize()] += 1;
        }
        // Each group should own a non-trivial share of a uniform keyspace.
        for &count in &counts {
            assert!(count > 500, "hash spread too skewed: {counts:?}");
        }
    }

    #[test]
    fn single_group_map_routes_everything_to_group_zero() {
        let map = ShardMap::uniform(1);
        assert_eq!(map.groups(), 1);
        assert_eq!(map.group_of(b""), GroupId(0));
        assert_eq!(map.group_of(b"anything"), GroupId(0));
        // Degenerate inputs clamp rather than divide by zero.
        let zero = ShardMap::uniform(0);
        assert_eq!(zero.groups(), 1);
        assert_eq!(zero.group_of(b"k"), GroupId(0));
    }

    #[test]
    fn versions_totally_order_maps() {
        let old = ShardMap::uniform(2);
        let new = ShardMap {
            version: 5,
            partitioning: Partitioning::Hash { groups: 4 },
        };
        assert!(old.is_older_than(&new));
        assert!(!new.is_older_than(&old));
        assert!(!old.is_older_than(&old));
        assert_eq!(ShardMap::default(), ShardMap::uniform(1));
    }
}
