//! A deterministic replicated key-value store.
//!
//! Operations and results are encoded with a tiny self-describing binary
//! format (1-byte tag + length-prefixed fields) so that requests and replies
//! travel through the protocol as opaque byte strings, exactly like the
//! YCSB-style workloads the paper evaluates against.

use crate::state_machine::StateMachine;
use seemore_crypto::{Digest, Sha256};
use seemore_types::OpClass;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::ops::Range;

/// An operation against the key-value store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Store `value` under `key`, overwriting any previous value.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// Value to store.
        value: Vec<u8>,
    },
    /// Read the value stored under `key`.
    Get {
        /// Key to read.
        key: Vec<u8>,
    },
    /// Remove `key` and its value.
    Delete {
        /// Key to remove.
        key: Vec<u8>,
    },
    /// Read-modify-write: append `suffix` to the value stored under `key`
    /// (treating a missing value as empty).
    Append {
        /// Key to modify.
        key: Vec<u8>,
        /// Bytes appended to the current value.
        suffix: Vec<u8>,
    },
}

const TAG_PUT: u8 = 1;
const TAG_GET: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_APPEND: u8 = 4;

const RESULT_OK: u8 = 1;
const RESULT_VALUE: u8 = 2;
const RESULT_NOT_FOUND: u8 = 3;
const RESULT_ERROR: u8 = 4;

fn put_field(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_le_bytes());
    out.extend_from_slice(field);
}

fn take_u64(input: &mut &[u8]) -> Option<u64> {
    let (head, rest) = input.split_first_chunk::<8>()?;
    *input = rest;
    Some(u64::from_le_bytes(*head))
}

/// The next u32-length-prefixed field of `input`, borrowed.
fn take_slice<'a>(input: &mut &'a [u8]) -> Option<&'a [u8]> {
    let (head, rest) = input.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*head) as usize;
    if rest.len() < len {
        return None;
    }
    let (field, rest) = rest.split_at(len);
    *input = rest;
    Some(field)
}

fn take_field(input: &mut &[u8]) -> Option<Vec<u8>> {
    take_slice(input).map(<[u8]>::to_vec)
}

impl KvOp {
    /// Whether this operation mutates the store ([`OpClass::Write`]) or only
    /// observes it ([`OpClass::Read`]). `Get` is the only read; everything
    /// else — including the read-modify-write `Append` — must be ordered.
    pub fn class(&self) -> OpClass {
        match self {
            KvOp::Get { .. } => OpClass::Read,
            KvOp::Put { .. } | KvOp::Delete { .. } | KvOp::Append { .. } => OpClass::Write,
        }
    }

    /// Classifies an *encoded* operation without fully decoding it.
    ///
    /// Conservative: anything that is not a well-formed `Get` (unknown tags,
    /// malformed fields, trailing bytes) is classified as a write, so a
    /// Byzantine client cannot smuggle a mutation through the read path by
    /// mislabelling it.
    pub fn classify(bytes: &[u8]) -> OpClass {
        match KvOp::decode(bytes) {
            Some(op) => op.class(),
            None => OpClass::Write,
        }
    }

    /// Encodes the operation into the byte string carried by a `REQUEST`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvOp::Put { key, value } => {
                out.push(TAG_PUT);
                put_field(&mut out, key);
                put_field(&mut out, value);
            }
            KvOp::Get { key } => {
                out.push(TAG_GET);
                put_field(&mut out, key);
            }
            KvOp::Delete { key } => {
                out.push(TAG_DELETE);
                put_field(&mut out, key);
            }
            KvOp::Append { key, suffix } => {
                out.push(TAG_APPEND);
                put_field(&mut out, key);
                put_field(&mut out, suffix);
            }
        }
        out
    }

    /// Decodes an operation previously produced by [`encode`](Self::encode).
    ///
    /// Returns `None` for malformed input (a Byzantine client could send
    /// arbitrary bytes; the store replies with an error result rather than
    /// diverging).
    pub fn decode(mut bytes: &[u8]) -> Option<KvOp> {
        let tag = *bytes.first()?;
        bytes = &bytes[1..];
        let op = match tag {
            TAG_PUT => KvOp::Put {
                key: take_field(&mut bytes)?,
                value: take_field(&mut bytes)?,
            },
            TAG_GET => KvOp::Get {
                key: take_field(&mut bytes)?,
            },
            TAG_DELETE => KvOp::Delete {
                key: take_field(&mut bytes)?,
            },
            TAG_APPEND => KvOp::Append {
                key: take_field(&mut bytes)?,
                suffix: take_field(&mut bytes)?,
            },
            _ => return None,
        };
        if bytes.is_empty() {
            Some(op)
        } else {
            None
        }
    }
}

/// The result of executing a [`KvOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvResult {
    /// The write / delete succeeded.
    Ok,
    /// A read returned this value.
    Value(
        /// The bytes stored under the requested key.
        Vec<u8>,
    ),
    /// The requested key does not exist.
    NotFound,
    /// The operation could not be decoded.
    MalformedOperation,
}

impl KvResult {
    /// Encodes the result into the byte string carried by a `REPLY`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            KvResult::Ok => out.push(RESULT_OK),
            KvResult::Value(value) => {
                out.push(RESULT_VALUE);
                put_field(&mut out, value);
            }
            KvResult::NotFound => out.push(RESULT_NOT_FOUND),
            KvResult::MalformedOperation => out.push(RESULT_ERROR),
        }
        out
    }

    /// Decodes a result previously produced by [`encode`](Self::encode).
    pub fn decode(mut bytes: &[u8]) -> Option<KvResult> {
        let tag = *bytes.first()?;
        bytes = &bytes[1..];
        let result = match tag {
            RESULT_OK => KvResult::Ok,
            RESULT_VALUE => KvResult::Value(take_field(&mut bytes)?),
            RESULT_NOT_FOUND => KvResult::NotFound,
            RESULT_ERROR => KvResult::MalformedOperation,
            _ => return None,
        };
        if bytes.is_empty() {
            Some(result)
        } else {
            None
        }
    }
}

/// One SHA-256 output: a bucket's hash or an interior node of the tree.
type Hash = [u8; 32];

/// The hash of a bucket no key maps to, and of a subtree holding only such
/// buckets. Not a SHA-256 output anyone can produce, so "empty" has exactly
/// one representation and a fresh store's all-zero tree is already correct.
const EMPTY: Hash = [0; 32];

/// Keys are spread over `BUCKETS` hash buckets, the leaves of the digest
/// tree. Fixed, not configurable: replicas can only compare digests computed
/// over the same tree shape.
const BUCKETS: usize = 1 << 14;
/// Children per interior node.
const FANOUT: usize = 16;
/// The interior levels, the one above the buckets first, each as `(offset
/// into Tree::nodes, node count)`: 1024, 64 and 4 nodes, then the root.
const LEVELS: [(usize, usize); 4] = {
    let mut levels = [(0, 0); 4];
    let (mut offset, mut count, mut level) = (0, BUCKETS, 0);
    while level < levels.len() {
        count = count.div_ceil(FANOUT);
        levels[level] = (offset, count);
        offset += count;
        level += 1;
    }
    levels
};
/// Interior nodes in total: 1093 x 32 B = 35 KB per store, whatever it holds.
const NODES: usize = LEVELS[LEVELS.len() - 1].0 + 1;

const _: () = {
    assert!(BUCKETS.is_power_of_two() && BUCKETS.is_multiple_of(GROUP));
    assert!(FANOUT <= 16, "a node's occupancy mask is u16");
    assert!(
        LEVELS[LEVELS.len() - 1].1 == 1,
        "the last level is the root"
    );
};

/// Domain separation between the three kinds of SHA-256 input.
const TAG_BUCKET: u8 = 0;
const TAG_NODE: u8 = 1;
const TAG_ROOT: &[u8] = b"seemore-kv/1";

/// The bucket a key lives in: 64-bit FNV-1a, xor-folded so that the well
/// mixed high half reaches the low bits the mask keeps.
fn bucket_of(key: &[u8]) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash ^ (hash >> 32)) as usize & (BUCKETS - 1)
}

/// Work done by [`KvStore::state_digest`] since the store was created (a
/// clone starts from its original's counts). Counts, not timings: they
/// repeat exactly for the same history of writes and digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DigestStats {
    /// Buckets whose entries were re-hashed.
    pub buckets_rehashed: u64,
    /// Bytes fed to SHA-256, over buckets, interior nodes and the root.
    pub bytes_hashed: u64,
}

/// A SHA-256 hasher that counts its input into a [`DigestStats`].
struct CountingHasher<'a> {
    sha: Sha256,
    stats: &'a mut DigestStats,
}

impl<'a> CountingHasher<'a> {
    fn new(stats: &'a mut DigestStats) -> Self {
        CountingHasher {
            sha: Sha256::new(),
            stats,
        }
    }

    fn update(&mut self, data: &[u8]) {
        self.stats.bytes_hashed += data.len() as u64;
        self.sha.update(data);
    }

    fn finalize(self) -> Hash {
        self.sha.finalize()
    }
}

/// The hash of a non-empty bucket: its entry count, then its `count` entries
/// in key order encoded as in [`Bucket::slab`], every field length-prefixed
/// so the encoding is injective.
fn hash_bucket(count: usize, entries: &[u8], stats: &mut DigestStats) -> Hash {
    stats.buckets_rehashed += 1;
    let mut hasher = CountingHasher::new(stats);
    hasher.update(&[TAG_BUCKET]);
    hasher.update(&(count as u64).to_le_bytes());
    hasher.update(entries);
    hasher.finalize()
}

/// The hash of an interior node: which of its children are not [`EMPTY`], as
/// a bit mask, then those children's hashes in order — so a node above a
/// sparsely filled part of the tree costs one SHA-256 block, not nine.
/// [`EMPTY`] when all children are.
fn hash_node(children: &[Hash], stats: &mut DigestStats) -> Hash {
    let mut occupied: u16 = 0;
    for (index, child) in children.iter().enumerate() {
        if *child != EMPTY {
            occupied |= 1 << index;
        }
    }
    if occupied == 0 {
        return EMPTY;
    }
    let mut hasher = CountingHasher::new(stats);
    hasher.update(&[TAG_NODE]);
    hasher.update(&occupied.to_le_bytes());
    for child in children.iter().filter(|child| **child != EMPTY) {
        hasher.update(child);
    }
    hasher.finalize()
}

/// The state digest: the root of the tree bound to the number of keys.
fn hash_root(keys: usize, root: &Hash, stats: &mut DigestStats) -> Digest {
    let mut hasher = CountingHasher::new(stats);
    hasher.update(TAG_ROOT);
    hasher.update(&(keys as u64).to_le_bytes());
    hasher.update(root);
    Digest::from_bytes(hasher.finalize())
}

/// Bytes of the length field before each key and each value in a slab.
const LEN: usize = 8;

/// Reads the length field at `at` of a slab.
fn read_len(slab: &[u8], at: usize) -> usize {
    let field: [u8; LEN] = slab[at..at + LEN].try_into().expect("a whole field");
    u64::from_le_bytes(field) as usize
}

fn len_field(len: usize) -> [u8; LEN] {
    (len as u64).to_le_bytes()
}

/// The keys of one hash bucket with their values. Only non-empty buckets
/// exist.
#[derive(Debug, Clone, Default)]
struct Bucket {
    /// The entries, sorted by key, each `[key len u64][key][value len
    /// u64][value]` (little-endian): byte for byte what [`hash_bucket`]
    /// hashes. Its capacity is its length.
    slab: Vec<u8>,
    /// Number of entries in `slab`.
    count: usize,
    /// `hash_bucket(count, slab)` as of the last digest that found the
    /// bucket dirty; stale while the bucket's dirty bit is set.
    hash: Cell<Hash>,
}

/// Buckets per [`Group`]: the bits of its mask, and of a word of
/// [`Tree::dirty`].
const GROUP: usize = 64;

/// `GROUP` consecutive bucket ids, of which only the non-empty buckets are
/// stored, so a store's memory follows what it holds.
#[derive(Debug, Clone, Default)]
struct Group {
    /// Bit `i` is set while bucket `i` of the group holds a key.
    occupied: u64,
    /// The occupied buckets in id order.
    buckets: Vec<Bucket>,
}

impl Group {
    fn holds(&self, bit: usize) -> bool {
        self.occupied >> bit & 1 == 1
    }

    /// Where bucket `bit` is, or would go, in `buckets`.
    fn index(&self, bit: usize) -> usize {
        (self.occupied & ((1 << bit) - 1)).count_ones() as usize
    }

    fn bucket(&self, bit: usize) -> Option<&Bucket> {
        self.holds(bit).then(|| &self.buckets[self.index(bit)])
    }
}

impl Bucket {
    /// Where in the slab the entry for `key` starts, or where it would go to
    /// keep the slab in key order. A walk, not a bisection: entries of
    /// varying length have no index to bisect, and a bucket holds about 2.4.
    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        let mut at = 0;
        while at < self.slab.len() {
            let (value_len_at, value) = self.value_span(at);
            match self.slab[at + LEN..value_len_at].cmp(key) {
                Ordering::Less => at = value.end,
                Ordering::Equal => return Ok(at),
                Ordering::Greater => break,
            }
        }
        Err(at)
    }

    /// For the entry starting at `at`: where its value length field is, and
    /// where its value is.
    fn value_span(&self, at: usize) -> (usize, Range<usize>) {
        let value_len_at = at + LEN + read_len(&self.slab, at);
        let start = value_len_at + LEN;
        (
            value_len_at,
            start..start + read_len(&self.slab, value_len_at),
        )
    }

    /// The value of the entry starting at `at`.
    fn value(&self, at: usize) -> &[u8] {
        &self.slab[self.value_span(at).1]
    }

    /// The entries in key order.
    fn entries(&self) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut rest = self.slab.as_slice();
        std::iter::from_fn(move || {
            let mut field = || {
                let (len, tail) = rest.split_first_chunk::<LEN>()?;
                let (field, tail) = tail.split_at(u64::from_le_bytes(*len) as usize);
                rest = tail;
                Some(field)
            };
            Some((field()?, field()?))
        })
    }

    /// Replaces `slab[range]` by `parts`, one after the other, leaving the
    /// slab's capacity at its length: buckets hold a handful of entries and
    /// there are thousands of them, so slack would strand more memory than
    /// the entries use.
    fn splice(&mut self, range: Range<usize>, parts: &[&[u8]]) {
        let added: usize = parts.iter().map(|part| part.len()).sum();
        let old_len = self.slab.len();
        let len = old_len - range.len() + added;
        if len > old_len {
            self.slab.reserve_exact(len - old_len);
            self.slab.resize(len, 0);
        }
        self.slab
            .copy_within(range.end..old_len, range.start + added);
        if len < old_len {
            self.slab.truncate(len);
            self.slab.shrink_to_fit();
        }
        let mut at = range.start;
        for part in parts {
            self.slab[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
    }

    fn write_len(&mut self, at: usize, len: usize) {
        self.slab[at..at + LEN].copy_from_slice(&len_field(len));
    }

    /// Inserts a new entry at `at`, a place [`search`](Self::search)
    /// returned for its key.
    fn insert(&mut self, at: usize, key: &[u8], value: &[u8]) {
        self.splice(
            at..at,
            &[&len_field(key.len()), key, &len_field(value.len()), value],
        );
        self.count += 1;
    }

    /// Replaces the value of the entry starting at `at`: in place when the
    /// length is unchanged.
    fn set_value(&mut self, at: usize, value: &[u8]) {
        let (value_len_at, old) = self.value_span(at);
        if old.len() == value.len() {
            self.slab[old].copy_from_slice(value);
        } else {
            self.splice(old, &[value]);
            self.write_len(value_len_at, value.len());
        }
    }

    /// Appends `suffix` to the value of the entry starting at `at`.
    fn extend_value(&mut self, at: usize, suffix: &[u8]) {
        let (value_len_at, value) = self.value_span(at);
        self.splice(value.end..value.end, &[suffix]);
        self.write_len(value_len_at, value.len() + suffix.len());
    }

    /// Removes the entry starting at `at`.
    fn remove(&mut self, at: usize) {
        let end = self.value_span(at).1.end;
        self.splice(at..end, &[]);
        self.count -= 1;
    }
}

/// Everything [`KvStore::state_digest`] keeps between calls, apart from the
/// per-bucket hashes.
#[derive(Debug, Clone)]
struct Tree {
    /// One bit per bucket id: written since its hash was last computed.
    dirty: Vec<u64>,
    /// The interior nodes, laid out by [`LEVELS`]. Correct for every node
    /// with no dirty bucket below it.
    nodes: Vec<Hash>,
    /// The digest, while no bucket is dirty.
    digest: Option<Digest>,
    stats: DigestStats,
}

impl Default for Tree {
    fn default() -> Self {
        Tree {
            dirty: vec![0; BUCKETS / GROUP],
            nodes: vec![EMPTY; NODES],
            digest: None,
            stats: DigestStats::default(),
        }
    }
}

/// Appends `parent` to an ascending list of node indices unless it is
/// already its last element.
fn push_parent(parents: &mut Vec<usize>, parent: usize) {
    if parents.last() != Some(&parent) {
        parents.push(parent);
    }
}

/// A deterministic, in-memory key-value store.
///
/// Keys live in hash buckets, the leaves of a Merkle tree whose root is the
/// [state digest](StateMachine::state_digest); a bucket keeps its entries in
/// key order in one byte slab (see the crate docs for the shape, the memory
/// per key and the reasons). Writes only mark their bucket dirty;
/// the digest re-hashes the dirty buckets and the nodes above them, so it
/// costs in proportion to what changed since it was last taken, and it is a
/// function of the content alone — not of the order of writes, nor of
/// whether the store executed them, was cloned or was restored from a
/// snapshot.
#[derive(Debug, Clone)]
pub struct KvStore {
    /// `BUCKETS / GROUP` groups (8 KB), bucket `id` in group `id / GROUP`.
    groups: Vec<Group>,
    /// Number of keys over all groups.
    keys: usize,
    executed: u64,
    /// Interior-mutable because `state_digest` takes `&self`; writers reach
    /// it through `get_mut`, so marking a bucket costs no borrow check.
    tree: RefCell<Tree>,
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore {
            groups: vec![Group::default(); BUCKETS / GROUP],
            keys: 0,
            executed: 0,
            tree: RefCell::default(),
        }
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore::default()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.keys
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Direct read access (not part of the replicated interface; used by
    /// tests and examples to inspect state).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let bucket = self.bucket(bucket_of(key))?;
        Some(bucket.value(bucket.search(key).ok()?))
    }

    /// What [`state_digest`](StateMachine::state_digest) has hashed so far.
    pub fn digest_stats(&self) -> DigestStats {
        self.tree.borrow().stats
    }

    /// Applies a decoded operation.
    pub fn apply(&mut self, op: KvOp) -> KvResult {
        match op {
            KvOp::Put { key, value } => {
                self.write(&key, &value, Bucket::set_value);
                KvResult::Ok
            }
            KvOp::Get { key } => match self.get(&key) {
                Some(value) => KvResult::Value(value.to_vec()),
                None => KvResult::NotFound,
            },
            KvOp::Delete { key } => {
                let id = bucket_of(&key);
                let (group, bit) = (&mut self.groups[id / GROUP], id % GROUP);
                if !group.holds(bit) {
                    return KvResult::NotFound;
                }
                let index = group.index(bit);
                let bucket = &mut group.buckets[index];
                let Ok(at) = bucket.search(&key) else {
                    return KvResult::NotFound;
                };
                bucket.remove(at);
                if bucket.count == 0 {
                    group.buckets.remove(index);
                    group.occupied &= !(1 << bit);
                    if group.occupied == 0 {
                        group.buckets = Vec::new();
                    }
                }
                self.keys -= 1;
                self.mark_dirty(id);
                KvResult::Ok
            }
            KvOp::Append { key, suffix } => {
                self.write(&key, &suffix, Bucket::extend_value);
                KvResult::Ok
            }
        }
    }

    /// Writes `bytes` under `key`: through `update` if the key is stored, as
    /// its value if it is new. Marks the key's bucket dirty.
    fn write(&mut self, key: &[u8], bytes: &[u8], update: fn(&mut Bucket, usize, &[u8])) {
        let id = bucket_of(key);
        self.mark_dirty(id);
        let (group, bit) = (&mut self.groups[id / GROUP], id % GROUP);
        let index = group.index(bit);
        if !group.holds(bit) {
            group.buckets.insert(index, Bucket::default());
            group.occupied |= 1 << bit;
        }
        let bucket = &mut group.buckets[index];
        match bucket.search(key) {
            Ok(at) => update(bucket, at, bytes),
            Err(at) => {
                bucket.insert(at, key, bytes);
                self.keys += 1;
            }
        }
    }

    fn bucket(&self, id: usize) -> Option<&Bucket> {
        self.groups[id / GROUP].bucket(id % GROUP)
    }

    fn mark_dirty(&mut self, bucket: usize) {
        let tree = self.tree.get_mut();
        tree.dirty[bucket / GROUP] |= 1 << (bucket % GROUP);
        tree.digest = None;
    }

    /// Brings the tree up to date: re-hashes every dirty bucket, then, level
    /// by level, the interior nodes above them.
    fn rehash(&self, tree: &mut Tree) -> Digest {
        let Tree {
            dirty,
            nodes,
            stats,
            ..
        } = tree;
        // Node indices of the level being worked on that have a changed
        // child, ascending.
        let mut stale = Vec::new();
        for (word_index, word) in dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let id = word_index * GROUP + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // A dirty bucket that no longer exists was emptied: the
                // node above reads a missing bucket as `EMPTY`.
                if let Some(bucket) = self.bucket(id) {
                    bucket
                        .hash
                        .set(hash_bucket(bucket.count, &bucket.slab, stats));
                }
                push_parent(&mut stale, id / FANOUT);
            }
        }
        for (level, &(offset, _)) in LEVELS.iter().enumerate() {
            let mut parents = Vec::new();
            for &node in &stale {
                let mut children = [EMPTY; FANOUT];
                let mut count = FANOUT;
                if level == 0 {
                    for (i, child) in children.iter_mut().enumerate() {
                        if let Some(bucket) = self.bucket(node * FANOUT + i) {
                            *child = bucket.hash.get();
                        }
                    }
                } else {
                    let (below, below_len) = LEVELS[level - 1];
                    count = FANOUT.min(below_len - node * FANOUT);
                    let start = below + node * FANOUT;
                    children[..count].copy_from_slice(&nodes[start..start + count]);
                }
                nodes[offset + node] = hash_node(&children[..count], stats);
                push_parent(&mut parents, node / FANOUT);
            }
            stale = parents;
        }
        hash_root(self.keys, &nodes[NODES - 1], stats)
    }

    /// Decodes a whole snapshot into a new store, or `None` if any field is
    /// truncated, the entry count is wrong or bytes are left over.
    fn decode_snapshot(mut input: &[u8]) -> Option<KvStore> {
        let mut store = KvStore {
            executed: take_u64(&mut input)?,
            ..KvStore::default()
        };
        for _ in 0..take_u64(&mut input)? {
            let key = take_slice(&mut input)?;
            store.write(key, take_slice(&mut input)?, Bucket::set_value);
        }
        input.is_empty().then_some(store)
    }
}

#[cfg(test)]
impl KvStore {
    /// The reference the incremental digest is tested against: the same tree
    /// computed from the entries alone, every bucket and every node, reading
    /// no cached hash, no dirty bit, not even which bucket an entry is stored
    /// in, and no slab: it encodes each bucket's `(key, value)` pairs itself.
    fn digest_from_scratch(&self) -> Digest {
        let mut stats = DigestStats::default();
        let mut by_bucket = std::collections::BTreeMap::<usize, Vec<(Vec<u8>, Vec<u8>)>>::new();
        for group in &self.groups {
            for (key, value) in group.buckets.iter().flat_map(Bucket::entries) {
                by_bucket
                    .entry(bucket_of(key))
                    .or_default()
                    .push((key.to_vec(), value.to_vec()));
            }
        }
        let keys = by_bucket.values().map(Vec::len).sum();
        let mut level: Vec<Hash> = (0..BUCKETS)
            .map(|id| match by_bucket.get_mut(&id) {
                Some(entries) => {
                    entries.sort();
                    let mut encoded = Vec::new();
                    for (key, value) in entries.iter() {
                        for field in [key, value] {
                            encoded.extend_from_slice(&(field.len() as u64).to_le_bytes());
                            encoded.extend_from_slice(field);
                        }
                    }
                    hash_bucket(entries.len(), &encoded, &mut stats)
                }
                None => EMPTY,
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(FANOUT)
                .map(|children| hash_node(children, &mut stats))
                .collect();
        }
        hash_root(keys, &level[0], &mut stats)
    }
}

impl StateMachine for KvStore {
    fn execute(&mut self, op: &[u8]) -> Vec<u8> {
        self.executed += 1;
        match KvOp::decode(op) {
            Some(op) => self.apply(op).encode(),
            None => KvResult::MalformedOperation.encode(),
        }
    }

    fn execute_read(&self, op: &[u8]) -> Option<Vec<u8>> {
        // Only a well-formed `Get` is served without ordering; every other
        // operation (or garbage) is refused so it cannot bypass agreement.
        match KvOp::decode(op) {
            Some(KvOp::Get { key }) => {
                let result = match self.get(&key) {
                    Some(value) => KvResult::Value(value.to_vec()),
                    None => KvResult::NotFound,
                };
                Some(result.encode())
            }
            _ => None,
        }
    }

    fn state_digest(&self) -> Digest {
        let mut tree = self.tree.borrow_mut();
        if let Some(digest) = tree.digest {
            return digest;
        }
        let digest = self.rehash(&mut tree);
        tree.digest = Some(digest);
        digest
    }

    fn snapshot(&self) -> Vec<u8> {
        // In key order, as every build has written it, not in bucket order.
        let mut entries: Vec<(&[u8], &[u8])> = self
            .groups
            .iter()
            .flat_map(|group| &group.buckets)
            .flat_map(Bucket::entries)
            .collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut out = Vec::new();
        out.extend_from_slice(&self.executed.to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, value) in entries {
            put_field(&mut out, key);
            put_field(&mut out, value);
        }
        out
    }

    fn restore(&mut self, snapshot: &[u8]) {
        // All or nothing: a snapshot that does not parse to its last byte
        // leaves the state, the execution count and the digest cache alone.
        if let Some(mut restored) = KvStore::decode_snapshot(snapshot) {
            restored.tree.get_mut().stats = self.digest_stats();
            *self = restored;
        }
    }

    fn executed_count(&self) -> u64 {
        self.executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_is_conservative() {
        assert_eq!(KvOp::Get { key: b"k".to_vec() }.class(), OpClass::Read);
        assert_eq!(
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec()
            }
            .class(),
            OpClass::Write
        );
        assert_eq!(KvOp::Delete { key: b"k".to_vec() }.class(), OpClass::Write);
        assert_eq!(
            KvOp::Append {
                key: b"k".to_vec(),
                suffix: b"s".to_vec()
            }
            .class(),
            OpClass::Write
        );
        // Encoded classification agrees with the decoded one.
        assert_eq!(
            KvOp::classify(&KvOp::Get { key: b"k".to_vec() }.encode()),
            OpClass::Read
        );
        // Garbage, truncated and trailing-byte encodings are writes.
        assert_eq!(KvOp::classify(&[]), OpClass::Write);
        assert_eq!(KvOp::classify(&[99, 1, 2]), OpClass::Write);
        let mut with_trailing = KvOp::Get { key: b"k".to_vec() }.encode();
        with_trailing.push(0);
        assert_eq!(KvOp::classify(&with_trailing), OpClass::Write);
    }

    #[test]
    fn execute_read_serves_gets_without_mutating() {
        let mut store = KvStore::new();
        store.execute(
            &KvOp::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            }
            .encode(),
        );
        let digest_before = store.state_digest();
        let executed_before = store.executed_count();

        let hit = store
            .execute_read(&KvOp::Get { key: b"a".to_vec() }.encode())
            .expect("well-formed get is served");
        assert_eq!(KvResult::decode(&hit), Some(KvResult::Value(b"1".to_vec())));
        let miss = store
            .execute_read(&KvOp::Get { key: b"z".to_vec() }.encode())
            .expect("misses are still served");
        assert_eq!(KvResult::decode(&miss), Some(KvResult::NotFound));

        // Writes, read-modify-writes and garbage are refused.
        assert!(store
            .execute_read(
                &KvOp::Put {
                    key: b"a".to_vec(),
                    value: b"2".to_vec()
                }
                .encode()
            )
            .is_none());
        assert!(store
            .execute_read(
                &KvOp::Append {
                    key: b"a".to_vec(),
                    suffix: b"x".to_vec()
                }
                .encode()
            )
            .is_none());
        assert!(store.execute_read(b"\xffgarbage").is_none());

        // Reads left no trace: digest and execution count are untouched.
        assert_eq!(store.state_digest(), digest_before);
        assert_eq!(store.executed_count(), executed_before);
    }

    #[test]
    fn op_encode_decode_round_trip() {
        let ops = vec![
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            KvOp::Get {
                key: b"key".to_vec(),
            },
            KvOp::Delete { key: vec![] },
            KvOp::Append {
                key: b"log".to_vec(),
                suffix: b"entry".to_vec(),
            },
        ];
        for op in ops {
            assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }
    }

    #[test]
    fn result_encode_decode_round_trip() {
        let results = vec![
            KvResult::Ok,
            KvResult::Value(b"payload".to_vec()),
            KvResult::NotFound,
            KvResult::MalformedOperation,
        ];
        for result in results {
            assert_eq!(KvResult::decode(&result.encode()), Some(result));
        }
    }

    #[test]
    fn malformed_encodings_are_rejected() {
        assert_eq!(KvOp::decode(&[]), None);
        assert_eq!(KvOp::decode(&[99]), None);
        assert_eq!(KvOp::decode(&[TAG_PUT, 4, 0, 0, 0, b'a']), None);
        // Trailing bytes are rejected.
        let mut encoded = KvOp::Get { key: b"k".to_vec() }.encode();
        encoded.push(0);
        assert_eq!(KvOp::decode(&encoded), None);
        assert_eq!(KvResult::decode(&[]), None);
        assert_eq!(KvResult::decode(&[99]), None);
    }

    #[test]
    fn store_put_get_delete_semantics() {
        let mut store = KvStore::new();
        assert!(store.is_empty());
        assert_eq!(
            store.apply(KvOp::Get { key: b"a".to_vec() }),
            KvResult::NotFound
        );
        assert_eq!(
            store.apply(KvOp::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec()
            }),
            KvResult::Ok
        );
        assert_eq!(
            store.apply(KvOp::Get { key: b"a".to_vec() }),
            KvResult::Value(b"1".to_vec())
        );
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.apply(KvOp::Delete { key: b"a".to_vec() }),
            KvResult::Ok
        );
        assert_eq!(
            store.apply(KvOp::Delete { key: b"a".to_vec() }),
            KvResult::NotFound
        );
        assert!(store.get(b"a").is_none());
    }

    #[test]
    fn append_treats_missing_value_as_empty() {
        let mut store = KvStore::new();
        store.apply(KvOp::Append {
            key: b"log".to_vec(),
            suffix: b"a".to_vec(),
        });
        store.apply(KvOp::Append {
            key: b"log".to_vec(),
            suffix: b"b".to_vec(),
        });
        assert_eq!(store.get(b"log"), Some(&b"ab"[..]));
    }

    #[test]
    fn execute_counts_and_handles_garbage() {
        let mut store = KvStore::new();
        let result = store.execute(
            &KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .encode(),
        );
        assert_eq!(KvResult::decode(&result), Some(KvResult::Ok));
        let result = store.execute(b"\xffgarbage");
        assert_eq!(
            KvResult::decode(&result),
            Some(KvResult::MalformedOperation)
        );
        assert_eq!(store.executed_count(), 2);
    }

    #[test]
    fn state_digest_reflects_content_not_history() {
        let mut a = KvStore::new();
        a.execute(
            &KvOp::Put {
                key: b"x".to_vec(),
                value: b"1".to_vec(),
            }
            .encode(),
        );
        a.execute(
            &KvOp::Put {
                key: b"y".to_vec(),
                value: b"2".to_vec(),
            }
            .encode(),
        );

        let mut b = KvStore::new();
        b.execute(
            &KvOp::Put {
                key: b"y".to_vec(),
                value: b"2".to_vec(),
            }
            .encode(),
        );
        b.execute(
            &KvOp::Put {
                key: b"x".to_vec(),
                value: b"1".to_vec(),
            }
            .encode(),
        );

        // Same content, different insertion order -> same digest.
        assert_eq!(a.state_digest(), b.state_digest());

        b.execute(&KvOp::Delete { key: b"x".to_vec() }.encode());
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut original = KvStore::new();
        for i in 0..100u32 {
            original.execute(
                &KvOp::Put {
                    key: format!("key-{i}").into_bytes(),
                    value: vec![i as u8; (i % 17) as usize],
                }
                .encode(),
            );
        }
        let snapshot = original.snapshot();

        let mut restored = KvStore::new();
        restored.restore(&snapshot);
        assert_eq!(restored.state_digest(), original.state_digest());
        assert_eq!(restored.executed_count(), original.executed_count());
        assert_eq!(restored.len(), original.len());

        // Restoring garbage leaves the store untouched.
        let mut untouched = KvStore::new();
        untouched.restore(&[1, 2, 3]);
        assert!(untouched.is_empty());
    }

    fn put(store: &mut KvStore, key: &[u8], value: &[u8]) {
        store.execute(
            &KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            }
            .encode(),
        );
    }

    #[test]
    fn restore_is_all_or_nothing() {
        let mut source = KvStore::new();
        for i in 0..20u8 {
            put(&mut source, &[b'k', i], &[i; 9]);
        }
        let good = source.snapshot();

        let mut truncated = good.clone();
        truncated.truncate(good.len() - 3);
        let mut over_counted = good.clone();
        over_counted[8..16].copy_from_slice(&21u64.to_le_bytes());
        let mut under_counted = good.clone();
        under_counted[8..16].copy_from_slice(&19u64.to_le_bytes());
        let mut trailing = good.clone();
        trailing.push(0);
        let header_only = good[..12].to_vec();

        let mut store = KvStore::new();
        put(&mut store, b"mine", b"1");
        put(&mut store, b"also mine", b"2");
        let digest = store.state_digest();
        let stats = store.digest_stats();
        for bad in [
            truncated,
            over_counted,
            under_counted,
            trailing,
            header_only,
        ] {
            store.restore(&bad);
            assert_eq!(store.len(), 2);
            assert_eq!(store.get(b"mine"), Some(&b"1"[..]));
            assert_eq!(store.executed_count(), 2);
            // The cache was left alone too: still valid, nothing to re-hash.
            assert_eq!(store.state_digest(), digest);
            assert_eq!(store.digest_stats(), stats);
            assert_eq!(store.digest_from_scratch(), digest);
        }

        store.restore(&good);
        assert_eq!(store.len(), 20);
        assert!(store.get(b"mine").is_none());
        assert_eq!(store.executed_count(), 20);
        assert_eq!(store.state_digest(), source.state_digest());
        assert_eq!(store.state_digest(), store.digest_from_scratch());
    }

    /// `count` distinct keys that all live in one bucket.
    fn colliding_keys(count: usize) -> Vec<Vec<u8>> {
        let target = bucket_of(b"seed");
        (0u32..)
            .map(|i| format!("collide-{i}").into_bytes())
            .filter(|key| bucket_of(key) == target)
            .take(count)
            .collect()
    }

    #[test]
    fn keys_sharing_a_bucket_hash_in_key_order() {
        let keys = colliding_keys(4);
        let mut forward = KvStore::new();
        for key in &keys {
            put(&mut forward, key, b"v");
        }
        let mut backward = KvStore::new();
        for key in keys.iter().rev() {
            put(&mut backward, key, b"v");
            backward.state_digest();
        }
        assert_eq!(forward.state_digest(), backward.state_digest());
        assert_eq!(forward.state_digest(), forward.digest_from_scratch());
        // One bucket, re-hashed once here and once per write there.
        assert_eq!(forward.digest_stats().buckets_rehashed, 1);
        assert_eq!(backward.digest_stats().buckets_rehashed, 4);

        // Removing one of them changes the digest; putting it back restores it.
        let full = forward.state_digest();
        forward.execute(
            &KvOp::Delete {
                key: keys[1].clone(),
            }
            .encode(),
        );
        assert_ne!(forward.state_digest(), full);
        assert_eq!(forward.state_digest(), forward.digest_from_scratch());
        put(&mut forward, &keys[1], b"v");
        assert_eq!(forward.state_digest(), full);
        for key in &keys {
            assert_eq!(forward.get(key), Some(&b"v"[..]));
        }
    }

    #[test]
    fn an_emptied_bucket_beside_an_occupied_one_reads_as_empty() {
        // Three keys in three buckets of one group, the one that stays in
        // the middle: deleting the others empties their buckets, before and
        // after it in the group's vector, while the group lives on.
        let stays = b"seed".to_vec();
        let home = bucket_of(&stays);
        let neighbour = |wanted: fn(usize, usize) -> bool| {
            (0u32..)
                .map(|i| format!("neighbour-{i}").into_bytes())
                .find(|key| {
                    let id = bucket_of(key);
                    id / GROUP == home / GROUP && wanted(id, home)
                })
                .unwrap()
        };
        let below = neighbour(|id, home| id < home);
        let above = neighbour(|id, home| id > home);

        let mut alone = KvStore::new();
        put(&mut alone, &stays, b"v");
        let mut store = KvStore::new();
        put(&mut store, &above, b"a");
        put(&mut store, &stays, b"v");
        put(&mut store, &below, b"b");
        assert_ne!(store.state_digest(), alone.state_digest());
        for goes in [below, above] {
            store.execute(&KvOp::Delete { key: goes }.encode());
            assert_eq!(store.get(&stays), Some(&b"v"[..]));
            assert_eq!(store.state_digest(), store.digest_from_scratch());
        }
        assert_eq!(store.state_digest(), alone.state_digest());
    }

    #[test]
    fn emptied_store_digests_like_a_new_one() {
        let fresh = KvStore::new().state_digest();
        let mut store = KvStore::new();
        for i in 0..300u32 {
            put(&mut store, &i.to_le_bytes(), b"x");
        }
        assert_ne!(store.state_digest(), fresh);
        for i in 0..300u32 {
            store.execute(
                &KvOp::Delete {
                    key: i.to_le_bytes().to_vec(),
                }
                .encode(),
            );
        }
        assert!(store.is_empty());
        assert_eq!(store.state_digest(), fresh);
        assert_eq!(store.state_digest(), store.digest_from_scratch());
        // Memory follows content: no group outlives its last key.
        assert!(store
            .groups
            .iter()
            .all(|group| group.buckets.capacity() == 0));
    }

    #[test]
    fn a_clean_digest_hashes_nothing_and_a_write_only_its_path() {
        let mut store = KvStore::new();
        for i in 0..5_000u32 {
            put(&mut store, format!("key{i:08}").as_bytes(), &[7; 100]);
        }
        store.state_digest();
        let after_build = store.digest_stats();
        assert_eq!(store.state_digest(), store.digest_from_scratch());
        assert_eq!(store.digest_stats(), after_build);

        put(&mut store, b"key00000042", &[8; 100]);
        assert_eq!(store.state_digest(), store.digest_from_scratch());
        let after_write = store.digest_stats();
        assert_eq!(
            after_write.buckets_rehashed,
            after_build.buckets_rehashed + 1
        );
        // The bucket's few entries, one node per level, the root.
        assert!(after_write.bytes_hashed - after_build.bytes_hashed < 4_096);
    }

    #[test]
    fn sequential_keys_spread_over_the_buckets() {
        let mut per_bucket = vec![0u32; BUCKETS];
        for i in 0..40_000u32 {
            per_bucket[bucket_of(format!("key{i:08}").as_bytes())] += 1;
        }
        let occupied = per_bucket.iter().filter(|&&count| count > 0).count();
        // A uniform hash leaves e^-2.44 of the buckets empty: ~14 950 occupied.
        assert!((14_000..16_000).contains(&occupied), "{occupied} occupied");
        assert!(*per_bucket.iter().max().unwrap() <= 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = KvOp> {
        let key = proptest::collection::vec(any::<u8>(), 0..16);
        let value = proptest::collection::vec(any::<u8>(), 0..64);
        prop_oneof![
            (key.clone(), value.clone()).prop_map(|(key, value)| KvOp::Put { key, value }),
            key.clone().prop_map(|key| KvOp::Get { key }),
            key.clone().prop_map(|key| KvOp::Delete { key }),
            (key, value).prop_map(|(key, suffix)| KvOp::Append { key, suffix }),
        ]
    }

    /// One move in a random life of a store.
    #[derive(Debug, Clone)]
    enum Step {
        /// Execute these bytes: an encoded operation or garbage.
        Execute(Vec<u8>),
        /// Serve these bytes through the read path.
        Read(Vec<u8>),
        /// Take the digest and hold it against the from-scratch reference.
        Digest,
        /// Clone the store, set one of the two aside with its digest and keep
        /// writing to the other.
        Fork,
        /// Replace the store by one restored from its own snapshot.
        Reload,
    }

    /// Keys from a small space, so that operations meet each other.
    fn arb_small_op() -> impl Strategy<Value = KvOp> {
        let key = proptest::collection::vec(0u8..6, 0..3);
        let value = proptest::collection::vec(any::<u8>(), 0..24);
        (0u8..4, key, value).prop_map(|(kind, key, value)| match kind {
            0 => KvOp::Put { key, value },
            1 => KvOp::Get { key },
            2 => KvOp::Delete { key },
            _ => KvOp::Append { key, suffix: value },
        })
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let garbage = proptest::collection::vec(any::<u8>(), 0..12);
        (0u8..12, arb_small_op(), garbage).prop_map(|(kind, op, garbage)| match kind {
            0..=5 => Step::Execute(op.encode()),
            6 => Step::Execute(garbage),
            7 => Step::Read(op.encode()),
            8 | 9 => Step::Digest,
            10 => Step::Fork,
            _ => Step::Reload,
        })
    }

    /// The empty key and nine more that `bucket_of` puts in its bucket, so
    /// that every operation of the model test below meets the others in one
    /// slab. Random small keys almost never share one of 16 384 buckets.
    fn one_bucket_keys() -> &'static [Vec<u8>] {
        static KEYS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        KEYS.get_or_init(|| {
            let home = bucket_of(&[]);
            let mut keys = vec![Vec::new()];
            keys.extend(
                (0u32..)
                    .map(|i| format!("k{i}").into_bytes())
                    .filter(|key| bucket_of(key) == home)
                    .take(9),
            );
            keys
        })
    }

    /// What `snapshot` must write for `model`: the execution count, the key
    /// count and the entries in key order, fields u32-length-prefixed.
    fn expected_snapshot(
        executed: u64,
        model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    ) -> Vec<u8> {
        let mut out = executed.to_le_bytes().to_vec();
        out.extend_from_slice(&(model.len() as u64).to_le_bytes());
        for (key, value) in model {
            put_field(&mut out, key);
            put_field(&mut out, value);
        }
        out
    }

    /// An operation on a key of [`one_bucket_keys`], with a value or suffix of
    /// 0 to 5 bytes: a `Put` keeps, grows or shrinks the stored length about
    /// as often each, and an empty suffix appends nothing.
    fn arb_one_bucket_op() -> impl Strategy<Value = KvOp> {
        let value = proptest::collection::vec(any::<u8>(), 0..6);
        (0u8..7, 0usize..10, value).prop_map(|(kind, index, value)| {
            let key = one_bucket_keys()[index].clone();
            match kind {
                0 | 1 => KvOp::Put { key, value },
                2 => KvOp::Get { key },
                3 => KvOp::Delete { key },
                _ => KvOp::Append { key, suffix: value },
            }
        })
    }

    proptest! {
        /// The cached digest equals the full recompute wherever it is taken
        /// in a history of writes, garbage, reads, clones and restores; reads
        /// dirty nothing; a clone's digest is its own.
        #[test]
        fn incremental_digest_equals_recompute(steps in proptest::collection::vec(arb_step(), 0..96)) {
            let mut store = KvStore::new();
            let mut forks: Vec<(KvStore, Digest)> = Vec::new();
            for step in steps {
                match step {
                    Step::Execute(bytes) => {
                        store.execute(&bytes);
                    }
                    Step::Read(bytes) => {
                        let before = (store.state_digest(), store.digest_stats());
                        store.execute_read(&bytes);
                        prop_assert_eq!((store.state_digest(), store.digest_stats()), before);
                    }
                    Step::Digest => {
                        prop_assert_eq!(store.state_digest(), store.digest_from_scratch());
                    }
                    Step::Fork => {
                        // Set one of the two aside, the original and the
                        // clone by turns, and keep writing to the other.
                        let mut aside = store.clone();
                        if forks.len() % 2 == 1 {
                            std::mem::swap(&mut aside, &mut store);
                        }
                        let digest = aside.digest_from_scratch();
                        forks.push((aside, digest));
                    }
                    Step::Reload => {
                        let mut reloaded = KvStore::new();
                        reloaded.restore(&store.snapshot());
                        prop_assert_eq!(reloaded.state_digest(), store.digest_from_scratch());
                        prop_assert_eq!(reloaded.executed_count(), store.executed_count());
                        store = reloaded;
                    }
                }
            }
            prop_assert_eq!(store.state_digest(), store.digest_from_scratch());
            // Whatever its twin went on to write, each store set aside still
            // digests to what it held then.
            for (fork, digest) in &forks {
                prop_assert_eq!(fork.state_digest(), *digest);
                prop_assert_eq!(fork.digest_from_scratch(), *digest);
            }
        }

        /// Same keys and values, same digest: whatever the order of the
        /// writes, the detours through keys since deleted, and the points at
        /// which digests were taken on the way.
        #[test]
        fn digest_depends_on_content_only(
            content in proptest::collection::vec(
                (proptest::collection::vec(0u8..6, 0..3), proptest::collection::vec(any::<u8>(), 0..24)),
                0..48,
            ),
            detours in proptest::collection::vec(proptest::collection::vec(6u8..9, 1..3), 0..8),
        ) {
            // Later pairs overwrite earlier ones with the same key.
            let content: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = content.into_iter().collect();

            let mut direct = KvStore::new();
            for (key, value) in &content {
                direct.apply(KvOp::Put { key: key.clone(), value: value.clone() });
            }

            let mut winding = KvStore::new();
            for key in &detours {
                winding.apply(KvOp::Append { key: key.clone(), suffix: b"gone soon".to_vec() });
            }
            for (i, (key, value)) in content.iter().rev().enumerate() {
                let (head, tail) = value.split_at(value.len() / 2);
                winding.apply(KvOp::Put { key: key.clone(), value: head.to_vec() });
                if i % 3 == 0 {
                    winding.state_digest();
                }
                winding.apply(KvOp::Append { key: key.clone(), suffix: tail.to_vec() });
            }
            for key in &detours {
                winding.apply(KvOp::Delete { key: key.clone() });
            }

            let mut restored = KvStore::new();
            restored.restore(&direct.snapshot());

            prop_assert_eq!(direct.state_digest(), winding.state_digest());
            prop_assert_eq!(direct.state_digest(), restored.state_digest());
            prop_assert_eq!(direct.state_digest(), direct.clone().state_digest());
            prop_assert_eq!(winding.state_digest(), winding.digest_from_scratch());
        }

        /// The packed buckets against a map: the same results for every
        /// operation on keys that share one bucket, and after every step the
        /// same value under every key, the same length, a digest equal to
        /// the from-scratch reference and a snapshot that restores to the
        /// same store.
        #[test]
        fn packed_buckets_match_a_map_model(ops in proptest::collection::vec(arb_one_bucket_op(), 0..96)) {
            let mut store = KvStore::new();
            let mut model = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
            for op in ops {
                let expected = match op.clone() {
                    KvOp::Put { key, value } => {
                        model.insert(key, value);
                        KvResult::Ok
                    }
                    KvOp::Get { key } => model.get(&key).map_or(KvResult::NotFound, |value| KvResult::Value(value.clone())),
                    KvOp::Delete { key } => model.remove(&key).map_or(KvResult::NotFound, |_| KvResult::Ok),
                    KvOp::Append { key, suffix } => {
                        model.entry(key).or_default().extend_from_slice(&suffix);
                        KvResult::Ok
                    }
                };
                prop_assert_eq!(store.execute(&op.encode()), expected.encode());
                for key in one_bucket_keys() {
                    prop_assert_eq!(store.get(key), model.get(key).map(Vec::as_slice));
                }
                prop_assert_eq!(store.len(), model.len());
                let digest = store.state_digest();
                prop_assert_eq!(digest, store.digest_from_scratch());

                let snapshot = store.snapshot();
                prop_assert_eq!(&snapshot, &expected_snapshot(store.executed_count(), &model));
                let mut restored = KvStore::new();
                restored.restore(&snapshot);
                prop_assert_eq!(restored.len(), model.len());
                for (key, value) in &model {
                    prop_assert_eq!(restored.get(key), Some(value.as_slice()));
                }
                prop_assert_eq!(restored.state_digest(), digest);
                prop_assert_eq!(restored.snapshot(), snapshot);
            }
        }

        /// Encoding round-trips for arbitrary operations.
        #[test]
        fn op_round_trip(op in arb_op()) {
            prop_assert_eq!(KvOp::decode(&op.encode()), Some(op));
        }

        /// Two replicas applying the same operation sequence reach the same
        /// state digest and produce the same results (determinism).
        #[test]
        fn replicas_converge(ops in proptest::collection::vec(arb_op(), 0..64)) {
            let mut a = KvStore::new();
            let mut b = KvStore::new();
            for op in &ops {
                let ra = a.execute(&op.encode());
                let rb = b.execute(&op.encode());
                prop_assert_eq!(ra, rb);
            }
            prop_assert_eq!(a.state_digest(), b.state_digest());
        }

        /// Snapshot/restore preserves the digest for arbitrary histories.
        #[test]
        fn snapshot_preserves_state(ops in proptest::collection::vec(arb_op(), 0..64)) {
            let mut store = KvStore::new();
            for op in &ops {
                store.execute(&op.encode());
            }
            let mut restored = KvStore::new();
            restored.restore(&store.snapshot());
            prop_assert_eq!(restored.state_digest(), store.state_digest());
        }
    }
}
