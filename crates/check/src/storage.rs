//! The explorer's storage: the sharded visited set, and the packed
//! frontier states with the interning tables they point into.

use super::CheckState;
use fxhash::{FxBuildHasher, FxHasher};
use ssmfp_core::codec::{decode_ghost, encode_ghost, MessageTable, StateCodec};
use ssmfp_topology::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Hash-compacted visited set, sharded by the hash's top bits (the
/// bottom bits index buckets inside each shard's table). During the
/// parallel phase, workers probe it lock-free through `&self`; every
/// insert happens in the sequential merge phase through `&mut self` —
/// the alternating borrow phases replace any locking.
pub(crate) struct ShardedVisited {
    shards: Vec<HashSet<u64, FxBuildHasher>>,
}

impl ShardedVisited {
    pub(crate) fn new() -> Self {
        ShardedVisited {
            shards: (0..SHARDS).map(|_| HashSet::default()).collect(),
        }
    }

    #[inline]
    fn shard_of(h: u64) -> usize {
        (h >> (64 - SHARD_BITS)) as usize
    }

    #[inline]
    pub(crate) fn contains(&self, h: u64) -> bool {
        self.shards[Self::shard_of(h)].contains(&h)
    }

    /// Inserts `h`; true if it was new.
    #[inline]
    pub(crate) fn insert(&mut self, h: u64) -> bool {
        self.shards[Self::shard_of(h)].insert(h)
    }
}

/// Interned storage for packed node blobs — the COLLAPSE-style second
/// level of compression on top of [`StateCodec`]'s flat words: a packed
/// state stores one `u32` id per node instead of the node's full word
/// blob, and identical `(position, blob)` pairs — the common case, since
/// a successor rewrites a single node — are stored exactly once. Each
/// entry caches the node's position-mixed semantic hash so unpacking
/// skips rehashing.
///
/// Ids are assigned in first-encounter order. Within one run packing is
/// deterministic (the same node state always packs to the same words and
/// hence the same id), but ids are **not** canonical across runs or
/// tables — state identity always goes through the semantic hash.
pub(crate) struct NodeTable {
    /// Fx hash of `(position, words)` → entry ids with that key hash.
    buckets: HashMap<u64, Vec<u32>, FxBuildHasher>,
    pub(crate) entries: Vec<NodeEntry>,
}

pub(crate) struct NodeEntry {
    p: u32,
    /// Cached [`node_fingerprint`] of the decoded node.
    node_hash: u64,
    words: Box<[u32]>,
}

impl NodeTable {
    pub(crate) fn new() -> Self {
        NodeTable {
            buckets: HashMap::default(),
            entries: Vec::new(),
        }
    }

    fn key_hash(p: usize, words: &[u32]) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(p);
        for &w in words {
            h.write_u32(w);
        }
        h.finish()
    }

    fn intern(&mut self, p: usize, words: &[u32], node_hash: u64) -> u32 {
        let kh = Self::key_hash(p, words);
        if let Some(ids) = self.buckets.get(&kh) {
            for &id in ids {
                let e = &self.entries[id as usize];
                if e.p as usize == p && *e.words == *words {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.entries.len()).expect("node table full");
        self.entries.push(NodeEntry {
            p: p as u32,
            node_hash,
            words: words.into(),
        });
        self.buckets.entry(kh).or_default().push(id);
        id
    }

    #[inline]
    fn entry(&self, id: u32) -> &NodeEntry {
        &self.entries[id as usize]
    }

    fn memory_bytes(&self) -> u64 {
        let entries: usize = self
            .entries
            .iter()
            .map(|e| std::mem::size_of::<NodeEntry>() + 4 * e.words.len())
            .sum();
        let buckets: usize = self
            .buckets
            .values()
            .map(|v| std::mem::size_of::<(u64, Vec<u32>)>() + 4 * v.len())
            .sum();
        (entries + buckets) as u64
    }
}

/// One frontier state in packed form: a single word allocation holding
/// the delivery records and one interned node id per position, plus the
/// precomputed combined hash. Layout:
///
/// `[delivered_len, (tag<<16 | node, ghost_lo, ghost_hi) × delivered_len,
///   node_id × n]`
pub(crate) struct PackedCheckState {
    words: Box<[u32]>,
    pub(crate) hash: u64,
}

impl PackedCheckState {
    pub(crate) fn bytes(&self) -> u64 {
        (std::mem::size_of::<PackedCheckState>() + 4 * self.words.len()) as u64
    }
}

/// The packing context a run threads through pack/unpack: the codec and
/// the two interning tables (messages, node blobs). During the parallel
/// phase, workers unpack through `&self`; all interning happens in the
/// sequential merge phase through `&mut self` — the same alternating
/// borrow discipline as [`ShardedVisited`], so interned ids are assigned
/// in a deterministic order and no locking is involved.
pub(crate) struct PackStore {
    codec: StateCodec,
    pub(crate) messages: MessageTable,
    pub(crate) nodes: NodeTable,
    scratch: Vec<u32>,
}

impl PackStore {
    pub(crate) fn new(n: usize) -> Self {
        PackStore {
            codec: StateCodec::new(n),
            messages: MessageTable::new(),
            nodes: NodeTable::new(),
            scratch: Vec::new(),
        }
    }

    pub(crate) fn pack(&mut self, state: &CheckState) -> PackedCheckState {
        let mut words = Vec::with_capacity(1 + 3 * state.delivered.len() + state.nodes.len());
        words.push(state.delivered.len() as u32);
        for &(g, at) in &state.delivered {
            debug_assert!(at < (1 << 16));
            let (tag, lo, hi) = encode_ghost(g);
            words.push((tag << 16) | at as u32);
            words.push(lo);
            words.push(hi);
        }
        for (p, node) in state.nodes.iter().enumerate() {
            self.scratch.clear();
            self.codec
                .pack_node(node, &mut self.messages, &mut self.scratch);
            words.push(self.nodes.intern(p, &self.scratch, state.node_hashes[p]));
        }
        PackedCheckState {
            words: words.into_boxed_slice(),
            hash: state.hash,
        }
    }

    pub(crate) fn unpack(&self, packed: &PackedCheckState) -> CheckState {
        let dl = packed.words[0] as usize;
        let mut delivered = Vec::with_capacity(dl);
        for i in 0..dl {
            let w = packed.words[1 + 3 * i];
            let lo = packed.words[2 + 3 * i];
            let hi = packed.words[3 + 3 * i];
            delivered.push((decode_ghost(w >> 16, lo, hi), (w & 0xFFFF) as NodeId));
        }
        let ids = &packed.words[1 + 3 * dl..];
        let mut nodes = Vec::with_capacity(ids.len());
        let mut node_hashes = Vec::with_capacity(ids.len());
        for &id in ids {
            let entry = self.nodes.entry(id);
            let (node, used) = self.codec.unpack_node(&entry.words, &self.messages);
            debug_assert_eq!(used, entry.words.len());
            nodes.push(Arc::new(node));
            node_hashes.push(entry.node_hash);
        }
        CheckState {
            nodes,
            delivered,
            node_hashes,
            hash: packed.hash,
        }
    }

    pub(crate) fn table_bytes(&self) -> u64 {
        self.messages.memory_bytes() as u64 + self.nodes.memory_bytes()
    }
}
