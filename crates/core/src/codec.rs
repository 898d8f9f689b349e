//! Packed state codec: message interning and a flat fixed-width encoding
//! of [`NodeState`].
//!
//! The checker's exploration stores many configurations at once; the
//! natural representation (a `Vec<Arc<NodeState>>` of pointer-heavy
//! nodes) makes every stored state cost hundreds of bytes of scattered
//! heap. This module provides the compact alternative, the standard
//! explicit-state model-checking trick:
//!
//! * [`MessageTable`] interns [`Message`] values to dense `u32` ids for
//!   the duration of a run. Messages are immutable triplets plus a ghost;
//!   the number of *distinct* messages in a run is tiny compared to the
//!   number of buffer occupancies, so a 4-byte id replaces a 32-byte
//!   struct wherever a buffer is occupied.
//! * [`StateCodec`] encodes one processor's full state — the routing
//!   variables (`dist`/`parent` per destination), the per-destination
//!   forwarding slots (`bufR`/`bufE` as interned ids, the `choice`
//!   rotation pointer, the `LongestWaiting` wait counters when present),
//!   the `request` bit, the higher-layer outbox, and the destination
//!   cursor — into flat `u32` words with a lossless
//!   [`StateCodec::pack_node`]/[`StateCodec::unpack_node`] roundtrip.
//!
//! # Word layout (per node)
//!
//! ```text
//! w0              dest_cursor:16 | outbox_len:15 | request:1
//! outbox entries  [ valid:1|dest:16 , payload_lo, payload_hi, ghost_lo, ghost_hi ] × outbox_len
//! routing         [ dist:16 | parent:16 ] × n           (one word per destination)
//! slots           [ bufR_id , bufE_id ,                  (u32::MAX = empty)
//!                   waits_tag:16 | choice_ptr:16 ,       (waits_tag = 0: no counters;
//!                   waits × (waits_tag − 1) ]            (k+1: k counters follow) × n
//! ```
//!
//! All domains are bounded by the model itself (`dist ≤ n`, `parent < n`,
//! `choice_ptr ≤ deg(p)`, `dest < n`), so the 16-bit fields are exact for
//! every instance with `n < 2^16`; [`StateCodec::new`] asserts the bound.
//! Ghost identities and payloads keep their full 64 bits.
//!
//! The codec **reads every shared variable and writes none** — it is an
//! observer in the footprint model's sense. [`codec_footprint`] declares
//! that surface so `ssmfp-lint` can check it stays an observer and that
//! its reads cover every declared variable class (a newly added variable
//! class that the codec does not encode fails the lint instead of rotting
//! silently).
//!
//! Determinism note: interned ids depend on first-encounter order, so the
//! packed words are **not canonical** across runs — equality of packed
//! states must go through [`StateCodec::fingerprint`] (or unpacking),
//! never through word comparison.

use crate::footprint::{BUF_E, BUF_R, CHOICE_PTR, DEST_CURSOR, OUTBOX, REQUEST, WAITS};
use crate::message::{GhostId, Message};
use crate::state::{FwdSlot, NodeState, Outgoing};
use fxhash::FxHashMap;
use ssmfp_kernel::footprint::{Access, Footprint};
use ssmfp_routing::footprint::{DIST, PARENT};
use ssmfp_routing::RoutingState;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Sentinel id for an empty buffer.
pub const NO_MESSAGE: u32 = u32::MAX;

/// Interns [`Message`] values to dense `u32` ids for one run.
///
/// Ids are assigned in first-intern order and never recycled; resolving
/// is an array index. The table is append-only, so a reader holding ids
/// obtained earlier can always resolve them — the checker exploits this
/// by letting parallel workers resolve through `&self` while all
/// interning happens in the sequential merge phase through `&mut self`.
#[derive(Debug, Default, Clone)]
pub struct MessageTable {
    ids: FxHashMap<Message, u32>,
    messages: Vec<Message>,
}

impl MessageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `m`, returning its dense id (stable for the table's
    /// lifetime).
    pub fn intern(&mut self, m: Message) -> u32 {
        if let Some(&id) = self.ids.get(&m) {
            return id;
        }
        let id = u32::try_from(self.messages.len()).expect("message table overflow");
        assert!(id != NO_MESSAGE, "message table exhausted the id space");
        self.messages.push(m);
        self.ids.insert(m, id);
        id
    }

    /// Resolves an id previously returned by [`MessageTable::intern`].
    #[inline]
    pub fn resolve(&self, id: u32) -> Message {
        self.messages[id as usize]
    }

    /// Number of distinct interned messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Approximate heap footprint of the table (both the dense array and
    /// the hash index).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.messages.capacity() * size_of::<Message>()
            + self.ids.capacity() * (size_of::<Message>() + size_of::<u32>() + size_of::<u64>())
    }
}

/// Flat fixed-width encoder/decoder for [`NodeState`] (see the module
/// docs for the exact word layout).
#[derive(Debug, Clone, Copy)]
pub struct StateCodec {
    n: usize,
}

impl StateCodec {
    /// A codec for instances with `n` processors (= destinations).
    pub fn new(n: usize) -> Self {
        assert!(n < (1 << 16), "codec fields are 16-bit: n must be < 65536");
        StateCodec { n }
    }

    /// The instance size this codec was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    fn pack_message(m: Option<&Message>, table: &mut MessageTable) -> u32 {
        match m {
            None => NO_MESSAGE,
            Some(&m) => table.intern(m),
        }
    }

    fn unpack_message(id: u32, table: &MessageTable) -> Option<Message> {
        if id == NO_MESSAGE {
            None
        } else {
            Some(table.resolve(id))
        }
    }

    fn pack_ghost(g: GhostId, out: &mut Vec<u32>) -> u32 {
        let (tag, lo, hi) = encode_ghost(g);
        out.push(lo);
        out.push(hi);
        tag
    }

    fn unpack_ghost(tag: u32, lo: u32, hi: u32) -> GhostId {
        decode_ghost(tag, lo, hi)
    }

    /// Appends the packed encoding of `node` to `out`, interning any
    /// messages it holds. Lossless: [`StateCodec::unpack_node`] on the
    /// appended words reconstructs `node` exactly.
    pub fn pack_node(&self, node: &NodeState, table: &mut MessageTable, out: &mut Vec<u32>) {
        debug_assert_eq!(node.slots.len(), self.n, "slot count must match codec n");
        debug_assert_eq!(node.routing.dist.len(), self.n);
        let outbox_len = node.outbox.len();
        assert!(outbox_len < (1 << 15), "outbox too long for the codec");
        out.push(
            ((node.dest_cursor as u32) << 16)
                | ((outbox_len as u32) << 1)
                | u32::from(node.request),
        );
        for o in &node.outbox {
            let at = out.len();
            out.push(0); // patched below: valid:1 | dest:16
            out.push(o.payload as u32);
            out.push((o.payload >> 32) as u32);
            let tag = Self::pack_ghost(o.ghost, out);
            out[at] = (tag << 16) | o.dest as u32;
        }
        for d in 0..self.n {
            let dist = node.routing.dist[d];
            let parent = node.routing.parent[d];
            debug_assert!(dist < (1 << 16) && parent < (1 << 16));
            out.push((dist << 16) | parent as u32);
        }
        for slot in &node.slots {
            out.push(Self::pack_message(slot.buf_r.as_ref(), table));
            out.push(Self::pack_message(slot.buf_e.as_ref(), table));
            let waits_tag = match &slot.waits {
                None => 0u32,
                Some(w) => {
                    assert!(w.len() < (1 << 16) - 1, "wait counters too long");
                    w.len() as u32 + 1
                }
            };
            debug_assert!(slot.choice_ptr < (1 << 16));
            out.push((waits_tag << 16) | slot.choice_ptr as u32);
            if let Some(w) = &slot.waits {
                out.extend_from_slice(w);
            }
        }
    }

    /// Decodes one node from the front of `words`, returning the state and
    /// the number of words consumed.
    pub fn unpack_node(&self, words: &[u32], table: &MessageTable) -> (NodeState, usize) {
        let mut at = 0;
        macro_rules! next {
            () => {{
                let w = words[at];
                at += 1;
                w
            }};
        }
        let w0 = next!();
        let request = w0 & 1 != 0;
        let outbox_len = ((w0 >> 1) & 0x7FFF) as usize;
        let dest_cursor = (w0 >> 16) as usize;
        let mut outbox = VecDeque::with_capacity(outbox_len);
        for _ in 0..outbox_len {
            let head = next!();
            let payload = next!() as u64 | ((next!() as u64) << 32);
            let (lo, hi) = (next!(), next!());
            outbox.push_back(Outgoing {
                dest: (head & 0xFFFF) as usize,
                payload,
                ghost: Self::unpack_ghost(head >> 16, lo, hi),
            });
        }
        let mut dist = Vec::with_capacity(self.n);
        let mut parent = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let w = next!();
            dist.push(w >> 16);
            parent.push((w & 0xFFFF) as usize);
        }
        let mut slots = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let buf_r = Self::unpack_message(next!(), table);
            let buf_e = Self::unpack_message(next!(), table);
            let w = next!();
            let choice_ptr = (w & 0xFFFF) as usize;
            let waits_tag = (w >> 16) as usize;
            let waits = if waits_tag == 0 {
                None
            } else {
                let k = waits_tag - 1;
                let w: Box<[u32]> = words[at..at + k].into();
                at += k;
                Some(w)
            };
            slots.push(FwdSlot {
                buf_r,
                buf_e,
                choice_ptr,
                waits,
            });
        }
        (
            NodeState {
                routing: RoutingState { dist, parent },
                slots,
                request,
                outbox,
                dest_cursor,
            },
            at,
        )
    }

    /// Packs a whole configuration (every node, in processor order).
    pub fn pack_config(&self, nodes: &[NodeState], table: &mut MessageTable, out: &mut Vec<u32>) {
        for node in nodes {
            self.pack_node(node, table, out);
        }
    }

    /// Unpacks a whole configuration packed by [`StateCodec::pack_config`].
    pub fn unpack_config(&self, words: &[u32], table: &MessageTable) -> Vec<NodeState> {
        let mut nodes = Vec::with_capacity(self.n);
        let mut at = 0;
        for _ in 0..self.n {
            let (node, used) = self.unpack_node(&words[at..], table);
            at += used;
            nodes.push(node);
        }
        debug_assert_eq!(at, words.len(), "trailing words after unpack");
        nodes
    }

    /// Semantic fingerprint of a packed node: the Fx hash of the decoded
    /// state (position-mixed with `p`), i.e. exactly the value hashing the
    /// original [`NodeState`] produces. Two packed nodes — even interned
    /// through different tables, with different id assignments — have
    /// equal fingerprints iff they decode to equal states (modulo 64-bit
    /// collisions). This is the equality surface for packed states; raw
    /// word comparison is meaningless across tables.
    pub fn fingerprint(&self, p: usize, words: &[u32], table: &MessageTable) -> u64 {
        let (node, _) = self.unpack_node(words, table);
        node_fingerprint(p, &node)
    }
}

/// Encodes a ghost identity as `(tag, lo, hi)` words (`tag` = 1 for
/// valid, 0 for invalid); inverse of [`decode_ghost`]. Exposed so callers
/// framing their own word streams (the checker's delivered records) reuse
/// the codec's convention.
pub fn encode_ghost(g: GhostId) -> (u32, u32, u32) {
    let (tag, seq) = match g {
        GhostId::Valid(k) => (1u32, k),
        GhostId::Invalid(k) => (0u32, k),
    };
    (tag, seq as u32, (seq >> 32) as u32)
}

/// Inverse of [`encode_ghost`].
pub fn decode_ghost(tag: u32, lo: u32, hi: u32) -> GhostId {
    let seq = lo as u64 | ((hi as u64) << 32);
    if tag != 0 {
        GhostId::Valid(seq)
    } else {
        GhostId::Invalid(seq)
    }
}

/// Position-mixed Fx hash of a node state — the per-node fingerprint the
/// checker caches and combines (shared here so the codec's fingerprint and
/// the checker's incremental hashing are the same function).
pub fn node_fingerprint(p: usize, node: &NodeState) -> u64 {
    let mut h = fxhash::FxHasher::default();
    h.write_usize(p);
    node.hash(&mut h);
    h.finish()
}

/// Estimated resident bytes of one [`NodeState`] in the pointer-heavy
/// representation (struct + heap blocks), used to report the packed
/// codec's savings honestly. Counts `Vec`/`Box`/`VecDeque` payloads at
/// their lengths plus the container headers; allocator slack is not
/// modelled.
pub fn deep_node_bytes(node: &NodeState) -> usize {
    use std::mem::size_of;
    let mut bytes = size_of::<NodeState>();
    bytes += node.routing.dist.len() * size_of::<u32>();
    bytes += node.routing.parent.len() * size_of::<usize>();
    bytes += node.slots.len() * size_of::<FwdSlot>();
    for slot in &node.slots {
        if let Some(w) = &slot.waits {
            bytes += w.len() * size_of::<u32>();
        }
    }
    bytes += node.outbox.len() * size_of::<Outgoing>();
    bytes
}

/// The codec's declared access surface: a **read of every variable class**
/// of both layers (it serializes the full processor state) and **no
/// writes** (it is a pure observer). `ssmfp-lint` checks both properties
/// and that the read set covers every declared class — adding a new shared
/// variable without teaching the codec about it fails the lint.
pub fn codec_footprint() -> Footprint {
    Footprint::new(
        vec![
            Access::me_all(BUF_R),
            Access::me_all(BUF_E),
            Access::me_all(CHOICE_PTR),
            Access::me_all(WAITS),
            Access::me_global(REQUEST),
            Access::me_global(OUTBOX),
            Access::me_global(DEST_CURSOR),
            Access::me_all(DIST),
            Access::me_all(PARENT),
        ],
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ssmfp_routing::{corruption, CorruptionKind};
    use ssmfp_topology::gen;

    fn garbage_config(seed: u64) -> Vec<NodeState> {
        let g = gen::random_connected(7, 4, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut inv = 0;
        corruption::corrupt(&g, CorruptionKind::RandomGarbage, seed)
            .into_iter()
            .enumerate()
            .map(|(p, r)| {
                let mut s = NodeState::clean(g.n(), r);
                s.scatter_garbage(&g, p, 0.5, &mut rng, &mut inv);
                s
            })
            .collect()
    }

    #[test]
    fn roundtrip_clean_config() {
        let g = gen::line(4);
        let nodes: Vec<NodeState> = corruption::corrupt(&g, CorruptionKind::None, 0)
            .into_iter()
            .map(|r| NodeState::clean(4, r))
            .collect();
        let codec = StateCodec::new(4);
        let mut table = MessageTable::new();
        let mut words = Vec::new();
        codec.pack_config(&nodes, &mut table, &mut words);
        assert_eq!(codec.unpack_config(&words, &table), nodes);
        assert!(table.is_empty(), "clean config has no messages to intern");
    }

    #[test]
    fn roundtrip_garbage_with_outbox_and_waits() {
        let mut nodes = garbage_config(3);
        nodes[0].outbox.push_back(Outgoing {
            dest: 5,
            payload: u64::MAX - 7,
            ghost: GhostId::Valid(u64::MAX),
        });
        nodes[0].request = true;
        nodes[2].slots[1].waits = Some(vec![3, 0, 9].into_boxed_slice());
        nodes[3].dest_cursor = 6;
        let codec = StateCodec::new(nodes.len());
        let mut table = MessageTable::new();
        let mut words = Vec::new();
        codec.pack_config(&nodes, &mut table, &mut words);
        assert_eq!(codec.unpack_config(&words, &table), nodes);
        assert!(!table.is_empty());
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut table = MessageTable::new();
        let m1 = Message::generated(1, 0, GhostId::Valid(0));
        let m2 = Message::generated(2, 0, GhostId::Valid(1));
        assert_eq!(table.intern(m1), 0);
        assert_eq!(table.intern(m2), 1);
        assert_eq!(table.intern(m1), 0, "re-interning returns the same id");
        assert_eq!(table.resolve(1), m2);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn fingerprint_is_table_independent() {
        let nodes = garbage_config(9);
        let codec = StateCodec::new(nodes.len());
        // Pack node 2 through two tables with different pre-seeded id
        // assignments; fingerprints must agree with the deep hash either way.
        let mut t1 = MessageTable::new();
        let mut t2 = MessageTable::new();
        t2.intern(Message::generated(99, 0, GhostId::Valid(4242)));
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        codec.pack_node(&nodes[2], &mut t1, &mut w1);
        codec.pack_node(&nodes[2], &mut t2, &mut w2);
        let deep = node_fingerprint(2, &nodes[2]);
        assert_eq!(codec.fingerprint(2, &w1, &t1), deep);
        assert_eq!(codec.fingerprint(2, &w2, &t2), deep);
    }

    #[test]
    fn codec_footprint_is_pure() {
        let fp = codec_footprint();
        assert!(fp.writes.is_empty());
        assert!(!fp.reads.is_empty());
    }
}
