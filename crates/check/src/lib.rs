//! Exhaustive bounded model checking for SSMFP.
//!
//! The sampled executions elsewhere in the workspace check SP along *some*
//! schedules; this crate checks it along **all of them** (for the central
//! daemon) on instances small enough to enumerate. Starting from a given
//! initial configuration, [`Explorer`] breadth-first-explores the full
//! transition system — every `(processor, enabled action)` successor of
//! every reachable configuration — and audits, at every state:
//!
//! * **no duplication**: no ghost identity delivered twice,
//! * **no misdelivery**: deliveries only at the message's destination,
//! * **no loss**: a generated-but-undelivered message always exists
//!   somewhere in the system,
//! * **caterpillar coverage**: Definition 3's structural invariant,
//! * at **terminal** states: every generated message was delivered.
//!
//! Visited states are hash-compacted (the standard explicit-state
//! model-checking trade-off: a 64-bit collision is astronomically
//! unlikely at the state counts involved and can only cause a *missed*
//! state, never a false alarm).
//!
//! # Performance architecture
//!
//! The explorer is built for throughput (see DESIGN.md §9 for the full
//! argument):
//!
//! * **Copy-on-write states**: a configuration holds `Arc<NodeState>`
//!   per node; a successor clones `n` pointers and rebuilds only the
//!   executed node. Per-node hashes are cached, so rehashing a successor
//!   is one node hash plus an `O(n)` word-combine instead of re-hashing
//!   every buffer of every node.
//! * **Parallel frontier** ([`Explorer::threads`]): exploration proceeds
//!   level by level. Phase A fans the current BFS level out to worker
//!   threads (`std::thread::scope`, dynamic work pickup off an atomic
//!   cursor) which do the expensive part — successor generation, audits,
//!   hashing — against a read-only snapshot of the visited set. Phase B
//!   merges sequentially, replaying exactly the order the sequential loop
//!   would have used, so the resulting [`Report`] (state counts,
//!   violations, counterexample, truncation point) is **bit-identical**
//!   to a single-threaded run.
//! * **Sharded visited set** keyed by the vendored Fx hasher: workers
//!   probe it lock-free through `&self` during phase A (annotating
//!   already-visited successors so the merge can skip them); all inserts
//!   happen in phase B through `&mut self` — the two borrow phases
//!   replace any locking.
//! * **Packed frontier storage** ([`Explorer::packed`], default on):
//!   frontier states are held as flat `u32` words — messages interned to
//!   dense ids (`ssmfp_core::codec`), each node's words interned again
//!   as a blob id (the COLLAPSE trick: a successor rewrites one node, so
//!   `n - 1` blob ids are shared with the parent) — cutting bytes/state
//!   several-fold versus the `Arc`-based deep representation.
//!   [`Explorer::explore_with_stats`] reports the accounting
//!   ([`ExploreStats`]); the [`Report`] itself is bit-identical across
//!   packed/unpacked, sequential/parallel — all four combinations.
//!
//! With [`Explorer::partial_order_reduction`] the explorer uses the
//! independence relation derived from the rules' declared footprints
//! (`ssmfp_core::footprint`, the same declarations `ssmfp-lint` checks
//! statically) to skip redundant interleavings of commuting moves — see
//! `Explorer::successors_reduced` for the exact conditions and the
//! approximation involved. POR's cycle proviso consults the visited set
//! *mid-level*, which makes its exploration order-dependent, so POR runs
//! always stay sequential. The `ssmfp-check` binary runs every instance
//! in both modes and prints the measured state-count reduction.
//!
//! The checker is also what turns the DESIGN.md §5 argument about rule R5
//! into a machine-checked fact: with the paper's guard taken literally
//! (`q ∈ N_p ∪ {p}`), the checker finds a schedule in which a valid
//! message is erased without delivery (a Lemma 4 violation); with the
//! deviation (`q ∈ N_p`), the same instance verifies clean — see the
//! crate tests.

use fxhash::{FxBuildHasher, FxHasher};
use ssmfp_core::codec::{decode_ghost, encode_ghost, MessageTable, StateCodec};
use ssmfp_core::{
    classify_buffers, deep_node_bytes, node_fingerprint, Event, GhostId, NodeState, SsmfpAction,
    SsmfpProtocol,
};
use ssmfp_kernel::{independent, Protocol, View};
use ssmfp_topology::{Graph, NodeId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One verification state: protocol configuration plus delivery history.
///
/// Node states are `Arc`-shared between a state and its successors
/// (copy-on-write: a move rewrites one node), and per-node hashes are
/// cached so the combined hash is recomputed incrementally.
#[derive(Debug, Clone)]
struct CheckState {
    nodes: Vec<Arc<NodeState>>,
    /// Sorted (ghost, node) delivery records.
    delivered: Vec<(GhostId, NodeId)>,
    /// Position-mixed Fx hash of each node state.
    node_hashes: Vec<u64>,
    /// Combined hash of `node_hashes` and `delivered`.
    hash: u64,
}

fn combine_hash(node_hashes: &[u64], delivered: &[(GhostId, NodeId)]) -> u64 {
    let mut h = FxHasher::default();
    for &nh in node_hashes {
        h.write_u64(nh);
    }
    delivered.hash(&mut h);
    h.finish()
}

impl CheckState {
    fn new(nodes: Vec<NodeState>) -> Self {
        let nodes: Vec<Arc<NodeState>> = nodes.into_iter().map(Arc::new).collect();
        let node_hashes: Vec<u64> = nodes
            .iter()
            .enumerate()
            .map(|(p, s)| node_fingerprint(p, s))
            .collect();
        let hash = combine_hash(&node_hashes, &[]);
        CheckState {
            nodes,
            delivered: Vec::new(),
            node_hashes,
            hash,
        }
    }
}

const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// Hash-compacted visited set, sharded by the hash's top bits (the
/// bottom bits index buckets inside each shard's table). During the
/// parallel phase, workers probe it lock-free through `&self`; every
/// insert happens in the sequential merge phase through `&mut self` —
/// the alternating borrow phases replace any locking.
struct ShardedVisited {
    shards: Vec<HashSet<u64, FxBuildHasher>>,
}

impl ShardedVisited {
    fn new() -> Self {
        ShardedVisited {
            shards: (0..SHARDS).map(|_| HashSet::default()).collect(),
        }
    }

    #[inline]
    fn shard_of(h: u64) -> usize {
        (h >> (64 - SHARD_BITS)) as usize
    }

    #[inline]
    fn contains(&self, h: u64) -> bool {
        self.shards[Self::shard_of(h)].contains(&h)
    }

    /// Inserts `h`; true if it was new.
    #[inline]
    fn insert(&mut self, h: u64) -> bool {
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
struct NodeTable {
    /// Fx hash of `(position, words)` → entry ids with that key hash.
    buckets: HashMap<u64, Vec<u32>, FxBuildHasher>,
    entries: Vec<NodeEntry>,
}

struct NodeEntry {
    p: u32,
    /// Cached [`node_fingerprint`] of the decoded node.
    node_hash: u64,
    words: Box<[u32]>,
}

impl NodeTable {
    fn new() -> Self {
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
struct PackedCheckState {
    words: Box<[u32]>,
    hash: u64,
}

impl PackedCheckState {
    fn bytes(&self) -> u64 {
        (std::mem::size_of::<PackedCheckState>() + 4 * self.words.len()) as u64
    }
}

/// The packing context a run threads through pack/unpack: the codec and
/// the two interning tables (messages, node blobs). During the parallel
/// phase, workers unpack through `&self`; all interning happens in the
/// sequential merge phase through `&mut self` — the same alternating
/// borrow discipline as [`ShardedVisited`], so interned ids are assigned
/// in a deterministic order and no locking is involved.
struct PackStore {
    codec: StateCodec,
    messages: MessageTable,
    nodes: NodeTable,
    scratch: Vec<u32>,
}

impl PackStore {
    fn new(n: usize) -> Self {
        PackStore {
            codec: StateCodec::new(n),
            messages: MessageTable::new(),
            nodes: NodeTable::new(),
            scratch: Vec::new(),
        }
    }

    fn pack(&mut self, state: &CheckState) -> PackedCheckState {
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

    fn unpack(&self, packed: &PackedCheckState) -> CheckState {
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

    fn table_bytes(&self) -> u64 {
        self.messages.memory_bytes() as u64 + self.nodes.memory_bytes()
    }
}

/// A stored frontier state, in whichever representation the run uses.
enum Stored {
    Raw(Box<CheckState>),
    Packed(PackedCheckState),
}

impl Stored {
    #[inline]
    fn hash(&self) -> u64 {
        match self {
            Stored::Raw(s) => s.hash,
            Stored::Packed(p) => p.hash,
        }
    }
}

/// Frontier slot: the stored state plus its accounted byte size.
struct Slot {
    state: Stored,
    bytes: u64,
}

/// Sharing-aware byte estimate of one Arc-based state as the frontier
/// holds it: the spine (struct, `Arc` pointers, cached hashes, delivery
/// records) plus the deep size of the nodes this state does **not**
/// share with its parent (`fresh`) — for a successor, exactly the one
/// rewritten node.
fn raw_state_bytes(state: &CheckState, fresh: &[NodeId]) -> u64 {
    let mut b = std::mem::size_of::<CheckState>()
        + state.nodes.len() * (std::mem::size_of::<Arc<NodeState>>() + std::mem::size_of::<u64>())
        + state.delivered.len() * std::mem::size_of::<(GhostId, NodeId)>();
    for &p in fresh {
        b += deep_node_bytes(&state.nodes[p]);
    }
    b as u64
}

/// Memory accounting for one exploration, reported alongside the
/// [`Report`] by [`Explorer::explore_with_stats`]. Deliberately kept
/// **out** of [`Report`] so the bit-identity contracts (sequential vs
/// parallel, packed vs unpacked) remain byte-for-byte comparisons of the
/// verdict alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreStats {
    /// Whether the run stored packed states.
    pub packed: bool,
    /// States stored (each distinct state is stored exactly once).
    pub states_stored: u64,
    /// Total bytes of every stored state representation.
    pub state_bytes: u64,
    /// Interning tables (messages + node blobs); 0 for unpacked runs.
    pub table_bytes: u64,
    /// Peak live frontier footprint in bytes (states only, not tables).
    /// Unlike every other field, this depends on the traversal
    /// discipline — the sequential explorer drains a FIFO (pop before
    /// push) while the parallel one holds a full level plus the next —
    /// so it is *not* part of the thread-count-invariance contract.
    pub peak_frontier_bytes: u64,
    /// Distinct messages interned (0 for unpacked runs).
    pub interned_messages: u64,
    /// Distinct `(position, node blob)` pairs interned (0 for unpacked).
    pub interned_nodes: u64,
}

impl ExploreStats {
    fn new(packed: bool) -> Self {
        ExploreStats {
            packed,
            states_stored: 0,
            state_bytes: 0,
            table_bytes: 0,
            peak_frontier_bytes: 0,
            interned_messages: 0,
            interned_nodes: 0,
        }
    }

    /// Average bytes to store one distinct state, interning tables
    /// amortized in. The hash-compacted visited set adds ~8 bytes per
    /// state in both modes and is excluded.
    pub fn bytes_per_state(&self) -> f64 {
        if self.states_stored == 0 {
            return 0.0;
        }
        (self.state_bytes + self.table_bytes) as f64 / self.states_stored as f64
    }
}

/// Per-worker scratch buffers reused across successor generation (no
/// per-state allocation for guard evaluation or event collection).
#[derive(Default)]
struct Scratch {
    actions: Vec<SsmfpAction>,
    events: Vec<Event>,
}

/// One successor edge: the reached state and the move that reached it.
struct Succ {
    state: CheckState,
    by: NodeId,
    action: SsmfpAction,
    /// Set during the parallel phase: the successor was already in the
    /// visited set at the start of the level, so the merge phase can skip
    /// its insert (the set only grows). Always false sequentially.
    previsited: bool,
}

/// Phase-A output for one state of the current BFS level.
struct StateResult {
    terminal: bool,
    violations: Vec<Violation>,
    succs: Vec<Succ>,
}

/// A safety violation found during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A ghost identity was delivered twice along some schedule.
    DuplicateDelivery {
        /// The message.
        ghost: GhostId,
        /// BFS depth of the violating state.
        depth: u64,
    },
    /// A valid message was delivered away from its destination.
    Misdelivery {
        /// The message.
        ghost: GhostId,
        /// Node that consumed it.
        at: NodeId,
        /// Depth of the violating state.
        depth: u64,
    },
    /// A generated message vanished: neither delivered nor anywhere in
    /// the system.
    Lost {
        /// The message.
        ghost: GhostId,
        /// Depth of the violating state.
        depth: u64,
    },
    /// Definition 3's coverage invariant failed.
    CaterpillarOrphan {
        /// Depth of the violating state.
        depth: u64,
    },
    /// A terminal (deadlocked/quiescent) state left a generated message
    /// undelivered.
    UndeliveredAtTerminal {
        /// The message.
        ghost: GhostId,
        /// Depth of the terminal state.
        depth: u64,
    },
}

/// Outcome of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Distinct states visited.
    pub states: u64,
    /// Terminal states reached.
    pub terminals: u64,
    /// Violations found (exploration stops at the first by default).
    pub violations: Vec<Violation>,
    /// True if the state or depth cap truncated the exploration.
    pub truncated: bool,
    /// Maximum BFS depth reached.
    pub max_depth: u64,
    /// When a violation was found and tracing was enabled: the schedule
    /// that reaches it, as human-readable `processor: action` lines.
    pub counterexample: Option<Vec<String>>,
}

impl Report {
    /// Whether the instance verified clean and completely.
    pub fn verified(&self) -> bool {
        self.violations.is_empty() && !self.truncated
    }
}

/// The exhaustive explorer.
///
/// ```
/// use ssmfp_check::Explorer;
/// use ssmfp_core::state::{NodeState, Outgoing};
/// use ssmfp_core::{GhostId, SsmfpProtocol};
/// use ssmfp_routing::{corruption, CorruptionKind};
/// use ssmfp_topology::gen;
///
/// let graph = gen::line(2);
/// let mut states: Vec<NodeState> = corruption::corrupt(&graph, CorruptionKind::None, 0)
///     .into_iter()
///     .map(|r| NodeState::clean(2, r))
///     .collect();
/// let ghost = GhostId::Valid(0);
/// states[0].outbox.push_back(Outgoing { dest: 1, payload: 3, ghost });
/// let explorer = Explorer::new(graph, SsmfpProtocol::new(2, 1), vec![(ghost, 1)]);
/// let report = explorer.explore(states);
/// assert!(report.verified()); // every schedule delivers exactly once
/// ```
pub struct Explorer {
    graph: Graph,
    protocol: SsmfpProtocol,
    /// Messages expected: (ghost, destination), as enqueued.
    expectations: Vec<(GhostId, NodeId)>,
    /// Cap on distinct visited states.
    pub max_states: u64,
    /// Stop at the first violation (default true).
    pub stop_at_first: bool,
    /// Record parent pointers so a violation comes with the schedule that
    /// reaches it (costs memory proportional to the visited set).
    pub trace_counterexamples: bool,
    /// Partial-order reduction (default off): when one processor's enabled
    /// actions are independent — per the rules' declared footprints — of
    /// every action currently enabled elsewhere, explore only that
    /// processor's moves and defer the rest, instead of branching on every
    /// interleaving. See `Explorer::successors_reduced`'s notes for the
    /// approximation this makes; `ssmfp-check` runs every instance in both
    /// modes and cross-checks the verdicts. POR exploration is always
    /// sequential (its cycle proviso is order-dependent), regardless of
    /// [`Explorer::threads`].
    pub partial_order_reduction: bool,
    /// Worker threads for the level-parallel exploration (default 1 =
    /// sequential). Any value produces the bit-identical [`Report`]; see
    /// the module docs for the determinism argument.
    pub threads: usize,
    /// Store frontier states packed — interned message ids, flat codec
    /// words, interned node blobs — instead of as `Arc`-based deep states
    /// (default true). Either setting produces the bit-identical
    /// [`Report`]; `ssmfp-check` cross-checks the two on every run. See
    /// DESIGN.md §10 for the layout and the compression argument.
    pub packed: bool,
}

impl Explorer {
    /// Creates an explorer for `protocol` on `graph`. `expectations` lists
    /// the valid messages the initial configuration's outboxes contain
    /// (ghost, destination).
    pub fn new(
        graph: Graph,
        protocol: SsmfpProtocol,
        expectations: Vec<(GhostId, NodeId)>,
    ) -> Self {
        Explorer {
            graph,
            protocol,
            expectations,
            max_states: 2_000_000,
            stop_at_first: true,
            trace_counterexamples: false,
            partial_order_reduction: false,
            threads: 1,
            packed: true,
        }
    }

    /// Enables partial-order reduction (builder form).
    pub fn with_partial_order_reduction(mut self) -> Self {
        self.partial_order_reduction = true;
        self
    }

    /// Sets the worker-thread count (builder form). `0` is treated as 1.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Selects packed or `Arc`-based frontier storage (builder form).
    pub fn with_packed(mut self, packed: bool) -> Self {
        self.packed = packed;
        self
    }

    /// Ghosts of every message present anywhere in a configuration.
    fn ghosts_in_system(nodes: &[Arc<NodeState>]) -> HashSet<GhostId> {
        let mut set = HashSet::new();
        for s in nodes {
            for slot in &s.slots {
                for m in [&slot.buf_r, &slot.buf_e].into_iter().flatten() {
                    set.insert(m.ghost);
                }
            }
            for o in &s.outbox {
                set.insert(o.ghost);
            }
        }
        set
    }

    fn audit(
        &self,
        state: &CheckState,
        depth: u64,
        terminal: bool,
        violations: &mut Vec<Violation>,
    ) {
        // Duplicates and misdeliveries.
        for (i, &(g, at)) in state.delivered.iter().enumerate() {
            if state.delivered[..i].iter().any(|&(g2, _)| g2 == g) {
                violations.push(Violation::DuplicateDelivery { ghost: g, depth });
            }
            if let Some(&(_, dest)) = self.expectations.iter().find(|&&(eg, _)| eg == g) {
                if at != dest {
                    violations.push(Violation::Misdelivery {
                        ghost: g,
                        at,
                        depth,
                    });
                }
            }
        }
        // Losses (only meaningful for expected valid messages that were
        // already picked up by R1 — i.e. no longer in an outbox — but
        // simplest sound form: expected, not delivered, not in system).
        let in_system = Self::ghosts_in_system(&state.nodes);
        for &(g, _) in &self.expectations {
            let delivered = state.delivered.iter().any(|&(dg, _)| dg == g);
            if !delivered && !in_system.contains(&g) {
                violations.push(Violation::Lost { ghost: g, depth });
            }
            if terminal && !delivered {
                violations.push(Violation::UndeliveredAtTerminal { ghost: g, depth });
            }
        }
        // Caterpillar coverage.
        if classify_buffers(&self.graph, &state.nodes).orphans > 0 {
            violations.push(Violation::CaterpillarOrphan { depth });
        }
    }

    /// Applies one `(processor, action)` move, copy-on-write: only the
    /// executed node is rebuilt, re-armed (higher-layer request) and
    /// cursor-normalized — every other node is unchanged from its already
    /// normalized parent. The state hash is updated incrementally.
    fn apply(
        &self,
        state: &CheckState,
        p: NodeId,
        action: SsmfpAction,
        events: &mut Vec<Event>,
    ) -> CheckState {
        events.clear();
        let mut new_node = {
            let view = View::new_shared(&self.graph, &state.nodes, p);
            self.protocol.execute(&view, action, events)
        };
        // Higher layer: eager request re-arm; normalize the fairness
        // cursor (it affects only action ordering, which exhaustive
        // enumeration ignores).
        if !new_node.request && !new_node.outbox.is_empty() {
            new_node.request = true;
        }
        new_node.dest_cursor = 0;
        let mut nodes = state.nodes.clone();
        nodes[p] = Arc::new(new_node);
        let mut node_hashes = state.node_hashes.clone();
        node_hashes[p] = node_fingerprint(p, &nodes[p]);
        let mut delivered = state.delivered.clone();
        for ev in events.iter() {
            if let Event::Delivered { ghost, .. } = ev {
                let rec = (*ghost, p);
                let at = delivered.partition_point(|e| e < &rec);
                delivered.insert(at, rec);
            }
        }
        let hash = combine_hash(&node_hashes, &delivered);
        CheckState {
            nodes,
            delivered,
            node_hashes,
            hash,
        }
    }

    /// Successor states under the central daemon (one processor, one
    /// enabled action per step), in `(processor, priority)` order.
    fn successors(&self, state: &CheckState, scratch: &mut Scratch, out: &mut Vec<Succ>) {
        for p in 0..self.graph.n() {
            scratch.actions.clear();
            {
                let view = View::new_shared(&self.graph, &state.nodes, p);
                self.protocol.enabled_actions(&view, &mut scratch.actions);
            }
            for i in 0..scratch.actions.len() {
                let action = scratch.actions[i];
                out.push(Succ {
                    state: self.apply(state, p, action, &mut scratch.events),
                    by: p,
                    action,
                    previsited: false,
                });
            }
        }
    }

    /// Successors under partial-order reduction.
    ///
    /// An *ample* candidate is a processor `p` whose enabled actions are
    /// all independent — per [`ssmfp_kernel::independent`] over the rules'
    /// declared footprints — of every action currently enabled at every
    /// other processor. Firing any other processor's move first then
    /// commutes with each of `p`'s moves, so exploring only `p`'s branch
    /// reaches the same states up to reordering; the deferred moves are
    /// still enabled there (their footprints are untouched) and get their
    /// turn later. Two safeguards:
    ///
    /// * **cycle proviso**: a candidate is rejected when all of its
    ///   successors were already visited, so a reduction cannot spin
    ///   inside a visited cycle while permanently ignoring the deferred
    ///   moves (the analogue of the ample-set condition C3);
    /// * **fallback**: if no candidate survives, the full successor set
    ///   is expanded.
    ///
    /// This is the classical *currently-enabled* approximation of a
    /// persistent set (Godefroid): independence is checked against the
    /// moves enabled *now*, not against moves that other processors could
    /// become enabled to take later, and state-dependent guard
    /// correlations are ignored. It preserves every interleaving up to
    /// commutation of independent moves — and therefore all stable
    /// (once-true-always-true) violations: `Lost`, `DuplicateDelivery`,
    /// `Misdelivery`, and `UndeliveredAtTerminal` (terminal states are
    /// never pruned: an ample set is a nonempty subset of the enabled
    /// moves, so deadlocks coincide in both modes). Transient predicates
    /// observed at intermediate states — `CaterpillarOrphan` is the one
    /// such audit — could in principle hold only on a pruned
    /// interleaving. `ssmfp-check` therefore runs every instance in both
    /// modes and fails loudly on any verdict mismatch, and the
    /// `por_equivalence` regression test pins full/reduced agreement on
    /// the CI topologies.
    fn successors_reduced(
        &self,
        state: &CheckState,
        visited: &ShardedVisited,
        scratch: &mut Scratch,
        out: &mut Vec<Succ>,
    ) {
        let n = self.graph.n();
        let enabled: Vec<Vec<SsmfpAction>> = (0..n)
            .map(|p| {
                let mut actions = Vec::new();
                let view = View::new_shared(&self.graph, &state.nodes, p);
                self.protocol.enabled_actions(&view, &mut actions);
                actions
            })
            .collect();
        let active: Vec<NodeId> = (0..n).filter(|&p| !enabled[p].is_empty()).collect();
        let mut expand = |ps: &[NodeId], out: &mut Vec<Succ>| {
            for &p in ps {
                for &action in &enabled[p] {
                    out.push(Succ {
                        state: self.apply(state, p, action, &mut scratch.events),
                        by: p,
                        action,
                        previsited: false,
                    });
                }
            }
        };
        if active.len() <= 1 {
            // A single active processor is its own (trivial) ample set.
            expand(&active, out);
            return;
        }
        'candidate: for &p in &active {
            for &a in &enabled[p] {
                let fa = self.protocol.footprint(a);
                for &q in &active {
                    if q == p {
                        continue;
                    }
                    for &b in &enabled[q] {
                        let fb = self.protocol.footprint(b);
                        if !independent(
                            &fa,
                            p,
                            self.graph.neighbors(p),
                            &fb,
                            q,
                            self.graph.neighbors(q),
                        ) {
                            continue 'candidate;
                        }
                    }
                }
            }
            expand(&[p], out);
            // Cycle proviso: the reduction must make progress.
            if out.iter().any(|s| !visited.contains(s.state.hash)) {
                return;
            }
            out.clear();
        }
        expand(&active, out);
    }

    /// Normalizes the caller's initial configuration into the root state.
    fn init_state(&self, mut initial: Vec<NodeState>) -> CheckState {
        for node in initial.iter_mut() {
            if !node.request && !node.outbox.is_empty() {
                node.request = true;
            }
            node.dest_cursor = 0;
        }
        CheckState::new(initial)
    }

    fn rebuild_path(
        &self,
        parents: &HashMap<u64, (u64, NodeId, SsmfpAction), FxBuildHasher>,
        mut h: u64,
    ) -> Vec<String> {
        let mut path = Vec::new();
        while let Some(&(ph, p, a)) = parents.get(&h) {
            path.push(format!("{p}: {}", self.protocol.describe(a)));
            h = ph;
        }
        path.reverse();
        path
    }

    /// Stores one state in the run's representation. `fresh` lists the
    /// nodes not shared with the parent, for the sharing-aware raw-mode
    /// byte accounting (for a successor: exactly the rewritten node).
    fn store_state(store: &mut Option<PackStore>, state: CheckState, fresh: &[NodeId]) -> Slot {
        match store.as_mut() {
            Some(st) => {
                let packed = st.pack(&state);
                let bytes = packed.bytes();
                Slot {
                    state: Stored::Packed(packed),
                    bytes,
                }
            }
            None => {
                let bytes = raw_state_bytes(&state, fresh);
                Slot {
                    state: Stored::Raw(Box::new(state)),
                    bytes,
                }
            }
        }
    }

    fn finalize_stats(stats: &mut ExploreStats, store: Option<&PackStore>) {
        if let Some(st) = store {
            stats.table_bytes = st.table_bytes();
            stats.interned_messages = st.messages.len() as u64;
            stats.interned_nodes = st.nodes.entries.len() as u64;
        }
    }

    /// Runs the exhaustive breadth-first exploration from `initial`.
    ///
    /// With [`Explorer::threads`] > 1 (and POR off) the frontier is
    /// explored level-parallel; the returned [`Report`] is bit-identical
    /// to the sequential one in every case, and likewise across
    /// packed/unpacked storage ([`Explorer::packed`]).
    pub fn explore(&self, initial: Vec<NodeState>) -> Report {
        self.explore_with_stats(initial).0
    }

    /// Like [`Explorer::explore`], additionally returning the run's
    /// memory accounting. The [`Report`] is unaffected by the stats
    /// collection (same bit-identity contracts).
    pub fn explore_with_stats(&self, initial: Vec<NodeState>) -> (Report, ExploreStats) {
        if self.threads > 1 && !self.partial_order_reduction {
            self.explore_parallel(initial)
        } else {
            self.explore_sequential(initial)
        }
    }

    fn explore_sequential(&self, initial: Vec<NodeState>) -> (Report, ExploreStats) {
        let init = self.init_state(initial);
        let n = self.graph.n();
        let mut store = self.packed.then(|| PackStore::new(n));
        let mut visited = ShardedVisited::new();
        visited.insert(init.hash);
        // Parent pointers for counterexample reconstruction (hash →
        // (parent hash, move)); only populated when tracing is on.
        let mut parents: HashMap<u64, (u64, NodeId, SsmfpAction), FxBuildHasher> =
            HashMap::default();
        let mut report = Report {
            states: 1,
            terminals: 0,
            violations: Vec::new(),
            truncated: false,
            max_depth: 0,
            counterexample: None,
        };
        let mut stats = ExploreStats::new(self.packed);
        let mut live_bytes: u64 = 0;
        let all: Vec<NodeId> = (0..n).collect();
        let mut frontier: VecDeque<(Slot, u64)> = VecDeque::new();
        let init_slot = Self::store_state(&mut store, init, &all);
        stats.states_stored += 1;
        stats.state_bytes += init_slot.bytes;
        live_bytes += init_slot.bytes;
        stats.peak_frontier_bytes = live_bytes;
        frontier.push_back((init_slot, 0));
        let mut scratch = Scratch::default();
        let mut succs: Vec<Succ> = Vec::new();
        'search: while let Some((slot, depth)) = frontier.pop_front() {
            live_bytes -= slot.bytes;
            let state = match slot.state {
                Stored::Raw(s) => *s,
                Stored::Packed(ref p) => {
                    store.as_ref().expect("packed slot implies store").unpack(p)
                }
            };
            report.max_depth = report.max_depth.max(depth);
            succs.clear();
            if self.partial_order_reduction {
                self.successors_reduced(&state, &visited, &mut scratch, &mut succs);
            } else {
                self.successors(&state, &mut scratch, &mut succs);
            }
            let terminal = succs.is_empty();
            self.audit(&state, depth, terminal, &mut report.violations);
            if terminal {
                report.terminals += 1;
            }
            if !report.violations.is_empty() && self.stop_at_first {
                if self.trace_counterexamples {
                    report.counterexample = Some(self.rebuild_path(&parents, state.hash));
                }
                break 'search;
            }
            for succ in succs.drain(..) {
                if report.states >= self.max_states {
                    report.truncated = true;
                    break 'search;
                }
                let h = succ.state.hash;
                if visited.insert(h) {
                    report.states += 1;
                    if self.trace_counterexamples {
                        parents.insert(h, (state.hash, succ.by, succ.action));
                    }
                    let slot = Self::store_state(&mut store, succ.state, &[succ.by]);
                    stats.states_stored += 1;
                    stats.state_bytes += slot.bytes;
                    live_bytes += slot.bytes;
                    stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(live_bytes);
                    frontier.push_back((slot, depth + 1));
                }
            }
        }
        Self::finalize_stats(&mut stats, store.as_ref());
        (report, stats)
    }

    /// Phase A work for one state: successors, terminality, audit, and
    /// the previsited annotation against the level-start visited set.
    fn process_state(
        &self,
        state: &CheckState,
        depth: u64,
        visited: &ShardedVisited,
        scratch: &mut Scratch,
    ) -> StateResult {
        let mut succs = Vec::new();
        self.successors(state, scratch, &mut succs);
        // Terminality comes from the RAW successor count, before any
        // visited-based filtering — exactly as the sequential loop sees it.
        let terminal = succs.is_empty();
        for s in succs.iter_mut() {
            s.previsited = visited.contains(s.state.hash);
        }
        let mut violations = Vec::new();
        self.audit(state, depth, terminal, &mut violations);
        StateResult {
            terminal,
            violations,
            succs,
        }
    }

    /// Level-synchronous parallel BFS. Phase A (parallel): each worker
    /// repeatedly claims the next unprocessed state of the level off an
    /// atomic cursor and computes its successors/audit into a result slot
    /// — reads of `visited` are plain `&self` probes of a set that no one
    /// mutates during the phase. Phase B (sequential): results are merged
    /// in level order, replicating the exact per-successor sequence of
    /// the sequential loop (truncation check before the visited check,
    /// duplicates included), so counts, violation order, the truncation
    /// point and the counterexample all come out bit-identical.
    fn explore_parallel(&self, initial: Vec<NodeState>) -> (Report, ExploreStats) {
        let init = self.init_state(initial);
        let n = self.graph.n();
        let mut store = self.packed.then(|| PackStore::new(n));
        let mut visited = ShardedVisited::new();
        visited.insert(init.hash);
        let mut parents: HashMap<u64, (u64, NodeId, SsmfpAction), FxBuildHasher> =
            HashMap::default();
        let mut report = Report {
            states: 1,
            terminals: 0,
            violations: Vec::new(),
            truncated: false,
            max_depth: 0,
            counterexample: None,
        };
        let mut stats = ExploreStats::new(self.packed);
        let all: Vec<NodeId> = (0..n).collect();
        let init_slot = Self::store_state(&mut store, init, &all);
        stats.states_stored += 1;
        stats.state_bytes += init_slot.bytes;
        stats.peak_frontier_bytes = init_slot.bytes;
        let mut level_bytes: u64 = init_slot.bytes;
        let mut level: Vec<Slot> = vec![init_slot];
        let mut depth: u64 = 0;
        'levels: while !level.is_empty() {
            report.max_depth = report.max_depth.max(depth);

            // Phase A: fan the level out to workers. Packed states are
            // unpacked through shared `&PackStore` references — no table
            // mutation happens during this phase.
            let workers = self.threads.min(level.len()).max(1);
            let mut results: Vec<Option<StateResult>> = Vec::with_capacity(level.len());
            results.resize_with(level.len(), || None);
            let cursor = AtomicUsize::new(0);
            let level_ref: &[Slot] = &level;
            let visited_ref = &visited;
            let store_ref = store.as_ref();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut scratch = Scratch::default();
                            let mut out: Vec<(usize, StateResult)> = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= level_ref.len() {
                                    break;
                                }
                                let res = match &level_ref[i].state {
                                    Stored::Raw(st) => {
                                        self.process_state(st, depth, visited_ref, &mut scratch)
                                    }
                                    Stored::Packed(p) => {
                                        let st =
                                            store_ref.expect("packed slot implies store").unpack(p);
                                        self.process_state(&st, depth, visited_ref, &mut scratch)
                                    }
                                };
                                out.push((i, res));
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, res) in handle.join().expect("explorer worker panicked") {
                        results[i] = Some(res);
                    }
                }
            });

            // Phase B: deterministic sequential merge in level order. All
            // interning (message ids, node-blob ids) happens here, so id
            // assignment is reproducible regardless of thread count.
            let mut next_level: Vec<Slot> = Vec::new();
            let mut next_bytes: u64 = 0;
            for (i, res_slot) in results.into_iter().enumerate() {
                let res = res_slot.expect("every level slot processed");
                let state_hash = level[i].state.hash();
                report.violations.extend(res.violations);
                if res.terminal {
                    report.terminals += 1;
                }
                if !report.violations.is_empty() && self.stop_at_first {
                    if self.trace_counterexamples {
                        report.counterexample = Some(self.rebuild_path(&parents, state_hash));
                    }
                    break 'levels;
                }
                for succ in res.succs {
                    if report.states >= self.max_states {
                        report.truncated = true;
                        break 'levels;
                    }
                    if succ.previsited {
                        continue;
                    }
                    let h = succ.state.hash;
                    if visited.insert(h) {
                        report.states += 1;
                        if self.trace_counterexamples {
                            parents.insert(h, (state_hash, succ.by, succ.action));
                        }
                        let slot = Self::store_state(&mut store, succ.state, &[succ.by]);
                        stats.states_stored += 1;
                        stats.state_bytes += slot.bytes;
                        next_bytes += slot.bytes;
                        stats.peak_frontier_bytes =
                            stats.peak_frontier_bytes.max(level_bytes + next_bytes);
                        next_level.push(slot);
                    }
                }
            }
            level = next_level;
            level_bytes = next_bytes;
            depth += 1;
        }
        Self::finalize_stats(&mut stats, store.as_ref());
        (report, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::message::{Color, Message};
    use ssmfp_core::state::Outgoing;
    use ssmfp_routing::{corruption, CorruptionKind};
    use ssmfp_topology::gen;

    fn clean_states(graph: &Graph) -> Vec<NodeState> {
        corruption::corrupt(graph, CorruptionKind::None, 0)
            .into_iter()
            .map(|r| NodeState::clean(graph.n(), r))
            .collect()
    }

    fn enqueue(
        states: &mut [NodeState],
        src: NodeId,
        dst: NodeId,
        payload: u64,
        seq: u64,
    ) -> (GhostId, NodeId) {
        let ghost = GhostId::Valid(seq);
        states[src].outbox.push_back(Outgoing {
            dest: dst,
            payload,
            ghost,
        });
        (ghost, dst)
    }

    #[test]
    fn exhaustive_line2_single_message() {
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![enqueue(&mut states, 0, 1, 3, 0)];
        let proto = SsmfpProtocol::new(2, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
        assert!(report.terminals >= 1);
    }

    #[test]
    fn exhaustive_line3_two_messages() {
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 3, 0),
            enqueue(&mut states, 2, 0, 5, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
        assert!(report.states > 50, "exploration too small: {report:?}");
    }

    #[test]
    fn exhaustive_same_payload_twice() {
        // The merge hazard, exhaustively: two messages with identical
        // useful information from the same source — no schedule may merge
        // or lose either.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 7, 0),
            enqueue(&mut states, 0, 2, 7, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn exhaustive_with_invalid_garbage() {
        // A garbage message sharing the valid message's payload sits in
        // the middle node's emission buffer.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        states[1].slots[2].buf_e = Some(Message {
            payload: 7,
            last_hop: 0,
            color: Color(0),
            ghost: GhostId::Invalid(0),
        });
        let exp = vec![enqueue(&mut states, 0, 2, 7, 0)];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn exhaustive_with_corrupted_tables() {
        // Corrupt the middle node's route for destination 2 (points back
        // at 0): A must repair it under every schedule, and the message
        // must still go through exactly once.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        states[1].routing.parent[2] = 0;
        states[1].routing.dist[2] = 2;
        let exp = vec![enqueue(&mut states, 0, 2, 4, 0)];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn literal_r5_loses_a_message_machine_checked() {
        // The DESIGN.md §5 deviation, machine-checked: with the paper's
        // R5 guard taken literally (q ∈ N_p ∪ {p}), there is a schedule
        // in which a freshly generated message whose payload collides
        // with an in-flight predecessor is erased without delivery.
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 7, 0),
            enqueue(&mut states, 0, 1, 7, 1), // same payload, back-to-back
        ];
        let proto = SsmfpProtocol::new(2, graph.max_degree()).with_literal_r5();
        let explorer = Explorer::new(graph.clone(), proto, exp.clone());
        let report = explorer.explore(states.clone());
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::Lost { .. } | Violation::UndeliveredAtTerminal { .. }
            )),
            "literal R5 should lose a message: {report:?}"
        );

        // The deviation closes the hole: same instance, clean verification.
        let proto = SsmfpProtocol::new(2, graph.max_degree());
        let explorer = Explorer::new(graph, proto, exp);
        let report = explorer.explore(states);
        assert!(report.verified(), "{report:?}");
    }

    #[test]
    fn counterexample_trace_is_reconstructed() {
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 7, 0),
            enqueue(&mut states, 0, 1, 7, 1),
        ];
        let proto = SsmfpProtocol::new(2, graph.max_degree()).with_literal_r5();
        let mut explorer = Explorer::new(graph, proto, exp);
        explorer.trace_counterexamples = true;
        let report = explorer.explore(states);
        let path = report.counterexample.expect("trace requested");
        assert!(!path.is_empty());
        // The losing schedule must involve generation and the rogue R5.
        assert!(path.iter().any(|s| s.contains("R1")), "{path:?}");
        assert!(path.iter().any(|s| s.contains("R5")), "{path:?}");
    }

    #[test]
    fn por_agrees_with_full_exploration_and_reduces() {
        // Two crossing messages on a line: plenty of concurrency between
        // the two endpoints, so the reduction has commuting moves to prune.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 3, 0),
            enqueue(&mut states, 2, 0, 5, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let full = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        let reduced = Explorer::new(graph, proto, exp).with_partial_order_reduction();
        let full_report = full.explore(states.clone());
        let reduced_report = reduced.explore(states);
        assert!(full_report.verified(), "{full_report:?}");
        assert!(reduced_report.verified(), "{reduced_report:?}");
        assert_eq!(full_report.violations, reduced_report.violations);
        assert!(
            reduced_report.states < full_report.states,
            "POR should prune: {} vs {}",
            reduced_report.states,
            full_report.states
        );
    }

    #[test]
    fn por_still_finds_the_literal_r5_loss() {
        // A stable violation (loss) must survive the reduction.
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 7, 0),
            enqueue(&mut states, 0, 1, 7, 1),
        ];
        let proto = SsmfpProtocol::new(2, graph.max_degree()).with_literal_r5();
        let explorer = Explorer::new(graph, proto, exp).with_partial_order_reduction();
        let report = explorer.explore(states);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::Lost { .. } | Violation::UndeliveredAtTerminal { .. }
            )),
            "{report:?}"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 1, 0),
            enqueue(&mut states, 1, 0, 2, 1),
            enqueue(&mut states, 2, 1, 3, 2),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let mut explorer = Explorer::new(graph, proto, exp);
        explorer.max_states = 100;
        let report = explorer.explore(states);
        assert!(report.truncated);
        assert!(!report.verified());
    }

    #[test]
    fn packed_report_is_bit_identical_to_unpacked() {
        // The storage-representation contract: packed (default) and
        // unpacked Arc-based frontiers must produce byte-for-byte equal
        // reports, sequentially and in parallel, clean and violating.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 3, 0),
            enqueue(&mut states, 2, 0, 5, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let packed =
            Explorer::new(graph.clone(), proto.clone(), exp.clone()).explore(states.clone());
        let unpacked = Explorer::new(graph.clone(), proto.clone(), exp.clone())
            .with_packed(false)
            .explore(states.clone());
        assert_eq!(packed, unpacked);
        for threads in [2, 4] {
            let par = Explorer::new(graph.clone(), proto.clone(), exp.clone())
                .with_threads(threads)
                .explore(states.clone());
            assert_eq!(packed, par, "packed parallel, threads={threads}");
        }

        // A violating run with tracing on must reconstruct the same
        // schedule from packed storage.
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 7, 0),
            enqueue(&mut states, 0, 1, 7, 1),
        ];
        let proto = SsmfpProtocol::new(2, graph.max_degree()).with_literal_r5();
        let mut a = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        a.trace_counterexamples = true;
        let mut b = Explorer::new(graph, proto, exp);
        b.trace_counterexamples = true;
        b.packed = false;
        assert_eq!(a.explore(states.clone()), b.explore(states));
    }

    #[test]
    fn packed_stats_match_across_thread_counts() {
        // Interning happens in the sequential merge phase, so the memory
        // accounting — not just the Report — is thread-count invariant.
        let graph = gen::ring(4);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 1, 0),
            enqueue(&mut states, 2, 3, 2, 1),
        ];
        let proto = SsmfpProtocol::new(4, graph.max_degree());
        let (seq_report, seq_stats) = Explorer::new(graph.clone(), proto.clone(), exp.clone())
            .explore_with_stats(states.clone());
        let (par_report, mut par_stats) = Explorer::new(graph, proto, exp)
            .with_threads(3)
            .explore_with_stats(states);
        assert_eq!(seq_report, par_report);
        // Peak frontier footprint legitimately depends on the traversal
        // discipline (FIFO drain vs level-synchronous); everything else
        // must be thread-count invariant.
        assert!(par_stats.peak_frontier_bytes > 0);
        par_stats.peak_frontier_bytes = seq_stats.peak_frontier_bytes;
        assert_eq!(seq_stats, par_stats);
        assert_eq!(seq_stats.states_stored, seq_report.states);
    }

    #[test]
    fn packed_storage_compresses_at_least_4x() {
        // The PR's acceptance bar: packed bytes/state (interning tables
        // amortized in) at least 4x below the sharing-aware accounting of
        // the Arc-based representation.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 3, 0),
            enqueue(&mut states, 2, 0, 5, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let (rep_p, st_p) = Explorer::new(graph.clone(), proto.clone(), exp.clone())
            .explore_with_stats(states.clone());
        let (rep_u, st_u) = Explorer::new(graph, proto, exp)
            .with_packed(false)
            .explore_with_stats(states);
        assert_eq!(rep_p, rep_u);
        assert!(st_p.packed && !st_u.packed);
        assert!(st_p.interned_messages > 0);
        assert!(st_p.interned_nodes > 0);
        // Node blobs must be shared: far fewer blobs than stored states.
        assert!(st_p.interned_nodes < st_p.states_stored / 2);
        let (bp, bu) = (st_p.bytes_per_state(), st_u.bytes_per_state());
        assert!(
            bp * 4.0 <= bu,
            "packed {bp:.1} B/state vs unpacked {bu:.1} B/state"
        );
    }

    #[test]
    fn parallel_report_is_bit_identical() {
        // The determinism contract, pinned on a real instance: 1, 2 and 4
        // workers must produce the exact sequential Report.
        let graph = gen::ring(4);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 1, 0),
            enqueue(&mut states, 2, 3, 2, 1),
        ];
        let proto = SsmfpProtocol::new(4, graph.max_degree());
        let seq = Explorer::new(graph.clone(), proto.clone(), exp.clone()).explore(states.clone());
        for threads in [2, 4] {
            let par = Explorer::new(graph.clone(), proto.clone(), exp.clone())
                .with_threads(threads)
                .explore(states.clone());
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_truncation_and_traces() {
        // Truncation point and counterexample reconstruction must also be
        // bit-identical under parallel exploration.
        let graph = gen::line(3);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 2, 1, 0),
            enqueue(&mut states, 2, 0, 2, 1),
        ];
        let proto = SsmfpProtocol::new(3, graph.max_degree());
        let mut seq = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        seq.max_states = 500;
        let mut par = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        par.max_states = 500;
        par.threads = 3;
        assert_eq!(seq.explore(states.clone()), par.explore(states.clone()));

        // Counterexample: the literal-R5 loss with tracing on.
        let graph = gen::line(2);
        let mut states = clean_states(&graph);
        let exp = vec![
            enqueue(&mut states, 0, 1, 7, 0),
            enqueue(&mut states, 0, 1, 7, 1),
        ];
        let proto = SsmfpProtocol::new(2, graph.max_degree()).with_literal_r5();
        let mut seq = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        seq.trace_counterexamples = true;
        let mut par = Explorer::new(graph, proto, exp);
        par.trace_counterexamples = true;
        par.threads = 4;
        let seq_report = seq.explore(states.clone());
        let par_report = par.explore(states);
        assert_eq!(seq_report, par_report);
        assert!(par_report.counterexample.is_some());
    }
}
