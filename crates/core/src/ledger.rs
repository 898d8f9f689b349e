//! The specification monitors: executable versions of `SP` and `SP'`.
//!
//! [`DeliveryLedger`] consumes the engine's event stream and maintains the
//! ground truth the proofs reason about: which valid messages were
//! generated, how often each physical message (ghost identity) was
//! delivered, and how many *invalid* messages reached each destination.
//!
//! Every model decides exactly-once with one join, [`reconcile_ledgers`],
//! over per-node slices ([`NodeLedger`]): each node knows only what it
//! generated, what was delivered at it, and what it holds. The join checks
//! Specification `SP` —
//!
//! * no valid message delivered more than once (Lemma 5: no duplication),
//! * no valid message lost: every generated message is delivered or still
//!   in flight (Lemma 4: no deletion without delivery),
//! * every valid message delivered at its destination.
//!
//! The cluster's nodes export their slices; the state model cuts its
//! ledger into them ([`DeliveryLedger::node_ledgers`]); [`RunningAudit`]
//! is the same join on a stream, proven equal to it. Proposition 4's bound
//! — at most `2n` invalid messages delivered per destination — sits beside
//! the join, in [`DeliveryLedger::check_sp_since`]: it is proven for the
//! state model, and whether the port keeps it is still open.
//! [`reconcile_clients`] (its own module, `ledger/clients.rs`) audits each
//! logical client.

use crate::message::{GhostId, Payload};
use crate::protocol::Event;
use ssmfp_kernel::engine::EventRecord;
use ssmfp_topology::NodeId;
use std::collections::HashMap;

mod clients;

pub use clients::{reconcile_clients, ClientStamp, ClientVerdict, ClientViolation};

/// A violation of Specification `SP` (or of Proposition 4's bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpViolation {
    /// A valid message was delivered more than once.
    DuplicateDelivery {
        /// The offending message.
        ghost: GhostId,
        /// How many times it was delivered.
        count: u64,
    },
    /// A valid message was generated, never delivered, and no copy of it
    /// remains in any buffer: it was lost.
    Lost {
        /// The lost message.
        ghost: GhostId,
    },
    /// A valid message was delivered to a processor other than its
    /// destination.
    Misdelivered {
        /// The message.
        ghost: GhostId,
        /// Where it should have gone.
        expected: NodeId,
        /// Where it arrived.
        actual: NodeId,
    },
    /// More than `2n` invalid messages were delivered to one destination.
    InvalidOverBound {
        /// The destination.
        dest: NodeId,
        /// Invalid deliveries observed there.
        count: u64,
        /// The Proposition 4 bound `2n`.
        bound: u64,
    },
}

/// Record of one generated (valid) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedRecord {
    /// The generating processor.
    pub source: NodeId,
    /// The destination.
    pub dest: NodeId,
    /// The payload.
    pub payload: Payload,
    /// Step stamp of the generation.
    pub step: u64,
    /// Round stamp of the generation.
    pub round: u64,
}

/// Record of one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The delivering (destination) processor.
    pub node: NodeId,
    /// Step stamp.
    pub step: u64,
    /// Round stamp.
    pub round: u64,
}

/// Ground-truth accounting of generations and deliveries.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLedger {
    generated: HashMap<GhostId, GeneratedRecord>,
    deliveries: HashMap<GhostId, Vec<DeliveryRecord>>,
    invalid_per_dest: HashMap<NodeId, u64>,
    /// Counters of rule firings, for the move/overhead metrics.
    pub forwards: u64,
    /// R2 firings.
    pub internal_moves: u64,
    /// R4 firings.
    pub erases_after_copy: u64,
    /// R5 firings.
    pub duplicate_erases: u64,
}

impl DeliveryLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one stamped event.
    pub fn record(&mut self, rec: &EventRecord<Event>) {
        match rec.event {
            Event::Generated {
                ghost,
                dest,
                payload,
            } => {
                let prev = self.generated.insert(
                    ghost,
                    GeneratedRecord {
                        source: rec.node,
                        dest,
                        payload,
                        step: rec.step,
                        round: rec.round,
                    },
                );
                debug_assert!(prev.is_none(), "ghost {ghost:?} generated twice");
            }
            Event::Delivered { ghost, .. } => {
                self.deliveries
                    .entry(ghost)
                    .or_default()
                    .push(DeliveryRecord {
                        node: rec.node,
                        step: rec.step,
                        round: rec.round,
                    });
                if !ghost.is_valid() {
                    *self.invalid_per_dest.entry(rec.node).or_insert(0) += 1;
                }
            }
            Event::Forwarded { .. } => self.forwards += 1,
            Event::InternalMove { .. } => self.internal_moves += 1,
            Event::ErasedAfterCopy { .. } => self.erases_after_copy += 1,
            Event::ErasedDuplicate { .. } => self.duplicate_erases += 1,
        }
    }

    /// Absorbs a batch of stamped events.
    pub fn absorb(&mut self, recs: &[EventRecord<Event>]) {
        for r in recs {
            self.record(r);
        }
    }

    /// Number of deliveries of one physical message.
    pub fn deliveries_of(&self, ghost: GhostId) -> u64 {
        self.deliveries.get(&ghost).map_or(0, |v| v.len() as u64)
    }

    /// The delivery records of one message.
    pub fn delivery_records(&self, ghost: GhostId) -> &[DeliveryRecord] {
        self.deliveries.get(&ghost).map_or(&[], Vec::as_slice)
    }

    /// The generation record of a valid message, if it was generated.
    pub fn generation_of(&self, ghost: GhostId) -> Option<&GeneratedRecord> {
        self.generated.get(&ghost)
    }

    /// Total valid messages generated.
    pub fn generated_count(&self) -> u64 {
        self.generated.len() as u64
    }

    /// Total deliveries of valid messages.
    pub fn valid_delivered_count(&self) -> u64 {
        self.deliveries
            .iter()
            .filter(|(g, _)| g.is_valid())
            .map(|(_, v)| v.len() as u64)
            .sum()
    }

    /// Total deliveries of invalid messages.
    pub fn invalid_delivered_count(&self) -> u64 {
        self.invalid_per_dest.values().sum()
    }

    /// Invalid deliveries at one destination (Proposition 4's quantity).
    pub fn invalid_delivered_at(&self, dest: NodeId) -> u64 {
        self.invalid_per_dest.get(&dest).copied().unwrap_or(0)
    }

    /// Cuts the ledger into per-node slices for [`reconcile_ledgers`], one
    /// per entry of `held` (what each node holds in its buffers). The
    /// slice of node `p` lists the valid messages `p` generated at step
    /// `>= since_step`, the ghosts delivered at `p` — those messages' and
    /// every invalid one — and `held[p]`.
    pub fn node_ledgers(&self, since_step: u64, held: Vec<Vec<GhostId>>) -> Vec<NodeLedger> {
        let mut ledgers: Vec<NodeLedger> = held
            .into_iter()
            .enumerate()
            .map(|(node, held)| NodeLedger {
                node,
                held,
                ..NodeLedger::default()
            })
            .collect();
        for (&ghost, r) in &self.generated {
            if r.step >= since_step {
                ledgers[r.source].generated.push((ghost, r.dest));
            }
        }
        for (&ghost, recs) in &self.deliveries {
            if self
                .generated
                .get(&ghost)
                .is_none_or(|r| r.step >= since_step)
            {
                for r in recs {
                    ledgers[r.node].delivered.push(ghost);
                }
            }
        }
        ledgers
    }

    /// Audits `SP` for the **post-fault epoch**: only messages generated at
    /// step `>= since_step` are held to the exactly-once guarantee. This is
    /// the quantifier the paper actually proves — a transient fault may
    /// legitimately destroy or duplicate a copy of a message generated
    /// *before* it struck, but everything generated after the last fault
    /// must be delivered once and only once.
    ///
    /// The violations are [`reconcile_ledgers`]' over
    /// [`DeliveryLedger::node_ledgers`] (by ghost), then Proposition 4's:
    /// more than `2n` invalid deliveries at one destination, `n` being
    /// `held.len()` (by destination). That bound only applies to the
    /// initial epoch (`since_step == 0`): mid-run faults mint fresh
    /// invalid messages outside its counting argument.
    pub fn check_sp_since(&self, since_step: u64, held: Vec<Vec<GhostId>>) -> Vec<SpViolation> {
        let bound = 2 * held.len() as u64;
        let mut violations = reconcile_ledgers(&self.node_ledgers(since_step, held)).violations;
        if since_step == 0 {
            let mut over: Vec<(NodeId, u64)> = self
                .invalid_per_dest
                .iter()
                .filter(|&(_, &count)| count > bound)
                .map(|(&dest, &count)| (dest, count))
                .collect();
            over.sort_unstable();
            violations.extend(
                over.into_iter()
                    .map(|(dest, count)| SpViolation::InvalidOverBound { dest, count, bound }),
            );
        }
        violations
    }

    /// Valid messages generated at step `>= since_step` and not yet
    /// delivered — the post-fault outstanding set a quiesced network must
    /// have emptied.
    pub fn outstanding_since(&self, since_step: u64) -> Vec<GhostId> {
        let mut out: Vec<GhostId> = self
            .generated
            .iter()
            .filter(|(g, r)| r.step >= since_step && self.deliveries_of(**g) == 0)
            .map(|(g, _)| *g)
            .collect();
        out.sort();
        out
    }
}

/// One cluster node's ledger slice, exported at shutdown. Each node only
/// knows what it generated, what it delivered, and what it still holds —
/// the cluster-wide `SP` verdict exists only after
/// [`reconcile_ledgers`] joins the slices.
#[derive(Debug, Clone, Default)]
pub struct NodeLedger {
    /// The exporting node.
    pub node: NodeId,
    /// Valid messages this node generated: `(ghost, destination)`.
    pub generated: Vec<(GhostId, NodeId)>,
    /// Ghosts delivered *at this node* (it believed itself the
    /// destination), valid or not, one entry per physical delivery.
    pub delivered: Vec<GhostId>,
    /// Ghosts still held in this node's buffers at export time.
    pub held: Vec<GhostId>,
}

/// The cluster-wide `SP` verdict produced by [`reconcile_ledgers`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterVerdict {
    /// Valid messages generated across the cluster.
    pub generated: u64,
    /// Valid messages delivered exactly once at their destination.
    pub exactly_once: u64,
    /// Valid messages undelivered but still held somewhere (legal at a
    /// non-quiescent shutdown; a quiesced cluster must report 0).
    pub in_flight: u64,
    /// Invalid (never-generated) messages delivered anywhere.
    pub invalid_delivered: u64,
    /// Every `SP` violation the join exposes.
    pub violations: Vec<SpViolation>,
}

impl ClusterVerdict {
    /// True iff the reconciliation found no violation.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Valid messages gone without any delivery.
    pub fn lost(&self) -> u64 {
        self.count(|v| matches!(v, SpViolation::Lost { .. }))
    }

    /// Valid messages delivered more than once.
    pub fn duplicated(&self) -> u64 {
        self.count(|v| matches!(v, SpViolation::DuplicateDelivery { .. }))
    }

    fn count(&self, kind: impl Fn(&SpViolation) -> bool) -> u64 {
        self.violations.iter().filter(|v| kind(v)).count() as u64
    }
}

/// Work meter for [`reconcile_ledgers_counted`]: how many ledger
/// entries each phase of the join touched. The join is one visit per
/// entry plus one sort per list — no hash map, no allocation per ghost
/// — and this meter is what the regression test pins the visits against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconcileWork {
    /// Generated-list entries scanned (phase 1).
    pub generated_scanned: u64,
    /// Delivered-list entries scanned (phase 2).
    pub delivered_scanned: u64,
    /// Held-list entries scanned (phase 3).
    pub held_scanned: u64,
    /// Distinct generated ghosts resolved to a verdict (phase 4).
    pub ghosts_resolved: u64,
}

/// Bits of a join key below its ghost rank: the entry's position in its
/// flattened list (ledger order, then list order).
const POS_BITS: u32 = 63;

/// A ghost as an integer that sorts exactly as [`GhostId`]'s derived
/// `Ord`: `Valid(k)` is `k`, `Invalid(k)` is `2^64 + k`.
fn ghost_rank(g: GhostId) -> u128 {
    match g {
        GhostId::Valid(k) => k as u128,
        GhostId::Invalid(k) => 1 << 64 | k as u128,
    }
}

fn rank_ghost(rank: u128) -> GhostId {
    if rank >> 64 == 0 {
        GhostId::Valid(rank as u64)
    } else {
        GhostId::Invalid(rank as u64)
    }
}

/// The position packed into the low bits of a join key.
fn pos(key: u128, bits: u32) -> usize {
    (key & ((1 << bits) - 1)) as usize
}

/// Moves `cursor` along the sorted `keys` past every key whose
/// `key >> shift` is below `rank`, and returns how many it passed and
/// the run of keys equal to `rank` after them (in position order, since
/// the position is the key's low part).
fn take_run<'a>(keys: &'a [u128], cursor: &mut usize, rank: u128, shift: u32) -> (u64, &'a [u128]) {
    let start = *cursor;
    while keys.get(*cursor).is_some_and(|&k| k >> shift < rank) {
        *cursor += 1;
    }
    let first = *cursor;
    while keys.get(*cursor).is_some_and(|&k| k >> shift == rank) {
        *cursor += 1;
    }
    ((first - start) as u64, &keys[first..*cursor])
}

/// Joins per-node ledger slices into the cluster-wide `SP` verdict:
/// every generated valid message must be delivered exactly once, at its
/// destination; undelivered messages still held somewhere count as
/// in-flight, held nowhere as [`SpViolation::Lost`]. A ghost delivered
/// at several nodes is both duplicated and (at the wrong nodes)
/// misdelivered; the duplication is reported once and each wrong-node
/// delivery separately. Violations come out by ghost.
///
/// The join is **total on adversarial input**: a ghost listed as
/// generated by several entries (a duplicate-stamp bug upstream, or the
/// seeded mutation check exercising the audit) is not an error here —
/// the last destination wins for the `SP` join, and the per-client
/// audit ([`reconcile_clients`]) reports the duplicate generation.
pub fn reconcile_ledgers(ledgers: &[NodeLedger]) -> ClusterVerdict {
    reconcile_ledgers_counted(ledgers).0
}

/// [`reconcile_ledgers`] with its [`ReconcileWork`] meter exposed.
///
/// A sort-merge join: each list is flattened once into integer keys —
/// the ghost's rank over its input position — and sorted once; one walk
/// over the generated ghosts then meets each ghost's deliveries (in
/// ledger order) and held copies. Nothing is hashed or allocated per
/// ghost.
pub fn reconcile_ledgers_counted(ledgers: &[NodeLedger]) -> (ClusterVerdict, ReconcileWork) {
    let mut work = ReconcileWork::default();
    let mut verdict = ClusterVerdict::default();
    let mut dest: Vec<NodeId> = Vec::new();
    let mut gen: Vec<u128> = Vec::new();
    for l in ledgers {
        for &(ghost, d) in &l.generated {
            gen.push(ghost_rank(ghost) << POS_BITS | dest.len() as u128);
            dest.push(d);
        }
    }
    work.generated_scanned = gen.len() as u64;
    // Only a valid ghost can be delivered legitimately: the others are
    // counted here and never join.
    let mut at: Vec<NodeId> = Vec::new();
    let mut del: Vec<u128> = Vec::new();
    for l in ledgers {
        work.delivered_scanned += l.delivered.len() as u64;
        for &ghost in &l.delivered {
            if ghost.is_valid() {
                del.push(ghost_rank(ghost) << POS_BITS | at.len() as u128);
                at.push(l.node);
            } else {
                verdict.invalid_delivered += 1;
            }
        }
    }
    let mut held: Vec<u128> = ledgers
        .iter()
        .flat_map(|l| l.held.iter().map(|&g| ghost_rank(g)))
        .collect();
    work.held_scanned = held.len() as u64;
    gen.sort_unstable();
    del.sort_unstable();
    held.sort_unstable();

    let (mut d, mut h) = (0, 0);
    for run in gen.chunk_by(|a, b| a >> POS_BITS == b >> POS_BITS) {
        work.ghosts_resolved += 1;
        let rank = run[0] >> POS_BITS;
        let ghost = rank_ghost(rank);
        // The last generation sets the destination.
        let want = dest[pos(run[run.len() - 1], POS_BITS)];
        // Deliveries of valid ghosts nobody generated sort in between.
        let (ungenerated, got) = take_run(&del, &mut d, rank, POS_BITS);
        verdict.invalid_delivered += ungenerated;
        match got {
            [] => {
                if take_run(&held, &mut h, rank, 0).1.is_empty() {
                    verdict.violations.push(SpViolation::Lost { ghost });
                } else {
                    verdict.in_flight += 1;
                }
            }
            [k] if at[pos(*k, POS_BITS)] == want => verdict.exactly_once += 1,
            _ => {
                if got.len() > 1 {
                    verdict.violations.push(SpViolation::DuplicateDelivery {
                        ghost,
                        count: got.len() as u64,
                    });
                }
                for &k in got {
                    let node = at[pos(k, POS_BITS)];
                    if node != want {
                        verdict.violations.push(SpViolation::Misdelivered {
                            ghost,
                            expected: want,
                            actual: node,
                        });
                    }
                }
            }
        }
    }
    verdict.invalid_delivered += (del.len() - d) as u64;
    verdict.generated = work.ghosts_resolved;
    (verdict, work)
}

/// The tag bit of a [`RunningAudit`] key that marks a delivery; below
/// it, a generation's destination or a delivery's node.
const DEL: u64 = 1 << 63;

/// Entries a [`RunningAudit`] buffers before it settles on its own.
const BATCH_CAP: usize = 1 << 12;

/// [`reconcile_ledgers`] run on the ledger stream while it streams, for
/// the one verdict a clean run has: every valid ghost generated once and
/// delivered once, at its destination.
///
/// Feed it a ledger's entries in any order and in any slices
/// ([`RunningAudit::generated`], [`RunningAudit::delivered`]). A join —
/// [`RunningAudit::settle`], once the batch is worth it — sorts the batch
/// fed since the last one and merges it with the sorted remainder of
/// unpaired entries. A ghost met once as generated and once as delivered
/// at that generation's destination retires into a sorted list of ghost
/// ranges, so what stays resident is the unpaired entries and one range
/// per run of consecutive retired ghosts — a stream of sequence numbers
/// from one source is one range. Anything else the reference join would
/// have to judge — a repeat, a wrong-node delivery, a generated invalid
/// ghost — makes the audit *irregular*, and it stops joining.
/// [`RunningAudit::finish`] returns the verdict only when nothing is
/// unpaired and nothing was irregular, and that verdict is then exactly
/// what [`reconcile_ledgers`] returns on the same entries. `None` sends the
/// caller to the reference join.
#[derive(Debug, Clone, Default)]
pub struct RunningAudit {
    /// Entries fed since the last join, as keys `k << 64 | tag`: a
    /// valid ghost's number over [`DEL`] (deliveries) and a node.
    batch: Vec<u128>,
    /// Unpaired entries, sorted.
    pending: Vec<u128>,
    /// Retired ghosts as sorted, disjoint, non-adjacent inclusive ranges,
    /// and the buffer the next join writes them into.
    retired: [Vec<(u64, u64)>; 2],
    /// Ghosts retired.
    exactly_once: u64,
    /// Invalid ghosts delivered.
    invalid_delivered: u64,
    /// The most entries held after any settle: the unpaired remainder
    /// and the batch a settle left unjoined.
    pending_peak: u64,
    /// An entry only the reference join can judge was seen.
    irregular: bool,
}

impl RunningAudit {
    /// Feeds generated entries, `(ghost, destination)`.
    pub fn generated(&mut self, entries: &[(GhostId, NodeId)]) {
        for &(ghost, dest) in entries {
            match ghost {
                GhostId::Valid(k) => self.push(k, dest as u64),
                GhostId::Invalid(_) => self.irregular = true,
            }
        }
    }

    /// Feeds the ghosts delivered at `node`.
    pub fn delivered(&mut self, node: NodeId, ghosts: &[GhostId]) {
        for &ghost in ghosts {
            match ghost {
                GhostId::Valid(k) => self.push(k, DEL | node as u64),
                GhostId::Invalid(_) => self.invalid_delivered += 1,
            }
        }
    }

    fn push(&mut self, k: u64, tag: u64) {
        self.batch.push((k as u128) << 64 | tag as u128);
        if self.batch.len() >= BATCH_CAP {
            self.settle();
        }
    }

    /// Joins the batch fed since the last join, once it is at least a
    /// quarter the size of the unpaired remainder: a join walks the whole
    /// remainder, and entries whose other end has not been fed yet — a
    /// primary in flight, or a ghost whose far end streams in late — stay
    /// in it until it arrives, so a join per small batch would cost
    /// O(remainder) each — quadratic over a run.
    pub fn settle(&mut self) {
        if self.batch.len() * 4 >= self.pending.len() {
            self.join();
        }
        let held = (self.batch.len() + self.pending.len()) as u64;
        self.pending_peak = self.pending_peak.max(held);
    }

    /// One sort of the batch, one merge of it into the unpaired remainder
    /// — from the back, in place — then one walk over the merged entries
    /// and the retired ranges, which keeps the still-unpaired ones at the
    /// front.
    fn join(&mut self) {
        if self.irregular {
            self.batch.clear();
            self.pending.clear();
            return;
        }
        if self.batch.is_empty() {
            return;
        }
        self.batch.sort_unstable();
        let (keys, batch) = (&mut self.pending, &self.batch);
        let (mut i, mut j) = (keys.len(), batch.len());
        keys.resize(i + j, 0);
        while j > 0 {
            if i > 0 && keys[i - 1] > batch[j - 1] {
                i -= 1;
                keys[i + j] = keys[i];
            } else {
                j -= 1;
                keys[i + j] = batch[j];
            }
        }
        let [ranges, out] = &mut self.retired;
        out.clear();
        let (mut read, mut kept, mut r) = (0, 0, 0);
        let irregular = loop {
            let Some(&first) = keys.get(read) else {
                break false;
            };
            let k = (first >> 64) as u64;
            let (mut gen, mut del, mut repeat) = (None, None, false);
            while let Some(&key) = keys.get(read).filter(|&&key| (key >> 64) as u64 == k) {
                read += 1;
                let slot = if key as u64 & DEL == 0 {
                    &mut gen
                } else {
                    &mut del
                };
                repeat |= slot.replace(key).is_some();
            }
            // The ranges below `k` carry over; one holding it is a repeat.
            while let Some(&range) = ranges.get(r).filter(|range| range.1 < k) {
                extend(out, range);
                r += 1;
            }
            if repeat || ranges.get(r).is_some_and(|range| range.0 <= k) {
                break true;
            }
            match (gen, del) {
                (Some(g), Some(d)) if g as u64 == d as u64 & !DEL => {
                    extend(out, (k, k));
                    self.exactly_once += 1;
                }
                (Some(_), Some(_)) => break true,
                (Some(key), None) | (None, Some(key)) => {
                    keys[kept] = key;
                    kept += 1;
                }
                (None, None) => unreachable!("a ghost is met through one of its entries"),
            }
        };
        for &range in &ranges[r..] {
            extend(out, range);
        }
        keys.truncate(kept);
        self.batch.clear();
        self.retired.swap(0, 1);
        self.irregular = irregular;
        if irregular {
            self.pending.clear();
        }
    }

    /// The verdict, when the fed entries show every generated ghost valid,
    /// generated once and delivered once at its destination — exactly
    /// [`reconcile_ledgers`] on the same entries. `None` when anything is
    /// unpaired or was irregular.
    pub fn finish(mut self) -> Option<ClusterVerdict> {
        self.join();
        (!self.irregular && self.pending.is_empty()).then(|| ClusterVerdict {
            generated: self.exactly_once,
            exactly_once: self.exactly_once,
            in_flight: 0,
            invalid_delivered: self.invalid_delivered,
            violations: Vec::new(),
        })
    }

    /// The most entries held after any settle, joined or not: the
    /// unpaired remainder plus the batch the ¼ rule left unjoined.
    pub fn pending_peak(&self) -> u64 {
        self.pending_peak
    }
}

/// Appends `range` to a sorted range list, coalescing it with the last
/// range when they meet or touch.
fn extend(out: &mut Vec<(u64, u64)>, range: (u64, u64)) {
    match out.last_mut() {
        Some(last) if last.1.checked_add(1).is_none_or(|next| next >= range.0) => {
            last.1 = last.1.max(range.1)
        }
        _ => out.push(range),
    }
}

/// The hash-map join the sort-merge one replaced, kept as the oracle the
/// property test holds it to.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::HashSet;

    pub(super) fn reconcile_ledgers_counted(
        ledgers: &[NodeLedger],
    ) -> (ClusterVerdict, ReconcileWork) {
        let mut work = ReconcileWork::default();
        let mut verdict = ClusterVerdict::default();
        let mut expected: HashMap<GhostId, NodeId> = HashMap::new();
        for l in ledgers {
            for &(ghost, dest) in &l.generated {
                work.generated_scanned += 1;
                expected.insert(ghost, dest);
            }
        }
        let mut deliveries: HashMap<GhostId, Vec<NodeId>> = HashMap::new();
        for l in ledgers {
            for &ghost in &l.delivered {
                work.delivered_scanned += 1;
                if ghost.is_valid() && expected.contains_key(&ghost) {
                    deliveries.entry(ghost).or_default().push(l.node);
                } else {
                    verdict.invalid_delivered += 1;
                }
            }
        }
        let mut held: HashSet<GhostId> = HashSet::new();
        for l in ledgers {
            work.held_scanned += l.held.len() as u64;
            held.extend(l.held.iter().copied());
        }
        verdict.generated = expected.len() as u64;
        let mut ghosts: Vec<(&GhostId, &NodeId)> = expected.iter().collect();
        ghosts.sort(); // deterministic violation order across runs
        for (&ghost, &dest) in ghosts {
            work.ghosts_resolved += 1;
            let at = deliveries.get(&ghost).map_or(&[][..], Vec::as_slice);
            match at.len() {
                0 => {
                    if held.contains(&ghost) {
                        verdict.in_flight += 1;
                    } else {
                        verdict.violations.push(SpViolation::Lost { ghost });
                    }
                }
                1 if at[0] == dest => verdict.exactly_once += 1,
                k => {
                    if k > 1 {
                        verdict.violations.push(SpViolation::DuplicateDelivery {
                            ghost,
                            count: k as u64,
                        });
                    }
                    for &node in at {
                        if node != dest {
                            verdict.violations.push(SpViolation::Misdelivered {
                                ghost,
                                expected: dest,
                                actual: node,
                            });
                        }
                    }
                }
            }
        }
        (verdict, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(step: u64, node: NodeId, event: Event) -> EventRecord<Event> {
        EventRecord {
            step,
            round: step,
            node,
            event,
        }
    }

    #[test]
    fn exactly_once_is_clean() {
        let mut ledger = DeliveryLedger::new();
        let g = GhostId::Valid(0);
        ledger.record(&rec(
            0,
            1,
            Event::Generated {
                ghost: g,
                dest: 3,
                payload: 7,
            },
        ));
        ledger.record(&rec(
            5,
            3,
            Event::Delivered {
                ghost: g,
                payload: 7,
            },
        ));
        assert_eq!(ledger.deliveries_of(g), 1);
        assert!(ledger.check_sp_since(0, vec![Vec::new(); 4]).is_empty());
    }

    #[test]
    fn duplicate_delivery_detected() {
        let mut ledger = DeliveryLedger::new();
        let g = GhostId::Valid(0);
        ledger.record(&rec(
            0,
            1,
            Event::Generated {
                ghost: g,
                dest: 3,
                payload: 7,
            },
        ));
        ledger.record(&rec(
            5,
            3,
            Event::Delivered {
                ghost: g,
                payload: 7,
            },
        ));
        ledger.record(&rec(
            9,
            3,
            Event::Delivered {
                ghost: g,
                payload: 7,
            },
        ));
        assert_eq!(
            ledger.check_sp_since(0, vec![Vec::new(); 4]),
            vec![SpViolation::DuplicateDelivery { ghost: g, count: 2 }]
        );
    }

    #[test]
    fn misdelivery_detected() {
        let mut ledger = DeliveryLedger::new();
        let g = GhostId::Valid(0);
        ledger.record(&rec(
            0,
            1,
            Event::Generated {
                ghost: g,
                dest: 3,
                payload: 7,
            },
        ));
        ledger.record(&rec(
            5,
            2,
            Event::Delivered {
                ghost: g,
                payload: 7,
            },
        ));
        assert_eq!(
            ledger.check_sp_since(0, vec![Vec::new(); 4]),
            vec![SpViolation::Misdelivered {
                ghost: g,
                expected: 3,
                actual: 2
            }]
        );
    }

    #[test]
    fn undelivered_but_in_flight_is_not_lost() {
        let g = GhostId::Valid(0);
        let mut ledger = DeliveryLedger::new();
        ledger.record(&rec(
            0,
            0,
            Event::Generated {
                ghost: g,
                dest: 2,
                payload: 7,
            },
        ));
        // Not delivered, not in any buffer: lost.
        let mut held = vec![Vec::new(); 3];
        assert_eq!(
            ledger.check_sp_since(0, held.clone()),
            vec![SpViolation::Lost { ghost: g }]
        );
        // Put a copy in flight at node 1: no violation.
        held[1].push(g);
        assert!(ledger.check_sp_since(0, held).is_empty());
    }

    #[test]
    fn invalid_deliveries_counted_per_destination() {
        let mut ledger = DeliveryLedger::new();
        for k in 0..5 {
            ledger.record(&rec(
                k,
                1,
                Event::Delivered {
                    ghost: GhostId::Invalid(k),
                    payload: 0,
                },
            ));
        }
        assert_eq!(ledger.invalid_delivered_at(1), 5);
        assert_eq!(ledger.invalid_delivered_at(0), 0);
        // Bound 2n with n = 2 → bound 4 → violated.
        assert_eq!(
            ledger.check_sp_since(0, vec![Vec::new(); 2]),
            vec![SpViolation::InvalidOverBound {
                dest: 1,
                count: 5,
                bound: 4
            }]
        );
        // With n = 3 → bound 6 → fine.
        assert!(ledger.check_sp_since(0, vec![Vec::new(); 3]).is_empty());
    }

    #[test]
    fn counters_accumulate() {
        let mut ledger = DeliveryLedger::new();
        let g = GhostId::Valid(0);
        ledger.record(&rec(0, 0, Event::Forwarded { ghost: g }));
        ledger.record(&rec(1, 0, Event::InternalMove { ghost: g }));
        ledger.record(&rec(2, 0, Event::ErasedAfterCopy { ghost: g }));
        ledger.record(&rec(3, 0, Event::ErasedDuplicate { ghost: g }));
        assert_eq!(
            (
                ledger.forwards,
                ledger.internal_moves,
                ledger.erases_after_copy,
                ledger.duplicate_erases
            ),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn outstanding_lists_pending_messages() {
        let mut ledger = DeliveryLedger::new();
        let a = GhostId::Valid(0);
        let b = GhostId::Valid(1);
        ledger.record(&rec(
            0,
            0,
            Event::Generated {
                ghost: a,
                dest: 1,
                payload: 0,
            },
        ));
        ledger.record(&rec(
            0,
            0,
            Event::Generated {
                ghost: b,
                dest: 1,
                payload: 0,
            },
        ));
        ledger.record(&rec(
            3,
            1,
            Event::Delivered {
                ghost: a,
                payload: 0,
            },
        ));
        assert_eq!(ledger.outstanding_since(0), vec![b]);
    }

    #[test]
    fn epoch_scoped_audit_forgives_pre_fault_messages() {
        let mut ledger = DeliveryLedger::new();
        let old = GhostId::Valid(0);
        let new = GhostId::Valid(1);
        // `old` generated at step 2 and lost; `new` generated at step 10
        // and duplicated.
        ledger.record(&rec(
            2,
            0,
            Event::Generated {
                ghost: old,
                dest: 1,
                payload: 0,
            },
        ));
        ledger.record(&rec(
            10,
            0,
            Event::Generated {
                ghost: new,
                dest: 1,
                payload: 0,
            },
        ));
        for step in [12, 14] {
            ledger.record(&rec(
                step,
                1,
                Event::Delivered {
                    ghost: new,
                    payload: 0,
                },
            ));
        }
        // Epoch at step 5: the pre-fault loss is forgiven, the post-fault
        // duplication is not.
        assert_eq!(
            ledger.check_sp_since(5, vec![Vec::new(); 2]),
            vec![SpViolation::DuplicateDelivery {
                ghost: new,
                count: 2
            }]
        );
        // Full-history audit sees both.
        assert_eq!(ledger.check_sp_since(0, vec![Vec::new(); 2]).len(), 2);
        assert_eq!(ledger.outstanding_since(5), vec![]);
        assert_eq!(ledger.outstanding_since(0), vec![old]);
    }

    #[test]
    fn invalid_bound_applies_only_to_initial_epoch() {
        let mut ledger = DeliveryLedger::new();
        for k in 0..5 {
            ledger.record(&rec(
                k,
                1,
                Event::Delivered {
                    ghost: GhostId::Invalid(k),
                    payload: 0,
                },
            ));
        }
        // n = 2 → bound 4 → violated from step 0, forgiven post-fault.
        assert_eq!(ledger.check_sp_since(0, vec![Vec::new(); 2]).len(), 1);
        assert!(ledger.check_sp_since(1, vec![Vec::new(); 2]).is_empty());
    }

    #[test]
    fn reconcile_clean_cluster() {
        let a = GhostId::Valid(0);
        let b = GhostId::Valid(1);
        let ledgers = vec![
            NodeLedger {
                node: 0,
                generated: vec![(a, 2)],
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 1,
                generated: vec![(b, 0)],
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 2,
                generated: vec![],
                delivered: vec![a],
                held: vec![],
            },
            NodeLedger {
                node: 0,
                generated: vec![],
                delivered: vec![b],
                held: vec![],
            },
        ];
        let v = reconcile_ledgers(&ledgers);
        assert!(v.clean());
        assert_eq!((v.generated, v.exactly_once, v.in_flight), (2, 2, 0));
    }

    #[test]
    fn reconcile_exposes_every_violation_kind() {
        let lost = GhostId::Valid(0);
        let dup = GhostId::Valid(1);
        let stray = GhostId::Valid(2);
        let flight = GhostId::Valid(3);
        let ledgers = vec![
            NodeLedger {
                node: 0,
                generated: vec![(lost, 2), (dup, 2), (stray, 2), (flight, 2)],
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 1,
                generated: vec![],
                // `stray` lands at node 1 ≠ dest 2; `dup` lands here too.
                delivered: vec![stray, dup, GhostId::Invalid(7)],
                held: vec![flight],
            },
            NodeLedger {
                node: 2,
                generated: vec![],
                delivered: vec![dup],
                held: vec![],
            },
        ];
        let v = reconcile_ledgers(&ledgers);
        assert_eq!(v.generated, 4);
        assert_eq!(v.in_flight, 1);
        assert_eq!(v.invalid_delivered, 1);
        assert_eq!((v.lost(), v.duplicated()), (1, 1));
        assert!(v.violations.contains(&SpViolation::Lost { ghost: lost }));
        assert!(v.violations.contains(&SpViolation::DuplicateDelivery {
            ghost: dup,
            count: 2
        }));
        assert!(v.violations.contains(&SpViolation::Misdelivered {
            ghost: stray,
            expected: 2,
            actual: 1
        }));
        // `dup`'s wrong-node copy is also a misdelivery.
        assert!(v.violations.contains(&SpViolation::Misdelivered {
            ghost: dup,
            expected: 2,
            actual: 1
        }));
        assert!(!v.clean());
    }

    #[test]
    fn reconcile_is_total_on_duplicate_generations() {
        // The same ghost generated twice (a client-layer duplicate-stamp
        // bug) must not panic the SP join — it reports what it sees.
        let g = GhostId::Valid(7);
        let ledgers = vec![NodeLedger {
            node: 0,
            generated: vec![(g, 1), (g, 1)],
            delivered: vec![],
            held: vec![],
        }];
        let v = reconcile_ledgers(&ledgers);
        assert_eq!(v.generated, 1);
        assert_eq!(v.violations, vec![SpViolation::Lost { ghost: g }]);
    }

    #[test]
    fn reconcile_work_is_one_visit_per_merged_entry() {
        let mk = |node: NodeId, k: u64| NodeLedger {
            node,
            generated: (0..k)
                .map(|i| (GhostId::Valid(node as u64 * 1000 + i), 0))
                .collect(),
            delivered: (0..2 * k).map(GhostId::Valid).collect(),
            held: (0..3 * k).map(GhostId::Invalid).collect(),
        };
        let small = vec![mk(0, 4), mk(1, 4)];
        let (_, w) = reconcile_ledgers_counted(&small);
        // Exactly one visit per entry of each list — no rescans.
        assert_eq!(w.generated_scanned, 8);
        assert_eq!(w.delivered_scanned, 16);
        assert_eq!(w.held_scanned, 24);
        assert_eq!(w.ghosts_resolved, 8);
        // Doubling the merged input exactly doubles the work: linear,
        // not O(global scan per node).
        let big = vec![mk(0, 4), mk(1, 4), mk(2, 4), mk(3, 4)];
        let (_, w2) = reconcile_ledgers_counted(&big);
        assert_eq!(w2.generated_scanned, 2 * w.generated_scanned);
        assert_eq!(w2.delivered_scanned, 2 * w.delivered_scanned);
        assert_eq!(w2.held_scanned, 2 * w.held_scanned);
    }

    pub(super) fn stamp_ghost(client: u64, seq: u32) -> GhostId {
        GhostId::Valid(client << 8 | seq as u64)
    }

    /// Ghosts from a small universe, so that lists collide: stamps of
    /// clients 0–2 with sequences 0–3 (and the one at the top of the
    /// range), plus a few invalid ghosts, which carry no stamp.
    fn arb_ghost() -> impl Strategy<Value = GhostId> {
        prop_oneof![
            ((0u64..3), (0u32..4)).prop_map(|(c, s)| stamp_ghost(c, s)),
            ((0u64..3), (0u32..4)).prop_map(|(c, s)| stamp_ghost(c, s)),
            (0u64..3).prop_map(GhostId::Invalid),
            Just(GhostId::Valid(u64::MAX)),
        ]
    }

    /// Adversarial ledgers: node ids repeat across ledgers, a ghost may be
    /// generated by several nodes with different destinations, delivered
    /// at several nodes or twice at one, at the wrong node, out of order,
    /// held only or held and delivered, and stamps may be delivered that
    /// nobody generated.
    pub(super) fn arb_ledgers() -> impl Strategy<Value = Vec<NodeLedger>> {
        let ledger = (
            0usize..4,
            proptest::collection::vec((arb_ghost(), 0usize..4), 0..6),
            proptest::collection::vec(arb_ghost(), 0..8),
            proptest::collection::vec(arb_ghost(), 0..3),
        )
            .prop_map(|(node, generated, delivered, held)| NodeLedger {
                node,
                generated,
                delivered,
                held,
            });
        proptest::collection::vec(ledger, 0..6)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// The sort-merge `SP` join agrees with the hash-map oracle on the
        /// verdict, the violation order and the work meter.
        #[test]
        fn sort_merge_joins_match_the_oracles(ledgers in arb_ledgers()) {
            prop_assert_eq!(
                reconcile_ledgers_counted(&ledgers),
                oracle::reconcile_ledgers_counted(&ledgers),
                "{:?}",
                ledgers
            );
        }

        /// The running audit, fed the way the root feeds it — every list
        /// cut into random deltas, the lists interleaved at random,
        /// settles at random points — returns `None` or exactly the
        /// reference verdict, and returns it whenever every ghost is
        /// generated once and delivered once at its destination. The
        /// regular sets are built from the adversarial ones; a replayed
        /// ledger on top of one repeats every entry in it, in the same
        /// settle or a later one.
        #[test]
        fn the_running_audit_is_the_reference_join_or_nothing(
            ledgers in arb_ledgers(),
            seed in any::<u64>(),
            replay in any::<usize>(),
        ) {
            let mut rng = Rng(seed | 1);
            let reference = reconcile_ledgers(&ledgers);
            let running = run_audit(&ledgers, &mut rng);
            prop_assert!(running.is_none() || running.as_ref() == Some(&reference));
            prop_assert_eq!(running.is_some(), regular(&ledgers), "{:?}", ledgers);

            let mut ledgers = regularize(ledgers, &mut rng);
            prop_assert_eq!(run_audit(&ledgers, &mut rng), Some(reconcile_ledgers(&ledgers)));
            if !ledgers.is_empty() {
                ledgers.push(ledgers[replay % ledgers.len()].clone());
                let running = run_audit(&ledgers, &mut rng);
                prop_assert!(running.is_none() || running == Some(reconcile_ledgers(&ledgers)));
            }
        }
    }

    /// xorshift64: the random cuts of one proptest case.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    /// Feeds every list of `ledgers` to one audit in random slices, the
    /// lists interleaved at random, with random settles between them.
    fn run_audit(ledgers: &[NodeLedger], rng: &mut Rng) -> Option<ClusterVerdict> {
        let mut audit = RunningAudit::default();
        let mut cursors = vec![(0, 0); ledgers.len()];
        loop {
            let open: Vec<usize> = (0..ledgers.len())
                .filter(|&i| {
                    let (g, d) = cursors[i];
                    g < ledgers[i].generated.len() || d < ledgers[i].delivered.len()
                })
                .collect();
            let Some(&i) = open.get(rng.below(open.len().max(1))) else {
                break;
            };
            let (l, (g, d)) = (&ledgers[i], &mut cursors[i]);
            if *d == l.delivered.len() || *g < l.generated.len() && rng.below(2) == 0 {
                let end = *g + 1 + rng.below(l.generated.len() - *g);
                audit.generated(&l.generated[*g..end]);
                *g = end;
            } else {
                let end = *d + 1 + rng.below(l.delivered.len() - *d);
                audit.delivered(l.node, &l.delivered[*d..end]);
                *d = end;
            }
            if rng.below(3) == 0 {
                audit.settle();
            }
        }
        audit.finish()
    }

    /// Every generated ghost valid, generated once and delivered once, at
    /// its destination, and no valid ghost delivered that was not
    /// generated.
    fn regular(ledgers: &[NodeLedger]) -> bool {
        let generated: Vec<(GhostId, NodeId)> = ledgers
            .iter()
            .flat_map(|l| l.generated.iter().copied())
            .collect();
        let mut delivered: Vec<(GhostId, NodeId)> = ledgers
            .iter()
            .flat_map(|l| l.delivered.iter().map(|&g| (g, l.node)))
            .filter(|(g, _)| g.is_valid())
            .collect();
        let mut ghosts: Vec<GhostId> = generated.iter().map(|&(g, _)| g).collect();
        ghosts.sort_unstable();
        ghosts.dedup();
        delivered.sort_unstable();
        let mut want = generated.clone();
        want.sort_unstable();
        ghosts.len() == generated.len() && ghosts.iter().all(|g| g.is_valid()) && delivered == want
    }

    /// `ledgers` made regular: the first generation of each valid ghost
    /// kept, the valid deliveries replaced by one of each kept ghost at a
    /// random place in a ledger of its destination (a new one if none is).
    fn regularize(mut ledgers: Vec<NodeLedger>, rng: &mut Rng) -> Vec<NodeLedger> {
        let mut seen: Vec<GhostId> = Vec::new();
        for l in &mut ledgers {
            l.generated.retain(|&(g, _)| {
                let fresh = g.is_valid() && !seen.contains(&g);
                seen.extend(fresh.then_some(g));
                fresh
            });
            l.delivered.retain(|g| !g.is_valid());
        }
        let generated: Vec<(GhostId, NodeId)> = ledgers
            .iter()
            .flat_map(|l| l.generated.iter().copied())
            .collect();
        for (g, dest) in generated {
            let at: Vec<usize> = (0..ledgers.len())
                .filter(|&i| ledgers[i].node == dest)
                .collect();
            let i = match at.get(rng.below(at.len().max(1))) {
                Some(&i) => i,
                None => {
                    ledgers.push(NodeLedger {
                        node: dest,
                        ..NodeLedger::default()
                    });
                    ledgers.len() - 1
                }
            };
            let list = &mut ledgers[i].delivered;
            list.insert(rng.below(list.len() + 1), g);
        }
        ledgers
    }

    /// A stream whose entries all pair late — no other end has been fed
    /// yet — is held whole, and a join walks the whole remainder; settled
    /// after every entry, it still walks each entry about five times in
    /// all, not once per settle.
    #[test]
    fn a_remainder_that_never_pairs_is_walked_a_bounded_number_of_times() {
        const ENTRIES: usize = 10_000;
        let mut audit = RunningAudit::default();
        let mut walked = 0;
        for k in 0..ENTRIES as u64 {
            audit.generated(&[(GhostId::Valid(k), 1)]);
            let fed = audit.pending.len() + audit.batch.len();
            audit.settle();
            if audit.batch.is_empty() {
                walked += fed;
            }
        }
        audit.join();
        assert_eq!(audit.pending.len(), ENTRIES);
        assert!(walked <= 6 * ENTRIES, "{walked} entries walked");
    }

    /// The peak counts what a settle leaves unjoined: 1 000 generations
    /// joined and left unpaired, then 100 more the ¼ rule keeps in the
    /// batch, hold 1 100 entries.
    #[test]
    fn the_peak_counts_the_batch_a_settle_leaves_unjoined() {
        let mut audit = RunningAudit::default();
        let fed: Vec<(GhostId, NodeId)> = (0..1_100).map(|k| (GhostId::Valid(k), 1)).collect();
        audit.generated(&fed[..1_000]);
        audit.settle();
        assert_eq!((audit.batch.len(), audit.pending.len()), (0, 1_000));
        audit.generated(&fed[1_000..]);
        audit.settle();
        assert_eq!((audit.batch.len(), audit.pending.len()), (100, 1_000));
        assert!(audit.pending_peak() >= 1_100, "{}", audit.pending_peak());
        assert_eq!(audit.finish(), None);
    }

    /// Resident state is O(in-flight): ten stop-and-wait streams — five
    /// sources, a primary and an ack stream each — of 10⁵ entries in all,
    /// settled once a round as the root settles once a turn, hold at most
    /// one unpaired entry per stream and at most one retired range per
    /// stream plus one per ghost in flight.
    #[test]
    fn a_stop_and_wait_stream_keeps_its_audit_state_in_flight_sized() {
        const STREAMS: u64 = 10;
        const ROUNDS: u64 = 5_000;
        let ghost =
            |stream: u64, seq: u64| GhostId::Valid((stream / 2) << 40 | (stream % 2) << 39 | seq);
        let dest = |stream: u64| ((stream / 2 + 1) % 5) as NodeId;
        let mut ledgers: Vec<NodeLedger> = (0..5)
            .map(|node| NodeLedger {
                node,
                ..NodeLedger::default()
            })
            .collect();
        let mut audit = RunningAudit::default();
        for round in 0..=ROUNDS {
            for stream in 0..STREAMS {
                let source = (stream / 2) as NodeId;
                // The window of one: this round delivers the last round's
                // ghost and generates the next.
                if round > 0 {
                    let g = ghost(stream, round - 1);
                    audit.delivered(dest(stream), &[g]);
                    ledgers[dest(stream)].delivered.push(g);
                }
                if round < ROUNDS {
                    let g = (ghost(stream, round), dest(stream));
                    audit.generated(&[g]);
                    ledgers[source].generated.push(g);
                }
            }
            audit.settle();
            assert!(audit.pending_peak() <= STREAMS, "round {round}");
            assert!(
                audit.retired[0].len() as u64 <= 2 * STREAMS,
                "round {round}"
            );
        }
        let entries: usize = ledgers
            .iter()
            .map(|l| l.generated.len() + l.delivered.len())
            .sum();
        assert_eq!(entries as u64, 2 * STREAMS * ROUNDS);
        assert_eq!(audit.retired[0].len() as u64, STREAMS);
        let verdict = audit.finish().expect("a regular stream");
        assert_eq!(verdict, reconcile_ledgers(&ledgers));
        assert_eq!(verdict.exactly_once, STREAMS * ROUNDS);
    }

    #[test]
    fn reconcile_counts_undeclared_valid_ghosts_as_invalid() {
        // A delivered ghost no node claims to have generated cannot be
        // audited against `SP` — it is garbage from the cluster's point
        // of view, counted with the invalid deliveries.
        let ledgers = vec![NodeLedger {
            node: 0,
            generated: vec![],
            delivered: vec![GhostId::Valid(99)],
            held: vec![],
        }];
        let v = reconcile_ledgers(&ledgers);
        assert_eq!(v.invalid_delivered, 1);
        assert!(v.clean());
    }
}
