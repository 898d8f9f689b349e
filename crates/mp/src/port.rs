//! The SSMFP forwarding core, ported to asynchronous message passing.
//!
//! ## Mapping from Algorithm 1
//!
//! | state model | message-passing port |
//! |-------------|----------------------|
//! | `R1` (generation into `bufR`) | local rule, gated on an empty `bufR` and no pending handshake; run to fixpoint with R2/R6 in [`MpForwarder::advance`] |
//! | `R2` (internal move + `color_p(d)`) | local rule, run to fixpoint in `advance`, which also sends the first `Offer` of the `bufE` it fills; the color is drawn from a rotating per-(p,d) counter over `{0..Δ}` (a neighbour's reception buffers can no longer be *read*, but the rotation preserves what the color is *for*: consecutive messages with equal payloads are distinguishable on every link) |
//! | `R3` (copy from neighbour's `bufE`) | the `Offer → Accept → Confirm` three-way handshake; the copy becomes official only on `Confirm`. An `Offer` that meets a busy slot is not dropped: the receiver keeps it (one per neighbour) and `choice_p(d)` — a rotation pointer over `N_p ∪ {p}`, as in `ssmfp_core::choice` — serves it from `advance` when the slot frees |
//! | `R4` (erase source after unique copy certified) | the source erases on `Accept` from its **current** next hop, matching the offer nonce — at most one `Accept` can ever be confirmed per offer |
//! | `R5` (drop duplicate copies after re-routing) | `Deny`: the source disowns stale `Accept`s (re-routed or already-erased offers), and the receiver drops the corresponding tentative copy |
//! | `R6` (consumption at the destination) | local rule, run to fixpoint in `advance` |
//! | routing algorithm `A` | a static table (the cluster's BFS tables), or the distance-vector layer of [`MpForwarder::with_dist_vec`]: cached neighbour vectors, min+1, a broadcast on every change and a refresh whose period doubles while the vector stands still; a next-hop change re-offers the slot's `bufE` under a fresh nonce |
//!
//! R1, R2 and R6 read and write one node's state only, so nothing makes
//! them wait: `on_timeout` is the routing layer, then the retransmission
//! timers and `advance(d)` of every *active* slot — one that holds a
//! `bufR`, a `bufE`, a tentative copy, a waiting offer or a queued send —
//! in destination order, and a host that queues a send calls
//! `advance(dest)` itself. A slot that holds nothing has no enabled rule
//! and no running timer, so skipping it is a step the daemon could have
//! chosen not to take: the node keeps the active destinations in a bitset
//! that `enqueue_send`, `on_message` (for its `d`) and `advance(d)` bring
//! up to date, and a frame costs O(active + deg), not O(n). A host that
//! also fires `on_timeout` after the messages it handled never sleeps on
//! an enabled rule ([`MpForwarder::locally_enabled`], which still scans
//! every slot). The timers recover from *loss* only — a full slot answers
//! when it frees, the offerer does not poll it — and run only while
//! [`MpForwarder::timers_pending`].
//!
//! Handshake messages carry a fresh 64-bit nonce per offer: the port's
//! substitute for the unforgeable shared-memory reads of R4. A transient
//! fault can still inject arbitrary wire messages; forging an erasure now
//! requires guessing the current nonce (the residual — and, per the
//! paper's open problem, unavoidable without further machinery — gap
//! between this port and true snap-stabilization).

use crate::net::{MpNode, Outbox};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::choice::advance_ptr;
use ssmfp_topology::NodeId;
use std::collections::VecDeque;

/// Instrumentation-only message identity: the state model's ghost id, under
/// the name the port's callers know it by. Never consulted by protocol logic.
pub use ssmfp_core::GhostId as MpGhost;

/// A message occupying a port buffer: the wire codec's message, so a
/// buffer holds exactly what a frame carries (useful information, color
/// in `{0..Δ}` and the instrumentation identity).
pub use ssmfp_core::wire::WireMessage as MpMessage;

/// Wire messages of the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMsg {
    /// "My `bufE(d)` holds this" — sent when `bufE` fills, then
    /// retransmitted with exponential backoff.
    Offer {
        /// Destination instance.
        d: NodeId,
        /// Offered message.
        msg: MpMessage,
        /// Fresh per-offer nonce.
        nonce: u64,
    },
    /// "I staged a tentative copy; certify it."
    Accept {
        /// Destination instance.
        d: NodeId,
        /// Echo of the offered message.
        msg: MpMessage,
        /// Echo of the offer nonce.
        nonce: u64,
    },
    /// "Copy certified — I erased my copy; yours is now the message."
    Confirm {
        /// Destination instance.
        d: NodeId,
        /// Echo of the message.
        msg: MpMessage,
        /// Echo of the nonce.
        nonce: u64,
    },
    /// "I don't recognise that acceptance — drop your tentative copy."
    Deny {
        /// Destination instance.
        d: NodeId,
        /// Echo of the message.
        msg: MpMessage,
        /// Echo of the nonce.
        nonce: u64,
    },
    /// Distance-vector advertisement: "my estimated distance to `d` is
    /// `dist`" (the message-passing routing layer `A`; a forwarder with a
    /// static table ignores it).
    Dv {
        /// Destination the estimate refers to.
        d: NodeId,
        /// Estimated distance (capped at `n`).
        dist: u32,
    },
}

/// A queued higher-layer send (the destination is the queue's index).
#[derive(Debug, Clone, Copy)]
struct AppSend {
    payload: u64,
    ghost: MpGhost,
}

/// First-retransmission floor (exponent): after a frame's *initial*
/// transmission, wait at least `1 << RETX_FLOOR` timeouts before the
/// first re-send. Initial sends stay immediate — only the re-send
/// schedule is floored. A floor of 0 re-sent after a single timeout,
/// which is fine for the simulator's coarse scheduler steps but
/// pathological for an event-driven host that fires timeouts per
/// readiness event: the retransmit delay lands well under one hop RTT
/// and nearly every handshake leg goes out twice. The schedule is loss
/// recovery only: a busy downstream slot keeps the offer and accepts it
/// when it frees ([`Slot::waiting`]), so no re-offer is needed to find a
/// freed slot.
const RETX_FLOOR: u8 = 1;

/// Per-destination forwarding slot.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub(crate) buf_r: Option<MpMessage>,
    pub(crate) buf_e: Option<MpMessage>,
    /// Nonce of the outstanding offer for `buf_e` (refreshed per fill).
    pub(crate) offer_nonce: u64,
    /// Tentative copy awaiting `Confirm`: (from, nonce, message).
    tentative: Option<(NodeId, u64, MpMessage)>,
    /// Rotating color counter for internal moves.
    next_color: u8,
    /// Offer retransmission: timeouts to wait before the next re-offer.
    offer_timer: u32,
    /// Exponential backoff exponent for re-offers (capped).
    offer_backoff: u8,
    /// Re-query timer for a pending tentative: when it expires the
    /// accepter re-sends `Accept` so a lost `Confirm`/`Deny` cannot
    /// orphan the tentative (the offerer's reply resolves it either way).
    tent_timer: u32,
    /// Exponential backoff exponent for tentative re-queries (capped).
    tent_backoff: u8,
    /// The most recently certified handshake on this slot: `(next hop,
    /// nonce, message)` recorded when the `Accept` erased `bufE`. A
    /// re-queried `Accept` matching it is answered with a fresh `Confirm`
    /// instead of a `Deny` — without this, a `Confirm` lost on the wire
    /// turns the re-query into an erasure of the only remaining copy
    /// (the source already erased; the `Deny` would drop the tentative).
    last_confirm: Option<(NodeId, u64, MpMessage)>,
    /// Nonces of recently promoted (certified-and-copied) handshakes on
    /// this slot, newest last. A duplicated `Offer` for one of these is a
    /// stale replay of a completed handshake: accepting it again while
    /// the offerer's `last_confirm` still matches would re-certify and
    /// duplicate the message, so it is ignored instead.
    recent_promoted: VecDeque<(NodeId, u64)>,
    /// Offers that could not be accepted on arrival, by local port: at most
    /// one `(nonce, message)` per neighbour, the newest; empty until the
    /// first refusal. Hints, not copies — an `Offer` certifies nothing, so
    /// a stale entry costs one `Accept → Deny` when it is served.
    waiting: Vec<Option<(u64, MpMessage)>>,
    /// `choice_p(d)`'s rotation pointer over `N_p ∪ {p}` (position
    /// `deg(p)` is `p` itself, R1): the next fill of `bufR` goes to the
    /// first requester at or after it.
    choice_ptr: usize,
}

/// Depth of the per-slot promoted-handshake memory. Duplicated frames are
/// re-enqueued at the tail of the link they crossed, so a replayed `Offer`
/// arrives within a queue length of the original — far fewer than 16
/// promotions later.
const RECENT_PROMOTED: usize = 16;

impl Slot {
    fn empty() -> Self {
        Slot {
            buf_r: None,
            buf_e: None,
            offer_nonce: 0,
            tentative: None,
            next_color: 0,
            offer_timer: 0,
            offer_backoff: 0,
            tent_timer: 0,
            tent_backoff: 0,
            last_confirm: None,
            recent_promoted: VecDeque::new(),
            waiting: Vec::new(),
            choice_ptr: 0,
        }
    }

    /// Whether `bufR` can be filled: empty, and no tentative copy staged.
    fn free(&self) -> bool {
        self.buf_r.is_none() && self.tentative.is_none()
    }

    /// Whether a handshake with `(from, nonce)` was already promoted here.
    fn promoted(&self, from: NodeId, nonce: u64) -> bool {
        self.recent_promoted
            .iter()
            .any(|&(f, n0)| f == from && n0 == nonce)
    }
}

/// A set of destinations, one bit each, walked in destination order.
#[derive(Debug, Clone)]
struct DestSet(Vec<u64>);

impl DestSet {
    fn new(n: usize) -> Self {
        DestSet(vec![0; n.div_ceil(64)])
    }

    fn set(&mut self, d: NodeId, member: bool) {
        let (word, bit) = (&mut self.0[d / 64], 1u64 << (d % 64));
        if member {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// The smallest member at or after `from`.
    fn next_from(&self, from: NodeId) -> Option<NodeId> {
        let mut w = from / 64;
        let mut bits = self.0.get(w)? & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.0.get(w)?;
        }
        Some(w * 64 + bits.trailing_zeros() as usize)
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut next = self.next_from(0);
        std::iter::from_fn(move || {
            let d = next?;
            next = self.next_from(d + 1);
            Some(d)
        })
    }
}

/// The message-passing distance-vector routing layer driving `next_hop`:
/// cached neighbour vectors, min+1 recomputation, change-driven broadcasts
/// plus a periodic refresh (the self-stabilization mechanism — stale caches
/// are eventually overwritten).
struct DistVec {
    /// Cached neighbour estimates, per local port, per destination.
    nbr_dist: Vec<Vec<u32>>,
    /// Own estimates (capped at `n`).
    own_dist: Vec<u32>,
    /// Timeouts until the next unconditional re-broadcast.
    refresh_timer: u32,
    /// Backoff exponent of the refresh period (capped).
    refresh_backoff: u8,
    /// Own vector changed since last broadcast.
    dirty: bool,
}

/// First period of the distance-vector layer's unconditional refresh. The
/// period doubles after every refresh that found the vector unchanged, up
/// to `DV_REFRESH << 10`, and starts over after a change: a fixed period
/// sends `n · deg` frames every few timeouts whatever the traffic, and a
/// schedule that fires timeouts faster than it delivers frames then queues
/// them without bound ahead of the handshake.
const DV_REFRESH: u32 = 24;

/// One node of the ported protocol.
pub struct MpForwarder {
    id: NodeId,
    n: usize,
    delta: u8,
    /// Sorted neighbour list (`N_p`), with local ports = indices.
    neighbors: Vec<NodeId>,
    slots: Vec<Slot>,
    /// The destinations whose slot holds something ([`MpForwarder::holds`]):
    /// the only slots `on_timeout` and the held/idle queries visit.
    active: DestSet,
    /// Slots the `on_timeout` walk visited (a work counter: at most the
    /// active slots per timeout, not `n`).
    slot_visits: u64,
    /// Current routing table: static, or materialized from `dv`.
    next_hop: Vec<NodeId>,
    dv: Option<DistVec>,
    timeout_count: u64,
    /// Pending higher-layer sends, one FIFO **per destination**. R1 is
    /// enabled for every destination whose slot is free, so a backlog for
    /// one (busy) destination must not gate generation toward the others
    /// — a single global FIFO head-of-line-blocks the whole node to ~one
    /// in-flight message under open-loop load. Per-destination FIFO is
    /// exactly the ordering the point-to-point service promises; there is
    /// no cross-destination order to preserve.
    app_queues: Vec<VecDeque<AppSend>>,
    nonce_rng: ChaCha8Rng,
    /// Ghosts delivered at this node (it is their destination).
    pub delivered: Vec<MpGhost>,
    /// Deliveries with their payloads, in delivery order (the cluster
    /// runtime reads latency stamps out of the payload at the sink).
    pub delivered_msgs: Vec<(MpGhost, u64)>,
    /// Sends queued at this node, with their destinations: written by
    /// [`MpForwarder::enqueue_send`] and nowhere else, so a send R1 has not
    /// picked up yet is generated *and* held — in flight, not lost.
    pub generated: Vec<(MpGhost, NodeId)>,
}

impl MpForwarder {
    /// A standalone forwarder with a fixed, already-correct routing table
    /// (the cluster runtime computes tables from BFS trees and hands them
    /// in).
    pub fn new_static(
        id: NodeId,
        n: usize,
        delta: u8,
        neighbors: Vec<NodeId>,
        next_hop: Vec<NodeId>,
        seed: u64,
    ) -> Self {
        MpForwarder {
            id,
            n,
            delta,
            neighbors,
            slots: (0..n).map(|_| Slot::empty()).collect(),
            active: DestSet::new(n),
            slot_visits: 0,
            next_hop,
            dv: None,
            timeout_count: 0,
            app_queues: (0..n).map(|_| VecDeque::new()).collect(),
            nonce_rng: ChaCha8Rng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            delivered: Vec::new(),
            delivered_msgs: Vec::new(),
            generated: Vec::new(),
        }
    }

    /// Queues a higher-layer send on this node. R1 picks it up at the next
    /// [`MpForwarder::advance`] of `dest` — call it now to skip the wait.
    pub fn enqueue_send(&mut self, dest: NodeId, payload: u64, ghost: MpGhost) {
        self.app_queues[dest].push_back(AppSend { payload, ghost });
        self.active.set(dest, true);
        self.generated.push((ghost, dest));
    }

    /// Whether slot `d` holds something: a `bufR`, a `bufE`, a tentative
    /// copy, a waiting offer or a queued send. A slot that holds nothing
    /// has no enabled rule and no running timer, so `on_timeout` skips it.
    fn holds(&self, d: NodeId) -> bool {
        let s = &self.slots[d];
        s.buf_r.is_some()
            || s.buf_e.is_some()
            || s.tentative.is_some()
            || s.waiting.iter().any(Option::is_some)
            || !self.app_queues[d].is_empty()
    }

    /// Brings slot `d`'s membership of the active set up to date.
    fn mark(&mut self, d: NodeId) {
        let holds = self.holds(d);
        self.active.set(d, holds);
    }

    /// The one way in for a transient fault's garbage: `f` may rewrite any
    /// slot, and the active set is then rebuilt from a scan of all of them.
    pub(crate) fn corrupt(&mut self, f: impl FnOnce(&mut [Slot])) {
        f(&mut self.slots);
        for d in 0..self.n {
            self.mark(d);
        }
    }

    /// `on_timeout` calls so far (a work counter).
    pub fn timeouts(&self) -> u64 {
        self.timeout_count
    }

    /// Slots the `on_timeout` walk visited so far (a work counter): the
    /// active slots of every timeout, not `n` of them.
    pub fn slot_visits(&self) -> u64 {
        self.slot_visits
    }

    /// Switches the node to the distance-vector routing layer with the
    /// given (possibly garbage) initial estimates and caches.
    pub fn with_dist_vec(mut self, own_dist: Vec<u32>, nbr_dist: Vec<Vec<u32>>) -> Self {
        self.dv = Some(DistVec {
            nbr_dist,
            own_dist,
            refresh_timer: 0,
            refresh_backoff: 0,
            dirty: true,
        });
        for d in 0..self.n {
            self.recompute_route(d);
        }
        self
    }

    /// Recomputes `own_dist[d]` and `next_hop[d]` from the cached neighbour
    /// vectors (min+1 with the `n` cap; smallest-port tie-break), and marks
    /// the vector dirty if the estimate changed. A new next hop for a slot
    /// holding a `bufE` starts a new handshake under a fresh nonce: an
    /// `Accept` the old hop sent must not certify the re-offer, which it
    /// would if the route flipped back before the `Deny` reached it (the
    /// old hop drops its tentative copy on that `Deny`, so the erasure
    /// would leave no copy at all).
    fn recompute_route(&mut self, d: NodeId) {
        let Some(dv) = &mut self.dv else { return };
        let cap = self.n as u32;
        let (best, hop) = if d == self.id {
            (0, self.id)
        } else {
            let mut best = (cap, self.neighbors.first().copied().unwrap_or(self.id));
            for (port, &q) in self.neighbors.iter().enumerate() {
                let cand = dv.nbr_dist[port][d].min(cap).saturating_add(1).min(cap);
                if cand < best.0 {
                    best = (cand, q);
                }
            }
            best
        };
        if dv.own_dist[d] != best {
            dv.own_dist[d] = best;
            dv.dirty = true;
        }
        let slot = &mut self.slots[d];
        if self.next_hop[d] != hop && slot.buf_e.is_some() {
            slot.offer_nonce = self.nonce_rng.gen();
            slot.offer_timer = 0;
            slot.offer_backoff = 0;
        }
        self.next_hop[d] = hop;
    }

    /// Occupied buffers (both kinds) plus tentative copies at this node.
    pub fn occupied(&self) -> usize {
        self.active
            .iter()
            .map(|d| {
                let s = &self.slots[d];
                s.buf_r.is_some() as usize
                    + s.buf_e.is_some() as usize
                    + s.tentative.is_some() as usize
            })
            .sum()
    }

    /// How many messages this node holds — `held_ghosts().len()` without
    /// the list.
    pub fn held_count(&self) -> usize {
        let queued: usize = self.active.iter().map(|d| self.app_queues[d].len()).sum();
        self.occupied() + queued
    }

    /// Ghosts of all messages currently held by this node: the slots'
    /// buffers and tentative copies, then the queued sends, each in
    /// destination order.
    pub fn held_ghosts(&self) -> Vec<MpGhost> {
        let mut out = Vec::new();
        for d in self.active.iter() {
            let s = &self.slots[d];
            for m in [&s.buf_r, &s.buf_e].into_iter().flatten() {
                out.push(m.ghost);
            }
            if let Some((_, _, m)) = &s.tentative {
                out.push(m.ghost);
            }
        }
        for d in self.active.iter() {
            out.extend(self.app_queues[d].iter().map(|a| a.ghost));
        }
        out
    }

    /// The current next hop for destination `d` (diagnostics).
    pub fn route(&self, d: NodeId) -> NodeId {
        self.next_hop[d]
    }

    /// Runs slot `d`'s local rules — consumption (R6), internal move (R2),
    /// and `choice_p(d)` filling a free `bufR` (R1, or a waiting offer) —
    /// until none is enabled, then puts the first `Offer` of a freshly
    /// filled `bufE` on the wire, and brings the slot's membership of the
    /// active set up to date. None of them waits on a neighbour, so a
    /// host calls this wherever one may have become enabled (after
    /// `enqueue_send`; `on_timeout` does it for every active slot) and
    /// never sleeps on an enabled rule. Each pass is a step the
    /// adversarial scheduler could have taken through `on_timeout`.
    pub fn advance(&mut self, d: NodeId, out: &mut Outbox<WireMsg>) {
        loop {
            let slot = &mut self.slots[d];
            // R6: deliver the own-destination emission buffer.
            if d == self.id {
                if let Some(m) = slot.buf_e.take() {
                    self.delivered.push(m.ghost);
                    self.delivered_msgs.push((m.ghost, m.payload));
                }
            }
            // R2: internal move with the rotating color. A fresh message
            // resets the offer backoff; zero marks it un-offered.
            if slot.buf_e.is_none() {
                if let Some(m) = slot.buf_r.take() {
                    let color = slot.next_color;
                    slot.next_color = (color + 1) % (self.delta + 1);
                    slot.buf_e = Some(MpMessage { color, ..m });
                    slot.offer_backoff = 0;
                    slot.offer_nonce = self.nonce_rng.gen();
                    continue;
                }
            }
            if !self.serve(d, out) {
                break;
            }
        }
        if self.unoffered(d) {
            self.send_offer(d, out);
        }
        self.mark(d);
    }

    /// `choice_p(d)`: the first position of `N_p ∪ {p}`, at or after the
    /// slot's rotation pointer, that requests `bufR_p(d)` — a neighbour
    /// whose offer waits here, or (position `deg(p)`) a queued local send.
    fn choice(&self, d: NodeId) -> Option<usize> {
        let slot = &self.slots[d];
        let deg = self.neighbors.len();
        let local = !self.app_queues[d].is_empty();
        if slot.waiting.is_empty() {
            return local.then_some(deg); // never refused anyone
        }
        let start = slot.choice_ptr % (deg + 1);
        (0..=deg)
            .map(|k| (start + k) % (deg + 1))
            .find(|&pos| slot.waiting.get(pos).map_or(local, Option::is_some))
    }

    /// Hands a free `bufR_p(d)` to `choice_p(d)` and moves the pointer past
    /// it, so neither transit nor local traffic can starve the other (the
    /// guard is per slot: admission toward `d` never waits on a backlog
    /// toward `d' ≠ d`). Returns whether R1 filled `bufR` — R2 may follow.
    fn serve(&mut self, d: NodeId, out: &mut Outbox<WireMsg>) -> bool {
        let deg = self.neighbors.len();
        while self.slots[d].free() {
            let Some(pos) = self.choice(d) else { break };
            let slot = &mut self.slots[d];
            if pos == deg {
                let front = self.app_queues[d].pop_front().expect("choice saw it");
                slot.buf_r = Some(MpMessage {
                    payload: front.payload,
                    color: 0,
                    ghost: front.ghost,
                });
                slot.choice_ptr = advance_ptr(pos, deg);
                return true;
            }
            // An offer that met a busy slot: accepting it now is what its
            // retransmission would cause by arriving now.
            let (nonce, msg) = slot.waiting[pos].take().expect("choice saw it");
            if !slot.promoted(self.neighbors[pos], nonce) {
                self.accept(d, pos, nonce, msg, out);
            }
        }
        false
    }

    /// R3's receiving half: stages the offer of the neighbour at `pos` as
    /// the tentative copy, asks it to certify, and moves `choice_p(d)`'s
    /// pointer past it.
    fn accept(
        &mut self,
        d: NodeId,
        pos: usize,
        nonce: u64,
        msg: MpMessage,
        out: &mut Outbox<WireMsg>,
    ) {
        let from = self.neighbors[pos];
        let slot = &mut self.slots[d];
        slot.choice_ptr = advance_ptr(pos, self.neighbors.len());
        slot.tentative = Some((from, nonce, msg));
        slot.tent_timer = 1 << RETX_FLOOR;
        slot.tent_backoff = RETX_FLOOR;
        out.send(from, WireMsg::Accept { d, msg, nonce });
    }

    /// Whether slot `d` holds a `bufE` no `Offer` has gone out for yet.
    fn unoffered(&self, d: NodeId) -> bool {
        let slot = &self.slots[d];
        d != self.id && slot.buf_e.is_some() && slot.offer_backoff == 0
    }

    /// Offers `bufE(d)` to the current next hop and arms the re-offer timer.
    fn send_offer(&mut self, d: NodeId, out: &mut Outbox<WireMsg>) {
        let slot = &mut self.slots[d];
        let Some(msg) = slot.buf_e else { return };
        let nonce = slot.offer_nonce;
        out.send(self.next_hop[d], WireMsg::Offer { d, msg, nonce });
        slot.offer_timer = 1u32 << slot.offer_backoff.clamp(RETX_FLOOR, 10);
        slot.offer_backoff = slot.offer_backoff.saturating_add(1);
    }

    /// Whether some rule of this node alone is enabled: R2 (`bufR` full,
    /// `bufE` empty), R6 (own-destination `bufE` full), a free slot with a
    /// requester (a queued send, R1, or a waiting offer), or a `bufE` still
    /// waiting for its first `Offer`. A host that sleeps while this holds
    /// is charging its own scheduling delay to the protocol; `advance`
    /// clears it. It scans all `n` slots, not the active set, so a slot
    /// the set lost shows up here (a debug-build check, not a hot path).
    pub fn locally_enabled(&self) -> bool {
        (0..self.n).any(|d| {
            let slot = &self.slots[d];
            (slot.buf_r.is_some() && slot.buf_e.is_none())
                || (d == self.id && slot.buf_e.is_some())
                || (slot.free() && self.choice(d).is_some())
                || self.unoffered(d)
        })
    }

    /// Whether a retransmission timer is running: some slot holds a `bufE`
    /// its next hop has not certified or a tentative copy, or the routing
    /// layer has a changed vector to broadcast. While it is false and
    /// nothing is locally enabled, a host may sleep until a message or a
    /// send arrives.
    pub fn timers_pending(&self) -> bool {
        !self.routing_idle()
            || self.active.iter().any(|d| {
                let s = &self.slots[d];
                s.tentative.is_some() || (d != self.id && s.buf_e.is_some())
            })
    }

    fn routing_idle(&self) -> bool {
        !self.dv.as_ref().is_some_and(|dv| dv.dirty)
    }
}

impl MpForwarder {
    /// `on_message`'s handshake and routing arms. Only the message's own
    /// slot `d` can start or stop holding something, and `on_message`
    /// marks it afterwards.
    fn handle(&mut self, from: NodeId, msg: WireMsg, out: &mut Outbox<WireMsg>) {
        match msg {
            WireMsg::Offer { d, msg, nonce } => {
                if d >= self.n {
                    return; // garbage destination index
                }
                let Some(port) = self.neighbors.iter().position(|&q| q == from) else {
                    return; // not a neighbour
                };
                let slot = &self.slots[d];
                if slot.promoted(from, nonce) {
                    // Stale replay of a handshake this slot already
                    // promoted: accepting again would duplicate.
                    return;
                }
                if slot.tentative == Some((from, nonce, msg)) {
                    // Duplicate offer for the handshake in progress:
                    // re-accept (idempotent under reliable channels).
                    out.send(from, WireMsg::Accept { d, msg, nonce });
                    return;
                }
                if slot.free() && self.choice(d).is_none() {
                    self.accept(d, port, nonce, msg, out);
                    return;
                }
                // Busy, or others are ahead in `choice_p(d)`'s queue: the
                // offer takes its neighbour's place there (a newer one
                // replaces the older) and `serve` accepts it when its turn
                // comes — the offerer is answered, it does not poll.
                let slot = &mut self.slots[d];
                if slot.waiting.is_empty() {
                    slot.waiting = vec![None; self.neighbors.len()];
                }
                slot.waiting[port] = Some((nonce, msg));
                self.serve(d, out);
            }
            WireMsg::Accept { d, msg, nonce } => {
                if d >= self.n {
                    return;
                }
                let matches = self.slots[d]
                    .buf_e
                    .map(|e| e == msg && self.slots[d].offer_nonce == nonce)
                    .unwrap_or(false);
                // R4's certification: erase only for the *current* next hop
                // holding the *current* offer.
                if matches && self.next_hop[d] == from && self.id != d {
                    self.slots[d].buf_e = None;
                    self.slots[d].last_confirm = Some((from, nonce, msg));
                    out.send(from, WireMsg::Confirm { d, msg, nonce });
                } else if self.slots[d].last_confirm == Some((from, nonce, msg)) {
                    // Re-queried acceptance of the handshake we already
                    // certified (the original `Confirm` was lost): the
                    // accepter holds the only remaining copy, so re-confirm
                    // — a `Deny` here would erase the message from the
                    // network. Idempotent at the receiver: promotion
                    // requires the matching tentative, which exists at
                    // most once.
                    out.send(from, WireMsg::Confirm { d, msg, nonce });
                } else {
                    // R5's disown: stale or re-routed acceptance.
                    out.send(from, WireMsg::Deny { d, msg, nonce });
                }
            }
            WireMsg::Confirm { d, msg, nonce } => {
                if d >= self.n {
                    return;
                }
                let slot = &mut self.slots[d];
                if let Some((f, nonce0, m0)) = slot.tentative {
                    if f == from && nonce0 == nonce && m0 == msg && slot.buf_r.is_none() {
                        slot.buf_r = Some(m0);
                        slot.tentative = None;
                        if slot.recent_promoted.len() == RECENT_PROMOTED {
                            slot.recent_promoted.pop_front();
                        }
                        slot.recent_promoted.push_back((from, nonce));
                    }
                }
            }
            WireMsg::Deny { d, msg, nonce } => {
                if d >= self.n {
                    return;
                }
                let slot = &mut self.slots[d];
                if let Some((f, nonce0, m0)) = slot.tentative {
                    if f == from && nonce0 == nonce && m0 == msg {
                        slot.tentative = None;
                    }
                }
            }
            WireMsg::Dv { d, dist } => {
                if d >= self.n {
                    return;
                }
                let Some(port) = self.neighbors.iter().position(|&q| q == from) else {
                    return;
                };
                let Some(dv) = &mut self.dv else { return };
                let v = dist.min(self.n as u32);
                if dv.nbr_dist[port][d] != v {
                    dv.nbr_dist[port][d] = v;
                    self.recompute_route(d);
                }
            }
        }
    }
}

impl MpNode for MpForwarder {
    type Msg = WireMsg;

    fn on_message(&mut self, from: NodeId, msg: WireMsg, out: &mut Outbox<WireMsg>) {
        self.handle(from, msg, out);
        if let WireMsg::Offer { d, .. }
        | WireMsg::Accept { d, .. }
        | WireMsg::Confirm { d, .. }
        | WireMsg::Deny { d, .. } = msg
        {
            if d < self.n {
                self.mark(d);
            }
        }
    }

    /// The routing layer's timeout, then every active slot in destination
    /// order: its re-query and re-offer timers, then `advance(d)`. A slot
    /// outside the set holds nothing, so it has no timer to run and no
    /// rule to fire; the walk's cost is the active slots, counted in
    /// [`MpForwarder::slot_visits`].
    fn on_timeout(&mut self, out: &mut Outbox<WireMsg>) {
        // Routing layer.
        self.timeout_count += 1;
        if let Some(dv) = &mut self.dv {
            if dv.dirty || dv.refresh_timer == 0 {
                dv.refresh_backoff = if dv.dirty {
                    0
                } else {
                    (dv.refresh_backoff + 1).min(10)
                };
                dv.refresh_timer = DV_REFRESH << dv.refresh_backoff;
                dv.dirty = false;
                for &q in &self.neighbors {
                    for (d, &dist) in dv.own_dist.iter().enumerate() {
                        out.send(q, WireMsg::Dv { d, dist });
                    }
                }
            } else {
                dv.refresh_timer -= 1;
            }
        }

        // Only slot `d`'s own membership can change while it is visited.
        let mut next = self.active.next_from(0);
        while let Some(d) = next {
            self.slot_visits += 1;
            // Tentative re-query with exponential backoff: a pending
            // tentative whose `Confirm`/`Deny` was lost on the wire would
            // otherwise block this slot forever. Re-sending `Accept` is
            // idempotent under reliable channels — the offerer either
            // re-certifies (still holds the matching offer) or disowns.
            if let Some((f, nonce, m)) = self.slots[d].tentative {
                let slot = &mut self.slots[d];
                if slot.tent_timer == 0 {
                    out.send(f, WireMsg::Accept { d, msg: m, nonce });
                    slot.tent_timer = 1u32 << slot.tent_backoff.clamp(RETX_FLOOR, 10);
                    slot.tent_backoff = slot.tent_backoff.saturating_add(1);
                } else {
                    slot.tent_timer -= 1;
                }
            }
            // Offer retransmission (R3's sending half) with exponential
            // backoff: a blind per-timeout re-offer floods the unbounded
            // FIFO channels faster than deliveries drain them (the
            // scheduler may heavily favour timeouts), so each unanswered
            // offer doubles the wait before the next copy.
            if d != self.id && self.slots[d].buf_e.is_some() {
                if self.slots[d].offer_timer == 0 {
                    self.send_offer(d, out);
                } else {
                    self.slots[d].offer_timer -= 1;
                }
            }
            // The slot's own rules, after its timers: a `bufE` filled here
            // is offered once now and re-offered `1 << RETX_FLOOR` timeouts
            // on, the cadence the timers above have always counted.
            self.advance(d, out);
            next = self.active.next_from(d + 1);
        }
    }

    fn is_idle(&self) -> bool {
        // A pending tentative keeps the node busy: its re-query timer must
        // keep firing until the offerer's `Confirm`/`Deny` resolves it
        // (garbage or fault-orphaned tentatives resolve through a `Deny`).
        // A waiting offer alone does not: it is a hint, not a copy.
        self.routing_idle()
            && self.active.iter().all(|d| {
                let s = &self.slots[d];
                s.buf_r.is_none()
                    && s.buf_e.is_none()
                    && s.tentative.is_none()
                    && self.app_queues[d].is_empty()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{ChannelFaults, MpConfig};
    use crate::PortNetwork;
    use proptest::prelude::{any, ProptestConfig};
    use ssmfp_topology::gen;

    fn config(seed: u64) -> MpConfig {
        MpConfig {
            seed,
            timeout_bias: 0.3,
        }
    }

    /// Node `id` of a line with correct tables, alone.
    fn line_node(id: NodeId, n: usize) -> MpForwarder {
        let g = gen::line(n);
        let table = (0..n)
            .map(|d| match d.cmp(&id) {
                std::cmp::Ordering::Less => id - 1,
                std::cmp::Ordering::Equal => id,
                std::cmp::Ordering::Greater => id + 1,
            })
            .collect();
        MpForwarder::new_static(id, n, 2, g.neighbors(id).to_vec(), table, 7)
    }

    /// Hands `node` a message for `d` from `from` through the handshake's
    /// receiving half; the copy is in `bufR` afterwards.
    fn confirm_into(node: &mut MpForwarder, from: NodeId, d: NodeId) -> MpMessage {
        let msg = MpMessage {
            payload: 5,
            color: 1,
            ghost: MpGhost::Valid(99),
        };
        let mut out = Outbox::new();
        node.on_message(from, WireMsg::Offer { d, msg, nonce: 11 }, &mut out);
        node.on_message(from, WireMsg::Confirm { d, msg, nonce: 11 }, &mut out);
        assert_eq!(out.drain().count(), 1, "the Accept");
        assert!(node.locally_enabled(), "R2 is enabled");
        msg
    }

    #[test]
    fn enqueue_then_advance_offers_without_a_timeout() {
        let mut node = line_node(0, 3);
        let mut out = Outbox::new();
        node.enqueue_send(2, 5, MpGhost::Valid(1));
        assert_eq!(node.generated, [(MpGhost::Valid(1), 2)]);
        assert!(node.locally_enabled(), "R1 is enabled");
        node.advance(2, &mut out);
        let sent: Vec<_> = out.drain().collect();
        assert!(
            matches!(sent[..], [(1, WireMsg::Offer { d: 2, msg, .. })] if msg.ghost == MpGhost::Valid(1)),
            "exactly one Offer, to the next hop: {sent:?}"
        );
        assert_eq!(node.generated.len(), 1, "R1 adds nothing");
        assert!(!node.locally_enabled());
        // The first timeout after it only counts the re-offer timer down.
        node.on_timeout(&mut out);
        assert_eq!(out.drain().count(), 0);
    }

    #[test]
    fn confirm_at_the_destination_delivers_in_one_timeout() {
        let mut node = line_node(2, 3);
        let msg = confirm_into(&mut node, 1, 2);
        let mut out = Outbox::new();
        node.on_timeout(&mut out);
        assert_eq!(node.delivered_msgs, vec![(msg.ghost, msg.payload)]);
        assert_eq!(out.drain().count(), 0);
        assert!(!node.locally_enabled() && node.is_idle());
    }

    #[test]
    fn confirm_at_an_intermediate_hop_offers_onward_in_one_timeout() {
        let mut node = line_node(1, 3);
        let msg = confirm_into(&mut node, 0, 2);
        let mut out = Outbox::new();
        node.on_timeout(&mut out);
        let sent: Vec<_> = out.drain().collect();
        assert!(
            matches!(sent[..], [(2, WireMsg::Offer { d: 2, msg: m, .. })] if m.ghost == msg.ghost),
            "one onward Offer: {sent:?}"
        );
        assert!(!node.locally_enabled());
    }

    fn msg_of(k: u64) -> MpMessage {
        MpMessage {
            payload: k,
            color: 0,
            ghost: MpGhost::Valid(k),
        }
    }

    /// The `(to, nonce, ghost)` of every `Accept` in `sent`.
    fn accepts(sent: &[(NodeId, WireMsg)]) -> Vec<(NodeId, u64, MpGhost)> {
        sent.iter()
            .filter_map(|&(to, m)| match m {
                WireMsg::Accept { msg, nonce, .. } => Some((to, nonce, msg.ghost)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn refused_offer_is_accepted_when_the_slot_frees_with_no_timeout() {
        let mut node = line_node(1, 3);
        let first = confirm_into(&mut node, 0, 2); // bufR(2) is full
        let mut out = Outbox::new();
        let (d, msg, nonce) = (2, msg_of(7), 12);
        node.on_message(0, WireMsg::Offer { d, msg, nonce }, &mut out);
        assert_eq!(out.drain().count(), 0, "busy: nothing to say yet");
        assert!(node.held_ghosts() == vec![first.ghost] && node.occupied() == 1);
        // R2 frees bufR; the slot answers the offer it kept. No
        // `on_timeout`, no second `Offer`.
        node.advance(2, &mut out);
        let sent: Vec<_> = out.drain().collect();
        assert!(
            matches!(
                sent[..],
                [(0, WireMsg::Accept { .. }), (2, WireMsg::Offer { .. })]
            ),
            "the Accept, and the freed message's onward Offer: {sent:?}"
        );
        assert_eq!(accepts(&sent), vec![(0, nonce, msg.ghost)]);
        assert!(!node.locally_enabled());
        node.on_message(0, WireMsg::Confirm { d, msg, nonce }, &mut out);
        assert!(node.held_ghosts().contains(&msg.ghost));
    }

    #[test]
    fn a_slot_keeps_one_waiting_offer_per_neighbour_the_newest() {
        let mut node = line_node(1, 3);
        confirm_into(&mut node, 0, 2);
        let mut out = Outbox::new();
        for k in [7, 8] {
            let (msg, nonce) = (msg_of(k), 10 + k);
            node.on_message(0, WireMsg::Offer { d: 2, msg, nonce }, &mut out);
            node.on_message(2, WireMsg::Offer { d: 2, msg, nonce }, &mut out);
        }
        let waiting = &node.slots[2].waiting;
        assert_eq!(waiting[..], [Some((18, msg_of(8))), Some((18, msg_of(8)))]);
        assert!(node.slots.iter().all(|s| s.waiting.len() <= 2), "≤ deg(p)");
        assert!(
            node.slots[0].waiting.is_empty(),
            "only where one was refused"
        );
        // Drain: each neighbour's newer offer is accepted once, the older
        // never — denied here, as if both offerers had moved on.
        let mut accepted = Vec::new();
        for _ in 0..8 {
            node.on_timeout(&mut out);
            let sent: Vec<_> = out.drain().collect();
            for (to, nonce, ghost) in accepts(&sent) {
                accepted.push((to, nonce, ghost));
                let (d, msg) = (2, msg_of(8));
                node.on_message(to, WireMsg::Deny { d, msg, nonce }, &mut out);
            }
        }
        accepted.dedup(); // a re-query of the same tentative
        accepted.sort_unstable();
        let g = MpGhost::Valid(8);
        assert_eq!(accepted, vec![(0, 18, g), (2, 18, g)]);
        assert!(node.slots[2].waiting.iter().all(Option::is_none));
    }

    #[test]
    fn a_waiting_offer_gone_stale_is_denied_and_leaves_nothing() {
        // Node 0 never held what the waiting entry says it offered — it
        // moved on, or the entry is garbage; either way `Accept → Deny`.
        let (mut offerer, mut node) = (line_node(0, 3), line_node(1, 3));
        let first = confirm_into(&mut node, 0, 2);
        let mut out = Outbox::new();
        let (d, msg, nonce) = (2, msg_of(7), 12);
        node.on_message(0, WireMsg::Offer { d, msg, nonce }, &mut out);
        node.advance(2, &mut out);
        let sent: Vec<_> = out.drain().collect();
        assert_eq!(accepts(&sent), vec![(0, nonce, msg.ghost)]);
        offerer.on_message(1, WireMsg::Accept { d, msg, nonce }, &mut out);
        let reply: Vec<_> = out.drain().collect();
        assert_eq!(reply, vec![(1, WireMsg::Deny { d, msg, nonce })]);
        node.on_message(0, reply[0].1, &mut out);
        assert!(node.slots[2].tentative.is_none());
        assert_eq!(node.held_ghosts(), vec![first.ghost], "no copy of it");
        assert!(node.delivered.is_empty() && offerer.delivered.is_empty());
        assert!(!node.locally_enabled());
    }

    #[test]
    fn garbage_waiting_entries_drain_without_a_trace() {
        for seed in 0..6 {
            let mut net = PortNetwork::new(gen::ring(5), config(seed), 0, 0);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for p in 0..5 {
                let node = net.net.node_mut(p);
                let deg = node.neighbors.len();
                node.corrupt(|slots| {
                    for slot in slots {
                        slot.choice_ptr = rng.gen();
                        slot.waiting = (0..deg)
                            .map(|_| {
                                let ghost = MpGhost::Invalid(rng.gen());
                                let msg = MpMessage { ghost, ..msg_of(3) };
                                Some((rng.gen(), msg))
                            })
                            .collect();
                    }
                });
            }
            let ghosts: Vec<_> = (0..5).map(|s| net.send(s, (s + 2) % 5, s as u64)).collect();
            assert!(net.run_to_quiescence(2_000_000), "seed {seed}");
            let audit = net.audit();
            assert_eq!(audit.exactly_once, ghosts.len() as u64, "seed {seed}");
            assert_eq!(audit.invalid_delivered, 0, "seed {seed}: {audit:?}");
            for node in net.net.nodes() {
                assert!(node.occupied() == 0 && node.held_ghosts().is_empty());
                let left = node.slots.iter().flat_map(|s| &s.waiting).flatten();
                assert_eq!(left.count(), 0, "seed {seed}: every hint was served");
            }
        }
    }

    /// Node 0 of a 4-ring offers to node 1 for destination 2; the route
    /// moves to node 3 and back before an `Accept` node 1 sent for that
    /// offer arrives. Node 1 dropped its tentative copy on the `Deny` of
    /// the move, so certifying the late `Accept` would erase the last copy.
    #[test]
    fn a_stale_accept_cannot_certify_the_re_offer_after_a_route_flips_back() {
        let (own, cache) = (vec![0, 1, 2, 1], vec![vec![1, 0, 1, 2], vec![1, 2, 1, 0]]);
        let mut node = MpForwarder::new_static(0, 4, 2, vec![1, 3], vec![0, 1, 1, 3], 7)
            .with_dist_vec(own, cache);
        let mut out = Outbox::new();
        node.enqueue_send(2, 5, MpGhost::Valid(1));
        node.advance(2, &mut out);
        let sent: Vec<_> = out.drain().collect();
        let [(1, WireMsg::Offer { d: 2, msg, nonce })] = sent[..] else {
            panic!("one Offer to node 1: {sent:?}")
        };
        node.on_message(1, WireMsg::Dv { d: 2, dist: 4 }, &mut out);
        assert_eq!(node.route(2), 3);
        node.on_message(1, WireMsg::Dv { d: 2, dist: 1 }, &mut out);
        assert_eq!(node.route(2), 1);
        node.on_message(1, WireMsg::Accept { d: 2, msg, nonce }, &mut out);
        let reply: Vec<_> = out.drain().collect();
        assert_eq!(reply, vec![(1, WireMsg::Deny { d: 2, msg, nonce })]);
        assert_eq!(node.held_ghosts(), vec![msg.ghost], "the copy stays");
    }

    #[test]
    fn choice_serves_every_requester_within_deg_others() {
        // Hub 0 of a 5-star is the destination: its four neighbours and its
        // own queue all want bufR(0), all the time.
        let deg = 4usize;
        let mut hub = MpForwarder::new_static(0, 5, 4, vec![1, 2, 3, 4], vec![0, 1, 2, 3, 4], 7);
        let mut out = Outbox::new();
        let mut seq = 0u64;
        let mut offer = |hub: &mut MpForwarder, q: NodeId, out: &mut Outbox<WireMsg>| {
            seq += 1;
            let (d, msg, nonce) = (0, msg_of(seq), seq);
            hub.on_message(q, WireMsg::Offer { d, msg, nonce }, out);
        };
        for k in 0..200 {
            hub.enqueue_send(0, k, MpGhost::Valid(1_000 + k));
        }
        for q in 1..=deg {
            offer(&mut hub, q, &mut out);
        }
        // Who filled bufR(0), in order. One `on_timeout` serves the local
        // queue zero or more times, then at most one neighbour (a tentative
        // ends the slot's run).
        let mut served: Vec<NodeId> = Vec::new();
        let mut queued = hub.app_queues[0].len();
        for _ in 0..100 {
            hub.on_timeout(&mut out);
            served.resize(served.len() + queued - hub.app_queues[0].len(), 0);
            queued = hub.app_queues[0].len();
            for (to, m) in out.drain().collect::<Vec<_>>() {
                let WireMsg::Accept { d, msg, nonce } = m else {
                    panic!("only Accepts leave the destination: {m:?}")
                };
                if served.last() != Some(&to) {
                    served.push(to); // (else: a re-query of the same tentative)
                }
                hub.on_message(to, WireMsg::Confirm { d, msg, nonce }, &mut out);
                offer(&mut hub, to, &mut out); // and it asks again at once
            }
        }
        assert!(served.len() > 50, "{served:?}");
        for w in served.windows(deg + 1) {
            let mut w = w.to_vec();
            w.sort_unstable();
            assert_eq!(w, vec![0, 1, 2, 3, 4], "bounded overtaking: {served:?}");
        }
    }

    /// The oracle for the active set: the destinations whose slot a scan
    /// of all `n` finds holding anything.
    fn scan_active(node: &MpForwarder) -> Vec<NodeId> {
        (0..node.n)
            .filter(|&d| {
                let s = &node.slots[d];
                s.buf_r.is_some()
                    || s.buf_e.is_some()
                    || s.tentative.is_some()
                    || s.waiting.iter().flatten().next().is_some()
                    || !node.app_queues[d].is_empty()
            })
            .collect()
    }

    /// Seeded garbage in every kind of slot state the set depends on.
    fn garbage_slots(node: &mut MpForwarder, rng: &mut ChaCha8Rng, count: usize) {
        let (n, deg) = (node.n, node.neighbors.len());
        let from = node.neighbors.first().copied().unwrap_or(node.id);
        node.corrupt(|slots| {
            for _ in 0..count {
                let d = rng.gen_range(0..n);
                let msg = MpMessage {
                    ghost: MpGhost::Invalid(rng.gen()),
                    ..msg_of(rng.gen_range(0..8))
                };
                let slot = &mut slots[d];
                match rng.gen_range(0..4) {
                    0 => slot.buf_r = Some(msg),
                    1 => slot.buf_e = Some(msg),
                    2 => slot.tentative = Some((from, rng.gen(), msg)),
                    _ => {
                        slot.choice_ptr = rng.gen();
                        slot.waiting = (0..deg)
                            .map(|_| rng.gen_bool(0.5).then(|| (rng.gen(), msg)))
                            .collect();
                    }
                }
            }
        });
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The active set is exactly the slots a full scan finds holding
        /// something, after every event of an adversarial schedule: sends,
        /// deliveries and timeouts in a seeded order, over faulty channels,
        /// from garbage distance-vector estimates, garbage slots and garbage
        /// on the wire. Every assertion names the case: the runner does
        /// not shrink.
        #[test]
        fn active_set_equals_the_full_scan(
            (ring, n, seed) in (any::<bool>(), 2usize..7, any::<u64>()),
            timeout_bias in 0.05f64..0.95,
            (corrupt, dv, faults) in (any::<bool>(), any::<bool>(), 0u32..4),
            (wire_garbage, buffer_garbage, slot_garbage) in (0usize..12, 0usize..4, 0usize..6),
            sends in proptest::collection::vec((0usize..7, 0usize..7, 0u64..400), 1..12),
        ) {
            let graph = if ring && n >= 3 { gen::ring(n) } else { gen::line(n) };
            let case = format!(
                "edges {:?}, seed {seed}, timeout_bias {timeout_bias}, dv {}, garbage dv \
                 {corrupt}, faults {faults}, wire {wire_garbage}, buffer {buffer_garbage}, \
                 slots {slot_garbage}, sends (src, dst, at) {sends:?}",
                graph.edges(),
                dv || corrupt,
            );
            let config = MpConfig { seed, timeout_bias };
            let mut net = if dv || corrupt {
                PortNetwork::new_dv(graph, config, corrupt, wire_garbage, buffer_garbage)
            } else {
                PortNetwork::new(graph, config, wire_garbage, buffer_garbage)
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for p in 0..n {
                garbage_slots(net.net.node_mut(p), &mut rng, slot_garbage);
            }
            net.set_channel_faults(ChannelFaults::budget(seed, faults));
            let check = |net: &PortNetwork, event: &str| {
                for (p, node) in net.net.nodes().iter().enumerate() {
                    let set: Vec<NodeId> = node.active.iter().collect();
                    assert_eq!(set, scan_active(node), "node {p} after {event}: {case}");
                }
            };
            check(&net, "the start");
            for &(src, dst, at) in &sends {
                // Each send lands after `at` events of the schedule so far.
                for k in 0..at {
                    let Some(event) = net.net.step() else { break };
                    check(&net, &format!("{event:?} (step {k})"));
                }
                net.send(src % n, dst % n, at % 8);
                check(&net, "a send");
            }
            for k in 0..20_000 {
                let Some(event) = net.net.step() else { break };
                check(&net, &format!("{event:?} (drain step {k})"));
            }
        }
    }
}
