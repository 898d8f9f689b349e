//! Per-processor shared variables of Algorithm 1, embedded together with the
//! routing variables of `A` (the composed protocol's state).

use crate::message::{GhostId, Message, Payload};
use rand::Rng;
use ssmfp_routing::{HasRouting, RoutingState};
use ssmfp_topology::{Graph, NodeId};
use std::collections::VecDeque;

/// The forwarding variables of one processor for one destination `d`:
/// the two buffers of Figure 2 plus the `choice_p(d)` fairness pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FwdSlot {
    /// The reception buffer `bufR_p(d)`.
    pub buf_r: Option<Message>,
    /// The emission buffer `bufE_p(d)`.
    pub buf_e: Option<Message>,
    /// Rotation pointer implementing the fair queue behind `choice_p(d)`:
    /// a position in `0..=deg(p)` over the candidate space `N_p ∪ {p}`
    /// (position `i < deg` is neighbour `N_p[i]`, position `deg` is `p`).
    pub choice_ptr: usize,
    /// Per-candidate wait counters, used only by the
    /// [`crate::choice::ChoiceStrategy::LongestWaiting`] ablation strategy
    /// (lazily boxed to `deg(p)+1` counters on first service; `None` under
    /// the default strategy, so the hot state-copy/hash path pays one
    /// pointer-sized discriminant instead of cloning and hashing a `Vec`).
    pub waits: Option<Box<[u32]>>,
}

impl FwdSlot {
    /// An empty slot.
    pub fn empty() -> Self {
        FwdSlot {
            buf_r: None,
            buf_e: None,
            choice_ptr: 0,
            waits: None,
        }
    }
}

/// A message waiting in the higher layer (`nextMessage_p` /
/// `nextDestination_p` feed off the front of the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Outgoing {
    /// Destination processor.
    pub dest: NodeId,
    /// Useful information.
    pub payload: Payload,
    /// Verification identity assigned at enqueue time; becomes the
    /// generated message's ghost.
    pub ghost: GhostId,
}

/// Full local state of one processor: routing variables of `A` plus the
/// Algorithm 1 forwarding variables for every destination.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// Routing table (distance + parent per destination) maintained by `A`.
    pub routing: RoutingState,
    /// Forwarding slots, indexed by destination.
    pub slots: Vec<FwdSlot>,
    /// The `request_p` input/output bit: the higher layer raises it when a
    /// message waits; rule R1 lowers it when the message is generated.
    pub request: bool,
    /// Higher-layer queue of waiting messages. `outbox.front()` is
    /// `nextMessage_p` / `nextDestination_p`.
    pub outbox: VecDeque<Outgoing>,
    /// Round-robin cursor over destinations used to order this processor's
    /// enabled actions fairly (which destination instance gets priority when
    /// a deterministic daemon always runs the first enabled action).
    pub dest_cursor: NodeId,
}

impl NodeState {
    /// A clean state: empty buffers, no requests, the given routing table.
    pub fn clean(n: usize, routing: RoutingState) -> Self {
        NodeState {
            routing,
            slots: (0..n).map(|_| FwdSlot::empty()).collect(),
            request: false,
            outbox: VecDeque::new(),
            dest_cursor: 0,
        }
    }

    /// Fills each buffer of processor `p` independently with probability
    /// `fill` with an *invalid* message whose fields are uniformly random
    /// **within their domains**: payload arbitrary, last hop in
    /// `N_p ∪ {p}`, color in `{0..Δ}`. `next_invalid` supplies fresh ghost
    /// sequence numbers.
    pub fn scatter_garbage(
        &mut self,
        graph: &Graph,
        p: NodeId,
        fill: f64,
        rng: &mut impl Rng,
        next_invalid: &mut u64,
    ) {
        let delta = graph.max_degree() as u8;
        let neighbors = graph.neighbors(p);
        let n_slots = self.slots.len();
        for slot in self.slots.iter_mut().take(n_slots) {
            for buf in [&mut slot.buf_r, &mut slot.buf_e] {
                if rng.gen_bool(fill) {
                    let last_hop = if neighbors.is_empty()
                        || rng.gen_bool(1.0 / (neighbors.len() + 1) as f64)
                    {
                        p
                    } else {
                        neighbors[rng.gen_range(0..neighbors.len())]
                    };
                    // Payloads are drawn from a deliberately tiny space so
                    // that invalid messages collide with valid ones' useful
                    // information — the exact hazard the colors exist for.
                    *buf = Some(Message {
                        payload: rng.gen_range(0..8),
                        last_hop,
                        color: crate::message::Color(rng.gen_range(0..=delta)),
                        ghost: GhostId::Invalid(*next_invalid),
                    });
                    *next_invalid += 1;
                }
            }
            slot.choice_ptr = rng.gen_range(0..=neighbors.len());
        }
    }

    /// Whether any buffer holds a message.
    pub fn has_messages(&self) -> bool {
        self.slots
            .iter()
            .any(|s| s.buf_r.is_some() || s.buf_e.is_some())
    }
}

/// Algorithm 1's higher layer, as a state-model protocol's local state
/// offers it: [`crate::api::Network`] queues messages through it, keeps
/// `request_p` raised while one waits, and audits what the node holds.
/// SSMFP's [`NodeState`] and the baseline's
/// [`crate::baseline::BaselineState`] implement it.
pub trait HigherLayer {
    /// Queues `out` behind the waiting messages and raises `request_p`.
    fn enqueue(&mut self, out: Outgoing);

    /// Whether `request_p` is down while a message still waits: the
    /// protocol ended the higher layer's blocking wait, so it raises the
    /// bit again.
    fn request_lapsed(&self) -> bool;

    /// Raises `request_p`.
    fn raise_request(&mut self);

    /// The ghost of every message held in one of this node's buffers.
    fn held(&self) -> impl Iterator<Item = GhostId> + '_;
}

impl HigherLayer for NodeState {
    fn enqueue(&mut self, out: Outgoing) {
        self.outbox.push_back(out);
        self.request = true;
    }

    fn request_lapsed(&self) -> bool {
        !self.request && !self.outbox.is_empty()
    }

    fn raise_request(&mut self) {
        self.request = true;
    }

    fn held(&self) -> impl Iterator<Item = GhostId> + '_ {
        self.slots
            .iter()
            .flat_map(|s| [&s.buf_r, &s.buf_e])
            .flatten()
            .map(|m| m.ghost)
    }
}

impl HasRouting for NodeState {
    fn routing(&self) -> &RoutingState {
        &self.routing
    }
    fn routing_mut(&mut self) -> &mut RoutingState {
        &mut self.routing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ssmfp_routing::{corruption, CorruptionKind};
    use ssmfp_topology::gen;

    fn mk_state(n: usize) -> NodeState {
        let g = gen::ring(n.max(3));
        let routing = corruption::corrupt(&g, CorruptionKind::None, 0).remove(0);
        NodeState::clean(n, routing)
    }

    #[test]
    fn clean_state_is_empty() {
        let s = mk_state(5);
        assert_eq!(s.slots.len(), 5);
        assert!(!s.has_messages());
        assert_eq!(s.held().count(), 0);
        assert!(!s.request);
        assert!(s.outbox.is_empty());
    }

    #[test]
    fn garbage_respects_domains() {
        let g = gen::random_connected(8, 5, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut inv = 0;
        let delta = g.max_degree() as u8;
        for p in 0..g.n() {
            let routing = corruption::corrupt(&g, CorruptionKind::None, 0).remove(p);
            let mut s = NodeState::clean(g.n(), routing);
            s.scatter_garbage(&g, p, 1.0, &mut rng, &mut inv);
            assert_eq!(s.held().count(), 2 * g.n());
            for slot in &s.slots {
                for m in [slot.buf_r.as_ref().unwrap(), slot.buf_e.as_ref().unwrap()] {
                    assert!(m.last_hop == p || g.has_edge(p, m.last_hop));
                    assert!(m.color.0 <= delta);
                    assert!(!m.ghost.is_valid());
                }
                assert!(slot.choice_ptr <= g.degree(p));
            }
        }
        assert_eq!(inv as usize, 2 * g.n() * g.n());
    }

    #[test]
    fn garbage_zero_probability_stays_clean() {
        let g = gen::line(4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut inv = 0;
        let mut s = mk_state(4);
        s.scatter_garbage(&g, 1, 0.0, &mut rng, &mut inv);
        assert!(!s.has_messages());
        assert_eq!(inv, 0);
    }
}
