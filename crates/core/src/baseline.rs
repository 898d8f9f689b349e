//! The **fault-free baseline**: Merlin–Schweitzer destination-based
//! forwarding \[21\] as §3.1 sketches it — one buffer `b_p(d)` per processor
//! per destination (Figure 1's buffer graph), with *"the concatenation of
//! the identity of the source and a two-value flag"* to distinguish two
//! consecutive identical messages.
//!
//! In the shared-memory model the receiver *pulls* a copy and the sender
//! erases once the receiver's per-port acknowledgment (`last_recv`)
//! records it — the classical alternating-bit handshake. This protocol is
//! correct **when the routing tables are correct from the start**
//! (validated by the tests), but it is *not* stabilizing:
//!
//! * a routing move between a copy and its erasure duplicates the message
//!   (two receivers each pull a copy);
//! * initial garbage in a buffer or an acknowledgment cell can cause a
//!   *silent loss* (the sender erases a message that was never copied);
//! * messages can chase routing loops.
//!
//! [`BaselineNetwork`] is the state model's one [`Network`] running this
//! protocol, judged by the same exactly-once join as SSMFP
//! ([`Network::audit`]). The E9/E10 experiments quantify exactly this
//! contrast against SSMFP: comparable cost when clean, broken when started
//! from an arbitrary configuration.

use crate::api::{DaemonKind, Network};
use crate::message::{GhostId, Payload};
use crate::protocol::Event;
use crate::state::{HigherLayer, Outgoing};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssmfp_kernel::{Engine, Protocol, View};
use ssmfp_routing::{corruption, CorruptionKind, HasRouting, RoutingProtocol, RoutingState};
use ssmfp_topology::{Graph, NodeId};
use std::collections::VecDeque;

/// A baseline message: payload plus the `(source, flag)` pair used for
/// duplicate suppression. `ghost` is verification-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineMsg {
    /// Useful information.
    pub payload: Payload,
    /// The generating processor (part of the dedup key).
    pub src: NodeId,
    /// Two-value flag alternated per source per destination.
    pub flag: bool,
    /// Verification identity.
    pub ghost: GhostId,
}

impl BaselineMsg {
    /// The guard-level dedup key `(m, source, flag)`.
    pub fn key(&self) -> (Payload, NodeId, bool) {
        (self.payload, self.src, self.flag)
    }
}

/// Per-processor state of the baseline protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineState {
    /// Routing table maintained by `A`.
    pub routing: RoutingState,
    /// The single buffer `b_p(d)` per destination.
    pub bufs: Vec<Option<BaselineMsg>>,
    /// Per-destination, per-port acknowledgment: key of the last message
    /// pulled from that neighbour (the alternating-bit memory).
    pub last_recv: Vec<Vec<Option<(Payload, NodeId, bool)>>>,
    /// Fairness pointers (rotation over `N_p ∪ {p}`) per destination.
    pub choice_ptr: Vec<usize>,
    /// Alternating flag for this processor's own next generation, per
    /// destination.
    pub next_flag: Vec<bool>,
    /// The `request_p` bit.
    pub request: bool,
    /// Higher-layer queue.
    pub outbox: VecDeque<Outgoing>,
    /// Destination fairness cursor (same role as in SSMFP).
    pub dest_cursor: NodeId,
}

impl BaselineState {
    /// Clean state: empty buffers and acknowledgments.
    pub fn clean(graph: &Graph, p: NodeId, routing: RoutingState) -> Self {
        let n = graph.n();
        let deg = graph.degree(p);
        BaselineState {
            routing,
            bufs: vec![None; n],
            last_recv: vec![vec![None; deg]; n],
            choice_ptr: vec![0; n],
            next_flag: vec![false; n],
            request: false,
            outbox: VecDeque::new(),
            dest_cursor: 0,
        }
    }

    /// Scatters invalid garbage into buffers and acknowledgment cells —
    /// the arbitrary initial configuration the baseline was never designed
    /// to survive.
    pub fn scatter_garbage(
        &mut self,
        graph: &Graph,
        p: NodeId,
        fill: f64,
        rng: &mut impl Rng,
        next_invalid: &mut u64,
    ) {
        let n = self.bufs.len();
        for d in 0..n {
            if rng.gen_bool(fill) {
                self.bufs[d] = Some(BaselineMsg {
                    payload: rng.gen_range(0..8),
                    src: rng.gen_range(0..n),
                    flag: rng.gen_bool(0.5),
                    ghost: GhostId::Invalid(*next_invalid),
                });
                *next_invalid += 1;
            }
            for port in 0..graph.degree(p) {
                if rng.gen_bool(fill) {
                    self.last_recv[d][port] =
                        Some((rng.gen_range(0..8), rng.gen_range(0..n), rng.gen_bool(0.5)));
                }
            }
            self.choice_ptr[d] = rng.gen_range(0..=graph.degree(p));
            self.next_flag[d] = rng.gen_bool(0.5);
        }
    }
}

impl HigherLayer for BaselineState {
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
        self.bufs.iter().flatten().map(|m| m.ghost)
    }
}

impl HasRouting for BaselineState {
    fn routing(&self) -> &RoutingState {
        &self.routing
    }
    fn routing_mut(&mut self) -> &mut RoutingState {
        &mut self.routing
    }
}

/// Baseline rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineRule {
    /// Generation into the local buffer.
    Generate,
    /// Pull a copy from the chosen upstream neighbour.
    Pull,
    /// Erase after the downstream acknowledgment records our message.
    Erase,
    /// Consume at the destination.
    Consume,
}

/// An action of the composed baseline protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineAction {
    /// Routing correction (priority).
    Routing(ssmfp_routing::RoutingAction),
    /// A forwarding rule for one destination.
    Fwd {
        /// The rule.
        rule: BaselineRule,
        /// The destination instance.
        dest: NodeId,
    },
}

/// The composed baseline protocol (`A` + destination-based forwarding).
#[derive(Debug, Clone)]
pub struct BaselineProtocol {
    n: usize,
    routing: RoutingProtocol<BaselineState>,
}

impl BaselineProtocol {
    /// Creates the protocol for `n` processors.
    pub fn new(n: usize) -> Self {
        BaselineProtocol {
            n,
            routing: RoutingProtocol::new(n),
        }
    }
}

/// Resolved `choice` for the baseline (same rotation scheme as SSMFP's).
fn bl_choice(view: &View<'_, BaselineState>, d: NodeId) -> Option<(NodeId, usize)> {
    let me = view.me();
    let neighbors = view.neighbors();
    let len = neighbors.len() + 1;
    let start = me.choice_ptr[d] % len;
    for offset in 0..len {
        let position = (start + offset) % len;
        let ok = if position == neighbors.len() {
            me.request && me.outbox.front().map(|o| o.dest) == Some(d)
        } else {
            let s = neighbors[position];
            let ss = view.state(s);
            match &ss.bufs[d] {
                Some(msg) => {
                    ss.routing.parent[d] == view.me_id()
                        && me.last_recv[d][position] != Some(msg.key())
                }
                None => false,
            }
        };
        if ok {
            let who = if position == neighbors.len() {
                view.me_id()
            } else {
                neighbors[position]
            };
            return Some((who, position));
        }
    }
    None
}

fn guard_generate(view: &View<'_, BaselineState>, d: NodeId) -> bool {
    let me = view.me();
    me.request
        && me.outbox.front().map(|o| o.dest) == Some(d)
        && me.bufs[d].is_none()
        && bl_choice(view, d).map(|(who, _)| who) == Some(view.me_id())
}

fn guard_pull(view: &View<'_, BaselineState>, d: NodeId) -> bool {
    view.me().bufs[d].is_none()
        && matches!(bl_choice(view, d), Some((who, _)) if who != view.me_id())
}

fn guard_erase(view: &View<'_, BaselineState>, d: NodeId) -> bool {
    let p = view.me_id();
    if p == d {
        return false;
    }
    let me = view.me();
    let Some(msg) = &me.bufs[d] else {
        return false;
    };
    let nh = me.routing.parent[d];
    if !view.neighbors().contains(&nh) {
        return false;
    }
    // Downstream acknowledgment: the receiver's per-port memory of what it
    // last pulled from us records exactly our message.
    let Some(port) = view.graph().port_of(nh, p) else {
        return false;
    };
    view.state(nh).last_recv[d][port] == Some(msg.key())
}

fn guard_consume(view: &View<'_, BaselineState>, d: NodeId) -> bool {
    d == view.me_id() && view.me().bufs[d].is_some()
}

impl Protocol for BaselineProtocol {
    type State = BaselineState;
    type Action = BaselineAction;
    type Event = Event;

    fn enabled_actions(&self, view: &View<'_, Self::State>, out: &mut Vec<Self::Action>) {
        let mut routing_actions = Vec::new();
        self.routing.enabled_into(view, &mut routing_actions);
        out.extend(routing_actions.into_iter().map(BaselineAction::Routing));
        if !out.is_empty() {
            return; // A has priority, as for SSMFP.
        }
        let start = view.me().dest_cursor % self.n;
        for offset in 0..self.n {
            let d = (start + offset) % self.n;
            for (rule, guard) in [
                (BaselineRule::Consume, guard_consume(view, d)),
                (BaselineRule::Erase, guard_erase(view, d)),
                (BaselineRule::Pull, guard_pull(view, d)),
                (BaselineRule::Generate, guard_generate(view, d)),
            ] {
                if guard {
                    out.push(BaselineAction::Fwd { rule, dest: d });
                }
            }
        }
    }

    fn execute(
        &self,
        view: &View<'_, Self::State>,
        action: Self::Action,
        events: &mut Vec<Self::Event>,
    ) -> Self::State {
        match action {
            BaselineAction::Routing(a) => self.routing.apply(view, a),
            BaselineAction::Fwd { rule, dest: d } => {
                let p = view.me_id();
                let mut next = view.me().clone();
                match rule {
                    BaselineRule::Generate => {
                        let out = next.outbox.pop_front().expect("guard checked outbox");
                        let flag = next.next_flag[d];
                        next.next_flag[d] = !flag;
                        next.bufs[d] = Some(BaselineMsg {
                            payload: out.payload,
                            src: p,
                            flag,
                            ghost: out.ghost,
                        });
                        next.request = false;
                        let deg = view.neighbors().len();
                        next.choice_ptr[d] = (deg + 1) % (deg + 1);
                        events.push(Event::Generated {
                            ghost: out.ghost,
                            dest: d,
                            payload: out.payload,
                        });
                    }
                    BaselineRule::Pull => {
                        let (s, position) = bl_choice(view, d).expect("guard checked choice");
                        let msg = *view.state(s).bufs[d]
                            .as_ref()
                            .expect("guard checked source buffer");
                        next.bufs[d] = Some(msg);
                        next.last_recv[d][position] = Some(msg.key());
                        next.choice_ptr[d] = (position + 1) % (view.neighbors().len() + 1);
                        events.push(Event::Forwarded { ghost: msg.ghost });
                    }
                    BaselineRule::Erase => {
                        let msg = next.bufs[d].take().expect("guard checked buffer");
                        events.push(Event::ErasedAfterCopy { ghost: msg.ghost });
                    }
                    BaselineRule::Consume => {
                        let msg = next.bufs[d].take().expect("guard checked buffer");
                        events.push(Event::Delivered {
                            ghost: msg.ghost,
                            payload: msg.payload,
                        });
                    }
                }
                next.dest_cursor = (d + 1) % self.n;
                next
            }
        }
    }

    fn describe(&self, action: Self::Action) -> String {
        match action {
            BaselineAction::Routing(a) => format!("A:correct(d={})", a.dest),
            BaselineAction::Fwd { rule, dest } => format!("B:{rule:?}(d={dest})"),
        }
    }
}

/// The state model's [`Network`] running the baseline protocol.
pub type BaselineNetwork = Network<BaselineProtocol>;

impl Network<BaselineProtocol> {
    /// Builds a baseline network with the given table corruption and
    /// garbage fill, scheduled by `daemon`. (Not `new`: a second inherent
    /// `new` would make every `Network::new(..)` ambiguous.)
    pub fn baseline(
        graph: Graph,
        daemon: DaemonKind,
        corruption_kind: CorruptionKind,
        garbage_fill: f64,
        seed: u64,
    ) -> Self {
        let n = graph.n();
        let routing_states = corruption::corrupt(&graph, corruption_kind, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBAD5_EED0_F00D_CAFE);
        let mut next_invalid = 0;
        let states: Vec<BaselineState> = routing_states
            .into_iter()
            .enumerate()
            .map(|(p, r)| {
                let mut s = BaselineState::clean(&graph, p, r);
                if garbage_fill > 0.0 {
                    s.scatter_garbage(&graph, p, garbage_fill, &mut rng, &mut next_invalid);
                }
                s
            })
            .collect();
        let d = daemon.build_for(&graph);
        Network::with_engine(Engine::new(graph, BaselineProtocol::new(n), d, states))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::SpViolation;
    use ssmfp_topology::gen;

    #[test]
    fn baseline_correct_tables_exactly_once() {
        let mut net = BaselineNetwork::baseline(
            gen::line(5),
            DaemonKind::RoundRobin,
            CorruptionKind::None,
            0.0,
            0,
        );
        let g = net.send(0, 4, 42);
        assert!(net.run_to_quiescence(200_000));
        assert_eq!(net.deliveries_of(g), 1);
        let verdict = net.audit();
        assert!(verdict.clean(), "{verdict:?}");
        assert_eq!((verdict.generated, verdict.exactly_once), (1, 1));
    }

    #[test]
    fn baseline_all_pairs_clean() {
        let mut net = BaselineNetwork::baseline(
            gen::grid(3, 3),
            DaemonKind::RoundRobin,
            CorruptionKind::None,
            0.0,
            0,
        );
        let mut ghosts = Vec::new();
        for s in 0..9 {
            for d in 0..9 {
                if s != d {
                    ghosts.push(net.send(s, d, (s * 9 + d) as u64));
                }
            }
        }
        assert!(net.run_to_quiescence(5_000_000));
        for g in ghosts {
            assert_eq!(net.deliveries_of(g), 1);
        }
    }

    #[test]
    fn baseline_consecutive_same_payload_not_merged() {
        // The alternating flag distinguishes two consecutive identical
        // messages from the same source (the paper's stated purpose).
        let mut net = BaselineNetwork::baseline(
            gen::line(4),
            DaemonKind::RoundRobin,
            CorruptionKind::None,
            0.0,
            0,
        );
        let g1 = net.send(0, 3, 7);
        let g2 = net.send(0, 3, 7);
        assert!(net.run_to_quiescence(200_000));
        assert_eq!(net.deliveries_of(g1), 1);
        assert_eq!(net.deliveries_of(g2), 1);
    }

    #[test]
    fn baseline_loses_message_on_crafted_ack_garbage() {
        // Deterministic loss: initial garbage in the downstream
        // acknowledgment cell equals the key of the message node 0 is about
        // to generate — node 0 erases it believing it was copied. One
        // corrupted cell, one silent loss; SSMFP survives the same start
        // (its R4 erase checks the *message*, re-colored per hop, not a
        // stale acknowledgment).
        let graph = gen::line(3);
        let mut net = BaselineNetwork::baseline(
            graph.clone(),
            DaemonKind::RoundRobin,
            CorruptionKind::None,
            0.0,
            0,
        );
        // First generation of node 0 toward destination 2: key (7, 0, false).
        let port_of_0_at_1 = graph.port_of(1, 0).unwrap();
        net.engine_mut().mutate_state(1, |s| {
            s.last_recv[2][port_of_0_at_1] = Some((7, 0, false));
        });
        let g = net.send(0, 2, 7);
        net.run_to_quiescence(100_000);
        assert_eq!(net.deliveries_of(g), 0, "message must be silently lost");
        assert_eq!(net.audit().violations, vec![SpViolation::Lost { ghost: g }]);
    }

    #[test]
    fn baseline_breaks_under_corruption_somewhere() {
        // Snap-stabilization is exactly what the baseline lacks: across a
        // seed sweep with corrupted tables AND garbage buffers/acks (drawn
        // from a small payload space shared with the senders), at least one
        // run must lose or duplicate a valid message (or fail to deliver
        // within the budget). This is E10's headline.
        let mut broken = 0;
        for seed in 0..20 {
            let mut net = BaselineNetwork::baseline(
                gen::ring(8),
                DaemonKind::CentralRandom { seed },
                CorruptionKind::AntiDistance,
                0.5,
                seed,
            );
            let mut ghosts = Vec::new();
            for s in 0..8 {
                for k in 0..2 {
                    ghosts.push(net.send(s, (s + 3 + k) % 8, (s as u64 + k as u64) % 8));
                }
            }
            net.run_to_quiescence(400_000);
            let verdict = net.audit();
            let undelivered = ghosts.iter().any(|g| net.deliveries_of(*g) == 0);
            if !verdict.clean() || undelivered {
                broken += 1;
            }
        }
        assert!(
            broken > 0,
            "baseline should break under at least one corrupted start"
        );
    }
}
