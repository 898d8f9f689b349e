//! [`PortNetwork`], the port's user-facing facade: one [`MpForwarder`] per
//! node over an [`MpNetwork`], built from a clean start or from a
//! transient fault's garbage, and audited by the join that judges the
//! socket cluster.

use crate::net::{ChannelFaults, ChannelTransport, LinkId, MpConfig, MpNetwork, Transport};
use crate::port::{MpForwarder, MpGhost, MpMessage, WireMsg};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::{reconcile_ledgers, ClusterVerdict, NodeLedger};
use ssmfp_topology::{BfsTree, Graph, NodeId};

/// The user-facing facade for the port (mirrors `ssmfp_core::Network`).
///
/// ```
/// use ssmfp_mp::{MpConfig, PortNetwork};
/// use ssmfp_topology::gen;
///
/// // The distance-vector routing layer learns routes from garbage while
/// // the handshake port carries the message — exactly once.
/// let mut net = PortNetwork::new_dv(gen::line(4), MpConfig::default(), true, 0, 0);
/// let msg = net.send(0, 3, 9);
/// assert!(net.run_to_quiescence(2_000_000));
/// assert_eq!(net.deliveries_of(msg), 1);
/// ```
pub struct PortNetwork<T: Transport<WireMsg> = ChannelTransport<WireMsg>> {
    pub(crate) net: MpNetwork<MpForwarder, T>,
    next_valid: u64,
}

impl PortNetwork {
    /// Builds a port network over in-process channels with static,
    /// BFS-correct tables. `wire_garbage` injects that many random wire
    /// messages into random channels; `buffer_garbage` pre-fills that many
    /// random node buffers with invalid messages.
    pub fn new(graph: Graph, config: MpConfig, wire_garbage: usize, buffer_garbage: usize) -> Self {
        let transport = ChannelTransport::new(&graph);
        Self::build(graph, config, transport, None, wire_garbage, buffer_garbage)
    }

    /// As [`PortNetwork::new`], but with the **distance-vector routing
    /// layer**: every node learns its routes from `Dv` advertisements.
    /// `garbage_dv` randomizes the initial estimates and caches (the routing
    /// layer's own transient faults); it must converge by itself — no
    /// oracle repair exists.
    pub fn new_dv(
        graph: Graph,
        config: MpConfig,
        garbage_dv: bool,
        wire_garbage: usize,
        buffer_garbage: usize,
    ) -> Self {
        let transport = ChannelTransport::new(&graph);
        let dv = Some(garbage_dv);
        Self::build(graph, config, transport, dv, wire_garbage, buffer_garbage)
    }
}

impl<T: Transport<WireMsg>> PortNetwork<T> {
    /// Builds a clean port network (static tables, no garbage) over an
    /// arbitrary [`Transport`] — the cluster crate passes its socket-backed
    /// transport here so the same exactly-once suite runs over real OS
    /// sockets.
    pub fn with_transport(graph: Graph, config: MpConfig, transport: T) -> Self {
        Self::build(graph, config, transport, None, 0, 0)
    }

    /// The one build path. `dv` is `None` for static BFS tables, or
    /// `Some(garbage_dv)` for the distance-vector layer from estimates and
    /// caches at the cap (`false`) or random (`true`). Then the garbage:
    /// invalid messages in random buffers, random frames on random links.
    fn build(
        graph: Graph,
        config: MpConfig,
        transport: T,
        dv: Option<bool>,
        wire_garbage: usize,
        buffer_garbage: usize,
    ) -> Self {
        let n = graph.n();
        let cap = n as u32;
        let delta = graph.max_degree() as u8;
        let trees: Vec<BfsTree> = (0..n).map(|d| BfsTree::new(&graph, d)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xFEED_FACE_CAFE_BEEF);
        let mut dv_rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x00DF_ACED_BEAD_5EED);
        let mut next_invalid = 0u64;
        let nodes: Vec<MpForwarder> = (0..n)
            .map(|p| {
                let next_hop = (0..n)
                    .map(|d| {
                        if p == d {
                            p
                        } else {
                            trees[d].parent(p).expect("non-root")
                        }
                    })
                    .collect();
                let neighbors = graph.neighbors(p).to_vec();
                let deg = neighbors.len();
                let mut node =
                    MpForwarder::new_static(p, n, delta, neighbors, next_hop, config.seed);
                if let Some(garbage_dv) = dv {
                    let mut estimates = || -> Vec<u32> {
                        if garbage_dv {
                            (0..n).map(|_| dv_rng.gen_range(0..=cap)).collect()
                        } else {
                            vec![cap; n]
                        }
                    };
                    let own = estimates();
                    let cache = (0..deg).map(|_| estimates()).collect();
                    node = node.with_dist_vec(own, cache);
                }
                // Buffer garbage.
                node.corrupt(|slots| {
                    for _ in 0..buffer_garbage {
                        let d = rng.gen_range(0..n);
                        let msg = MpMessage {
                            payload: rng.gen_range(0..8),
                            color: rng.gen_range(0..=delta),
                            ghost: MpGhost::Invalid(next_invalid),
                        };
                        next_invalid += 1;
                        if rng.gen_bool(0.5) {
                            slots[d].buf_r = Some(msg);
                        } else {
                            slots[d].buf_e = Some(msg);
                            slots[d].offer_nonce = rng.gen();
                        }
                    }
                });
                node
            })
            .collect();
        let mut net = MpNetwork::with_transport(graph, nodes, config, transport);
        // Wire garbage: random handshake messages on random links.
        for _ in 0..wire_garbage {
            let edges = net.graph().edges().to_vec();
            let &(a, b) = &edges[rng.gen_range(0..edges.len())];
            let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
            let d = rng.gen_range(0..n);
            let msg = MpMessage {
                payload: rng.gen_range(0..8),
                color: rng.gen_range(0..=net.graph().max_degree() as u8),
                ghost: MpGhost::Invalid(next_invalid),
            };
            next_invalid += 1;
            let wire = match rng.gen_range(0..5) {
                0 => WireMsg::Offer {
                    d,
                    msg,
                    nonce: rng.gen(),
                },
                1 => WireMsg::Accept {
                    d,
                    msg,
                    nonce: rng.gen(),
                },
                2 => WireMsg::Confirm {
                    d,
                    msg,
                    nonce: rng.gen(),
                },
                3 => WireMsg::Dv {
                    d,
                    dist: rng.gen_range(0..=n as u32),
                },
                _ => WireMsg::Deny {
                    d,
                    msg,
                    nonce: rng.gen(),
                },
            };
            net.inject_wire(LinkId { from, to }, wire);
        }
        PortNetwork { net, next_valid: 0 }
    }

    /// The underlying substrate.
    pub fn net(&self) -> &MpNetwork<MpForwarder, T> {
        &self.net
    }

    /// Installs transient link-fault budgets (drop / duplicate / reorder)
    /// on the substrate's channels. The handshake is *not* loss-tolerant
    /// in general, so the spec a test may demand is the snap-stabilizing
    /// one: messages sent after the last link fault are exactly-once.
    pub fn set_channel_faults(&mut self, faults: ChannelFaults) {
        self.net.set_channel_faults(faults);
    }

    /// True when no further link fault can occur.
    pub fn channel_faults_exhausted(&self) -> bool {
        self.net.channel_faults_exhausted()
    }

    /// Queues a higher-layer send; returns its ghost identity.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: u64) -> MpGhost {
        let ghost = MpGhost::Valid(self.next_valid);
        self.next_valid += 1;
        self.net.node_mut(src).enqueue_send(dst, payload, ghost);
        ghost
    }

    /// Runs until quiescence or the step budget. Returns true if quiescent.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> bool {
        self.net.run_to_quiescence(max_steps)
    }

    /// Deliveries of one message across all nodes.
    pub fn deliveries_of(&self, ghost: MpGhost) -> u64 {
        self.net
            .nodes()
            .iter()
            .map(|n| n.delivered.iter().filter(|g| **g == ghost).count() as u64)
            .sum()
    }

    /// Whether `ghost` was delivered at the *correct* node only.
    pub fn delivered_at_destination(&self, ghost: MpGhost) -> bool {
        let nodes = self.net.nodes();
        let mut generated = nodes.iter().flat_map(|n| &n.generated);
        let Some(&(_, dst)) = generated.find(|(g, _)| *g == ghost) else {
            return false;
        };
        nodes
            .iter()
            .enumerate()
            .all(|(p, n)| p == dst || !n.delivered.contains(&ghost))
    }

    /// Every node's ledger slice, as a cluster node would export it.
    pub fn ledgers(&self) -> Vec<NodeLedger> {
        let ledger = |(node, n): (NodeId, &MpForwarder)| NodeLedger {
            node,
            generated: n.generated.clone(),
            delivered: n.delivered.clone(),
            held: n.held_ghosts(),
        };
        self.net.nodes().iter().enumerate().map(ledger).collect()
    }

    /// Audits the run: the join that judges the socket cluster.
    pub fn audit(&self) -> ClusterVerdict {
        reconcile_ledgers(&self.ledgers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_topology::gen;

    fn config(seed: u64) -> MpConfig {
        MpConfig {
            seed,
            timeout_bias: 0.3,
        }
    }

    #[test]
    fn clean_single_message() {
        let mut net = PortNetwork::new(gen::line(4), config(1), 0, 0);
        let g = net.send(0, 3, 42);
        assert!(net.run_to_quiescence(100_000));
        assert_eq!(net.deliveries_of(g), 1);
        assert!(net.delivered_at_destination(g));
        let audit = net.audit();
        assert_eq!(audit.exactly_once, 1);
        assert_eq!(audit.lost() + audit.duplicated(), 0);
    }

    #[test]
    fn clean_all_pairs() {
        let graph = gen::ring(5);
        let mut net = PortNetwork::new(graph, config(2), 0, 0);
        let mut ghosts = Vec::new();
        for s in 0..5 {
            for d in 0..5 {
                if s != d {
                    ghosts.push(net.send(s, d, ((s + d) % 8) as u64));
                }
            }
        }
        assert!(net.run_to_quiescence(2_000_000));
        for g in &ghosts {
            assert_eq!(net.deliveries_of(*g), 1);
        }
        let audit = net.audit();
        assert_eq!(audit.exactly_once, ghosts.len() as u64);
    }

    #[test]
    fn consecutive_same_payload_not_merged() {
        let mut net = PortNetwork::new(gen::line(3), config(3), 0, 0);
        let a = net.send(0, 2, 7);
        let b = net.send(0, 2, 7);
        assert!(net.run_to_quiescence(200_000));
        assert_eq!(net.deliveries_of(a), 1);
        assert_eq!(net.deliveries_of(b), 1);
    }

    #[test]
    fn corrupted_tables_self_repair_and_deliver() {
        for seed in 0..8 {
            let mut net = PortNetwork::new_dv(gen::grid(2, 3), config(seed), true, 0, 0);
            let mut ghosts = Vec::new();
            for s in 0..6 {
                ghosts.push(net.send(s, (s + 3) % 6, s as u64));
            }
            assert!(net.run_to_quiescence(3_000_000), "seed {seed}");
            for g in &ghosts {
                assert_eq!(net.deliveries_of(*g), 1, "seed {seed}: {g:?}");
                assert!(net.delivered_at_destination(*g), "seed {seed}");
            }
        }
    }

    #[test]
    fn wire_and_buffer_garbage_tolerated() {
        for seed in 0..8 {
            let mut net = PortNetwork::new_dv(gen::ring(6), config(seed), true, 24, 3);
            let mut ghosts = Vec::new();
            for s in 0..6 {
                ghosts.push(net.send(s, (s + 2) % 6, s as u64 % 8));
            }
            let quiescent = net.run_to_quiescence(5_000_000);
            assert!(quiescent, "seed {seed}: port must drain");
            let audit = net.audit();
            assert_eq!(
                audit.exactly_once,
                ghosts.len() as u64,
                "seed {seed}: {audit:?}"
            );
            assert_eq!(audit.lost(), 0, "seed {seed}: {audit:?}");
            assert_eq!(audit.duplicated(), 0, "seed {seed}: {audit:?}");
        }
    }

    #[test]
    fn post_fault_traffic_exactly_once_under_channel_faults() {
        // The link-fault analogue of the state model's `FaultPlan`: while
        // seeded drop/duplicate/reorder budgets last, the channels
        // misbehave; once they are spent the execution's *post-fault
        // suffix* begins and SP must hold for every message sent in it.
        // Sacrificial traffic burns the budgets — its fate is deliberately
        // unasserted (a dropped Confirm may lose it; the handshake is not
        // loss-tolerant, which is exactly why the oracle is epoch-scoped).
        for seed in 0..12u64 {
            let mut net = PortNetwork::new(gen::ring(5), config(seed), 0, 0);
            net.set_channel_faults(ChannelFaults::budget(seed ^ 0xD1CE, 3));
            let mut burn = 0u64;
            while !net.channel_faults_exhausted() {
                // Liveness guard only. The reorder budget needs a queue
                // depth of ≥2 at a delivery opportunity; with the
                // `RETX_FLOOR`ed retransmission schedule a lone handshake
                // rarely queues two frames on one link, so each round
                // burns with five concurrent handshakes over shared links.
                assert!(burn < 2_000, "seed {seed}: budgets never spent");
                for s in 0..5 {
                    net.send(s, (s + 2) % 5, burn % 8);
                }
                net.run_to_quiescence(500_000);
                burn += 1;
            }
            // Drain whatever the faults left behind before the fresh batch.
            net.run_to_quiescence(2_000_000);
            let fresh: Vec<MpGhost> = (0..5).map(|s| net.send(s, (s + 1) % 5, s as u64)).collect();
            assert!(net.run_to_quiescence(2_000_000), "seed {seed}: must drain");
            for g in &fresh {
                assert_eq!(net.deliveries_of(*g), 1, "seed {seed}: {g:?}");
                assert!(net.delivered_at_destination(*g), "seed {seed}");
            }
            assert_eq!(net.audit().invalid_delivered, 0, "seed {seed}");
        }
    }

    #[test]
    fn channel_fault_budgets_are_transient_and_deterministic() {
        let run = |seed: u64| {
            let mut net = PortNetwork::new(gen::line(4), config(seed), 0, 0);
            net.set_channel_faults(ChannelFaults::budget(seed, 2));
            for s in 0..4usize {
                net.send(s, 3 - s, s as u64);
            }
            net.run_to_quiescence(2_000_000);
            let (d, u, r) = net.net().channel_fault_counts();
            (net.net().steps(), d, u, r)
        };
        let (steps, d, u, r) = run(9);
        assert_eq!((steps, d, u, r), run(9), "same seed, same execution");
        assert!(d + u + r > 0, "faults must actually fire");
        assert!(d <= 2 && u <= 2 && r <= 2, "budgets bound every kind");
    }

    #[test]
    fn dv_layer_learns_routes_from_scratch() {
        // All estimates start at the cap; the DV layer must converge and
        // then carry traffic exactly-once.
        let mut net = PortNetwork::new_dv(gen::line(4), config(5), false, 0, 0);
        let mut ghosts = Vec::new();
        for s in 0..4 {
            for d in 0..4 {
                if s != d {
                    ghosts.push(net.send(s, d, ((s + d) % 8) as u64));
                }
            }
        }
        assert!(net.run_to_quiescence(4_000_000));
        for g in &ghosts {
            assert_eq!(net.deliveries_of(*g), 1);
            assert!(net.delivered_at_destination(*g));
        }
    }

    #[test]
    fn dv_layer_survives_garbage_estimates() {
        for seed in 0..6 {
            let mut net = PortNetwork::new_dv(gen::ring(5), config(seed), true, 10, 2);
            let mut ghosts = Vec::new();
            for s in 0..5 {
                ghosts.push(net.send(s, (s + 2) % 5, s as u64 % 8));
            }
            assert!(net.run_to_quiescence(8_000_000), "seed {seed}");
            let audit = net.audit();
            assert_eq!(
                audit.exactly_once,
                ghosts.len() as u64,
                "seed {seed}: {audit:?}"
            );
            assert_eq!(audit.lost() + audit.duplicated(), 0, "seed {seed}");
        }
    }

    #[test]
    fn dv_routes_are_minimal_after_convergence() {
        let graph = gen::grid(2, 3);
        let mut net = PortNetwork::new_dv(graph.clone(), config(2), true, 0, 0);
        let g = net.send(0, 5, 1);
        assert!(net.run_to_quiescence(4_000_000));
        assert_eq!(net.deliveries_of(g), 1);
        // After quiescence every node's next hop decreases the true
        // distance by one (minimal routes).
        let ap = ssmfp_topology::AllPairs::new(&graph);
        for p in 0..graph.n() {
            for d in 0..graph.n() {
                if p == d {
                    continue;
                }
                let nh = net.net().node(p).route(d);
                assert!(graph.has_edge(p, nh), "p={p} d={d} nh={nh}");
                assert_eq!(
                    ap.dist(nh, d) + 1,
                    ap.dist(p, d),
                    "p={p} d={d}: next hop {nh} not on a shortest path"
                );
            }
        }
    }

    #[test]
    fn audit_counts_in_flight_messages() {
        let mut net = PortNetwork::new(gen::line(6), config(4), 0, 0);
        net.send(0, 5, 1);
        // A handful of steps: the message cannot have arrived yet.
        for _ in 0..4 {
            net.net.step();
        }
        let audit = net.audit();
        assert_eq!(audit.exactly_once + audit.in_flight, 1);
        assert_eq!(audit.lost(), 0);
    }

    #[test]
    fn port_is_deterministic_per_seed() {
        let run = |seed| {
            let mut net = PortNetwork::new_dv(gen::ring(5), config(seed), true, 10, 2);
            for s in 0..5 {
                net.send(s, (s + 2) % 5, s as u64);
            }
            net.run_to_quiescence(2_000_000);
            (net.net.steps(), net.audit())
        };
        assert_eq!(run(9), run(9));
    }

    /// The seeded run in which a route flip lost a message: node 3 offers
    /// `Valid(1)` to node 4, re-routes to node 2 (denying node 4, which
    /// drops its tentative copy), and routes back to node 4 while an
    /// `Accept` node 4 sent before the `Deny` is still on the wire. Under
    /// one nonce for all three offers that `Accept` matched and erased node
    /// 3's copy, and the run quiesced at ~586 steps with `Valid(1)` lost.
    /// (`port::tests::a_stale_accept_cannot_certify_the_re_offer_after_a_route_flips_back`
    /// replays the same steps on one node.)
    #[test]
    fn a_route_flip_under_garbage_dv_loses_no_message() {
        let config = MpConfig {
            seed: 17932837410043952301,
            timeout_bias: 0.23703382548333235,
        };
        let mut net = PortNetwork::new_dv(gen::ring(6), config, true, 10, 1);
        for (s, d, p) in [(2, 4, 5), (3, 5, 0), (2, 0, 4)] {
            net.send(s, d, p);
        }
        assert!(net.run_to_quiescence(10_000_000));
        let audit = net.audit();
        assert!(audit.violations.is_empty(), "{audit:?}");
        assert_eq!(audit.exactly_once, 3, "{audit:?}");
    }

    /// The distance-vector refresh backs off while the vector stands still.
    /// Under this schedule, about seven timeouts a delivery, a fixed
    /// 25-timeout period queued `Dv` frames ahead of the handshake faster
    /// than the links drained them, and the two messages needed ~35 M steps
    /// to drain against `prop_port`'s budget of 10 M.
    #[test]
    fn dv_refresh_backs_off_when_timeouts_outpace_deliveries() {
        let edges = [(0, 3), (1, 5), (2, 3), (3, 4), (3, 5)];
        let graph = Graph::from_edges(6, &edges).expect("a tree");
        let config = MpConfig {
            seed: 15623629799211302449,
            timeout_bias: 0.8794097155567857,
        };
        let mut net = PortNetwork::new_dv(graph, config, true, 6, 0);
        let ghosts = [net.send(1, 2, 0), net.send(4, 4, 0)];
        assert!(net.run_to_quiescence(10_000_000), "must drain");
        for g in ghosts {
            assert_eq!(net.deliveries_of(g), 1, "{g:?}");
        }
        assert!(net.audit().violations.is_empty());
    }
}
