//! One SSMFP node as a pure event handler: the forwarder from
//! `crates/mp`, its traffic source, the inbound chaos shim of every link
//! and its counters, stepped by `Node::on` with no socket, no readiness
//! set and no thread of its own.
//!
//! The paper's model is guarded commands under a daemon: which *enabled*
//! processor moves next is the scheduler's choice, and SP holds under
//! every choice. A timeout is one more scheduler event. So the node does
//! not choose when it moves: it is handed the frames that arrived on its
//! links, by local port, and the instant, and it hands back the frames it
//! sends and the deadline at which it next has something to do with no
//! frame arriving first. Whoever holds the node is its daemon. In a run
//! that is the node group (`crate::group`): it reads the members'
//! links, steps exactly the members that have frames or a passed
//! deadline, and puts what each step sent on the links before the next
//! member steps. In a test it is a loop over in-memory inboxes, in any
//! order the test likes.
//!
//! One step runs, in order: the inbound frames through the link's chaos
//! shim into `on_message`; `on_timeout` — the rules and timers of the
//! forwarder's active slots, not all `n` — if anything arrived or the tick
//! passed while a retransmission timer runs; the deliveries that
//! produced — latency, acks out, windows closed; then the traffic source.
//! Every send is followed by `advance(dest)`, so a node never waits while
//! one of its own rules is enabled ([`MpForwarder::locally_enabled`],
//! asserted at the end of every step in debug builds): a primary, an ack
//! and the next stop-and-wait primary are on the wire in the step that
//! enabled them, and latency tracks the links end to end, not the tick.
//! The tick is loss recovery: it is a deadline only while a handshake is
//! open ([`MpForwarder::timers_pending`]; a busy downstream slot answers
//! when it frees, nobody polls it), and a node with nothing to retransmit
//! and nothing scheduled has no deadline at all.
//!
//! Nothing here reads a clock but the payload stamps: a step is handed the
//! daemon's reading, µs on the group's one clock, for the tick and the
//! deadlines, and the clock itself, which it reads where a message is
//! delivered and where the source issues, so a stamp is the instant the
//! message entered or left the protocol.

use crate::chaos::{ChaosSpec, InboundChaos};
use crate::clients::{ClientMux, ClientSpec};
use crate::codec::{push_delta, report_block};
use crate::evloop::IoStats;
use crate::frame::{frame_to_msg, msg_to_frame};
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::tuning::TUNING;
use crate::workload::{
    ack_payload, ghost_src, is_ack, stamp_of, WorkloadGen, WorkloadSpec, STAMP_MASK,
};
use ssmfp_core::wire::WireFrame;
use ssmfp_mp::{ack_ghost_of, decode_client_ghost, MpForwarder, MpGhost, MpNode, Outbox, WireMsg};
use ssmfp_topology::{BfsTree, Graph, NodeId};
use std::path::PathBuf;

pub use crate::codec::{parse_report_body, write_report, NodeReport, Status};

/// Where a node listens for inbound connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenSpec {
    /// Unix-domain socket `<dir>/node<k>.sock`.
    Uds {
        /// Directory holding the per-node sockets.
        dir: PathBuf,
    },
    /// TCP on `127.0.0.1`, OS-assigned port.
    Tcp,
}

/// What every node group of a run is handed at bring-up with its member
/// ids, the [`crate::ClusterSpec`] fields a group reads: one value for all
/// of a run's groups (a worker process reads it off its argv).
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The topology.
    pub graph: Graph,
    /// Run seed (drives nonces, workload, chaos, backoff jitter).
    pub seed: u64,
    /// Listener flavour.
    pub listen: ListenSpec,
    /// Every node's workload shape and quota.
    pub workload: WorkloadSpec,
    /// Link chaos.
    pub chaos: ChaosSpec,
    /// Client mode: each node hosts its share of the logical clients
    /// ([`crate::clients::ClientMux`]) instead of the node workload.
    pub clients: Option<ClientSpec>,
}

/// The protocol tick, µs: how often a retransmission timer that runs is
/// looked at.
pub(crate) const TICK_US: u64 = TUNING.tick_ms * 1_000;

/// A node's one traffic source: the node-level generator, or in client
/// mode the client multiplexer in its place.
pub(crate) enum Source {
    Gen(WorkloadGen),
    Mux(ClientMux),
}

impl Source {
    /// When the source next has something to send with no ack arriving
    /// first, µs. Only a source with an arrival schedule — an open loop
    /// still issuing, a client mux — has a deadline: a closed loop's
    /// window opens on an ack, an event. A mux that ran out of send budget
    /// is due at once.
    fn next_due_us(&self, now: u64) -> Option<u64> {
        match self {
            Source::Gen(gen) => gen.next_due_us(now),
            Source::Mux(mux) => mux.next_due_us(now),
        }
    }

    fn done_issuing(&self) -> bool {
        match self {
            Source::Gen(gen) => gen.done_issuing(),
            Source::Mux(mux) => mux.done_issuing(),
        }
    }
}

/// Every member's next hop to every destination, from one BFS tree per
/// destination for all of `ids`: `tables[i][d]` is `ids[i]`'s parent in
/// the tree rooted at `d`, and `ids[i]` itself at `d`.
pub(crate) fn next_hops(graph: &Graph, ids: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut tables = vec![Vec::with_capacity(graph.n()); ids.len()];
    for d in 0..graph.n() {
        let tree = BfsTree::new(graph, d);
        for (table, &p) in tables.iter_mut().zip(ids) {
            let hop = if p == d { Some(p) } else { tree.parent(p) };
            table.push(hop.expect("connected topology"));
        }
    }
    tables
}

/// Queues a send and runs its slot, so the `Offer` is in `outbox` now.
fn send(
    fwd: &mut MpForwarder,
    outbox: &mut Outbox<WireMsg>,
    dest: NodeId,
    payload: u64,
    ghost: MpGhost,
) {
    fwd.enqueue_send(dest, payload, ghost);
    fwd.advance(dest, outbox);
}

/// One node: everything it keeps from one step to the next — forwarder
/// (its audit lists with it), traffic source, chaos shims, sink latency,
/// counters and the tick.
pub(crate) struct Node {
    pub(crate) p: NodeId,
    n: usize,
    pub(crate) fwd: MpForwarder,
    pub(crate) source: Source,
    /// The node's neighbours in local-port order.
    pub(crate) neighbors: Vec<NodeId>,
    /// What the forwarder sent this step, before it is encoded.
    outbox: Outbox<WireMsg>,
    /// Drained scratch each step swaps with `fwd.delivered_msgs`.
    deliveries: Vec<(MpGhost, u64)>,
    latency: LogHistogram,
    /// The inbound chaos shim of every neighbour, by local port.
    chaos: Vec<InboundChaos>,
    pub(crate) counters: NodeCounters,
    /// Whether a retransmission timer ran at the end of the last step.
    pub(crate) ticking: bool,
    /// The last timeout, or the last moment there was nothing to time
    /// (`start` is the first), µs.
    pub(crate) last_tick: u64,
    /// Ledger entries generated and delivered that [`Node::ship`] wrote
    /// and let go.
    pub(crate) shipped: [u64; 2],
}

impl Node {
    /// Node `p` of `run`, routing by `next_hop` (one entry a destination).
    pub(crate) fn new(run: &Run, p: NodeId, next_hop: Vec<NodeId>) -> Self {
        let (graph, n) = (&run.graph, run.graph.n());
        let neighbors: Vec<NodeId> = graph.neighbors(p).to_vec();
        let source = match &run.clients {
            Some(spec) => Source::Mux(ClientMux::new(spec, p, n, run.seed)),
            None => Source::Gen(WorkloadGen::new(run.workload, p, n, run.seed)),
        };
        Node {
            p,
            n,
            fwd: MpForwarder::new_static(
                p,
                n,
                graph.max_degree() as u8,
                neighbors.clone(),
                next_hop,
                run.seed,
            ),
            source,
            outbox: Outbox::new(),
            deliveries: Vec::new(),
            latency: LogHistogram::new(),
            chaos: neighbors
                .iter()
                .map(|&q| InboundChaos::new(&run.chaos, q, p))
                .collect(),
            neighbors,
            counters: NodeCounters::default(),
            ticking: false,
            last_tick: 0,
            shipped: [0; 2],
        }
    }

    /// One step at `now`, µs on the daemon's clock: `inbound` are the
    /// frames that arrived since the last step, by local port. They go
    /// through the chaos shim into `on_message`; then the timeout if
    /// anything arrived or, while a retransmission timer runs, the tick
    /// passed; then what that delivered; then the traffic source. What the
    /// step sends is appended to `out` as `(neighbour, frame)`, in send
    /// order, for the caller to put on the links before any other node
    /// steps. `clock` is read for the payload stamps, where a message is
    /// delivered and where the source issues. Returns the node's next
    /// deadline: the nearer of the tick, only while a timer runs, and the
    /// source's next arrival. With no frame and no passed deadline, a step
    /// would change nothing.
    // Inlined into the group's sweep, its one caller in a run: out of
    // line, the step cost line5_stopwait ~4 % of its throughput.
    #[inline]
    pub(crate) fn on(
        &mut self,
        inbound: impl IntoIterator<Item = (usize, WireFrame)>,
        now: u64,
        clock: fn() -> u64,
        out: &mut Vec<(NodeId, WireFrame)>,
    ) -> Option<u64> {
        // Did anything arrive? Drives the event-driven timeout below.
        let mut worked = false;
        for (port, frame) in inbound {
            self.counters.frames_received += 1;
            self.chaos[port].push(frame);
            worked = true;
        }
        for (port, c) in self.chaos.iter_mut().enumerate() {
            while let Some(frame) = c.poll() {
                if let Some(msg) = frame_to_msg(&frame) {
                    self.fwd
                        .on_message(self.neighbors[port], msg, &mut self.outbox);
                    worked = true;
                }
            }
        }

        // Protocol timeout — event-driven, tick-bounded: after every step
        // that received something, and at tick granularity while a timer
        // runs so retransmission never starves. The tick counts from the
        // last timeout or the last moment there was nothing to time. The
        // adversarial-scheduler suite proves correctness at any firing
        // schedule. `on_timeout` runs every active slot's rules after its
        // retransmission timers (a slot that holds nothing has neither), so
        // what the inbound frames enabled — a confirmed copy to move on, a
        // delivery at the sink — happens here, not a tick later.
        let fire = worked || (self.ticking && now.saturating_sub(self.last_tick) >= TICK_US);
        if fire || !self.ticking {
            self.last_tick = now;
        }
        if fire {
            self.fwd.on_timeout(&mut self.outbox);
        }

        // New deliveries: record latency, issue acks, close windows.
        let scratch = std::mem::take(&mut self.deliveries);
        let mut deliveries = std::mem::replace(&mut self.fwd.delivered_msgs, scratch);
        for (ghost, payload) in deliveries.drain(..) {
            let now = clock();
            // A primary is answered with a real, audited SSMFP message. In
            // client mode the ghost *is* the identity: acks credit their
            // session, and the ack ghost is the primary's with the ack bit
            // set — no per-client state here.
            let answer = match &mut self.source {
                Source::Mux(mux) => match decode_client_ghost(ghost) {
                    Some(parts) if parts.ack => {
                        mux.on_ack(parts, now);
                        None
                    }
                    Some(parts) => Some((parts.node, ack_ghost_of(ghost))),
                    None => None, // initial-configuration garbage: audited, not answered
                },
                Source::Gen(gen) if is_ack(payload) => {
                    gen.on_ack();
                    None
                }
                Source::Gen(gen) => Some((ghost_src(ghost), gen.next_ack_ghost())),
            };
            if let Some((src, ack_ghost)) = answer {
                self.latency
                    .record(now.wrapping_sub(stamp_of(payload)) & STAMP_MASK);
                if src < self.n && src != self.p {
                    send(
                        &mut self.fwd,
                        &mut self.outbox,
                        src,
                        ack_payload(now),
                        ack_ghost,
                    );
                }
            }
        }
        self.deliveries = deliveries;

        // The source, after the acks that may have opened its window. The
        // mux's budget bounds time away from the links; its round-robin
        // ready queue keeps the cut fair.
        let now_us = clock();
        let (fwd, outbox) = (&mut self.fwd, &mut self.outbox);
        match &mut self.source {
            Source::Gen(gen) => {
                while let Some(i) = gen.poll(now_us) {
                    send(fwd, outbox, i.dest, i.payload, i.ghost);
                }
            }
            Source::Mux(mux) => {
                for _ in 0..TUNING.client_send_budget {
                    let Some(i) = mux.next(now_us) else { break };
                    send(fwd, outbox, i.dest, i.payload, i.ghost);
                }
            }
        }
        debug_assert!(!self.fwd.locally_enabled());
        // …and nothing but a frame, an arrival or a running timer can move
        // it: without the tick the node sleeps only on an empty forwarder.
        debug_assert!(self.fwd.timers_pending() || self.fwd.is_idle());

        for (to, msg) in self.outbox.drain() {
            self.counters.frames_sent += 1;
            out.push((to, msg_to_frame(&msg)));
        }
        self.ticking = self.fwd.timers_pending();
        let tick = self.ticking.then(|| self.last_tick + TICK_US);
        tick.into_iter().chain(self.source.next_due_us(now)).min()
    }

    /// Whether the source has issued its whole quota.
    pub(crate) fn done_issuing(&self) -> bool {
        self.source.done_issuing()
    }

    /// Messages generated and delivered here so far, shipped or not.
    pub(crate) fn totals(&self) -> [u64; 2] {
        [
            self.shipped[0] + self.fwd.generated.len() as u64,
            self.shipped[1] + self.fwd.delivered.len() as u64,
        ]
    }

    /// Behind a status line of its group: appends the ledger entries
    /// recorded since the last call to `out` as one delta
    /// ([`push_delta`]), then lets them go, keeping the lists' capacity. A
    /// node with nothing new appends nothing.
    pub(crate) fn ship(&mut self, out: &mut Vec<u8>) {
        let fwd = &mut self.fwd;
        if fwd.generated.is_empty() && fwd.delivered.is_empty() {
            return;
        }
        push_delta(out, self.p, &fwd.generated, &fwd.delivered);
        self.shipped[0] += fwd.generated.len() as u64;
        self.shipped[1] += fwd.delivered.len() as u64;
        fwd.generated.clear();
        fwd.delivered.clear();
    }

    /// Shutdown: aggregate counters, emit the report block, its `gen` and
    /// `del` only what no status line shipped. `io` is the group's socket
    /// accounting for its last member and zeros for the others — every
    /// cluster-wide sum over the reports stays a sum.
    pub(crate) fn finish(self, io: IoStats) -> Vec<u8> {
        let mut counters = self.counters;
        for c in &self.chaos {
            let (d, u, r) = c.fault_counts();
            counters.chaos_dropped += d;
            counters.chaos_duplicated += u;
            counters.chaos_reordered += r;
            counters.partition_dropped += c.partition_dropped();
        }
        counters.heartbeats_sent = io.heartbeats;
        counters.reconnects = io.reconnects;
        counters.write_syscalls = io.write_syscalls;
        counters.read_syscalls = io.read_syscalls;
        counters.conn_frames_dropped = io.conn_frames_dropped;
        counters.waits = io.waits;
        counters.timeouts = self.fwd.timeouts();
        counters.slot_visits = self.fwd.slot_visits();

        let mux = match &self.source {
            Source::Mux(mux) => Some(mux),
            Source::Gen(_) => None,
        };
        report_block(&NodeReport {
            node: self.p,
            held: self.fwd.held_ghosts(),
            generated: self.fwd.generated,
            delivered: self.fwd.delivered,
            latency: self.latency,
            batch: io.batch,
            counters,
            client_rtt: mux.map(|m| m.rtt().clone()).unwrap_or_default(),
            client_fair: mux.map(ClientMux::fairness).unwrap_or_default(),
            clients: mux.map_or(0, ClientMux::hosted),
            clients_completed: mux.map_or(0, ClientMux::completed),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use ssmfp_core::{reconcile_ledgers, NodeLedger};
    use std::cell::Cell;

    thread_local! {
        /// A test's hand-set clock, µs: it moves only when the test moves
        /// it. Each test runs on a thread of its own.
        static HAND_US: Cell<u64> = const { Cell::new(0) };
    }

    /// The hand-set clock, as a step's or a group's `clock`.
    pub(crate) fn hand_clock() -> u64 {
        HAND_US.with(Cell::get)
    }

    /// Moves the hand-set clock `us` µs on.
    pub(crate) fn advance(us: u64) {
        HAND_US.with(|c| c.set(c.get() + us));
    }

    /// Every node of `graph` under `run`'s closed loop of `outstanding`,
    /// `quota(p)` primaries at node `p`.
    fn nodes(
        graph: &Graph,
        seed: u64,
        outstanding: u32,
        quota: impl Fn(NodeId) -> u64,
        chaos: ChaosSpec,
    ) -> Vec<Node> {
        let ids: Vec<NodeId> = (0..graph.n()).collect();
        let tables = next_hops(graph, &ids);
        let node = |(p, table)| {
            let run = Run {
                graph: graph.clone(),
                seed,
                listen: ListenSpec::Tcp,
                workload: WorkloadSpec {
                    kind: WorkloadKind::Closed { outstanding },
                    messages: quota(p),
                },
                chaos,
                clients: None,
            };
            Node::new(&run, p, table)
        };
        ids.iter().copied().zip(tables).map(node).collect()
    }

    /// Puts what node `p` sent into its neighbours' inboxes, by the
    /// receiver's local port of `p`.
    fn deliver(
        nodes: &[Node],
        p: NodeId,
        out: &mut Vec<(NodeId, WireFrame)>,
        inbox: &mut [Vec<(usize, WireFrame)>],
    ) -> u64 {
        let sent = out.len() as u64;
        for (to, frame) in out.drain(..) {
            let port = nodes[to].neighbors.iter().position(|&q| q == p);
            inbox[to].push((port.expect("a neighbour"), frame));
        }
        sent
    }

    /// The shipped step on `line:5` over in-memory FIFO links, every node
    /// stepped every round in id order on a clock that stands still: the
    /// tick never comes, and the timeout fires only after a step that
    /// received something, so every step — local or across a link — has
    /// to happen without waiting for one. Node `p` is a stop-and-wait
    /// source of `quota(p)` primaries.
    fn tick_free_line5(quota: impl Fn(NodeId) -> u64) {
        let graph = ssmfp_topology::gen::line(5);
        let mut nodes = nodes(&graph, 7, 1, &quota, ChaosSpec::none());
        let mut inbox: Vec<Vec<(usize, WireFrame)>> = vec![Vec::new(); nodes.len()];
        let mut out = Vec::new();
        let mut frames = 0u64;
        for round in 0.. {
            assert!(round < 100_000, "the links never went quiet");
            let before = frames;
            for p in 0..nodes.len() {
                nodes[p].on(inbox[p].drain(..), 0, hand_clock, &mut out);
                frames += deliver(&nodes, p, &mut out, &mut inbox);
            }
            if frames == before {
                break;
            }
        }
        // Quiet before the quota is out means a step waited for a tick.
        assert!(nodes.iter().all(Node::done_issuing));
        let sent: Vec<(NodeId, NodeId)> = nodes
            .iter()
            .flat_map(|n| n.fwd.generated.iter().map(|&(_, dest)| (n.p, dest)))
            .collect();
        let primaries: u64 = (0..nodes.len()).map(quota).sum();
        assert_eq!(sent.len() as u64, 2 * primaries, "every primary acked");
        let delivered: usize = nodes.iter().map(|n| n.fwd.delivered.len()).sum();
        assert_eq!(delivered, sent.len(), "primaries and acks all delivered");
        assert!(nodes.iter().all(|n| n.fwd.is_idle()));
        // Offer, Accept, Confirm per hop and nothing else: no step needed a
        // retransmission to make progress.
        let hops: u64 = sent.iter().map(|&(s, d)| s.abs_diff(d) as u64).sum();
        assert_eq!(frames, 3 * hops);
    }

    /// One source: no slot is ever contended.
    #[test]
    fn stop_and_wait_on_line5_needs_no_tick() {
        tick_free_line5(|p| if p == 0 { 40 } else { 0 });
    }

    /// Every node a source: primaries and acks collide in the slots all the
    /// time, and an `Offer` that meets a busy slot is accepted when the
    /// slot frees — no re-offer, no tick.
    #[test]
    fn five_colliding_sources_on_line5_need_no_tick() {
        tick_free_line5(|_| 40);
    }

    /// SP holds under any daemon, through the shipped step — chaos shim
    /// and tick included. On `line:5` and `grid:3x3`, every node a source
    /// of 12 primaries two at a time, every link dropping, duplicating and
    /// reordering up to twice: each round steps, in a seeded random order,
    /// the members that have frames or a passed deadline, each step's
    /// frames in its neighbours' inboxes before the next member steps, and
    /// the hand clock moves one tick on whenever every inbox is empty.
    /// Every node ends done and idle, and the ledgers reconcile clean:
    /// every message generated delivered exactly once.
    #[test]
    fn any_member_order_is_clean() {
        use ssmfp_topology::gen;
        for (name, graph) in [("line:5", gen::line(5)), ("grid:3x3", gen::grid(3, 3))] {
            for seed in 1..=10u64 {
                let chaos = ChaosSpec {
                    seed,
                    faults_per_link: 2,
                    partition: None,
                };
                let mut nodes = nodes(&graph, seed, 2, |_| 12, chaos);
                let n = nodes.len();
                let mut inbox: Vec<Vec<(usize, WireFrame)>> = vec![Vec::new(); n];
                let mut deadline: Vec<Option<u64>> = vec![Some(0); n];
                let (mut out, mut order) = (Vec::new(), (0..n).collect::<Vec<_>>());
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let quiet = |nodes: &[Node], inbox: &[Vec<_>]| {
                    inbox.iter().all(Vec::is_empty)
                        && nodes.iter().all(|n| n.done_issuing() && n.fwd.is_idle())
                };
                let mut rounds = 0u64;
                while !quiet(&nodes, &inbox) {
                    rounds += 1;
                    assert!(rounds < 1_000_000, "{name} seed {seed}: never went quiet");
                    for i in (1..n).rev() {
                        order.swap(i, rng.gen_range(0..=i));
                    }
                    let now = hand_clock();
                    for &p in &order {
                        let due = deadline[p].is_some_and(|d| d <= now);
                        if inbox[p].is_empty() && !due {
                            continue;
                        }
                        deadline[p] = nodes[p].on(inbox[p].drain(..), now, hand_clock, &mut out);
                        deliver(&nodes, p, &mut out, &mut inbox);
                    }
                    if inbox.iter().all(Vec::is_empty) {
                        advance(TICK_US);
                    }
                }
                let ledgers: Vec<NodeLedger> = nodes
                    .iter()
                    .map(|node| NodeLedger {
                        node: node.p,
                        generated: node.fwd.generated.clone(),
                        delivered: node.fwd.delivered.clone(),
                        held: node.fwd.held_ghosts(),
                    })
                    .collect();
                let verdict = reconcile_ledgers(&ledgers);
                let at = format!("{name} seed {seed}");
                assert!(verdict.clean(), "{at}: {:?}", verdict.violations);
                assert_eq!(
                    verdict.generated,
                    2 * 12 * n as u64,
                    "{at}: every primary acked"
                );
                assert_eq!(verdict.exactly_once, verdict.generated, "{at}");
                let faults: u64 = nodes
                    .iter()
                    .flat_map(|n| &n.chaos)
                    .map(|c| c.fault_counts().0)
                    .sum();
                assert!(faults > 0, "{at}: the shim never dropped a frame");
            }
        }
    }
}
