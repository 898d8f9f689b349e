//! One SSMFP node as a resumable task: the forwarder from `crates/mp`
//! driven by real sockets instead of the simulated scheduler, on a thread
//! it may share with the other nodes of its shard.
//!
//! ## Connection model
//!
//! A link is a logical FIFO channel, not a kernel connection, and the
//! links belong to the *group* — the nodes that share a thread
//! (`crate::evloop::Hub`). One between two members is in memory: a send
//! pushes the frame into the receiver's inbox, bounded per link. Only the
//! links that leave the group touch a socket, by one rule: **same
//! address, same stream**. A group with a neighbour outside binds one
//! listener, every member reports that address in its `ready` line, and
//! the group keeps one simplex stream per distinct address among its
//! members' outside neighbours. The dialling side only writes, the
//! accepting side only reads, and a `WireFrame::Route { src, dst }` in the
//! byte stream says which directed edge the frames after it crossed; a
//! reader hangs up on a stream that names an edge that does not cross into
//! its group. So a shard has no socket for its inner edges, two shards
//! that share an edge have one stream each way, and a `--node-worker`
//! process — a group of one whose every neighbour has an address of its
//! own — has one per directed edge, by the same rule and the same code.
//! Reconnection stays trivially safe: a lost stream loses its in-flight
//! frames on every link it carried (wire drops), which the protocol's
//! retransmission already tolerates, and the dialler re-establishes with
//! exponential backoff plus jitter and opens with a `Route`.
//!
//! ## One thread per shard
//!
//! The paper's model is guarded commands under a daemon: which *enabled*
//! processor moves next is the scheduler's choice, and SP holds under
//! every choice. So a node is not a thread but a `Node` — engine, chaos
//! shim, control pipe, counters, control state — with `prepare` (its
//! nearest deadline), `step` (control lines, the frames in its inbox →
//! chaos → `on_message`, one engine turn, outbox → the group's links)
//! and `finish` (report). A `Group` is the daemon, and its one `turn` the
//! only copy of the iteration: read the clock, flush each stream
//! **once**, take the group's status cut if a member moved, prepare the
//! nodes that stepped last turn, one wait on the thread's persistent
//! `epoll` set ([`crate::evloop::Poller`]) to the nearest deadline of any
//! node or stream or the status keep-alive — zero while an inbox holds
//! frames — read the clock again, one dispatch for the group (accept, read
//! each ready stream, demultiplex by `Route` into the members' inboxes by
//! local port, retry blocked writes), then step, in slot order, the nodes
//! that have frames, a ready control pipe or a passed deadline — the
//! enabled ones — and nobody else. A turn costs one `write` and one `read`
//! per stream that has something, however many links and members its
//! bytes belong to, and what is registered costs nothing: control pipes
//! and the listener go into the set when the group comes up, a connection
//! when `accept` returns it, an out-stream only while a full socket holds
//! its bytes back. `run_nodes` loops on `turn`; `RunMode::Inproc` runs
//! it once per shard, on the shard's one `node.main` thread; [`node_main`]
//! — a `--node-worker` process — runs it with a group of one. A frame
//! between two nodes of a group never touches the kernel: a receiver
//! later in the slot order steps in the same turn, an earlier one in the
//! next. There is no writer thread, no control-reader thread — frames and
//! control lines surface in plain vectors the node drains, and outbound
//! frames go to a stream's coalescing buffer or a thread-mate's inbox in
//! the same stack frame that produced them.
//!
//! The protocol iteration itself is *event-driven*, and a node is never
//! left waiting while one of its own rules is enabled
//! ([`MpForwarder::locally_enabled`], asserted at the end of every
//! turn). Each `step` runs `on_message` for what arrived, then
//! `on_timeout` if anything arrived, then the deliveries that produced —
//! acks out, windows closed — then the workload; every send is followed by
//! `advance(dest)`. So a primary, an ack and the next stop-and-wait primary
//! are on the wire in the iteration that enabled them, and latency tracks
//! socket readiness end to end — source, every hop and sink — not the
//! tick. The tick is loss recovery: it runs only while a handshake is open
//! ([`MpForwarder::timers_pending`]; a busy downstream slot answers when
//! it frees, nobody polls it), and a group in which no node has anything
//! to retransmit blocks until a frame, the next open-loop arrival or the
//! group's status keep-alive — and then moves only the node that is
//! about. Correctness
//! is schedule-independent (the simulated suite drives the same forwarder
//! under an adversarial scheduler), so running enabled rules at once — and
//! in whatever order the group's nodes happen to sit — is safe by
//! construction.
//!
//! ## Control protocol
//!
//! Line-based, over the supervising shard's pipe:
//! * node → shard: `ready <addr>`
//! * shard → node: `peers <addr_0> … <addr_{n-1}>`, then `start`
//! * group → shard, on its first live member's pipe: `status <wave>
//!   <nodes> <done> <generated> <delivered> <held> <busy>` ([`Status`]) —
//!   one line for the whole group, a cut of all its members at one
//!   instant, written the turn the cut goes quiet or changes while quiet,
//!   once per probe wave, and otherwise once per `status_every`
//! * node → shard, after every status line of its group: its ledger
//!   entries since the last one, as a `gen …` and a `del …` line
//!   (`crate::codec::push_delta`) — nothing if it has none — after which
//!   the node lets them go: the ledger leaves while the run runs
//! * shard → node: `probe <wave>` — the root's second wave; the group
//!   answers it once, with a cut taken after a member read it
//! * shard → node: `stop`
//! * node → shard: a multi-line `report … end` block whose `gen` and `del`
//!   carry only the entries no status line did, then exit.
//!
//! Every line a node writes is [`crate::codec`]'s.

use crate::chaos::{ChaosSpec, InboundChaos};
use crate::clients::{ClientMux, ClientSpec};
use crate::codec::{push_delta, report_block};
use crate::conc::COMPONENT;
use crate::evloop::{Control, CtrlPipe, Hub, IoStats, Poller, HUB};
use crate::frame::{frame_to_msg, msg_to_frame, msg_to_frame_client};
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::tuning::TUNING;
use crate::workload::{
    ack_payload, ghost_src, is_ack, stamp_of, WorkloadGen, WorkloadSpec, STAMP_MASK,
};
use ssmfp_core::conc::register_thread;
use ssmfp_core::wire::WireFrame;
use ssmfp_mp::{ack_ghost_of, decode_client_ghost, MpForwarder, MpGhost, MpNode, Outbox, WireMsg};
use ssmfp_topology::{BfsTree, Graph, NodeId};
use std::io;
use std::os::unix::io::RawFd;
use std::path::PathBuf;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

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

/// Everything one node needs to run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// This node's id.
    pub node: NodeId,
    /// Cluster size.
    pub n: usize,
    /// The full (undirected) edge list of the topology.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Run seed (drives nonces, workload, chaos, backoff jitter).
    pub seed: u64,
    /// Listener flavour.
    pub listen: ListenSpec,
    /// Workload shape and quota.
    pub workload: WorkloadSpec,
    /// Link chaos.
    pub chaos: ChaosSpec,
    /// Client mode: host this node's share of the cluster-wide logical
    /// clients ([`crate::clients::ClientMux`]) instead of the node-level
    /// workload generator, stamping every send with its `(client, seq)`
    /// identity for the per-client audit.
    pub clients: Option<ClientSpec>,
}

/// Wall clock in µs, truncated to the payload stamp width. Latency is the
/// wrapping difference, so absolute truncation is harmless.
fn now_stamp() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_micros() as u64
        & STAMP_MASK
}

fn routing_table(graph: &Graph, p: NodeId) -> Vec<NodeId> {
    let n = graph.n();
    (0..n)
        .map(|d| {
            if p == d {
                p
            } else {
                BfsTree::new(graph, d)
                    .parent(p)
                    .expect("connected topology")
            }
        })
        .collect()
}

/// The protocol side of a node — forwarder (its audit lists with it),
/// traffic source, sink latency — apart from its sockets, so a test can
/// drive the node's iteration over in-memory links.
struct Engine {
    p: NodeId,
    n: usize,
    fwd: MpForwarder,
    gen: WorkloadGen,
    mux: Option<ClientMux>,
    out: Outbox<WireMsg>,
    /// Drained scratch each turn swaps with `fwd.delivered_msgs`.
    deliveries: Vec<(MpGhost, u64)>,
    latency: LogHistogram,
}

impl Engine {
    fn new(cfg: &NodeConfig, graph: &Graph) -> Self {
        let (p, n) = (cfg.node, cfg.n);
        Engine {
            p,
            n,
            fwd: MpForwarder::new_static(
                p,
                n,
                graph.max_degree() as u8,
                graph.neighbors(p).to_vec(),
                routing_table(graph, p),
                cfg.seed,
            ),
            gen: WorkloadGen::new(cfg.workload, p, n, cfg.seed),
            mux: cfg
                .clients
                .as_ref()
                .map(|s| ClientMux::new(s, p, n, cfg.seed)),
            out: Outbox::new(),
            deliveries: Vec::new(),
            latency: LogHistogram::new(),
        }
    }

    /// Queues a send and runs its slot, so the `Offer` is in `out` now.
    fn send(&mut self, dest: NodeId, payload: u64, ghost: MpGhost) {
        self.fwd.enqueue_send(dest, payload, ghost);
        self.fwd.advance(dest, &mut self.out);
    }

    /// One iteration's protocol work, after its inbound frames went through
    /// `fwd.on_message`: the timeout if `fire`, then what it delivered,
    /// then new traffic. Whatever that enables leaves in `out`.
    fn turn(&mut self, fire: bool, issuing: bool, now_us: impl Fn() -> u64) {
        // `on_timeout` runs every slot's rules after its retransmission
        // timers, so what the inbound frames enabled — a confirmed copy to
        // move on, a delivery at the sink — happens here, not a tick later.
        if fire {
            self.fwd.on_timeout(&mut self.out);
        }

        // New deliveries: record latency, issue acks, close windows.
        let scratch = std::mem::take(&mut self.deliveries);
        let mut deliveries = std::mem::replace(&mut self.fwd.delivered_msgs, scratch);
        for (ghost, payload) in deliveries.drain(..) {
            let now = now_us();
            // A primary is answered with a real, audited SSMFP message. In
            // client mode the ghost *is* the identity: acks credit their
            // session, and the ack ghost is the primary's with the ack bit
            // set — no per-client state here.
            let answer = match self.mux.as_mut() {
                Some(mux) => match decode_client_ghost(ghost) {
                    Some(parts) if parts.ack => {
                        mux.on_ack(parts, now);
                        None
                    }
                    Some(parts) => Some((parts.node, ack_ghost_of(ghost))),
                    None => None, // initial-configuration garbage: audited, not answered
                },
                None if is_ack(payload) => {
                    self.gen.on_ack();
                    None
                }
                None => Some((ghost_src(ghost), self.gen.next_ack_ghost())),
            };
            if let Some((src, ack_ghost)) = answer {
                self.latency
                    .record(now.wrapping_sub(stamp_of(payload)) & STAMP_MASK);
                if src < self.n && src != self.p {
                    self.send(src, ack_payload(now), ack_ghost);
                }
            }
        }
        self.deliveries = deliveries;

        // Workload, after the acks that may have opened its window: the
        // client mux replaces the node-level generator in client mode. The
        // budget bounds time away from the socket pump; the mux's
        // round-robin ready queue keeps the cut fair.
        if issuing {
            let now = now_us();
            if self.mux.is_some() {
                for _ in 0..TUNING.client_send_budget {
                    let Some(issue) = self.mux.as_mut().and_then(|m| m.next(now)) else {
                        break;
                    };
                    self.send(issue.dest, issue.payload, issue.ghost);
                }
            } else {
                while let Some(issue) = self.gen.poll(now) {
                    self.send(issue.dest, issue.payload, issue.ghost);
                }
            }
        }
        debug_assert!(!self.fwd.locally_enabled());
        // …and nothing but a frame, an arrival or a running timer can move
        // it: without the tick the node sleeps only on an empty forwarder.
        debug_assert!(self.fwd.timers_pending() || self.fwd.is_idle());
    }

    /// How long until the traffic source next has something to send with
    /// no ack arriving first (see the two `next_due_us`). Only a source
    /// with an arrival schedule — an open loop still issuing, a client mux
    /// — reads the wall clock for it: a closed loop's window opens on an
    /// ack, an event, not a deadline.
    fn until_due(&self) -> Option<Duration> {
        if self.mux.is_none() && !self.gen.scheduled() {
            return None;
        }
        let stamp = now_stamp();
        let due = match &self.mux {
            Some(mux) => mux.next_due_us(stamp),
            None => self.gen.next_due_us(stamp),
        };
        due.map(|due| Duration::from_micros(due.saturating_sub(stamp)))
    }

    fn done_issuing(&self) -> bool {
        self.mux
            .as_ref()
            .map_or_else(|| self.gen.done_issuing(), |m| m.done_issuing())
    }
}

/// One node as a resumable task: everything it keeps between two turns of
/// the thread that carries it — engine, chaos shims, control pipe,
/// counters. Its links are the group's ([`Hub`]): it is handed the frames
/// that arrived on them and hands back the frames it sends. The [`Group`]
/// is the daemon — it picks when each node moves; no rule here depends on
/// that choice. Nothing in here reads the monotonic clock either:
/// `prepare` and `step` are handed the turn's reading (the wall-clock
/// latency stamp, [`now_stamp`], is still taken where a message is
/// enqueued or delivered).
struct Node {
    /// The node's seat in its group: the owner half of its control
    /// pipe's [`Poller::token`], and its name to the [`Hub`].
    index: usize,
    eng: Engine,
    ctrl: Control,
    /// The node's neighbours in local-port order.
    neighbors: Vec<NodeId>,
    /// Client-mode frames carry the `(client_id, client_seq)` wire stamp;
    /// picking the encoder once keeps the hot path branch-free.
    encode: fn(&WireMsg) -> WireFrame,
    /// The inbound chaos shim of every neighbour, by local port.
    chaos: Vec<InboundChaos>,
    counters: NodeCounters,
    // Control state: `peers`, then `start` (or an early `stop`).
    peers_wired: bool,
    started: bool,
    stopping: bool,
    /// The highest `probe` wave read on the control pipe.
    probe: u64,
    /// Whether a retransmission timer ran when `prepare` looked.
    ticking: bool,
    last_tick: Instant,
    /// Ledger entries generated and delivered that [`Node::ship`] wrote
    /// and let go.
    shipped: [u64; 2],
}

impl Node {
    /// Registers the control pipe with `poller` as member `index` of the
    /// group, takes the seat in `hub`, and reports `ready <addr>` — the
    /// group's one listener — up the pipe.
    fn new(
        cfg: &NodeConfig,
        ctrl: CtrlPipe,
        index: usize,
        hub: &mut Hub,
        poller: &Poller,
        now: Instant,
    ) -> io::Result<Self> {
        let graph = Graph::from_edges(cfg.n, &cfg.edges).map_err(io::Error::other)?;
        let p = cfg.node;
        let neighbors: Vec<NodeId> = graph.neighbors(p).to_vec();
        let eng = Engine::new(cfg, &graph);
        let chaos = neighbors
            .iter()
            .map(|&q| InboundChaos::new(&cfg.chaos, q, p))
            .collect();
        let mut ctrl = Control::new(ctrl, index, poller)?;
        hub.join(index, p, neighbors.clone());
        ctrl.write_line(format!("ready {}\n", hub.addr()).as_bytes())?;
        Ok(Node {
            index,
            encode: if eng.mux.is_some() {
                msg_to_frame_client
            } else {
                msg_to_frame
            },
            eng,
            ctrl,
            neighbors,
            chaos,
            counters: NodeCounters::default(),
            peers_wired: false,
            started: false,
            stopping: false,
            probe: 0,
            ticking: false,
            last_tick: now,
            shipped: [0; 2],
        })
    }

    /// Messages generated and delivered here so far, shipped or not.
    fn totals(&self) -> [u64; 2] {
        let fwd = &self.eng.fwd;
        [
            self.shipped[0] + fwd.generated.len() as u64,
            self.shipped[1] + fwd.delivered.len() as u64,
        ]
    }

    /// After a status line of its group: writes the ledger entries recorded
    /// since the last call as one `gen` and one `del` line (`buf` is
    /// scratch), then lets them go, keeping the lists' capacity. A node
    /// with nothing new writes nothing.
    fn ship(&mut self, buf: &mut Vec<u8>) -> io::Result<()> {
        let fwd = &mut self.eng.fwd;
        if fwd.generated.is_empty() && fwd.delivered.is_empty() {
            return Ok(());
        }
        buf.clear();
        push_delta(buf, &fwd.generated, &fwd.delivered);
        self.shipped[0] += fwd.generated.len() as u64;
        self.shipped[1] += fwd.delivered.len() as u64;
        fwd.generated.clear();
        fwd.delivered.clear();
        self.ctrl.write_line(buf)
    }

    /// Before the wait, after a turn in which the node moved: the node's
    /// deadline, if it has one — the nearer of the next open-loop arrival
    /// and, only while a retransmission timer runs, the protocol tick. A
    /// node with nothing to retransmit and nothing scheduled has no
    /// standing wake-up, and until the deadline passes, a frame arrives or
    /// its control pipe is ready, stepping it would change nothing. (What
    /// it sent sits in an inbox or a stream buffer; [`Hub::prepare`]
    /// flushes the buffers. Its status is the group's, [`Group::status`].)
    fn prepare(&mut self, now: Instant) -> Option<Instant> {
        if !self.started {
            return None;
        }
        self.ticking = self.eng.fwd.timers_pending();
        let tick = self.ticking.then(|| self.last_tick + TUNING.tick());
        // A mux that ran out of budget is due at once.
        let arrival = self.eng.until_due().map(|wait| now + wait);
        tick.into_iter().chain(arrival).min()
    }

    /// After the wait, for a node that has frames in its [`Hub::inbound`],
    /// whose control pipe the wait named (`ctrl_ready`) or whose deadline
    /// has passed at `now`: obeys the control lines and — once started —
    /// runs one protocol iteration, leaving what it sends in inboxes or in
    /// stream buffers for the next [`Hub::prepare`] to flush (same stack,
    /// no queue, no wake). `Ok(true)` when the node was told to stop.
    fn step(
        &mut self,
        now: Instant,
        ctrl_ready: bool,
        hub: &mut Hub,
        poller: &Poller,
    ) -> io::Result<bool> {
        if ctrl_ready {
            self.ctrl.read(poller)?;
        }

        // Control. One read can surface several lines at once (the shard
        // writes `peers` and `start` back to back), so every line is
        // parsed as it arrives, not awaited token by token.
        for line in std::mem::take(&mut self.ctrl.lines) {
            if let Some(rest) = line.strip_prefix("peers ") {
                if !self.peers_wired {
                    let addrs: Vec<&str> = rest.split_whitespace().collect();
                    if addrs.len() != self.eng.n {
                        return Err(io::Error::other("peers line has wrong arity"));
                    }
                    hub.connect_peers(self.index, &addrs, now);
                    self.peers_wired = true;
                }
            } else if line.starts_with("start") {
                if !self.peers_wired {
                    return Err(io::Error::other("start before peers"));
                }
                self.started = true;
                self.last_tick = now;
            } else if let Some(wave) = line.strip_prefix("probe ") {
                self.probe = self.probe.max(wave.trim().parse().unwrap_or(0));
            } else if line.starts_with("stop") {
                self.stopping = true;
            }
        }
        if self.ctrl.eof() {
            if !self.started && !self.stopping {
                return Err(io::Error::other("control pipe closed"));
            }
            self.stopping = true;
        }
        if !self.started {
            return Ok(self.stopping);
        }

        // Did anything arrive? Drives the event-driven timeout below.
        let mut worked = false;

        // Inbound, by local port already, through the chaos shim.
        for (port, frame) in hub.drain_inbound(self.index) {
            self.counters.frames_received += 1;
            self.chaos[port].push(frame);
            worked = true;
        }
        for (port, c) in self.chaos.iter_mut().enumerate() {
            while let Some(frame) = c.poll() {
                if let Some(msg) = frame_to_msg(&frame) {
                    self.eng
                        .fwd
                        .on_message(self.neighbors[port], msg, &mut self.eng.out);
                    worked = true;
                }
            }
        }

        // Protocol timeout — event-driven, tick-bounded: after every
        // iteration that received something, and at tick granularity while
        // a timer runs so retransmission never starves — then deliveries,
        // then the workload. The tick counts from the last timeout or the
        // last moment there was nothing to time. The adversarial-scheduler
        // suite proves correctness at any firing schedule.
        let fire = worked || (self.ticking && now.duration_since(self.last_tick) >= TUNING.tick());
        if fire || !self.ticking {
            self.last_tick = now;
        }
        self.eng.turn(fire, !self.stopping, now_stamp);

        for (to, msg) in self.eng.out.drain() {
            self.counters.frames_sent += 1;
            hub.send(self.index, to, &(self.encode)(&msg), now, poller)?;
        }
        Ok(self.stopping)
    }

    /// Shutdown: aggregate counters, emit the report, its `gen` and `del`
    /// only what no status line shipped. `io` is the group's socket
    /// accounting for the one member that retires last and zeros for the
    /// others — every cluster-wide sum over the reports stays a sum.
    fn finish(mut self, io: IoStats) -> io::Result<()> {
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

        let eng = self.eng;
        let mux = eng.mux.as_ref();
        let report = NodeReport {
            node: eng.p,
            held: eng.fwd.held_ghosts(),
            generated: eng.fwd.generated,
            delivered: eng.fwd.delivered,
            latency: eng.latency,
            batch: io.batch,
            counters,
            client_rtt: mux.map(|m| m.rtt().clone()).unwrap_or_default(),
            client_fair: mux.map(ClientMux::fairness).unwrap_or_default(),
            clients: mux.map_or(0, ClientMux::hosted),
            clients_completed: mux.map_or(0, ClientMux::completed),
        };
        self.ctrl.write_line(&report_block(&report))
    }
}

/// One member of a [`Group`].
struct Slot {
    node: Node,
    /// The node's nearest deadline, as its last `prepare` computed it.
    deadline: Option<Instant>,
    /// Stepped last turn: its deadline is stale, so the next turn
    /// prepares it first.
    stepped: bool,
    /// This turn's wait named the node's control pipe.
    ctrl_ready: bool,
    #[cfg(debug_assertions)]
    audit: StepAudit,
}

/// Debug builds count a member's `step` calls and what paid for them:
/// turns that had frames for it, turns that named its control pipe, and
/// turns that found its deadline passed.
#[cfg(debug_assertions)]
#[derive(Default)]
struct StepAudit {
    steps: u64,
    events_seen: u64,
    deadlines_due: u64,
}

/// The nodes that share one data thread, and the paper's daemon over
/// them: one persistent [`Poller`], one [`Hub`] holding the links of them
/// all, per member a control pipe and a deadline, and one status line for
/// them all. [`Group::turn`] is the only copy of the iteration —
/// [`run_nodes`] loops on it.
struct Group {
    poller: Poller,
    hub: Hub,
    /// By group index, the owner half of a control pipe's token: a member
    /// that finished leaves a hole, not a shift.
    slots: Vec<Option<Slot>>,
    results: Vec<Option<io::Result<()>>>,
    /// This turn's `(fd, events)` of the hub's fds (recycled).
    hub_events: Vec<(RawFd, i16)>,
    /// A member stepped since the group last looked at its cut.
    moved: bool,
    /// The last status line the group wrote.
    pushed: Option<Status>,
    /// When the next keep-alive line is due.
    keepalive: Instant,
    /// The bytes of the next control line or ledger delta (recycled).
    line: Vec<u8>,
}

/// `io::Error` is not `Clone`; every member of a group that one failure
/// ends gets its own copy.
fn same_error(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

impl Group {
    /// Creates the thread's `Poller`, binds the group's one listener — per
    /// the first member's `listen`, named after it, if a member has a
    /// neighbour outside to dial it — and seats every node. A node that
    /// fails to come up has its outcome already; the others go on.
    fn new(nodes: Vec<(NodeConfig, CtrlPipe)>) -> io::Result<Self> {
        let poller = Poller::new()?;
        let now = Instant::now();
        let (lead, _) = nodes.first().ok_or_else(|| io::Error::other("no nodes"))?;
        let io_seed = lead.seed ^ ((lead.node as u64) << 32).wrapping_mul(0xDEAD_BEEF_1234_5677);
        let ids: Vec<NodeId> = nodes.iter().map(|(cfg, _)| cfg.node).collect();
        let crosses = |(a, b): &(NodeId, NodeId)| ids.contains(a) != ids.contains(b);
        let listen = lead.edges.iter().any(crosses).then_some(&lead.listen);
        let mut hub = Hub::new(listen, lead.node, nodes.len(), io_seed, &poller)?;
        let mut slots = Vec::with_capacity(nodes.len());
        let mut results = Vec::with_capacity(nodes.len());
        for (i, (cfg, ctrl)) in nodes.into_iter().enumerate() {
            match Node::new(&cfg, ctrl, i, &mut hub, &poller, now) {
                Ok(node) => {
                    slots.push(Some(Slot {
                        node,
                        deadline: None,
                        stepped: true,
                        ctrl_ready: false,
                        #[cfg(debug_assertions)]
                        audit: StepAudit::default(),
                    }));
                    results.push(None);
                }
                Err(e) => {
                    slots.push(None);
                    results.push(Some(Err(e)));
                }
            }
        }
        Ok(Group {
            poller,
            hub,
            slots,
            results,
            hub_events: Vec::new(),
            moved: false,
            pushed: None,
            keepalive: now,
            line: Vec::new(),
        })
    }

    fn live(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }

    /// Member `i` leaves the group: stopped (`Ok`: report) or failed.
    /// Either way the node is dropped here, its `CtrlPipe` with it —
    /// closing it is what takes it out of the `Poller`, and EOF is what
    /// tells its supervisor. What it sent is still the hub's to flush; the
    /// member that leaves last shuts the hub down and carries the group's
    /// socket accounting in its report.
    fn retire(&mut self, i: usize, outcome: io::Result<()>) {
        if let Some(slot) = self.slots[i].take() {
            self.hub.leave(i);
            let io = if self.live() {
                IoStats::default()
            } else {
                self.hub.shutdown()
            };
            self.results[i] = Some(outcome.and_then(|()| slot.node.finish(io)));
        }
    }

    /// The wait or the group's sockets failed in a way no retry mends:
    /// every member's outcome is that error.
    fn fail(&mut self, e: &io::Error) {
        for i in 0..self.slots.len() {
            self.retire(i, Err(same_error(e)));
        }
    }

    /// The group's status, looked at before every wait. Once every member
    /// has started and none is stopping, the group takes its cut — done,
    /// generated, delivered and held summed over the members, and whether
    /// an inbox or a stream buffer still holds a frame, all at this one
    /// instant between two turns — and writes it as one line on its first
    /// live member's pipe: when the cut is quiet and differs from the last
    /// line (the quiet edge, or a change while quiet), when a member has
    /// read a probe the group has not answered, and otherwise once per
    /// `status_every`. Behind the line — never ahead of it, so a probe's
    /// answer waits for nobody's ledger — every member ships the entries
    /// the cut counted and it had not shipped ([`Node::ship`]): after a
    /// status line the thread holds no ledger entry older than the line. A
    /// cut with a member still issuing cannot be quiet, so a turn takes
    /// none — and scans no `held_count` — unless a probe or the keep-alive
    /// asks for one. Returns the keep-alive deadline while the group runs.
    fn status(&mut self, now: Instant) -> Option<Instant> {
        let (mut nodes, mut done, mut probe, mut first) = (0, 0, 0, None);
        for (i, slot) in self.slots.iter().enumerate() {
            let Some(Slot { node, .. }) = slot else {
                continue;
            };
            if !node.started || node.stopping {
                return None;
            }
            first.get_or_insert(i);
            nodes += 1;
            done += node.eng.done_issuing() as u64;
            probe = probe.max(node.probe);
        }
        let first = first?;
        let moved = std::mem::take(&mut self.moved);
        let answer = probe > self.pushed.map_or(0, |s| s.wave);
        let due = now >= self.keepalive;
        if !(answer || due || moved && done == nodes) {
            return Some(self.keepalive);
        }
        let mut cut = Status {
            wave: probe,
            nodes,
            done,
            busy: self.hub.holds_frames() as u64,
            ..Status::default()
        };
        for node in self.slots.iter().flatten().map(|s| &s.node) {
            let [generated, delivered] = node.totals();
            cut.generated += generated;
            cut.delivered += delivered;
            cut.held += node.eng.fwd.held_count() as u64;
        }
        if !(answer || due || cut.quiet(nodes) && self.pushed != Some(cut)) {
            return Some(self.keepalive);
        }
        self.line.clear();
        cut.push_line(&mut self.line);
        let node = &mut self.slots[first].as_mut().expect("a live member").node;
        if let Err(e) = node.ctrl.write_line(&self.line) {
            // The next member's pipe carries the line, next turn.
            self.retire(first, Err(e));
            return Some(now);
        }
        self.pushed = Some(cut);
        self.keepalive = now + TUNING.status_every();
        for i in 0..self.slots.len() {
            if let Some(slot) = &mut self.slots[i] {
                if let Err(e) = slot.node.ship(&mut self.line) {
                    self.retire(i, Err(e));
                }
            }
        }
        Some(self.keepalive)
    }

    /// One turn of the daemon: read the clock; flush each of the group's
    /// streams — once, whichever members and links its bytes belong to;
    /// look at the group's [`Group::status`]; `prepare` the members that
    /// stepped last turn; wait to the nearest deadline of any member or
    /// stream or the status keep-alive (a linear min: a group is a
    /// shard, ≤ 25 nodes), zero while an inbox holds frames; read
    /// the clock again; one dispatch for the group — accept, read each
    /// ready stream, demultiplex into the members' inboxes by local port,
    /// retry blocked writes; then `step`, in slot order, exactly the
    /// members that have frames, a ready control pipe or a passed
    /// deadline. A frame between two members is pushed into the
    /// receiver's inbox: one later in the order steps this very turn, an
    /// earlier one the next, and nobody sleeps in between.
    ///
    /// Skipping a member is skipping a no-op, not a move: with no frame,
    /// no control event and no due deadline its `step` would find no
    /// control line, no inbound frame, no tick to fire and a workload that
    /// is not due; a chaos shim drains its queue inside the step that
    /// filled it, and a client mux that ran out of send budget is due
    /// *now*, a zero deadline.
    ///
    /// A member that fails is retired without disturbing the others. A
    /// wait that fails (anything but `EINTR`), or a socket the set
    /// refuses, cannot be retried into working: it ends the group, every
    /// member's outcome that error.
    fn turn(&mut self) {
        let now = Instant::now();
        let mut wake = match self.hub.prepare(now, &self.poller) {
            Ok(deadline) => deadline,
            Err(e) => return self.fail(&e),
        };
        if let Some(keepalive) = self.status(now) {
            wake = wake.min(keepalive);
        }
        if !self.live() {
            return;
        }
        for slot in self.slots.iter_mut().flatten() {
            if slot.stepped {
                slot.stepped = false;
                slot.deadline = slot.node.prepare(now);
            }
            if let Some(deadline) = slot.deadline {
                wake = wake.min(deadline);
            }
        }
        match self.poller.wait(Some(wake.saturating_duration_since(now))) {
            Ok(ready) => {
                for &(token, events) in ready {
                    let (owner, fd) = Poller::untoken(token);
                    if owner == HUB {
                        self.hub_events.push((fd, events));
                    } else if let Some(Some(slot)) = self.slots.get_mut(owner) {
                        slot.ctrl_ready = true;
                    }
                }
            }
            Err(e) => return self.fail(&e),
        }
        let now = Instant::now();
        let dispatched = self.hub.dispatch(now, &self.hub_events, &self.poller);
        self.hub_events.clear();
        if let Err(e) = dispatched {
            return self.fail(&e);
        }
        for i in 0..self.slots.len() {
            let Some(slot) = &mut self.slots[i] else {
                continue;
            };
            let ctrl_ready = std::mem::take(&mut slot.ctrl_ready);
            let woken = ctrl_ready || !self.hub.inbound(i).is_empty();
            let due = slot.deadline.is_some_and(|d| d <= now);
            if !woken && !due {
                continue;
            }
            #[cfg(debug_assertions)]
            {
                slot.audit.steps += 1;
                slot.audit.events_seen += woken as u64;
                slot.audit.deadlines_due += due as u64;
            }
            slot.stepped = true;
            self.moved = true;
            match slot.node.step(now, ctrl_ready, &mut self.hub, &self.poller) {
                Ok(false) => {}
                Ok(true) => self.retire(i, Ok(())),
                Err(e) => self.retire(i, Err(e)),
            }
        }
    }
}

/// Runs a group of nodes to completion on the calling thread, each over
/// its own control pipe: [`Group::turn`] until every node has stopped or
/// failed. Returns every node's outcome, in argument order; what a node
/// reports went up its pipe.
pub(crate) fn run_nodes(nodes: Vec<(NodeConfig, CtrlPipe)>) -> Vec<io::Result<()>> {
    // In proc mode this is the process main thread; in inproc mode the
    // shard's spawn already registered it (re-registration is
    // idempotent). Either way the declared role holds from here on.
    register_thread(COMPONENT, "node.main");
    let n = nodes.len();
    let mut group = match Group::new(nodes) {
        Ok(group) => group,
        Err(e) => return (0..n).map(|_| Err(same_error(&e))).collect(),
    };
    while group.live() {
        group.turn();
    }
    group
        .results
        .into_iter()
        .map(|r| r.expect("every node finished or failed"))
        .collect()
}

/// Runs one node to completion over the given control pipe — a
/// `run_nodes` group of one.
pub fn node_main(cfg: &NodeConfig, ctrl: CtrlPipe) -> io::Result<()> {
    run_nodes(vec![(cfg.clone(), ctrl)])
        .pop()
        .expect("one node in, one outcome out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::fold_line;
    use crate::evloop::take_lines;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    /// The node's iteration on `line:5` over in-memory FIFO links with
    /// the tick branch off: the timeout fires only after an iteration that
    /// received something, so every step — local or across a link — has to
    /// happen without waiting for one. Node `p` is a stop-and-wait source
    /// of `quota(p)` primaries.
    fn tick_free_line5(quota: impl Fn(NodeId) -> u64) {
        use crate::workload::{WorkloadKind, WorkloadSpec};
        let n = 5usize;
        let graph = ssmfp_topology::gen::line(n);
        let mut engines: Vec<Engine> = (0..n)
            .map(|p| {
                let cfg = NodeConfig {
                    node: p,
                    n,
                    edges: graph.edges().to_vec(),
                    seed: 7,
                    listen: ListenSpec::Tcp,
                    workload: WorkloadSpec {
                        kind: WorkloadKind::Closed { outstanding: 1 },
                        messages: quota(p),
                    },
                    chaos: ChaosSpec::none(),
                    clients: None,
                };
                Engine::new(&cfg, &graph)
            })
            .collect();
        let mut inbox: Vec<Vec<(NodeId, WireMsg)>> = vec![Vec::new(); n];
        let mut frames = 0u64;
        for round in 0.. {
            assert!(round < 100_000, "the links never went quiet");
            let before = frames;
            for p in 0..n {
                let arrived = std::mem::take(&mut inbox[p]);
                let eng = &mut engines[p];
                for &(from, msg) in &arrived {
                    eng.fwd.on_message(from, msg, &mut eng.out);
                }
                eng.turn(!arrived.is_empty(), true, || 0);
                for (to, msg) in eng.out.drain() {
                    inbox[to].push((p, msg));
                    frames += 1;
                }
            }
            if frames == before {
                break;
            }
        }
        // Quiet before the quota is out means a step waited for a tick.
        assert!(engines.iter().all(Engine::done_issuing));
        let sent: Vec<(NodeId, NodeId)> = engines
            .iter()
            .flat_map(|e| e.fwd.generated.iter().map(|&(_, dest)| (e.p, dest)))
            .collect();
        let primaries: u64 = (0..n).map(quota).sum();
        assert_eq!(sent.len() as u64, 2 * primaries, "every primary acked");
        let delivered: usize = engines.iter().map(|e| e.fwd.delivered.len()).sum();
        assert_eq!(delivered, sent.len(), "primaries and acks all delivered");
        assert!(engines.iter().all(|e| e.fwd.is_idle()));
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

    /// A hand-driven `line:4` over real control pipes, every node on the
    /// test thread, in groups of consecutive ids `sizes` long: `&[4]` is
    /// one group, every link in memory; `&[2, 2]` the split
    /// `{0, 1} | {2, 3}`, whose `1 ↔ 2` edge crosses a socket. Node
    /// `source` is a stop-and-wait source of `quota` primaries whose
    /// generator is narrowed to one destination — in a cluster of two,
    /// every destination is node 0, or node 1 for node 0 — so one
    /// handshake is in flight at a time and a warm vector never needs to
    /// grow; nobody else sends anything. `pair` is the busy link
    /// [`Rig::turn_until`] watches.
    struct Rig {
        groups: Vec<Group>,
        /// The supervisor ends of the control pipes, by node (kept open:
        /// EOF means stop).
        supervisor: Vec<UnixStream>,
        /// By node, the bytes read off its supervisor end so far.
        heard: Vec<Vec<u8>>,
        dir: PathBuf,
        pair: [NodeId; 2],
        /// Groups turned in alternation must not sleep on frames only the
        /// other's turn sends: a byte nobody reads, in every group's set
        /// under an owner that is no member, makes every wait a poll.
        _nudge: Option<(UnixStream, UnixStream)>,
    }

    impl Rig {
        fn new(tag: &str, sizes: &[usize], source: NodeId, quota: u64, pair: [NodeId; 2]) -> Self {
            use crate::evloop::POLLIN;
            use crate::workload::{WorkloadKind, WorkloadSpec};
            use std::io::{BufRead, BufReader};
            use std::os::unix::io::AsRawFd;
            let dir = std::env::temp_dir().join(format!("ssmfp-node-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let stop_and_wait = |messages| WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 1 },
                messages,
            };
            let (mut supervisor, nodes): (Vec<UnixStream>, Vec<_>) = (0..4usize)
                .map(|node| {
                    let cfg = NodeConfig {
                        node,
                        n: 4,
                        edges: ssmfp_topology::gen::line(4).edges().to_vec(),
                        seed: 7,
                        listen: ListenSpec::Uds { dir: dir.clone() },
                        workload: stop_and_wait(0),
                        chaos: ChaosSpec::none(),
                        clients: None,
                    };
                    let (sup_side, node_side) = UnixStream::pair().unwrap();
                    (sup_side, (cfg, CtrlPipe::Stream(node_side)))
                })
                .unzip();
            let mut nodes = nodes.into_iter();
            let mut groups: Vec<Group> = sizes
                .iter()
                .map(|&k| Group::new(nodes.by_ref().take(k).collect()).unwrap())
                .collect();
            let slots = groups.iter_mut().flat_map(|g| g.slots.iter_mut().flatten());
            for slot in slots.filter(|s| s.node.eng.p == source) {
                slot.node.eng.gen = WorkloadGen::new(stop_and_wait(quota), source, 2, 7);
            }
            // Every member reports its group's address: node order is group
            // order.
            let addrs: Vec<&str> = groups
                .iter()
                .flat_map(|g| g.slots.iter().map(|_| g.hub.addr()))
                .collect();
            for (s, addr) in supervisor.iter().zip(&addrs) {
                let mut line = String::new();
                BufReader::new(s).read_line(&mut line).unwrap();
                assert_eq!(line.trim(), format!("ready {addr}"), "one address a group");
            }
            for s in &mut supervisor {
                writeln!(s, "peers {}\nstart", addrs.join(" ")).unwrap();
            }
            let nudge = (groups.len() > 1).then(|| {
                let (mut tx, rx) = UnixStream::pair().unwrap();
                tx.write_all(&[1]).unwrap();
                let token = Poller::token(HUB - 1, rx.as_raw_fd());
                for g in &groups {
                    g.poller.add(rx.as_raw_fd(), POLLIN, token).unwrap();
                }
                (tx, rx)
            });
            Rig {
                groups,
                supervisor,
                heard: vec![Vec::new(); 4],
                dir,
                pair,
                _nudge: nudge,
            }
        }

        /// The lines node `p`'s supervisor end has read so far.
        fn lines(&self, p: NodeId) -> Vec<Vec<u8>> {
            let mut lines = Vec::new();
            take_lines(&mut Vec::new(), &self.heard[p], |l| lines.push(l.to_vec()));
            lines
        }

        /// The `status` lines node `p`'s supervisor end has read so far.
        fn statuses(&self, p: NodeId) -> Vec<Status> {
            let lines = self.lines(p);
            let rests = lines.iter().filter_map(|l| l.strip_prefix(b"status "));
            rests.map(|rest| Status::parse(rest).unwrap()).collect()
        }

        /// What a shard makes of node `p`'s lines so far: its ledger
        /// deltas and, once it stopped, its block, folded into one report.
        fn folded(&self, p: NodeId) -> NodeReport {
            let mut r = NodeReport {
                node: p,
                ..NodeReport::default()
            };
            for line in self.lines(p) {
                if !(line.starts_with(b"status ") || line.starts_with(b"report ")) {
                    let text = String::from_utf8_lossy(&line);
                    assert!(fold_line(&mut r, &line).is_some(), "node {p}: {text}");
                }
            }
            r
        }

        fn nodes(&self) -> impl Iterator<Item = &Node> {
            let slots = self.groups.iter().flat_map(|g| g.slots.iter().flatten());
            slots.map(|s| &s.node)
        }

        fn node(&self, p: NodeId) -> &Node {
            self.nodes().find(|n| n.eng.p == p).expect("a live node")
        }

        /// One turn of every group, in order, then — as a shard would —
        /// whatever they wrote up the control pipes, read without waiting:
        /// a pipe nobody reads fills, and a group's next line blocks.
        fn turn(&mut self) {
            use std::io::Read;
            self.groups.iter_mut().for_each(Group::turn);
            let mut buf = [0u8; 4096];
            for (s, heard) in self.supervisor.iter_mut().zip(&mut self.heard) {
                s.set_nonblocking(true).unwrap();
                while let Ok(k @ 1..) = s.read(&mut buf) {
                    heard.extend_from_slice(&buf[..k]);
                }
                s.set_nonblocking(false).unwrap();
            }
        }

        /// Turns, `each_turn` after every round, until both nodes of the
        /// busy pair have received `frames`.
        fn turn_until(&mut self, frames: u64, each_turn: &mut dyn FnMut(&mut Rig)) {
            for _ in 0..1_000_000 {
                let received = |p| self.node(p).counters.frames_received;
                if self.pair.iter().all(|&p| received(p) >= frames) {
                    return;
                }
                self.turn();
                let results = self.groups.iter().flat_map(|g| &g.results);
                assert!(results.into_iter().all(Option::is_none), "nobody said stop");
                each_turn(self);
            }
            panic!("the link went quiet before {frames} frames");
        }
    }

    impl Drop for Rig {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// The split, node 2 a stop-and-wait source to node 0: every frame
    /// of the run crosses the `1 ↔ 2` edge, the one link between the
    /// groups.
    fn split_rig(tag: &str, quota: u64) -> Rig {
        Rig::new(tag, &[2, 2], 2, quota, [1, 2])
    }

    /// Four nodes of one thread, driven through the [`Group::turn`] that
    /// [`run_nodes`] loops on, every link in memory. Once warm, a turn
    /// neither frees nor regrows a member's inbound vector: same
    /// allocation, same capacity, however many frames pass through it.
    #[test]
    fn steady_state_iterations_never_realloc_inbound() {
        let mut rig = Rig::new("pin", &[4], 0, 1_000_000, [0, 1]);
        rig.turn_until(300, &mut |_| {});
        let pin = |rig: &mut Rig, i| {
            let inbound = rig.groups[0].hub.inbound(i);
            (inbound.as_ptr(), inbound.capacity())
        };
        let pins = [pin(&mut rig, 0), pin(&mut rig, 1)];
        assert!(pins.iter().all(|&(_, cap)| cap > 0));
        rig.turn_until(3_000, &mut |rig| {
            for (i, &pinned) in pins.iter().enumerate() {
                assert_eq!(pin(rig, i), pinned, "node {i} reallocated inbound");
            }
        });
        let hub = &rig.groups[0].hub;
        assert_eq!(hub.shape(), (0, 0), "no socket: every link in memory");
        assert_eq!(
            (hub.stats().write_syscalls, hub.stats().read_syscalls),
            (0, 0)
        );
    }

    /// The daemon steps only what is ready or due: every `step` is paid
    /// for by frames in that node's inbox, its control pipe, or its
    /// deadline having passed, and a member that no data frame ever
    /// reaches moves on its control lines alone — not once per frame of
    /// its thread-mates, and not for the status, which is the group's.
    #[cfg(debug_assertions)]
    #[test]
    fn a_turn_steps_only_members_that_are_ready_or_due() {
        let mut rig = Rig::new("ready-or-due", &[4], 0, 1_000_000, [0, 1]);
        rig.turn_until(3_000, &mut |_| {});
        let slots: Vec<&StepAudit> = rig.groups[0]
            .slots
            .iter()
            .map(|s| &s.as_ref().unwrap().audit)
            .collect();
        for s in &slots {
            assert!(
                s.steps <= s.events_seen + s.deadlines_due,
                "{} steps for {} events + {} deadlines",
                s.steps,
                s.events_seen,
                s.deadlines_due
            );
        }
        assert!(slots[0].steps >= 1_000, "{} steps", slots[0].steps);
        for idle in &slots[2..] {
            // `peers` and `start`: one read or two.
            assert!(idle.events_seen <= 2, "{} events", idle.events_seen);
            assert_eq!(idle.deadlines_due, 0, "an idle member has no deadline");
        }
    }

    /// One status line per group, on its first member's pipe, the turn the
    /// group's cut goes quiet — not one per turn, not one per member — and
    /// one answer per probe wave, however many members read the probe.
    #[test]
    fn a_group_writes_one_status_line_per_quiet_edge() {
        let began = Instant::now();
        let mut rig = Rig::new("status", &[4], 0, 20, [0, 1]);
        let pushed = |rig: &Rig| rig.groups[0].pushed;
        let mut turns = 0u64;
        while !pushed(&rig).is_some_and(|s| s.quiet(4)) {
            assert!(turns < 100_000, "the group never went quiet");
            rig.turn();
            turns += 1;
        }
        let quiet = pushed(&rig).unwrap();
        assert_eq!(
            (quiet.generated, quiet.delivered),
            (40, 40),
            "20 primaries, 20 acks"
        );
        // The first line after `start`, the quiet edge, and keep-alives.
        let lines = rig.statuses(0);
        let periods = began.elapsed().as_micros() / TUNING.status_every().as_micros();
        assert!(
            lines.len() as u128 <= periods + 2 && lines.len() as u64 * 4 < turns,
            "{} lines in {turns} turns over {periods} status periods",
            lines.len()
        );
        assert_eq!(lines.last(), Some(&quiet));
        assert_eq!(lines.iter().filter(|s| s.quiet(4)).count(), 1);
        for p in 1..4 {
            assert!(rig.statuses(p).is_empty(), "one line a group, not a member");
        }

        // Every member reads the probe; the group answers once.
        for s in &mut rig.supervisor {
            writeln!(s, "probe 7").unwrap();
        }
        while pushed(&rig).unwrap().wave < 7 {
            rig.turn();
        }
        let answers: Vec<Status> = rig
            .statuses(0)
            .into_iter()
            .filter(|s| s.wave == 7)
            .collect();
        assert_eq!(answers, [Status { wave: 7, ..quiet }]);
    }

    /// The cluster-wide SP verdict over reports.
    fn reconcile(reports: Vec<NodeReport>) -> ssmfp_core::ClusterVerdict {
        let ledgers: Vec<ssmfp_core::NodeLedger> = reports
            .into_iter()
            .map(|r| ssmfp_core::NodeLedger {
                node: r.node,
                generated: r.generated,
                delivered: r.delivered,
                held: r.held,
            })
            .collect();
        ssmfp_core::reconcile_ledgers(&ledgers)
    }

    /// The ledger leaves behind the status line: once the group wrote its
    /// quiet edge, no member holds a ledger entry; every member's pipe
    /// holds `gen` / `del` lines with every entry it generated or
    /// delivered, in order — each node's ghosts, of one kind, count up —
    /// and as many as the line counted; and the block `stop` draws carries
    /// empty `gen` and `del` lines.
    #[test]
    fn a_quiet_edge_ships_every_ledger_entry() {
        let mut rig = Rig::new("ledger", &[4], 0, 20, [0, 1]);
        let mut turns = 0u64;
        let quiet = loop {
            if let Some(s) = rig.groups[0].pushed.filter(|s| s.quiet(4)) {
                break s;
            }
            assert!(turns < 100_000, "the group never went quiet");
            rig.turn();
            turns += 1;
        };
        for node in rig.nodes() {
            let fwd = &node.eng.fwd;
            assert!(fwd.generated.is_empty() && fwd.delivered.is_empty());
            assert_eq!(node.totals(), node.shipped);
        }
        let streamed: Vec<NodeReport> = (0..4).map(|p| rig.folded(p)).collect();
        for r in &streamed {
            let ghosts = r.generated.iter().map(|&(g, _)| g);
            for list in [ghosts.collect(), r.delivered.clone()] {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "node {}", r.node);
            }
        }
        let sum = |count: fn(&NodeReport) -> usize| streamed.iter().map(count).sum::<usize>();
        assert_eq!(
            (quiet.generated, quiet.delivered),
            (
                sum(|r| r.generated.len()) as u64,
                sum(|r| r.delivered.len()) as u64
            )
        );
        let verdict = reconcile(streamed);
        assert!(verdict.clean(), "{:?}", verdict.violations);
        assert_eq!((verdict.generated, verdict.exactly_once), (40, 40));
        // A delta rides behind its status line, never ahead of it: on the
        // pipe that carries the group's lines, each `gen` follows one.
        let lines = rig.lines(0);
        let deltas = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with(b"gen"));
        for (i, _) in deltas {
            assert!(i > 0 && lines[i - 1].starts_with(b"status "), "line {i}");
        }

        let before: Vec<usize> = rig.heard.iter().map(Vec::len).collect();
        for s in &mut rig.supervisor {
            writeln!(s, "stop").unwrap();
        }
        while rig.groups[0].live() {
            rig.turn();
        }
        assert!(rig.groups[0]
            .results
            .iter()
            .all(|r| matches!(r, Some(Ok(())))));
        for (p, from) in before.into_iter().enumerate() {
            let text = String::from_utf8_lossy(&rig.heard[p][from..]).into_owned();
            let block = text.split_once("report ").expect("a report block").1;
            assert!(block.contains("\ngen\ndel\nheld"), "node {p}: {block}");
        }
    }

    /// Same address, same stream: each group of the split holds one
    /// listener, one out-stream — to the other — and the one stream it
    /// accepted, and a turn writes its stream at most once and reads at
    /// most once, whatever the frames it carries.
    #[test]
    fn a_turn_flushes_each_stream_once() {
        let mut rig = split_rig("once", 1_000_000);
        let mut turns = 0u64;
        rig.turn_until(3_000, &mut |_| turns += 1);
        let sent: u64 = rig.nodes().map(|n| n.counters.frames_sent).sum();
        assert!(sent >= 6_000, "{sent} frames");
        for (g, group) in rig.groups.iter().enumerate() {
            assert_eq!(
                group.hub.shape(),
                (1, 1),
                "group {g}: (out-streams, accepted)"
            );
            let io = group.hub.stats();
            assert!(
                io.write_syscalls > 0 && io.write_syscalls <= turns && io.read_syscalls <= turns,
                "group {g}: {} writes and {} reads in {turns} turns",
                io.write_syscalls,
                io.read_syscalls
            );
        }
    }

    /// A stream speaks only for links that end in this group and cross a
    /// socket: a `Route` to a node that is no member, a `Route` from a
    /// node that is no neighbour of its `dst`, a `Route` for a link the
    /// group carries in memory, and data before any `Route` each cost the
    /// stranger its connection — and nobody else anything.
    #[test]
    fn a_route_to_a_stranger_drops_the_connection() {
        use ssmfp_core::wire::encode_frame;
        use std::io::Read;
        let mut rig = split_rig("stranger", 1_000_000);
        rig.turn_until(30, &mut |_| {});
        let path = rig.groups[0]
            .hub
            .addr()
            .strip_prefix("uds:")
            .unwrap()
            .to_string();
        let data = msg_to_frame(&WireMsg::Dv { d: 0, dist: 1 });
        let connect = |frames: &[WireFrame]| {
            let mut bytes = Vec::new();
            frames.iter().for_each(|f| encode_frame(f, &mut bytes));
            let mut s = UnixStream::connect(&path).unwrap();
            s.write_all(&bytes).unwrap();
            s.set_nonblocking(true).unwrap();
            s
        };
        for (why, frames) in [
            ("no member", vec![WireFrame::Route { src: 0, dst: 9 }]),
            ("no neighbour", vec![WireFrame::Route { src: 3, dst: 0 }]),
            ("in memory", vec![WireFrame::Route { src: 0, dst: 1 }]),
            ("no route", vec![data]),
        ] {
            let mut stranger = connect(&frames);
            let hung_up = (0..10_000).any(|_| {
                rig.turn();
                matches!(stranger.read(&mut [0u8; 8]), Ok(0))
            });
            assert!(hung_up, "{why}: the connection stayed");
            assert_eq!(rig.groups[0].hub.shape(), (1, 1), "{why}");
        }
        // A link that does end here is taken, whoever dialled.
        let before = rig.node(1).counters.frames_received;
        let _neighbour = connect(&[WireFrame::Route { src: 2, dst: 1 }, data]);
        rig.turn_until(before + 30, &mut |_| {});
        assert_eq!(rig.groups[0].hub.shape(), (1, 2));
    }

    /// The stream across the split is cut mid-run: the write that finds
    /// out drops what it held, the stream redials — once: a redialled
    /// stream that did not open with a `Route` would be hung up on at its
    /// first frame, and redial again — retransmission recovers what the
    /// cut lost, and the run ends with every message delivered exactly
    /// once.
    #[test]
    fn a_cut_stream_redials_and_the_run_stays_clean() {
        let mut rig = split_rig("cut", 400);
        rig.turn_until(300, &mut |_| {});
        rig.groups[1].hub.cut_stream_for_test(0);
        let quiet = |rig: &Rig| {
            rig.nodes()
                .all(|n| n.eng.done_issuing() && n.eng.fwd.is_idle())
        };
        let give_up = Instant::now() + Duration::from_secs(30);
        while !quiet(&rig) && Instant::now() < give_up {
            rig.turn();
        }
        assert!(quiet(&rig), "the run never drained");
        assert_eq!(rig.groups[1].hub.stats().reconnects, 1);
        for group in &rig.groups {
            assert_eq!(group.hub.shape(), (1, 1));
        }
        for s in &mut rig.supervisor {
            writeln!(s, "stop").unwrap();
        }
        while rig.groups.iter().any(Group::live) {
            rig.turn();
        }
        for group in &rig.groups {
            assert!(group.results.iter().all(|r| matches!(r, Some(Ok(())))));
        }
        let reports: Vec<NodeReport> = (0..4).map(|p| rig.folded(p)).collect();
        // Each group's socket accounting rides exactly one report.
        let carriers = reports.iter().filter(|r| r.counters.write_syscalls > 0);
        assert_eq!(carriers.count(), 2);
        let reconnects: u64 = reports.iter().map(|r| r.counters.reconnects).sum();
        let dropped: u64 = reports.iter().map(|r| r.counters.conn_frames_dropped).sum();
        assert_eq!(reconnects, 1);
        assert!(dropped >= 1, "the cut lost nothing");
        let verdict = reconcile(reports);
        assert!(verdict.clean(), "{:?}", verdict.violations);
        assert_eq!(verdict.generated, 800, "400 primaries, 400 acks");
        assert_eq!(verdict.exactly_once, verdict.generated);
        for lead in ["node0.sock", "node2.sock"] {
            assert!(!rig.dir.join(lead).exists(), "{lead} was not unlinked");
        }
    }

    /// A wait that cannot work ends the group instead of spinning it:
    /// every live member's outcome is the error, and dropping the members
    /// closed their control pipes.
    #[test]
    fn a_broken_poller_fails_every_member() {
        use std::io::Read;
        let mut rig = Rig::new("broken", &[4], 0, 1_000_000, [0, 1]);
        rig.turn_until(30, &mut |_| {});
        let group = &mut rig.groups[0];
        group.poller.break_for_test();
        group.turn();
        assert!(!group.live());
        for r in &group.results {
            assert!(matches!(r, Some(Err(_))), "outcome {r:?}");
        }
        for s in &mut rig.supervisor {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut rest = Vec::new();
            s.read_to_end(&mut rest).expect("EOF, not a timeout");
        }
    }
}
