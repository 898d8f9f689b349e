//! The single-thread layer replay of the traced run.
//!
//! The cluster itself cannot be timed layer by layer without instrumenting
//! it, which this change must not do. Instead the harness re-enacts one
//! workload on its own thread, calling each layer through the same public
//! functions `node_main` calls, with a span around every call:
//!
//! 1. **port** — the workload's message set (same `WorkloadGen` /
//!    `ClientMux`, same seed, fewer messages per source) is driven through
//!    `n` `MpForwarder::new_static` over in-memory per-link queues, by
//!    `node_main`'s firing rule: deliver everything that arrived, poll the
//!    workload, then `on_timeout` on every node that worked (and on every
//!    node at the 1 ms tick). Counts repeat exactly per seed. The replay's
//!    own ledgers must reconcile exactly-once.
//! 2. the captured `WireMsg` stream is pushed through **frame** → **wire**
//!    (each decode must give back the frame that was encoded) → the
//!    **chaos** shim, and through `PolledTransport` and `WriteBuf` for
//!    **evloop** (`NodeLoop` itself is `pub(crate)`).
//! 3. **net** (`MpNetwork::step`), **clients**, and **telemetry** are
//!    exercised alone.
//!
//! Calls that take tens of nanoseconds are timed 64 to a span, so the two
//! clock reads of a span do not drown them; `trace.span_overhead_ns` says
//! what a span costs.

use crate::procfs;
use crate::rep::node_ledger;
use crate::trace::{NameTotals, SpanId, Tracer};
use crate::workloads::Workload;
use ssmfp_cluster::chaos::InboundChaos;
use ssmfp_cluster::evloop::{raise_nofile_limit, WriteBuf};
use ssmfp_cluster::frame::{frame_to_msg, msg_to_frame, msg_to_frame_client};
use ssmfp_cluster::workload::{ack_payload, ghost_src, is_ack, Issue};
use ssmfp_cluster::{
    ChaosSpec, ClientMux, ClientSpec, LogHistogram, PolledTransport, WorkloadGen, WorkloadKind,
    WorkloadSpec, TUNING,
};
use ssmfp_core::wire::{encode_frame, FrameReader, WireFrame};
use ssmfp_core::{reconcile_ledgers, NodeLedger};
use ssmfp_mp::{
    ack_ghost_of, decode_client_ghost, LinkId, MpConfig, MpForwarder, MpGhost, MpNetwork, MpNode,
    Outbox, Transport, WireMsg,
};
use ssmfp_topology::{BfsTree, Graph, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Logical µs per replay round: about what one `node_main` iteration
/// takes under load, so open-loop arrivals spread over rounds as they
/// spread over iterations.
const ROUND_US: u64 = 100;
/// Rounds per protocol tick (`TUNING.tick_ms` = 1 ms).
const TICK_ROUNDS: u64 = 10;
/// A replay that has not drained by then is wedged.
const MAX_ROUNDS: u64 = 2_000_000;
/// `on_timeout` calls on the quiescent network after the replay, so the
/// idle-path cost has samples even when the run never idled.
const IDLE_TAIL_CALLS: usize = 2000;
/// Calls per span for the layers whose calls take tens of ns.
const BATCH: usize = 64;
/// Frames of the captured stream pushed through the codec, chaos and
/// evloop sections.
const STREAM_CAP: usize = 65_536;
/// Sessions in the table built to price `ClientMux::new` per session:
/// big enough that the table is a fresh mapping the resident set shows.
const BIG_MUX_SESSIONS: u64 = 1_000_000;

/// What the replay hands back.
#[derive(Debug, Default)]
pub struct LayerReplay {
    /// Traced per-layer metrics, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Correctness failures (roundtrip mismatch, replay ledger not
    /// exactly-once, transport reordering, …).
    pub errors: Vec<String>,
    /// Wall time of the whole replay, measured around it.
    pub wall_s: f64,
    /// Self seconds per layer over the replay's span tree.
    pub layer_self_s: BTreeMap<String, f64>,
}

fn ghost_key(g: MpGhost) -> u64 {
    match g {
        MpGhost::Valid(k) | MpGhost::Invalid(k) => k,
    }
}

/// The request id of a wire message: its message's ghost.
fn req_of(m: &WireMsg) -> u64 {
    match m {
        WireMsg::Offer { msg, .. }
        | WireMsg::Accept { msg, .. }
        | WireMsg::Confirm { msg, .. }
        | WireMsg::Deny { msg, .. } => ghost_key(msg.ghost),
        WireMsg::Dv { .. } => 0,
    }
}

/// One forwarder per node with BFS routing tables, as `node_main` builds
/// them (one tree per destination, shared by all nodes here).
fn forwarders(graph: &Graph, seed: u64) -> Vec<MpForwarder> {
    let n = graph.n();
    let trees: Vec<BfsTree> = (0..n).map(|d| BfsTree::new(graph, d)).collect();
    (0..n)
        .map(|p| {
            let table: Vec<NodeId> = (0..n)
                .map(|d| {
                    if p == d {
                        p
                    } else {
                        trees[d].parent(p).expect("connected topology")
                    }
                })
                .collect();
            MpForwarder::new_static(
                p,
                n,
                graph.max_degree() as u8,
                graph.neighbors(p).to_vec(),
                table,
                seed,
            )
        })
        .collect()
}

/// One node's ledger at the end of a replay.
fn ledger_of(p: NodeId, generated: &[(MpGhost, NodeId)], fwd: &MpForwarder) -> NodeLedger {
    node_ledger(p, generated, &fwd.delivered, &fwd.held_ghosts())
}

/// A node's traffic source: the two paths `node_main` branches between.
enum Source {
    Gen(WorkloadGen),
    Mux(ClientMux),
}

impl Source {
    /// The next message to send at `now_us`, if the discipline allows one.
    fn next_issue(&mut self, now_us: u64) -> Option<Issue> {
        match self {
            Source::Gen(g) => g.poll(now_us),
            Source::Mux(m) => m.next(now_us),
        }
    }

    /// Issues one loop iteration may take: the mux is cut at its send
    /// budget, the node-level generator polls until it says wait.
    fn issue_budget(&self) -> u32 {
        match self {
            Source::Gen(_) => u32::MAX,
            Source::Mux(_) => TUNING.client_send_budget,
        }
    }

    fn done_issuing(&self) -> bool {
        match self {
            Source::Gen(g) => g.done_issuing(),
            Source::Mux(m) => m.done_issuing(),
        }
    }
}

/// What the port section captured.
struct PortReplay {
    /// Every wire message sent, in send order.
    stream: Vec<(LinkId, WireMsg)>,
    /// `stream` offsets at the end of each round.
    round_ends: Vec<usize>,
    /// Operations completed (delivered primaries / acked primaries).
    ops: u64,
    /// `on_timeout` calls during the run (the idle tail not counted).
    timeouts: u64,
}

fn port_section(
    w: &Workload,
    graph: &Graph,
    seed: u64,
    messages: u64,
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> PortReplay {
    let n = graph.n();
    let mut fwds = forwarders(graph, seed);
    let mut sources: Vec<Source> = (0..n)
        .map(|p| match w.client_spec(messages) {
            Some(spec) => Source::Mux(ClientMux::new(&spec, p, n, seed)),
            None => Source::Gen(WorkloadGen::new(w.node_spec(messages), p, n, seed)),
        })
        .collect();
    let mut gen_lists: Vec<Vec<(MpGhost, NodeId)>> = vec![Vec::new(); n];
    let mut seen = vec![0usize; n];
    let mut inbox: Vec<Vec<(NodeId, WireMsg)>> = vec![Vec::new(); n];
    let mut next_inbox = inbox.clone();
    let mut out: Outbox<WireMsg> = Outbox::new();
    let mut r = PortReplay {
        stream: Vec::new(),
        round_ends: Vec::new(),
        ops: 0,
        timeouts: 0,
    };

    let mut drained = false;
    for round in 0..MAX_ROUNDS {
        let now = round * ROUND_US;
        let tick = round % TICK_ROUNDS == 0;
        for p in 0..n {
            let mut worked = false;
            for (from, msg) in inbox[p].drain(..) {
                t.leaf("port.on_message", req_of(&msg), || {
                    fwds[p].on_message(from, msg, &mut out)
                });
                worked = true;
            }
            for _ in 0..sources[p].issue_budget() {
                let Some(issue) = sources[p].next_issue(now) else {
                    break;
                };
                t.leaf("port.enqueue_send", ghost_key(issue.ghost), || {
                    fwds[p].enqueue_send(issue.dest, issue.payload, issue.ghost)
                });
                gen_lists[p].push((issue.ghost, issue.dest));
                worked = true;
            }
            if worked || tick {
                let name = if worked {
                    "port.on_timeout_busy"
                } else {
                    "port.on_timeout_idle"
                };
                t.leaf(name, 0, || fwds[p].on_timeout(&mut out));
                r.timeouts += 1;
            }
            // Deliveries: acks close windows, primaries are answered —
            // the same bookkeeping `node_main` does after its timeout.
            while seen[p] < fwds[p].delivered_msgs.len() {
                let (ghost, payload) = fwds[p].delivered_msgs[seen[p]];
                seen[p] += 1;
                let ack = match &mut sources[p] {
                    Source::Mux(mux) => match decode_client_ghost(ghost) {
                        Some(parts) if parts.ack => {
                            mux.on_ack(parts, now);
                            None
                        }
                        Some(parts) => Some((parts.node, ack_ghost_of(ghost))),
                        None => None,
                    },
                    Source::Gen(gen) if is_ack(payload) => {
                        gen.on_ack();
                        None
                    }
                    Source::Gen(gen) => {
                        r.ops += 1;
                        Some((ghost_src(ghost), gen.next_ack_ghost()))
                    }
                };
                if let Some((src, ack_ghost)) = ack {
                    if src < n && src != p {
                        fwds[p].enqueue_send(src, ack_payload(now), ack_ghost);
                        gen_lists[p].push((ack_ghost, src));
                    }
                }
            }
            for (to, msg) in out.drain() {
                r.stream.push((LinkId { from: p, to }, msg));
                next_inbox[to].push((p, msg));
            }
        }
        std::mem::swap(&mut inbox, &mut next_inbox);
        r.round_ends.push(r.stream.len());
        let generated: usize = gen_lists.iter().map(Vec::len).sum();
        let delivered: usize = fwds.iter().map(|f| f.delivered.len()).sum();
        if generated == delivered
            && sources.iter().all(Source::done_issuing)
            && inbox.iter().all(Vec::is_empty)
            && fwds.iter().all(MpForwarder::is_idle)
        {
            drained = true;
            break;
        }
    }
    if !drained {
        errors.push(format!("port replay did not drain in {MAX_ROUNDS} rounds"));
    }
    if w.client_mode() {
        r.ops = sources
            .iter()
            .map(|s| match s {
                Source::Mux(m) => m.completed(),
                Source::Gen(_) => 0,
            })
            .sum();
    }

    // The replay is a run like any other: its ledgers must say
    // exactly-once, with nothing left in flight.
    let ledgers: Vec<NodeLedger> = (0..n)
        .map(|p| ledger_of(p, &gen_lists[p], &fwds[p]))
        .collect();
    let verdict = reconcile_ledgers(&ledgers);
    if !verdict.clean() || verdict.exactly_once != verdict.generated || verdict.generated == 0 {
        errors.push(format!(
            "port replay ledger is not exactly-once: {} generated, {} exactly once, {} violations",
            verdict.generated,
            verdict.exactly_once,
            verdict.violations.len()
        ));
    }

    for i in 0..IDLE_TAIL_CALLS {
        t.leaf("port.on_timeout_idle", 0, || {
            fwds[i % n].on_timeout(&mut out)
        });
    }
    if out.drain().count() != 0 {
        errors.push("a quiescent forwarder sent on timeout".into());
    }
    r
}

/// frame → wire → frame → msg over the captured stream, every step
/// checked against the step it inverts. Returns the frames and the bytes
/// per frame.
fn codec_section(
    w: &Workload,
    stream: &[(LinkId, WireMsg)],
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> (Vec<WireFrame>, f64) {
    let to_frame: fn(&WireMsg) -> WireFrame = if w.client_mode() {
        msg_to_frame_client
    } else {
        msg_to_frame
    };
    let mut frames: Vec<WireFrame> = Vec::with_capacity(stream.len());
    for chunk in stream.chunks(BATCH) {
        t.leaf("frame.to_frame", chunk.len() as u64, || {
            frames.extend(chunk.iter().map(|(_, m)| to_frame(m)))
        });
    }
    let mut bytes: Vec<u8> = Vec::new();
    let mut chunk_ends: Vec<usize> = Vec::new();
    for chunk in frames.chunks(BATCH) {
        t.leaf("wire.encode", chunk.len() as u64, || {
            for f in chunk {
                encode_frame(f, &mut bytes);
            }
        });
        chunk_ends.push(bytes.len());
    }
    let mut reader = FrameReader::new();
    let mut decoded: Vec<WireFrame> = Vec::with_capacity(frames.len());
    let mut at = 0usize;
    for (chunk, &end) in frames.chunks(BATCH).zip(&chunk_ends) {
        t.leaf("wire.decode", chunk.len() as u64, || {
            reader.extend(&bytes[at..end]);
            while let Ok(Some(f)) = reader.next_frame() {
                decoded.push(f);
            }
        });
        at = end;
    }
    if decoded != frames {
        errors.push("wire: decode(encode(frame)) != frame".into());
    }
    let mut back: Vec<Option<WireMsg>> = Vec::with_capacity(frames.len());
    for chunk in decoded.chunks(BATCH) {
        t.leaf("frame.to_msg", chunk.len() as u64, || {
            back.extend(chunk.iter().map(frame_to_msg))
        });
    }
    if !back
        .iter()
        .zip(stream)
        .all(|(b, (_, m))| b.as_ref() == Some(m))
        || back.len() != stream.len()
    {
        errors.push("frame: to_msg(to_frame(msg)) != msg".into());
    }
    let per_frame = bytes.len() as f64 / frames.len().max(1) as f64;
    (frames, per_frame)
}

/// The chaos shim on one link, first with no budget (the path every frame
/// of every run takes) and then at the CLI's budget of 2.
fn chaos_section(frames: &[WireFrame], seed: u64, t: &mut Tracer, errors: &mut Vec<String>) {
    for (name, faults) in [("chaos.shim", 0u32), ("chaos.shim_faulty", 2)] {
        let spec = ChaosSpec {
            seed,
            faults_per_link: faults,
            partition: None,
        };
        let mut shim = InboundChaos::new(&spec, 0, 1);
        let mut passed: Vec<WireFrame> = Vec::with_capacity(frames.len() + 2);
        for chunk in frames.chunks(BATCH) {
            t.leaf(name, chunk.len() as u64, || {
                for &f in chunk {
                    shim.push(f);
                }
                while let Some(f) = shim.poll() {
                    passed.push(f);
                }
            });
        }
        let (dropped, duplicated, _) = shim.fault_counts();
        if passed.len() as u64 != frames.len() as u64 - dropped + duplicated {
            errors.push(format!("{name}: frames in and out do not balance"));
        }
        if faults == 0 && passed != frames {
            errors.push("chaos.shim: a zero budget changed the stream".into());
        }
    }
}

/// The event loop's building blocks behind their public handles: the
/// stream crosses real socket pairs round by round through
/// `PolledTransport`, and `WriteBuf` takes the frames alone.
fn evloop_section(
    graph: &Graph,
    port: &PortReplay,
    frames: &[WireFrame],
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> (f64, f64) {
    raise_nofile_limit(4 * graph.edges().len() as u64 + 64);
    let mut pt = PolledTransport::new(graph);
    let mut expect: BTreeMap<(NodeId, NodeId), VecDeque<WireMsg>> = BTreeMap::new();
    let mut busy: Vec<LinkId> = Vec::new();
    let started = Instant::now();
    let mut from = 0usize;
    let mut sent = 0usize;
    'rounds: for &end in &port.round_ends {
        let end = end.min(frames.len());
        let batch = &port.stream[from..end];
        from = end;
        for &(link, msg) in batch {
            expect
                .entry((link.from, link.to))
                .or_default()
                .push_back(msg);
            t.leaf("evloop.polled_send", req_of(&msg), || pt.send(link, msg));
        }
        sent += batch.len();
        let mut spins = 0u32;
        while pt.in_flight() > 0 {
            t.leaf("evloop.polled_drive", 0, || pt.drive());
            busy.clear();
            t.leaf("evloop.polled_busy_links", 0, || pt.busy_links(&mut busy));
            for &link in &busy {
                let got = t.leaf("evloop.polled_recv", 0, || pt.recv(link));
                let want = expect
                    .get_mut(&(link.from, link.to))
                    .and_then(VecDeque::pop_front);
                if got.is_none() || got != want {
                    errors.push(format!("evloop: link {link:?} reordered or lost a frame"));
                    break 'rounds;
                }
            }
            spins += 1;
            if spins > 1_000_000 {
                errors.push("evloop: polled transport never drained".into());
                break 'rounds;
            }
        }
        if end == frames.len() {
            break;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let (flushed, writes, _reads) = pt.io_counts();
    if flushed != sent as u64 {
        errors.push(format!("evloop: {sent} frames sent, {flushed} flushed"));
    }
    drop(pt);

    let mut wb = WriteBuf::with_capacity(64 * 1024);
    for chunk in frames.chunks(BATCH) {
        t.leaf("evloop.writebuf_push", chunk.len() as u64, || {
            for f in chunk {
                wb.push_frame(f);
            }
        });
        let pending = wb.pending();
        wb.consume(pending);
    }
    (sent as f64 / wall, flushed as f64 / writes.max(1) as f64)
}

/// The simulator's scheduler over in-process channels: every node's
/// messages queued up front, then `MpNetwork::step` to quiescence.
fn net_section(
    graph: &Graph,
    seed: u64,
    messages: u64,
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let n = graph.n();
    let config = MpConfig {
        seed,
        ..MpConfig::default()
    };
    let mut net = MpNetwork::new(graph.clone(), forwarders(graph, seed), config);
    let all_at_once = WorkloadSpec {
        kind: WorkloadKind::Closed {
            outstanding: messages as u32,
        },
        messages,
    };
    let mut generated: Vec<Vec<(MpGhost, NodeId)>> = vec![Vec::new(); n];
    for (p, list) in generated.iter_mut().enumerate() {
        let mut gen = WorkloadGen::new(all_at_once, p, n, seed);
        while let Some(issue) = gen.poll(0) {
            net.node_mut(p)
                .enqueue_send(issue.dest, issue.payload, issue.ghost);
            list.push((issue.ghost, issue.dest));
        }
    }
    let max_steps = 50_000_000u64;
    loop {
        let id = t.begin("net.step", 0);
        let event = net.step();
        t.end(id);
        if event.is_none() {
            break;
        }
        if net.steps() >= max_steps {
            errors.push(format!("net: not quiescent after {max_steps} steps"));
            break;
        }
    }
    let ledgers: Vec<NodeLedger> = (0..n)
        .map(|p| ledger_of(p, &generated[p], net.node(p)))
        .collect();
    let verdict = reconcile_ledgers(&ledgers);
    if !verdict.clean() || verdict.exactly_once != n as u64 * messages {
        errors.push(format!(
            "net: {} of {} messages exactly once",
            verdict.exactly_once,
            n as u64 * messages
        ));
    }
    (net.steps(), verdict.exactly_once)
}

/// The client mux alone: what a session costs to create and to hold, and
/// what an issue and an ack cost.
fn clients_section(
    n: usize,
    seed: u64,
    big_sessions: u64,
    t: &mut Tracer,
    errors: &mut Vec<String>,
) -> (f64, f64) {
    // Node 0's share of `big_sessions × n` clients is `big_sessions`.
    let big = ClientSpec {
        clients: big_sessions * n as u64,
        load: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 1,
        },
        mutation: None,
    };
    let rss0 = procfs::rss_mb().unwrap_or(0.0);
    let id = t.begin("clients.new", big_sessions);
    let mux = ClientMux::new(&big, 0, n, seed);
    t.end(id);
    let rss1 = procfs::rss_mb().unwrap_or(0.0);
    let hosted = mux.hosted();
    drop(mux);
    let new_ns_per_session = t.duration_ns(id) as f64 / hosted.max(1) as f64;
    let bytes_per_session = (rss1 - rss0).max(0.0) * 1024.0 * 1024.0 / hosted.max(1) as f64;

    // Issue/ack cost on a 2000-session table, every issue acked 1 ms later.
    let spec = ClientSpec {
        clients: 2000 * n as u64,
        load: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 4,
        },
        mutation: None,
    };
    let mut mux = ClientMux::new(&spec, 0, n, seed);
    let mut now = 0u64;
    let mut pending = Vec::new();
    while !mux.done_issuing() {
        while let Some(issue) = t.leaf("clients.next", 0, || mux.next(now)) {
            pending.push(issue.ghost);
        }
        now += 1000;
        for ghost in pending.drain(..) {
            let parts = decode_client_ghost(ghost).expect("mux ghosts decode");
            t.leaf("clients.on_ack", ghost_key(ghost), || {
                mux.on_ack(parts, now)
            });
        }
    }
    if mux.completed() != mux.hosted() * 4 {
        errors.push("clients: the mux alone did not complete its quota".into());
    }
    (new_ns_per_session, bytes_per_session)
}

fn telemetry_section(seed: u64, t: &mut Tracer) {
    let mut state = seed | 1;
    let mut h = LogHistogram::new();
    for _ in 0..64 {
        let vals: Vec<u64> = (0..1024)
            .map(|_| {
                // xorshift: latencies spread over 1 µs … 1 s
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                1 + state % 1_000_000
            })
            .collect();
        t.leaf("telemetry.record", vals.len() as u64, || {
            for &v in &vals {
                h.record(v);
            }
        });
    }
    let mut acc = LogHistogram::new();
    for _ in 0..256 {
        t.leaf("telemetry.merge", 0, || acc.merge(&h));
    }
    std::hint::black_box(acc.count());
}

/// Mean duration per item of the spans named `name`: per span when each
/// span is one call, per `items` when calls were batched.
fn mean_ns(totals: &BTreeMap<&'static str, NameTotals>, name: &str, items: Option<u64>) -> f64 {
    totals.get(name).map_or(0.0, |v| {
        v.total_ns as f64 / items.unwrap_or(v.count).max(1) as f64
    })
}

/// Replays `w` at `seed` layer by layer. `small` shrinks every section
/// (the crate's smoke test); the numbers then mean nothing but are all
/// still produced.
pub fn layer_replay(w: &Workload, seed: u64, small: bool, t: &mut Tracer) -> LayerReplay {
    let mut out = LayerReplay::default();
    let graph = w.graph();
    let n = graph.n();
    let (messages, net_messages, big_sessions) = if small {
        (
            w.replay_messages.div_ceil(4),
            w.net_messages.div_ceil(4),
            20_000,
        )
    } else {
        (w.replay_messages, w.net_messages, BIG_MUX_SESSIONS)
    };

    let started = Instant::now();
    let root: SpanId = t.begin("harness.replay", seed);

    let id = t.begin("harness.replay_port", 0);
    let port = port_section(w, &graph, seed, messages, t, &mut out.errors);
    t.end(id);
    let stream = &port.stream[..port.stream.len().min(STREAM_CAP)];

    let id = t.begin("harness.replay_codec", 0);
    let (frames, bytes_per_frame) = codec_section(w, stream, t, &mut out.errors);
    t.end(id);

    let id = t.begin("harness.replay_chaos", 0);
    chaos_section(&frames, seed, t, &mut out.errors);
    t.end(id);

    let id = t.begin("harness.replay_evloop", 0);
    let (polled_per_s, polled_per_write) =
        evloop_section(&graph, &port, &frames, t, &mut out.errors);
    t.end(id);

    let id = t.begin("harness.replay_net", 0);
    let (net_steps, net_delivered) = net_section(&graph, seed, net_messages, t, &mut out.errors);
    t.end(id);

    let id = t.begin("harness.replay_clients", 0);
    let (new_ns, session_bytes) = clients_section(n, seed, big_sessions, t, &mut out.errors);
    t.end(id);

    let id = t.begin("harness.replay_telemetry", 0);
    telemetry_section(seed, t);
    for _ in 0..10_000 {
        t.leaf("trace.empty_span", 0, || ());
    }
    t.end(id);

    t.end(root);
    out.wall_s = started.elapsed().as_secs_f64();

    let totals = t.totals_under(root);
    for (name, v) in &totals {
        *out.layer_self_s
            .entry(crate::trace::layer_of(name).to_string())
            .or_default() += v.self_ns as f64 / 1e9;
    }
    let k = frames.len() as u64;
    let ops = port.ops.max(1) as f64;
    let port_self_ns: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("port."))
        .map(|(_, v)| v.self_ns)
        .sum();
    let v = &mut out.values;
    v.insert(
        "port.on_message_ns",
        mean_ns(&totals, "port.on_message", None),
    );
    v.insert(
        "port.on_timeout_idle_ns",
        mean_ns(&totals, "port.on_timeout_idle", None),
    );
    v.insert(
        "port.on_timeout_busy_ns",
        mean_ns(&totals, "port.on_timeout_busy", None),
    );
    v.insert(
        "port.enqueue_send_ns",
        mean_ns(&totals, "port.enqueue_send", None),
    );
    v.insert(
        "port.wire_msgs_per_delivery",
        port.stream.len() as f64 / ops,
    );
    v.insert("port.timeouts_per_delivery", port.timeouts as f64 / ops);
    v.insert(
        "port.deliveries_per_cpu_s",
        ops / (port_self_ns.max(1) as f64 / 1e9),
    );
    v.insert("net.step_ns", mean_ns(&totals, "net.step", None));
    v.insert(
        "net.steps_per_delivery",
        net_steps as f64 / net_delivered.max(1) as f64,
    );
    v.insert(
        "wire.encode_ns_per_frame",
        mean_ns(&totals, "wire.encode", Some(k)),
    );
    v.insert(
        "wire.decode_ns_per_frame",
        mean_ns(&totals, "wire.decode", Some(k)),
    );
    v.insert("wire.bytes_per_frame", bytes_per_frame);
    v.insert(
        "frame.to_frame_ns",
        mean_ns(&totals, "frame.to_frame", Some(k)),
    );
    v.insert("frame.to_msg_ns", mean_ns(&totals, "frame.to_msg", Some(k)));
    v.insert(
        "chaos.shim_ns_per_frame",
        mean_ns(&totals, "chaos.shim", Some(k)),
    );
    v.insert(
        "chaos.shim_faulty_ns_per_frame",
        mean_ns(&totals, "chaos.shim_faulty", Some(k)),
    );
    v.insert("evloop.polled_frames_per_s", polled_per_s);
    v.insert("evloop.polled_frames_per_write", polled_per_write);
    v.insert(
        "evloop.writebuf_push_ns",
        mean_ns(&totals, "evloop.writebuf_push", Some(k)),
    );
    v.insert("clients.new_ns_per_session", new_ns);
    v.insert("clients.bytes_per_session", session_bytes);
    v.insert(
        "clients.next_ns_per_issue",
        mean_ns(&totals, "clients.next", None),
    );
    v.insert(
        "clients.on_ack_ns",
        mean_ns(&totals, "clients.on_ack", None),
    );
    v.insert(
        "telemetry.record_ns",
        mean_ns(&totals, "telemetry.record", Some(64 * 1024)),
    );
    v.insert(
        "telemetry.merge_ns",
        mean_ns(&totals, "telemetry.merge", None),
    );
    v.insert(
        "trace.span_overhead_ns",
        mean_ns(&totals, "trace.empty_span", None),
    );
    let self_sum: f64 = out.layer_self_s.values().sum();
    v.insert("trace.replay_self_time_ratio", self_sum / out.wall_s);
    out
}
