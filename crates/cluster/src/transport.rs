//! [`PolledTransport`]: the cluster's shipped links behind the plain
//! [`Transport`] trait, so the shared exactly-once suite
//! (`ssmfp_mp::suite`) runs over the socket path that ships.

use crate::evloop::{raise_nofile_limit, Hub, Poller};
use crate::frame::{frame_to_msg, msg_to_frame};
use crate::node::ListenSpec;
use crate::orchestrator::shard_ranges;
use ssmfp_mp::{ChannelFaults, FaultClerk, LinkId, Transport, WireMsg};
use ssmfp_topology::Graph;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long [`Transport::busy_links`] waits for frames that have neither
/// arrived nor been dropped before it calls the links broken.
const PATIENCE: Duration = Duration::from_secs(10);

/// The nodes of a topology in groups, as data threads hold them: one
/// `Hub` per group, all on the calling thread and in one [`Poller`] (a
/// token names its fd; a hub's dispatch skips fds it does not own). So the
/// suite checks `Route` multiplexing, the per-stream shed, the redial that
/// resets the route and the in-memory link, and a framing or demultiplexing
/// bug is a protocol-level failure.
///
/// `send` is `Hub::send`. [`Transport::drive`] is a data thread's turn
/// without its members — `Hub::prepare`, a zero-timeout wait,
/// `Hub::dispatch` — and then every inbox drained by local port into
/// per-link queues, behind which the [`FaultClerk`] sits: the adversarial
/// scheduler meets frames buffered, in the kernel and undrained.
pub struct PolledTransport {
    graph: Graph,
    poller: Poller,
    hubs: Vec<Hub>,
    /// By node: its hub and its seat there.
    seat: Vec<(usize, usize)>,
    /// By node and local port (its sorted neighbour list), what arrived.
    queues: Vec<Vec<VecDeque<WireMsg>>>,
    clerk: Option<FaultClerk>,
    /// Frames handed to `send`, and frames that reached a queue.
    sent: u64,
    arrived: u64,
    /// Where the Unix-domain listeners are bound, removed on drop: tests
    /// in one process build transports in parallel.
    dir: PathBuf,
}

impl PolledTransport {
    /// Every node a group of its own, as `--node-worker` processes run:
    /// every link rides a Unix-domain stream of its own behind a `Route`.
    pub fn new(graph: &Graph) -> Self {
        Self::with_groups(graph, graph.n(), false)
    }

    /// The nodes in `groups` contiguous blocks of ids, as `--shards` cuts
    /// them — links inside a block in memory, the rest on one stream per
    /// ordered pair of blocks — listening on TCP if `tcp`.
    fn with_groups(graph: &Graph, groups: usize, tcp: bool) -> Self {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let id = INSTANCE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ssmfp-transport-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket directory");
        let listen = if tcp {
            ListenSpec::Tcp
        } else {
            ListenSpec::Uds { dir: dir.clone() }
        };
        let ranges = shard_ranges(graph.n(), groups);
        // The `epoll` set, a listener per group, and per directed edge at
        // most an out-stream and the stream it is accepted as.
        let open = std::fs::read_dir("/proc/self/fd").map_or(0, Iterator::count);
        raise_nofile_limit((open + 1 + ranges.len() + 4 * graph.edges().len()) as u64);

        let poller = Poller::new().expect("epoll set");
        let mut seat = vec![(0, 0); graph.n()];
        let mut hubs = Vec::with_capacity(ranges.len());
        for (g, r) in ranges.iter().enumerate() {
            let out = r
                .clone()
                .any(|p| graph.neighbors(p).iter().any(|q| !r.contains(q)));
            let hub = Hub::new(out.then_some(&listen), r.start, r.len(), g as u64, &poller);
            let mut hub = hub.expect("bind a group's listener");
            for (i, p) in r.clone().enumerate() {
                hub.join(i, p, graph.neighbors(p).to_vec());
                seat[p] = (g, i);
            }
            hubs.push(hub);
        }
        let addrs: Vec<String> = seat.iter().map(|&(g, _)| hubs[g].addr().into()).collect();
        let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
        for &(g, i) in &seat {
            hubs[g].connect_peers(i, &addrs, Instant::now());
        }
        PolledTransport {
            queues: (0..graph.n())
                .map(|p| vec![VecDeque::new(); graph.degree(p)])
                .collect(),
            graph: graph.clone(),
            poller,
            hubs,
            seat,
            clerk: None,
            sent: 0,
            arrived: 0,
            dir,
        }
    }

    /// `(frames flushed, write syscalls, read syscalls)` over every hub —
    /// the observability hook the coalescing test asserts against.
    pub fn io_counts(&self) -> (u64, u64, u64) {
        let sum = |f: fn(&Hub) -> u64| self.hubs.iter().map(f).sum();
        (
            sum(|h| h.stats().batch.sum()),
            sum(|h| h.stats().write_syscalls),
            sum(|h| h.stats().read_syscalls),
        )
    }

    /// Frames sent that have neither reached a queue nor been dropped by
    /// a hub (a counted drop is not in flight): in a write buffer, in the
    /// kernel, or in a reader not yet drained.
    fn unheard(&self) -> u64 {
        let dropped = self.hubs.iter().map(|h| h.stats().conn_frames_dropped);
        (self.sent - self.arrived).saturating_sub(dropped.sum())
    }

    /// One turn of every group's links, waiting at most `timeout` — less
    /// if a stream's dial or heartbeat is due sooner — then every inbox
    /// into the link queues.
    fn pump(&mut self, timeout: Duration) {
        let now = Instant::now();
        let mut wake = now + timeout;
        for hub in &mut self.hubs {
            wake = wake.min(hub.prepare(now, &self.poller).expect("hub flush"));
        }
        let ready = self.poller.wait(Some(wake.saturating_duration_since(now)));
        let ready = ready.expect("transport wait").iter();
        let events: Vec<_> = ready
            .map(|&(token, ev)| (Poller::untoken(token).1, ev))
            .collect();
        for hub in &mut self.hubs {
            hub.dispatch(Instant::now(), &events, &self.poller)
                .expect("hub read");
        }
        for (p, &(g, i)) in self.seat.iter().enumerate() {
            for (port, frame) in self.hubs[g].drain_inbound(i) {
                self.arrived += 1;
                self.queues[p][port].extend(frame_to_msg(&frame));
            }
        }
    }
}

impl Transport<WireMsg> for PolledTransport {
    fn send(&mut self, link: LinkId, msg: WireMsg) {
        let (g, i) = self.seat[link.from];
        assert!(
            self.graph.has_edge(link.from, link.to),
            "not a link: {link:?}"
        );
        self.sent += 1;
        let frame = msg_to_frame(&msg);
        (self.hubs[g].send(i, link.to, &frame, Instant::now(), &self.poller)).expect("hub send");
    }

    fn drive(&mut self) {
        self.pump(Duration::ZERO);
    }

    /// With nothing to deliver but frames on their way, waits for them:
    /// no busy link means nothing in flight.
    fn busy_links(&mut self, out: &mut Vec<LinkId>) {
        let give_up = Instant::now() + PATIENCE;
        while self.unheard() > 0 && self.queues.iter().flatten().all(VecDeque::is_empty) {
            assert!(
                Instant::now() < give_up,
                "frames neither arrived nor dropped"
            );
            self.pump(PATIENCE);
        }
        for (to, ports) in self.queues.iter().enumerate() {
            for (&from, q) in self.graph.neighbors(to).iter().zip(ports) {
                if !q.is_empty() {
                    out.push(LinkId { from, to });
                }
            }
        }
    }

    fn recv(&mut self, link: LinkId) -> Option<WireMsg> {
        let port = self.graph.neighbors(link.to).binary_search(&link.from);
        let q = &mut self.queues[link.to][port.expect("a link of the graph")];
        match &mut self.clerk {
            Some(clerk) => clerk.pull(q),
            None => Some(q.pop_front().expect("busy link")),
        }
    }

    fn in_flight(&self) -> usize {
        let queued: usize = self.queues.iter().flatten().map(VecDeque::len).sum();
        self.unheard() as usize + queued
    }

    fn set_faults(&mut self, faults: ChannelFaults) {
        self.clerk = Some(FaultClerk::new(faults));
    }

    fn faults_exhausted(&self) -> bool {
        self.clerk.as_ref().is_none_or(FaultClerk::exhausted)
    }

    fn fault_counts(&self) -> (u64, u64, u64) {
        self.clerk.as_ref().map_or((0, 0, 0), FaultClerk::counts)
    }
}

impl Drop for PolledTransport {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_mp::{suite, MpConfig, PortNetwork};
    use ssmfp_topology::gen;

    /// The same conformance suite `crates/mp` runs over its in-process
    /// channels, here over the shipped hub with every node a group of its
    /// own: every link a stream behind a `Route`.
    #[test]
    fn polled_transport_exactly_once_clean() {
        let outcome = suite::exactly_once_clean(PolledTransport::new, 0..3);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    #[test]
    fn polled_transport_exactly_once_under_faults() {
        let outcome = suite::exactly_once_under_faults(PolledTransport::new, 0..6);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    /// Each topology cut in two groups, as two shards run it: links inside
    /// a group in memory, and the crossing links sharing one stream each
    /// way (two of them on the ring and the caterpillar).
    fn split(graph: &Graph) -> PolledTransport {
        PolledTransport::with_groups(graph, 2, false)
    }

    #[test]
    fn split_groups_exactly_once_clean() {
        let outcome = suite::exactly_once_clean(split, 0..3);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    #[test]
    fn split_groups_exactly_once_under_faults() {
        let outcome = suite::exactly_once_under_faults(split, 0..6);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    #[test]
    fn tcp_streams_exactly_once_clean() {
        let outcome =
            suite::exactly_once_clean(|g| PolledTransport::with_groups(g, g.n(), true), 0..1);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    /// A stream is cut under a running network: the write that finds out
    /// drops what it held, the stream redials and opens with a `Route`
    /// again, retransmission recovers the loss, and every message still
    /// arrives exactly once.
    #[test]
    fn a_stream_cut_mid_run_redials_and_every_message_arrives_once() {
        let graph = gen::ring(5);
        let t = PolledTransport::new(&graph);
        let config = MpConfig {
            seed: 1,
            timeout_bias: 0.3,
        };
        let mut net = PortNetwork::with_transport(graph, config, t, false, 0, 0, 0);
        for k in 0..20 {
            for s in 0..5 {
                net.send(s, (s + 2) % 5, k);
            }
        }
        assert!(!net.run_to_quiescence(300), "cut before the run is over");
        net.net().transport().hubs[0].cut_stream_for_test(0);
        assert!(net.run_to_quiescence(800_000));
        let verdict = net.audit();
        assert!(verdict.clean(), "{:?}", verdict.violations);
        assert_eq!((verdict.generated, verdict.exactly_once), (100, 100));
        let hubs = &net.net().transport().hubs;
        let reconnects: u64 = hubs.iter().map(|h| h.stats().reconnects).sum();
        assert!(reconnects >= 1, "the cut stream never redialled");
    }

    /// Many sends followed by one `drive` must cross the socket in far
    /// fewer writes than frames — the coalescing contract itself.
    #[test]
    fn polled_transport_coalesces_frames_into_batched_writes() {
        let g = gen::line(2);
        let mut t = PolledTransport::new(&g);
        let link = LinkId { from: 0, to: 1 };
        for i in 0..64 {
            t.send(link, WireMsg::Dv { d: 1, dist: i });
        }
        assert_eq!(t.in_flight(), 64);
        t.drive();
        let (frames, writes, _) = t.io_counts();
        assert_eq!(frames, 64);
        assert!(
            writes * 8 <= frames,
            "expected >=8 frames/write, got {frames} frames in {writes} writes"
        );
        let mut busy = Vec::new();
        t.busy_links(&mut busy);
        assert_eq!(busy, vec![link]);
        for i in 0..64 {
            assert_eq!(t.recv(link), Some(WireMsg::Dv { d: 1, dist: i }));
        }
        assert_eq!(t.in_flight(), 0);
    }

    /// Unflushed frames count as in flight: the convergence detector must
    /// not declare quiescence while bytes sit in a coalescing buffer.
    #[test]
    fn polled_transport_counts_buffered_frames_in_flight() {
        let g = gen::line(2);
        let mut t = PolledTransport::new(&g);
        let link = LinkId { from: 0, to: 1 };
        t.send(link, WireMsg::Dv { d: 1, dist: 9 });
        // Not driven yet: the frame lives only in the write buffer.
        let (frames, _, _) = t.io_counts();
        assert_eq!(frames, 0);
        assert_eq!(t.in_flight(), 1);
    }
}
