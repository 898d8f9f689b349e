//! The links of a node group.
//!
//! The links belong to the *group* — the nodes that share a thread —
//! not to the node. A `Hub` owns them: one between two members is a
//! bounded queue in memory, the rest ride a listener (if anyone outside
//! can dial it), one simplex out-stream per distinct listener address
//! and the streams dialled in. The hub owns neither the thread, the
//! readiness set nor the clock: the group (`crate::group`) owns one
//! [`Poller`] — a persistent, level-triggered `epoll` set, in
//! `crate::poller` with the crate's other syscalls — and reads its
//! clock — `monotonic_us` in a run — twice a turn that waits, once a turn
//! that only sweeps its members, and hands the reading down.
//!
//! A link is the paper's logical FIFO channel, not a kernel connection:
//! to a member, `Hub::send` pushes the frame into its inbox — no
//! encode, no syscall — and every link whose far end listens at one
//! address rides the one stream to that address, where a
//! `WireFrame::Route { src, dst }` says which link the frames after it
//! crossed. A shard touches sockets only for edges that leave it, on a
//! thread or in its worker process; a shard of one node, whose every
//! neighbour has an address of its own, has one stream per directed edge
//! by the same rule.
//!
//! Registration follows an fd's life, not the loop's iteration: the
//! control pipe and the listener once, when the group comes up; an inbound
//! connection when `accept` returns it; an out-stream, for writability,
//! only from the `WouldBlock` that left bytes in its [`WriteBuf`] until
//! the flush that empties it; and nothing on close — closing the only
//! descriptor removes it (see [`Poller`]). `Hub::prepare` flushes each
//! stream once, fires due heartbeats and dials and returns the nearest
//! socket deadline; the thread sleeps exactly (`epoll_pwait2`, ns
//! resolution) until that or the nearest deadline of any member — a status
//! push, a workload arrival, or the protocol tick while a retransmission
//! timer runs — and `Hub::dispatch` reads the fds the wait named,
//! nothing else. No frame crosses a thread boundary: outbound ones append
//! to a stream's buffer or a member's inbox, and inbound ones surface in
//! one plain vector per member, which the member drains when stepped.
//!
//! ## Batching policy
//!
//! Outbound frames append straight into a per-stream [`WriteBuf`]
//! (length-prefixed wire bytes, no intermediate `Vec` per frame) and one
//! `write()` a turn ships everything pending, whichever links it belongs
//! to. Under load the members' outboxes drain in bursts and frames
//! coalesce further, bounded by the [`TUNING`] byte/frame budgets
//! (`batch_max_bytes`, `batch_max_frames`), at which a stream is flushed
//! mid-turn. The buffer never reallocates in steady state: it is
//! pre-sized to the batch budget and `consume` recycles capacity.
//!
//! Per-directed-edge FIFO ordering is preserved under sharing and
//! coalescing: the protocol enqueues a link's frames in send order, they
//! append to one stream's buffer in that order, and a buffer is always
//! written front-to-back — sharing and coalescing change which bytes sit
//! between two frames of a link and where the syscall boundaries fall,
//! never the order of a link's frames. An in-memory link pushes onto an
//! inbox that is drained front to back: the same argument, no bytes.
//!
//! ## Failure policy
//!
//! A stream that errors drops its buffered bytes (a counted burst of wire
//! drops on every link it carried — a partially-written frame cannot be
//! resumed on a new connection, and the protocol's retransmission
//! recovers), forgets its `Route`, then redials with the shared backoff
//! schedule. A reader drops a connection that names a link that does not
//! end here. A peer that stops reading cannot grow the buffer past
//! `out_buf_cap_bytes`: beyond it, new frames for that stream are shed
//! and counted.

use crate::node::ListenSpec;
use crate::telemetry::LogHistogram;
use crate::tuning::TUNING;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::wire::{encode_frame, FrameReader, WireFrame, MAX_FRAME_LEN};
use ssmfp_topology::NodeId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

pub(crate) use crate::poller::monotonic_us;
pub use crate::poller::{raise_nofile_limit, Poller, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// One stream socket of either flavour, with raw-fd access for the poll
/// set. (The PR-5 plane erased streams to `Box<dyn Read>`, which made
/// readiness multiplexing impossible.)
pub enum NetStream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream (Nagle disabled by [`dial`]/[`NetListener::accept`]).
    Tcp(TcpStream),
}

impl NetStream {
    /// The raw fd, for poll registration.
    pub fn fd(&self) -> RawFd {
        match self {
            NetStream::Unix(s) => s.as_raw_fd(),
            NetStream::Tcp(s) => s.as_raw_fd(),
        }
    }

    /// Toggles nonblocking mode.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            NetStream::Unix(s) => s.set_nonblocking(nb),
            NetStream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.read(buf),
            NetStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Unix(s) => s.write(buf),
            NetStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Unix(s) => s.flush(),
            NetStream::Tcp(s) => s.flush(),
        }
    }
}

/// A group's listener of either flavour (always nonblocking).
pub enum NetListener {
    /// Unix-domain listener at `<dir>/node<k>.sock`, `k` the group's
    /// first member.
    Unix(UnixListener),
    /// TCP listener on `127.0.0.1`, OS-assigned port.
    Tcp(TcpListener),
}

impl NetListener {
    /// Binds per `spec` and returns the listener plus its dialable
    /// address string (`uds:<path>` / `tcp:<addr>`).
    pub fn bind(spec: &ListenSpec, node: NodeId) -> io::Result<(Self, String)> {
        match spec {
            ListenSpec::Uds { dir } => {
                let path = dir.join(format!("node{node}.sock"));
                let _ = std::fs::remove_file(&path);
                let l = UnixListener::bind(&path)?;
                l.set_nonblocking(true)?;
                Ok((NetListener::Unix(l), format!("uds:{}", path.display())))
            }
            ListenSpec::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                l.set_nonblocking(true)?;
                let addr = l.local_addr()?;
                Ok((NetListener::Tcp(l), format!("tcp:{addr}")))
            }
        }
    }

    /// The raw fd, for poll registration.
    pub fn fd(&self) -> RawFd {
        match self {
            NetListener::Unix(l) => l.as_raw_fd(),
            NetListener::Tcp(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one connection (nonblocking: `WouldBlock` when none).
    /// The accepted stream inherits nonblocking off; callers pick.
    pub fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(NetStream::Unix(s))
            }
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(NetStream::Tcp(s))
            }
        }
    }
}

/// Dials a `uds:<path>` / `tcp:<addr>` address string. A dial must never
/// wait on an accept only a thread busy dialling can perform — every
/// group dials from the `crate::group::run_group` loop that also accepts.
/// A Unix-domain connect completes while the listener's backlog has room,
/// and std listens with `somaxconn` (4096 here). std's TCP backlog is 128
/// (a 200-leaf star at `--shards 200` dials its hub past it);
/// past it the kernel drops the SYN and a blocking connect sits out a 1 s
/// retransmission — one a hub stuck in a dial never answers — so the TCP arm
/// is bounded by the backoff base and a timeout is an ordinary failed
/// dial: back off, redial after the listener's next dispatch has accepted.
pub fn dial(addr: &str) -> io::Result<NetStream> {
    let bad = || {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("bad peer address {addr:?}"),
        )
    };
    if let Some(path) = addr.strip_prefix("uds:") {
        Ok(NetStream::Unix(UnixStream::connect(path)?))
    } else if let Some(sock) = addr.strip_prefix("tcp:") {
        let sock: SocketAddr = sock.parse().map_err(|_| bad())?;
        let s = TcpStream::connect_timeout(&sock, Duration::from_millis(TUNING.backoff_base_ms))?;
        let _ = s.set_nodelay(true);
        Ok(NetStream::Tcp(s))
    } else {
        Err(bad())
    }
}

/// A per-stream outbound byte buffer: frames are encoded straight
/// into it (append-only, front-to-back writes), so the hot path performs
/// no per-frame allocation and one `write()` can carry a whole batch.
pub struct WriteBuf {
    buf: Vec<u8>,
    at: usize,
    frames: usize,
}

impl WriteBuf {
    /// An empty buffer pre-sized so the steady-state batch never grows it.
    pub fn with_capacity(cap: usize) -> Self {
        WriteBuf {
            buf: Vec::with_capacity(cap),
            at: 0,
            frames: 0,
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.at == self.buf.len()
    }

    /// Bytes pending (encoded but not yet written).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Frames appended since the buffer was last empty.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Encodes `frame` in place (no intermediate buffer).
    pub fn push_frame(&mut self, frame: &WireFrame) {
        encode_frame(frame, &mut self.buf);
        self.frames += 1;
    }

    /// Encodes a supervision frame — a `Route` that labels what follows, a
    /// heartbeat: it rides the next write, but is no part of the batch a
    /// completed write reports or a dying connection loses.
    pub fn push_mark(&mut self, frame: &WireFrame) {
        encode_frame(frame, &mut self.buf);
    }

    /// The pending byte range, for `write()`.
    pub fn pending_bytes(&self) -> &[u8] {
        &self.buf[self.at..]
    }

    /// Consumes `k` written bytes. Returns `Some(frames)` when the write
    /// emptied the buffer (the completed batch size, for the histogram)
    /// and recycles capacity; `None` while bytes remain.
    pub fn consume(&mut self, k: usize) -> Option<usize> {
        self.at += k;
        debug_assert!(self.at <= self.buf.len());
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
            let batch = self.frames;
            self.frames = 0;
            Some(batch)
        } else {
            None
        }
    }

    /// Drops everything pending (connection died). Returns the frame
    /// count lost, for the wire-drop counters.
    pub fn reset(&mut self) -> usize {
        self.buf.clear();
        self.at = 0;
        std::mem::take(&mut self.frames)
    }

    /// Current heap capacity (for the no-realloc assertions).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Current heap base pointer (for the no-realloc assertions).
    pub fn as_ptr(&self) -> *const u8 {
        self.buf.as_ptr()
    }
}

/// Counters and the frames-per-write histogram a group's `Hub`
/// accumulates over all its streams, folded into the
/// [`crate::telemetry::NodeCounters`] of the member that retires last.
#[derive(Debug, Default)]
pub struct IoStats {
    /// `write()` syscalls issued on data connections.
    pub write_syscalls: u64,
    /// `read()` syscalls that returned data.
    pub read_syscalls: u64,
    /// Heartbeats written on idle streams.
    pub heartbeats: u64,
    /// Successful re-dials beyond the first connection per stream.
    pub reconnects: u64,
    /// Frames lost with a dying connection or shed at the out-buffer
    /// cap — wire drops the protocol's retransmission tolerates.
    pub conn_frames_dropped: u64,
    /// Frames per buffer-emptying `write()`, supervision frames not
    /// counted (the coalescing win, observable rather than inferred).
    pub batch: LogHistogram,
    /// The group's [`Poller::wait`] calls, which the group counts itself:
    /// the hub never waits on the group's set.
    pub waits: u64,
}

/// Worst-case encoded frame size (length prefix + body), the margin the
/// out-buffer cap check leaves before appending.
const FRAME_MAX: usize = 4 + MAX_FRAME_LEN as usize;

/// The owner half of the [`Poller::token`] of every fd a [`Hub`]
/// registers.
pub(crate) const HUB: usize = u32::MAX as usize;

/// [`Hub::index_of`]'s "no member has this id".
const NOBODY: u32 = u32::MAX;

/// Encoded size of a `Route` (length prefix, tag, two ids).
const ROUTE_LEN: usize = 4 + 1 + 2 + 2;

/// An idle stream's heartbeat period, µs.
const HEARTBEAT_US: u64 = TUNING.heartbeat_ms * 1_000;

/// The address a group with no neighbour outside it reports; none dials it.
const UNLISTENED: &str = "unlistened";

/// One simplex stream out of the group, to one listener address: every
/// link from a member to a node listening there rides it.
struct OutStream {
    addr: String,
    stream: Option<NetStream>,
    out: WriteBuf,
    /// The link the last `Route` in `out` — or already on the wire — named.
    /// `None` on a connection that has carried nothing yet.
    route: Option<(u16, u16)>,
    /// Dial attempts this connection session (resets on success).
    attempt: u32,
    /// A dial has succeeded before: the next one that does is a reconnect.
    connected: bool,
    /// Next dial deadline (µs) while disconnected.
    next_dial: u64,
    /// The stream gave up redialing (peer gone for good / shutdown race).
    dead: bool,
    /// When (µs) it last wrote, or queued a heartbeat behind a full socket.
    last_write: u64,
    hb_clock: u64,
    /// The stream sits in the thread's [`Poller`] for writability: a
    /// `WouldBlock` left bytes in `out` and no flush has emptied it since.
    blocked: bool,
}

/// One accepted stream: read-only, and it says itself whose frames it
/// carries.
struct InConn {
    stream: NetStream,
    reader: FrameReader,
    /// The receiving member (group index) and the sender's local port
    /// there, as the last `Route` resolved.
    route: Option<(usize, usize)>,
}

/// Where a member's link goes: into member `.0`'s inbox as its local port
/// `.1`, or onto an out-stream.
#[derive(Clone, Copy)]
enum Link {
    Local(usize, usize),
    Stream(usize),
}

/// What the [`Hub`] knows of one member of its group.
struct Member {
    id: NodeId,
    /// The member's neighbours in local-port order.
    neighbors: Vec<NodeId>,
    /// By local port, where that neighbour's link goes (empty until the
    /// `peers` line).
    links: Vec<Link>,
    /// Data-plane frames that arrived since the member last drained, by
    /// the sender's local port.
    inbound: Vec<(usize, WireFrame)>,
    /// By local port, the frames of `inbound` an in-memory link brought.
    queued: Vec<usize>,
}

/// The links of one group — of every node that shares a data thread: in
/// memory between two members, and otherwise over **one** listener
/// (bound only if a member has a neighbour outside the group), whose
/// address every member reports as its own, one simplex out-stream per
/// *distinct address* among the members' outside neighbours, and whatever
/// streams other groups dialled in. "Same address, same stream" is the
/// only rule: a group of one whose neighbours each listen for themselves
/// (`--shards n`) has one stream per directed edge, a shard one to each
/// shard it borders.
///
/// Which link a run of frames crossed is said in-band: a
/// `WireFrame::Route { src, dst }` goes into the stream's [`WriteBuf`]
/// whenever the link changes, and the reader remembers the last one per
/// connection. Frames of one link are appended in send order to one
/// buffer that is written front to back, so per-link FIFO is the byte
/// order of the stream.
///
/// `crate::group::run_group` calls [`Hub::prepare`] once a turn — every
/// stream flushed **once** — waits, hands [`Hub::dispatch`] the events
/// under the [`HUB`] token, steps the members whose [`Hub::inbound`]
/// filled, and puts what each step sent through [`Hub::send`]. A hub that
/// is [`Hub::memory_only`] has no fd in the set, so while an inbox holds
/// frames the group skips the first three and only steps and sends, up to
/// its keep-alive. Every deadline and `now` is µs on the group's
/// clock, handed down by the thread's loop: only [`Hub::shutdown`], whose
/// flush really waits, reads [`monotonic_us`] itself.
pub(crate) struct Hub {
    /// The listener and its dialable address (`uds:<path>` / `tcp:<addr>`).
    listener: Option<(NetListener, String)>,
    /// The id heartbeats carry: the group's first member.
    lead: NodeId,
    /// By group index.
    members: Vec<Member>,
    /// Node id → group index ([`NOBODY`] for everyone else): a `Route`
    /// resolves with one load.
    index_of: Vec<u32>,
    streams: Vec<OutStream>,
    conns: Vec<InConn>,
    rng: ChaCha8Rng,
    scratch: Vec<u8>,
    stats: IoStats,
}

impl Hub {
    /// Binds the group's listener per `listen` (named after `lead`), if
    /// any, and registers it with `poller` for the group's whole life;
    /// `members` seats, all empty until [`Hub::join`].
    pub fn new(
        listen: Option<&ListenSpec>,
        lead: NodeId,
        members: usize,
        seed: u64,
        poller: &Poller,
    ) -> io::Result<Self> {
        let listener = listen.map(|l| NetListener::bind(l, lead)).transpose()?;
        if let Some((l, _)) = &listener {
            poller.add(l.fd(), POLLIN, Poller::token(HUB, l.fd()))?;
        }
        Ok(Hub {
            listener,
            lead,
            members: (0..members)
                .map(|_| Member {
                    id: NodeId::MAX,
                    neighbors: Vec::new(),
                    links: Vec::new(),
                    inbound: Vec::new(),
                    queued: Vec::new(),
                })
                .collect(),
            index_of: Vec::new(),
            streams: Vec::new(),
            conns: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            scratch: vec![0u8; TUNING.io_read_chunk],
            stats: IoStats::default(),
        })
    }

    /// The address every member reports in its `ready` line.
    pub fn addr(&self) -> &str {
        self.listener.as_ref().map_or(UNLISTENED, |(_, addr)| addr)
    }

    /// The group's I/O accounting so far.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Seats node `id` as member `index`: from here a `Route` may name it.
    pub fn join(&mut self, index: usize, id: NodeId, neighbors: Vec<NodeId>) {
        if self.index_of.len() <= id {
            self.index_of.resize(id + 1, NOBODY);
        }
        debug_assert_eq!(self.index_of[id], NOBODY, "node {id} joined twice");
        self.index_of[id] = index as u32;
        let m = &mut self.members[index];
        m.queued = vec![0; neighbors.len()];
        (m.id, m.neighbors) = (id, neighbors);
    }

    /// Wires member `index`'s links once the address of every node arrived
    /// over ctrl: a neighbour that is a member gets an in-memory link and
    /// no socket; every other neighbour's link rides the stream to that
    /// neighbour's address, opened here if it is the first. Dialing starts
    /// on the next `prepare`.
    pub fn connect_peers(&mut self, index: usize, addrs: &[&str]) {
        let p = self.members[index].id;
        let mut links = Vec::with_capacity(self.members[index].neighbors.len());
        for &q in &self.members[index].neighbors {
            if let Some(&j) = self.index_of.get(q).filter(|&&j| j != NOBODY) {
                let m = &self.members[j as usize];
                let port = m.neighbors.iter().position(|&r| r == p);
                links.push(Link::Local(j as usize, port.expect("an undirected edge")));
                continue;
            }
            let at = self.streams.iter().position(|s| s.addr == addrs[q]);
            links.push(Link::Stream(at.unwrap_or_else(|| {
                self.streams.push(OutStream {
                    addr: addrs[q].to_string(),
                    stream: None,
                    out: WriteBuf::with_capacity(TUNING.batch_max_bytes + ROUTE_LEN + FRAME_MAX),
                    route: None,
                    attempt: 0,
                    connected: false,
                    next_dial: 0,
                    dead: false,
                    last_write: 0,
                    hb_clock: 0,
                    blocked: false,
                });
                self.streams.len() - 1
            })));
        }
        self.members[index].links = links;
    }

    /// The frames that arrived for member `index` since it last drained.
    pub fn inbound(&mut self, index: usize) -> &mut Vec<(usize, WireFrame)> {
        &mut self.members[index].inbound
    }

    /// Whether every link is in memory: no listener, no out-stream and no
    /// accepted stream, so nothing of the hub's is in the thread's set.
    pub fn memory_only(&self) -> bool {
        self.listener.is_none() && self.streams.is_empty() && self.conns.is_empty()
    }

    /// Whether a frame still waits in a member's inbox or a stream's
    /// buffer.
    pub fn holds_frames(&self) -> bool {
        self.members.iter().any(|m| !m.inbound.is_empty())
            || self.streams.iter().any(|s| !s.out.is_empty())
    }

    /// Hands member `index` what arrived for it, emptying its links.
    pub fn drain_inbound(&mut self, index: usize) -> std::vec::Drain<'_, (usize, WireFrame)> {
        let m = &mut self.members[index];
        m.queued.fill(0);
        m.inbound.drain(..)
    }

    /// Enqueues one frame on the link from member `index` to its
    /// neighbour `to`: into a member's inbox, dropped (counted) past the
    /// `out_buf_cap_bytes / FRAME_MAX` undrained frames the stream cap
    /// holds; or appended to the stream's write buffer — behind a `Route`
    /// if the stream last spoke for another link — flushing at the batch
    /// budget and shedding (counted) at the hard cap.
    pub fn send(
        &mut self,
        index: usize,
        to: NodeId,
        frame: &WireFrame,
        now: u64,
        poller: &Poller,
    ) -> io::Result<()> {
        let m = &self.members[index];
        let link = m.neighbors.iter().position(|&q| q == to);
        let Some(&link) = link.and_then(|port| m.links.get(port)) else {
            debug_assert!(false, "send to non-neighbour {to}");
            return Ok(());
        };
        let edge = (m.id as u16, to as u16);
        let i = match link {
            Link::Stream(i) => i,
            Link::Local(j, port) => {
                let r = &mut self.members[j];
                if r.queued[port] >= TUNING.out_buf_cap_bytes / FRAME_MAX {
                    self.stats.conn_frames_dropped += 1;
                } else {
                    r.queued[port] += 1;
                    r.inbound.push((port, *frame));
                }
                return Ok(());
            }
        };
        let s = &self.streams[i];
        if s.dead {
            self.stats.conn_frames_dropped += 1;
            return Ok(());
        }
        if s.out.pending() >= TUNING.batch_max_bytes || s.out.frames() >= TUNING.batch_max_frames {
            self.flush_stream(i, now, poller)?;
        }
        let s = &mut self.streams[i];
        if s.out.pending() + ROUTE_LEN + FRAME_MAX > TUNING.out_buf_cap_bytes {
            // Congested or disconnected peer: bounded buffer, counted
            // wire drop, retransmission recovers.
            self.stats.conn_frames_dropped += 1;
            return Ok(());
        }
        if s.route != Some(edge) {
            s.out.push_mark(&WireFrame::Route {
                src: edge.0,
                dst: edge.1,
            });
            s.route = Some(edge);
        }
        s.out.push_frame(frame);
        Ok(())
    }

    /// The half of a turn before the wait: every stream that holds bytes
    /// is flushed — once — and due heartbeats and dials fire. Returns the
    /// latest the group's links let the thread sleep: the nearest heartbeat
    /// or dial, at most a heartbeat period, `now` while an inbox holds frames.
    pub fn prepare(&mut self, now: u64, poller: &Poller) -> io::Result<u64> {
        let idle = self.members.iter().all(|m| m.inbound.is_empty());
        let mut deadline = if idle { now + HEARTBEAT_US } else { now };
        for i in 0..self.streams.len() {
            if !self.streams[i].out.is_empty() {
                self.flush_stream(i, now, poller)?;
            }
            self.run_timer(i, now, poller)?;
            let s = &self.streams[i];
            if !s.dead {
                deadline = deadline.min(match &s.stream {
                    Some(_) => s.last_write + HEARTBEAT_US,
                    None => s.next_dial,
                });
            }
        }
        Ok(deadline)
    }

    /// The half after the wait: `events` are the `(fd, events)` pairs
    /// [`Poller::wait`] reported under the [`HUB`] token. Accepts on the
    /// listener, reads the connections they name — demultiplexing into the
    /// members' [`Hub::inbound`] — and retries a blocked write. An fd
    /// nothing here owns any more (closed earlier in this very call) is
    /// skipped, and a stale event on a reused number costs one
    /// `WouldBlock`: every data socket is nonblocking.
    pub fn dispatch(
        &mut self,
        now: u64,
        events: &[(RawFd, i16)],
        poller: &Poller,
    ) -> io::Result<()> {
        for &(fd, ev) in events {
            if self.listener.as_ref().is_some_and(|(l, _)| l.fd() == fd) {
                if ev & POLLIN != 0 {
                    self.accept_all(poller)?;
                }
            } else if let Some(i) = self.conns.iter().position(|c| c.stream.fd() == fd) {
                if !self.read_conn(i) {
                    // Dropping the stream closes the fd, which removes it.
                    self.conns.swap_remove(i);
                }
            } else if let Some(i) = self
                .streams
                .iter()
                .position(|s| s.blocked && s.stream.as_ref().is_some_and(|s| s.fd() == fd))
            {
                self.flush_stream(i, now, poller)?;
            }
        }
        Ok(())
    }

    /// Accepts every pending connection; each is registered for reading
    /// from here until it closes.
    fn accept_all(&mut self, poller: &Poller) -> io::Result<()> {
        // Any accept error ends the burst like `WouldBlock`: the listener
        // is level-triggered, so what is still pending comes back.
        while let Some(Ok(s)) = self.listener.as_ref().map(|(l, _)| l.accept()) {
            if s.set_nonblocking(true).is_ok() {
                poller.add(s.fd(), POLLIN, Poller::token(HUB, s.fd()))?;
                self.conns.push(InConn {
                    stream: s,
                    reader: FrameReader::new(),
                    route: None,
                });
            }
        }
        Ok(())
    }

    /// The group stops: keeps writing blocked buffers until everything
    /// pending drains or `io_flush_grace_ms` expires — undelivered frames,
    /// and frames no member drained, become counted wire drops — unlinks a
    /// Unix-domain listener, and hands over the group's I/O stats. A cold
    /// wait after the group has left its thread's loop, timed on
    /// [`monotonic_us`] because it really waits, on a set of its own that
    /// holds only the blocked streams: the group's would wake on every
    /// readable connection and its control pipe.
    pub fn shutdown(&mut self) -> IoStats {
        let deadline = monotonic_us() + TUNING.io_flush_grace_ms * 1_000;
        if let Ok(mut set) = Poller::new() {
            // Their writability registrations were in the group's set.
            self.streams.iter_mut().for_each(|s| s.blocked = false);
            loop {
                let now = monotonic_us();
                let flushed =
                    (0..self.streams.len()).try_for_each(|i| self.flush_stream(i, now, &set));
                let blocked = self.streams.iter().any(|s| s.blocked);
                if flushed.is_err() || !blocked || now >= deadline {
                    break;
                }
                let wait = Duration::from_micros(deadline - now);
                if set.wait(Some(wait)).is_err() {
                    break;
                }
            }
        }
        for s in &mut self.streams {
            self.stats.conn_frames_dropped += s.out.reset() as u64;
        }
        for m in &mut self.members {
            self.stats.conn_frames_dropped += std::mem::take(&mut m.inbound).len() as u64;
        }
        if let Some(path) = self.addr().strip_prefix("uds:") {
            let _ = std::fs::remove_file(path);
        }
        std::mem::take(&mut self.stats)
    }

    /// Writes as much of stream `i`'s buffer as its socket accepts, and
    /// keeps the stream's writability registration in step: in the set
    /// from the `WouldBlock` that left bytes behind to the flush that
    /// empties the buffer. A stream that died took its registration with
    /// it (close removes).
    fn flush_stream(&mut self, i: usize, now: u64, poller: &Poller) -> io::Result<()> {
        let s = &mut self.streams[i];
        Self::write_pending(s, &mut self.stats, now);
        let want = s.stream.is_some() && !s.out.is_empty();
        if want != s.blocked {
            if let Some(stream) = &s.stream {
                if want {
                    poller.add(stream.fd(), POLLOUT, Poller::token(HUB, stream.fd()))?;
                } else {
                    poller.del(stream.fd())?;
                }
            }
            s.blocked = want;
        }
        Ok(())
    }

    /// Writes as much of `s.out` as the socket accepts. On error the
    /// connection dies (buffered frames become counted wire drops — a
    /// partially written frame cannot be resumed on a new connection) and
    /// the stream redials immediately; whatever it carries next starts
    /// with a `Route`.
    fn write_pending(s: &mut OutStream, stats: &mut IoStats, now: u64) {
        let Some(stream) = &mut s.stream else { return };
        while !s.out.is_empty() {
            match stream.write(s.out.pending_bytes()) {
                Ok(0) => return Self::disconnect(s, stats, now),
                Ok(k) => {
                    stats.write_syscalls += 1;
                    s.last_write = now;
                    // A write of heartbeats alone is no batch.
                    if let Some(batch) = s.out.consume(k).filter(|&b| b > 0) {
                        stats.batch.record(batch as u64);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Self::disconnect(s, stats, now),
            }
        }
    }

    fn disconnect(s: &mut OutStream, stats: &mut IoStats, now: u64) {
        s.stream = None;
        stats.conn_frames_dropped += s.out.reset() as u64;
        s.route = None;
        s.attempt = 0;
        s.next_dial = now;
    }

    /// Fires stream `i`'s due dial or heartbeat.
    fn run_timer(&mut self, i: usize, now: u64, poller: &Poller) -> io::Result<()> {
        let s = &mut self.streams[i];
        if s.dead {
            return Ok(());
        }
        if s.stream.is_none() {
            if now < s.next_dial {
                return Ok(());
            }
            match dial(&s.addr).and_then(|stream| stream.set_nonblocking(true).map(|()| stream)) {
                Ok(stream) => {
                    self.stats.reconnects += std::mem::replace(&mut s.connected, true) as u64;
                    s.attempt = 0;
                    s.stream = Some(stream);
                    s.last_write = now;
                }
                Err(_) => {
                    s.attempt += 1;
                    if s.attempt > TUNING.max_dial_attempts {
                        s.dead = true;
                        self.stats.conn_frames_dropped += s.out.reset() as u64;
                        return Ok(());
                    }
                    let backoff = TUNING.backoff_ms(s.attempt);
                    let jitter = self.rng.gen_range(0..=backoff / 2);
                    s.next_dial = now + (backoff + jitter) * 1_000;
                    return Ok(());
                }
            }
        } else if now.saturating_sub(s.last_write) >= HEARTBEAT_US {
            s.hb_clock += 1;
            s.out.push_mark(&WireFrame::Heartbeat {
                node: self.lead as u16,
                clock: s.hb_clock,
            });
            // Behind a full socket too: one heartbeat a period, not one a
            // turn.
            s.last_write = now;
            self.stats.heartbeats += 1;
        } else {
            return Ok(());
        }
        // Freshly connected — what was buffered meanwhile starts with a
        // `Route` — or a heartbeat to ship.
        self.flush_stream(i, now, poller)
    }

    /// Drains one readable inbound connection into the members' inboxes.
    /// Returns false when the connection must be dropped: EOF, error,
    /// garbage, a `Route` that names a `dst` that is no member here or a
    /// `src` that is no neighbour of `dst` or is a member (that link is in
    /// memory), data before any `Route`. The dialer's write fails, it
    /// redials, and its first frame is a `Route`.
    fn read_conn(&mut self, i: usize) -> bool {
        let Hub {
            conns,
            members,
            index_of,
            scratch,
            stats,
            ..
        } = self;
        let conn = &mut conns[i];
        loop {
            let k = match conn.stream.read(scratch) {
                Ok(0) => return false,
                Ok(k) => k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            stats.read_syscalls += 1;
            conn.reader.extend(&scratch[..k]);
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(WireFrame::Route { src, dst })) => {
                        let member = match index_of.get(dst as usize) {
                            Some(&m) if m != NOBODY => m as usize,
                            _ => return false,
                        };
                        if index_of.get(src as usize).is_some_and(|&m| m != NOBODY) {
                            return false;
                        }
                        let neighbors = &members[member].neighbors;
                        let Some(port) = neighbors.iter().position(|&q| q == src as NodeId) else {
                            return false;
                        };
                        conn.route = Some((member, port));
                    }
                    // A heartbeat: the stream is alive, nobody is told.
                    Ok(Some(frame)) if !frame.is_data_plane() => {}
                    Ok(Some(frame)) => {
                        let Some((member, port)) = conn.route else {
                            return false;
                        };
                        members[member].inbound.push((port, frame));
                    }
                    Ok(None) => break,
                    Err(_) => return false, // garbage on the wire
                }
            }
            if k < scratch.len() {
                return true; // short read: socket drained
            }
        }
    }
}

#[cfg(test)]
impl Hub {
    /// `(out-streams, accepted connections)`.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.streams.len(), self.conns.len())
    }

    /// Shuts out-stream `i`'s socket down under the hub: the next write
    /// fails the way a reset connection would.
    pub(crate) fn cut_stream_for_test(&self, i: usize) {
        match self.streams[i].stream.as_ref().expect("connected") {
            NetStream::Unix(s) => s.shutdown(std::net::Shutdown::Both).unwrap(),
            NetStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both).unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::message::GhostId;
    use ssmfp_core::wire::WireMessage;

    fn data_frame(seq: u64) -> WireFrame {
        WireFrame::Offer {
            d: 4,
            msg: WireMessage {
                payload: seq,
                color: (seq % 3) as u8,
                ghost: GhostId::Valid(seq),
            },
            nonce: seq,
        }
    }

    /// The zero-realloc pin for the hot path: once warmed to the batch
    /// budget, encode/flush cycles never move or grow the buffer.
    #[test]
    fn steady_state_write_path_never_reallocs() {
        let mut wb = WriteBuf::with_capacity(TUNING.batch_max_bytes + FRAME_MAX);
        // Warm one full batch.
        let mut seq = 0u64;
        while wb.pending() < TUNING.batch_max_bytes {
            wb.push_frame(&data_frame(seq));
            seq += 1;
        }
        let batch_frames = wb.frames();
        assert!(batch_frames > 0);
        assert_eq!(wb.consume(wb.pending()), Some(batch_frames));
        let (ptr, cap) = (wb.as_ptr(), wb.capacity());
        // 200 steady-state batch cycles: same allocation throughout.
        for cycle in 0..200u64 {
            while wb.pending() < TUNING.batch_max_bytes {
                wb.push_frame(&data_frame(seq));
                seq += 1;
            }
            // Partial then completing writes both recycle in place.
            let half = wb.pending() / 2;
            assert_eq!(wb.consume(half), None);
            assert!(wb.consume(wb.pending()).is_some());
            assert_eq!(wb.as_ptr(), ptr, "hot path reallocated on cycle {cycle}");
            assert_eq!(wb.capacity(), cap, "hot path grew on cycle {cycle}");
        }
    }

    /// Frames-per-write accounting: a batch completed across partial
    /// writes is attributed once, with the full frame count.
    #[test]
    fn write_buf_counts_frames_per_completed_batch() {
        let mut wb = WriteBuf::with_capacity(4096);
        for seq in 0..10 {
            wb.push_frame(&data_frame(seq));
        }
        assert_eq!(wb.frames(), 10);
        let total = wb.pending();
        assert_eq!(wb.consume(total / 3), None);
        assert_eq!(wb.consume(total - total / 3), Some(10));
        assert!(wb.is_empty());
        assert_eq!(wb.frames(), 0);
    }

    #[test]
    fn reset_reports_dropped_frames() {
        let mut wb = WriteBuf::with_capacity(1024);
        for seq in 0..7 {
            wb.push_frame(&data_frame(seq));
        }
        assert_eq!(wb.reset(), 7);
        assert!(wb.is_empty());
        assert_eq!(wb.pending(), 0);
    }

    /// A `Route` rides the write but is no frame of the batch: not in the
    /// count a completed write reports, not in what a reset loses.
    #[test]
    fn a_mark_is_not_part_of_the_batch() {
        let mut wb = WriteBuf::with_capacity(1024);
        wb.push_mark(&WireFrame::Route { src: 0, dst: 1 });
        assert_eq!((wb.pending(), wb.frames()), (ROUTE_LEN, 0));
        wb.push_frame(&data_frame(1));
        wb.push_mark(&WireFrame::Route { src: 1, dst: 0 });
        wb.push_frame(&data_frame(2));
        assert_eq!(wb.consume(wb.pending()), Some(2));
        wb.push_mark(&WireFrame::Route { src: 0, dst: 1 });
        wb.push_frame(&data_frame(3));
        assert_eq!(wb.reset(), 1);
    }

    /// Reads `n` frames off a blocking stream (a frame that never comes is
    /// a failure, not a hang).
    fn read_frames(s: &mut UnixStream, n: usize) -> Vec<WireFrame> {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (mut reader, mut frames, mut buf) = (FrameReader::new(), Vec::new(), [0u8; 512]);
        while frames.len() < n {
            let k = s.read(&mut buf).expect("read");
            assert!(k > 0, "EOF after {frames:?}");
            reader.extend(&buf[..k]);
            while let Some(f) = reader.next_frame().expect("clean stream") {
                frames.push(f);
            }
        }
        frames
    }

    /// A hub of one member against a listener the test holds: the link's
    /// frames arrive behind one `Route`, a second link to the same address
    /// shares the stream behind its own, and a stream that was cut redials
    /// at once and opens with a `Route` again.
    #[test]
    fn a_stream_opens_with_a_route_and_again_after_a_redial() {
        let dir = std::env::temp_dir().join(format!("ssmfp-hub-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let far_path = dir.join("far.sock");
        let far = UnixListener::bind(&far_path).unwrap();
        let far_addr = format!("uds:{}", far_path.display());
        let poller = Poller::new().unwrap();
        let listen = ListenSpec::Uds { dir: dir.clone() };
        let mut hub = Hub::new(Some(&listen), 0, 1, 7, &poller).unwrap();
        hub.join(0, 0, vec![1, 2]);
        let now = monotonic_us();
        hub.connect_peers(0, &["", &far_addr, &far_addr]);
        assert_eq!(hub.shape(), (1, 0), "two neighbours, one address");
        let (to_1, to_2) = (
            WireFrame::Route { src: 0, dst: 1 },
            WireFrame::Route { src: 0, dst: 2 },
        );

        for (to, seq) in [(1, 1), (1, 2), (2, 3), (1, 4)] {
            hub.send(0, to, &data_frame(seq), now, &poller).unwrap();
        }
        hub.prepare(now, &poller).unwrap();
        let (mut conn, _) = far.accept().unwrap();
        let [d1, d2, d3, d4, d5, d6] = [1, 2, 3, 4, 5, 6].map(data_frame);
        assert_eq!(
            read_frames(&mut conn, 7),
            [to_1, d1, d2, to_2, d3, to_1, d4]
        );
        assert_eq!(hub.stats().write_syscalls, 1, "one flush for both links");

        // The write that meets the cut loses what it held; the redial is
        // in the same `prepare`.
        hub.cut_stream_for_test(0);
        hub.send(0, 1, &d5, now, &poller).unwrap();
        hub.prepare(now, &poller).unwrap();
        hub.send(0, 1, &d6, now, &poller).unwrap();
        hub.prepare(now, &poller).unwrap();
        let (mut conn, _) = far.accept().unwrap();
        assert_eq!(read_frames(&mut conn, 2), [to_1, d6]);
        // An idle stream's heartbeat is supervision: no batch of its own.
        hub.prepare(now + HEARTBEAT_US, &poller).unwrap();
        let beat = WireFrame::Heartbeat { node: 0, clock: 1 };
        assert_eq!(read_frames(&mut conn, 1), [beat]);
        let io = hub.shutdown();
        assert_eq!((io.reconnects, io.conn_frames_dropped), (1, 1));
        assert_eq!((io.batch.count(), io.batch.sum()), (2, 5), "d1–d4, d6");
        assert!(!dir.join("node0.sock").exists(), "shutdown unlinks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `line:4` as one group, member `p` node `p`: nobody outside it, so
    /// no listener, and every link in memory.
    fn line4_group(poller: &Poller) -> Hub {
        let mut hub = Hub::new(None, 0, 4, 7, poller).unwrap();
        for p in 0..4usize {
            let neighbors = [p.checked_sub(1), (p < 3).then_some(p + 1)];
            hub.join(p, p, neighbors.into_iter().flatten().collect());
        }
        for p in 0..4 {
            hub.connect_peers(p, &[UNLISTENED; 4]);
        }
        hub
    }

    /// Thousands of frames over the six links of a group: every one
    /// arrives, each link's in send order, and the group holds no socket
    /// and makes no `read` or `write`.
    #[test]
    fn a_same_group_link_never_touches_the_kernel() {
        let poller = Poller::new().unwrap();
        let mut hub = line4_group(&poller);
        assert_eq!(hub.addr(), UNLISTENED);
        let now = monotonic_us();
        // By `[from][to]`, the next sequence number a link sends and the
        // next its receiver expects.
        let (mut next_out, mut next_in) = ([[0u64; 4]; 4], [[0u64; 4]; 4]);
        let (mut sent, mut received) = (0u64, 0u64);
        for round in 0..500usize {
            for (p, next) in next_out.iter_mut().enumerate() {
                for q in [p.wrapping_sub(1), p + 1].into_iter().filter(|&q| q < 4) {
                    for _ in 0..=(round + p) % 3 {
                        hub.send(p, q, &data_frame(next[q]), now, &poller).unwrap();
                        next[q] += 1;
                        sent += 1;
                    }
                }
            }
            for q in (0..4).rev() {
                let neighbors = hub.members[q].neighbors.clone();
                for (port, frame) in hub.drain_inbound(q) {
                    let p = neighbors[port];
                    assert_eq!(frame, data_frame(next_in[p][q]), "link {p}→{q}");
                    next_in[p][q] += 1;
                    received += 1;
                }
            }
            hub.prepare(now, &poller).unwrap();
        }
        assert!(sent >= 5_000, "{sent} frames");
        assert_eq!(sent, received);
        assert_eq!(hub.shape(), (0, 0), "(out-streams, accepted)");
        let io = hub.shutdown();
        assert_eq!((io.write_syscalls, io.read_syscalls), (0, 0));
        assert_eq!(io.conn_frames_dropped, 0);
    }

    /// An in-memory link holds as many undrained frames as the stream cap
    /// would: past that a frame is a counted drop, another link into the
    /// same member has a bound of its own, and a drain frees the link.
    #[test]
    fn a_same_group_link_is_bounded_in_frames() {
        let poller = Poller::new().unwrap();
        let mut hub = line4_group(&poller);
        let (now, bound, k) = (monotonic_us(), TUNING.out_buf_cap_bytes / FRAME_MAX, 7);
        assert!(bound >= 1_000, "{bound}");
        for seq in 0..(bound + k) as u64 {
            hub.send(1, 2, &data_frame(seq), now, &poller).unwrap();
        }
        assert_eq!(hub.inbound(2).len(), bound);
        assert_eq!(hub.stats().conn_frames_dropped, k as u64);
        hub.send(3, 2, &data_frame(0), now, &poller).unwrap();
        assert_eq!(hub.inbound(2).len(), bound + 1);
        let kept: Vec<u64> = hub
            .drain_inbound(2)
            .filter_map(|(_, f)| match f {
                WireFrame::Offer { nonce, .. } => Some(nonce),
                _ => None,
            })
            .collect();
        assert!(
            kept[..bound].iter().copied().eq(0..bound as u64),
            "the first kept"
        );
        hub.send(1, 2, &data_frame(0), now, &poller).unwrap();
        assert_eq!(hub.inbound(2).len(), 1);
        assert_eq!(hub.stats().conn_frames_dropped, k as u64);
    }

    /// A group that stops with frames in its members' inboxes counts them
    /// as wire drops: every frame is delivered or counted.
    #[test]
    fn frames_no_member_drained_are_counted_drops_at_shutdown() {
        let poller = Poller::new().unwrap();
        let mut hub = line4_group(&poller);
        let now = monotonic_us();
        for seq in 0..10 {
            hub.send(0, 1, &data_frame(seq), now, &poller).unwrap();
            hub.send(2, 1, &data_frame(seq), now, &poller).unwrap();
        }
        hub.send(3, 2, &data_frame(0), now, &poller).unwrap();
        assert_eq!(hub.shutdown().conn_frames_dropped, 21);
        assert!(!hub.holds_frames());
    }
}
