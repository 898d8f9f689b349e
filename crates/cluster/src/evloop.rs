//! The readiness-based I/O machinery of a data thread.
//!
//! The links belong to the *group* — the nodes that share a thread —
//! not to the node. A `Hub` owns them: one between two members is a
//! bounded queue in memory, the rest ride a listener (if anyone outside
//! can dial it), one simplex out-stream per distinct listener address
//! and the streams dialled in; each member keeps only its `Control`
//! pipe. None of them owns the thread, the readiness set or the clock:
//! the `node.main` thread (`crate::node::run_nodes`) owns one
//! [`Poller`] — a persistent, level-triggered `epoll` set — for the whole
//! group, reads the monotonic clock twice a turn and hands the reading
//! down.
//!
//! A link is the paper's logical FIFO channel, not a kernel connection:
//! to a member, `Hub::send` pushes the frame into its inbox — no
//! encode, no syscall — and every link whose far end listens at one
//! address rides the one stream to that address, where a
//! `WireFrame::Route { src, dst }` says which link the frames after it
//! crossed. A shard touches sockets only for edges that leave it; a
//! `--node-worker` process, whose every neighbour has an address of its
//! own, has one stream per directed edge by the same rule.
//!
//! Registration follows an fd's life, not the loop's iteration: control
//! pipes and the listener once, when the group comes up; an inbound
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
//! [`Poller`] is the crate's one readiness wait: the cold ones — a shard
//! supervisor's pipes, a deadline-bounded control write, the shutdown
//! flush — hold a set of their own.
//!
//! **Platform floor:** `epoll_pwait2` needs Linux ≥ 5.11 and glibc ≥ 2.35.
//!
//! ## Batching policy
//!
//! Outbound frames append straight into a per-stream [`WriteBuf`]
//! (length-prefixed wire bytes, no intermediate `Vec` per frame) and one
//! `write()` a turn ships everything pending, whichever links it belongs
//! to. Under load the members' outboxes drain in bursts and frames
//! coalesce further, bounded by the [`ClusterTuning`] byte/frame budgets
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
//! ## Control pipe
//!
//! A member's ctrl fd sits in the same readiness set as the sockets.
//! Reads are *single-shot*: one `read(2)` per `POLLIN` readiness on a
//! blocking fd never blocks, and the level-triggered set reports anything
//! left unread again. This deliberately avoids `BufReader`, whose
//! invisible buffering holds complete lines where `poll` cannot see them.
//! Writes (status lines, the final report) are plain blocking
//! `write_all`: the supervising shard drains node pipes unconditionally,
//! and this edge is declared untimed in the concurrency model — it is the
//! one leaf-to-root arc of an acyclic control tree.
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
use crate::tuning::{ClusterTuning, TUNING};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::wire::{encode_frame, FrameReader, WireFrame, MAX_FRAME_LEN};
use ssmfp_topology::NodeId;
use std::fs::File;
use std::io::{self, Read, Write};
use std::mem::ManuallyDrop;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

/// Raw syscall bindings. The workspace vendors no `libc`, and the only
/// system interfaces the event loop needs are a handful of calls with a
/// stable, tiny ABI — so they are declared by hand for the Linux targets
/// the cluster runtime already assumes (Unix-domain sockets everywhere).
mod sys {
    /// `struct timespec` from `<time.h>` (both fields are `i64` on every
    /// 64-bit Linux target).
    #[repr(C)]
    #[allow(non_camel_case_types)]
    pub struct timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `struct rlimit` from `<sys/resource.h>` (`rlim_t` is `u64` on
    /// every 64-bit Linux target).
    #[repr(C)]
    #[derive(Clone, Copy)]
    #[allow(non_camel_case_types)]
    pub struct rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    /// `struct epoll_event` from `<sys/epoll.h>`: packed on x86-64 (12
    /// bytes, the kernel's 32-bit-compatible layout), naturally aligned
    /// everywhere else.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    #[allow(non_camel_case_types)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    /// `EPOLL_CLOEXEC` (= `O_CLOEXEC`) on Linux.
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// `epoll_ctl` operations.
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    /// `RLIMIT_NOFILE` on Linux.
    pub const RLIMIT_NOFILE: i32 = 7;
    /// `fcntl` get/set file-status-flags commands.
    pub const F_GETFL: i32 = 3;
    pub const F_SETFL: i32 = 4;
    /// `O_NONBLOCK` on Linux.
    pub const O_NONBLOCK: i32 = 0o4000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        /// `epoll_wait` with a `timespec` timeout (Linux ≥ 5.11, glibc ≥
        /// 2.35): a null `timeout` waits forever, a null `sigmask` leaves
        /// the signal mask alone.
        pub fn epoll_pwait2(
            epfd: i32,
            events: *mut epoll_event,
            maxevents: i32,
            timeout: *const timespec,
            sigmask: *const u8,
        ) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut rlimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const rlimit) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    }
}

/// Readable (data or EOF pending).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never asked for).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never asked for).
pub const POLLHUP: i16 = 0x010;

/// Best-effort raise of the soft `RLIMIT_NOFILE` toward `want` (capped
/// by the hard limit). An inproc 100-node grid holds both ends of every
/// data connection in one process — comfortably past the common 1024
/// default — so the orchestrator calls this before spawning anything.
/// Returns the resulting soft limit (0 if even `getrlimit` failed).
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut cur = sys::rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut cur) != 0 {
            return 0;
        }
        if cur.rlim_cur >= want {
            return cur.rlim_cur;
        }
        let target = want.min(cur.rlim_max);
        let raised = sys::rlimit {
            rlim_cur: target,
            rlim_max: cur.rlim_max,
        };
        if sys::setrlimit(sys::RLIMIT_NOFILE, &raised) == 0 {
            target
        } else {
            cur.rlim_cur
        }
    }
}

/// Toggles `O_NONBLOCK` on a raw fd — for pipe fds (child stdin/stdout)
/// that have no `set_nonblocking` in std.
pub fn set_nonblocking_fd(fd: RawFd, nb: bool) -> io::Result<()> {
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(io::Error::last_os_error());
        }
        let flags = if nb {
            flags | sys::O_NONBLOCK
        } else {
            flags & !sys::O_NONBLOCK
        };
        if sys::fcntl(fd, sys::F_SETFL, flags) < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

fn timespec_of(d: Duration) -> sys::timespec {
    sys::timespec {
        tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: d.subsec_nanos() as i64,
    }
}

/// How many ready fds one [`Poller::wait`] reports; the rest surface on the
/// next (the kernel serves its ready list round-robin).
const POLLER_EVENTS: usize = 64;

/// A persistent readiness set — a data thread's, a shard supervisor's, a
/// cold wait's: an `epoll` instance, level-triggered. A registration
/// follows its fd's life, not the loop's iteration — [`Poller::add`] when
/// the fd starts to matter, [`Poller::modify`] when its interest changes,
/// [`Poller::del`] when it stops, and *nothing* on close: the kernel drops
/// a registration when the last descriptor of its open file goes, and
/// nothing under `crates/cluster/src` dups a descriptor (no `try_clone`,
/// no `dup`; the sockets and the `epoll` fd itself are close-on-exec), so
/// closing the one fd is removing it. A wait costs what is *ready*, not
/// what is registered.
///
/// The timeout is a `timespec` (`epoll_pwait2`: Linux ≥ 5.11, glibc ≥
/// 2.35) because the deadlines are: an open-loop arrival 300 µs away is
/// not `epoll_wait`'s 1 ms.
pub struct Poller {
    epfd: OwnedFd,
    buf: [sys::epoll_event; POLLER_EVENTS],
    ready: Vec<(u64, i16)>,
}

impl Poller {
    /// A new, empty set.
    pub fn new() -> io::Result<Self> {
        // SAFETY: no pointers; the result is checked.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller {
            // SAFETY: a descriptor `epoll_create1` just returned, owned by
            // nobody else.
            epfd: unsafe { OwnedFd::from_raw_fd(epfd) },
            buf: [sys::epoll_event { events: 0, data: 0 }; POLLER_EVENTS],
            ready: Vec::with_capacity(POLLER_EVENTS),
        })
    }

    /// The token of `fd` as owned by member `owner` of the thread's group
    /// — or by the group's `Hub`, as `HUB`.
    pub fn token(owner: usize, fd: RawFd) -> u64 {
        (owner as u64) << 32 | fd as u32 as u64
    }

    /// `(owner, fd)` back out of a [`Poller::token`].
    pub fn untoken(token: u64) -> (usize, RawFd) {
        ((token >> 32) as usize, token as u32 as RawFd)
    }

    /// Registers `fd` for `interest` (`POLLIN` / `POLLOUT`; errors and
    /// hang-ups are always reported) until [`Poller::del`] or its close.
    /// Fails where the kernel refuses — `EPERM` for a regular file or
    /// `/dev/null`, `EEXIST` for an fd already in the set.
    pub fn add(&self, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Changes the interest of an fd already in the set — one fd that
    /// carries both directions toggles `POLLOUT` here.
    pub fn modify(&self, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes an fd that stays open (one that is closed is gone already).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: i16, token: u64) -> io::Result<()> {
        let mut ev = sys::epoll_event {
            events: interest as u16 as u32,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` the kernel only reads
        // (`EPOLL_CTL_DEL` ignores it).
        if unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Blocks until a registered fd is ready or `timeout` elapses (`None`
    /// = wait forever) and returns `(token, events)` of up to
    /// `POLLER_EVENTS` ready fds — empty on a timeout. `EINTR` retries;
    /// any other error is the caller's to end on, not to retry.
    pub fn wait(&mut self, timeout: Option<Duration>) -> io::Result<&[(u64, i16)]> {
        let ts = timeout.map(timespec_of);
        let ts_ptr = ts.as_ref().map_or(std::ptr::null(), |t| t as *const _);
        let n = loop {
            // SAFETY: `buf` is a live, exclusively borrowed array of
            // `POLLER_EVENTS` events; `ts_ptr` is null or points at `ts`,
            // which outlives the call; a null sigmask is allowed.
            let rc = unsafe {
                sys::epoll_pwait2(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    POLLER_EVENTS as i32,
                    ts_ptr,
                    std::ptr::null(),
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        self.ready.clear();
        // By value: a field of a packed struct cannot be borrowed.
        self.ready
            .extend(self.buf[..n].iter().map(|ev| (ev.data, ev.events as i16)));
        Ok(&self.ready)
    }

    /// Test hook: closes the `epoll` fd under the set and leaves a
    /// descriptor no wait can work on, so every later [`Poller::wait`]
    /// fails (`EINVAL`) the way a broken kernel object would.
    #[cfg(test)]
    pub(crate) fn break_for_test(&mut self) {
        self.epfd = File::open("/dev/null").expect("open /dev/null").into();
    }
}

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
/// group dials from the `crate::node::run_nodes` loop that also accepts.
/// A Unix-domain connect completes while the listener's backlog has room,
/// and std listens with `somaxconn` (4096 here). std's TCP backlog is 128
/// (a 200-leaf star of `--node-worker` processes dials its hub past it);
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
}

/// Worst-case encoded frame size (length prefix + body), the margin the
/// out-buffer cap check leaves before appending.
const FRAME_MAX: usize = 4 + MAX_FRAME_LEN as usize;

/// Hands `each` the control lines that freshly read `bytes` complete, as
/// bytes (trailing ASCII whitespace trimmed; empty lines dropped) — both
/// ends of every control pipe read through this. `acc` holds the
/// unfinished line between calls, so each byte is scanned once, and a line
/// that arrives whole is read where it lies, in `bytes`.
pub(crate) fn take_lines(acc: &mut Vec<u8>, bytes: &[u8], mut each: impl FnMut(&[u8])) {
    let mut push = |line: &[u8]| {
        let line = line.trim_ascii_end();
        if !line.is_empty() {
            each(line);
        }
    };
    let mut rest = bytes;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        if acc.is_empty() {
            push(&rest[..nl]);
        } else {
            acc.extend_from_slice(&rest[..nl]);
            push(acc);
            acc.clear();
        }
        rest = &rest[nl + 1..];
    }
    acc.extend_from_slice(rest);
}

/// The node's control pipe to its supervising shard.
pub enum CtrlPipe {
    /// One bidirectional socketpair end (inproc mode: the shard holds
    /// the other end).
    Stream(UnixStream),
    /// This process's raw stdin/stdout (`--node-worker` process mode).
    /// Read and written as bare fds — never through `Stdin`'s
    /// `BufReader`, whose invisible buffering would hold complete lines
    /// where `poll` cannot see them.
    Stdio,
}

/// The in-loop form of [`CtrlPipe`]: raw single-shot reads plus a
/// blocking writer. `ManuallyDrop` keeps the process's stdio fds open
/// when the wrapper is dropped.
enum CtrlIo {
    Stream(UnixStream),
    Stdio {
        r: ManuallyDrop<File>,
        w: ManuallyDrop<File>,
    },
}

impl CtrlIo {
    fn new(pipe: CtrlPipe) -> Self {
        match pipe {
            CtrlPipe::Stream(s) => CtrlIo::Stream(s),
            CtrlPipe::Stdio => CtrlIo::Stdio {
                r: ManuallyDrop::new(unsafe { File::from_raw_fd(0) }),
                w: ManuallyDrop::new(unsafe { File::from_raw_fd(1) }),
            },
        }
    }

    fn read_fd(&self) -> RawFd {
        match self {
            CtrlIo::Stream(s) => s.as_raw_fd(),
            CtrlIo::Stdio { r, .. } => r.as_raw_fd(),
        }
    }

    /// One `read(2)`. The fd is blocking, so this is only called after
    /// the wait reported it readable — a single read on a readable fd
    /// never blocks, and the level-triggered set reports any remainder
    /// again.
    fn read_once(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            CtrlIo::Stream(s) => (&*s).read(buf),
            CtrlIo::Stdio { r, .. } => (&**r).read(buf),
        }
    }
}

impl Write for CtrlIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            CtrlIo::Stream(s) => (&*s).write(buf),
            CtrlIo::Stdio { w, .. } => (&**w).write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            CtrlIo::Stream(s) => (&*s).flush(),
            CtrlIo::Stdio { w, .. } => (&**w).flush(),
        }
    }
}

/// A node's end of its control pipe, in the thread's [`Poller`] under the
/// node's own token for the node's whole life: single-shot reads into
/// complete lines, blocking writes up.
pub(crate) struct Control {
    io: CtrlIo,
    eof: bool,
    acc: Vec<u8>,
    /// Complete control lines read since the node last drained.
    pub lines: Vec<String>,
}

impl Control {
    /// Takes over the pipe and registers it as member `index`'s fd. A
    /// control fd the kernel cannot poll (`EPERM`: a regular file,
    /// `/dev/null`) is an error here, not a pipe that "reads" EOF later.
    pub fn new(pipe: CtrlPipe, index: usize, poller: &Poller) -> io::Result<Self> {
        let io = CtrlIo::new(pipe);
        let fd = io.read_fd();
        poller
            .add(fd, POLLIN, Poller::token(index, fd))
            .map_err(|e| io::Error::new(e.kind(), format!("control pipe cannot be polled: {e}")))?;
        Ok(Control {
            io,
            eof: false,
            acc: Vec::new(),
            lines: Vec::new(),
        })
    }

    /// True once the supervisor closed the pipe (treat as stop).
    pub fn eof(&self) -> bool {
        self.eof
    }

    /// One single-shot read after the wait named the pipe; complete lines
    /// move to `lines`. At EOF the fd stays open (it is also the write
    /// side, or the process's stdin), so it leaves the level-triggered set
    /// by hand.
    pub fn read(&mut self, poller: &Poller) -> io::Result<()> {
        if self.eof {
            return Ok(());
        }
        let mut buf = [0u8; 4096];
        match self.io.read_once(&mut buf) {
            Ok(0) => self.eof = true,
            Ok(k) => take_lines(&mut self.acc, &buf[..k], |line| {
                self.lines.push(String::from_utf8_lossy(line).into_owned())
            }),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => self.eof = true,
        }
        if self.eof {
            poller.del(self.io.read_fd())?;
        }
        Ok(())
    }

    /// Blocking write of whole lines to the supervisor — the declared
    /// untimed `SockWrite(shard.super)` edge (the shard drains
    /// unconditionally).
    pub fn write_line(&mut self, lines: &[u8]) -> io::Result<()> {
        self.io.write_all(lines)?;
        self.io.flush()
    }
}

/// The owner half of the [`Poller::token`] of every fd a [`Hub`]
/// registers; a member's control pipe carries the member's group index.
pub(crate) const HUB: usize = u32::MAX as usize;

/// [`Hub::index_of`]'s "no member has this id".
const NOBODY: u32 = u32::MAX;

/// Encoded size of a `Route` (length prefix, tag, two ids).
const ROUTE_LEN: usize = 4 + 1 + 2 + 2;

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
    /// Next dial deadline while disconnected.
    next_dial: Instant,
    /// The stream gave up redialing (peer gone for good / shutdown race).
    dead: bool,
    /// The last write, or the last heartbeat queued behind a full socket.
    last_write: Instant,
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
    /// Never joined, or retired: frames for it are counted drops.
    gone: bool,
}

/// The links of one group — of every node that shares a data thread: in
/// memory between two members, and otherwise over **one** listener
/// (bound only if a member has a neighbour outside the group), whose
/// address every member reports as its own, one simplex out-stream per
/// *distinct address* among the members' outside neighbours, and whatever
/// streams other groups dialled in. "Same address, same stream" is the
/// only rule: a group of one whose neighbours each listen for themselves
/// (`--node-worker`) has one stream per directed edge, a shard one to each
/// thread it borders.
///
/// Which link a run of frames crossed is said in-band: a
/// `WireFrame::Route { src, dst }` goes into the stream's [`WriteBuf`]
/// whenever the link changes, and the reader remembers the last one per
/// connection. Frames of one link are appended in send order to one
/// buffer that is written front to back, so per-link FIFO is the byte
/// order of the stream.
///
/// [`crate::node::run_nodes`] calls [`Hub::prepare`] once a turn — every
/// stream flushed **once** — waits, hands [`Hub::dispatch`] the events
/// under the [`HUB`] token, and steps the members whose
/// [`Hub::inbound`] filled. No method here reads the monotonic clock:
/// `now` comes down from the thread's loop (the shutdown flush, which
/// waits on its own, is the exception).
pub(crate) struct Hub {
    t: &'static ClusterTuning,
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
        let t = &TUNING;
        let listener = listen.map(|l| NetListener::bind(l, lead)).transpose()?;
        if let Some((l, _)) = &listener {
            poller.add(l.fd(), POLLIN, Poller::token(HUB, l.fd()))?;
        }
        Ok(Hub {
            t,
            listener,
            lead,
            members: (0..members)
                .map(|_| Member {
                    id: NodeId::MAX,
                    neighbors: Vec::new(),
                    links: Vec::new(),
                    inbound: Vec::new(),
                    queued: Vec::new(),
                    gone: true,
                })
                .collect(),
            index_of: Vec::new(),
            streams: Vec::new(),
            conns: Vec::new(),
            rng: ChaCha8Rng::seed_from_u64(seed),
            scratch: vec![0u8; t.io_read_chunk],
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
        (m.id, m.neighbors, m.gone) = (id, neighbors, false);
    }

    /// The member retired: what it had not drained, and whatever still
    /// arrives for it, is a counted drop.
    pub fn leave(&mut self, index: usize) {
        let m = &mut self.members[index];
        m.gone = true;
        self.stats.conn_frames_dropped += std::mem::take(&mut m.inbound).len() as u64;
    }

    /// Wires member `index`'s links once the address of every node arrived
    /// over ctrl: a neighbour that is a member gets an in-memory link and
    /// no socket; every other neighbour's link rides the stream to that
    /// neighbour's address, opened here if it is the first. Dialing starts
    /// on the next `prepare`.
    pub fn connect_peers(&mut self, index: usize, addrs: &[&str], now: Instant) {
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
                    out: WriteBuf::with_capacity(self.t.batch_max_bytes + ROUTE_LEN + FRAME_MAX),
                    route: None,
                    attempt: 0,
                    connected: false,
                    next_dial: now,
                    dead: false,
                    last_write: now,
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
    /// holds or to a member that is gone; or appended to the stream's write
    /// buffer — behind a `Route` if the stream last spoke for another link
    /// — flushing at the batch budget and shedding (counted) at the hard cap.
    pub fn send(
        &mut self,
        index: usize,
        to: NodeId,
        frame: &WireFrame,
        now: Instant,
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
                if r.gone || r.queued[port] >= self.t.out_buf_cap_bytes / FRAME_MAX {
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
        if s.out.pending() >= self.t.batch_max_bytes || s.out.frames() >= self.t.batch_max_frames {
            self.flush_stream(i, now, poller)?;
        }
        let s = &mut self.streams[i];
        if s.out.pending() + ROUTE_LEN + FRAME_MAX > self.t.out_buf_cap_bytes {
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
    pub fn prepare(&mut self, now: Instant, poller: &Poller) -> io::Result<Instant> {
        let idle = self.members.iter().all(|m| m.inbound.is_empty());
        let mut deadline = if idle { now + self.t.heartbeat() } else { now };
        for i in 0..self.streams.len() {
            if !self.streams[i].out.is_empty() {
                self.flush_stream(i, now, poller)?;
            }
            self.run_timer(i, now, poller)?;
            let s = &self.streams[i];
            if !s.dead {
                deadline = deadline.min(match &s.stream {
                    Some(_) => s.last_write + self.t.heartbeat(),
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
        now: Instant,
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

    /// The group's last member retired: keeps writing blocked buffers
    /// until everything pending drains or `io_flush_grace` expires —
    /// undelivered frames become counted wire drops — unlinks a
    /// Unix-domain listener, and hands over the group's I/O stats. A cold
    /// wait of its own clock, after the group has left its thread's loop,
    /// on a set of its own that holds only the blocked streams: the
    /// group's would wake on every readable connection and control pipe.
    pub fn shutdown(&mut self) -> IoStats {
        let deadline = Instant::now() + self.t.io_flush_grace();
        if let Ok(mut set) = Poller::new() {
            // Their writability registrations were in the group's set.
            self.streams.iter_mut().for_each(|s| s.blocked = false);
            loop {
                let now = Instant::now();
                let flushed =
                    (0..self.streams.len()).try_for_each(|i| self.flush_stream(i, now, &set));
                let blocked = self.streams.iter().any(|s| s.blocked);
                if flushed.is_err() || !blocked || now >= deadline {
                    break;
                }
                if set.wait(Some(deadline - now)).is_err() {
                    break;
                }
            }
        }
        for s in &mut self.streams {
            self.stats.conn_frames_dropped += s.out.reset() as u64;
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
    fn flush_stream(&mut self, i: usize, now: Instant, poller: &Poller) -> io::Result<()> {
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
    fn write_pending(s: &mut OutStream, stats: &mut IoStats, now: Instant) {
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

    fn disconnect(s: &mut OutStream, stats: &mut IoStats, now: Instant) {
        s.stream = None;
        stats.conn_frames_dropped += s.out.reset() as u64;
        s.route = None;
        s.attempt = 0;
        s.next_dial = now;
    }

    /// Fires stream `i`'s due dial or heartbeat.
    fn run_timer(&mut self, i: usize, now: Instant, poller: &Poller) -> io::Result<()> {
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
                    if s.attempt > self.t.max_dial_attempts {
                        s.dead = true;
                        self.stats.conn_frames_dropped += s.out.reset() as u64;
                        return Ok(());
                    }
                    let backoff = self.t.backoff_ms(s.attempt);
                    let jitter = self.rng.gen_range(0..=backoff / 2);
                    s.next_dial = now + Duration::from_millis(backoff + jitter);
                    return Ok(());
                }
            }
        } else if now.duration_since(s.last_write) >= self.t.heartbeat() {
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
                        let m = &mut members[member];
                        if m.gone {
                            stats.conn_frames_dropped += 1;
                        } else {
                            m.inbound.push((port, frame));
                        }
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
    use ssmfp_core::wire::{ClientStamp, WireMessage};

    fn data_frame(seq: u64) -> WireFrame {
        WireFrame::Offer {
            d: 4,
            msg: WireMessage {
                payload: seq,
                color: (seq % 3) as u8,
                ghost: GhostId::Valid(seq),
                stamp: ClientStamp::NONE,
            },
            nonce: seq,
        }
    }

    /// A 1 MB line read 4 KB at a time comes out once, whole, on the read
    /// that completes it; blank lines are dropped and trailing whitespace
    /// trimmed, whichever read they straddle.
    #[test]
    fn take_lines_reassembles_a_long_line_across_reads() {
        let long: String = (0..1 << 20)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        let stream = format!("first \r\n\n  \n{long}  \nlast\npart");
        let mut acc = Vec::new();
        let mut lines = Vec::new();
        for chunk in stream.as_bytes().chunks(4096) {
            take_lines(&mut acc, chunk, |l| {
                lines.push(String::from_utf8_lossy(l).into_owned())
            });
        }
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "first");
        assert!(lines[1] == long, "the long line came out changed");
        assert_eq!(lines[2], "last");
        assert_eq!(acc, b"part", "the unfinished line waits for its newline");
        let mut last = Vec::new();
        take_lines(&mut acc, b"ial \n", |l| last.push(l.to_vec()));
        assert_eq!(last, [b"partial"]);
        assert!(acc.is_empty());
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
        let now = Instant::now();
        hub.connect_peers(0, &["", &far_addr, &far_addr], now);
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
        hub.prepare(now + TUNING.heartbeat(), &poller).unwrap();
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
            hub.connect_peers(p, &[UNLISTENED; 4], Instant::now());
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
        let now = Instant::now();
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
        let (now, bound, k) = (Instant::now(), TUNING.out_buf_cap_bytes / FRAME_MAX, 7);
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

    /// A member that retired takes what it had not drained with it, and
    /// whatever its links bring later, as counted drops.
    #[test]
    fn a_link_to_a_retired_member_is_a_counted_drop() {
        let poller = Poller::new().unwrap();
        let mut hub = line4_group(&poller);
        let now = Instant::now();
        hub.send(0, 1, &data_frame(0), now, &poller).unwrap();
        hub.leave(1);
        assert_eq!(hub.stats().conn_frames_dropped, 1);
        for seq in 1..=10 {
            hub.send(0, 1, &data_frame(seq), now, &poller).unwrap();
            hub.send(2, 1, &data_frame(seq), now, &poller).unwrap();
        }
        assert!(hub.inbound(1).is_empty());
        assert_eq!(hub.stats().conn_frames_dropped, 21);
    }

    /// A registration follows the fd, not the wait: added once, it
    /// reports readiness — level-triggered — on every wait until the bytes
    /// are read, and again for the next bytes, with no re-`add`.
    #[test]
    fn poller_registration_survives_across_waits() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Poller::new().unwrap();
        let token = Poller::token(3, b.as_raw_fd());
        assert_eq!(Poller::untoken(token), (3, b.as_raw_fd()));
        p.add(b.as_raw_fd(), POLLIN, token).unwrap();
        let ms = Some(Duration::from_millis(1));
        assert!(p.wait(ms).unwrap().is_empty());
        let mut buf = [0u8; 8];
        for round in 0..3u8 {
            (&a).write_all(&[round]).unwrap();
            for _ in 0..2 {
                let ready = p.wait(ms).unwrap();
                assert_eq!(ready.len(), 1);
                assert_eq!(ready[0].0, token);
                assert_ne!(ready[0].1 & POLLIN, 0);
            }
            assert_eq!((&b).read(&mut buf).unwrap(), 1);
            assert!(p.wait(ms).unwrap().is_empty());
        }
        // Out of the set by hand: the fd is still open and readable.
        (&a).write_all(&[9]).unwrap();
        p.del(b.as_raw_fd()).unwrap();
        assert!(p.wait(ms).unwrap().is_empty());
        // Back for writability only: the unread byte no longer counts.
        p.add(b.as_raw_fd(), POLLIN, token).unwrap();
        p.modify(b.as_raw_fd(), POLLOUT, token).unwrap();
        assert_eq!(p.wait(ms).unwrap(), [(token, POLLOUT)]);
    }

    /// The timeout reaches the kernel in ns (`epoll_pwait2`): 300 µs on an
    /// idle set is not rounded up to `epoll_wait`'s millisecond.
    #[test]
    fn poller_timeout_has_sub_millisecond_resolution() {
        let (_a, b) = UnixStream::pair().expect("socketpair");
        let mut p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), POLLIN, 0).unwrap();
        // Best of a few: one preemption of the test thread is not a bug.
        let best = (0..20)
            .map(|_| {
                let began = Instant::now();
                assert!(p.wait(Some(Duration::from_micros(300))).unwrap().is_empty());
                began.elapsed()
            })
            .min()
            .unwrap();
        assert!(best >= Duration::from_micros(300), "woke early: {best:?}");
        assert!(
            best < Duration::from_millis(1),
            "a 300 µs wait took {best:?}"
        );
    }

    /// Closing the only descriptor removes the registration — the rule
    /// every "nothing on close" in this file relies on, and it holds
    /// because nothing here dups an fd: the number, reused by a new
    /// socket, registers again (`EEXIST` otherwise) and the set reports
    /// the new socket under the new token, never the old.
    #[test]
    fn poller_close_removes_and_the_number_can_register_again() {
        let mut p = Poller::new().unwrap();
        let ms = Some(Duration::from_millis(1));
        // The lowest free number is the one just closed — unless another
        // test's thread takes it in between, so try until it comes back.
        for _ in 0..200 {
            let (a, b) = UnixStream::pair().expect("socketpair");
            let fd = b.as_raw_fd();
            p.add(fd, POLLIN, 1).unwrap();
            assert_eq!(
                p.add(fd, POLLIN, 1).unwrap_err().kind(),
                io::ErrorKind::AlreadyExists
            );
            (&a).write_all(&[1]).unwrap();
            drop(b);
            assert!(p.wait(ms).unwrap().is_empty(), "a closed fd reported");
            let (c, d) = UnixStream::pair().expect("socketpair");
            let (w, r) = if c.as_raw_fd() == fd { (d, c) } else { (c, d) };
            if r.as_raw_fd() != fd {
                continue;
            }
            p.add(fd, POLLIN, 2).expect("a closed fd left the set");
            (&w).write_all(&[2]).unwrap();
            assert_eq!(p.wait(ms).unwrap(), [(2, POLLIN)]);
            return;
        }
        panic!("the closed number never came back");
    }

    /// More ready fds than one wait reports: none is lost, they surface
    /// over consecutive waits (the kernel rotates its ready list).
    #[test]
    fn poller_overflow_surfaces_over_consecutive_waits() {
        let mut p = Poller::new().unwrap();
        let n = POLLER_EVENTS + 20;
        let pairs: Vec<_> = (0..n)
            .map(|_| UnixStream::pair().expect("socketpair"))
            .collect();
        for (i, (a, b)) in pairs.iter().enumerate() {
            p.add(b.as_raw_fd(), POLLIN, i as u64).unwrap();
            (&*a).write_all(&[1]).unwrap();
        }
        let mut seen = vec![false; n];
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            let ready = p.wait(Some(Duration::from_millis(100))).unwrap().to_vec();
            assert!(ready.len() <= POLLER_EVENTS);
            for (token, _) in ready {
                let i = token as usize;
                assert!(!seen[i], "fd {i} reported after it was drained");
                seen[i] = true;
                assert_eq!((&pairs[i].1).read(&mut buf).unwrap(), 1);
            }
        }
        assert!(seen.iter().all(|&s| s), "a ready fd never surfaced");
    }

    /// What `ppoll` called "readable" `epoll` refuses outright: a regular
    /// file or `/dev/null` as a control pipe is an error at registration.
    #[test]
    fn poller_refuses_an_fd_that_cannot_be_polled() {
        let p = Poller::new().unwrap();
        let null = File::open("/dev/null").unwrap();
        let err = p.add(null.as_raw_fd(), POLLIN, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    /// The nonblocking-fd shim against a real pipe-like fd: flipping
    /// `O_NONBLOCK` on turns an empty-read block into `WouldBlock`.
    #[test]
    fn set_nonblocking_fd_flips_o_nonblock() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        set_nonblocking_fd(a.as_raw_fd(), true).expect("set nonblocking");
        let mut buf = [0u8; 4];
        let err = (&a).read(&mut buf).expect_err("empty nonblocking read");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        set_nonblocking_fd(a.as_raw_fd(), false).expect("clear nonblocking");
    }

    /// `raise_nofile_limit` is monotone and never lowers the soft limit.
    #[test]
    fn raise_nofile_limit_is_best_effort_monotone() {
        let before = raise_nofile_limit(0);
        assert!(before > 0, "getrlimit failed");
        let after = raise_nofile_limit(before);
        assert!(after >= before);
    }
}
