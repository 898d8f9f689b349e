//! A node group: the nodes that share one data thread, and the paper's
//! daemon over them. A node is not a thread but a [`Node`], stepped by
//! [`Node::on`] with no socket in sight; the group is its only driver in
//! a run. It holds what its members share — the graph and one BFS tree
//! per destination, built once at bring-up, the links (`Hub`, whose
//! module says how they ride memory and streams), the one control pipe
//! and the one copy of the control state — and its one `turn`
//! (`Group::turn`) is the only copy of the iteration: flush each stream
//! once, take the status cut, one wait on the thread's [`Poller`] to the
//! nearest deadline, one dispatch, the control lines, then one sweep
//! (`Group::sweep`): in slot order, step exactly the members that have
//! frames or a passed deadline, each step's frames onto the links before
//! the next member steps. A busy group whose every link is in memory
//! turns by the sweep alone until its keep-alive is due: the kernel could
//! tell it nothing but a control line.
//! `run_group` loops on `turn`, once per shard: on the shard's
//! `node.main` thread in `RunMode::Inproc`, and as [`node_main`], the
//! shard's `--node-worker` process, in `RunMode::Proc`. Correctness is
//! schedule-independent — the simulated suite, and the node's own tests
//! on `Node::on`, step the nodes in adversarial orders — so stepping the
//! enabled members in whatever order they sit is safe by construction.
//!
//! ## Control protocol
//!
//! Line-based, over one socketpair — the data thread's end inproc, fd 0
//! of a `--node-worker` process — whose other end the root holds, writes
//! down and reads. The group's end sits in the same readiness set as the
//! sockets. Reads are *single-shot*: one `read(2)` per `POLLIN` readiness
//! on a blocking fd never blocks, and the level-triggered set reports
//! anything left unread again (no `BufReader`, whose buffering would hide
//! complete lines from the wait). Writes are plain blocking `write_all`:
//! the root reads every group's pipe each turn of its loop, and writes
//! down it only under a deadline, so this one untimed wait of a group
//! points up an acyclic control tree (DESIGN.md §13).
//!
//! * group → root: `ready <addr>`, once for all its members
//! * root → group: `peers <addr_0> … <addr_{n-1}>`, then `start`
//! * group → root: `status <wave> <nodes> <done> <generated> <delivered>
//!   <held> <busy>` ([`Status`]) — a cut of all its members at one
//!   instant, written the turn the cut goes quiet or changes while quiet,
//!   once per probe wave, and otherwise once per `status_every`; the
//!   root hands each to its stop rule as it reads it
//! * group → root, in the same write behind every status line: for each
//!   member with ledger entries since the last one, a `node <id>` head,
//!   then a `gen …` and a `del …` line (`crate::codec::push_delta`),
//!   after which the member lets them go: the ledger leaves while the
//!   run runs
//! * root → group: `probe <wave>` — the root's second wave; the group
//!   answers it once, with a cut taken after it read the probe
//! * root → group: `stop`; or, when the run failed elsewhere, the pipe
//!   shut down: a started group then shuts its hub down and ends,
//!   writing nothing
//! * group → root: for each member a multi-line `report <id> … end`
//!   block whose `gen` and `del` carry only the entries no status line
//!   did, then the group closes the pipe
//! * group → root, instead, when anything fails — a member, the group's
//!   sockets or wait, a control line it cannot read: one `error <node>
//!   <message>` line, then the group closes the pipe.
//!
//! Every line a group writes but `error` is [`crate::codec`]'s.

use crate::codec::{shown, take_lines, Status};
use crate::evloop::{monotonic_us, Hub, IoStats, Poller, HUB, POLLIN};
use crate::node::{next_hops, Node, Run};
use crate::tuning::TUNING;
use ssmfp_core::wire::WireFrame;
use ssmfp_topology::NodeId;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A group's end of its control socketpair — a data thread's inproc, fd 0
/// of a `--node-worker` process — in the thread's [`Poller`] under the
/// [`CTRL`] token for the group's whole life: single-shot reads of the
/// root's lines into complete lines, blocking writes up to the root.
struct Control {
    pipe: UnixStream,
    /// The pipe's other end was shut down or closed: a read returned EOF,
    /// or the `error` line of [`Control::fail`] found no reader.
    eof: bool,
    acc: Vec<u8>,
    /// Complete control lines read since the group last drained.
    lines: Vec<String>,
}

impl Control {
    /// Takes over the pipe and registers it. A control fd the kernel
    /// cannot poll (`EPERM`: a regular file, `/dev/null`) is an error
    /// here, not a pipe that "reads" EOF later.
    fn new(pipe: UnixStream, poller: &Poller) -> io::Result<Self> {
        let fd = pipe.as_raw_fd();
        poller
            .add(fd, POLLIN, Poller::token(CTRL, fd))
            .map_err(|e| io::Error::new(e.kind(), format!("control pipe cannot be polled: {e}")))?;
        Ok(Control {
            pipe,
            eof: false,
            acc: Vec::new(),
            lines: Vec::new(),
        })
    }

    /// One `read(2)` after the wait named the pipe; complete lines move to
    /// `lines`. The fd is blocking, but a single read on a readable fd
    /// never blocks, and the level-triggered set reports any remainder
    /// again. At EOF the fd stays open (it is also the write side), so it
    /// leaves the set by hand.
    fn read(&mut self, poller: &Poller) -> io::Result<()> {
        if self.eof {
            return Ok(());
        }
        let mut buf = [0u8; 4096];
        match (&self.pipe).read(&mut buf) {
            Ok(0) => self.eof = true,
            Ok(k) => take_lines(&mut self.acc, &buf[..k], |line| {
                self.lines.push(String::from_utf8_lossy(line).into_owned())
            }),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => self.eof = true,
        }
        if self.eof {
            poller.del(self.pipe.as_raw_fd())?;
        }
        Ok(())
    }

    /// Blocking write of whole lines up to the root — the group's one
    /// untimed wait: the root, which writes its control lines down the same
    /// socketpair under deadlines, reads every group's pipe each turn of
    /// its loop.
    fn write_line(&mut self, lines: &[u8]) -> io::Result<()> {
        (&self.pipe).write_all(lines)
    }

    /// The group ends on `e`, the fault of `node`: one `error <node>
    /// <message>` line goes up, if the pipe still takes it, and `e` comes
    /// back. A pipe that refuses the line is the root hanging up, as EOF
    /// is.
    fn fail(&mut self, node: NodeId, e: io::Error) -> io::Error {
        let said = e.to_string().replace('\n', " ");
        self.eof |= self
            .write_line(format!("error {node} {said}\n").as_bytes())
            .is_err();
        e
    }
}

/// The owner half of the [`Poller::token`] of a group's [`Control`] pipe.
const CTRL: usize = 0;

/// One member of a [`Group`].
struct Slot {
    node: Node,
    /// The node's next deadline, µs, as its last step returned it.
    deadline: Option<u64>,
    #[cfg(debug_assertions)]
    audit: StepAudit,
}

/// Debug builds count a member's steps and what paid for them:
/// turns that had frames for it, and turns that found its deadline passed.
#[cfg(debug_assertions)]
#[derive(Default)]
struct StepAudit {
    steps: u64,
    events_seen: u64,
    deadlines_due: u64,
}

/// The nodes that share one data thread, and the paper's daemon over
/// them: one persistent [`Poller`], one [`Hub`] holding the links of them
/// all, one control pipe and one copy of the control state,
/// one status line for them all, and per member a deadline. [`Group::turn`]
/// is the only copy of the iteration — [`run_group`] loops on it.
struct Group {
    /// µs on the group's one time base: every deadline, every `now` and
    /// every payload stamp of its members.
    clock: fn() -> u64,
    poller: Poller,
    hub: Hub,
    ctrl: Control,
    /// The member an error of the whole group is charged to: the first.
    lead: NodeId,
    /// Cluster size: the arity of the `peers` line.
    n: usize,
    slots: Vec<Slot>,
    /// This turn's `(fd, events)` of the hub's fds (recycled).
    hub_events: Vec<(RawFd, i16)>,
    /// What the member stepping now sends (recycled).
    out: Vec<(NodeId, WireFrame)>,
    // Control state: `peers`, then `start`; a `probe` any time after.
    peers_wired: bool,
    started: bool,
    /// The highest `probe` wave read.
    probe: u64,
    /// A member stepped since the group last looked at its cut.
    moved: bool,
    /// The last status line the group wrote.
    pushed: Option<Status>,
    /// When the next keep-alive line is due, µs: the first at `start`.
    keepalive: u64,
    /// The bytes of the next status line and its ledger deltas (recycled).
    line: Vec<u8>,
    /// [`Poller::wait`] calls so far: `IoStats::waits` at `stop`.
    waits: u64,
}

impl Group {
    /// Creates the thread's `Poller`, registers the control pipe, builds
    /// one BFS tree per destination over the run's graph, binds the
    /// group's one listener — per the run's `listen`, named after the
    /// first member, if a member has a neighbour outside to dial it —
    /// seats every member of `ids`, and writes `ready <addr>` up the pipe.
    /// A failure after the pipe is registered goes up it as an `error`
    /// line. `clock` is the group's time base, [`monotonic_us`] in a run.
    fn new(run: &Run, ids: Vec<NodeId>, pipe: UnixStream, clock: fn() -> u64) -> io::Result<Self> {
        let lead = *ids.first().ok_or_else(|| io::Error::other("no nodes"))?;
        let poller = Poller::new()?;
        let mut ctrl = Control::new(pipe, &poller)?;
        let io_seed = run.seed ^ ((lead as u64) << 32).wrapping_mul(0xDEAD_BEEF_1234_5677);
        let crosses = |(a, b): &(NodeId, NodeId)| ids.contains(a) != ids.contains(b);
        let listen = run.graph.edges().iter().any(crosses).then_some(&run.listen);
        let mut hub =
            Hub::new(listen, lead, ids.len(), io_seed, &poller).map_err(|e| ctrl.fail(lead, e))?;
        let tables = next_hops(&run.graph, &ids);
        let slots: Vec<Slot> = ids
            .iter()
            .zip(tables)
            .enumerate()
            .map(|(i, (&p, table))| {
                let node = Node::new(run, p, table);
                hub.join(i, p, node.neighbors.clone());
                Slot {
                    node,
                    deadline: None,
                    #[cfg(debug_assertions)]
                    audit: StepAudit::default(),
                }
            })
            .collect();
        ctrl.write_line(format!("ready {}\n", hub.addr()).as_bytes())?;
        Ok(Group {
            clock,
            poller,
            hub,
            ctrl,
            lead,
            n: run.graph.n(),
            slots,
            hub_events: Vec::new(),
            out: Vec::new(),
            peers_wired: false,
            started: false,
            probe: 0,
            moved: false,
            pushed: None,
            keepalive: 0,
            line: Vec::new(),
            waits: 0,
        })
    }

    /// Obeys the control lines the last read completed, each as it comes
    /// — one read can surface several (the root writes `peers` and
    /// `start` back to back). `Ok(true)` once the group is told to stop.
    /// A line that is not exactly one the root writes, or comes out of
    /// order, ends the group: a probe it cannot read would go unanswered.
    /// So does a closed pipe: the root is gone.
    fn obey(&mut self, now: u64) -> io::Result<bool> {
        for line in std::mem::take(&mut self.ctrl.lines) {
            let (verb, rest) = line.split_once(' ').unwrap_or((&line, ""));
            match verb {
                "peers" if !self.peers_wired => {
                    let addrs: Vec<&str> = rest.split(' ').collect();
                    if addrs.len() != self.n {
                        return Err(refused(&line));
                    }
                    for i in 0..self.slots.len() {
                        self.hub.connect_peers(i, &addrs);
                    }
                    self.peers_wired = true;
                }
                "start" if self.peers_wired && !self.started && rest.is_empty() => {
                    // Every member moves once: a closed loop's first sends
                    // wait on no deadline.
                    self.started = true;
                    for slot in &mut self.slots {
                        slot.node.last_tick = now;
                        slot.deadline = Some(now);
                    }
                }
                "probe" => {
                    let wave: u64 = rest.parse().map_err(|_| refused(&line))?;
                    self.probe = self.probe.max(wave);
                }
                "stop" if rest.is_empty() => return Ok(true),
                _ => return Err(refused(&line)),
            }
        }
        if self.ctrl.eof {
            return Err(io::Error::other("control pipe closed"));
        }
        Ok(false)
    }

    /// `stop`: every member's report block goes up, the group's socket
    /// accounting in the last one's.
    fn stop(&mut self) -> io::Result<()> {
        let mut io = self.hub.shutdown();
        io.waits = self.waits;
        let last = self.slots.len() - 1;
        for (i, slot) in self.slots.drain(..).enumerate() {
            let io = if i == last {
                std::mem::take(&mut io)
            } else {
                IoStats::default()
            };
            self.ctrl.write_line(&slot.node.finish(io))?;
        }
        Ok(())
    }

    /// The group's status, looked at before every wait and again when a
    /// turn reads a probe. Once started, the
    /// group takes its cut — done, generated, delivered and held summed
    /// over the members, and whether an inbox or a stream buffer still
    /// holds a frame, all at this one instant between two turns — and
    /// writes it as one line: when the cut is quiet and differs from the
    /// last line (the quiet edge, or a change while quiet), when the group
    /// read a probe it has not answered, and otherwise once per
    /// `status_every`. Behind the line, in the same write — never ahead of
    /// it, so a probe's answer waits for nobody's ledger — every member
    /// ships the entries the cut counted and it had not shipped
    /// ([`Node::ship`]): after a status line the thread holds no ledger
    /// entry older than the line. A cut with a member still issuing cannot
    /// be quiet, so a turn takes none — and scans no `held_count` — unless
    /// a probe or the keep-alive asks for one. Returns the keep-alive
    /// deadline while the group runs.
    fn status(&mut self, now: u64) -> io::Result<Option<u64>> {
        if !self.started {
            return Ok(None);
        }
        let nodes = self.slots.len() as u64;
        let done = self.slots.iter().filter(|s| s.node.done_issuing()).count() as u64;
        let moved = std::mem::take(&mut self.moved);
        let answer = self.probe > self.pushed.map_or(0, |s| s.wave);
        let due = now >= self.keepalive;
        if !(answer || due || moved && done == nodes) {
            return Ok(Some(self.keepalive));
        }
        let mut cut = Status {
            wave: self.probe,
            nodes,
            done,
            busy: self.hub.holds_frames() as u64,
            ..Status::default()
        };
        for node in self.slots.iter().map(|s| &s.node) {
            let [generated, delivered] = node.totals();
            cut.generated += generated;
            cut.delivered += delivered;
            cut.held += node.fwd.held_count() as u64;
        }
        if !(answer || due || cut.quiet(nodes) && self.pushed != Some(cut)) {
            return Ok(Some(self.keepalive));
        }
        self.line.clear();
        cut.push_line(&mut self.line);
        for slot in &mut self.slots {
            slot.node.ship(&mut self.line);
        }
        self.ctrl.write_line(&self.line)?;
        self.pushed = Some(cut);
        self.keepalive = now + TUNING.status_every_ms * 1_000;
        Ok(Some(self.keepalive))
    }

    /// One turn of the daemon: read the clock; flush each of the group's
    /// streams — once, whichever members and links its bytes belong to;
    /// look at the group's [`Group::status`]; wait to the nearest deadline
    /// of any member or stream or the status keep-alive (a linear min over
    /// the deadlines the members' last steps returned), zero while an inbox
    /// holds frames — which, with no socket, only the keep-alive's turn
    /// does (below); read the clock again; one dispatch for the group —
    /// accept, read each ready stream, demultiplex into the members'
    /// inboxes by local port, retry blocked writes; read the control pipe
    /// if the wait named it, obey it, and answer a probe it read; then
    /// [`Group::sweep`]. A frame between two members is pushed into the
    /// receiver's inbox: one later in the order steps this very turn, an
    /// earlier one the next, and nobody sleeps in between.
    ///
    /// A started group with no socket — no listener, no stream — and a
    /// frame in an inbox has nothing to flush, dispatch or sleep for, and
    /// nothing to write up its pipe while its cut cannot be quiet: until
    /// the keep-alive is due, its turn reads the clock once and sweeps. The
    /// first turn at the keep-alive is a whole one — its line, a
    /// zero-timeout wait, the control lines — so a `probe`, `stop` or EOF
    /// is read within one `status_every` while busy, and at once otherwise.
    ///
    /// Skipping a member is skipping a no-op, not a move: with no frame
    /// and no due deadline its step would find no inbound frame, no tick
    /// to fire and a workload that is not due; a chaos shim drains its
    /// queue inside the step that filled it, and a client mux that ran out
    /// of send budget is due *now*, a zero deadline.
    ///
    /// `Ok(true)` once the group has stopped and every report went up.
    /// Anything that fails — a member's step, the wait (anything but
    /// `EINTR`), a socket the set refuses, the control pipe — ends the
    /// group: one `error` line goes up, charged to the member that failed
    /// or else to the lead. Once started, a group whose pipe the root shut
    /// has nobody to report to: it shuts its hub down and ends `Ok(true)`,
    /// with no report and no `error` line.
    fn turn(&mut self) -> io::Result<bool> {
        self.try_turn().or_else(|(node, e)| self.end(node, e))
    }

    /// How a turn that failed ends the group: with one `error` line while
    /// the pipe takes one, and, once started, quietly when the root is gone
    /// — it shut the pipe, which reads EOF or refuses the line.
    #[cold]
    fn end(&mut self, node: NodeId, e: io::Error) -> io::Result<bool> {
        let e = match self.ctrl.eof {
            true => e,
            false => self.ctrl.fail(node, e),
        };
        if self.started && self.ctrl.eof {
            self.hub.shutdown();
            return Ok(true);
        }
        Err(e)
    }

    fn try_turn(&mut self) -> Result<bool, (NodeId, io::Error)> {
        let lead = self.lead;
        let group = |e| (lead, e);
        let now = (self.clock)();
        // Busy, and every link in memory: the kernel could report nothing
        // but a control line, and that waits for the keep-alive.
        if self.started && now < self.keepalive && self.hub.memory_only() && self.hub.holds_frames()
        {
            return self.sweep(now).map(|()| false);
        }
        let mut wake = self.hub.prepare(now, &self.poller).map_err(group)?;
        if let Some(keepalive) = self.status(now).map_err(group)? {
            wake = wake.min(keepalive);
        }
        // No member has a deadline before `start`.
        let deadlines = self.slots.iter().filter_map(|s| s.deadline);
        wake = deadlines.fold(wake, u64::min);
        let mut ctrl_ready = false;
        let timeout = Duration::from_micros(wake.saturating_sub(now));
        self.waits += 1;
        for &(token, events) in self.poller.wait(Some(timeout)).map_err(group)? {
            let (owner, fd) = Poller::untoken(token);
            if owner == HUB {
                self.hub_events.push((fd, events));
            } else if owner == CTRL {
                ctrl_ready = true;
            }
        }
        let now = (self.clock)();
        let dispatched = self.hub.dispatch(now, &self.hub_events, &self.poller);
        self.hub_events.clear();
        dispatched.map_err(group)?;
        if ctrl_ready {
            let probed = self.probe;
            self.ctrl.read(&self.poller).map_err(group)?;
            if self.obey(now).map_err(group)? {
                self.stop().map_err(group)?;
                return Ok(true);
            }
            // A probe is answered in the turn that read it, the cut taken
            // after the read.
            if self.probe > probed {
                self.status(now).map_err(group)?;
            }
        }
        if !self.started {
            return Ok(false);
        }
        self.sweep(now).map(|()| false)
    }

    /// In slot order, steps exactly the members that have frames or a
    /// deadline at or before `now`, each step's frames onto the links
    /// before the next member steps.
    fn sweep(&mut self, now: u64) -> Result<(), (NodeId, io::Error)> {
        let (clock, hub, poller, out) = (self.clock, &mut self.hub, &self.poller, &mut self.out);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let woken = !hub.inbound(i).is_empty();
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
            self.moved = true;
            slot.deadline = slot.node.on(hub.drain_inbound(i), now, clock, out);
            // By reference, then cleared: a frame is copied once, into
            // `out`, on its way from the step to the link.
            for (to, frame) in out.iter() {
                let sent = hub.send(i, *to, frame, now, poller);
                sent.map_err(|e| (slot.node.p, e))?;
            }
            out.clear();
        }
        Ok(())
    }
}

/// The error that ends a group on a control line it cannot read.
fn refused(line: &str) -> io::Error {
    let shown = shown(line.as_bytes());
    io::Error::other(format!("the group refuses a control line: {shown}"))
}

/// Runs the group of nodes `ids` of `run` to completion on the calling
/// thread over its one control pipe: [`Group::turn`] until the group has
/// stopped. What the nodes report, and what ended the group if it failed,
/// went up the pipe.
pub(crate) fn run_group(run: &Run, ids: Vec<NodeId>, pipe: UnixStream) -> io::Result<()> {
    let mut group = Group::new(run, ids, pipe, monotonic_us)?;
    while !group.turn()? {}
    Ok(())
}

/// Runs a `--node-worker` process: the `run_group` group of a shard's
/// `nodes` of `run`, over the socket the root handed it as fd 0.
pub fn node_main(nodes: Range<NodeId>, run: &Run) -> io::Result<()> {
    // SAFETY: fd 0 is the process's, and nothing else in it reads or
    // closes stdin; the stream owns it from here to exit. (A stdin that
    // is no socket fails at registration, or at its first read.)
    let pipe = unsafe { UnixStream::from_raw_fd(0) };
    run_group(run, nodes.collect(), pipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosSpec;
    use crate::codec::{NodeReport, ReportFold};
    use crate::frame::msg_to_frame;
    use crate::node::tests::{advance, hand_clock};
    use crate::node::{ListenSpec, Source, TICK_US};
    use crate::workload::{WorkloadGen, WorkloadSpec};
    use ssmfp_mp::{MpNode, WireMsg};
    use ssmfp_topology::BfsTree;
    use std::io::Write;
    use std::path::PathBuf;
    use std::time::Instant;

    /// A hand-driven `line:4` over real control pipes, every node on the
    /// test thread, in groups of consecutive ids `sizes` long: `&[4]` is
    /// one group, every link in memory; `&[2, 2]` the split
    /// `{0, 1} | {2, 3}`, whose `1 ↔ 2` edge crosses a socket. Node
    /// `source` is a stop-and-wait source of `quota` primaries whose
    /// generator is narrowed to one destination — in a cluster of two,
    /// every destination is node 0, or node 1 for node 0 — so one
    /// handshake is in flight at a time and a warm vector never needs to
    /// grow; nobody else sends anything. `pair` is the busy link
    /// [`Rig::turn_until`] watches, and every group runs on `clock`.
    struct Rig {
        /// By group; `None` once it ended, its pipe closed with it.
        groups: Vec<Option<Group>>,
        /// By group, how it ended: `Ok` once it stopped, else the error.
        outcomes: Vec<Option<Result<(), String>>>,
        /// By group, its members.
        members: Vec<Vec<NodeId>>,
        /// The root end of each group's control pipe (kept open: EOF
        /// ends a started group).
        root: Vec<UnixStream>,
        /// By group, the bytes read off its root end so far.
        heard: Vec<Vec<u8>>,
        dir: PathBuf,
        pair: [NodeId; 2],
        /// Groups turned in alternation must not sleep on frames only the
        /// other's turn sends: a byte nobody reads, in every group's set
        /// under an owner that is neither the hub nor the control pipe,
        /// makes every wait a poll.
        _nudge: Option<(UnixStream, UnixStream)>,
    }

    impl Rig {
        fn new(
            tag: &str,
            sizes: &[usize],
            source: NodeId,
            quota: u64,
            pair: [NodeId; 2],
            clock: fn() -> u64,
        ) -> Self {
            use crate::evloop::POLLIN;
            use crate::workload::WorkloadKind;
            use std::io::Read;
            use std::os::unix::io::AsRawFd;
            let dir = std::env::temp_dir().join(format!("ssmfp-node-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let stop_and_wait = |messages| WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 1 },
                messages,
            };
            let mut ids = 0..4usize;
            let members: Vec<Vec<NodeId>> = sizes
                .iter()
                .map(|&k| ids.by_ref().take(k).collect())
                .collect();
            let run = Run {
                graph: ssmfp_topology::gen::line(4),
                seed: 7,
                listen: ListenSpec::Uds { dir: dir.clone() },
                workload: stop_and_wait(0),
                chaos: ChaosSpec::none(),
                clients: None,
            };
            let (mut root, groups): (Vec<UnixStream>, Vec<Group>) = members
                .iter()
                .map(|ids| {
                    let (root_side, group_side) = UnixStream::pair().unwrap();
                    (
                        root_side,
                        Group::new(&run, ids.clone(), group_side, clock).unwrap(),
                    )
                })
                .unzip();
            let mut groups: Vec<Option<Group>> = groups.into_iter().map(Some).collect();
            let slots = groups.iter_mut().flatten().flat_map(|g| &mut g.slots);
            for slot in slots.filter(|s| s.node.p == source) {
                let gen = WorkloadGen::new(stop_and_wait(quota), source, 2, 7);
                slot.node.source = Source::Gen(gen);
            }
            // One `ready` line a group, naming its one address for every
            // member: node order is group order.
            let mut addrs = Vec::new();
            for (s, g) in root.iter_mut().zip(groups.iter().flatten()) {
                let want = format!("ready {}\n", g.hub.addr());
                let mut got = vec![0u8; want.len() + 1];
                s.set_nonblocking(true).unwrap();
                let k = s.read(&mut got).unwrap();
                s.set_nonblocking(false).unwrap();
                assert_eq!(String::from_utf8_lossy(&got[..k]), want);
                addrs.extend(g.slots.iter().map(|_| g.hub.addr().to_string()));
            }
            for s in &mut root {
                writeln!(s, "peers {}\nstart", addrs.join(" ")).unwrap();
            }
            let nudge = (groups.len() > 1).then(|| {
                let (mut tx, rx) = UnixStream::pair().unwrap();
                tx.write_all(&[1]).unwrap();
                let token = Poller::token(HUB - 1, rx.as_raw_fd());
                for g in groups.iter().flatten() {
                    g.poller.add(rx.as_raw_fd(), POLLIN, token).unwrap();
                }
                (tx, rx)
            });
            Rig {
                outcomes: vec![None; groups.len()],
                heard: vec![Vec::new(); groups.len()],
                groups,
                members,
                root,
                dir,
                pair,
                _nudge: nudge,
            }
        }

        fn group(&self, g: usize) -> &Group {
            self.groups[g].as_ref().expect("a live group")
        }

        fn group_mut(&mut self, g: usize) -> &mut Group {
            self.groups[g].as_mut().expect("a live group")
        }

        /// The lines group `g`'s root end has read so far.
        fn lines(&self, g: usize) -> Vec<Vec<u8>> {
            let mut lines = Vec::new();
            take_lines(&mut Vec::new(), &self.heard[g], |l| lines.push(l.to_vec()));
            lines
        }

        /// The `status` lines group `g`'s root end has read so far.
        fn statuses(&self, g: usize) -> Vec<Status> {
            let lines = self.lines(g);
            let rests = lines.iter().filter_map(|l| l.strip_prefix(b"status "));
            rests.map(|rest| Status::parse(rest).unwrap()).collect()
        }

        /// What the root makes of every group's lines so far: each member's
        /// ledger deltas and, once it stopped, its block, folded into one
        /// report a node, by node.
        fn folded(&self) -> Vec<NodeReport> {
            let mut reports = Vec::new();
            for (g, members) in self.members.iter().enumerate() {
                let mut fold = ReportFold::new(members.iter().copied());
                for line in self.lines(g) {
                    if !(line.starts_with(b"status ") || line.starts_with(b"ready ")) {
                        let text = String::from_utf8_lossy(&line);
                        assert!(fold.fold(&line).is_some(), "group {g}: {text}");
                    }
                }
                reports.append(&mut fold.reports);
            }
            reports
        }

        fn nodes(&self) -> impl Iterator<Item = &Node> {
            let slots = self.groups.iter().flatten().flat_map(|g| &g.slots);
            slots.map(|s| &s.node)
        }

        fn node(&self, p: NodeId) -> &Node {
            self.nodes().find(|n| n.p == p).expect("a live node")
        }

        /// One turn of every live group, in order.
        fn turn(&mut self) {
            for g in 0..self.groups.len() {
                self.turn_group(g);
            }
        }

        /// One turn of group `g` if it is live — a group that ends is
        /// dropped, closing its pipe — then, as the root would, whatever it
        /// wrote up its control pipe, read without waiting: a pipe nobody
        /// reads fills, and a group's next line blocks.
        fn turn_group(&mut self, g: usize) {
            use std::io::Read;
            let ended = match self.groups[g].as_mut().map(Group::turn) {
                None | Some(Ok(false)) => None,
                Some(Ok(true)) => Some(Ok(())),
                Some(Err(e)) => Some(Err(e.to_string())),
            };
            if ended.is_some() {
                (self.groups[g], self.outcomes[g]) = (None, ended);
            }
            let (s, mut buf) = (&mut self.root[g], [0u8; 4096]);
            s.set_nonblocking(true).unwrap();
            while let Ok(k @ 1..) = s.read(&mut buf) {
                self.heard[g].extend_from_slice(&buf[..k]);
            }
            s.set_nonblocking(false).unwrap();
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
                let ended = self.outcomes.iter().flatten();
                assert!(ended.count() == 0, "nobody said stop");
                each_turn(self);
            }
            panic!("the link went quiet before {frames} frames");
        }

        /// `stop` to every group, then turns until each has ended.
        fn stop(&mut self) {
            for s in &mut self.root {
                writeln!(s, "stop").unwrap();
            }
            while self.groups.iter().any(Option::is_some) {
                self.turn();
            }
            assert!(self.outcomes.iter().all(|o| o == &Some(Ok(()))));
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
    fn split_rig(tag: &str, quota: u64, clock: fn() -> u64) -> Rig {
        Rig::new(tag, &[2, 2], 2, quota, [1, 2], clock)
    }

    /// Four nodes of one thread, driven through the [`Group::turn`] that
    /// [`run_group`] loops on, every link in memory. Once warm, a turn
    /// neither frees nor regrows a member's inbound vector: same
    /// allocation, same capacity, however many frames pass through it.
    #[test]
    fn steady_state_iterations_never_realloc_inbound() {
        let mut rig = Rig::new("pin", &[4], 0, 1_000_000, [0, 1], monotonic_us);
        rig.turn_until(300, &mut |_| {});
        let pin = |rig: &mut Rig, i| {
            let inbound = rig.group_mut(0).hub.inbound(i);
            (inbound.as_ptr(), inbound.capacity())
        };
        let pins = [pin(&mut rig, 0), pin(&mut rig, 1)];
        assert!(pins.iter().all(|&(_, cap)| cap > 0));
        rig.turn_until(3_000, &mut |rig| {
            for (i, &pinned) in pins.iter().enumerate() {
                assert_eq!(pin(rig, i), pinned, "node {i} reallocated inbound");
            }
        });
        let hub = &rig.group(0).hub;
        assert_eq!(hub.shape(), (0, 0), "no socket: every link in memory");
        assert_eq!(
            (hub.stats().write_syscalls, hub.stats().read_syscalls),
            (0, 0)
        );
    }

    /// The daemon steps only what is ready or due: every step is paid
    /// for by frames in that node's inbox or its deadline having passed,
    /// and a member that no data frame ever reaches moves once, at
    /// `start` — not once per frame of its thread-mates, not once per
    /// control line, and not for the status, which is the group's.
    #[cfg(debug_assertions)]
    #[test]
    fn a_turn_steps_only_members_that_are_ready_or_due() {
        let mut rig = Rig::new("ready-or-due", &[4], 0, 1_000_000, [0, 1], monotonic_us);
        rig.turn_until(3_000, &mut |_| {});
        let slots: Vec<&StepAudit> = rig.group(0).slots.iter().map(|s| &s.audit).collect();
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
            let seen = (idle.steps, idle.events_seen, idle.deadlines_due);
            assert_eq!(seen, (1, 0, 1), "an idle member moves at start only");
        }
    }

    /// The tick runs on the group's clock. Only the source's group turns,
    /// so node 2's `Offer` across `1 ↔ 2` goes unanswered and its
    /// retransmission timer runs: its tick is all that can step it. On a
    /// clock that stands still the tick never comes, however many turns;
    /// `tick_ms` less 1 µs on, still not; 1 µs more, exactly once.
    #[cfg(debug_assertions)]
    #[test]
    fn the_tick_waits_for_the_groups_clock() {
        let mut rig = split_rig("tick", 1, hand_clock);
        let ticks = |rig: &Rig| rig.group(1).slots[0].audit.deadlines_due;
        rig.turn_group(1);
        let started = ticks(&rig);
        for _ in 0..300 {
            rig.turn_group(1);
        }
        let source = rig.node(2);
        assert!(source.ticking && source.counters.frames_received == 0);
        assert_eq!(ticks(&rig), started, "a clock that stands still");
        advance(TICK_US - 1);
        for _ in 0..30 {
            rig.turn_group(1);
        }
        assert_eq!(ticks(&rig), started, "1 µs short of the tick");
        advance(1);
        for _ in 0..30 {
            rig.turn_group(1);
        }
        assert_eq!(ticks(&rig), started + 1);
    }

    /// One status line per group, for all its members, the turn the
    /// group's cut goes quiet — not one per turn, not one per member — one
    /// keep-alive per `status_every` of the group's clock, and one answer
    /// per probe wave.
    #[test]
    fn a_group_writes_one_status_line_per_quiet_edge() {
        let mut rig = Rig::new("status", &[4], 0, 20, [0, 1], hand_clock);
        let pushed = |rig: &Rig| rig.group(0).pushed;
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
        // The clock stood still: the first line after `start` and the
        // quiet edge, however many turns that took.
        let lines = rig.statuses(0);
        assert_eq!(lines.len(), 2, "{lines:?} in {turns} turns");
        assert!(!lines[0].quiet(4) && lines[1] == quiet, "{lines:?}");
        assert!(lines.iter().all(|s| s.nodes == 4), "one line a group");
        // Then a keep-alive each `status_every`, and none a µs sooner.
        let every = TUNING.status_every_ms * 1_000;
        for k in 1..=3 {
            advance(every - 1);
            (0..3).for_each(|_| rig.turn());
            assert_eq!(rig.statuses(0).len(), 1 + k, "1 µs short");
            advance(1);
            (0..3).for_each(|_| rig.turn());
            assert_eq!(rig.statuses(0).len(), 2 + k);
        }

        writeln!(rig.root[0], "probe 7").unwrap();
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
    /// quiet edge, no member holds a ledger entry; the group's pipe holds,
    /// after `node` heads, `gen` / `del` lines with every entry each member
    /// generated or delivered, in order — each node's ghosts, of one kind,
    /// count up — and as many as the line counted; and the blocks `stop`
    /// draws carry empty `gen` and `del` lines.
    #[test]
    fn a_quiet_edge_ships_every_ledger_entry() {
        let mut rig = Rig::new("ledger", &[4], 0, 20, [0, 1], monotonic_us);
        let mut turns = 0u64;
        let quiet = loop {
            if let Some(s) = rig.group(0).pushed.filter(|s| s.quiet(4)) {
                break s;
            }
            assert!(turns < 100_000, "the group never went quiet");
            rig.turn();
            turns += 1;
        };
        for node in rig.nodes() {
            let fwd = &node.fwd;
            assert!(fwd.generated.is_empty() && fwd.delivered.is_empty());
            assert_eq!(node.totals(), node.shipped);
        }
        let streamed = rig.folded();
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
        // A delta rides behind its status line, never ahead of it: each
        // head follows the status line or the delta before it, and each
        // `gen` its head.
        let lines = rig.lines(0);
        for (i, line) in lines.iter().enumerate().skip(1) {
            let after = |tag: &[u8]| lines[i - 1].starts_with(tag);
            if line.starts_with(b"node ") {
                assert!(after(b"status ") || after(b"del"), "line {i}");
            } else if line.starts_with(b"gen") {
                assert!(after(b"node "), "line {i}");
            }
        }

        let from = rig.heard[0].len();
        rig.stop();
        let text = String::from_utf8_lossy(&rig.heard[0][from..]).into_owned();
        let blocks: Vec<&str> = text.split("report ").skip(1).collect();
        assert_eq!(blocks.len(), 4, "{text}");
        for block in blocks {
            assert!(block.contains("\ngen\ndel\nheld"), "{block}");
        }
    }

    /// Same address, same stream: each group of the split holds one
    /// listener, one out-stream — to the other — and the one stream it
    /// accepted, and a turn waits once, writes its stream at most once and
    /// reads at most once, whatever the frames it carries.
    #[test]
    fn a_turn_flushes_each_stream_once() {
        let mut rig = split_rig("once", 1_000_000, monotonic_us);
        let mut turns = 0u64;
        rig.turn_until(3_000, &mut |_| turns += 1);
        let sent: u64 = rig.nodes().map(|n| n.counters.frames_sent).sum();
        assert!(sent >= 6_000, "{sent} frames");
        for g in 0..2 {
            let hub = &rig.group(g).hub;
            assert_eq!(hub.shape(), (1, 1), "group {g}: (out-streams, accepted)");
            let io = hub.stats();
            assert!(
                io.write_syscalls > 0 && io.write_syscalls <= turns && io.read_syscalls <= turns,
                "group {g}: {} writes and {} reads in {turns} turns",
                io.write_syscalls,
                io.read_syscalls
            );
            assert_eq!(rig.group(g).waits, turns, "group {g}: one wait a turn");
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
        let mut rig = split_rig("stranger", 1_000_000, monotonic_us);
        rig.turn_until(30, &mut |_| {});
        let addr = rig.group(0).hub.addr();
        let path = addr.strip_prefix("uds:").unwrap().to_string();
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
            assert_eq!(rig.group(0).hub.shape(), (1, 1), "{why}");
        }
        // A link that does end here is taken, whoever dialled.
        let before = rig.node(1).counters.frames_received;
        let _neighbour = connect(&[WireFrame::Route { src: 2, dst: 1 }, data]);
        rig.turn_until(before + 30, &mut |_| {});
        assert_eq!(rig.group(0).hub.shape(), (1, 2));
    }

    /// The stream across the split is cut mid-run: the write that finds
    /// out drops what it held, the stream redials — once: a redialled
    /// stream that did not open with a `Route` would be hung up on at its
    /// first frame, and redial again — retransmission recovers what the
    /// cut lost, and the run ends with every message delivered exactly
    /// once.
    #[test]
    fn a_cut_stream_redials_and_the_run_stays_clean() {
        let mut rig = split_rig("cut", 400, monotonic_us);
        rig.turn_until(300, &mut |_| {});
        rig.group_mut(1).hub.cut_stream_for_test(0);
        let quiet = |rig: &Rig| rig.nodes().all(|n| n.done_issuing() && n.fwd.is_idle());
        let give_up = Instant::now() + Duration::from_secs(30);
        while !quiet(&rig) && Instant::now() < give_up {
            rig.turn();
        }
        assert!(quiet(&rig), "the run never drained");
        assert_eq!(rig.group(1).hub.stats().reconnects, 1);
        for g in 0..2 {
            assert_eq!(rig.group(g).hub.shape(), (1, 1));
        }
        rig.stop();
        let reports = rig.folded();
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

    /// A wait that cannot work ends the group instead of spinning it: one
    /// `error` line, charged to the lead, then the pipe closes. A busy
    /// group whose links are all in memory does not wait before its
    /// keep-alive, so the broken set shows at the keep-alive's turn.
    #[test]
    fn a_broken_poller_ends_the_group_with_an_error() {
        use std::io::Read;
        let mut rig = Rig::new("broken", &[4], 0, 1_000_000, [0, 1], hand_clock);
        rig.turn_until(30, &mut |_| {});
        rig.group_mut(0).poller.break_for_test();
        for _ in 0..300 {
            rig.turn();
        }
        assert_eq!(rig.outcomes[0], None, "a busy in-memory turn waited");
        advance(TUNING.status_every_ms * 1_000);
        rig.turn();
        let err = rig.outcomes[0]
            .clone()
            .expect("the group ended")
            .unwrap_err();
        let last = rig.lines(0).pop().unwrap();
        assert_eq!(String::from_utf8_lossy(&last), format!("error 0 {err}"));
        let s = &mut rig.root[0];
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rest = Vec::new();
        s.read_to_end(&mut rest).expect("EOF, not a timeout");
    }

    /// A busy group whose every link is in memory enters the kernel once
    /// per keep-alive, not once per sweep: on a clock that stands still its
    /// turns wait for nothing, read no control line and write no status
    /// line, however many frames they move. The first turn at the
    /// keep-alive waits once, writes the keep-alive line and reads what the
    /// root wrote meanwhile — a probe, which it answers in that turn.
    #[test]
    fn a_busy_in_memory_group_waits_once_per_keepalive() {
        let mut rig = Rig::new("keepalive", &[4], 0, 1_000_000, [0, 1], hand_clock);
        rig.turn_until(30, &mut |_| {});
        let waits = |rig: &Rig| rig.group(0).waits;
        let (before, lines) = (waits(&rig), rig.statuses(0).len());
        writeln!(rig.root[0], "probe 7").unwrap();
        let received = rig.node(1).counters.frames_received;
        for _ in 0..300 {
            rig.turn();
        }
        assert!(rig.node(1).counters.frames_received >= received + 100);
        assert_eq!(waits(&rig), before, "a busy turn waited");
        assert_eq!(rig.statuses(0).len(), lines, "a busy turn wrote a line");
        assert_eq!(rig.group(0).probe, 0, "read before the keep-alive");

        advance(TUNING.status_every_ms * 1_000);
        rig.turn();
        assert_eq!(waits(&rig), before + 1);
        let new: Vec<u64> = rig.statuses(0)[lines..].iter().map(|s| s.wave).collect();
        assert_eq!(new, [0, 7], "the keep-alive, then the probe's answer");
        for _ in 0..300 {
            rig.turn();
        }
        assert_eq!(waits(&rig), before + 1, "not before the next keep-alive");
    }

    /// A started group whose pipe the root shuts down — the run failed
    /// elsewhere — has nobody to report to: it shuts its hub down, which
    /// unlinks its listener, and ends `Ok`, as `run_group` then does,
    /// writing nothing into the shut socket. A group that read the EOF as
    /// `stop` would write its reports there, and a worker process would
    /// print "Broken pipe".
    #[test]
    fn a_pipe_shut_after_start_ends_the_group_quietly() {
        use std::io::Read;
        let mut rig = split_rig("hangup", 0, hand_clock);
        let quiet = |rig: &Rig, g| rig.group(g).pushed.is_some_and(|s| s.quiet(2));
        while !(quiet(&rig, 0) && quiet(&rig, 1)) {
            rig.turn();
        }
        (0..3).for_each(|_| rig.turn());
        let heard = rig.heard.clone();
        for s in &rig.root {
            s.shutdown(std::net::Shutdown::Write).unwrap();
        }
        while rig.groups.iter().any(Option::is_some) {
            rig.turn();
        }
        assert_eq!(rig.outcomes, [Some(Ok(())), Some(Ok(()))]);
        assert!(rig.heard == heard, "a group wrote after the EOF");
        for s in &mut rig.root {
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut rest = Vec::new();
            assert_eq!(s.read_to_end(&mut rest).expect("EOF, not a timeout"), 0);
        }
        for lead in ["node0.sock", "node2.sock"] {
            assert!(!rig.dir.join(lead).exists(), "{lead} was not unlinked");
        }
    }

    /// A control line the group cannot read ends it with an error naming
    /// the line, cut to 64 bytes: a probe wave it read as 0 would never
    /// be answered, and the run would stall to its timeout.
    #[test]
    fn a_group_refuses_a_control_line_it_cannot_read() {
        let long = format!("probe 1{}", "0".repeat(80));
        let shown_long = format!("\"{}\"…", &long[..64]);
        for (line, shown) in [("probe x", "\"probe x\""), (&long, &shown_long)] {
            let mut rig = Rig::new("refuse", &[4], 0, 20, [0, 1], monotonic_us);
            writeln!(rig.root[0], "{line}").unwrap();
            while rig.outcomes[0].is_none() {
                rig.turn();
            }
            let err = rig.outcomes[0].clone().unwrap().unwrap_err();
            assert_eq!(err, format!("the group refuses a control line: {shown}"));
            let last = rig.lines(0).pop().unwrap();
            assert_eq!(String::from_utf8_lossy(&last), format!("error 0 {err}"));
        }
    }

    /// Each group builds one BFS tree per destination for all its
    /// members, and every member's next hop to every other node is still
    /// its parent in that node's tree — on a grid, a caterpillar and a
    /// random graph, each split into two groups.
    #[test]
    fn every_members_next_hop_is_its_bfs_parent() {
        use ssmfp_topology::gen;
        let random = gen::erdos_renyi(16, 0.3, 5).expect("a connected sample");
        for graph in [gen::grid(4, 5), gen::caterpillar(4, 2), random] {
            let n = graph.n();
            let run = Run {
                graph: graph.clone(),
                seed: 1,
                listen: ListenSpec::Tcp,
                workload: WorkloadSpec {
                    kind: crate::workload::WorkloadKind::Closed { outstanding: 1 },
                    messages: 0,
                },
                chaos: ChaosSpec::none(),
                clients: None,
            };
            for ids in [0..n / 3, n / 3..n] {
                let (_root, pipe) = UnixStream::pair().unwrap();
                let group = Group::new(&run, ids.collect(), pipe, monotonic_us).unwrap();
                for node in group.slots.iter().map(|s| &s.node) {
                    for d in (0..n).filter(|&d| d != node.p) {
                        let parent = BfsTree::new(&graph, d).parent(node.p);
                        assert_eq!(Some(node.fwd.route(d)), parent, "{} → {d}", node.p);
                    }
                }
            }
        }
    }
}
