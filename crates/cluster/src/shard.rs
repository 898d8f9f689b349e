//! The shard supervisor. Each `shard.super` thread launches its shard's
//! one node group — on a `node.main` thread in [`RunMode::Inproc`], as one
//! `--node-worker` process in [`RunMode::Proc`] — and stands between that
//! group's control pipe and the orchestrator until every member has
//! reported: it forwards the orchestrator's lines down, passes the group's
//! `ready` and `status` lines up as it reads them, folds the members'
//! ledger lines into their reports and joins them as they stream in
//! ([`ShardAudit`]), and ends with one [`ShardReport`]. The tree it is a
//! level of is [`crate::orchestrator`]'s.

use crate::codec::{node_args, shown, NodeReport, ReportFold, Status};
use crate::conc::COMPONENT;
use crate::evloop::{take_lines, Poller, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::node::{run_group, Run};
use crate::orchestrator::{LedgerFlow, RunMode, ShardReport, ShardSummary, ShardUp};
use crate::tuning::TUNING;
use ssmfp_core::conc::{register_thread, spawn_registered, TrackedSender};
use ssmfp_core::RunningAudit;
use ssmfp_topology::NodeId;
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::{AsRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What runs a shard's node group.
enum Runner {
    /// The shard's `node.main` thread ([`RunMode::Inproc`]).
    Thread(JoinHandle<()>),
    /// A `--node-worker` process ([`RunMode::Proc`]).
    Child(Child),
}

/// A shard's one node group: its end of the group's control socketpair,
/// what runs the group, and what the shard has read of it.
struct GroupSlot {
    /// The supervisor's end (nonblocking).
    pipe: UnixStream,
    runner: Runner,
    /// Read accumulator (partial control lines).
    acc: Vec<u8>,
    /// Staged downward control bytes, written on `POLLOUT` only.
    staged: Vec<u8>,
    staged_at: usize,
    eof: bool,
    /// The group wrote its `ready` line.
    ready: bool,
    /// Its members' reports as their lines arrive ([`GroupSlot::hear`]).
    fold: ReportFold,
    /// By member, how much of its report's generated and delivered lists
    /// the shard's running join has been fed.
    audited: Vec<(usize, usize)>,
    /// Its members' ledger entries folded before and after `stop`.
    ledger: LedgerFlow,
    /// The interest registered for the pipe.
    watched: i16,
}

impl GroupSlot {
    fn new(members: Range<NodeId>, pipe: UnixStream, runner: Runner) -> Self {
        GroupSlot {
            pipe,
            runner,
            acc: Vec::new(),
            staged: Vec::new(),
            staged_at: 0,
            eof: false,
            ready: false,
            audited: vec![(0, 0); members.len()],
            fold: ReportFold::new(members),
            ledger: LedgerFlow::default(),
            watched: 0,
        }
    }

    /// Launches the group of the shard's `members` of `run` over a new
    /// control socketpair: on a `node.main` thread inproc, as a
    /// `--node-worker` process with its end of the pair as fd 0 otherwise.
    fn spawn(run: Arc<Run>, members: Range<NodeId>, mode: &RunMode) -> io::Result<Self> {
        let (pipe, group_side) = UnixStream::pair()?;
        pipe.set_nonblocking(true)?;
        let runner = match mode {
            RunMode::Inproc => {
                let ids = members.clone().collect();
                // What the group reports, and what ended it, goes up the pipe.
                Runner::Thread(spawn_registered(COMPONENT, "node.main", move || {
                    let _ = run_group(&run, ids, group_side);
                }))
            }
            RunMode::Proc { exe } => Runner::Child(
                Command::new(exe)
                    .arg("--node-worker")
                    .args(node_args(members.clone(), &run))
                    .stdin(OwnedFd::from(group_side))
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()?,
            ),
        };
        Ok(GroupSlot::new(members, pipe, runner))
    }

    /// The member a failure of the whole group is charged to: the first.
    fn lead(&self) -> NodeId {
        self.fold.reports[0].node
    }

    fn stage(&mut self, line: &[u8]) {
        self.staged.extend_from_slice(line);
        self.staged.push(b'\n');
    }

    /// One line from the group, read where it lies: `ready` and `status`
    /// are the orchestrator's, returned to go up as they are read; an
    /// `error` line ends the shard with it; every other line folds into the
    /// report of the member the last head named the moment it completes —
    /// ledger deltas whenever they come, counted as streamed or, once the
    /// shard read `stop`, as tail. A line no reader takes is an error: the
    /// group's status or ledger past it would be a guess.
    fn hear(&mut self, line: &[u8], stopped: bool) -> Result<Option<ShardUp>, String> {
        if let Some(addr) = line.strip_prefix(b"ready ") {
            self.ready = true;
            let addr = String::from_utf8_lossy(addr);
            let members = self.fold.reports.iter();
            return Ok(Some(ShardUp::Ready(
                members.map(|r| (r.node, addr.to_string())).collect(),
            )));
        }
        if let Some(rest) = line.strip_prefix(b"status ") {
            let status = Status::parse(rest).ok_or_else(|| self.refused(line))?;
            return Ok(Some(ShardUp::Status(status)));
        }
        if line.starts_with(b"error ") {
            let said = String::from_utf8_lossy(line);
            return Err(if self.ready {
                said.into_owned()
            } else {
                format!("node {} exited before ready: {said}", self.lead())
            });
        }
        let entries = self.fold.fold(line).ok_or_else(|| self.refused(line))?;
        if stopped {
            self.ledger.tail += entries;
        } else {
            self.ledger.streamed += entries;
        }
        Ok(None)
    }

    /// The error that ends the shard on a line it cannot read, charged to
    /// the group's lead.
    fn refused(&self, line: &[u8]) -> String {
        let shown = shown(line);
        format!(
            "node {} wrote a line the shard refuses: {shown}",
            self.lead()
        )
    }

    /// Keeps the pipe's registration at what the shard still waits for:
    /// the group's lines until EOF — a socket whose writer closed stays
    /// open, and level-triggered `POLLHUP` would spin the loop — and
    /// writability while bytes are staged.
    fn watch(&mut self, poll: &Poller) -> io::Result<()> {
        let read = if self.eof { 0 } else { POLLIN };
        let write = if self.staged_at < self.staged.len() {
            POLLOUT
        } else {
            0
        };
        let (fd, want) = (self.pipe.as_raw_fd(), read | write);
        match (self.watched, want) {
            (had, want) if had == want => {}
            (0, _) => poll.add(fd, want, Poller::token(GROUP, fd))?,
            (_, 0) => poll.del(fd)?,
            _ => poll.modify(fd, want, Poller::token(GROUP, fd))?,
        }
        self.watched = want;
        Ok(())
    }

    /// Closes the control pipe — a group still running reads EOF and winds
    /// down — and only then waits for its runner: joins the thread, or
    /// reaps the process, killing it once it outstays its grace.
    fn finish(self) {
        drop(self.pipe);
        match self.runner {
            // Whatever ended the group — error or panic — already reached
            // the supervisor, as an `error` line or as EOF.
            Runner::Thread(join) => {
                let _ = join.join();
            }
            Runner::Child(mut child) => {
                let deadline = Instant::now() + TUNING.proc_exit_grace();
                while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                    thread::sleep(TUNING.proc_wait_poll());
                }
                // A no-op on a child already reaped.
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

/// Ledger entries a shard joins per loop turn. A turn that leaves more
/// runs the next one at once, so a line from the orchestrator — a probe
/// at the end of a run — waits on at most this many.
const JOIN_PER_TURN: usize = 1024;

/// A shard's running SP join over its nodes' ledgers, and the time it
/// took.
#[derive(Default)]
struct ShardAudit {
    audit: RunningAudit,
    spent: Duration,
}

impl ShardAudit {
    /// Feeds the join about [`JOIN_PER_TURN`] of the entries folded since
    /// it was last fed, and settles it. Each list gives its share of the
    /// turn's entries, oldest first, so the two ends of a ghost tend to
    /// meet in one settle. True while entries are left.
    fn catch_up(&mut self, s: &mut GroupSlot) -> bool {
        let members = s.fold.reports.iter().zip(&s.audited);
        let behind = |(r, (g, d)): (&NodeReport, &(usize, usize))| {
            r.generated.len() + r.delivered.len() - g - d
        };
        let backlog: usize = members.map(behind).sum();
        if backlog == 0 {
            return false;
        }
        let t = Instant::now();
        let share = |len: usize, at: usize| {
            at + (len - at).min(((len - at) * JOIN_PER_TURN).div_ceil(backlog))
        };
        for (r, audited) in s.fold.reports.iter().zip(&mut s.audited) {
            let (g, d) = *audited;
            *audited = (share(r.generated.len(), g), share(r.delivered.len(), d));
            self.audit.generated(&r.generated[g..audited.0]);
            self.audit.delivered(r.node, &r.delivered[d..audited.1]);
        }
        self.audit.settle();
        self.spent += t.elapsed();
        backlog > JOIN_PER_TURN
    }
}

/// The owner halves of the [`Poller::token`]s in a shard's set: the
/// orchestrator socketpair's and the group's control pipe's.
const ORCH: usize = u32::MAX as usize;
const GROUP: usize = 0;

/// One shard supervisor: spawns its node group and supervises it over
/// the group's control pipe and the orchestrator socketpair until every
/// member has reported, then sends the shard's report up and winds the
/// group down.
pub(crate) fn shard_main(
    shard: usize,
    run: Arc<Run>,
    members: Range<NodeId>,
    mode: RunMode,
    orch: UnixStream,
    up: TrackedSender<(usize, ShardUp)>,
) {
    register_thread(COMPONENT, "shard.super");
    let send_up = |msg: ShardUp| {
        // Untimed `ChanSend(orch.shard)` — the declared upstream edge.
        // A disconnected receiver means the orchestrator already gave
        // up; keep going so the group still gets finished.
        let _ = up.send((shard, msg));
    };
    let mut slot = match GroupSlot::spawn(run, members, &mode) {
        Ok(slot) => slot,
        Err(e) => return send_up(ShardUp::Error(format!("spawn {e}"))),
    };
    let outcome = watch(&orch, &mut slot)
        .map_err(shard_wait)
        .and_then(|mut poll| {
            let mut audit = ShardAudit::default();
            supervise(&mut poll, &orch, &mut slot, &mut audit, &send_up)?;
            Ok(shard_report(shard, &mut slot, audit))
        });
    send_up(match outcome {
        Ok(report) => ShardUp::Done(Box::new(report)),
        Err(e) => ShardUp::Error(e),
    });
    slot.finish();
}

fn shard_wait(e: io::Error) -> String {
    format!("shard wait: {e}")
}

/// A shard's readiness set: the orchestrator socketpair and the group's
/// control pipe, each registered for as long as the shard waits on it.
fn watch(orch: &UnixStream, slot: &mut GroupSlot) -> io::Result<Poller> {
    let (poll, fd) = (Poller::new()?, orch.as_raw_fd());
    poll.add(fd, POLLIN, Poller::token(ORCH, fd))?;
    slot.watch(&poll)?;
    Ok(poll)
}

/// The supervision loop, on the set [`watch`] built, until every member
/// has reported. It forwards the orchestrator's lines down to the group
/// (staged, `POLLOUT`-gated — the declared timed write) and sends the
/// group's `ready` and `status` lines up as it reads them: a group writes
/// status on a quiet edge, a probe answer or a keep-alive, so the shard
/// paces nothing. A wait that fails — anything but `EINTR` — a
/// registration the set refuses, a line the group wrote that the shard
/// cannot read, the group's `error` line, and a pipe that closes before
/// every member sent its report cannot be retried into working: each ends
/// the shard at once with the error instead of spinning or stalling it.
/// Each turn ends with the running join of what the turn folded, after
/// its status went up ([`ShardAudit::catch_up`]).
fn supervise(
    poll: &mut Poller,
    orch: &UnixStream,
    slot: &mut GroupSlot,
    audit: &mut ShardAudit,
    send_up: &dyn Fn(ShardUp),
) -> Result<(), String> {
    let mut events: Vec<(u64, i16)> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut orch_acc: Vec<u8> = Vec::new();
    // Set once the shard read `stop`: when every report is due.
    let mut report_deadline: Option<Instant> = None;
    let mut backlog = false;
    loop {
        let cap = Duration::from_millis(50);
        let timeout = match report_deadline {
            _ if backlog => Duration::ZERO,
            Some(due) => due.saturating_duration_since(Instant::now()).min(cap),
            None => cap,
        };
        events.clear();
        events.extend_from_slice(poll.wait(Some(timeout)).map_err(shard_wait)?);
        let ready = |owner: usize| {
            let mine = events.iter().find(|&&(t, _)| Poller::untoken(t).0 == owner);
            mine.map_or(0, |&(_, ev)| ev)
        };
        let (orch_ev, ev) = (ready(ORCH), ready(GROUP));

        // Orchestrator lines first: forward verbatim to the group. (The
        // shard's end of the socketpair is blocking: one single-shot read
        // per POLLIN readiness never blocks.)
        if orch_ev != 0 {
            let mut stop = false;
            let orch_eof = match (&*orch).read(&mut scratch) {
                Ok(0) => true,
                Ok(k) => {
                    take_lines(&mut orch_acc, &scratch[..k], |line| {
                        slot.stage(line);
                        stop |= line.starts_with(b"stop");
                    });
                    false
                }
                Err(e) => !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ),
            };
            if orch_eof {
                // It stays open: out of the level-triggered set by hand.
                poll.del(orch.as_raw_fd()).map_err(shard_wait)?;
                if report_deadline.is_none() {
                    // Orchestrator gone: wind the run down cleanly.
                    slot.stage(b"stop");
                    stop = true;
                }
            }
            if stop && report_deadline.is_none() {
                report_deadline = Some(Instant::now() + TUNING.report_grace());
            }
        }

        // Group lines (nonblocking fd: drain to WouldBlock).
        let readable = ev & (POLLIN | POLLERR | POLLHUP) != 0;
        let stopped = report_deadline.is_some();
        while readable && !slot.eof {
            match (&slot.pipe).read(&mut scratch) {
                Ok(0) => slot.eof = true,
                Ok(k) => {
                    let mut acc = std::mem::take(&mut slot.acc);
                    let mut heard = Ok(());
                    take_lines(&mut acc, &scratch[..k], |line| {
                        if heard.is_ok() {
                            heard = slot
                                .hear(line, stopped)
                                .map(|up| up.into_iter().for_each(send_up));
                        }
                    });
                    slot.acc = acc;
                    heard?;
                    if k < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => slot.eof = true,
            }
        }
        if let Some(node) = slot.fold.unended().filter(|_| slot.eof) {
            return Err(if slot.ready {
                format!("node {node} hung up before its report")
            } else {
                format!("node {node} exited before ready")
            });
        }
        // Staged downward writes, POLLOUT-gated (the declared timed
        // `SockWrite(node.main)` edge — the shard never blocks on its
        // group).
        let writable = ev & (POLLOUT | POLLERR | POLLHUP) != 0;
        while writable && slot.staged_at < slot.staged.len() {
            match (&slot.pipe).write(&slot.staged[slot.staged_at..]) {
                Ok(0) => break,
                Ok(k) => slot.staged_at += k,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Group gone; the read side will surface EOF.
                Err(_) => slot.staged_at = slot.staged.len(),
            }
        }
        if slot.staged_at == slot.staged.len() {
            slot.staged.clear();
            slot.staged_at = 0;
        }
        slot.watch(poll).map_err(shard_wait)?;

        if let Some(due) = report_deadline {
            let Some(missing) = slot.fold.unended() else {
                return Ok(());
            };
            if Instant::now() >= due {
                return Err(format!("node {missing} sent no report in time"));
            }
        }
        backlog = audit.catch_up(slot);
    }
}

/// Takes every member's folded report, and the running join over them,
/// into the pre-merged shard report.
fn shard_report(shard: usize, slot: &mut GroupSlot, mut audit: ShardAudit) -> ShardReport {
    while audit.catch_up(slot) {}
    audit.audit.close();
    let ledger = LedgerFlow {
        join_s: audit.spent.as_secs_f64(),
        pending_peak: audit.audit.pending_peak(),
        ..slot.ledger
    };
    let reports = std::mem::take(&mut slot.fold.reports);
    ShardReport {
        shard,
        summary: ShardSummary {
            shard,
            ledger,
            ..ShardSummary::of(&reports)
        },
        reports,
        audit: audit.audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::RecvTimeoutError;

    /// A shard of one inproc group, node `id`: the orchestrator's end of
    /// the shard's socketpair, the shard's end, the group's end of its
    /// control pipe, and the shard's slot for it, run by a thread that is
    /// done.
    fn shard_of_one(id: NodeId) -> (UnixStream, UnixStream, UnixStream, GroupSlot) {
        let (orch_side, orch) = UnixStream::pair().unwrap();
        let (sup_side, group_side) = UnixStream::pair().unwrap();
        sup_side.set_nonblocking(true).unwrap();
        let runner = Runner::Thread(thread::spawn(|| {}));
        let slot = GroupSlot::new(id..id + 1, sup_side, runner);
        (orch_side, orch, group_side, slot)
    }

    /// A wait that cannot work ends the shard with the error instead of
    /// spinning it at full CPU with the error dropped.
    #[test]
    fn a_broken_poller_ends_the_shard_with_an_error() {
        let (_orch_side, orch, _group_side, mut slot) = shard_of_one(0);
        let mut poll = watch(&orch, &mut slot).unwrap();
        poll.break_for_test();
        let outcome = supervise_briefly(poll, orch, slot);
        let err = outcome.expect("the shard spun").unwrap_err();
        assert!(err.starts_with("shard wait:"), "{err}");
    }

    /// What `supervise` returns within five seconds, run on a thread of its
    /// own.
    fn supervise_briefly(
        mut poll: Poller,
        orch: UnixStream,
        mut slot: GroupSlot,
    ) -> Result<Result<(), String>, RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut audit = ShardAudit::default();
            let _ = tx.send(supervise(&mut poll, &orch, &mut slot, &mut audit, &|_| {}));
        });
        rx.recv_timeout(Duration::from_secs(5))
    }

    /// A group that writes a `status` line the codec refuses ends its shard
    /// at once, with an error naming the node and the line, instead of
    /// leaving the shard on the group's last good status until the run
    /// times out.
    #[test]
    fn a_refused_status_line_ends_the_shard_with_an_error() {
        let (_orch_side, orch, mut group_side, mut slot) = shard_of_one(7);
        let poll = watch(&orch, &mut slot).unwrap();
        group_side
            .write_all(b"ready here\nstatus 0 1 1 2 2 0 0\nstatus 0 1 x 2 2 0 0\n")
            .unwrap();
        let outcome = supervise_briefly(poll, orch, slot);
        let err = outcome.expect("the shard kept running").unwrap_err();
        assert_eq!(
            err,
            "node 7 wrote a line the shard refuses: \"status 0 1 x 2 2 0 0\""
        );
    }

    /// A group whose pipe closes mid-run — a killed worker, a panicked
    /// data thread — ends its shard at once, naming the node that sent no
    /// report, instead of leaving the root to wait out its timeout for a
    /// quiet cut that never comes.
    #[test]
    fn a_pipe_that_closes_mid_run_ends_the_shard_at_once() {
        let (mut orch_side, orch, mut group_side, mut slot) = shard_of_one(3);
        let poll = watch(&orch, &mut slot).unwrap();
        // The shard reads the orchestrator's lines before a group's, so it
        // is running by the time it reads `ready` and then EOF.
        group_side.write_all(b"ready here\n").unwrap();
        orch_side.write_all(b"start\n").unwrap();
        drop(group_side);
        let outcome = supervise_briefly(poll, orch, slot);
        let err = outcome
            .expect("the shard waited for its timeout")
            .unwrap_err();
        assert_eq!(err, "node 3 hung up before its report");
    }

    /// A group's `error` line ends its shard at once, and the shard's
    /// error carries the line — behind the node that never got ready, if
    /// it failed on the way up.
    #[test]
    fn a_group_error_line_ends_the_shard_with_it() {
        for (said, want) in [
            ("ready here\nerror 3 boom\n", "error 3 boom"),
            ("error 3 boom\n", "node 3 exited before ready: error 3 boom"),
        ] {
            let (_orch_side, orch, mut group_side, mut slot) = shard_of_one(3);
            let poll = watch(&orch, &mut slot).unwrap();
            group_side.write_all(said.as_bytes()).unwrap();
            let outcome = supervise_briefly(poll, orch, slot);
            let err = outcome.expect("the shard kept running").unwrap_err();
            assert_eq!(err, want);
        }
    }
}
