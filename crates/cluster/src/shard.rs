//! The shard supervisor. Each `shard.super` thread launches its shard's
//! one node group — on a `node.main` thread in [`RunMode::Inproc`], as one
//! `--node-worker` process in [`RunMode::Proc`] — and listens to that
//! group's control pipe until every member has reported: it passes the
//! group's `ready` and `status` lines up as it reads them, folds the
//! members' ledger lines into their reports and joins them as they stream
//! in ([`ShardAudit`]), and ends with one [`ShardReport`]. It writes
//! nothing down the pipe: the orchestrator holds a clone of the same end
//! and writes the group's control lines itself. The tree it is a level of
//! is [`crate::orchestrator`]'s.

use crate::codec::{node_args, shown, NodeReport, ReportFold, Status};
use crate::conc::COMPONENT;
use crate::evloop::{take_lines, Poller, POLLIN};
use crate::node::{run_group, Run};
use crate::orchestrator::{LedgerFlow, RunMode, ShardReport, ShardSummary, ShardUp};
use crate::tuning::TUNING;
use ssmfp_core::conc::{register_thread, spawn_registered, TrackedSender};
use ssmfp_core::RunningAudit;
use ssmfp_topology::NodeId;
use std::io::{self, Read};
use std::net::Shutdown;
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

/// A shard's one node group: the supervisor's end of the group's control
/// socketpair, what runs the group, and what the shard has read of it.
struct GroupSlot {
    /// The supervisor's end (nonblocking; the orchestrator writes down a
    /// clone of it).
    pipe: UnixStream,
    runner: Runner,
    /// Read accumulator (partial control lines).
    acc: Vec<u8>,
    eof: bool,
    /// The group wrote its `ready` line.
    ready: bool,
    /// Its members' reports as their lines arrive ([`GroupSlot::hear`]).
    fold: ReportFold,
    /// By member, how much of its report's generated and delivered lists
    /// the shard's running join has been fed.
    audited: Vec<(usize, usize)>,
}

impl GroupSlot {
    fn new(members: Range<NodeId>, pipe: UnixStream, runner: Runner) -> Self {
        GroupSlot {
            pipe,
            runner,
            acc: Vec::new(),
            eof: false,
            ready: false,
            audited: vec![(0, 0); members.len()],
            fold: ReportFold::new(members),
        }
    }

    /// Launches the group of the shard's `members` of `run` on the group's
    /// end of the control socketpair, `group_side`: on a `node.main`
    /// thread inproc, as a `--node-worker` process with it as fd 0
    /// otherwise. The shard keeps the other end, `pipe`.
    fn spawn(
        run: Arc<Run>,
        members: Range<NodeId>,
        mode: &RunMode,
        (pipe, group_side): (UnixStream, UnixStream),
    ) -> io::Result<Self> {
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

    /// One line from the group, read where it lies: `ready` and `status`
    /// are the orchestrator's, returned to go up as they are read; an
    /// `error` line ends the shard with it; every other line folds into the
    /// report of the member the last head named the moment it completes.
    /// A line no reader takes is an error: the group's status or ledger
    /// past it would be a guess.
    fn hear(&mut self, line: &[u8]) -> Result<Option<ShardUp>, String> {
        if let Some(addr) = line.strip_prefix(b"ready ") {
            self.ready = true;
            let addr = String::from_utf8_lossy(addr).into_owned();
            return Ok(Some(ShardUp::Ready(addr)));
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
        self.fold.fold(line).ok_or_else(|| self.refused(line))?;
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

    /// Shuts the control pipe down — a drop would not do: the orchestrator
    /// holds a clone — so a group still running reads EOF and winds down,
    /// and only then waits for its runner: joins the thread, or reaps the
    /// process, killing it once it outstays its grace.
    fn finish(self) {
        let _ = self.pipe.shutdown(Shutdown::Both);
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
/// runs the next one at once, so a line from the group — a probe answer
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

/// One shard supervisor: spawns its node group on the `ends` of the
/// group's control socketpair — the supervisor's, then the group's — and
/// listens to the group until every member has reported, then sends the
/// shard's report up and winds the group down.
pub(crate) fn shard_main(
    shard: usize,
    run: Arc<Run>,
    members: Range<NodeId>,
    mode: RunMode,
    ends: (UnixStream, UnixStream),
    up: TrackedSender<(usize, ShardUp)>,
) {
    register_thread(COMPONENT, "shard.super");
    let send_up = |msg: ShardUp| {
        // Untimed `ChanSend(orch.shard)` — the declared upstream edge.
        // A disconnected receiver means the orchestrator already gave
        // up; keep going so the group still gets finished.
        let _ = up.send((shard, msg));
    };
    let mut slot = match GroupSlot::spawn(run, members, &mode, ends) {
        Ok(slot) => slot,
        Err(e) => return send_up(ShardUp::Error(format!("spawn {e}"))),
    };
    let outcome = watch(&slot).map_err(shard_wait).and_then(|mut poll| {
        let mut audit = ShardAudit::default();
        supervise(&mut poll, &mut slot, &mut audit, &send_up)?;
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

/// A shard's readiness set: the group's control pipe, its one fd. The
/// shard leaves the loop at the pipe's EOF, so the level-triggered
/// `POLLHUP` of a closed writer never spins it.
fn watch(slot: &GroupSlot) -> io::Result<Poller> {
    let (poll, fd) = (Poller::new()?, slot.pipe.as_raw_fd());
    poll.add(fd, POLLIN, 0)?;
    Ok(poll)
}

/// The supervision loop, on the set [`watch`] built, until every member
/// has reported. It sends the group's `ready` and `status` lines up as it
/// reads them: a group writes status on a quiet edge, a probe answer or a
/// keep-alive, so the shard paces nothing, and its wait is capped at 50 ms
/// only to keep the declared read edge timed. A wait that fails —
/// anything but `EINTR` — a line the group wrote that the shard cannot
/// read, the group's `error` line, and a pipe that closes before every
/// member sent its report cannot be retried into working: each ends the
/// shard at once with the error instead of spinning or stalling it. How
/// long the reports may take after `stop` is the orchestrator's deadline,
/// not the shard's. Each turn ends with the running join of what the turn
/// folded, after its status went up ([`ShardAudit::catch_up`]).
fn supervise(
    poll: &mut Poller,
    slot: &mut GroupSlot,
    audit: &mut ShardAudit,
    send_up: &dyn Fn(ShardUp),
) -> Result<(), String> {
    let mut scratch = vec![0u8; 16 * 1024];
    let mut backlog = false;
    loop {
        let timeout = if backlog {
            Duration::ZERO
        } else {
            Duration::from_millis(50)
        };
        // One fd: any event — `POLLIN`, `POLLERR`, `POLLHUP` — is a read.
        let readable = !poll.wait(Some(timeout)).map_err(shard_wait)?.is_empty();
        // Nonblocking fd: drain to WouldBlock.
        while readable && !slot.eof {
            match (&slot.pipe).read(&mut scratch) {
                Ok(0) => slot.eof = true,
                Ok(k) => {
                    let mut acc = std::mem::take(&mut slot.acc);
                    let mut heard = Ok(());
                    take_lines(&mut acc, &scratch[..k], |line| {
                        if heard.is_ok() {
                            heard = slot.hear(line).map(|up| up.into_iter().for_each(send_up));
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
        match slot.fold.unended() {
            None => return Ok(()),
            Some(node) if slot.eof => {
                return Err(if slot.ready {
                    format!("node {node} hung up before its report")
                } else {
                    format!("node {node} exited before ready")
                })
            }
            Some(_) => {}
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
        ..slot.fold.ledger
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
    use std::io::Write;
    use std::sync::mpsc::RecvTimeoutError;

    /// A shard of one inproc group, node `id`: the group's end of its
    /// control pipe, and the shard's slot for it, run by a thread that is
    /// done.
    fn shard_of_one(id: NodeId) -> (UnixStream, GroupSlot) {
        let (sup_side, group_side) = UnixStream::pair().unwrap();
        sup_side.set_nonblocking(true).unwrap();
        let runner = Runner::Thread(thread::spawn(|| {}));
        let slot = GroupSlot::new(id..id + 1, sup_side, runner);
        (group_side, slot)
    }

    /// A wait that cannot work ends the shard with the error instead of
    /// spinning it at full CPU with the error dropped.
    #[test]
    fn a_broken_poller_ends_the_shard_with_an_error() {
        let (_group_side, slot) = shard_of_one(0);
        let mut poll = watch(&slot).unwrap();
        poll.break_for_test();
        let outcome = supervise_briefly(poll, slot);
        let err = outcome.expect("the shard spun").unwrap_err();
        assert!(err.starts_with("shard wait:"), "{err}");
    }

    /// What `supervise` returns within five seconds, run on a thread of its
    /// own.
    fn supervise_briefly(
        mut poll: Poller,
        mut slot: GroupSlot,
    ) -> Result<Result<(), String>, RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut audit = ShardAudit::default();
            let _ = tx.send(supervise(&mut poll, &mut slot, &mut audit, &|_| {}));
        });
        rx.recv_timeout(Duration::from_secs(5))
    }

    /// A group that writes a `status` line the codec refuses ends its shard
    /// at once, with an error naming the node and the line, instead of
    /// leaving the shard on the group's last good status until the run
    /// times out.
    #[test]
    fn a_refused_status_line_ends_the_shard_with_an_error() {
        let (mut group_side, slot) = shard_of_one(7);
        let poll = watch(&slot).unwrap();
        group_side
            .write_all(b"ready here\nstatus 0 1 1 2 2 0 0\nstatus 0 1 x 2 2 0 0\n")
            .unwrap();
        let outcome = supervise_briefly(poll, slot);
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
        let (mut group_side, slot) = shard_of_one(3);
        let poll = watch(&slot).unwrap();
        group_side.write_all(b"ready here\n").unwrap();
        drop(group_side);
        let outcome = supervise_briefly(poll, slot);
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
            let (mut group_side, slot) = shard_of_one(3);
            let poll = watch(&slot).unwrap();
            group_side.write_all(said.as_bytes()).unwrap();
            let outcome = supervise_briefly(poll, slot);
            let err = outcome.expect("the shard kept running").unwrap_err();
            assert_eq!(err, want);
        }
    }
}
