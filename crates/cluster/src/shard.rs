//! The root's side of the node groups. [`Groups::launch`] starts each
//! shard's one node group — on a `node.main` thread in
//! [`RunMode::Inproc`], as one `--node-worker` process in
//! [`RunMode::Proc`] — and keeps the root's end of the group's control
//! socketpair in a [`GroupSlot`]. The K ends sit in one readiness set, and
//! the root's loop ([`Groups::turn`]) reads every group's lines where they
//! lie: it records `ready`, hands each `status` to the caller as it reads
//! it, ends the run on an `error` line or a line it cannot read, and folds
//! the members' ledger lines into their reports, which it joins into the
//! run's one [`RunningAudit`] as they stream in. The root writes every
//! control line down the same ends ([`Groups::tell`]). The tree this is
//! the root's half of is [`crate::orchestrator`]'s.

use crate::codec::{node_args, shown, take_lines, NodeReport, ReportFold, Status};
use crate::evloop::{Poller, POLLIN, POLLOUT};
use crate::group::run_group;
use crate::node::Run;
use crate::orchestrator::{LedgerFlow, RunMode, ShardSummary};
use crate::tuning::{Graces, TUNING};
use ssmfp_core::{ClusterVerdict, RunningAudit};
use ssmfp_topology::NodeId;
use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::ops::Range;
use std::os::unix::io::{AsRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What runs a shard's node group.
enum Runner {
    /// The shard's `node.main` thread ([`RunMode::Inproc`]), and the
    /// channel its end hangs up.
    Thread(JoinHandle<()>, Receiver<()>),
    /// A `--node-worker` process ([`RunMode::Proc`]).
    Child(Child),
}

impl Runner {
    /// Runs `group` on a `node.main` thread whose end — a return or a
    /// panic — hangs up the runner's channel.
    fn thread(group: impl FnOnce() + Send + 'static) -> io::Result<Self> {
        let (ended, end) = mpsc::channel();
        let main = move || {
            let _ended: Sender<()> = ended;
            group()
        };
        let join = thread::Builder::new()
            .name("node.main".into())
            .spawn(main)?;
        Ok(Runner::Thread(join, end))
    }
}

/// A shard's one node group: the root's end of the group's control
/// socketpair, and what the root has read of it.
struct GroupSlot {
    /// The root's end (nonblocking): it writes the group's control lines
    /// and reads the group's.
    pipe: UnixStream,
    /// Read accumulator (partial control lines).
    acc: Vec<u8>,
    eof: bool,
    /// The address the group's `ready` line named.
    addr: Option<String>,
    /// Its members' reports as their lines arrive ([`GroupSlot::hear`]).
    fold: ReportFold,
    /// By member, how much of its report's generated and delivered lists
    /// the run's join has been fed.
    audited: Vec<(usize, usize)>,
}

impl GroupSlot {
    fn new(members: Range<NodeId>, pipe: UnixStream) -> Self {
        GroupSlot {
            pipe,
            acc: Vec::new(),
            eof: false,
            addr: None,
            audited: vec![(0, 0); members.len()],
            fold: ReportFold::new(members),
        }
    }

    /// The member a failure of the whole group is charged to: the first.
    fn lead(&self) -> NodeId {
        self.fold.reports[0].node
    }

    /// One line from the group, read where it lies: `ready` records the
    /// group's address; a `status` comes back, for the root's stop rule;
    /// an `error` line ends the run with it; every other line folds into
    /// the report of the member the last head named the moment it
    /// completes. A line no reader takes is an error: the group's status
    /// or ledger past it would be a guess.
    fn hear(&mut self, line: &[u8]) -> Result<Option<Status>, String> {
        if let Some(addr) = line.strip_prefix(b"ready ") {
            self.addr = Some(String::from_utf8_lossy(addr).into_owned());
            return Ok(None);
        }
        if let Some(rest) = line.strip_prefix(b"status ") {
            return Status::parse(rest)
                .map(Some)
                .ok_or_else(|| self.refused(line));
        }
        if line.starts_with(b"error ") {
            let said = String::from_utf8_lossy(line);
            return Err(match self.addr {
                Some(_) => said.into_owned(),
                None => format!("node {} exited before ready: {said}", self.lead()),
            });
        }
        self.fold.fold(line).ok_or_else(|| self.refused(line))?;
        Ok(None)
    }

    /// The error that ends the run on a line the root cannot read, charged
    /// to the group's lead.
    fn refused(&self, line: &[u8]) -> String {
        let shown = shown(line);
        format!(
            "node {} wrote a line the root refuses: {shown}",
            self.lead()
        )
    }

    /// Reads the pipe to `WouldBlock` or EOF, hearing each complete line;
    /// each `status` goes to `heard`, behind the group's index `s`. A pipe
    /// that closes before every member's report ended is an error: the
    /// group is gone.
    fn read(
        &mut self,
        s: usize,
        scratch: &mut [u8],
        heard: &mut Vec<(usize, Status)>,
    ) -> Result<(), String> {
        while !self.eof {
            match (&self.pipe).read(scratch) {
                Ok(0) => self.eof = true,
                Ok(k) => {
                    let mut acc = std::mem::take(&mut self.acc);
                    let mut outcome = Ok(());
                    take_lines(&mut acc, &scratch[..k], |line| {
                        if outcome.is_ok() {
                            outcome = self.hear(line).map(|st| heard.extend(st.map(|st| (s, st))));
                        }
                    });
                    self.acc = acc;
                    outcome?;
                    if k < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.eof = true,
            }
        }
        match self.fold.unended() {
            Some(node) if self.eof => Err(match self.addr {
                Some(_) => format!("node {node} hung up before its report"),
                None => format!("node {node} exited before ready"),
            }),
            _ => Ok(()),
        }
    }
}

/// Ledger entries the root joins per loop turn. A turn that leaves more
/// runs the next one at once, so a line from a group — a probe answer at
/// the end of a run — waits on at most this many.
const JOIN_PER_TURN: usize = 1024;

/// Every node group of a run, as the root holds them: one slot a group,
/// all of their pipes in one readiness set, and the run's one SP join over
/// every member's ledger.
pub(crate) struct Groups {
    slots: Vec<GroupSlot>,
    runners: Vec<Runner>,
    /// Every slot's pipe, under the slot's index as its token.
    poll: Poller,
    /// [`reconcile_ledgers`](ssmfp_core::reconcile_ledgers) run on the
    /// stream, fed by [`Groups::catch_up`].
    audit: RunningAudit,
    /// Time spent in the running join.
    spent: Duration,
    /// The last turn's join left entries: the next wait does not block.
    backlog: bool,
    /// Read buffer (recycled).
    scratch: Vec<u8>,
    /// The run's waits for a control write and for the groups' exit.
    graces: Graces,
}

impl Groups {
    /// Launches the group of each of `ranges` of `run` in `mode`, on the
    /// group's end of a fresh control socketpair: on a `node.main` thread
    /// inproc, as a `--node-worker` process with that end as fd 0
    /// otherwise. The root keeps the other end, and waits on the groups
    /// under `graces`. If a launch fails, what was launched is wound down.
    pub fn launch(
        run: &Arc<Run>,
        ranges: &[Range<NodeId>],
        mode: &RunMode,
        graces: Graces,
    ) -> io::Result<Self> {
        let mut groups = Groups {
            slots: Vec::with_capacity(ranges.len()),
            runners: Vec::with_capacity(ranges.len()),
            poll: Poller::new()?,
            audit: RunningAudit::default(),
            spent: Duration::ZERO,
            backlog: false,
            scratch: vec![0u8; 16 * 1024],
            graces,
        };
        for (s, members) in ranges.iter().enumerate() {
            if let Err(e) = groups.spawn(run, members.clone(), mode) {
                let _ = groups.finish();
                return Err(io::Error::other(format!("shard {s}: spawn {e}")));
            }
        }
        Ok(groups)
    }

    fn spawn(&mut self, run: &Arc<Run>, members: Range<NodeId>, mode: &RunMode) -> io::Result<()> {
        let (pipe, group_side) = UnixStream::pair()?;
        pipe.set_nonblocking(true)?;
        self.poll
            .add(pipe.as_raw_fd(), POLLIN, self.slots.len() as u64)?;
        let runner = match mode {
            RunMode::Inproc => {
                let (run, ids) = (Arc::clone(run), members.clone().collect());
                // What the group reports, and what ended it, goes up the pipe.
                Runner::thread(move || {
                    let _ = run_group(&run, ids, group_side);
                })?
            }
            RunMode::Proc { exe } => Runner::Child(
                Command::new(exe)
                    .arg("--node-worker")
                    .args(node_args(members.clone(), run))
                    .stdin(OwnedFd::from(group_side))
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()?,
            ),
        };
        self.slots.push(GroupSlot::new(members, pipe));
        self.runners.push(runner);
        Ok(())
    }

    /// The address of each group that has written its `ready` line.
    pub fn addrs(&self) -> impl Iterator<Item = Option<&str>> {
        self.slots.iter().map(|s| s.addr.as_deref())
    }

    /// The first group with a member that has not sent its whole report.
    pub fn unreported(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.fold.unended().is_some())
    }

    /// Writes `line` down every group's pipe under one deadline, so a group
    /// that stops reading costs the root its report grace and not the run
    /// (`write_all_deadline`); every pipe even after one fails: the first
    /// failure comes back.
    pub fn tell(&self, line: &[u8]) -> io::Result<()> {
        let deadline = Instant::now() + self.graces.report;
        let mut first = Ok(());
        for (s, slot) in self.slots.iter().enumerate() {
            let wrote = write_all_deadline(&slot.pipe, line, deadline);
            if first.is_ok() {
                first = wrote.map_err(|e| io::Error::other(format!("shard {s}: {e}")));
            }
        }
        first
    }

    /// One turn of the root's loop: one wait on every group's pipe — until
    /// `deadline`, or not at all while the join is behind — then every
    /// ready pipe read to `WouldBlock`, each `status` pushed to `heard`
    /// with its group's index, then the running join of what the turn
    /// folded ([`Groups::catch_up`]). A wait that fails — anything but
    /// `EINTR` — a line the root cannot read, a group's `error` line and a
    /// pipe that closes before every member of its group reported cannot
    /// be retried into working: each ends the run at once with the error.
    /// A pipe at EOF leaves the set, so its level-triggered `POLLHUP` never
    /// spins the loop.
    pub fn turn(&mut self, deadline: Instant, heard: &mut Vec<(usize, Status)>) -> io::Result<()> {
        let timeout = match self.backlog {
            true => Duration::ZERO,
            false => deadline.saturating_duration_since(Instant::now()),
        };
        let ready = self.poll.wait(Some(timeout)).map_err(root_wait)?;
        let ready: Vec<usize> = ready.iter().map(|&(token, _)| token as usize).collect();
        for s in ready {
            let slot = &mut self.slots[s];
            let read = slot.read(s, &mut self.scratch, heard);
            read.map_err(|e| io::Error::other(format!("shard {s}: {e}")))?;
            if slot.eof {
                self.poll.del(slot.pipe.as_raw_fd()).map_err(root_wait)?;
            }
        }
        self.backlog = self.catch_up();
        Ok(())
    }

    /// Feeds the run's join about [`JOIN_PER_TURN`] of the entries folded
    /// since it was last fed, and settles it. Each list gives its share of
    /// the turn's entries, oldest first, so the two ends of a ghost tend to
    /// meet in one settle. True while entries are left.
    pub fn catch_up(&mut self) -> bool {
        let members = self
            .slots
            .iter()
            .flat_map(|s| s.fold.reports.iter().zip(&s.audited));
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
        for s in &mut self.slots {
            for (r, audited) in s.fold.reports.iter().zip(&mut s.audited) {
                let (g, d) = *audited;
                *audited = (share(r.generated.len(), g), share(r.delivered.len(), d));
                self.audit.generated(&r.generated[g..audited.0]);
                self.audit.delivered(r.node, &r.delivered[d..audited.1]);
            }
        }
        self.audit.settle();
        self.spent += t.elapsed();
        backlog > JOIN_PER_TURN
    }

    /// Shuts every pipe down, so a group still running reads EOF and winds
    /// down, and only then waits for the runners under one shared grace:
    /// joins each thread the moment it ends, and reaps each process,
    /// killing it once the grace is out. A thread still running at the
    /// deadline is left behind and named in the error: a wedged group
    /// costs the run its grace, not the root's life.
    pub fn finish(&mut self) -> io::Result<()> {
        for slot in &self.slots {
            let _ = slot.pipe.shutdown(Shutdown::Both);
        }
        let deadline = Instant::now() + self.graces.exit;
        let mut outcome = Ok(());
        for (s, runner) in self.runners.drain(..).enumerate() {
            match runner {
                // Whatever ended the group — error or panic — already
                // reached the root, as an `error` line or as EOF.
                Runner::Thread(join, end) => {
                    let grace = deadline.saturating_duration_since(Instant::now());
                    if end.recv_timeout(grace) != Err(RecvTimeoutError::Timeout) {
                        let _ = join.join();
                    } else if outcome.is_ok() {
                        let e = format!("shard {s}: node group still running past its exit grace");
                        outcome = Err(io::Error::other(e));
                    }
                }
                Runner::Child(mut child) => {
                    while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                        thread::sleep(TUNING.proc_wait_poll());
                    }
                    // A no-op on a child already reaped.
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        outcome
    }

    /// Each group's summary and reports, and the running join's verdict —
    /// `None` when it cannot vouch for the run — with how the ledger
    /// reached the root. Call once every member has reported.
    pub fn reports(
        self,
    ) -> (
        Vec<ShardSummary>,
        Vec<NodeReport>,
        Option<ClusterVerdict>,
        LedgerFlow,
    ) {
        let mut ledger = LedgerFlow {
            join_s: self.spent.as_secs_f64(),
            pending_peak: self.audit.pending_peak(),
            ..LedgerFlow::default()
        };
        let (mut summaries, mut nodes) = (Vec::new(), Vec::new());
        for (shard, mut slot) in self.slots.into_iter().enumerate() {
            let flow = slot.fold.ledger;
            ledger.streamed += flow.streamed;
            ledger.tail += flow.tail;
            summaries.push(ShardSummary {
                shard,
                ledger: flow,
                ..ShardSummary::of(&slot.fold.reports)
            });
            nodes.append(&mut slot.fold.reports);
        }
        (summaries, nodes, self.audit.finish(), ledger)
    }
}

fn root_wait(e: io::Error) -> io::Error {
    io::Error::other(format!("root wait: {e}"))
}

/// Deadline-bounded `write_all` on a group's nonblocking control pipe.
/// A group blocks writing up this pipe while the root is not reading it,
/// so an untimed write down it could close a cycle; with the deadline the
/// root gives up instead (`shard::tests::a_write_to_a_group_that_stops_reading_times_out`).
/// Control lines are tiny next to the socketpair buffer, and each group
/// reads its pipe every turn, so the wait — on a set of its own — is cold.
fn write_all_deadline(s: &UnixStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        match (&*s).write(bytes) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "group hung up")),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "group not draining control writes",
                    ));
                }
                let mut writable = Poller::new()?;
                writable.add(s.as_raw_fd(), POLLOUT, 0)?;
                writable.wait(Some(deadline - now))?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The root's slots for one inproc group, node `id`, run by a thread
    /// that is done, and the group's end of its control pipe.
    fn group_of_one(id: NodeId) -> (UnixStream, Groups) {
        let (root_side, group_side) = UnixStream::pair().unwrap();
        root_side.set_nonblocking(true).unwrap();
        let poll = Poller::new().unwrap();
        poll.add(root_side.as_raw_fd(), POLLIN, 0).unwrap();
        let groups = Groups {
            slots: vec![GroupSlot::new(id..id + 1, root_side)],
            runners: vec![Runner::thread(|| {}).unwrap()],
            poll,
            audit: RunningAudit::default(),
            spent: Duration::ZERO,
            backlog: false,
            scratch: vec![0u8; 16 * 1024],
            graces: Graces::of(Duration::from_secs(60)),
        };
        (group_side, groups)
    }

    /// What the root's loop ends with within five seconds, turned on a
    /// thread of its own against a run deadline well past that.
    fn turn_briefly(mut groups: Groups) -> Result<io::Result<()>, RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(60);
            let outcome = loop {
                if let Err(e) = groups.turn(deadline, &mut Vec::new()) {
                    break Err(e);
                }
            };
            let _ = tx.send(outcome);
        });
        rx.recv_timeout(Duration::from_secs(5))
    }

    /// A wait that cannot work ends the run with the error instead of
    /// spinning the root at full CPU with the error dropped.
    #[test]
    fn a_broken_poller_ends_the_run_with_an_error() {
        let (_group_side, mut groups) = group_of_one(0);
        groups.poll.break_for_test();
        let outcome = turn_briefly(groups);
        let err = outcome.expect("the root spun").unwrap_err().to_string();
        assert!(err.starts_with("root wait:"), "{err}");
    }

    /// A group that writes a `status` line the codec refuses ends the run
    /// at once, with an error naming the node and the line, instead of
    /// leaving the root on the group's last good status until the run
    /// times out.
    #[test]
    fn a_refused_status_line_ends_the_run_with_an_error() {
        let (mut group_side, groups) = group_of_one(7);
        group_side
            .write_all(b"ready here\nstatus 0 1 1 2 2 0 0\nstatus 0 1 x 2 2 0 0\n")
            .unwrap();
        let outcome = turn_briefly(groups);
        let err = outcome.expect("the root kept running").unwrap_err();
        assert_eq!(
            err.to_string(),
            "shard 0: node 7 wrote a line the root refuses: \"status 0 1 x 2 2 0 0\""
        );
    }

    /// A group whose pipe closes mid-run — a killed worker, a panicked
    /// data thread — ends the run at once, naming the node that sent no
    /// report, instead of leaving the root to wait out its timeout for a
    /// quiet cut that never comes.
    #[test]
    fn a_pipe_that_closes_mid_run_ends_the_run_at_once() {
        let (mut group_side, groups) = group_of_one(3);
        group_side.write_all(b"ready here\n").unwrap();
        drop(group_side);
        let outcome = turn_briefly(groups);
        let err = outcome
            .expect("the root waited for its timeout")
            .unwrap_err();
        assert_eq!(err.to_string(), "shard 0: node 3 hung up before its report");
    }

    /// A group that stops reading its pipe costs the root one deadline and
    /// not the run: with the group's end full, the root's next control line
    /// times out — where an untimed write would wait on a group that may
    /// itself be blocked writing up to the root.
    #[test]
    fn a_write_to_a_group_that_stops_reading_times_out() {
        let (root_side, _group_side) = UnixStream::pair().unwrap();
        root_side.set_nonblocking(true).unwrap();
        for chunk in [&[0u8; 4096][..], &[0u8; 1][..]] {
            while (&root_side).write(chunk).is_ok() {}
        }
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(200);
            let _ = tx.send(write_all_deadline(&root_side, b"stop\n", deadline));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(2));
        let err = outcome.expect("the root's write hung").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert_eq!(err.to_string(), "group not draining control writes");
    }

    /// A group's `error` line ends the run at once, and the run's error
    /// carries the line — behind the node that never got ready, if it
    /// failed on the way up.
    #[test]
    fn a_group_error_line_ends_the_run_with_it() {
        for (said, want) in [
            ("ready here\nerror 3 boom\n", "shard 0: error 3 boom"),
            (
                "error 3 boom\n",
                "shard 0: node 3 exited before ready: error 3 boom",
            ),
        ] {
            let (mut group_side, groups) = group_of_one(3);
            group_side.write_all(said.as_bytes()).unwrap();
            let outcome = turn_briefly(groups);
            let err = outcome.expect("the root kept running").unwrap_err();
            assert_eq!(err.to_string(), want);
        }
    }

    /// A group that never ends costs the run its exit grace, not the
    /// root: with its pipe shut and its thread still running, `finish`
    /// names the shard inside the grace and 1 s, and leaves the thread.
    /// A run with a 1 s timeout has a 1 s exit grace.
    #[test]
    fn a_group_that_never_ends_fails_finish_inside_its_grace() {
        let (_group_side, mut groups) = group_of_one(4);
        groups.graces = Graces::of(Duration::from_secs(1));
        let grace = groups.graces.exit;
        let (release, wedged) = mpsc::channel::<()>();
        let runner = Runner::thread(move || {
            let _ = wedged.recv();
        });
        groups.runners = vec![runner.unwrap()];
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(groups.finish());
        });
        let outcome = rx.recv_timeout(grace + Duration::from_secs(1));
        let err = outcome.expect("finish waited past its grace").unwrap_err();
        let want = "shard 0: node group still running past its exit grace";
        assert_eq!(err.to_string(), want);
        release.send(()).unwrap();
    }
}
