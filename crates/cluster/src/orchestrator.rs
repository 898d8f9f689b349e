//! Cluster orchestration: spawn an N-node topology, feed it a workload,
//! watch it converge, reconcile the per-node ledgers into a cluster-wide
//! SP verdict, and emit a JSON run report.
//!
//! ## The shard tree (PR 8)
//!
//! The control plane is a two-level tree. `orch.main` spawns K
//! `shard.super` threads, each supervising a contiguous block of nodes in
//! node groups: one group, the tasks of one `node.main` data thread, in
//! [`RunMode::Inproc`]; a group of one per OS process in
//! [`RunMode::Proc`]. A group is one control endpoint — one socketpair to
//! its shard in both modes, a worker's end as its fd 0 — and a shard
//! polls those directly, no reader threads, so a whole inproc run costs
//! `2 · shards + 1` threads: [`ClusterSpec::shards`] says how many groups
//! the nodes run in and thereby how many threads carry them (`shards = n`
//! is one thread per node).
//!
//! Shards pre-merge what flows upward: the `status` lines of their node
//! groups (one per group, [`Status`]) become one sum, and per-node reports
//! become one [`ShardReport`] whose [`ShardSummary`] already carries the
//! merged histograms and counters ([`ShardSummary::merge`], the one fold
//! from node reports to run totals). A node's ledger reaches its shard
//! while the run runs — each member's new entries ride behind every status
//! line of its group after a `node <id>` head, and the shard folds each
//! line into that node's report as it completes ([`crate::codec`]) — so
//! `stop` draws only the tail
//! ([`RunReport::ledger`]). Each turn, after its status went up, the shard
//! feeds what it folded to its [`RunningAudit`], the SP join run on the
//! stream: it pairs each ghost's generation with its delivery and keeps
//! only what is unpaired. The orchestrator works O(K) per status and, at
//! the end, merges the K audits — pairing what crossed shards — and takes
//! their verdict. Only when a stream was irregular or left entries
//! unpaired does it lend the whole reports to `reconcile_ledgers`, which
//! stays the one definition of the verdict (the running join returns
//! exactly that verdict or none). [`RunReport::phases`] says where the
//! time outside the measured window went: bring-up, report upload, and
//! the root's part of the audit.
//!
//! ## When a run is over: four counters
//!
//! A group writes its line the turn its cut goes quiet (every member done
//! issuing, nothing held, nothing buffered) and a shard forwards its sum at
//! once when that is quiet and new, so the root hears of a quiet cluster
//! within a turn or two. But the lines are read at different instants: a
//! sink read before it delivered a primary and generated its ack, and the
//! source read after it delivered that ack, add up to Σgenerated ==
//! Σdelivered while the two were in flight between the reads. So the root
//! (`Detector`) runs Mattern's four-counter rule ("Algorithms for
//! distributed termination detection", 1987). A quiet merged snapshot with
//! Σgenerated == Σdelivered is wave 1; the root then writes `probe <w>`,
//! which every shard forwards to every node, and each group answers once
//! with a cut taken after it read the probe (wave 2, a one-level
//! propagation of information with feedback). The run has converged iff
//! every answer is quiet and their Σgenerated G₂ equals wave 1's
//! Σdelivered D₁. The counters are monotone and every wave-2 read follows
//! every wave-1 read, so at the instant wave 1 ended, delivered ≥ D₁ = G₂ ≥
//! generated ≥ delivered: nothing was in flight, and with every node done
//! issuing nothing can be generated again. (A duplicate delivery could
//! fake the equality, but that is an SP violation the verdict reports.)
//! Anything else drops the candidate, and the next quiet snapshot starts
//! wave `w + 1`. The same rule covers one group or many, threads or
//! processes.

use crate::chaos::{ChaosSpec, PartitionSpec};
use crate::clients::ClientSpec;
use crate::codec::{node_args, shown, NodeReport, ReportFold, Status};
use crate::conc::COMPONENT;
use crate::evloop::{raise_nofile_limit, take_lines, Poller, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::node::{run_group, ListenSpec, Run};
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::tuning::TUNING;
use crate::workload::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::cli::json_string;
use ssmfp_core::conc::{register_thread, spawn_registered, tracked_channel, TrackedSender};
use ssmfp_core::{
    reconcile_clients, reconcile_ledgers, ClientVerdict, ClusterVerdict, NodeLedger, RunningAudit,
};
use ssmfp_topology::{Graph, NodeId};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::{AsRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How nodes are launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunMode {
    /// Inside this process, every shard's nodes on one thread.
    Inproc,
    /// One OS process per node, running `<exe> --node-worker …`.
    Proc {
        /// Path to the `ssmfp-cluster` binary.
        exe: PathBuf,
    },
}

/// A full cluster run specification.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Topology label for the report.
    pub topology: String,
    /// The graph itself.
    pub graph: Graph,
    /// Run seed.
    pub seed: u64,
    /// Per-node workload.
    pub workload: WorkloadSpec,
    /// Link chaos.
    pub chaos: ChaosSpec,
    /// Socket flavour.
    pub listen: ListenSpec,
    /// Client mode: multiplex this many logical clients over the nodes
    /// and audit them per-client at reconciliation.
    pub clients: Option<ClientSpec>,
    /// Orchestrator shards (supervised node groups); clamped to `1..=n`.
    /// Inproc, each group also shares one data thread.
    pub shards: usize,
    /// Launch mode.
    pub mode: RunMode,
    /// Give up (converged = false) after this long.
    pub timeout: Duration,
}

/// One shard's pre-merged telemetry: the node-group totals the
/// orchestrator folds into the run report.
#[derive(Debug, Clone, Default)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Nodes in the shard.
    pub nodes: usize,
    /// Primaries delivered inside the shard.
    pub primaries_delivered: u64,
    /// Merged one-way latency histogram (µs).
    pub latency: LogHistogram,
    /// Merged frames-per-write histogram.
    pub batch: LogHistogram,
    /// Summed per-node counters.
    pub counters: NodeCounters,
    /// Client mode: merged ack round-trip histogram.
    pub client_rtt: LogHistogram,
    /// Client mode: merged fairness spread (one sample per session —
    /// its mean RTT — merged bucket-wise, so shard and root work stay
    /// O(buckets) however many clients the run hosts).
    pub client_fair: LogHistogram,
    /// Client mode: sessions hosted in the shard.
    pub clients: u64,
    /// Client mode: acked primaries in the shard.
    pub clients_completed: u64,
    /// When the shard's ledger entries reached it.
    pub ledger: LedgerFlow,
}

impl ShardSummary {
    /// The totals of node reports: each one's, merged.
    fn of(reports: &[NodeReport]) -> Self {
        let mut sum = ShardSummary::default();
        for r in reports {
            sum.merge(&ShardSummary {
                nodes: 1,
                // The sink records one latency sample per primary it
                // answers, in both modes — their ghost packings differ, so
                // no ghost bit says "ack" in both.
                primaries_delivered: r.latency.count(),
                latency: r.latency.clone(),
                batch: r.batch.clone(),
                counters: r.counters,
                client_rtt: r.client_rtt.clone(),
                client_fair: r.client_fair.clone(),
                clients: r.clients,
                clients_completed: r.clients_completed,
                ..ShardSummary::default()
            });
        }
        sum
    }

    /// Adds `other`'s totals to these: the one fold from node reports to
    /// shard summaries (`ShardSummary::of`) to run totals. Histograms
    /// merge bucket-wise and everything else adds — the pending peak is
    /// the larger — so the root's work is O(shards · buckets), however many
    /// nodes and clients the run hosted (pinned by a unit test).
    pub fn merge(&mut self, other: &ShardSummary) {
        self.nodes += other.nodes;
        self.primaries_delivered += other.primaries_delivered;
        self.latency.merge(&other.latency);
        self.batch.merge(&other.batch);
        self.counters.add(&other.counters);
        self.client_rtt.merge(&other.client_rtt);
        self.client_fair.merge(&other.client_fair);
        self.clients += other.clients;
        self.clients_completed += other.clients_completed;
        let (l, o) = (&mut self.ledger, &other.ledger);
        l.streamed += o.streamed;
        l.tail += o.tail;
        l.join_s += o.join_s;
        l.pending_peak = l.pending_peak.max(o.pending_peak);
    }
}

/// Everything a shard sends upward at the end of a run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The pre-merged totals.
    pub summary: ShardSummary,
    /// The raw per-node reports.
    pub reports: Vec<NodeReport>,
    /// The shard's running SP join over those reports' ledgers, settled.
    pub audit: RunningAudit,
}

/// Shard → orchestrator upstream messages (the `orch.shard` channel).
enum ShardUp {
    /// All shard nodes reported the address they listen at.
    Ready(Vec<(NodeId, String)>),
    /// The sum of the shard's latest group lines.
    Status(Status),
    /// Final report (boxed: the reports dwarf the other variants).
    Done(Box<ShardReport>),
    /// The shard cannot finish the run.
    Error(String),
}

/// Where a run's time outside its measured window went, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// From the `run_cluster` call until `peers` and `start` went to
    /// every shard: spawn, bind, listen, ready.
    pub ready_s: f64,
    /// From `stop` until the last shard report arrived: every node's
    /// report written, read and parsed.
    pub report_s: f64,
    /// The root's share of the SP verdict: merging the shards' running
    /// joins, and the reference join and the client audit when they run.
    pub audit_s: f64,
}

/// When the ledger reached the shards, and how it was joined: entries —
/// generated plus delivered — folded before the shard read `stop`, and
/// after it. A node ships its new entries behind every status line of its
/// group, so after a quiet probe answer, in a converged run, nothing is
/// left for `stop`; and each shard joins what it folds as it folds it
/// ([`RunningAudit`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerFlow {
    /// Entries shipped while the run ran.
    pub streamed: u64,
    /// Entries in the blocks written at `stop`.
    pub tail: u64,
    /// Shard seconds spent in the running join, summed over shards.
    pub join_s: f64,
    /// The most entries any shard's join held unpaired.
    pub pending_peak: u64,
    /// The verdict came from `reconcile_ledgers` over the whole reports:
    /// the running join met an entry only the reference join can judge,
    /// or ended with entries unpaired.
    pub reference: bool,
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The [`crate::Scenario`] line that replays the run, if one named it.
    pub scenario: Option<String>,
    /// Topology label.
    pub topology: String,
    /// Node count.
    pub n: usize,
    /// Run seed.
    pub seed: u64,
    /// Orchestrator shards the run used.
    pub shards: usize,
    /// Whether the cluster quiesced before the timeout.
    pub converged: bool,
    /// Wall-clock seconds from `start` to convergence (or timeout).
    pub wall_s: f64,
    /// Where the root's stop rule stood at the end.
    pub detect: Detection,
    /// Where the time outside `wall_s` went.
    pub phases: Phases,
    /// When the ledger entries reached the shards.
    pub ledger: LedgerFlow,
    /// Cluster-wide SP reconciliation.
    pub verdict: ClusterVerdict,
    /// Primaries delivered end-to-end.
    pub primaries_delivered: u64,
    /// Primaries delivered per wall-clock second.
    pub throughput: f64,
    /// Merged one-way latency histogram (µs).
    pub latency: LogHistogram,
    /// Merged frames-per-write histogram (coalescing).
    pub batch: LogHistogram,
    /// Summed per-node counters.
    pub counters: NodeCounters,
    /// Client mode: the per-client exactly-once + FIFO verdict.
    pub client_verdict: Option<ClientVerdict>,
    /// Client mode: merged ack round-trip histogram (µs).
    pub client_rtt: LogHistogram,
    /// Client mode: merged fairness spread (one sample per session).
    pub client_fair: LogHistogram,
    /// Client mode: logical clients hosted across the cluster.
    pub clients: u64,
    /// Client mode: acked primaries across all clients.
    pub clients_completed: u64,
    /// The per-shard pre-merged totals (the top-level numbers above are
    /// folds of exactly these — pinned by a unit test).
    pub shard_summaries: Vec<ShardSummary>,
    /// The raw per-node reports, ordered by node id.
    pub nodes: Vec<NodeReport>,
}

impl RunReport {
    /// Whether the run met the tentpole bar: converged with a clean
    /// cluster-wide SP verdict — and, in client mode, a clean
    /// per-client verdict too.
    pub fn clean(&self) -> bool {
        self.converged
            && self.verdict.clean()
            && self
                .client_verdict
                .as_ref()
                .is_none_or(ClientVerdict::clean)
    }

    /// Hand-rolled JSON (the workspace carries no serde).
    pub fn to_json(&self) -> String {
        fn debug_list<T: std::fmt::Debug>(list: &[T]) -> String {
            list.iter()
                .map(|x| json_string(&format!("{x:?}")))
                .collect::<Vec<_>>()
                .join(", ")
        }
        let v = &self.verdict;
        let c = &self.counters;
        let last = &self.detect.last;
        let scenario = self.scenario.as_deref().map(json_string);
        let scenario = scenario.map_or(String::new(), |s| format!("  \"scenario\": {s},\n"));
        let clients_json = match &self.client_verdict {
            None => String::new(),
            Some(cv) => format!(
                concat!(
                    ",\n  \"clients\": {{\"hosted\": {}, \"completed\": {}, ",
                    "\"distinct\": {}, \"stamped\": {}, \"exactly_once\": {}, ",
                    "\"in_flight\": {}, \"violations\": {}, \"violation_list\": [{}], ",
                    "\"rtt_us\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, ",
                    "\"p99\": {}, \"max\": {}}}, ",
                    "\"fairness_us\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, ",
                    "\"max\": {}}}}}"
                ),
                self.clients,
                self.clients_completed,
                cv.clients,
                cv.stamped,
                cv.exactly_once,
                cv.in_flight,
                cv.violations.len(),
                debug_list(&cv.violations),
                self.client_rtt.count(),
                self.client_rtt.mean(),
                self.client_rtt.quantile(0.50),
                self.client_rtt.quantile(0.99),
                self.client_rtt.max(),
                self.client_fair.count(),
                self.client_fair.quantile(0.50),
                self.client_fair.quantile(0.99),
                self.client_fair.max(),
            ),
        };
        format!(
            concat!(
                "{{\n{}",
                "  \"topology\": {},\n",
                "  \"n\": {},\n",
                "  \"seed\": {},\n",
                "  \"shards\": {},\n",
                "  \"converged\": {},\n",
                "  \"wall_s\": {:.4},\n",
                "  \"sp\": {{\"generated\": {}, \"exactly_once\": {}, \"in_flight\": {}, ",
                "\"invalid_delivered\": {}, \"violations\": {}, \"violation_list\": [{}]}},\n",
                "  \"primaries_delivered\": {},\n",
                "  \"throughput_msgs_per_s\": {:.1},\n",
                "  \"latency_us\": {{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p95\": {}, ",
                "\"p99\": {}, \"p999\": {}, \"max\": {}}},\n",
                "  \"counters\": {{\"frames_sent\": {}, \"frames_received\": {}, ",
                "\"heartbeats_sent\": {}, \"reconnects\": {}, \"chaos_dropped\": {}, ",
                "\"chaos_duplicated\": {}, \"chaos_reordered\": {}, \"partition_dropped\": {}}},\n",
                "  \"io\": {{\"write_syscalls\": {}, \"read_syscalls\": {}, ",
                "\"conn_frames_dropped\": {}, \"frames_per_write\": {{\"count\": {}, ",
                "\"mean\": {:.2}, \"p50\": {}, \"p99\": {}, \"max\": {}}}}},\n",
                "  \"detect\": {{\"probes\": {}, \"last\": {{\"nodes\": {}, \"done\": {}, ",
                "\"generated\": {}, \"delivered\": {}, \"held\": {}}}}},\n",
                "  \"phases\": {{\"ready_s\": {:.6}, \"report_s\": {:.6}, \"audit_s\": {:.6}}},\n",
                "  \"ledger\": {{\"streamed\": {}, \"tail\": {}, \"join_s\": {:.6}, ",
                "\"pending_peak\": {}, \"reference\": {}}}{}\n",
                "}}"
            ),
            scenario,
            json_string(&self.topology),
            self.n,
            self.seed,
            self.shards,
            self.converged,
            self.wall_s,
            v.generated,
            v.exactly_once,
            v.in_flight,
            v.invalid_delivered,
            v.violations.len(),
            debug_list(&v.violations),
            self.primaries_delivered,
            self.throughput,
            self.latency.count(),
            self.latency.mean(),
            self.latency.quantile(0.50),
            self.latency.quantile(0.95),
            self.latency.quantile(0.99),
            self.latency.quantile(0.999),
            self.latency.max(),
            c.frames_sent,
            c.frames_received,
            c.heartbeats_sent,
            c.reconnects,
            c.chaos_dropped,
            c.chaos_duplicated,
            c.chaos_reordered,
            c.partition_dropped,
            c.write_syscalls,
            c.read_syscalls,
            c.conn_frames_dropped,
            self.batch.count(),
            self.batch.mean(),
            self.batch.quantile(0.50),
            self.batch.quantile(0.99),
            self.batch.max(),
            self.detect.probes,
            last.nodes,
            last.done,
            last.generated,
            last.delivered,
            last.held,
            self.phases.ready_s,
            self.phases.report_s,
            self.phases.audit_s,
            self.ledger.streamed,
            self.ledger.tail,
            self.ledger.join_s,
            self.ledger.pending_peak,
            self.ledger.reference,
            clients_json,
        )
    }
}

/// Picks the partitioned edge for a run seed: a deterministic function of
/// `(graph, seed)`, so process and thread modes agree.
pub fn pick_partition(graph: &Graph, seed: u64, from_arrival: u64, len: u64) -> PartitionSpec {
    let edges = graph.edges();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9A27_11E5_0DD5_EEDF);
    let (a, b) = edges[rng.gen_range(0..edges.len())];
    PartitionSpec {
        a,
        b,
        from_arrival,
        len,
    }
}

/// Splits `0..n` into at most `shards` contiguous non-empty blocks.
/// The effective shard count is the returned length.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let k = shards.clamp(1, n.max(1));
    let chunk = n.div_ceil(k);
    (0..k)
        .map(|s| (s * chunk).min(n)..((s + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect()
}

/// The descriptors a run holds at once, from the shape of its streams. A
/// data stream joins an ordered pair of *distinct* groups that share an
/// edge — an edge inside a group is in memory and holds none — and is two
/// descriptors, the dialling end and the accepted end; a group also holds
/// at most a listener and its `epoll` set, and a control socketpair of two
/// ends, every shard a socketpair to the orchestrator. Inproc a group is a
/// shard and all of it is in this process. In process mode a group is one
/// node in a process of its own, which inherits the limit set here: the
/// parent holds the control tree only, and no child's two streams per
/// neighbour come to more than that.
fn nofile_budget(graph: &Graph, ranges: &[Range<usize>], mode: &RunMode) -> u64 {
    let groups = match mode {
        RunMode::Inproc => ranges.len(),
        RunMode::Proc { .. } => graph.n(),
    };
    let control = 2 * groups + 2 * ranges.len();
    let held = match mode {
        RunMode::Inproc => {
            let group = |p: NodeId| ranges.iter().position(|r| r.contains(&p));
            let mut pairs: Vec<_> = graph
                .edges()
                .iter()
                .filter(|&&(a, b)| group(a) != group(b))
                .flat_map(|&(a, b)| [(group(a), group(b)), (group(b), group(a))])
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            control + 2 * pairs.len() + 2 * ranges.len()
        }
        RunMode::Proc { .. } => control,
    };
    (held + 64) as u64
}

// ---------------------------------------------------------------------------
// Shard supervisor
// ---------------------------------------------------------------------------

/// A shard's handle on one node group — the shard's data thread inproc,
/// one `--node-worker` process otherwise: its end of the group's control
/// socketpair, the process if it is one (an inproc shard's data thread is
/// joined once for the shard), and what the shard has read of it.
struct GroupSlot {
    /// The supervisor's end (nonblocking).
    pipe: UnixStream,
    child: Option<Child>,
    /// Read accumulator (partial control lines).
    acc: Vec<u8>,
    /// Staged downward control bytes, written on `POLLOUT` only.
    staged: Vec<u8>,
    staged_at: usize,
    eof: bool,
    ready: Option<String>,
    /// The group's latest `status` line.
    status: Option<Status>,
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
    fn new(members: &[NodeId], pipe: UnixStream, child: Option<Child>) -> Self {
        GroupSlot {
            pipe,
            child,
            acc: Vec::new(),
            staged: Vec::new(),
            staged_at: 0,
            eof: false,
            ready: None,
            status: None,
            fold: ReportFold::new(members.iter().copied()),
            audited: vec![(0, 0); members.len()],
            ledger: LedgerFlow::default(),
            watched: 0,
        }
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
    /// are the shard's; an `error` line ends the shard with it; every other
    /// line folds into the report of the member the last head named the
    /// moment it completes — ledger deltas whenever they come, counted as
    /// streamed or, once the shard read `stop`, as tail. A line no reader
    /// takes is an error: the group's status or ledger past it would be a
    /// guess.
    fn hear(&mut self, line: &[u8], stopped: bool) -> Result<(), String> {
        if let Some(addr) = line.strip_prefix(b"ready ") {
            self.ready = Some(String::from_utf8_lossy(addr).into_owned());
        } else if let Some(rest) = line.strip_prefix(b"status ") {
            self.status = Some(Status::parse(rest).ok_or_else(|| self.refused(line))?);
        } else if line.starts_with(b"error ") {
            let said = String::from_utf8_lossy(line);
            return Err(match self.ready {
                None => format!("node {} exited before ready: {said}", self.lead()),
                Some(_) => said.into_owned(),
            });
        } else {
            let entries = self.fold.fold(line).ok_or_else(|| self.refused(line))?;
            if stopped {
                self.ledger.tail += entries;
            } else {
                self.ledger.streamed += entries;
            }
        }
        Ok(())
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

    /// Keeps slot `i`'s registration at what the shard still waits for:
    /// the group's lines until EOF — a socket whose writer closed stays
    /// open, and level-triggered `POLLHUP` would spin the loop — and
    /// writability while bytes are staged.
    fn watch(&mut self, i: usize, poll: &Poller) -> io::Result<()> {
        let read = if self.eof { 0 } else { POLLIN };
        let write = if self.staged_at < self.staged.len() {
            POLLOUT
        } else {
            0
        };
        let (fd, want) = (self.pipe.as_raw_fd(), read | write);
        match (self.watched, want) {
            (had, want) if had == want => {}
            (0, _) => poll.add(fd, want, Poller::token(i, fd))?,
            (_, 0) => poll.del(fd)?,
            _ => poll.modify(fd, want, Poller::token(i, fd))?,
        }
        self.watched = want;
        Ok(())
    }

    /// Closes the control pipe (a group still running reads EOF and winds
    /// down) and reaps the process, if it is one.
    fn finish(self) {
        drop(self.pipe);
        let Some(mut child) = self.child else { return };
        let deadline = Instant::now() + TUNING.proc_exit_grace();
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => thread::sleep(TUNING.proc_wait_poll()),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
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
    fn catch_up(&mut self, slots: &mut [GroupSlot]) -> bool {
        let behind = |s: &GroupSlot| -> usize {
            let members = s.fold.reports.iter().zip(&s.audited);
            let each = |(r, (g, d)): (&NodeReport, &(usize, usize))| {
                r.generated.len() + r.delivered.len() - g - d
            };
            members.map(each).sum()
        };
        let backlog: usize = slots.iter().map(behind).sum();
        if backlog == 0 {
            return false;
        }
        let t = Instant::now();
        let share = |len: usize, at: usize| {
            at + (len - at).min(((len - at) * JOIN_PER_TURN).div_ceil(backlog))
        };
        for s in slots.iter_mut() {
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
}

#[derive(PartialEq, Clone, Copy)]
enum Phase {
    Ready,
    Running,
    Reporting,
}

/// Launches the node groups of the shard's `members` of `run`, one
/// control socketpair each: one `node.main` thread running all of them
/// inproc (`Some` handle to join once its pipe is closed), a process per
/// node in proc mode, its end of the pair as fd 0. On error `slots` holds
/// what was launched before it.
fn spawn_groups(
    run: Arc<Run>,
    members: Range<NodeId>,
    mode: &RunMode,
    slots: &mut Vec<GroupSlot>,
) -> io::Result<Option<JoinHandle<()>>> {
    let pair = || {
        let (sup_side, group_side) = UnixStream::pair()?;
        sup_side.set_nonblocking(true)?;
        Ok::<_, io::Error>((sup_side, group_side))
    };
    match mode {
        RunMode::Inproc => {
            let ids: Vec<NodeId> = members.collect();
            let (sup_side, group_side) = pair()?;
            slots.push(GroupSlot::new(&ids, sup_side, None));
            // What the group reports, and what ended it, went up the pipe.
            Ok(Some(spawn_registered(COMPONENT, "node.main", move || {
                let _ = run_group(&run, ids, group_side);
            })))
        }
        RunMode::Proc { exe } => {
            for p in members {
                let named = |e: io::Error| io::Error::other(format!("node {p}: {e}"));
                let (sup_side, group_side) = pair().map_err(named)?;
                let child = Command::new(exe)
                    .arg("--node-worker")
                    .args(node_args(p, &run))
                    .stdin(OwnedFd::from(group_side))
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .map_err(named)?;
                slots.push(GroupSlot::new(&[p], sup_side, Some(child)));
            }
            Ok(None)
        }
    }
}

/// Closes **every** control pipe of the shard, and only then joins the
/// data thread: its group leaves the thread when it reads EOF.
fn wind_down(slots: Vec<GroupSlot>, data: Option<JoinHandle<()>>) {
    for s in slots {
        s.finish();
    }
    if let Some(join) = data {
        // Whatever ended the group — error or panic — already reached the
        // supervisor, as an `error` line or as EOF.
        let _ = join.join();
    }
}

/// The owner half of the orchestrator socketpair's [`Poller::token`] in a
/// shard's set; a group's control pipe carries its slot index.
const ORCH: usize = u32::MAX as usize;

/// One shard supervisor: spawns its node groups, waits on every group's
/// control pipe plus the orchestrator socketpair in one [`Poller`],
/// forwards control lines downward (staged, `POLLOUT`-gated — the declared
/// timed write), and pre-merges status and reports upward: the sum of its
/// groups' latest lines goes up at once when it is quiet and new or
/// completes a probe wave, and otherwise once per `status_every`.
fn shard_main(
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
        // up; keep going so the group handles still get finished.
        let _ = up.send((shard, msg));
    };
    let mut slots: Vec<GroupSlot> = Vec::new();
    let data = spawn_groups(run, members, &mode, &mut slots);
    let outcome = data
        .as_ref()
        .map_err(|e| format!("spawn {e}"))
        .and_then(|_| {
            let mut poll = watch(&orch, &mut slots).map_err(shard_wait)?;
            let mut audit = ShardAudit::default();
            supervise(&mut poll, &orch, &mut slots, &mut audit, &send_up)?;
            Ok(shard_report(shard, &mut slots, audit))
        });
    send_up(match outcome {
        Ok(report) => ShardUp::Done(Box::new(report)),
        Err(e) => ShardUp::Error(e),
    });
    wind_down(slots, data.ok().flatten());
}

fn shard_wait(e: io::Error) -> String {
    format!("shard wait: {e}")
}

/// A shard's readiness set: the orchestrator socketpair and every group's
/// control pipe, each registered for as long as the shard waits on it.
fn watch(orch: &UnixStream, slots: &mut [GroupSlot]) -> io::Result<Poller> {
    let (poll, fd) = (Poller::new()?, orch.as_raw_fd());
    poll.add(fd, POLLIN, Poller::token(ORCH, fd))?;
    for (i, s) in slots.iter_mut().enumerate() {
        s.watch(i, &poll)?;
    }
    Ok(poll)
}

/// The supervision loop, on the set [`watch`] built, until every node has
/// reported. A wait that fails — anything but `EINTR` — a registration
/// the set refuses, a line a group wrote that the shard cannot read, a
/// group's `error` line, and a pipe that closes before every node on it
/// sent its report cannot be retried into working: each ends the shard at
/// once with the error instead of spinning or stalling it. Each turn ends
/// with the running join of what the turns folded, after the turn's
/// status went up ([`ShardAudit::catch_up`]).
fn supervise(
    poll: &mut Poller,
    orch: &UnixStream,
    slots: &mut [GroupSlot],
    audit: &mut ShardAudit,
    send_up: &dyn Fn(ShardUp),
) -> Result<(), String> {
    let nodes: u64 = slots.iter().map(|s| s.fold.reports.len() as u64).sum();
    let mut events: Vec<(u64, i16)> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut orch_acc: Vec<u8> = Vec::new();
    let mut phase = Phase::Ready;
    let mut ready_sent = false;
    let mut last_status = Instant::now();
    let mut forwarded: Option<Status> = None;
    let mut report_deadline = Instant::now();
    let mut backlog = false;
    loop {
        let cap = Duration::from_millis(50);
        let timeout = match phase {
            _ if backlog => Duration::ZERO,
            Phase::Ready => cap,
            Phase::Running => TUNING
                .status_every()
                .saturating_sub(last_status.elapsed())
                .min(cap),
            Phase::Reporting => report_deadline
                .saturating_duration_since(Instant::now())
                .min(cap),
        };
        events.clear();
        events.extend_from_slice(poll.wait(Some(timeout)).map_err(shard_wait)?);

        // Orchestrator lines first: interpret, then forward verbatim to
        // every group. (The shard's end of the socketpair is blocking: one
        // single-shot read per POLLIN readiness never blocks.)
        if events.iter().any(|&(t, _)| Poller::untoken(t).0 == ORCH) {
            let orch_eof = match (&*orch).read(&mut scratch) {
                Ok(0) => true,
                Ok(k) => {
                    take_lines(&mut orch_acc, &scratch[..k], |line| {
                        for s in slots.iter_mut() {
                            s.stage(line);
                        }
                        if line.starts_with(b"start") && phase == Phase::Ready {
                            phase = Phase::Running;
                            last_status = Instant::now();
                        } else if line.starts_with(b"stop") && phase != Phase::Reporting {
                            phase = Phase::Reporting;
                            report_deadline = Instant::now() + TUNING.report_grace();
                        }
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
                if phase != Phase::Reporting {
                    // Orchestrator gone: wind the run down cleanly.
                    for s in slots.iter_mut() {
                        s.stage(b"stop");
                    }
                    phase = Phase::Reporting;
                    report_deadline = Instant::now() + TUNING.report_grace();
                }
            }
        }

        for &(token, ev) in &events {
            let (i, _) = Poller::untoken(token);
            let Some(s) = slots.get_mut(i) else { continue };
            // Group lines (nonblocking fds: drain to WouldBlock).
            let readable = ev & (POLLIN | POLLERR | POLLHUP) != 0;
            let stopped = phase == Phase::Reporting;
            while readable && !s.eof {
                match (&s.pipe).read(&mut scratch) {
                    Ok(0) => s.eof = true,
                    Ok(k) => {
                        let mut acc = std::mem::take(&mut s.acc);
                        let mut refused = Ok(());
                        take_lines(&mut acc, &scratch[..k], |line| {
                            if refused.is_ok() {
                                refused = s.hear(line, stopped);
                            }
                        });
                        s.acc = acc;
                        refused?;
                        if k < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => s.eof = true,
                }
            }
            if let Some(node) = s.fold.unended().filter(|_| s.eof) {
                return Err(match s.ready {
                    None => format!("node {node} exited before ready"),
                    Some(_) => format!("node {node} hung up before its report"),
                });
            }
            // Staged downward writes, POLLOUT-gated (the declared timed
            // `SockWrite(node.main)` edge — the shard never blocks on a
            // group).
            let writable = ev & (POLLOUT | POLLERR | POLLHUP) != 0;
            while writable && s.staged_at < s.staged.len() {
                match (&s.pipe).write(&s.staged[s.staged_at..]) {
                    Ok(0) => break,
                    Ok(k) => s.staged_at += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // Group gone; the read side will surface EOF.
                    Err(_) => s.staged_at = s.staged.len(),
                }
            }
            if s.staged_at == s.staged.len() {
                s.staged.clear();
                s.staged_at = 0;
            }
        }
        for (i, s) in slots.iter_mut().enumerate() {
            s.watch(i, poll).map_err(shard_wait)?;
        }

        // Phase work.
        match phase {
            Phase::Ready => {
                if !ready_sent && slots.iter().all(|s| s.ready.is_some()) {
                    let list: Vec<(NodeId, String)> = slots
                        .iter()
                        .flat_map(|s| {
                            let addr = s.ready.as_ref().expect("all ready");
                            s.fold.reports.iter().map(|r| (r.node, addr.clone()))
                        })
                        .collect();
                    send_up(ShardUp::Ready(list));
                    ready_sent = true;
                }
            }
            Phase::Running => {
                let sum = Status::sum(slots.iter().filter_map(|s| s.status.as_ref()));
                let quiet_news = sum.quiet(nodes) && forwarded != Some(sum);
                let answered = sum.wave > forwarded.map_or(0, |f| f.wave);
                if quiet_news || answered || last_status.elapsed() >= TUNING.status_every() {
                    last_status = Instant::now();
                    forwarded = Some(sum);
                    send_up(ShardUp::Status(sum));
                }
            }
            Phase::Reporting => {
                let missing = slots.iter().find_map(|s| s.fold.unended());
                let Some(missing) = missing else {
                    return Ok(());
                };
                if Instant::now() >= report_deadline {
                    return Err(format!("node {missing} sent no report in time"));
                }
            }
        }
        backlog = audit.catch_up(slots);
    }
}

/// Takes every node's folded report, and the running join over them, into
/// the pre-merged shard report.
fn shard_report(shard: usize, slots: &mut [GroupSlot], mut audit: ShardAudit) -> ShardReport {
    while audit.catch_up(slots) {}
    audit.audit.close();
    let mut ledger = LedgerFlow {
        join_s: audit.spent.as_secs_f64(),
        pending_peak: audit.audit.pending_peak(),
        ..LedgerFlow::default()
    };
    let mut reports: Vec<NodeReport> = Vec::new();
    for s in slots.iter_mut() {
        ledger.streamed += s.ledger.streamed;
        ledger.tail += s.ledger.tail;
        reports.append(&mut s.fold.reports);
    }
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

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// Deadline-bounded `write_all` on a nonblocking stream (the declared
/// timed `SockWrite(shard.super)` edge). Control lines are tiny next to
/// the socketpair buffer, so the wait — on a set of its own — is cold.
fn write_all_deadline(s: &UnixStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        match (&*s).write(bytes) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "shard hung up")),
            Ok(k) => bytes = &bytes[k..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "shard not draining control writes",
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

fn recv_or_timeout(
    rx: &Receiver<(usize, ShardUp)>,
    deadline: Instant,
) -> io::Result<Option<(usize, ShardUp)>> {
    let now = Instant::now();
    if now >= deadline {
        return Ok(None);
    }
    match rx.recv_timeout(deadline - now) {
        Ok(v) => Ok(Some(v)),
        Err(RecvTimeoutError::Timeout) => Ok(None),
        Err(RecvTimeoutError::Disconnected) => {
            Err(io::Error::other("every shard hung up before reporting"))
        }
    }
}

/// What the root does after a merged status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Nothing yet.
    Wait,
    /// Write `probe <w>` to every shard.
    Probe(u64),
    /// The run is over.
    Converged,
}

/// How the root's stop rule stood when the run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detection {
    /// Probe waves sent.
    pub probes: u64,
    /// The last merged status the root saw.
    pub last: Status,
}

/// The root's stop rule, the four-counter test of the module header, as a
/// pure state machine over merged statuses.
#[derive(Debug, Default)]
struct Detector {
    /// Nodes in the run.
    n: u64,
    /// While probe wave `detect.probes` is out: its wave-1 Σdelivered.
    candidate: Option<u64>,
    detect: Detection,
}

impl Detector {
    fn new(n: u64) -> Self {
        Detector {
            n,
            ..Detector::default()
        }
    }

    /// One merged status: the sum of every shard's latest, its wave the
    /// lowest any of them has completed. While a probe is out, a status in
    /// which some group has not answered it is no answer.
    fn observe(&mut self, s: Status) -> Step {
        self.detect.last = s;
        if let Some(d1) = self.candidate {
            if s.wave < self.detect.probes {
                return Step::Wait;
            }
            if s.quiet(self.n) && s.generated == d1 {
                return Step::Converged;
            }
            self.candidate = None;
        }
        if s.quiet(self.n) && s.generated == s.delivered {
            self.detect.probes += 1;
            self.candidate = Some(s.delivered);
            return Step::Probe(self.detect.probes);
        }
        Step::Wait
    }
}

/// The orchestrator's control phases against live shards: gather ready
/// addresses, broadcast `peers`/`start`, feed shard status sums to the
/// [`Detector`] — writing its probes — until it declares convergence,
/// broadcast `stop`, collect shard reports.
fn drive(
    spec: &ClusterSpec,
    n: usize,
    rx: &Receiver<(usize, ShardUp)>,
    pipes: &[UnixStream],
    called: Instant,
    phases: &mut Phases,
) -> io::Result<(bool, f64, Detection, Vec<ShardReport>)> {
    let k = pipes.len();

    // --- gather ready addresses ---
    let setup_deadline = Instant::now() + spec.timeout;
    let mut addrs: Vec<Option<String>> = vec![None; n];
    let mut filled = 0usize;
    while filled < n {
        let Some((s, up)) = recv_or_timeout(rx, setup_deadline)? else {
            return Err(io::Error::other("timed out waiting for ready"));
        };
        match up {
            ShardUp::Ready(list) => {
                for (p, a) in list {
                    if addrs[p].is_none() {
                        filled += 1;
                    }
                    addrs[p] = Some(a);
                }
            }
            ShardUp::Error(e) => return Err(io::Error::other(format!("shard {s}: {e}"))),
            _ => {}
        }
    }
    let peer_line = format!(
        "peers {}\n",
        addrs
            .iter()
            .map(|a| a.as_deref().expect("all ready"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let wdl = Instant::now() + TUNING.report_grace();
    for p in pipes {
        write_all_deadline(p, peer_line.as_bytes(), wdl)?;
        write_all_deadline(p, b"start\n", wdl)?;
    }
    phases.ready_s = called.elapsed().as_secs_f64();

    // --- feed shard status sums to the detector until converged or timed out ---
    let started = Instant::now();
    let deadline = started + spec.timeout;
    let mut shard_status: Vec<Option<Status>> = vec![None; k];
    let mut detector = Detector::new(n as u64);
    let mut converged = false;
    let mut wall_s;
    loop {
        wall_s = started.elapsed().as_secs_f64();
        let Some((s, up)) = recv_or_timeout(rx, deadline)? else {
            break; // timeout: not converged
        };
        match up {
            ShardUp::Status(st) => shard_status[s] = Some(st),
            ShardUp::Error(e) => return Err(io::Error::other(format!("shard {s}: {e}"))),
            _ => continue,
        }
        if shard_status.iter().any(Option::is_none) {
            continue;
        }
        match detector.observe(Status::sum(shard_status.iter().flatten())) {
            Step::Wait => {}
            Step::Probe(wave) => {
                let wdl = Instant::now() + TUNING.report_grace();
                for p in pipes {
                    write_all_deadline(p, format!("probe {wave}\n").as_bytes(), wdl)?;
                }
            }
            Step::Converged => {
                converged = true;
                wall_s = started.elapsed().as_secs_f64();
                break;
            }
        }
    }

    // --- stop everyone, collect the shard reports ---
    let stopped = Instant::now();
    let wdl = stopped + TUNING.report_grace();
    for p in pipes {
        let _ = write_all_deadline(p, b"stop\n", wdl);
    }
    let report_deadline = Instant::now() + TUNING.report_grace();
    let mut reports: Vec<Option<ShardReport>> = (0..k).map(|_| None).collect();
    while reports.iter().any(Option::is_none) {
        let Some((s, up)) = recv_or_timeout(rx, report_deadline)? else {
            break;
        };
        match up {
            ShardUp::Done(r) => reports[s] = Some(*r),
            ShardUp::Error(e) => return Err(io::Error::other(format!("shard {s}: {e}"))),
            _ => {}
        }
    }
    phases.report_s = stopped.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(k);
    for (s, r) in reports.into_iter().enumerate() {
        out.push(r.ok_or_else(|| io::Error::other(format!("shard {s} sent no report")))?);
    }
    Ok((converged, wall_s, detector.detect, out))
}

/// Runs a cluster to convergence (or timeout) and reconciles the ledgers.
pub fn run_cluster(spec: &ClusterSpec) -> io::Result<RunReport> {
    let called = Instant::now();
    register_thread(COMPONENT, "orch.main");
    let model = crate::conc::model(&TUNING);
    let n = spec.graph.n();
    let ranges = shard_ranges(n, spec.shards);
    let k = ranges.len();
    raise_nofile_limit(nofile_budget(&spec.graph, &ranges, &spec.mode));

    let (up_tx, up_rx) =
        tracked_channel::<(usize, ShardUp)>(COMPONENT, model.channel_decl("orch.shard"));
    // One run value for every group of the run.
    let run = Arc::new(Run {
        graph: spec.graph.clone(),
        seed: spec.seed,
        listen: spec.listen.clone(),
        workload: spec.workload,
        chaos: spec.chaos,
        clients: spec.clients,
    });
    let mut pipes: Vec<UnixStream> = Vec::with_capacity(k);
    let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(k);
    for (s, range) in ranges.iter().enumerate() {
        let (orch_side, shard_side) = UnixStream::pair()?;
        orch_side.set_nonblocking(true)?;
        let (run, members) = (Arc::clone(&run), range.clone());
        let mode = spec.mode.clone();
        let tx = up_tx.clone();
        joins.push(spawn_registered(COMPONENT, "shard.super", move || {
            shard_main(s, run, members, mode, shard_side, tx)
        }));
        pipes.push(orch_side);
    }
    drop(up_tx);

    let mut phases = Phases::default();
    let outcome = drive(spec, n, &up_rx, &pipes, called, &mut phases);
    // Dropping the pipes EOFs any shard still in flight (error paths);
    // shards wind their nodes down and exit, so the joins are bounded.
    drop(pipes);
    for j in joins {
        let _ = j.join();
    }
    let (converged, wall_s, detect, mut shard_reports) = outcome?;

    // --- reconcile + hierarchical aggregation ---
    let mut nodes: Vec<NodeReport> = Vec::with_capacity(n);
    for sr in &mut shard_reports {
        nodes.append(&mut sr.reports);
    }
    nodes.sort_by_key(|r| r.node);
    // The shards joined their ledgers as they streamed in; the root merges
    // the K joins, whose verdict stands when they paired every entry.
    let audit = Instant::now();
    let mut running = RunningAudit::default();
    for sr in &mut shard_reports {
        running.merge(std::mem::take(&mut sr.audit));
    }
    let running = running.finish();
    let reference = running.is_none();
    let mut verdict = running.unwrap_or_default();
    let mut client_verdict = None;
    if reference || spec.clients.is_some() {
        // A report's three lists *are* its ledger: lend them to the joins
        // and hand them back, so `RunReport::nodes` stays whole.
        let ledgers: Vec<NodeLedger> = nodes
            .iter_mut()
            .map(|r| NodeLedger {
                node: r.node,
                generated: std::mem::take(&mut r.generated),
                delivered: std::mem::take(&mut r.delivered),
                held: std::mem::take(&mut r.held),
            })
            .collect();
        if reference {
            verdict = reconcile_ledgers(&ledgers);
        }
        // Client mode: the per-client audit is a sort-merge join over the
        // same merged ledgers, with `stamp_decode` reading the ghost
        // packing as `(client, seq)` stamps (acks decode to None).
        client_verdict = spec
            .clients
            .as_ref()
            .map(|_| reconcile_clients(&ledgers, crate::clients::stamp_decode));
        for (r, l) in nodes.iter_mut().zip(ledgers) {
            (r.generated, r.delivered, r.held) = (l.generated, l.delivered, l.held);
        }
    }
    phases.audit_s = audit.elapsed().as_secs_f64();

    let shard_summaries: Vec<ShardSummary> = shard_reports.into_iter().map(|r| r.summary).collect();
    let mut total = ShardSummary::default();
    for s in &shard_summaries {
        total.merge(s);
    }
    let ledger = LedgerFlow {
        reference,
        ..total.ledger
    };
    let throughput = if wall_s > 0.0 {
        total.primaries_delivered as f64 / wall_s
    } else {
        0.0
    };
    Ok(RunReport {
        scenario: None,
        topology: spec.topology.clone(),
        n,
        seed: spec.seed,
        shards: k,
        converged,
        wall_s,
        detect,
        phases,
        ledger,
        verdict,
        primaries_delivered: total.primaries_delivered,
        throughput,
        latency: total.latency,
        batch: total.batch,
        counters: total.counters,
        client_verdict,
        client_rtt: total.client_rtt,
        client_fair: total.client_fair,
        clients: total.clients,
        clients_completed: total.clients_completed,
        shard_summaries,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_mp::MpGhost;

    #[test]
    fn shard_ranges_partition_the_nodes() {
        for n in [1usize, 2, 5, 10, 64, 100] {
            for shards in [0usize, 1, 2, 3, 4, 7, 100, 1000] {
                let ranges = shard_ranges(n, shards);
                assert!(!ranges.is_empty());
                assert!(ranges.len() <= shards.max(1).min(n));
                // Contiguous, disjoint, covering.
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at n={n} shards={shards}");
                    assert!(r.end > r.start);
                    next = r.end;
                }
                assert_eq!(next, n, "short cover at n={n} shards={shards}");
            }
        }
    }

    /// The satellite pin: the orchestrator's hierarchical merge (nodes →
    /// shard summaries → run totals) equals the flat per-node sum, for
    /// histograms and every counter, at any sharding.
    #[test]
    fn merged_report_equals_sum_of_shard_reports() {
        let reports: Vec<NodeReport> = (0..10usize)
            .map(|p| {
                let mut lat = LogHistogram::new();
                let mut bat = LogHistogram::new();
                for v in 0..40u64 {
                    lat.record((p as u64 + 1) * 100 + v * 7);
                    bat.record(v % 9 + 1);
                }
                let mut crtt = LogHistogram::new();
                let mut cfair = LogHistogram::new();
                for v in 0..25u64 {
                    crtt.record((p as u64 + 1) * 200 + v * 11);
                    if v % 5 == 0 {
                        cfair.record((p as u64 + 1) * 210);
                    }
                }
                NodeReport {
                    node: p,
                    generated: vec![],
                    delivered: vec![MpGhost::Valid(p as u64), MpGhost::Valid(1000 + p as u64)],
                    held: vec![],
                    latency: lat,
                    batch: bat,
                    client_rtt: crtt,
                    client_fair: cfair,
                    clients: 5 + p as u64,
                    clients_completed: 25,
                    counters: NodeCounters {
                        frames_sent: 10 + p as u64,
                        frames_received: 20 + p as u64,
                        heartbeats_sent: p as u64,
                        reconnects: p as u64 % 2,
                        chaos_dropped: 3 * p as u64,
                        chaos_duplicated: p as u64 / 2,
                        chaos_reordered: p as u64,
                        partition_dropped: p as u64 % 3,
                        write_syscalls: 5 + p as u64,
                        read_syscalls: 6 + p as u64,
                        conn_frames_dropped: p as u64 % 4,
                    },
                }
            })
            .collect();
        // The flat sum, by hand.
        let mut flat = ShardSummary::default();
        for r in &reports {
            flat.latency.merge(&r.latency);
            flat.batch.merge(&r.batch);
            flat.counters.add(&r.counters);
            flat.primaries_delivered += r.latency.count();
            flat.client_rtt.merge(&r.client_rtt);
            flat.client_fair.merge(&r.client_fair);
            flat.clients += r.clients;
            flat.clients_completed += r.clients_completed;
        }
        for shards in [1usize, 2, 3, 4, 10] {
            let mut top = ShardSummary::default();
            for range in shard_ranges(reports.len(), shards) {
                top.merge(&ShardSummary::of(&reports[range]));
            }
            assert_eq!(top.nodes, reports.len());
            assert_eq!(top.counters, flat.counters, "counters diverged at {shards}");
            assert_eq!(top.latency, flat.latency, "latency diverged at {shards}");
            assert_eq!(top.batch, flat.batch, "batch diverged at {shards}");
            assert_eq!(top.primaries_delivered, flat.primaries_delivered);
            // Client totals fold the same way through the same tree.
            let (rtt, fair) = (&top.client_rtt, &top.client_fair);
            assert_eq!(rtt, &flat.client_rtt, "client rtt diverged at {shards}");
            assert_eq!(fair, &flat.client_fair, "client fair diverged at {shards}");
            assert_eq!(top.clients, flat.clients);
            assert_eq!(top.clients_completed, flat.clients_completed);
        }
    }

    /// The telemetry-complexity pin: what reaches the root per shard is a
    /// *fixed-size* object however many clients the shard hosted, and the
    /// root's client aggregation is exactly K histogram merges — so root
    /// work is O(shards · BUCKET_CAPACITY), never O(total clients).
    #[test]
    fn root_client_work_is_bounded_by_shards_times_buckets() {
        use crate::telemetry::BUCKET_CAPACITY;
        let k = 8usize;
        let clients_per_shard = 1_000_000u64;
        let summaries: Vec<ShardSummary> = (0..k)
            .map(|s| {
                // A shard that hosted a million clients: a million RTT
                // samples and a million fairness samples…
                let mut rtt = LogHistogram::new();
                let mut fair = LogHistogram::new();
                for i in 0..clients_per_shard {
                    rtt.record(100 + (i * 7919) % 1_000_000);
                    fair.record(100 + (i * 104_729) % 1_000_000);
                }
                ShardSummary {
                    shard: s,
                    nodes: 3,
                    client_rtt: rtt,
                    client_fair: fair,
                    clients: clients_per_shard,
                    clients_completed: clients_per_shard,
                    ..ShardSummary::default()
                }
            })
            .collect();
        // …yet its upward representation is bounded by the histogram
        // capacity, independent of the sample count.
        for s in &summaries {
            assert_eq!(s.client_rtt.count(), clients_per_shard);
            assert!(s.client_rtt.nonzero_buckets().len() <= BUCKET_CAPACITY);
            assert!(s.client_fair.nonzero_buckets().len() <= BUCKET_CAPACITY);
        }
        // The root fold sees K such objects; its work is K bucket-wise
        // merges over fixed-capacity arrays. Totals still come out exact.
        let mut total = ShardSummary::default();
        for s in &summaries {
            total.merge(s);
        }
        assert_eq!(total.clients, k as u64 * clients_per_shard);
        assert_eq!(total.clients_completed, k as u64 * clients_per_shard);
        assert_eq!(total.client_rtt.count(), k as u64 * clients_per_shard);
        assert_eq!(total.client_fair.count(), k as u64 * clients_per_shard);
        assert!(total.client_rtt.nonzero_buckets().len() <= BUCKET_CAPACITY);
    }

    /// The fd budget counts streams, not edges: a 100-node grid on four
    /// data threads holds 6 ordered pairs of distinct groups, whatever its
    /// 180 edges; one thread holds no stream at all; a process per node
    /// leaves the parent the control tree. Control costs 2 fds per group
    /// and 2 per shard, not 2 per node.
    #[test]
    fn nofile_budget_counts_streams_between_groups() {
        let grid = ssmfp_topology::gen::grid(10, 10);
        let slack = 64;
        // Streams, listeners and `epoll` sets, then control.
        let four = nofile_budget(&grid, &shard_ranges(100, 4), &RunMode::Inproc);
        assert_eq!(four, 2 * 6 + 2 * 4 + (2 * 4 + 2 * 4) + slack);
        let one = nofile_budget(&grid, &shard_ranges(100, 1), &RunMode::Inproc);
        assert_eq!(one, 2 + (2 + 2) + slack);
        let each = nofile_budget(&grid, &shard_ranges(100, 100), &RunMode::Inproc);
        assert_eq!(each, 2 * 2 * 180 + 2 * 100 + (2 * 100 + 2 * 100) + slack);
        let proc = RunMode::Proc {
            exe: PathBuf::from("ssmfp-cluster"),
        };
        assert_eq!(
            nofile_budget(&grid, &shard_ranges(100, 4), &proc),
            2 * 100 + 2 * 4 + slack
        );
    }

    /// A shard of one inproc group, node `id`: the orchestrator's end of
    /// the shard's socketpair, the shard's end, the group's end of its
    /// control pipe, and the shard's slot for it.
    fn shard_of_one(id: NodeId) -> (UnixStream, UnixStream, UnixStream, Vec<GroupSlot>) {
        let (orch_side, orch) = UnixStream::pair().unwrap();
        let (sup_side, group_side) = UnixStream::pair().unwrap();
        sup_side.set_nonblocking(true).unwrap();
        let slots = vec![GroupSlot::new(&[id], sup_side, None)];
        (orch_side, orch, group_side, slots)
    }

    /// A wait that cannot work ends the shard with the error instead of
    /// spinning it at full CPU with the error dropped.
    #[test]
    fn a_broken_poller_ends_the_shard_with_an_error() {
        let (_orch_side, orch, _group_side, mut slots) = shard_of_one(0);
        let mut poll = watch(&orch, &mut slots).unwrap();
        poll.break_for_test();
        let outcome = supervise_briefly(poll, orch, slots);
        let err = outcome.expect("the shard spun").unwrap_err();
        assert!(err.starts_with("shard wait:"), "{err}");
    }

    /// What `supervise` returns within five seconds, run on a thread of its
    /// own.
    fn supervise_briefly(
        mut poll: Poller,
        orch: UnixStream,
        mut slots: Vec<GroupSlot>,
    ) -> Result<Result<(), String>, RecvTimeoutError> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut audit = ShardAudit::default();
            let _ = tx.send(supervise(&mut poll, &orch, &mut slots, &mut audit, &|_| {}));
        });
        rx.recv_timeout(Duration::from_secs(5))
    }

    /// A group that writes a `status` line the codec refuses ends its shard
    /// at once, with an error naming the node and the line, instead of
    /// leaving the shard on the group's last good status until the run
    /// times out.
    #[test]
    fn a_refused_status_line_ends_the_shard_with_an_error() {
        let (_orch_side, orch, mut group_side, mut slots) = shard_of_one(7);
        let poll = watch(&orch, &mut slots).unwrap();
        group_side
            .write_all(b"ready here\nstatus 0 1 1 2 2 0 0\nstatus 0 1 x 2 2 0 0\n")
            .unwrap();
        let outcome = supervise_briefly(poll, orch, slots);
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
        let (mut orch_side, orch, mut group_side, mut slots) = shard_of_one(3);
        let poll = watch(&orch, &mut slots).unwrap();
        // The shard reads the orchestrator's lines before a group's, so it
        // is running by the time it reads `ready` and then EOF.
        group_side.write_all(b"ready here\n").unwrap();
        orch_side.write_all(b"start\n").unwrap();
        drop(group_side);
        let outcome = supervise_briefly(poll, orch, slots);
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
            let (_orch_side, orch, mut group_side, mut slots) = shard_of_one(3);
            let poll = watch(&orch, &mut slots).unwrap();
            group_side.write_all(said.as_bytes()).unwrap();
            let outcome = supervise_briefly(poll, orch, slots);
            let err = outcome.expect("the shard kept running").unwrap_err();
            assert_eq!(err, want);
        }
    }

    /// A merged status of two nodes, both done, nothing held or buffered,
    /// every group having answered probe `wave`.
    fn quiet(wave: u64, generated: u64, delivered: u64) -> Status {
        Status {
            wave,
            nodes: 2,
            done: 2,
            generated,
            delivered,
            ..Status::default()
        }
    }

    /// Wave 1 read the sink A before it delivered B's primary and
    /// generated the ack, and the source B after it delivered that ack:
    /// A's (0, 0) and B's (1, 1) match though both messages were in flight
    /// between the two reads. The answer to the probe sees A's (1, 1) too:
    /// Σgenerated 2 > D₁ = 1, so no convergence — the answer starts the
    /// next wave, and only that wave's matching answer ends the run.
    #[test]
    fn a_skewed_wave_that_matches_does_not_converge() {
        let mut d = Detector::new(2);
        let node = |generated, delivered| Status {
            nodes: 1,
            done: 1,
            generated,
            delivered,
            ..Status::default()
        };
        assert_eq!(
            d.observe(Status::sum([&node(0, 0), &node(1, 1)])),
            Step::Probe(1)
        );
        assert_eq!(d.observe(quiet(1, 2, 2)), Step::Probe(2));
        assert_eq!(d.observe(quiet(2, 2, 2)), Step::Converged);
        assert_eq!(d.detect.probes, 2);
    }

    /// An answer every group gave after reading the probe, quiet, whose
    /// Σgenerated is wave 1's Σdelivered: converged. A status from before
    /// the answers (a keep-alive) is no answer.
    #[test]
    fn a_matching_answer_converges() {
        let mut d = Detector::new(2);
        assert_eq!(d.observe(quiet(0, 10, 10)), Step::Probe(1));
        let busy = Status {
            busy: 1,
            ..quiet(0, 10, 10)
        };
        assert_eq!(d.observe(busy), Step::Wait);
        assert_eq!(d.observe(quiet(1, 10, 10)), Step::Converged);
    }

    /// Wave 1's answer moved on, so wave 2 went out; a status in which
    /// some group has answered only wave 1 is ignored even though its sums
    /// match, and wave 2's answer decides.
    #[test]
    fn an_answer_to_a_stale_wave_is_ignored() {
        let mut d = Detector::new(2);
        assert_eq!(d.observe(quiet(0, 4, 4)), Step::Probe(1));
        assert_eq!(d.observe(quiet(1, 6, 6)), Step::Probe(2));
        assert_eq!(d.observe(quiet(1, 6, 6)), Step::Wait);
        assert_eq!(d.observe(quiet(2, 6, 6)), Step::Converged);
        assert_eq!(d.detect.probes, 2);
    }

    /// A run of zero messages: the first status that counts every node is
    /// wave 1, and the first answer ends the run — one probe.
    #[test]
    fn a_zero_message_start_converges_after_one_probe() {
        let mut d = Detector::new(2);
        let half = Status {
            nodes: 1,
            done: 1,
            ..Status::default()
        };
        assert_eq!(d.observe(half), Step::Wait, "a node not yet counted");
        assert_eq!(d.observe(quiet(0, 0, 0)), Step::Probe(1));
        assert_eq!(d.observe(quiet(1, 0, 0)), Step::Converged);
        assert_eq!(
            d.detect,
            Detection {
                probes: 1,
                last: quiet(1, 0, 0)
            }
        );
    }

    #[test]
    fn partition_pick_is_deterministic() {
        let g = ssmfp_topology::gen::ring(6);
        let a = pick_partition(&g, 11, 5, 30);
        let b = pick_partition(&g, 11, 5, 30);
        assert_eq!(a, b);
        assert!(g.has_edge(a.a, a.b));
    }
}
