//! Cluster orchestration: spawn an N-node topology, feed it a workload,
//! watch it converge, reconcile the per-node ledgers into a cluster-wide
//! SP verdict, and emit a JSON run report.
//!
//! ## The shard tree (PR 8)
//!
//! The control plane is a two-level tree. `orch.main` spawns K
//! `shard.super` threads, each supervising a contiguous block of nodes
//! (tasks of one `node.main` data thread in [`RunMode::Inproc`], OS
//! processes in [`RunMode::Proc`]). A shard polls its nodes' control
//! pipes directly — no per-node reader threads — so a whole inproc run
//! costs `2 · shards + 1` threads: [`ClusterSpec::shards`] says how many
//! groups the nodes run in and thereby how many threads carry them
//! (`shards = n` is one thread per node).
//!
//! Shards pre-merge what flows upward: the `status` lines of their node
//! groups (one per group, [`Status`]) become one sum, and per-node reports
//! become one [`ShardReport`] whose [`ShardSummary`] already carries the
//! merged histograms and counters. A node's ledger reaches its shard while
//! the run runs — each member's new entries ride behind every status line
//! of its group, and the shard folds each line into the node's report as
//! it completes ([`crate::codec`]) — so `stop` draws only the tail
//! ([`RunReport::ledger`]). The orchestrator then works O(K) per
//! status and, at reconciliation, one visit per merged ledger entry plus
//! one sort per list — it concatenates the shard ledger lists and calls
//! `reconcile_ledgers` exactly once, a sort-merge join (the SP verdict is
//! a global join; only the *assembly* shards, never the verdict).
//! [`RunReport::phases`] says where the time outside the measured window
//! went: bring-up, report upload, and these joins.
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
use crate::codec::{fold_line, node_args, NodeReport, Status};
use crate::conc::COMPONENT;
use crate::evloop::{
    raise_nofile_limit, set_nonblocking_fd, take_lines, CtrlPipe, Poller, POLLERR, POLLHUP, POLLIN,
    POLLOUT,
};
use crate::node::{run_nodes, ListenSpec, NodeConfig};
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::tuning::TUNING;
use crate::workload::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::cli::json_string;
use ssmfp_core::conc::{register_thread, spawn_registered, tracked_channel, TrackedSender};
use ssmfp_core::{reconcile_clients, reconcile_ledgers, ClientVerdict, ClusterVerdict, NodeLedger};
use ssmfp_topology::{Graph, NodeId};
use std::io::{self, Read, Write};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
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

/// Everything a shard sends upward at the end of a run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The pre-merged totals.
    pub summary: ShardSummary,
    /// The raw per-node reports (ledgers ride here to the single global
    /// reconciliation).
    pub reports: Vec<NodeReport>,
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
    /// The ledger joins.
    pub audit_s: f64,
}

/// When the ledger reached the shards: entries — generated plus delivered
/// — folded before the shard read `stop`, and after it. A node ships its
/// new entries behind every status line of its group, so after a quiet
/// probe answer, in a converged run, nothing is left for `stop`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerFlow {
    /// Entries shipped while the run ran.
    pub streamed: u64,
    /// Entries in the blocks written at `stop`.
    pub tail: u64,
}

/// Outcome of one cluster run.
#[derive(Debug, Clone)]
pub struct RunReport {
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
                "{{\n",
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
                "  \"ledger\": {{\"streamed\": {}, \"tail\": {}}}{}\n",
                "}}"
            ),
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

/// Folds a node group's reports into its pre-merged [`ShardSummary`].
fn summarize(shard: usize, reports: &[NodeReport]) -> ShardSummary {
    let mut s = ShardSummary {
        shard,
        nodes: reports.len(),
        ..ShardSummary::default()
    };
    for r in reports {
        s.latency.merge(&r.latency);
        s.batch.merge(&r.batch);
        // The sink records one latency sample per primary it answers, in
        // both modes — their ghost packings differ, so no ghost bit says
        // "ack" in both.
        s.primaries_delivered += r.latency.count();
        s.counters.add(&r.counters);
        s.client_rtt.merge(&r.client_rtt);
        s.client_fair.merge(&r.client_fair);
        s.clients += r.clients;
        s.clients_completed += r.clients_completed;
    }
    s
}

/// Folds shard summaries into the run-level client totals. This is the
/// *only* client aggregation the root does: K bucket-wise histogram
/// merges plus K additions — O(shards · buckets), independent of how
/// many clients the run hosted (pinned by a unit test).
fn fold_client_totals(summaries: &[ShardSummary]) -> (LogHistogram, LogHistogram, u64, u64) {
    let mut rtt = LogHistogram::new();
    let mut fair = LogHistogram::new();
    let mut clients = 0u64;
    let mut completed = 0u64;
    for s in summaries {
        rtt.merge(&s.client_rtt);
        fair.merge(&s.client_fair);
        clients += s.clients;
        completed += s.clients_completed;
    }
    (rtt, fair, clients, completed)
}

/// The descriptors a run holds at once, from the shape of its streams. A
/// data stream joins an ordered pair of *distinct* groups that share an
/// edge — an edge inside a group is in memory and holds none — and is two
/// descriptors, the dialling end and the accepted end; a group also holds
/// at most a listener and its `epoll` set, every node a control pipe of
/// two ends, every shard a socketpair to the orchestrator. Inproc a group
/// is a shard and all of it is in this process. In process mode a group is
/// one node in a process of its own, which inherits the limit set here:
/// the parent holds the control tree only, and no child's two streams per
/// neighbour come to more than that.
fn nofile_budget(graph: &Graph, ranges: &[Range<usize>], mode: &RunMode) -> u64 {
    let control = 2 * graph.n() + 2 * ranges.len();
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

fn node_config(spec: &ClusterSpec, p: usize) -> NodeConfig {
    NodeConfig {
        node: p,
        n: spec.graph.n(),
        edges: spec.graph.edges().to_vec(),
        seed: spec.seed,
        listen: spec.listen.clone(),
        workload: spec.workload,
        chaos: spec.chaos,
        clients: spec.clients,
    }
}

// ---------------------------------------------------------------------------
// Shard supervisor
// ---------------------------------------------------------------------------

/// A shard's handle on one node's control pipe — and, for a process, its
/// lifetime (an inproc shard's nodes share one thread, joined once for
/// the shard).
enum NodeCtrl {
    /// The supervisor's end of the socketpair (nonblocking).
    Thread(UnixStream),
    Proc {
        child: Child,
        /// Parent's write end of the child's stdin pipe (nonblocking).
        stdin: Option<ChildStdin>,
        /// Parent's read end of the child's stdout pipe (nonblocking).
        stdout: ChildStdout,
    },
}

impl NodeCtrl {
    fn read_fd(&self) -> i32 {
        match self {
            NodeCtrl::Thread(pipe) => pipe.as_raw_fd(),
            NodeCtrl::Proc { stdout, .. } => stdout.as_raw_fd(),
        }
    }

    fn write_fd(&self) -> i32 {
        match self {
            NodeCtrl::Thread(pipe) => pipe.as_raw_fd(),
            NodeCtrl::Proc { stdin, .. } => stdin.as_ref().expect("stdin open").as_raw_fd(),
        }
    }

    fn read_once(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NodeCtrl::Thread(pipe) => (&*pipe).read(buf),
            NodeCtrl::Proc { stdout, .. } => stdout.read(buf),
        }
    }

    fn write_some(&mut self, bytes: &[u8]) -> io::Result<usize> {
        match self {
            NodeCtrl::Thread(pipe) => (&*pipe).write(bytes),
            NodeCtrl::Proc { stdin, .. } => stdin.as_mut().expect("stdin open").write(bytes),
        }
    }

    /// Closes the control pipe (a node still running reads EOF and winds
    /// down) and reaps the process, if it is one.
    fn finish(self) {
        match self {
            NodeCtrl::Thread(pipe) => drop(pipe),
            NodeCtrl::Proc {
                mut child, stdin, ..
            } => {
                drop(stdin);
                let deadline = Instant::now() + TUNING.proc_exit_grace();
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            thread::sleep(TUNING.proc_wait_poll());
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
    }
}

/// A shard's per-node supervision state.
struct NodeSlot {
    id: NodeId,
    ctrl: NodeCtrl,
    /// Read accumulator (partial control lines).
    acc: Vec<u8>,
    /// Staged downward control bytes, written on `POLLOUT` only.
    staged: Vec<u8>,
    staged_at: usize,
    eof: bool,
    ready: Option<String>,
    /// The latest `status` line on this pipe: its group's, if the node is
    /// the group's first live member.
    status: Option<Status>,
    /// The node's report as its lines arrive ([`NodeSlot::hear`]); `None`
    /// once a line was refused.
    report: Option<NodeReport>,
    /// Its block's `end` arrived.
    ended: bool,
    /// Its ledger entries folded before and after `stop`.
    ledger: LedgerFlow,
    /// The interest registered for the read fd and for the write fd.
    watched: [i16; 2],
}

impl NodeSlot {
    fn new(id: NodeId, ctrl: NodeCtrl) -> Self {
        NodeSlot {
            id,
            ctrl,
            acc: Vec::new(),
            staged: Vec::new(),
            staged_at: 0,
            eof: false,
            ready: None,
            status: None,
            report: Some(NodeReport {
                node: id,
                ..NodeReport::default()
            }),
            ended: false,
            ledger: LedgerFlow::default(),
            watched: [0; 2],
        }
    }

    fn stage(&mut self, line: &[u8]) {
        self.staged.extend_from_slice(line);
        self.staged.push(b'\n');
    }

    /// One line from the node, read where it lies: `ready` and `status`
    /// are the shard's; every other line folds into the node's report the
    /// moment it completes — ledger deltas whenever they come, counted
    /// as streamed or, once the shard read `stop`, as tail.
    fn hear(&mut self, line: &[u8], stopped: bool) {
        if let Some(addr) = line.strip_prefix(b"ready ") {
            self.ready = Some(String::from_utf8_lossy(addr).into_owned());
        } else if let Some(rest) = line.strip_prefix(b"status ") {
            self.status = Status::parse(rest).or(self.status);
        } else if line.starts_with(b"report ") {
            // The block's head: its lines follow.
        } else if let Some(r) = &mut self.report {
            let before = r.generated.len() + r.delivered.len();
            match fold_line(r, line) {
                Some(end) => {
                    self.ended |= end;
                    let entries = (r.generated.len() + r.delivered.len() - before) as u64;
                    if stopped {
                        self.ledger.tail += entries;
                    } else {
                        self.ledger.streamed += entries;
                    }
                }
                None => self.report = None,
            }
        }
    }

    /// Keeps slot `i`'s registrations at what the shard still waits for:
    /// the node's lines until EOF — a pipe whose writer closed stays open,
    /// and level-triggered `POLLHUP` would spin the loop — and writability
    /// while bytes are staged. An inproc pipe is one fd both ways, so
    /// `POLLOUT` toggles on it; a process has two.
    fn watch(&mut self, i: usize, poll: &Poller) -> io::Result<()> {
        let read = if self.eof { 0 } else { POLLIN };
        let write = if self.staged_at < self.staged.len() {
            POLLOUT
        } else {
            0
        };
        let (r, w) = (self.ctrl.read_fd(), self.ctrl.write_fd());
        let want = if r == w {
            [(r, read | write), (w, 0)]
        } else {
            [(r, read), (w, write)]
        };
        for (had, (fd, want)) in self.watched.iter_mut().zip(want) {
            match (*had, want) {
                (had, want) if had == want => {}
                (0, _) => poll.add(fd, want, Poller::token(i, fd))?,
                (_, 0) => poll.del(fd)?,
                _ => poll.modify(fd, want, Poller::token(i, fd))?,
            }
            *had = want;
        }
        Ok(())
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Phase {
    Ready,
    Running,
    Reporting,
}

fn spawn_proc_node(exe: &PathBuf, cfg: &NodeConfig) -> io::Result<NodeCtrl> {
    let mut child = Command::new(exe)
        .arg("--node-worker")
        .args(node_args(cfg))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    // Only the parent's pipe ends go nonblocking: the child's stdio fds
    // are separate file descriptions, so the node's blocking ctrl writes
    // are untouched.
    set_nonblocking_fd(stdin.as_raw_fd(), true)?;
    set_nonblocking_fd(stdout.as_raw_fd(), true)?;
    Ok(NodeCtrl::Proc {
        child,
        stdin: Some(stdin),
        stdout,
    })
}

/// Launches a shard's node group: one `node.main` thread running all of
/// them inproc (`Some` handle to join once every pipe is closed), one
/// process each in proc mode. On error `slots` holds what was launched
/// before it.
fn spawn_nodes(
    cfgs: Vec<NodeConfig>,
    mode: &RunMode,
    slots: &mut Vec<NodeSlot>,
) -> io::Result<Option<JoinHandle<()>>> {
    let named = |id: NodeId| move |e: io::Error| io::Error::other(format!("node {id}: {e}"));
    match mode {
        RunMode::Inproc => {
            let mut nodes = Vec::with_capacity(cfgs.len());
            for cfg in cfgs {
                let (sup_side, node_side) = UnixStream::pair().map_err(named(cfg.node))?;
                sup_side.set_nonblocking(true).map_err(named(cfg.node))?;
                slots.push(NodeSlot::new(cfg.node, NodeCtrl::Thread(sup_side)));
                nodes.push((cfg, CtrlPipe::Stream(node_side)));
            }
            // The reports come up the pipes; the thread's own copies go.
            Ok(Some(spawn_registered(COMPONENT, "node.main", move || {
                drop(run_nodes(nodes))
            })))
        }
        RunMode::Proc { exe } => {
            for cfg in &cfgs {
                let ctrl = spawn_proc_node(exe, cfg).map_err(named(cfg.node))?;
                slots.push(NodeSlot::new(cfg.node, ctrl));
            }
            Ok(None)
        }
    }
}

/// Closes **every** control pipe of the shard, and only then joins the
/// thread its nodes share: a node leaves that thread when it reads EOF,
/// so a join behind a single closed pipe would wait forever on the
/// nodes still holding theirs.
fn wind_down(slots: Vec<NodeSlot>, data: Option<JoinHandle<()>>) {
    for s in slots {
        s.ctrl.finish();
    }
    if let Some(join) = data {
        // Whatever ended a node — error or panic — already reached the
        // supervisor as EOF on its pipe.
        let _ = join.join();
    }
}

/// The owner half of the orchestrator socketpair's [`Poller::token`] in a
/// shard's set; a node's control fds carry its slot index.
const ORCH: usize = u32::MAX as usize;

/// One shard supervisor: spawns its node group, waits on every control
/// pipe plus the orchestrator socketpair in one [`Poller`], forwards
/// control lines downward (staged, `POLLOUT`-gated — the declared timed
/// write), and pre-merges status and reports upward: the sum of its
/// groups' latest lines goes up at once when it is quiet and new or
/// completes a probe wave, and otherwise once per `status_every`.
fn shard_main(
    shard: usize,
    cfgs: Vec<NodeConfig>,
    mode: RunMode,
    orch: UnixStream,
    up: TrackedSender<(usize, ShardUp)>,
) {
    register_thread(COMPONENT, "shard.super");
    let send_up = |msg: ShardUp| {
        // Untimed `ChanSend(orch.shard)` — the declared upstream edge.
        // A disconnected receiver means the orchestrator already gave
        // up; keep going so the node handles still get finished.
        let _ = up.send((shard, msg));
    };
    let mut slots: Vec<NodeSlot> = Vec::with_capacity(cfgs.len());
    let data = spawn_nodes(cfgs, &mode, &mut slots);
    let outcome = data
        .as_ref()
        .map_err(|e| format!("spawn {e}"))
        .and_then(|_| {
            let mut poll = watch(&orch, &mut slots).map_err(shard_wait)?;
            supervise(&mut poll, &orch, &mut slots, &send_up)?;
            shard_report(shard, &mut slots)
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

/// A shard's readiness set: the orchestrator socketpair and every node's
/// control pipe, each registered for as long as the shard waits on it.
fn watch(orch: &UnixStream, slots: &mut [NodeSlot]) -> io::Result<Poller> {
    let (poll, fd) = (Poller::new()?, orch.as_raw_fd());
    poll.add(fd, POLLIN, Poller::token(ORCH, fd))?;
    for (i, s) in slots.iter_mut().enumerate() {
        s.watch(i, &poll)?;
    }
    Ok(poll)
}

/// The supervision loop, on the set [`watch`] built, until every node has
/// reported or hung up. A wait that fails — anything but `EINTR` — or a
/// registration the set refuses cannot be retried into working: it ends
/// the shard with the error instead of spinning it.
fn supervise(
    poll: &mut Poller,
    orch: &UnixStream,
    slots: &mut [NodeSlot],
    send_up: &dyn Fn(ShardUp),
) -> Result<(), String> {
    let mut events: Vec<(u64, i16)> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut orch_acc: Vec<u8> = Vec::new();
    let mut phase = Phase::Ready;
    let mut ready_sent = false;
    let mut last_status = Instant::now();
    let mut forwarded: Option<Status> = None;
    let mut report_deadline = Instant::now();
    loop {
        let cap = Duration::from_millis(50);
        let timeout = match phase {
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
        // every node. (The shard's end of the socketpair is blocking: one
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
            let (i, fd) = Poller::untoken(token);
            let Some(s) = slots.get_mut(i) else { continue };
            // Node lines (nonblocking fds: drain to WouldBlock).
            let readable = ev & (POLLIN | POLLERR | POLLHUP) != 0 && fd == s.ctrl.read_fd();
            let stopped = phase == Phase::Reporting;
            while readable && !s.eof {
                match s.ctrl.read_once(&mut scratch) {
                    Ok(0) => s.eof = true,
                    Ok(k) => {
                        let mut acc = std::mem::take(&mut s.acc);
                        take_lines(&mut acc, &scratch[..k], |line| s.hear(line, stopped));
                        s.acc = acc;
                        if k < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => s.eof = true,
                }
            }
            if s.eof {
                // A node gone: its group's line, if it carried one, moves
                // to the next live member's pipe.
                s.status = None;
            }
            // Staged downward writes, POLLOUT-gated (the declared timed
            // `SockWrite(node.main)` edge — the shard never blocks on a
            // node).
            let writable = ev & (POLLOUT | POLLERR | POLLHUP) != 0 && fd == s.ctrl.write_fd();
            while writable && s.staged_at < s.staged.len() {
                match s.ctrl.write_some(&s.staged[s.staged_at..]) {
                    Ok(0) => break,
                    Ok(k) => s.staged_at += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    // Node died; the read side will surface EOF.
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
                        .map(|s| (s.id, s.ready.clone().expect("all ready")))
                        .collect();
                    send_up(ShardUp::Ready(list));
                    ready_sent = true;
                }
                if let Some(dead) = slots.iter().find(|s| s.eof && s.ready.is_none()) {
                    return Err(format!("node {} exited before ready", dead.id));
                }
            }
            Phase::Running => {
                let sum = Status::sum(slots.iter().filter_map(|s| s.status.as_ref()));
                let quiet_news = sum.quiet(slots.len() as u64) && forwarded != Some(sum);
                let answered = sum.wave > forwarded.map_or(0, |f| f.wave);
                if quiet_news || answered || last_status.elapsed() >= TUNING.status_every() {
                    last_status = Instant::now();
                    forwarded = Some(sum);
                    send_up(ShardUp::Status(sum));
                }
            }
            Phase::Reporting => {
                if slots.iter().all(|s| s.ended || s.eof) {
                    return Ok(());
                }
                if Instant::now() >= report_deadline {
                    let missing = slots.iter().find(|s| !s.ended).map(|s| s.id).unwrap_or(0);
                    return Err(format!("node {missing} sent no report in time"));
                }
            }
        }
    }
}

/// Takes every node's folded report into the pre-merged shard report.
fn shard_report(shard: usize, slots: &mut [NodeSlot]) -> Result<ShardReport, String> {
    let mut reports: Vec<NodeReport> = Vec::with_capacity(slots.len());
    let mut ledger = LedgerFlow::default();
    for s in slots.iter_mut() {
        let report = s
            .report
            .take()
            .ok_or_else(|| format!("node {} report unparsable", s.id))?;
        if !s.ended {
            return Err(format!("node {} hung up before its report", s.id));
        }
        reports.push(report);
        ledger.streamed += s.ledger.streamed;
        ledger.tail += s.ledger.tail;
    }
    Ok(ShardReport {
        shard,
        summary: ShardSummary {
            ledger,
            ..summarize(shard, &reports)
        },
        reports,
    })
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

    let (up_tx, up_rx, _up_stats) =
        tracked_channel::<(usize, ShardUp)>(COMPONENT, model.channel_decl("orch.shard"));
    let mut pipes: Vec<UnixStream> = Vec::with_capacity(k);
    let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(k);
    for (s, range) in ranges.iter().enumerate() {
        let (orch_side, shard_side) = UnixStream::pair()?;
        orch_side.set_nonblocking(true)?;
        let cfgs: Vec<NodeConfig> = range.clone().map(|p| node_config(spec, p)).collect();
        let mode = spec.mode.clone();
        let tx = up_tx.clone();
        joins.push(spawn_registered(COMPONENT, "shard.super", move || {
            shard_main(s, cfgs, mode, shard_side, tx)
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
    // A report's three lists *are* its ledger: lend them to the two joins
    // and hand them back, so `RunReport::nodes` stays whole.
    let audit = Instant::now();
    let ledgers: Vec<NodeLedger> = nodes
        .iter_mut()
        .map(|r| NodeLedger {
            node: r.node,
            generated: std::mem::take(&mut r.generated),
            delivered: std::mem::take(&mut r.delivered),
            held: std::mem::take(&mut r.held),
        })
        .collect();
    let verdict = reconcile_ledgers(&ledgers);
    // Client mode: the per-client audit is a second sort-merge join over
    // the same merged ledgers, with `stamp_decode` reading the ghost
    // packing as `(client, seq)` stamps (acks decode to None).
    let client_verdict = spec
        .clients
        .as_ref()
        .map(|_| reconcile_clients(&ledgers, crate::clients::stamp_decode));
    for (r, l) in nodes.iter_mut().zip(ledgers) {
        (r.generated, r.delivered, r.held) = (l.generated, l.delivered, l.held);
    }
    phases.audit_s = audit.elapsed().as_secs_f64();

    let shard_summaries: Vec<ShardSummary> = shard_reports.into_iter().map(|r| r.summary).collect();
    let mut latency = LogHistogram::new();
    let mut batch = LogHistogram::new();
    let mut counters = NodeCounters::default();
    let mut primaries_delivered = 0u64;
    let mut ledger = LedgerFlow::default();
    for s in &shard_summaries {
        latency.merge(&s.latency);
        batch.merge(&s.batch);
        counters.add(&s.counters);
        primaries_delivered += s.primaries_delivered;
        ledger.streamed += s.ledger.streamed;
        ledger.tail += s.ledger.tail;
    }
    let (client_rtt, client_fair, clients, clients_completed) =
        fold_client_totals(&shard_summaries);
    let throughput = if wall_s > 0.0 {
        primaries_delivered as f64 / wall_s
    } else {
        0.0
    };
    Ok(RunReport {
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
        primaries_delivered,
        throughput,
        latency,
        batch,
        counters,
        client_verdict,
        client_rtt,
        client_fair,
        clients,
        clients_completed,
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
        let flat = summarize(0, &reports);
        for shards in [1usize, 2, 3, 4, 10] {
            let mut top_lat = LogHistogram::new();
            let mut top_bat = LogHistogram::new();
            let mut top_ctr = NodeCounters::default();
            let mut top_prim = 0u64;
            let summaries: Vec<ShardSummary> = shard_ranges(reports.len(), shards)
                .iter()
                .enumerate()
                .map(|(s, range)| summarize(s, &reports[range.clone()]))
                .collect();
            for sum in &summaries {
                top_lat.merge(&sum.latency);
                top_bat.merge(&sum.batch);
                top_ctr.add(&sum.counters);
                top_prim += sum.primaries_delivered;
            }
            assert_eq!(top_ctr, flat.counters, "counters diverged at {shards}");
            assert_eq!(top_lat, flat.latency, "latency diverged at {shards}");
            assert_eq!(top_bat, flat.batch, "batch diverged at {shards}");
            assert_eq!(top_prim, flat.primaries_delivered);
            // Client totals fold the same way through the same tree.
            let (rtt, fair, clients, completed) = fold_client_totals(&summaries);
            assert_eq!(rtt, flat.client_rtt, "client rtt diverged at {shards}");
            assert_eq!(fair, flat.client_fair, "client fair diverged at {shards}");
            assert_eq!(clients, flat.clients);
            assert_eq!(completed, flat.clients_completed);
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
        let (rtt, fair, clients, completed) = fold_client_totals(&summaries);
        assert_eq!(clients, k as u64 * clients_per_shard);
        assert_eq!(completed, k as u64 * clients_per_shard);
        assert_eq!(rtt.count(), k as u64 * clients_per_shard);
        assert_eq!(fair.count(), k as u64 * clients_per_shard);
        assert!(rtt.nonzero_buckets().len() <= BUCKET_CAPACITY);
    }

    /// The fd budget counts streams, not edges: a 100-node grid on four
    /// data threads holds 6 ordered pairs of distinct groups, whatever its
    /// 180 edges; one thread holds no stream at all; a process per node
    /// leaves the parent the control tree.
    #[test]
    fn nofile_budget_counts_streams_between_groups() {
        let grid = ssmfp_topology::gen::grid(10, 10);
        let slack = 64;
        let four = nofile_budget(&grid, &shard_ranges(100, 4), &RunMode::Inproc);
        assert_eq!(four, 2 * 6 + 2 * 4 + 2 * 100 + 2 * 4 + slack);
        let one = nofile_budget(&grid, &shard_ranges(100, 1), &RunMode::Inproc);
        assert_eq!(one, 2 + 2 * 100 + 2 + slack);
        let each = nofile_budget(&grid, &shard_ranges(100, 100), &RunMode::Inproc);
        assert_eq!(each, 2 * 2 * 180 + 2 * 100 + 2 * 100 + 2 * 100 + slack);
        let proc = RunMode::Proc {
            exe: PathBuf::from("ssmfp-cluster"),
        };
        assert_eq!(
            nofile_budget(&grid, &shard_ranges(100, 4), &proc),
            2 * 100 + 2 * 4 + slack
        );
    }

    /// A wait that cannot work ends the shard with the error instead of
    /// spinning it at full CPU with the error dropped.
    #[test]
    fn a_broken_poller_ends_the_shard_with_an_error() {
        let (_orch_side, orch) = UnixStream::pair().unwrap();
        let (sup_side, _node_side) = UnixStream::pair().unwrap();
        sup_side.set_nonblocking(true).unwrap();
        let mut slots = vec![NodeSlot::new(0, NodeCtrl::Thread(sup_side))];
        let mut poll = watch(&orch, &mut slots).unwrap();
        poll.break_for_test();
        let (tx, rx) = std::sync::mpsc::channel();
        let shard = thread::spawn(move || {
            let _ = tx.send(supervise(&mut poll, &orch, &mut slots, &|_| {}));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(5));
        let err = outcome.expect("the shard spun").unwrap_err();
        assert!(err.starts_with("shard wait:"), "{err}");
        shard.join().unwrap();
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
