//! Cluster orchestration: spawn an N-node topology, feed it a workload,
//! watch it converge, reconcile the per-node ledgers into a cluster-wide
//! SP verdict, and emit a JSON run report.
//!
//! ## The control tree
//!
//! The control plane is a one-level tree. `orch.main` launches K node
//! groups itself, each a contiguous block of nodes: the tasks of one
//! `node.main` data thread, on a thread of this process in
//! [`RunMode::Inproc`] and in one `--node-worker` process per shard in
//! [`RunMode::Proc`] — the same groups, streams and seeds either way. A
//! group is one control endpoint — one socketpair in both modes, a
//! worker's end as its fd 0 — and the root keeps the other end of each
//! (`crate::shard`). It writes every control line down it, `peers`,
//! `start`, `probe <w>` and `stop`, and reads what the group writes up it:
//! all K ends sit in one readiness set, and one loop reads every ready one
//! against the run deadline. A whole inproc run costs `shards + 1`
//! threads: [`ClusterSpec::shards`] says how many groups the nodes run in
//! and thereby how many threads carry them (`shards = n` is one thread, or
//! one process, per node).
//!
//! The root hands each group's `status` line ([`Status`]) to the stop rule
//! as it reads it, and folds per-node reports into one [`ShardSummary`]
//! per group ([`ShardSummary::merge`], the one fold from node reports to
//! run totals). A node's ledger reaches the root while the run runs — each
//! member's new entries ride behind every status line of its group after a
//! `node <id>` head, and the root folds each line into that node's report
//! as it completes ([`crate::codec`]) — so `stop` draws only the tail
//! ([`RunReport::ledger`]). Each turn, after the statuses it read, the
//! root feeds what it folded, from every group, to the run's one
//! [`ssmfp_core::RunningAudit`], the SP join run on the stream: it pairs
//! each ghost's generation with its delivery, wherever the two were
//! logged, and keeps only what is unpaired. At the end it takes that
//! join's verdict. Only when a stream was irregular or left entries
//! unpaired does it lend the whole reports to `reconcile_ledgers`, which
//! stays the one definition of the verdict (the running join returns
//! exactly that verdict or none). [`RunReport::phases`] says where the
//! time outside the measured window went: bring-up, report upload, and
//! the root's part of the audit.
//!
//! ## When a run is over: four counters
//!
//! A group writes its line the turn its cut goes quiet (every member done
//! issuing, nothing held, nothing buffered) and the root reads it in its
//! next turn, so it hears of a quiet cluster within a turn or two.
//! But the lines are read at different instants: a
//! sink read before it delivered a primary and generated its ack, and the
//! source read after it delivered that ack, add up to Σgenerated ==
//! Σdelivered while the two were in flight between the reads. So the root
//! (`Detector`) runs Mattern's four-counter rule ("Algorithms for
//! distributed termination detection", 1987). A quiet merged snapshot with
//! Σgenerated == Σdelivered is wave 1; the root then writes `probe <w>`
//! down every group's pipe, and each group answers once
//! with a cut taken after it read the probe (wave 2, a one-level
//! propagation of information with feedback). The run has converged iff
//! every answer is quiet and their Σgenerated G₂ equals wave 1's
//! Σdelivered D₁. The counters are monotone and every wave-2 read follows
//! every wave-1 read, so at the instant wave 1 ended, delivered ≥ D₁ = G₂ ≥
//! generated ≥ delivered: nothing was in flight, and with every node done
//! issuing nothing can be generated again. (A duplicate delivery could
//! fake the equality, but that is an SP violation the verdict reports.)
//! Anything else drops the candidate, and the next quiet snapshot starts
//! wave `w + 1`. The same rule covers one shard or many, threads or
//! processes.

use crate::chaos::{ChaosSpec, PartitionSpec};
use crate::clients::ClientSpec;
use crate::codec::{NodeReport, Status};
use crate::evloop::raise_nofile_limit;
use crate::node::{ListenSpec, Run};
use crate::shard::Groups;
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::tuning::Graces;
use crate::workload::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::cli::json_string;
use ssmfp_core::{reconcile_clients, reconcile_ledgers, ClientVerdict, ClusterVerdict, NodeLedger};
use ssmfp_topology::{Graph, NodeId};
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How nodes are launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunMode {
    /// Inside this process, every shard's nodes on one thread.
    Inproc,
    /// One OS process per shard, running `<exe> --node-worker --nodes
    /// A..B …` over the shard's nodes.
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
    /// Node groups the run splits its nodes into, each on one data thread
    /// (or in one process); clamped to `1..=n`.
    pub shards: usize,
    /// Launch mode.
    pub mode: RunMode,
    /// Give up (converged = false) after this long. The root's waits past
    /// it, for the reports and for the groups' exit, derive from it
    /// ([`Graces::of`]).
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
    /// How many of the shard's ledger entries streamed in and how many
    /// came at `stop` (the join is the run's, so the rest stays zero).
    pub ledger: LedgerFlow,
}

impl ShardSummary {
    /// The totals of node reports: each one's, merged.
    pub(crate) fn of(reports: &[NodeReport]) -> Self {
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
    /// merge bucket-wise and everything else adds, so the root's work is
    /// O(shards · buckets), however many nodes and clients the run hosted
    /// (pinned by a unit test).
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
        self.ledger.streamed += other.ledger.streamed;
        self.ledger.tail += other.ledger.tail;
    }
}

/// Where a run's time outside its measured window went, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    /// From the `run_cluster` call until `peers` and `start` went to
    /// every group: spawn, bind, listen, ready.
    pub ready_s: f64,
    /// From `stop` until the last group's reports arrived and the running
    /// join caught up: every node's report written, read and parsed.
    pub report_s: f64,
    /// The rest of the SP verdict: the running join's last settle, and the
    /// reference join and the client audit when they run.
    pub audit_s: f64,
}

/// When the ledger reached the root, and how it was joined: entries —
/// generated plus delivered — that a member shipped behind a status line
/// of its group, and those in its report block at `stop`. A node ships its
/// new entries behind every status line, so after a quiet probe answer, in
/// a converged run, nothing is left for `stop`; and the root joins what
/// it folds, from every group, as it folds it, in one
/// [`ssmfp_core::RunningAudit`] for the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerFlow {
    /// Entries shipped while the run ran.
    pub streamed: u64,
    /// Entries in the blocks written at `stop`.
    pub tail: u64,
    /// Root seconds spent in the running join.
    pub join_s: f64,
    /// The most entries the running join held unpaired.
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
    /// When the ledger entries reached the root.
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
                "\"chaos_duplicated\": {}, \"chaos_reordered\": {}, \"partition_dropped\": {}, ",
                "\"timeouts\": {}, \"slot_visits\": {}, \"slot_visits_per_frame\": {:.3}}},\n",
                "  \"io\": {{\"write_syscalls\": {}, \"read_syscalls\": {}, ",
                "\"conn_frames_dropped\": {}, \"frames_per_write\": {{\"count\": {}, ",
                "\"mean\": {:.2}, \"p50\": {}, \"p99\": {}, \"max\": {}}}, \"waits\": {}}},\n",
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
            c.timeouts,
            c.slot_visits,
            c.slot_visits as f64 / c.frames_received.max(1) as f64,
            c.write_syscalls,
            c.read_syscalls,
            c.conn_frames_dropped,
            self.batch.count(),
            self.batch.mean(),
            self.batch.quantile(0.50),
            self.batch.quantile(0.99),
            self.batch.max(),
            c.waits,
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
/// ends, the root's and the group's; the root waits on all of its ends in
/// one `epoll` set. A shard is one group, on its thread here or in a
/// process of its own that inherits the limit set here and holds no more
/// than its own group's share of it.
fn nofile_budget(graph: &Graph, ranges: &[Range<usize>]) -> u64 {
    let group = |p: NodeId| ranges.iter().position(|r| r.contains(&p));
    let mut pairs: Vec<_> = graph
        .edges()
        .iter()
        .filter(|&&(a, b)| group(a) != group(b))
        .flat_map(|&(a, b)| [(group(a), group(b)), (group(b), group(a))])
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    // Streams, listeners and `epoll` sets, control pipes, the root's set.
    (2 * pairs.len() + 2 * ranges.len() + 2 * ranges.len() + 1 + 64) as u64
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// What the root does after a merged status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Nothing yet.
    Wait,
    /// Write `probe <w>` to every group.
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

    /// One merged status: the sum of every group's latest, its wave the
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

/// The orchestrator's control phases against the live groups, over the
/// root's one loop ([`Groups::turn`]): gather ready addresses, broadcast
/// `peers`/`start`, feed every status line to the [`Detector`] as it is
/// read — writing its probes — until it declares convergence, broadcast
/// `stop`, and read the reports until every member's has ended.
fn drive(
    spec: &ClusterSpec,
    groups: &mut Groups,
    ranges: &[Range<usize>],
    called: Instant,
    phases: &mut Phases,
) -> io::Result<(bool, f64, Detection)> {
    let mut heard = Vec::new();

    // --- gather ready addresses, one a group ---
    let setup_deadline = Instant::now() + spec.timeout;
    while groups.addrs().any(|a| a.is_none()) {
        if Instant::now() >= setup_deadline {
            return Err(io::Error::other("timed out waiting for ready"));
        }
        groups.turn(setup_deadline, &mut heard)?;
    }
    // Every member of a group listens at the group's address.
    let peers: Vec<&str> = ranges
        .iter()
        .zip(groups.addrs())
        .flat_map(|(r, a)| r.clone().map(move |_| a.expect("all ready")))
        .collect();
    groups.tell(format!("peers {}\nstart\n", peers.join(" ")).as_bytes())?;
    phases.ready_s = called.elapsed().as_secs_f64();

    // --- feed group statuses to the detector until converged or timed out ---
    let started = Instant::now();
    let deadline = started + spec.timeout;
    let mut statuses: Vec<Option<Status>> = vec![None; ranges.len()];
    let mut detector = Detector::new(spec.graph.n() as u64);
    let mut converged = false;
    let mut wall_s;
    'run: loop {
        wall_s = started.elapsed().as_secs_f64();
        if Instant::now() >= deadline {
            break; // timeout: not converged
        }
        heard.clear();
        groups.turn(deadline, &mut heard)?;
        for &(s, st) in &heard {
            statuses[s] = Some(st);
            if statuses.iter().any(Option::is_none) {
                continue;
            }
            match detector.observe(Status::sum(statuses.iter().flatten())) {
                Step::Wait => {}
                Step::Probe(wave) => groups.tell(format!("probe {wave}\n").as_bytes())?,
                Step::Converged => {
                    converged = true;
                    wall_s = started.elapsed().as_secs_f64();
                    break 'run;
                }
            }
        }
    }

    // --- stop everyone, read the reports, finish the join ---
    let stopped = Instant::now();
    let _ = groups.tell(b"stop\n");
    let report_deadline = Instant::now() + Graces::of(spec.timeout).report;
    while let Some(s) = groups.unreported() {
        if Instant::now() >= report_deadline {
            return Err(io::Error::other(format!("shard {s} sent no report")));
        }
        heard.clear();
        groups.turn(report_deadline, &mut heard)?;
    }
    while groups.catch_up() {}
    phases.report_s = stopped.elapsed().as_secs_f64();
    Ok((converged, wall_s, detector.detect))
}

/// Runs a cluster to convergence (or timeout) and reconciles the ledgers.
pub fn run_cluster(spec: &ClusterSpec) -> io::Result<RunReport> {
    let called = Instant::now();
    let n = spec.graph.n();
    let ranges = shard_ranges(n, spec.shards);
    let k = ranges.len();
    raise_nofile_limit(nofile_budget(&spec.graph, &ranges));

    // One run value for every group of the run.
    let run = Arc::new(Run {
        graph: spec.graph.clone(),
        seed: spec.seed,
        listen: spec.listen.clone(),
        workload: spec.workload,
        chaos: spec.chaos,
        clients: spec.clients,
    });
    let mut groups = Groups::launch(&run, &ranges, &spec.mode, Graces::of(spec.timeout))?;
    let mut phases = Phases::default();
    let outcome = drive(spec, &mut groups, &ranges, called, &mut phases);
    // Shutting the pipes down EOFs every group still in flight (error
    // paths); they wind down and exit, and a group that does not fails
    // the run once the exit grace is out.
    let finished = groups.finish();
    let (converged, wall_s, detect) = outcome?;
    finished?;

    // --- reconcile + hierarchical aggregation ---
    // The root joined the ledgers as they streamed in; that join's verdict
    // stands when it paired every entry.
    let audit = Instant::now();
    let (shard_summaries, mut nodes, running, mut ledger) = groups.reports();
    nodes.sort_by_key(|r| r.node);
    ledger.reference = running.is_none();
    let mut verdict = running.unwrap_or_default();
    let mut client_verdict = None;
    if ledger.reference || spec.clients.is_some() {
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
        if ledger.reference {
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

    let mut total = ShardSummary::default();
    for s in &shard_summaries {
        total.merge(s);
    }
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
                        timeouts: 30 + p as u64,
                        slot_visits: 40 + 2 * p as u64,
                        waits: 50 + p as u64,
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
    /// 180 edges; one thread holds no stream at all. Control costs the
    /// pair's two ends per group, not 2 per node, and the root's one
    /// `epoll` set over them. A process per shard is budgeted the same:
    /// each inherits the limit, and holds at most its own group's share.
    #[test]
    fn nofile_budget_counts_streams_between_groups() {
        let grid = ssmfp_topology::gen::grid(10, 10);
        let slack = 64;
        // Streams, listeners and `epoll` sets, then control.
        let four = nofile_budget(&grid, &shard_ranges(100, 4));
        assert_eq!(four, 2 * 6 + 2 * 4 + (2 * 4 + 1) + slack);
        let one = nofile_budget(&grid, &shard_ranges(100, 1));
        assert_eq!(one, 2 + (2 + 1) + slack);
        let each = nofile_budget(&grid, &shard_ranges(100, 100));
        assert_eq!(each, 2 * 2 * 180 + 2 * 100 + (2 * 100 + 1) + slack);
        // Four group processes: the figure of four data threads.
        assert_eq!(
            nofile_budget(&grid, &shard_ranges(100, 4)),
            2 * 6 + 2 * 4 + (2 * 4 + 1) + slack
        );
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
