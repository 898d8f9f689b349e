//! One rep: a whole cluster run through the public `run_cluster`, the
//! outside re-check of its verdict, and the numbers a rep yields.

use crate::procfs::{self, CpuTimes};
use crate::stats::hist_quantile;
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use ssmfp_cluster::clients::stamp_decode;
use ssmfp_cluster::frame::ghost_to_wire;
use ssmfp_cluster::node::{parse_report_body, write_report};
use ssmfp_cluster::{run_cluster, LogHistogram, NodeCounters, NodeReport};
use ssmfp_core::{reconcile_clients, reconcile_ledgers, NodeLedger};
use ssmfp_mp::MpGhost;
use ssmfp_topology::{AllPairs, NodeId};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A directory for one run's Unix sockets, removed when dropped — on
/// every exit path, panics included. The path is relative and short: a
/// socket address holds at most 108 bytes, and the benchmark may only
/// write inside its checkout.
#[derive(Debug)]
pub struct UdsDir(PathBuf);

impl UdsDir {
    /// Creates `<out>/uds-<pid>-<tag>`.
    pub fn create(out: &Path, tag: &str) -> std::io::Result<Self> {
        let dir = out.join(format!("uds-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(UdsDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for UdsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one rep measured. In-situ numbers come free from the rep's
/// `RunReport`; nothing here needed the program to be instrumented.
#[derive(Debug, Clone, Default)]
pub struct RepSample {
    /// Operations the spec asked for.
    pub asked: u64,
    /// Operations completed exactly once.
    pub completed: u64,
    /// Why the rep is not correct (empty when it is).
    pub errors: Vec<String>,
    /// `RunReport.wall_s`: start to convergence.
    pub wall_s: f64,
    /// Wall time of the whole `run_cluster` call.
    pub call_s: f64,
    /// User CPU over the call.
    pub cpu_user_s: f64,
    /// System CPU over the call.
    pub cpu_sys_s: f64,
    /// One-way latency p50/p99/max (µs), source enqueue → delivery.
    pub latency_us: [f64; 3],
    /// Client RTT p50/p99/max (µs), issue → ack (0 in node mode).
    pub rtt_us: [f64; 3],
    /// Per-session mean RTT p50/p99 (µs) — the fairness spread.
    pub fair_us: [f64; 2],
    /// Σ BFS hops from source to destination over every generated ghost.
    pub hops: u64,
    /// The run's summed transport and chaos counters.
    pub counters: NodeCounters,
    /// Ledger entries reconciled (generated + delivered + held).
    pub ledger_entries: u64,
}

impl RepSample {
    /// Operations completed exactly once per second of the measured window.
    pub fn delivered_per_s(&self) -> f64 {
        self.completed as f64 / self.wall_s
    }

    /// Process CPU (user + system) per completed operation, µs.
    pub fn cpu_us_per_delivery(&self) -> f64 {
        (self.cpu_user_s + self.cpu_sys_s) * 1e6 / self.completed as f64
    }

    /// Everything the user waits for outside the measured window: spawn,
    /// bind, dial, peer wiring, stop, report upload, reconcile.
    pub fn setup_s(&self) -> f64 {
        self.call_s - self.wall_s
    }

    /// Whether the rep counts as correct.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One node's ledger in the audit's vocabulary, as the orchestrator
/// builds it from a node report.
pub fn node_ledger(
    node: NodeId,
    generated: &[(MpGhost, NodeId)],
    delivered: &[MpGhost],
    held: &[MpGhost],
) -> NodeLedger {
    NodeLedger {
        node,
        generated: generated
            .iter()
            .map(|&(g, d)| (ghost_to_wire(g), d))
            .collect(),
        delivered: delivered.iter().map(|&g| ghost_to_wire(g)).collect(),
        held: held.iter().map(|&g| ghost_to_wire(g)).collect(),
    }
}

/// Entries in a set of ledgers.
fn ledger_entries(ledgers: &[NodeLedger]) -> u64 {
    ledgers
        .iter()
        .map(|l| (l.generated.len() + l.delivered.len() + l.held.len()) as u64)
        .sum()
}

/// Round-trips every node report through the control-pipe codec
/// (`write_report` + `parse_report_body`), one leaf span per report.
/// Returns the first mismatch.
fn report_codec_roundtrip(nodes: &[NodeReport], tracer: &mut Tracer) -> Result<(), String> {
    for r in nodes {
        let entries = (r.generated.len() + r.delivered.len() + r.held.len()) as u64;
        let back = tracer.leaf("node.report_codec", entries, || {
            let mut buf = Vec::new();
            write_report(&mut buf, r).expect("writing to a Vec cannot fail");
            let text = String::from_utf8(buf).expect("reports are ASCII");
            let mut lines = text.lines().map(str::to_string);
            lines.next(); // the `report <node>` line the supervisor consumes
            parse_report_body(r.node, &mut lines)
        });
        if back.as_ref() != Some(r) {
            return Err(format!("node {} report does not survive its codec", r.node));
        }
    }
    Ok(())
}

/// Runs one rep of `workload` and checks it from outside: the report must
/// be clean, and re-running both reconciliations on the raw per-node
/// reports must reproduce the report's own verdicts. With an enabled
/// tracer the rep is recorded as a `rep → run_cluster | reconcile_* |
/// report_codec` span tree (the codec round trip runs only then).
pub fn run_rep(
    workload: &Workload,
    seed: u64,
    scale: Scale,
    out_dir: &Path,
    tag: &str,
    tracer: &mut Tracer,
) -> RepSample {
    let mut s = RepSample {
        asked: workload.operations_at(scale),
        ..RepSample::default()
    };
    let uds = match UdsDir::create(out_dir, tag) {
        Ok(d) => d,
        Err(e) => {
            s.errors.push(format!("cannot create socket dir: {e}"));
            return s;
        }
    };
    let spec = workload.cluster_spec(seed, scale, uds.path());
    let rep_span = tracer.begin("harness.rep", seed);

    let cpu0 = procfs::cpu_times();
    let t0 = Instant::now();
    let run_span = tracer.begin("orchestrator.run_cluster", seed);
    let outcome = run_cluster(&spec);
    tracer.end(run_span);
    s.call_s = t0.elapsed().as_secs_f64();
    let cpu1 = procfs::cpu_times();
    drop(uds);

    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            s.errors.push(format!("run_cluster failed: {e}"));
            tracer.end(rep_span);
            return s;
        }
    };
    match (cpu0, cpu1) {
        (Ok(a), Ok(b)) => {
            let CpuTimes { user_s, sys_s } = b.since(&a);
            s.cpu_user_s = user_s;
            s.cpu_sys_s = sys_s;
        }
        (Err(e), _) | (_, Err(e)) => s.errors.push(format!("/proc/self/stat: {e}")),
    }

    // --- the outside re-check ---
    if !report.converged {
        s.errors.push("cluster did not converge".into());
    }
    if !report.clean() {
        s.errors.push(format!(
            "report not clean: {} SP violations, {} client violations",
            report.verdict.violations.len(),
            report
                .client_verdict
                .as_ref()
                .map_or(0, |v| v.violations.len())
        ));
    }
    let ledgers: Vec<NodeLedger> = report
        .nodes
        .iter()
        .map(|r| node_ledger(r.node, &r.generated, &r.delivered, &r.held))
        .collect();
    let verdict = tracer.leaf("ledger.reconcile_ledgers", seed, || {
        reconcile_ledgers(&ledgers)
    });
    if verdict != report.verdict {
        s.errors
            .push("outside reconcile_ledgers disagrees with the report".into());
    }
    let client_verdict = tracer.leaf("ledger.reconcile_clients", seed, || {
        reconcile_clients(&ledgers, stamp_decode)
    });
    if let Some(own) = &report.client_verdict {
        if &client_verdict != own {
            s.errors
                .push("outside reconcile_clients disagrees with the report".into());
        }
    }
    if tracer.is_enabled() {
        if let Err(e) = report_codec_roundtrip(&report.nodes, tracer) {
            s.errors.push(e);
        }
    }
    tracer.end(rep_span);

    // --- numbers ---
    let done = if workload.client_mode() {
        report.clients_completed
    } else {
        report.primaries_delivered
    };
    // A dirty rep fails every operation it cannot vouch for.
    s.completed = if s.ok() { done.min(s.asked) } else { 0 };
    if s.ok() && s.completed < s.asked {
        s.errors
            .push(format!("only {done} of {} operations completed", s.asked));
    }
    s.wall_s = report.wall_s;
    let p50_p99_max = |h: &LogHistogram| {
        [
            hist_quantile(h, 0.50),
            hist_quantile(h, 0.99),
            h.max() as f64,
        ]
    };
    s.latency_us = p50_p99_max(&report.latency);
    s.rtt_us = p50_p99_max(&report.client_rtt);
    let [fair_p50, fair_p99, _] = p50_p99_max(&report.client_fair);
    s.fair_us = [fair_p50, fair_p99];
    s.counters = report.counters;
    s.ledger_entries = ledger_entries(&ledgers);
    let dist = AllPairs::new(&spec.graph);
    s.hops = report
        .nodes
        .iter()
        .flat_map(|r| r.generated.iter().map(move |&(_, d)| (r.node, d)))
        .map(|(p, d)| dist.dist(p, d) as u64)
        .sum();
    s
}
