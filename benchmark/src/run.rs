//! One benchmark invocation: warm up, repeat the workload, summarise.
//!
//! The untraced run (`--trace 0`) yields the end-to-end metrics — and the
//! in-situ per-layer ones for free — as medians over its reps. The traced
//! run (`--trace 1`) spends the same budget on fewer untraced reps, one
//! rep inside a span tree, a minimal run that prices bring-up and
//! teardown, and the single-thread layer replay; it yields every
//! per-layer metric and writes the spans out when it ends.

use crate::metrics::{self, Metric};
use crate::procfs;
use crate::rep::{run_rep, RepSample};
use crate::replay::layer_replay;
use crate::stats::{summarize, Summary};
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Seconds the traced run keeps back for the minimal run and the replay.
const REPLAY_RESERVE_S: f64 = 5.0;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Run seed: workload, chaos and replay all derive from it.
    pub seed: u64,
    /// Wall-clock budget: no rep starts that is not expected to end by it.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// One small rep, no warm-up: the crate's smoke test.
    pub smoke: bool,
    /// Where sockets and the span file go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Options {
    /// The size of this invocation's measured reps.
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

/// What an invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the measured reps asked for.
    pub attempted: u64,
    /// Of those, operations not completed exactly once.
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub errors: Vec<String>,
    /// The measured untraced reps, in run order.
    pub reps: Vec<RepSample>,
    /// Every metric this run measured, by registry name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Self seconds per layer over the replay (traced run only).
    pub layer_self_s: BTreeMap<String, f64>,
    /// Where the spans went (traced run only).
    pub span_file: Option<PathBuf>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn put(&mut self, name: &'static str, samples: &[f64]) {
        if metrics::find(name).is_none() {
            self.errors
                .push(format!("metric {name} is not in the registry"));
        }
        if let Some(s) = summarize(samples) {
            if self.metrics.insert(name, s).is_some() {
                self.errors.push(format!("metric {name} was emitted twice"));
            }
        }
    }

    /// The metrics of one registry list, in registry order; a metric this
    /// run did not measure is an error.
    pub fn select(
        &self,
        list: &'static [Metric],
    ) -> Result<Vec<(&'static Metric, Summary)>, String> {
        list.iter()
            .map(|m| {
                self.metrics
                    .get(m.name)
                    .map(|s| (m, *s))
                    .ok_or_else(|| format!("metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// Per-rep values of everything a `RunReport` gives for free.
fn in_situ(w: &Workload, samples: &[RepSample], out: &mut Outcome) {
    let col = |f: &dyn Fn(&RepSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let ops = |s: &RepSample| s.completed.max(1) as f64;
    let client = w.client_mode();

    // End to end. Latency is that of the operation: one way to the
    // destination in node mode, issue → ack at the session in client mode.
    out.put("delivered_per_s", &col(&|s| s.delivered_per_s()));
    out.put(
        "orchestrator.cpu_us_per_delivery",
        &col(&|s| s.cpu_us_per_delivery()),
    );
    out.put(
        "latency_p50_us",
        &col(&|s| if client { s.rtt_us[0] } else { s.latency_us[0] }),
    );
    out.put("setup_s", &col(&|s| s.setup_s()));

    out.put(
        "node.frames_per_delivery",
        &col(&|s| s.counters.frames_sent as f64 / ops(s)),
    );
    out.put(
        "node.frames_per_hop",
        &col(&|s| s.counters.frames_sent as f64 / s.hops.max(1) as f64),
    );
    out.put("node.latency_p50_us", &col(&|s| s.latency_us[0]));
    out.put("node.latency_p99_us", &col(&|s| s.latency_us[1]));
    out.put("node.latency_max_us", &col(&|s| s.latency_us[2]));
    out.put(
        "evloop.write_syscalls_per_delivery",
        &col(&|s| s.counters.write_syscalls as f64 / ops(s)),
    );
    out.put(
        "evloop.read_syscalls_per_delivery",
        &col(&|s| s.counters.read_syscalls as f64 / ops(s)),
    );
    out.put(
        "evloop.frames_per_write",
        &col(&|s| s.counters.frames_sent as f64 / s.counters.write_syscalls.max(1) as f64),
    );
    out.put(
        "evloop.conn_frames_dropped",
        &col(&|s| s.counters.conn_frames_dropped as f64),
    );
    out.put("evloop.reconnects", &col(&|s| s.counters.reconnects as f64));
    out.put(
        "evloop.heartbeats_per_s",
        &col(&|s| s.counters.heartbeats_sent as f64 / s.wall_s),
    );
    out.put("chaos.dropped", &col(&|s| s.counters.chaos_dropped as f64));
    out.put(
        "chaos.duplicated",
        &col(&|s| s.counters.chaos_duplicated as f64),
    );
    out.put(
        "chaos.reordered",
        &col(&|s| s.counters.chaos_reordered as f64),
    );
    out.put(
        "chaos.partition_dropped",
        &col(&|s| s.counters.partition_dropped as f64),
    );
    out.put("clients.rtt_p50_us", &col(&|s| s.rtt_us[0]));
    out.put("clients.rtt_p99_us", &col(&|s| s.rtt_us[1]));
    out.put("clients.rtt_max_us", &col(&|s| s.rtt_us[2]));
    out.put("clients.fair_p50_us", &col(&|s| s.fair_us[0]));
    out.put("clients.fair_p99_us", &col(&|s| s.fair_us[1]));
    let offered = w.offered_per_s();
    out.put(
        "workload.open_rate_ratio",
        &col(&|s| offered.map_or(0.0, |o| s.delivered_per_s() / o)),
    );
    out.put("ledger.entries", &col(&|s| s.ledger_entries as f64));
    out.put(
        "orchestrator.sys_cpu_share",
        &col(&|s| s.cpu_sys_s / (s.cpu_user_s + s.cpu_sys_s).max(1e-9)),
    );
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Outcome {
    let started = Instant::now();
    let w = opts.workload;
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        out.errors
            .push(format!("cannot create {}: {e}", opts.out_dir.display()));
        return out;
    }
    let mut off = Tracer::disabled();

    // Warm-up: first-touch page faults, allocator arenas and the fd-limit
    // raise land here, not in a measured rep.
    if !opts.smoke {
        let warm = run_rep(w, opts.seed, Scale::Warmup, &opts.out_dir, "warm", &mut off);
        if !warm.ok() {
            out.errors
                .extend(warm.errors.iter().map(|e| format!("warm-up: {e}")));
            return out;
        }
    }

    // Measured reps, each at the full size; the budget shrinks their
    // count, never their length. The traced run keeps room for its
    // traced rep and the replay.
    let scale = opts.scale();
    let mut samples: Vec<RepSample> = Vec::new();
    loop {
        let tag = format!("r{}", samples.len());
        let s = run_rep(w, opts.seed, scale, &opts.out_dir, &tag, &mut off);
        let ok = s.ok();
        samples.push(s);
        let longest = samples.iter().map(|s| s.call_s).fold(0.0, f64::max);
        let still_needed = if opts.trace {
            2.0 * longest + REPLAY_RESERVE_S
        } else {
            longest
        };
        if !ok || opts.smoke || started.elapsed().as_secs_f64() + still_needed > opts.seconds {
            break;
        }
    }

    if opts.trace && samples.iter().all(RepSample::ok) {
        traced_part(opts, &samples, &mut out);
    }
    for (i, s) in samples.iter().enumerate() {
        out.attempted += s.asked;
        out.failed += s.asked - s.completed;
        out.errors
            .extend(s.errors.iter().map(|e| format!("rep {i}: {e}")));
    }
    in_situ(w, &samples, &mut out);
    match procfs::peak_rss_mb() {
        Ok(mb) => out.put("peak_rss_mb", &[mb]),
        Err(e) => out.errors.push(format!("/proc/self/status: {e}")),
    }
    out.reps = samples;
    out
}

/// The traced rep, the minimal run and the layer replay.
fn traced_part(opts: &Options, untraced: &[RepSample], out: &mut Outcome) {
    let w = opts.workload;
    let mut t = Tracer::enabled();
    let root = t.begin("harness.workload", opts.seed);

    let rep = run_rep(w, opts.seed, opts.scale(), &opts.out_dir, "traced", &mut t);
    out.attempted += rep.asked;
    out.failed += rep.asked - rep.completed;
    out.errors
        .extend(rep.errors.iter().map(|e| format!("traced rep: {e}")));
    if rep.ledger_entries > 0 {
        let entries = rep.ledger_entries as f64;
        let totals = t.totals_under(root);
        let per_entry = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |v| v.total_ns as f64 / entries)
        };
        out.put(
            "node.report_codec_ns_per_entry",
            &[per_entry("node.report_codec")],
        );
        out.put(
            "ledger.reconcile_ledgers_ns_per_entry",
            &[per_entry("ledger.reconcile_ledgers")],
        );
        out.put(
            "ledger.reconcile_clients_ns_per_entry",
            &[per_entry("ledger.reconcile_clients")],
        );
        out.put("orchestrator.run_cluster_s", &[rep.call_s]);
    }
    if rep.ok() {
        let base: Vec<f64> = untraced.iter().map(RepSample::delivered_per_s).collect();
        let base = summarize(&base).map_or(1.0, |s| s.median);
        out.put("trace.overhead_ratio", &[rep.delivered_per_s() / base]);
    }

    // Same topology, one message per source: what a run costs before and
    // after its traffic.
    let minimal = run_rep(w, opts.seed, Scale::Minimal, &opts.out_dir, "min", &mut t);
    out.errors
        .extend(minimal.errors.iter().map(|e| format!("minimal run: {e}")));
    out.put("orchestrator.empty_run_s", &[minimal.call_s]);

    let replay = layer_replay(w, opts.seed, opts.smoke, &mut t);
    t.end(root);
    out.errors
        .extend(replay.errors.iter().map(|e| format!("replay: {e}")));
    for (name, v) in &replay.values {
        out.put(name, &[*v]);
    }
    out.layer_self_s = replay.layer_self_s;

    let path = opts.out_dir.join(format!("spans-{}.jsonl", w.name));
    match t.write_jsonl(&path) {
        Ok(()) => out.span_file = Some(path),
        Err(e) => out
            .errors
            .push(format!("cannot write {}: {e}", path.display())),
    }
}

/// Every workload once, traced, at a twentieth of its size: each must be
/// correct and emit every registered metric exactly once with a finite
/// value. Returns a one-line summary per workload.
pub fn smoke(out_dir: &std::path::Path) -> Result<String, String> {
    let mut lines = Vec::new();
    for w in &crate::workloads::WORKLOADS {
        let started = Instant::now();
        let out = run(&Options {
            workload: w,
            seed: 1,
            seconds: 0.0,
            trace: true,
            smoke: true,
            out_dir: out_dir.to_path_buf(),
        });
        if !out.correct() {
            return Err(format!("{}: {}", w.name, out.errors.join("; ")));
        }
        let all = [&metrics::END_TO_END[..], &metrics::PER_LAYER[..]].concat();
        for m in &all {
            match out.metrics.get(m.name) {
                Some(v) if v.median.is_finite() => {}
                Some(v) => return Err(format!("{}: {} = {}", w.name, m.name, v.median)),
                None => return Err(format!("{}: {} was not emitted", w.name, m.name)),
            }
        }
        if out.metrics.len() != all.len() {
            return Err(format!(
                "{}: {} metrics for {} names",
                w.name,
                out.metrics.len(),
                all.len()
            ));
        }
        lines.push(format!(
            "smoke {}: {} metrics, {} operations, {:.1} s",
            w.name,
            out.metrics.len(),
            out.attempted,
            started.elapsed().as_secs_f64()
        ));
    }
    Ok(lines.join("\n"))
}
