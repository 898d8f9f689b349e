//! `perf` — machine-readable performance harness.
//!
//! Measures the hot paths this workspace optimises and emits
//! `BENCH_check.json` (explorer throughput: states/sec sequential and
//! parallel, parallel speedup, packed bytes/state and compression vs raw
//! storage, report-identity cross-check), `BENCH_engine.json` (engine
//! throughput: steps/sec under full-refresh guard evaluation vs
//! footprint-driven incremental evaluation), and `BENCH_state.json`
//! (codec microbench: pack/unpack ns per node, packed vs deep bytes per
//! configuration, roundtrip check) into the current directory. The JSON
//! is written by hand, one key per line where the baseline scanner reads
//! it; instance names go through `cli::json_string`.
//!
//! The socket cluster is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.
//!
//! Usage: `perf [--quick] [--threads N] [--out-dir DIR] [--baseline DIR]`
//!
//! * `--quick` — CI-sized instances (a few seconds total).
//! * `--threads N` — worker threads for the parallel explorer runs
//!   (default: available parallelism).
//! * `--out-dir DIR` — where to write the JSON files (default: `.`).
//! * `--baseline DIR` — compare this run's throughput against the
//!   `BENCH_*.json` files in DIR; exit nonzero if any metric regressed by
//!   more than 25% or is missing from this run.

use ssmfp_check::Explorer;
use ssmfp_core::cli::{json_string, Args, Tool};
use ssmfp_core::state::{NodeState, Outgoing};
use ssmfp_core::{
    deep_node_bytes, GhostId, MessageTable, Network, NetworkConfig, SsmfpProtocol, StateCodec,
};
use ssmfp_kernel::{CentralRandomDaemon, Engine, StepOutcome};
use ssmfp_routing::{corruption, CorruptionKind};
use ssmfp_topology::{gen, Graph, NodeId};
use std::fmt::Write as _;
use std::time::Instant;

/// A regression fails the run when a throughput metric drops below this
/// fraction of its baseline value (>25% regression).
const BASELINE_FLOOR: f64 = 0.75;

/// Repeats `run` (which returns `(work units, secs)` for one repetition)
/// until the accumulated time reaches `min_secs` — always at least once —
/// and returns the totals. Small instances finish in microseconds; without
/// accumulation the 25% baseline gate would be pure timing noise.
fn timed_reps(min_secs: f64, mut run: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    let (mut units, mut secs) = (0u64, 0f64);
    loop {
        let (u, s) = run();
        units += u;
        secs += s;
        if secs >= min_secs {
            return (units, secs.max(1e-9));
        }
    }
}

const TOOL: Tool = Tool {
    name: "perf",
    usage: "usage: perf [--quick] [--threads N] [--out-dir DIR] [--baseline DIR]",
};

struct Options {
    quick: bool,
    threads: usize,
    out_dir: String,
    baseline: Option<String>,
}

fn parse_args(args: &mut Args) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        out_dir: ".".to_string(),
        baseline: None,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                opts.threads = args.parse()?;
                if opts.threads == 0 {
                    return Err("--threads must be >= 1".into());
                }
            }
            "--out-dir" => opts.out_dir = args.value()?,
            "--baseline" => opts.baseline = Some(args.value()?),
            _ => return Err(args.unknown()),
        }
    }
    Ok(opts)
}

fn clean_states(graph: &Graph) -> Vec<NodeState> {
    corruption::corrupt(graph, CorruptionKind::None, 0)
        .into_iter()
        .map(|r| NodeState::clean(graph.n(), r))
        .collect()
}

fn enqueue(states: &mut [NodeState], src: NodeId, dst: NodeId, payload: u64, seq: u64) {
    states[src].outbox.push_back(Outgoing {
        dest: dst,
        payload,
        ghost: GhostId::Valid(seq),
    });
    states[src].request = true;
}

/// One explorer instance: name, graph, initial states, expectations.
struct CheckInstance {
    name: &'static str,
    graph: Graph,
    states: Vec<NodeState>,
    expectations: Vec<(GhostId, NodeId)>,
}

/// The benchmark instances. `ring-4, 2 far-apart messages` is the small
/// regression point; the 4-message corrupted ring and the caterpillar are
/// the throughput instances (≈10⁴–10⁶ states).
fn check_instances(quick: bool) -> Vec<CheckInstance> {
    let mut out = Vec::new();

    let graph = gen::ring(4);
    let mut states = clean_states(&graph);
    enqueue(&mut states, 0, 1, 1, 0);
    enqueue(&mut states, 2, 3, 2, 1);
    out.push(CheckInstance {
        name: "ring-4, 2 far-apart messages",
        graph,
        states,
        expectations: vec![(GhostId::Valid(0), 1), (GhostId::Valid(1), 3)],
    });

    let graph = gen::ring(4);
    let mut states = clean_states(&graph);
    let msgs = [(0usize, 2usize), (2, 0), (1, 3), (3, 1)];
    let mut expectations = Vec::new();
    for (i, &(src, dst)) in msgs.iter().enumerate() {
        enqueue(&mut states, src, dst, i as u64 + 1, i as u64);
        expectations.push((GhostId::Valid(i as u64), dst));
    }
    states[1].routing.parent[3] = 2;
    states[1].routing.dist[3] = 3;
    out.push(CheckInstance {
        name: "ring-4, 4 crossing messages, corrupted table",
        graph,
        states,
        expectations,
    });

    let graph = gen::caterpillar(3, 1);
    let mut states = clean_states(&graph);
    let msgs: &[(usize, usize)] = if quick {
        &[(3, 5), (5, 3)]
    } else {
        &[(3, 5), (5, 3), (0, 2)]
    };
    let mut expectations = Vec::new();
    for (i, &(src, dst)) in msgs.iter().enumerate() {
        enqueue(&mut states, src, dst, i as u64 + 1, i as u64);
        expectations.push((GhostId::Valid(i as u64), dst));
    }
    out.push(CheckInstance {
        name: "caterpillar(3,1), leg-to-leg messages",
        graph,
        states,
        expectations,
    });

    out
}

fn bench_check(opts: &Options, json: &mut String) {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"check\",").unwrap();
    writeln!(
        json,
        "  \"mode\": \"{}\",",
        if opts.quick { "quick" } else { "full" }
    )
    .unwrap();
    writeln!(json, "  \"threads\": {},", opts.threads).unwrap();
    writeln!(json, "  \"available_parallelism\": {avail},").unwrap();
    writeln!(json, "  \"instances\": [").unwrap();

    let instances = check_instances(opts.quick);
    let max_states = if opts.quick { 200_000 } else { 2_000_000 };
    let min_secs = if opts.quick { 0.05 } else { 0.2 };
    let last = instances.len() - 1;
    for (i, inst) in instances.into_iter().enumerate() {
        let proto = SsmfpProtocol::new(inst.graph.n(), inst.graph.max_degree());
        let fresh = |threads: usize, packed: bool| {
            let mut e = Explorer::new(inst.graph.clone(), proto.clone(), inst.expectations.clone())
                .with_threads(threads)
                .with_packed(packed);
            e.max_states = max_states;
            e
        };

        // Untimed reference runs: reports for the identity cross-check,
        // stats for the storage figures. The raw (unpacked) run supplies
        // the compression denominator.
        let (seq_report, seq_stats) = fresh(1, true).explore_with_stats(inst.states.clone());
        let (raw_report, raw_stats) = fresh(1, false).explore_with_stats(inst.states.clone());
        let par_report = fresh(opts.threads, true).explore(inst.states.clone());
        let identical = par_report == seq_report && raw_report == seq_report;

        let (seq_states, seq_secs) = timed_reps(min_secs, || {
            let t0 = Instant::now();
            let r = fresh(1, true).explore(inst.states.clone());
            (r.states, t0.elapsed().as_secs_f64())
        });
        let (par_states, par_secs) = timed_reps(min_secs, || {
            let t0 = Instant::now();
            let r = fresh(opts.threads, true).explore(inst.states.clone());
            (r.states, t0.elapsed().as_secs_f64())
        });

        let seq_sps = seq_states as f64 / seq_secs;
        let par_sps = par_states as f64 / par_secs;
        let bps = seq_stats.bytes_per_state();
        let compression = raw_stats.bytes_per_state() / bps.max(1e-9);
        eprintln!(
            "check | {:<44} | {:>8} states | seq {:>9.0} st/s | par(x{}) {:>9.0} st/s | speedup {:.2}x | {:>6.1} B/st ({:.1}x) | identical: {identical}",
            inst.name,
            seq_report.states,
            seq_sps,
            opts.threads,
            par_sps,
            par_sps / seq_sps,
            bps,
            compression,
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": {},", json_string(inst.name)).unwrap();
        writeln!(json, "      \"states\": {},", seq_report.states).unwrap();
        writeln!(json, "      \"verified\": {},", seq_report.verified()).unwrap();
        writeln!(
            json,
            "      \"sequential\": {{ \"secs\": {seq_secs:.6}, \"states_per_sec\": {seq_sps:.1} }},",
        )
        .unwrap();
        writeln!(
            json,
            "      \"storage\": {{ \"bytes_per_state\": {bps:.1}, \"raw_bytes_per_state\": {:.1}, \"compression\": {compression:.2}, \"interned_messages\": {}, \"interned_nodes\": {} }},",
            raw_stats.bytes_per_state(),
            seq_stats.interned_messages,
            seq_stats.interned_nodes,
        )
        .unwrap();
        writeln!(
            json,
            "      \"parallel\": {{ \"threads\": {}, \"secs\": {par_secs:.6}, \"states_per_sec\": {par_sps:.1}, \"speedup\": {:.3}, \"report_identical\": {identical} }}",
            opts.threads,
            par_sps / seq_sps,
        )
        .unwrap();
        writeln!(json, "    }}{}", if i == last { "" } else { "," }).unwrap();

        if !identical {
            eprintln!("perf: PARALLEL/RAW REPORT DIVERGED on {}", inst.name);
            std::process::exit(1);
        }
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
}

/// One engine instance: name, graph, traffic pattern (messages enqueued up
/// front so the run is dominated by forwarding moves).
fn engine_instance(
    name: &'static str,
    graph: Graph,
    msgs_per_node: u64,
) -> (&'static str, Graph, Vec<NodeState>) {
    let n = graph.n();
    let mut states = clean_states(&graph);
    let mut seq = 0;
    for p in 0..n {
        for k in 0..msgs_per_node {
            let dst = (p + n / 2 + k as usize % (n - 1)) % n;
            if dst != p {
                enqueue(&mut states, p, dst, seq + 1, seq);
                seq += 1;
            }
        }
    }
    (name, graph, states)
}

/// Runs `steps` engine steps (or to terminal) and returns (steps, secs).
fn drive(graph: &Graph, states: &[NodeState], full_refresh: bool, steps: u64) -> (u64, f64) {
    let proto = SsmfpProtocol::new(graph.n(), graph.max_degree());
    let mut eng = Engine::new(
        graph.clone(),
        proto,
        Box::new(CentralRandomDaemon::new(0xC0FFEE)),
        states.to_vec(),
    );
    eng.set_full_refresh(full_refresh);
    let t0 = Instant::now();
    let mut done = 0;
    while done < steps {
        if matches!(eng.step(), StepOutcome::Terminal) {
            // All traffic delivered: restart the same workload so the
            // timed region actually fills the step budget. The restart
            // recomputes every guard in both modes (equal cost).
            eng.reset_configuration(states.to_vec());
            continue;
        }
        done += 1;
    }
    (done, t0.elapsed().as_secs_f64().max(1e-9))
}

fn bench_engine(opts: &Options, json: &mut String) {
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"engine\",").unwrap();
    writeln!(
        json,
        "  \"mode\": \"{}\",",
        if opts.quick { "quick" } else { "full" }
    )
    .unwrap();
    writeln!(json, "  \"instances\": [").unwrap();

    let steps: u64 = if opts.quick { 4_000 } else { 40_000 };
    let min_secs = if opts.quick { 0.05 } else { 0.2 };
    let instances = vec![
        engine_instance("ring-8, 2 msgs/node", gen::ring(8), 2),
        engine_instance("ring-16, 2 msgs/node", gen::ring(16), 2),
        engine_instance("caterpillar(6,2), 2 msgs/node", gen::caterpillar(6, 2), 2),
        engine_instance("star-12, 2 msgs/node", gen::star(12), 2),
    ];
    let last = instances.len() - 1;
    for (i, (name, graph, states)) in instances.into_iter().enumerate() {
        // Warm-up pass, then accumulated timed passes per mode (identical
        // seeds, so both modes execute the identical schedule).
        drive(&graph, &states, true, steps.min(500));
        let (full_steps, full_secs) = timed_reps(min_secs, || drive(&graph, &states, true, steps));
        drive(&graph, &states, false, steps.min(500));
        let (inc_steps, inc_secs) = timed_reps(min_secs, || drive(&graph, &states, false, steps));

        let full_sps = full_steps as f64 / full_secs;
        let inc_sps = inc_steps as f64 / inc_secs;
        eprintln!(
            "engine | {:<32} | {:>6} steps | full {:>9.0} st/s | incremental {:>9.0} st/s | speedup {:.2}x",
            name, full_steps, full_sps, inc_sps, inc_sps / full_sps
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": {},", json_string(name)).unwrap();
        writeln!(json, "      \"n\": {},", graph.n()).unwrap();
        writeln!(json, "      \"steps\": {full_steps},").unwrap();
        writeln!(
            json,
            "      \"full_refresh\": {{ \"secs\": {full_secs:.6}, \"steps_per_sec\": {full_sps:.1} }},"
        )
        .unwrap();
        writeln!(
            json,
            "      \"incremental\": {{ \"secs\": {inc_secs:.6}, \"steps_per_sec\": {inc_sps:.1} }},"
        )
        .unwrap();
        writeln!(json, "      \"speedup\": {:.3}", inc_sps / full_sps).unwrap();
        writeln!(json, "    }}{}", if i == last { "" } else { "," }).unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
}

/// Builds a loaded network configuration for the codec microbench: live
/// traffic pumped `warm_steps` times on top of adversarial garbage, so the
/// packed words cover occupied forwarding slots, dirty routing tables and
/// in-flight ghosts — the mix the checker actually stores.
fn state_instance(
    name: &'static str,
    graph: Graph,
    warm_steps: u64,
) -> (&'static str, Vec<NodeState>) {
    let n = graph.n();
    let mut net = Network::new(graph, NetworkConfig::adversarial(0xBEEF));
    for s in 0..n {
        net.send(s, (s + n / 2) % n, s as u64 % 8);
    }
    for _ in 0..warm_steps {
        if let StepOutcome::Terminal = net.pump() {
            break;
        }
    }
    (name, net.states().to_vec())
}

fn bench_state(opts: &Options, json: &mut String) {
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"state\",").unwrap();
    writeln!(
        json,
        "  \"mode\": \"{}\",",
        if opts.quick { "quick" } else { "full" }
    )
    .unwrap();
    writeln!(json, "  \"instances\": [").unwrap();

    let batch: u64 = 1_000;
    let min_secs = if opts.quick { 0.05 } else { 0.2 };
    let instances = vec![
        state_instance("ring-8, loaded", gen::ring(8), 200),
        state_instance("caterpillar(6,2), loaded", gen::caterpillar(6, 2), 400),
        state_instance("star-12, loaded", gen::star(12), 300),
    ];
    let last = instances.len() - 1;
    for (i, (name, states)) in instances.into_iter().enumerate() {
        let n = states.len();
        let codec = StateCodec::new(n);
        let mut table = MessageTable::new();
        let mut words = Vec::new();
        // Warm pass: populate the intern table so the timed loops measure
        // steady-state throughput (hits, not first-encounter inserts).
        codec.pack_config(&states, &mut table, &mut words);

        let (pack_nodes, pack_secs) = timed_reps(min_secs, || {
            let t0 = Instant::now();
            for _ in 0..batch {
                words.clear();
                codec.pack_config(&states, &mut table, &mut words);
            }
            (batch * n as u64, t0.elapsed().as_secs_f64())
        });
        let pack_ns = pack_secs * 1e9 / pack_nodes as f64;

        let mut restored = Vec::new();
        let (unpack_nodes, unpack_secs) = timed_reps(min_secs, || {
            let t0 = Instant::now();
            for _ in 0..batch {
                restored = codec.unpack_config(&words, &table);
            }
            (batch * n as u64, t0.elapsed().as_secs_f64())
        });
        let unpack_ns = unpack_secs * 1e9 / unpack_nodes as f64;

        let roundtrip = restored == states;
        // Marginal cost of storing one more configuration: the flat words.
        // The intern table is a shared, amortized cost (reported apart) —
        // the checker pays it once across all stored states.
        let words_bytes = words.len() * std::mem::size_of::<u32>();
        let table_bytes = table.memory_bytes();
        let deep_bytes: usize = states.iter().map(deep_node_bytes).sum();
        let compression = deep_bytes as f64 / words_bytes.max(1) as f64;
        let nodes_per_sec = 1e9 / pack_ns.max(1e-9);

        eprintln!(
            "state | {:<32} | pack {:>7.1} ns/node | unpack {:>7.1} ns/node | {:>6} B packed vs {:>6} B deep ({:.1}x, +{} B table) | roundtrip: {roundtrip}",
            name, pack_ns, unpack_ns, words_bytes, deep_bytes, compression, table_bytes
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": {},", json_string(name)).unwrap();
        writeln!(json, "      \"n\": {n},").unwrap();
        writeln!(json, "      \"pack_ns_per_node\": {pack_ns:.1},").unwrap();
        writeln!(json, "      \"unpack_ns_per_node\": {unpack_ns:.1},").unwrap();
        writeln!(json, "      \"nodes_per_sec\": {nodes_per_sec:.1},").unwrap();
        writeln!(json, "      \"packed_words_bytes\": {words_bytes},").unwrap();
        writeln!(json, "      \"table_bytes\": {table_bytes},").unwrap();
        writeln!(json, "      \"deep_bytes\": {deep_bytes},").unwrap();
        writeln!(json, "      \"compression\": {compression:.2},").unwrap();
        writeln!(json, "      \"interned_messages\": {},", table.len()).unwrap();
        writeln!(json, "      \"roundtrip\": {roundtrip}").unwrap();
        writeln!(json, "    }}{}", if i == last { "" } else { "," }).unwrap();

        if !roundtrip {
            eprintln!("perf: CODEC ROUNDTRIP DIVERGED on {name}");
            std::process::exit(1);
        }
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
}

/// Extracts `(instance_name, value)` pairs for `key` from one of our
/// hand-rolled `BENCH_*.json` files, in document order. Each `"name"` line
/// updates the current instance; each `"<key>": <number>` occurrence is
/// attributed to it. This is deliberately a line scanner, not a JSON
/// parser — the files are machine-written with a fixed shape.
fn extract_metrics(json: &str, key: &str) -> Vec<(String, f64)> {
    let pat = format!("\"{key}\": ");
    let mut name = String::new();
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\": \"") {
            name = rest.trim_end_matches(',').trim_end_matches('"').to_string();
        }
        let mut rest = line;
        while let Some(pos) = rest.find(&pat) {
            rest = &rest[pos + pat.len()..];
            let num: String = rest
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            if let Ok(v) = num.parse::<f64>() {
                out.push((name.clone(), v));
            }
        }
    }
    out
}

/// Compares every throughput metric of `current` against `baseline`
/// (matched by instance name and per-name occurrence order — e.g. the
/// sequential and parallel `states_per_sec` of one check instance).
/// Returns the number of regressions found — metrics more than 25% below
/// their baseline, and baseline metrics the current run lacks — printing
/// one line per comparison. A baseline value ≤ 0 has no ratio and is only
/// noted.
fn compare_file(label: &str, key: &str, baseline: &str, current: &str) -> usize {
    let base = extract_metrics(baseline, key);
    let cur = extract_metrics(current, key);
    let mut regressions = 0;
    let mut seen: Vec<(String, usize)> = Vec::new();
    for (name, base_v) in &base {
        // Occurrence index of this name so far (sequential=0, parallel=1, …).
        let k = match seen.iter_mut().find(|(n, _)| n == name) {
            Some((_, k)) => {
                *k += 1;
                *k
            }
            None => {
                seen.push((name.clone(), 0));
                0
            }
        };
        let cur_v = cur
            .iter()
            .filter(|(n, _)| n == name)
            .nth(k)
            .map(|(_, v)| *v);
        match cur_v {
            None => {
                eprintln!(
                    "baseline | {label:<6} | {name:<44} | {key}[{k}] missing in current run REGRESSED"
                );
                regressions += 1;
            }
            Some(v) if *base_v <= 0.0 => {
                eprintln!(
                    "baseline | {label:<6} | {name:<44} | {key}[{k}] baseline {base_v} is not positive, current {v:.1} — not compared"
                );
            }
            Some(v) => {
                let ratio = v / base_v;
                let verdict = if ratio < BASELINE_FLOOR {
                    "REGRESSED"
                } else {
                    "ok"
                };
                eprintln!(
                    "baseline | {label:<6} | {name:<44} | {key}[{k}] {base_v:>12.1} -> {v:>12.1} ({:>6.2}x) {verdict}",
                    ratio
                );
                if ratio < BASELINE_FLOOR {
                    regressions += 1;
                }
            }
        }
    }
    regressions
}

/// Checks the freshly-written JSON against the `BENCH_*.json` files in
/// `dir`. Missing baseline files are skipped with a note (so a baseline
/// directory can predate `BENCH_state.json`). Exits nonzero on any >25%
/// throughput regression or baseline metric missing from this run.
fn compare_baseline(dir: &str, check: &str, engine: &str, state: &str) {
    let mut regressions = 0;
    let files: [(&str, &str, &str, &str); 4] = [
        ("check", "BENCH_check.json", "states_per_sec", check),
        ("engine", "BENCH_engine.json", "steps_per_sec", engine),
        ("state", "BENCH_state.json", "nodes_per_sec", state),
        ("state", "BENCH_state.json", "compression", state),
    ];
    for (label, file, key, current) in files {
        match std::fs::read_to_string(format!("{dir}/{file}")) {
            Ok(baseline) => regressions += compare_file(label, key, &baseline, current),
            Err(_) => eprintln!("baseline | {label:<6} | {dir}/{file} not found — skipped"),
        }
    }
    if regressions > 0 {
        eprintln!(
            "perf: {regressions} metric(s) regressed more than 25% or missing vs baseline {dir}"
        );
        std::process::exit(1);
    }
    eprintln!("baseline | no metric regressed more than 25% vs {dir}");
}

fn main() {
    let opts = TOOL.parse(parse_args);
    let mut check_json = String::new();
    bench_check(&opts, &mut check_json);
    let mut engine_json = String::new();
    bench_engine(&opts, &mut engine_json);
    let mut state_json = String::new();
    bench_state(&opts, &mut state_json);

    let check_path = format!("{}/BENCH_check.json", opts.out_dir);
    let engine_path = format!("{}/BENCH_engine.json", opts.out_dir);
    let state_path = format!("{}/BENCH_state.json", opts.out_dir);
    std::fs::write(&check_path, &check_json).expect("write BENCH_check.json");
    std::fs::write(&engine_path, &engine_json).expect("write BENCH_engine.json");
    std::fs::write(&state_path, &state_json).expect("write BENCH_state.json");
    eprintln!("wrote {check_path}, {engine_path} and {state_path}");

    if let Some(dir) = &opts.baseline {
        compare_baseline(dir, &check_json, &engine_json, &state_json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = include_str!("../../baselines/quick/BENCH_engine.json");

    #[test]
    fn a_baseline_metric_the_run_lacks_is_a_regression() {
        assert_eq!(compare_file("engine", "steps_per_sec", ENGINE, ENGINE), 0);
        let instance = |name: &str| {
            ENGINE
                .find(&format!("    {{\n      \"name\": \"{name}"))
                .expect("instance in the baseline")
        };
        let without_ring16 = format!(
            "{}{}",
            &ENGINE[..instance("ring-16")],
            &ENGINE[instance("caterpillar(6,2)")..]
        );
        // Its full-refresh and its incremental steps/s.
        assert_eq!(
            compare_file("engine", "steps_per_sec", ENGINE, &without_ring16),
            2
        );
        let zero_base = ENGINE.replacen("283014.8", "0.0", 1);
        assert_eq!(
            compare_file("engine", "steps_per_sec", &zero_base, ENGINE),
            0
        );
    }
}
