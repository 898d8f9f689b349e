//! `ssmfp-cluster`: run an SSMFP topology as real nodes over sockets.
//!
//! ```text
//! ssmfp-cluster [--topology grid:10x10] [--workload closed:4:200] [--seed 1]
//!               [--clients N] [--client-load closed:1:2]
//!               [--faults 2] [--partition 20:40] [--transport uds|tcp]
//!               [--shards K] [--inproc] [--timeout-s 60]
//!               [--json FILE] [--quiet]
//! ```
//!
//! Exit codes: `0` clean run (converged, zero SP violations — and, with
//! `--clients`, a clean per-client verdict), `1` dirty or non-converged
//! run, `2` usage error. The hidden `--node-worker` mode is how the
//! orchestrator spawns per-node processes.

use ssmfp_cluster::codec::parse_client_mutation;
use ssmfp_cluster::{
    node_main, parse_chaos, parse_node_args, parse_workload, pick_partition, run_cluster,
    ChaosSpec, ClientSpec, ClusterSpec, CtrlPipe, ListenSpec, RunMode, WorkloadKind, WorkloadSpec,
};
use ssmfp_core::cli::{self, Tool};
use ssmfp_topology::{gen, Graph};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

const TOOL: Tool = Tool {
    name: "ssmfp-cluster",
    usage: "\
ssmfp-cluster — SSMFP nodes over real sockets

USAGE:
    ssmfp-cluster [OPTIONS]

OPTIONS:
    --topology SPEC    line:N | ring:N | star:N | caterpillar:S:L |
                       grid:RxC | torus:RxC | hypercube:D | random:N,p
                       (also grid:R:C / torus:R:C; random is a seeded
                       connected Erdős–Rényi sample; default line:5)
    --workload SPEC    open:<rate/s>:<msgs> | closed:<K>:<msgs> per node
                       (default closed:4:50; ignored with --clients)
    --clients N        client mode: N logical clients spread over the
                       nodes, each an audited exactly-once+FIFO stream
    --client-load SPEC per-client discipline, same syntax as --workload
                       (default closed:1:2)
    --seed S           run seed (default 1)
    --faults K         per-link drop/duplicate/reorder budgets (default 0)
    --partition F:L    one partition/heal cycle: drop data-plane arrivals
                       [F, F+L) on a seed-picked edge (default off)
    --transport T      uds | tcp (default uds)
    --shards K         orchestrator shards, each supervising a node group;
                       with --inproc a shard's nodes share one data thread,
                       so K is also the number of data threads (default:
                       one per 25 nodes, and with --inproc at least one
                       per available CPU; clamped to 1..=n)
    --inproc           nodes inside this process, one thread per shard,
                       instead of one process each
    --timeout-s T      convergence timeout in seconds (default 60)
    --json FILE        write the JSON run report to FILE ('-' = stdout)
    --quiet            suppress the human summary
    --version          print version and exit
    -h, --help         this text",
};

/// Seed-aware topology parsing: `random:N,p` draws a seeded connected
/// Erdős–Rényi sample, so the graph cannot be built until the run seed
/// is known — the CLI stashes the spec string and resolves it after the
/// argument loop.
fn parse_topology(s: &str, seed: u64) -> Result<(String, Graph), String> {
    let parts: Vec<&str> = s.split(':').collect();
    let num = |t: Option<&&str>| -> Result<usize, String> {
        t.and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad topology {s:?}"))
    };
    // grid:10x10 / torus:4x8 are the compact forms; grid:R:C still works.
    let dims = |spec: &str| -> Result<(usize, usize), String> {
        let (r, c) = spec
            .split_once('x')
            .ok_or_else(|| format!("bad topology {s:?} (want RxC)"))?;
        Ok((num(Some(&r))?, num(Some(&c))?))
    };
    let g = match (parts[0], parts.len()) {
        ("line", 2) => gen::line(num(parts.get(1))?),
        ("ring", 2) => gen::ring(num(parts.get(1))?),
        ("star", 2) => gen::star(num(parts.get(1))?),
        ("caterpillar", 3) => gen::caterpillar(num(parts.get(1))?, num(parts.get(2))?),
        ("grid", 2) => {
            let (r, c) = dims(parts[1])?;
            gen::grid(r, c)
        }
        ("grid", 3) => gen::grid(num(parts.get(1))?, num(parts.get(2))?),
        ("torus", 2) => {
            let (r, c) = dims(parts[1])?;
            gen::torus(r, c)
        }
        ("torus", 3) => gen::torus(num(parts.get(1))?, num(parts.get(2))?),
        ("hypercube", 2) => {
            let d = num(parts.get(1))?;
            if d == 0 || d > 16 {
                return Err(format!("bad topology {s:?} (want 1 <= D <= 16)"));
            }
            gen::hypercube(d as u32)
        }
        ("random", 2) => {
            let (n, p) = parts[1]
                .split_once(',')
                .ok_or_else(|| format!("bad topology {s:?} (want random:N,p)"))?;
            let n: usize = n.parse().map_err(|_| format!("bad topology {s:?}"))?;
            let p: f64 = p.parse().map_err(|_| format!("bad topology {s:?}"))?;
            if !(0.0..=1.0).contains(&p) || n == 0 {
                return Err(format!("bad topology {s:?} (want N >= 1, p in [0, 1])"));
            }
            gen::erdos_renyi(n, p, seed).ok_or_else(|| {
                format!("random:{n},{p} found no connected sample at seed {seed}; raise p")
            })?
        }
        _ => return Err(format!("unknown topology {s:?}")),
    };
    Ok((s.to_string(), g))
}

fn main() -> ExitCode {
    let mut topology = "line:5".to_string();
    let mut workload = WorkloadSpec {
        kind: WorkloadKind::Closed { outstanding: 4 },
        messages: 50,
    };
    let mut clients: Option<u64> = None;
    let mut client_load = WorkloadSpec {
        kind: WorkloadKind::Closed { outstanding: 1 },
        messages: 2,
    };
    let mut client_mutation = None;
    let mut seed: u64 = 1;
    let mut faults: u32 = 0;
    let mut partition: Option<(u64, u64)> = None;
    let mut transport = "uds".to_string();
    let mut shards: Option<usize> = None;
    let mut inproc = false;
    let mut timeout_s: u64 = 60;
    let mut json: Option<String> = None;
    let mut quiet = false;

    let node_worker = TOOL.parse(|args| {
        // Hidden per-node worker mode (spawned by a shard supervisor).
        if args.mode("--node-worker") {
            return parse_node_args(&args.rest()).map(Some);
        }
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--topology" => topology = args.value()?,
                "--workload" => workload = parse_workload(&args.value()?)?,
                "--clients" => clients = Some(args.parse()?),
                "--client-load" => client_load = parse_workload(&args.value()?)?,
                // Hidden: seeded client-layer bug injection, for red-testing
                // the per-client audit (a clean run must turn dirty).
                "--client-mutation" => {
                    client_mutation = Some(parse_client_mutation(&args.value()?)?)
                }
                "--seed" => seed = args.parse()?,
                "--faults" => faults = args.parse()?,
                "--partition" => {
                    let v = args.value()?;
                    let (f, l) = v
                        .split_once(':')
                        .ok_or_else(|| format!("bad --partition {v:?} (want FROM:LEN)"))?;
                    partition =
                        Some((cli::parse("--partition", f)?, cli::parse("--partition", l)?));
                }
                "--transport" => {
                    transport = args.value()?;
                    if transport != "uds" && transport != "tcp" {
                        return Err(format!("bad --transport {transport:?} (want uds|tcp)"));
                    }
                }
                "--shards" => {
                    let k = args.parse()?;
                    if k == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    shards = Some(k);
                }
                "--inproc" => inproc = true,
                "--timeout-s" => timeout_s = args.parse()?,
                "--json" => json = Some(args.value()?),
                "--quiet" => quiet = true,
                _ => return Err(args.unknown()),
            }
        }
        Ok(None)
    });
    if let Some(cfg) = node_worker {
        return match node_main(&cfg, CtrlPipe::Stdio) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ssmfp-cluster node {}: {e}", cfg.node);
                ExitCode::FAILURE
            }
        };
    }

    // Resolve the topology only now: `random:N,p` needs the seed.
    let (name, graph) = match parse_topology(&topology, seed) {
        Ok(t) => t,
        Err(e) => TOOL.die(&e),
    };
    if graph.n() < 2 {
        TOOL.die("topology needs at least 2 nodes");
    }
    let client_spec = clients.map(|k| ClientSpec {
        clients: k,
        load: client_load,
        mutation: client_mutation,
    });
    if let Some(c) = &client_spec {
        if let Err(e) = c.validate(graph.n()) {
            TOOL.die(&e);
        }
    } else if client_mutation.is_some() {
        TOOL.die("--client-mutation needs --clients");
    }
    // An inproc shard is a data thread: by default use the CPUs there are.
    let shards = shards.unwrap_or_else(|| {
        let n = graph.n();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = if inproc { cpus.min(n) } else { 1 };
        n.div_ceil(25).max(threads)
    });
    // An ignored side effect of `--chaos` syntax reuse: validate early so
    // the worker round-trip can't fail later.
    let chaos = ChaosSpec {
        seed: seed ^ 0xC4A0_5C4A_05C4_A05C,
        faults_per_link: faults,
        partition: partition.map(|(f, l)| pick_partition(&graph, seed, f, l)),
    };
    debug_assert!(parse_chaos(&format!("{}:{}", chaos.seed, chaos.faults_per_link)).is_ok());

    let uds_dir = std::env::temp_dir().join(format!("ssmfp-cluster-{}", std::process::id()));
    let listen = if transport == "uds" {
        if let Err(e) = std::fs::create_dir_all(&uds_dir) {
            TOOL.die(&format!("cannot create {}: {e}", uds_dir.display()));
        }
        ListenSpec::Uds {
            dir: uds_dir.clone(),
        }
    } else {
        ListenSpec::Tcp
    };
    let mode = if inproc {
        RunMode::Inproc
    } else {
        match std::env::current_exe() {
            Ok(exe) => RunMode::Proc { exe },
            Err(e) => TOOL.die(&format!("cannot locate own binary: {e}")),
        }
    };

    let spec = ClusterSpec {
        topology: name,
        graph,
        seed,
        workload,
        chaos,
        listen,
        clients: client_spec,
        shards,
        mode,
        timeout: Duration::from_secs(timeout_s),
    };
    let report = match run_cluster(&spec) {
        Ok(r) => r,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&uds_dir);
            eprintln!("ssmfp-cluster: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(&uds_dir);

    if !quiet {
        let v = &report.verdict;
        eprintln!(
            "{}: n={} seed={} shards={} converged={} wall={:.2}s generated={} exactly_once={} \
             violations={} | {:.0} msg/s p50={}µs p99={}µs | chaos d/u/r={}/{}/{} part={}",
            report.topology,
            report.n,
            report.seed,
            report.shards,
            report.converged,
            report.wall_s,
            v.generated,
            v.exactly_once,
            v.violations.len(),
            report.throughput,
            report.latency.quantile(0.50),
            report.latency.quantile(0.99),
            report.counters.chaos_dropped,
            report.counters.chaos_duplicated,
            report.counters.chaos_reordered,
            report.counters.partition_dropped,
        );
        let ph = &report.phases;
        eprintln!(
            "phases: ready={:.1}ms report={:.1}ms audit={:.1}ms | ledger: streamed={} tail={}",
            ph.ready_s * 1e3,
            ph.report_s * 1e3,
            ph.audit_s * 1e3,
            report.ledger.streamed,
            report.ledger.tail,
        );
        if !report.converged {
            let d = &report.detect;
            eprintln!(
                "detect: probes={} last: nodes={}/{} done={} generated={} delivered={} held={}",
                d.probes,
                d.last.nodes,
                report.n,
                d.last.done,
                d.last.generated,
                d.last.delivered,
                d.last.held,
            );
        }
        if let Some(cv) = &report.client_verdict {
            eprintln!(
                "clients: hosted={} completed={} stamped={} exactly_once={} in_flight={} \
                 violations={} | rtt p50={}µs p99={}µs fairness p50={}µs p99={}µs",
                report.clients,
                report.clients_completed,
                cv.stamped,
                cv.exactly_once,
                cv.in_flight,
                cv.violations.len(),
                report.client_rtt.quantile(0.50),
                report.client_rtt.quantile(0.99),
                report.client_fair.quantile(0.50),
                report.client_fair.quantile(0.99),
            );
        }
    }
    match json.as_deref() {
        Some("-") => println!("{}", report.to_json()),
        Some(path) => {
            let out = report.to_json();
            if let Err(e) = std::fs::File::create(path).and_then(|mut f| {
                f.write_all(out.as_bytes())?;
                f.write_all(b"\n")
            }) {
                eprintln!("ssmfp-cluster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {}
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ssmfp-cluster: run was NOT clean");
        ExitCode::FAILURE
    }
}
