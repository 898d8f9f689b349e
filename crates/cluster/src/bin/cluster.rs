//! `ssmfp-cluster`: run an SSMFP topology as real nodes over sockets.
//! Flags and exit codes are in `TOOL.usage`; the run flags go to a
//! [`Scenario`], the rest say how to launch it and what to print. The
//! hidden `--node-worker` mode is how a shard spawns its one process,
//! which runs the shard's nodes.

use ssmfp_cluster::{node_main, parse_node_args, run_cluster, ListenSpec, RunMode, Scenario};
use ssmfp_core::cli::Tool;
use std::num::NonZeroUsize;
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
    --shards K         K node groups, each on one data thread (default:
                       one per 25 nodes and at least one per available
                       CPU; clamped to 1..=n)
    --inproc           each shard's nodes on a thread of this process,
                       instead of in one process per shard
    --timeout-s T      convergence timeout in seconds (default 60); a node
                       group that stops answering fails the run at most
                       min(T, 20) + min(T, 5) s past it
    --json FILE        write the JSON run report to FILE ('-' = stdout)
    --quiet            suppress the human summary
    --version          print version and exit
    -h, --help         this text

The flags from --topology to --partition are the run's scenario: the JSON
report's \"scenario\" line, printed too when a run is not clean, replays it.

EXIT: 0 clean run, 1 dirty or unconverged run, 2 usage error — a malformed
run description included: a topology its family cannot be built at or
under 2 nodes, a workload that cannot pace (an open rate not finite and
> 0, a closed window of 0), a client flag without --clients.",
};

fn main() -> ExitCode {
    let mut scenario = Scenario::default();
    let dir = std::env::temp_dir().join(format!("ssmfp-cluster-{}", std::process::id()));
    let mut listen = ListenSpec::Uds { dir: dir.clone() };
    let mut shards: Option<usize> = None;
    let mut inproc = false;
    let mut timeout = Duration::from_secs(60);
    let mut json: Option<String> = None;
    let mut quiet = false;

    let node_worker = TOOL.parse(|args| {
        // Hidden worker mode: a shard's nodes, spawned by its supervisor.
        if args.mode("--node-worker") {
            return parse_node_args(&args.rest()).map(Some);
        }
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--transport" => match args.value()?.as_str() {
                    "uds" => listen = ListenSpec::Uds { dir: dir.clone() },
                    "tcp" => listen = ListenSpec::Tcp,
                    t => return Err(format!("bad --transport {t:?} (want uds|tcp)")),
                },
                "--shards" => shards = Some(args.parse::<NonZeroUsize>()?.get()),
                "--inproc" => inproc = true,
                "--timeout-s" => timeout = Duration::from_secs(args.parse()?),
                "--json" => json = Some(args.value()?),
                "--quiet" => quiet = true,
                _ if scenario.flag(&flag, args)? => {}
                _ => return Err(args.unknown()),
            }
        }
        Ok(None)
    });
    if let Some((nodes, run)) = node_worker {
        return match node_main(nodes.clone(), &run) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ssmfp-cluster nodes {nodes:?}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mode = match std::env::current_exe() {
        _ if inproc => RunMode::Inproc,
        Ok(exe) => RunMode::Proc { exe },
        Err(e) => TOOL.die(&format!("cannot locate own binary: {e}")),
    };
    let spec = scenario.spec(listen, shards, mode, timeout);
    let spec = spec.unwrap_or_else(|e| TOOL.die(&e));
    if let ListenSpec::Uds { dir } = &spec.listen {
        if let Err(e) = std::fs::create_dir_all(dir) {
            TOOL.die(&format!("cannot create {}: {e}", dir.display()));
        }
    }
    let outcome = run_cluster(&spec);
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ssmfp-cluster: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = scenario.args().join(" ");
    report.scenario = Some(line.clone());

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
        let (ph, l) = (&report.phases, &report.ledger);
        eprintln!(
            "phases: ready={:.1}ms report={:.1}ms audit={:.0}µs | ledger: streamed={} tail={} \
             join={:.0}µs pending_peak={} reference={}",
            ph.ready_s * 1e3,
            ph.report_s * 1e3,
            ph.audit_s * 1e6,
            l.streamed,
            l.tail,
            l.join_s * 1e6,
            l.pending_peak,
            l.reference,
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
            if let Err(e) = std::fs::write(path, report.to_json() + "\n") {
                eprintln!("ssmfp-cluster: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {}
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ssmfp-cluster: run was NOT clean; it replays with:\n{line}");
        ExitCode::FAILURE
    }
}
