//! End-to-end cluster runs: real sockets, real threads/processes, chaos
//! on the wire — and still exactly-once with a clean cluster-wide SP
//! verdict.

mod common;

use common::SocketDir;
use ssmfp_cluster::{
    pick_partition, run_cluster, ChaosSpec, ClusterSpec, ListenSpec, RunMode, WorkloadKind,
    WorkloadSpec, TUNING,
};
use ssmfp_core::{reconcile_ledgers, NodeLedger};
use ssmfp_topology::{gen, Graph};
use std::path::PathBuf;
use std::time::Duration;

fn chaos_spec(graph: &Graph, seed: u64) -> ChaosSpec {
    ChaosSpec {
        seed: seed ^ 0xC4A0,
        faults_per_link: 2,
        // One partition/heal cycle on a seed-picked edge: drop 15
        // consecutive data-plane arrivals per direction, then heal.
        partition: Some(pick_partition(graph, seed, 5, 15)),
    }
}

fn assert_clean(report: &ssmfp_cluster::RunReport) {
    // Everything runs on the event plane, so the syscall counters are
    // wired in every mode: one shard (always in-process here) keeps every
    // link in memory and writes nothing, any other run writes through its
    // sockets.
    assert_eq!(
        report.counters.write_syscalls > 0,
        report.shards > 1,
        "{} writes on {} shards",
        report.counters.write_syscalls,
        report.shards
    );
    // The shard tree preserves totals: the top-level primary count is the
    // sum of the per-shard pre-merges.
    assert_eq!(
        report.primaries_delivered,
        report
            .shard_summaries
            .iter()
            .map(|s| s.primaries_delivered)
            .sum::<u64>()
    );
    assert!(
        report.converged,
        "{}: cluster did not converge",
        report.topology
    );
    assert!(
        report.verdict.clean(),
        "{}: SP violations: {:?}",
        report.topology,
        report.verdict.violations
    );
    assert_eq!(
        report.verdict.generated, report.verdict.exactly_once,
        "{}: not everything was delivered exactly once",
        report.topology
    );
    assert!(report.primaries_delivered > 0);
    assert_eq!(report.latency.count(), report.primaries_delivered);
    assert_eq!(
        report.verdict,
        reconcile_ledgers(&ledgers(report)),
        "{}: the verdict is not the reference join's",
        report.topology
    );
}

/// A report's per-node lists as the ledgers `reconcile_ledgers` reads.
fn ledgers(report: &ssmfp_cluster::RunReport) -> Vec<NodeLedger> {
    report
        .nodes
        .iter()
        .map(|r| NodeLedger {
            node: r.node,
            generated: r.generated.clone(),
            delivered: r.delivered.clone(),
            held: r.held.clone(),
        })
        .collect()
}

#[test]
fn five_node_line_uds_chaos_exactly_once() {
    let dir = SocketDir::new("cluster-test");
    let graph = gen::line(5);
    let chaos = chaos_spec(&graph, 1);
    let spec = ClusterSpec {
        topology: "line:5".into(),
        graph,
        seed: 1,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 4 },
            messages: 20,
        },
        chaos,
        listen: dir.listen(),
        clients: None,
        shards: 2,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert_clean(&report);
    // Every node generated 20 primaries plus the acks it owed.
    assert_eq!(report.primaries_delivered, 5 * 20);
    // The chaos shim actually did something.
    let c = &report.counters;
    assert!(
        c.chaos_dropped + c.chaos_duplicated + c.chaos_reordered + c.partition_dropped > 0,
        "chaos never fired: {c:?}"
    );
}

#[test]
fn caterpillar_uds_open_loop_chaos_exactly_once() {
    let dir = SocketDir::new("cluster-test");
    let graph = gen::caterpillar(3, 2);
    let chaos = chaos_spec(&graph, 7);
    let spec = ClusterSpec {
        topology: "caterpillar:3:2".into(),
        graph,
        seed: 7,
        workload: WorkloadSpec {
            kind: WorkloadKind::Open {
                rate_per_sec: 400.0,
            },
            messages: 20,
        },
        chaos,
        listen: dir.listen(),
        clients: None,
        shards: 3,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert_clean(&report);
    assert_eq!(report.primaries_delivered, 9 * 20);
}

/// Two data threads, so the ring's two cross-thread edges ride TCP.
#[test]
fn tcp_transport_also_clean() {
    let graph = gen::ring(4);
    let spec = ClusterSpec {
        topology: "ring:4".into(),
        graph: graph.clone(),
        seed: 3,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 2 },
            messages: 10,
        },
        chaos: ChaosSpec {
            seed: 3,
            faults_per_link: 1,
            partition: None,
        },
        listen: ListenSpec::Tcp,
        clients: None,
        shards: 2,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert_clean(&report);
}

/// Every node on one data thread, under the same chaos as the socket
/// runs: each link is in memory and no `write` is made, yet the shim drops,
/// duplicates and reorders on every link and the partition bites, and
/// every message is still delivered exactly once.
#[test]
fn one_shard_line_in_memory_chaos_exactly_once() {
    let dir = SocketDir::new("cluster-test");
    let graph = gen::line(5);
    let spec = ClusterSpec {
        topology: "line:5".into(),
        chaos: chaos_spec(&graph, 1),
        graph,
        seed: 1,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 4 },
            messages: 50,
        },
        listen: dir.listen(),
        clients: None,
        shards: 1,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert_clean(&report);
    assert_eq!(report.primaries_delivered, 5 * 50);
    let c = &report.counters;
    assert_eq!((c.write_syscalls, c.read_syscalls), (0, 0));
    for (what, count) in [
        ("dropped", c.chaos_dropped),
        ("duplicated", c.chaos_duplicated),
        ("reordered", c.chaos_reordered),
        ("partition_dropped", c.partition_dropped),
    ] {
        assert!(count > 0, "chaos never {what}: {c:?}");
    }
}

/// Two data threads over a 25-node grid, under chaos, over both socket
/// flavours, in this process and in one process per shard: the links
/// inside a group are in memory, the ones across ride one stream each way,
/// and each group's socket accounting reaches the run totals through
/// exactly one report.
#[test]
fn two_shard_grid_shares_one_cross_group_stream_each_way() {
    let dir = SocketDir::new("cluster-test");
    let proc = RunMode::Proc {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
    };
    let runs = [RunMode::Inproc, proc].into_iter().flat_map(|mode| {
        let uds = dir.listen();
        [(mode.clone(), uds), (mode, ListenSpec::Tcp)]
    });
    for (mode, listen) in runs {
        let graph = gen::grid(5, 5);
        let spec = ClusterSpec {
            topology: "grid:5x5".into(),
            chaos: chaos_spec(&graph, 9),
            graph,
            seed: 9,
            workload: WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 2 },
                messages: 8,
            },
            listen,
            clients: None,
            shards: 2,
            mode,
            timeout: Duration::from_secs(120),
        };
        let report = run_cluster(&spec).expect("run");
        assert_clean(&report);
        assert_eq!(report.primaries_delivered, 25 * 8, "{:?}", spec.listen);
        let carriers = report
            .nodes
            .iter()
            .filter(|r| r.counters.write_syscalls > 0 || r.counters.read_syscalls > 0);
        assert_eq!(
            carriers.count(),
            2,
            "{:?}: one report per group carries its I/O",
            spec.mode
        );
        // Four streams, each written at most once a turn: far fewer writes
        // than frames.
        let c = &report.counters;
        assert!(
            c.write_syscalls < c.frames_sent,
            "{} writes for {} frames",
            c.write_syscalls,
            c.frames_sent
        );
    }
}

/// A run that issues nothing is done when it starts: every group's first
/// cut is quiet with nothing generated, held or delivered, and one probe
/// wave confirms it — convergence, not a wait for the timeout, and in
/// process not even for one status period. (The best of three inproc
/// runs: the other tests of this file load the same cores, and a thread
/// hop of the probe's round trip can wait a scheduler slice.)
#[test]
fn a_run_of_zero_messages_converges_clean() {
    let modes = [
        (RunMode::Inproc, 3, TUNING.status_every_ms as f64 / 1e3),
        (
            RunMode::Proc {
                exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
            },
            1,
            2.0,
        ),
    ];
    for (mode, runs, bound) in modes {
        let best = (0..runs)
            .map(|_| run_zero_messages(mode.clone()).wall_s)
            .fold(f64::INFINITY, f64::min);
        assert!(best < bound, "{mode:?}: {best} s");
    }
}

/// One clean `line:5` run on two shards that issues nothing.
fn run_zero_messages(mode: RunMode) -> ssmfp_cluster::RunReport {
    let dir = SocketDir::new("cluster-test");
    let spec = ClusterSpec {
        topology: "line:5".into(),
        graph: gen::line(5),
        seed: 1,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 0,
        },
        chaos: ChaosSpec::none(),
        listen: dir.listen(),
        clients: None,
        shards: 2,
        mode,
        timeout: Duration::from_secs(30),
    };
    let report = run_cluster(&spec).expect("run");
    assert!(report.clean(), "{:?}: {:?}", spec.mode, report.verdict);
    assert_eq!(report.detect.probes, 1, "{:?}", spec.mode);
    assert_eq!(report.verdict.generated, 0);
    assert_eq!(report.primaries_delivered, 0);
    report
}

/// The primary ghost↔destination message set — what the SP verdict
/// quantifies over — is a pure function of the seed, independent of
/// scheduling. (Ack *identities* depend on delivery order; their count
/// and exactly-once delivery are still checked by the verdict.)
#[test]
fn message_set_deterministic_under_fixed_seed() {
    let dir = SocketDir::new("cluster-test");
    let run = || {
        let graph = gen::line(4);
        let spec = ClusterSpec {
            topology: "line:4".into(),
            graph: graph.clone(),
            seed: 11,
            workload: WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 3 },
                messages: 10,
            },
            chaos: chaos_spec(&graph, 11),
            listen: dir.listen(),
            clients: None,
            shards: 2,
            mode: RunMode::Inproc,
            timeout: Duration::from_secs(120),
        };
        run_cluster(&spec).expect("run")
    };
    let a = run();
    let b = run();
    assert_clean(&a);
    assert_clean(&b);
    let key = |r: &ssmfp_cluster::RunReport| {
        let mut g: Vec<_> = r
            .nodes
            .iter()
            .flat_map(|n| n.generated.iter().copied())
            .filter(|&(g, _)| !ssmfp_cluster::is_ack_ghost(g))
            .collect();
        g.sort();
        g
    };
    assert_eq!(key(&a), key(&b), "message set differed across runs");
    assert_eq!(a.verdict.generated, b.verdict.generated);
    assert_eq!(a.verdict.exactly_once, b.verdict.exactly_once);
}

/// Five shards of one node, each a worker process controlled over the
/// socketpair the root hands it as fd 0, with a Unix-domain stream on
/// every link.
#[test]
fn process_mode_five_node_line_clean() {
    let dir = SocketDir::new("cluster-test");
    let graph = gen::line(5);
    let chaos = chaos_spec(&graph, 5);
    let spec = ClusterSpec {
        topology: "line:5".into(),
        graph,
        seed: 5,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 4 },
            messages: 10,
        },
        chaos,
        listen: dir.listen(),
        clients: None,
        shards: 5,
        mode: RunMode::Proc {
            exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
        },
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert_clean(&report);
    assert_eq!(report.primaries_delivered, 5 * 10);
}

/// Every report says where the time outside its window went: the three
/// phases are in its JSON, and they and the window are disjoint slices
/// of the call.
#[test]
fn a_report_prices_its_phases() {
    let dir = SocketDir::new("cluster-test");
    let spec = ClusterSpec {
        topology: "line:5".into(),
        graph: gen::line(5),
        seed: 3,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 2 },
            messages: 30,
        },
        chaos: ChaosSpec::none(),
        listen: dir.listen(),
        clients: None,
        shards: 1,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(60),
    };
    let t0 = std::time::Instant::now();
    let report = run_cluster(&spec).expect("run");
    let call_s = t0.elapsed().as_secs_f64();
    assert!(report.clean());
    let p = report.phases;
    for (name, v) in [
        ("ready_s", p.ready_s),
        ("report_s", p.report_s),
        ("audit_s", p.audit_s),
    ] {
        assert!(
            v > 0.0 && v <= call_s,
            "{name} = {v} s of a {call_s} s call"
        );
    }
    assert!(p.ready_s + report.wall_s + p.report_s + p.audit_s <= call_s);
    let json = report.to_json();
    let phases = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"phases\": {"))
        .expect("a phases object");
    for key in ["\"ready_s\": ", "\"report_s\": ", "\"audit_s\": "] {
        assert!(phases.contains(key), "{key} missing from {phases}");
    }
}

/// The ledger rides the status lines and is joined as it streams: a
/// converged run, with its nodes on a thread or in processes, on a line or
/// a grid split over two shards, uploads nothing at `stop` — every entry
/// of every node's report streamed in while the run ran — and its verdict
/// is the root's running join, which is the one the whole reports
/// reconcile to.
#[test]
fn a_converged_run_streams_its_whole_ledger() {
    let dir = SocketDir::new("cluster-test");
    let proc = RunMode::Proc {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
    };
    let line = (gen::line(5), 4 * 5 * 40);
    let grid = (gen::grid(3, 3), 4 * 9 * 40);
    for (mode, (graph, want)) in [
        (RunMode::Inproc, line.clone()),
        (proc, line),
        (RunMode::Inproc, grid),
    ] {
        let topology = format!("{} nodes, {mode:?}", graph.n());
        let spec = ClusterSpec {
            topology: topology.clone(),
            graph,
            seed: 4,
            workload: WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 2 },
                messages: 40,
            },
            chaos: ChaosSpec::none(),
            listen: dir.listen(),
            clients: None,
            shards: 2,
            mode,
            timeout: Duration::from_secs(60),
        };
        let report = run_cluster(&spec).expect("run");
        assert!(report.clean(), "{topology}");
        assert_eq!(report.shards, 2, "{topology}");
        let entries: usize = report
            .nodes
            .iter()
            .map(|r| r.generated.len() + r.delivered.len())
            .sum();
        assert_eq!(report.ledger.tail, 0, "{topology}");
        assert_eq!(report.ledger.streamed, entries as u64, "{topology}");
        assert_eq!(entries, want, "{topology}: primaries and acks, each twice");
        assert!(!report.ledger.reference, "{topology}: {:?}", report.ledger);
        assert!(
            report.ledger.join_s > 0.0,
            "{topology}: {:?}",
            report.ledger
        );
        assert_eq!(
            reconcile_ledgers(&ledgers(&report)),
            report.verdict,
            "{topology}"
        );
        let json = report.to_json();
        assert!(
            json.contains(&format!(
                "\"ledger\": {{\"streamed\": {entries}, \"tail\": 0, \"join_s\": "
            )),
            "{json}"
        );
        assert!(
            json.contains(&format!(
                "\"pending_peak\": {}, \"reference\": false}}",
                report.ledger.pending_peak
            )),
            "{json}"
        );
    }
}

/// The root runs one join for the whole run, so a ghost generated in one
/// group and delivered in the other pairs as soon as both ends have
/// streamed in: on a 25-node grid split over two data threads, a group
/// ships its entries behind each status line, at least once a status
/// period, so the join holds unpaired a fraction of one period of the
/// run's own entries (0.1–0.4 measured), plus the messages in flight. The
/// bound is one period at the rate the run itself reached, so a faster
/// build does not fail it; a join per group (about a quarter of the
/// entries), or a group that ships only every few periods, holds entries
/// for several periods and fails it.
#[test]
fn one_join_for_the_run_pairs_across_groups_as_they_stream() {
    let dir = SocketDir::new("cluster-test");
    let spec = ClusterSpec {
        topology: "grid:5x5".into(),
        graph: gen::grid(5, 5),
        seed: 1,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 2 },
            messages: 400,
        },
        chaos: ChaosSpec::none(),
        listen: dir.listen(),
        clients: None,
        shards: 2,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(120),
    };
    let report = run_cluster(&spec).expect("run");
    assert!(report.clean(), "{:?}", report.verdict);
    let l = report.ledger;
    assert!(!l.reference, "{l:?}");
    assert_eq!(l.streamed, 25 * 400 * 4, "{l:?}");
    let per_period = l.streamed as f64 / report.wall_s * TUNING.status_every_ms as f64 / 1e3;
    // Every node's two primaries in flight, and their acks.
    let in_flight = 25 * 2 * 2;
    assert!(
        l.pending_peak as f64 <= per_period + in_flight as f64,
        "{l:?}: {per_period:.0} entries a status period over {:.3} s",
        report.wall_s
    );
}
