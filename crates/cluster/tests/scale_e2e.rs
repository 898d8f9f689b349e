//! Scale end-to-end: the tentpole claim of the sharded orchestrator and
//! the one-thread-per-shard data plane, exercised on real grids.
//!
//! * A 64-node grid over UDS with full chaos (per-link faults plus a
//!   partition/heal cycle) converges with a clean reconciled SP verdict
//!   under 4 shards.
//! * The run's data plane is one `node.main` thread per shard, counted
//!   from `/proc/self/task` while the run runs, not inferred; with one
//!   shard a whole `line:5` under chaos runs on exactly one `node.main`,
//!   over UDS and over TCP. None is left when the run returns.
//! * Sharding is a pure scheduling detail: the primary message set is the
//!   same whether the 25 nodes of a grid share one data thread, four, or
//!   have one each, or run in four processes.
//!
//! The thread count is the whole process's, so the tests serialize on a
//! mutex.

mod common;

use common::{peak_threads_named, threads_named, SocketDir};
use ssmfp_cluster::{
    pick_partition, run_cluster, shard_ranges, ChaosSpec, ClusterSpec, ListenSpec, RunMode,
    RunReport, WorkloadKind, WorkloadSpec,
};
use ssmfp_topology::{gen, Graph};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests in this file: a thread count is only meaningful
/// when no other cluster run is starting threads.
static SCALE_LOCK: Mutex<()> = Mutex::new(());

/// A run's data threads: how many `node.main` threads it ran at its peak,
/// and that none is left once it returns. (A joined thread can outlast its
/// join in `/proc` for a moment, so the second count waits briefly.)
fn data_threads_of(run: impl FnOnce() -> RunReport) -> (RunReport, usize) {
    let (report, peak) = peak_threads_named("node.main", run);
    let t0 = Instant::now();
    while threads_named("node.main") > 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a node.main thread outlived its run"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    (report, peak)
}

fn grid_spec(
    dir: &SocketDir,
    rows: usize,
    cols: usize,
    seed: u64,
    shards: usize,
    msgs: u64,
) -> ClusterSpec {
    chaos_spec(
        dir,
        format!("grid:{rows}x{cols}"),
        gen::grid(rows, cols),
        seed,
        shards,
        msgs,
    )
}

fn chaos_spec(
    dir: &SocketDir,
    topology: String,
    graph: Graph,
    seed: u64,
    shards: usize,
    msgs: u64,
) -> ClusterSpec {
    let chaos = ChaosSpec {
        seed: seed ^ 0x5CA1E,
        // Modest budgets: this is a debug-build test with 64 unoptimized
        // nodes on shared CI cores — the point is scale, not fault volume.
        faults_per_link: 1,
        partition: Some(pick_partition(&graph, seed, 4, 10)),
    };
    ClusterSpec {
        topology,
        graph,
        seed,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 2 },
            messages: msgs,
        },
        chaos,
        listen: dir.listen(),
        clients: None,
        shards,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(300),
    }
}

fn primary_set(r: &RunReport) -> Vec<(ssmfp_mp::MpGhost, usize)> {
    let mut g: Vec<_> = r
        .nodes
        .iter()
        .flat_map(|n| n.generated.iter().copied())
        .filter(|&(g, _)| !ssmfp_cluster::is_ack_ghost(g))
        .collect();
    g.sort();
    g
}

/// The tentpole e2e: 64 nodes, full chaos, 4 shards, clean verdict, and
/// one data thread per shard.
#[test]
fn grid_8x8_uds_chaos_clean_with_bounded_threads() {
    let _guard = SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = SocketDir::new("scale-test");
    let spec = grid_spec(&dir, 8, 8, 64, 4, 6);
    let n = spec.graph.n();
    let shards = shard_ranges(n, spec.shards).len();

    let (report, data_threads) = data_threads_of(|| run_cluster(&spec).expect("run"));

    assert!(report.converged, "64-node grid did not converge");
    assert!(
        report.verdict.clean(),
        "SP violations at 64 nodes: {:?}",
        report.verdict.violations
    );
    assert_eq!(report.n, 64);
    assert_eq!(report.shards, 4);
    assert_eq!(report.primaries_delivered, 64 * 6);
    assert_eq!(report.nodes.len(), 64);
    assert_eq!(report.shard_summaries.len(), 4);
    // The chaos shim and the partition window actually fired at scale.
    let c = &report.counters;
    assert!(
        c.chaos_dropped + c.chaos_duplicated + c.chaos_reordered + c.partition_dropped > 0,
        "chaos never fired: {c:?}"
    );
    // Per shard one data thread carrying all its nodes; the root is the
    // calling thread.
    assert_eq!(data_threads, shards, "one node.main per shard");
}

/// Every node of the cluster on one thread, under chaos, over both socket
/// flavours: clean verdict, and exactly one `node.main` ran.
#[test]
fn line5_one_shard_chaos_runs_on_one_data_thread() {
    let dir = SocketDir::new("scale-test");
    let _guard = SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    for listen in [dir.listen(), ListenSpec::Tcp] {
        let spec = ClusterSpec {
            listen,
            ..chaos_spec(&dir, "line:5".into(), gen::line(5), 5, 1, 12)
        };
        let (report, data_threads) = data_threads_of(|| run_cluster(&spec).expect("run"));
        assert!(report.clean(), "{:?}: {:?}", spec.listen, report.verdict);
        assert_eq!(report.primaries_delivered, 5 * 12);
        let c = &report.counters;
        assert!(
            c.chaos_dropped + c.chaos_duplicated + c.chaos_reordered + c.partition_dropped > 0,
            "chaos never fired: {c:?}"
        );
        assert_eq!(
            data_threads, 1,
            "{:?}: one shard, one data thread",
            spec.listen
        );
    }
}

/// Sharding must not leak into protocol behaviour: at a fixed seed the
/// primary ghost↔destination set of a 25-node grid is identical whether
/// its nodes share one data thread, four, have one each (`shards = n`)
/// or are four processes of a group each.
#[test]
fn primary_set_identical_across_shard_counts() {
    let _guard = SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = SocketDir::new("scale-test");
    let proc = ClusterSpec {
        mode: RunMode::Proc {
            exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
        },
        ..grid_spec(&dir, 5, 5, 17, 4, 6)
    };
    let runs = [
        ("shards=1", grid_spec(&dir, 5, 5, 17, 1, 6)),
        ("shards=4", grid_spec(&dir, 5, 5, 17, 4, 6)),
        ("shards=n", grid_spec(&dir, 5, 5, 17, 25, 6)),
        ("processes", proc),
    ]
    .map(|(name, spec)| (name, spec.shards, run_cluster(&spec).expect(name)));
    let (_, _, one) = &runs[0];
    for (name, shards, r) in &runs {
        assert!(r.converged, "{name} run did not converge");
        assert!(
            r.verdict.clean(),
            "{name}: SP violations: {:?}",
            r.verdict.violations
        );
        assert_eq!(r.shards, *shards);
        assert_eq!(
            primary_set(r),
            primary_set(one),
            "{name} changed the primary message set"
        );
        assert_eq!(r.verdict.generated, one.verdict.generated);
        assert_eq!(r.verdict.exactly_once, one.verdict.exactly_once);
    }
}
