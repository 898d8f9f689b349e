//! Scale end-to-end: the tentpole claim of the sharded orchestrator and
//! the one-thread-per-shard data plane, exercised on real grids.
//!
//! * A 64-node grid over UDS with full chaos (per-link faults plus a
//!   partition/heal cycle) converges with a clean reconciled SP verdict
//!   under 4 shards.
//! * The run's thread footprint is `shards + O(1)` — a data thread per
//!   shard and the root — measured by the debug-build registration
//!   counter, not inferred; with one shard a whole `line:5` under chaos
//!   runs on exactly one `node.main`, over UDS and over TCP.
//! * Sharding is a pure scheduling detail: the primary message set is the
//!   same whether the 25 nodes of a grid share one data thread, four, or
//!   have one each, or run in four processes.
//!
//! The registration counter is process-global and cumulative, so the
//! tests serialize on a mutex and measure deltas.

mod common;

use common::SocketDir;
use ssmfp_cluster::{
    pick_partition, run_cluster, shard_ranges, ChaosSpec, ClusterSpec, ListenSpec, RunMode,
    WorkloadKind, WorkloadSpec,
};
use ssmfp_topology::{gen, Graph};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Serializes the tests in this file: thread-count deltas are only
/// meaningful when no other cluster run is registering threads.
static SCALE_LOCK: Mutex<()> = Mutex::new(());

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

fn primary_set(r: &ssmfp_cluster::RunReport) -> Vec<(ssmfp_mp::MpGhost, usize)> {
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
/// a thread footprint bounded by `shards + O(1)`.
#[test]
fn grid_8x8_uds_chaos_clean_with_bounded_threads() {
    let _guard = SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let dir = SocketDir::new("scale-test");
    let spec = grid_spec(&dir, 8, 8, 64, 4, 6);
    let n = spec.graph.n();
    let shards = shard_ranges(n, spec.shards).len();

    let before = ssmfp_core::conc::registered_thread_count(ssmfp_cluster::conc::COMPONENT);
    let report = run_cluster(&spec).expect("run");
    let after = ssmfp_core::conc::registered_thread_count(ssmfp_cluster::conc::COMPONENT);

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

    // Per shard one data thread carrying all its nodes, plus the
    // orchestrator (the calling thread re-registers for free on repeat
    // runs — hence ≤ 2 slack, not an exact count). Only meaningful in
    // debug builds, where the registry records anything at all.
    if cfg!(debug_assertions) {
        let delta = after - before;
        assert!(
            delta >= shards as u64,
            "thread registry missed workers: delta {delta} < K = {shards}"
        );
        assert!(
            delta <= shards as u64 + 2,
            "thread footprint blew the per-run bound: delta {delta} > K+2 = {}",
            shards + 2
        );
    }
}

/// Every node of the cluster on one thread, under chaos, over both socket
/// flavours: clean verdict, and the registry saw exactly one `node.main`.
#[test]
fn line5_one_shard_chaos_runs_on_one_data_thread() {
    let dir = SocketDir::new("scale-test");
    let _guard = SCALE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let component = ssmfp_cluster::conc::COMPONENT;
    for listen in [dir.listen(), ListenSpec::Tcp] {
        let spec = ClusterSpec {
            listen,
            ..chaos_spec(&dir, "line:5".into(), gen::line(5), 5, 1, 12)
        };
        let before = ssmfp_core::conc::registered_role_count(component, "node.main");
        let report = run_cluster(&spec).expect("run");
        let after = ssmfp_core::conc::registered_role_count(component, "node.main");
        assert!(report.clean(), "{:?}: {:?}", spec.listen, report.verdict);
        assert_eq!(report.primaries_delivered, 5 * 12);
        let c = &report.counters;
        assert!(
            c.chaos_dropped + c.chaos_duplicated + c.chaos_reordered + c.partition_dropped > 0,
            "chaos never fired: {c:?}"
        );
        if cfg!(debug_assertions) {
            assert_eq!(
                after - before,
                1,
                "{:?}: one shard, one data thread",
                spec.listen
            );
        }
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
