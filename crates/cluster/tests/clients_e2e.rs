//! Client-layer end-to-end: the multiplexed client fan-in exercised on a
//! real grid, per-client verdict and all.
//!
//! * A 25-node grid over UDS with full chaos (per-link faults plus a
//!   partition/heal cycle) hosting thousands of logical clients
//!   converges with a clean SP verdict *and* a clean per-client verdict
//!   (every stamp exactly once, FIFO per client).
//! * The audit is load-bearing: the seeded `dup-stamp` mutation — two
//!   logical messages sharing one `(client, seq)` stamp — turns the
//!   verdict red and the run dirty.
//! * Both hold with one process per shard: the client flags reach every
//!   worker through its argv, and the run is the CLI's, built from its
//!   [`Scenario`].

mod common;

use common::SocketDir;
use ssmfp_cluster::{
    parse_workload, pick_partition, run_cluster, ChaosSpec, ClientMutation, ClientSpec,
    ClusterSpec, RunMode, Scenario, WorkloadKind, WorkloadSpec,
};
use ssmfp_core::ClientViolation;
use ssmfp_topology::gen;
use std::path::PathBuf;
use std::time::Duration;

fn client_spec(
    dir: &SocketDir,
    clients: u64,
    messages: u64,
    seed: u64,
    mutation: Option<ClientMutation>,
    chaos: bool,
) -> ClusterSpec {
    let graph = gen::grid(5, 5);
    let chaos = if chaos {
        ChaosSpec {
            seed: seed ^ 0x5CA1E,
            faults_per_link: 1,
            partition: Some(pick_partition(&graph, seed, 4, 10)),
        }
    } else {
        ChaosSpec::none()
    };
    ClusterSpec {
        topology: "grid:5x5".into(),
        graph,
        // The node-level workload is inert in client mode; give it a
        // nonzero quota anyway to prove the mux really replaces it.
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 4 },
            messages: 50,
        },
        seed,
        chaos,
        listen: dir.listen(),
        clients: Some(ClientSpec {
            clients,
            load: WorkloadSpec {
                kind: WorkloadKind::Closed { outstanding: 1 },
                messages,
            },
            mutation,
        }),
        shards: 4,
        mode: RunMode::Inproc,
        timeout: Duration::from_secs(300),
    }
}

/// The tentpole e2e: thousands of logical clients fanning into a 25-node
/// grid under full chaos, audited per client end-to-end.
#[test]
fn grid_5x5_chaos_thousands_of_clients_clean_per_client_verdict() {
    let clients = 2_000u64;
    let messages = 2u64;
    let dir = SocketDir::new("clients-test");
    let spec = client_spec(&dir, clients, messages, 11, None, true);
    let report = run_cluster(&spec).expect("run");

    assert!(report.converged, "client run did not converge");
    assert!(
        report.verdict.clean(),
        "SP violations: {:?}",
        report.verdict.violations
    );
    let cv = report.client_verdict.as_ref().expect("client mode verdict");
    assert!(cv.clean(), "per-client violations: {:?}", cv.violations);
    assert!(report.clean(), "report not clean");
    assert!(
        !report.ledger.reference,
        "the shards' running join left a clean run to the reference join"
    );

    // Every stamp accounted for, exactly once, none stuck in flight.
    assert_eq!(cv.clients, clients, "distinct clients seen by the audit");
    assert_eq!(cv.stamped, clients * messages);
    assert_eq!(cv.exactly_once, clients * messages);
    assert_eq!(cv.in_flight, 0);

    // The SP totals include the acks: one audited ack per primary.
    assert_eq!(report.verdict.generated, 2 * clients * messages);
    // …the primaries figure (and the msg/s derived from it) does not.
    assert_eq!(report.primaries_delivered, clients * messages);
    assert_eq!(report.latency.count(), report.primaries_delivered);

    // Per-client telemetry reached the root through the shard tree.
    assert_eq!(report.clients, clients);
    assert_eq!(report.clients_completed, clients * messages);
    assert_eq!(report.client_rtt.count(), clients * messages);
    assert_eq!(
        report.client_fair.count(),
        clients,
        "fairness is one sample per session"
    );
    // And the chaos was real.
    let c = &report.counters;
    assert!(
        c.chaos_dropped + c.chaos_duplicated + c.chaos_reordered + c.partition_dropped > 0,
        "chaos never fired: {c:?}"
    );
}

/// Red e2e: the seeded duplicate-stamp mutation must be caught — the
/// per-client verdict goes dirty with `DuplicateStamp` among the
/// violations, and the run reports unclean.
#[test]
fn dup_stamp_mutation_turns_the_client_verdict_red() {
    let dir = SocketDir::new("clients-test");
    let spec = client_spec(
        &dir,
        200,
        3,
        11,
        Some(ClientMutation::DuplicateStamp),
        false,
    );
    let report = run_cluster(&spec).expect("run");
    assert!(report.converged, "mutated run did not converge");
    let cv = report.client_verdict.as_ref().expect("client mode verdict");
    assert!(!cv.clean(), "mutation was not caught");
    assert!(
        cv.violations
            .iter()
            .any(|v| matches!(v, ClientViolation::DuplicateStamp { seq: 0, .. })),
        "expected DuplicateStamp(seq 0) among: {:?}",
        &cv.violations[..cv.violations.len().min(5)]
    );
    assert!(!report.clean(), "a red client verdict must dirty the run");
    // A reused stamp is a ghost generated twice: the running join leaves
    // it to the reference join, which reports it.
    assert!(report.ledger.reference, "{:?}", report.ledger);
    assert!(!report.verdict.clean(), "the SP join saw nothing");
}

/// `--topology line:5 --clients 50 --client-load closed:1:3 --seed 3
/// --faults 1 --partition 5:15`, with or without `--client-mutation
/// dup-stamp`, one process per shard as the CLI runs it.
fn line5_clients_in_processes(mutation: Option<ClientMutation>) -> ssmfp_cluster::RunReport {
    let dir = SocketDir::new("clients-test");
    let scenario = Scenario {
        topology: "line:5".into(),
        seed: 3,
        clients: Some(ClientSpec {
            clients: 50,
            load: parse_workload("closed:1:3").unwrap(),
            mutation,
        }),
        faults: 1,
        partition: Some((5, 15)),
        ..Scenario::default()
    };
    let mode = RunMode::Proc {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_ssmfp-cluster")),
    };
    let listen = dir.listen();
    let spec = scenario
        .spec(listen, None, mode, Duration::from_secs(120))
        .expect("a run");
    run_cluster(&spec).expect("run")
}

/// Client mode in process mode comes out clean: every worker read its
/// clients off its argv.
#[test]
fn line5_clients_in_processes_clean_per_client_verdict() {
    let report = line5_clients_in_processes(None);
    assert!(report.converged, "client run did not converge");
    let cv = report.client_verdict.as_ref().expect("client mode verdict");
    assert!(cv.clean(), "per-client violations: {:?}", cv.violations);
    assert!(report.clean(), "report not clean");
    assert_eq!((cv.clients, cv.stamped, cv.exactly_once), (50, 150, 150));
    assert_eq!(report.clients_completed, 150);
}

/// …and red with `DuplicateStamp` when every worker was told to reuse a
/// stamp.
#[test]
fn line5_dup_stamp_in_processes_turns_the_client_verdict_red() {
    let report = line5_clients_in_processes(Some(ClientMutation::DuplicateStamp));
    assert!(report.converged, "mutated run did not converge");
    let cv = report.client_verdict.as_ref().expect("client mode verdict");
    assert!(
        cv.violations
            .iter()
            .any(|v| matches!(v, ClientViolation::DuplicateStamp { .. })),
        "expected DuplicateStamp among: {:?}",
        &cv.violations[..cv.violations.len().min(5)]
    );
    assert!(!report.clean(), "a red client verdict must dirty the run");
}
