//! Cross-model comparison: the state-model SSMFP and its message-passing
//! port run the same workloads, and one join — `reconcile_ledgers`, behind
//! both `Network::audit` and `PortNetwork::audit` — judges both: the same
//! messages generated, every one delivered exactly once. Their relative
//! costs characterize what the model switch buys and costs.

use ssmfp::core::{ClusterVerdict, DaemonKind, Network, NetworkConfig};
use ssmfp::mp::{MpConfig, PortNetwork};
use ssmfp::topology::gen;

/// The two models' verdicts on one workload of `sent` messages: both
/// clean, nothing in flight, and the same count generated and delivered
/// exactly once.
fn assert_same_verdict(sm: &ClusterVerdict, mp: &ClusterVerdict, sent: u64, what: &str) {
    assert!(sm.clean() && mp.clean(), "{what}: {sm:?} / {mp:?}");
    assert_eq!((sm.in_flight, mp.in_flight), (0, 0), "{what}");
    assert_eq!((sm.generated, sm.exactly_once), (sent, sent), "{what}");
    assert_eq!(
        (mp.generated, mp.exactly_once),
        (sm.generated, sm.exactly_once),
        "{what}"
    );
}

/// Same all-pairs workload on both models, clean start: one join, one
/// verdict.
#[test]
fn both_models_exactly_once_clean() {
    let graph = gen::ring(5);
    let n = graph.n();
    let mut sm = Network::new(
        graph.clone(),
        NetworkConfig::clean().with_daemon(DaemonKind::CentralRandom { seed: 4 }),
    );
    let mut mp = PortNetwork::new(
        graph,
        MpConfig {
            seed: 4,
            timeout_bias: 0.3,
        },
        0,
        0,
    );
    let mut sent = 0;
    for s in 0..n {
        for d in 0..n {
            if s != d {
                sm.send(s, d, ((s + d) % 8) as u64);
                mp.send(s, d, ((s + d) % 8) as u64);
                sent += 1;
            }
        }
    }
    assert!(sm.run_to_quiescence(10_000_000));
    assert!(mp.run_to_quiescence(10_000_000));
    assert!(sm.check_sp().is_empty());
    assert_same_verdict(&sm.audit(), &mp.audit(), sent, "clean start");
}

/// Same workload from corrupted starts — the port's distance-vector layer
/// from garbage estimates, with wire and buffer garbage: both models
/// survive, and the join judges them alike.
#[test]
fn both_models_survive_corruption() {
    for seed in 0..4 {
        let graph = gen::grid(2, 3);
        let n = graph.n();

        let mut sm = Network::new(graph.clone(), NetworkConfig::adversarial(seed));
        let mut mp = PortNetwork::new_dv(
            graph,
            MpConfig {
                seed,
                timeout_bias: 0.3,
            },
            true,
            16,
            2,
        );
        for s in 0..n {
            sm.send(s, (s + 3) % n, s as u64 % 8);
            mp.send(s, (s + 3) % n, s as u64 % 8);
        }
        assert!(sm.run_to_quiescence(20_000_000), "seed {seed}");
        assert!(mp.run_to_quiescence(20_000_000), "seed {seed}");
        // Proposition 4's bound sits beside the join.
        assert!(sm.check_sp().is_empty(), "seed {seed}");
        assert_same_verdict(&sm.audit(), &mp.audit(), n as u64, &format!("seed {seed}"));
    }
}

/// The port's wire cost: each hop needs Offer+Accept+Confirm (+ possible
/// retransmissions), so delivered wire messages are at least 3× the
/// state-model's per-hop moves for the same route. Sanity-check the
/// overhead is real but bounded.
#[test]
fn port_wire_overhead_is_bounded() {
    let graph = gen::line(5);
    let mut mp = PortNetwork::new(
        graph,
        MpConfig {
            seed: 8,
            timeout_bias: 0.3,
        },
        0,
        0,
    );
    let g = mp.send(0, 4, 1);
    assert!(mp.run_to_quiescence(1_000_000));
    assert_eq!(mp.deliveries_of(g), 1);
    let wire = mp.net().delivered_msgs();
    // 4 hops × 3 handshake messages = 12 minimum; retransmissions add
    // more but the total must stay within a small multiple.
    assert!(wire >= 12, "wire messages {wire} below handshake minimum");
    assert!(wire <= 600, "wire messages {wire} unreasonably high");
}
