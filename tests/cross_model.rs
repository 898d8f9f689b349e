//! Cross-model comparison: the state-model SSMFP and its message-passing
//! port run the same workloads; both must deliver exactly once, and their
//! relative costs characterize what the model switch buys and costs.

use ssmfp::core::{DaemonKind, Network, NetworkConfig};
use ssmfp::mp::{MpConfig, PortNetwork};
use ssmfp::topology::gen;

/// Same all-pairs workload on both models, clean start: both exactly-once.
#[test]
fn both_models_exactly_once_clean() {
    let graph = gen::ring(5);
    let n = graph.n();

    // State model.
    let mut sm = Network::new(
        graph.clone(),
        NetworkConfig::clean().with_daemon(DaemonKind::CentralRandom { seed: 4 }),
    );
    let mut sm_ghosts = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                sm_ghosts.push(sm.send(s, d, ((s + d) % 8) as u64));
            }
        }
    }
    assert!(sm.run_to_quiescence(10_000_000));
    for g in &sm_ghosts {
        assert_eq!(sm.deliveries_of(*g), 1);
    }
    assert!(sm.check_sp().is_empty());

    // Message-passing port.
    let mut mp = PortNetwork::new(
        graph,
        MpConfig {
            seed: 4,
            timeout_bias: 0.3,
        },
        0,
        0,
    );
    let mut mp_ghosts = Vec::new();
    for s in 0..n {
        for d in 0..n {
            if s != d {
                mp_ghosts.push(mp.send(s, d, ((s + d) % 8) as u64));
            }
        }
    }
    assert!(mp.run_to_quiescence(10_000_000));
    for g in &mp_ghosts {
        assert_eq!(mp.deliveries_of(*g), 1);
    }
}

/// Same workload from corrupted starts — the port's distance-vector layer
/// from garbage estimates, with wire and buffer garbage: both models survive.
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
        let mut sm_ghosts = Vec::new();
        let mut mp_ghosts = Vec::new();
        for s in 0..n {
            sm_ghosts.push(sm.send(s, (s + 3) % n, s as u64 % 8));
            mp_ghosts.push(mp.send(s, (s + 3) % n, s as u64 % 8));
        }
        assert!(sm.run_to_quiescence(20_000_000), "seed {seed}");
        assert!(mp.run_to_quiescence(20_000_000), "seed {seed}");
        for g in &sm_ghosts {
            assert_eq!(sm.deliveries_of(*g), 1, "state model, seed {seed}");
        }
        for g in &mp_ghosts {
            assert_eq!(mp.deliveries_of(*g), 1, "mp port, seed {seed}");
        }
        assert!(sm.check_sp().is_empty());
        let audit = mp.audit();
        assert_eq!(
            audit.lost() + audit.duplicated(),
            0,
            "seed {seed}: {audit:?}"
        );
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
