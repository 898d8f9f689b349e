//! The flagship end-to-end property: **snap-stabilization** (Proposition 3).
//!
//! From *any* initial configuration — any corruption family, any garbage
//! fill, any fair daemon, any topology in the suite — every valid message
//! is delivered once and only once, invalid deliveries respect the 2n
//! bound, and the network drains.

use proptest::prelude::*;
use ssmfp::core::{DaemonKind, GhostId, Network, NetworkConfig, SeededBug, SpViolation};
use ssmfp::routing::CorruptionKind;
use ssmfp::topology::{gen, Graph};

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (3usize..9).prop_map(gen::ring),
        (2usize..9).prop_map(gen::line),
        (3usize..9).prop_map(gen::star),
        (4usize..10).prop_map(|n| gen::kary_tree(n, 2)),
        ((4usize..10), (0usize..6), any::<u64>())
            .prop_map(|(n, extra, seed)| gen::random_connected(n, extra, seed)),
    ]
}

fn arb_corruption() -> impl Strategy<Value = CorruptionKind> {
    prop_oneof![
        Just(CorruptionKind::None),
        Just(CorruptionKind::RandomGarbage),
        Just(CorruptionKind::ParentCycles),
        Just(CorruptionKind::AntiDistance),
        Just(CorruptionKind::AllZero),
    ]
}

fn arb_daemon() -> impl Strategy<Value = DaemonKind> {
    prop_oneof![
        Just(DaemonKind::Synchronous),
        Just(DaemonKind::RoundRobin),
        any::<u64>().prop_map(|seed| DaemonKind::CentralRandom { seed }),
        any::<u64>().prop_map(|seed| DaemonKind::DistributedRandom { seed, p_move: 0.5 }),
        any::<u64>().prop_map(|seed| DaemonKind::LocallyCentral { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// SP holds from any configuration under any fair daemon.
    #[test]
    fn sp_holds_from_any_configuration(
        graph in arb_graph(),
        corruption in arb_corruption(),
        daemon in arb_daemon(),
        garbage in 0.0f64..1.0,
        seed in any::<u64>(),
        sends in proptest::collection::vec((any::<u16>(), any::<u16>(), 0u64..8), 1..12),
    ) {
        let n = graph.n();
        let config = NetworkConfig {
            daemon,
            corruption,
            garbage_fill: garbage,
            seed,
            routing_priority: true,
            choice_strategy: Default::default(),
            seeded_bug: None,
        };
        let mut net = Network::new(graph, config);
        let ghosts: Vec<_> = sends
            .iter()
            .map(|&(s, d, p)| net.send(s as usize % n, d as usize % n, p))
            .collect();
        let drained = net.run_to_quiescence(40_000_000);
        prop_assert!(drained, "network failed to drain");
        for g in &ghosts {
            prop_assert_eq!(net.deliveries_of(*g), 1, "not exactly-once: {:?}", g);
        }
        let violations = net.check_sp();
        prop_assert!(violations.is_empty(), "SP violations: {violations:?}");
        // Proposition 4 bound per destination.
        for d in 0..n {
            prop_assert!(net.ledger().invalid_delivered_at(d) <= 2 * n as u64);
        }
    }

    /// Generation is always possible in finite time (SP's first property):
    /// even with every buffer pre-filled, each requested message is
    /// eventually generated.
    #[test]
    fn generation_in_finite_time_under_full_garbage(
        n in 3usize..8,
        seed in any::<u64>(),
    ) {
        let graph = gen::ring(n);
        let config = NetworkConfig {
            daemon: DaemonKind::CentralRandom { seed },
            corruption: CorruptionKind::RandomGarbage,
            garbage_fill: 1.0,
            seed,
            routing_priority: true,
            choice_strategy: Default::default(),
            seeded_bug: None,
        };
        let mut net = Network::new(graph, config);
        let ghosts: Vec<_> = (0..n).map(|s| net.send(s, (s + 1) % n, s as u64 % 8)).collect();
        net.run_to_quiescence(40_000_000);
        for g in &ghosts {
            prop_assert!(
                net.ledger().generation_of(*g).is_some(),
                "message never generated: {g:?}"
            );
            prop_assert_eq!(net.deliveries_of(*g), 1);
        }
    }
}

/// Determinism: identical config + seed ⇒ identical execution.
#[test]
fn runs_are_reproducible() {
    let run = || {
        let mut net = Network::new(gen::grid(3, 3), NetworkConfig::adversarial(77));
        let mut ghosts = Vec::new();
        for s in 0..9 {
            ghosts.push(net.send(s, (s + 4) % 9, s as u64));
        }
        net.run_to_quiescence(10_000_000);
        (
            net.steps(),
            net.rounds(),
            net.ledger().invalid_delivered_count(),
            ghosts
                .iter()
                .map(|g| net.deliveries_of(*g))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// Determinism of the verdict: a run with violations reports them as the
/// same list every time, in ghost order, so a red run's report can be
/// compared with its replay entry by entry.
#[test]
fn violations_come_out_in_ghost_order() {
    let run = || {
        let config = NetworkConfig::adversarial(0).with_seeded_bug(SeededBug::ColorReuse);
        let mut net = Network::new(gen::ring(8), config);
        for k in 0..32 {
            net.send(k % 8, (k % 8 + 1 + k / 8) % 8, (k % 2) as u64);
        }
        net.run_to_quiescence(2_000_000);
        net.check_sp()
    };
    let first = run();
    assert!(first.len() >= 2, "{first:?}");
    assert_eq!(first, run());
    let ghosts: Vec<GhostId> = first
        .iter()
        .map(|v| match *v {
            SpViolation::Lost { ghost }
            | SpViolation::DuplicateDelivery { ghost, .. }
            | SpViolation::Misdelivered { ghost, .. } => ghost,
            SpViolation::InvalidOverBound { .. } => panic!("no invalid census here: {v:?}"),
        })
        .collect();
    assert!(ghosts.is_sorted(), "{first:?}");
}

/// The unfair daemon may stall liveness but can never break safety.
#[test]
fn unfair_daemon_preserves_safety() {
    for seed in 0..6 {
        let config = NetworkConfig {
            daemon: DaemonKind::Adversarial {
                seed,
                victims: vec![0],
            },
            corruption: CorruptionKind::RandomGarbage,
            garbage_fill: 0.5,
            seed,
            routing_priority: true,
            choice_strategy: Default::default(),
            seeded_bug: None,
        };
        let mut net = Network::new(gen::ring(6), config);
        let mut ghosts = Vec::new();
        for s in 1..6 {
            ghosts.push(net.send(s, 0, s as u64)); // all toward the victim
        }
        net.run_to_quiescence(300_000);
        // Whatever was (or wasn't) delivered: no duplicates, no losses.
        let violations = net.check_sp();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        for g in &ghosts {
            assert!(net.deliveries_of(*g) <= 1, "duplicate under unfair daemon");
        }
    }
}
