//! Property tests for the message-passing port: exactly-once delivery and
//! drainage across random topologies, schedules, corruption, and garbage.

use proptest::prelude::*;
use ssmfp_mp::{MpConfig, PortNetwork};
use ssmfp_topology::{gen, Graph};

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (3usize..7).prop_map(gen::ring),
        (2usize..7).prop_map(gen::line),
        (3usize..7).prop_map(gen::star),
        ((4usize..8), (0usize..4), any::<u64>())
            .prop_map(|(n, e, s)| gen::random_connected(n, e, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every generated message is delivered exactly once at its
    /// destination, whatever the schedule, topology, corruption, and
    /// garbage. A corrupted start runs the distance-vector layer from
    /// garbage estimates; every assertion names the case, since the
    /// runner does not shrink.
    #[test]
    fn port_exactly_once(
        graph in arb_graph(),
        seed in any::<u64>(),
        timeout_bias in 0.05f64..0.95,
        corrupt in any::<bool>(),
        wire_garbage in 0usize..16,
        buffer_garbage in 0usize..3,
        sends in proptest::collection::vec((any::<u16>(), any::<u16>(), 0u64..8), 1..8),
    ) {
        let n = graph.n();
        let sends: Vec<(usize, usize, u64)> = sends
            .iter()
            .map(|&(s, d, p)| (s as usize % n, d as usize % n, p))
            .collect();
        let case = format!(
            "edges {:?}, seed {seed}, timeout_bias {timeout_bias}, garbage dv {corrupt}, \
             wire {wire_garbage}, buffer {buffer_garbage}, sends (src, dst, payload) {sends:?}",
            graph.edges()
        );
        let config = MpConfig { seed, timeout_bias };
        let mut net = if corrupt {
            PortNetwork::new_dv(graph, config, true, wire_garbage, buffer_garbage)
        } else {
            PortNetwork::new(graph, config, wire_garbage, buffer_garbage)
        };
        let ghosts: Vec<_> = sends.iter().map(|&(s, d, p)| net.send(s, d, p)).collect();
        prop_assert!(net.run_to_quiescence(10_000_000), "port must drain: {}", case);
        for g in &ghosts {
            prop_assert_eq!(net.deliveries_of(*g), 1, "{:?}: {}", g, case);
            prop_assert!(net.delivered_at_destination(*g), "{:?}: {}", g, case);
        }
        let audit = net.audit();
        prop_assert_eq!(audit.lost(), 0, "{:?}: {}", audit, case);
        prop_assert_eq!(audit.duplicated(), 0, "{:?}: {}", audit, case);
    }

    /// Self-sends work in the port too.
    #[test]
    fn port_self_send(n in 2usize..6, seed in any::<u64>()) {
        let mut net = PortNetwork::new(gen::line(n), MpConfig { seed, timeout_bias: 0.3 }, 0, 0);
        let g = net.send(1 % n, 1 % n, 5);
        prop_assert!(net.run_to_quiescence(500_000));
        prop_assert_eq!(net.deliveries_of(g), 1);
    }
}
