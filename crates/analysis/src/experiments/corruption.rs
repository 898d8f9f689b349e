//! **E10** — the paper's motivation, quantified: when the initial
//! configuration is corrupted, the fault-free baseline loses and/or
//! duplicates valid messages while SSMFP delivers every one of them exactly
//! once.
//!
//! Both protocols run the same workload from equally corrupted starts
//! across a seed sweep, on the state model's one [`Network`], and one
//! judge reads both: each run's [`Network::audit`] verdict gives the
//! per-protocol totals of exactly-once, lost, duplicated and undelivered
//! valid messages. SSMFP's runs must also pass [`Network::check_sp`].

use crate::report::Table;
use ssmfp_core::baseline::BaselineNetwork;
use ssmfp_core::state::HigherLayer;
use ssmfp_core::{ClusterVerdict, DaemonKind, Event, Network, NetworkConfig};
use ssmfp_kernel::Protocol;
use ssmfp_routing::CorruptionKind;
use ssmfp_topology::gen;

/// Aggregated tallies across a seed sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct CorruptionTally {
    /// Messages sent in total.
    pub sent: u64,
    /// Delivered exactly once.
    pub exactly_once: u64,
    /// Lost (gone without delivery).
    pub lost: u64,
    /// Delivered more than once.
    pub duplicated: u64,
    /// Still undelivered at the step budget (in-flight or stuck).
    pub undelivered: u64,
}

impl CorruptionTally {
    /// Adds one run: `sent` messages handed to the higher layer and the
    /// run's exactly-once verdict. A message not yet generated is
    /// undelivered, like one still in flight.
    fn add(&mut self, sent: u64, verdict: &ClusterVerdict) {
        self.sent += sent;
        self.exactly_once += verdict.exactly_once;
        self.lost += verdict.lost();
        self.duplicated += verdict.duplicated();
        self.undelivered += verdict.in_flight + (sent - verdict.generated);
    }
}

/// Hands `sends` to `net`, runs it to quiescence (or the step budget) and
/// returns its verdict.
fn drain<P: Protocol<Event = Event, State: HigherLayer>>(
    net: &mut Network<P>,
    sends: &[(usize, usize, u64)],
) -> ClusterVerdict {
    for &(s, d, p) in sends {
        net.send(s, d, p);
    }
    net.run_to_quiescence(500_000);
    net.audit()
}

/// Runs the sweep for one protocol.
pub fn sweep(seeds: std::ops::Range<u64>, baseline: bool) -> CorruptionTally {
    let mut tally = CorruptionTally::default();
    for seed in seeds {
        let graph = gen::ring(8);
        let n = graph.n();
        let sends: Vec<(usize, usize, u64)> = (0..n)
            .flat_map(|s| (0..2).map(move |k| (s, (s + 3 + k) % n, ((s + k) % 8) as u64)))
            .collect();
        let daemon = DaemonKind::CentralRandom { seed };
        let verdict = if baseline {
            let mut net =
                BaselineNetwork::baseline(graph, daemon, CorruptionKind::AntiDistance, 0.5, seed);
            drain(&mut net, &sends)
        } else {
            let config = NetworkConfig::adversarial(seed)
                .with_daemon(daemon)
                .with_corruption(CorruptionKind::AntiDistance);
            let mut net = Network::new(graph, config);
            let verdict = drain(&mut net, &sends);
            let violations = net.check_sp();
            assert!(
                violations.is_empty(),
                "SSMFP violated SP under seed {seed}: {violations:?}"
            );
            verdict
        };
        tally.add(sends.len() as u64, &verdict);
    }
    tally
}

/// The E10 comparison table.
pub fn run(seed: u64) -> Table {
    let seeds = seed..seed + 20;
    let ssmfp = sweep(seeds.clone(), false);
    let baseline = sweep(seeds, true);
    let mut table = Table::new(
        "E10 — corrupted starts (anti-distance tables + 50% garbage, ring-8, 20 seeds): exactly-once or broken",
        &["protocol", "sent", "exactly-once", "lost", "duplicated", "undelivered"],
    );
    for (name, t) in [("SSMFP", ssmfp), ("baseline [21]", baseline)] {
        table.row(vec![
            name.to_string(),
            t.sent.to_string(),
            t.exactly_once.to_string(),
            t.lost.to_string(),
            t.duplicated.to_string(),
            t.undelivered.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssmfp_is_perfect_baseline_is_not() {
        let ssmfp = sweep(0..10, false);
        assert_eq!(ssmfp.exactly_once, ssmfp.sent, "SSMFP must be exactly-once");
        assert_eq!(ssmfp.lost + ssmfp.duplicated + ssmfp.undelivered, 0);

        let baseline = sweep(0..10, true);
        assert!(
            baseline.lost + baseline.duplicated + baseline.undelivered > 0,
            "baseline should break somewhere across 10 corrupted seeds: {baseline:?}"
        );
    }
}
