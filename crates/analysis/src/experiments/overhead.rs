//! **E9** — §4's claim: *"our analysis shows that we ensure
//! snap-stabilization without significant over cost in space or in time
//! with respect to the fault-free algorithm."*
//!
//! Head-to-head with correct tables and clean buffers: the same all-pairs
//! workload on SSMFP and on the fault-free baseline \[21\]. Space over-cost
//! is structural (2n vs n buffers per node — a factor 2); time over-cost is
//! measured as rounds per delivery and moves per delivery.

use crate::report::Table;
use crate::workload::small_suite;
use ssmfp_core::baseline::BaselineNetwork;
use ssmfp_core::{DaemonKind, Network, NetworkConfig};
use ssmfp_routing::CorruptionKind;

/// Paired measurement on one topology.
pub struct OverheadRun {
    /// SSMFP rounds per delivery.
    pub ssmfp_rounds_per_delivery: f64,
    /// Baseline rounds per delivery.
    pub baseline_rounds_per_delivery: f64,
    /// SSMFP buffer moves (R2 + R3) per delivery.
    pub ssmfp_moves_per_delivery: f64,
    /// Baseline buffer moves (pulls) per delivery.
    pub baseline_moves_per_delivery: f64,
}

/// Runs the same all-pairs workload on both protocols.
pub fn paired_run(graph: &ssmfp_topology::Graph, seed: u64) -> OverheadRun {
    let n = graph.n();
    // SSMFP.
    let mut net = Network::new(
        graph.clone(),
        NetworkConfig::clean().with_daemon(DaemonKind::CentralRandom { seed }),
    );
    for s in 0..n {
        for d in 0..n {
            if s != d {
                net.send(s, d, ((s + d) % 8) as u64);
            }
        }
    }
    assert!(net.run_to_quiescence(100_000_000), "SSMFP must drain");
    let delivered = net.ledger().valid_delivered_count().max(1);
    let ssmfp_rounds_per_delivery = net.rounds() as f64 / delivered as f64;
    let ssmfp_moves_per_delivery =
        (net.ledger().forwards + net.ledger().internal_moves) as f64 / delivered as f64;

    // Baseline.
    let mut bl = BaselineNetwork::baseline(
        graph.clone(),
        DaemonKind::CentralRandom { seed },
        CorruptionKind::None,
        0.0,
        seed,
    );
    for s in 0..n {
        for d in 0..n {
            if s != d {
                bl.send(s, d, ((s + d) % 8) as u64);
            }
        }
    }
    assert!(bl.run_to_quiescence(100_000_000), "baseline must drain");
    let bl_delivered = bl.ledger().valid_delivered_count().max(1);
    OverheadRun {
        ssmfp_rounds_per_delivery,
        baseline_rounds_per_delivery: bl.rounds() as f64 / bl_delivered as f64,
        ssmfp_moves_per_delivery,
        baseline_moves_per_delivery: bl.ledger().forwards as f64 / bl_delivered as f64,
    }
}

/// Sweeps the small suite.
pub fn run(seed: u64) -> Table {
    let mut table = Table::new(
        "E9 — overhead vs fault-free baseline [21], correct tables (all-pairs workload)",
        &[
            "topology",
            "n",
            "ssmfp rnd/del",
            "base rnd/del",
            "time ratio",
            "ssmfp mv/del",
            "base mv/del",
            "ssmfp buf/node",
            "base buf/node",
        ],
    );
    for t in small_suite() {
        let r = paired_run(&t.graph, seed);
        let n = t.metrics.n();
        table.row(vec![
            t.name.clone(),
            n.to_string(),
            format!("{:.2}", r.ssmfp_rounds_per_delivery),
            format!("{:.2}", r.baseline_rounds_per_delivery),
            format!(
                "{:.2}",
                r.ssmfp_rounds_per_delivery / r.baseline_rounds_per_delivery.max(0.01)
            ),
            format!("{:.2}", r.ssmfp_moves_per_delivery),
            format!("{:.2}", r.baseline_moves_per_delivery),
            (2 * n).to_string(),
            n.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_topology::gen;

    #[test]
    fn overhead_is_bounded_constant() {
        // "No significant over-cost": SSMFP should be within a small
        // constant factor of the baseline in time.
        let r = paired_run(&gen::ring(6), 2);
        let ratio = r.ssmfp_rounds_per_delivery / r.baseline_rounds_per_delivery.max(0.01);
        assert!(
            ratio < 6.0,
            "time over-cost {ratio:.2}× exceeds 'no significant over-cost'"
        );
        assert!(r.ssmfp_rounds_per_delivery > 0.0);
    }

    #[test]
    fn sweep_produces_all_rows() {
        let table = run(1);
        assert_eq!(table.rows.len(), crate::workload::small_suite().len());
        for row in &table.rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio < 8.0, "excessive over-cost: {row:?}");
        }
    }
}
