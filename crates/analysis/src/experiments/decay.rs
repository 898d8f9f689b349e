//! **E18** — drain dynamics of the invalid population (the transient the
//! paper's Proposition 4 bounds in aggregate).
//!
//! From the extremal all-buffers-full start, the invalid population can
//! only shrink (no rule creates invalid messages net of copies, and every
//! caterpillar eventually delivers or erases). We sample the population at
//! progress quartiles and report the half-life — how many rounds until
//! half the garbage is gone — giving the *shape* behind Prop 4's count.

use crate::report::Table;
use crate::workload::small_suite;
use ssmfp_core::{DaemonKind, Network, NetworkConfig};
use ssmfp_routing::CorruptionKind;

/// Time series of one drain run.
pub struct DecayRun {
    /// Population (occupied buffers) at progress 0, ¼, ½, ¾, 1 of the run.
    pub quartiles: [usize; 5],
    /// Rounds elapsed when the population first halved.
    pub half_life_rounds: u64,
    /// Rounds to full drain.
    pub total_rounds: u64,
    /// Invalid messages delivered in total.
    pub invalid_delivered: u64,
}

/// Runs one extremal drain, sampling the population per pump.
pub fn decay_run(graph: ssmfp_topology::Graph, seed: u64) -> DecayRun {
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
    let initial: usize = net.messages_in_flight();
    let mut series: Vec<(u64, usize)> = vec![(0, initial)];
    let mut half_life_rounds = 0;
    loop {
        if let ssmfp_kernel::StepOutcome::Terminal = net.pump() {
            break;
        }
        let pop: usize = net.messages_in_flight();
        series.push((net.rounds(), pop));
        if half_life_rounds == 0 && pop * 2 <= initial {
            half_life_rounds = net.rounds();
        }
        assert!(net.steps() < 50_000_000, "drain must terminate");
    }
    let total_rounds = net.rounds();
    let q = |frac: f64| -> usize {
        let idx = ((series.len() - 1) as f64 * frac) as usize;
        series[idx].1
    };
    DecayRun {
        quartiles: [q(0.0), q(0.25), q(0.5), q(0.75), q(1.0)],
        half_life_rounds,
        total_rounds,
        invalid_delivered: net.ledger().invalid_delivered_count(),
    }
}

/// The E18 table.
pub fn run(seed: u64) -> Table {
    let mut table = Table::new(
        "E18 — invalid-population drain from the extremal start (occupied buffers at progress quartiles)",
        &["topology", "t=0", "t=¼", "t=½", "t=¾", "end", "half-life (rounds)", "total rounds", "invalid delivered"],
    );
    for t in small_suite() {
        let r = decay_run(t.graph.clone(), seed);
        table.row(vec![
            t.name.clone(),
            r.quartiles[0].to_string(),
            r.quartiles[1].to_string(),
            r.quartiles[2].to_string(),
            r.quartiles[3].to_string(),
            r.quartiles[4].to_string(),
            r.half_life_rounds.to_string(),
            r.total_rounds.to_string(),
            r.invalid_delivered.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_topology::gen;

    #[test]
    fn population_decays_across_quartiles() {
        let r = decay_run(gen::ring(6), 4);
        // R3 copies before R4/R5 erase, so the population may blip up by a
        // few between samples; the quartile trend must still be downward.
        for w in r.quartiles.windows(2) {
            assert!(w[0] + 4 >= w[1], "{:?}", r.quartiles);
        }
        assert_eq!(
            r.quartiles[0],
            2 * 6 * 6,
            "extremal start: all buffers full"
        );
        assert_eq!(r.quartiles[4], 0, "full drain");
        assert!(r.half_life_rounds > 0);
        assert!(r.half_life_rounds <= r.total_rounds);
    }

    #[test]
    fn sweep_rows_all_drain() {
        let table = run(9);
        for row in &table.rows {
            assert_eq!(row[5], "0", "end population must be zero: {row:?}");
        }
    }
}
