//! **E14** — the §4 closing open problem, explored: the message-passing
//! port of SSMFP (see `ssmfp-mp`). The table reports, per scenario class
//! and across a seed sweep, whether every generated message was delivered
//! exactly once and whether the system drained — the empirical analogue of
//! Specification SP for the ported protocol.

use crate::report::Table;
use ssmfp_mp::{MpConfig, PortNetwork};
use ssmfp_topology::gen;

/// Tally of one scenario class over a seed sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct PortTally {
    /// Seeds swept.
    pub runs: u64,
    /// Valid messages sent in total.
    pub sent: u64,
    /// Delivered exactly once at the right node.
    pub exactly_once: u64,
    /// Lost.
    pub lost: u64,
    /// Duplicated.
    pub duplicated: u64,
    /// Runs that failed to drain in budget.
    pub non_quiescent: u64,
}

/// Routing layer used by the port sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRouting {
    /// Correct static tables.
    Clean,
    /// The message-passing distance-vector layer, from garbage estimates.
    DistVecGarbage,
}

/// Runs one scenario class over `seeds`.
pub fn sweep(
    seeds: std::ops::Range<u64>,
    routing: PortRouting,
    wire_garbage: usize,
    buffer_garbage: usize,
) -> PortTally {
    let mut tally = PortTally::default();
    for seed in seeds {
        let graph = gen::ring(6);
        let n = graph.n();
        let config = MpConfig {
            seed,
            timeout_bias: 0.3,
        };
        let mut net = match routing {
            PortRouting::Clean => PortNetwork::new(graph, config, wire_garbage, buffer_garbage),
            PortRouting::DistVecGarbage => {
                PortNetwork::new_dv(graph, config, true, wire_garbage, buffer_garbage)
            }
        };
        let mut count = 0u64;
        for s in 0..n {
            net.send(s, (s + 2) % n, s as u64 % 8);
            count += 1;
        }
        let quiescent = net.run_to_quiescence(10_000_000);
        let audit = net.audit();
        tally.runs += 1;
        tally.sent += count;
        tally.exactly_once += audit.exactly_once;
        tally.lost += audit.lost();
        tally.duplicated += audit.duplicated();
        if !quiescent {
            tally.non_quiescent += 1;
        }
    }
    tally
}

/// The E14 table.
pub fn run(seed: u64) -> Table {
    let mut table = Table::new(
        "E14 — message-passing port (ring-6, 10 seeds/class): exactly-once under async schedules",
        &[
            "scenario",
            "runs",
            "sent",
            "exactly-once",
            "lost",
            "duplicated",
            "non-quiescent",
        ],
    );
    let scenarios: [(&str, PortRouting, usize, usize); 4] = [
        ("clean", PortRouting::Clean, 0, 0),
        ("DV from garbage", PortRouting::DistVecGarbage, 0, 0),
        (
            "DV from garbage + 24 wire / 3 buffer",
            PortRouting::DistVecGarbage,
            24,
            3,
        ),
        (
            "DV from garbage + 12 wire / 2 buffer",
            PortRouting::DistVecGarbage,
            12,
            2,
        ),
    ];
    for (name, routing, wire, buffers) in scenarios {
        let t = sweep(seed..seed + 10, routing, wire, buffers);
        table.row(vec![
            name.to_string(),
            t.runs.to_string(),
            t.sent.to_string(),
            t.exactly_once.to_string(),
            t.lost.to_string(),
            t.duplicated.to_string(),
            t.non_quiescent.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_is_exactly_once_across_sweeps() {
        for (routing, wire, buffers) in [
            (PortRouting::Clean, 0, 0),
            (PortRouting::DistVecGarbage, 16, 2),
            (PortRouting::DistVecGarbage, 8, 1),
        ] {
            let t = sweep(0..6, routing, wire, buffers);
            assert_eq!(
                t.exactly_once, t.sent,
                "{routing:?} {wire} {buffers}: {t:?}"
            );
            assert_eq!(t.lost + t.duplicated + t.non_quiescent, 0, "{t:?}");
        }
    }
}
