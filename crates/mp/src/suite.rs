//! Transport-generic exactly-once conformance suite.
//!
//! The satellite requirement: the in-process channel transport and the
//! cluster crate's socket transport must be property-tested against the
//! *same* suite instead of diverging copies. Each check here is generic
//! over a transport factory `FnMut(&Graph) -> T`; `crates/mp`'s own tests
//! instantiate it with [`crate::net::ChannelTransport`], and `crates/cluster`
//! runs the identical checks over its `PolledTransport` — the shipped
//! `evloop::Hub`: real sockets, `Route` multiplexing of several links on one
//! stream, in-memory links inside a group, a stream cut and redialled.

use crate::net::{ChannelFaults, MpConfig, Transport};
use crate::port::WireMsg;
use crate::port_network::PortNetwork;
use ssmfp_topology::{gen, Graph};

/// Outcome of one suite run, for reporting in callers' test output.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SuiteOutcome {
    /// Messages sent by the suite.
    pub sent: u64,
    /// Messages delivered exactly once at their destination.
    pub exactly_once: u64,
    /// Seeds exercised.
    pub seeds: u64,
}

impl SuiteOutcome {
    /// True iff every sent message was delivered exactly once.
    pub fn clean(&self) -> bool {
        self.sent == self.exactly_once
    }
}

fn topologies() -> Vec<Graph> {
    vec![gen::line(4), gen::ring(5), gen::caterpillar(3, 2)]
}

fn drive<T: Transport<WireMsg>>(
    net: &mut PortNetwork<T>,
    sends: &[(usize, usize, u64)],
    budget: u64,
    outcome: &mut SuiteOutcome,
) {
    for &(s, d, p) in sends {
        net.send(s, d, p);
    }
    assert!(
        net.run_to_quiescence(budget),
        "transport suite: network failed to quiesce within {budget} steps"
    );
    // One join, the cluster's: exactly once means once, at the destination.
    let verdict = net.audit();
    assert!(
        verdict.clean() && verdict.exactly_once == verdict.generated,
        "transport suite: not exactly once: {verdict:?}"
    );
    outcome.sent += sends.len() as u64;
    outcome.exactly_once += verdict.exactly_once;
}

/// Clean-network exactly-once: several topologies, several seeds, no
/// faults. Every message must be delivered exactly once at its
/// destination and the network must drain.
pub fn exactly_once_clean<T, F>(mut make: F, seeds: std::ops::Range<u64>) -> SuiteOutcome
where
    T: Transport<WireMsg>,
    F: FnMut(&Graph) -> T,
{
    let mut outcome = SuiteOutcome::default();
    for seed in seeds {
        outcome.seeds += 1;
        for graph in topologies() {
            let n = graph.n();
            let config = MpConfig {
                seed,
                timeout_bias: 0.3,
            };
            let transport = make(&graph);
            let mut net = PortNetwork::with_transport(graph, config, transport);
            let sends: Vec<(usize, usize, u64)> = (0..n)
                .map(|s| (s, (s + n - 1) % n, seed.wrapping_add(s as u64)))
                .collect();
            drive(&mut net, &sends, 400_000, &mut outcome);
        }
    }
    outcome
}

/// Exactly-once under transient link faults: drop/duplicate/reorder
/// budgets are armed on the transport, and *every* message — including
/// those sent while faults were live — must still be delivered exactly
/// once. This is the loss-tolerance property the hardened handshake
/// (re-`Confirm` cache + promoted-handshake memory) provides.
pub fn exactly_once_under_faults<T, F>(mut make: F, seeds: std::ops::Range<u64>) -> SuiteOutcome
where
    T: Transport<WireMsg>,
    F: FnMut(&Graph) -> T,
{
    let mut outcome = SuiteOutcome::default();
    for seed in seeds {
        outcome.seeds += 1;
        for graph in topologies() {
            let n = graph.n();
            let config = MpConfig {
                seed,
                timeout_bias: 0.3,
            };
            let transport = make(&graph);
            let mut net = PortNetwork::with_transport(graph, config, transport);
            net.set_channel_faults(ChannelFaults::budget(seed ^ 0x5EED, 3));
            let sends: Vec<(usize, usize, u64)> = (0..n)
                .map(|s| (s, (s + 1) % n, seed.wrapping_mul(31).wrapping_add(s as u64)))
                .collect();
            drive(&mut net, &sends, 800_000, &mut outcome);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ChannelTransport;

    #[test]
    fn channel_transport_exactly_once_clean() {
        let outcome = exactly_once_clean(ChannelTransport::new, 0..6);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    #[test]
    fn channel_transport_exactly_once_under_faults() {
        let outcome = exactly_once_under_faults(ChannelTransport::new, 0..12);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }
}
