//! Socket-level chaos shim: the simulator's link-fault semantics applied
//! to real inbound socket traffic.
//!
//! Every inbound link gets a queue drained through the *same*
//! [`FaultClerk`] decision procedure the in-process channels use —
//! drop/duplicate/reorder under transient budgets — plus an
//! arrival-indexed partition window (both directions of one edge drop
//! every data-plane frame inside the window, then heal). Supervision
//! frames (`Heartbeat`/`Route`) bypass chaos entirely — the group's
//! reader consumes them before the demultiplexed frames reach a link's
//! shim: the shim tests the protocol, not the connection supervisor.

use ssmfp_core::wire::WireFrame;
use ssmfp_mp::{ChannelFaults, FaultClerk};
use ssmfp_topology::NodeId;
use std::collections::VecDeque;

/// Chaos configuration for one cluster run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// Seed deriving every per-link clerk (and the partition edge choice
    /// when callers use [`crate::orchestrator::pick_partition`]).
    pub seed: u64,
    /// Per-inbound-link budget for each fault kind (0 = no chaos).
    pub faults_per_link: u32,
    /// One partition/heal cycle: the edge and its arrival window.
    pub partition: Option<PartitionSpec>,
}

impl ChaosSpec {
    /// No chaos at all.
    pub fn none() -> Self {
        ChaosSpec {
            seed: 0,
            faults_per_link: 0,
            partition: None,
        }
    }
}

/// A partition of edge `{a, b}`: on both directed links, data-plane
/// arrivals with index in `[from_arrival, from_arrival + len)` are
/// dropped, then the edge heals for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First dropped arrival index (per direction).
    pub from_arrival: u64,
    /// Number of dropped arrivals (per direction).
    pub len: u64,
}

/// Chaos state for one inbound link (`from` → the owning node).
#[derive(Debug)]
pub struct InboundChaos {
    queue: VecDeque<WireFrame>,
    clerk: Option<FaultClerk>,
    /// Data-plane arrivals so far (indexes the partition window).
    arrivals: u64,
    window: Option<(u64, u64)>,
    partition_dropped: u64,
}

impl InboundChaos {
    /// Chaos for the link `from → to` under `spec`. The clerk seed mixes
    /// the directed link identity so each link draws an independent but
    /// reproducible fault sequence.
    pub fn new(spec: &ChaosSpec, from: NodeId, to: NodeId) -> Self {
        let clerk = (spec.faults_per_link > 0).then(|| {
            let link_salt = (from as u64) << 32 | to as u64;
            FaultClerk::new(ChannelFaults::budget(
                spec.seed ^ link_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                spec.faults_per_link,
            ))
        });
        let window = spec.partition.and_then(|p| {
            let covers = (p.a == from && p.b == to) || (p.b == from && p.a == to);
            covers.then_some((p.from_arrival, p.from_arrival + p.len))
        });
        InboundChaos {
            queue: VecDeque::new(),
            clerk,
            arrivals: 0,
            window,
            partition_dropped: 0,
        }
    }

    /// Accepts one received frame. Supervision frames pass through
    /// outside the queue (the caller routes them separately), so only
    /// data-plane frames should be pushed here.
    pub fn push(&mut self, frame: WireFrame) {
        debug_assert!(frame.is_data_plane());
        let i = self.arrivals;
        self.arrivals += 1;
        if let Some((lo, hi)) = self.window {
            if i >= lo && i < hi {
                self.partition_dropped += 1;
                return;
            }
        }
        self.queue.push_back(frame);
    }

    /// Takes the next frame to deliver to the protocol, applying the
    /// clerk's faults. `None` when the queue is exhausted (dropped frames
    /// are consumed internally).
    pub fn poll(&mut self) -> Option<WireFrame> {
        while !self.queue.is_empty() {
            match &mut self.clerk {
                Some(clerk) => {
                    if let Some(f) = clerk.pull(&mut self.queue) {
                        return Some(f);
                    }
                    // Dropped: the opportunity is spent, try the next.
                }
                None => return self.queue.pop_front(),
            }
        }
        None
    }

    /// Frames queued but not yet delivered.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// `(dropped, duplicated, reordered)` by the clerk so far.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        self.clerk.as_ref().map_or((0, 0, 0), FaultClerk::counts)
    }

    /// Frames dropped by the partition window so far.
    pub fn partition_dropped(&self) -> u64 {
        self.partition_dropped
    }

    /// Whether every chaos budget (including the partition window) is
    /// spent, i.e. the link behaves reliably from now on.
    pub fn exhausted(&self) -> bool {
        let clerk_done = self.clerk.as_ref().is_none_or(FaultClerk::exhausted);
        let window_done = self.window.is_none_or(|(_, hi)| self.arrivals >= hi);
        clerk_done && window_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::wire::{ClientStamp, WireMessage};
    use ssmfp_core::GhostId;

    fn frame(k: u64) -> WireFrame {
        WireFrame::Offer {
            d: 0,
            msg: WireMessage {
                payload: k,
                color: 0,
                ghost: GhostId::Valid(k),
                stamp: ClientStamp::NONE,
            },
            nonce: k,
        }
    }

    #[test]
    fn no_chaos_is_fifo() {
        let mut c = InboundChaos::new(&ChaosSpec::none(), 0, 1);
        for k in 0..5 {
            c.push(frame(k));
        }
        for k in 0..5 {
            assert_eq!(c.poll(), Some(frame(k)));
        }
        assert_eq!(c.poll(), None);
        assert!(c.exhausted());
    }

    #[test]
    fn partition_window_drops_then_heals() {
        let spec = ChaosSpec {
            seed: 1,
            faults_per_link: 0,
            partition: Some(PartitionSpec {
                a: 0,
                b: 1,
                from_arrival: 2,
                len: 3,
            }),
        };
        let mut c = InboundChaos::new(&spec, 1, 0); // reverse direction also covered
        for k in 0..8 {
            c.push(frame(k));
        }
        let got: Vec<_> = std::iter::from_fn(|| c.poll()).collect();
        assert_eq!(got, vec![frame(0), frame(1), frame(5), frame(6), frame(7)]);
        assert_eq!(c.partition_dropped(), 3);
        assert!(c.exhausted());
    }

    #[test]
    fn partition_ignores_unrelated_links() {
        let spec = ChaosSpec {
            seed: 1,
            faults_per_link: 0,
            partition: Some(PartitionSpec {
                a: 0,
                b: 1,
                from_arrival: 0,
                len: 100,
            }),
        };
        let mut c = InboundChaos::new(&spec, 2, 3);
        c.push(frame(9));
        assert_eq!(c.poll(), Some(frame(9)));
        assert_eq!(c.partition_dropped(), 0);
    }

    #[test]
    fn clerk_budgets_are_finite_and_deterministic() {
        let spec = ChaosSpec {
            seed: 42,
            faults_per_link: 2,
            partition: None,
        };
        let run = || {
            let mut c = InboundChaos::new(&spec, 0, 1);
            // Push everything first so the queue has the depth reorders
            // need, then drain.
            for k in 0..50 {
                c.push(frame(k));
            }
            let out: Vec<_> = std::iter::from_fn(|| c.poll()).collect();
            (out, c.fault_counts(), c.exhausted())
        };
        let (a, counts_a, done_a) = run();
        let (b, counts_b, _) = run();
        assert_eq!(a, b, "same seed, same chaos decisions");
        assert_eq!(counts_a, counts_b);
        assert!(done_a, "budgets of 2 must be spent within 50 frames");
        let (d, u, _r) = counts_a;
        assert_eq!(a.len() as u64, 50 - d + u);
    }
}
