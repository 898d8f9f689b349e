//! The per-client join: the exactly-once and FIFO verdict of every
//! logical client, read off the same merged ledgers as the `SP` join.
//!
//! A client's identity is a [`ClientStamp`], `(client, seq)`, and it
//! rides inside the ghost, nowhere else: [`reconcile_clients`] takes the
//! caller's decoder from ghost to stamp, so this join stays agnostic of
//! how the upper layers pack identities into ghosts.

use super::{pos, take_run, NodeLedger};
use crate::message::GhostId;
use ssmfp_topology::NodeId;

/// The logical-client identity a message's ghost carries: which client
/// issued it and its per-client sequence number. Traffic with no client
/// attached (node-level workloads, acks, garbage) has no stamp: the
/// caller's decoder returns `None` for its ghost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientStamp {
    /// Cluster-wide logical client id.
    pub client: u64,
    /// The client's own sequence number for this message.
    pub seq: u32,
}

/// A violation of the per-client exactly-once/FIFO specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientViolation {
    /// A stamped message was generated, never delivered, held nowhere.
    Lost {
        /// The issuing client.
        client: u64,
        /// The client's sequence number.
        seq: u32,
    },
    /// A stamped message was delivered more than once.
    Duplicate {
        /// The issuing client.
        client: u64,
        /// The client's sequence number.
        seq: u32,
        /// Deliveries observed.
        count: u64,
    },
    /// The same `(client, seq)` stamp was generated more than once — a
    /// client-layer bug (two logical messages sharing one identity).
    DuplicateStamp {
        /// The issuing client.
        client: u64,
        /// The reused sequence number.
        seq: u32,
        /// Generations observed.
        count: u64,
    },
    /// A client's messages arrived out of order at a delivering node:
    /// `seq` was delivered after `prev_seq >= seq` had already landed.
    OutOfOrder {
        /// The delivering node.
        node: NodeId,
        /// The issuing client.
        client: u64,
        /// Highest sequence delivered there before this one.
        prev_seq: u32,
        /// The late sequence.
        seq: u32,
    },
}

/// The cluster-wide per-client verdict produced by
/// [`reconcile_clients`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientVerdict {
    /// Distinct logical clients that generated at least one message.
    pub clients: u64,
    /// Stamped generations scanned (duplicates included).
    pub stamped: u64,
    /// Distinct stamps delivered exactly once.
    pub exactly_once: u64,
    /// Distinct stamps undelivered but still held somewhere.
    pub in_flight: u64,
    /// Every per-client violation the join exposes.
    pub violations: Vec<ClientViolation>,
}

impl ClientVerdict {
    /// True iff every client saw exactly-once, in-order service.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Joins per-node ledger slices into the **per-client** verdict: for
/// every logical client, no stamp lost, no stamp delivered twice, no
/// stamp generated twice, and deliveries in increasing sequence order
/// at the delivering node (each node's `delivered` list is in delivery
/// order, so per-node order is observable directly). Violations come
/// out by stamp, with the [`ClientViolation::OutOfOrder`] entries
/// appended last in delivery order.
///
/// `decode` maps a ghost to its client stamp — `None` for ghosts that
/// carry no client identity (acks, node-level traffic, garbage), which
/// the per-client audit skips (the plain `SP` join still covers them).
/// Keeping the stamp convention in a closure keeps this join agnostic
/// of how upper layers pack identities into ghosts.
///
/// Cost is one visit per entry plus one sort per list: `decode` is
/// called exactly once per ledger entry (generated + delivered + held),
/// each list becomes integer keys sorted once, and one merge walk over
/// the generated stamps yields the verdict; a last sort groups the
/// deliveries per (node, client) for the FIFO check. The regression
/// test pins the call count. At most `u32::MAX` stamped deliveries.
pub fn reconcile_clients<F>(ledgers: &[NodeLedger], mut decode: F) -> ClientVerdict
where
    F: FnMut(GhostId) -> Option<ClientStamp>,
{
    // A stamp as a 96-bit integer ordered as `(client, seq)`.
    let stamp_key = |s: ClientStamp| (s.client as u128) << 32 | s.seq as u128;
    let mut verdict = ClientVerdict::default();
    // Phase 1: generations. Counted per stamp so duplicate stamps (two
    // logical messages sharing one identity) are caught even if the
    // protocol collapses them into one delivery.
    let mut gen: Vec<u128> = Vec::new();
    for l in ledgers {
        gen.extend(
            l.generated
                .iter()
                .filter_map(|&(g, _)| decode(g).map(stamp_key)),
        );
    }
    verdict.stamped = gen.len() as u64;
    // Phase 2: deliveries, each keyed by stamp over its position in
    // delivery order; `at[pos]` is its delivering node's rank among the
    // distinct node ids, and its sequence number.
    let mut nodes: Vec<NodeId> = ledgers.iter().map(|l| l.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut at: Vec<(u32, u32)> = Vec::new();
    let mut del: Vec<u128> = Vec::new();
    for l in ledgers {
        let rank = nodes.binary_search(&l.node).expect("every node listed") as u32;
        for &g in &l.delivered {
            if let Some(s) = decode(g) {
                let p = u32::try_from(at.len()).expect("fewer than 2^32 stamped deliveries");
                del.push(stamp_key(s) << 32 | p as u128);
                at.push((rank, s.seq));
            }
        }
    }
    // Phase 3: held stamps (legal in-flight at a non-quiescent stop).
    let mut held: Vec<u128> = Vec::new();
    for l in ledgers {
        held.extend(l.held.iter().filter_map(|&g| decode(g).map(stamp_key)));
    }
    gen.sort_unstable();
    del.sort_unstable();
    held.sort_unstable();
    verdict.clients = gen.chunk_by(|a, b| a >> 32 == b >> 32).count() as u64;

    // Phase 4: one verdict per distinct stamp. Stamps nobody generated
    // are skipped — the plain SP join already counts those deliveries as
    // invalid — and the others' deliveries go on to the FIFO check,
    // keyed (node rank, client, position).
    let mut fifo: Vec<u128> = Vec::with_capacity(del.len());
    let (mut d, mut h) = (0, 0);
    for run in gen.chunk_by(|a, b| a == b) {
        let (client, seq) = ((run[0] >> 32) as u64, run[0] as u32);
        if run.len() > 1 {
            verdict.violations.push(ClientViolation::DuplicateStamp {
                client,
                seq,
                count: run.len() as u64,
            });
        }
        let (_, got) = take_run(&del, &mut d, run[0], 32);
        for &k in got {
            let p = pos(k, 32);
            fifo.push((at[p].0 as u128) << 96 | (client as u128) << 32 | p as u128);
        }
        match got.len() {
            0 => {
                if take_run(&held, &mut h, run[0], 0).1.is_empty() {
                    verdict
                        .violations
                        .push(ClientViolation::Lost { client, seq });
                } else {
                    verdict.in_flight += 1;
                }
            }
            1 => verdict.exactly_once += 1,
            k => verdict.violations.push(ClientViolation::Duplicate {
                client,
                seq,
                count: k as u64,
            }),
        }
    }
    // FIFO per (delivering node, client): in delivery order, each
    // sequence must exceed the highest delivered there before it.
    fifo.sort_unstable();
    let mut late: Vec<(usize, ClientViolation)> = Vec::new();
    for run in fifo.chunk_by(|a, b| a >> 32 == b >> 32) {
        let mut highest = None;
        for &k in run {
            let p = pos(k, 32);
            let (rank, seq) = at[p];
            match highest {
                Some(prev_seq) if seq <= prev_seq => late.push((
                    p,
                    ClientViolation::OutOfOrder {
                        node: nodes[rank as usize],
                        client: (k >> 32) as u64,
                        prev_seq,
                        seq,
                    },
                )),
                _ => highest = Some(seq),
            }
        }
    }
    late.sort_unstable_by_key(|&(p, _)| p);
    verdict.violations.extend(late.into_iter().map(|(_, v)| v));
    verdict
}

/// The hash-map join the sort-merge one replaced, kept as the oracle the
/// property test holds it to.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::{HashMap, HashSet};

    pub(super) fn reconcile_clients<F>(ledgers: &[NodeLedger], mut decode: F) -> ClientVerdict
    where
        F: FnMut(GhostId) -> Option<ClientStamp>,
    {
        let mut verdict = ClientVerdict::default();
        // Phase 1: generations. Count per stamp so duplicate stamps (two
        // logical messages sharing one identity) are caught even if the
        // protocol collapses them into one delivery.
        let mut gen_count: HashMap<(u64, u32), u64> = HashMap::new();
        let mut clients: HashSet<u64> = HashSet::new();
        for l in ledgers {
            for &(ghost, _dest) in &l.generated {
                if let Some(s) = decode(ghost) {
                    verdict.stamped += 1;
                    *gen_count.entry((s.client, s.seq)).or_insert(0) += 1;
                    clients.insert(s.client);
                }
            }
        }
        verdict.clients = clients.len() as u64;
        // Phase 2: deliveries, in each node's delivery order. FIFO is
        // checked per (delivering node, client): sequences must be strictly
        // increasing. Stamps nobody generated are skipped — the plain SP
        // join already counts those deliveries as invalid.
        let mut del_count: HashMap<(u64, u32), u64> = HashMap::new();
        let mut last_seq: HashMap<(NodeId, u64), u32> = HashMap::new();
        let mut order_violations: Vec<ClientViolation> = Vec::new();
        for l in ledgers {
            for &ghost in &l.delivered {
                let Some(s) = decode(ghost) else { continue };
                if !gen_count.contains_key(&(s.client, s.seq)) {
                    continue;
                }
                *del_count.entry((s.client, s.seq)).or_insert(0) += 1;
                match last_seq.entry((l.node, s.client)) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(s.seq);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let prev = *e.get();
                        if s.seq <= prev {
                            order_violations.push(ClientViolation::OutOfOrder {
                                node: l.node,
                                client: s.client,
                                prev_seq: prev,
                                seq: s.seq,
                            });
                        } else {
                            e.insert(s.seq);
                        }
                    }
                }
            }
        }
        // Phase 3: held stamps (legal in-flight at a non-quiescent stop).
        let mut held: HashSet<(u64, u32)> = HashSet::new();
        for l in ledgers {
            for &ghost in &l.held {
                if let Some(s) = decode(ghost) {
                    held.insert((s.client, s.seq));
                }
            }
        }
        // Phase 4: one verdict per distinct stamp, deterministic order.
        let mut stamps: Vec<(&(u64, u32), &u64)> = gen_count.iter().collect();
        stamps.sort();
        for (&(client, seq), &gcount) in stamps {
            if gcount > 1 {
                verdict.violations.push(ClientViolation::DuplicateStamp {
                    client,
                    seq,
                    count: gcount,
                });
            }
            match del_count.get(&(client, seq)).copied().unwrap_or(0) {
                0 => {
                    if held.contains(&(client, seq)) {
                        verdict.in_flight += 1;
                    } else {
                        verdict
                            .violations
                            .push(ClientViolation::Lost { client, seq });
                    }
                }
                1 => verdict.exactly_once += 1,
                k => verdict.violations.push(ClientViolation::Duplicate {
                    client,
                    seq,
                    count: k,
                }),
            }
        }
        verdict.violations.extend(order_violations);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::tests::{arb_ledgers, stamp_ghost};
    use proptest::prelude::*;

    // Test stamp convention: Valid(client << 8 | seq), acks = Invalid.
    fn test_decode(g: GhostId) -> Option<ClientStamp> {
        match g {
            GhostId::Valid(k) => Some(ClientStamp {
                client: k >> 8,
                seq: (k & 0xFF) as u32,
            }),
            GhostId::Invalid(_) => None,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

        /// The sort-merge client join agrees with the hash-map oracle on
        /// the verdict and the violation order, and decodes each entry
        /// once as it does.
        #[test]
        fn sort_merge_join_matches_the_oracle(ledgers in arb_ledgers()) {
            let (mut calls, mut oracle_calls) = (0u64, 0u64);
            let v = reconcile_clients(&ledgers, |g| {
                calls += 1;
                test_decode(g)
            });
            let o = oracle::reconcile_clients(&ledgers, |g| {
                oracle_calls += 1;
                test_decode(g)
            });
            prop_assert_eq!(v, o, "{:?}", ledgers);
            prop_assert_eq!(calls, oracle_calls);
        }
    }

    #[test]
    fn reconcile_clients_clean_fifo_run() {
        // Two clients, two messages each, delivered in order at node 2.
        let ledgers = vec![
            NodeLedger {
                node: 0,
                generated: (0..2)
                    .flat_map(|c| (0..2).map(move |s| (stamp_ghost(c, s), 2)))
                    .collect(),
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 2,
                generated: vec![],
                delivered: vec![
                    stamp_ghost(0, 0),
                    stamp_ghost(1, 0),
                    stamp_ghost(0, 1),
                    stamp_ghost(1, 1),
                ],
                // An ack (no stamp) rides along, ignored by this audit.
                held: vec![GhostId::Invalid(9)],
            },
        ];
        let v = reconcile_clients(&ledgers, test_decode);
        assert!(v.clean(), "{:?}", v.violations);
        assert_eq!(
            (v.clients, v.stamped, v.exactly_once, v.in_flight),
            (2, 4, 4, 0)
        );
    }

    #[test]
    fn reconcile_clients_exposes_every_violation_kind() {
        let lost = stamp_ghost(1, 0);
        let dup = stamp_ghost(1, 1);
        let flight = stamp_ghost(2, 0);
        let ledgers = vec![
            NodeLedger {
                node: 0,
                // Client 3 reuses seq 5: duplicate stamp.
                generated: vec![
                    (lost, 2),
                    (dup, 2),
                    (flight, 2),
                    (stamp_ghost(3, 5), 2),
                    (stamp_ghost(3, 5), 2),
                ],
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 2,
                generated: vec![(stamp_ghost(4, 0), 1), (stamp_ghost(4, 1), 1)],
                delivered: vec![dup, dup, stamp_ghost(3, 5)],
                held: vec![flight],
            },
            NodeLedger {
                node: 1,
                generated: vec![],
                // Client 4's seq 1 lands before seq 0: out of order.
                delivered: vec![stamp_ghost(4, 1), stamp_ghost(4, 0)],
                held: vec![],
            },
        ];
        let v = reconcile_clients(&ledgers, test_decode);
        assert!(!v.clean());
        assert_eq!(v.clients, 4, "clients 1-4 each generated");
        assert!(v
            .violations
            .contains(&ClientViolation::Lost { client: 1, seq: 0 }));
        assert!(v.violations.contains(&ClientViolation::Duplicate {
            client: 1,
            seq: 1,
            count: 2
        }));
        assert!(v.violations.contains(&ClientViolation::DuplicateStamp {
            client: 3,
            seq: 5,
            count: 2
        }));
        assert!(v.violations.contains(&ClientViolation::OutOfOrder {
            node: 1,
            client: 4,
            prev_seq: 1,
            seq: 0
        }));
        assert_eq!(v.in_flight, 1);
    }

    #[test]
    fn reconcile_clients_decodes_each_merged_entry_exactly_once() {
        // The one-visit-per-entry pin: the stamp decoder runs once per ledger
        // entry — generated + delivered + held — and never again.
        let ledgers = vec![
            NodeLedger {
                node: 0,
                generated: (0..10).map(|s| (stamp_ghost(0, s), 1)).collect(),
                delivered: vec![],
                held: vec![],
            },
            NodeLedger {
                node: 1,
                generated: vec![],
                delivered: (0..7).map(|s| stamp_ghost(0, s)).collect(),
                held: (7..10).map(|s| stamp_ghost(0, s)).collect(),
            },
        ];
        let mut calls = 0u64;
        let v = reconcile_clients(&ledgers, |g| {
            calls += 1;
            test_decode(g)
        });
        assert_eq!(calls, 10 + 7 + 3);
        assert!(v.clean());
        assert_eq!((v.exactly_once, v.in_flight), (7, 3));
    }
}
