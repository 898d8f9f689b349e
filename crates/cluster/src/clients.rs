//! The client multiplexer: millions of *logical clients* fanning into
//! one node's forwarder, each with its own exactly-once, FIFO-audited
//! message stream.
//!
//! The layer above the protocol. Every cluster node hosts a [`ClientMux`]
//! owning a dense table of client sessions (its share of the cluster-wide
//! `--clients N`). Each session runs the same arrival disciplines as the
//! node-level workloads — seeded open-loop Poisson or closed-loop
//! windows ([`WorkloadSpec`]) — but issues messages stamped with its own
//! `(client, seq)` identity, packed into the ghost by
//! [`ssmfp_mp::clients`], so the shutdown reconcile can render a
//! **per-client** verdict: no stamp lost, none duplicated, deliveries in
//! sequence order.
//!
//! **FIFO by serialization.** A session keeps at most one message on the
//! wire (stop-and-wait): the next send waits for the previous ack. The
//! port guarantees exactly-once per message, not cross-message order, so
//! serialization is what makes per-client FIFO hold — and the audit then
//! *checks* it end-to-end, which still catches protocol duplication or
//! loss (a duplicate delivery lands the same seq twice; a lost primary
//! or ack leaves the stamp in flight forever). A closed-loop window
//! `K > 1` therefore adds no wire concurrency per client — the knob is
//! accepted for symmetry with node workloads; the scaling axis of this
//! layer is the *client count*. Destinations are sticky per session
//! (seeded at init), so one client's stream is observable in one node's
//! delivery-ordered ledger.
//!
//! **Acks are audited traffic.** A destination answers a stamped primary
//! with a real SSMFP message whose ghost is the primary's packed
//! identity with the ack bit set ([`ssmfp_mp::ack_ghost_of`]) — unique
//! by construction, zero per-client state at the destination.
//!
//! **Memory.** A session is one ~56-byte row (splitmix64 state, sticky
//! destination, counters, latency sums) — a million clients per node fit
//! in ~56 MB with no per-session allocations on the send path.

use crate::telemetry::LogHistogram;
use crate::workload::{primary_payload, Issue, WorkloadKind, WorkloadSpec, STAMP_MASK};
use ssmfp_core::{ClientStamp, GhostId};
use ssmfp_mp::clients::{MAX_CLIENT_NODES, MAX_SEQS_PER_CLIENT, MAX_SESSIONS_PER_NODE};
use ssmfp_mp::{client_ghost, ClientParts};
use ssmfp_topology::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A seeded client-layer bug for red-testing the per-client audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMutation {
    /// Each session's second message reuses sequence 0 instead of 1 —
    /// two logical messages sharing one stamp. The per-client reconcile
    /// must flag it ([`ssmfp_core::ledger::ClientViolation::DuplicateStamp`]).
    DuplicateStamp,
}

/// The cluster-wide client-layer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Logical clients across the whole cluster, spread evenly over the
    /// nodes (node `p` hosts [`ClientSpec::sessions_on`]`(p, n)`).
    pub clients: u64,
    /// Per-client arrival discipline and message quota.
    pub load: WorkloadSpec,
    /// Seeded bug injection (audit red-testing only).
    pub mutation: Option<ClientMutation>,
}

impl ClientSpec {
    /// How many sessions node `node` of `n` hosts: an even split with
    /// the first `clients mod n` nodes taking one extra.
    pub fn sessions_on(&self, node: NodeId, n: usize) -> u64 {
        let base = self.clients / n as u64;
        base + u64::from((node as u64) < self.clients % n as u64)
    }

    /// Validates the spec against the ghost-packing capacity: the
    /// `(node, session, seq)` triple must fit the 63-bit identity space.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if n < 2 {
            return Err("client mode needs n >= 2 (someone to talk to)".into());
        }
        if n > MAX_CLIENT_NODES {
            return Err(format!(
                "client mode caps the cluster at {MAX_CLIENT_NODES} nodes"
            ));
        }
        if self.clients == 0 {
            return Err("client mode needs --clients N, N >= 1".into());
        }
        let per_node = self.sessions_on(0, n);
        if per_node > MAX_SESSIONS_PER_NODE {
            return Err(format!(
                "{} clients over {n} nodes is {per_node} sessions/node; the ghost packing caps it at {MAX_SESSIONS_PER_NODE}",
                self.clients
            ));
        }
        if self.load.messages > MAX_SEQS_PER_CLIENT {
            return Err(format!(
                "client quota {} exceeds the {MAX_SEQS_PER_CLIENT} sequence cap",
                self.load.messages
            ));
        }
        Ok(())
    }
}

/// Decodes the per-client audit stamp out of a ledger ghost: `Some` for
/// stamped primaries, `None` for acks and non-client ghosts. This is
/// the closure `run_cluster` hands to
/// [`ssmfp_core::ledger::reconcile_clients`] — the core join stays
/// agnostic of the packing, this bridge owns it.
pub fn stamp_decode(g: GhostId) -> Option<ClientStamp> {
    let p = ssmfp_mp::decode_client_ghost(g)?;
    if p.ack {
        return None;
    }
    Some(ClientStamp {
        client: p.client_id(),
        seq: p.seq,
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `(0, 1]` from 53 random bits (never 0, so `ln` is finite).
fn unit_open(r: u64) -> f64 {
    ((r >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One logical client. Deliberately flat — no boxes, no vecs — so a
/// million of them are one dense allocation.
#[derive(Debug, Clone)]
struct Session {
    rng: u64,
    next_at_us: u64,
    sent_at_us: u64,
    lat_sum: u64,
    dest: u32,
    arrived: u32,
    issued: u32,
    completed: u32,
    lat_n: u32,
    in_flight: bool,
}

/// The per-node client multiplexer. Runs entirely inside the `node.main`
/// thread between event-loop pump bursts — no threads, locks, or
/// channels of its own.
#[derive(Debug)]
pub struct ClientMux {
    node: NodeId,
    quota: u32,
    kind: WorkloadKind,
    mutation: Option<ClientMutation>,
    sessions: Vec<Session>,
    /// Sessions with a sendable message and nothing in flight, served
    /// round-robin for fairness across clients.
    ready: VecDeque<u32>,
    /// Open-loop arrival schedule: `(due_us, session)` min-heap, in µs
    /// from `origin_us`.
    arrivals: BinaryHeap<Reverse<(u64, u32)>>,
    /// The clock reading of the first `next` call: callers pass their
    /// clock's µs, the schedule counts from zero.
    origin_us: Option<u64>,
    /// Issues still owed across all sessions (drives `done_issuing`).
    remaining_issues: u64,
    /// Sessions that completed their full quota.
    sessions_done: u64,
    completed_total: u64,
    /// Every ack RTT sample, log-bucketed.
    rtt: LogHistogram,
}

impl ClientMux {
    /// The mux for `node` of `n` under `spec`, seeded from the run seed.
    /// The session table (destinations, rng streams, arrival schedules)
    /// is a pure function of `(seed, node, n, spec)`.
    pub fn new(spec: &ClientSpec, node: NodeId, n: usize, seed: u64) -> Self {
        assert!(n >= 2, "client mode needs someone to talk to");
        let local = spec.sessions_on(node, n);
        assert!(
            local <= MAX_SESSIONS_PER_NODE,
            "validate() bounds the split"
        );
        let quota = spec.load.messages.min(MAX_SEQS_PER_CLIENT) as u32;
        let mut mux = ClientMux {
            node,
            quota,
            kind: spec.load.kind,
            mutation: spec.mutation,
            sessions: Vec::with_capacity(local as usize),
            ready: VecDeque::new(),
            arrivals: BinaryHeap::new(),
            origin_us: None,
            remaining_issues: local * quota as u64,
            sessions_done: 0,
            completed_total: 0,
            rtt: LogHistogram::new(),
        };
        for idx in 0..local as u32 {
            let mut rng = seed
                ^ (node as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                ^ (idx as u64 + 1).wrapping_mul(0xE703_7ED1_A0B4_28DB);
            splitmix64(&mut rng); // decorrelate the xor-structured seed
            let mut d = (splitmix64(&mut rng) % (n as u64 - 1)) as usize;
            if d >= node {
                d += 1;
            }
            let mut s = Session {
                rng,
                next_at_us: 0,
                sent_at_us: 0,
                lat_sum: 0,
                dest: d as u32,
                arrived: 0,
                issued: 0,
                completed: 0,
                lat_n: 0,
                in_flight: false,
            };
            if quota > 0 {
                match spec.load.kind {
                    WorkloadKind::Open { rate_per_sec } => {
                        s.next_at_us = poisson_gap(&mut s.rng, rate_per_sec);
                        mux.arrivals.push(Reverse((s.next_at_us, idx)));
                    }
                    WorkloadKind::Closed { .. } => mux.ready.push_back(idx),
                }
            }
            mux.sessions.push(s);
        }
        mux
    }

    /// The next message to send at `now_us`, or `None` when every ready
    /// session is drained (more may become ready on acks or arrivals).
    /// Open-loop arrivals are scheduled from the first call's `now_us`.
    /// The caller bounds calls per loop iteration with
    /// `TUNING.client_send_budget`.
    pub fn next(&mut self, now_us: u64) -> Option<Issue> {
        // Materialize due open-loop arrivals first.
        let elapsed = now_us.wrapping_sub(*self.origin_us.get_or_insert(now_us)) & STAMP_MASK;
        while let Some(&Reverse((due, idx))) = self.arrivals.peek() {
            if due > elapsed {
                break;
            }
            self.arrivals.pop();
            let s = &mut self.sessions[idx as usize];
            s.arrived += 1;
            if s.arrived < self.quota {
                if let WorkloadKind::Open { rate_per_sec } = self.kind {
                    s.next_at_us = due + poisson_gap(&mut s.rng, rate_per_sec);
                    self.arrivals.push(Reverse((s.next_at_us, idx)));
                }
            }
            let s = &self.sessions[idx as usize];
            if !s.in_flight && s.issued == s.arrived - 1 {
                // First backlog entry: the session becomes sendable now.
                // (Deeper backlog re-arms through on_ack instead.)
                self.ready.push_back(idx);
            }
        }
        let idx = self.ready.pop_front()?;
        let s = &mut self.sessions[idx as usize];
        debug_assert!(!s.in_flight && s.issued < self.quota);
        let seq = match self.mutation {
            Some(ClientMutation::DuplicateStamp) if s.issued == 1 => 0,
            _ => s.issued,
        };
        s.issued += 1;
        s.in_flight = true;
        s.sent_at_us = now_us;
        self.remaining_issues -= 1;
        Some(Issue {
            dest: s.dest as NodeId,
            payload: primary_payload(now_us),
            ghost: client_ghost(self.node, idx, seq),
        })
    }

    /// When `next` will next have something without an ack arriving first:
    /// `now_us` while a session is ready, else the head of the open-loop
    /// arrival schedule on the caller's clock, else `None`.
    pub fn next_due_us(&self, now_us: u64) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(now_us);
        }
        let &Reverse((due, _)) = self.arrivals.peek()?;
        Some(
            self.origin_us
                .map_or(now_us, |o| o.wrapping_add(due) & STAMP_MASK),
        )
    }

    /// Credits a delivered ack back to its session: closes the wire
    /// slot, records the round trip, re-arms the session if it still
    /// owes messages. Ignores acks that do not match a live slot (a
    /// duplicated ack would already be a red SP verdict; the mux stays
    /// total on it).
    pub fn on_ack(&mut self, parts: ClientParts, now_us: u64) {
        if parts.node != self.node || parts.session as usize >= self.sessions.len() {
            return;
        }
        let idx = parts.session;
        let s = &mut self.sessions[idx as usize];
        if !s.in_flight {
            return;
        }
        s.in_flight = false;
        s.completed += 1;
        let rtt = now_us.wrapping_sub(s.sent_at_us) & STAMP_MASK;
        s.lat_sum += rtt;
        s.lat_n += 1;
        self.rtt.record(rtt);
        self.completed_total += 1;
        if s.completed >= self.quota {
            self.sessions_done += 1;
        }
        let backlog = match self.kind {
            WorkloadKind::Closed { .. } => s.issued < self.quota,
            WorkloadKind::Open { .. } => s.issued < s.arrived,
        };
        if backlog {
            self.ready.push_back(idx);
        }
    }

    /// Whether every session has issued its full quota.
    pub fn done_issuing(&self) -> bool {
        self.remaining_issues == 0
    }

    /// Primaries issued so far across all sessions.
    pub fn issued(&self) -> u64 {
        self.sessions.len() as u64 * self.quota as u64 - self.remaining_issues
    }

    /// Sessions hosted by this node.
    pub fn hosted(&self) -> u64 {
        self.sessions.len() as u64
    }

    /// Sessions that have not yet completed their quota.
    pub fn active(&self) -> u64 {
        self.sessions.len() as u64 - self.sessions_done
    }

    /// Acked primaries across all sessions.
    pub fn completed(&self) -> u64 {
        self.completed_total
    }

    /// All ack round-trip samples, log-bucketed.
    pub fn rtt(&self) -> &LogHistogram {
        &self.rtt
    }

    /// The fairness spread: **one sample per session** — its mean RTT —
    /// so the histogram's quantiles read "how different is service
    /// across clients" (p99/p50 ≫ 1 means stragglers). Built on demand
    /// at report time; merged up the `ShardSummary` tree like any other
    /// histogram, so root-side work stays O(buckets), never O(clients).
    pub fn fairness(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for s in &self.sessions {
            if s.lat_n > 0 {
                h.record(s.lat_sum / s.lat_n as u64);
            }
        }
        h
    }
}

fn poisson_gap(rng: &mut u64, rate_per_sec: f64) -> u64 {
    // Exponential inter-arrival: -ln(U)/λ, U ∈ (0, 1], capped at 10 s
    // like the node-level generator.
    let u = unit_open(splitmix64(rng));
    (-u.ln() / rate_per_sec * 1e6).min(10e6) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_mp::decode_client_ghost;
    use std::collections::HashSet;

    fn spec(kind: WorkloadKind, messages: u64, clients: u64) -> ClientSpec {
        ClientSpec {
            clients,
            load: WorkloadSpec { kind, messages },
            mutation: None,
        }
    }

    fn closed(clients: u64, messages: u64) -> ClientSpec {
        spec(WorkloadKind::Closed { outstanding: 1 }, messages, clients)
    }

    /// Drives a mux alone: every issue is acked `rtt_us` later.
    fn drain(mux: &mut ClientMux, rtt_us: u64) -> Vec<Issue> {
        let mut out = Vec::new();
        let mut now = 0u64;
        for _ in 0..1_000_000 {
            let mut worked = false;
            while let Some(issue) = mux.next(now) {
                let p = decode_client_ghost(issue.ghost).unwrap();
                out.push(issue);
                mux.on_ack(p, now + rtt_us);
                worked = true;
            }
            if mux.done_issuing() {
                break;
            }
            if !worked {
                now += 100;
            }
        }
        out
    }

    #[test]
    fn sessions_split_evenly_and_sum_to_the_total() {
        let s = closed(10, 1);
        let per: Vec<u64> = (0..4).map(|p| s.sessions_on(p, 4)).collect();
        assert_eq!(per, vec![3, 3, 2, 2]);
        assert_eq!(per.iter().sum::<u64>(), 10);
        let big = closed(1_000_000, 1);
        assert_eq!(
            (0..25).map(|p| big.sessions_on(p, 25)).sum::<u64>(),
            1_000_000
        );
    }

    #[test]
    fn validate_enforces_the_packing_caps() {
        assert!(closed(100, 2).validate(4).is_ok());
        assert!(closed(100, 2).validate(1).is_err());
        assert!(closed(0, 2).validate(4).is_err());
        assert!(closed(u64::MAX / 2, 2).validate(2).is_err());
        assert!(closed(4, MAX_SEQS_PER_CLIENT + 1).validate(4).is_err());
    }

    #[test]
    fn closed_loop_issues_every_stamp_exactly_once_stop_and_wait() {
        let s = closed(9, 3);
        let mut mux = ClientMux::new(&s, 0, 4, 7);
        assert_eq!(mux.hosted(), 3); // 9 over 4 nodes: node 0 takes the extra
        let issues = drain(&mut mux, 250);
        assert_eq!(issues.len(), 3 * 3);
        let mut seen = HashSet::new();
        for i in &issues {
            assert!(seen.insert(i.ghost), "ghosts unique");
            let p = decode_client_ghost(i.ghost).unwrap();
            assert!(!p.ack);
            assert_eq!(p.node, 0);
            assert_ne!(i.dest, 0, "never self-addressed");
        }
        assert!(mux.done_issuing());
        assert_eq!(mux.completed(), 9);
        assert_eq!(mux.active(), 0);
        assert_eq!(mux.rtt().count(), 9);
    }

    #[test]
    fn sessions_are_sticky_and_fifo_serialized() {
        let s = closed(2, 5);
        let mut mux = ClientMux::new(&s, 0, 3, 11);
        let issues = drain(&mut mux, 10);
        // Per session: one sticky destination, strictly increasing seqs,
        // never two in flight (guaranteed by drain acking each at once —
        // asserted indirectly by seq order being exactly 0..quota).
        let mut per: std::collections::HashMap<u32, (u32, Vec<u32>)> = Default::default();
        for i in &issues {
            let p = decode_client_ghost(i.ghost).unwrap();
            let e = per
                .entry(p.session)
                .or_insert_with(|| (i.dest as u32, vec![]));
            assert_eq!(e.0, i.dest as u32, "sticky destination");
            e.1.push(p.seq);
        }
        for (_, (_, seqs)) in per {
            assert_eq!(seqs, (0..5).collect::<Vec<_>>());
        }
    }

    #[test]
    fn open_loop_message_set_is_seed_deterministic() {
        let s = spec(WorkloadKind::Open { rate_per_sec: 1e4 }, 4, 40);
        let a = drain(&mut ClientMux::new(&s, 2, 5, 99), 50);
        let b = drain(&mut ClientMux::new(&s, 2, 5, 99), 50);
        let key = |v: &[Issue]| v.iter().map(|i| (i.dest, i.ghost)).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_eq!(a.len() as u64, 4 * s.sessions_on(2, 5));
        // Ghost numbering is seed-independent by design, but the sticky
        // destinations are seeded: 8 sessions make a full collision
        // astronomically unlikely.
        let c = drain(&mut ClientMux::new(&s, 2, 5, 100), 50);
        let dests = |v: &[Issue]| v.iter().map(|i| i.dest).collect::<Vec<_>>();
        assert_ne!(
            dests(&a),
            dests(&c),
            "different seed, different destinations"
        );
    }

    #[test]
    fn open_loop_backlog_queues_behind_the_wire_slot() {
        // One client, fast arrivals, slow acks: arrivals outpace the
        // stop-and-wait slot, the backlog drains one ack at a time.
        let s = spec(WorkloadKind::Open { rate_per_sec: 1e3 }, 5, 1);
        let mut mux = ClientMux::new(&s, 0, 2, 3);
        assert!(mux.next(0).is_none(), "nothing has arrived at the origin");
        let mut now = 1_000_000u64; // all 5 arrivals long due
        let first = mux.next(now).expect("backlog ready");
        assert!(mux.next(now).is_none(), "wire slot busy: stop-and-wait");
        let p = decode_client_ghost(first.ghost).unwrap();
        mux.on_ack(p, now + 10);
        now += 10;
        assert_eq!(mux.next_due_us(now), Some(now), "a session is ready");
        assert!(mux.next(now).is_some(), "ack re-arms the session");
        assert!(!mux.done_issuing());
    }

    #[test]
    fn open_loop_paces_from_the_first_call_not_from_zero() {
        // A node passes its group's clock, µs far from zero: the schedule
        // must count from the first one, or every arrival is due at once.
        let s = spec(
            WorkloadKind::Open {
                rate_per_sec: 100.0,
            },
            1,
            400,
        );
        let origin = 1_790_000_000_000_000u64 & STAMP_MASK;
        let mut mux = ClientMux::new(&s, 0, 2, 9);
        let due: Vec<u64> = mux.sessions.iter().map(|s| s.next_at_us).collect();
        let mut issued = 0;
        for x in [0u64, 2_000, 10_000, 40_000, 10_000_000] {
            while mux.next(origin + x).is_some() {
                issued += 1;
            }
            let want = due.iter().filter(|&&d| d <= x).count();
            assert_eq!(issued, want, "at origin + {x} us");
            // Nothing ready: the deadline is the schedule's head, on the
            // caller's clock.
            let head = due.iter().filter(|&&d| d > x).min();
            assert_eq!(mux.next_due_us(origin + x), head.map(|d| origin + d));
        }
        assert_eq!(issued, 200, "the 10 s gap cap bounds the schedule");
        assert!(due.iter().filter(|&&d| d <= 10_000).count() < 150);
    }

    #[test]
    fn duplicate_stamp_mutation_reuses_seq_zero() {
        let mut s = closed(4, 3); // 2 sessions on node 0 of 2
        s.mutation = Some(ClientMutation::DuplicateStamp);
        let mut mux = ClientMux::new(&s, 0, 2, 5);
        let issues = drain(&mut mux, 10);
        let seqs: Vec<Vec<u32>> = (0..2)
            .map(|session| {
                issues
                    .iter()
                    .filter_map(|i| {
                        let p = decode_client_ghost(i.ghost).unwrap();
                        (p.session == session).then_some(p.seq)
                    })
                    .collect()
            })
            .collect();
        for s in seqs {
            assert_eq!(s, vec![0, 0, 2], "second message reuses stamp 0");
        }
    }

    #[test]
    fn stale_or_foreign_acks_are_ignored() {
        let s = closed(1, 2);
        let mut mux = ClientMux::new(&s, 0, 2, 5);
        let i = mux.next(0).unwrap();
        let p = decode_client_ghost(i.ghost).unwrap();
        mux.on_ack(p, 10);
        mux.on_ack(p, 12); // duplicate ack: no slot in flight → ignored
        assert_eq!(mux.completed(), 1);
        let foreign = ClientParts {
            ack: true,
            node: 1,
            session: 0,
            seq: 0,
        };
        mux.on_ack(foreign, 14);
        assert_eq!(mux.completed(), 1);
    }

    #[test]
    fn fairness_histogram_is_one_sample_per_session() {
        let s = closed(5, 4);
        let mut mux = ClientMux::new(&s, 0, 2, 1);
        let hosted = mux.hosted();
        assert_eq!(hosted, 3); // 5 over 2 nodes: node 0 takes the extra
        drain(&mut mux, 100);
        let fair = mux.fairness();
        assert_eq!(fair.count(), hosted, "one sample per completed session");
        assert_eq!(mux.rtt().count(), 4 * hosted, "every ack sampled");
    }

    #[test]
    fn stamp_decode_skips_acks_and_garbage() {
        let g = client_ghost(3, 7, 2);
        let s = stamp_decode(g).unwrap();
        assert_eq!(s.seq, 2);
        assert_eq!(s.client, decode_client_ghost(g).unwrap().client_id());
        let ack = ssmfp_mp::ack_ghost_of(g);
        assert_eq!(stamp_decode(ack), None);
        assert_eq!(stamp_decode(GhostId::Invalid(9)), None);
    }
}
