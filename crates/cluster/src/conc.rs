//! The cluster runtime's declared concurrency model.
//!
//! Every thread role, cross-thread channel and blocking edge of
//! `node.rs`/`orchestrator.rs`, declared as data for `ssmfp-lint`'s
//! `conc-*` passes and for the debug-build runtime assertions. Bounds come
//! from the same [`ClusterTuning`] the running code consumes, so the
//! declaration cannot drift from the implementation.
//!
//! ## The shape of the graph (PR 8: a control *tree*)
//!
//! Three roles, period:
//!
//! * `orch.main` — the run driver. Spawns shard supervisors, distributes
//!   `peers`/`start`/`stop` over per-shard socketpairs, and drains the
//!   one channel (`orch.shard`) everything flows up through.
//! * `shard.super` — one per shard: supervises a group of nodes (spawns
//!   threads inproc, processes in proc mode), polls their control pipes,
//!   pre-merges status/telemetry, forwards control lines downward with
//!   POLLOUT-gated nonblocking writes.
//! * `node.main` — the data plane: one per shard inproc, carrying every
//!   node of the shard (one per process in proc mode, carrying its one
//!   node). `crate::node::run_nodes` keeps every member's control pipe
//!   and the group's sockets — one listener, one stream per destination
//!   address, the streams dialled in — in one persistent `epoll` set,
//!   waits on it to the nearest deadline of any node or stream, and runs
//!   the protocol engine of each node that has frames or is due between
//!   I/O bursts. Its `SockRead`/`SockWrite("node.main")` edges join two
//!   data threads — the links between members of one thread are in
//!   memory, no socket and no wait — and stay timed: the
//!   wait is the only place the thread sleeps and it carries a deadline;
//!   every data socket is nonblocking behind it, a full one is retried
//!   when the set reports it writable, and a dial is bounded
//!   (`evloop::dial`), so no stream can hold the thread against a peer
//!   that needs it. Which links share a stream changes how many sockets
//!   there are, not who waits on whom: roles and edges are as they were.
//!
//! Every data-plane wait is timed (nonblocking sockets behind the one
//! timed wait). Exactly two untimed edges remain, and they form a chain up
//! the control tree — `node.main` blocking-writes status/report lines to
//! its shard (which polls node pipes unconditionally), and `shard.super`
//! blocking-sends on `orch.shard` (which `orch.main` drains with a
//! timeout). Leaf → shard → root is acyclic by construction; the
//! `conc-deadlock` lint checks it, and flipping any downward control
//! write to untimed re-closes the old orchestrator cycle (a red test
//! keeps that detection honest).
//!
//! No locks remain: the writer-stats mutex died with the blocking plane.
//!
//! ## The client layer adds no concurrency (PR 9)
//!
//! [`crate::clients::ClientMux`] — up to millions of logical clients per
//! node — is a plain struct owned by its node in the `node.main` loop, polled
//! between I/O bursts under the `client_send_budget` and fed by the same
//! delivery vector the forwarder already fills. Re-deriving the model
//! with it in place changes *nothing*: still three roles, zero locks,
//! one channel. Session fan-in is a table walk inside an existing
//! thread, not a queue between threads — a pin test holds the counts,
//! and a red test in `ssmfp-lint` proves an undeclared `client.mux`
//! channel would fail `conc-coverage` rather than ship silently.

use crate::tuning::ClusterTuning;
use ssmfp_core::conc::{
    BlockingEdge, ChannelDecl, ConcModel, FullPolicy, Multiplicity, ThreadDecl, WaitPoint,
    EXTERN_ROLE,
};

/// Component name under which cluster threads register.
pub const COMPONENT: &str = "cluster";

/// Builds the declared model from the tuning the runtime actually uses.
pub fn model(t: &ClusterTuning) -> ConcModel {
    ConcModel {
        component: COMPONENT,
        threads: vec![
            ThreadDecl {
                role: "orch.main",
                multiplicity: Multiplicity::One,
                spawned_by: EXTERN_ROLE,
                doc: "drives the run: spawns shards, distributes control, declares convergence",
            },
            ThreadDecl {
                role: "shard.super",
                multiplicity: Multiplicity::PerShard,
                spawned_by: "orch.main",
                doc: "supervises one node group: polls ctrl pipes, pre-merges status/telemetry",
            },
            ThreadDecl {
                role: "node.main",
                // Inproc; in proc mode each node process has its own.
                multiplicity: Multiplicity::PerShard,
                spawned_by: "shard.super",
                doc: "every node of one shard: their ctrl pipes and the group's listener and \
                      streams in one epoll set plus their protocol engines, one thread total",
            },
        ],
        locks: vec![],
        channels: vec![ChannelDecl {
            name: "orch.shard",
            senders: vec!["shard.super"],
            receiver: "orch.main",
            bound: Some(t.orch_shard_queue),
            policy: Some(FullPolicy::Block),
            doc: "shard → orchestrator upstream: ready sets, merged status, shard reports",
        }],
        edges: vec![
            // node.main — the thread sleeps in one timed `epoll` wait and
            // nowhere else on the data plane, between nodes of one thread
            // as between threads: reads and writes behind it are
            // nonblocking. The one untimed edge is the blocking
            // status/report write up to the shard, which drains node pipes
            // unconditionally.
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockRead("node.main"),
                holding: vec![],
                timed: true, // nonblocking reads behind the timed wait
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockWrite("node.main"),
                holding: vec![],
                timed: true, // nonblocking writes, retried when reported writable
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::Accept("node.main"),
                holding: vec![],
                timed: true, // nonblocking accept on listener readiness
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockRead("shard.super"),
                holding: vec![],
                timed: true, // single-shot ctrl read behind the timed wait
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockWrite("shard.super"),
                holding: vec![],
                timed: false, // status/report write_all — leaf edge of the control tree
            },
            // shard.super — polls node pipes and its orch socketpair;
            // downward control writes are POLLOUT-gated and nonblocking.
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::SockRead("node.main"),
                holding: vec![],
                timed: true, // poll over node ctrl pipes with a deadline
            },
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::SockRead("orch.main"),
                holding: vec![],
                timed: true, // same poll set
            },
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::SockWrite("node.main"),
                holding: vec![],
                timed: true, // staged ctrl bytes, written on POLLOUT only
            },
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::ChanSend("orch.shard"),
                holding: vec![],
                timed: false, // upstream edge of the control tree
            },
            // orch.main
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::ChanRecv("orch.shard"),
                holding: vec![],
                timed: true, // recv_timeout against the run deadline
            },
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::SockWrite("shard.super"),
                holding: vec![],
                timed: true, // peers/start/stop, POLLOUT-gated with a deadline
            },
        ],
    }
}

/// The model for the tuning the runtime actually runs with.
pub fn default_model() -> ConcModel {
    model(&crate::tuning::TUNING)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuning::TUNING;

    #[test]
    fn declared_bounds_come_from_tuning() {
        let m = default_model();
        assert_eq!(
            m.channel_decl("orch.shard").bound,
            Some(TUNING.orch_shard_queue)
        );
    }

    /// The data thread's data-plane waits are all timed — its one
    /// untimed edge is the upward control write. That asymmetry is the
    /// whole deadlock-freedom argument, so pin it.
    #[test]
    fn node_main_untimed_edges_point_only_up_the_control_tree() {
        let m = default_model();
        let node_edges: Vec<_> = m.edges.iter().filter(|e| e.thread == "node.main").collect();
        assert!(!node_edges.is_empty());
        for e in &node_edges {
            if !e.timed {
                assert_eq!(
                    e.waits,
                    WaitPoint::SockWrite("shard.super"),
                    "the only untimed node.main edge is the status/report write"
                );
            }
        }
        // And the model shrank for real: exactly three roles, no locks.
        assert_eq!(m.threads.len(), 3);
        assert!(m.locks.is_empty());
    }

    /// The client-mux design claim, pinned: multiplexing millions of
    /// logical clients changed the concurrency footprint not at all —
    /// the same three roles, zero locks, and the single `orch.shard`
    /// channel that PR 8 declared. If the mux ever grows a thread or a
    /// queue, this count (and the model) must change together with it.
    #[test]
    fn client_mux_leaves_the_model_at_three_roles_no_locks_one_channel() {
        let m = default_model();
        assert_eq!(m.threads.len(), 3, "mux must not add thread roles");
        assert!(m.locks.is_empty(), "mux must not add locks");
        assert_eq!(m.channels.len(), 1, "mux must not add channels");
        assert_eq!(m.channels[0].name, "orch.shard");
        assert!(
            m.channel("client.mux").is_none(),
            "a client.mux queue would be a new design — declare it first"
        );
    }

    #[test]
    fn every_edge_references_declared_names() {
        let m = default_model();
        for e in &m.edges {
            assert!(m.thread(e.thread).is_some(), "thread {}", e.thread);
            match e.waits {
                WaitPoint::ChanSend(c) | WaitPoint::ChanRecv(c) => {
                    assert!(m.channel(c).is_some(), "channel {c}");
                }
                WaitPoint::LockAcquire(l) => assert!(m.lock(l).is_some(), "lock {l}"),
                WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => {
                    assert!(m.thread(p).is_some(), "peer role {p}");
                }
            }
        }
    }
}
