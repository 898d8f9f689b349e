//! The cluster runtime's declared concurrency model.
//!
//! Every thread role, cross-thread channel and blocking edge of
//! `node.rs`/`shard.rs`/`orchestrator.rs`, declared as data for `ssmfp-lint`'s
//! `conc-*` passes and for the debug-build runtime assertions. Bounds come
//! from the same [`ClusterTuning`] the running code consumes, so the
//! declaration cannot drift from the implementation.
//!
//! ## The control tree
//!
//! Three roles, zero locks, one channel:
//!
//! * `orch.main` — the run driver. Spawns shard supervisors, writes
//!   `peers`/`start`/`probe`/`stop` straight down each group's control
//!   socketpair with deadline-bounded nonblocking writes, and drains the
//!   one channel (`orch.shard`) everything flows up through.
//! * `shard.super` — one per shard: supervises its one node group (a data
//!   thread inproc, one process per shard in proc mode), polls the
//!   group's control socketpair, passes status up, pre-merges telemetry.
//!   It writes nothing down.
//! * `node.main` — the data plane: one per shard, carrying every node of
//!   the shard, inproc or as the main thread of the shard's process. `crate::node::run_group` keeps the group's one control pipe
//!   and its sockets in one persistent `epoll` set, waits on it
//!   to the nearest deadline of any node or stream, and runs the protocol
//!   engine of each node that has frames or is due. Links between members
//!   of one thread are in memory, with no socket and no wait; the
//!   `SockRead`/`SockWrite("node.main")` edges join two data threads and
//!   are timed: every data socket is nonblocking behind the one timed
//!   wait, and a dial is bounded (`evloop::dial`).
//!
//! Exactly two edges are untimed, and each waits on the waiter's spawner:
//! `node.main` blocking-writes status/report lines to its shard (which
//! polls its group's pipe unconditionally), and `shard.super`
//! blocking-sends on `orch.shard` (which `orch.main` drains with a
//! timeout). Leaf → shard → root cannot close a cycle; `conc-deadlock`
//! checks exactly that, and a red test flips the root's downward control
//! write to untimed — root → leaf → shard → root — to keep it honest.
//!
//! [`crate::clients::ClientMux`] adds no concurrency: it is a plain struct
//! owned by its node in the `node.main` loop. A pin test holds the counts,
//! and a red test in `ssmfp-lint` proves an undeclared `client.mux`
//! channel would fail `conc-coverage` rather than ship silently.

use crate::tuning::ClusterTuning;
use ssmfp_core::conc::{BlockingEdge, ChannelDecl, ConcModel, ThreadDecl, WaitPoint, EXTERN_ROLE};

/// Component name under which cluster threads register.
pub const COMPONENT: &str = "cluster";

/// Builds the declared model from the tuning the runtime actually uses.
pub fn model(t: &ClusterTuning) -> ConcModel {
    ConcModel {
        component: COMPONENT,
        threads: vec![
            ThreadDecl {
                role: "orch.main",
                spawned_by: EXTERN_ROLE,
                doc: "drives the run: spawns shards, writes every group's control lines, declares \
                      convergence",
            },
            ThreadDecl {
                role: "shard.super",
                spawned_by: "orch.main",
                doc: "supervises a shard's one node group: polls its ctrl pipe, passes status \
                      up, pre-merges telemetry",
            },
            ThreadDecl {
                role: "node.main",
                spawned_by: "shard.super",
                doc: "every node of one shard: the group's ctrl pipe, listener and streams in \
                      one epoll set plus their protocol engines, one thread total",
            },
        ],
        channels: vec![ChannelDecl {
            name: "orch.shard",
            senders: vec!["shard.super"],
            receiver: "orch.main",
            bound: Some(t.orch_shard_queue),
            doc: "shard → orchestrator upstream: ready sets, merged status, shard reports",
        }],
        edges: vec![
            // node.main — the thread sleeps in one timed `epoll` wait and
            // nowhere else on the data plane, between nodes of one thread
            // as between threads: reads and writes behind it are
            // nonblocking. The one untimed edge is the blocking
            // status/report write up to the shard, which drains its group's
            // pipe unconditionally.
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockRead("node.main"),
                timed: true, // nonblocking reads behind the timed wait
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockWrite("node.main"),
                timed: true, // nonblocking writes, retried when reported writable
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::Accept("node.main"),
                timed: true, // nonblocking accept on listener readiness
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockRead("orch.main"),
                timed: true, // single-shot ctrl read behind the timed wait
            },
            BlockingEdge {
                thread: "node.main",
                waits: WaitPoint::SockWrite("shard.super"),
                timed: false, // status/report write_all — leaf edge of the control tree
            },
            // shard.super — reads its group's pipe and sends up; it writes
            // nothing down.
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::SockRead("node.main"),
                timed: true, // poll over the group's ctrl pipe, capped at 50 ms
            },
            BlockingEdge {
                thread: "shard.super",
                waits: WaitPoint::ChanSend("orch.shard"),
                timed: false, // upstream edge of the control tree
            },
            // orch.main
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::ChanRecv("orch.shard"),
                timed: true, // recv_timeout against the run deadline
            },
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::SockWrite("node.main"),
                timed: true, // peers/start/probe/stop, POLLOUT-gated with a deadline
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
        // And the model shrank for real: exactly three roles.
        assert_eq!(m.threads.len(), 3);
    }

    /// The shard only listens: it reads its group's pipe under a timed
    /// wait and sends up, and writes nothing down. Every downward control
    /// line is the root's, written straight to the group under a deadline.
    #[test]
    fn the_shard_only_listens_and_the_root_writes_down() {
        let m = default_model();
        let waits = |role| {
            let edges = m.edges.iter().filter(|e| e.thread == role);
            edges.map(|e| (e.waits, e.timed)).collect::<Vec<_>>()
        };
        assert_eq!(
            waits("shard.super"),
            [
                (WaitPoint::SockRead("node.main"), true),
                (WaitPoint::ChanSend("orch.shard"), false),
            ]
        );
        assert_eq!(
            waits("orch.main"),
            [
                (WaitPoint::ChanRecv("orch.shard"), true),
                (WaitPoint::SockWrite("node.main"), true),
            ]
        );
    }

    /// The client-mux design claim, pinned: multiplexing millions of
    /// logical clients changed the concurrency footprint not at all —
    /// the same three roles and the single `orch.shard` channel. If the
    /// mux ever grows a thread or a queue, this count (and the model) must
    /// change together with it.
    #[test]
    fn client_mux_leaves_the_model_at_three_roles_no_locks_one_channel() {
        let m = default_model();
        assert_eq!(m.threads.len(), 3, "mux must not add thread roles");
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
                WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => {
                    assert!(m.thread(p).is_some(), "peer role {p}");
                }
            }
        }
    }
}
