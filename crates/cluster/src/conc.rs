//! The cluster runtime's declared concurrency model.
//!
//! Every thread role and blocking edge of
//! `node.rs`/`shard.rs`/`orchestrator.rs`, declared as data for
//! `ssmfp-lint`'s `conc-*` passes and for the debug-build runtime
//! assertions.
//!
//! ## The control tree
//!
//! Two roles, zero locks, no channel:
//!
//! * `orch.main` — the run driver. Launches every node group, writes
//!   `peers`/`start`/`probe`/`stop` straight down each group's control
//!   socketpair with deadline-bounded nonblocking writes, and reads every
//!   group's lines up the same socketpairs, all of them in one readiness
//!   set waited on against the run deadline.
//! * `node.main` — the data plane: one per shard, carrying every node of
//!   the shard, inproc or as the main thread of the shard's process.
//!   `crate::node::run_group` keeps the group's one control pipe
//!   and its sockets in one persistent `epoll` set, waits on it
//!   to the nearest deadline of any node or stream, and runs the protocol
//!   engine of each node that has frames or is due. Links between members
//!   of one thread are in memory, with no socket and no wait; the
//!   `SockRead`/`SockWrite("node.main")` edges join two data threads and
//!   are timed: every data socket is nonblocking behind the one timed
//!   wait, and a dial is bounded (`evloop::dial`).
//!
//! Exactly one edge is untimed, and it waits on the waiter's spawner:
//! `node.main` blocking-writes status/report lines to the root, which
//! reads every group's pipe each turn of its loop. Leaf → root cannot
//! close a cycle; `conc-deadlock` checks exactly that, and a red test
//! flips the root's downward control write to untimed — root → leaf →
//! root — to keep it honest.
//!
//! [`crate::clients::ClientMux`] adds no concurrency: it is a plain struct
//! owned by its node in the `node.main` loop. A pin test holds the counts,
//! and a red test in `ssmfp-lint` proves an undeclared `client.mux`
//! channel would fail `conc-coverage` rather than ship silently.

use ssmfp_core::conc::{BlockingEdge, ConcModel, ThreadDecl, WaitPoint, EXTERN_ROLE};

/// Component name under which cluster threads register.
pub const COMPONENT: &str = "cluster";

/// The declared model of the runtime.
pub fn default_model() -> ConcModel {
    ConcModel {
        component: COMPONENT,
        threads: vec![
            ThreadDecl {
                role: "orch.main",
                spawned_by: EXTERN_ROLE,
                doc: "drives the run: launches every node group, writes and reads every group's \
                      control lines, joins the ledgers, declares convergence",
            },
            ThreadDecl {
                role: "node.main",
                spawned_by: "orch.main",
                doc: "every node of one shard: the group's ctrl pipe, listener and streams in \
                      one epoll set plus their protocol engines, one thread total",
            },
        ],
        channels: vec![],
        edges: vec![
            // node.main — the thread sleeps in one timed `epoll` wait and
            // nowhere else on the data plane, between nodes of one thread
            // as between threads: reads and writes behind it are
            // nonblocking. The one untimed edge is the blocking
            // status/report write up to the root, which reads every group's
            // pipe each turn.
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
                waits: WaitPoint::SockWrite("orch.main"),
                timed: false, // status/report write_all — leaf edge of the control tree
            },
            // orch.main — one wait over every group's pipe, and short
            // nonblocking writes down them.
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::SockRead("node.main"),
                timed: true, // one epoll set over every ctrl pipe, against the run deadline
            },
            BlockingEdge {
                thread: "orch.main",
                waits: WaitPoint::SockWrite("node.main"),
                timed: true, // peers/start/probe/stop, POLLOUT-gated with a deadline
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    WaitPoint::SockWrite("orch.main"),
                    "the only untimed node.main edge is the status/report write"
                );
            }
        }
        // And the model shrank for real: exactly two roles.
        assert_eq!(m.threads.len(), 2);
    }

    /// The root reads and writes every group's pipe itself, and only
    /// under deadlines: `node.main`'s one untimed edge is its write up to
    /// its spawner, the root; the root's edges are the timed read and the
    /// timed write of the groups' pipes; and no channel joins the two.
    #[test]
    fn the_root_reads_and_writes_every_group_under_deadlines() {
        let m = default_model();
        let waits = |role| {
            let edges = m.edges.iter().filter(|e| e.thread == role);
            edges.map(|e| (e.waits, e.timed)).collect::<Vec<_>>()
        };
        let untimed: Vec<_> = waits("node.main").into_iter().filter(|e| !e.1).collect();
        assert_eq!(untimed, [(WaitPoint::SockWrite("orch.main"), false)]);
        assert_eq!(m.thread("node.main").unwrap().spawned_by, "orch.main");
        assert_eq!(
            waits("orch.main"),
            [
                (WaitPoint::SockRead("node.main"), true),
                (WaitPoint::SockWrite("node.main"), true),
            ]
        );
        assert!(m.channels.is_empty(), "{:?}", m.channels);
    }

    /// The client-mux design claim, pinned: multiplexing millions of
    /// logical clients changed the concurrency footprint not at all —
    /// the same two roles and no channel. If the mux ever grows a thread
    /// or a queue, this count (and the model) must change together with
    /// it.
    #[test]
    fn client_mux_leaves_the_model_at_two_roles_no_locks_no_channel() {
        let m = default_model();
        assert_eq!(m.threads.len(), 2, "mux must not add thread roles");
        assert!(m.channels.is_empty(), "mux must not add channels");
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
