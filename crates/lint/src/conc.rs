//! The `conc-*` lint family: static analyses over declared concurrency
//! models ([`ssmfp_core::conc::ConcModel`]).
//!
//! The runtime layers (`crates/cluster`, `crates/mp`) declare their
//! thread roles, channel bounds and blocking edges; these passes check
//! the declarations the same way the footprint passes check the protocol
//! rules:
//!
//! * **`conc-coverage`** — referential integrity: every name an edge or
//!   channel mentions is declared, no duplicates, every spawner is a
//!   declared role (or `extern`), and every `spawned_by` chain reaches
//!   `extern`, so the spawn relation is a tree. The *runtime* half —
//!   every observed thread appears in the model — runs in the debug-build
//!   test suites via [`ssmfp_core::conc::ConcModel::undeclared_observed`].
//! * **`conc-unbounded`** — every cross-thread channel declares a bound.
//!   An unbounded queue is an unbounded memory and latency liability.
//! * **`conc-deadlock`** — every *untimed* wait of a role can be ended
//!   only by the role that spawned it: a full-channel send by the
//!   channel's receiver, an empty-channel receive by every sender, a
//!   socket operation or an accept by the named peer. A timed wait ends
//!   by its deadline. So every chain of untimed waits climbs the spawn
//!   tree, and a chain that climbs a tree cannot close into a cycle: no
//!   set of threads can all be stuck waiting on one another. The
//!   argument holds per instance too — a cycle among thread instances
//!   maps onto a cycle among their roles.

use crate::{push, LintReport, Severity};
use ssmfp_core::conc::{BlockingEdge, ConcModel, WaitPoint, EXTERN_ROLE};
use std::collections::BTreeSet;

/// Summary of one analyzed component, carried in the JSON report.
#[derive(Debug, Clone)]
pub struct ConcComponentSummary {
    /// Component name.
    pub component: String,
    /// Declared thread roles.
    pub threads: usize,
    /// Declared channels.
    pub channels: usize,
    /// Declared blocking edges.
    pub edges: usize,
    /// Edges without a deadline (the deadlock-relevant ones).
    pub untimed_edges: usize,
}

/// Runs every `conc-*` pass over one model.
pub fn lint_conc_model(model: &ConcModel, report: &mut LintReport) {
    report.conc.push(ConcComponentSummary {
        component: model.component.to_string(),
        threads: model.threads.len(),
        channels: model.channels.len(),
        edges: model.edges.len(),
        untimed_edges: model.edges.iter().filter(|e| !e.timed).count(),
    });
    lint_conc_coverage(model, report);
    lint_conc_unbounded(model, report);
    lint_conc_deadlock(model, report);
}

/// `conc-coverage`: the declaration is internally closed and its spawn
/// relation is a tree rooted at `extern`.
pub fn lint_conc_coverage(model: &ConcModel, report: &mut LintReport) {
    let comp = model.component;
    let mut seen = BTreeSet::new();
    for t in &model.threads {
        if !seen.insert(t.role) {
            push(
                report,
                Severity::Violation,
                "conc-coverage",
                format!("{comp}: thread role `{}` is declared twice", t.role),
            );
        }
        if t.spawned_by != EXTERN_ROLE && model.thread(t.spawned_by).is_none() {
            push(
                report,
                Severity::Violation,
                "conc-coverage",
                format!(
                    "{comp}: thread role `{}` is spawned by `{}`, which is not a declared role \
                     (use `{EXTERN_ROLE}` for harness threads)",
                    t.role, t.spawned_by
                ),
            );
        } else if !spawn_chain_ends(model, t.role) {
            push(
                report,
                Severity::Violation,
                "conc-coverage",
                format!(
                    "{comp}: thread role `{}` has a `spawned_by` chain that never reaches \
                     `{EXTERN_ROLE}` — the spawn relation must be a tree",
                    t.role
                ),
            );
        }
    }
    let mut seen = BTreeSet::new();
    for c in &model.channels {
        if !seen.insert(c.name) {
            push(
                report,
                Severity::Violation,
                "conc-coverage",
                format!("{comp}: channel `{}` is declared twice", c.name),
            );
        }
        for role in c.senders.iter().chain(std::iter::once(&c.receiver)) {
            if model.thread(role).is_none() {
                push(
                    report,
                    Severity::Violation,
                    "conc-coverage",
                    format!(
                        "{comp}: channel `{}` names role `{role}`, which is not declared",
                        c.name
                    ),
                );
            }
        }
    }
    for e in &model.edges {
        if model.thread(e.thread).is_none() {
            push(
                report,
                Severity::Violation,
                "conc-coverage",
                format!(
                    "{comp}: a blocking edge belongs to `{}`, which is not a declared role",
                    e.thread
                ),
            );
        }
        match e.waits {
            WaitPoint::ChanSend(c) | WaitPoint::ChanRecv(c) => {
                if model.channel(c).is_none() {
                    push(
                        report,
                        Severity::Violation,
                        "conc-coverage",
                        format!("{comp}: `{}` blocks on undeclared channel `{c}`", e.thread),
                    );
                }
            }
            WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => {
                if model.thread(p).is_none() {
                    push(
                        report,
                        Severity::Violation,
                        "conc-coverage",
                        format!(
                            "{comp}: `{}` waits on peer role `{p}`, which is not declared",
                            e.thread
                        ),
                    );
                }
            }
        }
    }
}

/// Whether `role`'s `spawned_by` chain leaves the declared roles (at
/// `extern`, or at an undeclared spawner reported on its own) instead of
/// looping among them.
fn spawn_chain_ends(model: &ConcModel, role: &str) -> bool {
    let mut at = role;
    for _ in 0..=model.threads.len() {
        match model.thread(at) {
            Some(t) => at = t.spawned_by,
            None => return true,
        }
    }
    false
}

/// `conc-unbounded`: every channel declares a bound.
pub fn lint_conc_unbounded(model: &ConcModel, report: &mut LintReport) {
    for c in model.channels.iter().filter(|c| c.bound.is_none()) {
        push(
            report,
            Severity::Violation,
            "conc-unbounded",
            format!(
                "{}: channel `{}` declares no bound — every cross-thread channel must be \
                 bounded (an unbounded queue is an unbounded memory/latency liability)",
                model.component, c.name
            ),
        );
    }
}

/// The roles whose progress can end the wait of `e`.
fn unblockers(model: &ConcModel, e: &BlockingEdge) -> Vec<&'static str> {
    match e.waits {
        WaitPoint::ChanSend(c) => model.channel(c).map(|d| vec![d.receiver]),
        WaitPoint::ChanRecv(c) => model.channel(c).map(|d| d.senders.clone()),
        WaitPoint::SockRead(p) | WaitPoint::SockWrite(p) | WaitPoint::Accept(p) => Some(vec![p]),
    }
    .unwrap_or_default()
}

/// A shortest chain of untimed waits from role `from` to role `to`, both
/// ends included: each role in it waits untimed on the next.
fn untimed_chain(model: &ConcModel, from: &'static str, to: &str) -> Option<Vec<&'static str>> {
    let mut paths = vec![vec![from]];
    let mut seen = BTreeSet::from([from]);
    while !paths.is_empty() {
        let mut longer = Vec::new();
        for path in paths {
            let at = path[path.len() - 1];
            if at == to {
                return Some(path);
            }
            for e in model.edges.iter().filter(|e| !e.timed && e.thread == at) {
                for on in unblockers(model, e) {
                    if seen.insert(on) {
                        longer.push([&path[..], &[on]].concat());
                    }
                }
            }
        }
        paths = longer;
    }
    None
}

/// `conc-deadlock`: every untimed wait points at the waiter's spawner. A
/// wait that does not is reported with the cycle of untimed waits it
/// closes, if it closes one.
pub fn lint_conc_deadlock(model: &ConcModel, report: &mut LintReport) {
    for e in model.edges.iter().filter(|e| !e.timed) {
        let Some(decl) = model.thread(e.thread) else {
            continue;
        };
        for on in unblockers(model, e) {
            if on != decl.spawned_by {
                let cycle = untimed_chain(model, on, e.thread).map_or(String::new(), |chain| {
                    let roles = chain.iter().map(|r| format!(" → `{r}`"));
                    format!(
                        " (it closes the cycle `{}`{})",
                        e.thread,
                        roles.collect::<String>()
                    )
                });
                push(
                    report,
                    Severity::Violation,
                    "conc-deadlock",
                    format!(
                        "{}: `{}` waits untimed on `{on}` ({}){cycle}, but only its spawner \
                         `{}` may end an untimed wait — untimed waits must climb the spawn \
                         tree; give this one a deadline or re-layer it",
                        model.component,
                        e.thread,
                        e.waits.describe(),
                        decl.spawned_by
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::conc::{ChannelDecl, ThreadDecl};

    fn spawned(role: &'static str, spawned_by: &'static str) -> ThreadDecl {
        ThreadDecl {
            role,
            spawned_by,
            doc: "test",
        }
    }

    fn thread(role: &'static str) -> ThreadDecl {
        spawned(role, EXTERN_ROLE)
    }

    fn chan(name: &'static str, from: &'static str, to: &'static str) -> ChannelDecl {
        ChannelDecl {
            name,
            senders: vec![from],
            receiver: to,
            bound: Some(8),
            doc: "test",
        }
    }

    fn untimed(thread: &'static str, waits: WaitPoint) -> BlockingEdge {
        BlockingEdge {
            thread,
            waits,
            timed: false,
        }
    }

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.code).collect()
    }

    /// True iff some `conc-deadlock` violation names every role in `roles`.
    fn deadlock_names(report: &LintReport, roles: &[&str]) -> bool {
        report
            .violations()
            .any(|f| f.code == "conc-deadlock" && roles.iter().all(|r| f.message.contains(r)))
    }

    #[test]
    fn shipped_conc_models_are_clean() {
        for model in crate::default_conc_models() {
            let mut report = LintReport::default();
            lint_conc_model(&model, &mut report);
            assert!(
                report.findings.is_empty(),
                "{}: {:?}",
                model.component,
                report.findings
            );
        }
    }

    #[test]
    fn planted_channel_send_cycle_is_caught() {
        // Two bounded channels in a ring: both senders can be stuck on a
        // full queue whose receiver is the other stuck sender.
        let model = ConcModel {
            component: "red",
            threads: vec![thread("t1"), thread("t2")],
            channels: vec![chan("x", "t1", "t2"), chan("y", "t2", "t1")],
            edges: vec![
                untimed("t1", WaitPoint::ChanSend("x")),
                untimed("t2", WaitPoint::ChanSend("y")),
            ],
        };
        let mut report = LintReport::default();
        lint_conc_deadlock(&model, &mut report);
        assert!(
            deadlock_names(&report, &["`t1` waits untimed on `t2`"]),
            "{:?}",
            report.findings
        );
        assert!(
            deadlock_names(&report, &["`t2` waits untimed on `t1`"]),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn sibling_producer_consumer_waits_are_a_violation() {
        // A producer blocked on a full queue and its consumer blocked on
        // the same queue empty cannot both hold at once, but neither is
        // the other's spawner: the structural rule refuses the pair
        // rather than reasoning about which states of the queue can
        // coexist.
        let model = ConcModel {
            component: "red",
            threads: vec![thread("prod"), thread("cons")],
            channels: vec![chan("q", "prod", "cons")],
            edges: vec![
                untimed("prod", WaitPoint::ChanSend("q")),
                untimed("cons", WaitPoint::ChanRecv("q")),
            ],
        };
        let mut report = LintReport::default();
        lint_conc_deadlock(&model, &mut report);
        assert_eq!(codes(&report), vec!["conc-deadlock", "conc-deadlock"]);
        assert!(deadlock_names(&report, &["`prod` waits untimed on `cons`"]));
        assert!(deadlock_names(&report, &["`cons` waits untimed on `prod`"]));

        // The same pair as parent and child is a chain up the tree.
        let mut tree = model.clone();
        tree.threads = vec![thread("cons"), spawned("prod", "cons")];
        tree.edges.truncate(1);
        let mut report = LintReport::default();
        lint_conc_model(&tree, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn unbounded_channel_is_caught() {
        let mut nobound = chan("nobound", "t1", "t2");
        nobound.bound = None;
        let model = ConcModel {
            component: "red",
            threads: vec![thread("t1"), thread("t2")],
            channels: vec![nobound, chan("bounded", "t1", "t2")],
            edges: vec![],
        };
        let mut report = LintReport::default();
        lint_conc_unbounded(&model, &mut report);
        assert_eq!(codes(&report), vec!["conc-unbounded"]);
        assert!(report.findings[0].message.contains("nobound"));
    }

    #[test]
    fn dangling_names_are_caught_by_coverage() {
        let model = ConcModel {
            component: "red",
            threads: vec![spawned("t1", "ghost-spawner")],
            channels: vec![chan("c", "nobody", "t1")],
            edges: vec![
                untimed("phantom", WaitPoint::SockRead("t1")),
                untimed("t1", WaitPoint::ChanRecv("missing-chan")),
            ],
        };
        let mut report = LintReport::default();
        lint_conc_coverage(&model, &mut report);
        let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(report.findings.iter().all(|f| f.code == "conc-coverage"));
        assert!(msgs.iter().any(|m| m.contains("ghost-spawner")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("nobody")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("phantom")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("missing-chan")), "{msgs:?}");
    }

    #[test]
    fn spawn_cycles_fail_conc_coverage() {
        // `conc-deadlock` is sound only over a spawn *tree*: with a and b
        // spawning each other, "a waits on its spawner b, b on its
        // spawner a" would pass it while closing a cycle.
        let model = ConcModel {
            component: "red",
            threads: vec![
                spawned("a", "b"),
                spawned("b", "a"),
                spawned("self", "self"),
                spawned("leaf", "a"),
            ],
            channels: vec![],
            edges: vec![
                untimed("a", WaitPoint::SockWrite("b")),
                untimed("b", WaitPoint::SockWrite("a")),
            ],
        };
        let mut report = LintReport::default();
        lint_conc_coverage(&model, &mut report);
        let cyclic: BTreeSet<&str> = ["a", "b", "self", "leaf"]
            .into_iter()
            .filter(|r| {
                report.violations().any(|f| {
                    f.code == "conc-coverage"
                        && f.message
                            .contains(&format!("`{r}` has a `spawned_by` chain"))
                })
            })
            .collect();
        assert_eq!(cyclic.len(), 4, "{:?}", report.findings);

        let mut tree = model.clone();
        tree.threads[0].spawned_by = EXTERN_ROLE;
        tree.threads[2].spawned_by = "leaf";
        let mut report = LintReport::default();
        lint_conc_coverage(&tree, &mut report);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn untimed_downward_ctrl_write_reintroduces_the_shard_cycle() {
        // Documents WHY the root's downward control writes carry a
        // deadline (a *timed* edge): `node.main` blocks untimed writing
        // status/reports up to the root. If the root also blocked untimed
        // writing control lines down to a group — a naive `write_all` of
        // `peers`/`probe`/`stop` into a full pipe while that group is
        // stuck pushing status into a pipe the root is not reading — the
        // two wait in a ring and the control tree wedges. The lint must
        // refuse that flip: the root would wait untimed on its child, not
        // on its spawner, and it names the cycle the wait closes.
        let mut model = ssmfp_cluster::conc::default_model();
        let edge = model
            .edges
            .iter_mut()
            .find(|e| e.thread == "orch.main" && e.waits == WaitPoint::SockWrite("node.main"))
            .expect("orch.main declares its downward ctrl write");
        assert!(
            edge.timed,
            "shipped model bounds this write with a deadline"
        );
        edge.timed = false;
        let mut report = LintReport::default();
        lint_conc_deadlock(&model, &mut report);
        let found: Vec<_> = report
            .violations()
            .filter(|f| f.code == "conc-deadlock")
            .collect();
        assert_eq!(found.len(), 1, "{:?}", report.findings);
        assert!(
            deadlock_names(&report, &["node.main", "orch.main"])
                && found[0].message.contains("it closes the cycle"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn stale_pr7_names_fail_conc_coverage() {
        // The single-thread refactor deleted the `node.io` role and the
        // `node.ioq` channel (with four other roles and channels). An edge
        // that still references either must be a coverage violation —
        // i.e., the names are really gone from the shipped model, and a
        // half-reverted declaration cannot sneak through the lint gate.
        let model = ssmfp_cluster::conc::default_model();
        assert!(model.thread("node.io").is_none(), "node.io role lives on");
        assert!(model.channel("node.ioq").is_none(), "node.ioq lives on");

        let mut stale = model.clone();
        stale.edges.push(BlockingEdge {
            thread: "node.io",
            waits: WaitPoint::SockRead("node.main"),
            timed: true,
        });
        stale
            .edges
            .push(untimed("node.main", WaitPoint::ChanSend("node.ioq")));
        let mut report = LintReport::default();
        lint_conc_coverage(&stale, &mut report);
        let msgs: Vec<&str> = report.violations().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("node.io")),
            "stale role not caught: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("node.ioq")),
            "stale channel not caught: {msgs:?}"
        );
    }

    #[test]
    fn undeclared_client_mux_channel_fails_conc_coverage() {
        // The client layer's design claim: `ClientMux` lives *inside*
        // `node.main` — no new threads or channels. If a future refactor
        // gave it a queue (say a `client.mux` channel feeding sessions
        // from another thread) without declaring it, the edge must fail
        // conc-coverage rather than ship silently.
        let model = ssmfp_cluster::conc::default_model();
        assert!(
            model.channel("client.mux").is_none(),
            "the mux is declared queue-free; a client.mux channel would be a new design"
        );
        let mut stale = model.clone();
        stale
            .edges
            .push(untimed("node.main", WaitPoint::ChanSend("client.mux")));
        let mut report = LintReport::default();
        lint_conc_coverage(&stale, &mut report);
        assert!(
            report.violations().any(|f| f.code == "conc-coverage"
                && f.message.contains("client.mux")
                && f.message.contains("undeclared channel")),
            "{:?}",
            report.findings
        );
    }
}
