//! Declared **concurrency footprints** for the runtime layers, plus the
//! debug-build instrumentation that keeps the declarations honest.
//!
//! The protocol rules declare their read/write footprints and are gated
//! by `ssmfp-lint`; this module applies the same pattern to runtime
//! concurrency. A component with real threads (today: `crates/cluster`;
//! `crates/mp` declares itself thread-free) publishes a [`ConcModel`]:
//!
//! * its **thread roles** ([`ThreadDecl`]) — every kind of thread it may
//!   spawn, with the role that spawns it;
//! * its **channels** ([`ChannelDecl`]) — each cross-thread queue with its
//!   bound (a full queue blocks the sender);
//! * its **blocking edges** ([`BlockingEdge`]) — every point where a
//!   thread role can block, on what, and whether the wait has a deadline.
//!
//! `ssmfp-lint`'s `conc-*` passes check these declarations statically
//! (referential coverage and a spawn tree, bounded channels, untimed
//! waits that point only at the spawner). The runtime side of the
//! contract lives here too: [`tracked_channel`] refuses to construct a
//! channel whose declaration has no bound, [`TrackedSender`] asserts the
//! sender's role, and the thread [`registry`](register_thread) records
//! every role that actually ran so tests can confront observed spawns
//! with the declaration ([`ConcModel::undeclared_observed`]).
//!
//! Everything assertion-shaped is `debug_assertions`-gated: release
//! builds pay nothing, exactly like `TrackedView` on the state-model
//! side.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};

/// Spawner name for threads created by the embedding harness (test
/// runner, `main`), outside any declared role.
pub const EXTERN_ROLE: &str = "extern";

/// One declared thread role.
#[derive(Debug, Clone)]
pub struct ThreadDecl {
    /// Role name, e.g. `"node.main"`. Unique within a component.
    pub role: &'static str,
    /// Role that spawns it ([`EXTERN_ROLE`] for harness-created threads).
    pub spawned_by: &'static str,
    /// One-line description for reports.
    pub doc: &'static str,
}

/// One declared cross-thread channel. A full queue blocks its sender.
#[derive(Debug, Clone)]
pub struct ChannelDecl {
    /// Channel name, unique within a component.
    pub name: &'static str,
    /// Roles that may send on it.
    pub senders: Vec<&'static str>,
    /// The single role that receives from it.
    pub receiver: &'static str,
    /// Queue bound. `None` means unbounded — the `conc-unbounded` lint
    /// rejects it and [`tracked_channel`] refuses to construct it.
    pub bound: Option<usize>,
    /// One-line description for reports.
    pub doc: &'static str,
}

/// What a blocking edge waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPoint {
    /// Blocked sending on the named full channel.
    ChanSend(&'static str),
    /// Blocked receiving on the named empty channel.
    ChanRecv(&'static str),
    /// Blocked reading a socket; the operand names the *peer* role whose
    /// writes unblock it.
    SockRead(&'static str),
    /// Blocked writing a socket (kernel buffer full); the operand names
    /// the peer role whose reads unblock it.
    SockWrite(&'static str),
    /// Blocked in `accept()`; the operand names the dialing peer role.
    Accept(&'static str),
}

impl WaitPoint {
    /// Short label for findings.
    pub fn describe(&self) -> String {
        match self {
            WaitPoint::ChanSend(c) => format!("send on full channel `{c}`"),
            WaitPoint::ChanRecv(c) => format!("recv on empty channel `{c}`"),
            WaitPoint::SockRead(p) => format!("socket read (fed by `{p}`)"),
            WaitPoint::SockWrite(p) => format!("socket write (drained by `{p}`)"),
            WaitPoint::Accept(p) => format!("accept (dialed by `{p}`)"),
        }
    }
}

/// One declared blocking edge: *thread X can block on Y*.
#[derive(Debug, Clone)]
pub struct BlockingEdge {
    /// The blocking thread role.
    pub thread: &'static str,
    /// What it waits on.
    pub waits: WaitPoint,
    /// Whether the wait has a deadline (`recv_timeout`, a timed `epoll`
    /// wait). Timed waits cannot wedge; `conc-deadlock` checks the rest.
    pub timed: bool,
}

/// The full declared concurrency model of one component.
#[derive(Debug, Clone, Default)]
pub struct ConcModel {
    /// Component name (`"cluster"`, `"mp"`).
    pub component: &'static str,
    /// Declared thread roles.
    pub threads: Vec<ThreadDecl>,
    /// Declared channels.
    pub channels: Vec<ChannelDecl>,
    /// Declared blocking edges.
    pub edges: Vec<BlockingEdge>,
}

impl ConcModel {
    /// The declaration of a thread role, if present.
    pub fn thread(&self, role: &str) -> Option<&ThreadDecl> {
        self.threads.iter().find(|t| t.role == role)
    }

    /// The declaration of a channel, if present.
    pub fn channel(&self, name: &str) -> Option<&ChannelDecl> {
        self.channels.iter().find(|c| c.name == name)
    }

    /// The declaration of a channel, or a panic: runtime construction
    /// must go through a declaration, so a missing one is a model bug.
    pub fn channel_decl(&self, name: &str) -> &ChannelDecl {
        self.channel(name)
            .unwrap_or_else(|| panic!("channel `{name}` is not declared in `{}`", self.component))
    }

    /// Confronts the runtime thread registry with the declaration:
    /// returns every observed role of this component that the model does
    /// not declare (empty in a correct build). Debug-build tests call
    /// this after exercising the component.
    pub fn undeclared_observed(&self, observed: &[String]) -> Vec<String> {
        observed
            .iter()
            .filter(|r| self.thread(r).is_none())
            .cloned()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Runtime thread registry (debug builds).
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<BTreeMap<(String, String), u64>> {
    static REG: OnceLock<Mutex<BTreeMap<(String, String), u64>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

thread_local! {
    /// The declared role of the current thread, for channel sender-role
    /// assertions. `None` for harness threads outside any model.
    static CURRENT_ROLE: RefCell<Option<(String, String)>> = const { RefCell::new(None) };
}

/// Declares the current thread to be an instance of `role` within
/// `component`. Debug builds record it in the global registry (for
/// [`ConcModel::undeclared_observed`]) and remember it thread-locally so
/// tracked channels can assert sender roles. A release no-op.
///
/// Each registration that actually *changes* the calling thread's role
/// bumps the component's registration counter (see
/// [`registered_thread_count`]); re-registering the same role on the same
/// thread is idempotent, so a long-lived supervisor thread re-entering
/// the same role across runs does not inflate the count.
pub fn register_thread(component: &str, role: &str) {
    if cfg!(debug_assertions) {
        let pair = (component.to_string(), role.to_string());
        let already = CURRENT_ROLE.with(|r| r.borrow().as_ref() == Some(&pair));
        if !already {
            *registry()
                .lock()
                .expect("conc registry")
                .entry(pair.clone())
                .or_insert(0) += 1;
            CURRENT_ROLE.with(|r| *r.borrow_mut() = Some(pair));
        }
    }
}

/// Every role observed so far for `component`, sorted. Empty in release
/// builds (nothing is recorded there).
pub fn observed_threads(component: &str) -> Vec<String> {
    registry()
        .lock()
        .expect("conc registry")
        .keys()
        .filter(|(c, _)| c == component)
        .map(|(_, r)| r.clone())
        .collect()
}

/// Total number of thread-role registrations recorded for `component` so
/// far (cumulative across the process lifetime; zero in release builds).
/// Tests bound a run's thread footprint by measuring the delta across the
/// run: an inproc cluster run must register at most
/// `2 · shards + O(1)` new roles.
pub fn registered_thread_count(component: &str) -> u64 {
    registry()
        .lock()
        .expect("conc registry")
        .iter()
        .filter(|((c, _), _)| c == component)
        .map(|(_, n)| *n)
        .sum()
}

/// The share of [`registered_thread_count`] that registered as `role` —
/// for the tests that pin how many threads of one role a run takes.
pub fn registered_role_count(component: &str, role: &str) -> u64 {
    registry()
        .lock()
        .expect("conc registry")
        .get(&(component.to_string(), role.to_string()))
        .copied()
        .unwrap_or(0)
}

/// Spawns a thread pre-registered as `role` of `component`. The one
/// blessed way for a modeled component to create a thread — a bare
/// `thread::spawn` in `cluster`/`mp` is a review smell, and a role that
/// drifts from the declaration fails the debug-build coverage check.
pub fn spawn_registered<F, T>(
    component: &'static str,
    role: &'static str,
    f: F,
) -> std::thread::JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::spawn(move || {
        register_thread(component, role);
        f()
    })
}

// ---------------------------------------------------------------------------
// Tracked channels: declared bound, declared senders.
// ---------------------------------------------------------------------------

/// Sending half of a tracked channel: (debug builds) asserts that the
/// calling thread's registered role is among the declared senders.
pub struct TrackedSender<M> {
    tx: SyncSender<M>,
    name: &'static str,
    component: &'static str,
    senders: Arc<Vec<&'static str>>,
}

impl<M> Clone for TrackedSender<M> {
    fn clone(&self) -> Self {
        TrackedSender {
            tx: self.tx.clone(),
            name: self.name,
            component: self.component,
            senders: self.senders.clone(),
        }
    }
}

impl<M> TrackedSender<M> {
    /// Sends, blocking while the queue is full (backpressure deliberately
    /// propagates to the caller). Fails only when the receiver is gone.
    pub fn send(&self, msg: M) -> Result<(), SendError<M>> {
        self.assert_sender_role();
        self.tx.send(msg)
    }

    fn assert_sender_role(&self) {
        if cfg!(debug_assertions) {
            CURRENT_ROLE.with(|r| {
                if let Some((component, role)) = r.borrow().as_ref() {
                    // Threads registered under another component (or not
                    // registered at all) are outside this model's
                    // jurisdiction — unit tests drive channels directly.
                    if component == self.component && !self.senders.iter().any(|s| s == role) {
                        panic!(
                            "undeclared sender: thread role `{role}` sent on channel `{}`, \
                             whose declared senders are {:?}",
                            self.name, self.senders
                        );
                    }
                }
            });
        }
    }
}

/// Constructs the channel a [`ChannelDecl`] describes: a bounded
/// `sync_channel` of exactly the declared capacity, with a
/// [`TrackedSender`] asserting the declared senders. Panics if the
/// declaration is unbounded — the same condition the `conc-unbounded`
/// lint rejects statically, so an undeclared unbounded channel cannot be
/// constructed at runtime either.
pub fn tracked_channel<M>(
    component: &'static str,
    decl: &ChannelDecl,
) -> (TrackedSender<M>, Receiver<M>) {
    let bound = decl.bound.unwrap_or_else(|| {
        panic!(
            "channel `{}` is declared unbounded — every cross-thread channel must declare \
             a bound (conc-unbounded)",
            decl.name
        )
    });
    let (tx, rx) = sync_channel(bound);
    (
        TrackedSender {
            tx,
            name: decl.name,
            component,
            senders: Arc::new(decl.senders.clone()),
        },
        rx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan_decl(name: &'static str, bound: Option<usize>) -> ChannelDecl {
        ChannelDecl {
            name,
            senders: vec!["t.sender"],
            receiver: "t.receiver",
            bound,
            doc: "",
        }
    }

    /// Extracts the human-readable message from a `join()` panic payload
    /// (its `Debug` impl only prints `Any { .. }`).
    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        if let Some(s) = err.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = err.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        }
    }

    #[test]
    fn undeclared_unbounded_channel_is_refused() {
        // Runtime red test: a declaration without a bound cannot be built.
        let caught = std::thread::spawn(|| {
            let _ = tracked_channel::<u64>("t", &chan_decl("c", None));
        })
        .join();
        let msg = panic_message(caught.expect_err("unbounded must panic"));
        assert!(msg.contains("conc-unbounded"), "{msg}");
    }

    #[test]
    fn full_channel_blocks_until_drained() {
        let (tx, rx) = tracked_channel::<u64>("t", &chan_decl("block", Some(1)));
        assert!(tx.send(1).is_ok());
        let drainer = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
        assert!(tx.send(2).is_ok()); // may block until drained
        drop(tx);
        assert_eq!(drainer.join().unwrap(), vec![1, 2]);
        let (tx, rx) = tracked_channel::<u64>("t", &chan_decl("gone", Some(1)));
        drop(rx);
        assert!(tx.send(3).is_err(), "a send to a dropped receiver fails");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "registry is debug-only")]
    fn registry_records_roles_and_model_confronts_them() {
        spawn_registered("conc-test", "t.writer", || {})
            .join()
            .unwrap();
        spawn_registered("conc-test", "t.rogue", || {})
            .join()
            .unwrap();
        let observed = observed_threads("conc-test");
        assert!(observed.contains(&"t.writer".to_string()));
        let model = ConcModel {
            component: "conc-test",
            threads: vec![ThreadDecl {
                role: "t.writer",
                spawned_by: EXTERN_ROLE,
                doc: "",
            }],
            ..Default::default()
        };
        assert_eq!(model.undeclared_observed(&observed), vec!["t.rogue"]);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "sender-role assertion is debug-only")]
    fn undeclared_sender_role_panics() {
        let (tx, _rx) = tracked_channel::<u64>("conc-test2", &chan_decl("roles", Some(4)));
        let good = tx.clone();
        std::thread::spawn(move || {
            register_thread("conc-test2", "t.sender");
            assert!(good.send(1).is_ok());
        })
        .join()
        .unwrap();
        let bad = tx.clone();
        let caught = std::thread::spawn(move || {
            register_thread("conc-test2", "t.other");
            let _ = bad.send(2);
        })
        .join();
        let msg = panic_message(caught.expect_err("undeclared sender must panic"));
        assert!(msg.contains("undeclared sender"), "{msg}");
    }
}
