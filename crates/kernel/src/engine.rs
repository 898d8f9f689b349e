//! The step/round engine: phase loop, composite-atomic writes, event
//! collection, and the paper's round accounting.

use crate::daemon::Daemon;
use crate::protocol::{Protocol, View};
use ssmfp_topology::{Graph, NodeId};

/// A hook invoked at the top of every [`Engine::step`] call, *before* the
/// terminal check and the daemon's selection — the window in which the
/// paper's transient faults strike ("between daemon selections"). The hook
/// may rewrite node states arbitrarily; it must push the id of every node
/// it touched into `touched` so the engine can re-evaluate the affected
/// guards (each touched node and its whole neighbourhood, exactly as
/// [`Engine::mutate_state`] does). Because the hook runs before the
/// terminal check, it can revive a quiescent network.
///
/// Hook-driven mutations follow the `mutate_state` round-accounting rule:
/// a processor that becomes enabled mid-round does not join the current
/// round's pending set.
pub trait StepHook<P: Protocol> {
    /// Called with the index of the step about to execute, the graph, and
    /// the mutable configuration.
    fn before_step(
        &mut self,
        step: u64,
        graph: &Graph,
        states: &mut [P::State],
        touched: &mut Vec<NodeId>,
    );
}

/// Outcome of a single step attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// No processor is enabled: the configuration is terminal.
    Terminal,
    /// A step was executed by `moved` processors.
    Progress {
        /// Number of processors that executed an action in this step.
        moved: usize,
    },
}

/// A recorded step (only kept when tracing is enabled).
#[derive(Debug, Clone)]
pub struct StepRecord<A> {
    /// Step index (0-based).
    pub step: u64,
    /// Round index at the time the step executed.
    pub round: u64,
    /// Which processors moved and which action each executed.
    pub moves: Vec<(NodeId, A)>,
}

/// An observable protocol event with its time stamps.
#[derive(Debug, Clone)]
pub struct EventRecord<E> {
    /// Step at which the event was emitted.
    pub step: u64,
    /// Round at which the event was emitted.
    pub round: u64,
    /// Emitting processor.
    pub node: NodeId,
    /// The event itself.
    pub event: E,
}

/// Summary of a bounded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Steps executed during this call.
    pub steps: u64,
    /// Rounds *completed* during this call.
    pub rounds: u64,
    /// Whether the run ended in a terminal configuration.
    pub terminal: bool,
}

/// Drives a [`Protocol`] over a [`Graph`] under a [`Daemon`], counting steps
/// and rounds and collecting events.
///
/// ```
/// use ssmfp_kernel::toys::{MaxProtocol, MaxState};
/// use ssmfp_kernel::{Engine, SynchronousDaemon};
/// use ssmfp_topology::gen;
///
/// let mut eng = Engine::new(
///     gen::line(4),
///     MaxProtocol,
///     Box::new(SynchronousDaemon),
///     vec![MaxState(7), MaxState(0), MaxState(0), MaxState(0)],
/// );
/// let stats = eng.run(100);
/// assert!(stats.terminal);
/// assert!(eng.states().iter().all(|s| s.0 == 7));
/// assert_eq!(eng.rounds(), 3); // one synchronous round per wavefront hop
/// ```
///
/// Round accounting follows §2.1 exactly: the first round of an execution is
/// the minimal prefix in which every processor enabled in the initial
/// configuration has either executed an action or been *neutralized*
/// (enabled before a step, not enabled after it, without having executed in
/// it). When that set empties, the round counter increments and the set is
/// re-seeded with the currently enabled processors.
pub struct Engine<P: Protocol> {
    graph: Graph,
    protocol: P,
    daemon: Box<dyn Daemon>,
    states: Vec<P::State>,
    /// Enabled actions per processor in the *current* configuration, in the
    /// protocol's priority order (the composition of `scope_enabled`).
    enabled: Vec<Vec<P::Action>>,
    /// Cached per-scope guard results: `scope_enabled[p][s]` holds the
    /// enabled actions of scope `s` at processor `p`. After a write, only
    /// the scopes whose guard read footprint can intersect the written
    /// variable classes (per [`Protocol::scope_affected_by`]) are
    /// re-evaluated.
    scope_enabled: Vec<Vec<Vec<P::Action>>>,
    /// `protocol.guard_scopes()`, cached.
    scope_count: usize,
    /// When true, ignore the protocol's dirtiness test and refresh every
    /// scope of the written processors and their whole neighbourhoods (the
    /// historical behaviour; kept as a baseline for benchmarks and
    /// equivalence tests).
    full_refresh: bool,
    /// Processors still owed an action/neutralization in the current round.
    pending: Vec<bool>,
    pending_count: usize,
    steps: u64,
    rounds: u64,
    events: Vec<EventRecord<P::Event>>,
    trace: Option<Vec<StepRecord<P::Action>>>,
    /// Optional pre-step hook (fault injection, external stimuli).
    hook: Option<Box<dyn StepHook<P>>>,
    /// Scratch buffers reused across steps (no per-step allocation).
    scratch_list: Vec<(NodeId, usize)>,
    scratch_events: Vec<P::Event>,
    scratch_chosen: Vec<bool>,
    scratch_writes: Vec<(NodeId, P::State, P::Action)>,
    scratch_touched: Vec<(NodeId, P::Action)>,
    scratch_was_enabled: Vec<bool>,
    /// Dirty flags per `(processor, scope)` (flattened `p * scope_count + s`)
    /// plus the marked list used to reset only what was set.
    scratch_dirty: Vec<bool>,
    scratch_marked: Vec<(NodeId, usize)>,
    scratch_recompose: Vec<bool>,
    scratch_hook_touched: Vec<NodeId>,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine from an initial configuration (one state per node).
    pub fn new(graph: Graph, protocol: P, daemon: Box<dyn Daemon>, states: Vec<P::State>) -> Self {
        assert_eq!(
            states.len(),
            graph.n(),
            "configuration size must equal node count"
        );
        let n = graph.n();
        let scope_count = protocol.guard_scopes().max(1);
        let mut eng = Engine {
            graph,
            protocol,
            daemon,
            states,
            enabled: vec![Vec::new(); n],
            scope_enabled: vec![vec![Vec::new(); scope_count]; n],
            scope_count,
            full_refresh: false,
            pending: vec![false; n],
            pending_count: 0,
            steps: 0,
            rounds: 0,
            events: Vec::new(),
            trace: None,
            hook: None,
            scratch_list: Vec::new(),
            scratch_events: Vec::new(),
            scratch_chosen: vec![false; n],
            scratch_writes: Vec::new(),
            scratch_touched: Vec::new(),
            scratch_was_enabled: vec![false; n],
            scratch_dirty: vec![false; n * scope_count],
            scratch_marked: Vec::new(),
            scratch_recompose: vec![false; n],
            scratch_hook_touched: Vec::new(),
        };
        for p in 0..n {
            eng.recompute_enabled(p);
        }
        eng.seed_round();
        eng
    }

    /// Disables (or re-enables) footprint-driven incremental guard refresh.
    /// With `true`, every step refreshes every scope of the written
    /// processors and their neighbourhoods — the engine's historical
    /// behaviour, kept as the comparison baseline.
    pub fn set_full_refresh(&mut self, full: bool) {
        self.full_refresh = full;
    }

    /// Enables step tracing (records every move; memory grows with steps).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[StepRecord<P::Action>]> {
        self.trace.as_deref()
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Current local state of `p`.
    pub fn state(&self, p: NodeId) -> &P::State {
        &self.states[p]
    }

    /// The full current configuration.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Rounds *completed* so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Events emitted so far (with stamps).
    pub fn events(&self) -> &[EventRecord<P::Event>] {
        &self.events
    }

    /// Moves all collected events into `out`, preserving the internal
    /// buffer's capacity.
    pub fn drain_events_into(&mut self, out: &mut Vec<EventRecord<P::Event>>) {
        out.append(&mut self.events);
    }

    /// Whether no processor is enabled.
    pub fn is_terminal(&self) -> bool {
        self.enabled.iter().all(Vec::is_empty)
    }

    /// Identities of currently enabled processors (ascending).
    pub fn enabled_processors(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.graph.n()).filter(|&p| !self.enabled[p].is_empty())
    }

    /// The enabled actions of `p` in the current configuration, in priority
    /// order.
    pub fn enabled_actions_of(&self, p: NodeId) -> &[P::Action] {
        &self.enabled[p]
    }

    /// Externally mutates the state of `p` (higher-layer interaction, fault
    /// injection). Re-evaluates the guards of `p` and its neighbours.
    /// A processor that becomes enabled mid-round was not enabled at the
    /// round's start, so it does not join the round's pending set.
    pub fn mutate_state(&mut self, p: NodeId, f: impl FnOnce(&mut P::State)) {
        f(&mut self.states[p]);
        self.refresh_after_write(p);
    }

    /// Installs a pre-step hook (replacing any previous one). The hook runs
    /// at the top of every subsequent [`Engine::step`] call.
    pub fn set_step_hook(&mut self, hook: Box<dyn StepHook<P>>) {
        self.hook = Some(hook);
    }

    /// Removes and returns the installed pre-step hook, if any.
    pub fn clear_step_hook(&mut self) -> Option<Box<dyn StepHook<P>>> {
        self.hook.take()
    }

    /// Replaces the entire configuration (fault injection: "the system may
    /// start from any configuration"). Resets step/round accounting so the
    /// new configuration is treated as an initial one.
    pub fn reset_configuration(&mut self, states: Vec<P::State>) {
        assert_eq!(states.len(), self.graph.n());
        self.states = states;
        self.steps = 0;
        self.rounds = 0;
        self.events.clear();
        if let Some(t) = &mut self.trace {
            t.clear();
        }
        for p in 0..self.graph.n() {
            self.recompute_enabled(p);
        }
        self.seed_round();
    }

    /// Re-evaluates the guards of one scope at `p` into the scope cache.
    fn recompute_scope(&mut self, p: NodeId, scope: usize) {
        let mut actions = std::mem::take(&mut self.scope_enabled[p][scope]);
        actions.clear();
        {
            let view = View::new(&self.graph, &self.states, p);
            self.protocol.enabled_in_scope(&view, scope, &mut actions);
        }
        self.scope_enabled[p][scope] = actions;
    }

    /// Rebuilds `enabled[p]` from the cached per-scope lists.
    fn recompose(&mut self, p: NodeId) {
        let mut out = std::mem::take(&mut self.enabled[p]);
        out.clear();
        self.protocol
            .compose_scopes(&self.states[p], &self.scope_enabled[p], &mut out);
        self.enabled[p] = out;
    }

    /// Full refresh of one processor: every scope plus the composition.
    fn recompute_enabled(&mut self, p: NodeId) {
        for s in 0..self.scope_count {
            self.recompute_scope(p, s);
        }
        self.recompose(p);
    }

    /// Full refresh of `p` and its whole neighbourhood — used after
    /// arbitrary external mutation ([`Engine::mutate_state`]), where no
    /// footprint bounds the write.
    fn refresh_after_write(&mut self, p: NodeId) {
        self.recompute_enabled(p);
        for i in 0..self.graph.degree(p) {
            let q = self.graph.neighbors(p)[i];
            self.recompute_enabled(q);
        }
    }

    fn seed_round(&mut self) {
        self.pending_count = 0;
        for p in 0..self.graph.n() {
            let en = !self.enabled[p].is_empty();
            self.pending[p] = en;
            if en {
                self.pending_count += 1;
            }
        }
    }

    /// Executes one atomic step: guard evaluation is already cached, the
    /// daemon selects, the chosen processors execute against the pre-step
    /// configuration, and all writes land together.
    pub fn step(&mut self) -> StepOutcome {
        // Phase (0): the pre-step hook (fault injection) may rewrite states
        // before the terminal check — a fault can revive a quiescent
        // network, so the check must see the post-fault configuration.
        if let Some(mut hook) = self.hook.take() {
            let mut touched = std::mem::take(&mut self.scratch_hook_touched);
            touched.clear();
            hook.before_step(self.steps, &self.graph, &mut self.states, &mut touched);
            for &p in &touched {
                self.refresh_after_write(p);
            }
            self.scratch_hook_touched = touched;
            self.hook = Some(hook);
        }

        // Phase (i): guards are current in `self.enabled`.
        self.scratch_list.clear();
        for p in 0..self.graph.n() {
            if !self.enabled[p].is_empty() {
                self.scratch_list.push((p, self.enabled[p].len()));
            }
        }
        if self.scratch_list.is_empty() {
            return StepOutcome::Terminal;
        }

        // Phase (ii): the daemon chooses.
        let selection = {
            let list = std::mem::take(&mut self.scratch_list);
            let sel = self.daemon.select(&list);
            self.scratch_list = list;
            sel
        };
        assert!(
            !selection.choices.is_empty(),
            "daemon '{}' returned an empty selection",
            self.daemon.name()
        );

        // Phase (iii): all chosen processors execute against the PRE-step
        // configuration; their writes are applied together afterwards.
        self.scratch_writes.clear();
        self.scratch_chosen.fill(false);
        for &(p, action_idx) in &selection.choices {
            assert!(
                !self.scratch_chosen[p],
                "daemon '{}' selected processor {p} twice in one step",
                self.daemon.name()
            );
            self.scratch_chosen[p] = true;
            let action = *self.enabled[p]
                .get(action_idx)
                .unwrap_or_else(|| panic!("daemon chose out-of-range action {action_idx} at {p}"));
            self.scratch_events.clear();
            #[cfg(debug_assertions)]
            let new_state = {
                // Debug builds execute through a TrackedView and validate
                // the observed reads/writes against the action's declared
                // footprint (no-op for opaque footprints).
                let tracked = crate::protocol::TrackedView::new(&self.graph, &self.states, p);
                let new_state =
                    self.protocol
                        .execute(&tracked.view(), action, &mut self.scratch_events);
                let declared = self.protocol.footprint(action);
                if !declared.opaque {
                    let label = self.protocol.describe(action);
                    tracked.assert_reads_within(&declared, &label);
                    if let Some(observed) =
                        self.protocol.observe_writes(&self.states[p], &new_state)
                    {
                        crate::footprint::assert_writes_within(&observed, &declared, p, &label);
                    }
                }
                new_state
            };
            #[cfg(not(debug_assertions))]
            let new_state = {
                let view = View::new(&self.graph, &self.states, p);
                self.protocol
                    .execute(&view, action, &mut self.scratch_events)
            };
            for ev in self.scratch_events.drain(..) {
                self.events.push(EventRecord {
                    step: self.steps,
                    round: self.rounds,
                    node: p,
                    event: ev,
                });
            }
            self.scratch_writes.push((p, new_state, action));
        }

        if let Some(trace) = &mut self.trace {
            trace.push(StepRecord {
                step: self.steps,
                round: self.rounds,
                moves: self
                    .scratch_writes
                    .iter()
                    .map(|(p, _, a)| (*p, *a))
                    .collect(),
            });
        }

        // Snapshot which processors were enabled before the writes (for
        // neutralization detection).
        for p in 0..self.graph.n() {
            self.scratch_was_enabled[p] = !self.enabled[p].is_empty();
        }

        // Apply the composite write (states are moved, not cloned).
        self.scratch_touched.clear();
        for (p, new_state, action) in self.scratch_writes.drain(..) {
            self.states[p] = new_state;
            self.scratch_touched.push((p, action));
        }

        // Footprint-driven dirty-set refresh: for each write, mark the
        // `(processor, scope)` guard instances whose declared read footprint
        // can intersect the written variable classes, re-evaluate exactly
        // those, and recompose the affected processors' action lists. With
        // `full_refresh` (or the default monolithic scope), this degenerates
        // to the historical whole-neighbourhood re-evaluation.
        self.scratch_marked.clear();
        {
            let graph = &self.graph;
            let protocol = &self.protocol;
            let scope_count = self.scope_count;
            let full = self.full_refresh;
            let dirty = &mut self.scratch_dirty;
            let marked = &mut self.scratch_marked;
            let recompose = &mut self.scratch_recompose;
            let mut mark = |q: NodeId, s: usize| {
                let idx = q * scope_count + s;
                if !dirty[idx] {
                    dirty[idx] = true;
                    marked.push((q, s));
                }
            };
            for &(p, action) in &self.scratch_touched {
                let p_nbrs = graph.neighbors(p);
                // The writer always recomposes: action ordering may depend
                // on its own (just written) state even when no guard does.
                recompose[p] = true;
                for s in 0..scope_count {
                    if full || protocol.scope_affected_by(action, p, p_nbrs, p, p_nbrs, s) {
                        mark(p, s);
                    }
                }
                for &q in p_nbrs {
                    let q_nbrs = graph.neighbors(q);
                    for s in 0..scope_count {
                        if full || protocol.scope_affected_by(action, p, p_nbrs, q, q_nbrs, s) {
                            mark(q, s);
                        }
                    }
                }
            }
        }
        for i in 0..self.scratch_marked.len() {
            let (q, s) = self.scratch_marked[i];
            self.recompute_scope(q, s);
            self.scratch_recompose[q] = true;
        }
        for i in 0..self.scratch_marked.len() {
            let (q, s) = self.scratch_marked[i];
            self.scratch_dirty[q * self.scope_count + s] = false;
        }
        for q in 0..self.graph.n() {
            if self.scratch_recompose[q] {
                self.scratch_recompose[q] = false;
                self.recompose(q);
            }
        }

        // Round accounting: executors leave the pending set; so do
        // neutralized processors (enabled before, not after, did not move).
        for &(p, _) in &self.scratch_touched {
            if self.pending[p] {
                self.pending[p] = false;
                self.pending_count -= 1;
            }
        }
        for p in 0..self.graph.n() {
            if self.pending[p]
                && self.scratch_was_enabled[p]
                && self.enabled[p].is_empty()
                && !self.scratch_chosen[p]
            {
                self.pending[p] = false;
                self.pending_count -= 1;
            }
        }

        self.steps += 1;
        if self.pending_count == 0 {
            self.rounds += 1;
            self.seed_round();
        }

        StepOutcome::Progress {
            moved: self.scratch_touched.len(),
        }
    }

    /// Runs until terminal or `max_steps`, returning run statistics.
    pub fn run(&mut self, max_steps: u64) -> RunStats {
        let start_steps = self.steps;
        let start_rounds = self.rounds;
        let mut terminal = false;
        while self.steps - start_steps < max_steps {
            match self.step() {
                StepOutcome::Terminal => {
                    terminal = true;
                    break;
                }
                StepOutcome::Progress { .. } => {}
            }
        }
        RunStats {
            steps: self.steps - start_steps,
            rounds: self.rounds - start_rounds,
            terminal,
        }
    }

    /// Runs until `stop` returns true, the configuration is terminal, or
    /// `max_steps` elapse. `stop` is evaluated after every step.
    pub fn run_until(&mut self, max_steps: u64, mut stop: impl FnMut(&Self) -> bool) -> RunStats {
        let start_steps = self.steps;
        let start_rounds = self.rounds;
        let mut terminal = false;
        while self.steps - start_steps < max_steps {
            match self.step() {
                StepOutcome::Terminal => {
                    terminal = true;
                    break;
                }
                StepOutcome::Progress { .. } => {
                    if stop(self) {
                        break;
                    }
                }
            }
        }
        RunStats {
            steps: self.steps - start_steps,
            rounds: self.rounds - start_rounds,
            terminal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{RoundRobinDaemon, SynchronousDaemon};
    use crate::toys::{MaxProtocol, MaxState};
    use ssmfp_topology::gen;

    fn max_engine(n: usize, values: Vec<u64>, daemon: Box<dyn Daemon>) -> Engine<MaxProtocol> {
        let g = gen::line(n);
        let states = values.into_iter().map(MaxState).collect();
        Engine::new(g, MaxProtocol, daemon, states)
    }

    #[test]
    fn converges_to_terminal() {
        let mut eng = max_engine(5, vec![3, 1, 4, 1, 5], Box::new(SynchronousDaemon));
        let stats = eng.run(1_000);
        assert!(stats.terminal);
        assert!(eng.states().iter().all(|s| s.0 == 5));
        assert!(eng.is_terminal());
    }

    #[test]
    fn synchronous_rounds_equal_propagation_distance() {
        // Max value at node 0 of a line: under the synchronous daemon the
        // value reaches node n−1 in exactly n−1 steps, each step being one
        // round (every enabled processor moves every step).
        let n = 6;
        let mut eng = max_engine(n, vec![9, 0, 0, 0, 0, 0], Box::new(SynchronousDaemon));
        let stats = eng.run(1_000);
        assert!(stats.terminal);
        assert_eq!(eng.steps(), (n - 1) as u64);
        // Completed rounds = n−1 (the final check that nothing is enabled
        // does not start a new round).
        assert_eq!(eng.rounds(), (n - 1) as u64);
    }

    #[test]
    fn round_robin_counts_rounds() {
        let mut eng = max_engine(4, vec![7, 0, 0, 0], Box::new(RoundRobinDaemon::new()));
        let stats = eng.run(1_000);
        assert!(stats.terminal);
        // Rounds are bounded by steps, and at least the propagation distance.
        assert!(eng.rounds() >= 3);
        assert!(eng.rounds() <= eng.steps());
        assert!(eng.states().iter().all(|s| s.0 == 7));
    }

    #[test]
    fn terminal_step_reports_terminal() {
        let mut eng = max_engine(3, vec![2, 2, 2], Box::new(SynchronousDaemon));
        assert!(eng.is_terminal());
        assert_eq!(eng.step(), StepOutcome::Terminal);
        assert_eq!(eng.steps(), 0);
    }

    #[test]
    fn mutate_state_reenables() {
        let mut eng = max_engine(3, vec![1, 1, 1], Box::new(SynchronousDaemon));
        assert!(eng.is_terminal());
        eng.mutate_state(0, |s| s.0 = 8);
        assert!(!eng.is_terminal());
        let stats = eng.run(100);
        assert!(stats.terminal);
        assert!(eng.states().iter().all(|s| s.0 == 8));
    }

    #[test]
    fn reset_configuration_restarts_accounting() {
        let mut eng = max_engine(3, vec![1, 0, 0], Box::new(SynchronousDaemon));
        eng.run(100);
        assert!(eng.steps() > 0);
        eng.reset_configuration(vec![MaxState(5), MaxState(0), MaxState(0)]);
        assert_eq!(eng.steps(), 0);
        assert_eq!(eng.rounds(), 0);
        let stats = eng.run(100);
        assert!(stats.terminal);
        assert!(eng.states().iter().all(|s| s.0 == 5));
    }

    #[test]
    fn trace_records_moves() {
        let mut eng = max_engine(3, vec![4, 0, 0], Box::new(RoundRobinDaemon::new()));
        eng.enable_trace();
        eng.run(100);
        let trace = eng.trace().unwrap();
        assert!(!trace.is_empty());
        assert!(trace.iter().all(|r| r.moves.len() == 1)); // central daemon
    }

    /// A toy fault hook: at one chosen step, overwrite one node's value.
    struct SpikeHook {
        at_step: u64,
        node: NodeId,
        value: u64,
        fired: bool,
    }

    impl StepHook<MaxProtocol> for SpikeHook {
        fn before_step(
            &mut self,
            step: u64,
            _graph: &Graph,
            states: &mut [MaxState],
            touched: &mut Vec<NodeId>,
        ) {
            if !self.fired && step >= self.at_step {
                states[self.node].0 = self.value;
                touched.push(self.node);
                self.fired = true;
            }
        }
    }

    #[test]
    fn step_hook_revives_terminal_network() {
        // Converge first, then install a hook that injects a larger value:
        // the very next step() must see the new enabled processor instead
        // of reporting Terminal, and the network re-converges to it.
        let mut eng = max_engine(4, vec![3, 0, 0, 0], Box::new(SynchronousDaemon));
        assert!(eng.run(100).terminal);
        assert!(eng.is_terminal());
        let resume_at = eng.steps();
        eng.set_step_hook(Box::new(SpikeHook {
            at_step: resume_at,
            node: 2,
            value: 9,
            fired: false,
        }));
        let stats = eng.run(100);
        assert!(stats.terminal);
        assert!(eng.states().iter().all(|s| s.0 == 9));
        assert!(eng.clear_step_hook().is_some());
    }

    #[test]
    fn step_hook_fires_before_daemon_selection() {
        // The hook rewrites node 0 at step 0, before any move: the run
        // must propagate the hook's value, not the initial one.
        let mut eng = max_engine(3, vec![5, 0, 0], Box::new(SynchronousDaemon));
        eng.set_step_hook(Box::new(SpikeHook {
            at_step: 0,
            node: 0,
            value: 8,
            fired: false,
        }));
        let stats = eng.run(100);
        assert!(stats.terminal);
        assert!(eng.states().iter().all(|s| s.0 == 8));
    }

    #[test]
    fn run_until_stops_early() {
        let mut eng = max_engine(
            10,
            (0..10).rev().map(|v| v as u64).collect(),
            Box::new(RoundRobinDaemon::new()),
        );
        let stats = eng.run_until(10_000, |e| e.state(9).0 == 9);
        assert!(!stats.terminal || eng.state(9).0 == 9);
        assert_eq!(eng.state(9).0, 9);
    }
}
