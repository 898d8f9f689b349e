//! [`Network`]: the state model's one higher layer, for any protocol
//! whose local state implements [`HigherLayer`].
//!
//! A `Network<P>` owns a state-model [`Engine`] running `P`, plays the
//! *higher layer* of Algorithm 1 (enqueueing messages and raising
//! `request_p`), and feeds every observable event into a
//! [`DeliveryLedger`]. [`Network::audit`] judges the run with
//! [`reconcile_ledgers`], the port's and the cluster's join. `P` defaults
//! to [`SsmfpProtocol`] (SSMFP + routing algorithm `A` with priority),
//! which alone has the configured constructor, `SP`'s Proposition 4 clause
//! ([`Network::check_sp`]) and fault plans; the fault-free baseline is
//! [`crate::baseline::BaselineNetwork`].

use crate::choice::ChoiceStrategy;
use crate::faults::{FaultCursor, FaultInjector, FaultPlan, SeededBug};
use crate::ledger::{reconcile_ledgers, ClusterVerdict, DeliveryLedger, SpViolation};
use crate::message::{GhostId, Payload};
use crate::protocol::{Event, SsmfpProtocol};
use crate::state::{HigherLayer, NodeState, Outgoing};
use crate::trajectory::TrajectoryLog;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssmfp_kernel::engine::EventRecord;
use ssmfp_kernel::{
    AdversarialDaemon, CentralRandomDaemon, Daemon, DistributedRandomDaemon, Engine,
    LocallyCentralDaemon, Protocol, RoundRobinDaemon, StepOutcome, SynchronousDaemon,
};
use ssmfp_routing::{corruption, CorruptionKind};
use ssmfp_topology::{Graph, NodeId};

/// Which daemon schedules the execution.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonKind {
    /// Every enabled processor moves each step.
    Synchronous,
    /// Central weakly-fair rotation (the proofs' assumption).
    RoundRobin,
    /// Central uniform random.
    CentralRandom {
        /// RNG seed.
        seed: u64,
    },
    /// Central uniform random over processors *and* over each chosen
    /// processor's enabled actions (full scheduling nondeterminism; used
    /// with `routing_priority = false` to emulate a slow routing layer).
    CentralRandomAction {
        /// RNG seed.
        seed: u64,
    },
    /// Distributed: each enabled processor moves with probability `p_move`.
    DistributedRandom {
        /// RNG seed.
        seed: u64,
        /// Per-processor inclusion probability.
        p_move: f64,
    },
    /// Locally central: a random maximal set of enabled processors, no two
    /// adjacent.
    LocallyCentral {
        /// RNG seed.
        seed: u64,
    },
    /// Unfair: starves `victims` while anyone else is enabled.
    Adversarial {
        /// RNG seed.
        seed: u64,
        /// Starved processors.
        victims: Vec<NodeId>,
    },
    /// Unfair *and* action-nondeterministic: starves `victims` and runs a
    /// uniformly random enabled action at the chosen processor (the fully
    /// adversarial daemon of the model).
    AdversarialRandomAction {
        /// RNG seed.
        seed: u64,
        /// Starved processors.
        victims: Vec<NodeId>,
    },
}

impl DaemonKind {
    /// Instantiates the daemon. `LocallyCentral` needs the topology, so
    /// prefer [`DaemonKind::build_for`] where a graph is at hand.
    pub fn build(&self) -> Box<dyn Daemon> {
        assert!(
            !matches!(self, DaemonKind::LocallyCentral { .. }),
            "LocallyCentral needs the graph: use build_for"
        );
        self.build_inner(None)
    }

    /// Instantiates the daemon for a specific network graph.
    pub fn build_for(&self, graph: &Graph) -> Box<dyn Daemon> {
        self.build_inner(Some(graph))
    }

    fn build_inner(&self, graph: Option<&Graph>) -> Box<dyn Daemon> {
        match self {
            DaemonKind::Synchronous => Box::new(SynchronousDaemon),
            DaemonKind::RoundRobin => Box::new(RoundRobinDaemon::new()),
            DaemonKind::CentralRandom { seed } => Box::new(CentralRandomDaemon::new(*seed)),
            DaemonKind::CentralRandomAction { seed } => {
                Box::new(CentralRandomDaemon::with_random_action(*seed))
            }
            DaemonKind::DistributedRandom { seed, p_move } => {
                Box::new(DistributedRandomDaemon::new(*seed, *p_move))
            }
            DaemonKind::Adversarial { seed, victims } => {
                Box::new(AdversarialDaemon::new(*seed, victims.clone()))
            }
            DaemonKind::AdversarialRandomAction { seed, victims } => Box::new(
                AdversarialDaemon::with_random_action(*seed, victims.clone()),
            ),
            DaemonKind::LocallyCentral { seed } => Box::new(LocallyCentralDaemon::from_graph(
                *seed,
                graph.expect("LocallyCentral needs the graph: use build_for"),
            )),
        }
    }
}

/// How a [`Network`] is initialized.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Scheduling daemon.
    pub daemon: DaemonKind,
    /// Initial routing-table corruption.
    pub corruption: CorruptionKind,
    /// Probability that each buffer initially holds an invalid message.
    pub garbage_fill: f64,
    /// Master seed for garbage placement.
    pub seed: u64,
    /// Whether `A` has priority over SSMFP (the paper's assumption; turn
    /// off only for ablations).
    pub routing_priority: bool,
    /// The `choice_p(d)` selection strategy (E13 ablation; default: the
    /// paper's rotation queue).
    pub choice_strategy: ChoiceStrategy,
    /// A deterministic protocol bug to plant (soak-oracle self-test only;
    /// `None` is the real protocol).
    pub seeded_bug: Option<SeededBug>,
}

impl NetworkConfig {
    /// Clean start: correct tables, empty buffers, weakly-fair daemon —
    /// the Proposition 1 setting.
    pub fn clean() -> Self {
        NetworkConfig {
            daemon: DaemonKind::RoundRobin,
            corruption: CorruptionKind::None,
            garbage_fill: 0.0,
            seed: 0,
            routing_priority: true,
            choice_strategy: ChoiceStrategy::RotationQueue,
            seeded_bug: None,
        }
    }

    /// Adversarial start: random-garbage tables, every buffer filled with
    /// an invalid message with probability ½, central random daemon — the
    /// snap-stabilization gauntlet of Propositions 2/3.
    pub fn adversarial(seed: u64) -> Self {
        NetworkConfig {
            daemon: DaemonKind::CentralRandom { seed },
            corruption: CorruptionKind::RandomGarbage,
            garbage_fill: 0.5,
            seed,
            routing_priority: true,
            choice_strategy: ChoiceStrategy::RotationQueue,
            seeded_bug: None,
        }
    }

    /// Replaces the daemon.
    pub fn with_daemon(mut self, daemon: DaemonKind) -> Self {
        self.daemon = daemon;
        self
    }

    /// Replaces the corruption kind.
    pub fn with_corruption(mut self, corruption: CorruptionKind) -> Self {
        self.corruption = corruption;
        self
    }

    /// Replaces the garbage fill probability.
    pub fn with_garbage_fill(mut self, fill: f64) -> Self {
        self.garbage_fill = fill;
        self
    }

    /// Replaces the `choice_p(d)` strategy.
    pub fn with_choice_strategy(mut self, strategy: ChoiceStrategy) -> Self {
        self.choice_strategy = strategy;
        self
    }

    /// Plants a deterministic protocol bug (soak-oracle self-test only).
    pub fn with_seeded_bug(mut self, bug: SeededBug) -> Self {
        self.seeded_bug = Some(bug);
        self
    }
}

/// Why `run_until_delivered` stopped without a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryTimeout {
    /// Steps executed during the call.
    pub steps_run: u64,
}

/// Statistics of a bounded run of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetRunStats {
    /// Steps executed.
    pub steps: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Whether the network reached quiescence (terminal configuration).
    pub quiescent: bool,
}

/// The executable network: a state-model [`Engine`] running protocol `P`
/// behind Algorithm 1's higher layer, with every event fed into a
/// [`DeliveryLedger`].
///
/// ```
/// use ssmfp_core::{Network, NetworkConfig};
/// use ssmfp_topology::gen;
///
/// // Snap-stabilization: corrupted tables + garbage buffers, and the
/// // message still arrives exactly once.
/// let mut net = Network::new(gen::ring(5), NetworkConfig::adversarial(7));
/// let msg = net.send(0, 2, 42);
/// net.run_until_delivered(msg, 1_000_000).expect("delivered");
/// assert_eq!(net.deliveries_of(msg), 1);
/// assert!(net.check_sp().is_empty());
/// ```
pub struct Network<P: Protocol<Event = Event> = SsmfpProtocol> {
    engine: Engine<P>,
    ledger: DeliveryLedger,
    trajectories: Option<TrajectoryLog>,
    next_valid: u64,
    /// Reused event drain buffer (pump runs once per step; draining into a
    /// fresh Vec each time would allocate on the hot path).
    event_buf: Vec<EventRecord<Event>>,
}

impl<P: Protocol<Event = Event, State: HigherLayer>> Network<P> {
    /// Wraps a built engine with an empty ledger.
    pub(crate) fn with_engine(engine: Engine<P>) -> Self {
        Network {
            engine,
            ledger: DeliveryLedger::new(),
            trajectories: None,
            next_valid: 0,
            event_buf: Vec::new(),
        }
    }

    /// Enables per-message trajectory recording (the Lemma 1 life-cycle
    /// monitor; see [`crate::trajectory`]).
    pub fn enable_trajectories(&mut self) {
        if self.trajectories.is_none() {
            self.trajectories = Some(TrajectoryLog::new());
        }
    }

    /// The trajectory log, if enabled.
    pub fn trajectories(&self) -> Option<&TrajectoryLog> {
        self.trajectories.as_ref()
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        self.engine.graph()
    }

    /// The underlying engine (read access for diagnostics).
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the engine (trace enabling, fault injection).
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// The ground-truth delivery ledger.
    pub fn ledger(&self) -> &DeliveryLedger {
        &self.ledger
    }

    /// Current configuration.
    pub fn states(&self) -> &[P::State] {
        self.engine.states()
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.engine.steps()
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.engine.rounds()
    }

    /// Hands a message to the higher layer of `src` for destination `dst`
    /// and raises `request_src` if it is down. Returns the ghost identity
    /// used to track the message through the ledger.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: Payload) -> GhostId {
        assert!(src < self.graph().n(), "source out of range");
        assert!(dst < self.graph().n(), "destination out of range");
        let ghost = GhostId::Valid(self.next_valid);
        self.next_valid += 1;
        self.engine.mutate_state(src, |s| {
            s.enqueue(Outgoing {
                dest: dst,
                payload,
                ghost,
            })
        });
        ghost
    }

    /// Executes one protocol step, absorbs events, and plays the higher
    /// layer (re-raising `request_p` wherever messages still wait).
    pub fn pump(&mut self) -> StepOutcome {
        let outcome = self.engine.step();
        self.event_buf.clear();
        self.engine.drain_events_into(&mut self.event_buf);
        self.ledger.absorb(&self.event_buf);
        if let Some(log) = &mut self.trajectories {
            log.absorb(&self.event_buf);
        }
        // Higher layer: re-arm requests (the paper's blocking wait ends as
        // soon as the protocol lowers the bit and a message still waits).
        for p in 0..self.graph().n() {
            if self.engine.state(p).request_lapsed() {
                self.engine.mutate_state(p, P::State::raise_request);
            }
        }
        outcome
    }

    /// Runs for at most `max_steps`, stopping early at quiescence.
    pub fn run(&mut self, max_steps: u64) -> NetRunStats {
        let s0 = self.engine.steps();
        let r0 = self.engine.rounds();
        let mut quiescent = false;
        while self.engine.steps() - s0 < max_steps {
            if let StepOutcome::Terminal = self.pump() {
                quiescent = true;
                break;
            }
        }
        NetRunStats {
            steps: self.engine.steps() - s0,
            rounds: self.engine.rounds() - r0,
            quiescent,
        }
    }

    /// Runs until `ghost` is delivered (returns the rounds elapsed during
    /// the call up to the delivery) or `max_steps` elapse.
    pub fn run_until_delivered(
        &mut self,
        ghost: GhostId,
        max_steps: u64,
    ) -> Result<u64, DeliveryTimeout> {
        let s0 = self.engine.steps();
        let r0 = self.engine.rounds();
        if self.deliveries_of(ghost) > 0 {
            return Ok(0);
        }
        while self.engine.steps() - s0 < max_steps {
            match self.pump() {
                StepOutcome::Terminal => break,
                StepOutcome::Progress { .. } => {
                    if self.deliveries_of(ghost) > 0 {
                        return Ok(self.engine.rounds() - r0);
                    }
                }
            }
        }
        Err(DeliveryTimeout {
            steps_run: self.engine.steps() - s0,
        })
    }

    /// Runs until terminal (quiescent) or `max_steps`.
    pub fn run_to_quiescence(&mut self, max_steps: u64) -> bool {
        self.run(max_steps).quiescent
    }

    /// Number of times `ghost` has been delivered.
    pub fn deliveries_of(&self, ghost: GhostId) -> u64 {
        self.ledger.deliveries_of(ghost)
    }

    /// Messages currently occupying buffers anywhere in the network.
    pub fn messages_in_flight(&self) -> usize {
        self.states().iter().map(|s| s.held().count()).sum()
    }

    /// What each node holds in its buffers, by node.
    fn held(&self) -> Vec<Vec<GhostId>> {
        self.states().iter().map(|s| s.held().collect()).collect()
    }

    /// The run's exactly-once verdict: [`reconcile_ledgers`] over the
    /// ledger cut into per-node slices — the port's and the cluster's
    /// join (see [`DeliveryLedger::node_ledgers`]).
    pub fn audit(&self) -> ClusterVerdict {
        reconcile_ledgers(&self.ledger.node_ledgers(0, self.held()))
    }
}

impl Network {
    /// Builds an SSMFP network on `graph` according to `config`.
    pub fn new(graph: Graph, config: NetworkConfig) -> Self {
        let n = graph.n();
        let delta = graph.max_degree();
        let routing_states = corruption::corrupt(&graph, config.corruption, config.seed);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xD1B5_4A32_D192_ED03);
        let mut next_invalid = 0u64;
        let states: Vec<NodeState> = routing_states
            .into_iter()
            .enumerate()
            .map(|(p, r)| {
                let mut s = NodeState::clean(n, r);
                if config.garbage_fill > 0.0 {
                    s.scatter_garbage(&graph, p, config.garbage_fill, &mut rng, &mut next_invalid);
                }
                s
            })
            .collect();
        let mut proto = SsmfpProtocol::new(n, delta).with_choice_strategy(config.choice_strategy);
        if !config.routing_priority {
            proto = proto.without_routing_priority();
        }
        if let Some(bug) = config.seeded_bug {
            proto = proto.with_seeded_bug(bug);
        }
        let daemon = config.daemon.build_for(&graph);
        Network::with_engine(Engine::new(graph, proto, daemon, states))
    }

    /// Audits Specification `SP` against the current configuration: the
    /// join's violations, then Proposition 4's (see
    /// [`DeliveryLedger::check_sp_since`]).
    pub fn check_sp(&self) -> Vec<SpViolation> {
        self.check_sp_since(0)
    }

    /// Audits `SP` for the post-fault epoch: only messages generated at
    /// step `>= since_step` are held to exactly-once (see
    /// [`DeliveryLedger::check_sp_since`]).
    pub fn check_sp_since(&self, since_step: u64) -> Vec<SpViolation> {
        self.ledger.check_sp_since(since_step, self.held())
    }

    /// Installs a [`FaultPlan`] as the engine's step hook and returns the
    /// shared cursor tracking its progress (fired count, epoch step, warp
    /// floor). Replaces any previously installed plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) -> std::sync::Arc<FaultCursor> {
        let injector = FaultInjector::new(plan);
        let cursor = injector.cursor();
        self.engine.set_step_hook(Box::new(injector));
        cursor
    }

    /// The composed protocol, for advanced scenarios.
    pub fn protocol(&self) -> &SsmfpProtocol {
        self.engine.protocol()
    }

    /// Injects an arbitrary configuration (snap-stabilization starts from
    /// *any* configuration). Resets ledger and counters.
    pub fn reset_configuration(&mut self, states: Vec<NodeState>) {
        self.engine.reset_configuration(states);
        self.ledger = DeliveryLedger::new();
        if self.trajectories.is_some() {
            self.trajectories = Some(TrajectoryLog::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_topology::gen;

    #[test]
    fn clean_network_delivers_exactly_once() {
        let mut net = Network::new(gen::line(5), NetworkConfig::clean());
        let ghost = net.send(0, 4, 42);
        let rounds = net.run_until_delivered(ghost, 100_000).expect("delivered");
        assert!(rounds > 0);
        assert_eq!(net.deliveries_of(ghost), 1);
        assert!(net.check_sp().is_empty());
    }

    #[test]
    fn clean_network_reaches_quiescence_after_delivery() {
        let mut net = Network::new(gen::ring(6), NetworkConfig::clean());
        let g1 = net.send(0, 3, 1);
        let g2 = net.send(2, 5, 2);
        assert!(net.run_to_quiescence(1_000_000));
        assert_eq!(net.deliveries_of(g1), 1);
        assert_eq!(net.deliveries_of(g2), 1);
        assert_eq!(net.messages_in_flight(), 0);
        assert!(net.check_sp().is_empty());
    }

    #[test]
    fn self_send_is_delivered() {
        let mut net = Network::new(gen::line(3), NetworkConfig::clean());
        let ghost = net.send(1, 1, 9);
        net.run_until_delivered(ghost, 10_000).expect("delivered");
        assert_eq!(net.deliveries_of(ghost), 1);
    }

    #[test]
    fn adversarial_network_still_delivers_exactly_once() {
        let mut net = Network::new(gen::ring(5), NetworkConfig::adversarial(7));
        let ghost = net.send(0, 2, 77);
        net.run_until_delivered(ghost, 2_000_000)
            .expect("snap-stabilization: delivered despite corruption");
        assert_eq!(net.deliveries_of(ghost), 1);
        // Exactly-once for ALL valid messages, bounded invalid deliveries.
        assert!(net.check_sp().is_empty(), "{:?}", net.check_sp());
    }

    #[test]
    fn many_messages_all_destinations() {
        let mut net = Network::new(gen::grid(3, 3), NetworkConfig::clean());
        let mut ghosts = Vec::new();
        for s in 0..9 {
            for d in 0..9 {
                if s != d {
                    ghosts.push(net.send(s, d, (s * 9 + d) as u64));
                }
            }
        }
        assert!(net.run_to_quiescence(5_000_000), "must drain");
        for g in ghosts {
            assert_eq!(net.deliveries_of(g), 1);
        }
        assert!(net.check_sp().is_empty());
    }

    #[test]
    fn send_out_of_range_panics() {
        let mut net = Network::new(gen::line(3), NetworkConfig::clean());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.send(0, 7, 1);
        }));
        assert!(r.is_err());
    }
}
