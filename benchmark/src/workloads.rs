//! The harness's workloads and how each becomes a `ClusterSpec`.
//!
//! Every workload runs the in-process cluster over Unix-domain sockets;
//! `--seed` is the run seed and the chaos seed. Rep sizes were chosen on
//! a 2-core box so that one full rep measures 4–7 s of steady traffic
//! (a 10-node-second run is mostly convergence-detector tail).

use ssmfp_cluster::{
    pick_partition, ChaosSpec, ClientSpec, ClusterSpec, ListenSpec, RunMode, WorkloadKind,
    WorkloadSpec,
};
use ssmfp_topology::{gen, Graph};
use std::path::Path;
use std::time::Duration;

/// A rep that has not converged after this long is a failed rep. Three
/// of these (warm-up, one rep, teardown slack) still fit the 180 s a
/// single benchmark invocation may take.
const REP_TIMEOUT: Duration = Duration::from_secs(50);

/// How much of a workload's full size a rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A measured rep.
    Full,
    /// The discarded warm-up rep: a quarter of the messages.
    Warmup,
    /// `--smoke` and the crate's tests: about a twentieth.
    Smoke,
    /// One message per node or client: bring-up and teardown with no
    /// traffic to speak of (a run of *zero* messages never converges —
    /// the detector waits for `generated > 0`).
    Minimal,
}

/// Who issues the traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// `node_main`'s own generator: this discipline on every node.
    Nodes(WorkloadKind),
    /// The client mux: this many logical clients across the cluster, each
    /// running the discipline.
    Clients(u64, WorkloadKind),
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Topology label (the `ssmfp-cluster --topology` spelling).
    pub topology: &'static str,
    graph: fn() -> Graph,
    /// Traffic source and discipline.
    pub load: Load,
    /// Messages per node (or per client) in a full rep.
    pub messages: u64,
    /// The CLI's documented chaos level: 2 faults per link plus one
    /// partition/heal cycle of 40 arrivals from arrival 20.
    pub chaos: bool,
    /// Orchestrator shards.
    pub shards: usize,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver
    /// holds its end-to-end metrics to their bounds. The capacity
    /// workloads run as fast as the CPU allows and mirror the machine's
    /// speed one for one; on the box they were sized on that speed swings
    /// by more than any bound may be (see README, Noise), so they are
    /// reported, not gated.
    pub gated: bool,
    /// Messages per node (or per client) in the single-thread layer
    /// replay: enough calls into every layer for a steady mean, few enough
    /// that the span file stays in the tens of megabytes.
    pub replay_messages: u64,
    /// Messages per node in the `MpNetwork::step` replay, whose scheduler
    /// costs O(n²) per step.
    pub net_messages: u64,
}

/// The harness's workloads: the two `BENCHMARK.json` gates on first, then
/// the three capacity workloads it only reports.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "line5_open",
        topology: "line:5",
        graph: || gen::line(5),
        load: Load::Nodes(WorkloadKind::Open {
            rate_per_sec: 500.0,
        }),
        messages: 2500,
        chaos: false,
        shards: 1,
        gated: true,
        replay_messages: 600,
        net_messages: 200,
    },
    Workload {
        name: "line5_stopwait",
        topology: "line:5",
        graph: || gen::line(5),
        load: Load::Nodes(WorkloadKind::Closed { outstanding: 1 }),
        messages: 1500,
        chaos: false,
        shards: 1,
        gated: true,
        replay_messages: 600,
        net_messages: 200,
    },
    Workload {
        name: "line5_closed",
        topology: "line:5",
        graph: || gen::line(5),
        load: Load::Nodes(WorkloadKind::Closed { outstanding: 4 }),
        messages: 8000,
        chaos: false,
        shards: 1,
        gated: false,
        replay_messages: 600,
        net_messages: 200,
    },
    Workload {
        name: "grid25_clients_chaos",
        topology: "grid:5x5",
        graph: || gen::grid(5, 5),
        load: Load::Clients(2000, WorkloadKind::Closed { outstanding: 1 }),
        messages: 30,
        chaos: true,
        shards: 1,
        gated: false,
        replay_messages: 1,
        net_messages: 20,
    },
    Workload {
        name: "grid100_closed",
        topology: "grid:10x10",
        graph: || gen::grid(10, 10),
        load: Load::Nodes(WorkloadKind::Closed { outstanding: 2 }),
        messages: 300,
        chaos: false,
        shards: 4,
        gated: false,
        replay_messages: 12,
        net_messages: 2,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The topology.
    pub fn graph(&self) -> Graph {
        (self.graph)()
    }

    /// Whether the client mux issues the traffic.
    pub fn client_mode(&self) -> bool {
        matches!(self.load, Load::Clients(..))
    }

    /// Messages per node (or per client) at `scale`.
    pub fn messages_at(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Full => self.messages,
            Scale::Warmup => (self.messages / 4).max(1),
            Scale::Smoke => (self.messages / 20).max(1),
            Scale::Minimal => 1,
        }
    }

    /// Operations a rep at `scale` asks the cluster to complete: primaries
    /// to deliver in node mode, primaries to get acked in client mode.
    pub fn operations_at(&self, scale: Scale) -> u64 {
        let per = self.messages_at(scale);
        match self.load {
            Load::Nodes(_) => self.graph().n() as u64 * per,
            Load::Clients(clients, _) => clients * per,
        }
    }

    /// Offered primaries per second across the cluster (open loop only).
    pub fn offered_per_s(&self) -> Option<f64> {
        match self.load {
            Load::Nodes(WorkloadKind::Open { rate_per_sec }) => {
                Some(rate_per_sec * self.graph().n() as f64)
            }
            Load::Clients(clients, WorkloadKind::Open { rate_per_sec }) => {
                Some(rate_per_sec * clients as f64)
            }
            _ => None,
        }
    }

    /// The client-layer spec with `messages` per client, when in client
    /// mode.
    pub fn client_spec(&self, messages: u64) -> Option<ClientSpec> {
        match self.load {
            Load::Nodes(_) => None,
            Load::Clients(clients, kind) => Some(ClientSpec {
                clients,
                load: WorkloadSpec { kind, messages },
                mutation: None,
            }),
        }
    }

    /// The node-level spec with `messages` per node (ignored by
    /// `node_main` in client mode, where the mux issues instead).
    pub fn node_spec(&self, messages: u64) -> WorkloadSpec {
        let kind = match self.load {
            Load::Nodes(kind) => kind,
            Load::Clients(..) => WorkloadKind::Closed { outstanding: 1 },
        };
        WorkloadSpec { kind, messages }
    }

    /// The chaos level for `seed`, derived as the CLI derives it. The
    /// minimal run takes none: with a handful of frames per link the
    /// partition window swallows them all and the run measures
    /// retransmission backoff, not bring-up.
    pub fn chaos_spec(&self, graph: &Graph, seed: u64, scale: Scale) -> ChaosSpec {
        if !self.chaos || scale == Scale::Minimal {
            return ChaosSpec::none();
        }
        ChaosSpec {
            seed: seed ^ 0xC4A0_5C4A_05C4_A05C,
            faults_per_link: 2,
            partition: Some(pick_partition(graph, seed, 20, 40)),
        }
    }

    /// The full cluster run for one rep, listening under `uds_dir`.
    pub fn cluster_spec(&self, seed: u64, scale: Scale, uds_dir: &Path) -> ClusterSpec {
        let graph = self.graph();
        let messages = self.messages_at(scale);
        ClusterSpec {
            topology: self.topology.to_string(),
            seed,
            workload: self.node_spec(messages),
            chaos: self.chaos_spec(&graph, seed, scale),
            listen: ListenSpec::Uds {
                dir: uds_dir.to_path_buf(),
            },
            clients: self.client_spec(messages),
            shards: self.shards,
            mode: RunMode::Inproc,
            timeout: REP_TIMEOUT,
            graph,
        }
    }
}
