//! Distributed SSMFP cluster runtime: the message-passing port of the
//! snap-stabilizing forwarder (`crates/mp`) deployed as real nodes over
//! OS sockets, with supervised connections, workload generators, and
//! latency/throughput telemetry.
//!
//! Module map:
//! * [`frame`] — lossless bridge between the simulator's `WireMsg` and
//!   the wire codec's `WireFrame` (one ghost identity on both sides).
//! * [`transport`] — [`transport::PolledTransport`], the shipped `Hub`s
//!   behind `ssmfp_mp::Transport`, so the shared exactly-once suite runs
//!   over the links the cluster runs.
//! * [`chaos`] — socket-level fault shim (drop/duplicate/reorder budgets
//!   plus one partition/heal cycle), sharing the simulator's
//!   `FaultClerk` decision procedure.
//! * [`workload`] — open-loop (Poisson) and closed-loop (K outstanding)
//!   generators, with the payload-stamp and ghost-numbering conventions.
//! * [`clients`] — the client multiplexer: up to millions of logical
//!   clients per run, each a ~56-byte session stamping its sends with a
//!   `(client, seq)` identity the shutdown reconcile audits per client
//!   (exactly-once *and* FIFO), with fairness-spread telemetry.
//! * `poller` — the crate's hand-declared syscalls: `Poller` (re-exported
//!   as [`evloop::Poller`]), the persistent `epoll` set and the crate's
//!   one readiness wait; the group's clock (`CLOCK_MONOTONIC` µs); the
//!   fd-limit raise.
//! * [`evloop`] — the links of a node group (`evloop::Hub`): in memory
//!   between two members, else one listener and one simplex stream per
//!   destination address, `Route` frames saying which link a run crossed,
//!   coalescing write buffers (zero-realloc hot path), heartbeat and
//!   reconnect deadlines per stream.
//! * [`node`] — one node as a pure event handler: `Node::on` takes the
//!   frames that arrived and the instant, runs chaos shim, forwarder and
//!   traffic source, and hands back the frames it sends and its next
//!   deadline — no socket, no thread.
//! * `group` — one shard = one node group = one thread = one control
//!   endpoint, and the only driver of `Node::on` in a run: a turn flushes
//!   each of the group's streams once, waits once, reads each ready stream
//!   and the group's one control pipe once and steps only the members
//!   with frames or a passed deadline; the control state and routing
//!   trees are the group's; [`node_main`] (one process per shard) is that
//!   loop over the shard's nodes.
//! * [`codec`] — the lines a group writes up its control pipe: its
//!   `status`, its members' ledger deltas that ride behind every status
//!   line, and their `report … end` blocks at `stop` — written and read as
//!   bytes, by one line folder, and split into lines by `take_lines`,
//!   which both ends of a pipe read through; and a worker process's argv.
//! * [`scenario`] — what a run is: one [`Scenario`], one parser per run
//!   flag, one text form that replays it, and the [`ClusterSpec`] it is.
//! * [`orchestrator`] — the one-level control tree: the root launches K
//!   node groups, runs the stop rule over their status lines, merges
//!   their telemetry, takes the SP verdict from one running join and
//!   renders the JSON run report.
//! * `shard` — the root's side of the groups: it launches each group (a
//!   data thread, or one process per shard), keeps the root's end of each
//!   group's socketpair, writes the control lines down them and reads
//!   every group's lines in one loop, folding each node's ledger into the
//!   run's one join as it streams in.
//! * [`telemetry`] — log-bucketed latency histograms and counters.
//! * [`tuning`] — every runtime knob in one documented [`ClusterTuning`]
//!   struct.

pub mod chaos;
pub mod clients;
pub mod codec;
pub mod evloop;
pub mod frame;
mod group;
pub mod node;
pub mod orchestrator;
mod poller;
pub mod scenario;
mod shard;
pub mod telemetry;
pub mod transport;
pub mod tuning;
pub mod workload;

pub use chaos::{ChaosSpec, PartitionSpec};
pub use clients::{ClientMutation, ClientMux, ClientSpec};
pub use codec::{node_args, parse_chaos, parse_node_args};
pub use group::node_main;
pub use node::{ListenSpec, NodeReport, Run, Status};
pub use orchestrator::{
    pick_partition, run_cluster, shard_ranges, ClusterSpec, Detection, LedgerFlow, Phases, RunMode,
    RunReport, ShardSummary,
};
pub use scenario::{parse_workload, Scenario};
pub use telemetry::{LogHistogram, NodeCounters};
pub use transport::PolledTransport;
pub use tuning::{ClusterTuning, Graces, TUNING};
pub use workload::{is_ack_ghost, WorkloadGen, WorkloadKind, WorkloadSpec};
