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
//! * [`evloop`] — a data thread's I/O machinery: [`evloop::Poller`], the
//!   persistent `epoll` set and the crate's one readiness wait, coalescing
//!   write buffers (zero-realloc hot path), and `evloop::Hub`,
//!   the links of one group of nodes — in memory between two members,
//!   else one listener and one simplex stream per destination address,
//!   `Route` frames saying which link a run crossed — with heartbeat and
//!   reconnect deadlines per stream.
//! * [`node`] — one node = **one resumable task**, one shard = one group
//!   = one thread = one control endpoint: a turn of `run_group` flushes
//!   each of the group's streams once, waits once, reads each ready
//!   stream and the group's one control pipe once and steps only the
//!   nodes with frames or a passed deadline — forwarder and workload; the
//!   control state and routing trees are the group's — and [`node_main`]
//!   (one process per shard) is that loop over the shard's nodes.
//! * [`codec`] — the lines a group writes up its control pipe: its
//!   `status`, its members' ledger deltas that ride behind every status
//!   line, and their `report … end` blocks at `stop` — written and read as
//!   bytes, by one line folder; and a worker process's argv.
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
pub mod node;
pub mod orchestrator;
pub mod scenario;
mod shard;
pub mod telemetry;
pub mod transport;
pub mod tuning;
pub mod workload;

pub use chaos::{ChaosSpec, PartitionSpec};
pub use clients::{ClientMutation, ClientMux, ClientSpec};
pub use codec::{node_args, parse_chaos, parse_node_args};
pub use node::{node_main, ListenSpec, NodeReport, Run, Status};
pub use orchestrator::{
    pick_partition, run_cluster, shard_ranges, ClusterSpec, Detection, LedgerFlow, Phases, RunMode,
    RunReport, ShardSummary,
};
pub use scenario::{parse_workload, Scenario};
pub use telemetry::{LogHistogram, NodeCounters};
pub use transport::PolledTransport;
pub use tuning::{ClusterTuning, TUNING};
pub use workload::{is_ack_ghost, WorkloadGen, WorkloadKind, WorkloadSpec};
