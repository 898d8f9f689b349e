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
//! * [`orchestrator`] — the sharded control tree: the root writes every
//!   group's control lines straight down its socketpair, hears K shards on
//!   one channel, works O(shards) per status, merges their pre-merged
//!   telemetry and running joins into the SP verdict and renders the JSON
//!   run report.
//! * `shard` — a `shard.super` thread supervising its shard's one node
//!   group (a data thread, or one process per shard) by listening on the
//!   group's socketpair: it passes status up and folds each node's ledger
//!   as it streams in, and writes nothing down.
//! * [`telemetry`] — log-bucketed latency histograms and counters.
//! * [`tuning`] — every runtime knob in one documented [`ClusterTuning`]
//!   struct, consumed by both the running code and the declared model.
//! * [`conc`] — the declared concurrency model (three thread roles, one
//!   bounded channel, the blocking edges) feeding `ssmfp-lint`'s `conc-*`
//!   passes and the debug-build runtime assertions.

pub mod chaos;
pub mod clients;
pub mod codec;
pub mod conc;
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
    RunReport, ShardReport, ShardSummary,
};
pub use scenario::{parse_workload, Scenario};
pub use telemetry::{LogHistogram, NodeCounters};
pub use transport::PolledTransport;
pub use tuning::{ClusterTuning, TUNING};
pub use workload::{is_ack_ghost, WorkloadGen, WorkloadKind, WorkloadSpec};
