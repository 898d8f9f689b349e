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
//! * [`node`] — one node = **one resumable task**, one shard = one
//!   thread: a turn of `run_nodes` flushes each of the group's streams
//!   once, waits once, reads each ready stream once and steps only the
//!   nodes with frames, a ready control pipe or a passed deadline —
//!   forwarder, workload and control state machine — and [`node_main`] (a
//!   node process) is that loop with a group of one.
//! * [`codec`] — the lines a node writes up its control pipe: its group's
//!   `status`, the ledger deltas that ride behind every status line, and
//!   the `report … end` block at `stop` — written and read as bytes, by
//!   one line folder.
//! * [`orchestrator`] — the sharded control tree: K `shard.super`
//!   threads each supervise a node group (one data thread or a process
//!   per node), folding each node's ledger as it streams in and
//!   pre-merging status and telemetry so the root works O(shards) per
//!   tick, then one global ledger reconciliation renders the SP verdict
//!   and the JSON run report.
//! * [`telemetry`] — log-bucketed latency histograms and counters.
//! * [`tuning`] — every runtime knob in one documented [`ClusterTuning`]
//!   struct, consumed by both the running code and the declared model.
//! * [`conc`] — the declared concurrency model (thread roles, lock ranks,
//!   channel bounds, blocking edges) feeding `ssmfp-lint`'s `conc-*`
//!   passes and the debug-build runtime assertions.

pub mod chaos;
pub mod clients;
pub mod codec;
pub mod conc;
pub mod evloop;
pub mod frame;
pub mod node;
pub mod orchestrator;
pub mod telemetry;
pub mod transport;
pub mod tuning;
pub mod workload;

pub use chaos::{ChaosSpec, PartitionSpec};
pub use clients::{ClientMutation, ClientMux, ClientSpec};
pub use codec::{node_args, parse_chaos, parse_node_args, parse_workload};
pub use evloop::CtrlPipe;
pub use node::{node_main, ListenSpec, NodeConfig, NodeReport, Status};
pub use orchestrator::{
    pick_partition, run_cluster, shard_ranges, ClusterSpec, Detection, LedgerFlow, Phases, RunMode,
    RunReport, ShardReport, ShardSummary,
};
pub use telemetry::{LogHistogram, NodeCounters};
pub use transport::PolledTransport;
pub use tuning::{ClusterTuning, TUNING};
pub use workload::{is_ack_ghost, WorkloadGen, WorkloadKind, WorkloadSpec};
