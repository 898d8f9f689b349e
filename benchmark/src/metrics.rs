//! The metric registry: every number the benchmark reports, with its
//! unit, its direction, and — for a per-layer metric — the end-to-end
//! metric and workload it is predicted to move. `BENCHMARK.json` and the
//! README glossary list the same names; a test holds the three together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, `<layer>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit (`us` stands for µs: units are ASCII in `BENCHMARK.json`).
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// For a per-layer metric: what it should move, on which workload.
    pub moves: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: Better, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of `ssmfp-cluster` feels. Every workload reports all four.
/// An *operation* is a primary delivered exactly once in node mode and a
/// primary acked at its session in client mode; its latency is one-way
/// (source enqueue to delivery) in node mode and issue-to-ack in client
/// mode. Two of the issue's metrics are diagnostics below, not gates,
/// because on the gated workloads they spread up to 19–21 % from run to
/// run when the box is busy and twice that is beyond the 25 % a bound
/// may be: the latency's p99 (`node.latency_p99_us`,
/// `clients.rtt_p99_us`) and `orchestrator.cpu_us_per_delivery`.
pub const END_TO_END: [Metric; 4] = [
    m("delivered_per_s", "1/s", Higher, ""),
    m("latency_p50_us", "us", Lower, ""),
    m("setup_s", "s", Lower, ""),
    m("peak_rss_mb", "MB", Lower, ""),
];

/// Single-layer metrics: in situ (free from every rep's `RunReport`) and
/// traced (from the layer replay and the traced rep).
pub const PER_LAYER: [Metric; 57] = [
    // node
    m("node.frames_per_delivery", "count", Lower, "delivered_per_s, orchestrator.cpu_us_per_delivery (all workloads)"),
    m("node.frames_per_hop", "count", Lower, "delivered_per_s, orchestrator.cpu_us_per_delivery (all workloads)"),
    m("node.latency_p50_us", "us", Lower, "latency_p50_us (node-mode workloads); the one-way part of the RTT on grid25_clients_chaos"),
    m("node.latency_p99_us", "us", Lower, "the operation's p99 in node mode: reported, not gated"),
    m("node.latency_max_us", "us", Lower, "node.latency_p99_us (all workloads)"),
    m("node.report_codec_ns_per_entry", "ns", Lower, "setup_s (line5_closed)"),
    // evloop
    m("evloop.write_syscalls_per_delivery", "count", Lower, "orchestrator.cpu_us_per_delivery (all workloads), delivered_per_s (line5_closed)"),
    m("evloop.read_syscalls_per_delivery", "count", Lower, "orchestrator.cpu_us_per_delivery (all workloads)"),
    m("evloop.frames_per_write", "count", Higher, "orchestrator.cpu_us_per_delivery (all workloads); more coalescing may raise latency_p50_us (line5_open)"),
    m("evloop.conn_frames_dropped", "count", Lower, "delivered_per_s (all workloads): each is a retransmission"),
    m("evloop.reconnects", "count", Lower, "setup_s (grid100_closed)"),
    m("evloop.heartbeats_per_s", "1/s", Lower, "orchestrator.cpu_us_per_delivery (line5_open, line5_stopwait)"),
    m("evloop.polled_frames_per_s", "1/s", Higher, "delivered_per_s (line5_closed)"),
    m("evloop.polled_frames_per_write", "count", Higher, "orchestrator.cpu_us_per_delivery (all workloads)"),
    m("evloop.writebuf_push_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads)"),
    // port
    m("port.on_message_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads)"),
    m("port.on_timeout_idle_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (grid100_closed); flat on line5_*"),
    m("port.on_timeout_busy_ns", "ns", Lower, "delivered_per_s, orchestrator.cpu_us_per_delivery (grid100_closed); flat on line5_*"),
    m("port.enqueue_send_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads)"),
    m("port.wire_msgs_per_delivery", "count", Lower, "delivered_per_s (all workloads)"),
    m("port.timeouts_per_delivery", "count", Lower, "orchestrator.cpu_us_per_delivery (grid100_closed)"),
    m("port.deliveries_per_cpu_s", "1/s", Higher, "orchestrator.cpu_us_per_delivery (grid100_closed)"),
    // net
    m("net.step_ns", "ns", Lower, "none of the cluster metrics: guards simulator users (soak, cross_model)"),
    m("net.steps_per_delivery", "count", Lower, "none of the cluster metrics: guards simulator users"),
    // wire, frame
    m("wire.encode_ns_per_frame", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads), small: user CPU is the minority share"),
    m("wire.decode_ns_per_frame", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads), small"),
    m("wire.bytes_per_frame", "B", Lower, "orchestrator.cpu_us_per_delivery (all workloads), small"),
    m("frame.to_frame_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads), small"),
    m("frame.to_msg_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads), small"),
    // chaos
    m("chaos.dropped", "count", Lower, "clients.rtt_p99_us (grid25_clients_chaos); 0 elsewhere"),
    m("chaos.duplicated", "count", Lower, "0 outside grid25_clients_chaos"),
    m("chaos.reordered", "count", Lower, "0 outside grid25_clients_chaos"),
    m("chaos.partition_dropped", "count", Lower, "clients.rtt_p99_us (grid25_clients_chaos); 0 elsewhere"),
    m("chaos.shim_ns_per_frame", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads): the shim is always in path"),
    m("chaos.shim_faulty_ns_per_frame", "ns", Lower, "orchestrator.cpu_us_per_delivery (grid25_clients_chaos)"),
    // clients
    m("clients.rtt_p50_us", "us", Lower, "latency_p50_us (grid25_clients_chaos): the same number there"),
    m("clients.rtt_p99_us", "us", Lower, "the operation's p99 on grid25_clients_chaos: reported, not gated"),
    m("clients.rtt_max_us", "us", Lower, "delivered_per_s (grid25_clients_chaos): the last straggler ends the window"),
    m("clients.fair_p50_us", "us", Lower, "latency_p50_us (grid25_clients_chaos)"),
    m("clients.fair_p99_us", "us", Lower, "clients.rtt_p99_us (grid25_clients_chaos)"),
    m("clients.new_ns_per_session", "ns", Lower, "setup_s (grid25_clients_chaos)"),
    m("clients.next_ns_per_issue", "ns", Lower, "delivered_per_s (grid25_clients_chaos)"),
    m("clients.on_ack_ns", "ns", Lower, "delivered_per_s (grid25_clients_chaos)"),
    m("clients.bytes_per_session", "B", Lower, "peak_rss_mb (grid25_clients_chaos)"),
    // workload
    m("workload.open_rate_ratio", "ratio", Higher, "delivered_per_s (line5_open); 0 on closed loops"),
    // ledger
    m("ledger.entries", "count", Lower, "setup_s, peak_rss_mb (line5_closed, grid25_clients_chaos)"),
    m("ledger.reconcile_ledgers_ns_per_entry", "ns", Lower, "setup_s (line5_closed, grid25_clients_chaos)"),
    m("ledger.reconcile_clients_ns_per_entry", "ns", Lower, "setup_s (grid25_clients_chaos)"),
    // orchestrator
    m(
        "orchestrator.cpu_us_per_delivery",
        "us",
        Lower,
        "delivered_per_s (capacity workloads: they run as fast as the CPU allows)",
    ),
    m("orchestrator.sys_cpu_share", "ratio", Lower, "orchestrator.cpu_us_per_delivery (all workloads)"),
    m("orchestrator.run_cluster_s", "s", Lower, "setup_s + measured window (all workloads)"),
    m("orchestrator.empty_run_s", "s", Lower, "setup_s (grid100_closed)"),
    // telemetry, trace
    m("telemetry.record_ns", "ns", Lower, "orchestrator.cpu_us_per_delivery (all workloads), predicted ~0 share"),
    m("telemetry.merge_ns", "ns", Lower, "setup_s (all workloads), predicted ~0 share"),
    m("trace.overhead_ratio", "ratio", Higher, "nothing: the price of tracing, 1 = free"),
    m("trace.span_overhead_ns", "ns", Lower, "nothing: what a span adds to every *_ns above"),
    m("trace.replay_self_time_ratio", "ratio", Higher, "nothing: per-layer self times over replay wall time, 1 = all accounted"),
];

/// A registry entry by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}
