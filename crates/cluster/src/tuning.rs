//! Every tunable constant of the cluster runtime in one documented place.
//! The runtime consumes [`TUNING`].

use std::time::Duration;

/// The cluster runtime's knobs. One instance ([`TUNING`]) configures the
/// running code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTuning {
    /// Main-loop granularity: protocol timeouts fire at most this often.
    pub tick_ms: u64,
    /// Idle gap after which a link emits a heartbeat.
    pub heartbeat_ms: u64,
    /// Status keep-alive period: a group's line to the orchestrator when
    /// nothing sent one sooner.
    pub status_every_ms: u64,
    /// Reconnect backoff base in ms (doubles per attempt, capped,
    /// jittered).
    pub backoff_base_ms: u64,
    /// Reconnect backoff cap in ms.
    pub backoff_cap_ms: u64,
    /// Dial attempts before a link gives up (node is shutting down or
    /// the peer is gone for good).
    pub max_dial_attempts: u32,
    /// Poll interval while waiting for a worker process to exit.
    pub proc_wait_poll_ms: u64,
    /// Adaptive-batching byte budget: the node loop stops appending
    /// queued frames to one connection's write buffer past this many
    /// pending bytes and flushes first. When the loop is idle a single
    /// frame flushes immediately — the budget only shapes behaviour under
    /// load.
    pub batch_max_bytes: usize,
    /// Adaptive-batching frame budget per `write()` (same role as
    /// [`ClusterTuning::batch_max_bytes`], counted in frames).
    pub batch_max_frames: usize,
    /// Hard cap on bytes buffered for one congested connection. Beyond
    /// it, new frames for that peer are shed as counted wire drops (the
    /// retransmission path recovers), which keeps the write buffer — and
    /// therefore the zero-realloc guarantee — bounded even against a peer
    /// that stops reading.
    pub out_buf_cap_bytes: usize,
    /// Size of the node loop's reusable read scratch buffer.
    pub io_read_chunk: usize,
    /// Client-mux issue budget per main-loop iteration. With millions of
    /// hosted sessions the mux can have an arbitrarily deep ready queue;
    /// the budget bounds how long one iteration stays away from the
    /// socket pump (fairness between client fan-in and I/O), while the
    /// round-robin ready queue guarantees no session starves across
    /// iterations.
    pub client_send_budget: u32,
    /// Best-effort flush window for still-buffered frames at shutdown.
    pub io_flush_grace_ms: u64,
}

/// The tuning the cluster runtime actually runs with.
pub const TUNING: ClusterTuning = ClusterTuning {
    tick_ms: 1,
    heartbeat_ms: 50,
    // 10ms: only the keep-alive. A group writes its status the turn its cut
    // goes quiet, the root reads it in its next turn, and one probe wave
    // confirms it, so a run's end waits on no period.
    status_every_ms: 10,
    backoff_base_ms: 4,
    backoff_cap_ms: 250,
    max_dial_attempts: 400,
    proc_wait_poll_ms: 10,
    batch_max_bytes: 32 * 1024,
    batch_max_frames: 512,
    out_buf_cap_bytes: 256 * 1024,
    io_read_chunk: 64 * 1024,
    io_flush_grace_ms: 50,
    client_send_budget: 2048,
};

impl Default for ClusterTuning {
    fn default() -> Self {
        TUNING
    }
}

impl ClusterTuning {
    /// [`ClusterTuning::proc_wait_poll_ms`] as a `Duration`.
    pub fn proc_wait_poll(&self) -> Duration {
        Duration::from_millis(self.proc_wait_poll_ms)
    }

    /// Reconnect backoff for the given in-session attempt number, in ms
    /// (exclusive of jitter).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        (self.backoff_base_ms << attempt.min(6)).min(self.backoff_cap_ms)
    }
}

/// The root's waits past a run's deadline, each derived from the run's
/// own timeout by [`Graces::of`], so a run with a short timeout also
/// fails a wedged group in short order: a group that stops answering
/// holds a run at most `report + exit` past its deadline.
#[derive(Debug, Clone, Copy)]
pub struct Graces {
    /// For the reports after `stop`, and for each control line down the
    /// groups' pipes: `min(timeout, 20 s)`.
    pub report: Duration,
    /// For every group to exit once its pipe is shut, under one deadline,
    /// before the root kills the processes left: `min(timeout, 5 s)`.
    pub exit: Duration,
}

impl Graces {
    /// The graces of a run whose convergence timeout is `timeout`.
    pub fn of(timeout: Duration) -> Graces {
        Graces {
            report: timeout.min(Duration::from_secs(20)),
            exit: timeout.min(Duration::from_secs(5)),
        }
    }
}
