//! Latency histograms and per-node counters.
//!
//! [`LogHistogram`] is the standard log-linear ("HDR") layout: values are
//! bucketed by power of two with 16 linear sub-buckets per power, giving
//! a worst-case relative error of 1/16 ≈ 6% at any magnitude — accurate
//! enough for p50…p999 reporting without storing samples.

/// Linear sub-buckets per power of two (must be a power of two).
const SUB: u64 = 16;
const SUB_BITS: u32 = 4;
/// Bucket count: values below `SUB` get exact buckets, then one group of
/// `SUB` buckets per remaining power of two of the u64 range.
const BUCKETS: usize = (SUB as usize) + ((64 - SUB_BITS as usize) * SUB as usize);

/// The fixed bucket capacity of every [`LogHistogram`] — and therefore
/// the hard size bound of any serialized/merged histogram, however many
/// samples went in. Root-side merge work is O(this), never O(samples):
/// the telemetry-complexity regression tests pin against it.
pub const BUCKET_CAPACITY: usize = BUCKETS;

/// A log-linear histogram of microsecond latencies (any u64 unit works;
/// the cluster records µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let group = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB - 1)) as usize;
    SUB as usize + group * SUB as usize + sub
}

/// Representative (midpoint) value of a bucket index.
fn value_of(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let group = ((idx - SUB as usize) / SUB as usize) as u32;
    let sub = ((idx - SUB as usize) % SUB as usize) as u64;
    let base = 1u64 << (group + SUB_BITS);
    let width = 1u64 << group;
    base + sub * width + width / 2
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` (representative bucket
    /// midpoint; 0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max; // the tail quantile is known exactly
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Sparse `(bucket index, count)` pairs, for serialization.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuilds a histogram from [`LogHistogram::nonzero_buckets`] output
    /// plus the exact max/sum carried alongside.
    pub fn from_parts(pairs: &[(usize, u64)], max: u64, sum: u64) -> Self {
        let mut h = Self::new();
        for &(i, c) in pairs {
            if i < BUCKETS {
                h.buckets[i] += c;
                h.count += c;
            }
        }
        h.max = max;
        h.sum = sum;
        h
    }

    /// Exact sum of recorded values (for mean reconstruction).
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// Per-node transport, chaos and forwarder work counters, reported at
/// shutdown. The sockets are the group's, so the five socket counters
/// (heartbeats, reconnects, the two syscall counts, connection drops) ride
/// the report of the group's last member to retire and are zero in the
/// others; sums over a run's reports are the run's totals either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Data-plane frames handed to writer queues.
    pub frames_sent: u64,
    /// Data-plane frames received (pre-chaos).
    pub frames_received: u64,
    /// Heartbeats written on idle streams.
    pub heartbeats_sent: u64,
    /// Successful (re)connections dialed, beyond the first per stream.
    pub reconnects: u64,
    /// Frames the chaos shim dropped.
    pub chaos_dropped: u64,
    /// Frames the chaos shim duplicated.
    pub chaos_duplicated: u64,
    /// Frames the chaos shim reordered.
    pub chaos_reordered: u64,
    /// Frames dropped by the partition window.
    pub partition_dropped: u64,
    /// `write()` syscalls on data connections. Together with
    /// `frames_sent` this makes the coalescing ratio observable:
    /// frames per write ≈ `frames_sent / write_syscalls`.
    pub write_syscalls: u64,
    /// `read()` syscalls that returned data.
    pub read_syscalls: u64,
    /// Frames lost with a dying connection, shed at the per-stream
    /// out-buffer cap or routed to a node that had already retired — counted wire drops, distinct from the chaos
    /// shim's deliberate ones.
    pub conn_frames_dropped: u64,
    /// `on_timeout` calls: one after every step that received a frame,
    /// and one per tick while a retransmission timer runs.
    pub timeouts: u64,
    /// Slots the `on_timeout` walks visited: the active ones, so per
    /// frame it does not grow with `n` (the work counter for the
    /// forwarder's cost).
    pub slot_visits: u64,
    /// The group's readiness waits (`epoll_pwait2`): a work counter of
    /// the group, on its last member, as `write_syscalls` is.
    pub waits: u64,
}

impl NodeCounters {
    /// Field-wise accumulation, the single merge path for both levels of
    /// the shard tree: shard summaries sum their nodes' counters with it,
    /// and the orchestrator sums shard summaries with it. One definition
    /// means the merged report *is* the flat sum (pinned by a test).
    pub fn add(&mut self, other: &NodeCounters) {
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.heartbeats_sent += other.heartbeats_sent;
        self.reconnects += other.reconnects;
        self.chaos_dropped += other.chaos_dropped;
        self.chaos_duplicated += other.chaos_duplicated;
        self.chaos_reordered += other.chaos_reordered;
        self.partition_dropped += other.partition_dropped;
        self.write_syscalls += other.write_syscalls;
        self.read_syscalls += other.read_syscalls;
        self.conn_frames_dropped += other.conn_frames_dropped;
        self.timeouts += other.timeouts;
        self.slot_visits += other.slot_visits;
        self.waits += other.waits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 65_535, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last || v == 0, "bucket regressed at {v}");
            last = b;
            // The representative value is within 1/16 of the true value.
            let rep = value_of(b);
            if v >= SUB {
                let err = (rep as f64 - v as f64).abs() / v as f64;
                assert!(err < 1.0 / 8.0, "error {err} at {v} (rep {rep})");
            } else {
                assert_eq!(rep, v);
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.1, "p50 {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.1, "p99 {p99}");
        assert_eq!(h.quantile(1.0), 10_000);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut u = LogHistogram::new();
        for v in 0..500u64 {
            let target = if v % 2 == 0 { &mut a } else { &mut b };
            target.record(v * 7);
            u.record(v * 7);
        }
        a.merge(&b);
        assert_eq!(a.count(), u.count());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(a.quantile(q), u.quantile(q));
        }
        assert_eq!(a.max(), u.max());
    }

    /// Hierarchical aggregation must be invisible: summing per-node
    /// counters shard-by-shard and then summing the shard totals gives
    /// exactly the flat sum over all nodes, for any sharding. Same for
    /// histograms (merge of merges == merge of all).
    #[test]
    fn sharded_merge_equals_flat_sum() {
        // 10 synthetic node counter sets with distinct values per field.
        let nodes: Vec<NodeCounters> = (0..10u64)
            .map(|i| NodeCounters {
                frames_sent: 100 + i,
                frames_received: 200 + 2 * i,
                heartbeats_sent: i,
                reconnects: i % 3,
                chaos_dropped: 7 * i,
                chaos_duplicated: i / 2,
                chaos_reordered: 3 * i,
                partition_dropped: i % 5,
                write_syscalls: 50 + i,
                read_syscalls: 60 + i,
                conn_frames_dropped: i % 2,
                timeouts: 70 + i,
                slot_visits: 80 + 3 * i,
                waits: 90 + i,
            })
            .collect();

        let mut flat = NodeCounters::default();
        for n in &nodes {
            flat.add(n);
        }

        for shards in [1usize, 2, 3, 4, 10] {
            let chunk = nodes.len().div_ceil(shards);
            let mut top = NodeCounters::default();
            for group in nodes.chunks(chunk) {
                let mut shard_sum = NodeCounters::default();
                for n in group {
                    shard_sum.add(n);
                }
                top.add(&shard_sum);
            }
            assert_eq!(top, flat, "sharded sum diverged at shards={shards}");
        }

        // Histograms: merging per-shard merges equals merging everything.
        let mut per_node: Vec<LogHistogram> = Vec::new();
        for i in 0..10u64 {
            let mut h = LogHistogram::new();
            for v in 0..50u64 {
                h.record(i * 1000 + v * 13);
            }
            per_node.push(h);
        }
        let mut flat_h = LogHistogram::new();
        for h in &per_node {
            flat_h.merge(h);
        }
        let mut top_h = LogHistogram::new();
        for group in per_node.chunks(3) {
            let mut shard_h = LogHistogram::new();
            for h in group {
                shard_h.merge(h);
            }
            top_h.merge(&shard_h);
        }
        assert_eq!(top_h, flat_h);
    }

    #[test]
    fn roundtrip_through_parts() {
        let mut h = LogHistogram::new();
        for v in [3u64, 900, 12_345, 1 << 30] {
            h.record(v);
        }
        let back = LogHistogram::from_parts(&h.nonzero_buckets(), h.max(), h.sum());
        assert_eq!(back.count(), h.count());
        assert_eq!(back.quantile(0.5), h.quantile(0.5));
        assert_eq!(back.max(), h.max());
    }
}
