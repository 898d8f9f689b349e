//! The lines a node writes up its control pipe (the protocol is
//! [`crate::node`]'s): its group's `status` ([`Status`]), the `gen` /
//! `del` ledger delta it writes behind every status line (`push_delta`),
//! and the `report … end` block at `stop`, whose `gen` / `del` carry only
//! the tail ([`write_report`]). Numbers are ASCII decimal, written with a
//! digit-pair table and read as bytes in place: no `fmt`, no allocation
//! per token. `fold_line` is the one reader: the shard folds each line
//! into the node's [`NodeReport`] as it completes, and
//! [`parse_report_body`] folds a whole block the same way.
//!
//! The other way down, a shard hands a node process its [`NodeConfig`] as
//! the `--node-worker` arguments [`node_args`] writes and
//! [`parse_node_args`] reads.

use crate::chaos::{ChaosSpec, PartitionSpec};
use crate::clients::{ClientMutation, ClientSpec};
use crate::node::{ListenSpec, NodeConfig};
use crate::telemetry::{LogHistogram, NodeCounters};
use crate::workload::{WorkloadKind, WorkloadSpec};
use ssmfp_core::cli::{self, Args};
use ssmfp_mp::MpGhost;
use ssmfp_topology::NodeId;
use std::io::{self, Write};
use std::path::PathBuf;

/// One node's report, as folded from its lines by its shard.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Reporting node.
    pub node: NodeId,
    /// Ghosts this node generated, with their destinations.
    pub generated: Vec<(MpGhost, NodeId)>,
    /// Ghosts delivered here.
    pub delivered: Vec<MpGhost>,
    /// Ghosts still held at shutdown.
    pub held: Vec<MpGhost>,
    /// One-way latency of primaries delivered here (µs).
    pub latency: LogHistogram,
    /// Frames per coalesced `write()`.
    pub batch: LogHistogram,
    /// Transport/chaos counters.
    pub counters: NodeCounters,
    /// Client mode: every ack round trip, log-bucketed (empty otherwise).
    pub client_rtt: LogHistogram,
    /// Client mode: fairness spread — one sample per hosted session, its
    /// mean RTT (empty otherwise).
    pub client_fair: LogHistogram,
    /// Client mode: sessions hosted here.
    pub clients: u64,
    /// Client mode: acked primaries across hosted sessions.
    pub clients_completed: u64,
}

/// What a `status` line says: sums over a set of nodes — one group's
/// members at one instant, or the lines of several groups added up by a
/// shard and again by the root. Every count is monotone per node while a
/// run drains, which is what the root's stop rule rests on
/// ([`crate::orchestrator`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// The last probe wave every summed group had answered when it took
    /// its cut (0: none).
    pub wave: u64,
    /// Nodes counted.
    pub nodes: u64,
    /// Nodes done issuing their workload.
    pub done: u64,
    /// Messages generated.
    pub generated: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages still held.
    pub held: u64,
    /// Groups with a frame still in an inbox or a stream buffer.
    pub busy: u64,
}

impl Status {
    /// All of `nodes` nodes counted, all done issuing, nothing held and
    /// nothing buffered.
    pub fn quiet(&self, nodes: u64) -> bool {
        self.nodes == nodes && self.done == nodes && self.held == 0 && self.busy == 0
    }

    /// The sum of `parts`; its wave is the lowest of theirs.
    pub fn sum<'a>(parts: impl IntoIterator<Item = &'a Status>) -> Status {
        let mut s = Status {
            wave: u64::MAX,
            ..Status::default()
        };
        for p in parts {
            s.wave = s.wave.min(p.wave);
            s.nodes += p.nodes;
            s.done += p.done;
            s.generated += p.generated;
            s.delivered += p.delivered;
            s.held += p.held;
            s.busy += p.busy;
        }
        if s.wave == u64::MAX {
            s.wave = 0;
        }
        s
    }

    /// Appends the control line, newline included.
    pub(crate) fn push_line(&self, out: &mut Vec<u8>) {
        let fields = [
            self.wave,
            self.nodes,
            self.done,
            self.generated,
            self.delivered,
            self.held,
            self.busy,
        ];
        push_fields(out, "status", &fields);
        out.push(b'\n');
    }

    /// Parses what follows `status ` on a line written by
    /// `Status::push_line`.
    pub fn parse(rest: &[u8]) -> Option<Status> {
        let mut f = Fields(rest);
        let wave = f.num()?;
        let mut next = || f.after(b' ');
        let s = Status {
            wave,
            nodes: next()?,
            done: next()?,
            generated: next()?,
            delivered: next()?,
            held: next()?,
            busy: next()?,
        };
        f.0.is_empty().then_some(s)
    }
}

/// `"00" "01" … "99"`: two decimal digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[v as usize * 2..v as usize * 2 + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[i..]);
}

fn push_ghost(out: &mut Vec<u8>, g: MpGhost) {
    let (tag, k) = match g {
        MpGhost::Valid(k) => (b'v', k),
        MpGhost::Invalid(k) => (b'i', k),
    };
    out.extend_from_slice(&[b' ', tag]);
    push_u64(out, k);
}

/// Appends `tag`, then each value after a space.
fn push_fields(out: &mut Vec<u8>, tag: &str, values: &[u64]) {
    out.extend_from_slice(tag.as_bytes());
    for &v in values {
        out.push(b' ');
        push_u64(out, v);
    }
}

fn push_histogram(out: &mut Vec<u8>, tag: &str, h: &LogHistogram) {
    push_fields(out, tag, &[h.count(), h.max(), h.sum()]);
    for (i, c) in h.nonzero_buckets() {
        out.push(b' ');
        push_u64(out, i as u64);
        out.push(b':');
        push_u64(out, c);
    }
    out.push(b'\n');
}

/// Appends ledger entries as one `gen` line and one `del` line.
pub(crate) fn push_delta(
    out: &mut Vec<u8>,
    generated: &[(MpGhost, NodeId)],
    delivered: &[MpGhost],
) {
    // A cluster ghost is ~13 digits: room for that and a destination.
    out.reserve(8 + 20 * (generated.len() + delivered.len()));
    out.extend_from_slice(b"gen");
    for &(g, d) in generated {
        push_ghost(out, g);
        out.push(b':');
        push_u64(out, d as u64);
    }
    out.extend_from_slice(b"\ndel");
    for &g in delivered {
        push_ghost(out, g);
    }
    out.push(b'\n');
}

/// The line-based `report … end` block [`write_report`] writes, built in
/// one buffer.
pub(crate) fn report_block(r: &NodeReport) -> Vec<u8> {
    let entries = r.generated.len() + r.delivered.len() + r.held.len();
    let mut out = Vec::with_capacity(256 + 20 * entries);
    out.extend_from_slice(b"report ");
    push_u64(&mut out, r.node as u64);
    out.push(b'\n');
    push_delta(&mut out, &r.generated, &r.delivered);
    out.extend_from_slice(b"held");
    for &g in &r.held {
        push_ghost(&mut out, g);
    }
    out.push(b'\n');
    push_histogram(&mut out, "lat", &r.latency);
    push_histogram(&mut out, "bat", &r.batch);
    push_histogram(&mut out, "crtt", &r.client_rtt);
    push_histogram(&mut out, "cfair", &r.client_fair);
    push_fields(&mut out, "cli", &[r.clients, r.clients_completed]);
    let c = &r.counters;
    push_fields(
        &mut out,
        "\nctr",
        &[
            c.frames_sent,
            c.frames_received,
            c.heartbeats_sent,
            c.reconnects,
            c.chaos_dropped,
            c.chaos_duplicated,
            c.chaos_reordered,
            c.partition_dropped,
            c.write_syscalls,
            c.read_syscalls,
            c.conn_frames_dropped,
        ],
    );
    out.extend_from_slice(b"\nend\n");
    out
}

/// Writes the line-based `report … end` block in one `write_all`.
pub fn write_report<W: Write>(w: &mut W, r: &NodeReport) -> io::Result<()> {
    w.write_all(&report_block(r))
}

/// One line after its tag, read front to back in place.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    /// Consumes `b` if the line goes on with it.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.0.first() == Some(&b);
        if next {
            self.0 = &self.0[1..];
        }
        next
    }

    /// Consumes the decimal number the line goes on with: ASCII digits
    /// only, no sign, no overflow.
    fn num(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut digits = 0;
        for &b in self.0 {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                break;
            }
            v = v.wrapping_mul(10).wrapping_add(d as u64);
            digits += 1;
        }
        let (num, rest) = self.0.split_at(digits);
        self.0 = rest;
        // Only a 20-digit number can overflow, and between two of those
        // the byte order is the numeric one.
        let fits = digits < 20 || (digits == 20 && num <= b"18446744073709551615");
        (digits > 0 && fits).then_some(v)
    }

    /// Consumes `sep`, then a number.
    fn after(&mut self, sep: u8) -> Option<u64> {
        if self.eat(sep) {
            self.num()
        } else {
            None
        }
    }

    /// Consumes a ghost, `v<k>` or `i<k>`.
    fn ghost(&mut self) -> Option<MpGhost> {
        let (&tag, rest) = self.0.split_first()?;
        self.0 = rest;
        let k = self.num()?;
        match tag {
            b'v' => Some(MpGhost::Valid(k)),
            b'i' => Some(MpGhost::Invalid(k)),
            _ => None,
        }
    }

    /// Consumes ` <ghost>` entries into `out`.
    fn ghosts(&mut self, out: &mut Vec<MpGhost>) -> Option<()> {
        while self.eat(b' ') {
            out.push(self.ghost()?);
        }
        Some(())
    }

    fn histogram(&mut self) -> Option<LogHistogram> {
        let _count = self.after(b' ')?;
        let max = self.after(b' ')?;
        let sum = self.after(b' ')?;
        let mut pairs = Vec::new();
        while self.eat(b' ') {
            let i = usize::try_from(self.num()?).ok()?;
            pairs.push((i, self.after(b':')?));
        }
        Some(LogHistogram::from_parts(&pairs, max, sum))
    }
}

/// Folds one line a node wrote after its `ready` line, other than `status`
/// and its block's `report <node>` head, into `r`: `gen` and `del` append
/// their entries wherever they come, the block's other lines set their
/// field. `Some(true)` for the block's `end`; `None` for a line that is not
/// exactly as [`push_delta`] or [`write_report`] writes it.
pub(crate) fn fold_line(r: &mut NodeReport, line: &[u8]) -> Option<bool> {
    let (tag, rest) = line.split_at(line.iter().position(|&b| b == b' ').unwrap_or(line.len()));
    let mut f = Fields(rest);
    match tag {
        b"gen" => {
            while f.eat(b' ') {
                let g = f.ghost()?;
                let d = usize::try_from(f.after(b':')?).ok()?;
                r.generated.push((g, d));
            }
        }
        b"del" => f.ghosts(&mut r.delivered)?,
        b"held" => f.ghosts(&mut r.held)?,
        b"lat" => r.latency = f.histogram()?,
        b"bat" => r.batch = f.histogram()?,
        b"crtt" => r.client_rtt = f.histogram()?,
        b"cfair" => r.client_fair = f.histogram()?,
        b"cli" => {
            r.clients = f.after(b' ')?;
            r.clients_completed = f.after(b' ')?;
        }
        b"ctr" => {
            let mut next = || f.after(b' ');
            r.counters = NodeCounters {
                frames_sent: next()?,
                frames_received: next()?,
                heartbeats_sent: next()?,
                reconnects: next()?,
                chaos_dropped: next()?,
                chaos_duplicated: next()?,
                chaos_reordered: next()?,
                partition_dropped: next()?,
                write_syscalls: next()?,
                read_syscalls: next()?,
                conn_frames_dropped: next()?,
            };
        }
        b"end" => {}
        _ => return None,
    }
    f.0.is_empty().then_some(tag == b"end")
}

/// Parses the block written by [`write_report`]; the `report <node>` line
/// has already been consumed by the caller (who saw it arrive). Each line
/// goes through `fold_line`, the shard's reader.
pub fn parse_report_body(
    node: NodeId,
    lines: &mut impl Iterator<Item = String>,
) -> Option<NodeReport> {
    let mut r = NodeReport {
        node,
        ..NodeReport::default()
    };
    for line in lines {
        if fold_line(&mut r, line.as_bytes())? {
            return Some(r);
        }
    }
    None
}

/// Serializes a node config into `--node-worker` CLI arguments (the
/// inverse of [`parse_node_args`]).
pub fn node_args(cfg: &NodeConfig) -> Vec<String> {
    let edges = cfg
        .edges
        .iter()
        .map(|(a, b)| format!("{a}-{b}"))
        .collect::<Vec<_>>()
        .join(",");
    let listen = match &cfg.listen {
        ListenSpec::Uds { dir } => format!("uds:{}", dir.display()),
        ListenSpec::Tcp => "tcp".to_string(),
    };
    let mut chaos = format!("{}:{}", cfg.chaos.seed, cfg.chaos.faults_per_link);
    if let Some(p) = cfg.chaos.partition {
        chaos.push_str(&format!(":{}-{}:{}:{}", p.a, p.b, p.from_arrival, p.len));
    }
    let mut args = vec![
        "--id".into(),
        cfg.node.to_string(),
        "--n".into(),
        cfg.n.to_string(),
        "--edges".into(),
        edges,
        "--seed".into(),
        cfg.seed.to_string(),
        "--listen".into(),
        listen,
        "--workload".into(),
        workload_arg(&cfg.workload),
        "--chaos".into(),
        chaos,
    ];
    if let Some(c) = &cfg.clients {
        args.push("--clients".into());
        args.push(c.clients.to_string());
        args.push("--client-load".into());
        args.push(workload_arg(&c.load));
        if let Some(ClientMutation::DuplicateStamp) = c.mutation {
            args.push("--client-mutation".into());
            args.push("dup-stamp".into());
        }
    }
    args
}

/// `open:<rate>:<msgs>` / `closed:<k>:<msgs>`, as [`parse_workload`] reads it.
fn workload_arg(w: &WorkloadSpec) -> String {
    match w.kind {
        WorkloadKind::Open { rate_per_sec } => format!("open:{rate_per_sec}:{}", w.messages),
        WorkloadKind::Closed { outstanding } => format!("closed:{outstanding}:{}", w.messages),
    }
}

/// Parses the arguments produced by [`node_args`]. `Err` carries a usage
/// message.
pub fn parse_node_args(args: &[String]) -> Result<NodeConfig, String> {
    let mut cfg = NodeConfig {
        node: usize::MAX,
        n: 0,
        edges: Vec::new(),
        seed: 0,
        listen: ListenSpec::Tcp,
        workload: WorkloadSpec {
            kind: WorkloadKind::Closed { outstanding: 1 },
            messages: 0,
        },
        chaos: ChaosSpec::none(),
        clients: None,
    };
    let mut client_count: Option<u64> = None;
    let mut client_load: Option<WorkloadSpec> = None;
    let mut client_mutation: Option<ClientMutation> = None;
    let mut args = Args::new(args.iter().cloned());
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--id" => cfg.node = args.parse()?,
            "--n" => cfg.n = args.parse()?,
            "--edges" => {
                for pair in args.value()?.split(',') {
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("bad edge {pair:?}"))?;
                    cfg.edges
                        .push((cli::parse("edge", a)?, cli::parse("edge", b)?));
                }
            }
            "--seed" => cfg.seed = args.parse()?,
            "--listen" => {
                let v = args.value()?;
                cfg.listen = if v == "tcp" {
                    ListenSpec::Tcp
                } else if let Some(dir) = v.strip_prefix("uds:") {
                    ListenSpec::Uds {
                        dir: PathBuf::from(dir),
                    }
                } else {
                    return Err(format!("bad --listen {v:?}"));
                };
            }
            "--workload" => cfg.workload = parse_workload(&args.value()?)?,
            "--chaos" => cfg.chaos = parse_chaos(&args.value()?)?,
            "--clients" => client_count = Some(args.parse()?),
            "--client-load" => client_load = Some(parse_workload(&args.value()?)?),
            "--client-mutation" => client_mutation = Some(parse_client_mutation(&args.value()?)?),
            _ => return Err(args.unknown()),
        }
    }
    if cfg.node == usize::MAX || cfg.n == 0 || cfg.edges.is_empty() {
        return Err("--id, --n and --edges are required".into());
    }
    if let Some(clients) = client_count {
        cfg.clients = Some(ClientSpec {
            clients,
            load: client_load.ok_or("--clients needs --client-load")?,
            mutation: client_mutation,
        });
    } else if client_load.is_some() || client_mutation.is_some() {
        return Err("--client-load/--client-mutation need --clients".into());
    }
    Ok(cfg)
}

/// Parses `open:<rate>:<msgs>` / `closed:<k>:<msgs>`.
pub fn parse_workload(s: &str) -> Result<WorkloadSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let bad = || format!("bad workload {s:?} (want open:<rate>:<msgs> or closed:<k>:<msgs>)");
    if parts.len() != 3 {
        return Err(bad());
    }
    let messages: u64 = parts[2].parse().map_err(|_| bad())?;
    let kind = match parts[0] {
        "open" => WorkloadKind::Open {
            rate_per_sec: parts[1].parse().map_err(|_| bad())?,
        },
        "closed" => WorkloadKind::Closed {
            outstanding: parts[1].parse().map_err(|_| bad())?,
        },
        _ => return Err(bad()),
    };
    Ok(WorkloadSpec { kind, messages })
}

/// Parses `<seed>:<faults>[:<a>-<b>:<from>:<len>]`.
pub fn parse_chaos(s: &str) -> Result<ChaosSpec, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let bad = || format!("bad chaos {s:?} (want <seed>:<faults>[:<a>-<b>:<from>:<len>])");
    if parts.len() != 2 && parts.len() != 5 {
        return Err(bad());
    }
    let mut spec = ChaosSpec {
        seed: parts[0].parse().map_err(|_| bad())?,
        faults_per_link: parts[1].parse().map_err(|_| bad())?,
        partition: None,
    };
    if parts.len() == 5 {
        let (a, b) = parts[2].split_once('-').ok_or_else(bad)?;
        spec.partition = Some(PartitionSpec {
            a: a.parse().map_err(|_| bad())?,
            b: b.parse().map_err(|_| bad())?,
            from_arrival: parts[3].parse().map_err(|_| bad())?,
            len: parts[4].parse().map_err(|_| bad())?,
        });
    }
    Ok(spec)
}

/// Parses a `--client-mutation` name: `dup-stamp`.
pub fn parse_client_mutation(s: &str) -> Result<ClientMutation, String> {
    match s {
        "dup-stamp" => Ok(ClientMutation::DuplicateStamp),
        other => Err(format!("unknown client mutation {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_ghost() -> impl Strategy<Value = MpGhost> {
        prop_oneof![
            any::<u64>().prop_map(MpGhost::Valid),
            any::<u64>().prop_map(MpGhost::Invalid),
            Just(MpGhost::Valid(u64::MAX)),
            Just(MpGhost::Invalid(0)),
        ]
    }

    /// Empty, or a few values anywhere in the `u64` range.
    fn arb_histogram() -> impl Strategy<Value = LogHistogram> {
        prop_oneof![
            Just(Vec::new()),
            proptest::collection::vec(any::<u64>(), 1..6),
            proptest::collection::vec(0u64..100_000, 1..40),
        ]
        .prop_map(|values| {
            let mut h = LogHistogram::new();
            values.into_iter().for_each(|v| h.record(v));
            h
        })
    }

    fn arb_report() -> impl Strategy<Value = NodeReport> {
        let lists = (
            0usize..=u16::MAX as usize,
            proptest::collection::vec((arb_ghost(), 0usize..=u16::MAX as usize), 0..20),
            proptest::collection::vec(arb_ghost(), 0..20),
            proptest::collection::vec(arb_ghost(), 0..4),
        );
        let histograms = (
            arb_histogram(),
            arb_histogram(),
            arb_histogram(),
            arb_histogram(),
        );
        let counts = proptest::collection::vec(any::<u64>(), 13);
        (lists, histograms, counts).prop_map(
            |((node, generated, delivered, held), (latency, batch, client_rtt, client_fair), c)| {
                NodeReport {
                    node,
                    generated,
                    delivered,
                    held,
                    latency,
                    batch,
                    counters: NodeCounters {
                        frames_sent: c[0],
                        frames_received: c[1],
                        heartbeats_sent: c[2],
                        reconnects: c[3],
                        chaos_dropped: c[4],
                        chaos_duplicated: c[5],
                        chaos_reordered: c[6],
                        partition_dropped: c[7],
                        write_syscalls: c[8],
                        read_syscalls: c[9],
                        conn_frames_dropped: c[10],
                    },
                    client_rtt,
                    client_fair,
                    clients: c[11],
                    clients_completed: c[12],
                }
            },
        )
    }

    fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
        let kind = prop_oneof![
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_filter("a finite rate", |r| r.is_finite())
                .prop_map(|rate_per_sec| WorkloadKind::Open { rate_per_sec }),
            any::<u32>().prop_map(|outstanding| WorkloadKind::Closed { outstanding }),
        ];
        (kind, any::<u64>()).prop_map(|(kind, messages)| WorkloadSpec { kind, messages })
    }

    /// Random edges, a UDS directory or TCP, open or closed load, chaos
    /// with or without a partition, clients with or without `dup-stamp`.
    fn arb_node_config() -> impl Strategy<Value = NodeConfig> {
        let listen = prop_oneof![
            Just(ListenSpec::Tcp),
            any::<u32>().prop_map(|k| ListenSpec::Uds {
                dir: PathBuf::from(format!("/tmp/ssmfp-cluster-{k}")),
            }),
            Just(ListenSpec::Uds {
                dir: PathBuf::from("/tmp/a b:c,d-e"),
            }),
        ];
        let partition = prop_oneof![
            Just(None),
            (any::<usize>(), any::<usize>(), any::<u64>(), any::<u64>()).prop_map(
                |(a, b, from_arrival, len)| Some(PartitionSpec {
                    a,
                    b,
                    from_arrival,
                    len,
                })
            ),
        ];
        let chaos = (any::<u64>(), any::<u32>(), partition).prop_map(
            |(seed, faults_per_link, partition)| ChaosSpec {
                seed,
                faults_per_link,
                partition,
            },
        );
        let mutation = prop_oneof![Just(None), Just(Some(ClientMutation::DuplicateStamp))];
        let clients = prop_oneof![
            Just(None),
            (any::<u64>(), arb_workload(), mutation).prop_map(|(clients, load, mutation)| {
                Some(ClientSpec {
                    clients,
                    load,
                    mutation,
                })
            }),
        ];
        (
            // `usize::MAX` is the parser's "no --id yet".
            (0..usize::MAX, 1..=usize::MAX, any::<u64>()),
            proptest::collection::vec((any::<usize>(), any::<usize>()), 1..12),
            listen,
            arb_workload(),
            chaos,
            clients,
        )
            .prop_map(
                |((node, n, seed), edges, listen, workload, chaos, clients)| NodeConfig {
                    node,
                    n,
                    edges,
                    seed,
                    listen,
                    workload,
                    chaos,
                    clients,
                },
            )
    }

    /// Feeds a written block back through the parser, after its
    /// `report <node>` line as the supervisor does.
    fn parse_block(text: &str) -> Option<NodeReport> {
        let mut lines = text.lines().map(str::to_string);
        let node = lines.next()?.strip_prefix("report ")?.parse().ok()?;
        parse_report_body(node, &mut lines)
    }

    /// What a shard makes of a node's stream: every line folded into one
    /// report, the block's head skipped; `None` once a line is refused or
    /// if no `end` came.
    fn fold_stream(node: NodeId, text: &str) -> Option<NodeReport> {
        let mut r = NodeReport {
            node,
            ..NodeReport::default()
        };
        let mut ended = false;
        for line in text.lines().filter(|l| !l.starts_with("report ")) {
            ended = fold_line(&mut r, line.as_bytes())?;
        }
        ended.then_some(r)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Every report survives its codec whole: extreme ghosts and
        /// destinations, empty lists and histograms, every counter. And
        /// cut into deltas — its `gen` and `del` lists split at arbitrary
        /// points into `gen`/`del` line pairs, then the block with the
        /// tail — it folds back to what the whole block parses to.
        #[test]
        fn any_report_roundtrips_through_its_codec(
            r in arb_report(),
            cuts in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..4),
        ) {
            let mut buf = Vec::new();
            write_report(&mut buf, &r).unwrap();
            let text = String::from_utf8(buf).expect("reports are ASCII");
            prop_assert_eq!(parse_block(&text), Some(r.clone()));

            let at = |len: usize, pick: fn(&(usize, usize)) -> usize| {
                let mut at: Vec<usize> = cuts.iter().map(|c| pick(c) % (len + 1)).collect();
                at.sort_unstable();
                at
            };
            let gen_at = at(r.generated.len(), |c| c.0);
            let del_at = at(r.delivered.len(), |c| c.1);
            let (mut g0, mut d0) = (0, 0);
            let mut stream = Vec::new();
            for (g, d) in gen_at.into_iter().zip(del_at) {
                push_delta(&mut stream, &r.generated[g0..g], &r.delivered[d0..d]);
                (g0, d0) = (g, d);
            }
            let tail = NodeReport {
                generated: r.generated[g0..].to_vec(),
                delivered: r.delivered[d0..].to_vec(),
                ..r.clone()
            };
            write_report(&mut stream, &tail).unwrap();
            let stream = String::from_utf8(stream).expect("deltas are ASCII");
            prop_assert_eq!(fold_stream(r.node, &stream), Some(r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Every node config survives its `--node-worker` arguments whole.
        /// The same arguments plus a flag the codec never writes (the gone
        /// blocking plane's `--io`), or plus a client flag without
        /// `--clients`, are refused, not ignored.
        #[test]
        fn any_node_config_roundtrips_through_its_args(cfg in arb_node_config()) {
            let args = node_args(&cfg);
            prop_assert_eq!(parse_node_args(&args), Ok(cfg.clone()));
            let with = |extra: [&str; 2]| {
                let mut a = args.clone();
                a.extend(extra.map(String::from));
                parse_node_args(&a)
            };
            prop_assert!(with(["--io", "event"]).is_err());
            if cfg.clients.is_none() {
                prop_assert!(with(["--client-load", "closed:1:2"]).is_err());
                prop_assert!(with(["--client-mutation", "dup-stamp"]).is_err());
            }
        }
    }

    #[test]
    fn workload_and_chaos_parsers_reject_garbage() {
        assert!(parse_workload("open:fast:10").is_err());
        assert!(parse_workload("poisson:1:10").is_err());
        assert!(parse_chaos("1").is_err());
        assert!(parse_chaos("1:2:0-1:5").is_err());
        assert!(parse_workload("closed:4:100").is_ok());
        assert!(parse_chaos("3:2:0-4:10:40").is_ok());
        assert!(
            parse_node_args(&[]).is_err(),
            "--id, --n and --edges are required"
        );
    }

    /// Malformed tokens and a block cut before its `end` are refused with
    /// `None`, never a panic — and so is a malformed delta line before a
    /// good block: it fails the report, it is not skipped.
    #[test]
    fn malformed_reports_are_refused() {
        let body = |line: &str| format!("report 1\n{line}\nend\n");
        assert!(parse_block(&body("del v1 i2")).is_some());
        for bad in ["v", "x7", "v7:", "v18446744073709551616", "é7", "+7"] {
            assert_eq!(parse_block(&body(&format!("del {bad}"))), None, "del {bad}");
            assert_eq!(
                parse_block(&body(&format!("held {bad}"))),
                None,
                "held {bad}"
            );
            assert_eq!(
                parse_block(&body(&format!("gen {bad}:1"))),
                None,
                "gen {bad}:1"
            );
        }
        for bad in ["v7", "v7:", "v7:x", "v7:18446744073709551616", ":1"] {
            assert_eq!(parse_block(&body(&format!("gen {bad}"))), None, "gen {bad}");
        }
        for bad in [
            "lat",
            "lat 1 2",
            "lat 1 2 3 4",
            "lat 1 2 3 4:",
            "cli 1",
            "ctr 1 2 3",
            "what",
            "report 1",
        ] {
            assert_eq!(parse_block(&body(bad)), None, "{bad}");
        }
        let mut buf = Vec::new();
        write_report(&mut buf, &NodeReport::default()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(parse_block(&text).is_some());
        let cut = text.strip_suffix("end\n").unwrap();
        assert_eq!(parse_block(cut), None, "a block with no end");

        assert!(fold_stream(0, &format!("gen v1:2\ndel v3\n{text}")).is_some());
        for bad in [
            "gen v1:2 ",
            "gen v1",
            "del v1 x2",
            "del  v1",
            "gen v1:2\ndel v",
        ] {
            assert_eq!(fold_stream(0, &format!("{bad}\n{text}")), None, "{bad}");
        }
    }

    /// A status line reads back as written, and only as written.
    #[test]
    fn status_lines_roundtrip() {
        let s = Status {
            wave: 3,
            nodes: 5,
            done: 4,
            generated: u64::MAX,
            delivered: 0,
            held: 2,
            busy: 1,
        };
        let mut line = Vec::new();
        s.push_line(&mut line);
        assert_eq!(line, b"status 3 5 4 18446744073709551615 0 2 1\n");
        let rest = line.strip_prefix(b"status ").unwrap().trim_ascii_end();
        assert_eq!(Status::parse(rest), Some(s));
        for bad in [
            "3 5 4 1 0 2",
            "3 5 4 1 0 2 1 9",
            "3 5 4 1 0 2 x",
            "3  5 4 1 0 2 1",
        ] {
            assert_eq!(Status::parse(bad.as_bytes()), None, "{bad}");
        }
    }

    #[test]
    fn report_roundtrips_through_the_control_pipe() {
        let mut lat = LogHistogram::new();
        for v in [10u64, 500, 70_000] {
            lat.record(v);
        }
        let mut bat = LogHistogram::new();
        for v in [1u64, 1, 4, 17] {
            bat.record(v);
        }
        let mut crtt = LogHistogram::new();
        let mut cfair = LogHistogram::new();
        for v in [250u64, 300, 90_000] {
            crtt.record(v);
        }
        cfair.record(275);
        cfair.record(90_000);
        let r = NodeReport {
            node: 3,
            generated: vec![(MpGhost::Valid(7), 1), (MpGhost::Invalid(9), 0)],
            delivered: vec![MpGhost::Valid(42)],
            held: vec![],
            latency: lat,
            batch: bat,
            counters: NodeCounters {
                frames_sent: 1,
                frames_received: 2,
                heartbeats_sent: 3,
                reconnects: 4,
                chaos_dropped: 5,
                chaos_duplicated: 6,
                chaos_reordered: 7,
                partition_dropped: 8,
                write_syscalls: 11,
                read_syscalls: 12,
                conn_frames_dropped: 13,
            },
            client_rtt: crtt,
            client_fair: cfair,
            clients: 2,
            clients_completed: 3,
        };
        let mut buf = Vec::new();
        write_report(&mut buf, &r).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // The wire format, byte for byte.
        assert_eq!(
            text,
            "report 3\n\
             gen v7:1 i9:0\n\
             del v42\n\
             held\n\
             lat 3 70000 70510 10:1 95:1 209:1\n\
             bat 4 17 23 1:2 4:1 17:1\n\
             crtt 3 90000 90550 79:1 82:1 213:1\n\
             cfair 2 90000 90275 81:1 213:1\n\
             cli 2 3\n\
             ctr 1 2 3 4 5 6 7 8 11 12 13\n\
             end\n"
        );
        let mut lines = text.lines().map(str::to_string);
        let head = lines.next().unwrap();
        assert_eq!(head, "report 3");
        let back = parse_report_body(3, &mut lines).unwrap();
        assert_eq!(back.node, r.node);
        assert_eq!(back.generated, r.generated);
        assert_eq!(back.delivered, r.delivered);
        assert_eq!(back.held, r.held);
        assert_eq!(back.counters, r.counters);
        assert_eq!(back.latency.count(), r.latency.count());
        assert_eq!(back.latency.quantile(0.5), r.latency.quantile(0.5));
        assert_eq!(back.latency.max(), r.latency.max());
        assert_eq!(back.batch.count(), r.batch.count());
        assert_eq!(back.batch.mean(), r.batch.mean());
        assert_eq!(back.client_rtt.count(), r.client_rtt.count());
        assert_eq!(back.client_rtt.max(), r.client_rtt.max());
        assert_eq!(back.client_fair.count(), r.client_fair.count());
        assert_eq!(back.clients, 2);
        assert_eq!(back.clients_completed, 3);
    }
}
