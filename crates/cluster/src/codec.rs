//! The lines a node group writes up its control pipe (the protocol is
//! [`crate::node`]'s): its `status` ([`Status`]), behind every status
//! line each member's `gen` / `del` ledger delta after a `node <id>` head
//! (`push_delta`), and at `stop` each member's `report <id> … end` block,
//! whose `gen` / `del` carry only the tail ([`write_report`]). Numbers are
//! ASCII decimal, written with a digit-pair table and read as bytes in
//! place: no `fmt`, no allocation per token. `fold_line` is the one
//! reader: the root folds each line into the [`NodeReport`] of the member
//! the last head named as it completes (`ReportFold`), and
//! [`parse_report_body`] folds a whole block the same way.
//!
//! The other way down, the root hands a group's process the shard's node
//! range and [`Run`] as the `--node-worker` arguments [`node_args`] writes
//! and [`parse_node_args`] reads, seed, workload and clients a
//! [`Scenario`]'s.

use crate::chaos::{ChaosSpec, PartitionSpec};
use crate::node::{ListenSpec, Run};
use crate::orchestrator::LedgerFlow;
use crate::scenario::{load_words, Scenario};
use crate::telemetry::{LogHistogram, NodeCounters};
use ssmfp_core::cli::{self, Args};
use ssmfp_mp::MpGhost;
use ssmfp_topology::{Graph, NodeId};
use std::io::{self, Write};
use std::ops::Range;

/// One node's report, as folded from its lines by the root.
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
/// members at one instant, or the lines of every group added up by the
/// root. Every count is monotone per node while a run drains, which
/// is what the root's stop rule rests on ([`crate::orchestrator`]).
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

/// Appends member `node`'s ledger delta: its `node <id>` head, then the
/// entries as one `gen` line and one `del` line.
pub(crate) fn push_delta(
    out: &mut Vec<u8>,
    node: NodeId,
    generated: &[(MpGhost, NodeId)],
    delivered: &[MpGhost],
) {
    out.extend_from_slice(b"node ");
    push_u64(out, node as u64);
    out.push(b'\n');
    push_entries(out, generated, delivered);
}

/// Appends ledger entries as one `gen` line and one `del` line.
fn push_entries(out: &mut Vec<u8>, generated: &[(MpGhost, NodeId)], delivered: &[MpGhost]) {
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
    push_entries(&mut out, &r.generated, &r.delivered);
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
            c.timeouts,
            c.slot_visits,
            c.waits,
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

/// Folds one line of a member's ledger delta or report block, its head
/// aside, into `r`: `gen` and `del` append their entries wherever they
/// come, the block's other lines set their field. `Some(true)` for the block's `end`; `None` for a line that is not
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
                timeouts: next()?,
                slot_visits: next()?,
                waits: next()?,
            };
        }
        b"end" => {}
        _ => return None,
    }
    f.0.is_empty().then_some(tag == b"end")
}

/// What the root folds off one group's pipe: each member's report, as its
/// lines complete. A head — `node <id>` before a member's ledger delta,
/// `report <id>` before its block — names the member whose lines follow,
/// and [`fold_line`] folds each of them into that member's report. The
/// head's kind also says when the entries under it left the member: a
/// delta's were streamed while the run ran, a block's are the tail.
pub(crate) struct ReportFold {
    /// By member, in the group's order.
    pub reports: Vec<NodeReport>,
    /// By member: its block's `end` arrived.
    pub ended: Vec<bool>,
    /// The entries folded under `node` heads (`streamed`) and under
    /// `report` heads (`tail`).
    pub ledger: LedgerFlow,
    /// The member the last head named, until its block ends, and whether
    /// that head was `report`.
    current: Option<(usize, bool)>,
}

impl ReportFold {
    /// Empty reports for the group's members, in its order.
    pub fn new(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let reports: Vec<NodeReport> = nodes
            .into_iter()
            .map(|node| NodeReport {
                node,
                ..NodeReport::default()
            })
            .collect();
        ReportFold {
            ended: vec![false; reports.len()],
            reports,
            ledger: LedgerFlow::default(),
            current: None,
        }
    }

    /// Folds one line other than `ready`, `status` and `error`; `None` for
    /// a line that is neither a head naming a member nor, after one, a
    /// line [`fold_line`] takes.
    pub fn fold(&mut self, line: &[u8]) -> Option<()> {
        let head = line
            .strip_prefix(b"node ")
            .map(|rest| (rest, false))
            .or_else(|| line.strip_prefix(b"report ").map(|rest| (rest, true)));
        if let Some((rest, tail)) = head {
            let mut f = Fields(rest);
            let id = f.num().filter(|_| f.0.is_empty())?;
            let i = self.reports.iter().position(|r| r.node as u64 == id)?;
            self.current = Some((i, tail));
            return Some(());
        }
        let (i, tail) = self.current?;
        let r = &mut self.reports[i];
        let before = r.generated.len() + r.delivered.len();
        if fold_line(r, line)? {
            self.ended[i] = true;
            self.current = None;
        }
        let entries = (r.generated.len() + r.delivered.len() - before) as u64;
        if tail {
            self.ledger.tail += entries;
        } else {
            self.ledger.streamed += entries;
        }
        Some(())
    }

    /// The first member whose block has not ended.
    pub fn unended(&self) -> Option<NodeId> {
        let i = self.ended.iter().position(|&ended| !ended)?;
        Some(self.reports[i].node)
    }
}

/// Hands `each` the control lines that freshly read `bytes` complete, as
/// bytes (trailing ASCII whitespace trimmed; empty lines dropped) — both
/// ends of every control pipe read through this. `acc` holds the
/// unfinished line between calls, so each byte is scanned once, and a line
/// that arrives whole is read where it lies, in `bytes`.
pub(crate) fn take_lines(acc: &mut Vec<u8>, bytes: &[u8], mut each: impl FnMut(&[u8])) {
    let mut push = |line: &[u8]| {
        let line = line.trim_ascii_end();
        if !line.is_empty() {
            each(line);
        }
    };
    let mut rest = bytes;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        if acc.is_empty() {
            push(&rest[..nl]);
        } else {
            acc.extend_from_slice(&rest[..nl]);
            push(acc);
            acc.clear();
        }
        rest = &rest[nl + 1..];
    }
    acc.extend_from_slice(rest);
}

/// `line` as an error message shows it: quoted, cut at 64 bytes.
pub(crate) fn shown(line: &[u8]) -> String {
    const SHOWN: usize = 64;
    let more = if line.len() > SHOWN { "…" } else { "" };
    let head = String::from_utf8_lossy(&line[..line.len().min(SHOWN)]);
    format!("{head:?}{more}")
}

/// Parses the block written by [`write_report`]; the `report <node>` line
/// has already been consumed by the caller (who saw it arrive). Each line
/// goes through `fold_line`, the root's reader.
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

/// The `--node-worker` arguments of the group of nodes `nodes` of `run`
/// (the inverse of [`parse_node_args`]): `--nodes A..B`, then the run's
/// text form — `--n` and `--edges` for its graph, `--listen`, `--chaos`,
/// and its seed, workload and clients in a [`Scenario`]'s words.
pub fn node_args(nodes: Range<NodeId>, run: &Run) -> Vec<String> {
    let edges = run.graph.edges().iter().map(|(a, b)| format!("{a}-{b}"));
    let listen = match &run.listen {
        ListenSpec::Uds { dir } => format!("uds:{}", dir.display()),
        ListenSpec::Tcp => "tcp".to_string(),
    };
    let mut chaos = format!("{}:{}", run.chaos.seed, run.chaos.faults_per_link);
    if let Some(p) = run.chaos.partition {
        chaos.push_str(&format!(":{}-{}:{}:{}", p.a, p.b, p.from_arrival, p.len));
    }
    let mut args = vec![
        "--nodes".into(),
        format!("{}..{}", nodes.start, nodes.end),
        "--n".into(),
        run.graph.n().to_string(),
        "--edges".into(),
        edges.collect::<Vec<_>>().join(","),
        "--listen".into(),
        listen,
        "--chaos".into(),
        chaos,
    ];
    args.extend(load_words(run.seed, &run.workload, &run.clients));
    args
}

/// Parses the arguments produced by [`node_args`]: the group's nodes, a
/// non-empty range within the graph, and its run. The seed, workload and
/// client flags go through `Scenario::load_flag`, the CLI's parser, and
/// the clients through the CLI's check. `Err` carries a usage message.
pub fn parse_node_args(args: &[String]) -> Result<(Range<NodeId>, Run), String> {
    let mut nodes: Option<Range<NodeId>> = None;
    let (mut n, mut edges) = (0usize, Vec::new());
    let mut listen = ListenSpec::Tcp;
    let mut chaos = ChaosSpec::none();
    let mut load = Scenario::default();
    let mut args = Args::new(args.iter().cloned());
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--nodes" => {
                let v = args.value()?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("bad --nodes {v:?} (want A..B)"))?;
                nodes = Some(cli::parse("--nodes", a)?..cli::parse("--nodes", b)?);
            }
            "--n" => n = args.parse()?,
            "--edges" => {
                for pair in args.value()?.split(',') {
                    let (a, b) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("bad edge {pair:?}"))?;
                    edges.push((cli::parse("edge", a)?, cli::parse("edge", b)?));
                }
            }
            "--listen" => {
                let v = args.value()?;
                listen = match v.strip_prefix("uds:") {
                    Some(dir) => ListenSpec::Uds { dir: dir.into() },
                    None if v == "tcp" => ListenSpec::Tcp,
                    None => return Err(format!("bad --listen {v:?}")),
                };
            }
            "--chaos" => chaos = parse_chaos(&args.value()?)?,
            _ if load.load_flag(&flag, &mut args)? => {}
            _ => return Err(args.unknown()),
        }
    }
    // Without `--n` the graph is empty, without `--edges` (n >= 2) it is
    // disconnected: the graph refuses both.
    let graph = Graph::from_edges(n, &edges).map_err(|e| format!("bad --n/--edges: {e}"))?;
    let nodes = nodes.ok_or("--nodes is required")?;
    if nodes.is_empty() || nodes.end > n {
        return Err(format!("bad --nodes {nodes:?} (want A..B, A < B <= {n})"));
    }
    load.clients.map_or(Ok(()), |c| c.validate(n))?;
    let run = Run {
        graph,
        seed: load.seed,
        listen,
        workload: load.workload,
        chaos,
        clients: load.clients,
    };
    Ok((nodes, run))
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clients::{ClientMutation, ClientSpec};
    use crate::scenario::parse_workload;
    use crate::workload::{WorkloadKind, WorkloadSpec};
    use proptest::prelude::*;
    use std::path::PathBuf;

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
        let counts = proptest::collection::vec(any::<u64>(), 16);
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
                        timeouts: c[11],
                        slot_visits: c[12],
                        waits: c[15],
                    },
                    client_rtt,
                    client_fair,
                    clients: c[13],
                    clients_completed: c[14],
                }
            },
        )
    }

    /// Every workload [`crate::scenario::parse_workload`] accepts: any
    /// finite rate above 0 or window of at least 1, any quota.
    pub(crate) fn arb_workload() -> impl Strategy<Value = WorkloadSpec> {
        let kind = prop_oneof![
            any::<u64>()
                .prop_map(f64::from_bits)
                .prop_filter("a finite rate > 0", |r| r.is_finite() && *r > 0.0)
                .prop_map(|rate_per_sec| WorkloadKind::Open { rate_per_sec }),
            (1..=u32::MAX).prop_map(|outstanding| WorkloadKind::Closed { outstanding }),
        ];
        (kind, any::<u64>()).prop_map(|(kind, messages)| WorkloadSpec { kind, messages })
    }

    /// A group's node range and a run: a line, ring, grid or seeded random
    /// graph, a non-empty range within it, a UDS directory or TCP, open or
    /// closed load, chaos with or without a partition, clients with or
    /// without `dup-stamp`.
    fn arb_node_run() -> impl Strategy<Value = (Range<NodeId>, Run)> {
        use ssmfp_topology::gen;
        let graph = prop_oneof![
            (2usize..12).prop_map(gen::line),
            (3usize..12).prop_map(gen::ring),
            (1usize..5, 2usize..5).prop_map(|(r, c)| gen::grid(r, c)),
            (2usize..12, any::<u64>()).prop_map(|(n, seed)| {
                gen::erdos_renyi(n, 0.6, seed).unwrap_or_else(|| gen::line(n))
            }),
        ];
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
            // What `ClientSpec::validate` takes on 2 to 12 nodes.
            (1..1u64 << 23, arb_workload(), mutation).prop_map(|(clients, load, mutation)| {
                let messages = load.messages % (ssmfp_mp::clients::MAX_SEQS_PER_CLIENT + 1);
                Some(ClientSpec {
                    clients,
                    load: WorkloadSpec { messages, ..load },
                    mutation,
                })
            }),
        ];
        (
            (any::<usize>(), any::<usize>(), any::<u64>()),
            graph,
            listen,
            arb_workload(),
            chaos,
            clients,
        )
            .prop_map(|((a, b, seed), graph, listen, workload, chaos, clients)| {
                let start = a % graph.n();
                let nodes = start..start + 1 + b % (graph.n() - start);
                let run = Run {
                    graph,
                    seed,
                    listen,
                    workload,
                    chaos,
                    clients,
                };
                (nodes, run)
            })
    }

    /// Feeds a written block back through the parser, after its
    /// `report <node>` line as the root does.
    fn parse_block(text: &str) -> Option<NodeReport> {
        let mut lines = text.lines().map(str::to_string);
        let node = lines.next()?.strip_prefix("report ")?.parse().ok()?;
        parse_report_body(node, &mut lines)
    }

    /// What the root makes of a group's stream: every line folded into the
    /// report of the member the last head named; `None` once a line is
    /// refused or if a member's `end` did not come.
    fn fold_stream(nodes: &[NodeId], text: &str) -> Option<Vec<NodeReport>> {
        let mut fold = ReportFold::new(nodes.iter().copied());
        for line in text.lines() {
            fold.fold(line.as_bytes())?;
        }
        fold.unended().is_none().then_some(fold.reports)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Every report survives its codec whole: extreme ghosts and
        /// destinations, empty lists and histograms, every counter. And
        /// the reports of a group on its one pipe — each one's `gen` and
        /// `del` lists split at arbitrary points into deltas, the deltas
        /// of all members interleaved round by round as a group writes
        /// them behind its status lines, then every block with its tail —
        /// fold back, each to what its whole block parses to.
        #[test]
        fn any_report_roundtrips_through_its_codec(
            group in proptest::collection::vec(
                (arb_report(), proptest::collection::vec((any::<usize>(), any::<usize>()), 0..4)),
                1..4,
            ),
        ) {
            let group: Vec<_> = group
                .into_iter()
                .enumerate()
                .map(|(i, (r, cuts))| (NodeReport { node: i, ..r }, cuts))
                .collect();
            for (r, _) in &group {
                let mut buf = Vec::new();
                write_report(&mut buf, r).unwrap();
                let text = String::from_utf8(buf).expect("reports are ASCII");
                prop_assert_eq!(parse_block(&text), Some(r.clone()));
            }

            // By member, the ends of its deltas in its two lists.
            let ends: Vec<Vec<(usize, usize)>> = group
                .iter()
                .map(|(r, cuts)| {
                    let at = |len: usize, pick: fn(&(usize, usize)) -> usize| {
                        let mut at: Vec<usize> = cuts.iter().map(|c| pick(c) % (len + 1)).collect();
                        at.sort_unstable();
                        at
                    };
                    let gen_at = at(r.generated.len(), |c| c.0);
                    gen_at.into_iter().zip(at(r.delivered.len(), |c| c.1)).collect()
                })
                .collect();
            let mut shipped = vec![(0, 0); group.len()];
            let mut stream = Vec::new();
            for round in 0..4 {
                for (i, (r, _)) in group.iter().enumerate() {
                    let Some(&(g, d)) = ends[i].get(round) else { continue };
                    let (g0, d0) = shipped[i];
                    push_delta(&mut stream, r.node, &r.generated[g0..g], &r.delivered[d0..d]);
                    shipped[i] = (g, d);
                }
            }
            for ((r, _), (g0, d0)) in group.iter().zip(shipped) {
                let tail = NodeReport {
                    generated: r.generated[g0..].to_vec(),
                    delivered: r.delivered[d0..].to_vec(),
                    ..r.clone()
                };
                write_report(&mut stream, &tail).unwrap();
            }
            let stream = String::from_utf8(stream).expect("deltas are ASCII");
            let nodes: Vec<NodeId> = (0..group.len()).collect();
            let whole: Vec<NodeReport> = group.into_iter().map(|(r, _)| r).collect();
            prop_assert_eq!(fold_stream(&nodes, &stream), Some(whole));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Where an entry arrives says when it left its member: under a
        /// `node` head it was streamed, under a `report` head it is the
        /// tail — however the members' deltas and blocks interleave on the
        /// pipe. Each member sends its deltas, then its block; `picks`
        /// chooses whose item comes next.
        #[test]
        fn entries_count_as_streamed_or_tail_by_their_head(
            plan in proptest::collection::vec(
                (proptest::collection::vec((0..4usize, 0..4usize), 0..4), (0..4usize, 0..4usize)),
                1..4,
            ),
            picks in proptest::collection::vec(any::<usize>(), 0..20),
        ) {
            let generated = |k: usize| vec![(MpGhost::Valid(7), 0); k];
            let delivered = |k: usize| vec![MpGhost::Valid(7); k];
            let (mut stream, mut streamed, mut tail) = (Vec::new(), 0, 0);
            let mut sent = vec![0; plan.len()];
            let mut picks = picks.into_iter();
            loop {
                let live: Vec<usize> = (0..plan.len()).filter(|&i| sent[i] <= plan[i].0.len()).collect();
                if live.is_empty() {
                    break;
                }
                let i = live[picks.next().unwrap_or(0) % live.len()];
                let (deltas, (g, d)) = &plan[i];
                if let Some(&(g, d)) = deltas.get(sent[i]) {
                    push_delta(&mut stream, i, &generated(g), &delivered(d));
                    streamed += (g + d) as u64;
                } else {
                    let block = NodeReport {
                        node: i,
                        generated: generated(*g),
                        delivered: delivered(*d),
                        ..NodeReport::default()
                    };
                    write_report(&mut stream, &block).unwrap();
                    tail += (g + d) as u64;
                }
                sent[i] += 1;
            }
            let mut fold = ReportFold::new(0..plan.len());
            for line in stream.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                prop_assert!(fold.fold(line).is_some(), "{}", shown(line));
            }
            prop_assert_eq!(fold.unended(), None);
            prop_assert_eq!((fold.ledger.streamed, fold.ledger.tail), (streamed, tail));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

        /// Every group's node range and run survive its `--node-worker`
        /// arguments whole. The same arguments plus a flag the codec never
        /// writes (the gone blocking plane's `--io`), or plus a client flag
        /// without `--clients`, are refused, not ignored.
        #[test]
        fn any_node_config_roundtrips_through_its_args((nodes, run) in arb_node_run()) {
            let args = node_args(nodes.clone(), &run);
            prop_assert_eq!(parse_node_args(&args), Ok((nodes, run.clone())));
            let with = |extra: [&str; 2]| {
                let mut a = args.clone();
                a.extend(extra.map(String::from));
                parse_node_args(&a)
            };
            prop_assert!(with(["--io", "event"]).is_err());
            if run.clients.is_none() {
                prop_assert!(with(["--client-load", "closed:1:2"]).is_err());
                prop_assert!(with(["--client-mutation", "dup-stamp"]).is_err());
            }
        }
    }

    /// Garbage is refused, and so is a workload that cannot pace: an open
    /// rate that is not finite and above 0, a closed window of 0. A zero
    /// quota is legal.
    #[test]
    fn workload_and_chaos_parsers_reject_garbage() {
        assert!(parse_workload("open:fast:10").is_err());
        assert!(parse_workload("poisson:1:10").is_err());
        for cannot_pace in [
            "open:0:10",
            "open:nan:10",
            "open:-5:10",
            "open:inf:10",
            "closed:0:10",
        ] {
            assert!(parse_workload(cannot_pace).is_err(), "{cannot_pace}");
        }
        assert!(parse_workload("closed:4:0").is_ok());
        assert!(parse_chaos("1").is_err());
        assert!(parse_chaos("1:2:0-1:5").is_err());
        assert!(parse_workload("closed:4:100").is_ok());
        assert!(parse_chaos("3:2:0-4:10:40").is_ok());
        assert!(
            parse_node_args(&[]).is_err(),
            "--nodes, --n and --edges are required"
        );
        let words = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_node_args(&words("--nodes 0..1 --n 2 --edges 0-1")).is_ok());
        assert!(parse_node_args(&words("--nodes 0..2 --n 2 --edges 0-1")).is_ok());
        for missing in [
            "--n 2 --edges 0-1",
            "--nodes 0..1 --edges 0-1",
            "--nodes 0..1 --n 2",
            "--nodes 0..1 --n 3 --edges 0-1",
        ] {
            assert!(parse_node_args(&words(missing)).is_err(), "{missing}");
        }
        // A range that is empty or reaches past the graph is refused with
        // a message, not run into an index out of bounds.
        for (range, why) in [
            ("9..10", "want A..B, A < B <= 2"),
            ("0..3", "want A..B, A < B <= 2"),
            ("1..1", "want A..B, A < B <= 2"),
            ("2..1", "want A..B, A < B <= 2"),
            ("1", "want A..B"),
            ("0..x", "bad --nodes value"),
        ] {
            let line = format!("--nodes {range} --n 2 --edges 0-1");
            let err = parse_node_args(&words(&line)).unwrap_err();
            assert!(err.contains(why), "{range}: {err}");
        }
    }

    /// Malformed tokens and a block cut before its `end` are refused with
    /// `None`, never a panic — and so is a malformed delta line before a
    /// good block, a delta with no head and a head that names no member:
    /// each fails the report, none is skipped.
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

        let folded = fold_stream(&[0], &format!("node 0\ngen v1:2\ndel v3\n{text}"));
        assert!(folded.is_some());
        for bad in [
            "node 0\ngen v1:2 ",
            "node 0\ngen v1",
            "node 0\ndel v1 x2",
            "node 0\ndel  v1",
            "node 0\ngen v1:2\ndel v",
            "gen v1:2\ndel v3",
            "node 1\ngen v1:2\ndel v3",
            "node x\ngen v1:2\ndel v3",
            "node 0 \ngen v1:2\ndel v3",
        ] {
            assert_eq!(fold_stream(&[0], &format!("{bad}\n{text}")), None, "{bad}");
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
                timeouts: 14,
                slot_visits: 15,
                waits: 16,
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
             ctr 1 2 3 4 5 6 7 8 11 12 13 14 15 16\n\
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

    /// A 1 MB line read 4 KB at a time comes out once, whole, on the read
    /// that completes it; blank lines are dropped and trailing whitespace
    /// trimmed, whichever read they straddle.
    #[test]
    fn take_lines_reassembles_a_long_line_across_reads() {
        let long: String = (0..1 << 20)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        let stream = format!("first \r\n\n  \n{long}  \nlast\npart");
        let mut acc = Vec::new();
        let mut lines = Vec::new();
        for chunk in stream.as_bytes().chunks(4096) {
            take_lines(&mut acc, chunk, |l| {
                lines.push(String::from_utf8_lossy(l).into_owned())
            });
        }
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "first");
        assert!(lines[1] == long, "the long line came out changed");
        assert_eq!(lines[2], "last");
        assert_eq!(acc, b"part", "the unfinished line waits for its newline");
        let mut last = Vec::new();
        take_lines(&mut acc, b"ial \n", |l| last.push(l.to_vec()));
        assert_eq!(last, [b"partial"]);
        assert!(acc.is_empty());
    }
}
