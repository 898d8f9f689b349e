//! A socket-backed [`Transport`]: every directed edge is a real
//! `UnixStream` pair carrying length-prefixed frames from `core::wire`.
//!
//! This is the bridge that lets the simulator's adversarial scheduler
//! drive the protocol over actual OS sockets — the shared exactly-once
//! suite in `ssmfp_mp::suite` runs unchanged against it, so the channel
//! transport and the socket path are conformance-tested by the *same*
//! properties (and any framing bug shows up as a protocol-level failure).

use crate::evloop::{PollSet, WriteBuf, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::frame::{frame_to_msg, msg_to_frame};
use ssmfp_core::wire::FrameReader;
use ssmfp_mp::{ChannelFaults, FaultClerk, LinkId, Transport, WireMsg};
use ssmfp_topology::Graph;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::os::unix::prelude::AsRawFd;

struct PolledLane {
    link: LinkId,
    tx: UnixStream,
    rx: UnixStream,
    /// Coalescing outbound buffer: `send` only appends; bytes reach the
    /// socket in batched writes from [`PolledTransport::drive`].
    out: WriteBuf,
    reader: FrameReader,
    queue: VecDeque<WireMsg>,
    /// Frames handed to `send` minus frames decoded on the far side.
    sent: u64,
    decoded: u64,
}

impl PolledLane {
    /// Decodes whatever the incremental reader has accumulated.
    fn drain_frames(&mut self) {
        loop {
            match self.reader.next_frame() {
                Ok(Some(frame)) => {
                    self.decoded += 1;
                    if let Some(msg) = frame_to_msg(&frame) {
                        self.queue.push_back(msg);
                    }
                }
                Ok(None) => return,
                Err(e) => panic!("polled decode on {:?}: {e}", self.link),
            }
        }
    }
}

/// The event loop's building blocks ([`WriteBuf`] coalescing, [`PollSet`]
/// readiness, incremental [`FrameReader`]) behind the plain [`Transport`]
/// trait, so the shared exactly-once suite conformance-tests the batched
/// wire hot path itself.
///
/// `send` never touches the socket: frames accumulate in the per-edge
/// [`WriteBuf`] and cross the kernel in coalesced writes when
/// [`Transport::drive`] observes `POLLOUT` readiness. That makes the
/// adversarial scheduler exercise arbitrary interleavings of "buffered
/// but unflushed" and "in socket but undecoded" states.
pub struct PolledTransport {
    lanes: Vec<PolledLane>,
    clerk: Option<FaultClerk>,
    poll: PollSet,
    scratch: Vec<u8>,
    write_syscalls: u64,
    read_syscalls: u64,
    frames_flushed: u64,
}

impl PolledTransport {
    /// Builds one nonblocking socket pair per directed edge.
    pub fn new(graph: &Graph) -> Self {
        let mut lanes = Vec::new();
        for &(p, q) in graph.edges() {
            for link in [LinkId { from: p, to: q }, LinkId { from: q, to: p }] {
                let (tx, rx) = UnixStream::pair().expect("socketpair");
                tx.set_nonblocking(true).expect("nonblocking tx");
                rx.set_nonblocking(true).expect("nonblocking rx");
                lanes.push(PolledLane {
                    link,
                    tx,
                    rx,
                    out: WriteBuf::with_capacity(4096),
                    reader: FrameReader::new(),
                    queue: VecDeque::new(),
                    sent: 0,
                    decoded: 0,
                });
            }
        }
        PolledTransport {
            lanes,
            clerk: None,
            poll: PollSet::new(),
            scratch: vec![0u8; 4096],
            write_syscalls: 0,
            read_syscalls: 0,
            frames_flushed: 0,
        }
    }

    fn index(&self, link: LinkId) -> usize {
        self.lanes
            .iter()
            .position(|l| l.link == link)
            .expect("messages may only be sent to neighbours")
    }

    /// `(frames flushed, write syscalls, read syscalls)` — the
    /// observability hook the coalescing test asserts against.
    pub fn io_counts(&self) -> (u64, u64, u64) {
        (self.frames_flushed, self.write_syscalls, self.read_syscalls)
    }

    /// One readiness pass: registers every receiving end for `POLLIN`
    /// and every lane with pending output for `POLLOUT`, polls with a
    /// zero timeout, then flushes/pumps exactly the ready lanes.
    fn poll_pass(&mut self) {
        self.poll.clear();
        let mut rx_slots = Vec::with_capacity(self.lanes.len());
        let mut tx_slots = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            rx_slots.push(self.poll.push(lane.rx.as_raw_fd(), POLLIN));
            if !lane.out.is_empty() {
                tx_slots.push((self.poll.push(lane.tx.as_raw_fd(), POLLOUT), i));
            }
        }
        match self.poll.poll(Some(std::time::Duration::ZERO)) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) => panic!("polled transport poll: {e}"),
        }
        for (slot, i) in tx_slots {
            if self.poll.revents(slot) & (POLLOUT | POLLERR | POLLHUP) != 0 {
                let lane = &mut self.lanes[i];
                loop {
                    match lane.tx.write(lane.out.pending_bytes()) {
                        Ok(k) => {
                            self.write_syscalls += 1;
                            if let Some(batch) = lane.out.consume(k) {
                                self.frames_flushed += batch as u64;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => panic!("polled write on {:?}: {e}", lane.link),
                    }
                }
            }
        }
        for (i, slot) in rx_slots.into_iter().enumerate() {
            if self.poll.revents(slot) & (POLLIN | POLLERR | POLLHUP) != 0 {
                let lane = &mut self.lanes[i];
                loop {
                    match lane.rx.read(&mut self.scratch) {
                        Ok(0) => break,
                        Ok(k) => {
                            self.read_syscalls += 1;
                            lane.reader.extend(&self.scratch[..k]);
                            if k < self.scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) => panic!("polled read on {:?}: {e}", lane.link),
                    }
                }
                lane.drain_frames();
            }
        }
    }
}

impl Transport<WireMsg> for PolledTransport {
    fn send(&mut self, link: LinkId, msg: WireMsg) {
        let idx = self.index(link);
        let frame = msg_to_frame(&msg);
        let lane = &mut self.lanes[idx];
        lane.out.push_frame(&frame);
        lane.sent += 1;
    }

    fn drive(&mut self) {
        self.poll_pass();
    }

    fn busy_links(&mut self, out: &mut Vec<LinkId>) {
        // Pump here too so the suite stays correct even for callers that
        // never invoke `drive` between steps.
        self.poll_pass();
        for lane in &self.lanes {
            if !lane.queue.is_empty() {
                out.push(lane.link);
            }
        }
    }

    fn recv(&mut self, link: LinkId) -> Option<WireMsg> {
        let idx = self.index(link);
        if self.lanes[idx].queue.is_empty() {
            self.poll_pass();
        }
        let lane = &mut self.lanes[idx];
        match &mut self.clerk {
            Some(clerk) => clerk.pull(&mut lane.queue),
            None => Some(lane.queue.pop_front().expect("busy link")),
        }
    }

    fn in_flight(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| (l.sent - l.decoded) as usize + l.queue.len())
            .sum()
    }

    fn set_faults(&mut self, faults: ChannelFaults) {
        self.clerk = Some(FaultClerk::new(faults));
    }

    fn faults_exhausted(&self) -> bool {
        self.clerk.as_ref().is_none_or(FaultClerk::exhausted)
    }

    fn fault_counts(&self) -> (u64, u64, u64) {
        self.clerk.as_ref().map_or((0, 0, 0), FaultClerk::counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_mp::suite;
    use ssmfp_topology::gen;

    /// The same conformance suite `crates/mp` runs over its in-process
    /// channels, here over real kernel sockets on the batched readiness
    /// path — coalescing is invisible to the protocol.
    #[test]
    fn polled_transport_exactly_once_clean() {
        let outcome = suite::exactly_once_clean(PolledTransport::new, 0..3);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    #[test]
    fn polled_transport_exactly_once_under_faults() {
        let outcome = suite::exactly_once_under_faults(PolledTransport::new, 0..6);
        assert!(outcome.clean());
        assert!(outcome.sent > 0);
    }

    /// Many sends followed by one `drive` must cross the socket in far
    /// fewer writes than frames — the coalescing contract itself.
    #[test]
    fn polled_transport_coalesces_frames_into_batched_writes() {
        let g = gen::line(2);
        let mut t = PolledTransport::new(&g);
        let link = LinkId { from: 0, to: 1 };
        for i in 0..64 {
            t.send(link, WireMsg::Dv { d: 1, dist: i });
        }
        assert_eq!(t.in_flight(), 64);
        t.drive();
        let (frames, writes, _) = t.io_counts();
        assert_eq!(frames, 64);
        assert!(
            writes * 8 <= frames,
            "expected >=8 frames/write, got {frames} frames in {writes} writes"
        );
        let mut busy = Vec::new();
        t.busy_links(&mut busy);
        assert_eq!(busy, vec![link]);
        for i in 0..64 {
            assert_eq!(t.recv(link), Some(WireMsg::Dv { d: 1, dist: i }));
        }
        assert_eq!(t.in_flight(), 0);
    }

    /// Unflushed frames count as in flight: the convergence detector must
    /// not declare quiescence while bytes sit in a coalescing buffer.
    #[test]
    fn polled_transport_counts_buffered_frames_in_flight() {
        let g = gen::line(2);
        let mut t = PolledTransport::new(&g);
        let link = LinkId { from: 0, to: 1 };
        t.send(link, WireMsg::Dv { d: 1, dist: 9 });
        // Not driven yet: the frame lives only in the WriteBuf.
        let (frames, _, _) = t.io_counts();
        assert_eq!(frames, 0);
        assert_eq!(t.in_flight(), 1);
    }
}
