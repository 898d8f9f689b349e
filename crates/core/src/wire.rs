//! Wire codec for the cluster runtime: length-prefixed frames carrying
//! the port's link-crossing traffic over real sockets.
//!
//! Every frame is `len:u32 LE` followed by `len` body bytes; the body is
//! a one-byte [`FrameTag`] followed by that tag's fixed-layout fields
//! (little-endian throughout). Ghost identities reuse
//! [`crate::codec::encode_ghost`]/[`crate::codec::decode_ghost`] — the
//! same `(tag, lo, hi)` convention the packed state codec frames its
//! word streams with — so the wire and the checker agree on one encoding.
//! A handshake frame carries the handshake's destination and nonce and
//! the paper's message triplet less its last hop, which the link implies:
//! payload, color and ghost, 32 body bytes. A client's identity rides in
//! the ghost and nowhere else. Each tag's encoded length is pinned by a
//! test, so a field added to or dropped from a frame is a reviewed change.
//!
//! The decoder is **total**: truncated input parks in the reader until
//! more bytes arrive, and structurally invalid input (unknown tag, body
//! length that does not match the tag's layout, length prefix above
//! [`MAX_FRAME_LEN`]) returns a [`WireError`] instead of panicking or
//! allocating unboundedly. The property suite in `tests/prop_wire.rs`
//! drives both directions: encode→decode losslessness and
//! garbage-rejection without panic.
//!
//! [`FrameTag::ALL`] and [`LINK_EVENT_KINDS`] are the declared surface
//! for `ssmfp-lint`'s `wire-coverage` lint: every protocol event kind
//! that crosses a link must have exactly one frame tag, and every frame
//! tag must map back to exactly one declared kind.

use crate::codec::{decode_ghost, encode_ghost};
use crate::message::GhostId;

/// Upper bound on a frame body. The largest legal body today is a
/// handshake's ([`FrameTag::Offer`] and its replies) 32 bytes; the bound
/// leaves headroom for growth while making a garbage length prefix
/// unable to stall the stream or balloon the reader's buffer.
pub const MAX_FRAME_LEN: u32 = 256;

/// The one-byte discriminant of every frame kind on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameTag {
    /// R3's offer of a tentative copy to the next hop.
    Offer = 1,
    /// The next hop's acceptance (tentative copy written).
    Accept = 2,
    /// R4's certification: the source erased, the copy is now the one.
    Confirm = 3,
    /// R5's disavowal: the tentative copy must be dropped.
    Deny = 4,
    /// Routing algorithm `A`'s distance-vector advertisement.
    Dv = 5,
    /// Liveness probe on an idle link (supervision only, never audited).
    Heartbeat = 7,
    /// Which directed edge the data-plane frames that follow on this
    /// stream belong to, until the next one (supervision only).
    Route = 8,
}

impl FrameTag {
    /// Every tag, in wire order.
    pub const ALL: [FrameTag; 7] = [
        FrameTag::Offer,
        FrameTag::Accept,
        FrameTag::Confirm,
        FrameTag::Deny,
        FrameTag::Dv,
        FrameTag::Heartbeat,
        FrameTag::Route,
    ];

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FrameTag::as_u8`].
    pub fn from_u8(b: u8) -> Option<FrameTag> {
        FrameTag::ALL.iter().copied().find(|t| t.as_u8() == b)
    }

    /// The link-crossing protocol event kind this tag carries — the
    /// lint's mapping surface. Exactly one tag must claim each entry of
    /// [`LINK_EVENT_KINDS`].
    pub fn event_kind(self) -> &'static str {
        match self {
            FrameTag::Offer => "port.offer",
            FrameTag::Accept => "port.accept",
            FrameTag::Confirm => "port.confirm",
            FrameTag::Deny => "port.deny",
            FrameTag::Dv => "routing.dv",
            FrameTag::Heartbeat => "control.heartbeat",
            FrameTag::Route => "control.route",
        }
    }
}

/// Every protocol event kind that crosses a link, declared once. The
/// `wire-coverage` lint checks this list against [`FrameTag::ALL`] in
/// both directions.
pub const LINK_EVENT_KINDS: [&str; 7] = [
    "port.offer",
    "port.accept",
    "port.confirm",
    "port.deny",
    "routing.dv",
    "control.heartbeat",
    "control.route",
];

/// The message triplet as it crosses a link: payload, color, ghost. The
/// last-hop field of the state model's triplet is implicit in the link
/// the frame arrives on. The port's buffers hold this same struct
/// (`MpMessage` in `crates/mp`), so a frame carries exactly what a
/// buffer holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireMessage {
    /// Application payload.
    pub payload: u64,
    /// Per-hop color in `{0..Δ}`.
    pub color: u8,
    /// Ghost identity (test instrumentation; carried for the audit, and
    /// the only place a client's identity rides).
    pub ghost: GhostId,
}

/// One decoded frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFrame {
    /// `Offer { d, msg, nonce }` — see [`FrameTag::Offer`].
    Offer {
        /// Destination the handshake forwards toward.
        d: u16,
        /// The offered message.
        msg: WireMessage,
        /// Per-offer nonce pairing the reply.
        nonce: u64,
    },
    /// `Accept { d, msg, nonce }`.
    Accept {
        /// Destination slot.
        d: u16,
        /// The accepted message (echoed).
        msg: WireMessage,
        /// The offer's nonce.
        nonce: u64,
    },
    /// `Confirm { d, msg, nonce }`.
    Confirm {
        /// Destination slot.
        d: u16,
        /// The certified message (echoed).
        msg: WireMessage,
        /// The offer's nonce.
        nonce: u64,
    },
    /// `Deny { d, msg, nonce }`.
    Deny {
        /// Destination slot.
        d: u16,
        /// The disavowed message (echoed).
        msg: WireMessage,
        /// The offer's nonce.
        nonce: u64,
    },
    /// `Dv { d, dist }` — routing advertisement.
    Dv {
        /// Destination the estimate refers to.
        d: u16,
        /// Estimated distance.
        dist: u32,
    },
    /// `Heartbeat { node, clock }` — idle-link liveness probe.
    Heartbeat {
        /// The probing node's id.
        node: u16,
        /// Its monotonic probe counter.
        clock: u64,
    },
    /// `Route { src, dst }` — several links may share one ordered byte
    /// stream; the data-plane frames after this one, up to the next
    /// `Route`, crossed the link `src → dst`.
    Route {
        /// The sending end of the link.
        src: u16,
        /// The receiving end of the link.
        dst: u16,
    },
}

impl WireFrame {
    /// This frame's tag.
    pub fn tag(&self) -> FrameTag {
        match self {
            WireFrame::Offer { .. } => FrameTag::Offer,
            WireFrame::Accept { .. } => FrameTag::Accept,
            WireFrame::Confirm { .. } => FrameTag::Confirm,
            WireFrame::Deny { .. } => FrameTag::Deny,
            WireFrame::Dv { .. } => FrameTag::Dv,
            WireFrame::Heartbeat { .. } => FrameTag::Heartbeat,
            WireFrame::Route { .. } => FrameTag::Route,
        }
    }

    /// Whether this frame is data-plane traffic (audited, chaos-eligible)
    /// as opposed to supervision (`Heartbeat`/`Route`, which the
    /// chaos shim must never touch lest it kill — or mislabel — the link
    /// it is testing).
    pub fn is_data_plane(&self) -> bool {
        !matches!(self, WireFrame::Heartbeat { .. } | WireFrame::Route { .. })
    }
}

/// A structural decoding failure. Every variant is a *rejection* — the
/// decoder never panics on adversarial bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    OversizedFrame(u32),
    /// The body was empty (no tag byte).
    EmptyBody,
    /// The tag byte is not a known [`FrameTag`].
    UnknownTag(u8),
    /// The body length does not match the tag's fixed layout.
    BadBodyLen {
        /// The offending tag.
        tag: FrameTag,
        /// Bytes the layout requires.
        expected: usize,
        /// Bytes the body carried.
        got: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::OversizedFrame(len) => {
                write!(
                    f,
                    "frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            WireError::EmptyBody => write!(f, "empty frame body"),
            WireError::UnknownTag(b) => write!(f, "unknown frame tag {b:#04x}"),
            WireError::BadBodyLen { tag, expected, got } => {
                write!(f, "{tag:?} body is {got} bytes, layout requires {expected}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_msg(out: &mut Vec<u8>, msg: &WireMessage) {
    put_u64(out, msg.payload);
    out.push(msg.color);
    let (gtag, lo, hi) = encode_ghost(msg.ghost);
    put_u32(out, gtag);
    put_u32(out, lo);
    put_u32(out, hi);
}

/// Bytes of a handshake body: tag + d + nonce + (payload, color, ghost).
const HANDSHAKE_BODY: usize = 1 + 2 + 8 + (8 + 1 + 12);

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take<const K: usize>(&mut self) -> [u8; K] {
        let mut out = [0u8; K];
        out.copy_from_slice(&self.bytes[self.at..self.at + K]);
        self.at += K;
        out
    }

    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take::<2>())
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take::<4>())
    }

    fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take::<8>())
    }

    fn msg(&mut self) -> WireMessage {
        let payload = self.u64();
        let color = self.bytes[self.at];
        self.at += 1;
        let (gtag, lo, hi) = (self.u32(), self.u32(), self.u32());
        WireMessage {
            payload,
            color,
            ghost: decode_ghost(gtag, lo, hi),
        }
    }
}

/// Encodes one frame — length prefix included — appending to `out`.
pub fn encode_frame(frame: &WireFrame, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // length placeholder
    out.push(frame.tag().as_u8());
    match frame {
        WireFrame::Offer { d, msg, nonce }
        | WireFrame::Accept { d, msg, nonce }
        | WireFrame::Confirm { d, msg, nonce }
        | WireFrame::Deny { d, msg, nonce } => {
            put_u16(out, *d);
            put_u64(out, *nonce);
            put_msg(out, msg);
        }
        WireFrame::Dv { d, dist } => {
            put_u16(out, *d);
            put_u32(out, *dist);
        }
        WireFrame::Heartbeat { node, clock } => {
            put_u16(out, *node);
            put_u64(out, *clock);
        }
        WireFrame::Route { src, dst } => {
            put_u16(out, *src);
            put_u16(out, *dst);
        }
    }
    let body_len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
}

/// Decodes one frame *body* (the bytes after the length prefix).
pub fn decode_body(body: &[u8]) -> Result<WireFrame, WireError> {
    let Some((&tag_byte, rest)) = body.split_first() else {
        return Err(WireError::EmptyBody);
    };
    let tag = FrameTag::from_u8(tag_byte).ok_or(WireError::UnknownTag(tag_byte))?;
    let expected = match tag {
        FrameTag::Offer | FrameTag::Accept | FrameTag::Confirm | FrameTag::Deny => {
            HANDSHAKE_BODY - 1
        }
        FrameTag::Dv => 2 + 4,
        FrameTag::Heartbeat => 2 + 8,
        FrameTag::Route => 2 + 2,
    };
    if rest.len() != expected {
        return Err(WireError::BadBodyLen {
            tag,
            expected,
            got: rest.len(),
        });
    }
    let mut c = Cursor { bytes: rest, at: 0 };
    Ok(match tag {
        FrameTag::Offer => {
            let d = c.u16();
            let nonce = c.u64();
            let msg = c.msg();
            WireFrame::Offer { d, msg, nonce }
        }
        FrameTag::Accept => {
            let d = c.u16();
            let nonce = c.u64();
            let msg = c.msg();
            WireFrame::Accept { d, msg, nonce }
        }
        FrameTag::Confirm => {
            let d = c.u16();
            let nonce = c.u64();
            let msg = c.msg();
            WireFrame::Confirm { d, msg, nonce }
        }
        FrameTag::Deny => {
            let d = c.u16();
            let nonce = c.u64();
            let msg = c.msg();
            WireFrame::Deny { d, msg, nonce }
        }
        FrameTag::Dv => WireFrame::Dv {
            d: c.u16(),
            dist: c.u32(),
        },
        FrameTag::Heartbeat => WireFrame::Heartbeat {
            node: c.u16(),
            clock: c.u64(),
        },
        FrameTag::Route => WireFrame::Route {
            src: c.u16(),
            dst: c.u16(),
        },
    })
}

/// Incremental frame decoder over a byte stream: feed arbitrary chunks
/// with [`FrameReader::extend`], pop complete frames with
/// [`FrameReader::next_frame`]. A structural error poisons the stream —
/// the caller must drop the connection (resynchronizing inside a
/// length-prefixed stream after corruption is not meaningful).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    at: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.at == self.buf.len() {
            // Fully consumed: recycle capacity for free instead of
            // letting the dead prefix grow toward the compaction
            // threshold — the common case on the event loop's incremental
            // readiness reads, where most reads end frame-aligned.
            self.buf.clear();
            self.at = 0;
        } else if self.at > 4096 && self.at * 2 > self.buf.len() {
            // Compact lazily: only when the consumed prefix dominates.
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Pops the next complete frame. `Ok(None)` means "need more bytes".
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, WireError> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::OversizedFrame(len));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..total])?;
        self.at += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<WireFrame> {
        let msg = WireMessage {
            payload: 0xDEAD_BEEF_0BAD_F00D,
            color: 3,
            ghost: GhostId::Valid(42),
        };
        let inv = WireMessage {
            payload: 7,
            color: 0,
            ghost: GhostId::Invalid(u64::MAX),
        };
        vec![
            WireFrame::Offer {
                d: 4,
                msg,
                nonce: 0x1234_5678_9ABC_DEF0,
            },
            WireFrame::Accept {
                d: 0,
                msg: inv,
                nonce: 0,
            },
            WireFrame::Confirm {
                d: u16::MAX,
                msg,
                nonce: u64::MAX,
            },
            WireFrame::Deny {
                d: 1,
                msg,
                nonce: 9,
            },
            WireFrame::Dv { d: 3, dist: 17 },
            WireFrame::Heartbeat { node: 2, clock: 99 },
            WireFrame::Route { src: 3, dst: 4 },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for frame in sample_frames() {
            let mut bytes = Vec::new();
            encode_frame(&frame, &mut bytes);
            let mut r = FrameReader::new();
            r.extend(&bytes);
            assert_eq!(r.next_frame(), Ok(Some(frame)));
            assert_eq!(r.next_frame(), Ok(None));
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_stream() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
        }
        let mut r = FrameReader::new();
        let mut decoded = Vec::new();
        for b in bytes {
            r.extend(&[b]);
            while let Some(f) = r.next_frame().expect("clean stream") {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut r = FrameReader::new();
        r.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            r.next_frame(),
            Err(WireError::OversizedFrame(MAX_FRAME_LEN + 1))
        );
    }

    /// An unassigned byte, and 6 — the retired `Hello` — are no tag.
    #[test]
    fn unknown_tag_rejected() {
        for tag in [0xEE, 6] {
            let mut bytes = Vec::new();
            put_u32(&mut bytes, 7);
            bytes.push(tag);
            bytes.extend_from_slice(&[0; 6]);
            let mut r = FrameReader::new();
            r.extend(&bytes);
            assert_eq!(r.next_frame(), Err(WireError::UnknownTag(tag)));
        }
    }

    #[test]
    fn wrong_body_length_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        bytes.push(FrameTag::Dv.as_u8());
        bytes.extend_from_slice(&[0, 0]);
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(matches!(
            r.next_frame(),
            Err(WireError::BadBodyLen {
                tag: FrameTag::Dv,
                ..
            })
        ));
    }

    /// Each tag's encoded length, length prefix included, is pinned: a
    /// field added to or dropped from a frame is a reviewed change here,
    /// and a peer built with the earlier 44-byte handshake body (it
    /// carried a 12-byte client stamp) is refused, not misread.
    #[test]
    fn every_frame_has_its_pinned_length() {
        let want = |f: &WireFrame| match f.tag() {
            FrameTag::Offer | FrameTag::Accept | FrameTag::Confirm | FrameTag::Deny => 36,
            FrameTag::Dv => 11,
            FrameTag::Heartbeat => 15,
            FrameTag::Route => 9,
        };
        let frames = sample_frames();
        for tag in FrameTag::ALL {
            assert!(frames.iter().any(|f| f.tag() == tag), "{tag:?} unsampled");
        }
        for frame in &frames {
            let mut bytes = Vec::new();
            encode_frame(frame, &mut bytes);
            assert_eq!(bytes.len(), want(frame), "{frame:?}");
        }
        let mut old = Vec::new();
        put_u32(&mut old, 44);
        old.push(FrameTag::Offer.as_u8());
        old.extend_from_slice(&[0; 43]);
        let mut r = FrameReader::new();
        r.extend(&old);
        assert_eq!(
            r.next_frame(),
            Err(WireError::BadBodyLen {
                tag: FrameTag::Offer,
                expected: 31,
                got: 43
            })
        );
    }

    #[test]
    fn tag_kind_mapping_is_a_bijection() {
        let mut kinds: Vec<&str> = FrameTag::ALL.iter().map(|t| t.event_kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), FrameTag::ALL.len());
        for kind in LINK_EVENT_KINDS {
            assert!(FrameTag::ALL.iter().any(|t| t.event_kind() == kind));
        }
        assert_eq!(LINK_EVENT_KINDS.len(), FrameTag::ALL.len());
    }
}
