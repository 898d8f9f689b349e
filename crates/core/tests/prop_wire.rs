//! Property tests for the wire codec and the message-interning table.
//!
//! Three obligations from the issue: (1) frame roundtrip is lossless,
//! (2) truncated/garbage input is rejected without panic, (3)
//! `MessageTable` id assignments are stable under interleaved interning
//! (an id handed out is never remapped, whatever else is interned).

use proptest::prelude::*;
use ssmfp_core::message::{Color, GhostId, Message};
use ssmfp_core::wire::{
    decode_body, encode_frame, FrameReader, FrameTag, WireError, WireFrame, WireMessage,
    MAX_FRAME_LEN,
};
use ssmfp_core::MessageTable;

fn arb_ghost() -> impl Strategy<Value = GhostId> {
    prop_oneof![
        any::<u64>().prop_map(GhostId::Valid),
        any::<u64>().prop_map(GhostId::Invalid),
    ]
}

fn arb_msg() -> impl Strategy<Value = WireMessage> {
    (any::<u64>(), any::<u8>(), arb_ghost()).prop_map(|(payload, color, ghost)| WireMessage {
        payload,
        color,
        ghost,
    })
}

fn arb_frame() -> impl Strategy<Value = WireFrame> {
    prop_oneof![
        (any::<u16>(), arb_msg(), any::<u64>()).prop_map(|(d, msg, nonce)| WireFrame::Offer {
            d,
            msg,
            nonce
        }),
        (any::<u16>(), arb_msg(), any::<u64>()).prop_map(|(d, msg, nonce)| WireFrame::Accept {
            d,
            msg,
            nonce
        }),
        (any::<u16>(), arb_msg(), any::<u64>()).prop_map(|(d, msg, nonce)| WireFrame::Confirm {
            d,
            msg,
            nonce
        }),
        (any::<u16>(), arb_msg(), any::<u64>()).prop_map(|(d, msg, nonce)| WireFrame::Deny {
            d,
            msg,
            nonce
        }),
        (any::<u16>(), any::<u32>()).prop_map(|(d, dist)| WireFrame::Dv { d, dist }),
        (any::<u16>(), any::<u64>()).prop_map(|(node, clock)| WireFrame::Heartbeat { node, clock }),
        (any::<u16>(), any::<u16>()).prop_map(|(src, dst)| WireFrame::Route { src, dst }),
    ]
}

proptest! {
    /// encode → decode is the identity, for every frame kind and any
    /// field values, including through an incremental reader fed the
    /// stream in arbitrary chunk sizes.
    #[test]
    fn roundtrip_lossless(frames in proptest::collection::vec(arb_frame(), 1..20),
                          chunk in 1usize..64) {
        let mut bytes = Vec::new();
        for f in &frames {
            encode_frame(f, &mut bytes);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for piece in bytes.chunks(chunk) {
            reader.extend(piece);
            while let Some(f) = reader.next_frame().expect("clean stream must decode") {
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(reader.pending(), 0);
    }

    /// A truncated valid stream never errors — it parks waiting for the
    /// rest — and never yields a frame beyond the fully received prefix.
    #[test]
    fn truncation_parks_without_error(frame in arb_frame(), cut_back in 1usize..8) {
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let cut = bytes.len().saturating_sub(cut_back).max(1);
        let mut reader = FrameReader::new();
        reader.extend(&bytes[..cut]);
        prop_assert_eq!(reader.next_frame(), Ok(None));
        reader.extend(&bytes[cut..]);
        prop_assert_eq!(reader.next_frame(), Ok(Some(frame)));
    }

    /// Arbitrary garbage never panics the decoder: every outcome is a
    /// clean `Ok`/`Err`, and an oversized length prefix is refused
    /// before any allocation proportional to it.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        // Drain until the stream errors or parks; both are acceptable,
        // panicking or looping forever is not.
        for _ in 0..bytes.len() + 1 {
            match reader.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
        // Direct body decoding is total too.
        let _ = decode_body(&bytes);
    }

    /// Bit-flipping a valid frame's tag or length never panics, and a
    /// corrupted tag byte is either another valid tag or a structural
    /// rejection.
    #[test]
    fn flipped_bytes_rejected_cleanly(frame in arb_frame(), at in 0usize..8, bit in 0u8..8) {
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let at = at % bytes.len();
        bytes[at] ^= 1 << bit;
        let mut reader = FrameReader::new();
        reader.extend(&bytes);
        match reader.next_frame() {
            Ok(_) => {}
            Err(WireError::OversizedFrame(len)) => prop_assert!(len > MAX_FRAME_LEN),
            Err(_) => {}
        }
    }

    /// A `Route` is the tag and two ids, exactly: it round-trips, it is
    /// supervision (the chaos shim never sees it), and a body under its
    /// tag that is cut short or runs long is a structural rejection
    /// whatever bytes it holds.
    #[test]
    fn route_roundtrips_and_rejects_other_lengths(
        src in any::<u16>(), dst in any::<u16>(),
        body in proptest::collection::vec(any::<u8>(), 0..12)
    ) {
        let frame = WireFrame::Route { src, dst };
        prop_assert!(!frame.is_data_plane());
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        prop_assert_eq!(bytes.len(), 4 + 1 + 2 + 2);
        prop_assert_eq!(decode_body(&bytes[4..]), Ok(frame));
        let mut tagged = vec![FrameTag::Route.as_u8()];
        tagged.extend_from_slice(&body);
        match decode_body(&tagged) {
            Ok(WireFrame::Route { .. }) => prop_assert_eq!(body.len(), 4),
            Err(WireError::BadBodyLen { tag: FrameTag::Route, expected: 4, got }) => {
                prop_assert_eq!(got, body.len());
                prop_assert!(got != 4);
            }
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// Interleaved interning never remaps an id: whatever mix of new and
    /// repeated messages two logical "writers" intern, every id observed
    /// earlier still resolves to the same message afterwards — the
    /// append-only guarantee cross-version readers rely on.
    #[test]
    fn message_table_ids_stable_under_interleaving(
        script in proptest::collection::vec((any::<bool>(), 0u64..40, 0u8..4), 1..200)
    ) {
        let mut table = MessageTable::new();
        let mut observed: Vec<(u32, Message)> = Vec::new();
        for (writer_b, payload, color) in script {
            // Two interleaved writers with overlapping message pools.
            let m = Message {
                payload: if writer_b { payload } else { payload / 2 },
                last_hop: usize::from(writer_b),
                color: Color(color),
                ghost: GhostId::Valid(payload % 7),
            };
            let id = table.intern(m);
            prop_assert_eq!(table.resolve(id), m);
            // Every previously issued id still resolves identically.
            for &(old_id, old_m) in &observed {
                prop_assert_eq!(table.resolve(old_id), old_m);
            }
            observed.push((id, m));
        }
        // Ids are dense: the table's length equals the distinct count.
        let distinct: std::collections::HashSet<Message> =
            observed.iter().map(|&(_, m)| m).collect();
        prop_assert_eq!(table.len(), distinct.len());
    }
}
