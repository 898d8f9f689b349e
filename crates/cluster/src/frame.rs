//! Mapping between the simulator's [`WireMsg`] and the wire codec's
//! [`WireFrame`].
//!
//! Both sides carry the same ghost identity (`ssmfp_core::GhostId`;
//! `MpGhost` is its name in `crates/mp`), so nothing is converted there.
//! What this (total, lossless) bridge still converts: destinations
//! (`usize` in the simulator, `u16` on the wire), the client stamp a
//! client-mode frame carries beside its ghost, and the supervision frames
//! `Heartbeat`/`Route`, which have no `WireMsg` counterpart —
//! [`frame_to_msg`] returns `None` for them.

use ssmfp_core::wire::{ClientStamp, WireFrame, WireMessage};
use ssmfp_core::GhostId;
use ssmfp_mp::{decode_client_ghost, MpGhost, MpMessage, WireMsg};

/// The identity (`MpGhost` *is* `GhostId`). No caller in the workspace;
/// the frozen `benchmark/src/rep.rs` imports it.
#[doc(hidden)]
pub fn ghost_to_wire(g: MpGhost) -> GhostId {
    g
}

fn msg_to_wire(m: &MpMessage) -> WireMessage {
    WireMessage {
        payload: m.payload,
        color: m.color,
        ghost: m.ghost,
        stamp: ClientStamp::NONE,
    }
}

/// The wire stamp a client-mode ghost carries: the flat client id and
/// sequence from [`ssmfp_mp::clients`]'s packing. Invalid ghosts
/// (initial-configuration garbage) carry no stamp.
pub fn client_stamp_of(g: MpGhost) -> ClientStamp {
    match decode_client_ghost(g) {
        Some(p) => ClientStamp {
            client: p.client_id(),
            seq: p.seq,
        },
        None => ClientStamp::NONE,
    }
}

fn msg_to_wire_client(m: &MpMessage) -> WireMessage {
    WireMessage {
        stamp: client_stamp_of(m.ghost),
        ..msg_to_wire(m)
    }
}

fn msg_from_wire(m: &WireMessage) -> MpMessage {
    MpMessage {
        payload: m.payload,
        color: m.color,
        ghost: m.ghost,
    }
}

/// Encodes a simulator message as a frame. Destinations are `usize` in
/// the simulator and `u16` on the wire; [`ssmfp_core::wire`]'s layout
/// bounds instances at `n < 2^16`, far above any deployable topology.
pub fn msg_to_frame(msg: &WireMsg) -> WireFrame {
    msg_to_frame_with(msg, msg_to_wire)
}

/// Client-mode encoding: like [`msg_to_frame`] but every handshake
/// frame carries the `(client_id, client_seq)` stamp decoded from its
/// ghost, so the identity the per-client audit reconciles is visible on
/// the wire itself (the ghost stays authoritative on decode).
pub fn msg_to_frame_client(msg: &WireMsg) -> WireFrame {
    msg_to_frame_with(msg, msg_to_wire_client)
}

fn msg_to_frame_with(msg: &WireMsg, conv: fn(&MpMessage) -> WireMessage) -> WireFrame {
    match msg {
        WireMsg::Offer { d, msg, nonce } => WireFrame::Offer {
            d: *d as u16,
            msg: conv(msg),
            nonce: *nonce,
        },
        WireMsg::Accept { d, msg, nonce } => WireFrame::Accept {
            d: *d as u16,
            msg: conv(msg),
            nonce: *nonce,
        },
        WireMsg::Confirm { d, msg, nonce } => WireFrame::Confirm {
            d: *d as u16,
            msg: conv(msg),
            nonce: *nonce,
        },
        WireMsg::Deny { d, msg, nonce } => WireFrame::Deny {
            d: *d as u16,
            msg: conv(msg),
            nonce: *nonce,
        },
        WireMsg::Dv { d, dist } => WireFrame::Dv {
            d: *d as u16,
            dist: *dist,
        },
    }
}

/// Decodes a frame back into a simulator message; `None` for the
/// supervision frames (`Heartbeat`/`Route`), which never reach
/// the protocol.
pub fn frame_to_msg(frame: &WireFrame) -> Option<WireMsg> {
    Some(match frame {
        WireFrame::Offer { d, msg, nonce } => WireMsg::Offer {
            d: *d as usize,
            msg: msg_from_wire(msg),
            nonce: *nonce,
        },
        WireFrame::Accept { d, msg, nonce } => WireMsg::Accept {
            d: *d as usize,
            msg: msg_from_wire(msg),
            nonce: *nonce,
        },
        WireFrame::Confirm { d, msg, nonce } => WireMsg::Confirm {
            d: *d as usize,
            msg: msg_from_wire(msg),
            nonce: *nonce,
        },
        WireFrame::Deny { d, msg, nonce } => WireMsg::Deny {
            d: *d as usize,
            msg: msg_from_wire(msg),
            nonce: *nonce,
        },
        WireFrame::Dv { d, dist } => WireMsg::Dv {
            d: *d as usize,
            dist: *dist,
        },
        WireFrame::Heartbeat { .. } | WireFrame::Route { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_frame_roundtrip() {
        let msgs = vec![
            WireMsg::Offer {
                d: 3,
                msg: MpMessage {
                    payload: 99,
                    color: 2,
                    ghost: MpGhost::Valid(7),
                },
                nonce: 0xABCD,
            },
            WireMsg::Deny {
                d: 0,
                msg: MpMessage {
                    payload: 0,
                    color: 0,
                    ghost: MpGhost::Invalid(3),
                },
                nonce: 1,
            },
            WireMsg::Dv { d: 5, dist: 2 },
        ];
        for m in msgs {
            let f = msg_to_frame(&m);
            assert_eq!(frame_to_msg(&f), Some(m));
        }
        assert_eq!(
            frame_to_msg(&WireFrame::Heartbeat { node: 1, clock: 2 }),
            None
        );
        assert_eq!(frame_to_msg(&WireFrame::Route { src: 1, dst: 2 }), None);
    }

    #[test]
    fn client_mode_frames_carry_the_ghost_stamp() {
        let g = ssmfp_mp::client_ghost(3, 17, 9);
        let m = WireMsg::Offer {
            d: 1,
            msg: MpMessage {
                payload: 5,
                color: 1,
                ghost: g,
            },
            nonce: 2,
        };
        let WireFrame::Offer { msg, .. } = msg_to_frame_client(&m) else {
            panic!("offer stays an offer");
        };
        let parts = ssmfp_mp::decode_client_ghost(g).unwrap();
        assert!(msg.stamp.is_present());
        assert_eq!(msg.stamp.client, parts.client_id());
        assert_eq!(msg.stamp.seq, 9);
        // Node-mode frames carry no stamp; decode ignores it either way.
        let WireFrame::Offer { msg: plain, .. } = msg_to_frame(&m) else {
            panic!("offer stays an offer");
        };
        assert_eq!(plain.stamp, ClientStamp::NONE);
        assert_eq!(frame_to_msg(&msg_to_frame_client(&m)), Some(m));
    }
}
