//! Mapping between the simulator's [`WireMsg`] and the wire codec's
//! [`WireFrame`].
//!
//! Both sides carry the same message struct (`MpMessage` *is*
//! [`ssmfp_core::wire::WireMessage`]) and the same ghost identity
//! (`MpGhost` *is* `ssmfp_core::GhostId`), so nothing is converted
//! there. What this (total, lossless) bridge still does: it maps the
//! variants, narrows or widens destinations (`usize` in the simulator,
//! `u16` on the wire), and leaves out the supervision frames
//! `Heartbeat`/`Route`, which have no `WireMsg` counterpart —
//! [`frame_to_msg`] returns `None` for them.

use ssmfp_core::wire::WireFrame;
use ssmfp_core::GhostId;
use ssmfp_mp::{MpGhost, WireMsg};

/// The identity (`MpGhost` *is* `GhostId`). No caller in the workspace;
/// the frozen `benchmark/src/rep.rs` imports it.
#[doc(hidden)]
pub fn ghost_to_wire(g: MpGhost) -> GhostId {
    g
}

/// Encodes a simulator message as a frame. Destinations are `usize` in
/// the simulator and `u16` on the wire; [`ssmfp_core::wire`]'s layout
/// bounds instances at `n < 2^16`, far above any deployable topology.
pub fn msg_to_frame(msg: &WireMsg) -> WireFrame {
    match *msg {
        WireMsg::Offer { d, msg, nonce } => WireFrame::Offer {
            d: d as u16,
            msg,
            nonce,
        },
        WireMsg::Accept { d, msg, nonce } => WireFrame::Accept {
            d: d as u16,
            msg,
            nonce,
        },
        WireMsg::Confirm { d, msg, nonce } => WireFrame::Confirm {
            d: d as u16,
            msg,
            nonce,
        },
        WireMsg::Deny { d, msg, nonce } => WireFrame::Deny {
            d: d as u16,
            msg,
            nonce,
        },
        WireMsg::Dv { d, dist } => WireFrame::Dv { d: d as u16, dist },
    }
}

/// [`msg_to_frame`]: a client's identity rides in the ghost, so client
/// mode encodes as node mode does. No caller in the workspace; the
/// frozen `benchmark/src/replay.rs` imports it.
#[doc(hidden)]
pub fn msg_to_frame_client(msg: &WireMsg) -> WireFrame {
    msg_to_frame(msg)
}

/// Decodes a frame back into a simulator message; `None` for the
/// supervision frames (`Heartbeat`/`Route`), which never reach
/// the protocol.
pub fn frame_to_msg(frame: &WireFrame) -> Option<WireMsg> {
    Some(match *frame {
        WireFrame::Offer { d, msg, nonce } => WireMsg::Offer {
            d: d as usize,
            msg,
            nonce,
        },
        WireFrame::Accept { d, msg, nonce } => WireMsg::Accept {
            d: d as usize,
            msg,
            nonce,
        },
        WireFrame::Confirm { d, msg, nonce } => WireMsg::Confirm {
            d: d as usize,
            msg,
            nonce,
        },
        WireFrame::Deny { d, msg, nonce } => WireMsg::Deny {
            d: d as usize,
            msg,
            nonce,
        },
        WireFrame::Dv { d, dist } => WireMsg::Dv {
            d: d as usize,
            dist,
        },
        WireFrame::Heartbeat { .. } | WireFrame::Route { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_mp::MpMessage;

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
}
