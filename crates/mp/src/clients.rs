//! The client-layer ghost convention: packing a `(client, seq)` identity
//! into the 64-bit [`MpGhost`] space so the existing audit pipeline
//! carries per-client identities end-to-end with zero forwarder changes.
//!
//! In **client mode** every ghost a cluster node mints — primaries and
//! acks alike — uses this layout (most significant bit first):
//!
//! ```text
//! bit 63        : ack flag (primary = 0, ack = 1)
//! bits [47, 63) : hosting node id            (< 2^16 nodes)
//! bits [24, 47) : session index on that node (< 2^23 sessions/node)
//! bits [0, 24)  : the client's sequence       (< 2^24 messages/client)
//! ```
//!
//! A logical client is identified cluster-wide by `(node, session)`,
//! flattened to `node * 2^23 + session` for the audit. The ack a
//! destination returns reuses the *primary's* packed identity with the
//! ack flag set, so ack ghosts stay globally unique and the destination
//! needs no per-client state. The caps multiply out to `2^63` distinct
//! primaries — validated up front by the cluster crate's client-spec
//! checks, not rechecked per message on the hot path.
//!
//! This is one of *the* two ghost packings; the other is node mode's
//! (`ssmfp_cluster::workload`: `src << 40 | ack << 39 | seq`). Each mode
//! has its own classifier — [`decode_client_ghost`] here,
//! `ssmfp_cluster::workload::is_ack_ghost` there — and neither reads the
//! other's ghosts: node mode's bit 39 is a session bit in this layout.

use crate::MpGhost;
use ssmfp_topology::NodeId;

/// Ack flag bit.
pub const CLIENT_ACK_BIT: u64 = 1 << 63;
/// Bits for the hosting node id.
pub const CLIENT_NODE_BITS: u32 = 16;
/// Bits for the per-node session index.
pub const CLIENT_SESSION_BITS: u32 = 23;
/// Bits for the per-client sequence number.
pub const CLIENT_SEQ_BITS: u32 = 24;
/// Maximum cluster size in client mode.
pub const MAX_CLIENT_NODES: usize = 1 << CLIENT_NODE_BITS;
/// Maximum sessions hosted by one node.
pub const MAX_SESSIONS_PER_NODE: u64 = 1 << CLIENT_SESSION_BITS;
/// Maximum messages one client may issue.
pub const MAX_SEQS_PER_CLIENT: u64 = 1 << CLIENT_SEQ_BITS;

const SESSION_SHIFT: u32 = CLIENT_SEQ_BITS;
const NODE_SHIFT: u32 = CLIENT_SEQ_BITS + CLIENT_SESSION_BITS;

/// A decoded client-mode ghost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientParts {
    /// Whether this is an ack (vs a primary).
    pub ack: bool,
    /// The node hosting the issuing session.
    pub node: NodeId,
    /// The session's index on that node.
    pub session: u32,
    /// The client's sequence number.
    pub seq: u32,
}

impl ClientParts {
    /// The cluster-wide flat client id `(node, session)` maps to.
    pub fn client_id(&self) -> u64 {
        (self.node as u64) << CLIENT_SESSION_BITS | self.session as u64
    }
}

/// Ghost of the `seq`-th primary issued by `(node, session)`.
pub fn client_ghost(node: NodeId, session: u32, seq: u32) -> MpGhost {
    debug_assert!(node < MAX_CLIENT_NODES);
    debug_assert!((session as u64) < MAX_SESSIONS_PER_NODE);
    debug_assert!((seq as u64) < MAX_SEQS_PER_CLIENT);
    MpGhost::Valid((node as u64) << NODE_SHIFT | (session as u64) << SESSION_SHIFT | seq as u64)
}

/// The ack ghost paired with a primary's ghost: same packed identity,
/// ack flag set. Returns the input unchanged for invalid ghosts (they
/// never get acked; total for defensiveness).
pub fn ack_ghost_of(primary: MpGhost) -> MpGhost {
    match primary {
        MpGhost::Valid(k) => MpGhost::Valid(k | CLIENT_ACK_BIT),
        inv @ MpGhost::Invalid(_) => inv,
    }
}

/// Decodes a client-mode ghost; `None` for invalid ghosts (garbage from
/// the initial configuration, never client traffic).
pub fn decode_client_ghost(g: MpGhost) -> Option<ClientParts> {
    let MpGhost::Valid(k) = g else { return None };
    Some(ClientParts {
        ack: k & CLIENT_ACK_BIT != 0,
        node: ((k & !CLIENT_ACK_BIT) >> NODE_SHIFT) as NodeId,
        session: ((k >> SESSION_SHIFT) & (MAX_SESSIONS_PER_NODE - 1)) as u32,
        seq: (k & (MAX_SEQS_PER_CLIENT - 1)) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrips_at_the_corners() {
        for (node, session, seq) in [
            (0usize, 0u32, 0u32),
            (1, 2, 3),
            (MAX_CLIENT_NODES - 1, 0, 0),
            (0, (MAX_SESSIONS_PER_NODE - 1) as u32, 0),
            (0, 0, (MAX_SEQS_PER_CLIENT - 1) as u32),
            (
                MAX_CLIENT_NODES - 1,
                (MAX_SESSIONS_PER_NODE - 1) as u32,
                (MAX_SEQS_PER_CLIENT - 1) as u32,
            ),
        ] {
            let g = client_ghost(node, session, seq);
            let p = decode_client_ghost(g).unwrap();
            assert_eq!(
                (p.ack, p.node, p.session, p.seq),
                (false, node, session, seq)
            );
            let a = decode_client_ghost(ack_ghost_of(g)).unwrap();
            assert_eq!(
                (a.ack, a.node, a.session, a.seq),
                (true, node, session, seq)
            );
        }
    }

    #[test]
    fn ghosts_are_unique_across_fields_and_kinds() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for node in [0usize, 1, 7] {
            for session in [0u32, 1, 100] {
                for seq in [0u32, 1, 50] {
                    let g = client_ghost(node, session, seq);
                    assert!(seen.insert(g));
                    assert!(seen.insert(ack_ghost_of(g)));
                }
            }
        }
    }

    #[test]
    fn client_id_is_injective_over_node_session() {
        use std::collections::HashSet;
        let mut ids = HashSet::new();
        for node in 0..4usize {
            for session in 0..4u32 {
                let p = decode_client_ghost(client_ghost(node, session, 0)).unwrap();
                assert!(ids.insert(p.client_id()));
            }
        }
    }

    #[test]
    fn invalid_ghosts_do_not_decode() {
        assert_eq!(decode_client_ghost(MpGhost::Invalid(42)), None);
        assert_eq!(ack_ghost_of(MpGhost::Invalid(42)), MpGhost::Invalid(42));
    }
}
