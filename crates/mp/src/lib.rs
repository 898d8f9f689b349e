//! **E14 — the message-passing port** (the paper's §4 closing problem).
//!
//! §4: *"it will be interesting to carry our protocol in the message
//! passing model (a more realistic model of distributed system) … The
//! problem to carry automatically a protocol from the state model to the
//! message passing model is still open."*
//!
//! This crate explores that open problem **empirically**. It provides:
//!
//! * [`net`] — an asynchronous message-passing substrate: identified nodes,
//!   FIFO channels per directed link, a seeded adversarial scheduler that
//!   interleaves message deliveries and node timeouts, and arbitrary
//!   initial channel/node contents (transient-fault injection);
//! * [`port`] — a hand-built port of SSMFP's forwarding core. The state
//!   model's composite-atomic reads (`R3` reads a neighbour's `bufE`,
//!   `R4` reads all neighbours' `bufR`) cannot be read directly over a
//!   network, so the port replaces them with a **three-way handshake**
//!   per hop — `Offer → Accept → Confirm/Deny` — whose Confirm/Deny step
//!   plays the role of rules R4/R5 (erase the source copy only once the
//!   unique successor copy is certified; drop tentative copies the source
//!   disowns). Colors survive as the per-hop disambiguator of
//!   consecutive same-payload messages, exactly as in Algorithm 1;
//! * [`port_network`] — [`PortNetwork`], the facade that builds one
//!   forwarder per node from a clean or a garbage start (static tables, or
//!   the distance-vector routing layer from garbage estimates) and audits
//!   the run.
//!
//! **Status of the claim.** This port is *not* proven snap-stabilizing —
//! the paper says the general transformation is open, and we do not close
//! it. What the test suite establishes is empirical: across the seeds,
//! schedules, topologies, and garbage injections exercised here, every
//! generated message is delivered exactly once and the system drains.
//! The port is faithful to the original's resource model (two buffers per
//! destination per node) and to its mechanisms (colors, next-hop
//! certification, single-successor erasure).
//!
//! [`clients`] adds the layer above: the ghost-packing convention that
//! lets a per-node client multiplexer stamp every message with a
//! `(client, seq)` identity the audit can reconcile per client.

pub mod clients;
pub mod net;
pub mod port;
pub mod port_network;
pub mod suite;

pub use clients::{ack_ghost_of, client_ghost, decode_client_ghost, ClientParts};
pub use net::{
    ChannelFaults, ChannelTransport, FaultClerk, LinkId, MpConfig, MpNetwork, MpNode, Outbox,
    SchedulerEvent, Transport,
};
pub use port::{MpForwarder, MpGhost, MpMessage, WireMsg};
pub use port_network::PortNetwork;
