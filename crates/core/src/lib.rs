//! `SSMFP` — the **S**nap-**S**tabilizing **M**essage **F**orwarding
//! **P**rotocol of Cournier, Dubois & Villain (IPPS 2009), executable.
//!
//! The protocol solves the message forwarding problem under Specification
//! `SP`: starting from **any** configuration — corrupted routing tables,
//! garbage ("invalid") messages pre-loaded in buffers — any message can be
//! generated in finite time, and every *valid* (generated) message is
//! delivered to its destination **once and only once** in finite time.
//!
//! Module map (mirroring the paper's Algorithm 1):
//!
//! * [`message`] — the message triplet `(m, q, c)`: payload, last hop,
//!   color in `{0..Δ}`; plus the *ghost identity* instrumentation that lets
//!   the test harness distinguish physically distinct messages with equal
//!   useful information (the proofs' "message ≠ useful information" device).
//! * [`state`] — the per-processor shared variables: `bufR_p(d)`,
//!   `bufE_p(d)`, `request_p`, the `choice_p(d)` fairness pointers, and the
//!   higher-layer outbox behind `nextMessage_p`/`nextDestination_p`.
//! * [`choice`] — the fair selection `choice_p(d)` (queue of length `Δ+1`).
//! * [`color`] — `color_p(d)`: smallest color absent from all neighbours'
//!   reception buffers (pigeonhole-guaranteed to exist).
//! * [`rules`] — rules **R1–R6**, transcribed literally.
//! * [`footprint`] — the rules' declared read/write footprints and guard
//!   shapes, feeding the `ssmfp-lint` static analyses and the exhaustive
//!   checker's partial-order reduction.
//! * [`protocol`] — [`SsmfpProtocol`]: the per-destination instances
//!   multiplexed at each processor and composed with the routing algorithm
//!   `A` under the paper's priority rule.
//! * [`caterpillar`] — Definition 3's caterpillar classifier (Figure 4).
//! * [`ledger`] — the `SP`/`SP'` specification monitors: one exactly-once
//!   join for every model ([`reconcile_ledgers`]), invalid-delivery census
//!   (Proposition 4).
//! * [`faults`] — mid-execution transient faults: seeded, serializable
//!   [`FaultPlan`]s of domain-legal corruptions and the [`FaultInjector`]
//!   step-hook that applies them between daemon selections.
//! * [`baseline`] — the fault-free Merlin–Schweitzer destination-based
//!   forwarding protocol of \[21\] (one buffer per destination, source/flag
//!   dedup), the paper's implicit comparison point.
//! * [`api`] — [`Network`]: the state model's one higher layer (build,
//!   send, run, observe deliveries, audit), for SSMFP and the baseline.
//! * [`replay`] — the scripted Figure 3 scenario.
//! * [`codec`] — the packed state codec: message interning and the flat
//!   fixed-width encoding the checker's visited/frontier sets store
//!   configurations in.
//! * [`wire`] — the cluster runtime's wire codec: length-prefixed frames
//!   for the link-crossing traffic (handshake, routing advertisements,
//!   supervision), with a total decoder and the tag/event-kind surface
//!   `ssmfp-lint`'s `wire-coverage` lint audits.
//! * [`cli`] — what the workspace's binaries share at their edges: one
//!   argv parser and one JSON string encoder.

pub mod api;
pub mod baseline;
pub mod caterpillar;
pub mod choice;
pub mod cli;
pub mod codec;
pub mod color;
pub mod faults;
pub mod footprint;
pub mod ledger;
pub mod message;
pub mod protocol;
pub mod replay;
pub mod rules;
pub mod state;
pub mod trajectory;
pub mod wire;

pub use api::{DaemonKind, Network, NetworkConfig};
pub use caterpillar::{classify_buffers, CaterpillarCensus, CaterpillarType};
pub use choice::ChoiceStrategy;
pub use codec::{
    codec_footprint, deep_node_bytes, node_fingerprint, MessageTable, StateCodec, NO_MESSAGE,
};
pub use faults::{
    BufSel, Fault, FaultCursor, FaultInjector, FaultKind, FaultPlan, FaultPlanConfig, SeededBug,
};
pub use footprint::{action_footprint, guards_can_overlap, rule_footprint};
pub use ledger::{
    reconcile_clients, reconcile_ledgers, reconcile_ledgers_counted, ClientStamp, ClientVerdict,
    ClientViolation, ClusterVerdict, DeliveryLedger, NodeLedger, ReconcileWork, RunningAudit,
    SpViolation,
};
pub use message::{Color, GhostId, Message, Payload};
pub use protocol::{Event, FwdAction, SsmfpAction, SsmfpProtocol};
pub use rules::Rule;
pub use state::{FwdSlot, NodeState};
pub use trajectory::{Trajectory, TrajectoryLog, TrajectoryViolation};
pub use wire::{
    decode_body, encode_frame, FrameReader, FrameTag, WireError, WireFrame, WireMessage,
    LINK_EVENT_KINDS, MAX_FRAME_LEN,
};
