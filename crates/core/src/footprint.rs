//! Footprint declarations for rules **R1–R6** and the composed protocol.
//!
//! Each rule's declaration is derived by hand from the guard and statement
//! code in [`crate::rules`] (including the indirect reads through
//! `choice_p(d)` and `color_p(d)`), and is kept honest mechanically: debug
//! builds execute every action through a `TrackedView` and assert the
//! observed reads/writes stay inside the declaration (see
//! `ssmfp_kernel::footprint`), and the `prop_footprint` property test
//! exercises random configurations.
//!
//! Two structural facts the declarations make checkable:
//!
//! * **All writes are own-variables** (`Locus::Me`) — the
//!   locally-shared-memory model.
//! * **Every cross-processor read is per-destination** — rules of
//!   destination instance `d` read neighbours' `bufR(d)`, `bufE(d)`,
//!   `parent(d)`, `dist(d)` and nothing of other instances. The only
//!   `All`-scoped cross reads come from the composition: with `A`'s
//!   priority, a forwarding action is enabled only while *no* routing
//!   entry needs correction, which reads every `dist`/`parent` instance.
//!
//! The second fact is what makes partial-order reduction effective: rules
//! of different destination instances at adjacent processors commute.

use crate::protocol::{FwdAction, SsmfpAction};
use crate::rules::Rule;
use crate::state::NodeState;
use ssmfp_kernel::footprint::{Access, Footprint, Locus, VarClass};
use ssmfp_routing::footprint::{diff_routing, routing_footprint, DIST, PARENT};
use ssmfp_topology::NodeId;

/// The layer tag of the forwarding protocol.
pub const LAYER_SSMFP: &str = "SSMFP";

/// `bufR_p(d)`: the reception buffer.
pub const BUF_R: VarClass = VarClass {
    name: "bufR",
    owner: LAYER_SSMFP,
    per_dest: true,
};

/// `bufE_p(d)`: the emission buffer.
pub const BUF_E: VarClass = VarClass {
    name: "bufE",
    owner: LAYER_SSMFP,
    per_dest: true,
};

/// The rotation pointer behind `choice_p(d)`.
pub const CHOICE_PTR: VarClass = VarClass {
    name: "choicePtr",
    owner: LAYER_SSMFP,
    per_dest: true,
};

/// The per-candidate wait counters of the `LongestWaiting` choice ablation.
pub const WAITS: VarClass = VarClass {
    name: "waits",
    owner: LAYER_SSMFP,
    per_dest: true,
};

/// `request_p`: the higher-layer request bit (not per-destination).
pub const REQUEST: VarClass = VarClass {
    name: "request",
    owner: LAYER_SSMFP,
    per_dest: false,
};

/// The higher-layer outbox behind `nextMessage_p`/`nextDestination_p`.
pub const OUTBOX: VarClass = VarClass {
    name: "outbox",
    owner: LAYER_SSMFP,
    per_dest: false,
};

/// The destination fairness cursor ordering a processor's enabled actions.
pub const DEST_CURSOR: VarClass = VarClass {
    name: "destCursor",
    owner: LAYER_SSMFP,
    per_dest: false,
};

/// Reads of `choice_p(d)`: the rotation pointer and wait counters, the
/// self-candidate's `request`/outbox head, and each neighbour candidate's
/// `bufE(d)` and `parent(d)`.
fn choice_reads(d: NodeId, reads: &mut Vec<Access>) {
    reads.extend([
        Access::me(CHOICE_PTR, d),
        Access::me(WAITS, d),
        Access::me_global(REQUEST),
        Access::me_global(OUTBOX),
        Access::neighbors(BUF_E, d),
        Access::neighbors(PARENT, d),
    ]);
}

/// The footprint of `rule`'s guard **and** statement for destination
/// instance `d`, *excluding* the composition wrapper (the destination
/// cursor bump and `A`'s priority guard — see [`composed_fwd_footprint`]).
pub fn rule_footprint(rule: Rule, d: NodeId) -> Footprint {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    match rule {
        Rule::R1 => {
            // Guard: request_p ∧ nextDestination_p = d ∧ bufR_p(d) = ∅ ∧
            // choice_p(d) = p. Statement: generate into bufR_p(d), pop the
            // outbox, lower request, advance the choice bookkeeping.
            reads.push(Access::me(BUF_R, d));
            choice_reads(d, &mut reads);
            writes.extend([
                Access::me(BUF_R, d),
                Access::me_global(REQUEST),
                Access::me_global(OUTBOX),
                Access::me(CHOICE_PTR, d),
                Access::me(WAITS, d),
            ]);
        }
        Rule::R2 => {
            // Guard: bufE_p(d) = ∅ ∧ bufR_p(d) = (m,q,c) ∧ the source copy
            // in bufE_q(d) is gone. Statement: move bufR → bufE with a
            // fresh color from color_p(d), which scans neighbours' bufR(d).
            reads.extend([
                Access::me(BUF_R, d),
                Access::me(BUF_E, d),
                Access::neighbors(BUF_E, d),
                Access::neighbors(BUF_R, d),
            ]);
            writes.extend([Access::me(BUF_R, d), Access::me(BUF_E, d)]);
        }
        Rule::R3 => {
            // Guard: bufR_p(d) = ∅ ∧ choice_p(d) = s ≠ p ∧ bufE_s(d) full.
            // Statement: copy from the chosen neighbour's bufE, advance the
            // choice bookkeeping.
            reads.push(Access::me(BUF_R, d));
            choice_reads(d, &mut reads);
            writes.extend([
                Access::me(BUF_R, d),
                Access::me(CHOICE_PTR, d),
                Access::me(WAITS, d),
            ]);
        }
        Rule::R4 => {
            // Guard: bufE_p(d) full ∧ p ≠ d ∧ the copy sits in the next
            // hop's bufR(d) and nowhere else in N_p. Statement: erase bufE.
            reads.extend([
                Access::me(BUF_E, d),
                Access::me(PARENT, d),
                Access::neighbors(BUF_R, d),
            ]);
            writes.push(Access::me(BUF_E, d));
        }
        Rule::R5 => {
            // Guard: bufR_p(d) = (m,q,c) ∧ q ∈ N_p ∧ bufE_q(d) = (m,·,c) ∧
            // nextHop_q(d) ≠ p. Statement: erase bufR.
            reads.extend([
                Access::me(BUF_R, d),
                Access::neighbors(BUF_E, d),
                Access::neighbors(PARENT, d),
            ]);
            writes.push(Access::me(BUF_R, d));
        }
        Rule::R6 => {
            // Guard: bufE_p(p) full (d = p). Statement: deliver and erase.
            reads.push(Access::me(BUF_E, d));
            writes.push(Access::me(BUF_E, d));
        }
    }
    Footprint::new(reads, writes)
}

/// The footprint of a forwarding action under the *composed* protocol:
/// [`rule_footprint`] plus
///
/// * the destination-cursor read (action ordering) and bump (statement),
/// * when `A` has priority, the priority guard's reads — a forwarding
///   action is enabled only while no routing entry needs correction,
///   which reads every `dist`/`parent` instance of `p` and every
///   neighbour's `dist`.
///
/// The priority reads are what couple `A` to SSMFP in the independence
/// relation: a routing correction at `q` can mask a neighbour's
/// forwarding actions, so the two never commute — exactly the paper's
/// composition semantics.
pub fn composed_fwd_footprint(rule: Rule, d: NodeId, routing_priority: bool) -> Footprint {
    let mut fp = rule_footprint(rule, d);
    fp.reads.push(Access::me_global(DEST_CURSOR));
    fp.writes.push(Access::me_global(DEST_CURSOR));
    if routing_priority {
        fp.reads.extend([
            Access::me_all(DIST),
            Access::me_all(PARENT),
            Access::neighbors_all(DIST),
        ]);
    }
    fp
}

/// The footprint of any composed action (what
/// `SsmfpProtocol::footprint` returns).
pub fn action_footprint(action: SsmfpAction, routing_priority: bool) -> Footprint {
    match action {
        SsmfpAction::Routing(a) => routing_footprint(a.dest),
        SsmfpAction::Fwd(FwdAction { rule, dest }) => {
            composed_fwd_footprint(rule, dest, routing_priority)
        }
    }
}

/// Diffs a pre/post [`NodeState`] pair into the write accesses that
/// distinguish them (the composed protocol's `observe_writes`).
pub fn diff_node_state(pre: &NodeState, post: &NodeState, out: &mut Vec<Access>) {
    diff_routing(&pre.routing, &post.routing, out);
    for d in 0..pre.slots.len().max(post.slots.len()) {
        let (a, b) = (pre.slots.get(d), post.slots.get(d));
        if a.map(|s| &s.buf_r) != b.map(|s| &s.buf_r) {
            out.push(Access::me(BUF_R, d));
        }
        if a.map(|s| &s.buf_e) != b.map(|s| &s.buf_e) {
            out.push(Access::me(BUF_E, d));
        }
        if a.map(|s| s.choice_ptr) != b.map(|s| s.choice_ptr) {
            out.push(Access::me(CHOICE_PTR, d));
        }
        if a.map(|s| &s.waits) != b.map(|s| &s.waits) {
            out.push(Access::me(WAITS, d));
        }
    }
    if pre.request != post.request {
        out.push(Access::me_global(REQUEST));
    }
    if pre.outbox != post.outbox {
        out.push(Access::me_global(OUTBOX));
    }
    if pre.dest_cursor != post.dest_cursor {
        out.push(Access::me_global(DEST_CURSOR));
    }
}

/// Tri-state occupancy requirement in a rule's [`GuardShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// The guard requires the buffer to be empty.
    Empty,
    /// The guard requires the buffer to hold a message.
    Full,
    /// The guard does not constrain the buffer.
    Any,
}

impl Req {
    fn compatible(self, other: Req) -> bool {
        !matches!(
            (self, other),
            (Req::Empty, Req::Full) | (Req::Full, Req::Empty)
        )
    }
}

/// Abstraction of a rule's guard over one `(p, d)` instance, precise
/// enough to decide which rule pairs can be simultaneously enabled (the
/// `ssmfp-lint` guard-overlap analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardShape {
    /// Requirement on `bufR_p(d)`.
    pub buf_r: Req,
    /// Requirement on `bufE_p(d)`.
    pub buf_e: Req,
    /// `Some(true)`: requires `d = p` (R6); `Some(false)`: requires
    /// `d ≠ p` (R4); `None`: unconstrained.
    pub self_dest: Option<bool>,
    /// `Some(true)`: requires `choice_p(d) = p` (R1); `Some(false)`:
    /// requires `choice_p(d)` to be a neighbour (R3). `choice_p(d)` is a
    /// function of the configuration, so the two are mutually exclusive.
    pub choice_self: Option<bool>,
    /// Requirement on "the source copy of `bufR_p(d)`'s message is still
    /// in `bufE_q(d)` (same payload and color, `q` the last hop ≠ `p`)":
    /// `Some(true)` = must be present (R5), `Some(false)` = must be gone
    /// (R2). One predicate of the configuration, so mutually exclusive.
    pub source_copy: Option<bool>,
}

/// The guard abstraction of each rule (derived from [`crate::rules`]).
pub fn guard_shape(rule: Rule) -> GuardShape {
    let shape = |buf_r, buf_e, self_dest, choice_self, source_copy| GuardShape {
        buf_r,
        buf_e,
        self_dest,
        choice_self,
        source_copy,
    };
    match rule {
        Rule::R1 => shape(Req::Empty, Req::Any, None, Some(true), None),
        Rule::R2 => shape(Req::Full, Req::Empty, None, None, Some(false)),
        Rule::R3 => shape(Req::Empty, Req::Any, None, Some(false), None),
        Rule::R4 => shape(Req::Any, Req::Full, Some(false), None, None),
        Rule::R5 => shape(Req::Full, Req::Any, None, None, Some(true)),
        Rule::R6 => shape(Req::Any, Req::Full, Some(true), None, None),
    }
}

/// Whether two rules can be simultaneously enabled at one processor for
/// the same destination instance: their guard shapes must agree on every
/// constrained dimension.
pub fn guards_can_overlap(a: Rule, b: Rule) -> bool {
    let (sa, sb) = (guard_shape(a), guard_shape(b));
    let opt = |x: Option<bool>, y: Option<bool>| match (x, y) {
        (Some(p), Some(q)) => p == q,
        _ => true,
    };
    sa.buf_r.compatible(sb.buf_r)
        && sa.buf_e.compatible(sb.buf_e)
        && opt(sa.self_dest, sb.self_dest)
        && opt(sa.choice_self, sb.choice_self)
        && opt(sa.source_copy, sb.source_copy)
}

/// Which guard *scopes* an action's writes can invalidate, from the
/// perspective of the engine's incremental re-evaluation: after a step,
/// only the scopes a write can reach need their cached enablement
/// recomputed (`Protocol::scope_affected_by`).
///
/// `same` means "the scope whose destination equals the action's own",
/// `any` means "every scope, regardless of destination" (the write hits
/// a destination-independent guard read such as `request_p` or the
/// outbox). `self_*` couples the writer's own scopes, `nbr_*` the scopes
/// of the writer's neighbours (all writes are local, so a write reaches
/// a neighbour's guard only through its `Neighbors`-locus reads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeAffects {
    /// The writer's own scope of *any* destination is invalidated.
    pub self_any: bool,
    /// The writer's own scope of the action's destination is invalidated.
    pub self_same: bool,
    /// Neighbours' scopes of *any* destination are invalidated.
    pub nbr_any: bool,
    /// Neighbours' scopes of the action's destination are invalidated.
    pub nbr_same: bool,
}

/// Everything a destination-`d` guard scope reads: the routing guard of
/// instance `d` plus every forwarding rule's guard-and-statement reads.
/// (The composition wrapper's reads — destination cursor, `A`'s priority
/// over *all* instances — are excluded on purpose: the engine caches
/// per-scope enablement *before* composition and replays priority in
/// `compose_scopes`, so the wrapper never goes stale.)
fn scope_guard_reads(d: NodeId, out: &mut Vec<Access>) {
    out.extend(routing_footprint(d).reads);
    for rule in Rule::EVAL_ORDER {
        out.extend(rule_footprint(rule, d).reads);
    }
}

/// Derives the scope coupling of an action's declared writes, using two
/// representative destinations: `0` stands for "the same destination as
/// the writer's action", `1` for "any other destination" — hitting a
/// scope-`1` read means the coupling is destination-independent.
pub fn scope_affects_of(writes: &[Access]) -> ScopeAffects {
    let mut same = Vec::new();
    scope_guard_reads(0, &mut same);
    let mut other = Vec::new();
    scope_guard_reads(1, &mut other);
    let hit = |reads: &[Access], locus: Locus| {
        writes.iter().any(|w| {
            reads
                .iter()
                .any(|r| r.locus == locus && w.var == r.var && w.dest.overlaps(r.dest))
        })
    };
    ScopeAffects {
        self_same: hit(&same, Locus::Me),
        self_any: hit(&other, Locus::Me),
        nbr_same: hit(&same, Locus::Neighbors),
        nbr_any: hit(&other, Locus::Neighbors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_kernel::footprint::{independent, Locus};

    #[test]
    fn all_rule_writes_are_local() {
        for rule in Rule::EVAL_ORDER {
            let fp = composed_fwd_footprint(rule, 1, true);
            assert!(
                fp.writes.iter().all(|w| w.locus == Locus::Me),
                "{rule:?} declares a non-local write"
            );
        }
    }

    #[test]
    fn ssmfp_never_writes_routing_variables() {
        for rule in Rule::EVAL_ORDER {
            let fp = composed_fwd_footprint(rule, 1, true);
            assert!(
                fp.writes.iter().all(|w| w.var.owner == LAYER_SSMFP),
                "{rule:?} writes a variable A owns"
            );
        }
    }

    #[test]
    fn different_destinations_commute_at_neighbors_without_priority() {
        // Per-destination isolation: any two rules of different instances
        // at adjacent processors are independent once A's priority guard
        // (the only All-scoped coupling) is out of the picture.
        for a in Rule::EVAL_ORDER {
            for b in Rule::EVAL_ORDER {
                let fa = composed_fwd_footprint(a, 0, false);
                let fb = composed_fwd_footprint(b, 1, false);
                assert!(
                    independent(&fa, 0, &[1], &fb, 1, &[0]),
                    "{a:?}(d=0) vs {b:?}(d=1) should commute"
                );
            }
        }
    }

    #[test]
    fn routing_masks_neighbor_forwarding_under_priority() {
        // A correction at q rewrites dist_q, which p's priority guard
        // reads: never independent, for any destination pair.
        let fa = routing_footprint(2);
        let fb = composed_fwd_footprint(Rule::R6, 1, true);
        assert!(!independent(&fa, 0, &[1], &fb, 1, &[0]));
        // Without adjacency the coupling disappears.
        assert!(independent(&fa, 0, &[1], &fb, 2, &[1]));
    }

    #[test]
    fn same_destination_handshake_is_dependent() {
        // R4 at p (erase bufE after copy) reads neighbours' bufR(d); R3 at
        // q writes bufR_q(d): the forwarding handshake never commutes.
        let fa = composed_fwd_footprint(Rule::R4, 2, true);
        let fb = composed_fwd_footprint(Rule::R3, 2, true);
        assert!(!independent(&fa, 0, &[1], &fb, 1, &[0]));
    }

    #[test]
    fn guard_overlap_matches_hand_analysis() {
        // The satisfiable same-(p,d) co-enabledness pairs, by hand from
        // the guards (EVAL_ORDER priority resolves them at runtime).
        let expected = [
            (Rule::R1, Rule::R4),
            (Rule::R1, Rule::R6),
            (Rule::R3, Rule::R4),
            (Rule::R3, Rule::R6),
            (Rule::R4, Rule::R5),
            (Rule::R5, Rule::R6),
        ];
        for (i, &a) in Rule::EVAL_ORDER.iter().enumerate() {
            for &b in Rule::EVAL_ORDER.iter().skip(i + 1) {
                let overlap = guards_can_overlap(a, b);
                let expect = expected.contains(&(a, b)) || expected.contains(&(b, a));
                assert_eq!(overlap, expect, "overlap({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn diff_detects_each_class() {
        use crate::message::{Color, GhostId, Message};
        use ssmfp_routing::{corruption, CorruptionKind};
        use ssmfp_topology::gen;
        let g = gen::ring(4);
        let routing = corruption::corrupt(&g, CorruptionKind::None, 0).remove(0);
        let pre = NodeState::clean(4, routing);
        let mut post = pre.clone();
        post.slots[2].buf_r = Some(Message {
            payload: 1,
            last_hop: 0,
            color: Color(0),
            ghost: GhostId::Invalid(0),
        });
        post.slots[3].choice_ptr = 1;
        post.request = true;
        post.dest_cursor = 2;
        let mut obs = Vec::new();
        diff_node_state(&pre, &post, &mut obs);
        assert_eq!(
            obs,
            vec![
                Access::me(BUF_R, 2),
                Access::me(CHOICE_PTR, 3),
                Access::me_global(REQUEST),
                Access::me_global(DEST_CURSOR),
            ]
        );
    }
}
