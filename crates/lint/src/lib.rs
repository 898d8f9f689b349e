//! Static analyses over the declared rule footprints.
//!
//! The forwarding rules and the routing algorithm declare read/write
//! footprints (`ssmfp_core::footprint`, `ssmfp_routing::footprint`); this
//! crate checks structural properties of those declarations that the
//! paper's correctness argument relies on:
//!
//! * **`non-local-write`** — every write is to the acting processor's own
//!   variables (the locally-shared-memory model; §2.1).
//! * **`ownership`** — SSMFP never writes a variable `A` owns and vice
//!   versa (the priority composition's contract; §3.1).
//! * **`write-write-race`** — no two rules at *neighbouring* processors
//!   can write a common variable instance under any daemon selection
//!   (composite atomicity only merges writes to *different* processors'
//!   variables; a cross-processor write/write race would make step
//!   outcomes selection-order dependent).
//! * **`guard-overlap`** — which rule pairs can be simultaneously enabled
//!   at one processor for one destination, computed from the guard
//!   shapes and compared against the hand-verified allow-list (a guard
//!   edit that creates a new simultaneous-enabledness pair fails the
//!   lint until the analysis — and the paper argument — is revisited).
//! * **`cross-dest-interference`** — rules of *different* destination
//!   instances at neighbouring processors are independent, except for
//!   the documented coupling through `A`'s priority guard. This
//!   per-destination isolation is what the paper's per-instance
//!   reasoning (and the checker's partial-order reduction) stands on.
//! * **`codec-impure` / `codec-coverage`** — the packed state codec
//!   ([`ssmfp_core::codec_footprint`]) must stay a pure observer (no
//!   declared writes: packing a configuration may never change it) and
//!   its reads must cover every variable class some rule can write —
//!   otherwise the checker's packed storage silently drops state and two
//!   distinct configurations collapse into one visited entry.
//! * **`wire-coverage`** — the cluster runtime's wire surface
//!   ([`ssmfp_core::wire`]) must stay a bijection: every protocol event
//!   kind that crosses a link has exactly one frame tag, and every frame
//!   tag maps back to exactly one declared kind. A link-crossing event
//!   with no frame cannot leave the process; two tags for one kind (or
//!   one tag claiming an undeclared kind) would let the socket and
//!   in-process transports disagree about what a byte stream means.
//! * **`fault-domain`** — every fault kind the injection engine can plant
//!   ([`ssmfp_core::faults::FaultKind`]) confines its writes to variable
//!   classes some declared rule already writes. Snap-stabilization is
//!   "correct from any *model* configuration": a fault writing a class
//!   outside every footprint would corrupt ghost/ledger instrumentation
//!   or state the protocol never repairs, and the soak oracle's
//!   post-fault argument would be vacuous.
//!
//! * **`conc-*`** (module [`conc`]) — the runtime crates declare their
//!   concurrency footprint ([`ssmfp_core::conc::ConcModel`]: thread
//!   roles, lock ranks, channel bounds/policies, blocking edges) the
//!   same way the rules declare state footprints. `conc-deadlock`
//!   detects lock-rank inversions and feasible circular waits,
//!   `conc-unbounded` requires a bound and a full-queue policy on every
//!   cross-thread channel, `conc-hold-across-block` forbids holding a
//!   lock across blocking I/O, and `conc-coverage` keeps the
//!   declarations referentially closed (its runtime half — observed
//!   threads ⊆ declared roles — runs in the debug-build suites).
//!
//! Findings are emitted as a machine-readable JSON report by the
//! `ssmfp-lint` binary, which exits nonzero on violations (and, under
//! `-D`, on warnings). `ssmfp-lint --list` prints the pass catalog;
//! `--only`/`--skip` filter findings by pass name.

pub mod conc;

use ssmfp_core::cli::json_string;
use ssmfp_core::conc::ConcModel;
use ssmfp_core::footprint::{composed_fwd_footprint, guards_can_overlap, LAYER_SSMFP};
use ssmfp_core::wire::{
    FrameTag, CLIENT_STAMP_FIELDS, ENCODED_CLIENT_STAMP_FIELDS, LINK_EVENT_KINDS,
};
use ssmfp_core::{codec_footprint, FaultKind, Rule};
use ssmfp_kernel::footprint::{independent, Access, Footprint, Locus, VarClass};
use ssmfp_routing::footprint::{routing_footprint, LAYER_A};

/// A rule (or routing action) under analysis: its label, owning layer,
/// and footprints instantiated at two representative destinations.
///
/// Two instances suffice: for *adjacent* processors the materialized
/// conflict relation depends only on the variable classes and on whether
/// the destination scopes overlap, so one same-destination probe and one
/// different-destination probe cover all instantiations.
#[derive(Debug, Clone)]
pub struct RuleDecl {
    /// Display label (`"R1"` … `"R6"`, `"A"`).
    pub label: &'static str,
    /// The layer the rule belongs to (`"SSMFP"` or `"A"`).
    pub layer: &'static str,
    /// Footprint of the instance for destination 0.
    pub fp_d0: Footprint,
    /// Footprint of the instance for destination 1.
    pub fp_d1: Footprint,
    /// The forwarding rule behind this declaration, if any (drives the
    /// guard-overlap analysis; `None` for `A`).
    pub rule: Option<Rule>,
}

/// The shipped declarations: R1–R6 under the composed protocol (with
/// `A`'s priority) plus `A`'s correction rule.
pub fn default_decls() -> Vec<RuleDecl> {
    let mut decls: Vec<RuleDecl> = Rule::EVAL_ORDER
        .iter()
        .map(|&rule| RuleDecl {
            label: rule_label(rule),
            layer: LAYER_SSMFP,
            fp_d0: composed_fwd_footprint(rule, 0, true),
            fp_d1: composed_fwd_footprint(rule, 1, true),
            rule: Some(rule),
        })
        .collect();
    decls.sort_by_key(|d| d.label);
    decls.push(RuleDecl {
        label: "A",
        layer: LAYER_A,
        fp_d0: routing_footprint(0),
        fp_d1: routing_footprint(1),
        rule: None,
    });
    decls
}

fn rule_label(rule: Rule) -> &'static str {
    match rule {
        Rule::R1 => "R1",
        Rule::R2 => "R2",
        Rule::R3 => "R3",
        Rule::R4 => "R4",
        Rule::R5 => "R5",
        Rule::R6 => "R6",
    }
}

/// The hand-verified simultaneous-enabledness pairs (same processor, same
/// destination). Derived in `DESIGN.md` ("Static rule analysis & POR");
/// `EVAL_ORDER` resolves them at runtime.
pub const ALLOWED_OVERLAPS: [(&str, &str); 6] = [
    ("R1", "R4"),
    ("R1", "R6"),
    ("R3", "R4"),
    ("R3", "R6"),
    ("R4", "R5"),
    ("R5", "R6"),
];

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Breaks a model/paper invariant: the binary always fails on these.
    Violation,
    /// Hygiene problem in the declarations; fails only under `-D`.
    Warning,
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Severity class.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `"non-local-write"`).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// The full analysis result.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, violations first.
    pub findings: Vec<Finding>,
    /// Computed guard-overlap pairs (same processor, same destination).
    pub guard_overlaps: Vec<(String, String)>,
    /// Dependent same-destination pairs at neighbouring processors (the
    /// forwarding handshake edges the partial-order reduction must keep).
    pub same_dest_interference: Vec<(String, String)>,
    /// Independent different-destination pairs at neighbouring processors
    /// when `A`'s priority coupling is set aside (should be *all* pairs).
    pub cross_dest_independent: Vec<(String, String)>,
    /// Variable classes the packed state codec declares it reads.
    pub codec_reads: Vec<String>,
    /// Variable classes the fault-injection engine can write (union over
    /// all fault kinds' declared write-sets).
    pub fault_write_classes: Vec<String>,
    /// The wire surface as audited: `(frame tag, event kind)` pairs.
    pub wire_tags: Vec<(String, String)>,
    /// Per-component summaries of the analyzed concurrency models.
    pub conc: Vec<conc::ConcComponentSummary>,
}

impl LintReport {
    /// Findings with [`Severity::Violation`].
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Violation)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
    }

    /// Exit status for the binary: nonzero iff violations exist, or (with
    /// `deny_warnings`) any finding at all.
    pub fn exit_code(&self, deny_warnings: bool) -> i32 {
        let fail =
            self.violations().next().is_some() || (deny_warnings && !self.findings.is_empty());
        i32::from(fail)
    }
}

pub(crate) fn push(
    report: &mut LintReport,
    severity: Severity,
    code: &'static str,
    message: String,
) {
    report.findings.push(Finding {
        severity,
        code,
        message,
    });
}

/// The pass catalog: every finding code the analyzer can emit, with a
/// one-line description. This is what `ssmfp-lint --list` prints and what
/// `--only`/`--skip` names are validated against.
pub const PASSES: &[(&str, &str)] = &[
    (
        "non-local-write",
        "every declared write targets the acting processor's own variables",
    ),
    (
        "ownership",
        "no layer writes a variable the other layer owns (priority composition contract)",
    ),
    (
        "duplicate-access",
        "footprint hygiene: no access is declared twice (warning)",
    ),
    (
        "guard-overlap",
        "simultaneous-enabledness pairs match the hand-verified allow-list",
    ),
    (
        "stale-overlap-allowance",
        "the overlap allow-list contains no pairs the guard shapes rule out (warning)",
    ),
    (
        "write-write-race",
        "no two rules at neighbouring processors write a common variable instance",
    ),
    (
        "cross-dest-interference",
        "different-destination instances are independent without A's priority coupling",
    ),
    (
        "codec-impure",
        "the packed state codec declares no writes (packing is a pure observation)",
    ),
    (
        "codec-coverage",
        "the codec reads every variable class some rule can write",
    ),
    (
        "fault-domain",
        "every injectable fault writes only classes some declared rule writes",
    ),
    (
        "wire-coverage",
        "frame tags ↔ link-crossing event kinds is a bijection",
    ),
    (
        "conc-deadlock",
        "no lock-rank inversions and no feasible circular wait in the declared blocking graph",
    ),
    (
        "conc-unbounded",
        "every cross-thread channel declares a bound and a full-queue policy",
    ),
    (
        "conc-hold-across-block",
        "no lock is held across a declared socket/queue blocking edge",
    ),
    (
        "conc-coverage",
        "concurrency declarations are referentially closed (runtime half: observed ⊆ declared)",
    ),
];

/// True iff `name` is a known pass name.
pub fn known_pass(name: &str) -> bool {
    PASSES.iter().any(|&(p, _)| p == name)
}

impl LintReport {
    /// Restricts the findings to the selected passes: with a non-empty
    /// `only`, keep only those codes; then drop every code in `skip`.
    /// Summary sections (overlap matrices, conc summaries, …) are kept —
    /// the filter gates pass *verdicts*, not the audit data.
    pub fn retain_passes(&mut self, only: &[String], skip: &[String]) {
        self.findings.retain(|f| {
            (only.is_empty() || only.iter().any(|p| p == f.code))
                && !skip.iter().any(|p| p == f.code)
        });
    }
}

/// The shipped concurrency models: the cluster data plane and the
/// (single-threaded) message-passing simulator.
pub fn default_conc_models() -> Vec<ConcModel> {
    vec![ssmfp_mp::conc_model(), ssmfp_cluster::conc::default_model()]
}

/// Runs every analysis over `decls` and `models`.
pub fn analyze_with_conc(decls: &[RuleDecl], models: &[ConcModel]) -> LintReport {
    let mut report = LintReport::default();
    lint_non_local_writes(decls, &mut report);
    lint_ownership(decls, &mut report);
    lint_duplicate_accesses(decls, &mut report);
    lint_guard_overlap(decls, &mut report);
    lint_races(decls, &mut report);
    lint_codec(decls, &codec_footprint(), &mut report);
    lint_fault_domains(decls, &mut report);
    lint_wire_coverage(&default_wire_surface(), &mut report);
    for model in models {
        conc::lint_conc_model(model, &mut report);
    }
    report
        .findings
        .sort_by_key(|f| (f.severity == Severity::Warning) as u8);
    report
}

/// Runs every analysis over `decls`, with the shipped concurrency models.
pub fn analyze(decls: &[RuleDecl]) -> LintReport {
    analyze_with_conc(decls, &default_conc_models())
}

/// Convenience: analyze the shipped declarations.
pub fn analyze_default() -> LintReport {
    analyze(&default_decls())
}

fn lint_non_local_writes(decls: &[RuleDecl], report: &mut LintReport) {
    for decl in decls {
        for w in decl.fp_d0.writes.iter().chain(&decl.fp_d1.writes) {
            if w.locus == Locus::Neighbors {
                push(
                    report,
                    Severity::Violation,
                    "non-local-write",
                    format!(
                        "{} declares a write to a neighbour's `{}` — the locally-shared-memory \
                         model only allows writing the acting processor's own variables",
                        decl.label, w.var.name
                    ),
                );
            }
        }
    }
}

fn lint_ownership(decls: &[RuleDecl], report: &mut LintReport) {
    for decl in decls {
        for w in decl.fp_d0.writes.iter().chain(&decl.fp_d1.writes) {
            if w.var.owner != decl.layer {
                push(
                    report,
                    Severity::Violation,
                    "ownership",
                    format!(
                        "{} (layer {}) declares a write to `{}`, owned by layer {} — the \
                         priority composition forbids one layer writing the other's variables",
                        decl.label, decl.layer, w.var.name, w.var.owner
                    ),
                );
            }
        }
    }
}

fn lint_duplicate_accesses(decls: &[RuleDecl], report: &mut LintReport) {
    let dup = |accesses: &[Access]| -> Option<Access> {
        accesses
            .iter()
            .enumerate()
            .find(|(i, a)| accesses[..*i].contains(a))
            .map(|(_, a)| *a)
    };
    for decl in decls {
        for (kind, accesses) in [("read", &decl.fp_d0.reads), ("write", &decl.fp_d0.writes)] {
            if let Some(a) = dup(accesses) {
                push(
                    report,
                    Severity::Warning,
                    "duplicate-access",
                    format!(
                        "{} declares the {kind} access to `{}` twice",
                        decl.label, a.var.name
                    ),
                );
            }
        }
    }
}

fn lint_guard_overlap(decls: &[RuleDecl], report: &mut LintReport) {
    let rules: Vec<Rule> = decls.iter().filter_map(|d| d.rule).collect();
    let mut computed: Vec<(&'static str, &'static str)> = Vec::new();
    for (i, &a) in rules.iter().enumerate() {
        for &b in rules.iter().skip(i + 1) {
            if guards_can_overlap(a, b) {
                let (la, lb) = (rule_label(a), rule_label(b));
                let pair = if la <= lb { (la, lb) } else { (lb, la) };
                computed.push(pair);
            }
        }
    }
    computed.sort();
    computed.dedup();
    for &(a, b) in &computed {
        report.guard_overlaps.push((a.to_string(), b.to_string()));
        if !ALLOWED_OVERLAPS.contains(&(a, b)) && !ALLOWED_OVERLAPS.contains(&(b, a)) {
            push(
                report,
                Severity::Violation,
                "guard-overlap",
                format!(
                    "rules {a} and {b} can be simultaneously enabled at one processor for the \
                     same destination, which the documented overlap analysis does not allow — \
                     revisit the EVAL_ORDER priority argument before shipping this guard change"
                ),
            );
        }
    }
    for &(a, b) in &ALLOWED_OVERLAPS {
        let present = computed.contains(&(a, b)) || computed.contains(&(b, a));
        if !present
            && rules.iter().any(|&r| rule_label(r) == a)
            && rules.iter().any(|&r| rule_label(r) == b)
        {
            push(
                report,
                Severity::Warning,
                "stale-overlap-allowance",
                format!(
                    "the allow-list expects rules {a} and {b} to overlap, but the guard shapes \
                     rule it out — the allow-list is stale"
                ),
            );
        }
    }
}

/// Race analyses over neighbouring processors. Representative topology:
/// processors 0 and 1, mutually adjacent — for adjacent pairs the
/// materialized conflict relation depends only on classes and scopes.
fn lint_races(decls: &[RuleDecl], report: &mut LintReport) {
    let (p, p_nbrs, q, q_nbrs) = (0usize, [1usize], 1usize, [0usize]);
    for a in decls {
        for b in decls {
            // Write/write races, same or different destination.
            for (fa, fb) in [(&a.fp_d0, &b.fp_d0), (&a.fp_d0, &b.fp_d1)] {
                let ww = fa.writes.iter().any(|w| {
                    fb.writes.iter().any(|v| {
                        w.var == v.var && w.dest.overlaps(v.dest)
                            // Both loci are Me in a clean model; materialize:
                            && ((w.locus == Locus::Me && v.locus == Locus::Me && p == q)
                                || w.locus == Locus::Neighbors
                                || v.locus == Locus::Neighbors)
                    })
                });
                if ww {
                    push(
                        report,
                        Severity::Violation,
                        "write-write-race",
                        format!(
                            "{} at a processor and {} at a neighbour can write a common `{}` \
                             instance — step outcomes would depend on daemon selection order",
                            a.label,
                            b.label,
                            fa.writes.first().map(|w| w.var.name).unwrap_or("?")
                        ),
                    );
                }
            }
        }
    }
    // Interference matrices (ordered pairs deduplicated to unordered).
    for (i, a) in decls.iter().enumerate() {
        for b in decls.iter().skip(i) {
            if !independent(&a.fp_d0, p, &p_nbrs, &b.fp_d0, q, &q_nbrs) {
                report
                    .same_dest_interference
                    .push((a.label.to_string(), b.label.to_string()));
            }
            // Cross-destination probe, with A's priority coupling set
            // aside: rebuild the forwarding footprints without priority.
            let (fa, fb) = match (a.rule, b.rule) {
                (Some(ra), Some(rb)) => (
                    composed_fwd_footprint(ra, 0, false),
                    composed_fwd_footprint(rb, 1, false),
                ),
                (Some(ra), None) => (composed_fwd_footprint(ra, 0, false), b.fp_d1.clone()),
                (None, Some(rb)) => (a.fp_d0.clone(), composed_fwd_footprint(rb, 1, false)),
                (None, None) => (a.fp_d0.clone(), b.fp_d1.clone()),
            };
            if independent(&fa, p, &p_nbrs, &fb, q, &q_nbrs) {
                report
                    .cross_dest_independent
                    .push((a.label.to_string(), b.label.to_string()));
            } else {
                push(
                    report,
                    Severity::Violation,
                    "cross-dest-interference",
                    format!(
                        "{} (destination 0) and {} (destination 1) interfere at neighbouring \
                         processors even without A's priority coupling — per-destination \
                         isolation is broken",
                        a.label, b.label
                    ),
                );
            }
        }
    }
}

/// Codec-observer analyses: the packed state codec declares its surface
/// via [`ssmfp_core::codec_footprint`]; packing must be side-effect-free
/// and must read every variable class the rules can write (otherwise the
/// checker's packed visited set conflates distinct configurations).
fn lint_codec(decls: &[RuleDecl], codec: &Footprint, report: &mut LintReport) {
    report.codec_reads = codec.reads.iter().map(|a| a.var.name.to_string()).collect();
    report.codec_reads.sort();
    report.codec_reads.dedup();
    for w in &codec.writes {
        push(
            report,
            Severity::Violation,
            "codec-impure",
            format!(
                "the state codec declares a write to `{}` — packing a configuration must be \
                 a pure observation, never a mutation",
                w.var.name
            ),
        );
    }
    for decl in decls {
        for w in decl.fp_d0.writes.iter().chain(&decl.fp_d1.writes) {
            let covered = codec.reads.iter().any(|r| r.var == w.var);
            if !covered {
                push(
                    report,
                    Severity::Violation,
                    "codec-coverage",
                    format!(
                        "{} writes `{}` but the state codec does not read it — packed states \
                         would silently drop that variable and distinct configurations would \
                         collapse into one visited entry",
                        decl.label, w.var.name
                    ),
                );
            }
        }
    }
    // Deduplicate: the same uncovered class surfaces once per rule × dest.
    report.findings.dedup_by(|a, b| {
        a.code == "codec-coverage" && b.code == "codec-coverage" && a.message == b.message
    });
}

/// Fault-domain analysis: every fault kind the injection engine can plant
/// must confine its writes to variable classes that appear in some
/// declared rule footprint's write-set (union semantics — a whole-node
/// reset legitimately spans both layers' variables). A class no rule
/// writes is either instrumentation (ghost identities, the ledger) or
/// dead state; corrupting it would step outside the model the
/// snap-stabilization oracle quantifies over.
fn lint_fault_domains(decls: &[RuleDecl], report: &mut LintReport) {
    let covered = |class: VarClass| {
        decls.iter().any(|d| {
            d.fp_d0
                .writes
                .iter()
                .chain(&d.fp_d1.writes)
                .any(|w| w.var == class)
        })
    };
    let mut classes: Vec<String> = Vec::new();
    for kind in FaultKind::representatives() {
        for class in kind.write_set() {
            classes.push(class.name.to_string());
            if !covered(class) {
                push(
                    report,
                    Severity::Violation,
                    "fault-domain",
                    format!(
                        "fault kind `{}` writes `{}`, which no declared rule footprint writes — \
                         the injected state would be outside the model and the oracle's \
                         post-fault convergence argument would not cover it",
                        kind.label(),
                        class.name
                    ),
                );
            }
        }
    }
    classes.sort();
    classes.dedup();
    report.fault_write_classes = classes;
    // The same gap surfaces once per (kind, class), and buffer kinds come
    // in two variants with identical labels: deduplicate.
    report.findings.dedup_by(|a, b| {
        a.code == "fault-domain" && b.code == "fault-domain" && a.message == b.message
    });
}

/// The wire surface under audit: the declared link-crossing event kinds
/// and each frame tag's `(label, claimed kind)` mapping. Decoupled from
/// [`ssmfp_core::wire`]'s constants so the red tests can corrupt it.
#[derive(Debug, Clone)]
pub struct WireSurface {
    /// Every event kind declared to cross a link.
    pub kinds: Vec<String>,
    /// Every frame tag and the kind it claims to carry.
    pub tags: Vec<(String, String)>,
    /// Per-client audit stamp fields the handshake body must carry.
    pub stamp_required: Vec<String>,
    /// Stamp fields the codec declares it actually encodes.
    pub stamp_encoded: Vec<String>,
}

/// The shipped wire surface, read off [`FrameTag::ALL`],
/// [`LINK_EVENT_KINDS`] and the client-stamp field declarations.
pub fn default_wire_surface() -> WireSurface {
    WireSurface {
        kinds: LINK_EVENT_KINDS.iter().map(|k| k.to_string()).collect(),
        tags: FrameTag::ALL
            .iter()
            .map(|t| (format!("{t:?}"), t.event_kind().to_string()))
            .collect(),
        stamp_required: CLIENT_STAMP_FIELDS.iter().map(|f| f.to_string()).collect(),
        stamp_encoded: ENCODED_CLIENT_STAMP_FIELDS
            .iter()
            .map(|f| f.to_string())
            .collect(),
    }
}

/// Wire-coverage analysis: the tag ↔ event-kind mapping must be a
/// bijection onto the declared link-crossing kinds.
fn lint_wire_coverage(surface: &WireSurface, report: &mut LintReport) {
    report.wire_tags = surface.tags.clone();
    for kind in &surface.kinds {
        let carriers: Vec<&str> = surface
            .tags
            .iter()
            .filter(|(_, k)| k == kind)
            .map(|(t, _)| t.as_str())
            .collect();
        match carriers.len() {
            0 => push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!(
                    "link-crossing event kind `{kind}` has no frame tag — that traffic cannot \
                     leave the process, so the socket transport would silently diverge from \
                     the in-process channels"
                ),
            ),
            1 => {}
            _ => push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!(
                    "event kind `{kind}` is claimed by {} frame tags ({}) — decoding is \
                     ambiguous, the mapping must be a bijection",
                    carriers.len(),
                    carriers.join(", ")
                ),
            ),
        }
    }
    for (tag, kind) in &surface.tags {
        if !surface.kinds.iter().any(|k| k == kind) {
            push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!(
                    "frame tag `{tag}` claims event kind `{kind}`, which is not declared as \
                     link-crossing — either declare the kind or retire the tag"
                ),
            );
        }
    }
    let mut seen: Vec<&str> = Vec::new();
    for (tag, _) in &surface.tags {
        if seen.contains(&tag.as_str()) {
            push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!("frame tag `{tag}` is declared twice"),
            );
        }
        seen.push(tag);
    }
    // Client-stamp coverage: every field the per-client audit needs on
    // the wire must be one the codec declares it encodes, and vice versa
    // (an encoded-but-unrequired field is dead weight in every frame).
    for f in &surface.stamp_required {
        if !surface.stamp_encoded.contains(f) {
            push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!(
                    "client stamp field `{f}` is required by the per-client audit but the \
                     codec does not declare it encoded — the stamp would be dropped on the \
                     wire and cross-process runs could not render a per-client verdict"
                ),
            );
        }
    }
    for f in &surface.stamp_encoded {
        if !surface.stamp_required.contains(f) {
            push(
                report,
                Severity::Violation,
                "wire-coverage",
                format!(
                    "codec encodes client stamp field `{f}` that no audit requires — \
                     retire the field or declare the requirement"
                ),
            );
        }
    }
}

/// Serializes a report as JSON (hand-rolled: the workspace builds without
/// a registry, so no serde).
pub fn to_json(report: &LintReport) -> String {
    fn findings(list: Vec<&Finding>) -> String {
        let items: Vec<String> = list
            .iter()
            .map(|f| {
                format!(
                    "{{\"code\":{},\"message\":{}}}",
                    json_string(f.code),
                    json_string(&f.message)
                )
            })
            .collect();
        format!("[{}]", items.join(","))
    }
    fn pairs(list: &[(String, String)]) -> String {
        let items: Vec<String> = list
            .iter()
            .map(|(a, b)| format!("[{},{}]", json_string(a), json_string(b)))
            .collect();
        format!("[{}]", items.join(","))
    }
    let strings = |list: &[String]| -> String {
        let items: Vec<String> = list.iter().map(|v| json_string(v)).collect();
        items.join(",")
    };
    let conc_items: Vec<String> = report
        .conc
        .iter()
        .map(|c| {
            format!(
                "{{\"component\":{},\"threads\":{},\"locks\":{},\"channels\":{},\
                 \"edges\":{},\"untimed_edges\":{}}}",
                json_string(&c.component),
                c.threads,
                c.locks,
                c.channels,
                c.edges,
                c.untimed_edges
            )
        })
        .collect();
    format!(
        "{{\n  \"tool\": \"ssmfp-lint\",\n  \"violations\": {},\n  \"warnings\": {},\n  \
         \"guard_overlaps\": {},\n  \"same_dest_interference\": {},\n  \
         \"cross_dest_independent\": {},\n  \"codec_reads\": [{}],\n  \
         \"fault_write_classes\": [{}],\n  \"wire_tags\": {},\n  \"conc\": [{}]\n}}",
        findings(report.violations().collect()),
        findings(report.warnings().collect()),
        pairs(&report.guard_overlaps),
        pairs(&report.same_dest_interference),
        pairs(&report.cross_dest_independent),
        strings(&report.codec_reads),
        strings(&report.fault_write_classes),
        pairs(&report.wire_tags),
        conc_items.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::footprint::{BUF_E, BUF_R};
    use ssmfp_kernel::footprint::DestScope;

    #[test]
    fn shipped_declarations_are_clean() {
        let report = analyze_default();
        assert_eq!(
            report.violations().count(),
            0,
            "shipped rules must lint clean: {:?}",
            report.findings
        );
        assert_eq!(report.warnings().count(), 0, "{:?}", report.findings);
        assert_eq!(report.exit_code(true), 0);
    }

    #[test]
    fn overlap_matrix_matches_allow_list() {
        let report = analyze_default();
        let mut got: Vec<(String, String)> = report.guard_overlaps.clone();
        got.sort();
        let mut want: Vec<(String, String)> = ALLOWED_OVERLAPS
            .iter()
            .map(|&(a, b)| (a.to_string(), b.to_string()))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn cross_destination_isolation_holds_for_all_pairs() {
        let report = analyze_default();
        let decls = default_decls();
        // Every unordered pair (including self-pairs) must be isolated.
        let expected = decls.len() * (decls.len() + 1) / 2;
        assert_eq!(report.cross_dest_independent.len(), expected);
    }

    #[test]
    fn same_dest_interference_includes_the_handshake() {
        let report = analyze_default();
        let has = |a: &str, b: &str| {
            report
                .same_dest_interference
                .iter()
                .any(|(x, y)| (x == a && y == b) || (x == b && y == a))
        };
        // R3 writes bufR which R4's certification guard reads.
        assert!(has("R3", "R4"));
        // A's corrections mask every forwarding rule under priority.
        assert!(has("A", "R6"));
    }

    #[test]
    fn corrupted_neighbor_write_is_caught() {
        let mut decls = default_decls();
        let r2 = decls.iter_mut().find(|d| d.label == "R2").unwrap();
        r2.fp_d0.writes.push(Access {
            var: BUF_R,
            locus: Locus::Neighbors,
            dest: DestScope::One(0),
        });
        let report = analyze(&decls);
        assert!(report.findings.iter().any(|f| f.code == "non-local-write"));
        assert_ne!(report.exit_code(false), 0);
    }

    #[test]
    fn corrupted_ownership_is_caught() {
        // The acceptance-criterion corruption: R2's declaration claims it
        // writes `parent` (owned by A) instead of its own emission buffer.
        let mut decls = default_decls();
        let r2 = decls.iter_mut().find(|d| d.label == "R2").unwrap();
        for fp in [&mut r2.fp_d0, &mut r2.fp_d1] {
            for w in fp.writes.iter_mut() {
                if w.var == BUF_E {
                    w.var = ssmfp_routing::footprint::PARENT;
                }
            }
        }
        let report = analyze(&decls);
        assert!(
            report.violations().any(|f| f.code == "ownership"),
            "{:?}",
            report.findings
        );
        assert_ne!(report.exit_code(false), 0);
    }

    #[test]
    fn duplicate_access_is_a_warning_only() {
        let mut decls = default_decls();
        let first = decls[0].fp_d0.reads[0];
        decls[0].fp_d0.reads.push(first);
        let report = analyze(&decls);
        assert!(report.warnings().any(|f| f.code == "duplicate-access"));
        assert_eq!(report.exit_code(false), 0);
        assert_ne!(report.exit_code(true), 0);
    }

    #[test]
    fn shipped_codec_is_a_covering_observer() {
        let report = analyze_default();
        assert!(
            !report.findings.iter().any(|f| f.code.starts_with("codec-")),
            "{:?}",
            report.findings
        );
        // Every class some rule writes is read back by the codec.
        for decl in default_decls() {
            for w in decl.fp_d0.writes.iter().chain(&decl.fp_d1.writes) {
                assert!(
                    report.codec_reads.contains(&w.var.name.to_string()),
                    "codec does not read `{}`",
                    w.var.name
                );
            }
        }
    }

    #[test]
    fn codec_write_is_caught_as_impure() {
        let mut codec = codec_footprint();
        codec.writes.push(Access {
            var: BUF_R,
            locus: Locus::Me,
            dest: DestScope::All,
        });
        let mut report = LintReport::default();
        lint_codec(&default_decls(), &codec, &mut report);
        assert!(report.violations().any(|f| f.code == "codec-impure"));
    }

    #[test]
    fn missing_codec_read_is_caught_as_coverage_gap() {
        let mut codec = codec_footprint();
        codec.reads.retain(|a| a.var != BUF_E);
        let mut report = LintReport::default();
        lint_codec(&default_decls(), &codec, &mut report);
        let gaps: Vec<_> = report
            .violations()
            .filter(|f| f.code == "codec-coverage")
            .collect();
        assert!(
            gaps.iter().all(|f| f.message.contains("bufE")) && !gaps.is_empty(),
            "{gaps:?}"
        );
    }

    #[test]
    fn fault_domains_are_within_declared_footprints() {
        let report = analyze_default();
        assert!(
            !report.findings.iter().any(|f| f.code == "fault-domain"),
            "{:?}",
            report.findings
        );
        // The union surface the injection engine may touch, by class name.
        for class in ["bufR", "bufE", "choicePtr", "request", "dist", "parent"] {
            assert!(
                report.fault_write_classes.contains(&class.to_string()),
                "missing {class}: {:?}",
                report.fault_write_classes
            );
        }
    }

    #[test]
    fn fault_outside_declared_domains_is_caught() {
        // Corrupt the declarations so no rule admits writing `choicePtr`:
        // the choice-scramble (and node-reset) faults now write outside
        // every declared footprint and the lint must go red.
        let mut decls = default_decls();
        for d in &mut decls {
            for fp in [&mut d.fp_d0, &mut d.fp_d1] {
                fp.writes
                    .retain(|w| w.var != ssmfp_core::footprint::CHOICE_PTR);
            }
        }
        let report = analyze(&decls);
        let gaps: Vec<_> = report
            .violations()
            .filter(|f| f.code == "fault-domain")
            .collect();
        assert!(
            gaps.iter().any(|f| f.message.contains("choice"))
                && gaps.iter().any(|f| f.message.contains("reset")),
            "{gaps:?}"
        );
        assert_ne!(report.exit_code(false), 0);
    }

    #[test]
    fn shipped_wire_surface_is_a_bijection() {
        let report = analyze_default();
        assert!(
            !report.findings.iter().any(|f| f.code == "wire-coverage"),
            "{:?}",
            report.findings
        );
        assert_eq!(report.wire_tags.len(), LINK_EVENT_KINDS.len());
    }

    #[test]
    fn uncovered_link_kind_is_caught() {
        // Red test: declare a new link-crossing kind no tag carries.
        let mut surface = default_wire_surface();
        surface.kinds.push("port.preempt".to_string());
        let mut report = LintReport::default();
        lint_wire_coverage(&surface, &mut report);
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains("port.preempt")));
    }

    #[test]
    fn ambiguous_and_stray_tags_are_caught() {
        // Two tags claiming one kind, and a tag claiming an undeclared kind.
        let mut surface = default_wire_surface();
        surface
            .tags
            .push(("Offer2".to_string(), "port.offer".to_string()));
        surface
            .tags
            .push(("Gossip".to_string(), "control.gossip".to_string()));
        let mut report = LintReport::default();
        lint_wire_coverage(&surface, &mut report);
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains("2 frame tags")));
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains("control.gossip")));
        assert_ne!(report.exit_code(false), 0);
    }

    #[test]
    fn duplicate_tag_is_caught() {
        let mut surface = default_wire_surface();
        surface
            .tags
            .push(("Offer".to_string(), "routing.dv".to_string()));
        let mut report = LintReport::default();
        lint_wire_coverage(&surface, &mut report);
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains("declared twice")));
    }

    #[test]
    fn stamp_dropped_from_codec_is_caught() {
        // Red test: the audit requires both stamp fields; a codec that
        // stops encoding one (say, a refactor drops `client_seq` from
        // `put_msg`) must fail wire-coverage.
        let mut surface = default_wire_surface();
        let dropped = surface.stamp_encoded.pop().expect("shipped stamp fields");
        let mut report = LintReport::default();
        lint_wire_coverage(&surface, &mut report);
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains(&dropped)));
        assert_ne!(report.exit_code(false), 0);
        // And the mirror: encoding a stamp field no audit requires.
        let mut surface = default_wire_surface();
        surface.stamp_encoded.push("stamp.vintage".to_string());
        let mut report = LintReport::default();
        lint_wire_coverage(&surface, &mut report);
        assert!(report
            .violations()
            .any(|f| f.code == "wire-coverage" && f.message.contains("stamp.vintage")));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = to_json(&analyze_default());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"guard_overlaps\""));
        assert!(json.contains("[\"R1\",\"R4\"]"));
        // Balanced braces/brackets (no serde, so keep the format honest).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn a_finding_message_is_escaped() {
        let mut report = LintReport::default();
        report.findings.push(Finding {
            severity: Severity::Warning,
            code: "non-local-write",
            message: "say \"hi\" to C:\\dir\nnext".into(),
        });
        let json = to_json(&report);
        assert!(
            json.contains(r#"{"code":"non-local-write","message":"say \"hi\" to C:\\dir\nnext"}"#)
        );
        assert!(!json.contains("dir\nnext"), "a raw newline in a string");
    }
}
