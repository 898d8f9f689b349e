//! The fault-injection **soak harness**: long randomized campaigns of
//! [`FaultScenario`]s across topologies × daemons × fault plans, audited
//! end-to-end by the `SP` oracle, with delta-debugging of failures.
//!
//! A campaign is a seeded sweep: seed `k` deterministically derives a
//! scenario (topology, daemon, initial corruption, higher-layer sends,
//! and a mid-execution [`FaultPlan`]), runs it to
//! quiescence, and asks the oracle whether Specification `SP` held for
//! the post-fault epoch. Any failing scenario is **shrunk** — faults are
//! dropped greedily to a fixpoint, then each survivor is narrowed to a
//! strictly weaker kind — and serialized as a replay artifact that
//! re-executes the failure deterministically via
//! [`run_fault_scenario`].
//!
//! On the real protocol a campaign must come back clean; the
//! [`SeededBug`] mutations exist to prove the oracle *would* notice
//! (see [`mutation_self_test`]).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssmfp_core::cli::json_string;
use ssmfp_core::faults::{FaultPlan, FaultPlanConfig, SeededBug};
use ssmfp_core::replay::{run_fault_scenario, FaultScenario, ScenarioOutcome, SendSpec};
use ssmfp_core::DaemonKind;
use ssmfp_routing::CorruptionKind;
use ssmfp_topology::{gen, Graph};

/// Shape of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of scenarios (seeds `0..scenarios`).
    pub scenarios: u64,
    /// Faults per plan.
    pub faults_per_plan: usize,
    /// Step budget per scenario.
    pub budget: u64,
    /// Planted protocol bug (`None` = the real protocol).
    pub bug: Option<SeededBug>,
    /// Worker threads.
    pub threads: usize,
}

impl CampaignConfig {
    /// The CI smoke configuration: bounded, fixed seeds, still covering
    /// every topology × daemon pair in the pools.
    pub fn quick() -> Self {
        CampaignConfig {
            scenarios: 30,
            faults_per_plan: 4,
            budget: 300_000,
            bug: None,
            threads: default_threads(),
        }
    }

    /// A full campaign over `scenarios` seeds.
    pub fn full(scenarios: u64) -> Self {
        CampaignConfig {
            scenarios,
            ..CampaignConfig::quick()
        }
    }

    /// Replaces the planted bug.
    pub fn with_bug(mut self, bug: SeededBug) -> Self {
        self.bug = Some(bug);
        self
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The topology pool (index = `seed % 5`).
fn topology(seed: u64) -> Graph {
    match seed % 5 {
        0 => gen::line(4),
        1 => gen::ring(5),
        2 => gen::star(5),
        3 => gen::grid(2, 3),
        _ => gen::random_connected(7, 9, seed),
    }
}

/// The daemon pool (index = `(seed / 5) % 6`), so 30 consecutive seeds
/// cover every topology × daemon pair.
fn daemon(seed: u64, n: usize) -> DaemonKind {
    match (seed / 5) % 6 {
        0 => DaemonKind::RoundRobin,
        1 => DaemonKind::Synchronous,
        2 => DaemonKind::CentralRandom { seed },
        3 => DaemonKind::DistributedRandom { seed, p_move: 0.5 },
        4 => DaemonKind::LocallyCentral { seed },
        _ => DaemonKind::Adversarial {
            seed,
            victims: vec![(seed as usize) % n],
        },
    }
}

/// Deterministically derives scenario `seed` of a campaign: pooled
/// topology and daemon, rotating initial corruption, sends both before
/// and after the fault window, and a random domain-legal fault plan.
pub fn scenario_from_seed(seed: u64, config: &CampaignConfig) -> FaultScenario {
    let graph = topology(seed);
    let n = graph.n();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x50AC_50AC_50AC_50AC);
    let corruption = [
        CorruptionKind::RandomGarbage,
        CorruptionKind::None,
        CorruptionKind::ParentCycles,
    ][(seed % 3) as usize];
    let garbage_fill = [0.0, 0.3, 0.6][((seed / 3) % 3) as usize];
    // The fault window: stamps in `0..200`; two sends precede it, two
    // land inside it, and two are issued strictly after the last
    // possible fault — the messages the exactly-once guarantee fully
    // binds for.
    let horizon = 200;
    let mut sends = Vec::new();
    for &at_step in &[0, 40, 90, 150] {
        let src = rng.gen_range(0..n);
        let mut dst = rng.gen_range(0..n);
        if dst == src {
            dst = (dst + 1) % n;
        }
        // Payloads from a deliberately small alphabet: same-payload
        // collisions (with each other and with initial garbage) are the
        // merge hazards the colors exist to disambiguate, so the campaign
        // provokes them on purpose.
        sends.push(SendSpec {
            at_step,
            src,
            dst,
            payload: rng.gen_range(0..4),
        });
    }
    // Post-fault: a back-to-back pair with identical (src, dst, payload) —
    // the paper's "same useful information" hazard (Figure 3). Only the
    // colors keep the second message from being certified against the
    // first's still-resident copy; both carry the exactly-once guarantee
    // since they are generated after the last fault.
    let src = rng.gen_range(0..n);
    let mut dst = rng.gen_range(0..n);
    if dst == src {
        dst = (dst + 1) % n;
    }
    let payload = rng.gen_range(0..4);
    for &at_step in &[horizon + 50, horizon + 51] {
        sends.push(SendSpec {
            at_step,
            src,
            dst,
            payload,
        });
    }
    let plan = FaultPlan::random(
        &graph,
        FaultPlanConfig {
            faults: config.faults_per_plan,
            horizon,
            seed,
        },
    );
    FaultScenario {
        n,
        edges: graph.edges().to_vec(),
        daemon: daemon(seed, n),
        corruption,
        garbage_fill,
        seed,
        bug: config.bug,
        budget: config.budget,
        sends,
        plan,
    }
}

/// A flagged scenario with its shrunk minimal reproduction.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The campaign seed.
    pub seed: u64,
    /// The original scenario.
    pub scenario: FaultScenario,
    /// The oracle's verdict on the original.
    pub outcome: ScenarioOutcome,
    /// The scenario with the shrunk plan (same in every other respect).
    pub shrunk: FaultScenario,
    /// The oracle's verdict on the shrunk reproduction (still failing).
    pub shrunk_outcome: ScenarioOutcome,
}

/// Aggregate result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Faults applied across all scenarios.
    pub faults_applied: usize,
    /// Scenarios that exhausted their budget without quiescing (excluded
    /// from the liveness checks, counted here for visibility).
    pub non_converged: u64,
    /// Mean post-fault convergence steps over converged scenarios.
    pub mean_post_fault_steps: f64,
    /// Flagged scenarios, shrunk.
    pub failures: Vec<Failure>,
}

impl CampaignSummary {
    /// Whether the campaign came back clean.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Shrinks a failing scenario's plan to a minimal reproduction: greedy
/// drop to a fixpoint, then per-fault narrowing
/// ([`FaultKind::narrow_candidates`](ssmfp_core::FaultKind::narrow_candidates)).
/// The result never has more faults than the input, and still fails.
///
/// Soundness rests on per-fault seeds: removing or narrowing one fault
/// cannot change what any *other* fault writes, so each candidate plan's
/// re-execution is a faithful counterfactual.
pub fn shrink_plan(scenario: &FaultScenario) -> (FaultPlan, ScenarioOutcome) {
    let mut best = scenario.plan.clone();
    let mut best_outcome = run_fault_scenario(scenario);
    debug_assert!(best_outcome.is_violation(), "shrinking a passing scenario");
    loop {
        let mut progressed = false;
        // Pass 1: greedy drop, restarting from the front after each hit.
        let mut i = 0;
        while i < best.len() {
            let cand = best.without(i);
            let outcome = run_fault_scenario(&scenario.with_plan(cand.clone()));
            if outcome.is_violation() {
                best = cand;
                best_outcome = outcome;
                progressed = true;
            } else {
                i += 1;
            }
        }
        // Pass 2: narrow each surviving fault to a strictly weaker kind.
        for i in 0..best.len() {
            for kind in best.faults[i].kind.narrow_candidates() {
                let cand = best.with_kind(i, kind);
                let outcome = run_fault_scenario(&scenario.with_plan(cand.clone()));
                if outcome.is_violation() {
                    best = cand;
                    best_outcome = outcome;
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            return (best, best_outcome);
        }
    }
}

/// Runs a campaign: every seed's scenario is executed (in parallel) and
/// audited; failures are shrunk sequentially afterwards.
pub fn run_campaign(config: &CampaignConfig) -> CampaignSummary {
    let seeds: Vec<u64> = (0..config.scenarios).collect();
    let results: Vec<(FaultScenario, ScenarioOutcome)> =
        ssmfp_analysis::parallel::run_ordered(&seeds, config.threads, |_, &seed| {
            let scenario = scenario_from_seed(seed, config);
            let outcome = run_fault_scenario(&scenario);
            (scenario, outcome)
        });
    let mut summary = CampaignSummary {
        scenarios: config.scenarios,
        faults_applied: 0,
        non_converged: 0,
        mean_post_fault_steps: 0.0,
        failures: Vec::new(),
    };
    let mut converged = 0u64;
    let mut post_fault_steps = 0u64;
    for (scenario, outcome) in results {
        summary.faults_applied += outcome.faults_applied;
        if outcome.quiescent {
            converged += 1;
            post_fault_steps += outcome.post_fault_steps;
        } else {
            summary.non_converged += 1;
        }
        if outcome.is_violation() {
            let (shrunk_plan, shrunk_outcome) = shrink_plan(&scenario);
            summary.failures.push(Failure {
                seed: scenario.seed,
                shrunk: scenario.with_plan(shrunk_plan),
                scenario,
                outcome,
                shrunk_outcome,
            });
        }
    }
    if converged > 0 {
        summary.mean_post_fault_steps = post_fault_steps as f64 / converged as f64;
    }
    summary
}

/// Runs the oracle self-test: plants `bug` in an otherwise identical
/// campaign and returns the summary, which **must** contain failures —
/// an oracle that stays green over a known-broken protocol is vacuous.
pub fn mutation_self_test(bug: SeededBug, config: &CampaignConfig) -> CampaignSummary {
    let mutated = config.clone().with_bug(bug);
    run_campaign(&mutated)
}

/// One failure's entry in [`summary_json`].
fn failure_json(seed: u64, summary: &str, plan_faults: usize, shrunk_faults: usize) -> String {
    format!(
        "{{\"seed\": {seed}, \"summary\": {}, \"plan_faults\": {plan_faults}, \"shrunk_faults\": {shrunk_faults}}}",
        json_string(summary)
    )
}

/// Hand-rolled JSON rendering of a campaign summary (the artifact the CI
/// soak-smoke job uploads). No serde in the dependency tree; same
/// approach as `ssmfp-lint`'s report JSON.
pub fn summary_json(summary: &CampaignSummary) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scenarios\": {},\n", summary.scenarios));
    out.push_str(&format!(
        "  \"faults_applied\": {},\n",
        summary.faults_applied
    ));
    out.push_str(&format!(
        "  \"non_converged\": {},\n",
        summary.non_converged
    ));
    out.push_str(&format!(
        "  \"mean_post_fault_steps\": {:.2},\n",
        summary.mean_post_fault_steps
    ));
    out.push_str(&format!("  \"violations\": {},\n", summary.failures.len()));
    out.push_str("  \"failures\": [");
    for (i, f) in summary.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&failure_json(
            f.seed,
            &f.outcome.summary(),
            f.scenario.plan.len(),
            f.shrunk.plan.len(),
        ));
    }
    if !summary.failures.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssmfp_core::replay::run_fault_scenario;

    fn test_config() -> CampaignConfig {
        CampaignConfig {
            scenarios: 30,
            faults_per_plan: 3,
            budget: 200_000,
            bug: None,
            threads: default_threads(),
        }
    }

    #[test]
    fn real_protocol_campaign_is_clean() {
        let summary = run_campaign(&test_config());
        assert!(
            summary.clean(),
            "oracle flagged the real protocol: {:?}",
            summary
                .failures
                .iter()
                .map(|f| (f.seed, f.outcome.summary()))
                .collect::<Vec<_>>()
        );
        assert_eq!(summary.non_converged, 0, "every scenario must quiesce");
        assert!(summary.faults_applied > 0, "plans must actually fire");
    }

    #[test]
    fn scenario_derivation_is_deterministic_and_diverse() {
        let config = test_config();
        let a = scenario_from_seed(7, &config);
        let b = scenario_from_seed(7, &config);
        assert_eq!(a, b);
        // 30 seeds cover all 6 daemons and all 5 topologies.
        let mut daemons = std::collections::HashSet::new();
        let mut sizes = std::collections::HashSet::new();
        for seed in 0..30 {
            let s = scenario_from_seed(seed, &config);
            daemons.insert(std::mem::discriminant(&s.daemon));
            sizes.insert((s.n, s.edges.len()));
        }
        assert_eq!(daemons.len(), 6);
        assert!(sizes.len() >= 5);
    }

    /// Satellite: the mutation self-test. The oracle must flag the
    /// seeded `SkipR4Erase` bug, the shrunk plan must be no larger than
    /// the injected one, and the dumped replay artifact must re-execute
    /// the failure deterministically.
    #[test]
    fn oracle_flags_skip_r4_erase_and_shrinks() {
        let mut config = test_config();
        config.scenarios = 12;
        let summary = mutation_self_test(SeededBug::SkipR4Erase, &config);
        assert!(
            !summary.failures.is_empty(),
            "a vacuous oracle: the R4-erase bug went unnoticed"
        );
        for f in &summary.failures {
            assert!(
                f.shrunk.plan.len() <= f.scenario.plan.len(),
                "shrinking grew the plan"
            );
            assert!(
                f.shrunk_outcome.is_violation(),
                "shrunk plan must still fail"
            );
            // Replay artifact roundtrip: parse back and re-execute.
            let text = f.shrunk.to_text();
            let replayed = FaultScenario::from_text(&text).expect("artifact parses");
            let outcome = run_fault_scenario(&replayed);
            assert_eq!(
                outcome, f.shrunk_outcome,
                "replay artifact must reproduce the failure bit-for-bit"
            );
        }
        // The R4 bug breaks the protocol with no faults needed at all, so
        // greedy dropping should reach the empty plan on at least one
        // failure — the strongest possible shrink.
        assert!(
            summary.failures.iter().any(|f| f.shrunk.plan.is_empty()),
            "expected at least one failure to shrink to the empty plan"
        );
    }

    #[test]
    fn oracle_flags_color_reuse() {
        let mut config = test_config();
        // The color-reuse bug needs payload collisions through shared
        // links (the campaign's duplicate-pair sends provoke them); the
        // first pooled scenario that lines the schedule up is seed 33.
        config.scenarios = 50;
        let summary = mutation_self_test(SeededBug::ColorReuse, &config);
        assert!(
            !summary.failures.is_empty(),
            "a vacuous oracle: the color-reuse bug went unnoticed"
        );
        for f in &summary.failures {
            assert!(f.shrunk.plan.len() <= f.scenario.plan.len());
        }
    }

    #[test]
    fn summary_json_is_well_formed() {
        let mut config = test_config();
        config.scenarios = 4;
        let summary = run_campaign(&config);
        let json = summary_json(&summary);
        assert!(json.contains("\"scenarios\": 4"));
        assert!(json.contains("\"violations\": 0"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn a_failure_summary_is_escaped() {
        assert_eq!(
            failure_json(3, "say \"hi\" to C:\\dir\nnext", 4, 2),
            r#"{"seed": 3, "summary": "say \"hi\" to C:\\dir\nnext", "plan_faults": 4, "shrunk_faults": 2}"#
        );
    }

    /// Satellite: `AdversarialDaemon` and `LocallyCentralDaemon` under
    /// injected faults (they are only exercised fault-free elsewhere).
    #[test]
    fn adversarial_and_locally_central_daemons_survive_faults() {
        let config = test_config();
        for seed in 0..30u64 {
            let scenario = scenario_from_seed(seed, &config);
            let interesting = matches!(
                scenario.daemon,
                DaemonKind::Adversarial { .. } | DaemonKind::LocallyCentral { .. }
            );
            if !interesting {
                continue;
            }
            let outcome = run_fault_scenario(&scenario);
            assert_eq!(outcome.faults_applied, scenario.plan.len());
            assert!(
                !outcome.is_violation(),
                "seed {seed} ({:?}): {}",
                scenario.daemon,
                outcome.summary()
            );
            assert!(outcome.quiescent, "seed {seed}: {}", outcome.summary());
        }
    }
}
