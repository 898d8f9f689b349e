//! `ssmfp-soak` — randomized fault-injection soak campaigns with a spec
//! oracle, failure shrinking, and deterministic replay artifacts.
//!
//! Usage:
//!
//! * `ssmfp-soak [--quick] [--seeds N] [--faults N] [--budget N]
//!   [--threads N] [--out FILE] [--artifact-dir DIR]` — run a campaign on
//!   the real protocol. Exits 0 iff no spec violation was found; a JSON
//!   summary is written to `--out` (default `SOAK_summary.json`), and any
//!   failure's shrunk reproduction is dumped as a replay artifact under
//!   `--artifact-dir` (default `.`).
//! * `ssmfp-soak --mutation-check` — the red-expected oracle self-test:
//!   plants the seeded protocol bugs and exits 0 iff the oracle flags
//!   both, with a shrunk plan no larger than the injected one and a
//!   replay artifact that reproduces the failure.
//! * `ssmfp-soak --replay FILE` — re-execute a dumped artifact; prints
//!   the oracle verdict and exits 0 iff the run satisfies `SP` (so a
//!   true failure artifact exits 1, deterministically).

use ssmfp_core::cli::Tool;
use ssmfp_core::faults::SeededBug;
use ssmfp_core::replay::{run_fault_scenario, FaultScenario};
use ssmfp_soak::{mutation_self_test, run_campaign, summary_json, CampaignConfig};

const TOOL: Tool = Tool {
    name: "ssmfp-soak",
    usage: "usage: ssmfp-soak [--quick] [--seeds N] [--faults N] [--budget N] \
            [--threads N] [--out FILE] [--artifact-dir DIR] \
            [--mutation-check] [--replay FILE]",
};

fn replay(path: &str) -> i32 {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| TOOL.die(&format!("cannot read artifact '{path}': {e}")));
    let scenario = FaultScenario::from_text(&text)
        .unwrap_or_else(|e| TOOL.die(&format!("bad artifact '{path}': {e}")));
    let outcome = run_fault_scenario(&scenario);
    println!("replay of {path}:");
    println!(
        "  plan: {} faults, epoch {:?}",
        scenario.plan.len(),
        outcome.epoch_step
    );
    println!("  {}", outcome.summary());
    if outcome.is_violation() {
        for v in &outcome.violations {
            println!("  violation: {v:?}");
        }
        for g in &outcome.undelivered {
            println!("  undelivered at quiescence: {g:?}");
        }
        for g in &outcome.generation_blocked {
            println!("  generation blocked: {g:?}");
        }
        1
    } else {
        println!("  SP holds for the post-fault epoch");
        0
    }
}

fn mutation_check(config: &CampaignConfig, artifact_dir: &str) -> i32 {
    let mut config = config.clone();
    // 50 pooled scenarios: the first seed flagging SkipR4Erase is 3, the
    // first flagging ColorReuse is 33.
    config.scenarios = config.scenarios.max(50);
    let mut ok = true;
    for bug in [SeededBug::SkipR4Erase, SeededBug::ColorReuse] {
        let summary = mutation_self_test(bug, &config);
        if summary.failures.is_empty() {
            eprintln!(
                "VACUOUS ORACLE: seeded bug {} produced no flagged scenario",
                bug.label()
            );
            ok = false;
            continue;
        }
        let f = &summary.failures[0];
        let grew = f.shrunk.plan.len() > f.scenario.plan.len();
        let reproduced = {
            let round = FaultScenario::from_text(&f.shrunk.to_text())
                .map(|s| run_fault_scenario(&s))
                .ok();
            round.as_ref() == Some(&f.shrunk_outcome)
        };
        println!(
            "bug {:<14} flagged={} shrunk {} -> {} faults, replay reproduces={}",
            bug.label(),
            summary.failures.len(),
            f.scenario.plan.len(),
            f.shrunk.plan.len(),
            reproduced
        );
        if grew || !reproduced || !f.shrunk_outcome.is_violation() {
            ok = false;
        }
        // Dump the shrunk reproduction so `--replay` (and CI) can
        // re-execute the failure from the artifact alone.
        let path = format!("{artifact_dir}/soak-mutation-{}.txt", bug.label());
        if let Err(e) = std::fs::write(&path, f.shrunk.to_text()) {
            eprintln!("cannot write artifact '{path}': {e}");
            ok = false;
        } else {
            println!("  artifact: {path}");
        }
    }
    if ok {
        println!("mutation self-test passed: the oracle catches both seeded bugs");
        0
    } else {
        1
    }
}

fn main() {
    let mut config = CampaignConfig::quick();
    let mut out = "SOAK_summary.json".to_string();
    let mut artifact_dir = ".".to_string();
    let mut replay_path: Option<String> = None;
    let mut mutation = false;
    TOOL.parse(|args| {
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--quick" => config = CampaignConfig::quick(),
                "--seeds" => config.scenarios = args.parse()?,
                "--faults" => config.faults_per_plan = args.parse()?,
                "--budget" => config.budget = args.parse()?,
                "--threads" => config.threads = args.parse::<usize>()?.max(1),
                "--out" => out = args.value()?,
                "--artifact-dir" => artifact_dir = args.value()?,
                "--replay" => replay_path = Some(args.value()?),
                "--mutation-check" => mutation = true,
                _ => return Err(args.unknown()),
            }
        }
        Ok(())
    });
    if let Some(path) = &replay_path {
        std::process::exit(replay(path));
    }
    if mutation {
        std::process::exit(mutation_check(&config, &artifact_dir));
    }
    let summary = run_campaign(&config);
    println!(
        "soak campaign: {} scenarios, {} faults applied, {} non-converged, \
         mean post-fault convergence {:.1} steps",
        summary.scenarios,
        summary.faults_applied,
        summary.non_converged,
        summary.mean_post_fault_steps
    );
    let json = summary_json(&summary);
    if let Err(e) = std::fs::write(&out, &json) {
        TOOL.die(&format!("cannot write summary '{}': {e}", out));
    }
    println!("summary written to {}", out);
    if summary.clean() {
        println!("no spec violation: SP held on every post-fault epoch");
        std::process::exit(0);
    }
    eprintln!("{} SPEC VIOLATION(S):", summary.failures.len());
    for f in &summary.failures {
        let path = format!("{}/soak-failure-seed{}.txt", artifact_dir, f.seed);
        eprintln!(
            "  seed {}: {} (plan {} -> shrunk {} faults) -> {}",
            f.seed,
            f.outcome.summary(),
            f.scenario.plan.len(),
            f.shrunk.plan.len(),
            path
        );
        if let Err(e) = std::fs::write(&path, f.shrunk.to_text()) {
            eprintln!("  (cannot write artifact: {e})");
        }
    }
    std::process::exit(1);
}
