//! The benchmark's contract with its readers: `BENCHMARK.json`, the README
//! glossary and the registry name the same metrics, and every workload —
//! run small — is correct and emits each of them exactly once.

use ssmfp_benchmark::metrics::{END_TO_END, PER_LAYER};
use ssmfp_benchmark::run::smoke;
use ssmfp_benchmark::workloads::WORKLOADS;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_lists_exactly_the_registry() {
    let json = read("../BENCHMARK.json");
    // The gate is exactly the workloads the registry marks as gated.
    for w in &WORKLOADS {
        assert_eq!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name)),
            w.gated,
            "workload {}: listed in BENCHMARK.json iff gated",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert_eq!(json.matches(&entry).count(), 1, "{entry} not listed once");
    }
    assert_eq!(
        json.matches("\"why\": ").count(),
        WORKLOADS.iter().filter(|w| w.gated).count()
    );
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    assert_eq!(json.matches("\"bound\": ").count(), END_TO_END.len());
    assert!(json.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
}

#[test]
fn readme_glossary_names_every_metric_and_workload() {
    let readme = read("README.md");
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README.md does not mention {}",
            m.name
        );
    }
    for w in &WORKLOADS {
        assert!(readme.contains(&format!("`{}`", w.name)));
    }
}

/// `--smoke`: every workload, gated or not, traced at a twentieth of its
/// size — each correct, each emitting every registered metric once with a
/// finite value, the whole suite in well under 30 s.
#[test]
fn smoke_runs_every_workload_and_emits_every_metric() {
    let started = std::time::Instant::now();
    let out = Path::new("out").join(format!("test-{}", std::process::id()));
    let result = smoke(&out);
    let _ = std::fs::remove_dir_all(&out);
    let summary = result.unwrap_or_else(|e| panic!("smoke failed: {e}"));
    assert_eq!(summary.lines().count(), WORKLOADS.len());
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke took {:?}",
        started.elapsed()
    );
}
