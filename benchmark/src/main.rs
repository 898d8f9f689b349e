//! `ssmfp-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints every measured metric by name, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). Exits non-zero when any output failed its check. `--smoke`
//! runs every workload once at a twentieth of its size instead.

use ssmfp_benchmark::metrics::{END_TO_END, PER_LAYER};
use ssmfp_benchmark::run::{run, smoke, Options};
use ssmfp_benchmark::{report, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

/// Sockets and span files go here, relative to the checkout root the
/// command is run from; `.gitignore` names it.
const OUT_DIR: &str = "benchmark/out";

fn usage(msg: &str) -> ExitCode {
    eprintln!("ssmfp-benchmark: {msg}");
    eprintln!(
        "usage: ssmfp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --smoke"
    );
    eprintln!(
        "workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = 34.0f64;
    let mut trace = false;
    let mut smoke_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke_mode = true;
            continue;
        }
        let Some(val) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(val.clone());
                true
            }
            "--seed" => val.parse().map(|v| seed = v).is_ok(),
            "--seconds" => val.parse().map(|v| seconds = v).is_ok(),
            "--trace" => match val.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        };
        if !parsed {
            return usage(&format!("bad value {val:?} for {flag}"));
        }
    }
    let out_dir = PathBuf::from(OUT_DIR);
    if smoke_mode {
        return match smoke(&out_dir) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("ssmfp-benchmark: smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(workload) = workloads::find(&name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        out_dir,
    };
    let mut outcome = run(&opts);
    let list: &'static [_] = if trace { &PER_LAYER } else { &END_TO_END };
    let selected = outcome.select(list).unwrap_or_else(|e| {
        outcome.errors.push(e);
        Vec::new()
    });
    print!("{}", report::table(&opts, &outcome));
    println!("{}", report::json_line(&outcome, &selected));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
