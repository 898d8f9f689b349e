//! `ssmfp-experiments` — regenerates every table of `EXPERIMENTS.md`.
//!
//! Usage:
//!   `cargo run --release -p ssmfp-analysis --bin experiments [seed]`
//!   `cargo run --release -p ssmfp-analysis --bin experiments -- [seed] \
//!        --csv DIR --json FILE --threads N`
//!
//! With `--csv DIR`, every table is additionally written as a CSV file
//! (one per experiment) for plotting pipelines; with `--json FILE` the
//! whole suite is written as one JSON array of tables (`-` = stdout).
//! With `--threads N` the replicate sweeps fan out over N workers
//! (deterministic ordered merge: the tables are identical to a
//! single-threaded run; default: the machine's available parallelism).

use ssmfp_analysis::experiments::run_all_with;
use ssmfp_core::cli::{self, Tool};

const TOOL: Tool = Tool {
    name: "ssmfp-experiments",
    usage: "usage: ssmfp-experiments [seed] [--csv DIR] [--json FILE] [--threads N]",
};

fn main() {
    let mut seed: u64 = 2026;
    let mut csv_dir: Option<String> = None;
    let mut json: Option<String> = None;
    let mut threads = std::thread::available_parallelism().map_or(1, usize::from);
    TOOL.parse(|args| {
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--csv" => csv_dir = Some(args.value()?),
                "--json" => json = Some(args.value()?),
                "--threads" => threads = args.parse::<usize>()?.max(1),
                word if !word.starts_with('-') => seed = cli::parse("seed", word)?,
                _ => return Err(args.unknown()),
            }
        }
        Ok(())
    });
    println!("SSMFP experiment suite (seed {seed}, {threads} sweep threads)");
    println!("Reproduces: Cournier, Dubois, Villain — IPPS 2009, all figures & propositions.\n");
    let tables = run_all_with(seed, threads);
    for (i, table) in tables.iter().enumerate() {
        println!("{table}");
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| TOOL.die(&format!("cannot create {dir}: {e}")));
            let slug: String = table
                .title
                .chars()
                .take_while(|c| *c != ' ')
                .flat_map(|c| c.to_lowercase())
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let path = format!("{dir}/{:02}_{slug}.csv", i + 1);
            std::fs::write(&path, table.to_csv())
                .unwrap_or_else(|e| TOOL.die(&format!("cannot write {path}: {e}")));
        }
    }
    if let Some(dir) = &csv_dir {
        println!("(CSV tables written to {dir}/)");
    }
    if let Some(path) = &json {
        let body = format!(
            "[\n  {}\n]\n",
            tables
                .iter()
                .map(|t| t.to_json())
                .collect::<Vec<_>>()
                .join(",\n  ")
        );
        if path == "-" {
            print!("{body}");
        } else {
            std::fs::write(path, body)
                .unwrap_or_else(|e| TOOL.die(&format!("cannot write {path}: {e}")));
            println!("(JSON suite written to {path})");
        }
    }
}
