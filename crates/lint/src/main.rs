//! `ssmfp-lint` — static rule-footprint analyzer.
//!
//! ```text
//! cargo run -p ssmfp-lint            # JSON report on stdout, summary on stderr
//! cargo run -p ssmfp-lint -- -D     # also fail (exit 1) on warnings
//! cargo run -p ssmfp-lint -- --json report.json   # write the report to a file
//! cargo run -p ssmfp-lint -- --list               # print the pass catalog
//! cargo run -p ssmfp-lint -- --only ownership     # gate on selected passes only
//! cargo run -p ssmfp-lint -- --skip guard-overlap # run all but the named passes
//! ```
//!
//! Exit status: 0 when the shipped declarations pass every (selected)
//! analysis, 1 when any violation (or, under `-D`, any finding) exists,
//! 2 on usage errors.

use ssmfp_core::cli::{Args, Tool};
use ssmfp_lint::{analyze_default, known_pass, to_json, Severity, PASSES};

const TOOL: Tool = Tool {
    name: "ssmfp-lint",
    usage: "usage: ssmfp-lint [-D|--deny-warnings] [--json FILE] [--only PASS]... \
            [--skip PASS]... [--list] [--version]",
};

fn pass_arg(args: &mut Args) -> Result<String, String> {
    let name = args.value()?;
    if !known_pass(&name) {
        return Err(format!("unknown pass `{name}` (see --list)"));
    }
    Ok(name)
}

fn main() {
    let mut deny_warnings = false;
    let mut json_path: Option<String> = None;
    let mut only: Vec<String> = Vec::new();
    let mut skip: Vec<String> = Vec::new();
    let mut list = false;
    TOOL.parse(|args| {
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "-D" | "--deny-warnings" => deny_warnings = true,
                "--json" => json_path = Some(args.value()?),
                "--only" => only.push(pass_arg(args)?),
                "--skip" => skip.push(pass_arg(args)?),
                "--list" => list = true,
                _ => return Err(args.unknown()),
            }
        }
        Ok(())
    });
    if list {
        let width = PASSES.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, doc) in PASSES {
            println!("{name:width$}  {doc}");
        }
        return;
    }

    let mut report = analyze_default();
    report.retain_passes(&only, &skip);
    let json = to_json(&report);
    match json_path.as_deref() {
        None | Some("-") => println!("{json}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                TOOL.die(&format!("cannot write {path}: {e}"));
            }
            eprintln!("ssmfp-lint: report written to {path}");
        }
    }

    for f in &report.findings {
        let tag = match f.severity {
            Severity::Violation => "violation",
            Severity::Warning => "warning",
        };
        eprintln!("{tag}[{}]: {}", f.code, f.message);
    }
    eprintln!(
        "ssmfp-lint: {} violation(s), {} warning(s); {} guard-overlap pair(s), \
         {} same-destination interference edge(s), {} cross-destination independent pair(s)",
        report.violations().count(),
        report.warnings().count(),
        report.guard_overlaps.len(),
        report.same_dest_interference.len(),
        report.cross_dest_independent.len(),
    );
    std::process::exit(report.exit_code(deny_warnings));
}
