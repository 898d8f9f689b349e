//! `ssmfp-check` — runs the exhaustive verification suite and prints the
//! state counts (the source of the EXPERIMENTS.md verification section).
//!
//! Every instance is explored four ways: sequentially with the packed
//! frontier (the default representation: interned messages + flat codec
//! words + interned node blobs), in parallel (unless `--seq`), with the
//! unpacked `Arc`-based representation, and under partial-order
//! reduction. The parallel and unpacked reports must be
//! **bit-identical** to the packed sequential one and the POR verdict
//! must agree — any divergence exits nonzero. The `B/st` column reports
//! the packed bytes/state (interning tables amortized in) and `pack` the
//! compression factor versus the unpacked representation's sharing-aware
//! accounting.
//!
//! Usage: `ssmfp-check [--threads N] [--seq]`
//!
//! * `--threads N` — worker threads for the parallel run (default: the
//!   machine's available parallelism).
//! * `--seq` — sequential only: skip the parallel run and its
//!   cross-check (throughput is then reported for the sequential pass;
//!   the packed-vs-unpacked cross-check still runs).

use ssmfp_check::{Explorer, Violation};
use ssmfp_core::cli::{json_string, Tool};
use ssmfp_core::message::{Color, GhostId, Message};
use ssmfp_core::state::{NodeState, Outgoing};
use ssmfp_core::SsmfpProtocol;
use ssmfp_routing::{corruption, CorruptionKind};
use ssmfp_topology::{gen, Graph, NodeId};
use std::time::Instant;

fn clean_states(graph: &Graph) -> Vec<NodeState> {
    corruption::corrupt(graph, CorruptionKind::None, 0)
        .into_iter()
        .map(|r| NodeState::clean(graph.n(), r))
        .collect()
}

fn enqueue(
    states: &mut [NodeState],
    src: NodeId,
    dst: NodeId,
    payload: u64,
    seq: u64,
) -> (GhostId, NodeId) {
    let ghost = GhostId::Valid(seq);
    states[src].outbox.push_back(Outgoing {
        dest: dst,
        payload,
        ghost,
    });
    (ghost, dst)
}

fn verdict_of(report: &ssmfp_check::Report) -> String {
    if report.verified() {
        "VERIFIED".to_string()
    } else if report.truncated {
        "truncated".to_string()
    } else {
        let lost = report.violations.iter().any(|v| {
            matches!(
                v,
                Violation::Lost { .. } | Violation::UndeliveredAtTerminal { .. }
            )
        });
        if lost {
            "LOSS FOUND".to_string()
        } else {
            format!("{} violations", report.violations.len())
        }
    }
}

const TOOL: Tool = Tool {
    name: "ssmfp-check",
    usage: "usage: ssmfp-check [--threads N] [--seq] [--json FILE]",
};

fn main() {
    let mut threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut seq_only = false;
    let mut json: Option<String> = None;
    TOOL.parse(|args| {
        while let Some(flag) = args.next_flag() {
            match flag.as_str() {
                "--seq" => seq_only = true,
                "--threads" => {
                    threads = args.parse()?;
                    if threads == 0 {
                        return Err("--threads must be >= 1".into());
                    }
                }
                "--json" => json = Some(args.value()?),
                _ => return Err(args.unknown()),
            }
        }
        Ok(())
    });
    println!("Exhaustive verification (ALL central-daemon schedules)");
    if seq_only {
        println!("packed sequential + unpacked cross-check, then footprint-driven POR\n");
    } else {
        println!(
            "each instance: packed sequential, parallel x{}, unpacked (PR-2 \
             representation) — bit-identical reports enforced — then POR\n",
            threads
        );
    }
    println!(
        "{:<40} | {:>8} | {:>6} | {:>5} | {:>8} | {:>6} | {:>6} | {:>6} | {:>8} | {:>6} | {:>10}",
        "instance",
        "states",
        "terms",
        "depth",
        "POR",
        "saved",
        "B/st",
        "pack",
        "kst/s",
        "spdup",
        "verdict"
    );

    let mut counterexample: Option<Vec<String>> = None;
    let mut mismatches: Vec<String> = Vec::new();
    let mut unexpected: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    let mut run = |name: &str,
                   graph: Graph,
                   states: Vec<NodeState>,
                   exp: Vec<(GhostId, NodeId)>,
                   literal_r5: bool| {
        let mut proto = SsmfpProtocol::new(graph.n(), graph.max_degree());
        if literal_r5 {
            proto = proto.with_literal_r5();
        }
        let mut explorer = Explorer::new(graph.clone(), proto.clone(), exp.clone());
        explorer.trace_counterexamples = literal_r5;
        let t0 = Instant::now();
        let (report, stats) = explorer.explore_with_stats(states.clone());
        let seq_secs = t0.elapsed().as_secs_f64();
        if report.counterexample.is_some() {
            counterexample = report.counterexample.clone();
        }

        // Packed-vs-unpacked cross-check: the PR-2 Arc-based path must
        // produce the bit-identical report on every instance.
        let mut unp = Explorer::new(graph.clone(), proto.clone(), exp.clone()).with_packed(false);
        unp.trace_counterexamples = literal_r5;
        let (unp_report, unp_stats) = unp.explore_with_stats(states.clone());
        if unp_report != report {
            mismatches.push(format!(
                "{name}: unpacked report diverges from packed \
                 (packed {} states/{}, unpacked {} states/{})",
                report.states,
                verdict_of(&report),
                unp_report.states,
                verdict_of(&unp_report)
            ));
        }
        let pack_ratio = unp_stats.bytes_per_state() / stats.bytes_per_state().max(1e-9);

        // Parallel cross-check: the report must be bit-identical.
        let (speedup, throughput_secs) = if seq_only || threads <= 1 {
            (1.0, seq_secs)
        } else {
            let mut par =
                Explorer::new(graph.clone(), proto.clone(), exp.clone()).with_threads(threads);
            par.trace_counterexamples = literal_r5;
            let t0 = Instant::now();
            let par_report = par.explore(states.clone());
            let par_secs = t0.elapsed().as_secs_f64();
            if par_report != report {
                mismatches.push(format!(
                    "{name}: parallel report diverges from sequential \
                     (seq {} states/{}, par {} states/{})",
                    report.states,
                    verdict_of(&report),
                    par_report.states,
                    verdict_of(&par_report)
                ));
            }
            (seq_secs / par_secs.max(1e-9), par_secs)
        };

        let por_explorer = Explorer::new(graph, proto, exp).with_partial_order_reduction();
        let por_report = por_explorer.explore(states);
        if por_report.verified() != report.verified() {
            mismatches.push(format!(
                "{name}: full={} POR={}",
                verdict_of(&report),
                verdict_of(&por_report)
            ));
        }
        let saved = 100.0 * (1.0 - por_report.states as f64 / report.states as f64);
        let kstates_per_sec = report.states as f64 / throughput_secs.max(1e-9) / 1e3;
        println!(
            "{:<40} | {:>8} | {:>6} | {:>5} | {:>8} | {:>5.1}% | {:>6.0} | {:>5.1}x | {:>8.1} | {:>5.2}x | {:>10}",
            name,
            report.states,
            report.terminals,
            report.max_depth,
            por_report.states,
            saved,
            stats.bytes_per_state(),
            pack_ratio,
            kstates_per_sec,
            speedup,
            verdict_of(&report)
        );
        // The literal-R5 instance is *supposed* to find the paper's loss;
        // everything else must verify.
        if !literal_r5 && !report.verified() {
            unexpected.push(format!("{name}: {}", verdict_of(&report)));
        }
        json_rows.push(format!(
            "{{\"instance\": {}, \"states\": {}, \"terminals\": {}, \"max_depth\": {}, \
             \"por_states\": {}, \"bytes_per_state\": {:.1}, \"verdict\": {}, \
             \"expected_loss\": {}}}",
            json_string(name),
            report.states,
            report.terminals,
            report.max_depth,
            por_report.states,
            stats.bytes_per_state(),
            json_string(&verdict_of(&report)),
            literal_r5
        ));
    };

    // 1. line-2, one message.
    let g = gen::line(2);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 0, 1, 3, 0)];
    run("line-2, 1 message", g, s, e, false);

    // 2. line-3, two crossing messages.
    let g = gen::line(3);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 0, 2, 3, 0), enqueue(&mut s, 2, 0, 5, 1)];
    run("line-3, 2 crossing messages", g, s, e, false);

    // 3. line-3, same payload twice (merge hazard).
    let g = gen::line(3);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 0, 2, 7, 0), enqueue(&mut s, 0, 2, 7, 1)];
    run("line-3, same payload twice", g, s, e, false);

    // 4. line-3, colliding garbage in the middle.
    let g = gen::line(3);
    let mut s = clean_states(&g);
    s[1].slots[2].buf_e = Some(Message {
        payload: 7,
        last_hop: 0,
        color: Color(0),
        ghost: GhostId::Invalid(0),
    });
    let e = vec![enqueue(&mut s, 0, 2, 7, 0)];
    run("line-3, colliding invalid garbage", g, s, e, false);

    // 5. line-3, corrupted routing entry.
    let g = gen::line(3);
    let mut s = clean_states(&g);
    s[1].routing.parent[2] = 0;
    s[1].routing.dist[2] = 2;
    let e = vec![enqueue(&mut s, 0, 2, 4, 0)];
    run("line-3, corrupted table at middle node", g, s, e, false);

    // 6. triangle, two messages + garbage.
    let g = gen::ring(3);
    let mut s = clean_states(&g);
    s[2].slots[1].buf_r = Some(Message {
        payload: 1,
        last_hop: 2,
        color: Color(1),
        ghost: GhostId::Invalid(0),
    });
    let e = vec![enqueue(&mut s, 0, 1, 1, 0), enqueue(&mut s, 1, 0, 2, 1)];
    run("triangle, 2 messages + garbage", g, s, e, false);

    // 7. line-4 ("tree depth 3"), end-to-end message with a corrupted
    // table mid-path — the deeper regression instance of the CI gate.
    let g = gen::line(4);
    let mut s = clean_states(&g);
    s[2].routing.parent[3] = 1;
    s[2].routing.dist[3] = 3;
    let e = vec![enqueue(&mut s, 0, 3, 6, 0)];
    run("line-4 (tree depth 3), corrupted table", g, s, e, false);

    // 8. 4-ring, two far-apart messages (the POR and parallel-speedup
    // benchmark: activity at opposite edges commutes until they meet).
    let g = gen::ring(4);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 0, 1, 1, 0), enqueue(&mut s, 2, 3, 2, 1)];
    run("ring-4, 2 far-apart messages", g, s, e, false);

    // 9. line-5, two crossing messages — the larger memory instance the
    // packed frontier exists for: longer paths, more in-flight copies.
    let g = gen::line(5);
    let mut s = clean_states(&g);
    let e = vec![
        enqueue(&mut s, 0, 4, 3, 0),
        enqueue(&mut s, 4, 0, 5, 1),
        enqueue(&mut s, 2, 4, 1, 2),
    ];
    run("line-5, 3 messages (2 crossing)", g, s, e, false);

    // 10. caterpillar(3,2): 9 nodes, Δ = 4 — the wider-degree instance
    // (per-node state grows with Δ, exercising the codec's slot table).
    // One end-leg-to-end-leg message crossing the whole spine.
    let g = gen::caterpillar(3, 2);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 3, 8, 6, 0), enqueue(&mut s, 7, 4, 2, 1)];
    run("caterpillar(3,2), 2 leg-to-leg msgs", g, s, e, false);

    // 11. The literal-R5 counterexample.
    let g = gen::line(2);
    let mut s = clean_states(&g);
    let e = vec![enqueue(&mut s, 0, 1, 7, 0), enqueue(&mut s, 0, 1, 7, 1)];
    run("line-2, literal R5 (paper verbatim)", g, s, e, true);

    println!("\nhash-compacted explicit-state exploration; VERIFIED = no duplication,");
    println!("no misdelivery, no loss, caterpillar coverage, and delivery at every terminal.");
    println!("POR = distinct states under partial-order reduction (footprint independence).");
    println!("B/st = packed bytes/state, interning tables amortized; pack = unpacked (Arc-");
    println!("based, sharing-aware) bytes/state over packed — both reports cross-checked.");
    println!("kst/s = thousand distinct states/second; spdup = sequential/parallel wall time.");
    if let Some(path) = &json {
        let body = format!(
            "{{\n  \"instances\": [\n    {}\n  ],\n  \"mismatches\": {},\n  \"unexpected\": {}\n}}\n",
            json_rows.join(",\n    "),
            mismatches.len(),
            unexpected.len()
        );
        let result = if path == "-" {
            print!("{body}");
            Ok(())
        } else {
            std::fs::write(path, body)
        };
        if let Err(e) = result {
            eprintln!("ssmfp-check: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    if !mismatches.is_empty() || !unexpected.is_empty() {
        eprintln!("\nVERDICT MISMATCH:");
        for m in mismatches.iter().chain(&unexpected) {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
    if let Some(path) = counterexample {
        println!("\ncounterexample schedule for the literal-R5 loss (DESIGN.md §5):");
        for (i, step) in path.iter().enumerate() {
            println!("  {:>2}. {}", i + 1, step);
        }
    }
}
