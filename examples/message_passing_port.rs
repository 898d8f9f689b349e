//! The §4 open problem, live: SSMFP's forwarding core running over an
//! asynchronous message-passing network (FIFO channels, adversarial
//! scheduler) instead of shared memory — with the distance-vector routing
//! layer started from garbage estimates, garbage handshake messages
//! pre-loaded on the wires, and garbage in the buffers.
//!
//! Run with: `cargo run --release --example message_passing_port`

use ssmfp::mp::{MpConfig, PortNetwork};
use ssmfp::topology::gen;

fn main() {
    println!("SSMFP → message passing (three-way handshake port)\n");
    println!(
        "{:<34} | {:>5} | {:>12} | {:>5} | {:>5} | {:>10}",
        "scenario", "sent", "exactly-once", "lost", "dup", "steps"
    );
    let scenarios: [(&str, bool, usize, usize); 5] = [
        ("clean", false, 0, 0),
        ("DV from garbage", true, 0, 0),
        ("DV from garbage + 24 wire msgs", true, 24, 0),
        ("DV from garbage + 24 wire + 3 buf", true, 24, 3),
        ("DV from garbage + 12 wire + 2 buf", true, 12, 2),
    ];
    for (name, dv, wire, buffers) in scenarios {
        let graph = gen::grid(2, 3);
        let n = graph.n();
        let config = MpConfig {
            seed: 11,
            timeout_bias: 0.3,
        };
        let mut net = if dv {
            PortNetwork::new_dv(graph, config, true, wire, buffers)
        } else {
            PortNetwork::new(graph, config, wire, buffers)
        };
        let mut ghosts = Vec::new();
        for s in 0..n {
            for d in 0..n {
                if s != d {
                    ghosts.push(net.send(s, d, ((s + d) % 8) as u64));
                }
            }
        }
        let quiescent = net.run_to_quiescence(10_000_000);
        assert!(quiescent, "{name}: port must drain");
        let audit = net.audit();
        println!(
            "{:<34} | {:>5} | {:>12} | {:>5} | {:>5} | {:>10}",
            name,
            audit.generated,
            audit.exactly_once,
            audit.lost(),
            audit.duplicated(),
            net.net().steps()
        );
        assert_eq!(audit.exactly_once, ghosts.len() as u64, "{name}");
    }
    println!("\nok — the handshake port preserved exactly-once delivery in every tested schedule");
    println!("(empirical only: the paper's state-model → message-passing problem remains open)");
}
