//! The §4 open problem, live: SSMFP's forwarding core running over an
//! asynchronous message-passing network (FIFO channels, adversarial
//! scheduler) instead of shared memory — with corrupted routing tables,
//! garbage handshake messages pre-loaded on the wires, and garbage in the
//! buffers.
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
    let scenarios: [(&str, u8, usize, usize); 5] = [
        ("clean", 0, 0, 0),
        ("corrupted tables (self-repair)", 1, 0, 0),
        ("corrupted + 24 wire garbage msgs", 1, 24, 0),
        ("corrupted + wire + buffer garbage", 1, 24, 3),
        ("distance-vector layer, garbage init", 2, 12, 2),
    ];
    for (name, mode, wire, buffers) in scenarios {
        let graph = gen::grid(2, 3);
        let n = graph.n();
        let config = MpConfig {
            seed: 11,
            timeout_bias: 0.3,
        };
        let mut net = match mode {
            0 => PortNetwork::new(graph, config, false, 0, wire, buffers),
            1 => PortNetwork::new(graph, config, true, 10, wire, buffers),
            _ => PortNetwork::new_dv(graph, config, true, wire, buffers),
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
