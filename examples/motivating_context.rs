//! The paper's Fig. 1 motivating example: *program context matters*.
//!
//! On the paper's 4-qubit coupling map (edges Q0–Q1, Q0–Q2, Q1–Q3,
//! Q2–Q3) run:
//!
//! ```text
//! t  q[2];
//! cx q[0], q[3];
//! ```
//!
//! The CX needs a SWAP and there are four candidates: (Q0,Q1), (Q0,Q2),
//! (Q3,Q1), (Q3,Q2). The two touching Q2 conflict with the in-flight
//! `t q[2]` and must wait (Fig. 1c); a context-sensitive router picks a
//! SWAP on free qubits and starts it at cycle 0, in parallel with the T
//! (Fig. 1d).
//!
//! Run with: `cargo run --example motivating_context`

use codar_repro::arch::{CouplingGraph, Device};
use codar_repro::circuit::Circuit;
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let graph = CouplingGraph::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    let device = Device::from_graph("paper fig1 device", graph);
    let mut program = Circuit::new(4);
    program.t(2);
    program.cx(0, 3);

    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        ..CodarConfig::default()
    };
    let routed = CodarRouter::with_config(&device, config).route(
        &program,
        None,
        &mut RouterScratch::new(),
    )?;

    println!("paper Fig. 1 — impact of program context\n");
    println!("routed schedule (cycle: gate):");
    for (gate, start) in routed.circuit.gates().iter().zip(&routed.start_times) {
        println!("  t={start:>2}  {gate}");
    }
    println!("\nweighted depth: {}", routed.weighted_depth);

    let first_swap = routed
        .circuit
        .gates()
        .iter()
        .zip(&routed.start_times)
        .find(|(g, _)| g.kind == codar_repro::circuit::GateKind::Swap)
        .expect("routing cx(0,3) on a line inserts a SWAP");
    assert_eq!(*first_swap.1, 0, "the SWAP starts in parallel with the T");
    assert!(
        !first_swap.0.qubits.contains(&2),
        "the SWAP avoids the busy qubit Q2"
    );
    println!("=> the first SWAP starts at cycle 0 on free qubits, avoiding busy Q2 (Fig. 1d)");
    Ok(())
}
