//! The paper's Fig. 2 motivating example: *gate durations matter*.
//!
//! 4-qubit QFT prefix on the paper's coupling map (edges Q0–Q1, Q0–Q2,
//! Q1–Q3, Q2–Q3):
//!
//! ```text
//! t  q[1];        // T takes 1 cycle, finishes at cycle 1
//! cx q[0], q[2];  // CX takes 2 cycles, finishes at cycle 2
//! cx q[0], q[3];  // needs routing
//! ```
//!
//! A duration-unaware mapper assumes both predecessors end at the same
//! time, so every candidate SWAP waits equally. Duration-aware CODAR
//! knows Q1 frees at cycle 1 while Q0/Q2 are busy until 2, so
//! `SWAP q3,q1` can start at cycle 1 (Fig. 2d).
//!
//! Run with: `cargo run --example motivating_duration`

use codar_repro::arch::Device;
use codar_repro::circuit::{Circuit, GateKind};
use codar_repro::router::{CodarConfig, CodarRouter, InitialMapping, RouterScratch};

fn route(duration_aware: bool) -> codar_repro::router::RoutedCircuit {
    let mut program = Circuit::new(4);
    program.t(1);
    program.cx(0, 2);
    program.cx(0, 3);
    // The figure's device couples (0,1),(0,2),(1,3),(2,3): `cx q0,q2`
    // is direct and only `cx q0,q3` (distance 2) needs routing.
    let graph = codar_repro::arch::CouplingGraph::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
    let device = Device::from_graph("fig2 device", graph);
    let config = CodarConfig {
        initial_mapping: InitialMapping::Identity,
        enable_duration_awareness: duration_aware,
        ..CodarConfig::default()
    };
    CodarRouter::with_config(&device, config)
        .route(&program, None, &mut RouterScratch::new())
        .expect("fits the device")
}

fn main() {
    println!("paper Fig. 2 — impact of gate duration difference\n");
    for (label, aware) in [
        ("duration-aware (CODAR)", true),
        ("duration-unaware", false),
    ] {
        let routed = route(aware);
        println!("{label}:");
        for (gate, start) in routed.circuit.gates().iter().zip(&routed.start_times) {
            println!("  t={start:>2}  {gate}");
        }
        println!("  weighted depth: {}\n", routed.weighted_depth);
    }
    let aware = route(true);
    let swap_start = aware
        .circuit
        .gates()
        .iter()
        .zip(&aware.start_times)
        .find(|(g, _)| g.kind == GateKind::Swap)
        .map(|(_, &s)| s)
        .expect("a SWAP is inserted");
    assert_eq!(
        swap_start, 1,
        "duration-aware CODAR starts the SWAP at cycle 1 (paper Fig. 2d)"
    );
    println!(
        "=> with durations tracked, the SWAP starts at cycle {swap_start} \
         (right after the T frees q1, while the CX still runs)"
    );
}
