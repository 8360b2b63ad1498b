//! Quickstart: parse an OpenQASM program, route it onto IBM Q20 Tokyo
//! with CODAR, and inspect the result.
//!
//! Run with: `cargo run --example quickstart`

use codar_repro::arch::Device;
use codar_repro::circuit::from_qasm::{circuit_from_source, circuit_to_qasm};
use codar_repro::router::{CodarRouter, RouterScratch, SabreRouter};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An OpenQASM 2.0 program: a 4-qubit QFT.
    let source = r#"
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[4];
        h q[0];
        cu1(pi/2) q[1], q[0];
        h q[1];
        cu1(pi/4) q[2], q[0];
        cu1(pi/2) q[2], q[1];
        h q[2];
        cu1(pi/8) q[3], q[0];
        cu1(pi/4) q[3], q[1];
        cu1(pi/2) q[3], q[2];
        h q[3];
    "#;
    let circuit = circuit_from_source(source)?;
    println!(
        "input: {} gates on {} qubits",
        circuit.len(),
        circuit.num_qubits()
    );

    // 2. Pick a device model (maQAM): IBM Q20 Tokyo with the paper's
    //    superconducting durations (1q = 1 cycle, 2q = 2, SWAP = 6).
    let device = Device::ibm_q20_tokyo();
    println!("device: {device}");

    // 3. Route with CODAR and with the SABRE baseline, each from its
    //    own initial placement (`None`), sharing one scratch.
    let mut scratch = RouterScratch::new();
    let codar = CodarRouter::new(&device).route(&circuit, None, &mut scratch)?;
    let sabre = SabreRouter::new(&device).route(&circuit, None, &mut scratch)?;
    println!("codar: {codar}");
    println!("sabre: {sabre}");
    println!(
        "speedup (sabre WD / codar WD): {:.3}",
        sabre.weighted_depth as f64 / codar.weighted_depth as f64
    );

    // 4. The routed circuit is valid OpenQASM again.
    let qasm = circuit_to_qasm(&codar.circuit)?;
    println!("\nfirst lines of the routed program:");
    for line in qasm.lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
