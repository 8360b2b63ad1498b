//! End-to-end pipeline tests: OpenQASM source → IR → decomposition →
//! routing on every paper architecture → verification → QASM emission.

use codar_repro::arch::Device;
use codar_repro::benchmarks::corpus;
use codar_repro::circuit::decompose::decompose_three_qubit_gates;
use codar_repro::circuit::from_qasm::{circuit_from_source, circuit_to_qasm};
use codar_repro::router::sabre::reverse_traversal_mapping;
use codar_repro::router::verify::{check_coupling, check_equivalence};
use codar_repro::router::{CodarRouter, RouterScratch, SabreRouter};

#[test]
fn every_corpus_program_routes_on_every_architecture() {
    for (name, src) in corpus::all() {
        let circuit = corpus::load(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let routable = decompose_three_qubit_gates(&circuit);
        for device in Device::paper_architectures() {
            if routable.num_qubits() > device.num_qubits() {
                continue;
            }
            let mut scratch = RouterScratch::new();
            let initial = reverse_traversal_mapping(&routable, &device, 0, &mut scratch);
            let codar = CodarRouter::new(&device)
                .route(&routable, Some(&initial), &mut scratch)
                .unwrap_or_else(|e| panic!("codar {name} on {}: {e}", device.name()));
            let sabre = SabreRouter::new(&device)
                .route(&routable, Some(&initial), &mut scratch)
                .unwrap_or_else(|e| panic!("sabre {name} on {}: {e}", device.name()));
            for routed in [&codar, &sabre] {
                check_coupling(&routed.circuit, &device)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
                check_equivalence(&routable, routed)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", device.name()));
            }
        }
    }
}

#[test]
fn routed_circuit_survives_qasm_round_trip() {
    let circuit = corpus::load(corpus::QFT4_QASM).expect("embedded source parses");
    let device = Device::ibm_q20_tokyo();
    let routed = CodarRouter::new(&device)
        .route(&circuit, None, &mut RouterScratch::new())
        .expect("fits");
    let qasm = circuit_to_qasm(&routed.circuit).expect("emittable");
    let reparsed = circuit_from_source(&qasm).expect("round trip parses");
    assert_eq!(reparsed.gates(), routed.circuit.gates());
}

#[test]
fn suite_subset_full_pipeline() {
    // A representative slice of the 71-benchmark suite through both
    // routers with verification (the full sweep is the fig8 binary).
    let device = Device::ibm_q20_tokyo();
    let suite = codar_repro::benchmarks::full_suite();
    let names = [
        "qft_8", "adder_3", "ising_8", "random_6", "bv_7", "grover_4",
    ];
    for name in names {
        let entry = suite
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name} in suite"));
        let mut scratch = RouterScratch::new();
        let initial = reverse_traversal_mapping(&entry.circuit, &device, 1, &mut scratch);
        let codar = CodarRouter::new(&device)
            .route(&entry.circuit, Some(&initial), &mut scratch)
            .expect("fits");
        let sabre = SabreRouter::new(&device)
            .route(&entry.circuit, Some(&initial), &mut scratch)
            .expect("fits");
        for routed in [&codar, &sabre] {
            check_coupling(&routed.circuit, &device).expect("coupling");
            check_equivalence(&entry.circuit, routed).expect("equivalence");
            // Weighted depth of a routed circuit can never beat the
            // coupling-free lower bound of the original program.
            let tau = device.durations().clone();
            let lower =
                codar_repro::circuit::schedule::busy_time_lower_bound(&entry.circuit, |g| {
                    tau.of(g)
                });
            assert!(
                routed.weighted_depth >= lower,
                "{name}: {} < lower bound {lower}",
                routed.weighted_depth
            );
        }
    }
}

#[test]
fn whole_suite_is_loadable_and_sized() {
    let suite = codar_repro::benchmarks::full_suite();
    assert_eq!(suite.len(), 71);
    let total_gates: usize = suite.iter().map(|e| e.circuit.len()).sum();
    assert!(
        total_gates > 35_000,
        "suite totals only {total_gates} gates"
    );
    let largest = suite.iter().map(|e| e.circuit.len()).max().unwrap_or(0);
    assert!(largest >= 15_000, "largest benchmark only {largest} gates");
}

/// The three front ends — the batch engine, the daemon and the `codar`
/// CLI — compile a circuit through one pipeline, so under the same
/// seed they must agree on every routed byte: the routed QASM, the
/// weighted depth and the SWAP count.
#[test]
fn engine_daemon_and_cli_give_one_answer() {
    use codar_repro::arch::json::escape;
    use codar_repro::benchmarks::suite::SuiteEntry;
    use codar_repro::engine::{EngineConfig, SuiteRunner};
    use codar_repro::service::json::Json;
    use codar_repro::service::{Service, ServiceConfig};
    use std::process::Command;

    const SEED: u64 = 3;
    let names = ["toffoli", "qft4", "maj_adder", "ghz_broadcast"];
    let sources: Vec<(&str, &str)> = corpus::all()
        .into_iter()
        .filter(|(name, _)| names.contains(name))
        .collect();
    assert_eq!(sources.len(), names.len());
    let entries: Vec<SuiteEntry> = sources
        .iter()
        .map(|(name, src)| {
            let circuit = decompose_three_qubit_gates(&corpus::load(src).expect("parses"));
            SuiteEntry {
                name: name.to_string(),
                num_qubits: circuit.num_qubits(),
                circuit,
            }
        })
        .collect();
    let engine = SuiteRunner::new(EngineConfig {
        threads: 1,
        seed: SEED,
        keep_routed: true,
        ..EngineConfig::default()
    })
    .device(Device::ibm_q20_tokyo())
    .entries(entries)
    .run();
    assert!(engine.failures.is_empty(), "{:?}", engine.failures);
    let service = Service::start(ServiceConfig {
        seed: SEED,
        ..ServiceConfig::default()
    });
    let dir = std::env::temp_dir();
    let mut swaps_seen = 0;
    for (name, src) in &sources {
        let path = dir.join(format!(
            "codar-front-ends-{}-{name}.qasm",
            std::process::id()
        ));
        std::fs::write(&path, src).expect("write program");
        for router in ["codar", "sabre"] {
            let row = engine
                .summary
                .rows
                .iter()
                .find(|r| r.circuit == *name && r.variant == router)
                .unwrap_or_else(|| panic!("engine row for {name} under {router}"));
            let routed = row.routed.as_ref().expect("keep_routed");
            let engine_answer = (
                circuit_to_qasm(&routed.circuit).expect("emittable"),
                row.weighted_depth,
                row.swaps as u64,
            );

            let reply = service.handle_line(&format!(
                "{{\"type\":\"route\",\"device\":\"q20\",\"router\":\"{router}\",\"circuit\":{}}}",
                escape(src)
            ));
            let reply = Json::parse(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"));
            let field = |key: &str| reply.get(key).unwrap_or_else(|| panic!("{key}"));
            let daemon_answer = (
                field("qasm").as_str().expect("qasm").to_string(),
                field("weighted_depth").as_u64().expect("weighted_depth"),
                field("swaps").as_u64().expect("swaps"),
            );

            let output = Command::new(env!("CARGO_BIN_EXE_codar"))
                .arg("route")
                .arg(&path)
                .args([
                    "--device", "q20", "--router", router, "--seed", "3", "--emit",
                ])
                .output()
                .expect("spawn codar");
            assert!(
                output.status.success(),
                "codar route {name} --router {router}: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let stdout = String::from_utf8(output.stdout).expect("UTF-8");
            let stat = |label: &str| -> u64 {
                stdout
                    .lines()
                    .find_map(|line| line.trim().strip_prefix(label))
                    .unwrap_or_else(|| panic!("`{label}` in {stdout}"))
                    .trim()
                    .parse()
                    .expect("a count")
            };
            let (_, qasm) = stdout.split_once("\n\n").expect("--emit prints the QASM");
            let cli_answer = (
                qasm.strip_suffix('\n').expect("println").to_string(),
                stat("weighted depth:"),
                stat("swaps inserted:"),
            );

            assert_eq!(
                engine_answer, daemon_answer,
                "{name} under {router}: engine vs daemon"
            );
            assert_eq!(
                engine_answer, cli_answer,
                "{name} under {router}: engine vs CLI"
            );
            swaps_seen += engine_answer.2;
        }
        std::fs::remove_file(&path).expect("remove program");
    }
    assert!(swaps_seen > 0, "no program needed routing");
}

/// Register sizes whose total passes `usize::MAX` are a QASM error on
/// the CLI, not a wrapped qubit count that panics in `Circuit::push`.
#[test]
fn cli_refuses_register_totals_past_usize() {
    let path = std::env::temp_dir().join(format!("codar-overflow-{}.qasm", std::process::id()));
    std::fs::write(&path, "qreg a[18446744073709551615]; qreg b[2]; h b[0];").expect("write");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_codar"))
        .arg("route")
        .arg(&path)
        .output()
        .expect("spawn codar");
    std::fs::remove_file(&path).expect("remove program");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("semantic error: registers declare more than 18446744073709551615 qubits"),
        "{stderr}"
    );
}
