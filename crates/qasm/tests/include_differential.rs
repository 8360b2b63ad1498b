//! `include "qelib1.inc";` lowers nothing; this proves that equal to
//! lowering the library itself.
//!
//! The oracle replaces every `qelib1.inc` include statement with the
//! gate definitions parsed from [`QELIB1`], in place, and lowers the
//! result. That is what the include did when it registered the
//! library. Both sides must return the same [`FlatProgram`] (compared
//! through `Debug`, so NaN and signed-zero parameters compare by their
//! bits) or the same error kind and message, on the benchmark suite,
//! the embedded corpus, the fuzzers' QASM, the property-test generators
//! and hand-written adversarial programs.

mod common;

use codar_benchmarks::{corpus, suite};
use codar_circuit::from_qasm::circuit_to_qasm;
use codar_qasm::ast::Statement;
use codar_qasm::generate::{random_source, GeneratorConfig};
use codar_qasm::semantic::{flatten, QELIB1};
use codar_qasm::{parse, parse_and_flatten, FlatProgram, QasmError};
use codar_service::fuzz::{generate_corpus, FuzzConfig, Grammar};
use codar_service::Request;
use common::{op_sequence_source, padded_pair, parenthesized_pair, registers_source};
use proptest::prelude::*;

/// The old lowering: each `qelib1.inc` include spliced out for the
/// library's own definitions.
fn spliced_library(source: &str) -> Result<FlatProgram, QasmError> {
    let mut program = parse(source)?;
    let library = parse(QELIB1).expect("the library parses").statements;
    program.statements = program
        .statements
        .into_iter()
        .flat_map(|stmt| match stmt {
            Statement::Include(file) if file == "qelib1.inc" => library.clone(),
            other => vec![other],
        })
        .collect();
    flatten(&program)
}

fn outcome(result: Result<FlatProgram, QasmError>) -> Result<String, String> {
    result
        .map(|flat| format!("{flat:?}"))
        .map_err(|e| format!("{:?}: {}", e.kind(), e.message()))
}

/// Asserts both lowerings agree on `source`; returns whether it lowered.
fn assert_agrees(source: &str) -> bool {
    let fast = outcome(parse_and_flatten(source));
    let oracle = outcome(spliced_library(source));
    assert_eq!(fast, oracle, "lowerings differ on:\n{source}");
    fast.is_ok()
}

#[test]
fn suite_and_corpus_agree() {
    let mut texts: Vec<String> = corpus::all()
        .into_iter()
        .map(|(_, src)| src.to_string())
        .collect();
    for entry in suite::full_suite().iter().chain(&suite::fidelity_suite()) {
        texts.push(circuit_to_qasm(&entry.circuit).expect("suite circuits serialize"));
    }
    assert!(texts.len() > 70);
    for text in &texts {
        assert!(text.contains("include \"qelib1.inc\";"));
        assert!(assert_agrees(text));
    }
}

#[test]
fn generated_skeletons_and_their_prefixes_agree() {
    let config = GeneratorConfig::default();
    let mut statements = 0;
    for seed in 0..300 {
        let source = random_source(seed, &config);
        assert!(assert_agrees(&source));
        // Every statement-boundary prefix, so the include also meets
        // programs that stop right after it.
        for (at, _) in source.match_indices(';') {
            assert_agrees(&source[..=at]);
            statements += 1;
        }
    }
    assert!(statements > 3000);
}

#[test]
fn fuzz_qasm_grammar_agrees() {
    let config = FuzzConfig {
        seed: 17,
        iterations: 3000,
        grammars: vec![Grammar::Qasm],
        stats_every: 0,
    };
    let (mut lowered, mut rejected) = (0, 0);
    for line in generate_corpus(&config) {
        if let Ok(Request::Route { qasm, .. }) = Request::parse_line(&line) {
            if assert_agrees(&qasm) {
                lowered += 1;
            } else {
                rejected += 1;
            }
        }
    }
    // The grammar mutates valid programs, so both outcomes must occur.
    assert!(
        lowered > 100 && rejected > 100,
        "{lowered} lowered, {rejected} rejected"
    );
}

/// Programs written to catch a library that was *not* inert: user gates
/// and opaques shadowing library names on either side of the include,
/// repeated and late includes, and programs the include does not reach.
#[test]
fn adversarial_programs_agree() {
    const HEADER: &str = "OPENQASM 2.0; include \"qelib1.inc\";";
    let programs = [
        // User definitions of library names, before and after the include.
        "OPENQASM 2.0; gate h a { x a; } include \"qelib1.inc\"; qreg q[2]; h q[0];".to_string(),
        format!("{HEADER} gate h a {{ x a; }} qreg q[2]; h q[0];"),
        "gate cx a,b { CX b,a; } include \"qelib1.inc\"; qreg q[2]; cx q[0],q[1];".to_string(),
        format!("{HEADER} gate cx a,b {{ CX b,a; }} qreg q[2]; cx q[0],q[1];"),
        "opaque swap a,b; include \"qelib1.inc\"; qreg q[2]; swap q[0],q[1];".to_string(),
        format!("{HEADER} opaque swap a,b; qreg q[2]; swap q[0],q[1];"),
        format!("{HEADER} gate h a,b {{ CX a,b; }} qreg q[2]; h q[0],q[1];"),
        format!("{HEADER} gate rz a {{ x a; }} qreg q[1]; rz q[0];"),
        format!("{HEADER} gate u0 a {{ x a; }} qreg q[1]; u0(0.5) q[0]; u0 q[0];"),
        // Repeated and late includes.
        format!("{HEADER} include \"qelib1.inc\"; qreg q[2]; h q[0]; cx q[0],q[1];"),
        "qreg q[3]; h q[0]; cx q[0],q[1]; include \"qelib1.inc\"; ccx q[0],q[1],q[2];".to_string(),
        "qreg q[2]; creg c[2]; h q; measure q -> c; include \"qelib1.inc\";".to_string(),
        // No include at all: library names still lower as primitives.
        "OPENQASM 2.0; qreg q[3]; h q[0]; cx q[0],q[1]; cswap q[0],q[1],q[2];".to_string(),
        "qreg q[2]; U(0,0,pi) q[0]; CX q[0],q[1];".to_string(),
        // User gates whose bodies call library names.
        format!(
            "{HEADER} qreg q[3]; gate bell a,b {{ h a; cx a,b; }} \
             gate ghz a,b,c {{ bell a,b; cx b,c; barrier a,b,c; }} ghz q[0],q[1],q[2];"
        ),
        format!(
            "{HEADER} qreg q[2]; gate k(t) a,b {{ rz(t/2) a; crz(-t) a,b; u0(t) b; }} \
             k(pi) q[0],q[1]; k(0.25) q;"
        ),
        "gate bell a,b { h a; cx a,b; } include \"qelib1.inc\"; qreg q[2]; bell q[0],q[1];"
            .to_string(),
        format!("{HEADER} qreg q[2]; creg c[1]; gate g a {{ ccx a; }} if (c == 1) g q[0];"),
        format!("{HEADER} qreg q[1]; gate g a {{ nosuch a; }} g q[0];"),
        format!("{HEADER} qreg q[1]; gate g(t) a {{ rz(s) a; }} g(1) q[0];"),
        format!("{HEADER} qreg q[2]; gate g a {{ h b; }} g q[0];"),
        format!("{HEADER} qreg q[1]; gate g a {{ g a; }} g q[0];"),
        // Includes that are not the library.
        "include \"other.inc\"; qreg q[1]; h q[0];".to_string(),
        format!("{HEADER} include \"other.inc\"; qreg q[1];"),
        "include \"qelib1.inc \"; qreg q[1];".to_string(),
        // Syntax errors around the include.
        "include \"qelib1.inc\" qreg q[1];".to_string(),
        "include qelib1.inc; qreg q[1];".to_string(),
    ];
    let lowered = programs.iter().filter(|p| assert_agrees(p)).count();
    assert!(
        lowered >= 10 && lowered < programs.len(),
        "{lowered} lowered"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn padded_programs_agree(pad in "[ \t\n]{0,4}") {
        let (tight, padded) = padded_pair(&pad);
        prop_assert!(assert_agrees(&tight) && assert_agrees(&padded));
    }

    #[test]
    fn register_declarations_agree(sizes in proptest::collection::vec(1u64..30, 1..5)) {
        prop_assert!(assert_agrees(&registers_source(&sizes)));
    }

    #[test]
    fn parameter_expressions_agree(a in -5.0f64..5.0, b in -5.0f64..5.0, c in -1.0f64..5.0) {
        let (minimal, full) = parenthesized_pair(a, b, c);
        prop_assert!(assert_agrees(&minimal) && assert_agrees(&full));
    }

    #[test]
    fn op_sequences_agree(ops in proptest::collection::vec((0u8..6, 0usize..4, 0usize..4, -3.0f64..3.0), 1..30)) {
        prop_assert!(assert_agrees(&op_sequence_source(&ops)));
    }
}
