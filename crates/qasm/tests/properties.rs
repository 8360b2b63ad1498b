//! Property-based tests for the OpenQASM frontend.

mod common;

use codar_qasm::{lexer, parse, parse_and_flatten};
use common::{op_sequence_source, padded_pair, parenthesized_pair, registers_source};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer never panics, whatever bytes arrive.
    #[test]
    fn lexer_total_on_arbitrary_input(input in ".*") {
        let _ = lexer::lex(&input);
    }

    /// The parser never panics on arbitrary input either.
    #[test]
    fn parser_total_on_arbitrary_input(input in ".*") {
        let _ = parse(&input);
    }

    /// Lexing is insensitive to inserted whitespace between tokens.
    #[test]
    fn whitespace_insensitivity(pad in "[ \t\n]{0,4}") {
        let (tight, padded) = padded_pair(&pad);
        let a = parse_and_flatten(&tight);
        let b = parse_and_flatten(&padded);
        prop_assert_eq!(a.unwrap().ops, b.unwrap().ops);
    }

    /// Generated register declarations always round-trip.
    #[test]
    fn register_sizes_round_trip(sizes in proptest::collection::vec(1u64..30, 1..5)) {
        let flat = parse_and_flatten(&registers_source(&sizes)).expect("valid declarations");
        prop_assert_eq!(flat.num_qubits as u64, sizes.iter().sum::<u64>());
    }

    /// Parameter expressions evaluate consistently however they are
    /// parenthesized.
    #[test]
    fn expression_parenthesization(a in -5.0f64..5.0, b in -5.0f64..5.0, c in 0.1f64..5.0) {
        let (minimal, full) = parenthesized_pair(a, b, c);
        let flat1 = parse_and_flatten(&minimal).expect("parses");
        let flat2 = parse_and_flatten(&full).expect("parses");
        let p1 = match &flat1.ops[0] {
            codar_qasm::FlatOp::Gate { params, .. } => params[0],
            other => panic!("unexpected {other:?}"),
        };
        let p2 = match &flat2.ops[0] {
            codar_qasm::FlatOp::Gate { params, .. } => params[0],
            other => panic!("unexpected {other:?}"),
        };
        prop_assert!((p1 - p2).abs() < 1e-12);
        prop_assert!((p1 - (a + b / c)).abs() < 1e-9);
    }

    /// Emitted programs always re-parse to the same operations
    /// (writer/parser round trip over generated gate sequences).
    #[test]
    fn writer_round_trip(ops in proptest::collection::vec((0u8..6, 0usize..4, 0usize..4, -3.0f64..3.0), 1..30)) {
        let src = op_sequence_source(&ops);
        let flat = parse_and_flatten(&src).expect("generated source is valid");
        let emitted = codar_qasm::writer::write(&flat);
        let reflat = parse_and_flatten(&emitted).expect("emitted source is valid");
        prop_assert_eq!(flat.ops, reflat.ops);
    }
}
