//! Program-text generators shared by the frontend's property tests.

/// The whitespace-insensitivity pair: one program written tight and
/// with `pad` between every token.
pub fn padded_pair(pad: &str) -> (String, String) {
    let header = "OPENQASM 2.0;include \"qelib1.inc\";";
    let tight = format!("{header}qreg q[3];creg c[3];h q[0];cx q[0],q[1];");
    let padded =
        format!("{header}{pad}qreg q[3];{pad}creg c[3];{pad}h{pad} q[0];{pad}cx q[0],{pad}q[1];");
    (tight, padded)
}

/// One `qreg r{i}[size]` declaration per entry of `sizes`.
pub fn registers_source(sizes: &[u64]) -> String {
    let mut src = String::from("OPENQASM 2.0;\n");
    for (i, s) in sizes.iter().enumerate() {
        src.push_str(&format!("qreg r{i}[{s}];\n"));
    }
    src
}

/// `rz(a + b / c)` written with minimal and with full parentheses.
pub fn parenthesized_pair(a: f64, b: f64, c: f64) -> (String, String) {
    (
        format!("include \"qelib1.inc\"; qreg q[1]; rz({a} + {b} / {c}) q[0];"),
        format!("include \"qelib1.inc\"; qreg q[1]; rz(({a}) + (({b}) / ({c}))) q[0];"),
    )
}

/// A 4-qubit program of `h`/`t`/`rz`/`cx`/`measure`/`barrier`
/// statements, one per `(kind, a, b, angle)`; `b` is nudged off `a` so
/// every two-qubit operand pair is distinct.
pub fn op_sequence_source(ops: &[(u8, usize, usize, f64)]) -> String {
    let mut src = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n");
    for &(kind, a, b, angle) in ops {
        let b = if a == b { (a + 1) % 4 } else { b };
        match kind {
            0 => src.push_str(&format!("h q[{a}];\n")),
            1 => src.push_str(&format!("t q[{a}];\n")),
            2 => src.push_str(&format!("rz({angle}) q[{a}];\n")),
            3 => src.push_str(&format!("cx q[{a}], q[{b}];\n")),
            4 => src.push_str(&format!("measure q[{a}] -> c[{a}];\n")),
            _ => src.push_str(&format!("barrier q[{a}], q[{b}];\n")),
        }
    }
    src
}
