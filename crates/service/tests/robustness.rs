//! Protocol robustness: the hostile NDJSON corpus.
//!
//! `tests/fixtures/hostile.ndjson` is a checked-in file of adversarial
//! request lines — deep nesting, mispaired surrogate escapes, huge and
//! malformed numbers, truncated frames, raw control characters,
//! oversized keys, huge declared registers. Replayed against the real `coded --stdin` binary,
//! the daemon must (a) never panic or crash, nor reach a caught worker
//! panic (`internal error`), (b) emit exactly one well-formed JSON
//! reply per line, (c) reply deterministically, and (d) stay within a
//! fixed address-space cap however large the registers a line declares.
//! (The corpus is valid UTF-8 by construction: the line reader
//! terminates the stream on invalid UTF-8 before any request parsing
//! runs, which is transport framing, not protocol handling.)

use codar_service::json::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hostile.ndjson")
}

fn replay() -> String {
    let corpus = std::fs::File::open(corpus_path()).expect("hostile corpus fixture");
    let output = Command::new(env!("CARGO_BIN_EXE_coded"))
        .arg("--stdin")
        .stdin(Stdio::from(corpus))
        .output()
        .expect("spawn coded");
    assert!(
        output.status.success(),
        "coded --stdin crashed on the hostile corpus: {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("replies are UTF-8")
}

#[test]
fn hostile_corpus_gets_one_well_formed_error_reply_per_line() {
    let corpus = std::fs::read_to_string(corpus_path()).expect("read corpus");
    let requests: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(requests.len() >= 30, "corpus shrank to {}", requests.len());

    let replies = replay();
    let reply_lines: Vec<&str> = replies.lines().collect();
    assert_eq!(
        reply_lines.len(),
        requests.len(),
        "exactly one reply per corpus line"
    );
    for (request, reply) in requests.iter().zip(&reply_lines) {
        let parsed = Json::parse(reply)
            .unwrap_or_else(|e| panic!("reply to `{request}` is not JSON ({e}): {reply}"));
        let status = parsed.get("status").and_then(Json::as_str);
        assert!(
            status.is_some(),
            "reply to `{request}` lacks a status: {reply}"
        );
        assert!(
            !reply.contains("internal error"),
            "hostile line `{request}` reached a panic: {reply}"
        );
        // Every corpus line is hostile; none may succeed as a route.
        assert_ne!(
            parsed.get("type").and_then(Json::as_str),
            Some("route"),
            "hostile line `{request}` routed successfully: {reply}"
        );
    }

    // Deterministic: the same corpus replays to the same bytes, up to
    // measurement normalization (the corpus probes `"hist":true`, whose
    // latency sums and bucket rows are wall-clock; everything decided —
    // statuses, counts, echoes, field order — stays byte-checked).
    let normalized = |text: &str| -> String {
        text.lines()
            .map(codar_service::fuzz::normalize_reply)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        normalized(&replies),
        normalized(&replay()),
        "hostile replies diverged across runs"
    );
}

/// The corpus line whose calibration snapshot is a valid object nesting
/// arrays 200 deep reaches the document parser's nesting cap (the
/// request line itself nests only one level).
#[test]
fn deep_calibration_snapshot_hits_the_nesting_cap() {
    let corpus = std::fs::read_to_string(corpus_path()).expect("read corpus");
    let deep = format!("\\\"deep\\\":{}", "[".repeat(200));
    let requests: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    let line = requests
        .iter()
        .position(|request| request.contains(&deep))
        .expect("the corpus has the 200-deep calibration snapshot");
    let replies = replay();
    let reply = replies.lines().nth(line).expect("one reply per line");
    assert!(
        reply.contains("nesting deeper than 128 levels"),
        "reply to the 200-deep snapshot: {reply}"
    );
}

/// Barriers that name one qubit twice (`barrier q[0],q[0]`, or a whole
/// register next to one of its own qubits) are rejected in QASM
/// lowering with the error `cx q[0],q[0]` gets, before any router,
/// whose circuit DAG assumes distinct operands, sees them.
#[test]
fn repeated_barrier_operands_get_the_repeated_operand_error() {
    let corpus = std::fs::read_to_string(corpus_path()).expect("read corpus");
    let requests: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    let replies = replay();
    let replies: Vec<&str> = replies.lines().collect();
    let barriers: Vec<usize> = (0..requests.len())
        .filter(|&i| requests[i].contains("barrier q"))
        .collect();
    assert_eq!(barriers.len(), 2, "the corpus has both barrier lines");
    for i in barriers {
        assert_eq!(
            replies[i],
            "{\"type\":\"error\",\"status\":\"error\",\"error\":\"QASM error: semantic error: \
             gate `barrier` applied with repeated qubit operand\"}",
            "reply to `{}`",
            requests[i]
        );
    }
}

/// Route lines declaring 100M-qubit registers (`barrier big;`, `h big;`,
/// `measure big -> c;`) get the fit error from a check on the parsed
/// program, before lowering could expand a whole-register statement to
/// one operand per declared qubit. Replayed under a 1 GiB address-space
/// cap, the daemon still answers every line. The register total
/// saturates: a total past `usize::MAX`, which lowering would wrap into
/// a 1-qubit circuit and then panic on, is refused the same way.
#[test]
fn huge_registers_get_the_fit_error_before_lowering() {
    let corpus = std::fs::read_to_string(corpus_path()).expect("read corpus");
    let huge: Vec<&str> = corpus
        .lines()
        .filter(|request| request.contains("qreg big["))
        .collect();
    assert_eq!(huge.len(), 4, "the corpus has the four huge-register lines");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg("ulimit -v 1048576 && exec \"$0\" --stdin")
        .arg(env!("CARGO_BIN_EXE_coded"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coded under a 1 GiB cap");
    let input = format!("{}\n", huge.join("\n"));
    std::io::Write::write_all(&mut child.stdin.take().expect("stdin"), input.as_bytes())
        .expect("write requests");
    let output = child.wait_with_output().expect("coded exits");
    assert!(
        output.status.success(),
        "coded failed under the cap: {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let replies = String::from_utf8(output.stdout).expect("replies are UTF-8");
    let replies: Vec<&str> = replies.lines().collect();
    assert_eq!(replies.len(), huge.len(), "one reply per line");
    for (request, reply) in huge.iter().zip(replies) {
        let declared = if request.contains("18446744073709551615") {
            "18446744073709551615"
        } else {
            "100000000"
        };
        assert_eq!(
            reply,
            format!(
                "{{\"type\":\"error\",\"status\":\"error\",\"error\":\"circuit uses {declared} \
                 qubits but IBM Q20 Tokyo has 20\"}}"
            ),
            "reply to `{request}`"
        );
    }
}
