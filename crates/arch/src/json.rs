//! The workspace's one JSON reader and string escaper.
//!
//! The workspace has no crates.io access, so it carries its own JSON
//! layer: a strict recursive-descent parser into [`Json`] (objects,
//! arrays, strings with full escape handling, finite numbers,
//! booleans, `null`) and the [`escape`] helper. The parser reads the
//! daemon's protocol requests and calibration documents
//! ([`crate::CalibrationSnapshot::from_json`]); output (replies,
//! summaries, snapshots) is hand-formatted in a fixed field order so
//! byte-level golden tests stay stable, with [`escape`] for every
//! string.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

/// Maximum container nesting the parser accepts. Recursion depth is
/// bounded by input depth, so an unbounded parser could be driven to a
/// stack overflow (a process abort) by one hostile request line.
const MAX_DEPTH: usize = 128;

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    /// Bounded to 2^53 so every accepted value is exactly
    /// representable in the `f64` the number was parsed into — larger
    /// inputs would silently round and echo back a *different* id.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < EXACT => Some(*x as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

/// Parses a number with the exact JSON grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
/// Forms Rust's `f64` parser would accept but JSON does not (`+5`,
/// `.5`, `1.`, `01`, `1e`) are rejected here.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let err = |what: &str| format!("{what} in number at byte {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                return Err(err("leading zero"));
            }
        }
        Some(b'1'..=b'9') => {
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
        }
        _ => return Err(err("missing integer part")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(err("missing fraction digits"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            return Err(err("missing exponent digits"));
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let v: f64 = text
        .parse()
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))?;
    if !v.is_finite() {
        return Err(format!("number `{text}` at byte {start} overflows f64"));
    }
    Ok(Json::Num(v))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        // Combine surrogate pairs; lone or mispaired
                        // surrogates degrade to U+FFFD (requests are
                        // not trusted input). The second escape is
                        // consumed only when it really is a low
                        // surrogate, so `\ud800A` yields
                        // "\u{FFFD}A" rather than swallowing the `A`.
                        let c = if (0xD800..0xDC00).contains(&unit) {
                            match peek_low_surrogate(bytes, *pos) {
                                Some(low) => {
                                    *pos += 6; // the `\uXXXX` just peeked
                                    let combined = 0x10000
                                        + ((unit as u32 - 0xD800) << 10)
                                        + (low as u32 - 0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                }
                                None => '\u{FFFD}',
                            }
                        } else {
                            char::from_u32(unit as u32).unwrap_or('\u{FFFD}')
                        };
                        out.push(c);
                        continue; // parse_hex4 already advanced pos
                    }
                    _ => return Err(format!("invalid escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("unescaped control byte at {pos}", pos = *pos));
            }
            Some(_) => {
                // Copy the contiguous run up to the next quote, escape,
                // or control byte in one shot (re-validating the whole
                // remaining input per character would be O(n²)). Run
                // boundaries are ASCII bytes, so they always fall on
                // UTF-8 char boundaries of the original &str input.
                let run_start = *pos;
                while let Some(&b) = bytes.get(*pos) {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    *pos += 1;
                }
                let run =
                    std::str::from_utf8(&bytes[run_start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

/// Reads the `\uXXXX` escape at `pos` without advancing, returning its
/// value only when it is a low surrogate — the only unit that may
/// legally follow a high surrogate. Anything else (no escape, a
/// malformed escape, a non-surrogate, another high surrogate) returns
/// `None` and is left for the main string loop to handle on its own.
fn peek_low_surrogate(bytes: &[u8], pos: usize) -> Option<u16> {
    if bytes.get(pos) != Some(&b'\\') || bytes.get(pos + 1) != Some(&b'u') {
        return None;
    }
    let mut p = pos + 2;
    let v = parse_hex4(bytes, &mut p).ok()?;
    (0xDC00..=0xDFFF).contains(&v).then_some(v)
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u16, String> {
    let end = *pos + 4;
    if end > bytes.len() {
        return Err("truncated \\u escape".into());
    }
    let text = std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?;
    // Exactly four hex digits: `from_str_radix` alone accepts a sign.
    if !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("bad \\u escape `{text}`"));
    }
    let v = u16::from_str_radix(text, 16).map_err(|_| format!("bad \\u escape `{text}`"))?;
    *pos = end;
    Ok(v)
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters, so NDJSON payloads
/// containing QASM (newlines, quotes) stay one line each.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "c"}, null], "d": true}"#).unwrap();
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[1].get("b").and_then(Json::as_str), Some("c"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        for original in [
            "line1\nline2\t\"quoted\" back\\slash",
            "unicode: π ψ 😀",
            "control:\u{0001}\u{001f}",
            "",
        ] {
            let literal = escape(original);
            let parsed = Json::parse(&literal).unwrap();
            assert_eq!(parsed.as_str(), Some(original), "via {literal}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".into())
        );
        // Lone surrogate degrades to the replacement character.
        assert_eq!(
            Json::parse(r#""\ud83d!""#).unwrap(),
            Json::Str("\u{FFFD}!".into())
        );
    }

    #[test]
    fn mispaired_surrogates_degrade_without_panicking() {
        // High surrogate followed by a non-surrogate escape: the
        // second escape must survive as its own character (this input
        // overflowed u32 arithmetic and panicked debug builds before
        // the pairing check was added).
        assert_eq!(
            Json::parse(r#""\ud800\u0041""#).unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        // Same with a literal (non-escape) character after the high
        // surrogate.
        assert_eq!(
            Json::parse(r#""\ud800A""#).unwrap(),
            Json::Str("\u{FFFD}A".into())
        );
        // High surrogate followed by another high surrogate that goes
        // on to pair correctly with the escape after it.
        assert_eq!(
            Json::parse(r#""\ud800\ud83d\ude00""#).unwrap(),
            Json::Str("\u{FFFD}😀".into())
        );
        // High surrogate at end of string, and a lone low surrogate.
        assert_eq!(
            Json::parse(r#""\ud800""#).unwrap(),
            Json::Str("\u{FFFD}".into())
        );
        assert_eq!(
            Json::parse(r#""\udc00x""#).unwrap(),
            Json::Str("\u{FFFD}x".into())
        );
        // A malformed second escape is still a parse error, not a
        // silent replacement.
        assert!(Json::parse(r#""\ud800\uZZZZ""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "\"open",
            "{'a':1}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            "\"\u{0001}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn rejects_signed_unicode_escapes_and_overflowing_numbers() {
        for (bad, needle) in [
            (r#""\u+041""#, "bad \\u escape"),
            (r#""\uBEEG""#, "bad \\u escape"),
            ("1e999", "overflows"),
            ("-1e999", "overflows"),
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains(needle), "`{bad}` gave `{err}`");
        }
        // Underflow to a denormal or zero is not an overflow.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
        assert_eq!(Json::parse("5e-324").unwrap().as_f64(), Some(5e-324));
    }

    #[test]
    fn numeric_accessors_validate() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7.5").unwrap().as_f64(), Some(7.5));
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
        // Values that cannot round-trip exactly through f64 are
        // rejected rather than silently rounded.
        assert_eq!(
            Json::parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        assert_eq!(Json::parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).expect_err("must not abort");
        assert!(err.contains("nesting"), "{err}");
        // Depths inside the cap still parse.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn get_on_non_objects_is_none() {
        assert_eq!(Json::parse("[1]").unwrap().get("a"), None);
        assert_eq!(Json::parse("1").unwrap().get("a"), None);
    }
}
