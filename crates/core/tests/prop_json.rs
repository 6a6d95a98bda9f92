//! Seeded property tests for the configuration JSON parser: serializer-free
//! round-trips via generated documents and robustness against mutations.

use sledge_core::{parse_json, Json};
use sledge_testkit::{cases, Rng};

/// Serialize a Json value back to text (test-local; the runtime only
/// parses).
fn to_text(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n:?}")
            }
        }
        Json::String(s) => format!(
            "\"{}\"",
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    '\r' => "\\r".chars().collect(),
                    '\t' => "\\t".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect::<String>()
        ),
        Json::Array(items) => format!(
            "[{}]",
            items.iter().map(to_text).collect::<Vec<_>>().join(",")
        ),
        Json::Object(map) => format!(
            "{{{}}}",
            map.iter()
                .map(|(k, v)| format!("{}:{}", to_text(&Json::String(k.clone())), to_text(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

/// `lo..hi` characters drawn from `alphabet`.
fn text(rng: &mut Rng, alphabet: &[u8], lo: usize, hi: usize) -> String {
    rng.vec(lo, hi, |r| *r.pick(alphabet) as char)
        .into_iter()
        .collect()
}

/// Every printable ASCII character, space to `~`.
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

/// A random document nested at most `depth` containers deep.
fn json(rng: &mut Rng, depth: u32) -> Json {
    // Above the depth limit half the draws are containers.
    match rng.range(0, if depth == 0 { 4 } else { 8 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.flip()),
        2 => Json::Number((rng.range(0, 2_000_000) as i64 - 1_000_000) as f64),
        3 => Json::String(text(rng, &printable(), 0, 17)),
        4 | 5 => Json::Array(rng.vec(0, 6, |r| json(r, depth - 1))),
        _ => Json::Object(
            rng.vec(0, 6, |r| {
                (
                    text(r, b"abcdefghijklmnopqrstuvwxyz_", 1, 9),
                    json(r, depth - 1),
                )
            })
            .into_iter()
            .collect(),
        ),
    }
}

#[test]
fn generated_documents_roundtrip() {
    cases(256, 0x1503_D0C5, |rng| {
        let v = json(rng, 3);
        let text = to_text(&v);
        let back = parse_json(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(back, v);
    });
}

#[test]
fn parser_never_panics_on_mutations() {
    cases(256, 0x1503_3747, |rng| {
        let mut text = to_text(&json(rng, 3)).into_bytes();
        let (at, replacement) = (rng.index(0, 64), rng.next_u64() as u8);
        if at < text.len() {
            text[at] = replacement;
        }
        if let Ok(s) = String::from_utf8(text) {
            let _ = parse_json(&s); // must not panic
        }
    });
}

#[test]
fn parser_never_panics_on_garbage() {
    cases(256, 0x1503_6A2B, |rng| {
        let _ = parse_json(&text(rng, &printable(), 0, 65));
    });
}
