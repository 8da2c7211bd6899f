//! Properties of the wire codec: hex payloads, JSON strings, and the
//! request/reply line parsers.
//!
//! * `to_hex` equals a per-byte `format!` oracle; `from_hex` inverts it
//!   in either case and accepts exactly the even-length ASCII hex strings.
//! * `json::escape` equals a char-by-char oracle escaper on text full of
//!   quotes, backslashes, control characters, U+2028/U+2029, their
//!   same-lead-byte neighbours and multi-byte characters, and `parse`
//!   reads every emitted string back.
//! * `parse_request_line` and `parse_reply_line` return errors, never
//!   panics, on arbitrary lines and on mutated valid ones.
//!
//! Failing cases persist their RNG state in
//! `codec_prop.proptest-regressions` (checked in) and are replayed
//! before fresh cases on every run.

use dexlego_harness::json::{self, Value};
use dexlego_service::{parse_reply_line, parse_request_line, ExtractRequest, RequestId};
use dexlego_store::hex::{from_hex, to_hex};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;

/// The per-character escaper the emitter replaced, kept as the oracle.
fn escape_oracle(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{2028}' => out.push_str("\\u2028"),
            '\u{2029}' => out.push_str("\\u2029"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Characters that stress the escaper: every escape, control bytes, the
/// JavaScript line separators and their neighbours sharing the lead byte
/// 0xE2, and 2- to 4-byte UTF-8.
const TRICKY: [char; 22] = [
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    '\u{2028}',
    '\u{2029}',
    '\u{2027}',
    '\u{202a}',
    '\u{20ac}',
    '\u{e9}',
    '\u{80}',
    '\u{ffff}',
    '\u{1f600}',
    'a',
];

fn text() -> impl Strategy<Value = String> {
    let c = prop_oneof![select(TRICKY.to_vec()), any::<char>()];
    vec(c, 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// Characters a mutation may write into a line: JSON structure, hex
/// digits and the tricky set.
fn mutation_char() -> impl Strategy<Value = char> {
    prop_oneof![
        select(
            "{}[]:,\"\\0123456789abcdefABCDEF-+.eE tnul"
                .chars()
                .collect()
        ),
        select(TRICKY.to_vec()),
        any::<char>(),
    ]
}

/// Applies each `(position, op, char)` mutation to `line`: overwrite,
/// insert, delete, or truncate at the position (chars, not bytes, so the
/// line stays valid UTF-8).
fn mutate(line: &str, edits: &[(usize, u8, char)]) -> String {
    let mut chars: Vec<char> = line.chars().collect();
    for &(pos, op, c) in edits {
        let at = pos % (chars.len() + 1);
        match op % 4 {
            0 if at < chars.len() => chars[at] = c,
            1 => chars.insert(at, c),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            3 => chars.truncate(at),
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

fn request_line() -> String {
    let mut req = ExtractRequest::new(vec![0x64, 0x65, 0x78, 0x0a, 0x00, 0xff], "Lapp/Main;");
    req.name = Some("job \"é\"\u{2028}".to_owned());
    req.packer = Some("360".to_owned());
    req.seeds = vec![1, u64::MAX];
    req.deadline_ms = Some(250);
    req.want_entry = true;
    req.encode_with_id(&RequestId::Str("r/1".to_owned()))
}

const REPLY_LINE: &str = include_str!("golden/extract_ok_reply.line");

proptest! {
    #[test]
    fn to_hex_matches_the_per_byte_oracle(bytes in vec(any::<u8>(), 0..300)) {
        let oracle: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        prop_assert_eq!(to_hex(&bytes), oracle);
    }

    #[test]
    fn from_hex_inverts_to_hex_in_either_case(
        bytes in vec(any::<u8>(), 0..300),
        upper in vec(any::<bool>(), 600),
    ) {
        let mixed: String = to_hex(&bytes)
            .chars()
            .zip(&upper)
            .map(|(c, &up)| if up { c.to_ascii_uppercase() } else { c })
            .collect();
        prop_assert_eq!(from_hex(&to_hex(&bytes)), Some(bytes.clone()));
        prop_assert_eq!(from_hex(&mixed), Some(bytes));
    }

    #[test]
    fn from_hex_rejects_odd_lengths_and_non_hex(
        bytes in vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        junk in prop_oneof![select(TRICKY.to_vec()), any::<char>()],
    ) {
        let hex = to_hex(&bytes);
        // Odd length: one extra digit anywhere.
        let at = (at % (bytes.len() + 1)) * 2;
        let mut odd = hex.clone();
        odd.insert(at, '7');
        prop_assert_eq!(from_hex(&odd), None);
        // A non-hex character, padded with digits to an even length so
        // only the character itself can be the reason for rejection.
        if !junk.is_ascii_hexdigit() {
            let mut bad = hex.clone();
            let mut insert = junk.to_string();
            if insert.len() % 2 == 1 {
                insert.push('0');
            }
            bad.insert_str(at, &insert);
            prop_assert_eq!(from_hex(&bad), None, "{:?}", bad);
        }
    }

    #[test]
    fn from_hex_accepts_exactly_ascii_hex_pairs(s in text()) {
        let valid = s.len() % 2 == 0 && s.bytes().all(|b| b.is_ascii_hexdigit());
        let decoded = from_hex(&s);
        prop_assert_eq!(decoded.is_some(), valid, "{:?}", s);
        if let Some(bytes) = decoded {
            prop_assert_eq!(to_hex(&bytes), s.to_ascii_lowercase());
        }
    }

    #[test]
    fn escape_matches_the_char_loop_oracle(s in text()) {
        prop_assert_eq!(json::escape(&s), escape_oracle(&s));
    }

    #[test]
    fn emitted_strings_parse_back(s in text()) {
        let literal = json::string(&s);
        prop_assert!(!literal.contains('\u{2028}') && !literal.contains('\u{2029}'));
        prop_assert_eq!(json::parse(&literal), Ok(Value::Str(s.clone())));
        let doc = json::object(&[("k", literal), ("n", "1".to_owned())]);
        let parsed = json::parse(&doc).expect("object parses");
        prop_assert_eq!(parsed.get("k").and_then(Value::as_str), Some(s.as_str()));
        prop_assert_eq!(json::parse(&parsed.to_json()), Ok(parsed.clone()));
    }

    #[test]
    fn parsers_never_panic_on_arbitrary_lines(chars in vec(mutation_char(), 0..64)) {
        let line: String = chars.into_iter().collect();
        let _ = parse_request_line(&line);
        let _ = parse_reply_line(&line);
    }

    #[test]
    fn parsers_never_panic_on_mutated_lines(
        edits in vec((any::<usize>(), any::<u8>(), mutation_char()), 1..6),
    ) {
        let request = mutate(&request_line(), &edits);
        let _ = parse_request_line(&request);
        let _ = parse_reply_line(&request);
        let reply = mutate(REPLY_LINE.trim_end(), &edits);
        let _ = parse_request_line(&reply);
        let _ = parse_reply_line(&reply);
    }
}

#[test]
fn unmutated_lines_parse() {
    let (id, request) = parse_request_line(&request_line());
    assert_eq!(id, Some(RequestId::Str("r/1".to_owned())));
    assert!(request.is_ok());
    let (id, _) = parse_reply_line(REPLY_LINE.trim_end()).expect("golden reply parses");
    assert_eq!(id, Some(RequestId::Str("hit/1".to_owned())));
}
