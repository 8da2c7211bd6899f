//! Lowercase hex encoding, shared by store keys and the service wire
//! protocol (DEX payloads travel as hex strings inside JSON).
//!
//! Encoding reads digits from a table and decoding works bytewise; both
//! touch each byte once, so a payload costs linear time however large.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    push_hex(&mut out, bytes);
    out
}

/// Appends `bytes` as lowercase hex to `out` (the in-place form of
/// [`to_hex`], for writers that build one line in one buffer).
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    // Digits are staged a chunk at a time in a stack buffer and appended
    // as one ASCII run.
    let mut buf = [0u8; 512];
    for chunk in bytes.chunks(buf.len() / 2) {
        for (pair, &b) in buf.chunks_exact_mut(2).zip(chunk) {
            pair[0] = DIGITS[usize::from(b >> 4)];
            pair[1] = DIGITS[usize::from(b & 0xf)];
        }
        out.push_str(std::str::from_utf8(&buf[..chunk.len() * 2]).expect("hex digits are ASCII"));
    }
}

/// Decodes a hex string (either case). `None` on odd length or non-hex
/// characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

/// The value of one hex digit byte; `None` for anything else (including
/// every byte of a multi-byte UTF-8 sequence).
fn nibble(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        let h = to_hex(&data);
        assert_eq!(h, "00017f80ff");
        assert_eq!(from_hex(&h).unwrap(), data);
        assert_eq!(from_hex("00017F80FF").unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
        assert!(from_hex("aé").is_none());
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
    }
}
