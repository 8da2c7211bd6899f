//! Lowercase hex encoding, shared by store keys and the service wire
//! protocol (DEX payloads travel as hex strings inside JSON).
//!
//! Both directions go through a table and touch each byte once, so a
//! payload costs linear time however large.

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is no hex digit in [`NIBBLES`]; no digit's value has
/// this bit.
const INVALID: u8 = 0x10;

/// The value of every byte as a hex digit (either case), or [`INVALID`]:
/// every other ASCII byte and every byte of a multi-byte UTF-8 sequence.
const NIBBLES: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < DIGITS.len() {
        table[DIGITS[i] as usize] = i as u8;
        table[DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

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
///
/// Every pair is decoded through a 256-entry nibble table into a buffer
/// sized in advance, and an invalid digit only ORs its mark into one
/// flag, checked once at the end, so the loop has no early exit to
/// branch on.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut marks = 0;
    let out: Vec<u8> = s
        .as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
            marks |= hi | lo;
            (hi << 4) | lo
        })
        .collect();
    (marks & INVALID == 0).then_some(out)
}

/// Whether [`from_hex`] decodes `s`: an even number of hex digits, in
/// either case, and nothing else.
pub fn is_hex(s: &str) -> bool {
    s.len().is_multiple_of(2) && s.bytes().all(|b| NIBBLES[usize::from(b)] != INVALID)
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
        for bad in ["abc", "zz", "aé", "0g", "g0"] {
            assert!(from_hex(bad).is_none() && !is_hex(bad), "{bad}");
        }
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert!(is_hex("") && is_hex("00aB"));
    }
}
