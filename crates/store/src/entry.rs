//! The cached extraction result and its binary codec.
//!
//! The payload format is a simple length-prefixed binary encoding (the
//! workspace is dependency-free, so there is no serde): little-endian
//! integers, `u32` length prefixes, UTF-8 strings. A leading format tag
//! (`RES6`) versions the payload independently of the on-disk container
//! that wraps it (see [`crate::store`]). After the tag come the revealed
//! DEX and two name/value lists, the job counters and the phase timings,
//! so a counter added to or dropped from the report changes the entries
//! written, not the format. Payloads under older tags, whose counters sat
//! at fixed offsets, do not decode: the store reads each as a miss and
//! quarantines it once.

/// Everything the pipeline produced for one (DEX, profile, parameters)
/// input: the revealed DEX plus what a cache hit needs to rebuild the
/// job's report without re-running extraction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedResult {
    /// Serialised revealed DEX (the artifact handed to static analysis).
    pub dex_bytes: Vec<u8>,
    /// The job's counters by name, in report order.
    pub counters: Vec<(String, u64)>,
    /// Per-phase pipeline timings in microseconds, execution order.
    pub phases_us: Vec<(String, u64)>,
}

use std::ops::Range;

const PAYLOAD_TAG: &[u8; 4] = b"RES6";

/// The fewest bytes a name/value pair takes: an empty name's length
/// prefix and the value.
const MIN_PAIR_BYTES: usize = 4 + 8;

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    out.extend_from_slice(v);
}

/// Writes a name/value list: its length, then each name and value.
fn put_pairs(out: &mut Vec<u8>, pairs: &[(String, u64)]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for (name, value) in pairs {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("payload truncated at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a list written by [`put_pairs`]. A count the remaining
    /// bytes cannot hold is refused before anything is allocated.
    fn pairs(&mut self) -> Result<Vec<(String, u64)>, String> {
        let n = self.u32()? as usize;
        if n > (self.data.len() - self.pos) / MIN_PAIR_BYTES {
            return Err(format!(
                "{n} pairs cannot fit the payload at offset {}",
                self.pos
            ));
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let name = std::str::from_utf8(self.bytes()?)
                .map_err(|_| "invalid UTF-8 in payload".to_owned())?;
            pairs.push((name.to_owned(), self.u64()?));
        }
        Ok(pairs)
    }
}

/// Serialises a result into the versioned payload format.
pub fn encode(r: &CachedResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(r.dex_bytes.len() + 512);
    out.extend_from_slice(PAYLOAD_TAG);
    put_bytes(&mut out, &r.dex_bytes);
    put_pairs(&mut out, &r.counters);
    put_pairs(&mut out, &r.phases_us);
    out
}

/// Deserialises a payload produced by [`encode`].
///
/// # Errors
///
/// Any structural violation (wrong tag, truncation, a count or length
/// past the end, bad UTF-8, trailing bytes) is an error; the store treats
/// a decode error like a checksum mismatch and quarantines the entry.
pub fn decode(data: &[u8]) -> Result<CachedResult, String> {
    let (dex, counters, phases_us) = parse(data)?;
    Ok(CachedResult {
        dex_bytes: data[dex].to_vec(),
        counters,
        phases_us,
    })
}

/// [`decode`] of the payload that fills `blob` from offset `at`. The DEX
/// keeps `blob`'s buffer, so a store read allocates it once.
pub(crate) fn decode_at(mut blob: Vec<u8>, at: usize) -> Result<CachedResult, String> {
    let (dex, counters, phases_us) = parse(&blob[at..])?;
    blob.truncate(at + dex.end);
    blob.drain(..at + dex.start);
    Ok(CachedResult {
        dex_bytes: blob,
        counters,
        phases_us,
    })
}

/// The parts of a payload: where its DEX lies, its counters and its
/// phase timings.
type Parts = (Range<usize>, Vec<(String, u64)>, Vec<(String, u64)>);

fn parse(data: &[u8]) -> Result<Parts, String> {
    let mut c = Cursor { data, pos: 0 };
    if c.take(4)? != PAYLOAD_TAG {
        return Err("unknown payload format tag".to_owned());
    }
    let len = c.u32()? as usize;
    let start = c.pos;
    c.take(len)?;
    let counters = c.pairs()?;
    let phases_us = c.pairs()?;
    if c.pos != data.len() {
        return Err(format!("{} trailing bytes in payload", data.len() - c.pos));
    }
    Ok((start..start + len, counters, phases_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: &[(&str, u64)]) -> Vec<(String, u64)> {
        list.iter().map(|&(name, v)| (name.to_owned(), v)).collect()
    }

    fn sample() -> CachedResult {
        CachedResult {
            dex_bytes: vec![0x64, 0x65, 0x78, 0x0a, 0x00, 0xff],
            counters: pairs(&[
                ("insns", 5678),
                ("frames", 9),
                ("insns_collected", 400),
                ("typed_insns", 77),
                ("verify_cache_misses", 4),
            ]),
            phases_us: pairs(&[("collect", 42), ("verify", 7)]),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample();
        assert_eq!(decode(&encode(&r)).unwrap(), r);
        let empty = CachedResult::default();
        assert_eq!(decode(&encode(&empty)).unwrap(), empty);
    }

    #[test]
    fn rejects_truncation_and_bad_tag() {
        let full = encode(&sample());
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        assert!(decode(&bad).is_err());
        let mut trailing = full;
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }

    /// The same result in the `RES5` layout (eleven counters at fixed
    /// offsets, then a validation list and the phases) and in the `RES4`
    /// layout (three more counters) is refused, not misread.
    #[test]
    fn older_layouts_are_refused() {
        let r = sample();
        for (tag, fixed) in [(b"RES5", 11), (b"RES4", 14)] {
            let mut old = tag.to_vec();
            put_bytes(&mut old, &r.dex_bytes);
            for i in 0..fixed {
                old.extend_from_slice(&(i as u64 * 3).to_le_bytes());
            }
            old.extend_from_slice(&0u32.to_le_bytes());
            put_pairs(&mut old, &r.phases_us);
            assert!(
                decode(&old).is_err(),
                "{} entry accepted",
                tag.escape_ascii()
            );
        }
    }

    /// A count or length prefix of `u32::MAX` is an error, found before
    /// anything of that size is allocated.
    #[test]
    fn huge_prefixes_are_errors() {
        let full = encode(&sample());
        let dex_len = 4;
        let counters_len = dex_len + 4 + sample().dex_bytes.len();
        let first_name = counters_len + 4;
        for at in [dex_len, counters_len, first_name] {
            let mut bad = full.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode(&bad).is_err(), "u32::MAX at {at} accepted");
        }
    }
}
