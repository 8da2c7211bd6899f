//! The cached extraction result and its binary codec.
//!
//! The payload format is a simple length-prefixed binary encoding (the
//! workspace is dependency-free, so there is no serde): little-endian
//! integers, `u32` length prefixes, UTF-8 strings. A leading format tag
//! (`RES5`; `RES4` still carried the interpreter's quickening counters,
//! which extraction no longer moves, `RES3` lacked the verify-cache
//! counters, `RES2` the typed-verifier counters — all decode as a miss)
//! versions the payload independently of the on-disk container that wraps
//! it (see [`crate::store`]).

/// Everything the pipeline produced for one (DEX, profile, parameters)
/// input: the revealed DEX plus the report fields a cache hit must be able
/// to reconstruct without re-running extraction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CachedResult {
    /// Serialised revealed DEX (the artifact handed to static analysis).
    pub dex_bytes: Vec<u8>,
    /// Wall time of the original extraction, microseconds.
    pub wall_us: u64,
    /// Instructions interpreted while driving the app.
    pub insns: u64,
    /// Method frames entered while driving the app.
    pub frames: u64,
    /// Methods with collected trees.
    pub methods_collected: u64,
    /// Instructions collected across all trees.
    pub insns_collected: u64,
    /// Serialised collection-file size in bytes.
    pub dump_size: u64,
    /// Warning-severity verifier lints on the reassembled DEX.
    pub verifier_lints: u64,
    /// Method bodies with typed IR materialized by the verifier.
    pub typed_methods: u64,
    /// Instructions across all typed-IR methods.
    pub typed_insns: u64,
    /// Method verifications served from the digest-keyed verify cache.
    pub verify_cache_hits: u64,
    /// Method verifications that ran the fixpoint (verify-cache misses).
    pub verify_cache_misses: u64,
    /// `validate_reveal` findings (empty = validated).
    pub validation: Vec<String>,
    /// Per-phase pipeline timings in microseconds, execution order.
    pub phases_us: Vec<(String, u64)>,
}

const PAYLOAD_TAG: &[u8; 4] = b"RES5";

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    out.extend_from_slice(v);
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
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

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, String> {
        String::from_utf8(self.bytes()?).map_err(|_| "invalid UTF-8 in payload".to_owned())
    }
}

/// Serialises a result into the versioned payload format.
pub fn encode(r: &CachedResult) -> Vec<u8> {
    let mut out = Vec::with_capacity(r.dex_bytes.len() + 128);
    out.extend_from_slice(PAYLOAD_TAG);
    put_bytes(&mut out, &r.dex_bytes);
    for v in [
        r.wall_us,
        r.insns,
        r.frames,
        r.methods_collected,
        r.insns_collected,
        r.dump_size,
        r.verifier_lints,
        r.typed_methods,
        r.typed_insns,
        r.verify_cache_hits,
        r.verify_cache_misses,
    ] {
        put_u64(&mut out, v);
    }
    out.extend_from_slice(&(r.validation.len() as u32).to_le_bytes());
    for finding in &r.validation {
        put_str(&mut out, finding);
    }
    out.extend_from_slice(&(r.phases_us.len() as u32).to_le_bytes());
    for (phase, us) in &r.phases_us {
        put_str(&mut out, phase);
        put_u64(&mut out, *us);
    }
    out
}

/// Deserialises a payload produced by [`encode`].
///
/// # Errors
///
/// Any structural violation (wrong tag, truncation, bad UTF-8) is an error;
/// the store treats a decode error like a checksum mismatch and quarantines
/// the entry.
pub fn decode(data: &[u8]) -> Result<CachedResult, String> {
    let mut c = Cursor { data, pos: 0 };
    if c.take(4)? != PAYLOAD_TAG {
        return Err("unknown payload format tag".to_owned());
    }
    let dex_bytes = c.bytes()?;
    let wall_us = c.u64()?;
    let insns = c.u64()?;
    let frames = c.u64()?;
    let methods_collected = c.u64()?;
    let insns_collected = c.u64()?;
    let dump_size = c.u64()?;
    let verifier_lints = c.u64()?;
    let typed_methods = c.u64()?;
    let typed_insns = c.u64()?;
    let verify_cache_hits = c.u64()?;
    let verify_cache_misses = c.u64()?;
    let n_validation = c.u32()? as usize;
    let mut validation = Vec::with_capacity(n_validation.min(1024));
    for _ in 0..n_validation {
        validation.push(c.string()?);
    }
    let n_phases = c.u32()? as usize;
    let mut phases_us = Vec::with_capacity(n_phases.min(1024));
    for _ in 0..n_phases {
        let phase = c.string()?;
        let us = c.u64()?;
        phases_us.push((phase, us));
    }
    if c.pos != data.len() {
        return Err(format!("{} trailing bytes in payload", data.len() - c.pos));
    }
    Ok(CachedResult {
        dex_bytes,
        wall_us,
        insns,
        frames,
        methods_collected,
        insns_collected,
        dump_size,
        verifier_lints,
        typed_methods,
        typed_insns,
        verify_cache_hits,
        verify_cache_misses,
        validation,
        phases_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CachedResult {
        CachedResult {
            dex_bytes: vec![0x64, 0x65, 0x78, 0x0a, 0x00, 0xff],
            wall_us: 1234,
            insns: 5678,
            frames: 9,
            methods_collected: 3,
            insns_collected: 400,
            dump_size: 2048,
            verifier_lints: 1,
            typed_methods: 4,
            typed_insns: 77,
            verify_cache_hits: 12,
            verify_cache_misses: 4,
            validation: vec!["m1: missing".to_owned(), "m2: odd".to_owned()],
            phases_us: vec![("collect".to_owned(), 42), ("verify".to_owned(), 7)],
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
        for cut in [0, 3, 4, 10, full.len() - 1] {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut bad = full.clone();
        bad[0] ^= 0xff;
        assert!(decode(&bad).is_err());
        // The same result in the `RES4` layout, which still carried three
        // quickening counters after `frames`: refused, not misread.
        let mut old = full.clone();
        old[..4].copy_from_slice(b"RES4");
        let after_frames = 4 + 4 + sample().dex_bytes.len() + 3 * 8;
        let counters = [21u64, 2, 333].iter().flat_map(|v| v.to_le_bytes());
        old.splice(after_frames..after_frames, counters);
        assert!(decode(&old).is_err(), "RES4 entry accepted");
        let mut trailing = full;
        trailing.push(0);
        assert!(decode(&trailing).is_err());
    }
}
