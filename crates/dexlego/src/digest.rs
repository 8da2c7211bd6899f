//! Stable digests of pipeline inputs.
//!
//! The persistent result store (`dexlego-store`) keys cached extraction
//! results by *what went into the pipeline*: the original DEX bytes, the
//! packer profile, every driving parameter that can change the collection
//! (seeds, events, fuel, conformance checking), and the extractor version.
//! Two runs with equal digests are guaranteed to produce the same revealed
//! DEX, so a cached result can be served instead of re-extracting.
//!
//! The digest is an SHA-1 over a canonical byte encoding: each field is
//! written as `tag-length ‖ tag ‖ value-length ‖ value` (lengths as
//! little-endian `u32`), which makes the encoding prefix-free — no two
//! distinct field sequences serialise to the same bytes, so `("ab", "c")`
//! and `("a", "bc")` never collide.

use dexlego_dex::checksum::sha1;

/// Version stamp mixed into every input digest.
///
/// Bump the suffix whenever collection or reassembly *semantics* change
/// (new merge strategy, different canonicalisation, verifier gate changes):
/// stale cache entries from older pipelines then miss instead of serving
/// results the current code would not produce.
pub const EXTRACTOR_VERSION: &str = concat!("dexlego-", env!("CARGO_PKG_VERSION"), "+pipeline.4");

/// The SHA-1 of the golden collection and reveal digests
/// (`tests/golden/collect_digests.txt`) that [`EXTRACTOR_VERSION`] stands
/// for. A test fails when the two disagree, so goldens that change force
/// a decision about the version: bump it when cached results are no
/// longer what the pipeline produces, then record the new SHA-1 here.
pub const COLLECT_GOLDEN_SHA1: &str = "170ea2b9ef8afbf3aead06c1ef5ebad6dabf9156";

/// Accumulates tagged fields into a canonical byte stream and digests it.
///
/// # Example
///
/// ```
/// use dexlego_core::digest::InputDigest;
///
/// let mut d = InputDigest::new();
/// d.bytes("dex", b"\x64\x65\x78");
/// d.str("packer", "360");
/// d.u64("fuel", 10_000_000);
/// let a = d.finish_hex();
/// assert_eq!(a.len(), 40);
///
/// // Field order and values are significant.
/// let mut e = InputDigest::new();
/// e.bytes("dex", b"\x64\x65\x78");
/// e.str("packer", "Baidu");
/// e.u64("fuel", 10_000_000);
/// assert_ne!(a, e.finish_hex());
/// ```
#[derive(Debug, Clone)]
pub struct InputDigest {
    buf: Vec<u8>,
}

impl InputDigest {
    /// A digest seeded with [`EXTRACTOR_VERSION`].
    pub fn new() -> InputDigest {
        let mut d = InputDigest { buf: Vec::new() };
        d.bytes("version", EXTRACTOR_VERSION.as_bytes());
        d
    }

    /// Appends a tagged byte field.
    pub fn bytes(&mut self, tag: &str, value: &[u8]) {
        self.buf
            .extend_from_slice(&(tag.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(tag.as_bytes());
        self.buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(value);
    }

    /// Appends a tagged string field.
    pub fn str(&mut self, tag: &str, value: &str) {
        self.bytes(tag, value.as_bytes());
    }

    /// Appends a tagged integer field.
    pub fn u64(&mut self, tag: &str, value: u64) {
        self.bytes(tag, &value.to_le_bytes());
    }

    /// Appends a tagged boolean field.
    pub fn flag(&mut self, tag: &str, value: bool) {
        self.bytes(tag, &[u8::from(value)]);
    }

    /// The SHA-1 digest of everything appended so far.
    pub fn finish(&self) -> [u8; 20] {
        sha1(&self.buf)
    }

    /// [`finish`](InputDigest::finish) as 40 lowercase hex characters.
    pub fn finish_hex(&self) -> String {
        self.finish().iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl Default for InputDigest {
    fn default() -> InputDigest {
        InputDigest::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let build = || {
            let mut d = InputDigest::new();
            d.bytes("dex", &[1, 2, 3]);
            d.u64("fuel", 42);
            d.flag("conformance", true);
            d.finish_hex()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn digest_depends_on_every_field() {
        let base = {
            let mut d = InputDigest::new();
            d.bytes("dex", &[1, 2, 3]);
            d.u64("fuel", 42);
            d.flag("conformance", true);
            d.finish_hex()
        };
        let variants = [
            {
                let mut d = InputDigest::new();
                d.bytes("dex", &[1, 2, 4]);
                d.u64("fuel", 42);
                d.flag("conformance", true);
                d.finish_hex()
            },
            {
                let mut d = InputDigest::new();
                d.bytes("dex", &[1, 2, 3]);
                d.u64("fuel", 43);
                d.flag("conformance", true);
                d.finish_hex()
            },
            {
                let mut d = InputDigest::new();
                d.bytes("dex", &[1, 2, 3]);
                d.u64("fuel", 42);
                d.flag("conformance", false);
                d.finish_hex()
            },
        ];
        for v in variants {
            assert_ne!(base, v);
        }
    }

    #[test]
    fn encoding_is_prefix_free() {
        // ("ab", "c") vs ("a", "bc"): same concatenated payload, different
        // digests thanks to the length prefixes.
        let mut d1 = InputDigest::new();
        d1.str("t", "ab");
        d1.str("t", "c");
        let mut d2 = InputDigest::new();
        d2.str("t", "a");
        d2.str("t", "bc");
        assert_ne!(d1.finish_hex(), d2.finish_hex());
    }

    #[test]
    fn version_is_mixed_in() {
        // An empty builder still digests the version stamp, so the digest
        // of "nothing" is not SHA-1 of the empty string.
        let d = InputDigest::new();
        assert_ne!(d.finish_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert!(EXTRACTOR_VERSION.contains("pipeline"));
    }
}
