//! Adler-32 and SHA-1 implementations for the DEX header checksum and
//! signature fields.
//!
//! Implemented in-crate (both are short, fully specified algorithms) to keep
//! the dependency set to the approved list.

/// Computes the Adler-32 checksum of `data`, as stored in the DEX header's
/// `checksum` field (covering everything after the checksum itself).
///
/// # Example
///
/// ```
/// assert_eq!(dexlego_dex::checksum::adler32(b"Wikipedia"), 0x11E60398);
/// ```
pub fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    // Process in chunks small enough that the u32 accumulators cannot
    // overflow before reduction (5552 is the standard zlib bound).
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += u32::from(byte);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Computes the SHA-1 digest of `data`, as stored in the DEX header's
/// `signature` field (covering everything after the signature itself).
///
/// Whole blocks are hashed in place; only the tail and its padding are
/// copied, into a stack buffer.
///
/// # Example
///
/// ```
/// let d = dexlego_dex::checksum::sha1(b"abc");
/// assert_eq!(d[..4], [0xa9, 0x99, 0x3e, 0x36]);
/// ```
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xefcd_ab89,
        0x98ba_dcfe,
        0x1032_5476,
        0xc3d2_e1f0,
    ];

    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    // Padding: 0x80, zeros, then the message length in bits, filling one
    // block, or two when the tail leaves fewer than 9 bytes free in its
    // block.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let end = if rest.len() < 56 { 64 } else { 128 };
    let ml = (data.len() as u64).wrapping_mul(8);
    tail[end - 8..end].copy_from_slice(&ml.to_be_bytes());
    for block in tail[..end].chunks_exact(64) {
        compress(&mut h, block);
    }

    let mut out = [0u8; 20];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One SHA-1 compression of a 64-byte `block` into `h`: the 80 rounds run
/// as four 20-round phases, each with its own round function and constant.
fn compress(h: &mut [u32; 5], block: &[u8]) {
    let mut w = [0u32; 80];
    for (wi, word) in w[..16].iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    let mut s = *h;
    for &wi in &w[..20] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (!b & d), 0x5a82_7999, wi);
    }
    for &wi in &w[20..40] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0x6ed9_eba1, wi);
    }
    for &wi in &w[40..60] {
        let [_, b, c, d, _] = s;
        round(&mut s, (b & c) | (b & d) | (c & d), 0x8f1b_bcdc, wi);
    }
    for &wi in &w[60..] {
        let [_, b, c, d, _] = s;
        round(&mut s, b ^ c ^ d, 0xca62_c1d6, wi);
    }
    for (hi, si) in h.iter_mut().zip(s) {
        *hi = hi.wrapping_add(si);
    }
}

#[inline(always)]
fn round(s: &mut [u32; 5], f: u32, k: u32, w: u32) {
    let [a, b, c, d, e] = *s;
    let temp = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(w);
    *s = [temp, a, b.rotate_left(30), c, d];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-1 of the first `n` bytes of `(i * 31 + 7) as u8`, for every
    /// `n` in 0..=130 (two full blocks plus every tail length), computed
    /// with Python's `hashlib`.
    const PATTERN_DIGESTS: [&str; 131] = [
        "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",
        "7878ac025cfe0384191ff21ebb1627fd25f8a60c",
        "d2df16b976a43628c63ea246436fccf6d7635d09",
        "d4f9ceaade7da644940e6e48e5f6f3df890012e5",
        "30b0747dfbd07a32d9c8d1dd980fa3715c61705d",
        "0e86f0b0df735206bc8c63c98ece2615752a583a",
        "7b5fdb60a909101741efaccfcf4623768ed8c772",
        "090a21896cc276ea75ecae78af863a34cb135e1e",
        "9750943838c5a41ce8324080d24c1c83b5d1ddae",
        "975fa4a481ddb865543aa46b4215abce0867415e",
        "ee99d55549e856af7d230f17aeab852297174f6f",
        "527c9aac039e4100422ef17c4c31439fcd2ed067",
        "07befd60125f9d2be5d1cc5c78eb1307af0a7f98",
        "139710c70c7560646711ee1f9fee2b75ef959c3e",
        "4508ec78db0dec110697f0a89f3fea668c45c1e6",
        "5884f1f093c6dc6a7df8dab75d43d5748c6dd583",
        "0de0ccd6c9688fc89864747b6e86b924294c6838",
        "96e3d5678470c65732139e7258e0fbe9bded4954",
        "2def2581a20f472ae671840e4510efc76a45bd75",
        "6adb00acc942e8f09009d3edefb763df7046d6e4",
        "8ed8c70c44cd332747e115c148e202be6a5ac11f",
        "52fab989df29c762c730822e5b4f3e581fa83538",
        "0a479e663a8aa605af3c940d34473fc6a9f608af",
        "9781f9c5e30ee04d7e34f3b67270438fbb0e8cab",
        "19ff4253e8faa698d1bd4e7860da45f38df1aee5",
        "ddf4e79df3a624427b473b43d0f762a9128ee0b1",
        "282d5c7ba20281c5862c5dfec06ac09b02bc9028",
        "0545246c1176ec07a5c76da77dc0b47d658bd58c",
        "2d77de3600a1a02c27f113247055a1288f85f21e",
        "a8e474f565ca3ed1c6c5dc8b8ddecb52e25f2ee3",
        "8a3cfab36a8e4e5510d5800dd0063725f29c614f",
        "4a9f58da1bac35a4d50e87dc0f9e49f3a740192f",
        "b28afc2dfa3c4884e18f7c7d943dfad7647a389b",
        "77260e68115b3238848446189d3e8058f82a08ea",
        "64e36d9226e117d413fbbc9b0d2506c6e6588a1e",
        "cc4b77f45d09f88399625712a877e8c7ddefcede",
        "4aba15b96465339c44cd4c633b0f88f889298d38",
        "6dae0fbb08600217dc4d3a572506da98b5259237",
        "dbd96a88971e828294e76676c6cc7b7c8d5dd705",
        "50ece239fb3daf7330821cc85d2bae03fcb27fa3",
        "e59d729c6e8445387de15ce274af9a65f9751557",
        "4deacbbf65843c9bb338c266c3e291f70ead30c3",
        "815ef303fdb28e94299b6fcf3efa8d7f469b2c8f",
        "b66b61cf262d2a8926c28bdcd33fe66892bd134e",
        "177d0ee82815c1d1e83b6d0d923e47cc4ef9ca03",
        "131814fd29a1b2d86ef58667156f102ab8d3af4b",
        "fabb661be319d4ed390cf5e23edb7b680a4ee663",
        "0796640c41bebef2c7920f1015483e8e45a600c3",
        "b428ec560cf367cb4386371aa88c2c55ae291a12",
        "7f4aa52203322f756b073b2802277d0add9bdd87",
        "e9f34b4f49c516a758f2283cb5b6528b10d07770",
        "4962b732ea68858be5ccd40469422cf32dd5d7b7",
        "9b13b43b467c30af032111a01964cbfa91c22f12",
        "d55036939dd1f1b82217b436fd60b32b5d015ab1",
        "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",
        "a5b6e9c29d201c774753ff8e7fb64931656f5e63",
        "eb0737bed5451790722b2df351829ce117e3d9dd",
        "6f139fad1ae8ba7233bf48be73eed09d469ca735",
        "150327206b90a9129013cebce50ccfcbae9cd53d",
        "86ea3d4e8c9a086ee3d01af2c614cd463e3aa969",
        "e38613ee100936fadbff7cedd2ef467868d79032",
        "0c7a70093fd6a9d8c0ee69571185f7a3334d5f9a",
        "d1a454409359fc372b4d22b3cea6488d6ba1be00",
        "39a0d8b645ad85f1f976731ed112ac9455e28b78",
        "d0c96e18890114a14716e9686528d2e3fdba8d9e",
        "92dd5fd255e87de53cf6a7771cbb1130f52ea24b",
        "906f093cacd2ce78b8496c3bed7d6bacdd92ea0c",
        "d8cf76c08d523b04919a72ed459c111a370b02ce",
        "5c4b40e6fa54508cc31fe6de86f4cb2a66bd5e53",
        "e5b80b9ab19552e389496fca5dff8f27aca7f240",
        "64aa38cd51d7f21e8e1a80de8112dd0658dd63d8",
        "0fc775c234d6c8448a3678e209c1b13aef9287e9",
        "27a2a1fea010cf2c1108e5dd4bdba043d587e073",
        "3a9e0307c3de796b815542b3d0c90b61a5203ee9",
        "7b0c0b3a6e961b371a5080cef54220a30a9afa39",
        "35e5aa233c9f7d5d5f4095f10a7eb2386463714a",
        "5ec5f3cd53f4d8d2812e925971169aae05ca00f5",
        "9844dbb7e5438dad535b3cc267fda22915094ddc",
        "8857e00278b786a9a1bd1a5c00ca81ceea1183c6",
        "d46f1abac4e4c1437ba50751cd0f07dda03d8cbd",
        "f23f0e200cd3addc10856d5516cffcef136cbc8f",
        "9d3c1709d9f47eaf1648b1e9bff9f8fa9392c70e",
        "2adcc5a0476b9515cd32f6f385f6947c9b8c57df",
        "8b97fc8197d94c55f3c41ff380638944a0663870",
        "3e864c1c7ad899444cacd46e395788e3dab4ba2a",
        "2cb97ff3028dac2fe801cc3f0f1d7febbc488538",
        "e3636b2b64f8558b204f41db4fa426e9c91d5e64",
        "62ad6e1f0a7e3b265368770c8190874c1cdad0ae",
        "af07c561d91d82e46109b0aab65e1d4ff4855adb",
        "38590da98c032dacf8f5c243b822a11d35d82781",
        "2f710782948aa2118d8c8aad53ef0eb358dab3ab",
        "cde050590efe5bf54f7587dfdc121ae9c50738fb",
        "f2d4b1262ca216f4aee403a20d7c437e8acf483a",
        "f620a42282907d04ce5c903f854f344353bcb777",
        "0bb5f88272722ddc29c25568d42914813f6de17c",
        "76e26ff288e11ef8edf9312a5e7ee9bf0c50cf43",
        "d84d70748d2ee2ea756f963c5cf49b587059c4a9",
        "55daa3807db216e0a35afbf8c4f9fd6de165319d",
        "e9a44fabc5fff0912a4b281aec98410137e8da8b",
        "24cc0e3734497f698400621736077d9eb76da6a9",
        "906e0268163374e07bf4ecb4dae03b734f44ae40",
        "2877fa097b9c2580071933e6106b7b608c70cd60",
        "d66cf6cad0d6d1c10061f29ec20a79cf507effac",
        "55e2d15c1d7e04fe1c3fc1bca464f6737958b7af",
        "5fd9eacd785e626e3e8b72e1d4f7da20db61fad4",
        "a5a7f6e4493a4cb51c34a4a7519e6f83f864fddb",
        "6bdbbbe5295fee5739a7e4747716ce88b06cbe84",
        "e099acd9514668911e336732eee09848b1fc319f",
        "41080f14c6cbdebbc5fe633b26f27a95cdde775c",
        "4c602d8d85a4f13ac1a30f9cae0c425f9d9fde00",
        "b7b42d19ae6be209c36efe0c5dfe5bde4d306c43",
        "11e920cd4ed45c60c05a916e48a942f9e39c770b",
        "2a7237734453edb508687d4fcec7e027f10be533",
        "b5d4dfbd4ced11e3134ebeedb5233e57bfb82ccc",
        "6444cd62a8468402ffdd46685ce21e337a238ce6",
        "4f8620d09aa7a1f131dca718d89e74d9476611fe",
        "e180f5f16991aa42bd46d35773a9c8fb4172bedb",
        "9d8202fb77261222d9171118fc9ee72a1c567454",
        "562ecf8a430f8e1056e3619bae33628e9a1d0a4e",
        "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f",
        "851880ff7adea68af146cd4fb9214f491b4ff8d7",
        "843c30316b74e98e9c38c11ff275bbdc7b69e46d",
        "9bfb90e2acd16502945af378546bcc419c4bcfb4",
        "ebbc830bd617b41a71e8cdc8884197075e7ce856",
        "dccf4bd5fdfcaecbd3bc4c140988452284da9978",
        "60fc5d6a45f329c5d4c4ea95e9a4082054d201b4",
        "bebc42d2d3d1e5fb8ad8895c2dcef2d68a6c279a",
        "0060f2a7e34b6e4d459f560197ef93243732a400",
        "3a16082d1bf09b604907ec6908b9893ca3e937c0",
        "6a259313b592f17840cde208eed964698df0148a",
    ];

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_long_input_reduces_correctly() {
        // 100k of 0xff exercises the chunked modular reduction.
        let data = vec![0xffu8; 100_000];
        // Reference value computed with the canonical zlib algorithm.
        let mut a: u64 = 1;
        let mut b: u64 = 0;
        for &byte in &data {
            a = (a + u64::from(byte)) % 65521;
            b = (b + a) % 65521;
        }
        assert_eq!(adler32(&data), ((b as u32) << 16) | a as u32);
    }

    #[test]
    fn sha1_known_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(&sha1(&vec![b'a'; 1_000_000])),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
        let pattern: Vec<u8> = (0..130u32).map(|i| (i * 31 + 7) as u8).collect();
        for (n, want) in PATTERN_DIGESTS.iter().enumerate() {
            assert_eq!(hex(&sha1(&pattern[..n])), *want, "length {n}");
        }
    }

    #[test]
    fn sha1_multiblock_padding_edge() {
        // 55, 56, 63, 64, 119, 120 byte messages hit every padding branch:
        // the length field fits in the tail block or spills into a second.
        for (n, want) in [
            (55, "cef734ba81a024479e09eb5a75b6ddae62e6abf1"),
            (56, "901305367c259952f4e7af8323f480d59f81335b"),
            (63, "0ddc4e0cccd9a12850deb5abb0853a4425559fec"),
            (64, "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163"),
            (119, "4300320394f7ee239bcdce7d3b8bcee173a0cd5c"),
            (120, "ceb2821639c4b6dcb10bce0e522ca2e608ce056d"),
        ] {
            assert_eq!(hex(&sha1(&vec![b'x'; n])), want, "length {n}");
        }
    }
}
