//! SHA-256 (FIPS 180-4), implemented from the specification, with a
//! kernel for the x86 SHA extensions chosen at run time.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .expect("SHA-256 input too long");
        // Fill a partial buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        // Whole blocks straight from input.
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            data = rest;
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, then 64-bit big-endian length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_len(&pad[..pad_len + 8]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `update` without advancing `total_len` (used for padding only).
    fn update_no_len(&mut self, data: &[u8]) {
        let saved = self.total_len;
        self.update(data);
        self.total_len = saved;
    }

    /// Run one block through the compression function, on the CPU's SHA
    /// instructions when it has them and on the portable loop otherwise.
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            // SAFETY: `sha_ni_detected` has just confirmed that this CPU
            // supports sha, sse2, ssse3 and sse4.1, the features
            // `compress_sha_ni` is compiled for.
            unsafe { compress_sha_ni(&mut self.state, block) };
            return;
        }
        compress_portable(&mut self.state, block);
    }
}

/// True when the CPU can run [`compress_sha_ni`]. The standard library
/// caches the detection, so this is a few loads per call.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    std::is_x86_feature_detected!("sha")
        && std::is_x86_feature_detected!("sse2")
        && std::is_x86_feature_detected!("ssse3")
        && std::is_x86_feature_detected!("sse4.1")
}

/// The compression function written from FIPS 180-4 §6.2.2: the fallback
/// on CPUs without SHA instructions and the oracle the hardware kernel is
/// tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86 SHA extensions. `sha256rnds2`
/// runs two rounds on the state packed as ABEF and CDGH (Intel's layout,
/// highest lane first); `sha256msg1` and `sha256msg2` extend the message
/// schedule four words at a time.
///
/// # Safety
///
/// The caller must have checked that the CPU supports `sha`, `sse2`,
/// `ssse3` and `sse4.1`, for instance with [`sha_ni_detected`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    let state_ptr = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is 32 bytes, two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state_ptr),
            _mm_loadu_si128(state_ptr.add(1)),
        )
    };
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
    let (abef_in, cdgh_in) = (abef, cdgh);

    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // A ring of the last 16 schedule words, four per vector.
    let mut w = [_mm_setzero_si128(); 4];
    for (i, words) in w.iter_mut().enumerate() {
        // SAFETY: `block` is 64 bytes, so bytes 16i..16i+16 lie inside it
        // for i < 4; the load is unaligned.
        let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast::<__m128i>()) };
        *words = _mm_shuffle_epi8(raw, bswap);
    }
    for i in 0..16 {
        if i >= 4 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], for the
            // four words t = 4i..4i+4.
            let partial = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
            let partial =
                _mm_add_epi32(partial, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
            w[i % 4] = _mm_sha256msg2_epu32(partial, w[(i + 3) % 4]);
        }
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w[i % 4], k);
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgfe = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above, two unaligned 16-byte stores into
    // the 32-byte `state`.
    unsafe {
        _mm_storeu_si128(state_ptr, dcba);
        _mm_storeu_si128(state_ptr.add(1), hgfe);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Render a digest as lowercase hex (for logs and fingerprints).
pub fn hex(digest: &[u8]) -> String {
    let mut s = String::with_capacity(digest.len() * 2);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_hex(data: &[u8]) -> String {
        hex(&sha256(data))
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let one_shot = sha256(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk_size in [1, 3, 63, 64, 65, 127] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn exactly_55_56_64_byte_messages() {
        // Padding edge cases around the length-field boundary.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(sha256(b"hello"), sha256(b"hellp"));
        assert_ne!(sha256(b""), sha256(b"\x00"));
    }

    #[test]
    fn hardware_kernel_matches_portable_kernel() {
        #[cfg(target_arch = "x86_64")]
        let hardware = sha_ni_detected();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            eprintln!("no SHA instructions on this CPU: checking the portable kernel only");
        }
        gm_des::check::check("hardware_kernel_matches_portable_kernel", 512, |g| {
            let state: [u32; 8] = std::array::from_fn(|_| g.u64() as u32);
            let block: [u8; 64] = std::array::from_fn(|_| g.u64() as u8);
            let mut expected = state;
            compress_portable(&mut expected, &block);

            let mut hasher = Sha256::new();
            hasher.state = state;
            hasher.compress(&block);
            assert_eq!(hasher.state, expected, "dispatched kernel");

            #[cfg(target_arch = "x86_64")]
            if hardware {
                let mut got = state;
                // SAFETY: `hardware` is true only when `sha_ni_detected`
                // found every feature `compress_sha_ni` needs.
                unsafe { compress_sha_ni(&mut got, &block) };
                assert_eq!(got, expected, "hardware kernel");
            }
        });
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
    }
}
