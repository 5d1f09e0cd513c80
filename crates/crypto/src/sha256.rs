//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! Everything that hashes — request and batch digests, HMAC tags, the
//! key-value store's Merkle digest — ends in one function,
//! `compress_blocks(&mut state, &[u8])`, which runs the compression function
//! over whole 64-byte blocks straight out of the caller's slice. It has two
//! implementations with bit-identical output:
//!
//! * **Portable** — scalar code with a 16-word rolling message schedule. It
//!   runs on every CPU, is the oracle the tests compare against, and is
//!   callable on its own as [`sha256_portable`].
//! * **SHA-NI** — the x86-64 SHA extensions (`sha256rnds2` / `sha256msg1` /
//!   `sha256msg2` through `std::arch`), two rounds per instruction. It runs
//!   when `is_x86_feature_detected!` finds `sha`, `ssse3` and `sse4.1` at
//!   run time (the answer is cached by `std` in an atomic, so the check is a
//!   load and a branch per call). [`backend`] names the path in use.
//!
//! Nothing selects the path but the CPU: there is no cargo feature,
//! environment variable or configuration knob.
//!
//! # Unsafe
//!
//! The private `sha_ni` module holds the crate's only `unsafe`: the call
//! into a `#[target_feature]` function and the unaligned vector loads and
//! stores inside it. The call is sound because it sits behind the run-time
//! feature check in the same function; the loads and stores are sound
//! because every pointer comes from a slice or array whose length the
//! surrounding safe code has just established (`chunks_exact(64)` blocks, the
//! 64-entry round-constant table, the two halves of the 8-word state). The
//! module's one entry point is a safe function.
//!
//! Both paths are validated against the NIST vectors and against each other
//! on every short length and on random inputs with random `update` splits.

/// Output size of SHA-256 in bytes.
pub const OUTPUT_LEN: usize = 32;

/// Block size of SHA-256 in bytes.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers.
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

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 prime numbers.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use seemore_crypto::Sha256;
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Whole blocks are compressed where they lie; only the tail is copied.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        compress_blocks(&mut self.state, blocks);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; OUTPUT_LEN] {
        finish(
            compress_blocks,
            &mut self.state,
            &mut self.buffer,
            self.buffer_len,
            self.total_len,
        )
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// One-shot SHA-256 of `data` on the portable path, whatever the CPU offers.
///
/// The reference the accelerated path is tested against, and what the
/// micro-benchmarks time next to [`sha256`]; protocol code calls [`sha256`].
pub fn sha256_portable(data: &[u8]) -> [u8; OUTPUT_LEN] {
    one_shot(compress_blocks_portable, data)
}

/// Which compression path [`Sha256`] uses on this CPU: `"sha-ni"` or
/// `"portable"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        return "sha-ni";
    }
    "portable"
}

/// The eight working words of the hash state.
type State = [u32; 8];

/// The compression function over `blocks`, whose length must be a multiple
/// of [`BLOCK_LEN`]: SHA-NI where the CPU has it, portable otherwise.
fn compress_blocks(state: &mut State, blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    if blocks.is_empty() {
        // Most `update`s are short fields that only fill the buffer.
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if sha_ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// SHA-256 of `data` through one given compression function.
fn one_shot(compress: impl Fn(&mut State, &[u8]), data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut state = H0;
    let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
    compress(&mut state, blocks);
    let mut last = [0u8; BLOCK_LEN];
    last[..tail.len()].copy_from_slice(tail);
    finish(
        compress,
        &mut state,
        &mut last,
        tail.len(),
        data.len() as u64,
    )
}

/// Pads the final partial block in place (`buffer[..used]` holds the
/// message's tail), compresses it and serializes the state.
fn finish(
    compress: impl Fn(&mut State, &[u8]),
    state: &mut State,
    buffer: &mut [u8; BLOCK_LEN],
    used: usize,
    total_len: u64,
) -> [u8; OUTPUT_LEN] {
    /// Offset of the 64-bit message length in the last block.
    const LEN_AT: usize = BLOCK_LEN - 8;

    buffer[used] = 0x80;
    buffer[used + 1..].fill(0);
    if used >= LEN_AT {
        // No room for the length after the terminator: it goes in a block
        // of its own.
        compress(state, buffer);
        buffer.fill(0);
    }
    buffer[LEN_AT..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(state, buffer);

    let mut out = [0u8; OUTPUT_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state.iter()) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable compression function: one block at a time, the message
/// schedule kept as a rolling window of the last 16 words.
fn compress_blocks_portable(state: &mut State, blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            if i >= 16 {
                let w15 = w[(i + 1) % 16];
                let w2 = w[(i + 14) % 16];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[i % 16] = w[i % 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[(i + 9) % 16])
                    .wrapping_add(s1);
            }
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i % 16]);
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

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-NI compression function and the run-time check that guards it.
/// The only module in the crate that contains `unsafe`.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{State, BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every instruction set `compress_blocks_ni` is
    /// compiled for beyond the x86-64 baseline.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses `blocks` into `state` with the SHA extensions and returns
    /// `true`, or returns `false` with `state` untouched when the CPU lacks
    /// them.
    pub(super) fn compress_blocks(state: &mut State, blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` has just confirmed, on the running CPU, each
        // of the target features `compress_blocks_ni` is compiled with.
        unsafe { compress_blocks_ni(state, blocks) };
        true
    }

    /// Four rounds: `wk` holds four schedule words with their round
    /// constants already added. `sha256rnds2` consumes the low two, so the
    /// high two are shuffled down for the second pair.
    #[target_feature(enable = "sha")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words `W[t..t+4]` from the previous sixteen,
    /// held oldest first in `w0..w3`: `msg1` adds σ0 of `W[t-15..]`, the
    /// `alignr` supplies `W[t-7..]`, `msg2` adds σ1 of `W[t-2..]`.
    #[target_feature(enable = "sha,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(partial, w3)
    }

    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress_blocks_ni(state: &mut State, blocks: &[u8]) {
        // Byte shuffle that turns four big-endian message words into lanes.
        let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let (low, high) = state.split_at_mut(4);

        // SAFETY: `low` and `high` are the two four-word halves of the
        // eight-word state, 16 readable bytes each; `loadu` needs no
        // alignment.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(low.as_ptr().cast()),
                _mm_loadu_si128(high.as_ptr().cast()),
            )
        };
        // The round instruction wants the state as (A,B,E,F) and (C,D,G,H).
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [abef; 4];
            for (lane, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
                // SAFETY: `chunks_exact(16)` yields slices of exactly 16
                // readable bytes; `loadu` needs no alignment.
                let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
                *lane = _mm_shuffle_epi8(raw, big_endian);
            }
            // `w` is a window on the schedule: at step `t` it holds
            // `W[4t..4t + 16]`, four words to a lane, oldest first.
            for (t, k) in K.chunks_exact(4).enumerate() {
                // SAFETY: `chunks_exact(4)` over `[u32; 64]` yields slices of
                // exactly four words, 16 readable bytes; `loadu` needs no
                // alignment.
                let k = unsafe { _mm_loadu_si128(k.as_ptr().cast()) };
                rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w[0], k));
                let next = if t < 12 {
                    schedule(w[0], w[1], w[2], w[3])
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: as for the loads above — `low` and `high` are 16 writable
        // bytes each, and `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(low.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(high.as_mut_ptr().cast(), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One-shot SHA-256 with every block going through the SHA-NI
    /// compression function, or `None` on a CPU without it.
    pub(super) fn sha256_sha_ni(data: &[u8]) -> Option<[u8; OUTPUT_LEN]> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni::available() {
            let compress = |state: &mut State, blocks: &[u8]| {
                assert!(sha_ni::compress_blocks(state, blocks));
            };
            return Some(one_shot(compress, data));
        }
        None
    }

    /// Says once per test run, where the log shows it (straight to stderr,
    /// past the harness's capture), that the tests comparing the two paths
    /// had only one to run.
    pub(super) fn note_portable_only() {
        use std::io::Write;
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let _ = writeln!(
                std::io::stderr(),
                "sha256: no SHA extensions on this CPU: the tests ran portable-only, \
                 the SHA-NI path is NOT covered"
            );
        });
    }

    /// Asserts a known answer on the portable path, on the SHA-NI path and
    /// through the dispatching hasher.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(hex(&sha256_portable(data)), expected, "portable path");
        match sha256_sha_ni(data) {
            Some(digest) => assert_eq!(hex(&digest), expected, "SHA-NI path"),
            None => note_portable_only(),
        }
        assert_eq!(hex(&sha256(data)), expected, "dispatching hasher");
    }

    #[test]
    fn nist_empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn nist_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn nist_448_bit_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_896_bit_message() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn paths_agree_on_every_short_length() {
        // 0..=300 crosses every padding case (0, 55, 56, 63, 64 bytes in the
        // last block) with zero to four whole blocks in front.
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 13) as u8).collect();
        let accelerated = sha256_sha_ni(b"").is_some();
        if !accelerated {
            note_portable_only();
        }
        for len in 0..=data.len() {
            let expected = sha256_portable(&data[..len]);
            assert_eq!(sha256(&data[..len]), expected, "hasher, length {len}");
            if accelerated {
                let digest = sha256_sha_ni(&data[..len]);
                assert_eq!(digest, Some(expected), "SHA-NI, length {len}");
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        for chunk_size in [1usize, 3, 63, 64, 65, 128, 1000] {
            let mut hasher = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let one_shot = sha256(&data);
            let mut hasher = Sha256::new();
            let (a, b) = data.split_at(len / 2);
            hasher.update(a);
            hasher.update(b);
            assert_eq!(hasher.finalize(), one_shot, "length {len}");
        }
    }

    #[test]
    fn distinct_inputs_produce_distinct_digests() {
        assert_ne!(sha256(b"request-1"), sha256(b"request-2"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn default_and_debug() {
        let hasher = Sha256::default();
        assert_eq!(hasher.finalize(), sha256(b""));
        let dbg = format!("{:?}", Sha256::new());
        assert!(dbg.contains("Sha256"));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{note_portable_only, sha256_sha_ni};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Splitting the input arbitrarily never changes the digest.
        #[test]
        fn incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        split in 0usize..2048) {
            let split = split.min(data.len());
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            prop_assert_eq!(hasher.finalize(), sha256(&data));
        }

        /// Appending a byte always changes the digest (no trivial length
        /// extension collisions on the happy path).
        #[test]
        fn extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    extra in any::<u8>()) {
            let mut extended = data.clone();
            extended.push(extra);
            prop_assert_ne!(sha256(&data), sha256(&extended));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// The portable one-shot is the oracle: the SHA-NI one-shot and the
        /// dispatching hasher fed in arbitrary pieces must both match it, on
        /// inputs long enough for many blocks per `update`.
        #[test]
        fn paths_agree_on_random_inputs_and_splits(
            data in proptest::collection::vec(any::<u8>(), 0..65_537),
            cuts in proptest::collection::vec(0usize..65_537, 0..12),
        ) {
            let expected = sha256_portable(&data);
            match sha256_sha_ni(&data) {
                Some(digest) => prop_assert_eq!(digest, expected),
                None => note_portable_only(),
            }

            let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut from = 0;
            for cut in cuts {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(hasher.finalize(), expected);
        }
    }
}
