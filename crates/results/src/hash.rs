//! SHA-256, implemented locally because the build environment is
//! offline (see `vendor/README.md` for the same constraint on the other
//! shimmed dependencies).
//!
//! The store only needs a *stable, collision-resistant content address*
//! — no cryptographic agility, no HMAC — so the plain FIPS 180-4
//! algorithm with an incremental [`Sha256::update`] API is enough. The
//! incremental API matters: workload programs carry multi-MiB data
//! arenas, and fingerprinting streams them through the compression
//! function without building a serialized copy first.
//!
//! **Dispatch.** [`Sha256::update`] hands each whole run of 64-byte
//! blocks to one `compress_blocks` call. On `x86_64`, when the CPU
//! reports the SHA extensions plus SSSE3 and SSE4.1 (detected at run
//! time; std caches the answer), the run goes through the SHA-NI
//! kernel in the private `sha_ni` module, the only `unsafe` code in
//! this crate. Everywhere else it loops the portable `compress`.
//!
//! The portable `compress` is the reference: it is the textbook
//! §6.2.2 round function, the fallback on every other CPU, and what
//! the differential tests compare the kernel against. Both paths yield
//! the same FIPS 180-4 digest, so fingerprints, store checksums and the
//! wire `sha` fields do not depend on which one ran.

/// Per FIPS 180-4 §4.2.2: the first 32 bits of the fractional parts of
/// the cube roots of the first 64 primes.
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
#[derive(Clone)]
pub struct Sha256 {
    /// Current hash state (H0..H7).
    state: [u32; 8],
    /// Partial input block awaiting compression.
    buf: [u8; 64],
    /// Bytes currently in `buf`.
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher (FIPS 180-4 §5.3.3 initial state).
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // Partial buffer and nothing left to absorb.
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the message and returns the 32-byte digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        // FIPS 180-4 §5.1.1: 0x80, zeros up to 56 mod 64, then the
        // 64-bit big-endian bit length: 9 to 72 bytes, absorbed at once.
        let pad = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[pad..pad + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&tail[..pad + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Finishes and formats the digest as lowercase hex.
    pub fn finish_hex(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.finish() {
            s.push(char::from(HEX[usize::from(b >> 4)]));
            s.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        s
    }
}

/// Compresses every 64-byte block of `blocks` into `state`, in order:
/// on the SHA-NI kernel when this CPU has it, else the portable
/// [`compress`].
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if sha_ni::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// [`compress_blocks`] without dispatch: loops the portable
/// [`compress`].
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunk is 64 bytes"));
    }
}

/// One compression round over a 64-byte block (FIPS 180-4 §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
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
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86 SHA extensions kernel (Gulley et al., *Intel SHA
/// Extensions*, 2013). `sha256rnds2` runs two rounds on a state split
/// into `ABEF` and `CDGH` lane order; `sha256msg1`/`sha256msg2` extend
/// the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Runs the kernel over `blocks` (a whole number of 64-byte blocks)
    /// and returns `true` if this CPU has the instructions it needs;
    /// returns `false`, leaving `state` untouched, if not.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let available = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if available {
            // SAFETY: the CPU supports every feature `kernel` enables
            // (checked just above; sse2 is baseline on x86_64).
            unsafe { kernel(state, blocks) };
        }
        available
    }

    /// Compresses each whole 64-byte block of `blocks` into `state`;
    /// a trailing partial block is ignored.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 32 bytes; two unaligned 16-byte loads
        // cover it exactly.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p: *const __m128i = block.as_ptr().cast();
            // SAFETY: `block` is 64 bytes; four unaligned 16-byte loads
            // cover it exactly.
            let (mut w0, mut w1, mut w2, mut w3) = (
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            );
            // Four rounds on schedule words `w` = W[4i..4i+4].
            macro_rules! rounds4 {
                ($w:expr, $i:expr) => {{
                    // SAFETY: i < 16, so the 16-byte load at K[4i] stays
                    // inside the 64-entry table.
                    let k = _mm_loadu_si128(K.as_ptr().add(4 * $i).cast());
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }
            // W[t..t+4] from the four groups before it, oldest first
            // (§6.2.2 step 1): σ0 terms in msg1, the W[t-7] terms by
            // alignr, σ1 terms in msg2.
            macro_rules! schedule {
                ($w16:expr, $w12:expr, $w8:expr, $w4:expr) => {{
                    let w7 = _mm_alignr_epi8($w4, $w8, 4);
                    let sum = _mm_add_epi32(_mm_sha256msg1_epu32($w16, $w12), w7);
                    _mm_sha256msg2_epu32(sum, $w4)
                }};
            }
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            // Named registers rotate through the schedule, so each group
            // overwrites the oldest.
            for g in 1..4 {
                w0 = schedule!(w0, w1, w2, w3);
                rounds4!(w0, 4 * g);
                w1 = schedule!(w1, w2, w3, w0);
                rounds4!(w1, 4 * g + 1);
                w2 = schedule!(w2, w3, w0, w1);
                rounds4!(w2, 4 * g + 2);
                w3 = schedule!(w3, w0, w1, w2);
                rounds4!(w3, 4 * g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let out: *mut __m128i = state.as_mut_ptr().cast();
        // SAFETY: `state` is 32 bytes; two unaligned 16-byte stores
        // cover it exactly.
        _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(out.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// One-shot convenience: the hex digest of `data`.
pub fn sha256_hex(data: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(data);
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP reference vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        // Streamed in uneven chunks to exercise the buffering path.
        let data = [b'a'; 997];
        let mut fed = 0;
        while fed < 1_000_000 {
            let n = data.len().min(1_000_000 - fed);
            h.update(&data[..n]);
            fed += n;
        }
        assert_eq!(
            h.finish_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// The digest of `data` computed only through the portable
    /// [`compress`], with its own padding: the reference the dispatched
    /// hasher must match on every host.
    fn portable_digest(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256::new().state;
        compress_blocks_portable(&mut state, &msg);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// `len` bytes from a fixed-seed LCG.
    fn lcg_bytes(len: usize) -> Vec<u8> {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn dispatched_matches_portable_for_every_short_length() {
        let data = lcg_bytes(300);
        for len in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..len]);
            assert_eq!(h.finish(), portable_digest(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn dispatched_matches_portable_on_a_large_split_message() {
        let data = lcg_bytes(3 << 20);
        let want = portable_digest(&data);
        for split in [0, 1, 63, 64, 65, data.len() - 1] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 127, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish_hex(), sha256_hex(&data), "split at {split}");
        }
    }
}
