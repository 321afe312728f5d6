//! CRC-32 (ISO-HDLC, as used by PNG), Adler-32 (as used by zlib), and a
//! fast non-cryptographic 64-bit content hash (used by the tile-encode
//! cache to content-address identical pixel runs across frames).

/// Slicing-by-8 tables for polynomial 0xEDB88320, built at compile time.
/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][n]` is the
/// CRC register after byte `n` followed by `k` zero bytes, so eight table
/// lookups advance the register by a whole 8-byte word.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[k - 1][n];
            tables[k][n] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            n += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 (PNG variant: init all-ones, final XOR all-ones).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a new CRC computation.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes: eight at a time through the slicing tables, the tail
    /// one at a time.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let byte = |x: u32, shift: u32| ((x >> shift) & 0xff) as usize;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][byte(lo, 0)]
                ^ t[6][byte(lo, 8)]
                ^ t[5][byte(lo, 16)]
                ^ t[4][byte(lo, 24)]
                ^ t[3][byte(hi, 0)]
                ^ t[2][byte(hi, 8)]
                ^ t[1][byte(hi, 16)]
                ^ t[0][byte(hi, 24)];
        }
        for &b in words.remainder() {
            crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Streaming Adler-32 (RFC 1950 §8.2).
#[derive(Debug, Clone)]
pub struct Adler32 {
    a: u32,
    b: u32,
}

const ADLER_MOD: u32 = 65_521;

impl Default for Adler32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Adler32 {
    /// Start a new Adler-32 computation.
    pub fn new() -> Self {
        Adler32 { a: 1, b: 0 }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        // Process in chunks small enough that b cannot overflow before the
        // modulo (5552 is the standard bound from the zlib sources).
        for chunk in data.chunks(5552) {
            for &byte in chunk {
                self.a += byte as u32;
                self.b += self.a;
            }
            self.a %= ADLER_MOD;
            self.b %= ADLER_MOD;
        }
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// One-shot Adler-32 of `data`.
pub fn adler32(data: &[u8]) -> u32 {
    let mut a = Adler32::new();
    a.update(data);
    a.finish()
}

/// Multiplier for [`fast_hash64`]: the 64-bit golden-ratio constant.
const FH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The 64-bit state [`fast_hash64`] starts from (before the length is
/// folded in).
const FH_INIT: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply-rotate round: mix the next eight input bytes into `h`.
#[inline]
fn fh_round(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FH_K).rotate_left(27)
}

/// Run `data` through the rounds one word after the other, starting from
/// `h`, and finish with a splitmix64-style avalanche.
fn fh_finish(mut h: u64, data: &[u8]) -> u64 {
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        h = fh_round(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = fh_round(h, u64::from_le_bytes(buf));
    }
    // splitmix64 finalizer.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Fast non-cryptographic 64-bit hash over `data`.
///
/// Consumes eight bytes per multiply-rotate round and finishes with a
/// splitmix64-style avalanche so single-bit input changes diffuse across
/// the whole output. Length is folded into the seed, so a prefix and its
/// zero-padded extension hash differently. Suitable for content-addressed
/// caches and dedup tables; NOT for adversarial inputs or wire integrity
/// (use [`crc32`] there).
pub fn fast_hash64(data: &[u8]) -> u64 {
    fh_finish(FH_INIT ^ (data.len() as u64).wrapping_mul(FH_K), data)
}

/// A 64-bit hash of `data` under a caller-chosen `seed`, for tables keyed
/// by bytes a peer supplies.
///
/// Same rounds and finish as [`fast_hash64`] (whose values it does not
/// reproduce), run as four independent lanes over 32-byte blocks: the
/// lanes' multiplies overlap instead of waiting for each other, so it is
/// about three times as fast on a kilobyte and up. Every lane starts from
/// the seed and every round mixes the running state with the next word, so
/// *which* inputs collide depends on the seed: a sender who does not know
/// it cannot prepare a colliding pair ahead of time. That is a hurdle, not
/// a cryptographic guarantee.
pub fn keyed_hash64(seed: u64, data: &[u8]) -> u64 {
    let mut lanes = [0, 1, 2, 3].map(|lane| seed ^ FH_INIT.rotate_left(16 * lane));
    let mut blocks = data.chunks_exact(32);
    for block in blocks.by_ref() {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fh_round(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
            );
        }
    }
    let folded = lanes[1..]
        .iter()
        .fold(lanes[0], |h, &lane| fh_round(h, lane));
    fh_finish(
        folded ^ (data.len() as u64).wrapping_mul(FH_K),
        blocks.remainder(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC-32 loop `Crc32::update` replaced: the oracle
    /// for the slicing-by-8 one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut state = 0xffff_ffffu32;
        for &b in data {
            state = CRC_TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
        }
        state ^ 0xffff_ffff
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the byte loop at every length up to 4 KiB,
        /// every start offset within a word and any streaming split.
        #[test]
        fn slicing_by_8_matches_the_byte_loop(
            buf in proptest::collection::vec(any::<u8>(), 0..=4096 + 8),
            start in 0usize..8,
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let data = &buf[start.min(buf.len())..];
            let data = &data[..data.len().min(4096)];
            let want = crc32_bytewise(data);
            prop_assert_eq!(crc32(data), want);
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            at.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for &to in at.iter().chain(std::iter::once(&data.len())) {
                c.update(&data[from..to]);
                from = to;
            }
            prop_assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn slicing_by_8_matches_the_byte_loop_on_short_inputs() {
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 151 + 29) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_golden_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // PNG spec example: CRC of "IEND" chunk type with empty data.
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn adler32_golden_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
        assert_eq!(adler32(b"123456789"), 0x091E_01DE);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut c = Crc32::new();
        let mut a = Adler32::new();
        for chunk in data.chunks(97) {
            c.update(chunk);
            a.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
        assert_eq!(a.finish(), adler32(&data));
    }

    #[test]
    fn fast_hash64_is_deterministic_and_length_aware() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(fast_hash64(&data), fast_hash64(&data));
        // A prefix must not collide with its zero-padded extension.
        let mut padded = data[..100].to_vec();
        padded.extend_from_slice(&[0u8; 8]);
        assert_ne!(fast_hash64(&data[..100]), fast_hash64(&padded));
        assert_ne!(fast_hash64(&[]), fast_hash64(&[0]));
    }

    #[test]
    fn fast_hash64_values_are_pinned() {
        // Cache keys and warm files carry these: the function may get
        // faster, never different.
        assert_eq!(fast_hash64(b""), 0x37e8_d294_6949_7cd2);
        assert_eq!(fast_hash64(b"adshare"), 0xfaef_8366_b69c_ecf1);
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(fast_hash64(&data), 0xc277_2787_8668_7d3a);
    }

    #[test]
    fn keyed_hash_covers_every_byte_and_the_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 + 7) as u8).collect();
        let whole = keyed_hash64(9, &data);
        assert_eq!(whole, keyed_hash64(9, &data));
        assert_ne!(whole, keyed_hash64(10, &data));
        for len in 0..data.len() {
            assert_ne!(keyed_hash64(9, &data[..len]), whole, "prefix {len}");
        }
        for at in 0..data.len() {
            let mut flipped = data.clone();
            flipped[at] ^= 1;
            assert_ne!(keyed_hash64(9, &flipped), whole, "byte {at}");
        }
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(keyed_hash64(9, &padded), whole);
    }

    #[test]
    fn keyed_hash_moves_collisions_with_the_seed() {
        // Two 64-byte inputs built to collide under seed 0: they differ in
        // the first word of each block, and the second block's difference
        // cancels what the first left in lane 0.
        let lane0 = FH_INIT;
        let (a1, b1, a2) = (1u64, 2u64, 3u64);
        let b2 = a2 ^ fh_round(lane0, a1) ^ fh_round(lane0, b1);
        let pack = |x: u64, y: u64| {
            let mut bytes = vec![0x5au8; 64];
            bytes[..8].copy_from_slice(&x.to_le_bytes());
            bytes[32..40].copy_from_slice(&y.to_le_bytes());
            bytes
        };
        let (a, b) = (pack(a1, a2), pack(b1, b2));
        assert_ne!(a, b);
        assert_eq!(keyed_hash64(0, &a), keyed_hash64(0, &b));
        assert_ne!(keyed_hash64(0xfeed, &a), keyed_hash64(0xfeed, &b));
    }

    #[test]
    fn fast_hash64_single_bit_flip_diffuses() {
        let a = vec![0x5au8; 1024];
        let mut b = a.clone();
        b[512] ^= 0x01;
        let (ha, hb) = (fast_hash64(&a), fast_hash64(&b));
        assert_ne!(ha, hb);
        // Avalanche sanity: a decent fraction of output bits flip.
        let flipped = (ha ^ hb).count_ones();
        assert!(flipped >= 16, "weak diffusion: {flipped} bits");
    }

    #[test]
    fn fast_hash64_no_trivial_collisions_on_tile_like_inputs() {
        // 256 distinct single-colour "tiles" must produce 256 distinct
        // hashes (the cache's common case: flat UI regions).
        let mut seen = std::collections::HashSet::new();
        for c in 0..=255u8 {
            let tile = vec![c; 64 * 64 * 4];
            assert!(seen.insert(fast_hash64(&tile)), "collision at {c}");
        }
    }

    #[test]
    fn adler_no_overflow_on_long_ff_runs() {
        let data = vec![0xffu8; 1 << 20];
        // Just checking it terminates and matches a two-chunk computation.
        let whole = adler32(&data);
        let mut st = Adler32::new();
        st.update(&data[..1 << 19]);
        st.update(&data[1 << 19..]);
        assert_eq!(st.finish(), whole);
    }
}
