//! Canonical Huffman codes (RFC 1951 §3.2.2): encoder tables with the codes
//! stored ready to emit, a table-driven decoder, and the length-limited
//! code builder (package-merge) for the compressor.

use crate::{Error, Result};

/// Maximum code length allowed in the litlen/dist alphabets.
pub const MAX_BITS: usize = 15;

/// Largest alphabet any DEFLATE code has (the fixed litlen code).
pub const MAX_SYMBOLS: usize = 288;

/// An encoder-side canonical code table: per-symbol (code, length).
#[derive(Debug, Clone)]
pub struct EncTable {
    /// `codes[i]` is the canonical code for symbol i (0 if unused),
    /// **bit-reversed**: DEFLATE packs Huffman codes starting from the
    /// most-significant bit, the bit writer is LSB-first, so the reversal is
    /// done once here instead of on every write.
    pub codes: [u16; MAX_SYMBOLS],
    /// `lens[i]` is the code length for symbol i (0 if unused).
    pub lens: [u8; MAX_SYMBOLS],
}

impl EncTable {
    /// Build canonical codes from code lengths (at most [`MAX_SYMBOLS`] of
    /// at most [`MAX_BITS`] bits).
    pub const fn from_lens(lens: &[u8]) -> Self {
        let mut bl_count = [0u16; MAX_BITS + 1];
        let mut i = 0;
        while i < lens.len() {
            bl_count[lens[i] as usize] += 1;
            i += 1;
        }
        bl_count[0] = 0;
        let mut next_code = [0u16; MAX_BITS + 1];
        let mut bits = 1;
        while bits <= MAX_BITS {
            next_code[bits] = (next_code[bits - 1] + bl_count[bits - 1]) << 1;
            bits += 1;
        }
        let mut table = EncTable {
            codes: [0; MAX_SYMBOLS],
            lens: [0; MAX_SYMBOLS],
        };
        let mut i = 0;
        while i < lens.len() {
            let l = lens[i];
            if l > 0 {
                table.codes[i] = next_code[l as usize].reverse_bits() >> (16 - l);
                next_code[l as usize] += 1;
            }
            table.lens[i] = l;
            i += 1;
        }
        table
    }
}

/// A decoder for one canonical Huffman code.
///
/// `N` is the size of the primary table, a power of two: one load on the
/// next `log2(N)` input bits resolves every code that short, with whatever
/// the alphabet attaches to the symbol (`payload`) already folded into the
/// entry. Longer codes, and bit patterns an incomplete code leaves
/// unassigned, find a zero entry and take the canonical count/offset walk
/// instead — no sub-tables, so the whole decoder is a fixed `4·N` bytes plus
/// under 1 KiB whatever the code lengths are.
///
/// Entry layout: bits 0..8 = bits to consume (code length plus the
/// payload's low byte, the extra-bit count), bits 8..28 = the payload's
/// bits 8..28 (value and flags), bits 28..32 = code length.
#[derive(Debug, Clone)]
pub struct Decoder<const N: usize> {
    table: [u32; N],
    /// count[len] = number of codes of that length.
    count: [u16; MAX_BITS + 1],
    /// first[len] = canonical code of the first symbol of that length.
    first: [u16; MAX_BITS + 1],
    /// offset[len] = index in `symbols` of the first symbol of that length.
    offset: [u16; MAX_BITS + 1],
    /// Symbols sorted by (code length, symbol value).
    symbols: [u16; MAX_SYMBOLS],
    payload: &'static [u32],
}

impl<const N: usize> Decoder<N> {
    const ROOT_BITS: usize = N.trailing_zeros() as usize;

    /// Build from per-symbol code lengths; `payload[sym]` is what a decoded
    /// `sym` yields (low byte: number of extra bits to consume with the
    /// code; bits 8..28: anything). Lengths of zero mean the symbol is
    /// absent. Returns an error for over-long, empty and over-subscribed
    /// codes; an incomplete code is accepted and its unassigned patterns
    /// fail in [`decode`](Self::decode).
    pub fn from_lens(lens: &[u8], payload: &'static [u32]) -> Result<Self> {
        assert!(N.is_power_of_two() && Self::ROOT_BITS <= MAX_BITS);
        assert!(lens.len() <= MAX_SYMBOLS && lens.len() <= payload.len());
        let mut count = [0u16; MAX_BITS + 1];
        for &l in lens {
            if l as usize > MAX_BITS {
                return Err(Error::Invalid {
                    what: "huffman code",
                    detail: "length > 15",
                });
            }
            count[l as usize] += 1;
        }
        if count[0] as usize == lens.len() {
            return Err(Error::Invalid {
                what: "huffman code",
                detail: "no symbols",
            });
        }
        count[0] = 0;
        // Check for over-subscription (Kraft sum must not exceed 1).
        let mut left = 1i32;
        for &c in &count[1..] {
            left = (left << 1) - c as i32;
            if left < 0 {
                return Err(Error::Invalid {
                    what: "huffman code",
                    detail: "over-subscribed",
                });
            }
        }
        let mut first = [0u16; MAX_BITS + 1];
        let mut offset = [0u16; MAX_BITS + 1];
        for len in 1..=MAX_BITS {
            first[len] = (first[len - 1] + count[len - 1]) << 1;
            offset[len] = offset[len - 1] + count[len - 1];
        }

        let mut table = [0u32; N];
        let mut symbols = [0u16; MAX_SYMBOLS];
        let mut next = offset;
        let mut code = first;
        for (sym, &l) in lens.iter().enumerate() {
            let len = l as usize;
            if len == 0 {
                continue;
            }
            symbols[next[len] as usize] = sym as u16;
            next[len] += 1;
            if len <= Self::ROOT_BITS {
                // Every index whose low `len` bits are the (reversed) code.
                let entry = Self::entry(payload[sym], l);
                let start = (code[len].reverse_bits() >> (16 - len)) as usize;
                for slot in table[start..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            }
            code[len] += 1;
        }
        Ok(Decoder {
            table,
            count,
            first,
            offset,
            symbols,
            payload,
        })
    }

    #[inline(always)]
    fn entry(payload: u32, len: u8) -> u32 {
        debug_assert!(payload >> 28 == 0);
        (payload + len as u32) | (len as u32) << 28
    }

    /// Resolve the code at the low end of `bits` (next stream bit in bit 0)
    /// to its table entry; the caller consumes `entry & 0xff` bits.
    #[inline(always)]
    pub fn decode(&self, bits: u64) -> Result<u32> {
        let entry = self.table[bits as usize & (N - 1)];
        if entry != 0 {
            Ok(entry)
        } else {
            self.decode_long(bits)
        }
    }

    /// The count/offset walk over codes longer than the primary table.
    /// Nothing shorter can match: a pattern that starts with a short code
    /// has a table entry.
    #[cold]
    fn decode_long(&self, bits: u64) -> Result<u32> {
        // The next 15 stream bits as a number, first bit most significant.
        let code = (bits as u16).reverse_bits() >> 1;
        for len in Self::ROOT_BITS + 1..=MAX_BITS {
            let index = (code >> (MAX_BITS - len)).wrapping_sub(self.first[len]);
            if index < self.count[len] {
                let sym = self.symbols[(self.offset[len] + index) as usize];
                return Ok(Self::entry(self.payload[sym as usize], len as u8));
            }
        }
        Err(Error::Invalid {
            what: "huffman code",
            detail: "invalid code word",
        })
    }
}

/// Compute length-limited Huffman code lengths for the given symbol
/// frequencies using the package-merge algorithm (Larmore & Hirschberg),
/// writing them to `lens` (parallel to `freqs`, at most [`MAX_SYMBOLS`]).
///
/// The lengths are in `0..=max_len` and form an *optimal, complete*
/// canonical code (Kraft sum exactly 1) whenever at least two symbols are
/// present.
///
/// Flat arrays only. Level 1 is the leaves sorted by `(freq, symbol)`;
/// level j merges the leaves with the packages (adjacent pairs) of level
/// j−1, leaves first on ties. Both inputs of a merge are sorted, so any
/// prefix of a level is a prefix of the leaves plus a prefix of the
/// packages, and a prefix of k packages is the first 2k elements one level
/// down. Walking back from "the first 2n−2 elements of the last level"
/// therefore needs, per level, only which positions hold packages — one
/// bit per element — and adds one to the depth of a leaf prefix each time.
pub fn build_lengths(freqs: &[u32], max_len: usize, lens: &mut [u8]) {
    assert!(max_len <= MAX_BITS);
    assert!(freqs.len() <= MAX_SYMBOLS && lens.len() == freqs.len());
    lens.fill(0);
    // Leaves as (freq, symbol) keys: the sort order is the tie-break.
    let mut leaves = [0u64; MAX_SYMBOLS];
    let mut n = 0;
    for (sym, &f) in freqs.iter().enumerate() {
        if f > 0 {
            leaves[n] = (f as u64) << 16 | sym as u64;
            n += 1;
        }
    }
    let leaves = &mut leaves[..n];
    match n {
        0 => return,
        1 => {
            // A single symbol still needs one bit on the wire.
            lens[(leaves[0] & 0xffff) as usize] = 1;
            return;
        }
        _ => {}
    }
    assert!(
        n <= (1usize << max_len),
        "alphabet too large for length limit"
    );
    leaves.sort_unstable();

    // Every level holds fewer than 2n elements; two weight arrays take
    // turns being the level below and the level being merged.
    let mut weights = ([0u64; 2 * MAX_SYMBOLS], [0u64; 2 * MAX_SYMBOLS]);
    let (mut prev, mut cur) = (&mut weights.0[..], &mut weights.1[..]);
    // Bit j of is_package[i]: element i of level j (0-based) is a package.
    let mut is_package = [0u16; 2 * MAX_SYMBOLS];
    for (w, &leaf) in prev.iter_mut().zip(leaves.iter()) {
        *w = leaf >> 16;
    }
    let mut prev_len = n;
    for level in 1..max_len {
        let packages = prev_len / 2;
        let (mut i, mut p) = (0, 0);
        while i < n || p < packages {
            let package = if p < packages {
                prev[2 * p] + prev[2 * p + 1]
            } else {
                u64::MAX
            };
            if i < n && leaves[i] >> 16 <= package {
                cur[i + p] = leaves[i] >> 16;
                i += 1;
            } else {
                cur[i + p] = package;
                is_package[i + p] |= 1 << level;
                p += 1;
            }
        }
        prev_len = n + packages;
        std::mem::swap(&mut prev, &mut cur);
    }

    let mut depth = [0u8; MAX_SYMBOLS];
    let mut take = 2 * n - 2;
    for level in (0..max_len).rev() {
        let packages = is_package[..take]
            .iter()
            .filter(|&&m| m >> level & 1 != 0)
            .count();
        for d in &mut depth[..take - packages] {
            *d += 1;
        }
        take = 2 * packages;
    }
    for (&leaf, &d) in leaves.iter().zip(&depth) {
        lens[(leaf & 0xffff) as usize] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::bits::{BitReader, BitWriter};

    /// Payload for tests: the symbol itself, no extra bits.
    static SYMBOLS: [u32; MAX_SYMBOLS] = {
        let mut t = [0; MAX_SYMBOLS];
        let mut i = 0;
        while i < MAX_SYMBOLS {
            t[i] = (i as u32) << 8;
            i += 1;
        }
        t
    };

    fn decoder<const N: usize>(lens: &[u8]) -> Result<Decoder<N>> {
        Decoder::from_lens(lens, &SYMBOLS)
    }

    fn lengths(freqs: &[u32], max_len: usize) -> Vec<u8> {
        let mut lens = vec![0xff; freqs.len()];
        build_lengths(freqs, max_len, &mut lens);
        lens
    }

    fn kraft(lens: &[u8]) -> f64 {
        lens.iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum()
    }

    #[test]
    fn canonical_codes_rfc_example() {
        // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) for A..H.
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        // Stored bit-reversed, ready for the LSB-first writer.
        let t = EncTable::from_lens(&lens);
        assert_eq!(
            t.codes[..8],
            [0b010, 0b110, 0b001, 0b101, 0b011, 0b00, 0b0111, 0b1111]
        );
        assert_eq!(t.lens[..8], lens);
        assert!(t.codes[8..].iter().all(|&c| c == 0));
        assert!(t.lens[8..].iter().all(|&l| l == 0));
    }

    #[test]
    fn decoder_inverts_encoder() {
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let enc = EncTable::from_lens(&lens);
        let seq: Vec<u16> = vec![0, 5, 7, 3, 6, 1, 2, 4, 5, 5];
        let mut w = BitWriter::new();
        for &s in &seq {
            w.write_bits(enc.codes[s as usize] as u32, enc.lens[s as usize] as u32);
        }
        let bytes = w.finish();
        // Through the table alone, through table + walk, and walk alone.
        fn check<const N: usize>(lens: &[u8], bytes: &[u8], seq: &[u16]) {
            let dec = decoder::<N>(lens).unwrap();
            let mut r = BitReader::new(bytes);
            for &s in seq {
                r.refill();
                let entry = dec.decode(r.peek()).unwrap();
                assert_eq!(entry >> 8 & 0xffff, s as u32);
                assert_eq!(entry >> 28, lens[s as usize] as u32);
                r.consume(entry & 0xff).unwrap();
            }
        }
        check::<16>(&lens, &bytes, &seq);
        check::<8>(&lens, &bytes, &seq);
        check::<1>(&lens, &bytes, &seq);
    }

    #[test]
    fn incomplete_code_rejects_unassigned_patterns() {
        // Lengths (1, 2): codes 0 and 10; pattern 11 has no symbol, whether
        // it falls inside the table or to the walk.
        fn check<const N: usize>() {
            let dec = decoder::<N>(&[1, 2]).unwrap();
            assert_eq!(dec.decode(0b0).unwrap() >> 8 & 0xffff, 0);
            assert_eq!(dec.decode(0b01).unwrap() >> 8 & 0xffff, 1);
            assert!(dec.decode(0b11).is_err());
            assert!(dec.decode(u64::MAX).is_err());
        }
        check::<1>();
        check::<2>();
        check::<4>();
        check::<64>();
    }

    #[test]
    fn fifteen_bit_codes_resolve_through_the_walk() {
        // One code of each length 1..=14 and two of length 15: complete.
        let mut lens: Vec<u8> = (1..=15).collect();
        lens.push(15);
        let enc = EncTable::from_lens(&lens);
        let dec = decoder::<1024>(&lens).unwrap();
        for (sym, &len) in lens.iter().enumerate() {
            // Garbage above the code must not matter.
            let bits = enc.codes[sym] as u64 | u64::MAX << len;
            let entry = dec.decode(bits).unwrap();
            assert_eq!((entry >> 8 & 0xffff, entry >> 28), (sym as u32, len as u32));
            assert_eq!(entry & 0xff, len as u32);
        }
    }

    #[test]
    fn payload_extra_bits_are_added_to_the_consume_count() {
        static PAYLOAD: [u32; 2] = [5 | 7 << 8, 13 | 9 << 8];
        let dec = Decoder::<4>::from_lens(&[1, 1], &PAYLOAD).unwrap();
        let entry = dec.decode(0b1).unwrap();
        assert_eq!((entry & 0xff, entry >> 8 & 0xffff, entry >> 28), (14, 9, 1));
    }

    #[test]
    fn oversubscribed_rejected() {
        // Three codes of length 1 cannot exist.
        assert!(decoder::<16>(&[1, 1, 1]).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(decoder::<16>(&[0, 0, 0]).is_err());
        assert!(decoder::<16>(&[]).is_err());
    }

    #[test]
    fn build_lengths_two_symbols() {
        let lens = lengths(&[5, 3], 15);
        assert_eq!(lens, vec![1, 1]);
        assert!((kraft(&lens) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn build_lengths_single_symbol() {
        let lens = lengths(&[0, 7, 0], 15);
        assert_eq!(lens, vec![0, 1, 0]);
    }

    #[test]
    fn build_lengths_skewed_complete() {
        let freqs = [1000, 500, 250, 125, 60, 30, 15, 7, 3, 1];
        let lens = lengths(&freqs, 15);
        assert!(
            (kraft(&lens) - 1.0).abs() < 1e-9,
            "kraft = {}",
            kraft(&lens)
        );
        // More frequent symbols must not get longer codes.
        for i in 1..freqs.len() {
            assert!(lens[i] >= lens[i - 1]);
        }
        // Must be decodable.
        decoder::<1024>(&lens).unwrap();
    }

    #[test]
    fn build_lengths_respects_limit() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let mut freqs = vec![0u32; 40];
        let (mut a, mut b) = (1u32, 1u32);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a.saturating_add(b);
            a = b;
            b = c;
        }
        let lens = lengths(&freqs, 7);
        assert!(lens.iter().all(|&l| l <= 7), "lens {lens:?}");
        assert!(
            (kraft(&lens) - 1.0).abs() < 1e-9,
            "kraft = {}",
            kraft(&lens)
        );
        decoder::<1024>(&lens).unwrap();
    }

    #[test]
    fn build_lengths_uniform() {
        let lens = lengths(&[1; 256], 15);
        assert!(lens.iter().all(|&l| l == 8));
    }
}
