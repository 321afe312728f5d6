//! Test oracles: the implementations the table-driven entropy stage
//! replaced, kept verbatim so the tests can demand the same answers from
//! both. Compiled under `#[cfg(test)]` only.
//!
//! * [`inflate`]: the puff-style bit-serial inflater — one bit per step
//!   through a 32-bit accumulator, count/offset canonical decode, byte-wise
//!   match copy.
//! * [`build_lengths`]: package-merge where every list element carries the
//!   leaves it contains.

use crate::deflate::huffman::MAX_BITS;
use crate::deflate::tables::{
    CLEN_ORDER, DIST_BASE, DIST_EXTRA, FIXED_DIST_LENS, FIXED_LITLEN_LENS, LEN_BASE, LEN_EXTRA,
};
use crate::{Error, Result};

/// Reads bits LSB-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index.
    pos: usize,
    /// Bit accumulator.
    acc: u32,
    /// Number of valid bits in `acc`.
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 24 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u32) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits (0..=16); the first bit read is the LSB of the result.
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 16);
        if n == 0 {
            return Ok(0);
        }
        self.refill();
        if self.nbits < n {
            return Err(Error::Truncated("deflate bitstream"));
        }
        let v = self.acc & ((1u32 << n) - 1);
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<u32> {
        self.read_bits(1)
    }

    /// Discard bits to the next byte boundary (for stored blocks).
    pub fn align_to_byte(&mut self) {
        let drop = self.nbits % 8;
        self.acc >>= drop;
        self.nbits -= drop;
    }

    /// Read `n` whole bytes after aligning (stored-block payload).
    pub fn read_aligned_bytes(&mut self, n: usize) -> Result<Vec<u8>> {
        self.align_to_byte();
        let mut out = Vec::with_capacity(n);
        // Drain accumulator first.
        while self.nbits >= 8 && out.len() < n {
            out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
        let remaining = n - out.len();
        if self.data.len() - self.pos < remaining {
            return Err(Error::Truncated("deflate stored block"));
        }
        out.extend_from_slice(&self.data[self.pos..self.pos + remaining]);
        self.pos += remaining;
        Ok(out)
    }
}

/// A decoder for one canonical Huffman code, using the count/offset
/// bit-serial algorithm (puff-style): O(code length) per symbol, no large
/// tables, and total over arbitrary inputs.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// count[len] = number of codes of that length.
    count: [u16; MAX_BITS + 1],
    /// Symbols sorted by (code length, symbol value).
    symbols: Vec<u16>,
}

impl Decoder {
    /// Build from per-symbol code lengths. Lengths of zero mean the symbol
    /// is absent. Returns an error for over-subscribed codes.
    pub fn from_lens(lens: &[u8]) -> Result<Self> {
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
        // Check for over-subscription (Kraft sum must not exceed 1).
        let mut left = 1i32;
        for &c in count.iter().skip(1) {
            left <<= 1;
            left -= c as i32;
            if left < 0 {
                return Err(Error::Invalid {
                    what: "huffman code",
                    detail: "over-subscribed",
                });
            }
        }
        // Offsets of the first symbol of each length into `symbols`.
        let mut offs = [0u16; MAX_BITS + 2];
        #[allow(clippy::needless_range_loop)] // offs[len+1] from offs[len]: a true prefix sum
        for len in 1..=MAX_BITS {
            offs[len + 1] = offs[len] + count[len];
        }
        let mut symbols = vec![0u16; lens.iter().filter(|&&l| l > 0).count()];
        for (sym, &l) in lens.iter().enumerate() {
            if l > 0 {
                symbols[offs[l as usize] as usize] = sym as u16;
                offs[l as usize] += 1;
            }
        }
        Ok(Decoder { count, symbols })
    }

    /// Decode one symbol from the bit reader.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16> {
        let mut code: u32 = 0;
        let mut first: u32 = 0;
        let mut index: u32 = 0;
        for len in 1..=MAX_BITS {
            code |= r.read_bit()?;
            let cnt = self.count[len] as u32;
            if code < first + cnt {
                return Ok(self.symbols[(index + (code - first)) as usize]);
            }
            index += cnt;
            first = (first + cnt) << 1;
            code <<= 1;
        }
        Err(Error::Invalid {
            what: "huffman code",
            detail: "invalid code word",
        })
    }
}

/// Compute length-limited Huffman code lengths for the given symbol
/// frequencies using the package-merge algorithm (Larmore & Hirschberg).
///
/// Returns a `lens` vector parallel to `freqs` with lengths in
/// `0..=max_len`, forming an *optimal, complete* canonical code (Kraft sum
/// exactly 1) whenever at least two symbols are present.
pub fn build_lengths(freqs: &[u32], max_len: usize) -> Vec<u8> {
    assert!(max_len <= MAX_BITS);
    let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u8; freqs.len()];
    match active.len() {
        0 => return lens,
        1 => {
            // A single symbol still needs one bit on the wire.
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }
    let n = active.len();
    assert!(
        n <= (1usize << max_len),
        "alphabet too large for length limit"
    );

    // A list element: accumulated weight plus the indices (into `active`)
    // of every leaf it contains.
    #[derive(Clone)]
    struct Elem {
        weight: u64,
        leaves: Vec<u16>,
    }

    // Leaf items sorted by (weight, symbol) for determinism.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&k| (freqs[active[k]], active[k]));
    let items: Vec<Elem> = order
        .iter()
        .map(|&k| Elem {
            weight: freqs[active[k]] as u64,
            leaves: vec![k as u16],
        })
        .collect();

    // list_1 = items; list_j = merge(items, package(list_{j-1})).
    let mut list = items.clone();
    for _ in 1..max_len {
        // Package: pair consecutive elements, dropping an odd trailing one.
        let mut packages = Vec::with_capacity(list.len() / 2);
        let mut it = list.chunks_exact(2);
        for pair in &mut it {
            let mut leaves = pair[0].leaves.clone();
            leaves.extend_from_slice(&pair[1].leaves);
            packages.push(Elem {
                weight: pair[0].weight + pair[1].weight,
                leaves,
            });
        }
        // Merge items and packages by weight (stable: items first on ties).
        let mut merged = Vec::with_capacity(items.len() + packages.len());
        let (mut i, mut p) = (0, 0);
        while i < items.len() || p < packages.len() {
            let take_item =
                p >= packages.len() || (i < items.len() && items[i].weight <= packages[p].weight);
            if take_item {
                merged.push(items[i].clone());
                i += 1;
            } else {
                merged.push(packages[p].clone());
                p += 1;
            }
        }
        list = merged;
    }

    // The first 2n-2 elements of the final list: each appearance of a leaf
    // adds one to its code length.
    let mut depth = vec![0u8; n];
    for elem in list.iter().take(2 * n - 2) {
        for &leaf in &elem.leaves {
            depth[leaf as usize] += 1;
        }
    }
    for (k, &sym) in active.iter().enumerate() {
        lens[sym] = depth[k];
    }
    lens
}

/// Decompress a complete DEFLATE stream.
///
/// `max_out` bounds the decompressed size; hostile streams that would expand
/// beyond it are rejected rather than allocated.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut r = BitReader::new(data);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => inflate_stored(&mut r, &mut out, max_out)?,
            1 => {
                let lit = Decoder::from_lens(&FIXED_LITLEN_LENS)?;
                let dist = Decoder::from_lens(&FIXED_DIST_LENS)?;
                inflate_block(&mut r, &mut out, &lit, &dist, max_out)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, &mut out, &lit, &dist, max_out)?;
            }
            _ => {
                return Err(Error::Invalid {
                    what: "deflate block",
                    detail: "btype 3",
                })
            }
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

fn inflate_stored(r: &mut BitReader<'_>, out: &mut Vec<u8>, max_out: usize) -> Result<()> {
    r.align_to_byte();
    let hdr = r.read_aligned_bytes(4)?;
    let len = u16::from_le_bytes([hdr[0], hdr[1]]) as usize;
    let nlen = u16::from_le_bytes([hdr[2], hdr[3]]);
    if nlen != !(len as u16) {
        return Err(Error::Invalid {
            what: "stored block",
            detail: "LEN/NLEN mismatch",
        });
    }
    if out.len() + len > max_out {
        return Err(Error::OutputTooLarge { limit: max_out });
    }
    out.extend_from_slice(&r.read_aligned_bytes(len)?);
    Ok(())
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder)> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(Error::Invalid {
            what: "dynamic header",
            detail: "HLIT/HDIST out of range",
        });
    }
    let mut clen_lens = [0u8; 19];
    for &idx in CLEN_ORDER.iter().take(hclen) {
        clen_lens[idx as usize] = r.read_bits(3)? as u8;
    }
    let clen_dec = Decoder::from_lens(&clen_lens)?;

    let total = hlit + hdist;
    let mut lens = Vec::with_capacity(total);
    while lens.len() < total {
        let sym = clen_dec.decode(r)?;
        match sym {
            0..=15 => lens.push(sym as u8),
            16 => {
                let &last = lens.last().ok_or(Error::Invalid {
                    what: "code lengths",
                    detail: "repeat before any",
                })?;
                let n = 3 + r.read_bits(2)?;
                for _ in 0..n {
                    lens.push(last);
                }
            }
            17 => {
                let n = 3 + r.read_bits(3)? as usize;
                lens.resize(lens.len() + n, 0);
            }
            18 => {
                let n = 11 + r.read_bits(7)? as usize;
                lens.resize(lens.len() + n, 0);
            }
            _ => {
                return Err(Error::Invalid {
                    what: "code lengths",
                    detail: "symbol > 18",
                })
            }
        }
    }
    if lens.len() != total {
        return Err(Error::Invalid {
            what: "code lengths",
            detail: "repeat overruns header",
        });
    }
    let lit = Decoder::from_lens(&lens[..hlit])?;
    let dist = Decoder::from_lens(&lens[hlit..])?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    out: &mut Vec<u8>,
    lit: &Decoder,
    dist: &Decoder,
    max_out: usize,
) -> Result<()> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() >= max_out {
                    return Err(Error::OutputTooLarge { limit: max_out });
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let li = (sym - 257) as usize;
                let len = LEN_BASE[li] as usize + r.read_bits(LEN_EXTRA[li] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(Error::Invalid {
                        what: "distance",
                        detail: "symbol > 29",
                    });
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d == 0 || d > out.len() {
                    return Err(Error::Invalid {
                        what: "distance",
                        detail: "reaches before stream start",
                    });
                }
                if out.len() + len > max_out {
                    return Err(Error::OutputTooLarge { limit: max_out });
                }
                // Overlapping copy: must proceed byte-by-byte when d < len.
                let start = out.len() - d;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
            _ => {
                return Err(Error::Invalid {
                    what: "literal/length",
                    detail: "symbol > 285",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::deflate::bits::BitWriter;
    use crate::deflate::huffman::{self, EncTable};
    use crate::deflate::{deflate, inflate, Level};
    use crate::{dct, png, Error, Image};
    use proptest::prelude::*;

    const LEVELS: [Level; 4] = [Level::Store, Level::Fast, Level::Default, Level::Best];

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// text / gradient / photo / all-zero / period-k, `n` bytes each.
    fn corpora(n: usize) -> Vec<(&'static str, Vec<u8>)> {
        let words = [
            "window ", "region ", "update ", "the ", "of ", "0x1f ", "RTP ", "\n",
        ];
        let mut s = 7u64;
        let mut text = Vec::new();
        while text.len() < n {
            text.extend_from_slice(words[lcg(&mut s) as usize % words.len()].as_bytes());
        }
        text.truncate(n);
        let gradient = (0..n).map(|i| (i / 7) as u8).collect();
        let mut acc = 0i32;
        let photo = (0..n)
            .map(|_| {
                acc = acc * 3 / 4 + (lcg(&mut s) % 23) as i32 - 11;
                (acc + (lcg(&mut s) % 5) as i32) as u8
            })
            .collect();
        let period = (0..n).map(|i| ((i % 5) * 50) as u8).collect();
        vec![
            ("text", text),
            ("gradient", gradient),
            ("photo", photo),
            ("zero", vec![0; n]),
            ("period", period),
        ]
    }

    /// The decoder under test and the bit-serial oracle agree: the same
    /// bytes, or both refuse.
    fn assert_same(stream: &[u8], max_out: usize, what: &str) {
        match (inflate(stream, max_out), super::inflate(stream, max_out)) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{what}: different bytes"),
            (Err(_), Err(_)) => {}
            (new, old) => panic!(
                "{what}: table decoder {:?}, oracle {:?}",
                new.map(|v| v.len()),
                old.map(|v| v.len())
            ),
        }
    }

    #[test]
    fn valid_streams_decode_alike() {
        for n in [0, 1, 2, 5, 700, 40_000] {
            for (name, data) in corpora(n) {
                for level in LEVELS {
                    let c = deflate(&data, level);
                    assert_eq!(inflate(&c, n).unwrap(), data, "{name}/{n}/{level:?}");
                    assert_eq!(super::inflate(&c, n).unwrap(), data, "{name}/{n}/{level:?}");
                }
            }
        }
    }

    #[test]
    fn every_truncation_decodes_alike() {
        for (name, data) in corpora(700) {
            for level in LEVELS {
                let c = deflate(&data, level);
                for cut in 0..c.len() {
                    assert_same(&c[..cut], 4096, &format!("{name}/{level:?} cut at {cut}"));
                    assert!(
                        inflate(&c[..cut], 4096).is_err(),
                        "{name}/{level:?}: prefix {cut} of {} decoded",
                        c.len()
                    );
                }
            }
        }
    }

    #[test]
    fn every_byte_mutation_decodes_alike() {
        for (name, data) in corpora(700) {
            for level in LEVELS {
                let mut c = deflate(&data, level);
                for at in 0..c.len() {
                    for flip in [0x01, 0x10, 0xff] {
                        c[at] ^= flip;
                        assert_same(&c, 4096, &format!("{name}/{level:?} byte {at} ^ {flip:#x}"));
                        c[at] ^= flip;
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_bit_mutations_and_truncations_of_large_streams_decode_alike() {
        let mut s = 99u64;
        for (name, data) in corpora(40_000) {
            for level in LEVELS {
                let mut c = deflate(&data, level);
                for _ in 0..40 {
                    let bit = lcg(&mut s) as usize % (c.len() * 8);
                    c[bit / 8] ^= 1 << (bit % 8);
                    assert_same(&c, 50_000, &format!("{name}/{level:?} bit {bit}"));
                    c[bit / 8] ^= 1 << (bit % 8);
                    let cut = lcg(&mut s) as usize % c.len();
                    assert_same(&c[..cut], 50_000, &format!("{name}/{level:?} cut {cut}"));
                }
            }
        }
    }

    #[test]
    fn max_out_is_exact() {
        for (name, data) in corpora(700) {
            for level in LEVELS {
                let c = deflate(&data, level);
                assert_same(&c, 700, &format!("{name}/{level:?} exact"));
                assert_eq!(inflate(&c, 700).unwrap().len(), 700);
                for short in [699, 350, 1, 0] {
                    assert_same(&c, short, &format!("{name}/{level:?} limit {short}"));
                    assert_eq!(
                        inflate(&c, short),
                        Err(Error::OutputTooLarge { limit: short }),
                        "{name}/{level:?} limit {short}"
                    );
                }
            }
        }
    }

    /// `max_out` is a limit, not a capacity — and the capacity respects it:
    /// whatever the hint and however the buffer grew, the result holds at
    /// most `max_out` bytes plus the slack the first allocation may round to.
    #[test]
    fn capacity_stays_within_max_out() {
        const SLACK: usize = 64;
        for (name, data) in corpora(40_000) {
            for level in LEVELS {
                let c = deflate(&data, level);
                for max_out in [40_000, 40_001, 65_000, 1 << 20, 1 << 30] {
                    for hint in [0, 1, 5_000, 39_999, 40_000, 1 << 16, usize::MAX] {
                        let mut out = Vec::new();
                        super::super::inflate::inflate_into(&c, max_out, Some(hint), &mut out)
                            .unwrap();
                        assert_eq!(out, data);
                        assert!(
                            out.capacity() <= max_out + SLACK,
                            "{name}/{level:?}: capacity {} for max_out {max_out}, hint {hint}",
                            out.capacity()
                        );
                        // Nor does a huge limit or hint reserve beyond what
                        // this input could expand to.
                        assert!(out.capacity() <= (c.len() * 1032).max(2 * data.len()) + SLACK);
                    }
                }
            }
        }
    }

    // ---- hand-built blocks -------------------------------------------

    /// MSB-first canonical code → the LSB-first writer.
    fn put_code(w: &mut BitWriter, table: &EncTable, sym: usize) {
        assert!(table.lens[sym] > 0, "symbol {sym} has no code");
        w.write_bits(table.codes[sym] as u32, table.lens[sym] as u32);
    }

    /// A dynamic block header that spells every code length out (no
    /// repeats), under a complete code-length code: 5 bits for lengths
    /// 0..=15, 3 bits for symbols 16 and 17, 2 bits for 18.
    fn clen_table() -> ([u8; 19], EncTable) {
        let mut lens = [5u8; 19];
        lens[16] = 3;
        lens[17] = 3;
        lens[18] = 2;
        (lens, EncTable::from_lens(&lens))
    }

    fn begin_dynamic(w: &mut BitWriter, last: bool, hlit: usize, hdist: usize) -> EncTable {
        use crate::deflate::tables::CLEN_ORDER;
        let (clen_lens, clen) = clen_table();
        w.write_bits(last as u32, 1);
        w.write_bits(2, 2);
        w.write_bits(hlit as u32 - 257, 5);
        w.write_bits(hdist as u32 - 1, 5);
        w.write_bits(19 - 4, 4);
        for &i in &CLEN_ORDER {
            w.write_bits(clen_lens[i as usize] as u32, 3);
        }
        clen
    }

    /// Header for the given litlen/dist lengths; returns their tables.
    fn dynamic_header(w: &mut BitWriter, lit: &[u8], dist: &[u8]) -> (EncTable, EncTable) {
        let clen = begin_dynamic(w, true, lit.len(), dist.len());
        for &l in lit.iter().chain(dist) {
            put_code(w, &clen, l as usize);
        }
        (EncTable::from_lens(lit), EncTable::from_lens(dist))
    }

    fn lit_lens(assign: &[(usize, u8)]) -> Vec<u8> {
        let mut lens = vec![0u8; 286];
        for &(sym, len) in assign {
            lens[sym] = len;
        }
        lens
    }

    #[test]
    fn incomplete_code_unassigned_pattern() {
        // 'a' = 0, EOB = 10; the pattern 11 has no symbol.
        let lens = lit_lens(&[(b'a' as usize, 1), (256, 2)]);
        let mut ok = BitWriter::new();
        let (lit, _) = dynamic_header(&mut ok, &lens, &[1]);
        put_code(&mut ok, &lit, b'a' as usize);
        put_code(&mut ok, &lit, b'a' as usize);
        put_code(&mut ok, &lit, 256);
        let ok = ok.finish();
        assert_eq!(inflate(&ok, 16).unwrap(), b"aa");
        assert_same(&ok, 16, "incomplete code, assigned patterns");

        let mut bad = BitWriter::new();
        let (lit, _) = dynamic_header(&mut bad, &lens, &[1]);
        put_code(&mut bad, &lit, b'a' as usize);
        bad.write_bits(0b11, 2);
        bad.write_bits(0, 16);
        let bad = bad.finish();
        assert!(matches!(inflate(&bad, 16), Err(Error::Invalid { .. })));
        assert_same(&bad, 16, "incomplete code, unassigned pattern");
    }

    #[test]
    fn over_subscribed_codes_rejected() {
        for (lit, dist) in [
            (lit_lens(&[(0, 1), (1, 1), (256, 1)]), vec![1u8]),
            (lit_lens(&[(0, 1), (256, 1)]), vec![1, 1, 1]),
            (lit_lens(&[(0, 1), (1, 2), (2, 2), (256, 15)]), vec![1]),
        ] {
            let mut w = BitWriter::new();
            dynamic_header(&mut w, &lit, &dist);
            w.write_bits(0, 32);
            let s = w.finish();
            assert!(matches!(inflate(&s, 16), Err(Error::Invalid { .. })));
            assert_same(&s, 16, "over-subscribed");
        }
    }

    #[test]
    fn single_symbol_distance_code() {
        // "ab" then (len 4, dist 2) through a distance code of one 1-bit
        // symbol; its other pattern is unassigned.
        let lens = lit_lens(&[(b'a' as usize, 2), (b'b' as usize, 2), (256, 2), (258, 2)]);
        for dist_bit in [0, 1] {
            let mut w = BitWriter::new();
            let (lit, _) = dynamic_header(&mut w, &lens, &[0, 1]);
            put_code(&mut w, &lit, b'a' as usize);
            put_code(&mut w, &lit, b'b' as usize);
            put_code(&mut w, &lit, 258);
            w.write_bits(dist_bit, 1);
            put_code(&mut w, &lit, 256);
            let s = w.finish();
            assert_same(&s, 64, "single distance symbol");
            if dist_bit == 0 {
                assert_eq!(inflate(&s, 64).unwrap(), b"ababab");
            } else {
                assert!(inflate(&s, 64).is_err());
            }
        }
    }

    #[test]
    fn fifteen_bit_codes() {
        // Lengths 1, 2, …, 14, 15, 15 on sixteen symbols: complete, and
        // every symbol past the tenth goes through the long-code walk.
        let syms: Vec<usize> = (b'a' as usize..b'a' as usize + 15).chain([256]).collect();
        let assign: Vec<(usize, u8)> = syms
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, (i as u8 + 1).min(15)))
            .collect();
        let lens = lit_lens(&assign);
        // The same shape for distances: symbols 0..=15.
        let dist: Vec<u8> = (0..16).map(|i| (i as u8 + 1).min(15)).collect();
        let mut w = BitWriter::new();
        let (lit, _) = dynamic_header(&mut w, &lens, &dist);
        let mut expect = Vec::new();
        for round in 0..40 {
            for &s in &syms[..15] {
                if (s + round) % 3 != 0 {
                    put_code(&mut w, &lit, s);
                    expect.push(s as u8);
                }
            }
        }
        put_code(&mut w, &lit, 256);
        let s = w.finish();
        assert_eq!(inflate(&s, 1 << 12).unwrap(), expect);
        assert_same(&s, 1 << 12, "15-bit litlen codes");
        for cut in 0..s.len() {
            assert_same(&s[..cut], 1 << 12, "15-bit litlen codes, truncated");
        }

        // 15-bit distance codes with 13 extra bits after a 15-bit length
        // code's neighbour: the widest match the format has.
        // 284: lengths 227..=257, 5 extra bits; 285: length 258.
        let lens = lit_lens(&[(b'x' as usize, 1), (256, 2), (284, 3), (285, 3)]);
        let mut dist = vec![0u8; 30];
        for (i, l) in dist.iter_mut().enumerate().take(14) {
            *l = i as u8 + 1;
        }
        dist[28] = 15;
        dist[29] = 15; // distances 24577..=32768, 13 extra bits
        let mut w = BitWriter::new();
        let (lit, dtab) = dynamic_header(&mut w, &lens, &dist);
        for _ in 0..25_000 {
            put_code(&mut w, &lit, b'x' as usize);
        }
        let mut expect = vec![b'x'; 25_000];
        for (len_sym, len_extra, dist_sym, dist_extra) in [
            (284usize, 30u32, 29usize, 100u32),
            (285, 0, 28, 8191),
            (284, 0, 0, 0),
        ] {
            put_code(&mut w, &lit, len_sym);
            if len_sym == 284 {
                w.write_bits(len_extra, 5);
            }
            put_code(&mut w, &dtab, dist_sym);
            if dist_sym >= 28 {
                w.write_bits(dist_extra, 13);
            }
            let len = if len_sym == 285 {
                258
            } else {
                227 + len_extra as usize
            };
            expect.resize(expect.len() + len, b'x');
        }
        put_code(&mut w, &lit, 256);
        let s = w.finish();
        assert_eq!(inflate(&s, 1 << 16).unwrap(), expect);
        assert_same(&s, 1 << 16, "15-bit distance codes");
        // One byte of history short of the farthest distance.
        assert_same(&s, expect.len() - 1, "15-bit distance codes, limit");
    }

    #[test]
    fn header_field_errors() {
        // HLIT = 287 and 288, HDIST = 31 and 32.
        for (hlit, hdist) in [(287, 1), (288, 1), (257, 31), (257, 32)] {
            let mut w = BitWriter::new();
            let clen = begin_dynamic(&mut w, true, hlit, hdist);
            for _ in 0..hlit + hdist {
                put_code(&mut w, &clen, 8);
            }
            w.write_bits(0, 32);
            let s = w.finish();
            assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
            assert_same(&s, 64, "HLIT/HDIST out of range");
        }
        // Repeat-previous before any length.
        let mut w = BitWriter::new();
        let clen = begin_dynamic(&mut w, true, 257, 1);
        put_code(&mut w, &clen, 16);
        w.write_bits(0, 2);
        w.write_bits(0, 32);
        let s = w.finish();
        assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
        assert_same(&s, 64, "repeat before any");
        // Repeats that run past HLIT + HDIST: by one, and by many.
        for (first, sym, extra_bits, extra) in [(255, 16, 2, 1), (250, 18, 7, 127), (256, 17, 3, 0)]
        {
            let mut w = BitWriter::new();
            let clen = begin_dynamic(&mut w, true, 257, 1);
            for _ in 0..first {
                put_code(&mut w, &clen, 8);
            }
            put_code(&mut w, &clen, sym);
            w.write_bits(extra, extra_bits);
            w.write_bits(0, 32);
            let s = w.finish();
            assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
            assert_same(&s, 64, "repeat overrun");
        }
        // A repeat that lands exactly on HLIT + HDIST is fine: 254 eights,
        // a nine, and three more nines for 255, EOB and the one distance.
        let mut lens = vec![8u8; 254];
        lens.extend_from_slice(&[9, 9, 9]);
        let lit = EncTable::from_lens(&lens);
        let mut w = BitWriter::new();
        let clen = begin_dynamic(&mut w, true, 257, 1);
        for &l in &lens[..255] {
            put_code(&mut w, &clen, l as usize);
        }
        put_code(&mut w, &clen, 16);
        w.write_bits(0, 2);
        put_code(&mut w, &lit, 7);
        put_code(&mut w, &lit, 255);
        put_code(&mut w, &lit, 256);
        let s = w.finish();
        assert_eq!(inflate(&s, 64).unwrap(), [7, 255]);
        assert_same(&s, 64, "repeat ending on the boundary");
        // Reserved block type.
        assert_same(&[0b111], 64, "btype 3");
        assert!(inflate(&[0b111], 64).is_err());
    }

    #[test]
    fn fixed_block_reserved_symbols() {
        let fixed = EncTable::from_lens(&crate::deflate::tables::FIXED_LITLEN_LENS);
        for sym in [286, 287] {
            let mut w = BitWriter::new();
            w.write_bits(0b011, 3);
            put_code(&mut w, &fixed, b'a' as usize);
            put_code(&mut w, &fixed, sym);
            w.write_bits(0, 32);
            let s = w.finish();
            assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
            assert_same(&s, 64, "litlen symbol > 285");
        }
        for dist_code in [30u32, 31] {
            let mut w = BitWriter::new();
            w.write_bits(0b011, 3);
            put_code(&mut w, &fixed, b'a' as usize);
            put_code(&mut w, &fixed, 257);
            w.write_bits(dist_code.reverse_bits() >> 27, 5);
            w.write_bits(0, 32);
            let s = w.finish();
            assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
            assert_same(&s, 64, "distance symbol > 29");
        }
        // Distance reaching one byte before the start of the output.
        let mut w = BitWriter::new();
        w.write_bits(0b011, 3);
        put_code(&mut w, &fixed, b'a' as usize);
        put_code(&mut w, &fixed, 257);
        w.write_bits(1u32.reverse_bits() >> 27, 5); // distance 2, one byte written
        put_code(&mut w, &fixed, 256);
        let s = w.finish();
        assert!(matches!(inflate(&s, 64), Err(Error::Invalid { .. })));
        assert_same(&s, 64, "distance beyond output");
    }

    /// Stored blocks whose header and payload start at every offset inside
    /// the 64-bit bit buffer, between Huffman blocks that have filled it.
    #[test]
    fn stored_blocks_straddling_the_bit_buffer() {
        let fixed = EncTable::from_lens(&crate::deflate::tables::FIXED_LITLEN_LENS);
        for lead in 0..20usize {
            for stored_len in [0usize, 1, 3, 7, 8, 9, 20] {
                let mut w = BitWriter::new();
                let mut expect = Vec::new();
                // A fixed block of `lead` literals: 3 + 8·lead + 7 bits.
                w.write_bits(0b010, 3);
                for i in 0..lead {
                    put_code(&mut w, &fixed, b'a' as usize + i);
                    expect.push(b'a' + i as u8);
                }
                put_code(&mut w, &fixed, 256);
                // The stored block.
                w.write_bits(0b000, 3);
                w.align_to_byte();
                w.write_aligned_bytes(&(stored_len as u16).to_le_bytes());
                w.write_aligned_bytes(&(!(stored_len as u16)).to_le_bytes());
                let payload: Vec<u8> = (0..stored_len).map(|i| 0xa0 + i as u8).collect();
                w.write_aligned_bytes(&payload);
                expect.extend_from_slice(&payload);
                // And a final fixed block with a match back into both.
                w.write_bits(0b011, 3);
                put_code(&mut w, &fixed, b'z' as usize);
                expect.push(b'z');
                if expect.len() >= 3 {
                    put_code(&mut w, &fixed, 257); // length 3
                    w.write_bits(2u32.reverse_bits() >> 27, 5); // distance 3
                    let from = expect.len() - 3;
                    for k in 0..3 {
                        expect.push(expect[from + k]);
                    }
                }
                put_code(&mut w, &fixed, 256);
                let s = w.finish();
                assert_eq!(
                    inflate(&s, 256).unwrap(),
                    expect,
                    "lead {lead} stored {stored_len}"
                );
                assert_same(&s, 256, "stored block straddle");
                assert_same(&s, expect.len(), "stored block straddle, exact limit");
                assert_same(&s, expect.len() - 1, "stored block straddle, one short");
                for cut in 0..s.len() {
                    assert_same(&s[..cut], 256, "stored block straddle, truncated");
                }
                // LEN/NLEN mismatch.
                let mut bad = s.clone();
                let hdr = (3 + 8 * lead + 7 + 3).div_ceil(8);
                bad[hdr + 2] ^= 0x40;
                assert!(inflate(&bad, 256).is_err());
                assert_same(&bad, 256, "LEN/NLEN mismatch");
            }
        }
    }

    // ---- the containers on top ----------------------------------------

    fn test_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h).unwrap();
        let mut s = 5u64;
        for y in 0..h {
            for x in 0..w {
                let n = (lcg(&mut s) % 9) as u8;
                img.set_pixel(
                    x,
                    y,
                    [(x * 7) as u8 + n, (y * 5) as u8, (x + y) as u8 ^ n, 255],
                );
            }
        }
        img
    }

    /// A PNG around the given zlib stream, chunk CRCs correct, so that the
    /// mutation reaches the inflater instead of dying at the CRC check.
    fn png_around(w: u32, h: u32, color_type: u8, idat: &[u8]) -> Vec<u8> {
        use png::write_chunk as chunk;
        let mut out = png::SIGNATURE.to_vec();
        let mut ihdr = Vec::new();
        ihdr.extend_from_slice(&w.to_be_bytes());
        ihdr.extend_from_slice(&h.to_be_bytes());
        ihdr.extend_from_slice(&[8, color_type, 0, 0, 0]);
        chunk(&mut out, b"IHDR", &ihdr);
        chunk(&mut out, b"IDAT", idat);
        chunk(&mut out, b"IEND", &[]);
        out
    }

    #[test]
    fn mutated_png_and_dct_payloads_never_panic() {
        let img = test_image(24, 10);
        for color in [png::PngColor::Rgb, png::PngColor::Rgba] {
            let opts = png::PngOptions {
                color,
                ..png::PngOptions::default()
            };
            let file = png::encode(&img, opts);
            assert_eq!(png::decode(&file).unwrap().data(), img.data());
            for at in 0..file.len() {
                let mut m = file.clone();
                m[at] ^= 0x21;
                let _ = png::decode(&m);
                let _ = png::decode(&file[..at]);
            }
            // Below the chunk CRC: every mutation and truncation of the
            // zlib stream itself, and headers that promise more or less
            // than it holds.
            let idat_len = u32::from_be_bytes(file[33..37].try_into().unwrap()) as usize;
            let idat = &file[41..41 + idat_len];
            let color_type = file[25];
            assert_eq!(
                png::decode(&png_around(24, 10, color_type, idat))
                    .unwrap()
                    .data(),
                img.data()
            );
            for at in 0..idat.len() {
                for flip in [0x01, 0xff] {
                    let mut z = idat.to_vec();
                    z[at] ^= flip;
                    if let Ok(got) = png::decode(&png_around(24, 10, color_type, &z)) {
                        assert_eq!((got.width(), got.height()), (24, 10));
                    }
                }
                assert!(png::decode(&png_around(24, 10, color_type, &idat[..at])).is_err());
            }
            for (w, h) in [(24, 9), (24, 11), (25, 10), (1, 1), (16_384, 16_384)] {
                assert!(png::decode(&png_around(w, h, color_type, idat)).is_err());
            }
        }

        let file = dct::encode(&test_image(24, 10), 60);
        assert!(dct::decode(&file).is_ok());
        for at in 0..file.len() {
            for flip in [0x01, 0x10, 0xff] {
                let mut m = file.clone();
                m[at] ^= flip;
                if let Ok(got) = dct::decode(&m) {
                    assert!(got.width() <= crate::image::MAX_DIMENSION);
                }
            }
            let _ = dct::decode(&file[..at]);
        }
        // Below the DEFLATE layer: the coefficient body cut at every offset
        // (always short of a block end, so always an error) and hostile
        // bytes in every position of it, re-wrapped in a valid container.
        let body = inflate(&file[13..], 1 << 20).unwrap();
        let around = |body: &[u8]| [&file[..13], &deflate(body, Level::Fast)[..]].concat();
        assert!(dct::decode(&around(&body)).is_ok());
        for at in 0..body.len() {
            assert!(
                dct::decode(&around(&body[..at])).is_err(),
                "body cut at {at}"
            );
            let mut m = body.clone();
            m[at] ^= 0xff;
            let _ = dct::decode(&around(&m));
        }
    }

    // ---- the encoder half: package-merge -------------------------------

    fn kraft_is_one(lens: &[u8]) -> bool {
        lens.iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u32 << (15 - l))
            .sum::<u32>()
            == 1 << 15
    }

    fn assert_lengths_match(freqs: &[u32], max_len: usize) -> Result<(), TestCaseError> {
        let mut lens = vec![0xffu8; freqs.len()];
        huffman::build_lengths(freqs, max_len, &mut lens);
        prop_assert_eq!(&lens, &super::build_lengths(freqs, max_len));
        prop_assert!(lens.iter().all(|&l| l as usize <= max_len));
        prop_assert!(lens.iter().zip(freqs).all(|(&l, &f)| (l == 0) == (f == 0)));
        if freqs.iter().filter(|&&f| f > 0).count() >= 2 {
            prop_assert!(kraft_is_one(&lens), "Kraft sum != 1: {:?}", lens);
        }
        Ok(())
    }

    /// Shape a raw random histogram: as drawn, sparse, powers of two, or
    /// Fibonacci numbers (which force the deepest trees, so the limit binds).
    fn shape(raw: Vec<u32>, kind: u8) -> Vec<u32> {
        const FIB: [u32; 32] = {
            let mut f = [1u32; 32];
            let mut i = 2;
            while i < 32 {
                f[i] = f[i - 1] + f[i - 2];
                i += 1;
            }
            f
        };
        raw.into_iter()
            .map(|r| match kind {
                0 => r % 5000,
                1 => {
                    if r % 11 == 0 {
                        r % 300 + 1
                    } else {
                        0
                    }
                }
                2 => 1 << (r % 24),
                3 => FIB[r as usize % 32],
                _ => r % 3, // heavy ties
            })
            .collect()
    }

    const ALPHABETS: [(usize, usize); 3] = [(286, 15), (30, 15), (19, 7)];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn build_lengths_equals_package_merge_reference(
            raw in proptest::collection::vec(any::<u32>(), 286),
            kind in 0u8..5,
            alphabet in 0usize..3,
            used in 0usize..=286,
        ) {
            let (n, max_len) = ALPHABETS[alphabet];
            let mut freqs = shape(raw, kind);
            freqs.truncate(n);
            // Sometimes only a prefix of the alphabet is in use.
            for f in freqs.iter_mut().skip(used.max(1)) {
                if kind % 2 == 1 {
                    *f = 0;
                }
            }
            assert_lengths_match(&freqs, max_len)?;
        }
    }

    #[test]
    fn build_lengths_limit_forcing_cases() {
        // Fibonacci frequencies in order: an unlimited Huffman tree would be
        // a chain as deep as the alphabet.
        for (n, max_len) in ALPHABETS {
            let mut fib = vec![1u32; n];
            for i in 2..n {
                fib[i] = fib[i - 1].saturating_add(fib[i - 2]);
            }
            assert_lengths_match(&fib, max_len).unwrap();
            fib.reverse();
            assert_lengths_match(&fib, max_len).unwrap();
            assert_lengths_match(&vec![1; n], max_len).unwrap();
            assert_lengths_match(&vec![u32::MAX; n], max_len).unwrap();
        }
        // As many symbols as the limit allows codes for.
        assert_lengths_match(&[3; 128][..], 7).unwrap();
        assert_lengths_match(&[0, 0, 9], 15).unwrap();
        assert_lengths_match(&[0; 30], 15).unwrap();
        assert_lengths_match(&[], 15).unwrap();
    }
}
