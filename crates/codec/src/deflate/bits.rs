//! LSB-first bit I/O as used by DEFLATE (RFC 1951 §3.1.1).

use crate::{Error, Result};

/// Reads bits LSB-first from a byte slice through a 64-bit buffer.
///
/// The decoder's hot loop calls [`refill`](Self::refill) once per symbol,
/// looks at [`peek`](Self::peek) and then [`consume`](Self::consume)s what
/// the table entry says. `nbits` counts only bits that really came from the
/// input: `peek` past the end shows zeros, but `consume` refuses to take
/// them, so a truncated stream can never decode as a valid one.
#[derive(Debug, Clone, Copy)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte index.
    pos: usize,
    /// Bit buffer. Bits above `nbits` are either zero or already hold the
    /// stream bits that belong there (the word refill ORs whole words in).
    acc: u64,
    /// Number of counted bits in `acc` (at most 63).
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

    /// Top the buffer up to at least 56 bits, or to everything the input
    /// still has. One unaligned word load except in the last 8 input bytes.
    #[inline(always)]
    pub fn refill(&mut self) {
        if let Some(word) = self.data.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
            self.acc |= word << self.nbits;
            self.pos += ((63 - self.nbits) >> 3) as usize;
            self.nbits |= 56;
        } else {
            *self = self.refilled_bytewise();
        }
    }

    /// By value, so that a caller's copy of the reader can stay in
    /// registers: nothing on the hot path takes its address.
    #[cold]
    fn refilled_bytewise(mut self) -> Self {
        while self.nbits <= 55 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
        self
    }

    /// The buffered bits, next stream bit in bit 0. Beyond the bits that
    /// [`consume`](Self::consume) will hand out there may be look-ahead or
    /// zero padding.
    #[inline(always)]
    pub fn peek(&self) -> u64 {
        self.acc
    }

    /// Drop `n` bits (`n <= 32`). Fails when the input does not have them.
    #[inline(always)]
    pub fn consume(&mut self, n: u32) -> Result<()> {
        if n > self.nbits {
            return Err(Error::Truncated("deflate bitstream"));
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }

    /// Read `n` bits (0..=16); the first bit read is the LSB of the result.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 16);
        self.refill();
        let v = (self.acc & ((1u64 << n) - 1)) as u32;
        self.consume(n)?;
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

    /// Borrow `n` whole bytes after aligning (stored-block payload). Whole
    /// bytes still in the bit buffer are handed back to the input first, so
    /// the slice is contiguous wherever the block starts.
    pub fn read_aligned_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.align_to_byte();
        self.pos -= (self.nbits / 8) as usize;
        self.acc = 0;
        self.nbits = 0;
        let data = self.data;
        let bytes = data
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(Error::Truncated("deflate stored block"))?;
        self.pos += n;
        Ok(bytes)
    }
}

/// Writes bits LSB-first into a growing byte buffer, four bytes at a time.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Pending bits; fewer than 32 between calls.
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that appends to `out`, after the bytes it already holds;
    /// [`finish`](Self::finish) hands it back.
    pub(crate) fn append_to(out: Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    /// Make room for `bytes` more output bytes.
    pub fn reserve(&mut self, bytes: usize) {
        self.out.reserve(bytes);
    }

    /// Write the low `n` bits of `value` (first bit written = LSB of value).
    /// Huffman codes are passed already bit-reversed (see
    /// [`EncTable`](crate::deflate::huffman::EncTable)).
    #[inline(always)]
    pub fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || value < (1u32 << n));
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.nbits -= 32;
        }
    }

    /// Pad with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let bytes = self.nbits.div_ceil(8) as usize;
        self.out.extend_from_slice(&self.acc.to_le_bytes()[..bytes]);
        self.acc = 0;
        self.nbits = 0;
    }

    /// Append whole bytes (caller must be byte-aligned).
    pub fn write_aligned_bytes(&mut self, bytes: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_aligned_bytes requires byte alignment");
        self.out.extend_from_slice(bytes);
    }

    /// Finish, flushing any partial byte with zero padding.
    pub fn finish(mut self) -> Vec<u8> {
        self.align_to_byte();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11, 2);
        w.write_bits(0x5a5a, 16);
        w.write_bits(1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert_eq!(r.read_bits(16).unwrap(), 0x5a5a);
        assert_eq!(r.read_bit().unwrap(), 1);
    }

    #[test]
    fn align_and_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_to_byte();
        w.write_aligned_bytes(&[0xaa, 0xbb]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_aligned_bytes(2).unwrap(), [0xaa, 0xbb]);
    }

    #[test]
    fn truncation_detected() {
        let mut r = BitReader::new(&[0xff]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }

    #[test]
    fn zero_padding_is_visible_but_not_consumable() {
        let mut r = BitReader::new(&[0x01]);
        r.refill();
        assert_eq!(r.peek(), 1);
        assert!(r.consume(9).is_err());
        assert!(r.consume(8).is_ok());
    }

    /// Every mix of widths, through the word refill and the byte-wise tail,
    /// reads back what a bit-at-a-time walk over the bytes gives.
    #[test]
    fn word_refill_agrees_with_bit_walk() {
        let data: Vec<u8> = (0..67u32).map(|i| (i * 151 + 43) as u8).collect();
        let bit = |i: usize| (data[i / 8] >> (i % 8)) as u32 & 1;
        for step in 1..=16u32 {
            let mut r = BitReader::new(&data);
            let mut at = 0usize;
            let mut n = step;
            while at + n as usize <= data.len() * 8 {
                let want = (0..n as usize).fold(0, |v, k| v | bit(at + k) << k);
                assert_eq!(r.read_bits(n).unwrap(), want, "step {step} at bit {at}");
                at += n as usize;
                n = n % 16 + 1;
            }
            // Fewer than `n` bits are left: asking for one more than that fails.
            let left = (data.len() * 8 - at) as u32;
            assert!(r.read_bits(left + 1).is_err());
        }
    }

    #[test]
    fn writer_flushes_words_in_order() {
        let mut w = BitWriter::new();
        let mut expect = 0u128;
        let mut at = 0;
        for (i, n) in [13u32, 32, 1, 28, 20, 7, 3, 21].into_iter().enumerate() {
            let v = (0x9e37_79b9u32.wrapping_mul(i as u32 + 1)) & (((1u64 << n) - 1) as u32);
            w.write_bits(v, n);
            expect |= (v as u128) << at;
            at += n;
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), (at as usize).div_ceil(8));
        assert_eq!(bytes, expect.to_le_bytes()[..bytes.len()]);
    }

    #[test]
    fn read_aligned_bytes_drains_accumulator() {
        // Fill the reader accumulator first, then ask for aligned bytes.
        let data = [0x01, 0x02, 0x03, 0x04, 0x05];
        let mut r = BitReader::new(&data);
        assert_eq!(r.read_bits(4).unwrap(), 0x1);
        let got = r.read_aligned_bytes(3).unwrap();
        assert_eq!(got, [0x02, 0x03, 0x04]);
    }

    #[test]
    fn read_aligned_bytes_after_word_refill() {
        // The word refill buffers seven bytes; all but the one being read
        // must come back as part of the slice.
        let data: Vec<u8> = (0..32u8).collect();
        let mut r = BitReader::new(&data);
        assert_eq!(r.read_bits(3).unwrap(), 0);
        assert_eq!(r.read_aligned_bytes(20).unwrap(), &data[1..21]);
        assert_eq!(r.read_bits(8).unwrap(), 21);
        assert!(r.read_aligned_bytes(11).is_err());
    }
}
