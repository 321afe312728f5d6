//! DEFLATE decompression (RFC 1951).

use std::sync::OnceLock;

use crate::deflate::bits::BitReader;
use crate::deflate::huffman::Decoder;
use crate::deflate::tables::{
    CLEN_ORDER, DIST_BASE, DIST_EXTRA, FIXED_DIST_LENS, FIXED_LITLEN_LENS, LEN_BASE, LEN_EXTRA,
};
use crate::{Error, Result};

/// Primary-table sizes: 10 bits of litlen, 8 of distance, and the whole
/// 7-bit code-length code. About 6 KiB of tables per stream, on the stack.
type LitlenDecoder = Decoder<1024>;
type DistDecoder = Decoder<256>;
type ClenDecoder = Decoder<128>;

// Decoder payloads (see `Decoder`): extra-bit count in the low byte, a
// 16-bit value in bits 8..24, and for litlen symbols one of three flags.
const LITERAL: u32 = 1 << 24;
const END_OF_BLOCK: u32 = 1 << 25;
const BAD_SYMBOL: u32 = 1 << 26;

/// Literal byte, end of block, or match length base + extra-bit count.
const LITLEN_PAYLOAD: [u32; 288] = {
    let mut t = [BAD_SYMBOL; 288];
    let mut sym = 0;
    while sym < 256 {
        t[sym] = LITERAL | (sym as u32) << 8;
        sym += 1;
    }
    t[256] = END_OF_BLOCK;
    let mut i = 0;
    while i < 29 {
        t[257 + i] = (LEN_BASE[i] as u32) << 8 | LEN_EXTRA[i] as u32;
        i += 1;
    }
    t
};

/// Distance base + extra-bit count.
const DIST_PAYLOAD: [u32; 30] = {
    let mut t = [0; 30];
    let mut i = 0;
    while i < 30 {
        t[i] = (DIST_BASE[i] as u32) << 8 | DIST_EXTRA[i] as u32;
        i += 1;
    }
    t
};

/// The code-length symbol itself.
const CLEN_PAYLOAD: [u32; 19] = {
    let mut t = [0; 19];
    let mut i = 0;
    while i < 19 {
        t[i] = (i as u32) << 8;
        i += 1;
    }
    t
};

/// What a caller that says nothing is assumed to expand by: the DCT
/// coefficient bodies measure 2.8, screen text and flat fills far more
/// (those grow the buffer, by doubling).
const TYPICAL_EXPANSION: usize = 4;

/// No DEFLATE stream expands further than this (a block of 258-byte
/// matches at one bit per length and distance symbol).
const MAX_EXPANSION: usize = 1032;

/// Decompress a complete DEFLATE stream.
///
/// `max_out` bounds the decompressed size; hostile streams that would expand
/// beyond it are rejected rather than allocated.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    inflate_into(data, max_out, None, &mut out)?;
    Ok(out)
}

/// [`inflate`] into `buf`, which holds exactly the stream's bytes on
/// success (and anything on failure). `size_hint` bytes (by default a
/// typical multiple of the input) are reserved up front, as far as
/// `max_out` and the input length allow; `max_out` is the limit, never a
/// capacity.
///
/// The bytes `buf` already holds are used as room to write in without
/// clearing them: a literal or stored byte is written before anything
/// reads it, and a match copies only from below the write position, so
/// none of them can reach the output.
pub(crate) fn inflate_into(
    data: &[u8],
    max_out: usize,
    size_hint: Option<usize>,
    buf: &mut Vec<u8>,
) -> Result<()> {
    let reserve = size_hint
        .unwrap_or(data.len().saturating_mul(TYPICAL_EXPANSION))
        .min(max_out)
        .min(data.len().saturating_mul(MAX_EXPANSION));
    // The room check is `buf.len()`, so it may not exceed the limit.
    buf.truncate(max_out);
    if buf.len() < reserve {
        buf.resize(reserve, 0);
    }
    let mut out = Output {
        buf: std::mem::take(buf),
        max_out,
    };
    let result = inflate_blocks(data, &mut out);
    *buf = out.buf;
    buf.truncate(result?);
    Ok(())
}

/// Decode every block of `data` into `out`; returns the stream's length.
fn inflate_blocks(data: &[u8], out: &mut Output) -> Result<usize> {
    // Bytes of `out` written so far.
    let mut pos = 0;
    let mut r = BitReader::new(data);
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        pos = match btype {
            0 => inflate_stored(&mut r, out, pos)?,
            1 => {
                let (lit, dist) = fixed_decoders();
                inflate_block(&mut r, out, pos, lit, dist)?
            }
            2 => {
                let (lit, dist) = read_dynamic_tables(&mut r)?;
                inflate_block(&mut r, out, pos, &lit, &dist)?
            }
            _ => {
                return Err(Error::Invalid {
                    what: "deflate block",
                    detail: "btype 3",
                })
            }
        };
        if bfinal == 1 {
            return Ok(pos);
        }
    }
}

/// The output buffer: initialised up to its current size and written by
/// position (the callers carry the position, so the block loop can keep it
/// in a register), which makes the room check and the bounds check one.
/// It grows by doubling but never past `max_out`, and every write checks
/// the limit before touching the buffer.
struct Output {
    buf: Vec<u8>,
    max_out: usize,
}

impl Output {
    /// Make sure `n` bytes can be written at `pos`, or fail with
    /// `OutputTooLarge`.
    #[inline(always)]
    fn make_room(&mut self, pos: usize, n: usize) -> Result<()> {
        if self.buf.len() - pos < n {
            self.grow(pos + n)?;
        }
        Ok(())
    }

    #[cold]
    fn grow(&mut self, need: usize) -> Result<()> {
        if need > self.max_out {
            return Err(Error::OutputTooLarge {
                limit: self.max_out,
            });
        }
        let target = need
            .max(self.buf.len().saturating_mul(2))
            .max(64)
            .min(self.max_out);
        // `resize` alone would round the capacity up past `max_out`.
        self.buf.reserve_exact(target - self.buf.len());
        self.buf.resize(target, 0);
        Ok(())
    }

    /// Write `len` bytes at `pos`, copied from `dist` bytes before it. When
    /// the ranges overlap the copy repeats the last `dist` bytes, exactly
    /// as a byte-by-byte copy would.
    #[inline(always)]
    fn copy_match(&mut self, pos: usize, dist: usize, len: usize) -> Result<()> {
        if dist == 0 || dist > pos {
            return Err(Error::Invalid {
                what: "distance",
                detail: "reaches before stream start",
            });
        }
        self.make_room(pos, len)?;
        let start = pos - dist;
        if dist >= 8 && len <= 32 && self.buf.len() - pos >= 40 {
            // Short match, the common case: whole words, inline. Word k
            // reads bytes that lie at least 8 before where it writes, so
            // they are final; the overshoot past `len` lands in buffer that
            // is not written yet.
            let mut off = 0;
            while off < len {
                self.buf
                    .copy_within(start + off..start + off + 8, pos + off);
                off += 8;
            }
        } else if dist >= len {
            self.buf.copy_within(start..start + len, pos);
        } else if dist == 1 {
            let byte = self.buf[start];
            self.buf[pos..pos + len].fill(byte);
        } else {
            // What is already copied is itself a valid source: the chunk
            // doubles each round.
            let mut done = 0;
            while done < len {
                let chunk = (len - done).min(dist + done);
                self.buf.copy_within(start..start + chunk, pos + done);
                done += chunk;
            }
        }
        Ok(())
    }
}

/// Returns the write position after the block.
fn inflate_stored(r: &mut BitReader<'_>, out: &mut Output, pos: usize) -> Result<usize> {
    let hdr = r.read_aligned_bytes(4)?;
    let len = u16::from_le_bytes([hdr[0], hdr[1]]);
    let nlen = u16::from_le_bytes([hdr[2], hdr[3]]);
    if nlen != !len {
        return Err(Error::Invalid {
            what: "stored block",
            detail: "LEN/NLEN mismatch",
        });
    }
    let end = pos + len as usize;
    out.make_room(pos, len as usize)?;
    out.buf[pos..end].copy_from_slice(r.read_aligned_bytes(len as usize)?);
    Ok(end)
}

fn fixed_decoders() -> &'static (LitlenDecoder, DistDecoder) {
    static FIXED: OnceLock<(LitlenDecoder, DistDecoder)> = OnceLock::new();
    FIXED.get_or_init(|| {
        (
            Decoder::from_lens(&FIXED_LITLEN_LENS, &LITLEN_PAYLOAD).expect("fixed litlen code"),
            Decoder::from_lens(&FIXED_DIST_LENS, &DIST_PAYLOAD).expect("fixed distance code"),
        )
    })
}

fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(LitlenDecoder, DistDecoder)> {
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
    let clen_dec = ClenDecoder::from_lens(&clen_lens, &CLEN_PAYLOAD)?;

    let total = hlit + hdist;
    let mut lens = [0u8; 286 + 30];
    let mut filled = 0;
    while filled < total {
        r.refill();
        let entry = clen_dec.decode(r.peek())?;
        r.consume(entry & 0xff)?;
        let sym = (entry >> 8) as u8;
        let (value, repeat) = match sym {
            0..=15 => {
                lens[filled] = sym;
                filled += 1;
                continue;
            }
            16 => {
                if filled == 0 {
                    return Err(Error::Invalid {
                        what: "code lengths",
                        detail: "repeat before any",
                    });
                }
                (lens[filled - 1], 3 + r.read_bits(2)? as usize)
            }
            17 => (0, 3 + r.read_bits(3)? as usize),
            _ => (0, 11 + r.read_bits(7)? as usize),
        };
        if repeat > total - filled {
            return Err(Error::Invalid {
                what: "code lengths",
                detail: "repeat overruns header",
            });
        }
        lens[filled..filled + repeat].fill(value);
        filled += repeat;
    }
    let lit = Decoder::from_lens(&lens[..hlit], &LITLEN_PAYLOAD)?;
    let dist = Decoder::from_lens(&lens[hlit..total], &DIST_PAYLOAD)?;
    Ok((lit, dist))
}

/// Consume the code `entry` was decoded from together with its extra bits
/// and return their value.
#[inline(always)]
fn take_with_extra(r: &mut BitReader<'_>, entry: u32) -> Result<usize> {
    let total = entry & 0xff;
    let code_len = entry >> 28;
    let extra = (r.peek() >> code_len) as usize & ((1 << (total - code_len)) - 1);
    r.consume(total)?;
    Ok(extra)
}

/// Consume the literal `entry` was decoded from and write it at `pos`.
#[inline(always)]
fn put_literal(r: &mut BitReader<'_>, out: &mut Output, pos: &mut usize, entry: u32) -> Result<()> {
    r.consume(entry & 0xff)?;
    out.make_room(*pos, 1)?;
    out.buf[*pos] = (entry >> 8) as u8;
    *pos += 1;
    Ok(())
}

/// Decode one Huffman-coded block to `out` from `pos` on; returns the write
/// position after it.
fn inflate_block(
    reader: &mut BitReader<'_>,
    out: &mut Output,
    mut pos: usize,
    lit: &LitlenDecoder,
    dist: &DistDecoder,
) -> Result<usize> {
    // A private copy: the loop below leaves no pointer to it behind, so it
    // lives in registers. Written back when the block ends well.
    let mut r = *reader;
    loop {
        // At least 56 bits unless the input is ending: enough for three
        // litlen codes, the last with its extra bits (15 + 15 + 20).
        r.refill();
        let mut entry = lit.decode(r.peek())?;
        for _ in 0..2 {
            if entry & LITERAL == 0 {
                break;
            }
            put_literal(&mut r, out, &mut pos, entry)?;
            entry = lit.decode(r.peek())?;
        }
        if entry & LITERAL != 0 {
            put_literal(&mut r, out, &mut pos, entry)?;
            continue;
        }
        if entry & (END_OF_BLOCK | BAD_SYMBOL) != 0 {
            r.consume(entry & 0xff)?;
            if entry & END_OF_BLOCK != 0 {
                *reader = r;
                return Ok(pos);
            }
            return Err(Error::Invalid {
                what: "literal/length",
                detail: "symbol > 285",
            });
        }
        let len = (entry >> 8 & 0xffff) as usize + take_with_extra(&mut r, entry)?;
        // A distance code and its extra bits: 15 + 13.
        r.refill();
        let entry = dist.decode(r.peek())?;
        let d = (entry >> 8 & 0xffff) as usize + take_with_extra(&mut r, entry)?;
        out.copy_match(pos, d, len)?;
        pos += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::bits::BitWriter;

    /// Write a Huffman code given in canonical (MSB-first) form.
    trait WriteCode {
        fn write_code(&mut self, code: u32, len: u32);
    }

    impl WriteCode for BitWriter {
        fn write_code(&mut self, code: u32, len: u32) {
            self.write_bits(code.reverse_bits() >> (32 - len), len);
        }
    }

    /// Hand-built stored block.
    #[test]
    fn stored_block_golden() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0, 2); // stored
        w.align_to_byte();
        w.write_aligned_bytes(&5u16.to_le_bytes());
        w.write_aligned_bytes(&(!5u16).to_le_bytes());
        w.write_aligned_bytes(b"hello");
        let stream = w.finish();
        assert_eq!(inflate(&stream, 1 << 20).unwrap(), b"hello");
    }

    #[test]
    fn stored_block_bad_nlen_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_aligned_bytes(&5u16.to_le_bytes());
        w.write_aligned_bytes(&0u16.to_le_bytes()); // wrong NLEN
        w.write_aligned_bytes(b"hello");
        assert!(inflate(&w.finish(), 1 << 20).is_err());
    }

    /// Hand-built fixed-Huffman block: literal 'A' then end-of-block.
    /// 'A' = 65 → 8-bit code 0x30+65 = 01110001; EOB = 7-bit 0000000.
    #[test]
    fn fixed_block_single_literal() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(1, 2); // fixed
        w.write_code(0x30 + 65, 8); // literal 'A'
        w.write_code(0, 7); // end of block
        assert_eq!(inflate(&w.finish(), 16).unwrap(), b"A");
    }

    /// Fixed block exercising a length/distance copy: "ababab" encoded as
    /// 'a','b', then (len=4, dist=2).
    #[test]
    fn fixed_block_with_match() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        w.write_code(0x30 + b'a' as u32, 8);
        w.write_code(0x30 + b'b' as u32, 8);
        // length 4 = symbol 258 (base 4, no extra); fixed code for 258 is
        // 7-bit value 258-256 = 2.
        w.write_code(2, 7);
        // distance 2 = dist symbol 1 (base 2, no extra), 5-bit code.
        w.write_code(1, 5);
        w.write_code(0, 7); // EOB
        assert_eq!(inflate(&w.finish(), 64).unwrap(), b"ababab");
    }

    #[test]
    fn distance_before_start_rejected() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(1, 2);
        w.write_code(0x30 + b'a' as u32, 8);
        w.write_code(2, 7); // len 4
        w.write_code(5, 5); // dist symbol 5 = base 7 > output size 1
        w.write_code(0, 7);
        assert!(inflate(&w.finish(), 64).is_err());
    }

    #[test]
    fn output_cap_enforced() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0, 2);
        w.align_to_byte();
        w.write_aligned_bytes(&100u16.to_le_bytes());
        w.write_aligned_bytes(&(!100u16).to_le_bytes());
        w.write_aligned_bytes(&[0u8; 100]);
        let stream = w.finish();
        assert!(matches!(
            inflate(&stream, 50),
            Err(Error::OutputTooLarge { limit: 50 })
        ));
        // A reused buffer already longer than the limit is no more room.
        let mut reused = vec![7u8; 4096];
        assert!(matches!(
            inflate_into(&stream, 50, None, &mut reused),
            Err(Error::OutputTooLarge { limit: 50 })
        ));
        assert_eq!(inflate_into(&stream, 100, None, &mut reused), Ok(()));
        assert_eq!(reused, [0u8; 100]);
    }

    #[test]
    fn noise_never_panics() {
        let mut state = 0x2468aceu32;
        for len in 0..200 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = inflate(&buf, 1 << 16);
        }
    }
}
