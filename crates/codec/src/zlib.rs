//! zlib container (RFC 1950): 2-byte header, DEFLATE body, Adler-32 trailer.

use crate::checksum::adler32;
use crate::deflate::compress::{deflate_into, Lz77Scratch};
use crate::deflate::inflate::inflate_into;
use crate::deflate::Level;
use crate::{working_set, Error, Result};

/// Compress `data` into a zlib stream.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    working_set::assemble(|ws, out| compress_into(&mut ws.lz, data, level, out))
}

/// Append the zlib stream of `data` to `out`: header, DEFLATE body,
/// Adler-32.
pub(crate) fn compress_into(lz: &mut Lz77Scratch, data: &[u8], level: Level, out: &mut Vec<u8>) {
    // CMF: CM=8 (deflate), CINFO=7 (32K window) -> 0x78.
    out.push(0x78);
    // FLG: FLEVEL bits, FDICT=0, FCHECK so that (CMF<<8 | FLG) % 31 == 0.
    let flevel: u8 = match level {
        Level::Store | Level::Fast => 0,
        Level::Default => 2,
        Level::Best => 3,
    };
    let mut flg = flevel << 6;
    let rem = ((0x78u16 << 8) | flg as u16) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    out.push(flg);
    deflate_into(lz, data, level, out);
    out.extend_from_slice(&adler32(data).to_be_bytes());
}

/// Decompress a zlib stream, bounding output at `max_out` bytes.
pub fn decompress(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(data, max_out, None, &mut out)?;
    Ok(out)
}

/// [`decompress`] into `out` (see [`inflate_into`]), for a caller that may
/// know the output size, which is then reserved up front (`max_out` stays
/// the limit).
pub(crate) fn decompress_into(
    data: &[u8],
    max_out: usize,
    size_hint: Option<usize>,
    out: &mut Vec<u8>,
) -> Result<()> {
    if data.len() < 6 {
        return Err(Error::Truncated("zlib stream"));
    }
    let cmf = data[0];
    let flg = data[1];
    if cmf & 0x0f != 8 {
        return Err(Error::Invalid {
            what: "zlib header",
            detail: "compression method not 8",
        });
    }
    if !((cmf as u16) << 8 | flg as u16).is_multiple_of(31) {
        return Err(Error::Invalid {
            what: "zlib header",
            detail: "FCHECK failed",
        });
    }
    if flg & 0x20 != 0 {
        return Err(Error::Unsupported("zlib preset dictionary"));
    }
    let body = &data[2..data.len() - 4];
    inflate_into(body, max_out, size_hint, out)?;
    let stored = u32::from_be_bytes([
        data[data.len() - 4],
        data[data.len() - 3],
        data[data.len() - 2],
        data[data.len() - 1],
    ]);
    if adler32(out) != stored {
        return Err(Error::ChecksumMismatch("Adler-32"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_levels() {
        let data = b"zlib container round trip ".repeat(100);
        for level in [Level::Store, Level::Fast, Level::Default, Level::Best] {
            let c = compress(&data, level);
            assert_eq!(decompress(&c, 1 << 20).unwrap(), data);
        }
    }

    #[test]
    fn header_check_valid() {
        let c = compress(b"x", Level::Default);
        assert_eq!(((c[0] as u16) << 8 | c[1] as u16) % 31, 0);
        assert_eq!(c[0], 0x78);
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut c = compress(b"hello zlib", Level::Default);
        let n = c.len();
        c[n - 1] ^= 0xff;
        assert_eq!(
            decompress(&c, 1 << 20),
            Err(Error::ChecksumMismatch("Adler-32"))
        );
    }

    #[test]
    fn bad_method_rejected() {
        let mut c = compress(b"hello", Level::Default);
        c[0] = 0x79; // CM = 9
        assert!(matches!(
            decompress(&c, 1 << 20),
            Err(Error::Invalid { .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        let c = compress(b"hello", Level::Default);
        assert_eq!(
            decompress(&c[..3], 1 << 20),
            Err(Error::Truncated("zlib stream"))
        );
    }

    #[test]
    fn fcheck_enforced() {
        let mut c = compress(b"hello", Level::Default);
        c[1] ^= 0x01;
        assert!(matches!(
            decompress(&c, 1 << 20),
            Err(Error::Invalid { .. })
        ));
    }

    #[test]
    fn empty_round_trip() {
        let c = compress(b"", Level::Default);
        assert_eq!(decompress(&c, 16).unwrap(), b"");
    }
}
