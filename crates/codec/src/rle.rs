//! Run-length pixel codec: the VNC/RFB-style baseline encoding.
//!
//! Pixels are encoded as `(run_length, R, G, B, A)` records per row. This is
//! what early remote-desktop systems (VNC's RRE/hextile family) effectively
//! do; it gives the comparison benchmarks an architectural baseline that is
//! cheap to encode but much weaker than PNG on structured content.

use crate::image::{Image, MAX_DIMENSION};
use crate::{Error, Result};

/// Magic bytes identifying the container.
const MAGIC: [u8; 4] = *b"ARLE";

/// Encode an image with per-row RGBA run-length encoding.
pub fn encode(img: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.width() as usize * img.height() as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&img.width().to_be_bytes());
    out.extend_from_slice(&img.height().to_be_bytes());
    for y in 0..img.height() {
        let row = img.row(y);
        let mut x = 0usize;
        let w = img.width() as usize;
        while x < w {
            let px = &row[x * 4..x * 4 + 4];
            let mut run = 1usize;
            while x + run < w && run < 255 && &row[(x + run) * 4..(x + run) * 4 + 4] == px {
                run += 1;
            }
            out.push(run as u8);
            out.extend_from_slice(px);
            x += run;
        }
    }
    out
}

/// The width and height an [`encode`]d payload declares, read from its
/// header alone: nothing is allocated and no record is read.
pub fn dims(data: &[u8]) -> Result<(u32, u32)> {
    if data.len() < 12 {
        return Err(Error::Truncated("RLE header"));
    }
    if data[..4] != MAGIC {
        return Err(Error::Invalid {
            what: "RLE container",
            detail: "bad magic",
        });
    }
    let w = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    let h = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
    if w == 0 || h == 0 || w > MAX_DIMENSION || h > MAX_DIMENSION {
        return Err(Error::BadDimensions {
            width: w,
            height: h,
        });
    }
    Ok((w, h))
}

/// Decode an image produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Image> {
    let (w, h) = dims(data)?;
    let total = w as usize * h as usize;
    // A record is five bytes and paints at most 255 pixels: a header that
    // promises more than the records can deliver is refused before anything
    // is allocated for it.
    if (data.len() - 12) / 5 * 255 < total {
        return Err(Error::Truncated("RLE record"));
    }
    // Sized once and filled in place: a run is one pass over its slice, not
    // a capacity check per pixel.
    let mut rgba = vec![0u8; total * 4];
    let mut off = 12usize;
    let mut pixels = 0usize;
    while pixels < total {
        if off + 5 > data.len() {
            return Err(Error::Truncated("RLE record"));
        }
        let run = data[off] as usize;
        if run == 0 {
            return Err(Error::Invalid {
                what: "RLE record",
                detail: "zero run",
            });
        }
        if pixels + run > total {
            return Err(Error::Invalid {
                what: "RLE record",
                detail: "run past image end",
            });
        }
        let px = &data[off + 1..off + 5];
        for out in rgba[pixels * 4..(pixels + run) * 4].chunks_exact_mut(4) {
            out.copy_from_slice(px);
        }
        pixels += run;
        off += 5;
    }
    if off != data.len() {
        return Err(Error::Invalid {
            what: "RLE stream",
            detail: "trailing bytes",
        });
    }
    Image::from_rgba(w, h, rgba)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Rect;

    #[test]
    fn header_larger_than_its_records_is_refused_up_front() {
        // 16384×16384 pixels promised, one record supplied.
        let mut data = MAGIC.to_vec();
        data.extend_from_slice(&MAX_DIMENSION.to_be_bytes());
        data.extend_from_slice(&MAX_DIMENSION.to_be_bytes());
        data.extend_from_slice(&[255, 1, 2, 3, 255]);
        assert!(matches!(decode(&data), Err(Error::Truncated("RLE record"))));
        // Exactly enough records for the header still decodes.
        let img = Image::filled(255, 2, [9, 8, 7, 255]).unwrap();
        let encoded = encode(&img);
        assert_eq!(encoded.len(), 12 + 2 * 5);
        assert_eq!(decode(&encoded).unwrap(), img);
    }

    #[test]
    fn round_trip_flat() {
        let img = Image::filled(100, 50, [1, 2, 3, 255]).unwrap();
        let enc = encode(&img);
        // 100-pixel rows → ceil(100/255)=1 record per row: 50 * 5 + 12 bytes.
        assert_eq!(enc.len(), 12 + 50 * 5);
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn round_trip_noise() {
        let mut img = Image::new(31, 17).unwrap();
        let mut state = 1u32;
        for y in 0..17 {
            for x in 0..31 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                img.set_pixel(x, y, state.to_be_bytes());
            }
        }
        assert_eq!(decode(&encode(&img)).unwrap(), img);
    }

    #[test]
    fn runs_do_not_cross_rows() {
        // Identical rows still restart runs at row boundaries: the encoded
        // size of N identical rows is N times one row.
        let img = Image::filled(10, 4, [5, 5, 5, 255]).unwrap();
        let enc = encode(&img);
        assert_eq!(enc.len(), 12 + 4 * 5);
    }

    #[test]
    fn run_longer_than_255_splits() {
        let img = Image::filled(1000, 1, [9, 9, 9, 255]).unwrap();
        let enc = encode(&img);
        assert_eq!(enc.len(), 12 + 4 * 5); // 255+255+255+235
        assert_eq!(decode(&enc).unwrap(), img);
    }

    #[test]
    fn ui_content_compresses_noise_does_not() {
        let mut ui = Image::filled(200, 100, [240, 240, 240, 255]).unwrap();
        ui.fill_rect(Rect::new(10, 10, 50, 20), [30, 30, 30, 255]);
        let ui_size = encode(&ui).len();
        assert!(ui_size < 200 * 100 * 4 / 20, "ui rle size {ui_size}");

        let mut noise = Image::new(200, 100).unwrap();
        let mut state = 7u32;
        for y in 0..100 {
            for x in 0..200 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                noise.set_pixel(x, y, state.to_be_bytes());
            }
        }
        let noise_size = encode(&noise).len();
        assert!(noise_size > 200 * 100 * 4, "noise inflates: {noise_size}");
    }

    #[test]
    fn hostile_input_rejected() {
        assert!(decode(b"ARLE").is_err());
        // Valid header, zero-run record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&[0, 1, 2, 3, 4]);
        assert!(decode(&buf).is_err());
        // Run overrunning the image.
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(&MAGIC);
        buf2.extend_from_slice(&2u32.to_be_bytes());
        buf2.extend_from_slice(&1u32.to_be_bytes());
        buf2.extend_from_slice(&[200, 1, 2, 3, 4]);
        assert!(decode(&buf2).is_err());
    }

    #[test]
    fn decode_never_panics_on_noise() {
        let mut state = 0x0badf00du32;
        for len in 0..128 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = decode(&buf);
        }
    }
}
