//! PNG encoder/decoder — the mandatory payload format of the draft
//! (`draft-boyaci-avt-png`: "All AH and participant software implementations
//! MUST support PNG images").
//!
//! Supported subset: 8-bit truecolour (RGB, colour type 2) and truecolour
//! with alpha (RGBA, colour type 6), non-interlaced, with all five scanline
//! filters and a per-row minimum-sum-of-absolute-differences filter chooser.
//! This covers everything a screen-sharing payload needs; palette and
//! interlaced images are intentionally out of scope and rejected cleanly.

use std::borrow::Cow;

use crate::checksum::{crc32, Crc32};
use crate::deflate::Level;
use crate::image::{check_dims, Image};
use crate::working_set::{self, PngRows};
use crate::zlib;
use crate::{Error, Result};

/// The 8-byte PNG signature.
pub const SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1a, b'\n'];

/// Pixel layout written by the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PngColor {
    /// 8-bit RGB (colour type 2) — smaller when alpha is irrelevant, which
    /// is the common case for screen content.
    Rgb,
    /// 8-bit RGBA (colour type 6).
    Rgba,
}

impl PngColor {
    fn color_type(self) -> u8 {
        match self {
            PngColor::Rgb => 2,
            PngColor::Rgba => 6,
        }
    }

    fn bytes_per_pixel(self) -> usize {
        match self {
            PngColor::Rgb => 3,
            PngColor::Rgba => 4,
        }
    }
}

/// Encoder options.
#[derive(Debug, Clone, Copy)]
pub struct PngOptions {
    /// Pixel layout.
    pub color: PngColor,
    /// DEFLATE effort.
    pub level: Level,
}

impl Default for PngOptions {
    fn default() -> Self {
        PngOptions {
            color: PngColor::Rgb,
            level: Level::Default,
        }
    }
}

/// Encode `img` as a PNG file.
pub fn encode(img: &Image, opts: PngOptions) -> Vec<u8> {
    working_set::assemble(|ws, out| {
        filter_rows(img, opts.color, &mut ws.rows, &mut ws.plain);
        out.extend_from_slice(&SIGNATURE);
        let mut ihdr = [0u8; 13];
        ihdr[..4].copy_from_slice(&img.width().to_be_bytes());
        ihdr[4..8].copy_from_slice(&img.height().to_be_bytes());
        ihdr[8] = 8; // bit depth
        ihdr[9] = opts.color.color_type();
        // Compression (deflate), filter method 0 and no interlace: zeros.
        write_chunk(out, b"IHDR", &ihdr);
        // IDAT: the zlib stream goes straight in behind the chunk header,
        // whose length is patched once the stream is written.
        let start = out.len();
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(b"IDAT");
        zlib::compress_into(&mut ws.lz, &ws.plain, opts.level, out);
        let len = (out.len() - start - 8) as u32;
        out[start..start + 4].copy_from_slice(&len.to_be_bytes());
        let crc = crc32(&out[start + 4..]);
        out.extend_from_slice(&crc.to_be_bytes());
        write_chunk(out, b"IEND", &[]);
    })
}

/// Filter every scanline of `img` in `color`'s layout into `filtered`
/// (filter byte, then the row), choosing per row the filter with the
/// smallest sum of absolute differences (the standard heuristic). RGBA
/// rows are filtered where they lie in the image; RGB rows are converted
/// one at a time into `rows.cur`.
fn filter_rows(img: &Image, color: PngColor, rows: &mut PngRows, filtered: &mut Vec<u8>) {
    let bpp = color.bytes_per_pixel();
    let stride = img.width() as usize * bpp;
    let PngRows {
        cur,
        prev,
        candidate,
        best,
    } = rows;
    // Above the first row is a row of zeros.
    prev.clear();
    prev.resize(stride, 0);
    for row in [&mut *cur, &mut *candidate, &mut *best] {
        row.resize(stride, 0);
    }
    filtered.clear();
    filtered.reserve_exact((stride + 1) * img.height() as usize);
    for y in 0..img.height() {
        let (cur, prev): (&[u8], &[u8]) = match color {
            PngColor::Rgba if y == 0 => (img.row(y), &prev[..stride]),
            PngColor::Rgba => (img.row(y), img.row(y - 1)),
            PngColor::Rgb => {
                if y > 0 {
                    std::mem::swap(cur, prev);
                }
                for (rgb, px) in cur.chunks_exact_mut(3).zip(img.row(y).chunks_exact(4)) {
                    rgb.copy_from_slice(&px[..3]);
                }
                (&cur[..stride], &prev[..stride])
            }
        };
        // The two scratch rows swap roles so no candidate is ever copied.
        let mut best_filter = 0u8;
        let mut best_score = u64::MAX;
        for f in 0..5u8 {
            apply_filter(f, cur, prev, bpp, &mut candidate[..stride]);
            let score: u64 = candidate[..stride]
                .iter()
                .map(|&b| (b as i8).unsigned_abs() as u64)
                .sum();
            if score < best_score {
                best_score = score;
                best_filter = f;
                std::mem::swap(candidate, best);
            }
        }
        filtered.push(best_filter);
        filtered.extend_from_slice(&best[..stride]);
    }
}

/// The width and height a PNG declares, read from its leading IHDR alone
/// (PNG requires it first): nothing is inflated or allocated, and the
/// chunk's CRC is left to [`decode`].
pub fn dims(data: &[u8]) -> Result<(u32, u32)> {
    if data.len() < SIGNATURE.len() || data[..8] != SIGNATURE {
        return Err(Error::Invalid {
            what: "PNG",
            detail: "bad signature",
        });
    }
    let Some(ihdr) = data.get(8..24) else {
        return Err(Error::Truncated("PNG IHDR"));
    };
    if ihdr[..8] != [0, 0, 0, 13, b'I', b'H', b'D', b'R'] {
        return Err(Error::Invalid {
            what: "IHDR",
            detail: "not the first chunk, or length != 13",
        });
    }
    let w = u32::from_be_bytes([ihdr[8], ihdr[9], ihdr[10], ihdr[11]]);
    let h = u32::from_be_bytes([ihdr[12], ihdr[13], ihdr[14], ihdr[15]]);
    check_dims(w, h)?;
    Ok((w, h))
}

/// Decode a PNG file into an RGBA [`Image`].
pub fn decode(data: &[u8]) -> Result<Image> {
    if data.len() < SIGNATURE.len() || data[..8] != SIGNATURE {
        return Err(Error::Invalid {
            what: "PNG",
            detail: "bad signature",
        });
    }
    let mut off = 8;
    let mut header: Option<(u32, u32, PngColor)> = None;
    // One IDAT chunk (all this encoder writes) is inflated where it lies;
    // only a stream split over several chunks is gathered first.
    let mut idat: Cow<'_, [u8]> = Cow::Borrowed(&[]);
    let mut seen_iend = false;
    while off < data.len() {
        let (kind, body, next) = read_chunk(data, off)?;
        off = next;
        match &kind {
            b"IHDR" => {
                if body.len() != 13 {
                    return Err(Error::Invalid {
                        what: "IHDR",
                        detail: "length != 13",
                    });
                }
                let w = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
                let h = u32::from_be_bytes([body[4], body[5], body[6], body[7]]);
                // The size an image may have, checked before a byte is
                // inflated: the header is a claim the IDAT has not backed.
                check_dims(w, h)?;
                if body[8] != 8 {
                    return Err(Error::Unsupported("PNG bit depth != 8"));
                }
                let color = match body[9] {
                    2 => PngColor::Rgb,
                    6 => PngColor::Rgba,
                    _ => return Err(Error::Unsupported("PNG colour type")),
                };
                if body[10] != 0 || body[11] != 0 {
                    return Err(Error::Unsupported("PNG compression/filter method"));
                }
                if body[12] != 0 {
                    return Err(Error::Unsupported("interlaced PNG"));
                }
                header = Some((w, h, color));
            }
            b"IDAT" if idat.is_empty() => idat = Cow::Borrowed(body),
            b"IDAT" => idat.to_mut().extend_from_slice(body),
            b"IEND" => {
                seen_iend = true;
                break;
            }
            _ => {
                // Ancillary chunk: ignore. Critical unknown chunks
                // (uppercase first letter) must be rejected.
                if kind[0].is_ascii_uppercase() {
                    return Err(Error::Unsupported("unknown critical PNG chunk"));
                }
            }
        }
    }
    let (w, h, color) = header.ok_or(Error::Invalid {
        what: "PNG",
        detail: "missing IHDR",
    })?;
    if !seen_iend {
        return Err(Error::Truncated("PNG (no IEND)"));
    }
    working_set::with(|ws| {
        let bpp = color.bytes_per_pixel();
        let stride = w as usize * bpp;
        let expected = (stride + 1) * h as usize;
        let filtered = &mut ws.plain;
        zlib::decompress_into(&idat, expected + 1, Some(expected), filtered)?;
        if filtered.len() != expected {
            return Err(Error::SizeMismatch {
                expected,
                actual: filtered.len(),
            });
        }
        let pixels = unfilter_rows(filtered, color, w as usize, h as usize, &mut ws.rows)?;
        Image::from_rgba(w, h, pixels)
    })
}

/// Reverse the filter of every scanline in `filtered` straight into the
/// RGBA pixels it returns. RGBA rows are unfiltered in place in the
/// pixels; RGB rows go through `rows.cur` / `rows.prev` and are widened.
fn unfilter_rows(
    filtered: &[u8],
    color: PngColor,
    w: usize,
    h: usize,
    rows: &mut PngRows,
) -> Result<Vec<u8>> {
    let bpp = color.bytes_per_pixel();
    let stride = w * bpp;
    let lines = filtered.chunks_exact(stride + 1);
    match color {
        PngColor::Rgba => {
            let mut pixels = vec![0u8; w * h * 4];
            for (y, line) in lines.enumerate() {
                let (done, cur) = pixels.split_at_mut(y * stride);
                let prev: &[u8] = if y == 0 {
                    &[]
                } else {
                    &done[(y - 1) * stride..]
                };
                unfilter(line[0], &line[1..], prev, bpp, &mut cur[..stride])?;
            }
            Ok(pixels)
        }
        PngColor::Rgb => {
            let mut pixels = vec![255u8; w * h * 4];
            let (cur, prev) = (&mut rows.cur, &mut rows.prev);
            cur.resize(stride, 0);
            prev.resize(stride, 0);
            for (y, (line, out)) in lines.zip(pixels.chunks_exact_mut(w * 4)).enumerate() {
                let above: &[u8] = if y == 0 { &[] } else { prev };
                unfilter(line[0], &line[1..], above, bpp, cur)?;
                for (px, rgb) in out.chunks_exact_mut(4).zip(cur.chunks_exact(3)) {
                    px[..3].copy_from_slice(rgb);
                }
                std::mem::swap(cur, prev);
            }
            Ok(pixels)
        }
    }
}

pub(crate) fn write_chunk(out: &mut Vec<u8>, kind: &[u8; 4], body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(kind);
    out.extend_from_slice(body);
    let mut crc = Crc32::new();
    crc.update(kind);
    crc.update(body);
    out.extend_from_slice(&crc.finish().to_be_bytes());
}

fn read_chunk(data: &[u8], off: usize) -> Result<([u8; 4], &[u8], usize)> {
    if data.len() < off + 12 {
        return Err(Error::Truncated("PNG chunk"));
    }
    let len = u32::from_be_bytes([data[off], data[off + 1], data[off + 2], data[off + 3]]) as usize;
    if len > 1 << 30 || data.len() < off + 12 + len {
        return Err(Error::Truncated("PNG chunk body"));
    }
    let kind: [u8; 4] = [data[off + 4], data[off + 5], data[off + 6], data[off + 7]];
    let body = &data[off + 8..off + 8 + len];
    let stored = u32::from_be_bytes([
        data[off + 8 + len],
        data[off + 9 + len],
        data[off + 10 + len],
        data[off + 11 + len],
    ]);
    let mut crc = Crc32::new();
    crc.update(&kind);
    crc.update(body);
    if crc.finish() != stored {
        return Err(Error::ChecksumMismatch("PNG chunk CRC"));
    }
    Ok((kind, body, off + 12 + len))
}

/// Paeth predictor (PNG spec §9.4).
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let p = a as i32 + b as i32 - c as i32;
    let pa = (p - a as i32).abs();
    let pb = (p - b as i32).abs();
    let pc = (p - c as i32).abs();
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Apply filter `f` to `cur` (with `prev` the unfiltered previous row),
/// writing into `out`. Dispatches to per-filter slice passes — None/Sub/
/// Up/Average have no loop-carried output dependency and autovectorise;
/// Paeth runs per-bpp so the predictor's neighbour loads stay in
/// registers. Output is byte-identical to [`apply_filter_generic`]
/// (proptest-pinned below).
fn apply_filter(f: u8, cur: &[u8], prev: &[u8], bpp: usize, out: &mut [u8]) {
    let n = cur.len().min(bpp);
    match f {
        0 => out.copy_from_slice(cur),
        1 => {
            out[..n].copy_from_slice(&cur[..n]);
            for ((o, &x), &a) in out[n..].iter_mut().zip(&cur[n..]).zip(cur.iter()) {
                *o = x.wrapping_sub(a);
            }
        }
        2 => {
            for ((o, &x), &b) in out.iter_mut().zip(cur).zip(prev) {
                *o = x.wrapping_sub(b);
            }
        }
        3 => {
            // Head: a = 0, so the predictor is b/2.
            for i in 0..n {
                out[i] = cur[i].wrapping_sub(prev[i] / 2);
            }
            for i in bpp..cur.len() {
                let p = ((cur[i - bpp] as u16 + prev[i] as u16) / 2) as u8;
                out[i] = cur[i].wrapping_sub(p);
            }
        }
        _ => {
            // Head: a = c = 0 and paeth(0, b, 0) = b.
            for i in 0..n {
                out[i] = cur[i].wrapping_sub(prev[i]);
            }
            match bpp {
                3 => apply_paeth_tail::<3>(cur, prev, out),
                4 => apply_paeth_tail::<4>(cur, prev, out),
                _ => apply_paeth_tail_dyn(cur, prev, bpp, out),
            }
        }
    }
}

/// Paeth apply for bytes past the first pixel, with compile-time bpp.
#[inline]
fn apply_paeth_tail<const N: usize>(cur: &[u8], prev: &[u8], out: &mut [u8]) {
    for i in N..cur.len() {
        out[i] = cur[i].wrapping_sub(paeth(cur[i - N], prev[i], prev[i - N]));
    }
}

fn apply_paeth_tail_dyn(cur: &[u8], prev: &[u8], bpp: usize, out: &mut [u8]) {
    for i in bpp..cur.len() {
        out[i] = cur[i].wrapping_sub(paeth(cur[i - bpp], prev[i], prev[i - bpp]));
    }
}

/// The original byte-at-a-time filter loop, kept as the semantic reference
/// the specialised passes are proptest-checked against.
#[cfg(test)]
fn apply_filter_generic(f: u8, cur: &[u8], prev: &[u8], bpp: usize, out: &mut [u8]) {
    for i in 0..cur.len() {
        let x = cur[i];
        let a = if i >= bpp { cur[i - bpp] } else { 0 };
        let b = prev[i];
        let c = if i >= bpp { prev[i - bpp] } else { 0 };
        out[i] = match f {
            0 => x,
            1 => x.wrapping_sub(a),
            2 => x.wrapping_sub(b),
            3 => x.wrapping_sub(((a as u16 + b as u16) / 2) as u8),
            _ => x.wrapping_sub(paeth(a, b, c)),
        };
    }
}

/// Reverse filter `f`, writing the reconstructed row into `cur`. First-row
/// calls pass an empty `prev`; each filter then degenerates to a simpler
/// pass (Up → copy, Average → a-only, Paeth → Sub, since
/// `paeth(a, 0, 0) = a`). Byte-identical to [`unfilter_generic`].
fn unfilter(f: u8, src: &[u8], prev: &[u8], bpp: usize, cur: &mut [u8]) -> Result<()> {
    if f > 4 {
        return Err(Error::Invalid {
            what: "PNG filter",
            detail: "type > 4",
        });
    }
    let n = src.len().min(bpp);
    match (f, prev.is_empty()) {
        (0, _) | (2, true) => cur.copy_from_slice(src),
        (1, _) | (4, true) => match bpp {
            3 => unfilter_sub::<3>(src, cur),
            4 => unfilter_sub::<4>(src, cur),
            _ => unfilter_sub_dyn(src, bpp, cur),
        },
        (2, false) => {
            for ((o, &s), &b) in cur.iter_mut().zip(src).zip(prev) {
                *o = s.wrapping_add(b);
            }
        }
        (3, true) => {
            cur[..n].copy_from_slice(&src[..n]);
            for i in bpp..src.len() {
                cur[i] = src[i].wrapping_add(cur[i - bpp] / 2);
            }
        }
        (3, false) => {
            for i in 0..n {
                cur[i] = src[i].wrapping_add(prev[i] / 2);
            }
            match bpp {
                3 => unfilter_avg_tail::<3>(src, prev, cur),
                4 => unfilter_avg_tail::<4>(src, prev, cur),
                _ => {
                    for i in bpp..src.len() {
                        let p = ((cur[i - bpp] as u16 + prev[i] as u16) / 2) as u8;
                        cur[i] = src[i].wrapping_add(p);
                    }
                }
            }
        }
        (4, false) => {
            for i in 0..n {
                cur[i] = src[i].wrapping_add(prev[i]);
            }
            match bpp {
                3 => unfilter_paeth_tail::<3>(src, prev, cur),
                4 => unfilter_paeth_tail::<4>(src, prev, cur),
                _ => {
                    for i in bpp..src.len() {
                        cur[i] = src[i].wrapping_add(paeth(cur[i - bpp], prev[i], prev[i - bpp]));
                    }
                }
            }
        }
        _ => unreachable!("filter type validated above"),
    }
    Ok(())
}

/// Sub unfilter (also Paeth's first row): loop-carried at distance `N`,
/// with `N` known at compile time so the bounds and offsets fold away.
#[inline]
fn unfilter_sub<const N: usize>(src: &[u8], cur: &mut [u8]) {
    let n = src.len().min(N);
    cur[..n].copy_from_slice(&src[..n]);
    for i in N..src.len() {
        cur[i] = src[i].wrapping_add(cur[i - N]);
    }
}

fn unfilter_sub_dyn(src: &[u8], bpp: usize, cur: &mut [u8]) {
    let n = src.len().min(bpp);
    cur[..n].copy_from_slice(&src[..n]);
    for i in bpp..src.len() {
        cur[i] = src[i].wrapping_add(cur[i - bpp]);
    }
}

/// Average unfilter past the first pixel, compile-time bpp.
#[inline]
fn unfilter_avg_tail<const N: usize>(src: &[u8], prev: &[u8], cur: &mut [u8]) {
    for i in N..src.len() {
        let p = ((cur[i - N] as u16 + prev[i] as u16) / 2) as u8;
        cur[i] = src[i].wrapping_add(p);
    }
}

/// Paeth unfilter past the first pixel, compile-time bpp.
#[inline]
fn unfilter_paeth_tail<const N: usize>(src: &[u8], prev: &[u8], cur: &mut [u8]) {
    for i in N..src.len() {
        cur[i] = src[i].wrapping_add(paeth(cur[i - N], prev[i], prev[i - N]));
    }
}

/// The original byte-at-a-time unfilter loop, kept as the semantic
/// reference for the proptests.
#[cfg(test)]
fn unfilter_generic(f: u8, src: &[u8], prev: &[u8], bpp: usize, cur: &mut [u8]) {
    for i in 0..src.len() {
        let a = if i >= bpp { cur[i - bpp] } else { 0 };
        let b = if prev.is_empty() { 0 } else { prev[i] };
        let c = if i >= bpp && !prev.is_empty() {
            prev[i - bpp]
        } else {
            0
        };
        cur[i] = match f {
            0 => src[i],
            1 => src[i].wrapping_add(a),
            2 => src[i].wrapping_add(b),
            3 => src[i].wrapping_add(((a as u16 + b as u16) / 2) as u8),
            _ => src[i].wrapping_add(paeth(a, b, c)),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Rect;

    fn test_image(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(
                    x,
                    y,
                    [(x * 7) as u8, (y * 11) as u8, ((x + y) * 3) as u8, 255],
                );
            }
        }
        img
    }

    #[test]
    fn round_trip_rgb() {
        let img = test_image(37, 23);
        let png = encode(
            &img,
            PngOptions {
                color: PngColor::Rgb,
                level: Level::Default,
            },
        );
        let back = decode(&png).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn round_trip_rgba() {
        let mut img = test_image(16, 16);
        img.set_pixel(3, 3, [10, 20, 30, 128]); // non-opaque alpha
        let png = encode(
            &img,
            PngOptions {
                color: PngColor::Rgba,
                level: Level::Default,
            },
        );
        let back = decode(&png).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn one_by_one() {
        let img = Image::filled(1, 1, [9, 8, 7, 255]).unwrap();
        for color in [PngColor::Rgb, PngColor::Rgba] {
            let png = encode(
                &img,
                PngOptions {
                    color,
                    level: Level::Default,
                },
            );
            assert_eq!(decode(&png).unwrap(), img);
        }
    }

    #[test]
    fn flat_image_compresses_hard() {
        let img = Image::filled(256, 256, [240, 240, 240, 255]).unwrap();
        let png = encode(&img, PngOptions::default());
        assert!(
            png.len() < 1000,
            "flat 256x256 should be tiny, got {}",
            png.len()
        );
        assert_eq!(decode(&png).unwrap(), img);
    }

    #[test]
    fn ui_like_image_beats_raw_substantially() {
        // Text-ish content: sparse dark pixels on a light background.
        let mut img = Image::filled(320, 200, [250, 250, 250, 255]).unwrap();
        for i in 0..600u32 {
            let x = (i * 37) % 320;
            let y = (i * 17) % 200;
            img.fill_rect(Rect::new(x, y, 3, 1), [20, 20, 20, 255]);
        }
        let png = encode(&img, PngOptions::default());
        let raw = 320 * 200 * 4;
        assert!(png.len() * 10 < raw, "png {} vs raw {raw}", png.len());
        assert_eq!(decode(&png).unwrap(), img);
    }

    #[test]
    fn signature_and_chunk_layout() {
        let img = Image::filled(2, 2, [1, 2, 3, 255]).unwrap();
        let png = encode(&img, PngOptions::default());
        assert_eq!(&png[..8], &SIGNATURE);
        assert_eq!(&png[12..16], b"IHDR");
        // IHDR body: width=2, height=2, depth 8, colour 2.
        assert_eq!(&png[16..20], &2u32.to_be_bytes());
        assert_eq!(&png[20..24], &2u32.to_be_bytes());
        assert_eq!(png[24], 8);
        assert_eq!(png[25], 2);
        // Last 12 bytes are the IEND chunk with its fixed CRC.
        let tail = &png[png.len() - 12..];
        assert_eq!(&tail[4..8], b"IEND");
        assert_eq!(&tail[8..12], &0xAE42_6082u32.to_be_bytes());
    }

    #[test]
    fn corrupted_crc_rejected() {
        let img = test_image(8, 8);
        let mut png = encode(&img, PngOptions::default());
        // Flip a byte inside the IDAT body (after signature + IHDR chunk).
        let idx = 8 + 25 + 20;
        png[idx] ^= 0xff;
        assert!(decode(&png).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let img = test_image(8, 8);
        let png = encode(&img, PngOptions::default());
        for cut in [0, 4, 8, 20, png.len() - 13, png.len() - 1] {
            assert!(decode(&png[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_dimensions_rejected() {
        let img = Image::filled(2, 2, [0, 0, 0, 255]).unwrap();
        let mut png = encode(&img, PngOptions::default());
        // Overwrite IHDR width with a huge value and fix the CRC.
        png[16..20].copy_from_slice(&0xffff_fff0u32.to_be_bytes());
        let mut crc = Crc32::new();
        crc.update(b"IHDR");
        crc.update(&png[16..29]);
        let crc_pos = 29;
        png[crc_pos..crc_pos + 4].copy_from_slice(&crc.finish().to_be_bytes());
        assert!(matches!(decode(&png), Err(Error::BadDimensions { .. })));
    }

    #[test]
    fn all_filters_exercised() {
        // Gradient images favour Sub/Up/Average/Paeth on different rows; the
        // decoder must handle whatever the chooser picked. Verify via a
        // spread of content types.
        type PixelFn = fn(u32, u32) -> [u8; 4];
        let cases: Vec<(u32, u32, PixelFn)> = vec![
            (31, 17, |x, _y| [(x * 8) as u8, 0, 0, 255]),
            (17, 31, |_x, y| [0, (y * 8) as u8, 0, 255]),
            (23, 23, |x, y| {
                [(x ^ y) as u8, (x + y) as u8, (x * y) as u8, 255]
            }),
            (16, 16, |_, _| [128, 128, 128, 255]),
        ];
        for (w, h, f) in cases {
            let mut img = Image::new(w, h).unwrap();
            for y in 0..h {
                for x in 0..w {
                    img.set_pixel(x, y, f(x, y));
                }
            }
            let png = encode(&img, PngOptions::default());
            assert_eq!(decode(&png).unwrap(), img, "{w}x{h}");
        }
    }

    #[test]
    fn decode_never_panics_on_noise() {
        let mut state = 0x13572468u32;
        for len in 0..256 {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *b = (state >> 24) as u8;
            }
            let _ = decode(&buf);
            // Also with a valid signature prefix.
            if len >= 8 {
                buf[..8].copy_from_slice(&SIGNATURE);
                let _ = decode(&buf);
            }
        }
    }

    #[test]
    fn paeth_matches_spec_cases() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 0, 0), 10); // p=10, pa=0
        assert_eq!(paeth(0, 10, 0), 10); // pb=0
        assert_eq!(paeth(5, 5, 5), 5);
        assert_eq!(paeth(100, 200, 150), 150); // p=150, pc=0
    }

    mod filter_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            // The specialised apply passes must match the generic loop for
            // every filter type and bpp, with and without a previous row.
            #[test]
            fn specialised_apply_matches_generic(
                pixels in proptest::collection::vec(any::<u8>(), 1..96),
                prev_pixels in proptest::collection::vec(any::<u8>(), 1..96),
                f in 0u8..5,
                bpp in (0usize..3).prop_map(|i| [1, 3, 4][i]),
            ) {
                let stride = pixels.len().max(prev_pixels.len()) * bpp;
                let cur: Vec<u8> = pixels.iter().cycle().take(stride).copied().collect();
                let prev: Vec<u8> = prev_pixels.iter().cycle().take(stride).copied().collect();
                let mut fast = vec![0u8; stride];
                let mut slow = vec![0u8; stride];
                apply_filter(f, &cur, &prev, bpp, &mut fast);
                apply_filter_generic(f, &cur, &prev, bpp, &mut slow);
                prop_assert_eq!(&fast, &slow, "filter {} bpp {}", f, bpp);
            }

            // ...and the specialised unfilter passes likewise, including the
            // first-row (empty prev) degenerate forms.
            #[test]
            fn specialised_unfilter_matches_generic(
                src in proptest::collection::vec(any::<u8>(), 1..384),
                prev in proptest::collection::vec(any::<u8>(), 0..384),
                f in 0u8..5,
                bpp in (0usize..3).prop_map(|i| [1, 3, 4][i]),
            ) {
                let n = src.len().min(prev.len());
                let (src, prev) = if prev.is_empty() {
                    (&src[..], &prev[..])
                } else {
                    (&src[..n], &prev[..n])
                };
                let mut fast = vec![0u8; src.len()];
                let mut slow = vec![0u8; src.len()];
                unfilter(f, src, prev, bpp, &mut fast).unwrap();
                unfilter_generic(f, src, prev, bpp, &mut slow);
                prop_assert_eq!(&fast, &slow, "filter {} bpp {}", f, bpp);
            }

            // Every filter type round-trips through apply + unfilter at
            // every bpp, for both the first row and an interior row.
            #[test]
            fn filter_unfilter_round_trip(
                pixels in proptest::collection::vec(any::<u8>(), 1..96),
                prev_pixels in proptest::collection::vec(any::<u8>(), 1..96),
                f in 0u8..5,
                bpp in (0usize..3).prop_map(|i| [1, 3, 4][i]),
                first_row in any::<bool>(),
            ) {
                let stride = pixels.len().max(prev_pixels.len()) * bpp;
                let cur: Vec<u8> = pixels.iter().cycle().take(stride).copied().collect();
                let prev: Vec<u8> = if first_row {
                    vec![0u8; stride]
                } else {
                    prev_pixels.iter().cycle().take(stride).copied().collect()
                };
                let mut ftd = vec![0u8; stride];
                apply_filter(f, &cur, &prev, bpp, &mut ftd);
                // The decoder passes an empty prev for the first row.
                let dec_prev: &[u8] = if first_row { &[] } else { &prev };
                let mut back = vec![0u8; stride];
                unfilter(f, &ftd, dec_prev, bpp, &mut back).unwrap();
                prop_assert_eq!(&back, &cur, "filter {} bpp {}", f, bpp);
            }
        }
    }
}
