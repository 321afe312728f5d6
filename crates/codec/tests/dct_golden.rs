//! Golden digests for the block-DCT codec: the exact bytes `dct::encode`
//! emits and the exact pixels `dct::decode` returns are pinned per corpus
//! and quality, so a change to the transform, the quantiser, the entropy
//! stage or the colour conversion shows up as a digest diff, not just as a
//! round trip that still looks plausible.
//!
//! The fixture was generated on the commit *before* the 32-bit kernel
//! rewrite (lane-vector `i64` kernel, per-coefficient division) and must
//! keep passing without regeneration: that is the proof the rewrite is
//! byte- and pixel-identical. Regenerate with `UPDATE_GOLDEN=1 cargo test
//! -p adshare-codec --test dct_golden` only after an intentional format
//! change, and justify the diff in the PR.
//!
//! Each row also pins the inflated coefficient body. A change to the
//! DEFLATE stage alone (the match policy `dct::encode` compresses with)
//! moves only the `bytes` and encode-digest columns: an unchanged body
//! column is the proof that every coefficient, and so every decoded pixel,
//! is what it was.

use adshare_codec::{dct, deflate, Image};

/// Order-sensitive FNV-1a, the digest the session layer's parity tests use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Triangle wave in 0..=255 with the given period (integer only, so the
/// corpora do not depend on a libm).
fn tri(v: u32, period: u32) -> i32 {
    let p = v % period;
    let half = period / 2;
    let up = if p < half { p } else { period - p };
    (up * 255 / half) as i32
}

/// Smooth colour ramps plus sensor-like noise: every block is dense in
/// small AC coefficients (the full-butterfly path on both sides).
fn photo(w: u32, h: u32) -> Image {
    let mut img = Image::new(w, h).unwrap();
    let mut state = 0x9e37_79b9u32;
    for y in 0..h {
        for x in 0..w {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let noise = ((state >> 24) % 21) as i32 - 10;
            let px = |v: i32| (v + noise).clamp(0, 255) as u8;
            img.set_pixel(
                x,
                y,
                [px(tri(x, 97)), px(tri(y, 71)), px(tri(x + 2 * y, 113)), 255],
            );
        }
    }
    img
}

/// Flat panels, one-pixel rules and glyph-like specks: mostly DC-only
/// blocks with a few large-amplitude ones (the sparse shortcuts and, at
/// high quality, the largest coefficients real content produces).
fn ui(w: u32, h: u32) -> Image {
    let mut img = Image::filled(w, h, [236, 236, 240, 255]).unwrap();
    for y in 0..h {
        for x in 0..w {
            if y < 18 {
                img.set_pixel(x, y, [40, 70, 150, 255]);
            } else if y % 23 == 0 || x % 57 == 0 {
                img.set_pixel(x, y, [0, 0, 0, 255]);
            } else if (x * 7 + y * 13) % 11 < 2 && y % 16 > 4 && y % 16 < 12 {
                img.set_pixel(x, y, [20, 20, 20, 255]);
            }
        }
    }
    img
}

/// Noise-free ramps with saturated corners, at a size that leaves partial
/// blocks on the right and bottom edges.
fn gradient(w: u32, h: u32) -> Image {
    let mut img = Image::new(w, h).unwrap();
    for y in 0..h {
        for x in 0..w {
            let r = (x * 255 / (w - 1)) as u8;
            let g = (y * 255 / (h - 1)) as u8;
            let b = ((x + y) * 255 / (w + h - 2)) as u8;
            img.set_pixel(x, y, [r, g, 255 - b, 255]);
        }
    }
    img
}

#[test]
fn dct_output_matches_golden_digests() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/dct_golden.txt");
    let corpora = [
        ("photo_160x120", photo(160, 120)),
        ("ui_128x128", ui(128, 128)),
        ("gradient_61x45", gradient(61, 45)),
    ];
    let mut produced = String::from(
        "# <corpus>\t<quality>\t<bytes>\t<fnv1a of dct::encode>\t<fnv1a of inflated coefficient body>\t<fnv1a of decoded RGBA> — regenerate with UPDATE_GOLDEN=1\n",
    );
    for (name, img) in &corpora {
        for quality in [30u8, 75, 95] {
            let encoded = dct::encode(img, quality);
            let decoded = dct::decode(&encoded).expect("decode");
            // The container's 13-byte header (magic, width, height,
            // quality) is followed by the raw DEFLATE stream.
            let body = deflate::inflate(&encoded[13..], 1 << 24).expect("inflate body");
            assert_eq!(
                (decoded.width(), decoded.height()),
                (img.width(), img.height()),
                "{name}/q{quality} dimensions"
            );
            produced.push_str(&format!(
                "{name}\t{quality}\t{}\t{:016x}\t{:016x}\t{:016x}\n",
                encoded.len(),
                fnv1a(&encoded),
                fnv1a(&body),
                fnv1a(decoded.data()),
            ));
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &produced).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path} ({e}); run with UPDATE_GOLDEN=1")
    });
    let rows = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let (expected, produced) = (rows(&expected), rows(&produced));
    for (exp, got) in expected.iter().zip(&produced) {
        let label = got.split('\t').take(2).collect::<Vec<_>>().join("/q");
        assert_eq!(exp, got, "DCT output drifted for {label}");
    }
    assert_eq!(expected.len(), produced.len(), "golden fixture row count");
}
