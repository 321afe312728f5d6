//! Content classification: synthetic (UI/text) vs photographic.
//!
//! Draft §4.2 says updates "can be encoded with PNG, JPEG, JPEG 2000,
//! Theora or other media types, *according to their characteristics*" —
//! lossless PNG for computer-generated regions, lossy coding for
//! photographic ones. This module supplies the decision heuristic: screen
//! content is long flat runs broken by hard edges; photographs have dense
//! small-amplitude gradients almost everywhere. It runs once per tile in
//! front of the encode it steers, so it reads a bounded number of pixel
//! pairs straight out of [`Image::data`] and builds nothing.

use crate::image::{Image, BYTES_PER_PIXEL};

/// The two coding regimes of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentClass {
    /// Computer-generated: flat fills, text, hard edges → lossless PNG.
    Synthetic,
    /// Photographic/video: smooth gradients plus noise → lossy DCT.
    Photographic,
}

/// Classification with its evidence (exposed for tuning and tests).
#[derive(Debug, Clone, Copy)]
pub struct Classification {
    /// The verdict.
    pub class: ContentClass,
    /// Fraction of sampled horizontal neighbour pairs with a small nonzero
    /// luma difference (1..=24) — the photographic-texture signature.
    pub texture_ratio: f64,
}

/// Sample budget: classification cost must stay negligible next to the
/// encode it steers. Every `step`-th pixel in row-major order is sampled,
/// with `step` chosen so that between 4 096 and 8 191 samples are taken.
const MAX_SAMPLES: usize = 4096;

/// Integer luma (BT.601 weights, per mille) of one RGBA pixel.
#[inline(always)]
fn luma(px: &[u8]) -> i32 {
    (px[0] as i32 * 299 + px[1] as i32 * 587 + px[2] as i32 * 114) / 1000
}

/// Classify an image region.
///
/// Photographs (and video frames) are covered in small-amplitude gradients:
/// measured texture ratios sit above 0.9 for noisy content and stay below
/// 0.01 for flat UI and hard-edged text, whose luma steps are either zero
/// (flat runs) or large (glyph edges). Grayscale photographs keep the
/// texture signature even with few distinct colours, so texture alone
/// decides.
pub fn classify(img: &Image) -> Classification {
    let data = img.data();
    let w = img.width() as usize;
    let total = data.len() / BYTES_PER_PIXEL;
    let step = (total / MAX_SAMPLES).max(1);

    // Pixels step-1, 2·step-1, … of the row-major order; `x` is the sample's
    // column, carried along so the walk needs no division per sample.
    let mut textured = 0u32;
    let mut pairs = 0u32;
    let mut x = (step - 1) % w;
    for k in (step - 1..total).step_by(step) {
        if x + 1 < w {
            let px = &data[k * BYTES_PER_PIXEL..(k + 2) * BYTES_PER_PIXEL];
            let d = (luma(px) - luma(&px[BYTES_PER_PIXEL..])).abs();
            pairs += 1;
            textured += (1..=24).contains(&d) as u32;
        }
        x += step % w;
        if x >= w {
            x -= w;
        }
    }
    let texture_ratio = if pairs == 0 {
        0.0
    } else {
        textured as f64 / pairs as f64
    };
    Classification {
        class: if texture_ratio > 0.35 {
            ContentClass::Photographic
        } else {
            ContentClass::Synthetic
        },
        texture_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Rect;

    fn photo(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h).unwrap();
        let mut state = 0x1234_5678u32;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let noise = ((state >> 24) % 16) as i32 - 8;
                let base = 100 + (x as i32 * 60 / w as i32) + (y as i32 * 40 / h as i32);
                let v = (base + noise).clamp(0, 255) as u8;
                img.set_pixel(x, y, [v, v.wrapping_add(10), v.wrapping_sub(10), 255]);
            }
        }
        img
    }

    fn ui(w: u32, h: u32) -> Image {
        let mut img = Image::filled(w, h, [240, 240, 240, 255]).unwrap();
        img.fill_rect(Rect::new(0, 0, w, 20), [50, 80, 140, 255]);
        for i in 0..20 {
            img.fill_rect(
                Rect::new((i * 13) % w, 30 + (i * 7) % (h - 32), 8, 2),
                [20, 20, 20, 255],
            );
        }
        img
    }

    /// The classifier as first written — a walk over every pixel with a
    /// modulo per step and two bounds-checked `pixel()` reads per sample.
    /// Oracle of `stride_walk_visits_the_same_samples*`.
    fn texture_ratio_oracle(img: &Image) -> f64 {
        let (w, h) = (img.width(), img.height());
        let step = (w * h / MAX_SAMPLES as u32).max(1);
        let luma =
            |[r, g, b, _]: [u8; 4]| (r as i32 * 299 + g as i32 * 587 + b as i32 * 114) / 1000;
        let (mut textured, mut pairs, mut idx) = (0u32, 0u32, 0u32);
        for y in 0..h {
            for x in 0..w {
                idx += 1;
                if !idx.is_multiple_of(step) || x + 1 >= w {
                    continue;
                }
                let d = (luma(img.pixel(x, y).unwrap()) - luma(img.pixel(x + 1, y).unwrap())).abs();
                pairs += 1;
                if (1..=24).contains(&d) {
                    textured += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            textured as f64 / pairs as f64
        }
    }

    fn assert_matches_oracle(img: &Image) {
        let c = classify(img);
        let ratio = texture_ratio_oracle(img);
        assert_eq!(
            c.texture_ratio.to_bits(),
            ratio.to_bits(),
            "{}x{}",
            img.width(),
            img.height()
        );
        assert_eq!(c.class == ContentClass::Photographic, ratio > 0.35);
    }

    fn text(w: u32, h: u32) -> Image {
        // Hard black-on-white edges: large steps, few colours.
        let mut img = Image::filled(w, h, [255, 255, 255, 255]).unwrap();
        for i in 0..w * h / 50 {
            img.set_pixel((i * 7) % w, (i * 13) % h, [0, 0, 0, 255]);
        }
        img
    }

    fn gradient(w: u32, h: u32) -> Image {
        let mut img = Image::new(w, h).unwrap();
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(x, y, [(x * 2) as u8, (y * 2) as u8, ((x + y) as u8), 255]);
            }
        }
        img
    }

    #[test]
    fn stride_walk_visits_the_same_samples() {
        // Sizes on both sides of the sample budget (step 1, 2, 3, 4, 18),
        // steps larger than, equal to and coprime with the width, and the
        // degenerate strips that have no horizontal pair at all.
        let sizes = [
            (1, 1),
            (1, 300),
            (300, 1),
            (2, 5000),
            (5000, 2),
            (3, 3),
            (64, 64),
            (91, 90),
            (128, 128),
            (128, 112),
            (129, 127),
            (320, 240),
        ];
        for (w, h) in sizes {
            for make in [photo, text, gradient] {
                assert_matches_oracle(&make(w, h));
            }
            if h > 32 && w > 13 {
                assert_matches_oracle(&ui(w, h));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn stride_walk_visits_the_same_samples_at_any_size(
            w in 1u32..=300,
            h in 1u32..=300,
            kind in 0usize..3,
        ) {
            assert_matches_oracle(&[photo, text, gradient][kind](w, h));
        }
    }

    #[test]
    fn photo_classified_photographic() {
        let c = classify(&photo(160, 120));
        assert_eq!(c.class, ContentClass::Photographic, "{c:?}");
    }

    #[test]
    fn ui_classified_synthetic() {
        let c = classify(&ui(160, 120));
        assert_eq!(c.class, ContentClass::Synthetic, "{c:?}");
    }

    #[test]
    fn flat_fill_synthetic() {
        let img = Image::filled(64, 64, [128, 64, 32, 255]).unwrap();
        assert_eq!(classify(&img).class, ContentClass::Synthetic);
    }

    #[test]
    fn text_page_synthetic() {
        assert_eq!(classify(&text(200, 100)).class, ContentClass::Synthetic);
    }

    #[test]
    fn tiny_regions_never_panic() {
        for (w, h) in [(1u32, 1u32), (2, 1), (1, 2), (3, 3)] {
            let _ = classify(&Image::filled(w, h, [9, 9, 9, 255]).unwrap());
        }
    }

    #[test]
    fn smooth_gradient_without_noise_is_borderline_consistent() {
        // A pure gradient: lots of distinct colours, lots of small steps —
        // the DCT side wins, which is also the cheaper encoding for it.
        let c = classify(&gradient(128, 128));
        assert_eq!(c.class, ContentClass::Photographic, "{c:?}");
    }
}
