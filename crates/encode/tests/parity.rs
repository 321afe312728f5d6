//! The pipeline's two load-bearing guarantees, pinned by property tests:
//!
//! 1. **Byte parity** — for any batch of tiles and any worker count, the
//!    parallel pipeline's output (order, payload types, payload bytes,
//!    hit/miss classification) is identical to the serial reference, both
//!    from a cold cache and from a warmed one. Wire output must not depend
//!    on scheduling.
//! 2. **Pixel parity** — a payload served from the cache decodes to
//!    exactly the pixels that were submitted, and a lossless-tier request
//!    is never answered with bytes produced at a lossy tier.

use adshare_codec::codec::AnyCodec;
use adshare_codec::{Codec, CodecKind, Image, Rect};
use adshare_encode::{
    CacheKey, EncodeCache, EncodeConfig, EncodePipeline, RegionKey, TileConfig, TileJob,
};
use bytes::Bytes;
use proptest::prelude::*;

/// A deterministic pseudo-random image; `colors` bounds the palette so
/// duplicate tiles happen often enough to exercise the cache paths.
fn arb_tile(colors: u32) -> impl Strategy<Value = Image> {
    (4u32..40, 4u32..40, 0..colors).prop_map(|(w, h, c)| {
        let mut img = Image::new(w, h).expect("dims");
        let mut state = c.wrapping_mul(2654435761) | 1;
        for y in 0..h {
            for x in 0..w {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                img.set_pixel(x, y, state.to_be_bytes());
            }
        }
        img
    })
}

fn jobs_from(images: &[Image]) -> Vec<TileJob> {
    images
        .iter()
        .enumerate()
        .map(|(i, img)| TileJob {
            rect: Rect::new((i as u32) * 48, 0, img.width(), img.height()),
            image: img.clone(),
        })
        .collect()
}

fn pipeline(workers: usize) -> EncodePipeline {
    EncodePipeline::new(EncodeConfig {
        workers,
        ..EncodeConfig::default()
    })
}

fn png_encode(img: &Image) -> (u8, Vec<u8>) {
    (101, AnyCodec::new(CodecKind::Png).encode(img))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cold-cache and warmed-cache output is byte-identical across worker
    /// counts, including which tiles are classified as hits. The parallel
    /// side encodes on the process-wide pool, with a 16×16 grid so that
    /// its batches are worth more than one worker.
    #[test]
    fn parallel_is_byte_identical_to_serial(
        images in proptest::collection::vec(arb_tile(6), 1..24),
        workers in 2usize..9,
    ) {
        let mut serial = pipeline(1);
        let mut par = EncodePipeline::new(EncodeConfig {
            workers,
            tile: TileConfig { width: 16, height: 16 },
            ..EncodeConfig::default()
        });
        let key = RegionKey { surface: 1, rect: Rect::new(0, 0, 1, 1), tier: 0 };
        for round in 0..2 {
            serial.begin_step();
            par.begin_step();
            let a = serial.encode_batch(0, jobs_from(&images), png_encode);
            let b = par.encode_region(key, || jobs_from(&images), png_encode);
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.rect, y.rect, "round {}", round);
                prop_assert_eq!(x.payload_type, y.payload_type);
                prop_assert_eq!(&x.payload, &y.payload, "payload bytes diverged");
                prop_assert_eq!(x.cache_hit, y.cache_hit);
            }
            if round == 1 {
                // Second submission of the same batch: everything hits.
                prop_assert!(b.iter().all(|t| t.cache_hit));
            }
        }
    }

    /// Whatever the cache serves decodes back to the submitted pixels —
    /// a hash collision or a mis-keyed entry would surface here.
    #[test]
    fn cache_hits_decode_pixel_identical(
        images in proptest::collection::vec(arb_tile(4), 2..16),
    ) {
        let mut p = pipeline(4);
        p.encode_batch(0, jobs_from(&images), png_encode);
        let again = p.encode_batch(0, jobs_from(&images), png_encode);
        let codec = AnyCodec::new(CodecKind::Png);
        for (tile, img) in again.iter().zip(&images) {
            prop_assert!(tile.cache_hit);
            let decoded = codec.decode(&tile.payload).expect("valid png");
            prop_assert_eq!(&decoded, img, "cached payload lost pixels");
        }
    }

    /// The tier is part of the cache key: warming the cache at a lossy
    /// tier never changes what a lossless request returns.
    #[test]
    fn lossy_entries_never_serve_lossless(
        images in proptest::collection::vec(arb_tile(4), 1..12),
    ) {
        // Tag the tier into the payload so substitution is detectable.
        let tagged = |tier: u8| move |img: &Image| -> (u8, Vec<u8>) {
            let mut payload = vec![tier];
            payload.extend_from_slice(&png_encode(img).1);
            (100 + tier, payload)
        };
        let mut p = pipeline(2);
        p.encode_batch(2, jobs_from(&images), tagged(2)); // warm lossy
        let lossless = p.encode_batch(0, jobs_from(&images), tagged(0));
        for t in &lossless {
            prop_assert!(!t.cache_hit, "lossy entry served a lossless request");
            prop_assert_eq!(t.payload[0], 0);
            prop_assert_eq!(t.payload_type, 100);
        }
        // And the lossy entries are still there, partitioned by tier.
        let lossy = p.encode_batch(2, jobs_from(&images), tagged(2));
        for t in &lossy {
            prop_assert!(t.cache_hit);
            prop_assert_eq!(t.payload[0], 2);
        }
    }
}

/// The byte budget holds under sustained distinct-content load: evictions
/// happen and occupancy never exceeds the configured limit.
#[test]
fn cache_respects_byte_budget_under_pressure() {
    let budget = 64 * 1024;
    let mut p = EncodePipeline::new(EncodeConfig {
        workers: 1,
        cache_budget_bytes: budget,
        ..EncodeConfig::default()
    });
    // Raw "encoder": 4 KiB per distinct tile, 64 distinct tiles = 4× budget.
    for i in 0..64u8 {
        let img = Image::filled(32, 32, [i, i.wrapping_mul(7), 3, 255]).expect("dims");
        let jobs = vec![TileJob {
            rect: Rect::new(0, 0, 32, 32),
            image: img,
        }];
        p.encode_batch(0, jobs, |img| (100, img.data().to_vec()));
        assert!(
            p.cache_bytes() <= budget,
            "cache exceeded budget: {} > {budget}",
            p.cache_bytes()
        );
    }
    assert!(p.cache_evictions() > 0, "budget pressure must evict");
    assert!(p.cache_entries() > 0, "eviction must not empty the cache");
}

/// Direct cache-level check of the same invariant, including the
/// LRU-ordering choice of victim.
#[test]
fn cache_evicts_oldest_first() {
    let mut c = EncodeCache::new(1000);
    let key = |h: u64| CacheKey {
        namespace: 0,
        content_hash: h,
        width: 1,
        height: 1,
        tier: 0,
    };
    for h in 0..10 {
        c.insert(key(h), 100, Bytes::from(vec![0u8; 100]));
    }
    assert_eq!(c.bytes(), 1000);
    // Touch 0 so 1 becomes the LRU, then overflow by one entry.
    c.get(&key(0));
    c.insert(key(10), 100, Bytes::from(vec![0u8; 100]));
    assert!(c.get(&key(0)).is_some(), "recently used survives");
    assert!(c.get(&key(1)).is_none(), "LRU evicted");
    assert!(c.bytes() <= 1000);
}
