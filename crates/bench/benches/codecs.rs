//! E1/E22 (micro side) — whole-codec encode/decode throughput per content
//! class, plus the kernels underneath them: the 8×8 DCT (the 32-bit
//! production kernel beside its `i64` fallback) and the DEFLATE match loop
//! per level. The PNG scanline filter pass is exercised through the
//! whole-codec encode group (filters are not public API).

use adshare_bench::Content;
use adshare_codec::codec::{AnyCodec, Codec};
use adshare_codec::deflate::{deflate, Level};
use adshare_codec::{dct, CodecKind};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode_320x240");
    group.throughput(Throughput::Bytes(320 * 240 * 4));
    group.sample_size(20);
    for content in [Content::Ui, Content::Photo] {
        let img = content.frame(320, 240, 3);
        for kind in [
            CodecKind::Png,
            CodecKind::Dct,
            CodecKind::Rle,
            CodecKind::Raw,
        ] {
            let codec = AnyCodec::new(kind);
            group.bench_with_input(
                BenchmarkId::new(kind.encoding_name(), content.name()),
                &img,
                |b, img| b.iter(|| codec.encode(img)),
            );
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_320x240");
    group.throughput(Throughput::Bytes(320 * 240 * 4));
    group.sample_size(20);
    for content in [Content::Ui, Content::Photo] {
        let img = content.frame(320, 240, 3);
        for kind in [CodecKind::Png, CodecKind::Dct, CodecKind::Rle] {
            let codec = AnyCodec::new(kind);
            let encoded = codec.encode(&img);
            group.bench_with_input(
                BenchmarkId::new(kind.encoding_name(), content.name()),
                &encoded,
                |b, data| b.iter(|| codec.decode(data).expect("valid")),
            );
        }
    }
    group.finish();
}

/// Deterministic blocks with pixel-like dynamic range for the DCT kernels.
fn dct_blocks(n: usize) -> Vec<[i32; 64]> {
    let mut state = 0x1357_9bdfu32;
    (0..n)
        .map(|_| {
            let mut b = [0i32; 64];
            for v in b.iter_mut() {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                *v = ((state >> 20) as i32 % 256) - 128;
            }
            b
        })
        .collect()
}

fn bench_dct_block(c: &mut Criterion) {
    const N: usize = 256;
    let blocks = dct_blocks(N);
    let mut group = c.benchmark_group("dct_block");
    // 8x8 blocks of 4-byte pixels: kernel throughput in pixel bytes.
    group.throughput(Throughput::Bytes((N * 64 * 4) as u64));
    group.sample_size(30);
    // The forward output is the coefficient times 8; `>> 3` is a quantiser
    // of step 1, which keeps these noise blocks inside the 32-bit inverse's
    // range, as every block a real encoder emits is.
    type Inverse = fn(&mut [i32; 64]);
    for (name, idct) in [
        ("fdct_idct", dct::idct as Inverse),
        ("fdct_idct/i64_fallback", dct::idct_reference),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                for src in &blocks {
                    let mut blk = *src;
                    dct::fdct(&mut blk);
                    blk.iter_mut().for_each(|c| *c >>= 3);
                    idct(&mut blk);
                    black_box(&blk);
                }
            })
        });
    }
    group.finish();
}

fn bench_deflate_levels(c: &mut Criterion) {
    // Filtered-scanline-shaped bytes: the regime the matcher sees most.
    let mut corpus = Vec::with_capacity(64 * 1024);
    for row in 0..320u32 {
        corpus.push((row % 5) as u8);
        for col in 0..50u32 {
            corpus.push((col * 3 % 256) as u8);
            corpus.push((row * 7 % 256) as u8);
            corpus.push(((col ^ row) % 256) as u8);
        }
    }
    let mut group = c.benchmark_group("deflate_pixelish");
    group.throughput(Throughput::Bytes(corpus.len() as u64));
    group.sample_size(20);
    for level in [Level::Fast, Level::Default, Level::Best] {
        group.bench_with_input(
            BenchmarkId::new("compress", format!("{level:?}")),
            &corpus,
            |b, data| b.iter(|| deflate(data, level)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_dct_block,
    bench_deflate_levels
);
criterion_main!(benches);
