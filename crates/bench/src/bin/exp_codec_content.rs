//! E1 — Codec vs content type (draft §4.2).
//!
//! Claim under test: "PNG ... uses a lossless compression algorithm and
//! \[is\] more suitable for computer generated images. JPEG is lossy, but
//! more suitable for photographic images."
//!
//! For each content class and codec: encoded size, compression ratio vs raw
//! RGB, encode/decode throughput in MB/s of raw pixels, and reconstruction
//! error. The MB/s columns are the numbers EXPERIMENTS.md E22 quotes for
//! kernel before/after comparisons.

use adshare_bench::{print_table, timed, Content};
use adshare_codec::codec::{AnyCodec, Codec, EncodeOptions};
use adshare_codec::deflate::Level;
use adshare_codec::CodecKind;

fn main() {
    const W: u32 = 320;
    const H: u32 = 240;
    let raw_bytes = (W * H * 3) as f64;

    let mut rows = Vec::new();
    for content in Content::ALL {
        let img = content.frame(W, H, 7);
        for kind in [
            CodecKind::Png,
            CodecKind::Dct,
            CodecKind::Rle,
            CodecKind::Raw,
        ] {
            let codec = AnyCodec::with_options(
                kind,
                EncodeOptions {
                    level: Level::Default,
                    quality: 75,
                },
            );
            // Warm once, then measure the median of 5 runs.
            let _ = codec.encode(&img);
            let mut times = Vec::new();
            let mut dec_times = Vec::new();
            let mut encoded = Vec::new();
            let mut decode = None;
            for _ in 0..5 {
                let (e, us) = timed(|| codec.encode(&img));
                times.push(us);
                let (d, dus) = timed(|| codec.decode(&e).expect("round trip"));
                dec_times.push(dus);
                encoded = e;
                decode = Some(d);
            }
            times.sort_by(f64::total_cmp);
            dec_times.sort_by(f64::total_cmp);
            // Throughput in MB of raw pixel data processed per second —
            // the unit kernel wins are quoted in (E22).
            let pixel_bytes = (W * H * 4) as f64;
            let enc_mbs = pixel_bytes / times[2];
            let dec_mbs = pixel_bytes / dec_times[2];
            let err = img.mean_abs_error(&decode.expect("decoded"));
            rows.push(vec![
                content.name().to_string(),
                kind.encoding_name().to_string(),
                format!("{}", encoded.len()),
                format!("{:.2}x", raw_bytes / encoded.len() as f64),
                format!("{:.1}", times[2] / 1000.0),
                format!("{enc_mbs:.0}"),
                format!("{dec_mbs:.0}"),
                if kind.lossless() {
                    "0 (lossless)".into()
                } else {
                    format!("{err:.2}")
                },
            ]);
        }
    }
    print_table(
        "E1: codec size/speed/fidelity by content class (320x240)",
        &[
            "content",
            "codec",
            "bytes",
            "ratio",
            "enc ms",
            "enc MB/s",
            "dec MB/s",
            "mean |err|",
        ],
        &rows,
    );

    // The draft's headline claims, asserted:
    let size = |c: Content, k: CodecKind| AnyCodec::new(k).encode(&c.frame(W, H, 7)).len();
    let png_ui = size(Content::Ui, CodecKind::Png);
    let dct_ui = size(Content::Ui, CodecKind::Dct);
    let png_photo = size(Content::Photo, CodecKind::Png);
    let dct_photo = size(Content::Photo, CodecKind::Dct);
    println!("\nchecks:");
    println!(
        "  PNG beats DCT on computer-generated content: {} ({} vs {})",
        png_ui < dct_ui,
        png_ui,
        dct_ui
    );
    println!(
        "  DCT beats PNG on photographic content:       {} ({} vs {})",
        dct_photo < png_photo,
        dct_photo,
        png_photo
    );
}
