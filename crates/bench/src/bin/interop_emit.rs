//! Emit adshare-compressed zlib streams for `scripts/check_interop.sh`:
//! real zlib (CPython) must decompress every line.

use adshare_bench::Content;
use adshare_codec::deflate::{self, Level};
use adshare_codec::png::{encode as png_encode, PngColor, PngOptions};
use adshare_codec::Image;
use adshare_codec::{dct, zlib};

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

fn main() {
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("empty", Vec::new()),
        ("hello", b"hello, application sharing world!".to_vec()),
        (
            "repetitive",
            b"the quick brown fox jumps over the lazy dog. ".repeat(50),
        ),
        (
            "binary_ramp",
            (0..4096u32).map(|i| (i % 256) as u8).collect(),
        ),
        (
            "pseudo_random",
            (0..2048u32).map(|i| ((i * 73 + 41) % 256) as u8).collect(),
        ),
        ("long_zero_run", vec![0u8; 65536]),
    ];
    println!("# name\tplain_hex\tcomp_hex — adshare zlib output");
    for (name, data) in cases {
        for (lname, level) in [
            ("store", Level::Store),
            ("fast", Level::Fast),
            ("default", Level::Default),
            ("best", Level::Best),
        ] {
            let comp = zlib::compress(&data, level);
            println!("{name}-{lname}\t{}\t{}", hex(&data), hex(&comp));
        }
    }
    // The streams `dct::encode` ships: the coefficient body under
    // `Level::Fast` (long matches only, 258-byte runs, distances across the
    // whole window), for the q75 photo frame `video_dct_udp` sends and
    // E1's gradient.
    for content in [Content::Photo, Content::Gradient] {
        let payload = dct::encode(&content.frame(320, 240, 7), 75);
        // The container's 13-byte header precedes the DEFLATE stream.
        let body = deflate::inflate(&payload[13..], 1 << 24).expect("own DCT payload");
        let comp = zlib::compress(&body, Level::Fast);
        // zlib's 2-byte header and 4-byte Adler-32 around the very stream
        // the payload carries.
        assert_eq!(&comp[2..comp.len() - 4], &payload[13..], "DCT stream");
        let name = format!("dct_body_{}_q75-fast", content.name());
        println!("{name}\t{}\t{}", hex(&body), hex(&comp));
    }
    // Also emit a PNG for structural validation by the reference zlib +
    // an independent unfilter implementation (scripts/check_interop.sh).
    let mut img = Image::filled(64, 48, [240, 240, 240, 255]).expect("dims");
    for y in 0..48u32 {
        for x in 0..64u32 {
            if (x / 8 + y / 8) % 2 == 0 {
                img.set_pixel(x, y, [(x * 4) as u8, (y * 5) as u8, 128, 255]);
            }
        }
    }
    let png = png_encode(
        &img,
        PngOptions {
            color: PngColor::Rgb,
            level: Level::Default,
        },
    );
    std::fs::write("/tmp/adshare_test.png", &png).expect("write png");
    std::fs::write("/tmp/adshare_test.rgb", {
        let mut rgb = Vec::new();
        for px in img.data().chunks_exact(4) {
            rgb.extend_from_slice(&px[..3]);
        }
        rgb
    })
    .expect("write rgb");
}
