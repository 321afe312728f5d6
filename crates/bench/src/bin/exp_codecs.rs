//! E22 — codec kernel throughput: the photographic branch (classify →
//! DCT encode → DCT decode), the DEFLATE match loop, and the PNG scanline
//! filters, measured at the kernel level.
//!
//! The DCT rows are taken on the content and quality the `video_dct_udp`
//! workload sends: `photo_frame(320, 240)` at quality 75. `block_us` is one
//! `fdct` + `idct` of an 8×8 block of that frame, `encode_mb_per_s` /
//! `decode_mb_per_s` the whole codec in raw-pixel MB/s, and
//! `classify.ns_per_px` the classifier over the frame cut on the 128×128
//! tile grid, per pixel of the tiles it judged.
//!
//! DEFLATE and PNG are measured as whole-stream MB/s on deterministic
//! corpora: kernel-level wins there (u64 match extension, 4-byte hash
//! chains, slice-pass filters) surface as end-to-end throughput.
//!
//! `tile_calls` is what one warm call costs the heap on a 128×128 photo
//! tile (the encode pipeline's grid cell): allocations and bytes asked for
//! by a PNG and a DCT encode and decode, counted by this binary's global
//! allocator on a thread that has made the same call before, so the
//! codec working set (DESIGN §14.2 "Working memory") is in place.
//!
//! Emits `BENCH_codecs.json` (schema `adshare-bench-codecs/v4`, validated
//! in CI by `obs_schema_check`) with the machine it was measured on.
//!
//! `dct.bytes` is the size of that frame's q75 payload. It is a pure
//! function of the code, so it is gated exactly: a change to the DCT
//! entropy stage or to the DEFLATE policy that serves it may not make it
//! grow. The `tile_calls` counts are pure functions of the code too, and
//! gated the same way.
//!
//! `--baseline FILE` is the gate: it compares the run against an earlier
//! document (CI: the checked-in `BENCH_codecs.json`) and exits non-zero
//! when any throughput has fallen more than 30 % below it, or when
//! `dct.bytes` or a `tile_calls` count is larger than it. A figure the
//! baseline does not carry is reported as new, not as a failure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adshare_bench::{machine_json, print_table, round_to, timed, write_bench_json, Content};
use adshare_codec::deflate::{deflate, inflate, Level};
use adshare_codec::{classify, dct, png, Image, Rect};
use adshare_obs::json::{self, parse, Json};

const REPS: usize = 15;

/// Counts this thread's trips to the allocator and the bytes asked for.
struct CountingAlloc;

thread_local! {
    /// `(allocations, bytes)`: `alloc`, `alloc_zeroed` and `realloc` (at
    /// its new size) each count once.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread that is being torn down has no counter left.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counting touches a const-initialised
// thread-local `Cell` without a destructor, so it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` one call of `f` costs once a first call has
/// warmed this thread.
fn warm_call_cost<T>(mut f: impl FnMut() -> T) -> (u64, u64) {
    drop(f());
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    drop(out);
    (n1 - n0, b1 - b0)
}

/// Quality `video_dct_udp` encodes at (the `EncodeOptions` default).
const DCT_QUALITY: u8 = 75;

/// Median µs of `REPS` timed calls, after one warm-up call.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    median(
        (0..REPS)
            .map(|_| {
                let (out, us) = timed(&mut f);
                std::hint::black_box(out);
                us
            })
            .collect(),
    )
}

/// The red plane of `img` as centred 8×8 sample blocks.
fn sample_blocks(img: &Image) -> Vec<[i32; 64]> {
    let (bw, bh) = (img.width() as usize / 8, img.height() as usize / 8);
    (0..bw * bh)
        .map(|b| {
            std::array::from_fn(|i| {
                let (x, y) = (b % bw * 8 + i % 8, b / bw * 8 + i / 8);
                img.row(y as u32)[x * 4] as i32 - 128
            })
        })
        .collect()
}

/// `img` cut on the encode pipeline's default 128×128 tile grid.
fn tiles(img: &Image) -> Vec<Image> {
    let mut out = Vec::new();
    for top in (0..img.height()).step_by(128) {
        for left in (0..img.width()).step_by(128) {
            out.push(img.crop(Rect::new(left, top, 128, 128)).expect("tile"));
        }
    }
    out
}

/// The deterministic corpora from the golden-vector suite, writ larger so
/// per-call table setup amortises out.
fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    let text = b"A participant joins the session and the application host \
        shares the damaged window regions. The application host encodes \
        each region according to its characteristics and the participants \
        decode whatever the payload type says. "
        .repeat(160);

    let mut pixel = Vec::with_capacity(180_000);
    for row in 0..400u32 {
        pixel.push((row % 5) as u8);
        for col in 0..150u32 {
            pixel.push((col * 3 % 256) as u8);
            pixel.push((row * 7 % 256) as u8);
            pixel.push(((col ^ row) % 256) as u8);
        }
    }

    let mut state = 0xdead_beef_cafe_f00du64;
    let random: Vec<u8> = (0..65536)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect();

    vec![("text", text), ("pixel", pixel), ("random", random)]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// How far below the baseline a throughput may fall before `--baseline`
/// fails the run.
const BASELINE_TOLERANCE: f64 = 0.30;

/// Every throughput of a `BENCH_codecs.json` document, by name: the MB/s
/// figures, and pixels per µs for the classifier so that higher is better
/// on every row.
fn throughputs(doc: &Json) -> Vec<(String, f64)> {
    let num = |node: &Json, key: &str| match node.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    let label = |node: &Json, key: &str| {
        let text = node.get(key).and_then(Json::as_str).unwrap_or("?");
        text.to_string()
    };
    let rows = |key: &str| doc.get(key).and_then(Json::as_array).unwrap_or(&[]);
    let mut out = Vec::new();
    let mut push = |name: String, value: Option<f64>| out.extend(value.map(|v| (name, v)));
    if let Some(d) = doc.get("dct") {
        push(
            "dct blocks/us".into(),
            num(d, "block_us").map(|us| 1.0 / us),
        );
        push("dct encode".into(), num(d, "encode_mb_per_s"));
        push("dct decode".into(), num(d, "decode_mb_per_s"));
    }
    if let Some(c) = doc.get("classify") {
        push(
            "classify px/ns".into(),
            num(c, "ns_per_px").map(|ns| 1.0 / ns),
        );
    }
    for row in rows("deflate") {
        let name = format!("{}/{}", label(row, "corpus"), label(row, "level"));
        push(format!("deflate {name}"), num(row, "mb_per_s"));
        push(format!("inflate {name}"), num(row, "inflate_mb_per_s"));
    }
    for row in rows("png") {
        let name = label(row, "content");
        push(format!("png encode {name}"), num(row, "encode_mb_per_s"));
        push(format!("png decode {name}"), num(row, "decode_mb_per_s"));
    }
    out
}

/// The exactly gated counts of a document, by name: the q75 photo frame's
/// DCT payload size and every warm tile call's allocations and bytes.
fn exact_counts(doc: &Json) -> Vec<(String, f64)> {
    let num = |node: &Json, key: &str| match node.get(key) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    let mut out = Vec::new();
    if let Some(bytes) = doc.get("dct").and_then(|d| num(d, "bytes")) {
        out.push(("dct bytes".to_string(), bytes));
    }
    for row in doc
        .get("tile_calls")
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let call = row.get("call").and_then(Json::as_str).unwrap_or("?");
        for key in ["allocs", "alloc_bytes"] {
            out.extend(num(row, key).map(|v| (format!("{call} {key}"), v)));
        }
    }
    out
}

/// Compare this run's document with the baseline document `text` (read
/// from `baseline_path`); lists every figure that fell out of tolerance.
fn regressions(ours: &str, text: &str, baseline_path: &str) -> Result<Vec<String>, String> {
    let base = parse(text).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
    let ours = parse(ours).map_err(|e| format!("own document: {e}"))?;
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    // The counts are exact: any growth fails, the tolerance is for timings
    // only.
    let base_counts = exact_counts(&base);
    for (name, now) in exact_counts(&ours) {
        let was = base_counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        let name = format!("{name} (exact)");
        match was {
            None => rows.push(vec![
                name,
                "-".into(),
                format!("{now}"),
                "-".into(),
                "new".into(),
            ]),
            Some(was) => {
                let ok = now <= was;
                rows.push(vec![
                    name.clone(),
                    format!("{was}"),
                    format!("{now}"),
                    format!("{:+.1}%", (now / was - 1.0) * 100.0),
                    if ok { "ok" } else { "GREW" }.to_string(),
                ]);
                if !ok {
                    bad.push(format!("{name}: {was} -> {now}"));
                }
            }
        }
    }
    let (base, ours) = (throughputs(&base), throughputs(&ours));
    for (name, now) in &ours {
        let Some((_, was)) = base.iter().find(|(n, _)| n == name) else {
            let row = [name.as_str(), "-", &format!("{now:.2}"), "-", "new"];
            rows.push(row.map(String::from).to_vec());
            continue;
        };
        let change = (now / was - 1.0) * 100.0;
        let ok = *now >= was * (1.0 - BASELINE_TOLERANCE);
        rows.push(vec![
            name.clone(),
            format!("{was:.2}"),
            format!("{now:.2}"),
            format!("{change:+.0}%"),
            if ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
        if !ok {
            bad.push(format!("{name}: {was:.2} -> {now:.2} ({change:+.0}%)"));
        }
    }
    print_table(
        &format!(
            "E22e: against baseline {baseline_path} (fails below -30 %, or when an exact count grows)"
        ),
        &["figure", "baseline", "now", "change", "verdict"],
        &rows,
    );
    Ok(bad)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--baseline" => Some(path.clone()),
        _ => {
            eprintln!("usage: exp_codecs [--baseline BENCH_codecs.json]");
            std::process::exit(2);
        }
    };
    // Read now: this run writes its own document, by default to the very
    // file the gate compares with.
    let baseline = baseline.map(|path| {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        (path, text)
    });

    // --- The photographic branch ----------------------------------------
    let photo = Content::Photo.frame(320, 240, 7);
    let pixels = (photo.width() * photo.height()) as f64;
    let pixel_bytes = pixels * 4.0;

    let blocks = sample_blocks(&photo);
    let block_us = median_us(|| {
        let mut blocks = blocks.clone();
        for b in blocks.iter_mut() {
            dct::fdct(b);
            // Quantise and dequantise with a flat step of 16: the forward
            // output is the true coefficient times 8.
            for c in b.iter_mut() {
                *c = (*c >> 7) << 4;
            }
            dct::idct(b);
        }
        blocks
    }) / blocks.len() as f64;

    let encoded = dct::encode(&photo, DCT_QUALITY);
    let encode_us = median_us(|| dct::encode(&photo, DCT_QUALITY));
    let decode_us = median_us(|| dct::decode(&encoded).expect("decode"));
    let (dct_encode_mbs, dct_decode_mbs) = (pixel_bytes / encode_us, pixel_bytes / decode_us);

    let tiles = tiles(&photo);
    let classify_us = median_us(|| tiles.iter().map(classify::classify).collect::<Vec<_>>());
    let classify_ns_per_px = classify_us * 1000.0 / pixels;

    print_table(
        &format!("E22a: photographic branch (photo 320x240, q{DCT_QUALITY}, median of {REPS})"),
        &["stage", "us/frame", "figure"],
        &[
            vec![
                "classify (128x128 tiles)".into(),
                format!("{classify_us:.0}"),
                format!("{classify_ns_per_px:.2} ns/px"),
            ],
            vec![
                "dct encode".into(),
                format!("{encode_us:.0}"),
                format!("{dct_encode_mbs:.1} MB/s, {} B", encoded.len()),
            ],
            vec![
                "dct decode".into(),
                format!("{decode_us:.0}"),
                format!("{dct_decode_mbs:.1} MB/s"),
            ],
            vec![
                "fdct + idct, 3 planes".into(),
                format!("{:.0}", block_us * blocks.len() as f64 * 3.0),
                format!("{block_us:.4} us/block"),
            ],
        ],
    );

    // --- DEFLATE ---------------------------------------------------------
    let mut deflate_rows = Vec::new();
    let mut deflate_json = Vec::new();
    for (name, corpus) in corpora() {
        for level in [Level::Fast, Level::Default, Level::Best] {
            let reps = 7;
            let mut times = Vec::new();
            let mut out = Vec::new();
            let _ = deflate(&corpus, level); // warm
            for _ in 0..reps {
                let (o, us) = timed(|| deflate(&corpus, level));
                times.push(us);
                out = o;
            }
            let mut inflate_times = Vec::new();
            for _ in 0..reps {
                let (back, us) = timed(|| inflate(&out, corpus.len() + 64).expect("inflate"));
                inflate_times.push(us);
                assert_eq!(back, corpus, "{name}/{level:?}");
            }
            let mbs = corpus.len() as f64 / median(times);
            let inflate_mbs = corpus.len() as f64 / median(inflate_times);
            let ratio = corpus.len() as f64 / out.len() as f64;
            deflate_rows.push(vec![
                name.to_string(),
                format!("{level:?}"),
                format!("{}", corpus.len()),
                format!("{mbs:.1}"),
                format!("{inflate_mbs:.1}"),
                format!("{ratio:.2}x"),
            ]);
            deflate_json.push((name, format!("{level:?}"), mbs, inflate_mbs, ratio));
        }
    }
    print_table(
        "E22b: DEFLATE throughput by corpus and level (raw-byte MB/s)",
        &[
            "corpus",
            "level",
            "bytes",
            "deflate MB/s",
            "inflate MB/s",
            "ratio",
        ],
        &deflate_rows,
    );

    // --- PNG -------------------------------------------------------------
    let mut png_rows = Vec::new();
    let mut png_json = Vec::new();
    for content in [Content::Ui, Content::Gradient, Content::Photo] {
        let img = content.frame(320, 240, 7);
        let opts = png::PngOptions::default();
        let _ = png::encode(&img, opts);
        let reps = 7;
        let mut enc_times = Vec::new();
        let mut dec_times = Vec::new();
        let mut encoded = Vec::new();
        for _ in 0..reps {
            let (e, us) = timed(|| png::encode(&img, opts));
            enc_times.push(us);
            let (d, dus) = timed(|| png::decode(&e).expect("decode"));
            dec_times.push(dus);
            assert_eq!(d, img, "{}", content.name());
            encoded = e;
        }
        let enc_mbs = pixel_bytes / median(enc_times);
        let dec_mbs = pixel_bytes / median(dec_times);
        png_rows.push(vec![
            content.name().to_string(),
            format!("{}", encoded.len()),
            format!("{enc_mbs:.0}"),
            format!("{dec_mbs:.0}"),
        ]);
        png_json.push((content.name(), enc_mbs, dec_mbs));
    }
    print_table(
        "E22c: PNG whole-codec throughput (320x240, raw-pixel MB/s)",
        &["content", "bytes", "enc MB/s", "dec MB/s"],
        &png_rows,
    );

    // --- One warm call on a photo tile ------------------------------------
    let tile = Content::Photo.frame(128, 128, 7);
    let png_file = png::encode(&tile, png::PngOptions::default());
    let dct_payload = dct::encode(&tile, DCT_QUALITY);
    let tile_calls = [
        (
            "png_encode",
            warm_call_cost(|| png::encode(&tile, png::PngOptions::default())),
        ),
        (
            "png_decode",
            warm_call_cost(|| png::decode(&png_file).expect("decode")),
        ),
        (
            "dct_encode",
            warm_call_cost(|| dct::encode(&tile, DCT_QUALITY)),
        ),
        (
            "dct_decode",
            warm_call_cost(|| dct::decode(&dct_payload).expect("decode")),
        ),
    ];
    print_table(
        &format!("E22d: heap cost of one warm call on a 128x128 photo tile (DCT q{DCT_QUALITY})"),
        &["call", "allocations", "bytes"],
        &tile_calls
            .iter()
            .map(|(call, (n, bytes))| vec![call.to_string(), format!("{n}"), format!("{bytes}")])
            .collect::<Vec<_>>(),
    );

    let json = json::object(|o| {
        o.str("schema", "adshare-bench-codecs/v4")
            .object("machine", machine_json)
            .object("dct", |o| {
                o.u64("bytes", encoded.len() as u64)
                    .f64("block_us", round_to(block_us, 4))
                    .f64("encode_mb_per_s", round_to(dct_encode_mbs, 1))
                    .f64("decode_mb_per_s", round_to(dct_decode_mbs, 1));
            })
            .object("classify", |o| {
                o.f64("ns_per_px", round_to(classify_ns_per_px, 3));
            })
            .array("deflate", |rows| {
                for (corpus, level, mbs, inflate_mbs, ratio) in &deflate_json {
                    rows.object(|o| {
                        o.str("corpus", corpus)
                            .str("level", level)
                            .f64("mb_per_s", round_to(*mbs, 1))
                            .f64("inflate_mb_per_s", round_to(*inflate_mbs, 1))
                            .f64("ratio", round_to(*ratio, 2));
                    });
                }
            })
            .array("png", |rows| {
                for (content, enc_mbs, dec_mbs) in &png_json {
                    rows.object(|o| {
                        o.str("content", content)
                            .f64("encode_mb_per_s", round_to(*enc_mbs, 1))
                            .f64("decode_mb_per_s", round_to(*dec_mbs, 1));
                    });
                }
            })
            .array("tile_calls", |rows| {
                for (call, (allocs, bytes)) in &tile_calls {
                    rows.object(|o| {
                        o.str("call", call)
                            .u64("allocs", *allocs)
                            .u64("alloc_bytes", *bytes);
                    });
                }
            });
    });
    write_bench_json("BENCH_OUT", "BENCH_codecs.json", &json);

    if let Some((path, text)) = baseline {
        match regressions(&json, &text, &path) {
            Ok(bad) if bad.is_empty() => {
                println!("\nno figure more than 30 % below {path}, no exact count grew")
            }
            Ok(bad) => {
                eprintln!("\nregressed against {path}:");
                for line in bad {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("\n{e}");
                std::process::exit(1);
            }
        }
    }
}
