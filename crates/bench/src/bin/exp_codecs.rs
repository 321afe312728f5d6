//! E22 — codec kernel throughput: the fixed-point DCT, the DEFLATE match
//! loop, and the PNG scanline filters, measured at the kernel level.
//!
//! Three kernels are compared for the 8×8 DCT: the seed's naive O(N²)
//! separable f32 transform (`dct::naive`), the scalar fixed-point Loeffler
//! reference, and the vectorised lane-per-row production kernel. All three
//! produce interchangeable coefficients (the two fixed-point ones
//! bit-identically so), so the ratio is a pure speed comparison.
//!
//! DEFLATE and PNG are measured as whole-stream MB/s on deterministic
//! corpora: kernel-level wins there (u64 match extension, 4-byte hash
//! chains, slice-pass filters) surface as end-to-end throughput.
//!
//! Emits `BENCH_codecs.json` (schema `adshare-bench-codecs/v2`, validated
//! in CI by `obs_schema_check`) and exits non-zero if the vectorised DCT
//! kernel is not at least 2x the naive f32 one.
//!
//! `--baseline FILE` compares the run against an earlier document (CI: the
//! checked-in `BENCH_codecs.json`) and exits non-zero when any MB/s figure
//! has fallen more than 30 % below it.

use adshare_bench::{print_table, timed, Content};
use adshare_codec::codec::{AnyCodec, Codec};
use adshare_codec::deflate::{deflate, inflate, Level};
use adshare_codec::{dct, png, CodecKind};
use adshare_obs::json::{parse, Json};

const BLOCKS: usize = 512;
const DCT_REPS: usize = 40;

/// Deterministic sample blocks with photographic-ish structure.
fn sample_blocks() -> Vec<[i32; 64]> {
    let mut state = 0x1357_9bdfu32;
    (0..BLOCKS)
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

/// Median-of-reps µs for one full fdct+idct pass over the block batch.
fn time_kernel(f: impl Fn(&mut Vec<[i32; 64]>)) -> f64 {
    let template = sample_blocks();
    let mut times = Vec::with_capacity(DCT_REPS);
    let mut blocks = template.clone();
    f(&mut blocks); // warm
    for _ in 0..DCT_REPS {
        let mut blocks = template.clone();
        let (_, us) = timed(|| f(&mut blocks));
        times.push(us);
        std::hint::black_box(&blocks);
    }
    times.sort_by(f64::total_cmp);
    times[DCT_REPS / 2]
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

/// Every MB/s figure of a `BENCH_codecs.json` document, by name.
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
        push("dct encode".into(), num(d, "encode_mb_per_s"));
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

/// Compare this run's document with the baseline file; lists every figure
/// that fell out of tolerance (or that the baseline does not have).
fn regressions(ours: &str, baseline_path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let base = throughputs(&parse(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?);
    let ours = throughputs(&parse(ours).map_err(|e| format!("own document: {e}"))?);
    let mut rows = Vec::new();
    let mut bad = Vec::new();
    for (name, now) in &ours {
        let Some((_, was)) = base.iter().find(|(n, _)| n == name) else {
            bad.push(format!("{name}: not in the baseline"));
            continue;
        };
        let change = (now / was - 1.0) * 100.0;
        let ok = *now >= was * (1.0 - BASELINE_TOLERANCE);
        rows.push(vec![
            name.clone(),
            format!("{was:.1}"),
            format!("{now:.1}"),
            format!("{change:+.0}%"),
            if ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
        if !ok {
            bad.push(format!("{name}: {was:.1} -> {now:.1} MB/s ({change:+.0}%)"));
        }
    }
    print_table(
        &format!("E22d: against baseline {baseline_path} (fails below -30 %)"),
        &["figure", "baseline MB/s", "now MB/s", "change", "verdict"],
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

    // --- DCT kernels -----------------------------------------------------
    let naive_us = time_kernel(|blocks| {
        for b in blocks.iter_mut() {
            let mut f = [0f32; 64];
            for i in 0..64 {
                f[i] = b[i] as f32;
            }
            dct::naive::fdct(&mut f);
            dct::naive::idct(&mut f);
            for i in 0..64 {
                b[i] = f[i] as i32;
            }
        }
    });
    let reference_us = time_kernel(|blocks| {
        for b in blocks.iter_mut() {
            dct::fdct_reference(b);
            dct::idct_reference(b);
        }
    });
    let fast_us = time_kernel(|blocks| {
        for b in blocks.iter_mut() {
            dct::fdct_fast(b);
            dct::idct_fast(b);
        }
    });
    let per_block = |us: f64| us / BLOCKS as f64;
    let speedup_naive = naive_us / fast_us;
    let speedup_ref = reference_us / fast_us;

    print_table(
        &format!("E22a: 8x8 DCT kernels (fdct+idct, {BLOCKS} blocks, median of {DCT_REPS})"),
        &["kernel", "us/block", "vs fast"],
        &[
            vec![
                "naive f32 (seed)".into(),
                format!("{:.3}", per_block(naive_us)),
                format!("{speedup_naive:.2}x slower"),
            ],
            vec![
                "fixed-point scalar".into(),
                format!("{:.3}", per_block(reference_us)),
                format!("{speedup_ref:.2}x slower"),
            ],
            vec![
                "fixed-point vector".into(),
                format!("{:.3}", per_block(fast_us)),
                "1.00x".into(),
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
            deflate_json.push(format!(
                "    {{\"corpus\":\"{name}\",\"level\":\"{level:?}\",\"mb_per_s\":{mbs:.1},\"inflate_mb_per_s\":{inflate_mbs:.1},\"ratio\":{ratio:.2}}}"
            ));
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
        let pixel_bytes = (320 * 240 * 4) as f64;
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
        png_json.push(format!(
            "    {{\"content\":\"{}\",\"encode_mb_per_s\":{enc_mbs:.1},\"decode_mb_per_s\":{dec_mbs:.1}}}",
            content.name()
        ));
    }
    print_table(
        "E22c: PNG whole-codec throughput (320x240, raw-pixel MB/s)",
        &["content", "bytes", "enc MB/s", "dec MB/s"],
        &png_rows,
    );

    // --- Whole-codec DCT sanity: the kernel win must survive the full
    //     encode path (gather, quantise, entropy, deflate).
    let photo = Content::Photo.frame(320, 240, 7);
    let codec = AnyCodec::new(CodecKind::Dct);
    let _ = codec.encode(&photo);
    let mut enc_times = Vec::new();
    for _ in 0..7 {
        let (_, us) = timed(|| codec.encode(&photo));
        enc_times.push(us);
    }
    let dct_encode_mbs = (320.0 * 240.0 * 4.0) / median(enc_times);

    let json = format!(
        "{{\n  \"schema\": \"adshare-bench-codecs/v2\",\n  \"dct\": {{\n    \"block_us\": {{\"naive_f32\": {:.4}, \"reference\": {:.4}, \"fast\": {:.4}}},\n    \"speedup_fast_vs_naive\": {speedup_naive:.2},\n    \"speedup_fast_vs_reference\": {speedup_ref:.2},\n    \"encode_mb_per_s\": {dct_encode_mbs:.1}\n  }},\n  \"deflate\": [\n{}\n  ],\n  \"png\": [\n{}\n  ],\n  \"checks\": {{\"dct_fast_ge_2x_naive\": {}}}\n}}\n",
        per_block(naive_us),
        per_block(reference_us),
        per_block(fast_us),
        deflate_json.join(",\n"),
        png_json.join(",\n"),
        speedup_naive >= 2.0,
    );
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_codecs.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nbench json: {out}"),
        Err(e) => eprintln!("bench json write failed: {e}"),
    }

    println!("\nchecks:");
    println!(
        "  fast DCT >= 2x naive f32: {} ({speedup_naive:.2}x)",
        speedup_naive >= 2.0
    );
    println!("  fast DCT vs scalar fixed-point: {speedup_ref:.2}x (informational)");
    println!("  whole-path DCT encode: {dct_encode_mbs:.0} MB/s (informational)");
    if speedup_naive < 2.0 {
        eprintln!("\nexpected the vectorised DCT kernel to be >= 2x the naive f32 kernel");
        std::process::exit(1);
    }
    if let Some(path) = baseline {
        match regressions(&json, &path) {
            Ok(bad) if bad.is_empty() => println!("  no figure more than 30 % below {path}: true"),
            Ok(bad) => {
                eprintln!("\nthroughput fell more than 30 % below {path}:");
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
