//! Shared helpers for the experiment binaries: content generators keyed to
//! the draft's content taxonomy (§2: "artificial rather than natural
//! (photographic) video input"), table printing, and timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::Instant;

use adshare_codec::{Image, Rect};
use adshare_obs::Registry;
use adshare_screen::workload::photo_frame;

/// Content classes used by the codec experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Content {
    /// Flat UI chrome with text-like marks: the "large areas unchanged"
    /// regime.
    Ui,
    /// Rendered text page (dense small glyphs on white).
    Text,
    /// Photographic content with sensor noise.
    Photo,
    /// Computer-rendered smooth gradients (e.g. modern app chrome).
    Gradient,
}

impl Content {
    /// All classes.
    pub const ALL: [Content; 4] = [
        Content::Ui,
        Content::Text,
        Content::Photo,
        Content::Gradient,
    ];

    /// A label for tables.
    pub fn name(self) -> &'static str {
        match self {
            Content::Ui => "ui",
            Content::Text => "text",
            Content::Photo => "photo",
            Content::Gradient => "gradient",
        }
    }

    /// Generate one frame of this content class.
    pub fn frame(self, w: u32, h: u32, seed: u32) -> Image {
        match self {
            Content::Ui => {
                let mut img = Image::filled(w, h, [240, 240, 240, 255]).expect("dims");
                // Title bar, buttons, a few panels.
                img.fill_rect(Rect::new(0, 0, w, 24), [60, 90, 150, 255]);
                img.fill_rect(Rect::new(8, 6, 60, 12), [230, 230, 240, 255]);
                for i in 0..5u32 {
                    img.fill_rect(
                        Rect::new(10 + i * (w / 6), 40, w / 7, 20),
                        [200, 205, 215, 255],
                    );
                }
                img.fill_rect(
                    Rect::new(10, 70, w - 20, h.saturating_sub(84)),
                    [252, 252, 252, 255],
                );
                // Sparse text-ish marks seeded deterministically.
                let mut state = seed | 1;
                for _ in 0..(w * h / 600) {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    let x = (state >> 16) % w.max(1);
                    let y = 70 + ((state >> 4) % h.saturating_sub(80).max(1));
                    img.fill_rect(Rect::new(x, y, 4, 2), [40, 40, 40, 255]);
                }
                img
            }
            Content::Text => {
                let mut img = Image::filled(w, h, [255, 255, 255, 255]).expect("dims");
                let mut state = seed | 1;
                let mut y = 4;
                while y + 10 < h {
                    let mut x = 6;
                    while x + 5 < w {
                        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                        if !state.is_multiple_of(7) {
                            // A "glyph": 2-4 dark strokes.
                            for s in 0..(1 + state % 3) {
                                img.fill_rect(
                                    Rect::new(x + s, y + (s * 3) % 8, 3, 1),
                                    [20, 20, 20, 255],
                                );
                            }
                        }
                        x += 6;
                    }
                    y += 12;
                }
                img
            }
            Content::Photo => photo_frame(w, h, seed),
            Content::Gradient => {
                let mut img = Image::new(w, h).expect("dims");
                for y in 0..h {
                    for x in 0..w {
                        let r = (x * 255 / w.max(1)) as u8;
                        let g = (y * 255 / h.max(1)) as u8;
                        let b = ((x + y) * 128 / (w + h).max(1)) as u8;
                        img.set_pixel(x, y, [r, g, b.wrapping_add((seed % 64) as u8), 255]);
                    }
                }
                img
            }
        }
    }
}

/// The experiment roster: every `exp_*` binary with the EXPERIMENTS.md
/// section it produces, in section order. `exp_all` runs exactly this list;
/// a test holds it equal to the `exp_*` bins the crate builds. (E11, the
/// wire-format micro-costs, is no binary: the benchmark's per-layer
/// metrics measure those operations.)
pub const EXPERIMENTS: [(u32, &str); 22] = [
    (1, "exp_codec_content"),
    (2, "exp_fragmentation"),
    (3, "exp_scroll"),
    (4, "exp_backlog"),
    (5, "exp_loss_recovery"),
    (6, "exp_late_joiner"),
    (7, "exp_fanout"),
    (8, "exp_hip"),
    (9, "exp_damage"),
    (10, "exp_vs_vnc"),
    (12, "exp_bfcp"),
    (13, "exp_app_vs_desktop"),
    (14, "exp_adaptive"),
    (15, "exp_rate_adapt"),
    (16, "exp_encode_cache"),
    (17, "exp_health"),
    (18, "exp_relay_fanout"),
    (19, "exp_scenarios"),
    (20, "exp_layers"),
    (21, "exp_host_scale"),
    (22, "exp_codecs"),
    (23, "exp_capture"),
];

/// Default directory where experiment binaries drop their documents
/// (relative to the working directory). Overridable via the
/// `OBS_SNAPSHOT_DIR` environment variable.
pub const OBS_SNAPSHOT_DIR: &str = "target/obs";

/// Where this run's documents go: `$OBS_SNAPSHOT_DIR`, else
/// [`OBS_SNAPSHOT_DIR`].
pub fn snapshot_dir() -> PathBuf {
    std::env::var_os("OBS_SNAPSHOT_DIR").map_or_else(|| OBS_SNAPSHOT_DIR.into(), PathBuf::from)
}

/// Write one artifact (a JSON document, a capture) as `file_name` under
/// [`snapshot_dir`], creating the directory, and print `label` with the
/// path. Panics when it cannot be written: an experiment whose artifacts
/// are missing must not pass, because `obs_schema_check` and the CI uploads
/// read them next.
pub fn emit_document(label: &str, file_name: &str, contents: impl AsRef<[u8]>) {
    let dir = snapshot_dir();
    let path = dir.join(file_name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, contents))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("{label:<14}{}", path.display());
}

/// Emit `registry`'s `adshare-obs/v1` snapshot as `<name>.json` — the
/// document `schemas/obs_snapshot.schema.json` describes.
pub fn emit_snapshot(registry: &Registry, name: &str) {
    let file_name = format!("{name}.json");
    emit_document("obs snapshot:", &file_name, registry.snapshot().to_json());
}

/// Write a `BENCH_*.json` to the path in environment variable `out_var`,
/// else to `default_path` (the checked-in file, when run from the
/// repository root). A failed write is reported, not fatal: the tables
/// above it are the experiment.
pub fn write_bench_json(out_var: &str, default_path: &str, json: &str) {
    let out = std::env::var(out_var).unwrap_or_else(|_| default_path.into());
    match std::fs::write(&out, format!("{json}\n")) {
        Ok(()) => println!("\nbench json: {out}"),
        Err(e) => eprintln!("bench json write failed: {e}"),
    }
}

/// Print a markdown table with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Time a closure, returning (result, microseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// The machine a `BENCH_*.json` was measured on, as the members of its
/// `machine` object: logical cores, CPU model string and compiler version.
/// A throughput without them cannot be compared with one taken elsewhere.
pub fn machine_json(o: &mut adshare_obs::json::Obj<'_>) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // `output` waits for the child, so nothing is left running.
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    o.u64("logical_cores", cores as u64)
        .str("cpu_model", &cpu_model)
        .str("rustc", &rustc);
}

/// `v` rounded to `decimals` places — how a `BENCH_*.json` records a
/// measurement, so the checked-in files change by digits that mean
/// something.
pub fn round_to(v: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (v * scale).round() / scale
}

/// Format bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10 * 1024 * 1024 {
        format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 10 * 1024 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_frames_have_expected_character() {
        // UI/text should RLE-compress far better than photo.
        let rle_size = |c: Content| adshare_codec::rle::encode(&c.frame(128, 96, 1)).len();
        let ui = rle_size(Content::Ui);
        let photo = rle_size(Content::Photo);
        assert!(ui * 3 < photo, "ui {ui} vs photo {photo}");
    }

    #[test]
    fn roster_lists_every_experiment_binary() {
        let mut roster: Vec<&str> = EXPERIMENTS.iter().map(|(_, bin)| *bin).collect();
        roster.sort_unstable();
        // Both declarations of "the bins": `[[bin]]` entries in the manifest
        // and the sources Cargo auto-discovers.
        let manifest = include_str!("../Cargo.toml");
        let mut declared: Vec<&str> = manifest
            .lines()
            .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .filter(|name| name.starts_with("exp_") && *name != "exp_all")
            .collect();
        declared.sort_unstable();
        assert_eq!(roster, declared, "roster vs [[bin]] entries");
        let bin_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut sources: Vec<String> = std::fs::read_dir(bin_dir)
            .expect("src/bin")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter_map(|f| f.strip_suffix(".rs").map(String::from))
            .filter(|name| name.starts_with("exp_") && name != "exp_all")
            .collect();
        sources.sort_unstable();
        assert_eq!(roster, sources, "roster vs src/bin/exp_*.rs");
        assert!(EXPERIMENTS.windows(2).all(|w| w[0].0 < w[1].0), "E order");
    }

    #[test]
    fn frames_deterministic() {
        for c in Content::ALL {
            assert_eq!(c.frame(64, 48, 9), c.frame(64, 48, 9));
        }
    }

    #[test]
    fn fmt_bytes_ranges() {
        assert_eq!(fmt_bytes(17), "17 B");
        assert_eq!(fmt_bytes(20480), "20.0 KiB");
        assert!(fmt_bytes(50 << 20).ends_with("MiB"));
    }

    #[test]
    fn emit_snapshot_writes_the_document_under_the_snapshot_dir() {
        let registry = Registry::new();
        registry.counter("test.counter").add(7);
        let dir = std::env::temp_dir().join("adshare-bench-emit-test");
        // No other test in this crate reads the variable.
        std::env::set_var("OBS_SNAPSHOT_DIR", &dir);
        emit_snapshot(&registry, "snapshot");
        std::env::remove_var("OBS_SNAPSHOT_DIR");
        let text = std::fs::read_to_string(dir.join("snapshot.json")).expect("read back");
        assert_eq!(text, registry.snapshot().to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
