//! Shared helpers for the experiment binaries: content generators keyed to
//! the draft's content taxonomy (§2: "artificial rather than natural
//! (photographic) video input"), table printing, and timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;
use std::path::{Path, PathBuf};
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

/// Default directory where experiment binaries drop `adshare-obs/v1`
/// registry snapshots (relative to the working directory). Overridable via
/// the `OBS_SNAPSHOT_DIR` environment variable.
pub const OBS_SNAPSHOT_DIR: &str = "target/obs";

/// Write `registry`'s snapshot to `dir/<name>.json` (creating `dir` if
/// needed) and return the path written.
pub fn emit_snapshot_to(registry: &Registry, dir: &Path, name: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, registry.snapshot().to_json())?;
    Ok(path)
}

/// Write `registry`'s `adshare-obs/v1` snapshot to the standard location —
/// `$OBS_SNAPSHOT_DIR` or [`OBS_SNAPSHOT_DIR`] — as `<name>.json`. The
/// emitted document is what `obs_schema_check` validates against
/// `schemas/obs_snapshot.schema.json`.
pub fn emit_snapshot(registry: &Registry, name: &str) -> io::Result<PathBuf> {
    let dir = std::env::var("OBS_SNAPSHOT_DIR").unwrap_or_else(|_| OBS_SNAPSHOT_DIR.to_string());
    emit_snapshot_to(registry, Path::new(&dir), name)
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

/// The machine a `BENCH_*.json` was measured on, as a JSON object: logical
/// cores, CPU model string and compiler version. A throughput without them
/// cannot be compared with one taken elsewhere.
pub fn machine_json() -> String {
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
    let mut out = format!("{{\"logical_cores\": {cores}, \"cpu_model\": ");
    adshare_obs::json::write_string(&mut out, &cpu_model);
    out.push_str(", \"rustc\": ");
    adshare_obs::json::write_string(&mut out, &rustc);
    out.push('}');
    out
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
    fn emit_snapshot_writes_parseable_json() {
        let registry = Registry::new();
        registry.counter("test.counter").add(7);
        registry.histogram("test.hist").record(123);
        let dir = std::env::temp_dir().join("adshare-bench-emit-test");
        let path = emit_snapshot_to(&registry, &dir, "snapshot").expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = adshare_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(adshare_obs::SNAPSHOT_SCHEMA)
        );
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(
            metrics
                .get("test.counter")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_u64()),
            Some(7)
        );
        assert_eq!(
            metrics
                .get("test.hist")
                .and_then(|m| m.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
