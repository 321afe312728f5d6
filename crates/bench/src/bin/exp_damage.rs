//! E9 — Damage-merging strategy ablation (design choice called out in
//! DESIGN.md §5): how should the AH coalesce dirty rectangles before
//! encoding?
//!
//! A typing workload (many small scattered updates) and a dual-video
//! workload (two dense regions) run under PerRect / Greedy / BoundingBox
//! merging; we measure updates sent, encoded bytes, and re-encoded area.

use adshare_bench::print_table;
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_screen::damage::MergeStrategy;
use adshare_screen::workload::{Typing, Video, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(strategy: MergeStrategy, scattered: bool) -> (u64, u64, u64) {
    let mut d = Desktop::new(800, 600);
    let w = d.create_window(1, Rect::new(40, 40, 480, 360), [250, 250, 250, 255]);
    let cfg = AhConfig {
        damage_strategy: strategy,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 21);
    let p = s.add_tcp_participant(
        Layout::Original,
        TcpConfig {
            rate_bps: 1_000_000_000,
            delay_us: 5_000,
            send_buf: 8 << 20,
        },
        LinkConfig::default(),
        22,
    );
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("sync");
    let base_regions = s.ah.stats().region_msgs;
    let base_bytes = s.ah.stats().encoded_bytes;

    let mut rng = StdRng::seed_from_u64(23);
    if scattered {
        let mut t1 = Typing::new(w, 6);
        for _ in 0..60 {
            t1.tick(s.ah.desktop_mut(), &mut rng);
            s.step(33_333);
        }
    } else {
        let mut v1 = Video::new(w, Rect::new(10, 10, 150, 110));
        let mut v2 = Video::new(w, Rect::new(300, 220, 150, 110));
        for _ in 0..60 {
            v1.tick(s.ah.desktop_mut(), &mut rng);
            v2.tick(s.ah.desktop_mut(), &mut rng);
            s.step(33_333);
        }
    }
    s.run_until(10_000, 60_000_000, |s| s.converged(p))
        .expect("converges");
    let area: u64 = s.ah.stats().encoded_bytes - base_bytes;
    (
        s.ah.stats().region_msgs - base_regions,
        area,
        s.ah.stats().encodes,
    )
}

fn main() {
    let strategies: [(&str, MergeStrategy); 4] = [
        ("per-rect", MergeStrategy::PerRect),
        ("greedy-110", MergeStrategy::Greedy { slack_percent: 110 }),
        ("greedy-130", MergeStrategy::Greedy { slack_percent: 130 }),
        ("bounding-box", MergeStrategy::BoundingBox),
    ];
    // (updates, encoded bytes) per scene, in `strategies` order.
    let mut results = Vec::new();
    for (title, scattered) in [
        ("typing (scattered small damage)", true),
        ("two videos (dense distant damage)", false),
    ] {
        let mut rows = Vec::new();
        let mut scene = Vec::new();
        for (name, strat) in strategies {
            let (updates, bytes, _) = run(strat, scattered);
            scene.push((updates, bytes));
            rows.push(vec![
                name.to_string(),
                format!("{updates}"),
                format!("{}", bytes / 1024),
                format!("{:.1}", bytes as f64 / updates.max(1) as f64 / 1024.0),
            ]);
        }
        print_table(
            &format!("E9: damage strategy — {title}"),
            &["strategy", "updates", "encoded KiB", "KiB/update"],
            &rows,
        );
        results.push(scene);
    }
    let (typing, videos) = (&results[0], &results[1]);
    let (per_rect, greedy, bbox) = (0, 2, 3);
    println!("\nchecks:");
    println!(
        "  typing: greedy-130 sends fewer updates than per-rect ({} < {}); per-rect \
         encodes the fewest bytes ({} KiB).",
        typing[greedy].0,
        typing[per_rect].0,
        typing[per_rect].1 / 1024
    );
    println!(
        "  two videos: bounding-box re-encodes the untouched gap ({} KiB against {} KiB \
         greedy) and, split on the tile grid, also sends more updates ({} against {}).",
        videos[bbox].1 / 1024,
        videos[greedy].1 / 1024,
        videos[bbox].0,
        videos[greedy].0
    );
    assert!(typing[greedy].0 < typing[per_rect].0);
    assert!(videos[greedy].1 < videos[bbox].1);
}
