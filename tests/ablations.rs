//! The oracles behind two AH ablation switches, on scenes shrunk from
//! EXPERIMENTS.md's E3 and E9 so that they fit a debug test run.
//!
//! - `use_move_rectangle` (§5.2.3: MoveRectangle "is efficient for some
//!   drawing operations like scrolls"): scrolling with it sends far fewer
//!   bytes than re-encoding the scrolled pixels.
//! - `damage_strategy`: greedy merging (the default) sends fewer updates
//!   than one update per damage rect on scattered typing, and encodes
//!   fewer bytes than one bounding box around two distant videos.
//!
//! Every run is seeded on the virtual clock, so the figures quoted below
//! repeat exactly.

use adshare::prelude::*;
use adshare::screen::damage::MergeStrategy;
use adshare::screen::wm::WindowId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the AH sent while a workload ran, after the viewer converged.
struct Sent {
    /// Wire bytes to the viewer.
    wire_bytes: u64,
    /// `RegionUpdate` messages.
    updates: u64,
    /// Encoded payload bytes.
    encoded_bytes: u64,
}

/// One 480×360 window, one synced viewer over fast TCP; `tick` paints once
/// per 33 ms step for `ticks` steps, then the viewer must converge again.
fn run(
    cfg: AhConfig,
    seed: u64,
    ticks: u32,
    mut tick: impl FnMut(&mut Desktop, WindowId, &mut StdRng),
) -> Sent {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 480, 360), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, cfg, seed);
    let tcp = TcpConfig {
        rate_bps: 1_000_000_000,
        delay_us: 5_000,
        send_buf: 8 << 20,
    };
    let p = s.add_tcp_participant(Layout::Original, tcp, LinkConfig::default(), seed + 1);
    s.run_until(10_000, 20_000_000, |s| s.converged(p))
        .expect("initial sync");
    let wire_bytes = s.ah.participant_bytes_sent(s.handle(p));
    let (updates, encoded_bytes) = (s.ah.stats().region_msgs, s.ah.stats().encoded_bytes);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    for _ in 0..ticks {
        tick(s.ah.desktop_mut(), w, &mut rng);
        s.step(33_333);
    }
    s.run_until(10_000, 30_000_000, |s| s.converged(p))
        .expect("converges after the workload");
    Sent {
        wire_bytes: s.ah.participant_bytes_sent(s.handle(p)) - wire_bytes,
        updates: s.ah.stats().region_msgs - updates,
        encoded_bytes: s.ah.stats().encoded_bytes - encoded_bytes,
    }
}

/// E3 at 20 one-line scrolls of a PNG document window (E3 scrolls 60,
/// and also under RLE).
fn scroll(use_move_rectangle: bool) -> Sent {
    let cfg = AhConfig {
        use_move_rectangle,
        ..AhConfig::default()
    };
    let mut wl = None;
    run(cfg, 3, 20, |d, w, rng| {
        wl.get_or_insert_with(|| Scrolling::new(w, 1)).tick(d, rng)
    })
}

#[test]
fn move_rectangle_scrolls_for_a_fraction_of_the_reencode_bytes() {
    let with_move = scroll(true).wire_bytes;
    let reencode = scroll(false).wire_bytes;
    eprintln!("scroll: {with_move} B with MoveRectangle, {reencode} B re-encoded");
    // Measured: 24 680 B with MoveRectangle against 205 616 B re-encoded,
    // 8.33×. A scroll detector that replaces the desktop's scroll hints
    // must keep at least 90 % of that: 7.5×.
    assert!(
        reencode * 10 >= with_move * 75,
        "MoveRectangle saves only {:.2}× ({with_move} B against {reencode} B re-encoded)",
        reencode as f64 / with_move as f64
    );
}

/// E9 at 10 ticks: typing (scattered small damage) or two 60×44 videos at
/// opposite corners of the window (dense, distant damage).
fn damage(damage_strategy: MergeStrategy, typing: bool) -> Sent {
    let cfg = AhConfig {
        damage_strategy,
        ..AhConfig::default()
    };
    let mut typist = None;
    let mut videos = None;
    run(cfg, 21, 10, |d, w, rng| {
        if typing {
            typist.get_or_insert_with(|| Typing::new(w, 6)).tick(d, rng);
        } else {
            let (a, b) = videos.get_or_insert_with(|| {
                (
                    Video::new(w, Rect::new(10, 10, 60, 44)),
                    Video::new(w, Rect::new(300, 220, 60, 44)),
                )
            });
            a.tick(d, rng);
            b.tick(d, rng);
        }
    })
}

#[test]
fn greedy_merging_beats_per_rect_on_typing_and_bounding_box_on_distant_videos() {
    let greedy = MergeStrategy::Greedy { slack_percent: 130 };
    // Measured: 63 updates per rect against 13 merged (E9: 376 against 80).
    let per_rect = damage(MergeStrategy::PerRect, true).updates;
    let merged = damage(greedy, true).updates;
    assert!(
        merged < per_rect,
        "greedy sent {merged} updates on typing, per-rect {per_rect}"
    );
    // Measured: 121 014 B in one box against 107 856 B in two regions
    // (E9: 3 476 KiB against 3 336 KiB).
    let boxed = damage(MergeStrategy::BoundingBox, false).encoded_bytes;
    let apart = damage(greedy, false).encoded_bytes;
    eprintln!("typing: {per_rect} updates per rect, {merged} merged");
    eprintln!("videos: {boxed} B in one box, {apart} B in two regions");
    assert!(
        apart < boxed,
        "greedy encoded {apart} B for two distant videos, the bounding box {boxed} B"
    );
}
