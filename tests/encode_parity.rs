//! The tile pipeline's session-level guarantees: worker count never
//! changes what goes on the wire, and the cross-frame cache changes how
//! much work it costs to produce it.

use adshare::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_session(workers: usize, cross_frame_cache: bool, seed: u64) -> (SimSession, usize) {
    let mut d = Desktop::new(1024, 768);
    d.create_window(1, Rect::new(100, 80, 400, 300), [240, 240, 240, 255]);
    d.create_window(2, Rect::new(550, 200, 300, 250), [220, 230, 240, 255]);
    let cfg = AhConfig {
        encode: EncodeConfig {
            workers,
            cross_frame_cache,
            tile: TileConfig::square(64),
            ..EncodeConfig::default()
        },
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, seed);
    let p = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        seed + 1,
    );
    (s, p)
}

fn drive(s: &mut SimSession, p: usize, rng_seed: u64) -> (u64, u64, u64, u64) {
    let win = s.ah.desktop().wm().shared_records().next().unwrap().id;
    let mut scroll = Scrolling::new(win, 2);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    for _ in 0..40 {
        scroll.tick(s.ah.desktop_mut(), &mut rng);
        s.step(10_000);
    }
    // Let retransmissions and repairs settle.
    let t = s.run_until(10_000, 5_000_000, |s| s.converged(p));
    assert!(t.is_some(), "must converge");
    let st = s.ah.stats();
    (
        st.bytes_sent,
        st.rtp_packets,
        st.region_msgs,
        st.encoded_bytes,
    )
}

/// The same session driven with 1 worker and with 8 workers produces the
/// same wire traffic, byte for byte in aggregate: same bytes sent, same
/// packet count, same RegionUpdate count, same encoded payload volume.
#[test]
fn worker_count_does_not_change_the_wire() {
    let (mut serial, p1) = build_session(1, true, 7);
    let (mut parallel, p2) = build_session(8, true, 7);
    let a = drive(&mut serial, p1, 99);
    let b = drive(&mut parallel, p2, 99);
    assert_eq!(a, b, "(bytes, packets, regions, encoded) diverged");
    // Both participants hold pixel-identical copies of the same desktop.
    for rec in serial.ah.desktop().wm().shared_records() {
        assert_eq!(
            serial.participant(p1).window_content(rec.id.0),
            parallel.participant(p2).window_content(rec.id.0),
            "window {} pixels diverged",
            rec.id.0
        );
    }
}

/// Ping-pong content (frame N+2 == frame N): the cross-frame cache must
/// cut encode work at least in half versus the per-step cache, while both
/// converge to the same pixels.
#[test]
fn cross_frame_cache_halves_encodes_on_ping_pong() {
    let run = |cross_frame: bool| {
        let (mut s, p) = build_session(2, cross_frame, 11);
        let win = s.ah.desktop().wm().shared_records().next().unwrap().id;
        let mut wl = PingPong::new(win, Rect::new(32, 32, 192, 128));
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            wl.tick(s.ah.desktop_mut(), &mut rng);
            s.step(10_000);
        }
        let t = s.run_until(10_000, 5_000_000, |s| s.converged(p));
        assert!(t.is_some(), "must converge (cross_frame={cross_frame})");
        s.ah.stats().encodes
    };
    let per_step = run(false);
    let cross_frame = run(true);
    assert!(
        cross_frame * 2 <= per_step,
        "cross-frame cache should cut encodes ≥2×: {cross_frame} vs {per_step}"
    );
}

/// Several shared windows damaged in the same flush go out in window order,
/// not in the order of a `HashMap` whose hasher is seeded per instance:
/// sessions built from one seed in one process all fold the same wire
/// digest.
#[test]
fn windows_damaged_in_one_flush_are_sent_in_one_order() {
    let digest = || {
        let mut d = Desktop::new(640, 480);
        let wins: Vec<_> = (0..4u32)
            .map(|i| {
                let at = Rect::new(16 + i * 150, 40, 128, 96);
                d.create_window(1, at, [200, 210, 220, 255])
            })
            .collect();
        let mut s = SimSession::new(d, AhConfig::default(), 21);
        let p = s.add_udp_participant(
            Layout::Original,
            LinkConfig::default(),
            LinkConfig::default(),
            None,
            22,
        );
        for tick in 0..12u32 {
            for (i, &win) in wins.iter().enumerate() {
                let c = (tick * 17 + i as u32 * 40) as u8;
                let at = Rect::new(tick % 4 * 16, 8, 48, 48);
                s.ah.desktop_mut().fill(win, at, [c, c ^ 0x33, 90, 255]);
            }
            s.step(10_000);
        }
        let t = s.run_until(10_000, 5_000_000, |s| s.converged(p));
        assert!(t.is_some(), "must converge");
        s.wire_digest()
    };
    let first = digest();
    for run in 1..6 {
        assert_eq!(digest(), first, "run {run} folded a different wire digest");
    }
}
