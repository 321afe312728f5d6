//! The tile pipeline's session-level guarantees: worker count never
//! changes what goes on the wire, and the cross-frame cache changes how
//! much work it costs to produce it.

use adshare::capture::{fnv1a_fold, wire_digest_of, Direction, StreamKind, FNV_OFFSET};
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

// ---------------------------------------------------------------------------
// The step-scoped region index (DESIGN §5.1 "Buffer ownership"): a region is
// cropped, hashed, looked up and encoded for the first leg that asks in a
// step and handed to the others by handle. These tests pin what that must
// never change.
// ---------------------------------------------------------------------------

/// The `typing_udp` shape of the benchmark: a 1024×768 desktop sharing one
/// white 640×480 window, RLE, `viewers` default UDP links.
fn typing_session(viewers: usize, seed: u64) -> (SimSession, adshare::screen::WindowId) {
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(64, 48, 640, 480), [255, 255, 255, 255]);
    let cfg = AhConfig {
        codec: CodecKind::Rle,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, seed);
    for v in 0..viewers {
        let link = LinkConfig::default();
        s.add_udp_participant(Layout::Original, link, link, None, seed + 1 + v as u64);
    }
    (s, win)
}

fn all_converged(s: &SimSession) -> bool {
    (0..s.participant_count()).all(|p| s.converged(p))
}

/// Eight viewers of one typist: the wire digest, the AH's message, packet
/// and encode counts and the pipeline's lookup/hit/miss counters are the
/// ones the commit *before* the region index produced (recorded there with
/// this very test body). Seven of every eight lookups are now answered by
/// the index; each is still counted as the cache hit it replaces.
///
/// The digest was recorded when senders folded their wire byte by byte, so
/// it is read off a full capture refolded with `fnv1a_fold`; the same
/// capture must refold to the live (`word_fold`) digest.
///
/// Only the wire columns have moved since: once receiver reports echoed
/// the last sender report, the AH stopped resending packets that were
/// merely in flight when a report was written (`retransmissions` 112 → 0,
/// `tx_bytes` 3 006 792 → 2 926 560, and with them the digest; receiver
/// reports are not part of it). Every encode and cache count is the
/// recorded one.
#[test]
fn eight_viewers_read_the_same_digest_and_cache_counters_as_before_the_index() {
    let (mut s, win) = typing_session(8, 11);
    let cap = s
        .arm_capture(true, CaptureMode::Full, 11)
        .expect("consented");
    let mut typing = Typing::new(win, 3);
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..400 {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        s.step(16_000);
    }
    assert!(s.run_until(16_000, 5_000_000, all_converged).is_some());
    let st = s.ah.stats();
    let snap = s.obs().registry.snapshot();
    let encode = |name: &str| snap.counter(&format!("ah.encode.{name}")).unwrap();
    let mut records = parse_capture(&cap.to_bytes())
        .expect("capture parses")
        .records;
    records.retain(|r| r.dir == Direction::Tx);
    assert_eq!(wire_digest_of(&records), s.wire_digest());
    let bytewise = records
        .iter()
        .filter(|r| matches!(r.kind, StreamKind::Rtp | StreamKind::Rtcp))
        .fold(FNV_OFFSET, |d, r| fnv1a_fold(d, &r.payload));
    let got = [
        ("wire_digest", bytewise),
        ("region_msgs", st.region_msgs),
        ("rtp_packets", st.rtp_packets),
        ("tx_bytes", st.bytes_sent),
        ("retransmissions", st.retransmits),
        ("encodes", st.encodes),
        ("encoded_bytes", st.encoded_bytes),
        ("encode.tiles", encode("tiles")),
        ("encode.cache.hits", encode("cache.hits")),
        ("encode.cache.misses", encode("cache.misses")),
        ("encode.cache.dedup_hits", encode("cache.dedup_hits")),
        ("encode.cache.bytes_saved", encode("cache.bytes_saved")),
    ];
    let recorded_before_the_index = [
        ("wire_digest", 0x3012_6d1d_57e9_0511),
        ("region_msgs", 4272),
        ("rtp_packets", 4328),
        ("tx_bytes", 2_926_560),
        ("retransmissions", 0),
        ("encodes", 282),
        ("encoded_bytes", 168_439),
        ("encode.tiles", 4272),
        ("encode.cache.hits", 3973),
        ("encode.cache.misses", 282),
        ("encode.cache.dedup_hits", 17),
        ("encode.cache.bytes_saved", 2_639_465),
    ];
    assert_eq!(got, recorded_before_the_index);
}

/// The index does not survive a step: the same rect repainted with other
/// pixels on consecutive steps is re-encoded every time, and every viewer
/// ends pixel-identical to the AH.
#[test]
fn the_same_rect_repainted_next_step_is_encoded_again() {
    let (mut s, win) = typing_session(3, 31);
    assert!(s.run_until(16_000, 5_000_000, all_converged).is_some());
    let before = s.ah.stats().encodes;
    let rect = Rect::new(40, 40, 96, 64);
    for step in 0..20u8 {
        let c = step.wrapping_mul(13);
        s.ah.desktop_mut().fill(win, rect, [c, 255 - c, step, 255]);
        s.step(16_000);
    }
    assert!(s.run_until(16_000, 5_000_000, all_converged).is_some());
    assert!(
        s.ah.stats().encodes - before >= 20,
        "twenty different paints of one rect are twenty encodes"
    );
}

/// Legs that see different damage in the same step share nothing they
/// should not: a leg whose 6 Mb/s budget defers rects, a leg pinned to a
/// lossy tier by a relay's `ADTR` request (and later released), a viewer
/// that joins mid-session and gets a full refresh the others do not, all
/// under an in-stream pointer that moves — everyone converges
/// pixel-identical.
#[test]
fn diverging_legs_converge_pixel_identical() {
    use adshare::layers::TierRequest;
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(64, 48, 512, 384), [255, 255, 255, 255]);
    let cfg = AhConfig {
        pointer: PointerPolicy::InStream,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 41);
    let link = LinkConfig::default();
    s.add_udp_participant(Layout::Original, link, link, None, 42);
    s.add_udp_participant(Layout::Original, link, link, Some(6_000_000), 43);
    let pinned = s.add_udp_participant(Layout::Original, link, link, None, 44);
    let mut video = Video::new(win, Rect::new(32, 32, 256, 192));
    let mut typing = Typing::new(win, 3);
    let mut rng = StdRng::seed_from_u64(45);
    let pin = |s: &mut SimSession, tier: QualityTier| {
        let request = TierRequest {
            ssrc: 0x5245_0000,
            tier,
        };
        let handle = s.handle(pinned);
        s.ah.handle_rtcp(handle, &request.encode(), 0);
    };
    for tick in 0..120u32 {
        video.tick(s.ah.desktop_mut(), &mut rng);
        typing.tick(s.ah.desktop_mut(), &mut rng);
        s.ah.desktop_mut()
            .pointer_mut()
            .move_to(80 + tick * 3, 70 + tick * 2);
        match tick {
            20 => pin(&mut s, QualityTier::Balanced),
            40 => {
                s.add_udp_participant(Layout::Original, link, link, None, 46);
            }
            80 => pin(&mut s, QualityTier::Lossless),
            _ => {}
        }
        s.step(16_000);
    }
    assert!(
        s.ah.stats().full_refreshes >= 4,
        "every viewer, the late one included, was served its own refresh"
    );
    // Park the pointer off the window: in-stream pointer pixels are part of
    // what viewers hold but not of the AH's window content.
    s.ah.desktop_mut().pointer_mut().move_to(900, 700);
    let done = s.run_until(16_000, 20_000_000, all_converged);
    assert!(
        done.is_some(),
        "not converged: {:?}",
        (0..s.participant_count())
            .map(|p| s.divergence(p))
            .collect::<Vec<_>>()
    );
    let snap = s.obs().registry.snapshot();
    assert!(
        snap.counter("codec.dct.encodes").unwrap_or(0) > 0,
        "the pinned leg must have been served the lossy tier"
    );
    assert!(
        snap.counter("ah.rtp_packets").unwrap() > snap.counter("ah.encode.tiles").unwrap(),
        "fragmented updates on every leg"
    );
}

/// The index belongs to one AH's pipeline even when the cache behind it is
/// the host's shared one: a private tenant with two viewers counts exactly
/// the lookups, hits and misses it counts when it is alone on the host, no
/// matter that its neighbour paints byte-identical content in step with it.
#[test]
fn private_tenants_keep_their_region_indexes_apart() {
    let counters = |tenants: usize| {
        let mut host = MultiHost::new(HostConfig { pool_workers: 2 });
        for i in 0..tenants {
            let mut d = Desktop::new(640, 480);
            let win = d.create_window(1, Rect::new(20, 20, 256, 192), [250, 250, 250, 255]);
            let idx = host.add_session(d, AhConfig::default(), 51, CacheSharing::Private);
            assert_eq!(idx, i);
            let link = LinkConfig::default();
            for v in 0..2 {
                host.session_mut(idx).add_udp_participant(
                    Layout::Original,
                    link,
                    link,
                    None,
                    52 + v,
                );
            }
            let mut tick = 0u32;
            host.set_workload(idx, move |sess, _| {
                tick += 1;
                let c = (tick % 200) as u8;
                let at = Rect::new(tick % 5 * 24, 16, 64, 48);
                sess.ah.desktop_mut().fill(win, at, [c, 40, 255 - c, 255]);
                tick < 60
            });
        }
        host.run_until(2_000_000);
        (0..tenants)
            .map(|i| {
                let sess = host.session(i);
                assert!(all_converged(sess), "tenant {i} of {tenants}");
                let snap = sess.obs().registry.snapshot();
                ["tiles", "cache.hits", "cache.misses"]
                    .map(|name| snap.counter(&format!("ah.encode.{name}")).unwrap())
            })
            .collect::<Vec<_>>()
    };
    let alone = counters(1);
    let [tiles, hits, misses] = alone[0];
    assert!(
        misses > 0 && hits >= tiles / 2,
        "two legs: every tile asked for twice"
    );
    let together = counters(2);
    assert_eq!(together, vec![alone[0], alone[0]]);
}
