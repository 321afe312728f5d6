//! The participant's parked-tile store (DESIGN §9.1 "Viewer side") against a
//! participant that has none: whatever sequence of messages arrives, the
//! windows show the same pixels and the counters read the same as if every
//! `RegionUpdate` had been decoded and drawn. The reference below keeps a
//! plain framebuffer per window and moves one pixel at a time; it shares no
//! code with `Participant::apply` beyond the codecs.
//!
//! Also here: the ping-pong the store exists for (decode twice, then never
//! again) and its bounds under a sender that tries to fill it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use adshare::codec::codec::{default_pt, AnyCodec};
use adshare::codec::CodecRegistry;
use adshare::prelude::*;
use adshare::remoting::message::{MoveRectangle, RegionUpdate, WindowManagerInfo, WindowRecord};
use adshare::session::participant::{Participant, ParticipantStats, PARKED_CEILING_BYTES};
use bytes::Bytes;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The store-less reference
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Reference {
    windows: BTreeMap<u16, (Rect, Image)>,
    regions_applied: u64,
    moves_applied: u64,
    decode_errors: u64,
}

impl Reference {
    fn apply(&mut self, msg: &RemotingMessage) {
        match msg {
            RemotingMessage::WindowManagerInfo(wmi) => {
                let listed: Vec<u16> = wmi.windows.iter().map(|w| w.window_id.0).collect();
                self.windows.retain(|id, _| listed.contains(id));
                for w in &wmi.windows {
                    let rect = Rect::new(w.left, w.top, w.width.max(1), w.height.max(1));
                    let mut content = Image::new(rect.width, rect.height).unwrap();
                    if let Some((_, old)) = self.windows.get(&w.window_id.0) {
                        for y in 0..old.height() {
                            for x in 0..old.width() {
                                content.set_pixel(x, y, old.pixel(x, y).unwrap());
                            }
                        }
                    }
                    self.windows.insert(w.window_id.0, (rect, content));
                }
            }
            RemotingMessage::RegionUpdate(ru) => {
                let Some((rect, content)) = self.windows.get_mut(&ru.window_id.0) else {
                    return;
                };
                let registry = CodecRegistry::default();
                let Some(codec) = registry.get(ru.payload_type) else {
                    self.decode_errors += 1;
                    return;
                };
                // A tile larger than its window is refused on its header's
                // word, before it is decoded.
                match codec.dims(&ru.payload) {
                    Ok((w, h)) if w > rect.width || h > rect.height => return,
                    Ok(_) => {}
                    Err(_) => {
                        self.decode_errors += 1;
                        return;
                    }
                }
                let Ok(img) = codec.decode(&ru.payload) else {
                    self.decode_errors += 1;
                    return;
                };
                for y in 0..img.height() {
                    for x in 0..img.width() {
                        let wx = ru.left as i64 + x as i64 - rect.left as i64;
                        let wy = ru.top as i64 + y as i64 - rect.top as i64;
                        if let (Ok(wx), Ok(wy)) = (u32::try_from(wx), u32::try_from(wy)) {
                            // Out-of-bounds writes are ignored.
                            content.set_pixel(wx, wy, img.pixel(x, y).unwrap());
                        }
                    }
                }
                self.regions_applied += 1;
            }
            RemotingMessage::MoveRectangle(mv) => {
                let Some((rect, content)) = self.windows.get_mut(&mv.window_id.0) else {
                    return;
                };
                let before = content.clone();
                let local = |left: u32, top: u32, x: u32, y: u32| {
                    let wx = u32::try_from(left as i64 + x as i64 - rect.left as i64).ok()?;
                    let wy = u32::try_from(top as i64 + y as i64 - rect.top as i64).ok()?;
                    Some((wx, wy))
                };
                for y in 0..mv.height {
                    for x in 0..mv.width {
                        let from = local(mv.src_left, mv.src_top, x, y);
                        let to = local(mv.dst_left, mv.dst_top, x, y);
                        if let (Some(from), Some(to)) = (from, to) {
                            if let Some(px) = before.pixel(from.0, from.1) {
                                content.set_pixel(to.0, to.1, px);
                            }
                        }
                    }
                }
                self.moves_applied += 1;
            }
            RemotingMessage::MousePointerInfo(_) => {}
        }
    }

    /// Compare with `p` after `step`.
    fn check(&self, p: &Participant, step: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            p.z_order().len(),
            self.windows.len(),
            "windows after {}",
            step
        );
        for (id, (rect, content)) in &self.windows {
            prop_assert_eq!(p.window_ah_rect(*id), Some(*rect), "{}", step);
            prop_assert!(
                p.window_content(*id) == Some(content),
                "window {} differs after {}",
                id,
                step
            );
        }
        let stats = p.stats();
        prop_assert_eq!(
            (
                stats.regions_applied,
                stats.moves_applied,
                stats.decode_errors
            ),
            (self.regions_applied, self.moves_applied, self.decode_errors),
            "counters after {}",
            step
        );
        let reused = stats.tiles_reused + stats.tiles_already_shown;
        prop_assert!(reused <= stats.regions_applied);
        prop_assert!(stats.parked_bytes <= PARKED_CEILING_BYTES as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Where window `id` sits in each of its geometries: the usual one, resized
/// (narrower, cutting through the grid tiles, and taller) and relocated.
fn geometry(id: u16, variant: u8) -> Rect {
    let home = if id == 1 {
        Rect::new(100, 100, 64, 48)
    } else {
        Rect::new(300, 80, 40, 40)
    };
    match variant % 3 {
        0 => home,
        1 => Rect::new(home.left, home.top, home.width / 2 - 8, home.height + 8),
        _ => Rect::new(home.left - 10, home.top + 10, home.width, home.height),
    }
}

fn wmi(windows: &[(u16, u8)]) -> RemotingMessage {
    RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: windows
            .iter()
            .map(|&(id, variant)| {
                let r = geometry(id, variant);
                WindowRecord {
                    window_id: WireWindowId(id),
                    group_id: 0,
                    left: r.left,
                    top: r.top,
                    width: r.width,
                    height: r.height,
                }
            })
            .collect(),
    })
}

/// A small pool of payloads, so that they repeat: three same-sized tiles,
/// a nested one, a large one, one as large as window 1, one wider than it,
/// and the first tile again through two other codecs.
fn pool() -> &'static [(u8, Bytes)] {
    static POOL: OnceLock<Vec<(u8, Bytes)>> = OnceLock::new();
    POOL.get_or_init(|| {
        let picture = |w: u32, h: u32, tag: u8| {
            let mut img = Image::new(w, h).unwrap();
            for y in 0..h {
                for x in 0..w {
                    let v = (x * 7 + y * 13) as u8 ^ tag;
                    img.set_pixel(x, y, [v, tag, (x ^ y) as u8, 255]);
                }
            }
            img
        };
        let encode = |kind: CodecKind, pt: u8, img: &Image| {
            (pt, Bytes::from(AnyCodec::new(kind).encode(img)))
        };
        let png = |img: &Image| encode(CodecKind::Png, default_pt::PNG, img);
        vec![
            png(&picture(16, 12, 1)),
            png(&picture(16, 12, 2)),
            png(&picture(16, 12, 3)),
            png(&picture(8, 6, 4)),
            png(&picture(32, 24, 5)),
            png(&picture(64, 48, 6)),
            png(&picture(70, 10, 7)),
            encode(CodecKind::Rle, default_pt::RLE, &picture(16, 12, 1)),
            encode(CodecKind::Dct, default_pt::DCT, &picture(16, 12, 1)),
        ]
    })
}

/// Corners relative to a window's usual origin: a grid the 16×12 tiles
/// share, corners that make tiles overlap or nest, some that hang over the
/// right and bottom edges, some that start left of or above the window.
const CORNERS: [(i32, i32); 12] = [
    (0, 0),
    (16, 12),
    (16, 0),
    (32, 24),
    (8, 6),
    (20, 15),
    (56, 40),
    (40, 30),
    (-4, 0),
    (0, -5),
    (-6, -6),
    (70, 50),
];

fn corner(id: u16, at: usize) -> (u32, u32) {
    let home = geometry(id, 0);
    let (dx, dy) = CORNERS[at % CORNERS.len()];
    (
        (home.left as i32 + dx) as u32,
        (home.top as i32 + dy) as u32,
    )
}

fn region(id: u16, payload: usize, at: usize) -> RemotingMessage {
    let (payload_type, payload) = pool()[payload % pool().len()].clone();
    let (left, top) = corner(id, at);
    RemotingMessage::RegionUpdate(RegionUpdate {
        window_id: WireWindowId(id),
        payload_type,
        left,
        top,
        payload,
    })
}

/// One generated step: `(kind, window, a, b, c)`.
type Step = (u8, u8, usize, usize, u8);

/// The messages a step stands for.
fn expand(step: Step, open: &mut Vec<(u16, u8)>) -> Vec<RemotingMessage> {
    let (kind, window, a, b, c) = step;
    let id = 1 + (window % 2) as u16;
    match kind {
        // Most steps draw one of three same-sized tiles at one of three
        // grid places, so that tiles come back where they were; some draw
        // anything from the pool anywhere.
        0..=6 => vec![region(id, a % 3, b % 3)],
        7..=9 => vec![region(id, a, b)],
        // Move a tile-sized (or odd-sized) block between two corners.
        10..=12 => {
            let (src, dst) = (corner(id, a), corner(id, b));
            let (width, height) = [(16, 12), (8, 6), (40, 20), (5, 30)][c as usize % 4];
            vec![RemotingMessage::MoveRectangle(MoveRectangle {
                window_id: WireWindowId(id),
                src_left: src.0,
                src_top: src.1,
                width,
                height,
                dst_left: dst.0,
                dst_top: dst.1,
            })]
        }
        // A pool payload with one byte flipped, cut short, or under a
        // payload type nobody registered.
        13 => {
            let RemotingMessage::RegionUpdate(mut ru) = region(id, a, b) else {
                unreachable!()
            };
            let mut bytes = ru.payload.to_vec();
            match c % 3 {
                0 => {
                    let at = bytes.len() / 2;
                    bytes[at] ^= 0x40;
                }
                1 => bytes.truncate(bytes.len() / 2),
                _ => ru.payload_type = 42,
            }
            ru.payload = Bytes::from(bytes);
            vec![RemotingMessage::RegionUpdate(ru)]
        }
        // Window management: resize or relocate one window, close it, or
        // open it again under the same id.
        14 => {
            match open.iter().position(|&(w, _)| w == id) {
                Some(at) if c % 4 == 0 => {
                    open.swap_remove(at);
                }
                Some(at) => open[at].1 = c,
                None => open.push((id, c)),
            }
            vec![wmi(open)]
        }
        // Shrink a window through its grid tiles and restore it at once:
        // what the tiles showed beyond the narrow width is black afterwards.
        15 => match open.iter().position(|&(w, _)| w == id) {
            Some(at) => {
                open[at].1 = 1;
                let narrow = wmi(open);
                open[at].1 = 0;
                vec![narrow, wmi(open)]
            }
            None => {
                open.push((id, 0));
                vec![wmi(open)]
            }
        },
        // A full refresh: the window list, the whole of window 1, then
        // every grid tile again.
        16 | 17 => {
            let mut burst = vec![wmi(open), region(1, 5, 0)];
            burst.extend((0..4).map(|at| region(1, a + at, at)));
            burst
        }
        // Scroll a window where it sits now.
        _ => {
            let variant = open.iter().find(|&&(w, _)| w == id).map_or(0, |&(_, v)| v);
            vec![scroll(id, geometry(id, variant), a, c)]
        }
    }
}

/// A `MoveRectangle` of whole rows in window `id`, which sits at `at`: the
/// whole window or a band of it moved up or down by k, with k below, at
/// one less than and past the moved block's height; a block hanging over
/// both sides (clipped to the whole width); and, for contrast, one column
/// short of the whole width.
fn scroll(id: u16, at: Rect, a: usize, c: u8) -> RemotingMessage {
    let (w, h) = (at.width, at.height);
    let k = 1 + (a % 12) as u32;
    // (left overhang, width, source top, height, destination top), the
    // tops relative to the window's.
    let (hang, width, src, height, dst) = match c % 8 {
        0 => (0, w, k, h - k, 0),
        1 => (0, w, 0, h - k, k),
        2 => (0, w, 2, 8, 9),
        3 => (0, w, 0, 8, 8 + k),
        // The whole window down, its foot clipped to the window.
        4 => (0, w, 0, h, k),
        // A terminal: the band above six status rows scrolls by three.
        5 => (0, w, 3, h - 9, 0),
        6 => (4, w + 8, k, h - k, 0),
        _ => (0, w - 1, k, h - k, 0),
    };
    RemotingMessage::MoveRectangle(MoveRectangle {
        window_id: WireWindowId(id),
        src_left: at.left - hang,
        src_top: at.top + src,
        width,
        height,
        dst_left: at.left - hang,
        dst_top: at.top + dst,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every message the participant shows what the reference shows
    /// and has counted what the reference counted.
    #[test]
    fn parked_tiles_never_change_what_a_viewer_sees(
        steps in collection::vec((0u8..21, 0u8..8, 0usize..64, 0usize..64, any::<u8>()), 1..120),
        seed in any::<u64>(),
    ) {
        let mut participant = Participant::new(1, Layout::Original, true, seed);
        let mut reference = Reference::default();
        let mut open = vec![(1u16, 0u8), (2, 0)];
        let mut feed = vec![wmi(&open)];
        for (n, &step) in steps.iter().enumerate() {
            // Window 2 is drawn to an eighth of the time.
            let step = (step.0, (step.1 == 0) as u8, step.2, step.3, step.4);
            feed.extend(expand(step, &mut open));
            for (m, msg) in feed.drain(..).enumerate() {
                reference.apply(&msg);
                participant.apply(msg);
                reference.check(&participant, &format!("step {n} message {m} {step:?}"))?;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ping-pong
// ---------------------------------------------------------------------------

/// Payloads decoded so far: every applied update that was neither already
/// on screen nor put back from the store.
fn decodes(s: ParticipantStats) -> u64 {
    s.regions_applied - s.tiles_reused - s.tiles_already_shown
}

#[test]
fn ping_pong_is_decoded_twice_per_phase_and_never_again() {
    // Two phases of two 16×12 tiles side by side, four distinct payloads,
    // as the AH's encode cache would resend them.
    let phase = |tag: usize| (0..2).map(move |at| region(1, [[0, 1], [2, 7]][tag][at], [0, 2][at]));
    let mut participant = Participant::new(1, Layout::Original, true, 9);
    let mut reference = Reference::default();
    reference.apply(&wmi(&[(1, 0)]));
    participant.apply(wmi(&[(1, 0)]));
    let mut decoded_by_sight = Vec::new();
    for sight in 1..=10 {
        for tag in [0, 1] {
            let before = decodes(participant.stats());
            for msg in phase(tag) {
                reference.apply(&msg);
                participant.apply(msg);
                reference.check(&participant, "ping-pong").unwrap();
            }
            decoded_by_sight.push((sight, tag, decodes(participant.stats()) - before));
        }
    }
    for &(sight, tag, decoded) in &decoded_by_sight {
        let expected = if sight <= 2 { 2 } else { 0 };
        assert_eq!(decoded, expected, "sight {sight} of phase {tag}");
    }
    let stats = participant.stats();
    assert_eq!(stats.regions_applied, 40);
    assert_eq!(stats.tiles_reused, 32);
    assert_eq!(stats.tiles_parked, 2, "phase 0's pixels, once");
    assert_eq!(
        stats.parked_bytes,
        2 * 16 * 12 * 4,
        "exactly the phase that is not on screen"
    );
    assert_eq!(stats.parked_evictions, 0);
}

// ---------------------------------------------------------------------------
// Bounds under a hostile sender
// ---------------------------------------------------------------------------

/// A distinct, valid RAW payload of `width`×`height` pixels per `n`.
fn raw_update(n: u32, width: u32, height: u32, left: u32, top: u32) -> RemotingMessage {
    let mut payload = Vec::with_capacity(12 + (width * height * 4) as usize);
    payload.extend_from_slice(b"ARAW");
    payload.extend_from_slice(&width.to_be_bytes());
    payload.extend_from_slice(&height.to_be_bytes());
    for px in 0..width * height {
        payload.extend_from_slice(&(n.wrapping_mul(2_654_435_761) ^ px).to_le_bytes());
    }
    RemotingMessage::RegionUpdate(RegionUpdate {
        window_id: WireWindowId(1),
        payload_type: default_pt::RAW,
        left,
        top,
        payload: Bytes::from(payload),
    })
}

fn one_window(rect: Rect) -> Participant {
    let mut p = Participant::new(1, Layout::Original, true, 3);
    p.apply(RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: vec![WindowRecord {
            window_id: WireWindowId(1),
            group_id: 0,
            left: rect.left,
            top: rect.top,
            width: rect.width,
            height: rect.height,
        }],
    }));
    p
}

#[test]
fn a_sender_cannot_grow_the_store_past_its_ceiling() {
    // 10 000 distinct 16 KiB tiles at one place, each sent twice with
    // another in between: every one comes back, so (but for the few the
    // doorkeeper forgets) every one earns its admission, and only the
    // ceiling holds the store.
    let mut p = one_window(Rect::new(0, 0, 64, 64));
    for pair in 0..5_000 {
        for n in [0, 1, 0, 1] {
            p.apply(raw_update(2 * pair + n, 64, 64, 0, 0));
            let held = p.stats().parked_bytes;
            assert!(
                held <= PARKED_CEILING_BYTES as u64,
                "{held} bytes parked at pair {pair}"
            );
        }
    }
    let stats = p.stats();
    let fit = (PARKED_CEILING_BYTES / (64 * 64 * 4)) as u64;
    assert_eq!(stats.regions_applied, 20_000);
    assert!(stats.tiles_parked > 9_000, "{} parked", stats.tiles_parked);
    assert_eq!(stats.parked_bytes, PARKED_CEILING_BYTES as u64, "full");
    assert_eq!(stats.parked_evictions, stats.tiles_parked - fit);
    assert_eq!(stats.tiles_reused, 0, "none is sent a third time");
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn a_tile_larger_than_the_ceiling_is_never_parked() {
    // 512×257 pixels: one row more than the ceiling holds.
    let mut p = one_window(Rect::new(0, 0, 512, 257));
    for n in [1, 2, 1, 2, 1, 2, 1, 2] {
        p.apply(raw_update(n, 512, 257, 0, 0));
        assert_eq!(p.stats().parked_bytes, 0);
    }
    let stats = p.stats();
    assert_eq!(stats.regions_applied, 8);
    assert_eq!(
        (stats.tiles_parked, stats.tiles_reused),
        (0, 0),
        "refused, so there is nothing to put back"
    );
    assert_eq!(stats.parked_evictions, 0);
}

#[test]
fn a_thousand_disjoint_pixels_stay_within_the_tables() {
    // Two payloads over 1 000 places, twice: nothing is ever drawn over, so
    // nothing is parked.
    let mut p = one_window(Rect::new(10, 10, 80, 30));
    let place = |n: u32| (10 + n % 40 * 2, 10 + n / 40);
    for round in 0..2 {
        for n in 0..1_000u32 {
            let (left, top) = place(n);
            p.apply(raw_update(n % 2, 1, 1, left, top));
            assert_eq!(p.stats().parked_bytes, 0, "round {round} place {n}");
        }
    }
    // Then the other payload over each place, latest place first. A window
    // remembers what it shows at its 32 most recent places only (pinned in
    // `mirror::tiles`'s unit tests and by the allocation count in
    // `tests/alloc_budget.rs`): only a remembered pixel can be parked, and
    // only a parked one can be put back, so at most 32 of each.
    for n in (0..1_000u32).rev() {
        let (left, top) = place(n);
        p.apply(raw_update((n + 1) % 2, 1, 1, left, top));
    }
    let stats = p.stats();
    assert_eq!(stats.regions_applied, 3_000);
    assert!(stats.tiles_parked + stats.tiles_reused <= 2 * 32);
    assert!(stats.parked_bytes <= 2 * 4, "two payloads, a pixel each");
    assert_eq!(stats.decode_errors, 0);
}

// ---------------------------------------------------------------------------
// Through a relay: the late joiner
// ---------------------------------------------------------------------------

/// A WindowManagerInfo listing each `(id, width, height)` at (10, 10).
fn wmi_sized(windows: &[(u16, u32, u32)]) -> RemotingMessage {
    let record = |&(id, width, height)| WindowRecord {
        window_id: WireWindowId(id),
        group_id: 0,
        left: 10,
        top: 10,
        width,
        height,
    };
    RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: windows.iter().map(record).collect(),
    })
}

#[test]
fn a_window_record_no_image_can_hold_is_refused_at_viewer_and_relay() {
    // Window 2 opens at 32×16, then one record claims it is 100 000 px
    // wide, which no image may be; window 3 opens with no height at all.
    // Each record is refused and counted, the window keeps what it had (or
    // is never opened), and the rest of the message still applies.
    let mut direct = Participant::new(1, Layout::Original, true, 1);
    let mut relayed = Relayed::new();
    let steps = [
        wmi_sized(&[(1, 64, 64), (2, 32, 16)]),
        raw_update(7, 16, 16, 10, 10),
        wmi_sized(&[(1, 64, 64), (2, 100_000, 16)]),
        wmi_sized(&[(1, 64, 64), (2, 32, 16), (3, 48, 0)]),
    ];
    for msg in &steps {
        direct.apply(msg.clone());
        relayed.feed(msg);
    }
    assert_eq!(direct.stats().windows_refused, 2);
    assert_eq!(relayed.relay.stats().windows_refused, 2);
    assert_eq!(direct.window_ah_rect(2), Some(Rect::new(10, 10, 32, 16)));
    assert_eq!(direct.window_ah_rect(3), None);
    assert_eq!(direct.window_ah_rect(1), Some(Rect::new(10, 10, 64, 64)));
    assert_eq!(direct.stats().regions_applied, 1);
    // The relay's mirror holds what the viewer's does.
    let joiner = relayed.late_joiner();
    if let Err(e) = same_windows(&joiner, &direct, "the refused records") {
        panic!("{e}");
    }
}

#[test]
fn a_message_whose_windows_together_are_too_large_is_refused_whole() {
    // Five 4096×4096 windows: each may exist, but together they need
    // 320 MiB, past `WINDOW_BYTES_CEILING`. The message is refused whole:
    // window 1 is neither resized nor closed, window 9 is not closed, none
    // is opened, and the next message that fits applies as usual.
    let mut direct = Participant::new(1, Layout::Original, true, 1);
    let mut relayed = Relayed::new();
    let huge: Vec<(u16, u32, u32)> = (1..=5).map(|id| (id, 4096, 4096)).collect();
    let steps = [
        wmi_sized(&[(1, 64, 64), (9, 16, 16)]),
        raw_update(7, 16, 16, 10, 10),
        wmi_sized(&huge),
        wmi_sized(&[(1, 64, 48)]),
    ];
    for (n, msg) in steps.iter().enumerate() {
        direct.apply(msg.clone());
        relayed.feed(msg);
        if n == 2 {
            assert_eq!(direct.z_order(), [1, 9]);
            assert_eq!(direct.window_ah_rect(1), Some(Rect::new(10, 10, 64, 64)));
            let joiner = relayed.late_joiner();
            if let Err(e) = same_windows(&joiner, &direct, "the refused message") {
                panic!("{e}");
            }
        }
    }
    assert_eq!(direct.stats().windows_refused, 5);
    assert_eq!(relayed.relay.stats().windows_refused, 5);
    assert_eq!(
        direct.stats().wmi_applied,
        2,
        "the refused one is not applied"
    );
    assert_eq!(direct.z_order(), [1]);
    assert_eq!(direct.window_ah_rect(1), Some(Rect::new(10, 10, 64, 48)));
    assert_eq!(direct.stats().regions_applied, 1);
}

/// A relay fed one upstream RTP stream, message by message. Its catch-up
/// bursts are synthesised from the same mirror a viewer applies the stream
/// to (DESIGN §5.2), so a viewer that joins late must see what a viewer
/// that applied every message sees.
struct Relayed {
    relay: RelayNode,
    upstream: adshare::remoting::packetizer::RemotingPacketizer,
    now_us: u64,
}

impl Relayed {
    fn new() -> Self {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let sender = adshare::rtp::session::RtpSender::new(0xAAAA, 99, &mut rng);
        Relayed {
            relay: RelayNode::new(RelayConfig::default(), 0),
            upstream: adshare::remoting::packetizer::RemotingPacketizer::new(sender, 1200),
            now_us: 0,
        }
    }

    fn feed(&mut self, msg: &RemotingMessage) {
        self.now_us += 1_000;
        for pkt in self.upstream.packetize(msg, 0).unwrap() {
            self.relay.ingest_upstream(&pkt.encode(), self.now_us);
        }
    }

    /// A viewer that joins now: its PLI is answered from the relay's mirror.
    fn late_joiner(&mut self) -> Participant {
        use adshare::rtp::rtcp::{encode_compound, PictureLossIndication, RtcpPacket};
        let leg = self.relay.add_leg_raw(None);
        let pli = encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })]);
        self.relay.handle_leg_rtcp(leg, &pli, self.now_us);
        let mut joiner = Participant::new(9, Layout::Original, true, 9);
        for datagram in self.relay.poll_leg(leg, self.now_us) {
            joiner.handle_datagram(&datagram, 0);
        }
        self.relay.close_leg(leg);
        joiner
    }
}

fn same_windows(joiner: &Participant, direct: &Participant, step: &str) -> Result<(), String> {
    if joiner.z_order() != direct.z_order() {
        return Err(format!("window list differs after {step}"));
    }
    for &id in direct.z_order() {
        if joiner.window_ah_rect(id) != direct.window_ah_rect(id) {
            return Err(format!("window {id} sits elsewhere after {step}"));
        }
        let (ours, theirs) = (joiner.window_content(id), direct.window_content(id));
        if ours != theirs {
            let differing = ours
                .zip(theirs)
                .filter(|(a, b)| a.bounds() == b.bounds())
                .map(|(a, b)| {
                    (0..a.height())
                        .map(|y| {
                            let (p, q) = (a.row(y).chunks(4), b.row(y).chunks(4));
                            p.zip(q).filter(|(p, q)| p != q).count()
                        })
                        .sum::<usize>()
                });
            return Err(format!(
                "window {id} differs in {differing:?} pixels after {step}"
            ));
        }
    }
    Ok(())
}

/// The smallest instance: one update that starts left of its window.
#[test]
fn an_update_starting_left_of_its_window_reaches_a_late_joiner_clipped() {
    let mut direct = Participant::new(1, Layout::Original, true, 1);
    let mut relayed = Relayed::new();
    // Payload 4 of the pool is 32×24; corner 8 is 4 px left of the window.
    for msg in [wmi(&[(1, 0)]), region(1, 4, 8)] {
        relayed.feed(&msg);
        direct.apply(msg);
    }
    same_windows(&relayed.late_joiner(), &direct, "the update").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every prefix that ends in a WindowManagerInfo, a viewer served
    /// the relay's catch-up burst shows what the direct viewer shows.
    #[test]
    fn a_late_joiner_behind_a_relay_sees_what_a_direct_viewer_sees(
        steps in collection::vec((0u8..21, 0u8..8, 0usize..64, 0usize..64, any::<u8>()), 1..120),
    ) {
        let mut direct = Participant::new(1, Layout::Original, true, 1);
        let mut relayed = Relayed::new();
        let mut open = vec![(1u16, 0u8), (2, 0)];
        let mut feed = vec![wmi(&open)];
        for (n, &step) in steps.iter().enumerate() {
            let step = (step.0, (step.1 == 0) as u8, step.2, step.3, step.4);
            feed.extend(expand(step, &mut open));
            let ends_in_wmi = matches!(feed.last(), Some(RemotingMessage::WindowManagerInfo(_)));
            for msg in feed.drain(..) {
                relayed.feed(&msg);
                direct.apply(msg);
            }
            if ends_in_wmi {
                let joiner = relayed.late_joiner();
                if let Err(why) = same_windows(&joiner, &direct, &format!("step {n} {step:?}")) {
                    prop_assert!(false, "{}", why);
                }
            }
        }
    }
}
