//! The allocation budget of the AH→viewer datagram path (DESIGN §5.1
//! "Buffer ownership"), held in tier-1: one heap allocation per RTP packet
//! per leg on the send side — the datagram, which the link queue, the
//! retransmit history and the receiver all share — and a pinned ceiling on
//! what a whole `typing_udp`-shaped frame allocates end to end. The viewer's
//! parked-tile store (DESIGN §9.1 "Viewer side") is held to the same account:
//! an update it has to decode costs exactly the decode, one it can put back
//! from the store or finds on screen costs nothing. The simulated TCP stream
//! (DESIGN §5.1 "The stream link") costs one allocation per `recv` that
//! returns bytes, however many segments those bytes crossed the link in.
//! And a warm PNG or DCT encode or decode of a tile costs the one buffer it
//! returns (DESIGN §14.2 "Working memory"), while a DCT payload whose header
//! claims more pixels than its body can describe, a PNG whose header claims
//! more than an image may hold, and a WindowManagerInfo whose windows
//! together are too large (DESIGN §5.2) are each refused for a few times
//! their own size, not for the pixels they claim.
//!
//! This file holds a single test on purpose: it installs a counting
//! `#[global_allocator]`, and nothing else may run in the process while it
//! counts. The counter is per thread (the test's own), and the sessions
//! encode with one worker, so the numbers repeat exactly.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use adshare::codec::checksum::crc32;
use adshare::codec::codec::{default_pt, AnyCodec};
use adshare::codec::deflate::{deflate, Level};
use adshare::codec::zlib;
use adshare::netsim::tcp::TcpLink;
use adshare::prelude::*;
use adshare::remoting::message::{RegionUpdate, WindowManagerInfo, WindowRecord};
use adshare::remoting::packetizer::RemotingPacketizer;
use adshare::remoting::reference::{
    Held, Miss, NameReport, TileRef, REFERENCE_PT, REPORT_MAX_NAMES,
};
use adshare::rtp::rtcp::{encode_compound, PictureLossIndication, RtcpPacket};
use adshare::rtp::session::RtpSender;
use adshare::rtp::RtpPacket;
use adshare::screen::workload::photo_frame;
use adshare::screen::WindowId;
use adshare::session::mirror::message_cap;
use adshare::session::participant::WINDOW_BYTES_CEILING;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread (`alloc`, `alloc_zeroed`, and
    /// `realloc` — a grow is a trip to the allocator too).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a grow counts its new size).
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds: what it was given less what it gave back.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread that is being torn down has no counter left.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    hold(bytes as i64);
}

fn hold(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counting touches a const-initialised
// thread-local `Cell` without a destructor, so it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(-(layout.size() as i64));
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        hold(-(layout.size() as i64));
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TICK_US: u64 = 16_000;
const WARM_UP_TICKS: u32 = 300;
const MEASURED_TICKS: u32 = 600;

/// Allocations one frame of the `typing_udp` shape may cost end to end
/// (paint, AH step, eight links, eight viewers): 47.2 measured when the
/// budget was set, 188 before the datagram became the unit of ownership.
/// Raise it only with a reason; an extra buffer per packet anywhere on the
/// path costs 10 or more.
const FRAME_CEILING: f64 = 52.0;

/// Bytes a refused payload may cost per byte it holds: the inflate buffer
/// reserves up to four times the input (`TYPICAL_EXPANSION` in
/// `codec::deflate::inflate`), and the rest is headroom.
const CLAIM_COST_PER_BYTE: u64 = 16;

/// The benchmark's `typing_udp` desktop: 1024×768, one white 640×480 window.
fn desktop() -> (Desktop, WindowId) {
    let mut d = Desktop::new(1024, 768);
    let win = d.create_window(1, Rect::new(64, 48, 640, 480), [255, 255, 255, 255]);
    (d, win)
}

fn config() -> AhConfig {
    AhConfig {
        codec: CodecKind::Rle,
        // Short, so the ring is full (and done growing) before counting.
        history: (256, 8 << 20),
        encode: EncodeConfig {
            workers: 1,
            ..EncodeConfig::default()
        },
        ..AhConfig::default()
    }
}

/// A bare AH with `legs` UDP viewers' worth of egress and nobody behind
/// them: each leg is started by a PLI and its link is drained every tick.
struct Sender {
    ah: AppHost,
    handles: Vec<adshare::session::ParticipantHandle>,
    typing: Typing,
    rng: StdRng,
    now_us: u64,
}

impl Sender {
    fn new(legs: u16) -> Sender {
        let (d, win) = desktop();
        let mut ah = AppHost::new(d, config(), 7);
        let pli = RtcpPacket::Pli(PictureLossIndication {
            sender_ssrc: 1,
            media_ssrc: 2,
        })
        .encode();
        let handles: Vec<_> = (0..legs)
            .map(|i| {
                let h = ah.attach_udp(i + 1, LinkConfig::default(), 100 + i as u64, None);
                ah.handle_rtcp(h, &pli, 0);
                h
            })
            .collect();
        Sender {
            ah,
            handles,
            typing: Typing::new(win, 3),
            rng: StdRng::seed_from_u64(8),
            now_us: 0,
        }
    }

    /// Paint and step one tick; returns `(allocations inside AppHost::step,
    /// RTP packets it sent, sender reports it sent)`.
    fn tick(&mut self) -> (u64, u64, u64) {
        self.now_us += TICK_US;
        self.typing.tick(self.ah.desktop_mut(), &mut self.rng);
        let before = self.ah.stats();
        let a0 = allocs();
        self.ah.step(self.now_us);
        let spent = allocs() - a0;
        let after = self.ah.stats();
        for &h in &self.handles {
            drop(self.ah.poll_udp_bytes(h, self.now_us));
        }
        (
            spent,
            after.rtp_packets - before.rtp_packets,
            after.sr_sent - before.sr_sent,
        )
    }
}

#[test]
fn datagram_path_stays_inside_its_allocation_budget() {
    // 1. The send side. Two AHs paint the same keystrokes in lockstep, one
    // feeding a single leg and one feeding eight. Whatever a step costs for
    // capture, damage and the first leg's encode is the same in both, so
    // the difference is what seven more legs cost — and that must be their
    // packets, one allocation each, and nothing else: no fragment list, no
    // second buffer for the link or the history, no per-leg crop or tile
    // list, no bookkeeping vector. (Steps that emit RTCP sender reports are
    // compared separately: a report is a few small allocations per leg.)
    let mut one = Sender::new(1);
    let mut eight = Sender::new(8);
    for _ in 0..WARM_UP_TICKS {
        one.tick();
        eight.tick();
    }
    let (mut packets, mut report_steps) = (0u64, 0u32);
    for tick in 0..MEASURED_TICKS {
        let (a1, p1, sr1) = one.tick();
        let (a8, p8, sr8) = eight.tick();
        assert_eq!(
            p8,
            8 * p1,
            "tick {tick}: every leg carries the same messages"
        );
        if sr1 + sr8 > 0 {
            report_steps += 1;
            continue;
        }
        assert_eq!(
            a8 - a1,
            p8 - p1,
            "tick {tick}: seven more legs sent {} packets and cost {} allocations \
             (one leg: {a1} allocations for {p1} packets)",
            p8 - p1,
            a8 - a1,
        );
        packets += p8 - p1;
    }
    assert!(
        packets > 1_000,
        "the typist must keep the legs busy: {packets}"
    );
    assert!(report_steps >= 8, "reports once a second: {report_steps}");

    // 2. End to end: the benchmark's typing_udp world through the product's
    // own orchestrator, counted the way `e2ebench` counts it (paint + step).
    let (d, win) = desktop();
    let mut s = SimSession::new(d, config(), 11);
    for v in 0..8 {
        let link = LinkConfig::default();
        s.add_udp_participant(Layout::Original, link, link, None, 12 + v);
    }
    let mut typing = Typing::new(win, 3);
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..WARM_UP_TICKS {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        s.step(TICK_US);
    }
    assert!((0..8).all(|v| s.participant(v).synced()));
    let sent0 = s.ah.stats().rtp_packets;
    let a0 = allocs();
    for _ in 0..MEASURED_TICKS {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        s.step(TICK_US);
    }
    let per_frame = (allocs() - a0) as f64 / MEASURED_TICKS as f64;
    let packets_per_frame = (s.ah.stats().rtp_packets - sent0) as f64 / MEASURED_TICKS as f64;
    println!("measured {per_frame:.2} allocations, {packets_per_frame:.2} packets per frame");
    assert!(
        packets_per_frame > 8.0,
        "{packets_per_frame} packets per frame"
    );
    assert!(
        per_frame <= FRAME_CEILING,
        "{per_frame:.1} allocations per frame for {packets_per_frame:.1} packets per frame, \
         ceiling {FRAME_CEILING}"
    );
    assert!(s
        .run_until(TICK_US, 5_000_000, |s| (0..8).all(|v| s.converged(v)))
        .is_some());
    // Keystrokes never repeat, so none of them is admitted to a store.
    for v in 0..8 {
        let stats = s.participant(v).stats();
        assert_eq!(
            (stats.parked_bytes, stats.tiles_parked, stats.tiles_reused),
            (0, 0, 0),
            "viewer {v}"
        );
    }

    // 3. The viewer's store. A 64×48 tile flips between two pictures at one
    // place while distinct tiles land at ever new places beside it.
    let picture = |tag: u32| {
        let mut img = Image::new(64, 48).unwrap();
        for y in 0..48 {
            for x in 0..64 {
                let v = (x * 5 + y * 11) ^ tag.wrapping_mul(2_654_435_761);
                img.set_pixel(x, y, [v as u8, (v >> 8) as u8, tag as u8, 255]);
            }
        }
        Bytes::from(AnyCodec::new(CodecKind::Png).encode(&img))
    };
    let update = |payload: &Bytes, left: u32, top: u32| {
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type: default_pt::PNG,
            left,
            top,
            payload: payload.clone(),
        })
    };
    let mut viewer = Participant::new(1, Layout::Original, true, 5);
    viewer.apply(RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: vec![WindowRecord {
            window_id: WireWindowId(1),
            group_id: 0,
            left: 0,
            top: 0,
            width: 640,
            height: 480,
        }],
    }));
    let (ping, pong) = (picture(1), picture(2));
    // What decoding one such tile costs on its own, once this thread's
    // codec working set (DESIGN §14.2 "Working memory") has decoded one:
    // the pixels it returns.
    let codec = AnyCodec::new(CodecKind::Png);
    drop(codec.decode(&ping).unwrap());
    let a0 = allocs();
    drop(codec.decode(&ping).unwrap());
    let decode_cost = allocs() - a0;
    assert_eq!(decode_cost, 1, "the pixels and nothing else: {decode_cost}");
    let applied = |viewer: &mut Participant, msg: RemotingMessage| {
        let a0 = allocs();
        viewer.apply(msg);
        allocs() - a0
    };
    // A tile that never returns costs the decode and nothing else.
    for n in 0..40 {
        let once = update(&picture(500 + n), 64 * (n % 10), 48 * (n / 10));
        assert_eq!(applied(&mut viewer, once), decode_cost, "one-off {n}");
    }
    // One that does return is recorded in the window's table of what it
    // shows where, and the pixels it replaces may be parked: the first
    // record and the first park bring those two tables into being.
    let (a, b) = (picture(3), picture(4));
    for tile in [&a, &b, &a, &b] {
        applied(&mut viewer, update(tile, 0, 400));
    }
    assert_eq!(viewer.stats().tiles_parked, 1);
    // After that a returning tile costs the decode too, however many
    // places have been recorded (40 here, the table holds 32) ...
    for n in 0..40 {
        let (left, top) = (64 * (n % 10), 48 * (n / 10));
        let (a, b) = (picture(100 + n), picture(200 + n));
        for (sight, tile) in [&a, &b, &a].into_iter().enumerate() {
            let cost = applied(&mut viewer, update(tile, left, top));
            assert_eq!(cost, decode_cost, "place {n} sight {sight}");
        }
    }
    // ... including the miss that parks what it replaces (the fourth
    // here), which does so in the decoder's own buffer. From the third
    // sight on a ping-pong is an exchange in place.
    for (sight, payload) in [&ping, &pong, &ping, &pong].into_iter().enumerate() {
        let cost = applied(&mut viewer, update(payload, 320, 240));
        assert_eq!(cost, decode_cost, "sight {sight}");
    }
    assert_eq!(viewer.stats().tiles_parked, 2);
    for round in 0..50 {
        for payload in [&ping, &pong, &pong] {
            let cost = applied(&mut viewer, update(payload, 320, 240));
            assert_eq!(cost, 0, "round {round}");
        }
    }
    let stats = viewer.stats();
    assert_eq!((stats.tiles_reused, stats.tiles_already_shown), (100, 50));
    assert_eq!(stats.parked_bytes, 2 * 64 * 48 * 4);

    // 4. The stream link. A 1 Gb/s link with the benchmark's fast-leg
    // buffer carries ≈ 75 KB of frames per tick (≈ 52 segments); the
    // receiver reads at the tick and half a tick later. Once the queues have
    // grown to their working size, a read that returns bytes costs the `Vec`
    // it returns and nothing per segment; an empty read and sending cost
    // nothing.
    let mut link = TcpLink::new(TcpConfig {
        rate_bps: 1_000_000_000,
        delay_us: 5_000,
        send_buf: 8 << 20,
    });
    let frames =
        |tick: u64| (0..5u64).map(move |f| 12_000 + ((tick * 7 + f * 3_001) % 6_000) as usize);
    let payload = vec![0x5a; 18_000];
    let mut now = 0;
    let mut run = |ticks: u64, link: &mut TcpLink| {
        let (mut allocations, mut reads, mut bytes) = (0, 0, 0);
        for tick in 0..ticks {
            now += TICK_US;
            let a0 = allocs();
            for len in frames(tick) {
                assert_eq!(
                    link.send(now, &payload[..len]),
                    len,
                    "the buffer never fills"
                );
            }
            for at in [now, now + TICK_US / 2] {
                let read = link.recv(at);
                reads += u64::from(!read.is_empty());
                bytes += read.len();
            }
            allocations += allocs() - a0;
        }
        (allocations, reads, bytes)
    };
    run(WARM_UP_TICKS as u64, &mut link);
    let (allocations, reads, bytes) = run(MEASURED_TICKS as u64, &mut link);
    let segments = bytes.div_ceil(1460) as u64;
    println!(
        "stream: {allocations} allocations for {reads} reads, {bytes} B, ≥ {segments} segments"
    );
    assert!(bytes >= 60_000 * MEASURED_TICKS as usize, "{bytes} B");
    assert!(
        allocations <= reads,
        "{allocations} allocations for {reads} reads that returned bytes ({segments} segments)"
    );

    // 5. The codecs. On a warm thread a 128×128 photo tile's PNG and DCT
    // encodes cost the payload each returns, and each decode the image:
    // matcher tables, tokens, filtered rows, coefficient body and inflate
    // buffer all come from the thread's working set.
    let tile = photo_frame(128, 128, 7);
    for kind in [CodecKind::Png, CodecKind::Dct] {
        let codec = AnyCodec::new(kind);
        let payload = codec.encode(&tile);
        drop(codec.decode(&payload).unwrap());
        let a0 = allocs();
        let again = codec.encode(&tile);
        let encode_cost = allocs() - a0;
        let a0 = allocs();
        let image = codec.decode(&again).unwrap();
        let decode_cost = allocs() - a0;
        println!("{kind:?}: encode {encode_cost}, decode {decode_cost} allocations");
        assert_eq!(again, payload, "{kind:?}");
        assert_eq!(image.width(), 128);
        assert_eq!(
            (encode_cost, decode_cost),
            (1, 1),
            "{kind:?}: (encode, decode)"
        );
    }

    // 6. A declared size is a claim. The 13-byte header of a DCT payload
    // states its dimensions; here it claims 8192×8192 (256 MiB of pixels)
    // over the coefficient body of a 16×16 tile. The body cannot hold the
    // 6 bytes per 8×8 block that even a flat block takes, so the payload is
    // refused before the pixels are allocated, for a few times the bytes
    // that arrived.
    let dct = AnyCodec::new(CodecKind::Dct);
    let mut claim = dct.encode(&photo_frame(16, 16, 3));
    claim[4..12].copy_from_slice(&[0, 0, 0x20, 0, 0, 0, 0x20, 0]);
    let b0 = alloc_bytes();
    let refused = dct.decode(&claim);
    let cost = alloc_bytes() - b0;
    println!(
        "DCT claiming 8192×8192 in {} B: {cost} B allocated",
        claim.len()
    );
    assert!(refused.is_err(), "a body of 4 blocks is not 1 048 576");
    assert!(
        cost <= CLAIM_COST_PER_BYTE * claim.len() as u64,
        "{cost} B allocated to refuse a {} B payload",
        claim.len()
    );

    // 7. So is a window's size, and so is the sum of them. Window 1 is open
    // at 64×64; then one WindowManagerInfo lists it and four more, each
    // 4096×4096: 64 MiB apiece, which one image may take, but 320 MiB
    // together, past what one message may open (`WINDOW_BYTES_CEILING`).
    // A viewer and a relay's upstream side refuse the message whole, count
    // its five records, keep window 1 as it was and allocate for it at most
    // a few times the bytes that arrived, not the pixels it claims.
    let side = 4096;
    assert!(5 * u64::from(side) * u64::from(side) * 4 > WINDOW_BYTES_CEILING);
    let record = |id: u16, side: u32| WindowRecord {
        window_id: WireWindowId(id),
        group_id: 0,
        left: 0,
        top: 0,
        width: side,
        height: side,
    };
    let small = RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: vec![record(1, 64)],
    });
    let huge = RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: (1..=5).map(|id| record(id, side)).collect(),
    });
    let mut viewer = Participant::new(1, Layout::Original, true, 5);
    viewer.apply(small.clone());
    let before = viewer.window_content(1).cloned();
    let mut upstream = Upstream::new();
    upstream.feed(&small);
    let msg = huge.clone();
    let b0 = alloc_bytes();
    viewer.apply(msg);
    let viewer_cost = alloc_bytes() - b0;
    let b0 = alloc_bytes();
    let arrived = upstream.feed(&huge);
    let relay_cost = alloc_bytes() - b0;
    println!(
        "WMI claiming 5 × 4096×4096 in {arrived} B: viewer {viewer_cost} B, relay {relay_cost} B allocated"
    );
    for (who, cost) in [("viewer", viewer_cost), ("relay", relay_cost)] {
        assert!(
            cost <= CLAIM_COST_PER_BYTE * arrived,
            "{who}: {cost} B allocated to refuse a {arrived} B message"
        );
    }
    assert_eq!(viewer.stats().windows_refused, 5);
    assert_eq!(upstream.relay.stats().windows_refused, 5);
    assert_eq!(viewer.z_order(), [1]);
    assert_eq!(viewer.window_content(1).cloned(), before, "kept as it was");

    // 8. A PNG header is a claim as well: 16384×16384 RGBA is 1 GiB of
    // pixels, past what an image may take, over an IDAT of a few KiB of
    // compressed zeros that would inflate to megabytes. The header is
    // refused before a byte is inflated.
    let mut png = b"\x89PNG\r\n\x1a\n".to_vec();
    let mut ihdr = [0u8; 13];
    ihdr[0..4].copy_from_slice(&16_384u32.to_be_bytes());
    ihdr[4..8].copy_from_slice(&16_384u32.to_be_bytes());
    ihdr[8..10].copy_from_slice(&[8, 6]);
    let zeros = zlib::compress(&vec![0; 4 << 20], Level::Default);
    for (kind, body) in [(b"IHDR", &ihdr[..]), (b"IDAT", &zeros), (b"IEND", &[])] {
        png.extend_from_slice(&(body.len() as u32).to_be_bytes());
        png.extend_from_slice(kind);
        png.extend_from_slice(body);
        png.extend_from_slice(&crc32(&[&kind[..], body].concat()).to_be_bytes());
    }
    let codec = AnyCodec::new(CodecKind::Png);
    let b0 = alloc_bytes();
    let refused = codec.decode(&png);
    let cost = alloc_bytes() - b0;
    println!(
        "PNG claiming 16384×16384 in {} B: {cost} B allocated",
        png.len()
    );
    assert!(refused.is_err(), "no image may hold 1 GiB");
    assert!(
        cost <= CLAIM_COST_PER_BYTE * png.len() as u64,
        "{cost} B allocated to refuse a {} B payload",
        png.len()
    );

    // 9. A fragment train is a claim as well: a sender that never sets the
    // marker bit grows the receiver's reassembly by a packet at a time.
    // Window 1 is open at 64×64 (16 KiB of pixels); then a RegionUpdate for
    // it runs on past where its last fragment should be, its middle
    // packets sent again and again, sixteen times the longest message the
    // window can need (`message_cap`: twice its RGBA bytes and 1 MiB). A
    // viewer and a relay's upstream side drop the train once it passes
    // that cap and hold at most k = 9/8 of it (the packets' own headers
    // and the list of parts): the viewer nothing else, the relay only its
    // retransmit cache (8 MiB at most) besides. A legal update after the
    // train still applies.
    let cap = message_cap(64 * 64) as i64;
    let bound = cap + cap / 8;
    let mut train = Train::new(small.clone(), 16 * cap as usize);
    let mut viewer = Participant::new(1, Layout::Original, true, 5);
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    let mut held = [0i64; 2];
    for (who, held) in held.iter_mut().enumerate() {
        let base = live();
        for (i, datagram) in train.datagrams().enumerate() {
            match who {
                0 => viewer.handle_datagram(&datagram, i as u64),
                _ => relay.ingest_upstream(&datagram, i as u64),
            }
            *held = (*held).max(live() - base);
        }
    }
    println!(
        "{} B fragment train past a {cap} B cap: viewer held {} B, relay {} B at most",
        train.len, held[0], held[1]
    );
    assert!(held[0] <= bound, "viewer held {} B of the train", held[0]);
    assert!(held[1] <= bound + (8 << 20), "relay held {} B", held[1]);
    let regions = viewer.stats().regions_applied;
    for datagram in train.after() {
        viewer.handle_datagram(&datagram, 0);
    }
    assert_eq!(viewer.stats().regions_applied, regions + 1, "it applies");

    // 10. A tile's size is a claim too. Window 1 is open at 64×64; each
    // payload below declares 1024×1024 (4 MiB of pixels, which one image may
    // take) over a body that backs it — PNG over compressed zeros, DCT over
    // a DEFLATE'd body long enough for every block, RLE over enough runs —
    // and a reference declares the same. No tile larger than its window is
    // drawn, so a viewer and a relay's upstream side read the size off the
    // header (`Codec::dims`) and refuse the update before anything is
    // decoded or copied, for at most the larger of k = CLAIM_COST_PER_BYTE
    // times the bytes that arrived and the window's own 16 KiB of pixels
    // (decoding it costs the 4 MiB). A relay resolves no reference: there
    // it is merely undecodable.
    let side = 1024u32;
    let claims = [
        ("PNG", default_pt::PNG, png_claim(side)),
        ("DCT", default_pt::DCT, dct_claim(side)),
        ("RLE", default_pt::RLE, rle_claim(side)),
        ("reference", REFERENCE_PT, reference(side).to_vec()),
    ];
    let mut viewer = Participant::new(1, Layout::Original, true, 5);
    viewer.apply(small.clone());
    let mut upstream = Upstream::new();
    upstream.feed(&small);
    for (i, (what, payload_type, payload)) in claims.into_iter().enumerate() {
        let msg = RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type,
            left: 0,
            top: 0,
            payload: Bytes::from(payload),
        });
        let copy = msg.clone();
        let b0 = alloc_bytes();
        viewer.apply(copy);
        let viewer_cost = alloc_bytes() - b0;
        let b0 = alloc_bytes();
        let arrived = upstream.feed(&msg);
        let relay_cost = alloc_bytes() - b0;
        println!("{what} claiming {side}×{side} in {arrived} B: viewer {viewer_cost} B, relay {relay_cost} B allocated");
        let bound = (CLAIM_COST_PER_BYTE * arrived).max(64 * 64 * 4);
        for (who, cost) in [("viewer", viewer_cost), ("relay", relay_cost)] {
            assert!(
                cost <= bound,
                "{what} at the {who}: {cost} B allocated to refuse a {arrived} B message"
            );
        }
        assert_eq!(viewer.stats().tiles_refused, i as u64 + 1, "{what}");
        assert_eq!(upstream.relay.stats().tiles_refused, (i as u64 + 1).min(3));
    }
    assert_eq!(viewer.stats().decode_errors, 0, "refused, not decoded");

    // 11. The three packets of tile references, hostile. An AH leg reads a
    // report naming 10 000 tiles (its count is the bytes' own) into a
    // ledger of at most REPORT_MAX_NAMES entries: what it keeps is that
    // ceiling's worth, whatever the report said; a report whose count its
    // bytes do not carry, a truncated one, and a miss that names nothing
    // are ignored. A viewer sent references to a name it never held and to
    // a held name at the wrong size reports a miss for each, allocating
    // no pixels for either.
    let (desktop, _) = self::desktop();
    let mut ah = AppHost::new(desktop, config(), 1);
    let handle = ah.attach_tcp(1, Default::default());
    ah.step(TICK_US);
    // The leg's SSRC, off the first RTP packet of the stream (after its
    // two-byte RFC 4571 length).
    let stream = ah.poll_tcp(handle, 1_000_000);
    let media = u32::from_be_bytes(stream[10..14].try_into().unwrap());
    let held = |name| Held {
        name,
        place: Held::PARKED,
    };
    let flood: Vec<Held> = (0..10_000).map(held).collect();
    let flood = encode_compound(&[NameReport::packet(1, media, 3, 0, &flood)]);
    let base = live();
    ah.handle_rtcp(handle, &flood, 1_000);
    let kept = live() - base;
    println!(
        "a {} B report of 10 000 names: the AH keeps {kept} B",
        flood.len()
    );
    assert!(kept <= (REPORT_MAX_NAMES * 16) as i64, "{kept} B kept");
    let mut lying = encode_compound(&[NameReport::packet(1, media, 3, 0, &[held(5)])]);
    lying[16..18].copy_from_slice(&9u16.to_be_bytes());
    let refreshes = ah.stats().full_refreshes;
    for bytes in [&lying[..], &flood[..flood.len() / 2], &empty_miss(media)] {
        ah.handle_rtcp(handle, bytes, 2_000);
    }
    assert_eq!(ah.stats().full_refreshes, refreshes, "nothing asked for");
    assert_eq!(ah.stats().ref_misses, 0);
    let mut viewer = Participant::new(1, Layout::Original, true, 5);
    viewer.apply(small.clone());
    let tile =
        AnyCodec::new(CodecKind::Rle).encode(&Image::filled(16, 16, [9, 9, 9, 255]).unwrap());
    let drawn = |payload_type, payload: Vec<u8>| {
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type,
            left: 0,
            top: 0,
            payload: Bytes::from(payload),
        })
    };
    for _ in 0..3 {
        viewer.apply(drawn(default_pt::RLE, tile.clone()));
    }
    let shown = viewer.stats().regions_applied;
    let never = TileRef {
        payload_type: default_pt::RLE,
        len: tile.len() as u32,
        name: 0x5eed,
        width: 16,
        height: 16,
    };
    let b0 = alloc_bytes();
    viewer.apply(drawn(REFERENCE_PT, never.encode().to_vec()));
    let cost = alloc_bytes() - b0;
    viewer.apply(drawn(
        REFERENCE_PT,
        TileRef { width: 8, ..never }.encode().to_vec(),
    ));
    let stats = viewer.stats();
    assert_eq!((stats.refs_missed, stats.regions_applied), (2, shown));
    assert!(cost < 16 * 16 * 4, "{cost} B allocated for a miss");
}

/// An 18-byte reference declaring a `side`×`side` tile.
fn reference(side: u32) -> [u8; TileRef::LEN] {
    TileRef {
        payload_type: default_pt::PNG,
        len: 1,
        name: 1,
        width: side as u16,
        height: side as u16,
    }
    .encode()
}

/// A PNG whose header claims `side`×`side` RGBA over compressed zeros.
fn png_claim(side: u32) -> Vec<u8> {
    let mut png = b"\x89PNG\r\n\x1a\n".to_vec();
    let mut ihdr = [0u8; 13];
    ihdr[0..4].copy_from_slice(&side.to_be_bytes());
    ihdr[4..8].copy_from_slice(&side.to_be_bytes());
    ihdr[8..10].copy_from_slice(&[8, 6]);
    let rows = (side as usize * 4 + 1) * side as usize;
    let zeros = zlib::compress(&vec![0; rows], Level::Default);
    for (kind, body) in [(b"IHDR", &ihdr[..]), (b"IDAT", &zeros), (b"IEND", &[])] {
        png.extend_from_slice(&(body.len() as u32).to_be_bytes());
        png.extend_from_slice(kind);
        png.extend_from_slice(body);
        png.extend_from_slice(&crc32(&[&kind[..], body].concat()).to_be_bytes());
    }
    png
}

/// A DCT payload claiming `side`×`side` over a body of six zero bytes per
/// block, DEFLATE'd.
fn dct_claim(side: u32) -> Vec<u8> {
    let blocks = (side as usize).div_ceil(8).pow(2);
    let mut dct = AnyCodec::new(CodecKind::Dct).encode(&photo_frame(16, 16, 3));
    dct.truncate(13);
    dct[4..8].copy_from_slice(&side.to_be_bytes());
    dct[8..12].copy_from_slice(&side.to_be_bytes());
    dct.extend(deflate(&vec![0; blocks * 6], Level::Fast));
    dct
}

/// An RLE payload claiming `side`×`side` with the runs to fill it.
fn rle_claim(side: u32) -> Vec<u8> {
    let pixels = side as usize * side as usize;
    let mut rle = AnyCodec::new(CodecKind::Rle).encode(&Image::filled(1, 1, [0; 4]).unwrap());
    rle.truncate(12);
    rle[4..8].copy_from_slice(&side.to_be_bytes());
    rle[8..12].copy_from_slice(&side.to_be_bytes());
    for _ in 0..pixels.div_ceil(255) {
        rle.extend_from_slice(&[255, 1, 2, 3, 255]);
    }
    rle
}

/// A miss packet whose count says it names nothing.
fn empty_miss(media_ssrc: u32) -> Vec<u8> {
    let miss = Miss {
        ssrc: 1,
        media_ssrc,
        name: 3,
    };
    let mut bytes = encode_compound(&[miss.to_rtcp()]);
    bytes[16..18].copy_from_slice(&0u16.to_be_bytes());
    bytes
}

/// A WindowManagerInfo, then a RegionUpdate for its window whose fragments
/// never end: the first, then the middle ones over and over, renumbered,
/// until `len` payload bytes have gone out.
struct Train {
    packetizer: RemotingPacketizer,
    head: Vec<RtpPacket>,
    middle: Vec<RtpPacket>,
    len: usize,
}

impl Train {
    fn new(wmi: RemotingMessage, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(9);
        let sender = RtpSender::new(0xAAAA, 99, &mut rng);
        let mut packetizer = RemotingPacketizer::new(sender, 1200);
        let mut head = packetizer.packetize(&wmi, 0).unwrap();
        let mut tile = packetizer
            .packetize(&Self::tile(vec![7; 64 << 10]), 0)
            .unwrap();
        tile.pop(); // the marker
        let middle = tile.split_off(1);
        head.extend(tile);
        Train {
            packetizer,
            head,
            middle,
            len,
        }
    }

    fn tile(payload: Vec<u8>) -> RemotingMessage {
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type: default_pt::RLE,
            left: 0,
            top: 0,
            payload: Bytes::from(payload),
        })
    }

    /// The head, then middle packets numbered on until `len` bytes.
    fn datagrams(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        let first = self.head.last().unwrap().header.sequence;
        let mut sent = 0;
        let middles = self.middle.iter().cycle().take_while(move |p| {
            sent += p.payload.len();
            sent <= self.len
        });
        let head = self.head.iter().map(RtpPacket::encode);
        head.chain(middles.enumerate().map(move |(i, p)| {
            let mut p = p.clone();
            p.header.sequence = first.wrapping_add(1 + i as u16);
            p.encode()
        }))
    }

    /// A one-packet update numbered right after the train.
    fn after(&mut self) -> Vec<Vec<u8>> {
        let n = self.datagrams().count() - self.head.len();
        let next = self
            .head
            .last()
            .unwrap()
            .header
            .sequence
            .wrapping_add(1 + n as u16);
        let pixels = Image::filled(8, 8, [1, 2, 3, 255]).unwrap();
        let tile = Self::tile(AnyCodec::new(CodecKind::Rle).encode(&pixels));
        let mut pkts = self.packetizer.packetize(&tile, 0).unwrap();
        for (i, p) in pkts.iter_mut().enumerate() {
            p.header.sequence = next.wrapping_add(i as u16);
        }
        pkts.iter().map(RtpPacket::encode).collect()
    }
}

/// A relay fed one upstream RTP stream, message by message.
struct Upstream {
    relay: RelayNode,
    packetizer: RemotingPacketizer,
    now_us: u64,
}

impl Upstream {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(5);
        let sender = RtpSender::new(0xAAAA, 99, &mut rng);
        Upstream {
            relay: RelayNode::new(RelayConfig::default(), 0),
            packetizer: RemotingPacketizer::new(sender, 1200),
            now_us: 0,
        }
    }

    /// Ingest `msg`; the bytes that arrived for it.
    fn feed(&mut self, msg: &RemotingMessage) -> u64 {
        self.now_us += 1_000;
        let mut arrived = 0;
        for pkt in self.packetizer.packetize(msg, 0).unwrap() {
            let datagram = pkt.encode();
            arrived += datagram.len() as u64;
            self.relay.ingest_upstream(&datagram, self.now_us);
        }
        arrived
    }
}
