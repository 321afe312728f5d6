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
//!
//! This file holds a single test on purpose: it installs a counting
//! `#[global_allocator]`, and nothing else may run in the process while it
//! counts. The counter is per thread (the test's own), and the sessions
//! encode with one worker, so the numbers repeat exactly.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use adshare::codec::codec::{default_pt, AnyCodec};
use adshare::netsim::tcp::TcpLink;
use adshare::prelude::*;
use adshare::remoting::message::{RegionUpdate, WindowManagerInfo, WindowRecord};
use adshare::rtp::rtcp::{PictureLossIndication, RtcpPacket};
use adshare::screen::WindowId;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread (`alloc`, `alloc_zeroed`, and
    /// `realloc` — a grow is a trip to the allocator too).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is being torn down has no counter left.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The counting touches a const-initialised
// thread-local `Cell` without a destructor, so it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
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
    // What decoding one such tile costs on its own.
    let codec = AnyCodec::new(CodecKind::Png);
    let a0 = allocs();
    drop(codec.decode(&ping).unwrap());
    let decode_cost = allocs() - a0;
    assert!(decode_cost >= 2, "inflate buffer and pixels: {decode_cost}");
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
}
