//! Loss on the relay *hops* (AH → R1 → R2), lossless viewer legs: a relay is
//! one more remoting receiver upstream (DESIGN §5.2), so a repair lost on a
//! hop is asked for again a quarter of a second later instead of stalling
//! every viewer below until the gap timeout falls back to a PLI.
//!
//! Fixed seeds, not a proptest: the in-tree shim does not shrink, so a
//! failing schedule is named by its seed in the message.

use adshare::netsim::time::us_to_ticks;
use adshare::prelude::*;
use adshare::remoting::message::{RegionUpdate, WindowManagerInfo, WindowRecord};
use adshare::remoting::packetizer::RemotingPacketizer;
use adshare::rtp::rtcp::{decode_compound, RtcpPacket};
use adshare::rtp::session::RtpSender;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TICK_US: u64 = 16_000;

/// Painted ticks, then ticks left to drain: half the 400 + 400 the
/// numbers in ROADMAP item 2 were taken at, to keep a debug build under
/// ten seconds. (At 400 painted ticks seed 7 meets a burst longer than the
/// 256-packet reorder buffer behind a hole; that case has a test of its
/// own below.)
const PAINT_TICKS: u32 = 200;
const DRAIN_TICKS: u32 = 100;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=12;

struct Outcome {
    /// Viewers not pixel-identical with the AH after the drain.
    diverged: usize,
    /// Upstream PLIs beyond the join, summed over both relays.
    refresh_plis: u64,
    /// Upstream NACKs the two relays sent for their own holes.
    hop_nacks: u64,
    /// The worst viewer's capture→display p95, ms.
    worst_p95_ms: u64,
}

/// Typing plus six scrolled lines every tenth tick for `paint` ticks, RLE,
/// through two relay hops that each lose 2 % both ways; 3 viewers on R1,
/// 5 on R2.
fn run(seed: u64, paint: u32) -> Outcome {
    let hop = LinkConfig {
        loss: 0.02,
        delay_us: 10_000,
        ..LinkConfig::default()
    };
    let leg = LinkConfig {
        delay_us: 10_000,
        ..LinkConfig::default()
    };
    let mut desktop = Desktop::new(1024, 768);
    let window = desktop.create_window(1, Rect::new(48, 48, 480, 360), [250, 250, 250, 255]);
    let cfg = AhConfig {
        codec: CodecKind::Rle,
        ..AhConfig::default()
    };
    let mut sim = RelaySim::new(desktop, cfg, &OfferParams::default(), seed);
    let r1 = sim.add_relay(Upstream::Ah, RelayConfig::default(), hop, hop, seed ^ 0x11);
    let r2 = sim.add_relay(
        Upstream::Relay(r1),
        RelayConfig::default(),
        hop,
        hop,
        seed ^ 0x22,
    );
    let viewers: Vec<usize> = (0..8u64)
        .map(|i| {
            let relay = if i < 3 { r1 } else { r2 };
            sim.add_participant(relay, Layout::Original, leg, leg, seed ^ (0x100 + i))
        })
        .collect();

    let mut typing = Typing::new(window, 3);
    let mut scrolling = Scrolling::new(window, 6);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for tick in 1..=paint {
        typing.tick(sim.ah.desktop_mut(), &mut rng);
        if tick % 10 == 0 {
            scrolling.tick(sim.ah.desktop_mut(), &mut rng);
        }
        sim.step(TICK_US);
    }
    for _ in 0..DRAIN_TICKS {
        sim.step(TICK_US);
    }

    let relays = [sim.relay(r1).stats(), sim.relay(r2).stats()];
    Outcome {
        diverged: viewers.iter().filter(|&&v| !sim.converged(v)).count(),
        // One join PLI per relay; anything more is a gap-timeout refresh.
        refresh_plis: relays.iter().map(|s| s.plis_upstream - 1).sum(),
        hop_nacks: relays.iter().map(|s| s.upstream_gap_nacks).sum(),
        worst_p95_ms: viewers
            .iter()
            .filter_map(|&v| sim.participant(v).latency_summary_us())
            .map(|(_, p95, _)| p95 / 1_000)
            .max()
            .expect("viewers measured latency"),
    }
}

#[test]
fn hop_loss_is_repaired_by_nack_alone_and_on_time() {
    // Two seeds at a time: the scene is the slowest of tier-1 in a debug
    // build.
    let next = std::sync::atomic::AtomicU64::new(*SEEDS.start());
    let worker = || {
        let mut done = Vec::new();
        loop {
            let seed = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if !SEEDS.contains(&seed) {
                return done;
            }
            done.push((seed, run(seed, PAINT_TICKS)));
        }
    };
    let outcomes = std::thread::scope(|s| {
        let other = s.spawn(worker);
        let mut mine = worker();
        mine.extend(other.join().expect("worker panicked"));
        mine
    });
    assert_eq!(outcomes.len(), SEEDS.count());
    let mut nacks = 0;
    for (seed, out) in outcomes {
        assert_eq!(
            out.diverged, 0,
            "seed {seed}: viewers not pixel-identical after the drain"
        );
        assert_eq!(
            out.refresh_plis, 0,
            "seed {seed}: a relay gave up on a hole and asked upstream for a refresh"
        );
        assert!(
            out.worst_p95_ms <= 400,
            "seed {seed}: worst viewer's delivery p95 is {} ms",
            out.worst_p95_ms
        );
        nacks += out.hop_nacks;
    }
    assert!(nacks > 0, "the hops lost nothing: the test tests nothing");
}

/// Seed 7 at 400 painted ticks, the schedule ROADMAP item 2(b) recorded
/// as a reorder-buffer overflow behind a hole on a hop (R2's viewers two
/// updates short). Every viewer converges. The schedule does not overflow
/// any more; `tests/reorder_overflow.rs` drives the overflow itself.
#[test]
fn hop_loss_seed_7_at_400_ticks_converges() {
    let out = run(7, 400);
    assert_eq!(
        out.diverged, 0,
        "viewers not pixel-identical after the drain"
    );
}

// ---------------------------------------------------------------------------
// One lost repair, both owners of the receive half
// ---------------------------------------------------------------------------

/// What the schedule below needs of a receiver.
trait Receiver {
    fn feed(&mut self, datagram: &[u8], now_us: u64);
    /// One 16 ms step of housekeeping; the RTCP it wants sent upstream.
    fn step(&mut self, now_us: u64) -> Option<Vec<u8>>;
    /// Region updates delivered in order so far.
    fn delivered(&self) -> u64;
}

impl Receiver for Participant {
    fn feed(&mut self, datagram: &[u8], now_us: u64) {
        self.handle_datagram(datagram, us_to_ticks(now_us));
    }
    fn step(&mut self, now_us: u64) -> Option<Vec<u8>> {
        self.watch_gap(us_to_ticks(now_us));
        self.tick(us_to_ticks(now_us));
        self.take_rtcp()
    }
    fn delivered(&self) -> u64 {
        self.stats().regions_applied
    }
}

impl Receiver for RelayNode {
    fn feed(&mut self, datagram: &[u8], now_us: u64) {
        self.ingest_upstream(datagram, now_us);
    }
    fn step(&mut self, now_us: u64) -> Option<Vec<u8>> {
        RelayNode::step(self, now_us);
        self.take_upstream_rtcp()
    }
    fn delivered(&self) -> u64 {
        // One raw leg: everything but the WMI.
        self.stats().forwarded_msgs.saturating_sub(1)
    }
}

/// A WMI and `n` one-packet region updates, as datagrams in sequence order.
fn stream(n: u8) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(3);
    let mut upstream = RemotingPacketizer::new(RtpSender::new(0xAAAA, 99, &mut rng), 1200);
    let rle = adshare::codec::codec::AnyCodec::new(CodecKind::Rle);
    let mut msgs = vec![RemotingMessage::WindowManagerInfo(WindowManagerInfo {
        windows: vec![WindowRecord {
            window_id: WireWindowId(1),
            group_id: 0,
            left: 0,
            top: 0,
            width: 64,
            height: 64,
        }],
    })];
    msgs.extend((0..n).map(|i| {
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type: adshare::codec::codec::default_pt::RLE,
            left: u32::from(i % 8) * 8,
            top: u32::from(i / 8) * 8,
            payload: rle
                .encode(&Image::filled(8, 8, [i, 0, 0, 255]).unwrap())
                .into(),
        })
    }));
    msgs.iter()
        .flat_map(|m| upstream.packetize(m, 0).unwrap())
        .map(|pkt| pkt.encode())
        .collect()
}

/// Lose one packet and the first retransmission of it: the receiver asks
/// again a quarter of a second after it first asked, the hole closes, and
/// the receiver neither skips it nor asks for a refresh.
fn lost_repair_is_asked_for_again(name: &str, mut rx: impl Receiver) {
    let datagrams = stream(40);
    let lost = 5;
    let mut nacks_at: Vec<u64> = Vec::new();
    let mut plis = 0;
    let mut now_us = 0;
    for step in 0..60 {
        now_us += TICK_US;
        if let Some(datagram) = datagrams.get(step).filter(|_| step != lost) {
            rx.feed(datagram, now_us);
        }
        // The second request is answered; the first one's answer was lost.
        if nacks_at.len() == 2 && rx.delivered() < 40 {
            rx.feed(&datagrams[lost], now_us);
        }
        for pkt in rx
            .step(now_us)
            .map_or(Vec::new(), |b| decode_compound(&b).unwrap())
        {
            match pkt {
                RtcpPacket::Nack(nack) => {
                    assert_eq!(nack.lost_seqs().len(), 1, "{name}: one hole");
                    nacks_at.push(now_us);
                }
                RtcpPacket::Pli(_) => plis += 1,
                _ => {}
            }
        }
    }
    assert_eq!(nacks_at.len(), 2, "{name}: asked, then asked again once");
    assert!(
        nacks_at[1] - nacks_at[0] >= 250_000,
        "{name}: second NACK {} µs after the first",
        nacks_at[1] - nacks_at[0]
    );
    assert_eq!(
        rx.delivered(),
        40,
        "{name}: the hole closed, nothing skipped"
    );
    assert_eq!(plis, 0, "{name}: no refresh was needed");
}

#[test]
fn a_lost_repair_is_asked_for_again_by_viewer_and_relay_alike() {
    lost_repair_is_asked_for_again("viewer", Participant::new(1, Layout::Original, true, 1));
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    relay.add_leg_raw(None);
    lost_repair_is_asked_for_again("relay", relay);
}
