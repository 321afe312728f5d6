//! One clock per leg (DESIGN §5.1, RFC 3550 §6.4.1): receivers echo the
//! last sender report in every receiver report (LSR, DLSR), every leg —
//! the AH's and a relay's alike — turns that echo into a measured round
//! trip (`rtt_us`), and it repairs only the tail a report could have seen.
//!
//! * Conformance: an RR before any SR carries LSR = DLSR = 0; one sent Δ
//!   after an SR arrived carries that SR's middle 32 bits and a DLSR within
//!   one 1/65 536 s unit of Δ — from a participant and from a relay's
//!   upstream side alike. On 10, 40 and 200 ms links each leg's `rtt_us`,
//!   AH or relay, is within one 16 ms step of the configured round trip.
//! * What the tail rule must not do: resend on a lossless typing session,
//!   or schedule a full refresh because a report was written while a
//!   200-packet train was still in flight.
//! * What it must still do: repair a packet lost at the end of a burst,
//!   with nothing behind it to reveal the gap, from the next report — at
//!   the AH and behind a relay.
//! * A relay stays a translator (RFC 3550 §7) on legs it re-sequences: it
//!   forwards the AH's sender reports byte for byte, and those legs still
//!   measure their round trip.

use adshare::capture::{parse_capture, Direction, StreamKind};
use adshare::netsim::time::us_to_ticks;
use adshare::obs::{ACTOR_LEG_BASE, ACTOR_RELAY};
use adshare::prelude::*;
use adshare::rtp::rtcp::{
    compact_ntp, decode_compound, encode_compound, ReportBlock, RtcpPacket, SenderReport,
    DLSR_UNITS_PER_S,
};
use adshare::rtp::{RtpHeader, RtpPacket, CLOCK_RATE};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulation step of the session tests (one capture tick at ≈ 60 Hz).
const STEP_US: u64 = 16_000;

fn sender_report(ntp: u64) -> Vec<u8> {
    encode_compound(&[RtcpPacket::SenderReport(SenderReport {
        ssrc: 0x4148_0001,
        ntp,
        rtp_ts: 0,
        packet_count: 1,
        octet_count: 1,
        reports: vec![],
    })])
}

fn media(seq: u16) -> Vec<u8> {
    RtpPacket::new(RtpHeader::new(96, seq, 0, 0x4148_0001), vec![0u8; 8]).encode()
}

/// The report block of the RR in an RTCP compound, if it has one.
fn report_block(compound: &[u8]) -> Option<ReportBlock> {
    decode_compound(compound)
        .expect("well-formed feedback")
        .into_iter()
        .find_map(|p| match p {
            RtcpPacket::ReceiverReport(rr) => rr.reports.into_iter().next(),
            _ => None,
        })
}

/// `Δ` ticks of 90 kHz in DLSR units, exactly (as a fraction's floor).
fn dlsr_of(delta_ticks: u64) -> u64 {
    delta_ticks * DLSR_UNITS_PER_S / u64::from(CLOCK_RATE)
}

const NTP: u64 = 0x0000_0012_3456_789a;

#[test]
fn participant_reports_echo_the_last_sender_report() {
    let mut p = Participant::new(7, Layout::Original, true, 1);
    p.handle_datagram(&media(1), 10);
    // The first RR is due 2 s in; no SR has arrived yet.
    p.tick(180_000);
    let before = report_block(&p.take_rtcp().expect("feedback")).expect("an RR");
    assert_eq!((before.last_sr, before.delay_since_last_sr), (0, 0));

    let arrived = 200_000;
    p.handle_datagram(&sender_report(NTP), arrived);
    let delta = 183_457;
    p.tick(arrived + delta);
    let rr = report_block(&p.take_rtcp().expect("feedback")).expect("an RR");
    assert_eq!(rr.last_sr, 0x0012_3456);
    assert_eq!(rr.last_sr, compact_ntp(NTP));
    let want = dlsr_of(delta);
    assert!(
        u64::from(rr.delay_since_last_sr).abs_diff(want) <= 1,
        "DLSR {} for Δ = {delta} ticks (want {want})",
        rr.delay_since_last_sr
    );
}

#[test]
fn relay_upstream_reports_echo_the_last_sender_report() {
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    relay.ingest_upstream(&media(1), 1_000);
    relay.step(2_000_000);
    let before = report_block(&relay.take_upstream_rtcp().expect("feedback")).expect("an RR");
    assert_eq!((before.last_sr, before.delay_since_last_sr), (0, 0));

    let arrived_us = 2_500_000;
    relay.ingest_upstream(&sender_report(NTP), arrived_us);
    let delta_us = 2_037_000;
    relay.step(arrived_us + delta_us);
    let rr = report_block(&relay.take_upstream_rtcp().expect("feedback")).expect("an RR");
    assert_eq!(rr.last_sr, compact_ntp(NTP));
    let delta_ticks = us_to_ticks(arrived_us + delta_us) - us_to_ticks(arrived_us);
    let want = dlsr_of(delta_ticks);
    assert!(
        u64::from(rr.delay_since_last_sr).abs_diff(want) <= 1,
        "DLSR {} for Δ = {delta_ticks} ticks (want {want})",
        rr.delay_since_last_sr
    );
}

fn rtt_gauge(s: &SimSession, leg: &str) -> Option<i64> {
    s.obs().registry.snapshot().gauge(&format!("{leg}.rtt_us"))
}

/// Each direction's arrival is seen at the first step at or after it, so
/// a measured round trip is never short and is late by less than two
/// steps; on these links the two roundings add up to at most one step
/// (10 ms: 6 + 6, 40 and 200 ms: 8 + 8). The report's DLSR unit rounds
/// down once more, by under 16 µs. The bound holds one hop down as well: a
/// relay leg times the AH's SRs when it forwards them, so its viewers'
/// LSR/DLSR measure the leg, not the tree. A TCP relay leg measures its
/// round trip too (its frames are tiny next to the link rate) and never
/// repairs a tail.
#[test]
fn rtt_is_measured_within_one_step_on_10_40_and_200_ms_links() {
    for one_way_ms in [10u64, 40, 200] {
        let configured = 2 * one_way_ms * 1_000;
        let check = |leg: &str, rtt: Option<i64>| {
            let rtt = rtt.expect("the gauge is registered") as u64;
            assert!(
                rtt >= configured && rtt <= configured + STEP_US + 16,
                "{leg} on a {one_way_ms} ms link: rtt_us = {rtt}, configured {configured}"
            );
        };
        let (d, mut typing) = typing_desktop();
        let mut s = SimSession::new(d, AhConfig::default(), 5);
        let link = LinkConfig {
            delay_us: one_way_ms * 1_000,
            ..Default::default()
        };
        s.add_udp_participant(Layout::Original, link, link, None, 6);
        let group = s.create_multicast_session(None);
        s.add_multicast_participant_in(group, Layout::Original, link, link, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..400 {
            typing.tick(s.ah.desktop_mut(), &mut rng);
            s.step(STEP_US);
        }
        for leg in ["ah.participant.0", "ah.mcast.0"] {
            check(leg, rtt_gauge(&s, leg));
        }

        let (mut sim, mut typing) = relay_scene(None, link, 40 + one_way_ms);
        let tcp = TcpConfig {
            rate_bps: 50_000_000,
            delay_us: one_way_ms * 1_000,
            send_buf: 1 << 20,
        };
        sim.add_participant_tcp(0, Layout::Original, tcp, link, 41, None);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..400 {
            typing.tick(sim.ah.desktop_mut(), &mut rng);
            sim.step(STEP_US);
        }
        for leg in [0, 1] {
            check(&format!("relay leg {leg}"), relay_rtt(&sim, leg));
        }
        assert_eq!(sim.relay(0).stats().tail_repairs, 0);
    }
}

fn typing_desktop() -> (Desktop, Typing) {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 400, 300), [250, 250, 250, 255]);
    (d, Typing::new(w, 3))
}

#[test]
fn lossless_typing_to_eight_viewers_resends_nothing() {
    let (d, mut typing) = typing_desktop();
    let cfg = AhConfig {
        codec: CodecKind::Rle,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 11);
    let link = LinkConfig::default();
    let viewers: Vec<usize> = (0..8)
        .map(|i| s.add_udp_participant(Layout::Original, link, link, None, 12 + i))
        .collect();
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..260 {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        s.step(STEP_US);
    }
    let stats = s.ah.stats();
    assert!(stats.rtp_packets > 2_000, "the session carried traffic");
    assert!(stats.sr_sent >= 8 * 3, "every leg reported");
    assert_eq!((stats.tail_repairs, stats.retransmits), (0, 0));
    assert!(s
        .run_until(STEP_US, 2_000_000, |s| viewers
            .iter()
            .all(|&v| s.converged(v)))
        .is_some());
}

/// Integer-only incompressible frame: one LCG draw per channel.
fn noise_frame(w: u32, h: u32, seed: u32) -> Image {
    let mut img = Image::new(w, h).expect("non-empty");
    let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
    for y in 0..h {
        for x in 0..w {
            let mut px = [255u8; 4];
            for c in &mut px[..3] {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *c = (state >> 24) as u8;
            }
            img.set_pixel(x, y, px);
        }
    }
    img
}

/// A report written while a train of ≈ 215 packets is in flight must not
/// read it as a deficit past `TAIL_REPAIR_MAX` (64) and refresh.
#[test]
fn reports_written_inside_a_train_schedule_no_refresh() {
    let mut d = Desktop::new(400, 300);
    let w = d.create_window(1, Rect::new(0, 0, 320, 200), [0, 0, 0, 255]);
    let cfg = AhConfig {
        codec: CodecKind::Rle,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 21);
    let link = LinkConfig::default();
    let v = s.add_udp_participant(Layout::Original, link, link, None, 22);
    for tick in 0..320u32 {
        if tick % 4 == 0 {
            s.ah.desktop_mut()
                .draw(w, 0, 0, &noise_frame(320, 200, tick));
        }
        s.step(STEP_US);
    }
    let stats = s.ah.stats();
    assert!(
        stats.rtp_packets > 80 * 200,
        "trains of ≈ 200 packets every fourth step"
    );
    assert!(s.participant(v).stats().regions_applied > 0);
    assert_eq!(
        (stats.full_refreshes, stats.tail_repairs, stats.retransmits),
        (1, 0, 0),
        "only the join refresh"
    );
    assert!(s
        .run_until(STEP_US, 2_000_000, |s| s.converged(v))
        .is_some());
}

/// The burst sent in the step after the last paint is lost whole; nothing
/// follows it, so no NACK can fire. The next receiver report shows the
/// deficit and the AH resends it from history: one tail repair, no PLI.
#[test]
fn a_lost_last_burst_is_repaired_by_the_next_report() {
    let (d, mut typing) = typing_desktop();
    let mut s = SimSession::new(d, AhConfig::default(), 31);
    let link = LinkConfig::default();
    let v = s.add_udp_participant(Layout::Original, link, link, None, 32);
    let mut rng = StdRng::seed_from_u64(33);
    for tick in 0..100 {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        if tick == 99 {
            // Lose everything offered during the next step, and only that.
            let at = s.clock.now_us() + STEP_US;
            let lost = LinkConfig { loss: 1.0, ..link };
            s.set_link_schedule(
                v,
                vec![
                    LinkStep {
                        at_us: at,
                        cfg: lost,
                    },
                    LinkStep {
                        at_us: at + 1,
                        cfg: link,
                    },
                ],
            );
        }
        s.step(STEP_US);
    }
    let dropped = s
        .obs()
        .registry
        .counter_value("ah.participant.0.udp.dropped_datagrams")
        .unwrap_or(0);
    assert!(dropped > 0, "the last burst was lost");
    assert_eq!(s.ah.stats().tail_repairs, 0, "no report has seen it yet");
    // Receiver reports are 2 s apart: the next one is at most that far
    // off, and its repair one round trip (40 ms) and a step behind it.
    assert!(
        s.run_until(STEP_US, 2_100_000, |s| s.converged(v))
            .is_some(),
        "the next report repairs the tail"
    );
    let stats = s.ah.stats();
    assert_eq!(stats.tail_repairs, 1);
    assert!(stats.retransmits > 0);
    let viewer = s.participant(v).stats();
    assert_eq!(
        (viewer.plis_sent, viewer.nacks_sent),
        (1, 0),
        "the join PLI only"
    );
}

/// A relay tree with one relay and one viewer whose leg and uplink are
/// `link`.
fn relay_scene(layers: Option<LayersConfig>, link: LinkConfig, seed: u64) -> (RelaySim, Typing) {
    let (d, typing) = typing_desktop();
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), seed);
    let clean = LinkConfig::default();
    let cfg = RelayConfig {
        layers,
        ..RelayConfig::default()
    };
    let relay = sim.add_relay(Upstream::Ah, cfg, clean, clean, seed + 1);
    sim.add_participant(relay, Layout::Original, link, link, seed + 2);
    (sim, typing)
}

fn relay_rtt(sim: &RelaySim, leg: usize) -> Option<i64> {
    let name = format!("relay.0.leg.{leg}.rtt_us");
    sim.obs().registry.snapshot().gauge(&name)
}

/// [`a_lost_last_burst_is_repaired_by_the_next_report`] behind a relay,
/// with and without layers: the relay leg loses everything it forwards
/// after the last paint, nothing follows, and the leg resends the tail
/// from the next receiver report through its NACK verdicts.
#[test]
fn a_lost_last_burst_behind_a_relay_is_repaired_by_the_next_report() {
    for layers in [None, Some(LayersConfig::default())] {
        let tiered = layers.is_some();
        let link = LinkConfig::default();
        let (mut sim, mut typing) = relay_scene(layers, link, 50);
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..100 {
            typing.tick(sim.ah.desktop_mut(), &mut rng);
            sim.step(STEP_US);
        }
        // The last paint's burst reaches the relay one link delay later:
        // the leg loses everything it sends for the next 100 ms.
        let at = sim.clock.now_us();
        let lost = LinkConfig { loss: 1.0, ..link };
        let schedule = vec![
            LinkStep {
                at_us: at,
                cfg: lost,
            },
            LinkStep {
                at_us: at + 100_000,
                cfg: link,
            },
        ];
        (sim.relay_mut(0).leg_link_mut(0))
            .expect("a UDP leg")
            .set_schedule(schedule);
        for _ in 0..7 {
            sim.step(STEP_US);
        }
        let dropped = sim.relay(0).leg_link(0).expect("a UDP leg").stats();
        assert!(
            dropped.dropped > 0,
            "layers {tiered}: the last burst was lost"
        );
        assert!(!sim.converged(0), "layers {tiered}: the viewer is behind");
        assert!(
            sim.run_until(STEP_US, 2_100_000 / STEP_US as usize, |s| s.converged(0)),
            "layers {tiered}: the next report repairs the tail"
        );
        let stats = sim.relay(0).stats();
        assert_eq!(stats.tail_repairs, 1, "layers {tiered}");
        assert_eq!(
            stats.upstream_nacks(),
            0,
            "layers {tiered}: served from the cache"
        );
        let viewer = sim.participant(0).stats();
        assert_eq!(
            (viewer.plis_sent, viewer.nacks_sent),
            (1, 0),
            "layers {tiered}: the join PLI only"
        );
    }
}

/// The relay is an RFC 3550 §7 translator, also on legs it re-sequences:
/// a late joiner's leg numbers from its catch-up burst, and a capped leg
/// on a layered relay re-encodes onto a lossy tier. Both still forward
/// every AH sender report byte for byte (DESIGN §5.1), and both still
/// measure their round trip from the reports' echo of it.
#[test]
fn resequenced_relay_legs_forward_sender_reports_verbatim_and_measure_rtt() {
    let link = LinkConfig {
        delay_us: 40_000,
        ..Default::default()
    };
    let (mut sim, mut typing) = relay_scene(Some(LayersConfig::default()), link, 60);
    let capped = sim.add_participant_rate(0, Layout::Original, link, link, 61, Some(300_000));
    let cap = CaptureHandle::arm(CaptureConfig {
        consent: true,
        mode: CaptureMode::Full,
        session_id: 60,
        start_us: 0,
    })
    .expect("consented");
    sim.relay_mut(0).attach_capture(cap.clone());
    let mut rng = StdRng::seed_from_u64(62);
    let mut late = None;
    for tick in 0..400 {
        if tick == 60 {
            late = Some(sim.add_participant(0, Layout::Original, link, link, 63));
        }
        typing.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(STEP_US);
    }
    let (_, capped_leg) = sim.participant_leg(capped);
    let (_, late_leg) = sim.participant_leg(late.expect("joined"));
    assert!(
        sim.tier_stats(0).legs[capped_leg].synth_msgs > 0,
        "re-encoded"
    );
    assert!(sim.relay(0).stats().catchups_served > 0, "caught up");

    let records = parse_capture(&cap.to_bytes()).expect("parses").records;
    let of = |dir: Direction, kind: StreamKind, actor: u16| -> Vec<&[u8]> {
        (records.iter())
            .filter(|r| r.dir == dir && r.kind == kind && r.actor == actor)
            .map(|r| &r.payload[..])
            .collect()
    };
    let upstream_rtcp = of(Direction::Rx, StreamKind::Rtcp, ACTOR_RELAY);
    let upstream_rtp = of(Direction::Rx, StreamKind::Rtp, ACTOR_RELAY);
    // The late leg forwards upstream packets under numbers of its own.
    let late_rtp = of(
        Direction::Tx,
        StreamKind::Rtp,
        ACTOR_LEG_BASE | late_leg as u16,
    );
    assert!(late_rtp.iter().any(|tx| upstream_rtp
        .iter()
        .any(|rx| rx[12..] == tx[12..] && rx[2..4] != tx[2..4])));
    for leg in [capped_leg, late_leg] {
        let sent = of(Direction::Tx, StreamKind::Rtcp, ACTOR_LEG_BASE | leg as u16);
        assert!(
            sent.len() >= 3,
            "leg {leg} forwarded {} reports",
            sent.len()
        );
        assert!(
            sent.iter().all(|tx| upstream_rtcp.contains(tx)),
            "leg {leg}: every report is an upstream compound, byte for byte"
        );
        let rtt = relay_rtt(&sim, leg).expect("measured") as u64;
        assert!(
            (80_000..=80_000 + STEP_US + 16).contains(&rtt),
            "leg {leg}: rtt_us = {rtt} on a 40 ms link"
        );
    }
}
