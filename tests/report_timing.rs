//! One clock per leg (DESIGN §5.1, RFC 3550 §6.4.1): receivers echo the
//! last sender report in every receiver report (LSR, DLSR), the AH turns
//! that echo into a measured round trip (`rtt_us`), and it repairs only
//! the tail a report could have seen.
//!
//! * Conformance: an RR before any SR carries LSR = DLSR = 0; one sent Δ
//!   after an SR arrived carries that SR's middle 32 bits and a DLSR within
//!   one 1/65 536 s unit of Δ — from a participant and from a relay's
//!   upstream side alike. On 10, 40 and 200 ms links each leg's `rtt_us`
//!   is within one 16 ms step of the configured round trip.
//! * What the tail rule must not do: resend on a lossless typing session,
//!   or schedule a full refresh because a report was written while a
//!   200-packet train was still in flight.
//! * What it must still do: repair a packet lost at the end of a burst,
//!   with nothing behind it to reveal the gap, from the next report.

use adshare::netsim::time::us_to_ticks;
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
/// down once more, by under 16 µs.
#[test]
fn rtt_is_measured_within_one_step_on_10_40_and_200_ms_links() {
    for one_way_ms in [10u64, 40, 200] {
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
        let configured = 2 * one_way_ms * 1_000;
        for leg in ["ah.participant.0", "ah.mcast.0"] {
            let rtt = rtt_gauge(&s, leg).expect("the gauge is registered") as u64;
            assert!(
                rtt >= configured && rtt <= configured + STEP_US + 16,
                "{leg} on a {one_way_ms} ms link: rtt_us = {rtt}, configured {configured}"
            );
        }
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
