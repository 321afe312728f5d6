//! Tile references end to end (DESIGN §5.2 "Tile references"): a direct
//! unicast viewer reports the tiles it holds, and its AH leg sends a
//! repeated tile the viewer holds as a reference instead of its pixels.
//!
//! Pinned here: the ping-pong converges pixel-identical with references
//! sent, under 1 % loss over 20 seeds and with no miss when lossless; a
//! multicast member and a viewer behind a relay are never sent one; a PLI
//! and a report from another viewer SSRC empty the AH's ledger; and a
//! capture of a session that used references replays bit-exact.

use adshare::prelude::*;
use adshare::remoting::reference::{Held, NameReport};
use adshare::rtp::rtcp::{encode_compound, PictureLossIndication, RtcpPacket};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TICK_US: u64 = 16_000;

/// A 320×240 window whose 192×128 region alternates between two photos
/// (E16's ping-pong), and the painter.
fn ping_pong_desktop() -> (Desktop, PingPong) {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(20, 20, 320, 240), [240, 240, 240, 255]);
    (d, PingPong::new(w, Rect::new(32, 32, 192, 128)))
}

/// Paint `ticks` ping-pong frames into `s`, one per step.
fn paint(s: &mut SimSession, wl: &mut PingPong, ticks: u32) {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..ticks {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(TICK_US);
    }
}

fn lossy(loss: f64) -> LinkConfig {
    LinkConfig {
        loss,
        ..LinkConfig::default()
    }
}

#[test]
fn ping_pong_sent_by_name_converges_under_loss_and_misses_nothing_lossless() {
    for seed in 0..20u64 {
        let (d, mut wl) = ping_pong_desktop();
        let mut s = SimSession::new(d, AhConfig::default(), seed);
        let p = s.add_udp_participant(Layout::Original, lossy(0.01), lossy(0.01), None, seed);
        paint(&mut s, &mut wl, 60);
        let settled = s.run_until(TICK_US, 10_000_000, |s| s.converged(p));
        assert!(settled.is_some(), "seed {seed}: not pixel-identical");
        let (ah, viewer) = (s.ah.stats(), s.participant(p).stats());
        assert!(ah.refs_sent > 0, "seed {seed}: no reference sent");
        assert!(viewer.refs_resolved > 0, "seed {seed}");
        assert_eq!(
            ah.ref_misses, viewer.refs_missed,
            "seed {seed}: counted on both sides"
        );
    }
    // Lossless, over UDP and TCP: every reference resolves.
    let (d, mut wl) = ping_pong_desktop();
    let mut s = SimSession::new(d, AhConfig::default(), 7);
    let udp = s.add_udp_participant(
        Layout::Original,
        LinkConfig::default(),
        LinkConfig::default(),
        None,
        8,
    );
    let tcp = s.add_tcp_participant(
        Layout::Original,
        TcpConfig::default(),
        LinkConfig::default(),
        9,
    );
    paint(&mut s, &mut wl, 60);
    s.run_until(TICK_US, 10_000_000, |s| {
        s.converged(udp) && s.converged(tcp)
    })
    .expect("converges");
    for p in [udp, tcp] {
        let stats = s.participant(p).stats();
        assert!(stats.refs_resolved > 40, "{stats:?}");
        assert_eq!(stats.refs_missed, 0);
    }
    assert_eq!(s.ah.stats().ref_misses, 0);
}

#[test]
fn multicast_members_and_viewers_behind_a_relay_are_never_sent_a_reference() {
    let (d, mut wl) = ping_pong_desktop();
    let mut s = SimSession::new(d, AhConfig::default(), 3);
    let link = LinkConfig::default();
    let member = s.add_multicast_participant(Layout::Original, link, link, 4);
    let unicast = s.add_udp_participant(Layout::Original, link, link, None, 5);
    paint(&mut s, &mut wl, 60);
    s.run_until(TICK_US, 10_000_000, |s| {
        s.converged(member) && s.converged(unicast)
    })
    .expect("converges");
    let (m, u) = (
        s.participant(member).stats(),
        s.participant(unicast).stats(),
    );
    assert!(m.name_reports > 0, "the member reports like any viewer");
    assert_eq!((m.refs_resolved, m.refs_missed), (0, 0));
    assert!(
        u.refs_resolved > 0,
        "the unicast leg beside it does use them"
    );

    let (d, mut wl) = ping_pong_desktop();
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), 11);
    let relay = sim.add_relay(Upstream::Ah, RelayConfig::default(), link, link, 12);
    let viewer = sim.add_participant(relay, Layout::Original, link, link, 13);
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..60 {
        wl.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(TICK_US);
    }
    assert!(sim.run_until(TICK_US, 600, |s| s.converged(viewer)));
    let v = sim.participant(viewer).stats();
    assert!(v.name_reports > 0, "its reports stop at the relay");
    assert_eq!((v.refs_resolved, v.refs_missed), (0, 0));
    assert_eq!(sim.ah.stats().refs_sent, 0, "a relay never reports");
    assert_eq!(sim.relay(relay).stats().tiles_refused, 0);
}

/// An AH with one TCP viewer, stepped by hand so a test can put its own
/// RTCP in between.
struct Direct {
    ah: AppHost,
    viewer: Participant,
    handle: adshare::session::ParticipantHandle,
    wl: PingPong,
    rng: StdRng,
    now_us: u64,
    /// The leg's SSRC, read off the first RTP packet of the stream.
    ssrc: Option<u32>,
}

impl Direct {
    fn new() -> Self {
        let (d, wl) = ping_pong_desktop();
        let mut ah = AppHost::new(d, AhConfig::default(), 21);
        let handle = ah.attach_tcp(1, TcpConfig::default());
        Direct {
            ah,
            viewer: Participant::new(1, Layout::Original, false, 22),
            handle,
            wl,
            rng: StdRng::seed_from_u64(1),
            now_us: 0,
            ssrc: None,
        }
    }

    /// One painted step; the references it sent.
    fn step(&mut self) -> u64 {
        let before = self.ah.stats().refs_sent;
        self.now_us += TICK_US;
        self.wl.tick(self.ah.desktop_mut(), &mut self.rng);
        self.ah.step(self.now_us);
        let ticks = adshare::netsim::time::us_to_ticks(self.now_us);
        let bytes = self.ah.poll_tcp(self.handle, self.now_us);
        if self.ssrc.is_none() && bytes.len() >= 14 {
            // After the two-byte RFC 4571 length, eight bytes into the
            // RTP header.
            self.ssrc = Some(u32::from_be_bytes(bytes[10..14].try_into().unwrap()));
        }
        self.viewer.handle_stream(&bytes, ticks);
        self.viewer.tick(ticks);
        if let Some(rtcp) = self.viewer.take_rtcp() {
            self.ah.handle_rtcp(self.handle, &rtcp, self.now_us);
        }
        self.ah.stats().refs_sent - before
    }

    fn steps(&mut self, n: usize) -> u64 {
        (0..n).map(|_| self.step()).sum()
    }

    /// Hand the AH an RTCP packet as if the viewer had sent it.
    fn inject(&mut self, pkt: RtcpPacket) {
        let bytes = encode_compound(&[pkt]);
        self.ah.handle_rtcp(self.handle, &bytes, self.now_us);
    }
}

#[test]
fn a_pli_or_a_report_from_another_ssrc_empties_the_ledger() {
    let mut d = Direct::new();
    d.steps(30);
    assert!(d.steps(10) > 0, "references flow");
    // A PLI: a full refresh, all of it pixels, and nothing by name until
    // the viewer reports again — which it does early, having gained the
    // names the refresh drew.
    let refreshes = d.ah.stats().full_refreshes;
    d.inject(RtcpPacket::Pli(PictureLossIndication {
        sender_ssrc: 1,
        media_ssrc: 2,
    }));
    assert_eq!(d.steps(2), 0, "the ledger was cleared");
    assert_eq!(d.ah.stats().full_refreshes, refreshes + 1);
    assert!(d.steps(30) > 0, "and refilled by the next report");
    // Another viewer SSRC reporting nothing: the ledger starts afresh.
    let media = d.ssrc.expect("the stream flowed");
    d.inject(NameReport::packet(
        0xbad,
        media,
        1,
        0,
        &[Held {
            name: 1,
            place: Held::PARKED,
        }],
    ));
    assert_eq!(d.steps(2), 0, "names of another viewer");
    assert_eq!(d.viewer.stats().refs_missed, 0);
}

#[test]
fn a_capture_of_a_session_sent_by_name_replays_bit_exact() {
    let (d, mut wl) = ping_pong_desktop();
    let mut s = SimSession::new(d, AhConfig::default(), 0x7e1f);
    s.arm_capture(true, CaptureMode::Full, 0x7e1f)
        .expect("consented");
    let p = s.add_tcp_participant(
        Layout::Original,
        TcpConfig::default(),
        LinkConfig::default(),
        0x7e20,
    );
    paint(&mut s, &mut wl, 40);
    s.run_until(TICK_US, 10_000_000, |s| s.converged(p))
        .expect("converges");
    assert!(s.participant(p).stats().refs_resolved > 0);
    s.finalize_capture().expect("capture armed");
    let manifest = s.capture_manifest().expect("capture armed");
    let capture = parse_capture(&s.capture().expect("armed").to_bytes()).expect("parses");
    let report = replay(&capture, Some(&manifest));
    assert!(
        report.bit_exact(),
        "replay diverged: wire 0x{:016x} vs {:?}, surfaces {:?}",
        report.wire_digest,
        report.recorded_wire_digest,
        report.surfaces
    );
}
