//! Golden wire digests for the egress path: the exact RTP/RTCP bytes, in
//! order, that the AH and every relay leg put on the wire in five seeded
//! scenarios — fixed-rate UDP with loss, adaptive UDP across a bandwidth
//! cliff, TCP on a slow link, multicast sessions plus a late UDP viewer,
//! and a two-hop relay tree with a lossy tier, a TCP leg and a late
//! joiner. The existing digest tests compare two configurations of the
//! *same* build, so they cannot see a reordering of `step`'s folds or a
//! shifted RNG draw; this fixture pins the bytes across commits.
//!
//! Every scenario runs with a full capture armed, and the digests are
//! taken from it as well as from the senders:
//!
//! * `wire=` (the AH) and `legs=` (each relay leg) are the byte-serial
//!   FNV-1a of the captured Tx RTP/RTCP records, the digest the senders
//!   kept before they switched to `word_fold`. These values were generated
//!   on the commit *before* the egress merge (four hand-rolled send loops,
//!   `PState`/`McastState`, relay `Leg::send`) and have never been
//!   regenerated: they are the proof that the one `Wire`/`Leg` path and
//!   every later change to the egress kept the bytes identical.
//! * `fold=` is the senders' live digest (`AppHost::wire_digest`,
//!   `RelayNode::leg_wire_digest`), which the test also requires the
//!   capture to refold to with `wire_digest_of`.
//!
//! Arming the capture moves none of the other columns: the counters and
//! `events=` values, too, were produced by unarmed runs. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test wire_golden` only after an
//! intentional wire change, and justify the diff in the PR.

use adshare::capture::{fnv1a_fold, wire_digest_of, Direction, StreamKind, FNV_OFFSET};
use adshare::obs::{EventKind, Obs, ACTOR_LEG_BASE};
use adshare::prelude::*;
use adshare::screen::pointer::ibeam_cursor;
use adshare::screen::wm::WindowId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Simulation step; the workload ticks every third step (~33 Hz).
const STEP_US: u64 = 10_000;
/// Workload ticks per scenario (3 simulated seconds).
const TICKS: u32 = 100;
/// Quiet steps after the workload stops (6 simulated seconds).
const SETTLE_STEPS: u32 = 600;

/// Integer-only photographic-looking frame (ramps plus noise), so the
/// corpus does not depend on a libm.
fn noise_frame(w: u32, h: u32, seed: u32) -> Image {
    let mut img = Image::new(w, h).unwrap();
    let mut state = seed.wrapping_mul(0x9e37_79b9) | 1;
    for y in 0..h {
        for x in 0..w {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let n = (state >> 24) % 24;
            let px = |v: u32| ((v + n) % 256) as u8;
            img.set_pixel(
                x,
                y,
                [px(x * 2 + seed * 5), px(y * 3), px(x + y + seed), 255],
            );
        }
    }
    img
}

/// The shared workload: typing into one window, line scrolling in a
/// second, a short drag of that second window, pointer motion with one
/// icon change, and (optionally) a video-like region in a third window —
/// so `RegionUpdate`, `MoveRectangle`, `WindowManagerInfo` and
/// `MousePointerInfo` all cross every transport.
struct Office {
    media: Option<WindowId>,
    typing: Typing,
    scroll: Scrolling,
    drag: WindowDrag,
    rng: StdRng,
    tick: u32,
}

impl Office {
    fn new(video: bool, seed: u64) -> (Desktop, Office) {
        let mut d = Desktop::new(640, 480);
        let doc = d.create_window(1, Rect::new(40, 40, 280, 196), [250, 250, 250, 255]);
        let log = d.create_window(2, Rect::new(340, 60, 240, 168), [250, 250, 250, 255]);
        let media =
            video.then(|| d.create_window(3, Rect::new(60, 260, 200, 150), [20, 20, 20, 255]));
        let office = Office {
            media,
            typing: Typing::new(doc, 3),
            scroll: Scrolling::new(log, 1),
            drag: WindowDrag::new(log, 6, 4),
            rng: StdRng::seed_from_u64(seed ^ 0x0ff1ce),
            tick: 0,
        };
        (d, office)
    }

    fn tick(&mut self, d: &mut Desktop) {
        let t = self.tick;
        self.tick += 1;
        self.typing.tick(d, &mut self.rng);
        if t % 5 == 2 {
            self.scroll.tick(d, &mut self.rng);
        }
        if (20..26).contains(&t) {
            self.drag.tick(d, &mut self.rng);
        }
        if t.is_multiple_of(2) {
            d.pointer_mut()
                .move_to(60 + (t * 5) % 400, 50 + (t * 3) % 300);
        }
        if t == 40 {
            d.pointer_mut().set_icon(ibeam_cursor());
        }
        if let Some(media) = self.media {
            if t.is_multiple_of(3) {
                d.draw(media, 20, 15, &noise_frame(160, 120, t));
            }
        }
    }
}

/// Fold the egress-side flight-recorder events still in the ring: kinds,
/// actors and payload packing are part of what the health rules read.
fn event_digest(obs: &Obs) -> (u64, u64) {
    let mut digest = FNV_OFFSET;
    let mut n = 0u64;
    for e in obs.recorder.snapshot() {
        let egress = matches!(
            e.kind,
            EventKind::RtpTx
                | EventKind::NackReceived
                | EventKind::PliReceived
                | EventKind::RetxServed
                | EventKind::RetxExpired
                | EventKind::RetxSuppressed
                | EventKind::RateUp
                | EventKind::RateDown
                | EventKind::PacerSupersede
                | EventKind::BacklogSkip
                | EventKind::RelayForward
                | EventKind::RelayCacheHit
                | EventKind::RelayCacheMiss
                | EventKind::RelayNackAbsorbed
                | EventKind::RelayNackEscalated
                | EventKind::RelayPliCoalesced
                | EventKind::RelayCatchupServed
                | EventKind::TierSwitch
                | EventKind::TierRequest
        );
        if !egress {
            continue;
        }
        n += 1;
        for word in [e.ts_us, e.actor as u64, e.kind as u64, e.a, e.b] {
            digest = fnv1a_fold(digest, &word.to_le_bytes());
        }
    }
    (n, digest)
}

fn count(obs: &Obs, kind: EventKind) -> usize {
    obs.recorder
        .snapshot()
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

/// A full capture for one relay of the tree: legs of different relays
/// share actor numbers, so each relay tapes into its own.
fn relay_capture(session_id: u64) -> CaptureHandle {
    CaptureHandle::arm(CaptureConfig {
        consent: true,
        mode: CaptureMode::Full,
        session_id,
        start_us: 0,
    })
    .expect("consented")
}

/// Refold the Tx RTP/RTCP records of `cap` whose actor passes `keep`:
/// (byte-serial FNV-1a, the live `word_fold` digest).
fn refold(cap: &CaptureHandle, keep: impl Fn(u16) -> bool) -> (u64, u64) {
    let mut records = parse_capture(&cap.to_bytes())
        .expect("capture parses")
        .records;
    records.retain(|r| {
        r.dir == Direction::Tx
            && matches!(r.kind, StreamKind::Rtp | StreamKind::Rtcp)
            && keep(r.actor)
    });
    let bytewise = records
        .iter()
        .fold(FNV_OFFSET, |d, r| fnv1a_fold(d, &r.payload));
    (bytewise, wire_digest_of(&records))
}

fn ah_line(
    out: &mut String,
    name: &str,
    ah: &AppHost,
    cap: &CaptureHandle,
    obs: &Obs,
    converged: &[bool],
) {
    let s = ah.stats();
    let (events, ev_digest) = event_digest(obs);
    let (bytewise, refolded) = refold(cap, |_| true);
    assert_eq!(
        refolded,
        ah.wire_digest(),
        "{name}: the capture must refold to the AH's live digest"
    );
    out.push_str(&format!(
        "{name}\tah\twire={bytewise:016x}\trtp={}\tbytes={}\tretx={}\tsuppressed={}\ttail={}\tsr={}\trefresh={}\tmsgs={}/{}/{}/{}\tevents={events}:{ev_digest:016x}\tconverged={}\tfold={:016x}\n",
        s.rtp_packets,
        s.bytes_sent,
        s.retransmits,
        s.retransmits_suppressed,
        s.tail_repairs,
        s.sr_sent,
        s.full_refreshes,
        s.wmi_msgs,
        s.region_msgs,
        s.move_msgs,
        s.pointer_msgs,
        converged
            .iter()
            .map(|&c| if c { '1' } else { '0' })
            .collect::<String>(),
        ah.wire_digest(),
    ));
    assert!(s.move_msgs > 0, "{name}: MoveRectangle must appear");
    assert!(s.pointer_msgs > 1, "{name}: pointer messages must appear");
    assert!(s.wmi_msgs > 1, "{name}: the window drag must resend WMI");
    assert!(s.sr_sent > 0, "{name}: sender reports must appear");
}

/// Drive a direct session through the workload and the settle window.
fn run_session(
    s: &mut SimSession,
    office: &mut Office,
    mut at_tick: impl FnMut(&mut SimSession, u32),
) {
    for t in 0..TICKS {
        at_tick(s, t);
        office.tick(s.ah.desktop_mut());
        for _ in 0..3 {
            s.step(STEP_US);
        }
    }
    for _ in 0..SETTLE_STEPS {
        s.step(STEP_US);
    }
}

fn lossy(rate_bps: u64) -> LinkConfig {
    LinkConfig {
        loss: 0.02,
        delay_us: 15_000,
        jitter_us: 2_000,
        rate_bps: Some(rate_bps),
        ..Default::default()
    }
}

/// (1) Two UDP viewers, fixed rate, 2 % loss: NACK repair and sender
/// reports. No tail repair: every loss here has a later packet behind it
/// that reveals the gap by the time a receiver report could see it.
fn udp_fixed(out: &mut String) {
    let (d, mut office) = Office::new(false, 101);
    let mut s = SimSession::new(d, AhConfig::default(), 101);
    let a = s.add_udp_participant(
        Layout::Original,
        lossy(4_000_000),
        LinkConfig::default(),
        Some(4_000_000),
        102,
    );
    let b = s.add_udp_participant(
        Layout::Original,
        lossy(2_000_000),
        LinkConfig::default(),
        Some(2_000_000),
        103,
    );
    let cap = s
        .arm_capture(true, CaptureMode::Full, 101)
        .expect("consented");
    run_session(&mut s, &mut office, |_, _| {});
    let converged = [s.converged(a), s.converged(b)];
    ah_line(out, "udp_fixed", &s.ah, &cap, s.obs(), &converged);
    assert!(
        s.ah.stats().retransmits > 0,
        "2 % loss must cost a NACK repair"
    );
    assert_eq!(converged, [true, true]);
}

/// (2) One UDP viewer, adaptive rate, the link drops to a quarter one
/// second in: supersede, a lossy tier, then the lossless repair, and the
/// one receiver-report tail repair of the fixture.
fn udp_adaptive_cliff(out: &mut String) {
    let (d, mut office) = Office::new(true, 201);
    let cfg = AhConfig {
        adaptive_rate: Some(RateConfig {
            initial_bps: 4_000_000,
            lossless_above_bps: 2_500_000,
            ..RateConfig::default()
        }),
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 201);
    let p = s.add_udp_participant(
        Layout::Original,
        lossy(4_000_000),
        LinkConfig::default(),
        Some(4_000_000),
        202,
    );
    let cap = s
        .arm_capture(true, CaptureMode::Full, 201)
        .expect("consented");
    run_session(&mut s, &mut office, |s, t| {
        if t == 0 {
            let at = s.clock.now_us() + 1_000_000;
            s.set_link_schedule(
                p,
                vec![LinkStep {
                    at_us: at,
                    cfg: lossy(1_500_000),
                }],
            );
        }
    });
    let converged = [s.converged(p)];
    ah_line(out, "udp_adaptive_cliff", &s.ah, &cap, s.obs(), &converged);
    assert!(
        s.ah.rate_decreases(s.handle(p)) > 0,
        "the cliff must be felt"
    );
    assert!(
        s.obs()
            .registry
            .counter_value("ah.participant.0.rate.superseded")
            .unwrap_or(0)
            > 0,
        "the pacer queue must supersede stale updates"
    );
    assert_eq!(converged, [true]);
}

/// (3) One TCP viewer on a slow link: the §7 freshness hold, the ordered
/// `outq` spill and RFC 4571-framed sender reports.
fn tcp_slow(out: &mut String) {
    let (d, mut office) = Office::new(true, 301);
    let mut s = SimSession::new(d, AhConfig::default(), 301);
    let p = s.add_tcp_participant(
        Layout::Original,
        TcpConfig {
            rate_bps: 1_500_000,
            delay_us: 20_000,
            send_buf: 12 * 1024,
        },
        LinkConfig::default(),
        302,
    );
    let cap = s
        .arm_capture(true, CaptureMode::Full, 301)
        .expect("consented");
    run_session(&mut s, &mut office, |_, _| {});
    let converged = [s.converged(p)];
    ah_line(out, "tcp_slow", &s.ah, &cap, s.obs(), &converged);
    assert!(
        count(s.obs(), EventKind::BacklogSkip) > 0,
        "the slow link must engage the §7 hold"
    );
    assert!(
        s.obs()
            .registry
            .counter_value("ah.participant.0.tcp.refused_bytes")
            .unwrap_or(0)
            > 0,
        "the send buffer must refuse bytes so the ordered spill queue is used"
    );
    assert_eq!(converged, [true]);
}

/// (4) Two multicast sessions at different rates; the two members of the
/// first share a loss pattern (same link seed) so their NACKs collide in
/// the dedup window; a UDP viewer attaches after the members, so its
/// sender's random seq/timestamp depends on every RNG draw before it.
fn multicast_plus_late_udp(out: &mut String) {
    let (d, mut office) = Office::new(false, 401);
    let mut s = SimSession::new(d, AhConfig::default(), 401);
    let fast = s.create_multicast_session(Some(6_000_000));
    let slow = s.create_multicast_session(Some(1_500_000));
    let link = LinkConfig {
        loss: 0.03,
        delay_us: 10_000,
        ..Default::default()
    };
    let up = LinkConfig {
        delay_us: 5_000,
        ..Default::default()
    };
    let m0 = s.add_multicast_participant_in(fast, Layout::Original, link, up, 402);
    let m1 = s.add_multicast_participant_in(fast, Layout::Original, link, up, 402);
    let m2 = s.add_multicast_participant_in(slow, Layout::Original, link, up, 403);
    let u = s.add_udp_participant(
        Layout::Original,
        lossy(4_000_000),
        LinkConfig::default(),
        Some(4_000_000),
        404,
    );
    let cap = s
        .arm_capture(true, CaptureMode::Full, 401)
        .expect("consented");
    run_session(&mut s, &mut office, |_, _| {});
    let converged = [
        s.converged(m0),
        s.converged(m1),
        s.converged(m2),
        s.converged(u),
    ];
    ah_line(
        out,
        "multicast_plus_late_udp",
        &s.ah,
        &cap,
        s.obs(),
        &converged,
    );
    let stats = s.ah.stats();
    assert!(stats.retransmits > 0, "members must NACK");
    assert!(
        stats.retransmits_suppressed > 0,
        "a shared loss must hit the multicast dedup window"
    );
    assert_eq!(converged, [true; 4]);
}

/// (5) Two relay hops: a layered first relay with a rate-capped leg that
/// lives on a lossy tier, a TCP leg, and a cascaded plain relay whose
/// lossy leg NACKs; one viewer joins late and is served a catch-up burst.
fn relay_tree(out: &mut String) {
    let (d, mut office) = Office::new(false, 501);
    let clean = LinkConfig {
        delay_us: 5_000,
        ..Default::default()
    };
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), 501);
    let layered = RelayConfig {
        layers: Some(LayersConfig::default()),
        ..RelayConfig::default()
    };
    let r0 = sim.add_relay(Upstream::Ah, layered, clean, clean, 502);
    let fast = sim.add_participant(r0, Layout::Original, clean, clean, 503);
    let capped = sim.add_participant_rate(r0, Layout::Original, clean, clean, 504, Some(1_200_000));
    let tcp = sim.add_participant_tcp(
        r0,
        Layout::Original,
        TcpConfig {
            rate_bps: 3_000_000,
            delay_us: 10_000,
            send_buf: 48 * 1024,
        },
        clean,
        505,
        None,
    );
    let r1 = sim.add_relay(
        Upstream::Relay(r0),
        RelayConfig::default(),
        clean,
        clean,
        506,
    );
    let far = sim.add_participant(
        r1,
        Layout::Original,
        LinkConfig {
            loss: 0.04,
            ..clean
        },
        clean,
        507,
    );
    let cap = sim
        .arm_capture(true, CaptureMode::Full, 501)
        .expect("consented");
    let relay_caps = [r0, r1].map(|relay| {
        let c = relay_capture(510 + relay as u64);
        sim.relay_mut(relay).attach_capture(c.clone());
        c
    });
    let mut late = None;
    for t in 0..TICKS {
        if t == 45 {
            late = Some(sim.add_participant(r1, Layout::Original, clean, clean, 508));
        }
        office.tick(sim.ah.desktop_mut());
        for _ in 0..3 {
            sim.step(STEP_US);
        }
    }
    for _ in 0..SETTLE_STEPS {
        sim.step(STEP_US);
    }
    let late = late.expect("joined");
    let viewers = [fast, capped, tcp, far, late];
    let converged: Vec<bool> = viewers.iter().map(|&p| sim.converged(p)).collect();
    ah_line(out, "relay_tree", &sim.ah, &cap, sim.obs(), &converged);
    for (relay, relay_cap) in [r0, r1].into_iter().zip(&relay_caps) {
        let node = sim.relay(relay);
        let st = node.stats();
        out.push_str(&format!(
            "relay_tree\trelay{relay}\tfwd={}/{}/{}\tsuperseded={}\tnacks={}/{}/{}\tcatchups={}/{}\tlegs=",
            st.forwarded_msgs,
            st.forwarded_packets,
            st.forwarded_bytes,
            st.superseded_msgs,
            st.nacks_received,
            st.nacks_absorbed_seqs,
            st.nacks_escalated,
            st.catchups_served,
            st.catchup_bytes,
        ));
        let (bytewise, live): (Vec<String>, Vec<String>) = (0..node.leg_count())
            .map(|leg| {
                let actor = ACTOR_LEG_BASE | leg as u16;
                let (bytewise, refolded) = refold(relay_cap, |a| a == actor);
                assert_eq!(
                    refolded,
                    node.leg_wire_digest(leg),
                    "relay{relay} leg {leg}: the capture must refold to the leg's live digest"
                );
                (
                    format!("{bytewise:016x}"),
                    format!("{:016x}", node.leg_wire_digest(leg)),
                )
            })
            .unzip();
        out.push_str(&bytewise.join(","));
        out.push_str("\tfold=");
        out.push_str(&live.join(","));
        out.push('\n');
    }
    let (_, capped_leg) = sim.participant_leg(capped);
    assert_ne!(
        sim.relay(r0).leg_tier(capped_leg),
        Some(QualityTier::Lossless),
        "the capped leg must ride a lossy tier"
    );
    assert!(sim.tier_stats(r0).legs[capped_leg].synth_msgs > 0);
    assert!(
        sim.relay(r1).stats().nacks_absorbed_seqs > 0,
        "far leg NACKs"
    );
    assert!(sim.relay(r1).stats().catchups_served > 0, "late joiner");
    // Every viewer but the one held on a lossy tier is pixel-identical.
    assert_eq!(converged, [true, false, true, true, true]);
}

#[test]
fn egress_wire_matches_golden_digests() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wire_golden.txt"
    );
    let mut produced = String::from(
        "# <scenario>\t<node>\t<wire digests, counters, egress-event digest, per-viewer convergence> — regenerate with UPDATE_GOLDEN=1\n",
    );
    udp_fixed(&mut produced);
    udp_adaptive_cliff(&mut produced);
    tcp_slow(&mut produced);
    multicast_plus_late_udp(&mut produced);
    relay_tree(&mut produced);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &produced).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path} ({e}); run with UPDATE_GOLDEN=1")
    });
    for (got, want) in produced.lines().zip(expected.lines()) {
        assert_eq!(got, want, "egress wire output changed");
    }
    assert_eq!(produced.lines().count(), expected.lines().count());
}
