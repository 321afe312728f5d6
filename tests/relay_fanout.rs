//! e2e relay-tier properties: wire-byte transparency for a from-start
//! lossless leg, shared-cache NACK absorption across participants,
//! late-joiner catch-up without an upstream refresh, and a property test
//! that the shared retransmit cache honors its byte budget.

use adshare::netsim::time::us_to_ticks;
use adshare::prelude::*;
use adshare::rtp::history::RetransmitHistory;
use adshare::rtp::packet::RtpPacket;
use adshare::rtp::RtpHeader;
use proptest::prelude::*;

fn shared_desktop() -> Desktop {
    let mut d = Desktop::new(640, 480);
    let id = d.create_window(1, Rect::new(40, 30, 200, 150), [245, 245, 245, 255]);
    let stamp = Image::filled(48, 32, [20, 120, 220, 255]).unwrap();
    d.draw(id, 12, 10, &stamp);
    d
}

fn ms(delay_us: u64) -> LinkConfig {
    LinkConfig {
        delay_us,
        ..Default::default()
    }
}

/// A single participant behind a from-start lossless relay leg receives the
/// exact datagram sequence a direct AH→participant link would carry: the
/// relay's per-leg sequence rewriting is the identity and forwarded RTCP
/// keeps its in-stream position.
#[test]
fn single_participant_relay_is_wire_transparent() {
    let zero = ms(0);
    // Direct world.
    let mut ah_a = AppHost::new(shared_desktop(), AhConfig::default(), 42);
    let ha = ah_a.attach_udp(1, zero, 7, None);
    let mut p_a = Participant::new(1, Layout::Original, true, 9);
    p_a.request_refresh();
    // Relay world: same AH construction, the relay in the middle.
    let mut ah_b = AppHost::new(shared_desktop(), AhConfig::default(), 42);
    let hb = ah_b.attach_udp(1, zero, 7, None);
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    let leg = relay.add_leg_raw(None);
    relay.subscribe(0);
    // The relayed participant does NOT request its own refresh: in the
    // relay topology the join refresh toward the AH is the relay's job
    // (`subscribe`), and a leg attached from stream start is already
    // current. (A participant PLI would be answered — correctly — with a
    // locally synthesized catch-up burst, which the direct wire by
    // definition does not carry.)
    let mut p_b = Participant::new(1, Layout::Original, true, 9);

    let mut direct_wire: Vec<Vec<u8>> = Vec::new();
    let mut relayed_wire: Vec<Vec<u8>> = Vec::new();
    let mut now = 0u64;
    for step in 0u32..1_200 {
        now += 5_000;
        let ticks = us_to_ticks(now);
        // The same edits hit both desktops at the same instant.
        if step % 37 == 5 {
            for host in [&mut ah_a, &mut ah_b] {
                let id = host.desktop().wm().shared_records().next().unwrap().id;
                host.desktop_mut().fill(
                    id,
                    Rect::new(step % 80, 10, 24, 18),
                    [step as u8, 120, 200, 255],
                );
            }
        }
        ah_a.step(now);
        ah_b.step(now);
        for dg in ah_a.poll_udp(ha, now) {
            direct_wire.push(dg.clone());
            p_a.handle_datagram(&dg, ticks);
        }
        p_a.tick(ticks);
        if let Some(r) = p_a.take_rtcp() {
            ah_a.handle_rtcp(ha, &r, now);
        }
        for dg in ah_b.poll_udp(hb, now) {
            relay.ingest_upstream(&dg, now);
        }
        relay.step(now);
        if let Some(r) = relay.take_upstream_rtcp() {
            ah_b.handle_rtcp(hb, &r, now);
        }
        for dg in relay.poll_leg(leg, now) {
            relayed_wire.push(dg.clone());
            p_b.handle_datagram(&dg, ticks);
        }
        p_b.tick(ticks);
        if let Some(r) = p_b.take_rtcp() {
            relay.handle_leg_rtcp(leg, &r, now);
        }
    }
    assert!(p_a.synced(), "direct participant synced");
    assert!(p_b.synced(), "relayed participant synced");
    assert!(!direct_wire.is_empty());
    assert_eq!(
        direct_wire.len(),
        relayed_wire.len(),
        "datagram counts diverge"
    );
    for (i, (d, r)) in direct_wire.iter().zip(relayed_wire.iter()).enumerate() {
        assert_eq!(d, r, "datagram {i} of {} differs", direct_wire.len());
    }
}

/// Two participants lose the same downstream datagram; the relay serves the
/// first NACK with one shared-cache lookup and the second from its
/// per-sequence suppression window. Nothing escalates upstream.
#[test]
fn shared_cache_serves_both_nackers_with_one_lookup() {
    let link = ms(5_000);
    let mut sim = RelaySim::new(
        shared_desktop(),
        AhConfig::default(),
        &OfferParams::default(),
        21,
    );
    let relay = sim.add_relay(Upstream::Ah, RelayConfig::default(), link, link, 22);
    let a = sim.add_participant(relay, Layout::Original, link, link, 23);
    let b = sim.add_participant(relay, Layout::Original, link, link, 24);
    assert!(
        sim.run_until(5_000, 4_000, |s| s.converged(a) && s.converged(b)),
        "initial sync"
    );
    let (hits0, misses0) = sim.relay(relay).cache_stats();

    // Drop the next datagram on both legs: the legs carry identical
    // streams, so both participants lose the same upstream sequence.
    let (_, leg_a) = sim.participant_leg(a);
    let (_, leg_b) = sim.participant_leg(b);
    sim.relay_mut(relay)
        .leg_link_mut(leg_a)
        .unwrap()
        .drop_next(1);
    sim.relay_mut(relay)
        .leg_link_mut(leg_b)
        .unwrap()
        .drop_next(1);
    let id = sim.ah.desktop().wm().shared_records().next().unwrap().id;
    sim.ah
        .desktop_mut()
        .fill(id, Rect::new(10, 10, 60, 40), [9, 9, 9, 255]);
    for _ in 0..200 {
        sim.step(5_000);
    }
    // Follow-up traffic so any still-hidden gap surfaces, then settle.
    sim.ah
        .desktop_mut()
        .fill(id, Rect::new(80, 60, 60, 40), [99, 9, 9, 255]);
    assert!(
        sim.run_until(5_000, 2_000, |s| s.converged(a) && s.converged(b)),
        "recovery: divergence {} / {}",
        sim.divergence(a),
        sim.divergence(b)
    );
    let stats = sim.relay(relay).stats();
    let (hits, misses) = sim.relay(relay).cache_stats();
    assert!(
        stats.nacks_absorbed_seqs >= 2,
        "both NACKs answered locally: {stats:?}"
    );
    assert!(
        stats.nacks_suppressed_seqs >= 1,
        "second NACK served from the suppression window: {stats:?}"
    );
    assert_eq!(
        hits - hits0,
        1,
        "exactly one shared-cache lookup for two NACKers"
    );
    assert_eq!(misses, misses0, "no cache misses");
    assert_eq!(
        stats.upstream_nacks(),
        0,
        "downstream loss must not leak upstream: {stats:?}"
    );
}

/// A participant joining mid-session converges pixel-identically from the
/// relay's shadow-state catch-up burst; the AH never sees a PLI for it.
#[test]
fn late_joiner_converges_from_relay_catchup_without_upstream_refresh() {
    let link = ms(5_000);
    let mut sim = RelaySim::new(
        shared_desktop(),
        AhConfig::default(),
        &OfferParams::default(),
        31,
    );
    let relay = sim.add_relay(Upstream::Ah, RelayConfig::default(), link, link, 32);
    let a = sim.add_participant(relay, Layout::Original, link, link, 33);
    assert!(
        sim.run_until(5_000, 4_000, |s| s.converged(a)),
        "initial sync"
    );

    // The desktop evolves well past the initial full state.
    let id = sim.ah.desktop().wm().shared_records().next().unwrap().id;
    for round in 0..6u32 {
        sim.ah.desktop_mut().fill(
            id,
            Rect::new(10 + round * 20, 20, 18, 90),
            [round as u8 * 40, 80, 160, 255],
        );
        for _ in 0..40 {
            sim.step(5_000);
        }
    }
    assert!(
        sim.run_until(5_000, 2_000, |s| s.converged(a)),
        "pre-join settle"
    );
    let plis_before = sim.relay(relay).stats().plis_upstream;

    let b = sim.add_participant(relay, Layout::Original, link, link, 34);
    assert!(
        sim.run_until(5_000, 4_000, |s| s.converged(b)),
        "late joiner: divergence {}",
        sim.divergence(b)
    );
    let stats = sim.relay(relay).stats();
    assert!(
        stats.catchups_served >= 1,
        "join must be served from the shadow state: {stats:?}"
    );
    assert_eq!(
        stats.plis_upstream, plis_before,
        "late join must not trigger an upstream refresh: {stats:?}"
    );
    assert!(sim.converged(a), "existing participant undisturbed");
}

/// Fold a capture's egress RTP/RTCP records for one actor, in record
/// order — what `leg_wire_digest` reports if the tap sits at the fold.
fn capture_digest_for(cap: &CaptureHandle, actor: u16) -> (u64, usize) {
    let mut records = parse_capture(&cap.to_bytes())
        .expect("capture parses")
        .records;
    records.retain(|r| r.actor == actor);
    (adshare::capture::wire_digest_of(&records), records.len())
}

/// A relay capture holds exactly what each leg put on its transport:
/// NACK repairs (catch-up copy, suppression copy, cache hit), the catch-up
/// burst and forwarded RTCP are taped, and a TCP frame waiting behind a
/// full send buffer is taped once, when it was folded — "tapped iff folded
/// iff sent".
#[test]
fn relay_capture_refolds_to_leg_digest() {
    use adshare::obs::ACTOR_LEG_BASE;
    let cap = CaptureHandle::arm(CaptureConfig {
        consent: true,
        mode: CaptureMode::Full,
        session_id: 15,
        start_us: 0,
    })
    .expect("consented");
    let mut ah = AppHost::new(shared_desktop(), AhConfig::default(), 42);
    let h = ah.attach_udp(1, ms(0), 7, None);
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    relay.attach_capture(cap.clone());
    // A lossy UDP leg whose viewer NACKs and later PLIs for a catch-up.
    let lossy = LinkConfig {
        loss: 0.08,
        delay_us: 5_000,
        ..Default::default()
    };
    let udp = relay.add_leg_udp(lossy, 11, None);
    // A TCP leg too small for the traffic: frames wait behind its buffer.
    let tcp = relay.add_leg_tcp(
        TcpConfig {
            rate_bps: 100_000,
            delay_us: 5_000,
            send_buf: 1_500,
        },
        None,
    );
    // A roomy leg carrying the same from-start stream as the TCP leg.
    let raw = relay.add_leg_raw(None);
    relay.subscribe(0);
    let mut viewer = Participant::new(1, Layout::Original, true, 9);
    viewer.request_refresh();

    let (mut now, mut held) = (0u64, 0u64);
    for step in 0u32..1_600 {
        now += 5_000;
        let ticks = us_to_ticks(now);
        if step % 9 == 5 {
            let id = ah.desktop().wm().shared_records().next().unwrap().id;
            ah.desktop_mut().fill(
                id,
                Rect::new(step % 80, 10, 40, 30),
                [step as u8, 120, 200, 255],
            );
        }
        if step == 900 {
            // The viewer asks again mid-session: served from the shadow.
            viewer.request_refresh();
        }
        ah.step(now);
        for dg in ah.poll_udp(h, now) {
            relay.ingest_upstream(&dg, now);
        }
        relay.step(now);
        if let Some(r) = relay.take_upstream_rtcp() {
            ah.handle_rtcp(h, &r, now);
        }
        for dg in relay.poll_leg(udp, now) {
            viewer.handle_datagram(&dg, ticks);
        }
        viewer.tick(ticks);
        if let Some(r) = viewer.take_rtcp() {
            relay.handle_leg_rtcp(udp, &r, now);
        }
        relay.poll_leg(tcp, now);
        relay.poll_leg(raw, now);
        held = held.max(relay.leg_held_bytes(tcp));
    }
    let stats = relay.stats();
    assert!(
        stats.nacks_absorbed_seqs > 0,
        "leg NACKs repaired: {stats:?}"
    );
    assert!(
        stats.catchups_served >= 2,
        "join + re-PLI bursts: {stats:?}"
    );
    assert!(held > 0, "the TCP send buffer must have backed up");
    assert_eq!(
        relay.leg_wire_digest(tcp),
        relay.leg_wire_digest(raw),
        "an ordered stream loses no frame: the TCP leg carries the raw leg's stream"
    );
    for (name, leg) in [("udp", udp), ("tcp", tcp), ("raw", raw)] {
        let (digest, records) = capture_digest_for(&cap, ACTOR_LEG_BASE | leg as u16);
        assert!(records > 0, "{name} leg taped nothing");
        assert_eq!(
            digest,
            relay.leg_wire_digest(leg),
            "{name} leg: capture ({records} records) must refold to the leg digest"
        );
    }
}

proptest! {
    /// The shared retransmit cache never exceeds either bound, and evicts
    /// oldest-first: what survives is exactly the longest suffix of the
    /// recorded packets that fits both budgets.
    #[test]
    fn retransmit_cache_honors_byte_budget(
        sizes in proptest::collection::vec(1usize..2_000, 1..120),
        max_packets in 1usize..48,
        max_bytes in 64usize..16_384,
    ) {
        let mut h = RetransmitHistory::new(max_packets, max_bytes);
        let pkt = |seq: usize, size: usize| {
            RtpPacket::new(RtpHeader::new(99, seq as u16, 0, 1), vec![0u8; size])
        };
        for (i, &size) in sizes.iter().enumerate() {
            h.record(pkt(i, size));
            prop_assert!(h.len() <= max_packets, "packet cap violated");
            prop_assert!(h.bytes() <= max_bytes, "byte budget violated");
        }
        // Longest fitting suffix, computed independently.
        let wire: Vec<usize> = sizes.iter().map(|&s| pkt(0, s).wire_len()).collect();
        let mut start = sizes.len();
        let mut total = 0usize;
        while start > 0
            && sizes.len() - start < max_packets
            && total + wire[start - 1] <= max_bytes
        {
            start -= 1;
            total += wire[start];
        }
        prop_assert_eq!(h.len(), sizes.len() - start);
        prop_assert_eq!(h.bytes(), total);
        for seq in 0..sizes.len() {
            prop_assert_eq!(
                h.contains(seq as u16),
                seq >= start,
                "seq {} cached iff inside the surviving suffix (start {})",
                seq,
                start
            );
        }
    }
}
