//! One simulated world (DESIGN §5.3): a relay tree is stepped, tapped and
//! captured by the same code as a direct session, so it gets delivery
//! capture, gap markers, the capture manifest and replay without any
//! relay-specific code — and any topology the world can describe converges
//! and is deterministic.

use adshare::capture::{manifest_json, StreamKind};
use adshare::prelude::*;
use adshare::session::world::{Parent, World};
use adshare::session::TransportKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn link(loss: f64) -> LinkConfig {
    LinkConfig {
        loss,
        delay_us: 10_000,
        ..LinkConfig::default()
    }
}

/// A two-hop tree with a lossy UDP leg, a TCP leg and a late joiner,
/// captured in full, replays bit-exact: every active viewer has a recorded
/// surface digest, every replayed surface matches it, and every gap marker
/// the live run wrote is honoured. The lossy leg also loses one packet
/// just before a 1.5 s blackout swallows its repairs, so the viewer gives
/// that hole up and the capture carries gap markers.
#[test]
fn relay_tree_capture_replays_bit_exact() {
    let mut desktop = Desktop::new(320, 240);
    let win = desktop.create_window(1, Rect::new(20, 20, 200, 150), [240, 240, 240, 255]);
    let mut sim = RelaySim::new(desktop, AhConfig::default(), &OfferParams::default(), 0x7EE);
    sim.arm_capture(true, CaptureMode::Full, 0x7EE)
        .expect("consent supplied");
    let r0 = sim.add_relay(
        Upstream::Ah,
        RelayConfig::default(),
        link(0.0),
        link(0.0),
        1,
    );
    let r1 = sim.add_relay(
        Upstream::Relay(r0),
        RelayConfig::default(),
        link(0.0),
        link(0.0),
        2,
    );
    let lossy = sim.add_participant(r1, Layout::Original, link(0.04), link(0.0), 3);
    let tcp = sim.add_participant_tcp(
        r1,
        Layout::Original,
        TcpConfig::default(),
        link(0.0),
        4,
        None,
    );
    let direct = sim.add_participant(r0, Layout::Original, link(0.0), link(0.0), 5);

    let mut typing = Typing::new(win, 3);
    let mut rng = StdRng::seed_from_u64(6);
    let mut late = None;
    for tick in 0..150 {
        if tick == 60 {
            late = Some(sim.add_participant(r1, Layout::Original, link(0.0), link(0.0), 7));
        }
        let now = sim.clock.now_us();
        let (relay, leg) = sim.participant_leg(lossy);
        let lossy_leg = sim.relay_mut(relay).leg_link_mut(leg).expect("UDP leg");
        if tick == 80 {
            lossy_leg.drop_next(1);
        }
        if tick == 82 {
            lossy_leg.set_schedule(vec![
                LinkStep {
                    at_us: now,
                    cfg: link(1.0),
                },
                LinkStep {
                    at_us: now + 1_500_000,
                    cfg: link(0.04),
                },
            ]);
        }
        typing.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(33_333);
    }
    let late = late.expect("joined");
    let viewers = [lossy, tcp, direct, late];
    let all_converged = |s: &RelaySim| viewers.iter().all(|&v| s.converged(v));
    assert!(
        sim.run_until(10_000, 600, all_converged),
        "divergence: {:?}",
        viewers.map(|v| sim.divergence(v))
    );

    sim.finalize_capture().expect("capture armed");
    let manifest = sim.capture_manifest().expect("capture armed");
    let mut recorded: Vec<u16> = manifest.surface_digests.iter().map(|&(a, _)| a).collect();
    recorded.sort_unstable();
    assert_eq!(
        recorded,
        [0, 1, 2, 3],
        "one surface digest per active viewer"
    );

    // Written to disk and read back, as `adshare-demo replay` reads it.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("world_relay_capture");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let (cap_path, man_path) = (dir.join("relay_tree.bin"), dir.join("relay_tree.json"));
    sim.capture()
        .expect("capture armed")
        .write_to(&cap_path)
        .expect("write capture");
    std::fs::write(&man_path, manifest_json(&manifest)).expect("write manifest");
    let capture = read_capture(&cap_path).expect("capture parses");
    let manifest = parse_manifest(&std::fs::read_to_string(&man_path).unwrap()).unwrap();
    let live_gaps = capture
        .records
        .iter()
        .filter(|r| r.kind == StreamKind::GapRecover)
        .count() as u64;
    let report = replay(&capture, Some(&manifest));
    assert!(
        report.bit_exact(),
        "replay diverged: wire 0x{:016x} vs recorded {:?}, surfaces {:?}",
        report.wire_digest,
        report.recorded_wire_digest,
        report.surfaces
    );
    for v in viewers {
        let check = report.surfaces.iter().find(|c| c.actor == v as u16);
        assert!(
            check.is_some_and(|c| c.recorded.is_some()),
            "viewer {v} was not replayed against a recorded digest: {:?}",
            report.surfaces
        );
    }
    assert!(live_gaps > 0, "the blackout left no hole to give up");
    assert_eq!(report.gaps_skipped, live_gaps, "every gap marker honoured");
}

/// One random tree: for each relay, a parent choice (0 = the AH, k = relay
/// k − 1, reduced to the relays before it); for each viewer, a parent
/// choice over the AH and every relay, and whether it is served over TCP.
fn build(relays: &[u8], viewers: &[(u8, bool)], seed: u64) -> World<RelayNode> {
    let mut desktop = Desktop::new(240, 160);
    desktop.create_window(1, Rect::new(10, 10, 120, 80), [250, 250, 250, 255]);
    let mut w: World<RelayNode> =
        World::with_host(AppHost::new(desktop, AhConfig::default(), seed));
    for (i, &pick) in relays.iter().enumerate() {
        let mut node = RelayNode::new(RelayConfig::default(), i as u16);
        node.attach_obs(w.obs().clone());
        let parent = match pick as usize % (i + 1) {
            0 => Parent::Ah(w.ah.attach_udp(0x5200 + i as u16, link(0.0), seed, None)),
            p => Parent::Leg(p - 1, w.relay_mut(p - 1).add_leg_udp(link(0.0), seed, None)),
        };
        node.subscribe(0);
        w.add_relay_node(node, parent, link(0.0), seed + i as u64);
    }
    for (i, &(pick, tcp)) in viewers.iter().enumerate() {
        let vseed = seed ^ ((i as u64 + 1) * 0x9E37);
        let kind = if tcp {
            TransportKind::Tcp
        } else {
            TransportKind::Udp
        };
        let parent = match (pick as usize % (relays.len() + 1), tcp) {
            (0, false) => Parent::Ah(w.ah.attach_udp(w.next_user_id(), link(0.0), vseed, None)),
            (0, true) => Parent::Ah(w.ah.attach_tcp(w.next_user_id(), TcpConfig::default())),
            (r, false) => Parent::Leg(
                r - 1,
                w.relay_mut(r - 1).add_leg_udp(link(0.0), vseed, None),
            ),
            (r, true) => Parent::Leg(
                r - 1,
                w.relay_mut(r - 1).add_leg_tcp(TcpConfig::default(), None),
            ),
        };
        w.add_viewer(parent, kind, Layout::Original, link(0.0), vseed);
    }
    w
}

/// Type for a while, then run until every viewer converges. Returns the
/// AH's wire digest and every relay leg's, in order.
fn run(w: &mut World<RelayNode>, relays: usize, seed: u64) -> Vec<u64> {
    let win = w.ah.desktop().wm().shared_records().next().unwrap().id;
    let mut typing = Typing::new(win, 2);
    let mut rng = StdRng::seed_from_u64(seed);
    for tick in 0..30 {
        if tick == 10 {
            // Input from a relayed viewer goes up its uplink behind the
            // HIP port tag; its relay drops it.
            if let Some(v) =
                (0..w.participant_count()).find(|&v| matches!(w.parent(v), Parent::Leg(..)))
            {
                let msg = HipMessage::MouseMoved {
                    window_id: WireWindowId(1),
                    left: 30,
                    top: 40,
                };
                w.send_hip(v, &msg);
            }
        }
        typing.tick(w.ah.desktop_mut(), &mut rng);
        w.step(33_333);
    }
    let n = w.participant_count();
    let done = w.run_until(10_000, 3_000_000, |w| (0..n).all(|v| w.converged(v)));
    assert!(
        done.is_some(),
        "divergence: {:?}",
        (0..n).map(|v| w.divergence(v)).collect::<Vec<_>>()
    );
    let mut digests = vec![w.wire_digest()];
    for r in 0..relays {
        let node = w.relay(r);
        digests.extend((0..node.leg_count()).map(|leg| node.leg_wire_digest(leg)));
    }
    digests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any tree of up to two relays and four viewers, on lossless links,
    /// converges, and two runs from one seed put the same bytes on every
    /// link the AH and the relays send on.
    #[test]
    fn any_topology_converges_and_is_deterministic(
        relays in proptest::collection::vec(0u8..3, 0..=2),
        viewers in proptest::collection::vec((0u8..3, any::<bool>()), 1..=4),
        seed in 0u64..1_000,
    ) {
        let first = run(&mut build(&relays, &viewers, seed), relays.len(), seed);
        let second = run(&mut build(&relays, &viewers, seed), relays.len(), seed);
        prop_assert_eq!(first, second);
    }
}
