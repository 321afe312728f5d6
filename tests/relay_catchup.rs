//! A relay refreshes the way the AH does (DESIGN §11): a catch-up burst
//! tiles the mirror through the relay's one encode pipeline, so legs that
//! ask for a refresh in the same step cost one refresh's encodes, and a
//! burst larger than a stream leg's send buffer still arrives whole.

use adshare::codec::codec::{default_pt, AnyCodec};
use adshare::obs::Registry;
use adshare::prelude::*;
use adshare::remoting::message::{RegionUpdate, WindowManagerInfo, WindowRecord};
use adshare::remoting::packetizer::RemotingPacketizer;
use adshare::rtp::rtcp::{encode_compound, PictureLossIndication, RtcpPacket};
use adshare::rtp::session::RtpSender;
use adshare::screen::workload::photo_frame;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TICK_US: u64 = 16_000;

fn pli() -> Vec<u8> {
    encode_compound(&[RtcpPacket::Pli(PictureLossIndication {
        sender_ssrc: 1,
        media_ssrc: 2,
    })])
}

/// Share one window showing `image` with `relay`, as an AH would.
fn share(relay: &mut RelayNode, image: &Image) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut upstream = RemotingPacketizer::new(RtpSender::new(0xAAAA, 99, &mut rng), 1200);
    let (width, height) = (image.width(), image.height());
    let msgs = [
        RemotingMessage::WindowManagerInfo(WindowManagerInfo {
            windows: vec![WindowRecord {
                window_id: WireWindowId(1),
                group_id: 0,
                left: 10,
                top: 20,
                width,
                height,
            }],
        }),
        RemotingMessage::RegionUpdate(RegionUpdate {
            window_id: WireWindowId(1),
            payload_type: default_pt::PNG,
            left: 10,
            top: 20,
            payload: AnyCodec::new(CodecKind::Png).encode(image).into(),
        }),
    ];
    for msg in &msgs {
        for pkt in upstream.packetize(msg, 0).unwrap() {
            relay.ingest_upstream(&pkt.encode(), 0);
        }
    }
    relay.step(0);
}

#[test]
fn legs_refreshed_in_one_step_cost_one_refresh_of_encodes() {
    let mut relay = RelayNode::new(RelayConfig::default(), 0);
    relay.subscribe(0);
    // 256×192 on the 128×128 grid: one refresh is four tiles.
    let image = photo_frame(256, 192, 5);
    share(&mut relay, &image);
    let legs: Vec<usize> = (0..5).map(|_| relay.add_leg_raw(None)).collect();
    let registry = Registry::new();
    relay.encode_pipeline().register_metrics(&registry, "relay");
    for &leg in &legs {
        relay.handle_leg_rtcp(leg, &pli(), 10_000);
    }
    assert_eq!(relay.stats().catchups_served, legs.len() as u64);
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("relay.cache.misses"),
        Some(4),
        "one refresh"
    );
    assert_eq!(snapshot.counter("relay.tiles"), Some(4 * legs.len() as u64));
    for leg in legs {
        let mut viewer = Participant::new(7, Layout::Original, true, 3);
        for datagram in relay.poll_leg(leg, 10_000) {
            viewer.handle_datagram(&datagram, 0);
        }
        assert_eq!(viewer.window_content(1), Some(&image), "leg {leg}");
        assert_eq!(viewer.stats().decode_errors, 0);
    }
}

#[test]
fn a_late_joiner_on_a_small_stream_buffer_converges() {
    let mut desktop = Desktop::new(640, 480);
    let window = desktop.create_window(1, Rect::new(16, 16, 320, 240), [255; 4]);
    desktop.draw(window, 0, 0, &photo_frame(320, 240, 9));
    let mut sim = RelaySim::new(desktop, AhConfig::default(), &OfferParams::default(), 3);
    let hop = LinkConfig {
        delay_us: 5_000,
        ..LinkConfig::default()
    };
    let relay = sim.add_relay(Upstream::Ah, RelayConfig::default(), hop, hop, 4);
    sim.add_participant(relay, Layout::Original, hop, hop, 5);
    for _ in 0..60 {
        sim.step(TICK_US);
    }
    assert!(sim.relay(relay).synced());
    let before = sim.relay(relay).stats();
    let send_buf = 8 * 1024;
    let tcp = TcpConfig {
        rate_bps: 1_000_000,
        delay_us: 10_000,
        send_buf,
    };
    let late = sim.add_participant_tcp(relay, Layout::Original, tcp, hop, 6, None);
    let converged = sim.run_until(TICK_US, 600, |s| s.converged(late));
    let stats = sim.relay(relay).stats();
    assert!(converged, "the late joiner converges: {stats:?}");
    assert_eq!(sim.participant(late).stats().decode_errors, 0);
    assert_eq!(stats.catchups_served, before.catchups_served + 1);
    let burst = stats.catchup_bytes - before.catchup_bytes;
    assert!(
        burst > 4 * send_buf as u64,
        "the burst is several send buffers long: {burst} B"
    );
}
