//! A relay's stream legs converge (ROADMAP item 21; the draft's §7 at the
//! relay). A relay leg over RFC 4571 TCP sends through the ordered wire,
//! as an AH leg does: what a full send buffer refuses waits in order, the
//! leg's queue is held while the stream is backlogged so only the freshest
//! state goes out, and a catch-up burst is sent once the stream is clear.
//! So no frame is silently lost, the viewer ends pixel-identical with no
//! decode error, and what the leg holds back stays bounded.

use adshare::prelude::*;
use adshare::relay::STREAM_QUEUE_MAX_BYTES;
use adshare::screen::workload::photo_frame;

const TICK_US: u64 = 16_000;
/// Two seconds of painting, a new photo every fourth tick.
const PAINT_TICKS: u32 = 125;
/// 9.6 s to settle.
const SETTLE_TICKS: u32 = 600;
const PHOTO: (u32, u32) = (320, 240);

/// Most bytes a stream leg may hold back (queue plus what waits behind
/// the send buffer): a full queue, or a catch-up burst of the window with
/// its RTP, fragment and PNG overhead, whichever the last flush sent.
const HELD_CAP: u64 = STREAM_QUEUE_MAX_BYTES + (PHOTO.0 * PHOTO.1 * 4) as u64;

#[derive(Debug)]
#[allow(dead_code)] // `error` is read through `Debug`, in the failure message
struct Outcome {
    converged: bool,
    error: f64,
    decode_errors: u64,
    max_held: u64,
}

/// One relay; its only viewer on a TCP leg of `send_buf` bytes at
/// `rate_bps`, the relay with or without layers.
fn run(seed: u64, send_buf: usize, rate_bps: u64, layers: bool) -> Outcome {
    let mut desktop = Desktop::new(640, 480);
    let window = desktop.create_window(1, Rect::new(16, 16, PHOTO.0, PHOTO.1), [255; 4]);
    let mut sim = RelaySim::new(desktop, AhConfig::default(), &OfferParams::default(), seed);
    let hop = LinkConfig {
        delay_us: 5_000,
        ..LinkConfig::default()
    };
    let cfg = RelayConfig {
        layers: layers.then(LayersConfig::default),
        ..RelayConfig::default()
    };
    let relay = sim.add_relay(Upstream::Ah, cfg, hop, hop, seed ^ 0x11);
    let tcp = TcpConfig {
        rate_bps,
        delay_us: 10_000,
        send_buf,
    };
    let viewer = sim.add_participant_tcp(relay, Layout::Original, tcp, hop, seed ^ 0x22, None);
    let (_, leg) = sim.participant_leg(viewer);
    let mut max_held = 0;
    for tick in 0..PAINT_TICKS + SETTLE_TICKS {
        if tick < PAINT_TICKS && tick % 4 == 0 {
            let photo = photo_frame(PHOTO.0, PHOTO.1, (seed as u32) << 8 | tick);
            sim.ah.desktop_mut().draw(window, 0, 0, &photo);
        }
        sim.step(TICK_US);
        max_held = max_held.max(sim.relay(relay).leg_held_bytes(leg));
    }
    let p = sim.participant(viewer);
    Outcome {
        converged: sim.converged(viewer),
        error: p.divergence_from(sim.ah.desktop()),
        decode_errors: p.stats().decode_errors,
        max_held,
    }
}

fn check(seed: u64, send_buf: usize, rate_bps: u64, layers: bool) {
    let out = run(seed, send_buf, rate_bps, layers);
    let case = format!(
        "seed {seed}, {} KiB at {} kb/s, layers {layers}: {out:?}",
        send_buf / 1024,
        rate_bps / 1_000
    );
    assert!(out.converged, "not pixel-identical: {case}");
    assert_eq!(out.decode_errors, 0, "decode errors: {case}");
    assert!(
        out.max_held <= HELD_CAP,
        "held more than {HELD_CAP} B: {case}"
    );
}

/// The probe that found relay stream legs losing whole frames and the
/// catch-up meant to repair them.
#[test]
fn the_stream_leg_probe_converges() {
    for (send_buf, rate_bps) in [(16 * 1024, 1_000_000), (64 * 1024, 4_000_000)] {
        for layers in [false, true] {
            check(7, send_buf, rate_bps, layers);
        }
    }
}

/// Seeds per grid point in tier-1. A debug run of one point takes about
/// 2.5 s, so the ten seeds of ROADMAP item 21's gate (180 runs) are a
/// release-mode check: `cargo test --release --test relay_stream_legs`
/// with `SEEDS` raised to 10.
const SEEDS: std::ops::RangeInclusive<u64> = 1..=1;

/// The grid: send buffer × rate × layers, one test per buffer size so the
/// harness runs them side by side.
fn grid(send_buf: usize) {
    for seed in SEEDS {
        for rate_bps in [500_000, 1_000_000, 4_000_000] {
            for layers in [false, true] {
                check(seed, send_buf, rate_bps, layers);
            }
        }
    }
}

#[test]
fn an_8_kib_stream_leg_converges_at_every_rate() {
    grid(8 * 1024);
}

#[test]
fn a_16_kib_stream_leg_converges_at_every_rate() {
    grid(16 * 1024);
}

#[test]
fn a_64_kib_stream_leg_converges_at_every_rate() {
    grid(64 * 1024);
}
