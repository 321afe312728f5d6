//! E5 — Loss recovery: NACK retransmission vs PLI full refresh
//! (draft §4.3, §5.3).
//!
//! Under 0.1%–10% UDP loss, a typing workload runs for 5 simulated
//! seconds; we measure the time from the last keystroke to a fully
//! consistent screen and the recovery overhead, with retransmissions
//! enabled (NACK) vs disabled (PLI-only fallback).

use adshare_bench::{emit_snapshot, print_table};
use adshare_netsim::udp::LinkConfig;
use adshare_obs::Registry;
use adshare_screen::workload::{Typing, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Outcome {
    settle_ms: f64,
    retransmits: u64,
    plis: u64,
    bytes: u64,
    registry: Registry,
}

fn run(loss: f64, retransmissions: bool, seed: u64) -> Outcome {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 280, 210), [250, 250, 250, 255]);
    let cfg = AhConfig {
        retransmissions,
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, seed);
    let link = LinkConfig {
        loss,
        delay_us: 25_000,
        jitter_us: 5_000,
        ..Default::default()
    };
    let p = s.add_udp_participant(
        Layout::Original,
        link,
        LinkConfig::default(),
        None,
        seed + 1,
    );
    s.run_until(10_000, 300_000_000, |s| s.converged(p))
        .expect("initial sync");

    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(seed + 2);
    for _ in 0..150 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    let stop = s.clock.now_us();
    let base_bytes = s.ah.participant_bytes_sent(s.handle(p));
    let settle_ms = s
        .run_until(10_000, 300_000_000, |s| s.converged(p))
        .map(|_| (s.clock.now_us() - stop) as f64 / 1000.0)
        .unwrap_or(f64::NAN);
    Outcome {
        settle_ms,
        retransmits: s.ah.stats().retransmits,
        plis: s.participant(p).stats().plis_sent,
        bytes: s.ah.participant_bytes_sent(s.handle(p)) - base_bytes,
        registry: s.obs().registry.clone(),
    }
}

fn main() {
    let mut rows = Vec::new();
    let mut last_registry = None;
    for &loss in &[0.001f64, 0.01, 0.03, 0.10] {
        let nack = run(loss, true, 100);
        let pli = run(loss, false, 200);
        last_registry = Some(nack.registry.clone());
        rows.push(vec![
            format!("{:.1}%", loss * 100.0),
            format!("{:.0}", nack.settle_ms),
            format!("{:.0}", pli.settle_ms),
            format!("{}", nack.retransmits),
            format!("{}", nack.plis),
            format!("{}", pli.plis),
            format!("{}", nack.bytes / 1024),
            format!("{}", pli.bytes / 1024),
        ]);
    }
    print_table(
        "E5: recovery after a 5 s typing burst under UDP loss (NACK vs PLI-only)",
        &[
            "loss",
            "settle ms (NACK)",
            "settle ms (PLI)",
            "retransmits",
            "PLIs (NACK)",
            "PLIs (PLI-only)",
            "tail KiB (NACK)",
            "tail KiB (PLI)",
        ],
        &rows,
    );
    println!("\nchecks:");
    println!("  NACK repairs with per-packet retransmissions; the PLI-only AH pays with");
    println!("  full-screen refreshes (more PLIs, larger tails) and recovers more slowly");
    println!("  as loss grows.");

    // Export the observability registry of the last (10% loss, NACK) run so
    // CI can validate the snapshot format.
    if let Some(registry) = last_registry {
        emit_snapshot(&registry, "exp_loss_recovery");
    }
}
