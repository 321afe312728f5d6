//! E7 — Unicast vs multicast fan-out (draft §4.2: "The AH can support both
//! multicast and unicast transmissions ... to TCP participants, UDP
//! participants, and several multicast addresses in the same sharing
//! session").
//!
//! A scrolling workload runs for 3 simulated seconds while N participants
//! watch. We compare the AH's total egress and encode count when everyone
//! is a UDP unicast viewer vs one multicast group.

use adshare_bench::{emit_snapshot, print_table};
use adshare_netsim::udp::LinkConfig;
use adshare_obs::Registry;
use adshare_screen::workload::{Scrolling, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(n: usize, multicast: bool) -> (u64, u64, bool, Registry) {
    let mut d = Desktop::new(800, 600);
    let w = d.create_window(1, Rect::new(40, 40, 400, 300), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), 11);
    let link = LinkConfig {
        delay_us: 10_000,
        ..Default::default()
    };
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            if multicast {
                s.add_multicast_participant(
                    Layout::Original,
                    link,
                    LinkConfig::default(),
                    20 + i as u64,
                )
            } else {
                s.add_udp_participant(
                    Layout::Original,
                    link,
                    LinkConfig::default(),
                    None,
                    20 + i as u64,
                )
            }
        })
        .collect();
    s.run_until(10_000, 120_000_000, |s| ids.iter().all(|&p| s.converged(p)))
        .expect("all sync");

    let base: u64 = if multicast {
        s.ah.participant_bytes_sent(s.handle(ids[0]))
    } else {
        ids.iter()
            .map(|&p| s.ah.participant_bytes_sent(s.handle(p)))
            .sum()
    };
    let base_encodes = s.ah.stats().encodes;

    let mut wl = Scrolling::new(w, 1);
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..90 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    let all = s
        .run_until(10_000, 120_000_000, |s| ids.iter().all(|&p| s.converged(p)))
        .is_some();

    let egress: u64 = if multicast {
        s.ah.participant_bytes_sent(s.handle(ids[0]))
    } else {
        ids.iter()
            .map(|&p| s.ah.participant_bytes_sent(s.handle(p)))
            .sum()
    };
    (
        egress - base,
        s.ah.stats().encodes - base_encodes,
        all,
        s.obs().registry.clone(),
    )
}

fn main() {
    let mut rows = Vec::new();
    let mut last_registry = None;
    for n in [1usize, 4, 16, 48] {
        let (uni_bytes, uni_encodes, uni_ok, _) = run(n, false);
        let (mc_bytes, mc_encodes, mc_ok, mc_registry) = run(n, true);
        last_registry = Some(mc_registry);
        rows.push(vec![
            format!("{n}"),
            format!("{}", uni_bytes / 1024),
            format!("{}", mc_bytes / 1024),
            format!("{:.1}x", uni_bytes as f64 / mc_bytes.max(1) as f64),
            format!("{uni_encodes}"),
            format!("{mc_encodes}"),
            format!("{}", uni_ok && mc_ok),
        ]);
    }
    print_table(
        "E7: AH egress for N viewers of a 3 s scroll (unicast UDP vs multicast)",
        &[
            "N",
            "unicast KiB",
            "multicast KiB",
            "egress ratio",
            "encodes (uni)",
            "encodes (mc)",
            "all converged",
        ],
        &rows,
    );
    println!("\nchecks:");
    println!("  unicast egress grows ~linearly with N; multicast stays ~flat (the per-step");
    println!("  encode cache also keeps unicast encodes flat — one encode, N sends).");

    // Export the observability registry of the last (48-viewer multicast)
    // run so CI can validate the snapshot format.
    if let Some(registry) = last_registry {
        emit_snapshot(&registry, "exp_fanout");
    }
}
