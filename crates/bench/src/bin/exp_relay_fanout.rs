//! E18 — relay fan-out: AH egress stays flat as relayed participants scale,
//! and downstream loss never leaks upstream.
//!
//! Every run shares one typing workload (same desktop, same seed, same wall
//! time) and differs only in topology and participant count:
//!
//! * **direct N** — classic AH→participant unicast ([`SimSession`]); the
//!   AH's egress grows ~N× and every participant's 2% loss NACKs straight
//!   at the AH.
//! * **relayed N** — AH→relay→N participants ([`RelaySim`]); the AH serves
//!   exactly one receiver, the relay answers downstream NACKs from its
//!   shared retransmit cache, and its upstream NACK count must stay zero.
//! * **cascade** — AH→relay→relay→N; two hops, still one AH leg.
//!
//! Emits the registry snapshot (`adshare-obs/v1`) and the fan-out relay's
//! stats document (`adshare-relay-stats/v1`) for `obs_schema_check`.

use adshare_bench::{emit_document, emit_snapshot, print_table};
use adshare_netsim::udp::LinkConfig;
use adshare_relay::sim::{RelaySim, Upstream};
use adshare_relay::{RelayConfig, RelayStats};
use adshare_screen::workload::{Typing, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_sdp::OfferParams;
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-participant downstream loss in every lossy scenario.
const LOSS: f64 = 0.02;
/// Typing ticks after initial sync (33 ms apart ≈ 4 s of edits).
const WORK_TICKS: usize = 120;
/// Settle steps after the workload (5 ms apart = 3 s), so every run is
/// measured over the same virtual wall time.
const SETTLE_STEPS: usize = 600;

fn desktop() -> (Desktop, adshare_screen::WindowId) {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 280, 210), [250, 250, 250, 255]);
    (d, w)
}

fn lossy() -> LinkConfig {
    LinkConfig {
        loss: LOSS,
        delay_us: 10_000,
        ..Default::default()
    }
}

fn clean() -> LinkConfig {
    LinkConfig {
        delay_us: 10_000,
        ..Default::default()
    }
}

struct DirectOutcome {
    egress: u64,
    converged: bool,
}

/// Direct AH→participant topology: N unicast UDP legs, each 2% lossy.
fn run_direct(n: usize, seed: u64) -> DirectOutcome {
    let (d, w) = desktop();
    let mut s = SimSession::new(d, AhConfig::default(), seed);
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            s.add_udp_participant(
                Layout::Original,
                lossy(),
                clean(),
                None,
                seed + 10 + i as u64,
            )
        })
        .collect();
    s.run_until(10_000, 300_000_000, |s| ids.iter().all(|&p| s.converged(p)))
        .expect("initial sync");
    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    for _ in 0..WORK_TICKS {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
    }
    for _ in 0..SETTLE_STEPS {
        s.step(5_000);
    }
    let egress = ids
        .iter()
        .map(|&p| s.ah.participant_bytes_sent(s.handle(p)))
        .sum();
    DirectOutcome {
        egress,
        converged: ids.iter().all(|&p| s.converged(p)),
    }
}

struct RelayOutcome {
    egress: u64,
    converged: bool,
    stats: RelayStats,
    hops: u32,
    sim: RelaySim,
    fanout_relay: usize,
}

/// Relay topology: the AH serves one clean leg; the fan-out relay serves N
/// 2%-lossy legs. With `cascade` a second relay is interposed (AH→R0→R1→N).
fn run_relayed(n: usize, cascade: bool, seed: u64) -> RelayOutcome {
    let (d, w) = desktop();
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), seed);
    let first = sim.add_relay(
        Upstream::Ah,
        RelayConfig::default(),
        clean(),
        clean(),
        seed + 2,
    );
    let fanout = if cascade {
        sim.add_relay(
            Upstream::Relay(first),
            RelayConfig::default(),
            clean(),
            clean(),
            seed + 3,
        )
    } else {
        first
    };
    let ids: Vec<usize> = (0..n)
        .map(|i| {
            sim.add_participant(
                fanout,
                Layout::Original,
                lossy(),
                clean(),
                seed + 10 + i as u64,
            )
        })
        .collect();
    assert!(
        sim.run_until(10_000, 30_000, |s| ids.iter().all(|&p| s.converged(p))),
        "initial sync"
    );
    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(seed + 1);
    for _ in 0..WORK_TICKS {
        wl.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(33_333);
    }
    for _ in 0..SETTLE_STEPS {
        sim.step(5_000);
    }
    let converged = ids.iter().all(|&p| sim.converged(p));
    RelayOutcome {
        egress: sim.ah_egress_bytes(),
        converged,
        stats: sim.relay(fanout).stats(),
        hops: sim.relay_offer(fanout).relay_hops(),
        sim,
        fanout_relay: fanout,
    }
}

fn kib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

fn ratio(bytes: u64, baseline: u64) -> String {
    format!("{:.2}x", bytes as f64 / baseline as f64)
}

fn main() {
    let direct1 = run_direct(1, 100);
    let direct8 = run_direct(8, 200);
    let direct32 = run_direct(32, 300);
    let relayed1 = run_relayed(1, false, 400);
    let relayed8 = run_relayed(8, false, 500);
    let relayed32 = run_relayed(32, false, 600);
    let cascade8 = run_relayed(8, true, 700);

    let base = relayed1.egress;
    let mut rows = Vec::new();
    for (label, n, egress, conv) in [
        ("direct", 1usize, direct1.egress, direct1.converged),
        ("direct", 8, direct8.egress, direct8.converged),
        ("direct", 32, direct32.egress, direct32.converged),
    ] {
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            "0".to_string(),
            kib(egress),
            ratio(egress, base),
            "-".to_string(),
            "-".to_string(),
            conv.to_string(),
        ]);
    }
    for (label, n, o) in [
        ("relayed", 1usize, &relayed1),
        ("relayed", 8, &relayed8),
        ("relayed", 32, &relayed32),
        ("cascade", 8, &cascade8),
    ] {
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            o.hops.to_string(),
            kib(o.egress),
            ratio(o.egress, base),
            o.stats.nacks_absorbed_seqs.to_string(),
            o.stats.upstream_nacks().to_string(),
            o.converged.to_string(),
        ]);
    }
    print_table(
        "E18: AH egress vs fan-out under 2% downstream loss (4 s typing)",
        &[
            "topology",
            "N",
            "hops",
            "AH egress KiB",
            "vs relayed-1",
            "NACKs absorbed",
            "NACKs upstream",
            "converged",
        ],
        &rows,
    );
    println!("\nchecks:");
    println!("  direct egress grows ~Nx; relayed egress stays within 10% of the");
    println!("  1-participant baseline at N=8 and N=32 because the AH serves one leg.");
    println!("  The relay repairs downstream loss from its cache: absorbed NACKs > 0,");
    println!("  upstream NACKs == 0, so the AH never sees the lossy edge.");

    for o in [&direct1, &direct8, &direct32] {
        assert!(o.converged, "direct run failed to converge");
    }
    for o in [&relayed1, &relayed8, &relayed32, &cascade8] {
        assert!(o.converged, "relayed run failed to converge");
    }
    for (label, o) in [
        ("relayed-8", &relayed8),
        ("relayed-32", &relayed32),
        ("cascade-8", &cascade8),
    ] {
        let r = o.egress as f64 / base as f64;
        assert!(
            (0.9..=1.1).contains(&r),
            "{label}: AH egress {r:.3}x of 1-participant baseline, want within 10%"
        );
        assert!(
            o.stats.nacks_absorbed_seqs > 0,
            "{label}: relay absorbed no downstream NACKs: {:?}",
            o.stats
        );
        assert_eq!(
            o.stats.upstream_nacks(),
            0,
            "{label}: downstream loss leaked upstream: {:?}",
            o.stats
        );
    }
    assert_eq!(cascade8.hops, 2, "cascade SDP must count two relay hops");
    assert!(
        direct32.egress as f64 > 8.0 * direct1.egress as f64,
        "direct egress should scale with N (got {} vs {})",
        direct32.egress,
        direct1.egress
    );

    // Export for obs_schema_check: registry snapshot + relay stats document.
    emit_snapshot(&relayed32.sim.obs().registry, "exp_relay_fanout");
    let doc = relayed32.sim.relay(relayed32.fanout_relay).stats_json();
    emit_document("relay stats:", "exp_relay_fanout_relay.json", doc);
}
