//! E20 — layered quality across a heterogeneous-bandwidth tree: the fast
//! subtree stays bit-identical to a single-tier baseline, the slow subtree
//! rides a usable lower tier instead of starving, and the AH's egress stays
//! flat versus verbatim fan-out.
//!
//! Every run shares one typing workload (same desktop, same seeds, same
//! wall time) over the same tree — one relay, two 6 Mb/s legs, one
//! 1.2 Mb/s UDP leg and one 1.2 Mb/s RFC 4571 TCP leg — and differs only
//! in the relay's layers setting:
//!
//! * **verbatim** — layers off; every leg gets the lossless stream and the
//!   slow legs queue behind their pacers.
//! * **layered** — layers on; the relay's per-leg AIMD estimate selects a
//!   tier per subtree, re-encoding locally at frame boundaries. The fast
//!   legs must forward the exact bytes of the verbatim run (wire digest
//!   equality) and the AH must not pay for the slow subtree's relief
//!   (egress ≤ 1.05× verbatim).
//! * **slow subtree** — a relay whose legs are all slow, with
//!   `subscribe_upstream` on: it asks the AH for the Balanced rendition
//!   via a `TierRequest`, so nobody encodes or ships tiers no subtree
//!   watches.
//!
//! Emits the registry snapshot (`adshare-obs/v1`) and the layered relay's
//! tier-stats document (`adshare-relay-tier-stats/v1`) for
//! `obs_schema_check`.

use adshare_bench::{emit_document, emit_snapshot, print_table};
use adshare_layers::{LayersConfig, TierStats};
use adshare_netsim::tcp::TcpConfig;
use adshare_netsim::udp::LinkConfig;
use adshare_rate::QualityTier;
use adshare_relay::sim::{RelaySim, Upstream};
use adshare_relay::RelayConfig;
use adshare_screen::workload::{Typing, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_sdp::OfferParams;
use adshare_session::{AhConfig, Layout};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pacer cap on the fast subtree's legs (bits/second).
const FAST_CAP: u64 = 6_000_000;
/// Pacer cap on the slow subtree's legs: below the layers band's
/// `lossless_above`, so the tier controller must hand them Balanced.
const SLOW_CAP: u64 = 1_200_000;
/// Typing ticks after initial sync (33 ms apart ≈ 4 s of edits).
const WORK_TICKS: usize = 120;
/// Settle steps after the workload (5 ms apart = 3 s).
const SETTLE_STEPS: usize = 600;
/// One seed for every run: digest parity compares wire bytes, so the
/// verbatim and layered runs must be driven by identical randomness.
const SEED: u64 = 0xE20;

fn desktop() -> (Desktop, adshare_screen::WindowId) {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 280, 210), [250, 250, 250, 255]);
    (d, w)
}

fn clean() -> LinkConfig {
    LinkConfig {
        delay_us: 10_000,
        ..Default::default()
    }
}

struct LegView {
    label: &'static str,
    leg: usize,
    tier: Option<QualityTier>,
    digest: u64,
    divergence: f64,
    regions: u64,
}

struct Outcome {
    egress: u64,
    fast_converged: bool,
    legs: Vec<LegView>,
    stats: TierStats,
    sim: RelaySim,
}

/// One heterogeneous tree under the given layers setting. The topology,
/// seeds and workload are identical across calls; only `layers` differs.
fn run_tree(layers: Option<LayersConfig>) -> Outcome {
    let (d, w) = desktop();
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), SEED);
    let cfg = RelayConfig {
        layers,
        ..RelayConfig::default()
    };
    let relay = sim.add_relay(Upstream::Ah, cfg, clean(), clean(), SEED + 2);
    let fast_a = sim.add_participant_rate(
        relay,
        Layout::Original,
        clean(),
        clean(),
        SEED + 10,
        Some(FAST_CAP),
    );
    let fast_b = sim.add_participant_rate(
        relay,
        Layout::Original,
        clean(),
        clean(),
        SEED + 11,
        Some(FAST_CAP),
    );
    let slow_udp = sim.add_participant_rate(
        relay,
        Layout::Original,
        clean(),
        clean(),
        SEED + 12,
        Some(SLOW_CAP),
    );
    let slow_tcp = sim.add_participant_tcp(
        relay,
        Layout::Original,
        TcpConfig {
            rate_bps: 1_500_000,
            ..TcpConfig::default()
        },
        clean(),
        SEED + 13,
        Some(SLOW_CAP),
    );
    assert!(
        sim.run_until(10_000, 30_000, |s| {
            s.converged(fast_a) && s.converged(fast_b)
        }),
        "initial sync of the fast subtree"
    );
    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    for _ in 0..WORK_TICKS {
        wl.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(33_333);
    }
    for _ in 0..SETTLE_STEPS {
        sim.step(5_000);
    }
    let legs = [
        ("fast-udp", fast_a),
        ("fast-udp", fast_b),
        ("slow-udp", slow_udp),
        ("slow-tcp", slow_tcp),
    ]
    .into_iter()
    .map(|(label, p)| {
        let (_, leg) = sim.participant_leg(p);
        LegView {
            label,
            leg,
            tier: sim.relay(relay).leg_tier(leg),
            digest: sim.relay(relay).leg_wire_digest(leg),
            divergence: sim.divergence(p),
            regions: sim.participant(p).stats().regions_applied,
        }
    })
    .collect();
    let fast_converged = sim.converged(fast_a) && sim.converged(fast_b);
    Outcome {
        egress: sim.ah_egress_bytes(),
        fast_converged,
        legs,
        stats: sim.tier_stats(relay),
        sim,
    }
}

struct SubtreeOutcome {
    egress: u64,
    stats: TierStats,
    upstream_tier: QualityTier,
    divergence: f64,
    regions: u64,
}

/// A relay whose whole subtree is slow, subscribing upstream: the relay
/// must ask the AH for the Balanced rendition instead of receiving (and
/// paying for) lossless bytes it would immediately re-encode down.
fn run_slow_subtree() -> SubtreeOutcome {
    let (d, w) = desktop();
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), SEED);
    let cfg = RelayConfig {
        layers: Some(LayersConfig {
            subscribe_upstream: true,
            ..LayersConfig::default()
        }),
        ..RelayConfig::default()
    };
    let relay = sim.add_relay(Upstream::Ah, cfg, clean(), clean(), SEED + 2);
    let slow_a = sim.add_participant_rate(
        relay,
        Layout::Original,
        clean(),
        clean(),
        SEED + 10,
        Some(SLOW_CAP),
    );
    let slow_b = sim.add_participant_rate(
        relay,
        Layout::Original,
        clean(),
        clean(),
        SEED + 11,
        Some(SLOW_CAP),
    );
    assert!(
        sim.run_until(10_000, 30_000, |s| {
            s.participant(slow_a).stats().regions_applied > 0
                && s.participant(slow_b).stats().regions_applied > 0
        }),
        "initial catch-up of the slow subtree"
    );
    let mut wl = Typing::new(w, 2);
    let mut rng = StdRng::seed_from_u64(SEED + 1);
    for _ in 0..WORK_TICKS {
        wl.tick(sim.ah.desktop_mut(), &mut rng);
        sim.step(33_333);
    }
    for _ in 0..SETTLE_STEPS {
        sim.step(5_000);
    }
    let upstream_tier = sim.relay(relay).upstream_tier();
    let divergence = sim.divergence(slow_a);
    let regions = sim.participant(slow_a).stats().regions_applied;
    SubtreeOutcome {
        egress: sim.ah_egress_bytes(),
        stats: sim.tier_stats(relay),
        upstream_tier,
        divergence,
        regions,
    }
}

fn kib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

fn tier_label(t: Option<QualityTier>) -> String {
    match t {
        None => "-".to_string(),
        Some(QualityTier::Lossless) => "lossless".to_string(),
        Some(QualityTier::Balanced) => "balanced".to_string(),
        Some(QualityTier::Economy) => "economy".to_string(),
    }
}

fn main() {
    let verbatim = run_tree(None);
    let layered = run_tree(Some(LayersConfig::default()));
    let subtree = run_slow_subtree();

    let mut rows = Vec::new();
    for (run, o) in [("verbatim", &verbatim), ("layered", &layered)] {
        for v in &o.legs {
            let leg_stats = o.stats.legs.iter().find(|l| l.leg == v.leg);
            rows.push(vec![
                run.to_string(),
                v.label.to_string(),
                tier_label(v.tier),
                format!("{:016x}", v.digest),
                leg_stats.map_or("-".into(), |l| l.synth_msgs.to_string()),
                format!("{:.1}", v.divergence),
                v.regions.to_string(),
            ]);
        }
    }
    print_table(
        "E20: per-leg tier selection on a 2x6 Mb/s + 2x1.2 Mb/s tree (4 s typing)",
        &[
            "run",
            "leg",
            "tier",
            "wire digest",
            "synth msgs",
            "divergence",
            "regions",
        ],
        &rows,
    );
    println!(
        "\nAH egress: verbatim {} KiB, layered {} KiB ({:.3}x), slow-subtree {} KiB ({:.3}x)",
        kib(verbatim.egress),
        kib(layered.egress),
        layered.egress as f64 / verbatim.egress as f64,
        kib(subtree.egress),
        subtree.egress as f64 / verbatim.egress as f64,
    );
    println!(
        "slow subtree upstream: tier {} after {} TierRequests, divergence {:.1}, {} regions",
        tier_label(Some(subtree.upstream_tier)),
        subtree.stats.tier_requests,
        subtree.divergence,
        subtree.regions,
    );
    println!("\nchecks:");
    println!("  the fast legs' wire digests match the verbatim run bit-exactly; the");
    println!("  slow legs ride Balanced with synthesized renditions (no starvation);");
    println!("  AH egress stays within 5% of verbatim fan-out; an all-slow subtree");
    println!("  subscribes upstream so the AH ships Balanced, not discarded lossless.");

    // Gate 1: the fast subtree is bit-identical to the single-tier baseline.
    assert!(verbatim.fast_converged, "verbatim fast legs must converge");
    assert!(layered.fast_converged, "layered fast legs must converge");
    for i in 0..2 {
        assert_eq!(
            layered.legs[i].tier,
            Some(QualityTier::Lossless),
            "fast leg must stay lossless"
        );
        assert_eq!(
            layered.legs[i].digest, verbatim.legs[i].digest,
            "fast leg {i}: layered wire digest must equal the verbatim baseline"
        );
        assert!(
            layered.legs[i].regions > 0,
            "fast leg {i} must actually carry traffic"
        );
    }

    // Gate 2: the slow subtree degrades to a usable tier instead of starving.
    for v in &layered.legs[2..] {
        assert_eq!(
            v.tier,
            Some(QualityTier::Balanced),
            "{}: a 1.2 Mb/s leg must ride Balanced",
            v.label
        );
        let s = layered
            .stats
            .legs
            .iter()
            .find(|l| l.leg == v.leg)
            .expect("layered leg has tier stats");
        assert!(
            s.synth_msgs > 0,
            "{}: the relay must synthesize the lower rendition: {s:?}",
            v.label
        );
        assert!(
            v.divergence.is_finite() && v.divergence < 40.0,
            "{}: degraded leg must keep tracking the desktop, got {}",
            v.label,
            v.divergence
        );
        assert!(
            v.regions > 0,
            "{}: degraded leg must keep rendering",
            v.label
        );
    }

    // Gate 3: layering is free at the AH — egress flat vs verbatim fan-out.
    let ratio = layered.egress as f64 / verbatim.egress as f64;
    assert!(
        ratio <= 1.05,
        "AH egress must stay flat under layering: {ratio:.3}x"
    );

    // Gate 4: an all-slow subtree pulls the lower tier from the source.
    assert!(
        subtree.stats.tier_requests >= 1,
        "slow subtree must send a TierRequest upstream"
    );
    assert_eq!(
        subtree.upstream_tier,
        QualityTier::Balanced,
        "slow subtree must subscribe to Balanced upstream"
    );
    assert!(
        subtree.divergence.is_finite() && subtree.divergence < 40.0 && subtree.regions > 0,
        "slow subtree must keep rendering from the upstream Balanced feed"
    );

    // Export for obs_schema_check: registry snapshot + tier-stats document.
    emit_snapshot(&layered.sim.obs().registry, "exp_layers");
    let doc = layered.stats.to_json();
    emit_document("tier stats:", "exp_layers_tier_stats.json", doc);
}
