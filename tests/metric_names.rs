//! Golden registry names: every metric a direct session (one UDP, one TCP
//! and one multicast participant under an adaptive rate) and a relay tree
//! with one layered leg export, as sorted `name kind` lines.
//!
//! Registry names are an interface — health rules match on suffixes
//! (`.rate.rate_bps`, `.tier`), `Snapshot::sum_counters_with` on prefixes
//! and suffixes, `registry_fingerprint` feeds the scenario determinism
//! checks — so a refactor of how metric sets are *declared* must not move
//! one. The fixture was generated on the commit *before* the
//! `metric_set!` declarations replaced the hand-kept `adopt_*` lists and
//! must keep passing without regeneration. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test metric_names` only when a metric is
//! added, renamed or removed on purpose.

use adshare::obs::{MetricSnapshot, Obs};
use adshare::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const STEP_US: u64 = 10_000;

fn names(out: &mut String, section: &str, obs: &Obs) {
    for (name, metric) in &obs.registry.snapshot().metrics {
        let kind = match metric {
            MetricSnapshot::Counter(_) => "counter",
            MetricSnapshot::Gauge(_) => "gauge",
            MetricSnapshot::Histogram(_) => "histogram",
        };
        out.push_str(&format!("{section} {name} {kind}\n"));
    }
}

fn typing_desktop() -> (Desktop, Typing) {
    let mut d = Desktop::new(320, 240);
    let doc = d.create_window(1, Rect::new(20, 20, 200, 140), [250, 250, 250, 255]);
    (d, Typing::new(doc, 3))
}

fn direct(out: &mut String) {
    let (d, mut typing) = typing_desktop();
    let cfg = AhConfig {
        adaptive_rate: Some(RateConfig::default()),
        ..AhConfig::default()
    };
    let mut s = SimSession::new(d, cfg, 11);
    let link = LinkConfig {
        delay_us: 5_000,
        ..Default::default()
    };
    s.add_udp_participant(Layout::Original, link, link, None, 12);
    s.add_tcp_participant(Layout::Original, TcpConfig::default(), link, 13);
    let group = s.create_multicast_session(None);
    s.add_multicast_participant_in(group, Layout::Original, link, link, 14);
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..30 {
        typing.tick(s.ah.desktop_mut(), &mut rng);
        for _ in 0..3 {
            s.step(STEP_US);
        }
    }
    names(out, "direct", s.obs());
}

fn relay(out: &mut String) {
    let (d, mut typing) = typing_desktop();
    let link = LinkConfig {
        delay_us: 5_000,
        ..Default::default()
    };
    let mut sim = RelaySim::new(d, AhConfig::default(), &OfferParams::default(), 21);
    let layered = RelayConfig {
        layers: Some(LayersConfig::default()),
        ..RelayConfig::default()
    };
    let r0 = sim.add_relay(Upstream::Ah, layered, link, link, 22);
    sim.add_participant(r0, Layout::Original, link, link, 23);
    let mut rng = StdRng::seed_from_u64(24);
    for _ in 0..30 {
        typing.tick(sim.ah.desktop_mut(), &mut rng);
        for _ in 0..3 {
            sim.step(STEP_US);
        }
    }
    names(out, "relay", sim.obs());
}

#[test]
fn registry_names_match_golden_list() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/metric_names.txt"
    );
    let mut produced =
        String::from("# <run> <metric name> <kind> — regenerate with UPDATE_GOLDEN=1\n");
    direct(&mut produced);
    relay(&mut produced);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &produced).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path} ({e}); run with UPDATE_GOLDEN=1")
    });
    for (got, want) in produced.lines().zip(expected.lines()) {
        assert_eq!(got, want, "registry names changed");
    }
    assert_eq!(produced.lines().count(), expected.lines().count());
}
