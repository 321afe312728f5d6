//! E17 — Health engine: OK on clean links, DEGRADED under loss, CRITICAL
//! black-box dump under a tightened SLO.
//!
//! Three typing-workload sims share one AH configuration and differ only in
//! the link and the health thresholds:
//!
//! * **clean** — lossless UDP; every rule should stay OK.
//! * **lossy** — 3% UDP loss; the loss/NACK rules should report DEGRADED.
//! * **critical** — same lossy link with the loss CRITICAL threshold pulled
//!   below the observed loss, forcing a HealthTransition and an automatic
//!   flight-recorder black-box dump.
//!
//! Emits four documents for `obs_schema_check`: the registry snapshot
//! (`adshare-obs/v1`), the event log (`adshare-obs-events/v1`), the final
//! health report (`adshare-health/v1`), and the black box
//! (`adshare-blackbox/v1`).

use std::path::Path;

use adshare_bench::{emit_document, emit_snapshot, print_table, snapshot_dir};
use adshare_netsim::udp::LinkConfig;
use adshare_obs::{HealthConfig, HealthReport, HealthStatus};
use adshare_screen::workload::{Typing, Workload};
use adshare_screen::{Desktop, Rect};
use adshare_session::{AhConfig, Layout, SimSession};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Outcome {
    report: HealthReport,
    dumps: u64,
    session: SimSession,
}

fn run(
    loss: f64,
    cfg_override: Option<HealthConfig>,
    seed: u64,
    auto_capture_dir: Option<&Path>,
) -> Outcome {
    let mut d = Desktop::new(640, 480);
    let w = d.create_window(1, Rect::new(40, 40, 280, 210), [250, 250, 250, 255]);
    let mut s = SimSession::new(d, AhConfig::default(), seed);
    if let Some(cfg) = cfg_override {
        s.obs().health.lock().unwrap().set_config(cfg);
    }
    if let Some(dir) = auto_capture_dir {
        // Black-box mode: a 3 s ring capture rides along, and the CRITICAL
        // dump references the flushed file as `capture_path`.
        s.enable_auto_capture(true, 3_000_000, dir.to_path_buf(), seed)
            .expect("consent supplied");
    }
    // Jitter only on lossy links: 5 ms of reorder on a lossless link still
    // provokes NACKs, which the loss rule would (correctly) flag.
    let link = LinkConfig {
        loss,
        delay_us: 25_000,
        jitter_us: if loss > 0.0 { 5_000 } else { 0 },
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
    for i in 0..150 {
        wl.tick(s.ah.desktop_mut(), &mut rng);
        s.step(33_333);
        // Periodic checks so CRITICAL transitions (and their dumps) fire
        // mid-run, like a supervising loop would.
        if i % 15 == 14 {
            s.obs().health_check(s.clock.now_us());
        }
    }
    let report = s.obs().health_check(s.clock.now_us());
    let dumps = s.obs().health.lock().unwrap().dumps();
    Outcome {
        report,
        dumps,
        session: s,
    }
}

fn rule_cell(report: &HealthReport, name: &str) -> String {
    report
        .rules
        .iter()
        .find(|r| r.name == name)
        .map(|r| format!("{} ({:.3})", r.status.as_str(), r.value))
        .unwrap_or_else(|| "-".into())
}

fn main() {
    let dir = snapshot_dir();
    std::fs::create_dir_all(&dir).expect("create snapshot dir");

    let clean = run(0.0, None, 300, None);
    let lossy = run(0.03, None, 400, None);
    // Pull the loss CRITICAL threshold below what a 3% link produces so the
    // engine must transition to CRITICAL and dump its black box.
    let tight = HealthConfig {
        loss: (0.005, 0.01),
        ..HealthConfig::default()
    };
    let critical = run(0.03, Some(tight), 500, Some(&dir));

    let mut rows = Vec::new();
    for (label, o) in [
        ("clean", &clean),
        ("lossy 3%", &lossy),
        ("lossy 3% + tight SLO", &critical),
    ] {
        rows.push(vec![
            label.to_string(),
            o.report.overall.as_str().to_string(),
            rule_cell(&o.report, "loss"),
            rule_cell(&o.report, "nack_rate"),
            rule_cell(&o.report, "staleness_p99"),
            format!("{}", o.dumps),
        ]);
    }
    print_table(
        "E17: health engine verdicts after a 5 s typing burst",
        &[
            "scenario",
            "overall",
            "loss",
            "nack_rate",
            "staleness_p99",
            "dumps",
        ],
        &rows,
    );
    println!("\nchecks:");
    println!("  clean link stays OK on every rule; 3% loss trips the loss/NACK rules to");
    println!("  DEGRADED; tightening the loss SLO forces CRITICAL, and the transition");
    println!("  writes exactly one flight-recorder black box.");

    assert_eq!(clean.report.overall, HealthStatus::Ok, "clean link not OK");
    assert_eq!(clean.dumps, 0, "clean link dumped a black box");
    assert!(
        lossy.report.overall >= HealthStatus::Degraded,
        "3% loss did not degrade health"
    );
    assert_eq!(
        critical.report.overall,
        HealthStatus::Critical,
        "tight SLO did not reach CRITICAL"
    );
    assert!(critical.dumps >= 1, "CRITICAL transition did not dump");

    // The CRITICAL dump must ship a replayable capture next to it.
    let engine = critical.session.obs().health.lock().unwrap();
    let blackbox = engine.last_dump().expect("CRITICAL run kept its dump");
    assert!(
        blackbox.contains("\"capture_path\""),
        "CRITICAL black box does not reference the auto-armed capture"
    );
    drop(engine);

    // Export every document kind for obs_schema_check.
    emit_snapshot(&lossy.session.obs().registry, "exp_health");
    let events = lossy.session.obs().recorder.to_json();
    emit_document("event log:", "exp_health_events.json", events);
    let report = lossy.report.to_json();
    emit_document("health report:", "exp_health_report.json", report);
    let engine = critical.session.obs().health.lock().unwrap();
    let blackbox = engine.last_dump().expect("CRITICAL run kept its dump");
    emit_document("black box:", "exp_health_blackbox.json", blackbox);
}
