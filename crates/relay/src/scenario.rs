//! Relay-topology adversarial scenario: the late-join flash crowd.
//!
//! The direct-topology schedules live in `adshare_session::scenario`; this
//! module runs its loop ([`drive`]) and oracle on the one schedule that
//! needs a relay tier — a storm of late joiners all arriving inside a
//! single refresh interval, which must be absorbed by the relay's
//! shadow-state catch-up ([`crate::RelayNode`]) rather than escalating a
//! PLI-per-joiner to the AH. Optionally half the crowd churns back out
//! mid-run, exercising [`crate::RelayNode::close_leg`] under load.
//!
//! The pass/fail oracle is the same health engine: no report may exceed
//! the expectation ceiling (no false CRITICAL) and windows with a floor
//! must be reached (no missed degradation). Domain invariants — catch-ups
//! served ≥ joiners, upstream PLIs bounded, survivors converged — are
//! asserted by the callers in `tests/scenarios.rs` on the returned
//! [`RelaySim`].

use std::path::PathBuf;

use adshare_codec::image::Rect;
use adshare_netsim::udp::LinkConfig;
use adshare_obs::{HealthConfig, HealthStatus};
use adshare_screen::desktop::Desktop;
use adshare_sdp::OfferParams;
use adshare_session::scenario::{
    drive, Action, Expectation, Scenario, ScenarioCapture, ScenarioOutcome,
};
use adshare_session::{AhConfig, Layout};

use crate::sim::{RelaySim, Upstream};
use crate::RelayConfig;

/// Declarative flash-crowd schedule (all times in µs of virtual time).
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Master seed; per-joiner link seeds derive from it.
    pub seed: u64,
    /// Size of the storm.
    pub joiners: usize,
    /// When the first storm joiner arrives. Must leave the relay enough
    /// warm-up to sync its shadow state from the AH.
    pub join_start_us: u64,
    /// The storm is spread uniformly over this window. The default keeps
    /// it inside one catch-up refresh interval (500 ms), so every joiner
    /// hits the shadow-state path while the per-leg throttles are cold.
    pub join_window_us: u64,
    /// When set, the first half of the storm leaves again at this instant.
    pub leave_half_at_us: Option<u64>,
    /// Total simulated run time.
    pub duration_us: u64,
    /// The AH workload stops here; the quiet tail drains repairs so the
    /// final convergence check is meaningful.
    pub workload_until_us: u64,
    /// Step size.
    pub tick_us: u64,
    /// Health-oracle cadence.
    pub check_interval_us: u64,
    /// Health thresholds; `None` keeps the defaults.
    pub health: Option<HealthConfig>,
    /// Oracle windows (same semantics as the direct-topology runner).
    pub expectations: Vec<Expectation>,
    /// Failure artifact directory (outcome JSON, CRITICAL black boxes).
    pub dump_dir: Option<PathBuf>,
    /// Consent-gated wire capture of the run (`None` = off), as in a
    /// direct-topology [`Scenario`].
    pub capture: Option<ScenarioCapture>,
}

impl FlashCrowd {
    /// The canonical storm: 100 joiners inside 400 ms (one refresh
    /// interval), arriving after a 2 s warm-up, half leaving at 8 s, with
    /// a whole-run "never worse than DEGRADED" expectation.
    pub fn new(seed: u64) -> Self {
        let duration_us = 14_000_000;
        FlashCrowd {
            seed,
            joiners: 100,
            join_start_us: 2_000_000,
            join_window_us: 400_000,
            leave_half_at_us: Some(8_000_000),
            duration_us,
            workload_until_us: 11_000_000,
            tick_us: 33_333,
            check_interval_us: 500_000,
            health: None,
            expectations: vec![Expectation {
                from_us: 0,
                to_us: duration_us,
                max: HealthStatus::Degraded,
                min: None,
            }],
            dump_dir: None,
            capture: None,
        }
    }
}

fn joiner_seed(master: u64, ordinal: usize) -> u64 {
    master ^ (ordinal as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF1A5
}

/// Drive a [`RelaySim`] through the flash crowd with the scenario loop
/// and oracle of `adshare_session::scenario`. Returns the outcome plus the
/// final sim so callers can assert relay counters (`catchups_served`,
/// `plis_upstream`) on top.
pub fn run_flash_crowd(fc: &FlashCrowd) -> (ScenarioOutcome, RelaySim) {
    let mut desktop = Desktop::new(640, 480);
    let win = desktop.create_window(1, Rect::new(30, 30, 260, 180), [250, 250, 250, 255]);
    let mut sim = RelaySim::new(
        desktop,
        AhConfig::default(),
        &OfferParams::default(),
        fc.seed,
    );
    let clean = LinkConfig {
        loss: 0.0,
        delay_us: 10_000,
        ..LinkConfig::default()
    };
    let relay = sim.add_relay(
        Upstream::Ah,
        RelayConfig::default(),
        clean,
        clean,
        fc.seed ^ 0x2E1A,
    );

    let mut scn = Scenario::new("flash_crowd", fc.seed, fc.duration_us);
    scn.workload_until_us = fc.workload_until_us;
    scn.tick_us = fc.tick_us;
    scn.check_interval_us = fc.check_interval_us;
    scn.health = fc.health.clone();
    scn.expectations = fc.expectations.clone();
    scn.dump_dir = fc.dump_dir.clone();
    scn.capture = fc.capture;
    let join = Action::Join {
        count: 1,
        down: clean,
        up: clean,
        rate_bps: None,
    };
    for i in 0..fc.joiners as u64 {
        // Join instants, spread uniformly across the window.
        let at = fc.join_start_us + fc.join_window_us * i / fc.joiners.max(1) as u64;
        scn = scn.at(at, join.clone());
    }
    if let Some(at) = fc.leave_half_at_us {
        for participant in 0..fc.joiners / 2 {
            scn = scn.at(at, Action::Leave { participant });
        }
    }
    drive(&scn, sim, win, |sim, action, now, log| match *action {
        Action::Join {
            count,
            down,
            up,
            rate_bps,
        } => {
            for _ in 0..count {
                let seed = joiner_seed(fc.seed, sim.participant_count());
                let idx =
                    sim.add_participant_rate(relay, Layout::Original, down, up, seed, rate_bps);
                log.push(format!("{now} join {idx}"));
            }
        }
        Action::Leave { participant } => {
            sim.remove_participant(participant);
            log.push(format!("{now} leave {participant}"));
        }
        _ => {}
    })
}
