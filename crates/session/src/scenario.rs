//! Adversarial scenario schedules: seeded, declarative stress tests with
//! the health engine as pass/fail oracle.
//!
//! A [`Scenario`] composes timed [`Action`]s — join/leave churn,
//! [`LinkStep`] bandwidth cliffs, BFCP floor-request storms, HID-status
//! flips — over simulated time, plus [`Expectation`]s describing the
//! health verdicts the run is allowed (and required) to produce. The
//! runner ([`run_scenario`]) drives a [`SimSession`] through the schedule,
//! evaluates the health engine on a fixed cadence, and scores the run:
//!
//! * **No false alarm** — a health report whose overall verdict exceeds an
//!   expectation window's `max` fails the scenario (a healthy system under
//!   designed-for stress must not page anyone).
//! * **No missed degradation** — a window with `min = Some(level)` in
//!   which no report reaches `level` fails the scenario (an unhealthy
//!   system must be noticed).
//!
//! Everything is derived from the scenario seed, so two runs of the same
//! schedule produce identical event logs and identical counter/gauge
//! registries (see [`registry_fingerprint`]); the property tests in
//! `tests/scenarios.rs` pin this down. On failure, the runner writes the
//! outcome document (and the engine its CRITICAL black boxes) into
//! [`Scenario::dump_dir`] for CI to upload.
//!
//! The loop itself ([`drive`]) runs over any [`World`]: the relay-topology
//! flash crowd in `adshare-relay` supplies only its joins and leaves. The
//! four concrete schedules live in [`presets`] and
//! `adshare_relay::scenario`.

use std::ops::DerefMut;
use std::path::PathBuf;

use adshare_bfcp::HidStatus;
use adshare_capture::CaptureMode;
use adshare_codec::Rect;
use adshare_netsim::udp::{LinkConfig, LinkStep};
use adshare_obs::{json, DumpSink, HealthConfig, HealthReport, HealthStatus, Obs};
use adshare_screen::desktop::Desktop;
use adshare_screen::workload::{Typing, Video, Workload};
use adshare_screen::WindowId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{AhConfig, Layout};
use crate::sim::SimSession;
use crate::world::{Relay, World};

/// Schema marker of the JSON outcome document ([`ScenarioOutcome::to_json`]).
pub const SCENARIO_SCHEMA: &str = "adshare-scenario/v1";

/// One scheduled stimulus.
#[derive(Debug, Clone)]
pub enum Action {
    /// `count` UDP viewers join (each with these link conditions).
    Join {
        /// How many viewers join at this instant.
        count: usize,
        /// Downstream link of each joiner.
        down: LinkConfig,
        /// Upstream (feedback) link of each joiner.
        up: LinkConfig,
        /// Fixed pacing rate for each joiner (`None` = unpaced).
        rate_bps: Option<u64>,
    },
    /// A viewer leaves (by join-order index).
    Leave {
        /// Participant index (assigned in join order, starting at 0).
        participant: usize,
    },
    /// Re-schedule a viewer's downstream link (bandwidth cliffs, loss
    /// steps). `LinkStep::at_us` values are absolute simulation times.
    Link {
        /// Participant index.
        participant: usize,
        /// The time-varying link schedule to install.
        steps: Vec<LinkStep>,
    },
    /// A viewer requests the BFCP floor.
    FloorRequest {
        /// Participant index.
        participant: usize,
        /// `true` routes the request over the viewer's lossy/duplicating
        /// upstream link; `false` uses the idealized reliable exchange.
        via_link: bool,
    },
    /// A viewer releases the BFCP floor (same routing choice as requests).
    FloorRelease {
        /// Participant index.
        participant: usize,
        /// See [`Action::FloorRequest::via_link`].
        via_link: bool,
    },
    /// The chair changes the HID status (draft §4.2 focus changes).
    SetHid {
        /// The new status.
        status: HidStatus,
    },
}

/// An [`Action`] pinned to a simulation instant.
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// When the action fires (µs; events at the same time fire in order).
    pub at_us: u64,
    /// What happens.
    pub action: Action,
}

/// What the health oracle may and must report inside one time window.
#[derive(Debug, Clone, Copy)]
pub struct Expectation {
    /// Window start (µs, inclusive).
    pub from_us: u64,
    /// Window end (µs, inclusive).
    pub to_us: u64,
    /// Ceiling: any report above this is a false alarm.
    pub max: HealthStatus,
    /// Floor: when set, at least one report in the window must reach this
    /// level, else the degradation was missed.
    pub min: Option<HealthStatus>,
}

/// A window constraint on the health engine's `tier` rule value (the
/// worst active quality tier across every layered sender, 0 = lossless).
/// Where [`Expectation`] scores verdicts, this scores the *mechanism*: a
/// bandwidth cliff must be answered by a tier downgrade (`min_tier`), and
/// recovery must return the session to lossless (`max_tier = 0`) instead
/// of parking on a lossy tier forever.
#[derive(Debug, Clone, Copy)]
pub struct TierExpectation {
    /// Window start (µs, inclusive).
    pub from_us: u64,
    /// Window end (µs, inclusive).
    pub to_us: u64,
    /// Floor: when set, at least one report in the window must show a
    /// tier at or above this gauge value, else the downgrade was missed.
    pub min_tier: Option<i64>,
    /// Ceiling: when set, any report in the window with a tier above this
    /// value is a violation (e.g. `Some(0)` = "must be lossless again").
    pub max_tier: Option<i64>,
}

/// The workload the AH types/plays into the shared window while the
/// schedule runs.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadKind {
    /// Text insertion at `cps` bursts per tick (light, latency-sensitive).
    Typing {
        /// Characters inserted per workload tick.
        cps: u32,
    },
    /// Full-motion video region (bandwidth-hungry; used by the cliff
    /// scenario so the link actually saturates).
    Video,
}

/// A wire-capture request attached to a scenario run.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCapture {
    /// Explicit operator consent. [`run_scenario`] panics on a schedule
    /// that requests capture without it — the gate is not bypassable by
    /// automation.
    pub consent: bool,
    /// Retention mode. A [`CaptureMode::Ring`] request on a scenario with
    /// a `dump_dir` installs the health engine's capture hook, so a
    /// CRITICAL black-box dump ships the ring capture next to it.
    pub mode: CaptureMode,
}

/// A complete declarative schedule.
#[derive(Clone)]
pub struct Scenario {
    /// Stable name (also the outcome/artifact file stem).
    pub name: String,
    /// Master seed: every link, workload and joiner seed derives from it.
    pub seed: u64,
    /// Total simulated run time (µs).
    pub duration_us: u64,
    /// The workload stops here (µs ≤ `duration_us`); the remaining quiet
    /// tail lets repair traffic drain so final convergence is meaningful.
    pub workload_until_us: u64,
    /// Fixed step size (µs).
    pub tick_us: u64,
    /// Health-oracle cadence (µs).
    pub check_interval_us: u64,
    /// AH configuration (adaptive rate, floor grant timer, …).
    pub ah: AhConfig,
    /// Health thresholds; `None` keeps [`HealthConfig::default`].
    pub health: Option<HealthConfig>,
    /// What the AH does on screen.
    pub workload: WorkloadKind,
    /// The schedule (sorted by the runner; same-time events keep order).
    pub events: Vec<TimedEvent>,
    /// The oracle windows.
    pub expectations: Vec<Expectation>,
    /// Quality-tier windows (empty = no tier constraints).
    pub tier_expectations: Vec<TierExpectation>,
    /// Assert chair/client floor agreement after every step.
    pub check_floor: bool,
    /// Where failure artifacts (outcome JSON, CRITICAL black boxes) go.
    pub dump_dir: Option<PathBuf>,
    /// Consent-gated wire capture of the run (`None` = off).
    pub capture: Option<ScenarioCapture>,
}

impl Scenario {
    /// A schedule skeleton with the standard tick (30 Hz), a 500 ms health
    /// cadence, typing workload for the full duration, and a whole-run
    /// "never CRITICAL" expectation.
    pub fn new(name: &str, seed: u64, duration_us: u64) -> Self {
        Scenario {
            name: name.to_string(),
            seed,
            duration_us,
            workload_until_us: duration_us,
            tick_us: 33_333,
            check_interval_us: 500_000,
            ah: AhConfig::default(),
            health: None,
            workload: WorkloadKind::Typing { cps: 2 },
            events: Vec::new(),
            expectations: vec![Expectation {
                from_us: 0,
                to_us: duration_us,
                max: HealthStatus::Degraded,
                min: None,
            }],
            tier_expectations: Vec::new(),
            check_floor: false,
            dump_dir: None,
            capture: None,
        }
    }

    /// Append an action at `at_us`.
    pub fn at(mut self, at_us: u64, action: Action) -> Self {
        self.events.push(TimedEvent { at_us, action });
        self
    }

    /// Append an expectation window.
    pub fn expect(mut self, e: Expectation) -> Self {
        self.expectations.push(e);
        self
    }

    /// Append a quality-tier window.
    pub fn expect_tier(mut self, e: TierExpectation) -> Self {
        self.tier_expectations.push(e);
        self
    }
}

/// One scored run of a [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Seed the run used.
    pub seed: u64,
    /// `violations.is_empty()`.
    pub passed: bool,
    /// Oracle violations (false alarms, missed degradations, floor
    /// disagreements), in detection order.
    pub violations: Vec<String>,
    /// Every health report, in evaluation order.
    pub reports: Vec<HealthReport>,
    /// Deterministic event log: one line per applied action and health
    /// check, all derived from virtual time.
    pub log: Vec<String>,
    /// Worst overall verdict any report carried.
    pub worst: HealthStatus,
    /// Whether every still-active viewer ended pixel-identical to the AH.
    pub converged: bool,
    /// Viewers still active at the end.
    pub active_participants: usize,
}

impl ScenarioOutcome {
    /// Serialize as an `adshare-scenario/v1` document (see
    /// `schemas/scenario_result.schema.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("schema", SCENARIO_SCHEMA)
                .str("name", &self.name)
                .u64("seed", self.seed)
                .bool("passed", self.passed)
                .u64("checks", self.reports.len() as u64)
                .str("worst", self.worst.as_str())
                .bool("converged", self.converged)
                .u64("active_participants", self.active_participants as u64)
                .u64("log_lines", self.log.len() as u64)
                .array("violations", |items| {
                    for v in &self.violations {
                        items.str(v);
                    }
                });
        })
    }

    /// Write the outcome document (always) and, on failure, the full event
    /// log next to it. Directory is created as needed; errors are
    /// propagated so CI fails loudly rather than uploading nothing.
    pub fn write_artifacts(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("scenario_{}.json", self.name)),
            self.to_json(),
        )?;
        if !self.passed {
            std::fs::write(
                dir.join(format!("scenario_{}.log", self.name)),
                self.log.join("\n"),
            )?;
        }
        Ok(())
    }
}

/// Score `reports` against `expectations`: returns one violation string
/// per false alarm and per missed degradation ([`drive`] scores every
/// run with it).
pub fn evaluate_expectations(
    expectations: &[Expectation],
    reports: &[HealthReport],
) -> Vec<String> {
    let mut violations = Vec::new();
    for e in expectations {
        let window: Vec<&HealthReport> = reports
            .iter()
            .filter(|r| r.at_us >= e.from_us && r.at_us <= e.to_us)
            .collect();
        for r in &window {
            if r.overall > e.max {
                let culprits: Vec<&str> = r
                    .rules
                    .iter()
                    .filter(|rule| rule.status > e.max)
                    .map(|rule| rule.name)
                    .collect();
                violations.push(format!(
                    "false {} at {} µs in [{}, {}] µs (rules: {})",
                    r.overall.as_str(),
                    r.at_us,
                    e.from_us,
                    e.to_us,
                    culprits.join(", ")
                ));
            }
        }
        if let Some(min) = e.min {
            if !window.iter().any(|r| r.overall >= min) {
                violations.push(format!(
                    "missed degradation: no report reached {} in [{}, {}] µs ({} checks)",
                    min.as_str(),
                    e.from_us,
                    e.to_us,
                    window.len()
                ));
            }
        }
    }
    violations
}

/// Score `reports` against [`TierExpectation`] windows using each
/// report's `tier` rule value.
pub fn evaluate_tier_expectations(
    expectations: &[TierExpectation],
    reports: &[HealthReport],
) -> Vec<String> {
    let tier_of = |r: &HealthReport| -> i64 {
        r.rules
            .iter()
            .find(|rule| rule.name == "tier")
            .map_or(0, |rule| rule.value as i64)
    };
    let mut violations = Vec::new();
    for e in expectations {
        let window: Vec<&HealthReport> = reports
            .iter()
            .filter(|r| r.at_us >= e.from_us && r.at_us <= e.to_us)
            .collect();
        if let Some(max) = e.max_tier {
            for r in &window {
                let t = tier_of(r);
                if t > max {
                    violations.push(format!(
                        "tier {} above ceiling {} at {} µs in [{}, {}] µs",
                        t, max, r.at_us, e.from_us, e.to_us
                    ));
                }
            }
        }
        if let Some(min) = e.min_tier {
            if !window.iter().any(|r| tier_of(r) >= min) {
                violations.push(format!(
                    "missed tier downgrade: no report reached tier {} in [{}, {}] µs ({} checks)",
                    min,
                    e.from_us,
                    e.to_us,
                    window.len()
                ));
            }
        }
    }
    violations
}

/// Counter/gauge registry fingerprint for determinism checks. Histograms
/// are excluded: the pipeline stage histograms record wall-clock encode
/// and decode times, which legitimately vary between runs. The encoder's
/// `*_us_total` counters accumulate the same wall-clock samples, so they
/// are excluded too; every other counter and gauge is a pure function of
/// the virtual-time schedule and seed.
pub fn registry_fingerprint(obs: &Obs) -> String {
    use adshare_obs::MetricSnapshot;
    let snap = obs.registry.snapshot();
    let mut out = String::new();
    for (name, m) in &snap.metrics {
        if name.ends_with("_us_total") {
            continue;
        }
        match m {
            MetricSnapshot::Counter(v) => out.push_str(&format!("{name}={v}\n")),
            MetricSnapshot::Gauge(v) => out.push_str(&format!("{name}={v}\n")),
            MetricSnapshot::Histogram(_) => {}
        }
    }
    out
}

/// Per-joiner seed, derived from the master seed and the join ordinal so
/// schedules are reproducible regardless of when a joiner appears.
fn joiner_seed(master: u64, ordinal: usize) -> u64 {
    master ^ (ordinal as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5
}

/// Drive a [`SimSession`] through the schedule and score it. Returns the
/// outcome plus the final session so callers can assert domain invariants
/// (rate decreases, floor stats, relay counters) on top of the oracle.
pub fn run_scenario(scn: &Scenario) -> (ScenarioOutcome, SimSession) {
    let mut desktop = Desktop::new(640, 480);
    let win = desktop.create_window(1, Rect::new(30, 30, 300, 220), [250, 250, 250, 255]);
    let mut s = SimSession::new(desktop, scn.ah.clone(), scn.seed);
    let mut joined = 0usize;
    let (outcome, _) = drive(scn, &mut s, win, |s, action, now, log| {
        apply_action(s, action, scn, &mut joined, now, log)
    });
    (outcome, s)
}

/// The one scenario loop, over any world — a `&mut SimSession` or a
/// relay tree: arm health and capture as `scn` asks, then every tick
/// apply the due events through `apply` (the builder's meaning of an
/// [`Action`], logging what it did), tick the workload into `win`, step,
/// check floor agreement and the health cadence; finally score the
/// reports and write the artifacts. Returns the outcome and `s`.
pub fn drive<R: Relay, S: DerefMut<Target = World<R>>>(
    scn: &Scenario,
    mut s: S,
    win: WindowId,
    mut apply: impl FnMut(&mut S, &Action, u64, &mut Vec<String>),
) -> (ScenarioOutcome, S) {
    {
        let mut engine = s.obs().health.lock().unwrap();
        if let Some(cfg) = &scn.health {
            engine.set_config(cfg.clone());
        }
        if let Some(dir) = &scn.dump_dir {
            engine.set_sink(DumpSink::Dir(dir.clone()));
        }
    }
    if let Some(c) = scn.capture {
        match (c.mode, &scn.dump_dir) {
            (CaptureMode::Ring { window_us }, Some(dir)) => {
                // Black-box mode: the ring rides along at bounded cost and
                // the health engine flushes it next to a CRITICAL dump.
                s.enable_auto_capture(c.consent, window_us, dir.clone(), scn.seed)
                    .expect("scenario requested capture without consent");
            }
            _ => {
                s.arm_capture(c.consent, c.mode, scn.seed)
                    .expect("scenario requested capture without consent");
            }
        }
    }

    let mut workload: Box<dyn Workload> = match scn.workload {
        WorkloadKind::Typing { cps } => Box::new(Typing::new(win, cps)),
        WorkloadKind::Video => Box::new(Video::new(win, Rect::new(20, 20, 240, 180))),
    };
    let mut rng = StdRng::seed_from_u64(scn.seed ^ 0x5EED);

    let mut events = scn.events.clone();
    events.sort_by_key(|e| e.at_us);
    let mut next_event = 0usize;

    let mut log: Vec<String> = Vec::new();
    let mut reports: Vec<HealthReport> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let mut last_check_us = 0u64;

    while s.clock.now_us() < scn.duration_us {
        let now = s.clock.now_us();
        while next_event < events.len() && events[next_event].at_us <= now {
            apply(&mut s, &events[next_event].action, now, &mut log);
            next_event += 1;
        }
        if now < scn.workload_until_us {
            workload.tick(s.ah.desktop_mut(), &mut rng);
        }
        s.step(scn.tick_us);
        if scn.check_floor && !s.floor_consistent() {
            violations.push(format!(
                "floor disagreement at {} µs: chair and clients differ on the holder",
                s.clock.now_us()
            ));
        }
        if s.clock.now_us().saturating_sub(last_check_us) >= scn.check_interval_us {
            let r = s.obs().health_check(s.clock.now_us());
            log.push(format!("{} health {}", r.at_us, r.overall.as_str()));
            reports.push(r);
            last_check_us = s.clock.now_us();
        }
    }
    let r = s.obs().health_check(s.clock.now_us());
    log.push(format!("{} health {}", r.at_us, r.overall.as_str()));
    reports.push(r);

    violations.extend(evaluate_expectations(&scn.expectations, &reports));
    violations.extend(evaluate_tier_expectations(&scn.tier_expectations, &reports));
    let worst = reports
        .iter()
        .map(|r| r.overall)
        .max()
        .unwrap_or(HealthStatus::Ok);
    let active: Vec<usize> = (0..s.participant_count())
        .filter(|&i| s.is_active(i))
        .collect();
    let converged = active.iter().all(|&i| s.converged(i));

    let outcome = ScenarioOutcome {
        name: scn.name.clone(),
        seed: scn.seed,
        passed: violations.is_empty(),
        violations,
        reports,
        log,
        worst,
        converged,
        active_participants: active.len(),
    };
    if let Some(dir) = &scn.dump_dir {
        // Best-effort here; exp binaries call write_artifacts themselves
        // when they need the error.
        let _ = outcome.write_artifacts(dir);
    }
    (outcome, s)
}

fn apply_action(
    s: &mut SimSession,
    action: &Action,
    scn: &Scenario,
    joined: &mut usize,
    now: u64,
    log: &mut Vec<String>,
) {
    match action {
        Action::Join {
            count,
            down,
            up,
            rate_bps,
        } => {
            for _ in 0..*count {
                let seed = joiner_seed(scn.seed, *joined);
                let idx = s.add_udp_participant(Layout::Original, *down, *up, *rate_bps, seed);
                *joined += 1;
                log.push(format!("{now} join {idx}"));
            }
        }
        Action::Leave { participant } => {
            s.remove_participant(*participant);
            log.push(format!("{now} leave {participant}"));
        }
        Action::Link { participant, steps } => {
            if s.is_active(*participant) {
                s.set_link_schedule(*participant, steps.clone());
                log.push(format!("{now} link {participant} ({} steps)", steps.len()));
            }
        }
        Action::FloorRequest {
            participant,
            via_link,
        } => {
            if s.is_active(*participant) {
                if *via_link {
                    s.request_floor_linked(*participant);
                } else {
                    s.request_floor(*participant);
                }
                log.push(format!("{now} floor-request {participant}"));
            }
        }
        Action::FloorRelease {
            participant,
            via_link,
        } => {
            if s.is_active(*participant) {
                if *via_link {
                    s.release_floor_linked(*participant);
                } else {
                    s.release_floor(*participant);
                }
                log.push(format!("{now} floor-release {participant}"));
            }
        }
        Action::SetHid { status } => {
            s.set_hid_status(*status);
            log.push(format!("{now} hid {status:?}"));
        }
    }
}

/// The three direct-topology schedules of the adversarial suite (the
/// relay flash crowd lives in `adshare_relay::scenario`).
pub mod presets {
    use super::*;

    fn mild(loss: f64) -> LinkConfig {
        LinkConfig {
            loss,
            delay_us: 20_000,
            ..LinkConfig::default()
        }
    }

    /// Sustained viewer churn: three initial viewers, then a join+leave
    /// pair every 1.5 s for eight rounds over mildly lossy links. Every
    /// joiner's PLI-served refresh and every leaver's teardown must pass
    /// without a CRITICAL verdict, and the survivors must converge.
    pub fn churn(seed: u64) -> Scenario {
        let mut scn = Scenario::new("churn", seed, 20_000_000);
        scn.workload_until_us = 17_000_000;
        scn = scn.at(
            0,
            Action::Join {
                count: 3,
                down: mild(0.01),
                up: mild(0.0),
                rate_bps: None,
            },
        );
        for round in 0..8u64 {
            let at = 1_500_000 + round * 1_500_000;
            scn = scn
                .at(
                    at,
                    Action::Join {
                        count: 1,
                        down: mild(0.01),
                        up: mild(0.0),
                        rate_bps: None,
                    },
                )
                .at(
                    at + 200_000,
                    Action::Leave {
                        participant: round as usize,
                    },
                );
        }
        scn
    }

    /// Mid-session bandwidth cliff: one adaptive viewer playing video on a
    /// 6 Mb/s link that collapses to 2 Mb/s at t = 4 s and recovers at
    /// t = 9 s. The AIMD controller must down-shift (the caller asserts
    /// `rate_decreases > 0`), the oracle must notice the constrained phase
    /// (DEGRADED required in [5 s, 9 s]), never page (no CRITICAL), and
    /// the quiet tail must end in lossless repair (converged).
    ///
    /// The tier windows pin the *mechanism*: the cliff must be answered
    /// by a quality-tier downgrade (tier ≥ 1 in [5 s, 9 s] — degrading,
    /// not starving or paging), and once the link lifts the additive
    /// increase must walk the session back to lossless (tier 0 over the
    /// final second).
    ///
    /// The pacer's ceiling sits below the full link rate so the pre-cliff
    /// phase is comfortable; the cliff then oversubscribes the link ~1.5×,
    /// which is real congestion but bounded. Because the congestion is
    /// *designed in*, the scenario raises the paging (CRITICAL) ceilings —
    /// the oracle here tests "noticed but did not page", and the stock SLOs
    /// would page on the very storm the schedule manufactures.
    pub fn bandwidth_cliff(seed: u64) -> Scenario {
        let full = LinkConfig {
            loss: 0.005,
            delay_us: 15_000,
            jitter_us: 2_000,
            rate_bps: Some(6_000_000),
            ..LinkConfig::default()
        };
        let cliff = LinkConfig {
            rate_bps: Some(2_000_000),
            ..full
        };
        let mut scn = Scenario::new("bandwidth_cliff", seed, 18_000_000);
        scn.workload = WorkloadKind::Video;
        scn.workload_until_us = 11_000_000;
        scn.ah = AhConfig {
            adaptive_rate: Some(adshare_rate::RateConfig {
                initial_bps: 2_500_000,
                ceiling_bps: 3_000_000,
                // The join leg is paced at 2.5 Mb/s; tier upgrades need
                // rate >= threshold x 1.15 hysteresis, so the lossless
                // bar must sit below 2.5M / 1.15 or recovery is
                // unreachable. 2.0M keeps the cliff (~1.47M estimate)
                // firmly in Balanced while letting the lifted link
                // climb back to Lossless.
                lossless_above_bps: 2_000_000,
                ..adshare_rate::RateConfig::default()
            }),
            ..AhConfig::default()
        };
        // The 2 s health window integrates the pre-downshift storm: a 1.5×
        // oversubscribed pacer loses ~1/3 of packets (plus lost repairs)
        // until two AIMD decreases land, so windowed loss peaks near 0.4.
        scn.health = Some(HealthConfig {
            loss: (0.02, 0.5),
            nack_rate: (2.0, 60.0),
            staleness_p99_us: (400_000, 3_000_000),
        });
        scn = scn
            .at(
                0,
                Action::Join {
                    count: 1,
                    down: full,
                    up: mild(0.0),
                    rate_bps: Some(2_500_000),
                },
            )
            .at(
                100_000,
                Action::Link {
                    participant: 0,
                    steps: vec![
                        LinkStep {
                            at_us: 4_000_000,
                            cfg: cliff,
                        },
                        LinkStep {
                            at_us: 9_000_000,
                            cfg: full,
                        },
                    ],
                },
            )
            .expect(Expectation {
                from_us: 5_000_000,
                to_us: 9_000_000,
                max: HealthStatus::Degraded,
                min: Some(HealthStatus::Degraded),
            })
            .expect_tier(TierExpectation {
                from_us: 5_000_000,
                to_us: 9_000_000,
                min_tier: Some(1),
                max_tier: None,
            })
            .expect_tier(TierExpectation {
                from_us: 17_000_000,
                to_us: 18_000_000,
                min_tier: None,
                max_tier: Some(0),
            });
        scn
    }

    /// BFCP control-handoff storm: six viewers fight over the floor with a
    /// 800 ms grant timer, requests travel duplicating upstream links (the
    /// chair must stay idempotent), and the chair flips the HID status
    /// every second. Chair/client agreement is checked after every step.
    pub fn floor_storm(seed: u64) -> Scenario {
        let dup = LinkConfig {
            loss: 0.0,
            duplicate: 0.10,
            delay_us: 20_000,
            jitter_us: 5_000,
            ..LinkConfig::default()
        };
        let mut scn = Scenario::new("floor_storm", seed, 14_000_000);
        scn.workload_until_us = 12_000_000;
        scn.check_floor = true;
        scn.ah = AhConfig {
            floor_grant_us: Some(800_000),
            ..AhConfig::default()
        };
        scn = scn.at(
            0,
            Action::Join {
                count: 6,
                down: mild(0.0),
                up: dup,
                rate_bps: None,
            },
        );
        let hid_cycle = [
            HidStatus::AllAllowed,
            HidStatus::MouseAllowed,
            HidStatus::KeyboardAllowed,
            HidStatus::NotAllowed,
        ];
        for round in 0..24u64 {
            let at = 1_000_000 + round * 400_000;
            scn = scn
                .at(
                    at,
                    Action::FloorRequest {
                        participant: (round % 6) as usize,
                        via_link: true,
                    },
                )
                .at(
                    at + 150_000,
                    Action::FloorRelease {
                        participant: ((round + 3) % 6) as usize,
                        via_link: true,
                    },
                );
            if round % 3 == 0 {
                scn = scn.at(
                    at + 50_000,
                    Action::SetHid {
                        status: hid_cycle[(round as usize / 3) % hid_cycle.len()],
                    },
                );
            }
        }
        scn
    }
}
