//! The SLO health engine: rolling-window rules over registry metrics and
//! the flight-recorder event stream, with anomaly-triggered black-box dumps.
//!
//! Each [`HealthEngine::check`] call evaluates seven built-in rules (loss
//! fraction, NACK rate, frame-staleness p99, TCP backlog-skip ratio,
//! encode-cache hit rate, estimator floor-pinned time, worst active
//! quality tier) against the last 2 s (`WINDOW_US`) of recorder events
//! plus the current registry snapshot, producing a typed [`HealthReport`]
//! with an OK / DEGRADED / CRITICAL verdict per rule. A transition *into*
//! CRITICAL dumps the black box — ring contents, registry snapshot, and the
//! triggering report — to the configured [`DumpSink`], so the sequence of
//! events that led to the incident survives it.
//!
//! Adding a rule: compute a value and thresholds in `check`, call
//! `rule(...)`, and document the thresholds in DESIGN.md §10.

use crate::events::{self, Event, EventKind, FlightRecorder};
use crate::json;
use crate::registry::{MetricSnapshot, Registry, Snapshot};

/// Schema marker for the JSON health-report export.
pub const HEALTH_SCHEMA: &str = "adshare-health/v1";
/// Schema marker for the black-box dump (report + events + snapshot).
pub const BLACKBOX_SCHEMA: &str = "adshare-blackbox/v1";

/// Per-rule (and overall) verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthStatus {
    /// Within thresholds.
    Ok,
    /// Above the degraded threshold: the session works but users notice.
    Degraded,
    /// Above the critical threshold: triggers a black-box dump.
    Critical,
}

impl HealthStatus {
    /// Stable uppercase name used in reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ok => "OK",
            HealthStatus::Degraded => "DEGRADED",
            HealthStatus::Critical => "CRITICAL",
        }
    }
}

/// One evaluated rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleReport {
    /// Stable rule name (`loss`, `nack_rate`, `staleness_p99`, …).
    pub name: &'static str,
    /// Verdict for this window.
    pub status: HealthStatus,
    /// Observed value (unit documented per rule in DESIGN.md §10).
    pub value: f64,
    /// The degraded threshold the value is compared against.
    pub threshold: f64,
    /// Human-readable context (window size, sample counts).
    pub detail: String,
}

/// The result of one health evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Virtual time of the evaluation.
    pub at_us: u64,
    /// Worst rule verdict.
    pub overall: HealthStatus,
    /// Every rule, in fixed order.
    pub rules: Vec<RuleReport>,
}

impl HealthReport {
    /// Serialize as an `adshare-health/v1` document (see
    /// `schemas/health_report.schema.json`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.str("schema", HEALTH_SCHEMA)
                .u64("at_us", self.at_us)
                .str("overall", self.overall.as_str())
                .array("rules", |rules| {
                    for r in &self.rules {
                        rules.object(|o| {
                            o.str("name", r.name)
                                .str("status", r.status.as_str())
                                .f64("value", r.value)
                                .f64("threshold", r.threshold)
                                .str("detail", &r.detail);
                        });
                    }
                });
        })
    }

    /// Multi-line human-readable rendering (printed by `adshare-demo sim`).
    pub fn render(&self) -> String {
        let mut out = format!("health @ {} µs: {}\n", self.at_us, self.overall.as_str());
        for r in &self.rules {
            out.push_str(&format!(
                "  {:<13} {:<9} value {:>10.4}  threshold {:>10.4}  {}\n",
                r.name,
                r.status.as_str(),
                r.value,
                r.threshold,
                r.detail
            ));
        }
        out
    }
}

/// Where black-box dumps go. The last dump is always retrievable in memory
/// via [`HealthEngine::last_dump`] regardless of the sink.
#[derive(Debug, Clone, Default)]
pub enum DumpSink {
    /// Keep the dump in memory only (tests, simulations).
    #[default]
    Memory,
    /// Additionally write `blackbox_<at_us>.json` into this directory.
    Dir(std::path::PathBuf),
}

/// Rolling evaluation window over the event stream (µs).
const WINDOW_US: u64 = 2_000_000;

/// The bandwidth estimator's default floor, bits/second: the lowest rate
/// `adshare-rate`'s `RateConfig::default` may report, and the level at or
/// below which the floor-pinned rule counts a `*.rate.rate_bps` gauge as
/// pinned.
pub const ESTIMATOR_FLOOR_BPS: u64 = 128_000;

/// TCP freshest-frame skips / (skips + sends) in window: DEGRADED,
/// CRITICAL.
const BACKLOG_SKIP: (f64, f64) = (0.10, 0.50);

/// Encode-cache hit rate *floor* (DEGRADED below; no CRITICAL tier — a
/// cold cache is slow, not an incident).
const CACHE_HIT_FLOOR: f64 = 0.05;

/// Minimum tiles in window before the cache rule engages.
const CACHE_MIN_TILES: u64 = 64;

/// Time (µs) the estimator may sit at its floor rate before DEGRADED /
/// CRITICAL.
const FLOOR_PINNED_US: (u64, u64) = (1_000_000, 5_000_000);

/// Quality-tier gauge value (`*.tier`, 0 = lossless … 2 = economy) at or
/// above which the tier rule reports DEGRADED. A deliberate layered
/// downgrade is visible but never CRITICAL — the whole point of simulcast
/// tiers is that degrading beats starving, so the rule keeps a downgraded
/// subtree out of the black-box path while still failing a scenario that
/// *expects* lossless.
const TIER_DEGRADED: i64 = 1;

/// Thresholds of the rules that tests and scenarios tighten or loosen.
/// Per rule: the first value trips DEGRADED, the second CRITICAL. The
/// window and the other rules' thresholds are constants of this module.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Loss fraction (NACKed sequences / packets sent in window). Set by
    /// `tests/health_e2e.rs`, `tests/capture_replay.rs`,
    /// `tests/documents.rs`, the `bandwidth_cliff` scenario, `RelaySim`'s
    /// dump test and `exp_health`.
    pub loss: (f64, f64),
    /// NACK messages received per second. Set by `tests/documents.rs` and
    /// the `bandwidth_cliff` scenario.
    pub nack_rate: (f64, f64),
    /// Frame-staleness p99 (µs): damage observed → delivered, over the
    /// `FrameDelivered` events in the rolling window. Set by the
    /// `bandwidth_cliff` scenario.
    pub staleness_p99_us: (u64, u64),
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            loss: (0.02, 0.15),
            nack_rate: (2.0, 20.0),
            staleness_p99_us: (400_000, 2_000_000),
        }
    }
}

/// Human-readable actor name for rule details: participant/leg events are
/// tagged with their index; the AH and relay use reserved sentinel ids.
fn actor_name(actor: u16) -> String {
    match actor {
        events::ACTOR_AH => "ah".to_string(),
        events::ACTOR_RELAY => "relay".to_string(),
        id if id & events::ACTOR_LEG_BASE != 0 => {
            format!("relay leg {}", id & !events::ACTOR_LEG_BASE)
        }
        id => format!("participant {id}"),
    }
}

fn rule(
    name: &'static str,
    value: f64,
    degraded: f64,
    critical: f64,
    detail: String,
) -> RuleReport {
    let status = if value >= critical {
        HealthStatus::Critical
    } else if value >= degraded {
        HealthStatus::Degraded
    } else {
        HealthStatus::Ok
    };
    RuleReport {
        name,
        status,
        value,
        threshold: degraded,
        detail,
    }
}

/// The engine: rolling-rule state plus the dump machinery. Lives behind a
/// mutex inside [`Obs`](crate::Obs); use
/// [`Obs::health_check`](crate::Obs::health_check) from pipeline code.
#[derive(Default)]
pub struct HealthEngine {
    cfg: HealthConfig,
    sink: DumpSink,
    prev_overall: Option<HealthStatus>,
    pinned_since: Option<u64>,
    last_dump: Option<String>,
    dumps: u64,
    capture_hook: Option<Box<dyn FnMut(u64) -> Option<String> + Send>>,
}

impl std::fmt::Debug for HealthEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthEngine")
            .field("cfg", &self.cfg)
            .field("sink", &self.sink)
            .field("prev_overall", &self.prev_overall)
            .field("pinned_since", &self.pinned_since)
            .field("dumps", &self.dumps)
            .field("capture_hook", &self.capture_hook.is_some())
            .finish_non_exhaustive()
    }
}

impl HealthEngine {
    /// An engine with the given thresholds and the in-memory sink.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthEngine {
            cfg,
            ..Default::default()
        }
    }

    /// Replace the thresholds (e.g. to tighten them in a stress test).
    pub fn set_config(&mut self, cfg: HealthConfig) {
        self.cfg = cfg;
    }

    /// Current thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Route future black-box dumps.
    pub fn set_sink(&mut self, sink: DumpSink) {
        self.sink = sink;
    }

    /// Install a capture hook: on a CRITICAL transition the engine calls it
    /// with the dump timestamp, and the hook flushes whatever ring capture
    /// is armed, returning the written file's path so the black-box dump
    /// can reference it (`capture_path`). CRITICAL dumps then ship a
    /// replayable capture next to the derived-state snapshot.
    pub fn set_capture_hook(&mut self, hook: Box<dyn FnMut(u64) -> Option<String> + Send>) {
        self.capture_hook = Some(hook);
    }

    /// The most recent black-box dump, if any CRITICAL transition occurred.
    pub fn last_dump(&self) -> Option<&str> {
        self.last_dump.as_deref()
    }

    /// Number of black-box dumps taken.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Evaluate every rule at `now_us`. On a transition into CRITICAL,
    /// dump the black box (recorder contents + registry snapshot + this
    /// report) to the sink; on any overall change, record a
    /// [`EventKind::HealthTransition`] event.
    pub fn check(
        &mut self,
        now_us: u64,
        registry: &Registry,
        recorder: &FlightRecorder,
    ) -> HealthReport {
        let snapshot = registry.snapshot();
        let since = now_us.saturating_sub(WINDOW_US);
        let window: Vec<Event> = recorder.snapshot_since(since);
        let window_s = WINDOW_US as f64 / 1e6;

        let mut tx_packets = 0u64;
        let mut tx_msgs = 0u64;
        let mut nacked = 0u64;
        let mut nack_msgs = 0u64;
        let mut skips = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_tiles = 0u64;
        let mut staleness: Vec<u64> = Vec::new();
        // Per-actor (nacked sequences, NACK messages) so the loss and
        // nack_rate rules can name the offending participant/leg.
        let mut by_actor: std::collections::HashMap<u16, (u64, u64)> =
            std::collections::HashMap::new();
        for e in &window {
            match e.kind {
                EventKind::RtpTx => {
                    tx_msgs += 1;
                    tx_packets += e.b >> 32;
                }
                EventKind::NackReceived => {
                    nack_msgs += 1;
                    nacked += e.a;
                    let slot = by_actor.entry(e.actor).or_insert((0, 0));
                    slot.0 += e.a;
                    slot.1 += 1;
                }
                EventKind::BacklogSkip => skips += 1,
                EventKind::CacheHit => {
                    cache_hits += e.a;
                    cache_tiles += e.a;
                }
                EventKind::CacheMiss => cache_tiles += e.a,
                EventKind::FrameDelivered => staleness.push(e.a),
                _ => {}
            }
        }
        // Stable pick under ties: highest nacked count, then lowest actor id.
        let worst = by_actor
            .iter()
            .filter(|(_, (n, _))| *n > 0)
            .max_by_key(|(actor, (n, _))| (*n, u16::MAX - **actor))
            .map(|(actor, (n, msgs))| (*actor, *n, *msgs));
        let worst_loss = worst.map_or(String::new(), |(actor, n, _)| {
            format!("; worst: {} ({n} nacked)", actor_name(actor))
        });
        let worst_nacker = worst.map_or(String::new(), |(actor, _, msgs)| {
            format!("; worst: {} ({msgs} NACKs)", actor_name(actor))
        });

        let mut rules = Vec::with_capacity(7);
        let loss = if tx_packets == 0 {
            0.0
        } else {
            nacked as f64 / tx_packets as f64
        };
        rules.push(rule(
            "loss",
            loss,
            self.cfg.loss.0,
            self.cfg.loss.1,
            format!("{nacked} nacked / {tx_packets} sent in window{worst_loss}"),
        ));

        rules.push(rule(
            "nack_rate",
            nack_msgs as f64 / window_s,
            self.cfg.nack_rate.0,
            self.cfg.nack_rate.1,
            format!("{nack_msgs} NACKs / {window_s:.1} s{worst_nacker}"),
        ));

        // Windowed p99 of frame staleness (damage observed → delivered),
        // from FrameDelivered events. A rolling window matters here: the
        // session-cumulative `pipeline.total_us` histogram would let one
        // transient stall pin the rule at CRITICAL long after the system
        // recovered. No deliveries in the window reads as 0 — a quiet
        // screen is not stale; a stalled one shows up as loss/NACKs first.
        let p99 = if staleness.is_empty() {
            0
        } else {
            staleness.sort_unstable();
            staleness[(staleness.len() - 1) * 99 / 100]
        };
        let delivered = staleness.len();
        rules.push(rule(
            "staleness_p99",
            p99 as f64,
            self.cfg.staleness_p99_us.0 as f64,
            self.cfg.staleness_p99_us.1 as f64,
            format!("{delivered} frames delivered in window"),
        ));

        let skip_ratio = if skips + tx_msgs == 0 {
            0.0
        } else {
            skips as f64 / (skips + tx_msgs) as f64
        };
        rules.push(rule(
            "backlog_skip",
            skip_ratio,
            BACKLOG_SKIP.0,
            BACKLOG_SKIP.1,
            format!("{skips} skips vs {tx_msgs} sends in window"),
        ));

        // Cache rule inverts: LOW hit rate is bad. Evaluate as a deficit so
        // `rule()`'s >=-threshold logic still applies.
        let hit_rate = if cache_tiles == 0 {
            1.0
        } else {
            cache_hits as f64 / cache_tiles as f64
        };
        let cache_deficit = if cache_tiles < CACHE_MIN_TILES {
            0.0
        } else {
            (CACHE_HIT_FLOOR - hit_rate).max(0.0)
        };
        let mut cache_rule = rule(
            "cache_hit",
            hit_rate,
            CACHE_HIT_FLOOR,
            f64::INFINITY,
            format!("{cache_hits}/{cache_tiles} tiles from cache in window"),
        );
        cache_rule.status = if cache_deficit > 0.0 {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        rules.push(cache_rule);

        let pinned_now = snapshot.metrics.iter().any(|(name, m)| {
            name.ends_with(".rate.rate_bps")
                && matches!(m, MetricSnapshot::Gauge(v) if *v > 0 && *v <= ESTIMATOR_FLOOR_BPS as i64)
        });
        self.pinned_since = if pinned_now {
            Some(self.pinned_since.unwrap_or(now_us))
        } else {
            None
        };
        let pinned_us = self.pinned_since.map_or(0, |t| now_us.saturating_sub(t));
        rules.push(rule(
            "floor_pinned",
            pinned_us as f64,
            FLOOR_PINNED_US.0 as f64,
            FLOOR_PINNED_US.1 as f64,
            format!("µs at floor ({ESTIMATOR_FLOOR_BPS} bit/s)"),
        ));

        // Worst active quality tier across every layered sender (`*.tier`
        // gauges from rate controllers and relay legs). Degraded-only by
        // construction: a tier downgrade is the system *working* —
        // trading quality for liveness — so it must surface in reports
        // and scenario expectations without tripping a black-box dump.
        let worst_tier = snapshot
            .metrics
            .iter()
            .filter(|(name, _)| name.ends_with(".tier"))
            .filter_map(|(_, m)| match m {
                MetricSnapshot::Gauge(v) => Some(*v),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let mut tier_rule = rule(
            "tier",
            worst_tier as f64,
            TIER_DEGRADED as f64,
            f64::INFINITY,
            "worst active quality tier (0 = lossless)".to_string(),
        );
        tier_rule.status = if worst_tier >= TIER_DEGRADED {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ok
        };
        rules.push(tier_rule);

        let overall = rules
            .iter()
            .map(|r| r.status)
            .max()
            .unwrap_or(HealthStatus::Ok);
        let report = HealthReport {
            at_us: now_us,
            overall,
            rules,
        };

        let prev = self.prev_overall;
        if prev != Some(overall) {
            recorder.record(
                now_us,
                events::ACTOR_AH,
                EventKind::HealthTransition,
                overall as u64,
                prev.map_or(0, |p| p as u64),
            );
            if overall == HealthStatus::Critical {
                self.dump(&report, &snapshot, recorder);
            }
        }
        self.prev_overall = Some(overall);
        report
    }

    fn dump(&mut self, report: &HealthReport, snapshot: &Snapshot, recorder: &FlightRecorder) {
        let capture_path = self
            .capture_hook
            .as_mut()
            .and_then(|hook| hook(report.at_us));
        let out = json::object(|o| {
            o.str("schema", BLACKBOX_SCHEMA)
                .u64("at_us", report.at_us)
                .raw("report", &report.to_json())
                .raw("events", &recorder.to_json())
                .raw("snapshot", &snapshot.to_json());
            if let Some(path) = &capture_path {
                o.str("capture_path", path);
            }
        });
        if let DumpSink::Dir(dir) = &self.sink {
            let path = dir.join(format!("blackbox_{}.json", report.at_us));
            // Best-effort: a failed dump must never take the session down.
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, &out);
        }
        self.last_dump = Some(out);
        self.dumps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ACTOR_AH;

    fn engine() -> (HealthEngine, Registry, FlightRecorder) {
        (
            HealthEngine::new(HealthConfig::default()),
            Registry::new(),
            FlightRecorder::new(256),
        )
    }

    #[test]
    fn idle_session_is_ok() {
        let (mut eng, reg, rec) = engine();
        let report = eng.check(10_000_000, &reg, &rec);
        assert_eq!(report.overall, HealthStatus::Ok);
        assert_eq!(report.rules.len(), 7);
        assert!(eng.last_dump().is_none());
    }

    #[test]
    fn heavy_loss_goes_critical_and_dumps_black_box() {
        let (mut eng, reg, rec) = engine();
        let now = 10_000_000;
        for i in 0..20u64 {
            rec.record(now - 1000 - i, ACTOR_AH, EventKind::RtpTx, i, 4 << 32);
        }
        for i in 0..30u64 {
            rec.record(now - 500 - i, ACTOR_AH, EventKind::NackReceived, 10, i);
        }
        let report = eng.check(now, &reg, &rec);
        assert_eq!(report.overall, HealthStatus::Critical);
        let dump = eng.last_dump().expect("critical transition dumps");
        let doc = json::parse(dump).expect("dump parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some(BLACKBOX_SCHEMA)
        );
        assert!(dump.contains("nack_received"), "triggering events captured");
        assert_eq!(eng.dumps(), 1);
        // Staying critical must not dump again.
        eng.check(now + 1000, &reg, &rec);
        assert_eq!(eng.dumps(), 1);
    }

    #[test]
    fn moderate_loss_is_degraded_without_dump() {
        let (mut eng, reg, rec) = engine();
        let now = 10_000_000;
        for i in 0..100u64 {
            rec.record(now - 1000 - i, ACTOR_AH, EventKind::RtpTx, i, 1 << 32);
        }
        rec.record(now - 500, ACTOR_AH, EventKind::NackReceived, 5, 0);
        let report = eng.check(now, &reg, &rec);
        assert_eq!(report.overall, HealthStatus::Degraded);
        assert!(eng.last_dump().is_none());
    }

    #[test]
    fn events_outside_window_do_not_count() {
        let (mut eng, reg, rec) = engine();
        let now = 10_000_000;
        for i in 0..30u64 {
            rec.record(1000 + i, ACTOR_AH, EventKind::NackReceived, 10, i);
        }
        rec.record(now - 10, ACTOR_AH, EventKind::RtpTx, 0, 4 << 32);
        let report = eng.check(now, &reg, &rec);
        assert_eq!(report.overall, HealthStatus::Ok, "old NACKs aged out");
    }

    #[test]
    fn floor_pin_accumulates_across_checks() {
        let (mut eng, reg, rec) = engine();
        reg.gauge("ah.participant.0.rate.rate_bps").set(128_000);
        eng.check(1_000_000, &reg, &rec);
        let report = eng.check(2_500_000, &reg, &rec);
        let pin = report
            .rules
            .iter()
            .find(|r| r.name == "floor_pinned")
            .unwrap();
        assert_eq!(pin.status, HealthStatus::Degraded);
        assert_eq!(pin.value, 1_500_000.0);
        // Recovery resets the pin clock.
        reg.gauge("ah.participant.0.rate.rate_bps").set(2_000_000);
        let report = eng.check(3_000_000, &reg, &rec);
        let pin = report
            .rules
            .iter()
            .find(|r| r.name == "floor_pinned")
            .unwrap();
        assert_eq!(pin.status, HealthStatus::Ok);
    }

    #[test]
    fn loss_detail_names_worst_offender() {
        let (mut eng, reg, rec) = engine();
        let now = 10_000_000;
        for i in 0..100u64 {
            rec.record(now - 1000 - i, ACTOR_AH, EventKind::RtpTx, i, 1 << 32);
        }
        rec.record(now - 500, 3, EventKind::NackReceived, 2, 0);
        rec.record(now - 400, 7, EventKind::NackReceived, 9, 0);
        rec.record(now - 300, 7, EventKind::NackReceived, 1, 0);
        let report = eng.check(now, &reg, &rec);
        let loss = report.rules.iter().find(|r| r.name == "loss").unwrap();
        assert!(
            loss.detail.contains("worst: participant 7 (10 nacked)"),
            "loss detail names offender: {}",
            loss.detail
        );
        let nack = report.rules.iter().find(|r| r.name == "nack_rate").unwrap();
        assert!(
            nack.detail.contains("worst: participant 7 (2 NACKs)"),
            "nack_rate detail names offender: {}",
            nack.detail
        );
    }

    #[test]
    fn transition_records_health_event() {
        let (mut eng, reg, rec) = engine();
        eng.check(1_000_000, &reg, &rec);
        let events = rec.snapshot();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::HealthTransition && e.a == HealthStatus::Ok as u64));
    }
}
