//! # adshare-obs — unified observability for the adshare pipeline
//!
//! One registry, three metric kinds, one trace token:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`]: atomic handles updated lock-free
//!   on hot paths; the log₂-bucket histogram reports p50/p90/p99.
//! - [`Registry`]: hierarchical dot-separated names (`ah.encode_us`,
//!   `participant.0.udp.tx_bytes`), idempotent registration, *adoption* of
//!   handles owned by existing structs, and JSON [`Snapshot`] export
//!   (`adshare-obs/v1`).
//! - [`FrameTrace`] + [`TraceSink`]: follows one `RegionUpdate` from damage
//!   observation through encode, fragmentation, and transport to decode,
//!   yielding a per-stage [`StageLatencies`] breakdown keyed on
//!   `(ssrc, marker fragment sequence)` with no wire-format change.
//! - [`FlightRecorder`]: a lock-free fixed-capacity ring of compact
//!   structured [`Event`]s (NACK/PLI, retransmits, rate decisions, cache
//!   hits, floor control) — the session's always-on black box.
//! - [`HealthEngine`]: rolling-window SLO rules over metrics + events with
//!   CRITICAL-triggered black-box dumps.
//! - [`timeline`]: Chrome-trace / Perfetto JSON export merging stage spans
//!   and recorder events.
//! - [`Obs`]: the cloneable bundle (registry + sink + stage histograms +
//!   recorder + health) threaded through AH, participants, and transports.
//! - [`json`], [`metric_set!`] and [`schema`]: the one document layer under
//!   all of the above and under every other crate's stats — a streaming
//!   JSON writer (and parser), a metric set declared once, and the walker
//!   that checks any emitted document against the checked-in schema files.
//!
//! See DESIGN.md § Observability and § Flight recorder & health for the
//! naming scheme and how to add a metric, event, or rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod health;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod schema;
mod set;
pub mod timeline;
pub mod trace;

pub use events::{
    Event, EventKind, FlightRecorder, ACTOR_AH, ACTOR_LEG_BASE, ACTOR_RELAY, EVENTS_SCHEMA,
    EVENT_KINDS, RATE_CAUSE_BACKLOG, RATE_CAUSE_LOSS_REPORT, RATE_CAUSE_NACK_BURST,
};
pub use health::{
    DumpSink, HealthConfig, HealthEngine, HealthReport, HealthStatus, RuleReport, BLACKBOX_SCHEMA,
    ESTIMATOR_FLOOR_BPS, HEALTH_SCHEMA,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricSnapshot, Registry, Snapshot, SNAPSHOT_SCHEMA};
pub use timeline::{
    chrome_trace_json, chrome_trace_json_with_packets, validate_chrome_trace, PacketSample,
};
pub use trace::{
    CompletedTrace, FrameTrace, Obs, StageHistograms, StageLatencies, TraceSink, STAGE_NAMES,
};
