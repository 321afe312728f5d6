//! End-to-end application and desktop sharing sessions.
//!
//! This crate composes every substrate into the system Figure 1 of the
//! draft describes: an [`AppHost`] that captures window content, encodes
//! damaged regions, packetizes them onto per-participant RTP streams, and
//! paces transmission per transport policy; and a [`Participant`] that
//! reorders/reassembles the stream, decodes updates into local window
//! buffers, lays the windows out on its own screen (Figures 3–5), and
//! sends HIP events back — moderated by BFCP floor control.
//!
//! * [`config`] — tunables for both sides (codec, MTU, §7 policy, …).
//! * [`app_host`] — the AH pipeline and per-participant transmit state.
//! * [`egress`] — the wire boundary every sender (AH legs, relay legs)
//!   writes through: digest fold, capture tap, TCP framing, transport.
//! * [`ingress`] — the receive half every receiver (participants, a
//!   relay's upstream side) runs: reorder, reassembly, NACK/PLI/RR.
//! * [`mirror`] — the shared windows as the stream describes them; the one
//!   place remoting messages are applied to pixels.
//! * [`participant`] — the viewer on top of those two: layout, rendering,
//!   latency, HIP.
//! * [`world`] — the one simulated world: an AH, relays and viewers as
//!   nodes with parents and uplinks over `adshare-netsim` links, one step.
//! * [`sim`] — [`SimSession`], the world with direct viewers only; every
//!   experiment drives this.
//! * [`driver`] — the [`SessionDriver`] contract a multi-tenant host's
//!   readiness event loop steps sessions through.
//! * [`baseline`] — a VNC-style client-pull baseline for comparison.
//! * [`scenario`] — seeded adversarial scenario schedules (churn,
//!   bandwidth cliffs, floor storms) judged by the health engine.
//! * [`mod@replay`] — deterministic re-execution of `adshare-capture/v1`
//!   files with bit-exact wire/surface digest checks and historical
//!   Perfetto export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app_host;
pub mod baseline;
pub mod config;
pub mod driver;
pub mod egress;
pub mod ingress;
pub mod mirror;
pub mod participant;
pub mod replay;
pub mod scenario;
pub mod sim;
pub mod world;

pub use app_host::{AppHost, ParticipantHandle};
pub use config::{AhConfig, Layout, PointerPolicy, TransportKind};
pub use driver::SessionDriver;
pub use participant::Participant;
pub use replay::{
    historical_chrome_trace, packet_samples, participant_surface_digest, replay, ReplayReport,
    SurfaceCheck,
};
pub use scenario::{run_scenario, Action, Scenario, ScenarioCapture, ScenarioOutcome, TimedEvent};
pub use sim::SimSession;
