//! Per-frame pipeline tracing.
//!
//! A [`FrameTrace`] token follows one `RegionUpdate` through the pipeline:
//! damage is observed (`adshare-screen`), the region is encoded
//! (`adshare-codec` via the AH), fragmented (`adshare-remoting`), sent and
//! delivered over a simulated transport (`adshare-netsim`), and decoded at a
//! participant (`adshare-session`). The sender registers the trace keyed on
//! `(ssrc, sequence of the marker fragment)` — the packet whose arrival
//! completes reassembly — so the receiver can complete it without any wire
//! format change.
//!
//! Times on the `*_at_us` axis are **virtual simulation microseconds**; the
//! `*_wall_us` fields are **wall-clock CPU time** spent in a stage. The two
//! axes never mix inside a single stage figure.

use crate::metrics::Histogram;
use crate::registry::Registry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Sender-side record of one region update's journey, registered when the
/// update is packetized.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameTrace {
    /// Wire window id the update belongs to.
    pub window_id: u16,
    /// Virtual time the oldest damage merged into this update was observed.
    pub damage_at_us: u64,
    /// Virtual time the update's packets were handed to the transport.
    pub sent_at_us: u64,
    /// Wall-clock time spent encoding the region.
    pub encode_wall_us: u64,
    /// Wall-clock time spent fragmenting the encoded message.
    pub fragment_wall_us: u64,
    /// Number of fragments the update was split into.
    pub fragments: u32,
    /// Encoded payload size in bytes.
    pub bytes: u64,
}

/// Per-stage latency breakdown for one delivered frame. `total_us` is the
/// sum of the five stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Damage observed → handed to transport (virtual µs): capture cadence,
    /// merge batching, and pacing queue time.
    pub damage_us: u64,
    /// Encode cost (wall µs).
    pub encode_us: u64,
    /// Fragmentation cost (wall µs).
    pub fragment_us: u64,
    /// Transport: sent → last fragment delivered, including any
    /// retransmission rounds (virtual µs).
    pub transport_us: u64,
    /// Decode cost at the participant (wall µs).
    pub decode_us: u64,
    /// Sum of all stages.
    pub total_us: u64,
}

/// A completed trace: the sender-side token plus receiver-side timings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedTrace {
    /// RTP SSRC of the media stream.
    pub ssrc: u32,
    /// Sequence number of the marker (final) fragment.
    pub seq: u16,
    /// Virtual delivery time at the completing participant.
    pub delivered_at_us: u64,
    /// The sender-side token.
    pub trace: FrameTrace,
    /// Derived stage breakdown.
    pub stages: StageLatencies,
}

#[derive(Debug, Default)]
struct TraceSinkInner {
    pending: HashMap<(u32, u16), FrameTrace>,
    pending_order: VecDeque<(u32, u16)>,
    completed: VecDeque<CompletedTrace>,
}

/// Bounded, shared store of in-flight and completed frame traces.
///
/// Completion is **non-destructive**: with multicast fan-out several
/// participants complete the same key, each producing its own
/// [`CompletedTrace`]. Pending entries are evicted FIFO past the capacity
/// bound (frames lost beyond recovery would otherwise pin memory forever).
#[derive(Debug, Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<TraceSinkInner>>,
    capacity: usize,
    counters: SinkCounters,
}

crate::metric_set! {
    /// The sink's own health counters.
    struct SinkCounters {
        registered: counter "registered",
        completed: counter "completed",
        evicted: counter "evicted",
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(4096)
    }
}

impl TraceSink {
    /// A sink bounding both pending and completed traces to `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            inner: Arc::new(Mutex::new(TraceSinkInner::default())),
            capacity: capacity.max(1),
            counters: SinkCounters::default(),
        }
    }

    /// Expose the sink's own health counters on `registry`.
    pub fn register_metrics(&self, registry: &Registry) {
        self.counters.register(registry, "trace");
    }

    /// Sender side: file `trace` under the marker fragment's `(ssrc, seq)`.
    pub fn register(&self, ssrc: u32, seq: u16, trace: FrameTrace) {
        let mut inner = self.inner.lock().unwrap();
        let key = (ssrc, seq);
        if inner.pending.insert(key, trace).is_none() {
            inner.pending_order.push_back(key);
        }
        while inner.pending.len() > self.capacity {
            if let Some(old) = inner.pending_order.pop_front() {
                if inner.pending.remove(&old).is_some() {
                    self.counters.evicted.inc();
                }
            } else {
                break;
            }
        }
        self.counters.registered.inc();
    }

    /// Receiver side: a message keyed by `(ssrc, seq)` finished reassembly
    /// and decoded in `decode_wall_us`. Returns the stage breakdown, or
    /// `None` for untraced messages (evicted, or predating the sink).
    pub fn complete(
        &self,
        ssrc: u32,
        seq: u16,
        delivered_at_us: u64,
        decode_wall_us: u64,
    ) -> Option<StageLatencies> {
        let mut inner = self.inner.lock().unwrap();
        let trace = *inner.pending.get(&(ssrc, seq))?;
        let stages = compute_stages(&trace, delivered_at_us, decode_wall_us);
        inner.completed.push_back(CompletedTrace {
            ssrc,
            seq,
            delivered_at_us,
            trace,
            stages,
        });
        while inner.completed.len() > self.capacity {
            inner.completed.pop_front();
        }
        self.counters.completed.inc();
        Some(stages)
    }

    /// Copy of all retained completed traces, oldest first.
    pub fn completed_traces(&self) -> Vec<CompletedTrace> {
        self.inner
            .lock()
            .unwrap()
            .completed
            .iter()
            .copied()
            .collect()
    }

    /// Number of currently pending (registered, not yet completed) traces.
    pub fn pending_len(&self) -> usize {
        self.inner.lock().unwrap().pending.len()
    }
}

fn compute_stages(trace: &FrameTrace, delivered_at_us: u64, decode_wall_us: u64) -> StageLatencies {
    let damage_us = trace.sent_at_us.saturating_sub(trace.damage_at_us);
    let transport_us = delivered_at_us.saturating_sub(trace.sent_at_us);
    let encode_us = trace.encode_wall_us;
    let fragment_us = trace.fragment_wall_us;
    let decode_us = decode_wall_us;
    StageLatencies {
        damage_us,
        encode_us,
        fragment_us,
        transport_us,
        decode_us,
        total_us: damage_us + encode_us + fragment_us + transport_us + decode_us,
    }
}

/// The five pipeline stages plus the total, in reporting order.
pub const STAGE_NAMES: [&str; 6] = [
    "damage",
    "encode",
    "fragment",
    "transport",
    "decode",
    "total",
];

/// Registry-backed histograms for each pipeline stage.
#[derive(Debug, Clone)]
pub struct StageHistograms {
    /// One histogram per entry of [`STAGE_NAMES`].
    hists: [Histogram; 6],
}

impl StageHistograms {
    /// Create (or re-attach to) `pipeline.<stage>_us` histograms on `registry`.
    pub fn new(registry: &Registry) -> Self {
        let hists = STAGE_NAMES.map(|s| registry.histogram(&format!("pipeline.{s}_us")));
        StageHistograms { hists }
    }

    /// Record one delivered frame's breakdown.
    pub fn record(&self, stages: &StageLatencies) {
        let values = [
            stages.damage_us,
            stages.encode_us,
            stages.fragment_us,
            stages.transport_us,
            stages.decode_us,
            stages.total_us,
        ];
        for (h, v) in self.hists.iter().zip(values) {
            h.record(v);
        }
    }
}

/// The observability bundle threaded through the pipeline: one shared
/// registry, one shared trace sink, the stage histograms connecting them,
/// plus the session's flight recorder and health engine.
#[derive(Debug, Clone)]
pub struct Obs {
    /// The metric registry every component exports into.
    pub registry: Registry,
    /// Frame traces in flight and completed.
    pub traces: TraceSink,
    /// The always-on black-box event ring.
    pub recorder: Arc<crate::events::FlightRecorder>,
    /// The rolling-window SLO engine (locked only on `health_check`).
    pub health: Arc<Mutex<crate::health::HealthEngine>>,
    stage_hists: StageHistograms,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh bundle with an empty registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let traces = TraceSink::default();
        traces.register_metrics(&registry);
        let stage_hists = StageHistograms::new(&registry);
        Obs {
            registry,
            traces,
            recorder: Arc::new(crate::events::FlightRecorder::default()),
            health: Arc::new(Mutex::new(crate::health::HealthEngine::default())),
            stage_hists,
        }
    }

    /// Record one flight-recorder event (see [`crate::events::EventKind`]
    /// for the `a`/`b` payload conventions).
    pub fn event(&self, ts_us: u64, actor: u16, kind: crate::events::EventKind, a: u64, b: u64) {
        self.recorder.record(ts_us, actor, kind, a, b);
    }

    /// Evaluate the health rules at `now_us` (dumping the black box on a
    /// CRITICAL transition — see [`crate::health::HealthEngine::check`]).
    pub fn health_check(&self, now_us: u64) -> crate::health::HealthReport {
        self.health
            .lock()
            .unwrap()
            .check(now_us, &self.registry, &self.recorder)
    }

    /// Export completed stage spans plus the current event ring as
    /// Chrome-trace JSON (see [`crate::timeline`]).
    pub fn export_chrome_trace(&self) -> String {
        crate::timeline::chrome_trace_json(
            &self.traces.completed_traces(),
            &self.recorder.snapshot(),
        )
    }

    /// Receiver-side completion: resolve the trace for `(ssrc, seq)`, record
    /// its breakdown into the `pipeline.*_us` histograms, and return it.
    pub fn complete_frame(
        &self,
        ssrc: u32,
        seq: u16,
        delivered_at_us: u64,
        decode_wall_us: u64,
    ) -> Option<StageLatencies> {
        let stages = self
            .traces
            .complete(ssrc, seq, delivered_at_us, decode_wall_us)?;
        self.stage_hists.record(&stages);
        Some(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(damage: u64, sent: u64) -> FrameTrace {
        FrameTrace {
            window_id: 1,
            damage_at_us: damage,
            sent_at_us: sent,
            encode_wall_us: 40,
            fragment_wall_us: 5,
            fragments: 3,
            bytes: 2048,
        }
    }

    #[test]
    fn register_complete_breakdown() {
        let sink = TraceSink::default();
        sink.register(7, 100, trace(1_000, 3_000));
        let stages = sink.complete(7, 100, 10_000, 25).unwrap();
        assert_eq!(stages.damage_us, 2_000);
        assert_eq!(stages.transport_us, 7_000);
        assert_eq!(stages.encode_us, 40);
        assert_eq!(stages.fragment_us, 5);
        assert_eq!(stages.decode_us, 25);
        assert_eq!(stages.total_us, 2_000 + 7_000 + 40 + 5 + 25);
        assert_eq!(sink.completed_traces().len(), 1);
    }

    #[test]
    fn unknown_key_returns_none() {
        let sink = TraceSink::default();
        assert!(sink.complete(1, 1, 10, 0).is_none());
    }

    #[test]
    fn completion_is_non_destructive_for_multicast() {
        let sink = TraceSink::default();
        sink.register(9, 5, trace(0, 100));
        let a = sink.complete(9, 5, 400, 10).unwrap();
        let b = sink.complete(9, 5, 900, 12).unwrap();
        assert_eq!(a.transport_us, 300);
        assert_eq!(b.transport_us, 800);
        assert_eq!(sink.completed_traces().len(), 2);
    }

    #[test]
    fn pending_evicts_fifo_past_capacity() {
        let sink = TraceSink::with_capacity(4);
        for seq in 0..10u16 {
            sink.register(1, seq, trace(0, 1));
        }
        assert_eq!(sink.pending_len(), 4);
        assert!(sink.complete(1, 0, 10, 0).is_none(), "oldest evicted");
        assert!(sink.complete(1, 9, 10, 0).is_some(), "newest retained");
    }

    #[test]
    fn obs_records_stage_histograms() {
        let obs = Obs::new();
        obs.traces.register(3, 1, trace(0, 1_000));
        obs.traces.register(3, 2, trace(500, 2_000));
        obs.complete_frame(3, 1, 5_000, 30).unwrap();
        obs.complete_frame(3, 2, 4_000, 20).unwrap();
        let snap = obs.registry.snapshot();
        for stage in STAGE_NAMES {
            let h = snap
                .histogram(&format!("pipeline.{stage}_us"))
                .unwrap_or_else(|| panic!("missing pipeline.{stage}_us"));
            assert_eq!(h.count, 2, "pipeline.{stage}_us");
        }
        assert_eq!(snap.counter("trace.registered"), Some(2));
        assert_eq!(snap.counter("trace.completed"), Some(2));
        let transport = snap.histogram("pipeline.transport_us").unwrap();
        assert_eq!(transport.max, 4_000);
    }

    #[test]
    fn duplicate_registration_overwrites_in_place() {
        let sink = TraceSink::with_capacity(8);
        sink.register(1, 1, trace(0, 100));
        sink.register(1, 1, trace(0, 200));
        assert_eq!(sink.pending_len(), 1);
        let stages = sink.complete(1, 1, 300, 0).unwrap();
        assert_eq!(stages.transport_us, 100, "latest registration wins");
    }
}
